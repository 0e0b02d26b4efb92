//! Machine-readable routing baseline: cold vs. warm-cache ns/route on a
//! hot-spot and a uniform-target query stream, for both the greedy mesh
//! walk and the two-phase express engine, written to `BENCH_routing.json`.
//!
//! Regenerate with exactly one command (from the repo root):
//!
//! ```text
//! cargo run --release -p geogrid-bench --bin routing_bench
//! ```
//!
//! Network sizes come from `GEOGRID_BENCH_SIZES` (comma-separated) or
//! numeric CLI arguments, defaulting to the full sweep up to 1,048,576
//! regions; `GEOGRID_BENCH_ROUTES` overrides the per-size query count
//! (default 20,000). A non-numeric argument names the output file.
//!
//! Every size runs every stream in [`STREAMS`]. *Cold* routes through
//! `routing::route_uncached` (per-query `HashSet` and `Vec`s, nothing
//! shared between queries); *warm* routes the same query stream through
//! one persistent `Router` — once with the paper-faithful greedy
//! `RouteOptions::greedy()` (hop-for-hop identical to cold, so the ratio
//! isolates engine overhead) and once with `RouteOptions::express()`,
//! whose express-finger descent shortens long paths to O(log N) hops
//! before handing off to the same greedy walk. Each cold and warm timing
//! is a full sweep repeated [`REPEATS`] times; rows report the median and
//! the min/max, with the host's core count and the commit measured. Each
//! variant's hops-vs-N scaling exponent is fitted by least squares on the
//! log-log sweep of the hot-spot stream.

use std::time::Instant;

use geogrid_bench::common::build_network;
use geogrid_bench::ExperimentConfig;
use geogrid_core::builder::Mode;
use geogrid_core::routing::{self, RouteOptions, Router};
use geogrid_core::{RegionId, Topology};
use geogrid_geometry::Point;

/// Default network sizes swept (basic mode: regions == nodes).
const DEFAULT_SIZES: [usize; 5] = [1_024, 4_096, 16_384, 65_536, 1_048_576];

/// Default routed queries measured per size.
const DEFAULT_ROUTES: usize = 20_000;

/// Timed sweeps per cold and per warm measurement.
const REPEATS: usize = 5;

/// Fixed hot points in the hot-spot square.
const HOT_POINTS: u64 = 64;

/// A deterministic query stream: the target of the `i`-th query.
type Stream = fn(u64) -> Point;

/// The query streams every size is measured on.
const STREAMS: [(&str, Stream); 2] = [("hotspot", hotspot_target), ("uniform", uniform_target)];

/// The `i`-th point of a deterministic Weyl sequence over the unit square.
fn weyl_unit(i: u64) -> (f64, f64) {
    let u = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
    let v = (i.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 11) as f64 / (1u64 << 53) as f64;
    (u, v)
}

/// Hot-spot query stream (paper §4): 80% of queries target one of
/// [`HOT_POINTS`] fixed places inside a 2-mile square — location queries
/// name concrete destinations ("the traffic around Exit 89"), so the hot
/// stream repeats exact coordinates — and the rest probe uniform points
/// over the plane.
fn hotspot_target(i: u64) -> Point {
    if i.is_multiple_of(5) {
        uniform_target(i)
    } else {
        let k = i.wrapping_mul(0xD1B5_4A32_D192_ED03) % HOT_POINTS + 1;
        let (u, v) = weyl_unit(k);
        Point::new(46.0 + 2.0 * u, 46.0 + 2.0 * v)
    }
}

/// Uniform-target stream: every query of a sweep names a fresh point
/// spread over the whole 64×64 plane. Sweeps replay the stream, so a
/// target recurs only `routes` queries later — at the default count,
/// long after the route cache's recurrence table has forgotten it.
fn uniform_target(i: u64) -> Point {
    let (u, v) = weyl_unit(i);
    Point::new(u * 64.0, v * 64.0)
}

struct Row {
    regions: usize,
    stream: &'static str,
    variant: &'static str,
    express: bool,
    cold: Spread,
    warm: Spread,
    hops_mean: f64,
    cache_hit_rate: f64,
    express_prefix_mean: f64,
}

/// Median, min and max ns/route over the [`REPEATS`] timed sweeps.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self {
            median: samples[samples.len() / 2],
            min: samples[0],
            max: samples[samples.len() - 1],
        }
    }
}

/// The `i`-th `(source, target)` pair of `stream`.
fn pair(sources: &[RegionId], stream: Stream, i: u64) -> (RegionId, Point) {
    (
        sources[(i as usize).wrapping_mul(7) % sources.len()],
        stream(i),
    )
}

/// Times [`REPEATS`] runs of `sweep` (one pass over `routes` queries
/// returning its totals) and asserts every run returns the same totals.
/// Returns (ns/route spread, totals of one sweep).
fn timed_sweeps<T: Copy + PartialEq + std::fmt::Debug>(
    routes: usize,
    mut sweep: impl FnMut() -> T,
) -> (Spread, T) {
    let mut samples = Vec::with_capacity(REPEATS);
    let mut first = None;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let totals = sweep();
        samples.push(start.elapsed().as_nanos() as f64 / routes as f64);
        assert_eq!(*first.get_or_insert(totals), totals, "sweeps diverged");
    }
    (Spread::of(samples), first.expect("REPEATS > 0"))
}

/// Cold passes of `routes` queries through the allocating reference.
/// Returns (ns/route spread, total hops of one sweep).
fn cold_passes(
    topo: &Topology,
    sources: &[RegionId],
    stream: Stream,
    routes: usize,
) -> (Spread, usize) {
    timed_sweeps(routes, || {
        (1..=routes as u64)
            .map(|i| {
                let (from, target) = pair(sources, stream, i);
                routing::route_uncached(topo, from, target)
                    .expect("routable")
                    .hop_count()
            })
            .sum()
    })
}

/// Warm passes of `routes` queries through the given engine: a full
/// cache-warming sweep, then [`REPEATS`] timed sweeps on the same
/// `Router`. Returns (ns/route spread, total hops and total
/// express-prefix hops of one sweep, hit rate over the timed sweeps).
fn warm_passes(
    topo: &Topology,
    sources: &[RegionId],
    stream: Stream,
    routes: usize,
    express: bool,
) -> (Spread, usize, usize, f64) {
    let mut router = Router::new();
    let options = if express {
        RouteOptions::express()
    } else {
        RouteOptions::greedy()
    };
    let sweep = |router: &mut Router| {
        let (mut hops, mut prefix) = (0usize, 0usize);
        for i in 1..=routes as u64 {
            let (from, target) = pair(sources, stream, i);
            router
                .route(topo, from, target, &options)
                .expect("routable");
            hops += router.hop_count();
            prefix += router.express_prefix();
        }
        (hops, prefix)
    };
    sweep(&mut router);
    router.reset_stats();
    let (spread, (hops, prefix)) = timed_sweeps(routes, || sweep(&mut router));
    (spread, hops, prefix, router.hit_rate())
}

/// Measures one network size: per stream, a shared cold reference
/// measurement, then a warm greedy row and a warm express row.
fn measure(config: &ExperimentConfig, n: usize, routes: usize) -> Vec<Row> {
    eprintln!("routing_bench: building {n}-region network...");
    let built = Instant::now();
    let topo = build_network(config, Mode::Basic, n, 0);
    eprintln!(
        "routing_bench: built {n} regions in {:.1}s",
        built.elapsed().as_secs_f64()
    );
    let sources: Vec<RegionId> = topo.region_ids().collect();
    let mut rows = Vec::new();
    for (name, stream) in STREAMS {
        let (cold, cold_hops) = cold_passes(&topo, &sources, stream, routes);
        let (greedy, greedy_hops, _, greedy_hits) =
            warm_passes(&topo, &sources, stream, routes, false);
        assert_eq!(
            cold_hops, greedy_hops,
            "{name}: engines must walk identical paths"
        );
        let (express, express_hops, express_prefix, express_hits) =
            warm_passes(&topo, &sources, stream, routes, true);
        assert!(
            express_hops <= cold_hops,
            "{name}: express walked {express_hops} total hops vs greedy {cold_hops}"
        );
        rows.push(Row {
            regions: n,
            stream: name,
            variant: "greedy",
            express: false,
            cold,
            warm: greedy,
            hops_mean: greedy_hops as f64 / routes as f64,
            cache_hit_rate: greedy_hits,
            express_prefix_mean: 0.0,
        });
        rows.push(Row {
            regions: n,
            stream: name,
            variant: "express",
            express: true,
            cold,
            warm: express,
            hops_mean: express_hops as f64 / routes as f64,
            cache_hit_rate: express_hits,
            express_prefix_mean: express_prefix as f64 / routes as f64,
        });
    }
    rows
}

/// Least-squares slope of ln(hops_mean) against ln(regions): the fitted
/// exponent b of hops ≈ a·N^b. Needs ≥ 2 sizes; NaN otherwise.
fn scaling_exponent(rows: &[&Row]) -> f64 {
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| ((r.regions as f64).ln(), r.hops_mean.ln()))
        .collect();
    let k = pts.len() as f64;
    let (sx, sy): (f64, f64) = pts.iter().fold((0.0, 0.0), |(a, b), p| (a + p.0, b + p.1));
    let (sxx, sxy) = pts
        .iter()
        .fold((0.0, 0.0), |(a, b), p| (a + p.0 * p.0, b + p.0 * p.1));
    (k * sxy - sx * sy) / (k * sxx - sx * sx)
}

/// Sizes from `GEOGRID_BENCH_SIZES` / numeric CLI args; output path from
/// the first non-numeric argument.
fn parse_config() -> (Vec<usize>, usize, String) {
    let mut sizes: Vec<usize> = Vec::new();
    let mut out = "BENCH_routing.json".to_string();
    if let Ok(env_sizes) = std::env::var("GEOGRID_BENCH_SIZES") {
        sizes.extend(
            env_sizes
                .split(',')
                .filter_map(|s| s.trim().replace('_', "").parse::<usize>().ok()),
        );
    }
    for arg in std::env::args().skip(1) {
        match arg.replace('_', "").parse::<usize>() {
            Ok(n) => sizes.push(n),
            Err(_) => out = arg,
        }
    }
    if sizes.is_empty() {
        sizes.extend(DEFAULT_SIZES);
    }
    let routes = std::env::var("GEOGRID_BENCH_ROUTES")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(DEFAULT_ROUTES);
    (sizes, routes, out)
}

/// The commit being measured (`git describe --always --dirty`), or
/// `"unknown"` outside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let (sizes, routes, path) = parse_config();
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let commit = commit();
    let config = ExperimentConfig::default();
    let rows: Vec<Row> = sizes
        .iter()
        .flat_map(|&n| measure(&config, n, routes))
        .collect();

    println!(
        "{:>8} {:>8} {:>8} {:>14} {:>14} {:>16} {:>9} {:>10} {:>11} {:>9}",
        "regions",
        "stream",
        "variant",
        "cold_ns/route",
        "warm_ns/route",
        "warm_min..max",
        "speedup",
        "hops_mean",
        "expr_prefix",
        "hit_rate"
    );
    let mut entries = Vec::new();
    for r in &rows {
        let speedup = r.cold.median / r.warm.median;
        println!(
            "{:>8} {:>8} {:>8} {:>14.0} {:>14.0} {:>16} {:>8.1}x {:>10.2} {:>11.2} {:>9.3}",
            r.regions,
            r.stream,
            r.variant,
            r.cold.median,
            r.warm.median,
            format!("{:.0}..{:.0}", r.warm.min, r.warm.max),
            speedup,
            r.hops_mean,
            r.express_prefix_mean,
            r.cache_hit_rate
        );
        entries.push(format!(
            "    {{\n      \"regions\": {},\n      \"stream\": \"{}\",\n      \"variant\": \"{}\",\n      \"express\": {},\n      \"repeats\": {REPEATS},\n      \"cold_ns_per_route\": {:.1},\n      \"cold_ns_min\": {:.1},\n      \"cold_ns_max\": {:.1},\n      \"warm_ns_per_route\": {:.1},\n      \"warm_ns_min\": {:.1},\n      \"warm_ns_max\": {:.1},\n      \"speedup\": {:.2},\n      \"hops_mean\": {:.3},\n      \"express_prefix_mean\": {:.3},\n      \"cache_hit_rate\": {:.4},\n      \"nproc\": {nproc},\n      \"commit\": \"{commit}\"\n    }}",
            r.regions,
            r.stream,
            r.variant,
            r.express,
            r.cold.median,
            r.cold.min,
            r.cold.max,
            r.warm.median,
            r.warm.min,
            r.warm.max,
            speedup,
            r.hops_mean,
            r.express_prefix_mean,
            r.cache_hit_rate
        ));
    }

    let fit = |variant: &str| {
        let picked: Vec<&Row> = rows
            .iter()
            .filter(|r| r.stream == "hotspot" && r.variant == variant)
            .collect();
        if picked.len() < 2 {
            "null".to_string()
        } else {
            format!("{:.4}", scaling_exponent(&picked))
        }
    };
    let (greedy_fit, express_fit) = (fit("greedy"), fit("express"));
    println!(
        "scaling exponent on the hotspot stream (hops ~ N^b): greedy b={greedy_fit}, express b={express_fit}"
    );

    let json = format!(
        "{{\n  \"bench\": \"routing\",\n  \"command\": \"cargo run --release -p geogrid-bench --bin routing_bench\",\n  \"workload\": \"{routes} routes per size and stream, basic-mode networks; streams: hotspot (80% of queries target one of 64 fixed hot points in a 2-mile square, 20% uniform) and uniform (every target of a sweep a fresh uniform point); variants: greedy mesh walk vs two-phase express-finger routing; ns/route is the median of {REPEATS} timed sweeps, with min and max\",\n  \"scaling_exponent\": {{\n    \"stream\": \"hotspot\",\n    \"greedy\": {greedy_fit},\n    \"express\": {express_fit}\n  }},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&path, json).expect("write BENCH_routing.json");
    println!("-> wrote {path}");
}
