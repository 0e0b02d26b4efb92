//! The loopback-TCP workload: real `NodeRuntime`s (the `live` transport)
//! on 127.0.0.1 inside this process, driven by one open-loop generator
//! thread.
//!
//! Everything is measured from outside the runtime: query latency from
//! each query's due time to the `QueryResults` events that complete it,
//! process CPU from `/proc/self/stat`, peak threads from
//! `/proc/self/status`, and TCP active opens from `/proc/net/snmp` (a
//! counter of the whole network namespace). The generator drains every
//! node's event channel between sends: a full channel (256 events) would
//! stall that node's actor.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use geogrid_core::engine::{ClientEvent, EngineConfig, EngineMode};
use geogrid_core::service::{LocationQuery, LocationRecord};
use geogrid_core::NodeId;
use geogrid_geometry::{Point, Region, Space};
use geogrid_transport::{NodeRuntime, RuntimeConfig, RuntimeHandle};
use geogrid_workload::{HotSpotField, QueryGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tokio::runtime::block_on;

use crate::report::Report;
use crate::stats::{mean, netns_tcp_active_opens, process_cpu_s, process_threads, quantile};

/// Nodes in the loopback overlay.
pub const NODES: usize = 16;
/// Fixed seed of the overlay (coordinates and capacities).
const OVERLAY_SEED: u64 = 1;
/// Objects preloaded before measurement.
const OBJECTS: usize = 400;
/// Offered rate of the latency phase (queries per second), below the knee.
pub const FIXED_RATE: f64 = 40.0;
/// Offered rates of the capacity ladder.
const LADDER: [f64; 6] = [60.0, 80.0, 100.0, 120.0, 140.0, 160.0];
/// Length of one ladder rung.
const RUNG: Duration = Duration::from_millis(1000);
/// Wait after a rung: any later answer already breaks the p99 limit.
const RUNG_SETTLE: Duration = Duration::from_millis(300);
/// A ladder rung passes only if its p99 stays within this limit.
const P99_LIMIT_MS: f64 = 100.0;
/// Results later than this after a query's due time do not count.
const DEADLINE: Duration = Duration::from_secs(2);
/// How long a joiner waits for `Joined` before joining again, and how
/// often it tries.
const JOIN_TIMEOUT: Duration = Duration::from_secs(1);
const JOIN_ATTEMPTS: usize = 3;
/// Pause after each join, as in the simulated overlay.
const JOIN_SPACING: Duration = Duration::from_millis(crate::sim::JOIN_SPACING_MS);
/// Outstanding queries of the closed-loop throughput phase, and its length.
const CLIENTS: usize = 16;
const CLOSED_LOOP: Duration = Duration::from_secs(4);

/// One query of the open loop.
struct Pending {
    node: usize,
    qid: u64,
    due: Instant,
    sent: Instant,
    expected: Vec<u64>,
    got: Vec<u64>,
    last: Option<Instant>,
}

/// A running overlay.
struct Overlay {
    handles: Vec<RuntimeHandle>,
    joined: Vec<bool>,
    /// Whether each node's first join attempt succeeded.
    first_try: Vec<bool>,
    /// Queries issued per node so far (the engine numbers them 1, 2, ...).
    issued: Vec<u64>,
    objects: Vec<Point>,
}

impl Overlay {
    /// Takes every queued event of every node, without waiting.
    fn drain(&mut self, mut on_event: impl FnMut(usize, ClientEvent)) {
        for (i, h) in self.handles.iter_mut().enumerate() {
            while let Some(ev) = block_on(h.next_event_timeout(Duration::ZERO)) {
                if matches!(ev, ClientEvent::Joined { .. }) {
                    self.joined[i] = true;
                }
                on_event(i, ev);
            }
        }
    }

    fn shutdown(self) {
        for h in &self.handles {
            block_on(h.shutdown());
        }
    }
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        engine: EngineConfig {
            mode: EngineMode::DualPeer,
            ..EngineConfig::default()
        },
        listen: "127.0.0.1:0".parse().expect("valid literal"),
        tick_interval: Duration::from_millis(100),
    }
}

/// Starts the nodes, joins them one at a time through node 0 (each waits
/// for its `Joined` event) and preloads the objects.
fn setup() -> Overlay {
    let space = Space::paper_evaluation();
    let mut rng = SmallRng::seed_from_u64(OVERLAY_SEED);
    let caps = [1.0, 10.0, 10.0, 100.0, 10.0, 1.0, 10.0, 100.0, 1000.0, 10.0];
    let mut handles = Vec::new();
    for i in 0..NODES {
        let coord = Point::new(rng.random_range(0.2..63.8), rng.random_range(0.2..63.8));
        let cap = if i == 0 { 10.0 } else { caps[i % caps.len()] };
        let h = block_on(NodeRuntime::start(
            NodeId::new(i as u64),
            coord,
            cap,
            space,
            config(),
        ))
        .expect("bind a loopback listener");
        handles.push(h);
    }
    let mut ov = Overlay {
        handles,
        joined: vec![false; NODES],
        first_try: Vec::new(),
        issued: vec![0; NODES],
        objects: Vec::new(),
    };
    let entry = ov.handles[0].info().id();
    let entry_addr = ov.handles[0].local_addr();
    // A joiner that hears nothing within JOIN_TIMEOUT joins again, as a
    // client would; `first_try` keeps whether the first attempt worked.
    let mut first_try = vec![false; NODES];
    for (i, first) in first_try.iter_mut().enumerate() {
        for attempt in 0..JOIN_ATTEMPTS {
            if i == 0 {
                block_on(ov.handles[0].bootstrap());
            } else {
                block_on(ov.handles[i].join(entry, entry_addr));
            }
            let t = Instant::now();
            while !ov.joined[i] && t.elapsed() < JOIN_TIMEOUT {
                ov.drain(|_, _| {});
                std::thread::sleep(Duration::from_millis(1));
            }
            *first |= attempt == 0 && ov.joined[i];
            if ov.joined[i] {
                break;
            }
        }
        // The `simulate` join spacing, as in the simulated workloads.
        let t = Instant::now();
        while t.elapsed() < JOIN_SPACING {
            ov.drain(|_, _| {});
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    ov.first_try = first_try;
    // Preload: uniform objects published through joined nodes, paced at
    // one per 2 ms, then a settle period for replication.
    let owners: Vec<usize> = (0..NODES).filter(|&i| ov.joined[i]).collect();
    for j in 0..OBJECTS {
        let pos = Point::new(rng.random_range(0.0..64.0), rng.random_range(0.0..64.0));
        let home = owners[rng.random_range(0..owners.len())];
        let record = LocationRecord::new(j as u64, "gps", pos, Vec::new());
        block_on(ov.handles[home].publish(record));
        ov.objects.push(pos);
        ov.drain(|_, _| {});
        std::thread::sleep(Duration::from_millis(2));
    }
    let t = Instant::now();
    while t.elapsed() < Duration::from_millis(1000) {
        ov.drain(|_, _| {});
        std::thread::sleep(Duration::from_millis(1));
    }
    ov
}

/// Outcome of one open-loop phase.
struct Phase {
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    cpu_s: f64,
    wall_s: f64,
}

/// Runs an open loop at `rate` for `length`, then waits out the deadline
/// and checks every answer against the preloaded objects.
fn open_loop(
    ov: &mut Overlay,
    rng: &mut SmallRng,
    field: &HotSpotField,
    rate: f64,
    length: Duration,
    settle: Duration,
) -> Phase {
    let mut gen = QueryGenerator::new(Space::paper_evaluation()).hotspot_bias(0.8);
    let issuers: Vec<usize> = (0..NODES).filter(|&i| ov.joined[i]).collect();
    let mut pending: Vec<Pending> = Vec::new();
    let mut index: HashMap<(usize, u64), usize> = HashMap::new();
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let mut next_due = start;
    while next_due < start + length {
        let now = Instant::now();
        if now >= next_due {
            let node = issuers[rng.random_range(0..issuers.len())];
            let area = gen.generate(rng, field).region;
            let expected = expected_ids(&ov.objects, area);
            block_on(ov.handles[node].query(LocationQuery::new(area, NodeId::new(node as u64))));
            ov.issued[node] += 1;
            index.insert((node, ov.issued[node]), pending.len());
            pending.push(Pending {
                node,
                qid: ov.issued[node],
                due: next_due,
                sent: Instant::now(),
                expected,
                got: Vec::new(),
                last: None,
            });
            let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            next_due += Duration::from_secs_f64(-u.ln() / rate);
        } else {
            std::thread::sleep((next_due - now).min(Duration::from_millis(1)));
        }
        ov.drain(|node, ev| record_result(&mut pending, &index, node, ev));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let t_settle = Instant::now();
    while t_settle.elapsed() < settle {
        ov.drain(|node, ev| record_result(&mut pending, &index, node, ev));
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut out = Phase {
        latencies_ms: Vec::new(),
        late_ms: Vec::new(),
        attempted: pending.len() as u64,
        failed: 0,
        cpu_s,
        wall_s,
    };
    for p in &mut pending {
        out.late_ms
            .push(p.sent.duration_since(p.due).as_secs_f64() * 1e3);
        p.got.sort_unstable();
        p.got.dedup();
        match p.last {
            Some(last) if p.got == p.expected => out
                .latencies_ms
                .push(last.duration_since(p.due).as_secs_f64() * 1e3),
            _ => {
                out.failed += 1;
            }
        }
    }
    out
}

/// Adds a `QueryResults` event to the open-loop query it answers, if it
/// arrived within the deadline.
fn record_result(
    pending: &mut [Pending],
    index: &HashMap<(usize, u64), usize>,
    node: usize,
    ev: ClientEvent,
) {
    if let ClientEvent::QueryResults { query_id, records } = ev {
        if let Some(&k) = index.get(&(node, query_id)) {
            let p = &mut pending[k];
            let now = Instant::now();
            if now.duration_since(p.due) <= DEADLINE {
                p.got.extend(records.iter().map(|r| r.id()));
                p.last = Some(now);
            }
        }
    }
}

/// Closed loop: `clients` queries outstanding at all times, each replaced
/// as soon as its answer is complete. Returns (completed, timed out,
/// wall seconds).
fn closed_loop(
    ov: &mut Overlay,
    rng: &mut SmallRng,
    field: &HotSpotField,
    clients: usize,
    length: Duration,
) -> (u64, u64, f64) {
    let mut gen = QueryGenerator::new(Space::paper_evaluation()).hotspot_bias(0.8);
    let issuers: Vec<usize> = (0..NODES).filter(|&i| ov.joined[i]).collect();
    let mut slots: Vec<Pending> = Vec::with_capacity(clients);
    let mut index: HashMap<(usize, u64), usize> = HashMap::new();
    let issue = |ov: &mut Overlay, rng: &mut SmallRng, gen: &mut QueryGenerator| {
        let node = issuers[rng.random_range(0..issuers.len())];
        let area = gen.generate(rng, field).region;
        block_on(ov.handles[node].query(LocationQuery::new(area, NodeId::new(node as u64))));
        ov.issued[node] += 1;
        let now = Instant::now();
        Pending {
            node,
            qid: ov.issued[node],
            due: now,
            sent: now,
            expected: expected_ids(&ov.objects, area),
            got: Vec::new(),
            last: None,
        }
    };
    for k in 0..clients {
        let p = issue(ov, rng, &mut gen);
        index.insert((p.node, p.qid), k);
        slots.push(p);
    }
    let (mut completed, mut timed_out) = (0u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < length {
        let mut evs = Vec::new();
        ov.drain(|i, ev| evs.push((i, ev)));
        let mut done = Vec::new();
        for (i, ev) in evs {
            if let ClientEvent::QueryResults { query_id, records } = ev {
                if let Some(&k) = index.get(&(i, query_id)) {
                    let p = &mut slots[k];
                    p.got.extend(records.iter().map(|r| r.id()));
                    p.got.sort_unstable();
                    p.got.dedup();
                    if p.got == p.expected {
                        done.push(k);
                    }
                }
            }
        }
        for (k, p) in slots.iter().enumerate() {
            if p.sent.elapsed() > DEADLINE {
                done.push(k);
                timed_out += 1;
            }
        }
        done.sort_unstable();
        done.dedup();
        for k in done {
            index.remove(&(slots[k].node, slots[k].qid));
            if slots[k].sent.elapsed() <= DEADLINE {
                completed += 1;
            }
            let p = issue(ov, rng, &mut gen);
            index.insert((p.node, p.qid), k);
            slots[k] = p;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    (completed, timed_out, start.elapsed().as_secs_f64())
}

fn expected_ids(objects: &[Point], area: Region) -> Vec<u64> {
    objects
        .iter()
        .enumerate()
        .filter(|(_, p)| area.contains_closed(**p))
        .map(|(i, _)| i as u64)
        .collect()
}

/// Runs the loopback workload.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::new();
    let opens0 = netns_tcp_active_opens();
    let mut threads_peak = process_threads();
    let t = Instant::now();
    let mut ov = setup();
    let setup_s = t.elapsed().as_secs_f64();
    let joined = ov.first_try.iter().skip(1).filter(|j| **j).count();
    let join_fail_ratio = 1.0 - joined as f64 / (NODES - 1) as f64;
    let join_state = ov.first_try.clone();

    let mut rng = SmallRng::seed_from_u64(seed);
    let field = HotSpotField::random(&mut rng, Space::paper_evaluation(), 5);
    let opens1 = netns_tcp_active_opens();
    let fixed = open_loop(
        &mut ov,
        &mut rng,
        &field,
        FIXED_RATE,
        Duration::from_secs_f64(seconds),
        DEADLINE,
    );
    let opens_fixed = netns_tcp_active_opens() - opens1;
    threads_peak = threads_peak.max(process_threads());

    // Throughput: a closed loop with one query outstanding per node.
    let (completed, timed_out, closed_wall) =
        closed_loop(&mut ov, &mut rng, &field, CLIENTS, CLOSED_LOOP);
    let closed_qps = completed as f64 / closed_wall;

    // Capacity ladder: the highest rung with every query answered
    // correctly, p99 within the limit, and generator lateness not growing
    // from the first half of the rung to the second.
    let mut max_qps = 0.0;
    let mut rungs = Vec::new();
    for rate in LADDER {
        let r = open_loop(&mut ov, &mut rng, &field, rate, RUNG, RUNG_SETTLE);
        threads_peak = threads_peak.max(process_threads());
        let half = r.late_ms.len() / 2;
        let late_grows = half > 0 && mean(&r.late_ms[half..]) > mean(&r.late_ms[..half]) + 5.0;
        let p99 = quantile(&r.latencies_ms, 0.99);
        let pass = r.failed == 0 && p99 <= P99_LIMIT_MS && !late_grows;
        rungs.push(format!(
            "{rate:.0}/s: {} queries, {} failed, p99 {p99:.1} ms{}",
            r.attempted,
            r.failed,
            if late_grows { ", lateness growing" } else { "" }
        ));
        if !pass {
            break;
        }
        max_qps = rate;
    }
    let ov_never_joined = ov.joined.iter().filter(|j| !**j).count();
    ov.shutdown();
    let opens_total = netns_tcp_active_opens() - opens0;
    let p50 = quantile(&fixed.latencies_ms, 0.5);
    let p99 = quantile(&fixed.latencies_ms, 0.99);
    let cpu_ms = fixed.cpu_s * 1e3 / fixed.attempted.max(1) as f64;
    report.note(format!(
        "{NODES} DualPeer NodeRuntimes on 127.0.0.1 in this process; {OBJECTS} preloaded objects; operation stream seed {seed}"
    ));
    report.note(format!(
        "fixed rate {FIXED_RATE}/s for {:.1} s: {} queries, {} failed, {} latency samples (wall ms from due time)",
        fixed.wall_s,
        fixed.attempted,
        fixed.failed,
        fixed.latencies_ms.len()
    ));
    report.note(format!("ladder: {}", rungs.join("; ")));
    report.note(format!(
        "closed loop, {CLIENTS} outstanding: {completed} answered in {closed_wall:.1} s, {timed_out} timed out"
    ));
    let unjoined: Vec<String> = (1..NODES)
        .filter(|&i| !join_state[i])
        .map(|i| i.to_string())
        .collect();
    report.note(format!(
        "joiners without Joined after their first attempt: [{}]; never joined: {}",
        unjoined.join(", "),
        ov_never_joined
    ));
    report.note(format!(
        "tcp active opens (whole network namespace): {opens_fixed} during the fixed-rate phase, {opens_total} in total"
    ));
    report.named("setup_s", setup_s, "s");
    report.named("join_fail_ratio", join_fail_ratio, "ratio");
    report.named(
        "op_fail_ratio",
        fixed.failed as f64 / fixed.attempted.max(1) as f64,
        "ratio",
    );
    report.named("tcp_query_p50_ms", p50, "ms");
    report.named("tcp_query_p99_ms", p99, "ms");
    report.named("tcp_max_qps", max_qps, "1/s");
    report.named("tcp_closed_loop_qps", closed_qps, "1/s");
    report.named("tcp_cpu_ms_per_query", cpu_ms, "ms");

    report.e2e("setup_s", setup_s, "s");
    report.e2e("ops_per_s", closed_qps, "1/s");
    report.e2e("latency_p50_ms", p50, "ms");
    report.e2e("latency_p99_ms", p99, "ms");

    // The runtime layer, measured from outside it.
    report.named("runtime.cpu_s", fixed.cpu_s, "s");
    report.named("runtime.threads_peak", threads_peak as f64, "count");
    report.named("runtime.tcp_active_opens", opens_fixed as f64, "count");
    report.named(
        "workload.gen_late_p99_ms",
        quantile(&fixed.late_ms, 0.99),
        "ms",
    );
    report.layer("engine.join_fail_ratio", join_fail_ratio, "ratio");

    report.correct = fixed.failed == 0;
    report.attempted = fixed.attempted;
    report.failed = fixed.failed;
    report
}
