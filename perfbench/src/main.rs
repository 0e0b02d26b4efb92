//! End-to-end GeoGrid benchmark.
//!
//! ```text
//! geogrid-perfbench --workload <query-hotspot|publish-moving|tcp-loopback>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a run header, the workload's named metrics and notes, and as
//! its last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics traced).
//! Exit codes: 0 success, 2 bad arguments, 3 codec round-trip mismatch.

#![forbid(unsafe_code)]

mod report;
mod sim;
mod stats;
mod tcp;
mod trace;

use std::process::ExitCode;

use sim::SimWorkload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value == "1",
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: geogrid-perfbench --workload <query-hotspot|publish-moving|tcp-loopback> --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# geogrid-perfbench workload={} seed={} seconds={} trace={} nproc={nproc} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.commit
    );
    let report = match args.workload.as_str() {
        "query-hotspot" | "publish-moving" => {
            let w = if args.workload == "query-hotspot" {
                SimWorkload::QueryHotspot
            } else {
                SimWorkload::PublishMoving
            };
            println!(
                "# simulated overlay: {} DualPeer nodes, overlay seed {} (fixed), join spacing {} ms, {} preloaded objects; operation stream seed {}",
                sim::NODES,
                sim::OVERLAY_SEED,
                sim::JOIN_SPACING_MS,
                sim::OBJECTS,
                args.seed
            );
            println!(
                "# injected delay: constant {} ms per message (simnet default); simulated latencies exclude processing time",
                sim::HOP_DELAY_MS
            );
            sim::run(w, args.seed, args.seconds, args.trace)
        }
        "tcp-loopback" => tcp::run(args.seed, args.seconds),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    for line in &report.notes {
        println!("# {line}");
    }
    for m in &report.named {
        println!("{} {} = {} {}", args.workload, m.name, m.value, m.unit);
    }
    if args.trace {
        for m in &report.layer {
            println!(
                "{} layer {} = {} {}",
                args.workload, m.name, m.value, m.unit
            );
        }
    }
    println!("{}", report.json(args.trace));
    ExitCode::SUCCESS
}
