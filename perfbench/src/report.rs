//! Run results: human-readable notes, the workload's named metrics, and
//! the contract's end-to-end and per-layer metrics.

/// End-to-end metrics (names and units match BENCHMARK.json). The
/// simulated workloads measure all of them; `tcp-loopback` cannot see
/// messages or bytes from outside and reports 0 for those.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("msgs_per_op", "count"),
    ("bytes_per_op", "B"),
    ("bg_bytes_per_node_s", "B/s"),
];

/// Per-layer metrics of the traced run (names and units match
/// BENCHMARK.json). A layer a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("engine.publish.execute.calls", "count"),
    ("engine.publish.execute.self_s", "s"),
    ("engine.publish.forward.calls", "count"),
    ("engine.publish.forward.self_s", "s"),
    ("engine.sync_state.calls", "count"),
    ("engine.sync_state.self_s", "s"),
    ("engine.tick.calls", "count"),
    ("engine.tick.self_s", "s"),
    ("engine.heartbeat.calls", "count"),
    ("engine.heartbeat.self_s", "s"),
    ("engine.query.forward.calls", "count"),
    ("engine.query.forward.self_s", "s"),
    ("engine.query.execute.calls", "count"),
    ("engine.query.execute.self_s", "s"),
    ("engine.query.fanout.calls", "count"),
    ("engine.query.fanout.self_s", "s"),
    ("engine.notify.calls", "count"),
    ("engine.subscribe.calls", "count"),
    ("engine.query.hops_mean", "count"),
    ("engine.query.hops_p99", "count"),
    ("engine.publish.hops_mean", "count"),
    ("engine.query.regions_mean", "count"),
    ("service.query_matches_mean", "count"),
    ("service.records_primary", "count"),
    ("service.records_replica", "count"),
    ("service.records_region_max", "count"),
    ("service.stale_copies", "count"),
    ("engine.query.corner_lost", "count"),
    ("engine.join.calls", "count"),
    ("engine.join.self_s", "s"),
    ("engine.join_fail_ratio", "ratio"),
    ("wire.bytes.join", "B"),
    ("engine.adaptations", "count"),
    ("engine.steal_denied", "count"),
    ("wire.encode.calls", "count"),
    ("wire.encode.self_s", "s"),
    ("wire.decode.self_s", "s"),
    ("wire.msgs.query", "count"),
    ("wire.bytes.query", "B"),
    ("wire.msgs.query_reply", "count"),
    ("wire.bytes.query_reply", "B"),
    ("wire.msgs.publish", "count"),
    ("wire.bytes.publish", "B"),
    ("wire.msgs.notify", "count"),
    ("wire.bytes.notify", "B"),
    ("wire.msgs.heartbeat", "count"),
    ("wire.bytes.heartbeat", "B"),
    ("wire.msgs.sync_state", "count"),
    ("wire.bytes.sync_state", "B"),
    ("wire.msgs.other", "count"),
    ("wire.bytes.other", "B"),
    ("simnet.events", "count"),
    ("simnet.self_s", "s"),
    ("workload.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Free-form lines for the human-readable part of the output.
    pub notes: Vec<String>,
    /// The workload's own named end-to-end metrics.
    pub named: Vec<Metric>,
    /// Contract end-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics.
    pub layer: Vec<Metric>,
    /// Whether every output checked out.
    pub correct: bool,
    /// User operations attempted in the measured phase.
    pub attempted: u64,
    /// Those that failed or returned a wrong result.
    pub failed: u64,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds a named end-to-end metric of this workload.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Sets a contract end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn value_of(list: &[Metric], name: &str) -> Option<f64> {
        list.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The contract's final JSON line: end-to-end metrics untraced,
    /// per-layer metrics traced.
    pub fn json(&self, traced: bool) -> String {
        let mut metrics = Vec::new();
        if traced {
            for (name, unit) in PER_LAYER {
                let v = Self::value_of(&self.layer, name).unwrap_or(0.0);
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                ));
            }
        } else {
            for (name, unit) in END_TO_END {
                let v = Self::value_of(&self.e2e, name).unwrap_or(0.0);
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust prints (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
