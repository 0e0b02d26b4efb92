//! In-memory span recorder for the traced run.
//!
//! Every span is one call into a layer's public function, timed from the
//! benchmark's side: `NodeEngine::handle`, `Envelope::encode`/`decode`,
//! `Simulation::run_until` and the workload generators. A span's
//! `parent` is the span whose effect produced its input (causal), while
//! self time is computed from time nesting: a span's duration minus the
//! time of the spans running inside it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id (1-based; 0 means "none").
    pub id: u32,
    /// Causal parent span id, 0 for roots.
    pub parent: u32,
    /// Operation the span works for (see `Tracer::op_label`).
    pub op: u64,
    /// Index into the tracer's name table.
    pub name: u16,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
}

/// Collects spans while enabled; a disabled tracer costs one branch.
/// In summing mode it keeps only per-name call counts and durations,
/// which equal self times for spans that enclose no other span.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    summing: bool,
    sums: BTreeMap<&'static str, Agg>,
    epoch: Instant,
    next_id: u32,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

/// Per-name aggregate of a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    /// Number of spans.
    pub calls: u64,
    /// Sum of self times, seconds.
    pub self_s: f64,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Self {
        Self {
            enabled: false,
            summing: false,
            sums: BTreeMap::new(),
            epoch: Instant::now(),
            next_id: 0,
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Turns summing mode on or off (see the type docs).
    pub fn set_summing(&mut self, on: bool) {
        self.summing = on;
    }

    /// Per-name sums collected in summing mode.
    pub fn sums(&self) -> &BTreeMap<&'static str, Agg> {
        &self.sums
    }

    /// Current time on the tracer's clock (0 when disabled, so untraced
    /// runs never read the clock).
    #[inline]
    pub fn now(&self) -> u64 {
        if self.enabled || self.summing {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Allocates a span id without recording (so children can name their
    /// parent before the parent ends). Returns 0 when disabled.
    #[inline]
    pub fn reserve(&mut self) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.next_id += 1;
        self.next_id
    }

    /// Records a finished span under a reserved id.
    pub fn record(&mut self, id: u32, parent: u32, op: u64, name: &'static str, start: u64) {
        if !self.enabled || id == 0 {
            if self.summing {
                let d = self.now().saturating_sub(start) as f64 * 1e-9;
                let a = self.sums.entry(name).or_default();
                a.calls += 1;
                a.self_s += d;
            }
            return;
        }
        let end = self.now();
        let name = self.intern(name);
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start,
            end,
        });
    }

    fn intern(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span in `spans[from..]`, by time nesting.
    fn self_times(spans: &[Span]) -> Vec<u64> {
        // Sort by start (longer first on ties) and sweep with a stack of
        // open intervals: each span's direct time-parent is the innermost
        // open span that encloses it.
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| (spans[i].start, std::cmp::Reverse(spans[i].end)));
        let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
        let mut stack: Vec<usize> = Vec::new();
        for i in order {
            while let Some(&top) = stack.last() {
                if spans[top].end <= spans[i].start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&top) = stack.last() {
                let d = spans[i].end - spans[i].start;
                self_ns[top] = self_ns[top].saturating_sub(d);
            }
            stack.push(i);
        }
        self_ns
    }

    /// Aggregates calls and self time per span name over the spans
    /// recorded from index `from` on.
    pub fn aggregate(&self, from: usize) -> BTreeMap<&'static str, Agg> {
        let spans = &self.spans[from.min(self.spans.len())..];
        let self_ns = Self::self_times(spans);
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, ns) in spans.iter().zip(self_ns) {
            let a = out.entry(self.names[s.name as usize]).or_default();
            a.calls += 1;
            a.self_s += ns as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one CSV line
    /// (`id,parent,op,name,start_ns,end_ns`). `op_label` renders the
    /// operation id.
    pub fn write_csv(
        &self,
        path: &std::path::Path,
        op_label: impl Fn(u64) -> String,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,op,name,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                w,
                "{},{},{},{},{},{}",
                s.id,
                s.parent,
                op_label(s.op),
                self.names[s.name as usize],
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent: 0,
            op: 0,
            name: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_only() {
        let spans = [
            span(1, 0, 100),
            span(2, 10, 30),
            span(3, 40, 50),
            span(4, 200, 210),
        ];
        assert_eq!(Tracer::self_times(&spans), vec![70, 20, 10, 10]);
    }
}
