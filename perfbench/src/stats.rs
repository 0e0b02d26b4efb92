//! Small statistics helpers and outside-in process counters.

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quantile `q` of continuous samples, linearly interpolated between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Quantile `q` of samples that only take multiples of `step` (simulated
/// latencies are whole numbers of the constant hop delay). A plain order
/// statistic would sit on one multiple until the median crosses to the
/// next; this spreads each multiple `k` uniformly over
/// `[k - step/2, k + step/2)` and inverts that distribution, so a change in
/// the share of samples at each hop count moves the result.
pub fn quantile_stepped(values: &[f64], q: f64, step: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let target = q * n;
    let mut i = 0;
    while i < v.len() {
        let mut j = i;
        while j < v.len() && v[j] == v[i] {
            j += 1;
        }
        if j as f64 >= target {
            let frac = (target - i as f64) / (j - i) as f64;
            return v[i] - step / 2.0 + step * frac;
        }
        i = j;
    }
    v[v.len() - 1] + step / 2.0
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 11 and 12 after ")".
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / clock_ticks_per_s(),
        _ => 0.0,
    }
}

/// `sysconf(_SC_CLK_TCK)` is 100 on every Linux target this runs on.
fn clock_ticks_per_s() -> f64 {
    100.0
}

/// Live threads of this process, from `/proc/self/status`.
pub fn process_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The `Tcp: ActiveOpens` counter of `/proc/net/snmp`. It counts every
/// active open in the network namespace, not only this process's.
pub fn netns_tcp_active_opens() -> u64 {
    let Ok(snmp) = std::fs::read_to_string("/proc/net/snmp") else {
        return 0;
    };
    let mut tcp = snmp.lines().filter(|l| l.starts_with("Tcp:"));
    let (Some(head), Some(vals)) = (tcp.next(), tcp.next()) else {
        return 0;
    };
    head.split_whitespace()
        .zip(vals.split_whitespace())
        .find(|(k, _)| *k == "ActiveOpens")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// Probe time of the reference host state: what [`host_probe_s`] takes on
/// an unloaded 2-core host. Wall times are scaled to it.
pub const PROBE_REF_S: f64 = 0.005;

/// Wall seconds a fixed, GeoGrid-independent piece of work takes on this
/// host right now: hash-map lookups, binary-heap churn and small
/// allocations, the same kinds of work the simulator and engine do.
///
/// On a shared host the speed of the same build drifts by up to 2x from
/// one run to the next. Scaling a wall time `t` measured next to probes
/// `p` to `t * PROBE_REF_S / p` removes that drift and keeps any change
/// in GeoGrid's own speed, which the probe does not run.
pub fn host_probe_s() -> f64 {
    use std::collections::{BinaryHeap, HashMap};
    use std::hint::black_box;
    let t = std::time::Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let map: HashMap<u64, u64> = (0..32_768u64).map(|i| (i, i * 3)).collect();
    let mut heap = BinaryHeap::with_capacity(8192);
    let mut acc = 0u64;
    for _ in 0..40_000 {
        let k = next();
        acc = acc.wrapping_add(*map.get(&(k % 32_768)).unwrap_or(&0));
        heap.push(k >> 8);
        if heap.len() > 4096 {
            acc ^= heap.pop().unwrap_or(0);
        }
        let v: Vec<u64> = vec![k; (k % 24) as usize + 1];
        acc = acc.wrapping_add(v.iter().sum::<u64>());
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stepped_quantile_moves_with_the_share_at_each_step() {
        let a = [5.0, 10.0, 10.0, 10.0];
        let b = [5.0, 5.0, 10.0, 10.0];
        assert!(quantile_stepped(&a, 0.5, 5.0) > quantile_stepped(&b, 0.5, 5.0));
        let p = quantile_stepped(&a, 0.5, 5.0);
        assert!((7.5..12.5).contains(&p), "{p}");
    }

    #[test]
    fn median_and_quantile_agree_on_odd_counts() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(median(&v), 2.0);
        assert_eq!(quantile(&v, 0.5), 2.0);
    }
}
