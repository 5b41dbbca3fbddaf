//! Timing, order statistics and the process readings the benchmark reports.

use std::time::Instant;

/// Runs `f` once and returns its result with the wall time it took, in
/// seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Runs `f` until `budget_s` seconds have passed, at least `min_reps` and
/// at most `max_reps` times, and returns the median wall time of one call
/// in seconds. Used for the per-layer timings, where each call is short
/// and its own median is the figure of interest.
pub fn repeat_median(budget_s: f64, min_reps: usize, max_reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (samples.len() < max_reps && start.elapsed().as_secs_f64() < budget_s)
    {
        let ((), t) = timed(&mut f);
        samples.push(t);
    }
    median(&samples)
}

/// Median of `xs` (mean of the two middle values for an even count); NaN
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Mean of `xs` after dropping the lowest and the highest `TRIM` share
/// of the samples; NaN for an empty slice.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    const TRIM: f64 = 0.05;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (TRIM * v.len() as f64) as usize;
    let kept = &v[k..v.len() - k];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank percentile `p` (0 < p < 100) of `xs`: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples needed so that percentile `p` has at least `beyond` samples
/// above it.
pub fn samples_for_tail(p: f64, beyond: usize) -> usize {
    (beyond as f64 * 100.0 / (100.0 - p)).ceil() as usize
}

/// Peak resident set of this process in MiB (`VmHWM`), or NaN where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// User plus system CPU time this process has used, in seconds (fields 14
/// and 15 of `/proc/self/stat`, in clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return f64::NAN };
    // The command name (field 2) may hold spaces; the fixed fields start
    // after its closing parenthesis, at field 3.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return f64::NAN };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |k: usize| fields.get(k - 3).and_then(|f| f.parse::<f64>().ok());
    match (ticks(14), ticks(15)) {
        (Some(u), Some(s)) => (u + s) / TICKS_PER_S,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(samples_for_tail(90.0, 10), 100);
        assert_eq!(samples_for_tail(99.0, 10), 1000);
    }
}
