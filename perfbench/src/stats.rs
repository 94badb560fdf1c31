//! Order statistics and small timing helpers shared by the workloads.

use std::time::Instant;

/// Quantile `q` in `[0, 1]` of `xs` with linear interpolation between
/// order statistics (the usual "type 7" definition). 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs` (0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean of `xs` (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Mean wall time of one call of `f`, in microseconds, over `reps`
/// calls, repeated `rounds` times; the median round is returned so one
/// preempted round does not set the figure.
pub fn time_per_call_us(rounds: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let per_round: Vec<f64> = (0..rounds.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps.max(1) {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / reps.max(1) as f64
        })
        .collect();
    median(&per_round)
}

/// Length of the union of `[start, end)` intervals, in the intervals'
/// unit. Used to turn per-call objective timings recorded on several
/// threads into wall time during which some objective call was running.
pub fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Peak resident set size of this process (`VmHWM`), in MB; 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn union_merges_overlaps() {
        let mut iv = vec![(5, 10), (0, 3), (2, 4), (10, 12)];
        assert_eq!(union_length(&mut iv), 4 + 7);
    }
}
