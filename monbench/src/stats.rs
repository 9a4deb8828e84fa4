//! Order statistics over samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics. Sorts `xs` in place; `NaN` for an empty slice.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The low decile (p10) of a run's per-call times.
///
/// The in-process timings report this instead of the median: on a shared
/// host a single-threaded call's times are bimodal — a fast state and one
/// about 1.6× slower, alternating every few seconds in a share that drifts
/// over minutes — so a run's median jumps between the two modes from run
/// to run, while the low decile stays in the fast one.
pub fn low_decile(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.1)
}

/// The highest of p90/p99/p99.9 with at least ten samples beyond it, as
/// `(label, value)`; `None` when there are fewer than 100 samples.
pub fn tail(xs: &mut [f64]) -> Option<(&'static str, f64)> {
    [("p999", 0.999), ("p99", 0.99), ("p90", 0.9)]
        .into_iter()
        .find(|&(_, q)| (xs.len() as f64) * (1.0 - q) >= 10.0)
        .map(|(label, q)| (label, quantile(xs, q)))
}

/// A one-line summary of a latency sample: median, gated-free tail, count.
pub fn summary(xs: &[f64], unit: &str) -> String {
    let mut v = xs.to_vec();
    let med = median(&mut v);
    match tail(&mut v) {
        Some((label, t)) => format!("p50 {med:.4} {unit}, {label} {t:.4} {unit} (n={})", v.len()),
        None => format!("p50 {med:.4} {unit} (n={}, too few for a tail)", v.len()),
    }
}
