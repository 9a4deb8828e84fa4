//! The one timing harness behind every `paper_tables` table, and the
//! writer of the `BENCH_*.json` snapshots.
//!
//! A table hands [`measure`] a group of rows as closures. The harness
//! runs [`WARMUP`] untimed rounds, then [`ROUNDS`] timed ones; a round
//! runs every row once, in order, so the host's drift lands on every row
//! of a group alike instead of on whichever row ran last. Each row comes
//! back as the q10, q50 and q90 of its samples (a [`Spread`]); tables
//! print the q50 and derive ratios and overheads from it.
//!
//! [`write_snapshot`] renders every timed field as a [`Spread`] object in
//! milliseconds and stamps each snapshot with the host's CPU count, the
//! source revision measured and the one [`statistic`].

use std::fmt;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Untimed rounds before the first timed one, so caches, allocator pools
/// and lazily built state have settled.
pub const WARMUP: usize = 3;

/// Timed rounds: every row gets one sample per round.
pub const ROUNDS: usize = 15;

/// One row of a group: the work a single sample times.
pub type Row<'a> = Box<dyn FnMut() + 'a>;

/// The q10, q50 and q90 of one row's samples, in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Low decile.
    pub q10: f64,
    /// Median: what tables print and derive from.
    pub q50: f64,
    /// High decile.
    pub q90: f64,
}

impl Spread {
    fn of(samples: &mut [f64]) -> Spread {
        Spread {
            q10: quantile(samples, 0.1),
            q50: quantile(samples, 0.5),
            q90: quantile(samples, 0.9),
        }
    }
}

/// The JSON object every snapshot uses for a timed field.
impl fmt::Display for Spread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{ \"q10\": {:.6}, \"q50\": {:.6}, \"q90\": {:.6} }}",
            self.q10, self.q50, self.q90
        )
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics — the definition monbench's `stats::quantile` uses. Sorts
/// `xs` in place; `NaN` for an empty slice.
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Times a group of rows: [`WARMUP`] untimed rounds, then [`ROUNDS`]
/// timed rounds, each running every row once in order. Returns each
/// row's [`Spread`], in row order. The rows are dropped before it
/// returns, so whatever they borrowed mutably is free again.
pub fn measure(mut rows: Vec<Row<'_>>) -> Vec<Spread> {
    for _ in 0..WARMUP {
        for row in &mut rows {
            row();
        }
    }
    let mut samples = vec![Vec::with_capacity(ROUNDS); rows.len()];
    for _ in 0..ROUNDS {
        for (row, row_samples) in rows.iter_mut().zip(&mut samples) {
            let start = Instant::now();
            row();
            row_samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    samples.iter_mut().map(|s| Spread::of(s)).collect()
}

/// Formats a speedup or slowdown the way the paper reports them: "x is
/// N% slower than y" / "x is N% faster than y".
pub fn relative_percent(subject: f64, baseline: f64) -> String {
    if subject >= baseline {
        format!("{:.0}% slower", (subject / baseline - 1.0) * 100.0)
    } else {
        format!("{:.0}% faster", (1.0 - subject / baseline) * 100.0)
    }
}

/// The one `statistic` every snapshot records.
pub fn statistic() -> String {
    format!(
        "q10/q50/q90 of {ROUNDS} interleaved rounds after {WARMUP} warm-up rounds \
         (linear interpolation between order statistics)"
    )
}

/// The CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `git describe --always --dirty` of the checkout this crate was built
/// from, or `unknown` outside one. Read once, before the first snapshot
/// is written, so one run stamps one revision on every file.
fn revision() -> &'static str {
    static REVISION: OnceLock<String> = OnceLock::new();
    REVISION.get_or_init(|| {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

/// A string as a JSON string literal (the snapshots' strings are plain
/// text, for which Rust's escapes coincide with JSON's).
pub fn quoted(s: &str) -> String {
    format!("{s:?}")
}

/// A one-line JSON object of already rendered values.
pub fn object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{ {} }}", fields.join(", "))
}

/// A JSON array of already rendered values, one per line.
pub fn array(items: &[String]) -> String {
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

/// Writes `dir/file`: a JSON object holding the provenance header
/// (`table`, `unit`, `statistic`, `host_cpus`, `revision`) and then
/// `fields`, whose values are already rendered JSON.
pub fn write_snapshot(dir: &Path, file: &str, table: &str, fields: &[(&str, String)]) {
    let header = [
        ("table", quoted(table)),
        ("unit", quoted("ms")),
        ("statistic", quoted(&statistic())),
        ("host_cpus", host_cpus().to_string()),
        ("revision", quoted(revision())),
    ];
    let lines: Vec<String> = header
        .iter()
        .chain(fields)
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    std::fs::create_dir_all(dir).expect("create --json directory");
    let path = dir.join(file);
    std::fs::write(&path, format!("{{\n{}\n}}\n", lines.join(",\n"))).expect("write JSON snapshot");
    println!("\nwrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        // Shuffled, so the harness must sort.
        let mut samples: Vec<f64> = vec![7.0, 3.0, 10.0, 1.0, 5.0, 9.0, 2.0, 8.0, 6.0, 4.0];
        let s = Spread::of(&mut samples);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(s.q10, 1.9), "q10 {}", s.q10);
        assert!(close(s.q50, 5.5), "q50 {}", s.q50);
        assert!(close(s.q90, 9.1), "q90 {}", s.q90);
    }

    #[test]
    fn a_round_runs_every_row_once_in_order() {
        let log = RefCell::new(Vec::new());
        let spreads = measure(vec![
            Box::new(|| log.borrow_mut().push(0)),
            Box::new(|| log.borrow_mut().push(1)),
            Box::new(|| log.borrow_mut().push(2)),
        ]);
        assert_eq!(spreads.len(), 3);
        let expected: Vec<i32> = (0..WARMUP + ROUNDS).flat_map(|_| [0, 1, 2]).collect();
        assert_eq!(log.into_inner(), expected);
    }

    #[test]
    fn relative_percent_formats_both_directions() {
        assert_eq!(relative_percent(100.0, 20.0), "400% slower");
        assert_eq!(relative_percent(20.0, 100.0), "80% faster");
    }
}
