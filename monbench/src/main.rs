//! monbench: the monsem benchmark. See `monbench/README.md`.
//!
//! ```text
//! bash monbench/run.sh --workload ingest|session-churn|monitored-run \
//!     --seed N --seconds S --trace 0|1
//! bash monbench/run.sh --self-test
//! ```
//!
//! Every run drives all three loads, interleaved in slices — the named
//! workload's own load for half of `--seconds` (and its `setup_s`), the
//! other two for a quarter each — because each run must print every
//! declared metric. The last stdout line is the JSON result; the lines
//! before it are the human report (tails, breakdowns, host diagnostics).

mod churn;
mod gen;
mod host;
mod ingest;
mod monitored;
mod server;
mod stats;
mod trace;
mod wire;

use std::io;
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// The three loads, by workload name.
const WORKLOADS: [&str; 3] = ["ingest", "session-churn", "monitored-run"];

/// Run-wide settings.
pub struct Ctx {
    /// The `monsem` binary the server loads spawn.
    pub bin: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Producer connections (and generator threads): one per CPU.
    pub conns: usize,
    /// Traced run: spans, allocation counts, per-layer metrics.
    pub trace: bool,
    /// Self-test only: the load whose oracle gets a corrupted copy of the
    /// inputs.
    pub corrupt: Option<&'static str>,
    /// Self-test only: tiny sizes.
    pub tiny: bool,
    /// Time origin of all spans.
    pub epoch: Instant,
    /// Where sockets and span files go.
    pub out: PathBuf,
}

impl Ctx {
    /// Whether `load`'s oracle is to be corrupted (self-test only).
    pub fn corrupts(&self, load: &str) -> bool {
        self.corrupt == Some(load)
    }

    /// A fresh socket path for set-up `rep` of load `tag`.
    pub fn sock(&self, tag: &str, rep: usize) -> PathBuf {
        self.out
            .join(format!("{tag}-{}-{rep}.sock", std::process::id()))
    }
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    layers: Vec<(&'static str, f64, &'static str)>,
    /// Operations whose outcome was checked against the oracle.
    pub attempted: u64,
    /// Operations whose outcome differed.
    pub failed: u64,
    mismatches: Vec<String>,
    notes: Vec<String>,
    /// All spans of the run.
    pub trace: trace::Trace,
}

impl Report {
    /// Records an end-to-end metric; the first load to report a name (the
    /// workload's own load runs first) wins.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !self.metrics.iter().any(|m| m.0 == name) {
            self.metrics.push((name, value, unit));
        }
    }

    /// Records `setup_s`, the median of `load`'s set-up times (seconds),
    /// and a report line with their count.
    pub fn setups(&mut self, load: &str, setups: &[f64]) {
        let ms: Vec<f64> = setups.iter().map(|s| s * 1e3).collect();
        self.metric("setup_s", stats::median(&mut setups.to_vec()), "s");
        self.note(format!("{load} set-up: {}", stats::summary(&ms, "ms")));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !self.layers.iter().any(|m| m.0 == name) {
            self.layers.push((name, value, unit));
        }
    }

    /// Counts `ops` checked operations, all failed unless `ok`.
    pub fn check(&mut self, what: String, ok: bool, ops: u64) {
        let ops = ops.max(1);
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            self.mismatches.push(what);
        }
    }

    /// A line for the human report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The metrics this mode prints.
    fn printed(&self, traced: bool) -> &[(&'static str, f64, &'static str)] {
        if traced {
            &self.layers
        } else {
            &self.metrics
        }
    }

    /// The result line.
    fn json(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .printed(traced)
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Extra timed set-ups of the own load at the start of every cycle;
/// `setup_s` is the median of these and the first. Spread over the run,
/// they sample the host the way the slices do, instead of its state in
/// the first few milliseconds.
const SETUPS_PER_CYCLE: usize = 2;

/// Seconds per cycle of slices (the run is a whole number of cycles).
const CYCLE_SECS: f64 = 2.0;

/// One of the three loads, set up and ready to run slices.
pub trait Load {
    /// Times one more complete set-up of the load, then tears it down.
    fn setup_again(&mut self, ctx: &Ctx) -> io::Result<()>;

    /// Runs the load for `secs`, spans on when `traced`.
    fn slice(
        &mut self,
        ctx: &Ctx,
        report: &mut Report,
        oracle: &gen::Oracle,
        secs: f64,
        traced: bool,
    ) -> io::Result<()>;

    /// Reports the load's metrics and tears it down.
    fn finish(self: Box<Self>, ctx: &Ctx, report: &mut Report) -> io::Result<()>;
}

/// Runs `workload`: sets up all three loads (the own load first), then
/// interleaves them in cycles of slices — the own load's slice half of
/// each cycle, the other two a quarter each — so that every load samples
/// the whole run. Each cycle starts with extra timed set-ups of the own
/// load. Traced runs alternate untraced and traced cycles.
fn run_workload(ctx: &Ctx, workload: &str, secs: f64) -> io::Result<Report> {
    let oracle = gen::Oracle::new();
    let mut report = Report::default();
    let mut order: Vec<&str> = vec![workload];
    order.extend(WORKLOADS.iter().filter(|&&w| w != workload));
    let mut loads: Vec<(&str, Box<dyn Load>)> = Vec::new();
    for load in order {
        let started: Box<dyn Load> = match load {
            "ingest" => Box::new(ingest::Ingest::start(ctx, &oracle)?),
            "session-churn" => Box::new(churn::Churn::start(ctx, &oracle)?),
            _ => Box::new(monitored::Monitored::start(ctx)?),
        };
        loads.push((load, started));
    }
    let min_cycles = if ctx.trace { 2.0 } else { 1.0 };
    let cycles = (secs / CYCLE_SECS).round().max(min_cycles) as usize;
    let cycle = secs / cycles as f64;
    for k in 0..cycles {
        let traced = ctx.trace && k % 2 == 1;
        for _ in 0..SETUPS_PER_CYCLE {
            loads[0].1.setup_again(ctx)?;
        }
        for (name, load) in &mut loads {
            let share = if *name == workload { 0.5 } else { 0.25 };
            load.slice(ctx, &mut report, &oracle, cycle * share, traced)?;
        }
    }
    // The own load reports first, so its `setup_s` is the one kept.
    for (_, load) in loads {
        load.finish(ctx, &mut report)?;
    }
    for (name, value, _) in report.metrics.iter().chain(&report.layers) {
        if !value.is_finite() {
            report
                .mismatches
                .push(format!("metric {name} is not a finite number"));
            report.failed += 1;
        }
    }
    Ok(report)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let code = match real_main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("monbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main(args: &[String]) -> Result<i32, String> {
    let bin = PathBuf::from(flag(args, "--server").ok_or("--server <monsem binary> is required")?);
    server::check_fresh(&bin)?;
    let out = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let mut ctx = Ctx {
        bin,
        seed: 1,
        conns: host::host_cpus(),
        trace: false,
        corrupt: None,
        tiny: false,
        epoch: Instant::now(),
        out,
    };
    if args.iter().any(|a| a == "--self-test") {
        return self_test(&mut ctx);
    }
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    let parse = |name: &str| -> Result<u64, String> {
        flag(args, name)
            .ok_or(format!("{name} is required"))?
            .parse()
            .map_err(|_| format!("{name} needs a whole number"))
    };
    ctx.seed = parse("--seed")?;
    let secs = parse("--seconds")? as f64;
    ctx.trace = match parse("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };

    let probe_start = (host::cpu_probe_ms(), host::memory_probe_ms());
    let steal0 = host::steal_jiffies();
    let report = run_workload(&ctx, workload, secs).map_err(|e| e.to_string())?;
    let steal = host::steal_share(steal0, host::steal_jiffies());
    let probe_end = (host::cpu_probe_ms(), host::memory_probe_ms());

    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.mismatches {
        println!("MISMATCH {m}");
    }
    for (name, value, unit) in report.printed(ctx.trace) {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    println!(
        "host: host_cpus {}, cpu probe {:.2} ms at start / {:.2} ms at end, memory probe {:.2} ms / {:.2} ms, steal share {steal:.4}",
        host::host_cpus(),
        probe_start.0,
        probe_end.0,
        probe_start.1,
        probe_end.1,
    );
    if ctx.trace {
        let path = ctx
            .out
            .join(format!("spans-{workload}-seed{}.jsonl", ctx.seed));
        report
            .trace
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            report.trace.len(),
            path.display()
        );
    }
    println!("{}", report.json(ctx.trace));
    Ok(if report.failed == 0 { 0 } else { 1 })
}

/// Declared `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let Some(start) = json.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let section = &json[start..];
    let section = &section[..section.find(']').unwrap_or(section.len())];
    let field = |obj: &str, f: &str| -> Option<String> {
        let at = obj.find(&format!("\"{f}\""))?;
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = rest[open..].find('"')?;
        Some(rest[open..open + close].to_string())
    };
    section
        .split('{')
        .skip(1)
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

/// A tiny pass of every workload, traced and untraced: every declared
/// metric must appear with its unit, and corrupting the oracle of the
/// workload's own load alone must fail the run.
fn self_test(ctx: &mut Ctx) -> Result<i32, String> {
    let json =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut problems = Vec::new();
    ctx.tiny = true;
    for workload in WORKLOADS {
        for traced in [false, true] {
            ctx.trace = traced;
            let report = run_workload(ctx, workload, 1.0).map_err(|e| e.to_string())?;
            if report.failed > 0 {
                problems.push(format!(
                    "{workload} (trace {traced}): {:?}",
                    report.mismatches
                ));
            }
            let want = declared(&json, if traced { "per_layer" } else { "end_to_end" });
            let got: Vec<(String, String)> = report
                .printed(traced)
                .iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect();
            for w in &want {
                if !got.contains(w) {
                    problems.push(format!(
                        "{workload} (trace {traced}): declared metric {w:?} missing"
                    ));
                }
            }
            for g in &got {
                if !want.contains(g) {
                    problems.push(format!(
                        "{workload} (trace {traced}): undeclared metric {g:?}"
                    ));
                }
            }
            println!(
                "self-test: {workload} trace {}: {} metrics",
                traced as u8,
                got.len()
            );
        }
        ctx.trace = false;
        ctx.corrupt = Some(workload);
        let report = run_workload(ctx, workload, 1.0).map_err(|e| e.to_string())?;
        ctx.corrupt = None;
        if report.failed == 0 {
            problems.push(format!(
                "{workload}: a corrupted oracle did not fail the run"
            ));
        }
        println!(
            "self-test: {workload} with a corrupted oracle: {} of {} operations failed",
            report.failed, report.attempted
        );
    }
    for p in &problems {
        println!("self-test FAILED: {p}");
    }
    if problems.is_empty() {
        println!("self-test: ok");
        Ok(0)
    } else {
        Ok(1)
    }
}
