//! Regenerates every table and figure of the paper's evaluation as plain
//! text (see EXPERIMENTS.md for the index and recorded results).
//!
//! ```text
//! cargo run --release -p monsem-bench --bin paper_tables -- \
//!     [--table all|examples|spec-levels|fig11|futamura|tspec|tspec-levels|tiered|parallel|ablations|monitor-overhead|cascade|tape|server-scale|server-conns|stream] [--json <dir>]
//! ```
//!
//! Every timed number comes from [`monsem_bench::harness::measure`]: a
//! table's rows run in interleaved rounds and report their q10, q50 and
//! q90; printed columns, ratios and overheads use the q50.
//!
//! With `--json <dir>`, the timed tables also write machine-readable
//! snapshots into `<dir>`, so the performance trajectory can be tracked
//! across revisions: `BENCH_spec_levels.json` (E6), `BENCH_fig11.json`
//! (E7), `BENCH_tspec.json` (tspec overhead), `BENCH_tspec_levels.json`
//! (the three §9.1 levels for one temporal spec), `BENCH_tiered.json`
//! (profile-guided tiering vs the fixed levels), `BENCH_parallel.json`
//! (fork-join speedups), `BENCH_ablations.json` (the DESIGN.md §5
//! ablations), `BENCH_monitor_overhead.json` (toolbox and fault-model
//! overhead), `BENCH_cascade.json` (cascade depth and language modules),
//! `BENCH_tape.json` (event-tape recording, serialization, offline check,
//! and server ingest), `BENCH_server_scale.json` (batched pipelined ingest
//! over real sockets vs producer count, a batch-size ablation against one
//! synchronous request per event, and checkpoint-seeded vs full-replay
//! check time), `BENCH_server_conns.json` (concurrent-connection sweep on
//! the epoll reactor, with peak thread count and RSS per point) and
//! `BENCH_stream.json` (stream-monitor throughput vs window count and
//! width, with the allocation-free steady state asserted by a counting
//! allocator).
//!
//! Absolute times are machine-dependent; the *shape* (who wins, by what
//! factor, linearity in monitoring activity) is what reproduces the paper.

use monsem_bench::harness::{
    array, host_cpus, measure, object, quoted, relative_percent, write_snapshot, Row, Spread,
};
use monsem_bench::{
    labelled_countdown, par_fib, par_merge_sort, trace_density_program, traced_fib,
};
use monsem_core::machine::{eval, eval_with, EvalOptions, LookupMode};
use monsem_core::{programs, resolve_closed, Env, Value};
use monsem_monitor::machine::eval_monitored;
use monsem_monitor::scope::Scope;
use monsem_monitor::{eval_parallel_with, Monitor, ParOptions};
use monsem_monitors::{Collecting, Profiler, Tracer, UnsortedDemon};
use monsem_pe::bta;
use monsem_pe::engine::{compile, compile_monitored};
use monsem_pe::instrument::{instrument, instrument_optimized, step_counter};
use monsem_pe::specialize::SpecializeOptions;
use monsem_syntax::{Annotation, Expr};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The stream table asserts that steady-state stream evaluation never
/// touches the heap, so the whole binary routes allocation through a
/// counting wrapper around the system allocator. The cost is two relaxed
/// atomic increments per allocation — noise for the other tables, which
/// measure in milliseconds.
struct CountingAlloc;

static ALLOCATIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a
// relaxed atomic with no safety obligations.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::alloc::GlobalAlloc::alloc(&std::alloc::System, layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::GlobalAlloc::dealloc(&std::alloc::System, ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::alloc::GlobalAlloc::realloc(&std::alloc::System, ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A table: prints itself, and with `--json <dir>` writes its snapshot.
type Table = fn(Option<&Path>);

/// Every table, in the order `--table all` runs them.
const TABLES: &[(&str, Table)] = &[
    ("examples", examples),
    ("spec-levels", spec_levels),
    ("fig11", fig11),
    ("futamura", futamura),
    ("tspec", tspec_overhead),
    ("tspec-levels", tspec_levels),
    ("tiered", tiered),
    ("parallel", parallel),
    ("ablations", ablations),
    ("monitor-overhead", monitor_overhead),
    ("cascade", cascade),
    ("tape", tape),
    ("server-scale", server_scale),
    ("server-conns", server_conns),
    ("stream", stream),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let table = args
        .iter()
        .position(|a| a == "--table")
        .and_then(|i| args.get(i + 1))
        .map_or("all", String::as_str)
        .replace('_', "-");
    let json_dir: Option<PathBuf> =
        args.iter()
            .position(|a| a == "--json")
            .map(|i| match args.get(i + 1) {
                Some(dir) => PathBuf::from(dir),
                None => {
                    eprintln!("--json needs a directory argument");
                    std::process::exit(2);
                }
            });
    let json = json_dir.as_deref();

    if table == "all" {
        for (_, run) in TABLES {
            run(json);
        }
    } else if let Some((_, run)) = TABLES.iter().find(|(name, _)| *name == table) {
        run(json);
    } else {
        let names: Vec<&str> = TABLES.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown table `{table}`; try {}, all", names.join(", "));
        std::process::exit(2);
    }
}

fn header(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// A printed column: milliseconds, right-aligned.
fn ms(t: f64) -> String {
    format!("{t:>9.3} ms")
}

/// A row that runs `program` on the monitored interpreter under `m`.
fn monitored_row<'a, M: Monitor>(program: &'a Expr, m: &'a M) -> Row<'a> {
    Box::new(move || {
        eval_monitored(program, m).expect("workload evaluates");
    })
}

/// E1–E5: the paper's worked examples, verbatim.
fn examples(_: Option<&Path>) {
    header("E1 (§5): A/B profiler on fac 5  —  paper: σ = ⟨1, 5⟩");
    let ab = monsem_monitors::AbProfiler;
    let (v, s) = eval_monitored(&programs::fac_ab(5), &ab).expect("example evaluates");
    println!("answer = {v}");
    println!("σ = {}", ab.render_state(&s));

    header("E2 (§8): profiler on fac 3 via mul  —  paper: [fac ↦ 4, mul ↦ 3]");
    let p = Profiler::new();
    let (v, s) = eval_monitored(&programs::fac_mul_profiled(3), &p).expect("example evaluates");
    println!("answer = {v}");
    println!("σ = {}", p.render_state(&s));

    header("E3 (§8): tracer on fac 3 via mul  —  paper: indented transcript");
    let t = Tracer::new();
    let (v, s) = eval_monitored(&programs::fac_mul_traced(3), &t).expect("example evaluates");
    println!("{}", t.render_state(&s));
    println!("answer = {v}");

    header("E4 (§8): unsorted-list demon  —  paper: σ = {l1, l3}");
    let d = UnsortedDemon::new();
    let (v, s) = eval_monitored(&programs::inclist_demon(), &d).expect("example evaluates");
    println!("answer = {v}");
    println!("σ = {}", d.render_state(&s));

    header("E5 (§8): collecting monitor on fac 3  —  paper: [test ↦ {true,false}, n ↦ {1,2,3}]");
    let c = Collecting::new();
    let (v, s) = eval_monitored(&programs::collecting_fac(3), &c).expect("example evaluates");
    println!("answer = {v}");
    println!("σ = {}", c.render_state(&s));
}

/// E6: the §9.1 measurements.
///
/// The paper's program traces a modest number of calls relative to its
/// total work (its tracer costs only ≈ 11%, and Figure 11 shows cost is
/// linear in trace volume), so the main table uses a workload where ~20%
/// of the computation routes through a traced function. The fully-traced
/// variant is reported afterwards — that regime is dominated by the
/// tracer's *dynamic* stream operations, which §9.1 notes no amount of
/// specialization removes.
fn spec_levels(json: Option<&Path>) {
    header(
        "E6 (§9.1): specialization levels, tracer at ~20% trace density\n\
         paper: monitored interp ≈ 11% slower than standard interp;\n\
         instrumented program ≈ 85% faster than monitored interp, ≈ 83% faster than standard interp",
    );
    let main = spec_level_times(&trace_density_program(4000, 800));
    println!();
    println!("fully-traced variant (every call traced — dynamic tracing dominates, cf. §9.1's");
    println!("remark that the tracer's stream operations are dynamic):");
    let fully_traced = spec_level_times(&traced_fib(17));

    if let Some(dir) = json {
        let levels =
            |workload: String, [interp, monitored, compiled_mon, compiled_std]: [Spread; 4]| {
                object(&[
                    ("workload", workload),
                    ("standard_interpreter", interp.to_string()),
                    ("monitored_interpreter", monitored.to_string()),
                    ("instrumented_compiled", compiled_mon.to_string()),
                    ("compiled_no_monitor", compiled_std.to_string()),
                ])
            };
        let main_workload = object(&[
            ("iterations", "4000".to_string()),
            ("traced", "800".to_string()),
        ]);
        write_snapshot(
            dir,
            "BENCH_spec_levels.json",
            "spec_levels",
            &[
                ("main", levels(main_workload, main)),
                (
                    "fully_traced",
                    levels(quoted("traced_fib(17)"), fully_traced),
                ),
            ],
        );
    }
}

/// Times one E6 workload at every level and prints it. Returns, in
/// order: standard interpreter, monitored interpreter (tracer), compiled
/// instrumented program, compiled with no monitor.
fn spec_level_times(program: &Expr) -> [Spread; 4] {
    let tracer = Tracer::new();
    let opts = EvalOptions::default();
    let erased = program.erase_annotations();
    let compiled_std = compile(&erased).expect("compiles");
    let compiled_mon = compile_monitored(program, &tracer).expect("compiles");
    let times: [Spread; 4] = measure(vec![
        Box::new(|| {
            eval(&erased).unwrap();
        }),
        monitored_row(program, &tracer),
        Box::new(|| {
            compiled_mon.run_monitored(&tracer, &opts).unwrap();
        }),
        Box::new(|| {
            compiled_std.run().unwrap();
        }),
    ])
    .try_into()
    .expect("one spread per row");
    let [interp, monitored, compiled_mon, compiled_std] = times.map(|t| t.q50);
    println!("standard interpreter            {}", ms(interp));
    println!(
        "monitored interpreter (tracer)  {}   ({} than standard interpreter)",
        ms(monitored),
        relative_percent(monitored, interp)
    );
    println!(
        "instrumented program (compiled) {}   ({} than monitored interpreter, {} than standard interpreter)",
        ms(compiled_mon),
        relative_percent(compiled_mon, monitored),
        relative_percent(compiled_mon, interp)
    );
    println!("  — compiled, no monitor       {}", ms(compiled_std));
    times
}

/// E7: Figure 11. The whole sweep is one group, so every density point
/// sees the same host conditions.
fn fig11(json: Option<&Path>) {
    header(
        "E7 (Figure 11): run time vs number of trace printouts (2000 iterations)\n\
         paper: standard interpreter flat; monitored interpreter linear in trace activity",
    );
    const TRACED: [i64; 6] = [0, 250, 500, 1000, 1500, 2000];
    let tracer = Tracer::new();
    let programs: Vec<(Expr, Expr)> = TRACED
        .iter()
        .map(|&traced| {
            let program = trace_density_program(2000, traced);
            (program.erase_annotations(), program)
        })
        .collect();
    let mut rows: Vec<Row> = Vec::new();
    for (erased, program) in &programs {
        rows.push(Box::new(move || {
            eval(erased).unwrap();
        }));
        rows.push(monitored_row(program, &tracer));
    }
    let times = measure(rows);

    println!("{:>8} {:>14} {:>16}", "traced", "standard", "monitored");
    let mut points: Vec<String> = Vec::new();
    for (traced, t) in TRACED.iter().zip(times.chunks(2)) {
        println!("{:>8} {} {}", traced, ms(t[0].q50), ms(t[1].q50));
        points.push(object(&[
            ("traced", traced.to_string()),
            ("standard", t[0].to_string()),
            ("monitored", t[1].to_string()),
        ]));
    }
    if let Some(dir) = json {
        write_snapshot(
            dir,
            "BENCH_fig11.json",
            "fig11",
            &[
                ("iterations", "2000".to_string()),
                ("points", array(&points)),
            ],
        );
    }
}

/// Temporal-spec overhead (EXPERIMENTS.md §5¾): compiled-automaton
/// monitors on the hook-dense `labelled_countdown` workload.
fn tspec_overhead(json: Option<&Path>) {
    header(
        "Tspec overhead: compiled-automaton monitors on labelled_countdown(2000)\n\
         expectation: one letter classification + one table lookup per event —\n\
         same order as the hand-written demon, linear in event count",
    );
    use monsem_pe::SpecializedSpec;
    use monsem_tspec::SpecMonitor;
    const SPEC: &str = "always(post(B) => value >= 0)";
    let program = labelled_countdown(2000);
    let erased = program.erase_annotations();
    let safety = SpecMonitor::new("safety", SPEC).unwrap();
    let specialized = SpecializedSpec::new(&program, safety.clone());
    let times: [Spread; 3] = measure(vec![
        Box::new(|| {
            eval(&erased).unwrap();
        }),
        monitored_row(&program, &safety),
        monitored_row(&program, &specialized),
    ])
    .try_into()
    .expect("one spread per row");
    let [t_std, t_safety, t_specialized] = times.map(|t| t.q50);
    println!("standard interpreter              {}", ms(t_std));
    println!(
        "tspec-safety (interpreted sites)  {}   ({} than standard)",
        ms(t_safety),
        relative_percent(t_safety, t_std)
    );
    println!(
        "tspec-specialized (site table)    {}   ({} than standard)",
        ms(t_specialized),
        relative_percent(t_specialized, t_std)
    );
    if let Some(dir) = json {
        write_snapshot(
            dir,
            "BENCH_tspec.json",
            "tspec_overhead",
            &[
                ("workload", quoted("labelled_countdown(2000)")),
                ("spec", quoted(SPEC)),
                ("standard_interpreter", times[0].to_string()),
                ("tspec_safety", times[1].to_string()),
                ("tspec_specialized", times[2].to_string()),
            ],
        );
    }
}

/// The three §9.1 specialization levels for one temporal spec,
/// head-to-head (BENCH_tspec_levels): level 1 interprets the spec at
/// every event (alphabet dispatch + table lookup), level 2 precomputes
/// site letters and runs on the compiled engine (`SpecializedSpec`),
/// level 3 compiles the minimized, letter-compressed DFA *into* the
/// program (`instrument_spec`) — the residual program runs unmonitored,
/// threading the bare DFA state integer. Each level's *overhead* is its
/// time minus its own machine's unmonitored baseline, so the comparison
/// isolates what the monitoring costs at that level.
fn tspec_levels(json: Option<&Path>) {
    use monsem_pe::{instrument_spec, spec_verdict, SpecializedSpec};
    use monsem_tspec::SpecMonitor;
    header(
        "Tspec levels: one spec, three §9.1 levels, labelled_countdown(n)\n\
         expectation: level-3 overhead ≤ level-2 overhead at every point —\n\
         inlined integer comparisons beat per-event site lookup + trace recording",
    );
    const SPEC: &str = "always(post(B) => value >= 0)";
    let opts = EvalOptions::default();
    let monitor = SpecMonitor::new("safety", SPEC).unwrap();
    let mut points: Vec<String> = Vec::new();
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "n", "interp", "level1", "compiled", "level2", "level3", "ovh2", "ovh3"
    );
    for n in [500i64, 1000, 2000, 4000] {
        let program = labelled_countdown(n);
        let erased = program.erase_annotations();
        let specialized = SpecializedSpec::new(&program, monitor.clone());
        let residual = instrument_spec(&program, &monitor);
        let compiled_std = compile(&erased).expect("compiles");
        let compiled_mon = compile_monitored(&program, &specialized).expect("compiles");
        let compiled_res = compile(&residual).expect("residual compiles");

        // Correctness outside the timed region: the residual's final
        // state decodes to the interpreted monitor's verdict.
        let (_, s1) = eval_monitored(&program, &monitor).expect("level 1 evaluates");
        match compiled_res.run().expect("level 3 evaluates") {
            Value::Pair(_, state) => {
                assert_eq!(*state, Value::Int(i64::from(s1.state)));
                assert!(spec_verdict(monitor.automaton(), s1.state).is_ok());
            }
            other => panic!("residual program must return a pair, got {other}"),
        }

        let times: [Spread; 5] = measure(vec![
            Box::new(|| {
                eval(&erased).unwrap();
            }),
            monitored_row(&program, &monitor),
            Box::new(|| {
                compiled_std.run().unwrap();
            }),
            Box::new(|| {
                compiled_mon.run_monitored(&specialized, &opts).unwrap();
            }),
            Box::new(|| {
                compiled_res.run().unwrap();
            }),
        ])
        .try_into()
        .expect("one spread per row");
        let [interp, level1, compiled, level2, level3] = times.map(|t| t.q50);
        let ovh2 = (level2 - compiled).max(0.0);
        let ovh3 = (level3 - compiled).max(0.0);
        println!(
            "{:>6} {} {} {} {} {} {} {}",
            n,
            ms(interp),
            ms(level1),
            ms(compiled),
            ms(level2),
            ms(level3),
            ms(ovh2),
            ms(ovh3)
        );
        points.push(object(&[
            ("n", n.to_string()),
            ("standard_interpreter", times[0].to_string()),
            ("level1_interpreted_spec", times[1].to_string()),
            ("compiled_no_monitor", times[2].to_string()),
            ("level2_specialized_sites", times[3].to_string()),
            ("level3_self_monitoring", times[4].to_string()),
            ("overhead_level2", format!("{ovh2:.6}")),
            ("overhead_level3", format!("{ovh3:.6}")),
        ]));
    }
    if let Some(dir) = json {
        let levels = object(&[
            (
                "1",
                quoted("interpreted SpecMonitor (alphabet dispatch per event)"),
            ),
            (
                "2",
                quoted("SpecializedSpec on the compiled engine (per-site letters)"),
            ),
            (
                "3",
                quoted("instrument_spec residual program (DFA inlined, no monitor object)"),
            ),
        ]);
        write_snapshot(
            dir,
            "BENCH_tspec_levels.json",
            "tspec_levels",
            &[
                ("workload", quoted("labelled_countdown(n)")),
                ("spec", quoted(SPEC)),
                ("levels", levels),
                ("points", array(&points)),
            ],
        );
    }
}

/// Tiered execution table (BENCH_tiered): the profile-guided
/// `TieredSession` against the three fixed §9.1 levels on the hot-loop
/// `labelled_countdown` workload. The steady state — once the profile
/// has promoted the loop to a compiled residual — should sit between
/// level 2 and level 3: at most level-2 cost everywhere (the residual
/// *is* compiled), within a small factor of level 3 (the per-run guard
/// and bookkeeping are constant). Correctness (answer and final DFA
/// state vs level 1) is asserted before anything is timed, as is
/// laziness: a cold session compiles nothing.
fn tiered(json: Option<&Path>) {
    use monsem_monitor::TierPolicy;
    use monsem_pe::{instrument_spec, SpecializedSpec, TierOutcome, TieredSession};
    use monsem_tspec::SpecMonitor;
    header(
        "Tiered execution: profile-guided promotion vs the fixed levels, labelled_countdown(n)\n\
         expectation: steady-state tiered ≤ level 2 everywhere and within ~1.25× of\n\
         level 3 — the residual is the level-3 translation behind a constant-cost guard",
    );
    const SPEC: &str = "always(post(B) => value >= 0)";
    let opts = EvalOptions::default();
    let monitor = SpecMonitor::new("safety", SPEC).unwrap();

    // Laziness, asserted once up front: a session whose sites stay cold
    // never invokes the translation.
    let cold_runs = 4u64;
    let mut cold = TieredSession::new(&labelled_countdown(4), monitor.clone())
        .expect("cold program compiles")
        .policy(TierPolicy::default().hot_threshold(1_000_000));
    for _ in 0..cold_runs {
        cold.run().expect("cold run evaluates");
    }
    assert_eq!(
        cold.stats().residuals_compiled,
        0,
        "cold sites must not compile"
    );
    println!("laziness: {cold_runs} cold runs compiled 0 residuals\n");

    let mut points: Vec<String> = Vec::new();
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "n", "level1", "level2", "level3", "tiered", "t/l2", "t/l3"
    );
    for n in [500i64, 1000, 2000, 4000] {
        let program = labelled_countdown(n);
        let specialized = SpecializedSpec::new(&program, monitor.clone());
        let compiled_mon = compile_monitored(&program, &specialized).expect("compiles");
        let compiled_res = compile(&instrument_spec(&program, &monitor)).expect("compiles");

        let mut session = TieredSession::new(&program, monitor.clone())
            .expect("workload compiles")
            .policy(TierPolicy::default().hot_threshold(64));

        // Correctness outside the timed region: the first (profiled)
        // run promotes; steady-state runs are residual-served and agree
        // with level 1 on the answer and the final DFA state.
        let (answer, s1) = eval_monitored(&program, &monitor).expect("level 1 evaluates");
        let first = session.run().expect("profiled run evaluates");
        assert_eq!(first.value, answer);
        assert_eq!(first.state, s1.state);
        assert_eq!(session.stats().promotions, 1, "the loop must be hot");
        let steady = session.run().expect("residual run evaluates");
        assert_eq!(steady.outcome, TierOutcome::Residual);
        assert_eq!(steady.value, answer);
        assert_eq!(steady.state, s1.state);

        let times: [Spread; 4] = measure(vec![
            monitored_row(&program, &monitor),
            Box::new(|| {
                compiled_mon.run_monitored(&specialized, &opts).unwrap();
            }),
            Box::new(|| {
                compiled_res.run().unwrap();
            }),
            Box::new(|| {
                assert_eq!(session.run().unwrap().outcome, TierOutcome::Residual);
            }),
        ])
        .try_into()
        .expect("one spread per row");
        let [level1, level2, level3, tiered] = times.map(|t| t.q50);
        let (vs_l2, vs_l3) = (tiered / level2, tiered / level3);
        println!(
            "{:>6} {} {} {} {} {:>9.3}× {:>9.3}×",
            n,
            ms(level1),
            ms(level2),
            ms(level3),
            ms(tiered),
            vs_l2,
            vs_l3
        );
        points.push(object(&[
            ("n", n.to_string()),
            ("level1_interpreted_spec", times[0].to_string()),
            ("level2_specialized_sites", times[1].to_string()),
            ("level3_self_monitoring", times[2].to_string()),
            ("tiered_steady_state", times[3].to_string()),
            ("tiered_over_level2", format!("{vs_l2:.4}")),
            ("tiered_over_level3", format!("{vs_l3:.4}")),
        ]));
    }
    if let Some(dir) = json {
        write_snapshot(
            dir,
            "BENCH_tiered.json",
            "tiered",
            &[
                ("workload", quoted("labelled_countdown(n)")),
                ("spec", quoted(SPEC)),
                (
                    "policy",
                    quoted("hot_threshold 64; steady state measured after promotion"),
                ),
                (
                    "laziness",
                    object(&[
                        ("cold_runs", cold_runs.to_string()),
                        ("residuals_compiled", "0".to_string()),
                    ]),
                ),
                ("points", array(&points)),
            ],
        );
    }
}

/// Fork-join speedup table (BENCH_parallel): profiler-monitored
/// `par_fib` / `par_merge_sort` workloads across a thread axis, compared
/// against the *sequential* monitored machine on the identical program.
/// The merge-law proptests (`tests/parallel_fork_join.rs`) pin the
/// states bit-for-bit; this table records what the parallelism buys in
/// wall-clock.
fn parallel(json: Option<&Path>) {
    header(&format!(
        "Fork-join parallel evaluation: profiler-monitored workloads\n\
         expectation: ≥ 2× at 4 threads on 8 independent shards (needs ≥ 4 host\n\
         cores; this host has {}); states identical either way",
        host_cpus()
    ));
    let profiler = &Profiler::new();
    let workloads = [
        ("par_fib(8, 21)", par_fib(8, 21)),
        ("par_merge_sort(8, 220)", par_merge_sort(8, 220)),
    ];
    let mut entries: Vec<String> = Vec::new();
    for (name, program) in &workloads {
        let seq_out = eval_monitored(program, profiler).expect("workload evaluates");
        let axis: Vec<ParOptions> = [1usize, 2, 4, 8]
            .into_iter()
            .map(|threads| ParOptions {
                threads,
                eval: EvalOptions::default(),
            })
            .collect();
        let mut rows: Vec<Row> = vec![monitored_row(program, profiler)];
        for popts in &axis {
            let par_out = eval_parallel_with(
                program,
                &Env::empty(),
                profiler,
                profiler.initial_state(),
                popts,
            )
            .expect("workload evaluates");
            assert_eq!(seq_out, par_out, "parallel must match sequential exactly");
            rows.push(Box::new(move || {
                eval_parallel_with(
                    program,
                    &Env::empty(),
                    profiler,
                    profiler.initial_state(),
                    popts,
                )
                .unwrap();
            }));
        }
        let times = measure(rows);
        let seq = times[0];
        println!("\n{name}");
        println!("  sequential monitored machine  {}", ms(seq.q50));
        let mut points: Vec<String> = Vec::new();
        for (popts, t) in axis.iter().zip(&times[1..]) {
            let threads = popts.threads;
            let speedup = seq.q50 / t.q50;
            println!(
                "  {threads} thread{}                     {}   ({speedup:.2}× vs sequential)",
                if threads == 1 { " " } else { "s" },
                ms(t.q50)
            );
            points.push(object(&[
                ("threads", threads.to_string()),
                ("wall_ms", t.to_string()),
                ("speedup", format!("{speedup:.3}")),
            ]));
        }
        entries.push(object(&[
            ("workload", quoted(name)),
            ("sequential_ms", seq.to_string()),
            ("points", format!("[{}]", points.join(", "))),
        ]));
    }
    if let Some(dir) = json {
        write_snapshot(
            dir,
            "BENCH_parallel.json",
            "parallel",
            &[
                ("monitor", quoted("profiler")),
                (
                    "machine",
                    quoted("monitor::parallel fork-join vs sequential monitored machine"),
                ),
                ("workloads", array(&entries)),
            ],
        );
    }
}

/// The owned-state counting monitor (the library's idiom).
struct OwnedCounter;
impl Monitor for OwnedCounter {
    type State = u64;
    fn name(&self) -> &str {
        "owned-counter"
    }
    fn initial_state(&self) -> u64 {
        0
    }
    fn pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, n: u64) -> u64 {
        n + 1
    }
}

/// The same monitor with interior mutability: the threaded state is `()`
/// and the count lives in a `Cell` inside the monitor.
struct CellCounter(std::rc::Rc<std::cell::Cell<u64>>);
impl Monitor for CellCounter {
    type State = ();
    fn name(&self) -> &str {
        "cell-counter"
    }
    fn initial_state(&self) {}
    fn pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, (): ()) {
        self.0.set(self.0.get() + 1);
    }
}

/// Ablations for the design choices DESIGN.md §5 calls out (BENCH_ablations):
/// defunctionalized frames vs boxed-closure continuations; variable lookup
/// by string comparison, interned symbol or lexical address (with the
/// compiled de Bruijn engine for reference); owned-state (`MS → MS`)
/// monitor hooks vs interior mutability.
fn ablations(json: Option<&Path>) {
    use monsem_core::closure_cps::eval_cps_with;
    header(
        "Ablations (DESIGN.md §5): continuation encoding, variable lookup, monitor-state style\n\
         expectation: frames beat boxed closures; addresses beat symbols beat strings;\n\
         owned-state hooks cost what interior mutability costs",
    );
    let fib = &programs::fib(17);
    let workloads = [
        ("fac-12", programs::fac(12), Value::Int(479_001_600)),
        ("fib-17", programs::fib(17), Value::Int(1597)),
        ("ack-2-3", programs::ack(2, 3), Value::Int(9)),
    ];
    // `string-compare` reconstructs the pre-interning seed (full string
    // comparison per frame, linear primitive scan); `interned-symbol` is
    // one u32 compare per frame; `lexical-address` follows
    // resolver-computed (depth, slot) addresses — no comparisons. The
    // lexical row evaluates a tree resolved once outside the clock (like
    // `compile` below), and `BySymbol` stops `eval_with` from resolving
    // it again per run — the `VarAt` nodes take the address path in
    // every mode.
    let resolved: Vec<Expr> = workloads
        .iter()
        .map(|(_, p, _)| resolve_closed(p))
        .collect();
    let by_string = &EvalOptions::with_lookup(LookupMode::ByString);
    let by_symbol = &EvalOptions::with_lookup(LookupMode::BySymbol);
    let defaults = &EvalOptions::default();
    let compiled = compile(fib).expect("compiles");
    let labelled = &labelled_countdown(2_000);

    let mut named: Vec<(String, Row)> = vec![
        (
            "continuations/defunctionalized".to_string(),
            Box::new(|| assert_eq!(eval(fib), Ok(Value::Int(1597)))),
        ),
        (
            "continuations/boxed-closures".to_string(),
            Box::new(|| {
                assert_eq!(
                    eval_cps_with(fib, &Env::empty(), defaults),
                    Ok(Value::Int(1597))
                )
            }),
        ),
    ];
    for ((name, program, expected), resolved) in workloads.iter().zip(&resolved) {
        for (mode, opts, program) in [
            ("string-compare", by_string, program),
            ("interned-symbol", by_symbol, program),
            ("lexical-address", by_symbol, resolved),
        ] {
            named.push((
                format!("environments/{mode}/{name}"),
                Box::new(move || {
                    assert_eq!(
                        eval_with(program, &Env::empty(), opts).as_ref(),
                        Ok(expected)
                    )
                }),
            ));
        }
    }
    named.push((
        "environments/compiled-de-bruijn/fib-17".to_string(),
        Box::new(|| {
            compiled.run().unwrap();
        }),
    ));
    named.push((
        "monitor-state/owned".to_string(),
        monitored_row(labelled, &OwnedCounter),
    ));
    named.push((
        "monitor-state/interior-mutable".to_string(),
        Box::new(|| {
            let m = CellCounter(Default::default());
            eval_monitored(labelled, &m).unwrap();
        }),
    ));
    let (names, rows): (Vec<String>, Vec<Row>) = named.into_iter().unzip();
    let times = measure(rows);
    let mut json_rows: Vec<String> = Vec::new();
    for (name, t) in names.iter().zip(&times) {
        println!("{name:<44} {}", ms(t.q50));
        json_rows.push(object(&[
            ("name", quoted(name)),
            ("wall_ms", t.to_string()),
        ]));
    }
    if let Some(dir) = json {
        write_snapshot(
            dir,
            "BENCH_ablations.json",
            "ablations",
            &[("rows", array(&json_rows))],
        );
    }
}

/// Per-monitor overhead of the toolbox (§8/§9.2) on the monitored
/// interpreter, against the identity monitor (BENCH_monitor_overhead).
/// `tspec-demon` states the §8 unsorted-demon property as a temporal spec
/// (compare `demon`; the other spec monitors are the `tspec` table). The
/// `guarded-*` rows measure the fault model's cost: the same monitor
/// wrapped in [`Guarded`](monsem_monitor::Guarded) (verdict checks,
/// `catch_unwind`, budget bookkeeping) against its bare self.
fn monitor_overhead(json: Option<&Path>) {
    use monsem_monitor::{Budget, FaultPolicy, Guarded, IdentityMonitor};
    use monsem_monitors::{AbProfiler, Stepper};
    use monsem_tspec::SpecMonitor;
    header(
        "Monitor overhead: the toolbox and the fault model on labelled_countdown(2000)\n\
         expectation: every monitor within a small factor of identity; Guarded's cost\n\
         is catch_unwind and the state clone, not budget bookkeeping",
    );
    const WORKLOAD: &str = "labelled_countdown(2000)";
    let program = &labelled_countdown(2000);
    let profiler = Profiler::new();
    let collecting = Collecting::new();
    let demon = UnsortedDemon::new();
    let stepper = Stepper::new();
    let tspec_demon = SpecMonitor::new("unsorted", "never(post(_) and unsorted)").unwrap();
    // Verdict plumbing and catch_unwind, no budgets.
    let guarded_identity = Guarded::new(IdentityMonitor).policy(FaultPolicy::Quarantine);
    let guarded_demon = Guarded::new(UnsortedDemon::new()).policy(FaultPolicy::Quarantine);
    // Budget bookkeeping on top: a step count and a wall-clock read per event.
    let budgeted = Guarded::new(UnsortedDemon::new())
        .policy(FaultPolicy::Quarantine)
        .budget(
            Budget::unlimited()
                .with_steps(u64::MAX)
                .with_wall(Duration::from_secs(3600)),
        );
    let (names, rows): (Vec<&str>, Vec<Row>) = [
        ("identity", monitored_row(program, &IdentityMonitor)),
        ("ab-profiler", monitored_row(program, &AbProfiler)),
        ("profiler", monitored_row(program, &profiler)),
        ("collecting", monitored_row(program, &collecting)),
        ("demon", monitored_row(program, &demon)),
        ("stepper", monitored_row(program, &stepper)),
        ("tspec-demon", monitored_row(program, &tspec_demon)),
        (
            "guarded-identity",
            monitored_row(program, &guarded_identity),
        ),
        ("guarded-demon", monitored_row(program, &guarded_demon)),
        ("guarded-demon-budgeted", monitored_row(program, &budgeted)),
    ]
    .into_iter()
    .unzip();
    let times = measure(rows);
    let identity = times[0].q50;
    let mut json_rows: Vec<String> = Vec::new();
    for (name, t) in names.iter().zip(&times) {
        println!(
            "{name:<24} {}   ({:.2}× identity)",
            ms(t.q50),
            t.q50 / identity
        );
        json_rows.push(object(&[
            ("monitor", quoted(name)),
            ("wall_ms", t.to_string()),
        ]));
    }
    if let Some(dir) = json {
        write_snapshot(
            dir,
            "BENCH_monitor_overhead.json",
            "monitor_overhead",
            &[("workload", quoted(WORKLOAD)), ("rows", array(&json_rows))],
        );
    }
}

/// Cost of monitor cascades (§6, BENCH_cascade): the same program under
/// 0–6 stacked profilers, of which only the first listens on the
/// program's namespace — the rest pay `accepts` dispatch but never fire —
/// plus the three language modules under one profiler.
fn cascade(json: Option<&Path>) {
    use monsem_monitor::compose::boxed;
    use monsem_monitor::imperative::eval_monitored_imperative_with;
    use monsem_monitor::lazy::eval_monitored_lazy_with;
    use monsem_monitor::MonitorStack;
    use monsem_syntax::Namespace;
    header(
        "Cascades (§6): stacked profilers and language modules on labelled_countdown(2000)\n\
         expectation: the one firing layer carries the cost; non-firing layers are nearly free",
    );
    const DEPTHS: [usize; 5] = [0, 1, 2, 4, 6];
    const MODULES: [&str; 3] = ["strict", "lazy", "imperative"];
    let program = &labelled_countdown(2_000);
    let opts = EvalOptions::default();
    let stacks: Vec<MonitorStack> = DEPTHS
        .iter()
        .map(|&depth| {
            (0..depth).fold(MonitorStack::empty(), |stack, i| {
                let ns = if i == 0 {
                    Namespace::anonymous()
                } else {
                    Namespace::new(format!("ns{i}"))
                };
                stack.push(boxed(Profiler::in_namespace(ns)))
            })
        })
        .collect();
    let p = Profiler::new();
    let mut rows: Vec<Row> = stacks.iter().map(|s| monitored_row(program, s)).collect();
    rows.push(monitored_row(program, &p));
    rows.push(Box::new(|| {
        eval_monitored_lazy_with(program, &Env::empty(), &p, p.initial_state(), &opts).unwrap();
    }));
    rows.push(Box::new(|| {
        eval_monitored_imperative_with(program, &Env::empty(), &p, p.initial_state(), &opts)
            .unwrap();
    }));
    let times = measure(rows);
    let (depths, modules) = times.split_at(DEPTHS.len());

    let mut depth_rows: Vec<String> = Vec::new();
    for (depth, t) in DEPTHS.iter().zip(depths) {
        println!("{:<18} {}", format!("depth {depth}"), ms(t.q50));
        depth_rows.push(object(&[
            ("depth", depth.to_string()),
            ("wall_ms", t.to_string()),
        ]));
    }
    let mut module_rows: Vec<String> = Vec::new();
    for (module, t) in MODULES.iter().zip(modules) {
        println!("{module:<18} {}", ms(t.q50));
        module_rows.push(object(&[
            ("module", quoted(module)),
            ("wall_ms", t.to_string()),
        ]));
    }
    if let Some(dir) = json {
        write_snapshot(
            dir,
            "BENCH_cascade.json",
            "cascade",
            &[
                ("workload", quoted("labelled_countdown(2000)")),
                ("depths", array(&depth_rows)),
                ("language_modules", array(&module_rows)),
            ],
        );
    }
}

/// Monitoring-as-a-service table (BENCH_tape): what the event tape
/// costs at each stage of its life — recording next to the live
/// monitor, serializing to the versioned binary format, the offline
/// `check` replay, and ingest through the sharded monitor server's
/// bounded queues. Recording should sit within a small constant factor
/// of the live run (one `Vec` push per hook), and the offline stages
/// should process events orders of magnitude faster than the machine
/// produced them — the point of checking tapes instead of re-executing.
fn tape(json: Option<&Path>) {
    use monsem_monitor::{record_monitored_with, Check, MemorySink, SharedSink};
    use monsem_stream::StreamMonitor;
    use monsem_tape::{read_tape, write_tape, MonitorServer, ServerConfig, ViewDecoder};
    use monsem_tspec::SpecMonitor;
    header(
        "Event tapes: record / serialize / offline-check / server ingest, labelled_countdown(2000)\n\
         expectation: recording within a small factor of the live run; offline check\n\
         and server ingest orders of magnitude faster than re-execution; the view\n\
         check (what `monsem check --stream` runs) within a small factor of the owned one",
    );
    const SPEC: &str = "always(post(B) => value >= 0)";
    const STREAM: &str =
        "stream calls = count(post(B)) over window(64)\ntrigger busy = calls >= 64";
    /// Events per server request in the ingest row.
    const CHUNK: usize = 256;
    let program = labelled_countdown(2000);
    let opts = EvalOptions::default();
    let monitor = SpecMonitor::new("safety", SPEC).unwrap();
    let stream = StreamMonitor::new("slo", STREAM).unwrap();

    // One reference tape for the offline stages.
    let mem = MemorySink::new();
    let sink = SharedSink::new(mem.clone());
    record_monitored_with(&program, &Env::empty(), monitor.clone(), &sink, &opts)
        .expect("workload evaluates");
    let events = mem.take();
    let n_events = events.len();
    let bytes = write_tape(&events);
    let bytes_per_event = bytes.len() as f64 / n_events as f64;

    let mut decoder = ViewDecoder::new();
    let server = MonitorServer::start(ServerConfig::default());
    let mut session = 0u64;
    let times: [Spread; 9] = measure(vec![
        monitored_row(&program, &monitor),
        Box::new(|| {
            let mem = MemorySink::new();
            let sink = SharedSink::new(mem.clone());
            record_monitored_with(&program, &Env::empty(), monitor.clone(), &sink, &opts).unwrap();
        }),
        Box::new(|| {
            std::hint::black_box(write_tape(&events));
        }),
        Box::new(|| {
            std::hint::black_box(read_tape(&bytes).unwrap());
        }),
        Box::new(|| {
            std::hint::black_box(monitor.check_tape(&events));
        }),
        Box::new(|| {
            std::hint::black_box(stream.check_tape(&events));
        }),
        // Both specs from the tape's bytes: the owned path decodes into
        // `TapeEvent`s and runs both `check_tape`s; the view path (what
        // `monsem check <tape> <spec> --stream <spec>` runs) decodes
        // views once and folds both specs over them.
        Box::new(|| {
            let events = read_tape(&bytes).unwrap();
            std::hint::black_box((monitor.check_tape(&events), stream.check_tape(&events)));
        }),
        Box::new(|| {
            let tape = decoder.decode(&bytes).unwrap();
            let mut check = Check::new(monitor.initial_state());
            check.fold(&monitor, tape.events(), &tape);
            let mut stream_check = Check::new(stream.initial_state());
            stream_check.fold(&stream, tape.events(), &tape);
            std::hint::black_box((
                monitor.check_result(check),
                stream.check_result(stream_check),
            ));
        }),
        // Server ingest: one full session lifecycle — open, stream in
        // chunks through the sharded bounded queues, close. Includes the
        // per-request round-trips and each chunk's tape encoding (as a
        // socket producer's `send_batch` pays it), i.e. what a producer
        // actually pays.
        Box::new(|| {
            session += 1;
            assert!(matches!(
                server.open(session, SPEC, false),
                monsem_tape::Response::Ok
            ));
            for chunk in events.chunks(CHUNK) {
                server.events(session, chunk);
            }
            server.close(session);
        }),
    ])
    .try_into()
    .expect("one spread per row");
    server.shutdown();
    let [live, record, encode, decode, check, stream_check, owned_check, view_check, ingest] =
        times.map(|t| t.q50);

    let per_ms = |t: f64| n_events as f64 / t;
    println!("events on tape                  {n_events:>9}   ({bytes_per_event:.1} bytes/event serialized)");
    println!("live monitored run              {}", ms(live));
    println!(
        "recording run (tape sink)       {}   ({} than live)",
        ms(record),
        relative_percent(record, live)
    );
    for (label, t) in [
        ("serialize                      ", encode),
        ("deserialize                    ", decode),
        ("offline check                  ", check),
        ("offline stream check           ", stream_check),
        ("both checks, owned (read_tape) ", owned_check),
    ] {
        println!("{label} {}   ({:>8.0} events/ms)", ms(t), per_ms(t));
    }
    println!(
        "both checks, views (`check`)    {}   ({:>8.0} events/ms, owned/view {:.2}x)",
        ms(view_check),
        per_ms(view_check),
        owned_check / view_check
    );
    println!(
        "server ingest (chunks of {CHUNK})    {}   ({:>8.0} events/ms)",
        ms(ingest),
        per_ms(ingest)
    );

    if let Some(dir) = json {
        write_snapshot(
            dir,
            "BENCH_tape.json",
            "tape",
            &[
                ("workload", quoted("labelled_countdown(2000)")),
                ("spec", quoted(SPEC)),
                ("events", n_events.to_string()),
                ("bytes_per_event", format!("{bytes_per_event:.3}")),
                ("live_ms", times[0].to_string()),
                ("record_ms", times[1].to_string()),
                ("encode_ms", times[2].to_string()),
                ("decode_ms", times[3].to_string()),
                ("check_ms", times[4].to_string()),
                ("check_events_per_ms", format!("{:.1}", per_ms(check))),
                ("stream_spec", quoted(STREAM)),
                ("stream_check_ms", times[5].to_string()),
                ("owned_check_ms", times[6].to_string()),
                ("view_check_ms", times[7].to_string()),
                (
                    "view_check_events_per_ms",
                    format!("{:.1}", per_ms(view_check)),
                ),
                (
                    "owned_over_view",
                    format!("{:.2}", owned_check / view_check),
                ),
                ("server_ingest_ms", times[8].to_string()),
                ("server_events_per_ms", format!("{:.1}", per_ms(ingest))),
            ],
        );
    }
}

/// Saturation study for the batched, pipelined ingest path: P
/// producers in process and over real sockets (TCP and Unix, both
/// served by one server), a batch-size ablation against the synchronous
/// per-event protocol, and checkpoint-seeded vs full-replay offline
/// check time. Every timed run asserts its verdict identical to the
/// offline oracle — a fast path that changes the answer would be a bug,
/// not a speedup.
fn server_scale(json: Option<&Path>) {
    use monsem_monitor::TapeEvent;
    use monsem_tape::{
        check_tape_from, read_tape, serve_tcp, serve_unix, write_tape, write_tape_checkpointed,
        Client, MonitorServer, Request, Response, ServerConfig,
    };
    use monsem_tspec::{SpecMonitor, TapeOutcome};
    use std::io::{Read, Write};
    use std::sync::Arc;

    const SPEC: &str = "always(post(req) => value >= 0)";
    /// Events per producer per run; also the checkpointed tape's length.
    const TOTAL: usize = 100_000;
    /// Events for the synchronous per-event baseline (each event costs a
    /// full round trip; the full workload would dominate the run).
    const SYNC_N: usize = 16_384;
    const PRODUCERS: [usize; 4] = [1, 2, 4, 8];
    const TRANSPORTS: [&str; 3] = ["inproc", "tcp", "unix"];
    const BATCHES: [usize; 7] = [1, 16, 64, 256, 1024, 4096, 16384];
    const CKPT_EVERY: usize = 10_000;

    header(&format!(
        "Server saturation: batched pipelined ingest over sockets, {TOTAL} events/producer\n\
         host_cpus = {}; every timed run's verdict is asserted against the offline oracle",
        host_cpus()
    ));

    let ann = Annotation::label("req");
    let events: Vec<TapeEvent> = (0..TOTAL)
        .map(|i| {
            // Mostly in-spec values with a violation every 10k events, so
            // the violated path (and earliest-violation tracking) is paid
            // for, not skipped.
            let v = if i % 10_000 == 9_999 {
                -1
            } else {
                (i % 97) as i64
            };
            TapeEvent::post(&ann, &Value::Int(v), i as u64)
        })
        .collect();
    let oracle_monitor = SpecMonitor::new("oracle", SPEC).unwrap();
    let oracle = oracle_monitor.check_tape(events.iter());
    let oracle_earliest = oracle.earliest_violation;
    let oracle_violated = matches!(oracle.outcome, TapeOutcome::Violated(_));
    assert!(oracle_violated, "the workload must exercise violations");

    fn open(session: u64) -> Request {
        Request::Open {
            session,
            enforcing: false,
            spec: SPEC.to_string(),
            stream: None,
        }
    }

    /// One socket run: P producers, each with its own connection and
    /// session, pushing the whole workload in `batch`-event frames and
    /// closing. The close verdict is the barrier *and* the correctness
    /// check: ingested count, earliest violation, and verdict class
    /// must equal the offline oracle's.
    fn socket_row<'a, S, C>(
        connect: C,
        p: usize,
        batch: usize,
        events: &'a [TapeEvent],
        oracle_earliest: Option<u64>,
        oracle_violated: bool,
    ) -> Row<'a>
    where
        S: Read + Write + Send,
        C: Fn() -> Client<S> + Sync + 'a,
    {
        Box::new(move || {
            let connect = &connect;
            std::thread::scope(|scope| {
                for t in 0..p {
                    scope.spawn(move || {
                        let mut client = connect();
                        let session = t as u64;
                        let resp = client.request(&open(session)).expect("open");
                        assert!(matches!(resp, Response::Ok), "open: {resp:?}");
                        // One EventBatch frame per chunk — the same wire
                        // image a `BatchWriter` flushes at this batch
                        // size, minus the per-event clone into its
                        // buffer (which would time the benchmark
                        // harness, not the path).
                        for chunk in events.chunks(batch) {
                            client.send_batch(session, chunk).expect("send");
                        }
                        let v = match client.request(&Request::Close { session }).expect("close") {
                            Response::Verdict(v) => v,
                            other => panic!("close: {other:?}"),
                        };
                        assert_eq!(v.ingested, events.len() as u64, "events lost in flight");
                        assert_eq!(v.earliest_violation, oracle_earliest, "verdict drifted");
                        assert_eq!(v.violation.is_some(), oracle_violated, "verdict drifted");
                    });
                }
            });
        })
    }

    let server = Arc::new(MonitorServer::start(ServerConfig::default()));
    let tcp = serve_tcp(Arc::clone(&server), "127.0.0.1:0").expect("bind tcp");
    let addr = tcp.addr().expect("tcp addr");
    let sock_path =
        std::env::temp_dir().join(format!("monsem-bench-scale-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock_path);
    let unix = serve_unix(Arc::clone(&server), &sock_path).expect("bind unix");
    let connect_tcp = move || Client::connect_tcp(addr).expect("connect");
    let connect_unix = || Client::connect_unix(&sock_path).expect("connect");

    let batch_default = monsem_tape::DEFAULT_BATCH;
    let image = write_tape(&events);
    let sync_events = &events[..SYNC_N];
    let sync_oracle = oracle_monitor.check_tape(sync_events.iter());
    // Checkpointed vs full-replay offline check on the same ≥100k-event
    // tape. The seeded check must reach the identical verdict before
    // its time means anything.
    let v3 = write_tape_checkpointed(&events, &oracle_monitor, None, CKPT_EVERY);
    let full = oracle_monitor.check_tape(read_tape(&v3).expect("v3 decodes").iter());
    let seeded = check_tape_from(&oracle_monitor, &v3, (TOTAL - 1) as u64).expect("seeded check");
    assert_eq!(
        std::mem::discriminant(&seeded.check.outcome),
        std::mem::discriminant(&full.outcome),
        "a checkpoint changed the verdict"
    );
    assert_eq!(seeded.check.earliest_violation, full.earliest_violation);
    assert_eq!(seeded.check.state.state, full.state.state);
    let (resumed_at, replayed) = (seeded.resumed_at, seeded.replayed);

    let (server_ref, events_ref) = (&server, &events);
    let (mut image_session, mut sync_session) = (500u64, 900u64);
    let mut rows: Vec<Row> = vec![
        // The offline checker's bare fold on this workload — the rate
        // every ingest path is chasing.
        Box::new(|| {
            std::hint::black_box(oracle_monitor.check_tape(events.iter()));
        }),
        // Batch = the whole tape: one EventBatch frame carrying a
        // pre-encoded 100k-event image. The server pays exactly what
        // the offline checker pays (decode + fold) plus one queue hop —
        // the limit the batching curve converges to.
        Box::new(|| {
            image_session += 1;
            assert!(matches!(server.request(open(image_session)), Response::Ok));
            let (out, _acks) = std::sync::mpsc::sync_channel(64);
            assert!(server.post(
                Request::EventBatch {
                    session: image_session,
                    tape: image.clone(),
                },
                out,
            ));
            let v = match server.request(Request::Close {
                session: image_session,
            }) {
                Response::Verdict(v) => v,
                other => panic!("close: {other:?}"),
            };
            assert_eq!(v.ingested, events.len() as u64);
            assert_eq!(v.earliest_violation, oracle_earliest);
        }),
        // The pre-batching baseline: one synchronous one-event batch
        // request — an encode, a fresh reply channel, a queue round
        // trip, a blocking recv — per event, through the in-process
        // API (the wire protocol has no per-event reply to measure).
        Box::new(|| {
            sync_session += 1;
            assert!(matches!(server.request(open(sync_session)), Response::Ok));
            for ev in sync_events {
                server.events(sync_session, std::slice::from_ref(ev));
            }
            let v = match server.request(Request::Close {
                session: sync_session,
            }) {
                Response::Verdict(v) => v,
                other => panic!("close: {other:?}"),
            };
            assert_eq!(v.ingested, sync_events.len() as u64);
            assert_eq!(v.earliest_violation, sync_oracle.earliest_violation);
        }),
        Box::new(|| {
            let evs = read_tape(&v3).unwrap();
            std::hint::black_box(oracle_monitor.check_tape(evs.iter()));
        }),
        Box::new(|| {
            std::hint::black_box(
                check_tape_from(&oracle_monitor, &v3, (TOTAL - 1) as u64).unwrap(),
            );
        }),
    ];
    // Producer scaling at the default batch size. The total offered load
    // grows with P (each producer pushes the full workload), so
    // aggregate events/ms is the saturation curve. The in-process rows
    // are the same fire-and-forget batch-fold-ack path minus the socket.
    for p in PRODUCERS {
        rows.push(Box::new(move || {
            std::thread::scope(|scope| {
                for t in 0..p {
                    scope.spawn(move || {
                        let session = t as u64;
                        assert!(matches!(server_ref.request(open(session)), Response::Ok));
                        // Acks are advisory; an unread (bounded) channel
                        // exercises the drop-not-block path. Each chunk
                        // is encoded inside the clock, as the socket
                        // rows' `send_batch` does.
                        let (out, _acks) = std::sync::mpsc::sync_channel(64);
                        for chunk in events_ref.chunks(batch_default) {
                            assert!(server_ref.post(
                                Request::EventBatch {
                                    session,
                                    tape: write_tape(chunk),
                                },
                                out.clone(),
                            ));
                        }
                        let v = match server_ref.request(Request::Close { session }) {
                            Response::Verdict(v) => v,
                            other => panic!("close: {other:?}"),
                        };
                        assert_eq!(v.ingested, events_ref.len() as u64);
                        assert_eq!(v.earliest_violation, oracle_earliest);
                        assert_eq!(v.violation.is_some(), oracle_violated);
                    });
                }
            });
        }));
    }
    for p in PRODUCERS {
        rows.push(socket_row(
            connect_tcp,
            p,
            batch_default,
            &events,
            oracle_earliest,
            oracle_violated,
        ));
    }
    for p in PRODUCERS {
        rows.push(socket_row(
            connect_unix,
            p,
            batch_default,
            &events,
            oracle_earliest,
            oracle_violated,
        ));
    }
    // Batch-size ablation, single producer over TCP (the transport with
    // the higher per-frame cost).
    for batch in BATCHES {
        rows.push(socket_row(
            connect_tcp,
            1,
            batch,
            &events,
            oracle_earliest,
            oracle_violated,
        ));
    }
    let times = measure(rows);
    tcp.stop();
    unix.stop();
    server.shutdown();
    let _ = std::fs::remove_file(&sock_path);

    let (fixed, rest) = times.split_at(5);
    let [offline, image_wall, sync_wall, full_check, seeded_check]: [Spread; 5] =
        fixed.try_into().expect("five fixed rows");
    let (scale, ablation) = rest.split_at(TRANSPORTS.len() * PRODUCERS.len());
    let per_ms = |events: usize, t: Spread| events as f64 / t.q50;

    println!(
        "offline check (no decode)  {}   ({:>8.0} events/ms)",
        ms(offline.q50),
        per_ms(TOTAL, offline)
    );
    let mut point_rows: Vec<String> = Vec::new();
    let points = TRANSPORTS
        .iter()
        .flat_map(|transport| PRODUCERS.map(|p| (transport, p)));
    for ((transport, p), t) in points.zip(scale) {
        let epms = per_ms(p * TOTAL, *t);
        println!(
            "{transport:<6} P={p}  batch={batch_default:<4}  {}   ({epms:>8.0} events/ms aggregate)",
            ms(t.q50)
        );
        point_rows.push(object(&[
            ("transport", quoted(transport)),
            ("producers", p.to_string()),
            ("total_events", (p * TOTAL).to_string()),
            ("wall_ms", t.to_string()),
            ("events_per_ms", format!("{epms:.1}")),
        ]));
    }
    println!(
        "inproc P=1  whole image  {}   ({:>8.0} events/ms)",
        ms(image_wall.q50),
        per_ms(TOTAL, image_wall)
    );
    let mut ablation_rows: Vec<String> = Vec::new();
    for (batch, t) in BATCHES.iter().zip(ablation) {
        let epms = per_ms(TOTAL, *t);
        println!(
            "tcp    P=1  batch={batch:<5} {}   ({epms:>8.0} events/ms)",
            ms(t.q50)
        );
        ablation_rows.push(object(&[
            ("batch", batch.to_string()),
            ("wall_ms", t.to_string()),
            ("events_per_ms", format!("{epms:.1}")),
        ]));
    }
    println!(
        "sync per-event request  {}   ({:>8.0} events/ms, {SYNC_N} events, in-process)",
        ms(sync_wall.q50),
        per_ms(SYNC_N, sync_wall)
    );
    let ckpt_speedup = full_check.q50 / seeded_check.q50;
    println!(
        "check --from (full replay)      {}   ({TOTAL} events folded)",
        ms(full_check.q50)
    );
    println!(
        "check --from (checkpointed)     {}   (resumed at {resumed_at}, {replayed} folded, {ckpt_speedup:.1}x)",
        ms(seeded_check.q50)
    );

    if let Some(dir) = json {
        let timed = |t: Spread, events: usize| {
            object(&[
                ("wall_ms", t.to_string()),
                ("events_per_ms", format!("{:.1}", per_ms(events, t))),
            ])
        };
        write_snapshot(
            dir,
            "BENCH_server_scale.json",
            "server_scale",
            &[
                ("shards", ServerConfig::default().shards.to_string()),
                ("spec", quoted(SPEC)),
                ("events_per_producer", TOTAL.to_string()),
                ("default_batch", batch_default.to_string()),
                (
                    "verdicts_asserted_against_offline_oracle",
                    "true".to_string(),
                ),
                ("offline_check", timed(offline, TOTAL)),
                ("points", array(&point_rows)),
                ("batch_ablation", array(&ablation_rows)),
                ("whole_tape_image", timed(image_wall, TOTAL)),
                (
                    "sync_per_event",
                    object(&[
                        ("events", SYNC_N.to_string()),
                        ("wall_ms", sync_wall.to_string()),
                        ("events_per_ms", format!("{:.1}", per_ms(SYNC_N, sync_wall))),
                    ]),
                ),
                (
                    "checkpoint",
                    object(&[
                        ("tape_events", TOTAL.to_string()),
                        ("checkpoint_every", CKPT_EVERY.to_string()),
                        ("full_check_ms", full_check.to_string()),
                        ("seeded_check_ms", seeded_check.to_string()),
                        ("resumed_at", resumed_at.to_string()),
                        ("replayed", replayed.to_string()),
                        ("speedup", format!("{ckpt_speedup:.2}")),
                    ]),
                ),
            ],
        );
    }
}

/// Connection-count sweep: C concurrent sessions over TCP on the epoll
/// reactor. Every run's close verdicts are asserted against the offline
/// oracle inside the timed run (the close round trip is the barrier),
/// and a sampler thread records the process's peak thread count and RSS
/// from `/proc/self/status` — the reactor holds a fixed pool of threads
/// whatever C is, which every C = 1024 run asserts. Each run starts and
/// stops its own server, and the sample includes both.
fn server_conns(json: Option<&Path>) {
    use monsem_monitor::TapeEvent;
    use monsem_tape::{serve_tcp_with, Client, MonitorServer, Request, Response, ServerConfig};
    use monsem_tspec::{SpecMonitor, TapeOutcome};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
    use std::sync::Arc;

    const SPEC: &str = "always(post(req) => value >= 0)";
    /// Events per point at C = 1; higher C splits this across
    /// connections (floored so every connection still does real work).
    const TOTAL: usize = 65_536;
    const MIN_PER_CONN: usize = 64;
    const CONNS: &[usize] = &[1, 64, 256, 1024];
    const DRIVERS: usize = 8;
    const IO_THREADS: usize = 2;

    let shards = ServerConfig::default().shards;
    header(&format!(
        "Server connection scaling: C concurrent sessions, epoll reactor with {IO_THREADS} I/O threads\n\
         host_cpus = {}; every run's close verdicts are asserted against the offline oracle\n\
         inside the timed run",
        host_cpus()
    ));

    /// Peak `Threads:` and `VmRSS:` (kB) seen in `/proc/self/status`
    /// every 5 ms until `stop` fires or hangs up. Records nothing where
    /// procfs is absent.
    fn sample_status(stop: Receiver<()>, threads: &AtomicU64, rss: &AtomicU64) {
        loop {
            if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
                for line in status.lines() {
                    if let Some(v) = line.strip_prefix("Threads:") {
                        if let Ok(n) = v.trim().parse::<u64>() {
                            threads.fetch_max(n, Ordering::Relaxed);
                        }
                    } else if let Some(v) = line.strip_prefix("VmRSS:") {
                        if let Ok(kb) = v.trim().trim_end_matches("kB").trim().parse::<u64>() {
                            rss.fetch_max(kb, Ordering::Relaxed);
                        }
                    }
                }
            }
            if !matches!(
                stop.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            ) {
                return;
            }
        }
    }

    fn connect_retrying(addr: std::net::SocketAddr) -> Client<TcpStream> {
        // At C = 1024 the accept loop can briefly lag the SYN flood;
        // a couple of retries absorb it without hiding real failures.
        for _ in 0..3 {
            if let Ok(c) = Client::connect_tcp(addr) {
                return c;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        Client::connect_tcp(addr).expect("connect after retries")
    }

    /// One point's workload: the events every connection sends, and the
    /// oracle's verdict on them.
    struct Point {
        conns: usize,
        events: Vec<TapeEvent>,
        oracle_earliest: Option<u64>,
        oracle_violated: bool,
    }

    /// One run of a point on a fresh server: (peak threads, peak RSS in
    /// kB).
    fn run_point(point: &Point) -> (u64, u64) {
        let (conns, per_conn) = (point.conns, point.events.len());
        let chunk = per_conn.min(1024);
        let server = Arc::new(MonitorServer::start(ServerConfig::default()));
        let handle = serve_tcp_with(Arc::clone(&server), "127.0.0.1:0", IO_THREADS)
            .expect("bind sweep listener");
        let addr = handle.addr().expect("tcp listener has an address");

        let peak_threads = AtomicU64::new(0);
        let peak_rss = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let (stop, stopped) = channel();
            scope.spawn(|| sample_status(stopped, &peak_threads, &peak_rss));
            std::thread::scope(|run| {
                for d in 0..DRIVERS.min(conns) {
                    run.spawn(move || {
                        // Driver d owns every session ≡ d (mod drivers)
                        // and keeps all of them in flight at once,
                        // interleaving one chunk per session per round.
                        let drivers = DRIVERS.min(conns);
                        let mine: Vec<u64> = (d as u64..conns as u64).step_by(drivers).collect();
                        let mut clients: Vec<Client<TcpStream>> = mine
                            .iter()
                            .map(|&session| {
                                let mut c = connect_retrying(addr);
                                let resp = c
                                    .request(&Request::Open {
                                        session,
                                        enforcing: false,
                                        spec: SPEC.to_string(),
                                        stream: None,
                                    })
                                    .expect("open");
                                assert!(matches!(resp, Response::Ok), "open: {resp:?}");
                                c
                            })
                            .collect();
                        for at in (0..per_conn).step_by(chunk) {
                            let slice = &point.events[at..(at + chunk).min(per_conn)];
                            for (k, c) in clients.iter_mut().enumerate() {
                                c.send_batch(mine[k], slice).expect("send");
                            }
                        }
                        for (k, c) in clients.iter_mut().enumerate() {
                            let resp = c
                                .request(&Request::Close { session: mine[k] })
                                .expect("close");
                            let v = match resp {
                                Response::Verdict(v) => v,
                                other => panic!("close: {other:?}"),
                            };
                            assert_eq!(v.ingested, per_conn as u64, "events lost in flight");
                            assert_eq!(
                                v.earliest_violation, point.oracle_earliest,
                                "verdict drifted"
                            );
                            assert_eq!(
                                v.violation.is_some(),
                                point.oracle_violated,
                                "verdict drifted"
                            );
                        }
                    });
                }
            });
            drop(stop);
        });

        handle.stop();
        server.shutdown();
        (
            peak_threads.load(Ordering::Relaxed),
            peak_rss.load(Ordering::Relaxed),
        )
    }

    let ann = Annotation::label("req");
    let points: Vec<Point> = CONNS
        .iter()
        .map(|&conns| {
            let per_conn = (TOTAL / conns).max(MIN_PER_CONN);
            // One shared workload per point, violation on a late step so
            // earliest-violation tracking is paid for on every session.
            let violate_at = per_conn as u64 - 2;
            let events: Vec<TapeEvent> = (0..per_conn)
                .map(|i| {
                    let v = if i as u64 == violate_at {
                        -1
                    } else {
                        (i % 97) as i64
                    };
                    TapeEvent::post(&ann, &Value::Int(v), i as u64)
                })
                .collect();
            let oracle = SpecMonitor::new("oracle", SPEC)
                .unwrap()
                .check_tape(events.iter());
            let oracle_violated = matches!(oracle.outcome, TapeOutcome::Violated(_));
            assert!(oracle_violated, "the workload must exercise violations");
            Point {
                conns,
                events,
                oracle_earliest: oracle.earliest_violation,
                oracle_violated,
            }
        })
        .collect();

    // Peak threads and RSS per point: the maxima over every run.
    let mut peaks = vec![(0u64, 0u64); points.len()];
    let rows: Vec<Row> = points
        .iter()
        .zip(&mut peaks)
        .map(|(point, peak)| -> Row {
            Box::new(move || {
                let (threads, rss) = run_point(point);
                // The reactor's headline claim: I/O threads stay bounded
                // at C = 1024 instead of growing with C. Everything else
                // in the process (shards, drivers, sampler, main) is a
                // small constant.
                if point.conns == 1024 {
                    let bound = (IO_THREADS + shards + DRIVERS + 8) as u64;
                    assert!(
                        threads <= bound,
                        "reactor thread count {threads} exceeds bound {bound} at C=1024"
                    );
                }
                *peak = (peak.0.max(threads), peak.1.max(rss));
            })
        })
        .collect();
    let times = measure(rows);

    let backend = format!("reactor:{IO_THREADS}");
    let mut rows: Vec<String> = Vec::new();
    for ((point, t), (threads, rss)) in points.iter().zip(&times).zip(&peaks) {
        let (conns, per_conn) = (point.conns, point.events.len());
        let total_events = conns * per_conn;
        let epms = total_events as f64 / t.q50;
        println!(
            "{backend:<10} C={conns:<5} {per_conn:>6} ev/conn   {} [{}, {}]   ({epms:>7.0} events/ms, peak {threads} threads, {rss} kB RSS)",
            ms(t.q50),
            ms(t.q10),
            ms(t.q90)
        );
        rows.push(object(&[
            ("backend", quoted(&backend)),
            ("conns", conns.to_string()),
            ("events_per_conn", per_conn.to_string()),
            ("total_events", total_events.to_string()),
            ("wall_ms", t.to_string()),
            ("events_per_ms", format!("{epms:.1}")),
            ("peak_threads", threads.to_string()),
            ("peak_rss_kb", rss.to_string()),
        ]));
    }

    if let Some(dir) = json {
        write_snapshot(
            dir,
            "BENCH_server_conns.json",
            "server_conns",
            &[
                ("shards", shards.to_string()),
                ("io_threads", IO_THREADS.to_string()),
                ("drivers", DRIVERS.to_string()),
                ("spec", quoted(SPEC)),
                (
                    "verdicts_asserted_against_offline_oracle",
                    "true".to_string(),
                ),
                ("points", array(&rows)),
            ],
        );
    }
}

/// Stream-monitor throughput vs window count and width, plus the
/// crate's headline static claim: after `initial_state()` the evaluator
/// never touches the heap. The counting [`std::alloc::GlobalAlloc`] wrapper
/// installed at the top of this binary verifies the claim on every
/// variant *before* anything is timed — a regression that starts
/// allocating per event fails the table, not just slows it down.
fn stream(json: Option<&Path>) {
    use monsem_monitor::tape::TapePhase;
    use monsem_monitor::Outcome;
    use monsem_stream::{EvView, StreamMonitor, StreamState};

    header(
        "Stream monitors: events/ms vs window count and width\n\
         expectation: O(1) amortized per event (monotonic deques, paged time panes);\n\
         throughput degrades gently with stream count, not with window width;\n\
         steady state allocation-free (asserted via a counting global allocator)",
    );

    // A deterministic event mix: three labels, bounded values, no rand
    // dependency. ~half the events match each windowed predicate.
    const N: usize = 50_000;
    let names = ["a", "b", "c"];
    let events: Vec<(&str, Option<i64>)> = (0..N)
        .map(|i| {
            let name = names[(i * 7 + 3) % names.len()];
            let int = if i % 4 == 3 {
                None
            } else {
                Some(((i as i64).wrapping_mul(31) % 201) - 100)
            };
            (name, int)
        })
        .collect();

    // Feeds every event through the live hook path with logical time
    // (no wall clock, no tape): exactly what a wall-clock-less embedded
    // monitor pays per event.
    let feed = &|m: &StreamMonitor, mut s: StreamState| -> StreamState {
        for &(name, int) in &events {
            let ev = EvView {
                phase: TapePhase::Post,
                name,
                int,
                unsorted: false,
            };
            s = match m.step_event(s, &ev, None, None) {
                Outcome::Continue(s) => s,
                Outcome::Abort { state, .. } => state,
            };
        }
        s
    };

    // (label, window, spec source) per measured variant.
    let mut specs: Vec<(String, String, String)> = Vec::new();
    // Axis 1: window *count* at a fixed width — alternating sum/count
    // aggregates plus one never-firing trigger, so trigger evaluation
    // is on the measured path.
    for n in [1usize, 2, 4, 8] {
        let mut src = String::new();
        for i in 0..n {
            let agg = if i % 2 == 0 { "sum" } else { "count" };
            let pred = if i % 2 == 0 { "post(a)" } else { "post(b)" };
            src.push_str(&format!("stream s{i} = {agg}({pred}) over window(256)\n"));
        }
        src.push_str("trigger overload = s0 > 100000000\n");
        specs.push((format!("count/sum windows x{n}"), "256".to_string(), src));
    }
    // Axis 2: window *width* for the worst-case aggregates — sliding
    // min/max ride monotonic deques, whose amortized cost must not grow
    // with the width.
    for w in [16usize, 256, 4096] {
        let src = format!(
            "stream lo = min(post(a)) over window({w})\n\
             stream hi = max(post(a)) over window({w})\n\
             stream spread = hi - lo\n\
             trigger wild = spread > 100000000\n"
        );
        specs.push((format!("min/max deques w={w}"), w.to_string(), src));
    }
    // Axis 3: time windows (paged panes) with a deadline on the path.
    // Logical time advances 1 ms per event, so panes rotate constantly.
    specs.push((
        "time panes + deadline".to_string(),
        "1000 ms".to_string(),
        "stream load = rate(post(_)) over window(1000 ms)\n\
         stream mean = avg(post(a)) over window(500 ms)\n\
         trigger hot = load > 100000000\n\
         deadline post(b) every 60000 ms\n"
            .to_string(),
    ));

    let mut variants: Vec<(StreamMonitor, Option<StreamState>)> = specs
        .iter()
        .map(|(label, _, src)| {
            let m = StreamMonitor::new(label, src).expect("bench spec compiles");
            // Warm one full pass so rings and deques reach steady state,
            // then assert the next pass performs zero heap allocations.
            let s = feed(&m, m.initial_state());
            let before = ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed);
            let s = feed(&m, s);
            let after = ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(
                after - before,
                0,
                "steady-state stream evaluation allocated ({label})"
            );
            (m, Some(s))
        })
        .collect();
    let rows: Vec<Row> = variants
        .iter_mut()
        .map(|(m, state)| -> Row {
            Box::new(move || {
                let s = state.take().expect("state is threaded through");
                *state = Some(feed(m, s));
            })
        })
        .collect();
    let times = measure(rows);

    let mut points: Vec<String> = Vec::new();
    for (((label, window, _), (m, _)), t) in specs.iter().zip(&variants).zip(&times) {
        let memory_bytes = m.spec().memory().total_bytes;
        let streams = m.spec().streams().len();
        let events_per_ms = N as f64 / t.q50;
        println!(
            "{label:<26} {streams} stream(s), window {window:<9} {memory_bytes:>7} bytes   {events_per_ms:>8.0} events/ms"
        );
        points.push(object(&[
            ("label", quoted(label)),
            ("streams", streams.to_string()),
            ("window", quoted(window)),
            ("memory_bytes", memory_bytes.to_string()),
            ("pass_ms", t.to_string()),
            ("events_per_ms", format!("{events_per_ms:.1}")),
        ]));
    }
    println!("\nsteady state: 0 heap allocations across all variants (asserted)");

    if let Some(dir) = json {
        write_snapshot(
            dir,
            "BENCH_stream.json",
            "stream",
            &[
                (
                    "workload",
                    quoted(&format!(
                        "synthetic post-event mix, {N} events per pass, logical time"
                    )),
                ),
                ("steady_state_allocations", "0".to_string()),
                ("points", array(&points)),
            ],
        );
    }
}

/// E8: the Figure 10 artifact ladder, including the *source-level*
/// instrumented program and its further specialization.
fn futamura(_: Option<&Path>) {
    header(
        "E8 (Figure 10): the artifact ladder for fac 12 with a step counter\n\
         level 0/1: monitored interpreter; level 2: instrumented program;\n\
         level 3: instrumented program specialized w.r.t. its static parts",
    );
    let program = programs::fac_ab(12);
    let monitor = step_counter();

    let instrumented = instrument(&program, &monitor);
    let optimized = instrument_optimized(&program, &monitor, &SpecializeOptions::default());
    println!("annotated program:          {}", programs::fac_ab(5));
    println!(
        "instrumented size:          {} AST nodes",
        instrumented.size()
    );
    println!("after specialization:       {} AST nodes", optimized.size());
    println!("specialized program:        {optimized}");

    let division = bta::analyze(&instrumented, &[]);
    let (stat, dyn_) = division.counts();
    println!("BTA on instrumented program: {stat} static points, {dyn_} dynamic points");

    let compiled_instrumented = compile(&instrumented).expect("compiles");
    let times: [Spread; 3] = measure(vec![
        Box::new(|| {
            eval(&instrumented).unwrap();
        }),
        Box::new(|| {
            compiled_instrumented.run().unwrap();
        }),
        Box::new(|| {
            eval(&optimized).unwrap();
        }),
    ])
    .try_into()
    .expect("one spread per row");
    let [interpreted, compiled, specialized] = times.map(|t| t.q50);
    println!("instrumented, interpreted:  {}", ms(interpreted));
    println!("instrumented, compiled:     {}", ms(compiled));
    println!("specialized (level 3):      {}", ms(specialized));
}
