//! Regenerates every table and figure of the paper's evaluation as plain
//! text (see EXPERIMENTS.md for the index and recorded results).
//!
//! ```text
//! cargo run --release -p monsem-bench --bin paper_tables -- \
//!     [--table all|examples|spec-levels|fig11|futamura|tspec|tspec_levels|tiered|parallel|tape|server-scale|server-conns|stream] [--json <dir>]
//! ```
//!
//! With `--json <dir>`, the timed tables additionally write
//! machine-readable snapshots — `BENCH_spec_levels.json` (E6),
//! `BENCH_fig11.json` (E7), `BENCH_tspec.json` (tspec overhead),
//! `BENCH_tspec_levels.json` (the three §9.1 levels for one temporal
//! spec), `BENCH_tiered.json` (profile-guided tiering vs the fixed
//! levels), `BENCH_parallel.json` (fork-join speedups),
//! `BENCH_tape.json` (event-tape recording, serialization, offline
//! check, and server ingest), `BENCH_server_scale.json` (batched
//! pipelined ingest over real sockets vs producer count, a batch-size
//! ablation against one synchronous request per event, and
//! checkpoint-seeded vs full-replay check time),
//! `BENCH_server_conns.json` (concurrent-connection sweep on the epoll
//! reactor, median of interleaved rounds, with peak thread count and
//! RSS per point) and
//! `BENCH_stream.json` (stream-monitor throughput vs window count and
//! width, with the allocation-free steady state asserted by a counting
//! allocator) — into `<dir>`, so the performance trajectory can be
//! tracked across revisions.
//!
//! Absolute times are machine-dependent; the *shape* (who wins, by what
//! factor, linearity in monitoring activity) is what reproduces the paper.

use monsem_bench::{
    labelled_countdown, par_fib, par_merge_sort, trace_density_program, traced_fib,
};
use monsem_core::machine::{eval_with, EvalOptions};
use monsem_core::{programs, Env};
use monsem_monitor::machine::eval_monitored_with;
use monsem_monitor::{eval_parallel_with, Monitor, ParOptions};
use monsem_monitors::{Collecting, Profiler, Tracer, UnsortedDemon};
use monsem_pe::bta;
use monsem_pe::engine::{compile, compile_monitored};
use monsem_pe::instrument::{instrument, instrument_optimized, step_counter};
use monsem_pe::pipeline::{measure, measure_min, relative_percent};
use monsem_pe::specialize::SpecializeOptions;
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let table = args
        .iter()
        .position(|a| a == "--table")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
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

    match table.as_str() {
        "examples" => examples(),
        "spec-levels" => spec_levels(json),
        "fig11" => fig11(json),
        "futamura" => futamura(),
        "tspec" => tspec_overhead(json),
        "tspec_levels" | "tspec-levels" => tspec_levels(json),
        "tiered" => tiered(json),
        "parallel" => parallel(json),
        "tape" => tape(json),
        "server-scale" | "server_scale" => server_scale(json),
        "server-conns" | "server_conns" => server_conns(json),
        "stream" => stream(json),
        "all" => {
            examples();
            spec_levels(json);
            fig11(json);
            futamura();
            tspec_overhead(json);
            tspec_levels(json);
            tiered(json);
            parallel(json);
            tape(json);
            server_scale(json);
            server_conns(json);
            stream(json);
        }
        other => {
            eprintln!(
                "unknown table `{other}`; try examples, spec-levels, fig11, futamura, tspec, tspec_levels, tiered, parallel, tape, server-scale, server-conns, stream, all"
            );
            std::process::exit(2);
        }
    }
}

/// Milliseconds with enough digits for a JSON snapshot.
fn json_ms(d: Duration) -> String {
    format!("{:.6}", d.as_secs_f64() * 1e3)
}

fn write_json(dir: &Path, file: &str, body: String) {
    std::fs::create_dir_all(dir).expect("create --json directory");
    let path = dir.join(file);
    std::fs::write(&path, body).expect("write JSON snapshot");
    println!("\nwrote {}", path.display());
}

fn header(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// E1–E5: the paper's worked examples, verbatim.
fn examples() {
    header("E1 (§5): A/B profiler on fac 5  —  paper: σ = ⟨1, 5⟩");
    let (v, s) = eval_monitored_with_defaults(&programs::fac_ab(5), &monsem_monitors::AbProfiler);
    println!("answer = {v}");
    println!("σ = {}", monsem_monitors::AbProfiler.render_state(&s));

    header("E2 (§8): profiler on fac 3 via mul  —  paper: [fac ↦ 4, mul ↦ 3]");
    let p = Profiler::new();
    let (v, s) = eval_monitored_with_defaults(&programs::fac_mul_profiled(3), &p);
    println!("answer = {v}");
    println!("σ = {}", p.render_state(&s));

    header("E3 (§8): tracer on fac 3 via mul  —  paper: indented transcript");
    let t = Tracer::new();
    let (v, s) = eval_monitored_with_defaults(&programs::fac_mul_traced(3), &t);
    println!("{}", t.render_state(&s));
    println!("answer = {v}");

    header("E4 (§8): unsorted-list demon  —  paper: σ = {l1, l3}");
    let d = UnsortedDemon::new();
    let (v, s) = eval_monitored_with_defaults(&programs::inclist_demon(), &d);
    println!("answer = {v}");
    println!("σ = {}", d.render_state(&s));

    header("E5 (§8): collecting monitor on fac 3  —  paper: [test ↦ {true,false}, n ↦ {1,2,3}]");
    let c = Collecting::new();
    let (v, s) = eval_monitored_with_defaults(&programs::collecting_fac(3), &c);
    println!("answer = {v}");
    println!("σ = {}", c.render_state(&s));
}

fn eval_monitored_with_defaults<M: Monitor>(
    e: &monsem_syntax::Expr,
    m: &M,
) -> (monsem_core::Value, M::State) {
    eval_monitored_with(
        e,
        &Env::empty(),
        m,
        m.initial_state(),
        &EvalOptions::default(),
    )
    .expect("example evaluates")
}

const WARMUP: u32 = 3;
const RUNS: u32 = 15;
/// The tspec-levels table compares overheads that differ by tens of
/// microseconds, so it takes the minimum of more runs (see
/// [`measure_min`]) instead of the median of [`RUNS`].
const TSPEC_RUNS: u32 = 25;

fn ms(d: Duration) -> String {
    format!("{:>9.3} ms", d.as_secs_f64() * 1e3)
}

/// E6: the §9.1 measurements.
///
/// The paper's program traces a modest number of calls relative to its
/// total work (its tracer costs only ≈ 11%, and Figure 11 shows cost is
/// linear in trace volume), so the main table uses a workload where ~10%
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
    let program = trace_density_program(4000, 800);
    let erased = program.erase_annotations();
    let tracer = Tracer::new();
    let opts = EvalOptions::default();
    let compiled_std = compile(&erased).expect("compiles");
    let compiled_mon = compile_monitored(&program, &tracer).expect("compiles");

    let t_interp = measure(
        || {
            eval_with(&erased, &Env::empty(), &opts).unwrap();
        },
        WARMUP,
        RUNS,
    );
    let t_monitored = measure(
        || {
            eval_monitored_with(
                &program,
                &Env::empty(),
                &tracer,
                tracer.initial_state(),
                &opts,
            )
            .unwrap();
        },
        WARMUP,
        RUNS,
    );
    let t_compiled_std = measure(
        || {
            compiled_std.run().unwrap();
        },
        WARMUP,
        RUNS,
    );
    let t_compiled_mon = measure(
        || {
            compiled_mon.run_monitored(&tracer, &opts).unwrap();
        },
        WARMUP,
        RUNS,
    );

    println!("standard interpreter            {}", ms(t_interp));
    println!(
        "monitored interpreter (tracer)  {}   ({} than standard interpreter)",
        ms(t_monitored),
        relative_percent(t_monitored, t_interp)
    );
    println!(
        "instrumented program (compiled) {}   ({} than monitored interpreter, {} than standard interpreter)",
        ms(t_compiled_mon),
        relative_percent(t_compiled_mon, t_monitored),
        relative_percent(t_compiled_mon, t_interp)
    );
    println!("  — compiled, no monitor       {}", ms(t_compiled_std));
    let main_times = (t_interp, t_monitored, t_compiled_mon, t_compiled_std);

    println!();
    println!("fully-traced variant (every call traced — dynamic tracing dominates, cf. §9.1's");
    println!("remark that the tracer's stream operations are dynamic):");
    let program = traced_fib(17);
    let erased = program.erase_annotations();
    let compiled_mon = compile_monitored(&program, &tracer).expect("compiles");
    let t_interp = measure(
        || {
            eval_with(&erased, &Env::empty(), &opts).unwrap();
        },
        WARMUP,
        RUNS,
    );
    let t_monitored = measure(
        || {
            eval_monitored_with(
                &program,
                &Env::empty(),
                &tracer,
                tracer.initial_state(),
                &opts,
            )
            .unwrap();
        },
        WARMUP,
        RUNS,
    );
    let t_compiled_mon = measure(
        || {
            compiled_mon.run_monitored(&tracer, &opts).unwrap();
        },
        WARMUP,
        RUNS,
    );
    println!("standard interpreter            {}", ms(t_interp));
    println!(
        "monitored interpreter (tracer)  {}   ({} than standard interpreter)",
        ms(t_monitored),
        relative_percent(t_monitored, t_interp)
    );
    println!(
        "instrumented program (compiled) {}   ({} than monitored interpreter)",
        ms(t_compiled_mon),
        relative_percent(t_compiled_mon, t_monitored)
    );

    if let Some(dir) = json {
        let body = format!(
            "{{\n  \
               \"table\": \"spec_levels\",\n  \
               \"unit\": \"ms\",\n  \
               \"statistic\": \"median of {RUNS} after {WARMUP} warmups\",\n  \
               \"main\": {{\n    \
                 \"workload\": {{ \"iterations\": 4000, \"traced\": 800 }},\n    \
                 \"standard_interpreter\": {},\n    \
                 \"monitored_interpreter\": {},\n    \
                 \"instrumented_compiled\": {},\n    \
                 \"compiled_no_monitor\": {}\n  \
               }},\n  \
               \"fully_traced\": {{\n    \
                 \"workload\": \"traced_fib(17)\",\n    \
                 \"standard_interpreter\": {},\n    \
                 \"monitored_interpreter\": {},\n    \
                 \"instrumented_compiled\": {}\n  \
               }}\n}}\n",
            json_ms(main_times.0),
            json_ms(main_times.1),
            json_ms(main_times.2),
            json_ms(main_times.3),
            json_ms(t_interp),
            json_ms(t_monitored),
            json_ms(t_compiled_mon),
        );
        write_json(dir, "BENCH_spec_levels.json", body);
    }
}

/// E7: Figure 11.
fn fig11(json: Option<&Path>) {
    header(
        "E7 (Figure 11): run time vs number of trace printouts (2000 iterations)\n\
         paper: standard interpreter flat; monitored interpreter linear in trace activity",
    );
    let tracer = Tracer::new();
    let opts = EvalOptions::default();
    let mut points: Vec<String> = Vec::new();
    println!("{:>8} {:>14} {:>16}", "traced", "standard", "monitored");
    for traced in [0, 250, 500, 1000, 1500, 2000] {
        let program = trace_density_program(2000, traced);
        let erased = program.erase_annotations();
        let t_std = measure(
            || {
                eval_with(&erased, &Env::empty(), &opts).unwrap();
            },
            WARMUP,
            RUNS,
        );
        let t_mon = measure(
            || {
                eval_monitored_with(
                    &program,
                    &Env::empty(),
                    &tracer,
                    tracer.initial_state(),
                    &opts,
                )
                .unwrap();
            },
            WARMUP,
            RUNS,
        );
        println!("{:>8} {} {}", traced, ms(t_std), ms(t_mon));
        points.push(format!(
            "    {{ \"traced\": {traced}, \"standard\": {}, \"monitored\": {} }}",
            json_ms(t_std),
            json_ms(t_mon),
        ));
    }
    if let Some(dir) = json {
        let body = format!(
            "{{\n  \
               \"table\": \"fig11\",\n  \
               \"unit\": \"ms\",\n  \
               \"statistic\": \"median of {RUNS} after {WARMUP} warmups\",\n  \
               \"iterations\": 2000,\n  \
               \"points\": [\n{}\n  ]\n}}\n",
            points.join(",\n"),
        );
        write_json(dir, "BENCH_fig11.json", body);
    }
}

/// Temporal-spec overhead (EXPERIMENTS.md §5¾): compiled-automaton
/// monitors on the hook-dense `labelled_countdown` workload, so the
/// recorded tspec numbers regenerate from the same command as every
/// other table (previously criterion-only).
fn tspec_overhead(json: Option<&Path>) {
    header(
        "Tspec overhead: compiled-automaton monitors on labelled_countdown(2000)\n\
         expectation: one letter classification + one table lookup per event —\n\
         same order as the hand-written demon, linear in event count",
    );
    use monsem_pe::SpecializedSpec;
    use monsem_tspec::SpecMonitor;
    let program = labelled_countdown(2000);
    let erased = program.erase_annotations();
    let opts = EvalOptions::default();
    let t_std = measure(
        || {
            eval_with(&erased, &Env::empty(), &opts).unwrap();
        },
        WARMUP,
        RUNS,
    );
    let safety = SpecMonitor::new("safety", "always(post(B) => value >= 0)").unwrap();
    let t_safety = measure(
        || {
            eval_monitored_with(
                &program,
                &Env::empty(),
                &safety,
                safety.initial_state(),
                &opts,
            )
            .unwrap();
        },
        WARMUP,
        RUNS,
    );
    let specialized = SpecializedSpec::new(
        &program,
        SpecMonitor::new("safety", "always(post(B) => value >= 0)").unwrap(),
    );
    let t_specialized = measure(
        || {
            eval_monitored_with(
                &program,
                &Env::empty(),
                &specialized,
                specialized.initial_state(),
                &opts,
            )
            .unwrap();
        },
        WARMUP,
        RUNS,
    );
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
        let body = format!(
            "{{\n  \
               \"table\": \"tspec_overhead\",\n  \
               \"unit\": \"ms\",\n  \
               \"statistic\": \"median of {RUNS} after {WARMUP} warmups\",\n  \
               \"workload\": \"labelled_countdown(2000)\",\n  \
               \"spec\": \"always(post(B) => value >= 0)\",\n  \
               \"standard_interpreter\": {},\n  \
               \"tspec_safety\": {},\n  \
               \"tspec_specialized\": {}\n}}\n",
            json_ms(t_std),
            json_ms(t_safety),
            json_ms(t_specialized),
        );
        write_json(dir, "BENCH_tspec.json", body);
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
        let (_, s1) = eval_monitored_with(
            &program,
            &Env::empty(),
            &monitor,
            monitor.initial_state(),
            &opts,
        )
        .expect("level 1 evaluates");
        match compiled_res.run().expect("level 3 evaluates") {
            monsem_core::Value::Pair(_, state) => {
                assert_eq!(*state, monsem_core::Value::Int(i64::from(s1.state)));
                assert!(spec_verdict(monitor.automaton(), s1.state).is_ok());
            }
            other => panic!("residual program must return a pair, got {other}"),
        }

        let t_interp = measure_min(
            || {
                eval_with(&erased, &Env::empty(), &opts).unwrap();
            },
            WARMUP,
            TSPEC_RUNS,
        );
        let t_level1 = measure_min(
            || {
                eval_monitored_with(
                    &program,
                    &Env::empty(),
                    &monitor,
                    monitor.initial_state(),
                    &opts,
                )
                .unwrap();
            },
            WARMUP,
            TSPEC_RUNS,
        );
        let t_compiled = measure_min(
            || {
                compiled_std.run().unwrap();
            },
            WARMUP,
            TSPEC_RUNS,
        );
        let t_level2 = measure_min(
            || {
                compiled_mon.run_monitored(&specialized, &opts).unwrap();
            },
            WARMUP,
            TSPEC_RUNS,
        );
        let t_level3 = measure_min(
            || {
                compiled_res.run().unwrap();
            },
            WARMUP,
            TSPEC_RUNS,
        );
        let ovh2 = t_level2.saturating_sub(t_compiled);
        let ovh3 = t_level3.saturating_sub(t_compiled);
        println!(
            "{:>6} {} {} {} {} {} {} {}",
            n,
            ms(t_interp),
            ms(t_level1),
            ms(t_compiled),
            ms(t_level2),
            ms(t_level3),
            ms(ovh2),
            ms(ovh3)
        );
        points.push(format!(
            "    {{ \"n\": {n}, \"standard_interpreter\": {}, \"level1_interpreted_spec\": {}, \
             \"compiled_no_monitor\": {}, \"level2_specialized_sites\": {}, \
             \"level3_self_monitoring\": {}, \"overhead_level2\": {}, \"overhead_level3\": {} }}",
            json_ms(t_interp),
            json_ms(t_level1),
            json_ms(t_compiled),
            json_ms(t_level2),
            json_ms(t_level3),
            json_ms(ovh2),
            json_ms(ovh3),
        ));
    }
    if let Some(dir) = json {
        let body = format!(
            "{{\n  \
               \"table\": \"tspec_levels\",\n  \
               \"unit\": \"ms\",\n  \
               \"statistic\": \"min of {TSPEC_RUNS} after {WARMUP} warmups\",\n  \
               \"workload\": \"labelled_countdown(n)\",\n  \
               \"spec\": \"{SPEC}\",\n  \
               \"levels\": {{\n    \
                 \"1\": \"interpreted SpecMonitor (alphabet dispatch per event)\",\n    \
                 \"2\": \"SpecializedSpec on the compiled engine (per-site letters)\",\n    \
                 \"3\": \"instrument_spec residual program (DFA inlined, no monitor object)\"\n  \
               }},\n  \
               \"points\": [\n{}\n  ]\n}}\n",
            points.join(",\n"),
        );
        write_json(dir, "BENCH_tspec_levels.json", body);
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
        let (answer, s1) = eval_monitored_with(
            &program,
            &Env::empty(),
            &monitor,
            monitor.initial_state(),
            &opts,
        )
        .expect("level 1 evaluates");
        let first = session.run().expect("profiled run evaluates");
        assert_eq!(first.value, answer);
        assert_eq!(first.state, s1.state);
        assert_eq!(session.stats().promotions, 1, "the loop must be hot");
        let steady = session.run().expect("residual run evaluates");
        assert_eq!(steady.outcome, TierOutcome::Residual);
        assert_eq!(steady.value, answer);
        assert_eq!(steady.state, s1.state);

        let t_level1 = measure_min(
            || {
                eval_monitored_with(
                    &program,
                    &Env::empty(),
                    &monitor,
                    monitor.initial_state(),
                    &opts,
                )
                .unwrap();
            },
            WARMUP,
            TSPEC_RUNS,
        );
        let t_level2 = measure_min(
            || {
                compiled_mon.run_monitored(&specialized, &opts).unwrap();
            },
            WARMUP,
            TSPEC_RUNS,
        );
        let t_level3 = measure_min(
            || {
                compiled_res.run().unwrap();
            },
            WARMUP,
            TSPEC_RUNS,
        );
        let t_tiered = measure_min(
            || {
                assert_eq!(session.run().unwrap().outcome, TierOutcome::Residual);
            },
            WARMUP,
            TSPEC_RUNS,
        );
        let vs_l2 = t_tiered.as_secs_f64() / t_level2.as_secs_f64();
        let vs_l3 = t_tiered.as_secs_f64() / t_level3.as_secs_f64();
        println!(
            "{:>6} {} {} {} {} {:>9.3}× {:>9.3}×",
            n,
            ms(t_level1),
            ms(t_level2),
            ms(t_level3),
            ms(t_tiered),
            vs_l2,
            vs_l3
        );
        points.push(format!(
            "    {{ \"n\": {n}, \"level1_interpreted_spec\": {}, \"level2_specialized_sites\": {}, \
             \"level3_self_monitoring\": {}, \"tiered_steady_state\": {}, \
             \"tiered_over_level2\": {vs_l2:.4}, \"tiered_over_level3\": {vs_l3:.4} }}",
            json_ms(t_level1),
            json_ms(t_level2),
            json_ms(t_level3),
            json_ms(t_tiered),
        ));
    }
    if let Some(dir) = json {
        let body = format!(
            "{{\n  \
               \"table\": \"tiered\",\n  \
               \"unit\": \"ms\",\n  \
               \"statistic\": \"min of {TSPEC_RUNS} after {WARMUP} warmups\",\n  \
               \"workload\": \"labelled_countdown(n)\",\n  \
               \"spec\": \"{SPEC}\",\n  \
               \"policy\": \"hot_threshold 64; steady state measured after promotion\",\n  \
               \"laziness\": {{ \"cold_runs\": {cold_runs}, \"residuals_compiled\": 0 }},\n  \
               \"points\": [\n{}\n  ]\n}}\n",
            points.join(",\n"),
        );
        write_json(dir, "BENCH_tiered.json", body);
    }
}

/// Fork-join speedup table (BENCH_parallel): profiler-monitored
/// `par_fib` / `par_merge_sort` workloads across a thread axis, each
/// point the median of 3 runs, compared against the *sequential*
/// monitored machine on the identical program. The merge-law proptests
/// (`tests/parallel_fork_join.rs`) pin the states bit-for-bit; this
/// table records what the parallelism buys in wall-clock.
fn parallel(json: Option<&Path>) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    header(&format!(
        "Fork-join parallel evaluation: profiler-monitored workloads, median of 3\n\
         expectation: ≥ 2× at 4 threads on 8 independent shards (needs ≥ 4 host\n\
         cores; this host has {host_cpus}); states identical either way",
    ));
    use monsem_monitors::Profiler;
    const PAR_RUNS: u32 = 3;
    let profiler = Profiler::new();
    let opts = EvalOptions::default();
    let threads_axis = [1usize, 2, 4, 8];
    let workloads = [
        ("par_fib(8, 21)", par_fib(8, 21)),
        ("par_merge_sort(8, 220)", par_merge_sort(8, 220)),
    ];
    let mut entries: Vec<String> = Vec::new();
    for (name, program) in &workloads {
        let seq_out = eval_monitored_with(
            program,
            &Env::empty(),
            &profiler,
            profiler.initial_state(),
            &opts,
        )
        .expect("workload evaluates");
        let t_seq = measure(
            || {
                eval_monitored_with(
                    program,
                    &Env::empty(),
                    &profiler,
                    profiler.initial_state(),
                    &opts,
                )
                .unwrap();
            },
            WARMUP,
            PAR_RUNS,
        );
        println!("\n{name}");
        println!("  sequential monitored machine  {}", ms(t_seq));
        let mut points: Vec<String> = Vec::new();
        for &threads in &threads_axis {
            let popts = ParOptions {
                threads,
                eval: opts.clone(),
            };
            let par_out = eval_parallel_with(
                program,
                &Env::empty(),
                &profiler,
                profiler.initial_state(),
                &popts,
            )
            .expect("workload evaluates");
            assert_eq!(seq_out, par_out, "parallel must match sequential exactly");
            let t_par = measure(
                || {
                    eval_parallel_with(
                        program,
                        &Env::empty(),
                        &profiler,
                        profiler.initial_state(),
                        &popts,
                    )
                    .unwrap();
                },
                WARMUP,
                PAR_RUNS,
            );
            let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64();
            println!(
                "  {threads} thread{}                     {}   ({speedup:.2}× vs sequential)",
                if threads == 1 { " " } else { "s" },
                ms(t_par)
            );
            points.push(format!(
                "      {{ \"threads\": {threads}, \"wall_ms\": {}, \"speedup\": {speedup:.3} }}",
                json_ms(t_par)
            ));
        }
        entries.push(format!(
            "    {{\n      \"workload\": \"{name}\",\n      \"sequential_ms\": {},\n      \"points\": [\n{}\n      ]\n    }}",
            json_ms(t_seq),
            points.join(",\n"),
        ));
    }
    if let Some(dir) = json {
        let body = format!(
            "{{\n  \
               \"table\": \"parallel\",\n  \
               \"unit\": \"ms\",\n  \
               \"statistic\": \"median of {PAR_RUNS} after {WARMUP} warmups\",\n  \
               \"monitor\": \"profiler\",\n  \
               \"host_cpus\": {host_cpus},\n  \
               \"machine\": \"monitor::parallel fork-join vs sequential monitored machine\",\n  \
               \"workloads\": [\n{}\n  ]\n}}\n",
            entries.join(",\n"),
        );
        write_json(dir, "BENCH_parallel.json", body);
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
    let program = labelled_countdown(2000);
    let opts = EvalOptions::default();
    let monitor = SpecMonitor::new("safety", SPEC).unwrap();
    let stream = StreamMonitor::new("slo", STREAM).unwrap();

    let t_live = measure(
        || {
            eval_monitored_with(
                &program,
                &Env::empty(),
                &monitor,
                monitor.initial_state(),
                &opts,
            )
            .unwrap();
        },
        WARMUP,
        RUNS,
    );
    let t_record = measure(
        || {
            let mem = MemorySink::new();
            let sink = SharedSink::new(mem.clone());
            record_monitored_with(&program, &Env::empty(), monitor.clone(), &sink, &opts).unwrap();
        },
        WARMUP,
        RUNS,
    );

    // One reference tape for the offline stages.
    let mem = MemorySink::new();
    let sink = SharedSink::new(mem.clone());
    record_monitored_with(&program, &Env::empty(), monitor.clone(), &sink, &opts)
        .expect("workload evaluates");
    let events = mem.take();
    let n_events = events.len();
    let bytes = write_tape(&events);
    let bytes_per_event = bytes.len() as f64 / n_events as f64;

    let t_encode = measure(
        || {
            std::hint::black_box(write_tape(&events));
        },
        WARMUP,
        RUNS,
    );
    let t_decode = measure(
        || {
            std::hint::black_box(read_tape(&bytes).unwrap());
        },
        WARMUP,
        RUNS,
    );
    let t_check = measure(
        || {
            std::hint::black_box(monitor.check_tape(&events));
        },
        WARMUP,
        RUNS,
    );
    let t_stream_check = measure(
        || {
            std::hint::black_box(stream.check_tape(&events));
        },
        WARMUP,
        RUNS,
    );
    // Both specs from the tape's bytes: the owned path decodes into
    // `TapeEvent`s and runs both `check_tape`s; the view path (what
    // `monsem check <tape> <spec> --stream <spec>` runs) decodes views
    // once and folds both specs over them.
    let t_owned_check = measure(
        || {
            let events = read_tape(&bytes).unwrap();
            std::hint::black_box((monitor.check_tape(&events), stream.check_tape(&events)));
        },
        WARMUP,
        RUNS,
    );
    let mut decoder = ViewDecoder::new();
    let t_view_check = measure(
        || {
            let tape = decoder.decode(&bytes).unwrap();
            let mut check = Check::new(monitor.initial_state());
            check.fold(&monitor, tape.events(), &tape);
            let mut stream_check = Check::new(stream.initial_state());
            stream_check.fold(&stream, tape.events(), &tape);
            std::hint::black_box((
                monitor.check_result(check),
                stream.check_result(stream_check),
            ));
        },
        WARMUP,
        RUNS,
    );
    // Server ingest: one full session lifecycle — open, stream in
    // chunks through the sharded bounded queues, close. Includes the
    // per-request round-trips and each chunk's tape encoding (as a
    // socket producer's `send_batch` pays it), i.e. what a producer
    // actually pays.
    const CHUNK: usize = 256;
    let server = MonitorServer::start(ServerConfig::default());
    let mut session = 0u64;
    let t_ingest = measure(
        || {
            session += 1;
            assert!(matches!(
                server.open(session, SPEC, false),
                monsem_tape::Response::Ok
            ));
            for chunk in events.chunks(CHUNK) {
                server.events(session, chunk);
            }
            server.close(session);
        },
        WARMUP,
        RUNS,
    );
    server.shutdown();

    let per_ms = |d: Duration| n_events as f64 / (d.as_secs_f64() * 1e3);
    println!("events on tape                  {n_events:>9}   ({bytes_per_event:.1} bytes/event serialized)");
    println!("live monitored run              {}", ms(t_live));
    println!(
        "recording run (tape sink)       {}   ({} than live)",
        ms(t_record),
        relative_percent(t_record, t_live)
    );
    println!(
        "serialize                       {}   ({:>8.0} events/ms)",
        ms(t_encode),
        per_ms(t_encode)
    );
    println!(
        "deserialize                     {}   ({:>8.0} events/ms)",
        ms(t_decode),
        per_ms(t_decode)
    );
    println!(
        "offline check                   {}   ({:>8.0} events/ms)",
        ms(t_check),
        per_ms(t_check)
    );
    println!(
        "offline stream check            {}   ({:>8.0} events/ms)",
        ms(t_stream_check),
        per_ms(t_stream_check)
    );
    println!(
        "both checks, owned (read_tape)  {}   ({:>8.0} events/ms)",
        ms(t_owned_check),
        per_ms(t_owned_check)
    );
    println!(
        "both checks, views (`check`)    {}   ({:>8.0} events/ms, owned/view {:.2}x)",
        ms(t_view_check),
        per_ms(t_view_check),
        t_owned_check.as_secs_f64() / t_view_check.as_secs_f64()
    );
    println!(
        "server ingest (chunks of {CHUNK})    {}   ({:>8.0} events/ms)",
        ms(t_ingest),
        per_ms(t_ingest)
    );

    if let Some(dir) = json {
        let body = format!(
            "{{\n  \
               \"table\": \"tape\",\n  \
               \"unit\": \"ms\",\n  \
               \"statistic\": \"median of {RUNS} after {WARMUP} warmups\",\n  \
               \"workload\": \"labelled_countdown(2000)\",\n  \
               \"spec\": \"{SPEC}\",\n  \
               \"events\": {n_events},\n  \
               \"bytes_per_event\": {bytes_per_event:.3},\n  \
               \"live_ms\": {},\n  \
               \"record_ms\": {},\n  \
               \"encode_ms\": {},\n  \
               \"decode_ms\": {},\n  \
               \"check_ms\": {},\n  \
               \"check_events_per_ms\": {:.1},\n  \
               \"stream_spec\": \"{}\",\n  \
               \"stream_check_ms\": {},\n  \
               \"owned_check_ms\": {},\n  \
               \"view_check_ms\": {},\n  \
               \"view_check_events_per_ms\": {:.1},\n  \
               \"owned_over_view\": {:.2},\n  \
               \"server_ingest_ms\": {},\n  \
               \"server_events_per_ms\": {:.1}\n}}\n",
            json_ms(t_live),
            json_ms(t_record),
            json_ms(t_encode),
            json_ms(t_decode),
            json_ms(t_check),
            per_ms(t_check),
            STREAM.replace('\n', "\\n"),
            json_ms(t_stream_check),
            json_ms(t_owned_check),
            json_ms(t_view_check),
            per_ms(t_view_check),
            t_owned_check.as_secs_f64() / t_view_check.as_secs_f64(),
            json_ms(t_ingest),
            per_ms(t_ingest),
        );
        write_json(dir, "BENCH_tape.json", body);
    }
}

/// Saturation study for the batched, pipelined ingest path: P
/// producers over real sockets (TCP and Unix), a batch-size ablation
/// against the synchronous per-event protocol, and checkpoint-seeded
/// vs full-replay offline check time. Every timed configuration first
/// proves its verdict identical to the offline oracle — a fast path
/// that changes the answer would be a bug, not a speedup.
fn server_scale(json: Option<&Path>) {
    use monsem_core::Value;
    use monsem_monitor::TapeEvent;
    use monsem_syntax::Annotation;
    use monsem_tape::{
        check_tape_from, read_tape, serve_tcp, serve_unix, write_tape_checkpointed, Client,
        MonitorServer, Request, Response, ServerConfig,
    };
    use monsem_tspec::{SpecMonitor, TapeOutcome};
    use std::io::{Read, Write};
    use std::sync::Arc;
    use std::time::Instant;

    const SPEC: &str = "always(post(req) => value >= 0)";
    /// Events per producer per run; also the checkpointed tape's length.
    const TOTAL: usize = 100_000;
    /// Events for the synchronous per-event baseline (each event costs a
    /// full round trip; the full workload would dominate the run).
    const SYNC_N: usize = 16_384;
    const PRODUCERS: &[usize] = &[1, 2, 4, 8];
    const BATCHES: &[usize] = &[1, 16, 64, 256, 1024, 4096, 16384];
    const CKPT_EVERY: usize = 10_000;
    /// Scale points multiply the workload by P, so fewer repetitions.
    const SCALE_WARMUP: u32 = 1;
    const SCALE_RUNS: u32 = 5;

    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    header(&format!(
        "Server saturation: batched pipelined ingest over sockets, {TOTAL} events/producer\n\
         host_cpus = {host_cpus}; every timed point's verdict is asserted against the\n\
         offline oracle before the clock starts"
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
    let oracle = SpecMonitor::new("oracle", SPEC)
        .unwrap()
        .check_tape(events.iter());
    let oracle_earliest = oracle.earliest_violation;
    let oracle_violated = matches!(oracle.outcome, TapeOutcome::Violated(_));
    assert!(oracle_violated, "the workload must exercise violations");

    // The offline checker's bare fold on this workload — the rate every
    // ingest path is chasing.
    let oracle_monitor = SpecMonitor::new("oracle", SPEC).unwrap();
    let t_offline = measure(
        || {
            std::hint::black_box(oracle_monitor.check_tape(events.iter()));
        },
        SCALE_WARMUP,
        SCALE_RUNS,
    );
    let offline_epms = TOTAL as f64 / (t_offline.as_secs_f64() * 1e3);
    println!(
        "offline check (no decode)  {}   ({offline_epms:>8.0} events/ms)",
        ms(t_offline)
    );

    /// One timed run: P producers, each with its own connection and
    /// session, pushing the whole workload through a `BatchWriter` and
    /// closing. The close verdict is the barrier *and* the correctness
    /// check: ingested count, earliest violation, and verdict class
    /// must equal the offline oracle's.
    fn producers_run<S, C>(
        connect: &C,
        p: usize,
        batch: usize,
        events: &[TapeEvent],
        oracle_earliest: Option<u64>,
        oracle_violated: bool,
    ) -> Duration
    where
        S: Read + Write + Send,
        C: Fn() -> Client<S> + Sync,
    {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..p {
                scope.spawn(move || {
                    let mut client = connect();
                    let session = t as u64;
                    let resp = client
                        .request(&Request::Open {
                            session,
                            enforcing: false,
                            spec: SPEC.to_string(),
                            stream: None,
                        })
                        .expect("open");
                    assert!(matches!(resp, Response::Ok), "open: {resp:?}");
                    // One EventBatch frame per chunk — the same wire
                    // image a `BatchWriter` flushes at this batch size,
                    // minus the per-event clone into its buffer (which
                    // would time the benchmark harness, not the path).
                    for chunk in events.chunks(batch) {
                        client.send_batch(session, chunk).expect("send");
                    }
                    let resp = client.request(&Request::Close { session }).expect("close");
                    let v = match resp {
                        Response::Verdict(v) => v,
                        other => panic!("close: {other:?}"),
                    };
                    assert_eq!(v.ingested, events.len() as u64, "events lost in flight");
                    assert_eq!(v.earliest_violation, oracle_earliest, "verdict drifted");
                    assert_eq!(v.violation.is_some(), oracle_violated, "verdict drifted");
                });
            }
        });
        start.elapsed()
    }

    let batch_default = monsem_tape::DEFAULT_BATCH;
    let mut points: Vec<(String, usize, Duration, f64)> = Vec::new();
    let mut ablation: Vec<(usize, Duration, f64)> = Vec::new();
    let mut sync_point: Option<(Duration, f64)> = None;
    let whole_image: (Duration, f64);

    // In-process pipelined points first: the same fire-and-forget
    // batch-fold-ack path minus the socket, i.e. the apples-to-apples
    // successor of BENCH_tape's synchronous chunked server ingest.
    {
        let server = Arc::new(MonitorServer::start(ServerConfig::default()));
        for &p in PRODUCERS {
            let server_ref = &server;
            let events_ref = &events;
            let wall = measure_producers(
                || {
                    let start = Instant::now();
                    std::thread::scope(|scope| {
                        for t in 0..p {
                            scope.spawn(move || {
                                let session = t as u64;
                                assert!(matches!(
                                    server_ref.request(Request::Open {
                                        session,
                                        enforcing: false,
                                        spec: SPEC.to_string(),
                                        stream: None,
                                    }),
                                    Response::Ok
                                ));
                                // Acks are advisory; an unread (bounded)
                                // channel exercises the drop-not-block path.
                                // Each chunk is encoded inside the clock,
                                // as the socket rows' `send_batch` does.
                                let (out, _acks) = std::sync::mpsc::sync_channel(64);
                                for chunk in events_ref.chunks(batch_default) {
                                    assert!(server_ref.post(
                                        Request::EventBatch {
                                            session,
                                            tape: monsem_tape::write_tape(chunk),
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
                    start.elapsed()
                },
                SCALE_WARMUP,
                SCALE_RUNS,
            );
            let total = (p * TOTAL) as f64;
            let epms = total / (wall.as_secs_f64() * 1e3);
            println!(
                "inproc P={p}  batch={batch_default:<4}  {}   ({epms:>8.0} events/ms aggregate)",
                ms(wall)
            );
            points.push(("inproc".to_string(), p, wall, epms));
        }

        // Batch = the whole tape: one EventBatch frame carrying a
        // pre-encoded 100k-event image. The server pays exactly what
        // the offline checker pays (decode + fold) plus one queue hop —
        // the limit the batching curve converges to.
        let image = monsem_tape::write_tape(&events);
        let mut image_session = 500u64;
        let image_wall = measure_producers(
            || {
                image_session += 1;
                let start = Instant::now();
                assert!(matches!(
                    server.request(Request::Open {
                        session: image_session,
                        enforcing: false,
                        spec: SPEC.to_string(),
                        stream: None,
                    }),
                    Response::Ok
                ));
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
                start.elapsed()
            },
            SCALE_WARMUP,
            SCALE_RUNS,
        );
        let image_epms = TOTAL as f64 / (image_wall.as_secs_f64() * 1e3);
        println!(
            "inproc P=1  whole image  {}   ({image_epms:>8.0} events/ms)",
            ms(image_wall)
        );
        whole_image = (image_wall, image_epms);
        server.shutdown();
    }

    for transport in ["tcp", "unix"] {
        let server = Arc::new(MonitorServer::start(ServerConfig::default()));
        let sock_path = std::env::temp_dir().join(format!(
            "monsem-bench-scale-{}-{transport}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&sock_path);
        let (handle, addr) = if transport == "tcp" {
            let h = serve_tcp(Arc::clone(&server), "127.0.0.1:0").expect("bind tcp");
            let a = h.addr().expect("tcp addr");
            (h, Some(a))
        } else {
            (
                serve_unix(Arc::clone(&server), &sock_path).expect("bind unix"),
                None,
            )
        };

        // Producer scaling at the default batch size. The total offered
        // load grows with P (each producer pushes the full workload), so
        // aggregate events/ms is the saturation curve.
        for &p in PRODUCERS {
            let wall = if transport == "tcp" {
                let addr = addr.unwrap();
                let connect = move || Client::connect_tcp(addr).expect("connect");
                measure_producers(
                    || {
                        producers_run(
                            &connect,
                            p,
                            batch_default,
                            &events,
                            oracle_earliest,
                            oracle_violated,
                        )
                    },
                    SCALE_WARMUP,
                    SCALE_RUNS,
                )
            } else {
                let path = sock_path.clone();
                let connect = move || Client::connect_unix(&path).expect("connect");
                measure_producers(
                    || {
                        producers_run(
                            &connect,
                            p,
                            batch_default,
                            &events,
                            oracle_earliest,
                            oracle_violated,
                        )
                    },
                    SCALE_WARMUP,
                    SCALE_RUNS,
                )
            };
            let total = (p * TOTAL) as f64;
            let epms = total / (wall.as_secs_f64() * 1e3);
            println!(
                "{transport:<5} P={p}  batch={batch_default:<4}  {}   ({epms:>8.0} events/ms aggregate)",
                ms(wall)
            );
            points.push((transport.to_string(), p, wall, epms));
        }

        // Batch-size ablation and the synchronous per-event baseline,
        // single producer over TCP (the transport with the higher
        // per-frame cost).
        if transport == "tcp" {
            let addr = addr.unwrap();
            for &batch in BATCHES {
                let connect = move || Client::connect_tcp(addr).expect("connect");
                let wall = measure_producers(
                    || {
                        producers_run(
                            &connect,
                            1,
                            batch,
                            &events,
                            oracle_earliest,
                            oracle_violated,
                        )
                    },
                    SCALE_WARMUP,
                    SCALE_RUNS,
                );
                let epms = TOTAL as f64 / (wall.as_secs_f64() * 1e3);
                println!(
                    "tcp   P=1  batch={batch:<4}  {}   ({epms:>8.0} events/ms)",
                    ms(wall)
                );
                ablation.push((batch, wall, epms));
            }
            // The pre-batching baseline: one synchronous one-event batch
            // request — an encode, a fresh reply channel, a queue round
            // trip, a blocking recv — per event, through the in-process
            // API (the wire protocol has no per-event reply to measure).
            let sync_events = &events[..SYNC_N];
            let sync_oracle = SpecMonitor::new("oracle", SPEC)
                .unwrap()
                .check_tape(sync_events.iter());
            let mut sync_session = 900u64;
            let wall = measure_producers(
                || {
                    sync_session += 1;
                    let start = Instant::now();
                    assert!(matches!(
                        server.request(Request::Open {
                            session: sync_session,
                            enforcing: false,
                            spec: SPEC.to_string(),
                            stream: None,
                        }),
                        Response::Ok
                    ));
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
                    start.elapsed()
                },
                SCALE_WARMUP,
                SCALE_RUNS,
            );
            let epms = SYNC_N as f64 / (wall.as_secs_f64() * 1e3);
            println!(
                "sync per-event request  {}   ({epms:>8.0} events/ms, {SYNC_N} events, in-process)",
                ms(wall)
            );
            sync_point = Some((wall, epms));
        }

        handle.stop();
        server.shutdown();
        let _ = std::fs::remove_file(&sock_path);
    }

    // Checkpointed vs full-replay offline check on the same ≥100k-event
    // tape. The seeded check must reach the identical verdict before
    // its time means anything.
    let monitor = SpecMonitor::new("ck", SPEC).unwrap();
    let v3 = write_tape_checkpointed(&events, &monitor, None, CKPT_EVERY);
    let decoded = read_tape(&v3).expect("v3 decodes");
    let full = monitor.check_tape(decoded.iter());
    let seeded = check_tape_from(&monitor, &v3, (TOTAL - 1) as u64).expect("seeded check");
    assert_eq!(
        std::mem::discriminant(&seeded.check.outcome),
        std::mem::discriminant(&full.outcome),
        "a checkpoint changed the verdict"
    );
    assert_eq!(seeded.check.earliest_violation, full.earliest_violation);
    assert_eq!(seeded.check.state.state, full.state.state);
    let resumed_at = seeded.resumed_at;
    let replayed = seeded.replayed;
    let t_full = measure(
        || {
            let evs = read_tape(&v3).unwrap();
            std::hint::black_box(monitor.check_tape(evs.iter()));
        },
        WARMUP,
        RUNS,
    );
    let t_seeded = measure(
        || {
            std::hint::black_box(check_tape_from(&monitor, &v3, (TOTAL - 1) as u64).unwrap());
        },
        WARMUP,
        RUNS,
    );
    let ckpt_speedup = t_full.as_secs_f64() / t_seeded.as_secs_f64();
    println!(
        "check --from (full replay)      {}   ({} events folded)",
        ms(t_full),
        TOTAL
    );
    println!(
        "check --from (checkpointed)     {}   (resumed at {resumed_at}, {replayed} folded, {ckpt_speedup:.1}x)",
        ms(t_seeded)
    );

    if let Some(dir) = json {
        let point_rows: Vec<String> = points
            .iter()
            .map(|(transport, p, wall, epms)| {
                format!(
                    "    {{ \"transport\": \"{transport}\", \"producers\": {p}, \"total_events\": {}, \"wall_ms\": {}, \"events_per_ms\": {epms:.1} }}",
                    p * TOTAL,
                    json_ms(*wall)
                )
            })
            .collect();
        let ablation_rows: Vec<String> = ablation
            .iter()
            .map(|(batch, wall, epms)| {
                format!(
                    "    {{ \"batch\": {batch}, \"wall_ms\": {}, \"events_per_ms\": {epms:.1} }}",
                    json_ms(*wall)
                )
            })
            .collect();
        let (sync_wall, sync_epms) = sync_point.expect("tcp section ran");
        let (image_wall, image_epms) = whole_image;
        let body = format!(
            "{{\n  \
               \"table\": \"server_scale\",\n  \
               \"unit\": \"ms\",\n  \
               \"statistic\": \"median of {SCALE_RUNS} after {SCALE_WARMUP} warmups (scale points); median of {RUNS} after {WARMUP} (checkpoint)\",\n  \
               \"host_cpus\": {host_cpus},\n  \
               \"shards\": {},\n  \
               \"spec\": \"{SPEC}\",\n  \
               \"events_per_producer\": {TOTAL},\n  \
               \"default_batch\": {batch_default},\n  \
               \"verdicts_asserted_against_offline_oracle\": true,\n  \
               \"offline_check\": {{ \"wall_ms\": {}, \"events_per_ms\": {offline_epms:.1} }},\n  \
               \"points\": [\n{}\n  ],\n  \
               \"batch_ablation\": [\n{}\n  ],\n  \
               \"whole_tape_image\": {{ \"wall_ms\": {}, \"events_per_ms\": {image_epms:.1} }},\n  \
               \"sync_per_event\": {{ \"events\": {SYNC_N}, \"wall_ms\": {}, \"events_per_ms\": {sync_epms:.1} }},\n  \
               \"checkpoint\": {{ \"tape_events\": {TOTAL}, \"checkpoint_every\": {CKPT_EVERY}, \"full_check_ms\": {}, \"seeded_check_ms\": {}, \"resumed_at\": {resumed_at}, \"replayed\": {replayed}, \"speedup\": {ckpt_speedup:.2} }}\n}}\n",
            ServerConfig::default().shards,
            json_ms(t_offline),
            point_rows.join(",\n"),
            ablation_rows.join(",\n"),
            json_ms(image_wall),
            json_ms(sync_wall),
            json_ms(t_full),
            json_ms(t_seeded),
        );
        write_json(dir, "BENCH_server_scale.json", body);
    }
}

/// Connection-count sweep: C concurrent sessions over TCP on the epoll
/// reactor. Every run's close verdicts are asserted against the offline
/// oracle inside the timed run (the close round trip is the barrier),
/// and a sampler thread records the process's peak thread count and RSS
/// from `/proc/self/status` — the reactor holds a fixed pool of threads
/// whatever C is, which the C = 1024 runs assert. A point's time depends
/// on what ran before it in the process, so the points are timed in
/// interleaved rounds and each reports its median, min and max.
fn server_conns(json: Option<&Path>) {
    use monsem_core::Value;
    use monsem_monitor::TapeEvent;
    use monsem_syntax::Annotation;
    use monsem_tape::{serve_tcp_with, Client, MonitorServer, Request, Response, ServerConfig};
    use monsem_tspec::{SpecMonitor, TapeOutcome};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    const SPEC: &str = "always(post(req) => value >= 0)";
    /// Events per point at C = 1; higher C splits this across
    /// connections (floored so every connection still does real work).
    const TOTAL: usize = 65_536;
    const MIN_PER_CONN: usize = 64;
    const CONNS: &[usize] = &[1, 64, 256, 1024];
    const DRIVERS: usize = 8;
    const IO_THREADS: usize = 2;
    /// Rounds over every point, in order, per table run.
    const ROUNDS: usize = 5;

    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let shards = ServerConfig::default().shards;
    header(&format!(
        "Server connection scaling: C concurrent sessions, epoll reactor with {IO_THREADS} I/O threads\n\
         host_cpus = {host_cpus}; median [min, max] of {ROUNDS} interleaved rounds per point;\n\
         every run's close verdicts are asserted against the offline oracle inside the timed run"
    ));

    /// Peak `Threads:` and `VmRSS:` (kB) seen in `/proc/self/status`
    /// while `stop` stays false. Returns (0, 0) where procfs is absent.
    fn sample_status(stop: &AtomicBool, threads: &AtomicU64, rss: &AtomicU64) {
        while !stop.load(Ordering::Relaxed) {
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
            std::thread::sleep(Duration::from_millis(5));
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

    /// One timed run of a point on a fresh server: (wall, peak threads,
    /// peak RSS in kB).
    fn run_point(point: &Point) -> (Duration, u64, u64) {
        let (conns, per_conn) = (point.conns, point.events.len());
        let chunk = per_conn.min(1024);
        let server = Arc::new(MonitorServer::start(ServerConfig::default()));
        let handle = serve_tcp_with(Arc::clone(&server), "127.0.0.1:0", IO_THREADS)
            .expect("bind sweep listener");
        let addr = handle.addr().expect("tcp listener has an address");

        let stop = AtomicBool::new(false);
        let peak_threads = AtomicU64::new(0);
        let peak_rss = AtomicU64::new(0);

        let wall = std::thread::scope(|scope| {
            scope.spawn(|| sample_status(&stop, &peak_threads, &peak_rss));
            let start = Instant::now();
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
            let wall = start.elapsed();
            stop.store(true, Ordering::Relaxed);
            wall
        });

        handle.stop();
        server.shutdown();
        (
            wall,
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

    // samples[i] holds point i's runs; a round runs every point once.
    let mut samples: Vec<Vec<(Duration, u64, u64)>> = vec![Vec::new(); points.len()];
    for _ in 0..ROUNDS {
        for (point, runs) in points.iter().zip(&mut samples) {
            let (wall, threads, rss) = run_point(point);
            // The reactor's headline claim: I/O threads stay bounded at
            // C = 1024 instead of growing with C. Everything else in the
            // process (shards, drivers, sampler, main) is a small
            // constant.
            if point.conns == 1024 {
                let bound = (IO_THREADS + shards + DRIVERS + 8) as u64;
                assert!(
                    threads <= bound,
                    "reactor thread count {threads} exceeds bound {bound} at C=1024"
                );
            }
            runs.push((wall, threads, rss));
        }
    }

    let backend = format!("reactor:{IO_THREADS}");
    let mut rows: Vec<String> = Vec::new();
    for (point, runs) in points.iter().zip(&mut samples) {
        runs.sort();
        let (median, min, max) = (runs[runs.len() / 2].0, runs[0].0, runs[runs.len() - 1].0);
        let threads = runs.iter().map(|r| r.1).max().unwrap_or(0);
        let rss = runs.iter().map(|r| r.2).max().unwrap_or(0);
        let (conns, per_conn) = (point.conns, point.events.len());
        let total_events = conns * per_conn;
        let epms = total_events as f64 / (median.as_secs_f64() * 1e3);
        println!(
            "{backend:<10} C={conns:<5} {per_conn:>6} ev/conn   {} [{}, {}]   ({epms:>7.0} events/ms, peak {threads} threads, {rss} kB RSS)",
            ms(median),
            ms(min),
            ms(max)
        );
        rows.push(format!(
            "    {{ \"backend\": \"{backend}\", \"conns\": {conns}, \"events_per_conn\": {per_conn}, \"total_events\": {total_events}, \"wall_ms\": {}, \"wall_ms_min\": {}, \"wall_ms_max\": {}, \"events_per_ms\": {epms:.1}, \"peak_threads\": {threads}, \"peak_rss_kb\": {rss} }}",
            json_ms(median),
            json_ms(min),
            json_ms(max)
        ));
    }

    if let Some(dir) = json {
        let body = format!(
            "{{\n  \
               \"table\": \"server_conns\",\n  \
               \"unit\": \"ms\",\n  \
               \"statistic\": \"median of {ROUNDS} interleaved rounds per point (wall_ms_min and wall_ms_max give the range; peak threads and RSS are the rounds' maxima)\",\n  \
               \"rounds\": {ROUNDS},\n  \
               \"host_cpus\": {host_cpus},\n  \
               \"shards\": {shards},\n  \
               \"io_threads\": {IO_THREADS},\n  \
               \"drivers\": {DRIVERS},\n  \
               \"spec\": \"{SPEC}\",\n  \
               \"verdicts_asserted_against_offline_oracle\": true,\n  \
               \"points\": [\n{}\n  ]\n}}\n",
            rows.join(",\n"),
        );
        write_json(dir, "BENCH_server_conns.json", body);
    }
}

/// Median of `runs` wall-clock durations returned by `f` (the closure
/// times itself — connection setup and thread spawn are part of what a
/// producer pays, so they stay inside the clock).
fn measure_producers<F: FnMut() -> Duration>(mut f: F, warmup: u32, runs: u32) -> Duration {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<Duration> = (0..runs.max(1)).map(|_| f()).collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Stream-monitor throughput vs window count and width, plus the
/// crate's headline static claim: after `initial_state()` the evaluator
/// never touches the heap. The counting [`std::alloc::GlobalAlloc`] wrapper
/// installed at the top of this binary verifies the claim on every run
/// *before* any timing is reported — a regression that starts
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
    let feed = |m: &StreamMonitor, mut s: StreamState| -> StreamState {
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

    /// One measured spec variant.
    struct Point {
        label: String,
        streams: usize,
        window: String,
        memory_bytes: usize,
        events_per_ms: f64,
    }

    let mut points: Vec<Point> = Vec::new();
    let mut run = |label: &str, window: &str, src: &str| {
        let m = StreamMonitor::new(label, src).expect("bench spec compiles");
        let memory_bytes = m.spec().memory().total_bytes;
        let n_streams = m.spec().streams().len();

        // Warm one full pass so rings and deques reach steady state,
        // then assert the next pass performs zero heap allocations.
        let mut s = feed(&m, m.initial_state());
        let before = ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed);
        s = feed(&m, s);
        let after = ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "steady-state stream evaluation allocated ({label})"
        );

        let mut state = Some(s);
        let t = measure(
            || {
                let s = state.take().expect("state is threaded through");
                state = Some(feed(&m, s));
            },
            WARMUP,
            RUNS,
        );
        let events_per_ms = N as f64 / (t.as_secs_f64() * 1e3);
        println!(
            "{label:<26} {n_streams} stream(s), window {window:<9} {:>7} bytes   {events_per_ms:>8.0} events/ms",
            memory_bytes
        );
        points.push(Point {
            label: label.to_string(),
            streams: n_streams,
            window: window.to_string(),
            memory_bytes,
            events_per_ms,
        });
    };

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
        run(&format!("count/sum windows x{n}"), "256", &src);
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
        run(&format!("min/max deques w={w}"), &w.to_string(), &src);
    }

    // Axis 3: time windows (paged panes) with a deadline on the path.
    // Logical time advances 1 ms per event, so panes rotate constantly.
    run(
        "time panes + deadline",
        "1000 ms",
        "stream load = rate(post(_)) over window(1000 ms)\n\
         stream mean = avg(post(a)) over window(500 ms)\n\
         trigger hot = load > 100000000\n\
         deadline post(b) every 60000 ms\n",
    );

    println!("\nsteady state: 0 heap allocations across all variants (asserted)");

    if let Some(dir) = json {
        let rows: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "    {{ \"label\": \"{}\", \"streams\": {}, \"window\": \"{}\", \"memory_bytes\": {}, \"events_per_ms\": {:.1} }}",
                    p.label, p.streams, p.window, p.memory_bytes, p.events_per_ms
                )
            })
            .collect();
        let body = format!(
            "{{\n  \
               \"table\": \"stream\",\n  \
               \"unit\": \"events/ms\",\n  \
               \"statistic\": \"median of {RUNS} after {WARMUP} warmups\",\n  \
               \"workload\": \"synthetic post-event mix, {N} events per pass, logical time\",\n  \
               \"steady_state_allocations\": 0,\n  \
               \"points\": [\n{}\n  ]\n}}\n",
            rows.join(",\n"),
        );
        write_json(dir, "BENCH_stream.json", body);
    }
}

/// E8: the Figure 10 artifact ladder, including the *source-level*
/// instrumented program and its further specialization.
fn futamura() {
    header(
        "E8 (Figure 10): the artifact ladder for fac 12 with a step counter\n\
         level 0/1: monitored interpreter; level 2: instrumented program;\n\
         level 3: instrumented program specialized w.r.t. its static parts",
    );
    let program = programs::fac_ab(12);
    let monitor = step_counter();
    let opts = EvalOptions::default();

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

    let t_interp_instrumented = measure(
        || {
            eval_with(&instrumented, &Env::empty(), &opts).unwrap();
        },
        WARMUP,
        RUNS,
    );
    let compiled_instrumented = compile(&instrumented).expect("compiles");
    let t_compiled_instrumented = measure(
        || {
            compiled_instrumented.run().unwrap();
        },
        WARMUP,
        RUNS,
    );
    let t_specialized = measure(
        || {
            eval_with(&optimized, &Env::empty(), &opts).unwrap();
        },
        WARMUP,
        RUNS,
    );
    println!("instrumented, interpreted:  {}", ms(t_interp_instrumented));
    println!(
        "instrumented, compiled:     {}",
        ms(t_compiled_instrumented)
    );
    println!("specialized (level 3):      {}", ms(t_specialized));
}
