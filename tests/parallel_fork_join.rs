//! Fork-join parallel evaluation: the parallel machine agrees with the
//! sequential monitored machine bit-for-bit (answer *and* final monitor
//! state), and every `MergeMonitor` obeys the split/merge laws —
//! `merge` is associative and `split` produces a merge identity — which
//! is what makes the agreement a theorem rather than a coincidence
//! (DESIGN.md §6½).

use monitoring_semantics::core::machine::EvalOptions;
use monitoring_semantics::core::{programs, Env, EvalError, Value};
use monitoring_semantics::monitor::machine::eval_monitored_with;
use monitoring_semantics::monitor::{
    eval_parallel, eval_parallel_with, Compose, FaultPolicy, Guarded, Health, MergeMonitor,
    Monitor, ParOptions,
};
use monitoring_semantics::monitors::{
    AbProfiler, CallGraph, Collecting, Coverage, FaultMode, FaultyMonitor, Profiler, TimeProfiler,
};
use monitoring_semantics::syntax::gen::{gen_program, sprinkle_annotations, GenConfig};
use monitoring_semantics::syntax::{parse_expr, Expr, Ident, Namespace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FUEL: u64 = 400_000;

/// A generated program that contains `par(…)` forms (opt-in; the default
/// generator stays par-free for the lazy/CPS engines) with labels
/// sprinkled at `density`/1000 in namespace `ns`.
fn par_program(seed: u64, density: u16) -> Expr {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = GenConfig {
        par_chance: 0.35,
        ..GenConfig::default()
    };
    let plain = gen_program(&mut rng, &cfg);
    sprinkle_annotations(
        &mut rng,
        &plain,
        &Namespace::new("ns"),
        f64::from(density) / 1000.0,
    )
}

fn ns() -> Namespace {
    Namespace::new("ns")
}

fn par_options(threads: usize) -> ParOptions {
    ParOptions {
        threads,
        eval: EvalOptions::with_fuel(FUEL),
    }
}

/// Runs both machines and compares results, ignoring fuel-exhaustion
/// divergence. Fuel is global in both machines (shard steps are charged
/// back to the parent at the join), but a shard that fails reports no
/// step count, so a run that fails near the limit may exhaust in one
/// machine and report its error in the other.
fn assert_parallel_matches_sequential<M>(program: &Expr, monitor: &M, threads: usize)
where
    M: MergeMonitor + Sync,
    M::State: Send + PartialEq + std::fmt::Debug,
{
    let seq = eval_monitored_with(
        program,
        &Env::empty(),
        monitor,
        monitor.initial_state(),
        &EvalOptions::with_fuel(FUEL),
    );
    let par = eval_parallel_with(
        program,
        &Env::empty(),
        monitor,
        monitor.initial_state(),
        &par_options(threads),
    );
    let fuel =
        |r: &Result<(Value, M::State), EvalError>| matches!(r, Err(EvalError::FuelExhausted));
    if !fuel(&seq) && !fuel(&par) {
        assert_eq!(seq, par, "program: {program}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_profiler_matches_sequential(seed: u64, density in 0u16..300, threads in 1usize..5) {
        let program = par_program(seed, density);
        assert_parallel_matches_sequential(&program, &Profiler::in_namespace(ns()), threads);
    }

    #[test]
    fn parallel_compose_cascade_matches_sequential(seed: u64, density in 0u16..300) {
        // A §6 cascade: both layers must split and merge pairwise.
        let program = par_program(seed, density);
        let cascade = Compose::new(Profiler::in_namespace(ns()), Coverage::in_namespace(ns()));
        assert_parallel_matches_sequential(&program, &cascade, 4);
    }

    #[test]
    fn parallel_guarded_matches_sequential_when_healthy(seed: u64, density in 0u16..300) {
        // A healthy Guarded wrapper (the bomb never fires) adds
        // accounting but no faults; events sum across the join.
        let program = par_program(seed, density);
        let guarded = Guarded::new(FaultyMonitor::new(0, FaultMode::Panic))
            .policy(FaultPolicy::Quarantine);
        let seq = eval_monitored_with(
            &program,
            &Env::empty(),
            &guarded,
            guarded.initial_state(),
            &EvalOptions::with_fuel(FUEL),
        );
        let par = eval_parallel_with(
            &program,
            &Env::empty(),
            &guarded,
            guarded.initial_state(),
            &par_options(4),
        );
        let fuel = |r: &Result<(Value, _), EvalError>| matches!(r, Err(EvalError::FuelExhausted));
        if let (Ok((sv, ss)), Ok((pv, ps))) = (&seq, &par) {
            prop_assert_eq!(sv, pv);
            prop_assert_eq!(&ss.state, &ps.state, "inner counter");
            prop_assert_eq!(ss.events, ps.events, "hook accounting");
            prop_assert!(ss.health.is_ok() && ps.health.is_ok());
        } else if !fuel(&seq) && !fuel(&par) {
            prop_assert_eq!(
                seq.as_ref().err(),
                par.as_ref().err(),
                "both machines fail identically"
            );
        }
    }

    #[test]
    fn profiler_split_merge_laws(seed: u64, density in 1u16..300) {
        check_laws_on_generated(&Profiler::in_namespace(ns()), seed, density)?;
    }

    #[test]
    fn coverage_split_merge_laws(seed: u64, density in 1u16..300) {
        check_laws_on_generated(&Coverage::in_namespace(ns()), seed, density)?;
    }

    #[test]
    fn collecting_split_merge_laws(seed: u64, density in 1u16..300) {
        // `Interpretations` holds `Value` (not `Send`), so the collecting
        // monitor cannot ride the thread scope — but its split/merge obey
        // the same laws, so it composes under `Compose` forwarding.
        check_laws_on_generated(&Collecting::in_namespace(ns()), seed, density)?;
    }

    #[test]
    fn compose_split_merge_laws(seed: u64, density in 1u16..300) {
        let cascade = Compose::new(Profiler::in_namespace(ns()), Coverage::in_namespace(ns()));
        check_laws_on_generated(&cascade, seed, density)?;
    }
}

/// Evolves `monitor` over three generated programs from a common
/// mid-run state σ and checks both laws on the resulting shard states.
fn check_laws_on_generated<M>(monitor: &M, seed: u64, density: u16) -> Result<(), TestCaseError>
where
    M: MergeMonitor,
    M::State: Clone + PartialEq + std::fmt::Debug,
{
    let run = |sigma: M::State, salt: u64| -> Option<M::State> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(salt));
        let plain = gen_program(&mut rng, &GenConfig::default());
        let program = sprinkle_annotations(
            &mut rng,
            &plain,
            &Namespace::new("ns"),
            f64::from(density) / 1000.0,
        );
        eval_monitored_with(
            &program,
            &Env::empty(),
            monitor,
            sigma,
            &EvalOptions::with_fuel(FUEL),
        )
        .ok()
        .map(|(_, s)| s)
    };
    // A mid-run σ (not the pristine initial state) exercises split
    // against accumulated history.
    let Some(sigma) = run(monitor.initial_state(), 0) else {
        return Ok(()); // program errored; nothing to check
    };
    // split is a right identity for merge.
    prop_assert_eq!(
        monitor.merge(sigma.clone(), monitor.split(&sigma)),
        sigma.clone()
    );
    // merge is associative over independently-evolved shard states.
    let shards: Vec<M::State> = (1..=3)
        .filter_map(|salt| run(monitor.split(&sigma), salt))
        .collect();
    if let [a, b, c] = shards.as_slice() {
        prop_assert_eq!(
            monitor.merge(monitor.merge(a.clone(), b.clone()), c.clone()),
            monitor.merge(a.clone(), monitor.merge(b.clone(), c.clone()))
        );
    }
    Ok(())
}

#[test]
fn callgraph_laws_and_parallel_agreement() {
    let m = CallGraph::new();
    // Shard states from the traced fac/mul program at different depths.
    let run = |n: i64| {
        eval_monitored_with(
            &programs::fac_mul_traced(n),
            &Env::empty(),
            &m,
            m.split(&m.initial_state()),
            &EvalOptions::with_fuel(FUEL),
        )
        .unwrap()
        .1
    };
    let (a, b, c) = (run(2), run(3), run(4));
    assert_eq!(
        m.merge(m.merge(a.clone(), b.clone()), c.clone()),
        m.merge(a.clone(), m.merge(b.clone(), c.clone()))
    );
    let sigma = run(5);
    assert_eq!(m.merge(sigma.clone(), m.split(&sigma)), sigma);

    // The same traced workload under par: graphs sum deterministically.
    let prog = parse_expr(
        "letrec fac = lambda x. {fac(x)}:(if x = 0 then 1 else x * (fac (x - 1))) \
         in par(fac 3, fac 5)",
    )
    .unwrap();
    let seq = eval_monitored_with(
        &prog,
        &Env::empty(),
        &m,
        m.initial_state(),
        &EvalOptions::with_fuel(FUEL),
    )
    .unwrap();
    let par = eval_parallel(&prog, &m).unwrap();
    assert_eq!(seq, par);
    assert_eq!(par.1.calls(None, "fac"), 2);
    assert_eq!(par.1.calls(Some("fac"), "fac"), 3 + 5);
}

#[test]
fn ab_profiler_parallel_agreement() {
    let prog = parse_expr("par({A}:1, {B}:2, {B}:3) ++ par({A}:4)").unwrap();
    let m = AbProfiler;
    let seq = eval_monitored_with(
        &prog,
        &Env::empty(),
        &m,
        m.initial_state(),
        &EvalOptions::default(),
    )
    .unwrap();
    let par = eval_parallel(&prog, &m).unwrap();
    assert_eq!(seq, par);
    assert_eq!(par.1.a, 2);
    assert_eq!(par.1.b, 2);
}

#[test]
fn time_profiler_merges_counts_exactly() {
    // Durations are nondeterministic, so the law checks compare the
    // deterministic projections: per-label activation counts.
    let m = TimeProfiler::new();
    let prog = parse_expr(
        "letrec fac = lambda x. {fac}:(if x = 0 then 1 else x * (fac (x - 1))) \
         in par(fac 4, fac 6, fac 2)",
    )
    .unwrap();
    let seq = eval_monitored_with(
        &prog,
        &Env::empty(),
        &m,
        m.initial_state(),
        &EvalOptions::default(),
    )
    .unwrap();
    let par = eval_parallel(&prog, &m).unwrap();
    assert_eq!(seq.0, par.0);
    let fac = Ident::new("fac");
    assert_eq!(seq.1.count(&fac), par.1.count(&fac));
    assert_eq!(seq.1.count(&fac), 5 + 7 + 3);
    // Identity-law projection: merging a fresh split changes no counts.
    let merged = m.merge(par.1, m.split(&seq.1));
    assert_eq!(merged.count(&fac), 5 + 7 + 3);
}

// ---------------------------------------------------------------------
// Fault policy under parallelism (PR 2 semantics inside worker threads)
// ---------------------------------------------------------------------

#[test]
fn panicking_shard_surfaces_monitor_abort_and_never_poisons() {
    let prog = parse_expr("par({a}:1, {b}:2, {c}:3)").unwrap();
    let bomb = FaultyMonitor::new(1, FaultMode::Panic);
    let err = eval_parallel(&prog, &bomb).unwrap_err();
    match &err {
        EvalError::MonitorAbort { reason, .. } => {
            assert!(reason.contains("panic"), "{reason}");
        }
        other => panic!("expected MonitorAbort, got {other:?}"),
    }
    // The scope was not poisoned: the same thread pool machinery runs
    // again, healthy.
    let (v, seen) = eval_parallel(&prog, &FaultyMonitor::new(0, FaultMode::Panic)).unwrap();
    assert_eq!(
        v,
        Value::list([Value::Int(1), Value::Int(2), Value::Int(3)])
    );
    assert_eq!(seen, 6, "two events per annotated element");
}

#[test]
fn quarantined_shard_degrades_and_the_answer_survives() {
    let prog = parse_expr("par({a}:1, {b}:2, {c}:3)").unwrap();
    let guarded =
        Guarded::new(FaultyMonitor::new(1, FaultMode::Panic)).policy(FaultPolicy::Quarantine);
    let (v, s) = eval_parallel(&prog, &guarded).unwrap();
    assert_eq!(
        v,
        Value::list([Value::Int(1), Value::Int(2), Value::Int(3)])
    );
    assert!(matches!(s.health, Health::Quarantined(_)), "{:?}", s.health);
}

#[test]
fn fatal_policy_shard_aborts_without_poisoning_the_scope() {
    let prog = parse_expr("par({a}:1, {b}:2, {c}:3)").unwrap();
    let guarded = Guarded::new(FaultyMonitor::new(1, FaultMode::Panic)).policy(FaultPolicy::Fatal);
    let err = eval_parallel(&prog, &guarded).unwrap_err();
    assert!(
        matches!(err, EvalError::MonitorAbort { .. }),
        "fatal policy propagates as MonitorAbort: {err:?}"
    );
}

#[test]
fn abort_verdict_in_a_shard_is_the_leftmost_error() {
    let prog = parse_expr("par({a}:1, {b}:2, {c}:3)").unwrap();
    // Shard-local counters (split = 0) mean every annotated shard's first
    // event fires the abort; the join must rank the leftmost shard first.
    let bomb = FaultyMonitor::new(1, FaultMode::Abort("boom".into()));
    let err = eval_parallel(&prog, &bomb).unwrap_err();
    assert_eq!(
        err,
        EvalError::MonitorAbort {
            monitor: "faulty".into(),
            reason: "boom".into(),
        }
    );
}
