//! Fuel accounting, differentially: the interpreter (`core::machine`) and
//! the compiled engine (`pe::engine`) decrement fuel once per transition
//! and agree on the *invariant* even though they disagree on the *count*
//! (the compiled engine fuses `Prim1`/`Prim2`/`CallRec` into single
//! transitions, so it takes at most as many steps as the interpreter on
//! the same program — the intended divergence documented in
//! `monsem_monitor::soundness`).
//!
//! The shared invariant, pinned here for both engines on every sample
//! program: a run that takes `steps` transitions succeeds with exactly
//! `fuel = steps` and exhausts with `fuel = steps − 1`.

use monitoring_semantics::core::machine::{eval_stats, eval_with, EvalOptions};
use monitoring_semantics::core::{Env, EvalError};
use monitoring_semantics::monitor::machine::eval_monitored_stats_with;
use monitoring_semantics::monitor::{eval_parallel_with, IdentityMonitor, ParOptions};
use monitoring_semantics::pe::engine::compile;
use monitoring_semantics::syntax::parse_expr;

/// Pure sample programs both engines accept (no imperative constructs).
const PROGRAMS: &[&str] = &[
    "1 + 2",
    "letrec fac = lambda x. if x = 0 then 1 else x * (fac (x - 1)) in fac 10",
    "letrec fib = lambda n. if n < 2 then n else (fib (n-1)) + (fib (n-2)) in fib 12",
    "let twice = lambda f. lambda x. f (f x) in twice (lambda n. n * 2) 5",
    "letrec sum = lambda l. if null? l then 0 else (hd l) + (sum (tl l)) in sum [1,2,3]",
    "letrec even = lambda n. if n = 0 then true else odd (n - 1) \
     and odd = lambda n. if n = 0 then false else even (n - 1) in even 9",
    "if true then 1 else 2",
    "(lambda x. x * x) 7",
];

#[test]
fn interpreter_fuel_equals_its_step_count() {
    for src in PROGRAMS {
        let e = parse_expr(src).unwrap();
        let (result, stats) = eval_stats(&e, &Env::empty(), &EvalOptions::default());
        let expected = result.unwrap();
        assert_eq!(
            eval_with(&e, &Env::empty(), &EvalOptions::with_fuel(stats.steps)),
            Ok(expected),
            "fuel = steps must succeed ({src})"
        );
        assert_eq!(
            eval_with(&e, &Env::empty(), &EvalOptions::with_fuel(stats.steps - 1)),
            Err(EvalError::FuelExhausted),
            "fuel = steps - 1 must exhaust ({src})"
        );
    }
}

#[test]
fn compiled_engine_fuel_equals_its_step_count() {
    for src in PROGRAMS {
        let e = parse_expr(src).unwrap();
        let p = compile(&e).unwrap();
        let (expected, (), stats) = p
            .run_monitored_stats(&IdentityMonitor, &EvalOptions::default())
            .unwrap();
        assert_eq!(
            p.run_monitored(&IdentityMonitor, &EvalOptions::with_fuel(stats.steps))
                .map(|(v, ())| v),
            Ok(expected),
            "fuel = steps must succeed ({src})"
        );
        assert_eq!(
            p.run_monitored(&IdentityMonitor, &EvalOptions::with_fuel(stats.steps - 1)),
            Err(EvalError::FuelExhausted),
            "fuel = steps - 1 must exhaust ({src})"
        );
    }
}

#[test]
fn compiled_engine_never_takes_more_steps_than_the_interpreter() {
    for src in PROGRAMS {
        let e = parse_expr(src).unwrap();
        let (interpreted, interp_stats) = eval_stats(&e, &Env::empty(), &EvalOptions::default());
        let p = compile(&e).unwrap();
        let (compiled, (), pe_stats) = p
            .run_monitored_stats(&IdentityMonitor, &EvalOptions::default())
            .unwrap();
        assert_eq!(interpreted, Ok(compiled), "engines agree on {src}");
        assert!(
            pe_stats.steps <= interp_stats.steps,
            "fused transitions can only shrink the step count \
             ({src}: compiled {} vs interpreted {})",
            pe_stats.steps,
            interp_stats.steps
        );
    }
}

#[test]
fn parallel_fuel_is_charged_globally_at_the_join() {
    // PR 7 bugfix (S3): shard step counts are charged back to the parent
    // at the join, so the fork-join machine draws on ONE fuel budget.
    // Under the historical per-shard accounting every shard received the
    // full remaining budget, so four shards could jointly spend ~4× the
    // bound — the starved case below would (wrongly) have succeeded.
    let prog = parse_expr(
        "letrec fac = lambda x. if x = 0 then 1 else x * (fac (x - 1)) \
         in par(fac 10, fac 10, fac 10, fac 10)",
    )
    .unwrap();
    let monitor = IdentityMonitor;
    // `IdentityMonitor::State` is `()`, so the initial state is passed
    // literally below.
    let (_, _, seq_steps) =
        eval_monitored_stats_with(&prog, &Env::empty(), &monitor, (), &EvalOptions::default())
            .unwrap();

    let par_opts = |fuel: u64| ParOptions {
        threads: 4,
        eval: EvalOptions::with_fuel(fuel),
    };

    // A parallel run charges exactly the sequential step count, so that
    // count is a sufficient global budget.
    eval_parallel_with(&prog, &Env::empty(), &monitor, (), &par_opts(seq_steps))
        .expect("fuel = sequential steps must suffice in parallel");

    // A third of the sequential budget still covers any single shard
    // (each shard is ~a quarter of the work), so per-shard accounting
    // would pass — global accounting must exhaust.
    assert_eq!(
        eval_parallel_with(&prog, &Env::empty(), &monitor, (), &par_opts(seq_steps / 3)),
        Err(EvalError::FuelExhausted),
        "four shards cannot jointly overdraw a global budget"
    );
}

#[test]
fn both_engines_exhaust_identically_under_a_starved_budget() {
    // With fuel far below either step count, both report FuelExhausted —
    // fuel never converts a diverging program into an answer or vice versa.
    let e = parse_expr("letrec loop = lambda x. loop x in loop 0").unwrap();
    let starved = EvalOptions::with_fuel(1_000);
    assert_eq!(
        eval_with(&e, &Env::empty(), &starved),
        Err(EvalError::FuelExhausted)
    );
    assert_eq!(
        compile(&e)
            .unwrap()
            .run_monitored(&IdentityMonitor, &starved),
        Err(EvalError::FuelExhausted)
    );
}
