//! Guarded budgets under fork-join are **global** (PR 7): the budget
//! meters the whole monitored history through a fork-shared
//! [`BudgetLedger`], so a parallel run degrades exactly where the
//! sequential run would — shards can no longer jointly overdraw the
//! bound by each metering from the fork point.

use monitoring_semantics::core::machine::EvalOptions;
use monitoring_semantics::core::Env;
use monitoring_semantics::monitor::machine::eval_monitored_with;
use monitoring_semantics::monitor::{
    eval_parallel, Budget, FaultPolicy, Guarded, Health, Monitor, ParOptions,
};
use monitoring_semantics::monitors::{FaultMode, FaultyMonitor};
use monitoring_semantics::syntax::parse_expr;

/// A benign counting monitor (the bomb never fires): two events per
/// annotated element, eight in total across the four shards.
fn counting() -> FaultyMonitor {
    FaultyMonitor::new(0, FaultMode::Panic)
}

fn steps(budget: u64) -> Budget {
    Budget {
        steps: Some(budget),
        wall: None,
    }
}

const PAR_PROG: &str = "par({a}:1, {b}:2, {c}:3, {d}:4)";

#[test]
fn shards_cannot_jointly_overdraw_the_step_budget() {
    // 8 events total, 2 per shard. A budget of 5 is exceeded globally
    // but never by any single shard relative to its fork point — under
    // the historical per-shard accounting this run stayed healthy.
    let prog = parse_expr(PAR_PROG).unwrap();
    let guarded = Guarded::new(counting())
        .policy(FaultPolicy::Quarantine)
        .budget(steps(5));
    let (_, gs) = eval_parallel(&prog, &guarded).unwrap();
    assert!(
        matches!(gs.health, Health::OverBudget(_)),
        "global accounting must trip the budget: {:?}",
        gs.health
    );
}

#[test]
fn a_sufficient_budget_is_healthy() {
    let prog = parse_expr(PAR_PROG).unwrap();
    let guarded = Guarded::new(counting())
        .policy(FaultPolicy::Quarantine)
        .budget(steps(8));
    let (_, gs) = eval_parallel(&prog, &guarded).unwrap();
    assert!(gs.health.is_ok(), "{:?}", gs.health);
    assert_eq!(gs.events, 8);
}

#[test]
fn parallel_budget_verdict_matches_sequential() {
    // The sequential machine charges linearly; with global accounting
    // the parallel machine reaches the same health verdict on both
    // sides of the bound.
    let prog = parse_expr(PAR_PROG).unwrap();
    for budget in [5u64, 8] {
        let guarded = Guarded::new(counting())
            .policy(FaultPolicy::Quarantine)
            .budget(steps(budget));
        let seq = eval_monitored_with(
            &prog,
            &Env::empty(),
            &guarded,
            guarded.initial_state(),
            &EvalOptions::default(),
        )
        .unwrap();
        let par = eval_parallel(&prog, &guarded).unwrap();
        assert_eq!(seq.0, par.0, "answers agree (budget {budget})");
        assert_eq!(
            seq.1.health.is_ok(),
            par.1.health.is_ok(),
            "health verdicts agree (budget {budget}): seq {:?} vs par {:?}",
            seq.1.health,
            par.1.health
        );
    }
}

#[test]
fn the_ledger_survives_nested_forks() {
    // Nested `par` forms reuse the ledger installed at the outermost
    // fork, so deeply forked histories still meter one global budget.
    let prog = parse_expr("par(par({a}:1, {b}:2), par({c}:3, {d}:4))").unwrap();
    let guarded = Guarded::new(counting())
        .policy(FaultPolicy::Quarantine)
        .budget(steps(5));
    let options = ParOptions {
        threads: 4,
        eval: EvalOptions::default(),
    };
    let (_, gs) = monitoring_semantics::monitor::eval_parallel_with(
        &prog,
        &Env::empty(),
        &guarded,
        guarded.initial_state(),
        &options,
    )
    .unwrap();
    assert!(
        matches!(gs.health, Health::OverBudget(_)),
        "8 events against a budget of 5: {:?}",
        gs.health
    );
}
