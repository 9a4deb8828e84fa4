//! The batch guard's contract: guarding a batch of events at once
//! reports exactly what guarding them one at a time does.
//!
//! [`Guarded::guard_batch`] runs panic confinement and the clock once per
//! batch and snapshots only a state's `Copy` core, where
//! [`Guarded::guard_with`] (its one-event case) clones the state before
//! every event. Two differential properties, with the events cut into
//! random batches:
//!
//! 1. **Faults** — a [`FaultyMonitor`] that panics, aborts, or runs past
//!    its step budget at the Nth event leaves the same health, state and
//!    event count under both guards, and a propagated abort names the
//!    same event.
//! 2. **Spec folds** — a temporal spec folded through the batch guard
//!    (as a server session folds a batch) reaches the same guard state,
//!    trace ring and violation text included, as one `guard_with` per
//!    event over the owned events.

use monitoring_semantics::core::{Env, Value};
use monitoring_semantics::monitor::tape::{EventView, OwnedViews, Resolution, TapeFold};
use monitoring_semantics::monitor::{
    BatchEnd, Budget, FaultPolicy, GuardState, Guarded, Monitor, Outcome, Scope, TapeEvent,
};
use monitoring_semantics::monitors::{FaultMode, FaultyMonitor};
use monitoring_semantics::syntax::{Annotation, Expr};
use monitoring_semantics::tspec::{SpecMonitor, SpecState};
use proptest::prelude::*;

/// Cuts `0..n` into consecutive batches whose lengths come from `cuts`.
fn batches(n: usize, cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut at = 0;
    let mut k = 0;
    while at < n {
        let len = cuts.get(k).copied().unwrap_or(n).clamp(1, n - at);
        out.push(at..at + len);
        at += len;
        k += 1;
    }
    out
}

/// What a guard run reports: the final guard state's health, state and
/// event count, and the index of a propagated abort.
type Report<S> = (String, S, u64, Option<usize>);

fn report<S: Clone>(gs: &GuardState<S>, abort: Option<usize>) -> Report<S> {
    (
        format!("{:?}", gs.health),
        gs.state.clone(),
        gs.events,
        abort,
    )
}

fn faulty_per_event(m: &Guarded<FaultyMonitor>, n: usize) -> Report<u64> {
    let env = Env::empty();
    let scope = Scope::pure(&env);
    let (ann, expr) = (Annotation::label("a"), Expr::int(1));
    let mut gs = m.initial_state();
    for i in 0..n {
        match m.guard_with(gs, |m, s| m.try_pre(&ann, &expr, &scope, s)) {
            Outcome::Continue(next) => gs = next,
            Outcome::Abort { state, .. } => return report(&state, Some(i)),
        }
    }
    report(&gs, None)
}

fn faulty_batched(m: &Guarded<FaultyMonitor>, n: usize, cuts: &[usize]) -> Report<u64> {
    let env = Env::empty();
    let scope = Scope::pure(&env);
    let (ann, expr) = (Annotation::label("a"), Expr::int(1));
    let mut gs = m.initial_state();
    for batch in batches(n, cuts) {
        let end = m.guard_batch(
            &mut gs,
            batch.len(),
            |s| *s,
            |s, saved| *s = saved,
            |m, s, _| match m.try_pre(&ann, &expr, &scope, *s) {
                Outcome::Continue(next) => {
                    *s = next;
                    Outcome::Continue(())
                }
                Outcome::Abort {
                    state,
                    monitor,
                    reason,
                } => {
                    *s = state;
                    Outcome::abort((), monitor, reason)
                }
            },
        );
        if let BatchEnd::Abort { index, .. } = end {
            return report(&gs, Some(batch.start + index));
        }
    }
    report(&gs, None)
}

const SPEC: &str = "always(post(p) => value >= 0)";

fn spec_events(values: &[i64], names: &[u8]) -> Vec<TapeEvent> {
    values
        .iter()
        .zip(names.iter().cycle())
        .enumerate()
        .map(|(i, (&v, &k))| {
            let ann = Annotation::label(["p", "q", "r"][usize::from(k % 3)]);
            if k % 4 == 3 {
                TapeEvent::pre(&ann, i as u64)
            } else {
                TapeEvent::post(&ann, &Value::Int(v), i as u64)
            }
        })
        .collect()
}

fn spec_per_event(m: &Guarded<SpecMonitor>, events: &[TapeEvent]) -> Report<SpecState> {
    let mut gs = m.initial_state();
    for (i, ev) in events.iter().enumerate() {
        match m.guard_with(gs, |m, s| m.advance_tape_event(s, ev)) {
            Outcome::Continue(next) => gs = next,
            Outcome::Abort { state, .. } => return report(&state, Some(i)),
        }
    }
    report(&gs, None)
}

fn spec_batched(
    m: &Guarded<SpecMonitor>,
    events: &[TapeEvent],
    cuts: &[usize],
) -> Report<SpecState> {
    let mut gs = m.initial_state();
    let mut res = Resolution::default();
    for batch in batches(events.len(), cuts) {
        let views = OwnedViews::of(&events[batch.clone()]);
        let evs: &[EventView] = views.views();
        res.reset();
        let end = m.guard_batch(
            &mut gs,
            evs.len(),
            SpecState::core,
            SpecState::restore_core,
            |m, s, i| m.fold_view(s, &evs[i], &views, &mut res, &mut None),
        );
        m.inner().end_views(&mut gs.state, &views);
        if let BatchEnd::Abort { index, .. } = end {
            return report(&gs, Some(batch.start + index));
        }
    }
    report(&gs, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Property 1: panics, aborts and step budgets at the Nth event.
    #[test]
    fn faults_are_reported_alike_per_event_and_per_batch(
        n in 1usize..60,
        fire_at in 0u64..64,
        mode in 0u8..4,
        cuts in proptest::collection::vec(1usize..9, 0..12),
    ) {
        let (faulty, policy, budget) = match mode {
            0 => (FaultyMonitor::new(fire_at, FaultMode::Panic), FaultPolicy::Quarantine, Budget::default()),
            1 => (FaultyMonitor::new(fire_at, FaultMode::Abort("injected".into())), FaultPolicy::Quarantine, Budget::default()),
            2 => (FaultyMonitor::new(fire_at, FaultMode::Abort("injected".into())), FaultPolicy::Fatal, Budget::default()),
            _ => (FaultyMonitor::new(0, FaultMode::Panic), FaultPolicy::Fatal, Budget::unlimited().with_steps(fire_at)),
        };
        let m = Guarded::new(faulty).policy(policy).budget(budget);
        prop_assert_eq!(faulty_per_event(&m, n), faulty_batched(&m, n, &cuts));
    }

    /// Property 2: a spec folded through the batch guard is the spec
    /// folded one guarded event at a time.
    #[test]
    fn spec_folds_agree_per_event_and_per_batch(
        values in proptest::collection::vec(-3i64..40, 0..80),
        names in proptest::collection::vec(0u8..12, 1..8),
        enforcing: bool,
        fatal: bool,
        steps in 0u64..100,
        cuts in proptest::collection::vec(1usize..20, 0..12),
    ) {
        let mut spec = SpecMonitor::new("guarded", SPEC).unwrap().trace_cap(3);
        if enforcing {
            spec = spec.enforcing();
        }
        let policy = if fatal { FaultPolicy::Fatal } else { FaultPolicy::Quarantine };
        let budget = if steps < 60 { Budget::unlimited().with_steps(steps) } else { Budget::default() };
        let m = Guarded::new(spec).policy(policy).budget(budget);
        let events = spec_events(&values, &names);
        prop_assert_eq!(spec_per_event(&m, &events), spec_batched(&m, &events, &cuts));
    }
}

/// A step that faults on a corrupt state (a DFA state the automaton does
/// not have) is confined by both guards with the same last good state.
#[test]
fn a_corrupt_state_is_quarantined_alike() {
    let m =
        Guarded::new(SpecMonitor::new("guarded", SPEC).unwrap()).policy(FaultPolicy::Quarantine);
    let events = spec_events(&[1, 2, 3], &[0]);
    let corrupt = |mut gs: GuardState<SpecState>| {
        gs.state.state = 99;
        gs
    };
    let mut per_event = corrupt(m.initial_state());
    for ev in &events {
        per_event = match m.guard_with(per_event, |m, s| m.advance_tape_event(s, ev)) {
            Outcome::Continue(gs) | Outcome::Abort { state: gs, .. } => gs,
        };
    }
    let mut batched = corrupt(m.initial_state());
    let views = OwnedViews::of(&events);
    let mut res = Resolution::default();
    m.guard_batch(
        &mut batched,
        events.len(),
        SpecState::core,
        SpecState::restore_core,
        |m, s, i| m.fold_view(s, &views.views()[i], &views, &mut res, &mut None),
    );
    assert!(!batched.health.is_ok(), "{:?}", batched.health);
    assert_eq!(report(&per_event, None), report(&batched, None));
}
