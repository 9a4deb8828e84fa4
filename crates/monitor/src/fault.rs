//! Fault isolation for monitors: policies, budgets, and quarantine.
//!
//! The paper's monitoring functions are *pure* `MS → MS` transformers, and
//! Theorem 7.7 guarantees they cannot change the program's answer. A
//! deployable monitor, however, is arbitrary code: it may panic, it may
//! loop, it may burn more time than the monitored program itself. This
//! module makes attaching such a monitor safe:
//!
//! * [`FaultPolicy`] decides what a monitor fault means — [`Fatal`]
//!   (propagate, the historical behaviour) or [`Quarantine`] (confine);
//! * [`Budget`] bounds how many monitoring events a monitor may handle and
//!   how much wall-clock time its hooks may consume in total;
//! * [`Guarded`] wraps any [`Monitor`] and enforces both: each hook call
//!   runs under [`std::panic::catch_unwind`], and a monitor that panics
//!   (under `Quarantine`) or exceeds its budget **degrades to the identity
//!   monitor** for the rest of the run, keeping its last good state.
//!
//! Degradation is sound by construction: the identity monitor is the
//! degenerate case of Theorem 7.7, so from the fault onward the monitored
//! run is answer-equivalent to the standard run — the property tests in
//! `tests/fault_isolation.rs` check exactly this. What happened is not
//! hidden: the wrapper records a per-monitor [`Health`] that session
//! reports surface.
//!
//! [`Fatal`]: FaultPolicy::Fatal
//! [`Quarantine`]: FaultPolicy::Quarantine

use crate::scope::Scope;
use crate::spec::{MergeMonitor, Monitor, Outcome};
use monsem_core::Value;
use monsem_syntax::{Annotation, Expr};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a monitor fault (panic) means for the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// The panic propagates and takes the evaluator down — the behaviour
    /// of an unwrapped monitor, and the default.
    #[default]
    Fatal,
    /// The panic is caught; the monitor keeps its last good state, is
    /// marked [`Health::Quarantined`], and behaves as the identity monitor
    /// for the rest of the run. Abort verdicts from the wrapped monitor
    /// are confined the same way (recorded as [`Health::Aborted`], not
    /// propagated), so a quarantined monitor can *never* change the
    /// answer.
    Quarantine,
}

/// Resource bounds for one monitor. `Budget::default()` is unlimited.
///
/// Budgets are *reported, not fatal*: an over-budget monitor stops being
/// consulted (identity degradation) and its health says so, but the
/// program runs to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Maximum number of monitoring events (pre and post each count as
    /// one) the monitor may handle.
    pub steps: Option<u64>,
    /// Maximum total wall-clock time the monitor's hooks may consume.
    /// Checked after each hook returns, so a hook that diverges outright
    /// is beyond this bound — pair the budget with `Quarantine` and an
    /// external watchdog if the monitor is fully untrusted.
    pub wall: Option<Duration>,
}

impl Budget {
    /// No bounds at all.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Bounds the number of monitoring events.
    pub fn with_steps(mut self, steps: u64) -> Budget {
        self.steps = Some(steps);
        self
    }

    /// Bounds the total wall-clock time spent in hooks.
    pub fn with_wall(mut self, wall: Duration) -> Budget {
        self.wall = Some(wall);
        self
    }
}

/// Per-monitor health, reported by [`Monitor::health`] and surfaced in
/// session reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// The monitor handled every event it was offered.
    Ok,
    /// The monitor returned an [`Outcome::Abort`] verdict. Under
    /// [`FaultPolicy::Fatal`] the abort also stops evaluation (this
    /// variant is then only visible in the state carried by the abort);
    /// under [`FaultPolicy::Quarantine`] the verdict is confined and the
    /// run continues without the monitor.
    Aborted(String),
    /// The monitor panicked and was confined by
    /// [`FaultPolicy::Quarantine`]; the payload is the panic message.
    Quarantined(String),
    /// The monitor exceeded its [`Budget`] and stopped being consulted.
    OverBudget(String),
}

impl Health {
    /// Whether the monitor is still being consulted.
    pub fn is_ok(&self) -> bool {
        matches!(self, Health::Ok)
    }
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Health::Ok => f.write_str("ok"),
            Health::Aborted(reason) => write!(f, "aborted: {reason}"),
            Health::Quarantined(reason) => write!(f, "quarantined: {reason}"),
            Health::OverBudget(reason) => write!(f, "over budget: {reason}"),
        }
    }
}

/// Shared budget accounting for one fork: every shard of the fork (and
/// the fork-point state itself) charges the same atomic totals, so the
/// step and wall budgets meter the *whole* monitored history exactly as
/// the sequential machine does — not each shard in isolation.
///
/// Installed by [`MergeMonitor::fork`] on [`Guarded`] states; sequential
/// runs never carry one.
#[derive(Debug, Default)]
pub struct BudgetLedger {
    /// Monitoring events charged across every holder of this ledger.
    events: AtomicU64,
    /// Hook wall-clock time charged across every holder, in nanoseconds.
    spent_nanos: AtomicU64,
}

impl BudgetLedger {
    /// A ledger seeded with the accounting already on record at the fork
    /// point, so pre-fork history counts against the budget too.
    pub fn seeded(events: u64, spent: Duration) -> BudgetLedger {
        BudgetLedger {
            events: AtomicU64::new(events),
            spent_nanos: AtomicU64::new(duration_nanos(spent)),
        }
    }

    /// Adds `events` and `spent` to the shared totals, returning the new
    /// totals `(events, spent)`.
    fn charge(&self, events: u64, spent: Duration) -> (u64, Duration) {
        let e = self.events.fetch_add(events, Ordering::Relaxed) + events;
        let n = self
            .spent_nanos
            .fetch_add(duration_nanos(spent), Ordering::Relaxed)
            + duration_nanos(spent);
        (e, Duration::from_nanos(n))
    }

    /// The shared event total.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// The shared hook-time total.
    pub fn spent(&self) -> Duration {
        Duration::from_nanos(self.spent_nanos.load(Ordering::Relaxed))
    }
}

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The state of a [`Guarded`] monitor: the wrapped monitor's state plus
/// the bookkeeping the guard needs.
#[derive(Debug, Clone)]
pub struct GuardState<S> {
    /// The wrapped monitor's state — its *last good* state once the
    /// monitor is no longer [`Health::Ok`].
    pub state: S,
    /// Whether the monitor is still being consulted, and if not, why.
    pub health: Health,
    /// Monitoring events handled so far (pre + post). Under fork-join
    /// this is the holder's *local* count; the [`BudgetLedger`], when
    /// present, carries the global total the budget is checked against.
    pub events: u64,
    /// Total wall-clock time spent inside the monitor's hooks (local
    /// share, as for `events`).
    pub spent: Duration,
    /// The fork-shared budget ledger, installed by
    /// [`MergeMonitor::fork`]. `None` in sequential runs, where the local
    /// fields are the whole story.
    pub ledger: Option<Arc<BudgetLedger>>,
}

/// Wraps a monitor with a [`FaultPolicy`] and a [`Budget`].
///
/// `Guarded<M>` is itself a [`Monitor`] — same name, same annotation
/// syntax — so it slots into every engine, [`Compose`](crate::Compose)
/// cascade, and [`MonitorStack`](crate::MonitorStack) unchanged. Its state
/// is a [`GuardState`] around `M`'s state.
///
/// ```
/// use monsem_monitor::fault::{Budget, FaultPolicy, Guarded, Health};
/// use monsem_monitor::machine::eval_monitored;
/// use monsem_monitor::{Monitor, Scope};
/// use monsem_syntax::{parse_expr, Annotation, Expr};
///
/// /// Panics the third time it sees an event.
/// struct Flaky;
/// impl Monitor for Flaky {
///     type State = u32;
///     fn name(&self) -> &str { "flaky" }
///     fn initial_state(&self) -> u32 { 0 }
///     fn pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, n: u32) -> u32 {
///         if n == 2 { panic!("injected") }
///         n + 1
///     }
/// }
///
/// let prog = parse_expr("{a}:1 + {b}:2 + {c}:3 + {d}:4")?;
/// let guarded = Guarded::new(Flaky).policy(FaultPolicy::Quarantine);
/// let (answer, s) = eval_monitored(&prog, &guarded)?;
/// assert_eq!(answer, monsem_core::Value::Int(10)); // answer preserved
/// assert_eq!(s.state, 2);                          // last good state
/// assert!(matches!(s.health, Health::Quarantined(_)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Guarded<M> {
    inner: M,
    policy: FaultPolicy,
    budget: Budget,
}

impl<M: Monitor> Guarded<M> {
    /// Guards `inner` with the default policy ([`FaultPolicy::Fatal`]) and
    /// an unlimited budget — behaviourally identical to the bare monitor
    /// until configured.
    pub fn new(inner: M) -> Self {
        Guarded {
            inner,
            policy: FaultPolicy::default(),
            budget: Budget::default(),
        }
    }

    /// Sets the fault policy.
    pub fn policy(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The wrapped monitor.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Charges monitoring work done *outside* the hook path against the
    /// budget.
    ///
    /// [`Guarded`]'s own accounting only sees the time spent inside
    /// hooks, so a driver that discharges monitoring duties without
    /// firing hooks — a tiered engine running a promoted residual, where
    /// a whole monitor-pure stretch of transitions executes as compiled
    /// code — would otherwise run on an unmetered clock. Such a driver
    /// calls this with the stretch's event count and elapsed monitoring
    /// time; the step and wall budgets then degrade the monitor exactly
    /// as if the work had gone through [`Monitor::try_pre`] /
    /// [`Monitor::try_post`]. A monitor that is already degraded absorbs
    /// the charge without change.
    pub fn charge(&self, gs: &mut GuardState<M::State>, events: u64, elapsed: Duration) {
        if !gs.health.is_ok() {
            return;
        }
        gs.events += events;
        gs.spent += elapsed;
        let (total_events, total_spent) = match &gs.ledger {
            Some(ledger) => ledger.charge(events, elapsed),
            None => (gs.events, gs.spent),
        };
        if let Some(max) = self.budget.steps {
            if total_events > max {
                gs.health = Health::OverBudget(format!("step budget of {max} events exhausted"));
                return;
            }
        }
        if let Some(max) = self.budget.wall {
            if total_spent > max {
                gs.health = Health::OverBudget(format!("wall budget of {max:?} exhausted"));
            }
        }
    }

    /// Runs one hook invocation under the guard: budget check, panic
    /// confinement, health bookkeeping. `hook` receives the wrapped
    /// monitor's state and returns its verdict.
    ///
    /// This is the path [`Monitor::try_pre`]/[`Monitor::try_post`] take,
    /// and the one-event case of [`Guarded::guard_batch`]: the last good
    /// state is a clone of the state taken before the hook runs. It is
    /// public so callers that deliver events from *outside* an
    /// evaluation get identical policy, budget, and health behaviour.
    pub fn guard_with(
        &self,
        gs: GuardState<M::State>,
        hook: impl FnOnce(&M, M::State) -> Outcome<M::State>,
    ) -> Outcome<GuardState<M::State>> {
        let GuardState {
            state,
            health,
            events,
            spent,
            ledger,
        } = gs;
        let mut cell = GuardState {
            state: Some(state),
            health,
            events,
            spent,
            ledger,
        };
        let mut hook = Some(hook);
        let end = self.run(
            &mut cell,
            1,
            Option::clone,
            |s, saved| *s = saved,
            |m, s, _| {
                let hook = hook.take().expect("one hook per event");
                match hook(m, s.take().expect("the state is present")) {
                    Outcome::Continue(next) => {
                        *s = Some(next);
                        Outcome::Continue(())
                    }
                    Outcome::Abort {
                        state,
                        monitor,
                        reason,
                    } => {
                        *s = Some(state);
                        Outcome::abort((), monitor, reason)
                    }
                }
            },
        );
        let gs = GuardState {
            state: cell.state.expect("the state is restored after a fault"),
            health: cell.health,
            events: cell.events,
            spent: cell.spent,
            ledger: cell.ledger,
        };
        match end {
            BatchEnd::Continue => Outcome::Continue(gs),
            BatchEnd::Abort {
                monitor, reason, ..
            } => Outcome::Abort {
                state: gs,
                monitor,
                reason,
            },
        }
    }

    /// Runs `events` in-place hook invocations under one guard: the batch
    /// form of [`Guarded::guard_with`], with the same policy, budget and
    /// health logic.
    ///
    /// * The step budget stays exact per event: the event past the bound
    ///   is not delivered, and the monitor degrades there.
    /// * Panic confinement and the clock run once per batch. Before each
    ///   event the guard takes `snapshot` of the state, so a panic
    ///   mid-batch `restore`s the state after the last good event. The
    ///   snapshot need only cover what a faulting `step` may have
    ///   changed, which for a monitor with a `Copy` core is that core.
    /// * The wall budget is charged and checked once per batch.
    /// * An abort verdict ends the batch at its event; under
    ///   [`FaultPolicy::Fatal`] it is returned with the event's index.
    ///
    /// `step(monitor, state, i)` delivers event `i` of the batch. Once
    /// the monitor is degraded the rest of the batch is skipped: the
    /// identity monitor.
    pub fn guard_batch<C>(
        &self,
        gs: &mut GuardState<M::State>,
        events: usize,
        snapshot: impl Fn(&M::State) -> C,
        restore: impl Fn(&mut M::State, C),
        step: impl FnMut(&M, &mut M::State, usize) -> Outcome<()>,
    ) -> BatchEnd {
        self.run(gs, events, snapshot, restore, step)
    }

    /// The one guard loop behind [`Guarded::guard_with`] and
    /// [`Guarded::guard_batch`], generic over how the state is held.
    fn run<T, C>(
        &self,
        gs: &mut GuardState<T>,
        n: usize,
        snapshot: impl Fn(&T) -> C,
        restore: impl Fn(&mut T, C),
        mut step: impl FnMut(&M, &mut T, usize) -> Outcome<()>,
    ) -> BatchEnd {
        // A degraded monitor is the identity monitor: no hook call, no
        // state change, no verdict.
        if !gs.health.is_ok() || n == 0 {
            return BatchEnd::Continue;
        }
        let GuardState {
            state,
            health,
            events,
            spent,
            ledger,
        } = gs;
        let mut saved: Option<C> = None;
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            for i in 0..n {
                if let Some(max) = self.budget.steps {
                    let over = match ledger {
                        // Reserve the event slot on the shared ledger
                        // first, so concurrent shards can never jointly
                        // exceed the bound.
                        Some(ledger) => ledger.charge(1, Duration::ZERO).0 > max,
                        None => *events >= max,
                    };
                    if over {
                        *health =
                            Health::OverBudget(format!("step budget of {max} events exhausted"));
                        return None;
                    }
                }
                *events += 1;
                // The last good state stays on this side of the unwind
                // boundary.
                saved = Some(snapshot(state));
                if let Outcome::Abort {
                    monitor, reason, ..
                } = step(&self.inner, state, i)
                {
                    return Some((i, monitor, reason));
                }
            }
            None
        }));
        let elapsed = started.elapsed();
        *spent += elapsed;
        match result {
            Ok(None) => {
                if let (Some(max), true) = (self.budget.wall, health.is_ok()) {
                    let total_spent = match ledger {
                        Some(ledger) => ledger.charge(0, elapsed).1,
                        None => *spent,
                    };
                    if total_spent > max {
                        *health = Health::OverBudget(format!("wall budget of {max:?} exhausted"));
                    }
                }
                BatchEnd::Continue
            }
            Ok(Some((index, monitor, reason))) => {
                *health = Health::Aborted(reason.clone());
                match self.policy {
                    FaultPolicy::Fatal => BatchEnd::Abort {
                        index,
                        monitor,
                        reason,
                    },
                    // Confined: the verdict is recorded but the run goes
                    // on without the monitor.
                    FaultPolicy::Quarantine => BatchEnd::Continue,
                }
            }
            Err(payload) => {
                if let Some(last_good) = saved {
                    restore(state, last_good);
                }
                match self.policy {
                    FaultPolicy::Fatal => std::panic::resume_unwind(payload),
                    FaultPolicy::Quarantine => {
                        *health = Health::Quarantined(panic_message(payload.as_ref()));
                        BatchEnd::Continue
                    }
                }
            }
        }
    }
}

/// How a [`Guarded::guard_batch`] run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchEnd {
    /// The batch was delivered, or the monitor degraded (panic or abort
    /// confined by [`FaultPolicy::Quarantine`], or a budget exhausted)
    /// and skipped the rest of it.
    Continue,
    /// Event `index` produced an abort verdict and the policy is
    /// [`FaultPolicy::Fatal`]: the events after it were not delivered.
    Abort {
        /// The aborting event's index in the batch.
        index: usize,
        /// The monitor that aborted.
        monitor: String,
        /// Why.
        reason: String,
    },
}

/// Best-effort rendering of a panic payload (`panic!` with a literal gives
/// `&str`, with a format string gives `String`).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<M: Monitor> Monitor for Guarded<M> {
    type State = GuardState<M::State>;

    fn name(&self) -> &str {
        // Same name as the wrapped monitor, so reports and abort reasons
        // read naturally.
        self.inner.name()
    }

    fn accepts(&self, ann: &Annotation) -> bool {
        self.inner.accepts(ann)
    }

    fn accepts_event(&self, ann: &Annotation, phase: crate::spec::HookPhase) -> bool {
        self.inner.accepts_event(ann, phase)
    }

    fn initial_state(&self) -> Self::State {
        GuardState {
            state: self.inner.initial_state(),
            health: Health::Ok,
            events: 0,
            spent: Duration::ZERO,
            ledger: None,
        }
    }

    fn try_pre(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        state: Self::State,
    ) -> Outcome<Self::State> {
        self.guard_with(state, |m, s| m.try_pre(ann, expr, scope, s))
    }

    fn try_post(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        value: &Value,
        state: Self::State,
    ) -> Outcome<Self::State> {
        self.guard_with(state, |m, s| m.try_post(ann, expr, scope, value, s))
    }

    // The pure hooks collapse the verdict: machines never call these on a
    // Guarded monitor (they call try_*), but composition of pure paths
    // might. Abort verdicts degrade to "record and continue" here because
    // a pure hook has no way to veto.
    fn pre(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        state: Self::State,
    ) -> Self::State {
        match self.try_pre(ann, expr, scope, state) {
            Outcome::Continue(s) | Outcome::Abort { state: s, .. } => s,
        }
    }

    fn post(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        value: &Value,
        state: Self::State,
    ) -> Self::State {
        match self.try_post(ann, expr, scope, value, state) {
            Outcome::Continue(s) | Outcome::Abort { state: s, .. } => s,
        }
    }

    fn render_state(&self, state: &Self::State) -> String {
        let inner = self.inner.render_state(&state.state);
        if state.health.is_ok() {
            inner
        } else {
            format!("{inner} [{}]", state.health)
        }
    }

    fn health(&self, state: &Self::State) -> Health {
        state.health.clone()
    }
}

impl<M: MergeMonitor> MergeMonitor for Guarded<M> {
    /// Installs the fork-shared [`BudgetLedger`], seeded with the
    /// accounting already on record, whenever the budget has a bound.
    /// Every shard's [`MergeMonitor::split`] then carries the same ledger,
    /// so the step/wall budget meters the whole monitored history — shards
    /// included — exactly as the sequential machine's linear accounting
    /// does. Later and nested forks reuse the ledger already in place.
    fn fork(&self, mut gs: Self::State) -> Self::State {
        let bounded = self.budget.steps.is_some() || self.budget.wall.is_some();
        if bounded && gs.ledger.is_none() {
            gs.ledger = Some(Arc::new(BudgetLedger::seeded(gs.events, gs.spent)));
        }
        gs.state = self.inner.fork(gs.state);
        gs
    }

    /// A shard starts healthy with the inner split state, *zeroed* local
    /// accounting (each shard's events and spent time are its own delta,
    /// summed back at the join), and the fork's shared ledger, against
    /// which the budget is checked globally.
    fn split(&self, gs: &Self::State) -> Self::State {
        GuardState {
            state: self.inner.split(&gs.state),
            health: gs.health.clone(),
            events: 0,
            spent: Duration::ZERO,
            ledger: gs.ledger.clone(),
        }
    }

    /// Accounting (events, spent) always sums. The inner states merge only
    /// while the accumulated side is healthy; once a fault is on record the
    /// monitor has degraded to the identity monitor, so the right-hand
    /// delta is discarded — exactly what the sequential machine would have
    /// recorded, since a degraded monitor's hooks stop firing. The first
    /// non-[`Health::Ok`] health in shard order wins.
    fn merge(&self, mut left: Self::State, right: Self::State) -> Self::State {
        left.events += right.events;
        left.spent += right.spent;
        if left.health.is_ok() {
            left.state = self.inner.merge(left.state, right.state);
            left.health = right.health;
        }
        left
    }

    /// An abort verdict from the inner merge (a checking monitor whose
    /// combined shard history violates its spec) is subject to the same
    /// [`FaultPolicy`] as hook verdicts: `Fatal` propagates, `Quarantine`
    /// records [`Health::Aborted`] and continues.
    fn merge_outcome(&self, mut left: Self::State, right: Self::State) -> Outcome<Self::State> {
        left.events += right.events;
        left.spent += right.spent;
        if !left.health.is_ok() {
            return Outcome::Continue(left);
        }
        match self.inner.merge_outcome(left.state, right.state) {
            Outcome::Continue(s) => {
                left.state = s;
                left.health = right.health;
                Outcome::Continue(left)
            }
            Outcome::Abort {
                state,
                monitor,
                reason,
            } => {
                left.state = state;
                left.health = Health::Aborted(reason.clone());
                match self.policy {
                    FaultPolicy::Fatal => Outcome::Abort {
                        state: left,
                        monitor,
                        reason,
                    },
                    FaultPolicy::Quarantine => Outcome::Continue(left),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monsem_core::Env;

    /// Counts events; panics at `fail_at` if set; aborts at `abort_at` if
    /// set.
    #[derive(Debug, Clone)]
    struct Probe {
        fail_at: Option<u64>,
        abort_at: Option<u64>,
    }

    impl Monitor for Probe {
        type State = u64;
        fn name(&self) -> &str {
            "probe"
        }
        fn initial_state(&self) -> u64 {
            0
        }
        fn try_pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, n: u64) -> Outcome<u64> {
            if Some(n) == self.fail_at {
                panic!("probe panicked at event {n}");
            }
            if Some(n) == self.abort_at {
                return Outcome::abort(n, "probe", format!("abort at event {n}"));
            }
            Outcome::Continue(n + 1)
        }
    }

    fn fire(
        m: &impl Monitor<State = GuardState<u64>>,
        s: GuardState<u64>,
    ) -> Outcome<GuardState<u64>> {
        let env = Env::empty();
        let scope = Scope::pure(&env);
        m.try_pre(&Annotation::label("A"), &Expr::int(1), &scope, s)
    }

    #[test]
    fn quarantine_confines_a_panic_and_keeps_last_good_state() {
        let m = Guarded::new(Probe {
            fail_at: Some(2),
            abort_at: None,
        })
        .policy(FaultPolicy::Quarantine);
        let mut s = m.initial_state();
        for _ in 0..5 {
            s = match fire(&m, s) {
                Outcome::Continue(s) => s,
                other => panic!("unexpected verdict {other:?}"),
            };
        }
        assert_eq!(s.state, 2, "state frozen at the last good value");
        assert_eq!(s.events, 3, "two good events plus the faulty one");
        assert!(matches!(&s.health, Health::Quarantined(msg) if msg.contains("event 2")));
        assert_eq!(
            m.render_state(&s),
            "2 [quarantined: probe panicked at event 2]"
        );
    }

    #[test]
    fn fatal_abort_propagates_with_the_reason() {
        let m = Guarded::new(Probe {
            fail_at: None,
            abort_at: Some(1),
        });
        let s = m.initial_state();
        let Outcome::Continue(s) = fire(&m, s) else {
            panic!("first event continues");
        };
        match fire(&m, s) {
            Outcome::Abort {
                state,
                monitor,
                reason,
            } => {
                assert_eq!(monitor, "probe");
                assert_eq!(reason, "abort at event 1");
                assert!(matches!(state.health, Health::Aborted(_)));
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn quarantine_confines_abort_verdicts_too() {
        let m = Guarded::new(Probe {
            fail_at: None,
            abort_at: Some(0),
        })
        .policy(FaultPolicy::Quarantine);
        let mut s = m.initial_state();
        for _ in 0..3 {
            s = match fire(&m, s) {
                Outcome::Continue(s) => s,
                other => panic!("unexpected verdict {other:?}"),
            };
        }
        assert!(matches!(s.health, Health::Aborted(_)));
        assert_eq!(s.state, 0);
    }

    #[test]
    fn step_budget_degrades_without_stopping() {
        let m = Guarded::new(Probe {
            fail_at: None,
            abort_at: None,
        })
        .budget(Budget::unlimited().with_steps(3));
        let mut s = m.initial_state();
        for _ in 0..10 {
            s = match fire(&m, s) {
                Outcome::Continue(s) => s,
                other => panic!("unexpected verdict {other:?}"),
            };
        }
        assert_eq!(s.state, 3, "only the budgeted events ran");
        assert!(matches!(&s.health, Health::OverBudget(msg) if msg.contains("3 events")));
    }

    #[test]
    fn wall_budget_marks_slow_monitors() {
        /// Burns ~1ms per event.
        #[derive(Debug)]
        struct Slow;
        impl Monitor for Slow {
            type State = u64;
            fn name(&self) -> &str {
                "slow"
            }
            fn initial_state(&self) -> u64 {
                0
            }
            fn pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, n: u64) -> u64 {
                let t = Instant::now();
                while t.elapsed() < Duration::from_millis(1) {
                    std::hint::spin_loop();
                }
                n + 1
            }
        }
        let m =
            Guarded::new(Slow).budget(Budget::unlimited().with_wall(Duration::from_micros(100)));
        let env = Env::empty();
        let scope = Scope::pure(&env);
        let mut s = m.initial_state();
        for _ in 0..5 {
            s = match m.try_pre(&Annotation::label("A"), &Expr::int(1), &scope, s) {
                Outcome::Continue(s) => s,
                other => panic!("unexpected verdict {other:?}"),
            };
        }
        assert_eq!(s.state, 1, "degraded after the first over-budget event");
        assert!(matches!(s.health, Health::OverBudget(_)));
        assert!(s.spent >= Duration::from_millis(1));
    }

    #[test]
    fn charged_residual_stretches_count_against_the_wall_budget() {
        // Regression: the wall budget used to be checked only around
        // hooks, so monitoring time spent in compiled (hook-free)
        // stretches never counted. `charge` closes the gap.
        let m = Guarded::new(Probe {
            fail_at: None,
            abort_at: None,
        })
        .budget(Budget::unlimited().with_wall(Duration::from_millis(1)));
        let mut s = m.initial_state();
        s = match fire(&m, s) {
            Outcome::Continue(s) => s,
            other => panic!("unexpected verdict {other:?}"),
        };
        assert!(s.health.is_ok());
        m.charge(&mut s, 10, Duration::from_millis(2));
        assert_eq!(s.events, 11);
        assert!(matches!(s.health, Health::OverBudget(_)));
        // Degraded: further hooks are the identity.
        let frozen = s.state;
        s = match fire(&m, s) {
            Outcome::Continue(s) => s,
            other => panic!("unexpected verdict {other:?}"),
        };
        assert_eq!(s.state, frozen);
        // Further charges are absorbed without double-reporting.
        m.charge(&mut s, 1, Duration::ZERO);
        assert_eq!(s.events, 11);
    }

    #[test]
    fn charge_meters_the_step_budget_too() {
        let m = Guarded::new(Probe {
            fail_at: None,
            abort_at: None,
        })
        .budget(Budget::unlimited().with_steps(5));
        let mut s = m.initial_state();
        m.charge(&mut s, 5, Duration::ZERO);
        assert!(s.health.is_ok(), "exactly the budget is allowed");
        m.charge(&mut s, 1, Duration::ZERO);
        assert!(matches!(&s.health, Health::OverBudget(msg) if msg.contains("5 events")));
    }

    #[test]
    fn unconfigured_guard_is_transparent() {
        let m = Guarded::new(Probe {
            fail_at: None,
            abort_at: None,
        });
        let mut s = m.initial_state();
        for _ in 0..4 {
            s = match fire(&m, s) {
                Outcome::Continue(s) => s,
                other => panic!("unexpected verdict {other:?}"),
            };
        }
        assert_eq!(s.state, 4);
        assert!(s.health.is_ok());
        assert_eq!(m.health(&s), Health::Ok);
        assert_eq!(m.render_state(&s), "4");
    }
}
