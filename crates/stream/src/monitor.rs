//! The stream-spec-as-[`Monitor`] adapter.
//!
//! [`StreamMonitor`] runs a compiled [`StreamSpec`] against the event
//! stream of a monitored evaluation. In the paper's factoring: **MSyn**
//! is the stream declaration language (gated per namespace and hook
//! phase), **MAlg** is [`StreamState`] — ring buffers, panes, monotonic
//! deques, trigger edges, deadline clocks — and **MFun** is
//! [`StreamMonitor::step_event`], a constant-time state transformer per
//! observed event.
//!
//! An *observing* monitor records trigger firings and deadline misses in
//! its state and never vetoes — answer-preserving in the sense of
//! Theorem 7.7. [`StreamMonitor::enforcing`] upgrades a trigger firing
//! to an [`Outcome::Abort`]; deadline misses are always observed only
//! (a late heartbeat is evidence about the *past* — aborting cannot
//! un-miss it).
//!
//! # Time
//!
//! Every observed event gets a monotone millisecond timestamp, resolved
//! in priority order: the tape timestamp (format v2), the monitor's wall
//! clock (see [`StreamMonitor::with_wall_clock`]), else *logical time* —
//! the observed-event ordinal. Offline checking of an untimed tape and a
//! live run without a wall clock therefore agree exactly.

use crate::compile::{RStreamKind, StreamSpec};
use crate::eval::{
    eval_cond, eval_expr, pred_holds, AggState, Contribution, DeadlineState, EvView, StreamEvent,
};
use monsem_core::Value;
use monsem_monitor::tape::{
    same_text, value_is_unsorted, Check, EventView, Resolution, Strings, TapeEvent, TapeFold,
    TapePhase,
};
use monsem_monitor::{HookPhase, MergeMonitor, Monitor, Outcome, Scope};
use monsem_syntax::{Annotation, Expr, Ident, Namespace};
use monsem_tspec::SpecError;
use std::sync::Arc;
use std::time::Instant;

/// The bound on the firings retained in a [`StreamState`] (the totals
/// keep counting past it).
pub const DEFAULT_FIRINGS_CAP: usize = 256;

/// Default bound on the per-shard replay tape kept by states born from
/// [`MergeMonitor::split`], mirroring tspec's replay cap.
pub const DEFAULT_REPLAY_CAP: usize = 8192;

/// A compiled stream specification running as a monitor.
#[derive(Debug, Clone)]
pub struct StreamMonitor {
    name: String,
    namespace: Namespace,
    spec: Arc<StreamSpec>,
    enforcing: bool,
    replay_cap: usize,
    epoch: Option<Instant>,
}

/// One trigger firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// The trigger's declared name.
    pub trigger: String,
    /// Ordinal (1-based) of the observed event that fired it; one past
    /// the last ordinal for end-of-trace (`done`) firings.
    pub at: u64,
    /// The tape step index of the firing event, when replayed from a
    /// tape.
    pub step: Option<u64>,
    /// The event's resolved timestamp (ms).
    pub time: u64,
    /// Rendered reason, including a snapshot of the stream values.
    pub reason: String,
}

/// One event retained in a shard's replay tape: exactly the inputs
/// [`StreamMonitor::step_event`] consumes, so the join replays the shard
/// deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEvent {
    /// The hook phase.
    pub phase: TapePhase,
    /// The annotation name.
    pub name: String,
    /// The observed integer value, if any.
    pub int: Option<i64>,
    /// Whether the observed value was a definitely-unsorted list.
    pub unsorted: bool,
    /// The event's clock reading (tape timestamp or wall clock). `None`
    /// under logical time, which the join re-derives from the merged
    /// event ordinal: a shard's own ordinals count from the fork point.
    pub time: Option<u64>,
    /// The tape step index, when the shard itself replayed from a tape.
    pub step: Option<u64>,
}

/// A shard's bounded replay tape (the stream analogue of tspec's
/// [`ShardTape`](monsem_tspec::ShardTape)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamShardTape {
    /// Retained events, oldest first; at most `cap`.
    pub events: Vec<ShardEvent>,
    /// Events observed but not retained (cap overflow). Non-zero tapes
    /// no longer support exact replay.
    pub dropped: u64,
    /// The observed-event count at the split point.
    pub origin_events: u64,
    /// The fired-total at the split point.
    pub origin_fired: u64,
    /// The missed-total at the split point.
    pub origin_missed: u64,
    /// The retention bound.
    pub cap: usize,
}

impl StreamShardTape {
    fn new(origin: &StreamState, cap: usize) -> StreamShardTape {
        StreamShardTape {
            events: Vec::new(),
            dropped: 0,
            origin_events: origin.events,
            origin_fired: origin.fired_total,
            origin_missed: origin.missed_total,
            cap,
        }
    }

    fn push(&mut self, ev: ShardEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

/// The monitor state: per-stream aggregate state, current values,
/// trigger edges, deadline clocks, and the recorded verdict trail.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamState {
    /// Per-stream evaluator state, parallel to
    /// [`StreamSpec::streams`].
    pub aggs: Vec<AggState>,
    /// Current value of each stream (undefined aggregates are `None`).
    pub values: Vec<Option<i64>>,
    /// Previous truth of each trigger (for rising-edge detection).
    pub prev: Vec<bool>,
    /// Retained firings, oldest first (at most
    /// [`DEFAULT_FIRINGS_CAP`]).
    pub firings: Vec<Firing>,
    /// Total firings, including any past the retention cap.
    pub fired_total: u64,
    /// Per-deadline clocks, parallel to [`StreamSpec::deadlines`].
    pub deadlines: Vec<DeadlineState>,
    /// Total deadline misses.
    pub missed_total: u64,
    /// The first miss's rendered reason.
    pub first_miss: Option<String>,
    /// Observed events (after namespace and phase gating).
    pub events: u64,
    /// The last resolved timestamp (monotone clamp floor).
    pub last_time: u64,
    /// The bounded replay tape since this state was born from
    /// [`MergeMonitor::split`]; `None` outside fork-join evaluation.
    pub tape: Option<StreamShardTape>,
    /// Whether this state passed through a lossy (non-replay) merge: the
    /// aggregate values are then a conservative continuation. Recorded
    /// firings and misses remain authoritative.
    pub lossy: bool,
}

impl StreamMonitor {
    /// Parses and compiles `src` into an *observing* monitor named
    /// `name`, watching the anonymous namespace, using logical time.
    ///
    /// # Errors
    ///
    /// Parse or compile errors, with byte offsets.
    pub fn new(name: impl Into<String>, src: &str) -> Result<Self, SpecError> {
        Ok(Self::from_spec(name, StreamSpec::parse(src)?))
    }

    /// Wraps an already-compiled [`StreamSpec`].
    pub fn from_spec(name: impl Into<String>, spec: StreamSpec) -> Self {
        StreamMonitor {
            name: name.into(),
            namespace: Namespace::anonymous(),
            spec: Arc::new(spec),
            enforcing: false,
            replay_cap: DEFAULT_REPLAY_CAP,
            epoch: None,
        }
    }

    /// Upgrades to an enforcing monitor: a trigger firing aborts the
    /// evaluation. Deadline misses stay observational.
    pub fn enforcing(mut self) -> Self {
        self.enforcing = true;
        self
    }

    /// Restricts the monitor to annotations in `namespace`.
    pub fn in_namespace(mut self, namespace: Namespace) -> Self {
        self.namespace = namespace;
        self
    }

    /// Bounds the per-shard replay tape (default
    /// [`DEFAULT_REPLAY_CAP`]).
    pub fn replay_cap(mut self, cap: usize) -> Self {
        self.replay_cap = cap;
        self
    }

    /// Attaches a wall clock: live events without a tape timestamp are
    /// stamped with milliseconds since this call. Without it the monitor
    /// uses *logical* time (the observed-event ordinal), which is
    /// deterministic.
    pub fn with_wall_clock(mut self) -> Self {
        self.epoch = Some(Instant::now());
        self
    }

    /// The compiled spec.
    pub fn spec(&self) -> &Arc<StreamSpec> {
        &self.spec
    }

    /// The namespace this monitor watches.
    pub fn namespace(&self) -> &Namespace {
        &self.namespace
    }

    /// Whether trigger firings abort evaluation.
    pub fn is_enforcing(&self) -> bool {
        self.enforcing
    }

    fn ours(&self, ann: &Annotation) -> bool {
        ann.namespace == self.namespace
    }

    fn wall_now(&self) -> Option<u64> {
        self.epoch.map(|e| e.elapsed().as_millis() as u64)
    }

    fn observes_phase(&self, phase: TapePhase) -> bool {
        match phase {
            TapePhase::Pre => self.spec.observes_pre(),
            TapePhase::Post => self.spec.observes_post(),
            TapePhase::Done => false,
        }
    }

    fn render_values(&self, values: &[Option<i64>]) -> String {
        let mut out = String::new();
        for (s, v) in self.spec.streams().iter().zip(values) {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&s.name);
            out.push('=');
            match v {
                Some(n) => out.push_str(&n.to_string()),
                None => out.push('?'),
            }
        }
        out
    }

    fn describe_event<E: StreamEvent + ?Sized>(ev: &E) -> String {
        match (ev.phase(), ev.int()) {
            (TapePhase::Pre, _) => format!("pre {}", ev.name()),
            (TapePhase::Post, Some(v)) => format!("post {} = {v}", ev.name()),
            (TapePhase::Post, None) => format!("post {}", ev.name()),
            (TapePhase::Done, _) => "done".to_string(),
        }
    }

    /// Advances the state by one observed event. Shared by the live
    /// hooks, tape replay, and shard-merge replay, so all three evolve
    /// states identically.
    ///
    /// `time_hint` is the event's timestamp if one is known (tape v2, or
    /// a shard replay of a clock reading); otherwise the wall clock or
    /// logical time fills in. Events at a phase the spec cannot react to
    /// are not observed at all — the state is returned untouched, which
    /// is exactly the contract [`Monitor::accepts_event`] gating relies
    /// on.
    pub fn step_event(
        &self,
        mut s: StreamState,
        ev: &EvView<'_>,
        step: Option<u64>,
        time_hint: Option<u64>,
    ) -> Outcome<StreamState> {
        match self.step_in_place(&mut s, ev, step, time_hint) {
            Some(reason) => Outcome::abort(s, self.name.clone(), reason),
            None => Outcome::Continue(s),
        }
    }

    /// [`StreamMonitor::step_event`] in place, for any event
    /// representation; returns the abort reason of an enforcing firing.
    /// Inlined so that the tape fold, compiled in the caller's crate,
    /// keeps the step in its loop.
    #[inline]
    fn step_in_place<E: StreamEvent + ?Sized>(
        &self,
        s: &mut StreamState,
        ev: &E,
        step: Option<u64>,
        time_hint: Option<u64>,
    ) -> Option<String> {
        if !self.observes_phase(ev.phase()) {
            return None;
        }
        let clock = time_hint.or_else(|| self.wall_now());
        let t = clock.unwrap_or(s.events).max(s.last_time);
        s.last_time = t;
        if let Some(tape) = &mut s.tape {
            tape.push(ShardEvent {
                phase: ev.phase(),
                name: ev.name().to_string(),
                int: ev.int(),
                unsorted: ev.unsorted(),
                time: clock,
                step,
            });
        }
        s.events += 1;

        // Aggregates, then derived streams in dependency order.
        for (i, stream) in self.spec.streams().iter().enumerate() {
            if let RStreamKind::Aggregate { agg, pred, .. } = &stream.kind {
                let c = if pred_holds(pred, ev) {
                    match ev.int() {
                        Some(v) => Contribution::Val(v),
                        None => Contribution::Hit,
                    }
                } else {
                    Contribution::Skip
                };
                let track = matches!(agg, crate::ast::Agg::Min | crate::ast::Agg::Max);
                s.aggs[i].step(c, t, track);
                s.values[i] = s.aggs[i].value(*agg);
            }
        }
        for &i in self.spec.eval_order() {
            if let RStreamKind::Derived(e) = &self.spec.streams()[i].kind {
                let v = eval_expr(e, &s.values);
                s.values[i] = v;
            }
        }

        // Deadline clocks: one miss per gap, flagged at the first event
        // past the period; any matching event resets the clock.
        for (d, ds) in self.spec.deadlines().iter().zip(s.deadlines.iter_mut()) {
            let last = *ds.last.get_or_insert(t);
            if t.saturating_sub(last) > d.period && !ds.open_miss {
                ds.open_miss = true;
                ds.missed += 1;
                s.missed_total += 1;
                if s.first_miss.is_none() {
                    s.first_miss = Some(format!(
                        "`{}` missed at t={t} ms: {} ms since last matching event \
                         (period {} ms)",
                        d.text,
                        t - last,
                        d.period
                    ));
                }
            }
            if pred_holds(&d.pred, ev) {
                ds.last = Some(t);
                ds.open_miss = false;
            }
        }

        // Triggers fire on rising edges.
        let mut abort_reason: Option<String> = None;
        for (i, tr) in self.spec.triggers().iter().enumerate() {
            let now = eval_cond(&tr.cond, &s.values, ev);
            if now && !s.prev[i] {
                s.fired_total += 1;
                // The reason is rendered only when a retained firing or
                // an abort carries it: past the firings cap a firing is
                // counted, not described.
                let retained = s.firings.len() < DEFAULT_FIRINGS_CAP;
                let aborts = self.enforcing && abort_reason.is_none();
                if retained || aborts {
                    let reason = format!(
                        "stream trigger `{}` fired at event #{} ({}; {})",
                        tr.name,
                        s.events,
                        Self::describe_event(ev),
                        self.render_values(&s.values)
                    );
                    if retained {
                        s.firings.push(Firing {
                            trigger: tr.name.clone(),
                            at: s.events,
                            step,
                            time: t,
                            reason: reason.clone(),
                        });
                    }
                    if aborts {
                        abort_reason = Some(reason);
                    }
                }
            }
            s.prev[i] = now;
        }
        abort_reason
    }

    /// Ends the trace: evaluates `done`-phase triggers (rising edges
    /// against the synthetic end event) and charges deadlines whose
    /// final gap exceeds the period. Does not veto — end-of-trace
    /// obligations are about a run that already finished.
    pub fn finish(&self, state: &StreamState, end_time: Option<u64>) -> StreamState {
        let mut s = state.clone();
        let t = end_time
            .or_else(|| self.wall_now())
            .unwrap_or(s.last_time)
            .max(s.last_time);
        s.last_time = t;
        for (d, ds) in self.spec.deadlines().iter().zip(s.deadlines.iter_mut()) {
            if let Some(last) = ds.last {
                if t.saturating_sub(last) > d.period && !ds.open_miss {
                    ds.open_miss = true;
                    ds.missed += 1;
                    s.missed_total += 1;
                    if s.first_miss.is_none() {
                        s.first_miss = Some(format!(
                            "`{}` missed at end of trace (t={t} ms): {} ms since last \
                             matching event (period {} ms)",
                            d.text,
                            t - last,
                            d.period
                        ));
                    }
                }
            }
        }
        let done = EvView::done();
        for (i, tr) in self.spec.triggers().iter().enumerate() {
            let now = eval_cond(&tr.cond, &s.values, &done);
            if now && !s.prev[i] {
                s.fired_total += 1;
                let reason = format!(
                    "stream trigger `{}` fired at end of trace after {} events ({})",
                    tr.name,
                    s.events,
                    self.render_values(&s.values)
                );
                if s.firings.len() < DEFAULT_FIRINGS_CAP {
                    s.firings.push(Firing {
                        trigger: tr.name.clone(),
                        at: s.events + 1,
                        step: None,
                        time: t,
                        reason,
                    });
                }
            }
            s.prev[i] = now;
        }
        s
    }

    /// Advances the state by one serialized [`TapeEvent`], exactly as
    /// the live hooks would have. Foreign-namespace events and
    /// [`TapePhase::Done`] (handled by [`StreamMonitor::check_tape`] via
    /// [`StreamMonitor::finish`]) leave the state untouched.
    pub fn advance_tape_event(&self, state: StreamState, ev: &TapeEvent) -> Outcome<StreamState> {
        if !same_text(&ev.namespace, self.namespace.as_str()) {
            return Outcome::Continue(state);
        }
        if ev.phase == TapePhase::Done {
            return Outcome::Continue(state);
        }
        let view = EvView {
            phase: ev.phase,
            name: &ev.name,
            int: ev.value.as_ref().and_then(|d| d.int),
            unsorted: ev.value.as_ref().is_some_and(|d| d.unsorted),
        };
        self.step_event(state, &view, Some(ev.step), ev.time)
    }

    /// Checks a recorded tape offline: replays every event and, if the
    /// tape carries a [`TapePhase::Done`] marker, closes the trace with
    /// [`StreamMonitor::finish`] (at the `done` event's timestamp, when
    /// the tape is timed). Replay never stops early — the check reports
    /// *all* firings and misses, agreeing with an observing live run on
    /// every trigger firing.
    pub fn check_tape<'a>(&self, events: impl IntoIterator<Item = &'a TapeEvent>) -> StreamCheck {
        self.check_tape_seeded(self.initial_state(), events)
    }

    /// [`StreamMonitor::check_tape`] starting from `seed` instead of the
    /// initial state — the replay primitive behind checkpoint-seeded
    /// checking: restore a snapshot taken after the first N events, feed
    /// the remaining tape, and the verdict matches a full replay.
    ///
    /// An adapter over [`Check`]: the events are folded as views, a run
    /// at a time.
    pub fn check_tape_seeded<'a>(
        &self,
        seed: StreamState,
        events: impl IntoIterator<Item = &'a TapeEvent>,
    ) -> StreamCheck {
        self.check_result(Check::owned(self, seed, events))
    }

    /// The result of a check: closes the trace with
    /// [`StreamMonitor::finish`], at the `done` marker's timestamp, if one
    /// was folded.
    pub fn check_result(&self, check: Check<StreamState>) -> StreamCheck {
        let state = if check.completed {
            self.finish(&check.state, check.end_time)
        } else {
            check.state
        };
        StreamCheck {
            firings: state.firings.clone(),
            fired_total: state.fired_total,
            missed: state.missed_total,
            completed: check.completed,
            state,
        }
    }

    fn replay_shard_event(&self, state: StreamState, ev: &ShardEvent) -> Outcome<StreamState> {
        let view = EvView {
            phase: ev.phase,
            name: &ev.name,
            int: ev.int,
            unsorted: ev.unsorted,
        };
        self.step_event(state, &view, ev.step, ev.time)
    }
}

/// [`Resolution::name`]'s answer for a string no name in the spec spells.
const UNNAMED: u32 = u32::MAX - 1;

/// Names resolve once per string id, so predicates compare indices; an
/// enforcing firing does not stop the fold (a tape check reports every
/// firing).
impl TapeFold for StreamMonitor {
    #[inline]
    fn fold_view(
        &self,
        state: &mut StreamState,
        ev: &EventView,
        strings: &dyn Strings,
        res: &mut Resolution,
        _earliest: &mut Option<u64>,
    ) -> Outcome<()> {
        if !res.ours(ev.namespace, strings, self.namespace.as_str()) {
            return Outcome::Continue(());
        }
        let event = ResolvedEvent {
            ev,
            name: res.name(ev.name, strings, |name| {
                self.spec.name_index(name).map_or(UNNAMED, |k| k as u32)
            }),
            names: self.spec.names(),
            strings,
        };
        self.step_in_place(state, &event, Some(ev.step), ev.time);
        Outcome::Continue(())
    }
}

/// An event view with its name resolved against the spec.
struct ResolvedEvent<'a> {
    ev: &'a EventView,
    name: u32,
    names: &'a [Ident],
    strings: &'a dyn Strings,
}

impl StreamEvent for ResolvedEvent<'_> {
    fn phase(&self) -> TapePhase {
        self.ev.phase
    }

    fn name_is(&self, id: &Ident) -> bool {
        self.names.get(self.name as usize) == Some(id)
    }

    fn name(&self) -> &str {
        self.strings.get(self.ev.name)
    }

    fn int(&self) -> Option<i64> {
        self.ev.int
    }

    fn unsorted(&self) -> bool {
        self.ev.unsorted
    }
}

/// The result of checking a tape offline against a stream spec.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCheck {
    /// The retained firings, oldest first.
    pub firings: Vec<Firing>,
    /// Total firings (including past the retention cap).
    pub fired_total: u64,
    /// Total deadline misses.
    pub missed: u64,
    /// Whether the tape carried a `done` marker.
    pub completed: bool,
    /// The final evaluator state.
    pub state: StreamState,
}

impl Monitor for StreamMonitor {
    type State = StreamState;

    fn name(&self) -> &str {
        &self.name
    }

    fn accepts(&self, ann: &Annotation) -> bool {
        self.ours(ann) && (self.spec.observes_pre() || self.spec.observes_post())
    }

    fn accepts_event(&self, ann: &Annotation, phase: HookPhase) -> bool {
        self.ours(ann)
            && match phase {
                HookPhase::Pre => self.spec.observes_pre(),
                HookPhase::Post => self.spec.observes_post(),
            }
    }

    fn initial_state(&self) -> StreamState {
        let streams = self.spec.streams();
        let mut aggs = Vec::with_capacity(streams.len());
        let mut values = vec![None; streams.len()];
        for (i, s) in streams.iter().enumerate() {
            let st = AggState::for_stream(&s.kind);
            if let RStreamKind::Aggregate { agg, .. } = &s.kind {
                values[i] = st.value(*agg);
            }
            aggs.push(st);
        }
        for &i in self.spec.eval_order() {
            if let RStreamKind::Derived(e) = &streams[i].kind {
                let v = eval_expr(e, &values);
                values[i] = v;
            }
        }
        StreamState {
            aggs,
            values,
            prev: vec![false; self.spec.triggers().len()],
            firings: Vec::new(),
            fired_total: 0,
            deadlines: vec![DeadlineState::default(); self.spec.deadlines().len()],
            missed_total: 0,
            first_miss: None,
            events: 0,
            last_time: 0,
            tape: None,
            lossy: false,
        }
    }

    fn pre(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        state: StreamState,
    ) -> StreamState {
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
        state: StreamState,
    ) -> StreamState {
        match self.try_post(ann, expr, scope, value, state) {
            Outcome::Continue(s) | Outcome::Abort { state: s, .. } => s,
        }
    }

    fn try_pre(
        &self,
        ann: &Annotation,
        _expr: &Expr,
        _scope: &Scope<'_>,
        state: StreamState,
    ) -> Outcome<StreamState> {
        if !self.ours(ann) {
            return Outcome::Continue(state);
        }
        let view = EvView {
            phase: TapePhase::Pre,
            name: ann.name().as_str(),
            int: None,
            unsorted: false,
        };
        self.step_event(state, &view, None, None)
    }

    fn try_post(
        &self,
        ann: &Annotation,
        _expr: &Expr,
        _scope: &Scope<'_>,
        value: &Value,
        state: StreamState,
    ) -> Outcome<StreamState> {
        if !self.ours(ann) {
            return Outcome::Continue(state);
        }
        let view = EvView {
            phase: TapePhase::Post,
            name: ann.name().as_str(),
            int: match value {
                Value::Int(n) => Some(*n),
                _ => None,
            },
            // List structure is only inspected when some predicate can
            // actually ask about it.
            unsorted: self.spec.uses_unsorted() && value_is_unsorted(value),
        };
        self.step_event(state, &view, None, None)
    }

    fn render_state(&self, state: &StreamState) -> String {
        let lossy = if state.lossy { ", lossy merge" } else { "" };
        let miss = match &state.first_miss {
            Some(m) => format!("; first miss: {m}"),
            None => String::new(),
        };
        format!(
            "[{}] {} firing(s), {} missed after {} events{lossy}{miss}",
            self.render_values(&state.values),
            state.fired_total,
            state.missed_total,
            state.events
        )
    }
}

/// Stream monitors merge by *replay*, mirroring
/// [`SpecMonitor`](monsem_tspec::SpecMonitor)'s three-way join:
///
/// 1. **Exact replay** — while the shard's tape dropped nothing, the
///    join replays each retained event through
///    [`StreamMonitor::step_event`] on the accumulated left state. All
///    windows, trigger edges, and deadline clocks are recomputed from
///    the authoritative left state, so the merged state is bit-for-bit
///    the sequential run's (the shard's locally computed fields are
///    provisional and discarded).
/// 2. **Adopt wholesale** — if the tape overflowed but the left state
///    never moved past the fork point, the shard's own fields *are* the
///    sequential continuation and are adopted as-is.
/// 3. **Conservative** — otherwise the left aggregates are kept, the
///    shard's event/firing/miss deltas are accounted, its shard-local
///    firings are appended (bounded), and the result is marked
///    [`StreamState::lossy`].
impl MergeMonitor for StreamMonitor {
    fn split(&self, s: &StreamState) -> StreamState {
        let mut shard = s.clone();
        shard.tape = Some(StreamShardTape::new(s, self.replay_cap));
        shard
    }

    fn merge(&self, left: StreamState, right: StreamState) -> StreamState {
        match self.merge_outcome(left, right) {
            Outcome::Continue(s) | Outcome::Abort { state: s, .. } => s,
        }
    }

    fn merge_outcome(&self, left: StreamState, right: StreamState) -> Outcome<StreamState> {
        let Some(tape) = right.tape else {
            // A tapeless right-hand state was not born from `split`.
            return Outcome::Continue(left);
        };
        if tape.dropped == 0 {
            let mut acc = left;
            for ev in &tape.events {
                match self.replay_shard_event(acc, ev) {
                    Outcome::Continue(s) => acc = s,
                    abort @ Outcome::Abort { .. } => return abort,
                }
            }
            return Outcome::Continue(acc);
        }
        let fresh_firings = right.fired_total.saturating_sub(tape.origin_fired);
        if !left.lossy && !right.lossy && left.events == tape.origin_events {
            // The left state never moved past the fork point: adopt the
            // shard's fields wholesale, folding its retained tape into
            // the left tape (if any) for an enclosing join.
            let mut merged = StreamState {
                tape: left.tape,
                ..right
            };
            merged.tape = merged.tape.map(|mut lt| {
                for ev in tape.events {
                    lt.push(ev);
                }
                lt.dropped += tape.dropped;
                lt
            });
            if self.enforcing && fresh_firings > 0 {
                let reason = merged
                    .firings
                    .last()
                    .map(|f| f.reason.clone())
                    .unwrap_or_else(|| "stream trigger fired".to_string());
                return Outcome::abort(merged, self.name.clone(), reason);
            }
            return Outcome::Continue(merged);
        }
        // Conservative merge: the shard's full event sequence is gone
        // and the left state has moved. Keep the left aggregates, carry
        // the shard's verdict deltas, and mark the result lossy.
        let mut acc = left;
        acc.events += right.events.saturating_sub(tape.origin_events);
        acc.fired_total += fresh_firings;
        acc.missed_total += right.missed_total.saturating_sub(tape.origin_missed);
        for f in right.firings.iter().filter(|f| f.at > tape.origin_events) {
            if acc.firings.len() < DEFAULT_FIRINGS_CAP {
                acc.firings.push(f.clone());
            }
        }
        if acc.first_miss.is_none() {
            acc.first_miss = right.first_miss;
        }
        acc.last_time = acc.last_time.max(right.last_time);
        acc.lossy = true;
        if let Some(lt) = &mut acc.tape {
            lt.dropped += tape.events.len() as u64 + tape.dropped;
        }
        if self.enforcing && fresh_firings > 0 {
            let reason = acc
                .firings
                .last()
                .map(|f| f.reason.clone())
                .unwrap_or_else(|| "stream trigger fired".to_string());
            return Outcome::abort(acc, self.name.clone(), reason);
        }
        Outcome::Continue(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monsem_core::error::EvalError;
    use monsem_monitor::machine::eval_monitored;
    use monsem_monitor::{record_monitored, MemorySink, SharedSink};
    use monsem_syntax::parse_expr;

    #[test]
    fn observing_triggers_record_and_preserve_the_answer() {
        let prog = parse_expr("{a}:1 + ({b}:2 + {b}:3)").unwrap();
        let m =
            StreamMonitor::new("slo", "stream bs = count(post(b))\ntrigger two = bs >= 2").unwrap();
        let (v, s) = eval_monitored(&prog, &m).unwrap();
        assert_eq!(v, monsem_core::Value::Int(6));
        assert_eq!(s.fired_total, 1, "rising edge fires once: {s:?}");
        assert!(
            s.firings[0].reason.contains("two"),
            "{}",
            s.firings[0].reason
        );
        assert!(m.render_state(&s).contains("1 firing"));
    }

    #[test]
    fn enforcing_triggers_abort_naming_the_monitor() {
        let prog = parse_expr("{a}:1 + ({b}:2 + {b}:3)").unwrap();
        let m = StreamMonitor::new("slo", "stream bs = count(post(b))\ntrigger two = bs >= 2")
            .unwrap()
            .enforcing();
        match eval_monitored(&prog, &m).unwrap_err() {
            EvalError::MonitorAbort { monitor, reason } => {
                assert_eq!(monitor, "slo");
                assert!(reason.contains("two"), "{reason}");
            }
            other => panic!("expected MonitorAbort, got {other:?}"),
        }
    }

    #[test]
    fn post_only_specs_skip_pre_hooks_consistently() {
        let prog = parse_expr("{a}:({a}:1)").unwrap();
        let m = StreamMonitor::new("c", "stream n = count(post(_))").unwrap();
        let (_, s) = eval_monitored(&prog, &m).unwrap();
        assert_eq!(s.events, 2, "only post events observed");
        let ann = Annotation::label("a");
        assert!(!m.accepts_event(&ann, HookPhase::Pre));
        assert!(m.accepts_event(&ann, HookPhase::Post));
    }

    #[test]
    fn namespaces_partition_events() {
        let prog = parse_expr("{ns/a}:1 + {b}:2").unwrap();
        let scoped = StreamMonitor::new("c", "stream n = count(post(_))")
            .unwrap()
            .in_namespace(Namespace::new("ns"));
        let (_, s) = eval_monitored(&prog, &scoped).unwrap();
        assert_eq!(s.events, 1);
        let anon = StreamMonitor::new("c", "stream n = count(post(_))").unwrap();
        let (_, s) = eval_monitored(&prog, &anon).unwrap();
        assert_eq!(s.events, 1, "the namespaced event is foreign to it");
    }

    #[test]
    fn check_tape_agrees_with_the_live_run_on_firings() {
        let prog = parse_expr("letrec f = lambda x. {p}:(x * x) in f 2 + (f 3 + f 4)").unwrap();
        let m = StreamMonitor::new(
            "slo",
            "stream total = sum(post(p))\ntrigger big = total > 20",
        )
        .unwrap();
        let mem = MemorySink::new();
        let sink = SharedSink::new(mem.clone());
        let (_, live) = record_monitored(&prog, m.clone(), &sink).unwrap();
        let tape = mem.take();
        let check = m.check_tape(tape.iter());
        assert!(check.completed);
        let live_keys: Vec<(String, u64)> = live
            .firings
            .iter()
            .map(|f| (f.trigger.clone(), f.at))
            .collect();
        let tape_keys: Vec<(String, u64)> = check
            .firings
            .iter()
            .map(|f| (f.trigger.clone(), f.at))
            .collect();
        assert_eq!(live_keys, tape_keys);
        assert_eq!(live.values, check.state.values);
    }

    #[test]
    fn deadlines_miss_on_gaps_in_timed_tapes() {
        use monsem_monitor::tape::ValueDesc;
        let post = |name: &str, v: i64, step: u64, t: u64| TapeEvent {
            phase: TapePhase::Post,
            namespace: String::new(),
            name: name.to_string(),
            value: Some(ValueDesc {
                int: Some(v),
                unsorted: false,
                display: v.to_string(),
            }),
            step,
            time: Some(t),
        };
        let m = StreamMonitor::new("hb", "deadline post(beat) every 50 ms").unwrap();
        // Beats at 0, 40, 180 (gap 140 > 50: one miss), then done at 200.
        let tape = [
            post("beat", 1, 0, 0),
            post("beat", 1, 1, 40),
            post("other", 1, 2, 100),
            post("beat", 1, 3, 180),
            TapeEvent::done(4).at(200),
        ];
        let check = m.check_tape(tape.iter());
        assert_eq!(check.missed, 1, "{:?}", check.state.first_miss);
        assert!(check
            .state
            .first_miss
            .as_deref()
            .unwrap()
            .contains("every 50 ms"));
        // The same tape with a stalling tail misses again at finish.
        let tail = [post("beat", 1, 0, 0), TapeEvent::done(1).at(500)];
        assert_eq!(m.check_tape(tail.iter()).missed, 1);
        // A prompt heartbeat never misses.
        let ok = [
            post("beat", 1, 0, 0),
            post("beat", 1, 1, 30),
            TapeEvent::done(2).at(50),
        ];
        assert_eq!(m.check_tape(ok.iter()).missed, 0);
    }

    #[test]
    fn done_triggers_fire_at_finish() {
        let prog = parse_expr("{a}:1").unwrap();
        let m = StreamMonitor::new(
            "end",
            "stream n = count(post(a))\ntrigger short = done and n < 5",
        )
        .unwrap();
        let mem = MemorySink::new();
        let sink = SharedSink::new(mem.clone());
        record_monitored(&prog, m.clone(), &sink).unwrap();
        let check = m.check_tape(mem.take().iter());
        assert_eq!(check.fired_total, 1);
        assert!(check.firings[0].reason.contains("end of trace"));
    }

    #[test]
    fn parallel_run_matches_sequential_bit_for_bit() {
        let prog = parse_expr(
            "letrec f = lambda x. {p}:(x * x) in par(f 2, f 3, f 4, f 5) ++ par(f 6, f 7)",
        )
        .unwrap();
        let m = StreamMonitor::new(
            "win",
            "stream mx = max(post(p)) over window(4)\n\
             stream n = count(post(p))\n\
             trigger big = mx >= 25",
        )
        .unwrap();
        let seq = eval_monitored(&prog, &m).unwrap();
        let par = monsem_monitor::eval_parallel(&prog, &m).unwrap();
        assert_eq!(seq, par, "answer and final stream state agree");
        assert_eq!(par.1.events, 6);
        assert!(par.1.tape.is_none(), "the root state records no tape");
    }

    #[test]
    fn time_windows_place_forked_events_at_their_merged_ordinals() {
        // Under logical time an event's time is its ordinal in the whole
        // run, and a `window(d ms)` places events into panes by time, so
        // the join must not keep the shards' fork-relative ordinals.
        let shard = vec!["{p}:1"; 20].join(" + ");
        let prog = parse_expr(&format!("par({shard}, {shard}, {shard})")).unwrap();
        let m = StreamMonitor::new(
            "panes",
            "stream recent = count(post(p)) over window(32 ms)\n\
             stream all = count(post(p))",
        )
        .unwrap();
        let seq = eval_monitored(&prog, &m).unwrap();
        let par = monsem_monitor::eval_parallel(&prog, &m).unwrap();
        assert_eq!(seq, par, "answer and final stream state agree");
        assert_eq!(par.1.last_time, 59);
        assert!(par.1.values[0] < par.1.values[1], "the window slid");
    }

    #[test]
    fn split_and_merge_obey_the_laws() {
        let m = StreamMonitor::new(
            "win",
            "stream s = sum(post(p)) over window(3)\ntrigger neg = s < 0",
        )
        .unwrap();
        // Times are pinned so logical clocks cannot diverge across
        // shards; states then agree bit-for-bit.
        let feed = |mut st: StreamState, vals: &[i64]| {
            for v in vals {
                let view = EvView {
                    phase: TapePhase::Post,
                    name: "p",
                    int: Some(*v),
                    unsorted: false,
                };
                st = match m.step_event(st, &view, None, Some(0)) {
                    Outcome::Continue(s) | Outcome::Abort { state: s, .. } => s,
                };
            }
            st
        };
        let sigma = feed(m.initial_state(), &[4, 7]);
        // split is a right identity for merge.
        assert_eq!(m.merge(sigma.clone(), m.split(&sigma)), sigma);
        // Associativity over shard tapes.
        let shard = |vals: &[i64]| feed(m.split(&sigma), vals);
        let (a, b, c) = (shard(&[1, 2]), shard(&[-30]), shard(&[4]));
        assert_eq!(
            m.merge(m.merge(a.clone(), b.clone()), c.clone()),
            m.merge(a, m.merge(b, c))
        );
        // merge ≡ sequential: the root-state left-fold over the shards
        // (exactly eval_parallel's join) equals replaying the
        // concatenation directly.
        let merged = m.merge(
            m.merge(m.merge(sigma.clone(), shard(&[1, 2])), shard(&[-30])),
            shard(&[4]),
        );
        let direct = feed(sigma.clone(), &[1, 2, -30, 4]);
        assert_eq!(merged, direct);
    }

    #[test]
    fn truncated_shards_degrade_gracefully() {
        let m = StreamMonitor::new("c", "stream n = count(post(_))")
            .unwrap()
            .replay_cap(4);
        let feed = |mut st: StreamState, n: usize| {
            for _ in 0..n {
                let view = EvView {
                    phase: TapePhase::Post,
                    name: "p",
                    int: Some(1),
                    unsorted: false,
                };
                st = match m.step_event(st, &view, None, None) {
                    Outcome::Continue(s) | Outcome::Abort { state: s, .. } => s,
                };
            }
            st
        };
        let sigma = m.initial_state();
        // Unmoved fork point: shard adopted wholesale, not lossy.
        let shard = feed(m.split(&sigma), 10);
        let merged = m.merge(sigma.clone(), shard);
        assert_eq!(merged.events, 10);
        assert!(!merged.lossy);
        // Moved fork point: conservative, lossy, events accounted.
        let left = feed(sigma.clone(), 2);
        let shard = feed(m.split(&sigma), 10);
        let merged = m.merge(left, shard);
        assert_eq!(merged.events, 12);
        assert!(merged.lossy);
        assert!(m.render_state(&merged).contains("lossy"));
    }

    #[test]
    fn shard_tape_memory_is_bounded() {
        let m = StreamMonitor::new("c", "stream n = count(post(_))")
            .unwrap()
            .replay_cap(64);
        let mut s = m.split(&m.initial_state());
        const N: u64 = 100_000;
        for _ in 0..N {
            let view = EvView {
                phase: TapePhase::Post,
                name: "p",
                int: Some(1),
                unsorted: false,
            };
            s = match m.step_event(s, &view, None, None) {
                Outcome::Continue(s) | Outcome::Abort { state: s, .. } => s,
            };
        }
        let tape = s.tape.as_ref().unwrap();
        assert_eq!(tape.events.len(), 64);
        assert_eq!(tape.dropped, N - 64);
        assert_eq!(s.events, N);
    }
}
