//! The automaton-as-[`Monitor`] adapter.
//!
//! [`SpecMonitor`] runs a compiled [`Automaton`] against the event stream
//! of a monitored evaluation. Its state is the DFA state plus a bounded
//! match trace of the relevant events observed so far; its verdicts ride
//! the existing machinery — an *enforcing* monitor returns
//! [`Outcome::Abort`] the moment the run enters a dead DFA state (the
//! observed prefix extends to no accepted trace), an *observing* one
//! records the violation in its state and lets the run finish, preserving
//! the answer per Theorem 7.7.
//!
//! Events whose hook phase × name class can never move any DFA state are
//! not observed at all — not counted, not recorded in the trace — and
//! [`Monitor::accepts_event`] tells the machines those hooks may be
//! skipped. Observation is gated at exactly the hint's granularity, so the
//! monitor state evolves identically whether a machine consults the hint
//! or not.

use crate::automaton::Automaton;
use crate::{Spec, SpecError};
use monsem_core::Value;
use monsem_monitor::tape::{
    same_text, short_display, Check, EventView, Resolution, Strings, TapeEvent, TapeFold,
    TapePhase, NO_STRING,
};
use monsem_monitor::{HookPhase, MergeMonitor, Monitor, Outcome, Scope};
use monsem_syntax::{Annotation, Expr, Namespace};
use std::fmt;
use std::sync::Arc;

/// Default bound on the recent-event trace kept in [`SpecState`].
pub const DEFAULT_TRACE_CAP: usize = 8;

/// Default bound on the per-shard replay tape kept by states born from
/// [`MergeMonitor::split`] (and on the replay window a monitor server
/// keeps per session). Shards that observe more events than this stop
/// retaining them and the join falls back to a conservative merge — see
/// [`SpecMonitor::replay_cap`].
pub const DEFAULT_REPLAY_CAP: usize = 8192;

/// A compiled temporal specification running as a monitor.
#[derive(Debug, Clone)]
pub struct SpecMonitor {
    name: String,
    namespace: Namespace,
    spec: Arc<Spec>,
    enforcing: bool,
    trace_cap: usize,
    replay_cap: usize,
}

/// A shard's bounded replay tape: the observed letters (with their trace
/// entries) since the state was born from [`MergeMonitor::split`], up to
/// a hard cap, plus where the shard forked from so the join can tell
/// whether a truncated tape is still mergeable exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTape {
    /// The retained `(letter, description)` events, oldest first. At most
    /// `cap` entries — see [`ShardTape::dropped`].
    pub events: Vec<(u32, String)>,
    /// Events observed but *not* retained because the cap was hit. When
    /// non-zero the tape no longer supports exact replay.
    pub dropped: u64,
    /// The DFA state this shard split from.
    pub origin_state: u32,
    /// The event count at the split point.
    pub origin_events: u64,
    /// The retention bound this tape was created with.
    pub cap: usize,
}

impl ShardTape {
    fn new(origin: &SpecState, cap: usize) -> ShardTape {
        ShardTape {
            events: Vec::new(),
            dropped: 0,
            origin_state: origin.state,
            origin_events: origin.events,
            cap,
        }
    }

    fn push(&mut self, letter: u32, desc: &str) {
        if self.events.len() < self.cap {
            self.events.push((letter, desc.to_string()));
        } else {
            self.dropped += 1;
        }
    }
}

/// An entry of the recent-event ring not rendered yet: it refers to the
/// string table of the fold in progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    Pre { name: u32 },
    Post { name: u32, display: u32 },
}

impl Pending {
    fn of(ev: &EventView) -> Pending {
        match ev.phase {
            TapePhase::Post => Pending::Post {
                name: ev.name,
                display: ev.display,
            },
            _ => Pending::Pre { name: ev.name },
        }
    }

    /// The entry's text — `pre p` or `post p = 7` — exactly as the live
    /// hooks describe the event.
    fn render(self, strings: &dyn Strings, out: &mut String) {
        match self {
            Pending::Pre { name } => {
                out.push_str("pre ");
                out.push_str(strings.get(name));
            }
            Pending::Post { name, display } => {
                out.push_str("post ");
                out.push_str(strings.get(name));
                out.push_str(" = ");
                out.push_str(match display {
                    NO_STRING => "?",
                    id => strings.get(id),
                });
            }
        }
    }
}

/// An event description on its way into the ring: text from a live
/// hook, or a view into the string table of the fold in progress.
enum Desc<'s> {
    Text(String),
    View(Pending, &'s dyn Strings),
}

/// The bounded ring of recent observed events that violation reasons
/// quote. Slots keep their text buffers, and an event folded from a tape
/// is stored as string ids that are rendered once, when its fold ends
/// (or when the DFA dies), so a steady-state fold allocates nothing per
/// event.
#[derive(Clone, Default)]
pub struct TraceRing {
    /// The ring's bound, fixed by the first push.
    cap: usize,
    texts: Vec<String>,
    pending: Vec<Option<Pending>>,
    /// Slot of the oldest entry.
    head: usize,
    len: usize,
}

impl TraceRing {
    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries' texts, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        debug_assert!(self.pending.iter().all(Option::is_none), "ring rendered");
        (0..self.len).map(|k| self.texts[self.slot(k)].as_str())
    }

    fn slot(&self, k: usize) -> usize {
        (self.head + k) % self.cap
    }

    fn push(&mut self, cap: usize, desc: Desc<'_>) {
        if self.len == 0 {
            self.cap = cap;
            self.head = 0;
        }
        let slot = if self.len < self.cap {
            self.len += 1;
            self.slot(self.len - 1)
        } else {
            let oldest = self.head;
            self.head = (self.head + 1) % self.cap;
            oldest
        };
        if slot >= self.texts.len() {
            self.texts.resize_with(slot + 1, String::new);
            self.pending.resize(slot + 1, None);
        }
        match desc {
            Desc::Text(text) => {
                self.texts[slot] = text;
                self.pending[slot] = None;
            }
            Desc::View(p, _) => self.pending[slot] = Some(p),
        }
    }

    /// Renders the entries that still refer to `strings`, into their
    /// slots' buffers. Folds call this before their string table goes.
    pub(crate) fn render_pending(&mut self, strings: &dyn Strings) {
        for (slot, pending) in self.pending.iter_mut().enumerate() {
            if let Some(p) = pending.take() {
                let text = &mut self.texts[slot];
                text.clear();
                p.render(strings, text);
            }
        }
    }

    /// The entries joined with `", "`, rendering pending ones from
    /// `strings`.
    fn joined(&self, strings: Option<&dyn Strings>) -> String {
        let mut out = String::new();
        for k in 0..self.len {
            if k > 0 {
                out.push_str(", ");
            }
            let slot = self.slot(k);
            match (self.pending[slot], strings) {
                (Some(p), Some(strings)) => p.render(strings, &mut out),
                _ => out.push_str(&self.texts[slot]),
            }
        }
        out
    }
}

impl PartialEq for TraceRing {
    fn eq(&self, other: &TraceRing) -> bool {
        self.len == other.len
            && (0..self.len).all(|k| {
                let (a, b) = (self.slot(k), other.slot(k));
                self.pending[a] == other.pending[b]
                    && (self.pending[a].is_some() || self.texts[a] == other.texts[b])
            })
    }
}

impl Eq for TraceRing {}

impl fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len).map(|k| {
                let slot = self.slot(k);
                match self.pending[slot] {
                    Some(p) => format!("{p:?}"),
                    None => self.texts[slot].clone(),
                }
            }))
            .finish()
    }
}

/// The monitor state: current DFA state plus a bounded match trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecState {
    /// Current DFA state.
    pub state: u32,
    /// Number of relevant events observed.
    pub events: u64,
    /// The most recent relevant events (bounded ring).
    pub trace: TraceRing,
    /// The first violation observed, if any (an observing monitor records
    /// it here and keeps running).
    pub violation: Option<String>,
    /// The bounded event tape recorded since this state was born from
    /// [`MergeMonitor::split`]. `None` outside fork-join evaluation — the
    /// root state records nothing. The join replays the tape with
    /// [`SpecMonitor::advance`], so (while nothing was dropped) the
    /// merged state is exactly the state the sequential run would have
    /// reached.
    pub tape: Option<ShardTape>,
    /// Whether this state passed through a merge whose replay tape was
    /// truncated: the DFA fields are then a *conservative* continuation
    /// of the fork-point state (exact sequential equivalence would need a
    /// full replay from the fork). Violations already on record remain
    /// authoritative.
    pub lossy: bool,
}

/// The `Copy` core of a [`SpecState`]: what one observed event changes,
/// so restoring it undoes the event. The batch guard snapshots this
/// before each event instead of cloning the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecCore {
    state: u32,
    events: u64,
    head: usize,
    len: usize,
    violated: bool,
}

impl SpecState {
    /// The state's `Copy` core.
    pub fn core(&self) -> SpecCore {
        SpecCore {
            state: self.state,
            events: self.events,
            head: self.trace.head,
            len: self.trace.len,
            violated: self.violation.is_some(),
        }
    }

    /// Rolls the state back to `core`, taken before the events since.
    /// An event step changes nothing before its last fallible operation,
    /// so one that faulted left at most these fields behind.
    pub fn restore_core(&mut self, core: SpecCore) {
        self.state = core.state;
        self.events = core.events;
        self.trace.head = core.head;
        self.trace.len = core.len;
        if !core.violated {
            self.violation = None;
        }
    }
}

fn short_value(v: &Value) -> String {
    short_display(v)
}

impl SpecMonitor {
    /// Parses and compiles `src` into an *observing* monitor named `name`,
    /// watching the anonymous namespace.
    ///
    /// # Errors
    ///
    /// Parse or compilation errors, with byte offsets.
    pub fn new(name: impl Into<String>, src: &str) -> Result<Self, SpecError> {
        Ok(Self::from_spec(name, Spec::parse(src)?))
    }

    /// Wraps an already-compiled [`Spec`].
    pub fn from_spec(name: impl Into<String>, spec: Spec) -> Self {
        SpecMonitor {
            name: name.into(),
            namespace: Namespace::anonymous(),
            spec: Arc::new(spec),
            enforcing: false,
            trace_cap: DEFAULT_TRACE_CAP,
            replay_cap: DEFAULT_REPLAY_CAP,
        }
    }

    /// Upgrades to an enforcing monitor: entering a dead DFA state aborts
    /// evaluation with [`EvalError::MonitorAbort`] naming this spec.
    ///
    /// [`EvalError::MonitorAbort`]: monsem_core::error::EvalError::MonitorAbort
    pub fn enforcing(mut self) -> Self {
        self.enforcing = true;
        self
    }

    /// Restricts the monitor to annotations in `namespace`.
    pub fn in_namespace(mut self, namespace: Namespace) -> Self {
        self.namespace = namespace;
        self
    }

    /// Changes the match-trace bound (default [`DEFAULT_TRACE_CAP`]).
    pub fn trace_cap(mut self, cap: usize) -> Self {
        self.trace_cap = cap;
        self
    }

    /// Changes the per-shard replay-tape bound (default
    /// [`DEFAULT_REPLAY_CAP`]). A shard that observes more than `cap`
    /// relevant events stops retaining them; its join then falls back to
    /// a merge that preserves violations and event counts but marks the
    /// merged state [`SpecState::lossy`] instead of replaying exactly.
    pub fn replay_cap(mut self, cap: usize) -> Self {
        self.replay_cap = cap;
        self
    }

    /// The compiled spec.
    pub fn spec(&self) -> &Arc<Spec> {
        &self.spec
    }

    /// The compiled automaton.
    pub fn automaton(&self) -> &Arc<Automaton> {
        self.spec.automaton()
    }

    /// The namespace this monitor watches.
    pub fn namespace(&self) -> &Namespace {
        &self.namespace
    }

    /// Whether violations abort evaluation.
    pub fn is_enforcing(&self) -> bool {
        self.enforcing
    }

    /// Advances the state by one abstract letter. Shared by the
    /// interpreted adapter and the pe-specialized one, so both evolve
    /// states identically (same trace entries, same counters, same abort
    /// reasons).
    ///
    /// Irrelevant letters (universal self-loops) are not observed:
    /// the state is returned untouched.
    pub fn advance(
        &self,
        mut s: SpecState,
        letter: u32,
        desc: impl FnOnce() -> String,
    ) -> Outcome<SpecState> {
        if !self.automaton().letter_observed(letter) {
            return Outcome::Continue(s);
        }
        match self.observe(&mut s, letter, Desc::Text(desc())) {
            Outcome::Continue(()) => Outcome::Continue(s),
            Outcome::Abort {
                monitor, reason, ..
            } => Outcome::Abort {
                state: s,
                monitor,
                reason,
            },
        }
    }

    /// Observes one event whose letter passed the observation gate: the
    /// DFA step, the counters, the ring and the violation, in place.
    ///
    /// The only fallible operation — the table lookup, which a corrupt
    /// state indexes out of bounds — comes first, so a step that faults
    /// has changed nothing.
    fn observe(&self, s: &mut SpecState, letter: u32, desc: Desc<'_>) -> Outcome<()> {
        let aut = self.automaton();
        let next = aut.step(s.state, letter);
        if let Some(tape) = &mut s.tape {
            let mut text = String::new();
            match &desc {
                Desc::Text(t) => text.push_str(t),
                Desc::View(p, strings) => p.render(*strings, &mut text),
            }
            tape.push(letter, &text);
        }
        s.events += 1;
        s.state = next;
        if s.violation.is_some() || !aut.is_dead(next) {
            if self.trace_cap > 0 {
                s.trace.push(self.trace_cap, desc);
            }
            return Outcome::Continue(());
        }
        // The DFA died: the one place event text is rendered eagerly.
        let (desc, strings) = match desc {
            Desc::Text(text) => (text, None),
            Desc::View(p, strings) => {
                let mut text = String::new();
                p.render(strings, &mut text);
                (text, Some(strings))
            }
        };
        if self.trace_cap > 0 {
            s.trace.push(self.trace_cap, Desc::Text(desc.clone()));
        }
        let recent = s.trace.joined(strings);
        let reason = format!(
            "spec `{}` violated at event #{} ({desc}); recent: [{recent}]",
            self.name, s.events,
        );
        s.violation = Some(reason.clone());
        if self.enforcing {
            return Outcome::abort((), self.name.clone(), reason);
        }
        Outcome::Continue(())
    }

    fn fold_classified(
        &self,
        s: &mut SpecState,
        ev: &EventView,
        nc: usize,
        strings: &dyn Strings,
        earliest: &mut Option<u64>,
    ) -> Outcome<()> {
        let aut = self.automaton();
        let alphabet = aut.alphabet();
        let letter = match ev.phase {
            TapePhase::Pre => alphabet.pre_letter(nc),
            _ => alphabet.post_letter(nc, alphabet.classify_parts(ev.int, ev.unsorted)),
        };
        if !aut.letter_observed(letter) {
            return Outcome::Continue(());
        }
        let had = s.violation.is_some();
        let out = self.observe(s, letter, Desc::View(Pending::of(ev), strings));
        if !had && s.violation.is_some() && earliest.is_none() {
            *earliest = Some(ev.step);
        }
        out
    }

    /// Ends the trace: feeds the synthetic `done` event and checks that
    /// the completed trace is accepted.
    ///
    /// # Errors
    ///
    /// The violation reason — either one already recorded mid-run, or
    /// "trace ended unsatisfied" if the post-`done` state is not
    /// accepting (e.g. an `eventually(..)` that never happened).
    pub fn finish(&self, state: &SpecState) -> Result<SpecState, String> {
        if let Some(v) = &state.violation {
            return Err(v.clone());
        }
        let aut = self.automaton();
        let done = aut.alphabet().done_letter();
        let mut s = match self.advance(state.clone(), done, || "done".to_string()) {
            Outcome::Continue(s) => s,
            Outcome::Abort { reason, .. } => return Err(reason),
        };
        if let Some(v) = &s.violation {
            return Err(v.clone());
        }
        // If `done` was an (unobserved) self-loop, `advance` left the
        // state untouched — which is exactly where `done` leads, so the
        // nullability check below is right in both cases.
        if !aut.is_nullable(s.state) {
            let reason = format!(
                "spec `{}` unsatisfied at end of trace after {} events",
                self.name, s.events
            );
            s.violation = Some(reason.clone());
            return Err(reason);
        }
        Ok(s)
    }

    fn ours(&self, ann: &Annotation) -> bool {
        ann.namespace == self.namespace
    }

    /// Advances the state by one serialized [`TapeEvent`], exactly as the
    /// live run would have: the event's name and value description are
    /// abstracted through the same alphabet maps the in-process hooks
    /// use, so checking a tape offline reaches the same states (and the
    /// same verdicts) as monitoring the original execution. The name is
    /// looked up, not interned.
    ///
    /// Events from foreign namespaces — and [`TapePhase::Done`], which is
    /// handled by [`SpecMonitor::check_tape`] via [`SpecMonitor::finish`]
    /// — leave the state untouched.
    ///
    /// This is the one-event case of [`TapeFold::fold_view`].
    pub fn advance_tape_event(&self, mut state: SpecState, ev: &TapeEvent) -> Outcome<SpecState> {
        if ev.phase == TapePhase::Done || !same_text(&ev.namespace, self.namespace.as_str()) {
            return Outcome::Continue(state);
        }
        let views = OwnedEvent::of(ev);
        let nc = self.automaton().alphabet().name_class_of(&ev.name);
        let out = self.fold_classified(&mut state, &views.view, nc, &views, &mut None);
        state.trace.render_pending(&views);
        match out {
            Outcome::Continue(()) => Outcome::Continue(state),
            Outcome::Abort {
                monitor, reason, ..
            } => Outcome::Abort {
                state,
                monitor,
                reason,
            },
        }
    }

    /// Checks a recorded tape offline: replays every event through
    /// [`SpecMonitor::advance_tape_event`] and, if the tape carries a
    /// [`TapePhase::Done`] marker, closes the trace with
    /// [`SpecMonitor::finish`]. No re-execution happens — the verdict is
    /// computed from the serialized stream alone, and agrees with the
    /// live monitored run that produced the tape.
    ///
    /// For an enforcing monitor the replay stops at the first violation,
    /// mirroring the abort the live run would have taken; an observing
    /// monitor replays to the end.
    pub fn check_tape<'a>(&self, events: impl IntoIterator<Item = &'a TapeEvent>) -> TapeCheck {
        self.check_tape_seeded(self.initial_state(), events)
    }

    /// [`SpecMonitor::check_tape`] starting from `seed` instead of the
    /// initial state — the replay primitive behind checkpoint-seeded
    /// checking. A seed carrying a prefix violation (its `violation` is
    /// already set) is reported with the seed's own earliest step left to
    /// the caller to merge; violations discovered *during* this replay
    /// are stamped with their tape step as usual.
    ///
    /// An adapter over [`Check`]: the events are folded as views, a run
    /// at a time.
    pub fn check_tape_seeded<'a>(
        &self,
        seed: SpecState,
        events: impl IntoIterator<Item = &'a TapeEvent>,
    ) -> TapeCheck {
        self.check_result(Check::owned(self, seed, events))
    }

    /// The verdict of a check: closes the trace with
    /// [`SpecMonitor::finish`] if a `done` marker was folded.
    pub fn check_result(&self, check: Check<SpecState>) -> TapeCheck {
        let Check {
            state,
            earliest,
            completed,
            aborted,
            ..
        } = check;
        if aborted {
            return TapeCheck {
                outcome: TapeOutcome::Violated(
                    state
                        .violation
                        .clone()
                        .unwrap_or_else(|| "violated".to_string()),
                ),
                earliest_violation: earliest,
                state,
            };
        }
        if completed {
            match self.finish(&state) {
                Ok(done) => TapeCheck {
                    outcome: TapeOutcome::Satisfied,
                    earliest_violation: earliest,
                    state: done,
                },
                Err(reason) => {
                    let mut s = state;
                    if s.violation.is_none() {
                        s.violation = Some(reason.clone());
                    }
                    TapeCheck {
                        outcome: TapeOutcome::Violated(reason),
                        earliest_violation: earliest,
                        state: s,
                    }
                }
            }
        } else if let Some(v) = state.violation.clone() {
            TapeCheck {
                outcome: TapeOutcome::Violated(v),
                earliest_violation: earliest,
                state,
            }
        } else {
            TapeCheck {
                outcome: TapeOutcome::Pending,
                earliest_violation: earliest,
                state,
            }
        }
    }
}

impl TapeFold for SpecMonitor {
    /// The step every tape path takes: the event's strings resolve
    /// through `res`, the letter's gate and transition are table loads,
    /// and the ring keeps the event as ids until its fold ends.
    /// `done` markers and foreign-namespace events leave the state
    /// untouched.
    #[inline]
    fn fold_view(
        &self,
        s: &mut SpecState,
        ev: &EventView,
        strings: &dyn Strings,
        res: &mut Resolution,
        earliest: &mut Option<u64>,
    ) -> Outcome<()> {
        if ev.phase == TapePhase::Done || !res.ours(ev.namespace, strings, self.namespace.as_str())
        {
            return Outcome::Continue(());
        }
        let alphabet = self.automaton().alphabet();
        let nc = res.name(ev.name, strings, |name| alphabet.name_class_of(name) as u32);
        self.fold_classified(s, ev, nc as usize, strings, earliest)
    }

    /// Renders the ring entries that still refer to `strings`.
    fn end_views(&self, s: &mut SpecState, strings: &dyn Strings) {
        s.trace.render_pending(strings);
    }
}

/// One owned event as a view over its own strings, without a heap
/// buffer: the one-event adapter.
struct OwnedEvent<'a> {
    view: EventView,
    strings: [&'a str; 2],
}

impl<'a> OwnedEvent<'a> {
    fn of(ev: &'a TapeEvent) -> OwnedEvent<'a> {
        let value = ev.value.as_ref().filter(|_| ev.phase == TapePhase::Post);
        OwnedEvent {
            view: EventView {
                phase: ev.phase,
                namespace: NO_STRING,
                name: 0,
                display: if value.is_some() { 1 } else { NO_STRING },
                int: value.and_then(|d| d.int),
                unsorted: value.is_some_and(|d| d.unsorted),
                step: ev.step,
                time: ev.time,
            },
            strings: [&ev.name, value.map_or("", |d| d.display.as_str())],
        }
    }
}

impl Strings for OwnedEvent<'_> {
    fn get(&self, id: u32) -> &str {
        Strings::get(&self.strings[..], id)
    }
}

/// The verdict of an offline [`SpecMonitor::check_tape`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TapeOutcome {
    /// The tape ended (with a `done` marker) in an accepting state.
    Satisfied,
    /// The spec was violated; carries the rendered reason.
    Violated(String),
    /// The tape carries no `done` marker and no violation occurred —
    /// the trace is an acceptable prefix but not yet complete (the
    /// recorded run may have errored out, or is still in flight).
    Pending,
}

/// The result of checking a tape offline: the verdict, the step index of
/// the earliest violating event (if any), and the final monitor state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeCheck {
    /// The verdict.
    pub outcome: TapeOutcome,
    /// Step index (as recorded on the tape) of the event on which the
    /// violation was first entered. `None` when nothing was violated
    /// mid-trace — in particular an `eventually(..)` left unsatisfied at
    /// `done` is reported in [`TapeCheck::outcome`] with no offset, since
    /// no single event caused it.
    pub earliest_violation: Option<u64>,
    /// The final monitor state after replay.
    pub state: SpecState,
}

impl Monitor for SpecMonitor {
    type State = SpecState;

    fn name(&self) -> &str {
        &self.name
    }

    fn accepts(&self, ann: &Annotation) -> bool {
        if !self.ours(ann) {
            return false;
        }
        let aut = self.automaton();
        let nc = aut.alphabet().name_class(ann.name());
        aut.pre_relevant(nc) || aut.post_relevant(nc)
    }

    fn accepts_event(&self, ann: &Annotation, phase: HookPhase) -> bool {
        if !self.ours(ann) {
            return false;
        }
        let aut = self.automaton();
        let nc = aut.alphabet().name_class(ann.name());
        match phase {
            HookPhase::Pre => aut.pre_relevant(nc),
            HookPhase::Post => aut.post_relevant(nc),
        }
    }

    fn initial_state(&self) -> SpecState {
        SpecState {
            state: self.automaton().start(),
            events: 0,
            trace: TraceRing::default(),
            violation: None,
            tape: None,
            lossy: false,
        }
    }

    fn pre(&self, ann: &Annotation, expr: &Expr, scope: &Scope<'_>, state: SpecState) -> SpecState {
        // The pure hook observes without the power to veto (Theorem 7.7's
        // shape); violations are still recorded in the state.
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
        state: SpecState,
    ) -> SpecState {
        match self.try_post(ann, expr, scope, value, state) {
            Outcome::Continue(s) | Outcome::Abort { state: s, .. } => s,
        }
    }

    fn try_pre(
        &self,
        ann: &Annotation,
        _expr: &Expr,
        _scope: &Scope<'_>,
        state: SpecState,
    ) -> Outcome<SpecState> {
        if !self.ours(ann) {
            return Outcome::Continue(state);
        }
        let aut = self.automaton();
        let letter = aut
            .alphabet()
            .pre_letter(aut.alphabet().name_class(ann.name()));
        self.advance(state, letter, || format!("pre {}", ann.name()))
    }

    fn try_post(
        &self,
        ann: &Annotation,
        _expr: &Expr,
        _scope: &Scope<'_>,
        value: &Value,
        state: SpecState,
    ) -> Outcome<SpecState> {
        if !self.ours(ann) {
            return Outcome::Continue(state);
        }
        let aut = self.automaton();
        let alphabet = aut.alphabet();
        let letter = alphabet.post_letter(
            alphabet.name_class(ann.name()),
            alphabet.classify_value(value),
        );
        self.advance(state, letter, || {
            format!("post {} = {}", ann.name(), short_value(value))
        })
    }

    fn render_state(&self, state: &SpecState) -> String {
        if let Some(v) = &state.violation {
            return format!("VIOLATED — {v}");
        }
        let aut = self.automaton();
        let end = aut.step(state.state, aut.alphabet().done_letter());
        let status = if aut.is_nullable(end) {
            "would accept"
        } else {
            "pending"
        };
        let lossy = if state.lossy { ", lossy merge" } else { "" };
        format!(
            "state {}/{} after {} events ({status}{lossy})",
            state.state,
            aut.num_states(),
            state.events
        )
    }
}

/// Temporal specs merge by *replay*. A shard's state starts at the
/// fork-point DFA state with an empty event tape; the join replays each
/// shard's tape (in shard order) through [`SpecMonitor::advance`] on the
/// accumulated state. Replay recomputes the DFA transitions, the event
/// counter, the bounded trace, and any violation from the authoritative
/// left-hand state, so the merged state is bit-for-bit the one the
/// sequential run reaches — the shard's locally computed DFA fields are
/// provisional and discarded at the join.
///
/// The replay tape is bounded (see [`SpecMonitor::replay_cap`]): a shard
/// that observes more events than the cap stops retaining them, and its
/// join degrades gracefully instead of replaying a hole. If the
/// accumulated left-hand state is still exactly the fork-point state the
/// shard split from (the earlier shards observed nothing), the shard's
/// own DFA fields *are* the sequential run's and are adopted wholesale.
/// Otherwise the merge is conservative: the event count and any shard
/// violation are preserved, and the result is marked
/// [`SpecState::lossy`] — exact sequential equivalence would need a full
/// replay from the fork point.
///
/// Enforcing specs under fork-join should be safety-shaped (`never(..)`,
/// `always(..)`): their dead states are entered by the violating event
/// itself, so a shard's local abort agrees with the sequential run no
/// matter what the other shards observed.
impl MergeMonitor for SpecMonitor {
    fn split(&self, s: &SpecState) -> SpecState {
        SpecState {
            state: s.state,
            events: s.events,
            trace: s.trace.clone(),
            violation: s.violation.clone(),
            tape: Some(ShardTape::new(s, self.replay_cap)),
            lossy: s.lossy,
        }
    }

    fn merge(&self, left: SpecState, right: SpecState) -> SpecState {
        match self.merge_outcome(left, right) {
            Outcome::Continue(s) | Outcome::Abort { state: s, .. } => s,
        }
    }

    fn merge_outcome(&self, left: SpecState, right: SpecState) -> Outcome<SpecState> {
        let Some(tape) = right.tape else {
            // A tapeless right-hand state was not born from `split`;
            // nothing to replay.
            return Outcome::Continue(left);
        };
        if tape.dropped == 0 {
            // Exact replay: recompute everything on the left state.
            let mut acc = left;
            for (letter, desc) in tape.events {
                match self.advance(acc, letter, || desc) {
                    Outcome::Continue(s) => acc = s,
                    abort @ Outcome::Abort { .. } => return abort,
                }
            }
            return Outcome::Continue(acc);
        }
        if !left.lossy
            && !right.lossy
            && left.state == tape.origin_state
            && left.events == tape.origin_events
        {
            // The left state never moved past the fork point, so the
            // shard's transitions are the sequential run's: adopt its
            // DFA fields wholesale. The retained tape prefix is folded
            // into the left shard tape (if any) so an enclosing join
            // still sees a consistently-truncated tape.
            let fresh = left.violation.is_none() && right.violation.is_some();
            let mut merged = SpecState {
                state: right.state,
                events: right.events,
                trace: right.trace,
                violation: left.violation.or(right.violation),
                tape: left.tape,
                lossy: false,
            };
            if let Some(ltape) = &mut merged.tape {
                for (letter, desc) in &tape.events {
                    ltape.push(*letter, desc);
                }
                ltape.dropped += tape.dropped;
            }
            if self.enforcing && fresh {
                let reason = merged
                    .violation
                    .clone()
                    .unwrap_or_else(|| "violated".to_string());
                return Outcome::abort(merged, self.name.clone(), reason);
            }
            return Outcome::Continue(merged);
        }
        // Conservative merge: the left state has moved (or was itself
        // lossy), and the shard's full event sequence is gone. Keep the
        // authoritative left DFA fields, account the shard's events, and
        // surface its violation; mark the result lossy.
        let fresh = left.violation.is_none() && right.violation.is_some();
        let mut acc = left;
        acc.events += right.events.saturating_sub(tape.origin_events);
        acc.lossy = true;
        if acc.violation.is_none() {
            acc.violation = right.violation;
        }
        if let Some(ltape) = &mut acc.tape {
            // The enclosing join can no longer replay exactly either.
            ltape.dropped += tape.events.len() as u64 + tape.dropped;
        }
        if self.enforcing && fresh {
            let reason = acc
                .violation
                .clone()
                .unwrap_or_else(|| "violated".to_string());
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
    use monsem_syntax::parse_expr;

    #[test]
    fn observing_spec_preserves_the_answer_and_records_the_violation() {
        let prog = parse_expr("{a}:1 + {b}:2").unwrap();
        let m = SpecMonitor::new("no-b", "never(post(b))").unwrap();
        let (v, s) = eval_monitored(&prog, &m).unwrap();
        assert_eq!(v, Value::Int(3));
        assert!(s.violation.is_some(), "violation recorded: {s:?}");
        assert!(m.render_state(&s).contains("VIOLATED"));
    }

    #[test]
    fn enforcing_spec_aborts_naming_the_spec() {
        let prog = parse_expr("{a}:1 + {b}:2").unwrap();
        let m = SpecMonitor::new("no-b", "never(post(b))")
            .unwrap()
            .enforcing();
        let err = eval_monitored(&prog, &m).unwrap_err();
        match err {
            EvalError::MonitorAbort { monitor, reason } => {
                assert_eq!(monitor, "no-b");
                assert!(reason.contains("no-b"), "{reason}");
                assert!(reason.contains("post b"), "{reason}");
            }
            other => panic!("expected MonitorAbort, got {other:?}"),
        }
    }

    #[test]
    fn satisfied_spec_accepts_at_finish() {
        let prog = parse_expr("{a}:1 + {b}:2").unwrap();
        let m = SpecMonitor::new("sees-b", "eventually(post(b))").unwrap();
        let (_, s) = eval_monitored(&prog, &m).unwrap();
        let done = m.finish(&s).unwrap();
        assert!(done.violation.is_none());
    }

    #[test]
    fn unsatisfied_eventually_fails_at_finish() {
        let prog = parse_expr("{a}:1 + {a}:2").unwrap();
        let m = SpecMonitor::new("sees-b", "eventually(post(b))").unwrap();
        let (_, s) = eval_monitored(&prog, &m).unwrap();
        let err = m.finish(&s).unwrap_err();
        assert!(err.contains("unsatisfied"), "{err}");
    }

    #[test]
    fn namespaces_partition_events() {
        let prog = parse_expr("{ns/a}:1 + {b}:2").unwrap();
        // Watching namespace `ns`, the anonymous {b} is foreign: no
        // violation. The same spec over the anonymous namespace sees it.
        let scoped = SpecMonitor::new("no-b", "never(post(b))")
            .unwrap()
            .in_namespace(Namespace::new("ns"));
        let (_, s) = eval_monitored(&prog, &scoped).unwrap();
        assert!(s.violation.is_none());
        let anon = SpecMonitor::new("no-b", "never(post(b))").unwrap();
        let (_, s) = eval_monitored(&prog, &anon).unwrap();
        assert!(s.violation.is_some());
    }

    #[test]
    fn value_predicates_see_post_values() {
        let prog = parse_expr("letrec f = lambda x. {p}:x in f 5").unwrap();
        let ok = SpecMonitor::new("pos", "always(post(p) => value > 0)").unwrap();
        let (_, s) = eval_monitored(&prog, &ok).unwrap();
        assert!(s.violation.is_none());
        let bad = SpecMonitor::new("neg", "always(post(p) => value < 0)").unwrap();
        let (_, s) = eval_monitored(&prog, &bad).unwrap();
        assert!(s.violation.is_some());
    }

    #[test]
    fn irrelevant_hooks_are_invisible() {
        // A post-only spec: pre hooks must not count as events.
        let prog = parse_expr("{a}:({a}:1)").unwrap();
        let m = SpecMonitor::new("posts", "always(post(a) => value >= 0)").unwrap();
        let (_, s) = eval_monitored(&prog, &m).unwrap();
        assert_eq!(s.events, 2, "only the two post events are observed");
        let ann = Annotation::label("a");
        assert!(!m.accepts_event(&ann, HookPhase::Pre));
        assert!(m.accepts_event(&ann, HookPhase::Post));
    }

    #[test]
    fn parallel_spec_run_matches_sequential_bit_for_bit() {
        let prog = parse_expr(
            "letrec f = lambda x. {p}:(x * x) in par(f 2, f 3, f 4, f 5) ++ par(f 6, f 7)",
        )
        .unwrap();
        let m = SpecMonitor::new("pos", "always(post(p) => value > 0)").unwrap();
        let seq = eval_monitored(&prog, &m).unwrap();
        let par = monsem_monitor::eval_parallel(&prog, &m).unwrap();
        assert_eq!(seq, par, "answer and final spec state agree");
        assert_eq!(par.1.events, 6);
        assert!(par.1.tape.is_none(), "the root state records no tape");
    }

    #[test]
    fn parallel_violation_is_the_sequential_violation() {
        let prog = parse_expr("par({a}:1, {b}:2, {a}:3)").unwrap();
        let m = SpecMonitor::new("no-b", "never(post(b))").unwrap();
        let seq = eval_monitored(&prog, &m).unwrap();
        let par = monsem_monitor::eval_parallel(&prog, &m).unwrap();
        assert_eq!(seq, par);
        assert!(par.1.violation.as_deref().unwrap().contains("post b"));
    }

    #[test]
    fn enforcing_spec_aborts_a_shard() {
        let prog = parse_expr("par({a}:1, {b}:2, {a}:3)").unwrap();
        let m = SpecMonitor::new("no-b", "never(post(b))")
            .unwrap()
            .enforcing();
        match monsem_monitor::eval_parallel(&prog, &m).unwrap_err() {
            EvalError::MonitorAbort { monitor, .. } => assert_eq!(monitor, "no-b"),
            other => panic!("expected MonitorAbort, got {other:?}"),
        }
    }

    #[test]
    fn split_and_merge_obey_the_laws() {
        let m = SpecMonitor::new("pos", "always(post(p) => value > 0)").unwrap();
        // Build a mid-run state by observing one event.
        let sigma = match m.advance(
            m.initial_state(),
            {
                let aut = m.automaton();
                let alphabet = aut.alphabet();
                alphabet.post_letter(
                    alphabet.name_class(&monsem_syntax::Ident::new("p")),
                    alphabet.classify_value(&Value::Int(4)),
                )
            },
            || "post p = 4".to_string(),
        ) {
            Outcome::Continue(s) => s,
            Outcome::Abort { .. } => unreachable!(),
        };
        // split is a right identity for merge.
        assert_eq!(m.merge(sigma.clone(), m.split(&sigma)), sigma);
        // Associativity over shard tapes.
        let shard = |descs: &[i64]| {
            let mut s = m.split(&sigma);
            for v in descs {
                let aut = m.automaton();
                let alphabet = aut.alphabet();
                let letter = alphabet.post_letter(
                    alphabet.name_class(&monsem_syntax::Ident::new("p")),
                    alphabet.classify_value(&Value::Int(*v)),
                );
                s = match m.advance(s, letter, || format!("post p = {v}")) {
                    Outcome::Continue(s) => s,
                    Outcome::Abort { .. } => unreachable!(),
                };
            }
            s
        };
        let (a, b, c) = (shard(&[1, 2]), shard(&[-3]), shard(&[4]));
        assert_eq!(
            m.merge(m.merge(a.clone(), b.clone()), c.clone()),
            m.merge(a, m.merge(b, c))
        );
    }

    fn post_p_letter(m: &SpecMonitor, v: i64) -> u32 {
        let aut = m.automaton();
        let alphabet = aut.alphabet();
        alphabet.post_letter(
            alphabet.name_class(&monsem_syntax::Ident::new("p")),
            alphabet.classify_value(&Value::Int(v)),
        )
    }

    #[test]
    fn shard_tape_memory_is_bounded() {
        // Regression: a long-running shard must not retain O(n) replay
        // tape. A million events leave exactly `cap` retained entries.
        let m = SpecMonitor::new("pos", "always(post(p) => value > 0)")
            .unwrap()
            .replay_cap(64);
        let letter = post_p_letter(&m, 7);
        let mut s = m.split(&m.initial_state());
        const N: u64 = 1_000_000;
        for _ in 0..N {
            s = match m.advance(s, letter, || "post p = 7".to_string()) {
                Outcome::Continue(s) => s,
                Outcome::Abort { .. } => unreachable!(),
            };
        }
        let tape = s.tape.as_ref().unwrap();
        assert_eq!(tape.events.len(), 64);
        assert_eq!(tape.dropped, N - 64);
        assert_eq!(s.events, N);
    }

    #[test]
    fn truncated_shard_merges_exactly_into_an_unmoved_fork_point() {
        // Left never moved past the fork point, so the shard's own DFA
        // fields are adopted wholesale even though its tape overflowed.
        let m = SpecMonitor::new("pos", "always(post(p) => value > 0)")
            .unwrap()
            .replay_cap(4);
        let good = post_p_letter(&m, 7);
        let bad = post_p_letter(&m, -7);
        let sigma = m.initial_state();
        let mut shard = m.split(&sigma);
        for i in 0..10 {
            let letter = if i == 8 { bad } else { good };
            shard = match m.advance(shard, letter, || format!("post p = #{i}")) {
                Outcome::Continue(s) => s,
                Outcome::Abort { .. } => unreachable!(),
            };
        }
        let shard_state = shard.state;
        let merged = m.merge(sigma, shard);
        assert_eq!(merged.events, 10);
        assert_eq!(merged.state, shard_state, "shard DFA state adopted");
        assert!(merged.violation.is_some(), "shard violation surfaced");
        assert!(!merged.lossy, "adoption is exact, not lossy");
    }

    #[test]
    fn truncated_shard_merges_conservatively_into_a_moved_fork_point() {
        let m = SpecMonitor::new("pos", "always(post(p) => value > 0)")
            .unwrap()
            .replay_cap(4);
        let good = post_p_letter(&m, 7);
        let bad = post_p_letter(&m, -7);
        let sigma = m.initial_state();
        // The left accumulator has already absorbed an earlier shard.
        let left = match m.advance(sigma.clone(), good, || "post p = 7".to_string()) {
            Outcome::Continue(s) => s,
            Outcome::Abort { .. } => unreachable!(),
        };
        let mut shard = m.split(&sigma);
        for i in 0..10 {
            let letter = if i == 8 { bad } else { good };
            shard = match m.advance(shard, letter, || format!("post p = #{i}")) {
                Outcome::Continue(s) => s,
                Outcome::Abort { .. } => unreachable!(),
            };
        }
        let merged = m.merge(left, shard);
        assert_eq!(merged.events, 1 + 10, "shard events still accounted");
        assert!(merged.lossy, "truncated merge into a moved state is lossy");
        assert!(merged.violation.is_some(), "shard violation preserved");
        assert!(m.render_state(&merged).contains("VIOLATED"));
    }

    #[test]
    fn check_tape_matches_the_live_run() {
        use monsem_monitor::{record_monitored, MemorySink, SharedSink};
        let prog = parse_expr("{a}:1 + {b}:2").unwrap();
        let m = SpecMonitor::new("no-b", "never(post(b))").unwrap();
        let mem = MemorySink::new();
        let sink = SharedSink::new(mem.clone());
        let (v, s) = record_monitored(&prog, m.clone(), &sink).unwrap();
        let tape = mem.take();
        assert_eq!(v, Value::Int(3));
        let check = m.check_tape(tape.iter());
        assert_eq!(check.state.violation, s.violation);
        assert!(matches!(check.outcome, TapeOutcome::Violated(_)));
        // The earliest violation is the `post b` event's step index.
        let step = check.earliest_violation.unwrap();
        let ev = tape.iter().find(|e| e.step == step).unwrap();
        assert_eq!(ev.name, "b");
        assert_eq!(ev.phase, TapePhase::Post);
    }

    #[test]
    fn check_tape_reports_satisfied_and_pending() {
        use monsem_monitor::{record_monitored, MemorySink, SharedSink};
        let prog = parse_expr("{a}:1 + {b}:2").unwrap();
        let m = SpecMonitor::new("sees-b", "eventually(post(b))").unwrap();
        let mem = MemorySink::new();
        let sink = SharedSink::new(mem.clone());
        record_monitored(&prog, m.clone(), &sink).unwrap();
        let tape = mem.take();
        assert_eq!(m.check_tape(tape.iter()).outcome, TapeOutcome::Satisfied);
        // Without the `done` marker the trace is merely an open prefix.
        let open: Vec<_> = tape
            .iter()
            .filter(|e| e.phase != TapePhase::Done)
            .cloned()
            .collect();
        assert_eq!(m.check_tape(open.iter()).outcome, TapeOutcome::Pending);
        // An unsatisfied `eventually` at `done` has no violating event.
        let unsat = SpecMonitor::new("sees-c", "eventually(post(c))").unwrap();
        let check = unsat.check_tape(tape.iter());
        assert!(matches!(check.outcome, TapeOutcome::Violated(_)));
        assert_eq!(check.earliest_violation, None);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let prog = parse_expr(
            "letrec count = lambda x. if (x = 0) then {z}:0 else {l}:(count (x - 1)) in count 50",
        )
        .unwrap();
        let m = SpecMonitor::new("nonneg", "always(post(l) => value >= 0)")
            .unwrap()
            .trace_cap(4);
        let (_, s) = eval_monitored(&prog, &m).unwrap();
        assert_eq!(s.trace.len(), 4);
        assert_eq!(s.events, 50, "one observed event per {{l}} post");
        assert!(s.violation.is_none());
    }
}
