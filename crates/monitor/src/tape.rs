//! Serializable event tapes: the pre-abstraction monitoring stream.
//!
//! The monitored machines fire hooks *in process*; this module captures
//! the same stream as plain data so it can leave the process — to a file,
//! a socket, or a monitor server. A [`TapeEvent`] carries exactly what a
//! temporal-spec monitor needs to re-derive its abstract letter later:
//! the hook phase, the annotation's namespace and symbol, a [`ValueDesc`]
//! of the produced value (for `post` events), and a monotone step index.
//! Crucially the description is *pre-abstraction*: no spec's alphabet is
//! baked in, so one tape can be checked against any spec, including specs
//! that did not exist when the tape was recorded (hot-swap).
//!
//! The pieces:
//!
//! * [`TapeSink`] — where events go (an in-memory vector, a binary
//!   writer in `monsem-tape`, a socket client);
//! * [`SharedSink`] — a cheaply cloneable, thread-safe cursor over a
//!   sink that assigns step indices; shards of a fork-join evaluation
//!   append through the same cursor;
//! * [`Taping`] — a [`Monitor`] wrapper that records every annotation
//!   event to a sink while delegating to an inner monitor, so recording
//!   composes with live checking;
//! * [`record_monitored`] / [`record_monitored_with`] — run a program
//!   under a taping monitor and close the tape with a [`TapePhase::Done`]
//!   event on success.

use crate::machine::eval_monitored_with;
use crate::scope::Scope;
use crate::spec::{HookPhase, MergeMonitor, Monitor, Outcome};
use monsem_core::env::Env;
use monsem_core::error::EvalError;
use monsem_core::machine::EvalOptions;
use monsem_core::Value;
use monsem_syntax::{Annotation, Expr};
use std::sync::{Arc, Mutex};

/// Which hook a tape event came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TapePhase {
    /// The `updPre` hook, before the annotated expression ran.
    Pre,
    /// The `updPost` hook, after the annotated expression produced a
    /// value.
    Post,
    /// The evaluation completed; closes the trace for end-of-trace
    /// obligations (`eventually(..)` and friends).
    Done,
}

/// A value description rich enough for any spec's abstraction.
///
/// Temporal specs abstract observed values three ways: integer regions
/// cut at comparison constants, the `unsorted` list predicate, and
/// "other". A `ValueDesc` preserves each input to those abstractions —
/// the exact integer if the value was one, whether the value is a
/// definitely-unsorted list, and a bounded display string for
/// diagnostics — so `Alphabet::classify_desc` reaches the same value
/// class `classify_value` reached live.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ValueDesc {
    /// The value, when it was an integer.
    pub int: Option<i64>,
    /// Whether the value is a list with an adjacent decreasing integer
    /// pair (the Figure 8 demon's trigger).
    pub unsorted: bool,
    /// Bounded human-readable rendering, as used in violation reasons.
    pub display: String,
}

impl ValueDesc {
    /// Describes a concrete value.
    pub fn of(v: &Value) -> ValueDesc {
        ValueDesc {
            int: match v {
                Value::Int(n) => Some(*n),
                _ => None,
            },
            unsorted: value_is_unsorted(v),
            display: short_display(v),
        }
    }
}

/// Canonical bounded rendering of an observed value: at most 40
/// characters, longer values truncated to 37 plus `...`. Violation
/// reasons everywhere use exactly this form, which is what lets an
/// offline `check` reproduce a live run's reasons bit-for-bit.
pub fn short_display(v: &Value) -> String {
    let s = v.to_string();
    if s.chars().count() > 40 {
        let head: String = s.chars().take(37).collect();
        format!("{head}...")
    } else {
        s
    }
}

/// Whether `v` is a list with an adjacent pair of integers in decreasing
/// order — the trigger shared by the Figure 8 demon and the `unsorted`
/// spec predicate.
pub fn value_is_unsorted(v: &Value) -> bool {
    let Some(items) = v.iter_list() else {
        return false;
    };
    items.windows(2).any(|w| match (w[0], w[1]) {
        (Value::Int(a), Value::Int(b)) => a > b,
        _ => false,
    })
}

/// One monitoring event, as serialized to a tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeEvent {
    /// Which hook fired.
    pub phase: TapePhase,
    /// The annotation's namespace (`""` for the anonymous namespace).
    pub namespace: String,
    /// The annotation symbol.
    pub name: String,
    /// The produced value's description; present exactly on
    /// [`TapePhase::Post`] events.
    pub value: Option<ValueDesc>,
    /// Monotone per-tape sequence number, assigned at record time.
    pub step: u64,
    /// Monotone timestamp in milliseconds, present when the recording
    /// sink had a clock attached (tape format v2). `None` on untimed
    /// tapes; time-windowed stream monitors then fall back to logical
    /// time (the observed-event ordinal).
    pub time: Option<u64>,
}

impl TapeEvent {
    /// A `pre` event.
    pub fn pre(ann: &Annotation, step: u64) -> TapeEvent {
        TapeEvent {
            phase: TapePhase::Pre,
            namespace: ann.namespace.as_str().to_string(),
            name: ann.name().as_str().to_string(),
            value: None,
            step,
            time: None,
        }
    }

    /// A `post` event.
    pub fn post(ann: &Annotation, value: &Value, step: u64) -> TapeEvent {
        TapeEvent {
            phase: TapePhase::Post,
            namespace: ann.namespace.as_str().to_string(),
            name: ann.name().as_str().to_string(),
            value: Some(ValueDesc::of(value)),
            step,
            time: None,
        }
    }

    /// The end-of-trace event.
    pub fn done(step: u64) -> TapeEvent {
        TapeEvent {
            phase: TapePhase::Done,
            namespace: String::new(),
            name: String::new(),
            value: None,
            step,
            time: None,
        }
    }

    /// Stamps the event with a timestamp (milliseconds, monotone).
    pub fn at(mut self, time: u64) -> TapeEvent {
        self.time = Some(time);
        self
    }
}

/// The id of "no string": the display of an event without a value, and
/// the namespace and name of a `done` event.
pub const NO_STRING: u32 = u32::MAX;

/// One event as a borrowed, symbol-indexed view: a [`TapeEvent`] whose
/// strings are ids into a [`Strings`] table instead of owned text.
///
/// A decoded tape is a string table plus a slice of views, so decoding
/// allocates nothing per event, and a monitor resolves each *string*
/// (not each event) against its spec once per table. Every tape fold —
/// offline checks, checkpoint writing and seeking, the monitor server's
/// ingest and hot-swap splice — runs over views.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventView {
    /// Which hook fired.
    pub phase: TapePhase,
    /// String id of the annotation's namespace.
    pub namespace: u32,
    /// String id of the annotation symbol.
    pub name: u32,
    /// String id of the value's display ([`NO_STRING`] when the event
    /// carries no value).
    pub display: u32,
    /// The value, when it was an integer.
    pub int: Option<i64>,
    /// Whether the value was a definitely-unsorted list.
    pub unsorted: bool,
    /// The step index.
    pub step: u64,
    /// The timestamp, on timed tapes.
    pub time: Option<u64>,
}

/// The string table [`EventView`]s index.
pub trait Strings {
    /// The string with id `id`; `""` for [`NO_STRING`] or an id past the
    /// table (decoders reject such ids, so folds never see one).
    fn get(&self, id: u32) -> &str;
}

impl Strings for [&str] {
    fn get(&self, id: u32) -> &str {
        <[&str]>::get(self, id as usize).copied().unwrap_or("")
    }
}

/// How a fold over a run of [`EventView`]s stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldEnd {
    /// Every event was folded.
    End,
    /// The view at this index is a [`TapePhase::Done`] marker; it was not
    /// folded.
    Done(usize),
    /// The event at this index was folded and produced an abort verdict.
    Abort(usize),
}

/// Whether `a` and `b` spell the same text, comparing lengths before
/// bytes. Two empty strings are equal without a byte compare: an empty
/// `String`'s pointer is dangling, and a zero-length `memcmp` on such a
/// pointer can cost a hundred times one on mapped memory. Every per-event
/// text compare on the tape paths goes through here.
#[inline]
pub fn same_text(a: &str, b: &str) -> bool {
    a.len() == b.len() && (a.is_empty() || a.as_bytes() == b.as_bytes())
}

/// FNV-1a over `bytes`: the tape's one string hash (the digest tapes
/// name specs by, and the key of every [`TextIndex`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Slots of a [`TextIndex`] before its first growth.
const INDEX_MIN_SLOTS: usize = 16;

/// Slots a [`TextIndex`] probe visits at most. The index keys text that
/// can come from outside the program (a tape file read with `read_tape`
/// and checked as owned events, a producer's event names), so text
/// crafted to collide must not make interning quadratic: text whose
/// probe runs longer is not indexed and gets a fresh id.
pub const INDEX_MAX_PROBES: usize = 16;

/// The tape's one string index: maps text to the id it was interned
/// under, for [`OwnedViews`] and for `monsem-tape`'s `TapeWriter`.
///
/// The caller owns the text. It numbers its strings `0, 1, 2, …` in the
/// order it stores them and hands [`TextIndex::intern`] the text of an
/// id on demand. The index is a small open-addressing table keyed by
/// [`fnv1a`] that doubles at half load and compares through
/// [`same_text`]. A probe visits at most [`INDEX_MAX_PROBES`] slots, so
/// text crafted to collide costs extra ids, never quadratic time: ids
/// need not be unique per text.
#[derive(Debug, Clone, Default)]
pub struct TextIndex {
    /// A string id per slot, [`NO_STRING`] for an empty slot.
    slots: Vec<u32>,
    indexed: usize,
}

impl TextIndex {
    /// An index that holds `texts` strings before it first grows.
    pub fn with_capacity(texts: usize) -> TextIndex {
        let slots = (2 * texts).next_power_of_two().max(INDEX_MIN_SLOTS);
        TextIndex {
            slots: vec![NO_STRING; slots],
            indexed: 0,
        }
    }

    /// The id equal text was interned under, or `None` for new text: the
    /// caller then stores `s` as string `next`, which the index now
    /// holds unless the probe ran past [`INDEX_MAX_PROBES`] (or `next` is
    /// [`NO_STRING`]). `text` returns the stored text of an id.
    #[inline]
    pub fn intern<'t>(&mut self, s: &str, next: u32, text: impl Fn(u32) -> &'t str) -> Option<u32> {
        if 2 * (self.indexed + 1) > self.slots.len() {
            self.grow(&text);
        }
        match self.find(s, &text) {
            Ok(id) => Some(id),
            Err(slot) => {
                if let Some(slot) = slot.filter(|_| next != NO_STRING) {
                    self.slots[slot] = next;
                    self.indexed += 1;
                }
                None
            }
        }
    }

    /// Looks `s` up: its id, or else the empty slot it would take
    /// (`None` when the probe ran past [`INDEX_MAX_PROBES`]).
    #[inline]
    fn find<'t>(&self, s: &str, text: impl Fn(u32) -> &'t str) -> Result<u32, Option<usize>> {
        let mask = self.slots.len() - 1;
        let mut slot = fnv1a(s.as_bytes()) as usize & mask;
        for _ in 0..INDEX_MAX_PROBES {
            match self.slots[slot] {
                NO_STRING => return Err(Some(slot)),
                id if same_text(text(id), s) => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
        Err(None)
    }

    /// Doubles the slots (or allocates the first ones) and re-places
    /// every indexed id.
    fn grow<'t>(&mut self, text: impl Fn(u32) -> &'t str) {
        let slots = (2 * self.slots.len()).max(INDEX_MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![NO_STRING; slots]);
        self.indexed = 0;
        for id in old.into_iter().filter(|&id| id != NO_STRING) {
            // Indexed texts are distinct, so the probe only finds a slot.
            if let Err(Some(slot)) = self.find(text(id), &text) {
                self.slots[slot] = id;
                self.indexed += 1;
            }
        }
    }

    /// Forgets every id, keeping the slots.
    pub fn clear(&mut self) {
        self.slots.fill(NO_STRING);
        self.indexed = 0;
    }
}

/// Views over owned [`TapeEvent`]s: the adapter that lets a `&TapeEvent`
/// path (an in-memory tape, a [`TapeSink`] recording, a tape read with
/// `read_tape`) run the same view fold as a decoded tape. Building the
/// views copies no text.
///
/// Equal namespace or name text gets one id per run, as on a decoded
/// tape, so a fold resolves each distinct string once per run rather
/// than once per event; the ids come from a [`TextIndex`]. Displays keep
/// an id per event: they are only rendered. The buffers, index included,
/// are reused across [`OwnedViews::clear`].
#[derive(Debug, Default)]
pub struct OwnedViews<'a> {
    strings: Vec<&'a str>,
    views: Vec<EventView>,
    /// The index over the interned namespaces and names.
    index: TextIndex,
}

impl<'a> OwnedViews<'a> {
    /// Empty buffers.
    pub fn new() -> OwnedViews<'a> {
        OwnedViews::default()
    }

    /// Views over `events`.
    pub fn of(events: impl IntoIterator<Item = &'a TapeEvent>) -> OwnedViews<'a> {
        let mut v = OwnedViews::new();
        for ev in events {
            v.push(ev);
        }
        v
    }

    /// Appends one event.
    pub fn push(&mut self, ev: &'a TapeEvent) {
        let (namespace, name) = match ev.phase {
            TapePhase::Done => (NO_STRING, NO_STRING),
            _ => (self.intern(&ev.namespace), self.intern(&ev.name)),
        };
        let value = ev.value.as_ref().filter(|_| ev.phase == TapePhase::Post);
        let display = value.map_or(NO_STRING, |d| {
            self.strings.push(&d.display);
            (self.strings.len() - 1) as u32
        });
        self.views.push(EventView {
            phase: ev.phase,
            namespace,
            name,
            display,
            int: value.and_then(|d| d.int),
            unsorted: value.is_some_and(|d| d.unsorted),
            step: ev.step,
            time: ev.time,
        });
    }

    /// Number of events held.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether no event is held.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The id of `s` in this run: the id equal text got before, or a new
    /// one.
    fn intern(&mut self, s: &'a str) -> u32 {
        let next = self.strings.len() as u32;
        let strings = &self.strings;
        if let Some(id) = self.index.intern(s, next, |id| strings[id as usize]) {
            return id;
        }
        self.strings.push(s);
        next
    }

    /// Drops the events, keeping the buffers.
    pub fn clear(&mut self) {
        self.strings.clear();
        self.views.clear();
        self.index.clear();
    }

    /// The views, in event order.
    pub fn views(&self) -> &[EventView] {
        &self.views
    }
}

impl Strings for OwnedViews<'_> {
    fn get(&self, id: u32) -> &str {
        Strings::get(&self.strings[..], id)
    }
}

/// A string table resolved against one monitor: per string id, whether it
/// spells the watched namespace and what the monitor's spec makes of it
/// as a name. Filled lazily as a fold meets each id, so every string is
/// resolved at most once per table, and never interned. The buffers are
/// reused: [`Resolution::reset`] before each new table.
#[derive(Debug, Clone, Default)]
pub struct Resolution {
    ours: Vec<u8>,
    names: Vec<u32>,
}

/// A [`Resolution`] slot no name has been resolved into yet.
const UNRESOLVED: u32 = u32::MAX;

impl Resolution {
    /// Forgets the previous table's ids, keeping the buffers.
    pub fn reset(&mut self) {
        self.ours.clear();
        self.names.clear();
    }

    /// Whether string `id` spells `namespace` ([`NO_STRING`] spells
    /// `""`).
    #[inline]
    pub fn ours(&mut self, id: u32, strings: &dyn Strings, namespace: &str) -> bool {
        if id == NO_STRING {
            return namespace.is_empty();
        }
        let i = id as usize;
        if i >= self.ours.len() {
            self.ours.resize(i + 1, 0);
        }
        if self.ours[i] == 0 {
            self.ours[i] = if same_text(strings.get(id), namespace) {
                1
            } else {
                2
            };
        }
        self.ours[i] == 1
    }

    /// What string `id` names: `resolve` of its text, called once per id
    /// and table. `resolve` must not return `u32::MAX`.
    #[inline]
    pub fn name(
        &mut self,
        id: u32,
        strings: &dyn Strings,
        resolve: impl FnOnce(&str) -> u32,
    ) -> u32 {
        if id == NO_STRING {
            return resolve("");
        }
        let i = id as usize;
        if i >= self.names.len() {
            self.names.resize(i + 1, UNRESOLVED);
        }
        if self.names[i] == UNRESOLVED {
            self.names[i] = resolve(strings.get(id));
        }
        self.names[i]
    }
}

/// A monitor that folds tape events as [`EventView`]s: the MFun of the
/// tape paths. A kind supplies the one-event step; [`fold_views`],
/// [`fold_through`] and [`Check`] run it over runs of views, so every
/// tape path — offline checks, checkpoint writing and seeking, the
/// monitor server's ingest and hot-swap splice — is one loop for every
/// kind.
pub trait TapeFold: Monitor {
    /// Folds one event view in place: its strings resolve through `res`
    /// (once per id and table). Records the step of the event that first
    /// enters a violation in `earliest`, for kinds that have one. A `done`
    /// marker leaves the state untouched: [`fold_views`] stops at it, and
    /// its caller closes the trace.
    fn fold_view(
        &self,
        state: &mut Self::State,
        ev: &EventView,
        strings: &dyn Strings,
        res: &mut Resolution,
        earliest: &mut Option<u64>,
    ) -> Outcome<()>;

    /// Ends a fold over one string table: the state must stop referring
    /// to it. The default keeps nothing.
    fn end_views(&self, _state: &mut Self::State, _strings: &dyn Strings) {}
}

/// Folds a run of event views (one string table, resolved afresh) until
/// its end, a `done` marker, or an abort verdict — the batch fold behind
/// every tape path. Ends the table ([`TapeFold::end_views`]) before
/// returning.
pub fn fold_views<M: TapeFold>(
    m: &M,
    state: &mut M::State,
    views: &[EventView],
    strings: &dyn Strings,
    res: &mut Resolution,
    earliest: &mut Option<u64>,
) -> FoldEnd {
    res.reset();
    let mut end = FoldEnd::End;
    for (i, ev) in views.iter().enumerate() {
        if ev.phase == TapePhase::Done {
            end = FoldEnd::Done(i);
            break;
        }
        if let Outcome::Abort { .. } = m.fold_view(state, ev, strings, res, earliest) {
            end = FoldEnd::Abort(i);
            break;
        }
    }
    m.end_views(state, strings);
    end
}

/// [`fold_views`] over every event: `done` markers and abort verdicts
/// are passed over, as hot-swap splicing and checkpoint writing need.
pub fn fold_through<M: TapeFold>(
    m: &M,
    state: &mut M::State,
    mut views: &[EventView],
    strings: &dyn Strings,
    res: &mut Resolution,
    earliest: &mut Option<u64>,
) {
    while let FoldEnd::Done(i) | FoldEnd::Abort(i) =
        fold_views(m, state, views, strings, res, earliest)
    {
        views = &views[i + 1..];
    }
}

/// An offline check in progress: the accumulator every kind's tape check
/// folds into, run by run, until a `done` marker closes the trace or an
/// abort verdict ends it. Each kind turns the finished accumulator into
/// its own verdict.
#[derive(Debug)]
pub struct Check<S> {
    /// The fold state.
    pub state: S,
    /// The step of the event that first entered a violation.
    pub earliest: Option<u64>,
    /// Whether a `done` marker was folded.
    pub completed: bool,
    /// The `done` marker's timestamp, on timed tapes.
    pub end_time: Option<u64>,
    /// Whether an event produced an abort verdict.
    pub aborted: bool,
    res: Resolution,
}

impl<S> Check<S> {
    /// A check from `seed` that has folded nothing.
    pub fn new(seed: S) -> Check<S> {
        Check {
            state: seed,
            earliest: None,
            completed: false,
            end_time: None,
            aborted: false,
            res: Resolution::default(),
        }
    }

    /// A check of owned events from `seed`, folded as views a run at a
    /// time (see [`fold_owned`]).
    pub fn owned<'a, M: TapeFold<State = S>>(
        m: &M,
        seed: S,
        events: impl IntoIterator<Item = &'a TapeEvent>,
    ) -> Check<S> {
        let mut check = Check::new(seed);
        fold_owned(events, |run| check.fold(m, run.views(), run));
        check
    }

    /// Feeds one run of event views (one string table). Returns `false`
    /// once the check has concluded — at a `done` marker or an abort
    /// verdict — and folds nothing after that.
    pub fn fold<M: TapeFold<State = S>>(
        &mut self,
        m: &M,
        views: &[EventView],
        strings: &dyn Strings,
    ) -> bool {
        if self.completed || self.aborted {
            return false;
        }
        let end = fold_views(
            m,
            &mut self.state,
            views,
            strings,
            &mut self.res,
            &mut self.earliest,
        );
        match end {
            FoldEnd::End => return true,
            FoldEnd::Done(i) => {
                self.completed = true;
                self.end_time = views[i].time;
            }
            FoldEnd::Abort(_) => self.aborted = true,
        }
        false
    }
}

/// Events per run of views when owned events are folded as views.
const OWNED_CHUNK: usize = 256;

/// Feeds `events` to `fold` as views, a run of at most 256 events at a
/// time, so a `&TapeEvent` source runs the view fold without a view
/// buffer the size of the whole tape. `fold` returns `false` to stop.
pub fn fold_owned<'a>(
    events: impl IntoIterator<Item = &'a TapeEvent>,
    mut fold: impl FnMut(&OwnedViews<'a>) -> bool,
) {
    let mut views = OwnedViews::new();
    for ev in events {
        views.push(ev);
        if views.len() >= OWNED_CHUNK {
            if !fold(&views) {
                return;
            }
            views.clear();
        }
    }
    if !views.is_empty() {
        fold(&views);
    }
}

/// Where recorded events go. Implementations must tolerate being called
/// from whichever thread currently holds the [`SharedSink`] lock.
pub trait TapeSink {
    /// Appends one event.
    fn record(&mut self, event: TapeEvent);
}

impl TapeSink for Vec<TapeEvent> {
    fn record(&mut self, event: TapeEvent) {
        self.push(event);
    }
}

/// An in-memory sink that can be drained from a clone — handy when the
/// recording monitor is moved into an evaluation but the events are
/// wanted afterwards.
#[derive(Debug, Clone, Default)]
pub struct MemorySink(Arc<Mutex<Vec<TapeEvent>>>);

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A copy of the events recorded so far.
    pub fn events(&self) -> Vec<TapeEvent> {
        self.0.lock().expect("memory sink lock").clone()
    }

    /// Drains the recorded events.
    pub fn take(&self) -> Vec<TapeEvent> {
        std::mem::take(&mut *self.0.lock().expect("memory sink lock"))
    }
}

impl TapeSink for MemorySink {
    fn record(&mut self, event: TapeEvent) {
        self.0.lock().expect("memory sink lock").push(event);
    }
}

struct SinkCursor {
    sink: Box<dyn TapeSink + Send>,
    next: u64,
    clock: Option<Box<dyn Fn() -> u64 + Send>>,
    last_time: u64,
}

/// A cloneable, thread-safe cursor over a [`TapeSink`] that assigns the
/// step indices. All clones share one counter, so events recorded by
/// fork-join shards interleave into a single well-ordered tape (the
/// interleaving itself follows the thread schedule; per-shard order is
/// preserved because each shard's hooks are sequential).
#[derive(Clone)]
pub struct SharedSink(Arc<Mutex<SinkCursor>>);

impl SharedSink {
    /// Wraps a sink.
    pub fn new(sink: impl TapeSink + Send + 'static) -> SharedSink {
        SharedSink(Arc::new(Mutex::new(SinkCursor {
            sink: Box::new(sink),
            next: 0,
            clock: None,
            last_time: 0,
        })))
    }

    /// Wraps a sink with a clock: every recorded event is stamped with
    /// `clock()` milliseconds, clamped to be monotone non-decreasing.
    /// Tapes recorded through a clocked sink serialize as format v2.
    pub fn with_clock(
        sink: impl TapeSink + Send + 'static,
        clock: impl Fn() -> u64 + Send + 'static,
    ) -> SharedSink {
        SharedSink(Arc::new(Mutex::new(SinkCursor {
            sink: Box::new(sink),
            next: 0,
            clock: Some(Box::new(clock)),
            last_time: 0,
        })))
    }

    fn record_with(&self, make: impl FnOnce(u64) -> TapeEvent) {
        let mut cursor = self.0.lock().expect("tape sink lock");
        let step = cursor.next;
        cursor.next += 1;
        let mut event = make(step);
        if let Some(clock) = &cursor.clock {
            let now = clock().max(cursor.last_time);
            cursor.last_time = now;
            event.time = Some(now);
        }
        cursor.sink.record(event);
    }

    /// Records a `pre` event for `ann`.
    pub fn record_pre(&self, ann: &Annotation) {
        self.record_with(|step| TapeEvent::pre(ann, step));
    }

    /// Records a `post` event for `ann` with the produced value.
    pub fn record_post(&self, ann: &Annotation, value: &Value) {
        self.record_with(|step| TapeEvent::post(ann, value, step));
    }

    /// Records the end-of-trace event.
    pub fn record_done(&self) {
        self.record_with(TapeEvent::done);
    }

    /// Number of events recorded so far.
    pub fn recorded(&self) -> u64 {
        self.0.lock().expect("tape sink lock").next
    }
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedSink(recorded: {})", self.recorded())
    }
}

/// A monitor wrapper that records every annotation event to a tape while
/// delegating to an inner monitor.
///
/// `Taping` accepts *all* annotations — the tape is pre-abstraction, so
/// it must not inherit the inner monitor's MSyn gating — but the inner
/// monitor's hooks fire exactly when they would have fired without the
/// wrapper, so the inner state evolves identically to an untaped run
/// (the property the `check ≡ live` tests lean on).
#[derive(Debug, Clone)]
pub struct Taping<M> {
    inner: M,
    sink: SharedSink,
}

impl<M: Monitor> Taping<M> {
    /// Records to `sink` while running `inner`.
    pub fn new(inner: M, sink: SharedSink) -> Taping<M> {
        Taping { inner, sink }
    }

    /// The wrapped monitor.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The sink events are recorded to.
    pub fn sink(&self) -> &SharedSink {
        &self.sink
    }
}

impl<M: Monitor> Monitor for Taping<M> {
    type State = M::State;

    fn name(&self) -> &str {
        self.inner.name()
    }

    // Accept everything: the tape carries the full pre-abstraction
    // stream, whatever the inner monitor's syntax is.
    fn accepts(&self, _ann: &Annotation) -> bool {
        true
    }

    fn accepts_event(&self, _ann: &Annotation, _phase: HookPhase) -> bool {
        true
    }

    fn initial_state(&self) -> Self::State {
        self.inner.initial_state()
    }

    fn try_pre(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        state: Self::State,
    ) -> Outcome<Self::State> {
        self.sink.record_pre(ann);
        if self.inner.accepts(ann) && self.inner.accepts_event(ann, HookPhase::Pre) {
            self.inner.try_pre(ann, expr, scope, state)
        } else {
            Outcome::Continue(state)
        }
    }

    fn try_post(
        &self,
        ann: &Annotation,
        expr: &Expr,
        scope: &Scope<'_>,
        value: &Value,
        state: Self::State,
    ) -> Outcome<Self::State> {
        self.sink.record_post(ann, value);
        if self.inner.accepts(ann) && self.inner.accepts_event(ann, HookPhase::Post) {
            self.inner.try_post(ann, expr, scope, value, state)
        } else {
            Outcome::Continue(state)
        }
    }

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
        self.inner.render_state(state)
    }

    fn health(&self, state: &Self::State) -> crate::fault::Health {
        self.inner.health(state)
    }
}

impl<M: MergeMonitor> MergeMonitor for Taping<M> {
    fn fork(&self, state: Self::State) -> Self::State {
        self.inner.fork(state)
    }

    fn split(&self, state: &Self::State) -> Self::State {
        self.inner.split(state)
    }

    fn merge(&self, left: Self::State, right: Self::State) -> Self::State {
        self.inner.merge(left, right)
    }

    fn merge_outcome(&self, left: Self::State, right: Self::State) -> Outcome<Self::State> {
        self.inner.merge_outcome(left, right)
    }
}

/// Runs `expr` under `monitor`, recording the event tape to `sink` and
/// closing it with a [`TapePhase::Done`] event iff the evaluation
/// succeeds (an erroring run leaves the tape open-ended, mirroring a
/// live trace that never completed).
///
/// # Errors
///
/// Any [`EvalError`] the program provokes — including aborts from
/// `monitor` itself, which is consulted live while the tape records.
pub fn record_monitored<M: Monitor>(
    expr: &Expr,
    monitor: M,
    sink: &SharedSink,
) -> Result<(Value, M::State), EvalError> {
    record_monitored_with(expr, &Env::empty(), monitor, sink, &EvalOptions::default())
}

/// [`record_monitored`] with an explicit environment and options.
///
/// # Errors
///
/// As for [`record_monitored`].
pub fn record_monitored_with<M: Monitor>(
    expr: &Expr,
    env: &Env,
    monitor: M,
    sink: &SharedSink,
    options: &EvalOptions,
) -> Result<(Value, M::State), EvalError> {
    let taping = Taping::new(monitor, sink.clone());
    let sigma = taping.initial_state();
    let (value, state) = eval_monitored_with(expr, env, &taping, sigma, options)?;
    sink.record_done();
    Ok((value, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::IdentityMonitor;
    use monsem_syntax::parse_expr;

    #[test]
    fn taping_records_the_event_stream_in_hook_order() {
        let e = parse_expr("{outer}:({inner}:(1 + 2) * 2)").unwrap();
        let mem = MemorySink::new();
        let sink = SharedSink::new(mem.clone());
        let (v, ()) = record_monitored(&e, IdentityMonitor, &sink).unwrap();
        assert_eq!(v, Value::Int(6));
        let events = mem.events();
        let shape: Vec<(TapePhase, &str)> = events
            .iter()
            .map(|ev| (ev.phase, ev.name.as_str()))
            .collect();
        assert_eq!(
            shape,
            vec![
                (TapePhase::Pre, "outer"),
                (TapePhase::Pre, "inner"),
                (TapePhase::Post, "inner"),
                (TapePhase::Post, "outer"),
                (TapePhase::Done, ""),
            ]
        );
        assert_eq!(
            events.iter().map(|ev| ev.step).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4],
            "steps are assigned monotonically"
        );
        assert_eq!(
            events[2].value,
            Some(ValueDesc {
                int: Some(3),
                unsorted: false,
                display: "3".to_string()
            })
        );
    }

    #[test]
    fn value_descriptions_cover_the_abstraction_inputs() {
        let sorted = Value::list([1, 2, 3].map(Value::Int));
        let unsorted = Value::list([3, 1, 2].map(Value::Int));
        assert!(!ValueDesc::of(&sorted).unsorted);
        assert!(ValueDesc::of(&unsorted).unsorted);
        assert_eq!(ValueDesc::of(&Value::Int(-7)).int, Some(-7));
        assert_eq!(ValueDesc::of(&Value::Bool(true)).int, None);
        let long = Value::list((0..40).map(Value::Int).collect::<Vec<_>>());
        let desc = ValueDesc::of(&long);
        assert_eq!(desc.display.chars().count(), 40);
        assert!(desc.display.ends_with("..."));
    }

    #[test]
    fn owned_views_give_equal_text_one_id_per_run() {
        let x = Annotation::label("x");
        let y = Annotation::label("y").in_namespace(monsem_syntax::Namespace::new("x"));
        let events = vec![
            TapeEvent::post(&x, &Value::Int(1), 0),
            TapeEvent::post(&y, &Value::Int(1), 1),
            TapeEvent::pre(&x, 2),
            TapeEvent::done(3),
        ];
        let mut views = OwnedViews::of(&events);
        let v = views.views().to_vec();
        let text = |id| Strings::get(&views, id).to_string();
        // `""` (x's namespace) and `"x"` (y's namespace, and x's name)
        // are distinct texts; each keeps one id across events.
        assert_eq!(
            (text(v[0].namespace), text(v[1].namespace)),
            ("".into(), "x".into())
        );
        assert_ne!(v[0].namespace, v[1].namespace);
        assert_eq!(v[0].namespace, v[2].namespace);
        assert_eq!(v[0].name, v[2].name);
        assert_eq!(
            v[0].name, v[1].namespace,
            "a name and a namespace of equal text"
        );
        // Equal displays are not shared, nor do they share an interned id.
        assert_ne!(v[0].display, v[1].display);
        assert_eq!(
            (text(v[0].display), text(v[1].display)),
            ("1".into(), "1".into())
        );
        assert_ne!(v[0].display, v[0].name);
        assert_eq!(
            (v[3].namespace, v[3].name, v[3].display),
            (NO_STRING, NO_STRING, NO_STRING)
        );
        assert_eq!(v[2].display, NO_STRING);

        // `clear` restarts the ids: the same events view identically.
        views.clear();
        for ev in &events {
            views.push(ev);
        }
        assert_eq!(views.views(), &v[..]);

        // Many distinct names grow the index several times; every name
        // keeps its first id.
        let anns: Vec<Annotation> = (0..200)
            .map(|i| Annotation::label(format!("n{i}")))
            .collect();
        let many: Vec<TapeEvent> = (0..2)
            .flat_map(|_| anns.iter().map(|a| TapeEvent::pre(a, 0)))
            .collect();
        let views = OwnedViews::of(&many);
        let (first, again) = views.views().split_at(anns.len());
        assert!(first.iter().zip(again).all(|(a, b)| a.name == b.name));
        assert!(first.iter().all(|v| v.namespace == first[0].namespace));
        let mut names: Vec<u32> = first.iter().map(|v| v.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), anns.len(), "distinct names keep distinct ids");
    }

    #[test]
    fn colliding_text_costs_ids_not_probes() {
        // Names whose FNV-1a hashes agree in their low 12 bits share a
        // home slot in every index the run grows to.
        let home = |n: &str| fnv1a(n.as_bytes()) & 0xfff;
        let names: Vec<String> = (0u32..)
            .map(|i| format!("c{i}"))
            .filter(|n| home(n) == home("c0"))
            .take(2 * INDEX_MAX_PROBES)
            .collect();
        let anns: Vec<Annotation> = names
            .iter()
            .map(|n| Annotation::label(n.as_str()))
            .collect();
        let events: Vec<TapeEvent> = anns
            .iter()
            .chain(&anns)
            .map(|a| TapeEvent::pre(a, 0))
            .collect();
        let views = OwnedViews::of(&events);
        for (v, name) in views.views().iter().zip(names.iter().cycle()) {
            assert_eq!(Strings::get(&views, v.name), name);
        }
        let (first, again) = views.views().split_at(names.len());
        let shared = first
            .iter()
            .zip(again)
            .filter(|(a, b)| a.name == b.name)
            .count();
        assert!(
            (1..names.len()).contains(&shared),
            "names past the probe bound get fresh ids: {shared} of {} shared",
            names.len()
        );
    }

    #[test]
    fn same_text_compares_lengths_first() {
        let empty = String::new();
        assert!(same_text("", &empty));
        assert!(same_text("ns", "ns"));
        assert!(!same_text("", "x"));
        assert!(!same_text("ab", "ac"));
    }

    #[test]
    fn erroring_runs_leave_the_tape_without_done() {
        let e = parse_expr("{a}:(1 / 0)").unwrap();
        let mem = MemorySink::new();
        let sink = SharedSink::new(mem.clone());
        let err = record_monitored(&e, IdentityMonitor, &sink).unwrap_err();
        assert_eq!(err, EvalError::DivisionByZero);
        let events = mem.events();
        assert!(events.iter().all(|ev| ev.phase != TapePhase::Done));
        assert_eq!(events.len(), 1, "only `pre a` made it to the tape");
    }
}
