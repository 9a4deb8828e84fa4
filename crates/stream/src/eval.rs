//! The constant-memory, constant-time-per-event evaluator core.
//!
//! One [`AggState`] per stream, chosen by the compiler from the window
//! shape:
//!
//! * **Cumulative** (no window) — running totals plus running min/max:
//!   O(1) state, O(1) per event.
//! * **Ring** (`window(k)`) — a ring buffer of the last `k`
//!   [`Contribution`]s. `count`/`sum`/`avg` are *invertible*: the evicted
//!   contribution is subtracted from running totals (wrapping arithmetic,
//!   so insert/evict cancel exactly). `min`/`max` are not invertible and
//!   use the classic monotonic-deque sliding-extremum structure, still
//!   amortized O(1) per event with at most `k` retained entries.
//! * **Panes** (`window(d ms)`) — time windows are quantized into
//!   [`PANES`] fixed panes of width `ceil(d/PANES)` ms each; an event
//!   lands in the pane its timestamp falls in, expired panes are cleared
//!   in place as time advances, and a read folds the live panes. The
//!   effective window is `ceil(d/PANES)·PANES ≥ d` ms — a documented
//!   quantization, in exchange for O(1) memory independent of event
//!   rate.
//!
//! Every structure is pre-allocated by [`AggState::for_stream`]; no
//! steady-state evaluation path allocates (the paper-tables bench pins
//! this with a counting allocator).

use crate::ast::{Agg, WindowSpec};
use crate::compile::{RCond, RExpr, RStreamKind};
use monsem_monitor::tape::TapePhase;
use monsem_syntax::Ident;
use monsem_tspec::{Atom, NamePat, Pred};
use std::collections::VecDeque;

/// Number of panes a time window is quantized into.
pub const PANES: usize = 32;

/// A minimal view of one event, shared by the live hooks (built from an
/// `Annotation` + `Value`) and tape replay (built from a
/// [`TapeEvent`](monsem_monitor::tape::TapeEvent)) — so both paths
/// evaluate predicates identically.
#[derive(Debug, Clone, Copy)]
pub struct EvView<'a> {
    /// Which hook fired (or `Done` at trace end).
    pub phase: TapePhase,
    /// The annotation name (`""` for `done`).
    pub name: &'a str,
    /// The observed integer value, for `post` events that produced one.
    pub int: Option<i64>,
    /// Whether the observed value is a definitely-unsorted list.
    pub unsorted: bool,
}

impl EvView<'static> {
    /// The synthetic end-of-trace event.
    pub fn done() -> EvView<'static> {
        EvView {
            phase: TapePhase::Done,
            name: "",
            int: None,
            unsorted: false,
        }
    }
}

/// What the evaluator reads of an event. [`EvView`] carries its name as
/// text; a tape fold's event carries the name already resolved against
/// the names the spec mentions, so predicates compare symbols instead of
/// strings.
pub trait StreamEvent {
    /// Which hook fired (or `Done` at trace end).
    fn phase(&self) -> TapePhase;
    /// Whether the event's annotation name is `id`.
    fn name_is(&self, id: &Ident) -> bool;
    /// The annotation name's text (for shard tapes and firing reasons).
    fn name(&self) -> &str;
    /// The observed integer value, for `post` events that produced one.
    fn int(&self) -> Option<i64>;
    /// Whether the observed value is a definitely-unsorted list.
    fn unsorted(&self) -> bool;
}

impl StreamEvent for EvView<'_> {
    fn phase(&self) -> TapePhase {
        self.phase
    }

    fn name_is(&self, id: &Ident) -> bool {
        id.as_str() == self.name
    }

    fn name(&self) -> &str {
        self.name
    }

    fn int(&self) -> Option<i64> {
        self.int
    }

    fn unsorted(&self) -> bool {
        self.unsorted
    }
}

fn name_matches<E: StreamEvent + ?Sized>(pat: &NamePat, ev: &E) -> bool {
    match pat {
        NamePat::Any => true,
        NamePat::Name(id) => ev.name_is(id),
    }
}

/// Evaluates one tspec atom against an event view. This is the stream
/// crate's direct (non-automaton) reading of the shared predicate layer;
/// it agrees with the DFA alphabet abstraction on every atom.
pub fn atom_holds<E: StreamEvent + ?Sized>(atom: &Atom, ev: &E) -> bool {
    let phase = ev.phase();
    match atom {
        Atom::True => true,
        Atom::False => false,
        Atom::Pre(pat) => phase == TapePhase::Pre && name_matches(pat, ev),
        Atom::Post(pat) => phase == TapePhase::Post && name_matches(pat, ev),
        Atom::At(pat) => matches!(phase, TapePhase::Pre | TapePhase::Post) && name_matches(pat, ev),
        Atom::Done => phase == TapePhase::Done,
        Atom::Value(op, n) => phase == TapePhase::Post && ev.int().is_some_and(|v| op.holds(v, *n)),
        Atom::Unsorted => phase == TapePhase::Post && ev.unsorted(),
    }
}

/// Evaluates a tspec predicate against an event view.
pub fn pred_holds<E: StreamEvent + ?Sized>(pred: &Pred, ev: &E) -> bool {
    match pred {
        Pred::Atom(a) => atom_holds(a, ev),
        Pred::Not(p) => !pred_holds(p, ev),
        Pred::And(p, q) => pred_holds(p, ev) && pred_holds(q, ev),
        Pred::Or(p, q) => pred_holds(p, ev) || pred_holds(q, ev),
    }
}

/// Evaluates a resolved value expression over the current stream values.
/// Undefined operands, overflow, and division by zero all yield `None`.
pub fn eval_expr(e: &RExpr, values: &[Option<i64>]) -> Option<i64> {
    match e {
        RExpr::Const(n) => Some(*n),
        RExpr::Stream(i) => values[*i],
        RExpr::Bin(op, a, b) => {
            let a = eval_expr(a, values)?;
            let b = eval_expr(b, values)?;
            op.apply(a, b)
        }
    }
}

/// Evaluates a resolved trigger condition. Comparisons with an undefined
/// side are false; `not` is classical.
pub fn eval_cond<E: StreamEvent + ?Sized>(c: &RCond, values: &[Option<i64>], ev: &E) -> bool {
    match c {
        RCond::Event(p) => pred_holds(p, ev),
        RCond::Cmp(a, op, b) => match (eval_expr(a, values), eval_expr(b, values)) {
            (Some(a), Some(b)) => op.holds(a, b),
            _ => false,
        },
        RCond::Not(c) => !eval_cond(c, values, ev),
        RCond::And(a, b) => eval_cond(a, values, ev) && eval_cond(b, values, ev),
        RCond::Or(a, b) => eval_cond(a, values, ev) || eval_cond(b, values, ev),
    }
}

/// What one observed event contributed to one aggregate stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contribution {
    /// The event did not match the stream's predicate. Stored so that
    /// event-count windows slide over *observed* events, not matches.
    Skip,
    /// Matched, but carried no integer value (a `pre` event, or a
    /// non-integer result): counts for `count`/`rate` only.
    Hit,
    /// Matched with an integer value: counts for everything.
    Val(i64),
}

/// Invertible running totals over a set of contributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Totals {
    /// Matching events (`Hit` + `Val`).
    pub count: u64,
    /// Wrapping sum of `Val` contributions. Insert and evict use the same
    /// wrapping arithmetic, so they cancel exactly and the windowed sum
    /// is exact whenever the true sum fits in `i64`.
    pub sum: i64,
    /// Number of `Val` contributions.
    pub vals: u64,
}

impl Totals {
    fn add(&mut self, c: Contribution) {
        match c {
            Contribution::Skip => {}
            Contribution::Hit => self.count += 1,
            Contribution::Val(v) => {
                self.count += 1;
                self.vals += 1;
                self.sum = self.sum.wrapping_add(v);
            }
        }
    }

    fn remove(&mut self, c: Contribution) {
        match c {
            Contribution::Skip => {}
            Contribution::Hit => self.count -= 1,
            Contribution::Val(v) => {
                self.count -= 1;
                self.vals -= 1;
                self.sum = self.sum.wrapping_sub(v);
            }
        }
    }
}

/// One pane of a quantized time window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pane {
    /// Totals of the contributions that landed in this pane.
    pub t: Totals,
    /// Smallest `Val` in the pane.
    pub min: Option<i64>,
    /// Largest `Val` in the pane.
    pub max: Option<i64>,
}

impl Pane {
    fn clear(&mut self) {
        *self = Pane::default();
    }

    fn add(&mut self, c: Contribution) {
        self.t.add(c);
        if let Contribution::Val(v) = c {
            self.min = Some(self.min.map_or(v, |m| m.min(v)));
            self.max = Some(self.max.map_or(v, |m| m.max(v)));
        }
    }
}

/// Per-stream evaluator state; the variant is fixed at compile time by
/// the stream's window shape.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// No window: running totals and extrema over the whole trace.
    Cumulative {
        /// Running totals.
        t: Totals,
        /// Running minimum of `Val` contributions.
        min: Option<i64>,
        /// Running maximum.
        max: Option<i64>,
    },
    /// `window(k)`: a ring of the last `k` contributions.
    Ring {
        /// The retained contributions, oldest first; at most `cap`.
        buf: VecDeque<Contribution>,
        /// The ring's capacity (the declared window width).
        cap: usize,
        /// Running totals over the ring.
        t: Totals,
        /// Monotonic deque of `(position, value)` for the sliding
        /// minimum; empty unless the aggregate is `min`/`max`.
        minq: VecDeque<(u64, i64)>,
        /// Monotonic deque for the sliding maximum.
        maxq: VecDeque<(u64, i64)>,
        /// Observed-event positions pushed so far (the key the deques
        /// expire against).
        pos: u64,
    },
    /// `window(d ms)`: [`PANES`] panes of `width` ms each.
    Panes {
        /// The panes, indexed by `pane_index % PANES`.
        panes: Vec<Pane>,
        /// Pane width in milliseconds.
        width: u64,
        /// The most recent pane index, or `None` before the first event.
        cur: Option<u64>,
    },
    /// Derived streams carry no event state.
    Derived,
}

impl AggState {
    /// Builds (and fully pre-allocates) the state for one resolved
    /// stream.
    pub fn for_stream(kind: &RStreamKind) -> AggState {
        match kind {
            RStreamKind::Aggregate {
                agg,
                window: Some(WindowSpec::Events(k)),
                ..
            } => {
                let track_extrema = matches!(agg, Agg::Min | Agg::Max);
                AggState::Ring {
                    buf: VecDeque::with_capacity(*k + 1),
                    cap: *k,
                    t: Totals::default(),
                    minq: VecDeque::with_capacity(if track_extrema { *k + 1 } else { 0 }),
                    maxq: VecDeque::with_capacity(if track_extrema { *k + 1 } else { 0 }),
                    pos: 0,
                }
            }
            RStreamKind::Aggregate {
                window: Some(WindowSpec::Time(d)),
                ..
            } => AggState::Panes {
                panes: vec![Pane::default(); PANES],
                width: d.div_ceil(PANES as u64).max(1),
                cur: None,
            },
            RStreamKind::Aggregate { window: None, .. } => AggState::Cumulative {
                t: Totals::default(),
                min: None,
                max: None,
            },
            RStreamKind::Derived(_) => AggState::Derived,
        }
    }

    /// Feeds one observed event: `c` is what it contributes (already
    /// computed from the stream's predicate), `time` its resolved
    /// monotone timestamp, `track_extrema` whether the aggregate needs
    /// the min/max deques. O(1) amortized; never allocates.
    pub fn step(&mut self, c: Contribution, time: u64, track_extrema: bool) {
        match self {
            AggState::Cumulative { t, min, max } => {
                t.add(c);
                if let Contribution::Val(v) = c {
                    *min = Some(min.map_or(v, |m| m.min(v)));
                    *max = Some(max.map_or(v, |m| m.max(v)));
                }
            }
            AggState::Ring {
                buf,
                cap,
                t,
                minq,
                maxq,
                pos,
            } => {
                buf.push_back(c);
                t.add(c);
                if buf.len() > *cap {
                    let old = buf.pop_front().expect("ring past cap is non-empty");
                    t.remove(old);
                }
                if track_extrema {
                    let p = *pos;
                    if let Contribution::Val(v) = c {
                        while minq.back().is_some_and(|&(_, b)| b >= v) {
                            minq.pop_back();
                        }
                        minq.push_back((p, v));
                        while maxq.back().is_some_and(|&(_, b)| b <= v) {
                            maxq.pop_back();
                        }
                        maxq.push_back((p, v));
                    }
                    // Expire entries that slid out of the window
                    // [p + 1 - cap, p].
                    let lo = (p + 1).saturating_sub(*cap as u64);
                    while minq.front().is_some_and(|&(q, _)| q < lo) {
                        minq.pop_front();
                    }
                    while maxq.front().is_some_and(|&(q, _)| q < lo) {
                        maxq.pop_front();
                    }
                }
                *pos += 1;
            }
            AggState::Panes { panes, width, cur } => {
                let idx = time / *width;
                match *cur {
                    None => *cur = Some(idx),
                    Some(prev) if idx > prev => {
                        // Clear the panes between prev and idx; a jump of
                        // a full window clears everything.
                        let steps = (idx - prev).min(PANES as u64);
                        for s in 1..=steps {
                            panes[((prev + s) % PANES as u64) as usize].clear();
                        }
                        *cur = Some(idx);
                    }
                    Some(_) => {}
                }
                panes[(idx % PANES as u64) as usize].add(c);
            }
            AggState::Derived => {}
        }
    }

    /// Reads the aggregate's current value for `agg`. `min`/`max`/`avg`
    /// are undefined until a `Val` contribution is in scope; `count` and
    /// `rate` are always defined.
    pub fn value(&self, agg: Agg) -> Option<i64> {
        match self {
            AggState::Cumulative { t, min, max } => scalar(agg, t, *min, *max, None),
            AggState::Ring { t, minq, maxq, .. } => scalar(
                agg,
                t,
                minq.front().map(|&(_, v)| v),
                maxq.front().map(|&(_, v)| v),
                None,
            ),
            AggState::Panes { panes, width, .. } => {
                let mut t = Totals::default();
                let mut min: Option<i64> = None;
                let mut max: Option<i64> = None;
                for p in panes {
                    t.count += p.t.count;
                    t.vals += p.t.vals;
                    t.sum = t.sum.wrapping_add(p.t.sum);
                    if let Some(v) = p.min {
                        min = Some(min.map_or(v, |m| m.min(v)));
                    }
                    if let Some(v) = p.max {
                        max = Some(max.map_or(v, |m| m.max(v)));
                    }
                }
                scalar(agg, &t, min, max, Some(*width * PANES as u64))
            }
            AggState::Derived => None,
        }
    }
}

fn scalar(
    agg: Agg,
    t: &Totals,
    min: Option<i64>,
    max: Option<i64>,
    span_ms: Option<u64>,
) -> Option<i64> {
    match agg {
        Agg::Count => Some(t.count as i64),
        Agg::Sum => Some(t.sum),
        Agg::Avg => {
            if t.vals > 0 {
                Some(t.sum.wrapping_div(t.vals as i64))
            } else {
                None
            }
        }
        Agg::Min => min,
        Agg::Max => max,
        Agg::Rate => {
            let span = span_ms.expect("compile guarantees rate has a time window");
            Some((t.count as i64).saturating_mul(1000) / span as i64)
        }
    }
}

/// Per-deadline evaluator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeadlineState {
    /// Timestamp of the last matching event (initialized to the first
    /// observed event's time — the trace start is the first deadline's
    /// baseline).
    pub last: Option<u64>,
    /// Whether the current gap has already been reported as missed (one
    /// miss per gap, flagged at the first event past the period).
    pub open_miss: bool,
    /// Misses charged to this deadline.
    pub missed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::StreamSpec;

    fn ring_for(src: &str) -> AggState {
        let spec = StreamSpec::parse(src).unwrap();
        AggState::for_stream(&spec.streams()[0].kind)
    }

    #[test]
    fn atoms_evaluate_against_both_phases() {
        let pre = EvView {
            phase: TapePhase::Pre,
            name: "f",
            int: None,
            unsorted: false,
        };
        let post = EvView {
            phase: TapePhase::Post,
            name: "f",
            int: Some(-2),
            unsorted: true,
        };
        let ident = monsem_syntax::Ident::new("f");
        assert!(atom_holds(&Atom::Pre(NamePat::Name(ident.clone())), &pre));
        assert!(!atom_holds(&Atom::Pre(NamePat::Name(ident.clone())), &post));
        assert!(atom_holds(&Atom::At(NamePat::Any), &pre));
        assert!(atom_holds(&Atom::Value(monsem_tspec::CmpOp::Lt, 0), &post));
        assert!(!atom_holds(&Atom::Value(monsem_tspec::CmpOp::Lt, 0), &pre));
        assert!(atom_holds(&Atom::Unsorted, &post));
        assert!(atom_holds(&Atom::Done, &EvView::done()));
    }

    #[test]
    fn ring_slides_over_observed_events_and_inverts_totals() {
        let mut s = ring_for("stream s = sum(post(_)) over window(3)");
        for (c, want) in [
            (Contribution::Val(5), 5),
            (Contribution::Skip, 5),
            (Contribution::Val(7), 12),
            (Contribution::Val(1), 8), // the 5 slid out
            (Contribution::Skip, 8),   // the Skip slid out
            (Contribution::Skip, 1),   // the 7 slid out
        ] {
            s.step(c, 0, false);
            assert_eq!(s.value(Agg::Sum), Some(want));
        }
    }

    #[test]
    fn monotonic_deques_track_the_sliding_extrema() {
        let mut s = ring_for("stream s = min(post(_)) over window(3)");
        let feed: &[(i64, Option<i64>, Option<i64>)] = &[
            (5, Some(5), Some(5)),
            (3, Some(3), Some(5)),
            (8, Some(3), Some(8)),
            (6, Some(3), Some(8)), // 5 out
            (1, Some(1), Some(8)), // 3 out
            (2, Some(1), Some(6)), // 8 out
        ];
        for &(v, min, max) in feed {
            s.step(Contribution::Val(v), 0, true);
            assert_eq!(s.value(Agg::Min), min);
            assert_eq!(s.value(Agg::Max), max);
        }
    }

    #[test]
    fn panes_expire_by_time_not_by_count() {
        // window(64 ms) over 32 panes → width 2 ms, span 64 ms.
        let mut s = AggState::for_stream(&RStreamKind::Aggregate {
            agg: Agg::Count,
            pred: Pred::Atom(Atom::True),
            window: Some(WindowSpec::Time(64)),
        });
        s.step(Contribution::Hit, 0, false);
        s.step(Contribution::Hit, 10, false);
        assert_eq!(s.value(Agg::Count), Some(2));
        // 70ms: the pane holding t=0 expired, t=10 still live.
        s.step(Contribution::Hit, 70, false);
        assert_eq!(s.value(Agg::Count), Some(2));
        // A jump past the whole window clears everything else.
        s.step(Contribution::Hit, 10_000, false);
        assert_eq!(s.value(Agg::Count), Some(1));
    }

    #[test]
    fn rate_is_count_scaled_to_events_per_second() {
        // window(320 ms) → width 10, span 320.
        let mut s = AggState::for_stream(&RStreamKind::Aggregate {
            agg: Agg::Rate,
            pred: Pred::Atom(Atom::True),
            window: Some(WindowSpec::Time(320)),
        });
        assert_eq!(s.value(Agg::Rate), Some(0));
        for t in 0..32 {
            s.step(Contribution::Hit, t * 10, false);
        }
        // 32 events in a 320 ms span = 100 events/s.
        assert_eq!(s.value(Agg::Rate), Some(100));
    }

    #[test]
    fn cumulative_aggregates_never_forget() {
        let mut s = AggState::for_stream(&RStreamKind::Aggregate {
            agg: Agg::Avg,
            pred: Pred::Atom(Atom::True),
            window: None,
        });
        assert_eq!(s.value(Agg::Avg), None, "undefined before any value");
        for v in [2, 4, 9] {
            s.step(Contribution::Val(v), 0, false);
        }
        assert_eq!(s.value(Agg::Avg), Some(5));
        assert_eq!(s.value(Agg::Min), Some(2));
        assert_eq!(s.value(Agg::Max), Some(9));
        assert_eq!(s.value(Agg::Count), Some(3));
    }

    #[test]
    fn expressions_propagate_undefinedness() {
        use crate::ast::BinOp;
        let values = [Some(6), None, Some(0)];
        let s = |i| Box::new(RExpr::Stream(i));
        assert_eq!(
            eval_expr(&RExpr::Bin(BinOp::Add, s(0), s(0)), &values),
            Some(12)
        );
        assert_eq!(
            eval_expr(&RExpr::Bin(BinOp::Add, s(0), s(1)), &values),
            None
        );
        assert_eq!(
            eval_expr(&RExpr::Bin(BinOp::Div, s(0), s(2)), &values),
            None
        );
        let big = Box::new(RExpr::Const(i64::MAX));
        assert_eq!(
            eval_expr(&RExpr::Bin(BinOp::Mul, big.clone(), big), &values),
            None
        );
        // Comparisons over undefined sides are false; `not` is classical.
        let undef_gt = RCond::Cmp(RExpr::Stream(1), monsem_tspec::CmpOp::Gt, RExpr::Const(0));
        let ev = EvView::done();
        assert!(!eval_cond(&undef_gt, &values, &ev));
        assert!(eval_cond(&RCond::Not(Box::new(undef_gt)), &values, &ev));
    }

    #[test]
    fn ring_steady_state_does_not_allocate() {
        // Capacity check: after warmup the ring and deques never exceed
        // their pre-allocated capacities, so push_back cannot reallocate.
        let mut s = ring_for("stream s = min(post(_)) over window(16)");
        for i in 0..1000i64 {
            s.step(Contribution::Val(i % 37), 0, true);
            let AggState::Ring {
                buf,
                minq,
                maxq,
                cap,
                ..
            } = &s
            else {
                panic!("expected ring");
            };
            assert!(buf.len() <= *cap);
            assert!(minq.len() <= *cap && maxq.len() <= *cap);
        }
    }
}
