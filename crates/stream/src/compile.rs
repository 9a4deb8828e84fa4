//! Static analysis: name resolution, dependency checking, phase-relevance
//! analysis, and compile-time memory bounds.
//!
//! This is the Lola-style front half of the crate. A parsed [`SpecAst`]
//! becomes a [`StreamSpec`] only if:
//!
//! * every stream reference resolves to a declared stream;
//! * the derived-stream dependency graph has no cycle (all our operators
//!   look at the *current* instant, so a cycle is a zero-delay cycle and
//!   the spec has no well-defined semantics);
//! * `rate` aggregates have a time window (events per second is
//!   meaningless over an event-count window).
//!
//! Compilation also computes everything the evaluator needs to run in
//! constant memory and constant time per event:
//!
//! * a topological evaluation order for the derived streams;
//! * which hook phases the spec can react to at all
//!   ([`StreamSpec::observes_pre`]/[`StreamSpec::observes_post`]) — the
//!   input to [`Monitor::accepts_event`](monsem_monitor::Monitor) gating,
//!   computed by a three-valued *may-match* analysis over every event
//!   predicate in the spec;
//! * a [`MemoryReport`]: the exact steady-state bytes each stream's
//!   evaluator state occupies, derived from window widths at compile
//!   time. Stream evaluation never allocates after the state is built.

use crate::ast::{Agg, Cond, SpecAst, StreamDef, ValueExpr, WindowSpec};
use crate::eval::{Contribution, Pane, PANES};
use crate::parser::parse_stream_src;
use monsem_syntax::Ident;
use monsem_tspec::{Atom, CmpOp, NamePat, Pred, SpecError};
use std::collections::HashMap;

/// Cap on declarations of each kind (streams, triggers, deadlines).
pub const MAX_DECLS: usize = 256;

/// A resolved value expression: stream references are indices.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// An integer literal.
    Const(i64),
    /// The current value of the stream at this index.
    Stream(usize),
    /// A binary operation.
    Bin(crate::ast::BinOp, Box<RExpr>, Box<RExpr>),
}

/// A resolved trigger condition.
#[derive(Debug, Clone, PartialEq)]
pub enum RCond {
    /// A tspec event predicate on the current event.
    Event(Pred),
    /// A comparison over stream values; false when either side is
    /// undefined.
    Cmp(RExpr, CmpOp, RExpr),
    /// Classical negation.
    Not(Box<RCond>),
    /// Conjunction.
    And(Box<RCond>, Box<RCond>),
    /// Disjunction.
    Or(Box<RCond>, Box<RCond>),
}

/// A resolved stream definition.
#[derive(Debug, Clone, PartialEq)]
pub enum RStreamKind {
    /// A windowed or cumulative aggregate.
    Aggregate {
        /// The aggregation function.
        agg: Agg,
        /// Which events contribute.
        pred: Pred,
        /// The window; `None` is cumulative.
        window: Option<WindowSpec>,
    },
    /// Arithmetic over other streams.
    Derived(RExpr),
}

/// A resolved stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RStream {
    /// The declared name.
    pub name: String,
    /// The resolved definition.
    pub kind: RStreamKind,
}

/// A resolved trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct RTrigger {
    /// The trigger's name.
    pub name: String,
    /// The resolved condition.
    pub cond: RCond,
}

/// A resolved deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct RDeadline {
    /// Which events reset the deadline clock.
    pub pred: Pred,
    /// The period in milliseconds.
    pub period: u64,
    /// Source text, quoted in miss reasons.
    pub text: String,
}

/// The compile-time memory bound of one stream's evaluator state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamMemory {
    /// The stream's name.
    pub name: String,
    /// Steady-state bytes of evaluator state for this stream.
    pub bytes: usize,
}

/// The compile-time memory bound of a whole spec: stream evaluation
/// allocates all of this up front and nothing afterwards.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryReport {
    /// Per-stream bounds, in declaration order.
    pub streams: Vec<StreamMemory>,
    /// Sum over all streams plus the per-trigger and per-deadline state.
    pub total_bytes: usize,
}

impl std::fmt::Display for MemoryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for s in &self.streams {
            writeln!(f, "  stream {:<20} {:>8} bytes", s.name, s.bytes)?;
        }
        write!(f, "  total {:>23} bytes", self.total_bytes)
    }
}

/// A compiled stream specification: resolved declarations, evaluation
/// order, phase relevance, and the static memory bound.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    source: String,
    streams: Vec<RStream>,
    /// Indices of derived streams in dependency order.
    eval_order: Vec<usize>,
    triggers: Vec<RTrigger>,
    deadlines: Vec<RDeadline>,
    observes_pre: bool,
    observes_post: bool,
    uses_unsorted: bool,
    /// The distinct event names the predicates mention: a tape's name
    /// strings resolve to an index here once per string table.
    names: Vec<Ident>,
    memory: MemoryReport,
}

impl StreamSpec {
    /// Parses and compiles stream-spec source.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on syntax errors, unknown or duplicate
    /// names, zero-delay dependency cycles, a `rate` aggregate without a
    /// time window, or more than [`MAX_DECLS`] declarations of one kind.
    pub fn parse(src: &str) -> Result<StreamSpec, SpecError> {
        let ast = parse_stream_src(src)?;
        compile(src, &ast)
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The resolved streams, in declaration order.
    pub fn streams(&self) -> &[RStream] {
        &self.streams
    }

    /// Indices of derived streams in dependency (evaluation) order.
    pub fn eval_order(&self) -> &[usize] {
        &self.eval_order
    }

    /// The resolved triggers.
    pub fn triggers(&self) -> &[RTrigger] {
        &self.triggers
    }

    /// The resolved deadlines.
    pub fn deadlines(&self) -> &[RDeadline] {
        &self.deadlines
    }

    /// Whether any predicate in the spec can hold of a `pre` event — if
    /// not, `pre` hooks are identity on stream state and may be skipped.
    pub fn observes_pre(&self) -> bool {
        self.observes_pre
    }

    /// Whether any predicate in the spec can hold of a `post` event.
    pub fn observes_post(&self) -> bool {
        self.observes_post
    }

    /// The distinct event names the spec's predicates mention.
    pub(crate) fn names(&self) -> &[Ident] {
        &self.names
    }

    /// The index in [`StreamSpec::names`] of the name spelled `text`,
    /// if the spec mentions it.
    pub(crate) fn name_index(&self, text: &str) -> Option<usize> {
        self.names.iter().position(|n| n.as_str() == text)
    }

    /// Whether any predicate uses the `unsorted` structural atom (if not,
    /// live monitoring never inspects list structure).
    pub fn uses_unsorted(&self) -> bool {
        self.uses_unsorted
    }

    /// The compile-time memory bound.
    pub fn memory(&self) -> &MemoryReport {
        &self.memory
    }
}

fn compile(src: &str, ast: &SpecAst) -> Result<StreamSpec, SpecError> {
    for (count, what) in [
        (ast.streams.len(), "stream"),
        (ast.triggers.len(), "trigger"),
        (ast.deadlines.len(), "deadline"),
    ] {
        if count > MAX_DECLS {
            return Err(SpecError::syntax(
                format!("too many {what} declarations ({count}; limit {MAX_DECLS})"),
                0,
            ));
        }
    }

    // Name resolution.
    let mut ids: HashMap<&str, usize> = HashMap::new();
    for (i, decl) in ast.streams.iter().enumerate() {
        if ids.insert(decl.name.as_str(), i).is_some() {
            return Err(SpecError::syntax(
                format!("duplicate stream `{}`", decl.name),
                decl.offset,
            ));
        }
    }
    let mut trigger_names: HashMap<&str, ()> = HashMap::new();
    for decl in &ast.triggers {
        if trigger_names.insert(decl.name.as_str(), ()).is_some() {
            return Err(SpecError::syntax(
                format!("duplicate trigger `{}`", decl.name),
                decl.offset,
            ));
        }
    }

    let mut streams = Vec::with_capacity(ast.streams.len());
    for decl in &ast.streams {
        let kind = match &decl.def {
            StreamDef::Aggregate { agg, pred, window } => {
                if *agg == Agg::Rate && !matches!(window, Some(WindowSpec::Time(_))) {
                    return Err(SpecError::syntax(
                        format!(
                            "`rate` stream `{}` needs a time window: `over window(<d> ms)`",
                            decl.name
                        ),
                        decl.offset,
                    ));
                }
                RStreamKind::Aggregate {
                    agg: *agg,
                    pred: pred.clone(),
                    window: *window,
                }
            }
            StreamDef::Derived(e) => RStreamKind::Derived(resolve_expr(e, &ids, decl.offset)?),
        };
        streams.push(RStream {
            name: decl.name.clone(),
            kind,
        });
    }

    let eval_order = derived_order(&ast.streams, &streams)?;

    let mut triggers = Vec::with_capacity(ast.triggers.len());
    for decl in &ast.triggers {
        triggers.push(RTrigger {
            name: decl.name.clone(),
            cond: resolve_cond(&decl.cond, &ids, decl.offset)?,
        });
    }
    let deadlines: Vec<RDeadline> = ast
        .deadlines
        .iter()
        .map(|d| RDeadline {
            pred: d.pred.clone(),
            period: d.period,
            text: d.text.clone(),
        })
        .collect();

    // Phase relevance: union of may-match over every predicate anywhere
    // in the spec. Gating is phase-granular only (never name-dependent),
    // so the evaluator behaves identically whether a machine consults
    // the hint or not.
    let mut observes_pre = false;
    let mut observes_post = false;
    let mut uses_unsorted = false;
    let mut names: Vec<Ident> = Vec::new();
    {
        let mut see = |pred: &Pred| {
            observes_pre |= may_match(pred, PhaseView::Pre).0;
            observes_post |= may_match(pred, PhaseView::Post).0;
            pred.visit_atoms(&mut |a| match a {
                Atom::Unsorted => uses_unsorted = true,
                Atom::Pre(NamePat::Name(id))
                | Atom::Post(NamePat::Name(id))
                | Atom::At(NamePat::Name(id))
                    if !names.contains(id) =>
                {
                    names.push(id.clone())
                }
                _ => {}
            });
        };
        for s in &streams {
            if let RStreamKind::Aggregate { pred, .. } = &s.kind {
                see(pred);
            }
        }
        for t in &triggers {
            visit_cond_preds(&t.cond, &mut see);
        }
        for d in &deadlines {
            see(&d.pred);
        }
    }

    let memory = memory_report(&streams, &triggers, &deadlines);

    Ok(StreamSpec {
        source: src.to_string(),
        streams,
        eval_order,
        triggers,
        deadlines,
        observes_pre,
        observes_post,
        uses_unsorted,
        names,
        memory,
    })
}

fn resolve_expr(
    e: &ValueExpr,
    ids: &HashMap<&str, usize>,
    offset: usize,
) -> Result<RExpr, SpecError> {
    Ok(match e {
        ValueExpr::Const(n) => RExpr::Const(*n),
        ValueExpr::Stream(name) => match ids.get(name.as_str()) {
            Some(&i) => RExpr::Stream(i),
            None => {
                return Err(SpecError::syntax(
                    format!("unknown stream `{name}`"),
                    offset,
                ))
            }
        },
        ValueExpr::Bin(op, a, b) => RExpr::Bin(
            *op,
            Box::new(resolve_expr(a, ids, offset)?),
            Box::new(resolve_expr(b, ids, offset)?),
        ),
    })
}

fn resolve_cond(c: &Cond, ids: &HashMap<&str, usize>, offset: usize) -> Result<RCond, SpecError> {
    Ok(match c {
        Cond::Event(p) => RCond::Event(p.clone()),
        Cond::Cmp(a, op, b) => RCond::Cmp(
            resolve_expr(a, ids, offset)?,
            *op,
            resolve_expr(b, ids, offset)?,
        ),
        Cond::Not(c) => RCond::Not(Box::new(resolve_cond(c, ids, offset)?)),
        Cond::And(a, b) => RCond::And(
            Box::new(resolve_cond(a, ids, offset)?),
            Box::new(resolve_cond(b, ids, offset)?),
        ),
        Cond::Or(a, b) => RCond::Or(
            Box::new(resolve_cond(a, ids, offset)?),
            Box::new(resolve_cond(b, ids, offset)?),
        ),
    })
}

fn visit_cond_preds(c: &RCond, f: &mut impl FnMut(&Pred)) {
    match c {
        RCond::Event(p) => f(p),
        RCond::Cmp(..) => {}
        RCond::Not(c) => visit_cond_preds(c, f),
        RCond::And(a, b) | RCond::Or(a, b) => {
            visit_cond_preds(a, f);
            visit_cond_preds(b, f);
        }
    }
}

/// Topologically orders the derived streams, rejecting cycles.
///
/// All stream operators are instantaneous (they reference the *current*
/// value of other streams), so any cycle through derived streams is a
/// zero-delay cycle: `stream a = b + 1  stream b = a` has no solution to
/// evaluate. Aggregates are sources (they read events, not streams) and
/// cannot participate in a cycle.
fn derived_order(
    decls: &[crate::ast::StreamDecl],
    streams: &[RStream],
) -> Result<Vec<usize>, SpecError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    fn deps(e: &RExpr, out: &mut Vec<usize>) {
        match e {
            RExpr::Const(_) => {}
            RExpr::Stream(i) => out.push(*i),
            RExpr::Bin(_, a, b) => {
                deps(a, out);
                deps(b, out);
            }
        }
    }
    fn visit(
        i: usize,
        decls: &[crate::ast::StreamDecl],
        streams: &[RStream],
        marks: &mut [Mark],
        order: &mut Vec<usize>,
    ) -> Result<(), SpecError> {
        match marks[i] {
            Mark::Black => return Ok(()),
            Mark::Grey => {
                return Err(SpecError::syntax(
                    format!(
                        "zero-delay cycle through stream `{}`: all stream operators are \
                         instantaneous, so a stream cannot (transitively) depend on itself",
                        streams[i].name
                    ),
                    decls[i].offset,
                ))
            }
            Mark::White => {}
        }
        if let RStreamKind::Derived(e) = &streams[i].kind {
            marks[i] = Mark::Grey;
            let mut ds = Vec::new();
            deps(e, &mut ds);
            for d in ds {
                visit(d, decls, streams, marks, order)?;
            }
            marks[i] = Mark::Black;
            order.push(i);
        } else {
            marks[i] = Mark::Black;
        }
        Ok(())
    }
    let mut marks = vec![Mark::White; streams.len()];
    let mut order = Vec::new();
    for i in 0..streams.len() {
        visit(i, decls, streams, &mut marks, &mut order)?;
    }
    Ok(order)
}

/// The hook phase an event predicate is tested against (`done` is handled
/// at trace end, outside gating).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseView {
    Pre,
    Post,
}

/// Three-valued relevance: `(may_true, may_false)` — whether some event
/// at this phase could satisfy / fail the predicate, over all names and
/// values. Sound, not exact (`value > 0 and value < 0` reports
/// `may_true`), which only costs an unnecessary observation, never a
/// missed one.
fn may_match(p: &Pred, phase: PhaseView) -> (bool, bool) {
    match p {
        Pred::Atom(a) => match a {
            Atom::True => (true, false),
            Atom::False => (false, true),
            Atom::Pre(pat) => match phase {
                PhaseView::Pre => (true, !matches!(pat, monsem_tspec::NamePat::Any)),
                PhaseView::Post => (false, true),
            },
            Atom::Post(pat) => match phase {
                PhaseView::Post => (true, !matches!(pat, monsem_tspec::NamePat::Any)),
                PhaseView::Pre => (false, true),
            },
            Atom::At(pat) => (true, !matches!(pat, monsem_tspec::NamePat::Any)),
            Atom::Done => (false, true),
            Atom::Value(..) | Atom::Unsorted => match phase {
                PhaseView::Post => (true, true),
                PhaseView::Pre => (false, true),
            },
        },
        Pred::Not(q) => {
            let (t, f) = may_match(q, phase);
            (f, t)
        }
        Pred::And(a, b) => {
            let (at, af) = may_match(a, phase);
            let (bt, bf) = may_match(b, phase);
            (at && bt, af || bf)
        }
        Pred::Or(a, b) => {
            let (at, af) = may_match(a, phase);
            let (bt, bf) = may_match(b, phase);
            (at || bt, af && bf)
        }
    }
}

/// Computes the exact steady-state byte footprint of the evaluator state
/// from window widths — the compile-time memory bound the crate's name
/// promises. `values`/`prev`/deadline slots are charged to the totals.
fn memory_report(
    streams: &[RStream],
    triggers: &[RTrigger],
    deadlines: &[RDeadline],
) -> MemoryReport {
    use std::mem::size_of;
    let base = size_of::<crate::eval::AggState>();
    let per_value = size_of::<Option<i64>>();
    let mut report = MemoryReport::default();
    for s in streams {
        let bytes = match &s.kind {
            RStreamKind::Aggregate {
                agg,
                window: Some(WindowSpec::Events(k)),
                ..
            } => {
                let ring = k * size_of::<Contribution>();
                let deques = if matches!(agg, Agg::Min | Agg::Max) {
                    k * size_of::<(u64, i64)>()
                } else {
                    0
                };
                base + ring + deques
            }
            RStreamKind::Aggregate {
                window: Some(WindowSpec::Time(_)),
                ..
            } => base + PANES * size_of::<Pane>(),
            RStreamKind::Aggregate { window: None, .. } | RStreamKind::Derived(_) => base,
        } + per_value;
        report.total_bytes += bytes;
        report.streams.push(StreamMemory {
            name: s.name.clone(),
            bytes,
        });
    }
    report.total_bytes += triggers.len() * size_of::<bool>();
    report.total_bytes += deadlines.len() * size_of::<crate::eval::DeadlineState>();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_and_orders_derived_streams() {
        let spec = StreamSpec::parse(
            "stream a = count(pre(_))\n\
             stream c = b + a\n\
             stream b = a * 2",
        )
        .unwrap();
        // `b` must be evaluated before `c`.
        assert_eq!(spec.eval_order(), &[2, 1]);
    }

    #[test]
    fn rejects_zero_delay_cycles() {
        let err = StreamSpec::parse(
            "stream a = b + 1\n\
             stream b = a",
        )
        .unwrap_err();
        assert!(err.message.contains("zero-delay cycle"), "{}", err.message);
        let err = StreamSpec::parse("stream a = a + 1").unwrap_err();
        assert!(err.message.contains("zero-delay cycle"), "{}", err.message);
    }

    #[test]
    fn rejects_unknown_and_duplicate_names() {
        assert!(StreamSpec::parse("stream a = b + 1")
            .unwrap_err()
            .message
            .contains("unknown stream"));
        assert!(StreamSpec::parse("stream a = 1\nstream a = 2")
            .unwrap_err()
            .message
            .contains("duplicate"));
        assert!(StreamSpec::parse("trigger t = done\ntrigger t = done")
            .unwrap_err()
            .message
            .contains("duplicate"));
    }

    #[test]
    fn rate_requires_a_time_window() {
        let err = StreamSpec::parse("stream r = rate(post(_)) over window(10)").unwrap_err();
        assert!(err.message.contains("time window"), "{}", err.message);
        let err = StreamSpec::parse("stream r = rate(post(_))").unwrap_err();
        assert!(err.message.contains("time window"), "{}", err.message);
        assert!(StreamSpec::parse("stream r = rate(post(_)) over window(320 ms)").is_ok());
    }

    #[test]
    fn phase_relevance_is_the_union_of_may_match() {
        let post_only = StreamSpec::parse("stream s = sum(post(f))").unwrap();
        assert!(!post_only.observes_pre());
        assert!(post_only.observes_post());

        let pre_only = StreamSpec::parse("stream c = count(pre(f))").unwrap();
        assert!(pre_only.observes_pre());
        assert!(!pre_only.observes_post());

        // `not post(f)` may hold of any pre event.
        let negated = StreamSpec::parse("stream c = count(not post(f))").unwrap();
        assert!(negated.observes_pre());
        assert!(negated.observes_post());

        // A trigger's event atoms count toward relevance even when every
        // aggregate is post-only.
        let mixed =
            StreamSpec::parse("stream s = sum(post(f))\ntrigger t = s > 3 and pre(g)").unwrap();
        assert!(mixed.observes_pre());

        // A deadline pred counts too.
        let dl = StreamSpec::parse("deadline pre(beat) every 10 ms").unwrap();
        assert!(dl.observes_pre());
        assert!(!dl.observes_post());
    }

    #[test]
    fn memory_report_scales_with_window_widths() {
        let spec = StreamSpec::parse(
            "stream small = count(post(_)) over window(8)\n\
             stream big = count(post(_)) over window(1024)\n\
             stream mx = max(post(_)) over window(8)\n\
             stream t = avg(post(_)) over window(100 ms)\n\
             stream c = count(post(_))\n\
             stream d = small + big",
        )
        .unwrap();
        let bytes: std::collections::HashMap<&str, usize> = spec
            .memory()
            .streams
            .iter()
            .map(|s| (s.name.as_str(), s.bytes))
            .collect();
        assert!(bytes["big"] > bytes["small"], "{:?}", spec.memory());
        // Min/max rings additionally carry the monotonic deque.
        assert!(bytes["mx"] > bytes["small"]);
        // Time windows cost a fixed number of panes regardless of width.
        let t2 = StreamSpec::parse("stream t = avg(post(_)) over window(100000 ms)").unwrap();
        assert_eq!(bytes["t"], t2.memory().streams[0].bytes);
        // Cumulative and derived streams are O(1).
        assert!(bytes["c"] < bytes["small"]);
        assert_eq!(bytes["c"], bytes["d"]);
        assert_eq!(
            spec.memory().total_bytes,
            spec.memory().streams.iter().map(|s| s.bytes).sum::<usize>()
        );
        assert!(spec.memory().to_string().contains("total"));
    }

    #[test]
    fn unsorted_usage_is_detected() {
        assert!(!StreamSpec::parse("stream s = count(post(_))")
            .unwrap()
            .uses_unsorted());
        assert!(StreamSpec::parse("stream s = count(unsorted)")
            .unwrap()
            .uses_unsorted());
    }
}
