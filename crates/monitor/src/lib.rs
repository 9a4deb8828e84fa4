//! **Parameterized monitoring semantics** — the core contribution of
//! *Monitoring Semantics: A Formal Framework for Specifying, Implementing,
//! and Reasoning about Execution Monitors* (Kishon, Hudak, Consel, PLDI
//! 1991), reproduced in Rust.
//!
//! The paper derives, from any continuation semantics, a *monitoring
//! semantics* in which the meaning of a program is a function
//! `MS → (Ans × MS)`: given an initial monitor state it produces the
//! original answer **unchanged** together with the accumulated monitoring
//! information. The derivation is parameterized by a *monitor
//! specification* `Mon = (MSyn, MAlg, MFun)` (Definition 5.1):
//!
//! * **MSyn** — which annotations `{μ}:e` the monitor reacts to
//!   ([`Monitor::accepts`]);
//! * **MAlg** — the monitor-state domain `MS` ([`Monitor::State`]);
//! * **MFun** — the pre/post monitoring functions
//!   `M_pre : Ann → S → A* → MS → MS` and
//!   `M_post : Ann → S → A* → A*' → MS → MS`
//!   ([`Monitor::pre`], [`Monitor::post`]).
//!
//! Module map:
//!
//! * [`spec`] — the [`Monitor`] trait and the identity monitor;
//! * [`scope`] — the semantic context `A*` handed to monitoring functions
//!   (environment, plus the store in the imperative module);
//! * [`machine`] — the monitored strict evaluator (Figure 3), derived from
//!   the standard machine by adding exactly one transition (`{μ}:e`) and
//!   one frame (`κ_post`);
//! * [`lazy`] / [`imperative`] — monitored §9.2 language modules;
//! * [`answer`] — the answer transformer `θ` and monitoring answer algebra
//!   (Definition 4.1);
//! * [`fault`] — fault isolation: verdicts may abort evaluation with a
//!   reason, and the [`Guarded`] wrapper confines panicking or over-budget
//!   monitors so they degrade to the identity monitor instead of taking
//!   the evaluator down (Theorem 7.7 licenses the degradation);
//! * [`compose`] — monitor composition (§6): typed cascades
//!   ([`Compose`]) and the dynamic [`compose::MonitorStack`] built with
//!   the `&` operator, as in the paper's
//!   `evaluate (profile & debug & strict) prog`;
//! * [`parallel`] — fork-join evaluation of `par(e₁, …, eₙ)` across a
//!   thread scope, for monitors whose states split at the fork and merge
//!   at the join ([`MergeMonitor`]);
//! * [`soundness`] — executable form of Theorem 7.7, used by the property
//!   tests;
//! * [`tape`] — serializable event tapes: the pre-abstraction monitoring
//!   stream as data, recorded through a [`tape::TapeSink`] so it can be
//!   checked offline or shipped to a monitor server (`monsem-tape`);
//! * [`session`] — the §9.2 programming environment tying language modules
//!   and monitor toolboxes together;
//! * [`tiered`] — bookkeeping for tiered, profile-guided monitoring
//!   (promotion policy, tier counters, and the specialization tree the
//!   `monsem-pe` tiered driver builds on).
//!
//! # Example: a one-off counting monitor
//!
//! ```
//! use monsem_monitor::{machine::eval_monitored, scope::Scope, Monitor};
//! use monsem_syntax::{parse_expr, Annotation, Expr};
//! use monsem_core::Value;
//!
//! /// Counts evaluations of annotated expressions.
//! struct CountAll;
//! impl Monitor for CountAll {
//!     type State = u64;
//!     fn name(&self) -> &str { "count-all" }
//!     fn initial_state(&self) -> u64 { 0 }
//!     fn pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, n: u64) -> u64 { n + 1 }
//! }
//!
//! let prog = parse_expr(
//!     "letrec fac = lambda x. if (x = 0) then {A}:1 else {B}:(x * (fac (x - 1))) in fac 5",
//! )?;
//! let (answer, count) = eval_monitored(&prog, &CountAll)?;
//! assert_eq!(answer, Value::Int(120)); // soundness: the answer is unchanged
//! assert_eq!(count, 6);                // {A} once, {B} five times
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod compose;
pub mod fault;
pub mod imperative;
pub mod lazy;
pub mod machine;
pub mod parallel;
pub mod scope;
pub mod session;
pub mod soundness;
pub mod spec;
pub mod tape;
pub mod tiered;

pub use compose::{Compose, MonitorStack};
pub use fault::{BatchEnd, Budget, BudgetLedger, FaultPolicy, GuardState, Guarded, Health};
pub use machine::{eval_monitored, eval_monitored_stats_with, eval_monitored_with};
pub use parallel::{eval_parallel, eval_parallel_with, ParOptions};
pub use scope::Scope;
pub use spec::{DynMonitor, HookPhase, IdentityMonitor, MergeMonitor, Monitor, Outcome};
pub use tape::{
    fold_owned, fold_through, fold_views, record_monitored, record_monitored_with, Check,
    EventView, FoldEnd, MemorySink, OwnedViews, Resolution, SharedSink, Strings, TapeEvent,
    TapeFold, TapePhase, TapeSink, Taping, ValueDesc, NO_STRING,
};
pub use tiered::{Relatives, SpecTree, TierPolicy, TierStats};
