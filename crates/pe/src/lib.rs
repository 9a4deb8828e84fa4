//! Partial evaluation for monitoring semantics (§9.1, Figure 10).
//!
//! The paper treats the monitored interpreter `P̄ : Mon* × Prog × Input* →
//! (Ans × MS)` as a program to be specialized with Schism, at three
//! levels:
//!
//! 1. **× monitor specifications** → a *concrete monitor*: an interpreter
//!    instrumented with monitoring actions. In Rust this is
//!    monomorphization — `eval_monitored::<Tracer>` already has the
//!    monitor's actions statically dispatched — so level 1 is the
//!    monitored interpreter itself.
//! 2. **× source program** → an *instrumented program*: the interpretive
//!    overhead that depends only on the program text (name lookup, syntax
//!    dispatch, annotation dispatch) is gone. Two artifacts realize this
//!    level:
//!    * [`engine`] — a compiler from (annotated program, monitor) to
//!      closed code with de-Bruijn-resolved variables, annotations
//!      resolved at compile time, and monitor hooks embedded only where
//!      they will fire;
//!    * [`instrument()`] — a **source-to-source** instrumenter producing a
//!      plain `L_λ` *program* in state-passing style, with the monitoring
//!      actions embedded as ordinary code (the paper: "a program including
//!      extra code to perform the monitoring actions"). Being a program,
//!      it runs on any of the engines and can be pretty-printed and read.
//! 3. **× partial input** → a *specialized program*: [`specialize()`]
//!    implements a partial evaluator for `L_λ` (constant folding, static
//!    β-reduction, polyvariant unfolding of recursive calls with static
//!    arguments, with [`bta`] providing the supporting binding-time
//!    analysis), applicable to instrumented programs as to any other.
//!
//! [`specmon`] applies the level-2 move to `monsem-tspec` temporal
//! specifications: the automaton's alphabet dispatch (annotation name →
//! name class → abstract letter) is resolved per annotation site at
//! compile time, leaving only the transition-table lookup at run time.
//! [`instrument::spec_source_monitor`] completes the trajectory at
//! level 3: the minimized, letter-compressed DFA is compiled *into* the
//! program — the threaded monitor state is the DFA state integer, each
//! observable annotation site carries its transition inlined as a
//! comparison chain, dead sites emit no code, and no monitor object
//! exists at run time.
//!
//! The Figure 10 pipeline as concrete artifacts:
//!
//! | level | paper | here |
//! |---|---|---|
//! | interpreter | "Int" | [`monsem_core::machine::eval`] on the erased program |
//! | 1 | interpreter × monitor specs → instrumented interpreter | [`monsem_monitor::machine::eval_monitored`] with a concrete monitor (statically dispatched) |
//! | 2 | × source program → instrumented program | [`engine::compile_monitored`] (compiled form) and [`instrument()`] (source form) |
//! | 3 | × partial input → specialized program | [`specialize::specialize_with`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bta;
pub mod engine;
pub mod instrument;
pub mod simplify;
pub mod specialize;
pub mod specmon;
pub mod tiered;

pub use engine::{compile, compile_monitored, CompiledProgram, SiteCount, SiteStats};
pub use instrument::{
    instrument, instrument_spec, instrument_spec_region, spec_source_monitor,
    spec_source_monitor_region, spec_verdict, SourceMonitor,
};
pub use simplify::simplify;
pub use specialize::{specialize, SpecializeOptions};
pub use specmon::SpecializedSpec;
pub use tiered::{TierOutcome, TieredReport, TieredRun, TieredSession};
