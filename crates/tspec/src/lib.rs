//! `monsem-tspec` — a temporal specification language compiled to
//! automaton monitors.
//!
//! This crate closes the gap between *declarative* trace properties and
//! the operational [`Monitor`](monsem_monitor::Monitor) interface of the
//! rest of the workspace. A specification is written in a small surface
//! syntax over monitor events — regular expressions extended with
//! intersection, complement, and past-time temporal sugar
//! (`always`, `never`, `eventually`, `until`, `release`, `respond`) —
//! and compiled via
//! Brzozowski derivatives into a deterministic automaton whose
//! transition function becomes the monitor's hook.
//!
//! # The (MSyn, MAlg, MFun) reading
//!
//! The paper factors every monitor into a syntax of monitoring
//! annotations, an algebra of monitor states, and an interpretation
//! function. The compiled specification instantiates that trinity
//! directly:
//!
//! | Paper component | Here |
//! |-----------------|------|
//! | **MSyn** — what can be said | the spec grammar ([`ast::SpecExpr`] over [`ast::Pred`] event predicates) |
//! | **MAlg** — the state space | a DFA state index plus a bounded match trace ([`SpecState`]) |
//! | **MFun** — the state transform per event | the compiled transition table ([`Automaton::step`]) |
//!
//! Because **MFun** is a table lookup rather than a formula
//! interpreter, a specification monitor adds a constant, small cost per
//! observed event, and the partial evaluator can residualize the lookup
//! away entirely.
//!
//! # Surface syntax
//!
//! Events are `pre(name)`, `post(name)`, `at(name)` (either phase),
//! and the synthetic end-of-trace marker `done`; `_` matches any name.
//! Post events carry the observed value, constrained with
//! `value <op> n` comparisons or the `unsorted` structural predicate.
//! Predicates combine with `and`, `or`, `not`, `=>`; expressions with
//! `;` (sequence), `|` (union), `&` (intersection), `!` (complement),
//! `*` `+` `?` `{n}` (repetition), and the temporal sugar forms.
//!
//! ```
//! use monsem_tspec::SpecMonitor;
//!
//! // Every factorial result must be positive.
//! let m = SpecMonitor::new("fac-pos", "always(post(fac) => value >= 1)")
//!     .unwrap()
//!     .enforcing();
//! assert!(m.is_enforcing());
//! ```
//!
//! Violations surface through the ordinary
//! [`Outcome::Abort`](monsem_monitor::Outcome) channel, so an enforcing
//! spec composes with `Guarded`, `MonitorStack`, and sessions unchanged,
//! and a *non-enforcing* spec is answer-preserving in the sense of
//! Theorem 7.7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod automaton;
pub mod deriv;
pub mod lexer;
pub mod monitor;
pub mod parser;

use std::fmt;
use std::sync::Arc;

pub use ast::{Atom, CmpOp, NamePat, Pred, SpecExpr};
pub use automaton::{Alphabet, Automaton, CompileOptions, Phase, MAX_LETTERS, MAX_STATES};
pub use monitor::{
    ShardTape, SpecCore, SpecMonitor, SpecState, TapeCheck, TapeOutcome, TraceRing,
    DEFAULT_REPLAY_CAP, DEFAULT_TRACE_CAP,
};
pub use parser::{parse_pred_atom_tokens, parse_pred_tokens, parse_spec};

/// What category of failure a [`SpecError`] reports.
///
/// Resource-limit overflows are structured (they carry the observed size
/// and the cap that was exceeded) so callers can react programmatically —
/// e.g. retry with a larger [`CompileOptions::max_states`] — instead of
/// string-matching the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecErrorKind {
    /// A lexical or syntactic error in the spec source.
    Syntax,
    /// The derivative closure needed more DFA states than the cap allows.
    StateLimit {
        /// How many states had been created when the cap was hit.
        states: usize,
        /// The cap in force ([`MAX_STATES`] unless overridden).
        limit: usize,
    },
    /// The abstract alphabet exceeded the letter cap.
    AlphabetLimit {
        /// The alphabet width the spec would need.
        letters: u32,
        /// The cap in force ([`MAX_LETTERS`]).
        limit: u32,
    },
}

/// An error produced while lexing, parsing, or compiling a specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Byte offset into the source where the error was detected. For
    /// compilation errors (which have no single source location) this is
    /// the start of the spec.
    pub offset: usize,
    /// Structured classification of the failure.
    pub kind: SpecErrorKind,
}

impl SpecError {
    /// A lexical/syntactic error at a byte offset.
    pub fn syntax(message: impl Into<String>, offset: usize) -> SpecError {
        SpecError {
            message: message.into(),
            offset,
            kind: SpecErrorKind::Syntax,
        }
    }

    /// A state-cap overflow during DFA compilation.
    pub fn state_limit(states: usize, limit: usize) -> SpecError {
        SpecError {
            message: format!(
                "spec automaton exceeds {limit} states (reached {states}); simplify the spec"
            ),
            offset: 0,
            kind: SpecErrorKind::StateLimit { states, limit },
        }
    }

    /// A letter-cap overflow while building the abstract alphabet.
    pub fn alphabet_limit(letters: u32, limit: u32) -> SpecError {
        SpecError {
            message: format!("spec alphabet has {letters} letters (limit {limit})"),
            offset: 0,
            kind: SpecErrorKind::AlphabetLimit { letters, limit },
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for SpecError {}

/// A parsed and compiled specification: source text, AST, and automaton.
///
/// A `Spec` is immutable and cheap to share; [`SpecMonitor`] holds one
/// behind an [`Arc`], so cloning a monitor does not recompile anything.
#[derive(Debug, Clone)]
pub struct Spec {
    source: String,
    ast: SpecExpr,
    automaton: Arc<Automaton>,
}

impl Spec {
    /// Parses and compiles `src`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on lexical, syntactic, or compilation
    /// failure (e.g. exceeding the [`MAX_STATES`] bound).
    pub fn parse(src: &str) -> Result<Spec, SpecError> {
        let ast = parser::parse_spec(src)?;
        let automaton = Automaton::compile(&ast)?;
        Ok(Spec {
            source: src.to_string(),
            ast,
            automaton: Arc::new(automaton),
        })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed (desugared) specification expression.
    pub fn ast(&self) -> &SpecExpr {
        &self.ast
    }

    /// The compiled automaton.
    pub fn automaton(&self) -> &Arc<Automaton> {
        &self.automaton
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_roundtrip() {
        let spec = Spec::parse("always(post(fac) => value >= 1)").unwrap();
        assert_eq!(spec.source(), "always(post(fac) => value >= 1)");
        assert!(spec.automaton().num_states() >= 1);
    }

    #[test]
    fn spec_errors_have_offsets() {
        let err = Spec::parse("always(").unwrap_err();
        assert!(err.to_string().contains("at byte"));
    }
}
