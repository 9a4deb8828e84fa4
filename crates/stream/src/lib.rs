//! monsem-stream: stream-algebra monitors with sliding windows, static
//! memory bounds, and timestamped-tape deadline checking.
//!
//! Where tspec answers *"did the event sequence match a temporal
//! pattern?"*, this crate answers *quantitative* questions about the
//! same event stream: error counts over the last hundred calls, latency
//! maxima over the last second, heartbeat rates — and turns them into
//! trigger firings and deadline-miss verdicts.
//!
//! A spec declares named output streams over the monitored event
//! stream:
//!
//! ```text
//! stream errs  = count(post(err)) over window(100)
//! stream total = count(post(_))   over window(100)
//! stream pct   = errs * 100 / total
//! stream slow  = max(value > 0)   over window(250 ms)
//! trigger degraded = pct > 5 or slow > 200
//! deadline post(beat) every 50 ms
//! ```
//!
//! In the paper's (MSyn, MAlg, MFun) factoring:
//!
//! | Layer | Here |
//! |-------|------|
//! | MSyn  | stream/trigger/deadline declarations ([`ast`], [`parser`]) |
//! | MAlg  | ring buffers, time panes, monotonic deques, edge and clock state ([`eval`]) |
//! | MFun  | one constant-time state transformer per observed event ([`StreamMonitor::step_event`]) |
//!
//! # Static memory bounds
//!
//! Compilation is Lola-style: the stream dependency graph is checked
//! for zero-delay cycles, and every stream's steady-state memory is
//! bounded *at compile time* — event windows become pre-allocated ring
//! buffers with O(1) paged aggregation (and monotonic deques for
//! `min`/`max`), time windows become a fixed number of panes. The
//! compiler reports the bound per stream ([`MemoryReport`]); after
//! [`Monitor::initial_state`](monsem_monitor::Monitor::initial_state),
//! evaluation allocates nothing.
//!
//! # As a monitor
//!
//! [`StreamMonitor`] implements
//! [`Monitor`](monsem_monitor::Monitor) (observing by default —
//! answer-preserving per Theorem 7.7 — or aborting on trigger firings
//! via [`StreamMonitor::enforcing`]) and
//! [`MergeMonitor`](monsem_monitor::MergeMonitor) (shard tapes replayed
//! at the fork-join, so a parallel run agrees with the sequential one).
//! [`StreamMonitor::check_tape`] evaluates a recorded tape offline;
//! with format-v2 timestamps, `deadline … every n ms` declarations get
//! periodic-deadline semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod eval;
pub mod monitor;
pub mod parser;
pub mod snapshot;

pub use ast::{
    Agg, BinOp, Cond, DeadlineDecl, SpecAst, StreamDecl, StreamDef, TriggerDecl, ValueExpr,
    WindowSpec,
};
pub use compile::{MemoryReport, StreamMemory, StreamSpec, MAX_DECLS};
pub use eval::{DeadlineState, EvView, StreamEvent, PANES};
pub use monitor::{
    Firing, ShardEvent, StreamCheck, StreamMonitor, StreamShardTape, StreamState,
    DEFAULT_FIRINGS_CAP, DEFAULT_REPLAY_CAP,
};
pub use parser::{parse_stream_src, MAX_EVENT_WINDOW, RESERVED};
pub use snapshot::{restore_state, snapshot_state, SnapshotError, SNAPSHOT_VERSION};
