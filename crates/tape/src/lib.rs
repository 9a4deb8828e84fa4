//! `monsem-tape` — monitoring as a service.
//!
//! The paper's monitoring semantics threads the monitor through the
//! evaluation itself; this crate lets the monitor leave the process. A
//! monitored run records its *pre-abstraction* event stream (hook phase,
//! annotation symbol, value description, step index — see
//! [`monsem_monitor::tape`]) onto a **tape**, and the tape becomes a
//! first-class artifact:
//!
//! * serialized to a compact, versioned binary [`mod@format`] — a tape on
//!   disk is an offline regression artifact: `monsem check tape.bin
//!   spec.tsp` re-derives the verdict (and the earliest-violation
//!   offset) without re-executing the program;
//! * streamed to a long-lived [`server::MonitorServer`] over the framed
//!   [`proto`]col — many producer sessions, bounded ingest queues for
//!   backpressure, per-session [`Guarded`](monsem_monitor::Guarded) spec
//!   monitors, and sharded workers; event frames can be *batched*
//!   ([`proto::Request::EventBatch`] carries a tape image) and
//!   *pipelined* (no per-frame reply; cumulative
//!   [`proto::Response::Ack`]s instead), so ingest throughput
//!   approaches the offline checker's fold rate;
//! * **compacted** with [`checkpoint`]s: a v3 tape interleaves
//!   `Checkpoint` records pinning the spec DFA state (and a
//!   digest-guarded stream-evaluator snapshot), so `monsem check
//!   --from` seeks instead of replaying from zero;
//! * re-judged under a **hot-swapped** spec: a [`proto::Request::Swap`]
//!   compiles the new spec and splices session state by replaying the
//!   session's bounded suffix window through the new automaton
//!   ([`server::splice_state`]).
//!
//! Because a [`TapeEvent`](monsem_monitor::TapeEvent) carries the
//! concrete observation rather than any spec's abstract letter, one tape
//! can be checked against specs that did not exist when it was recorded
//! — the abstraction (`Alphabet::classify_desc`) happens at check time.

// The crate is safe Rust except for `reactor::sys`, the raw
// epoll/eventfd FFI surface (a handful of audited `extern "C"` calls
// behind safe RAII wrappers). Everything else still refuses `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod format;
pub mod net;
pub mod proto;
#[cfg(target_os = "linux")]
pub(crate) mod reactor;
pub mod server;
pub mod wire;

pub use checkpoint::{
    check_stream_from, check_stream_from_decoded, check_tape_from, check_tape_from_decoded,
    seek_checkpoint, spec_digest, write_tape_checkpointed, SeededCheck,
};
pub use format::{
    digest64, read_tape, read_tape_checkpointed, write_tape, Checkpoint, DecodedTape,
    StreamCheckpoint, TapeError, TapeWriter, ViewDecoder, MAGIC, VERSION, VERSION_CHECKPOINT,
    VERSION_TIMED,
};
pub use net::{
    serve_tcp, serve_tcp_with, serve_unix, serve_unix_with, BatchWriter, Client, ServeHandle,
    DEFAULT_BATCH, DEFAULT_IO_THREADS,
};
pub use proto::{read_frame, write_frame, FrameDecoder, ProtoError, Request, Response, Verdict};
pub use server::{splice_state, MonitorServer, ServerConfig, DEFAULT_ACK_EVERY};
