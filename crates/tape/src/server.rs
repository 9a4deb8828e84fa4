//! A long-lived monitor server: many producer sessions stream tape
//! events in, a sharded worker pool advances one guarded spec monitor
//! per session, and verdicts flow back.
//!
//! Design points:
//!
//! * **Sharding** — sessions are routed to `shards` worker threads by
//!   session id, so one server ingests many concurrent tapes while each
//!   session's events stay strictly ordered.
//! * **Backpressure** — each shard's queue is a *bounded*
//!   [`std::sync::mpsc::sync_channel`] of depth
//!   [`ServerConfig::queue_depth`]; producers that outrun the monitor
//!   block on ingest rather than ballooning server memory.
//! * **Fault policy** — every session's monitor is wrapped in
//!   [`Guarded`], so the existing fault machinery applies unchanged: a
//!   panicking or aborting spec under [`FaultPolicy::Quarantine`]
//!   degrades that session to the identity monitor (ingest continues,
//!   verdicts report the degradation), and [`Budget`]s meter how much
//!   monitoring work a session may consume.
//! * **Hot-swap** — [`Request::Swap`] compiles a new spec and *splices*
//!   session state by replaying the session's bounded suffix window
//!   (the last [`ServerConfig::swap_window`] events) through the new
//!   automaton. If the window had already dropped older events the
//!   verdict flags `swap_truncated`: the new spec judged only the
//!   suffix it could see.
//! * **Pipelined ingest** — event frames can bypass the request/reply
//!   round-trip entirely: [`MonitorServer::post`] enqueues a
//!   [`Request::EventBatch`] fire-and-forget, and the shard emits a
//!   cumulative [`Response::Ack`] every
//!   [`ServerConfig::ack_every`] ingested events. The shard table
//!   itself is a plain immutable array — routing an event costs an
//!   index and a channel send, no lock and no allocation.
//! * **Checkpoint compaction** — with
//!   [`ServerConfig::checkpoint_every`] set, a session drops its
//!   hot-swap replay window at every checkpoint boundary instead of
//!   retaining the full `swap_window` suffix indefinitely; a swap that
//!   crosses a boundary honestly reports `swap_truncated`.
//! * **Drain on shutdown** — [`MonitorServer::shutdown`] closes the
//!   intake and poisons each shard queue, so every event enqueued
//!   before shutdown is still folded (and acked) before the workers
//!   exit: the server never acknowledges an event it did not fold.
//! * **Stream SLOs** — a session may carry a
//!   [`monsem_stream::StreamMonitor`] next to its safety spec: trigger
//!   firings and deadline misses are reported in every [`Verdict`]. The
//!   stream check is always observing, survives safety-spec swaps, and
//!   can itself be hot-swapped (splicing by the same window replay).

use crate::format::{write_tape, ViewDecoder};
use crate::proto::{Request, Response, Verdict};
use monsem_monitor::tape::{
    fold_owned, fold_through, fold_views, EventView, Resolution, Strings, TapeEvent, TapeFold,
    TapePhase,
};
use monsem_monitor::{BatchEnd, Budget, FaultPolicy, GuardState, Guarded, Health, Monitor};
use monsem_stream::{StreamMonitor, StreamState};
use monsem_tspec::{SpecMonitor, SpecState, DEFAULT_REPLAY_CAP};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Mutex;
use std::thread::JoinHandle;

/// Default ingested-event interval between cumulative acks on the
/// fire-and-forget path.
pub const DEFAULT_ACK_EVERY: usize = 256;

/// Tuning knobs for a [`MonitorServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads; sessions are routed by `session % shards`.
    pub shards: usize,
    /// Bounded per-shard queue depth — the backpressure window.
    pub queue_depth: usize,
    /// How many recent events each session retains for hot-swap splicing.
    pub swap_window: usize,
    /// Fault policy for every session's [`Guarded`] wrapper.
    pub policy: FaultPolicy,
    /// Monitoring budget for every session.
    pub budget: Budget,
    /// Emit a cumulative [`Response::Ack`] after this many ingested
    /// events on the fire-and-forget path (0 behaves like 1: ack after
    /// every posted frame).
    pub ack_every: usize,
    /// Checkpoint interval in ingested events; at each boundary the
    /// session's hot-swap replay window is dropped (compaction — memory
    /// stays bounded by the interval, and a later swap reports
    /// `swap_truncated`). 0 disables compaction.
    pub checkpoint_every: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 4,
            queue_depth: 256,
            swap_window: DEFAULT_REPLAY_CAP,
            policy: FaultPolicy::Quarantine,
            budget: Budget::default(),
            ack_every: DEFAULT_ACK_EVERY,
            checkpoint_every: 0,
        }
    }
}

/// Where a shard delivers fire-and-forget outcomes: cumulative acks and
/// errors for posted event frames, and (on the `Reply::Routed` path)
/// control replies that must travel back to a connection the worker
/// cannot block on. The implementations are [`MonitorServer::post`]'s
/// channel and the reactor's per-connection sink.
///
/// The two delivery guarantees differ deliberately:
///
/// * `ack` is *advisory* — a sink may coalesce a stale pending ack into
///   a newer `through_step`, or decline outright (return `false`) when
///   its queue is full. The worker only advances its ack watermark when
///   the sink accepted, so a declined ack is retried at the next
///   boundary, never lost silently forever.
/// * `send` is *must-deliver*: errors and routed control replies either
///   reach the peer or the sink reports the connection dead (`false`).
///   Dropping them on queue pressure is not an option — that was the
///   silent-`Response::Err`-loss bug.
pub(crate) trait ResponseSink: Send {
    /// Offers a cumulative ack. Returns `true` if the sink took
    /// responsibility for (eventually) delivering an ack at least this
    /// new.
    fn ack(&self, session: u64, through_step: u64) -> bool;

    /// Delivers an error or routed reply, blocking or buffering as the
    /// transport requires. Returns `false` only when the peer is gone.
    fn send(&self, resp: Response) -> bool;
}

/// The in-process sink: a plain bounded channel. Acks `try_send` (the
/// documented advisory semantics — an unread channel loses acks rather
/// than wedging the shard); errors block, so they are never lost while
/// the receiver lives.
impl ResponseSink for SyncSender<Response> {
    fn ack(&self, session: u64, through_step: u64) -> bool {
        self.try_send(Response::Ack {
            session,
            through_step,
        })
        .is_ok()
    }

    fn send(&self, resp: Response) -> bool {
        SyncSender::send(self, resp).is_ok()
    }
}

/// Where a job's outcome goes.
pub(crate) enum Reply {
    /// Strict request/reply: the caller blocks on this one-shot channel.
    Sync(SyncSender<Response>),
    /// Fire-and-forget event path: the sink is the poster's channel or
    /// the connection's reactor. Acks are offered per
    /// [`ResponseSink::ack`]; errors go through the must-deliver
    /// [`ResponseSink::send`].
    Acked(Box<dyn ResponseSink>),
    /// A control request whose reply is delivered through the sink
    /// instead of a blocking one-shot channel — the reactor's
    /// nonblocking control path. The reply (whatever it is) is
    /// [`ResponseSink::send`]-ed.
    Routed(Box<dyn ResponseSink>),
}

pub(crate) enum Job {
    Req(Request, Reply),
    /// Queue poison: the worker folds everything enqueued before this
    /// marker, then exits. Shutdown's drain guarantee rides on channel
    /// FIFO order.
    Stop,
}

/// Why a nonblocking submit did not enqueue.
pub(crate) enum SubmitError {
    /// The shard queue is full; the job is handed back so the caller
    /// can park it and retry. This is the reactor's backpressure edge.
    Full(Job),
    /// The server is shut down; nothing was or will be enqueued.
    Down,
}

/// The server: a set of shard queues feeding worker threads.
///
/// Share it behind an [`std::sync::Arc`] — every method takes `&self`.
/// The in-process entry points are [`MonitorServer::request`]
/// (synchronous) and [`MonitorServer::post`] (fire-and-forget with
/// cumulative acks); the socket front ends in [`crate::net`] submit the
/// same jobs without blocking.
#[derive(Debug)]
pub struct MonitorServer {
    /// Immutable after construction: routing is an index + send, with
    /// no lock and no sender clone on the per-event path.
    shards: Box<[SyncSender<Job>]>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    down: AtomicBool,
}

struct Session {
    guard: Guarded<SpecMonitor>,
    gs: GuardState<SpecState>,
    /// The resolution of the batch being folded, reused by each spec in
    /// turn.
    resolution: Resolution,
    /// The optional stream-SLO check riding next to the safety spec.
    /// Always *observing* — an SLO verdict reports, it never vetoes
    /// ingest — and outside the guard: its evaluation is statically
    /// memory-bounded and cannot panic on event data.
    stream: Option<(StreamMonitor, StreamState)>,
    enforcing: bool,
    window: Window,
    /// Checkpoint interval in ingested events (0 = off): at each
    /// boundary the replay window is compacted away.
    checkpoint_every: usize,
    ingested: u64,
    /// Highest event step folded so far — what a cumulative ack quotes.
    last_step: u64,
    /// `ingested` as of the last ack successfully sent.
    acked_at: u64,
    earliest_violation: Option<u64>,
    accepted: Option<bool>,
    swap_truncated: bool,
}

/// The last `cap` folded events of a session, as the tape images of the
/// batches they came in: events `first..end` of each image are in the
/// window. A swap views the images again, so ingest copies no event into
/// the window.
struct Window {
    batches: VecDeque<(Vec<u8>, usize, usize)>,
    len: usize,
    cap: usize,
    /// Events that have left the window, to the cap or to compaction.
    dropped: u64,
}

impl Window {
    fn new(cap: usize) -> Window {
        Window {
            batches: VecDeque::new(),
            len: 0,
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Appends events `first..end` of `batch`, then trims the oldest
    /// events past the cap.
    fn push(&mut self, batch: Vec<u8>, first: usize, end: usize) {
        if first >= end {
            return;
        }
        self.batches.push_back((batch, first, end));
        self.len += end - first;
        while self.len > self.cap {
            let over = self.len - self.cap;
            let front = self
                .batches
                .front_mut()
                .expect("a window over its cap holds a batch");
            let held = front.2 - front.1;
            let gone = held.min(over);
            if gone == held {
                self.batches.pop_front();
            } else {
                front.1 += gone;
            }
            self.len -= gone;
            self.dropped += gone as u64;
        }
    }

    /// Drops every event: a checkpoint boundary.
    fn compact(&mut self) {
        self.dropped += self.len as u64;
        self.batches.clear();
        self.len = 0;
    }

    /// The splice of a swap to `m`, of either kind: the window's events
    /// folded through `m` from its initial state, batch by batch, oldest
    /// first. Returns the state and the step of the earliest violating
    /// event the fold saw.
    fn splice<M: TapeFold>(
        &self,
        m: &M,
        decoder: &mut ViewDecoder,
        res: &mut Resolution,
    ) -> (M::State, Option<u64>) {
        let (mut state, mut earliest) = (m.initial_state(), None);
        for (image, first, end) in &self.batches {
            let decoded = decoder
                .decode(image)
                .expect("a kept image decoded when it arrived");
            let views = &decoded.events()[*first..*end];
            fold_through(m, &mut state, views, &decoded, res, &mut earliest);
        }
        (state, earliest)
    }
}

fn stream_monitor(src: &str, session: u64) -> Result<StreamMonitor, String> {
    StreamMonitor::new(format!("session-{session}-stream"), src)
        .map_err(|e| format!("stream spec: {e}"))
}

impl Session {
    fn open(
        spec: &str,
        stream: Option<&str>,
        session: u64,
        enforcing: bool,
        config: &ServerConfig,
    ) -> Result<Session, String> {
        let mut monitor =
            SpecMonitor::new(format!("session-{session}"), spec).map_err(|e| e.to_string())?;
        if enforcing {
            monitor = monitor.enforcing();
        }
        let stream = stream.map(|src| stream_monitor(src, session)).transpose()?;
        let stream = stream.map(|m| {
            let s = m.initial_state();
            (m, s)
        });
        let guard = Guarded::new(monitor)
            .policy(config.policy)
            .budget(config.budget);
        let gs = guard.initial_state();
        Ok(Session {
            guard,
            gs,
            resolution: Resolution::default(),
            stream,
            enforcing,
            window: Window::new(config.swap_window),
            checkpoint_every: config.checkpoint_every,
            ingested: 0,
            last_step: 0,
            acked_at: 0,
            earliest_violation: None,
            accepted: None,
            swap_truncated: false,
        })
    }

    fn verdict(&self, session: u64) -> Verdict {
        let gs = &self.gs;
        Verdict {
            session,
            ingested: self.ingested,
            health: match &gs.health {
                Health::Ok => "ok".to_string(),
                Health::Aborted(r) => format!("aborted: {r}"),
                Health::Quarantined(r) => format!("quarantined: {r}"),
                Health::OverBudget(r) => format!("over-budget: {r}"),
            },
            violation: gs.state.violation.clone(),
            earliest_violation: self.earliest_violation,
            accepted: self.accepted,
            swap_truncated: self.swap_truncated,
            firings: self.stream.as_ref().map_or(0, |(_, s)| s.fired_total),
            missed: self.stream.as_ref().map_or(0, |(_, s)| s.missed_total),
        }
    }

    /// Folds a batch of event views: the safety spec under one batch
    /// guard, then the stream spec, each in place. Events after the
    /// batch's `done` marker (or an enforcing abort), and every event
    /// once the trace has ended, are counted but not judged. Returns how
    /// many leading events were folded — the ones the window keeps.
    fn fold(&mut self, views: &[EventView], strings: &dyn Strings) -> usize {
        self.ingested += views.len() as u64;
        if let Some(step) = views.iter().map(|ev| ev.step).max() {
            self.last_step = self.last_step.max(step);
        }
        if self.accepted.is_some() {
            // The trace already ended.
            return 0;
        }
        let done = views.iter().position(|ev| ev.phase == TapePhase::Done);
        let mut live = done.unwrap_or(views.len());
        let Session {
            guard,
            gs,
            resolution,
            earliest_violation,
            ..
        } = self;
        resolution.reset();
        let judged = &views[..live];
        let end = guard.guard_batch(
            gs,
            live,
            SpecState::core,
            SpecState::restore_core,
            |m, s, i| m.fold_view(s, &judged[i], strings, resolution, earliest_violation),
        );
        guard.inner().end_views(&mut gs.state, strings);
        let aborted = matches!(end, BatchEnd::Abort { .. });
        if let BatchEnd::Abort { index, .. } = end {
            // Enforcing abort: the trace is over for this session.
            self.accepted = Some(false);
            live = index + 1;
        }
        if let Some((m, s)) = &mut self.stream {
            fold_views(
                m,
                s,
                &views[..live],
                strings,
                &mut self.resolution,
                &mut None,
            );
        }
        if let (Some(i), false) = (done, aborted) {
            self.finish(views[i].time);
        }
        live
    }

    /// Keeps the first `live` of a just-folded batch's `n` events in the
    /// replay window, compacting it at the last checkpoint boundary the
    /// batch crossed. `before` is `ingested` before the batch.
    fn keep(&mut self, batch: Vec<u8>, before: u64, n: usize, live: usize) {
        let mut first = 0;
        if self.checkpoint_every > 0 {
            let every = self.checkpoint_every as u64;
            let boundary = (before + n as u64) / every * every;
            if boundary > before {
                // The boundary event is the first one kept after it.
                let at = (boundary - before - 1) as usize;
                self.window.compact();
                self.window.dropped += at.min(live) as u64;
                first = at;
            }
        }
        self.window.push(batch, first, live);
    }

    /// Ends the trace: runs the end-of-trace check and pins acceptance.
    /// `end_time` is the `done` marker's timestamp (for deadline
    /// end-gap checks), when the tape carries one.
    fn finish(&mut self, end_time: Option<u64>) {
        if let Some((m, s)) = &mut self.stream {
            *s = m.finish(s, end_time);
        }
        let gs = &mut self.gs;
        if !gs.health.is_ok() {
            // A degraded monitor renders no verdict on the full trace.
            self.accepted = None;
            return;
        }
        match self.guard.inner().finish(&gs.state) {
            Ok(done) => {
                gs.state = done;
                self.accepted = Some(true);
            }
            Err(reason) => {
                if gs.state.violation.is_none() {
                    gs.state.violation = Some(reason);
                }
                self.accepted = Some(false);
            }
        }
    }

    /// Hot-swaps the session's specs, splicing state by replaying the
    /// retained window through the new monitors. `None` keeps the
    /// corresponding spec in force unchanged — in particular a stream
    /// spec survives a safety-spec swap, and vice versa.
    fn swap(
        &mut self,
        spec: Option<&str>,
        stream: Option<&str>,
        session: u64,
        config: &ServerConfig,
        decoder: &mut ViewDecoder,
    ) -> Result<(), String> {
        // Compile both before installing either: a swap is atomic.
        let new_safety = spec
            .map(|src| {
                let mut m = SpecMonitor::new(format!("session-{session}"), src)
                    .map_err(|e| e.to_string())?;
                if self.enforcing {
                    m = m.enforcing();
                }
                Ok::<_, String>(m)
            })
            .transpose()?;
        let new_stream = stream.map(|src| stream_monitor(src, session)).transpose()?;
        if let Some(monitor) = new_safety {
            let (state, earliest) = self.window.splice(&monitor, decoder, &mut self.resolution);
            let guard = Guarded::new(monitor)
                .policy(config.policy)
                .budget(config.budget);
            let mut gs = guard.initial_state();
            gs.state = state;
            self.guard = guard;
            self.gs = gs;
            self.earliest_violation = earliest;
        }
        if let Some(m) = new_stream {
            let (s, _) = self.window.splice(&m, decoder, &mut self.resolution);
            self.stream = Some((m, s));
        }
        if spec.is_some() || stream.is_some() {
            self.swap_truncated = self.window.dropped > 0;
        }
        if self.accepted.is_some() {
            // The trace had already ended; re-judge it under the new
            // specs so the close verdict reflects what is now in force.
            self.accepted = None;
            self.finish(None);
        }
        Ok(())
    }
}

/// Replays `window` through `monitor` from its initial state, returning
/// the spliced state and the step of the earliest violating event seen
/// during the replay. This is the pure core of hot-swap, shared with the
/// tests that assert splice ≡ running the new spec over the same suffix;
/// an adapter over the view fold a swap runs on its window.
pub fn splice_state<'a>(
    monitor: &SpecMonitor,
    window: impl IntoIterator<Item = &'a TapeEvent>,
) -> (SpecState, Option<u64>) {
    let (mut state, mut earliest) = (monitor.initial_state(), None);
    let mut res = Resolution::default();
    fold_owned(window, |run| {
        fold_through(
            monitor,
            &mut state,
            run.views(),
            run,
            &mut res,
            &mut earliest,
        );
        true
    });
    (state, earliest)
}

pub(crate) fn req_session(req: &Request) -> u64 {
    match req {
        Request::Open { session, .. }
        | Request::Swap { session, .. }
        | Request::Close { session }
        | Request::EventBatch { session, .. } => *session,
    }
}

/// Folds a batch into its session: the tape image is decoded into views
/// by the shard's decoder, folded, and kept whole in the replay window.
fn ingest(
    sessions: &mut HashMap<u64, Session>,
    decoder: &mut ViewDecoder,
    session: u64,
    tape: Vec<u8>,
) -> Result<(), String> {
    let decoded = decoder
        .decode(&tape)
        .map_err(|e| format!("batch for session {session}: {e}"))?;
    let s = sessions
        .get_mut(&session)
        .ok_or_else(|| format!("no such session {session}"))?;
    let (before, n) = (s.ingested, decoded.events().len());
    let live = s.fold(decoded.events(), &decoded);
    s.keep(tape, before, n, live);
    Ok(())
}

fn handle(
    sessions: &mut HashMap<u64, Session>,
    config: &ServerConfig,
    decoder: &mut ViewDecoder,
    req: Request,
) -> Response {
    match req {
        Request::Open {
            session,
            enforcing,
            spec,
            stream,
        } => match Session::open(&spec, stream.as_deref(), session, enforcing, config) {
            Ok(s) => {
                sessions.insert(session, s);
                Response::Ok
            }
            Err(e) => Response::Err(format!("open session {session}: {e}")),
        },
        Request::EventBatch { session, tape } => match ingest(sessions, decoder, session, tape) {
            Ok(()) => Response::Verdict(sessions[&session].verdict(session)),
            Err(e) => Response::Err(e),
        },
        Request::Swap {
            session,
            spec,
            stream,
        } => match sessions.get_mut(&session) {
            Some(s) => match s.swap(spec.as_deref(), stream.as_deref(), session, config, decoder) {
                Ok(()) => Response::Verdict(s.verdict(session)),
                Err(e) => Response::Err(format!("swap session {session}: {e}")),
            },
            None => Response::Err(format!("no such session {session}")),
        },
        Request::Close { session } => match sessions.remove(&session) {
            Some(mut s) => {
                if s.accepted.is_none() {
                    // Closing ends the trace.
                    s.finish(None);
                }
                Response::Verdict(s.verdict(session))
            }
            None => Response::Err(format!("no such session {session}")),
        },
    }
}

fn worker(rx: Receiver<Job>, config: ServerConfig) {
    let mut sessions: HashMap<u64, Session> = HashMap::new();
    let mut decoder = ViewDecoder::new();
    let ack_every = config.ack_every.max(1) as u64;
    while let Ok(job) = rx.recv() {
        match job {
            Job::Stop => break,
            Job::Req(req, Reply::Sync(reply)) => {
                let resp = handle(&mut sessions, &config, &mut decoder, req);
                // A dead requester is not the worker's problem.
                let _ = reply.send(resp);
            }
            Job::Req(req, Reply::Acked(sink)) => {
                let session = req_session(&req);
                let folded = match req {
                    Request::EventBatch { session, tape } => {
                        ingest(&mut sessions, &mut decoder, session, tape)
                    }
                    // A control request posted here is applied; only an
                    // error reply is delivered.
                    req => match handle(&mut sessions, &config, &mut decoder, req) {
                        Response::Err(e) => Err(e),
                        _ => Ok(()),
                    },
                };
                match folded {
                    Ok(()) => {
                        // Folded. Ack cumulatively once the window
                        // fills; a declined ack just defers to a later
                        // boundary (never to before the fold — the
                        // events are already in the monitor).
                        if let Some(s) = sessions.get_mut(&session) {
                            if s.ingested - s.acked_at >= ack_every
                                && sink.ack(session, s.last_step)
                            {
                                s.acked_at = s.ingested;
                            }
                        }
                    }
                    Err(e) => {
                        // Must-deliver: a full outbound queue blocks or
                        // buffers, it never eats the error.
                        let _ = sink.send(Response::Err(e));
                    }
                }
            }
            Job::Req(req, Reply::Routed(sink)) => {
                let resp = handle(&mut sessions, &config, &mut decoder, req);
                // A dead connection is not the worker's problem.
                let _ = sink.send(resp);
            }
        }
    }
}

impl MonitorServer {
    /// Starts the worker pool.
    pub fn start(config: ServerConfig) -> MonitorServer {
        let shard_count = config.shards.max(1);
        let mut shards = Vec::with_capacity(shard_count);
        let mut workers = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let (tx, rx) = sync_channel(config.queue_depth.max(1));
            let cfg = config.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("monsem-shard-{i}"))
                    .spawn(move || worker(rx, cfg))
                    .expect("spawn shard worker"),
            );
            shards.push(tx);
        }
        MonitorServer {
            shards: shards.into_boxed_slice(),
            workers: Mutex::new(workers),
            down: AtomicBool::new(false),
        }
    }

    /// The shard sender for `session`, or `None` once the server is
    /// shutting down. No lock: the table is immutable for the server's
    /// lifetime, so routing is a flag load and an index.
    fn route(&self, session: u64) -> Option<&SyncSender<Job>> {
        if self.down.load(Ordering::Acquire) {
            return None;
        }
        Some(&self.shards[(session % self.shards.len() as u64) as usize])
    }

    /// Routes a request to its session's shard and waits for the reply.
    /// Blocks while the shard's bounded queue is full — this is the
    /// backpressure producers feel.
    pub fn request(&self, req: Request) -> Response {
        let Some(tx) = self.route(req_session(&req)) else {
            return Response::Err("server is shut down".to_string());
        };
        let (reply_tx, reply_rx) = sync_channel(1);
        if tx.send(Job::Req(req, Reply::Sync(reply_tx))).is_err() {
            return Response::Err("server is shut down".to_string());
        }
        reply_rx
            .recv()
            .unwrap_or_else(|_| Response::Err("server worker died".to_string()))
    }

    /// Enqueues an event request fire-and-forget: no per-message reply
    /// is produced. The shard folds the events and offers a cumulative
    /// [`Response::Ack`] into `out` every [`ServerConfig::ack_every`]
    /// ingested events (advisory `try_send`: a full channel declines
    /// the ack, and a later boundary offers it again). Errors are
    /// must-deliver: they block on a full channel rather than vanish.
    /// Returns `false` if the server is shut down (nothing was
    /// enqueued).
    ///
    /// Meant for [`Request::EventBatch`] only — control requests belong
    /// on the synchronous
    /// [`MonitorServer::request`] path (posting one here folds it but
    /// discards its non-error reply). Blocks while the shard queue is
    /// full, like [`MonitorServer::request`].
    pub fn post(&self, req: Request, out: SyncSender<Response>) -> bool {
        match self.route(req_session(&req)) {
            Some(tx) => tx.send(Job::Req(req, Reply::Acked(Box::new(out)))).is_ok(),
            None => false,
        }
    }

    /// Nonblocking submit for readiness-driven callers: offers `job` to
    /// `session`'s shard queue and *returns* instead of blocking when
    /// the queue is full, handing the job back so the caller can park
    /// the connection and retry. The reactor's per-connection
    /// backpressure is built on this edge.
    pub(crate) fn try_submit(&self, session: u64, job: Job) -> Result<(), SubmitError> {
        let Some(tx) = self.route(session) else {
            return Err(SubmitError::Down);
        };
        tx.try_send(job).map_err(|e| match e {
            TrySendError::Full(job) => SubmitError::Full(job),
            TrySendError::Disconnected(_) => SubmitError::Down,
        })
    }

    /// Opens a session running `spec`.
    pub fn open(&self, session: u64, spec: &str, enforcing: bool) -> Response {
        self.request(Request::Open {
            session,
            enforcing,
            spec: spec.to_string(),
            stream: None,
        })
    }

    /// Opens a session running `spec` with a stream-SLO check beside it.
    pub fn open_with_stream(
        &self,
        session: u64,
        spec: &str,
        stream: &str,
        enforcing: bool,
    ) -> Response {
        self.request(Request::Open {
            session,
            enforcing,
            spec: spec.to_string(),
            stream: Some(stream.to_string()),
        })
    }

    /// Streams events into a session as one [`Request::EventBatch`] and
    /// waits for the session's verdict.
    pub fn events(&self, session: u64, events: &[TapeEvent]) -> Response {
        self.request(Request::EventBatch {
            session,
            tape: write_tape(events),
        })
    }

    /// Hot-swaps a session's safety spec (the stream spec, if any,
    /// stays in force).
    pub fn swap(&self, session: u64, spec: &str) -> Response {
        self.request(Request::Swap {
            session,
            spec: Some(spec.to_string()),
            stream: None,
        })
    }

    /// Hot-swaps a session's stream spec (the safety spec stays in
    /// force).
    pub fn swap_stream(&self, session: u64, stream: &str) -> Response {
        self.request(Request::Swap {
            session,
            spec: None,
            stream: Some(stream.to_string()),
        })
    }

    /// Closes a session, ending its trace.
    pub fn close(&self, session: u64) -> Response {
        self.request(Request::Close { session })
    }

    /// Stops accepting requests, drains the queues, and joins the
    /// workers.
    ///
    /// The drain is real: the intake flag flips first, then each shard
    /// queue is poisoned with a `Job::Stop` marker. Channel FIFO
    /// order means every job enqueued before the marker is still
    /// folded (and replied to or acked) before its worker exits — a
    /// stopped server never acknowledges an event it did not fold, and
    /// never drops a queued one.
    pub fn shutdown(&self) {
        self.down.store(true, Ordering::Release);
        for tx in self.shards.iter() {
            // Err here means the worker already exited — fine.
            let _ = tx.send(Job::Stop);
        }
        let workers: Vec<_> = self
            .workers
            .lock()
            .expect("worker table lock")
            .drain(..)
            .collect();
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for MonitorServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monsem_core::Value;
    use monsem_syntax::Annotation;

    fn post(name: &str, v: i64, step: u64) -> TapeEvent {
        TapeEvent::post(&Annotation::label(name), &Value::Int(v), step)
    }

    fn verdict(resp: Response) -> Verdict {
        match resp {
            Response::Verdict(v) => v,
            other => panic!("expected verdict, got {other:?}"),
        }
    }

    #[test]
    fn session_lifecycle_reports_the_violation() {
        let server = MonitorServer::start(ServerConfig::default());
        assert_eq!(server.open(1, "never(post(b))", false), Response::Ok);
        let v = verdict(server.events(1, &[post("a", 1, 0), post("b", 2, 1)]));
        assert_eq!(v.ingested, 2);
        assert!(v.violation.as_deref().unwrap().contains("post b"));
        assert_eq!(v.earliest_violation, Some(1));
        assert_eq!(v.accepted, None, "trace still open");
        let v = verdict(server.close(1));
        assert_eq!(v.accepted, Some(false));
        // The session is gone after close.
        assert!(matches!(server.events(1, &[]), Response::Err(_)));
        server.shutdown();
    }

    #[test]
    fn done_event_pins_acceptance() {
        let server = MonitorServer::start(ServerConfig::default());
        server.open(2, "eventually(post(b))", false);
        let v = verdict(server.events(2, &[post("a", 1, 0), post("b", 2, 1), TapeEvent::done(2)]));
        assert_eq!(v.accepted, Some(true));
        assert_eq!(v.violation, None);
        server.shutdown();
    }

    #[test]
    fn swap_splices_from_the_window() {
        let server = MonitorServer::start(ServerConfig::default());
        server.open(3, "never(post(zzz))", false);
        verdict(server.events(3, &[post("p", 5, 0), post("p", -5, 1)]));
        // The new spec sees the replayed suffix and flags the -5.
        let v = verdict(server.swap(3, "always(post(p) => value > 0)"));
        assert!(v.violation.as_deref().unwrap().contains("post p = -5"));
        assert_eq!(v.earliest_violation, Some(1));
        assert!(!v.swap_truncated);
        server.shutdown();
    }

    #[test]
    fn swap_past_the_window_is_flagged_truncated() {
        let config = ServerConfig {
            swap_window: 2,
            ..ServerConfig::default()
        };
        let server = MonitorServer::start(config);
        server.open(4, "never(post(zzz))", false);
        verdict(server.events(4, &[post("p", -5, 0), post("p", 1, 1), post("p", 2, 2)]));
        // The violating step 0 fell out of the 2-event window.
        let v = verdict(server.swap(4, "always(post(p) => value > 0)"));
        assert_eq!(v.violation, None, "the evidence is out of the window");
        assert!(v.swap_truncated, "and the verdict says so");
        server.shutdown();
    }

    #[test]
    fn stream_slos_ride_next_to_the_safety_spec() {
        let server = MonitorServer::start(ServerConfig::default());
        assert_eq!(
            server.open_with_stream(
                7,
                "never(post(zzz))",
                "stream neg = count(value < 0) over window(10)\ntrigger any = neg >= 2",
                false,
            ),
            Response::Ok
        );
        let v = verdict(server.events(7, &[post("p", -1, 0), post("p", 3, 1)]));
        assert_eq!(v.firings, 0, "one negative is below the trigger");
        let v = verdict(server.events(7, &[post("p", -2, 2)]));
        assert_eq!(v.firings, 1);
        assert_eq!(v.violation, None, "SLO firings are not safety violations");
        // A safety-spec swap keeps the stream state in force.
        let v = verdict(server.swap(7, "never(post(yyy))"));
        assert_eq!(v.firings, 1);
        // A stream swap splices the new spec from the retained window:
        // value < 0 has two rising edges over [-1, 3, -2].
        let v = verdict(server.swap_stream(7, "trigger seen = value < 0"));
        assert_eq!(v.firings, 2);
        let v = verdict(server.close(7));
        assert_eq!(v.accepted, Some(true));
        server.shutdown();
    }

    #[test]
    fn stream_deadlines_miss_on_timed_gaps() {
        let server = MonitorServer::start(ServerConfig::default());
        server.open_with_stream(
            8,
            "never(post(zzz))",
            "deadline post(beat) every 50 ms",
            false,
        );
        let beat = |v: i64, step: u64, t: u64| {
            TapeEvent::post(&Annotation::label("beat"), &Value::Int(v), step).at(t)
        };
        let v = verdict(server.events(8, &[beat(1, 0, 0), beat(1, 1, 40), beat(1, 2, 200)]));
        assert_eq!(v.missed, 1, "one 160 ms gap against a 50 ms period");
        let v = verdict(server.events(8, &[TapeEvent::done(3).at(400)]));
        assert_eq!(v.missed, 2, "the end-of-trace gap misses again");
        assert_eq!(v.accepted, Some(true));
        server.shutdown();
    }

    #[test]
    fn bad_stream_specs_fail_open_and_swap() {
        let server = MonitorServer::start(ServerConfig::default());
        assert!(matches!(
            server.open_with_stream(9, "never(post(b))", "stream x = rate(post(p))", false),
            Response::Err(_)
        ));
        server.open(9, "never(post(b))", false);
        assert!(matches!(
            server.swap_stream(9, "trigger t = nosuch > 0"),
            Response::Err(_)
        ));
        server.shutdown();
    }

    #[test]
    fn unknown_sessions_and_bad_specs_error() {
        let server = MonitorServer::start(ServerConfig::default());
        assert!(matches!(server.events(9, &[]), Response::Err(_)));
        assert!(matches!(server.open(9, "always(", false), Response::Err(_)));
        server.shutdown();
    }

    #[test]
    fn posted_events_ack_cumulatively() {
        let config = ServerConfig {
            ack_every: 4,
            ..ServerConfig::default()
        };
        let server = MonitorServer::start(config);
        server.open(12, "never(post(zzz))", false);
        let (out, acks) = sync_channel(64);
        for chunk in 0..3u64 {
            let events: Vec<_> = (0..4).map(|i| post("p", 1, chunk * 4 + i)).collect();
            assert!(server.post(
                Request::EventBatch {
                    session: 12,
                    tape: crate::write_tape(&events),
                },
                out.clone(),
            ));
        }
        // Close is the barrier: after its verdict, all prior acks are
        // in the queue.
        let v = verdict(server.close(12));
        assert_eq!(v.ingested, 12);
        drop(out);
        let acked: Vec<_> = acks.iter().collect();
        assert_eq!(acked.len(), 3, "one cumulative ack per 4-event window");
        let steps: Vec<_> = acked
            .iter()
            .map(|a| match a {
                Response::Ack {
                    session,
                    through_step,
                } => {
                    assert_eq!(*session, 12);
                    *through_step
                }
                other => panic!("expected ack, got {other:?}"),
            })
            .collect();
        assert_eq!(steps, vec![3, 7, 11], "acks are cumulative and ordered");
        server.shutdown();
    }

    #[test]
    fn posting_to_a_missing_session_reports_the_error() {
        let server = MonitorServer::start(ServerConfig::default());
        let (out, errs) = sync_channel(4);
        assert!(server.post(
            Request::EventBatch {
                session: 99,
                tape: crate::write_tape(&[post("p", 1, 0)]),
            },
            out,
        ));
        assert!(matches!(errs.recv().unwrap(), Response::Err(_)));
        server.shutdown();
    }

    #[test]
    fn checkpoints_compact_the_swap_window() {
        let config = ServerConfig {
            checkpoint_every: 4,
            ..ServerConfig::default()
        };
        let server = MonitorServer::start(config);
        server.open(13, "never(post(zzz))", false);
        // The violating -5 at step 1 falls before the checkpoint at
        // ingested = 4, so the compacted window cannot re-judge it.
        verdict(server.events(
            13,
            &[
                post("p", 5, 0),
                post("p", -5, 1),
                post("p", 6, 2),
                post("p", 7, 3),
                post("p", 8, 4),
            ],
        ));
        let v = verdict(server.swap(13, "always(post(p) => value > 0)"));
        assert_eq!(v.violation, None, "the evidence predates the checkpoint");
        assert!(v.swap_truncated, "and the verdict says so");
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_events_before_acking_stops() {
        // The drain guarantee, observed through acks: everything posted
        // before shutdown is folded, and every ack quotes only folded
        // steps — a stopped server never acks an event it did not fold.
        let config = ServerConfig {
            shards: 1,
            ack_every: 1,
            ..ServerConfig::default()
        };
        let server = MonitorServer::start(config);
        server.open(14, "never(post(zzz))", false);
        let (out, acks) = sync_channel(256);
        let last_step = 29;
        for step in 0..=last_step {
            assert!(server.post(
                Request::EventBatch {
                    session: 14,
                    tape: crate::write_tape(&[post("p", 1, step)]),
                },
                out.clone(),
            ));
        }
        server.shutdown();
        drop(out);
        let steps: Vec<u64> = acks
            .iter()
            .map(|a| match a {
                Response::Ack { through_step, .. } => through_step,
                other => panic!("expected ack, got {other:?}"),
            })
            .collect();
        assert_eq!(
            steps.last().copied(),
            Some(last_step),
            "the drain folded (and acked) everything queued before stop"
        );
        assert!(steps.windows(2).all(|w| w[0] < w[1]), "acks are monotonic");
        // And the intake really is closed.
        assert!(matches!(server.close(14), Response::Err(_)));
        assert!(!server.post(
            Request::EventBatch {
                session: 14,
                tape: crate::write_tape(&[]),
            },
            sync_channel(1).0,
        ));
    }

    #[test]
    fn enforcing_sessions_stop_at_the_violation() {
        let config = ServerConfig {
            policy: FaultPolicy::Fatal,
            ..ServerConfig::default()
        };
        let server = MonitorServer::start(config);
        server.open(5, "never(post(b))", true);
        let v = verdict(server.events(5, &[post("b", 1, 0), post("a", 2, 1)]));
        assert_eq!(v.accepted, Some(false), "enforcing abort ends the trace");
        assert_eq!(v.ingested, 2, "late events are counted, not judged");
        assert_eq!(v.earliest_violation, Some(0));
        server.shutdown();
    }
}
