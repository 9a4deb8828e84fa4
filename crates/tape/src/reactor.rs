//! The monitor server's I/O: every connection multiplexed over `epoll`.
//!
//! `io_threads` reactor threads (usually one) own all sockets, and each
//! connection is a small nonblocking state machine:
//!
//! * **Incremental decode** — bytes arrive in whatever dribbles the
//!   kernel delivers and feed a [`FrameDecoder`]; a frame is acted on
//!   the moment its last byte lands.
//! * **Interest-toggling writes** — replies and errors are serialized
//!   into a bounded per-connection write buffer; `EPOLLOUT` interest is
//!   only registered while unsent bytes exist, so an idle connection
//!   costs zero wakeups and a slow reader backpressures into its own
//!   socket instead of dropping errors.
//! * **Coalesced acks** — a connection keeps one pending cumulative ack
//!   per session and writes the pending acks only once the socket has
//!   taken everything before them (and always ahead of a reply). A
//!   producer that reads nothing until `Close` therefore costs
//!   O(sessions) bytes of acks, not O(events), and never stops the
//!   reactor reading its batches.
//! * **Read parking** — when a session's shard queue is full, the
//!   decoded job is *parked* on the connection and `EPOLLIN` interest
//!   is dropped. The kernel socket buffer then fills and the producer
//!   feels real TCP backpressure, all without blocking the reactor
//!   thread (which keeps serving every other connection).
//!
//! Shard workers and the `Session` fold are the ones in-process callers
//! use: the reactor decides how bytes reach
//! [`MonitorServer::try_submit`], not what the monitor does with them.
//! Control requests ride the routed reply path — their replies come
//! back through the same injection queue the acks use, woken by an
//! `eventfd`.
//!
//! The `sys` submodule is the only unsafe code in the crate: direct
//! `extern "C"` declarations for `epoll_create1`/`epoll_ctl`/
//! `epoll_wait`/`eventfd` (std already links libc; no new dependency),
//! wrapped in RAII types so every fd is closed exactly once.

use crate::net::Sock;
use crate::proto::{FrameDecoder, Request, Response};
use crate::server::{Job, MonitorServer, Reply, ResponseSink, SubmitError};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Raw epoll/eventfd FFI. Kept to the minimum surface the reactor
/// needs; everything public re-wraps these in safe RAII types.
#[allow(unsafe_code)]
mod sys {
    use std::os::raw::{c_int, c_uint, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    /// Mirrors the kernel's `struct epoll_event`. On x86 the kernel ABI
    /// packs it to 12 bytes (`__attribute__((packed))` in the libc
    /// header); elsewhere it has natural alignment. Getting this wrong
    /// corrupts every second event in the wait buffer, so the layout is
    /// per-arch.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

/// An owned epoll instance; the fd is closed on drop.
#[derive(Debug)]
struct Epoll {
    fd: RawFd,
}

#[allow(unsafe_code)]
impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers; returns a fresh fd or -1.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` is a valid epoll_event that outlives the call
        // (the kernel copies it; DEL ignores it).
        let rc = unsafe { sys::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, interest, token)
    }

    fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, interest, token)
    }

    fn delete(&self, fd: RawFd) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits for readiness, retrying on `EINTR`. `timeout_ms < 0`
    /// blocks indefinitely.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `events` is valid writable storage for
            // `events.len()` entries for the duration of the call.
            let n = unsafe {
                sys::epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[allow(unsafe_code)]
impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd and close it exactly once.
        unsafe { sys::close(self.fd) };
    }
}

/// An owned `eventfd` used to kick a reactor thread out of
/// `epoll_wait` when work is injected from outside (new connections,
/// worker responses, stop). Nonblocking on both ends; the counter just
/// coalesces pending kicks.
#[derive(Debug)]
struct EventFd {
    fd: RawFd,
}

#[allow(unsafe_code)]
impl EventFd {
    fn new() -> io::Result<EventFd> {
        // SAFETY: no pointers; returns a fresh fd or -1.
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// Kicks the owning reactor. A full counter (`EAGAIN`) means a kick
    /// is already pending, which is all we need.
    fn signal(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a valid local.
        unsafe { sys::write(self.fd, (&raw const one).cast(), 8) };
    }

    /// Consumes pending kicks so level-triggered epoll quiets down.
    fn drain(&self) {
        let mut buf: u64 = 0;
        // SAFETY: reads 8 bytes into a valid local.
        unsafe { sys::read(self.fd, (&raw mut buf).cast(), 8) };
    }
}

#[allow(unsafe_code)]
impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd and close it exactly once.
        unsafe { sys::close(self.fd) };
    }
}

/// Token identifying the reactor's own eventfd in the wait set.
const WAKE_TOKEN: u64 = u64::MAX;

/// Read-interest is parked once this many unsent bytes pile up on one
/// connection; the peer must drain replies before sending more. Only
/// replies and errors (with the acks written ahead of them) count: acks
/// on their own wait in per-session slots while the socket is full.
const SOFT_WBUF_CAP: usize = 256 * 1024;

/// A connection whose write buffer grows past this is declared dead:
/// its peer stopped reading entirely while replies kept accruing.
const HARD_WBUF_CAP: usize = 4 * 1024 * 1024;

/// Work injected into a reactor thread from outside: the accept loop
/// hands over fresh connections, shard workers hand back acks and
/// responses. Swapped out wholesale under the lock, applied on the
/// reactor thread.
#[derive(Default)]
struct Injected {
    conns: Vec<(u64, Sock)>,
    /// `(token, response, is_control_reply)`.
    responses: Vec<(u64, Response, bool)>,
    /// `(token, session, through_step)`, merged into the connection's
    /// ack slots on the reactor thread.
    acks: Vec<(u64, u64, u64)>,
    stop: bool,
}

impl Injected {
    fn is_empty(&self) -> bool {
        self.conns.is_empty() && self.responses.is_empty() && self.acks.is_empty() && !self.stop
    }
}

/// State shared between one reactor thread and everyone injecting work
/// into it.
struct Shared {
    injected: Mutex<Injected>,
    wake: EventFd,
}

impl Shared {
    /// Applies `add` to the injection queue and kicks the reactor, but
    /// only when the queue was empty: a non-empty queue already has a
    /// kick pending, because the reactor takes the whole queue at the
    /// top of every loop turn after draining its eventfd. Under a steady
    /// stream of acks this saves an `eventfd` write per ack and the
    /// reactor wakeup that goes with it.
    fn inject(&self, add: impl FnOnce(&mut Injected)) {
        let mut inj = self.injected.lock().expect("reactor injection lock");
        let was_empty = inj.is_empty();
        add(&mut inj);
        drop(inj);
        if was_empty {
            self.wake.signal();
        }
    }
}

/// The per-job sink shard workers deliver through: pushes into the
/// owning reactor's injection queue and kicks its eventfd.
struct ReactorSink {
    shared: Arc<Shared>,
    token: u64,
    /// Whether a delivered response closes out a routed control request
    /// (the connection counts those to know when it may retire).
    control: bool,
}

impl ResponseSink for ReactorSink {
    fn ack(&self, session: u64, through_step: u64) -> bool {
        let token = self.token;
        self.shared
            .inject(|inj| inj.acks.push((token, session, through_step)));
        true
    }

    fn send(&self, resp: Response) -> bool {
        let (token, control) = (self.token, self.control);
        self.shared
            .inject(|inj| inj.responses.push((token, resp, control)));
        true
    }
}

/// A job decoded from a connection that found its shard queue full.
struct Parked {
    session: u64,
    job: Job,
    control: bool,
}

/// One connection's nonblocking state machine.
struct Conn {
    sock: Sock,
    decoder: FrameDecoder,
    /// Serialized response frames not yet accepted by the socket;
    /// `wstart` is the sent prefix.
    wbuf: Vec<u8>,
    wstart: usize,
    /// Pending cumulative acks, one `(session, through_step)` slot per
    /// session. They enter `wbuf` only once it is empty or ahead of a
    /// reply, so a peer that reads nothing holds O(sessions) of them.
    acks: Vec<(u64, u64)>,
    /// The socket refused the last write (`EAGAIN`): further writes wait
    /// for `EPOLLOUT` instead of failing once per loop turn against a
    /// peer that is not reading.
    wblocked: bool,
    /// Interest mask currently registered with epoll.
    interest: u32,
    parked: Option<Parked>,
    /// Routed control requests submitted but not yet answered; the
    /// connection cannot retire while one is in flight.
    control_inflight: usize,
    eof: bool,
    dead: bool,
}

impl Conn {
    fn new(sock: Sock) -> Conn {
        Conn {
            sock,
            decoder: FrameDecoder::new(),
            wbuf: Vec::new(),
            wstart: 0,
            acks: Vec::new(),
            wblocked: false,
            interest: 0,
            parked: None,
            control_inflight: 0,
            eof: false,
            dead: false,
        }
    }

    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wstart
    }

    /// Keeps `through_step` as `session`'s pending ack, merged with one
    /// already pending: cumulative acks make the older one redundant.
    fn offer_ack(&mut self, session: u64, through_step: u64) {
        match self.acks.iter_mut().find(|(s, _)| *s == session) {
            Some(slot) => slot.1 = slot.1.max(through_step),
            None => self.acks.push((session, through_step)),
        }
    }

    /// Appends one reply or error frame to the write buffer, behind the
    /// pending acks: the shard acked before it replied. The hard cap
    /// catches a peer that stopped reading entirely.
    fn queue_response(&mut self, resp: &Response) {
        self.queue_acks();
        push_frame(&mut self.wbuf, resp);
        if self.unsent() > HARD_WBUF_CAP {
            self.dead = true;
        }
    }

    fn queue_acks(&mut self) {
        for (session, through_step) in self.acks.drain(..) {
            push_frame(
                &mut self.wbuf,
                &Response::Ack {
                    session,
                    through_step,
                },
            );
        }
    }

    /// Writes as much as the socket will take; once it has taken
    /// everything queued, the pending acks follow.
    fn flush(&mut self) {
        loop {
            if self.unsent() == 0 {
                self.wbuf.clear();
                self.wstart = 0;
                if self.acks.is_empty() {
                    return;
                }
                self.queue_acks();
            }
            match self.sock.write(&self.wbuf[self.wstart..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wstart += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.wblocked = true;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.wstart > 64 * 1024 {
            self.wbuf.drain(..self.wstart);
            self.wstart = 0;
        }
    }

    /// The interest mask this connection wants right now: `EPOLLIN`
    /// unless parked / read-saturated / at EOF, `EPOLLOUT` only while
    /// unsent bytes exist (acks are pending only while they do).
    fn wanted_interest(&self) -> u32 {
        let mut want = sys::EPOLLRDHUP;
        if self.parked.is_none() && !self.eof && self.unsent() < SOFT_WBUF_CAP {
            want |= sys::EPOLLIN;
        }
        if self.unsent() > 0 {
            want |= sys::EPOLLOUT;
        }
        want
    }

    /// A connection retires once the peer is done sending, nothing is
    /// parked or in flight, and every queued response and ack is out.
    fn retired(&self) -> bool {
        self.eof
            && self.parked.is_none()
            && self.control_inflight == 0
            && self.unsent() == 0
            && self.acks.is_empty()
    }
}

/// Appends `resp` as one length-prefixed frame.
fn push_frame(wbuf: &mut Vec<u8>, resp: &Response) {
    let payload = resp.encode();
    wbuf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    wbuf.extend_from_slice(&payload);
}

/// Re-registers `conn`'s interest with epoll if it changed. An `EMFILE`
/// here is unreachable (MOD allocates nothing); any failure means the
/// fd is gone, so the connection dies.
fn sync_interest(epoll: &Epoll, token: u64, conn: &mut Conn) {
    if conn.dead {
        return;
    }
    let want = conn.wanted_interest();
    if want != conn.interest {
        if epoll.modify(conn.sock.fd(), want, token).is_err() {
            conn.dead = true;
            return;
        }
        conn.interest = want;
    }
}

/// Decodes and submits as many complete frames as shard queues will
/// take. Stops at the first full queue (parking the job) so per-session
/// frame order is preserved.
fn process_frames(conn: &mut Conn, server: &MonitorServer, shared: &Arc<Shared>, token: u64) {
    while conn.parked.is_none() && !conn.dead {
        let payload = match conn.decoder.next_frame() {
            Ok(Some(payload)) => payload,
            Ok(None) => break,
            Err(_) => {
                // An oversized length prefix: the stream is garbage
                // from here on. Report once (best-effort flush — the
                // frame is tiny) and hang up.
                conn.queue_response(&Response::Err("frame exceeds maximum size".to_string()));
                conn.flush();
                conn.dead = true;
                break;
            }
        };
        match Request::decode(&payload) {
            Ok(req @ Request::EventBatch { .. }) => {
                let session = crate::server::req_session(&req);
                let sink = ReactorSink {
                    shared: Arc::clone(shared),
                    token,
                    control: false,
                };
                submit(
                    conn,
                    server,
                    session,
                    Job::Req(req, Reply::Acked(Box::new(sink))),
                    false,
                );
            }
            Ok(req) => {
                let session = crate::server::req_session(&req);
                let sink = ReactorSink {
                    shared: Arc::clone(shared),
                    token,
                    control: true,
                };
                submit(
                    conn,
                    server,
                    session,
                    Job::Req(req, Reply::Routed(Box::new(sink))),
                    true,
                );
            }
            Err(e) => conn.queue_response(&Response::Err(format!("bad request: {e}"))),
        }
    }
}

/// Offers one job to its shard; parks it on the connection when the
/// queue is full (backpressure) and synthesizes the shutdown error when
/// the server is down.
fn submit(conn: &mut Conn, server: &MonitorServer, session: u64, job: Job, control: bool) {
    match server.try_submit(session, job) {
        Ok(()) => {
            if control {
                conn.control_inflight += 1;
            }
        }
        Err(SubmitError::Full(job)) => {
            conn.parked = Some(Parked {
                session,
                job,
                control,
            });
        }
        Err(SubmitError::Down) => {
            conn.queue_response(&Response::Err("server is shut down".to_string()));
        }
    }
}

/// Pulls bytes off the socket into the frame decoder, processing frames
/// as they complete. Bounded per call so one firehose connection cannot
/// starve the rest of the wait set (level-triggered epoll re-arms).
fn read_ready(
    conn: &mut Conn,
    server: &MonitorServer,
    shared: &Arc<Shared>,
    token: u64,
    scratch: &mut [u8],
) {
    let mut budget = 4;
    while budget > 0 && conn.parked.is_none() && !conn.eof && !conn.dead {
        budget -= 1;
        match conn.sock.read(scratch) {
            Ok(0) => conn.eof = true,
            Ok(n) => {
                conn.decoder.extend(&scratch[..n]);
                process_frames(conn, server, shared, token);
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => conn.dead = true,
        }
    }
    if conn.eof && conn.parked.is_none() {
        // Whatever complete frames arrived before EOF were processed
        // above; a partial trailing frame is an unclean close and is
        // dropped.
        process_frames(conn, server, shared, token);
    }
}

/// One reactor thread: drain injections, retry parked jobs, wait, and
/// advance every ready connection's state machine.
fn reactor_loop(epoll: Epoll, shared: Arc<Shared>, server: Arc<MonitorServer>) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 256];
    let mut scratch = vec![0u8; 64 * 1024];
    loop {
        // 1. Apply injected work. Acks before responses: within one
        // batch this preserves "the shard acked before it replied", and
        // a queued response writes the pending acks ahead of itself.
        let injected = {
            let mut inj = shared.injected.lock().expect("reactor injection lock");
            std::mem::take(&mut *inj)
        };
        if injected.stop {
            return; // drops close every socket, the epoll fd stays RAII'd
        }
        for (token, sock) in injected.conns {
            if sock.set_nonblocking().is_err() {
                continue;
            }
            let mut conn = Conn::new(sock);
            let want = conn.wanted_interest();
            if epoll.add(conn.sock.fd(), want, token).is_ok() {
                conn.interest = want;
                conns.insert(token, conn);
            }
        }
        for (token, session, through_step) in injected.acks {
            if let Some(conn) = conns.get_mut(&token) {
                conn.offer_ack(session, through_step);
            }
        }
        for (token, resp, control) in injected.responses {
            if let Some(conn) = conns.get_mut(&token) {
                if control {
                    conn.control_inflight = conn.control_inflight.saturating_sub(1);
                }
                conn.queue_response(&resp);
            }
        }

        // 2. Retry parked jobs — the shard may have drained. On
        // success the connection resumes decoding where it stopped.
        let parked_tokens: Vec<u64> = conns
            .iter()
            .filter(|(_, c)| c.parked.is_some() && !c.dead)
            .map(|(t, _)| *t)
            .collect();
        for token in parked_tokens {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            let Parked {
                session,
                job,
                control,
            } = conn.parked.take().expect("parked job present");
            submit(conn, &server, session, job, control);
            if conn.parked.is_none() {
                process_frames(conn, &server, &shared, token);
            }
        }

        // 3. Flush (pending acks included), resync interest, and reap
        // finished connections.
        let mut reap: Vec<u64> = Vec::new();
        for (token, conn) in conns.iter_mut() {
            if !conn.wblocked {
                conn.flush();
            }
            if conn.dead || conn.retired() {
                reap.push(*token);
                continue;
            }
            sync_interest(&epoll, *token, conn);
        }
        for token in reap {
            if let Some(conn) = conns.remove(&token) {
                epoll.delete(conn.sock.fd());
            }
        }

        // 4. Wait. While anything is parked we poll at 1 ms so shard
        // drainage is noticed promptly; otherwise block until the
        // kernel or the eventfd has news.
        let any_parked = conns.values().any(|c| c.parked.is_some());
        let timeout_ms = if any_parked { 1 } else { -1 };
        let n = match epoll.wait(&mut events, timeout_ms) {
            Ok(n) => n,
            Err(_) => return,
        };
        for ev in events.iter().take(n).copied() {
            let token = ev.data;
            let bits = ev.events;
            if token == WAKE_TOKEN {
                shared.wake.drain();
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if bits & sys::EPOLLERR != 0 {
                conn.dead = true;
                continue;
            }
            if bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0 {
                read_ready(conn, &server, &shared, token, &mut scratch);
            }
            if bits & sys::EPOLLOUT != 0 {
                conn.wblocked = false;
                conn.flush();
            }
        }
    }
}

/// Monotonic connection tokens, unique across every reactor in the
/// process (tokens are also the keys worker sinks address).
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);

/// A handful of reactor threads plus the round-robin dispatch the
/// accept loop uses to hand them fresh connections. `stop` takes
/// `&self` (joins live behind a mutex) so the pool can be shared
/// between the accept loop and the serve handle via `Arc`.
pub(crate) struct ReactorPool {
    shareds: Vec<Arc<Shared>>,
    joins: Mutex<Vec<JoinHandle<()>>>,
    next: AtomicUsize,
}

impl ReactorPool {
    /// Spawns `io_threads` reactor threads serving `server`.
    pub(crate) fn start(server: &Arc<MonitorServer>, io_threads: usize) -> io::Result<ReactorPool> {
        let count = io_threads.max(1);
        let mut shareds = Vec::with_capacity(count);
        let mut joins = Vec::with_capacity(count);
        for i in 0..count {
            let shared = Arc::new(Shared {
                injected: Mutex::new(Injected::default()),
                wake: EventFd::new()?,
            });
            // The epoll instance is created here, not in the spawned
            // thread, so setup failures surface as an error from
            // `start` and the pool's fd footprint is fully paid before
            // `start` returns (fd-hygiene tests snapshot right after).
            let epoll = Epoll::new()?;
            epoll.add(shared.wake.fd, sys::EPOLLIN, WAKE_TOKEN)?;
            let shared2 = Arc::clone(&shared);
            let server = Arc::clone(server);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("monsem-reactor-{i}"))
                    .spawn(move || reactor_loop(epoll, shared2, server))?,
            );
            shareds.push(shared);
        }
        Ok(ReactorPool {
            shareds,
            joins: Mutex::new(joins),
            next: AtomicUsize::new(0),
        })
    }

    /// Hands a fresh connection to the next reactor thread.
    pub(crate) fn register(&self, sock: Sock) {
        if self.shareds.is_empty() {
            return;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shareds.len();
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        self.shareds[i].inject(|inj| inj.conns.push((token, sock)));
    }

    /// Stops and joins every reactor thread, dropping (closing) their
    /// sockets and epoll fds. Idempotent.
    pub(crate) fn stop(&self) {
        for shared in &self.shareds {
            shared.inject(|inj| inj.stop = true);
        }
        let joins: Vec<_> = self
            .joins
            .lock()
            .expect("reactor join table lock")
            .drain(..)
            .collect();
        for join in joins {
            let _ = join.join();
        }
    }
}

impl Drop for ReactorPool {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for ReactorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorPool")
            .field("io_threads", &self.shareds.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // FFI sanity: the epoll/eventfd wrappers against the live kernel.
    // The integration suites exercise the full reactor; these pin the
    // raw layer (struct layout included — a mis-packed epoll_event
    // would corrupt `data` and fail the token round-trip).

    #[test]
    fn eventfd_signals_wake_epoll_and_round_trip_the_token() {
        let epoll = Epoll::new().expect("epoll_create1");
        let efd = EventFd::new().expect("eventfd");
        epoll.add(efd.fd, sys::EPOLLIN, 0xDEAD_BEEF).expect("add");
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 4];
        // Nothing pending: a zero-timeout wait returns empty.
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 0);
        efd.signal();
        efd.signal(); // coalesces, still one readiness event
        let n = epoll.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, 0xDEAD_BEEF, "token survives the kernel round trip");
        efd.drain();
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 0, "drained");
    }

    #[test]
    fn interest_modification_toggles_readiness() {
        let epoll = Epoll::new().expect("epoll_create1");
        let efd = EventFd::new().expect("eventfd");
        epoll.add(efd.fd, sys::EPOLLIN, 7).expect("add");
        efd.signal();
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(epoll.wait(&mut events, 1000).expect("wait"), 1);
        // Drop read interest: the pending readiness goes quiet.
        epoll.modify(efd.fd, 0, 7).expect("mod");
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 0);
        // Restore it: the level-triggered event comes back.
        epoll.modify(efd.fd, sys::EPOLLIN, 7).expect("mod");
        assert_eq!(epoll.wait(&mut events, 1000).expect("wait"), 1);
    }
}
