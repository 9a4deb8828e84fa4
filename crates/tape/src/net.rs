//! Socket front ends for the monitor server: TCP and Unix-domain
//! listeners speaking the framed [`crate::proto`] protocol, plus a small
//! blocking [`Client`] with a buffering [`BatchWriter`].
//!
//! Two [`IoBackend`]s turn accepted sockets into server traffic:
//!
//! * [`IoBackend::Threaded`] (the portable default) gives each
//!   connection a *reader* thread that decodes request frames plus a
//!   *writer* thread draining a per-connection outbound buffer.
//!   Control requests (`Open`/`Swap`/`Close`) go through the
//!   synchronous [`MonitorServer::request`] path; event frames are
//!   posted fire-and-forget, so a producer can stream `EventBatch`
//!   frames back-to-back while cumulative acks flow out on the writer
//!   side. Because the shard queues are bounded, a connection whose
//!   session floods the server blocks *in its own reader thread*,
//!   exerting TCP/socket backpressure on that producer without
//!   stalling other connections.
//! * [`IoBackend::Reactor`] (Linux) multiplexes every connection over
//!   `epoll` on a fixed pool of reactor threads — see the
//!   `reactor` module. Same protocol, same shard workers, same
//!   verdicts; the thread count stops scaling with the connection
//!   count. On other platforms it falls back to `Threaded`.
//!
//! The default [`serve_tcp`]/[`serve_unix`] entry points pick their
//! backend from the `MONSEM_IO_BACKEND` environment variable
//! (`threaded` | `reactor` | `reactor:N`), which is how CI runs the
//! whole server test suite under both backends; pass an explicit
//! [`IoBackend`] to [`serve_tcp_with`]/[`serve_unix_with`] to pin one.

use crate::format::write_tape;
use crate::proto::{read_frame, write_frame, Request, Response};
#[cfg(target_os = "linux")]
use crate::reactor::{ReactorPool, Sock};
use crate::server::{MonitorServer, ResponseSink};
use monsem_monitor::tape::TapeEvent;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default [`BatchWriter`] flush threshold, in buffered events.
pub const DEFAULT_BATCH: usize = 256;

/// Default reactor thread count for [`IoBackend::Reactor`]. One thread
/// multiplexes thousands of connections comfortably; raise it when
/// frame decode itself becomes the bottleneck.
pub const DEFAULT_IO_THREADS: usize = 1;

/// Outbound reply-queue depth per connection (threaded backend). Acks
/// live outside this bound (they coalesce per session instead of
/// queueing); errors and replies past the bound block the sender — the
/// peer must read.
const OUTBOUND_DEPTH: usize = 1024;

/// How a listener turns accepted sockets into monitor-server traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackend {
    /// Two OS threads per connection (blocking reader + writer). The
    /// portable fallback, and the differential-test oracle the reactor
    /// is checked against.
    #[default]
    Threaded,
    /// A readiness-driven `epoll` reactor (Linux): `io_threads` reactor
    /// threads own every socket, with interest-toggled writes and
    /// read-parking backpressure. Falls back to [`IoBackend::Threaded`]
    /// on other platforms.
    Reactor {
        /// Reactor threads the connections are distributed over.
        io_threads: usize,
    },
}

impl IoBackend {
    /// Reads the backend from the `MONSEM_IO_BACKEND` environment
    /// variable (`threaded` | `reactor` | `reactor:N`); unset or
    /// unparseable means [`IoBackend::Threaded`]. [`serve_tcp`] and
    /// [`serve_unix`] call this, which is how a test suite written
    /// against them runs under either backend without edits.
    pub fn from_env() -> IoBackend {
        std::env::var("MONSEM_IO_BACKEND")
            .ok()
            .and_then(|v| IoBackend::parse(&v))
            .unwrap_or(IoBackend::Threaded)
    }

    /// Parses a backend name: `threaded`, `reactor`, or `reactor:N`
    /// (N > 0 reactor threads).
    pub fn parse(s: &str) -> Option<IoBackend> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("threaded") {
            return Some(IoBackend::Threaded);
        }
        if s.eq_ignore_ascii_case("reactor") {
            return Some(IoBackend::Reactor {
                io_threads: DEFAULT_IO_THREADS,
            });
        }
        s.strip_prefix("reactor:")
            .and_then(|n| n.parse().ok())
            .filter(|&n| n > 0)
            .map(|io_threads| IoBackend::Reactor { io_threads })
    }
}

/// A byte stream whose write half can be split off into an
/// independently-owned handle, so a connection can read requests and
/// write responses from different threads.
pub trait SplitStream: io::Read + io::Write {
    /// The write-half handle type.
    type Writer: io::Write + Send + 'static;

    /// Splits off a write handle to the same underlying stream.
    ///
    /// # Errors
    ///
    /// Propagates the OS duplication failure.
    fn split_writer(&self) -> io::Result<Self::Writer>;
}

impl SplitStream for TcpStream {
    type Writer = TcpStream;

    fn split_writer(&self) -> io::Result<TcpStream> {
        self.try_clone()
    }
}

impl SplitStream for UnixStream {
    type Writer = UnixStream;

    fn split_writer(&self) -> io::Result<UnixStream> {
        self.try_clone()
    }
}

/// How to wake a listener blocked in `accept` so it notices the stop
/// flag: connect to it ourselves. The throwaway connection is accepted,
/// observed after the flag, and dropped.
#[derive(Debug, Clone)]
enum WakeTarget {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl WakeTarget {
    fn wake(&self) {
        match self {
            WakeTarget::Tcp(addr) => drop(TcpStream::connect(addr)),
            WakeTarget::Unix(path) => drop(UnixStream::connect(path)),
        }
    }
}

/// A handle to a running listener.
#[derive(Debug)]
pub struct ServeHandle {
    addr: Option<SocketAddr>,
    wake: WakeTarget,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// The reactor pool, when this listener runs [`IoBackend::Reactor`].
    #[cfg(target_os = "linux")]
    reactor: Option<Arc<ReactorPool>>,
}

impl ServeHandle {
    /// The bound TCP address (e.g. with port 0 the OS-chosen port).
    /// `None` for Unix-socket listeners.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Stops accepting new connections and joins the accept loop (and,
    /// on the reactor backend, the reactor threads — closing every
    /// multiplexed connection). Threaded-backend connections finish at
    /// their own pace.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            self.wake.wake();
            let _ = t.join();
        }
        #[cfg(target_os = "linux")]
        if let Some(pool) = self.reactor.take() {
            pool.stop();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Outbound state for one threaded-backend connection, drained by its
/// writer thread.
///
/// Replies and errors queue FIFO in `queue`, bounded by
/// [`OUTBOUND_DEPTH`]; a sender that hits the bound *blocks* until the
/// writer drains — an error is never dropped because the queue was
/// momentarily full. Cumulative acks are kept separately, coalesced per
/// session: offering a newer `through_step` replaces a stale queued one
/// instead of either dropping the ack or growing the queue. The writer
/// emits pending acks before queued replies, preserving "the shard
/// acked before it replied" order.
struct OutState {
    queue: VecDeque<Response>,
    /// `(session, through_step)`, one slot per session.
    acks: Vec<(u64, u64)>,
    /// Reader saw EOF: drain what is queued, then exit.
    closed: bool,
    /// Writer exited (socket error, or drained after close): sends fail
    /// fast instead of queueing for nobody.
    writer_gone: bool,
}

struct ConnOutbound {
    state: Mutex<OutState>,
    ready: Condvar,
}

impl ConnOutbound {
    fn new() -> ConnOutbound {
        ConnOutbound {
            state: Mutex::new(OutState {
                queue: VecDeque::new(),
                acks: Vec::new(),
                closed: false,
                writer_gone: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Queues a reply or error, blocking while the queue is at
    /// capacity. Returns `false` once the writer is gone.
    fn send(&self, resp: Response) -> bool {
        let mut st = self.state.lock().expect("outbound lock");
        while st.queue.len() >= OUTBOUND_DEPTH && !st.writer_gone {
            st = self.ready.wait(st).expect("outbound lock");
        }
        if st.writer_gone {
            return false;
        }
        st.queue.push_back(resp);
        self.ready.notify_all();
        true
    }

    /// Coalescing ack offer: replaces this session's queued
    /// `through_step` if one is pending, never blocks, never drops an
    /// accepted ack.
    fn offer_ack(&self, session: u64, through_step: u64) -> bool {
        let mut st = self.state.lock().expect("outbound lock");
        if st.writer_gone {
            return false;
        }
        match st.acks.iter_mut().find(|(s, _)| *s == session) {
            Some(slot) => slot.1 = slot.1.max(through_step),
            None => st.acks.push((session, through_step)),
        }
        self.ready.notify_all();
        true
    }

    /// Reader is done; the writer drains and exits.
    fn close(&self) {
        self.state.lock().expect("outbound lock").closed = true;
        self.ready.notify_all();
    }

    /// Writer-thread body: pop acks first (ack-before-reply order),
    /// then replies; exit once closed-and-drained or on socket error.
    fn drain(&self, writer: &mut impl io::Write) {
        loop {
            let resp = {
                let mut st = self.state.lock().expect("outbound lock");
                loop {
                    if !st.acks.is_empty() {
                        let (session, through_step) = st.acks.remove(0);
                        break Response::Ack {
                            session,
                            through_step,
                        };
                    }
                    if let Some(resp) = st.queue.pop_front() {
                        // A sender may be blocked on the capacity bound.
                        self.ready.notify_all();
                        break resp;
                    }
                    if st.closed {
                        st.writer_gone = true;
                        self.ready.notify_all();
                        return;
                    }
                    st = self.ready.wait(st).expect("outbound lock");
                }
            };
            if write_frame(writer, &resp.encode()).is_err() {
                let mut st = self.state.lock().expect("outbound lock");
                st.writer_gone = true;
                self.ready.notify_all();
                return;
            }
        }
    }
}

/// Shard workers deliver through the connection's outbound buffer:
/// advisory-but-coalesced acks, must-deliver (blocking) errors.
impl ResponseSink for Arc<ConnOutbound> {
    fn ack(&self, session: u64, through_step: u64) -> bool {
        self.offer_ack(session, through_step)
    }

    fn send(&self, resp: Response) -> bool {
        ConnOutbound::send(self, resp)
    }
}

fn serve_connection<S: SplitStream>(server: &MonitorServer, mut stream: S) {
    let Ok(mut writer) = stream.split_writer() else {
        return;
    };
    let out = Arc::new(ConnOutbound::new());
    let wout = Arc::clone(&out);
    let writer_thread = std::thread::Builder::new()
        .name("monsem-conn-writer".to_string())
        .spawn(move || wout.drain(&mut writer));
    let Ok(writer_thread) = writer_thread else {
        return;
    };
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => break, // clean EOF
            Err(_) => break,
        };
        match Request::decode(&frame) {
            // Event frames are fire-and-forget: the shard folds them
            // and delivers cumulative acks (coalesced) or errors
            // (blocking — never silently lost) into the outbound
            // buffer. The reader immediately returns to the socket for
            // the next frame.
            Ok(req @ (Request::Events { .. } | Request::EventBatch { .. })) => {
                if !server.post_with(req, Box::new(Arc::clone(&out)))
                    && !out.send(Response::Err("server is shut down".to_string()))
                {
                    break;
                }
            }
            // Control requests stay strictly request/reply. The writer
            // emits pending acks before the queued reply, keeping the
            // outbound frame order consistent with fold order: the
            // shard acked before it replied.
            Ok(req) => {
                let resp = server.request(req);
                if !out.send(resp) {
                    break;
                }
            }
            Err(e) => {
                if !out.send(Response::Err(format!("bad request: {e}"))) {
                    break;
                }
            }
        }
    }
    out.close();
    let _ = writer_thread.join();
}

// The listener stays in blocking mode: `accept` parks the thread until a
// connection (or the `stop()` wakeup self-connect) arrives, so an idle
// server costs zero wakeups. The stop flag is re-checked after every
// accept, which is what makes the wakeup connection sufficient.
// `on_conn` is the backend: spawn a reader/writer pair, or hand the
// socket to a reactor.
fn accept_loop<L, S>(
    listener: L,
    accept: impl Fn(&L) -> io::Result<S>,
    stop: Arc<AtomicBool>,
    on_conn: impl Fn(S),
) where
    S: Send + 'static,
{
    while !stop.load(Ordering::SeqCst) {
        match accept(&listener) {
            Ok(stream) => {
                if stop.load(Ordering::SeqCst) {
                    return; // the wakeup connection itself
                }
                on_conn(stream);
            }
            // Transient per-connection failures (e.g. the peer aborting
            // mid-handshake) must not kill the listener.
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// The threaded backend's `on_conn`: one reader thread per connection
/// (which itself spawns the writer).
fn spawn_threaded_conn<S: SplitStream + Send + 'static>(server: &Arc<MonitorServer>, stream: S) {
    let server = Arc::clone(server);
    let _ = std::thread::Builder::new()
        .name("monsem-conn".to_string())
        .spawn(move || serve_connection(&server, stream));
}

fn spawn_accept<F: FnOnce() + Send + 'static>(f: F) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("monsem-accept".to_string())
        .spawn(f)
}

/// Serves the monitor protocol on a TCP listener bound to `addr`
/// (use port `0` to let the OS pick; read it back from
/// [`ServeHandle::addr`]), with the backend chosen by
/// [`IoBackend::from_env`].
///
/// # Errors
///
/// Propagates bind failures.
pub fn serve_tcp(server: Arc<MonitorServer>, addr: impl ToSocketAddrs) -> io::Result<ServeHandle> {
    serve_tcp_with(server, addr, IoBackend::from_env())
}

/// [`serve_tcp`] with an explicit [`IoBackend`].
///
/// # Errors
///
/// Propagates bind failures and (reactor backend) epoll/eventfd setup
/// failures.
pub fn serve_tcp_with(
    server: Arc<MonitorServer>,
    addr: impl ToSocketAddrs,
    backend: IoBackend,
) -> io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    // A wakeup connect must reach the listener even when it is bound to
    // an unspecified address (0.0.0.0 / ::), so target loopback then.
    let wake_addr = SocketAddr::new(
        match bound.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        },
        bound.port(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let mut handle = ServeHandle {
        addr: Some(bound),
        wake: WakeTarget::Tcp(wake_addr),
        stop,
        accept_thread: None,
        #[cfg(target_os = "linux")]
        reactor: None,
    };
    #[cfg(target_os = "linux")]
    if let IoBackend::Reactor { io_threads } = backend {
        let pool = Arc::new(ReactorPool::start(&server, io_threads)?);
        let pool2 = Arc::clone(&pool);
        handle.reactor = Some(pool);
        handle.accept_thread = Some(spawn_accept(move || {
            accept_loop(
                listener,
                |l| l.accept().map(|(s, _)| no_delay(s)),
                stop2,
                move |s| pool2.register(Sock::Tcp(s)),
            );
        })?);
        return Ok(handle);
    }
    // Reactor falls back to Threaded off-Linux.
    #[cfg(not(target_os = "linux"))]
    let _ = backend;
    handle.accept_thread = Some(spawn_accept(move || {
        accept_loop(
            listener,
            |l| l.accept().map(|(s, _)| no_delay(s)),
            stop2,
            move |s| spawn_threaded_conn(&server, s),
        );
    })?);
    Ok(handle)
}

/// Turns off Nagle's algorithm on a protocol socket. Every frame goes
/// out whole in one write, so there is nothing to coalesce; left on, a
/// small frame (a control request, an ack, a verdict) written while an
/// earlier frame is still unacknowledged waits for the peer's delayed
/// ACK — about 40 ms on Linux — before it is sent.
fn no_delay(s: TcpStream) -> TcpStream {
    // Best effort: a socket that refuses still works, only slower.
    let _ = s.set_nodelay(true);
    s
}

/// Serves the monitor protocol on a Unix-domain socket at `path`
/// (removed first if it already exists), with the backend chosen by
/// [`IoBackend::from_env`].
///
/// # Errors
///
/// Propagates bind failures.
pub fn serve_unix(server: Arc<MonitorServer>, path: impl AsRef<Path>) -> io::Result<ServeHandle> {
    serve_unix_with(server, path, IoBackend::from_env())
}

/// [`serve_unix`] with an explicit [`IoBackend`].
///
/// # Errors
///
/// Propagates bind failures and (reactor backend) epoll/eventfd setup
/// failures.
pub fn serve_unix_with(
    server: Arc<MonitorServer>,
    path: impl AsRef<Path>,
    backend: IoBackend,
) -> io::Result<ServeHandle> {
    let path = path.as_ref();
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let mut handle = ServeHandle {
        addr: None,
        wake: WakeTarget::Unix(path.to_path_buf()),
        stop,
        accept_thread: None,
        #[cfg(target_os = "linux")]
        reactor: None,
    };
    #[cfg(target_os = "linux")]
    if let IoBackend::Reactor { io_threads } = backend {
        let pool = Arc::new(ReactorPool::start(&server, io_threads)?);
        let pool2 = Arc::clone(&pool);
        handle.reactor = Some(pool);
        handle.accept_thread = Some(spawn_accept(move || {
            accept_loop(
                listener,
                |l| l.accept().map(|(s, _)| s),
                stop2,
                move |s| pool2.register(Sock::Unix(s)),
            );
        })?);
        return Ok(handle);
    }
    #[cfg(not(target_os = "linux"))]
    let _ = backend;
    handle.accept_thread = Some(spawn_accept(move || {
        accept_loop(
            listener,
            |l| l.accept().map(|(s, _)| s),
            stop2,
            move |s| spawn_threaded_conn(&server, s),
        );
    })?);
    Ok(handle)
}

/// A blocking protocol client over any byte stream.
///
/// Control requests ([`Client::open`], [`Client::swap`],
/// [`Client::close`], …) are strictly request/reply. Event traffic can
/// instead be *streamed*: [`Client::send_batch`] writes an
/// [`Request::EventBatch`] frame and returns without reading, and the
/// cumulative [`Response::Ack`] frames the server interleaves are
/// absorbed (and recorded — see [`Client::last_ack`]) by the next
/// synchronous request. [`Client::batch_writer`] layers size/interval
/// buffering on top.
///
/// Connection faults are **sticky**: once any operation hits an I/O
/// error (including an unexpected EOF mid-reply), every subsequent
/// call — the next [`Client::events`] as much as the final
/// [`Client::close`] — fails immediately with the original failure,
/// instead of the breakage surfacing only when the close barrier
/// finally reads the socket.
#[derive(Debug)]
pub struct Client<S> {
    stream: S,
    /// Highest `through_step` acked per session, from absorbed acks.
    acks: HashMap<u64, u64>,
    /// First I/O failure observed, replayed to every later call.
    fault: Option<(io::ErrorKind, String)>,
}

impl Client<TcpStream> {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Client<TcpStream>> {
        Ok(Client::new(no_delay(TcpStream::connect(addr)?)))
    }
}

impl Client<UnixStream> {
    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Client<UnixStream>> {
        Ok(Client::new(UnixStream::connect(path)?))
    }
}

impl<S: io::Read + io::Write> Client<S> {
    /// Wraps an already-connected stream.
    pub fn new(stream: S) -> Client<S> {
        Client {
            stream,
            acks: HashMap::new(),
            fault: None,
        }
    }

    /// The sticky-fault gate: every operation goes through this first,
    /// so a connection that broke during an earlier fire-and-forget
    /// write fails the *next* call, whatever it is.
    fn check_fault(&self) -> io::Result<()> {
        match &self.fault {
            Some((kind, msg)) => Err(io::Error::new(
                *kind,
                format!("connection failed earlier: {msg}"),
            )),
            None => Ok(()),
        }
    }

    /// Records a fault and returns it; later calls replay it via
    /// [`Client::check_fault`].
    fn fail<T>(&mut self, err: io::Error) -> io::Result<T> {
        self.fault = Some((err.kind(), err.to_string()));
        Err(err)
    }

    /// Sends one request and waits for its response. Ack frames pending
    /// from earlier streamed batches are recorded and skipped — with
    /// one synchronous request in flight at a time, the first non-ack
    /// frame is this request's reply.
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidData` if the server's reply does not
    /// decode (including an unexpected mid-reply EOF). Any such
    /// failure is sticky: it also fails every later call.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        self.check_fault()?;
        if let Err(e) = write_frame(&mut self.stream, &req.encode()) {
            return self.fail(e);
        }
        loop {
            let frame = match read_frame(&mut self.stream) {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    return self.fail(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed mid-request",
                    ))
                }
                Err(e) => return self.fail(e),
            };
            let resp = match Response::decode(&frame) {
                Ok(resp) => resp,
                Err(e) => return self.fail(io::Error::new(io::ErrorKind::InvalidData, e)),
            };
            match resp {
                Response::Ack {
                    session,
                    through_step,
                } => {
                    let acked = self.acks.entry(session).or_insert(through_step);
                    *acked = (*acked).max(through_step);
                }
                resp => return Ok(resp),
            }
        }
    }

    /// Fire-and-forget: frames `events` as a complete tape image
    /// ([`Request::EventBatch`]) and writes it without waiting for any
    /// reply. Violations and errors surface in the interleaved acks /
    /// the next synchronous request (typically [`Client::close`]).
    ///
    /// # Errors
    ///
    /// I/O failures writing the frame (sticky — see [`Client::request`]).
    pub fn send_batch(&mut self, session: u64, events: &[TapeEvent]) -> io::Result<()> {
        self.check_fault()?;
        if let Err(e) = write_frame(
            &mut self.stream,
            &Request::EventBatch {
                session,
                tape: write_tape(events),
            }
            .encode(),
        ) {
            return self.fail(e);
        }
        Ok(())
    }

    /// The highest event step the server has cumulatively acked for
    /// `session`, as observed so far. Acks are only *read* during
    /// synchronous requests, so this is a lower bound that tightens on
    /// every [`Client::request`].
    pub fn last_ack(&self, session: u64) -> Option<u64> {
        self.acks.get(&session).copied()
    }

    /// A buffering writer for one session: events accumulate locally
    /// and ship as [`Request::EventBatch`] frames when `flush_at`
    /// events are buffered (see [`BatchWriter::flush_every`] for an
    /// additional time-based trigger).
    pub fn batch_writer(&mut self, session: u64, flush_at: usize) -> BatchWriter<'_, S> {
        BatchWriter {
            client: self,
            session,
            buf: Vec::with_capacity(flush_at.max(1)),
            flush_at: flush_at.max(1),
            flush_every: None,
            last_flush: Instant::now(),
        }
    }

    /// Opens a session.
    ///
    /// # Errors
    ///
    /// As for [`Client::request`].
    pub fn open(&mut self, session: u64, spec: &str, enforcing: bool) -> io::Result<Response> {
        self.request(&Request::Open {
            session,
            enforcing,
            spec: spec.to_string(),
            stream: None,
        })
    }

    /// Opens a session carrying a stream (SLO) spec next to its safety
    /// spec.
    ///
    /// # Errors
    ///
    /// As for [`Client::request`].
    pub fn open_with_stream(
        &mut self,
        session: u64,
        spec: &str,
        stream: &str,
        enforcing: bool,
    ) -> io::Result<Response> {
        self.request(&Request::Open {
            session,
            enforcing,
            spec: spec.to_string(),
            stream: Some(stream.to_string()),
        })
    }

    /// Streams events into a session, fire-and-forget: the server
    /// replies with cumulative [`Response::Ack`]s instead of a
    /// per-frame verdict (absorbed by the next synchronous
    /// [`Client::request`] — typically the [`Client::close`] barrier,
    /// whose verdict is authoritative). Returns as soon as the frame
    /// is written.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors (sticky — see
    /// [`Client::request`]).
    pub fn events(
        &mut self,
        session: u64,
        events: Vec<monsem_monitor::TapeEvent>,
    ) -> io::Result<()> {
        self.check_fault()?;
        if let Err(e) = write_frame(
            &mut self.stream,
            &Request::Events { session, events }.encode(),
        ) {
            return self.fail(e);
        }
        Ok(())
    }

    /// Hot-swaps a session's spec.
    ///
    /// # Errors
    ///
    /// As for [`Client::request`].
    pub fn swap(&mut self, session: u64, spec: &str) -> io::Result<Response> {
        self.request(&Request::Swap {
            session,
            spec: Some(spec.to_string()),
            stream: None,
        })
    }

    /// Hot-swaps a session's stream spec, keeping its safety spec.
    ///
    /// # Errors
    ///
    /// As for [`Client::request`].
    pub fn swap_stream(&mut self, session: u64, stream: &str) -> io::Result<Response> {
        self.request(&Request::Swap {
            session,
            spec: None,
            stream: Some(stream.to_string()),
        })
    }

    /// Closes a session.
    ///
    /// # Errors
    ///
    /// As for [`Client::request`].
    pub fn close(&mut self, session: u64) -> io::Result<Response> {
        self.request(&Request::Close { session })
    }
}

/// A size- and interval-buffered event writer over a [`Client`], built
/// by [`Client::batch_writer`].
///
/// Events [`BatchWriter::push`]ed here buffer locally until `flush_at`
/// of them accumulate (or [`BatchWriter::flush_every`]'s interval
/// elapses), then ship as one fire-and-forget [`Request::EventBatch`]
/// frame. Dropping the writer flushes best-effort; call
/// [`BatchWriter::flush`] (or issue a synchronous request afterwards)
/// when delivery must be confirmed.
#[derive(Debug)]
pub struct BatchWriter<'a, S: io::Read + io::Write> {
    client: &'a mut Client<S>,
    session: u64,
    buf: Vec<TapeEvent>,
    flush_at: usize,
    flush_every: Option<Duration>,
    last_flush: Instant,
}

impl<S: io::Read + io::Write> BatchWriter<'_, S> {
    /// Additionally flushes whenever `interval` has elapsed since the
    /// last shipped batch, bounding how stale a trickle of events can
    /// get on a mostly-idle session.
    #[must_use]
    pub fn flush_every(mut self, interval: Duration) -> Self {
        self.flush_every = Some(interval);
        self
    }

    /// Buffers one event, shipping the batch if the size or interval
    /// threshold is now crossed.
    ///
    /// # Errors
    ///
    /// I/O failures from the flush, if one was triggered.
    pub fn push(&mut self, ev: TapeEvent) -> io::Result<()> {
        self.buf.push(ev);
        let due = self.buf.len() >= self.flush_at
            || self
                .flush_every
                .is_some_and(|d| self.last_flush.elapsed() >= d);
        if due {
            self.flush()?;
        }
        Ok(())
    }

    /// Ships any buffered events now.
    ///
    /// # Errors
    ///
    /// I/O failures writing the frame (the buffer is preserved so a
    /// retry does not lose events).
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.client.send_batch(self.session, &self.buf)?;
            self.buf.clear();
        }
        self.last_flush = Instant::now();
        Ok(())
    }

    /// Buffered events not yet shipped.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

impl<S: io::Read + io::Write> Drop for BatchWriter<'_, S> {
    fn drop(&mut self) {
        // Best-effort: an explicit flush() is the reliable path.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use std::time::{Duration, Instant};

    // The accept loop blocks in `accept` with no polling; these tests pin
    // that `stop()` still returns promptly because of the self-connect
    // wakeup. Without the wakeup they would hang until the harness
    // timeout, not merely run slow.

    #[test]
    fn idle_tcp_listener_stops_promptly() {
        let server = Arc::new(MonitorServer::start(ServerConfig::default()));
        let handle = serve_tcp(Arc::clone(&server), "127.0.0.1:0").expect("bind");
        let started = Instant::now();
        handle.stop();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "stop() took {:?}",
            started.elapsed()
        );
        server.shutdown();
    }

    #[test]
    fn idle_unix_listener_stops_promptly() {
        let dir = std::env::temp_dir().join(format!("monsem-net-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("stop.sock");
        let server = Arc::new(MonitorServer::start(ServerConfig::default()));
        let handle = serve_unix(Arc::clone(&server), &path).expect("bind unix");
        let started = Instant::now();
        handle.stop();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "stop() took {:?}",
            started.elapsed()
        );
        server.shutdown();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn listener_still_serves_before_stop() {
        let server = Arc::new(MonitorServer::start(ServerConfig::default()));
        let handle = serve_tcp(Arc::clone(&server), "127.0.0.1:0").expect("bind");
        let addr = handle.addr().expect("tcp addr");
        let mut client = Client::connect_tcp(addr).expect("connect");
        assert_eq!(
            client.open(1, "never(post(b))", false).expect("open"),
            Response::Ok
        );
        handle.stop();
        server.shutdown();
    }

    #[test]
    fn batched_pipelined_ingest_round_trips_with_acks() {
        use monsem_core::Value;
        use monsem_syntax::Annotation;

        let config = ServerConfig {
            ack_every: 8,
            ..ServerConfig::default()
        };
        let server = Arc::new(MonitorServer::start(config));
        let handle = serve_tcp(Arc::clone(&server), "127.0.0.1:0").expect("bind");
        let addr = handle.addr().expect("tcp addr");
        let mut client = Client::connect_tcp(addr).expect("connect");
        client
            .open(21, "always(post(p) => value >= 0)", false)
            .expect("open");
        let ann = Annotation::label("p");
        {
            let mut w = client.batch_writer(21, 8);
            for step in 0..40u64 {
                // Step 33 violates; everything else is fine.
                let v = if step == 33 { -1 } else { 1 };
                w.push(TapeEvent::post(&ann, &Value::Int(v), step))
                    .expect("push");
            }
            w.flush().expect("flush");
            assert_eq!(w.pending(), 0);
        }
        // Close is the synchronous barrier: its verdict covers every
        // streamed event, and pending acks are absorbed on the way.
        let v = match client.close(21).expect("close") {
            Response::Verdict(v) => v,
            other => panic!("expected verdict, got {other:?}"),
        };
        assert_eq!(v.ingested, 40);
        assert_eq!(v.earliest_violation, Some(33));
        assert!(v.violation.is_some());
        let acked = client.last_ack(21).expect("saw at least one ack");
        assert!(acked <= 39, "acks never exceed what was sent");
        handle.stop();
        server.shutdown();
    }

    #[test]
    fn io_backend_parses_names_and_thread_counts() {
        assert_eq!(IoBackend::parse("threaded"), Some(IoBackend::Threaded));
        assert_eq!(IoBackend::parse(" Threaded "), Some(IoBackend::Threaded));
        assert_eq!(
            IoBackend::parse("reactor"),
            Some(IoBackend::Reactor {
                io_threads: DEFAULT_IO_THREADS
            })
        );
        assert_eq!(
            IoBackend::parse("reactor:4"),
            Some(IoBackend::Reactor { io_threads: 4 })
        );
        assert_eq!(IoBackend::parse("reactor:0"), None, "zero threads");
        assert_eq!(IoBackend::parse("epoll"), None);
        assert_eq!(IoBackend::parse(""), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reactor_backend_round_trips_the_same_protocol() {
        use monsem_core::Value;
        use monsem_syntax::Annotation;

        let server = Arc::new(MonitorServer::start(ServerConfig {
            ack_every: 8,
            ..ServerConfig::default()
        }));
        let handle = serve_tcp_with(
            Arc::clone(&server),
            "127.0.0.1:0",
            IoBackend::Reactor { io_threads: 2 },
        )
        .expect("bind");
        let addr = handle.addr().expect("tcp addr");
        let mut client = Client::connect_tcp(addr).expect("connect");
        client
            .open(31, "always(post(p) => value >= 0)", false)
            .expect("open");
        let ann = Annotation::label("p");
        for chunk in 0..5u64 {
            let events: Vec<_> = (0..8)
                .map(|i| {
                    let step = chunk * 8 + i;
                    let v = if step == 33 { -1 } else { 1 };
                    TapeEvent::post(&ann, &Value::Int(v), step)
                })
                .collect();
            client.send_batch(31, &events).expect("send");
        }
        let v = match client.close(31).expect("close") {
            Response::Verdict(v) => v,
            other => panic!("expected verdict, got {other:?}"),
        };
        assert_eq!(v.ingested, 40);
        assert_eq!(v.earliest_violation, Some(33));
        assert!(client.last_ack(31).is_some(), "acks flowed out");
        handle.stop();
        server.shutdown();
    }
}
