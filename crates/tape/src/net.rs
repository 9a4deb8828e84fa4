//! Socket front ends for the monitor server: TCP and Unix-domain
//! listeners speaking the framed [`crate::proto`] protocol, plus a small
//! blocking [`Client`] with a buffering [`BatchWriter`].
//!
//! A listener hands every accepted socket to a fixed pool of `epoll`
//! reactor threads (the crate-private `reactor` module), which decode
//! request frames, submit them to the shard workers without blocking,
//! and write replies and coalesced per-session acks back. Thread count
//! does not grow with the connection count. The reactor needs Linux:
//! elsewhere [`serve_tcp`] and [`serve_unix`] return
//! [`io::ErrorKind::Unsupported`], while [`Client`] works on any Unix.

use crate::format::write_tape;
use crate::proto::{read_frame, write_frame, Request, Response};
#[cfg(target_os = "linux")]
use crate::reactor::ReactorPool;
use crate::server::MonitorServer;
use monsem_monitor::tape::TapeEvent;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default [`BatchWriter`] flush threshold, in buffered events.
pub const DEFAULT_BATCH: usize = 256;

/// Default reactor thread count for [`serve_tcp`] and [`serve_unix`].
/// One thread multiplexes thousands of connections comfortably; raise
/// it with [`serve_tcp_with`]/[`serve_unix_with`] when frame decode
/// itself becomes the bottleneck.
pub const DEFAULT_IO_THREADS: usize = 1;

/// A nonblocking accepted socket, TCP or Unix-domain.
#[derive(Debug)]
pub(crate) enum Sock {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl Sock {
    pub(crate) fn fd(&self) -> RawFd {
        match self {
            Sock::Tcp(s) => s.as_raw_fd(),
            Sock::Unix(s) => s.as_raw_fd(),
        }
    }

    pub(crate) fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => s.set_nonblocking(true),
            Sock::Unix(s) => s.set_nonblocking(true),
        }
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => s.flush(),
            Sock::Unix(s) => s.flush(),
        }
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
    #[cfg(target_os = "linux")]
    reactor: Arc<ReactorPool>,
}

impl ServeHandle {
    /// The bound TCP address (e.g. with port 0 the OS-chosen port).
    /// `None` for Unix-socket listeners.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Stops accepting new connections, then joins the accept loop and
    /// the reactor threads, closing every connection they serve.
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
        self.reactor.stop();
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The accept-and-register path both listeners share: starts
/// `io_threads` reactor threads, then hands each accepted socket to
/// them.
///
/// The listener stays in blocking mode: `accept` parks the thread until
/// a connection (or the `stop()` wakeup self-connect) arrives, so an
/// idle server costs zero wakeups. The stop flag is re-checked after
/// every accept, which is what makes the wakeup connection sufficient.
#[cfg(target_os = "linux")]
fn serve<L: Send + 'static>(
    server: &Arc<MonitorServer>,
    io_threads: usize,
    listener: L,
    accept: fn(&L) -> io::Result<Sock>,
    addr: Option<SocketAddr>,
    wake: WakeTarget,
) -> io::Result<ServeHandle> {
    let reactor = Arc::new(ReactorPool::start(server, io_threads)?);
    let stop = Arc::new(AtomicBool::new(false));
    let (pool, stopped) = (Arc::clone(&reactor), Arc::clone(&stop));
    let accept_thread = std::thread::Builder::new()
        .name("monsem-accept".to_string())
        .spawn(move || {
            while !stopped.load(Ordering::SeqCst) {
                match accept(&listener) {
                    // The wakeup connection itself.
                    Ok(_) if stopped.load(Ordering::SeqCst) => return,
                    Ok(sock) => pool.register(sock),
                    // Transient per-connection failures (e.g. the peer
                    // aborting mid-handshake) must not kill the listener.
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                        ) => {}
                    Err(_) => return,
                }
            }
        })?;
    Ok(ServeHandle {
        addr,
        wake,
        stop,
        accept_thread: Some(accept_thread),
        reactor,
    })
}

#[cfg(not(target_os = "linux"))]
fn serve<L>(
    _: &Arc<MonitorServer>,
    _: usize,
    _: L,
    _: fn(&L) -> io::Result<Sock>,
    _: Option<SocketAddr>,
    _: WakeTarget,
) -> io::Result<ServeHandle> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "the monitor server's epoll reactor needs Linux",
    ))
}

/// Serves the monitor protocol on a TCP listener bound to `addr`
/// (use port `0` to let the OS pick; read it back from
/// [`ServeHandle::addr`]), on [`DEFAULT_IO_THREADS`] reactor threads.
///
/// # Errors
///
/// Propagates bind and reactor setup failures; `Unsupported` off Linux.
pub fn serve_tcp(server: Arc<MonitorServer>, addr: impl ToSocketAddrs) -> io::Result<ServeHandle> {
    serve_tcp_with(server, addr, DEFAULT_IO_THREADS)
}

/// [`serve_tcp`] on `io_threads` reactor threads (at least one).
///
/// # Errors
///
/// Propagates bind and reactor (epoll/eventfd) setup failures;
/// `Unsupported` off Linux.
pub fn serve_tcp_with(
    server: Arc<MonitorServer>,
    addr: impl ToSocketAddrs,
    io_threads: usize,
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
    serve(
        &server,
        io_threads,
        listener,
        |l| l.accept().map(|(s, _)| Sock::Tcp(no_delay(s))),
        Some(bound),
        WakeTarget::Tcp(wake_addr),
    )
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
/// (removed first if it already exists), on [`DEFAULT_IO_THREADS`]
/// reactor threads.
///
/// # Errors
///
/// Propagates bind and reactor setup failures; `Unsupported` off Linux.
pub fn serve_unix(server: Arc<MonitorServer>, path: impl AsRef<Path>) -> io::Result<ServeHandle> {
    serve_unix_with(server, path, DEFAULT_IO_THREADS)
}

/// [`serve_unix`] on `io_threads` reactor threads (at least one).
///
/// # Errors
///
/// Propagates bind and reactor (epoll/eventfd) setup failures;
/// `Unsupported` off Linux.
pub fn serve_unix_with(
    server: Arc<MonitorServer>,
    path: impl AsRef<Path>,
    io_threads: usize,
) -> io::Result<ServeHandle> {
    let path = path.as_ref();
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    serve(
        &server,
        io_threads,
        listener,
        |l| l.accept().map(|(s, _)| Sock::Unix(s)),
        None,
        WakeTarget::Unix(path.to_path_buf()),
    )
}

/// A blocking protocol client over any byte stream.
///
/// Control requests ([`Client::open`], [`Client::swap`],
/// [`Client::close`], …) are strictly request/reply. Events are
/// *streamed*, as tape images: [`Client::send_batch`] writes an
/// [`Request::EventBatch`] frame and returns without reading, and the
/// cumulative [`Response::Ack`] frames the server interleaves are
/// absorbed (and recorded — see [`Client::last_ack`]) by the next
/// synchronous request. [`Client::batch_writer`] layers size/interval
/// buffering on top.
///
/// Connection faults are **sticky**: once any operation hits an I/O
/// error (including an unexpected EOF mid-reply), every subsequent
/// call — the next [`Client::send_batch`] as much as the final
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
}
