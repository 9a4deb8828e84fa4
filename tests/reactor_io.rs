//! The server's epoll reactor over real sockets, with every close
//! verdict checked against the offline oracle.
//!
//! * **Byte dribbles** — frames split at arbitrary byte boundaries must
//!   decode identically whether they arrive whole or one byte at a
//!   time, both through [`FrameDecoder`] directly (proptest over random
//!   frame contents and chunk sizes) and over a real socket.
//! * **Fd hygiene** — N connect/disconnect cycles leave the
//!   `/proc/self/fd` count where it started: no leaked sockets, dup'd
//!   reader handles, epoll instances, or eventfds.
//! * **Sticky client faults** — a broken connection errors the *next*
//!   `send_batch()`/control call, and every call after that fails
//!   immediately with the original error kind.
//! * **Retired frames** — a frame with the retired per-event tag 0x02
//!   gets a typed error, and the connection carries on serving.
//! * **Parking backpressure** — depth-1 shard queues under concurrent
//!   producers force the reactor to park read interest; verdicts must
//!   still match the oracle exactly (no dropped or reordered frames).
//! * **Unread acks** — a producer that reads nothing until it closes
//!   never stalls the reactor: acks wait, one per session, until the
//!   socket takes them.

#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use monitoring_semantics::core::Value;
use monitoring_semantics::monitor::TapeEvent;
use monitoring_semantics::syntax::Annotation;
use monitoring_semantics::tape::{
    read_frame, serve_tcp_with, serve_unix, write_frame, write_tape, Client, FrameDecoder,
    MonitorServer, Request, Response, ServeHandle, ServerConfig, Verdict,
};
use monitoring_semantics::tspec::{SpecMonitor, TapeOutcome};
use proptest::prelude::*;

const SPEC: &str = "never(post(_) and value < 0)";

/// Serves `server` over TCP on two reactor threads: the default is one,
/// and dispatch across several must stay covered.
fn serve(server: &Arc<MonitorServer>) -> ServeHandle {
    serve_tcp_with(Arc::clone(server), "127.0.0.1:0", 2).expect("bind")
}

fn post(v: i64, step: u64) -> TapeEvent {
    TapeEvent::post(&Annotation::label("p"), &Value::Int(v), step)
}

/// `n` posts with violations at `violate_at`, closed by a `done` marker.
fn tape(n: u64, violate_at: &[u64]) -> Vec<TapeEvent> {
    let mut evs: Vec<TapeEvent> = (0..n)
        .map(|s| post(if violate_at.contains(&s) { -1 } else { 1 }, s))
        .collect();
    evs.push(TapeEvent::done(n));
    evs
}

/// The offline ground truth for a tape that carries its `done`.
fn oracle(tape: &[TapeEvent]) -> (bool, Option<u64>) {
    let m = SpecMonitor::new("oracle", SPEC).unwrap();
    let check = m.check_tape(tape);
    match check.outcome {
        TapeOutcome::Satisfied => (true, check.earliest_violation),
        TapeOutcome::Violated(_) => (false, check.earliest_violation),
        TapeOutcome::Pending => panic!("test tapes always carry done"),
    }
}

fn verdict(resp: Response) -> Verdict {
    match resp {
        Response::Verdict(v) => v,
        other => panic!("expected a verdict, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental decoder recovers the exact frame sequence no
    /// matter how the byte stream is chopped up, and ends with no
    /// phantom partial frame.
    #[test]
    fn frame_decoder_survives_any_byte_dribble(
        frames in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..200),
            1..6,
        ),
        chunk_sizes in proptest::collection::vec(1usize..7, 1..64),
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut at = 0;
        let mut turn = 0;
        while at < wire.len() {
            let n = chunk_sizes[turn % chunk_sizes.len()].min(wire.len() - at);
            turn += 1;
            dec.extend(&wire[at..at + n]);
            at += n;
            while let Some(frame) = dec.next_frame().unwrap() {
                got.push(frame);
            }
        }
        prop_assert_eq!(&got, &frames);
        prop_assert!(!dec.has_partial());
    }
}

/// Writes one length-prefixed frame in 3-byte chunks, flushing each and
/// sleeping occasionally so some chunks genuinely arrive as separate
/// reads on the server side.
fn dribble_frame(sock: &mut TcpStream, payload: &[u8]) {
    let mut frame = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut frame, payload).unwrap();
    for (i, chunk) in frame.chunks(3).enumerate() {
        sock.write_all(chunk).unwrap();
        sock.flush().unwrap();
        if i % 16 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn next_response(sock: &mut TcpStream) -> Response {
    let frame = read_frame(sock).unwrap().expect("server closed early");
    Response::decode(&frame).unwrap()
}

/// Byte-dribbled frames over a real socket reach the same close verdict
/// as the offline oracle.
#[test]
fn socket_dribbles_reach_oracle_verdicts() {
    let server = Arc::new(MonitorServer::start(ServerConfig::default()));
    let handle = serve(&server);
    let addr = handle.addr().expect("tcp listener has an address");

    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_nodelay(true).ok();

    let events = tape(25, &[17]);
    let (want_accept, want_earliest) = oracle(&events);

    dribble_frame(
        &mut sock,
        &Request::Open {
            session: 5,
            enforcing: false,
            spec: SPEC.to_string(),
            stream: None,
        }
        .encode(),
    );
    match next_response(&mut sock) {
        Response::Ok => {}
        other => panic!("open failed: {other:?}"),
    }

    // Events flow through the fire-and-forget path, one dribbled frame
    // per small chunk, so a frame routinely straddles reads.
    for chunk in events.chunks(4) {
        dribble_frame(
            &mut sock,
            &Request::EventBatch {
                session: 5,
                tape: write_tape(chunk),
            }
            .encode(),
        );
    }
    dribble_frame(&mut sock, &Request::Close { session: 5 }.encode());

    let v = loop {
        match next_response(&mut sock) {
            Response::Ack { .. } => continue,
            Response::Verdict(v) => break v,
            other => panic!("unexpected response {other:?}"),
        }
    };
    assert_eq!(v.ingested, events.len() as u64, "ingested");
    assert_eq!(v.accepted, Some(want_accept), "accepted");
    assert_eq!(v.earliest_violation, want_earliest, "earliest");

    drop(sock);
    handle.stop();
    server.shutdown();
}

/// A frame with the retired per-event tag gets a typed error naming the
/// tag, and the same connection then runs a session to the oracle's
/// verdict.
#[test]
fn a_retired_tag_gets_a_typed_error_and_the_connection_serves_on() {
    let server = Arc::new(MonitorServer::start(ServerConfig::default()));
    let handle = serve(&server);
    let mut sock = TcpStream::connect(handle.addr().unwrap()).unwrap();
    sock.set_nodelay(true).ok();

    // Tag 0x02, session 1, one `done` event: a per-event frame as old
    // peers encoded it.
    write_frame(&mut sock, &[0x02, 1, 1, 0x03, 0, 0]).unwrap();
    match next_response(&mut sock) {
        Response::Err(e) => assert!(e.contains("unknown message tag 0x02"), "{e}"),
        other => panic!("expected an error, got {other:?}"),
    }

    let mut client = Client::new(sock);
    let events = tape(20, &[11]);
    let (want_accept, want_earliest) = oracle(&events);
    assert_eq!(client.open(1, SPEC, false).unwrap(), Response::Ok);
    client.send_batch(1, &events).unwrap();
    let v = verdict(client.close(1).unwrap());
    assert_eq!(v.ingested, events.len() as u64);
    assert_eq!(v.accepted, Some(want_accept));
    assert_eq!(v.earliest_violation, want_earliest);

    handle.stop();
    server.shutdown();
}

fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Waits for the fd count to settle at or below `target` (connection
/// teardown is asynchronous: the reactor has to notice EOF before it
/// closes the socket).
fn settle_fds(target: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = fd_count();
        if now <= target || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// N connect/run/disconnect cycles leave `/proc/self/fd` exactly where
/// it started — and tearing the server down releases the listener,
/// epoll, and eventfd descriptors too.
#[test]
fn connect_disconnect_cycles_leak_no_fds() {
    let before_servers = fd_count();
    let server = Arc::new(MonitorServer::start(ServerConfig::default()));
    let handle = serve(&server);
    let addr = handle.addr().unwrap();

    // Baseline after the server is up: the listener and the reactors'
    // epoll/eventfd descriptors are part of the steady state.
    let baseline = fd_count();

    for i in 0..24u64 {
        let mut client = Client::connect_tcp(addr).unwrap();
        let events = tape(8, &[]);
        let (want_accept, _) = oracle(&events);
        match client.open(i, SPEC, false).unwrap() {
            Response::Ok => {}
            other => panic!("open failed: {other:?}"),
        }
        client.send_batch(i, &events).unwrap();
        let v = verdict(client.close(i).unwrap());
        assert_eq!(v.accepted, Some(want_accept), "cycle {i}");
        drop(client);
    }

    let settled = settle_fds(baseline);
    assert!(
        settled <= baseline,
        "leaked fds: {settled} open after cycles vs baseline {baseline}"
    );

    handle.stop();
    server.shutdown();
    let settled = settle_fds(before_servers);
    assert!(
        settled <= before_servers,
        "server teardown leaked fds: {settled} open vs {before_servers} before any server"
    );
}

/// A connection whose peer vanished errors the next `send_batch()` call
/// (once the broken pipe surfaces), and every call after that —
/// including `close()` — fails immediately with the original kind.
#[test]
fn broken_connection_errors_next_call_and_stays_failed() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sock = TcpStream::connect(addr).unwrap();
    let (server_side, _) = listener.accept().unwrap();
    drop(server_side); // peer hangs up before a single reply
    drop(listener);

    let mut client = Client::new(sock);
    let mut first = None;
    // Writes land in socket buffers until the RST comes back; keep
    // streaming until the failure surfaces (bounded so a regression
    // hangs the loop rather than spinning forever).
    for step in 0..200_000u64 {
        if let Err(e) = client.send_batch(1, &[post(1, step)]) {
            first = Some(e);
            break;
        }
    }
    let first = first.expect("a dead peer eventually fails send_batch()");

    let next = client.close(1).unwrap_err();
    assert_eq!(
        next.kind(),
        first.kind(),
        "sticky fault keeps the original kind"
    );
    assert!(
        next.to_string().contains("connection failed earlier"),
        "sticky fault names the earlier failure: {next}"
    );
    // Still failing: the fault does not clear.
    assert!(client.send_batch(1, &[post(1, 0)]).is_err());
}

/// Stopping a reactor-backed server closes its multiplexed connections,
/// which a streaming client observes as a prompt `send_batch()` error —
/// not a silent hang until `close()`.
#[test]
fn reactor_stop_surfaces_as_client_io_error() {
    let server = Arc::new(MonitorServer::start(ServerConfig::default()));
    let handle = serve_tcp_with(Arc::clone(&server), "127.0.0.1:0", 1).expect("bind");
    let addr = handle.addr().unwrap();

    let mut client = Client::connect_tcp(addr).unwrap();
    match client.open(9, SPEC, false).unwrap() {
        Response::Ok => {}
        other => panic!("open failed: {other:?}"),
    }
    handle.stop(); // reactor teardown closes the connection

    let mut first = None;
    for step in 0..200_000u64 {
        if let Err(e) = client.send_batch(9, &[post(1, step)]) {
            first = Some(e);
            break;
        }
    }
    let first = first.expect("a stopped reactor eventually fails send_batch()");
    let next = client.close(9).unwrap_err();
    assert_eq!(next.kind(), first.kind());
    server.shutdown();
}

/// Depth-1 shard queues under eight concurrent dribbling producers on
/// one reactor thread: read interest parks and resumes constantly, yet
/// every verdict matches the offline oracle — nothing dropped, nothing
/// reordered.
#[test]
fn reactor_parks_full_queues_without_losing_frames() {
    let server = Arc::new(MonitorServer::start(ServerConfig {
        queue_depth: 1,
        shards: 2,
        ack_every: 4,
        ..ServerConfig::default()
    }));
    let handle = serve_tcp_with(Arc::clone(&server), "127.0.0.1:0", 1).expect("bind");
    let addr = handle.addr().unwrap();

    let producers: Vec<_> = (0..8u64)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(addr).unwrap();
                let events = tape(200, &[(i * 37) % 200]);
                let (want_accept, want_earliest) = oracle(&events);
                match client.open(i, SPEC, false).unwrap() {
                    Response::Ok => {}
                    other => panic!("producer {i}: open failed: {other:?}"),
                }
                // Small chunks keep the depth-1 queues permanently
                // full, so parking is exercised rather than skirted.
                for chunk in events.chunks(5) {
                    client.send_batch(i, chunk).unwrap();
                }
                let v = verdict(client.close(i).unwrap());
                assert_eq!(v.ingested, events.len() as u64, "producer {i}: ingested");
                assert_eq!(v.accepted, Some(want_accept), "producer {i}: accepted");
                assert_eq!(
                    v.earliest_violation, want_earliest,
                    "producer {i}: earliest"
                );
            })
        })
        .collect();
    for p in producers {
        p.join().expect("producer thread panicked");
    }

    handle.stop();
    server.shutdown();
}

/// Request round trips over TCP answer in well under the peer's
/// delayed-ACK timer (40 ms on Linux), also a close right after
/// fire-and-forget batches. A frame written as a separate
/// length prefix and payload left the payload queued behind Nagle's
/// algorithm until that timer fired, so every request took 40–90 ms;
/// with whole-frame writes but Nagle on, a close still waited behind
/// the unacknowledged batches.
#[test]
fn tcp_round_trips_do_not_wait_for_delayed_acks() {
    let server = Arc::new(MonitorServer::start(ServerConfig::default()));
    let handle = serve(&server);
    let mut client = Client::connect_tcp(handle.addr().unwrap()).unwrap();
    let events = tape(64, &[]);
    let mut times = Vec::new();
    for i in 0..20u64 {
        let t = Instant::now();
        match client.open(i, SPEC, false).unwrap() {
            Response::Ok => {}
            other => panic!("open failed: {other:?}"),
        }
        times.push(t.elapsed());
        for chunk in events.chunks(16) {
            client.send_batch(i, chunk).unwrap();
        }
        let t = Instant::now();
        verdict(client.close(i).unwrap());
        times.push(t.elapsed());
    }
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median request round trip {median:?}"
    );
    handle.stop();
    server.shutdown();
}

/// A producer that reads nothing until it closes: 1 000 sessions on one
/// connection, an ack after every event, and 100 rounds of one-event
/// batches to every session. The reactor keeps one pending ack per
/// session while the socket refuses writes, so the unread acks stay
/// O(sessions) bytes and it keeps reading the batches. A frame per ack
/// would reach the write buffer's soft cap after some tens of thousands
/// of batches; the reactor would stop reading, and producer and reactor
/// would each wait for the other. The producer runs on its own thread,
/// so such a stall fails at the bound instead of hanging. Every close
/// still answers, after the acks written ahead of it.
#[test]
fn unread_acks_wait_for_writability_and_the_close_still_answers() {
    const SESSIONS: u64 = 1000;
    const ROUNDS: u64 = 100;
    let server = Arc::new(MonitorServer::start(ServerConfig {
        ack_every: 1,
        ..ServerConfig::default()
    }));
    let path = std::env::temp_dir().join(format!("monsem-unread-acks-{}.sock", std::process::id()));
    let handle = serve_unix(Arc::clone(&server), &path).expect("bind unix socket");
    let mut client = Client::connect_unix(&path).unwrap();
    let sent = Arc::new(AtomicU64::new(0));
    let (done_tx, done) = mpsc::channel();
    let producer = std::thread::spawn({
        let sent = Arc::clone(&sent);
        move || {
            let tapes: Vec<Vec<TapeEvent>> = (0..SESSIONS)
                .map(|i| {
                    let violate: &[u64] = if i % 2 == 1 { &[i % (ROUNDS - 1)] } else { &[] };
                    tape(ROUNDS - 1, violate)
                })
                .collect();
            for i in 0..SESSIONS {
                match client.open(i, SPEC, false).unwrap() {
                    Response::Ok => {}
                    other => panic!("open {i} failed: {other:?}"),
                }
            }
            for round in 0..ROUNDS as usize {
                for (i, t) in (0..SESSIONS).zip(&tapes) {
                    client.send_batch(i, &t[round..=round]).unwrap();
                    sent.fetch_add(1, Ordering::Relaxed);
                }
            }
            for (i, t) in (0..SESSIONS).zip(&tapes) {
                let v = verdict(client.close(i).unwrap());
                let (want_accept, want_earliest) = oracle(t);
                assert_eq!(v.ingested, t.len() as u64, "session {i}: ingested");
                assert_eq!(v.accepted, Some(want_accept), "session {i}: accepted");
                assert_eq!(v.earliest_violation, want_earliest, "session {i}: earliest");
                let last_step = t[t.len() - 1].step;
                let acked = client.last_ack(i).expect("acks reach the client");
                assert!(
                    acked <= last_step,
                    "session {i}: ack {acked} past step {last_step}"
                );
            }
            let _ = done_tx.send(());
        }
    });
    match done.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => producer.join().unwrap(),
        // The producer panicked: surface its message.
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = producer.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => panic!(
            "the producer stalled after {} of {} batches",
            sent.load(Ordering::Relaxed),
            SESSIONS * ROUNDS
        ),
    }
    handle.stop();
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
