//! PR 7 (S6): end-to-end smoke for the monitor server — many concurrent
//! producer sessions over the sharded in-process API and over real
//! socket framing, with one mid-run hot swap; every server verdict is
//! checked against the local offline checker on the same tape.

use std::sync::Arc;

use monitoring_semantics::monitor::{record_monitored, MemorySink, SharedSink, TapeEvent};
use monitoring_semantics::monitors::Profiler;
use monitoring_semantics::syntax::parse_expr;
use monitoring_semantics::tape::{
    serve_tcp, serve_unix, Client, MonitorServer, Response, ServerConfig, Verdict,
};
use monitoring_semantics::tspec::{SpecMonitor, TapeOutcome};

const NEG_SPEC: &str = "never(post(_) and value < 0)";
const ZERO_SPEC: &str = "never(post(_) and value = 0)";

/// Producer `i` violates `NEG_SPEC` when `i % 3 == 0`; every producer's
/// tape contains a zero, so the swapped-in `ZERO_SPEC` always convicts.
fn producer_program(i: u64) -> String {
    if i.is_multiple_of(3) {
        "{a}:(0 - 1) + ({b}:0 + {c}:2)".to_string()
    } else {
        "{a}:1 + ({b}:0 + {c}:2)".to_string()
    }
}

/// Records producer `i`'s event tape (with the trailing `done`).
fn producer_tape(i: u64) -> Vec<TapeEvent> {
    let mem = MemorySink::new();
    let sink = SharedSink::new(mem.clone());
    record_monitored(
        &parse_expr(&producer_program(i)).unwrap(),
        Profiler::new(),
        &sink,
    )
    .expect("producer programs are total");
    mem.take()
}

fn verdict(resp: Response) -> Verdict {
    match resp {
        Response::Verdict(v) => v,
        other => panic!("expected a verdict, got {other:?}"),
    }
}

/// The local ground truth: the offline checker over the same tape under
/// the session's *final* spec.
fn expected_accepted(tape: &[TapeEvent], spec: &str) -> (bool, Option<u64>) {
    let m = SpecMonitor::new("oracle", spec).unwrap();
    let check = m.check_tape(tape);
    match check.outcome {
        TapeOutcome::Satisfied => (true, check.earliest_violation),
        TapeOutcome::Violated(_) => (false, check.earliest_violation),
        TapeOutcome::Pending => panic!("producer tapes always carry done"),
    }
}

/// The ISSUE acceptance shape: ≥ 8 concurrent producers against one
/// server, one of them hot-swapping its spec mid-run, every close
/// verdict equal to the local offline check. A queue depth of 1 keeps
/// the bounded channels permanently full, so the run also exercises
/// backpressure (blocking sends) rather than sneaking through idle
/// queues.
#[test]
fn concurrent_producers_reach_the_offline_verdicts() {
    const PRODUCERS: u64 = 12;
    const SWAPPER: u64 = 4; // clean under NEG_SPEC, convicted by ZERO_SPEC

    let server = Arc::new(MonitorServer::start(ServerConfig {
        queue_depth: 1,
        ..ServerConfig::default()
    }));

    let handles: Vec<_> = (0..PRODUCERS)
        .map(|i| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let tape = producer_tape(i);
                assert_eq!(server.open(i, NEG_SPEC, false), Response::Ok);
                // Stream in single-event chunks to keep the shard
                // queues churning under the depth-1 bound.
                let (head, tail) = tape.split_at(tape.len() / 2);
                for ev in head {
                    verdict(server.events(i, std::slice::from_ref(ev)));
                }
                if i == SWAPPER {
                    let v = verdict(server.swap(i, ZERO_SPEC));
                    assert!(!v.swap_truncated, "the window covers the whole prefix");
                }
                for ev in tail {
                    verdict(server.events(i, std::slice::from_ref(ev)));
                }
                let v = verdict(server.close(i));
                let spec = if i == SWAPPER { ZERO_SPEC } else { NEG_SPEC };
                (i, tape, spec, v)
            })
        })
        .collect();

    for h in handles {
        let (i, tape, spec, v) = h.join().expect("producer thread");
        let (accepted, earliest) = expected_accepted(&tape, spec);
        assert_eq!(v.session, i);
        assert_eq!(v.ingested, tape.len() as u64, "producer {i} ingest count");
        assert_eq!(v.accepted, Some(accepted), "producer {i} verdict");
        assert_eq!(
            v.earliest_violation, earliest,
            "producer {i} earliest offset"
        );
        assert_eq!(v.violation.is_some(), !accepted, "producer {i} violation");
    }
    server.shutdown();
}

/// The same lifecycle through real TCP framing: open, stream, swap,
/// close — with two clients interleaved on one listener.
#[test]
fn tcp_round_trip_with_a_hot_swap() {
    let server = Arc::new(MonitorServer::start(ServerConfig::default()));
    let handle = serve_tcp(Arc::clone(&server), "127.0.0.1:0").expect("bind");
    let addr = handle.addr().expect("tcp listeners report their address");

    let mut alice = Client::connect_tcp(addr).expect("connect");
    let mut bob = Client::connect_tcp(addr).expect("connect");

    let tape = producer_tape(1); // clean under NEG_SPEC, zero inside
    assert_eq!(alice.open(101, NEG_SPEC, false).unwrap(), Response::Ok);
    assert_eq!(bob.open(102, NEG_SPEC, false).unwrap(), Response::Ok);

    // Event frames are fire-and-forget under the pipelined protocol;
    // the next synchronous request (swap or close) is the barrier that
    // proves they were folded.
    let (head, tail) = tape.split_at(tape.len() / 2);
    alice.send_batch(101, head).unwrap();
    bob.send_batch(102, &tape).unwrap();

    // Alice swaps mid-run: history is re-judged under the new spec.
    // The swap verdict doubles as the barrier for the head frames.
    let v = verdict(alice.swap(101, ZERO_SPEC).unwrap());
    assert!(!v.swap_truncated);
    assert_eq!(v.ingested, head.len() as u64, "swap barriers the head");
    alice.send_batch(101, tail).unwrap();

    let v = verdict(alice.close(101).unwrap());
    let (accepted, earliest) = expected_accepted(&tape, ZERO_SPEC);
    assert_eq!(v.accepted, Some(accepted));
    assert_eq!(v.earliest_violation, earliest);

    let v = verdict(bob.close(102).unwrap());
    let (accepted, _) = expected_accepted(&tape, NEG_SPEC);
    assert_eq!(v.accepted, Some(accepted));

    handle.stop();
    server.shutdown();
}

/// Unix-domain framing: one full session over a socket file.
#[test]
fn unix_socket_round_trip() {
    let path = std::env::temp_dir().join(format!("monsem-smoke-{}.sock", std::process::id()));
    let server = Arc::new(MonitorServer::start(ServerConfig::default()));
    let handle = serve_unix(Arc::clone(&server), &path).expect("bind unix socket");

    let mut client = Client::connect_unix(&path).expect("connect");
    let tape = producer_tape(3); // violates NEG_SPEC
    assert_eq!(client.open(7, NEG_SPEC, false).unwrap(), Response::Ok);
    client.send_batch(7, &tape).unwrap();
    let v = verdict(client.close(7).unwrap());
    assert_eq!(v.ingested, tape.len() as u64);
    let (accepted, earliest) = expected_accepted(&tape, NEG_SPEC);
    assert_eq!(v.accepted, Some(accepted));
    assert_eq!(v.earliest_violation, earliest);

    handle.stop();
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
