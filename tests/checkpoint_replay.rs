//! PR 9: batched/pipelined ingest and checkpointed tapes never change
//! a verdict — they only change how fast it arrives.
//!
//! Three differential properties on randomly generated annotated
//! programs:
//!
//! 1. **Batched ≡ per-event ≡ offline** — feeding a session one
//!    synchronous one-event batch per event, feeding another the same
//!    tape as fire-and-forget [`Request::EventBatch`] frames, and
//!    folding `check_tape` offline all reach the same ingested count,
//!    earliest-violation offset, and verdict class; cumulative acks
//!    are monotone and never pass the fold.
//! 2. **Checkpoint-seeded ≡ full replay** — for every checkpoint
//!    interval and `--from` offset, `check_tape_from` /
//!    `check_stream_from` over a v3 tape equals the full-replay check,
//!    for the temporal spec and the stream evaluator alike.
//! 3. **Version negotiation round-trips** — v1 (untimed), v2 (timed),
//!    and v3 (checkpointed) tapes all decode to the identical event
//!    stream; the plain reader skips checkpoint records, the
//!    checkpoint-aware reader recovers them, and a v3 image rides
//!    inside an `EventBatch` frame unchanged.

use std::sync::mpsc::sync_channel;

use monitoring_semantics::core::machine::EvalOptions;
use monitoring_semantics::core::{Env, Value};
use monitoring_semantics::monitor::{
    record_monitored_with, MemorySink, SharedSink, TapeEvent, TapePhase,
};
use monitoring_semantics::stream::StreamMonitor;
use monitoring_semantics::syntax::gen::{gen_program, sprinkle_annotations, GenConfig};
use monitoring_semantics::syntax::{Annotation, Expr, Namespace};
use monitoring_semantics::tape::{
    check_stream_from, check_tape_from, read_tape, read_tape_checkpointed, write_tape,
    write_tape_checkpointed, MonitorServer, Request, Response, ServerConfig, Verdict, MAGIC,
    VERSION, VERSION_CHECKPOINT, VERSION_TIMED,
};
use monitoring_semantics::tspec::SpecMonitor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FUEL: u64 = 200_000;
const SPEC: &str = "never(post(_) and value < 0)";
const STREAM: &str = "stream neg = count(value < 0) over window(7)\ntrigger hot = neg >= 3";

/// Records a random annotated program's tape, then splices in
/// `inject` synthetic negative `post` events (the generator almost
/// never produces one itself, and the violating path is the one these
/// properties most need to exercise). Steps are renumbered so the
/// result is a well-formed tape; the `done` marker, if any, stays
/// last.
fn tape_for(seed: u64, density: u16, inject: &[usize]) -> Vec<TapeEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = GenConfig {
        par_chance: 0.35,
        ..GenConfig::default()
    };
    let plain = gen_program(&mut rng, &config);
    let program: Expr = sprinkle_annotations(
        &mut rng,
        &plain,
        &Namespace::new("ns"),
        f64::from(density) / 1000.0,
    );
    let mem = MemorySink::new();
    let sink = SharedSink::new(mem.clone());
    let _ = record_monitored_with(
        &program,
        &Env::empty(),
        SpecMonitor::new("rec", SPEC).unwrap(),
        &sink,
        &EvalOptions::with_fuel(FUEL),
    );
    let mut events = mem.take();
    let bad = Annotation::label("bad");
    let body = events
        .iter()
        .filter(|e| !matches!(e.phase, TapePhase::Done))
        .count();
    for (i, at) in inject.iter().enumerate() {
        let value = Value::Int(-((i as i64) + 1));
        events.insert(at % (body + 1), TapeEvent::post(&bad, &value, 0));
    }
    for (i, ev) in events.iter_mut().enumerate() {
        ev.step = i as u64;
    }
    events
}

fn verdict(resp: Response) -> Verdict {
    match resp {
        Response::Verdict(v) => v,
        other => panic!("expected a verdict, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: the wire shape of ingest — one batch per event,
    /// or pipelined tape-image batches — is invisible in the verdict.
    #[test]
    fn batched_pipelined_and_offline_checks_agree(
        seed: u64,
        density in 100u16..=1000,
        batch in 1usize..=16,
        inject in proptest::collection::vec(0usize..512, 0..3),
    ) {
        let events = tape_for(seed, density, &inject);
        let offline = SpecMonitor::new("off", SPEC)
            .unwrap()
            .check_tape(events.iter());

        let server = MonitorServer::start(ServerConfig {
            ack_every: batch,
            ..ServerConfig::default()
        });
        server.open(1, SPEC, false);
        server.open(2, SPEC, false);
        // Session 1: one synchronous one-event batch per event.
        for ev in &events {
            server.events(1, std::slice::from_ref(ev));
        }
        let per_event = verdict(server.close(1));
        // Session 2: fire-and-forget batches, acked cumulatively.
        let (out, acks) = sync_channel(events.len() + 8);
        for chunk in events.chunks(batch) {
            let posted = server.post(
                Request::EventBatch { session: 2, tape: write_tape(chunk) },
                out.clone(),
            );
            prop_assert!(posted, "a live server accepts posts");
        }
        let batched = verdict(server.close(2));
        server.shutdown();
        drop(out);

        prop_assert_eq!(per_event.ingested, events.len() as u64);
        prop_assert_eq!(batched.ingested, events.len() as u64);
        prop_assert_eq!(per_event.earliest_violation, batched.earliest_violation);
        prop_assert_eq!(per_event.earliest_violation, offline.earliest_violation);
        prop_assert_eq!(per_event.violation.is_some(), batched.violation.is_some());
        prop_assert_eq!(
            batched.violation.is_some(),
            matches!(offline.outcome, monitoring_semantics::tspec::TapeOutcome::Violated(_))
        );
        // Acks are cumulative: monotone step offsets, never past the fold.
        let mut last = None;
        for resp in acks.iter() {
            if let Response::Ack { session, through_step } = resp {
                prop_assert_eq!(session, 2);
                prop_assert!(last.is_none_or(|l| l <= through_step));
                prop_assert!(events.iter().any(|e| e.step == through_step));
                last = Some(through_step);
            }
        }
    }

    /// Property 2: seeking to a checkpoint and replaying the suffix is
    /// indistinguishable from replaying the whole tape — for the
    /// temporal spec and the stream evaluator.
    #[test]
    fn checkpoint_seeded_checks_match_full_replay(
        seed: u64,
        density in 100u16..=1000,
        every in 1usize..=32,
        from in 0u64..=300,
        inject in proptest::collection::vec(0usize..512, 0..3),
    ) {
        let events = tape_for(seed, density, &inject);
        let monitor = SpecMonitor::new("ck", SPEC).unwrap();
        let stream = StreamMonitor::new("ck-stream", STREAM).unwrap();
        let bytes = write_tape_checkpointed(&events, &monitor, Some(&stream), every);

        let full = monitor.check_tape(events.iter());
        let seeded = check_tape_from(&monitor, &bytes, from).unwrap();
        prop_assert_eq!(
            std::mem::discriminant(&seeded.check.outcome),
            std::mem::discriminant(&full.outcome)
        );
        prop_assert_eq!(seeded.check.earliest_violation, full.earliest_violation);
        prop_assert_eq!(seeded.check.state.state, full.state.state);
        prop_assert_eq!(seeded.check.state.events, full.state.events);
        prop_assert_eq!(seeded.resumed_at + seeded.replayed, events.len() as u64);

        let s_full = stream.check_tape(events.iter());
        let s_seeded = check_stream_from(&stream, &bytes, from).unwrap();
        prop_assert_eq!(&s_seeded.check.firings, &s_full.firings);
        prop_assert_eq!(s_seeded.check.fired_total, s_full.fired_total);
        prop_assert_eq!(s_seeded.check.missed, s_full.missed);
        prop_assert_eq!(s_seeded.check.state, s_full.state);
    }

    /// Property 3: every tape version decodes to the same events, and
    /// checkpoints are invisible to readers that don't ask for them.
    #[test]
    fn tape_versions_negotiate_and_roundtrip(
        seed: u64,
        density in 100u16..=1000,
        timed: bool,
        every in 1usize..=32,
        inject in proptest::collection::vec(0usize..512, 0..3),
    ) {
        let mut events = tape_for(seed, density, &inject);
        if timed {
            for ev in &mut events {
                ev.time = Some(ev.step * 3);
            }
        }
        // v1/v2: the writer picks the version from the events.
        let plain = write_tape(&events);
        prop_assert_eq!(&plain[..4], MAGIC);
        prop_assert_eq!(
            u16::from(plain[4]),
            if timed { VERSION_TIMED } else { VERSION }
        );
        prop_assert_eq!(&read_tape(&plain).unwrap(), &events);
        let (decoded, ckpts) = read_tape_checkpointed(&plain).unwrap();
        prop_assert_eq!(&decoded, &events);
        prop_assert!(ckpts.is_empty(), "v1/v2 tapes carry no checkpoints");

        // v3: checkpoints interleave but the event stream is untouched.
        let monitor = SpecMonitor::new("v3", SPEC).unwrap();
        let v3 = write_tape_checkpointed(&events, &monitor, None, every);
        prop_assert_eq!(u16::from(v3[4]), VERSION_CHECKPOINT);
        prop_assert_eq!(&read_tape(&v3).unwrap(), &events);
        let (decoded, ckpts) = read_tape_checkpointed(&v3).unwrap();
        prop_assert_eq!(&decoded, &events);
        for pair in ckpts.windows(2) {
            prop_assert!(pair[0].events < pair[1].events, "checkpoints are ordered");
        }
        for ck in &ckpts {
            prop_assert_eq!(ck.events % every as u64, 0);
            prop_assert!((ck.events as usize) < events.len().max(1));
        }

        // A v3 image rides inside an EventBatch frame byte-for-byte.
        let req = Request::EventBatch { session: 5, tape: v3.clone() };
        match Request::decode(&req.encode()).unwrap() {
            Request::EventBatch { session, tape } => {
                prop_assert_eq!(session, 5);
                prop_assert_eq!(&read_tape(&tape).unwrap(), &events);
                prop_assert_eq!(tape, v3);
            }
            other => prop_assert!(false, "decoded to {other:?}"),
        }
    }
}

/// The tapes this suite generates really exercise the interesting
/// cases: some runs violate, some don't, some carry a `done` marker.
#[test]
fn generated_tapes_are_not_degenerate() {
    let mut violated = 0;
    let mut done = 0;
    let mut nonempty = 0;
    for seed in 0..64u64 {
        // Every third tape gets a synthetic violation spliced in.
        let inject: &[usize] = if seed % 3 == 0 { &[11] } else { &[] };
        let events = tape_for(seed, 700, inject);
        if !events.is_empty() {
            nonempty += 1;
        }
        if events.iter().any(|e| matches!(e.phase, TapePhase::Done)) {
            done += 1;
        }
        let check = SpecMonitor::new("d", SPEC)
            .unwrap()
            .check_tape(events.iter());
        if check.earliest_violation.is_some() {
            violated += 1;
        }
    }
    assert!(nonempty >= 16, "only {nonempty}/64 tapes had events");
    assert!(violated >= 4, "only {violated}/64 tapes violated");
    assert!(done >= 4, "only {done}/64 runs completed");
}
