//! PR 7 (S4): the event tape is a faithful, serializable image of the
//! pre-abstraction monitoring stream.
//!
//! Three differential properties on randomly generated annotated
//! programs (including `par` tuples, whose shard events interleave on
//! the tape in the machine's schedule):
//!
//! 1. **Serialization is lossless** — `write_tape` → `read_tape` is the
//!    identity on the in-process [`MemorySink`] stream, including the
//!    `done` marker and string re-interning.
//! 2. **Offline check ≡ live run** — `SpecMonitor::check_tape` over a
//!    recorded tape reaches exactly the live monitored run's verdict,
//!    DFA state, event count, and violation, and its
//!    `earliest_violation` names the first violating event's step.
//! 3. **Hot-swap splice ≡ fresh run over the prefix** — `splice_state`
//!    for a *different* spec equals folding that spec's
//!    `advance_tape_event` over the same replayed prefix (the server's
//!    swap semantics, checked against first principles). Property 3b
//!    swaps a live server session's safety spec, stream spec or both,
//!    and holds its close verdict to fresh offline folds.
//!
//! Properties 4–5 pin the timed format (v2); property 6 checks that the
//! owned-event adapters, which intern each run's strings, reach exactly
//! the view fold's verdicts over the decoded tape. Property 7 holds
//! every writer to a reference encoder's bytes.

use monitoring_semantics::core::machine::EvalOptions;
use monitoring_semantics::core::{Env, EvalError};
use monitoring_semantics::monitor::{
    record_monitored_with, MemorySink, Monitor, Outcome, SharedSink, TapeEvent, TapePhase,
};
use monitoring_semantics::syntax::gen::{gen_program, sprinkle_annotations, GenConfig};
use monitoring_semantics::syntax::{Expr, Namespace};
use monitoring_semantics::tape::{
    read_tape, splice_state, write_tape, MonitorServer, Request, Response, ServerConfig,
};
use monitoring_semantics::tspec::{SpecMonitor, TapeOutcome};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FUEL: u64 = 400_000;

fn annotated_program(seed: u64, density: u16) -> Expr {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = GenConfig {
        par_chance: 0.35,
        ..GenConfig::default()
    };
    let plain = gen_program(&mut rng, &config);
    sprinkle_annotations(
        &mut rng,
        &plain,
        &Namespace::new("ns"),
        f64::from(density) / 1000.0,
    )
}

fn neg_spec() -> SpecMonitor {
    SpecMonitor::new("no-negatives", "never(post(_) and value < 0)")
        .unwrap()
        .in_namespace(Namespace::new("ns"))
}

/// A monitored run's outcome: the answer and final monitor state, or
/// the evaluation error that cut the run short.
type RunResult<M> = Result<(monitoring_semantics::core::Value, <M as Monitor>::State), EvalError>;

/// Records `program` under `monitor`, returning the tape and the run's
/// result. The tape carries `done` exactly when the run succeeded.
fn record<M: Monitor + Clone>(program: &Expr, monitor: M) -> (Vec<TapeEvent>, RunResult<M>) {
    let mem = MemorySink::new();
    let sink = SharedSink::new(mem.clone());
    let result = record_monitored_with(
        program,
        &Env::empty(),
        monitor,
        &sink,
        &EvalOptions::with_fuel(FUEL),
    );
    (mem.take(), result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: the binary format round-trips the exact event stream.
    #[test]
    fn tape_serialization_roundtrips(seed: u64, density in 100u16..=1000) {
        let program = annotated_program(seed, density);
        let (events, result) = record(&program, neg_spec());
        let bytes = write_tape(&events);
        let decoded = read_tape(&bytes).expect("a written tape must decode");
        prop_assert_eq!(&decoded, &events, "decode ∘ encode must be the identity");
        prop_assert_eq!(
            events.iter().any(|e| matches!(e.phase, TapePhase::Done)),
            result.is_ok(),
            "the done marker appears exactly on successful runs"
        );
    }

    /// Property 2: `check_tape` over the recorded tape is
    /// indistinguishable from having monitored the run live.
    #[test]
    fn offline_check_matches_the_live_run(seed: u64, density in 100u16..=1000) {
        let program = annotated_program(seed, density);
        let m = neg_spec();
        let (events, result) = record(&program, m.clone());
        // Round-trip through the wire format first: the offline checker
        // consumes deserialized tapes, not in-process ones.
        let events = read_tape(&write_tape(&events)).unwrap();
        let check = m.check_tape(&events);

        match result {
            Ok((_, live)) => {
                prop_assert_eq!(check.state.state, live.state, "DFA states agree");
                prop_assert_eq!(check.state.events, live.events, "event counts agree");
                prop_assert_eq!(
                    check.state.violation.clone(), live.violation.clone(),
                    "violations agree"
                );
                match check.outcome {
                    TapeOutcome::Satisfied => {
                        prop_assert!(m.finish(&live).is_ok(), "live finish must agree")
                    }
                    TapeOutcome::Violated(_) => {
                        prop_assert!(m.finish(&live).is_err(), "live finish must agree")
                    }
                    TapeOutcome::Pending => prop_assert!(
                        false,
                        "a tape with a done marker cannot be pending"
                    ),
                }
                // The earliest offset names the first event whose replay
                // flips the monitor into violation — recomputed here from
                // first principles.
                let mut s = m.initial_state();
                let mut expected = None;
                for ev in &events {
                    if matches!(ev.phase, TapePhase::Done) {
                        break;
                    }
                    let had = s.violation.is_some();
                    s = match m.advance_tape_event(s, ev) {
                        Outcome::Continue(s) => s,
                        Outcome::Abort { state, .. } => state,
                    };
                    if !had && s.violation.is_some() && expected.is_none() {
                        expected = Some(ev.step);
                    }
                }
                prop_assert_eq!(check.earliest_violation, expected);
            }
            Err(_) => {
                // Fuel exhaustion or a program error: no done marker, so
                // the checker must not claim satisfaction.
                prop_assert!(
                    !matches!(check.outcome, TapeOutcome::Satisfied),
                    "an unfinished tape cannot be satisfied"
                );
            }
        }
    }

    /// Property 2b: enforcement offline equals enforcement live — the
    /// enforcing checker aborts exactly where the enforcing machine did.
    #[test]
    fn enforcing_check_matches_the_enforcing_run(seed: u64, density in 100u16..=1000) {
        let program = annotated_program(seed, density);
        let enforcing = neg_spec().enforcing();
        let (events, result) = record(&program, enforcing.clone());
        let check = enforcing.check_tape(&events);
        match result {
            Err(EvalError::MonitorAbort { .. }) => {
                prop_assert!(
                    matches!(check.outcome, TapeOutcome::Violated(_)),
                    "the live abort must replay as a violation"
                );
                // The abort cut the recording at the violating event, so
                // the earliest offset is the tape's final step.
                prop_assert_eq!(
                    check.earliest_violation,
                    events.last().map(|e| e.step),
                    "the tape ends at the abort point"
                );
            }
            Ok(_) => prop_assert!(
                !matches!(check.outcome, TapeOutcome::Violated(_)),
                "a clean live run cannot replay as violated"
            ),
            Err(_) => {} // fuel/program error before any verdict
        }
    }

    /// Property 3: the server's hot-swap splice is exactly a fresh run
    /// of the *new* spec over the replayed prefix.
    #[test]
    fn hot_swap_splice_matches_a_fresh_run_over_the_prefix(
        seed: u64,
        density in 100u16..=1000,
        cut in 0usize..=64,
    ) {
        let program = annotated_program(seed, density);
        let (events, _) = record(&program, neg_spec());
        let prefix: Vec<&TapeEvent> = events
            .iter()
            .filter(|e| !matches!(e.phase, TapePhase::Done))
            .take(cut)
            .collect();

        // A different property than the one the tape was recorded
        // under: swap must re-judge history, not copy old state.
        let swapped = SpecMonitor::new("no-zeros", "never(post(_) and value = 0)")
            .unwrap()
            .in_namespace(Namespace::new("ns"));

        let (spliced, earliest) = splice_state(&swapped, prefix.iter().copied());

        let mut s = swapped.initial_state();
        let mut expected_earliest = None;
        for ev in &prefix {
            let had = s.violation.is_some();
            s = match swapped.advance_tape_event(s, ev) {
                Outcome::Continue(s) => s,
                Outcome::Abort { state, .. } => state,
            };
            if !had && s.violation.is_some() && expected_earliest.is_none() {
                expected_earliest = Some(ev.step);
            }
        }
        prop_assert_eq!(spliced, s, "splice must equal the fresh replay");
        prop_assert_eq!(earliest, expected_earliest);
    }

    /// Property 3b: a server session swapped to new specs — both at
    /// once, or either alone — closes with the verdict of fresh offline
    /// folds of the specs then in force over all its events: violation
    /// text, earliest violation and acceptance, stream firings and
    /// misses, each closed the way `Close` closes them.
    #[test]
    fn hot_swap_of_either_kind_reaches_the_oracle_verdict(
        seed: u64,
        len in 0usize..=160,
        at in 0usize..=160,
        timed: bool,
        kind in 0usize..3,
        old_safety in 0usize..3,
        old_stream in 0usize..3,
        new_safety in 0usize..3,
        new_stream in 0usize..3,
        cuts in proptest::collection::vec(1usize..40, 1..10),
    ) {
        use monitoring_semantics::stream::StreamMonitor;
        let events = pooled_events(seed, len, timed, false);
        let (head, tail) = events.split_at(at.min(events.len()));
        let (swap_safety, swap_stream) = (kind != 2, kind != 1);
        let safety = SWAP_SAFETY[if swap_safety { new_safety } else { old_safety }];
        let stream = SWAP_STREAM[if swap_stream { new_stream } else { old_stream }];

        let server = MonitorServer::start(ServerConfig { shards: 1, ..ServerConfig::default() });
        let opened =
            server.open_with_stream(1, SWAP_SAFETY[old_safety], SWAP_STREAM[old_stream], false);
        prop_assert_eq!(opened, Response::Ok);
        send_in_cuts(&server, 1, head, &cuts);
        let swapped = server.request(Request::Swap {
            session: 1,
            spec: swap_safety.then(|| safety.to_string()),
            stream: swap_stream.then(|| stream.to_string()),
        });
        prop_assert!(matches!(swapped, Response::Verdict(_)), "{:?}", swapped);
        send_in_cuts(&server, 1, tail, &cuts);
        let closed = server.close(1);
        server.shutdown();
        let Response::Verdict(v) = closed else {
            panic!("close: {closed:?}");
        };

        let m = SpecMonitor::new("session-1", safety).unwrap();
        let check = m.check_tape(&events);
        let (violation, accepted) = match m.finish(&check.state) {
            Ok(_) => (None, true),
            Err(reason) => (Some(reason), false),
        };
        prop_assert_eq!(v.violation, violation);
        prop_assert_eq!(v.earliest_violation, check.earliest_violation);
        prop_assert_eq!(v.accepted, Some(accepted));
        let s = StreamMonitor::new("session-1-stream", stream).unwrap();
        let finished = s.finish(&s.check_tape(&events).state, None);
        prop_assert_eq!((v.firings, v.missed), (finished.fired_total, finished.missed_total));
        prop_assert_eq!(v.ingested, events.len() as u64);
        prop_assert!(!v.swap_truncated, "the window holds every event");
    }
}

/// The safety specs property 3b's sessions open with and swap to.
const SWAP_SAFETY: [&str; 3] = [
    "never(post(_) and value < 0)",
    "always(post(_) => value >= 1)",
    "eventually(post(_) and value = 7)",
];

/// The stream specs property 3b's sessions open with and swap to.
const SWAP_STREAM: [&str; 3] = [
    "stream neg = count(post(_) and value < 0) over window(16)\ntrigger bad = neg >= 2",
    "stream pres = count(pre(_)) over window(8)\ntrigger busy = pres >= 3\n\
     deadline post(_) every 9 ms",
    "trigger seen = value < 0",
];

/// Sends `events` to `session` as synchronous batches whose lengths
/// cycle through `cuts`.
fn send_in_cuts(server: &MonitorServer, session: u64, mut events: &[TapeEvent], cuts: &[usize]) {
    for &n in cuts.iter().cycle() {
        if events.is_empty() {
            break;
        }
        let (batch, rest) = events.split_at(n.min(events.len()));
        server.events(session, batch);
        events = rest;
    }
}

/// Records `program` with a clocked sink whose (seeded, jittery) clock
/// can step backwards; the sink's monotone clamp must still produce a
/// nondecreasing tape.
fn record_timed(program: &Expr, seed: u64) -> Vec<TapeEvent> {
    use rand::Rng;
    use std::sync::{Arc, Mutex};
    let mem = MemorySink::new();
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(seed ^ 0x7131)));
    let clock = move || {
        let mut rng = rng.lock().unwrap();
        // A drifting clock with occasional backwards jitter.
        rng.gen_range(0..5000)
    };
    let sink = SharedSink::with_clock(mem.clone(), clock);
    let _ = record_monitored_with(
        program,
        &Env::empty(),
        neg_spec(),
        &sink,
        &EvalOptions::with_fuel(FUEL),
    );
    mem.take()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 4 (format v2): timed tapes round-trip exactly — the
    /// LEB128 delta coding loses nothing — and version selection is
    /// automatic: v2 iff the sink stamped timestamps.
    #[test]
    fn timed_tape_serialization_roundtrips(seed: u64, density in 100u16..=1000) {
        let program = annotated_program(seed, density);
        let timed = record_timed(&program, seed);
        if timed.is_empty() {
            return Ok(()); // the program had no annotations to record
        }
        prop_assert!(
            timed.iter().all(|e| e.time.is_some()),
            "a clocked sink stamps every event"
        );
        let bytes = write_tape(&timed);
        prop_assert_eq!(
            u16::from_le_bytes([bytes[4], bytes[5]]),
            monitoring_semantics::tape::format::VERSION_TIMED,
            "stamped events select format v2"
        );
        let decoded = read_tape(&bytes).expect("a written v2 tape must decode");
        prop_assert_eq!(&decoded, &timed, "decode ∘ encode is the identity on v2");

        // The same events stripped of timestamps select v1 and still
        // round-trip — readers accept both versions unchanged.
        let untimed: Vec<TapeEvent> = timed
            .iter()
            .map(|e| TapeEvent { time: None, ..e.clone() })
            .collect();
        let bytes = write_tape(&untimed);
        prop_assert_eq!(
            u16::from_le_bytes([bytes[4], bytes[5]]),
            monitoring_semantics::tape::format::VERSION,
            "unstamped events select format v1"
        );
        prop_assert_eq!(read_tape(&bytes).unwrap(), untimed);
    }

    /// Property 5 (format v2): tape timestamps are monotone even when
    /// the wall clock jitters backwards — the sink clamps, and the
    /// delta coding (which cannot express a negative step) never has to.
    #[test]
    fn timed_tapes_are_monotone_under_clock_jitter(seed: u64, density in 100u16..=1000) {
        let program = annotated_program(seed, density);
        let timed = record_timed(&program, seed);
        let decoded = read_tape(&write_tape(&timed)).unwrap();
        let times: Vec<u64> = decoded.iter().filter_map(|e| e.time).collect();
        prop_assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "timestamps must be nondecreasing: {:?}",
            times
        );
    }
}

/// Pinned concrete shape: the machine evaluates operands right-to-left,
/// so `{ns/a}:1 + {ns/b}:(0 - 2)` puts the b events first on the tape;
/// the offline checker convicts at the `post b = -2` step.
#[test]
fn earliest_violation_names_the_offending_step() {
    let program = monitoring_semantics::syntax::parse_expr("{ns/a}:1 + {ns/b}:(0 - 2)").unwrap();
    let m = neg_spec();
    let (events, result) = record(&program, m.clone());
    result.expect("observing runs never abort");
    let check = m.check_tape(&events);
    let step = check.earliest_violation.expect("the spec is violated");
    let offending = events.iter().find(|e| e.step == step).unwrap();
    assert_eq!(offending.name, "b");
    assert!(matches!(offending.phase, TapePhase::Post));
    assert!(matches!(check.outcome, TapeOutcome::Violated(_)));
}

/// Names the interning proptest draws from: enough that one run of
/// owned views (256 events) interns dozens of distinct names, growing
/// its string index several times from its initial slots.
const NAME_POOL: u64 = 160;

/// A random event list over namespaces `""` and `"ns"` and names
/// `n0..n159`: pre and post events with small (often negative) integer,
/// boolean and list values, optionally timestamped, optionally closed by
/// a `done` marker.
fn pooled_events(seed: u64, len: usize, timed: bool, done: bool) -> Vec<TapeEvent> {
    use monitoring_semantics::core::Value;
    use monitoring_semantics::syntax::Annotation;
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events: Vec<TapeEvent> = (0..len as u64)
        .map(|step| {
            let ns = if rng.gen_range(0..2) == 0 { "" } else { "ns" };
            let ann = Annotation::label(format!("n{}", rng.gen_range(0..NAME_POOL)))
                .in_namespace(Namespace::new(ns));
            let ev = match rng.gen_range(0..4) {
                0 => TapeEvent::pre(&ann, step),
                1 => TapeEvent::post(&ann, &Value::Bool(step % 2 == 0), step),
                2 => TapeEvent::post(
                    &ann,
                    &Value::list([2, rng.gen_range(0..4)].map(Value::Int)),
                    step,
                ),
                _ => TapeEvent::post(&ann, &Value::Int(rng.gen_range(-3..37)), step),
            };
            if timed {
                ev.at(step * 3)
            } else {
                ev
            }
        })
        .collect();
    if done {
        events.push(TapeEvent::done(len as u64));
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 6: interning owned events' strings changes no verdict.
    /// Owned `check_tape` (owned views, one string index per run of 256
    /// events) agrees with the view fold over the decoded tape image on
    /// the outcome and its reason text, the earliest violation and the
    /// final state; the stream check agrees on every firing, and the
    /// hot-swap splice on the whole spliced state.
    #[test]
    fn interned_owned_views_match_the_decoded_view_fold(
        seed: u64,
        len in 0usize..=900,
        anonymous: bool,
        spec in 0usize..4,
        enforcing: bool,
        timed: bool,
        done: bool,
    ) {
        use monitoring_semantics::monitor::tape::{fold_through, Check, Resolution};
        use monitoring_semantics::stream::StreamMonitor;
        use monitoring_semantics::tape::ViewDecoder;
        let events = pooled_events(seed, len, timed, done);
        let watched = Namespace::new(if anonymous { "" } else { "ns" });
        let src = [
            "never(post(_) and value < 0)",
            "always(post(n1) => value >= 0)",
            "eventually(post(n7))",
            "never(post(n2) and value = 5)",
        ][spec];
        let mut m = SpecMonitor::new("pooled", src).unwrap().in_namespace(watched.clone());
        if enforcing {
            m = m.enforcing();
        }
        let stream = StreamMonitor::new(
            "pooled-stream",
            "stream neg = count(post(_) and value < 0) over window(16)\n\
             stream pres = count(pre(_)) over window(8)\n\
             trigger bad = neg >= 1\n\
             trigger busy = pres >= 4\n\
             trigger named = pres >= 1 and pre(n3)\n\
             deadline post(n5) every 40 ms",
        )
        .unwrap()
        .in_namespace(watched);

        let bytes = write_tape(&events);
        let mut decoder = ViewDecoder::new();
        let tape = decoder.decode(&bytes).expect("a written tape decodes");

        let owned = m.check_tape(&events);
        let mut check = Check::new(m.initial_state());
        check.fold(&m, tape.events(), &tape);
        let viewed = m.check_result(check);
        prop_assert_eq!(&owned.outcome, &viewed.outcome, "outcome and reason text");
        prop_assert_eq!(owned.earliest_violation, viewed.earliest_violation);
        prop_assert_eq!(owned.state.state, viewed.state.state, "DFA state");
        prop_assert_eq!(owned.state.events, viewed.state.events, "event count");

        let owned = stream.check_tape(&events);
        let mut check = Check::new(stream.initial_state());
        check.fold(&stream, tape.events(), &tape);
        let viewed = stream.check_result(check);
        prop_assert_eq!(&owned.firings, &viewed.firings, "stream firings");
        prop_assert_eq!(
            (owned.fired_total, owned.missed, owned.completed),
            (viewed.fired_total, viewed.missed, viewed.completed)
        );

        let (spliced, earliest) = splice_state(&m, &events);
        let (mut state, mut viewed_earliest) = (m.initial_state(), None);
        fold_through(
            &m,
            &mut state,
            tape.events(),
            &tape,
            &mut Resolution::default(),
            &mut viewed_earliest,
        );
        prop_assert_eq!(spliced, state, "splice over owned views ≡ over decoded views");
        prop_assert_eq!(earliest, viewed_earliest);
    }
}

/// The reference encoder: the writer as it was before it interned
/// through the shared text index, one SipHash `HashMap<String, u64>`
/// with a `String` per distinct text. `timed` is the header version and
/// whether stamped events get `TIME` records, as for `TapeWriter::timed`.
fn reference_tape(events: &[TapeEvent], timed: bool) -> Vec<u8> {
    use monitoring_semantics::tape::wire::{put_ivarint, put_str, put_uvarint};
    use std::collections::HashMap;
    let mut out = b"MTAP".to_vec();
    out.extend_from_slice(&(if timed { 2u16 } else { 1 }).to_le_bytes());
    let mut strings: HashMap<String, u64> = HashMap::new();
    let mut intern = |out: &mut Vec<u8>, s: &str| -> u64 {
        if let Some(&id) = strings.get(s) {
            return id;
        }
        let id = strings.len() as u64;
        strings.insert(s.to_string(), id);
        out.push(0x01);
        put_str(out, s);
        id
    };
    let mut last_time = 0;
    for ev in events {
        if let Some(t) = ev.time.filter(|_| timed) {
            let t = t.max(last_time);
            out.push(0x05);
            put_uvarint(&mut out, t - last_time);
            last_time = t;
        }
        match ev.phase {
            TapePhase::Pre => {
                let ns = intern(&mut out, &ev.namespace);
                let name = intern(&mut out, &ev.name);
                out.push(0x02);
                put_uvarint(&mut out, ns);
                put_uvarint(&mut out, name);
                put_uvarint(&mut out, ev.step);
            }
            TapePhase::Post => {
                let ns = intern(&mut out, &ev.namespace);
                let name = intern(&mut out, &ev.name);
                let value = ev.value.clone().unwrap_or_default();
                let display = intern(&mut out, &value.display);
                out.push(0x03);
                put_uvarint(&mut out, ns);
                put_uvarint(&mut out, name);
                put_uvarint(&mut out, ev.step);
                out.push(u8::from(value.int.is_some()) | u8::from(value.unsorted) << 1);
                if let Some(n) = value.int {
                    put_ivarint(&mut out, n);
                }
                put_uvarint(&mut out, display);
            }
            TapePhase::Done => {
                out.push(0x04);
                put_uvarint(&mut out, ev.step);
            }
        }
    }
    out
}

/// A random event list for the writers: empty, ASCII and multi-byte
/// namespaces; names and displays drawn from small pools (repeated) or
/// made per event (unique), some multi-byte; valueless `post`s; `done`
/// markers anywhere; and, when `stamped`, timestamps on most events that
/// sometimes step backwards.
fn mixed_events(seed: u64, len: usize, stamped: bool) -> Vec<TapeEvent> {
    use monitoring_semantics::monitor::ValueDesc;
    use rand::Rng;
    const NAMESPACES: [&str; 4] = ["", "ns", "名前", "ns/λ"];
    const DISPLAYS: [&str; 6] = ["", "0", "-1", "true", "[1, 2]", "λx. x"];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len as u64)
        .map(|step| {
            let phase = match rng.gen_range(0..10) {
                0 => TapePhase::Done,
                1..=3 => TapePhase::Pre,
                _ => TapePhase::Post,
            };
            let mut ev = TapeEvent::done(step);
            if phase != TapePhase::Done {
                ev.phase = phase;
                ev.namespace = NAMESPACES[rng.gen_range(0..4)].to_string();
                ev.name = match rng.gen_range(0..3) {
                    0 => format!("n{}", rng.gen_range(0..12)),
                    1 => format!("名{step}"),
                    _ => format!("u{step}"),
                };
            }
            if phase == TapePhase::Post && rng.gen_range(0..6) != 0 {
                let int = rng.gen_range(-40i64..40);
                ev.value = Some(ValueDesc {
                    int: (rng.gen_range(0..3) != 0).then_some(int),
                    unsorted: rng.gen_range(0..4) == 0,
                    display: match rng.gen_range(0..3) {
                        0 => DISPLAYS[rng.gen_range(0..6)].to_string(),
                        1 => int.to_string(),
                        _ => format!("«{step}»→é"),
                    },
                });
            }
            if stamped && rng.gen_range(0..4) != 0 {
                ev.time = Some(step * 3 + rng.gen_range(0..7));
            }
            ev
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 7: every writer produces the reference encoder's bytes.
    /// `write_tape` picks the version from the stamps; a `TapeWriter`
    /// fed through `TapeSink::record` writes v1 or, opened timed, v2.
    /// Unique names and displays grow the writers' string index past its
    /// first slots (and `write_tape`'s past its presized ones).
    #[test]
    fn every_writer_writes_the_reference_bytes(seed: u64, len in 0usize..=700, stamped: bool) {
        use monitoring_semantics::monitor::TapeSink;
        use monitoring_semantics::tape::TapeWriter;
        let events = mixed_events(seed, len, stamped);
        let auto = events.iter().any(|ev| ev.time.is_some());
        prop_assert_eq!(write_tape(&events), reference_tape(&events, auto));
        for timed in [false, true] {
            let mut w = if timed {
                TapeWriter::timed(Vec::new())
            } else {
                TapeWriter::new(Vec::new())
            };
            for ev in &events {
                w.record(ev.clone());
            }
            prop_assert_eq!(w.finish().unwrap(), reference_tape(&events, timed), "timed: {}", timed);
        }
    }
}

/// Text built to collide under FNV-1a costs the writers extra `STR`
/// records, not longer probes (the owned views' counterpart is
/// `colliding_text_costs_ids_not_probes` in `monsem-monitor`), and the
/// tape still reads back exactly.
#[test]
fn colliding_text_costs_the_writer_str_records_not_probes() {
    use monitoring_semantics::monitor::tape::{fnv1a, INDEX_MAX_PROBES};
    use monitoring_semantics::monitor::TapeSink;
    use monitoring_semantics::syntax::Annotation;
    use monitoring_semantics::tape::{TapeWriter, ViewDecoder};
    // Names whose FNV-1a hashes agree in their low 12 bits share a home
    // slot in every index up to 4 096 slots.
    let home = |n: &str| fnv1a(n.as_bytes()) & 0xfff;
    let names: Vec<String> = (0u32..)
        .map(|i| format!("c{i}"))
        .filter(|n| home(n) == home("c0"))
        .take(2 * INDEX_MAX_PROBES)
        .collect();
    let events: Vec<TapeEvent> = names
        .iter()
        .chain(&names)
        .enumerate()
        .map(|(step, n)| TapeEvent::pre(&Annotation::label(n.as_str()), step as u64))
        .collect();
    let mut w = TapeWriter::new(Vec::new());
    for ev in &events {
        w.record(ev.clone());
    }
    for bytes in [write_tape(&events), w.finish().unwrap()] {
        assert_eq!(read_tape(&bytes).unwrap(), events);
        let mut decoder = ViewDecoder::new();
        let tape = decoder.decode(&bytes).unwrap();
        let ids: Vec<u32> = tape.events().iter().map(|v| v.name).collect();
        let (first, again) = ids.split_at(names.len());
        let shared = first.iter().zip(again).filter(|(a, b)| a == b).count();
        assert!(
            (1..names.len()).contains(&shared),
            "names past the probe bound are written again: {shared} of {} shared",
            names.len()
        );
        assert!(bytes.len() > reference_tape(&events, false).len());
    }
}
