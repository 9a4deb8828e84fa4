//! Hostile bytes against the batch decoder: every malformed tape or
//! frame gives a typed error, never a panic, and every valid tape
//! decodes into views that agree with the owning decoder.
//!
//! Mutations of valid `EventBatch` tapes (timed, untimed and
//! checkpointed) and of whole frames:
//!
//! * truncation at every byte;
//! * single-bit flips;
//! * over-long LEB128 varints;
//! * string ids past the string table;
//! * `STR` lengths past the end of the frame;
//! * `TIME` and `CKPT` records in a v1 tape.
//!
//! Mutated batches that still decode are also folded by a live server
//! session, whose worker must survive them.

use monitoring_semantics::core::Value;
use monitoring_semantics::monitor::tape::{EventView, Strings};
use monitoring_semantics::monitor::{TapeEvent, TapePhase, ValueDesc};
use monitoring_semantics::stream::StreamMonitor;
use monitoring_semantics::syntax::Annotation;
use monitoring_semantics::tape::wire::WireError;
use monitoring_semantics::tape::{
    read_tape, write_frame, write_tape, write_tape_checkpointed, DecodedTape, FrameDecoder,
    MonitorServer, ProtoError, Request, Response, ServerConfig, TapeError, ViewDecoder,
};
use monitoring_semantics::tspec::SpecMonitor;
use proptest::prelude::*;

const SPEC: &str = "always(post(p) => value >= 0)";
const STREAM: &str = "stream neg = count(value < 0) over window(4)\ntrigger hot = neg >= 2";

/// A valid tape of `n` events over a few names, timed or not, with a
/// `done` marker when asked.
fn events(n: usize, seed: u64, timed: bool, done: bool) -> Vec<TapeEvent> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut evs: Vec<TapeEvent> = (0..n as u64)
        .map(|i| {
            let ann = Annotation::label(["p", "q", "über"][(next() % 3) as usize]);
            let ev = match next() % 4 {
                0 => TapeEvent::pre(&ann, i),
                1 => TapeEvent::post(&ann, &Value::list(vec![Value::Int(3), Value::Int(1)]), i),
                _ => TapeEvent::post(&ann, &Value::Int((next() % 9) as i64 - 2), i),
            };
            if timed {
                ev.at(i * 7)
            } else {
                ev
            }
        })
        .collect();
    if done {
        evs.push(TapeEvent::done(n as u64));
    }
    evs
}

fn tape(kind: u8, n: usize, seed: u64) -> Vec<u8> {
    let evs = events(n, seed, kind != 0, kind == 2);
    match kind {
        0 | 1 => write_tape(&evs),
        _ => {
            let spec = SpecMonitor::new("h", SPEC).unwrap();
            let stream = StreamMonitor::new("h", STREAM).unwrap();
            write_tape_checkpointed(&evs, &spec, Some(&stream), 3)
        }
    }
}

/// The owned events a decoded tape's views denote.
fn materialize(d: &DecodedTape<'_>) -> Vec<TapeEvent> {
    let text = |id: u32| d.get(id).to_string();
    d.events()
        .iter()
        .map(|ev: &EventView| TapeEvent {
            phase: ev.phase,
            namespace: text(ev.namespace),
            name: text(ev.name),
            value: (ev.phase == TapePhase::Post).then(|| ValueDesc {
                int: ev.int,
                unsorted: ev.unsorted,
                display: text(ev.display),
            }),
            step: ev.step,
            time: ev.time,
        })
        .collect()
}

/// Decodes `bytes` both ways: the results must agree, error for error.
fn decode_both(bytes: &[u8]) -> Result<Vec<TapeEvent>, TapeError> {
    let mut decoder = ViewDecoder::new();
    let viewed = decoder.decode(bytes).map(|d| materialize(&d));
    assert_eq!(viewed, read_tape(bytes), "view and owned decoders disagree");
    viewed
}

/// Feeds `tape` to a live session as a batch; the worker must answer.
fn fold_on_server(server: &MonitorServer, tape: Vec<u8>) {
    match server.request(Request::EventBatch { session: 1, tape }) {
        Response::Verdict(_) | Response::Err(_) => {}
        other => panic!("unexpected reply {other:?}"),
    }
}

fn session() -> MonitorServer {
    let server = MonitorServer::start(ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    });
    let opened = server.request(Request::Open {
        session: 1,
        enforcing: false,
        spec: SPEC.to_string(),
        stream: Some(STREAM.to_string()),
    });
    assert_eq!(opened, Response::Ok);
    server
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid tapes: the view decoder and the owning decoder agree, and
    /// both reproduce the recorded events.
    #[test]
    fn views_agree_with_read_tape_on_valid_tapes(kind in 0u8..3, n in 0usize..60, seed: u64) {
        let bytes = tape(kind, n, seed);
        let decoded = decode_both(&bytes).expect("a valid tape decodes");
        prop_assert_eq!(decoded, events(n, seed, kind != 0, kind == 2));
    }

    /// Truncation at every byte and single-bit flips: a typed result
    /// (an error, or a tape the decoders agree on), and a session that
    /// folds whatever decodes.
    #[test]
    fn truncations_and_bit_flips_never_panic(kind in 0u8..3, n in 1usize..24, seed: u64, flips in proptest::collection::vec(0usize..4096, 1..6)) {
        let bytes = tape(kind, n, seed);
        let server = session();
        for cut in 0..bytes.len() {
            let _ = decode_both(&bytes[..cut]);
        }
        for &bit in &flips {
            let mut flipped = bytes.clone();
            let at = (bit / 8) % flipped.len();
            flipped[at] ^= 1 << (bit % 8);
            if decode_both(&flipped).is_ok() {
                fold_on_server(&server, flipped);
            }
        }
        prop_assert!(matches!(server.close(1), Response::Verdict(_)));
    }

    /// Whole frames: every truncation of an `EventBatch` frame is
    /// incomplete or a typed error, and every bit flip decodes to a
    /// typed result.
    #[test]
    fn hostile_frames_give_typed_errors(n in 1usize..16, seed: u64, bit in 0usize..2048) {
        let payload = Request::EventBatch { session: 1, tape: tape(1, n, seed) }.encode();
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).unwrap();
        for cut in 0..frame.len() {
            let mut dec = FrameDecoder::new();
            dec.extend(&frame[..cut]);
            prop_assert!(matches!(dec.next_frame(), Ok(None) | Err(_)));
            let _ = Request::decode(&payload[..cut.min(payload.len())]);
        }
        let mut flipped = frame.clone();
        let at = (bit / 8) % flipped.len();
        flipped[at] ^= 1 << (bit % 8);
        let mut dec = FrameDecoder::new();
        dec.extend(&flipped);
        if let Ok(Some(p)) = dec.next_frame() {
            if let Ok(Request::EventBatch { tape, .. }) = Request::decode(&p) {
                let _ = decode_both(&tape);
            }
        }
    }
}

/// The header followed by `records`.
fn v1(records: &[u8]) -> Vec<u8> {
    let mut out = b"MTAP\x01\x00".to_vec();
    out.extend_from_slice(records);
    out
}

#[test]
fn over_long_varints_are_typed_errors() {
    // A `DONE` whose step varint runs past ten bytes.
    let mut records = vec![0x04];
    records.extend_from_slice(&[0xff; 11]);
    assert_eq!(
        decode_both(&v1(&records)),
        Err(TapeError::Wire(WireError::VarintOverflow))
    );
    // The tenth byte may carry only one more bit.
    let mut records = vec![0x04];
    records.extend_from_slice(&[0x80; 9]);
    records.push(0x02);
    assert_eq!(
        decode_both(&v1(&records)),
        Err(TapeError::Wire(WireError::VarintOverflow))
    );
    // And an over-long length on a frame.
    let mut payload = vec![0x05, 0x01];
    payload.extend_from_slice(&[0xff; 11]);
    assert_eq!(
        Request::decode(&payload),
        Err(ProtoError::Wire(WireError::VarintOverflow))
    );
}

#[test]
fn string_ids_past_the_table_are_typed_errors() {
    // One string (id 0), then a `PRE` naming string 1.
    let records = [0x01, 0x01, b'p', 0x02, 0x00, 0x01, 0x00];
    assert_eq!(decode_both(&v1(&records)), Err(TapeError::BadStringId(1)));
    // A `POST` whose display id is past the table.
    let records = [0x01, 0x01, b'p', 0x03, 0x00, 0x00, 0x00, 0x00, 0x07];
    assert_eq!(decode_both(&v1(&records)), Err(TapeError::BadStringId(7)));
    // An id past u32.
    let mut records = vec![0x02];
    records.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
    assert!(matches!(
        decode_both(&v1(&records)),
        Err(TapeError::BadStringId(_))
    ));
}

#[test]
fn string_lengths_past_the_frame_are_typed_errors() {
    // `STR` claiming 1 MiB with three bytes behind it.
    let records = [0x01, 0x80, 0x80, 0x40, b'a', b'b', b'c'];
    assert_eq!(
        decode_both(&v1(&records)),
        Err(TapeError::Wire(WireError::UnexpectedEof))
    );
    // `STR` claiming u64::MAX bytes.
    let mut records = vec![0x01];
    records.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
    assert!(matches!(
        decode_both(&v1(&records)),
        Err(TapeError::Wire(_))
    ));
    // Invalid UTF-8 inside a string.
    let records = [0x01, 0x02, 0xc3, 0x28];
    assert_eq!(
        decode_both(&v1(&records)),
        Err(TapeError::Wire(WireError::BadUtf8))
    );
}

#[test]
fn time_and_checkpoint_records_are_rejected_in_a_v1_tape() {
    assert_eq!(
        decode_both(&v1(&[0x05, 0x03])),
        Err(TapeError::BadTag(0x05, 6))
    );
    assert_eq!(
        decode_both(&v1(&[0x06, 0x00])),
        Err(TapeError::BadTag(0x06, 6))
    );
    // A v2 tape takes `TIME` but still not `CKPT`.
    let mut v2 = b"MTAP\x02\x00".to_vec();
    v2.extend_from_slice(&[0x05, 0x03, 0x04, 0x00, 0x06]);
    assert_eq!(decode_both(&v2), Err(TapeError::BadTag(0x06, 10)));
}
