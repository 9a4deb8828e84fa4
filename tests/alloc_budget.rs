//! The ingest path's allocation budget, counted by a global counting
//! allocator.
//!
//! * A warmed-up in-process server session with the `ingest` workload's
//!   safety and stream specs folds 256-event `EventBatch` frames at no
//!   more than 0.1 allocations per event.
//! * Folding a batch whose names the spec never mentions allocates
//!   nothing: tape names are looked up, never interned.
//! * A display-amplification tape (one long string referenced by many
//!   events) decodes into views with allocation bounded by a small
//!   multiple of the tape's size, where owned decoding copies the string
//!   per event.
//! * A producer encodes a 256-event `EventBatch` frame (`write_tape`,
//!   then `Request::encode`) in at most 16 allocations, whether the
//!   batch's displays are all distinct or all equal; the frame payload
//!   itself is one.
//!
//! The server's counter is process-wide (server workers allocate on
//! their own threads), so the tests take turns. Spans over code that
//! runs on the calling thread count that thread alone: the test
//! harness's own threads allocate as tests start and finish, and a
//! process-wide count of a zero-allocation span then fails at random.

use monitoring_semantics::core::Value;
use monitoring_semantics::monitor::tape::{fold_views, Resolution};
use monitoring_semantics::monitor::{Monitor, TapeEvent, TapePhase, ValueDesc};
use monitoring_semantics::syntax::Annotation;
use monitoring_semantics::tape::{
    read_tape, write_tape, MonitorServer, Request, Response, ServerConfig, Verdict, ViewDecoder,
};
use monitoring_semantics::tspec::SpecMonitor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;

struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static TURN: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread's allocations are being counted on their own.
    static HERE: Cell<bool> = const { Cell::new(false) };
}

/// Whether an allocation made now, on this thread, is counted.
fn counting() -> bool {
    ON.load(Ordering::Relaxed) || HERE.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every call defers to the system allocator unchanged; the
// counters are statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes allocated by every thread while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    ON.store(true, Ordering::SeqCst);
    let out = f();
    ON.store(false, Ordering::SeqCst);
    let (a1, b1) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    (out, a1 - a0, b1 - b0)
}

/// Allocations and bytes allocated by the calling thread while `f` runs.
fn counted_here<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    HERE.with(|here| here.set(true));
    let out = f();
    HERE.with(|here| here.set(false));
    let (a1, b1) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    (out, a1 - a0, b1 - b0)
}

/// The `ingest` workload's specs (`monbench/src/gen.rs`).
const SAFETY: &str = "always(post(req) => value >= 0)";
const STREAM: &str = "stream neg = count(post(req) and value < 0) over window(64)\n\
                      stream lat = avg(post(db)) over window(32)\n\
                      trigger bad = neg >= 1\n\
                      trigger slow = lat > 600";
const BATCH: usize = 256;

/// A seeded stand-in for the workload's events: four labels, pre and
/// post phases, mostly-int values, non-int displays on `cache`, and one
/// violation.
fn events(n: usize, first_step: u64) -> Vec<TapeEvent> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ first_step;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..n)
        .map(|i| {
            let step = first_step + i as u64;
            if step == 3000 {
                return TapeEvent::post(&Annotation::label("req"), &Value::Int(-1), step);
            }
            let name =
                ["req", "req", "req", "resp", "resp", "db", "db", "cache"][(next() % 8) as usize];
            let ann = Annotation::label(name);
            if next() % 3 == 0 {
                return TapeEvent::pre(&ann, step);
            }
            if name == "cache" && next() % 8 == 0 {
                let v = Value::list(vec![Value::Int(2), Value::Int(1)]);
                return TapeEvent::post(&ann, &v, step);
            }
            TapeEvent::post(&ann, &Value::Int((next() % 1000) as i64), step)
        })
        .collect()
}

fn open(server: &MonitorServer, session: u64) {
    let opened = server.request(Request::Open {
        session,
        enforcing: false,
        spec: SAFETY.to_string(),
        stream: Some(STREAM.to_string()),
    });
    assert_eq!(opened, Response::Ok);
}

fn verdict(resp: Response) -> Verdict {
    match resp {
        Response::Verdict(v) => v,
        other => panic!("expected a verdict, got {other:?}"),
    }
}

#[test]
fn warm_server_ingest_stays_within_a_tenth_of_an_allocation_per_event() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const WARM: usize = 64;
    const TIMED: usize = 256;
    let server = MonitorServer::start(ServerConfig::default());
    open(&server, 1);
    let batches: Vec<Request> = (0..WARM + TIMED)
        .map(|b| Request::EventBatch {
            session: 1,
            tape: write_tape(&events(BATCH, (b * BATCH) as u64)),
        })
        .collect();
    let (acks, drained) = sync_channel::<Response>(1024);
    let drain = std::thread::spawn(move || drained.iter().count());
    let mut batches = batches.into_iter();
    for req in batches.by_ref().take(WARM) {
        assert!(server.post(req, acks.clone()));
    }
    // A round trip: the warm-up batches are folded before counting. The
    // barriers are empty batches, encoded before the count starts.
    let barrier = || Request::EventBatch {
        session: 1,
        tape: write_tape(&[]),
    };
    verdict(server.request(barrier()));
    let (rest, last): (Vec<Request>, Request) = (batches.collect(), barrier());
    let (_, allocs, _) = counted(|| {
        for req in rest {
            assert!(server.post(req, acks.clone()));
        }
        verdict(server.request(last))
    });
    let per_event = allocs as f64 / (TIMED * BATCH) as f64;
    assert!(
        per_event <= 0.1,
        "{allocs} allocations for {} events: {per_event:.3} per event",
        TIMED * BATCH
    );
    let closed = verdict(server.close(1));
    assert_eq!(closed.ingested, ((WARM + TIMED) * BATCH) as u64);
    assert_eq!(closed.earliest_violation, Some(3000));
    drop(acks);
    server.shutdown();
    drain.join().unwrap();
}

#[test]
fn folding_names_the_spec_never_mentions_allocates_nothing() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let m = SpecMonitor::new("names", SAFETY).unwrap();
    let fresh = |round: usize| -> Vec<u8> {
        let evs: Vec<TapeEvent> = (0..BATCH)
            .map(|i| {
                let ann = Annotation::label(format!("never-seen-{round}-{i}").as_str());
                TapeEvent::post(&ann, &Value::Int(i as i64), i as u64)
            })
            .collect();
        write_tape(&evs)
    };
    let (warm, tape) = (fresh(0), fresh(1));
    let mut decoder = ViewDecoder::new();
    let mut res = Resolution::default();
    let mut state = m.initial_state();
    let mut fold = |tape: &[u8]| {
        let decoded = decoder.decode(tape).unwrap();
        fold_views(
            &m,
            &mut state,
            decoded.events(),
            &decoded,
            &mut res,
            &mut None,
        );
    };
    fold(&warm);
    let ((), allocs, _) = counted_here(|| fold(&tape));
    assert_eq!(allocs, 0, "a batch of unknown names allocated");
    // The owned-event adapter looks names up the same way.
    let owned = read_tape(&tape).unwrap();
    let ((), allocs, _) = counted_here(|| {
        let mut s = m.initial_state();
        for ev in &owned {
            s = match m.advance_tape_event(s, ev) {
                monitoring_semantics::monitor::Outcome::Continue(s) => s,
                other => panic!("unexpected verdict {other:?}"),
            };
        }
    });
    assert_eq!(allocs, 0, "advance_tape_event interned or copied a name");
}

#[test]
fn display_amplification_is_not_amplified_by_the_view_decoder() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let long = "x".repeat(64 * 1024);
    let evs: Vec<TapeEvent> = (0..12_000)
        .map(|i| TapeEvent {
            phase: TapePhase::Post,
            namespace: String::new(),
            name: "p".to_string(),
            value: Some(ValueDesc {
                int: None,
                unsorted: false,
                display: long.clone(),
            }),
            step: i,
            time: None,
        })
        .collect();
    let tape = write_tape(&evs);
    let mut decoder = ViewDecoder::new();
    let (n, _, bytes) = counted(|| decoder.decode(&tape).map(|d| d.events().len()));
    assert_eq!(n, Ok(evs.len()));
    let factor = bytes as f64 / tape.len() as f64;
    // A view is a fixed-size record (no per-event heap); each `POST` here
    // is at least six bytes, and vector growth at most doubles.
    assert!(
        factor <= 24.0,
        "{bytes} bytes allocated decoding a {}-byte tape ({factor:.1}x)",
        tape.len()
    );
    // The owned decoder copies the long string into every event.
    let (_, _, owned) = counted(|| read_tape(&tape).map(|e| e.len()));
    assert!(owned as f64 / tape.len() as f64 > 1000.0);
}

#[test]
fn encoding_a_batch_frame_stays_within_sixteen_allocations() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let ann = Annotation::label("req");
    let posts = |value: fn(usize) -> i64| -> Vec<TapeEvent> {
        (0..BATCH)
            .map(|i| TapeEvent::post(&ann, &Value::Int(value(i)), i as u64))
            .collect()
    };
    let batches = [
        ("distinct displays", posts(|i| 7919 * i as i64 - 1_000_000)),
        ("equal displays", posts(|_| 7)),
        ("the workload's mix", events(BATCH, 0)),
    ];
    for (what, evs) in &batches {
        let (payload, allocs, _) = counted_here(|| {
            Request::EventBatch {
                session: 1,
                tape: write_tape(evs),
            }
            .encode()
        });
        assert!(allocs <= 16, "{what}: {allocs} allocations");
        let tape = write_tape(evs);
        let (framed, allocs, _) =
            counted_here(move || Request::EventBatch { session: 1, tape }.encode());
        assert_eq!(allocs, 1, "{what}: the payload is allocated once");
        assert_eq!(framed, payload);
    }
}
