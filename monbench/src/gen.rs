//! Seeded inputs and the offline oracle.
//!
//! The seed picks the input *data* — label order, value mix, violation
//! positions — never a size: every seed gives the same number of events,
//! batches and sessions.

use monsem_monitor::{Monitor, TapeEvent, TapePhase, ValueDesc};
use monsem_stream::{StreamMonitor, StreamState};
use monsem_tape::Verdict;
use monsem_tspec::{SpecMonitor, SpecState};

/// The safety spec every server session opens with.
pub const SAFETY: &str = "always(post(req) => value >= 0)";
/// The safety spec `session-churn` swaps to mid-session.
pub const SAFETY_SWAP: &str = "always(post(req) => value < 990)";
/// The stream (SLO) spec every server session carries.
pub const STREAM: &str = "stream neg = count(post(req) and value < 0) over window(64)\n\
                          stream lat = avg(post(db)) over window(32)\n\
                          trigger bad = neg >= 1\n\
                          trigger slow = lat > 600";
/// Events per `EventBatch` frame.
pub const BATCH: usize = 256;
/// About one violation per this many ingest events.
pub const VIOLATION_EVERY: usize = 10_240;
/// Events per batch in a `session-churn` session (twice: before and after
/// the swap).
pub const CHURN_HALF: usize = 64;

/// SplitMix64: a small, seedable generator with no dependencies.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const LABELS: [&str; 4] = ["req", "resp", "db", "cache"];

fn event(phase: TapePhase, name: &str, value: Option<ValueDesc>) -> TapeEvent {
    TapeEvent {
        phase,
        namespace: String::new(),
        name: name.to_string(),
        value,
        step: 0,
        time: None,
    }
}

fn int(v: i64) -> Option<ValueDesc> {
    Some(ValueDesc {
        int: Some(v),
        unsorted: false,
        display: v.to_string(),
    })
}

/// `n` events: labels in a seeded order with seeded weights, pre and post
/// phases, mostly-int values (non-int displays on `cache` only, so the
/// safety specs never see them), and no violation. Steps are `0..n`.
pub fn events(rng: &mut Rng, n: usize) -> Vec<TapeEvent> {
    let mut order = LABELS;
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Weighted label pick: the first label in the seeded order is the
        // most frequent.
        let r = rng.below(10);
        let name = order[[0, 0, 0, 0, 1, 1, 1, 2, 2, 3][r as usize]];
        if rng.below(3) == 0 {
            out.push(event(TapePhase::Pre, name, None));
            continue;
        }
        let value = if name == "cache" && rng.below(8) == 0 {
            let a = rng.below(100);
            let b = rng.below(100);
            Some(ValueDesc {
                int: None,
                unsorted: a > b,
                display: format!("[{a}, {b}]"),
            })
        } else {
            int(rng.below(1000) as i64)
        };
        out.push(event(TapePhase::Post, name, value));
    }
    restamp(&mut out, 0);
    out
}

/// Rewrites steps to `first..first + len`.
pub fn restamp(events: &mut [TapeEvent], first: u64) {
    for (i, ev) in events.iter_mut().enumerate() {
        ev.step = first + i as u64;
    }
}

/// Overwrites one seeded event with a `post(req)` of a negative value.
pub fn plant_violation(rng: &mut Rng, events: &mut [TapeEvent]) {
    let at = rng.below(events.len() as u64) as usize;
    let step = events[at].step;
    events[at] = event(TapePhase::Post, "req", int(-1 - rng.below(50) as i64));
    events[at].step = step;
}

/// One `ingest` connection's event pool: `VIOLATION_EVERY` events with one
/// planted violation, cut into `BATCH`-event batches that the generator
/// cycles through (restamping steps as it goes).
pub fn ingest_pool(seed: u64, conn: u64) -> Vec<Vec<TapeEvent>> {
    let mut rng = Rng::new(seed, 1000 + conn);
    let mut all = events(&mut rng, VIOLATION_EVERY);
    plant_violation(&mut rng, &mut all);
    all.chunks(BATCH).map(<[TapeEvent]>::to_vec).collect()
}

/// Sends batch `i` of a cycling pool: batch `i % len` with steps
/// `i * BATCH ..`.
pub fn cycle_batch(pool: &mut [Vec<TapeEvent>], i: u64) -> &[TapeEvent] {
    let n = pool.len() as u64;
    let batch = &mut pool[(i % n) as usize];
    restamp(batch, i * BATCH as u64);
    batch
}

/// One `session-churn` session's input: `2 * CHURN_HALF` events (a
/// violation in about one session in eight) and its expected verdict.
pub struct ChurnSession {
    /// The events before the swap.
    pub before: Vec<TapeEvent>,
    /// The events after the swap (steps continue from `before`).
    pub after: Vec<TapeEvent>,
    /// What the close verdict must say.
    pub expect: Expect,
}

/// A pool of churn sessions for one connection.
pub fn churn_pool(seed: u64, conn: u64, n: usize, oracle: &Oracle) -> Vec<ChurnSession> {
    let mut rng = Rng::new(seed, 2000 + conn);
    (0..n)
        .map(|_| {
            let mut all = events(&mut rng, 2 * CHURN_HALF);
            if rng.below(8) == 0 {
                plant_violation(&mut rng, &mut all);
            }
            // The swap splices the new spec over the retained window,
            // which holds every pre-swap event (CHURN_HALF is far below
            // the server's swap window), so the new spec's offline check
            // over the whole session is the verdict the close must carry.
            let expect = oracle.expect(&oracle.swap_spec, std::slice::from_ref(&all));
            let after = all.split_off(CHURN_HALF);
            ChurnSession {
                before: all,
                after,
                expect,
            }
        })
        .collect()
}

/// The offline checkers every verdict is compared against.
pub struct Oracle {
    /// [`SAFETY`].
    pub spec: SpecMonitor,
    /// [`SAFETY_SWAP`].
    pub swap_spec: SpecMonitor,
    /// [`STREAM`].
    pub stream: StreamMonitor,
}

/// The verdict fields a close must match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    /// Events ingested.
    pub ingested: u64,
    /// Step of the first violating event.
    pub earliest_violation: Option<u64>,
    /// Whether any violation was seen.
    pub violated: bool,
    /// Final acceptance after the close ends the trace.
    pub accepted: Option<bool>,
    /// Stream trigger firings.
    pub firings: u64,
}

impl Expect {
    /// The same fields, read off a server verdict.
    pub fn of(v: &Verdict) -> Expect {
        Expect {
            ingested: v.ingested,
            earliest_violation: v.earliest_violation,
            violated: v.violation.is_some(),
            accepted: v.accepted,
            firings: v.firings,
        }
    }
}

/// An incremental offline check: the safety and stream folds of the
/// offline checker, fed segment by segment.
pub struct Fold<'a> {
    spec: &'a SpecMonitor,
    stream: &'a StreamMonitor,
    safety: SpecState,
    slo: StreamState,
    earliest: Option<u64>,
    ingested: u64,
}

impl<'a> Fold<'a> {
    /// Folds one segment of the tape.
    pub fn feed(&mut self, events: &[TapeEvent]) {
        let seed = std::mem::replace(&mut self.safety, self.spec.initial_state());
        let check = self.spec.check_tape_seeded(seed, events);
        self.earliest = self.earliest.or(check.earliest_violation);
        self.safety = check.state;
        let seed = std::mem::replace(&mut self.slo, self.stream.initial_state());
        self.slo = self.stream.check_tape_seeded(seed, events).state;
        self.ingested += events.len() as u64;
    }

    /// The verdict a close (which ends the trace) must report.
    pub fn finish(self) -> Expect {
        let finished = self.spec.finish(&self.safety);
        Expect {
            ingested: self.ingested,
            earliest_violation: self.earliest,
            violated: self.safety.violation.is_some() || finished.is_err(),
            accepted: Some(finished.is_ok()),
            firings: self.stream.finish(&self.slo, None).fired_total,
        }
    }
}

impl Oracle {
    /// Compiles the specs.
    pub fn new() -> Oracle {
        Oracle {
            spec: SpecMonitor::new("oracle", SAFETY).expect("safety spec compiles"),
            swap_spec: SpecMonitor::new("oracle", SAFETY_SWAP).expect("swap spec compiles"),
            stream: StreamMonitor::new("oracle", STREAM).expect("stream spec compiles"),
        }
    }

    /// A fresh offline fold under `spec` and the stream spec.
    pub fn fold<'a>(&'a self, spec: &'a SpecMonitor) -> Fold<'a> {
        Fold {
            spec,
            stream: &self.stream,
            safety: spec.initial_state(),
            slo: self.stream.initial_state(),
            earliest: None,
            ingested: 0,
        }
    }

    /// The expected close verdict for `segments` under `spec`.
    pub fn expect(&self, spec: &SpecMonitor, segments: &[Vec<TapeEvent>]) -> Expect {
        let mut f = self.fold(spec);
        for s in segments {
            f.feed(s);
        }
        f.finish()
    }
}

/// Flips the value of the first non-negative `post(label)` event (`v` to
/// `-1 - v`): the benchmark's self-test hands the oracle this corrupted
/// copy and requires the run to fail.
pub fn corrupt(events: &mut [TapeEvent], label: &str) {
    let ev = events
        .iter_mut()
        .find(|e| e.name == label && matches!(&e.value, Some(d) if d.int.is_some_and(|v| v >= 0)))
        .expect("a non-negative post event to corrupt");
    let d = ev.value.as_mut().expect("post event has a value");
    let v = -1 - d.int.expect("int value");
    *d = ValueDesc {
        int: Some(v),
        unsorted: false,
        display: v.to_string(),
    };
}
