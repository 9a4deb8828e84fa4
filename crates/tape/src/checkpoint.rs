//! Checkpointed recording and seeded replay: the compaction layer over
//! format-v3 tapes.
//!
//! A checkpoint is a *verified resumption point*: it pins the safety
//! spec's DFA state (plus the earliest prefix violation) and, when a
//! stream spec rides along, a digest-guarded snapshot of the full
//! stream-evaluator state. Checking a long tape "from" an offset then
//! seeks to the last checkpoint at or before that offset and replays
//! only the suffix — the verdict provably matches a full replay because
//! both monitors are pure folds ([`monsem_tspec::SpecMonitor`]'s MFun
//! view) and the checkpoint carries exactly the fold accumulator.
//!
//! Digests ([`digest64`] of the spec source, and of the snapshot bytes)
//! guard against *mistakes*, not adversaries: checking a tape with a
//! different spec than the one checkpointed silently falls back to a
//! full replay rather than seeding from a foreign automaton's state.

use crate::format::{
    digest64, Checkpoint, DecodedTape, StreamCheckpoint, TapeError, TapeWriter, ViewDecoder,
};
use monsem_monitor::tape::{fold_through, Check, OwnedViews, Resolution, TapeEvent, TapeFold};
use monsem_monitor::Monitor;
use monsem_stream::{restore_state, snapshot_state, StreamCheck, StreamMonitor};
use monsem_tspec::{SpecMonitor, SpecState, TapeCheck, TraceRing};

/// The digest a checkpoint stores for a spec: [`digest64`] of its
/// source text.
pub fn spec_digest(src: &str) -> u64 {
    digest64(src.as_bytes())
}

/// Serializes `events` into a v3 tape, folding `spec` (and `stream`,
/// when given) alongside the writer and emitting a [`Checkpoint`] after
/// every `every` events. Timestamps are preserved when any event
/// carries one, exactly like [`crate::write_tape`].
///
/// The final partial interval gets no checkpoint — there is nothing
/// after it to skip.
pub fn write_tape_checkpointed(
    events: &[TapeEvent],
    spec: &SpecMonitor,
    stream: Option<&StreamMonitor>,
    every: usize,
) -> Vec<u8> {
    let every = every.max(1);
    let timed = events.iter().any(|ev| ev.time.is_some());
    let mut w = TapeWriter::checkpointed(Vec::new(), timed);
    let mut ss = spec.initial_state();
    let mut earliest: Option<u64> = None;
    let mut stream_state = stream.map(|m| m.initial_state());
    let mut res = Resolution::default();
    let mut views = OwnedViews::new();
    let mut folded = 0;
    // Each interval is one run of views through the same fold the
    // checkers use.
    for interval in events.chunks(every) {
        views.clear();
        for ev in interval {
            w.record_ref(ev);
            views.push(ev);
        }
        fold_through(
            spec,
            &mut ss,
            views.views(),
            &views,
            &mut res,
            &mut earliest,
        );
        if let (Some(m), Some(st)) = (stream, &mut stream_state) {
            fold_through(m, st, views.views(), &views, &mut res, &mut None);
        }
        folded += interval.len();
        if folded % every == 0 && folded < events.len() {
            let stream_ckpt = match (stream, &stream_state) {
                (Some(m), Some(st)) => {
                    let snapshot = snapshot_state(st);
                    Some(StreamCheckpoint {
                        spec_digest: spec_digest(m.spec().source()),
                        snapshot_digest: digest64(&snapshot),
                        snapshot,
                    })
                }
                _ => None,
            };
            w.checkpoint(&Checkpoint {
                events: folded as u64,
                step: interval.last().map_or(0, |ev| ev.step),
                spec_digest: spec_digest(spec.spec().source()),
                dfa_state: ss.state,
                dfa_events: ss.events,
                earliest_violation: earliest,
                stream: stream_ckpt,
            });
        }
    }
    w.finish().expect("writing to a Vec cannot fail")
}

/// The last checkpoint at or before the `from_events` offset whose spec
/// digest matches `spec_src`, if any. `from_events` counts tape events,
/// so `seek_checkpoint(…, n, …)` returns a state that already folded
/// its first `events ≤ n` events.
pub fn seek_checkpoint<'a>(
    checkpoints: &'a [Checkpoint],
    from_events: u64,
    spec_src: &str,
) -> Option<&'a Checkpoint> {
    let want = spec_digest(spec_src);
    checkpoints
        .iter()
        .rev()
        .find(|c| c.events <= from_events && c.spec_digest == want)
}

/// Reconstructs the [`SpecState`] a checkpoint pinned. The trace ring
/// (recent-event context used in violation *messages*) is not carried,
/// so messages rendered after seeding omit prefix events; the verdict,
/// DFA state, and earliest-violation step are exact.
pub fn seeded_spec_state(ckpt: &Checkpoint) -> SpecState {
    SpecState {
        state: ckpt.dfa_state,
        events: ckpt.dfa_events,
        trace: TraceRing::default(),
        violation: ckpt
            .earliest_violation
            .map(|step| format!("violated at event step {step} (before the checkpoint)")),
        tape: None,
        lossy: false,
    }
}

/// A checkpoint-seeded check result: the verdict plus how much of the
/// tape the replay actually had to fold.
#[derive(Debug, Clone, PartialEq)]
pub struct SeededCheck<C> {
    /// The verdict, identical to what a full replay would conclude
    /// (violation *messages* may omit pre-checkpoint trace context).
    pub check: C,
    /// Tape-event offset the replay resumed from (0 = no usable
    /// checkpoint, full replay).
    pub resumed_at: u64,
    /// Events folded by the replay (`total - resumed_at`).
    pub replayed: u64,
}

/// Checks a tape against `monitor`, seeking to the last checkpoint at
/// or before `from` (an event offset) instead of replaying from zero.
/// Falls back to a full replay when the tape has no checkpoints in
/// range, they were recorded under a different spec, or their contents
/// cannot be true of this spec (a DFA state the automaton does not
/// have): a digest over public text vouches for nothing.
///
/// The tape is decoded into views once; the skipped prefix is never
/// materialized.
///
/// # Errors
///
/// [`TapeError`] if the tape bytes do not parse.
pub fn check_tape_from(
    monitor: &SpecMonitor,
    tape: &[u8],
    from: u64,
) -> Result<SeededCheck<TapeCheck>, TapeError> {
    with_checkpoints(tape, |decoded, checkpoints| {
        check_tape_from_decoded(monitor, decoded, checkpoints, from)
    })
}

/// [`check_tape_from`] over a tape already decoded, with its
/// `checkpoints` ([`ViewDecoder::decode_checkpointed`]), so one decode
/// can serve several checks.
pub fn check_tape_from_decoded(
    monitor: &SpecMonitor,
    tape: &DecodedTape<'_>,
    checkpoints: &[Checkpoint],
    from: u64,
) -> SeededCheck<TapeCheck> {
    let want = spec_digest(monitor.spec().source());
    let states = monitor.automaton().num_states();
    check_seeded(monitor, tape, checkpoints, from, |c| {
        // A violation inside the skipped prefix is earlier than anything
        // the replay can observe.
        (c.spec_digest == want && c.dfa_state < states)
            .then(|| (seeded_spec_state(c), c.earliest_violation))
    })
    .map(|check| monitor.check_result(check))
}

/// The stream-spec counterpart of [`check_tape_from`]: seeks the last
/// checkpoint at or before `from` that carries a stream snapshot whose
/// spec and snapshot digests both verify and that restores under this
/// spec, and replays the suffix. Any mismatch falls back to a full
/// replay — a checkpoint can make a check faster, never wrong.
///
/// # Errors
///
/// [`TapeError`] if the tape bytes do not parse.
pub fn check_stream_from(
    monitor: &StreamMonitor,
    tape: &[u8],
    from: u64,
) -> Result<SeededCheck<StreamCheck>, TapeError> {
    with_checkpoints(tape, |decoded, checkpoints| {
        check_stream_from_decoded(monitor, decoded, checkpoints, from)
    })
}

/// [`check_stream_from`] over a tape already decoded, with its
/// `checkpoints`, as [`check_tape_from_decoded`].
pub fn check_stream_from_decoded(
    monitor: &StreamMonitor,
    tape: &DecodedTape<'_>,
    checkpoints: &[Checkpoint],
    from: u64,
) -> SeededCheck<StreamCheck> {
    let want = spec_digest(monitor.spec().source());
    check_seeded(monitor, tape, checkpoints, from, |c| {
        let s = c.stream.as_ref()?;
        if s.spec_digest != want || digest64(&s.snapshot) != s.snapshot_digest {
            return None;
        }
        Some((restore_state(monitor, &s.snapshot).ok()?, None))
    })
    .map(|check| monitor.check_result(check))
}

impl<C> SeededCheck<C> {
    fn map<D>(self, f: impl FnOnce(C) -> D) -> SeededCheck<D> {
        SeededCheck {
            check: f(self.check),
            resumed_at: self.resumed_at,
            replayed: self.replayed,
        }
    }
}

/// Decodes `tape` into views with its checkpoints and hands both to
/// `check`.
fn with_checkpoints<T>(
    tape: &[u8],
    check: impl FnOnce(&DecodedTape<'_>, &[Checkpoint]) -> T,
) -> Result<T, TapeError> {
    let mut decoder = ViewDecoder::new();
    let mut checkpoints = Vec::new();
    let decoded = decoder.decode_checkpointed(tape, &mut checkpoints)?;
    Ok(check(&decoded, &checkpoints))
}

/// The seek both seeded checks share: seeds the check from the last of
/// `checkpoints` at or before `from` that `seed` accepts (a state and
/// the earliest violation before it), else from the initial state, and
/// folds the views after it.
fn check_seeded<M: TapeFold>(
    monitor: &M,
    tape: &DecodedTape<'_>,
    checkpoints: &[Checkpoint],
    from: u64,
    seed: impl Fn(&Checkpoint) -> Option<(M::State, Option<u64>)>,
) -> SeededCheck<Check<M::State>> {
    let views = tape.events();
    let total = views.len() as u64;
    let (resumed_at, state, earliest) = checkpoints
        .iter()
        .rev()
        .filter(|c| c.events <= from.min(total))
        .find_map(|c| seed(c).map(|(state, earliest)| (c.events, state, earliest)))
        .unwrap_or_else(|| (0, monitor.initial_state(), None));
    let mut check = Check::new(state);
    check.earliest = earliest;
    check.fold(monitor, &views[resumed_at as usize..], tape);
    SeededCheck {
        check,
        resumed_at,
        replayed: total - resumed_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monsem_core::Value;
    use monsem_syntax::Annotation;
    use monsem_tspec::TapeOutcome;

    const SPEC: &str = "always(post(p) => value >= 0)";
    const STREAM: &str = "stream neg = count(value < 0) over window(8)\n\
                          trigger bad = neg >= 2\n\
                          deadline post(p) every 50 ms";

    fn tape_events(n: u64, bad_at: &[u64], done: bool) -> Vec<TapeEvent> {
        let ann = Annotation::label("p");
        let mut evs: Vec<TapeEvent> = (0..n)
            .map(|i| {
                let v = if bad_at.contains(&i) { -1 } else { 1 };
                TapeEvent::post(&ann, &Value::Int(v), i).at(i * 25)
            })
            .collect();
        if done {
            evs.push(TapeEvent::done(n).at(n * 25));
        }
        evs
    }

    fn assert_agrees(full: &TapeCheck, seeded: &TapeCheck) {
        // Messages can differ (the seed has no trace ring); the verdict
        // class, earliest step, and DFA state must not.
        assert_eq!(
            std::mem::discriminant(&full.outcome),
            std::mem::discriminant(&seeded.outcome)
        );
        assert_eq!(full.earliest_violation, seeded.earliest_violation);
        assert_eq!(full.state.state, seeded.state.state);
        assert_eq!(full.state.events, seeded.state.events);
    }

    #[test]
    fn seeded_spec_check_matches_full_replay() {
        let m = SpecMonitor::new("ck", SPEC).unwrap();
        for bad_at in [&[][..], &[3][..], &[3, 57][..], &[57][..]] {
            for done in [false, true] {
                let events = tape_events(80, bad_at, done);
                let tape = write_tape_checkpointed(&events, &m, None, 16);
                let full = m.check_tape(events.iter());
                for from in [0, 15, 16, 40, 80, 200] {
                    let seeded = check_tape_from(&m, &tape, from).unwrap();
                    assert_agrees(&full, &seeded.check);
                    if from >= 16 {
                        assert!(seeded.resumed_at >= 16, "from={from} used a checkpoint");
                    }
                }
            }
        }
    }

    #[test]
    fn seeded_stream_check_matches_full_replay() {
        let spec = SpecMonitor::new("ck", SPEC).unwrap();
        let m = StreamMonitor::new("ck-stream", STREAM).unwrap();
        let events = tape_events(90, &[10, 12, 70], true);
        let tape = write_tape_checkpointed(&events, &spec, Some(&m), 20);
        let full = m.check_tape(events.iter());
        for from in [0, 20, 60, 90] {
            let seeded = check_stream_from(&m, &tape, from).unwrap();
            assert_eq!(full.firings, seeded.check.firings);
            assert_eq!(full.fired_total, seeded.check.fired_total);
            assert_eq!(full.missed, seeded.check.missed);
            assert_eq!(full.state, seeded.check.state);
        }
        let at_60 = check_stream_from(&m, &tape, 60).unwrap();
        assert_eq!(at_60.resumed_at, 60);
        assert_eq!(at_60.replayed, 91 - 60);
    }

    #[test]
    fn wrong_spec_digest_falls_back_to_full_replay() {
        let m = SpecMonitor::new("ck", SPEC).unwrap();
        let events = tape_events(40, &[5], false);
        let tape = write_tape_checkpointed(&events, &m, None, 8);
        let other = SpecMonitor::new("ck", "never(post(q))").unwrap();
        let seeded = check_tape_from(&other, &tape, 40).unwrap();
        assert_eq!(seeded.resumed_at, 0, "foreign checkpoints are not trusted");
        assert_eq!(seeded.replayed, 40);
        // And the verdict is the honest one for *this* spec.
        assert_eq!(seeded.check.outcome, TapeOutcome::Pending);

        let stream = StreamMonitor::new("s", "stream c = count(post(_))").unwrap();
        let with_stream = check_stream_from(&stream, &tape, 40).unwrap();
        assert_eq!(
            with_stream.resumed_at, 0,
            "no stream snapshots on this tape"
        );
    }

    #[test]
    fn a_checkpoint_naming_a_state_the_spec_lacks_is_not_trusted() {
        // The digest matches (anyone can compute it) but the DFA state is
        // out of range: seeding from it would index past the table.
        let m = SpecMonitor::new("ck", SPEC).unwrap();
        let events = tape_events(40, &[25], true);
        let mut w = TapeWriter::checkpointed(Vec::new(), true);
        for (i, ev) in events.iter().enumerate() {
            w.record_ref(ev);
            if i == 19 {
                w.checkpoint(&Checkpoint {
                    events: 20,
                    step: ev.step,
                    spec_digest: spec_digest(SPEC),
                    dfa_state: 99,
                    dfa_events: 20,
                    earliest_violation: None,
                    stream: None,
                });
            }
        }
        let tape = w.finish().unwrap();
        let seeded = check_tape_from(&m, &tape, 30).unwrap();
        assert_eq!(seeded.resumed_at, 0, "the lying checkpoint is skipped");
        assert_eq!(seeded.check, m.check_tape(events.iter()));
    }

    #[test]
    fn a_stream_snapshot_claiming_more_than_its_bytes_is_not_trusted() {
        // A spec with no streams or triggers: the snapshot's firing
        // count is its fifth byte. Claim 2^40 firings, digests intact.
        let m = StreamMonitor::new("ck-stream", "deadline post(p) every 50 ms").unwrap();
        let honest = snapshot_state(&m.initial_state());
        assert_eq!(&honest[1..5], &[0, 0, 0, 0]);
        let mut forged = honest[..4].to_vec();
        crate::wire::put_uvarint(&mut forged, 1 << 40);
        forged.extend_from_slice(&honest[5..]);
        assert!(restore_state(&m, &forged).is_err());
        let events = tape_events(30, &[], true);
        let mut w = TapeWriter::checkpointed(Vec::new(), true);
        for (i, ev) in events.iter().enumerate() {
            w.record_ref(ev);
            if i == 9 {
                w.checkpoint(&Checkpoint {
                    events: 10,
                    step: ev.step,
                    spec_digest: spec_digest(SPEC),
                    dfa_state: 0,
                    dfa_events: 10,
                    earliest_violation: None,
                    stream: Some(StreamCheckpoint {
                        spec_digest: spec_digest(m.spec().source()),
                        snapshot_digest: digest64(&forged),
                        snapshot: forged.clone(),
                    }),
                });
            }
        }
        let tape = w.finish().unwrap();
        let seeded = check_stream_from(&m, &tape, 20).unwrap();
        assert_eq!(seeded.resumed_at, 0, "the forged snapshot is skipped");
        assert_eq!(seeded.check, m.check_tape(events.iter()));
    }

    #[test]
    fn enforcing_monitors_seed_past_their_abort_consistently() {
        // An enforcing full replay stops folding at the abort while the
        // checkpoint recorder keeps observing, so the fold *counters*
        // legitimately differ; the verdict and its earliest step must
        // not.
        let m = SpecMonitor::new("ck", SPEC).unwrap().enforcing();
        let events = tape_events(50, &[7], false);
        let tape = write_tape_checkpointed(&events, &m, None, 10);
        let full = m.check_tape(events.iter());
        let seeded = check_tape_from(&m, &tape, 30).unwrap();
        assert!(matches!(full.outcome, TapeOutcome::Violated(_)));
        assert!(matches!(seeded.check.outcome, TapeOutcome::Violated(_)));
        assert_eq!(full.earliest_violation, Some(7));
        assert_eq!(seeded.check.earliest_violation, Some(7));
    }
}
