//! A compact binary codec for [`StreamState`]: the stream half of tape
//! checkpoints.
//!
//! A checkpoint wants to resume a stream monitor mid-tape without
//! replaying the prefix, so the snapshot must carry *everything* that
//! shapes future evolution and the final verdict: aggregate states
//! (rings, panes, cumulative totals), current values, trigger edges,
//! retained firings, deadline clocks, and the counters. The shard
//! replay tape ([`StreamState::tape`]) is deliberately *not* carried —
//! it only exists inside fork-join evaluation, where checkpoints do not.
//!
//! The encoding reuses the tape format's conventions (LEB128 varints,
//! zigzag for signed) but is deliberately self-contained: this crate
//! sits below `monsem-tape` in the dependency order, so the tape layer
//! treats snapshot bytes as opaque and frames them with a digest.

use crate::eval::{AggState, Contribution, DeadlineState, Pane, Totals};
use crate::monitor::{Firing, StreamMonitor, StreamState};
use std::collections::VecDeque;
use std::fmt;

/// The snapshot encoding version (independent of the tape version).
pub const SNAPSHOT_VERSION: u8 = 1;

const AGG_CUMULATIVE: u8 = 0;
const AGG_RING: u8 = 1;
const AGG_PANES: u8 = 2;
const AGG_DERIVED: u8 = 3;

const C_SKIP: u8 = 0;
const C_HIT: u8 = 1;
const C_VAL: u8 = 2;

/// A malformed or mismatched snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot's version byte is newer than this reader.
    BadVersion(u8),
    /// The bytes ended mid-field or a count overflowed.
    Malformed,
    /// The snapshot's shape does not match the monitor's spec (wrong
    /// stream/trigger/deadline counts or aggregate kinds) — it was taken
    /// under a different spec.
    SpecMismatch(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Malformed => write!(f, "malformed stream snapshot"),
            SnapshotError::SpecMismatch(what) => {
                write!(f, "snapshot does not fit this stream spec: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

fn put_uvarint(out: &mut Vec<u8>, mut n: u64) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_ivarint(out: &mut Vec<u8>, n: i64) {
    put_uvarint(out, ((n << 1) ^ (n >> 63)) as u64);
}

fn put_opt_u64(out: &mut Vec<u8>, n: Option<u64>) {
    match n {
        Some(n) => {
            out.push(1);
            put_uvarint(out, n);
        }
        None => out.push(0),
    }
}

fn put_opt_i64(out: &mut Vec<u8>, n: Option<i64>) {
    match n {
        Some(n) => {
            out.push(1);
            put_ivarint(out, n);
        }
        None => out.push(0),
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        let b = *self.buf.get(self.at).ok_or(SnapshotError::Malformed)?;
        self.at += 1;
        Ok(b)
    }

    fn uvarint(&mut self) -> Result<u64, SnapshotError> {
        let mut n: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(SnapshotError::Malformed);
            }
            n |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(n);
            }
            shift += 7;
        }
    }

    fn ivarint(&mut self) -> Result<i64, SnapshotError> {
        let n = self.uvarint()?;
        Ok(((n >> 1) as i64) ^ -((n & 1) as i64))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        Ok(match self.u8()? {
            0 => None,
            _ => Some(self.uvarint()?),
        })
    }

    fn opt_i64(&mut self) -> Result<Option<i64>, SnapshotError> {
        Ok(match self.u8()? {
            0 => None,
            _ => Some(self.ivarint()?),
        })
    }

    /// An element count. Every element takes at least one byte, so a
    /// count past the bytes left is a lie — rejected before anything is
    /// allocated for it.
    fn len(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.uvarint()?)
            .ok()
            .filter(|&n| n <= self.buf.len() - self.at)
            .ok_or(SnapshotError::Malformed)
    }

    /// A ring capacity: bounded by the widest event window a spec may
    /// declare, not by the bytes left (a ring's free slots are not
    /// serialized).
    fn cap(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.uvarint()?)
            .ok()
            .filter(|&n| n <= crate::parser::MAX_EVENT_WINDOW)
            .ok_or(SnapshotError::Malformed)
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.len()?;
        let end = self.at.checked_add(len).ok_or(SnapshotError::Malformed)?;
        let bytes = self.buf.get(self.at..end).ok_or(SnapshotError::Malformed)?;
        self.at = end;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Malformed)
    }
}

fn put_totals(out: &mut Vec<u8>, t: &Totals) {
    put_uvarint(out, t.count);
    put_ivarint(out, t.sum);
    put_uvarint(out, t.vals);
}

fn read_totals(r: &mut Reader<'_>) -> Result<Totals, SnapshotError> {
    Ok(Totals {
        count: r.uvarint()?,
        sum: r.ivarint()?,
        vals: r.uvarint()?,
    })
}

fn put_contribution(out: &mut Vec<u8>, c: Contribution) {
    match c {
        Contribution::Skip => out.push(C_SKIP),
        Contribution::Hit => out.push(C_HIT),
        Contribution::Val(v) => {
            out.push(C_VAL);
            put_ivarint(out, v);
        }
    }
}

fn read_contribution(r: &mut Reader<'_>) -> Result<Contribution, SnapshotError> {
    Ok(match r.u8()? {
        C_SKIP => Contribution::Skip,
        C_HIT => Contribution::Hit,
        C_VAL => Contribution::Val(r.ivarint()?),
        _ => return Err(SnapshotError::Malformed),
    })
}

fn put_agg(out: &mut Vec<u8>, agg: &AggState) {
    match agg {
        AggState::Cumulative { t, min, max } => {
            out.push(AGG_CUMULATIVE);
            put_totals(out, t);
            put_opt_i64(out, *min);
            put_opt_i64(out, *max);
        }
        AggState::Ring {
            buf,
            cap,
            t,
            minq,
            maxq,
            pos,
        } => {
            out.push(AGG_RING);
            put_uvarint(out, *cap as u64);
            put_totals(out, t);
            put_uvarint(out, *pos);
            put_uvarint(out, buf.len() as u64);
            for &c in buf {
                put_contribution(out, c);
            }
            for q in [minq, maxq] {
                put_uvarint(out, q.len() as u64);
                for &(p, v) in q {
                    put_uvarint(out, p);
                    put_ivarint(out, v);
                }
            }
        }
        AggState::Panes { panes, width, cur } => {
            out.push(AGG_PANES);
            put_uvarint(out, *width);
            put_opt_u64(out, *cur);
            put_uvarint(out, panes.len() as u64);
            for p in panes {
                put_totals(out, &p.t);
                put_opt_i64(out, p.min);
                put_opt_i64(out, p.max);
            }
        }
        AggState::Derived => out.push(AGG_DERIVED),
    }
}

fn read_agg(r: &mut Reader<'_>) -> Result<AggState, SnapshotError> {
    Ok(match r.u8()? {
        AGG_CUMULATIVE => AggState::Cumulative {
            t: read_totals(r)?,
            min: r.opt_i64()?,
            max: r.opt_i64()?,
        },
        AGG_RING => {
            let cap = r.cap()?;
            let t = read_totals(r)?;
            let pos = r.uvarint()?;
            let n = r.len()?;
            if n > cap {
                return Err(SnapshotError::Malformed);
            }
            // Restore into the same pre-allocated capacities the live
            // evaluator uses, so the steady state stays allocation-free.
            let mut buf = VecDeque::with_capacity(cap + 1);
            for _ in 0..n {
                buf.push_back(read_contribution(r)?);
            }
            let mut queues = Vec::with_capacity(2);
            for _ in 0..2 {
                let n = r.len()?;
                if n > cap {
                    return Err(SnapshotError::Malformed);
                }
                let mut q = VecDeque::with_capacity(if n == 0 { 0 } else { cap + 1 });
                for _ in 0..n {
                    let p = r.uvarint()?;
                    let v = r.ivarint()?;
                    q.push_back((p, v));
                }
                queues.push(q);
            }
            let maxq = queues.pop().expect("two queues");
            let minq = queues.pop().expect("two queues");
            AggState::Ring {
                buf,
                cap,
                t,
                minq,
                maxq,
                pos,
            }
        }
        AGG_PANES => {
            let width = r.uvarint()?.max(1);
            let cur = r.opt_u64()?;
            let n = r.len()?;
            if n > crate::eval::PANES {
                return Err(SnapshotError::Malformed);
            }
            let mut panes = Vec::with_capacity(n);
            for _ in 0..n {
                panes.push(Pane {
                    t: read_totals(r)?,
                    min: r.opt_i64()?,
                    max: r.opt_i64()?,
                });
            }
            AggState::Panes { panes, width, cur }
        }
        AGG_DERIVED => AggState::Derived,
        _ => return Err(SnapshotError::Malformed),
    })
}

/// Serializes a [`StreamState`] (minus its fork-join shard tape, which
/// never coexists with checkpoints) into self-contained bytes.
pub fn snapshot_state(s: &StreamState) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(SNAPSHOT_VERSION);
    put_uvarint(&mut out, s.aggs.len() as u64);
    for a in &s.aggs {
        put_agg(&mut out, a);
    }
    put_uvarint(&mut out, s.values.len() as u64);
    for v in &s.values {
        put_opt_i64(&mut out, *v);
    }
    put_uvarint(&mut out, s.prev.len() as u64);
    for &p in &s.prev {
        out.push(u8::from(p));
    }
    put_uvarint(&mut out, s.firings.len() as u64);
    for f in &s.firings {
        put_str(&mut out, &f.trigger);
        put_uvarint(&mut out, f.at);
        put_opt_u64(&mut out, f.step);
        put_uvarint(&mut out, f.time);
        put_str(&mut out, &f.reason);
    }
    put_uvarint(&mut out, s.fired_total);
    put_uvarint(&mut out, s.deadlines.len() as u64);
    for d in &s.deadlines {
        put_opt_u64(&mut out, d.last);
        out.push(u8::from(d.open_miss));
        put_uvarint(&mut out, d.missed);
    }
    put_uvarint(&mut out, s.missed_total);
    match &s.first_miss {
        Some(m) => {
            out.push(1);
            put_str(&mut out, m);
        }
        None => out.push(0),
    }
    put_uvarint(&mut out, s.events);
    put_uvarint(&mut out, s.last_time);
    out.push(u8::from(s.lossy));
    out
}

/// Rebuilds a [`StreamState`] from [`snapshot_state`] bytes, validated
/// against `monitor`'s compiled spec: the stream, trigger, and deadline
/// counts must match, or the snapshot was taken under a different spec
/// and seeding from it would be silently wrong.
///
/// # Errors
///
/// [`SnapshotError`] on version, shape, or byte-level mismatches.
pub fn restore_state(monitor: &StreamMonitor, bytes: &[u8]) -> Result<StreamState, SnapshotError> {
    let mut r = Reader { buf: bytes, at: 0 };
    let version = r.u8()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let spec = monitor.spec();
    let n_aggs = r.len()?;
    if n_aggs != spec.streams().len() {
        return Err(SnapshotError::SpecMismatch("stream count"));
    }
    let mut aggs = Vec::with_capacity(n_aggs);
    for _ in 0..n_aggs {
        aggs.push(read_agg(&mut r)?);
    }
    let n_values = r.len()?;
    if n_values != spec.streams().len() {
        return Err(SnapshotError::SpecMismatch("value count"));
    }
    let mut values = Vec::with_capacity(n_values);
    for _ in 0..n_values {
        values.push(r.opt_i64()?);
    }
    let n_prev = r.len()?;
    if n_prev != spec.triggers().len() {
        return Err(SnapshotError::SpecMismatch("trigger count"));
    }
    let mut prev = Vec::with_capacity(n_prev);
    for _ in 0..n_prev {
        prev.push(r.u8()? != 0);
    }
    let n_firings = r.len()?;
    let mut firings = Vec::with_capacity(n_firings);
    for _ in 0..n_firings {
        firings.push(Firing {
            trigger: r.string()?,
            at: r.uvarint()?,
            step: r.opt_u64()?,
            time: r.uvarint()?,
            reason: r.string()?,
        });
    }
    let fired_total = r.uvarint()?;
    let n_deadlines = r.len()?;
    if n_deadlines != spec.deadlines().len() {
        return Err(SnapshotError::SpecMismatch("deadline count"));
    }
    let mut deadlines = Vec::with_capacity(n_deadlines);
    for _ in 0..n_deadlines {
        deadlines.push(DeadlineState {
            last: r.opt_u64()?,
            open_miss: r.u8()? != 0,
            missed: r.uvarint()?,
        });
    }
    let missed_total = r.uvarint()?;
    let first_miss = match r.u8()? {
        0 => None,
        _ => Some(r.string()?),
    };
    let events = r.uvarint()?;
    let last_time = r.uvarint()?;
    let lossy = r.u8()? != 0;
    if r.at != bytes.len() {
        return Err(SnapshotError::Malformed);
    }
    Ok(StreamState {
        aggs,
        values,
        prev,
        firings,
        fired_total,
        deadlines,
        missed_total,
        first_miss,
        events,
        last_time,
        tape: None,
        lossy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::StreamCheck;
    use monsem_monitor::tape::TapeEvent;
    use monsem_monitor::Monitor;
    use monsem_syntax::Annotation;

    const SPEC: &str = "stream neg = count(value < 0) over window(5)\n\
                        stream lat = max(post(req)) over window(200 ms)\n\
                        stream ratio = lat / neg\n\
                        trigger hot = neg >= 2\n\
                        deadline post(req) every 50 ms";

    fn events(n: u64) -> Vec<TapeEvent> {
        let req = Annotation::label("req");
        (0..n)
            .map(|i| {
                let v = (i as i64 % 7) - 3;
                TapeEvent::post(&req, &monsem_core::Value::Int(v), i).at(i * 20)
            })
            .collect()
    }

    fn check_equal(a: &StreamCheck, b: &StreamCheck) {
        assert_eq!(a.firings, b.firings);
        assert_eq!(a.fired_total, b.fired_total);
        assert_eq!(a.missed, b.missed);
        assert_eq!(a.state, b.state);
    }

    #[test]
    fn snapshot_roundtrips_mid_trace() {
        let m = StreamMonitor::new("snap", SPEC).unwrap();
        let evs = events(40);
        let mid = m.check_tape(evs.iter().take(17)).state;
        let bytes = snapshot_state(&mid);
        let restored = restore_state(&m, &bytes).unwrap();
        assert_eq!(restored, mid);
        // And the restored state evolves identically from there on.
        let full = m.check_tape(evs.iter());
        let seeded = m.check_tape_seeded(restored, evs.iter().skip(17));
        check_equal(&full, &seeded);
    }

    #[test]
    fn snapshot_rejects_a_different_spec() {
        let m = StreamMonitor::new("snap", SPEC).unwrap();
        let other = StreamMonitor::new("other", "stream s = count(post(_))").unwrap();
        let bytes = snapshot_state(&m.initial_state());
        assert!(matches!(
            restore_state(&other, &bytes),
            Err(SnapshotError::SpecMismatch(_))
        ));
    }

    #[test]
    fn counts_past_the_bytes_left_are_rejected_before_allocating() {
        // No streams or triggers: the firing count is the fifth byte.
        let m = StreamMonitor::new("snap", "deadline post(p) every 50 ms").unwrap();
        let bytes = snapshot_state(&m.initial_state());
        let mut forged = bytes[..4].to_vec();
        put_uvarint(&mut forged, 1 << 40);
        forged.extend_from_slice(&bytes[5..]);
        assert_eq!(restore_state(&m, &forged), Err(SnapshotError::Malformed));
        // A 2^40 inserted anywhere in a richer snapshot — a count, a
        // ring capacity, or a plain value — is decoded or rejected, and
        // never allocated for.
        let m = StreamMonitor::new("snap", SPEC).unwrap();
        let bytes = snapshot_state(&m.check_tape(events(9).iter()).state);
        for at in 1..bytes.len() {
            let mut forged = bytes[..at].to_vec();
            put_uvarint(&mut forged, 1 << 40);
            forged.extend_from_slice(&bytes[at..]);
            let _ = restore_state(&m, &forged);
        }
    }

    #[test]
    fn truncated_and_versioned_snapshots_are_rejected() {
        let m = StreamMonitor::new("snap", SPEC).unwrap();
        let bytes = snapshot_state(&m.check_tape(events(9).iter()).state);
        assert!(restore_state(&m, &bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        bad[0] = 9;
        assert_eq!(restore_state(&m, &bad), Err(SnapshotError::BadVersion(9)));
        // Trailing garbage is not silently ignored either.
        let mut long = bytes;
        long.push(0);
        assert_eq!(restore_state(&m, &long), Err(SnapshotError::Malformed));
    }
}
