//! The versioned binary tape format.
//!
//! A tape is a header followed by a flat record stream:
//!
//! ```text
//! header  := "MTAP" u16-le version (1 untimed, 2 timed)
//! record  := STR | PRE | POST | DONE | TIME (v2 only)
//! STR     := 0x01 uvarint(len) bytes        -- interns the next string id
//! PRE     := 0x02 uvarint(ns) uvarint(name) uvarint(step)
//! POST    := 0x03 uvarint(ns) uvarint(name) uvarint(step)
//!                 u8(flags) [ivarint(int)] uvarint(display)
//! DONE    := 0x04 uvarint(step)
//! TIME    := 0x05 uvarint(delta-ms)         -- stamps the next event
//! ```
//!
//! Strings (namespaces, names, value displays) are interned: the first
//! `STR` record defines id 0, the next id 1, and so on; event records
//! refer to strings by id. `POST` flags: bit 0 — the value was an
//! integer, carried as a zigzag varint; bit 1 — the value was an
//! unsorted list ([`ValueDesc::unsorted`]). All integers are LEB128
//! varints, so a typical event costs a handful of bytes once its strings
//! are warm.
//!
//! **Format v2** adds optional per-event monotonic timestamps: a `TIME`
//! record carries the delta (in milliseconds, LEB128) from the previous
//! stamped event and applies to the immediately following event record.
//! Events without a preceding `TIME` record stay unstamped, so mixed
//! tapes round-trip exactly. A writer emits v2 only when the recording
//! had a clock attached ([`write_tape`] auto-detects; see
//! [`TapeWriter::timed`]); readers accept v1 tapes unchanged.
//!
//! **Format v3** adds `CKPT` records: a [`Checkpoint`] summarizes the
//! monitor state reached after folding every event before it — the DFA
//! state of the spec it was folded under (named by digest), the
//! earliest-violation step, and optionally an opaque stream-monitor
//! snapshot with its own digest. A checker may seed from the last
//! checkpoint at or before a requested offset instead of replaying from
//! zero (`monsem check --from`). Readers that do not care
//! ([`read_tape`]) skip `CKPT` records, so v3 tapes negotiate down
//! cleanly; [`read_tape_checkpointed`] surfaces them.
//!
//! ```text
//! CKPT := 0x06 uvarint(events) uvarint(step) u8(flags)
//!              uvarint(spec-digest) uvarint(dfa-state) uvarint(dfa-events)
//!              [uvarint(earliest-violation-step)]            -- flags bit 0
//!              [uvarint(stream-spec-digest)
//!               uvarint(snapshot-digest)
//!               uvarint(len) snapshot-bytes]                 -- flags bit 1
//! ```
//!
//! The writer is a [`TapeSink`], so it drops into every recording entry
//! point ([`Taping`](monsem_monitor::Taping), `record_monitored`, the
//! pe engine); I/O errors are sticky and surface at
//! [`TapeWriter::finish`], keeping the hook path infallible as
//! [`TapeSink`] requires.

use crate::wire::{put_ivarint, put_str, put_uvarint, ByteReader, WireError};
use monsem_monitor::tape::{
    fnv1a, EventView, Strings, TapeEvent, TapePhase, TapeSink, TextIndex, ValueDesc, NO_STRING,
};
use std::fmt;
use std::io::{self, Write};

/// The four magic bytes opening every tape.
pub const MAGIC: [u8; 4] = *b"MTAP";
/// The baseline (untimed) format version.
pub const VERSION: u16 = 1;
/// The timed format version: v1 plus `TIME` records.
pub const VERSION_TIMED: u16 = 2;
/// The checkpointed format version: v2 plus `CKPT` records.
pub const VERSION_CHECKPOINT: u16 = 3;

const TAG_STR: u8 = 0x01;
const TAG_PRE: u8 = 0x02;
const TAG_POST: u8 = 0x03;
const TAG_DONE: u8 = 0x04;
const TAG_TIME: u8 = 0x05;
const TAG_CKPT: u8 = 0x06;

const FLAG_INT: u8 = 0x01;
const FLAG_UNSORTED: u8 = 0x02;

const CKPT_VIOLATION: u8 = 0x01;
const CKPT_STREAM: u8 = 0x02;

/// FNV-1a over `bytes`: the digest used to name specs and stream
/// snapshots inside [`Checkpoint`] records. Not cryptographic — it
/// guards against *mistakes* (checking a tape's checkpoints against the
/// wrong spec), not adversaries.
pub fn digest64(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

/// A folded-prefix summary embedded in a v3 tape: everything a checker
/// needs to resume replay *after* the events preceding this record,
/// without folding them again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Tape events preceding this record — the replay resume offset.
    pub events: u64,
    /// Step index of the last preceding event (`0` before any event).
    pub step: u64,
    /// [`digest64`] of the spec source the DFA fields were folded under.
    /// A checker running a different spec must ignore this checkpoint.
    pub spec_digest: u64,
    /// The spec monitor's DFA state after the prefix.
    pub dfa_state: u32,
    /// The spec monitor's relevant-event count after the prefix (tape
    /// events the automaton did not observe are not in it).
    pub dfa_events: u64,
    /// Step of the event on which the prefix first entered a violation,
    /// if it did.
    pub earliest_violation: Option<u64>,
    /// Stream-monitor snapshot of the same prefix, when one was folded
    /// alongside.
    pub stream: Option<StreamCheckpoint>,
}

/// An opaque stream-monitor snapshot rider on a [`Checkpoint`]. The
/// bytes are produced and consumed by `monsem-stream`'s snapshot codec;
/// the tape layer only frames and digests them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// [`digest64`] of the stream spec source the snapshot belongs to.
    pub spec_digest: u64,
    /// [`digest64`] of `snapshot` — detects truncation or corruption
    /// before a checker trusts the bytes.
    pub snapshot_digest: u64,
    /// The serialized stream state.
    pub snapshot: Vec<u8>,
}

/// A malformed tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TapeError {
    /// The input does not start with [`MAGIC`].
    BadMagic,
    /// The version is newer than this reader understands.
    BadVersion(u16),
    /// An unknown record tag, with its byte offset.
    BadTag(u8, usize),
    /// An event referred to a string id never interned.
    BadStringId(u64),
    /// A byte-level decoding failure.
    Wire(WireError),
}

impl fmt::Display for TapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapeError::BadMagic => write!(f, "not a tape: bad magic"),
            TapeError::BadVersion(v) => write!(f, "unsupported tape version {v}"),
            TapeError::BadTag(t, at) => write!(f, "unknown record tag {t:#04x} at byte {at}"),
            TapeError::BadStringId(id) => write!(f, "reference to un-interned string id {id}"),
            TapeError::Wire(e) => write!(f, "malformed tape: {e}"),
        }
    }
}

impl std::error::Error for TapeError {}

impl From<WireError> for TapeError {
    fn from(e: WireError) -> TapeError {
        TapeError::Wire(e)
    }
}

/// The one event encoder, behind [`TapeWriter`] and [`write_tape`]: it
/// appends each event's records to an output buffer and interns the
/// event's strings through a [`TextIndex`] over the text of every `STR`
/// record it has written, kept in one arena. A string's id is its `STR`
/// record's ordinal, so ids follow first use.
#[derive(Debug, Default)]
struct Encoder {
    index: TextIndex,
    /// The text of every string written, in id order.
    arena: String,
    /// Each string's span in `arena`, by id.
    spans: Vec<(usize, usize)>,
    timed: bool,
    last_time: u64,
}

/// Output bytes [`write_tape`] presizes per event; a denser tape grows
/// its buffer.
const PRESIZE_BYTES_PER_EVENT: usize = 16;

/// Most strings an encoder is presized for: one per event (its display)
/// plus 16 (namespaces and names repeat), up to this many; a longer tape
/// grows its index as it goes. Arena bytes are presized at 8 per string.
const PRESIZE_MAX_STRINGS: usize = 4096;

impl Encoder {
    /// An encoder presized for a tape of `events` events.
    fn for_events(events: usize, timed: bool) -> Encoder {
        let strings = events.saturating_add(16).min(PRESIZE_MAX_STRINGS);
        Encoder {
            index: TextIndex::with_capacity(strings),
            arena: String::with_capacity(8 * strings),
            spans: Vec::with_capacity(strings),
            timed,
            last_time: 0,
        }
    }

    /// The id of `s`, appending an `STR` record to `out` if `s` is new.
    #[inline]
    fn intern(&mut self, out: &mut Vec<u8>, s: &str) -> u64 {
        let id = self.spans.len();
        let (arena, spans) = (&self.arena, &self.spans);
        let next = u32::try_from(id).unwrap_or(NO_STRING);
        if let Some(known) = self.index.intern(s, next, |i| {
            let (start, end) = spans[i as usize];
            &arena[start..end]
        }) {
            return u64::from(known);
        }
        let start = self.arena.len();
        self.arena.push_str(s);
        self.spans.push((start, self.arena.len()));
        out.push(TAG_STR);
        put_str(out, s);
        id as u64
    }

    /// Appends `event`'s records to `out`.
    fn event(&mut self, out: &mut Vec<u8>, event: &TapeEvent) {
        if self.timed {
            if let Some(t) = event.time {
                let t = t.max(self.last_time);
                out.push(TAG_TIME);
                put_uvarint(out, t - self.last_time);
                self.last_time = t;
            }
        }
        match event.phase {
            TapePhase::Pre => {
                let ns = self.intern(out, &event.namespace);
                let name = self.intern(out, &event.name);
                out.push(TAG_PRE);
                put_uvarint(out, ns);
                put_uvarint(out, name);
                put_uvarint(out, event.step);
            }
            TapePhase::Post => {
                let ns = self.intern(out, &event.namespace);
                let name = self.intern(out, &event.name);
                let (int, unsorted, display) = match &event.value {
                    Some(d) => (d.int, d.unsorted, d.display.as_str()),
                    None => (None, false, ""),
                };
                let display = self.intern(out, display);
                out.push(TAG_POST);
                put_uvarint(out, ns);
                put_uvarint(out, name);
                put_uvarint(out, event.step);
                let mut flags = 0u8;
                if int.is_some() {
                    flags |= FLAG_INT;
                }
                if unsorted {
                    flags |= FLAG_UNSORTED;
                }
                out.push(flags);
                if let Some(n) = int {
                    put_ivarint(out, n);
                }
                put_uvarint(out, display);
            }
            TapePhase::Done => {
                out.push(TAG_DONE);
                put_uvarint(out, event.step);
            }
        }
    }
}

/// Appends the tape header for `version` to `out`.
fn put_header(out: &mut Vec<u8>, version: u16) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
}

/// Streams [`TapeEvent`]s to a [`Write`] in the binary format.
///
/// Implements [`TapeSink`], whose `record` cannot fail; write errors are
/// therefore *sticky* — the first one is kept, subsequent records are
/// discarded, and [`TapeWriter::finish`] reports it.
#[derive(Debug)]
pub struct TapeWriter<W: Write> {
    out: W,
    encoder: Encoder,
    buf: Vec<u8>,
    error: Option<io::Error>,
    checkpointed: bool,
}

impl<W: Write> TapeWriter<W> {
    /// Opens an untimed (v1) tape: writes the header immediately. Event
    /// timestamps, if any, are dropped; use [`TapeWriter::timed`] to
    /// keep them.
    pub fn new(out: W) -> TapeWriter<W> {
        TapeWriter::with_version(out, false, false)
    }

    /// Opens a timed (v2) tape: stamped events get a `TIME` record with
    /// the millisecond delta from the previous stamped event (clamped
    /// monotone); unstamped events are written as in v1.
    pub fn timed(out: W) -> TapeWriter<W> {
        TapeWriter::with_version(out, true, false)
    }

    /// Opens a checkpointed (v3) tape: [`TapeWriter::checkpoint`] becomes
    /// available, and `timed` selects whether event timestamps are kept
    /// (v3 subsumes v2's `TIME` records).
    pub fn checkpointed(out: W, timed: bool) -> TapeWriter<W> {
        TapeWriter::with_version(out, timed, true)
    }

    fn with_version(out: W, timed: bool, checkpointed: bool) -> TapeWriter<W> {
        let mut w = TapeWriter {
            out,
            encoder: Encoder {
                timed,
                ..Encoder::default()
            },
            buf: Vec::new(),
            error: None,
            checkpointed,
        };
        let version = if checkpointed {
            VERSION_CHECKPOINT
        } else if timed {
            VERSION_TIMED
        } else {
            VERSION
        };
        put_header(&mut w.buf, version);
        w.flush_buf();
        w
    }

    /// Writes a `CKPT` record. No-op on v1/v2 tapes — only a writer
    /// opened with [`TapeWriter::checkpointed`] may carry them.
    pub fn checkpoint(&mut self, ckpt: &Checkpoint) {
        if !self.checkpointed || self.error.is_some() {
            return;
        }
        self.buf.push(TAG_CKPT);
        put_uvarint(&mut self.buf, ckpt.events);
        put_uvarint(&mut self.buf, ckpt.step);
        let mut flags = 0u8;
        if ckpt.earliest_violation.is_some() {
            flags |= CKPT_VIOLATION;
        }
        if ckpt.stream.is_some() {
            flags |= CKPT_STREAM;
        }
        self.buf.push(flags);
        put_uvarint(&mut self.buf, ckpt.spec_digest);
        put_uvarint(&mut self.buf, u64::from(ckpt.dfa_state));
        put_uvarint(&mut self.buf, ckpt.dfa_events);
        if let Some(step) = ckpt.earliest_violation {
            put_uvarint(&mut self.buf, step);
        }
        if let Some(sc) = &ckpt.stream {
            put_uvarint(&mut self.buf, sc.spec_digest);
            put_uvarint(&mut self.buf, sc.snapshot_digest);
            put_uvarint(&mut self.buf, sc.snapshot.len() as u64);
            self.buf.extend_from_slice(&sc.snapshot);
        }
        self.flush_buf();
    }

    fn flush_buf(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(&self.buf) {
                self.error = Some(e);
            }
        }
        self.buf.clear();
    }

    /// Flushes and returns the underlying writer, or the first write
    /// error encountered.
    ///
    /// # Errors
    ///
    /// The sticky [`io::Error`], if any record failed to write.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_buf();
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TapeWriter<W> {
    /// Appends one event by reference: the bytes are exactly those
    /// [`TapeSink::record`] writes, without moving or copying the event.
    pub fn record_ref(&mut self, event: &TapeEvent) {
        if self.error.is_some() {
            return;
        }
        self.encoder.event(&mut self.buf, event);
        self.flush_buf();
    }
}

impl<W: Write> TapeSink for TapeWriter<W> {
    fn record(&mut self, event: TapeEvent) {
        self.record_ref(&event);
    }
}

/// Serializes `events` into a fresh in-memory tape. Picks the version
/// automatically: v2 iff any event carries a timestamp (i.e. the
/// recording had a clock attached), v1 otherwise.
///
/// The records go straight into one buffer presized from the event
/// count. A timed encoder writes `TIME` records only for stamped events,
/// so on a tape without any it writes exactly the v1 records, and only
/// the header's version depends on the stamps.
pub fn write_tape<'a>(events: impl IntoIterator<Item = &'a TapeEvent>) -> Vec<u8> {
    let events = events.into_iter();
    let n = events.size_hint().0;
    let mut out = Vec::with_capacity(n.saturating_mul(PRESIZE_BYTES_PER_EVENT) + MAGIC.len() + 2);
    put_header(&mut out, VERSION);
    let mut encoder = Encoder::for_events(n, true);
    let mut timed = false;
    for ev in events {
        timed |= ev.time.is_some();
        encoder.event(&mut out, ev);
    }
    if timed {
        out[MAGIC.len()..MAGIC.len() + 2].copy_from_slice(&VERSION_TIMED.to_le_bytes());
    }
    out
}

/// Parses a binary tape back into its event stream.
///
/// # Errors
///
/// [`TapeError`] on any malformation: bad magic or version, unknown
/// tags, dangling string ids, or truncated records.
pub fn read_tape(buf: &[u8]) -> Result<Vec<TapeEvent>, TapeError> {
    read_tape_with(buf, None)
}

/// Parses a binary tape, also surfacing its [`Checkpoint`] records (v3;
/// v1/v2 tapes simply yield none). The returned checkpoints are in tape
/// order; each one's [`Checkpoint::events`] is the number of events
/// decoded before it.
///
/// # Errors
///
/// As for [`read_tape`].
pub fn read_tape_checkpointed(buf: &[u8]) -> Result<(Vec<TapeEvent>, Vec<Checkpoint>), TapeError> {
    let mut ckpts = Vec::new();
    let events = read_tape_with(buf, Some(&mut ckpts))?;
    Ok((events, ckpts))
}

/// [`read_tape`] as an owning adapter over the view decoder: each view
/// is materialized into a [`TapeEvent`] with its own strings.
fn read_tape_with(
    buf: &[u8],
    checkpoints: Option<&mut Vec<Checkpoint>>,
) -> Result<Vec<TapeEvent>, TapeError> {
    let mut spans = Vec::new();
    let mut events = Vec::new();
    decode_records(
        buf,
        &mut spans,
        |ev, spans| {
            let text = |id: u32| span_str(buf, spans, id).to_string();
            events.push(TapeEvent {
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
            });
        },
        checkpoints,
    )?;
    Ok(events)
}

/// The text of string `id` of a decoded tape (`""` for [`NO_STRING`]).
/// Every span was validated as UTF-8 when its `STR` record was decoded.
fn span_str<'a>(buf: &'a [u8], spans: &[(usize, usize)], id: u32) -> &'a str {
    spans
        .get(id as usize)
        .and_then(|&(start, end)| std::str::from_utf8(&buf[start..end]).ok())
        .unwrap_or("")
}

/// A reusable decoder from tape images to borrowed event views: the
/// server's decode. Decoding records each `STR` record's span and each
/// event as an [`EventView`]; no string is copied and, once the buffers
/// have grown to a batch's size, nothing is allocated.
#[derive(Debug, Default)]
pub struct ViewDecoder {
    spans: Vec<(usize, usize)>,
    events: Vec<EventView>,
}

/// A tape image decoded by a [`ViewDecoder`]: its string table and its
/// events as views, borrowed from the image and the decoder.
#[derive(Debug, Clone, Copy)]
pub struct DecodedTape<'a> {
    image: &'a [u8],
    spans: &'a [(usize, usize)],
    events: &'a [EventView],
}

impl ViewDecoder {
    /// A decoder with empty buffers.
    pub fn new() -> ViewDecoder {
        ViewDecoder::default()
    }

    /// Decodes `image` into views. `CKPT` records are validated and
    /// skipped.
    ///
    /// # Errors
    ///
    /// Exactly the [`TapeError`]s [`read_tape`] reports.
    pub fn decode<'a>(&'a mut self, image: &'a [u8]) -> Result<DecodedTape<'a>, TapeError> {
        self.decode_with(image, None)
    }

    /// [`ViewDecoder::decode`], also collecting the `CKPT` records.
    ///
    /// # Errors
    ///
    /// As for [`ViewDecoder::decode`].
    pub fn decode_checkpointed<'a>(
        &'a mut self,
        image: &'a [u8],
        checkpoints: &mut Vec<Checkpoint>,
    ) -> Result<DecodedTape<'a>, TapeError> {
        self.decode_with(image, Some(checkpoints))
    }

    fn decode_with<'a>(
        &'a mut self,
        image: &'a [u8],
        checkpoints: Option<&mut Vec<Checkpoint>>,
    ) -> Result<DecodedTape<'a>, TapeError> {
        self.spans.clear();
        self.events.clear();
        let events = &mut self.events;
        decode_records(image, &mut self.spans, |ev, _| events.push(ev), checkpoints)?;
        Ok(DecodedTape {
            image,
            spans: &self.spans,
            events: &self.events,
        })
    }
}

impl<'a> DecodedTape<'a> {
    /// The events, in tape order.
    pub fn events(&self) -> &'a [EventView] {
        self.events
    }
}

impl Strings for DecodedTape<'_> {
    fn get(&self, id: u32) -> &str {
        span_str(self.image, self.spans, id)
    }
}

/// The one tape decoder. Walks the records of `buf`, validating each,
/// and hands every event to `on_event` as a view into the string spans
/// recorded so far. `CKPT` records are pushed to `checkpoints` when
/// given, and skipped otherwise.
fn decode_records(
    buf: &[u8],
    spans: &mut Vec<(usize, usize)>,
    mut on_event: impl FnMut(EventView, &[(usize, usize)]),
    mut checkpoints: Option<&mut Vec<Checkpoint>>,
) -> Result<(), TapeError> {
    let mut r = ByteReader::new(buf);
    if r.bytes(4)? != MAGIC {
        return Err(TapeError::BadMagic);
    }
    let version = u16::from_le_bytes(r.bytes(2)?.try_into().expect("two bytes"));
    if !(VERSION..=VERSION_CHECKPOINT).contains(&version) {
        return Err(TapeError::BadVersion(version));
    }
    let mut last_time = 0u64;
    let mut pending_time: Option<u64> = None;
    let string = |spans: &[(usize, usize)], id: u64| -> Result<u32, TapeError> {
        u32::try_from(id)
            .ok()
            .filter(|&i| (i as usize) < spans.len())
            .ok_or(TapeError::BadStringId(id))
    };
    while !r.is_empty() {
        let at = r.position();
        let view = match r.u8()? {
            TAG_STR => {
                let len = usize::try_from(r.uvarint()?).map_err(|_| WireError::UnexpectedEof)?;
                let start = r.position();
                std::str::from_utf8(r.bytes(len)?).map_err(|_| WireError::BadUtf8)?;
                spans.push((start, start + len));
                continue;
            }
            TAG_TIME if version >= VERSION_TIMED => {
                last_time = last_time.saturating_add(r.uvarint()?);
                pending_time = Some(last_time);
                continue;
            }
            TAG_CKPT if version >= VERSION_CHECKPOINT => {
                let ckpt = read_checkpoint(&mut r, checkpoints.is_some())?;
                if let Some(out) = checkpoints.as_deref_mut() {
                    out.push(ckpt);
                }
                continue;
            }
            TAG_PRE => EventView {
                phase: TapePhase::Pre,
                namespace: string(spans, r.uvarint()?)?,
                name: string(spans, r.uvarint()?)?,
                display: NO_STRING,
                int: None,
                unsorted: false,
                step: r.uvarint()?,
                time: None,
            },
            TAG_POST => {
                let namespace = string(spans, r.uvarint()?)?;
                let name = string(spans, r.uvarint()?)?;
                let step = r.uvarint()?;
                let flags = r.u8()?;
                let int = if flags & FLAG_INT != 0 {
                    Some(r.ivarint()?)
                } else {
                    None
                };
                EventView {
                    phase: TapePhase::Post,
                    namespace,
                    name,
                    display: string(spans, r.uvarint()?)?,
                    int,
                    unsorted: flags & FLAG_UNSORTED != 0,
                    step,
                    time: None,
                }
            }
            TAG_DONE => EventView {
                phase: TapePhase::Done,
                namespace: NO_STRING,
                name: NO_STRING,
                display: NO_STRING,
                int: None,
                unsorted: false,
                step: r.uvarint()?,
                time: None,
            },
            tag => return Err(TapeError::BadTag(tag, at)),
        };
        on_event(
            EventView {
                time: pending_time.take(),
                ..view
            },
            spans,
        );
    }
    Ok(())
}

/// Reads the body of a `CKPT` record; the snapshot bytes are copied only
/// when the record is `kept`.
fn read_checkpoint(r: &mut ByteReader<'_>, kept: bool) -> Result<Checkpoint, TapeError> {
    let events = r.uvarint()?;
    let step = r.uvarint()?;
    let flags = r.u8()?;
    let spec_digest = r.uvarint()?;
    let dfa_state =
        u32::try_from(r.uvarint()?).map_err(|_| TapeError::Wire(WireError::VarintOverflow))?;
    let dfa_events = r.uvarint()?;
    let earliest_violation = if flags & CKPT_VIOLATION != 0 {
        Some(r.uvarint()?)
    } else {
        None
    };
    let stream = if flags & CKPT_STREAM != 0 {
        let sd = r.uvarint()?;
        let snap_digest = r.uvarint()?;
        let len = usize::try_from(r.uvarint()?)
            .map_err(|_| TapeError::Wire(WireError::VarintOverflow))?;
        let bytes = r.bytes(len)?;
        Some(StreamCheckpoint {
            spec_digest: sd,
            snapshot_digest: snap_digest,
            snapshot: if kept { bytes.to_vec() } else { Vec::new() },
        })
    } else {
        None
    };
    Ok(Checkpoint {
        events,
        step,
        spec_digest,
        dfa_state,
        dfa_events,
        earliest_violation,
        stream,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use monsem_core::Value;
    use monsem_syntax::Annotation;

    fn sample_events() -> Vec<TapeEvent> {
        let a = Annotation::label("fac");
        let b = Annotation::label("acc");
        vec![
            TapeEvent::pre(&a, 0),
            TapeEvent::post(&a, &Value::Int(-42), 1),
            TapeEvent::pre(&b, 2),
            TapeEvent::post(
                &b,
                &Value::list(vec![Value::Int(3), Value::Int(1), Value::Int(2)]),
                3,
            ),
            TapeEvent::post(&a, &Value::Bool(true), 4),
            TapeEvent::done(5),
        ]
    }

    #[test]
    fn tape_roundtrips_exactly() {
        let events = sample_events();
        let bytes = write_tape(&events);
        assert_eq!(read_tape(&bytes).unwrap(), events);
    }

    #[test]
    fn strings_are_interned_once() {
        let events = sample_events();
        let bytes = write_tape(&events);
        // "fac" appears in three events but is stored once.
        let payload = &bytes[6..];
        let occurrences = payload.windows(3).filter(|w| *w == b"fac").count();
        assert_eq!(occurrences, 1);
    }

    /// The writer's bytes for a fixed event list, pinned: the empty
    /// namespace first appears after a non-empty one, and a valueless
    /// `post` interns the empty display, so the cached `""` id must be
    /// the one the `STR` record assigned.
    #[test]
    fn empty_strings_intern_to_pinned_bytes() {
        use monsem_syntax::Namespace;
        let a = Annotation::label("a").in_namespace(Namespace::new("ns"));
        let b = Annotation::label("b");
        let events = vec![
            TapeEvent::pre(&a, 0),
            TapeEvent::post(&a, &Value::Int(7), 1),
            TapeEvent::pre(&b, 2),
            TapeEvent::post(&b, &Value::Int(-1), 3),
            TapeEvent {
                phase: TapePhase::Post,
                value: None,
                ..TapeEvent::pre(&a, 4)
            },
            TapeEvent::pre(&b, 5),
            TapeEvent::done(6),
        ];
        let bytes = write_tape(&events);
        #[rustfmt::skip]
        let golden: &[u8] = &[
            b'M', b'T', b'A', b'P', 1, 0,
            TAG_STR, 2, b'n', b's', TAG_STR, 1, b'a', TAG_PRE, 0, 1, 0,
            TAG_STR, 1, b'7', TAG_POST, 0, 1, 1, FLAG_INT, 14, 2,
            TAG_STR, 0, TAG_STR, 1, b'b', TAG_PRE, 3, 4, 2,
            TAG_STR, 2, b'-', b'1', TAG_POST, 3, 4, 3, FLAG_INT, 1, 5,
            TAG_POST, 0, 1, 4, 0, 3,
            TAG_PRE, 3, 4, 5,
            TAG_DONE, 6,
        ];
        assert_eq!(bytes, golden);
        let mut expected = events;
        expected[4].value = Some(ValueDesc::default());
        assert_eq!(read_tape(&bytes).unwrap(), expected);
    }

    #[test]
    fn timed_tapes_roundtrip_as_v2() {
        let a = Annotation::label("req");
        let events = vec![
            TapeEvent::pre(&a, 0).at(5),
            TapeEvent::post(&a, &Value::Int(7), 1).at(5),
            TapeEvent::pre(&a, 2), // unstamped event on a timed tape
            TapeEvent::post(&a, &Value::Int(9), 3).at(130),
            TapeEvent::done(4).at(200),
        ];
        let bytes = write_tape(&events);
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        assert_eq!(version, VERSION_TIMED);
        assert_eq!(read_tape(&bytes).unwrap(), events);
    }

    #[test]
    fn untimed_events_produce_a_v1_tape() {
        let bytes = write_tape(&sample_events());
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        assert_eq!(version, VERSION);
    }

    #[test]
    fn v1_tapes_reject_time_records() {
        let mut bytes = write_tape(&sample_events());
        let at = bytes.len();
        bytes.push(TAG_TIME);
        bytes.push(0);
        assert_eq!(read_tape(&bytes), Err(TapeError::BadTag(TAG_TIME, at)));
    }

    #[test]
    fn malformed_tapes_are_rejected() {
        assert_eq!(read_tape(b"NOPE\x01\x00"), Err(TapeError::BadMagic));
        let mut bytes = write_tape(&sample_events());
        bytes[4] = 9;
        assert_eq!(read_tape(&bytes), Err(TapeError::BadVersion(9)));
        let mut bytes = write_tape(&sample_events());
        let last_ok = bytes.len();
        bytes.push(0x7f);
        assert_eq!(read_tape(&bytes), Err(TapeError::BadTag(0x7f, last_ok)));
        let bytes = write_tape(&sample_events());
        assert!(matches!(
            read_tape(&bytes[..bytes.len() - 1]),
            Err(TapeError::Wire(_)) | Err(TapeError::BadStringId(_))
        ));
    }

    fn sample_checkpoint(events: u64, step: u64) -> Checkpoint {
        Checkpoint {
            events,
            step,
            spec_digest: digest64(b"never(post(b))"),
            dfa_state: 2,
            dfa_events: events,
            earliest_violation: step.checked_sub(1),
            stream: events.is_multiple_of(2).then(|| StreamCheckpoint {
                spec_digest: digest64(b"stream s = count(post(_))"),
                snapshot_digest: digest64(&[1, 2, 3]),
                snapshot: vec![1, 2, 3],
            }),
        }
    }

    #[test]
    fn checkpointed_tapes_roundtrip_as_v3() {
        let events = sample_events();
        let mut w = TapeWriter::checkpointed(Vec::new(), false);
        let mut want = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            w.record(ev.clone());
            if i % 2 == 1 {
                let c = sample_checkpoint(i as u64 + 1, ev.step);
                w.checkpoint(&c);
                want.push(c);
            }
        }
        let bytes = w.finish().unwrap();
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        assert_eq!(version, VERSION_CHECKPOINT);
        // A checkpoint-blind reader sees exactly the events.
        assert_eq!(read_tape(&bytes).unwrap(), events);
        // A checkpoint-aware reader also gets the records, in order.
        let (got_events, got_ckpts) = read_tape_checkpointed(&bytes).unwrap();
        assert_eq!(got_events, events);
        assert_eq!(got_ckpts, want);
    }

    #[test]
    fn checkpointed_timed_tapes_keep_their_timestamps() {
        let a = Annotation::label("req");
        let events = vec![
            TapeEvent::pre(&a, 0).at(5),
            TapeEvent::post(&a, &Value::Int(7), 1).at(9),
        ];
        let mut w = TapeWriter::checkpointed(Vec::new(), true);
        for ev in &events {
            w.record(ev.clone());
        }
        w.checkpoint(&sample_checkpoint(2, 1));
        let bytes = w.finish().unwrap();
        assert_eq!(read_tape(&bytes).unwrap(), events);
    }

    #[test]
    fn v1_and_v2_tapes_reject_checkpoint_records() {
        let mut bytes = write_tape(&sample_events());
        let at = bytes.len();
        bytes.push(TAG_CKPT);
        assert_eq!(read_tape(&bytes), Err(TapeError::BadTag(TAG_CKPT, at)));
        // And a non-checkpointed writer refuses to emit one.
        let mut w = TapeWriter::timed(Vec::new());
        w.checkpoint(&sample_checkpoint(1, 0));
        let bytes = w.finish().unwrap();
        assert_eq!(bytes.len(), 6, "header only");
    }

    #[test]
    fn digest64_separates_specs() {
        assert_ne!(digest64(b"never(post(a))"), digest64(b"never(post(b))"));
        assert_eq!(digest64(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn io_errors_are_sticky_and_surface_at_finish() {
        #[derive(Debug)]
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = TapeWriter::new(Failing);
        for ev in sample_events() {
            w.record(ev);
        }
        let err = w.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }
}
