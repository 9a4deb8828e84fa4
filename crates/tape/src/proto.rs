//! The monitor-server wire protocol: length-framed requests and
//! responses over any byte stream (TCP or Unix sockets in [`crate::net`]).
//!
//! Every message is a frame: a big-endian `u32` payload length followed
//! by the payload. Payloads are tag-discriminated and use the same
//! varint primitives as the tape format.
//!
//! # Batched, pipelined ingest
//!
//! Events travel only as tape images: [`Request::EventBatch`] carries a
//! complete image (the exact bytes [`crate::write_tape`] would produce),
//! so a producer that already records to a tape can ship the same bytes
//! — wire == tape — and the per-tape string interning amortizes event
//! names across the batch. Each image decodes on its own, independently
//! of connection history. Event frames are *fire-and-forget*: the server
//! does not reply per frame but emits a cumulative [`Response::Ack`]
//! every configured number of events, so the socket round-trip leaves
//! the per-event path entirely. [`Request::Open`], [`Request::Swap`],
//! and [`Request::Close`] remain strictly request/reply.

use crate::wire::{put_str, put_uvarint, ByteReader, WireError};
use std::fmt;
use std::io::{self, IoSlice, Read, Write};

/// Hard cap on a frame payload, to bound a malicious or corrupt peer.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// A protocol decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// A frame declared a payload larger than [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// An unknown message tag.
    BadTag(u8),
    /// A byte-level decoding failure.
    Wire(WireError),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtoError::Wire(e) => write!(f, "malformed message: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> ProtoError {
        ProtoError::Wire(e)
    }
}

fn proto_io(e: ProtoError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Opens a monitoring session: compiles `spec` and installs a fresh
    /// guarded monitor under `session`.
    Open {
        /// Caller-chosen session id; also picks the worker shard.
        session: u64,
        /// Whether a violation should abort (and close) the session.
        enforcing: bool,
        /// The temporal spec source text.
        spec: String,
        /// Optional stream spec source text: an SLO check evaluated next
        /// to the safety spec (trigger firings and deadline misses are
        /// reported in the session's [`Verdict`]).
        stream: Option<String>,
    },
    /// Hot-swaps the session's spec, splicing state by replaying the
    /// session's bounded suffix window through the new automaton.
    Swap {
        /// The session to reconfigure.
        session: u64,
        /// The new safety spec source text; `None` keeps the current
        /// one.
        spec: Option<String>,
        /// The new stream spec source text; `None` keeps the current one
        /// (a stream spec survives a safety-spec swap unchanged).
        stream: Option<String>,
    },
    /// Closes the session and reports its final verdict.
    Close {
        /// The session to finish.
        session: u64,
    },
    /// Appends a batch of events, encoded as a complete tape image, to a
    /// session's tape.
    ///
    /// Posted fire-and-forget, the server replies only with periodic
    /// cumulative [`Response::Ack`] frames (and an error frame on
    /// failure), never per batch; sent as a synchronous request, it gets
    /// the session's [`Verdict`].
    EventBatch {
        /// The session to feed.
        session: u64,
        /// A complete tape image ([`crate::write_tape`] output): magic,
        /// version, interned events.
        tape: Vec<u8>,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request was applied.
    Ok,
    /// The request failed; human-readable reason.
    Err(String),
    /// A session verdict (returned by every successful session request,
    /// so producers see violations as soon as they are ingested).
    Verdict(Verdict),
    /// A cumulative acknowledgement on the fire-and-forget event path:
    /// every event with step ≤ `through_step` has been folded into the
    /// session's monitor. Acks are advisory (while the client is not
    /// reading, a connection keeps only each session's latest ack
    /// rather than stall a shard); [`Request::Close`]'s verdict is the
    /// authoritative barrier.
    Ack {
        /// The session this ack describes.
        session: u64,
        /// The highest event step folded so far.
        through_step: u64,
    },
}

/// The observable state of a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The session this verdict describes.
    pub session: u64,
    /// Events ingested so far (including ones the monitor did not
    /// observe).
    pub ingested: u64,
    /// The guard's health: `"ok"`, or the degradation reason.
    pub health: String,
    /// The first violation, if any.
    pub violation: Option<String>,
    /// Step index of the event that first entered the violation.
    pub earliest_violation: Option<u64>,
    /// Final acceptance: `Some` once the session saw its `done` marker
    /// or was closed, `None` while still open-ended.
    pub accepted: Option<bool>,
    /// Whether the last hot-swap had to splice from a truncated window
    /// (the replayed suffix was shorter than the session's history).
    pub swap_truncated: bool,
    /// Stream-spec trigger firings so far (0 without a stream spec).
    pub firings: u64,
    /// Stream-spec deadline misses so far (0 without a stream spec).
    pub missed: u64,
}

const REQ_OPEN: u8 = 0x01;
// Tag 0x02 carried per-event frames, whose events travel as tape images
// now. It is retired and never reused: an old peer's frame decodes to
// `ProtoError::BadTag(0x02)`, never to another request.
const REQ_SWAP: u8 = 0x03;
const REQ_CLOSE: u8 = 0x04;
const REQ_BATCH: u8 = 0x05;

const RESP_OK: u8 = 0x01;
const RESP_ERR: u8 = 0x02;
const RESP_VERDICT: u8 = 0x03;
const RESP_ACK: u8 = 0x04;

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
}

fn read_opt_str(r: &mut ByteReader<'_>) -> Result<Option<String>, ProtoError> {
    Ok(match r.u8()? {
        0 => None,
        _ => Some(r.string()?),
    })
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

fn read_opt_u64(r: &mut ByteReader<'_>) -> Result<Option<u64>, ProtoError> {
    Ok(match r.u8()? {
        0 => None,
        _ => Some(r.uvarint()?),
    })
}

/// Payload bytes a request takes beyond its text or tape: a tag, at most
/// three varints of at most 10 bytes, and two one-byte flags.
const REQUEST_OVERHEAD: usize = 1 + 3 * 10 + 2;

impl Request {
    /// Serializes to a frame payload, allocated once at its full size.
    pub fn encode(&self) -> Vec<u8> {
        let opt_len = |s: &Option<String>| s.as_ref().map_or(0, String::len);
        let body = match self {
            Request::Open { spec, stream, .. } => spec.len() + opt_len(stream),
            Request::Swap { spec, stream, .. } => opt_len(spec) + opt_len(stream),
            Request::Close { .. } => 0,
            Request::EventBatch { tape, .. } => tape.len(),
        };
        let mut out = Vec::with_capacity(REQUEST_OVERHEAD + body);
        match self {
            Request::Open {
                session,
                enforcing,
                spec,
                stream,
            } => {
                out.push(REQ_OPEN);
                put_uvarint(&mut out, *session);
                out.push(u8::from(*enforcing));
                put_str(&mut out, spec);
                put_opt_str(&mut out, stream);
            }
            Request::Swap {
                session,
                spec,
                stream,
            } => {
                out.push(REQ_SWAP);
                put_uvarint(&mut out, *session);
                put_opt_str(&mut out, spec);
                put_opt_str(&mut out, stream);
            }
            Request::Close { session } => {
                out.push(REQ_CLOSE);
                put_uvarint(&mut out, *session);
            }
            Request::EventBatch { session, tape } => {
                out.push(REQ_BATCH);
                put_uvarint(&mut out, *session);
                put_uvarint(&mut out, tape.len() as u64);
                out.extend_from_slice(tape);
            }
        }
        out
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on unknown tags or malformed fields.
    pub fn decode(buf: &[u8]) -> Result<Request, ProtoError> {
        let mut r = ByteReader::new(buf);
        match r.u8()? {
            REQ_OPEN => Ok(Request::Open {
                session: r.uvarint()?,
                enforcing: r.u8()? != 0,
                spec: r.string()?,
                stream: read_opt_str(&mut r)?,
            }),
            REQ_SWAP => Ok(Request::Swap {
                session: r.uvarint()?,
                spec: read_opt_str(&mut r)?,
                stream: read_opt_str(&mut r)?,
            }),
            REQ_CLOSE => Ok(Request::Close {
                session: r.uvarint()?,
            }),
            REQ_BATCH => {
                let session = r.uvarint()?;
                let len = usize::try_from(r.uvarint()?)
                    .map_err(|_| ProtoError::Wire(WireError::VarintOverflow))?;
                Ok(Request::EventBatch {
                    session,
                    tape: r.bytes(len)?.to_vec(),
                })
            }
            tag => Err(ProtoError::BadTag(tag)),
        }
    }
}

impl Response {
    /// Serializes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Ok => out.push(RESP_OK),
            Response::Err(reason) => {
                out.push(RESP_ERR);
                put_str(&mut out, reason);
            }
            Response::Verdict(v) => {
                out.push(RESP_VERDICT);
                put_uvarint(&mut out, v.session);
                put_uvarint(&mut out, v.ingested);
                put_str(&mut out, &v.health);
                match &v.violation {
                    Some(reason) => {
                        out.push(1);
                        put_str(&mut out, reason);
                    }
                    None => out.push(0),
                }
                put_opt_u64(&mut out, v.earliest_violation);
                out.push(match v.accepted {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                });
                out.push(u8::from(v.swap_truncated));
                put_uvarint(&mut out, v.firings);
                put_uvarint(&mut out, v.missed);
            }
            Response::Ack {
                session,
                through_step,
            } => {
                out.push(RESP_ACK);
                put_uvarint(&mut out, *session);
                put_uvarint(&mut out, *through_step);
            }
        }
        out
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on unknown tags or malformed fields.
    pub fn decode(buf: &[u8]) -> Result<Response, ProtoError> {
        let mut r = ByteReader::new(buf);
        match r.u8()? {
            RESP_OK => Ok(Response::Ok),
            RESP_ERR => Ok(Response::Err(r.string()?)),
            RESP_VERDICT => {
                let session = r.uvarint()?;
                let ingested = r.uvarint()?;
                let health = r.string()?;
                let violation = match r.u8()? {
                    0 => None,
                    _ => Some(r.string()?),
                };
                let earliest_violation = read_opt_u64(&mut r)?;
                let accepted = match r.u8()? {
                    0 => None,
                    1 => Some(false),
                    _ => Some(true),
                };
                let swap_truncated = r.u8()? != 0;
                let firings = r.uvarint()?;
                let missed = r.uvarint()?;
                Ok(Response::Verdict(Verdict {
                    session,
                    ingested,
                    health,
                    violation,
                    earliest_violation,
                    accepted,
                    swap_truncated,
                    firings,
                    missed,
                }))
            }
            RESP_ACK => Ok(Response::Ack {
                session: r.uvarint()?,
                through_step: r.uvarint()?,
            }),
            tag => Err(ProtoError::BadTag(tag)),
        }
    }
}

/// Writes one length-prefixed frame.
///
/// Prefix and payload go out in one vectored write, so an unbuffered
/// socket sees one system call per frame, not two: the peer never wakes
/// for a lone four-byte prefix, and a TCP stream without `TCP_NODELAY`
/// never holds the payload back behind Nagle's algorithm.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len =
        u32::try_from(payload.len()).map_err(|_| proto_io(ProtoError::FrameTooLarge(u32::MAX)))?;
    if len > MAX_FRAME {
        return Err(proto_io(ProtoError::FrameTooLarge(len)));
    }
    let prefix = len.to_be_bytes();
    let mut bufs = [IoSlice::new(&prefix), IoSlice::new(payload)];
    let mut left = &mut bufs[..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// An incremental frame decoder for nonblocking transports: bytes are
/// [`FrameDecoder::extend`]ed in whatever dribbles the socket delivers
/// (down to one byte at a time), and [`FrameDecoder::next_frame`] yields
/// each complete payload as soon as its last byte arrives.
///
/// This is the readiness-driven counterpart of [`read_frame`]: the
/// blocking reader parks the thread until a frame completes, the decoder
/// returns `Ok(None)` and lets the caller go back to `epoll_wait`. Both
/// accept the same wire format, so a byte stream produced by
/// [`write_frame`] decodes identically through either.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so a burst of frames
    /// costs one memmove, not one per frame.
    start: usize,
}

/// Compact the consumed prefix away once it exceeds this many bytes.
const DECODER_COMPACT_AT: usize = 64 * 1024;

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends freshly received bytes. Any split is fine — mid-length,
    /// mid-payload, several frames at once.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes received but not yet yielded as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether the stream stopped mid-frame: EOF now would be unclean.
    pub fn has_partial(&self) -> bool {
        self.buffered() > 0
    }

    /// Yields the next complete frame payload, or `Ok(None)` when more
    /// bytes are needed.
    ///
    /// # Errors
    ///
    /// [`ProtoError::FrameTooLarge`] as soon as a length prefix exceeds
    /// [`MAX_FRAME`] — the decoder does not wait for the bogus payload.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        let pending = &self.buf[self.start..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]);
        if len > MAX_FRAME {
            return Err(ProtoError::FrameTooLarge(len));
        }
        let total = 4 + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let payload = pending[4..total].to_vec();
        self.start += total;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > DECODER_COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(payload))
    }
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on clean EOF at a
/// frame boundary.
///
/// # Errors
///
/// I/O errors, or `InvalidData` when the declared length exceeds
/// [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(proto_io(ProtoError::FrameTooLarge(len)));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use monsem_core::Value;
    use monsem_monitor::tape::TapeEvent;
    use monsem_syntax::Annotation;

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Open {
                session: 7,
                enforcing: true,
                spec: "never(post(b))".to_string(),
                stream: Some("stream errs = count(post(p))".to_string()),
            },
            Request::Open {
                session: 8,
                enforcing: false,
                spec: "never(post(b))".to_string(),
                stream: None,
            },
            Request::Swap {
                session: 7,
                spec: Some("always(post(p) => value > 0)".to_string()),
                stream: None,
            },
            Request::Swap {
                session: 7,
                spec: None,
                stream: Some("trigger hot = errs > 3".to_string()),
            },
            Request::Close { session: 7 },
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn the_retired_per_event_tag_is_a_typed_error() {
        // A per-event frame as old peers encoded it: tag, session, one
        // `done` event.
        let payload = [0x02, 7, 1, 0x03, 0, 0];
        assert_eq!(Request::decode(&payload), Err(ProtoError::BadTag(0x02)));
    }

    #[test]
    fn event_batches_roundtrip_as_tape_bytes() {
        let ann = Annotation::label("p");
        let events = vec![
            TapeEvent::pre(&ann, 0).at(5),
            TapeEvent::post(&ann, &Value::Int(42), 1).at(9),
        ];
        let tape = crate::write_tape(&events);
        let req = Request::EventBatch {
            session: 11,
            tape: tape.clone(),
        };
        match Request::decode(&req.encode()).unwrap() {
            Request::EventBatch {
                session,
                tape: wire,
            } => {
                assert_eq!(session, 11);
                // Wire == tape: the payload is a complete tape image.
                assert_eq!(wire, tape);
                assert_eq!(crate::read_tape(&wire).unwrap(), events);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = vec![
            Response::Ok,
            Response::Err("no such session".to_string()),
            Response::Verdict(Verdict {
                session: 3,
                ingested: 10,
                health: "ok".to_string(),
                violation: Some("spec `x` violated".to_string()),
                earliest_violation: Some(4),
                accepted: Some(false),
                swap_truncated: true,
                firings: 2,
                missed: 1,
            }),
            Response::Verdict(Verdict {
                session: 3,
                ingested: 0,
                health: "ok".to_string(),
                violation: None,
                earliest_violation: None,
                accepted: None,
                swap_truncated: false,
                firings: 0,
                missed: 0,
            }),
            Response::Ack {
                session: 9,
                through_step: 4095,
            },
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn frames_roundtrip_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    /// A writer that accepts everything and counts the calls that reach
    /// it: each call is one system call on an unbuffered socket.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            for b in bufs {
                self.bytes.extend_from_slice(b);
            }
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        // Prefix and payload in separate writes put a lone four-byte
        // segment on the wire; over TCP, Nagle's algorithm then holds the
        // payload until the peer's delayed ACK, stalling every request.
        for payload in [&b"hello"[..], b"", &[7u8; 4000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.calls, 1, "payload of {} bytes", payload.len());
            let mut plain = Vec::new();
            write_frame(&mut plain, payload).unwrap();
            assert_eq!(w.bytes, plain);
        }
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn decoder_yields_frames_at_every_byte_boundary() {
        // The same byte stream write_frame produced, fed one byte at a
        // time: each frame must appear exactly when its last byte lands.
        let frames: Vec<&[u8]> = vec![b"hello", b"", b"x", b"wide payload \xff\x00\x7f"];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for (i, b) in wire.iter().enumerate() {
            dec.extend(std::slice::from_ref(b));
            while let Some(frame) = dec.next_frame().unwrap() {
                got.push(frame);
            }
            let complete_bytes: usize = frames
                .iter()
                .scan(0usize, |acc, f| {
                    *acc += 4 + f.len();
                    Some(*acc)
                })
                .take_while(|&end| end <= i + 1)
                .count();
            assert_eq!(got.len(), complete_bytes, "after byte {i}");
        }
        assert_eq!(got, frames);
        assert!(!dec.has_partial(), "clean boundary at the end");
    }

    #[test]
    fn decoder_rejects_oversized_prefix_before_the_payload_arrives() {
        let mut dec = FrameDecoder::new();
        dec.extend(&(MAX_FRAME + 1).to_be_bytes());
        assert!(dec.next_frame().is_err(), "no need to wait for the body");
    }

    #[test]
    fn decoder_reports_partial_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        let mut dec = FrameDecoder::new();
        dec.extend(&wire[..wire.len() - 1]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert!(dec.has_partial(), "EOF here would be unclean");
        dec.extend(&wire[wire.len() - 1..]);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"abc");
        assert!(!dec.has_partial());
        assert_eq!(dec.buffered(), 0);
    }
}
