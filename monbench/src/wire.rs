//! Client-side calls into `tape.format`, `tape.proto` and `tape.net`, each
//! wrapped in a span, shared by the untraced and traced runs.

use crate::trace::Recorder;
use monsem_monitor::TapeEvent;
use monsem_tape::{write_frame, write_tape, Client, Request, Response, Verdict};
use std::io;
use std::os::unix::net::UnixStream;

/// One producer connection: a [`Client`] for synchronous control requests
/// and a clone of its socket for fire-and-forget batch frames.
pub struct Conn {
    /// Control path.
    pub client: Client<UnixStream>,
    /// Data path (the same socket).
    pub raw: UnixStream,
}

impl Conn {
    /// Wraps a connected socket.
    pub fn new(raw: UnixStream) -> io::Result<Conn> {
        Ok(Conn {
            client: Client::new(raw.try_clone()?),
            raw,
        })
    }

    /// Encodes `events` as one `EventBatch` frame and writes it — the
    /// bytes `Client::send_batch` would write, with each layer timed.
    /// Returns (tape bytes, frame payload bytes).
    pub fn send_batch(
        &mut self,
        rec: &mut Recorder,
        session: u64,
        events: &[TapeEvent],
        req: u64,
    ) -> io::Result<(usize, usize)> {
        let tape = rec.span("tape.format.write_tape", req, |_| write_tape(events));
        let tape_len = tape.len();
        let payload = rec.span("tape.proto.encode", req, |_| {
            Request::EventBatch { session, tape }.encode()
        });
        let raw = &mut self.raw;
        rec.span("tape.net.write_frame", req, |_| write_frame(raw, &payload))?;
        Ok((tape_len, payload.len()))
    }

    /// A synchronous control request that must answer with a verdict.
    pub fn verdict(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        req: &Request,
        id: u64,
    ) -> io::Result<Verdict> {
        let client = &mut self.client;
        match rec.span(name, id, |_| client.request(req))? {
            Response::Verdict(v) => Ok(v),
            other => Err(io::Error::other(format!(
                "{name}: unexpected reply {other:?}"
            ))),
        }
    }

    /// A synchronous control request that must answer `Ok`.
    pub fn ok(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        req: &Request,
        id: u64,
    ) -> io::Result<()> {
        let client = &mut self.client;
        match rec.span(name, id, |_| client.request(req))? {
            Response::Ok => Ok(()),
            other => Err(io::Error::other(format!(
                "{name}: unexpected reply {other:?}"
            ))),
        }
    }
}

/// The `Open` request every server session starts with.
pub fn open_request(session: u64) -> Request {
    Request::Open {
        session,
        enforcing: false,
        spec: crate::gen::SAFETY.to_string(),
        stream: Some(crate::gen::STREAM.to_string()),
    }
}
