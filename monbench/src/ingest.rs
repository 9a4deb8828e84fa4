//! The `ingest` load: long-lived producer sessions over a Unix socket to a
//! `monsem serve --io-backend reactor` child.
//!
//! Each slice runs two phases, each on fresh sessions whose close verdict
//! is the barrier and is checked against the offline oracle:
//!
//! * closed loop: one connection and generator thread per CPU, each
//!   sending 256-event `EventBatch` frames until the deadline;
//! * open loop: one connection paced at [`OPEN_RATE`] events/s, a writer
//!   stamping each batch's due time and an ack-reader thread timing due
//!   time → first covering ack.
//!
//! Traced runs add a stage-by-stage in-process replay of the same batches
//! after each traced slice: decode, folds, and an in-process
//! `MonitorServer`.

use crate::gen::{self, Expect, Oracle, BATCH};
use crate::server::Server;
use crate::stats::{median, summary};
use crate::trace::{counting, Recorder, Trace};
use crate::wire::{open_request, Conn};
use crate::{host, Ctx, Load, Report};
use monsem_monitor::{FaultPolicy, Guarded, Monitor, Outcome, TapeEvent};
use monsem_tape::{
    read_frame, read_tape, write_frame, FrameDecoder, MonitorServer, Request, Response,
    ServerConfig, Verdict, DEFAULT_ACK_EVERY,
};
use monsem_tspec::SpecMonitor;
use std::collections::VecDeque;
use std::io;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Open-loop rate, events per second.
pub const OPEN_RATE: f64 = 100_000.0;

/// Totals over the closed-loop phases of one kind (untraced or traced).
#[derive(Default)]
struct Closed {
    events: u64,
    wall: f64,
    cpu_ns: f64,
    close_waits: Vec<f64>,
    tape_bytes: u64,
    frame_bytes: u64,
    trace: Trace,
}

/// The running load: the server child, its connections, and the totals
/// of the slices run so far.
pub struct Ingest {
    server: Server,
    /// `ctx.conns` closed-loop connections, then the open-loop one.
    conns: Vec<Conn>,
    /// Each connection's cycling event pool.
    pools: Vec<Vec<Vec<TapeEvent>>>,
    /// Slices run so far; they number the sessions.
    slices: u64,
    setups: Vec<f64>,
    plain: Closed,
    traced: Closed,
    acks: Vec<f64>,
    late: Vec<f64>,
    /// Traced runs only.
    replay: Option<Replay>,
}

/// The session connection `c` feeds in slice `slice`.
fn session(conns: usize, slice: u64, c: usize) -> u64 {
    slice * conns as u64 + c as u64 + 1
}

/// One timed set-up: spawns the server, connects, and opens the first
/// sessions (compiling both specs). Returns the seconds it took.
fn bring_up(ctx: &Ctx, rep: usize) -> io::Result<(Server, Vec<Conn>, f64)> {
    let mut rec = Recorder::new(false, ctx.epoch, 0);
    let t = Instant::now();
    let mut server = Server::spawn(&ctx.bin, ctx.sock("ingest", rep))?;
    let mut conns = Vec::with_capacity(ctx.conns + 1);
    for c in 0..=ctx.conns {
        let mut conn = Conn::new(server.connect()?)?;
        conn.ok(
            &mut rec,
            "tape.net.open",
            &open_request(session(ctx.conns + 1, 0, c)),
            0,
        )?;
        conns.push(conn);
    }
    Ok((server, conns, t.elapsed().as_secs_f64()))
}

impl Ingest {
    /// Sets up the load that the slices run on.
    pub fn start(ctx: &Ctx, oracle: &Oracle) -> io::Result<Ingest> {
        let (server, conns, setup) = bring_up(ctx, 0)?;
        Ok(Ingest {
            server,
            conns,
            pools: (0..=ctx.conns)
                .map(|c| gen::ingest_pool(ctx.seed, c as u64))
                .collect(),
            slices: 0,
            setups: vec![setup],
            plain: Closed::default(),
            traced: Closed::default(),
            acks: Vec::new(),
            late: Vec::new(),
            replay: ctx.trace.then(|| Replay::new(ctx, oracle)),
        })
    }
}

impl Load for Ingest {
    fn setup_again(&mut self, ctx: &Ctx) -> io::Result<()> {
        let (server, conns, setup) = bring_up(ctx, self.setups.len())?;
        self.setups.push(setup);
        drop(conns);
        server.stop()
    }

    /// One slice: the closed loop for 60% of `secs`, then the open loop.
    fn slice(
        &mut self,
        ctx: &Ctx,
        report: &mut Report,
        oracle: &Oracle,
        secs: f64,
        traced: bool,
    ) -> io::Result<()> {
        let n = self.conns.len();
        let sids: Vec<u64> = (0..n).map(|c| session(n, self.slices, c)).collect();
        let (closed_conns, open_conn) = self.conns.split_at_mut(n - 1);
        let (closed_pools, open_pool) = self.pools.split_at_mut(n - 1);
        let totals = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        closed_loop(
            ctx,
            report,
            oracle,
            &self.server,
            closed_conns,
            closed_pools,
            &sids,
            secs * 0.6,
            traced,
            totals,
        )?;
        open_loop(
            ctx,
            report,
            oracle,
            &mut open_conn[0],
            &mut open_pool[0],
            sids[n - 1],
            secs * 0.4,
            &mut self.acks,
            &mut self.late,
        )?;
        if let (true, Some(replay)) = (traced, &mut self.replay) {
            replay.chunk(report, oracle)?;
        }
        // The next slice's sessions, opened outside the timed windows.
        self.slices += 1;
        let mut rec = Recorder::new(false, ctx.epoch, 0);
        for (c, conn) in self.conns.iter_mut().enumerate() {
            conn.ok(
                &mut rec,
                "tape.net.open",
                &open_request(session(n, self.slices, c)),
                0,
            )?;
        }
        Ok(())
    }

    /// Reports the metrics (in traced runs, the per-layer ones and the
    /// server CPU breakdown) and stops the server.
    fn finish(mut self: Box<Self>, ctx: &Ctx, report: &mut Report) -> io::Result<()> {
        let plain = &self.plain;
        let ack_p50 = median(&mut self.acks.clone());
        let late_p50 = median(&mut self.late.clone());
        let late_max = self.late.iter().copied().fold(0.0, f64::max);
        report.setups("ingest", &self.setups);
        report.metric("events_per_s", plain.events as f64 / plain.wall, "1/s");
        report.metric(
            "server_cpu_ns_per_event",
            plain.cpu_ns / plain.events as f64,
            "ns",
        );
        report.metric("ack_p50_ms", ack_p50, "ms");
        report.metric("server_peak_rss_mb", self.server.peak_rss_mb(), "MB");
        report.note(format!(
            "ingest: {} slices; closed loop {} conns, {} events in {:.3} s; open loop at {OPEN_RATE} events/s: ack {}; generator lateness p50 {late_p50:.4} ms, max {late_max:.4} ms",
            self.slices,
            ctx.conns,
            plain.events,
            plain.wall,
            summary(&self.acks, "ms"),
        ));
        // A generator that ran later than the latency it measures measured
        // itself: the run is invalid.
        report.check(
            format!("open loop: generator lateness p50 {late_p50:.4} ms exceeds ack p50 {ack_p50:.4} ms"),
            late_p50 <= ack_p50,
            1,
        );
        if ctx.trace {
            let traced = std::mem::take(&mut self.traced);
            report.layer(
                "trace.ingest_overhead_share",
                (plain.events as f64 / plain.wall) / (traced.events as f64 / traced.wall) - 1.0,
                "share",
            );
            report.layer(
                "tape.net.close_wait_ms",
                median(&mut traced.close_waits.clone()),
                "ms",
            );
            let spans = traced.trace.self_times();
            let per = |name: &str, n: f64| spans.get(name).map_or(0.0, |e| e.0) / n;
            let frames = spans.get("tape.net.write_frame").map_or(1, |e| e.1) as f64;
            let events = traced.events as f64;
            report.layer(
                "tape.format.encode_ns_per_event",
                per("tape.format.write_tape", events),
                "ns",
            );
            report.layer(
                "tape.proto.encode_ns_per_frame",
                per("tape.proto.encode", frames),
                "ns",
            );
            report.layer(
                "tape.net.write_ns_per_frame",
                per("tape.net.write_frame", frames),
                "ns",
            );
            report.layer(
                "tape.format.bytes_per_event",
                traced.tape_bytes as f64 / events,
                "bytes",
            );
            report.layer(
                "tape.proto.bytes_per_frame",
                traced.frame_bytes as f64 / frames,
                "bytes",
            );
            report.trace.extend(traced.trace);
            if let Some(replay) = self.replay.take() {
                replay.finish(ctx, report, traced.cpu_ns / events)?;
            }
        }
        drop(self.conns);
        self.server.stop()
    }
}

struct Producer {
    batches: u64,
    verdict: Verdict,
    close_wait: f64,
    tape_bytes: u64,
    frame_bytes: u64,
    rec: Recorder,
}

/// The offline oracle's close verdict for a session fed the first
/// `batches` batches of a cycling `pool`. The self-test's corrupted oracle
/// folds a copy with one flipped value.
fn expected(ctx: &Ctx, oracle: &Oracle, pool: &mut [Vec<TapeEvent>], batches: u64) -> Expect {
    let mut corrupted;
    let pool = if ctx.corrupts("ingest") {
        corrupted = pool.to_vec();
        gen::corrupt(&mut corrupted[0], "req");
        &mut corrupted[..]
    } else {
        pool
    };
    let mut fold = oracle.fold(&oracle.spec);
    for i in 0..batches {
        fold.feed(gen::cycle_batch(pool, i));
    }
    fold.finish()
}

fn check_verdict(report: &mut Report, what: &str, got: &Verdict, want: &Expect, batches: u64) {
    let got = Expect::of(got);
    report.check(
        format!("{what}: verdict {got:?}, oracle {want:?}"),
        got == *want,
        batches + 2,
    );
}

#[allow(clippy::too_many_arguments)]
fn closed_loop(
    ctx: &Ctx,
    report: &mut Report,
    oracle: &Oracle,
    server: &Server,
    conns: &mut [Conn],
    pools: &mut [Vec<Vec<TapeEvent>>],
    sids: &[u64],
    secs: f64,
    traced: bool,
    out: &mut Closed,
) -> io::Result<()> {
    let cpu0 = server.cpu_ns();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let results: Vec<io::Result<Producer>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(pools.iter_mut())
            .zip(sids)
            .enumerate()
            .map(|(c, ((conn, pool), &sid))| {
                let epoch = ctx.epoch;
                s.spawn(move || -> io::Result<Producer> {
                    let mut rec = Recorder::new(traced, epoch, c as u32 + 1);
                    let (mut i, mut tape_bytes, mut frame_bytes) = (0u64, 0u64, 0u64);
                    while Instant::now() < deadline {
                        let batch = gen::cycle_batch(pool, i);
                        let (t, f) = conn.send_batch(&mut rec, sid, batch, i)?;
                        tape_bytes += t as u64;
                        frame_bytes += f as u64;
                        i += 1;
                    }
                    let last_write = Instant::now();
                    let verdict = conn.verdict(
                        &mut rec,
                        "tape.net.close",
                        &Request::Close { session: sid },
                        i,
                    )?;
                    Ok(Producer {
                        batches: i,
                        verdict,
                        close_wait: last_write.elapsed().as_secs_f64() * 1e3,
                        tape_bytes,
                        frame_bytes,
                        rec,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    out.wall += start.elapsed().as_secs_f64();
    out.cpu_ns += server.cpu_ns().saturating_sub(cpu0) as f64;
    let producers = results.into_iter().collect::<io::Result<Vec<_>>>()?;
    // One oracle fold per session, in parallel: the sessions are independent.
    let wants: Vec<Expect> = std::thread::scope(|s| {
        let handles: Vec<_> = pools
            .iter_mut()
            .zip(&producers)
            .map(|(pool, p)| s.spawn(move || expected(ctx, oracle, pool, p.batches)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    for (c, (p, want)) in producers.into_iter().zip(&wants).enumerate() {
        check_verdict(
            report,
            &format!("ingest closed-loop connection {c}"),
            &p.verdict,
            want,
            p.batches,
        );
        out.events += p.batches * BATCH as u64;
        out.close_waits.push(p.close_wait);
        out.tape_bytes += p.tape_bytes;
        out.frame_bytes += p.frame_bytes;
        out.trace.absorb(p.rec);
    }
    Ok(())
}

/// Sleeps, then spins, until `due`.
fn pace_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Paces batches at [`OPEN_RATE`] for `secs` into session `sid`, then
/// closes it; appends each batch's ack latency and the generator's
/// lateness.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    ctx: &Ctx,
    report: &mut Report,
    oracle: &Oracle,
    conn: &mut Conn,
    pool: &mut [Vec<TapeEvent>],
    sid: u64,
    secs: f64,
    acks_out: &mut Vec<f64>,
    late: &mut Vec<f64>,
) -> io::Result<()> {
    let period = Duration::from_secs_f64(BATCH as f64 / OPEN_RATE);
    let n = (secs / period.as_secs_f64()) as u64;
    let mut reader = conn.raw.try_clone()?;
    let (tx, rx) = mpsc::channel::<(u64, Instant)>();
    let mut rec = Recorder::new(false, ctx.epoch, 0);
    let (acks, verdict) = std::thread::scope(|s| -> io::Result<(Vec<f64>, Verdict)> {
        let acks = s.spawn(move || -> io::Result<(Vec<f64>, Verdict)> {
            let mut pending: VecDeque<(u64, Instant)> = VecDeque::new();
            let mut acks = Vec::new();
            loop {
                let frame = read_frame(&mut reader)?
                    .ok_or_else(|| io::Error::other("server closed the open-loop connection"))?;
                let now = Instant::now();
                match Response::decode(&frame).map_err(io::Error::other)? {
                    Response::Ack { through_step, .. } => {
                        pending.extend(rx.try_iter());
                        while let Some(&(last, due)) = pending.front() {
                            if last > through_step {
                                break;
                            }
                            acks.push((now - due).as_secs_f64() * 1e3);
                            pending.pop_front();
                        }
                    }
                    Response::Verdict(v) => return Ok((acks, v)),
                    other => {
                        return Err(io::Error::other(format!(
                            "open loop: unexpected reply {other:?}"
                        )))
                    }
                }
            }
        });
        let t0 = Instant::now() + Duration::from_millis(2);
        let mut sent = Ok(());
        for k in 0..n {
            let due = t0 + period.mul_f64(k as f64);
            pace_until(due);
            late.push(due.elapsed().as_secs_f64() * 1e3);
            let batch = gen::cycle_batch(pool, k);
            let last = batch.last().expect("non-empty batch").step;
            // The reader learns the due time before the server can ack.
            let _ = tx.send((last, due));
            if let Err(e) = conn.send_batch(&mut rec, sid, batch, k) {
                sent = Err(e);
                break;
            }
        }
        let closed = sent
            .and_then(|()| write_frame(&mut conn.raw, &Request::Close { session: sid }.encode()));
        if let Err(e) = closed {
            // Unblock the reader before surfacing the error.
            let _ = conn.raw.shutdown(std::net::Shutdown::Both);
            let _ = acks.join();
            return Err(e);
        }
        acks.join().expect("ack reader panicked")
    })?;
    acks_out.extend(acks);
    let want = expected(ctx, oracle, pool, n);
    check_verdict(report, "ingest open-loop session", &verdict, &want, n);
    Ok(())
}

/// The server-side layers replayed in process, stage by stage, on the
/// closed loop's inputs: frame decode, tape decode, the folds, and an
/// in-process server with the child's (default) configuration. It runs one
/// chunk after each traced slice, so that it samples the same stretches of
/// host time as the live traced closed loop it is compared with.
struct Replay {
    /// The first batches of connection 0's pool, encoded; every chunk
    /// replays all of them.
    tapes: Vec<Vec<u8>>,
    /// The close verdict of an in-process session fed `tapes`.
    want: Expect,
    guard: Guarded<SpecMonitor>,
    rec: Recorder,
    chunks: u64,
    /// Totals of the timed in-process feeds.
    server_cpu_ns: f64,
    post_wall_ns: f64,
    acks: usize,
}

impl Replay {
    /// Encodes the replayed batches and their oracle verdict.
    fn new(ctx: &Ctx, oracle: &Oracle) -> Replay {
        let batches: u64 = if ctx.tiny { 40 } else { 256 };
        let mut pool = gen::ingest_pool(ctx.seed, 0);
        let tapes = (0..batches)
            .map(|i| monsem_tape::write_tape(gen::cycle_batch(&mut pool, i)))
            .collect();
        Replay {
            tapes,
            want: expected(ctx, oracle, &mut pool, batches),
            guard: Guarded::new(oracle.spec.clone()).policy(FaultPolicy::Quarantine),
            rec: Recorder::new(true, ctx.epoch, 200),
            chunks: 0,
            server_cpu_ns: 0.0,
            post_wall_ns: 0.0,
            acks: 0,
        }
    }

    /// Replays every batch once through the stages, then feeds them all
    /// to a fresh in-process server.
    fn chunk(&mut self, report: &mut Report, oracle: &Oracle) -> io::Result<()> {
        // Each batch flows through every stage before the next one, as in
        // the server, so each stage finds the batch where the previous one
        // left it (in cache): frame decode, tape decode, the bare and
        // guarded tspec folds, and the stream fold.
        let (spec, stream, guard, rec) = (&oracle.spec, &oracle.stream, &self.guard, &mut self.rec);
        let mut state = spec.initial_state();
        let mut gs = guard.initial_state();
        let mut ss = stream.initial_state();
        let mut dec = FrameDecoder::new();
        let mut wire = Vec::new();
        for (i, tape) in self.tapes.iter().enumerate() {
            let i = i as u64;
            wire.clear();
            write_frame(
                &mut wire,
                &Request::EventBatch {
                    session: 1,
                    tape: tape.clone(),
                }
                .encode(),
            )?;
            dec.extend(&wire);
            let frame = rec.span("tape.proto.decode", i, |_| {
                dec.next_frame()
                    .and_then(|f| f.map(|f| Request::decode(&f)).transpose())
            });
            if !matches!(
                frame.map_err(io::Error::other)?,
                Some(Request::EventBatch { .. })
            ) {
                return Err(io::Error::other("frame decoder lost a batch"));
            }
            let evs = rec
                .span("tape.format.read_tape", i, |_| read_tape(tape))
                .map_err(io::Error::other)?;
            state = rec.span("tspec.check_tape", i, |_| {
                spec.check_tape_seeded(state, &evs).state
            });
            gs = rec.span("monitor.guard_with", i, |_| {
                evs.iter().fold(gs, |gs, ev| {
                    match guard.guard_with(gs, |m, s| m.advance_tape_event(s, ev)) {
                        Outcome::Continue(gs) | Outcome::Abort { state: gs, .. } => gs,
                    }
                })
            });
            ss = rec.span("stream.check_tape", i, |_| {
                stream.check_tape_seeded(ss, &evs).state
            });
        }
        let fed = feed(rec, &self.tapes, false)?;
        check_verdict(
            report,
            "in-process replay session",
            &fed.verdict,
            &self.want,
            self.tapes.len() as u64,
        );
        self.chunks += 1;
        self.server_cpu_ns += fed.cpu_ns;
        self.post_wall_ns += fed.wall_ns;
        self.acks += fed.acks;
        Ok(())
    }

    /// Counts allocations once, and reports the server-side layers and
    /// the breakdown of the live child's CPU per event.
    fn finish(self, ctx: &Ctx, report: &mut Report, live_cpu_ns_per_event: f64) -> io::Result<()> {
        let frames = (self.chunks * self.tapes.len() as u64) as f64;
        let events = frames * BATCH as f64;
        let (_, decode_allocs) = counting(|| {
            self.tapes
                .iter()
                .map(|t| read_tape(t).map(|e| e.len()))
                .collect::<Vec<_>>()
        });
        let counted = feed(&mut Recorder::new(false, ctx.epoch, 0), &self.tapes, true)?;
        check_verdict(
            report,
            "in-process replay session (allocations counted)",
            &counted.verdict,
            &self.want,
            self.tapes.len() as u64,
        );
        let per_feed = (self.tapes.len() * BATCH) as f64;
        let mut trace = Trace::default();
        trace.absorb(self.rec);
        let spans = trace.self_times();
        let total = |name: &str| spans.get(name).map_or(0.0, |e| e.0);
        let decode = total("tape.format.read_tape") / events;
        let fold = total("tspec.check_tape") / events;
        let guarded = total("monitor.guard_with") / events;
        let stream_fold = total("stream.check_tape") / events;
        let ingest = self.server_cpu_ns / events;
        let overhead = ingest - decode - guarded - stream_fold;
        let residual = live_cpu_ns_per_event - ingest;
        report.layer("tape.format.decode_ns_per_event", decode, "ns");
        report.layer(
            "tape.format.decode_allocs_per_event",
            decode_allocs as f64 / per_feed,
            "allocs",
        );
        report.layer(
            "tape.proto.decode_ns_per_frame",
            total("tape.proto.decode") / frames,
            "ns",
        );
        report.layer("tspec.fold_ns_per_event", fold, "ns");
        report.layer("monitor.guard_ns_per_event", guarded - fold, "ns");
        report.layer("stream.fold_ns_per_event", stream_fold, "ns");
        report.layer("tape.server.ingest_ns_per_event", ingest, "ns");
        report.layer("tape.server.overhead_ns_per_event", overhead, "ns");
        report.layer(
            "tape.server.allocs_per_event",
            counted.allocs as f64 / per_feed,
            "allocs",
        );
        report.layer(
            "tape.server.post_blocked_share",
            total("tape.server.post") / self.post_wall_ns,
            "share",
        );
        report.layer(
            "tape.server.acks_per_expected",
            self.acks as f64 / (events / DEFAULT_ACK_EVERY as f64),
            "share",
        );
        report.layer("tape.net.residual_ns_per_event", residual, "ns");
        report.layer(
            "trace.unattributed_share",
            residual / live_cpu_ns_per_event,
            "share",
        );
        report.note(format!(
            "server CPU per event (traced live run) {live_cpu_ns_per_event:.1} ns = decode {decode:.1} + tspec fold {fold:.1} + guard {:.1} + stream fold {stream_fold:.1} + server overhead {overhead:.1} + unattributed (socket, reactor) {residual:.1}",
            guarded - fold
        ));
        report.trace.extend(trace);
        Ok(())
    }
}

/// What one in-process feed of the replayed batches measured.
struct Fed {
    verdict: Verdict,
    /// CPU of the server's own threads: the process's CPU minus that of
    /// the posting and ack-draining threads.
    cpu_ns: f64,
    wall_ns: f64,
    acks: usize,
    allocs: u64,
}

/// Opens a session on a fresh in-process server (the child's default
/// configuration), posts every tape as an `EventBatch`, and closes it.
/// Times the posts and close with CPU clocks, or (`count`) counts their
/// allocations instead.
fn feed(rec: &mut Recorder, tapes: &[Vec<u8>], count: bool) -> io::Result<Fed> {
    let sid = 1;
    let server = MonitorServer::start(ServerConfig::default());
    let opened = server.request(open_request(sid));
    if opened != Response::Ok {
        return Err(io::Error::other(format!("in-process open: {opened:?}")));
    }
    let requests: Vec<Request> = tapes
        .iter()
        .map(|tape| Request::EventBatch {
            session: sid,
            tape: tape.clone(),
        })
        .collect();
    let n = requests.len() as u64;
    let (ack_tx, ack_rx) = mpsc::sync_channel::<Response>(1024);
    let drain = std::thread::spawn(move || {
        let acks = ack_rx
            .iter()
            .filter(|r| matches!(r, Response::Ack { .. }))
            .count();
        (acks, host::thread_cpu_ns())
    });
    let run = || -> io::Result<Response> {
        for (i, req) in requests.into_iter().enumerate() {
            let tx = ack_tx.clone();
            if !rec.span("tape.server.post", i as u64, |_| server.post(req, tx)) {
                return Err(io::Error::other("in-process server refused a batch"));
            }
        }
        Ok(rec.span("tape.server.close", n, |_| {
            server.request(Request::Close { session: sid })
        }))
    };
    let (cpu0, poster0) = (host::self_cpu_ns(), host::thread_cpu_ns());
    let t0 = Instant::now();
    let (closed, allocs) = if count { counting(run) } else { (run(), 0) };
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let poster = host::thread_cpu_ns() - poster0;
    let process = host::self_cpu_ns() - cpu0;
    drop(ack_tx);
    server.shutdown();
    let (acks, drain_cpu) = drain.join().expect("ack drain thread panicked");
    match closed? {
        Response::Verdict(verdict) => Ok(Fed {
            verdict,
            cpu_ns: process.saturating_sub(poster + drain_cpu) as f64,
            wall_ns,
            acks,
            allocs,
        }),
        other => Err(io::Error::other(format!("in-process close: {other:?}"))),
    }
}
