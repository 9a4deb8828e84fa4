//! The `session-churn` load: one closed loop per CPU of short sessions,
//! each Open (safety + stream spec) → 64-event batch → Swap to a second
//! safety spec → 64-event batch → Close. Traced runs add the control-path
//! layers replayed in process: compile, splice, open/swap/close.

use crate::gen::{self, ChurnSession, Oracle, SAFETY, SAFETY_SWAP, STREAM};
use crate::server::Server;
use crate::stats::{median, summary};
use crate::trace::{Recorder, Trace};
use crate::wire::{open_request, Conn};
use crate::{Ctx, Load, Report};
use monsem_stream::StreamMonitor;
use monsem_tape::{
    splice_state, write_tape, MonitorServer, Request, Response, ServerConfig, Verdict,
};
use monsem_tspec::SpecMonitor;
use std::io;
use std::time::{Duration, Instant};

/// Distinct session inputs per connection (cycled).
const POOL: usize = 64;

fn swap_request(session: u64) -> Request {
    Request::Swap {
        session,
        spec: Some(SAFETY_SWAP.to_string()),
        stream: None,
    }
}

/// One session's round trips; returns the close verdict.
fn session(rec: &mut Recorder, conn: &mut Conn, sid: u64, s: &ChurnSession) -> io::Result<Verdict> {
    conn.ok(rec, "tape.net.open", &open_request(sid), sid)?;
    conn.send_batch(rec, sid, &s.before, sid)?;
    conn.verdict(rec, "tape.net.swap", &swap_request(sid), sid)?;
    conn.send_batch(rec, sid, &s.after, sid)?;
    conn.verdict(rec, "tape.net.close", &Request::Close { session: sid }, sid)
}

/// Totals over the slices of one kind (untraced or traced).
#[derive(Default)]
struct Loop {
    sessions: u64,
    times_ms: Vec<f64>,
    cpu_ns: f64,
    trace: Trace,
}

/// The running load: the server child, its connections, and the totals
/// of the slices run so far.
pub struct Churn {
    server: Server,
    conns: Vec<Conn>,
    pools: Vec<Vec<ChurnSession>>,
    /// Sessions started so far on each connection; they number the
    /// sessions.
    started: u64,
    setups: Vec<f64>,
    plain: Loop,
    traced: Loop,
}

/// One timed set-up: spawns the server and connects. Returns the seconds
/// it took.
fn bring_up(ctx: &Ctx, rep: usize) -> io::Result<(Server, Vec<Conn>, f64)> {
    let t = Instant::now();
    let mut server = Server::spawn(&ctx.bin, ctx.sock("churn", rep))?;
    let conns = (0..ctx.conns)
        .map(|_| Conn::new(server.connect()?))
        .collect::<io::Result<Vec<_>>>()?;
    Ok((server, conns, t.elapsed().as_secs_f64()))
}

impl Churn {
    /// Sets up the load that the slices run on.
    pub fn start(ctx: &Ctx, oracle: &Oracle) -> io::Result<Churn> {
        let (server, conns, setup) = bring_up(ctx, 0)?;
        let mut pools: Vec<Vec<ChurnSession>> = (0..conns.len())
            .map(|c| gen::churn_pool(ctx.seed, c as u64, POOL, oracle))
            .collect();
        if ctx.corrupts("session-churn") {
            // The self-test's deliberately wrong oracle: one flipped value.
            let s = &mut pools[0][0];
            let mut all = s.before.clone();
            all.extend(s.after.iter().cloned());
            gen::corrupt(&mut all, "req");
            s.expect = oracle.expect(&oracle.swap_spec, &[all]);
        }
        Ok(Churn {
            server,
            conns,
            pools,
            started: 0,
            setups: vec![setup],
            plain: Loop::default(),
            traced: Loop::default(),
        })
    }
}

impl Load for Churn {
    fn setup_again(&mut self, ctx: &Ctx) -> io::Result<()> {
        let (server, conns, setup) = bring_up(ctx, self.setups.len())?;
        self.setups.push(setup);
        drop(conns);
        server.stop()
    }

    /// One slice: every connection runs sessions back to back for `secs`.
    fn slice(
        &mut self,
        ctx: &Ctx,
        report: &mut Report,
        _oracle: &Oracle,
        secs: f64,
        traced: bool,
    ) -> io::Result<()> {
        let out = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        let cpu0 = self.server.cpu_ns();
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let n = self.conns.len() as u64;
        let first = self.started;
        // Per connection: session times, whether each verdict matched, spans.
        type PerConn = io::Result<(Vec<f64>, Vec<bool>, Recorder)>;
        let results: Vec<PerConn> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&self.pools)
                .enumerate()
                .map(|(c, (conn, pool))| {
                    let epoch = ctx.epoch;
                    s.spawn(move || {
                        let mut rec = Recorder::new(traced, epoch, c as u32 + 1);
                        let (mut times, mut ok) = (Vec::new(), Vec::new());
                        let mut k = first;
                        while Instant::now() < deadline {
                            let input = &pool[(k % pool.len() as u64) as usize];
                            let sid = 1 + c as u64 + k * n;
                            let t = Instant::now();
                            let v = session(&mut rec, conn, sid, input)?;
                            times.push(t.elapsed().as_secs_f64() * 1e3);
                            ok.push(gen::Expect::of(&v) == input.expect);
                            k += 1;
                        }
                        Ok((times, ok, rec))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("churn thread panicked"))
                .collect()
        });
        out.cpu_ns += self.server.cpu_ns().saturating_sub(cpu0) as f64;
        for (c, r) in results.into_iter().enumerate() {
            let (times, ok, rec) = r?;
            let bad = ok.iter().filter(|&&o| !o).count();
            report.check(
                format!("session-churn connection {c}: {bad} of {} close verdicts differ from the oracle", ok.len()),
                bad == 0,
                5 * ok.len() as u64,
            );
            self.started = self.started.max(first + ok.len() as u64);
            out.sessions += ok.len() as u64;
            out.times_ms.extend(times);
            out.trace.absorb(rec);
        }
        Ok(())
    }

    /// Reports the metrics, replays the control path in traced runs, and
    /// stops the server.
    fn finish(mut self: Box<Self>, ctx: &Ctx, report: &mut Report) -> io::Result<()> {
        let plain = &self.plain;
        let p50 = median(&mut plain.times_ms.clone());
        report.setups("session-churn", &self.setups);
        report.metric("session_p50_ms", p50, "ms");
        report.metric(
            "server_cpu_us_per_session",
            plain.cpu_ns / 1e3 / plain.sessions as f64,
            "us",
        );
        report.note(format!(
            "session-churn: {} conns, {} sessions: session time {}",
            ctx.conns,
            plain.sessions,
            summary(&plain.times_ms, "ms")
        ));
        if ctx.trace {
            let traced = std::mem::take(&mut self.traced);
            report.layer(
                "trace.churn_overhead_share",
                median(&mut traced.times_ms.clone()) / p50 - 1.0,
                "share",
            );
            // tape.net: the smallest control round trip on the live socket.
            let mut rec = Recorder::new(true, ctx.epoch, 0);
            let probe = Request::Close { session: u64::MAX };
            for i in 0..200 {
                let client = &mut self.conns[0].client;
                rec.span("tape.net.rtt", i, |_| client.request(&probe))?;
            }
            let mut trace = traced.trace;
            trace.absorb(rec);
            let rtt = trace
                .durations("tape.net.rtt")
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            report.layer("tape.net.rtt_us", rtt / 1e3, "us");
            report.trace.extend(trace);
            replay(ctx, report, &self.pools[0])?;
        }
        report.metric("server_peak_rss_mb", self.server.peak_rss_mb(), "MB");
        drop(self.conns);
        self.server.stop()
    }
}

/// The control-path layers in process: spec compilation, splice, and the
/// in-process server's open/swap/close, on the churn sessions' inputs.
fn replay(ctx: &Ctx, report: &mut Report, pool: &[ChurnSession]) -> io::Result<()> {
    let mut rec = Recorder::new(true, ctx.epoch, 300);
    let reps = if ctx.tiny { 8 } else { 400 };
    let mut dfa_states = 0;
    for i in 0..reps {
        let m = rec
            .span("tspec.compile", i, |_| SpecMonitor::new("s", SAFETY))
            .map_err(io::Error::other)?;
        dfa_states = m.automaton().num_states();
        let swap = SpecMonitor::new("s", SAFETY_SWAP).map_err(io::Error::other)?;
        rec.span("stream.compile", i, |_| StreamMonitor::new("s", STREAM))
            .map_err(io::Error::other)?;
        let s = &pool[i as usize % pool.len()];
        rec.span("tspec.splice_state", i, |_| {
            splice_state(&swap, s.before.iter())
        });
    }
    let memory = StreamMonitor::new("s", STREAM)
        .map_err(io::Error::other)?
        .spec()
        .memory()
        .total_bytes;

    // Batches go through the synchronous path so that each timed control
    // request finds the shard idle.
    let server = MonitorServer::start(ServerConfig::default());
    let mut bad = 0;
    for i in 0..reps {
        let s = &pool[i as usize % pool.len()];
        let sid = i + 1;
        let want_ok = |r: Response| match r {
            Response::Ok | Response::Verdict(_) => Ok(r),
            other => Err(io::Error::other(format!("in-process churn: {other:?}"))),
        };
        want_ok(rec.span("tape.server.open", sid, |_| {
            server.request(open_request(sid))
        }))?;
        want_ok(server.request(Request::EventBatch {
            session: sid,
            tape: write_tape(&s.before),
        }))?;
        want_ok(rec.span("tape.server.swap", sid, |_| {
            server.request(swap_request(sid))
        }))?;
        want_ok(server.request(Request::EventBatch {
            session: sid,
            tape: write_tape(&s.after),
        }))?;
        match want_ok(rec.span("tape.server.close", sid, |_| {
            server.request(Request::Close { session: sid })
        }))? {
            Response::Verdict(v) if gen::Expect::of(&v) == s.expect => {}
            _ => bad += 1,
        }
    }
    server.shutdown();
    report.check(
        format!("in-process churn replay: {bad} of {reps} close verdicts differ from the oracle"),
        bad == 0,
        5 * reps,
    );

    let mut trace = Trace::default();
    trace.absorb(rec);
    let us = |name: &str| median(&mut trace.durations(name)) / 1e3;
    report.layer("tspec.compile_us", us("tspec.compile"), "us");
    report.layer("tspec.dfa_states", dfa_states as f64, "count");
    report.layer("tspec.splice_us", us("tspec.splice_state"), "us");
    report.layer("stream.compile_us", us("stream.compile"), "us");
    report.layer("stream.memory_bytes", memory as f64, "bytes");
    report.layer("tape.server.open_us", us("tape.server.open"), "us");
    report.layer("tape.server.swap_us", us("tape.server.swap"), "us");
    report.layer("tape.server.close_us", us("tape.server.close"), "us");
    report.trace.extend(trace);
    Ok(())
}
