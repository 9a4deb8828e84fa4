//! The `monitored-run` load, in process with no server: the paper's §9.1
//! levels on `labelled_countdown` under `always(post(B) => value >= 0)`,
//! run round-robin, then record → offline check → late-offset check.

use crate::stats::{low_decile, median, summary};
use crate::trace::{Recorder, Trace};
use crate::{gen, Ctx, Load, Report};
use monsem_core::{Env, EvalOptions, Value};
use monsem_monitor::machine::eval_monitored_with;
use monsem_monitor::{record_monitored_with, MemorySink, Monitor, SharedSink, TierPolicy};
use monsem_pe::engine::{compile, compile_monitored, CompiledProgram};
use monsem_pe::{instrument_spec, SpecializedSpec, TieredSession};
use monsem_stream::StreamMonitor;
use monsem_syntax::{parse_expr, Expr};
use monsem_tape::{
    check_tape_from, read_tape, read_tape_checkpointed, seek_checkpoint, write_tape_checkpointed,
};
use monsem_tspec::SpecMonitor;
use std::io;
use std::time::{Duration, Instant};

/// The program size (countdown start).
const N: i64 = 2_000;
/// The safety spec of `BENCH_tiered`.
const SPEC: &str = "always(post(B) => value >= 0)";
/// The stream spec the recorded tape is also checked against.
const STREAM: &str = "stream calls = count(post(B)) over window(64)\ntrigger busy = calls >= 64";
/// Events between tape checkpoints.
const CKPT_EVERY: usize = 256;

fn source(n: i64) -> String {
    format!(
        "letrec count = lambda x. if (x = 0) then {{A}}:0 else {{B}}:(count (x - 1)) in count {n}"
    )
}

/// Everything set-up builds: the parsed program, the compiled spec, and
/// the level-2, level-3 and tiered executables.
struct Levels {
    program: Expr,
    monitor: SpecMonitor,
    specialized: SpecializedSpec,
    level2: CompiledProgram,
    level3: CompiledProgram,
    tiered: TieredSession,
}

fn err(e: impl std::fmt::Debug) -> io::Error {
    io::Error::other(format!("{e:?}"))
}

fn setup(rec: &mut Recorder, rep: u64) -> io::Result<Levels> {
    let src = source(N);
    let program = rec
        .span("syntax.parse_expr", rep, |_| parse_expr(&src))
        .map_err(err)?;
    let monitor = rec
        .span("tspec.compile", rep, |_| SpecMonitor::new("safety", SPEC))
        .map_err(err)?;
    let (specialized, level2) = rec.span("pe.compile_monitored", rep, |_| {
        let sp = SpecializedSpec::new(&program, monitor.clone());
        let compiled = compile_monitored(&program, &sp);
        (sp, compiled)
    });
    let level2 = level2.map_err(err)?;
    let level3 = rec
        .span("pe.instrument_spec", rep, |_| {
            compile(&instrument_spec(&program, &monitor))
        })
        .map_err(err)?;
    let tiered = rec.span("pe.promote", rep, |_| -> io::Result<TieredSession> {
        let mut s = TieredSession::new(&program, monitor.clone())
            .map_err(err)?
            .policy(TierPolicy::default().hot_threshold(64));
        s.run().map_err(err)?;
        Ok(s)
    })?;
    if tiered.stats().promotions != 1 {
        return Err(io::Error::other(
            "the countdown loop must promote on its first run",
        ));
    }
    Ok(Levels {
        program,
        monitor,
        specialized,
        level2,
        level3,
        tiered,
    })
}

/// Per-call wall times (ms) of one timed loop.
#[derive(Default)]
struct Times {
    level: [Vec<f64>; 4],
    record: Vec<f64>,
    check: Vec<f64>,
    check_from: Vec<f64>,
    core_eval: Vec<f64>,
    core_compiled: Vec<f64>,
    /// Events the last late-offset check replayed.
    replayed: u64,
}

fn timed<T>(
    rec: &mut Recorder,
    name: &'static str,
    id: u64,
    out: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> T {
    let t = Instant::now();
    let r = rec.span(name, id, |_| f());
    out.push(t.elapsed().as_secs_f64() * 1e3);
    r
}

/// The running load: everything set-up built, the oracle's references,
/// and the per-call times of the slices run so far.
pub struct Monitored {
    lv: Levels,
    stream: StreamMonitor,
    setups: Vec<f64>,
    /// Level 1's answer and final DFA state: every level must match them.
    answer: Value,
    want_state: u32,
    /// The stream check of the recorded events: the decoded tape's check
    /// must match it.
    want_stream: (u64, u64, bool),
    erased: Expr,
    erased_compiled: CompiledProgram,
    /// Picks the late offset of `check --from`.
    rng: gen::Rng,
    rounds: u64,
    events_per_run: u64,
    plain: Times,
    traced: Times,
    rec: Recorder,
    setup_trace: Trace,
}

impl Monitored {
    /// Builds every level (a timed set-up) and takes the references.
    pub fn start(ctx: &Ctx) -> io::Result<Monitored> {
        let stream = StreamMonitor::new("slo", STREAM).map_err(err)?;
        let mut setup_rec = Recorder::new(ctx.trace, ctx.epoch, 400);
        let t = Instant::now();
        let lv = setup(&mut setup_rec, 0)?;
        let setups = vec![t.elapsed().as_secs_f64()];
        let opts = EvalOptions::default();
        let (answer, reference) = eval_monitored_with(
            &lv.program,
            &Env::empty(),
            &lv.monitor,
            lv.monitor.initial_state(),
            &opts,
        )
        .map_err(err)?;
        let mem = MemorySink::new();
        record_monitored_with(
            &lv.program,
            &Env::empty(),
            lv.monitor.clone(),
            &SharedSink::new(mem.clone()),
            &opts,
        )
        .map_err(err)?;
        let slo = stream.check_tape(&mem.take());
        let erased = lv.program.erase_annotations();
        let erased_compiled = compile(&erased).map_err(err)?;
        let mut setup_trace = Trace::default();
        setup_trace.absorb(setup_rec);
        Ok(Monitored {
            want_state: reference.state,
            answer,
            want_stream: (slo.fired_total, slo.missed, slo.completed),
            lv,
            stream,
            setups,
            erased,
            erased_compiled,
            rng: gen::Rng::new(ctx.seed, 3000),
            rounds: 0,
            events_per_run: 0,
            plain: Times::default(),
            traced: Times::default(),
            rec: Recorder::new(true, ctx.epoch, 402),
            setup_trace,
        })
    }
}

impl Load for Monitored {
    fn setup_again(&mut self, ctx: &Ctx) -> io::Result<()> {
        let mut rec = Recorder::new(ctx.trace, ctx.epoch, 400);
        let t = Instant::now();
        setup(&mut rec, self.setups.len() as u64)?;
        self.setups.push(t.elapsed().as_secs_f64());
        self.setup_trace.absorb(rec);
        Ok(())
    }

    /// Runs rounds for `secs` (at least one); every outcome is checked
    /// against the level-1 reference and the offline oracle.
    fn slice(
        &mut self,
        ctx: &Ctx,
        report: &mut Report,
        _oracle: &gen::Oracle,
        secs: f64,
        traced: bool,
    ) -> io::Result<()> {
        let mut off = Recorder::new(false, ctx.epoch, 401);
        let rec = if traced { &mut self.rec } else { &mut off };
        let t = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        let lv = &mut self.lv;
        let stream = &self.stream;
        let opts = EvalOptions::default();
        // The seed picks the level order within a round.
        let rotation = (ctx.seed % 4) as usize;
        let (mut runs, mut bad) = (0u64, Vec::new());
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let mut first = true;
        while first || Instant::now() < deadline {
            first = false;
            let round = self.rounds;
            self.rounds += 1;
            for j in 0..4 {
                let level = (rotation + j) % 4;
                let out = &mut t.level[level];
                let (v, state) = match level {
                    0 => timed(rec, "monitor.eval_monitored_with", round, out, || {
                        eval_monitored_with(
                            &lv.program,
                            &Env::empty(),
                            &lv.monitor,
                            lv.monitor.initial_state(),
                            &opts,
                        )
                        .map(|(v, s)| (v, s.state))
                    })
                    .map_err(err),
                    1 => timed(rec, "pe.run_monitored", round, out, || {
                        lv.level2
                            .run_monitored(&lv.specialized, &opts)
                            .map(|(v, s)| (v, s.state))
                    })
                    .map_err(err),
                    2 => match timed(rec, "pe.level3_run", round, out, || lv.level3.run()) {
                        Ok(Value::Pair(v, s)) => Ok((
                            (*v).clone(),
                            match *s {
                                Value::Int(s) => s as u32,
                                _ => u32::MAX,
                            },
                        )),
                        Ok(other) => Err(err(format!("level 3 returned {other}"))),
                        Err(e) => Err(err(e)),
                    },
                    _ => timed(rec, "pe.tiered_run", round, out, || lv.tiered.run())
                        .map(|r| (r.value, r.state))
                        .map_err(err),
                }?;
                runs += 1;
                if v != self.answer || state != self.want_state {
                    bad.push(format!(
                        "level {} run {round}: answer {v}, state {state}; level 1 gave {}, {}",
                        level + 1,
                        self.answer,
                        self.want_state
                    ));
                }
            }
            if traced {
                let (erased, compiled) = (&self.erased, &self.erased_compiled);
                timed(rec, "core.eval_with", round, &mut t.core_eval, || {
                    monsem_core::eval_with(erased, &Env::empty(), &opts)
                })
                .map_err(err)?;
                timed(
                    rec,
                    "core.compiled_run",
                    round,
                    &mut t.core_compiled,
                    || compiled.run(),
                )
                .map_err(err)?;
            }

            // record: what `monsem record --spec --checkpoint-every` does.
            let start = Instant::now();
            let mem = MemorySink::new();
            let sink = SharedSink::new(mem.clone());
            let (_, live) = rec
                .span("monitor.record_monitored_with", round, |_| {
                    record_monitored_with(
                        &lv.program,
                        &Env::empty(),
                        lv.monitor.clone(),
                        &sink,
                        &opts,
                    )
                })
                .map_err(err)?;
            let events = mem.take();
            let tape = rec.span("tape.checkpoint.write_tape_checkpointed", round, |_| {
                write_tape_checkpointed(&events, &lv.monitor, Some(stream), CKPT_EVERY)
            });
            t.record.push(start.elapsed().as_secs_f64() * 1e3);
            self.events_per_run = events.len() as u64;

            // check: what `monsem check <tape> <spec> --stream` does.
            let start = Instant::now();
            let mut decoded = rec
                .span("tape.format.read_tape", round, |_| read_tape(&tape))
                .map_err(err)?;
            if ctx.corrupts("monitored-run") {
                gen::corrupt(&mut decoded, "B");
            }
            let full = rec.span("tspec.check_tape", round, |_| {
                lv.monitor.check_tape(&decoded)
            });
            let slo = rec.span("stream.check_tape", round, |_| stream.check_tape(&decoded));
            t.check.push(start.elapsed().as_secs_f64() * 1e3);
            if full.state.state != live.state
                || full.state.violation.is_some() != live.violation.is_some()
            {
                bad.push(format!(
                    "offline check of run {round}: state {} vs live {}",
                    full.state.state, live.state
                ));
            }
            if (slo.fired_total, slo.missed, slo.completed) != self.want_stream {
                bad.push(format!(
                    "offline stream check of run {round} differs from the recorded events' check"
                ));
            }

            // check --from: a seeded check from a late offset.
            let from = (events.len() as u64 * (75 + self.rng.below(20))) / 100;
            let seeded = timed(
                rec,
                "tape.checkpoint.check_tape_from",
                round,
                &mut t.check_from,
                || check_tape_from(&lv.monitor, &tape, from),
            )
            .map_err(err)?;
            t.replayed = seeded.replayed;
            if (
                &seeded.check.outcome,
                seeded.check.earliest_violation,
                seeded.check.state.state,
            ) != (&full.outcome, full.earliest_violation, full.state.state)
            {
                bad.push(format!(
                    "check --from {from} of run {round} differs from the full check"
                ));
            }
            if traced {
                let (_, ckpts) = read_tape_checkpointed(&tape).map_err(err)?;
                rec.span("tape.checkpoint.seek_checkpoint", round, |_| {
                    seek_checkpoint(&ckpts, from, SPEC).map(|c| c.events)
                });
            }
            runs += 3;
        }
        report.check(
            format!(
                "monitored-run: {} of {runs} outcomes differ: {:?}",
                bad.len(),
                bad.first()
            ),
            bad.is_empty(),
            runs,
        );
        Ok(())
    }

    /// Reports the metrics (and, in traced runs, the per-layer ones).
    fn finish(mut self: Box<Self>, ctx: &Ctx, report: &mut Report) -> io::Result<()> {
        let t = &mut self.plain;
        let level1 = low_decile(&mut t.level[0]);
        report.setups("monitored-run", &self.setups);
        report.metric("level1_ms", level1, "ms");
        report.metric("level2_ms", low_decile(&mut t.level[1]), "ms");
        report.metric("level3_ms", low_decile(&mut t.level[2]), "ms");
        report.metric("tiered_ms", low_decile(&mut t.level[3]), "ms");
        report.metric("record_ms", low_decile(&mut t.record), "ms");
        let events = self.events_per_run as f64;
        report.metric(
            "check_events_per_s",
            events / (low_decile(&mut t.check) / 1e3),
            "1/s",
        );
        report.metric("check_from_ms", low_decile(&mut t.check_from), "ms");
        report.note(format!(
            "monitored-run: {} rounds of levels 1/2/3/tiered + record + check + check --from; per-call times (the low decile is reported):",
            self.rounds,
        ));
        for (name, times) in [
            ("level 1", &t.level[0]),
            ("level 2", &t.level[1]),
            ("level 3", &t.level[2]),
            ("tiered", &t.level[3]),
            ("record", &t.record),
            ("check", &t.check),
            ("check --from", &t.check_from),
        ] {
            report.note(format!(
                "  {name}: p10 {:.4} ms, {}",
                low_decile(&mut times.clone()),
                summary(times, "ms")
            ));
        }
        if !ctx.trace {
            return Ok(());
        }
        let tt = &mut self.traced;
        let mut trace = std::mem::take(&mut self.setup_trace);
        trace.absorb(std::mem::replace(
            &mut self.rec,
            Recorder::new(false, ctx.epoch, 0),
        ));
        let span_ms = |name: &str| median(&mut trace.durations(name)) / 1e6;
        let eval = low_decile(&mut tt.core_eval);
        let compiled = low_decile(&mut tt.core_compiled);
        let traced_level1 = low_decile(&mut tt.level[0]);
        let stats = *self.lv.tiered.stats();
        report.layer(
            "trace.run_overhead_share",
            traced_level1 / level1 - 1.0,
            "share",
        );
        report.layer("syntax.parse_us", span_ms("syntax.parse_expr") * 1e3, "us");
        report.layer("core.eval_ms", eval, "ms");
        report.layer("core.compiled_ms", compiled, "ms");
        report.layer("monitor.level1_overhead_ms", traced_level1 - eval, "ms");
        report.layer(
            "monitor.record_overhead_ms",
            low_decile(&mut trace.durations("monitor.record_monitored_with")) / 1e6 - traced_level1,
            "ms",
        );
        report.layer(
            "monitor.events_per_run",
            self.events_per_run as f64,
            "count",
        );
        report.layer("pe.compile_ms", span_ms("pe.compile_monitored"), "ms");
        report.layer("pe.instrument_ms", span_ms("pe.instrument_spec"), "ms");
        report.layer("pe.promote_ms", span_ms("pe.promote"), "ms");
        report.layer(
            "pe.level2_overhead_ms",
            low_decile(&mut tt.level[1]) - compiled,
            "ms",
        );
        report.layer(
            "pe.level3_overhead_ms",
            low_decile(&mut tt.level[2]) - compiled,
            "ms",
        );
        report.layer(
            "pe.tiered_residual_share",
            stats.residual_runs as f64 / (stats.residual_runs + stats.interpreted_runs) as f64,
            "share",
        );
        report.layer(
            "pe.tiered_guard_failures",
            stats.guard_failures as f64,
            "count",
        );
        report.layer(
            "tape.checkpoint.write_ms",
            span_ms("tape.checkpoint.write_tape_checkpointed"),
            "ms",
        );
        report.layer(
            "tape.checkpoint.seek_us",
            span_ms("tape.checkpoint.seek_checkpoint") * 1e3,
            "us",
        );
        report.layer(
            "tape.checkpoint.replayed_events",
            tt.replayed as f64,
            "count",
        );
        report.trace.extend(trace);
        Ok(())
    }
}
