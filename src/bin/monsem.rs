//! `monsem` — a command-line front end for the monitoring-semantics
//! environment (§9.2 as a shell tool).
//!
//! ```text
//! monsem run        (-e <src> | <file>) [--module strict|lazy|imperative]
//! monsem trace      (-e <src> | <file>) --functions f,g,…
//! monsem profile    (-e <src> | <file>) [--functions f,g,…]
//! monsem instrument (-e <src> | <file>)            # level-2 artifact, as source
//! monsem specialize (-e <src> | <file>) [--input name=int]…   # level 3
//! ```
//!
//! Examples:
//!
//! ```text
//! monsem run -e 'letrec fac = lambda x. if x = 0 then 1 else x * (fac (x - 1)) in fac 5'
//! monsem trace -e '…' --functions fac
//! monsem specialize -e 'pow base e' --input e=10
//! ```

use monitoring_semantics::core::machine::eval;
use monitoring_semantics::core::Value;
use monitoring_semantics::monitor::session::{LanguageModule, Session};
use monitoring_semantics::monitors::toolbox;
use monitoring_semantics::pe::instrument::{instrument, step_counter};
use monitoring_semantics::pe::simplify::simplify;
use monitoring_semantics::pe::specialize::{specialize_with, SpecializeOptions};
use monitoring_semantics::syntax::points::{
    bound_function_names, profile_functions, trace_functions,
};
use monitoring_semantics::syntax::{parse_program, Expr, Ident, Namespace};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("monsem: {message}");
            ExitCode::from(2)
        }
    }
}

fn ok(result: Result<(), String>) -> Result<ExitCode, String> {
    result.map(|()| ExitCode::SUCCESS)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    match command.as_str() {
        "run" => ok(cmd_run(rest)),
        "trace" => ok(cmd_trace(rest)),
        "profile" => ok(cmd_profile(rest)),
        "instrument" => ok(cmd_instrument(rest)),
        "bta" => ok(cmd_bta(rest)),
        "specialize" => ok(cmd_specialize(rest)),
        "record" => ok(cmd_record(rest)),
        "check" => cmd_check(rest),
        "serve" => ok(cmd_serve(rest)),
        "swap" => ok(cmd_swap(rest)),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  monsem run        (-e <src> | <file>) [--module strict|lazy|imperative]\n  \
     monsem trace      (-e <src> | <file>) [--functions f,g,…]\n  \
     monsem profile    (-e <src> | <file>) [--functions f,g,…]\n  \
     monsem instrument (-e <src> | <file>)\n  \
     monsem bta        (-e <src> | <file>) [--static name,name]\n  \
     monsem specialize (-e <src> | <file>) [--input name=int]…\n  \
     monsem record     (-e <src> | <file>) --out <tape.bin> [--spec <spec|file>] [--timed] [--checkpoint-every N]\n  \
     monsem check      <tape.bin> [<spec|file>] [--stream <spec|file>] [--enforcing] [--from N]\n  \
     monsem serve      (--tcp <addr> | --unix <path>) [--shards N] [--queue N] [--window N] [--ack-every N] [--checkpoint-every N] [--policy fatal|quarantine] [--io-threads N]\n  \
     monsem swap       (--tcp <addr> | --unix <path>) --session <id> [<spec|file>] [--stream <spec|file>]"
        .to_string()
}

/// Reads the program from `-e <src>` or a file path, returning it plus
/// the remaining flags.
fn program_and_flags(args: &[String]) -> Result<(Expr, Vec<String>), String> {
    let mut source: Option<String> = None;
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "-e" {
            let src = it.next().ok_or("-e needs an argument")?;
            source = Some(src.clone());
        } else if a.starts_with("--") {
            flags.push(a.clone());
            // Value-less flags must not swallow the next argument.
            if a != "--timed" {
                if let Some(v) = it.next() {
                    flags.push(v.clone());
                }
            }
        } else if source.is_none() {
            source =
                Some(std::fs::read_to_string(a).map_err(|e| format!("cannot read `{a}`: {e}"))?);
        } else {
            return Err(format!("unexpected argument `{a}`"));
        }
    }
    let source = source.ok_or_else(usage)?;
    let program = parse_program(&source).map_err(|e| e.display_in(&source))?;
    Ok((program, flags))
}

fn flag_value<'a>(flags: &'a [String], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .position(|f| f == name)
        .and_then(|i| flags.get(i + 1))
        .map(String::as_str)
}

fn requested_functions(program: &Expr, flags: &[String]) -> Vec<Ident> {
    match flag_value(flags, "--functions") {
        Some(list) => list.split(',').map(str::trim).map(Ident::new).collect(),
        None => bound_function_names(program),
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let (program, flags) = program_and_flags(args)?;
    let module = match flag_value(&flags, "--module").unwrap_or("strict") {
        "strict" => LanguageModule::Strict,
        "lazy" => LanguageModule::Lazy,
        "imperative" => LanguageModule::Imperative,
        other => return Err(format!("unknown language module `{other}`")),
    };
    let report = Session::new()
        .language(module)
        .run_expr(&program)
        .map_err(|e| e.to_string())?;
    println!("{}", report.answer);
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let (program, flags) = program_and_flags(args)?;
    let functions = requested_functions(&program, &flags);
    let annotated = trace_functions(&program, &functions, &Namespace::anonymous())
        .map_err(|e| e.to_string())?;
    let report = Session::new()
        .monitor(toolbox::trace())
        .run_expr(&annotated)
        .map_err(|e| e.to_string())?;
    if let Some(t) = report.rendered_of("tracer") {
        println!("{t}");
    }
    println!("answer: {}", report.answer);
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let (program, flags) = program_and_flags(args)?;
    let functions = requested_functions(&program, &flags);
    let annotated = profile_functions(&program, &functions, &Namespace::anonymous())
        .map_err(|e| e.to_string())?;
    let report = Session::new()
        .monitor(toolbox::profile())
        .run_expr(&annotated)
        .map_err(|e| e.to_string())?;
    if let Some(p) = report.rendered_of("profiler") {
        println!("{p}");
    }
    println!("answer: {}", report.answer);
    Ok(())
}

fn cmd_instrument(args: &[String]) -> Result<(), String> {
    let (program, _) = program_and_flags(args)?;
    let instrumented = instrument(&program, &step_counter());
    println!(
        "{}",
        monitoring_semantics::syntax::pretty::pretty_block(&simplify(&instrumented), 80)
    );
    Ok(())
}

fn cmd_bta(args: &[String]) -> Result<(), String> {
    let (program, flags) = program_and_flags(args)?;
    let statics: Vec<Ident> = flag_value(&flags, "--static")
        .map(|list| list.split(',').map(str::trim).map(Ident::new).collect())
        .unwrap_or_default();
    let division = monitoring_semantics::pe::bta::analyze(&program, &statics);
    let (s, d) = division.counts();
    eprintln!("; {s} static points, {d} dynamic points (dynamic parts in «…»)");
    println!(
        "{}",
        monitoring_semantics::pe::bta::render_two_level(&program, &division)
    );
    Ok(())
}

/// Reads a spec argument: a path to a `.tsp` file if one exists, else
/// the argument itself as inline spec source.
fn load_spec(arg: &str) -> Result<String, String> {
    if std::path::Path::new(arg).is_file() {
        std::fs::read_to_string(arg).map_err(|e| format!("cannot read `{arg}`: {e}"))
    } else {
        Ok(arg.to_string())
    }
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    use monitoring_semantics::monitor::{record_monitored, MemorySink, SharedSink};
    use monitoring_semantics::tape::{write_tape, write_tape_checkpointed};
    use monitoring_semantics::tspec::SpecMonitor;
    let (program, flags) = program_and_flags(args)?;
    let out = flag_value(&flags, "--out").ok_or("record needs --out <tape.bin>")?;
    let checkpoint_every: Option<usize> = flag_value(&flags, "--checkpoint-every")
        .map(|v| v.parse().map_err(|_| "--checkpoint-every needs an integer"))
        .transpose()?;
    let mem = MemorySink::new();
    let sink = if flags.iter().any(|f| f == "--timed") {
        // Stamp every event with wall-clock milliseconds (tape format
        // v2), enabling offline deadline checking.
        let epoch = std::time::Instant::now();
        SharedSink::with_clock(mem.clone(), move || epoch.elapsed().as_millis() as u64)
    } else {
        SharedSink::new(mem.clone())
    };
    let spec_src = flag_value(&flags, "--spec").map(load_spec).transpose()?;
    if checkpoint_every.is_some() && spec_src.is_none() {
        return Err("--checkpoint-every needs --spec (a checkpoint pins the spec's state)".into());
    }
    let answer = match &spec_src {
        Some(src) => {
            let monitor = SpecMonitor::new("cli", src).map_err(|e| e.to_string())?;
            let (value, state) =
                record_monitored(&program, monitor, &sink).map_err(|e| e.to_string())?;
            if let Some(v) = &state.violation {
                eprintln!("; live violation: {v}");
            }
            value
        }
        None => {
            let (value, ()) = record_monitored(
                &program,
                monitoring_semantics::monitor::IdentityMonitor,
                &sink,
            )
            .map_err(|e| e.to_string())?;
            value
        }
    };
    let events = mem.take();
    let bytes = match checkpoint_every {
        Some(every) => {
            // Re-fold a fresh monitor over the recorded events so each
            // checkpoint pins the exact DFA state at its cut.
            let src = spec_src.as_deref().expect("checked above");
            let monitor = SpecMonitor::new("cli", src).map_err(|e| e.to_string())?;
            write_tape_checkpointed(&events, &monitor, None, every)
        }
        None => write_tape(&events),
    };
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    eprintln!("; {} events, {} bytes -> {out}", events.len(), bytes.len());
    println!("{answer}");
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    use monitoring_semantics::monitor::tape::Check;
    use monitoring_semantics::stream::StreamMonitor;
    use monitoring_semantics::tape::{
        check_stream_from_decoded, check_tape_from_decoded, ViewDecoder,
    };
    use monitoring_semantics::tspec::{SpecMonitor, TapeOutcome};
    use monitoring_semantics::Monitor;
    let stream_arg = flag_value(args, "--stream");
    let from: Option<u64> = flag_value(args, "--from")
        .map(|v| v.parse().map_err(|_| "--from needs an event offset"))
        .transpose()?;
    let positional: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && !matches!(args.get(i.wrapping_sub(1)), Some(prev) if prev == "--stream" || prev == "--from")
        })
        .map(|(_, a)| a)
        .collect();
    let (tape_path, spec_arg) = match positional.as_slice() {
        [tape] if stream_arg.is_some() => (tape, None),
        [tape, spec] => (tape, Some(spec)),
        _ => return Err("check needs <tape.bin> and a <spec|file> and/or --stream".to_string()),
    };
    let bytes = std::fs::read(tape_path).map_err(|e| format!("cannot read `{tape_path}`: {e}"))?;
    // One decode into views serves both specs, with the checkpoints
    // `--from` seeks.
    let mut decoder = ViewDecoder::new();
    let mut checkpoints = Vec::new();
    let tape = match from {
        Some(_) => decoder.decode_checkpointed(&bytes, &mut checkpoints),
        None => decoder.decode(&bytes),
    }
    .map_err(|e| e.to_string())?;
    let mut code = ExitCode::SUCCESS;
    if let Some(spec_arg) = spec_arg {
        let src = load_spec(spec_arg)?;
        let mut monitor = SpecMonitor::new("check", &src).map_err(|e| e.to_string())?;
        if args.iter().any(|a| a == "--enforcing") {
            monitor = monitor.enforcing();
        }
        let check = match from {
            Some(n) => {
                // Seek to the last checkpoint at or before the offset
                // (falling back to a full replay when none fits).
                let seeded = check_tape_from_decoded(&monitor, &tape, &checkpoints, n);
                eprintln!(
                    "; resumed at event {} ({} of {} replayed)",
                    seeded.resumed_at,
                    seeded.replayed,
                    seeded.resumed_at + seeded.replayed
                );
                seeded.check
            }
            None => {
                let mut check = Check::new(monitor.initial_state());
                check.fold(&monitor, tape.events(), &tape);
                monitor.check_result(check)
            }
        };
        match &check.outcome {
            TapeOutcome::Satisfied => {
                println!("satisfied after {} events", check.state.events);
            }
            TapeOutcome::Pending => {
                println!(
                    "pending after {} events (no `done` marker on the tape)",
                    check.state.events
                );
            }
            TapeOutcome::Violated(reason) => {
                match check.earliest_violation {
                    Some(step) => println!("violated at step {step}: {reason}"),
                    None => println!("violated at end of trace: {reason}"),
                }
                code = ExitCode::from(1);
            }
        }
    }
    if let Some(stream_arg) = stream_arg {
        let src = load_spec(stream_arg)?;
        let monitor = StreamMonitor::new("check-stream", &src).map_err(|e| e.to_string())?;
        eprintln!("; static memory bound:");
        for line in monitor.spec().memory().to_string().lines() {
            eprintln!(";{line}");
        }
        let check = match from {
            Some(n) => {
                let seeded = check_stream_from_decoded(&monitor, &tape, &checkpoints, n);
                eprintln!(
                    "; resumed at event {} ({} of {} replayed)",
                    seeded.resumed_at,
                    seeded.replayed,
                    seeded.resumed_at + seeded.replayed
                );
                seeded.check
            }
            None => {
                let mut check = Check::new(monitor.initial_state());
                check.fold(&monitor, tape.events(), &tape);
                monitor.check_result(check)
            }
        };
        for f in &check.firings {
            match f.step {
                Some(step) => println!("step {step}: {}", f.reason),
                None => println!("{}", f.reason),
            }
        }
        if let Some(miss) = &check.state.first_miss {
            println!("deadline {miss}");
        }
        println!(
            "stream: {} firing(s), {} deadline miss(es) over {} events{}",
            check.fired_total,
            check.missed,
            check.state.events,
            if check.completed {
                ""
            } else {
                " (no `done` marker)"
            }
        );
        if check.fired_total > 0 || check.missed > 0 {
            code = ExitCode::from(1);
        }
    }
    Ok(code)
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use monitoring_semantics::monitor::fault::FaultPolicy;
    use monitoring_semantics::tape::{
        serve_tcp_with, serve_unix_with, MonitorServer, ServerConfig, DEFAULT_IO_THREADS,
    };
    use std::sync::Arc;
    let parse = |name: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, name) {
            Some(v) => v.parse().map_err(|_| format!("{name} needs an integer")),
            None => Ok(default),
        }
    };
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        shards: parse("--shards", defaults.shards)?,
        queue_depth: parse("--queue", defaults.queue_depth)?,
        swap_window: parse("--window", defaults.swap_window)?,
        ack_every: parse("--ack-every", defaults.ack_every)?,
        checkpoint_every: parse("--checkpoint-every", defaults.checkpoint_every)?,
        policy: match flag_value(args, "--policy").unwrap_or("quarantine") {
            "fatal" => FaultPolicy::Fatal,
            "quarantine" => FaultPolicy::Quarantine,
            other => return Err(format!("unknown policy `{other}`")),
        },
        ..defaults
    };
    // The epoll reactor is the only I/O backend; `--io-backend reactor`
    // is still accepted so existing invocations keep working.
    if let Some(name) = flag_value(args, "--io-backend").filter(|&name| name != "reactor") {
        return Err(format!(
            "unknown io backend `{name}`: the threaded backend and the `reactor:N` spelling \
             were removed; `monsem serve` always runs the epoll reactor (size it with --io-threads)"
        ));
    }
    let io_threads = match flag_value(args, "--io-threads") {
        Some(n) => n
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("--io-threads needs a positive integer")?,
        None => DEFAULT_IO_THREADS,
    };
    let server = Arc::new(MonitorServer::start(config));
    let handle = match (flag_value(args, "--tcp"), flag_value(args, "--unix")) {
        (Some(addr), None) => {
            serve_tcp_with(Arc::clone(&server), addr, io_threads).map_err(|e| e.to_string())?
        }
        (None, Some(path)) => {
            serve_unix_with(Arc::clone(&server), path, io_threads).map_err(|e| e.to_string())?
        }
        _ => return Err("serve needs exactly one of --tcp <addr> or --unix <path>".to_string()),
    };
    let backend_name = if io_threads == DEFAULT_IO_THREADS {
        "reactor".to_string()
    } else {
        format!("reactor:{io_threads}")
    };
    match handle.addr() {
        Some(addr) => eprintln!("; monitor server listening on tcp {addr} ({backend_name} io)"),
        None => eprintln!("; monitor server listening on unix socket ({backend_name} io)"),
    }
    // Serve until stdin closes or says `stop`: queued events are still
    // folded (and acked) before the workers exit.
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "stop" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    eprintln!("; draining shard queues");
    handle.stop();
    server.shutdown();
    Ok(())
}

fn cmd_swap(args: &[String]) -> Result<(), String> {
    use monitoring_semantics::tape::{Client, Request, Response};
    let session: u64 = flag_value(args, "--session")
        .ok_or("swap needs --session <id>")?
        .parse()
        .map_err(|_| "--session needs an integer".to_string())?;
    let spec_arg = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && !matches!(args.get(i.wrapping_sub(1)), Some(prev) if prev.starts_with("--"))
        })
        .map(|(_, a)| a)
        .next();
    let stream_arg = flag_value(args, "--stream");
    if spec_arg.is_none() && stream_arg.is_none() {
        return Err("swap needs a <spec|file> argument and/or --stream <spec|file>".to_string());
    }
    let req = Request::Swap {
        session,
        spec: spec_arg.map(|a| load_spec(a)).transpose()?,
        stream: stream_arg.map(load_spec).transpose()?,
    };
    let response = match (flag_value(args, "--tcp"), flag_value(args, "--unix")) {
        (Some(addr), None) => Client::connect_tcp(addr)
            .and_then(|mut c| c.request(&req))
            .map_err(|e| e.to_string())?,
        (None, Some(path)) => Client::connect_unix(path)
            .and_then(|mut c| c.request(&req))
            .map_err(|e| e.to_string())?,
        _ => return Err("swap needs exactly one of --tcp <addr> or --unix <path>".to_string()),
    };
    match response {
        Response::Verdict(v) => {
            println!(
                "session {}: {} events ingested, health {}{}{}{}",
                v.session,
                v.ingested,
                v.health,
                match &v.violation {
                    Some(reason) => format!(", violation: {reason}"),
                    None => ", no violation".to_string(),
                },
                if v.firings > 0 || v.missed > 0 {
                    format!(", stream: {} firing(s), {} miss(es)", v.firings, v.missed)
                } else {
                    String::new()
                },
                if v.swap_truncated {
                    " (spliced from a truncated window)"
                } else {
                    ""
                }
            );
            Ok(())
        }
        Response::Ok => Ok(()),
        // The client absorbs ack frames inside `request`; a stray one
        // here means the server answered a swap with nonsense.
        Response::Ack { .. } => Err("unexpected ack reply to swap".to_string()),
        Response::Err(e) => Err(e),
    }
}

fn cmd_specialize(args: &[String]) -> Result<(), String> {
    let (program, flags) = program_and_flags(args)?;
    let mut inputs: Vec<(Ident, Value)> = Vec::new();
    let mut i = 0;
    while let Some(pos) = flags[i..].iter().position(|f| f == "--input") {
        let idx = i + pos;
        let spec = flags.get(idx + 1).ok_or("--input needs name=int")?;
        let (name, value) = spec.split_once('=').ok_or("--input needs name=int")?;
        let n: i64 = value
            .parse()
            .map_err(|_| format!("`{value}` is not an integer"))?;
        inputs.push((Ident::new(name), Value::Int(n)));
        i = idx + 2;
    }
    let (residual, stats) = specialize_with(&program, &inputs, &SpecializeOptions::default());
    let residual = simplify(&residual);
    eprintln!(
        "; {} unfolds, {} folds, residual size {}",
        stats.unfolds,
        stats.folds,
        residual.size()
    );
    println!(
        "{}",
        monitoring_semantics::syntax::pretty::pretty_block(&residual, 80)
    );
    // If the residual is closed, also print its value.
    if residual
        .free_vars()
        .iter()
        .all(|v| monitoring_semantics::core::prims::Prim::by_name(v.as_str()).is_some())
    {
        if let Ok(v) = eval(&residual) {
            eprintln!("; value: {v}");
        }
    }
    Ok(())
}
