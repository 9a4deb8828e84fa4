//! End-to-end tests of the `monsem` command-line tool and the REPL
//! binary, via their real executables.

use std::io::Write;
use std::process::{Command, Stdio};

fn monsem(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_monsem"))
        .args(args)
        .output()
        .expect("monsem runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn run_evaluates_programs() {
    let (stdout, _, ok) = monsem(&[
        "run",
        "-e",
        "letrec fac = lambda x. if x = 0 then 1 else x * (fac (x - 1)) in fac 5",
    ]);
    assert!(ok);
    assert_eq!(stdout.trim(), "120");
}

#[test]
fn run_supports_language_modules() {
    let (stdout, _, ok) = monsem(&[
        "run",
        "--module",
        "imperative",
        "-e",
        "let x = 0 in while x < 7 do x := x + 1 end; x",
    ]);
    assert!(ok);
    assert_eq!(stdout.trim(), "7");

    let (stdout, _, ok) = monsem(&["run", "--module", "lazy", "-e", "(lambda u. 9) (1 / 0)"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "9");
}

#[test]
fn trace_prints_the_transcript() {
    let (stdout, _, ok) = monsem(&[
        "trace",
        "-e",
        "letrec fac = lambda x. if x = 0 then 1 else x * (fac (x - 1)) in fac 2",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("[FAC receives (2)]"), "{stdout}");
    assert!(stdout.trim_end().ends_with("answer: 2"), "{stdout}");
}

#[test]
fn profile_reports_counts() {
    let (stdout, _, ok) = monsem(&[
        "profile",
        "-e",
        "letrec mul = lambda x. lambda y. x*y in \
         letrec fac = lambda x. if (x=0) then 1 else mul x (fac (x-1)) in fac 3",
    ]);
    assert!(ok);
    assert!(stdout.contains("[fac ↦ 4, mul ↦ 3]"), "{stdout}");
}

#[test]
fn specialize_prints_residuals_and_values() {
    let (stdout, stderr, ok) = monsem(&[
        "specialize",
        "-e",
        "letrec pow = lambda b. lambda e. if e = 0 then 1 else b * (pow b (e - 1)) \
         in pow base e",
        "--input",
        "e=4",
    ]);
    assert!(ok);
    assert_eq!(stdout.trim(), "base * (base * (base * (base * 1)))");
    assert!(stderr.contains("unfolds"), "{stderr}");
}

#[test]
fn bta_renders_two_level_terms() {
    let (stdout, stderr, ok) = monsem(&["bta", "-e", "n + (2 * 3)"]);
    assert!(ok);
    assert!(stdout.contains("«n»"), "{stdout}");
    assert!(stderr.contains("static points"), "{stderr}");
}

#[test]
fn parse_errors_carry_line_and_column() {
    let (_, stderr, ok) = monsem(&["run", "-e", "if x\nthen"]);
    assert!(!ok);
    assert!(stderr.contains("parse error at 2:5"), "{stderr}");
}

#[test]
fn unknown_commands_fail_with_usage() {
    let (_, stderr, ok) = monsem(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn repl_session_end_to_end() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_monsem-repl"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("repl starts");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            b"def double = lambda x. x * 2\n\
              double 21\n\
              sum (map double (range 1 3))\n\
              :quit\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("42"), "{stdout}");
    assert!(stdout.contains("12"), "{stdout}"); // 2 + 4 + 6
    assert!(stdout.contains("bye"), "{stdout}");
}

/// `monsem check <tape> <spec> --stream <spec>` on a recorded violating
/// tape prints exactly the verdict and firing lines the library's owned
/// `check_tape`s conclude, exits 1, and prints the same under `--from 0`.
#[test]
fn check_prints_the_owned_checks_verdict_and_firings() {
    use monitoring_semantics::stream::StreamMonitor;
    use monitoring_semantics::tape::read_tape;
    use monitoring_semantics::tspec::{SpecMonitor, TapeOutcome};

    const SPEC: &str = "never(post(_) and value < 0)";
    const STREAM: &str = "stream neg = count(post(_) and value < 0) over window(4)\n\
                          trigger bad = neg >= 1\n\
                          trigger busy = neg >= 2";
    let tape = std::env::temp_dir().join(format!("monsem-cli-check-{}.tape", std::process::id()));
    let tape_arg = tape.to_str().unwrap();
    let (_, stderr, ok) = monsem(&[
        "record",
        "-e",
        "{a}:1 + {b}:(0 - 2) + {c}:3 + {b}:(0 - 4) + {d}:(0 - 5)",
        "--out",
        tape_arg,
        "--spec",
        SPEC,
        "--checkpoint-every",
        "3",
    ]);
    assert!(ok, "{stderr}");
    let check = |from: Option<&str>| {
        let mut args = vec!["check", tape_arg, SPEC, "--stream", STREAM];
        args.extend(from.map(|n| ["--from", n]).into_iter().flatten());
        let out = Command::new(env!("CARGO_BIN_EXE_monsem"))
            .args(&args)
            .output()
            .expect("monsem runs");
        assert_eq!(out.status.code(), Some(1), "a violated tape exits 1");
        String::from_utf8(out.stdout).unwrap()
    };
    let (full, from_zero) = (check(None), check(Some("0")));

    let events = read_tape(&std::fs::read(&tape).unwrap()).unwrap();
    std::fs::remove_file(&tape).unwrap();
    let safety = SpecMonitor::new("check", SPEC).unwrap().check_tape(&events);
    let mut expected = match (&safety.outcome, safety.earliest_violation) {
        (TapeOutcome::Violated(reason), Some(step)) => {
            format!("violated at step {step}: {reason}\n")
        }
        other => panic!("the tape violates the spec mid-trace: {other:?}"),
    };
    let stream = StreamMonitor::new("check-stream", STREAM)
        .unwrap()
        .check_tape(&events);
    assert!(stream.firings.len() >= 2, "{stream:?}");
    for f in &stream.firings {
        let step = f.step.expect("a tape firing carries its step");
        expected += &format!("step {step}: {}\n", f.reason);
    }
    assert!(stream.completed && stream.missed == 0);
    expected += &format!(
        "stream: {} firing(s), 0 deadline miss(es) over {} events\n",
        stream.fired_total, stream.state.events
    );
    assert_eq!(full, expected);
    assert_eq!(from_zero, full, "--from 0 replays the whole tape");
}

/// `monsem check <tape> <spec> --stream <spec> --from N` seeds both
/// checks from its one decode exactly as the byte-slice
/// `check_tape_from` and `check_stream_from` do: the same verdict and
/// firing lines, the same resume points, and exit 1 on the violation.
#[test]
fn check_from_seeds_both_specs_as_the_library_does() {
    use monitoring_semantics::stream::StreamMonitor;
    use monitoring_semantics::tape::{check_stream_from, check_tape_from};
    use monitoring_semantics::tspec::{SpecMonitor, TapeOutcome};

    const SPEC: &str = "never(post(_) and value < 0)";
    const STREAM: &str = "stream neg = count(post(_) and value < 0) over window(4)\n\
                          trigger bad = neg >= 1";
    const FROM: u64 = 7;
    let tape = std::env::temp_dir().join(format!("monsem-cli-from-{}.tape", std::process::id()));
    let tape_arg = tape.to_str().unwrap();
    let (_, stderr, ok) = monsem(&[
        "record",
        "-e",
        "{a}:1 + {b}:2 + {c}:3 + {d}:(0 - 4) + {e}:5 + {f}:(0 - 6)",
        "--out",
        tape_arg,
        "--spec",
        SPEC,
        "--checkpoint-every",
        "3",
    ]);
    assert!(ok, "{stderr}");
    let from = FROM.to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_monsem"))
        .args(["check", tape_arg, SPEC, "--stream", STREAM, "--from", &from])
        .output()
        .expect("monsem runs");
    let bytes = std::fs::read(&tape).unwrap();
    std::fs::remove_file(&tape).unwrap();
    assert_eq!(out.status.code(), Some(1), "a violated tape exits 1");

    let safety = check_tape_from(&SpecMonitor::new("check", SPEC).unwrap(), &bytes, FROM).unwrap();
    let stream = check_stream_from(
        &StreamMonitor::new("check-stream", STREAM).unwrap(),
        &bytes,
        FROM,
    )
    .unwrap();
    assert!(safety.resumed_at > 0, "the safety check seeks a checkpoint");
    assert_eq!(stream.resumed_at, 0, "no stream snapshot: a full replay");
    let mut expected = match (&safety.check.outcome, safety.check.earliest_violation) {
        (TapeOutcome::Violated(reason), Some(step)) => {
            format!("violated at step {step}: {reason}\n")
        }
        other => panic!("the tape violates the spec mid-trace: {other:?}"),
    };
    assert!(!stream.check.firings.is_empty(), "{stream:?}");
    for f in &stream.check.firings {
        let step = f.step.expect("a tape firing carries its step");
        expected += &format!("step {step}: {}\n", f.reason);
    }
    expected += &format!(
        "stream: {} firing(s), 0 deadline miss(es) over {} events\n",
        stream.check.fired_total, stream.check.state.events
    );
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);
    let resumed: Vec<String> = String::from_utf8(out.stderr)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with("; resumed"))
        .map(str::to_string)
        .collect();
    let line = |s: u64, r: u64| format!("; resumed at event {s} ({r} of {} replayed)", s + r);
    assert_eq!(
        resumed,
        [
            line(safety.resumed_at, safety.replayed),
            line(stream.resumed_at, stream.replayed)
        ]
    );
}

/// `monsem serve --io-backend threaded` is refused, and the error says
/// that backend was removed: the epoll reactor is the only one.
#[test]
fn serve_refuses_the_removed_threaded_backend() {
    let (_, stderr, ok) = monsem(&["serve", "--tcp", "127.0.0.1:0", "--io-backend", "threaded"]);
    assert!(!ok);
    assert!(
        stderr.contains("threaded") && stderr.contains("removed"),
        "{stderr}"
    );
}

/// `monsem serve --io-backend reactor` (the old spelling of the only
/// backend) comes up, names the reactor in the listen banner, serves a
/// real session over TCP, and drains cleanly on `stop`.
#[cfg(target_os = "linux")]
#[test]
fn serve_reactor_backend_smoke() {
    use monitoring_semantics::core::Value;
    use monitoring_semantics::monitor::TapeEvent;
    use monitoring_semantics::syntax::Annotation;
    use monitoring_semantics::tape::{Client, Response};
    use std::io::BufRead;

    let mut child = Command::new(env!("CARGO_BIN_EXE_monsem"))
        .args([
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--io-backend",
            "reactor",
            "--io-threads",
            "2",
        ])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("monsem serve starts");

    let mut stderr = std::io::BufReader::new(child.stderr.take().unwrap());
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    assert!(
        banner.contains("listening on tcp") && banner.contains("reactor:2"),
        "{banner}"
    );
    let addr = banner
        .split("tcp ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("banner carries the bound address");

    let mut client = Client::connect_tcp(addr).expect("connect to served address");
    assert!(matches!(
        client
            .open(1, "never(post(_) and value < 0)", false)
            .unwrap(),
        Response::Ok
    ));
    let events: Vec<TapeEvent> = (0..10)
        .map(|s| {
            TapeEvent::post(
                &Annotation::label("p"),
                &Value::Int(if s == 7 { -1 } else { 1 }),
                s,
            )
        })
        .chain(std::iter::once(TapeEvent::done(10)))
        .collect();
    client.send_batch(1, &events).unwrap();
    let resp = client.close(1).unwrap();
    match resp {
        Response::Verdict(v) => {
            assert_eq!(v.accepted, Some(false), "{v:?}");
            assert_eq!(v.earliest_violation, Some(7), "{v:?}");
        }
        other => panic!("expected verdict, got {other:?}"),
    }
    drop(client);

    child.stdin.as_mut().unwrap().write_all(b"stop\n").unwrap();
    let status = child.wait().unwrap();
    assert!(status.success());
}
