//! Shared workloads for the benchmark harness reproducing the paper's
//! evaluation (§9.1 and Figure 11). See EXPERIMENTS.md at the workspace
//! root for the experiment index and measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use monsem_syntax::{parse_expr, Expr, Ident, Namespace};

/// The specialization-level workload (experiment E6): `fib n` with its
/// functions traced — the monitored interpreter prints nothing unless the
/// tracer asks, so trace volume is controlled by which functions carry
/// headers.
pub fn traced_fib(n: i64) -> Expr {
    let plain = parse_expr(&format!(
        "letrec fib = lambda n. if n < 2 then n else (fib (n-1)) + (fib (n-2)) in fib {n}"
    ))
    .expect("fixture parses");
    monsem_syntax::points::trace_functions(&plain, &[Ident::new("fib")], &Namespace::anonymous())
        .expect("fib exists")
}

/// Like the paper's benchmark program: `fac` through `mul`, traced, at a
/// size that keeps the interpreter busy.
pub fn traced_fac_mul(n: i64) -> Expr {
    monsem_core::programs::fac_mul_traced(n)
}

/// The Figure 11 workload: a fixed amount of computation (`iters` loop
/// iterations) of which exactly `traced` route through a function whose
/// body carries a tracer header. Varying `traced` at fixed `iters` sweeps
/// the *number of trace printouts* while the underlying computation stays
/// identical — the x-axis of Figure 11.
pub fn trace_density_program(iters: i64, traced: i64) -> Expr {
    assert!(traced <= iters, "traced events cannot exceed iterations");
    parse_expr(&format!(
        "letrec t = lambda x. {{t(x)}}:(x + 1) in \
         letrec u = lambda x. x + 1 in \
         letrec loop = lambda i. lambda acc. \
            if i = 0 then acc \
            else loop (i - 1) (if i <= {traced} then t acc else u acc) \
         in loop {iters} 0"
    ))
    .expect("fixture parses")
}

/// Fork-join workload (BENCH_parallel): `shards` independent profiled
/// `fib n` computations under one `par`. Every call routes through the
/// `{fib}` label, so the profiler state each shard accumulates is
/// proportional to the work it does — the adversarial case for
/// split/merge overhead.
pub fn par_fib(shards: usize, n: i64) -> Expr {
    let elems = vec![format!("fib {n}"); shards].join(", ");
    parse_expr(&format!(
        "letrec fib = lambda n. {{fib}}:(if n < 2 then n else (fib (n - 1)) + (fib (n - 2))) \
         in par({elems})"
    ))
    .expect("fixture parses")
}

/// Fork-join workload (BENCH_parallel): `shards` independent profiled
/// merge sorts of the reversed list `[n, …, 1]` under one `par` — the
/// list-heavy counterpart to [`par_fib`], with the recursive `sort`
/// carrying the profiled label.
pub fn par_merge_sort(shards: usize, n: i64) -> Expr {
    let elems = vec![format!("sort (build {n})"); shards].join(", ");
    parse_expr(&format!(
        "letrec take = lambda k. lambda l. \
            if k = 0 then [] else if null? l then [] \
            else (hd l) : (take (k - 1) (tl l)) in \
         letrec drop = lambda k. lambda l. \
            if k = 0 then l else if null? l then [] \
            else drop (k - 1) (tl l) in \
         letrec merge = lambda a. lambda b. \
            if null? a then b else if null? b then a \
            else if (hd a) <= (hd b) \
                 then (hd a) : (merge (tl a) b) \
                 else (hd b) : (merge a (tl b)) in \
         letrec sort = lambda l. {{sort}}:(\
            if null? l then [] else if null? (tl l) then l \
            else merge (sort (take ((length l) / 2) l)) \
                       (sort (drop ((length l) / 2) l))) in \
         letrec build = lambda i. if i = 0 then [] else i : (build (i - 1)) in \
         par({elems})"
    ))
    .expect("fixture parses")
}

/// Workload used by the monitor-overhead comparison: a countdown whose
/// branches carry `{A}`/`{B}` labels, so label-shaped monitors all have
/// `n`+1 events to process (no arithmetic overflow at any size, unlike
/// `fac`).
pub fn labelled_countdown(n: i64) -> Expr {
    parse_expr(&format!(
        "letrec count = lambda x. if (x = 0) then {{A}}:0 else {{B}}:(count (x - 1))          in count {n}"
    ))
    .expect("fixture parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use monsem_core::machine::eval;
    use monsem_core::Value;
    use monsem_monitor::machine::eval_monitored;
    use monsem_monitors::Tracer;

    #[test]
    fn traced_fib_matches_plain_fib() {
        assert_eq!(eval(&traced_fib(12)), Ok(Value::Int(144)));
    }

    #[test]
    fn trace_density_controls_event_count_without_changing_the_answer() {
        let quiet = trace_density_program(50, 0);
        let half = trace_density_program(50, 25);
        let full = trace_density_program(50, 50);
        assert_eq!(eval(&quiet), Ok(Value::Int(50)));
        assert_eq!(eval(&half), Ok(Value::Int(50)));
        assert_eq!(eval(&full), Ok(Value::Int(50)));
        let lines = |e: &Expr| {
            let (_, s) = eval_monitored(e, &Tracer::new()).unwrap();
            s.chan.lines().len()
        };
        assert_eq!(lines(&quiet), 0);
        assert_eq!(lines(&half), 50); // 25 receives + 25 returns
        assert_eq!(lines(&full), 100);
    }
}
