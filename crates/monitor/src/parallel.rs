//! Fork-join monitored evaluation: `par(e₁, …, eₙ)` elements on worker
//! threads, monitor states split at the fork and merged at the join.
//!
//! The sequential monitored machine ([`crate::machine`]) gives `par` its
//! reference semantics — evaluate the elements left-to-right, yield the
//! list of values, fire hooks in the linear order of §2. Fork-join
//! evaluation runs that same machine and produces the **same answer and
//! the same final monitor state** for any [`MergeMonitor`] whose
//! split/merge obey the documented laws, but shards the element
//! evaluations across a [`std::thread::scope`]:
//!
//! 1. Wherever the machine evaluates a `par` with more than one element —
//!    under `let` or `letrec`, inside a called function, or as the `par`
//!    that `par_map` rewrites to — it hands the elements to the fork hook.
//!    The current environment is frozen **once** ([`monsem_core::freeze`])
//!    and each element becomes a work item.
//! 2. Each shard starts from [`MergeMonitor::split`] of the fork-point
//!    state σ, thaws the environment on its worker thread, and runs the
//!    plain sequential monitored machine — so `par`s inside a shard
//!    evaluate sequentially (nesting stays flat), and every hook, abort,
//!    and fault policy behaves exactly as in [`crate::machine`].
//! 3. The join merges shard states **deterministically left-to-right**
//!    with [`MergeMonitor::merge_outcome`], regardless of completion
//!    order; shard answers are thawed into the result list in element
//!    order, and the machine continues with the list. Determinism is what
//!    lets the property tests pin `parallel ≡ sequential` bit-for-bit.
//!
//! Faults follow the PR 2 policy surface: a shard whose *monitor* panics
//! behaves per its [`Guarded`](crate::fault::Guarded) wrapper on the
//! worker thread (quarantine degrades, fatal propagates); a panic that
//! does escape a shard is caught at the join and surfaced as
//! [`EvalError::MonitorAbort`] — it never poisons the scope or the other
//! shards. Errors are ranked leftmost-first, matching the sequential
//! machine, which would have hit the leftmost failing element before
//! evaluating anything to its right.
//!
//! Resource accounting is **global**, as in the sequential machine:
//!
//! * **Fuel** is one shared budget. The machine charges its own
//!   transitions as usual; at a join, each shard's actual step count is
//!   charged back, so the elements of a `par` jointly cannot burn more
//!   fuel than a sequential run of the same program could. A shard's
//!   final transition stands for the sequential machine's return to the
//!   `par` frame, so a run that succeeds charges exactly the sequential
//!   step count.
//! * **Guarded budgets** are metered on a fork-shared
//!   [`BudgetLedger`](crate::fault::BudgetLedger), installed by
//!   [`MergeMonitor::fork`] — see [`Guarded`](crate::fault::Guarded).

use crate::fault::panic_message;
use crate::machine::{eval_monitored_stats_with, Execution};
use crate::spec::{MergeMonitor, Outcome};
use monsem_core::env::Env;
use monsem_core::error::EvalError;
use monsem_core::freeze::{freeze, freeze_env, thaw, thaw_env, FrozenValue};
use monsem_core::machine::{EvalOptions, LookupMode};
use monsem_core::value::Value;
use monsem_syntax::Expr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Options for fork-join evaluation.
#[derive(Debug, Clone)]
pub struct ParOptions {
    /// Worker threads used per `par` fork. Defaults to the machine's
    /// available parallelism (at least 1). A value of 1 still exercises
    /// the freeze/split/merge path, on the calling thread's schedule.
    pub threads: usize,
    /// Options of the monitored machine, threaded into each shard's
    /// sequential machine. The fuel budget is *global*: shards draw on the
    /// one remaining budget, and their actual step counts are charged back
    /// at the join.
    pub eval: EvalOptions,
}

impl Default for ParOptions {
    fn default() -> Self {
        ParOptions {
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            eval: EvalOptions::default(),
        }
    }
}

impl ParOptions {
    /// Sets the worker-thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// What one shard sends back across the scope boundary: the frozen
/// value, the shard's final monitor state, and the machine steps the
/// shard consumed (charged back to the parent's fuel at the join).
type ShardResult<S> = Result<(FrozenValue, S, u64), EvalError>;

/// Evaluates `expr` under `monitor`, forking at every `par` of two or
/// more elements the monitored machine evaluates.
///
/// Equivalent to [`eval_monitored`](crate::machine::eval_monitored) —
/// same answer, same final monitor state — whenever the monitor's
/// split/merge laws hold.
///
/// # Errors
///
/// Any [`EvalError`] the program provokes, ranked as the sequential
/// machine would rank it (leftmost shard first).
pub fn eval_parallel<M>(expr: &Expr, monitor: &M) -> Result<(Value, M::State), EvalError>
where
    M: MergeMonitor + Sync,
    M::State: Send,
{
    eval_parallel_with(
        expr,
        &Env::empty(),
        monitor,
        monitor.initial_state(),
        &ParOptions::default(),
    )
}

/// [`eval_parallel`] with an explicit environment, initial monitor state
/// and options.
///
/// # Errors
///
/// As for [`eval_parallel`].
pub fn eval_parallel_with<M>(
    expr: &Expr,
    env: &Env,
    monitor: &M,
    sigma: M::State,
    options: &ParOptions,
) -> Result<(Value, M::State), EvalError>
where
    M: MergeMonitor + Sync,
    M::State: Send,
{
    // Shards evaluate subtrees of the program the machine resolved
    // against `env`, so they must not resolve again against their thawed
    // environments; addresses already in place stay valid there.
    let mut shards = options.clone();
    if shards.eval.lookup == LookupMode::ByAddress {
        shards.eval.lookup = LookupMode::BySymbol;
    }
    let fork = |items: &[Arc<Expr>], env: &Env, sigma: M::State, fuel: &mut u64| {
        fork_join(items, env, monitor, sigma, &shards, fuel)
    };
    Execution::new(expr, env, monitor, sigma, &options.eval)
        .forking(&fork)
        .finish()
}

/// The fork-join proper: one scope, `min(threads, n)` workers pulling
/// shard indices from an atomic queue.
fn fork_join<M>(
    items: &[Arc<Expr>],
    env: &Env,
    monitor: &M,
    sigma: M::State,
    options: &ParOptions,
    fuel: &mut u64,
) -> Result<(Value, M::State), EvalError>
where
    M: MergeMonitor + Sync,
    M::State: Send,
{
    let n = items.len();
    // Freeze the fork-point environment once; every shard thaws its own
    // copy. A program whose environment holds thunks/locations cannot
    // fork (only the lazy/imperative engines create those, and they don't
    // evaluate `par` at all).
    let frozen_env = freeze_env(env)?;
    // The fork hook runs once on the fork-point state, before any split:
    // monitors that need fork-wide shared bookkeeping (Guarded's global
    // budget ledger) install it here, and every shard's split inherits it.
    let sigma = monitor.fork(sigma);
    // One split per shard, all relative to the same fork-point σ — taken
    // on this thread, in order, so monitors with ordered internals see a
    // deterministic split sequence.
    let seeds: Vec<M::State> = (0..n).map(|_| monitor.split(&sigma)).collect();

    // Each shard runs with everything that remains of the global fuel;
    // the join charges back what the shards *actually* consumed, so the
    // elements jointly cannot outspend the budget (checked below).
    let mut shard_options = options.eval.clone();
    shard_options.fuel = *fuel;

    let workers = options.threads.min(n).max(1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ShardResult<M::State>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let seeds: Vec<Mutex<Option<M::State>>> =
        seeds.into_iter().map(|s| Mutex::new(Some(s))).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let seed = seeds[i]
                    .lock()
                    .expect("seed mutex")
                    .take()
                    .expect("each shard seed is taken exactly once");
                // Panics are confined *per shard*: a monitor under
                // `FaultPolicy::Fatal` (or a machine bug) fails its own
                // shard as a MonitorAbort at the join, never poisons the
                // scope, and the worker goes on to its next shard.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let shard_env = thaw_env(&frozen_env);
                    eval_monitored_stats_with(&items[i], &shard_env, monitor, seed, &shard_options)
                        .and_then(|(v, s, steps)| Ok((freeze(&v)?, s, steps)))
                }))
                .unwrap_or_else(|payload| {
                    Err(EvalError::MonitorAbort {
                        monitor: "parallel".to_string(),
                        reason: format!("shard {i} panicked: {}", panic_message(payload.as_ref())),
                    })
                });
                *slots[i].lock().expect("slot mutex") = Some(result);
            });
        }
    });
    // The scope joined every worker. A worker that panicked (a monitor
    // under FaultPolicy::Fatal, or a bug) left its slot empty — and,
    // because each worker owns many shards, possibly later slots too.
    // Collect in element order so the leftmost failure wins, exactly as
    // the sequential machine would have failed there first.
    let mut values = Vec::with_capacity(n);
    let mut acc = sigma;
    for (i, slot) in slots.into_iter().enumerate() {
        let result = slot.into_inner().expect("slot mutex").unwrap_or_else(|| {
            Err(EvalError::MonitorAbort {
                monitor: "parallel".to_string(),
                reason: format!("shard {i} of par(..{n}) panicked before producing a result"),
            })
        });
        let (frozen_value, shard_sigma, steps) = result?;
        // Charge the shard's steps against the shared budget, in element
        // order, so the leftmost over-spending shard exhausts the fuel
        // exactly where the sequential machine would have.
        *fuel = fuel.checked_sub(steps).ok_or(EvalError::FuelExhausted)?;
        values.push(thaw(&frozen_value));
        acc = match monitor.merge_outcome(acc, shard_sigma) {
            Outcome::Continue(s) => s,
            Outcome::Abort {
                state,
                monitor,
                reason,
            } => {
                let _ = state;
                return Err(EvalError::MonitorAbort { monitor, reason });
            }
        };
    }
    Ok((Value::list(values), acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::eval_monitored;
    use crate::scope::Scope;
    use crate::spec::{IdentityMonitor, Monitor};
    use monsem_syntax::{parse_expr, Annotation};

    /// Counts pre events — the simplest cumulative MergeMonitor.
    #[derive(Debug, Clone, Copy)]
    struct Count;
    impl Monitor for Count {
        type State = u64;
        fn name(&self) -> &str {
            "count"
        }
        fn initial_state(&self) -> u64 {
            0
        }
        fn pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, n: u64) -> u64 {
            n + 1
        }
    }
    impl MergeMonitor for Count {
        fn split(&self, _: &u64) -> u64 {
            0
        }
        fn merge(&self, left: u64, right: u64) -> u64 {
            left + right
        }
    }

    const FIB_PAR: &str = "letrec fib = lambda n. {call}:(if n < 2 then n \
         else fib (n - 1) + fib (n - 2)) in par(fib 10, fib 11, fib 9, fib 8)";

    #[test]
    fn parallel_matches_sequential_answer_and_state() {
        let e = parse_expr(FIB_PAR).unwrap();
        let seq = eval_monitored(&e, &Count).unwrap();
        let par = eval_parallel(&e, &Count).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn identity_monitor_forks_too() {
        let e = parse_expr("par(1 + 1, 2 + 2, 3 + 3)").unwrap();
        let (v, ()) = eval_parallel(&e, &IdentityMonitor).unwrap();
        assert_eq!(
            v,
            Value::list([Value::Int(2), Value::Int(4), Value::Int(6)])
        );
    }

    #[test]
    fn single_and_empty_pars_skip_the_scope() {
        let e = parse_expr("par(41 + 1)").unwrap();
        let (v, _) = eval_parallel(&e, &Count).unwrap();
        assert_eq!(v, Value::list([Value::Int(42)]));
        let e = parse_expr("par()").unwrap();
        let (v, _) = eval_parallel(&e, &Count).unwrap();
        assert_eq!(v, Value::Nil);
    }

    #[test]
    fn par_under_let_and_seq_still_forks() {
        let e = parse_expr("let n = 20 in par(n + 1, n + 2, n + 3)").unwrap();
        let seq = eval_monitored(&e, &Count).unwrap();
        let par = eval_parallel(&e, &Count).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn leftmost_shard_error_wins() {
        let e = parse_expr("par(1 + 1, 1 / 0, undefined_name)").unwrap();
        let err = eval_parallel(&e, &Count).unwrap_err();
        assert_eq!(err, EvalError::DivisionByZero);
    }

    #[test]
    fn one_thread_is_still_correct() {
        let e = parse_expr(FIB_PAR).unwrap();
        let seq = eval_monitored(&e, &Count).unwrap();
        let par = eval_parallel_with(
            &e,
            &Env::empty(),
            &Count,
            0,
            &ParOptions::default().with_threads(1),
        )
        .unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_forks_through_the_prim() {
        let e = parse_expr("par_map (lambda x. x * x) [1, 2, 3, 4, 5]").unwrap();
        let seq = eval_monitored(&e, &Count).unwrap();
        let par = eval_parallel(&e, &Count).unwrap();
        assert_eq!(par, seq);
        assert_eq!(par.0, Value::list([1, 4, 9, 16, 25].map(Value::Int)));
    }

    /// Counts the shard states merged at joins. A shard's count starts at
    /// zero and is added in at the join, so a `par` forked inside a shard
    /// would show up in the root's count.
    #[derive(Debug, Clone, Copy)]
    struct Merges;
    impl Monitor for Merges {
        type State = u64;
        fn name(&self) -> &str {
            "merges"
        }
        fn initial_state(&self) -> u64 {
            0
        }
    }
    impl MergeMonitor for Merges {
        fn split(&self, _: &u64) -> u64 {
            0
        }
        fn merge(&self, left: u64, right: u64) -> u64 {
            left + right + 1
        }
    }

    fn merges(src: &str) -> u64 {
        eval_parallel(&parse_expr(src).unwrap(), &Merges).unwrap().1
    }

    #[test]
    fn every_par_the_machine_evaluates_forks() {
        for (src, shards) in [
            ("letrec f = lambda n. n * n in par(f 1, f 2, f 3)", 3),
            // Inside a called function, in argument position.
            ("let pair = lambda x. par(x, x + 1) in hd (pair 20)", 2),
            ("letrec sq = lambda x. x * x in par_map sq [1, 2, 3, 4]", 4),
        ] {
            assert_eq!(merges(src), shards, "{src}");
        }
    }

    #[test]
    fn pars_inside_shards_evaluate_sequentially() {
        assert_eq!(merges("par(par(1, 2), par(3, 4, 5))"), 2);
    }

    #[test]
    fn a_parallel_run_charges_the_sequential_step_count() {
        for src in [FIB_PAR, "par(1 + 2, 3 * 4, 5 - 6)"] {
            let e = parse_expr(src).unwrap();
            let (_, _, steps) =
                eval_monitored_stats_with(&e, &Env::empty(), &Count, 0, &EvalOptions::default())
                    .unwrap();
            let run = |fuel| {
                let options = ParOptions {
                    threads: 2,
                    eval: EvalOptions::with_fuel(fuel),
                };
                eval_parallel_with(&e, &Env::empty(), &Count, 0, &options)
            };
            assert_eq!(run(steps), eval_monitored(&e, &Count), "{src}");
            assert_eq!(run(steps - 1), Err(EvalError::FuelExhausted), "{src}");
        }
    }
}
