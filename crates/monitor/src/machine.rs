//! The monitored strict evaluator — Figure 3 of the paper, derived from
//! the standard machine of [`monsem_core::machine`].
//!
//! The derivation adds exactly what Definition 4.2 adds:
//!
//! * a transition for `{μ}:e`: thread the state through
//!   `updPre = M_pre ⟦μ⟧ ⟦e⟧ ρ`, push the post-processing continuation
//!   `κ_post` (the machine's internal `Post` frame), and evaluate `e`;
//! * on return to `κ_post`: thread the state through
//!   `updPost = M_post ⟦μ⟧ ⟦e⟧ ρ v` and resume the original continuation;
//! * every other clause "inherits" the standard behaviour — the fixpoint
//!   of the derived functional exhibits the new behaviour at **all**
//!   levels of recursion, which here falls out of the machine loop
//!   handling every subexpression.
//!
//! The meaning of a program is `MS → (Ans × MS)`: see
//! [`monitored_meaning`] for the literal form and [`eval_monitored`] for
//! the convenient one.

use crate::scope::Scope;
use crate::spec::{HookPhase, Monitor, Outcome};
use monsem_core::env::{Env, LetrecPlan};
use monsem_core::error::EvalError;
use monsem_core::machine::{constant, EvalOptions, LookupMode};
use monsem_core::resolve::resolve_for;
use monsem_core::value::{Closure, Value};
use monsem_syntax::{Annotation, Expr, Ident};
use std::rc::Rc;
use std::sync::Arc;

/// Defunctionalized continuations of the monitored machine. Identical to
/// the standard machine's frames plus [`Frame::Post`] (the `κ_post` of
/// Figure 3).
#[derive(Debug)]
enum Frame {
    Arg {
        func: Arc<Expr>,
        env: Env,
    },
    Apply {
        arg: Value,
    },
    Branch {
        then: Arc<Expr>,
        els: Arc<Expr>,
        env: Env,
    },
    Bind {
        name: Ident,
        body: Arc<Expr>,
        env: Env,
    },
    LetrecBind {
        plan: Rc<LetrecPlan>,
        index: usize,
        body: Arc<Expr>,
        env: Env,
    },
    Discard {
        second: Arc<Expr>,
        env: Env,
    },
    /// Collecting the element values of a `par(e₁, …, eₙ)` left-to-right.
    /// This sequential ordering is the reference semantics for the
    /// fork-join evaluation ([`crate::parallel`]): hooks fired inside the
    /// elements observe the same linear event order as any other
    /// expression.
    Par {
        items: Vec<Arc<Expr>>,
        done: Vec<Value>,
        env: Env,
    },
    /// `κ_post = {λv. (κ v) ∘ updPost}`: when the value of the annotated
    /// expression arrives, apply the post-monitoring function and fall
    /// through to the continuation below.
    Post {
        ann: Annotation,
        expr: Arc<Expr>,
        env: Env,
    },
}

enum State {
    Eval(Arc<Expr>, Env),
    Continue(Value),
}

/// The fork hook of [`crate::parallel`]: evaluates the elements of a
/// `par` in `env` from σ, charges the steps they take against the fuel
/// that remains, and returns the list of their values with the joined σ.
pub(crate) type Fork<'f, S> =
    dyn Fn(&[Arc<Expr>], &Env, S, &mut u64) -> Result<(Value, S), EvalError> + 'f;

/// Evaluates the annotated program under monitor `m`, starting from the
/// monitor's initial state. Returns the pair `(Ans, MS)` — the paper's
/// `(fix Ḡ) ⟦s̄⟧ a* κ σ`.
///
/// # Errors
///
/// Any [`EvalError`] the program provokes. Soundness (Theorem 7.7)
/// guarantees the error (or value) is the one the standard semantics
/// produces.
pub fn eval_monitored<M: Monitor>(
    expr: &Expr,
    monitor: &M,
) -> Result<(Value, M::State), EvalError> {
    eval_monitored_with(
        expr,
        &Env::empty(),
        monitor,
        monitor.initial_state(),
        &EvalOptions::default(),
    )
}

/// The meaning of a program in monitoring semantics: `MS → (Ans × MS)`.
///
/// This is the answer-transformer view of §2 made literal — partially
/// applying everything but the initial monitor state.
pub fn monitored_meaning<'a, M: Monitor>(
    expr: &'a Expr,
    monitor: &'a M,
) -> impl Fn(M::State) -> Result<(Value, M::State), EvalError> + 'a {
    move |sigma| eval_monitored_with(expr, &Env::empty(), monitor, sigma, &EvalOptions::default())
}

/// Evaluates under monitor `m` in `env`, from an explicit initial monitor
/// state, with options.
///
/// # Errors
///
/// Any [`EvalError`] the program provokes, including
/// [`EvalError::FuelExhausted`].
pub fn eval_monitored_with<M: Monitor>(
    expr: &Expr,
    env: &Env,
    monitor: &M,
    sigma: M::State,
    options: &EvalOptions,
) -> Result<(Value, M::State), EvalError> {
    Execution::new(expr, env, monitor, sigma, options).finish()
}

/// [`eval_monitored_with`] that additionally reports the number of
/// machine transitions taken — the same count the fuel budget meters, so
/// callers (fork-join shards, accounting tests) can charge the steps a
/// sub-evaluation consumed back against an enclosing budget.
///
/// # Errors
///
/// As for [`eval_monitored_with`].
pub fn eval_monitored_stats_with<M: Monitor>(
    expr: &Expr,
    env: &Env,
    monitor: &M,
    sigma: M::State,
    options: &EvalOptions,
) -> Result<(Value, M::State, u64), EvalError> {
    let mut exec = Execution::new(expr, env, monitor, sigma, options);
    let result = loop {
        match exec.next_event() {
            Ok(Some(Event::Done { answer })) => break Ok(answer),
            Ok(Some(_)) => {}
            Ok(None) => break Err(EvalError::Internal("event stream ended without Done")),
            Err(err) => break Err(err),
        }
    };
    let steps = exec.steps_taken();
    let answer = result?;
    let sigma = exec
        .sigma
        .take()
        .ok_or(EvalError::Internal("monitor state missing at completion"))?;
    Ok((answer, sigma, steps))
}

/// A monitoring event, as surfaced by [`Execution::next_event`].
///
/// Events are emitted *after* the corresponding monitoring function has
/// updated the monitor state, so `Execution::monitor_state` always shows
/// the post-event σ.
#[derive(Debug, Clone)]
pub enum Event {
    /// Evaluation entered an accepted annotated expression
    /// (`M_pre` has run).
    Pre {
        /// The annotation.
        ann: Annotation,
        /// The annotated expression.
        expr: Arc<Expr>,
        /// The environment at the program point.
        env: Env,
    },
    /// The annotated expression produced a value (`M_post` has run).
    Post {
        /// The annotation.
        ann: Annotation,
        /// The annotated expression.
        expr: Arc<Expr>,
        /// The environment at the program point.
        env: Env,
        /// The produced value.
        value: Value,
    },
    /// Evaluation completed with the program's answer.
    Done {
        /// The final answer.
        answer: Value,
    },
}

/// A **resumable** monitored evaluation: the §8 remark that interactive
/// monitors need "an input as well as an output stream" as a pull API.
///
/// Each call to [`Execution::next_event`] advances the machine to the
/// next monitoring event (or to completion), handing control back to the
/// caller in between — the substrate for interactive debuggers, steppers
/// and front ends, which the scripted debugger monitor approximates in
/// batch.
///
/// ```
/// use monsem_monitor::machine::{Event, Execution};
/// use monsem_monitor::spec::IdentityMonitor;
/// use monsem_core::machine::EvalOptions;
/// use monsem_core::Env;
/// use monsem_syntax::parse_expr;
///
/// let prog = parse_expr("{a}:1 + {b}:2")?;
/// let mut exec =
///     Execution::new(&prog, &Env::empty(), &IdentityMonitor, (), &EvalOptions::default());
/// let mut seen = Vec::new();
/// while let Some(event) = exec.next_event()? {
///     match event {
///         Event::Pre { ann, .. } => seen.push(format!("pre {}", ann.name())),
///         Event::Post { ann, value, .. } => seen.push(format!("post {} = {value}", ann.name())),
///         Event::Done { answer } => seen.push(format!("done {answer}")),
///     }
/// }
/// assert_eq!(seen, ["pre b", "post b = 2", "pre a", "post a = 1", "done 3"]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Execution<'m, M: Monitor> {
    monitor: &'m M,
    stack: Vec<Frame>,
    state: Option<State>,
    sigma: Option<M::State>,
    answer: Option<Value>,
    fuel: u64,
    initial_fuel: u64,
    by_string: bool,
    fork: Option<&'m Fork<'m, M::State>>,
}

impl<'m, M: Monitor> Execution<'m, M> {
    /// Prepares a monitored evaluation (no work happens until the first
    /// [`Execution::next_event`]).
    pub fn new(
        expr: &Expr,
        env: &Env,
        monitor: &'m M,
        sigma: M::State,
        options: &EvalOptions,
    ) -> Self {
        // The derived machine inherits the standard machine's lexical
        // addressing: annotations are structure, not binders, so the
        // resolver threads `{μ}:e` through unchanged and the monitored
        // transitions see the same addresses the oblivious machine does.
        let program = match options.lookup {
            LookupMode::ByAddress => Arc::new(resolve_for(expr, env)),
            LookupMode::BySymbol | LookupMode::ByString => Arc::new(expr.clone()),
        };
        Execution {
            monitor,
            stack: Vec::new(),
            state: Some(State::Eval(program, env.clone())),
            sigma: Some(sigma),
            answer: None,
            fuel: options.fuel,
            initial_fuel: options.fuel,
            by_string: options.lookup == LookupMode::ByString,
            fork: None,
        }
    }

    /// Hands every `par` of two or more elements this execution evaluates
    /// to `fork` instead of evaluating the elements in turn.
    pub(crate) fn forking(mut self, fork: &'m Fork<'m, M::State>) -> Self {
        self.fork = Some(fork);
        self
    }

    /// Machine transitions taken so far — the count the fuel budget
    /// meters (each transition decrements the fuel by one).
    pub fn steps_taken(&self) -> u64 {
        self.initial_fuel - self.fuel
    }

    /// The current monitor state σ (present until [`Execution::finish`]
    /// consumes it).
    pub fn monitor_state(&self) -> Option<&M::State> {
        self.sigma.as_ref()
    }

    /// Advances to the next monitoring event. Returns `Ok(None)` once the
    /// execution has already delivered [`Event::Done`] (or failed).
    ///
    /// # Errors
    ///
    /// Any [`EvalError`]; after an error the execution is finished.
    pub fn next_event(&mut self) -> Result<Option<Event>, EvalError> {
        match self.advance() {
            Ok(e) => Ok(e),
            Err(err) => {
                self.state = None;
                Err(err)
            }
        }
    }

    /// Drives the execution to completion, discarding intermediate events.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] the program provokes.
    pub fn finish(mut self) -> Result<(Value, M::State), EvalError> {
        loop {
            match self.next_event()? {
                Some(Event::Done { answer }) => {
                    let sigma = self
                        .sigma
                        .take()
                        .ok_or(EvalError::Internal("monitor state missing at completion"))?;
                    return Ok((answer, sigma));
                }
                Some(_) => {}
                None => {
                    // Already completed through earlier polling.
                    let answer = self
                        .answer
                        .take()
                        .ok_or(EvalError::Internal("finish called with no answer recorded"))?;
                    let sigma = self
                        .sigma
                        .take()
                        .ok_or(EvalError::Internal("monitor state missing at completion"))?;
                    return Ok((answer, sigma));
                }
            }
        }
    }

    fn advance(&mut self) -> Result<Option<Event>, EvalError> {
        let Some(mut state) = self.state.take() else {
            return Ok(None);
        };
        let monitor = self.monitor;
        loop {
            if self.fuel == 0 {
                return Err(EvalError::FuelExhausted);
            }
            self.fuel -= 1;

            state = match state {
                State::Eval(expr, env) => match &*expr {
                    // ⟦{μ}:e⟧ : (V̄⟦e⟧ ρ κ_post) ∘ updPre — for annotations
                    // the monitor accepts; foreign annotations are skipped
                    // exactly as the standard semantics skips all of them.
                    Expr::Ann(ann, inner) => {
                        if monitor.accepts(ann) {
                            // `accepts_event` may rule a phase's hook the
                            // identity; the frame and session event stream
                            // are unchanged either way.
                            if monitor.accepts_event(ann, HookPhase::Pre) {
                                let sigma = self.sigma.take().ok_or(EvalError::Internal(
                                    "monitor state missing at pre hook",
                                ))?;
                                match monitor.try_pre(ann, inner, &Scope::pure(&env), sigma) {
                                    Outcome::Continue(s) => self.sigma = Some(s),
                                    Outcome::Abort {
                                        state,
                                        monitor,
                                        reason,
                                    } => {
                                        // The final σ stays observable through
                                        // `monitor_state` for post-mortem reports.
                                        self.sigma = Some(state);
                                        return Err(EvalError::MonitorAbort { monitor, reason });
                                    }
                                }
                            }
                            self.stack.push(Frame::Post {
                                ann: ann.clone(),
                                expr: inner.clone(),
                                env: env.clone(),
                            });
                            let event = Event::Pre {
                                ann: ann.clone(),
                                expr: inner.clone(),
                                env: env.clone(),
                            };
                            self.state = Some(State::Eval(inner.clone(), env));
                            return Ok(Some(event));
                        }
                        State::Eval(inner.clone(), env)
                    }
                    Expr::Con(c) => State::Continue(constant(c)),
                    Expr::VarAt(_, addr) => State::Continue(env.lookup_addr(addr)),
                    Expr::Var(x) => {
                        let v = if self.by_string {
                            env.lookup_str(x)
                        } else {
                            env.lookup(x)
                        };
                        match v {
                            Some(v) => State::Continue(v),
                            None => return Err(EvalError::UnboundVariable(x.clone())),
                        }
                    }
                    Expr::Lambda(l) => State::Continue(Value::Closure(Rc::new(Closure {
                        param: l.param.clone(),
                        body: l.body.clone(),
                        env: env.clone(),
                    }))),
                    Expr::If(c, t, e) => {
                        self.stack.push(Frame::Branch {
                            then: t.clone(),
                            els: e.clone(),
                            env: env.clone(),
                        });
                        State::Eval(c.clone(), env)
                    }
                    Expr::App(f, a) => {
                        self.stack.push(Frame::Arg {
                            func: f.clone(),
                            env: env.clone(),
                        });
                        State::Eval(a.clone(), env)
                    }
                    Expr::Let(x, v, b) => {
                        self.stack.push(Frame::Bind {
                            name: x.clone(),
                            body: b.clone(),
                            env: env.clone(),
                        });
                        State::Eval(v.clone(), env)
                    }
                    Expr::Letrec(bs, body) => {
                        let plan = Rc::new(LetrecPlan::of(bs));
                        let env = if plan.values == 0 {
                            plan.push_rec(&env)
                        } else {
                            env
                        };
                        if plan.ordered.is_empty() {
                            State::Eval(body.clone(), env)
                        } else {
                            let first = plan.ordered[0].value.clone();
                            self.stack.push(Frame::LetrecBind {
                                plan,
                                index: 0,
                                body: body.clone(),
                                env: env.clone(),
                            });
                            State::Eval(first, env)
                        }
                    }
                    Expr::Seq(a, b) => {
                        self.stack.push(Frame::Discard {
                            second: b.clone(),
                            env: env.clone(),
                        });
                        State::Eval(a.clone(), env)
                    }
                    Expr::Par(items) => match (items.split_first(), self.fork) {
                        (None, _) => State::Continue(Value::Nil),
                        (Some(_), Some(fork)) if items.len() > 1 => {
                            let sigma = self
                                .sigma
                                .take()
                                .ok_or(EvalError::Internal("monitor state missing at fork"))?;
                            let (list, sigma) = fork(items, &env, sigma, &mut self.fuel)?;
                            self.sigma = Some(sigma);
                            State::Continue(list)
                        }
                        (Some((first, _)), _) => {
                            self.stack.push(Frame::Par {
                                items: items.clone(),
                                done: Vec::new(),
                                env: env.clone(),
                            });
                            State::Eval(first.clone(), env)
                        }
                    },
                    Expr::Assign(..) => return Err(EvalError::UnsupportedConstruct("assignment")),
                    Expr::While(..) => return Err(EvalError::UnsupportedConstruct("while")),
                },
                State::Continue(value) => match self.stack.pop() {
                    None => {
                        self.answer = Some(value.clone());
                        self.state = None;
                        return Ok(Some(Event::Done { answer: value }));
                    }
                    Some(Frame::Post { ann, expr, env }) => {
                        if monitor.accepts_event(&ann, HookPhase::Post) {
                            let sigma = self
                                .sigma
                                .take()
                                .ok_or(EvalError::Internal("monitor state missing at post hook"))?;
                            match monitor.try_post(&ann, &expr, &Scope::pure(&env), &value, sigma) {
                                Outcome::Continue(s) => self.sigma = Some(s),
                                Outcome::Abort {
                                    state,
                                    monitor,
                                    reason,
                                } => {
                                    self.sigma = Some(state);
                                    return Err(EvalError::MonitorAbort { monitor, reason });
                                }
                            }
                        }
                        let event = Event::Post {
                            ann,
                            expr,
                            env,
                            value: value.clone(),
                        };
                        self.state = Some(State::Continue(value));
                        return Ok(Some(event));
                    }
                    Some(Frame::Arg { func, env }) => {
                        self.stack.push(Frame::Apply { arg: value });
                        State::Eval(func, env)
                    }
                    Some(Frame::Apply { arg }) => match value {
                        Value::Closure(c) => {
                            State::Eval(c.body.clone(), c.env.extend(c.param.clone(), arg))
                        }
                        Value::Prim(p, collected) => {
                            let mut args = collected.as_ref().clone();
                            args.push(arg);
                            if args.len() == p.arity() {
                                if p == monsem_core::prims::Prim::ParMap {
                                    let xs = args.pop().expect("par_map has two arguments");
                                    let f = args.pop().expect("par_map has two arguments");
                                    let (expr, env) = monsem_core::machine::par_map_enter(f, xs)?;
                                    State::Eval(expr, env)
                                } else {
                                    State::Continue(p.apply(&args)?)
                                }
                            } else {
                                State::Continue(Value::Prim(p, Rc::new(args)))
                            }
                        }
                        other => return Err(EvalError::NotAFunction(other.to_string())),
                    },
                    Some(Frame::Branch { then, els, env }) => match value {
                        Value::Bool(true) => State::Eval(then, env),
                        Value::Bool(false) => State::Eval(els, env),
                        other => return Err(EvalError::NonBooleanCondition(other.to_string())),
                    },
                    Some(Frame::Bind { name, body, env }) => {
                        State::Eval(body, env.extend(name, value))
                    }
                    Some(Frame::LetrecBind {
                        plan,
                        index,
                        body,
                        env,
                    }) => {
                        let mut env = plan.bind(&env, index, value);
                        if index + 1 == plan.values {
                            env = plan.push_rec(&env);
                        }
                        if index + 1 < plan.ordered.len() {
                            let next = plan.ordered[index + 1].value.clone();
                            self.stack.push(Frame::LetrecBind {
                                plan,
                                index: index + 1,
                                body,
                                env: env.clone(),
                            });
                            State::Eval(next, env)
                        } else {
                            State::Eval(body, env)
                        }
                    }
                    Some(Frame::Par {
                        items,
                        mut done,
                        env,
                    }) => {
                        done.push(value);
                        match items.get(done.len()).cloned() {
                            Some(next) => {
                                let elem_env = env.clone();
                                self.stack.push(Frame::Par { items, done, env });
                                State::Eval(next, elem_env)
                            }
                            None => State::Continue(Value::list(done)),
                        }
                    }
                    Some(Frame::Discard { second, env }) => State::Eval(second, env),
                },
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::IdentityMonitor;
    use monsem_core::machine::eval;
    use monsem_core::programs;
    use monsem_syntax::parse_expr;

    /// Records the interleaving of pre/post events with their labels —
    /// enough to check the *ordering* guarantees of §2.
    #[derive(Debug, Clone, Default)]
    struct EventLog;
    impl Monitor for EventLog {
        type State = Vec<String>;
        fn name(&self) -> &str {
            "event-log"
        }
        fn initial_state(&self) -> Vec<String> {
            Vec::new()
        }
        fn pre(
            &self,
            ann: &Annotation,
            _: &Expr,
            _: &Scope<'_>,
            mut s: Vec<String>,
        ) -> Vec<String> {
            s.push(format!("pre {}", ann.name()));
            s
        }
        fn post(
            &self,
            ann: &Annotation,
            _: &Expr,
            _: &Scope<'_>,
            v: &Value,
            mut s: Vec<String>,
        ) -> Vec<String> {
            s.push(format!("post {} = {v}", ann.name()));
            s
        }
    }

    #[test]
    fn identity_monitor_reproduces_standard_answers() {
        for prog in [
            programs::fac_ab(5),
            programs::fac_mul_traced(3),
            programs::inclist_demon(),
        ] {
            let (v, ()) = eval_monitored(&prog, &IdentityMonitor).unwrap();
            assert_eq!(Ok(v), eval(&prog));
        }
    }

    #[test]
    fn pre_and_post_bracket_the_evaluation() {
        let e = parse_expr("{outer}:({inner}:(1 + 2) * 2)").unwrap();
        let (v, log) = eval_monitored(&e, &EventLog).unwrap();
        assert_eq!(v, Value::Int(6));
        assert_eq!(
            log,
            vec![
                "pre outer".to_string(),
                "pre inner".to_string(),
                "post inner = 3".to_string(),
                "post outer = 6".to_string(),
            ]
        );
    }

    #[test]
    fn events_follow_the_continuation_order() {
        // Application evaluates the argument before the function (Fig. 2).
        let e = parse_expr("({f}:(lambda x. x)) ({a}:1)").unwrap();
        let (_, log) = eval_monitored(&e, &EventLog).unwrap();
        assert_eq!(
            log,
            vec!["pre a", "post a = 1", "pre f", "post f = <function:x>"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn foreign_annotations_are_skipped() {
        struct OnlyNs;
        impl Monitor for OnlyNs {
            type State = u32;
            fn name(&self) -> &str {
                "only-ns"
            }
            fn accepts(&self, ann: &Annotation) -> bool {
                ann.namespace.as_str() == "mine"
            }
            fn initial_state(&self) -> u32 {
                0
            }
            fn pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, n: u32) -> u32 {
                n + 1
            }
        }
        let e = parse_expr("{mine/a}:({other/b}:1)").unwrap();
        let (v, n) = eval_monitored(&e, &OnlyNs).unwrap();
        assert_eq!((v, n), (Value::Int(1), 1));
    }

    #[test]
    fn post_fires_with_the_value_of_a_recursive_call_each_time() {
        let e = parse_expr(
            "letrec fac = lambda x. {fac}:if x = 0 then 1 else x * (fac (x - 1)) in fac 3",
        )
        .unwrap();
        let (_, log) = eval_monitored(&e, &EventLog).unwrap();
        let posts: Vec<&String> = log.iter().filter(|l| l.starts_with("post")).collect();
        assert_eq!(
            posts,
            [
                "post fac = 1",
                "post fac = 1",
                "post fac = 2",
                "post fac = 6"
            ]
            .iter()
            .collect::<Vec<_>>()
        );
    }

    #[test]
    fn errors_abort_with_pending_posts_dropped() {
        let e = parse_expr("{a}:(1 / 0)").unwrap();
        assert_eq!(
            eval_monitored(&e, &EventLog).unwrap_err(),
            EvalError::DivisionByZero
        );
    }

    #[test]
    fn monitored_meaning_is_a_state_transformer() {
        let e = parse_expr("{a}:42").unwrap();
        let meaning = monitored_meaning(&e, &EventLog);
        let (v1, s1) = meaning(vec!["seed".into()]).unwrap();
        assert_eq!(v1, Value::Int(42));
        assert_eq!(
            s1,
            vec!["seed", "pre a", "post a = 42"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
        // Different initial states, same answer — Definition 7.4's R.
        let (v2, _) = meaning(Vec::new()).unwrap();
        assert_eq!(v1, v2);
    }

    #[test]
    fn execution_pauses_at_events_and_exposes_sigma() {
        let e = parse_expr("{a}:({b}:1 + 2)").unwrap();
        let mut exec = Execution::new(
            &e,
            &Env::empty(),
            &EventLog,
            Vec::new(),
            &EvalOptions::default(),
        );
        // First event: pre a; σ already updated.
        let ev = exec.next_event().unwrap().unwrap();
        assert!(matches!(&ev, Event::Pre { ann, .. } if ann.name().as_str() == "a"));
        assert_eq!(exec.monitor_state().unwrap(), &vec!["pre a".to_string()]);
        // Second: pre b.
        assert!(matches!(
            exec.next_event().unwrap().unwrap(),
            Event::Pre { .. }
        ));
        // Third: post b with the value 1.
        let ev = exec.next_event().unwrap().unwrap();
        assert!(
            matches!(&ev, Event::Post { ann, value, .. }
                if ann.name().as_str() == "b" && *value == Value::Int(1)),
            "{ev:?}"
        );
        // Then post a = 3 and Done.
        assert!(matches!(
            exec.next_event().unwrap().unwrap(),
            Event::Post { .. }
        ));
        assert!(matches!(
            exec.next_event().unwrap().unwrap(),
            Event::Done {
                answer: Value::Int(3)
            }
        ));
        assert!(exec.next_event().unwrap().is_none(), "stream is exhausted");
    }

    #[test]
    fn execution_finish_after_partial_polling() {
        let e = parse_expr("{a}:40 + 2").unwrap();
        let mut exec = Execution::new(
            &e,
            &Env::empty(),
            &EventLog,
            Vec::new(),
            &EvalOptions::default(),
        );
        let _ = exec.next_event().unwrap(); // consume pre a
        let (v, log) = exec.finish().unwrap();
        assert_eq!(v, Value::Int(42));
        assert_eq!(log, vec!["pre a".to_string(), "post a = 40".to_string()]);
    }

    #[test]
    fn execution_errors_end_the_stream() {
        let e = parse_expr("{a}:(1 / 0)").unwrap();
        let mut exec = Execution::new(
            &e,
            &Env::empty(),
            &EventLog,
            Vec::new(),
            &EvalOptions::default(),
        );
        let _ = exec.next_event().unwrap(); // pre a
        assert_eq!(exec.next_event().unwrap_err(), EvalError::DivisionByZero);
        assert!(exec.next_event().unwrap().is_none());
    }

    /// Aborts when a labelled point produces a value above `limit`.
    #[derive(Debug, Clone)]
    pub(crate) struct Bound(pub i64);
    impl Monitor for Bound {
        type State = u64;
        fn name(&self) -> &str {
            "bound"
        }
        fn initial_state(&self) -> u64 {
            0
        }
        fn try_post(
            &self,
            ann: &Annotation,
            _: &Expr,
            _: &Scope<'_>,
            v: &Value,
            n: u64,
        ) -> Outcome<u64> {
            if matches!(v, Value::Int(i) if *i > self.0) {
                return Outcome::abort(
                    n,
                    self.name(),
                    format!("`{}` produced {v}, over the bound {}", ann.name(), self.0),
                );
            }
            Outcome::Continue(n + 1)
        }
    }

    #[test]
    fn abort_verdict_stops_evaluation_with_reason() {
        let e = parse_expr("{a}:2 + {b}:99 + {c}:3").unwrap();
        let err = eval_monitored(&e, &Bound(10)).unwrap_err();
        assert_eq!(
            err,
            EvalError::MonitorAbort {
                monitor: "bound".into(),
                reason: "`b` produced 99, over the bound 10".into(),
            }
        );
        assert_eq!(
            err.to_string(),
            "monitor `bound` aborted evaluation: `b` produced 99, over the bound 10"
        );
    }

    #[test]
    fn abort_leaves_sigma_observable_in_executions() {
        let e = parse_expr("{a}:2 + {b}:99").unwrap();
        let mut exec = Execution::new(&e, &Env::empty(), &Bound(10), 0, &EvalOptions::default());
        loop {
            match exec.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected an abort"),
                Err(EvalError::MonitorAbort { monitor, .. }) => {
                    assert_eq!(monitor, "bound");
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        // σ at the moment of the veto: only {b} had produced a value, and
        // its event aborted before counting.
        assert_eq!(exec.monitor_state(), Some(&0));
    }

    #[test]
    fn pre_hooks_can_abort_too() {
        #[derive(Debug)]
        struct NoEntry;
        impl Monitor for NoEntry {
            type State = ();
            fn name(&self) -> &str {
                "no-entry"
            }
            fn initial_state(&self) {}
            fn try_pre(&self, ann: &Annotation, _: &Expr, _: &Scope<'_>, _: ()) -> Outcome<()> {
                Outcome::abort((), "no-entry", format!("refused to enter `{}`", ann.name()))
            }
        }
        let e = parse_expr("1 + {gate}:2").unwrap();
        assert_eq!(
            eval_monitored(&e, &NoEntry).unwrap_err(),
            EvalError::MonitorAbort {
                monitor: "no-entry".into(),
                reason: "refused to enter `gate`".into(),
            }
        );
    }

    #[test]
    fn fuel_exhaustion_matches_the_standard_machine() {
        let e = parse_expr("letrec loop = lambda x. {l}:(loop x) in loop 0").unwrap();
        let r = eval_monitored_with(
            &e,
            &Env::empty(),
            &IdentityMonitor,
            (),
            &EvalOptions::with_fuel(10_000),
        );
        assert_eq!(r.unwrap_err(), EvalError::FuelExhausted);
    }
}
