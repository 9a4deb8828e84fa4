//! The compiled engine — level 1/2 of the Figure 10 pipeline.
//!
//! Specializing the monitored interpreter with respect to a program
//! removes the computation that depends only on the program text. This
//! compiler performs exactly those static computations, once, ahead of
//! time:
//!
//! * **environment lookup** — variable references are resolved to frame
//!   indices (de Bruijn style), so no name comparison happens at run time.
//!   This pass is deliberately *not* shared with `monsem_core::resolve`:
//!   that resolver targets the interpreted machines' environment layout
//!   (and must leave letrec value-bindings unaddressed, since their
//!   runtime frame shape is mode-dependent), whereas this compiler owns
//!   its frame discipline outright and can always produce an index. The
//!   two passes do share the interning layer — name comparisons here are
//!   O(1) symbol compares and primitives resolve through the dense
//!   symbol-indexed table — and pre-resolved `VarAt` trees compile
//!   unchanged (the address is simply recomputed against this engine's
//!   own layout);
//! * **syntax dispatch** — the `case e of …` of the valuation functional
//!   disappears into the structure of [`Code`];
//! * **annotation dispatch** — `{μ}:e` is resolved against the monitor's
//!   `accepts` at compile time: accepted annotations become embedded
//!   [`Code::Hook`]s, foreign ones vanish entirely. What remains at run
//!   time is precisely the *dynamic* monitoring activity, matching the
//!   paper's observation that the residual overhead "corresponds to the
//!   linear complexity of the tracer dynamic behavior" (Figure 11).
//!
//! Compiling with no monitor yields the standard engine (every annotation
//! erased), used as the fast baseline in the benchmarks.

use monsem_core::env::Env;
use monsem_core::error::EvalError;
use monsem_core::machine::{constant, EvalOptions, EvalStats};
use monsem_core::prims::Prim;
use monsem_core::value::{ExtValue, Value};
use monsem_monitor::scope::Scope;
use monsem_monitor::spec::{HookPhase, IdentityMonitor, Outcome};
use monsem_monitor::Monitor;
use monsem_syntax::{Annotation, Expr, Ident};
use std::fmt;
use std::rc::Rc;

/// Errors raised at compile time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The engine compiles the pure language only.
    Unsupported(&'static str),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unsupported(what) => {
                write!(f, "`{what}` is not supported by the compiled engine")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A compiled lambda: the body plus the source parameter name (for
/// diagnostics and hook environments).
#[derive(Debug)]
pub struct CodeLambda {
    param: Ident,
    body: Rc<Code>,
}

impl CodeLambda {
    /// The source-level parameter name.
    pub fn param(&self) -> &Ident {
        &self.param
    }
}

/// Names of the frames in scope at a hook, innermost first — enough to
/// rebuild a name-based [`Env`] for the monitoring functions.
#[derive(Debug, Clone)]
enum FrameNames {
    Plain(Ident),
    Rec(Rc<Vec<Ident>>),
}

/// Compiled code.
#[derive(Debug)]
pub enum Code {
    /// A literal value.
    Const(Value),
    /// A plain frame `depth` levels up.
    Local(u32),
    /// Binding `index` of the rec frame `depth` levels up.
    RecRef(u32, u32),
    /// A primitive resolved at compile time.
    Prim(Prim),
    /// A free variable: always a runtime error when reached (kept so
    /// compiled programs fail exactly where interpreted ones do).
    Unbound(Ident),
    /// A lambda.
    Lambda(Rc<CodeLambda>),
    /// A conditional.
    If(Rc<Code>, Rc<Code>, Rc<Code>),
    /// An application (argument evaluated first, as in Figure 2).
    App(Rc<Code>, Rc<Code>),
    /// A fully applied unary primitive `p a` — the application spine is
    /// resolved at compile time, removing two machine transitions and a
    /// partial-application allocation.
    Prim1(Prim, Rc<Code>),
    /// A direct call to a rec-frame function: `f a` where `f` resolves to
    /// binding `index` of the rec frame `depth` levels up. The callee is
    /// entered without materializing a closure value.
    CallRec {
        /// Rec frame depth.
        depth: u32,
        /// Binding index within the frame.
        index: u32,
        /// The argument.
        arg: Rc<Code>,
    },
    /// A saturated curried call `(f a) b` where `f` resolves to a rec
    /// binding whose source is a two-level lambda (`λx. λy. …`). Both
    /// frames are pushed directly and the inner body entered — neither
    /// the callee closure nor the intermediate partial application is
    /// ever materialized. This is the calling convention of
    /// state-threading translations (every function takes its argument,
    /// then the monitor state), so instrumented programs call through
    /// here on the hot path.
    CallRec2 {
        /// Rec frame depth.
        depth: u32,
        /// Binding index within the frame.
        index: u32,
        /// The first (inner) argument.
        arg1: Rc<Code>,
        /// The second (outer) argument, evaluated first as in Figure 2.
        arg2: Rc<Code>,
    },
    /// A fully applied binary primitive `(p a) b`; operands evaluate in
    /// the paper's order (`b`, then `a`).
    Prim2(Prim, Rc<Code>, Rc<Code>),
    /// Evaluate a value, push it as a plain frame, continue with the body
    /// (`let` and `letrec` binding sequences).
    Bind(Rc<Code>, Rc<Code>),
    /// The fused destructuring prologue `let p = v in let h = hd p in
    /// let t = tl p in body`: evaluate `v`, push all three frames in one
    /// transition. This is the shape instrumented programs emit at every
    /// monitored site, so the pair round-trip costs one machine step.
    BindPair(Rc<Code>, Rc<Code>),
    /// Push a rec frame of mutually recursive lambdas, then continue.
    RecGroup(Rc<Vec<Rc<CodeLambda>>>, Rc<Code>),
    /// Evaluate and discard, then continue.
    Seq(Rc<Code>, Rc<Code>),
    /// `par(e₁, …, eₙ)`: elements left-to-right, yielding the list — the
    /// compiled engine is sequential, so this is the reference semantics.
    Par(Rc<Vec<Rc<Code>>>),
    /// A monitored program point: the annotation survived compile-time
    /// dispatch, with the scope names captured for the hook environment.
    Hook {
        /// The (accepted) annotation.
        ann: Annotation,
        /// The compile-time site index (position in
        /// [`CompiledProgram::sites`]) — the key of the tiered profiler's
        /// [`SiteStats`] table.
        site: u32,
        /// Scope names, innermost first.
        names: Rc<Vec<FrameNamesOpaque>>,
        /// Whether the monitor's pre hook fires here (its
        /// `accepts_event` verdict, resolved at compile time).
        pre: bool,
        /// Whether the post hook fires here.
        post: bool,
        /// The annotated code.
        body: Rc<Code>,
    },
}

/// Public opaque wrapper for hook frame names.
#[derive(Debug, Clone)]
pub struct FrameNamesOpaque(FrameNames);

/// A compiled program, runnable with or without a monitor.
#[derive(Debug)]
pub struct CompiledProgram {
    code: Rc<Code>,
    /// Number of hooks embedded at compile time.
    pub hooks: usize,
    /// Annotation of each embedded hook, indexed by its site id (the
    /// order the compiler met them). Empty for unmonitored compiles.
    sites: Vec<Annotation>,
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

enum CFrame {
    Plain(Ident),
    Rec {
        names: Rc<Vec<Ident>>,
        /// Whether each binding's source is a two-level curried lambda,
        /// making it a [`Code::CallRec2`] target.
        curried2: Vec<bool>,
    },
}

struct Compiler<'m, M> {
    monitor: Option<&'m M>,
    scope: Vec<CFrame>,
    hooks: usize,
    site_anns: Vec<Annotation>,
}

impl<M: Monitor> Compiler<'_, M> {
    /// Whether `name` is bound by an enclosing frame (and so shadows any
    /// primitive of the same name).
    fn is_locally_bound(&self, name: &Ident) -> bool {
        self.scope.iter().any(|f| match f {
            CFrame::Plain(n) => n == name,
            CFrame::Rec { names, .. } => names.iter().any(|n| n == name),
        })
    }

    fn resolve(&self, name: &Ident) -> Code {
        for (depth, frame) in self.scope.iter().rev().enumerate() {
            match frame {
                CFrame::Plain(n) => {
                    if n == name {
                        return Code::Local(depth as u32);
                    }
                }
                CFrame::Rec { names, .. } => {
                    if let Some(index) = names.iter().position(|n| n == name) {
                        return Code::RecRef(depth as u32, index as u32);
                    }
                }
            }
        }
        match Prim::by_ident(name) {
            Some(p) => Code::Prim(p),
            None => Code::Unbound(name.clone()),
        }
    }

    /// Resolves `name` to a rec binding known at compile time to be a
    /// two-level curried lambda (a [`Code::CallRec2`] target); `None` if
    /// it is shadowed, not rec-bound, or single-level.
    fn resolve_curried2(&self, name: &Ident) -> Option<(u32, u32)> {
        for (depth, frame) in self.scope.iter().rev().enumerate() {
            match frame {
                CFrame::Plain(n) => {
                    if n == name {
                        return None;
                    }
                }
                CFrame::Rec { names, curried2 } => {
                    if let Some(index) = names.iter().position(|n| n == name) {
                        return curried2[index].then_some((depth as u32, index as u32));
                    }
                }
            }
        }
        None
    }

    fn frame_names(&self) -> Rc<Vec<FrameNamesOpaque>> {
        Rc::new(
            self.scope
                .iter()
                .rev()
                .map(|f| {
                    FrameNamesOpaque(match f {
                        CFrame::Plain(n) => FrameNames::Plain(n.clone()),
                        CFrame::Rec { names, .. } => FrameNames::Rec(names.clone()),
                    })
                })
                .collect(),
        )
    }

    fn compile(&mut self, e: &Expr) -> Result<Code, CompileError> {
        Ok(match e {
            Expr::Con(c) => Code::Const(constant(c)),
            Expr::Var(x) | Expr::VarAt(x, _) => self.resolve(x),
            Expr::Lambda(l) => {
                self.scope.push(CFrame::Plain(l.param.clone()));
                let body = self.compile(&l.body)?;
                self.scope.pop();
                Code::Lambda(Rc::new(CodeLambda {
                    param: l.param.clone(),
                    body: Rc::new(body),
                }))
            }
            Expr::If(c, t, f) => Code::If(
                Rc::new(self.compile(c)?),
                Rc::new(self.compile(t)?),
                Rc::new(self.compile(f)?),
            ),
            Expr::App(f, a) => {
                // Specialize fully applied primitives: `(p a) b` and
                // `p a` — the static part of the interpreter's
                // application protocol disappears.
                if let Expr::App(g, x) = &**f {
                    if let Expr::Var(op) = &**g {
                        if !self.is_locally_bound(op) {
                            if let Some(p) = Prim::by_name(op.as_str()) {
                                if p.arity() == 2 {
                                    return Ok(Code::Prim2(
                                        p,
                                        Rc::new(self.compile(x)?),
                                        Rc::new(self.compile(a)?),
                                    ));
                                }
                            }
                        }
                        if let Some((depth, index)) = self.resolve_curried2(op) {
                            return Ok(Code::CallRec2 {
                                depth,
                                index,
                                arg1: Rc::new(self.compile(x)?),
                                arg2: Rc::new(self.compile(a)?),
                            });
                        }
                    }
                }
                if let Expr::Var(op) = &**f {
                    if !self.is_locally_bound(op) {
                        if let Some(p) = Prim::by_name(op.as_str()) {
                            if p.arity() == 1 {
                                return Ok(Code::Prim1(p, Rc::new(self.compile(a)?)));
                            }
                        }
                    }
                    if let Code::RecRef(depth, index) = self.resolve(op) {
                        return Ok(Code::CallRec {
                            depth,
                            index,
                            arg: Rc::new(self.compile(a)?),
                        });
                    }
                }
                Code::App(Rc::new(self.compile(f)?), Rc::new(self.compile(a)?))
            }
            Expr::Let(x, v, b) => {
                let value = self.compile(v)?;
                self.scope.push(CFrame::Plain(x.clone()));
                let body = self.compile(b)?;
                self.scope.pop();
                bind_code(value, body)
            }
            Expr::Letrec(bs, body) => {
                // Mirror the interpreters' LetrecPlan: value bindings
                // first, then the rec frame, then annotated lambda
                // bindings (for their monitoring events), then the body.
                let rec_sources: Vec<(Ident, &monsem_syntax::Lambda)> = bs
                    .iter()
                    .filter_map(|b| match b.value.strip_annotations() {
                        Expr::Lambda(l) => Some((b.name.clone(), l)),
                        _ => None,
                    })
                    .collect();
                let value_bindings: Vec<&monsem_syntax::Binding> =
                    bs.iter().filter(|b| !b.value.is_lambda_like()).collect();
                let annotated_bindings: Vec<&monsem_syntax::Binding> = bs
                    .iter()
                    .filter(|b| b.value.is_lambda_like() && matches!(&*b.value, Expr::Ann(..)))
                    .collect();
                let has_rec = !rec_sources.is_empty();

                // 1. Value bindings, each in the scope of its predecessors.
                let mut values = Vec::with_capacity(value_bindings.len());
                for b in &value_bindings {
                    values.push(self.compile(&b.value)?);
                    self.scope.push(CFrame::Plain(b.name.clone()));
                }

                // 2. The rec frame; its lambdas close over this scope.
                if has_rec {
                    let names: Rc<Vec<Ident>> =
                        Rc::new(rec_sources.iter().map(|(n, _)| n.clone()).collect());
                    let curried2 = rec_sources
                        .iter()
                        .map(|(_, l)| matches!(&*l.body, Expr::Lambda(_)))
                        .collect();
                    self.scope.push(CFrame::Rec { names, curried2 });
                }
                let mut rec_lambdas = Vec::with_capacity(rec_sources.len());
                for (_, l) in &rec_sources {
                    self.scope.push(CFrame::Plain(l.param.clone()));
                    let body = self.compile(&l.body)?;
                    self.scope.pop();
                    rec_lambdas.push(Rc::new(CodeLambda {
                        param: l.param.clone(),
                        body: Rc::new(body),
                    }));
                }

                // 3. Annotated lambda bindings (hooks fire at bind time).
                let mut annotated = Vec::with_capacity(annotated_bindings.len());
                for b in &annotated_bindings {
                    annotated.push(self.compile(&b.value)?);
                    self.scope.push(CFrame::Plain(b.name.clone()));
                }

                // 4. The body, then unwind and assemble inside-out.
                let mut chain = self.compile(body)?;
                for _ in &annotated_bindings {
                    self.scope.pop();
                }
                for value in annotated.into_iter().rev() {
                    chain = Code::Bind(Rc::new(value), Rc::new(chain));
                }
                if has_rec {
                    self.scope.pop();
                    chain = Code::RecGroup(Rc::new(rec_lambdas), Rc::new(chain));
                }
                for _ in &value_bindings {
                    self.scope.pop();
                }
                for value in values.into_iter().rev() {
                    chain = Code::Bind(Rc::new(value), Rc::new(chain));
                }
                chain
            }
            Expr::Ann(ann, inner) => {
                // Static event dispatch: `accepts_event` is resolved per
                // phase at compile time, so a post-only monitor pays
                // nothing at pre (and vice versa), and an annotation with
                // neither phase live vanishes like a foreign one.
                let (pre, post) = self
                    .monitor
                    .map(|m| {
                        (
                            m.accepts_event(ann, HookPhase::Pre),
                            m.accepts_event(ann, HookPhase::Post),
                        )
                    })
                    .unwrap_or((false, false));
                let accepted =
                    (pre || post) && self.monitor.map(|m| m.accepts(ann)).unwrap_or(false);
                if accepted {
                    self.hooks += 1;
                    let site = self.site_anns.len() as u32;
                    self.site_anns.push(ann.clone());
                    let names = self.frame_names();
                    let body = self.compile(inner)?;
                    Code::Hook {
                        ann: ann.clone(),
                        site,
                        names,
                        pre,
                        post,
                        body: Rc::new(body),
                    }
                } else {
                    // Static annotation dispatch: foreign annotations cost
                    // nothing at run time.
                    self.compile(inner)?
                }
            }
            Expr::Seq(a, b) => Code::Seq(Rc::new(self.compile(a)?), Rc::new(self.compile(b)?)),
            Expr::Par(items) => {
                let mut codes = Vec::with_capacity(items.len());
                for item in items {
                    codes.push(Rc::new(self.compile(item)?));
                }
                Code::Par(Rc::new(codes))
            }
            Expr::Assign(..) => return Err(CompileError::Unsupported("assignment")),
            Expr::While(..) => return Err(CompileError::Unsupported("while")),
        })
    }
}

/// Assembles a `let`, fusing the destructuring prologue
/// `let p = v in let h = hd p in let t = tl p in body` into
/// [`Code::BindPair`] when the projections target exactly the bindings
/// the pattern introduces.
fn bind_code(value: Code, body: Code) -> Code {
    if let Code::Bind(hd_v, rest1) = &body {
        if let Code::Prim1(Prim::Hd, hd_of) = &**hd_v {
            if matches!(&**hd_of, Code::Local(0)) {
                if let Code::Bind(tl_v, rest2) = &**rest1 {
                    if let Code::Prim1(Prim::Tl, tl_of) = &**tl_v {
                        if matches!(&**tl_of, Code::Local(1)) {
                            return Code::BindPair(Rc::new(value), rest2.clone());
                        }
                    }
                }
            }
        }
    }
    Code::Bind(Rc::new(value), Rc::new(body))
}

/// Compiles a program for standard execution: every annotation is erased
/// at compile time.
///
/// # Errors
///
/// [`CompileError::Unsupported`] on imperative constructs.
pub fn compile(e: &Expr) -> Result<CompiledProgram, CompileError> {
    let mut c: Compiler<'_, IdentityMonitor> = Compiler {
        monitor: None,
        scope: Vec::new(),
        hooks: 0,
        site_anns: Vec::new(),
    };
    let code = c.compile(e)?;
    Ok(CompiledProgram {
        code: Rc::new(code),
        hooks: 0,
        sites: Vec::new(),
    })
}

/// Compiles a program against a monitor: accepted annotations become
/// embedded hooks, everything else is erased. This is the instrumented
/// program of specialization level 2.
///
/// # Errors
///
/// [`CompileError::Unsupported`] on imperative constructs.
pub fn compile_monitored<M: Monitor>(
    e: &Expr,
    monitor: &M,
) -> Result<CompiledProgram, CompileError> {
    let mut c = Compiler {
        monitor: Some(monitor),
        scope: Vec::new(),
        hooks: 0,
        site_anns: Vec::new(),
    };
    let code = c.compile(e)?;
    let hooks = c.hooks;
    let sites = c.site_anns;
    Ok(CompiledProgram {
        code: Rc::new(code),
        hooks,
        sites,
    })
}

// ---------------------------------------------------------------------
// Site profiling (the tiered pipeline's cheap layer)
// ---------------------------------------------------------------------

/// Event counters for one annotation site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteCount {
    /// Pre-hook firings at this site.
    pub pre: u64,
    /// Post-hook firings at this site.
    pub post: u64,
}

impl SiteCount {
    /// Total hook firings at this site.
    pub fn total(&self) -> u64 {
        self.pre + self.post
    }
}

/// Per-site event counters, indexed by the compile-time site id — the
/// cheap profiling layer of the tiered pipeline. Updating a counter on
/// the [`Code::Hook`] path is one array index and one add, so a
/// profiled run costs next to nothing over a plain monitored run.
#[derive(Debug, Clone, Default)]
pub struct SiteStats {
    counts: Vec<SiteCount>,
}

impl SiteStats {
    /// A zeroed table sized for `program`'s embedded hooks.
    pub fn for_program(program: &CompiledProgram) -> SiteStats {
        SiteStats {
            counts: vec![SiteCount::default(); program.sites.len()],
        }
    }

    /// The per-site counters, indexed by site id.
    pub fn counts(&self) -> &[SiteCount] {
        &self.counts
    }

    /// Total events across all sites.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(SiteCount::total).sum()
    }

    /// Site ids whose total event count reached `threshold`.
    pub fn hot_sites(&self, threshold: u64) -> Vec<usize> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| c.total() >= threshold)
            .map(|(i, _)| i)
            .collect()
    }

    /// Resets every counter to zero, keeping the table size.
    pub fn reset(&mut self) {
        for c in &mut self.counts {
            *c = SiteCount::default();
        }
    }
}

/// A per-event callback the engine drives on hook firings. The default
/// [`NoProbe`] monomorphizes to nothing, so unprofiled runs pay zero.
trait SiteProbe {
    fn pre_event(&mut self, site: u32);
    fn post_event(&mut self, site: u32);
}

/// The zero-cost probe: unprofiled runs compile the callbacks away.
struct NoProbe;

impl SiteProbe for NoProbe {
    #[inline(always)]
    fn pre_event(&mut self, _site: u32) {}
    #[inline(always)]
    fn post_event(&mut self, _site: u32) {}
}

impl SiteProbe for SiteStats {
    #[inline(always)]
    fn pre_event(&mut self, site: u32) {
        if let Some(c) = self.counts.get_mut(site as usize) {
            c.pre += 1;
        }
    }

    #[inline(always)]
    fn post_event(&mut self, site: u32) {
        if let Some(c) = self.counts.get_mut(site as usize) {
            c.post += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Runtime environments: persistent chains of plain and rec frames,
/// indexed positionally.
#[derive(Clone, Debug, Default)]
struct REnv(Option<Rc<RFrame>>);

#[derive(Debug)]
enum RFrame {
    Plain {
        value: Value,
        parent: REnv,
    },
    Rec {
        lambdas: Rc<Vec<Rc<CodeLambda>>>,
        parent: REnv,
    },
}

/// A compiled closure, stored in [`Value::Ext`].
#[derive(Debug)]
struct CompiledClosure {
    lambda: Rc<CodeLambda>,
    env: REnv,
}

const EXT_TAG: &str = "compiled-fn";

impl REnv {
    fn plain(&self, value: Value) -> REnv {
        REnv(Some(Rc::new(RFrame::Plain {
            value,
            parent: self.clone(),
        })))
    }

    fn rec(&self, lambdas: Rc<Vec<Rc<CodeLambda>>>) -> REnv {
        REnv(Some(Rc::new(RFrame::Rec {
            lambdas,
            parent: self.clone(),
        })))
    }

    fn frame(&self, depth: u32) -> &RFrame {
        let mut cur = self;
        let mut d = depth;
        loop {
            let frame = cur
                .0
                .as_deref()
                .expect("compiler-resolved depth is in range");
            if d == 0 {
                return frame;
            }
            d -= 1;
            cur = match frame {
                RFrame::Plain { parent, .. } | RFrame::Rec { parent, .. } => parent,
            };
        }
    }

    fn local(&self, depth: u32) -> Value {
        match self.frame(depth) {
            RFrame::Plain { value, .. } => value.clone(),
            RFrame::Rec { .. } => unreachable!("compiler never aims Local at a rec frame"),
        }
    }

    /// Resolves a rec-frame function for a direct call: the body and the
    /// environment rooted at the frame (no closure value is built).
    fn enter_rec(&self, depth: u32, index: u32) -> (Rc<Code>, REnv) {
        let mut cur = self;
        let mut d = depth;
        loop {
            let frame = cur
                .0
                .as_deref()
                .expect("compiler-resolved depth is in range");
            if d == 0 {
                match frame {
                    RFrame::Rec { lambdas, .. } => {
                        return (lambdas[index as usize].body.clone(), cur.clone());
                    }
                    RFrame::Plain { .. } => {
                        unreachable!("compiler never aims CallRec at a plain frame")
                    }
                }
            }
            d -= 1;
            cur = match frame {
                RFrame::Plain { parent, .. } | RFrame::Rec { parent, .. } => parent,
            };
        }
    }

    fn rec_ref(&self, depth: u32, index: u32) -> Value {
        let mut cur = self;
        let mut d = depth;
        loop {
            let frame = cur
                .0
                .as_deref()
                .expect("compiler-resolved depth is in range");
            if d == 0 {
                match frame {
                    RFrame::Rec { lambdas, .. } => {
                        let closure = CompiledClosure {
                            lambda: lambdas[index as usize].clone(),
                            env: cur.clone(),
                        };
                        return Value::Ext(ExtValue::new(EXT_TAG, closure));
                    }
                    RFrame::Plain { .. } => {
                        unreachable!("compiler never aims RecRef at a plain frame")
                    }
                }
            }
            d -= 1;
            cur = match frame {
                RFrame::Plain { parent, .. } | RFrame::Rec { parent, .. } => parent,
            };
        }
    }

    /// Rebuilds a name-based environment for monitor hooks.
    fn to_env(&self, names: &[FrameNamesOpaque]) -> Env {
        // Collect (outermost first) then extend inward so shadowing works.
        let mut pairs: Vec<(Ident, Value)> = Vec::new();
        let mut cur = self;
        for FrameNamesOpaque(fnames) in names {
            let frame = cur.0.as_deref().expect("names align with frames");
            match (fnames, frame) {
                (FrameNames::Plain(n), RFrame::Plain { value, parent }) => {
                    pairs.push((n.clone(), value.clone()));
                    cur = parent;
                }
                (FrameNames::Rec(ns), RFrame::Rec { lambdas, parent }) => {
                    for (i, n) in ns.iter().enumerate() {
                        let closure = CompiledClosure {
                            lambda: lambdas[i].clone(),
                            env: cur.clone(),
                        };
                        pairs.push((n.clone(), Value::Ext(ExtValue::new(EXT_TAG, closure))));
                    }
                    cur = parent;
                }
                _ => unreachable!("compiler keeps names and frames aligned"),
            }
        }
        let mut env = Env::empty();
        for (n, v) in pairs.into_iter().rev() {
            env = env.extend(n, v);
        }
        env
    }
}

#[derive(Debug)]
enum RtFrame {
    Arg {
        func: Rc<Code>,
        env: REnv,
    },
    Apply {
        arg: Value,
    },
    /// Second operand of a `Prim2` evaluated; evaluate the first next.
    Prim2First {
        p: Prim,
        first: Rc<Code>,
        env: REnv,
    },
    /// Both operands ready; apply.
    Prim2Apply {
        p: Prim,
        second: Value,
    },
    /// Operand of a `Prim1` evaluated; apply.
    Prim1Apply {
        p: Prim,
    },
    /// Argument of a direct rec call evaluated; enter the callee.
    EnterRec {
        depth: u32,
        index: u32,
        env: REnv,
    },
    /// Outer argument of a curried rec call evaluated; evaluate the
    /// inner argument next.
    CallRec2Second {
        depth: u32,
        index: u32,
        arg1: Rc<Code>,
        env: REnv,
    },
    /// Both arguments of a curried rec call ready; enter the inner body
    /// with both frames pushed.
    EnterRec2 {
        depth: u32,
        index: u32,
        second: Value,
        env: REnv,
    },
    Branch {
        then: Rc<Code>,
        els: Rc<Code>,
        env: REnv,
    },
    BindThen {
        body: Rc<Code>,
        env: REnv,
    },
    /// Value of a fused pair-destructuring `let` evaluated; push the
    /// pair and both projections as frames and continue with the body.
    BindPairThen {
        body: Rc<Code>,
        env: REnv,
    },
    Discard {
        second: Rc<Code>,
        env: REnv,
    },
    /// One `par` element evaluated; evaluate the next or finish the list.
    Par {
        items: Rc<Vec<Rc<Code>>>,
        done: Vec<Value>,
        env: REnv,
    },
    Post {
        ann: Annotation,
        site: u32,
        names: Rc<Vec<FrameNamesOpaque>>,
        env: REnv,
    },
}

enum RtState {
    Eval(Rc<Code>, REnv),
    Continue(Value),
}

/// Best-effort inline evaluation of operand subtrees that cannot touch
/// the monitor, the stack, or the environment: constants, local lookups,
/// and fully-applied primitives over such (all primitives are pure).
/// `Ok(None)` means the operand needs the general machine; errors
/// surface exactly as the machine would raise them, since sub-operands
/// are probed in the machine's evaluation order.
fn quick(code: &Code, env: &REnv) -> Result<Option<Value>, EvalError> {
    Ok(Some(match code {
        Code::Const(v) => v.clone(),
        Code::Local(d) => env.local(*d),
        Code::Prim1(p, a) => match quick(a, env)? {
            Some(av) => p.apply(&[av])?,
            None => return Ok(None),
        },
        Code::Prim2(p, a, b) => {
            let Some(bv) = quick(b, env)? else {
                return Ok(None);
            };
            match quick(a, env)? {
                Some(av) => p.apply(&[av, bv])?,
                None => return Ok(None),
            }
        }
        // Conditionals over quick operands — the shape of the inlined
        // DFA step chains instrumentation emits — run without touching
        // the machine at all.
        Code::If(c, t, f) => match quick(c, env)? {
            Some(Value::Bool(cond)) => match quick(if cond { t } else { f }, env)? {
                Some(v) => v,
                None => return Ok(None),
            },
            Some(other) => return Err(EvalError::NonBooleanCondition(other.to_string())),
            None => return Ok(None),
        },
        _ => return Ok(None),
    }))
}

impl CompiledProgram {
    /// Runs the program (no monitor state; hooks, if any, are ignored —
    /// compile without a monitor for the standard engine).
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] the program provokes.
    pub fn run(&self) -> Result<Value, EvalError> {
        self.run_monitored(&IdentityMonitor, &EvalOptions::default())
            .map(|(v, ())| v)
    }

    /// Runs the program under a monitor, threading its state through the
    /// embedded hooks.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] the program provokes, including
    /// [`EvalError::FuelExhausted`].
    pub fn run_monitored<M: Monitor>(
        &self,
        monitor: &M,
        options: &EvalOptions,
    ) -> Result<(Value, M::State), EvalError> {
        self.run_monitored_stats(monitor, options)
            .map(|(v, s, _)| (v, s))
    }

    /// Like [`CompiledProgram::run_monitored`], also reporting
    /// [`EvalStats`]. `stats.steps` counts *this engine's* transitions —
    /// fuel is decremented once per transition, exactly as in
    /// `monsem_core::machine`, but the compiled engine fuses work
    /// (`Prim1`/`Prim2`/`CallRec` are single transitions the interpreter
    /// spreads over several), so the same program legitimately takes fewer
    /// steps here. The differential test `tests/fuel_accounting.rs` pins
    /// down the invariant both engines share: fuel = steps succeeds,
    /// fuel = steps − 1 exhausts.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] the program provokes, including
    /// [`EvalError::FuelExhausted`].
    pub fn run_monitored_stats<M: Monitor>(
        &self,
        monitor: &M,
        options: &EvalOptions,
    ) -> Result<(Value, M::State, EvalStats), EvalError> {
        self.run_probed(monitor, options, &mut NoProbe)
    }

    /// Like [`CompiledProgram::run_monitored`], additionally counting
    /// hook firings per annotation site into `stats` — the tiered
    /// pipeline's profiling layer. The counters accumulate, so one table
    /// can profile several runs.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] the program provokes, including
    /// [`EvalError::FuelExhausted`].
    pub fn run_monitored_profiled<M: Monitor>(
        &self,
        monitor: &M,
        options: &EvalOptions,
        stats: &mut SiteStats,
    ) -> Result<(Value, M::State), EvalError> {
        self.run_probed(monitor, options, stats)
            .map(|(v, s, _)| (v, s))
    }

    /// Annotation of each embedded hook, indexed by site id.
    pub fn sites(&self) -> &[Annotation] {
        &self.sites
    }

    fn run_probed<M: Monitor, P: SiteProbe>(
        &self,
        monitor: &M,
        options: &EvalOptions,
        probe: &mut P,
    ) -> Result<(Value, M::State, EvalStats), EvalError> {
        let mut stack: Vec<RtFrame> = Vec::new();
        let mut state = RtState::Eval(self.code.clone(), REnv::default());
        let mut sigma = monitor.initial_state();
        let mut fuel = options.fuel;
        let mut stats = EvalStats::default();

        loop {
            if fuel == 0 {
                return Err(EvalError::FuelExhausted);
            }
            fuel -= 1;
            stats.steps += 1;
            stats.max_stack = stats.max_stack.max(stack.len());

            state = match state {
                RtState::Eval(code, env) => match &*code {
                    Code::Const(v) => RtState::Continue(v.clone()),
                    Code::Local(d) => RtState::Continue(env.local(*d)),
                    Code::RecRef(d, i) => RtState::Continue(env.rec_ref(*d, *i)),
                    Code::Prim(p) => RtState::Continue(Value::prim(*p)),
                    Code::Unbound(x) => return Err(EvalError::UnboundVariable(x.clone())),
                    Code::Lambda(l) => RtState::Continue(Value::Ext(ExtValue::new(
                        EXT_TAG,
                        CompiledClosure {
                            lambda: l.clone(),
                            env: env.clone(),
                        },
                    ))),
                    Code::If(c, t, f) => match quick(c, &env)? {
                        Some(Value::Bool(true)) => RtState::Eval(t.clone(), env),
                        Some(Value::Bool(false)) => RtState::Eval(f.clone(), env),
                        Some(other) => {
                            return Err(EvalError::NonBooleanCondition(other.to_string()))
                        }
                        None => {
                            stack.push(RtFrame::Branch {
                                then: t.clone(),
                                els: f.clone(),
                                env: env.clone(),
                            });
                            RtState::Eval(c.clone(), env)
                        }
                    },
                    Code::App(f, a) => {
                        stack.push(RtFrame::Arg {
                            func: f.clone(),
                            env: env.clone(),
                        });
                        RtState::Eval(a.clone(), env)
                    }
                    Code::Prim1(p, a) => match quick(a, &env)? {
                        Some(av) => RtState::Continue(p.apply(&[av])?),
                        None => {
                            stack.push(RtFrame::Prim1Apply { p: *p });
                            RtState::Eval(a.clone(), env)
                        }
                    },
                    Code::Prim2(p, a, b) => match quick(b, &env)? {
                        Some(bv) => match quick(a, &env)? {
                            Some(av) => RtState::Continue(p.apply(&[av, bv])?),
                            None => {
                                stack.push(RtFrame::Prim2Apply { p: *p, second: bv });
                                RtState::Eval(a.clone(), env)
                            }
                        },
                        None => {
                            stack.push(RtFrame::Prim2First {
                                p: *p,
                                first: a.clone(),
                                env: env.clone(),
                            });
                            RtState::Eval(b.clone(), env)
                        }
                    },
                    Code::CallRec { depth, index, arg } => match quick(arg, &env)? {
                        Some(av) => {
                            let (body, callee_env) = env.enter_rec(*depth, *index);
                            RtState::Eval(body, callee_env.plain(av))
                        }
                        None => {
                            stack.push(RtFrame::EnterRec {
                                depth: *depth,
                                index: *index,
                                env: env.clone(),
                            });
                            RtState::Eval(arg.clone(), env)
                        }
                    },
                    Code::CallRec2 {
                        depth,
                        index,
                        arg1,
                        arg2,
                    } => match quick(arg2, &env)? {
                        Some(bv) => match quick(arg1, &env)? {
                            Some(av) => {
                                let (body, callee_env) = env.enter_rec(*depth, *index);
                                match &*body {
                                    Code::Lambda(inner) => RtState::Eval(
                                        inner.body.clone(),
                                        callee_env.plain(av).plain(bv),
                                    ),
                                    _ => unreachable!(
                                        "compiler aims CallRec2 only at curried lambdas"
                                    ),
                                }
                            }
                            None => {
                                stack.push(RtFrame::EnterRec2 {
                                    depth: *depth,
                                    index: *index,
                                    second: bv,
                                    env: env.clone(),
                                });
                                RtState::Eval(arg1.clone(), env)
                            }
                        },
                        None => {
                            stack.push(RtFrame::CallRec2Second {
                                depth: *depth,
                                index: *index,
                                arg1: arg1.clone(),
                                env: env.clone(),
                            });
                            RtState::Eval(arg2.clone(), env)
                        }
                    },
                    Code::Bind(v, body) => match quick(v, &env)? {
                        Some(vv) => {
                            // A run of quick bindings (the destructuring
                            // prologues instrumentation emits) completes
                            // in this one transition.
                            let mut env2 = env.plain(vv);
                            let mut cur = body.clone();
                            while let Code::Bind(v2, b2) = &*cur {
                                match quick(v2, &env2)? {
                                    Some(vv2) => {
                                        env2 = env2.plain(vv2);
                                        cur = b2.clone();
                                    }
                                    None => break,
                                }
                            }
                            RtState::Eval(cur, env2)
                        }
                        None => {
                            stack.push(RtFrame::BindThen {
                                body: body.clone(),
                                env: env.clone(),
                            });
                            RtState::Eval(v.clone(), env)
                        }
                    },
                    Code::BindPair(v, body) => {
                        stack.push(RtFrame::BindPairThen {
                            body: body.clone(),
                            env: env.clone(),
                        });
                        RtState::Eval(v.clone(), env)
                    }
                    Code::RecGroup(lambdas, rest) => {
                        RtState::Eval(rest.clone(), env.rec(lambdas.clone()))
                    }
                    Code::Seq(a, b) => {
                        stack.push(RtFrame::Discard {
                            second: b.clone(),
                            env: env.clone(),
                        });
                        RtState::Eval(a.clone(), env)
                    }
                    Code::Par(items) => match items.first() {
                        None => RtState::Continue(Value::Nil),
                        Some(first) => {
                            let first = first.clone();
                            stack.push(RtFrame::Par {
                                items: items.clone(),
                                done: Vec::new(),
                                env: env.clone(),
                            });
                            RtState::Eval(first, env)
                        }
                    },
                    Code::Hook {
                        ann,
                        site,
                        names,
                        pre,
                        post,
                        body,
                    } => {
                        if *pre {
                            probe.pre_event(*site);
                            let hook_env = env.to_env(names);
                            sigma = match monitor.try_pre(
                                ann,
                                body_expr_placeholder(),
                                &Scope::pure(&hook_env),
                                sigma,
                            ) {
                                Outcome::Continue(s) => s,
                                Outcome::Abort {
                                    monitor, reason, ..
                                } => return Err(EvalError::MonitorAbort { monitor, reason }),
                            };
                        }
                        if *post {
                            stack.push(RtFrame::Post {
                                ann: ann.clone(),
                                site: *site,
                                names: names.clone(),
                                env: env.clone(),
                            });
                        }
                        RtState::Eval(body.clone(), env)
                    }
                },
                RtState::Continue(value) => match stack.pop() {
                    None => return Ok((value, sigma, stats)),
                    Some(RtFrame::Post {
                        ann,
                        site,
                        names,
                        env,
                    }) => {
                        probe.post_event(site);
                        let hook_env = env.to_env(&names);
                        sigma = match monitor.try_post(
                            &ann,
                            body_expr_placeholder(),
                            &Scope::pure(&hook_env),
                            &value,
                            sigma,
                        ) {
                            Outcome::Continue(s) => s,
                            Outcome::Abort {
                                monitor, reason, ..
                            } => return Err(EvalError::MonitorAbort { monitor, reason }),
                        };
                        RtState::Continue(value)
                    }
                    Some(RtFrame::Arg { func, env }) => {
                        stack.push(RtFrame::Apply { arg: value });
                        RtState::Eval(func, env)
                    }
                    Some(RtFrame::Prim2First { p, first, env }) => {
                        stack.push(RtFrame::Prim2Apply { p, second: value });
                        RtState::Eval(first, env)
                    }
                    Some(RtFrame::Prim2Apply { p, second }) => {
                        RtState::Continue(p.apply(&[value, second])?)
                    }
                    Some(RtFrame::Prim1Apply { p }) => RtState::Continue(p.apply(&[value])?),
                    Some(RtFrame::EnterRec { depth, index, env }) => {
                        let (body, callee_env) = env.enter_rec(depth, index);
                        RtState::Eval(body, callee_env.plain(value))
                    }
                    Some(RtFrame::CallRec2Second {
                        depth,
                        index,
                        arg1,
                        env,
                    }) => {
                        stack.push(RtFrame::EnterRec2 {
                            depth,
                            index,
                            second: value,
                            env: env.clone(),
                        });
                        RtState::Eval(arg1, env)
                    }
                    Some(RtFrame::EnterRec2 {
                        depth,
                        index,
                        second,
                        env,
                    }) => {
                        let (body, callee_env) = env.enter_rec(depth, index);
                        match &*body {
                            Code::Lambda(inner) => RtState::Eval(
                                inner.body.clone(),
                                callee_env.plain(value).plain(second),
                            ),
                            _ => unreachable!("compiler aims CallRec2 only at curried lambdas"),
                        }
                    }
                    Some(RtFrame::Apply { arg }) => match value {
                        Value::Ext(ext) => match ext.downcast::<CompiledClosure>() {
                            Some(c) => RtState::Eval(c.lambda.body.clone(), c.env.plain(arg)),
                            None => {
                                return Err(EvalError::NotAFunction(Value::Ext(ext).to_string()))
                            }
                        },
                        Value::Prim(p, collected) => {
                            let mut args = collected.as_ref().clone();
                            args.push(arg);
                            if args.len() == p.arity() {
                                RtState::Continue(p.apply(&args)?)
                            } else {
                                RtState::Continue(Value::Prim(p, Rc::new(args)))
                            }
                        }
                        other => return Err(EvalError::NotAFunction(other.to_string())),
                    },
                    Some(RtFrame::Branch { then, els, env }) => match value {
                        Value::Bool(true) => RtState::Eval(then, env),
                        Value::Bool(false) => RtState::Eval(els, env),
                        other => return Err(EvalError::NonBooleanCondition(other.to_string())),
                    },
                    Some(RtFrame::BindThen { body, env }) => RtState::Eval(body, env.plain(value)),
                    Some(RtFrame::BindPairThen { body, env }) => match &value {
                        Value::Pair(h, t) => {
                            let (h, t) = ((**h).clone(), (**t).clone());
                            RtState::Eval(body, env.plain(value).plain(h).plain(t))
                        }
                        // Reproduce exactly the error `hd` would raise.
                        _ => match Prim::Hd.apply(&[value]) {
                            Err(e) => return Err(e),
                            Ok(_) => unreachable!("hd rejects non-pairs"),
                        },
                    },
                    Some(RtFrame::Discard { second, env }) => RtState::Eval(second, env),
                    Some(RtFrame::Par {
                        items,
                        mut done,
                        env,
                    }) => {
                        done.push(value);
                        match items.get(done.len()) {
                            Some(next) => {
                                let next = next.clone();
                                stack.push(RtFrame::Par {
                                    items,
                                    done,
                                    env: env.clone(),
                                });
                                RtState::Eval(next, env)
                            }
                            None => RtState::Continue(Value::list(done)),
                        }
                    }
                },
            };
        }
    }
}

/// The hook's `S` argument. Compiled code no longer carries source
/// expressions; monitors that inspect the expression text should run on
/// an interpreter level. The placeholder keeps the `Monitor` interface
/// uniform.
fn body_expr_placeholder() -> &'static Expr {
    thread_local! {
        static PLACEHOLDER: &'static Expr = Box::leak(Box::new(Expr::var("compiled")));
    }
    PLACEHOLDER.with(|e| *e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use monsem_core::machine::eval;
    use monsem_core::programs;
    use monsem_monitor::machine::eval_monitored;
    use monsem_monitors::{Collecting, Profiler, Tracer};
    use monsem_syntax::parse_expr;

    fn run_compiled(src: &str) -> Result<Value, EvalError> {
        compile(&parse_expr(src).unwrap()).unwrap().run()
    }

    const PROGRAMS: &[&str] = &[
        "letrec fac = lambda x. if x = 0 then 1 else x * (fac (x - 1)) in fac 10",
        "letrec fib = lambda n. if n < 2 then n else (fib (n-1)) + (fib (n-2)) in fib 14",
        "let twice = lambda f. lambda x. f (f x) in twice (lambda n. n * 2) 5",
        "letrec sum = lambda l. if null? l then 0 else (hd l) + (sum (tl l)) in sum [1,2,3]",
        "letrec even = lambda n. if n = 0 then true else odd (n - 1) \
         and odd = lambda n. if n = 0 then false else even (n - 1) in even 9",
        "letrec a = 2 in letrec b = a * 3 in a + b",
        "letrec base = 10 and add = lambda x. x + base in add 5",
        "{root}:(letrec f = lambda x. {l}:(x + 1) in f 41)",
        "let inc = (+) 1 in inc 41",
        "par(1 + 2, 3 * 4, 0 - 5)",
        "hd par(letrec f = lambda x. x + 1 in f 9, 2)",
        "par()",
        "par(1, 1 / 0, nope)",
        "1; 2",
        "1 + true",
        "missing (1 / 0)",
        "hd []",
        "1 2",
        "if 3 then 1 else 2",
    ];

    #[test]
    fn compiled_engine_agrees_with_the_interpreter() {
        for src in PROGRAMS {
            let e = parse_expr(src).unwrap();
            assert_eq!(compile(&e).unwrap().run(), eval(&e), "program: {src}");
        }
    }

    #[test]
    fn unbound_variables_fail_only_when_reached() {
        assert_eq!(run_compiled("if true then 1 else nope"), Ok(Value::Int(1)));
        assert_eq!(
            run_compiled("if false then 1 else nope"),
            Err(EvalError::UnboundVariable(Ident::new("nope")))
        );
    }

    #[test]
    fn annotations_are_erased_by_the_standard_compile() {
        let e = programs::fac_ab(5);
        let p = compile(&e).unwrap();
        assert_eq!(p.hooks, 0);
        assert_eq!(p.run(), Ok(Value::Int(120)));
    }

    #[test]
    fn monitored_compile_embeds_only_accepted_hooks() {
        // The traced program has 2 header annotations; a profiler accepts
        // neither, a tracer both.
        let e = programs::fac_mul_traced(3);
        let with_tracer = compile_monitored(&e, &Tracer::new()).unwrap();
        assert_eq!(with_tracer.hooks, 2);
        let with_profiler = compile_monitored(&e, &Profiler::new()).unwrap();
        assert_eq!(with_profiler.hooks, 0);
    }

    #[test]
    fn site_profiling_counts_every_hook_firing_per_site() {
        // fac_mul_traced(3) has two traced sites; fac recurses 4 times
        // (3, 2, 1, 0), mul is applied 3 times.
        let e = programs::fac_mul_traced(3);
        let program = compile_monitored(&e, &Tracer::new()).unwrap();
        assert_eq!(program.sites().len(), 2);
        let mut stats = SiteStats::for_program(&program);
        let monitored = program
            .run_monitored(&Tracer::new(), &EvalOptions::default())
            .unwrap();
        let profiled = program
            .run_monitored_profiled(&Tracer::new(), &EvalOptions::default(), &mut stats)
            .unwrap();
        assert_eq!(monitored, profiled, "profiling must not perturb the run");
        let per_site: Vec<u64> = stats.counts().iter().map(SiteCount::total).collect();
        let mut sorted = per_site.clone();
        sorted.sort_unstable();
        // Tracer fires pre+post per event: 2·4 and 2·3 in site order.
        assert_eq!(sorted, vec![6, 8], "per-site totals: {per_site:?}");
        assert_eq!(stats.total(), 14);
        assert_eq!(
            stats.hot_sites(7),
            vec![per_site.iter().position(|&c| c == 8).unwrap()]
        );
        stats.reset();
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.counts().len(), 2);
    }

    #[test]
    fn compiled_profiler_matches_the_interpreted_profiler() {
        let e = programs::fac_mul_profiled(6);
        let interpreted = eval_monitored(&e, &Profiler::new()).unwrap();
        let compiled = compile_monitored(&e, &Profiler::new())
            .unwrap()
            .run_monitored(&Profiler::new(), &EvalOptions::default())
            .unwrap();
        assert_eq!(interpreted.0, compiled.0);
        assert_eq!(interpreted.1, compiled.1);
    }

    #[test]
    fn compiled_tracer_reproduces_the_section8_transcript() {
        let e = programs::fac_mul_traced(3);
        let interpreted = eval_monitored(&e, &Tracer::new()).unwrap();
        let compiled = compile_monitored(&e, &Tracer::new())
            .unwrap()
            .run_monitored(&Tracer::new(), &EvalOptions::default())
            .unwrap();
        assert_eq!(compiled.0, interpreted.0);
        assert_eq!(compiled.1.chan.render(), interpreted.1.chan.render());
    }

    #[test]
    fn compiled_collecting_matches_interpreted() {
        let e = programs::collecting_fac(4);
        let interpreted = eval_monitored(&e, &Collecting::new()).unwrap();
        let compiled = compile_monitored(&e, &Collecting::new())
            .unwrap()
            .run_monitored(&Collecting::new(), &EvalOptions::default())
            .unwrap();
        assert_eq!(compiled.1, interpreted.1);
    }

    #[test]
    fn hook_env_sees_letrec_functions_as_opaque_values() {
        let e = parse_expr("letrec f = lambda x. {fh(f, x)}:(x + 1) in f 1").unwrap();
        let t = Tracer::new();
        let (_, s) = compile_monitored(&e, &t)
            .unwrap()
            .run_monitored(&t, &EvalOptions::default())
            .unwrap();
        let line = &s.chan.lines()[0];
        assert!(line.contains("<compiled-fn> 1"), "{line}");
    }

    #[test]
    fn imperative_constructs_are_compile_errors() {
        let e = parse_expr("x := 1").unwrap();
        assert_eq!(
            compile(&e).unwrap_err(),
            CompileError::Unsupported("assignment")
        );
    }

    #[test]
    fn fuel_is_metered() {
        let e = parse_expr("letrec loop = lambda x. loop x in loop 0").unwrap();
        let p = compile(&e).unwrap();
        assert_eq!(
            p.run_monitored(&IdentityMonitor, &EvalOptions::with_fuel(5_000)),
            Err(EvalError::FuelExhausted)
        );
    }

    #[test]
    fn deep_recursion_is_stack_safe() {
        assert_eq!(
            run_compiled(
                "letrec count = lambda n. if n = 0 then 0 else count (n - 1) in count 200000"
            ),
            Ok(Value::Int(0))
        );
    }

    /// Post-hook monitor that vetoes any value above its bound.
    #[derive(Debug)]
    struct Cap(i64);
    impl Monitor for Cap {
        type State = ();
        fn name(&self) -> &str {
            "cap"
        }
        fn initial_state(&self) {}
        fn try_post(
            &self,
            _: &monsem_syntax::Annotation,
            _: &monsem_syntax::Expr,
            _: &monsem_monitor::scope::Scope<'_>,
            value: &Value,
            (): (),
        ) -> Outcome<()> {
            match value {
                Value::Int(n) if *n > self.0 => {
                    Outcome::abort((), "cap", format!("saw {n}, bound is {}", self.0))
                }
                _ => Outcome::Continue(()),
            }
        }
    }

    #[test]
    fn abort_verdict_stops_the_compiled_engine() {
        let e = parse_expr(
            "letrec fac = lambda x. {f}:(if x = 0 then 1 else x * (fac (x - 1))) in fac 5",
        )
        .unwrap();
        let cap = Cap(10);
        let err = compile_monitored(&e, &cap)
            .unwrap()
            .run_monitored(&cap, &EvalOptions::default())
            .unwrap_err();
        assert_eq!(
            err,
            EvalError::MonitorAbort {
                monitor: "cap".into(),
                reason: "saw 24, bound is 10".into(),
            }
        );
    }

    #[test]
    fn quarantined_panics_leave_the_compiled_answer_intact() {
        use monsem_monitor::{FaultPolicy, Guarded};
        #[derive(Debug)]
        struct Bomb;
        impl Monitor for Bomb {
            type State = ();
            fn name(&self) -> &str {
                "pe-bomb"
            }
            fn initial_state(&self) {}
            fn pre(
                &self,
                _: &monsem_syntax::Annotation,
                _: &monsem_syntax::Expr,
                _: &monsem_monitor::scope::Scope<'_>,
                (): (),
            ) {
                panic!("compiled boom");
            }
        }
        let e = programs::fac_ab(5);
        let guarded = Guarded::new(Bomb).policy(FaultPolicy::Quarantine);
        let (v, state) = compile_monitored(&e, &guarded)
            .unwrap()
            .run_monitored(&guarded, &EvalOptions::default())
            .unwrap();
        assert_eq!(v, Value::Int(120), "answer must match the standard run");
        assert!(matches!(
            state.health,
            monsem_monitor::Health::Quarantined(_)
        ));
    }

    #[test]
    fn stats_count_each_fuel_decrement() {
        let e = parse_expr("1 + 2").unwrap();
        let p = compile(&e).unwrap();
        let (v, (), stats) = p
            .run_monitored_stats(&IdentityMonitor, &EvalOptions::default())
            .unwrap();
        assert_eq!(v, Value::Int(3));
        assert!(stats.steps > 0);
        // fuel = steps succeeds; fuel = steps - 1 exhausts.
        assert!(p
            .run_monitored(&IdentityMonitor, &EvalOptions::with_fuel(stats.steps))
            .is_ok());
        assert_eq!(
            p.run_monitored(&IdentityMonitor, &EvalOptions::with_fuel(stats.steps - 1)),
            Err(EvalError::FuelExhausted)
        );
    }
}

#[cfg(test)]
mod stack_tests {
    use super::*;
    use monsem_monitor::compose::boxed;
    use monsem_monitor::MonitorStack;
    use monsem_monitors::profiler::Profiler;
    use monsem_monitors::tracer::Tracer;
    use monsem_syntax::parse_expr;

    #[test]
    fn compiled_engine_supports_dynamic_monitor_stacks() {
        let program = parse_expr(
            "letrec fac = lambda x. {fac(x)}:({fac}:if x = 0 then 1 else x * (fac (x - 1))) \
             in fac 4",
        )
        .unwrap();
        let stack: MonitorStack = boxed(Profiler::new()) & boxed(Tracer::new());
        let compiled = compile_monitored(&program, &stack).unwrap();
        assert_eq!(compiled.hooks, 2, "one label + one header survive");
        let (v, states) = compiled
            .run_monitored(&stack, &EvalOptions::default())
            .unwrap();
        assert_eq!(v, Value::Int(24));
        use monsem_monitor::Monitor;
        let rendered = stack.render_state(&states);
        assert!(rendered.contains("fac ↦ 5"), "{rendered}");
        assert!(rendered.contains("[FAC receives (4)]"), "{rendered}");
    }
}
