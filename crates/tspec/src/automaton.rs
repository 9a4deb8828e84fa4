//! Alphabet abstraction and DFA compilation.
//!
//! Event predicates range over an unbounded concrete event space (any
//! annotation name × any [`Value`]). Compilation first quotients that space
//! into a finite **abstract alphabet** whose letters are indistinguishable
//! by every predicate in the spec:
//!
//! * *name classes* — one per annotation name mentioned in the spec, plus
//!   one `OTHER` class for every unmentioned name;
//! * *value classes* — one per non-empty region of the integer line cut at
//!   the constants compared against (`… < c₁ < … < c₂ < …`), plus an
//!   `unsorted-list` class when the spec uses `unsorted`, plus one `OTHER`
//!   class for all remaining values;
//! * letters: `pre(nameclass)`, `post(nameclass, valueclass)`, and the
//!   synthetic `done`.
//!
//! Every abstract letter is realizable by a concrete event (each integer
//! region keeps a concrete representative), so the dead-state analysis on
//! the compiled DFA is exact: a state is **dead** iff no continuation of
//! concrete events can ever reach acceptance again, which is precisely the
//! "violation" judgement the monitor adapter reports.
//!
//! The DFA itself is built by memoized Brzozowski iteration: a worklist of
//! normalized derivatives with a hash-consing cache mapping each
//! expression to its state number.

use crate::ast::{Atom, NamePat, Pred, SpecExpr};
use crate::deriv::{
    and, cat, class, deriv, empty, eps, naive_accepts, not, nullable, or, star, LetterSet, Re,
};
use crate::SpecError;
use monsem_core::Value;
use monsem_syntax::Ident;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Ceiling on DFA states — a safety valve, far above any reasonable spec.
pub const MAX_STATES: usize = 4_096;

/// Ceiling on abstract letters.
pub const MAX_LETTERS: u32 = 4_096;

/// Hook phase of an abstract letter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// An `updPre` hook event.
    Pre,
    /// An `updPost` hook event.
    Post,
    /// The synthetic end-of-trace event.
    Done,
}

/// The representative of a value class (used to decide predicates on
/// abstract letters; every class is concretely realizable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueRep {
    /// Any value no predicate distinguishes.
    Other,
    /// An integer region, by a concrete member.
    Int(i64),
    /// A definitely-unsorted list.
    Unsorted,
}

/// Mirrors `monsem_monitors::demon::is_sorted` (the Figure 8 demon's
/// trigger): a value is *unsorted* iff it is a list with an adjacent pair
/// of integers in decreasing order. The canonical predicate lives in
/// `monsem_monitor::tape` so event tapes abstract values identically.
fn value_is_unsorted(v: &Value) -> bool {
    monsem_monitor::tape::value_is_unsorted(v)
}

/// The finite abstract alphabet of a spec.
#[derive(Debug, Clone)]
pub struct Alphabet {
    /// Annotation names mentioned by the spec, in first-mention order.
    names: Vec<Ident>,
    name_index: HashMap<Ident, usize>,
    /// The same index keyed by text, so tape names resolve without
    /// interning (an untrusted name must not grow the global interner).
    text_index: HashMap<Box<str>, usize>,
    /// Sorted, deduplicated comparison constants.
    consts: Vec<i64>,
    /// Value-class representatives; class 0 is always `Other`.
    value_reps: Vec<ValueRep>,
    /// Integer region id (`0..=2k`) → value class, for non-empty regions.
    region_class: Vec<usize>,
    /// Class of definitely-unsorted lists, if the spec uses `unsorted`.
    unsorted_class: Option<usize>,
}

impl Alphabet {
    /// Builds the alphabet for a spec by scanning its predicates.
    pub fn build(spec: &SpecExpr) -> Result<Alphabet, SpecError> {
        let mut names: Vec<Ident> = Vec::new();
        let mut name_index = HashMap::new();
        let mut consts: Vec<i64> = Vec::new();
        let mut unsorted = false;
        spec.visit_preds(&mut |p: &Pred| {
            p.visit_atoms(&mut |a: &Atom| match a {
                Atom::Pre(NamePat::Name(id))
                | Atom::Post(NamePat::Name(id))
                | Atom::At(NamePat::Name(id))
                    if !name_index.contains_key(id) =>
                {
                    name_index.insert(id.clone(), names.len());
                    names.push(id.clone());
                }
                Atom::Value(_, c) => consts.push(*c),
                Atom::Unsorted => unsorted = true,
                _ => {}
            });
        });
        consts.sort_unstable();
        consts.dedup();

        // Cut the integer line at the constants: region 2i+1 = {cᵢ},
        // region 2i = (cᵢ₋₁, cᵢ) (with open ends at 0 and 2k). Only
        // non-empty regions become classes, each with a concrete
        // representative, so every abstract letter is realizable.
        let k = consts.len();
        let mut value_reps = vec![ValueRep::Other];
        let mut region_class = vec![usize::MAX; 2 * k + 1];
        if k > 0 {
            for region in 0..=(2 * k) {
                let rep: Option<i64> = if region % 2 == 1 {
                    Some(consts[region / 2])
                } else if region == 0 {
                    consts[0].checked_sub(1)
                } else if region == 2 * k {
                    consts[k - 1].checked_add(1)
                } else {
                    let lo = consts[region / 2 - 1];
                    let hi = consts[region / 2];
                    // Non-empty open interval (lo, hi) needs hi − lo ≥ 2.
                    if (hi as i128) - (lo as i128) >= 2 {
                        Some(lo + 1)
                    } else {
                        None
                    }
                };
                if let Some(r) = rep {
                    region_class[region] = value_reps.len();
                    value_reps.push(ValueRep::Int(r));
                }
            }
        }
        let unsorted_class = if unsorted {
            value_reps.push(ValueRep::Unsorted);
            Some(value_reps.len() - 1)
        } else {
            None
        };

        let text_index = names
            .iter()
            .enumerate()
            .map(|(i, id)| (Box::from(id.as_str()), i))
            .collect();
        let alphabet = Alphabet {
            names,
            name_index,
            text_index,
            consts,
            value_reps,
            region_class,
            unsorted_class,
        };
        if alphabet.width() > MAX_LETTERS {
            return Err(SpecError::alphabet_limit(alphabet.width(), MAX_LETTERS));
        }
        Ok(alphabet)
    }

    /// Number of name classes (mentioned names + `OTHER`).
    pub fn name_classes(&self) -> usize {
        self.names.len() + 1
    }

    /// Number of value classes.
    pub fn value_classes(&self) -> usize {
        self.value_reps.len()
    }

    /// Total number of abstract letters.
    pub fn width(&self) -> u32 {
        let n = self.name_classes() as u32;
        let v = self.value_classes() as u32;
        n + n * v + 1
    }

    /// The name class of a concrete annotation name.
    pub fn name_class(&self, name: &Ident) -> usize {
        self.name_index
            .get(name)
            .copied()
            .unwrap_or(self.names.len())
    }

    /// The name class of a name given as text — a tape's name. Looks the
    /// text up without interning it.
    pub fn name_class_of(&self, name: &str) -> usize {
        self.text_index
            .get(name)
            .copied()
            .unwrap_or(self.names.len())
    }

    /// The value class of a concrete observed value.
    pub fn classify_value(&self, v: &Value) -> usize {
        match v {
            Value::Int(n) if !self.consts.is_empty() => {
                let i = self.consts.partition_point(|c| c < n);
                let region = if i < self.consts.len() && self.consts[i] == *n {
                    2 * i + 1
                } else {
                    2 * i
                };
                let class = self.region_class[region];
                debug_assert_ne!(class, usize::MAX, "a concrete int inhabits its region");
                class
            }
            v => match self.unsorted_class {
                Some(class) if value_is_unsorted(v) => class,
                _ => 0,
            },
        }
    }

    /// The value class of a *described* value, as carried on an event
    /// tape. Agrees with [`Alphabet::classify_value`] on every concrete
    /// value `v` when the description is `ValueDesc::of(v)`: the
    /// description preserves exactly the inputs the abstraction reads
    /// (the integer itself, and list unsortedness).
    pub fn classify_desc(&self, desc: &monsem_monitor::tape::ValueDesc) -> usize {
        self.classify_parts(desc.int, desc.unsorted)
    }

    /// The value class of a value described by its parts: the integer,
    /// if it was one, and list unsortedness — what an
    /// [`EventView`](monsem_monitor::tape::EventView) carries.
    pub fn classify_parts(&self, int: Option<i64>, unsorted: bool) -> usize {
        match int {
            Some(n) if !self.consts.is_empty() => {
                let i = self.consts.partition_point(|c| *c < n);
                let region = if i < self.consts.len() && self.consts[i] == n {
                    2 * i + 1
                } else {
                    2 * i
                };
                let class = self.region_class[region];
                debug_assert_ne!(class, usize::MAX, "a concrete int inhabits its region");
                class
            }
            _ => match self.unsorted_class {
                Some(class) if unsorted => class,
                _ => 0,
            },
        }
    }

    /// The sorted, deduplicated comparison constants that cut the
    /// integer line into value regions. Empty when the spec compares no
    /// values.
    pub fn consts(&self) -> &[i64] {
        &self.consts
    }

    /// The value class of integer region `r`, or `None` when the region
    /// is empty (and thus never inhabited by a concrete integer). With
    /// `k = consts().len()`, region `2i+1` is the singleton `{cᵢ}` and
    /// region `2i` the open interval below `c₀`, between `cᵢ₋₁` and
    /// `cᵢ`, or above `cₖ₋₁`. Level-3 code generation walks regions in
    /// order to residualize [`Alphabet::classify_value`] as comparisons.
    pub fn int_region_class(&self, region: usize) -> Option<usize> {
        self.region_class
            .get(region)
            .copied()
            .filter(|&c| c != usize::MAX)
    }

    /// The value class of definitely-unsorted lists, when the spec uses
    /// the `unsorted` predicate.
    pub fn unsorted_value_class(&self) -> Option<usize> {
        self.unsorted_class
    }

    /// The `pre` letter for a name class.
    pub fn pre_letter(&self, nc: usize) -> u32 {
        debug_assert!(nc < self.name_classes());
        nc as u32
    }

    /// The `post` letter for a name class and value class.
    pub fn post_letter(&self, nc: usize, vc: usize) -> u32 {
        debug_assert!(nc < self.name_classes() && vc < self.value_classes());
        (self.name_classes() + nc * self.value_classes() + vc) as u32
    }

    /// The synthetic `done` letter.
    pub fn done_letter(&self) -> u32 {
        self.width() - 1
    }

    /// Decomposes a letter into phase, name class and value class.
    pub fn decode(&self, letter: u32) -> (Phase, usize, usize) {
        let n = self.name_classes();
        let v = self.value_classes();
        let l = letter as usize;
        if l < n {
            (Phase::Pre, l, 0)
        } else if l < n + n * v {
            let idx = l - n;
            (Phase::Post, idx / v, idx % v)
        } else {
            (Phase::Done, 0, 0)
        }
    }

    /// A printable description of a letter (diagnostics and tests).
    pub fn describe(&self, letter: u32) -> String {
        let (phase, nc, vc) = self.decode(letter);
        let name = |nc: usize| -> String {
            self.names
                .get(nc)
                .map(|i| i.as_str().to_string())
                .unwrap_or_else(|| "<other>".to_string())
        };
        match phase {
            Phase::Pre => format!("pre({})", name(nc)),
            Phase::Done => "done".to_string(),
            Phase::Post => {
                let rep = match self.value_reps[vc] {
                    ValueRep::Other => "<other>".to_string(),
                    ValueRep::Int(n) => format!("≈{n}"),
                    ValueRep::Unsorted => "unsorted-list".to_string(),
                };
                format!("post({}) = {rep}", name(nc))
            }
        }
    }

    fn name_matches(&self, pat: &NamePat, nc: usize) -> bool {
        match pat {
            NamePat::Any => true,
            NamePat::Name(id) => self.name_index.get(id) == Some(&nc),
        }
    }

    fn eval_atom(&self, atom: &Atom, phase: Phase, nc: usize, vc: usize) -> bool {
        match atom {
            Atom::True => true,
            Atom::False => false,
            Atom::Done => phase == Phase::Done,
            Atom::Pre(pat) => phase == Phase::Pre && self.name_matches(pat, nc),
            Atom::Post(pat) => phase == Phase::Post && self.name_matches(pat, nc),
            Atom::At(pat) => phase != Phase::Done && self.name_matches(pat, nc),
            Atom::Value(op, c) => {
                phase == Phase::Post
                    && matches!(self.value_reps[vc], ValueRep::Int(n) if op.holds(n, *c))
            }
            Atom::Unsorted => phase == Phase::Post && self.value_reps[vc] == ValueRep::Unsorted,
        }
    }

    fn eval_pred(&self, pred: &Pred, phase: Phase, nc: usize, vc: usize) -> bool {
        match pred {
            Pred::Atom(a) => self.eval_atom(a, phase, nc, vc),
            Pred::Not(p) => !self.eval_pred(p, phase, nc, vc),
            Pred::And(p, q) => self.eval_pred(p, phase, nc, vc) && self.eval_pred(q, phase, nc, vc),
            Pred::Or(p, q) => self.eval_pred(p, phase, nc, vc) || self.eval_pred(q, phase, nc, vc),
        }
    }

    /// The set of abstract letters satisfying `pred`.
    pub fn pred_to_set(&self, pred: &Pred) -> LetterSet {
        let mut set = LetterSet::empty(self.width());
        for letter in 0..self.width() {
            let (phase, nc, vc) = self.decode(letter);
            if self.eval_pred(pred, phase, nc, vc) {
                set.insert(letter);
            }
        }
        set
    }

    /// Lowers a trace expression to a regular expression over this
    /// alphabet.
    pub fn lower(&self, spec: &SpecExpr) -> Arc<Re> {
        match spec {
            SpecExpr::Empty => empty(),
            SpecExpr::Eps => eps(),
            SpecExpr::Any => class(LetterSet::full(self.width())),
            SpecExpr::Event(p) => class(self.pred_to_set(p)),
            SpecExpr::Cat(a, b) => cat(self.lower(a), self.lower(b)),
            SpecExpr::Or(a, b) => or(self.lower(a), self.lower(b)),
            SpecExpr::And(a, b) => and(self.lower(a), self.lower(b)),
            SpecExpr::Not(r) => not(self.lower(r)),
            SpecExpr::Star(r) => star(self.lower(r)),
            SpecExpr::Plus(r) => {
                let inner = self.lower(r);
                cat(inner.clone(), star(inner))
            }
            SpecExpr::Opt(r) => or(eps(), self.lower(r)),
            SpecExpr::Repeat(r, n) => {
                let inner = self.lower(r);
                (0..*n).fold(eps(), |acc, _| cat(acc, inner.clone()))
            }
        }
    }
}

/// Knobs for [`Automaton::compile_with`].
///
/// The defaults (used by [`Automaton::compile`]) give the smallest table:
/// Hopcroft minimization followed by letter-class compression. The flags
/// exist so tests can compare the optimized automaton against the plain
/// ACI-deduped derivative DFA, and so the state cap can be pinned at a
/// boundary.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Ceiling on derivative-closure states (default [`MAX_STATES`]).
    pub max_states: usize,
    /// Merge language-equivalent states (Hopcroft partition refinement).
    pub minimize: bool,
    /// Merge letters with identical transition columns into classes.
    pub compress_letters: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            max_states: MAX_STATES,
            minimize: true,
            compress_letters: true,
        }
    }
}

/// A compiled deterministic automaton over the abstract alphabet.
///
/// This is the spec's **MAlg** and **MFun** in tabular form: states are
/// normalized derivatives of the spec expression — deduplicated *by
/// language* via Hopcroft minimization, not just by ACI-normal form —
/// the transition table is total, and the dead/nullable analyses drive
/// the monitor adapter's verdicts.
///
/// The table is **letter-class compressed**: letters whose transition
/// columns agree everywhere share a class, so storage is
/// `states × classes` plus a `letter → class` map rather than
/// `states × letters`.
#[derive(Debug, Clone)]
pub struct Automaton {
    alphabet: Alphabet,
    /// The lowered start expression (state 0) — kept for the property
    /// tests' naive-matcher oracle.
    re: Arc<Re>,
    /// States in the raw derivative closure, before minimization.
    raw_states: u32,
    nstates: u32,
    /// Number of letter equivalence classes.
    nclasses: u32,
    /// Letter → class map, `width` entries.
    letter_class: Vec<u32>,
    /// Row-major transition table: `table[s * nclasses + letter_class[l]]`.
    table: Vec<u32>,
    nullable: Vec<bool>,
    /// `dead[s]` — no word leads from `s` to a nullable state.
    dead: Vec<bool>,
    /// `relevant[letter]` — some state moves on this letter.
    relevant: Vec<bool>,
    /// `observed[letter]` — the monitor adapter observes events carrying
    /// this letter (see [`Automaton::letter_observed`]); precomputed so
    /// the per-event gate is one load.
    observed: Vec<bool>,
}

/// Groups equal columns of a row-major `nstates × nclasses` table whose
/// letters are pre-mapped through `letter_class`. Returns the refined
/// `letter → class` map and the compressed table.
fn compress_columns(
    nstates: usize,
    nclasses: usize,
    table: &[u32],
    letter_class: &[u32],
) -> (Vec<u32>, Vec<u32>) {
    let mut class_of_column: HashMap<Vec<u32>, u32> = HashMap::new();
    let mut old_to_new: Vec<u32> = vec![u32::MAX; nclasses];
    let mut columns: Vec<Vec<u32>> = Vec::new();
    for c in 0..nclasses {
        let column: Vec<u32> = (0..nstates).map(|s| table[s * nclasses + c]).collect();
        let next = columns.len() as u32;
        let id = *class_of_column.entry(column.clone()).or_insert_with(|| {
            columns.push(column);
            next
        });
        old_to_new[c] = id;
    }
    let new_nclasses = columns.len();
    let mut new_table = vec![0u32; nstates * new_nclasses];
    for (id, column) in columns.iter().enumerate() {
        for (s, &t) in column.iter().enumerate() {
            new_table[s * new_nclasses + id] = t;
        }
    }
    let new_letter_class: Vec<u32> = letter_class
        .iter()
        .map(|&c| old_to_new[c as usize])
        .collect();
    (new_letter_class, new_table)
}

/// Hopcroft's partition-refinement minimization over a total DFA given as
/// an `nstates × nclasses` table. Returns `(block_count, state → block)`
/// with blocks renumbered so the block containing state 0 is block 0 and
/// blocks are ordered by their least member (deterministic output).
fn hopcroft(
    nstates: usize,
    nclasses: usize,
    table: &[u32],
    accepting: &[bool],
) -> (usize, Vec<u32>) {
    // Refinable partition: `elems` is a permutation of the states grouped
    // by block; each block is the range `start[b] .. start[b] + len[b]`
    // with marked elements swapped to the front.
    let mut elems: Vec<u32> = (0..nstates as u32).collect();
    let mut loc: Vec<u32> = (0..nstates as u32).collect();
    let mut blk: Vec<u32> = vec![0; nstates];
    let mut start: Vec<u32> = vec![0];
    let mut len: Vec<u32> = vec![nstates as u32];
    let mut marked: Vec<u32> = vec![0];
    let mut touched: Vec<u32> = Vec::new();

    let mark = |s: u32,
                elems: &mut [u32],
                loc: &mut [u32],
                blk: &[u32],
                start: &[u32],
                marked: &mut [u32],
                touched: &mut Vec<u32>| {
        let b = blk[s as usize] as usize;
        let pos = loc[s as usize];
        let front = start[b] + marked[b];
        if pos < front {
            return; // already marked
        }
        let other = elems[front as usize];
        elems[front as usize] = s;
        elems[pos as usize] = other;
        loc[s as usize] = front;
        loc[other as usize] = pos;
        if marked[b] == 0 {
            touched.push(b as u32);
        }
        marked[b] += 1;
    };

    // Per-class preimage lists in CSR form: `pre_flat[c]` holds, grouped
    // by target state via `pre_off[c]`, every source state mapping there.
    // Total size equals the table itself, so this never dominates.
    let mut pre_off: Vec<Vec<u32>> = Vec::with_capacity(nclasses);
    let mut pre_flat: Vec<Vec<u32>> = Vec::with_capacity(nclasses);
    for c in 0..nclasses {
        let mut counts = vec![0u32; nstates + 1];
        for s in 0..nstates {
            counts[table[s * nclasses + c] as usize + 1] += 1;
        }
        for t in 0..nstates {
            counts[t + 1] += counts[t];
        }
        let mut flat = vec![0u32; nstates];
        let mut cursor = counts.clone();
        for s in 0..nstates {
            let t = table[s * nclasses + c] as usize;
            flat[cursor[t] as usize] = s as u32;
            cursor[t] += 1;
        }
        pre_off.push(counts);
        pre_flat.push(flat);
    }

    // Initial partition: split by acceptance.
    for s in 0..nstates as u32 {
        if accepting[s as usize] {
            mark(
                s,
                &mut elems,
                &mut loc,
                &blk,
                &start,
                &mut marked,
                &mut touched,
            );
        }
    }
    let split = |elems: &[u32],
                 blk: &mut [u32],
                 start: &mut Vec<u32>,
                 len: &mut Vec<u32>,
                 marked: &mut Vec<u32>,
                 touched: &mut Vec<u32>|
     -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for &b in touched.iter() {
            let b = b as usize;
            let m = marked[b];
            marked[b] = 0;
            if m == len[b] {
                continue; // every member marked — no split
            }
            // New block = the marked prefix; the old block keeps the rest.
            let nb = start.len() as u32;
            start.push(start[b]);
            len.push(m);
            marked.push(0);
            start[b] += m;
            len[b] -= m;
            for i in start[nb as usize]..start[nb as usize] + m {
                blk[elems[i as usize] as usize] = nb;
            }
            out.push((b as u32, nb));
        }
        touched.clear();
        out
    };

    let mut worklist: Vec<(u32, u32)> = Vec::new();
    let mut in_w: HashSet<(u32, u32)> = HashSet::new();
    split(
        &elems,
        &mut blk,
        &mut start,
        &mut len,
        &mut marked,
        &mut touched,
    );
    // Seed the worklist with every (block, class) pair of the initial
    // partition — the textbook "smaller half" refinement then keeps the
    // total work near O(states · classes · log states).
    for b in 0..start.len() as u32 {
        for c in 0..nclasses as u32 {
            worklist.push((b, c));
            in_w.insert((b, c));
        }
    }

    let mut members_buf: Vec<u32> = Vec::new();
    let mut pre_buf: Vec<u32> = Vec::new();
    while let Some((a, c)) = worklist.pop() {
        in_w.remove(&(a, c));
        if len[a as usize] == 0 {
            continue;
        }
        let a = a as usize;
        members_buf.clear();
        members_buf.extend_from_slice(&elems[start[a] as usize..(start[a] + len[a]) as usize]);
        pre_buf.clear();
        let off = &pre_off[c as usize];
        let flat = &pre_flat[c as usize];
        for &t in &members_buf {
            pre_buf
                .extend_from_slice(&flat[off[t as usize] as usize..off[t as usize + 1] as usize]);
        }
        for &s in &pre_buf {
            mark(
                s,
                &mut elems,
                &mut loc,
                &blk,
                &start,
                &mut marked,
                &mut touched,
            );
        }
        for (old, new) in split(
            &elems,
            &mut blk,
            &mut start,
            &mut len,
            &mut marked,
            &mut touched,
        ) {
            for d in 0..nclasses as u32 {
                if in_w.contains(&(old, d)) {
                    worklist.push((new, d));
                    in_w.insert((new, d));
                } else {
                    let pick = if len[old as usize] <= len[new as usize] {
                        old
                    } else {
                        new
                    };
                    worklist.push((pick, d));
                    in_w.insert((pick, d));
                }
            }
        }
    }

    // Renumber blocks by least member so state 0's block becomes 0 and
    // the numbering is independent of refinement order.
    let nblocks = start.len();
    let mut least = vec![u32::MAX; nblocks];
    for s in 0..nstates as u32 {
        let b = blk[s as usize] as usize;
        if s < least[b] {
            least[b] = s;
        }
    }
    let mut order: Vec<u32> = (0..nblocks as u32).collect();
    order.sort_by_key(|&b| least[b as usize]);
    let mut renumber = vec![0u32; nblocks];
    for (new, &old) in order.iter().enumerate() {
        renumber[old as usize] = new as u32;
    }
    let block_of: Vec<u32> = blk.iter().map(|&b| renumber[b as usize]).collect();
    (nblocks, block_of)
}

impl Automaton {
    /// Compiles a parsed spec to a minimized, letter-compressed DFA.
    ///
    /// # Errors
    ///
    /// If the alphabet or state space exceeds the (generous) safety caps.
    pub fn compile(spec: &SpecExpr) -> Result<Automaton, SpecError> {
        Automaton::compile_with(spec, CompileOptions::default())
    }

    /// Compiles with explicit [`CompileOptions`].
    ///
    /// The pipeline is: Brzozowski derivative closure (ACI-deduped), then
    /// letter-column grouping, then Hopcroft minimization over the grouped
    /// table, then a second column grouping (minimization can merge more
    /// columns), then dead-state reverse reachability and letter-relevance
    /// recomputed **on the minimized automaton** — so earliest-violation
    /// semantics survive minimization exactly (dead states are absorbing
    /// and all merge into one sink).
    ///
    /// # Errors
    ///
    /// If the alphabet exceeds [`MAX_LETTERS`] or the derivative closure
    /// exceeds `opts.max_states`.
    pub fn compile_with(spec: &SpecExpr, opts: CompileOptions) -> Result<Automaton, SpecError> {
        let alphabet = Alphabet::build(spec)?;
        let start = alphabet.lower(spec);
        let width = alphabet.width() as usize;

        // Memoized derivative closure: the cache maps each normalized
        // expression to its state number; the worklist explores letters.
        let mut cache: HashMap<Arc<Re>, u32> = HashMap::new();
        let mut states: Vec<Arc<Re>> = Vec::new();
        let mut raw_table: Vec<u32> = Vec::new();
        cache.insert(start.clone(), 0);
        states.push(start.clone());
        let mut next_unexplored = 0usize;
        while next_unexplored < states.len() {
            let s = states[next_unexplored].clone();
            next_unexplored += 1;
            for letter in 0..width as u32 {
                let d = deriv(&s, letter);
                let id = match cache.get(&d) {
                    Some(&id) => id,
                    None => {
                        let id = states.len() as u32;
                        if states.len() >= opts.max_states {
                            return Err(SpecError::state_limit(states.len(), opts.max_states));
                        }
                        cache.insert(d.clone(), id);
                        states.push(d);
                        id
                    }
                };
                raw_table.push(id);
            }
        }

        let raw_states = states.len();
        let raw_nullable: Vec<bool> = states.iter().map(|s| nullable(s)).collect();

        // Letter-class compression, pass 1 — before minimization, so the
        // Hopcroft preimage structures scale with classes, not letters.
        let identity: Vec<u32> = (0..width as u32).collect();
        let (mut letter_class, mut table) =
            compress_columns(raw_states, width, &raw_table, &identity);
        let mut nclasses = (table.len() / raw_states.max(1)).max(1);
        let mut nstates = raw_states;
        let mut nullable = raw_nullable.clone();

        if opts.minimize {
            let (nblocks, block_of) = hopcroft(nstates, nclasses, &table, &nullable);
            if nblocks < nstates {
                // Representative rows: blocks agree on every transition's
                // *target block*, so any member works.
                let mut min_table = vec![0u32; nblocks * nclasses];
                let mut min_nullable = vec![false; nblocks];
                let mut seen = vec![false; nblocks];
                for s in 0..nstates {
                    let b = block_of[s] as usize;
                    if seen[b] {
                        continue;
                    }
                    seen[b] = true;
                    min_nullable[b] = nullable[s];
                    for c in 0..nclasses {
                        min_table[b * nclasses + c] = block_of[table[s * nclasses + c] as usize];
                    }
                }
                nstates = nblocks;
                table = min_table;
                nullable = min_nullable;
                // Pass 2: merged states can make more columns coincide.
                let (lc, t) = compress_columns(nstates, nclasses, &table, &letter_class);
                nclasses = t.len() / nstates;
                letter_class = lc;
                table = t;
            }
        }

        if !opts.compress_letters {
            // Expand back to one column per letter (tests compare sizes).
            let mut full = vec![0u32; nstates * width];
            for s in 0..nstates {
                for (l, &c) in letter_class.iter().enumerate() {
                    full[s * width + l] = table[s * nclasses + c as usize];
                }
            }
            table = full;
            letter_class = (0..width as u32).collect();
            nclasses = width;
        }

        // Dead-state analysis on the final automaton: reverse
        // reachability from nullable states.
        let mut alive = nullable.clone();
        let mut changed = true;
        while changed {
            changed = false;
            for s in 0..nstates {
                if alive[s] {
                    continue;
                }
                if table[s * nclasses..(s + 1) * nclasses]
                    .iter()
                    .any(|&t| alive[t as usize])
                {
                    alive[s] = true;
                    changed = true;
                }
            }
        }
        let dead: Vec<bool> = alive.iter().map(|a| !a).collect();

        let relevant: Vec<bool> = (0..width)
            .map(|l| {
                let c = letter_class[l] as usize;
                (0..nstates).any(|s| table[s * nclasses + c] != s as u32)
            })
            .collect();

        let mut aut = Automaton {
            alphabet,
            re: start,
            raw_states: raw_states as u32,
            nstates: nstates as u32,
            nclasses: nclasses as u32,
            letter_class,
            table,
            nullable,
            dead,
            relevant,
            observed: Vec::new(),
        };
        aut.observed = (0..width as u32)
            .map(|l| match aut.alphabet.decode(l) {
                (Phase::Pre, nc, _) => aut.pre_relevant(nc),
                (Phase::Post, nc, _) => aut.post_relevant(nc),
                (Phase::Done, _, _) => aut.letter_relevant(l),
            })
            .collect();
        Ok(aut)
    }

    /// The abstract alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The lowered start expression (for oracle comparisons).
    pub fn start_expr(&self) -> &Arc<Re> {
        &self.re
    }

    /// Number of DFA states (after minimization).
    pub fn num_states(&self) -> u32 {
        self.nstates
    }

    /// Number of states in the raw derivative closure, before Hopcroft
    /// minimization merged language-equivalent ones.
    pub fn raw_states(&self) -> u32 {
        self.raw_states
    }

    /// Number of letter equivalence classes (table columns).
    pub fn num_letter_classes(&self) -> u32 {
        self.nclasses
    }

    /// The equivalence class of a letter.
    pub fn letter_class(&self, letter: u32) -> u32 {
        self.letter_class[letter as usize]
    }

    /// Total transition-table cells: `states × classes`.
    pub fn table_cells(&self) -> usize {
        self.table.len()
    }

    /// The start state.
    pub fn start(&self) -> u32 {
        0
    }

    /// One transition.
    pub fn step(&self, state: u32, letter: u32) -> u32 {
        let c = self.letter_class[letter as usize] as usize;
        self.table[state as usize * self.nclasses as usize + c]
    }

    /// One transition addressed by letter *class* (level-3 codegen steps
    /// the table by class, not by letter).
    pub fn step_class(&self, state: u32, class: u32) -> u32 {
        self.table[state as usize * self.nclasses as usize + class as usize]
    }

    /// Whether `state` accepts the empty continuation.
    pub fn is_nullable(&self, state: u32) -> bool {
        self.nullable[state as usize]
    }

    /// Whether `state` is dead: no continuation reaches acceptance.
    pub fn is_dead(&self, state: u32) -> bool {
        self.dead[state as usize]
    }

    /// Whether any state moves on `letter`; irrelevant letters are
    /// universal self-loops and may be skipped without observing them.
    pub fn letter_relevant(&self, letter: u32) -> bool {
        self.relevant[letter as usize]
    }

    /// Whether the `pre` hook at name class `nc` can move any state.
    pub fn pre_relevant(&self, nc: usize) -> bool {
        self.letter_relevant(self.alphabet.pre_letter(nc))
    }

    /// Whether any `post` hook at name class `nc` can move any state.
    pub fn post_relevant(&self, nc: usize) -> bool {
        (0..self.alphabet.value_classes())
            .any(|vc| self.letter_relevant(self.alphabet.post_letter(nc, vc)))
    }

    /// Whether an event carrying this letter is *observed* by the monitor
    /// adapter (recorded in the trace and counted).
    ///
    /// The gate is per hook phase × name class — exactly the granularity
    /// of [`Monitor::accepts_event`](monsem_monitor::Monitor::accepts_event)
    /// — so monitor state evolves identically whether or not a machine
    /// skips the hooks that hint rules out.
    pub fn letter_observed(&self, letter: u32) -> bool {
        self.observed[letter as usize]
    }

    /// Runs the DFA over a whole word and reports acceptance — the
    /// compiled counterpart of [`naive_accepts`].
    pub fn accepts_word(&self, word: &[u32]) -> bool {
        let mut s = self.start();
        for &l in word {
            s = self.step(s, l);
        }
        self.is_nullable(s)
    }

    /// The oracle: direct structural matching on the start expression.
    pub fn naive_word(&self, word: &[u32]) -> bool {
        naive_accepts(&self.re, word)
    }

    // ---- state-region queries (tiered specialization) -------------------

    /// All states reachable from the start state — the universe a tiered
    /// compiler may ever need to cover. (Every table state is reachable
    /// by construction, so this is simply `0..num_states()`.)
    pub fn reachable(&self) -> Vec<u32> {
        (0..self.nstates).collect()
    }

    /// The transition closure of `seeds`: the smallest superset of the
    /// seed states closed under [`Automaton::step`] over every letter.
    /// A residual compiled for a closed region can never be escaped, so
    /// its guards reduce to the entry check.
    ///
    /// States out of range are ignored; the result is sorted and deduped.
    pub fn closure(&self, seeds: &[u32]) -> Vec<u32> {
        let n = self.nstates as usize;
        let mut member = vec![false; n];
        let mut work: Vec<u32> = Vec::new();
        for &s in seeds {
            if (s as usize) < n && !member[s as usize] {
                member[s as usize] = true;
                work.push(s);
            }
        }
        while let Some(s) = work.pop() {
            for c in 0..self.nclasses {
                let t = self.step_class(s, c);
                if !member[t as usize] {
                    member[t as usize] = true;
                    work.push(t);
                }
            }
        }
        (0..self.nstates).filter(|&s| member[s as usize]).collect()
    }

    /// Whether `region` is closed under the transition function: no
    /// letter can move a region state to a state outside the region.
    /// A guard protecting a residual compiled for a closed region can
    /// never fire mid-run.
    pub fn is_closed(&self, region: &[u32]) -> bool {
        let n = self.nstates as usize;
        let mut member = vec![false; n];
        for &s in region {
            if (s as usize) < n {
                member[s as usize] = true;
            }
        }
        region
            .iter()
            .filter(|&&s| (s as usize) < n)
            .all(|&s| (0..self.nclasses).all(|c| member[self.step_class(s, c) as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_spec;

    fn compile(src: &str) -> Automaton {
        Automaton::compile(&parse_spec(src).unwrap()).unwrap()
    }

    #[test]
    fn alphabet_of_the_issue_example() {
        let ast = parse_spec("always(post(fac) => value >= 1)").unwrap();
        let a = Alphabet::build(&ast).unwrap();
        // Names: fac + OTHER. Values: OTHER, (−∞,1), {1}, (1,∞).
        assert_eq!(a.name_classes(), 2);
        assert_eq!(a.value_classes(), 4);
        assert_eq!(
            a.classify_value(&Value::Int(0)),
            a.classify_value(&Value::Int(-7))
        );
        assert_ne!(
            a.classify_value(&Value::Int(1)),
            a.classify_value(&Value::Int(2))
        );
        assert_eq!(a.classify_value(&Value::Bool(true)), 0);
    }

    #[test]
    fn empty_integer_regions_are_not_classes() {
        let ast = parse_spec("always(value = 0 or value = 1)").unwrap();
        let a = Alphabet::build(&ast).unwrap();
        // Regions: (−∞,0), {0}, (0,1) = ∅, {1}, (1,∞) → 4 int classes.
        assert_eq!(a.value_classes(), 1 + 4);
    }

    #[test]
    fn issue_example_flags_small_values_as_dead() {
        let aut = compile("always(post(fac) => value >= 1)");
        let a = aut.alphabet();
        let nc = a.name_class(&Ident::new("fac"));
        let bad = a.post_letter(nc, a.classify_value(&Value::Int(0)));
        let good = a.post_letter(nc, a.classify_value(&Value::Int(3)));
        let s = aut.start();
        assert!(aut.is_dead(aut.step(s, bad)));
        assert!(!aut.is_dead(aut.step(s, good)));
        assert!(aut.is_nullable(aut.step(s, good)));
    }

    #[test]
    fn irrelevant_letters_self_loop_everywhere() {
        let aut = compile("always(post(fac) => value >= 1)");
        let a = aut.alphabet();
        let other_nc = a.name_class(&Ident::new("unmentioned"));
        // `pre` letters never matter to this spec: `post(fac) => …` is
        // vacuously true of them, so they are universal self-loops.
        assert!(!aut.pre_relevant(other_nc));
        assert!(!aut.pre_relevant(a.name_class(&Ident::new("fac"))));
        // An unmentioned name's post letters are also irrelevant.
        assert!(!aut.post_relevant(other_nc));
        assert!(aut.post_relevant(a.name_class(&Ident::new("fac"))));
    }

    #[test]
    fn dfa_agrees_with_oracle_on_a_hand_word() {
        let aut = compile("eventually(post(f))");
        let a = aut.alphabet();
        let f = a.name_class(&Ident::new("f"));
        let hit = a.post_letter(f, 0);
        let miss = a.pre_letter(f);
        let done = a.done_letter();
        for word in [
            vec![],
            vec![miss, done],
            vec![miss, hit, done],
            vec![hit],
            vec![done, hit],
        ] {
            assert_eq!(aut.accepts_word(&word), aut.naive_word(&word), "{word:?}");
        }
    }

    #[test]
    fn state_region_queries_report_closure_and_closedness() {
        let aut = compile("always(post(fac) => value >= 1)");
        let all = aut.reachable();
        assert_eq!(all.len(), aut.num_states() as usize);
        // The closure of the start state is the whole reachable set and
        // is closed; the start state alone is not (the dead state is
        // reachable from it but not in the singleton region).
        let closed = aut.closure(&[aut.start()]);
        assert_eq!(closed, all);
        assert!(aut.is_closed(&closed));
        assert!(!aut.is_closed(&[aut.start()]));
        // A dead state self-loops on everything: a closed singleton.
        let a = aut.alphabet();
        let nc = a.name_class(&Ident::new("fac"));
        let dead = aut.step(
            aut.start(),
            a.post_letter(nc, a.classify_value(&Value::Int(0))),
        );
        assert!(aut.is_closed(&[dead]));
        assert_eq!(aut.closure(&[dead]), vec![dead]);
        // Out-of-range seeds are ignored rather than panicking.
        assert_eq!(aut.closure(&[999]), Vec::<u32>::new());
        assert!(aut.is_closed(&[]));
    }

    #[test]
    fn state_explosion_is_reported_not_suffered() {
        // A tower of repeats forces more derivative states than the cap.
        let src = "any{200} ; any{200} ; any{200} ; any{200} ; any{200} ; \
                   any{200} ; any{200} ; any{200} ; any{200} ; any{200} ; \
                   any{200} ; any{200} ; any{200} ; any{200} ; any{200} ; \
                   any{200} ; any{200} ; any{200} ; any{200} ; any{200} ; \
                   any{200} ; any{200}";
        let err = Automaton::compile(&parse_spec(src).unwrap()).unwrap_err();
        assert!(err.message.contains("states"));
        assert!(matches!(
            err.kind,
            crate::SpecErrorKind::StateLimit {
                limit: MAX_STATES,
                ..
            }
        ));
    }

    #[test]
    fn state_cap_boundary_is_exact() {
        // A closure that needs exactly `n` states compiles at cap `n` and
        // reports a structured StateLimit at cap `n − 1` — no panic.
        let ast = parse_spec("any{3}").unwrap();
        let n = Automaton::compile(&ast).unwrap().raw_states() as usize;
        assert!(n > 2, "repeat spec should need several derivative states");
        let at_cap = Automaton::compile_with(
            &ast,
            CompileOptions {
                max_states: n,
                ..CompileOptions::default()
            },
        );
        assert!(at_cap.is_ok());
        let err = Automaton::compile_with(
            &ast,
            CompileOptions {
                max_states: n - 1,
                ..CompileOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err.kind,
            crate::SpecErrorKind::StateLimit {
                states: n - 1,
                limit: n - 1
            }
        );
    }

    /// Compiles with every optimization off: the raw ACI-deduped
    /// derivative DFA with one column per letter.
    fn compile_raw(src: &str) -> Automaton {
        Automaton::compile_with(
            &parse_spec(src).unwrap(),
            CompileOptions {
                minimize: false,
                compress_letters: false,
                ..CompileOptions::default()
            },
        )
        .unwrap()
    }

    const SPECS: &[&str] = &[
        "always(post(fac) => value >= 1)",
        "eventually(post(f))",
        "never(post(_) and value < 0)",
        "respond(pre(req), post(ack), 3)",
        "(at(a) ; at(b))* & !(any{5})",
        "always(post(sort) => not unsorted)",
        "at(a)? ; at(b){2} ; eventually(done)",
    ];

    #[test]
    fn minimized_tables_never_larger_and_agree_on_words() {
        for src in SPECS {
            let opt = compile(src);
            let raw = compile_raw(src);
            assert!(
                opt.num_states() <= raw.num_states(),
                "{src}: {} > {} states",
                opt.num_states(),
                raw.num_states()
            );
            assert!(
                opt.table_cells() <= raw.table_cells(),
                "{src}: {} > {} cells",
                opt.table_cells(),
                raw.table_cells()
            );
            assert_eq!(opt.raw_states(), raw.num_states(), "{src}");
            // Exhaustive short words: acceptance, deadness of the reached
            // state, and observation gating all agree letter-for-letter.
            let width = opt.alphabet().width();
            assert_eq!(width, raw.alphabet().width());
            let mut words: Vec<Vec<u32>> = vec![vec![]];
            for _ in 0..3 {
                let mut next = Vec::new();
                for w in &words {
                    for l in 0..width {
                        let mut w2 = w.clone();
                        w2.push(l);
                        next.push(w2);
                    }
                }
                words.extend(next);
                if words.len() > 6000 {
                    break;
                }
            }
            for w in &words {
                assert_eq!(opt.accepts_word(w), raw.accepts_word(w), "{src} {w:?}");
                let (mut so, mut sr) = (opt.start(), raw.start());
                for &l in w {
                    so = opt.step(so, l);
                    sr = raw.step(sr, l);
                }
                assert_eq!(opt.is_dead(so), raw.is_dead(sr), "{src} {w:?}");
                assert_eq!(opt.is_nullable(so), raw.is_nullable(sr), "{src} {w:?}");
            }
        }
    }

    #[test]
    fn letter_classes_partition_the_alphabet() {
        for src in SPECS {
            let aut = compile(src);
            let width = aut.alphabet().width();
            assert!(aut.num_letter_classes() <= width);
            for l in 0..width {
                assert!(aut.letter_class(l) < aut.num_letter_classes());
                // Stepping by letter and by its class agree by definition.
                for s in 0..aut.num_states() {
                    assert_eq!(aut.step(s, l), aut.step_class(s, aut.letter_class(l)));
                }
            }
        }
    }

    #[test]
    fn minimization_merges_language_equivalent_derivatives() {
        // `at(a){2} | at(a);at(a)` denotes one language; ACI normal form
        // alone keeps the two branches distinct mid-parse, but the
        // minimized DFA must be as small as the DFA of either branch.
        let merged = compile("(at(a) ; at(a)) | at(a){2}");
        let single = compile("at(a){2}");
        assert_eq!(merged.num_states(), single.num_states());
    }
}
