//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! This is the decision procedure at the bottom of the validator stack,
//! standing in for the STP theorem prover used by the paper. It implements
//! the standard architecture: two-watched-literal unit propagation,
//! first-UIP conflict analysis with clause learning and non-chronological
//! backjumping, VSIDS-style branching with phase saving, and geometric
//! restarts. It has no learnt-clause minimisation, clause-database
//! reduction or preprocessing yet.
//!
//! Speed matters here. The bit-blaster's gate hashing closes the
//! compiler-output miters of `stoke-verify` without a conflict, but a
//! miter of differently built circuits still leaves the search real work
//! (the p21 paper rewrite: 487 conflicts; one p23 search rewrite that
//! rotates where the target shifts: 247 956 conflicts, 33–43 s), and every
//! `Proven` rewrite waits for one. The layout follows MiniSat (Eén and
//! Sörensson, "An Extensible SAT-solver", SAT 2003):
//!
//! - **Clause arena.** Every stored clause lives in one `Vec<Lit>`: a
//!   header whose index is the clause's length, then its literals. Watch
//!   lists and reasons hold the header's offset. Literal values sit in an
//!   array indexed by literal, so reading one is a single load.
//! - **Activity heap.** Decision variables come off a binary max-heap
//!   ordered by activity, highest first, with ties going to the lower
//!   variable index. Assigned variables leave it lazily, when they reach
//!   the top; backtracking puts unassigned ones back. Conflict analysis
//!   raises activities in place and restores the heap order once per
//!   conflict.
//! - **Allocation-free analysis.** Conflict analysis reads reason clauses
//!   in place and marks variables in a reused buffer.
//!
//! **Determinism.** The search is a function of the clauses added and
//! their order, and two rules keep it so across layout changes. First,
//! the heap's tie-break makes its top the variable a scan of all
//! unassigned variables for the highest activity, lowest index first,
//! would pick, whatever shape the heap has. Second, a clause's literals
//! stay in the order its watch swaps leave them, and conflict analysis
//! reads them in that order, so learnt clauses and activity bumps come
//! out in the same order. A change that keeps both rules keeps every
//! decision, conflict, learnt clause and model; `tests/validator_stats.rs`
//! at the workspace root pins the conflict counts of eight validator
//! queries.

use std::fmt;

/// A propositional variable, identified by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Build a literal from a variable and a polarity (`true` = positive).
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(var.0 << 1 | u32::from(!positive))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The negation of this literal.
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negated()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "x{}", self.var().0)
        } else {
            write!(f, "!x{}", self.var().0)
        }
    }
}

/// The result of a satisfiability check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found (retrieve it with
    /// [`Solver::value`]).
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
}

/// The value of a literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    True,
    False,
    Unassigned,
}

const REASON_NONE: u32 = u32::MAX;
const REASON_DECISION: u32 = u32::MAX - 1;

/// Marks a variable that is not in the [`VarHeap`].
const ABSENT: u32 = u32::MAX;

/// A binary max-heap of variables ordered by activity, highest first, with
/// ties going to the lower variable index. The order is total, so the top
/// is the same variable whatever shape the heap has.
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<u32>,
    /// position[v] = index of `v` in `heap`, or [`ABSENT`].
    position: Vec<u32>,
}

/// Whether variable `a` belongs above variable `b`.
fn before(activity: &[f64], a: u32, b: u32) -> bool {
    let (x, y) = (activity[a as usize], activity[b as usize]);
    x > y || (x == y && a < b)
}

impl VarHeap {
    fn insert(&mut self, activity: &[f64], v: u32) {
        let vi = v as usize;
        if vi >= self.position.len() {
            self.position.resize(vi + 1, ABSENT);
        }
        if self.position[vi] == ABSENT {
            self.heap.push(v);
            self.sift_up(activity, self.heap.len() - 1);
        }
    }

    /// Remove and return the top variable.
    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("the heap is not empty");
        self.position[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(activity, 0);
        }
        Some(top)
    }

    /// Restore the heap order after the activities of `raised` went up
    /// (and, if `all_changed`, after every activity was rescaled). Clears
    /// `raised`.
    ///
    /// A full rebuild costs O(n); sifting k variables up costs about
    /// k·log n. The sifts must go in ascending heap position, ancestors
    /// first. A sift moves only the variables on its path to the root,
    /// all above it, so the raised variables still waiting keep their
    /// places. Every raised ancestor has already been sifted, so each sift
    /// starts from a heap whose only disorder lies at raised variables
    /// further down. In another order a sift can pass a raised ancestor
    /// that is still waiting and leave the heap out of order below it.
    fn raised(&mut self, activity: &[f64], raised: &mut Vec<u32>, all_changed: bool) {
        let n = self.heap.len();
        let log_n = (usize::BITS - n.saturating_sub(1).leading_zeros()) as usize;
        if all_changed || raised.len() * log_n > n {
            for i in (0..n / 2).rev() {
                self.sift_down(activity, i);
            }
        } else {
            raised.retain_mut(|v| {
                *v = self.position[*v as usize];
                *v != ABSENT
            });
            raised.sort_unstable();
            for &i in raised.iter() {
                self.sift_up(activity, i as usize);
            }
        }
        raised.clear();
    }

    fn sift_up(&mut self, activity: &[f64], mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !before(activity, v, p) {
                break;
            }
            self.heap[i] = p;
            self.position[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.position[v as usize] = i as u32;
    }

    fn sift_down(&mut self, activity: &[f64], mut i: usize) {
        let v = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && before(activity, self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !before(activity, c, v) {
                break;
            }
            self.heap[i] = c;
            self.position[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.position[v as usize] = i as u32;
    }
}

/// The CDCL SAT solver.
///
/// ```
/// use stoke_solver::sat::{Solver, SatResult};
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[a.negative()]);
/// assert_eq!(s.solve(), SatResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    /// Every stored clause: a header whose index is the clause's length,
    /// then its literals. Clauses are never removed.
    arena: Vec<Lit>,
    /// watches[lit] = arena offsets of the clauses watching `lit`.
    watches: Vec<Vec<u32>>,
    /// values[lit] = the value of `lit`.
    values: Vec<Value>,
    /// Reason clause offset for each variable, or REASON_DECISION /
    /// REASON_NONE.
    reason: Vec<u32>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    propagate_head: usize,
    activity: Vec<f64>,
    activity_inc: f64,
    /// Decision candidates: every unassigned variable, and assigned ones
    /// not yet popped.
    order: VarHeap,
    phase: Vec<bool>,
    /// Conflict analysis scratch: the variables marked so far, the list
    /// of them (to clear the marks), and the learnt clause.
    seen: Vec<bool>,
    marked: Vec<u32>,
    learnt: Vec<Lit>,
    /// `add_clause` scratch: the clause being simplified.
    scratch: Vec<Lit>,
    /// Set when an empty/contradictory clause has been added.
    unsat: bool,
    /// Statistics: clauses added or learnt, including unit clauses and
    /// clauses simplified away at level 0 (which the arena never stores).
    added_clauses: usize,
    /// Statistics: number of conflicts seen.
    conflicts: u64,
    /// Statistics: number of decisions made.
    decisions: u64,
    /// Statistics: number of propagations performed.
    propagations: u64,
}

impl Solver {
    /// Create an empty solver.
    pub fn new() -> Solver {
        Solver {
            activity_inc: 1.0,
            ..Solver::default()
        }
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.level.len() as u32);
        self.values.push(Value::Unassigned);
        self.values.push(Value::Unassigned);
        self.reason.push(REASON_NONE);
        self.level.push(0);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(&self.activity, v.0);
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of clauses added (including learnt clauses). Unit clauses
    /// and clauses already decided at level 0 count too, though the solver
    /// never stores them.
    pub fn num_clauses(&self) -> usize {
        self.added_clauses
    }

    /// Number of conflicts encountered so far.
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Add a clause (a disjunction of literals).
    ///
    /// Duplicate literals are removed; a clause containing `x ∨ !x` is
    /// ignored as trivially true. Adding an empty clause makes the
    /// instance unsatisfiable. Adding a clause after [`Solver::solve`]
    /// drops the model it found.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.added_clauses += 1;
        if !self.trail_lim.is_empty() {
            self.backtrack(0);
        }
        let mut clause = std::mem::take(&mut self.scratch);
        clause.clear();
        clause.extend_from_slice(lits);
        clause.sort_unstable();
        clause.dedup();
        let tautology = clause.windows(2).any(|w| w[0].var() == w[1].var());
        // Every assignment is at level 0 here: drop the clause if a
        // literal is true, and the literals that are false.
        clause.retain(|l| self.lit_value(*l) != Value::False);
        if !tautology && !clause.iter().any(|l| self.lit_value(*l) == Value::True) {
            match clause.len() {
                0 => self.unsat = true,
                1 => {
                    if !self.enqueue(clause[0], REASON_NONE) || self.propagate().is_some() {
                        self.unsat = true;
                    }
                }
                _ => {
                    self.attach_clause(&clause);
                }
            }
        }
        self.scratch = clause;
    }

    /// Store a clause of at least two literals in the arena and watch its
    /// first two. Returns its offset.
    fn attach_clause(&mut self, lits: &[Lit]) -> u32 {
        let offset = u32::try_from(self.arena.len())
            .ok()
            .filter(|&o| o < REASON_DECISION)
            .expect("the clause arena outgrew 32-bit offsets");
        self.arena.push(Lit(lits.len() as u32));
        self.arena.extend_from_slice(lits);
        self.watches[lits[0].index()].push(offset);
        self.watches[lits[1].index()].push(offset);
        offset
    }

    fn lit_value(&self, l: Lit) -> Value {
        self.values[l.index()]
    }

    /// The value of a variable in the satisfying assignment found by the
    /// last successful [`Solver::solve`] call, or `None` if unassigned.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.lit_value(v.positive()) {
            Value::True => Some(true),
            Value::False => Some(false),
            Value::Unassigned => None,
        }
    }

    fn enqueue(&mut self, l: Lit, reason: u32) -> bool {
        match self.lit_value(l) {
            Value::True => true,
            Value::False => false,
            Value::Unassigned => {
                self.values[l.index()] = Value::True;
                self.values[(!l).index()] = Value::False;
                let v = l.var().index();
                self.reason[v] = reason;
                self.level[v] = self.trail_lim.len() as u32;
                self.phase[v] = l.is_positive();
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation. Returns the offset of a conflicting clause, if
    /// any.
    fn propagate(&mut self) -> Option<u32> {
        while self.propagate_head < self.trail.len() {
            let l = self.trail[self.propagate_head];
            self.propagate_head += 1;
            self.propagations += 1;
            let false_lit = !l;
            // Clauses watching `false_lit` must be updated.
            let mut watchers = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            'watchers: while i < watchers.len() {
                let offset = watchers[i];
                let start = offset as usize + 1;
                let len = self.arena[start - 1].0 as usize;
                let lits = &mut self.arena[start..start + len];
                // Ensure the false literal is in slot 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let w0 = lits[0];
                if self.values[w0.index()] == Value::True {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..len {
                    let cand = lits[k];
                    if self.values[cand.index()] != Value::False {
                        lits.swap(1, k);
                        self.watches[cand.index()].push(offset);
                        watchers.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                if !self.enqueue(w0, offset) {
                    // Conflict: restore remaining watchers.
                    self.watches[false_lit.index()] = watchers;
                    return Some(offset);
                }
                i += 1;
            }
            self.watches[false_lit.index()] = watchers;
        }
        None
    }

    /// Raise a variable's activity. Returns whether every activity was
    /// rescaled to keep them finite.
    fn bump_activity(&mut self, v: usize) -> bool {
        self.activity[v] += self.activity_inc;
        if self.activity[v] <= 1e100 {
            return false;
        }
        for a in &mut self.activity {
            *a *= 1e-100;
        }
        self.activity_inc *= 1e-100;
        true
    }

    fn decay_activity(&mut self) {
        self.activity_inc /= 0.95;
    }

    /// First-UIP conflict analysis. Leaves the learnt clause in
    /// `self.learnt`, with the asserting literal first, and returns the
    /// backjump level.
    fn analyze(&mut self, conflict: u32) -> u32 {
        let current_level = self.trail_lim.len() as u32;
        self.learnt.clear();
        // Slot for the asserting literal, filled in last.
        self.learnt.push(Lit(0));
        let mut counter = 0usize;
        let mut resolved: Option<Lit> = None;
        let mut offset = conflict as usize;
        let mut trail_pos = self.trail.len();
        let mut rescaled = false;

        loop {
            let len = self.arena[offset].0 as usize;
            for k in offset + 1..=offset + len {
                let l = self.arena[k];
                let v = l.var().index();
                if Some(l) == resolved || self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                self.seen[v] = true;
                self.marked.push(v as u32);
                rescaled |= self.bump_activity(v);
                if self.level[v] == current_level {
                    counter += 1;
                } else {
                    self.learnt.push(l);
                }
            }
            // Find the next literal on the trail to resolve on.
            let l = loop {
                trail_pos -= 1;
                let l = self.trail[trail_pos];
                if self.seen[l.var().index()] {
                    break l;
                }
            };
            self.seen[l.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                self.learnt[0] = !l;
                break;
            }
            resolved = Some(l);
            let reason = self.reason[l.var().index()];
            debug_assert!(
                reason < REASON_DECISION,
                "resolved literal must have a reason"
            );
            offset = reason as usize;
        }

        for &v in &self.marked {
            self.seen[v as usize] = false;
        }
        self.order
            .raised(&self.activity, &mut self.marked, rescaled);
        // Backjump level = second highest level in the learnt clause.
        self.learnt[1..]
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0)
    }

    fn backtrack(&mut self, level: u32) {
        if let Some(&lim) = self.trail_lim.get(level as usize) {
            for l in self.trail.drain(lim..) {
                self.values[l.index()] = Value::Unassigned;
                self.values[(!l).index()] = Value::Unassigned;
                self.order.insert(&self.activity, l.var().0);
            }
            self.trail_lim.truncate(level as usize);
        }
        self.propagate_head = self.trail.len();
    }

    /// The unassigned variable of highest activity, lowest index first.
    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.value(Var(v)).is_none() {
                return Some(Var(v));
            }
        }
        None
    }

    /// Decide satisfiability of the clause set added so far.
    ///
    /// After `Sat`, the satisfying assignment is available through
    /// [`Solver::value`]. The solver may be reused: additional clauses can
    /// be added afterwards (incremental use), which restarts the search.
    pub fn solve(&mut self) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }
        let mut conflicts_until_restart = 100u64;
        let mut conflicts_this_restart = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                conflicts_this_restart += 1;
                if self.trail_lim.is_empty() {
                    self.unsat = true;
                    return SatResult::Unsat;
                }
                let backjump = self.analyze(conflict);
                self.added_clauses += 1;
                self.backtrack(backjump);
                self.decay_activity();
                let learnt = std::mem::take(&mut self.learnt);
                let reason = if learnt.len() == 1 {
                    REASON_NONE
                } else {
                    self.attach_clause(&learnt)
                };
                let ok = self.enqueue(learnt[0], reason);
                debug_assert!(ok);
                self.learnt = learnt;
            } else if conflicts_this_restart >= conflicts_until_restart {
                // Restart: keep learnt clauses, drop the partial assignment.
                conflicts_this_restart = 0;
                conflicts_until_restart = (conflicts_until_restart * 3) / 2;
                self.backtrack(0);
            } else {
                match self.pick_branch_var() {
                    None => return SatResult::Sat,
                    Some(v) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = Lit::new(v, self.phase[v.index()]);
                        let ok = self.enqueue(lit, REASON_DECISION);
                        debug_assert!(ok);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, vars: &mut Vec<Var>, i: i32) -> Lit {
        let idx = i.unsigned_abs() as usize;
        while vars.len() <= idx {
            vars.push(s.new_var());
        }
        Lit::new(vars[idx], i > 0)
    }

    fn add(s: &mut Solver, vars: &mut Vec<Var>, clause: &[i32]) {
        let lits: Vec<Lit> = clause.iter().map(|i| lit(s, vars, *i)).collect();
        s.add_clause(&lits);
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let mut v = Vec::new();
        add(&mut s, &mut v, &[1, 2]);
        add(&mut s, &mut v, &[-1]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v[2]), Some(true));

        let mut s = Solver::new();
        let mut v = Vec::new();
        add(&mut s, &mut v, &[1]);
        add(&mut s, &mut v, &[-1]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.add_clause(&[]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn no_clauses_is_sat() {
        let mut s = Solver::new();
        s.new_var();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: classic small UNSAT instance that requires
        // actual search (not just unit propagation).
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        // Each pigeon in some hole.
        for pigeon in &p {
            s.add_clause(&[pigeon[0].positive(), pigeon[1].positive()]);
        }
        // No two pigeons share a hole.
        for h in 0..2 {
            for (i, pi) in p.iter().enumerate() {
                for pj in &p[i + 1..] {
                    s.add_clause(&[pi[h].negative(), pj[h].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn chain_of_implications() {
        // x0 -> x1 -> ... -> x49, x0 forced true, all must be true.
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..50).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(&[w[0].negative(), w[1].positive()]);
        }
        s.add_clause(&[vars[0].positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        for v in &vars {
            assert_eq!(s.value(*v), Some(true));
        }
    }

    #[test]
    fn xor_chain_parity() {
        // Encode x0 ^ x1 ^ x2 = 1 via CNF and check a model satisfies it.
        let mut s = Solver::new();
        let x: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        let t = s.new_var(); // t = x0 ^ x1
                             // t <-> x0 xor x1
        s.add_clause(&[t.negative(), x[0].positive(), x[1].positive()]);
        s.add_clause(&[t.negative(), x[0].negative(), x[1].negative()]);
        s.add_clause(&[t.positive(), x[0].negative(), x[1].positive()]);
        s.add_clause(&[t.positive(), x[0].positive(), x[1].negative()]);
        // t xor x2 = 1  <=>  t <-> !x2
        s.add_clause(&[t.positive(), x[2].positive()]);
        s.add_clause(&[t.negative(), x[2].negative()]);
        assert_eq!(s.solve(), SatResult::Sat);
        let m: Vec<bool> = x.iter().map(|v| s.value(*v).unwrap()).collect();
        assert!(m[0] ^ m[1] ^ m[2]);
    }

    #[test]
    fn tautological_and_duplicate_clauses_ignored() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a.positive(), a.negative()]);
        s.add_clause(&[a.positive(), a.positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn incremental_use_after_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        // Force a contradiction afterwards.
        s.add_clause(&[a.negative()]);
        s.add_clause(&[b.negative()]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn random_3sat_satisfiable_instances() {
        // Planted-solution random 3-SAT: always satisfiable, and the solver
        // must find some model.
        let mut seed = 0x12345678u64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..10 {
            let n = 30usize;
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            let planted: Vec<bool> = (0..n).map(|_| rand() & 1 == 1).collect();
            for _ in 0..120 {
                let mut clause = Vec::new();
                // Ensure at least one literal agrees with the planted model.
                let forced = (rand() as usize) % n;
                clause.push(Lit::new(vars[forced], planted[forced]));
                for _ in 0..2 {
                    let v = (rand() as usize) % n;
                    clause.push(Lit::new(vars[v], rand() & 1 == 1));
                }
                s.add_clause(&clause);
            }
            assert_eq!(s.solve(), SatResult::Sat);
            // Every stored clause must be satisfied by the reported model.
            let mut at = 0;
            while at < s.arena.len() {
                let len = s.arena[at].0 as usize;
                let clause = &s.arena[at + 1..=at + len];
                assert!(clause.iter().any(|l| s.lit_value(*l) == Value::True));
                at += 1 + len;
            }
        }
    }

    #[test]
    fn unit_clause_added_after_sat_is_kept() {
        // The model of the first solve sets b; the unit !b added afterwards
        // must be simplified against level 0 only, not that model.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        s.add_clause(&[b.negative()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!((s.value(a), s.value(b)), (Some(true), Some(false)));
    }

    #[test]
    fn heap_pops_in_scan_order_after_raises() {
        // Random activities with many ties; raise random subsets, restore
        // the order both ways, and pop everything: the sequence must be
        // activity descending, index ascending, as a scan would pick.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..200 {
            let n = 1 + (rand() % 300) as usize;
            let mut activity: Vec<f64> = (0..n).map(|_| (rand() % 8) as f64).collect();
            let mut heap = VarHeap::default();
            for v in 0..n as u32 {
                heap.insert(&activity, v);
            }
            let k = (rand() as usize) % (n + 1);
            let mut raised: Vec<u32> = Vec::new();
            for v in 0..n as u32 {
                if raised.len() < k && rand() % 2 == 0 {
                    activity[v as usize] += (rand() % 4) as f64;
                    raised.push(v);
                }
            }
            heap.raised(&activity, &mut raised, round % 2 == 0);
            assert!(raised.is_empty());
            let popped: Vec<u32> = std::iter::from_fn(|| heap.pop(&activity)).collect();
            let mut expected: Vec<u32> = (0..n as u32).collect();
            expected.sort_by(|&a, &b| {
                activity[b as usize]
                    .total_cmp(&activity[a as usize])
                    .then(a.cmp(&b))
            });
            assert_eq!(popped, expected);
        }
    }
}
