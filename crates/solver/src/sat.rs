//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! This is the decision procedure at the bottom of the validator stack,
//! standing in for the STP theorem prover used by the paper. It implements
//! the standard modern architecture: two-watched-literal unit propagation,
//! first-UIP conflict analysis with clause learning and non-chronological
//! backjumping, VSIDS-style branching with phase saving, and geometric
//! restarts. The solver is deliberately free of heuristic bells and
//! whistles (no clause-database reduction, no preprocessing): the
//! equivalence queries produced by `stoke-verify` are small enough that
//! correctness and clarity matter more than raw speed.

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    True,
    False,
    Unassigned,
}

impl Value {
    fn from_bool(b: bool) -> Value {
        if b {
            Value::True
        } else {
            Value::False
        }
    }
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    /// Whether the clause was learnt during conflict analysis (kept for
    /// statistics and a future clause-database reduction pass).
    #[allow(dead_code)]
    learnt: bool,
}

const REASON_NONE: u32 = u32::MAX;
const REASON_DECISION: u32 = u32::MAX - 1;

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
    clauses: Vec<Clause>,
    /// watches[lit] = clause indices watching `lit`.
    watches: Vec<Vec<u32>>,
    assign: Vec<Value>,
    /// Reason clause index for each variable, or REASON_DECISION / REASON_NONE.
    reason: Vec<u32>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    propagate_head: usize,
    activity: Vec<f64>,
    activity_inc: f64,
    phase: Vec<bool>,
    /// Set when an empty/contradictory clause has been added.
    unsat: bool,
    /// Statistics: clauses added or learnt, including unit clauses and
    /// clauses simplified away at level 0 (which `clauses` never stores).
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
        let v = Var(self.assign.len() as u32);
        self.assign.push(Value::Unassigned);
        self.reason.push(REASON_NONE);
        self.level.push(0);
        self.activity.push(0.0);
        self.phase.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
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
    /// instance unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.added_clauses += 1;
        debug_assert_eq!(
            self.trail_lim.len(),
            0,
            "clauses must be added at decision level 0"
        );
        let mut lits: Vec<Lit> = lits.to_vec();
        lits.sort_unstable();
        lits.dedup();
        // Tautology?
        for w in lits.windows(2) {
            if w[0].var() == w[1].var() {
                return;
            }
        }
        // Remove literals already false at level 0; drop clause if any
        // literal is already true at level 0.
        lits.retain(|l| self.lit_value(*l) != Value::False || self.level[l.var().index()] != 0);
        if lits
            .iter()
            .any(|l| self.lit_value(*l) == Value::True && self.level[l.var().index()] == 0)
        {
            return;
        }
        match lits.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(lits[0], REASON_NONE) || self.propagate().is_some() {
                    self.unsat = true;
                }
            }
            _ => {
                self.attach_clause(Clause {
                    lits,
                    learnt: false,
                });
            }
        }
    }

    fn attach_clause(&mut self, clause: Clause) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[clause.lits[0].index()].push(idx);
        self.watches[clause.lits[1].index()].push(idx);
        self.clauses.push(clause);
        idx
    }

    fn lit_value(&self, l: Lit) -> Value {
        match self.assign[l.var().index()] {
            Value::Unassigned => Value::Unassigned,
            Value::True => Value::from_bool(l.is_positive()),
            Value::False => Value::from_bool(!l.is_positive()),
        }
    }

    /// The value of a variable in the satisfying assignment found by the
    /// last successful [`Solver::solve`] call, or `None` if unassigned.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assign[v.index()] {
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
                let v = l.var().index();
                self.assign[v] = Value::from_bool(l.is_positive());
                self.reason[v] = reason;
                self.level[v] = self.trail_lim.len() as u32;
                self.phase[v] = l.is_positive();
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation. Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.propagate_head < self.trail.len() {
            let l = self.trail[self.propagate_head];
            self.propagate_head += 1;
            self.propagations += 1;
            let false_lit = !l;
            // Clauses watching `false_lit` must be updated.
            let mut watchers = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < watchers.len() {
                let ci = watchers[i];
                // Ensure the false literal is in slot 1.
                let (w0, w1) = {
                    let c = &mut self.clauses[ci as usize];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    (c.lits[0], c.lits[1])
                };
                debug_assert_eq!(w1, false_lit);
                if self.lit_value(w0) == Value::True {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                let len = self.clauses[ci as usize].lits.len();
                for k in 2..len {
                    let cand = self.clauses[ci as usize].lits[k];
                    if self.lit_value(cand) != Value::False {
                        self.clauses[ci as usize].lits.swap(1, k);
                        self.watches[cand.index()].push(ci);
                        watchers.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if !self.enqueue(w0, ci) {
                    // Conflict: restore remaining watchers.
                    self.watches[false_lit.index()] = watchers;
                    return Some(ci);
                }
                i += 1;
            }
            self.watches[false_lit.index()] = watchers;
        }
        None
    }

    fn bump_activity(&mut self, v: Var) {
        self.activity[v.index()] += self.activity_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.activity_inc *= 1e-100;
        }
    }

    fn decay_activity(&mut self) {
        self.activity_inc /= 0.95;
    }

    /// First-UIP conflict analysis. Returns the learnt clause (with the
    /// asserting literal first) and the backjump level.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut asserting = None;
        let mut clause_idx = conflict;
        let mut trail_pos = self.trail.len();
        let current_level = self.trail_lim.len() as u32;

        loop {
            let reason_lits: Vec<Lit> = match asserting {
                None => self.clauses[clause_idx as usize].lits.clone(),
                Some(l) => {
                    let lits = self.clauses[clause_idx as usize].lits.clone();
                    lits.into_iter().filter(|x| *x != l).collect()
                }
            };
            for l in reason_lits {
                let v = l.var();
                if seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                seen[v.index()] = true;
                self.bump_activity(v);
                if self.level[v.index()] == current_level {
                    counter += 1;
                } else {
                    learnt.push(l);
                }
            }
            // Find the next literal on the trail to resolve on.
            loop {
                trail_pos -= 1;
                let l = self.trail[trail_pos];
                if seen[l.var().index()] {
                    asserting = Some(l);
                    break;
                }
            }
            let l = asserting.unwrap();
            seen[l.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt.insert(0, !l);
                break;
            }
            clause_idx = self.reason[l.var().index()];
            debug_assert!(
                clause_idx < REASON_DECISION,
                "resolved literal must have a reason"
            );
        }

        // Backjump level = second highest level in the learnt clause.
        let backjump = learnt[1..]
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);
        (learnt, backjump)
    }

    fn backtrack(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = l.var().index();
                self.assign[v] = Value::Unassigned;
                self.reason[v] = REASON_NONE;
            }
        }
        self.propagate_head = self.trail.len().min(self.propagate_head);
        self.propagate_head = self.trail.len();
    }

    fn pick_branch_var(&self) -> Option<Var> {
        let mut best: Option<(f64, Var)> = None;
        for (i, val) in self.assign.iter().enumerate() {
            if *val == Value::Unassigned {
                let act = self.activity[i];
                if best.is_none_or(|(a, _)| act > a) {
                    best = Some((act, Var(i as u32)));
                }
            }
        }
        best.map(|(_, v)| v)
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
                let (learnt, backjump) = self.analyze(conflict);
                self.added_clauses += 1;
                self.backtrack(backjump);
                self.decay_activity();
                if learnt.len() == 1 {
                    let ok = self.enqueue(learnt[0], REASON_NONE);
                    debug_assert!(ok);
                } else {
                    let ci = self.attach_clause(Clause {
                        lits: learnt.clone(),
                        learnt: true,
                    });
                    let ok = self.enqueue(learnt[0], ci);
                    debug_assert!(ok);
                }
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
        s.backtrack(0);
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
            // Every clause must be satisfied by the reported model.
            for c in &s.clauses {
                assert!(c.lits.iter().any(|l| s.lit_value(*l) == Value::True));
            }
        }
    }
}
