//! Bit-blasting of bit-vector terms to CNF, and the top-level
//! satisfiability [`Checker`].
//!
//! Every term is lowered to a vector of SAT literals (least significant
//! bit first) with Tseitin-encoded gates: ripple-carry adders for
//! addition/subtraction/comparison, shift-and-add multipliers, and
//! logarithmic barrel shifters for variable shift amounts. Uninterpreted
//! function applications receive fresh result literals plus Ackermann
//! congruence constraints (equal arguments force equal results), which is
//! how the validator handles 64-bit widening multiplication, exactly as
//! the paper does with STP.
//!
//! **Structural gate hashing.** Every gate is built from two primitives,
//! AND and XOR, and each [`Checker`] keeps one output literal per input
//! pair of each: AND on the ordered literal pair, XOR on the ordered pair
//! of the inputs' variables, the output complemented when exactly one
//! input is negative. OR, multiplexers, adders, comparators, shifters and
//! the Ackermann argument equalities all go through these two, so two
//! copies of a circuit over the same input literals become one circuit
//! (Kuehlmann et al., "Robust Boolean reasoning for equivalence checking",
//! DAC 2002). This matters for the validator's miters. Compiler output
//! at two optimization levels computes the same bits through terms the
//! term pool cannot identify, such as `extract[31:0](zero_ext64(x))`
//! against `x`, so the per-term memo misses while the bits are the same
//! literals. Built twice, such a circuit leaves the SAT solver to show
//! that the two copies agree, which took 11 555 conflicts on p19 `-O0` ≡
//! `-O2`. Built once, the miter compares a literal with itself, and the
//! query closes by unit propagation.

use crate::bv::{TermData, TermId, TermPool};
use crate::sat::{Lit, SatResult, Solver};
use std::collections::HashMap;

/// The outcome of a [`Checker::check`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// The assertions are satisfiable; a witness assignment is included.
    Sat(Model),
    /// The assertions are unsatisfiable.
    Unsat,
}

impl CheckResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, CheckResult::Sat(_))
    }
}

/// A satisfying assignment, mapping variable names to concrete values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Model {
    values: HashMap<String, u64>,
}

impl Model {
    /// The value assigned to variable `name` (zero if the variable did not
    /// occur in the query).
    pub fn value(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Iterate over all (name, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The assignment as a map, e.g. for re-evaluation with
    /// [`TermPool::eval`].
    pub fn as_env(&self) -> HashMap<String, u64> {
        self.values.clone()
    }
}

/// A bit-blasting satisfiability checker over a [`TermPool`].
pub struct Checker {
    solver: Solver,
    bits: HashMap<TermId, Vec<Lit>>,
    var_bits: HashMap<String, Vec<Lit>>,
    /// (func, args, result bits) for Ackermann expansion.
    uf_apps: Vec<(u32, Vec<TermId>, Vec<Lit>)>,
    /// How many of `uf_apps` (a prefix) already have their pairwise
    /// congruence clauses in the solver.
    uf_constrained: usize,
    /// Structural hash of AND gates: ordered input pair to output.
    and_gates: HashMap<(Lit, Lit), Lit>,
    /// Structural hash of XOR gates: ordered pair of positive inputs to
    /// output.
    xor_gates: HashMap<(Lit, Lit), Lit>,
    true_lit: Lit,
}

impl Default for Checker {
    fn default() -> Self {
        Checker::new()
    }
}

impl Checker {
    /// Create a checker with an empty clause database.
    pub fn new() -> Checker {
        let mut solver = Solver::new();
        let t = solver.new_var();
        let true_lit = t.positive();
        solver.add_clause(&[true_lit]);
        Checker {
            solver,
            bits: HashMap::new(),
            var_bits: HashMap::new(),
            uf_apps: Vec::new(),
            uf_constrained: 0,
            and_gates: HashMap::new(),
            xor_gates: HashMap::new(),
            true_lit,
        }
    }

    /// Number of SAT variables allocated so far.
    pub fn num_sat_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Number of CNF clauses generated so far.
    pub fn num_clauses(&self) -> usize {
        self.solver.num_clauses()
    }

    /// Number of conflicts the SAT solver has met so far.
    pub fn num_conflicts(&self) -> u64 {
        self.solver.num_conflicts()
    }

    fn false_lit(&self) -> Lit {
        !self.true_lit
    }

    fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            self.false_lit()
        }
    }

    fn fresh(&mut self) -> Lit {
        self.solver.new_var().positive()
    }

    /// Tseitin AND gate: returns a literal equivalent to `a ∧ b`, the same
    /// one for every call with the same two inputs.
    fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.false_lit() || b == self.false_lit() {
            return self.false_lit();
        }
        if a == self.true_lit {
            return b;
        }
        if b == self.true_lit {
            return a;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.false_lit();
        }
        let key = (a.min(b), a.max(b));
        if let Some(&o) = self.and_gates.get(&key) {
            return o;
        }
        let o = self.fresh();
        self.solver.add_clause(&[!o, a]);
        self.solver.add_clause(&[!o, b]);
        self.solver.add_clause(&[o, !a, !b]);
        self.and_gates.insert(key, o);
        o
    }

    /// Tseitin OR gate.
    fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and_gate(!a, !b)
    }

    /// Tseitin XOR gate. Since `!a ⊕ b = !(a ⊕ b)`, the gate is built
    /// over the inputs' positive literals and shared by every input pair
    /// with the same two variables; the output takes the inputs' parity.
    fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.false_lit() {
            return b;
        }
        if b == self.false_lit() {
            return a;
        }
        if a == self.true_lit {
            return !b;
        }
        if b == self.true_lit {
            return !a;
        }
        if a == b {
            return self.false_lit();
        }
        if a == !b {
            return self.true_lit;
        }
        let negated = a.is_positive() != b.is_positive();
        let (a, b) = (a.var().positive(), b.var().positive());
        let key = (a.min(b), a.max(b));
        let o = match self.xor_gates.get(&key) {
            Some(&o) => o,
            None => {
                let o = self.fresh();
                self.solver.add_clause(&[!o, a, b]);
                self.solver.add_clause(&[!o, !a, !b]);
                self.solver.add_clause(&[o, !a, b]);
                self.solver.add_clause(&[o, a, !b]);
                self.xor_gates.insert(key, o);
                o
            }
        };
        if negated {
            !o
        } else {
            o
        }
    }

    /// Tseitin multiplexer: `cond ? a : b`.
    fn ite_gate(&mut self, cond: Lit, a: Lit, b: Lit) -> Lit {
        if cond == self.true_lit {
            return a;
        }
        if cond == self.false_lit() {
            return b;
        }
        if a == b {
            return a;
        }
        let then_part = self.and_gate(cond, a);
        let else_part = self.and_gate(!cond, b);
        self.or_gate(then_part, else_part)
    }

    /// Full adder returning (sum, carry).
    fn full_adder(&mut self, a: Lit, b: Lit, c: Lit) -> (Lit, Lit) {
        let axb = self.xor_gate(a, b);
        let sum = self.xor_gate(axb, c);
        let ab = self.and_gate(a, b);
        let axb_c = self.and_gate(axb, c);
        let carry = self.or_gate(ab, axb_c);
        (sum, carry)
    }

    /// Ripple-carry addition of two bit vectors plus a carry-in; returns
    /// (sum bits, carry-out).
    fn adder(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> (Vec<Lit>, Lit) {
        debug_assert_eq!(a.len(), b.len());
        let mut out = Vec::with_capacity(a.len());
        for (x, y) in a.iter().zip(b) {
            let (s, c) = self.full_adder(*x, *y, carry);
            out.push(s);
            carry = c;
        }
        (out, carry)
    }

    /// The literal `a == b` for equal-width bit vectors.
    fn equal(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = self.true_lit;
        for (x, y) in a.iter().zip(b) {
            let ne = self.xor_gate(*x, *y);
            acc = self.and_gate(acc, !ne);
        }
        acc
    }

    /// The literal `a < b` (unsigned), computed as the carry-out of
    /// `a + ~b + 1` being 0 (i.e. borrow).
    fn ult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let nb: Vec<Lit> = b.iter().map(|l| !*l).collect();
        let (_, carry) = self.adder(a, &nb, self.true_lit);
        !carry
    }

    /// Bit-blast a term to its literal vector (LSB first). Memoized.
    fn blast(&mut self, pool: &TermPool, t: TermId) -> Vec<Lit> {
        if let Some(bits) = self.bits.get(&t) {
            return bits.clone();
        }
        let w = pool.width(t) as usize;
        let bits: Vec<Lit> = match pool.data(t).clone() {
            TermData::Const { value, .. } => (0..w)
                .map(|i| self.const_lit((value >> i) & 1 == 1))
                .collect(),
            TermData::Var { name, .. } => {
                if let Some(existing) = self.var_bits.get(&name) {
                    existing.clone()
                } else {
                    let fresh: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
                    self.var_bits.insert(name.clone(), fresh.clone());
                    fresh
                }
            }
            TermData::Not(a) => {
                let a = self.blast(pool, a);
                a.into_iter().map(|l| !l).collect()
            }
            TermData::And(a, b) => {
                let (a, b) = (self.blast(pool, a), self.blast(pool, b));
                a.iter()
                    .zip(&b)
                    .map(|(x, y)| self.and_gate(*x, *y))
                    .collect()
            }
            TermData::Or(a, b) => {
                let (a, b) = (self.blast(pool, a), self.blast(pool, b));
                a.iter()
                    .zip(&b)
                    .map(|(x, y)| self.or_gate(*x, *y))
                    .collect()
            }
            TermData::Xor(a, b) => {
                let (a, b) = (self.blast(pool, a), self.blast(pool, b));
                a.iter()
                    .zip(&b)
                    .map(|(x, y)| self.xor_gate(*x, *y))
                    .collect()
            }
            TermData::Neg(a) => {
                let a = self.blast(pool, a);
                let na: Vec<Lit> = a.iter().map(|l| !*l).collect();
                let zero = vec![self.false_lit(); w];
                let (sum, _) = self.adder(&na, &zero, self.true_lit);
                sum
            }
            TermData::Add(a, b) => {
                let (a, b) = (self.blast(pool, a), self.blast(pool, b));
                let (sum, _) = self.adder(&a, &b, self.false_lit());
                sum
            }
            TermData::Sub(a, b) => {
                let (a, b) = (self.blast(pool, a), self.blast(pool, b));
                let nb: Vec<Lit> = b.iter().map(|l| !*l).collect();
                let (sum, _) = self.adder(&a, &nb, self.true_lit);
                sum
            }
            TermData::Mul(a, b) => {
                let (a, b) = (self.blast(pool, a), self.blast(pool, b));
                // Shift-and-add: acc += (b[i] ? a << i : 0).
                let mut acc = vec![self.false_lit(); w];
                for (i, bi) in b.iter().enumerate() {
                    let shifted: Vec<Lit> = (0..w)
                        .map(|k| {
                            if k >= i {
                                self.and_gate(a[k - i], *bi)
                            } else {
                                self.false_lit()
                            }
                        })
                        .collect();
                    let (sum, _) = self.adder(&acc, &shifted, self.false_lit());
                    acc = sum;
                }
                acc
            }
            TermData::Shl(a, b) => self.barrel_shift(pool, a, b, ShiftKind::Left),
            TermData::Lshr(a, b) => self.barrel_shift(pool, a, b, ShiftKind::LogicalRight),
            TermData::Ashr(a, b) => self.barrel_shift(pool, a, b, ShiftKind::ArithmeticRight),
            TermData::Eq(a, b) => {
                let (a, b) = (self.blast(pool, a), self.blast(pool, b));
                vec![self.equal(&a, &b)]
            }
            TermData::Ult(a, b) => {
                let (a, b) = (self.blast(pool, a), self.blast(pool, b));
                vec![self.ult(&a, &b)]
            }
            TermData::Slt(a, b) => {
                // a <s b  <=>  (a xor sign) <u (b xor sign): flip sign bits.
                let (mut a, mut b) = (self.blast(pool, a), self.blast(pool, b));
                let last = a.len() - 1;
                a[last] = !a[last];
                b[last] = !b[last];
                vec![self.ult(&a, &b)]
            }
            TermData::Ite(c, a, b) => {
                let c = self.blast(pool, c)[0];
                let (a, b) = (self.blast(pool, a), self.blast(pool, b));
                a.iter()
                    .zip(&b)
                    .map(|(x, y)| self.ite_gate(c, *x, *y))
                    .collect()
            }
            TermData::Extract { hi, lo, arg } => {
                let a = self.blast(pool, arg);
                a[lo as usize..=hi as usize].to_vec()
            }
            TermData::Concat(hi, lo) => {
                let (h, l) = (self.blast(pool, hi), self.blast(pool, lo));
                let mut bits = l;
                bits.extend(h);
                bits
            }
            TermData::ZeroExt { arg, .. } => {
                let mut a = self.blast(pool, arg);
                while a.len() < w {
                    a.push(self.false_lit());
                }
                a
            }
            TermData::SignExt { arg, .. } => {
                let a = self.blast(pool, arg);
                let sign = *a.last().expect("non-empty");
                let mut bits = a;
                while bits.len() < w {
                    bits.push(sign);
                }
                bits
            }
            TermData::Uf { func, args, .. } => {
                let result: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
                // Make sure argument bits exist before recording the application.
                for a in &args {
                    let _ = self.blast(pool, *a);
                }
                self.uf_apps.push((func, args, result.clone()));
                result
            }
        };
        debug_assert_eq!(bits.len(), w);
        self.bits.insert(t, bits.clone());
        bits
    }

    fn barrel_shift(&mut self, pool: &TermPool, a: TermId, b: TermId, kind: ShiftKind) -> Vec<Lit> {
        let w = pool.width(a) as usize;
        let a_bits = self.blast(pool, a);
        let b_bits = self.blast(pool, b);
        let fill = match kind {
            ShiftKind::ArithmeticRight => *a_bits.last().expect("non-empty"),
            _ => self.false_lit(),
        };
        // Stage i shifts by 2^i if the corresponding count bit is set.
        let stages = usize::BITS - (w - 1).leading_zeros(); // ceil(log2(w))
        let mut cur = a_bits;
        for s in 0..stages {
            let amount = 1usize << s;
            let ctrl = b_bits[s as usize];
            let shifted: Vec<Lit> = (0..w)
                .map(|k| match kind {
                    ShiftKind::Left => {
                        if k >= amount {
                            cur[k - amount]
                        } else {
                            self.false_lit()
                        }
                    }
                    ShiftKind::LogicalRight | ShiftKind::ArithmeticRight => {
                        if k + amount < w {
                            cur[k + amount]
                        } else {
                            fill
                        }
                    }
                })
                .collect();
            cur = cur
                .iter()
                .zip(&shifted)
                .map(|(orig, sh)| self.ite_gate(ctrl, *sh, *orig))
                .collect();
        }
        // If any count bit >= stages is set the result is fully shifted out
        // (or all sign bits for arithmetic right shifts).
        let mut overflow = self.false_lit();
        for bit in b_bits.iter().skip(stages as usize) {
            overflow = self.or_gate(overflow, *bit);
        }
        cur.into_iter()
            .map(|l| self.ite_gate(overflow, fill, l))
            .collect()
    }

    /// Assert that a 1-bit term is true.
    pub fn assert_true(&mut self, pool: &TermPool, t: TermId) {
        assert_eq!(pool.width(t), 1, "assertions must be 1-bit terms");
        let bits = self.blast(pool, t);
        self.solver.add_clause(&[bits[0]]);
    }

    /// Apply Ackermann congruence constraints to every pair of
    /// uninterpreted function applications that involves one recorded
    /// since the last call; pairs constrained by an earlier call are not
    /// added again. A first call adds the pairs in `(i, j)` order.
    fn apply_ackermann(&mut self) {
        let apps = std::mem::take(&mut self.uf_apps);
        let done = self.uf_constrained;
        for i in 0..apps.len() {
            for j in (i + 1).max(done)..apps.len() {
                let (f1, args1, res1) = &apps[i];
                let (f2, args2, res2) = &apps[j];
                if f1 != f2 || args1.len() != args2.len() {
                    continue;
                }
                // args_equal literal.
                let mut eq_acc = self.true_lit;
                for (a1, a2) in args1.iter().zip(args2) {
                    let b1 = self.bits[a1].clone();
                    let b2 = self.bits[a2].clone();
                    let e = self.equal(&b1, &b2);
                    eq_acc = self.and_gate(eq_acc, e);
                }
                // eq_acc -> (res1 == res2), bitwise.
                for (r1, r2) in res1.iter().zip(res2) {
                    self.solver.add_clause(&[!eq_acc, !*r1, *r2]);
                    self.solver.add_clause(&[!eq_acc, *r1, !*r2]);
                }
            }
        }
        self.uf_constrained = apps.len();
        self.uf_apps = apps;
    }

    /// Check satisfiability of everything asserted so far.
    ///
    /// The pool argument is accepted for interface symmetry with
    /// [`Checker::assert_true`] (all blasting has already happened there).
    pub fn check(&mut self, _pool: &TermPool) -> CheckResult {
        self.apply_ackermann();
        match self.solver.solve() {
            SatResult::Unsat => CheckResult::Unsat,
            SatResult::Sat => {
                let mut model = Model::default();
                for (name, bits) in &self.var_bits {
                    let mut v = 0u64;
                    for (i, l) in bits.iter().enumerate() {
                        let bit = self
                            .solver
                            .value(l.var())
                            .map(|b| b == l.is_positive())
                            .unwrap_or(false);
                        if bit {
                            v |= 1 << i;
                        }
                    }
                    model.values.insert(name.clone(), v);
                }
                CheckResult::Sat(model)
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithmeticRight,
}

/// Convenience entry point: check whether the conjunction of 1-bit
/// `assertions` is satisfiable.
pub fn check(pool: &TermPool, assertions: &[TermId]) -> CheckResult {
    let mut checker = Checker::new();
    for a in assertions {
        checker.assert_true(pool, *a);
    }
    checker.check(pool)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_equation_has_model() {
        // x + 5 == 12  =>  x == 7
        let mut p = TermPool::new();
        let x = p.var(16, "x");
        let five = p.constant(16, 5);
        let twelve = p.constant(16, 12);
        let sum = p.add(x, five);
        let eq = p.eq(sum, twelve);
        match check(&p, &[eq]) {
            CheckResult::Sat(m) => assert_eq!(m.value("x"), 7),
            CheckResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut p = TermPool::new();
        let x = p.var(8, "x");
        let zero = p.constant(8, 0);
        let one = p.constant(8, 1);
        let e1 = p.eq(x, zero);
        let e2 = p.eq(x, one);
        assert_eq!(check(&p, &[e1, e2]), CheckResult::Unsat);
    }

    #[test]
    fn x_and_x_minus_1_theorem() {
        // Hacker's Delight p01: x & (x - 1) clears the lowest set bit, so
        // (x & (x-1)) & (x ^ (x & (x-1))) == 0 ... simpler canonical check:
        // prove that x & (x-1) == x - (x & -x) has no counterexample.
        let mut p = TermPool::new();
        let x = p.var(32, "x");
        let one = p.constant(32, 1);
        let xm1 = p.sub(x, one);
        let lhs = p.and(x, xm1);
        let negx = p.neg(x);
        let lowbit = p.and(x, negx);
        let rhs = p.sub(x, lowbit);
        let diff = p.ne(lhs, rhs);
        assert_eq!(
            check(&p, &[diff]),
            CheckResult::Unsat,
            "identity must hold for all x"
        );
    }

    #[test]
    fn multiplication_matches_shift_for_constant() {
        // x * 8 == x << 3 for all 16-bit x.
        let mut p = TermPool::new();
        let x = p.var(16, "x");
        let eight = p.constant(16, 8);
        let three = p.constant(16, 3);
        let lhs = p.mul(x, eight);
        let rhs = p.shl(x, three);
        let diff = p.ne(lhs, rhs);
        assert_eq!(check(&p, &[diff]), CheckResult::Unsat);
    }

    #[test]
    fn find_factorization() {
        // 6-bit factorization: x * y == 35 with x, y > 1.
        let mut p = TermPool::new();
        let x = p.var(8, "x");
        let y = p.var(8, "y");
        let prod = p.mul(x, y);
        let c35 = p.constant(8, 35);
        let one = p.constant(8, 1);
        let e = p.eq(prod, c35);
        let gx = p.ult(one, x);
        let gy = p.ult(one, y);
        // Keep the factors small so the product cannot wrap.
        let sixteen = p.constant(8, 16);
        let lx = p.ult(x, sixteen);
        let ly = p.ult(y, sixteen);
        match check(&p, &[e, gx, gy, lx, ly]) {
            CheckResult::Sat(m) => {
                let (a, b) = (m.value("x"), m.value("y"));
                assert_eq!(a * b, 35, "{} * {}", a, b);
            }
            CheckResult::Unsat => panic!("35 = 5 * 7 is factorable"),
        }
    }

    #[test]
    fn variable_shifts() {
        // (x << s) >> s == x & (0xffff >> s) for 16-bit x — check a
        // weaker but still universally quantified property:
        // ((x << s) >> s) <= x is NOT generally true; instead check
        // (x >> s) << s has its low s bits cleared: ((x >> s) << s) & 1 == 0 when s != 0.
        let mut p = TermPool::new();
        let x = p.var(16, "x");
        let s = p.var(16, "s");
        let zero = p.constant(16, 0);
        let one = p.constant(16, 1);
        let shr = p.lshr(x, s);
        let back = p.shl(shr, s);
        let low = p.and(back, one);
        let s_nonzero = p.ne(s, zero);
        let low_set = p.eq(low, one);
        assert_eq!(check(&p, &[s_nonzero, low_set]), CheckResult::Unsat);
    }

    #[test]
    fn arithmetic_shift_keeps_sign() {
        // For 8-bit x with the sign bit set, x >>a 7 == 0xff.
        let mut p = TermPool::new();
        let x = p.var(8, "x");
        let seven = p.constant(8, 7);
        let c80 = p.constant(8, 0x80);
        let cff = p.constant(8, 0xff);
        let sign = p.and(x, c80);
        let has_sign = p.eq(sign, c80);
        let shifted = p.ashr(x, seven);
        let not_ff = p.ne(shifted, cff);
        assert_eq!(check(&p, &[has_sign, not_ff]), CheckResult::Unsat);
    }

    #[test]
    fn signed_comparison_blasting() {
        // There is no 8-bit x with x <s 0 and 0 <s x.
        let mut p = TermPool::new();
        let x = p.var(8, "x");
        let zero = p.constant(8, 0);
        let a = p.slt(x, zero);
        let b = p.slt(zero, x);
        assert_eq!(check(&p, &[a, b]), CheckResult::Unsat);
        // But x <s 0 alone has a model whose sign bit is set.
        match check(&p, &[a]) {
            CheckResult::Sat(m) => assert!(m.value("x") & 0x80 != 0),
            CheckResult::Unsat => panic!("negative numbers exist"),
        }
    }

    #[test]
    fn ite_and_extract() {
        // ite(x == 0, 1, 2) extracted low bit differs from high bits.
        let mut p = TermPool::new();
        let x = p.var(8, "x");
        let zero = p.constant(8, 0);
        let one = p.constant(8, 1);
        let two = p.constant(8, 2);
        let c = p.eq(x, zero);
        let sel = p.ite(c, one, two);
        // Claim: sel is never 3.
        let three = p.constant(8, 3);
        let bad = p.eq(sel, three);
        assert_eq!(check(&p, &[bad]), CheckResult::Unsat);
        // sel == 2 implies x != 0.
        let sel_is_two = p.eq(sel, two);
        let x_is_zero = p.eq(x, zero);
        assert_eq!(check(&p, &[sel_is_two, x_is_zero]), CheckResult::Unsat);
    }

    #[test]
    fn uninterpreted_function_congruence() {
        // f(x) != f(y) and x == y is unsatisfiable (Ackermann).
        let mut p = TermPool::new();
        let x = p.var(32, "x");
        let y = p.var(32, "y");
        let fx = p.uf(7, vec![x], 32);
        let fy = p.uf(7, vec![y], 32);
        let xeqy = p.eq(x, y);
        let fneq = p.ne(fx, fy);
        assert_eq!(check(&p, &[xeqy, fneq]), CheckResult::Unsat);
        // Without x == y it is satisfiable (f is unconstrained).
        assert!(check(&p, &[fneq]).is_sat());
    }

    #[test]
    fn repeated_check_adds_no_congruence_clauses() {
        let mut p = TermPool::new();
        let x = p.var(8, "x");
        let y = p.var(8, "y");
        let fx = p.uf(3, vec![x], 8);
        let fy = p.uf(3, vec![y], 8);
        let fneq = p.ne(fx, fy);
        let mut checker = Checker::new();
        checker.assert_true(&p, fneq);
        assert!(checker.check(&p).is_sat());
        let clauses = checker.num_clauses();
        assert!(checker.check(&p).is_sat());
        assert_eq!(checker.num_clauses(), clauses);
        // A new application is constrained against the old ones only.
        let z = p.var(8, "z");
        let fz = p.uf(3, vec![z], 8);
        let xeqz = p.eq(x, z);
        let fxneqz = p.ne(fx, fz);
        checker.assert_true(&p, xeqz);
        checker.assert_true(&p, fxneqz);
        assert_eq!(checker.check(&p), CheckResult::Unsat);
    }

    #[test]
    fn model_satisfies_original_terms() {
        // Whatever model comes back must evaluate the asserted terms to 1.
        let mut p = TermPool::new();
        let x = p.var(24, "x");
        let y = p.var(24, "y");
        let xy = p.add(x, y);
        let c = p.constant(24, 0xabcdef);
        let e = p.eq(xy, c);
        let five = p.constant(24, 5);
        let ylow = p.and(y, five);
        let e2 = p.eq(ylow, five);
        match check(&p, &[e, e2]) {
            CheckResult::Sat(m) => {
                let env = m.as_env();
                assert_eq!(p.eval(e, &env), 1);
                assert_eq!(p.eval(e2, &env), 1);
            }
            CheckResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn a_circuit_built_twice_shares_its_gates() {
        // `x` and `extract[31:0](zero_ext64(x))` are distinct terms over
        // the same bits, so the two subtractors are one circuit.
        let mut p = TermPool::new();
        let x = p.var(32, "x");
        let y = p.var(32, "y");
        let wide = p.zero_ext(64, x);
        let x_again = p.extract(31, 0, wide);
        assert_ne!(x, x_again);
        let direct = p.sub(x, y);
        let roundabout = p.sub(x_again, y);
        assert_ne!(direct, roundabout);
        let mut one_copy = Checker::new();
        one_copy.blast(&p, direct);
        let differs = p.ne(direct, roundabout);
        let mut checker = Checker::new();
        checker.assert_true(&p, differs);
        assert_eq!(checker.check(&p), CheckResult::Unsat);
        assert_eq!(checker.num_conflicts(), 0);
        assert_eq!(checker.num_sat_vars(), one_copy.num_sat_vars());
    }

    #[test]
    fn xor_gates_are_shared_across_input_polarities() {
        // !a ^ b and a ^ !b are both the complement of a ^ b: one gate.
        let mut p = TermPool::new();
        let a = p.var(1, "a");
        let b = p.var(1, "b");
        let na = p.not(a);
        let nb = p.not(b);
        let left = p.xor(na, b);
        let right = p.xor(a, nb);
        let plain = p.xor(a, b);
        let mut checker = Checker::new();
        let l = checker.blast(&p, left);
        let after_one = checker.num_sat_vars();
        let r = checker.blast(&p, right);
        let x = checker.blast(&p, plain);
        assert_eq!(checker.num_sat_vars(), after_one);
        assert_eq!(l, r);
        assert_eq!(l, vec![!x[0]]);
    }

    #[test]
    fn sixty_four_bit_addition_commutes() {
        let mut p = TermPool::new();
        let x = p.var(64, "x");
        let y = p.var(64, "y");
        let a = p.add(x, y);
        let b = p.add(y, x);
        let d = p.ne(a, b);
        assert_eq!(check(&p, &[d]), CheckResult::Unsat);
    }
}
