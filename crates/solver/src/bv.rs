//! A quantifier-free bit-vector term language (the `QF_BV` fragment the
//! validator needs), with hash-consing, constant folding and a concrete
//! evaluator.
//!
//! Terms are built through a [`TermPool`]; the pool owns every term and
//! returns small copyable [`TermId`] handles. Widths range from 1 to 64
//! bits; 1-bit terms double as booleans (`0` = false, `1` = true).

use std::collections::HashMap;
use std::fmt;

/// A handle to a term stored in a [`TermPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The structure of a term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermData {
    /// A constant of the given width.
    Const {
        /// Bit width (1..=64).
        width: u32,
        /// Value, truncated to `width` bits.
        value: u64,
    },
    /// A free variable.
    Var {
        /// Bit width (1..=64).
        width: u32,
        /// Unique name (used for model extraction).
        name: String,
    },
    /// Bitwise complement.
    Not(TermId),
    /// Bitwise conjunction.
    And(TermId, TermId),
    /// Bitwise disjunction.
    Or(TermId, TermId),
    /// Bitwise exclusive or.
    Xor(TermId, TermId),
    /// Two's complement negation.
    Neg(TermId),
    /// Modular addition.
    Add(TermId, TermId),
    /// Modular subtraction.
    Sub(TermId, TermId),
    /// Modular multiplication (low half).
    Mul(TermId, TermId),
    /// Logical left shift by a (same width) amount.
    Shl(TermId, TermId),
    /// Logical right shift.
    Lshr(TermId, TermId),
    /// Arithmetic right shift.
    Ashr(TermId, TermId),
    /// Equality (1-bit result).
    Eq(TermId, TermId),
    /// Unsigned less-than (1-bit result).
    Ult(TermId, TermId),
    /// Signed less-than (1-bit result).
    Slt(TermId, TermId),
    /// If-then-else on a 1-bit condition.
    Ite(TermId, TermId, TermId),
    /// Bit extraction `[hi:lo]` (inclusive); result width `hi - lo + 1`.
    Extract {
        /// High bit index (inclusive).
        hi: u32,
        /// Low bit index (inclusive).
        lo: u32,
        /// Source term.
        arg: TermId,
    },
    /// Concatenation; `hi` occupies the upper bits.
    Concat(TermId, TermId),
    /// Zero extension to `width`.
    ZeroExt {
        /// Target width.
        width: u32,
        /// Source term.
        arg: TermId,
    },
    /// Sign extension to `width`.
    SignExt {
        /// Target width.
        width: u32,
        /// Source term.
        arg: TermId,
    },
    /// Application of an uninterpreted function (used for 64-bit widening
    /// multiplication, following §5.2 of the paper).
    Uf {
        /// Function identifier (same id ⇒ same function).
        func: u32,
        /// Argument terms.
        args: Vec<TermId>,
        /// Result width.
        width: u32,
    },
}

/// An arena of hash-consed terms.
#[derive(Debug, Default)]
pub struct TermPool {
    terms: Vec<TermData>,
    widths: Vec<u32>,
    dedup: HashMap<TermData, TermId>,
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

fn sext(width: u32, value: u64) -> i64 {
    let shift = 64 - width;
    ((value << shift) as i64) >> shift
}

impl TermPool {
    /// Create an empty pool.
    pub fn new() -> TermPool {
        TermPool::default()
    }

    /// Number of distinct terms in the pool.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The structure of a term.
    pub fn data(&self, t: TermId) -> &TermData {
        &self.terms[t.index()]
    }

    /// The width of a term in bits.
    pub fn width(&self, t: TermId) -> u32 {
        self.widths[t.index()]
    }

    fn intern(&mut self, data: TermData, width: u32) -> TermId {
        if let Some(id) = self.dedup.get(&data) {
            return *id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(data.clone());
        self.widths.push(width);
        self.dedup.insert(data, id);
        id
    }

    /// A constant of the given width.
    pub fn constant(&mut self, width: u32, value: u64) -> TermId {
        assert!((1..=64).contains(&width), "width {} out of range", width);
        self.intern(
            TermData::Const {
                width,
                value: value & mask(width),
            },
            width,
        )
    }

    /// A fresh or existing variable of the given width and name. Variables
    /// are identified by name: requesting the same name twice returns the
    /// same term (the width must match).
    pub fn var(&mut self, width: u32, name: impl Into<String>) -> TermId {
        assert!((1..=64).contains(&width), "width {} out of range", width);
        let name = name.into();
        let id = self.intern(TermData::Var { width, name }, width);
        assert_eq!(
            self.width(id),
            width,
            "variable redeclared at a different width"
        );
        id
    }

    /// The 1-bit constant true.
    pub fn tru(&mut self) -> TermId {
        self.constant(1, 1)
    }

    /// The 1-bit constant false.
    pub fn fals(&mut self) -> TermId {
        self.constant(1, 0)
    }

    fn const_value(&self, t: TermId) -> Option<u64> {
        match self.data(t) {
            TermData::Const { value, .. } => Some(*value),
            _ => None,
        }
    }

    fn binary_same_width(&self, a: TermId, b: TermId) -> u32 {
        let w = self.width(a);
        assert_eq!(w, self.width(b), "operand widths must match");
        w
    }

    /// Bitwise complement.
    pub fn not(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(v) = self.const_value(a) {
            return self.constant(w, !v);
        }
        self.intern(TermData::Not(a), w)
    }

    /// Bitwise conjunction.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binary_same_width(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.constant(w, x & y),
            (Some(0), _) | (_, Some(0)) => self.constant(w, 0),
            (Some(m), _) if m == mask(w) => b,
            (_, Some(m)) if m == mask(w) => a,
            _ => self.intern(TermData::And(a, b), w),
        }
    }

    /// Bitwise disjunction.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binary_same_width(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.constant(w, x | y),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            (Some(m), _) | (_, Some(m)) if m == mask(w) => self.constant(w, mask(w)),
            _ => self.intern(TermData::Or(a, b), w),
        }
    }

    /// Bitwise exclusive or.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binary_same_width(a, b);
        if a == b {
            return self.constant(w, 0);
        }
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.constant(w, x ^ y),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            _ => self.intern(TermData::Xor(a, b), w),
        }
    }

    /// Two's complement negation.
    pub fn neg(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(v) = self.const_value(a) {
            return self.constant(w, v.wrapping_neg());
        }
        self.intern(TermData::Neg(a), w)
    }

    /// Modular addition.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binary_same_width(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.constant(w, x.wrapping_add(y)),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            _ => self.intern(TermData::Add(a, b), w),
        }
    }

    /// Modular subtraction.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binary_same_width(a, b);
        if a == b {
            return self.constant(w, 0);
        }
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.constant(w, x.wrapping_sub(y)),
            (_, Some(0)) => a,
            _ => self.intern(TermData::Sub(a, b), w),
        }
    }

    /// Modular multiplication (low `width` bits).
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binary_same_width(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.constant(w, x.wrapping_mul(y)),
            (Some(0), _) | (_, Some(0)) => self.constant(w, 0),
            (Some(1), _) => b,
            (_, Some(1)) => a,
            _ => self.intern(TermData::Mul(a, b), w),
        }
    }

    /// Logical left shift (`a << b`), where `b` has the same width.
    pub fn shl(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binary_same_width(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => {
                let r = if y >= u64::from(w) { 0 } else { x << y };
                self.constant(w, r)
            }
            (_, Some(0)) => a,
            _ => self.intern(TermData::Shl(a, b), w),
        }
    }

    /// Logical right shift.
    pub fn lshr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binary_same_width(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => {
                let r = if y >= u64::from(w) {
                    0
                } else {
                    (x & mask(w)) >> y
                };
                self.constant(w, r)
            }
            (_, Some(0)) => a,
            _ => self.intern(TermData::Lshr(a, b), w),
        }
    }

    /// Arithmetic right shift.
    pub fn ashr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binary_same_width(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => {
                let sx = sext(w, x);
                let shift = y.min(u64::from(w - 1)) as u32;
                self.constant(w, (sx >> shift) as u64)
            }
            (_, Some(0)) => a,
            _ => self.intern(TermData::Ashr(a, b), w),
        }
    }

    /// Equality (1-bit result).
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary_same_width(a, b);
        if a == b {
            return self.tru();
        }
        if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
            return self.constant(1, u64::from(x == y));
        }
        self.intern(TermData::Eq(a, b), 1)
    }

    /// Disequality (1-bit result).
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-than (1-bit result).
    pub fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary_same_width(a, b);
        if a == b {
            return self.fals();
        }
        if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
            return self.constant(1, u64::from(x < y));
        }
        self.intern(TermData::Ult(a, b), 1)
    }

    /// Unsigned less-or-equal.
    pub fn ule(&mut self, a: TermId, b: TermId) -> TermId {
        let gt = self.ult(b, a);
        self.not(gt)
    }

    /// Signed less-than (1-bit result).
    pub fn slt(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binary_same_width(a, b);
        if a == b {
            return self.fals();
        }
        if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
            return self.constant(1, u64::from(sext(w, x) < sext(w, y)));
        }
        self.intern(TermData::Slt(a, b), 1)
    }

    /// If-then-else on a 1-bit condition.
    pub fn ite(&mut self, cond: TermId, then: TermId, els: TermId) -> TermId {
        assert_eq!(self.width(cond), 1, "ite condition must be 1 bit wide");
        let w = self.binary_same_width(then, els);
        if then == els {
            return then;
        }
        match self.const_value(cond) {
            Some(1) => then,
            Some(0) => els,
            _ => self.intern(TermData::Ite(cond, then, els), w),
        }
    }

    /// Extract bits `[hi:lo]` (inclusive).
    pub fn extract(&mut self, hi: u32, lo: u32, arg: TermId) -> TermId {
        let w = self.width(arg);
        assert!(
            hi >= lo && hi < w,
            "bad extract [{}:{}] of width {}",
            hi,
            lo,
            w
        );
        let out_w = hi - lo + 1;
        if lo == 0 && out_w == w {
            return arg;
        }
        if let Some(v) = self.const_value(arg) {
            return self.constant(out_w, (v >> lo) & mask(out_w));
        }
        self.intern(TermData::Extract { hi, lo, arg }, out_w)
    }

    /// Concatenate `hi` above `lo`.
    pub fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let w = self.width(hi) + self.width(lo);
        assert!(w <= 64, "concatenation width {} exceeds 64 bits", w);
        if let (Some(h), Some(l)) = (self.const_value(hi), self.const_value(lo)) {
            return self.constant(w, (h << self.width(lo)) | l);
        }
        self.intern(TermData::Concat(hi, lo), w)
    }

    /// Zero-extend to `width`.
    pub fn zero_ext(&mut self, width: u32, arg: TermId) -> TermId {
        let aw = self.width(arg);
        assert!(width >= aw && width <= 64);
        if width == aw {
            return arg;
        }
        if let Some(v) = self.const_value(arg) {
            return self.constant(width, v);
        }
        self.intern(TermData::ZeroExt { width, arg }, width)
    }

    /// Sign-extend to `width`.
    pub fn sign_ext(&mut self, width: u32, arg: TermId) -> TermId {
        let aw = self.width(arg);
        assert!(width >= aw && width <= 64);
        if width == aw {
            return arg;
        }
        if let Some(v) = self.const_value(arg) {
            return self.constant(width, (sext(aw, v) as u64) & mask(width));
        }
        self.intern(TermData::SignExt { width, arg }, width)
    }

    /// Apply an uninterpreted function.
    pub fn uf(&mut self, func: u32, args: Vec<TermId>, width: u32) -> TermId {
        assert!((1..=64).contains(&width));
        self.intern(TermData::Uf { func, args, width }, width)
    }

    /// Boolean conjunction of 1-bit terms.
    pub fn bool_and(&mut self, terms: &[TermId]) -> TermId {
        let mut acc = self.tru();
        for t in terms {
            assert_eq!(self.width(*t), 1);
            acc = self.and(acc, *t);
        }
        acc
    }

    /// Boolean disjunction of 1-bit terms.
    pub fn bool_or(&mut self, terms: &[TermId]) -> TermId {
        let mut acc = self.fals();
        for t in terms {
            assert_eq!(self.width(*t), 1);
            acc = self.or(acc, *t);
        }
        acc
    }

    /// Concretely evaluate a term under an assignment of variable names to
    /// values. Uninterpreted functions are evaluated with a fixed
    /// deterministic hash-mix of their arguments (the same inputs always
    /// produce the same output, as the paper's validator assumes).
    ///
    /// # Panics
    /// Panics if a variable the term depends on is missing from `env`.
    pub fn eval(&self, t: TermId, env: &HashMap<String, u64>) -> u64 {
        self.eval_with(t, |name| {
            *env.get(name).unwrap_or_else(|| {
                panic!("variable '{}' missing from evaluation environment", name)
            })
        })
    }

    /// [`TermPool::eval`] with each variable's value, by name, taken from
    /// `value_of` (and truncated to the variable's width).
    ///
    /// Terms are interned after their arguments, so one pass in creation
    /// order over the terms `t` depends on evaluates each of them once,
    /// however much of the DAG is shared.
    pub fn eval_with(&self, t: TermId, mut value_of: impl FnMut(&str) -> u64) -> u64 {
        let last = t.index();
        let mut needed = vec![false; last + 1];
        needed[last] = true;
        for i in (0..=last).rev() {
            if needed[i] {
                self.for_each_arg(i, |a| needed[a.index()] = true);
            }
        }
        let mut values = vec![0u64; last + 1];
        for i in (0..=last).filter(|&i| needed[i]) {
            let val = |a: &TermId| values[a.index()];
            let width = |a: &TermId| self.widths[a.index()];
            let w = self.widths[i];
            let v = match &self.terms[i] {
                TermData::Const { value, .. } => *value,
                TermData::Var { name, .. } => value_of(name),
                TermData::Not(a) => !val(a),
                TermData::And(a, b) => val(a) & val(b),
                TermData::Or(a, b) => val(a) | val(b),
                TermData::Xor(a, b) => val(a) ^ val(b),
                TermData::Neg(a) => val(a).wrapping_neg(),
                TermData::Add(a, b) => val(a).wrapping_add(val(b)),
                TermData::Sub(a, b) => val(a).wrapping_sub(val(b)),
                TermData::Mul(a, b) => val(a).wrapping_mul(val(b)),
                TermData::Shl(a, b) => {
                    if val(b) >= u64::from(w) {
                        0
                    } else {
                        val(a) << val(b)
                    }
                }
                TermData::Lshr(a, b) => {
                    if val(b) >= u64::from(w) {
                        0
                    } else {
                        val(a) >> val(b)
                    }
                }
                TermData::Ashr(a, b) => {
                    let shift = val(b).min(u64::from(w - 1)) as u32;
                    (sext(w, val(a)) >> shift) as u64
                }
                TermData::Eq(a, b) => u64::from(val(a) == val(b)),
                TermData::Ult(a, b) => u64::from(val(a) < val(b)),
                TermData::Slt(a, b) => {
                    let wa = width(a);
                    u64::from(sext(wa, val(a)) < sext(wa, val(b)))
                }
                TermData::Ite(c, a, b) => {
                    if val(c) & 1 == 1 {
                        val(a)
                    } else {
                        val(b)
                    }
                }
                TermData::Extract { lo, arg, .. } => val(arg) >> lo,
                TermData::Concat(hi, lo) => (val(hi) << width(lo)) | val(lo),
                TermData::ZeroExt { arg, .. } => val(arg),
                TermData::SignExt { arg, .. } => sext(width(arg), val(arg)) as u64,
                TermData::Uf { func, args, .. } => {
                    // A deterministic pseudo-random function of the arguments.
                    let mut h =
                        0x9e37_79b9_7f4a_7c15u64 ^ u64::from(*func).wrapping_mul(0xff51_afd7);
                    for a in args {
                        h ^= val(a).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
                        h = h.rotate_left(31).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    }
                    h
                }
            };
            values[i] = v & mask(w);
        }
        values[last]
    }

    /// Call `f` on each argument of the term at `index`.
    fn for_each_arg(&self, index: usize, mut f: impl FnMut(TermId)) {
        match &self.terms[index] {
            TermData::Const { .. } | TermData::Var { .. } => {}
            TermData::Not(a)
            | TermData::Neg(a)
            | TermData::Extract { arg: a, .. }
            | TermData::ZeroExt { arg: a, .. }
            | TermData::SignExt { arg: a, .. } => f(*a),
            TermData::And(a, b)
            | TermData::Or(a, b)
            | TermData::Xor(a, b)
            | TermData::Add(a, b)
            | TermData::Sub(a, b)
            | TermData::Mul(a, b)
            | TermData::Shl(a, b)
            | TermData::Lshr(a, b)
            | TermData::Ashr(a, b)
            | TermData::Eq(a, b)
            | TermData::Ult(a, b)
            | TermData::Slt(a, b)
            | TermData::Concat(a, b) => {
                f(*a);
                f(*b);
            }
            TermData::Ite(c, a, b) => {
                f(*c);
                f(*a);
                f(*b);
            }
            TermData::Uf { args, .. } => args.iter().copied().for_each(f),
        }
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let mut p = TermPool::new();
        let a = p.constant(32, 7);
        let b = p.constant(32, 5);
        let s = p.add(a, b);
        assert_eq!(
            p.data(s),
            &TermData::Const {
                width: 32,
                value: 12
            }
        );
        let x = p.var(32, "x");
        let zero = p.constant(32, 0);
        assert_eq!(p.add(x, zero), x);
        assert_eq!(p.mul(x, zero), zero);
        let m = p.xor(x, x);
        assert_eq!(p.const_value(m), Some(0));
    }

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let x = p.var(64, "x");
        let y = p.var(64, "y");
        let a = p.add(x, y);
        let b = p.add(x, y);
        assert_eq!(a, b);
        let n = p.len();
        let _ = p.add(x, y);
        assert_eq!(p.len(), n);
    }

    #[test]
    fn eval_matches_semantics() {
        let mut p = TermPool::new();
        let x = p.var(64, "x");
        let y = p.var(64, "y");
        let five = p.constant(64, 5);
        let sum = p.add(x, y);
        let shifted = p.shl(sum, five);
        let cmp = p.ult(x, y);
        let env: HashMap<String, u64> = [("x".to_string(), 3u64), ("y".to_string(), 11u64)]
            .into_iter()
            .collect();
        assert_eq!(p.eval(shifted, &env), (3u64 + 11) << 5);
        assert_eq!(p.eval(cmp, &env), 1);
    }

    #[test]
    fn eval_visits_each_shared_term_once() {
        // 63 doublings: a tree walk would visit 2^63 leaves.
        let mut p = TermPool::new();
        let mut x = p.var(64, "x");
        for _ in 0..63 {
            x = p.add(x, x);
        }
        let mut env = HashMap::new();
        env.insert("x".to_string(), 1);
        assert_eq!(p.eval(x, &env), 1 << 63);
        assert_eq!(p.eval_with(x, |_| 3), 1 << 63);
    }

    #[test]
    fn eval_width_truncation() {
        let mut p = TermPool::new();
        let x = p.var(8, "x");
        let one = p.constant(8, 1);
        let sum = p.add(x, one);
        let env: HashMap<String, u64> = [("x".to_string(), 255u64)].into_iter().collect();
        assert_eq!(p.eval(sum, &env), 0, "8-bit overflow wraps");
    }

    #[test]
    fn extract_concat_extensions() {
        let mut p = TermPool::new();
        let x = p.var(64, "x");
        let lo = p.extract(31, 0, x);
        let hi = p.extract(63, 32, x);
        let back = p.concat(hi, lo);
        let env: HashMap<String, u64> = [("x".to_string(), 0x1234_5678_9abc_def0u64)]
            .into_iter()
            .collect();
        assert_eq!(p.eval(back, &env), 0x1234_5678_9abc_def0);
        let sx = p.sign_ext(64, lo);
        assert_eq!(p.eval(sx, &env), 0xffff_ffff_9abc_def0);
        let zx = p.zero_ext(64, lo);
        assert_eq!(p.eval(zx, &env), 0x9abc_def0);
    }

    #[test]
    fn signed_comparisons_and_shifts() {
        let mut p = TermPool::new();
        let a = p.constant(32, 0xffff_ffff); // -1
        let b = p.constant(32, 1);
        let slt = p.slt(a, b);
        assert_eq!(p.const_value(slt), Some(1));
        let ult = p.ult(a, b);
        assert_eq!(p.const_value(ult), Some(0));
        let sh = p.constant(32, 31);
        let ar = p.ashr(a, sh);
        assert_eq!(p.const_value(ar), Some(0xffff_ffff));
    }

    #[test]
    fn ite_simplification() {
        let mut p = TermPool::new();
        let x = p.var(64, "x");
        let y = p.var(64, "y");
        let t = p.tru();
        assert_eq!(p.ite(t, x, y), x);
        let f = p.fals();
        assert_eq!(p.ite(f, x, y), y);
        let c = p.var(1, "c");
        assert_eq!(p.ite(c, x, x), x);
    }

    #[test]
    fn uf_is_deterministic() {
        let mut p = TermPool::new();
        let x = p.var(64, "x");
        let y = p.var(64, "y");
        let f1 = p.uf(0, vec![x, y], 64);
        let f2 = p.uf(0, vec![x, y], 64);
        assert_eq!(f1, f2, "identical applications are the same term");
        let env: HashMap<String, u64> = [("x".to_string(), 3u64), ("y".to_string(), 4u64)]
            .into_iter()
            .collect();
        assert_eq!(p.eval(f1, &env), p.eval(f2, &env));
        let g = p.uf(1, vec![x, y], 64);
        assert_ne!(
            p.eval(f1, &env),
            p.eval(g, &env),
            "different functions differ (w.h.p.)"
        );
    }

    #[test]
    #[should_panic(expected = "widths must match")]
    fn width_mismatch_panics() {
        let mut p = TermPool::new();
        let a = p.var(32, "a");
        let b = p.var(64, "b");
        let _ = p.add(a, b);
    }
}
