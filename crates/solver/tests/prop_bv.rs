//! Property-based tests for the bit-vector layer and the bit-blaster: the
//! term evaluator agrees with native Rust arithmetic, every model the SAT
//! solver returns actually satisfies the original terms, and on random
//! small term DAGs the blaster decides equivalence exactly as exhaustive
//! evaluation does.

use proptest::prelude::*;
use std::collections::HashMap;
use stoke_solver::{check, CheckResult, TermId, TermPool};

fn env(pairs: &[(&str, u64)]) -> HashMap<String, u64> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// Widest term a recipe builds: concatenations and extensions stay
/// within it, so exhaustive evaluation stays cheap.
const MAX_WIDTH: u32 = 8;

/// Replay `recipe` over the leaves `x` and `y`: each step is one 32-bit
/// draw whose low byte picks a `TermPool` constructor (every one but
/// `uf`) and whose other bytes pick operands and parameters. Operand
/// choices depend only on term widths, so replaying a recipe over leaves
/// of the same widths builds the same functions in the same order. With
/// `disguise` some steps build their function another way, for example
/// `xor(a, ones)` for `not(a)` or `and(b, a)` for `and(a, b)`: a
/// different term over the same bits.
fn build(p: &mut TermPool, x: TermId, y: TermId, recipe: &[u32], disguise: bool) -> Vec<TermId> {
    let mut nodes = vec![x, y];
    for &step in recipe {
        let [op, i, j, k] = step.to_le_bytes();
        let (j, k) = (usize::from(j), usize::from(k));
        let a = nodes[usize::from(i) % nodes.len()];
        let w = p.width(a);
        let peers: Vec<TermId> = nodes.iter().copied().filter(|&t| p.width(t) == w).collect();
        let b = peers[j % peers.len()];
        let bits: Vec<TermId> = nodes.iter().copied().filter(|&t| p.width(t) == 1).collect();
        let node = match op % 25 {
            0 => p.constant(w, k as u64),
            1 if disguise => {
                let ones = p.constant(w, u64::MAX);
                p.xor(a, ones)
            }
            1 => p.not(a),
            2 if disguise => p.and(b, a),
            2 => p.and(a, b),
            3 if disguise => p.or(b, a),
            3 => p.or(a, b),
            4 if disguise => {
                let na = p.not(a);
                let flipped = p.xor(na, b);
                p.not(flipped)
            }
            4 => p.xor(a, b),
            5 if disguise => {
                let zero = p.constant(w, 0);
                p.sub(zero, a)
            }
            5 => p.neg(a),
            6 if disguise => p.add(b, a),
            6 => p.add(a, b),
            7 => p.sub(a, b),
            8 if disguise => p.mul(b, a),
            8 => p.mul(a, b),
            9 => p.shl(a, b),
            10 => p.lshr(a, b),
            11 => p.ashr(a, b),
            12 if disguise => p.eq(b, a),
            12 => p.eq(a, b),
            13 => p.ne(a, b),
            14 => p.ult(a, b),
            15 => p.ule(a, b),
            16 => p.slt(a, b),
            17 | 22 | 23 if bits.is_empty() => continue,
            17 => p.ite(bits[k % bits.len()], a, b),
            18 => {
                let lo = (j as u32) % w;
                let hi = lo + (k as u32) % (w - lo);
                p.extract(hi, lo, a)
            }
            19 => {
                let lo = nodes[j % nodes.len()];
                if w + p.width(lo) > MAX_WIDTH {
                    continue;
                }
                p.concat(a, lo)
            }
            20 => p.zero_ext(w + (k as u32) % (MAX_WIDTH - w + 1), a),
            21 => p.sign_ext(w + (k as u32) % (MAX_WIDTH - w + 1), a),
            22 => p.bool_and(&[bits[j % bits.len()], bits[k % bits.len()]]),
            23 => p.bool_or(&[bits[j % bits.len()], bits[k % bits.len()]]),
            _ => {
                if k % 2 == 0 {
                    p.tru()
                } else {
                    p.fals()
                }
            }
        };
        nodes.push(node);
    }
    nodes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The concrete term evaluator agrees with native u64/u32 arithmetic on
    /// every modelled operation.
    #[test]
    fn eval_matches_native_arithmetic(a in any::<u64>(), b in any::<u64>(), shift in 0u64..64) {
        let mut p = TermPool::new();
        let x = p.var(64, "x");
        let y = p.var(64, "y");
        let e = env(&[("x", a), ("y", b)]);

        let sum = p.add(x, y);
        prop_assert_eq!(p.eval(sum, &e), a.wrapping_add(b));
        let diff = p.sub(x, y);
        prop_assert_eq!(p.eval(diff, &e), a.wrapping_sub(b));
        let prod = p.mul(x, y);
        prop_assert_eq!(p.eval(prod, &e), a.wrapping_mul(b));
        let conj = p.and(x, y);
        prop_assert_eq!(p.eval(conj, &e), a & b);
        let s = p.constant(64, shift);
        let shl = p.shl(x, s);
        prop_assert_eq!(p.eval(shl, &e), if shift >= 64 { 0 } else { a << shift });
        let lshr = p.lshr(x, s);
        prop_assert_eq!(p.eval(lshr, &e), if shift >= 64 { 0 } else { a >> shift });
        let ashr = p.ashr(x, s);
        prop_assert_eq!(p.eval(ashr, &e), ((a as i64) >> shift.min(63)) as u64);
        let ult = p.ult(x, y);
        prop_assert_eq!(p.eval(ult, &e), u64::from(a < b));
        let slt = p.slt(x, y);
        prop_assert_eq!(p.eval(slt, &e), u64::from((a as i64) < (b as i64)));
    }

    /// 32-bit operations wrap at 32 bits.
    #[test]
    fn eval_respects_narrow_widths(a in any::<u32>(), b in any::<u32>()) {
        let mut p = TermPool::new();
        let x = p.var(32, "x");
        let y = p.var(32, "y");
        let e = env(&[("x", u64::from(a)), ("y", u64::from(b))]);
        let sum = p.add(x, y);
        prop_assert_eq!(p.eval(sum, &e), u64::from(a.wrapping_add(b)));
        let prod = p.mul(x, y);
        prop_assert_eq!(p.eval(prod, &e), u64::from(a.wrapping_mul(b)));
    }

    /// Solving `x + a == b` over 16-bit vectors always succeeds and the
    /// model is the arithmetically correct witness.
    #[test]
    fn linear_equations_have_correct_models(a in any::<u16>(), b in any::<u16>()) {
        let mut p = TermPool::new();
        let x = p.var(16, "x");
        let ca = p.constant(16, u64::from(a));
        let cb = p.constant(16, u64::from(b));
        let sum = p.add(x, ca);
        let eqn = p.eq(sum, cb);
        match check(&p, &[eqn]) {
            CheckResult::Sat(m) => {
                prop_assert_eq!(m.value("x") as u16, b.wrapping_sub(a));
            }
            CheckResult::Unsat => prop_assert!(false, "x + a == b is always satisfiable"),
        }
    }

    /// The blasted semantics agree with the evaluator: asserting
    /// `f(x, y) != <concrete result>` for fixed x, y is unsatisfiable.
    #[test]
    fn blasting_agrees_with_eval(a in any::<u16>(), b in any::<u16>()) {
        let mut p = TermPool::new();
        let x = p.var(16, "x");
        let y = p.var(16, "y");
        let ca = p.constant(16, u64::from(a));
        let cb = p.constant(16, u64::from(b));
        let fix_x = p.eq(x, ca);
        let fix_y = p.eq(y, cb);
        // A nontrivial combination of operations.
        let sum = p.add(x, y);
        let three = p.constant(16, 3);
        let shifted = p.lshr(sum, three);
        let masked = p.and(shifted, y);
        let expected_val = ((u64::from(a).wrapping_add(u64::from(b)) & 0xffff) >> 3) & u64::from(b);
        let expected = p.constant(16, expected_val);
        let wrong = p.ne(masked, expected);
        prop_assert_eq!(check(&p, &[fix_x, fix_y, wrong]), CheckResult::Unsat);
    }

    /// The blaster against exhaustive evaluation on random term DAGs over
    /// two variables of at most 4 bits. The recipe is built once over `x`
    /// and `y` and once over `extract(zero_ext(x))` and
    /// `extract(sign_ext(y))` with disguised steps, so equal functions
    /// reach the blaster as different terms over the same bits and share
    /// hashed gates. `a != b` is unsatisfiable exactly when every input
    /// gives `a == b`, and every model makes them differ.
    #[test]
    fn blaster_agrees_with_exhaustive_eval(
        wx in 1u32..5,
        wy in 1u32..5,
        recipe in proptest::collection::vec(any::<u32>(), 1..24),
        pick in any::<u32>(),
    ) {
        let mut p = TermPool::new();
        let x = p.var(wx, "x");
        let y = p.var(wy, "y");
        let wide_x = p.zero_ext(MAX_WIDTH, x);
        let x_again = p.extract(wx - 1, 0, wide_x);
        let wide_y = p.sign_ext(MAX_WIDTH, y);
        let y_again = p.extract(wy - 1, 0, wide_y);
        let plain = build(&mut p, x, y, &recipe, false);
        let disguised = build(&mut p, x_again, y_again, &recipe, true);
        prop_assert_eq!(plain.len(), disguised.len());
        let [i, j, ..] = pick.to_le_bytes();
        let index = usize::from(i) % plain.len();
        let a = plain[index];
        // Half the time the same function built the other way, otherwise
        // any disguised term of the same width.
        let b = if j % 2 == 0 {
            disguised[index]
        } else {
            let peers: Vec<TermId> = disguised
                .iter()
                .copied()
                .filter(|&t| p.width(t) == p.width(a))
                .collect();
            peers[usize::from(j / 2) % peers.len()]
        };
        let agree_everywhere = (0..1u64 << wx).all(|vx| {
            (0..1u64 << wy).all(|vy| {
                let e = env(&[("x", vx), ("y", vy)]);
                p.eval(a, &e) == p.eval(b, &e)
            })
        });
        let differs = p.ne(a, b);
        match check(&p, &[differs]) {
            CheckResult::Unsat => prop_assert!(agree_everywhere, "Unsat, but some input separates them"),
            CheckResult::Sat(m) => {
                prop_assert!(!agree_everywhere, "Sat, but every input agrees");
                let e = env(&[("x", m.value("x")), ("y", m.value("y"))]);
                prop_assert_ne!(p.eval(a, &e), p.eval(b, &e));
            }
        }
    }
}
