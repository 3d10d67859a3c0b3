//! Equivalence checking of loop-free code sequences.
//!
//! Following §5.2 of the paper: both the target and the rewrite are
//! symbolically executed from a shared initial machine state, constraints
//! relating memory accesses are asserted, and a single satisfiability
//! query asks whether *some* initial state makes the live outputs differ.
//! `Unsat` means the rewrite is provably equivalent; `Sat` yields a
//! counterexample that becomes a new test case (Equation 12's refinement
//! loop).
//!
//! Before it bit-blasts the query, the validator evaluates it on ten fixed
//! inputs: full-width values, small values of either sign, and values with
//! many low zero bits. A pair that differs on one of them is refuted
//! without the solver, with that input as the counterexample. A rewrite
//! wrong on most inputs, such as a mutant of compiled code, is then
//! refuted in the time of symbolic execution, while the SAT search would
//! take from no conflicts to hundreds depending on the mutant. The inputs
//! are a hash of each variable's name, so every run decides alike.

use crate::semantics::SymExecutor;
use crate::symstate::SymState;
use stoke_solver::{CheckResult, Checker, TermId, TermPool};
use stoke_x86::flow::{Access, LocSet};
use stoke_x86::{Flag, Gpr, Opcode, Operand, Program, Xmm};

/// A counterexample input produced by a failed equivalence proof.
///
/// Memory contents are not reconstructed from the model (initial memory is
/// an uninterpreted function); the search layer re-seeds memory from the
/// kernel's address annotations when it turns a counterexample into a test
/// case.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counterexample {
    /// Initial general purpose register values, indexed by [`Gpr::index`].
    pub gprs: [u64; 16],
    /// Initial flag values, indexed by [`Flag::index`].
    pub flags: [bool; 5],
    /// Initial SSE register values (low, high), indexed by [`Xmm::index`].
    pub xmms: [[u64; 2]; 16],
}

/// The verdict of an equivalence query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// The two programs provably agree on every live output for every
    /// initial machine state (modulo the uninterpreted-function modelling
    /// of 64-bit multiplication and division).
    Equivalent,
    /// A concrete initial state on which the live outputs differ.
    NotEquivalent(Box<Counterexample>),
}

impl EquivResult {
    /// Whether the verdict is [`EquivResult::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivResult::Equivalent)
    }
}

/// Statistics about a validation query, reported for Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValidationStats {
    /// Number of bit-vector terms created.
    pub terms: usize,
    /// Number of SAT variables in the blasted query.
    pub sat_vars: usize,
    /// Number of CNF clauses in the blasted query, learnt clauses
    /// included.
    pub clauses: usize,
    /// Number of conflicts the SAT solver met deciding the query.
    pub conflicts: u64,
}

/// The symbolic validator.
///
/// ```
/// use stoke_verify::Validator;
/// use stoke_x86::{flow::LocSet, Gpr, Program};
///
/// // Strength reduction: x * 2 == x + x.
/// let target: Program = "movq rdi, rax\nimulq 2, rax".parse().unwrap();
/// let rewrite: Program = "leaq (rdi,rdi,1), rax".parse().unwrap();
/// let live_out = LocSet::from_gprs([Gpr::Rax]);
/// let validator = Validator::new(live_out);
/// assert!(validator.prove(&target, &rewrite).0.is_equivalent());
/// ```
#[derive(Debug, Clone)]
pub struct Validator {
    live_out: LocSet,
}

impl Validator {
    /// Create a validator comparing programs on the given live outputs.
    pub fn new(live_out: LocSet) -> Validator {
        Validator { live_out }
    }

    /// The live outputs compared by this validator.
    pub fn live_out(&self) -> &LocSet {
        &self.live_out
    }

    /// Prove or refute the equivalence of `target` and `rewrite`.
    pub fn prove(&self, target: &Program, rewrite: &Program) -> (EquivResult, ValidationStats) {
        let mut pool = TermPool::new();

        let stack_slots = stack_slots_sound([target, rewrite]);
        let mut target_state = SymState::initial(&mut pool, "t");
        let mut rewrite_state = SymState::initial(&mut pool, "r");
        {
            let mut exec = SymExecutor::new(&mut pool, stack_slots);
            for instr in target {
                exec.step(&mut target_state, instr);
            }
            for instr in rewrite {
                exec.step(&mut rewrite_state, instr);
            }
        }

        // Build the disjunction of "some live output differs".
        let mut differences: Vec<TermId> = Vec::new();
        for g in &self.live_out.gprs {
            let t = target_state.read_gpr64(*g);
            let r = rewrite_state.read_gpr64(*g);
            differences.push(pool.ne(t, r));
        }
        for f in &self.live_out.flags {
            let t = target_state.read_flag(*f);
            let r = rewrite_state.read_flag(*f);
            differences.push(pool.ne(t, r));
        }
        for x in &self.live_out.xmms {
            let (tl, th) = target_state.read_xmm(*x);
            let (rl, rh) = rewrite_state.read_xmm(*x);
            differences.push(pool.ne(tl, rl));
            differences.push(pool.ne(th, rh));
        }
        // Memory outputs: both programs must leave the same final contents
        // at every byte address either of them wrote through the general
        // memory path. Named stack slots are frame-local scratch space —
        // the same simplifying assumption the paper makes when it treats
        // stack addresses as nameable temporary locations — and are not
        // part of the observable output.
        let mut addresses: Vec<TermId> = Vec::new();
        addresses.extend(target_state.memory.writes().iter().map(|(a, _)| *a));
        addresses.extend(rewrite_state.memory.writes().iter().map(|(a, _)| *a));
        addresses.sort();
        addresses.dedup();
        for addr in addresses {
            let t = target_state.memory.load_byte(&mut pool, addr);
            let r = rewrite_state.memory.load_byte(&mut pool, addr);
            differences.push(pool.ne(t, r));
        }

        let some_difference = pool.bool_or(&differences);
        // A pair that differs on a fixed input is refuted before any
        // bit-blasting.
        for round in 0..SIMULATION_ROUNDS.len() {
            let input = |name: &str| simulated_input(round, name);
            if pool.eval_with(some_difference, input) == 1 {
                let stats = ValidationStats {
                    terms: pool.len(),
                    ..ValidationStats::default()
                };
                let cex = counterexample(input);
                return (EquivResult::NotEquivalent(Box::new(cex)), stats);
            }
        }
        let mut checker = Checker::new();
        checker.assert_true(&pool, some_difference);
        let result = checker.check(&pool);
        let stats = ValidationStats {
            terms: pool.len(),
            sat_vars: checker.num_sat_vars(),
            clauses: checker.num_clauses(),
            conflicts: checker.num_conflicts(),
        };
        match result {
            CheckResult::Unsat => (EquivResult::Equivalent, stats),
            CheckResult::Sat(model) => {
                let cex = counterexample(|name| model.value(name));
                (EquivResult::NotEquivalent(Box::new(cex)), stats)
            }
        }
    }
}

/// How a simulation round draws each input from a hash of its name.
#[derive(Debug, Clone, Copy)]
enum Draw {
    /// Every bit from the hash.
    Full,
    /// A magnitude within the mask, of either sign, so that inputs often
    /// coincide.
    Small(u64),
    /// One to four low bits shifted to a hashed position, so that low
    /// bits are often zero.
    Sparse,
}

/// The fixed inputs the validator evaluates a miter on before it
/// bit-blasts it, one round each.
const SIMULATION_ROUNDS: [Draw; 10] = [
    Draw::Full,
    Draw::Small(3),
    Draw::Full,
    Draw::Small(1),
    Draw::Full,
    Draw::Small(0xf),
    Draw::Full,
    Draw::Small(7),
    Draw::Sparse,
    Draw::Sparse,
];

/// The value of input variable `name` in simulation round `round`: a hash
/// of both, so every query tries the same inputs.
fn simulated_input(round: usize, name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for byte in name.bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    match SIMULATION_ROUNDS[round] {
        Draw::Full => h,
        Draw::Small(mask) if h >> 63 == 1 => !(h & mask),
        Draw::Small(mask) => h & mask,
        Draw::Sparse => (h & 0xf | 1) << ((h >> 8) & 63),
    }
}

/// The counterexample whose input variables take `value_of(name)`.
fn counterexample(value_of: impl Fn(&str) -> u64) -> Counterexample {
    let mut cex = Counterexample::default();
    for g in Gpr::ALL {
        cex.gprs[g.index()] = value_of(&format!("in_{}", g.name64()));
    }
    for f in Flag::ALL {
        cex.flags[f.index()] = value_of(&format!("in_{}", f.name())) & 1 == 1;
    }
    for x in Xmm::ALL {
        cex.xmms[x.index()] = [
            value_of(&format!("in_xmm{}_lo", x.index())),
            value_of(&format!("in_xmm{}_hi", x.index())),
        ];
    }
    cex
}

/// Whether the named-stack-slot model (§5.2's first simplifying
/// assumption) is sound for a pair of programs. Slots are 8-byte
/// locations keyed by their displacement from rsp, so the model holds
/// only when rsp appears in no operand except as the base of a scalar
/// `disp(rsp)` access, neither program redefines rsp, and no two of those
/// accesses at different displacements overlap. An rsp copied into
/// another register (`movq rsp, rbx`, `leaq -8(rsp), rbx`) would let a
/// program reach a slot's bytes through an address the model does not
/// name. Otherwise the stack goes through flat memory.
pub fn stack_slots_sound(programs: [&Program; 2]) -> bool {
    // (displacement, bytes) of every rsp-based access.
    let mut accesses: Vec<(i64, i64)> = Vec::new();
    for instr in programs.into_iter().flatten() {
        if matches!(instr.opcode(), Opcode::Push | Opcode::Pop)
            || Access::of(instr).writes().gprs.contains(&Gpr::Rsp)
        {
            return false;
        }
        for (slot, op) in instr.opcode().signature().iter().zip(instr.operands()) {
            let m = match op {
                Operand::Reg(r) if r.parent() == Gpr::Rsp => return false,
                Operand::Mem(m) if m.base == Some(Gpr::Rsp) || m.index == Some(Gpr::Rsp) => m,
                _ => continue,
            };
            match (slot.reg, slot.xmm) {
                (Some(w), false) if m.index.is_none() => {
                    accesses.push((i64::from(m.disp), w.bytes() as i64));
                }
                // `lea`'s address slot, an index, or a 128-bit access.
                _ => return false,
            }
        }
    }
    // Sorted, the widest access at each displacement comes last, so any
    // overlap shows between neighbours.
    accesses.sort_unstable();
    accesses
        .windows(2)
        .all(|p| p[0].0 == p[1].0 || p[0].0 + p[0].1 <= p[1].0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live(gprs: &[Gpr]) -> LocSet {
        LocSet::from_gprs(gprs.iter().copied())
    }

    fn prove(target: &str, rewrite: &str, live_out: &[Gpr]) -> EquivResult {
        let t: Program = target.parse().unwrap();
        let r: Program = rewrite.parse().unwrap();
        Validator::new(live(live_out)).prove(&t, &r).0
    }

    #[test]
    fn identical_programs_are_equivalent() {
        let res = prove(
            "movq rdi, rax\naddq rsi, rax",
            "movq rdi, rax\naddq rsi, rax",
            &[Gpr::Rax],
        );
        assert!(res.is_equivalent());
    }

    #[test]
    fn commuted_addition_is_equivalent() {
        let res = prove(
            "movq rdi, rax\naddq rsi, rax",
            "movq rsi, rax\naddq rdi, rax",
            &[Gpr::Rax],
        );
        assert!(res.is_equivalent());
    }

    #[test]
    fn strength_reduction_mul_to_shift() {
        // x * 2 == x << 1 (Bansal's linked-list example optimization).
        let res = prove(
            "movq rdi, rax\nimulq 2, rax",
            "movq rdi, rax\nshlq 1, rax",
            &[Gpr::Rax],
        );
        assert!(res.is_equivalent());
    }

    #[test]
    fn proof_reports_real_sat_counts() {
        let counts = |target: &str, rewrite: &str| {
            let t: Program = target.parse().unwrap();
            let r: Program = rewrite.parse().unwrap();
            let (result, stats) = Validator::new(live(&[Gpr::Rax])).prove(&t, &r);
            assert!(result.is_equivalent());
            stats
        };
        // The doc example: x * 2 == lea (x,x,1).
        let stats = counts("movq rdi, rax\nimulq 2, rax", "leaq (rdi,rdi,1), rax");
        assert!(
            stats.terms > 0 && stats.sat_vars > 0 && stats.clauses > 0,
            "{stats:?}"
        );
        // A pair the term pool cannot fold bit-blasts two 64-bit adders.
        let stats = counts(
            "movq rdi, rax\naddq rdi, rax\naddq rsi, rax",
            "leaq (rsi,rdi,2), rax",
        );
        assert!(
            stats.sat_vars > 64 && stats.clauses > stats.sat_vars,
            "{stats:?}"
        );
    }

    #[test]
    fn lea_matches_add_chain() {
        let res = prove(
            "movq rdi, rax\naddq rdi, rax\naddq rsi, rax",
            "leaq (rsi,rdi,2), rax",
            &[Gpr::Rax],
        );
        assert!(res.is_equivalent());
    }

    #[test]
    fn wrong_constant_is_caught() {
        let res = prove(
            "movq rdi, rax\naddq 2, rax",
            "movq rdi, rax\naddq 3, rax",
            &[Gpr::Rax],
        );
        match res {
            EquivResult::NotEquivalent(_) => {}
            EquivResult::Equivalent => panic!("programs differ on every input"),
        }
    }

    #[test]
    fn difference_outside_live_outputs_is_ignored() {
        // The rewrite clobbers rbx, but only rax is live out.
        let res = prove("movq rdi, rax", "movq rdi, rax\nmovq 99, rbx", &[Gpr::Rax]);
        assert!(res.is_equivalent());
        // With rbx live out the same pair is inequivalent.
        let res = prove(
            "movq rdi, rax",
            "movq rdi, rax\nmovq 99, rbx",
            &[Gpr::Rax, Gpr::Rbx],
        );
        assert!(!res.is_equivalent());
    }

    #[test]
    fn counterexample_distinguishes_programs() {
        // Target computes x & y, rewrite computes x | y: differ whenever
        // x != y on some bit. The counterexample must witness that.
        let t: Program = "movq rdi, rax\nandq rsi, rax".parse().unwrap();
        let r: Program = "movq rdi, rax\norq rsi, rax".parse().unwrap();
        let v = Validator::new(live(&[Gpr::Rax]));
        match v.prove(&t, &r).0 {
            EquivResult::NotEquivalent(cex) => {
                let x = cex.gprs[Gpr::Rdi.index()];
                let y = cex.gprs[Gpr::Rsi.index()];
                assert_ne!(
                    x & y,
                    x | y,
                    "counterexample must actually distinguish the programs"
                );
            }
            EquivResult::Equivalent => panic!("and != or"),
        }
    }

    #[test]
    fn a_pair_that_differs_on_a_simulated_input_skips_the_solver() {
        let t: Program = "movq rdi, rax\naddq rsi, rax".parse().unwrap();
        let r: Program = "movq rdi, rax\nsubq rsi, rax".parse().unwrap();
        let (result, stats) = Validator::new(live(&[Gpr::Rax])).prove(&t, &r);
        let EquivResult::NotEquivalent(cex) = result else {
            panic!("add != sub");
        };
        let (x, y) = (cex.gprs[Gpr::Rdi.index()], cex.gprs[Gpr::Rsi.index()]);
        assert_ne!(x.wrapping_add(y), x.wrapping_sub(y));
        assert_eq!((stats.sat_vars, stats.clauses, stats.conflicts), (0, 0, 0));
    }

    #[test]
    fn a_difference_on_one_input_is_left_to_the_solver() {
        // The rewrite differs from the target only when rdi = 0x12345,
        // which no simulated input hits.
        let t: Program = "movq rdi, rax".parse().unwrap();
        let r: Program = "movq rdi, rax\nmovq 1, rcx\ncmpq 74565, rdi\ncmoveq rcx, rax"
            .parse()
            .unwrap();
        let (result, stats) = Validator::new(live(&[Gpr::Rax])).prove(&t, &r);
        let EquivResult::NotEquivalent(cex) = result else {
            panic!("the pair differs at rdi = 0x12345");
        };
        assert_eq!(cex.gprs[Gpr::Rdi.index()], 0x12345);
        assert!(stats.sat_vars > 0, "{stats:?}");
    }

    #[test]
    fn hackers_delight_p01_rewrite() {
        // p01: turn off the rightmost set bit. Verbose formulation vs the
        // blsr-style two-instruction rewrite.
        let target = "
            movl edi, eax
            subl 1, eax
            andl edi, eax
        ";
        let rewrite = "
            leal -1(rdi), eax
            andl edi, eax
        ";
        let res = prove(target, rewrite, &[Gpr::Rax]);
        assert!(res.is_equivalent());
    }

    #[test]
    fn flag_dependent_code_setcc() {
        // eax = (edi == esi) via cmp/sete vs sub/test trickery.
        let target = "
            xorl eax, eax
            cmpl esi, edi
            sete al
        ";
        let rewrite = "
            movl edi, eax
            xorl esi, eax
            cmpl 1, eax
            movl 0, eax
            adcl 0, eax
        ";
        // rewrite: eax = ((edi ^ esi) < 1) ? 1 : 0 = (edi == esi).
        let res = prove(target, rewrite, &[Gpr::Rax]);
        assert!(res.is_equivalent());
    }

    #[test]
    fn cmov_equals_branch_free_select() {
        // Select-on-equality with cmov vs bit-twiddling mask.
        let target = "
            cmpl esi, edi
            movl edx, eax
            cmovel ecx, eax
        ";
        let rewrite = "
            cmpl esi, edi
            movl edx, eax
            cmovel ecx, eax
            nop
        ";
        assert!(prove(target, rewrite, &[Gpr::Rax]).is_equivalent());
    }

    #[test]
    fn stack_slot_roundtrip_is_identity() {
        // Spilling to the stack and reloading is the identity on rax; the
        // named-stack-location model must see through it.
        let target = "
            movq rdi, -8(rsp)
            movq -8(rsp), rax
        ";
        let rewrite = "movq rdi, rax";
        // The spill slot is frame-local scratch space: the validator, like
        // the paper, treats rsp-relative slots as named temporaries rather
        // than observable outputs, so eliminating the dead spill verifies.
        let res = prove(target, rewrite, &[Gpr::Rax]);
        assert!(res.is_equivalent());
    }

    #[test]
    fn overlapping_stack_accesses_use_flat_memory() {
        // Slots are keyed by displacement, so a slot model would give the
        // 4-byte read at -4 a fresh slot instead of the high half of the
        // 8-byte store at -8.
        let res = prove(
            "movq rax, -8(rsp)\nmovl -4(rsp), ebx",
            "movl -4(rsp), ebx",
            &[Gpr::Rbx],
        );
        assert!(!res.is_equivalent());
    }

    #[test]
    fn wide_stack_accesses_use_flat_memory() {
        // A 128-bit access never goes through the slots, so it must not
        // see a stack that does.
        let t: Program = "movq rax, -16(rsp)\nmovups -16(rsp), xmm1".parse().unwrap();
        let r: Program = "movups -16(rsp), xmm1".parse().unwrap();
        let mut live_out = LocSet::new();
        live_out.xmms.insert(Xmm(1));
        assert!(!Validator::new(live_out).prove(&t, &r).0.is_equivalent());
    }

    #[test]
    fn rsp_copied_to_another_register_uses_flat_memory() {
        // Each rewrite overwrites the slot at -8(rsp) through a copy of
        // rsp, reads 5 back through the slot's own name, and restores the
        // old bytes: it leaves 5 in rax, not rdi. A slot model keyed by
        // displacement from rsp would not see the aliasing store.
        let target = "movq rdi, -8(rsp)\nmovq -8(rsp), rax";
        for rewrite in [
            "leaq -8(rsp), rbx\nmovq (rbx), rcx\nmovq rdi, -8(rsp)\nmovq 5, (rbx)\n\
             movq -8(rsp), rax\nmovq rcx, (rbx)",
            "movq rsp, rbx\nmovq -8(rbx), rcx\nmovq rdi, -8(rsp)\nmovq 5, -8(rbx)\n\
             movq -8(rsp), rax\nmovq rcx, -8(rbx)",
        ] {
            assert!(
                !prove(target, rewrite, &[Gpr::Rax]).is_equivalent(),
                "{rewrite}"
            );
        }
    }

    #[test]
    fn narrow_rotates_turn_by_the_count_modulo_the_width() {
        // rolb 9 turns al by 1, so it is not the zero a bare shift-and-or
        // reading of the count would give.
        for rotate in ["rolb 9, al", "rorb 9, al"] {
            assert!(!prove(rotate, "movb 0, al", &[Gpr::Rax]).is_equivalent());
        }
    }

    #[test]
    fn memory_store_values_compared() {
        // Both programs store to (rdi); storing different values must be
        // caught, same values must verify.
        let same = prove("movl esi, (rdi)", "movl esi, (rdi)", &[]);
        assert!(same.is_equivalent());
        let diff = prove("movl esi, (rdi)", "movl edx, (rdi)", &[]);
        assert!(!diff.is_equivalent());
    }

    #[test]
    fn widening_multiply_uses_uninterpreted_function() {
        // Two structurally identical uses of mulq verify equal (same UF
        // application), even though 64-bit multiplication is not blasted.
        let target = "
            movq rdi, rax
            mulq rsi
        ";
        let rewrite = "
            movq rdi, rax
            mulq rsi
            nop
        ";
        assert!(prove(target, rewrite, &[Gpr::Rax, Gpr::Rdx]).is_equivalent());
        // Swapping the operands of the uninterpreted multiply is NOT
        // provable (incompleteness inherited from the paper's modelling).
        let swapped = "
            movq rsi, rax
            mulq rdi
        ";
        assert!(!prove(target, swapped, &[Gpr::Rax, Gpr::Rdx]).is_equivalent());
    }
}
