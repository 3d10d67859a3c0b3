//! The SAT solver against brute force: on random CNFs small enough to
//! enumerate, `Solver::solve` must answer `Sat` exactly when some
//! assignment satisfies every clause, so `Unsat` answers are checked too,
//! not only models. Every `Sat` model must satisfy every clause. The
//! incremental case adds more clauses after an answer and solves again.

use proptest::prelude::*;
use stoke_solver::sat::{Lit, SatResult, Solver, Var};

/// Most variables an instance uses: 2^14 assignments to enumerate.
const MAX_VARS: u32 = 14;

/// A clause as (variable, polarity) pairs; duplicates and tautologies are
/// left in on purpose.
type Clause = Vec<(u32, bool)>;

fn clause() -> impl Strategy<Value = Clause> {
    proptest::collection::vec((0..MAX_VARS, any::<bool>()), 1..5)
}

fn cnf() -> impl Strategy<Value = (u32, Vec<Clause>)> {
    (1..=MAX_VARS, proptest::collection::vec(clause(), 0..61)).prop_map(|(n, clauses)| {
        let clauses = clauses
            .into_iter()
            .map(|c| c.into_iter().map(|(v, pos)| (v % n, pos)).collect())
            .collect();
        (n, clauses)
    })
}

/// Whether the assignment `bits` (bit i = value of variable i) satisfies
/// the clause.
fn satisfies(bits: u32, clause: &Clause) -> bool {
    clause.iter().any(|&(v, pos)| (bits >> v & 1 == 1) == pos)
}

/// Exhaustive satisfiability over `n` variables.
fn brute_force(n: u32, clauses: &[Clause]) -> SatResult {
    if (0..1u32 << n).any(|bits| clauses.iter().all(|c| satisfies(bits, c))) {
        SatResult::Sat
    } else {
        SatResult::Unsat
    }
}

fn add(solver: &mut Solver, vars: &[Var], clause: &Clause) {
    let lits: Vec<Lit> = clause
        .iter()
        .map(|&(v, pos)| Lit::new(vars[v as usize], pos))
        .collect();
    solver.add_clause(&lits);
}

/// Solve, compare with brute force over `clauses`, and check the model.
fn solve_and_check(solver: &mut Solver, vars: &[Var], n: u32, clauses: &[Clause]) {
    let answer = solver.solve();
    assert_eq!(answer, brute_force(n, clauses), "clauses {clauses:?}");
    if answer == SatResult::Sat {
        let mut bits = 0u32;
        for (i, v) in vars.iter().enumerate() {
            let value = solver.value(*v).expect("a model assigns every variable");
            bits |= u32::from(value) << i;
        }
        for c in clauses {
            assert!(satisfies(bits, c), "model {bits:#b} falsifies {c:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One solve over the whole clause set.
    #[test]
    fn solve_agrees_with_enumeration((n, clauses) in cnf()) {
        let mut solver = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| solver.new_var()).collect();
        for c in &clauses {
            add(&mut solver, &vars, c);
        }
        solve_and_check(&mut solver, &vars, n, &clauses);
    }

    /// Solve a prefix, then add the rest of the clauses to the same solver
    /// and solve again; each answer must match enumeration of the clauses
    /// added so far.
    #[test]
    fn incremental_solve_agrees_with_enumeration(
        (n, clauses) in cnf(),
        split in 0usize..61,
    ) {
        let split = split.min(clauses.len());
        let mut solver = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| solver.new_var()).collect();
        for c in &clauses[..split] {
            add(&mut solver, &vars, c);
        }
        solve_and_check(&mut solver, &vars, n, &clauses[..split]);
        for c in &clauses[split..] {
            add(&mut solver, &vars, c);
        }
        solve_and_check(&mut solver, &vars, n, &clauses);
    }
}
