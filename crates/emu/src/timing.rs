//! A dependency-aware superscalar timing model.
//!
//! The paper approximates runtime by the *sum* of instruction latencies
//! (Equation 13) and observes (Figure 3) that the approximation is good
//! except for codes with unusually high or low instruction-level
//! parallelism at the micro-op level. This module provides the "actual
//! runtime" side of that comparison: a small out-of-order issue model that
//! schedules each instruction as soon as its operands are ready, subject
//! to an issue-width constraint, and reports the resulting critical-path
//! cycle count.
//!
//! The model is also used to re-rank the lowest-cost rewrites found by the
//! search (§4.2: "recomputing perf(·) using the slower JIT compilation
//! method as a postprocessing step" — our substitute for native execution).

use stoke_x86::flow::Access;
use stoke_x86::{Instruction, Program};

/// Maximum number of instructions issued per cycle.
const ISSUE_WIDTH: u64 = 4;
/// Additional latency charged to loads (address generation + cache hit).
const LOAD_LATENCY: u64 = 4;
/// Additional latency charged to stores.
const STORE_LATENCY: u64 = 1;

/// The issue model: four instructions issue per cycle, a load adds four
/// cycles to its instruction's latency and a store adds one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimingModel {}

impl TimingModel {
    /// Estimate the number of cycles the program takes to execute once,
    /// accounting for data dependencies between instructions and the issue
    /// width, but not for branch effects (programs are loop-free) or cache
    /// misses (working sets are tiny).
    pub fn cycles(&self, program: &Program) -> u64 {
        self.cycles_instrs(program.instrs())
    }

    /// See [`TimingModel::cycles`].
    pub fn cycles_instrs(&self, instrs: &[Instruction]) -> u64 {
        // Completion time of the most recent writer of each location.
        let mut gpr_ready = [0u64; 16];
        let mut xmm_ready = [0u64; 16];
        let mut flag_ready = [0u64; 5];
        let mut mem_ready = 0u64; // last store completion
        let mut last_store = 0u64;

        let mut finish_max = 0u64;
        for (idx, instr) in instrs.iter().enumerate() {
            let access = Access::of(instr);
            // Operands must be ready: every location whose old value the
            // instruction may use, merged destinations included.
            let uses = access.uses();
            let mut ready = 0u64;
            for g in &uses.gprs {
                ready = ready.max(gpr_ready[g.index()]);
            }
            for x in &uses.xmms {
                ready = ready.max(xmm_ready[x.index()]);
            }
            for f in &uses.flags {
                ready = ready.max(flag_ready[f.index()]);
            }
            if access.loads {
                // Loads must wait for earlier stores (no alias analysis).
                ready = ready.max(mem_ready);
            }
            if access.stores {
                ready = ready.max(last_store);
            }
            // Issue-width constraint: at most `ISSUE_WIDTH` instructions
            // can begin per cycle, in program order.
            let issue_floor = idx as u64 / ISSUE_WIDTH;
            let start = ready.max(issue_floor);

            let mut latency = u64::from(instr.opcode().latency().max(1));
            if access.loads {
                latency += LOAD_LATENCY;
            }
            if access.stores {
                latency += STORE_LATENCY;
            }
            let finish = start + latency;
            finish_max = finish_max.max(finish);

            let writes = access.writes();
            for g in &writes.gprs {
                gpr_ready[g.index()] = finish;
            }
            for x in &writes.xmms {
                xmm_ready[x.index()] = finish;
            }
            for f in &writes.flags {
                flag_ready[f.index()] = finish;
            }
            if access.stores {
                mem_ready = finish;
                last_store = finish;
            }
        }
        finish_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoke_x86::Program;

    #[test]
    fn dependent_chain_slower_than_independent() {
        // Four dependent adds form a chain of length 4...
        let chain: Program = "
            addq rbx, rax
            addq rbx, rax
            addq rbx, rax
            addq rbx, rax
        "
        .parse()
        .unwrap();
        // ...while four independent adds can issue in parallel.
        let parallel: Program = "
            addq rbx, rax
            addq rbx, rcx
            addq rbx, rdx
            addq rbx, rsi
        "
        .parse()
        .unwrap();
        let t = TimingModel::default();
        assert!(t.cycles(&chain) > t.cycles(&parallel));
        // Both have identical static latency sums (Figure 3's outliers).
        assert_eq!(chain.static_latency(), parallel.static_latency());
    }

    #[test]
    fn loads_cost_more_than_register_moves() {
        let mem: Program = "movq -8(rsp), rdi\naddq rdi, rax".parse().unwrap();
        let reg: Program = "movq rbx, rdi\naddq rdi, rax".parse().unwrap();
        let t = TimingModel::default();
        assert!(t.cycles(&mem) > t.cycles(&reg));
    }

    #[test]
    fn store_load_dependency_is_respected() {
        let p: Program = "
            movq rdi, -8(rsp)
            movq -8(rsp), rax
            addq rax, rbx
        "
        .parse()
        .unwrap();
        let q: Program = "
            movq rdi, rax
            addq rax, rbx
        "
        .parse()
        .unwrap();
        let t = TimingModel::default();
        assert!(
            t.cycles(&p) > t.cycles(&q),
            "stack round trip must be slower"
        );
    }

    #[test]
    fn a_cmov_waits_for_the_producer_of_its_destination() {
        // The load takes 5 cycles to produce rax; the cmov may keep rax,
        // so it cannot finish before it. A plain move does not wait.
        let t = TimingModel::default();
        let cmov: Program = "movq (rsi), rax\ncmoveq rdi, rax".parse().unwrap();
        let mov: Program = "movq (rsi), rax\nmovq rdi, rax".parse().unwrap();
        assert_eq!(t.cycles(&mov), 5);
        assert_eq!(t.cycles(&cmov), 7);
    }

    #[test]
    fn empty_program_is_free() {
        assert_eq!(TimingModel::default().cycles(&Program::new()), 0);
    }

    #[test]
    fn issue_width_bounds_throughput() {
        // 16 independent single-cycle instructions on a 4-wide machine need
        // at least 4 cycles to issue.
        let text = (0..16)
            .map(|i| format!("movq {}, r{}", i, 8 + (i % 8)))
            .collect::<Vec<_>>()
            .join("\n");
        let p: Program = text.parse().unwrap();
        let t = TimingModel::default();
        assert!(t.cycles(&p) >= 4);
    }
}
