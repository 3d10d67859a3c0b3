//! The spellings the assembly parser accepts, each pinned to the
//! instruction it denotes: `b`/`l`/`q` suffixes, bare mnemonics whose
//! width comes from the register operands (the paper's `mov edx, edx`),
//! the aliases, upper case, `cmov`/`set` under every condition, the SSE
//! names, and the operand-driven choice between opcodes that share a name
//! (`movq`, `movd`, `imul`).
//!
//! Each row gives a spelling, the opcode it must parse to and the text
//! the printer gives that instruction, so a row pins the opcode and every
//! operand without trusting the parser to read its own output.

use stoke_x86::{
    AluOp, BitOp, Cond, Opcode, Program, ShiftOp, SseBinOp, SseMov128, SseShiftOp, UnOp, Width,
};

use Width::{B, L, Q, W};

/// Register operand lists at each width, for two-operand forms.
const TWO_REGS: [(Width, &str); 4] = [
    (B, "bl, al"),
    (W, "bx, ax"),
    (L, "ebx, eax"),
    (Q, "rbx, rax"),
];

/// One register at each width, for one-operand forms.
const ONE_REG: [(Width, &str); 4] = [(B, "cl"), (W, "cx"), (L, "ecx"), (Q, "rcx")];

/// Count and destination operands for shifts and rotates. A bare
/// mnemonic takes the width of its last register, so `shl cl, (rdi)` is
/// a byte shift.
const COUNTS: [(Width, &str); 6] = [
    (B, "3, al"),
    (W, "3, ax"),
    (L, "3, eax"),
    (Q, "3, rax"),
    (Q, "cl, rdx"),
    (B, "cl, (rdi)"),
];

struct Rows(Vec<(String, Opcode, String)>);

impl Rows {
    fn add(&mut self, text: impl Into<String>, opcode: Opcode, printed: impl Into<String>) {
        self.0.push((text.into(), opcode, printed.into()));
    }

    /// `base` with each suffix in `suffixed` and bare at each width in
    /// `bare`, over the operands `regs` gives each width.
    fn family(
        &mut self,
        base: &str,
        opcode: impl Fn(Width) -> Opcode,
        regs: &[(Width, &str)],
        suffixed: &[Width],
        bare: &[Width],
    ) {
        for &(w, operands) in regs {
            let printed = format!("{base}{} {operands}", w.suffix());
            if suffixed.contains(&w) {
                self.add(printed.clone(), opcode(w), printed.clone());
            }
            if bare.contains(&w) {
                self.add(format!("{base} {operands}"), opcode(w), printed);
            }
        }
    }
}

fn spellings() -> Vec<(String, Opcode, String)> {
    let mut rows = Rows(Vec::new());
    let blq: &[Width] = &[B, L, Q];
    let lq: &[Width] = &[L, Q];
    let all: &[Width] = &Width::ALL;
    let wlq: &[Width] = &[W, L, Q];

    // Two-operand forms at every width.
    rows.family("mov", Opcode::Mov, &TWO_REGS, blq, all);
    rows.family("xchg", Opcode::Xchg, &TWO_REGS, blq, all);
    rows.family("cmp", Opcode::Cmp, &TWO_REGS, blq, all);
    rows.family("test", Opcode::Test, &TWO_REGS, blq, all);
    for (base, op) in [
        ("add", AluOp::Add),
        ("adc", AluOp::Adc),
        ("sub", AluOp::Sub),
        ("sbb", AluOp::Sbb),
        ("and", AluOp::And),
        ("or", AluOp::Or),
        ("xor", AluOp::Xor),
    ] {
        rows.family(base, |w| Opcode::Alu(op, w), &TWO_REGS, blq, all);
    }
    rows.family("imul", Opcode::Imul2, &TWO_REGS, lq, wlq);
    for (base, op) in [
        ("popcnt", BitOp::Popcnt),
        ("bsf", BitOp::Bsf),
        ("bsr", BitOp::Bsr),
    ] {
        rows.family(base, |w| Opcode::Bits(op, w), &TWO_REGS, lq, wlq);
    }
    rows.family(
        "lea",
        Opcode::Lea,
        &[
            (W, "8(rdi,rsi,4), ax"),
            (L, "8(rdi,rsi,4), eax"),
            (Q, "-8(rsp), rax"),
        ],
        lq,
        wlq,
    );

    // One-operand forms.
    for (base, op) in [
        ("neg", UnOp::Neg),
        ("not", UnOp::Not),
        ("inc", UnOp::Inc),
        ("dec", UnOp::Dec),
    ] {
        rows.family(base, |w| Opcode::Un(op, w), &ONE_REG, blq, all);
    }
    rows.family("imul", Opcode::Imul1, &ONE_REG, lq, wlq);
    rows.family("mul", Opcode::Mul1, &ONE_REG, lq, wlq);
    rows.family("div", Opcode::Div, &ONE_REG, lq, wlq);
    rows.family("idiv", Opcode::Idiv, &ONE_REG, lq, wlq);
    rows.family(
        "bswap",
        |w| Opcode::Bits(BitOp::Bswap, w),
        &[(L, "ecx"), (Q, "rcx")],
        lq,
        lq,
    );
    rows.family("imul", Opcode::Imul1, &[(Q, "(rdi)")], lq, &[Q]);
    rows.family(
        "inc",
        |w| Opcode::Un(UnOp::Inc, w),
        &[(Q, "8(rdi)")],
        lq,
        &[Q],
    );

    // Shifts and rotates, by an immediate and by cl; `sal` is `shl`.
    for (base, op) in [
        ("shl", ShiftOp::Shl),
        ("shr", ShiftOp::Shr),
        ("sar", ShiftOp::Sar),
        ("rol", ShiftOp::Rol),
        ("ror", ShiftOp::Ror),
    ] {
        rows.family(base, |w| Opcode::Shift(op, w), &COUNTS, blq, all);
    }
    for (w, operands) in COUNTS {
        let printed = format!("shl{} {operands}", w.suffix());
        let shl = Opcode::Shift(ShiftOp::Shl, w);
        if w != W {
            rows.add(
                format!("sal{} {operands}", w.suffix()),
                shl,
                printed.clone(),
            );
        }
        rows.add(format!("sal {operands}"), shl, printed);
    }

    // Conditional moves and sets under every condition.
    for c in Cond::ALL {
        let cc = c.name();
        rows.add(
            format!("cmov{cc}l esi, ecx"),
            Opcode::Cmov(c, L),
            format!("cmov{cc}l esi, ecx"),
        );
        rows.add(
            format!("cmov{cc}q rsi, rcx"),
            Opcode::Cmov(c, Q),
            format!("cmov{cc}q rsi, rcx"),
        );
        rows.add(
            format!("cmov{cc} rax, rbx"),
            Opcode::Cmov(c, Q),
            format!("cmov{cc}q rax, rbx"),
        );
        rows.add(
            format!("cmov{cc} (rdi), ebx"),
            Opcode::Cmov(c, L),
            format!("cmov{cc}l (rdi), ebx"),
        );
        rows.add(
            format!("cmov{cc} si, bx"),
            Opcode::Cmov(c, W),
            format!("cmov{cc}w si, bx"),
        );
        rows.add(format!("set{cc} dl"), Opcode::Set(c), format!("set{cc} dl"));
        rows.add(
            format!("set{cc} (rsi)"),
            Opcode::Set(c),
            format!("set{cc} (rsi)"),
        );
    }

    // Fixed-width names and the aliases.
    for (text, opcode, printed) in [
        (
            "movabsq 0x100000000, rdx",
            Opcode::Movabs,
            "movabsq 4294967296, rdx",
        ),
        ("movabs -1, rdx", Opcode::Movabs, "movabsq -1, rdx"),
        ("movslq ecx, rcx", Opcode::Movslq, "movslq ecx, rcx"),
        ("movsbq dil, rcx", Opcode::Movsbq, "movsbq dil, rcx"),
        ("movsbl (rdi), eax", Opcode::Movsbl, "movsbl (rdi), eax"),
        ("movzbq al, rax", Opcode::Movzbq, "movzbq al, rax"),
        ("movzbl dil, ebx", Opcode::Movzbl, "movzbl dil, ebx"),
        ("pushq rbx", Opcode::Push, "pushq rbx"),
        ("push rbx", Opcode::Push, "pushq rbx"),
        ("popq r12", Opcode::Pop, "popq r12"),
        ("pop r12", Opcode::Pop, "popq r12"),
        ("cqto", Opcode::Cqto, "cqto"),
        ("cqo", Opcode::Cqto, "cqto"),
        ("cltq", Opcode::Cltq, "cltq"),
        ("cdqe", Opcode::Cltq, "cltq"),
        ("cltd", Opcode::Cltd, "cltd"),
        ("cdq", Opcode::Cltd, "cltd"),
        ("nop", Opcode::Nop, "nop"),
    ] {
        rows.add(text, opcode, printed);
    }

    // SSE names.
    for m in SseMov128::ALL {
        let name = m.name();
        rows.add(
            format!("{name} (rsi,rcx,4), xmm1"),
            Opcode::Mov128(m),
            format!("{name} (rsi,rcx,4), xmm1"),
        );
        rows.add(
            format!("{name} xmm0, xmm15"),
            Opcode::Mov128(m),
            format!("{name} xmm0, xmm15"),
        );
    }
    for op in SseBinOp::ALL {
        let name = op.name();
        let text = format!("{name} xmm1, xmm0");
        rows.add(text.clone(), Opcode::SseBin(op), text);
    }
    for op in SseShiftOp::ALL {
        let name = op.name();
        let text = format!("{name} 3, xmm2");
        rows.add(text.clone(), Opcode::SseShift(op), text);
    }
    for (text, opcode) in [
        ("pshufd 27, xmm1, xmm0", Opcode::Pshufd),
        ("shufps 0, (rdi), xmm0", Opcode::Shufps),
        ("punpckldq xmm1, xmm0", Opcode::Punpckldq),
        ("punpcklqdq (rdi), xmm0", Opcode::Punpcklqdq),
    ] {
        rows.add(text, opcode, text);
    }

    // Names shared between opcodes: the operands choose.
    for (text, opcode, printed) in [
        ("movq rsi, r9", Opcode::Mov(Q), "movq rsi, r9"),
        ("movq 5, rax", Opcode::Mov(Q), "movq 5, rax"),
        ("movq (rdi), rax", Opcode::Mov(Q), "movq (rdi), rax"),
        ("movq rax, xmm3", Opcode::MovqToXmm, "movq rax, xmm3"),
        ("movq xmm3, rax", Opcode::MovqFromXmm, "movq xmm3, rax"),
        ("movd edi, xmm0", Opcode::MovdToXmm, "movd edi, xmm0"),
        ("movd xmm0, edi", Opcode::MovdFromXmm, "movd xmm0, edi"),
        ("imulq rsi", Opcode::Imul1(Q), "imulq rsi"),
        ("imulq rsi, rax", Opcode::Imul2(Q), "imulq rsi, rax"),
        ("imulq 3, rax", Opcode::Imul2(Q), "imulq 3, rax"),
        ("imull esi", Opcode::Imul1(L), "imull esi"),
        ("imull (rdi), eax", Opcode::Imul2(L), "imull (rdi), eax"),
        ("imul esi", Opcode::Imul1(L), "imull esi"),
        ("imul 100, eax", Opcode::Imul2(L), "imull 100, eax"),
    ] {
        rows.add(text, opcode, printed);
    }

    // Upper case, `%` registers and `$` immediates.
    for (text, opcode, printed) in [
        ("MOVQ rdi, rax", Opcode::Mov(Q), "movq rdi, rax"),
        ("Mov edx, edx", Opcode::Mov(L), "movl edx, edx"),
        ("ADDL $1, %eax", Opcode::Alu(AluOp::Add, L), "addl 1, eax"),
        ("SALQ 3, rax", Opcode::Shift(ShiftOp::Shl, Q), "shlq 3, rax"),
        (
            "CMOVNE rax, rbx",
            Opcode::Cmov(Cond::Ne, Q),
            "cmovneq rax, rbx",
        ),
        ("SETAE cl", Opcode::Set(Cond::Ae), "setae cl"),
        ("PUSH rbx", Opcode::Push, "pushq rbx"),
        ("CQO", Opcode::Cqto, "cqto"),
        (
            "PADDD xmm1, xmm0",
            Opcode::SseBin(SseBinOp::Paddd),
            "paddd xmm1, xmm0",
        ),
        ("MovQ %xmm1, %rax", Opcode::MovqFromXmm, "movq xmm1, rax"),
        ("ImulQ %rsi", Opcode::Imul1(Q), "imulq rsi"),
    ] {
        rows.add(text, opcode, printed);
    }
    rows.0
}

#[test]
fn every_spelling_parses_to_its_instruction() {
    let rows = spellings();
    assert!(rows.len() > 350, "only {} spellings", rows.len());
    for (text, opcode, printed) in &rows {
        let program: Program = text
            .parse()
            .unwrap_or_else(|e| panic!("{text:?} does not parse: {e}"));
        assert_eq!(program.len(), 1, "{text:?}");
        let instr = &program.instrs()[0];
        assert_eq!(instr.opcode(), *opcode, "{text:?}");
        assert_eq!(instr.to_string(), *printed, "{text:?}");
    }
}
