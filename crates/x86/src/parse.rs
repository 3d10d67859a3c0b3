//! A parser for the AT&T-flavoured assembly syntax used throughout the
//! paper (and by this repository's printer).
//!
//! The accepted syntax is the one the paper's figures use:
//!
//! ```text
//! .set c0 0xffffffff          # named constants
//! .L0                         # labels (ignored)
//! movq rsi, r9                # registers may be written with or without %
//! shrq 32, rsi                # immediates without $
//! andl c1, r9d                # named constants as immediates
//! movl (rsi,rcx,4), eax       # base/index/scale/displacement addressing
//! movq -8(rsp), rdi
//! ```
//!
//! Immediate operands may also be written with a leading `$`, and `#`
//! starts a comment. The parser is intentionally strict about everything
//! else: unknown mnemonics and malformed operands are errors, because the
//! benchmarks in `stoke-workloads` must only use modelled instructions.

use crate::instr::{InstrError, Instruction};
use crate::opcode::{AluOp, BitOp, Cond, Opcode, ShiftOp, SseBinOp, SseMov128, SseShiftOp, UnOp};
use crate::operand::{Mem, Operand, Scale};
use crate::program::Program;
use crate::reg::{Reg, Width, Xmm};
use std::collections::HashMap;
use std::fmt;

/// An error produced while parsing assembly text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parse a whole program. See the module documentation for the accepted
/// syntax.
///
/// # Errors
/// Returns a [`ParseError`] naming the offending line on malformed input.
pub fn parse_program(text: &str) -> Result<Program, ParseError> {
    let mut constants: HashMap<String, i64> = HashMap::new();
    let mut program = Program::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let stripped = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let stripped = stripped.trim();
        if stripped.is_empty() {
            continue;
        }
        if let Some(rest) = stripped.strip_prefix(".set") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| err(line, ".set requires a name and a value"))?
                .trim_end_matches(',');
            let value = parts
                .next()
                .ok_or_else(|| err(line, ".set requires a value"))?;
            let value = parse_int(value)
                .ok_or_else(|| err(line, format!("bad constant value '{}'", value)))?;
            constants.insert(name.to_string(), value);
            continue;
        }
        if stripped.starts_with('.') || stripped.ends_with(':') {
            // Label or directive: ignored (programs are loop-free).
            continue;
        }
        let instr = parse_instruction(stripped, &constants).map_err(|m| err(line, m))?;
        program.push(instr);
    }
    Ok(program)
}

/// Parse a single instruction (no labels, comments already stripped).
pub fn parse_instruction(
    text: &str,
    constants: &HashMap<String, i64>,
) -> Result<Instruction, String> {
    let text = text.trim();
    let (mnemonic, rest) = match text.find(char::is_whitespace) {
        Some(pos) => (&text[..pos], text[pos..].trim()),
        None => (text, ""),
    };
    let operands = parse_operands(rest, constants)?;
    let opcode = resolve_opcode(mnemonic, &operands)?;
    Instruction::new(opcode, operands).map_err(|e: InstrError| e.to_string())
}

fn parse_operands(text: &str, constants: &HashMap<String, i64>) -> Result<Vec<Operand>, String> {
    if text.is_empty() {
        return Ok(vec![]);
    }
    split_operands(text)
        .into_iter()
        .map(|t| parse_operand(t.trim(), constants))
        .collect()
}

/// Split an operand list on commas that are not inside parentheses.
fn split_operands(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&text[start..]);
    out
}

fn parse_int(text: &str) -> Option<i64> {
    let text = text.trim();
    let (neg, text) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text),
    };
    let value = if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()? as i64
    } else {
        // Parse through u64 so that full-width unsigned constants work.
        text.parse::<i64>()
            .ok()
            .or_else(|| text.parse::<u64>().ok().map(|v| v as i64))?
    };
    Some(if neg { value.wrapping_neg() } else { value })
}

fn parse_operand(text: &str, constants: &HashMap<String, i64>) -> Result<Operand, String> {
    if text.is_empty() {
        return Err("empty operand".to_string());
    }
    // Memory operand?
    if text.contains('(') {
        return parse_mem(text, constants).map(Operand::Mem);
    }
    // Immediate with $ prefix.
    if let Some(imm) = text.strip_prefix('$') {
        return resolve_imm(imm, constants);
    }
    // Register?
    if let Some(r) = Reg::parse(text) {
        return Ok(Operand::Reg(r));
    }
    if let Some(x) = Xmm::parse(text) {
        return Ok(Operand::Xmm(x));
    }
    // Bare integer or named constant.
    resolve_imm(text, constants)
}

fn resolve_imm(text: &str, constants: &HashMap<String, i64>) -> Result<Operand, String> {
    if let Some(v) = parse_int(text) {
        return Ok(Operand::Imm(v));
    }
    if let Some(v) = constants.get(text) {
        return Ok(Operand::Imm(*v));
    }
    Err(format!("unknown operand '{}'", text))
}

fn parse_mem(text: &str, constants: &HashMap<String, i64>) -> Result<Mem, String> {
    let open = text.find('(').ok_or("expected '('")?;
    let close = text.rfind(')').ok_or("expected ')'")?;
    if close < open {
        return Err(format!("malformed memory operand '{}'", text));
    }
    let disp_text = text[..open].trim();
    let disp = if disp_text.is_empty() {
        0
    } else if let Some(v) = parse_int(disp_text) {
        v
    } else if let Some(v) = constants.get(disp_text) {
        *v
    } else {
        return Err(format!("bad displacement '{}'", disp_text));
    };
    let disp = i32::try_from(disp).map_err(|_| format!("displacement '{}' out of range", disp))?;
    let inner = &text[open + 1..close];
    let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
    if parts.len() > 3 {
        return Err(format!("too many address components in '{}'", text));
    }
    let parse_base = |t: &str| -> Result<Option<crate::reg::Gpr>, String> {
        if t.is_empty() {
            return Ok(None);
        }
        let r = Reg::parse(t).ok_or_else(|| format!("bad address register '{}'", t))?;
        if r.width() != Width::Q {
            return Err(format!("address register '{}' must be 64-bit", t));
        }
        Ok(Some(r.parent()))
    };
    let base = parse_base(parts.first().copied().unwrap_or(""))?;
    let index = parse_base(parts.get(1).copied().unwrap_or(""))?;
    let scale = match parts.get(2) {
        None | Some(&"") => Scale::S1,
        Some(s) => {
            let f = parse_int(s).ok_or_else(|| format!("bad scale '{}'", s))?;
            Scale::from_factor(f as u64).ok_or_else(|| format!("bad scale '{}'", s))?
        }
    };
    Ok(Mem {
        base,
        index,
        scale,
        disp,
    })
}

/// Resolve a mnemonic, using operand kinds to disambiguate (e.g. `movd`
/// to/from XMM, one- vs two-operand `imul`).
fn resolve_opcode(mnemonic: &str, operands: &[Operand]) -> Result<Opcode, String> {
    use Width::{B, L, Q};
    let m = mnemonic.to_ascii_lowercase();
    // Width inferred from the register operands, for suffix-less mnemonics
    // like the paper's `mov edx, edx`.
    let inferred_width = operands
        .iter()
        .rev()
        .find_map(Operand::as_reg)
        .map(Reg::width)
        .unwrap_or(Q);
    // Width-suffixed scalar mnemonics; a bare mnemonic takes the width of
    // its register operands.
    let with_width = |base: &str, f: &dyn Fn(Width) -> Opcode| -> Option<Opcode> {
        for (suffix, w) in [("b", B), ("l", L), ("q", Q)] {
            if m == format!("{}{}", base, suffix) {
                return Some(f(w));
            }
        }
        if m == base {
            return Some(f(inferred_width));
        }
        None
    };
    // SSE / fixed mnemonics first.
    match m.as_str() {
        "movabsq" | "movabs" => return Ok(Opcode::Movabs),
        "movslq" => return Ok(Opcode::Movslq),
        "movsbq" => return Ok(Opcode::Movsbq),
        "movsbl" => return Ok(Opcode::Movsbl),
        "movzbq" => return Ok(Opcode::Movzbq),
        "movzbl" => return Ok(Opcode::Movzbl),
        "pushq" | "push" => return Ok(Opcode::Push),
        "popq" | "pop" => return Ok(Opcode::Pop),
        "cqto" | "cqo" => return Ok(Opcode::Cqto),
        "cltq" | "cdqe" => return Ok(Opcode::Cltq),
        "cltd" | "cdq" => return Ok(Opcode::Cltd),
        "nop" => return Ok(Opcode::Nop),
        "pshufd" => return Ok(Opcode::Pshufd),
        "shufps" => return Ok(Opcode::Shufps),
        "punpckldq" => return Ok(Opcode::Punpckldq),
        "punpcklqdq" => return Ok(Opcode::Punpcklqdq),
        "movd" => {
            return Ok(match operands.first() {
                Some(Operand::Xmm(_)) => Opcode::MovdFromXmm,
                _ => Opcode::MovdToXmm,
            })
        }
        _ => {}
    }
    for sse in SseMov128::ALL {
        if m == sse.name() {
            return Ok(Opcode::Mov128(sse));
        }
    }
    for op in SseBinOp::ALL {
        if m == op.name() {
            return Ok(Opcode::SseBin(op));
        }
    }
    for op in SseShiftOp::ALL {
        if m == op.name() {
            return Ok(Opcode::SseShift(op));
        }
    }
    // movq is ambiguous between the GPR move and the GPR<->XMM move.
    if m == "movq" {
        let has_xmm = operands.iter().any(|o| matches!(o, Operand::Xmm(_)));
        if has_xmm {
            return Ok(match operands.first() {
                Some(Operand::Xmm(_)) => Opcode::MovqFromXmm,
                _ => Opcode::MovqToXmm,
            });
        }
        return Ok(Opcode::Mov(Q));
    }
    if let Some(op) = with_width("mov", &Opcode::Mov) {
        return Ok(op);
    }
    if let Some(op) = with_width("lea", &Opcode::Lea) {
        return Ok(op);
    }
    if let Some(op) = with_width("xchg", &Opcode::Xchg) {
        return Ok(op);
    }
    for (name, alu) in [
        ("add", AluOp::Add),
        ("adc", AluOp::Adc),
        ("sub", AluOp::Sub),
        ("sbb", AluOp::Sbb),
        ("and", AluOp::And),
        ("or", AluOp::Or),
        ("xor", AluOp::Xor),
    ] {
        if let Some(op) = with_width(name, &|w| Opcode::Alu(alu, w)) {
            return Ok(op);
        }
    }
    if let Some(op) = with_width("cmp", &Opcode::Cmp) {
        return Ok(op);
    }
    if let Some(op) = with_width("test", &Opcode::Test) {
        return Ok(op);
    }
    for (name, un) in [
        ("neg", UnOp::Neg),
        ("not", UnOp::Not),
        ("inc", UnOp::Inc),
        ("dec", UnOp::Dec),
    ] {
        if let Some(op) = with_width(name, &|w| Opcode::Un(un, w)) {
            return Ok(op);
        }
    }
    if let Some(op) = with_width("imul", &|w| {
        if operands.len() == 1 {
            Opcode::Imul1(w)
        } else {
            Opcode::Imul2(w)
        }
    }) {
        return Ok(op);
    }
    if let Some(op) = with_width("mul", &Opcode::Mul1) {
        return Ok(op);
    }
    if let Some(op) = with_width("div", &Opcode::Div) {
        return Ok(op);
    }
    if let Some(op) = with_width("idiv", &Opcode::Idiv) {
        return Ok(op);
    }
    for (name, sh) in [
        ("shl", ShiftOp::Shl),
        ("sal", ShiftOp::Shl),
        ("shr", ShiftOp::Shr),
        ("sar", ShiftOp::Sar),
        ("rol", ShiftOp::Rol),
        ("ror", ShiftOp::Ror),
    ] {
        if let Some(op) = with_width(name, &|w| Opcode::Shift(sh, w)) {
            return Ok(op);
        }
    }
    for (name, bit) in [
        ("popcnt", BitOp::Popcnt),
        ("bsf", BitOp::Bsf),
        ("bsr", BitOp::Bsr),
        ("bswap", BitOp::Bswap),
    ] {
        if let Some(op) = with_width(name, &|w| Opcode::Bits(bit, w)) {
            return Ok(op);
        }
    }
    // cmov{cc}{w} and set{cc}.
    if let Some(rest) = m.strip_prefix("cmov") {
        // Try to strip a width suffix; default to the destination width.
        for (suffix, w) in [("q", Q), ("l", L)] {
            if let Some(cc) = rest.strip_suffix(suffix) {
                if let Some(c) = Cond::parse(cc) {
                    return Ok(Opcode::Cmov(c, w));
                }
            }
        }
        if let Some(c) = Cond::parse(rest) {
            let w = operands
                .last()
                .and_then(Operand::as_reg)
                .map(Reg::width)
                .unwrap_or(Q);
            return Ok(Opcode::Cmov(c, w));
        }
    }
    if let Some(rest) = m.strip_prefix("set") {
        if let Some(c) = Cond::parse(rest) {
            return Ok(Opcode::Set(c));
        }
    }
    Err(format!("unknown mnemonic '{}'", mnemonic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Gpr;

    #[test]
    fn parses_montgomery_stoke_rewrite() {
        // The STOKE rewrite from Figure 1 (right column).
        let text = "
            .L0
            shlq 32, rcx
            mov edx, edx
            xorq rdx, rcx
            movq rcx, rax
            mulq rsi
            addq r8, rdi
            adcq 0, rdx
            addq rdi, rax
            adcq 0, rdx
            movq rdx, r8
            movq rax, rdi
        ";
        let p: Program = text.parse().unwrap();
        assert_eq!(p.len(), 11);
        assert_eq!(p.instrs()[4].opcode(), Opcode::Mul1(Width::Q));
        assert_eq!(p.instrs()[0].to_string(), "shlq 32, rcx");
        // `mov edx, edx` has no width suffix in the paper; it parses from
        // the operands as a 32-bit move.
        assert_eq!(p.instrs()[1].opcode(), Opcode::Mov(Width::L));
    }

    #[test]
    fn parses_set_directive_constants() {
        let text = "
            .set c0 0xffffffff
            .set c1, 0x100000000
            andl c0, r9d
            movabsq c1, rdx
        ";
        let p: Program = text.parse().unwrap();
        assert_eq!(p.instrs()[0].operands()[0], Operand::Imm(0xffff_ffff));
        assert_eq!(p.instrs()[1].operands()[0], Operand::Imm(0x1_0000_0000));
    }

    #[test]
    fn parses_memory_operands() {
        let text = "
            movslq ecx, rcx
            leaq (rsi,rcx,4), r8
            movl (r8), eax
            imull edi, eax
            addl (rdx,rcx,4), eax
            movl eax, (r8)
            movq -8(rsp), rdi
        ";
        let p: Program = text.parse().unwrap();
        assert_eq!(p.len(), 7);
        let lea = &p.instrs()[1];
        let mem = lea.mem_operand().unwrap();
        assert_eq!(mem.base, Some(Gpr::Rsi));
        assert_eq!(mem.index, Some(Gpr::Rcx));
        assert_eq!(mem.scale, Scale::S4);
        let last = &p.instrs()[6];
        assert_eq!(last.mem_operand().unwrap().disp, -8);
    }

    #[test]
    fn parses_sse_saxpy_rewrite() {
        // Figure 14 (bottom): the STOKE SSE rewrite of SAXPY.
        let text = "
            movd edi, xmm0
            shufps 0, xmm0, xmm0
            movups (rsi,rcx,4), xmm1
            pmullw xmm1, xmm0
            movups (rdx,rcx,4), xmm1
            paddw xmm1, xmm0
            movups xmm0, (rsi,rcx,4)
        ";
        let p: Program = text.parse().unwrap();
        assert_eq!(p.len(), 7);
        assert_eq!(p.instrs()[0].opcode(), Opcode::MovdToXmm);
        assert_eq!(p.instrs()[1].opcode(), Opcode::Shufps);
        assert_eq!(p.instrs()[6].opcode(), Opcode::Mov128(SseMov128::Movups));
    }

    #[test]
    fn parses_cmov_and_setcc() {
        let text = "
            cmpl edi, ecx
            cmovel esi, ecx
            sete dl
            cmovne rax, rbx
        ";
        let p: Program = text.parse().unwrap();
        assert_eq!(p.instrs()[1].opcode(), Opcode::Cmov(Cond::E, Width::L));
        assert_eq!(p.instrs()[2].opcode(), Opcode::Set(Cond::E));
        assert_eq!(p.instrs()[3].opcode(), Opcode::Cmov(Cond::Ne, Width::Q));
    }

    #[test]
    fn accepts_percent_and_dollar_prefixes() {
        let p: Program = "movq $5, %rax\naddq %rdi, %rax".parse().unwrap();
        assert_eq!(p.instrs()[0].operands()[0], Operand::Imm(5));
    }

    #[test]
    fn rejects_unknown_mnemonic() {
        let e = "frobnicate rax, rbx".parse::<Program>().unwrap_err();
        assert!(e.message.contains("unknown mnemonic"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn rejects_one_operand_byte_multiply_and_divide() {
        for text in ["mulb cl", "mul cl", "imulb (rdi)", "divb cl", "idivb dl"] {
            let e = text.parse::<Program>().unwrap_err();
            assert!(e.message.contains("AH"), "{text}: {}", e.message);
        }
        let cl = Operand::Reg(Reg::new(crate::Gpr::Rcx, Width::B));
        assert!(Instruction::new(Opcode::Mul1(Width::B), [cl]).is_err());
        // The wider forms stay.
        let wide: Program = "mulq rcx\nimull ecx\ndivl ecx\nidivq (rdi)"
            .parse()
            .unwrap();
        assert_eq!(wide.len(), 4);
    }

    #[test]
    fn rejects_bad_operand_width() {
        let e = "addq eax, rbx".parse::<Program>().unwrap_err();
        assert!(e.message.contains("does not accept"));
    }

    #[test]
    fn rejects_narrow_address_register() {
        let e = "movl (ecx), eax".parse::<Program>().unwrap_err();
        assert!(e.message.contains("64-bit"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p: Program = "# a comment\n\nmovq rdi, rax   # trailing\n"
            .parse()
            .unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn one_op_imul_vs_two_op() {
        let p: Program = "imulq rsi\nimulq rsi, rax".parse().unwrap();
        assert_eq!(p.instrs()[0].opcode(), Opcode::Imul1(Width::Q));
        assert_eq!(p.instrs()[1].opcode(), Opcode::Imul2(Width::Q));
    }

    #[test]
    fn salq_is_shlq() {
        let p: Program = "salq 32, rdx".parse().unwrap();
        assert_eq!(
            p.instrs()[0].opcode(),
            Opcode::Shift(ShiftOp::Shl, Width::Q)
        );
    }

    #[test]
    fn negative_and_hex_immediates() {
        let p: Program = "addq -16, rsp\nmovabsq 0xffffffffffffffff, rax"
            .parse()
            .unwrap();
        assert_eq!(p.instrs()[0].operands()[0], Operand::Imm(-16));
        assert_eq!(p.instrs()[1].operands()[0], Operand::Imm(-1));
    }
}
