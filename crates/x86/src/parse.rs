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
//! Mnemonics are the printer's names ([`Opcode::name`]), so every printed
//! instruction parses back: `b`, `w`, `l` and `q` width suffixes, the
//! condition codes of `cmov{cc}` and `set{cc}`, and the SSE names. A
//! width-parametric mnemonic may drop its suffix and take the width of
//! its last register operand (`mov edx, edx`). Mnemonics are case
//! insensitive, and `sal*`, `push`, `pop`, `movabs`, `cqo`, `cdqe` and
//! `cdq` are aliases of `shl*`, `pushq`, `popq`, `movabsq`, `cqto`,
//! `cltq` and `cltd`.
//!
//! Immediate operands may also be written with a leading `$`, and `#`
//! starts a comment. The parser is intentionally strict about everything
//! else: unknown mnemonics and malformed operands are errors, because the
//! benchmarks in `stoke-workloads` must only use modelled instructions.

use crate::instr::{InstrError, Instruction};
use crate::opcode::Opcode;
use crate::operand::{Mem, Operand, Scale};
use crate::program::Program;
use crate::reg::{Reg, Width, Xmm};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

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
    resolve(mnemonic, &operands)
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

/// The printer's names inverted: each mnemonic [`Opcode::name`] gives
/// to an opcode of [`Opcode::all_widths`], with the opcodes it names
/// (more than one only for `movq`, `movd` and `imul*`, which the operands
/// tell apart).
fn mnemonics() -> &'static HashMap<String, Vec<Opcode>> {
    static TABLE: OnceLock<HashMap<String, Vec<Opcode>>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table: HashMap<String, Vec<Opcode>> = HashMap::new();
        for op in Opcode::all_widths() {
            table.entry(op.name()).or_default().push(op);
        }
        table
    })
}

/// Resolve a mnemonic: a printed name; a width-parametric name without
/// its suffix, taking the width of the last register operand (the paper's
/// `mov edx, edx`); or one of the aliases below. Where opcodes share a
/// name, the one that accepts the operands is chosen; if none does, the
/// error is that of the first one of the operands' arity, or else of the
/// first one.
fn resolve(mnemonic: &str, operands: &[Operand]) -> Result<Instruction, String> {
    let mut m = mnemonic.to_ascii_lowercase();
    if let Some(width) = m.strip_prefix("sal") {
        m = format!("shl{width}");
    }
    let m = match m.as_str() {
        "movabs" => "movabsq",
        "push" => "pushq",
        "pop" => "popq",
        "cqo" => "cqto",
        "cdqe" => "cltq",
        "cdq" => "cltd",
        m => m,
    };
    let table = mnemonics();
    let (named, bare) = match table.get(m) {
        Some(named) => (named.as_slice(), false),
        None => {
            let width = operands
                .iter()
                .rev()
                .find_map(Operand::as_reg)
                .map_or(Width::Q, Reg::width);
            let suffixed = format!("{m}{}", width.suffix());
            (table.get(&suffixed).map_or(&[][..], Vec::as_slice), true)
        }
    };
    // Only a width-parametric opcode drops its suffix: `clt` is not
    // `cltq`, nor is `movzb` `movzbq`.
    let candidates = named
        .iter()
        .filter(|op| !bare || op.with_width(Width::B) != op.with_width(Width::Q));
    let mut rejected: Option<(bool, InstrError)> = None;
    for &op in candidates {
        let fits = op.arity() == operands.len();
        match Instruction::new(op, operands) {
            Ok(instr) => return Ok(instr),
            Err(e) if rejected.as_ref().is_none_or(|(f, _)| fits && !f) => {
                rejected = Some((fits, e));
            }
            Err(_) => {}
        }
    }
    Err(rejected.map_or_else(
        || format!("unknown mnemonic '{}'", mnemonic),
        |(_, e)| e.to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::{Cond, ShiftOp, SseMov128};
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
