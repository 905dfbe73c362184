//! Data-processing semantics: the barrel shifter and the ALU with flags.
//!
//! Implements the integer and bitwise arithmetic the paper models (§5.1),
//! including the architectural carry-out rules for the flexible second
//! operand, which guest code relies on for multi-word arithmetic and
//! compare-and-branch sequences.

use crate::insn::{DpOp, Op2, Shift};
use crate::psr::Psr;
use crate::word::Word;

/// The value and shifter carry-out of evaluating an [`Op2`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShifterResult {
    /// Operand value.
    pub value: Word,
    /// Shifter carry-out (feeds `C` for logical operations with `S`).
    pub carry: bool,
}

/// Evaluates a flexible second operand given a register-read function.
#[inline]
pub fn eval_op2(
    op2: Op2,
    carry_in: bool,
    read: impl Fn(crate::regs::Reg) -> Word,
) -> ShifterResult {
    match op2 {
        Op2::Imm { imm8, rot } => {
            let value = (imm8 as u32).rotate_right(2 * rot as u32);
            let carry = if rot == 0 {
                carry_in
            } else {
                value & 0x8000_0000 != 0
            };
            ShifterResult { value, carry }
        }
        Op2::Reg { rm, shift, amount } => shift_value(read(rm), shift, amount, carry_in),
    }
}

/// Applies an immediate shift with architectural amount-zero semantics:
/// `LSL #0` is the identity, `LSR #0`/`ASR #0` encode a 32-bit shift, and
/// `ROR #0` (RRX) is outside the modelled subset so it behaves as identity
/// with the carry unchanged (the assembler never emits it).
#[inline]
pub fn shift_value(v: Word, shift: Shift, amount: u8, carry_in: bool) -> ShifterResult {
    let a = amount as u32;
    match shift {
        Shift::Lsl => {
            if a == 0 {
                ShifterResult {
                    value: v,
                    carry: carry_in,
                }
            } else {
                ShifterResult {
                    value: v << a,
                    carry: v & (1 << (32 - a)) != 0,
                }
            }
        }
        Shift::Lsr => {
            let a = if a == 0 { 32 } else { a };
            if a == 32 {
                ShifterResult {
                    value: 0,
                    carry: v & 0x8000_0000 != 0,
                }
            } else {
                ShifterResult {
                    value: v >> a,
                    carry: v & (1 << (a - 1)) != 0,
                }
            }
        }
        Shift::Asr => {
            let a = if a == 0 { 32 } else { a };
            if a == 32 {
                let fill = if v & 0x8000_0000 != 0 { !0 } else { 0 };
                ShifterResult {
                    value: fill,
                    carry: v & 0x8000_0000 != 0,
                }
            } else {
                ShifterResult {
                    value: ((v as i32) >> a) as u32,
                    carry: v & (1 << (a - 1)) != 0,
                }
            }
        }
        Shift::Ror => {
            if a == 0 {
                // RRX unmodelled; identity keeps the assembler subset total.
                ShifterResult {
                    value: v,
                    carry: carry_in,
                }
            } else {
                let value = v.rotate_right(a);
                ShifterResult {
                    value,
                    carry: value & 0x8000_0000 != 0,
                }
            }
        }
    }
}

/// Value-only evaluation of a flexible second operand.
///
/// The shifter's *value* never depends on the carry-in (only its
/// carry-out does, which flags-free instructions discard), so this is the
/// [`eval_op2`] result's `value` field, minus the carry bookkeeping —
/// `dp_value_path_matches_full_alu` checks the equivalence exhaustively.
#[inline]
pub fn eval_op2_value(op2: Op2, read: impl Fn(crate::regs::Reg) -> Word) -> Word {
    match op2 {
        Op2::Imm { imm8, rot } => (imm8 as u32).rotate_right(2 * rot as u32),
        Op2::Reg { rm, shift, amount } => shift_value(read(rm), shift, amount, false).value,
    }
}

/// Value-only ALU for flags-free data processing (`S` clear, not a
/// compare): just the word written to `Rd`, skipping the NZCV
/// computation [`alu`] always performs. Compare opcodes (which never
/// take this path — they always set flags) yield their would-be result.
/// `dp_value_path_matches_full_alu` checks the equivalence against
/// [`alu`] for every opcode and carry-in.
#[inline]
pub fn alu_value(op: DpOp, rn: Word, op2: Word, carry_in: bool) -> Word {
    let borrow = !carry_in as u32;
    match op {
        DpOp::And | DpOp::Tst => rn & op2,
        DpOp::Eor | DpOp::Teq => rn ^ op2,
        DpOp::Orr => rn | op2,
        DpOp::Bic => rn & !op2,
        DpOp::Mov => op2,
        DpOp::Mvn => !op2,
        DpOp::Add | DpOp::Cmn => rn.wrapping_add(op2),
        DpOp::Adc => rn.wrapping_add(op2).wrapping_add(carry_in as u32),
        DpOp::Sub | DpOp::Cmp => rn.wrapping_sub(op2),
        DpOp::Sbc => rn.wrapping_sub(op2).wrapping_sub(borrow),
        DpOp::Rsb => op2.wrapping_sub(rn),
        DpOp::Rsc => op2.wrapping_sub(rn).wrapping_sub(borrow),
    }
}

/// Result of a data-processing operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AluResult {
    /// Value to write to `Rd` (`None` for compares).
    pub value: Option<Word>,
    /// Updated NZCV, applied only when the instruction sets flags.
    pub n: bool,
    /// Zero flag.
    pub z: bool,
    /// Carry flag.
    pub c: bool,
    /// Overflow flag.
    pub v: bool,
}

/// `a + b + carry` with its carry-out and signed overflow — the adder
/// every arithmetic opcode runs through (subtraction is `a + !b + 1`).
#[inline]
pub(crate) fn add_with_carry(a: Word, b: Word, carry: bool) -> (Word, bool, bool) {
    let (s1, c1) = a.overflowing_add(b);
    let (sum, c2) = s1.overflowing_add(carry as u32);
    let carry_out = c1 || c2;
    let overflow = ((a ^ sum) & (b ^ sum)) & 0x8000_0000 != 0;
    (sum, carry_out, overflow)
}

/// Executes a data-processing opcode.
#[inline]
pub fn alu(op: DpOp, rn: Word, op2: ShifterResult, psr: Psr) -> AluResult {
    let (value, c, v) = match op {
        DpOp::And | DpOp::Tst => (rn & op2.value, op2.carry, psr.v),
        DpOp::Eor | DpOp::Teq => (rn ^ op2.value, op2.carry, psr.v),
        DpOp::Orr => (rn | op2.value, op2.carry, psr.v),
        DpOp::Bic => (rn & !op2.value, op2.carry, psr.v),
        DpOp::Mov => (op2.value, op2.carry, psr.v),
        DpOp::Mvn => (!op2.value, op2.carry, psr.v),
        DpOp::Add | DpOp::Cmn => {
            let (s, c, v) = add_with_carry(rn, op2.value, false);
            (s, c, v)
        }
        DpOp::Adc => {
            let (s, c, v) = add_with_carry(rn, op2.value, psr.c);
            (s, c, v)
        }
        DpOp::Sub | DpOp::Cmp => {
            let (s, c, v) = add_with_carry(rn, !op2.value, true);
            (s, c, v)
        }
        DpOp::Sbc => {
            let (s, c, v) = add_with_carry(rn, !op2.value, psr.c);
            (s, c, v)
        }
        DpOp::Rsb => {
            let (s, c, v) = add_with_carry(op2.value, !rn, true);
            (s, c, v)
        }
        DpOp::Rsc => {
            let (s, c, v) = add_with_carry(op2.value, !rn, psr.c);
            (s, c, v)
        }
    };
    AluResult {
        value: if op.is_compare() { None } else { Some(value) },
        n: value & 0x8000_0000 != 0,
        z: value == 0,
        c,
        v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::Reg;

    fn psr() -> Psr {
        Psr::user()
    }

    #[test]
    fn dp_value_path_matches_full_alu() {
        let ops = [
            DpOp::And,
            DpOp::Eor,
            DpOp::Sub,
            DpOp::Rsb,
            DpOp::Add,
            DpOp::Adc,
            DpOp::Sbc,
            DpOp::Rsc,
            DpOp::Tst,
            DpOp::Teq,
            DpOp::Cmp,
            DpOp::Cmn,
            DpOp::Orr,
            DpOp::Mov,
            DpOp::Bic,
            DpOp::Mvn,
        ];
        let words = [0, 1, 3, 0x7fff_ffff, 0x8000_0000, 0xffff_ffff, 0x1234_5678];
        for op in ops {
            for &rn in &words {
                for &v in &words {
                    for carry in [false, true] {
                        let mut p = psr();
                        p.c = carry;
                        let full = alu(op, rn, ShifterResult { value: v, carry }, p);
                        let lean = alu_value(op, rn, v, carry);
                        // The full ALU reports `None` for compares but
                        // computes the same word internally; recover it
                        // via the flag bits where possible, else compare
                        // directly on non-compare ops.
                        if let Some(w) = full.value {
                            assert_eq!(lean, w, "{op:?} rn={rn:#x} op2={v:#x} c={carry}");
                        } else {
                            // Compare opcodes: n/z describe the would-be
                            // result; check consistency.
                            assert_eq!(lean == 0, full.z, "{op:?} rn={rn:#x} op2={v:#x}");
                            assert_eq!(lean & 0x8000_0000 != 0, full.n, "{op:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn eval_op2_value_matches_full_shifter() {
        let regs = [0u32, 1, 0x8000_0001, 0xffff_ffff, 0x1234_5678];
        for &rv in &regs {
            for shift in [Shift::Lsl, Shift::Lsr, Shift::Asr, Shift::Ror] {
                for amount in [0u8, 1, 4, 31] {
                    for carry in [false, true] {
                        let op2 = Op2::Reg {
                            rm: Reg::R(0),
                            shift,
                            amount,
                        };
                        let full = eval_op2(op2, carry, |_| rv);
                        let lean = eval_op2_value(op2, |_| rv);
                        assert_eq!(lean, full.value, "{shift:?} #{amount} c={carry}");
                    }
                }
            }
        }
        for imm8 in [0u8, 1, 0xff] {
            for rot in [0u8, 1, 8, 15] {
                let op2 = Op2::Imm { imm8, rot };
                assert_eq!(
                    eval_op2_value(op2, |_| 0),
                    eval_op2(op2, false, |_| 0).value
                );
            }
        }
    }

    #[test]
    fn add_sets_carry_and_overflow() {
        let r = alu(
            DpOp::Add,
            0xffff_ffff,
            ShifterResult {
                value: 1,
                carry: false,
            },
            psr(),
        );
        assert_eq!(r.value, Some(0));
        assert!(r.z && r.c && !r.v);

        let r = alu(
            DpOp::Add,
            0x7fff_ffff,
            ShifterResult {
                value: 1,
                carry: false,
            },
            psr(),
        );
        assert_eq!(r.value, Some(0x8000_0000));
        assert!(r.n && !r.c && r.v);
    }

    #[test]
    fn sub_carry_is_not_borrow() {
        // ARM: C=1 when no borrow.
        let r = alu(
            DpOp::Sub,
            5,
            ShifterResult {
                value: 3,
                carry: false,
            },
            psr(),
        );
        assert_eq!(r.value, Some(2));
        assert!(r.c);
        let r = alu(
            DpOp::Sub,
            3,
            ShifterResult {
                value: 5,
                carry: false,
            },
            psr(),
        );
        assert_eq!(r.value, Some(-2i32 as u32));
        assert!(!r.c && r.n);
    }

    #[test]
    fn cmp_equal_sets_z_c() {
        let r = alu(
            DpOp::Cmp,
            7,
            ShifterResult {
                value: 7,
                carry: false,
            },
            psr(),
        );
        assert_eq!(r.value, None);
        assert!(r.z && r.c);
    }

    #[test]
    fn adc_sbc_chain() {
        // 64-bit add: low words 0xffffffff + 1 set carry for the high half.
        let mut p = psr();
        let lo = alu(
            DpOp::Add,
            0xffff_ffff,
            ShifterResult {
                value: 1,
                carry: false,
            },
            p,
        );
        p.c = lo.c;
        let hi = alu(
            DpOp::Adc,
            0,
            ShifterResult {
                value: 0,
                carry: false,
            },
            p,
        );
        assert_eq!(hi.value, Some(1));
    }

    #[test]
    fn rsb_reverse_subtract() {
        let r = alu(
            DpOp::Rsb,
            3,
            ShifterResult {
                value: 10,
                carry: false,
            },
            psr(),
        );
        assert_eq!(r.value, Some(7));
    }

    #[test]
    fn logic_carry_from_shifter() {
        let sh = ShifterResult {
            value: 0xf0,
            carry: true,
        };
        let r = alu(DpOp::And, 0xff, sh, psr());
        assert_eq!(r.value, Some(0xf0));
        assert!(r.c);
    }

    #[test]
    fn shifts_basic() {
        assert_eq!(shift_value(1, Shift::Lsl, 4, false).value, 16);
        assert_eq!(shift_value(0x80, Shift::Lsr, 4, false).value, 8);
        assert_eq!(
            shift_value(0x8000_0000, Shift::Asr, 4, false).value,
            0xf800_0000
        );
        assert_eq!(
            shift_value(0x0000_00ff, Shift::Ror, 8, false).value,
            0xff00_0000
        );
    }

    #[test]
    fn shift_amount_zero_semantics() {
        // LSL #0: identity, carry preserved.
        let r = shift_value(5, Shift::Lsl, 0, true);
        assert_eq!((r.value, r.carry), (5, true));
        // LSR #0 encodes LSR #32.
        let r = shift_value(0x8000_0001, Shift::Lsr, 0, false);
        assert_eq!((r.value, r.carry), (0, true));
        // ASR #0 encodes ASR #32.
        let r = shift_value(0x8000_0000, Shift::Asr, 0, false);
        assert_eq!((r.value, r.carry), (0xffff_ffff, true));
    }

    #[test]
    fn shift_carry_out() {
        // LSL by 1 of a value with the top bit set carries out.
        assert!(shift_value(0x8000_0000, Shift::Lsl, 1, false).carry);
        assert!(!shift_value(0x4000_0000, Shift::Lsl, 1, false).carry);
        // LSR by 1 of an odd value carries out.
        assert!(shift_value(1, Shift::Lsr, 1, false).carry);
    }

    #[test]
    fn eval_op2_rotated_imm_carry() {
        // Rotated immediate with high bit set produces carry.
        let r = eval_op2(Op2::Imm { imm8: 0xff, rot: 4 }, false, |_| 0);
        assert_eq!(r.value, 0xff00_0000);
        assert!(r.carry);
        // Unrotated immediate preserves carry-in.
        let r = eval_op2(Op2::imm(1), true, |_| 0);
        assert!(r.carry);
    }

    #[test]
    fn eval_op2_register() {
        let r = eval_op2(Op2::reg(Reg::R(3)), false, |r| {
            if r == Reg::R(3) {
                42
            } else {
                0
            }
        });
        assert_eq!(r.value, 42);
    }

    proptest::proptest! {
        #[test]
        fn prop_ror_matches_rotate(v in proptest::prelude::any::<u32>(), a in 1u8..32) {
            proptest::prop_assert_eq!(shift_value(v, Shift::Ror, a, false).value, v.rotate_right(a as u32));
        }

        #[test]
        fn prop_sub_matches_wrapping(a in proptest::prelude::any::<u32>(), b in proptest::prelude::any::<u32>()) {
            let r = alu(DpOp::Sub, a, ShifterResult { value: b, carry: false }, Psr::user());
            proptest::prop_assert_eq!(r.value, Some(a.wrapping_sub(b)));
            // C set iff no borrow.
            proptest::prop_assert_eq!(r.c, a >= b);
        }
    }
}
