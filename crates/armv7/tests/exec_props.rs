//! Property tests for the user-mode executor.
//!
//! The machine model is the trusted base of everything above it (the
//! paper's §5.1 model is *trusted*, not verified); these properties are
//! the closest executable substitute for its review:
//!
//! - data-processing semantics agree with an independent oracle,
//! - arbitrary code (including garbage) never wedges the machine — every
//!   run ends in a well-defined exception state,
//! - execution is *deterministic under preemption*: interrupting a
//!   computation at any point and resuming it reaches exactly the same
//!   final state,
//! - every rung of the execution ladder (micro-op regions, superblocks,
//!   fetch accelerator, baseline) yields the identical machine, and the
//!   per-tier retirement counters always sum to the same instruction
//!   count.

use komodo_armv7::insn::{Cond, DpOp, LsmMode, MemOffset, Op2, Shift};
use komodo_armv7::mem::AccessAttrs;
use komodo_armv7::mode::{Mode, World};
use komodo_armv7::psr::Psr;
use komodo_armv7::ptw::{l1_coarse_desc, l2_page_desc, PagePerms};
use komodo_armv7::regs::Reg;
use komodo_armv7::{Assembler, ExitReason, Insn, Machine, MemFault, MemFaultKind};
use proptest::prelude::*;

const CODE_VA: u32 = 0x8000;
const DATA_VA: u32 = 0x9000;

/// A machine with one RX code page and one RW data page, user mode.
fn machine_with(code: &[u32]) -> Machine {
    let mut m = Machine::new();
    m.mem.add_region(0x8000_0000, 0x10_0000, true);
    let ttbr0 = 0x8000_0000u32;
    let l2 = 0x8000_1000u32;
    m.mem
        .write(ttbr0, l1_coarse_desc(l2), AccessAttrs::MONITOR)
        .unwrap();
    m.mem
        .write(
            l2 + 8 * 4,
            l2_page_desc(0x8000_2000, PagePerms::RX, false),
            AccessAttrs::MONITOR,
        )
        .unwrap();
    m.mem
        .write(
            l2 + 9 * 4,
            l2_page_desc(0x8000_3000, PagePerms::RW, false),
            AccessAttrs::MONITOR,
        )
        .unwrap();
    m.mem.load_words(0x8000_2000, code).unwrap();
    m.cp15.mmu_mut(World::Secure).ttbr0 = ttbr0;
    m.cp15.scr_ns = false;
    m.cpsr = Psr::user();
    m.pc = CODE_VA;
    m
}

/// As [`machine_with`], with chosen code-page permissions (RWX enables
/// self-modifying code) and four RW data pages at `0x9000..0xd000`, so
/// strided loads and stores keep meeting pages the data-TLB has not seen.
fn machine_with_pages(code: &[u32], code_perms: PagePerms) -> Machine {
    let mut m = machine_with(code);
    let l2 = 0x8000_1000u32;
    m.mem
        .write(
            l2 + 8 * 4,
            l2_page_desc(0x8000_2000, code_perms, false),
            AccessAttrs::MONITOR,
        )
        .unwrap();
    for i in 9u32..13 {
        m.mem
            .write(
                l2 + i * 4,
                l2_page_desc(0x8000_3000 + (i - 9) * 0x1000, PagePerms::RW, false),
                AccessAttrs::MONITOR,
            )
            .unwrap();
    }
    m
}

/// Instructions retired across every rung (uop + sb + per-instruction).
fn retired(m: &Machine) -> u64 {
    m.metrics_snapshot().retired()
}

/// The execution rungs, fastest first: (accel, superblocks, uop traces).
const RUNGS: [(bool, bool, bool); 4] = [
    (true, true, true),
    (true, true, false),
    (true, false, false),
    (false, false, false),
];

/// A `B<cond>` at code index `at` targeting code index `to` (both in
/// words from [`CODE_VA`]).
fn b_at(cond: Cond, at: usize, to: usize) -> Insn {
    Insn::B {
        cond,
        offset: to as i32 - at as i32 - 2,
    }
}

fn arb_dp() -> impl Strategy<Value = Insn> {
    (
        prop_oneof![
            Just(DpOp::And),
            Just(DpOp::Eor),
            Just(DpOp::Sub),
            Just(DpOp::Rsb),
            Just(DpOp::Add),
            Just(DpOp::Orr),
            Just(DpOp::Mov),
            Just(DpOp::Bic),
            Just(DpOp::Mvn),
        ],
        0u8..8,
        0u8..8,
        prop_oneof![
            any::<u8>().prop_map(Op2::imm),
            (0u8..8, 0u32..4, 1u8..32).prop_map(|(rm, sh, amount)| Op2::Reg {
                rm: Reg::R(rm),
                shift: Shift::from_bits(sh),
                amount,
            }),
        ],
    )
        .prop_map(|(op, rd, rn, op2)| Insn::Dp {
            cond: Cond::Al,
            op,
            s: false,
            rd: Reg::R(rd),
            rn: Reg::R(rn),
            op2,
        })
}

/// Single-register loads/stores in every decodable shape: word/byte,
/// immediate/register offset, add/subtract. Bases are drawn from `R8`
/// (data page), `R9` (data page middle) and `R10` (an arbitrary wild
/// pointer seeded by the test), so the same strategy yields data-TLB
/// hits, cross-page misses, code-page write refusals and outright aborts.
fn arb_mem() -> impl Strategy<Value = Insn> {
    (
        any::<bool>(), // load vs store
        any::<bool>(), // byte vs word
        0u8..8,        // rd
        // Biased toward the mapped bases; repeated arms stand in for
        // weights (the vendored proptest has no weighted oneof).
        prop_oneof![
            Just(8u8),
            Just(8u8),
            Just(8u8),
            Just(9u8),
            Just(9u8),
            Just(10u8)
        ],
        prop_oneof![
            (0u16..0x200, any::<bool>()).prop_map(|(imm12, add)| MemOffset::Imm { imm12, add }),
            (0u8..8, any::<bool>()).prop_map(|(rm, add)| MemOffset::Reg {
                rm: Reg::R(rm),
                add,
            }),
        ],
    )
        .prop_map(|(load, byte, rd, rn, off)| {
            if load {
                Insn::Ldr {
                    cond: Cond::Al,
                    rd: Reg::R(rd),
                    rn: Reg::R(rn),
                    off,
                    byte,
                }
            } else {
                Insn::Str {
                    cond: Cond::Al,
                    rd: Reg::R(rd),
                    rn: Reg::R(rn),
                    off,
                    byte,
                }
            }
        })
}

/// Load/store-multiple in every decodable shape: `LDMIA`/`STMDB` (so
/// `POP`/`PUSH` when the base is `SP`) and `LDMDB`/`STMIA`, with one to
/// fifteen registers, with and without writeback — the base in the list
/// only without it (decode rejects the other form). Bases are `SP` (a
/// stack in the data page), `R8`/`R9` (data pages), `R10` (wild) and
/// `R11` (an edge pointer, see [`arb_edge`]), so transfers hit the
/// data-TLB, miss it, straddle pages, and abort part-way.
fn arb_lsm() -> impl Strategy<Value = Insn> {
    (
        any::<bool>(), // load vs store
        any::<bool>(), // increment-after vs decrement-before
        prop_oneof![
            Just(Reg::Sp),
            Just(Reg::Sp),
            Just(Reg::R(8)),
            Just(Reg::R(9)),
            Just(Reg::R(10)),
            Just(Reg::R(11)),
            Just(Reg::R(11))
        ],
        // Single registers (the `PUSH {r3}` shape) as often as lists.
        prop_oneof![(0u16..15).prop_map(|r| 1 << r), 1u16..0x8000],
        any::<bool>(), // writeback
    )
        .prop_map(|(load, ia, rn, regs, writeback)| {
            let writeback = writeback && regs & (1 << rn.index()) == 0;
            let mode = if ia { LsmMode::Ia } else { LsmMode::Db };
            if load {
                Insn::Ldm {
                    cond: Cond::Al,
                    rn,
                    writeback,
                    regs,
                    mode,
                }
            } else {
                Insn::Stm {
                    cond: Cond::Al,
                    rn,
                    writeback,
                    regs,
                    mode,
                }
            }
        })
}

/// An edge pointer for `R11`: just above the read-only code page's end
/// (descending transfers straddle into it) or just below `top`, the
/// first unmapped page (ascending transfers straddle into it) — aligned
/// most of the time, unaligned otherwise.
fn arb_edge(top: u32) -> impl Strategy<Value = u32> {
    (any::<bool>(), 0u32..8, 0u32..8).prop_map(move |(low, k, mis)| {
        let mis = mis.saturating_sub(4);
        if low {
            DATA_VA + 4 * k + mis
        } else {
            top - 4 * k + mis
        }
    })
}

/// A mix biased toward memory traffic, so generated programs form
/// memory-inclusive superblocks rather than pure ALU traces.
fn arb_mem_or_dp() -> impl Strategy<Value = Insn> {
    prop_oneof![
        arb_mem().boxed(),
        arb_mem().boxed(),
        arb_lsm().boxed(),
        arb_dp().boxed(),
        arb_dp().boxed(),
        arb_dp().boxed()
    ]
}

/// Any condition but `AL`.
fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Eq),
        Just(Cond::Ne),
        Just(Cond::Cs),
        Just(Cond::Cc),
        Just(Cond::Mi),
        Just(Cond::Pl),
        Just(Cond::Vs),
        Just(Cond::Vc),
        Just(Cond::Hi),
        Just(Cond::Ls),
        Just(Cond::Ge),
        Just(Cond::Lt),
        Just(Cond::Gt),
        Just(Cond::Le)
    ]
}

/// Flag producers and consumers: `S`-setting arithmetic and logic,
/// compares, and carry-in consumers (`ADC`/`SBC`), some executed
/// conditionally — what dead-flag elimination and region liveness see.
fn arb_flag_dp() -> impl Strategy<Value = Insn> {
    (
        prop_oneof![
            Just(DpOp::Add),
            Just(DpOp::Sub),
            Just(DpOp::Adc),
            Just(DpOp::Sbc),
            Just(DpOp::And),
            Just(DpOp::Orr),
            Just(DpOp::Eor),
            Just(DpOp::Cmp),
            Just(DpOp::Cmn),
            Just(DpOp::Tst),
            Just(DpOp::Teq)
        ],
        any::<bool>(),
        0u8..7,
        0u8..7,
        prop_oneof![
            (any::<u8>(), 0u8..16).prop_map(|(imm8, rot)| Op2::Imm { imm8, rot }),
            (0u8..7).prop_map(|rm| Op2::reg(Reg::R(rm))),
        ],
        prop_oneof![Just(Cond::Al), Just(Cond::Al), arb_cond().boxed()],
    )
        .prop_map(|(op, s, rd, rn, op2, cond)| Insn::Dp {
            cond,
            op,
            s: s || op.is_compare(),
            rd: Reg::R(if op.is_compare() { 0 } else { rd }),
            rn: Reg::R(rn),
            op2,
        })
}

/// Keeps a generated instruction off `R7`, the region loops' trip
/// counter, so generated loops terminate.
fn spare_r7(insn: Insn) -> Insn {
    let fix = |r: Reg| if r == Reg::R(7) { Reg::R(6) } else { r };
    match insn {
        Insn::Dp {
            cond,
            op,
            s,
            rd,
            rn,
            op2,
        } => Insn::Dp {
            cond,
            op,
            s,
            rd: fix(rd),
            rn,
            op2,
        },
        Insn::Ldr {
            cond,
            rd,
            rn,
            off,
            byte,
        } => Insn::Ldr {
            cond,
            rd: fix(rd),
            rn,
            off,
            byte,
        },
        Insn::Ldm {
            cond,
            rn,
            writeback,
            regs,
            mode,
        } => Insn::Ldm {
            cond,
            rn,
            writeback,
            regs: match regs & !(1 << 7) {
                0 => 1 << 6,
                r => r,
            },
            mode,
        },
        other => other,
    }
}

/// One element of a generated region loop body.
#[derive(Clone, Copy, Debug)]
enum Item {
    /// A straight-line instruction.
    Op(Insn),
    /// A conditional forward branch over the next `dist` elements (past
    /// the body it lands on the loop's back edge, or leaves the loop).
    Skip { cond: Cond, dist: usize },
}

fn arb_item() -> impl Strategy<Value = Item> {
    prop_oneof![
        arb_dp().prop_map(|i| Item::Op(spare_r7(i))).boxed(),
        arb_flag_dp().prop_map(Item::Op).boxed(),
        arb_flag_dp().prop_map(Item::Op).boxed(),
        arb_mem().prop_map(|i| Item::Op(spare_r7(i))).boxed(),
        arb_lsm().prop_map(|i| Item::Op(spare_r7(i))).boxed(),
        (arb_cond(), 0usize..5)
            .prop_map(|(cond, dist)| Item::Skip { cond, dist })
            .boxed(),
        (arb_cond(), 0usize..5)
            .prop_map(|(cond, dist)| Item::Skip { cond, dist })
            .boxed()
    ]
}

/// Assembles a region loop at [`CODE_VA`]: the body, then
/// `SUBS r7, r7, #1; BNE top; SVC 0`. A forward skip past the body lands
/// on the `SUBS`, the `BNE` (the region's exit branch) or the `SVC`
/// (a side exit).
fn region_loop(items: &[Item]) -> Vec<u32> {
    let n = items.len();
    let mut a = Assembler::new(CODE_VA);
    for (i, item) in items.iter().enumerate() {
        match *item {
            Item::Op(insn) => a.emit(insn),
            Item::Skip { cond, dist } => a.emit(b_at(cond, i, (i + 1 + dist).min(n + 2))),
        }
    }
    a.subs_imm(Reg::R(7), Reg::R(7), 1);
    a.emit(b_at(Cond::Ne, n + 1, 0));
    a.svc(0);
    a.words()
}

/// Oracle: evaluate a non-flag-setting DP instruction over a register
/// array, independently of the machine's ALU code paths.
fn oracle_step(regs: &mut [u32; 8], insn: &Insn) {
    let Insn::Dp {
        op, rd, rn, op2, ..
    } = insn
    else {
        unreachable!()
    };
    let rv = |r: Reg| regs[r.index() as usize];
    let op2v = match *op2 {
        Op2::Imm { imm8, rot } => (imm8 as u32).rotate_right(2 * rot as u32),
        Op2::Reg { rm, shift, amount } => {
            let v = rv(rm);
            let a = amount as u32;
            match shift {
                Shift::Lsl => v << a,
                Shift::Lsr => v >> a,
                Shift::Asr => ((v as i32) >> a) as u32,
                Shift::Ror => v.rotate_right(a),
            }
        }
    };
    let n = rv(*rn);
    let res = match op {
        DpOp::And => n & op2v,
        DpOp::Eor => n ^ op2v,
        DpOp::Sub => n.wrapping_sub(op2v),
        DpOp::Rsb => op2v.wrapping_sub(n),
        DpOp::Add => n.wrapping_add(op2v),
        DpOp::Orr => n | op2v,
        DpOp::Mov => op2v,
        DpOp::Bic => n & !op2v,
        DpOp::Mvn => !op2v,
        _ => unreachable!(),
    };
    regs[rd.index() as usize] = res;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequences of data-processing instructions compute exactly what the
    /// independent oracle computes.
    #[test]
    fn prop_dataproc_matches_oracle(
        insns in proptest::collection::vec(arb_dp(), 1..40),
        init in proptest::array::uniform8(any::<u32>()),
    ) {
        let mut a = Assembler::new(CODE_VA);
        for i in &insns {
            a.emit(*i);
        }
        a.svc(0);
        let mut m = machine_with(&a.words());
        for (i, v) in init.iter().enumerate() {
            m.regs.set(Mode::User, Reg::R(i as u8), *v);
        }
        let exit = m.run_user(10_000).unwrap();
        prop_assert_eq!(exit, ExitReason::Svc { imm24: 0 });

        let mut oracle = init;
        for i in &insns {
            oracle_step(&mut oracle, i);
        }
        for (i, v) in oracle.iter().enumerate() {
            prop_assert_eq!(m.regs.get(Mode::User, Reg::R(i as u8)), *v, "r{}", i);
        }
    }

    /// Arbitrary words as code never panic the machine; execution always
    /// ends in a well-defined state (an exception mode or still-user on
    /// step limit), with the TLB still consistent.
    #[test]
    fn prop_garbage_code_cannot_wedge_the_machine(
        code in proptest::collection::vec(any::<u32>(), 1..64),
        init in proptest::array::uniform8(any::<u32>()),
    ) {
        let mut m = machine_with(&code);
        for (i, v) in init.iter().enumerate() {
            m.regs.set(Mode::User, Reg::R(i as u8), *v);
        }
        let exit = m.run_user(2_000).unwrap();
        match exit {
            ExitReason::StepLimit => prop_assert_eq!(m.cpsr.mode, Mode::User),
            ExitReason::Svc { .. } => prop_assert_eq!(m.cpsr.mode, Mode::Supervisor),
            ExitReason::Irq => prop_assert_eq!(m.cpsr.mode, Mode::Irq),
            ExitReason::Fiq => prop_assert_eq!(m.cpsr.mode, Mode::Fiq),
            ExitReason::Undefined(_) => prop_assert_eq!(m.cpsr.mode, Mode::Undefined),
            ExitReason::DataAbort(_) | ExitReason::PrefetchAbort(_) => {
                prop_assert_eq!(m.cpsr.mode, Mode::Abort)
            }
        }
        prop_assert!(m.tlb.is_consistent());
    }

    /// Determinism under preemption: interrupting at an arbitrary cycle
    /// and resuming reaches the same final registers, memory, and exit as
    /// the uninterrupted run.
    #[test]
    fn prop_interrupt_resume_is_transparent(
        seed_vals in proptest::array::uniform4(any::<u32>()),
        irq_after in 1u64..400,
    ) {
        // A compute kernel: mixes registers and memory for ~100 insns.
        let mut a = Assembler::new(CODE_VA);
        a.mov_imm32(Reg::R(8), DATA_VA);
        a.mov_imm(Reg::R(7), 20);
        let top = a.label();
        a.add_reg(Reg::R(0), Reg::R(0), Reg::R(1));
        a.eor_ror(Reg::R(1), Reg::R(1), Reg::R(2), 7);
        a.mul(Reg::R(2), Reg::R(3), Reg::R(0));
        a.str_imm(Reg::R(0), Reg::R(8), 0);
        a.ldr_imm(Reg::R(3), Reg::R(8), 0);
        a.add_imm(Reg::R(8), Reg::R(8), 4);
        a.subs_imm(Reg::R(7), Reg::R(7), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let code = a.words();

        let setup = |m: &mut Machine| {
            for (i, v) in seed_vals.iter().enumerate() {
                m.regs.set(Mode::User, Reg::R(i as u8), *v);
            }
        };

        // Reference: uninterrupted.
        let mut m1 = machine_with(&code);
        setup(&mut m1);
        let exit1 = m1.run_user(100_000).unwrap();
        prop_assert_eq!(exit1, ExitReason::Svc { imm24: 0 });

        // Preempted at `irq_after` cycles, then resumed (the way the
        // monitor does it: exception return from IRQ mode).
        let mut m2 = machine_with(&code);
        setup(&mut m2);
        m2.irq_at = Some(m2.cycles + irq_after);
        loop {
            match m2.run_user(100_000).unwrap() {
                ExitReason::Svc { .. } => break,
                ExitReason::Irq => {
                    m2.irq_at = None;
                    m2.exception_return().unwrap();
                }
                other => prop_assert!(false, "unexpected exit {other:?}"),
            }
        }
        for i in 0..13u8 {
            prop_assert_eq!(
                m1.regs.get(Mode::User, Reg::R(i)),
                m2.regs.get(Mode::User, Reg::R(i)),
                "r{} differs after preemption", i
            );
        }
        // Data page contents identical.
        let d1 = m1.mem.dump_words(0x8000_3000, 32).unwrap();
        let d2 = m2.mem.dump_words(0x8000_3000, 32).unwrap();
        prop_assert_eq!(d1, d2);
    }

    /// Flag-setting compares steer conditional branches exactly like a
    /// host-side comparison.
    #[test]
    fn prop_signed_unsigned_compare_branches(a_val in any::<u32>(), b_val in any::<u32>()) {
        // r2 = flags summary via conditional moves after CMP r0, r1:
        // bit0 eq, bit1 unsigned-lower, bit2 signed-less.
        let mut a = Assembler::new(CODE_VA);
        a.mov_imm(Reg::R(2), 0);
        a.cmp_reg(Reg::R(0), Reg::R(1));
        for (bit, cond) in [(0u32, Cond::Eq), (1, Cond::Cc), (2, Cond::Lt)] {
            a.emit(Insn::Dp {
                cond,
                op: DpOp::Orr,
                s: false,
                rd: Reg::R(2),
                rn: Reg::R(2),
                op2: Op2::imm(1 << bit),
            });
            // Re-establish flags (ORR with s=false leaves them, but be
            // explicit for clarity).
            a.cmp_reg(Reg::R(0), Reg::R(1));
        }
        a.svc(0);
        let mut m = machine_with(&a.words());
        m.regs.set(Mode::User, Reg::R(0), a_val);
        m.regs.set(Mode::User, Reg::R(1), b_val);
        m.run_user(1000).unwrap();
        let got = m.regs.get(Mode::User, Reg::R(2));
        let want = (a_val == b_val) as u32
            | (((a_val < b_val) as u32) << 1)
            | ((((a_val as i32) < (b_val as i32)) as u32) << 2);
        prop_assert_eq!(got, want, "a={:#x} b={:#x}", a_val, b_val);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cycle-model preservation, adversarially and four ways: for
    /// *arbitrary* code (including garbage that faults, branches wild, or
    /// self-traps), the micro-op tier, the superblock engine, the
    /// accelerator-only configuration, and plain per-instruction stepping
    /// all yield bit-identical machines — registers, memory contents,
    /// access counters, TLB hit/miss/flush statistics, the cycle counter —
    /// and identical exits.
    #[test]
    fn prop_fetch_accel_is_architecturally_invisible(
        code in proptest::collection::vec(any::<u32>(), 1..64),
        init in proptest::array::uniform8(any::<u32>()),
        irq_after in 0u64..500,
    ) {
        let run = |accel: bool, superblocks: bool, uops: bool| {
            let mut m = machine_with(&code);
            m.set_fetch_accel(accel);
            m.set_superblocks(superblocks);
            m.set_uop_traces(uops);
            m.set_uop_threshold(2);
            for (i, v) in init.iter().enumerate() {
                m.regs.set(Mode::User, Reg::R(i as u8), *v);
            }
            if irq_after > 0 {
                m.irq_at = Some(m.cycles + irq_after);
            }
            let exit = m.run_user(2_000).unwrap();
            (m, exit)
        };
        let (uop, exit_uop) = run(true, true, true);
        let (sb, exit_sb) = run(true, true, false);
        let (on, exit_on) = run(true, false, false);
        let (off, exit_off) = run(false, false, false);
        prop_assert_eq!(exit_uop, exit_sb);
        prop_assert_eq!(exit_sb, exit_on);
        prop_assert_eq!(exit_on, exit_off);
        prop_assert_eq!(uop.cycles, off.cycles, "uop cycle model diverged");
        prop_assert_eq!(sb.cycles, off.cycles, "superblock cycle model diverged");
        prop_assert_eq!(on.cycles, off.cycles, "cycle model diverged");
        prop_assert_eq!(uop.tlb.hits, off.tlb.hits, "uop TLB hit accounting diverged");
        prop_assert_eq!(sb.tlb.hits, off.tlb.hits, "superblock TLB hit accounting diverged");
        prop_assert_eq!(on.tlb.hits, off.tlb.hits, "TLB hit accounting diverged");
        prop_assert_eq!(on.tlb.misses, off.tlb.misses, "TLB miss accounting diverged");
        prop_assert_eq!(on.tlb.flushes, off.tlb.flushes);
        prop_assert_eq!(uop.mem.reads, off.mem.reads, "uop read counter diverged");
        prop_assert_eq!(sb.mem.reads, off.mem.reads, "superblock read counter diverged");
        prop_assert_eq!(on.mem.reads, off.mem.reads, "read counter diverged");
        prop_assert_eq!(on.mem.writes, off.mem.writes, "write counter diverged");
        prop_assert!(uop == off, "uop architectural state diverged");
        prop_assert!(sb == off, "superblock architectural state diverged");
        prop_assert!(on == off, "architectural state diverged");
        for m in [&uop, &sb, &on] {
            prop_assert_eq!(retired(m), retired(&off), "retired sum diverged");
        }
    }

    /// Same four-way invisibility property on a structured compute
    /// kernel with loops, memory traffic, and interrupt preemption/resume
    /// — the case where the accelerator's caches (and the superblock
    /// cache, and its promoted micro-op traces) are actually hot.
    #[test]
    fn prop_fetch_accel_invisible_under_preemption(
        seed_vals in proptest::array::uniform4(any::<u32>()),
        irq_after in 1u64..400,
    ) {
        let mut a = Assembler::new(CODE_VA);
        a.mov_imm32(Reg::R(8), DATA_VA);
        a.mov_imm(Reg::R(7), 20);
        let top = a.label();
        a.add_reg(Reg::R(0), Reg::R(0), Reg::R(1));
        a.eor_ror(Reg::R(1), Reg::R(1), Reg::R(2), 7);
        a.mul(Reg::R(2), Reg::R(3), Reg::R(0));
        a.str_imm(Reg::R(0), Reg::R(8), 0);
        a.ldr_imm(Reg::R(3), Reg::R(8), 0);
        a.add_imm(Reg::R(8), Reg::R(8), 4);
        a.subs_imm(Reg::R(7), Reg::R(7), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let code = a.words();

        let run = |accel: bool,
                   superblocks: bool,
                   uops: bool|
         -> Result<Machine, proptest::test_runner::TestCaseError> {
            let mut m = machine_with(&code);
            m.set_fetch_accel(accel);
            m.set_superblocks(superblocks);
            m.set_uop_traces(uops);
            m.set_uop_threshold(2);
            for (i, v) in seed_vals.iter().enumerate() {
                m.regs.set(Mode::User, Reg::R(i as u8), *v);
            }
            m.irq_at = Some(m.cycles + irq_after);
            loop {
                match m.run_user(100_000).unwrap() {
                    ExitReason::Svc { .. } => break,
                    ExitReason::Irq => {
                        m.irq_at = None;
                        m.exception_return().unwrap();
                    }
                    other => prop_assert!(false, "unexpected exit {:?}", other),
                }
            }
            Ok(m)
        };
        let uop = run(true, true, true)?;
        let sb = run(true, true, false)?;
        let on = run(true, false, false)?;
        let off = run(false, false, false)?;
        prop_assert!(on.accel.served() > 100, "accelerator never engaged");
        prop_assert!(
            sb.superblock_stats().hits > 0,
            "superblock engine never engaged"
        );
        prop_assert!(
            uop.superblock_stats().uop_promoted > 0,
            "hot loop never promoted to a micro-op trace"
        );
        prop_assert_eq!(sb.superblock_stats().uop_promoted, 0, "promotion ran while disabled");
        prop_assert_eq!(on.superblock_stats().hits, 0, "engine ran while disabled");
        prop_assert_eq!(uop.cycles, off.cycles);
        prop_assert_eq!(sb.cycles, off.cycles);
        prop_assert_eq!(on.cycles, off.cycles);
        prop_assert_eq!(uop.tlb.hits, off.tlb.hits);
        prop_assert_eq!(sb.tlb.hits, off.tlb.hits);
        prop_assert_eq!(on.tlb.hits, off.tlb.hits);
        prop_assert_eq!(on.tlb.misses, off.tlb.misses);
        prop_assert!(uop == off, "uop architectural state diverged");
        prop_assert!(sb == off, "superblock architectural state diverged");
        prop_assert!(on == off, "architectural state diverged");
        for m in [&uop, &sb, &on] {
            prop_assert_eq!(retired(m), retired(&off), "retired sum diverged");
        }
    }

    /// Four-way invisibility on *memory-heavy* programs: random mixes of
    /// single-register loads/stores (word and byte, immediate and
    /// register offsets, both directions), load/store-multiples and ALU
    /// work, with bases that range from well-mapped data pages to wild
    /// and page-straddling pointers — so in-block data-TLB hits, misses,
    /// permission refusals and (partial) data aborts are all exercised, under interrupt preemption, with full machine equality
    /// (registers, cycles, TLB and memory statistics) asserted.
    #[test]
    fn prop_data_fast_path_is_architecturally_invisible(
        insns in proptest::collection::vec(arb_mem_or_dp(), 1..48),
        init in proptest::array::uniform8(any::<u32>()),
        wild in any::<u32>(),
        edge in arb_edge(DATA_VA + 0x1000),
        irq_after in 0u64..500,
    ) {
        let mut a = Assembler::new(CODE_VA);
        for i in &insns {
            a.emit(*i);
        }
        a.svc(0);
        let code = a.words();
        let run = |accel: bool, superblocks: bool, uops: bool| {
            let mut m = machine_with(&code);
            m.set_fetch_accel(accel);
            m.set_superblocks(superblocks);
            m.set_uop_traces(uops);
            m.set_uop_threshold(2);
            for (i, v) in init.iter().enumerate() {
                m.regs.set(Mode::User, Reg::R(i as u8), *v);
            }
            m.regs.set(Mode::User, Reg::R(8), DATA_VA);
            m.regs.set(Mode::User, Reg::R(9), DATA_VA + 0x800);
            m.regs.set(Mode::User, Reg::R(10), wild);
            m.regs.set(Mode::User, Reg::R(11), edge);
            m.regs.set(Mode::User, Reg::Sp, DATA_VA + 0x800);
            if irq_after > 0 {
                m.irq_at = Some(m.cycles + irq_after);
            }
            let exit = m.run_user(2_000).unwrap();
            (m, exit)
        };
        let (uop, exit_uop) = run(true, true, true);
        let (sb, exit_sb) = run(true, true, false);
        let (on, exit_on) = run(true, false, false);
        let (off, exit_off) = run(false, false, false);
        prop_assert_eq!(exit_uop, exit_sb);
        prop_assert_eq!(exit_sb, exit_on);
        prop_assert_eq!(exit_on, exit_off);
        prop_assert_eq!(uop.cycles, off.cycles, "uop cycle model diverged");
        prop_assert_eq!(sb.cycles, off.cycles, "superblock cycle model diverged");
        prop_assert_eq!(uop.tlb.hits, off.tlb.hits, "uop TLB hit accounting diverged");
        prop_assert_eq!(sb.tlb.hits, off.tlb.hits, "TLB hit accounting diverged");
        prop_assert_eq!(sb.tlb.misses, off.tlb.misses, "TLB miss accounting diverged");
        prop_assert_eq!(uop.mem.reads, off.mem.reads, "uop read counter diverged");
        prop_assert_eq!(sb.mem.reads, off.mem.reads, "read counter diverged");
        prop_assert_eq!(uop.mem.writes, off.mem.writes, "uop write counter diverged");
        prop_assert_eq!(sb.mem.writes, off.mem.writes, "write counter diverged");
        prop_assert!(uop == off, "uop architectural state diverged");
        prop_assert!(sb == off, "superblock architectural state diverged");
        prop_assert!(on == off, "architectural state diverged");
        for m in [&uop, &sb, &on] {
            prop_assert_eq!(retired(m), retired(&off), "retired sum diverged");
        }
    }

    /// A structured memory kernel — the shape the data-side fast path is
    /// built for — stays four-way identical under preemption/resume, and
    /// the superblock configuration demonstrably serves its loads/stores
    /// from the data-TLB (the uop configuration from its inlined sites).
    #[test]
    fn prop_memory_kernel_rides_the_dtlb_invisibly(
        seed_vals in proptest::array::uniform4(any::<u32>()),
        irq_after in 1u64..400,
    ) {
        let mut a = Assembler::new(CODE_VA);
        a.mov_imm32(Reg::R(8), DATA_VA);
        a.mov_imm(Reg::R(7), 25);
        let top = a.label();
        a.add_reg(Reg::R(0), Reg::R(0), Reg::R(1));
        a.str_imm(Reg::R(0), Reg::R(8), 0);
        a.ldr_imm(Reg::R(1), Reg::R(8), 0);
        a.strb_imm(Reg::R(1), Reg::R(8), 0x41);
        a.ldrb_imm(Reg::R(2), Reg::R(8), 0x41);
        a.add_imm(Reg::R(8), Reg::R(8), 4);
        a.subs_imm(Reg::R(7), Reg::R(7), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let code = a.words();
        let run = |accel: bool,
                   superblocks: bool,
                   uops: bool|
         -> Result<Machine, proptest::test_runner::TestCaseError> {
            let mut m = machine_with(&code);
            m.set_fetch_accel(accel);
            m.set_superblocks(superblocks);
            m.set_uop_traces(uops);
            m.set_uop_threshold(2);
            for (i, v) in seed_vals.iter().enumerate() {
                m.regs.set(Mode::User, Reg::R(i as u8), *v);
            }
            m.irq_at = Some(m.cycles + irq_after);
            loop {
                match m.run_user(100_000).unwrap() {
                    ExitReason::Svc { .. } => break,
                    ExitReason::Irq => {
                        m.irq_at = None;
                        m.exception_return().unwrap();
                    }
                    other => prop_assert!(false, "unexpected exit {:?}", other),
                }
            }
            Ok(m)
        };
        let uop = run(true, true, true)?;
        let sb = run(true, true, false)?;
        let on = run(true, false, false)?;
        let off = run(false, false, false)?;
        prop_assert!(
            sb.superblock_stats().dtlb_hits > 0,
            "memory kernel never hit the data-TLB fast path"
        );
        prop_assert!(
            uop.superblock_stats().uop_hits > 0,
            "memory kernel never ran its specialised trace"
        );
        prop_assert_eq!(off.superblock_stats().dtlb_hits, 0, "baseline touched the data-TLB");
        prop_assert_eq!(uop.cycles, off.cycles);
        prop_assert_eq!(sb.cycles, off.cycles);
        prop_assert_eq!(uop.tlb.hits, off.tlb.hits);
        prop_assert_eq!(sb.tlb.hits, off.tlb.hits);
        prop_assert_eq!(sb.tlb.misses, off.tlb.misses);
        prop_assert_eq!(uop.mem.reads, off.mem.reads);
        prop_assert_eq!(sb.mem.reads, off.mem.reads);
        prop_assert_eq!(uop.mem.writes, off.mem.writes);
        prop_assert_eq!(sb.mem.writes, off.mem.writes);
        prop_assert!(uop == off, "uop architectural state diverged");
        prop_assert!(sb == off, "superblock architectural state diverged");
        prop_assert!(on == off, "architectural state diverged");
        for m in [&uop, &sb, &on] {
            prop_assert_eq!(retired(m), retired(&off), "retired sum diverged");
        }
    }

    /// Satellite property for the micro-op tier: random promotion traffic
    /// interleaved with random invalidation causes. Each round runs the
    /// hot kernel (promoting traces once hot), then applies one randomly
    /// chosen invalidation source — nothing, a TLB flush, a TTBR0 reload,
    /// a world round-trip, or a store into the code page — and the final
    /// machines stay four-way bit-identical throughout.
    #[test]
    fn prop_random_promotions_survive_random_invalidations(
        seed_vals in proptest::array::uniform4(any::<u32>()),
        causes in proptest::collection::vec(0u8..5, 1..8),
    ) {
        let mut a = Assembler::new(CODE_VA);
        a.mov_imm32(Reg::R(8), DATA_VA);
        a.mov_imm(Reg::R(7), 12);
        let top = a.label();
        a.ldr_imm(Reg::R(2), Reg::R(8), 0);
        a.add_reg(Reg::R(0), Reg::R(0), Reg::R(2));
        a.str_imm(Reg::R(0), Reg::R(8), 4);
        a.eor_ror(Reg::R(1), Reg::R(1), Reg::R(0), 5);
        a.subs_imm(Reg::R(7), Reg::R(7), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let code = a.words();
        // A harmless word patched into the code page by cause 4: the same
        // instruction that is already at offset 4 (add r0, r0, r2), so the
        // program's behaviour is unchanged but the write lands in the code
        // page and bumps the code generation.
        let patch_word = code[3];
        let run = |accel: bool,
                   superblocks: bool,
                   uops: bool|
         -> Result<Machine, proptest::test_runner::TestCaseError> {
            let mut m = machine_with(&code);
            m.set_fetch_accel(accel);
            m.set_superblocks(superblocks);
            m.set_uop_traces(uops);
            m.set_uop_threshold(2);
            for (i, v) in seed_vals.iter().enumerate() {
                m.regs.set(Mode::User, Reg::R(i as u8), *v);
            }
            for &cause in &causes {
                m.pc = CODE_VA;
                m.cpsr = Psr::user();
                let exit = m.run_user(100_000).unwrap();
                prop_assert_eq!(exit, ExitReason::Svc { imm24: 0 });
                match cause {
                    0 => {}
                    1 => m.tlb_flush(),
                    2 => {
                        // A TTBR0 reload leaves the TLB inconsistent until
                        // flushed (the paper's discipline), so pair them.
                        let ttbr0 = m.cp15.mmu(World::Secure).ttbr0;
                        m.load_ttbr0(ttbr0);
                        m.tlb_flush();
                    }
                    3 => {
                        m.set_scr_ns(true);
                        m.set_scr_ns(false);
                    }
                    4 => {
                        // Host-side store into the (watched) code page: the
                        // write-watch generation bump must drop decodes,
                        // blocks and promoted traces alike.
                        m.mem
                            .write(0x8000_2000 + 3 * 4, patch_word, AccessAttrs::MONITOR)
                            .unwrap();
                    }
                    _ => unreachable!(),
                }
            }
            Ok(m)
        };
        let uop = run(true, true, true)?;
        let sb = run(true, true, false)?;
        let on = run(true, false, false)?;
        let off = run(false, false, false)?;
        prop_assert!(
            uop.superblock_stats().uop_promoted > 0,
            "hot kernel never promoted"
        );
        prop_assert_eq!(uop.cycles, off.cycles, "uop cycle model diverged");
        prop_assert_eq!(sb.cycles, off.cycles, "superblock cycle model diverged");
        prop_assert_eq!(uop.tlb.hits, off.tlb.hits, "uop TLB accounting diverged");
        prop_assert_eq!(uop.mem.reads, off.mem.reads, "uop read counter diverged");
        prop_assert_eq!(uop.mem.writes, off.mem.writes, "uop write counter diverged");
        prop_assert!(uop == off, "uop architectural state diverged");
        prop_assert!(sb == off, "superblock architectural state diverged");
        prop_assert!(on == off, "architectural state diverged");
        for m in [&uop, &sb, &on] {
            prop_assert_eq!(retired(m), retired(&off), "retired sum diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Region exactness on branchy loops: random loop bodies mixing ALU
    /// ops, flag setters and consumers, loads and stores (single and
    /// multiple) with conditional
    /// forward branches (internal jumps, jumps onto the back edge, and
    /// side exits out of the loop), run with promotion forced at every
    /// rung under random interrupt deadlines and step budgets. Each run
    /// resumes through budget exhaustion and interrupts until the loop
    /// leaves; the exits, the machines and the retired totals must agree
    /// across all four rungs.
    #[test]
    fn prop_regions_are_exact_on_branchy_loops(
        items in proptest::collection::vec(arb_item(), 1..40),
        init in proptest::array::uniform8(any::<u32>()),
        trips in 1u32..12,
        wild in any::<u32>(),
        edge in arb_edge(DATA_VA + 0x4000),
        irq_after in 0u64..1500,
        budget in 1u64..400,
    ) {
        let code = region_loop(&items);
        let run = |(accel, superblocks, uops): (bool, bool, bool)| {
            let mut m = machine_with_pages(&code, PagePerms::RX);
            m.set_fetch_accel(accel);
            m.set_superblocks(superblocks);
            m.set_uop_traces(uops);
            m.set_uop_threshold(2);
            for (i, v) in init.iter().enumerate() {
                m.regs.set(Mode::User, Reg::R(i as u8), *v);
            }
            m.regs.set(Mode::User, Reg::R(7), trips);
            m.regs.set(Mode::User, Reg::R(8), DATA_VA);
            m.regs.set(Mode::User, Reg::R(9), DATA_VA + 0x800);
            m.regs.set(Mode::User, Reg::R(10), wild);
            m.regs.set(Mode::User, Reg::R(11), edge);
            m.regs.set(Mode::User, Reg::Sp, DATA_VA + 0x800);
            if irq_after > 0 {
                m.irq_at = Some(m.cycles + irq_after);
            }
            let mut exits = Vec::new();
            for _ in 0..8 {
                let exit = m.run_user(budget).unwrap();
                exits.push(exit);
                match exit {
                    ExitReason::StepLimit => {}
                    ExitReason::Irq => {
                        m.irq_at = None;
                        m.exception_return().unwrap();
                    }
                    _ => break,
                }
            }
            (m, exits)
        };
        let [uop, sb, on, off] = RUNGS.map(run);
        prop_assert_eq!(&uop.1, &off.1, "uop exits diverged");
        prop_assert_eq!(&sb.1, &off.1, "superblock exits diverged");
        prop_assert_eq!(&on.1, &off.1, "accel exits diverged");
        prop_assert_eq!(uop.0.cycles, off.0.cycles, "uop cycle model diverged");
        prop_assert_eq!(uop.0.tlb.hits, off.0.tlb.hits, "uop TLB accounting diverged");
        prop_assert_eq!(uop.0.mem.reads, off.0.mem.reads, "uop read counter diverged");
        prop_assert!(uop.0 == off.0, "uop architectural state diverged");
        prop_assert!(sb.0 == off.0, "superblock architectural state diverged");
        prop_assert!(on.0 == off.0, "accel architectural state diverged");
        for m in [&uop.0, &sb.0, &on.0] {
            prop_assert_eq!(retired(m), retired(&off.0), "retired sum diverged");
        }
        prop_assert_eq!(retired(&off.0), off.0.metrics_snapshot().retired_step);
    }
}

/// Runs `code` on every rung with promotion forced, `setup` applied
/// first, for every step budget in `budgets` (one `run_user` each, from
/// a fresh machine), asserting the four machines and exits agree at each
/// stop point — a sweep that pins every retired prefix and its PC.
/// Returns the uop-rung machine and exit of the last budget.
fn sweep_rungs(
    code: &[u32],
    perms: PagePerms,
    budgets: impl IntoIterator<Item = u64>,
    setup: impl Fn(&mut Machine),
) -> (Machine, ExitReason) {
    let mut last = None;
    for budget in budgets {
        let run = |(accel, superblocks, uops): (bool, bool, bool)| {
            let mut m = machine_with_pages(code, perms);
            m.set_fetch_accel(accel);
            m.set_superblocks(superblocks);
            m.set_uop_traces(uops);
            m.set_uop_threshold(2);
            setup(&mut m);
            let exit = m.run_user(budget).unwrap();
            (m, exit)
        };
        let [uop, sb, on, off] = RUNGS.map(run);
        for (name, (m, exit)) in [("uop", &uop), ("sb", &sb), ("accel", &on)] {
            assert_eq!(*exit, off.1, "budget {budget}: {name} exit diverged");
            assert!(*m == off.0, "budget {budget}: {name} state diverged");
            assert_eq!(
                retired(m),
                retired(&off.0),
                "budget {budget}: {name} retired"
            );
        }
        last = Some(uop);
    }
    last.expect("at least one budget")
}

/// A data-TLB miss on a load reached through a taken internal jump: the
/// region must commit exactly the retired path prefix (the compare and
/// the jump, not the skipped add) with the PC at the load, and the
/// per-instruction step must then perform the walk.
#[test]
fn region_dtlb_miss_after_internal_jump_commits_the_path_prefix() {
    let mut a = Assembler::new(CODE_VA);
    a.cmp_imm(Reg::R(0), 0); // 0: always EQ (r0 = 0).
    a.emit(b_at(Cond::Eq, 1, 3)); // 1: internal jump over 2.
    a.add_imm(Reg::R(1), Reg::R(1), 1); // 2: never runs.
    a.ldr_imm(Reg::R(2), Reg::R(8), 0); // 3: a new page every pass.
    a.add_reg(Reg::R(3), Reg::R(3), Reg::R(2));
    a.add_imm(Reg::R(8), Reg::R(8), 0x1000);
    a.subs_imm(Reg::R(7), Reg::R(7), 1);
    a.emit(b_at(Cond::Ne, 7, 0));
    a.svc(0);
    let setup = |m: &mut Machine| {
        m.regs.set(Mode::User, Reg::R(7), 4);
        m.regs.set(Mode::User, Reg::R(8), DATA_VA);
    };
    let (m, exit) = sweep_rungs(&a.words(), PagePerms::RX, 1..=40, setup);
    assert_eq!(
        exit,
        ExitReason::Svc { imm24: 0 },
        "the sweep ends at the SVC"
    );
    assert_eq!(
        m.regs.get(Mode::Supervisor, Reg::R(1)),
        0,
        "skipped add ran"
    );
    let s = m.superblock_stats();
    assert!(s.uop_promoted >= 1, "loop never promoted: {s:?}");
    assert!(
        s.retired_uop > 0,
        "no instruction retired in a region: {s:?}"
    );
    assert!(s.dtlb_misses >= 4, "every pass meets a fresh page: {s:?}");
}

/// A store inside a region that patches a later instruction of the same
/// pass: it retires, then the pass stops so the stale micro-op never
/// runs, and the patched instruction takes effect at once.
#[test]
fn region_self_modifying_store_stops_after_retiring() {
    let mut a = Assembler::new(CODE_VA);
    a.cmp_imm(Reg::R(7), 2); // 0
    a.emit(b_at(Cond::Ne, 1, 3)); // 1: store only on the pass with r7 == 2.
    a.str_imm(Reg::R(4), Reg::R(9), 4 * 4); // 2: patch index 4.
    a.add_imm(Reg::R(1), Reg::R(1), 1); // 3
    a.add_imm(Reg::R(3), Reg::R(3), 1); // 4: becomes `add r3, r3, #2`.
    a.subs_imm(Reg::R(7), Reg::R(7), 1);
    a.emit(b_at(Cond::Ne, 6, 0));
    a.svc(0);
    let mut patch = Assembler::new(CODE_VA);
    patch.add_imm(Reg::R(3), Reg::R(3), 2);
    let patch_word = patch.words()[0];
    let setup = |m: &mut Machine| {
        m.regs.set(Mode::User, Reg::R(7), 6);
        m.regs.set(Mode::User, Reg::R(9), CODE_VA);
        m.regs.set(Mode::User, Reg::R(4), patch_word);
    };
    let (m, exit) = sweep_rungs(&a.words(), PagePerms::RWX, 1..=60, setup);
    assert_eq!(exit, ExitReason::Svc { imm24: 0 });
    // Passes with r7 = 6, 5, 4, 3 add 1; the patching pass and the last
    // add 2.
    assert_eq!(m.regs.get(Mode::Supervisor, Reg::R(3)), 4 + 2 * 2);
    let s = m.superblock_stats();
    assert!(s.uop_promoted >= 1, "loop never promoted: {s:?}");
    assert!(
        s.uop_invalidations >= 1,
        "patch never dropped a region: {s:?}"
    );
}

/// A carry set on the taken path only and consumed after the join: the
/// fall-through path kills every flag, so region liveness must take the
/// jump edge into account to keep the `ADDS` exact.
#[test]
fn region_flag_set_on_one_path_is_consumed_after_the_join() {
    let mut a = Assembler::new(CODE_VA);
    a.dp(DpOp::Add, true, Reg::R(1), Reg::R(1), Op2::reg(Reg::R(2))); // 0: sets C.
    a.emit(Insn::Dp {
        cond: Cond::Al,
        op: DpOp::Tst,
        s: true,
        rd: Reg::R(0),
        rn: Reg::R(0),
        op2: Op2::imm(1),
    }); // 1: Z from r0's parity; C passes through.
    a.emit(b_at(Cond::Eq, 2, 4)); // 2: even r0 jumps to the join.
    a.cmp_imm(Reg::R(3), 0); // 3: odd path: kills the carry.
    a.dp(DpOp::Adc, false, Reg::R(4), Reg::R(4), Op2::imm(0)); // 4: join, reads C.
    a.add_imm(Reg::R(0), Reg::R(0), 1);
    a.subs_imm(Reg::R(7), Reg::R(7), 1);
    a.emit(b_at(Cond::Ne, 7, 0));
    a.svc(0);
    let setup = |m: &mut Machine| {
        m.regs.set(Mode::User, Reg::R(1), 0x9000_0000);
        m.regs.set(Mode::User, Reg::R(2), 0x9000_0000);
        m.regs.set(Mode::User, Reg::R(7), 10);
    };
    let (m, exit) = sweep_rungs(&a.words(), PagePerms::RX, [30, 55, 90, 200], setup);
    assert_eq!(exit, ExitReason::Svc { imm24: 0 });
    assert!(m.superblock_stats().uop_promoted >= 1);
    assert!(
        m.regs.get(Mode::Supervisor, Reg::R(4)) > 0,
        "the carry never reached the join"
    );
}

/// A taken side exit publishes `CPSR`: the `ADDS` carry is dead on the
/// fall-through path (the `CMP` kills it) but reaches the exit through
/// the carry-preserving `TST`, so it must stay exact — the `SVC` the
/// exit lands on banks the flags into `SPSR_svc`.
#[test]
fn region_side_exit_publishes_every_flag() {
    let mut a = Assembler::new(CODE_VA);
    a.dp(DpOp::Add, true, Reg::R(0), Reg::R(0), Op2::reg(Reg::R(1))); // 0
    a.emit(Insn::Dp {
        cond: Cond::Al,
        op: DpOp::Tst,
        s: true,
        rd: Reg::R(0),
        rn: Reg::R(2),
        op2: Op2::imm(1),
    }); // 1: Z from r2's low bit; C passes through.
    a.emit(b_at(Cond::Eq, 2, 8)); // 2: side exit to the second SVC.
    a.lsr_imm(Reg::R(2), Reg::R(2), 1); // 3
    a.cmp_imm(Reg::R(3), 0); // 4: kills every flag on the fall-through.
    a.subs_imm(Reg::R(7), Reg::R(7), 1); // 5
    a.emit(b_at(Cond::Ne, 6, 0)); // 6
    a.svc(0); // 7
    a.svc(1); // 8
    let setup = |m: &mut Machine| {
        m.regs.set(Mode::User, Reg::R(0), 0x9000_0000);
        m.regs.set(Mode::User, Reg::R(1), 0x9000_0000);
        // Exits on the 6th pass, whose ADDS clears C (the CMP sets it).
        m.regs.set(Mode::User, Reg::R(2), 0x1f);
        m.regs.set(Mode::User, Reg::R(7), 20);
    };
    let (m, exit) = sweep_rungs(&a.words(), PagePerms::RX, [20, 40, 60, 200], setup);
    assert_eq!(
        exit,
        ExitReason::Svc { imm24: 1 },
        "left through the side exit"
    );
    assert!(m.superblock_stats().uop_promoted >= 1);
}

/// `STMIA r, {..}` emitted at a code index.
fn stmia(rn: Reg, regs: u16, writeback: bool) -> Insn {
    Insn::Stm {
        cond: Cond::Al,
        rn,
        writeback,
        regs,
        mode: LsmMode::Ia,
    }
}

/// An `STM` that straddles from the last data page into a read-only
/// page on a promoted region's fifth pass: the fast path must commit
/// nothing, stopping *at* the `STM`, and the per-instruction step then
/// stores the words below the page boundary and aborts on the first one
/// past it — exactly as stepping from the start would.
#[test]
fn region_stm_straddling_into_a_readonly_page_commits_nothing() {
    let mut a = Assembler::new(CODE_VA);
    a.add_imm(Reg::R(0), Reg::R(0), 1); // 0
    a.add_imm(Reg::R(1), Reg::R(1), 2); // 1
    a.emit(stmia(Reg::R(11), 0b1111, true)); // 2: 16 bytes per pass.
    a.subs_imm(Reg::R(7), Reg::R(7), 1); // 3
    a.emit(b_at(Cond::Ne, 4, 0)); // 4
    a.svc(0);
    // The fifth pass stores r0, r1 at 0xcff8/0xcffc and faults at 0xd000.
    let start = 0xd000 - 16 * 4 - 8;
    let setup = |m: &mut Machine| {
        m.mem
            .write(
                0x8000_1000 + 13 * 4,
                l2_page_desc(0x8000_7000, PagePerms::R, false),
                AccessAttrs::MONITOR,
            )
            .unwrap();
        m.regs.set(Mode::User, Reg::R(7), 20);
        m.regs.set(Mode::User, Reg::R(11), start);
    };
    let (m, exit) = sweep_rungs(&a.words(), PagePerms::RX, 1..=40, setup);
    assert_eq!(
        exit,
        ExitReason::DataAbort(MemFault::new(0xd000, MemFaultKind::Permission, true))
    );
    // VA 0xc000 is PA 0x8000_6000: the two words below the boundary are
    // stored, nothing past it, and the base is not written back.
    assert_eq!(m.mem.peek(0x8000_6ff8), Some(5));
    assert_eq!(m.mem.peek(0x8000_6ffc), Some(10));
    assert_eq!(m.mem.peek(0x8000_7000), Some(0));
    assert_eq!(m.regs.get(Mode::User, Reg::R(11)), 0xcff8);
    let s = m.superblock_stats();
    assert!(s.uop_promoted >= 1, "loop never promoted: {s:?}");
    assert!(s.retired_uop > 0, "no pass ran in a region: {s:?}");
}

/// An `STM` inside a region that writes the region's own code page: it
/// retires, the pass stops, and the patched instruction later in the
/// same pass takes effect at once — the multi-word twin of
/// [`region_self_modifying_store_stops_after_retiring`].
#[test]
fn region_stm_into_its_own_code_page_stops_after_retiring() {
    let mut a = Assembler::new(CODE_VA);
    a.cmp_imm(Reg::R(7), 2); // 0
    a.emit(b_at(Cond::Ne, 1, 3)); // 1: store only on the pass with r7 == 2.
    a.emit(stmia(Reg::R(9), 0b11_0000, false)); // 2: patch indices 4 and 5.
    a.add_imm(Reg::R(1), Reg::R(1), 1); // 3
    a.add_imm(Reg::R(3), Reg::R(3), 1); // 4: becomes `add r3, r3, #2`.
    a.subs_imm(Reg::R(7), Reg::R(7), 1); // 5: rewritten with itself.
    a.emit(b_at(Cond::Ne, 6, 0));
    a.svc(0);
    let code = a.words();
    let mut patch = Assembler::new(CODE_VA);
    patch.add_imm(Reg::R(3), Reg::R(3), 2);
    let patch_word = patch.words()[0];
    let setup = |m: &mut Machine| {
        m.regs.set(Mode::User, Reg::R(7), 6);
        m.regs.set(Mode::User, Reg::R(9), CODE_VA + 4 * 4);
        m.regs.set(Mode::User, Reg::R(4), patch_word);
        m.regs.set(Mode::User, Reg::R(5), code[5]);
    };
    let (m, exit) = sweep_rungs(&code, PagePerms::RWX, 1..=60, setup);
    assert_eq!(exit, ExitReason::Svc { imm24: 0 });
    // Passes with r7 = 6, 5, 4, 3 add 1; the patching pass and the last
    // add 2.
    assert_eq!(m.regs.get(Mode::Supervisor, Reg::R(3)), 4 + 2 * 2);
    let s = m.superblock_stats();
    assert!(s.uop_promoted >= 1, "loop never promoted: {s:?}");
    assert!(
        s.uop_invalidations >= 1,
        "patch never dropped a region: {s:?}"
    );
}

/// An interrupt deadline falling inside a region whose worst case is
/// dominated by `PUSH`/`POP` words (`n * cost::MEM` each): the
/// wake-hoisting guard must count every word, so the IRQ fires at the
/// exact per-instruction cycle. Swept across every deadline of the run.
#[test]
fn region_irq_deadline_inside_push_pop_is_exact() {
    let mut a = Assembler::new(CODE_VA);
    a.add_imm(Reg::R(0), Reg::R(0), 1);
    a.push(&[
        Reg::R(0),
        Reg::R(1),
        Reg::R(2),
        Reg::R(3),
        Reg::R(4),
        Reg::R(5),
    ]);
    a.eor_reg(Reg::R(1), Reg::R(1), Reg::R(0));
    a.pop(&[
        Reg::R(0),
        Reg::R(1),
        Reg::R(2),
        Reg::R(3),
        Reg::R(4),
        Reg::R(5),
    ]);
    a.add_reg(Reg::R(8), Reg::R(8), Reg::R(0));
    a.subs_imm(Reg::R(7), Reg::R(7), 1);
    a.emit(b_at(Cond::Ne, 6, 0));
    a.svc(0);
    let code = a.words();
    let mut irqs = 0;
    for deadline in 1..=330u64 {
        let setup = |m: &mut Machine| {
            m.regs.set(Mode::User, Reg::R(7), 10);
            m.regs.set(Mode::User, Reg::Sp, DATA_VA + 0x800);
            m.irq_at = Some(m.cycles + deadline);
        };
        let (m, exit) = sweep_rungs(&code, PagePerms::RX, [10_000], setup);
        match exit {
            ExitReason::Irq => {
                irqs += 1;
                assert_eq!(m.cpsr.mode, Mode::Irq, "deadline {deadline}");
            }
            ExitReason::Svc { imm24: 0 } => {}
            other => panic!("deadline {deadline}: unexpected exit {other:?}"),
        }
    }
    assert!(
        irqs > 300,
        "the sweep must land inside the run: {irqs} IRQs"
    );
}

/// A step budget that runs out just before, on, or just after an `LDM`
/// in a promoted region — every budget of the run — stops all four
/// rungs at the same instruction with the same state.
#[test]
fn region_budget_around_an_ldm_is_exact() {
    let mut a = Assembler::new(CODE_VA);
    a.add_imm(Reg::R(0), Reg::R(0), 1); // 0
    a.emit(Insn::Ldm {
        cond: Cond::Al,
        rn: Reg::R(8),
        writeback: false,
        regs: 0b1_1110,
        mode: LsmMode::Ia,
    }); // 1: r1..r4 from the data page.
    a.add_reg(Reg::R(5), Reg::R(5), Reg::R(1)); // 2
    a.emit(stmia(Reg::R(9), 0b10_0001, true)); // 3: r0, r5 out, r9 += 8.
    a.subs_imm(Reg::R(7), Reg::R(7), 1); // 4
    a.emit(b_at(Cond::Ne, 5, 0)); // 5
    a.svc(0);
    let setup = |m: &mut Machine| {
        for i in 0..4 {
            m.mem
                .write(0x8000_3000 + 4 * i, 0x1111 * (i + 1), AccessAttrs::MONITOR)
                .unwrap();
        }
        m.regs.set(Mode::User, Reg::R(7), 10);
        m.regs.set(Mode::User, Reg::R(8), DATA_VA);
        m.regs.set(Mode::User, Reg::R(9), DATA_VA + 0x800);
    };
    let (m, exit) = sweep_rungs(&a.words(), PagePerms::RX, 1..=62, setup);
    assert_eq!(exit, ExitReason::Svc { imm24: 0 });
    assert_eq!(m.regs.get(Mode::Supervisor, Reg::R(5)), 10 * 0x1111);
    assert_eq!(m.regs.get(Mode::Supervisor, Reg::R(4)), 0x4444);
    assert!(m.superblock_stats().retired_uop > 0);
}

/// FIQ takes priority over IRQ and lands in FIQ mode with its own bank.
#[test]
fn fiq_beats_irq_and_banks_correctly() {
    let mut a = Assembler::new(CODE_VA);
    let top = a.label();
    a.b_to(Cond::Al, top);
    let mut m = machine_with(&a.words());
    m.irq_at = Some(m.cycles + 10);
    m.fiq_at = Some(m.cycles + 10);
    let exit = m.run_user(1000).unwrap();
    assert_eq!(exit, ExitReason::Fiq);
    assert_eq!(m.cpsr.mode, Mode::Fiq);
    // Resume address preserved in LR_fiq.
    let lr = m.regs.lr_banked(komodo_armv7::regs::Bank::Fiq);
    assert!((CODE_VA..CODE_VA + 8).contains(&lr));
}
