//! Micro-op trace specialisation: a JIT-style IR tier above superblocks.
//!
//! A superblock (see [`crate::dcache`]) re-executes every hot trace
//! through the generic per-instruction executor: per instruction it
//! re-matches the condition field, the operand shapes, the `S` bit and
//! the register banking, and re-folds rotated immediates. This module
//! lifts a *hot* superblock — one whose dispatch count crossed the
//! promotion threshold — into a small micro-op IR specialised once at
//! build time.
//!
//! What gets specialised is a **region**, not just the block: the
//! contiguous address range starting at the block's entry and running
//! on through its conditional forward branches (up to `REGION_MAX`
//! instructions), ending where a block would end at any other branch or
//! at an instruction no trace may hold. A conditional forward branch
//! whose target lies inside the region becomes a guarded internal jump
//! (`Uop::Jump`); one leaving the region becomes a side exit
//! (`Uop::SideExit`); the final branch is the region's exit, and when
//! it targets the entry the runner chains passes in place. Internal
//! edges only go forward, so every instruction runs at most once per
//! pass: the region's worst-case charge is the sum of its instructions'
//! and its step requirement is its length, which keeps the dispatcher's
//! step-budget and interrupt-wake guards exact. Each instruction is
//! compiled once (no tail duplication), so a region has no more
//! micro-ops than the blocks it covers. The specialisations:
//!
//! - **Constant folding**: rotated `Op2` immediates, `MOVW`/`MOVT` pair
//!   collapsing, base+`#imm12` address offsets (pre-negated for the
//!   subtract forms), and branch targets (already absolute in
//!   `BlockEnd`) are folded to raw words. PC-relative forms never
//!   reach a trace — decode maps them to [`crate::insn::Insn::Unknown`],
//!   which is never admitted — so the only PC-dependent values in a
//!   trace are the pre-folded branch target and link address.
//! - **Dead-flag elimination**: a flag-setting instruction whose NZCV
//!   write is overwritten before any in-trace consumer (condition
//!   field, `ADC`/`SBC`/`RSC` carry-in, `MRS`) compiles to its
//!   flags-free value form; a compare whose flags die compiles to a
//!   retire-only `Uop::Nop`. Every memory access (single or multiple)
//!   and the trace exit are *observation points*: a hazard can stop the
//!   trace right before a load/store (and the exit publishes `CPSR`
//!   architecturally), so liveness is forced to "all flags" across
//!   them — the committed `CPSR` at every possible stop point is
//!   exactly the per-instruction machine's. Liveness runs over the region's control-flow graph: at
//!   an internal branch the live-out is the union of both successors,
//!   and a side exit, like the final exit, observes every flag.
//! - **Compare+branch fusion**: a trace ending `<flag-setting ALU>; B<c>`
//!   becomes a single `UopEnd::FusedBranch` conditional exit — NZCV is
//!   computed once, written to `CPSR` (it is architectural at the exit),
//!   and the branch condition is decided from the same values without a
//!   second dispatch.
//! - **Per-site data-TLB inlining**: each load/store site carries a
//!   one-entry translation cache (VA page → PA page + precomputed
//!   access attributes, presence implying the site's read/write verdict
//!   passed). Validity is anchored exactly like the fetch-side caches:
//!   the entry was formed from a data-TLB hit under the trace's
//!   `(world, TTBR0)` key, the architectural TLB never re-maps an
//!   existing VA without a flush/`TTBR0`-load/page-table store, and
//!   each of those events drops the whole block cache (traces die with
//!   their blocks) — so a surviving site entry provably replays what
//!   the exact path would compute, and accounting one TLB hit per
//!   access remains exact.
//! - **Load/store-multiple** (`LDM`/`STM`, `PUSH`/`POP`) lowers to one
//!   `Uop::Multi` with the register list, direction and writeback
//!   pre-resolved. It runs through the same all-or-nothing helper as
//!   the superblock body loop (`lsm_transfer` in [`crate::exec`]): every
//!   word is vetted against the data-TLB and the physical frame before
//!   any moves, so a hazard stops the pass *at* the instruction and the
//!   per-instruction step replays it whole. Its registers also drop out
//!   of the `MOVW`/`MOVT` constant tracking. This is what lets SHA-256's
//!   round loop, which spills through `PUSH`/`POP` mid-body, run as one
//!   self-chaining region.
//!
//! The runner (`Machine::step_superblock` in [`crate::exec`]) executes
//! specialised regions over a flat copy of the fifteen user-visible
//! registers and a local `CPSR`, committing at the end, at a side exit,
//! or at the exact retired path prefix on any hazard — the same stop
//! discipline, cycle accounting and fallback ladder (uop → superblock →
//! accelerator → baseline) as the superblock path, which the four-way
//! differential suite pins bit-for-bit.

use core::cell::Cell;

use crate::dcache::{admit, Admit};
use crate::insn::{Cond, DpOp, Insn, LsmMode, MemOffset, Op2, Shift};
use crate::machine::cost;
use crate::mem::AccessAttrs;
use crate::word::{Addr, Word, WORD_BYTES};

/// Longest region, in instructions, that promotion grows past
/// conditional forward branches: a conditional forward branch found at
/// or beyond this length ends the region the way it ends a block. Long
/// enough for the handshake's modular-multiply loop body (~28
/// instructions) with headroom; short enough that the region's
/// worst-case cycle charge rarely trips the interrupt-wake guard.
pub(crate) const REGION_MAX: usize = 64;

/// Flag-liveness bitmask bits.
const FLAG_N: u8 = 1 << 0;
const FLAG_Z: u8 = 1 << 1;
const FLAG_C: u8 = 1 << 2;
const FLAG_V: u8 = 1 << 3;
const FLAG_ALL: u8 = FLAG_N | FLAG_Z | FLAG_C | FLAG_V;

/// Which flags a condition field reads.
fn cond_reads(cond: Cond) -> u8 {
    match cond {
        Cond::Al => 0,
        Cond::Eq | Cond::Ne => FLAG_Z,
        Cond::Cs | Cond::Cc => FLAG_C,
        Cond::Mi | Cond::Pl => FLAG_N,
        Cond::Vs | Cond::Vc => FLAG_V,
        Cond::Hi | Cond::Ls => FLAG_C | FLAG_Z,
        Cond::Ge | Cond::Lt => FLAG_N | FLAG_V,
        Cond::Gt | Cond::Le => FLAG_N | FLAG_Z | FLAG_V,
    }
}

/// Whether a data-processing opcode updates `V` when it sets flags
/// (arithmetic); logical opcodes write `N`/`Z`/`C` only — `V` passes
/// through, so they do not *kill* an earlier `V` write.
fn dp_is_arith(op: DpOp) -> bool {
    matches!(
        op,
        DpOp::Sub
            | DpOp::Rsb
            | DpOp::Add
            | DpOp::Adc
            | DpOp::Sbc
            | DpOp::Rsc
            | DpOp::Cmp
            | DpOp::Cmn
    )
}

/// Whether the shifter's carry-out is its carry-in: an unrotated
/// immediate, `LSL #0`, or `ROR #0` (see [`crate::alu::shift_value`]).
fn shifter_passes_carry(op2: Op2) -> bool {
    match op2 {
        Op2::Imm { rot, .. } => rot == 0,
        Op2::Reg { shift, amount, .. } => amount == 0 && matches!(shift, Shift::Lsl | Shift::Ror),
    }
}

/// Flags an instruction overwrites with fresh values (the kill set when
/// it executes unconditionally). A logical opcode's `C` is the shifter's
/// carry-out, which for some operand shapes is just the incoming `C`:
/// such an instruction passes `C` through rather than killing it.
fn flag_writes(insn: &Insn) -> u8 {
    match *insn {
        Insn::Dp { op, s, op2, .. } if s || op.is_compare() => {
            if dp_is_arith(op) {
                FLAG_ALL
            } else if shifter_passes_carry(op2) {
                FLAG_N | FLAG_Z
            } else {
                FLAG_N | FLAG_Z | FLAG_C
            }
        }
        Insn::Mul { s: true, .. } => FLAG_N | FLAG_Z,
        _ => 0,
    }
}

/// Flags an instruction's data path consumes (condition fields are
/// handled separately by the liveness pass).
fn flag_reads(insn: &Insn) -> u8 {
    match *insn {
        Insn::Dp {
            op: DpOp::Adc | DpOp::Sbc | DpOp::Rsc,
            ..
        } => FLAG_C,
        Insn::Mrs { .. } => FLAG_ALL,
        _ => 0,
    }
}

/// A pre-resolved flexible second operand for the flags-free value path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Src {
    /// Rotated immediate, folded at build time.
    Imm(Word),
    /// Plain register (`LSL #0`).
    Reg(u8),
    /// Register with an immediate shift (the value never depends on the
    /// carry-in, so it stays a pure function of the register file).
    Shifted {
        /// Source register number.
        rm: u8,
        /// Shift kind.
        shift: Shift,
        /// Encoded amount (`LSR`/`ASR` 0 means 32).
        amount: u8,
    },
}

/// A pre-resolved load/store offset; immediate forms are folded to a
/// single wrapping addend (pre-negated for the subtract encodings).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MemOff {
    /// `base.wrapping_add(k)` — covers `#+imm12` and `#-imm12`.
    Const(Word),
    /// `base + Rm`.
    Reg(u8),
    /// `base - Rm`.
    RegNeg(u8),
}

/// A pre-resolved load/store-multiple (`LDM`/`STM`, the `PUSH`/`POP`
/// forms included). The superblock body loop and the micro-op runner
/// both execute it through one all-or-nothing transfer helper
/// (`lsm_transfer` in [`crate::exec`]), so the two tiers cannot drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Lsm {
    /// `LDM` (else `STM`).
    pub(crate) load: bool,
    /// Base register index.
    pub(crate) rn: u8,
    /// Register list (bit `i` = `R<i>`; bit 15 never set).
    pub(crate) list: u16,
    /// Decrement-before (`DB`, as `PUSH`), else increment-after (`IA`).
    pub(crate) db: bool,
    /// Write the final address back to the base.
    pub(crate) writeback: bool,
}

impl Lsm {
    /// The transfer an `LDM`/`STM` performs; `None` for anything else.
    pub(crate) fn of(insn: Insn) -> Option<Lsm> {
        let (load, rn, writeback, regs, mode) = match insn {
            Insn::Ldm {
                rn,
                writeback,
                regs,
                mode,
                ..
            } => (true, rn, writeback, regs, mode),
            Insn::Stm {
                rn,
                writeback,
                regs,
                mode,
                ..
            } => (false, rn, writeback, regs, mode),
            _ => return None,
        };
        Some(Lsm {
            load,
            rn: rn.index(),
            list: regs,
            db: mode == LsmMode::Db,
            writeback,
        })
    }

    /// Registers the transfer writes: the list for a load, plus the base
    /// under writeback.
    fn writes(self) -> u16 {
        (if self.load { self.list } else { 0 }) | ((self.writeback as u16) << self.rn)
    }
}

/// One micro-op. Register fields are pre-resolved user-bank indices
/// (0..=14) into the runner's flat register array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Uop {
    /// `rd = rn + imm` (flags dead or `S` clear).
    AddImm { rd: u8, rn: u8, imm: Word },
    /// `rd = rn - imm`.
    SubImm { rd: u8, rn: u8, imm: Word },
    /// `rd = rn + r[rm]`.
    AddReg { rd: u8, rn: u8, rm: u8 },
    /// `rd = rn ^ r[rm]`.
    EorReg { rd: u8, rn: u8, rm: u8 },
    /// `rd = imm` — folded `MOV #imm`, `MOVW`, or a `MOVW`+`MOVT` pair.
    MovConst { rd: u8, imm: Word },
    /// `MOVT`: `rd = (rd & 0xffff) | hi` with `hi` pre-shifted.
    InsTop { rd: u8, hi: Word },
    /// Generic flags-free data-processing (any opcode, any operand
    /// shape; `ADC`/`SBC`/`RSC` read the live carry).
    Alu { op: DpOp, rd: u8, rn: u8, src: Src },
    /// Exact flag-setting data-processing: live NZCV consumers exist, so
    /// the full shifter-carry + ALU-flags path runs. `wb` is the
    /// pre-resolved "writes rd" bit (false for compares).
    AluFlags {
        op: DpOp,
        wb: bool,
        rd: u8,
        rn: u8,
        op2: Op2,
    },
    /// `rd = rm * rs`, flags dead or `S` clear.
    MulVal { rd: u8, rm: u8, rs: u8 },
    /// `rd = rm * rs` with live `N`/`Z`.
    MulFlags { rd: u8, rm: u8, rs: u8 },
    /// `CMP rn, rm`: live NZCV of `rn - r[rm]`.
    CmpReg { rn: u8, rm: u8 },
    /// `ADDS rd, rn, rm` with live NZCV.
    AddsReg { rd: u8, rn: u8, rm: u8 },
    /// `SUBS rd, rn, rm` with live NZCV.
    SubsReg { rd: u8, rn: u8, rm: u8 },
    /// `ORRS rd, rn, rm` with live flags: `N`/`Z` written, `C`/`V` kept.
    OrrsReg { rd: u8, rn: u8, rm: u8 },
    /// `TST rn, #imm` (unrotated) with live flags: `N`/`Z` written,
    /// `C`/`V` kept.
    TstImm { rn: u8, imm: Word },
    /// `rd = rn + r[rm] + C` (flags dead or `S` clear).
    AdcReg { rd: u8, rn: u8, rm: u8 },
    /// `rd = rn - r[rm] - !C` (flags dead or `S` clear).
    SbcReg { rd: u8, rn: u8, rm: u8 },
    /// `rd = r[rm] >> amount`, `amount` in `1..=31`.
    LsrImm { rd: u8, rm: u8, amount: u8 },
    /// `MRS`: `rd = CPSR`.
    ReadCpsr { rd: u8 },
    /// A compare whose flags are dead: retires, does nothing.
    Nop,
    /// Load through the per-site inlined data-TLB entry.
    Load {
        rd: u8,
        base: u8,
        off: MemOff,
        byte: bool,
        site: u16,
    },
    /// Store through the per-site inlined data-TLB entry.
    Store {
        rd: u8,
        base: u8,
        off: MemOff,
        byte: bool,
        site: u16,
    },
    /// Load/store-multiple through the shared all-or-nothing helper.
    Multi(Lsm),
    /// A conditional forward branch to an instruction inside the region:
    /// taken, execution continues at body index `to` (index `body.len()`
    /// is the region's exit) and `cost::BRANCH_TAKEN` is charged.
    Jump { to: u16 },
    /// A conditional branch leaving the region: taken, the pass ends with
    /// the PC at `target` and `cost::BRANCH_TAKEN` charged.
    SideExit { target: Addr },
}

/// One body entry: a micro-op with its pre-extracted condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct UopEntry {
    /// Condition field (checked against the local `CPSR`; a failed
    /// condition still retires the instruction).
    pub(crate) cond: Cond,
    /// The operation.
    pub(crate) op: Uop,
}

/// How a specialised region ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UopEnd {
    /// Fall through to the instruction after the body.
    Fall,
    /// The region's final direct branch, target pre-folded.
    Branch {
        cond: Cond,
        target: Addr,
        link: bool,
    },
    /// Fused flag-setting ALU + conditional branch: the ALU is the
    /// block's last body instruction; its NZCV is computed once, written
    /// to `CPSR` (architectural at the exit), and the branch condition
    /// is decided from the same values. Retires two instructions.
    FusedBranch {
        op: DpOp,
        wb: bool,
        rd: u8,
        rn: u8,
        op2: Op2,
        cond: Cond,
        target: Addr,
        link: bool,
    },
}

/// A per-access-site inlined data-TLB entry. Presence implies the
/// translation passed this site's read/write permission verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Site {
    /// VA page the entry translates.
    pub(crate) va_page: Addr,
    /// Corresponding PA page base.
    pub(crate) pa_page: Addr,
    /// Precomputed access attributes for the trace's world.
    pub(crate) attrs: AccessAttrs,
}

/// A specialised micro-op region, owned by its superblock (and dying
/// with it on every invalidation).
#[derive(Clone, Debug)]
pub(crate) struct UopTrace {
    /// The specialised body, in address order: entry `i` is the
    /// instruction at `entry + 4*i` (the last body instruction may be
    /// folded into a `UopEnd::FusedBranch`).
    pub(crate) body: Box<[UopEntry]>,
    /// The specialised exit.
    pub(crate) end: UopEnd,
    /// Per-site translation slots, indexed by the `site` field of the
    /// body's memory uops. Interior-mutable so the runner can refill a
    /// slot while the trace is shared-borrowed from the block cache.
    pub(crate) sites: Box<[Cell<Option<Site>>]>,
    /// Architectural steps of the longest path through one pass: the
    /// region's length in instructions.
    pub(crate) steps: u64,
    /// Upper bound on the cycles one pass can charge: every
    /// instruction's worst case, summed (internal edges only go forward,
    /// so no path runs an instruction twice).
    pub(crate) max_charge: u64,
}

/// One region instruction before lowering.
#[derive(Clone, Copy, Debug)]
enum Node {
    /// A block-safe body instruction.
    Body(Insn, Cond),
    /// A conditional forward branch: internal jump to body index `to`
    /// when the target lies in the region, side exit to `target`
    /// otherwise.
    Fwd {
        cond: Cond,
        target: Addr,
        to: Option<u16>,
    },
}

/// Per-node flag-materialisation needs over the region's control-flow
/// graph: `need[i]` is true when node `i`'s flag writes may be observed
/// (by a later condition field, carry-in consumer, `MRS`, memory-op stop
/// point, side exit, or the final exit) and must therefore run the
/// exact flag path. Edges only go forward, so one reverse sweep visits
/// every node after all its successors.
fn flag_liveness(nodes: &[Node]) -> Vec<bool> {
    let mut need = vec![false; nodes.len()];
    // live_in[i]: flags observable on entry to node i; the final exit
    // (index nodes.len()) observes everything — its CPSR is
    // architectural.
    let mut live_in = vec![FLAG_ALL; nodes.len() + 1];
    for (i, node) in nodes.iter().enumerate().rev() {
        let live = live_in[i + 1];
        live_in[i] = match *node {
            // A hazard can stop the pass right before this access: the
            // committed CPSR at that point must already be exact.
            Node::Body(
                Insn::Ldr { .. } | Insn::Str { .. } | Insn::Ldm { .. } | Insn::Stm { .. },
                _,
            ) => FLAG_ALL,
            Node::Body(insn, cond) => {
                let w = flag_writes(&insn);
                if w != 0 {
                    // Conditional flag-setters are maybe-writes:
                    // materialise them unconditionally and kill nothing.
                    need[i] = cond != Cond::Al || (w & live) != 0;
                }
                let kill = if cond == Cond::Al { w } else { 0 };
                (live & !kill) | flag_reads(&insn) | cond_reads(cond)
            }
            Node::Fwd {
                cond, to: Some(to), ..
            } => live | live_in[to as usize] | cond_reads(cond),
            // A side exit publishes CPSR architecturally.
            Node::Fwd { to: None, .. } => FLAG_ALL,
        };
    }
    need
}

/// Folds a rotated `Op2` immediate to its word value.
fn fold_imm(imm8: u8, rot: u8) -> Word {
    (imm8 as u32).rotate_right(2 * rot as u32)
}

/// Pre-resolves an `Op2` for the flags-free value path.
fn lower_src(op2: Op2) -> Src {
    match op2 {
        Op2::Imm { imm8, rot } => Src::Imm(fold_imm(imm8, rot)),
        Op2::Reg {
            rm,
            shift: Shift::Lsl,
            amount: 0,
        } => Src::Reg(rm.index()),
        Op2::Reg { rm, shift, amount } => Src::Shifted {
            rm: rm.index(),
            shift,
            amount,
        },
    }
}

/// Lowers a data-processing instruction whose flags are live: the
/// shapes the handshake's 64-bit arithmetic leans on get dedicated
/// micro-ops; everything else runs the exact generic flag path.
fn lower_flags(op: DpOp, rd: u8, rn: u8, op2: Op2) -> Uop {
    match (op, lower_src(op2)) {
        (DpOp::Cmp, Src::Reg(rm)) => Uop::CmpReg { rn, rm },
        (DpOp::Add, Src::Reg(rm)) => Uop::AddsReg { rd, rn, rm },
        (DpOp::Sub, Src::Reg(rm)) => Uop::SubsReg { rd, rn, rm },
        (DpOp::Orr, Src::Reg(rm)) => Uop::OrrsReg { rd, rn, rm },
        (DpOp::Tst, Src::Imm(imm)) if shifter_passes_carry(op2) => Uop::TstImm { rn, imm },
        _ => Uop::AluFlags {
            op,
            wb: !op.is_compare(),
            rd,
            rn,
            op2,
        },
    }
}

/// Specialises the region entered at `entry_va`, whose instructions
/// (with pre-extracted condition fields) `code` yields in address order
/// up to the end of the decoded page. Pure function of the code: the
/// caller stores the result in the entry's block and is responsible for
/// dropping it under the block cache's invalidation discipline.
pub(crate) fn specialise(entry_va: Addr, code: impl IntoIterator<Item = (Insn, Cond)>) -> UopTrace {
    // Form the region: the block admission rules, except that a
    // conditional forward `B` below the length cap is passed through.
    let mut nodes: Vec<Node> = Vec::new();
    let mut max_charge = 0u64;
    let mut end = UopEnd::Fall;
    for (insn, cond) in code {
        let va = entry_va.wrapping_add(nodes.len() as u32 * WORD_BYTES);
        match admit(insn, va) {
            Admit::Body(charge) => {
                max_charge += charge;
                nodes.push(Node::Body(insn, cond));
            }
            Admit::Branch { cond, target, link } => {
                max_charge += cost::INSN + cost::BRANCH_TAKEN;
                if cond != Cond::Al && !link && target > va && nodes.len() < REGION_MAX {
                    nodes.push(Node::Fwd {
                        cond,
                        target,
                        to: None,
                    });
                    continue;
                }
                end = UopEnd::Branch { cond, target, link };
                break;
            }
            Admit::Stop => break,
        }
    }
    let n_body = nodes.len();
    let steps = n_body as u64 + matches!(end, UopEnd::Branch { .. }) as u64;
    // Resolve forward branches: a target at or before the region's exit
    // instruction is an internal jump; anything further is a side exit.
    let mut is_target = vec![false; n_body + 1];
    for node in nodes.iter_mut() {
        if let Node::Fwd { target, to, .. } = node {
            let off = target.wrapping_sub(entry_va);
            if off % WORD_BYTES == 0 && (off / WORD_BYTES) as usize <= n_body {
                let j = (off / WORD_BYTES) as usize;
                *to = Some(j as u16);
                is_target[j] = true;
            }
        }
    }
    let need = flag_liveness(&nodes);
    let mut body: Vec<UopEntry> = Vec::with_capacity(n_body);
    let mut sites = 0u16;
    // Build-time constant tracking for MOVW/MOVT pair folding; an entry
    // is invalidated by any (possibly conditional) write to its register
    // and by any join point (a jump target may be reached with other
    // values).
    let mut known: [Option<Word>; 15] = [None; 15];
    for (i, &node) in nodes.iter().enumerate() {
        if is_target[i] {
            known = [None; 15];
        }
        let (insn, cond) = match node {
            Node::Body(insn, cond) => (insn, cond),
            Node::Fwd { cond, target, to } => {
                let op = match to {
                    Some(to) => Uop::Jump { to },
                    None => Uop::SideExit { target },
                };
                body.push(UopEntry { cond, op });
                continue;
            }
        };
        let uop = match insn {
            Insn::Dp {
                op, s, rd, rn, op2, ..
            } => {
                let rd_i = rd.index();
                let rn_i = rn.index();
                if (s || op.is_compare()) && need[i] {
                    lower_flags(op, rd_i, rn_i, op2)
                } else if op.is_compare() {
                    // Flags provably dead and no destination: retire-only.
                    Uop::Nop
                } else {
                    match (op, lower_src(op2)) {
                        (DpOp::Mov, Src::Imm(imm)) => Uop::MovConst { rd: rd_i, imm },
                        (DpOp::Add, Src::Imm(imm)) => Uop::AddImm {
                            rd: rd_i,
                            rn: rn_i,
                            imm,
                        },
                        (DpOp::Sub, Src::Imm(imm)) => Uop::SubImm {
                            rd: rd_i,
                            rn: rn_i,
                            imm,
                        },
                        (DpOp::Add, Src::Reg(rm)) => Uop::AddReg {
                            rd: rd_i,
                            rn: rn_i,
                            rm,
                        },
                        (DpOp::Eor, Src::Reg(rm)) => Uop::EorReg {
                            rd: rd_i,
                            rn: rn_i,
                            rm,
                        },
                        (DpOp::Adc, Src::Reg(rm)) => Uop::AdcReg {
                            rd: rd_i,
                            rn: rn_i,
                            rm,
                        },
                        (DpOp::Sbc, Src::Reg(rm)) => Uop::SbcReg {
                            rd: rd_i,
                            rn: rn_i,
                            rm,
                        },
                        (
                            DpOp::Mov,
                            Src::Shifted {
                                rm,
                                shift: Shift::Lsr,
                                amount: amount @ 1..=31,
                            },
                        ) => Uop::LsrImm {
                            rd: rd_i,
                            rm,
                            amount,
                        },
                        (_, src) => Uop::Alu {
                            op,
                            rd: rd_i,
                            rn: rn_i,
                            src,
                        },
                    }
                }
            }
            Insn::Movw { rd, imm16, .. } => Uop::MovConst {
                rd: rd.index(),
                imm: imm16 as Word,
            },
            Insn::Movt { rd, imm16, .. } => {
                let hi = (imm16 as Word) << 16;
                // Fold a MOVW;MOVT pair (the mov_imm32 idiom) into one
                // constant when the low half is statically known and the
                // pair executes unconditionally.
                match known[rd.index() as usize] {
                    Some(lo) if cond == Cond::Al => Uop::MovConst {
                        rd: rd.index(),
                        imm: (lo & 0xffff) | hi,
                    },
                    _ => Uop::InsTop { rd: rd.index(), hi },
                }
            }
            Insn::Mul { s, rd, rm, rs, .. } => {
                if s && need[i] {
                    Uop::MulFlags {
                        rd: rd.index(),
                        rm: rm.index(),
                        rs: rs.index(),
                    }
                } else {
                    Uop::MulVal {
                        rd: rd.index(),
                        rm: rm.index(),
                        rs: rs.index(),
                    }
                }
            }
            Insn::Mrs { rd, .. } => Uop::ReadCpsr { rd: rd.index() },
            Insn::Ldr {
                rd, rn, off, byte, ..
            }
            | Insn::Str {
                rd, rn, off, byte, ..
            } => {
                let off = match off {
                    MemOffset::Imm { imm12, add } => MemOff::Const(if add {
                        imm12 as Word
                    } else {
                        (imm12 as Word).wrapping_neg()
                    }),
                    MemOffset::Reg { rm, add } => {
                        if add {
                            MemOff::Reg(rm.index())
                        } else {
                            MemOff::RegNeg(rm.index())
                        }
                    }
                };
                let site = sites;
                sites += 1;
                if matches!(insn, Insn::Ldr { .. }) {
                    Uop::Load {
                        rd: rd.index(),
                        base: rn.index(),
                        off,
                        byte,
                        site,
                    }
                } else {
                    Uop::Store {
                        rd: rd.index(),
                        base: rn.index(),
                        off,
                        byte,
                        site,
                    }
                }
            }
            Insn::Ldm { .. } | Insn::Stm { .. } => {
                Uop::Multi(Lsm::of(insn).expect("load/store-multiple"))
            }
            // The admission rules let nothing else into a body.
            _ => unreachable!("region admitted an unspecialisable instruction"),
        };
        // Update the constant-tracking state from the *emitted* uop.
        match uop {
            Uop::MovConst { rd, imm } if cond == Cond::Al => known[rd as usize] = Some(imm),
            Uop::Multi(m) => {
                let writes = m.writes();
                for (k, slot) in known.iter_mut().enumerate() {
                    if writes & (1 << k) != 0 {
                        *slot = None;
                    }
                }
            }
            _ => {
                if let Some(rd) = uop_dest(&uop) {
                    known[rd as usize] = None;
                }
            }
        }
        body.push(UopEntry { cond, op: uop });
    }
    // Compare+branch fusion: a region ending `<unconditional
    // flag-setting ALU>; B<c>` collapses its exit into a single
    // conditional-exit uop — unless an internal jump lands on the ALU or
    // the branch, which must then stay separately addressable.
    if let UopEnd::Branch { cond, target, link } = end {
        let jumped_into_tail = is_target[n_body.saturating_sub(1)..].iter().any(|&t| t);
        if let Some(&UopEntry {
            cond: Cond::Al,
            op:
                Uop::AluFlags {
                    op,
                    wb,
                    rd,
                    rn,
                    op2,
                },
        }) = body.last()
        {
            if !jumped_into_tail {
                body.pop();
                end = UopEnd::FusedBranch {
                    op,
                    wb,
                    rd,
                    rn,
                    op2,
                    cond,
                    target,
                    link,
                };
            }
        }
    }
    UopTrace {
        body: body.into_boxed_slice(),
        end,
        sites: vec![Cell::new(None); sites as usize].into_boxed_slice(),
        steps,
        max_charge,
    }
}

/// The single register a uop writes, if any (used only for build-time
/// constant tracking; `Uop::Multi` reports its write set through
/// `Lsm::writes` instead).
fn uop_dest(u: &Uop) -> Option<u8> {
    match *u {
        Uop::AddImm { rd, .. }
        | Uop::SubImm { rd, .. }
        | Uop::AddReg { rd, .. }
        | Uop::EorReg { rd, .. }
        | Uop::AddsReg { rd, .. }
        | Uop::SubsReg { rd, .. }
        | Uop::OrrsReg { rd, .. }
        | Uop::AdcReg { rd, .. }
        | Uop::SbcReg { rd, .. }
        | Uop::LsrImm { rd, .. }
        | Uop::MovConst { rd, .. }
        | Uop::InsTop { rd, .. }
        | Uop::Alu { rd, .. }
        | Uop::MulVal { rd, .. }
        | Uop::MulFlags { rd, .. }
        | Uop::ReadCpsr { rd }
        | Uop::Load { rd, .. } => Some(rd),
        Uop::AluFlags { wb, rd, .. } => wb.then_some(rd),
        Uop::Nop
        | Uop::CmpReg { .. }
        | Uop::TstImm { .. }
        | Uop::Store { .. }
        | Uop::Multi(_)
        | Uop::Jump { .. }
        | Uop::SideExit { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::Reg;

    const ENTRY: Addr = 0x8000;

    /// Specialises the region at [`ENTRY`] over `code` (the code ending
    /// stands in for the page end).
    fn spec(code: Vec<(Insn, Cond)>) -> UopTrace {
        specialise(ENTRY, code)
    }

    /// `B<cond>` placed at region index `at`, targeting `target`.
    fn branch(at: usize, cond: Cond, target: Addr) -> (Insn, Cond) {
        let va = ENTRY + 4 * at as u32;
        let offset = (target.wrapping_sub(va + 8) as i32) / 4;
        (Insn::B { cond, offset }, cond)
    }

    fn dp(op: DpOp, s: bool, rd: u8, rn: u8, op2: Op2) -> (Insn, Cond) {
        (
            Insn::Dp {
                cond: Cond::Al,
                op,
                s,
                rd: Reg::R(rd),
                rn: Reg::R(rn),
                op2,
            },
            Cond::Al,
        )
    }

    #[test]
    fn dead_flags_compile_to_value_forms() {
        // adds r0,r0,#1 ; cmp r1,#0 — the adds flags are killed by the
        // unconditional cmp with no observer between; the cmp feeds the
        // exit (all-live), so it stays on the exact path.
        let t = spec(vec![
            dp(DpOp::Add, true, 0, 0, Op2::imm(1)),
            dp(DpOp::Cmp, true, 0, 1, Op2::imm(0)),
        ]);
        assert_eq!(
            t.body[0].op,
            Uop::AddImm {
                rd: 0,
                rn: 0,
                imm: 1
            }
        );
        assert!(matches!(t.body[1].op, Uop::AluFlags { op: DpOp::Cmp, .. }));
    }

    #[test]
    fn dead_compare_becomes_nop_and_memory_is_a_barrier() {
        // cmp r0,#1 ; mov r2,#0 ; ldr r3,[r4] ; adds r5,r5,#1 ; cmp r6,#2
        // First cmp: killed by the second? No — the load between them is
        // an observation point, so the first cmp must materialise.
        let t = spec(vec![
            dp(DpOp::Cmp, true, 0, 0, Op2::imm(1)),
            (
                Insn::Ldr {
                    cond: Cond::Al,
                    rd: Reg::R(3),
                    rn: Reg::R(4),
                    off: MemOffset::Imm {
                        imm12: 0,
                        add: true,
                    },
                    byte: false,
                },
                Cond::Al,
            ),
            dp(DpOp::Add, true, 5, 5, Op2::imm(1)),
            dp(DpOp::Cmp, true, 0, 6, Op2::imm(2)),
        ]);
        assert!(
            matches!(t.body[0].op, Uop::AluFlags { op: DpOp::Cmp, .. }),
            "flags live across the load stop point: {:?}",
            t.body[0].op
        );
        assert_eq!(
            t.body[2].op,
            Uop::AddImm {
                rd: 5,
                rn: 5,
                imm: 1
            },
            "adds killed by the trailing cmp"
        );
        assert_eq!(t.sites.len(), 1);
    }

    #[test]
    fn dead_compare_is_a_nop() {
        // cmp r0,#1 ; cmp r1,#2 — the first compare's flags are fully
        // overwritten by the second before anything observes them.
        let t = spec(vec![
            dp(DpOp::Cmp, true, 0, 0, Op2::imm(1)),
            dp(DpOp::Cmp, true, 0, 1, Op2::imm(2)),
        ]);
        assert_eq!(t.body[0].op, Uop::Nop);
        assert!(matches!(t.body[1].op, Uop::AluFlags { .. }));
    }

    #[test]
    fn logical_s_op_does_not_kill_v() {
        // adds r0,r0,#1 (writes V) ; tst r1,#1 (writes NZC, V passes
        // through) ; exit observes V — the adds must stay exact.
        let t = spec(vec![
            dp(DpOp::Add, true, 0, 0, Op2::imm(1)),
            dp(DpOp::Tst, true, 0, 1, Op2::imm(1)),
        ]);
        assert!(matches!(t.body[0].op, Uop::AluFlags { op: DpOp::Add, .. }));
    }

    #[test]
    fn unrotated_logical_op_does_not_kill_c() {
        // adds r0,r0,#1 (writes C) ; tst r1,#1 (C = incoming C) ;
        // adc r2,r2,#0 (reads C) — the adds' carry reaches the adc.
        let t = spec(vec![
            dp(DpOp::Add, true, 0, 0, Op2::imm(1)),
            dp(DpOp::Tst, true, 0, 1, Op2::imm(1)),
            dp(DpOp::Adc, false, 2, 2, Op2::imm(0)),
            dp(DpOp::Cmp, true, 0, 3, Op2::imm(0)),
        ]);
        assert!(matches!(t.body[0].op, Uop::AluFlags { op: DpOp::Add, .. }));
        // With a rotated immediate the tst writes C itself: adds is dead.
        let t = spec(vec![
            dp(DpOp::Add, true, 0, 0, Op2::imm(1)),
            dp(DpOp::Tst, true, 0, 1, Op2::Imm { imm8: 1, rot: 1 }),
            dp(DpOp::Adc, false, 2, 2, Op2::imm(0)),
            dp(DpOp::Cmp, true, 0, 3, Op2::imm(0)),
        ]);
        assert!(matches!(t.body[0].op, Uop::AddImm { .. }));
    }

    #[test]
    fn conditional_flag_setter_stays_exact_and_kills_nothing() {
        // adds r0,r0,#1 ; addseq r1,r1,#1 — the conditional flag-setter
        // may not execute, so it can't kill the first adds' flags, and it
        // must itself materialise.
        let mut code = vec![
            dp(DpOp::Add, true, 0, 0, Op2::imm(1)),
            dp(DpOp::Add, true, 1, 1, Op2::imm(1)),
        ];
        // Make the second adds conditional.
        if let Insn::Dp { ref mut cond, .. } = code[1].0 {
            *cond = Cond::Eq;
        }
        code[1].1 = Cond::Eq;
        let t = spec(code);
        assert!(matches!(t.body[0].op, Uop::AluFlags { .. }));
        assert!(matches!(t.body[1].op, Uop::AluFlags { .. }));
        assert_eq!(t.body[1].cond, Cond::Eq);
    }

    #[test]
    fn movw_movt_pair_folds_to_one_constant() {
        let t = spec(vec![
            (
                Insn::Movw {
                    cond: Cond::Al,
                    rd: Reg::R(8),
                    imm16: 0x9000,
                },
                Cond::Al,
            ),
            (
                Insn::Movt {
                    cond: Cond::Al,
                    rd: Reg::R(8),
                    imm16: 0x1234,
                },
                Cond::Al,
            ),
        ]);
        assert_eq!(
            t.body[1].op,
            Uop::MovConst {
                rd: 8,
                imm: 0x1234_9000
            }
        );
    }

    #[test]
    fn compare_branch_fuses_into_the_exit() {
        let t = spec(vec![
            dp(DpOp::Add, false, 0, 0, Op2::imm(1)),
            dp(DpOp::Sub, true, 7, 7, Op2::imm(1)),
            branch(2, Cond::Ne, ENTRY),
        ]);
        assert_eq!(t.body.len(), 1, "subs folded into the exit");
        assert!(matches!(
            t.end,
            UopEnd::FusedBranch {
                op: DpOp::Sub,
                wb: true,
                cond: Cond::Ne,
                target: 0x8000,
                ..
            }
        ));
    }

    #[test]
    fn negative_offsets_fold_to_wrapping_addends() {
        let t = spec(vec![
            dp(DpOp::Add, false, 0, 0, Op2::imm(1)),
            (
                Insn::Ldr {
                    cond: Cond::Al,
                    rd: Reg::R(1),
                    rn: Reg::R(2),
                    off: MemOffset::Imm {
                        imm12: 8,
                        add: false,
                    },
                    byte: false,
                },
                Cond::Al,
            ),
        ]);
        assert!(matches!(
            t.body[1].op,
            Uop::Load {
                off: MemOff::Const(k),
                ..
            } if k == 8u32.wrapping_neg()
        ));
    }

    #[test]
    fn modmul_shapes_get_dedicated_uops() {
        // The reduction step of the handshake's 64-bit arithmetic:
        // orrs r8,r2,r3 ; tst r2,#1 ; adds r6,r6,r0 ; adc r7,r7,r1 ;
        // cmp r7,r5 ; subs r6,r6,r4 ; sbc r7,r7,r5 ; lsr r2,r2,#1 ;
        // then a compare feeding the exit so every flag above is live
        // only where the next reader needs it.
        let reg = |r| Op2::reg(Reg::R(r));
        let t = spec(vec![
            dp(DpOp::Orr, true, 8, 2, reg(3)),
            branch(1, Cond::Eq, ENTRY + 0x100),
            dp(DpOp::Tst, true, 0, 2, Op2::imm(1)),
            branch(3, Cond::Eq, ENTRY + 0x100),
            dp(DpOp::Add, true, 6, 6, reg(0)),
            dp(DpOp::Adc, false, 7, 7, reg(1)),
            dp(DpOp::Cmp, true, 0, 7, reg(5)),
            branch(7, Cond::Cc, ENTRY + 0x100),
            dp(DpOp::Sub, true, 6, 6, reg(4)),
            dp(DpOp::Sbc, false, 7, 7, reg(5)),
            dp(
                DpOp::Mov,
                false,
                2,
                0,
                Op2::Reg {
                    rm: Reg::R(2),
                    shift: Shift::Lsr,
                    amount: 1,
                },
            ),
        ]);
        let ops: Vec<Uop> = t.body.iter().map(|e| e.op).collect();
        assert_eq!(
            ops[0],
            Uop::OrrsReg {
                rd: 8,
                rn: 2,
                rm: 3
            }
        );
        assert_eq!(ops[2], Uop::TstImm { rn: 2, imm: 1 });
        assert_eq!(
            ops[4],
            Uop::AddsReg {
                rd: 6,
                rn: 6,
                rm: 0
            }
        );
        assert_eq!(
            ops[5],
            Uop::AdcReg {
                rd: 7,
                rn: 7,
                rm: 1
            }
        );
        assert_eq!(ops[6], Uop::CmpReg { rn: 7, rm: 5 });
        assert_eq!(
            ops[8],
            Uop::SubsReg {
                rd: 6,
                rn: 6,
                rm: 4
            }
        );
        assert_eq!(
            ops[9],
            Uop::SbcReg {
                rd: 7,
                rn: 7,
                rm: 5
            }
        );
        assert_eq!(
            ops[10],
            Uop::LsrImm {
                rd: 2,
                rm: 2,
                amount: 1
            }
        );
    }

    #[test]
    fn region_grows_through_forward_branches_to_the_back_edge() {
        // 0: cmp r0,#0 ; 1: beq 4 ; 2: add r1,r1,#1 ; 3: bhi 9 (leaves) ;
        // 4: add r2,r2,#1 ; 5: b 0 (back edge: the region's exit).
        let t = spec(vec![
            dp(DpOp::Cmp, true, 0, 0, Op2::imm(0)),
            branch(1, Cond::Eq, ENTRY + 16),
            dp(DpOp::Add, false, 1, 1, Op2::imm(1)),
            branch(3, Cond::Hi, ENTRY + 36),
            dp(DpOp::Add, false, 2, 2, Op2::imm(1)),
            branch(5, Cond::Al, ENTRY),
            dp(DpOp::Add, false, 3, 3, Op2::imm(1)),
        ]);
        assert_eq!(t.steps, 6, "the region stops at its back edge");
        assert_eq!(t.body.len(), 5);
        assert_eq!(t.body[1].op, Uop::Jump { to: 4 });
        assert_eq!(t.body[1].cond, Cond::Eq);
        assert_eq!(t.body[3].op, Uop::SideExit { target: ENTRY + 36 });
        assert!(matches!(
            t.end,
            UopEnd::Branch {
                cond: Cond::Al,
                target: ENTRY,
                link: false
            }
        ));
        // Every instruction's worst case, summed: 3 ALU ops, 3 branches.
        assert_eq!(
            t.max_charge,
            3 * cost::INSN + 3 * (cost::INSN + cost::BRANCH_TAKEN)
        );
    }

    #[test]
    fn flags_live_on_either_successor_stay_exact() {
        // 0: adds r0,r0,#1 ; 1: beq 3 ; 2: cmp r1,#0 ; 3: addcs r2,r2,#1 ;
        // 4: cmp r3,#0 (kills everything before the exit).
        // The adds' C flag is dead on the fall-through path (killed by
        // the cmp at 2) but live on the taken path (read at 3): the
        // union keeps it exact.
        let mut addcs = dp(DpOp::Add, false, 2, 2, Op2::imm(1));
        if let Insn::Dp { ref mut cond, .. } = addcs.0 {
            *cond = Cond::Cs;
        }
        addcs.1 = Cond::Cs;
        let t = spec(vec![
            dp(DpOp::Add, true, 0, 0, Op2::imm(1)),
            branch(1, Cond::Eq, ENTRY + 12),
            dp(DpOp::Cmp, true, 0, 1, Op2::imm(0)),
            addcs,
            dp(DpOp::Cmp, true, 0, 3, Op2::imm(0)),
        ]);
        assert!(matches!(t.body[0].op, Uop::AluFlags { op: DpOp::Add, .. }));
        assert_eq!(t.body[1].op, Uop::Jump { to: 3 });
        // The fall-through cmp feeds the addcs: exact too.
        assert!(matches!(t.body[2].op, Uop::AluFlags { op: DpOp::Cmp, .. }));
    }

    #[test]
    fn side_exit_observes_every_flag() {
        // 0: adds r0,r0,#1 ; 1: bne out (side exit) ; 2: cmp r1,#0.
        // The adds would be dead on the fall-through path, but the side
        // exit publishes CPSR.
        let t = spec(vec![
            dp(DpOp::Add, true, 0, 0, Op2::imm(1)),
            branch(1, Cond::Ne, ENTRY + 0x100),
            dp(DpOp::Cmp, true, 0, 1, Op2::imm(0)),
        ]);
        assert!(matches!(t.body[0].op, Uop::AluFlags { op: DpOp::Add, .. }));
        assert!(matches!(t.body[1].op, Uop::SideExit { .. }));
    }

    #[test]
    fn no_fusion_when_a_jump_lands_on_the_exit() {
        // 0: cmp r0,#0 ; 1: beq 3 ; 2: subs r7,r7,#1 ; 3: bne 0.
        // The jump targets the exit branch, so the subs cannot fold into
        // it (the taken jump must not run the subs).
        let t = spec(vec![
            dp(DpOp::Cmp, true, 0, 0, Op2::imm(0)),
            branch(1, Cond::Eq, ENTRY + 12),
            dp(DpOp::Sub, true, 7, 7, Op2::imm(1)),
            branch(3, Cond::Ne, ENTRY),
        ]);
        assert_eq!(t.body.len(), 3);
        assert!(matches!(t.end, UopEnd::Branch { .. }));
        assert_eq!(t.steps, 4);
    }

    #[test]
    fn constants_do_not_flow_across_join_points() {
        // 0: movw r8,#0x9000 ; 1: beq 3 ; 2: movw r8,#0x1111 ;
        // 3: movt r8,#0x1234 — two values reach the movt: no folding.
        let movw = |imm16| {
            (
                Insn::Movw {
                    cond: Cond::Al,
                    rd: Reg::R(8),
                    imm16,
                },
                Cond::Al,
            )
        };
        let t = spec(vec![
            movw(0x9000),
            branch(1, Cond::Eq, ENTRY + 12),
            movw(0x1111),
            (
                Insn::Movt {
                    cond: Cond::Al,
                    rd: Reg::R(8),
                    imm16: 0x1234,
                },
                Cond::Al,
            ),
        ]);
        assert_eq!(
            t.body[3].op,
            Uop::InsTop {
                rd: 8,
                hi: 0x1234_0000
            }
        );
    }

    fn pop(regs: u16) -> (Insn, Cond) {
        (
            Insn::Ldm {
                cond: Cond::Al,
                rn: Reg::Sp,
                writeback: true,
                regs,
                mode: LsmMode::Ia,
            },
            Cond::Al,
        )
    }

    #[test]
    fn load_store_multiple_rides_inside_the_region() {
        // adds r0,r0,#1 ; pop {r3} ; cmp r1,#0 — the pop is a stop point,
        // so the adds' flags stay exact although the cmp kills them; the
        // region's worst case charges one `cost::MEM` per listed word.
        let t = spec(vec![
            dp(DpOp::Add, true, 0, 0, Op2::imm(1)),
            pop(1 << 3),
            dp(DpOp::Cmp, true, 0, 1, Op2::imm(0)),
        ]);
        assert!(matches!(t.body[0].op, Uop::AluFlags { op: DpOp::Add, .. }));
        assert_eq!(
            t.body[1].op,
            Uop::Multi(Lsm {
                load: true,
                rn: 13,
                list: 1 << 3,
                db: false,
                writeback: true,
            })
        );
        assert_eq!(t.steps, 3);
        assert_eq!(t.max_charge, 3 * cost::INSN + cost::MEM);
    }

    #[test]
    fn load_multiple_kills_known_constants_it_writes() {
        // movw r8,#0x9000 ; pop {r8} ; movt r8,#0x1234 — the pop writes
        // r8, so the movt must not fold the stale low half.
        let t = spec(vec![
            (
                Insn::Movw {
                    cond: Cond::Al,
                    rd: Reg::R(8),
                    imm16: 0x9000,
                },
                Cond::Al,
            ),
            pop(1 << 8),
            (
                Insn::Movt {
                    cond: Cond::Al,
                    rd: Reg::R(8),
                    imm16: 0x1234,
                },
                Cond::Al,
            ),
        ]);
        assert_eq!(
            t.body[2].op,
            Uop::InsTop {
                rd: 8,
                hi: 0x1234_0000
            }
        );
    }

    #[test]
    fn region_length_is_capped() {
        // A chain of conditional forward branches over single adds: the
        // branch found at the cap ends the region like a block's branch.
        let mut code = Vec::new();
        for k in 0..REGION_MAX + 8 {
            if k % 2 == 0 {
                code.push(dp(DpOp::Add, false, 0, 0, Op2::imm(1)));
            } else {
                code.push(branch(k, Cond::Eq, ENTRY + 4 * (k as u32 + 2)));
            }
        }
        let t = spec(code);
        assert_eq!(t.steps, REGION_MAX as u64 + 2);
        assert!(matches!(t.end, UopEnd::Branch { cond: Cond::Eq, .. }));
    }
}
