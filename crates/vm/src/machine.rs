//! The fuel-bounded transducer interpreter.
//!
//! A [`Machine`] owns a [`Program`] and eight persistent registers. Each
//! communication round, [`Machine::round`] runs the program from the top with
//! a bounded fuel budget, reading this round's inbox bytes and accumulating
//! outbox bytes. Registers persist across rounds; inboxes/outboxes do not.
//!
//! Every program is safe to run: decoding is total, jumps are reduced into
//! the code range, and the fuel bound caps the work per round, so arbitrary
//! byte strings — e.g. produced by enumeration — execute without panics or
//! divergence.
//!
//! **One production core, one specification.** A machine predecodes its
//! program once into a `DecodedProgram` — a dense opcode plus flattened
//! operands per byte offset, with jump targets resolved — and every round
//! runs through `exec_op`, whose `match` is the single opcode → handler
//! map. `Machine::round_match` keeps the original `match` loop over
//! [`Instr`] as the executable specification; it runs only inside
//! [`dispatch::with_dispatch(false, ..)`](crate::dispatch::with_dispatch),
//! which tests and benches use to check and price the production core
//! against it.

use crate::instr::{Chan, Instr, REG_COUNT};
use crate::program::Program;
use goc_core::snap::{SnapError, SnapReader, SnapWriter};
use std::sync::Arc;

/// Register sentinel stored by `read.*` when the inbox is exhausted.
pub const EXHAUSTED: u64 = 0x100;

/// Default fuel (instructions executed) per round.
pub const DEFAULT_FUEL: u32 = 256;

/// The messages a machine consumes and produces in one round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundIo {
    /// Bytes received on channel A this round.
    pub in_a: Vec<u8>,
    /// Bytes received on channel B this round.
    pub in_b: Vec<u8>,
    /// Bytes to send on channel A next round.
    pub out_a: Vec<u8>,
    /// Bytes to send on channel B next round.
    pub out_b: Vec<u8>,
}

impl RoundIo {
    /// A round with the given inbox contents and empty outboxes.
    pub fn with_inputs(in_a: impl Into<Vec<u8>>, in_b: impl Into<Vec<u8>>) -> Self {
        RoundIo { in_a: in_a.into(), in_b: in_b.into(), out_a: Vec::new(), out_b: Vec::new() }
    }

    /// Empties all four boxes, keeping their allocations, so one `RoundIo`
    /// can be reused for every round of a candidate's run without
    /// per-round buffer churn.
    pub fn reset(&mut self) {
        self.in_a.clear();
        self.in_b.clear();
        self.out_a.clear();
        self.out_b.clear();
    }

    /// [`reset`](Self::reset) followed by copying the given inbox contents
    /// in place.
    pub fn set_inputs(&mut self, in_a: &[u8], in_b: &[u8]) {
        self.reset();
        self.in_a.extend_from_slice(in_a);
        self.in_b.extend_from_slice(in_b);
    }
}

/// A running strategy VM.
///
/// # Examples
///
/// ```
/// use goc_vm::instr::Instr;
/// use goc_vm::machine::{Machine, RoundIo};
/// use goc_vm::program::Program;
///
/// let p = Program::assemble(&[Instr::EmitA(b'x'), Instr::EndRound]);
/// let mut m = Machine::new(p);
/// let mut io = RoundIo::default();
/// m.round(&mut io);
/// assert_eq!(io.out_a, b"x");
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    program: Program,
    regs: [u64; REG_COUNT],
    fuel_per_round: u32,
    halted: Option<Vec<u8>>,
    instructions_retired: u64,
    /// Lazily built (and `Clone`-shared) decode for the production core. Never
    /// serialized: snapshots carry the program bytes, and a restore into the
    /// same program keeps the decode valid.
    decoded: Option<Arc<DecodedProgram>>,
}

impl Machine {
    /// A machine for `program` with the default fuel budget.
    pub fn new(program: Program) -> Self {
        Machine::with_fuel(program, DEFAULT_FUEL)
    }

    /// A machine with an explicit per-round fuel budget.
    ///
    /// # Panics
    ///
    /// Panics if `fuel_per_round == 0`.
    pub fn with_fuel(program: Program, fuel_per_round: u32) -> Self {
        assert!(fuel_per_round > 0, "Machine requires positive fuel");
        Machine {
            program,
            regs: [0; REG_COUNT],
            fuel_per_round,
            halted: None,
            instructions_retired: 0,
            decoded: None,
        }
    }

    /// The program being run.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The per-round fuel budget.
    pub fn fuel_per_round(&self) -> u32 {
        self.fuel_per_round
    }

    /// Register contents (persist across rounds).
    pub fn regs(&self) -> &[u64; REG_COUNT] {
        &self.regs
    }

    /// `Some(final output)` once a `halt` instruction has executed.
    pub fn halted(&self) -> Option<&[u8]> {
        self.halted.as_deref()
    }

    /// Total instructions retired over the machine's lifetime.
    pub fn instructions_retired(&self) -> u64 {
        self.instructions_retired
    }

    /// Executes one round: runs the program from the top until `end`,
    /// `halt`, code end, or fuel exhaustion, filling `io`'s outboxes.
    ///
    /// A halted machine does nothing (outboxes stay empty).
    ///
    /// The round runs through the predecoded program, built on first use
    /// and borrowed by every later round. Inside
    /// [`dispatch::with_dispatch(false, ..)`](crate::dispatch::with_dispatch)
    /// it runs the specification `match` loop instead; both are observably
    /// identical.
    pub fn round(&mut self, io: &mut RoundIo) {
        if self.halted.is_some() || self.program.is_empty() {
            return;
        }
        if !crate::dispatch::enabled() {
            self.round_match(io);
            return;
        }
        let program = &self.program;
        let decoded = self.decoded.get_or_insert_with(|| Arc::new(DecodedProgram::new(program)));
        let ops = &decoded.ops[..];
        let mut fuel = self.fuel_per_round;
        let mut lane = StepLane { pc: 0, cur_a: 0, cur_b: 0, regs: &mut self.regs, io };
        while lane.pc < ops.len() && fuel > 0 {
            fuel -= 1;
            self.instructions_retired += 1;
            match exec_op(ops[lane.pc], &mut lane) {
                StepOutcome::Continue => {}
                StepOutcome::End => return,
                StepOutcome::Halt => {
                    self.halted = Some(lane.io.out_b.clone());
                    return;
                }
            }
        }
    }

    /// The original `match` interpreter loop over [`Instr`] — the
    /// executable specification the production core is tested against.
    fn round_match(&mut self, io: &mut RoundIo) {
        let code_len = self.program.len();
        let mut pc = 0usize;
        let mut fuel = self.fuel_per_round;
        let mut cur_a = 0usize; // inbox A cursor
        let mut cur_b = 0usize; // inbox B cursor
        while pc < code_len && fuel > 0 {
            fuel -= 1;
            self.instructions_retired += 1;
            let (instr, used) = self.program.decode_at(pc);
            let mut next_pc = pc + used;
            match instr {
                Instr::Halt => {
                    self.halted = Some(io.out_b.clone());
                    return;
                }
                Instr::EmitA(b) => io.out_a.push(b),
                Instr::EmitB(b) => io.out_b.push(b),
                Instr::EmitAReg(r) => io.out_a.push(self.regs[r.index()] as u8),
                Instr::EmitBReg(r) => io.out_b.push(self.regs[r.index()] as u8),
                Instr::ReadA(r) => {
                    self.regs[r.index()] = match io.in_a.get(cur_a) {
                        Some(&b) => {
                            cur_a += 1;
                            b as u64
                        }
                        None => EXHAUSTED,
                    };
                }
                Instr::ReadB(r) => {
                    self.regs[r.index()] = match io.in_b.get(cur_b) {
                        Some(&b) => {
                            cur_b += 1;
                            b as u64
                        }
                        None => EXHAUSTED,
                    };
                }
                Instr::Const(r, b) => self.regs[r.index()] = b as u64,
                Instr::Add(r, s) => {
                    self.regs[r.index()] =
                        self.regs[r.index()].wrapping_add(self.regs[s.index()])
                }
                Instr::Inc(r) => {
                    self.regs[r.index()] = self.regs[r.index()].wrapping_add(1)
                }
                Instr::JmpIfZero(r, d) => {
                    if self.regs[r.index()] == 0 {
                        next_pc = Self::jump_target(pc, d, code_len);
                    }
                }
                Instr::Jmp(d) => next_pc = Self::jump_target(pc, d, code_len),
                Instr::CopyA(dest) => {
                    let rest = &io.in_a[cur_a.min(io.in_a.len())..];
                    match dest {
                        Chan::A => io.out_a.extend_from_slice(rest),
                        Chan::B => io.out_b.extend_from_slice(rest),
                    }
                    cur_a = io.in_a.len();
                }
                Instr::CopyB(dest) => {
                    let rest = &io.in_b[cur_b.min(io.in_b.len())..];
                    match dest {
                        Chan::A => io.out_a.extend_from_slice(rest),
                        Chan::B => io.out_b.extend_from_slice(rest),
                    }
                    cur_b = io.in_b.len();
                }
                Instr::AddConst(r, b) => {
                    self.regs[r.index()] = self.regs[r.index()].wrapping_add(b as u64)
                }
                Instr::EndRound => return,
            }
            pc = next_pc;
        }
    }

    /// Reduces a relative jump into `[0, code_len)` (wrapping), keeping every
    /// jump target valid.
    fn jump_target(pc: usize, displacement: i8, code_len: usize) -> usize {
        debug_assert!(code_len > 0);
        let target = pc as i64 + displacement as i64;
        target.rem_euclid(code_len as i64) as usize
    }

    /// Moves the machine to a memoised post-round state: the registers,
    /// cumulative retired count and halt payload the candidate cache
    /// recorded for this machine's program, fuel and interaction prefix.
    /// Executing the round would reach exactly this state, since a machine
    /// is a deterministic transducer started from all-zero registers.
    pub(crate) fn adopt(&mut self, regs: [u64; REG_COUNT], retired: u64, halted: Option<Vec<u8>>) {
        self.regs = regs;
        self.instructions_retired = retired;
        self.halted = halted;
    }

    /// Consumes the machine, returning its program (lets the candidate
    /// arena recycle program buffers on elimination).
    pub fn into_program(self) -> Program {
        self.program
    }

    /// Serializes the machine's mutable state (registers, halt payload,
    /// retired-instruction count), prefixed by its identity — the canonical
    /// program bytes and the fuel budget — which
    /// [`restore_snap`](Self::restore_snap) verifies rather than rebuilds.
    pub fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        w.bytes(self.program.as_bytes());
        w.u32(self.fuel_per_round);
        for r in self.regs {
            w.u64(r);
        }
        match &self.halted {
            None => w.u8(0),
            Some(out) => {
                w.u8(1);
                w.bytes(out);
            }
        }
        w.u64(self.instructions_retired);
        Ok(())
    }

    /// Restores state written by [`save_snap`](Self::save_snap) into this
    /// machine, which must run the same program with the same fuel budget
    /// ([`SnapError::Mismatch`] otherwise — a different program cannot
    /// continue the saved run).
    pub fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let program = r.bytes("vm program")?;
        if program != self.program.as_bytes() {
            return Err(SnapError::Mismatch {
                context: "vm program",
                expected: format!("{} bytes", self.program.len()),
                found: format!("{} bytes", program.len()),
            });
        }
        let fuel = r.u32("vm fuel")?;
        if fuel != self.fuel_per_round {
            return Err(SnapError::Mismatch {
                context: "vm fuel",
                expected: self.fuel_per_round.to_string(),
                found: fuel.to_string(),
            });
        }
        for slot in &mut self.regs {
            *slot = r.u64("vm register")?;
        }
        self.halted = match r.u8("vm halt tag")? {
            0 => None,
            1 => Some(r.bytes("vm halt output")?.to_vec()),
            found => return Err(SnapError::BadTag { context: "vm halt tag", found }),
        };
        self.instructions_retired = r.u64("vm retired")?;
        Ok(())
    }
}

/// Outcome of executing one decoded instruction (see [`exec_op`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StepOutcome {
    /// Fell through or jumped; the round continues.
    Continue,
    /// `end` — the round is over.
    End,
    /// `halt` — the caller records the current B outbox as final output.
    Halt,
}

/// The mutable per-round execution state threaded through [`exec_op`]. The
/// round loop owns fuel and retired-instruction accounting (charged
/// *before* each step, as the `match` loop does).
struct StepLane<'a> {
    pc: usize,
    cur_a: usize,
    cur_b: usize,
    regs: &'a mut [u64; REG_COUNT],
    io: &'a mut RoundIo,
}

/// Dense opcode of a [`DecodedOp`], mirroring the opcode byte map in
/// [`crate::instr`] exactly.
#[derive(Clone, Copy, Debug)]
enum Op {
    Halt,
    EmitA,
    EmitB,
    EmitAReg,
    EmitBReg,
    ReadA,
    ReadB,
    Const,
    Add,
    Inc,
    JmpIfZero,
    Jmp,
    CopyA,
    CopyB,
    AddConst,
    EndRound,
}

/// One predecoded instruction slot (see [`DecodedProgram`]): the opcode
/// plus its operands flattened out of [`Instr`] (register indices already
/// reduced mod `REG_COUNT`, channel selectors as 0 = A / 1 = B).
#[derive(Clone, Copy, Debug)]
struct DecodedOp {
    op: Op,
    /// First operand: register index, immediate byte, or channel selector.
    a: u8,
    /// Second operand (two-operand opcodes only).
    b: u8,
    /// `pos + encoded length`: the fall-through pc.
    next: u32,
    /// Precomputed, range-reduced target for `jmp` / taken `jz`; 0 otherwise.
    target: u32,
}

/// Flattens a decoded [`Instr`] into `(opcode, operand a, operand b)`.
fn flatten(instr: Instr) -> (Op, u8, u8) {
    let chan = |c: Chan| match c {
        Chan::A => 0u8,
        Chan::B => 1u8,
    };
    match instr {
        Instr::Halt => (Op::Halt, 0, 0),
        Instr::EmitA(x) => (Op::EmitA, x, 0),
        Instr::EmitB(x) => (Op::EmitB, x, 0),
        Instr::EmitAReg(r) => (Op::EmitAReg, r.index() as u8, 0),
        Instr::EmitBReg(r) => (Op::EmitBReg, r.index() as u8, 0),
        Instr::ReadA(r) => (Op::ReadA, r.index() as u8, 0),
        Instr::ReadB(r) => (Op::ReadB, r.index() as u8, 0),
        Instr::Const(r, x) => (Op::Const, r.index() as u8, x),
        Instr::Add(r, s) => (Op::Add, r.index() as u8, s.index() as u8),
        Instr::Inc(r) => (Op::Inc, r.index() as u8, 0),
        Instr::JmpIfZero(r, _) => (Op::JmpIfZero, r.index() as u8, 0),
        Instr::Jmp(_) => (Op::Jmp, 0, 0),
        Instr::CopyA(c) => (Op::CopyA, chan(c), 0),
        Instr::CopyB(c) => (Op::CopyB, chan(c), 0),
        Instr::AddConst(r, x) => (Op::AddConst, r.index() as u8, x),
        Instr::EndRound => (Op::EndRound, 0, 0),
    }
}

/// Executes one decoded op, observably identical to one iteration of the
/// `match` loop in `Machine::round_match`. This `match` is the single
/// opcode → handler map of the production core; it compiles to an indexed
/// jump whose arms inline into the round loop, so the whole per-step state
/// stays in registers on burner-heavy settle workloads.
#[inline(always)]
fn exec_op(op: DecodedOp, s: &mut StepLane<'_>) -> StepOutcome {
    let (a, b) = (op.a as usize, op.b as usize);
    match op.op {
        Op::Halt => return StepOutcome::Halt,
        Op::EndRound => return StepOutcome::End,
        Op::EmitA => s.io.out_a.push(op.a),
        Op::EmitB => s.io.out_b.push(op.a),
        Op::EmitAReg => s.io.out_a.push(s.regs[a] as u8),
        Op::EmitBReg => s.io.out_b.push(s.regs[a] as u8),
        Op::ReadA => {
            s.regs[a] = match s.io.in_a.get(s.cur_a) {
                Some(&byte) => {
                    s.cur_a += 1;
                    byte as u64
                }
                None => EXHAUSTED,
            }
        }
        Op::ReadB => {
            s.regs[a] = match s.io.in_b.get(s.cur_b) {
                Some(&byte) => {
                    s.cur_b += 1;
                    byte as u64
                }
                None => EXHAUSTED,
            }
        }
        Op::Const => s.regs[a] = op.b as u64,
        Op::Add => s.regs[a] = s.regs[a].wrapping_add(s.regs[b]),
        Op::Inc => s.regs[a] = s.regs[a].wrapping_add(1),
        Op::JmpIfZero => {
            s.pc = if s.regs[a] == 0 { op.target } else { op.next } as usize;
            return StepOutcome::Continue;
        }
        Op::Jmp => {
            s.pc = op.target as usize;
            return StepOutcome::Continue;
        }
        Op::CopyA => {
            let io = &mut *s.io;
            let rest = &io.in_a[s.cur_a.min(io.in_a.len())..];
            if op.a == 0 {
                io.out_a.extend_from_slice(rest);
            } else {
                io.out_b.extend_from_slice(rest);
            }
            s.cur_a = io.in_a.len();
        }
        Op::CopyB => {
            let io = &mut *s.io;
            let rest = &io.in_b[s.cur_b.min(io.in_b.len())..];
            if op.a == 0 {
                io.out_a.extend_from_slice(rest);
            } else {
                io.out_b.extend_from_slice(rest);
            }
            s.cur_b = io.in_b.len();
        }
        Op::AddConst => s.regs[a] = s.regs[a].wrapping_add(op.b as u64),
    }
    s.pc = op.next as usize;
    StepOutcome::Continue
}

/// A program predecoded for the production core: one op per **byte
/// offset** (jumps may land mid-instruction, so every offset is a legal
/// entry point), with fall-through and jump targets resolved up front.
/// Built once per machine and shared by every round (and by clones).
#[derive(Debug)]
struct DecodedProgram {
    ops: Box<[DecodedOp]>,
}

impl DecodedProgram {
    /// Predecodes `program` at every byte offset.
    fn new(program: &Program) -> Self {
        let code = program.as_bytes();
        let len = code.len();
        let ops = (0..len)
            .map(|pos| {
                let (instr, used) = Instr::decode(code, pos);
                let target = match instr {
                    Instr::Jmp(d) | Instr::JmpIfZero(_, d) => {
                        Machine::jump_target(pos, d, len) as u32
                    }
                    _ => 0,
                };
                let (op, a, b) = flatten(instr);
                DecodedOp { op, a, b, next: (pos + used) as u32, target }
            })
            .collect();
        DecodedProgram { ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Reg;

    fn run_once(instrs: &[Instr], in_a: &[u8], in_b: &[u8]) -> (Machine, RoundIo) {
        let mut m = Machine::new(Program::assemble(instrs));
        let mut io = RoundIo::with_inputs(in_a, in_b);
        m.round(&mut io);
        (m, io)
    }

    #[test]
    fn emit_immediates() {
        let (_, io) = run_once(&[Instr::EmitA(1), Instr::EmitB(2), Instr::EmitA(3)], b"", b"");
        assert_eq!(io.out_a, vec![1, 3]);
        assert_eq!(io.out_b, vec![2]);
    }

    #[test]
    fn read_and_emit_register() {
        let (_, io) = run_once(
            &[Instr::ReadA(Reg::new(0)), Instr::AddConst(Reg::new(0), 1), Instr::EmitBReg(Reg::new(0))],
            b"\x41",
            b"",
        );
        assert_eq!(io.out_b, vec![0x42]);
    }

    #[test]
    fn read_exhausted_sets_sentinel() {
        let (m, _) = run_once(&[Instr::ReadA(Reg::new(3))], b"", b"");
        assert_eq!(m.regs()[3], EXHAUSTED);
    }

    #[test]
    fn copy_forwards_remaining_inbox() {
        let (_, io) = run_once(
            &[Instr::ReadA(Reg::new(0)), Instr::CopyA(Chan::B)],
            b"abc",
            b"",
        );
        // First byte consumed by read, rest copied.
        assert_eq!(io.out_b, b"bc");
    }

    #[test]
    fn copy_b_to_a_relays_world_feedback() {
        let (_, io) = run_once(&[Instr::CopyB(Chan::A)], b"", b"ACK");
        assert_eq!(io.out_a, b"ACK");
    }

    #[test]
    fn halt_records_b_outbox_as_output() {
        let (m, io) = run_once(
            &[Instr::EmitB(b'o'), Instr::EmitB(b'k'), Instr::Halt, Instr::EmitB(b'!')],
            b"",
            b"",
        );
        assert_eq!(m.halted(), Some(b"ok".as_slice()));
        // Output bytes stay in the outbox too (the round's sends are real).
        assert_eq!(io.out_b, b"ok");
    }

    #[test]
    fn halted_machine_is_inert() {
        let (mut m, _) = run_once(&[Instr::Halt], b"", b"");
        assert!(m.halted().is_some());
        let mut io = RoundIo::with_inputs(b"x".as_slice(), b"".as_slice());
        m.round(&mut io);
        assert!(io.out_a.is_empty() && io.out_b.is_empty());
    }

    #[test]
    fn registers_persist_across_rounds() {
        let p = Program::assemble(&[Instr::Inc(Reg::new(0)), Instr::EmitAReg(Reg::new(0))]);
        let mut m = Machine::new(p);
        for expected in 1..=3u8 {
            let mut io = RoundIo::default();
            m.round(&mut io);
            assert_eq!(io.out_a, vec![expected]);
        }
    }

    #[test]
    fn fuel_bounds_infinite_loops() {
        // jmp +0 loops forever; fuel must stop it.
        let p = Program::assemble(&[Instr::Jmp(0)]);
        let mut m = Machine::with_fuel(p, 100);
        let mut io = RoundIo::default();
        m.round(&mut io);
        assert_eq!(m.instructions_retired(), 100);
    }

    #[test]
    fn backward_jump_with_counter_builds_loop() {
        // r0 = 3; loop: emit.a r0; r0 += 255 (i.e. -1 mod 256 at byte level
        // is not what we want for u64, so count down differently):
        // Here: emit while r1 == 0 pattern — simpler: emit.a r0 three times
        // via explicit unrolled check is overkill; instead test jz skipping.
        let p = Program::assemble(&[
            Instr::JmpIfZero(Reg::new(0), 4), // r0 == 0 initially: skip next (emit.a 0xEE is 2 bytes; jz is 3 bytes; +4 from jz start lands past emit)
            Instr::EmitA(0xee),
            Instr::EmitA(0x01),
        ]);
        let mut m = Machine::new(p);
        let mut io = RoundIo::default();
        m.round(&mut io);
        // jz at pc=0 (3 bytes), +4 → pc=4: that's the second EmitA? Layout:
        // 0..3 jz, 3..5 emit 0xee, 5..7 emit 0x01 → pc=4 lands mid-instruction
        // (operand of the first emit) — decoding from there is still total.
        // The byte at 4 is 0xee → opcode 0xee % 16 = 14 (AddConst).
        // Next decode consumes 3 bytes → pc=7 = end. So only nothing emitted.
        assert!(io.out_a.is_empty());
    }

    #[test]
    fn empty_program_is_inert() {
        let mut m = Machine::new(Program::default());
        let mut io = RoundIo::with_inputs(b"abc".as_slice(), b"def".as_slice());
        m.round(&mut io);
        assert!(io.out_a.is_empty() && io.out_b.is_empty());
        assert!(m.halted().is_none());
    }

    #[test]
    fn jump_target_wraps_both_directions() {
        assert_eq!(Machine::jump_target(0, -1, 10), 9);
        assert_eq!(Machine::jump_target(9, 3, 10), 2);
        assert_eq!(Machine::jump_target(5, 0, 10), 5);
    }

    #[test]
    #[should_panic(expected = "positive fuel")]
    fn zero_fuel_panics() {
        let _ = Machine::with_fuel(Program::default(), 0);
    }

    #[test]
    fn dispatch_table_matches_match_loop() {
        let p = Program::assemble(&[
            Instr::ReadA(Reg::new(1)),
            Instr::Const(Reg::new(2), 7),
            Instr::Add(Reg::new(1), Reg::new(2)),
            Instr::EmitAReg(Reg::new(1)),
            Instr::CopyB(Chan::A),
            Instr::JmpIfZero(Reg::new(3), 3),
            Instr::EmitB(0xAA),
        ]);
        let run = |table: bool| {
            crate::dispatch::with_dispatch(table, || {
                let mut m = Machine::with_fuel(p.clone(), 64);
                let mut outs = Vec::new();
                for _ in 0..3 {
                    let mut io = RoundIo::with_inputs(b"hi".as_slice(), b"yo".as_slice());
                    m.round(&mut io);
                    outs.push((io.out_a.clone(), io.out_b.clone()));
                }
                (outs, *m.regs(), m.instructions_retired(), m.halted.clone())
            })
        };
        assert_eq!(run(true), run(false));
    }
}
