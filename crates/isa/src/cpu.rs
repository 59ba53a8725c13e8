//! Architectural state and the single-step interpreter for GISA.
//!
//! The interpreter is deliberately decoupled from any particular memory
//! system through the [`MemoryBus`] trait: unit tests use the simple
//! [`FlatMemory`], while the hardware crate plugs in the full MMU + cache
//! hierarchy so that permission checks and latency accounting apply to every
//! guest access.

use crate::inst::{csr, Instruction, Opcode};
use guillotine_types::{GuillotineError, Result};

/// Why a memory access is being performed; the MMU uses this to apply
/// read/write/execute permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch.
    Execute,
    /// Data read.
    Read,
    /// Data write.
    Write,
}

/// The interface between the interpreter and the memory system.
///
/// Every access returns the data (for loads/fetches) together with the
/// simulated latency in cycles, so callers can do cache-accurate timing.
pub trait MemoryBus {
    /// Reads `size` bytes (1, 4 or 8) at `addr`, zero-extended into a `u64`.
    fn load(&mut self, addr: u64, size: u8, kind: AccessKind) -> Result<(u64, u64)>;

    /// Writes the low `size` bytes (1, 4 or 8) of `value` at `addr`.
    /// Returns the access latency in cycles.
    fn store(&mut self, addr: u64, size: u8, value: u64) -> Result<u64>;

    /// Fetches the 32-bit instruction word at `addr`.
    fn fetch(&mut self, addr: u64) -> Result<(u32, u64)> {
        let (v, lat) = self.load(addr, 4, AccessKind::Execute)?;
        Ok((v as u32, lat))
    }
}

/// A flat little-endian byte-array memory with uniform single-cycle latency.
///
/// Used by unit tests and by components that need a scratch memory without
/// cache or MMU semantics.
#[derive(Debug, Clone)]
pub struct FlatMemory {
    bytes: Vec<u8>,
}

impl FlatMemory {
    /// Creates a zeroed memory of `size` bytes.
    pub fn new(size: usize) -> Self {
        FlatMemory {
            bytes: vec![0; size],
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns true if the memory has zero length.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Copies `image` into memory starting at `addr`.
    pub fn load_image(&mut self, addr: u64, image: &[u8]) -> Result<()> {
        let start = addr as usize;
        let end = start
            .checked_add(image.len())
            .ok_or_else(|| GuillotineError::config("image wraps address space"))?;
        if end > self.bytes.len() {
            return Err(GuillotineError::MemoryFault {
                addr,
                reason: "image does not fit in flat memory".into(),
            });
        }
        self.bytes[start..end].copy_from_slice(image);
        Ok(())
    }

    /// Reads a contiguous byte range (for inspection in tests).
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<&[u8]> {
        let start = addr as usize;
        let end = start + len;
        if end > self.bytes.len() {
            return Err(GuillotineError::MemoryFault {
                addr,
                reason: "read beyond end of flat memory".into(),
            });
        }
        Ok(&self.bytes[start..end])
    }
}

impl MemoryBus for FlatMemory {
    fn load(&mut self, addr: u64, size: u8, _kind: AccessKind) -> Result<(u64, u64)> {
        let start = addr as usize;
        let end = start + size as usize;
        if end > self.bytes.len() {
            return Err(GuillotineError::MemoryFault {
                addr,
                reason: "load beyond end of flat memory".into(),
            });
        }
        let mut v = 0u64;
        for (i, b) in self.bytes[start..end].iter().enumerate() {
            v |= (*b as u64) << (8 * i);
        }
        Ok((v, 1))
    }

    fn store(&mut self, addr: u64, size: u8, value: u64) -> Result<u64> {
        let start = addr as usize;
        let end = start + size as usize;
        if end > self.bytes.len() {
            return Err(GuillotineError::MemoryFault {
                addr,
                reason: "store beyond end of flat memory".into(),
            });
        }
        for i in 0..size as usize {
            self.bytes[start + i] = ((value >> (8 * i)) & 0xFF) as u8;
        }
        Ok(1)
    }
}

/// Events that stop or redirect execution, reported by [`CpuState::step`].
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// The guest executed `halt`.
    Halted,
    /// The guest executed `hvcall arg`; the hardware layer must deliver an
    /// interrupt to a hypervisor core.
    HvCall {
        /// The immediate request code.
        arg: u16,
    },
    /// The guest executed `wfi` and no local interrupt is pending.
    WaitForInterrupt,
    /// A local, guest-handled exception (division by zero, misaligned access)
    /// was raised and vectored to the guest's `TVEC` handler. The hypervisor
    /// is *not* involved (§3.2: model cores handle local exceptions).
    LocalException {
        /// Exception cause code (1 = division by zero, 2 = misaligned).
        cause: u64,
    },
    /// A memory access was denied by the memory system (MMU permission
    /// violation, out-of-range access). Unlike local exceptions these are
    /// surfaced to the hypervisor because they are security relevant.
    Fault(GuillotineError),
}

/// The result of running a batch of instructions.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// The instruction budget was exhausted; the guest is still runnable.
    Running,
    /// The guest halted voluntarily.
    Halted,
    /// The guest performed a hypervisor call and is waiting for completion.
    HvCall {
        /// The immediate request code.
        arg: u16,
    },
    /// The guest is waiting for a local interrupt.
    WaitingForInterrupt,
    /// The guest faulted; the error describes why.
    Faulted(GuillotineError),
}

/// Architectural state of one GISA hardware thread.
#[derive(Debug, Clone)]
pub struct CpuState {
    regs: [u64; 32],
    pc: u64,
    csrs: [u64; 16],
    cycles: u64,
    instret: u64,
    core_id: u64,
    halted: bool,
}

impl CpuState {
    /// Creates a CPU with all registers zeroed and the program counter at
    /// `entry`.
    pub fn new(entry: u64) -> Self {
        CpuState {
            regs: [0; 32],
            pc: entry,
            csrs: [0; 16],
            cycles: 0,
            instret: 0,
            core_id: 0,
            halted: false,
        }
    }

    /// Sets the hardware core id reported by the `CORE_ID` CSR.
    pub fn set_core_id(&mut self, id: u64) {
        self.core_id = id;
    }

    /// Reads a general-purpose register.
    pub fn reg(&self, idx: usize) -> u64 {
        if idx == 0 {
            0
        } else {
            self.regs[idx % 32]
        }
    }

    /// Writes a general-purpose register (writes to `x0` are ignored).
    pub fn set_reg(&mut self, idx: usize, value: u64) {
        if !idx.is_multiple_of(32) {
            self.regs[idx % 32] = value;
        }
    }

    /// The current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Redirects execution to `pc`.
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Total simulated cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total retired instructions.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Whether the CPU has executed `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Clears the halted flag (used when the hypervisor restarts a core).
    pub fn clear_halt(&mut self) {
        self.halted = false;
    }

    /// Reads a CSR by index.
    pub fn csr(&self, idx: u16) -> u64 {
        match idx {
            csr::CYCLE => self.cycles,
            csr::CORE_ID => self.core_id,
            csr::INSTRET => self.instret,
            i if (i as usize) < self.csrs.len() => self.csrs[i as usize],
            _ => 0,
        }
    }

    /// Writes a CSR by index (read-only CSRs are ignored).
    pub fn set_csr(&mut self, idx: u16, value: u64) {
        match idx {
            csr::CYCLE | csr::CORE_ID | csr::INSTRET => {}
            i if (i as usize) < self.csrs.len() => self.csrs[i as usize] = value,
            _ => {}
        }
    }

    /// Marks a local interrupt as pending (bit index in `IPEND`).
    pub fn raise_local_interrupt(&mut self, bit: u8) {
        let v = self.csr(csr::IPEND) | (1 << bit);
        self.set_csr(csr::IPEND, v);
    }

    /// Returns true if any enabled local interrupt is pending.
    pub fn local_interrupt_pending(&self) -> bool {
        self.csr(csr::IPEND) & self.csr(csr::IENABLE) != 0
    }

    fn local_exception(&mut self, cause: u64, addr: u64) -> Trap {
        // Model cores handle their own exceptions (§3.2): vector to TVEC if
        // the guest installed a handler, otherwise treat as a halt.
        self.set_csr(csr::FAULT_ADDR, addr);
        let tvec = self.csr(csr::TVEC);
        if tvec != 0 {
            self.pc = tvec;
        } else {
            self.halted = true;
        }
        Trap::LocalException { cause }
    }

    /// Executes a single instruction against `mem`.
    ///
    /// Returns `Ok(None)` when execution simply continues, or `Ok(Some(trap))`
    /// when the instruction raised a trap. Memory faults are reported as
    /// [`Trap::Fault`] rather than `Err` so the caller (the hardware layer)
    /// can decide how to escalate them.
    pub fn step<M: MemoryBus>(&mut self, mem: &mut M) -> Result<Option<Trap>> {
        if self.halted {
            return Ok(Some(Trap::Halted));
        }
        let (word, fetch_lat) = match mem.fetch(self.pc) {
            Ok(x) => x,
            Err(e) => {
                self.cycles += 1;
                return Ok(Some(Trap::Fault(e)));
            }
        };
        self.cycles += fetch_lat;
        let inst = match Instruction::decode(word) {
            Some(i) => i,
            None => {
                return Ok(Some(Trap::Fault(GuillotineError::IllegalInstruction {
                    pc: self.pc,
                    word,
                    reason: "unknown opcode".into(),
                })))
            }
        };
        let next_pc = self.pc.wrapping_add(4);
        let mut new_pc = next_pc;
        let mut trap = None;

        match inst {
            Instruction::Nop | Instruction::Fence => {
                self.cycles += 1;
            }
            Instruction::Alu { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1.index());
                let b = self.reg(rs2.index());
                self.cycles += if matches!(op, Opcode::Mul | Opcode::Divu | Opcode::Remu) {
                    3
                } else {
                    1
                };
                let value = match op {
                    Opcode::Add => a.wrapping_add(b),
                    Opcode::Sub => a.wrapping_sub(b),
                    Opcode::Mul => a.wrapping_mul(b),
                    Opcode::Divu => {
                        if b == 0 {
                            return Ok(Some(self.local_exception(1, self.pc)));
                        }
                        a / b
                    }
                    Opcode::Remu => {
                        if b == 0 {
                            return Ok(Some(self.local_exception(1, self.pc)));
                        }
                        a % b
                    }
                    Opcode::And => a & b,
                    Opcode::Or => a | b,
                    Opcode::Xor => a ^ b,
                    Opcode::Sll => a.wrapping_shl((b & 63) as u32),
                    Opcode::Srl => a.wrapping_shr((b & 63) as u32),
                    Opcode::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
                    Opcode::Slt => ((a as i64) < (b as i64)) as u64,
                    Opcode::Sltu => (a < b) as u64,
                    _ => unreachable!("non-ALU opcode in Alu variant"),
                };
                self.set_reg(rd.index(), value);
            }
            Instruction::AluImm { op, rd, rs1, imm } => {
                let a = self.reg(rs1.index());
                // Arithmetic immediates are sign-extended; logical immediates
                // are zero-extended so `lui`+`ori` composes 32-bit constants.
                let i = imm as i64 as u64;
                let z = imm as u16 as u64;
                self.cycles += 1;
                let value = match op {
                    Opcode::Addi => a.wrapping_add(i),
                    Opcode::Andi => a & z,
                    Opcode::Ori => a | z,
                    Opcode::Xori => a ^ z,
                    Opcode::Slli => a.wrapping_shl((imm as u32) & 63),
                    Opcode::Srli => a.wrapping_shr((imm as u32) & 63),
                    _ => unreachable!("non-ALU-imm opcode in AluImm variant"),
                };
                self.set_reg(rd.index(), value);
            }
            Instruction::Lui { rd, imm } => {
                self.cycles += 1;
                self.set_reg(rd.index(), (imm as u64) << 16);
            }
            Instruction::Load { op, rd, rs1, imm } => {
                let addr = self.reg(rs1.index()).wrapping_add(imm as i64 as u64);
                let size = match op {
                    Opcode::Ldb => 1,
                    Opcode::Ldw => 4,
                    _ => 8,
                };
                if size == 8 && !addr.is_multiple_of(8) || size == 4 && !addr.is_multiple_of(4) {
                    return Ok(Some(self.local_exception(2, addr)));
                }
                match mem.load(addr, size, AccessKind::Read) {
                    Ok((v, lat)) => {
                        self.cycles += lat;
                        self.set_reg(rd.index(), v);
                    }
                    Err(e) => {
                        self.cycles += 1;
                        trap = Some(Trap::Fault(e));
                    }
                }
            }
            Instruction::Store { op, rs1, rs2, imm } => {
                let addr = self.reg(rs1.index()).wrapping_add(imm as i64 as u64);
                let size = match op {
                    Opcode::Stb => 1,
                    Opcode::Stw => 4,
                    _ => 8,
                };
                if size == 8 && !addr.is_multiple_of(8) || size == 4 && !addr.is_multiple_of(4) {
                    return Ok(Some(self.local_exception(2, addr)));
                }
                match mem.store(addr, size, self.reg(rs2.index())) {
                    Ok(lat) => self.cycles += lat,
                    Err(e) => {
                        self.cycles += 1;
                        trap = Some(Trap::Fault(e));
                    }
                }
            }
            Instruction::Branch { op, rs1, rs2, imm } => {
                let a = self.reg(rs1.index());
                let b = self.reg(rs2.index());
                self.cycles += 1;
                let taken = match op {
                    Opcode::Beq => a == b,
                    Opcode::Bne => a != b,
                    Opcode::Blt => (a as i64) < (b as i64),
                    Opcode::Bge => (a as i64) >= (b as i64),
                    Opcode::Bltu => a < b,
                    Opcode::Bgeu => a >= b,
                    _ => unreachable!("non-branch opcode in Branch variant"),
                };
                if taken {
                    new_pc = next_pc.wrapping_add((imm as i64 * 4) as u64);
                    // Taken branches cost an extra cycle (pipeline redirect).
                    self.cycles += 1;
                }
            }
            Instruction::Jal { rd, imm } => {
                self.cycles += 1;
                self.set_reg(rd.index(), next_pc);
                new_pc = next_pc.wrapping_add((imm as i64 * 4) as u64);
            }
            Instruction::Jalr { rd, rs1, imm } => {
                self.cycles += 1;
                let target = self.reg(rs1.index()).wrapping_add(imm as i64 as u64);
                self.set_reg(rd.index(), next_pc);
                new_pc = target & !1;
            }
            Instruction::Hvcall { arg } => {
                self.cycles += 1;
                trap = Some(Trap::HvCall { arg });
            }
            Instruction::Halt => {
                self.cycles += 1;
                self.halted = true;
                trap = Some(Trap::Halted);
            }
            Instruction::Csrr { rd, csr: c } => {
                self.cycles += 1;
                let v = self.csr(c);
                self.set_reg(rd.index(), v);
            }
            Instruction::Csrw { rs1, csr: c } => {
                self.cycles += 1;
                let v = self.reg(rs1.index());
                self.set_csr(c, v);
            }
            Instruction::Probe { rd, rs1 } => {
                let addr = self.reg(rs1.index());
                match mem.load(addr, 8, AccessKind::Read) {
                    Ok((_, lat)) => {
                        self.cycles += lat;
                        self.set_reg(rd.index(), lat);
                    }
                    Err(e) => {
                        self.cycles += 1;
                        trap = Some(Trap::Fault(e));
                    }
                }
            }
            Instruction::Wfi => {
                self.cycles += 1;
                if !self.local_interrupt_pending() {
                    trap = Some(Trap::WaitForInterrupt);
                }
            }
        }

        self.instret += 1;
        match &trap {
            // A faulting instruction does not advance the pc: the hypervisor
            // sees the exact faulting instruction when it inspects the core.
            Some(Trap::Fault(_)) => {}
            // After an hvcall or wfi the pc advances past the instruction so
            // resuming the core continues with the next instruction.
            _ => self.pc = new_pc,
        }
        Ok(trap)
    }

    /// Runs up to `max_instructions`, stopping early on any trap.
    ///
    /// Memory faults and illegal instructions are reported via
    /// [`StepOutcome::Faulted`]; other traps map to their corresponding
    /// outcome variants.
    pub fn run<M: MemoryBus>(&mut self, mem: &mut M, max_instructions: u64) -> Result<StepOutcome> {
        for _ in 0..max_instructions {
            match self.step(mem)? {
                None => continue,
                Some(Trap::Halted) => return Ok(StepOutcome::Halted),
                Some(Trap::HvCall { arg }) => return Ok(StepOutcome::HvCall { arg }),
                Some(Trap::WaitForInterrupt) => return Ok(StepOutcome::WaitingForInterrupt),
                Some(Trap::LocalException { .. }) => {
                    if self.halted {
                        return Ok(StepOutcome::Halted);
                    }
                    // Guest-handled exception: continue at the handler.
                    continue;
                }
                Some(Trap::Fault(e)) => return Ok(StepOutcome::Faulted(e)),
            }
        }
        Ok(StepOutcome::Running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_asm(src: &str) -> (CpuState, FlatMemory, StepOutcome) {
        let program = crate::asm::assemble_at(src, 0x1000).expect("assembles");
        let mut mem = FlatMemory::new(1 << 20);
        mem.load_image(0x1000, &program.image()).unwrap();
        let mut cpu = CpuState::new(0x1000);
        let out = cpu.run(&mut mem, 100_000).unwrap();
        (cpu, mem, out)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (cpu, _, out) = run_asm(
            "
            li x1, 10
            li x2, 32
            add x3, x1, x2
            halt
            ",
        );
        assert_eq!(out, StepOutcome::Halted);
        assert_eq!(cpu.reg(3), 42);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let (cpu, mem, out) = run_asm(
            "
            li x1, 0x8000
            li x2, 0x1234
            std x2, x1, 0
            ldd x3, x1, 0
            ldb x4, x1, 1
            halt
            ",
        );
        assert_eq!(out, StepOutcome::Halted);
        assert_eq!(cpu.reg(3), 0x1234);
        assert_eq!(cpu.reg(4), 0x12);
        assert_eq!(mem.read_bytes(0x8000, 2).unwrap(), &[0x34, 0x12]);
    }

    #[test]
    fn branches_and_loops() {
        // Sum 1..=10 with a loop.
        let (cpu, _, out) = run_asm(
            "
            li x1, 0      # sum
            li x2, 10     # i
            loop:
            add x1, x1, x2
            addi x2, x2, -1
            bne x2, x0, loop
            halt
            ",
        );
        assert_eq!(out, StepOutcome::Halted);
        assert_eq!(cpu.reg(1), 55);
    }

    #[test]
    fn jal_and_jalr_call_return() {
        let (cpu, _, out) = run_asm(
            "
            li x10, 5
            jal x31, double
            halt
            double:
            add x10, x10, x10
            jalr x0, x31, 0
            ",
        );
        assert_eq!(out, StepOutcome::Halted);
        assert_eq!(cpu.reg(10), 10);
    }

    #[test]
    fn hvcall_traps_with_argument() {
        let (_, _, out) = run_asm(
            "
            hvcall 7
            halt
            ",
        );
        assert_eq!(out, StepOutcome::HvCall { arg: 7 });
    }

    #[test]
    fn division_by_zero_is_a_local_exception() {
        // Without a TVEC handler the core halts.
        let (cpu, _, out) = run_asm(
            "
            li x1, 10
            li x2, 0
            divu x3, x1, x2
            halt
            ",
        );
        assert_eq!(out, StepOutcome::Halted);
        assert!(cpu.is_halted());
    }

    #[test]
    fn division_by_zero_vectors_to_guest_handler() {
        let (cpu, _, out) = run_asm(
            "
            li x5, 0
            la x6, handler
            csrw x6, 7        # TVEC
            li x1, 10
            li x2, 0
            divu x3, x1, x2
            halt
            handler:
            li x5, 99
            halt
            ",
        );
        assert_eq!(out, StepOutcome::Halted);
        assert_eq!(cpu.reg(5), 99);
    }

    #[test]
    fn wfi_reports_waiting_then_resumes() {
        let program = assemble(
            "
            li x1, 1
            csrw x1, 6       # enable interrupt bit 0
            wfi
            li x2, 42
            halt
            ",
        )
        .unwrap();
        let mut mem = FlatMemory::new(1 << 16);
        mem.load_image(0, &program.image()).unwrap();
        let mut cpu = CpuState::new(0);
        let out = cpu.run(&mut mem, 100).unwrap();
        assert_eq!(out, StepOutcome::WaitingForInterrupt);
        cpu.raise_local_interrupt(0);
        let out = cpu.run(&mut mem, 100).unwrap();
        assert_eq!(out, StepOutcome::Halted);
        assert_eq!(cpu.reg(2), 42);
    }

    #[test]
    fn x0_is_always_zero() {
        let (cpu, _, _) = run_asm(
            "
            li x0, 99
            addi x0, x0, 5
            halt
            ",
        );
        assert_eq!(cpu.reg(0), 0);
    }

    #[test]
    fn csr_cycle_and_instret_increase() {
        let (cpu, _, _) = run_asm(
            "
            nop
            nop
            csrr x1, 0
            csrr x2, 2
            halt
            ",
        );
        assert!(cpu.reg(1) >= 2, "cycle counter should advance");
        assert!(cpu.reg(2) >= 2, "instret should advance");
        assert!(cpu.cycles() >= cpu.instret());
    }

    #[test]
    fn misaligned_access_is_local_exception() {
        let (cpu, _, out) = run_asm(
            "
            li x1, 0x8001
            ldd x2, x1, 0
            halt
            ",
        );
        assert_eq!(out, StepOutcome::Halted);
        assert!(cpu.is_halted());
    }

    #[test]
    fn out_of_range_access_faults() {
        let program = assemble(
            "
            lui x1, 0xFFFF
            ldd x2, x1, 0
            halt
            ",
        )
        .unwrap();
        let mut mem = FlatMemory::new(4096);
        mem.load_image(0, &program.image()).unwrap();
        let mut cpu = CpuState::new(0);
        let out = cpu.run(&mut mem, 100).unwrap();
        assert!(matches!(out, StepOutcome::Faulted(_)));
    }

    #[test]
    fn probe_returns_latency() {
        let (cpu, _, out) = run_asm(
            "
            li x1, 0x8000
            probe x2, x1
            halt
            ",
        );
        assert_eq!(out, StepOutcome::Halted);
        assert_eq!(cpu.reg(2), 1, "flat memory has unit latency");
    }

    #[test]
    fn run_respects_instruction_budget() {
        let program = assemble(
            "
            loop:
            jal x0, loop
            ",
        )
        .unwrap();
        let mut mem = FlatMemory::new(4096);
        mem.load_image(0, &program.image()).unwrap();
        let mut cpu = CpuState::new(0);
        let out = cpu.run(&mut mem, 50).unwrap();
        assert_eq!(out, StepOutcome::Running);
        assert_eq!(cpu.instret(), 50);
    }
}
