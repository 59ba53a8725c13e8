//! Instruction definitions and the fixed 32-bit encoding.
//!
//! Encoding layout (bit 31 is the most significant bit):
//!
//! | Format | \[31:26\] | \[25:21\] | \[20:16\] | \[15:11\] | \[15:0\] | \[20:0\] |
//! |--------|-----------|-----------|-----------|-----------|----------|----------|
//! | R-type | opcode    | rd        | rs1       | rs2       | —        | —        |
//! | I-type | opcode    | rd        | rs1       | —         | imm16    | —        |
//! | B-type | opcode    | rs1       | rs2       | —         | imm16¹   | —        |
//! | J-type | opcode    | rd        | —         | —         | —        | imm21¹   |
//!
//! ¹ Branch/jump immediates are signed counts of 4-byte instruction slots,
//! relative to the address of the *next* instruction.

use std::fmt;

/// A general-purpose register (`x0`–`x31`); `x0` is hard-wired to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// The always-zero register.
    pub const ZERO: Reg = Reg(0);

    /// Creates a register, masking to the valid range `0..32`.
    pub const fn new(idx: u8) -> Reg {
        Reg(idx % 32)
    }

    /// The register index.
    pub const fn index(self) -> usize {
        (self.0 % 32) as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Control and status registers visible to model code.
pub mod csr {
    /// Cycle counter (read-only).
    pub const CYCLE: u16 = 0;
    /// The core's hardware id (read-only).
    pub const CORE_ID: u16 = 1;
    /// Retired-instruction counter (read-only).
    pub const INSTRET: u16 = 2;
    /// Software-writable scratch register.
    pub const SCRATCH: u16 = 3;
    /// Timer-compare register; reaching it raises a local timer interrupt.
    pub const TIMECMP: u16 = 4;
    /// Local interrupt-pending bits (bit 0 = timer, bit 1 = IO completion).
    pub const IPEND: u16 = 5;
    /// Local interrupt-enable bits.
    pub const IENABLE: u16 = 6;
    /// Local trap-vector base address for guest-managed exceptions.
    pub const TVEC: u16 = 7;
    /// Address of the last local fault (guest-visible diagnostics).
    pub const FAULT_ADDR: u16 = 8;
}

/// Operation codes for every GISA instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Opcode {
    Nop = 0,
    Add = 1,
    Sub = 2,
    Mul = 3,
    Divu = 4,
    Remu = 5,
    And = 6,
    Or = 7,
    Xor = 8,
    Sll = 9,
    Srl = 10,
    Sra = 11,
    Slt = 12,
    Sltu = 13,
    Addi = 14,
    Andi = 15,
    Ori = 16,
    Xori = 17,
    Slli = 18,
    Srli = 19,
    Lui = 20,
    Ldb = 21,
    Ldw = 22,
    Ldd = 23,
    Stb = 24,
    Stw = 25,
    Std = 26,
    Beq = 27,
    Bne = 28,
    Blt = 29,
    Bge = 30,
    Bltu = 31,
    Bgeu = 32,
    Jal = 33,
    Jalr = 34,
    Hvcall = 35,
    Halt = 36,
    Csrr = 37,
    Csrw = 38,
    Fence = 39,
    Probe = 40,
    Wfi = 41,
}

impl Opcode {
    /// Decodes an opcode from its numeric value.
    pub fn from_u8(v: u8) -> Option<Opcode> {
        use Opcode::*;
        Some(match v {
            0 => Nop,
            1 => Add,
            2 => Sub,
            3 => Mul,
            4 => Divu,
            5 => Remu,
            6 => And,
            7 => Or,
            8 => Xor,
            9 => Sll,
            10 => Srl,
            11 => Sra,
            12 => Slt,
            13 => Sltu,
            14 => Addi,
            15 => Andi,
            16 => Ori,
            17 => Xori,
            18 => Slli,
            19 => Srli,
            20 => Lui,
            21 => Ldb,
            22 => Ldw,
            23 => Ldd,
            24 => Stb,
            25 => Stw,
            26 => Std,
            27 => Beq,
            28 => Bne,
            29 => Blt,
            30 => Bge,
            31 => Bltu,
            32 => Bgeu,
            33 => Jal,
            34 => Jalr,
            35 => Hvcall,
            36 => Halt,
            37 => Csrr,
            38 => Csrw,
            39 => Fence,
            40 => Probe,
            41 => Wfi,
            _ => return None,
        })
    }

    /// The lower-case mnemonic for this opcode.
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Nop => "nop",
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Divu => "divu",
            Remu => "remu",
            And => "and",
            Or => "or",
            Xor => "xor",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Slt => "slt",
            Sltu => "sltu",
            Addi => "addi",
            Andi => "andi",
            Ori => "ori",
            Xori => "xori",
            Slli => "slli",
            Srli => "srli",
            Lui => "lui",
            Ldb => "ldb",
            Ldw => "ldw",
            Ldd => "ldd",
            Stb => "stb",
            Stw => "stw",
            Std => "std",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Bltu => "bltu",
            Bgeu => "bgeu",
            Jal => "jal",
            Jalr => "jalr",
            Hvcall => "hvcall",
            Halt => "halt",
            Csrr => "csrr",
            Csrw => "csrw",
            Fence => "fence",
            Probe => "probe",
            Wfi => "wfi",
        }
    }
}

/// A decoded GISA instruction.
///
/// The variants group instructions by format; the semantics live in
/// [`crate::cpu::CpuState::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// Register-register ALU operation: `rd = rs1 <op> rs2`.
    Alu {
        /// Operation.
        op: Opcode,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// Register-immediate ALU operation: `rd = rs1 <op> imm`.
    AluImm {
        /// Operation.
        op: Opcode,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Sign-extended 16-bit immediate.
        imm: i16,
    },
    /// `lui rd, imm`: `rd = imm << 16` (zero-extended immediate).
    Lui {
        /// Destination register.
        rd: Reg,
        /// Immediate.
        imm: u16,
    },
    /// Memory load of 1, 4 or 8 bytes: `rd = mem[rs1 + imm]`.
    Load {
        /// `Ldb`, `Ldw` or `Ldd`.
        op: Opcode,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Sign-extended displacement.
        imm: i16,
    },
    /// Memory store of 1, 4 or 8 bytes: `mem[rs1 + imm] = rs2`.
    Store {
        /// `Stb`, `Stw` or `Std`.
        op: Opcode,
        /// Base address register (encoded in the rd slot).
        rs1: Reg,
        /// Value register.
        rs2: Reg,
        /// Sign-extended displacement.
        imm: i16,
    },
    /// Conditional branch: `if rs1 <op> rs2 then pc += 4*imm`.
    Branch {
        /// `Beq`..`Bgeu`.
        op: Opcode,
        /// First comparison register.
        rs1: Reg,
        /// Second comparison register.
        rs2: Reg,
        /// Signed offset in instruction slots, relative to the next pc.
        imm: i16,
    },
    /// Jump-and-link: `rd = pc + 4; pc += 4*imm`.
    Jal {
        /// Link register.
        rd: Reg,
        /// Signed offset in instruction slots (21 bits).
        imm: i32,
    },
    /// Indirect jump-and-link: `rd = pc + 4; pc = rs1 + imm`.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Target base register.
        rs1: Reg,
        /// Sign-extended byte displacement.
        imm: i16,
    },
    /// Hypervisor call: writes a request code into the IO mailbox and raises
    /// an interrupt on a hypervisor core. `arg` is a small immediate carried
    /// with the call (the full request lives in shared IO DRAM).
    Hvcall {
        /// Immediate request code.
        arg: u16,
    },
    /// Stops the core.
    Halt,
    /// Reads a CSR: `rd = csr[imm]`.
    Csrr {
        /// Destination register.
        rd: Reg,
        /// CSR index.
        csr: u16,
    },
    /// Writes a CSR: `csr[imm] = rs1`.
    Csrw {
        /// Source register.
        rs1: Reg,
        /// CSR index.
        csr: u16,
    },
    /// Memory fence (a no-op in the in-order interpreter, but counted).
    Fence,
    /// Timing probe: loads `mem[rs1]` and writes the observed access latency
    /// (in cycles) into `rd`. This is the primitive a prime+probe attacker
    /// uses; Guillotine does not try to hide it because disjoint hierarchies
    /// make the information useless (§3.2).
    Probe {
        /// Destination register receiving the latency.
        rd: Reg,
        /// Address register.
        rs1: Reg,
    },
    /// Wait-for-interrupt: the core idles until a local interrupt is pending.
    Wfi,
    /// No operation.
    Nop,
}

fn field(word: u32, hi: u32, lo: u32) -> u32 {
    (word >> lo) & ((1 << (hi - lo + 1)) - 1)
}

impl Instruction {
    /// Encodes this instruction into a 32-bit word.
    pub fn encode(self) -> u32 {
        use Instruction::*;
        match self {
            Alu { op, rd, rs1, rs2 } => {
                ((op as u32) << 26)
                    | ((rd.index() as u32) << 21)
                    | ((rs1.index() as u32) << 16)
                    | ((rs2.index() as u32) << 11)
            }
            AluImm { op, rd, rs1, imm } => {
                ((op as u32) << 26)
                    | ((rd.index() as u32) << 21)
                    | ((rs1.index() as u32) << 16)
                    | (imm as u16 as u32)
            }
            Lui { rd, imm } => {
                ((Opcode::Lui as u32) << 26) | ((rd.index() as u32) << 21) | (imm as u32)
            }
            Load { op, rd, rs1, imm } => {
                ((op as u32) << 26)
                    | ((rd.index() as u32) << 21)
                    | ((rs1.index() as u32) << 16)
                    | (imm as u16 as u32)
            }
            Store { op, rs1, rs2, imm } => {
                ((op as u32) << 26)
                    | ((rs1.index() as u32) << 21)
                    | ((rs2.index() as u32) << 16)
                    | (imm as u16 as u32)
            }
            Branch { op, rs1, rs2, imm } => {
                ((op as u32) << 26)
                    | ((rs1.index() as u32) << 21)
                    | ((rs2.index() as u32) << 16)
                    | (imm as u16 as u32)
            }
            Jal { rd, imm } => {
                ((Opcode::Jal as u32) << 26)
                    | ((rd.index() as u32) << 21)
                    | ((imm as u32) & 0x1F_FFFF)
            }
            Jalr { rd, rs1, imm } => {
                ((Opcode::Jalr as u32) << 26)
                    | ((rd.index() as u32) << 21)
                    | ((rs1.index() as u32) << 16)
                    | (imm as u16 as u32)
            }
            Hvcall { arg } => ((Opcode::Hvcall as u32) << 26) | (arg as u32),
            Halt => (Opcode::Halt as u32) << 26,
            Csrr { rd, csr } => {
                ((Opcode::Csrr as u32) << 26) | ((rd.index() as u32) << 21) | (csr as u32)
            }
            Csrw { rs1, csr } => {
                ((Opcode::Csrw as u32) << 26) | ((rs1.index() as u32) << 16) | (csr as u32)
            }
            Fence => (Opcode::Fence as u32) << 26,
            Probe { rd, rs1 } => {
                ((Opcode::Probe as u32) << 26)
                    | ((rd.index() as u32) << 21)
                    | ((rs1.index() as u32) << 16)
            }
            Wfi => (Opcode::Wfi as u32) << 26,
            Nop => 0,
        }
    }

    /// Decodes a 32-bit word into an instruction; returns `None` for invalid
    /// opcodes.
    pub fn decode(word: u32) -> Option<Instruction> {
        use Opcode::*;
        let op = Opcode::from_u8(field(word, 31, 26) as u8)?;
        let rd = Reg::new(field(word, 25, 21) as u8);
        let rs1 = Reg::new(field(word, 20, 16) as u8);
        let rs2 = Reg::new(field(word, 15, 11) as u8);
        let imm16 = field(word, 15, 0) as u16;
        let simm16 = imm16 as i16;
        Some(match op {
            Nop => Instruction::Nop,
            Add | Sub | Mul | Divu | Remu | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu => {
                Instruction::Alu { op, rd, rs1, rs2 }
            }
            Addi | Andi | Ori | Xori | Slli | Srli => Instruction::AluImm {
                op,
                rd,
                rs1,
                imm: simm16,
            },
            Lui => Instruction::Lui { rd, imm: imm16 },
            Ldb | Ldw | Ldd => Instruction::Load {
                op,
                rd,
                rs1,
                imm: simm16,
            },
            Stb | Stw | Std => Instruction::Store {
                op,
                rs1: rd,
                rs2: rs1,
                imm: simm16,
            },
            Beq | Bne | Blt | Bge | Bltu | Bgeu => Instruction::Branch {
                op,
                rs1: rd,
                rs2: rs1,
                imm: simm16,
            },
            Jal => {
                let raw = field(word, 20, 0);
                // Sign-extend the 21-bit immediate.
                let imm = ((raw << 11) as i32) >> 11;
                Instruction::Jal { rd, imm }
            }
            Jalr => Instruction::Jalr {
                rd,
                rs1,
                imm: simm16,
            },
            Hvcall => Instruction::Hvcall { arg: imm16 },
            Halt => Instruction::Halt,
            Csrr => Instruction::Csrr { rd, csr: imm16 },
            Csrw => Instruction::Csrw { rs1, csr: imm16 },
            Fence => Instruction::Fence,
            Probe => Instruction::Probe { rd, rs1 },
            Wfi => Instruction::Wfi,
        })
    }

    /// Returns the opcode of this instruction.
    pub fn opcode(self) -> Opcode {
        use Instruction::*;
        match self {
            Alu { op, .. }
            | AluImm { op, .. }
            | Load { op, .. }
            | Store { op, .. }
            | Branch { op, .. } => op,
            Lui { .. } => Opcode::Lui,
            Jal { .. } => Opcode::Jal,
            Jalr { .. } => Opcode::Jalr,
            Hvcall { .. } => Opcode::Hvcall,
            Halt => Opcode::Halt,
            Csrr { .. } => Opcode::Csrr,
            Csrw { .. } => Opcode::Csrw,
            Fence => Opcode::Fence,
            Probe { .. } => Opcode::Probe,
            Wfi => Opcode::Wfi,
            Nop => Opcode::Nop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_masks_to_valid_range() {
        assert_eq!(Reg::new(35).index(), 3);
        assert_eq!(Reg::ZERO.index(), 0);
        assert_eq!(format!("{}", Reg::new(7)), "x7");
    }

    #[test]
    fn opcode_round_trips() {
        for v in 0..=41u8 {
            let op = Opcode::from_u8(v).expect("valid opcode");
            assert_eq!(op as u8, v);
            assert!(!op.mnemonic().is_empty());
        }
        assert!(Opcode::from_u8(42).is_none());
        assert!(Opcode::from_u8(255).is_none());
    }

    #[test]
    fn encode_decode_round_trips_representative_instructions() {
        let cases = vec![
            Instruction::Nop,
            Instruction::Alu {
                op: Opcode::Add,
                rd: Reg::new(1),
                rs1: Reg::new(2),
                rs2: Reg::new(3),
            },
            Instruction::AluImm {
                op: Opcode::Addi,
                rd: Reg::new(4),
                rs1: Reg::new(5),
                imm: -123,
            },
            Instruction::Lui {
                rd: Reg::new(6),
                imm: 0xBEEF,
            },
            Instruction::Load {
                op: Opcode::Ldd,
                rd: Reg::new(7),
                rs1: Reg::new(8),
                imm: 16,
            },
            Instruction::Store {
                op: Opcode::Stw,
                rs1: Reg::new(9),
                rs2: Reg::new(10),
                imm: -8,
            },
            Instruction::Branch {
                op: Opcode::Bne,
                rs1: Reg::new(11),
                rs2: Reg::new(12),
                imm: -4,
            },
            Instruction::Jal {
                rd: Reg::new(13),
                imm: -1000,
            },
            Instruction::Jalr {
                rd: Reg::new(14),
                rs1: Reg::new(15),
                imm: 32,
            },
            Instruction::Hvcall { arg: 77 },
            Instruction::Halt,
            Instruction::Csrr {
                rd: Reg::new(16),
                csr: csr::CYCLE,
            },
            Instruction::Csrw {
                rs1: Reg::new(17),
                csr: csr::SCRATCH,
            },
            Instruction::Fence,
            Instruction::Probe {
                rd: Reg::new(18),
                rs1: Reg::new(19),
            },
            Instruction::Wfi,
        ];
        for inst in cases {
            let word = inst.encode();
            let decoded = Instruction::decode(word).expect("decodable");
            assert_eq!(decoded, inst, "word={word:#010x}");
        }
    }

    #[test]
    fn decode_rejects_invalid_opcode() {
        let word = 63u32 << 26;
        assert!(Instruction::decode(word).is_none());
    }

    #[test]
    fn jal_immediate_sign_extends() {
        let inst = Instruction::Jal {
            rd: Reg::ZERO,
            imm: -(1 << 19),
        };
        let decoded = Instruction::decode(inst.encode()).unwrap();
        assert_eq!(decoded, inst);
    }
}
