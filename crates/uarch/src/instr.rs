//! Instruction representation for trace-driven simulation.
//!
//! Traces are streams of [`Instruction`]s. Register dependencies are
//! expressed as *producer distances* (how many instructions back the
//! producing instruction sits), which captures true RAW dependencies
//! without modeling architectural register names — rename would eliminate
//! all false dependencies anyway on the modeled machine.

/// Functional class of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Simple integer ALU op (1 cycle).
    IntAlu,
    /// Integer multiply/divide (7 cycles).
    IntMul,
    /// Floating-point op (4 cycles).
    Fp,
    /// Memory load (latency from the data cache).
    Load,
    /// Memory store (address generation; data written at commit).
    Store,
    /// Conditional branch (resolves in execute).
    Branch,
}

impl OpClass {
    /// Fixed execution latency, if independent of the memory system.
    pub const fn fixed_latency(self) -> Option<u32> {
        match self {
            OpClass::IntAlu | OpClass::Branch => Some(1),
            OpClass::IntMul => Some(7),
            OpClass::Fp => Some(4),
            OpClass::Load | OpClass::Store => None,
        }
    }

    /// Whether the op issues to the floating-point cluster.
    pub const fn is_fp(self) -> bool {
        matches!(self, OpClass::Fp)
    }

    /// Whether the op references memory.
    pub const fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

/// One dynamic instruction of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instruction {
    /// Functional class.
    pub op: OpClass,
    /// Program counter. It feeds the ITLB and the L1I, and for a branch it
    /// names the predictor entry. 0 = unknown: the fetch then skips the
    /// ITLB and the L1I.
    pub pc: u64,
    /// Distance (in dynamic instructions) back to the first operand's
    /// producer, if any.
    pub src1: Option<u32>,
    /// Distance back to the second operand's producer, if any.
    pub src2: Option<u32>,
    /// Byte address for loads/stores.
    pub addr: Option<u64>,
    /// A branch's actual outcome (false for other ops).
    pub taken: bool,
}

const _: () = assert!(std::mem::size_of::<Instruction>() <= 48);

impl Instruction {
    /// An independent single-cycle integer op.
    pub fn int_alu() -> Self {
        Self {
            op: OpClass::IntAlu,
            pc: 0,
            src1: None,
            src2: None,
            addr: None,
            taken: false,
        }
    }

    /// A load from `addr` depending on a producer `dist` instructions back.
    pub fn load(addr: u64, dist: Option<u32>) -> Self {
        Self {
            op: OpClass::Load,
            pc: 0,
            src1: dist,
            src2: None,
            addr: Some(addr),
            taken: false,
        }
    }

    /// A store to `addr`.
    pub fn store(addr: u64, dist: Option<u32>) -> Self {
        Self {
            op: OpClass::Store,
            pc: 0,
            src1: dist,
            src2: None,
            addr: Some(addr),
            taken: false,
        }
    }

    /// A conditional branch at `pc` with the given outcome.
    pub fn branch(pc: u64, taken: bool) -> Self {
        Self {
            op: OpClass::Branch,
            pc,
            src1: None,
            src2: None,
            addr: None,
            taken,
        }
    }

    /// Sets the first dependency distance.
    pub fn with_src1(mut self, dist: u32) -> Self {
        self.src1 = Some(dist);
        self
    }

    /// Sets the second dependency distance.
    pub fn with_src2(mut self, dist: u32) -> Self {
        self.src2 = Some(dist);
        self
    }

    /// Sets the program counter (enables the ITLB and L1I models).
    pub fn at_pc(mut self, pc: u64) -> Self {
        self.pc = pc;
        self
    }
}

/// A source of dynamic instructions (always infinite; the simulator decides
/// how many to run).
pub trait TraceSource {
    /// Produces the next dynamic instruction.
    fn next_instr(&mut self) -> Instruction;
}

impl<F: FnMut() -> Instruction> TraceSource for F {
    fn next_instr(&mut self) -> Instruction {
        self()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies() {
        assert_eq!(OpClass::IntAlu.fixed_latency(), Some(1));
        assert_eq!(OpClass::IntMul.fixed_latency(), Some(7));
        assert_eq!(OpClass::Fp.fixed_latency(), Some(4));
        assert_eq!(OpClass::Load.fixed_latency(), None);
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Fp.is_fp());
        assert!(!OpClass::Branch.is_mem());
    }

    #[test]
    fn builders() {
        let i = Instruction::load(0x40, Some(3)).with_src2(5);
        assert_eq!(i.op, OpClass::Load);
        assert_eq!(i.addr, Some(0x40));
        assert_eq!(i.src1, Some(3));
        assert_eq!(i.src2, Some(5));
        let b = Instruction::branch(0x1000, true);
        assert!(b.taken);
    }

    #[test]
    fn closures_are_trace_sources() {
        let mut parity = false;
        let mut src = move || {
            parity = !parity;
            Instruction::int_alu()
        };
        let i = src.next_instr();
        assert_eq!(i.op, OpClass::IntAlu);
    }
}
