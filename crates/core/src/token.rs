//! The SnackNoC token vocabulary: instruction tokens, transient data
//! tokens, compiled kernel programs and their validation.
//!
//! Paper §III-A defines two token types:
//!
//! * **Instruction tokens** `⟨O, P, Vl, Vr, N⟩` — operation, destination
//!   PE, two operands (immediate or dependency references), and the
//!   dependent count of the result.
//! * **Data tokens** `⟨S, N, V⟩` — dependency id, remaining dependents, and
//!   the value. Data tokens have *no destination list*: they circulate on
//!   the static ring until `N` consumers have captured them.

use crate::fixed::Fixed;
use snacknoc_noc::NodeId;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A dependency identifier (`S` in the paper's data-token tuple).
pub type DepId = u32;

/// Identifier of a sub-block: an intra-dependent instruction set that owns
/// the RCU accumulator while it executes (paper §III-D1).
pub type SubBlockId = u32;

/// Multiplicative hasher for the crate's `u32`-keyed tables (dependency
/// and sub-block ids): one multiply per lookup instead of SipHash. Keys
/// are the compiler's dense ids, never attacker-chosen, so collision
/// resistance buys nothing. No table keyed this way is ever walked in
/// hash order except by `retain`, which drops entries without ordering
/// anything, so hash order cannot reach a result.
#[derive(Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `u32`-id-keyed table hashed with [`IdHasher`].
pub(crate) type IdMap<V> = HashMap<u32, V, BuildHasherDefault<IdHasher>>;

/// An RCU scalar operation (`O` in the instruction tuple).
///
/// Latencies follow paper §III-D2: 1-cycle operations traverse the router
/// in 3 cycles total, 2-cycle operations (multiply) in 4.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// `r = vl + vr` (1 cycle).
    Add,
    /// `r = vl - vr` (1 cycle).
    Sub,
    /// `r = vl * vr` (2 cycles).
    Mul,
    /// `acc = acc + vl * vr; r = acc` (2 cycles) — the MAC unit.
    Mac,
    /// `acc = acc + vl + vr; r = acc` (1 cycle) — accumulating add, used by
    /// reductions to consume two elements per instruction.
    Acc,
}

impl Op {
    /// ALU latency in RCU cycles.
    pub fn latency(self) -> u64 {
        match self {
            Op::Add | Op::Sub | Op::Acc => 1,
            Op::Mul | Op::Mac => 2,
        }
    }

    /// Whether the operation reads/writes the accumulator register.
    pub fn uses_accumulator(self) -> bool {
        matches!(self, Op::Mac | Op::Acc)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Mac => "mac",
            Op::Acc => "acc",
        };
        f.write_str(s)
    }
}

/// An instruction operand (`Vl` / `Vr`): an immediate streamed from memory
/// by the CPM, or a reference to a transient dependency.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operand {
    /// Immediately available value.
    Imm(Fixed),
    /// Reference to the data token with this dependency id.
    Dep(DepId),
}

impl Operand {
    /// The dependency id, if this operand is a reference.
    pub fn dep(self) -> Option<DepId> {
        match self {
            Operand::Imm(_) => None,
            Operand::Dep(d) => Some(d),
        }
    }
}

/// Where an instruction's result goes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResultDest {
    /// Result stays in the RCU accumulator (the paper's same-source/
    /// destination special case: no data token is transmitted).
    Accumulate,
    /// Result becomes a transient data token `⟨dep, dependents, value⟩`
    /// circulating on the static ring.
    Token {
        /// Dependency id assigned by the compiler.
        dep: DepId,
        /// Total number of consuming instruction operands, across all RCUs.
        dependents: u32,
    },
    /// Result is a kernel output: routed to the CPM and written to the
    /// output-results FIFO at `index`.
    Output {
        /// Output buffer slot.
        index: u32,
    },
}

/// A SnackNoC instruction token.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Instruction {
    /// Operation.
    pub op: Op,
    /// Destination processing element (`P`): the RCU that executes this.
    pub pe: NodeId,
    /// Left operand.
    pub vl: Operand,
    /// Right operand.
    pub vr: Operand,
    /// Result destination.
    pub dest: ResultDest,
    /// Sub-block this instruction belongs to.
    pub sub_block: SubBlockId,
    /// Position within the sub-block (executed in order).
    pub seq: u32,
    /// Whether this is the final instruction of its sub-block (releases the
    /// accumulator).
    pub ends_block: bool,
}

/// A transient data token `⟨S, N, V⟩`, extended with the recovery
/// metadata of the fault-tolerant platform: a retransmission sequence tag
/// and an integrity checksum.
///
/// Build tokens with [`DataToken::new`], which seals the checksum over the
/// wire-stable fields (`dep`, `seq`, `value`). The `dependents` count is
/// deliberately *excluded* from the checksum: it decrements in flight as
/// RCUs capture the value, which is normal operation, not corruption.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DataToken {
    /// Dependency id.
    pub dep: DepId,
    /// Remaining dependents; the token retires when this reaches zero.
    pub dependents: u32,
    /// The value.
    pub value: Fixed,
    /// Retransmission sequence tag: 0 for the original launch, bumped by
    /// the producer on every watchdog-requested re-issue so stale copies
    /// are distinguishable in traces.
    pub seq: u32,
    /// Integrity checksum over `(dep, seq, value)`; see
    /// [`DataToken::checksum_ok`].
    pub checksum: u32,
}

impl DataToken {
    /// Creates a token with a valid checksum and sequence tag 0.
    pub fn new(dep: DepId, dependents: u32, value: Fixed) -> Self {
        let mut t = DataToken { dep, dependents, value, seq: 0, checksum: 0 };
        t.checksum = t.expected_checksum();
        t
    }

    /// Returns the token re-tagged with `seq`, with the checksum re-sealed.
    #[must_use]
    pub fn with_seq(mut self, seq: u32) -> Self {
        self.seq = seq;
        self.checksum = self.expected_checksum();
        self
    }

    /// Whether the stored checksum matches the wire-stable fields. A
    /// mismatch means the payload was corrupted in flight; the platform
    /// discards such tokens and asks the issuing CPM's watchdog for a
    /// retransmission.
    pub fn checksum_ok(&self) -> bool {
        self.checksum == self.expected_checksum()
    }

    /// Returns a copy whose value bits were damaged (emulating in-flight
    /// payload corruption) *without* re-sealing the checksum, so
    /// [`DataToken::checksum_ok`] on the result returns `false`.
    #[must_use]
    pub fn with_damaged_value(mut self) -> Self {
        self.value = Fixed::from_bits(self.value.to_bits() ^ 0x5A5A_5A5A);
        self
    }

    fn expected_checksum(&self) -> u32 {
        let x = (u64::from(self.dep) << 32)
            ^ (u64::from(self.seq) << 8)
            ^ u64::from(self.value.to_bits() as u32);
        let h = Self::mix64(x);
        (h ^ (h >> 32)) as u32
    }

    /// SplitMix64-style avalanche; local so the token layer stays
    /// dependency-free.
    const fn mix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// On-wire size of one encoded instruction in bytes: `O` (1) + `P` (2) +
/// two operands (5 each: tag + 32-bit value) + destination/ordering
/// metadata (3). Used to decide how many instructions share a flit.
pub const INSTRUCTION_BYTES: u32 = 16;

/// On-wire size of a data-token packet in bytes (`S` + `N` + `V` + header).
pub const DATA_TOKEN_BYTES: u32 = 16;

/// A compiled SnackNoC kernel: the CPM command buffer plus metadata.
#[derive(Clone, Debug, Default)]
pub struct CompiledKernel {
    /// Instructions in CPM issue (program) order.
    pub instructions: Vec<Instruction>,
    /// Number of kernel outputs (size of the CPM output FIFO allocation).
    pub num_outputs: usize,
    /// Human-readable kernel name for reports.
    pub name: String,
    /// Whether assembling this kernel's operands requires irregular
    /// (indexed-gather) memory accesses, which throttle the CPM's DRAM
    /// stream rate. Set by the compiler for SPMV — the paper attributes
    /// SPMV's reduced SnackNoC speedup to "the irregular data pattern in
    /// accessing an indexed vector prior to computation" (§V-B).
    pub irregular_fetch: bool,
}

/// A violation found by [`CompiledKernel::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ProgramError {
    /// A dependency is produced by more than one instruction.
    DuplicateProducer(DepId),
    /// A dependency is referenced but never produced.
    MissingProducer(DepId),
    /// A produced token's dependent count does not equal its reference
    /// count (would strand or prematurely retire the token).
    DependentMismatch {
        /// The dependency in question.
        dep: DepId,
        /// Dependents declared by the producer.
        declared: u32,
        /// References found across all instructions.
        referenced: u32,
    },
    /// An output index is written more than once.
    DuplicateOutput(u32),
    /// Output indices are not exactly `0..num_outputs`.
    OutputGap(u32),
    /// Sub-block sequence numbers are not contiguous from zero, or the
    /// block-terminator flag is wrong.
    BadSubBlock(SubBlockId),
    /// A sub-block spans more than one PE (the accumulator is per-RCU).
    SubBlockSpansPes(SubBlockId),
    /// An accumulator op appears outside any multi-instruction sub-block
    /// context it could initialise (first instruction of a block must not
    /// read a stale accumulator — enforced structurally here).
    EmptyProgram,
    /// A dependency id or output index does not fit below the CPM
    /// namespace bits (kernel too large for multi-CPM namespacing).
    NamespaceOverflow,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::DuplicateProducer(d) => write!(f, "dependency {d} produced twice"),
            ProgramError::MissingProducer(d) => write!(f, "dependency {d} never produced"),
            ProgramError::DependentMismatch { dep, declared, referenced } => write!(
                f,
                "dependency {dep} declares {declared} dependents but is referenced {referenced} times"
            ),
            ProgramError::DuplicateOutput(i) => write!(f, "output {i} written twice"),
            ProgramError::OutputGap(i) => write!(f, "output {i} never written"),
            ProgramError::BadSubBlock(b) => write!(f, "sub-block {b} has non-contiguous sequence"),
            ProgramError::SubBlockSpansPes(b) => write!(f, "sub-block {b} spans multiple PEs"),
            ProgramError::EmptyProgram => write!(f, "program has no instructions"),
            ProgramError::NamespaceOverflow => {
                write!(f, "dependency/output ids exceed the cpm namespace range")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl CompiledKernel {
    /// Checks the structural invariants the platform relies on:
    ///
    /// * every referenced dependency has exactly one producer;
    /// * every producer's declared dependent count equals the number of
    ///   operand references (so ring tokens retire exactly on time);
    /// * outputs are written exactly once each, densely `0..num_outputs`;
    /// * sub-blocks have contiguous `seq` from 0, a single terminator at
    ///   the end, and live on a single PE.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, deterministically: the checks
    /// run in the order listed below, and each reports its earliest
    /// offender in program order.
    ///
    /// 1. A duplicate producer or a sub-block spanning PEs, at the
    ///    instruction where it first shows.
    /// 2. A missing producer or a dependent-count mismatch, walking the
    ///    instructions (operands before the produced token).
    /// 3. Output gaps and duplicates, by output index.
    /// 4. A malformed sub-block, in order of the blocks' first
    ///    instruction.
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.instructions.is_empty() {
            return Err(ProgramError::EmptyProgram);
        }
        let mut produced: IdMap<u32> = IdMap::default();
        let mut referenced: IdMap<u32> = IdMap::default();
        let mut outputs: Vec<u32> = Vec::new();
        // Sub-blocks in order of first appearance, as (id, has_end, pe),
        // and each instruction's (block index, seq).
        let mut blocks: Vec<(SubBlockId, bool, NodeId)> = Vec::new();
        let mut block_at: IdMap<usize> = IdMap::default();
        let mut seqs: Vec<(usize, u32)> = Vec::with_capacity(self.instructions.len());
        for ins in &self.instructions {
            for operand in [ins.vl, ins.vr] {
                if let Some(d) = operand.dep() {
                    *referenced.entry(d).or_insert(0) += 1;
                }
            }
            match ins.dest {
                ResultDest::Token { dep, dependents } => {
                    if produced.insert(dep, dependents).is_some() {
                        return Err(ProgramError::DuplicateProducer(dep));
                    }
                }
                ResultDest::Output { index } => outputs.push(index),
                ResultDest::Accumulate => {}
            }
            let at = *block_at.entry(ins.sub_block).or_insert_with(|| {
                blocks.push((ins.sub_block, false, ins.pe));
                blocks.len() - 1
            });
            seqs.push((at, ins.seq));
            let entry = &mut blocks[at];
            entry.1 |= ins.ends_block;
            if entry.2 != ins.pe {
                return Err(ProgramError::SubBlockSpansPes(ins.sub_block));
            }
        }
        for ins in &self.instructions {
            for operand in [ins.vl, ins.vr] {
                if let Some(dep) = operand.dep() {
                    if !produced.contains_key(&dep) {
                        return Err(ProgramError::MissingProducer(dep));
                    }
                }
            }
            if let ResultDest::Token { dep, dependents: declared } = ins.dest {
                let refs = referenced.get(&dep).copied().unwrap_or(0);
                if declared != refs {
                    return Err(ProgramError::DependentMismatch { dep, declared, referenced: refs });
                }
            }
        }
        outputs.sort_unstable();
        for (i, &o) in outputs.iter().enumerate() {
            if o as usize != i {
                if i > 0 && outputs[i - 1] == o {
                    return Err(ProgramError::DuplicateOutput(o));
                }
                return Err(ProgramError::OutputGap(i as u32));
            }
        }
        if outputs.len() != self.num_outputs {
            return Err(ProgramError::OutputGap(outputs.len() as u32));
        }
        // Sorted, the runs of equal block index are the blocks in order
        // of first appearance, each with its seqs ascending.
        seqs.sort_unstable();
        for run in seqs.chunk_by(|a, b| a.0 == b.0) {
            let (id, has_end, _) = blocks[run[0].0];
            let contiguous = run.iter().enumerate().all(|(i, &(_, seq))| seq as usize == i);
            if !contiguous || !has_end {
                return Err(ProgramError::BadSubBlock(id));
            }
        }
        Ok(())
    }

    /// Returns a copy of the kernel with every instruction assigned to a
    /// node in `translate` moved to that node's replacement — the
    /// platform's remap-and-retry path for permanently dead RCUs. The
    /// translation is per-node, so sub-blocks move wholesale and the
    /// single-PE sub-block invariant survives; dependency structure is
    /// untouched, so a valid kernel stays valid as long as `translate`
    /// never maps two live nodes onto each other's sub-block ids (the
    /// platform only ever maps *dead* nodes onto live ones).
    #[must_use]
    pub fn remapped(&self, translate: &HashMap<NodeId, NodeId>) -> CompiledKernel {
        let mut k = self.clone();
        for ins in &mut k.instructions {
            if let Some(&to) = translate.get(&ins.pe) {
                ins.pe = to;
            }
        }
        k
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pe(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn imm(v: f64) -> Operand {
        Operand::Imm(Fixed::from_f64(v))
    }

    /// out0 = (1+2) + (3+4) via a token from PE0 to PE1.
    fn two_pe_program() -> CompiledKernel {
        CompiledKernel {
            irregular_fetch: false,
            name: "test".into(),
            num_outputs: 1,
            instructions: vec![
                Instruction {
                    op: Op::Add,
                    pe: pe(0),
                    vl: imm(1.0),
                    vr: imm(2.0),
                    dest: ResultDest::Token { dep: 0, dependents: 1 },
                    sub_block: 0,
                    seq: 0,
                    ends_block: true,
                },
                Instruction {
                    op: Op::Add,
                    pe: pe(1),
                    vl: Operand::Dep(0),
                    vr: imm(7.0),
                    dest: ResultDest::Output { index: 0 },
                    sub_block: 1,
                    seq: 0,
                    ends_block: true,
                },
            ],
        }
    }

    #[test]
    fn valid_program_passes() {
        two_pe_program().validate().unwrap();
    }

    #[test]
    fn detects_missing_producer() {
        let mut p = two_pe_program();
        p.instructions.remove(0);
        assert_eq!(p.validate(), Err(ProgramError::MissingProducer(0)));
    }

    #[test]
    fn first_violation_is_reported_in_program_order_every_time() {
        // Four consumers of four missing producers (deps 40, 30, 20, 10 in
        // program order), two of them in malformed sub-blocks: the error
        // must name dep 40 on every call, however the validator's lookup
        // tables happen to be seeded.
        let mut p = two_pe_program();
        p.instructions.remove(0);
        p.instructions[0].vl = Operand::Dep(40);
        for (k, dep) in [30, 20, 10].into_iter().enumerate() {
            let mut consumer = p.instructions[0];
            consumer.vl = Operand::Dep(dep);
            consumer.sub_block = 10 + k as u32;
            consumer.dest = ResultDest::Output { index: 1 + k as u32 };
            p.instructions.push(consumer);
        }
        p.instructions[2].seq = 4;
        p.instructions[3].seq = 4;
        p.num_outputs = 4;
        for _ in 0..50 {
            assert_eq!(p.validate(), Err(ProgramError::MissingProducer(40)));
        }
        // With the producers fixed, the first malformed block is reported.
        let mut q = p.clone();
        for dep in [40, 30, 20, 10] {
            let mut producer = two_pe_program().instructions[0];
            producer.dest = ResultDest::Token { dep, dependents: 1 };
            producer.sub_block = 100 + dep;
            q.instructions.push(producer);
        }
        for _ in 0..50 {
            assert_eq!(q.validate(), Err(ProgramError::BadSubBlock(11)));
        }
    }

    #[test]
    fn detects_dependent_mismatch() {
        let mut p = two_pe_program();
        if let ResultDest::Token { dependents, .. } = &mut p.instructions[0].dest {
            *dependents = 3;
        }
        assert!(matches!(p.validate(), Err(ProgramError::DependentMismatch { dep: 0, .. })));
    }

    #[test]
    fn detects_duplicate_producer() {
        let mut p = two_pe_program();
        let mut dup = p.instructions[0];
        dup.sub_block = 2;
        p.instructions.push(dup);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::DuplicateProducer(0) | ProgramError::DependentMismatch { .. })
        ));
    }

    #[test]
    fn detects_output_gap_and_duplicates() {
        let mut p = two_pe_program();
        if let ResultDest::Output { index } = &mut p.instructions[1].dest {
            *index = 1;
        }
        assert_eq!(p.validate(), Err(ProgramError::OutputGap(0)));
    }

    #[test]
    fn detects_bad_sub_block() {
        let mut p = two_pe_program();
        p.instructions[1].seq = 5;
        assert_eq!(p.validate(), Err(ProgramError::BadSubBlock(1)));
        let mut q = two_pe_program();
        q.instructions[1].ends_block = false;
        assert_eq!(q.validate(), Err(ProgramError::BadSubBlock(1)));
    }

    #[test]
    fn detects_sub_block_spanning_pes() {
        let mut p = two_pe_program();
        p.instructions[1].sub_block = 0;
        p.instructions[1].seq = 1;
        p.instructions[0].ends_block = false;
        assert_eq!(p.validate(), Err(ProgramError::SubBlockSpansPes(0)));
    }

    #[test]
    fn empty_program_rejected() {
        let p = CompiledKernel::default();
        assert_eq!(p.validate(), Err(ProgramError::EmptyProgram));
        assert!(p.is_empty());
    }

    #[test]
    fn remapping_moves_whole_sub_blocks_and_stays_valid() {
        let p = two_pe_program();
        let mut translate = HashMap::new();
        translate.insert(pe(0), pe(3));
        let r = p.remapped(&translate);
        r.validate().unwrap();
        assert_eq!(r.instructions[0].pe, pe(3), "dead PE moved");
        assert_eq!(r.instructions[1].pe, pe(1), "live PE untouched");
        // Dependency structure is untouched.
        assert_eq!(r.instructions[0].dest, p.instructions[0].dest);
        // An empty translation is the identity.
        let id = p.remapped(&HashMap::new());
        assert_eq!(id.instructions, p.instructions);
    }

    #[test]
    fn checksum_survives_dependent_decrements_but_not_value_damage() {
        let mut t = DataToken::new(7, 3, Fixed::from_f64(2.5));
        assert!(t.checksum_ok());
        t.dependents -= 1;
        assert!(t.checksum_ok(), "capture decrements are not corruption");
        let damaged = t.with_damaged_value();
        assert!(!damaged.checksum_ok(), "flipped value bits must be detected");
        assert_ne!(damaged.value, t.value);
    }

    #[test]
    fn seq_retag_reseals_the_checksum() {
        let t = DataToken::new(9, 1, Fixed::ONE);
        let r = t.with_seq(3);
        assert_eq!(r.seq, 3);
        assert!(r.checksum_ok());
        assert_ne!(r.checksum, t.checksum, "seq participates in the checksum");
        // A stale checksum paired with a new seq is detectable.
        let mut stale = t;
        stale.seq = 5;
        assert!(!stale.checksum_ok());
    }

    #[test]
    fn checksums_separate_distinct_tokens() {
        // Not a cryptographic guarantee — just confirm the mix actually
        // varies across neighbouring ids and values.
        let a = DataToken::new(0, 1, Fixed::ONE);
        let b = DataToken::new(1, 1, Fixed::ONE);
        let c = DataToken::new(0, 1, Fixed::from_f64(1.0 + 1.0 / 65536.0));
        assert_ne!(a.checksum, b.checksum);
        assert_ne!(a.checksum, c.checksum);
    }

    #[test]
    fn op_latencies_match_paper() {
        assert_eq!(Op::Add.latency(), 1);
        assert_eq!(Op::Sub.latency(), 1);
        assert_eq!(Op::Acc.latency(), 1);
        assert_eq!(Op::Mul.latency(), 2);
        assert_eq!(Op::Mac.latency(), 2);
        assert!(Op::Mac.uses_accumulator());
        assert!(!Op::Add.uses_accumulator());
    }
}
