//! The Router Compute Unit: the dataflow processing element added to every
//! NoC router (paper §III-D).
//!
//! An RCU holds an **ordered instruction buffer** (instructions grouped in
//! sub-blocks, executed in sequence within a block), a **dependency
//! buffer** (values captured from passing transient data tokens), an
//! **accumulator register**, and a fixed-point ALU (1-cycle add/sub/acc,
//! 2-cycle multiply/MAC). It follows the classic dataflow firing rule: an
//! instruction executes once its operands are available — with the
//! constraint that a sub-block, once started, owns the accumulator until
//! its final instruction retires (paper §III-D1).

use crate::fixed::Fixed;
use crate::token::{DataToken, DepId, IdMap, Instruction, Op, Operand, ResultDest, SubBlockId};
use snacknoc_trace::{EventKind, FireDest, TracerHandle, NO_DEP};
use std::collections::VecDeque;

/// Stable small-integer encoding of an [`Op`] for structured trace events.
fn op_code(op: Op) -> u8 {
    match op {
        Op::Add => 0,
        Op::Sub => 1,
        Op::Mul => 2,
        Op::Mac => 3,
        Op::Acc => 4,
    }
}

/// One sub-block's slice of the ordered instruction buffer: a ring whose
/// slot `k` holds sequence number `next + k` (`None` until it arrives).
/// The front slot is the only one the firing rule ever looks at.
#[derive(Clone, Debug)]
struct Block {
    id: SubBlockId,
    /// Next sequence number to execute.
    next: u32,
    ring: VecDeque<Option<Instruction>>,
}

/// Something an RCU wants to put on the network after an execution.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Emission {
    /// A transient data token to launch onto the static ring.
    Token(DataToken),
    /// A final kernel result headed for the CPM's output FIFO.
    Output {
        /// Output slot index.
        index: u32,
        /// The result value.
        value: Fixed,
    },
}

/// Counters exposed for the utilization and QoS analyses.
#[derive(Clone, Copy, Debug, Default)]
pub struct RcuStats {
    /// Instructions executed.
    pub executed: u64,
    /// Data-token captures from the ring.
    pub captures: u64,
    /// Cycles spent with at least one instruction pending but none
    /// fireable (dependency stalls).
    pub stalled_cycles: u64,
}

/// One Router Compute Unit.
#[derive(Clone, Debug)]
pub struct Rcu {
    /// The ordered instruction buffer: one [`Block`] per sub-block with
    /// queued or partly executed work, sorted by id. A block leaves when
    /// its terminating instruction fires (or its namespace is aborted).
    blocks: Vec<Block>,
    /// Rings of retired blocks, kept (cleared) for the next block.
    spare_rings: Vec<VecDeque<Option<Instruction>>>,
    /// Instructions waiting in `blocks` (the `Some` slots of all rings).
    pending: usize,
    /// Captured dependency values with their remaining local use count.
    dep_buffer: IdMap<(Fixed, u32)>,
    /// Operand references awaiting capture from the ring.
    wanted: IdMap<u32>,
    /// The accumulator register.
    acc: Fixed,
    /// The sub-block currently owning the accumulator.
    active_block: Option<SubBlockId>,
    /// ALU busy until this cycle.
    busy_until: u64,
    /// Emissions produced by the in-flight instruction group, released
    /// when the ALU latency elapses.
    staged: Vec<Emission>,
    /// Last token produced per dependency id — the *kernel state* the
    /// CPM watchdog re-issues from when a ring token is lost to a fault
    /// (see [`Rcu::retransmit`]). Cleared per CPM namespace when that
    /// CPM's kernel retires its results.
    produced: IdMap<DataToken>,
    /// Instructions fired per cycle. 1 models the paper's scalar RCU;
    /// larger widths model the *vectorized RCUs* of §VII (a MAC tree
    /// retiring several chain steps per cycle).
    lanes: usize,
    /// Counters.
    pub stats: RcuStats,
}

impl Default for Rcu {
    fn default() -> Self {
        Self::new()
    }
}

impl Rcu {
    /// Creates an idle scalar (1-lane) RCU.
    pub fn new() -> Self {
        Self::with_lanes(1)
    }

    /// Creates an idle RCU firing up to `lanes` instructions per cycle
    /// (paper §VII: vectorized RCUs).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn with_lanes(lanes: usize) -> Self {
        assert!(lanes > 0, "an RCU needs at least one lane");
        Rcu {
            blocks: Vec::new(),
            spare_rings: Vec::new(),
            pending: 0,
            dep_buffer: IdMap::default(),
            wanted: IdMap::default(),
            acc: Fixed::ZERO,
            active_block: None,
            busy_until: 0,
            staged: Vec::new(),
            produced: IdMap::default(),
            lanes,
            stats: RcuStats::default(),
        }
    }

    /// Number of instructions waiting in the ordered instruction buffer.
    pub fn pending_instructions(&self) -> usize {
        self.pending
    }

    /// Whether the RCU has nothing queued, staged, or in flight.
    pub fn is_idle(&self) -> bool {
        self.pending == 0 && self.staged.is_empty()
    }

    /// The next cycle at which ticking this RCU is *not* a provable no-op,
    /// given the current cycle — `None` for an idle RCU (event-driven
    /// stepping may sleep indefinitely; delivery of work re-wakes it).
    ///
    /// A busy RCU wakes at its execution-latency horizon (`tick` returns
    /// untouched before then); a non-idle RCU past that horizon must run
    /// every cycle — either it fires instructions or it accrues
    /// `stalled_cycles`, and both change state.
    pub fn next_wake(&self, now: u64) -> Option<u64> {
        if self.is_idle() {
            None
        } else if self.busy_until > now {
            Some(self.busy_until)
        } else {
            Some(now)
        }
    }

    /// Enqueues an arriving instruction token into the ordered buffer and
    /// registers its dependency wants.
    pub fn accept_instruction(&mut self, ins: Instruction) {
        let at = match self.blocks.binary_search_by_key(&ins.sub_block, |b| b.id) {
            Ok(at) => at,
            Err(at) => {
                let ring = self.spare_rings.pop().unwrap_or_default();
                self.blocks.insert(at, Block { id: ins.sub_block, next: 0, ring });
                at
            }
        };
        let block = &mut self.blocks[at];
        // A valid program never re-sends an executed sequence number; one
        // that does could never fire, so it is not queued.
        debug_assert!(ins.seq >= block.next, "instruction arrived after its slot retired");
        let Some(k) = ins.seq.checked_sub(block.next) else { return };
        let k = k as usize;
        while block.ring.len() <= k {
            block.ring.push_back(None);
        }
        if block.ring[k].replace(ins).is_none() {
            self.pending += 1;
        }
        for operand in [ins.vl, ins.vr] {
            if let Some(d) = operand.dep() {
                *self.wanted.entry(d).or_insert(0) += 1;
            }
        }
    }

    /// Lets the RCU inspect a transient data token passing its router.
    /// If any pending operand references the token's dependency, the value
    /// is captured into the dependency buffer and the token's dependent
    /// count is decremented by the number of captured references.
    pub fn observe_token(&mut self, token: &mut DataToken) {
        if let Some(w) = self.wanted.remove(&token.dep) {
            debug_assert!(w > 0);
            debug_assert!(
                token.dependents >= w,
                "token retired early: dependents underflow (program invalid)"
            );
            token.dependents -= w;
            let entry = self.dep_buffer.entry(token.dep).or_insert((token.value, 0));
            entry.0 = token.value;
            entry.1 += w;
            self.stats.captures += 1;
        }
    }

    /// Re-issues the retained token for `dep` with `remaining` dependents
    /// and a bumped sequence tag — the recovery path the CPM watchdog
    /// drives when a ring token is presumed lost (paper-faithful kernel
    /// state lives at the producing RCU). Returns `None` if this RCU never
    /// produced `dep` (e.g. the producer instruction has not fired yet).
    pub fn retransmit(&mut self, dep: DepId, remaining: u32) -> Option<DataToken> {
        let retained = self.produced.get_mut(&dep)?;
        *retained = retained.with_seq(retained.seq + 1);
        Some(DataToken::new(dep, remaining, retained.value).with_seq(retained.seq))
    }

    /// Drops retained tokens belonging to the CPM namespace `namespace`
    /// (called when that CPM's kernel completes, so retained state never
    /// leaks across kernels).
    pub fn clear_retained_namespace(&mut self, namespace: u32) {
        self.produced.retain(|dep, _| dep >> crate::cpm::NAMESPACE_SHIFT != namespace);
    }

    /// Number of produced tokens currently retained for retransmission.
    pub fn retained_tokens(&self) -> usize {
        self.produced.len()
    }

    /// Purges every piece of per-kernel state belonging to CPM namespace
    /// `namespace`: pending instructions, operand wants, captured operand
    /// values, staged emissions, and retained retransmission tokens. The
    /// platform's graceful-degradation path calls this when it aborts a
    /// stalled kernel attempt — the whole failed epoch is quarantined
    /// before the kernel is resubmitted under a fresh namespace, so no
    /// half-executed sub-block or stale capture can leak into the retry.
    /// State belonging to other namespaces (concurrent kernels from other
    /// CPMs) is untouched.
    pub fn abort_namespace(&mut self, namespace: u32) {
        let foreign = |id: u32| id >> crate::cpm::NAMESPACE_SHIFT != namespace;
        let mut i = 0;
        while i < self.blocks.len() {
            if foreign(self.blocks[i].id) {
                i += 1;
            } else {
                let block = self.blocks.remove(i);
                self.retire_ring(block.ring);
            }
        }
        self.wanted.retain(|&d, _| foreign(d));
        self.dep_buffer.retain(|&d, _| foreign(d));
        self.produced.retain(|&d, _| foreign(d));
        if self.active_block.is_some_and(|b| !foreign(b)) {
            // Releasing the accumulator is safe: the next block to claim
            // it resets `acc` before executing (see `execute`).
            self.active_block = None;
        }
        self.staged.retain(|e| match e {
            Emission::Token(t) => foreign(t.dep),
            Emission::Output { index, .. } => foreign(*index),
        });
    }

    /// Advances the RCU by one cycle. Returns the emissions completing
    /// this cycle (at most one per lane).
    pub fn tick(&mut self, cycle: u64) -> Vec<Emission> {
        self.tick_traced(cycle, 0, &mut TracerHandle::Nop)
    }

    /// [`Rcu::tick`] with tracing: every fired instruction is recorded as a
    /// [`EventKind::RcuFire`] span on `tracer`, attributed to router `node`.
    pub fn tick_traced(
        &mut self,
        cycle: u64,
        node: u32,
        tracer: &mut TracerHandle,
    ) -> Vec<Emission> {
        let mut out = Vec::new();
        self.tick_into(cycle, node, tracer, &mut out);
        out
    }

    /// [`Rcu::tick_traced`] writing completions into a caller-owned
    /// scratch buffer — the allocation-free hot-loop entry point
    /// ([`Platform::step`](crate::platform::Platform::step) reuses one
    /// buffer across all RCUs and cycles). `out` is appended to; emission
    /// order is identical to the `Vec`-returning forms.
    pub fn tick_into(
        &mut self,
        cycle: u64,
        node: u32,
        tracer: &mut TracerHandle,
        out: &mut Vec<Emission>,
    ) {
        if cycle < self.busy_until {
            return;
        }
        out.append(&mut self.staged);
        let mut group_latency = 0;
        for _ in 0..self.lanes {
            let Some(at) = self.next_fireable() else { break };
            let ins = self.pop_front(at);
            group_latency = group_latency.max(ins.op.latency());
            tracer.record_with(cycle, || EventKind::RcuFire {
                node,
                sub_block: ins.sub_block,
                seq: ins.seq,
                op: op_code(ins.op),
                latency: ins.op.latency(),
                deps: [
                    ins.vl.dep().unwrap_or(NO_DEP),
                    ins.vr.dep().unwrap_or(NO_DEP),
                ],
                dest: match ins.dest {
                    ResultDest::Accumulate => FireDest::Acc,
                    ResultDest::Token { dep, .. } => FireDest::Token { dep },
                    ResultDest::Output { index } => FireDest::Output { index },
                },
            });
            self.execute(ins);
        }
        if group_latency > 0 {
            self.busy_until = cycle + group_latency;
        } else if self.pending > 0 {
            self.stats.stalled_cycles += 1;
        }
    }

    /// Finds the block whose front instruction the firing rule allows
    /// next, as an index into `blocks`.
    fn next_fireable(&self) -> Option<usize> {
        let ready =
            |b: &Block| matches!(b.ring.front(), Some(Some(ins)) if self.operands_ready(ins));
        if let Some(id) = self.active_block {
            // The active sub-block owns the accumulator: only its next
            // instruction may fire.
            let at =
                self.blocks.binary_search_by_key(&id, |b| b.id).expect("active block tracked");
            return ready(&self.blocks[at]).then_some(at);
        }
        // Otherwise any sub-block may start; take the lowest-numbered ready
        // one for determinism.
        self.blocks.iter().position(ready)
    }

    /// Removes and returns the (present) front instruction of
    /// `blocks[at]`, advancing the block to its next sequence number. A
    /// terminating instruction retires the whole block.
    fn pop_front(&mut self, at: usize) -> Instruction {
        let block = &mut self.blocks[at];
        let ins = block.ring.pop_front().flatten().expect("fireable instruction exists");
        block.next += 1;
        self.pending -= 1;
        if ins.ends_block {
            let block = self.blocks.remove(at);
            self.retire_ring(block.ring);
        }
        ins
    }

    /// Returns a retired block's ring to the spare list, dropping (and
    /// uncounting) any instructions still queued in it.
    fn retire_ring(&mut self, mut ring: VecDeque<Option<Instruction>>) {
        self.pending -= ring.iter().filter(|slot| slot.is_some()).count();
        ring.clear();
        self.spare_rings.push(ring);
    }

    fn operands_ready(&self, ins: &Instruction) -> bool {
        [ins.vl, ins.vr].iter().all(|o| match o.dep() {
            None => true,
            Some(d) => self.dep_buffer.get(&d).is_some_and(|(_, uses)| *uses > 0),
        })
    }

    fn operand_value(&mut self, o: Operand) -> Fixed {
        match o {
            Operand::Imm(v) => v,
            Operand::Dep(d) => {
                let (value, uses) = self.dep_buffer.get_mut(&d).expect("operand ready");
                let v = *value;
                *uses -= 1;
                if *uses == 0 {
                    self.dep_buffer.remove(&d);
                }
                v
            }
        }
    }

    fn execute(&mut self, ins: Instruction) {
        // A new sub-block claiming the accumulator resets it.
        if self.active_block != Some(ins.sub_block) {
            self.active_block = Some(ins.sub_block);
            self.acc = Fixed::ZERO;
        }
        let vl = self.operand_value(ins.vl);
        let vr = self.operand_value(ins.vr);
        let result = match ins.op {
            Op::Add => vl + vr,
            Op::Sub => vl - vr,
            Op::Mul => vl * vr,
            Op::Mac => {
                self.acc = self.acc.mac(vl, vr);
                self.acc
            }
            Op::Acc => {
                self.acc = self.acc + vl + vr;
                self.acc
            }
        };
        if ins.ends_block {
            self.active_block = None;
        }
        match ins.dest {
            ResultDest::Accumulate => {}
            ResultDest::Token { dep, dependents } => {
                let token = DataToken::new(dep, dependents, result);
                self.produced.insert(dep, token);
                self.staged.push(Emission::Token(token));
            }
            ResultDest::Output { index } => {
                self.staged.push(Emission::Output { index, value: result });
            }
        }
        self.stats.executed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snacknoc_noc::NodeId;

    fn imm(v: f64) -> Operand {
        Operand::Imm(Fixed::from_f64(v))
    }

    fn ins(
        op: Op,
        vl: Operand,
        vr: Operand,
        dest: ResultDest,
        block: SubBlockId,
        seq: u32,
        ends: bool,
    ) -> Instruction {
        Instruction { op, pe: NodeId::new(0), vl, vr, dest, sub_block: block, seq, ends_block: ends }
    }

    /// Drives the RCU until it produces an emission or `limit` cycles pass.
    fn drain(rcu: &mut Rcu, from: u64, limit: u64) -> Option<(u64, Emission)> {
        for c in from..from + limit {
            let out = rcu.tick(c);
            if let Some(e) = out.into_iter().next() {
                return Some((c, e));
            }
        }
        None
    }

    #[test]
    fn add_with_immediates_emits_after_latency() {
        let mut rcu = Rcu::new();
        rcu.accept_instruction(ins(
            Op::Add,
            imm(2.0),
            imm(3.0),
            ResultDest::Output { index: 0 },
            0,
            0,
            true,
        ));
        // Fires at cycle 1, 1-cycle latency, emission at cycle 2.
        assert!(rcu.tick(1).is_empty());
        let e = rcu.tick(2);
        assert_eq!(e, vec![Emission::Output { index: 0, value: Fixed::from_f64(5.0) }]);
        assert!(rcu.is_idle());
        assert_eq!(rcu.stats.executed, 1);
    }

    #[test]
    fn mul_takes_two_cycles() {
        let mut rcu = Rcu::new();
        rcu.accept_instruction(ins(
            Op::Mul,
            imm(2.0),
            imm(3.5),
            ResultDest::Output { index: 0 },
            0,
            0,
            true,
        ));
        assert!(rcu.tick(1).is_empty(), "fires");
        assert!(rcu.tick(2).is_empty(), "still in the multiplier");
        let e = rcu.tick(3);
        assert_eq!(e, vec![Emission::Output { index: 0, value: Fixed::from_f64(7.0) }]);
    }

    #[test]
    fn mac_sub_block_accumulates_and_is_atomic() {
        let mut rcu = Rcu::new();
        // Block 0: acc = 1*2 + 3*4 = 14 (two MACs).
        rcu.accept_instruction(ins(Op::Mac, imm(1.0), imm(2.0), ResultDest::Accumulate, 0, 0, false));
        rcu.accept_instruction(ins(
            Op::Mac,
            imm(3.0),
            imm(4.0),
            ResultDest::Output { index: 0 },
            0,
            1,
            true,
        ));
        // Block 1 is ready too but must not interleave with block 0.
        rcu.accept_instruction(ins(
            Op::Add,
            imm(10.0),
            imm(20.0),
            ResultDest::Output { index: 1 },
            1,
            0,
            true,
        ));
        let (c1, e1) = drain(&mut rcu, 1, 20).unwrap();
        assert_eq!(e1, Emission::Output { index: 0, value: Fixed::from_f64(14.0) });
        let (_, e2) = drain(&mut rcu, c1, 20).unwrap();
        assert_eq!(e2, Emission::Output { index: 1, value: Fixed::from_f64(30.0) });
    }

    #[test]
    fn accumulator_resets_between_blocks() {
        let mut rcu = Rcu::new();
        rcu.accept_instruction(ins(
            Op::Acc,
            imm(5.0),
            imm(5.0),
            ResultDest::Output { index: 0 },
            0,
            0,
            true,
        ));
        rcu.accept_instruction(ins(
            Op::Acc,
            imm(1.0),
            imm(1.0),
            ResultDest::Output { index: 1 },
            1,
            0,
            true,
        ));
        let (c1, e1) = drain(&mut rcu, 1, 20).unwrap();
        assert_eq!(e1, Emission::Output { index: 0, value: Fixed::from_f64(10.0) });
        let (_, e2) = drain(&mut rcu, c1, 20).unwrap();
        assert_eq!(
            e2,
            Emission::Output { index: 1, value: Fixed::from_f64(2.0) },
            "second block must not see the first block's accumulator"
        );
    }

    #[test]
    fn dependency_stalls_until_token_passes() {
        let mut rcu = Rcu::new();
        rcu.accept_instruction(ins(
            Op::Add,
            Operand::Dep(7),
            imm(1.0),
            ResultDest::Output { index: 0 },
            0,
            0,
            true,
        ));
        for c in 1..5 {
            assert!(rcu.tick(c).is_empty(), "stalled on dep 7");
        }
        assert!(rcu.stats.stalled_cycles >= 3);
        let mut tok = DataToken::new(7, 2, Fixed::from_f64(41.0));
        rcu.observe_token(&mut tok);
        assert_eq!(tok.dependents, 1, "one local reference captured");
        assert_eq!(rcu.stats.captures, 1);
        let (_, e) = drain(&mut rcu, 5, 10).unwrap();
        assert_eq!(e, Emission::Output { index: 0, value: Fixed::from_f64(42.0) });
    }

    #[test]
    fn uninterested_tokens_pass_untouched() {
        let mut rcu = Rcu::new();
        let mut tok = DataToken::new(3, 4, Fixed::ONE);
        rcu.observe_token(&mut tok);
        assert_eq!(tok.dependents, 4);
        assert_eq!(rcu.stats.captures, 0);
    }

    #[test]
    fn same_dep_used_by_both_operands() {
        let mut rcu = Rcu::new();
        rcu.accept_instruction(ins(
            Op::Mul,
            Operand::Dep(1),
            Operand::Dep(1),
            ResultDest::Output { index: 0 },
            0,
            0,
            true,
        ));
        let mut tok = DataToken::new(1, 2, Fixed::from_f64(3.0));
        rcu.observe_token(&mut tok);
        assert_eq!(tok.dependents, 0, "both references captured in one pass");
        let (_, e) = drain(&mut rcu, 1, 10).unwrap();
        assert_eq!(e, Emission::Output { index: 0, value: Fixed::from_f64(9.0) });
    }

    #[test]
    fn late_instruction_captures_from_later_pass() {
        // Token passes before the instruction wanting it arrives; since the
        // dependent count includes the future want, the token keeps
        // circulating and a later pass serves it.
        let mut rcu = Rcu::new();
        let mut tok = DataToken::new(9, 1, Fixed::from_f64(6.0));
        rcu.observe_token(&mut tok); // nothing wants it yet
        assert_eq!(tok.dependents, 1);
        rcu.accept_instruction(ins(
            Op::Add,
            Operand::Dep(9),
            imm(0.0),
            ResultDest::Output { index: 0 },
            0,
            0,
            true,
        ));
        rcu.observe_token(&mut tok); // next lap
        assert_eq!(tok.dependents, 0);
        let (_, e) = drain(&mut rcu, 1, 10).unwrap();
        assert_eq!(e, Emission::Output { index: 0, value: Fixed::from_f64(6.0) });
    }

    #[test]
    fn vector_lanes_retire_a_chain_faster() {
        // An 8-step Acc chain: a scalar RCU needs 8 firing cycles, a
        // 4-lane RCU two groups.
        let chain = |rcu: &mut Rcu| {
            for seq in 0..8u32 {
                rcu.accept_instruction(ins(
                    Op::Acc,
                    imm(1.0),
                    imm(0.0),
                    if seq == 7 { ResultDest::Output { index: 0 } } else { ResultDest::Accumulate },
                    0,
                    seq,
                    seq == 7,
                ));
            }
        };
        let mut scalar = Rcu::new();
        chain(&mut scalar);
        let (t_scalar, e) = drain(&mut scalar, 1, 32).unwrap();
        assert_eq!(e, Emission::Output { index: 0, value: Fixed::from_f64(8.0) });
        let mut vector = Rcu::with_lanes(4);
        chain(&mut vector);
        let (t_vector, e) = drain(&mut vector, 1, 32).unwrap();
        assert_eq!(e, Emission::Output { index: 0, value: Fixed::from_f64(8.0) }, "same result");
        assert!(t_vector < t_scalar, "4 lanes finish sooner: {t_vector} vs {t_scalar}");
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = Rcu::with_lanes(0);
    }

    #[test]
    fn retransmit_reissues_retained_tokens_with_bumped_seq() {
        let mut rcu = Rcu::new();
        rcu.accept_instruction(ins(
            Op::Add,
            imm(4.0),
            imm(5.0),
            ResultDest::Token { dep: 3, dependents: 2 },
            0,
            0,
            true,
        ));
        let (_, e) = drain(&mut rcu, 1, 10).unwrap();
        assert_eq!(e, Emission::Token(DataToken::new(3, 2, Fixed::from_f64(9.0))));
        assert_eq!(rcu.retained_tokens(), 1);
        // One dependent already captured elsewhere: re-issue with 1 left.
        let r1 = rcu.retransmit(3, 1).expect("retained");
        assert_eq!((r1.dep, r1.dependents, r1.seq), (3, 1, 1));
        assert_eq!(r1.value, Fixed::from_f64(9.0));
        assert!(r1.checksum_ok());
        let r2 = rcu.retransmit(3, 1).expect("still retained");
        assert_eq!(r2.seq, 2, "each re-issue bumps the sequence tag");
        assert_eq!(rcu.retransmit(99, 1), None, "never produced");
        rcu.clear_retained_namespace(0);
        assert_eq!(rcu.retained_tokens(), 0);
        assert_eq!(rcu.retransmit(3, 1), None, "cleared with its kernel");
    }

    #[test]
    fn clear_retained_namespace_is_selective() {
        let mut rcu = Rcu::new();
        let mk = |dep: DepId, block: SubBlockId| {
            ins(Op::Add, imm(1.0), imm(1.0), ResultDest::Token { dep, dependents: 1 }, block, 0, true)
        };
        let ns1 = 1u32 << crate::cpm::NAMESPACE_SHIFT;
        rcu.accept_instruction(mk(5, 0));
        rcu.accept_instruction(mk(5 | ns1, 1));
        for c in 1..20 {
            rcu.tick(c);
        }
        assert_eq!(rcu.retained_tokens(), 2);
        rcu.clear_retained_namespace(1);
        assert_eq!(rcu.retained_tokens(), 1);
        assert!(rcu.retransmit(5, 1).is_some(), "namespace 0 survives");
    }

    #[test]
    fn out_of_order_arrival_within_block_executes_in_seq_order() {
        let mut rcu = Rcu::new();
        // seq 1 arrives before seq 0.
        rcu.accept_instruction(ins(
            Op::Acc,
            imm(1.0),
            imm(0.0),
            ResultDest::Output { index: 0 },
            0,
            1,
            true,
        ));
        assert_eq!(drain(&mut rcu, 1, 5), None, "cannot start at seq 1");
        rcu.accept_instruction(ins(Op::Acc, imm(10.0), imm(0.0), ResultDest::Accumulate, 0, 0, false));
        let (_, e) = drain(&mut rcu, 6, 20).unwrap();
        assert_eq!(e, Emission::Output { index: 0, value: Fixed::from_f64(11.0) });
    }

    /// Ticks until the RCU is idle, collecting every emission in order.
    fn drain_all(rcu: &mut Rcu, from: u64, limit: u64) -> Vec<Emission> {
        let mut out = Vec::new();
        for c in from..from + limit {
            out.extend(rcu.tick(c));
            if rcu.is_idle() {
                break;
            }
        }
        out
    }

    fn output_indices(emissions: &[Emission]) -> Vec<u32> {
        emissions
            .iter()
            .map(|e| match e {
                Emission::Output { index, .. } => *index,
                Emission::Token(t) => panic!("unexpected token {t:?}"),
            })
            .collect()
    }

    #[test]
    fn ring_fires_out_of_order_arrivals_in_seq_order() {
        let mut rcu = Rcu::new();
        let step = |seq: u32| {
            ins(Op::Add, imm(1.0), imm(0.0), ResultDest::Output { index: seq }, 0, seq, seq == 2)
        };
        rcu.accept_instruction(step(2));
        rcu.accept_instruction(step(0));
        assert_eq!(rcu.pending_instructions(), 2);
        // seq 0 fires; seq 1 is a hole, so the block waits with seq 2 queued.
        let early = drain(&mut rcu, 1, 10).map(|(_, e)| e);
        assert_eq!(early, Some(Emission::Output { index: 0, value: Fixed::ONE }));
        assert_eq!(drain(&mut rcu, 11, 5), None, "seq 2 must wait for seq 1");
        assert_eq!(rcu.pending_instructions(), 1);
        assert!(!rcu.is_idle());
        rcu.accept_instruction(step(1));
        let rest = drain_all(&mut rcu, 16, 20);
        assert_eq!(output_indices(&rest), vec![1, 2]);
        assert!(rcu.is_idle());
        assert_eq!(rcu.pending_instructions(), 0);
        assert_eq!(rcu.stats.executed, 3);
    }

    #[test]
    fn a_block_missing_its_next_seq_does_not_block_a_ready_one() {
        let mut rcu = Rcu::new();
        // Block 0 has only seq 1 (seq 0 not yet arrived); blocks 1 and 2
        // are ready. The lowest-numbered *ready* block, 1, fires first.
        rcu.accept_instruction(ins(Op::Add, imm(1.0), imm(0.0), ResultDest::Output { index: 0 }, 0, 1, true));
        rcu.accept_instruction(ins(Op::Add, imm(2.0), imm(0.0), ResultDest::Output { index: 2 }, 2, 0, true));
        rcu.accept_instruction(ins(Op::Add, imm(1.0), imm(0.0), ResultDest::Output { index: 1 }, 1, 0, true));
        let out = drain_all(&mut rcu, 1, 10);
        assert_eq!(output_indices(&out), vec![1, 2]);
        assert_eq!(rcu.pending_instructions(), 1, "block 0 still waits for seq 0");
        rcu.accept_instruction(ins(Op::Acc, imm(5.0), imm(0.0), ResultDest::Accumulate, 0, 0, false));
        let out = drain_all(&mut rcu, 11, 10);
        assert_eq!(out, vec![Emission::Output { index: 0, value: Fixed::from_f64(1.0) }]);
        assert!(rcu.is_idle());
    }

    #[test]
    fn aborting_a_namespace_mid_block_keeps_counts_exact() {
        let ns1 = 1u32 << crate::cpm::NAMESPACE_SHIFT;
        let mut rcu = Rcu::new();
        // Namespace 1's block: seq 0 fires (claiming the accumulator),
        // seq 1 is missing, seq 2 and 3 are queued behind the hole.
        for seq in [0, 2, 3] {
            let dest = if seq == 3 { ResultDest::Output { index: ns1 } } else { ResultDest::Accumulate };
            rcu.accept_instruction(ins(Op::Acc, imm(1.0), imm(0.0), dest, ns1, seq, seq == 3));
        }
        assert_eq!(rcu.pending_instructions(), 3);
        rcu.tick(1);
        assert_eq!(rcu.pending_instructions(), 2, "ns1 seq 0 fired");
        // Namespace 0's block arrives behind the active one.
        rcu.accept_instruction(ins(Op::Add, imm(3.0), imm(4.0), ResultDest::Output { index: 0 }, 0, 0, true));
        assert_eq!(rcu.pending_instructions(), 3);
        assert_eq!(drain(&mut rcu, 2, 5), None, "ns1 owns the accumulator and waits on seq 1");
        rcu.abort_namespace(1);
        assert_eq!(rcu.pending_instructions(), 1, "only namespace 0's instruction is left");
        assert!(!rcu.is_idle());
        let out = drain_all(&mut rcu, 7, 10);
        assert_eq!(out, vec![Emission::Output { index: 0, value: Fixed::from_f64(7.0) }]);
        assert!(rcu.is_idle());
        assert_eq!(rcu.pending_instructions(), 0);
        // A late straggler of the aborted block opens a fresh block, which
        // is counted like any other.
        rcu.accept_instruction(ins(Op::Acc, imm(1.0), imm(0.0), ResultDest::Accumulate, ns1, 1, false));
        assert_eq!(rcu.pending_instructions(), 1);
        rcu.abort_namespace(1);
        assert_eq!(rcu.pending_instructions(), 0);
        assert!(rcu.is_idle());
    }

    #[test]
    fn a_drained_ring_is_reused_without_growing() {
        let mut rcu = Rcu::new();
        let block = |rcu: &mut Rcu, id: SubBlockId| {
            // Delivered in reverse so the whole block queues at once.
            for seq in (0..8u32).rev() {
                let dest = if seq == 7 { ResultDest::Output { index: id } } else { ResultDest::Accumulate };
                rcu.accept_instruction(ins(Op::Acc, imm(1.0), imm(0.0), dest, id, seq, seq == 7));
            }
        };
        block(&mut rcu, 0);
        let capacity = rcu.blocks[0].ring.capacity();
        assert!(capacity >= 8);
        drain_all(&mut rcu, 1, 40);
        assert!(rcu.blocks.is_empty(), "a finished block leaves the buffer");
        assert_eq!(rcu.spare_rings.len(), 1, "its ring is kept");
        block(&mut rcu, 1);
        assert!(rcu.spare_rings.is_empty(), "the next block took the spare ring");
        assert_eq!(rcu.blocks[0].ring.capacity(), capacity, "and did not grow it");
        let out = drain_all(&mut rcu, 41, 40);
        assert_eq!(out, vec![Emission::Output { index: 1, value: Fixed::from_f64(8.0) }]);
        assert_eq!(rcu.spare_rings.len(), 1);
        assert_eq!(rcu.spare_rings[0].capacity(), capacity);
    }
}
