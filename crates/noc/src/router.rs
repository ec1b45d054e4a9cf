//! The virtual-channel router microarchitecture: input units, route
//! computation, separable VC / switch allocation and the crossbar.
//!
//! Each router is a canonical input-queued VC router. Per cycle it performs,
//! in order: **RC** (route computation — performed once per packet, at head
//! arrival, and cached in the input-VC state), **VA** (virtual-channel
//! allocation, atomic — a downstream VC is granted only when idle and
//! drained) and **SA/ST** (separable two-stage switch allocation followed
//! by crossbar traversal). Pipeline depth is modelled by gating switch
//! allocation until a flit has been buffered for `pipeline_stages - 1`
//! cycles, reproducing the 2/3/4-cycle per-hop latencies of the BiNoCHS /
//! AxNoC / DAPPER baselines.
//!
//! When [`NocConfig::priority_arbitration`] is set, both allocators
//! round-robin over communication-class requests first and consider
//! SnackNoC instruction/data flits only if no communication flit requests
//! the resource (paper §III-D3).
//!
//! ## Flat buffers
//!
//! Input buffers are fixed-depth rings in one boxed slice per router: the
//! flits of input VC `(port, vc)` occupy slots
//! `(port · vcs + vc) · buffers_per_vc ..` beside a `{head, len, state}`
//! cursor per VC. `buffers_per_vc` is a configuration constant, and the
//! credit protocol guarantees a VC never holds more than that, so the
//! rings never grow (an overflow is a broken invariant and panics).
//!
//! ## Bitmask-driven allocation
//!
//! The allocators never scan all ports × VCs. Four per-port `u64` bitmasks
//! — `routed_mask` / `active_mask` over input VCs and `free_mask` /
//! `credit_mask` over output VCs — are maintained at every state
//! transition (head arrival, VC grant, tail traversal, credit return, VC
//! free) and iterated with `trailing_zeros`, so a cycle's allocation work
//! is proportional to the *resident* packets, not the configured resource
//! count. [`NocConfig::validate`] caps `vcs_per_port` at 64 to keep one
//! word per port. Switch allocation's second stage grants from per-output
//! `u8` request masks over input ports. Debug builds cross-check every
//! mask against a fresh scan of the underlying state, exactly like the
//! incremental occupancy counters elsewhere in the crate.

use crate::config::NocConfig;
use crate::flit::Flit;
use crate::routing::Dir;
use crate::topology::{Mesh, NodeId};
use snacknoc_trace::{EventKind, TracerHandle};

/// State of an input virtual channel's resident packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VcState {
    /// No packet resident.
    Idle,
    /// Head flit arrived and was routed; waiting for an output VC. The
    /// cached `out_port` is the packet's route decision for this hop —
    /// computed once, never re-derived per cycle.
    Routed { out_port: Dir },
    /// Output VC allocated; flits may compete for the switch.
    Active { out_port: Dir, out_vc: u8 },
}

/// One input virtual channel: the cursor of its flit ring plus packet
/// state. The flits themselves live in [`Router::slots`].
#[derive(Clone, Copy, Debug)]
struct InputVc {
    /// Ring index of the oldest buffered flit.
    head: u8,
    /// Flits buffered.
    len: u8,
    state: VcState,
}

/// Credit/allocation state for one downstream virtual channel.
#[derive(Clone, Copy, Debug)]
struct OutputVc {
    /// Whether the downstream VC is unallocated (atomic VC reuse).
    free: bool,
    /// Buffer slots available downstream.
    credits: u8,
}

/// The bits `lo..hi` of a `u64`, set.
fn range_mask(lo: usize, hi: usize) -> u64 {
    debug_assert!(lo <= hi && hi <= 64);
    let below_hi = if hi == 64 { u64::MAX } else { (1u64 << hi) - 1 };
    let below_lo = if lo == 64 { u64::MAX } else { (1u64 << lo) - 1 };
    below_hi & !below_lo
}

/// `i + 1`, wrapped to 0 at `n`: a round-robin step without a division
/// by the runtime count.
#[inline]
pub(crate) fn wrap_next(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

/// The first set bit of `mask` at or cyclically after bit `from`.
#[inline]
fn first_from(mask: u8, from: usize) -> usize {
    let later = mask & (u8::MAX << from);
    if later != 0 {
        later.trailing_zeros() as usize
    } else {
        mask.trailing_zeros() as usize
    }
}

/// A flit leaving the router through the crossbar this cycle.
#[derive(Debug)]
pub(crate) struct Departure {
    /// The flit (already stamped with its downstream VC).
    pub flit: Flit,
    /// Output port it leaves through (`Local` = ejection).
    pub out_port: Dir,
    /// Input port it occupied (`Local` = it was injected here).
    pub in_port: Dir,
    /// Input VC it occupied, for the upstream credit return.
    pub in_vc: u8,
    /// Whether this was the packet's tail (frees the upstream output VC).
    pub was_tail: bool,
}

/// A single mesh router with its input units, allocators and crossbar-side
/// output bookkeeping.
#[derive(Clone, Debug)]
pub(crate) struct Router {
    node: NodeId,
    /// This router's `(x, y)` mesh coordinates, for route computation.
    xy: (usize, usize),
    /// VCs per port.
    vcs: usize,
    /// Ring depth of every input VC (`buffers_per_vc`).
    depth: usize,
    /// Flit rings of every input VC: VC `(port, vc)` owns slots
    /// `(port * vcs + vc) * depth ..` of length `depth`.
    slots: Box<[Flit]>,
    /// Input VC `(port, vc)` at `port * vcs + vc`.
    inputs: Box<[InputVc]>,
    /// Router-to-router output VC `(port, vc)` at `port * vcs + vc`; the
    /// `Local` output (ejection) has no VC/credit limits and no entries.
    /// Entries of unconnected ports stay allocated with zero credits.
    outputs: Box<[OutputVc]>,
    /// Whether each output port has a link (Local is always "connected").
    connected: [bool; Dir::COUNT],
    /// Per-input-port bitmask of VCs in the `Routed` state (VA requests).
    routed_mask: [u64; Dir::COUNT],
    /// Per-input-port bitmask of VCs in the `Active` state (SA candidates).
    active_mask: [u64; Dir::COUNT],
    /// Per-output-port bitmask of free (unallocated) downstream VCs.
    free_mask: [u64; Dir::COUNT],
    /// Per-output-port bitmask of downstream VCs holding ≥ 1 credit.
    credit_mask: [u64; Dir::COUNT],
    /// Round-robin pointer for VC allocation over flattened (port, vc),
    /// held as its two coordinates.
    va_rr: (usize, usize),
    /// Per-input-port round-robin pointer over VCs for SA stage 1.
    sa_in_rr: [usize; Dir::COUNT],
    /// Per-output-port round-robin pointer over input ports for SA stage 2.
    sa_out_rr: [usize; Dir::COUNT],
    /// Flits currently buffered across all input VCs.
    buffered: usize,
    /// Total router-to-router output VCs (constant after construction).
    useful_total: usize,
    /// Times a flit's hop counter saturated at `u32::MAX` instead of
    /// wrapping — nonzero only under pathological livelock, but counted
    /// rather than silently lost or panicked on.
    hops_saturations: u64,
}

impl Router {
    /// The all-clear down-link mask: every output port usable.
    pub(crate) const NO_DOWN_PORTS: [bool; Dir::COUNT] = [false; Dir::COUNT];

    pub(crate) fn new(cfg: &NocConfig, mesh: &Mesh, node: NodeId) -> Self {
        let vcs = cfg.vcs_per_port();
        let depth = cfg.buffers_per_vc as usize;
        let idle = InputVc { head: 0, len: 0, state: VcState::Idle };
        let mut connected = [false; Dir::COUNT];
        connected[Dir::Local.index()] = true;
        let mut outputs = vec![OutputVc { free: false, credits: 0 }; Dir::ROUTER_DIRS.len() * vcs];
        let mut free_mask = [0u64; Dir::COUNT];
        let mut credit_mask = [0u64; Dir::COUNT];
        for d in Dir::ROUTER_DIRS {
            if mesh.neighbor(node, d).is_some() {
                connected[d.index()] = true;
                // Every connected output VC starts free with a full credit
                // stock.
                outputs[d.index() * vcs..(d.index() + 1) * vcs]
                    .fill(OutputVc { free: true, credits: cfg.buffers_per_vc });
                free_mask[d.index()] = range_mask(0, vcs);
                credit_mask[d.index()] = range_mask(0, vcs);
            }
        }
        let useful_total = Dir::ROUTER_DIRS.iter().filter(|d| connected[d.index()]).count() * vcs;
        Router {
            node,
            xy: mesh.coords(node),
            vcs,
            depth,
            slots: vec![Flit::VACANT; Dir::COUNT * vcs * depth].into_boxed_slice(),
            inputs: vec![idle; Dir::COUNT * vcs].into_boxed_slice(),
            outputs: outputs.into_boxed_slice(),
            connected,
            routed_mask: [0; Dir::COUNT],
            active_mask: [0; Dir::COUNT],
            free_mask,
            credit_mask,
            va_rr: (0, 0),
            sa_in_rr: [0; Dir::COUNT],
            sa_out_rr: [0; Dir::COUNT],
            buffered: 0,
            useful_total,
            hops_saturations: 0,
        }
    }

    /// Number of flits buffered in this router's input units.
    pub(crate) fn buffered_flits(&self) -> usize {
        self.buffered
    }

    /// Times a flit's hop counter saturated in this router (see
    /// [`crate::Network::hops_saturations`]).
    pub(crate) fn hops_saturations(&self) -> u64 {
        self.hops_saturations
    }

    /// The buffered flits of input VC `i` (`port * vcs + vc`), oldest
    /// first.
    fn vc_flits(&self, i: usize) -> impl Iterator<Item = &Flit> {
        let ring = &self.slots[i * self.depth..(i + 1) * self.depth];
        let vc = self.inputs[i];
        (0..vc.len as usize).map(move |k| &ring[(vc.head as usize + k) % ring.len()])
    }

    /// The oldest flit of input VC `i`, if any.
    #[inline]
    fn front(&self, i: usize) -> Option<&Flit> {
        let vc = self.inputs[i];
        (vc.len > 0).then(|| &self.slots[i * self.depth + vc.head as usize])
    }

    /// Earliest `queued_at` among buffered flits — the age witness for
    /// stall reports. `None` when the router is empty.
    pub(crate) fn oldest_buffered_queued_at(&self) -> Option<u64> {
        (0..self.inputs.len()).flat_map(|i| self.vc_flits(i).map(|f| f.queued_at)).min()
    }

    /// Input VCs holding a routed packet that has not yet been granted an
    /// output VC — the "starved" population in a stall report.
    pub(crate) fn routed_waiting_vcs(&self) -> usize {
        let fast: usize = self.routed_mask.iter().map(|m| m.count_ones() as usize).sum();
        debug_assert_eq!(
            fast,
            self.inputs.iter().filter(|vc| matches!(vc.state, VcState::Routed { .. })).count(),
            "routed mask out of sync"
        );
        fast
    }

    /// Writes an arriving flit into its input buffer. A head flit landing
    /// in an idle VC is route-computed *here*, once, from the network's
    /// node → `(x, y)` table `coords`, and the decision is cached in the
    /// VC state — no per-cycle RC stage exists. (A VC left by a tail is
    /// provably empty, so a head can only ever arrive into an idle, empty
    /// VC.)
    ///
    /// # Panics
    ///
    /// Panics if the VC's buffer is already full: credit-based flow
    /// control was violated, and the fixed-depth ring has no room.
    pub(crate) fn accept_flit(
        &mut self,
        cfg: &NocConfig,
        coords: &[(u16, u16)],
        in_port: Dir,
        mut flit: Flit,
        cycle: u64,
    ) {
        flit.buffered_at = cycle;
        let vc_idx = flit.vc() as usize;
        debug_assert!(vc_idx < self.vcs, "flit stamped with an out-of-range VC");
        let i = in_port.index() * self.vcs + vc_idx;
        let vc = &mut self.inputs[i];
        assert!((vc.len as usize) < self.depth, "input buffer overflow: credit protocol violated");
        if vc.state == VcState::Idle {
            debug_assert!(vc.len == 0, "idle VC with buffered flits");
            debug_assert!(flit.kind().is_head(), "non-head flit arrived at an idle VC");
            let (x, y) = coords[flit.dst().index()];
            let out_port = cfg.routing.route_coords(self.xy, (usize::from(x), usize::from(y)));
            vc.state = VcState::Routed { out_port };
            self.routed_mask[in_port.index()] |= 1u64 << vc_idx;
        }
        let mut k = vc.head as usize + vc.len as usize;
        if k >= self.depth {
            k -= self.depth;
        }
        vc.len += 1;
        self.slots[i * self.depth + k] = flit;
        self.buffered += 1;
    }

    /// Whether the NI can start/continue streaming into a Local input VC.
    pub(crate) fn local_vc_accepts(&self, vc: usize, needs_idle: bool) -> bool {
        let v = self.inputs[Dir::Local.index() * self.vcs + vc];
        if needs_idle {
            v.state == VcState::Idle && v.len == 0
        } else {
            (v.len as usize) < self.depth
        }
    }

    /// Restores one credit for `(out_port, vc)` after a downstream buffer
    /// slot drained.
    pub(crate) fn return_credit(&mut self, out_port: Dir, vc: u8, max: u8) {
        let o = &mut self.outputs[out_port.index() * self.vcs + vc as usize];
        o.credits += 1;
        self.credit_mask[out_port.index()] |= 1u64 << vc;
        debug_assert!(o.credits <= max, "credit overflow");
    }

    /// Marks `(out_port, vc)` free after the downstream VC drained a tail.
    pub(crate) fn free_output_vc(&mut self, out_port: Dir, vc: u8) {
        self.outputs[out_port.index() * self.vcs + vc as usize].free = true;
        self.free_mask[out_port.index()] |= 1u64 << vc;
    }

    /// Counts `(free, total)` *useful* free output VCs — free and holding at
    /// least one credit — across the router-to-router output ports. This is
    /// the ALO-style congestion signal the SnackNoC CPM monitors
    /// (paper §III-C2, after Baydal et al.). A handful of popcounts: the
    /// free/credit bitmasks are maintained at every transition instead of
    /// rescanned per probe.
    pub(crate) fn useful_free_output_vcs(&self) -> (usize, usize) {
        let free: usize = Dir::ROUTER_DIRS
            .iter()
            .map(|d| (self.free_mask[d.index()] & self.credit_mask[d.index()]).count_ones() as usize)
            .sum();
        debug_assert_eq!(
            (free, self.useful_total),
            self.recount_useful_free_output_vcs(),
            "free/credit bitmasks out of sync"
        );
        (free, self.useful_total)
    }

    /// The output VCs of router-to-router port `port`.
    fn port_outputs(&self, port: usize) -> &[OutputVc] {
        &self.outputs[port * self.vcs..(port + 1) * self.vcs]
    }

    /// Reference recount of the congestion probe (debug verification of
    /// the bitmasks).
    fn recount_useful_free_output_vcs(&self) -> (usize, usize) {
        let mut free = 0;
        let mut total = 0;
        for d in Dir::ROUTER_DIRS.into_iter().filter(|d| self.connected[d.index()]) {
            for vc in self.port_outputs(d.index()) {
                total += 1;
                if vc.free && vc.credits > 0 {
                    free += 1;
                }
            }
        }
        (free, total)
    }

    /// Debug cross-check: every bitmask agrees with a fresh scan of the
    /// state it summarizes.
    #[cfg(debug_assertions)]
    fn masks_consistent(&self) -> bool {
        for port in 0..Dir::COUNT {
            let mut routed = 0u64;
            let mut active = 0u64;
            for (i, vc) in self.inputs[port * self.vcs..(port + 1) * self.vcs].iter().enumerate() {
                match vc.state {
                    VcState::Idle => {}
                    VcState::Routed { .. } => routed |= 1 << i,
                    VcState::Active { .. } => active |= 1 << i,
                }
            }
            if routed != self.routed_mask[port] || active != self.active_mask[port] {
                return false;
            }
            let mut free = 0u64;
            let mut credited = 0u64;
            let outputs =
                if port == Dir::Local.index() { &[][..] } else { self.port_outputs(port) };
            for (i, o) in outputs.iter().enumerate() {
                if o.free {
                    free |= 1 << i;
                }
                if o.credits > 0 {
                    credited |= 1 << i;
                }
            }
            if free != self.free_mask[port] || credited != self.credit_mask[port] {
                return false;
            }
        }
        true
    }

    /// VA stage: grant free downstream VCs to routed packets, communication
    /// class first when priority arbitration is on. Each grant is reported
    /// to `tracer` (a no-op for [`TracerHandle::Nop`]).
    ///
    /// Iteration walks the `routed_mask` bits in the exact order a
    /// flattened `(va_rr + step) % (ports · vcs)` scan visits them: the
    /// pointer's port from its VC upward, every later port in full, then
    /// the pointer's port below the pointer. The pointer advances one
    /// step every cycle, granted or not.
    pub(crate) fn vc_allocate(&mut self, cfg: &NocConfig, cycle: u64, tracer: &mut TracerHandle) {
        #[cfg(debug_assertions)]
        debug_assert!(self.masks_consistent());
        let vcs = self.vcs;
        let (p0, v0) = self.va_rr;
        self.va_rr = if v0 + 1 == vcs { (wrap_next(p0, Dir::COUNT), 0) } else { (p0, v0 + 1) };
        if self.routed_mask == [0; Dir::COUNT] {
            return;
        }
        let passes: &[Option<bool>] = if cfg.priority_arbitration {
            // Pass 0: communication only; pass 1: snack only.
            &[Some(false), Some(true)]
        } else {
            &[None]
        };
        for &snack_pass in passes {
            let mut port = p0;
            for k in 0..=Dir::COUNT {
                let (lo, hi) = match k {
                    0 => (v0, vcs),
                    _ if k == Dir::COUNT => (0, v0),
                    _ => (0, vcs),
                };
                let mut bits = self.routed_mask[port] & range_mask(lo, hi);
                while bits != 0 {
                    let vc_idx = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let i = port * vcs + vc_idx;
                    let VcState::Routed { out_port } = self.inputs[i].state else {
                        debug_assert!(false, "routed mask bit on a non-routed VC");
                        continue;
                    };
                    let Some(head) = self.front(i) else { continue };
                    if let Some(want_snack) = snack_pass {
                        if head.class().is_snack() != want_snack {
                            continue;
                        }
                    }
                    let out_vc = if out_port == Dir::Local {
                        // Ejection has no VC contention: the NI reassembles
                        // any number of interleaved packets.
                        Some(head.vc())
                    } else {
                        let vnet = head.vnet() as usize;
                        let lo = vnet * cfg.vcs_per_vnet as usize;
                        let hi = lo + cfg.vcs_per_vnet as usize;
                        let free = self.free_mask[out_port.index()] & range_mask(lo, hi);
                        (free != 0).then(|| free.trailing_zeros() as u8)
                    };
                    if let Some(out_vc) = out_vc {
                        tracer.record_with(cycle, || EventKind::VcAlloc {
                            router: self.node.index() as u32,
                            in_port: port as u8,
                            in_vc: vc_idx as u8,
                            out_port: out_port.index() as u8,
                            out_vc,
                        });
                        if out_port != Dir::Local {
                            self.outputs[out_port.index() * vcs + out_vc as usize].free = false;
                            self.free_mask[out_port.index()] &= !(1u64 << out_vc);
                        }
                        self.inputs[i].state = VcState::Active { out_port, out_vc };
                        self.routed_mask[port] &= !(1u64 << vc_idx);
                        self.active_mask[port] |= 1u64 << vc_idx;
                    }
                }
                port = wrap_next(port, Dir::COUNT);
            }
        }
    }

    /// SA + ST: separable two-stage switch allocation, then crossbar
    /// traversal of the winners. Returns the departing flits.
    ///
    /// `down` masks output ports whose link is inside a fault window:
    /// flits headed there are simply not ready, exactly as if the
    /// downstream receiver stopped returning credits. Pass
    /// [`Router::NO_DOWN_PORTS`] when fault injection is off.
    ///
    /// Convenience wrapper over [`Router::switch_allocate_into`]; the
    /// network hot loop uses the `_into` form with a reused scratch
    /// buffer, so this allocating form survives only for unit tests.
    #[cfg(test)]
    pub(crate) fn switch_allocate(
        &mut self,
        cfg: &NocConfig,
        cycle: u64,
        down: &[bool; Dir::COUNT],
    ) -> Vec<Departure> {
        let mut departures = Vec::new();
        self.switch_allocate_into(cfg, cycle, down, &mut departures);
        departures
    }

    /// [`Router::switch_allocate`] writing into a caller-owned scratch
    /// buffer — the allocation-free hot-loop entry point. `out` is
    /// appended to (the network's per-cycle loop hands in a cleared,
    /// capacity-warm scratch vector).
    pub(crate) fn switch_allocate_into(
        &mut self,
        cfg: &NocConfig,
        cycle: u64,
        down: &[bool; Dir::COUNT],
        out: &mut Vec<Departure>,
    ) {
        #[cfg(debug_assertions)]
        debug_assert!(self.masks_consistent());
        if self.active_mask == [0; Dir::COUNT] {
            return;
        }
        // A flit spends `pipeline_stages - 1` cycles in the router before
        // link traversal, giving the per-hop latencies of paper §III-D2.
        let extra = cfg.pipeline_extra();
        let priority = cfg.priority_arbitration;
        // Stage 1: each input port nominates one ready VC, and its request
        // lands in the per-output mask of its class (under priority
        // arbitration snack requests wait in their own mask).
        let mut nominee = [0u8; Dir::COUNT];
        let mut first_req = [0u8; Dir::COUNT];
        let mut snack_req = [0u8; Dir::COUNT];
        for (port, nominee) in nominee.iter_mut().enumerate() {
            let Some((vc, out_port, is_snack)) =
                self.pick_input_vc(port, cycle, extra, priority, down)
            else {
                continue;
            };
            *nominee = vc as u8;
            let req = if priority && is_snack { &mut snack_req } else { &mut first_req };
            req[out_port.index()] |= 1 << port;
        }
        // Stage 2: each output port grants one requesting input port,
        // round-robin from its pointer. A nominee requests exactly one
        // output, so an input port sends at most one flit per cycle.
        for out_port in 0..Dir::COUNT {
            let req =
                if first_req[out_port] != 0 { first_req[out_port] } else { snack_req[out_port] };
            if req == 0 {
                continue;
            }
            let in_port = first_from(req, self.sa_out_rr[out_port]);
            self.sa_out_rr[out_port] = wrap_next(in_port, Dir::COUNT);
            let dep = self.traverse(Dir::from_index(in_port), nominee[in_port] as usize);
            out.push(dep);
        }
    }

    /// Whether the `Active` VC `(port, idx)` can traverse this cycle; if
    /// so, its output port and whether its flit is snack-class.
    fn vc_ready(
        &self,
        port: usize,
        idx: usize,
        cycle: u64,
        extra: u64,
        down: &[bool; Dir::COUNT],
    ) -> Option<(Dir, bool)> {
        let i = port * self.vcs + idx;
        let VcState::Active { out_port, out_vc } = self.inputs[i].state else { return None };
        let flit = self.front(i)?;
        if cycle < flit.buffered_at + extra {
            return None;
        }
        if out_port != Dir::Local {
            if down[out_port.index()] {
                return None;
            }
            if self.credit_mask[out_port.index()] & (1u64 << out_vc) == 0 {
                return None;
            }
        }
        Some((out_port, flit.class().is_snack()))
    }

    /// Picks the input VC that port `port` nominates for the switch,
    /// walking the `active_mask` bits in round-robin order: the first
    /// ready VC, or under priority arbitration the first ready
    /// communication VC and only failing that the first ready snack VC.
    /// Returns the VC with its output port and class.
    fn pick_input_vc(
        &mut self,
        port: usize,
        cycle: u64,
        extra: u64,
        priority: bool,
        down: &[bool; Dir::COUNT],
    ) -> Option<(usize, Dir, bool)> {
        let mask = self.active_mask[port];
        if mask == 0 {
            return None;
        }
        let from = u64::MAX << self.sa_in_rr[port];
        let mut snack_fallback = None;
        let mut pick = None;
        'walk: for mut bits in [mask & from, mask & !from] {
            while bits != 0 {
                let idx = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let Some((out_port, is_snack)) = self.vc_ready(port, idx, cycle, extra, down)
                else {
                    continue;
                };
                if priority && is_snack {
                    snack_fallback = snack_fallback.or(Some((idx, out_port, true)));
                    continue;
                }
                pick = Some((idx, out_port, is_snack));
                break 'walk;
            }
        }
        let pick = pick.or(snack_fallback)?;
        self.sa_in_rr[port] = wrap_next(pick.0, self.vcs);
        Some(pick)
    }

    /// ST: pops the granted flit, charges credits, advances VC state.
    fn traverse(&mut self, in_port: Dir, vc_idx: usize) -> Departure {
        let i = in_port.index() * self.vcs + vc_idx;
        let vc = &mut self.inputs[i];
        let VcState::Active { out_port, out_vc } = vc.state else {
            unreachable!("traverse on non-active VC")
        };
        assert!(vc.len > 0, "traverse on empty VC");
        let mut flit = self.slots[i * self.depth + vc.head as usize];
        vc.head = wrap_next(vc.head as usize, self.depth) as u8;
        vc.len -= 1;
        self.buffered -= 1;
        let was_tail = flit.kind().is_tail();
        if was_tail {
            // Atomic VC reuse upstream guarantees the next packet's head
            // cannot be buffered yet — the invariant that makes routing at
            // head *arrival* (instead of a per-cycle RC stage) sound.
            debug_assert!(vc.len == 0, "flits buffered behind a departing tail");
            vc.state = VcState::Idle;
            self.active_mask[in_port.index()] &= !(1u64 << vc_idx);
        }
        if out_port != Dir::Local {
            // Atomic VC reuse: the output VC stays allocated until the
            // downstream input VC signals that the tail drained.
            let o = &mut self.outputs[out_port.index() * self.vcs + out_vc as usize];
            debug_assert!(o.credits > 0, "ST without credit");
            o.credits -= 1;
            if o.credits == 0 {
                self.credit_mask[out_port.index()] &= !(1u64 << out_vc);
            }
            if flit.hops == u32::MAX {
                self.hops_saturations += 1;
            } else {
                flit.hops += 1;
            }
            flit.set_vc(out_vc);
        }
        Departure { flit, out_port, in_port, in_vc: vc_idx as u8, was_tail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, TrafficClass};
    use crate::pool::PayloadRef;

    fn test_cfg() -> NocConfig {
        NocConfig::default().with_vnets(1).with_vcs_per_vnet(2).with_buffers_per_vc(4)
    }

    fn flit(dst: NodeId, kind: FlitKind, class: TrafficClass, vc: u8) -> Flit {
        let mut f = Flit::new(
            0,
            0,
            kind,
            class,
            0,
            NodeId::new(0),
            dst,
            0,
            PayloadRef::NONE,
            false,
        );
        f.set_vc(vc);
        f
    }

    #[test]
    fn range_mask_covers_edges() {
        assert_eq!(range_mask(0, 0), 0);
        assert_eq!(range_mask(0, 1), 1);
        assert_eq!(range_mask(0, 64), u64::MAX);
        assert_eq!(range_mask(63, 64), 1 << 63);
        assert_eq!(range_mask(2, 5), 0b11100);
        assert_eq!(range_mask(64, 64), 0);
    }

    #[test]
    fn single_flit_departs_toward_destination() {
        let cfg = test_cfg();
        let mesh = Mesh::new(4, 4);
        let coords = mesh.coord_table();
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let f = flit(mesh.node_at(3, 1), FlitKind::HeadTail, TrafficClass::Communication, 0);
        r.accept_flit(&cfg, &coords, Dir::West, f, 0);
        assert_eq!(r.buffered_flits(), 1);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        let deps = r.switch_allocate(&cfg, 10, &Router::NO_DOWN_PORTS);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].out_port, Dir::East);
        assert_eq!(deps[0].in_port, Dir::West);
        assert!(deps[0].was_tail);
        assert_eq!(deps[0].flit.hops(), 1);
        assert_eq!(r.buffered_flits(), 0);
    }

    #[test]
    fn ejection_at_destination() {
        let cfg = test_cfg();
        let mesh = Mesh::new(4, 4);
        let coords = mesh.coord_table();
        let node = mesh.node_at(2, 2);
        let mut r = Router::new(&cfg, &mesh, node);
        r.accept_flit(
            &cfg,
            &coords,
            Dir::North,
            flit(node, FlitKind::HeadTail, TrafficClass::Communication, 1),
            0,
        );
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        let deps = r.switch_allocate(&cfg, 10, &Router::NO_DOWN_PORTS);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].out_port, Dir::Local);
        assert_eq!(deps[0].flit.hops(), 0, "ejection is not a hop");
    }

    #[test]
    fn pipeline_depth_gates_switch_allocation() {
        let cfg = test_cfg().with_pipeline_stages(4); // 3 router cycles buffered
        let mesh = Mesh::new(4, 4);
        let coords = mesh.coord_table();
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        r.accept_flit(
            &cfg,
            &coords,
            Dir::West,
            flit(mesh.node_at(3, 1), FlitKind::HeadTail, TrafficClass::Communication, 0),
            10,
        );
        r.vc_allocate(&cfg, 10, &mut TracerHandle::Nop);
        assert!(r.switch_allocate(&cfg, 10, &Router::NO_DOWN_PORTS).is_empty(), "too early at t");
        assert!(r.switch_allocate(&cfg, 11, &Router::NO_DOWN_PORTS).is_empty(), "too early at t+1");
        assert!(r.switch_allocate(&cfg, 12, &Router::NO_DOWN_PORTS).is_empty(), "too early at t+2");
        assert_eq!(
            r.switch_allocate(&cfg, 13, &Router::NO_DOWN_PORTS).len(),
            1,
            "ready at t + (stages-1)"
        );
    }

    #[test]
    fn credits_block_traversal() {
        let cfg = test_cfg().with_buffers_per_vc(1);
        let mesh = Mesh::new(4, 4);
        let coords = mesh.coord_table();
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let dst = mesh.node_at(3, 1);
        // Two single-flit packets from different VCs toward the same output.
        r.accept_flit(&cfg, &coords, Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 0), 0);
        r.accept_flit(&cfg, &coords, Dir::North, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 0), 0);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        // First wins the only free VC/credit pair on vc0; second got vc1.
        let d1 = r.switch_allocate(&cfg, 5, &Router::NO_DOWN_PORTS);
        assert_eq!(d1.len(), 1, "both VCs have a credit, but one output port grant per cycle");
        let d2 = r.switch_allocate(&cfg, 6, &Router::NO_DOWN_PORTS);
        assert_eq!(d2.len(), 1);
        assert_ne!(d1[0].flit.vc(), d2[0].flit.vc(), "packets allocated distinct output VCs");
        // Credits now exhausted on both VCs.
        r.accept_flit(&cfg, &coords, Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 1), 6);
        r.vc_allocate(&cfg, 6, &mut TracerHandle::Nop);
        assert!(
            r.switch_allocate(&cfg, 8, &Router::NO_DOWN_PORTS).is_empty(),
            "no credits and no free VCs: nothing may traverse"
        );
        // Returning a credit + freeing the VC unblocks it.
        r.return_credit(Dir::East, 0, 1);
        r.free_output_vc(Dir::East, 0);
        r.vc_allocate(&cfg, 8, &mut TracerHandle::Nop);
        assert_eq!(r.switch_allocate(&cfg, 9, &Router::NO_DOWN_PORTS).len(), 1);
    }

    #[test]
    fn priority_arbitration_prefers_communication() {
        let cfg = test_cfg().with_priority_arbitration(true);
        let mesh = Mesh::new(4, 4);
        let coords = mesh.coord_table();
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let dst = mesh.node_at(3, 1);
        // Snack flit arrives first and would win round-robin.
        r.accept_flit(&cfg, &coords, Dir::North, flit(dst, FlitKind::HeadTail, TrafficClass::SnackInstruction, 0), 0);
        r.accept_flit(&cfg, &coords, Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 1), 0);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        let deps = r.switch_allocate(&cfg, 10, &Router::NO_DOWN_PORTS);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].flit.class(), TrafficClass::Communication);
        let deps = r.switch_allocate(&cfg, 11, &Router::NO_DOWN_PORTS);
        assert_eq!(deps[0].flit.class(), TrafficClass::SnackInstruction);
    }

    #[test]
    fn down_mask_stalls_the_port_without_losing_flits() {
        let cfg = test_cfg();
        let mesh = Mesh::new(4, 4);
        let coords = mesh.coord_table();
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let f = flit(mesh.node_at(3, 1), FlitKind::HeadTail, TrafficClass::Communication, 0);
        r.accept_flit(&cfg, &coords, Dir::West, f, 0);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        let mut down = Router::NO_DOWN_PORTS;
        down[Dir::East.index()] = true;
        assert!(r.switch_allocate(&cfg, 10, &down).is_empty(), "east link is down");
        assert_eq!(r.buffered_flits(), 1, "the flit waits in its buffer");
        assert_eq!(r.routed_waiting_vcs(), 0, "it already holds an output VC");
        assert_eq!(r.oldest_buffered_queued_at(), Some(0));
        // The window closes: traversal resumes exactly where it stalled.
        let deps = r.switch_allocate(&cfg, 11, &Router::NO_DOWN_PORTS);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].out_port, Dir::East);
        assert_eq!(r.buffered_flits(), 0);
        assert_eq!(r.oldest_buffered_queued_at(), None);
    }

    #[test]
    fn useful_free_vcs_counts_interior_router() {
        let cfg = test_cfg();
        let mesh = Mesh::new(4, 4);
        let r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let (free, total) = r.useful_free_output_vcs();
        assert_eq!(total, 4 * cfg.vcs_per_port());
        assert_eq!(free, total);
        let corner = Router::new(&cfg, &mesh, mesh.node_at(0, 0));
        let (_, corner_total) = corner.useful_free_output_vcs();
        assert_eq!(corner_total, 2 * cfg.vcs_per_port());
    }

    #[test]
    fn useful_free_counter_tracks_alloc_credit_and_free_transitions() {
        // Drive a VC through allocate -> credit exhaustion -> credit
        // return -> free and check the popcount probe against the recount
        // at every step (the accessor debug_asserts the match).
        let cfg = test_cfg().with_buffers_per_vc(1);
        let mesh = Mesh::new(4, 4);
        let coords = mesh.coord_table();
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let dst = mesh.node_at(3, 1);
        let (free0, total) = r.useful_free_output_vcs();
        assert_eq!(free0, total);
        r.accept_flit(&cfg, &coords, Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 0), 0);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        let (after_alloc, _) = r.useful_free_output_vcs();
        assert_eq!(after_alloc, free0 - 1, "the granted VC leaves the useful pool");
        // Traversal spends the VC's only credit; it stays allocated, so the
        // probe is unchanged.
        assert_eq!(r.switch_allocate(&cfg, 5, &Router::NO_DOWN_PORTS).len(), 1);
        assert_eq!(r.useful_free_output_vcs().0, after_alloc);
        // Credit returns while still allocated: not yet useful.
        r.return_credit(Dir::East, 0, 1);
        assert_eq!(r.useful_free_output_vcs().0, after_alloc);
        // The tail drains downstream: the VC is free + credited again.
        r.free_output_vc(Dir::East, 0);
        assert_eq!(r.useful_free_output_vcs().0, free0);
        // Freeing a starved VC first, then crediting it, also re-arms it.
        r.accept_flit(&cfg, &coords, Dir::West, flit(dst, FlitKind::HeadTail, TrafficClass::Communication, 0), 6);
        r.vc_allocate(&cfg, 6, &mut TracerHandle::Nop);
        assert_eq!(r.switch_allocate(&cfg, 12, &Router::NO_DOWN_PORTS).len(), 1);
        r.free_output_vc(Dir::East, 0); // freed while credits == 0
        assert_eq!(r.useful_free_output_vcs().0, free0 - 1);
        r.return_credit(Dir::East, 0, 1); // credit arrives after the free
        assert_eq!(r.useful_free_output_vcs().0, free0);
    }

    #[test]
    fn wormhole_keeps_packet_on_one_output_vc() {
        let cfg = test_cfg();
        let mesh = Mesh::new(4, 4);
        let coords = mesh.coord_table();
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(0, 0));
        let dst = mesh.node_at(3, 0);
        r.accept_flit(&cfg, &coords, Dir::Local, flit(dst, FlitKind::Head, TrafficClass::Communication, 0), 0);
        r.accept_flit(&cfg, &coords, Dir::Local, flit(dst, FlitKind::Body, TrafficClass::Communication, 0), 0);
        r.accept_flit(&cfg, &coords, Dir::Local, flit(dst, FlitKind::Tail, TrafficClass::Communication, 0), 0);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        let mut out_vcs = Vec::new();
        for t in 5..8 {
            let deps = r.switch_allocate(&cfg, t, &Router::NO_DOWN_PORTS);
            assert_eq!(deps.len(), 1);
            out_vcs.push(deps[0].flit.vc());
        }
        assert!(out_vcs.windows(2).all(|w| w[0] == w[1]), "all flits share the output VC");
        assert_eq!(r.buffered_flits(), 0);
    }

    #[test]
    #[should_panic(expected = "input buffer overflow")]
    fn overfilling_a_vc_panics_instead_of_overwriting() {
        let cfg = test_cfg().with_buffers_per_vc(2);
        let mesh = Mesh::new(4, 4);
        let coords = mesh.coord_table();
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let dst = mesh.node_at(3, 1);
        for kind in [FlitKind::Head, FlitKind::Body, FlitKind::Body] {
            r.accept_flit(&cfg, &coords, Dir::West, flit(dst, kind, TrafficClass::Communication, 0), 0);
        }
    }

    #[test]
    fn ring_wraps_in_fifo_order() {
        // A 2-deep VC streams a 5-flit packet: the ring cursor wraps
        // twice and the flits still leave in arrival order.
        let cfg = test_cfg().with_buffers_per_vc(2);
        let mesh = Mesh::new(4, 4);
        let coords = mesh.coord_table();
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let dst = mesh.node_at(1, 1);
        let kinds = [FlitKind::Head, FlitKind::Body, FlitKind::Body, FlitKind::Body, FlitKind::Tail];
        let mut sent = 0;
        let mut left = Vec::new();
        for t in 0..20u64 {
            while sent < kinds.len() && r.local_vc_accepts(0, false) {
                let mut f = flit(dst, kinds[sent], TrafficClass::Communication, 0);
                f.id = sent as u64;
                r.accept_flit(&cfg, &coords, Dir::Local, f, t);
                sent += 1;
            }
            r.vc_allocate(&cfg, t, &mut TracerHandle::Nop);
            left.extend(r.switch_allocate(&cfg, t + 1, &Router::NO_DOWN_PORTS).iter().map(|d| d.flit.id));
        }
        assert_eq!(left, [0, 1, 2, 3, 4]);
        assert_eq!(r.buffered_flits(), 0);
        assert_eq!(r.oldest_buffered_queued_at(), None);
    }

    #[test]
    fn round_robin_helpers_wrap_without_division() {
        assert_eq!(wrap_next(0, 5), 1);
        assert_eq!(wrap_next(4, 5), 0);
        assert_eq!(wrap_next(0, 1), 0);
        assert_eq!(first_from(0b10010, 0), 1);
        assert_eq!(first_from(0b10010, 2), 4);
        assert_eq!(first_from(0b00010, 2), 1, "wraps past the top");
        assert_eq!(first_from(0b10000, 4), 4);
    }

    #[test]
    fn hop_counter_saturates_instead_of_wrapping() {
        let cfg = test_cfg();
        let mesh = Mesh::new(4, 4);
        let coords = mesh.coord_table();
        let mut r = Router::new(&cfg, &mesh, mesh.node_at(1, 1));
        let mut f = flit(mesh.node_at(3, 1), FlitKind::HeadTail, TrafficClass::Communication, 0);
        f.hops = u32::MAX;
        r.accept_flit(&cfg, &coords, Dir::West, f, 0);
        r.vc_allocate(&cfg, 0, &mut TracerHandle::Nop);
        let deps = r.switch_allocate(&cfg, 10, &Router::NO_DOWN_PORTS);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].flit.hops(), u32::MAX, "saturated, not wrapped");
        assert_eq!(r.hops_saturations(), 1, "the saturation is counted");
    }
}
