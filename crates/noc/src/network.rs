//! The whole-network simulator: routers, links, network interfaces,
//! packet segmentation/reassembly and the per-cycle evaluation loop.

use crate::config::{ConfigError, NocConfig};
use crate::fault::{FaultAction, FaultCounters, FaultPlan, FaultPlanError, FaultState};
use crate::flit::{Flit, FlitKind};
use crate::packet::{Packet, PacketId, PacketSpec};
use crate::pool::{PayloadPool, PayloadRef};
use crate::router::{wrap_next, Departure, Router};
use crate::routing::Dir;
use crate::stats::NetStats;
use crate::timewheel::TimeWheel;
use crate::topology::{Mesh, NodeId};
use snacknoc_trace::{EventKind, TracerHandle};
use std::collections::VecDeque;
use std::fmt;

/// A one-cycle-latency directed link between two routers.
#[derive(Clone, Debug)]
struct Link {
    to_router: usize,
    in_port: Dir,
    slot: Option<Flit>,
}

/// A credit / VC-free signal in flight back to an upstream router.
#[derive(Clone, Copy, Debug)]
struct CreditMsg {
    router: usize,
    port: Dir,
    vc: u8,
    frees_vc: bool,
}

/// Per-node network interface: per-vnet injection FIFOs.
#[derive(Clone, Debug)]
struct NetIf {
    /// Per-vnet queues of pre-segmented flits.
    queues: Vec<VecDeque<Flit>>,
    /// Per-vnet: the Local input VC currently receiving a packet's flits.
    streaming: Vec<Option<u8>>,
    /// Round-robin pointer over vnets.
    rr: usize,
}

/// Reassembly state for one in-flight packet at its destination NI.
#[derive(Clone, Copy, Debug)]
struct Partial {
    head: Option<Flit>,
    flits: u64,
    corrupted: bool,
}

impl Partial {
    const EMPTY: Partial = Partial { head: None, flits: 0, corrupted: false };
}

/// Marks an input VC with no packet in reassembly.
const NO_PARTIAL: u32 = u32::MAX;

/// Marks a port with no neighbour in the upstream table.
const NO_ROUTER: u32 = u32::MAX;

/// A fixed-capacity set of small indices, one bit each in `u64` words.
/// The network's worklists: walked word by word in ascending index
/// order, which is the dense loop's visit order, so no per-cycle sort.
#[derive(Clone, Debug)]
struct IndexSet {
    words: Box<[u64]>,
}

impl IndexSet {
    fn new(capacity: usize) -> Self {
        IndexSet { words: vec![0; capacity.div_ceil(64)].into_boxed_slice() }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The members in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| bits(word).map(move |b| w * 64 + b))
    }
}

/// The set bits of `word`, ascending.
#[inline]
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// A structured snapshot of why a network failed to drain: which routers
/// still hold flits, how many packets are starved for output VCs, and how
/// stale the oldest in-flight flit is. Returned by
/// [`Network::run_until_drained`] and available any time through
/// [`Network::stall_report`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StallReport {
    /// Cycle at which the report was taken.
    pub cycle: u64,
    /// Packets injected but neither delivered nor lost.
    pub pending_packets: u64,
    /// Packets destroyed by fault injection (never going to arrive).
    pub lost_packets: u64,
    /// Flits resident in router input buffers.
    pub buffered_flits: u64,
    /// Routers still holding at least one buffered flit.
    pub blocked_routers: Vec<usize>,
    /// Input VCs holding a routed packet with no output VC granted.
    pub starved_vcs: usize,
    /// Age (cycles since source queueing) of the oldest buffered or
    /// NI-queued flit; 0 when nothing is in flight.
    pub oldest_packet_age: u64,
    /// Flits still waiting in source NI injection queues.
    pub ni_backlog: u64,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stall at cycle {}: {} pending packets ({} lost to faults), \
             {} buffered flits across {} blocked routers, {} starved VCs, \
             {} flits backlogged at NIs, oldest in-flight flit {} cycles old",
            self.cycle,
            self.pending_packets,
            self.lost_packets,
            self.buffered_flits,
            self.blocked_routers.len(),
            self.starved_vcs,
            self.ni_backlog,
            self.oldest_packet_age,
        )
    }
}

/// A cycle-level mesh NoC. `P` is the packet payload type.
///
/// See the [crate-level documentation](crate) for the model and an example.
#[derive(Debug)]
pub struct Network<P> {
    cfg: NocConfig,
    mesh: Mesh,
    routers: Vec<Router>,
    nis: Vec<NetIf>,
    links: Vec<Link>,
    /// Slab storage for in-flight packet payloads; head flits carry only
    /// a [`PayloadRef`] (DESIGN.md §14). Inserts happen at injection,
    /// takes/releases at ejection and fault drops — all serial contexts,
    /// so slot assignment is identical across every stepping mode.
    pool: PayloadPool<P>,
    /// `link_of[router][dir]` = outgoing link id.
    link_of: Vec<[Option<usize>; 4]>,
    /// `upstream[router][port]` = the neighbour feeding input `port`
    /// (`NO_ROUTER` at mesh edges): where credits for that port go.
    upstream: Box<[[u32; 4]]>,
    /// Every node's `(x, y)`, for route computation at head arrival.
    coords: Box<[(u16, u16)]>,
    pending_credits: Vec<CreditMsg>,
    /// Slab index of the packet in reassembly per destination input VC,
    /// at `(router * Dir::COUNT + in_port) * vcs + in_vc`, or
    /// `NO_PARTIAL`. Atomic VC reuse gives an input VC to one packet from
    /// head to tail, so the VC names the packet (DESIGN.md §14).
    reassembly: Box<[u32]>,
    /// Reassembly slab; `free_partials` lists its vacant entries.
    partials: Vec<Partial>,
    free_partials: Vec<u32>,
    ejected: Vec<Vec<Packet<P>>>,
    /// The router worklist. Between cycles it holds exactly the routers
    /// that can make progress next cycle (buffered flits survived Phase 4,
    /// plus wakeups from credit return, link delivery and NI injection).
    work: IndexSet,
    /// Links whose slot is occupied, set when Phase 4 fills the slot and
    /// drained by the next Phase 2.
    occupied_links: IndexSet,
    /// NI worklist: nodes with a nonzero injection backlog.
    ni_active: IndexSet,
    /// Per-node incremental NI backlog (flits queued, all vnets).
    ni_backlogs: Vec<u64>,
    /// Network-wide incremental NI backlog.
    ni_backlog_total: u64,
    /// Phase-1 scratch: last cycle's credits are processed out of this
    /// buffer while Phases 2/4 push next cycle's into `pending_credits`
    /// (the two vectors ping-pong, so neither ever reallocates in steady
    /// state).
    credits_scratch: Vec<CreditMsg>,
    /// Phase-4 scratch for router departures.
    departures_scratch: Vec<Departure>,
    /// How the clock advances (DESIGN.md §11): the dense reference loop
    /// or activity-driven event stepping. Bit-identical either way.
    stepping: Stepping,
    /// Calendar queue of future wake cycles. Worklist-driven components
    /// wake "now" by construction; the wheel holds only timed events —
    /// currently the fault-plan window edges, scheduled once at
    /// [`Network::set_fault_plan`].
    wheel: TimeWheel<NetWake>,
    cycle: u64,
    next_packet_id: PacketId,
    next_flit_id: u64,
    buffered_total: u64,
    buffer_capacity: u64,
    injected_packets: u64,
    delivered_packets: u64,
    lost_packets: u64,
    /// Fault-injection state; `None` (the default) keeps every hot path
    /// byte-identical to a fault-free build.
    fault: Option<FaultState>,
    stats: NetStats,
    /// Structured event tracer; [`TracerHandle::Nop`] (the default) keeps
    /// every hook a single discriminant branch with no event construction.
    tracer: TracerHandle,
}

/// How a [`Network`] — and the platform built on it — advances the
/// clock. Both modes are bit-identical: every statistic, delivery cycle
/// and fault decision matches (`tests/determinism.rs` and
/// `tests/properties.rs` hold the proof). Safe to switch between cycles.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Stepping {
    /// The reference loop: every phase walks every router, link and NI
    /// (and, on the platform, every RCU) each cycle. Slow; kept as the
    /// oracle the event mode is checked against.
    Dense,
    /// Activity-driven stepping: each phase visits only the worklists of
    /// components that can make progress, and whenever the whole model
    /// is provably quiescent the run loops jump the clock to the next
    /// scheduled wake instead of iterating dead cycles.
    #[default]
    Event,
}

impl Stepping {
    /// Both modes, the dense oracle first.
    pub const ALL: [Stepping; 2] = [Stepping::Dense, Stepping::Event];
}

impl fmt::Display for Stepping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stepping::Dense => "dense",
            Stepping::Event => "event",
        })
    }
}

/// A timed wake event in the network's calendar queue.
///
/// Today the only timed events a *quiescent* network can experience are
/// fault-plan window edges; the enum leaves room for future sources
/// without changing the wheel's type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetWake {
    /// A fault-plan down/drop/corrupt window starts or ends.
    FaultEdge,
}

/// Error returned by [`Network::inject`] for malformed packet specs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum InjectError {
    /// The vnet index is out of range.
    BadVnet(u8),
    /// Source or destination node is out of range.
    BadNode,
    /// The payload pool hit its configured slot cap
    /// ([`Network::limit_payload_pool`]); the packet was not queued.
    PayloadPoolExhausted {
        /// The pool cap that was hit.
        capacity: usize,
    },
}

impl std::fmt::Display for InjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectError::BadVnet(v) => write!(f, "vnet {v} out of range"),
            InjectError::BadNode => write!(f, "source or destination node out of range"),
            InjectError::PayloadPoolExhausted { capacity } => {
                write!(f, "payload pool exhausted at {capacity} slots")
            }
        }
    }
}

impl std::error::Error for InjectError {}

impl<P> Network<P> {
    /// Builds a network from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(cfg: NocConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mesh = Mesh::new(cfg.cols, cfg.rows);
        let n = mesh.node_count();
        let routers: Vec<Router> =
            mesh.nodes().map(|node| Router::new(&cfg, &mesh, node)).collect();
        let mut links = Vec::new();
        let mut link_of = vec![[None; 4]; n];
        let mut upstream = vec![[NO_ROUTER; 4]; n];
        for node in mesh.nodes() {
            for d in Dir::ROUTER_DIRS {
                if let Some(nb) = mesh.neighbor(node, d) {
                    link_of[node.index()][d.index()] = Some(links.len());
                    upstream[node.index()][d.index()] = nb.index() as u32;
                    links.push(Link { to_router: nb.index(), in_port: d.opposite(), slot: None });
                }
            }
        }
        let nis = (0..n)
            .map(|_| NetIf {
                queues: (0..cfg.vnets).map(|_| VecDeque::new()).collect(),
                streaming: vec![None; cfg.vnets as usize],
                rr: 0,
            })
            .collect();
        let buffer_capacity = (n * Dir::COUNT * cfg.vcs_per_port()) as u64
            * u64::from(cfg.buffers_per_vc);
        let stats = NetStats::new(n, links.len(), cfg.sample_window);
        Ok(Network {
            coords: mesh.coord_table(),
            reassembly: vec![NO_PARTIAL; n * Dir::COUNT * cfg.vcs_per_port()].into_boxed_slice(),
            partials: Vec::new(),
            free_partials: Vec::new(),
            cfg,
            mesh,
            routers,
            nis,
            occupied_links: IndexSet::new(links.len()),
            links,
            pool: PayloadPool::new(),
            link_of,
            upstream: upstream.into_boxed_slice(),
            pending_credits: Vec::new(),
            ejected: (0..n).map(|_| Vec::new()).collect(),
            work: IndexSet::new(n),
            ni_active: IndexSet::new(n),
            ni_backlogs: vec![0; n],
            ni_backlog_total: 0,
            credits_scratch: Vec::new(),
            departures_scratch: Vec::new(),
            stepping: Stepping::default(),
            wheel: TimeWheel::new(),
            cycle: 0,
            next_packet_id: 0,
            next_flit_id: 0,
            buffered_total: 0,
            buffer_capacity,
            injected_packets: 0,
            delivered_packets: 0,
            lost_packets: 0,
            fault: None,
            stats,
            tracer: TracerHandle::Nop,
        })
    }

    /// Installs (or clears) a fault-injection plan.
    ///
    /// A disabled plan ([`FaultPlan::none`]) removes all fault state, so
    /// the per-cycle cost returns to exactly zero. Scheduled link faults
    /// are resolved against this network's link table up front.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError`] for invalid rates/windows or link
    /// faults that reference links absent from the mesh.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        if !plan.enabled() {
            plan.validate()?;
            self.fault = None;
            self.wheel.clear();
            return Ok(());
        }
        for d in &plan.dead_rcus {
            if d.node.index() >= self.mesh.node_count() {
                return Err(FaultPlanError::BadNode { node: d.node });
            }
        }
        let link_of = &self.link_of;
        let state =
            FaultState::compile(plan, |node, dir| link_of[node.index()][dir.index()])?;
        // Every window edge becomes a wake event: an event-mode jump stops
        // at each edge instead of silently crossing a window that opens
        // and closes inside the jumped interval.
        self.wheel.clear();
        for &edge in state.window_edges() {
            if edge > self.cycle {
                self.wheel.schedule(edge, NetWake::FaultEdge);
            }
        }
        self.fault = Some(state);
        Ok(())
    }

    /// The installed fault plan, if any faults are enabled.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| f.plan())
    }

    /// What the fault layer did so far (all zeros when disabled).
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault.as_ref().map(|f| f.counters).unwrap_or_default()
    }

    /// Packets destroyed by fault injection or protocol-error discard;
    /// they will never be delivered and are excluded from
    /// [`Network::pending_packets`].
    pub fn lost_packets(&self) -> u64 {
        self.lost_packets
    }

    /// The mesh topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// The current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Gathered statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Flushes the trailing partial sampling window (see
    /// [`NetStats::finalize`]) and returns the statistics. Runners call
    /// this once the workload completes so runs shorter than one sampling
    /// window still report utilization samples. Safe to call repeatedly
    /// and safe to keep stepping the network afterwards.
    pub fn finalize_stats(&mut self) -> &NetStats {
        let cycle = self.cycle;
        self.stats.finalize(cycle);
        &self.stats
    }

    /// Installs a tracer; pass [`TracerHandle::Nop`] to disable tracing.
    ///
    /// With the default `Nop` handle the simulation is bit-identical to a
    /// build without tracing hooks: events are never constructed and no
    /// heap traffic occurs. With a [`snacknoc_trace::RingTracer`] the
    /// simulated behavior is unchanged — only observations are recorded.
    pub fn set_tracer(&mut self, tracer: TracerHandle) {
        self.tracer = tracer;
    }

    /// The installed tracer handle.
    pub fn tracer(&self) -> &TracerHandle {
        &self.tracer
    }

    /// Mutable access for instrumentation layered above the network
    /// (the SnackNoC platform records RCU/CPM events through this).
    pub fn tracer_mut(&mut self) -> &mut TracerHandle {
        &mut self.tracer
    }

    /// Takes the tracer out (leaving `Nop`), e.g. to export a trace.
    pub fn take_tracer(&mut self) -> TracerHandle {
        std::mem::take(&mut self.tracer)
    }

    /// Number of packets with reassembly in flight at destination NIs
    /// (a head or body flit ejected, tail not yet seen).
    ///
    /// After a network has fully drained this must be zero; a nonzero
    /// value after [`Network::run_until_drained`] returns `Ok` would
    /// indicate a reassembly-map leak (an entry whose tail never ejects),
    /// which would otherwise grow silently.
    pub fn stuck_packets(&self) -> usize {
        self.partials.len() - self.free_partials.len()
    }

    /// Queues a packet for injection at its source NI.
    ///
    /// The packet is segmented into flits immediately; flits enter the
    /// network as the NI wins buffer space, at most
    /// [`NocConfig::ni_flits_per_cycle`] per cycle.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError::BadVnet`] or [`InjectError::BadNode`] if the
    /// vnet or either node is out of range, and
    /// [`InjectError::PayloadPoolExhausted`] if the payload pool is at the
    /// cap set by [`Network::limit_payload_pool`]. On error the network
    /// is unchanged.
    pub fn inject(&mut self, spec: PacketSpec<P>) -> Result<PacketId, InjectError> {
        if spec.vnet >= self.cfg.vnets {
            return Err(InjectError::BadVnet(spec.vnet));
        }
        let n = self.mesh.node_count();
        if spec.src.index() >= n || spec.dst.index() >= n {
            return Err(InjectError::BadNode);
        }
        // Pool the payload before touching any other state: a typed
        // exhaustion error must leave the network exactly as it was.
        let payload = match self.pool.insert(spec.payload) {
            Ok(r) => r,
            Err(e) => return Err(InjectError::PayloadPoolExhausted { capacity: e.capacity }),
        };
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        self.injected_packets += 1;
        let nf = self.cfg.flits_for(spec.size_bytes);
        self.tracer.record_with(self.cycle, || EventKind::PacketInject {
            packet: id,
            src: spec.src.index() as u32,
            dst: spec.dst.index() as u32,
            vnet: spec.vnet,
            class: spec.class.code(),
            flits: nf as u32,
        });
        let src = spec.src.index();
        if nf > 0 {
            self.ni_backlogs[src] += nf as u64;
            self.ni_backlog_total += nf as u64;
            self.ni_active.insert(src);
        }
        let queue = &mut self.nis[src].queues[spec.vnet as usize];
        for i in 0..nf {
            let kind = match (i, nf) {
                (0, 1) => FlitKind::HeadTail,
                (0, _) => FlitKind::Head,
                (i, nf) if i == nf - 1 => FlitKind::Tail,
                _ => FlitKind::Body,
            };
            queue.push_back(Flit::new(
                self.next_flit_id,
                id,
                kind,
                spec.class,
                spec.vnet,
                spec.src,
                spec.dst,
                self.cycle,
                if kind.is_head() { payload } else { PayloadRef::NONE },
                spec.protected,
            ));
            self.next_flit_id += 1;
        }
        Ok(id)
    }

    /// Takes all packets delivered to `node` since the last drain.
    pub fn drain_ejected(&mut self, node: NodeId) -> Vec<Packet<P>> {
        std::mem::take(&mut self.ejected[node.index()])
    }

    /// Moves all packets delivered to `node` into `out`, preserving the
    /// internal buffer's capacity — the allocation-free counterpart of
    /// [`Network::drain_ejected`] for steady-state delivery loops.
    pub fn drain_ejected_into(&mut self, node: NodeId, out: &mut Vec<Packet<P>>) {
        out.append(&mut self.ejected[node.index()]);
    }

    /// Whether any node currently has undrained delivered packets.
    pub fn has_ejected(&self) -> bool {
        self.ejected.iter().any(|q| !q.is_empty())
    }

    /// Packets injected but not yet fully delivered, excluding packets
    /// known to be lost (dropped by faults or discarded on protocol
    /// errors) — those can never drain and are tracked by
    /// [`Network::lost_packets`] instead.
    pub fn pending_packets(&self) -> u64 {
        self.injected_packets - self.delivered_packets - self.lost_packets
    }

    /// Total packets injected so far.
    pub fn injected_packets(&self) -> u64 {
        self.injected_packets
    }

    /// Total packets fully delivered so far.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Flits waiting in the injection queue of `node` (all vnets).
    /// O(1): maintained incrementally at inject/transfer time.
    pub fn ni_backlog(&self, node: NodeId) -> usize {
        debug_assert_eq!(
            self.ni_backlogs[node.index()],
            self.nis[node.index()].queues.iter().map(|q| q.len() as u64).sum::<u64>(),
            "incremental NI backlog counter out of sync"
        );
        self.ni_backlogs[node.index()] as usize
    }

    /// Network-wide NI injection backlog in flits, all nodes and vnets.
    /// O(1): maintained incrementally.
    pub fn total_ni_backlog(&self) -> u64 {
        debug_assert_eq!(
            self.ni_backlog_total,
            self.ni_backlogs.iter().sum::<u64>(),
            "incremental NI backlog total out of sync"
        );
        self.ni_backlog_total
    }

    /// Selects how the clock advances (see [`Stepping`]). Dense stepping
    /// exists as the verification baseline and as the denominator of the
    /// `snack-perf` speedup report. Safe to switch between cycles: both
    /// modes keep the worklists consistent.
    pub fn set_stepping(&mut self, stepping: Stepping) {
        self.stepping = stepping;
    }

    /// The stepping mode in force.
    pub fn stepping(&self) -> Stepping {
        self.stepping
    }

    /// Whether a [`Network::step`] right now would be a provable no-op
    /// apart from stats bookkeeping: no credits in flight (Phase 1), no
    /// occupied links (Phase 2), no NI injection backlog (Phase 3) and no
    /// router with buffered flits (Phase 4). While this holds, nothing in
    /// the network can change until either an external injection or a
    /// scheduled wake event.
    pub fn is_quiescent(&self) -> bool {
        self.pending_credits.is_empty()
            && self.occupied_links.is_empty()
            && self.ni_active.is_empty()
            && self.work.is_empty()
    }

    /// The earliest scheduled wake cycle strictly after the current cycle
    /// (fault-plan window edges today), if any. Only meaningful while the
    /// network [is quiescent](Network::is_quiescent) — an active network
    /// wakes every cycle by definition.
    pub fn next_wake(&self) -> Option<u64> {
        self.wheel.next_after(self.cycle)
    }

    /// Jumps the clock directly to `cycle`, accounting for the skipped
    /// cycles as dead: bulk zero-occupancy samples, with sampling-window
    /// boundaries inside the jump split into their own series samples
    /// (see `NetStats::advance_idle`). The caller asserts that nothing
    /// can happen in between — the network must be quiescent and no wake
    /// event may be scheduled inside the open interval.
    ///
    /// # Panics
    ///
    /// Panics if the network is not quiescent or `cycle` is not ahead of
    /// the current cycle.
    pub fn advance_idle_to(&mut self, cycle: u64) {
        assert!(self.is_quiescent(), "clock jump while the network has work");
        assert!(cycle > self.cycle, "clock jump must move forward");
        debug_assert_eq!(self.buffered_total, 0, "quiescent network holds no flits");
        debug_assert_eq!(self.ni_backlog_total, 0, "quiescent network has no NI backlog");
        let delta = cycle - self.cycle;
        self.stats.advance_idle(self.cycle, delta, self.routers.len() as u64);
        self.cycle = cycle;
        self.wheel.discard_due(cycle);
    }

    /// Advances the clock to exactly `target`, stepping active cycles one
    /// at a time and — in event mode — jumping over provably-dead
    /// stretches (landing on every scheduled wake event in between). In
    /// dense mode this is plain per-cycle stepping to `target`.
    pub fn step_until(&mut self, target: u64) {
        while self.cycle < target {
            if self.stepping == Stepping::Event && self.is_quiescent() {
                let to = self.next_wake().map_or(target, |w| w.min(target));
                if to > self.cycle {
                    self.advance_idle_to(to);
                    continue;
                }
            }
            self.step();
        }
    }

    /// Flits currently resident in router input buffers, network-wide.
    pub fn buffered_flits(&self) -> u64 {
        self.buffered_total
    }

    /// ALO-style congestion signal at `node`: `(useful_free, total)` output
    /// VCs that are unallocated and hold at least one credit
    /// (paper §III-C2).
    pub fn useful_free_output_vcs(&self, node: NodeId) -> (usize, usize) {
        self.routers[node.index()].useful_free_output_vcs()
    }

    /// Marks router `r` as having work next Phase 4 (idempotent).
    #[inline]
    fn mark_router(&mut self, r: usize) {
        self.work.insert(r);
    }

    /// Debug invariant: `occupied_links` holds exactly the filled slots.
    fn links_list_consistent(&self) -> bool {
        let filled = self.links.iter().filter(|l| l.slot.is_some()).count();
        filled == self.occupied_links.len()
            && self.occupied_links.iter().all(|lid| self.links[lid].slot.is_some())
    }

    /// Advances the network by one cycle.
    ///
    /// The loop is **activity-driven**: each phase visits only the
    /// components that can make progress (worklists maintained by the
    /// previous phases), and **allocation-free in steady state** (every
    /// transient buffer is a reusable scratch). The dense reference loop
    /// ([`Stepping::Dense`]) walks every component instead; the two are
    /// bit-identical because a skipped component is provably quiescent —
    /// see DESIGN.md §11 for the invariants and the wakeup edges.
    pub fn step(&mut self) {
        self.cycle += 1;
        let cycle = self.cycle;
        let dense = self.stepping == Stepping::Dense;

        // Phase 1: apply credit / VC-free signals sent last cycle. The
        // pending list ping-pongs with a scratch buffer: this cycle's
        // batch is processed out of `credits_scratch` while Phases 2/4
        // push next cycle's messages into the (empty, capacity-warm)
        // `pending_credits`.
        debug_assert!(self.credits_scratch.is_empty());
        std::mem::swap(&mut self.pending_credits, &mut self.credits_scratch);
        for i in 0..self.credits_scratch.len() {
            let msg = self.credits_scratch[i];
            let r = &mut self.routers[msg.router];
            r.return_credit(msg.port, msg.vc, self.cfg.buffers_per_vc);
            if msg.frees_vc {
                r.free_output_vc(msg.port, msg.vc);
            }
            // Wakeup edge: credit return can unblock a waiting flit.
            self.mark_router(msg.router);
        }
        self.credits_scratch.clear();

        // Phase 2: link traversal — deliver flits sent last cycle. Only
        // occupied links can deliver; ascending id order replays the
        // dense loop's iteration order exactly (fault decisions are
        // hash-derived per (link, packet), so they are order-independent
        // anyway).
        debug_assert!(self.links_list_consistent());
        if dense {
            for lid in 0..self.links.len() {
                if self.links[lid].slot.is_some() {
                    self.deliver_link(lid, cycle);
                }
            }
            self.occupied_links.clear();
        } else {
            for w in 0..self.occupied_links.words.len() {
                let word = std::mem::take(&mut self.occupied_links.words[w]);
                for b in bits(word) {
                    self.deliver_link(w * 64 + b, cycle);
                }
            }
        }

        // Phase 3: NI injection — only nodes with a queued flit can
        // inject. A node with an empty queue is a provable no-op in the
        // dense loop (no state, not even the vnet round-robin pointer,
        // changes), so skipping it is exact.
        if dense {
            for node in 0..self.nis.len() {
                if self.inject_from_ni(node, cycle) {
                    self.ni_active.insert(node);
                } else {
                    self.ni_active.remove(node);
                }
            }
        } else {
            for w in 0..self.ni_active.words.len() {
                for b in bits(self.ni_active.words[w]) {
                    let node = w * 64 + b;
                    if !self.inject_from_ni(node, cycle) {
                        self.ni_active.remove(node);
                    }
                }
            }
        }

        // Phase 4: router pipelines (RC, VA, SA/ST) + ejection, for the
        // worklist only. Both modes visit exactly the routers in `work`,
        // in ascending order, and leave it holding the survivors (routers
        // still buffering flits) for Phase 5. No same-phase wakeups
        // exist: credits are deferred to next Phase 1 and link fills to
        // next Phase 2, so each word can be walked from a snapshot.
        let use_down = self.fault.as_ref().is_some_and(|f| f.has_down_windows());
        if dense {
            for r in 0..self.routers.len() {
                if self.work.contains(r) && !self.run_router(r, cycle, use_down) {
                    self.work.remove(r);
                }
            }
        } else {
            for w in 0..self.work.words.len() {
                for b in bits(self.work.words[w]) {
                    let r = w * 64 + b;
                    if !self.run_router(r, cycle, use_down) {
                        self.work.remove(r);
                    }
                }
            }
        }

        // Phase 5: per-router input-buffer occupancy samples + window
        // roll. The paper's Fig. 3 measures buffer utilization per
        // router-cycle: localized contention shows up even when the
        // network as a whole is nearly empty. After Phase 4 the worklist
        // holds exactly the routers with buffered flits, so walking it in
        // ascending order records the same nonzero samples in the same
        // order as the dense scan, then credits the zeros in one batched
        // call — identical `OccupancyCdf` updates.
        let per_router_capacity = self.buffer_capacity as f64 / self.routers.len() as f64;
        if dense {
            let mut zeros = 0u64;
            for r in &self.routers {
                let buffered = r.buffered_flits();
                if buffered == 0 {
                    zeros += 1;
                } else {
                    self.stats.occupancy.record(buffered as f64 / per_router_capacity);
                }
            }
            self.stats.occupancy.record_zeros(zeros);
        } else {
            let zeros = (self.routers.len() - self.work.len()) as u64;
            debug_assert_eq!(
                zeros,
                self.routers.iter().filter(|r| r.buffered_flits() == 0).count() as u64,
                "post-Phase-4 worklist must equal the set of occupied routers"
            );
            for r in self.work.iter() {
                let buffered = self.routers[r].buffered_flits();
                debug_assert!(buffered > 0);
                self.stats.occupancy.record(buffered as f64 / per_router_capacity);
            }
            self.stats.occupancy.record_zeros(zeros);
        }
        self.stats.end_cycle(cycle);
    }

    /// Runs `cycles` steps (jumping dead stretches in event mode).
    pub fn run(&mut self, cycles: u64) {
        self.step_until(self.cycle + cycles);
    }

    /// Steps until every non-lost injected packet is delivered, up to
    /// `max_cycles`.
    ///
    /// # Errors
    ///
    /// Returns a [`StallReport`] describing the blocked state if packets
    /// remain undelivered when the cycle budget runs out.
    pub fn run_until_drained(&mut self, max_cycles: u64) -> Result<(), StallReport> {
        let deadline = self.cycle + max_cycles;
        while self.pending_packets() > 0 && self.cycle < deadline {
            self.step();
        }
        if self.pending_packets() == 0 {
            Ok(())
        } else {
            Err(self.stall_report())
        }
    }

    /// Snapshots why the network is (or would be) failing to drain:
    /// blocked routers, starved VCs and the age of the oldest in-flight
    /// flit. Cheap relative to simulation, but walks every buffer — call
    /// it on failure paths, not per cycle.
    pub fn stall_report(&self) -> StallReport {
        let mut blocked_routers = Vec::new();
        let mut starved_vcs = 0;
        let mut oldest: Option<u64> = None;
        for (i, r) in self.routers.iter().enumerate() {
            if r.buffered_flits() > 0 {
                blocked_routers.push(i);
            }
            starved_vcs += r.routed_waiting_vcs();
            if let Some(q) = r.oldest_buffered_queued_at() {
                oldest = Some(oldest.map_or(q, |o| o.min(q)));
            }
        }
        let ni_backlog = self.ni_backlog_total;
        debug_assert_eq!(
            ni_backlog,
            self.nis.iter().map(|ni| ni.queues.iter().map(std::collections::VecDeque::len).sum::<usize>() as u64).sum::<u64>(),
            "incremental NI backlog counter diverged from the queues"
        );
        for ni in &self.nis {
            for q in &ni.queues {
                if let Some(f) = q.front() {
                    oldest = Some(oldest.map_or(f.queued_at, |o| o.min(f.queued_at)));
                }
            }
        }
        StallReport {
            cycle: self.cycle,
            pending_packets: self.pending_packets(),
            lost_packets: self.lost_packets,
            buffered_flits: self.buffered_total,
            blocked_routers,
            starved_vcs,
            oldest_packet_age: oldest.map_or(0, |q| self.cycle.saturating_sub(q)),
            ni_backlog,
        }
    }

    /// Phase-2 link traversal for a single link, with the fault layer
    /// consulted per flit. Dropped flits synthesize their upstream credit
    /// so flow control stays live; corrupted head flits carry the mark to
    /// delivery. No-op if the link slot is empty, so calling it for every
    /// link (dense mode) or only occupied links (event mode) is identical.
    fn deliver_link(&mut self, lid: usize, cycle: u64) {
        let Some(mut flit) = self.links[lid].slot.take() else { return };
        let action = match self.fault.as_mut() {
            Some(f) => f.on_link_flit(lid, cycle, &flit),
            None => FaultAction::Deliver,
        };
        let to = self.links[lid].to_router;
        let in_port = self.links[lid].in_port;
        match action {
            FaultAction::Drop => {
                // The downstream buffer slot reserved for this flit is
                // never filled: return the credit (and the VC on a
                // tail) so the upstream router does not wedge.
                let upstream = self.upstream[to][in_port.index()];
                debug_assert_ne!(upstream, NO_ROUTER, "every link has an upstream router");
                self.pending_credits.push(CreditMsg {
                    router: upstream as usize,
                    port: in_port.opposite(),
                    vc: flit.vc(),
                    frees_vc: flit.kind().is_tail(),
                });
                if flit.kind().is_head() {
                    // The payload dies with its head flit.
                    self.pool.release(flit.payload);
                }
                if flit.kind().is_tail() {
                    self.lost_packets += 1;
                    // The drop verdict is taken at the head and memoised
                    // per (link, packet), so a dropped packet loses every
                    // flit at this one link and none of it can have
                    // reached its destination's reassembly.
                    debug_assert!(
                        !self.reassembly.iter().filter(|&&i| i != NO_PARTIAL).any(|&i| {
                            self.partials[i as usize]
                                .head
                                .is_some_and(|h| h.packet_id == flit.packet_id)
                        }),
                        "a dropped packet is partly reassembled"
                    );
                }
            }
            FaultAction::DeliverCorrupted | FaultAction::Deliver => {
                if action == FaultAction::DeliverCorrupted {
                    flit.mark_corrupted();
                }
                self.routers[to].accept_flit(&self.cfg, &self.coords, in_port, flit, cycle);
                self.mark_router(to);
                self.buffered_total += 1;
            }
        }
    }

    /// Phase-3 NI injection for a single node: drains up to
    /// `ni_flits_per_cycle` flits into the local router, maintaining the
    /// incremental backlog counters and waking the router. Returns whether
    /// the node still has backlogged flits (i.e. should stay on the NI
    /// worklist). A node with empty queues is a pure no-op in the dense
    /// loop — no state (including the round-robin pointer) changes — so
    /// skipping it in event mode is exact.
    fn inject_from_ni(&mut self, node: usize, cycle: u64) -> bool {
        let vnets = self.cfg.vnets as usize;
        let k = self.cfg.vcs_per_vnet as usize;
        for _ in 0..self.cfg.ni_flits_per_cycle {
            let mut pushed = false;
            let rr = self.nis[node].rr;
            for step in 0..vnets {
                let v = if rr + step >= vnets { rr + step - vnets } else { rr + step };
                let ni = &mut self.nis[node];
                let Some(front) = ni.queues[v].front() else { continue };
                let router = &self.routers[node];
                let vc = match ni.streaming[v] {
                    Some(vc) => {
                        debug_assert!(!front.kind().is_head());
                        if router.local_vc_accepts(vc as usize, false) {
                            Some(vc)
                        } else {
                            None
                        }
                    }
                    None => {
                        debug_assert!(front.kind().is_head());
                        (v * k..(v + 1) * k)
                            .find(|&vc| router.local_vc_accepts(vc, true))
                            .map(|vc| vc as u8)
                    }
                };
                let Some(vc) = vc else { continue };
                let ni = &mut self.nis[node];
                let mut flit = ni.queues[v].pop_front().expect("front checked above");
                flit.set_vc(vc);
                ni.streaming[v] = if flit.kind().is_tail() { None } else { Some(vc) };
                self.routers[node].accept_flit(&self.cfg, &self.coords, Dir::Local, flit, cycle);
                self.buffered_total += 1;
                self.ni_backlogs[node] -= 1;
                self.ni_backlog_total -= 1;
                self.stats.injected_flits += 1;
                self.mark_router(node);
                self.nis[node].rr = wrap_next(v, vnets);
                pushed = true;
                break;
            }
            if !pushed {
                break;
            }
        }
        self.ni_backlogs[node] > 0
    }

    /// Phase-4 router pipeline for a single router: RC → VA → SA/ST,
    /// then departures are committed to links / ejection with credits
    /// returned upstream. Uses the per-network departure scratch buffer so
    /// steady-state cycles allocate nothing. Returns whether the router
    /// still buffers flits (i.e. must stay on the worklist).
    fn run_router(&mut self, r: usize, cycle: u64, use_down: bool) -> bool {
        let mut down = Router::NO_DOWN_PORTS;
        if use_down {
            if let Some(f) = &self.fault {
                for d in Dir::ROUTER_DIRS {
                    if let Some(lid) = self.link_of[r][d.index()] {
                        down[d.index()] = f.link_down(lid, cycle);
                    }
                }
            }
        }
        let mut departures = std::mem::take(&mut self.departures_scratch);
        debug_assert!(departures.is_empty());
        {
            // Route computation happened eagerly at head acceptance
            // (`Router::accept_flit`); the per-cycle pipeline starts at VA.
            let router = &mut self.routers[r];
            router.vc_allocate(&self.cfg, cycle, &mut self.tracer);
            router.switch_allocate_into(&self.cfg, cycle, &down, &mut departures);
        }
        if !departures.is_empty() {
            self.stats.record_router_cycle(r, true);
            self.stats.crossbar_transfers += departures.len() as u64;
        }
        for dep in departures.drain(..) {
            self.buffered_total -= 1;
            if dep.in_port != Dir::Local {
                let upstream = self.upstream[r][dep.in_port.index()];
                debug_assert_ne!(upstream, NO_ROUTER, "flit arrived from a connected port");
                self.pending_credits.push(CreditMsg {
                    router: upstream as usize,
                    port: dep.in_port.opposite(),
                    vc: dep.in_vc,
                    frees_vc: dep.was_tail,
                });
            }
            if dep.out_port == Dir::Local {
                self.eject(r, dep.in_port, dep.in_vc, dep.flit, cycle);
            } else {
                let lid = self.link_of[r][dep.out_port.index()]
                    .expect("departure through a connected port");
                debug_assert!(self.links[lid].slot.is_none(), "link carries one flit per cycle");
                self.tracer.record_with(cycle, || EventKind::FlitHop {
                    router: r as u32,
                    out_port: dep.out_port.index() as u8,
                    flit: dep.flit.id,
                    packet: dep.flit.packet_id,
                });
                self.tracer.count_link(cycle, r as u32, dep.out_port.index() as u8);
                self.links[lid].slot = Some(dep.flit);
                self.occupied_links.insert(lid);
                self.stats.record_link_cycle(lid, true);
            }
        }
        self.departures_scratch = departures;
        self.routers[r].buffered_flits() > 0
    }

    /// Ejection and reassembly of one flit leaving router `node` through
    /// its Local output from input VC `(in_port, in_vc)`. That VC carries
    /// one packet from head to tail, so it keys the packet's slab entry;
    /// a single-flit packet never touches the slab.
    fn eject(&mut self, node: usize, in_port: Dir, in_vc: u8, flit: Flit, cycle: u64) {
        let key = (node * Dir::COUNT + in_port.index()) * self.cfg.vcs_per_port() + in_vc as usize;
        let slot = self.reassembly[key];
        let mut partial =
            if slot == NO_PARTIAL { Partial::EMPTY } else { self.partials[slot as usize] };
        partial.flits += 1;
        partial.corrupted |= flit.corrupted();
        if flit.kind().is_head() {
            match &partial.head {
                Some(kept) => {
                    // Wormhole routing cannot legally deliver two heads
                    // for one packet; count the protocol violation and
                    // keep the first head rather than abort. A true
                    // duplicate shares the kept head's ref (one pool
                    // insert per packet); free only a genuinely distinct
                    // orphaned slot.
                    self.stats.protocol_errors.duplicate_head += 1;
                    if kept.payload != flit.payload {
                        self.pool.release(flit.payload);
                    }
                }
                None => partial.head = Some(flit),
            }
        }
        if !flit.kind().is_tail() {
            if slot != NO_PARTIAL {
                self.partials[slot as usize] = partial;
            } else if let Some(free) = self.free_partials.pop() {
                self.partials[free as usize] = partial;
                self.reassembly[key] = free;
            } else {
                self.reassembly[key] = self.partials.len() as u32;
                self.partials.push(partial);
            }
            return;
        }
        if slot != NO_PARTIAL {
            self.free_partials.push(slot);
            self.reassembly[key] = NO_PARTIAL;
        }
        // Wormhole routing ejects a packet's flits in order, so the head
        // is present by the time the tail arrives — unless a protocol
        // fault lost it, which is counted rather than fatal.
        let Some(head) = partial.head else {
            self.stats.protocol_errors.tail_without_head += 1;
            self.lost_packets += 1;
            return;
        };
        let Some(payload) = self.pool.take(head.payload) else {
            self.stats.protocol_errors.missing_payload += 1;
            self.lost_packets += 1;
            return;
        };
        let packet = Packet {
            id: head.packet_id,
            src: head.src(),
            dst: head.dst(),
            vnet: head.vnet(),
            class: head.class(),
            queued_at: head.queued_at,
            delivered_at: cycle,
            hops: head.hops(),
            corrupted: partial.corrupted || head.corrupted(),
            payload,
        };
        self.tracer.record_with(cycle, || EventKind::PacketEject {
            packet: packet.id,
            node: node as u32,
            latency: packet.latency(),
            hops: packet.hops,
            flits: partial.flits,
            class: packet.class.code(),
        });
        self.stats.record_delivery(packet.class, partial.flits, packet.latency());
        self.delivered_packets += 1;
        self.ejected[node].push(packet);
    }

    /// Payloads currently pooled — equals the number of injected packets
    /// whose payload has not yet been delivered or destroyed. Zero after
    /// a full drain; a nonzero value then would be a pool leak.
    pub fn payload_pool_live(&self) -> usize {
        self.pool.live()
    }

    /// Maximum simultaneous in-flight payloads ever observed.
    pub fn payload_pool_high_water(&self) -> usize {
        self.pool.high_water()
    }

    /// Times the payload slab grew on demand. Constant across a stretch
    /// of stepping means the loaded steady state performs no payload
    /// allocations (see `tests/alloc.rs`).
    pub fn payload_pool_growth_events(&self) -> u64 {
        self.pool.growth_events()
    }

    /// Pre-grows the payload slab to `capacity` slots without counting
    /// growth events — warmup for allocation-free steady states.
    pub fn preallocate_payloads(&mut self, capacity: usize) {
        self.pool.preallocate(capacity);
    }

    /// Caps the payload pool at `max_slots`; [`Network::inject`] then
    /// fails with [`InjectError::PayloadPoolExhausted`] instead of
    /// growing past the cap.
    pub fn limit_payload_pool(&mut self, max_slots: usize) {
        self.pool.set_limit(max_slots);
    }

    /// Times any flit's hop counter saturated at `u32::MAX` instead of
    /// wrapping (network-wide; normally zero — a mesh path is far
    /// shorter, so a nonzero value flags a routing livelock).
    pub fn hops_saturations(&self) -> u64 {
        self.routers.iter().map(Router::hops_saturations).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::flit::TrafficClass;
    use crate::routing::hop_count;

    fn net(cfg: NocConfig) -> Network<u64> {
        Network::new(cfg).expect("valid config")
    }

    fn comm(src: NodeId, dst: NodeId, bytes: u32, tag: u64) -> PacketSpec<u64> {
        PacketSpec::new(src, dst, 0, TrafficClass::Communication, bytes, tag)
    }

    #[test]
    fn delivers_a_single_packet_with_correct_hops() {
        let mut n = net(NocConfig::binochs());
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 2);
        n.inject(comm(src, dst, 32, 7)).unwrap();
        assert!(n.run_until_drained(1_000).is_ok());
        let pkts = n.drain_ejected(dst);
        assert_eq!(pkts.len(), 1);
        let p = &pkts[0];
        assert_eq!(p.payload, 7);
        assert_eq!(p.hops as usize, hop_count(n.mesh(), src, dst));
        assert_eq!(p.src, src);
        assert!(p.latency() > 0);
    }

    #[test]
    fn per_hop_latency_scales_with_pipeline_depth() {
        // One single-flit packet across the full row; latency grows with
        // pipeline depth by (stages delta) × hops.
        let mut lat = Vec::new();
        for stages in [2u8, 3, 4] {
            let cfg = NocConfig::binochs().with_pipeline_stages(stages);
            let mut n = net(cfg);
            let src = n.mesh().node_at(0, 0);
            let dst = n.mesh().node_at(3, 0);
            n.inject(comm(src, dst, 32, 0)).unwrap();
            assert!(n.run_until_drained(1_000).is_ok());
            let p = n.drain_ejected(dst).remove(0);
            lat.push(p.latency());
        }
        // 3 network hops + ejection; each extra stage adds ~1 cycle per
        // router visited (4 routers on this path).
        assert!(lat[1] > lat[0] && lat[2] > lat[1], "latencies: {lat:?}");
        assert_eq!(lat[1] - lat[0], 4);
        assert_eq!(lat[2] - lat[1], 4);
    }

    #[test]
    fn multi_flit_packets_reassemble() {
        let cfg = NocConfig::dapper(); // 16 B channels
        let mut n = net(cfg);
        let src = n.mesh().node_at(0, 3);
        let dst = n.mesh().node_at(3, 0);
        n.inject(comm(src, dst, 64, 99)).unwrap(); // 4 flits
        assert!(n.run_until_drained(2_000).is_ok());
        let pkts = n.drain_ejected(dst);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].payload, 99);
        assert_eq!(n.stats().class(TrafficClass::Communication).flits, 4);
    }

    #[test]
    fn conservation_under_random_traffic() {
        use snacknoc_prng::Rng;
        let mut rng = Rng::new(42);
        let mut n = net(NocConfig::axnoc());
        let nodes = n.mesh().node_count();
        let mut sent = 0u64;
        for i in 0..400 {
            let src = NodeId::new(rng.range_usize(0..nodes));
            let dst = NodeId::new(rng.range_usize(0..nodes));
            let vnet = rng.range(0..3) as u8;
            let bytes = *rng.choose(&[16u32, 32, 64, 128]).unwrap();
            n.inject(PacketSpec::new(src, dst, vnet, TrafficClass::Communication, bytes, i))
                .unwrap();
            sent += 1;
            if i % 4 == 0 {
                n.step();
            }
        }
        assert!(n.run_until_drained(100_000).is_ok(), "network must drain");
        assert_eq!(n.delivered_packets(), sent);
        assert_eq!(n.stuck_packets(), 0, "no reassembly leaks after drain");
        let mut got = 0;
        for node in 0..nodes {
            got += n.drain_ejected(NodeId::new(node)).len();
        }
        assert_eq!(got as u64, sent, "every packet ejected exactly once");
    }

    #[test]
    fn self_addressed_packets_loop_back() {
        let mut n = net(NocConfig::binochs());
        let a = n.mesh().node_at(1, 1);
        n.inject(comm(a, a, 32, 5)).unwrap();
        assert!(n.run_until_drained(100).is_ok());
        let pkts = n.drain_ejected(a);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].hops, 0);
    }

    #[test]
    fn rejects_bad_specs() {
        let mut n = net(NocConfig::binochs());
        let a = n.mesh().node_at(0, 0);
        let bad = NodeId::new(999);
        assert_eq!(
            n.inject(PacketSpec::new(a, bad, 0, TrafficClass::Communication, 8, 0)),
            Err(InjectError::BadNode)
        );
        assert_eq!(
            n.inject(PacketSpec::new(a, a, 9, TrafficClass::Communication, 8, 0)),
            Err(InjectError::BadVnet(9))
        );
    }

    #[test]
    fn stats_accumulate_crossbar_and_link_usage() {
        let mut n = net(NocConfig::binochs().with_sample_window(100));
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 0);
        for i in 0..20 {
            n.inject(comm(src, dst, 32, i)).unwrap();
        }
        n.run(300);
        assert!(n.stats().crossbar_transfers > 0);
        assert!(n.stats().peak_crossbar_utilization() > 0.0);
        assert!(n.stats().peak_link_utilization() > 0.0);
        // One occupancy sample per router per cycle.
        assert_eq!(n.stats().occupancy.total_cycles(), 300 * 16);
    }

    #[test]
    fn vnets_isolate_head_of_line_blocking() {
        // Saturate vnet 0 towards a hotspot; a lone vnet-1 packet crossing
        // the same region must still get through quickly (separate VCs).
        let mut n = net(NocConfig::binochs());
        let hot = n.mesh().node_at(0, 0);
        for node in n.mesh().nodes().collect::<Vec<_>>() {
            for i in 0..30 {
                n.inject(comm(node, hot, 128, i)).unwrap();
            }
        }
        n.run(20); // let congestion build
        let src = n.mesh().node_at(3, 3);
        n.inject(PacketSpec::new(src, hot, 1, TrafficClass::Communication, 32, 9999))
            .unwrap();
        let injected_at = n.cycle();
        let mut arrival = None;
        for _ in 0..100_000 {
            n.step();
            for p in n.drain_ejected(hot) {
                if p.vnet == 1 {
                    arrival = Some(n.cycle());
                }
            }
            if arrival.is_some() {
                break;
            }
        }
        let lat = arrival.expect("vnet-1 packet delivered") - injected_at;
        // The vnet-0 backlog is hundreds of flits; the vnet-1 packet should
        // cross in a small multiple of its zero-load latency (it still
        // shares physical links, so allow generous slack).
        assert!(lat < 2_000, "vnet-1 latency {lat} under vnet-0 saturation");
        assert!(n.run_until_drained(200_000).is_ok());
    }

    #[test]
    fn yx_routing_delivers_everything_too() {
        use crate::routing::RoutingAlgorithm;
        let mut n = net(NocConfig::binochs().with_routing(RoutingAlgorithm::Yx));
        let nodes: Vec<_> = n.mesh().nodes().collect();
        for (i, &src) in nodes.iter().enumerate() {
            for (j, &dst) in nodes.iter().enumerate() {
                n.inject(comm(src, dst, 32, (i * 16 + j) as u64)).unwrap();
            }
        }
        assert!(n.run_until_drained(100_000).is_ok());
        let mut got = 0;
        for &node in &nodes {
            for p in n.drain_ejected(node) {
                assert_eq!(p.dst, node);
                assert_eq!(p.hops as usize, hop_count(n.mesh(), p.src, p.dst), "minimal route");
                got += 1;
            }
        }
        assert_eq!(got, 256);
    }

    #[test]
    fn latency_percentiles_are_monotone_under_load() {
        let mut n = net(NocConfig::dapper());
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 3);
        for i in 0..100 {
            n.inject(comm(src, dst, 64, i)).unwrap();
        }
        assert!(n.run_until_drained(100_000).is_ok());
        let c = n.stats().class(TrafficClass::Communication);
        assert_eq!(c.delivered, 100);
        let p50 = c.latency_percentile(50.0);
        let p99 = c.latency_percentile(99.0);
        assert!(p50 > 0 && p99 >= p50);
        assert!(c.latency_max as f64 >= c.mean_latency());
    }

    #[test]
    fn heavy_hotspot_traffic_eventually_drains() {
        // Everyone sends to one corner: worst-case contention.
        let mut n = net(NocConfig::binochs());
        let dst = n.mesh().node_at(0, 0);
        for node in n.mesh().nodes().collect::<Vec<_>>() {
            for i in 0..10 {
                n.inject(comm(node, dst, 64, i)).unwrap();
            }
        }
        assert!(n.run_until_drained(50_000).is_ok());
        assert_eq!(n.stuck_packets(), 0, "hotspot drain leaves no partial reassembly");
        assert_eq!(n.drain_ejected(dst).len(), 160);
    }

    #[test]
    fn stuck_packets_tracks_inflight_reassembly() {
        // A multi-flit packet is "stuck" between its head ejecting and its
        // tail ejecting; once drained the count must return to zero.
        let mut n = net(NocConfig::dapper()); // 16 B channels -> 8 flits
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 3);
        n.inject(comm(src, dst, 128, 1)).unwrap();
        let mut saw_partial = false;
        while n.pending_packets() > 0 && n.cycle() < 10_000 {
            n.step();
            if n.stuck_packets() > 0 {
                saw_partial = true;
            }
        }
        assert!(saw_partial, "reassembly must be observable mid-flight");
        assert_eq!(n.pending_packets(), 0);
        assert_eq!(n.stuck_packets(), 0, "tail ejection retires the entry");
    }

    #[test]
    fn short_run_reports_partial_window_stats_after_finalize() {
        // Regression: a run shorter than `sample_window` used to report
        // zero utilization samples (median silently 0.0).
        let mut n = net(NocConfig::binochs()); // default 10 K-cycle window
        // Traffic from every node so every router's crossbar moves flits.
        for (i, src) in n.mesh().nodes().collect::<Vec<_>>().into_iter().enumerate() {
            let (x, y) = n.mesh().coords(src);
            let dst = n.mesh().node_at(3 - x, 3 - y);
            n.inject(comm(src, dst, 64, i as u64)).unwrap();
        }
        assert!(n.run_until_drained(5_000).is_ok());
        assert!(n.cycle() < 10_000, "run stays under one sampling window");
        assert!(n.stats().crossbar_series(0).samples().is_empty(), "bug precondition");
        assert_eq!(n.stats().median_crossbar_utilization(), 0.0, "the silent zero");
        let stats = n.finalize_stats();
        for r in 0..stats.router_count() {
            assert_eq!(stats.crossbar_series(r).samples().len(), 1, "router {r}");
        }
        assert!(stats.median_crossbar_utilization() > 0.0, "partial window counted");
        assert!(stats.peak_crossbar_utilization() <= 1.0);
    }

    #[test]
    fn useful_free_vcs_drop_under_load() {
        let mut n = net(NocConfig::binochs());
        let probe = n.mesh().node_at(0, 0);
        let (free0, total) = n.useful_free_output_vcs(probe);
        assert_eq!(free0, total);
        // Saturate the corner.
        for node in n.mesh().nodes().collect::<Vec<_>>() {
            for i in 0..20 {
                n.inject(comm(node, probe, 128, i)).unwrap();
            }
        }
        n.run(50);
        let (free_loaded, _) = n.useful_free_output_vcs(probe);
        assert!(free_loaded <= free0);
        assert!(n.run_until_drained(100_000).is_ok());
    }

    #[test]
    fn ring_tracer_records_packet_lifecycle() {
        use snacknoc_trace::{ComponentClass, EventKind, TracerHandle};
        let mut n = net(NocConfig::binochs());
        n.set_tracer(TracerHandle::ring(4096));
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 2);
        n.inject(comm(src, dst, 32, 7)).unwrap();
        assert!(n.run_until_drained(1_000).is_ok());
        let expected_hops = hop_count(n.mesh(), src, dst) as u64;
        let tracer = n.take_tracer();
        let ring = tracer.as_ring().expect("ring tracer installed");
        let router_events = ring.events(ComponentClass::Router);
        let injects = router_events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PacketInject { .. }))
            .count();
        let vc_allocs = router_events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::VcAlloc { .. }))
            .count();
        let flit_hops = router_events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FlitHop { .. }))
            .count() as u64;
        let ejects: Vec<(u64, u32)> = router_events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::PacketEject { latency, hops, .. } => Some((latency, hops)),
                _ => None,
            })
            .collect();
        assert_eq!(injects, 1);
        assert_eq!(ejects.len(), 1);
        assert_eq!(u64::from(ejects[0].1), expected_hops, "eject carries the hop count");
        assert_eq!(flit_hops, expected_hops, "one flit_hop event per link traversal");
        // VA fires once per router visit plus the ejection grant.
        assert_eq!(vc_allocs as u64, expected_hops + 1);
        // The exact link-counter heatmap agrees with the event stream.
        let heat_total: u64 = ring.link_heatmap().iter().map(|(_, c)| *c).sum();
        assert_eq!(heat_total, expected_hops);
        assert_eq!(ring.dropped(ComponentClass::Router), 0);
    }

    #[test]
    fn nop_tracer_run_matches_untraced_run() {
        use snacknoc_trace::TracerHandle;
        let run = |set_nop: bool| {
            let mut n = net(NocConfig::axnoc());
            if set_nop {
                n.set_tracer(TracerHandle::Nop);
            }
            let nodes = n.mesh().node_count();
            use snacknoc_prng::Rng;
            let mut rng = Rng::new(11);
            for i in 0..200 {
                let src = NodeId::new(rng.range_usize(0..nodes));
                let dst = NodeId::new(rng.range_usize(0..nodes));
                n.inject(comm(src, dst, 64, i)).unwrap();
                if i % 3 == 0 {
                    n.step();
                }
            }
            n.run_until_drained(100_000).unwrap();
            (n.cycle(), n.delivered_packets(), n.stats().crossbar_transfers)
        };
        assert_eq!(run(false), run(true), "Nop tracer is observationally free");
    }

    // ---------------------------------------------------------------
    // Fault injection
    // ---------------------------------------------------------------

    use crate::fault::{FaultPlan, FaultTargets, LinkFaultKind};

    /// Targets communication traffic so the plain-payload tests above can
    /// keep using the default class.
    fn comm_targets() -> FaultTargets {
        FaultTargets { data: true, instructions: true, communication: true }
    }

    #[test]
    fn disabled_plan_changes_nothing() {
        let run = |plan: Option<FaultPlan>| {
            let mut n = net(NocConfig::dapper());
            if let Some(p) = plan {
                n.set_fault_plan(p).unwrap();
            }
            let nodes: Vec<_> = n.mesh().nodes().collect();
            for (i, &src) in nodes.iter().enumerate() {
                for (j, &dst) in nodes.iter().enumerate() {
                    n.inject(comm(src, dst, 64, (i * 16 + j) as u64)).unwrap();
                }
            }
            n.run_until_drained(200_000).unwrap();
            (n.cycle(), n.delivered_packets(), n.stats().crossbar_transfers)
        };
        assert_eq!(run(None), run(Some(FaultPlan::none())), "FaultPlan::none is zero-cost");
    }

    #[test]
    fn full_drop_window_loses_exactly_the_crossing_packets() {
        let mut n = net(NocConfig::binochs());
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 0);
        // Certain drop on the first east link, forever.
        n.set_fault_plan(
            FaultPlan::seeded(7)
                .with_targets(comm_targets())
                .with_link_fault(src, Dir::East, 0, u64::MAX, LinkFaultKind::Drop { rate: 1.0 }),
        )
        .unwrap();
        for i in 0..10 {
            n.inject(comm(src, dst, 64, i)).unwrap();
        }
        // Every packet must cross the dead link: all are lost, none hang.
        n.run_until_drained(100_000).unwrap();
        assert_eq!(n.lost_packets(), 10);
        assert_eq!(n.delivered_packets(), 0);
        assert_eq!(n.pending_packets(), 0, "lost packets do not count as pending");
        assert_eq!(n.buffered_flits(), 0, "credits were synthesized; nothing wedged");
        assert_eq!(n.stuck_packets(), 0);
        let c = n.fault_counters();
        assert_eq!(c.dropped_packets, 10);
        assert_eq!(c.injected, 10);
        assert!(c.dropped_flits >= 10);
        // Traffic not crossing the faulty link is untouched.
        let other = n.mesh().node_at(0, 2);
        n.inject(comm(other, n.mesh().node_at(3, 2), 64, 99)).unwrap();
        n.run_until_drained(10_000).unwrap();
        assert_eq!(n.delivered_packets(), 1);
    }

    #[test]
    fn drop_window_opening_mid_packet_loses_only_whole_packets() {
        use snacknoc_trace::{ComponentClass, EventKind, TracerHandle};
        // DAPPER's 16 B channels cut a 128 B packet into 8 flits.
        let run = |plan: Option<FaultPlan>| {
            let mut n = net(NocConfig::dapper());
            n.set_tracer(TracerHandle::ring(1 << 14));
            if let Some(p) = plan {
                n.set_fault_plan(p).unwrap();
            }
            let (src, dst) = (n.mesh().node_at(0, 0), n.mesh().node_at(3, 0));
            for i in 0..4 {
                n.inject(comm(src, dst, 128, i)).unwrap();
            }
            n.run_until_drained(10_000).unwrap();
            n
        };
        // When each packet's first and last flit leave node 0 eastward.
        let mut dry = run(None);
        let tracer = dry.take_tracer();
        let mut crossing: Vec<(u64, u64)> = vec![(u64::MAX, 0); 4];
        for e in tracer.as_ring().expect("ring tracer").events(ComponentClass::Router) {
            if let EventKind::FlitHop { router: 0, out_port: 0, packet, .. } = e.kind {
                let (first, last) = &mut crossing[packet as usize];
                *first = (*first).min(e.cycle);
                *last = (*last).max(e.cycle);
            }
        }
        // A flit placed on the link at cycle `c` crosses it at `c + 1`:
        // open the window after packet 1's head crossed, before its tail.
        let (first, last) = crossing[1];
        let start = first + 2;
        assert!(last + 1 >= start, "packet 1 is mid-link when the window opens");
        let src = dry.mesh().node_at(0, 0);
        let plan = FaultPlan::seeded(5).with_targets(comm_targets()).with_link_fault(
            src,
            Dir::East,
            start,
            u64::MAX,
            LinkFaultKind::Drop { rate: 1.0 },
        );
        let mut n = run(Some(plan));
        let headed_before = crossing.iter().filter(|&&(f, _)| f + 1 < start).count() as u64;
        assert!((2..4).contains(&headed_before), "both outcomes occur");
        assert_eq!(n.delivered_packets(), headed_before, "a head past the window delivers whole");
        assert_eq!(n.lost_packets(), n.fault_counters().dropped_packets);
        assert_eq!(n.lost_packets(), 4 - headed_before);
        assert_eq!(n.stuck_packets(), 0, "no partial packet left in reassembly");
        assert_eq!(n.payload_pool_live(), 0, "every payload delivered or released");
        assert_eq!(n.buffered_flits(), 0);
        let dst = n.mesh().node_at(3, 0);
        let delivered = n.drain_ejected(dst);
        let intact = delivered.iter().any(|p| p.payload == 1 && !p.corrupted);
        assert!(intact, "packet 1 arrived intact");
    }

    #[test]
    fn down_window_delays_but_delivers() {
        let mk = |down: bool| {
            let mut n = net(NocConfig::binochs());
            if down {
                n.set_fault_plan(FaultPlan::seeded(1).with_link_fault(
                    n.mesh().node_at(0, 0),
                    Dir::East,
                    0,
                    500,
                    LinkFaultKind::Down,
                ))
                .unwrap();
            }
            let src = n.mesh().node_at(0, 0);
            let dst = n.mesh().node_at(3, 0);
            n.inject(comm(src, dst, 32, 5)).unwrap();
            n.run_until_drained(10_000).unwrap();
            let p = n.drain_ejected(dst).remove(0);
            assert_eq!(p.payload, 5);
            assert!(!p.corrupted);
            p.latency()
        };
        let clean = mk(false);
        let faulted = mk(true);
        assert!(
            faulted >= 500 && faulted > clean,
            "down window stalls the flit ({clean} vs {faulted})"
        );
    }

    #[test]
    fn corruption_delivers_with_the_mark() {
        let mut n = net(NocConfig::dapper());
        n.set_fault_plan(
            FaultPlan::seeded(3).with_corrupt_rate(1.0).with_targets(comm_targets()),
        )
        .unwrap();
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 3);
        n.inject(comm(src, dst, 64, 42)).unwrap();
        n.run_until_drained(10_000).unwrap();
        let p = n.drain_ejected(dst).remove(0);
        assert!(p.corrupted, "corruption mark survives reassembly");
        assert_eq!(p.payload, 42, "payload object itself is delivered");
        assert_eq!(n.fault_counters().corrupted_packets, 1);
        assert_eq!(n.lost_packets(), 0);
    }

    #[test]
    fn protected_packets_are_exempt_from_random_faults() {
        let mut n = net(NocConfig::binochs());
        n.set_fault_plan(FaultPlan::seeded(9).with_drop_rate(1.0).with_targets(comm_targets()))
            .unwrap();
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 3);
        n.inject(comm(src, dst, 64, 1).with_protected()).unwrap();
        n.inject(comm(src, dst, 64, 2)).unwrap();
        n.run_until_drained(10_000).unwrap();
        let pkts = n.drain_ejected(dst);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].payload, 1, "only the protected packet survives");
        assert_eq!(n.lost_packets(), 1);
    }

    #[test]
    fn stall_report_names_the_blockage() {
        let mut n = net(NocConfig::binochs());
        let src = n.mesh().node_at(0, 0);
        let dst = n.mesh().node_at(3, 0);
        // Permanently dead link on the only XY route: the packet wedges.
        n.set_fault_plan(FaultPlan::seeded(1).with_link_fault(
            src,
            Dir::East,
            0,
            u64::MAX,
            LinkFaultKind::Down,
        ))
        .unwrap();
        n.inject(comm(src, dst, 32, 1)).unwrap();
        let report = n.run_until_drained(2_000).unwrap_err();
        assert_eq!(report.pending_packets, 1);
        assert_eq!(report.blocked_routers, vec![src.index()]);
        assert!(report.buffered_flits > 0);
        assert!(report.oldest_packet_age > 1_000, "the flit aged the whole run");
        let text = report.to_string();
        assert!(text.contains("1 pending"), "display is informative: {text}");
        // The exhaustive-deadline path and the report accessor agree.
        assert_eq!(n.stall_report(), report);
    }

    #[test]
    fn fault_runs_replay_bit_identically() {
        let run = || {
            let mut n = net(NocConfig::axnoc());
            n.set_fault_plan(
                FaultPlan::seeded(1234)
                    .with_drop_rate(0.2)
                    .with_corrupt_rate(0.1)
                    .with_targets(comm_targets()),
            )
            .unwrap();
            let nodes = n.mesh().node_count();
            use snacknoc_prng::Rng;
            let mut rng = Rng::new(5);
            for i in 0..200 {
                let src = NodeId::new(rng.range_usize(0..nodes));
                let dst = NodeId::new(rng.range_usize(0..nodes));
                n.inject(comm(src, dst, 64, i)).unwrap();
                if i % 3 == 0 {
                    n.step();
                }
            }
            n.run_until_drained(100_000).unwrap();
            let mut log = Vec::new();
            for node in 0..nodes {
                for p in n.drain_ejected(NodeId::new(node)) {
                    log.push((p.payload, p.delivered_at, p.corrupted));
                }
            }
            (n.cycle(), n.fault_counters(), log)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "hash-derived fault decisions replay exactly");
        assert!(a.1.dropped_packets > 0 && a.1.corrupted_packets > 0, "faults actually fired");
    }


    // ---------------------------------------------------------------
    // Stepping modes (DESIGN.md §11)
    // ---------------------------------------------------------------

    /// Everything observable about a finished run, for byte-identity
    /// comparisons across stepping modes.
    type RunFingerprint = (u64, u64, u64, u64, u64, u64, String, Vec<(u64, u64, bool)>);

    fn run_fingerprint(n: &mut Network<u64>) -> RunFingerprint {
        let nodes = n.mesh().node_count();
        let mut log = Vec::new();
        for node in 0..nodes {
            for p in n.drain_ejected(NodeId::new(node)) {
                log.push((p.payload, p.delivered_at, p.corrupted));
            }
        }
        let occupancy = format!(
            "{}/{}/{:.12}",
            n.stats().occupancy.total_cycles(),
            n.stats().occupancy.dropped_samples(),
            n.stats().occupancy.zero_fraction(),
        );
        (
            n.cycle(),
            n.delivered_packets(),
            n.lost_packets(),
            n.stats().crossbar_transfers,
            n.stats().injected_flits,
            n.fault_counters().dropped_flits,
            occupancy,
            log,
        )
    }

    /// Drains through `step_until`, so event-mode runs take their clock
    /// jumps on the way.
    fn drain_in_chunks(n: &mut Network<u64>) {
        for _ in 0..2_000 {
            if n.pending_packets() == 0 {
                return;
            }
            let target = n.cycle() + 64;
            n.step_until(target);
        }
        panic!("network failed to drain: {}", n.stall_report());
    }

    fn faulted_random_run(stepping: Stepping) -> RunFingerprint {
        let mut n = net(NocConfig::axnoc());
        n.set_stepping(stepping);
        n.set_fault_plan(
            FaultPlan::seeded(1234)
                .with_drop_rate(0.2)
                .with_corrupt_rate(0.1)
                .with_targets(comm_targets()),
        )
        .unwrap();
        let nodes = n.mesh().node_count();
        use snacknoc_prng::Rng;
        let mut rng = Rng::new(5);
        for i in 0..200 {
            let src = NodeId::new(rng.range_usize(0..nodes));
            let dst = NodeId::new(rng.range_usize(0..nodes));
            n.inject(comm(src, dst, 64, i)).unwrap();
            if i % 3 == 0 {
                n.step();
            }
        }
        drain_in_chunks(&mut n);
        run_fingerprint(&mut n)
    }

    #[test]
    fn event_stepping_matches_the_dense_oracle_under_faults() {
        let dense = faulted_random_run(Stepping::Dense);
        assert_eq!(faulted_random_run(Stepping::Event), dense, "event run must match dense");
        assert!(dense.2 > 0, "faults actually fired");
    }

    #[test]
    fn stepping_defaults_to_event() {
        let n = net(NocConfig::binochs());
        assert_eq!(n.stepping(), Stepping::Event);
        assert_eq!(Stepping::ALL, [Stepping::Dense, Stepping::Event]);
        assert_eq!(Stepping::Dense.to_string(), "dense");
    }

    #[test]
    fn mid_run_stepping_flips_match_an_all_dense_run() {
        let run = |flip: bool, faulted: bool| {
            let mut n = net(NocConfig::binochs().with_sample_window(100));
            n.set_stepping(Stepping::Dense);
            if faulted {
                // A drop window and a link-down window that both open and
                // close after the flips begin: event-mode jumps must land
                // on every window edge, and the drop memo must carry
                // across each switch.
                let corner = n.mesh().node_at(1, 1);
                n.set_fault_plan(
                    FaultPlan::seeded(77)
                        .with_targets(comm_targets())
                        .with_corrupt_rate(0.05)
                        .with_link_fault(corner, Dir::East, 30, 400, LinkFaultKind::Drop {
                            rate: 0.5,
                        })
                        .with_link_fault(corner, Dir::South, 2_000, 2_600, LinkFaultKind::Down),
                )
                .unwrap();
            }
            let nodes: Vec<_> = n.mesh().nodes().collect();
            for (i, &src) in nodes.iter().enumerate() {
                for (j, &dst) in nodes.iter().enumerate() {
                    n.inject(comm(src, dst, 64, (i * 16 + j) as u64)).unwrap();
                }
            }
            // Flip dense → event → dense → event mid-flight, then cross a
            // dead stretch in event mode and come back to dense for a
            // second burst: every switch must be exact, not just the
            // steady state.
            let flip_to = |n: &mut Network<u64>, mode: Stepping| {
                if flip {
                    n.set_stepping(mode);
                }
            };
            n.run(20);
            flip_to(&mut n, Stepping::Event);
            n.run(50);
            flip_to(&mut n, Stepping::Dense);
            n.run(50);
            flip_to(&mut n, Stepping::Event);
            drain_in_chunks(&mut n);
            n.step_until(3_000);
            flip_to(&mut n, Stepping::Dense);
            let (a, b) = (n.mesh().node_at(0, 0), n.mesh().node_at(3, 3));
            for i in 0..8 {
                n.inject(comm(a, b, 64, 10_000 + i)).unwrap();
                n.inject(comm(b, a, 64, 20_000 + i)).unwrap();
            }
            drain_in_chunks(&mut n);
            run_fingerprint(&mut n)
        };
        for faulted in [false, true] {
            let dense = run(false, faulted);
            assert_eq!(run(true, faulted), dense, "flips are observationally free (faults: {faulted})");
            if faulted {
                assert!(dense.2 > 0 && dense.5 > 0, "the drop window fired");
            }
        }
    }

    #[test]
    fn event_stepping_jumps_dead_cycles_identically() {
        let run = |stepping: Stepping| {
            let mut n = net(NocConfig::binochs().with_sample_window(100));
            n.set_stepping(stepping);
            let src = n.mesh().node_at(0, 0);
            let dst = n.mesh().node_at(3, 3);
            for i in 0..10 {
                n.inject(comm(src, dst, 64, i)).unwrap();
            }
            // Drain, then cross a long dead stretch.
            n.step_until(50_000);
            assert!(n.is_quiescent());
            run_fingerprint(&mut n)
        };
        let event = run(Stepping::Event);
        assert_eq!(event.0, 50_000, "event mode lands exactly on the target");
        assert_eq!(event, run(Stepping::Dense), "event run identical to dense");
    }
}
