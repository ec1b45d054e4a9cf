//! Counting-allocator proof that the activity-driven hot loop is
//! **allocation-free in steady state**: once scratch buffers and queue
//! capacities are warm, 1 000 consecutive `Network::step` cycles with
//! traffic in flight (and no tracer) perform zero heap allocations, and
//! so do 1 000 consecutive `SnackPlatform::step` cycles in the middle of
//! a running kernel (RCU buffers, CPM issue, ring tokens and delivery).
//!
//! The whole file is one integration-test crate so the `#[global_allocator]`
//! hook owns the process: every heap allocation anywhere in the test binary
//! passes through [`CountingAlloc`]. The counter is only *read* around the
//! measured regions, so unrelated test-harness allocations before/after a
//! region don't pollute the measurement. Because the counter is process
//! global, every measuring test holds [`MEASURE_LOCK`] for its whole body:
//! the harness may run tests on parallel threads, and another test's
//! warm-up allocations must not land inside a measured region.

use snacknoc::compiler::{build, sim_size, MapperConfig};
use snacknoc::core::{CompiledKernel, SnackPlatform};
use snacknoc::workloads::kernels::Kernel;
use snacknoc_noc::{Network, NocConfig, NodeId, PacketSpec, TrafficClass};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Serializes the measuring tests (see the module docs).
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// System allocator wrapper that counts every `alloc`/`realloc` call.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the only addition is a relaxed
// atomic increment, which cannot violate the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Closed-loop traffic: every delivered packet is immediately re-injected
/// back toward where it came from, so a fixed population of packets stays
/// in flight forever and the same code paths (NI injection, router
/// pipeline, link traversal, ejection, reassembly) run every cycle.
fn bounce(
    net: &mut Network<u64>,
    scratch: &mut Vec<snacknoc_noc::Packet<u64>>,
    nodes: &[NodeId],
    size_bytes: u32,
) {
    for &node in nodes {
        net.drain_ejected_into(node, scratch);
    }
    for pkt in scratch.drain(..) {
        let spec = PacketSpec::new(
            pkt.dst,
            pkt.src,
            pkt.vnet,
            TrafficClass::Communication,
            size_bytes,
            pkt.payload,
        );
        net.inject(spec).expect("bounce packets stay valid");
    }
}

#[test]
fn steady_state_network_step_allocates_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // A sampling window far beyond the run length: the only allocating
    // stats path (the per-window series roll) must not fire mid-measure.
    let cfg = NocConfig::default().with_mesh(8, 8).with_sample_window(1_000_000);
    let mut net: Network<u64> = Network::new(cfg).expect("valid config");
    let nodes: Vec<NodeId> = net.mesh().nodes().collect();
    let mut scratch: Vec<snacknoc_noc::Packet<u64>> = Vec::with_capacity(256);

    // Seed a fixed population of packets criss-crossing the mesh.
    let n = nodes.len();
    for i in 0..48usize {
        let src = nodes[(i * 7) % n];
        let dst = nodes[(i * 13 + 5) % n];
        if src == dst {
            continue;
        }
        let spec =
            PacketSpec::new(src, dst, (i % 2) as u8, TrafficClass::Communication, 8, i as u64);
        net.inject(spec).expect("seed packets valid");
    }

    // Warm-up: let every scratch vector, queue, and hash map reach its
    // steady-state capacity (several round trips across the 8x8 mesh).
    for _ in 0..4_000 {
        net.step();
        bounce(&mut net, &mut scratch, &nodes, 8);
    }
    assert!(net.pending_packets() > 0, "warm-up kept traffic in flight");
    let delivered_before = net.delivered_packets();

    // Measured region: 1k steady-state cycles, traffic in flight, no
    // tracer. Zero heap allocations allowed.
    let allocs_before = ALLOC_CALLS.load(Ordering::SeqCst);
    for _ in 0..1_000 {
        net.step();
        bounce(&mut net, &mut scratch, &nodes, 8);
    }
    let allocs_after = ALLOC_CALLS.load(Ordering::SeqCst);

    assert!(
        net.delivered_packets() > delivered_before,
        "measured region must exercise the full deliver/re-inject loop"
    );
    assert!(net.pending_packets() > 0, "traffic still in flight after measurement");
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "steady-state Network::step must be allocation-free \
         ({} allocations in 1k cycles)",
        allocs_after - allocs_before
    );
}

/// The *loaded* counterpart (ISSUE PR 10): a saturation-level closed-loop
/// population of multi-flit packets — router buffers contended, NI
/// backlogs nonzero, reassembly and the payload pool churning every cycle
/// — still performs zero heap allocations once the pools are warm. The
/// payload slab is preallocated for the whole population up front, so its
/// demand-growth counter must stay at zero for the entire run, not just
/// the measured region.
#[test]
fn saturated_steady_state_allocates_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = NocConfig::default().with_mesh(8, 8).with_sample_window(1_000_000);
    let mut net: Network<u64> = Network::new(cfg).expect("valid config");
    let nodes: Vec<NodeId> = net.mesh().nodes().collect();
    let mut scratch: Vec<snacknoc_noc::Packet<u64>> = Vec::with_capacity(512);

    // Enough multi-flit packets to keep the 8x8 mesh saturated: far more
    // flits in flight than the routers can buffer, so the surplus queues
    // at the NIs and every pipeline stage contends every cycle.
    const POPULATION: usize = 320;
    const SIZE_BYTES: u32 = 64;
    net.preallocate_payloads(POPULATION);
    let n = nodes.len();
    for i in 0..POPULATION {
        let src = nodes[(i * 11) % n];
        let dst = nodes[(i * 17 + 3) % n];
        if src == dst {
            continue;
        }
        let spec = PacketSpec::new(
            src,
            dst,
            (i % 2) as u8,
            TrafficClass::Communication,
            SIZE_BYTES,
            i as u64,
        );
        net.inject(spec).expect("seed packets valid");
    }

    for _ in 0..6_000 {
        net.step();
        bounce(&mut net, &mut scratch, &nodes, SIZE_BYTES);
    }
    assert!(net.pending_packets() > 0, "warm-up kept traffic in flight");
    assert!(net.total_ni_backlog() > 0, "population saturates the mesh");
    assert!(net.payload_pool_live() > 0, "in-flight payloads live in the pool");
    assert_eq!(
        net.payload_pool_growth_events(),
        0,
        "preallocation covered the closed-loop population"
    );
    let delivered_before = net.delivered_packets();

    let allocs_before = ALLOC_CALLS.load(Ordering::SeqCst);
    for _ in 0..1_000 {
        net.step();
        bounce(&mut net, &mut scratch, &nodes, SIZE_BYTES);
    }
    let allocs_after = ALLOC_CALLS.load(Ordering::SeqCst);

    assert!(
        net.delivered_packets() > delivered_before,
        "measured region must exercise the full deliver/re-inject loop"
    );
    assert!(net.pending_packets() > 0, "traffic still in flight after measurement");
    assert_eq!(net.payload_pool_growth_events(), 0, "pool never grew on demand");
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "loaded steady-state Network::step must be allocation-free \
         ({} allocations in 1k cycles)",
        allocs_after - allocs_before
    );
}

/// Compiles `kernel` at its simulated size for `platform`'s mesh.
fn compile_for(platform: &SnackPlatform, kernel: Kernel) -> CompiledKernel {
    let mapper = MapperConfig::for_mesh(platform.mesh());
    let built = build(kernel, sim_size(kernel), 7);
    built.context.compile(built.root, &mapper).expect("paper kernels compile")
}

/// The compute-layer counterpart: once a platform has run every paper
/// kernel once (RCU instruction rings, dependency tables, the CPM's spare
/// packet buffers and the delivery scratch all warm), 1 000 consecutive
/// `SnackPlatform::step` cycles in the middle of a Reduction and of an
/// SGEMM perform zero heap allocations. Allocations at submission
/// (program validation and the command-buffer copy) are outside the
/// measured window.
#[test]
fn steady_state_kernel_step_allocates_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    const CAP: u64 = 5_000_000;
    // Steps taken after submission before measuring: past the first
    // command-buffer fetch, into the issue/execute/ring steady state.
    const LEAD_IN: usize = 200;
    const MEASURED: usize = 1_000;
    let mut platform = SnackPlatform::new(NocConfig::default()).expect("default platform");
    let kernels: Vec<(Kernel, CompiledKernel)> =
        Kernel::ALL.into_iter().map(|k| (k, compile_for(&platform, k))).collect();
    for (k, compiled) in &kernels {
        platform.run_kernel(compiled, CAP).unwrap_or_else(|e| panic!("{k} warm-up run: {e}"));
    }
    for target in [Kernel::Reduction, Kernel::Sgemm] {
        let (_, compiled) = kernels.iter().find(|(k, _)| *k == target).expect("compiled");
        platform.submit_kernel(compiled).expect("idle CPM accepts the kernel");
        for _ in 0..LEAD_IN {
            platform.step();
        }
        let executed_before = platform.rcu_stats().executed;
        let allocs_before = ALLOC_CALLS.load(Ordering::SeqCst);
        for _ in 0..MEASURED {
            platform.step();
        }
        let allocs_after = ALLOC_CALLS.load(Ordering::SeqCst);
        assert!(
            platform.rcu_stats().executed > executed_before,
            "{target}: the measured window must execute instructions"
        );
        assert!(
            platform.take_kernel_results().is_none(),
            "{target}: the measured window must lie inside the kernel"
        );
        assert_eq!(
            allocs_after - allocs_before,
            0,
            "{target}: steady-state SnackPlatform::step must be allocation-free \
             ({} allocations in {MEASURED} cycles)",
            allocs_after - allocs_before
        );
        let mut steps = 0u64;
        while platform.take_kernel_results().is_none() {
            platform.step();
            steps += 1;
            assert!(steps < CAP, "{target} finishes");
        }
    }
}
