//! `noc-uniform`: a bare `Network` under open-loop uniform-random traffic.
//!
//! Routers, links and NI injection/ejection are nearly all the cost here.
//! The offered rate sits below the saturation knee, so delivered flits per
//! host-second measure the simulator rather than NI queue growth.

use crate::quantile::ratio;
use crate::spans::Tracer;
use crate::{digest_errors, metrics, repeat, unit_minima, Metrics, Outcome};
use snacknoc_noc::{Network, NocConfig, NodeId, Packet, PacketSpec, TrafficClass};
use snacknoc_prng::Rng;
use std::time::{Duration, Instant};

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Mesh columns.
    pub cols: u16,
    /// Mesh rows.
    pub rows: u16,
    /// Offered load, packets per node per cycle.
    pub rate: f64,
    /// Cycles during which packets are offered.
    pub window: u64,
    /// Cycle budget for draining after the window.
    pub drain_cap: u64,
}

/// The benchmarked shape: 16x16 mesh at 0.08 packets/node/cycle for
/// 5,000 cycles, below the saturation knee: the NI backlog at the end of
/// the window stays at a few dozen packets.
pub const FULL: Params = Params {
    cols: 16,
    rows: 16,
    rate: 0.08,
    window: 5_000,
    drain_cap: 50_000,
};

/// Packet sizes, drawn 50/50: one flit and three flits on the default
/// 32-byte channel, so body/tail forwarding and reassembly are exercised.
const SIZES: [u32; 2] = [8, 72];

/// One scheduled packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Injection {
    /// Cycle at which the packet is offered to its source NI.
    pub cycle: u64,
    /// Source node index.
    pub src: u16,
    /// Destination node index (never the source).
    pub dst: u16,
    /// Virtual network.
    pub vnet: u8,
    /// Packet size in bytes.
    pub bytes: u32,
}

/// The injection schedule for `seed`, sorted by cycle: every node offers a
/// packet each cycle with probability `rate`, to a uniform other node.
pub fn generate(p: &Params, vnets: u8, seed: u64) -> Vec<Injection> {
    let n = usize::from(p.cols) * usize::from(p.rows);
    let mut rng = Rng::new(seed ^ 0x6e6f_632d_756e_6966);
    let mut out = Vec::new();
    for cycle in 0..p.window {
        for src in 0..n {
            if rng.unit_f64() >= p.rate {
                continue;
            }
            let d = rng.range_usize(0..n - 1);
            let dst = if d >= src { d + 1 } else { d };
            let vnet = rng.range(0..u64::from(vnets)) as u8;
            let bytes = SIZES[rng.range_usize(0..2)];
            out.push(Injection {
                cycle,
                src: src as u16,
                dst: dst as u16,
                vnet,
                bytes,
            });
        }
    }
    out
}

/// The network configuration: the library default (BiNoCHS resources,
/// 3 vnets) on the workload's mesh.
pub fn config(p: &Params) -> NocConfig {
    NocConfig::default().with_mesh(p.cols, p.rows)
}

/// What one pass measured.
struct Pass {
    setup: Duration,
    /// Host time of the injection window loop.
    loop_ns: f64,
    /// Host time of the window loop plus the drain.
    sim_ns: f64,
    /// Host time of each `Network::step` call in the window.
    step_ns: Vec<f64>,
    /// Host time of each window cycle: injections, step and drain sweep.
    cycle_ns: Vec<f64>,
    /// Host time of the drain after the window.
    drain_ns: f64,
    injected: u64,
    delivered_flits: u64,
    failed: u64,
    errors: Vec<String>,
    digest: String,
    sim: Metrics,
}

fn pass(p: &Params, seed: u64, tr: &mut Tracer) -> Pass {
    let t0 = Instant::now();
    let cfg = config(p);
    let schedule = generate(p, cfg.vnets, seed);
    let mut net: Network<u32> =
        Network::new(cfg.clone()).expect("the workload's mesh is a valid config");
    let setup = t0.elapsed();

    let nodes: Vec<NodeId> = net.mesh().nodes().collect();
    let mut seen = vec![false; schedule.len()];
    let mut errors = Vec::new();
    let mut delivered_flits = 0u64;
    let mut buf: Vec<Packet<u32>> = Vec::new();
    let mut collect = |buf: &mut Vec<Packet<u32>>, errors: &mut Vec<String>| {
        for pkt in buf.drain(..) {
            let i = pkt.payload as usize;
            match schedule.get(i) {
                Some(inj)
                    if !seen[i] && usize::from(inj.dst) == pkt.dst.index() && !pkt.corrupted =>
                {
                    seen[i] = true;
                    delivered_flits += cfg.flits_for(inj.bytes) as u64;
                }
                _ => errors.push(format!(
                    "packet {i} delivered twice, corrupted or to the wrong node"
                )),
            }
        }
    };

    let mut step_ns = Vec::with_capacity(p.window as usize);
    let mut cycle_ns = Vec::with_capacity(p.window as usize);
    let mut next = 0usize;
    let t_loop = Instant::now();
    for cycle in 0..p.window {
        let t_cycle = Instant::now();
        while let Some(inj) = schedule.get(next).filter(|inj| inj.cycle == cycle) {
            let spec = PacketSpec::new(
                NodeId::new(usize::from(inj.src)),
                NodeId::new(usize::from(inj.dst)),
                inj.vnet,
                TrafficClass::Communication,
                inj.bytes,
                next as u32,
            );
            if let Err(e) = tr.count("noc.inject", || net.inject(spec)) {
                errors.push(format!("inject of packet {next} failed: {e}"));
            }
            next += 1;
        }
        let t = Instant::now();
        tr.count("noc.step", || net.step());
        step_ns.push(t.elapsed().as_nanos() as f64);
        tr.count("noc.drain", || {
            for &node in &nodes {
                net.drain_ejected_into(node, &mut buf);
            }
        });
        cycle_ns.push(t_cycle.elapsed().as_nanos() as f64);
        collect(&mut buf, &mut errors);
    }
    let loop_ns = t_loop.elapsed().as_nanos() as f64;
    let backlog_end = net.total_ni_backlog();
    let t_drain = Instant::now();
    if let Err(stall) = tr.span("run_until_drained", || net.run_until_drained(p.drain_cap)) {
        errors.push(format!("network did not drain: {stall}"));
    }
    for &node in &nodes {
        net.drain_ejected_into(node, &mut buf);
    }
    let drain_ns = t_drain.elapsed().as_nanos() as f64;
    collect(&mut buf, &mut errors);
    let sim_ns = t_loop.elapsed().as_nanos() as f64;

    let injected = net.injected_packets();
    let delivered = seen.iter().filter(|&&s| s).count() as u64;
    let lost = net.lost_packets();
    let drained_at = net.cycle();
    let stuck = net.stuck_packets() as u64;
    let pool_live = net.payload_pool_live() as u64;
    let pool_high_water = net.payload_pool_high_water() as u64;
    let stats = net.finalize_stats();
    let perr = stats.protocol_errors.total();
    let comm = stats.class(TrafficClass::Communication);
    if injected != schedule.len() as u64 || delivered != injected {
        errors.push(format!(
            "{} scheduled, {injected} injected, {delivered} delivered",
            schedule.len()
        ));
    }
    if lost + perr + stuck + pool_live > 0 {
        errors.push(format!(
            "lost={lost} protocol_errors={perr} stuck={stuck} payload_pool_live={pool_live}"
        ));
    }
    if comm.flits != delivered_flits {
        errors.push(format!(
            "stats count {} delivered flits, the benchmark {delivered_flits}",
            comm.flits
        ));
    }

    let sim = metrics([
        ("sim_cycles", drained_at as f64),
        ("noc.xbar_transfers", stats.crossbar_transfers as f64),
        ("noc.injected_flits", stats.injected_flits as f64),
        ("noc.delivered_packets", comm.delivered as f64),
        ("noc.ni_backlog_end", backlog_end as f64),
        (
            "noc.latency_p50_cycles",
            comm.latency_hist.percentile(50.0) as f64,
        ),
        ("sim_p99_cycles", comm.latency_hist.percentile(99.0) as f64),
        ("noc.xbar_util_median", stats.median_crossbar_utilization()),
        ("noc.link_util_median", stats.median_link_utilization()),
        ("noc.payload_pool_high_water", pool_high_water as f64),
        ("noc.lost_packets", lost as f64),
        ("noc.protocol_errors", perr as f64),
        ("noc.stuck_packets", stuck as f64),
    ]);
    let digest = format!(
        "noc-uniform injected={injected} delivered={delivered} flits={delivered_flits} latency_sum={} \
         latency_max={} {}",
        comm.latency_sum,
        comm.latency_max,
        crate::digest_of(&sim),
    );
    Pass {
        setup,
        loop_ns,
        sim_ns,
        step_ns,
        cycle_ns,
        drain_ns,
        injected,
        delivered_flits,
        failed: injected.saturating_sub(delivered) + lost + perr,
        errors,
        digest,
        sim,
    }
}

/// Runs the workload for `budget`; see [`crate::Outcome`].
pub fn run(p: &Params, seed: u64, budget: Duration, traced: bool) -> Outcome {
    let (plain, with_trace, tr) = repeat(budget, traced, |tr| pass(p, seed, tr));
    let all = || plain.iter().chain(&with_trace);
    let errors = digest_errors(all().map(|r| (&r.digest, &r.errors)));
    let first = &plain[0];
    let mut metrics = first.sim.clone();
    if traced {
        let step = tr.counter("noc.step");
        let inject = tr.counter("noc.inject");
        let drain = tr.counter("noc.drain");
        let drained = tr.total_ns("run_until_drained");
        let loop_ns: f64 = with_trace.iter().map(|r| r.loop_ns).sum();
        let xbar = first.sim["noc.xbar_transfers"] * with_trace.len() as f64;
        metrics.extend(crate::metrics([
            (
                "noc.step.ns_per_cycle",
                ratio(step.total_ns as f64, step.count as f64),
            ),
            ("noc.step.share", ratio(step.total_ns as f64, loop_ns)),
            (
                "noc.inject.ns_per_call",
                ratio(inject.total_ns as f64, inject.count as f64),
            ),
            (
                "noc.drain.ns_per_cycle",
                ratio(drain.total_ns as f64, drain.count as f64),
            ),
            (
                "noc.ns_per_xbar_transfer",
                ratio(step.total_ns as f64 + drained, xbar),
            ),
            (
                "trace.overhead_share",
                crate::overhead(
                    plain.iter().map(|r| r.sim_ns),
                    with_trace.iter().map(|r| r.sim_ns),
                ),
            ),
        ]));
    } else {
        let steps = unit_minima(plain.iter().map(|r| &r.step_ns[..]));
        let cycles = unit_minima(plain.iter().map(|r| &r.cycle_ns[..]));
        let drain = plain
            .iter()
            .map(|r| r.drain_ns)
            .fold(f64::INFINITY, f64::min);
        let setups: Vec<f64> = plain.iter().map(|r| r.setup.as_secs_f64()).collect();
        let delivered = first.injected.saturating_sub(first.failed) as f64;
        metrics.extend(crate::host_metrics(
            &setups,
            first.delivered_flits as f64,
            cycles.iter().sum::<f64>() + drain,
            &steps,
            ratio(delivered, first.injected as f64),
        ));
    }
    Outcome {
        attempted: all().map(|r| r.injected).sum(),
        failed: all().map(|r| r.failed).sum(),
        errors,
        digest: first.digest.clone(),
        metrics,
        tracer: traced.then_some(tr),
    }
}
