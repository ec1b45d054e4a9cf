//! `kernel-stream`: the paper's offload path (Fig. 9). One closed-loop
//! caller runs the four paper kernels round-robin on one otherwise idle
//! `SnackPlatform`, so RCUs, CPM and the token ring do the work and the
//! NoC carries only snack traffic.

use crate::quantile::ratio;
use crate::spans::Tracer;
use crate::{digest_errors, metrics, repeat, unit_minima, Metrics, Outcome};
use snacknoc_compiler::{build, sim_size, MapperConfig};
use snacknoc_core::{CompiledKernel, SnackPlatform};
use snacknoc_noc::{LatencyHistogram, NocConfig, TrafficClass};
use snacknoc_prng::Rng;
use snacknoc_workloads::kernels::Kernel;
use std::time::{Duration, Instant};

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Round-robin rounds over the four kernels in one stream.
    pub rounds: usize,
    /// Kernel input size; `None` means the compiler's `sim_size`.
    pub size: Option<usize>,
}

/// The benchmarked shape: 25 rounds (100 `run_kernel` calls, so the p90
/// has 10 calls beyond it) per stream at `sim_size`.
pub const FULL: Params = Params {
    rounds: 25,
    size: None,
};

/// Per-kernel cycle budget for `run_kernel`, far above any kernel here.
const CYCLE_CAP: u64 = 5_000_000;

/// Lower-case metric-name stem of a kernel.
pub fn stem(k: Kernel) -> &'static str {
    match k {
        Kernel::Sgemm => "sgemm",
        Kernel::Reduction => "reduction",
        Kernel::Mac => "mac",
        Kernel::Spmv => "spmv",
    }
}

/// Input seeds for the four kernels, drawn from the workload seed.
pub fn kernel_seeds(seed: u64) -> [u64; 4] {
    let mut rng = Rng::new(seed ^ 0x6b65_726e_656c_7321);
    [0; 4].map(|_| rng.next_u64())
}

struct Pass {
    setup: Duration,
    /// Host time of each `run_kernel` call, ns.
    call_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    digest: String,
    sim: Metrics,
}

fn pass(p: &Params, seed: u64, tr: &mut Tracer) -> Pass {
    let t0 = Instant::now();
    let mut platform =
        SnackPlatform::new(NocConfig::default()).expect("the default platform is valid");
    let mapper = MapperConfig::for_mesh(platform.mesh());
    let mut built = Vec::with_capacity(4);
    let mut compiled: Vec<CompiledKernel> = Vec::with_capacity(4);
    for (k, kseed) in Kernel::ALL.into_iter().zip(kernel_seeds(seed)) {
        let size = p.size.unwrap_or_else(|| sim_size(k));
        let b = tr.span(format!("build/{}", stem(k)), || build(k, size, kseed));
        let c = tr.span(format!("compile/{}", stem(k)), || {
            b.context.compile(b.root, &mapper)
        });
        compiled.push(c.expect("paper kernels compile on the default mesh"));
        built.push(b);
    }
    let setup = t0.elapsed();
    let reference: Vec<_> = built
        .iter()
        .map(|b| {
            b.context
                .interpret(b.root)
                .expect("paper kernels interpret")
        })
        .collect();

    let mut call_ns = Vec::with_capacity(p.rounds * 4);
    let mut errors = Vec::new();
    let mut failed = 0u64;
    let mut kernel_cycles = 0u64;
    for round in 0..p.rounds {
        for (i, k) in Kernel::ALL.into_iter().enumerate() {
            let t = Instant::now();
            let res = tr.span(format!("run_kernel/{}", stem(k)), || {
                platform.run_kernel(&compiled[i], CYCLE_CAP)
            });
            call_ns.push(t.elapsed().as_nanos() as f64);
            match res {
                Ok(run) if run.outputs == reference[i] => {
                    kernel_cycles += run.cycles;
                }
                Ok(_) => {
                    failed += 1;
                    errors.push(format!(
                        "round {round}: {k} outputs differ from the interpreter"
                    ));
                }
                Err(e) => {
                    failed += 1;
                    errors.push(format!("round {round}: {k} failed: {e}"));
                }
            }
        }
    }

    let platform_cycles = platform.cycle();
    let rcu = platform.rcu_stats();
    // The default platform has a single CPM.
    let cpm = platform.cpm().stats;
    let lost = platform.lost_packets();
    let stats = platform.finalize_stats();
    let all = [
        TrafficClass::Communication,
        TrafficClass::SnackInstruction,
        TrafficClass::SnackData,
    ];
    let mut all_hist = LatencyHistogram::new();
    let mut snack_hist = LatencyHistogram::new();
    let (mut delivered, mut snack_flits) = (0u64, 0u64);
    for class in all {
        let c = stats.class(class);
        delivered += c.delivered;
        all_hist.merge(&c.latency_hist);
        if class != TrafficClass::Communication {
            snack_flits += c.flits;
            snack_hist.merge(&c.latency_hist);
        }
    }
    let mut sim = metrics([
        ("sim_cycles", kernel_cycles as f64),
        ("sim_p99_cycles", snack_hist.percentile(99.0) as f64),
        ("core.sim_cycles", platform_cycles as f64),
        ("core.rcu.executed", rcu.executed as f64),
        ("core.rcu.captures", rcu.captures as f64),
        ("core.rcu.stalled_cycles", rcu.stalled_cycles as f64),
        (
            "core.cpm.instructions_issued",
            cpm.instructions_issued as f64,
        ),
        ("core.cpm.packets_issued", cpm.packets_issued as f64),
        ("core.cpm.overflow_cycles", cpm.overflow_cycles as f64),
        (
            "core.cpm.spill_ratio",
            ratio(cpm.tokens_replayed as f64, cpm.tokens_absorbed as f64),
        ),
        ("core.cpm.busy_rejections", cpm.busy_rejections as f64),
        ("noc.xbar_transfers", stats.crossbar_transfers as f64),
        ("noc.injected_flits", stats.injected_flits as f64),
        ("noc.delivered_packets", delivered as f64),
        ("noc.latency_p50_cycles", all_hist.percentile(50.0) as f64),
        ("noc.xbar_util_median", stats.median_crossbar_utilization()),
        ("noc.link_util_median", stats.median_link_utilization()),
        ("noc.lost_packets", lost as f64),
        ("noc.protocol_errors", stats.protocol_errors.total() as f64),
        ("noc.snack_flits", snack_flits as f64),
        (
            "noc.snack_latency_p99_cycles",
            snack_hist.percentile(99.0) as f64,
        ),
    ]);
    for (k, c) in Kernel::ALL.into_iter().zip(&compiled) {
        sim.insert(format!("compiler.instructions.{}", stem(k)), c.len() as f64);
    }
    let digest = format!(
        "kernel-stream outputs_fnv={:016x} {}",
        crate::fnv(&format!("{reference:?}")),
        crate::digest_of(&sim)
    );
    Pass {
        setup,
        call_ns,
        attempted: (p.rounds * 4) as u64,
        failed,
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
    let stream_ns = |r: &Pass| r.call_ns.iter().sum::<f64>();
    if traced {
        let run_ns: f64 = with_trace.iter().map(stream_ns).sum();
        let passes = with_trace.len() as f64;
        metrics.extend(crate::kernel_span_ms(
            &tr,
            &[
                ("core.run_kernel", "run_kernel"),
                ("compiler.build", "build"),
                ("compiler.compile", "compile"),
            ],
        ));
        metrics.extend(crate::metrics([
            (
                "core.ns_per_sim_cycle",
                ratio(run_ns, first.sim["core.sim_cycles"] * passes),
            ),
            (
                "core.ns_per_rcu_op",
                ratio(run_ns, first.sim["core.rcu.executed"] * passes),
            ),
            (
                "noc.ns_per_xbar_transfer",
                ratio(run_ns, first.sim["noc.xbar_transfers"] * passes),
            ),
            (
                "trace.overhead_share",
                crate::overhead(
                    plain.iter().map(stream_ns),
                    with_trace.iter().map(stream_ns),
                ),
            ),
        ]));
    } else {
        let calls = unit_minima(plain.iter().map(|r| &r.call_ns[..]));
        let setups: Vec<f64> = plain.iter().map(|r| r.setup.as_secs_f64()).collect();
        let ok = (first.attempted - first.failed) as f64;
        metrics.extend(crate::host_metrics(
            &setups,
            ok,
            calls.iter().sum(),
            &calls,
            ratio(ok, first.attempted as f64),
        ));
    }
    Outcome {
        attempted: all().map(|r| r.attempted).sum(),
        failed: all().map(|r| r.failed).sum(),
        errors,
        digest: first.digest.clone(),
        metrics,
        tracer: traced.then_some(tr),
    }
}
