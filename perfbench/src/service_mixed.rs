//! `service-mixed`: the served system under overload with CMP
//! interference (paper Fig. 12). Six open-loop tenants at 180% of the
//! calibrated two-CPM knee share the platform with the FFT CMP background,
//! so admission, aging, typed rejection, namespace epochs and the
//! `workloads` engine all run.
//!
//! A run first serves `instances` independently seeded instances of the
//! scenario, one `run_service` call each, and reports their merged
//! simulated statistics: one instance completes only a few hundred
//! Guaranteed kernels, too few for a p99 that repeats within a few
//! percent across seeds. That run is not timed; the timed passes then
//! serve the first `timed` instances over and over, so each ~75 ms call
//! is repeated often enough for its fastest time to be seen.

use crate::kernel_stream::stem;
use crate::quantile::ratio;
use crate::spans::Tracer;
use crate::{digest_errors, metrics, repeat, unit_minima, Metrics, Outcome};
use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::SnackPlatform;
use snacknoc_noc::TrafficClass;
use snacknoc_prng::Rng;
use snacknoc_service::{run_service, slo_sweep, ServiceReport, ServiceSpec, TenantReport};
use snacknoc_workloads::kernels::Kernel;
use snacknoc_workloads::suite::{profile, Benchmark};
use std::time::{Duration, Instant};

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Offered load as a percentage of the calibrated knee.
    pub load_pct: u32,
    /// Independently seeded service instances behind the simulated
    /// statistics.
    pub instances: usize,
    /// Instances served by each timed pass (the first ones).
    pub timed: usize,
}

/// The benchmarked shape: `slo_sweep` at 180% load, 48 instances, of
/// which each timed pass serves 4.
pub const FULL: Params = Params {
    load_pct: 180,
    instances: 48,
    timed: 4,
};

/// CMP background scale, as in the `fig12_qos` preset.
const CMP_SCALE: f64 = 0.004;

/// The first `n` service specs for `seed`: `slo_sweep` with the FFT CMP
/// background attached, each instance seeded from the workload seed.
pub fn specs(p: &Params, seed: u64, n: usize) -> Vec<ServiceSpec> {
    let mut rng = Rng::new(seed ^ 0x7365_7276_6963_6521);
    (0..n)
        .map(|_| {
            let mut spec = slo_sweep(p.load_pct, rng.next_u64());
            spec.workload = Some((profile(Benchmark::Fft).scaled(CMP_SCALE), rng.next_u64()));
            spec
        })
        .collect()
}

/// Sums `other`'s counters into `into` and merges its latency histograms.
fn merge(into: &mut ServiceReport, other: &ServiceReport) {
    into.cycles += other.cycles;
    into.violations.extend(other.violations.iter().cloned());
    for (t, o) in into.tenants.iter_mut().zip(&other.tenants) {
        t.submitted += o.submitted;
        t.admitted += o.admitted;
        t.rejected_full += o.rejected_full;
        t.rejected_disabled += o.rejected_disabled;
        t.rejected_dead += o.rejected_dead;
        t.completed += o.completed;
        t.aborted += o.aborted;
        t.residual += o.residual;
        t.service_cycles += o.service_cycles;
        t.hist.merge(&o.hist);
    }
}

struct Pass {
    setup: Duration,
    /// Host time of each `run_service` call, ns.
    call_ns: Vec<f64>,
    submitted: u64,
    completed: u64,
    failed: u64,
    errors: Vec<String>,
    /// `run_service` fingerprint of each instance.
    fingerprints: Vec<u64>,
    sim: Metrics,
}

/// Sets up and serves the first `n` instances.
fn pass(p: &Params, seed: u64, n: usize, tr: &mut Tracer) -> Pass {
    // Set-up: the specs, plus the platform construction and per-tenant
    // build/compile that `run_service` performs on entry, made here so
    // they can be timed on their own.
    let t0 = Instant::now();
    let specs = specs(p, seed, n);
    let mut instructions = [0usize; 4];
    for spec in &specs {
        let platform = SnackPlatform::with_cpm_count(spec.noc.clone(), spec.cpm_count)
            .expect("the preset platform is valid");
        let mapper = MapperConfig::for_mesh(platform.mesh());
        for (i, t) in spec.tenants.iter().enumerate() {
            let s = stem(t.kernel);
            // The per-tenant input seed `run_service` uses.
            let kseed = spec.seed.wrapping_add(i as u64 * 0x9e37_79b9);
            let b = tr.span(format!("build/{s}"), || build(t.kernel, t.size, kseed));
            let c = tr.span(format!("compile/{s}"), || {
                b.context.compile(b.root, &mapper)
            });
            instructions[t.kernel as usize] += c.expect("tenant kernels compile").len();
        }
    }
    let setup = t0.elapsed();

    let mut call_ns = Vec::with_capacity(specs.len());
    let mut errors = Vec::new();
    let mut merged: Option<ServiceReport> = None;
    let mut fingerprints = Vec::with_capacity(n);
    for spec in &specs {
        let t = Instant::now();
        let res = tr.span("run_service", || run_service(spec));
        call_ns.push(t.elapsed().as_nanos() as f64);
        match res {
            Ok(r) => {
                fingerprints.push(r.fingerprint());
                match &mut merged {
                    Some(m) => merge(m, &r),
                    None => merged = Some(r),
                }
            }
            Err(e) => errors.push(format!("run_service failed: {e}")),
        }
    }
    let Some(report) = merged else {
        let failed = errors.len() as u64;
        return Pass {
            setup,
            call_ns,
            submitted: 0,
            completed: 0,
            failed,
            errors,
            fingerprints,
            sim: Metrics::new(),
        };
    };
    errors.extend(report.violations.iter().cloned());
    let [gold, silver, bronze] = report.classes();
    let sum = |f: fn(&TenantReport) -> u64| report.tenants.iter().map(f).sum::<u64>();
    let (submitted, admitted, aborted, residual) = (
        sum(|t| t.submitted),
        sum(|t| t.admitted),
        sum(|t| t.aborted),
        sum(|t| t.residual),
    );
    let completed = report.completed();
    let mut sim = metrics([
        ("sim_cycles", report.cycles as f64),
        ("sim_p99_cycles", gold.hist.percentile(99.0) as f64),
        ("service.submitted", submitted as f64),
        ("service.admitted", admitted as f64),
        ("service.rejected", report.rejected() as f64),
        ("service.aborted", aborted as f64),
        ("service.residual", residual as f64),
        ("service.completed", completed as f64),
        (
            "service.admit_ratio",
            ratio(admitted as f64, submitted as f64),
        ),
        (
            "service.guaranteed.p50_cycles",
            gold.hist.percentile(50.0) as f64,
        ),
        (
            "service.burstable.p99_cycles",
            silver.hist.percentile(99.0) as f64,
        ),
        (
            "service.besteffort.p99_cycles",
            bronze.hist.percentile(99.0) as f64,
        ),
        ("service.fairness", report.fairness()),
    ]);
    for k in Kernel::ALL {
        sim.insert(
            format!("compiler.instructions.{}", stem(k)),
            instructions[k as usize] as f64,
        );
    }
    let failed = aborted + residual + errors.len() as u64;
    Pass {
        setup,
        call_ns,
        submitted,
        completed,
        failed,
        errors,
        fingerprints,
        sim,
    }
}

/// The CMP background alone on the service's platform, run over the
/// service horizon: what the `workloads` engine and its NoC traffic cost
/// without the service around them.
fn cmp_alone(p: &Params, seed: u64, tr: &mut Tracer) -> Metrics {
    let spec = specs(p, seed, 1).remove(0);
    let (prof, wseed) = spec
        .workload
        .clone()
        .expect("specs() attach the CMP background");
    let mut platform = SnackPlatform::with_cpm_count(spec.noc.clone(), spec.cpm_count)
        .expect("the preset platform is valid");
    platform.attach_workload(&prof, wseed);
    let t = Instant::now();
    tr.span("workloads.run", || platform.run(spec.horizon));
    let ns = t.elapsed().as_nanos() as f64;
    let packets = platform.net_injected_packets();
    let stats = platform.finalize_stats();
    let comm = stats.class(TrafficClass::Communication);
    metrics([
        ("workloads.cmp.ns_per_cycle", ratio(ns, spec.horizon as f64)),
        ("workloads.cmp.packets", packets as f64),
        (
            "noc.ns_per_xbar_transfer",
            ratio(ns, stats.crossbar_transfers as f64),
        ),
        ("noc.xbar_transfers", stats.crossbar_transfers as f64),
        ("noc.injected_flits", stats.injected_flits as f64),
        ("noc.delivered_packets", comm.delivered as f64),
        (
            "noc.latency_p50_cycles",
            comm.latency_hist.percentile(50.0) as f64,
        ),
        ("noc.xbar_util_median", stats.median_crossbar_utilization()),
        ("noc.link_util_median", stats.median_link_utilization()),
        ("noc.protocol_errors", stats.protocol_errors.total() as f64),
    ])
}

/// Runs the workload: the untimed full run, then timed passes for
/// `budget`; see [`crate::Outcome`].
pub fn run(p: &Params, seed: u64, budget: Duration, traced: bool) -> Outcome {
    let full = pass(p, seed, p.instances, &mut Tracer::new(false));
    let digest = format!(
        "service-mixed fingerprints={:016x?} {}",
        full.fingerprints,
        crate::digest_of(&full.sim)
    );
    let (plain, with_trace, mut tr) = repeat(budget, traced, |tr| pass(p, seed, p.timed, tr));
    let timed = || plain.iter().chain(&with_trace);
    let mut errors: Vec<String> = full.errors.clone();
    errors.extend(digest_errors(timed().map(|r| (&r.fingerprints, &r.errors))));
    if !full.fingerprints.starts_with(&plain[0].fingerprints) {
        errors.push("timed instances differ from the same instances in the full run".into());
    }
    if full.completed == 0 {
        errors.push("no kernel completed".into());
    }
    let mut metrics = full.sim.clone();
    let pass_ns = |r: &Pass| r.call_ns.iter().sum::<f64>();
    if traced {
        let cmp = cmp_alone(p, seed, &mut tr);
        let run_ns: f64 = with_trace.iter().map(pass_ns).sum();
        let cycles: f64 = with_trace.iter().map(|r| r.sim["sim_cycles"]).sum();
        let completed: f64 = with_trace.iter().map(|r| r.completed as f64).sum();
        metrics.extend(crate::kernel_span_ms(
            &tr,
            &[("compiler.build", "build"), ("compiler.compile", "compile")],
        ));
        metrics.extend(cmp);
        metrics.extend(crate::metrics([
            ("service.run.ns_per_cycle", ratio(run_ns, cycles)),
            ("service.run.ns_per_completion", ratio(run_ns, completed)),
            (
                "trace.overhead_share",
                crate::overhead(plain.iter().map(pass_ns), with_trace.iter().map(pass_ns)),
            ),
        ]));
    } else {
        let calls = unit_minima(plain.iter().map(|r| &r.call_ns[..]));
        let setups: Vec<f64> = plain.iter().map(|r| r.setup.as_secs_f64()).collect();
        metrics.extend(crate::host_metrics(
            &setups,
            plain[0].completed as f64,
            calls.iter().sum(),
            &calls,
            ratio(full.completed as f64, full.submitted as f64),
        ));
    }
    Outcome {
        attempted: full.submitted + timed().map(|r| r.submitted).sum::<u64>(),
        failed: full.failed + timed().map(|r| r.failed).sum::<u64>(),
        errors,
        digest,
        metrics,
        tracer: traced.then_some(tr),
    }
}
