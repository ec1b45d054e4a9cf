//! Hot-loop performance measurements: the dense reference loop vs
//! event-driven stepping (`BENCH_perf.json`, the repo's perf trajectory).
//!
//! Two families of measurements:
//!
//! * **`Network::step` scenarios** — a bare network driven by a
//!   pre-generated uniform-random injection schedule at idle / low /
//!   saturation rates, timed under [`Stepping::Dense`] and
//!   [`Stepping::Event`] (the default, DESIGN.md §11). The schedule is
//!   generated once per scenario, so both modes replay byte-identical
//!   injections and must report byte-identical simulation statistics
//!   ([`StepTiming::stats_identical`]). A think-heavy closed-loop CMP
//!   workload on the full `SnackPlatform` run loop joins them as one more
//!   row: the regime where event-driven jumps compress real dead time
//!   between request bursts.
//! * **`Platform::run_kernel` timings** — full compiler kernels run to
//!   completion under both modes, with outputs and statistics compared.
//!
//! Wall-clock numbers (median/p90 ns) are machine-dependent and are *not*
//! covered by any determinism guarantee; the simulation fingerprints are.

#![deny(clippy::unwrap_used)]

use crate::harness::{summarize, BenchStats};
use crate::table::print_table;
use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::SnackPlatform;
use snacknoc_noc::{Network, NetStats, NocConfig, NodeId, PacketSpec, Stepping, TrafficClass};
use snacknoc_prng::Rng;
use snacknoc_trace::Json;
use std::time::Instant;

/// One `Network::step` timing scenario.
#[derive(Clone, Debug)]
pub struct StepScenario {
    /// Scenario label (e.g. `idle`).
    pub name: &'static str,
    /// Mesh columns.
    pub cols: usize,
    /// Mesh rows.
    pub rows: usize,
    /// Injection rate in packets per node per cycle (0.0 = idle mesh).
    pub injection: f64,
    /// Simulated cycles per timed iteration.
    pub cycles: u64,
    /// Schedule seed.
    pub seed: u64,
}

impl StepScenario {
    /// `name/COLSxROWS` display label.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{}x{}", self.name, self.cols, self.rows)
    }
}

/// The canonical scenario set behind the committed `BENCH_perf.json`:
/// the idle mesh (the paper's common case — SnackNoC computes in *spare*
/// NoC bandwidth), a paper-sweep low injection rate, and saturation.
#[must_use]
pub fn default_step_scenarios() -> Vec<StepScenario> {
    vec![
        StepScenario { name: "idle", cols: 16, rows: 16, injection: 0.0, cycles: 20_000, seed: 11 },
        StepScenario { name: "low", cols: 16, rows: 16, injection: 0.002, cycles: 20_000, seed: 12 },
        StepScenario {
            name: "saturation",
            cols: 16,
            rows: 16,
            injection: 0.15,
            cycles: 5_000,
            seed: 13,
        },
        // The loaded-path scaling row (PR 10): same saturation regime on a
        // 4x-larger mesh, where payload pooling and the bitmask allocator
        // dominate the wall clock.
        StepScenario {
            name: "saturation",
            cols: 32,
            rows: 32,
            injection: 0.15,
            cycles: 2_000,
            seed: 14,
        },
    ]
}

/// A reduced grid for the CI `--smoke` gate: small meshes, short runs —
/// enough to exercise every code path and the bit-identity check without
/// meaningful wall-clock cost.
#[must_use]
pub fn smoke_step_scenarios() -> Vec<StepScenario> {
    vec![
        StepScenario { name: "idle", cols: 8, rows: 8, injection: 0.0, cycles: 2_000, seed: 11 },
        StepScenario { name: "low", cols: 8, rows: 8, injection: 0.01, cycles: 2_000, seed: 12 },
        StepScenario {
            name: "saturation",
            cols: 8,
            rows: 8,
            injection: 0.2,
            cycles: 1_000,
            seed: 13,
        },
    ]
}

/// One scheduled injection: (cycle, src, dst, vnet).
type Injection = (u64, usize, usize, u8);

/// Pre-generates the uniform-random injection schedule for `s`, sorted by
/// cycle. Generated once per scenario so the dense and event runs replay
/// identical traffic.
#[must_use]
pub fn build_schedule(s: &StepScenario, cfg: &NocConfig) -> Vec<Injection> {
    let n = s.cols * s.rows;
    let mut rng = Rng::new(s.seed ^ 0x5EED_9E37_79B9_7F4A);
    let mut schedule = Vec::new();
    if s.injection <= 0.0 {
        return schedule;
    }
    for cycle in 0..s.cycles {
        for src in 0..n {
            if rng.unit_f64() < s.injection {
                let dst = {
                    let d = rng.range_usize(0..n - 1);
                    if d >= src {
                        d + 1
                    } else {
                        d
                    }
                };
                let vnet = rng.range(0..u64::from(cfg.vnets)) as u8;
                schedule.push((cycle, src, dst, vnet));
            }
        }
    }
    schedule
}

/// Canonical fingerprint of a network run: every deterministic simulation
/// counter the statistics layer exposes, formatted into one string. Two
/// runs are "identical" for `BENCH_perf.json` purposes iff these bytes
/// match.
#[must_use]
pub fn stats_fingerprint(injected: u64, delivered: u64, pending: u64, stats: &NetStats) -> String {
    let mut out = format!(
        "injected={injected} delivered={delivered} pending={pending} \
         inj_flits={} xbar={} occ_total={} occ_zero={:.12e} occ_dropped={} \
         occ_c50={:.12e} occ_c90={:.12e} \
         xbar_med={:.12e} xbar_peak={:.12e} link_med={:.12e} link_peak={:.12e} \
         perr={}/{}/{}",
        stats.injected_flits,
        stats.crossbar_transfers,
        stats.occupancy.total_cycles(),
        stats.occupancy.zero_fraction(),
        stats.occupancy.dropped_samples(),
        stats.occupancy.cumulative_at(50),
        stats.occupancy.cumulative_at(90),
        stats.median_crossbar_utilization(),
        stats.peak_crossbar_utilization(),
        stats.median_link_utilization(),
        stats.peak_link_utilization(),
        stats.protocol_errors.tail_without_head,
        stats.protocol_errors.missing_payload,
        stats.protocol_errors.duplicate_head,
    );
    for class in [TrafficClass::Communication, TrafficClass::SnackInstruction, TrafficClass::SnackData]
    {
        let c = stats.class(class);
        out.push_str(&format!(
            " [{class:?}: d={} f={} ls={} lm={} p50={} p99={}]",
            c.delivered,
            c.flits,
            c.latency_sum,
            c.latency_max,
            c.latency_hist.percentile(50.0),
            c.latency_hist.percentile(99.0),
        ));
    }
    out
}

/// The flit counts a step row reports, taken from its untimed dense
/// reference run.
#[derive(Clone, Copy, Debug)]
struct FlitCounts {
    injected: u64,
    delivered: u64,
    ni_backlog_end: u64,
}

impl FlitCounts {
    fn of(stats: &NetStats, ni_backlog_end: u64) -> Self {
        let classes =
            [TrafficClass::Communication, TrafficClass::SnackInstruction, TrafficClass::SnackData];
        FlitCounts {
            injected: stats.injected_flits,
            delivered: classes.iter().map(|&c| stats.class(c).flits).sum(),
            ni_backlog_end,
        }
    }
}

/// Runs `s` once in the given mode, replaying `schedule`. Returns the
/// wall time of the stepping loop (ns), the simulation fingerprint, and
/// the flit counts.
///
/// Dense mode drives the canonical per-cycle loop (inject, step, drain —
/// the original baseline driver). Event mode drives the same schedule
/// through [`Network::step_until`] segments between injection cycles,
/// which is where the time-wheel earns its jumps; the drain cadence
/// differs but draining is stats-neutral, so the fingerprints must still
/// match byte-for-byte.
fn run_step_once(
    s: &StepScenario,
    cfg: &NocConfig,
    schedule: &[Injection],
    mode: Stepping,
) -> (u64, String, FlitCounts) {
    let mut net: Network<u64> = Network::new(cfg.clone()).expect("valid perf config");
    net.set_stepping(mode);
    let mut cursor = 0usize;
    let mut drained: Vec<_> = Vec::new();
    let nodes: Vec<NodeId> = net.mesh().nodes().collect();
    let t0 = Instant::now();
    match mode {
        Stepping::Event => {
            while cursor < schedule.len() {
                let at = schedule[cursor].0;
                net.step_until(at);
                for &node in &nodes {
                    net.drain_ejected_into(node, &mut drained);
                }
                drained.clear();
                while cursor < schedule.len() && schedule[cursor].0 == at {
                    let (_, src, dst, vnet) = schedule[cursor];
                    let spec = PacketSpec::new(
                        NodeId::new(src),
                        NodeId::new(dst),
                        vnet,
                        TrafficClass::Communication,
                        16,
                        at,
                    );
                    net.inject(spec).expect("schedule produces valid packets");
                    cursor += 1;
                }
            }
            net.step_until(s.cycles);
            for &node in &nodes {
                net.drain_ejected_into(node, &mut drained);
            }
            drained.clear();
        }
        Stepping::Dense => {
            for cycle in 0..s.cycles {
                while cursor < schedule.len() && schedule[cursor].0 == cycle {
                    let (_, src, dst, vnet) = schedule[cursor];
                    let spec = PacketSpec::new(
                        NodeId::new(src),
                        NodeId::new(dst),
                        vnet,
                        TrafficClass::Communication,
                        16,
                        cycle,
                    );
                    net.inject(spec).expect("schedule produces valid packets");
                    cursor += 1;
                }
                net.step();
                // Closed-loop delivery drain, as a platform would do.
                for &node in &nodes {
                    net.drain_ejected_into(node, &mut drained);
                }
                drained.clear();
            }
        }
    }
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let injected = net.injected_packets();
    let delivered = net.delivered_packets();
    let pending = net.pending_packets();
    let backlog = net.total_ni_backlog();
    let stats = net.finalize_stats();
    let fp = stats_fingerprint(injected, delivered, pending, stats);
    (ns, fp, FlitCounts::of(stats, backlog))
}

/// Wall times of one scenario in both stepping modes, and whether every
/// run reproduced the dense oracle's fingerprint.
struct ModeTimes<T> {
    dense: BenchStats,
    event: BenchStats,
    identical: bool,
    /// Extra output of the untimed dense reference run.
    reference: T,
}

/// Times `run` in both modes: one untimed warmup per mode (dense is the
/// reference fingerprint), then `samples` rounds with interleaved mode
/// order to decorrelate from machine noise. `run` returns the wall time
/// (ns), the simulation fingerprint and an extra value kept from the
/// reference run.
fn time_modes<T>(
    label: &str,
    samples: u32,
    mut run: impl FnMut(Stepping) -> (u64, String, T),
) -> ModeTimes<T> {
    let (_, fp_dense, reference) = run(Stepping::Dense);
    let mut identical = run(Stepping::Event).1 == fp_dense;
    let mut ns = [Vec::with_capacity(samples as usize), Vec::with_capacity(samples as usize)];
    for _ in 0..samples {
        for (times, mode) in ns.iter_mut().zip(Stepping::ALL) {
            let (t, fp, _) = run(mode);
            identical &= fp == fp_dense;
            times.push(t);
        }
    }
    let [dense_ns, event_ns] = ns;
    ModeTimes {
        dense: summarize(&format!("{label}/dense"), &dense_ns),
        event: summarize(&format!("{label}/event"), &event_ns),
        identical,
        reference,
    }
}

/// Timing + bit-identity result for one `Network::step` scenario.
#[derive(Clone, Debug)]
pub struct StepTiming {
    /// Scenario label.
    pub name: String,
    /// Simulated cycles per iteration.
    pub sim_cycles: u64,
    /// Packets injected per iteration (same for both modes).
    pub injected_packets: u64,
    /// Flits injected per iteration (same for both modes).
    pub injected_flits: u64,
    /// Flits delivered per iteration (same for both modes).
    pub delivered_flits: u64,
    /// Flits still queued at source NIs when the run ends. Nonzero means
    /// the offered load outran the network, so `flits_per_sec` (counted
    /// at injection) partly measures queue growth.
    pub ni_backlog_end: u64,
    /// Dense reference-loop timings (the baseline).
    pub dense: BenchStats,
    /// Event-driven timings (the default mode).
    pub event: BenchStats,
    /// Whether both modes reported byte-identical simulation statistics.
    pub stats_identical: bool,
}

impl StepTiming {
    /// Simulated cycles per wall-clock second, dense baseline.
    #[must_use]
    pub fn dense_cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 * 1e9 / self.dense.median_ns.max(1) as f64
    }

    /// Simulated cycles per wall-clock second, event-driven.
    #[must_use]
    pub fn event_cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 * 1e9 / self.event.median_ns.max(1) as f64
    }

    /// Injected flits simulated per wall-clock second under the default
    /// (event-driven) stepper — the loaded-path throughput figure. Zero
    /// on idle scenarios.
    #[must_use]
    pub fn flits_per_sec(&self) -> f64 {
        self.injected_flits as f64 * 1e9 / self.event.median_ns.max(1) as f64
    }

    /// Delivered flits simulated per wall-clock second under the default
    /// (event-driven) stepper: the throughput a past-the-knee row cannot
    /// inflate with NI queue growth.
    #[must_use]
    pub fn delivered_flits_per_sec(&self) -> f64 {
        self.delivered_flits as f64 * 1e9 / self.event.median_ns.max(1) as f64
    }

    /// Event-driven speedup over the dense baseline (median-based).
    #[must_use]
    pub fn event_speedup(&self) -> f64 {
        self.dense.median_ns as f64 / self.event.median_ns.max(1) as f64
    }
}

/// Times `s` under both modes (`samples` iterations each) and checks that
/// every iteration of either mode produced the same simulation
/// fingerprint.
///
/// # Panics
///
/// Panics if the scenario's mesh config is invalid.
#[must_use]
pub fn time_step_scenario(s: &StepScenario, samples: u32) -> StepTiming {
    let cfg = NocConfig::default().with_mesh(s.cols as u16, s.rows as u16);
    let schedule = build_schedule(s, &cfg);
    let label = s.label();
    let t = time_modes(&format!("step/{label}"), samples, |mode| {
        run_step_once(s, &cfg, &schedule, mode)
    });
    StepTiming {
        sim_cycles: s.cycles,
        injected_packets: schedule.len() as u64,
        injected_flits: t.reference.injected,
        delivered_flits: t.reference.delivered,
        ni_backlog_end: t.reference.ni_backlog_end,
        dense: t.dense,
        event: t.event,
        stats_identical: t.identical,
        name: label,
    }
}

/// Timing + bit-identity result for one full-kernel run.
#[derive(Clone, Debug)]
pub struct KernelTiming {
    /// `kernel/size` label.
    pub name: String,
    /// Kernel completion latency in simulated cycles (same for both
    /// modes when `stats_identical`).
    pub sim_cycles: u64,
    /// Whether outputs matched the reference interpreter.
    pub verified: bool,
    /// Dense reference-loop timings (the baseline).
    pub dense: BenchStats,
    /// Event-driven timings (the default mode).
    pub event: BenchStats,
    /// Whether both modes agreed on cycles, outputs and statistics.
    pub stats_identical: bool,
}

impl KernelTiming {
    /// Event-driven speedup over the dense baseline (median-based).
    #[must_use]
    pub fn event_speedup(&self) -> f64 {
        self.dense.median_ns as f64 / self.event.median_ns.max(1) as f64
    }
}

/// Compiles `kernel` at `size` once, then times `Platform::run_kernel`
/// to completion under both stepping modes.
///
/// # Panics
///
/// Panics if the kernel fails to compile, validate or finish — platform
/// bugs, not experimental conditions.
#[must_use]
pub fn time_kernel(
    kernel: snacknoc_workloads::kernels::Kernel,
    size: usize,
    seed: u64,
    samples: u32,
) -> KernelTiming {
    let cfg = NocConfig::default();
    let built = build(kernel, size, seed);
    let mesh = *SnackPlatform::new(cfg.clone()).expect("valid platform config").mesh();
    let mapper = MapperConfig::for_mesh(&mesh);
    let compiled = built.context.compile(built.root, &mapper).expect("kernel compiles");
    compiled.validate().expect("compiled kernel is well-formed");
    let cap = 200 * compiled.len() as u64 + 1_000_000;
    let reference = built.context.interpret(built.root).expect("interpretable");
    let name = format!("{kernel}/{size}");
    let t = time_modes(&format!("kernel/{name}"), samples, |mode| {
        let mut platform = SnackPlatform::new(cfg.clone()).expect("valid platform config");
        platform.set_stepping(mode);
        let t0 = Instant::now();
        let run = platform
            .run_kernel(&compiled, cap)
            .unwrap_or_else(|e| panic!("{kernel} did not finish within {cap} cycles: {e}"));
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let injected = platform.net_injected_packets();
        let delivered = platform.net_delivered_packets();
        let rcu = platform.rcu_stats();
        let fp = format!(
            "cycles={} outputs={:?} rcu={}/{}/{} {}",
            run.cycles,
            run.outputs,
            rcu.executed,
            rcu.captures,
            rcu.stalled_cycles,
            stats_fingerprint(injected, delivered, 0, platform.finalize_stats()),
        );
        (ns, fp, (run.cycles, run.outputs == reference))
    });
    let (sim_cycles, verified) = t.reference;
    KernelTiming {
        sim_cycles,
        verified,
        dense: t.dense,
        event: t.event,
        stats_identical: t.identical,
        name,
    }
}

/// Times a think-heavy closed-loop CMP workload on the full
/// [`SnackPlatform`] run loop under both stepping modes.
///
/// Each core issues a handful of requests separated by long exponential
/// think gaps (mean `think_time` cycles), so most of the simulated window
/// is genuinely dead time between bursts — the regime the event-driven
/// time-wheel (DESIGN.md §11) is built for. Reported as an extra
/// [`StepTiming`] row named `closed-loop/COLSxROWS`.
///
/// # Panics
///
/// Panics if the platform config is invalid — a bench bug, not an
/// experimental condition.
#[must_use]
pub fn time_closed_loop(cycles: u64, samples: u32) -> StepTiming {
    use snacknoc_workloads::{BenchmarkProfile, Phase};
    let cfg = NocConfig::default().with_mesh(8, 8);
    let profile = BenchmarkProfile {
        name: "closed-loop",
        phases: vec![Phase::smooth(4, 6_000.0)],
        outstanding: 1,
    };
    let t = time_modes("step/closed-loop/8x8", samples, |mode| {
        let mut p = SnackPlatform::new(cfg.clone()).expect("valid platform config");
        p.set_stepping(mode);
        p.attach_workload(&profile, 29);
        let t0 = Instant::now();
        p.run(cycles);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let injected = p.net_injected_packets();
        let delivered = p.net_delivered_packets();
        let done = p.workload_done();
        let runtime = p.workload_runtime();
        let backlog = p.net_ni_backlog();
        let stats = p.finalize_stats();
        let fp = format!(
            "done={done} runtime={runtime:?} {}",
            stats_fingerprint(injected, delivered, 0, stats),
        );
        (ns, fp, (injected, FlitCounts::of(stats, backlog)))
    });
    let (injected_packets, flits) = t.reference;
    StepTiming {
        name: "closed-loop/8x8".to_string(),
        sim_cycles: cycles,
        injected_packets,
        injected_flits: flits.injected,
        delivered_flits: flits.delivered,
        ni_backlog_end: flits.ni_backlog_end,
        dense: t.dense,
        event: t.event,
        stats_identical: t.identical,
    }
}

/// The full `BENCH_perf.json` payload.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// The host's hardware thread count: context for the wall-clock
    /// columns (the bit-identity columns are machine-independent, the
    /// wall-clock columns are not).
    pub host_threads: usize,
    /// `Network::step` scenario results.
    pub step: Vec<StepTiming>,
    /// Full-kernel results.
    pub kernels: Vec<KernelTiming>,
}

impl PerfReport {
    /// Every scenario and kernel reported byte-identical simulation
    /// statistics under both stepping modes.
    #[must_use]
    pub fn all_identical(&self) -> bool {
        self.step.iter().all(|s| s.stats_identical)
            && self.kernels.iter().all(|k| k.stats_identical && k.verified)
    }

    /// The idle-mesh speedup (event vs dense), if an `idle` scenario ran.
    #[must_use]
    pub fn idle_event_speedup(&self) -> Option<f64> {
        self.step.iter().find(|s| s.name.starts_with("idle")).map(StepTiming::event_speedup)
    }

    /// The `snacknoc-perf-v3` JSON document (v3 dropped the
    /// sharded-stepping rows and the `active_*` columns when those modes
    /// were removed; v2 added per-row `flits_per_sec` and the
    /// `saturation/32x32` scaling row, DESIGN.md §14). Wall-clock fields
    /// are machine-dependent; the `stats_identical` fields are the
    /// determinism contract. Rates keep one decimal and speedups three.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let step = self.step.iter().map(|s| {
            let counts = fields!(s; name, sim_cycles, injected_packets, injected_flits,
                delivered_flits, ni_backlog_end);
            Json::obj(counts.into_iter().chain([
                ("dense_median_ns", s.dense.median_ns.into()),
                ("dense_p90_ns", s.dense.p90_ns.into()),
                ("event_median_ns", s.event.median_ns.into()),
                ("event_p90_ns", s.event.p90_ns.into()),
                ("dense_cycles_per_sec", Json::rounded(s.dense_cycles_per_sec(), 1)),
                ("event_cycles_per_sec", Json::rounded(s.event_cycles_per_sec(), 1)),
                ("flits_per_sec", Json::rounded(s.flits_per_sec(), 1)),
                ("delivered_flits_per_sec", Json::rounded(s.delivered_flits_per_sec(), 1)),
                ("event_speedup", Json::rounded(s.event_speedup(), 3)),
                ("stats_identical", s.stats_identical.into()),
            ]))
        });
        let kernels = self.kernels.iter().map(|k| {
            Json::obj(fields!(k; name, sim_cycles, verified).into_iter().chain([
                ("dense_median_ns", k.dense.median_ns.into()),
                ("dense_p90_ns", k.dense.p90_ns.into()),
                ("event_median_ns", k.event.median_ns.into()),
                ("event_p90_ns", k.event.p90_ns.into()),
                ("event_speedup", Json::rounded(k.event_speedup(), 3)),
                ("stats_identical", k.stats_identical.into()),
            ]))
        });
        Json::obj([
            ("schema", Json::Str("snacknoc-perf-v3".into())),
            ("host_threads", self.host_threads.into()),
            ("step", Json::Arr(step.collect())),
            ("kernels", Json::Arr(kernels.collect())),
        ])
    }

    /// Prints the human-readable report tables.
    pub fn print_tables(&self) {
        let step_rows: Vec<Vec<String>> = self
            .step
            .iter()
            .map(|s| {
                vec![
                    s.name.clone(),
                    s.sim_cycles.to_string(),
                    format!("{:.2e}", s.dense_cycles_per_sec()),
                    format!("{:.2e}", s.event_cycles_per_sec()),
                    format!("{:.2e}", s.flits_per_sec()),
                    format!("{:.2e}", s.delivered_flits_per_sec()),
                    s.ni_backlog_end.to_string(),
                    format!("{:.2}x", s.event_speedup()),
                    if s.stats_identical { "yes".into() } else { "NO".into() },
                ]
            })
            .collect();
        print_table(
            &[
                "step scenario",
                "cycles",
                "dense cyc/s",
                "event cyc/s",
                "flits/s",
                "delivered/s",
                "NI backlog",
                "event speedup",
                "bit-identical",
            ],
            &step_rows,
        );
        let kernel_rows: Vec<Vec<String>> = self
            .kernels
            .iter()
            .map(|k| {
                vec![
                    k.name.clone(),
                    k.sim_cycles.to_string(),
                    crate::harness::fmt_ns(k.dense.median_ns),
                    crate::harness::fmt_ns(k.event.median_ns),
                    format!("{:.2}x", k.event_speedup()),
                    if k.stats_identical && k.verified { "yes".into() } else { "NO".into() },
                ]
            })
            .collect();
        print_table(
            &[
                "kernel",
                "sim cycles",
                "dense median",
                "event median",
                "event speedup",
                "bit-identical",
            ],
            &kernel_rows,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snacknoc_workloads::kernels::Kernel;

    #[test]
    fn schedule_is_deterministic_and_respects_rate() {
        let s = StepScenario { name: "low", cols: 4, rows: 4, injection: 0.05, cycles: 500, seed: 3 };
        let cfg = NocConfig::default().with_mesh(s.cols as u16, s.rows as u16);
        let a = build_schedule(&s, &cfg);
        let b = build_schedule(&s, &cfg);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(!a.is_empty());
        // ~0.05 * 16 nodes * 500 cycles = ~400 expected; be generous.
        assert!(a.len() > 100 && a.len() < 1200, "rate plausible: {}", a.len());
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by cycle");
        assert!(a.iter().all(|&(_, src, dst, _)| src != dst && src < 16 && dst < 16));
        let idle =
            StepScenario { name: "idle", cols: 4, rows: 4, injection: 0.0, cycles: 500, seed: 3 };
        assert!(build_schedule(&idle, &cfg).is_empty());
    }

    #[test]
    fn step_scenarios_are_bit_identical_across_modes() {
        for s in smoke_step_scenarios() {
            let small = StepScenario { cols: 4, rows: 4, cycles: 300, ..s };
            let t = time_step_scenario(&small, 1);
            assert!(t.stats_identical, "{}: event stepping diverged from dense", t.name);
            if small.injection > 0.0 {
                assert!(t.injected_packets > 0, "{}: schedule injected nothing", t.name);
            }
        }
    }

    #[test]
    fn closed_loop_scenario_is_bit_identical_across_modes() {
        let t = time_closed_loop(30_000, 1);
        assert!(t.stats_identical, "closed-loop: event stepping diverged from dense");
        assert!(t.injected_packets > 0, "closed-loop workload injected nothing");
    }

    #[test]
    fn kernel_timing_is_bit_identical_and_verified() {
        let k = time_kernel(Kernel::Mac, 12, 7, 1);
        assert!(k.verified, "outputs match the interpreter");
        assert!(k.stats_identical, "event vs dense kernel run diverged");
        assert!(k.sim_cycles > 0);
    }

    #[test]
    fn stats_fingerprint_reports_true_percentiles() {
        // A hotspot burst spreads latencies over several histogram
        // buckets, so p50/p99 differ from the 0.5th/0.99th percentiles.
        let mut net: Network<u64> =
            Network::new(NocConfig::default().with_mesh(4, 4)).expect("valid config");
        let hot = net.mesh().node_at(0, 0);
        for node in net.mesh().nodes().collect::<Vec<_>>() {
            for i in 0..8 {
                let spec = PacketSpec::new(node, hot, 0, TrafficClass::Communication, 64, i);
                net.inject(spec).expect("valid packet");
            }
        }
        net.run_until_drained(100_000).expect("the burst drains");
        let h = &net.stats().class(TrafficClass::Communication).latency_hist;
        let (p50, p99) = (h.percentile(50.0), h.percentile(99.0));
        assert!(p50 > h.percentile(0.5), "the burst spreads latencies");
        let fp = stats_fingerprint(net.injected_packets(), net.delivered_packets(), 0, net.stats());
        assert!(fp.contains(&format!("p50={p50} p99={p99}]")), "{fp}");
    }

    #[test]
    fn json_schema_has_required_fields() {
        let s = StepScenario { name: "idle", cols: 4, rows: 4, injection: 0.0, cycles: 200, seed: 1 };
        let report = PerfReport {
            host_threads: 2,
            step: vec![time_step_scenario(&s, 1)],
            kernels: vec![time_kernel(Kernel::Mac, 8, 7, 1)],
        };
        let json = report.to_json();
        assert_eq!(json.get("schema").and_then(Json::as_str), Some("snacknoc-perf-v3"));
        assert_eq!(json.get("host_threads").and_then(Json::as_f64), Some(2.0));
        let step = &json.get("step").and_then(Json::as_arr).expect("step rows")[0];
        let kernel = &json.get("kernels").and_then(Json::as_arr).expect("kernel rows")[0];
        for field in [
            "injected_flits",
            "flits_per_sec",
            "delivered_flits",
            "delivered_flits_per_sec",
            "ni_backlog_end",
            "dense_cycles_per_sec",
            "event_cycles_per_sec",
            "dense_median_ns",
            "event_median_ns",
            "event_p90_ns",
            "event_speedup",
        ] {
            assert!(step.get(field).and_then(Json::as_f64).is_some(), "step row lacks {field}");
        }
        for row in [step, kernel] {
            assert_eq!(row.get("stats_identical").and_then(Json::as_bool), Some(true));
        }
        for obj in [&json, step, kernel] {
            let Json::Obj(pairs) = obj else { panic!("the report and its rows are objects") };
            for (key, _) in pairs {
                let gone =
                    key.starts_with("active_") || key.starts_with("shard") || key == "speedup";
                assert!(!gone, "v3 dropped {key}");
            }
        }
        assert!(report.all_identical());
        assert!(report.idle_event_speedup().is_some());
    }
}
