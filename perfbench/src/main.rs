//! Cross-commit benchmark of the SnackNoC simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload noc-uniform --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload against the library's public API for `--seconds`,
//! checks its outputs, prints every metric by name with its unit, a digest
//! of all simulated statistics, and last a one-line JSON result. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! untraced and traced passes alternate and the metrics are the per-layer
//! ones, derived from spans and counters recorded around each library
//! call (written to `perfbench/out/<workload>.trace.json`). Exits 1 when
//! the correctness gate fails and 2 on bad arguments. See `README.md`.

mod kernel_stream;
mod noc_uniform;
mod quantile;
mod service_mixed;
mod spans;

use spans::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// Builds [`Metrics`] from `(name, value)` pairs.
pub fn metrics<'a>(pairs: impl IntoIterator<Item = (&'a str, f64)>) -> Metrics {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// What a workload run reports.
pub struct Outcome {
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations that failed over all passes.
    pub failed: u64,
    /// Correctness-gate failures; empty when every check passed.
    pub errors: Vec<String>,
    /// Every simulated statistic of one pass, identical on every pass.
    pub digest: String,
    /// End-to-end or per-layer metrics, plus the simulated statistics.
    pub metrics: Metrics,
    /// The traced run's recorder.
    pub tracer: Option<Tracer>,
}

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["noc-uniform", "kernel-stream", "service-mixed"];

/// End-to-end metrics and their units, reported by every workload.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
    ("throughput_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("sim_cycles", "cycles"),
    ("sim_p99_cycles", "cycles"),
];

/// Per-layer metrics and their units. A workload that does not exercise
/// a layer reports 0 for its metrics.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("noc.step.ns_per_cycle", "ns"),
        ("noc.step.share", "ratio"),
        ("noc.inject.ns_per_call", "ns"),
        ("noc.drain.ns_per_cycle", "ns"),
        ("noc.ns_per_xbar_transfer", "ns"),
        ("noc.xbar_transfers", "count"),
        ("noc.injected_flits", "count"),
        ("noc.delivered_packets", "count"),
        ("noc.ni_backlog_end", "count"),
        ("noc.latency_p50_cycles", "cycles"),
        ("noc.xbar_util_median", "ratio"),
        ("noc.link_util_median", "ratio"),
        ("noc.payload_pool_high_water", "count"),
        ("noc.lost_packets", "count"),
        ("noc.protocol_errors", "count"),
        ("noc.stuck_packets", "count"),
        ("noc.snack_flits", "count"),
        ("noc.snack_latency_p99_cycles", "cycles"),
        ("core.sim_cycles", "cycles"),
        ("core.ns_per_sim_cycle", "ns"),
        ("core.ns_per_rcu_op", "ns"),
        ("core.rcu.executed", "count"),
        ("core.rcu.captures", "count"),
        ("core.rcu.stalled_cycles", "cycles"),
        ("core.cpm.instructions_issued", "count"),
        ("core.cpm.packets_issued", "count"),
        ("core.cpm.overflow_cycles", "cycles"),
        ("core.cpm.spill_ratio", "ratio"),
        ("core.cpm.busy_rejections", "count"),
        ("workloads.cmp.ns_per_cycle", "ns"),
        ("workloads.cmp.packets", "count"),
        ("service.run.ns_per_cycle", "ns"),
        ("service.run.ns_per_completion", "ns"),
        ("service.submitted", "count"),
        ("service.admitted", "count"),
        ("service.rejected", "count"),
        ("service.aborted", "count"),
        ("service.residual", "count"),
        ("service.completed", "count"),
        ("service.admit_ratio", "ratio"),
        ("service.guaranteed.p50_cycles", "cycles"),
        ("service.burstable.p99_cycles", "cycles"),
        ("service.besteffort.p99_cycles", "cycles"),
        ("service.fairness", "ratio"),
        ("trace.overhead_share", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for k in snacknoc_workloads::kernels::Kernel::ALL.map(kernel_stream::stem) {
        out.push((format!("core.run_kernel.{k}.ms"), "ms"));
        out.push((format!("compiler.build.{k}.ms"), "ms"));
        out.push((format!("compiler.compile.{k}.ms"), "ms"));
        out.push((format!("compiler.instructions.{k}"), "count"));
    }
    out
}

/// Untraced passes every run makes at least, however short `--seconds`.
const MIN_PASSES: usize = 3;

/// Runs `pass` until `budget` has elapsed and at least [`MIN_PASSES`]
/// untraced passes ran. A traced run alternates untraced and traced
/// passes (each traced one inside a `pass` span), so both sets see the
/// same machine conditions. Returns (untraced, traced, recorder).
pub fn repeat<P>(
    budget: Duration,
    traced: bool,
    mut pass: impl FnMut(&mut Tracer) -> P,
) -> (Vec<P>, Vec<P>, Tracer) {
    let start = Instant::now();
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
    loop {
        plain.push(pass(&mut off));
        if traced {
            tr.begin("pass");
            with_trace.push(pass(&mut tr));
            tr.end();
        }
        if plain.len() >= MIN_PASSES && start.elapsed() >= budget {
            return (plain, with_trace, tr);
        }
    }
}

/// The fastest host time each unit of work took: element `i` is the
/// minimum of element `i` over `passes`, which all time the same units.
///
/// The shared host alternates, for minutes at a time, between an
/// uncontended state and one about 1.5x slower. A median over a run
/// lands in whichever state dominated it; the per-unit minimum repeats
/// across runs as long as each unit ran uncontended in some pass.
pub fn unit_minima<'a>(mut passes: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best = passes.next().map(<[f64]>::to_vec).unwrap_or_default();
    for pass in passes {
        for (b, &x) in best.iter_mut().zip(pass) {
            *b = b.min(x);
        }
    }
    best
}

/// Collects every pass's errors, plus one for each pass whose simulated
/// digest differs from the first pass's (the simulator is deterministic,
/// so the same inputs must give the same statistics).
pub fn digest_errors<'a, D: PartialEq + 'a>(
    passes: impl Iterator<Item = (&'a D, &'a Vec<String>)>,
) -> Vec<String> {
    let mut out = Vec::new();
    let mut first: Option<&D> = None;
    for (i, (digest, errors)) in passes.enumerate() {
        out.extend(errors.iter().map(|e| format!("pass {i}: {e}")));
        match first {
            None => first = Some(digest),
            Some(f) if f != digest => {
                out.push(format!("pass {i}: simulated statistics differ from pass 0"))
            }
            Some(_) => {}
        }
    }
    out
}

/// `name=value` for every entry, values printed exactly.
pub fn digest_of(m: &Metrics) -> String {
    let mut s = String::new();
    for (k, v) in m {
        let _ = write!(s, "{k}={v:?} ");
    }
    s.pop();
    s
}

/// The metrics every workload derives the same way from its untraced
/// passes: the median set-up time, `work` done per host-second of
/// `busy_ns`, the p50 and p90 of the per-unit minimum call times
/// `calls` (ns), and `ok_share`.
pub fn host_metrics(
    setups: &[f64],
    work: f64,
    busy_ns: f64,
    calls: &[f64],
    ok_share: f64,
) -> Metrics {
    metrics([
        ("setup_s", quantile::median(setups)),
        ("throughput_per_s", work * 1e9 / busy_ns),
        ("call_p50_ms", ms(quantile::percentile(calls, 50.0))),
        ("call_p90_ms", ms(quantile::percentile(calls, 90.0))),
        ("ok_share", ok_share),
    ])
}

/// `<layer>.<kernel>.ms` for each `(layer, span)` pair and each kernel:
/// the median duration of the spans named `<span>/<kernel>`.
pub fn kernel_span_ms(tr: &Tracer, layers: &[(&str, &str)]) -> Metrics {
    let mut out = Metrics::new();
    for k in snacknoc_workloads::kernels::Kernel::ALL {
        let s = kernel_stream::stem(k);
        for (layer, span) in layers {
            let ns = quantile::median(&tr.durations(&format!("{span}/{s}")));
            out.insert(format!("{layer}.{s}.ms"), ms(ns));
        }
    }
    out
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Median traced wall over median untraced wall, minus 1.
pub fn overhead(plain: impl Iterator<Item = f64>, traced: impl Iterator<Item = f64>) -> f64 {
    let (p, t): (Vec<f64>, Vec<f64>) = (plain.collect(), traced.collect());
    quantile::ratio(quantile::median(&t), quantile::median(&p)) - 1.0
}

/// 64-bit FNV-1a of `s`.
pub fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The process's peak resident set, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <noc-uniform|kernel-stream|service-mixed> \
                     [--seed <u64>] [--seconds <1..=600>] [--trace <0|1>]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = value,
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => {
                a.seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| bad("expected 1..=600"))?;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Writes the recorder's Chrome trace next to this package and validates
/// the file as written.
fn write_trace(tr: &Tracer, workload: &str) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    tr.validate(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(format!("{} ({} spans)", path.display(), tr.span_count()))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let mut out = match args.workload.as_str() {
        "noc-uniform" => noc_uniform::run(&noc_uniform::FULL, args.seed, budget, args.trace),
        "kernel-stream" => kernel_stream::run(&kernel_stream::FULL, args.seed, budget, args.trace),
        _ => service_mixed::run(&service_mixed::FULL, args.seed, budget, args.trace),
    };
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        match peak_rss_mb() {
            Ok(mb) => {
                out.metrics.insert("peak_rss_mb".into(), mb);
            }
            Err(e) => out.errors.push(e),
        }
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    if let Some(tr) = &out.tracer {
        match write_trace(tr, &args.workload) {
            Ok(msg) => println!("trace {msg}"),
            Err(e) => out.errors.push(format!("trace: {e}")),
        }
    }

    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut json = String::new();
    for (name, unit) in &wanted {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() || (!args.trace && value <= 0.0) {
            out.errors.push(format!(
                "metric {name} = {value} is not a positive finite number"
            ));
        }
        println!("metric {name} = {value} {unit}");
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!("digest {:016x} {}", fnv(&out.digest), out.digest);
    if out.attempted == 0 {
        out.errors.push("no operation was attempted".into());
    }
    for e in out.errors.iter().take(20) {
        eprintln!("FAIL {e}");
    }
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snacknoc_trace::json::{self, Json};

    #[test]
    fn benchmark_json_names_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.into()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layer);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    const SMALL_NOC: noc_uniform::Params = noc_uniform::Params {
        cols: 4,
        rows: 4,
        rate: 0.05,
        window: 400,
        drain_cap: 10_000,
    };
    const SMALL_STREAM: kernel_stream::Params = kernel_stream::Params {
        rounds: 1,
        size: Some(6),
    };
    const SMALL_SERVICE: service_mixed::Params = service_mixed::Params {
        load_pct: 180,
        instances: 2,
        timed: 1,
    };

    #[test]
    fn two_seeds_make_different_inputs_and_both_pass_the_gate() {
        let vnets = noc_uniform::config(&SMALL_NOC).vnets;
        assert_ne!(
            noc_uniform::generate(&SMALL_NOC, vnets, 1),
            noc_uniform::generate(&SMALL_NOC, vnets, 2)
        );
        assert_ne!(
            kernel_stream::kernel_seeds(1),
            kernel_stream::kernel_seeds(2)
        );
        assert_ne!(
            service_mixed::specs(&SMALL_SERVICE, 1, 1)[0].seed,
            service_mixed::specs(&SMALL_SERVICE, 2, 1)[0].seed
        );
        let run = |seed: u64, traced: bool| {
            [
                noc_uniform::run(&SMALL_NOC, seed, Duration::ZERO, traced),
                kernel_stream::run(&SMALL_STREAM, seed, Duration::ZERO, traced),
                service_mixed::run(&SMALL_SERVICE, seed, Duration::ZERO, traced),
            ]
        };
        let (one, two) = (run(1, false), run(2, true));
        for (a, b) in one.iter().zip(&two) {
            for out in [a, b] {
                assert!(out.errors.is_empty(), "{:?}", out.errors);
                assert!(out.attempted > 0 && out.failed == 0);
            }
            assert_ne!(
                a.digest, b.digest,
                "different inputs must give different statistics"
            );
            let tr = b.tracer.as_ref().expect("traced run keeps its recorder");
            tr.validate(&tr.chrome_json()).expect("valid trace");
            assert!(b.metrics["trace.overhead_share"].is_finite());
        }
    }

    #[test]
    fn the_gate_catches_an_undrained_network() {
        let p = noc_uniform::Params {
            drain_cap: 0,
            ..SMALL_NOC
        };
        let out = noc_uniform::run(&p, 1, Duration::ZERO, false);
        assert!(
            out.errors.iter().any(|e| e.contains("did not drain")),
            "{:?}",
            out.errors
        );
        assert!(out.failed > 0);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload kernel-stream --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kernel-stream", 7, 3, true)
        );
        for bad in [
            "",
            "--workload x",
            "--workload noc-uniform --trace 2",
            "--workload noc-uniform --seconds 0",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
