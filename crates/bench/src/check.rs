//! The CI gates over emitted report files, read back through
//! [`snacknoc_trace::json`]. `scripts/verify.sh` runs them through the
//! `snack-check` binary on every smoke report and on the committed
//! `BENCH_perf.json`; `tests/committed_captures.rs` runs them on every
//! committed capture. A gate checks every row it covers, and a missing
//! or mistyped field fails it.

use snacknoc_trace::{parse_json, validate_chrome_trace, Json};

/// The event median of `saturation/16x16` (ns) in the capture committed
/// before the hot-path data-layout overhaul (EXPERIMENTS.md "Simulator
/// performance"). A saturated network never goes quiescent, so event
/// stepping runs the per-cycle loaded path there.
const SATURATION_16X16_BASELINE_NS: f64 = 1_561_807_930.0;

/// The speedup over [`SATURATION_16X16_BASELINE_NS`] the committed
/// capture must show: the overhaul targeted 1.5x, and the gate keeps
/// margin for slower hosts.
const LOADED_PATH_MIN_SPEEDUP: f64 = 1.2;

/// Fails the enclosing gate with a formatted message unless `$ok` holds.
macro_rules! ensure {
    ($ok:expr, $($msg:tt)+) => {
        let ok: bool = $ok;
        if !ok {
            return Err(format!($($msg)+));
        }
    };
}

/// A report gate: checks a file's text, returning a one-line summary or
/// the first failed gate.
pub type Gate = fn(&str) -> Result<String, String>;

/// Every report kind `snack-check` knows, with its gate.
pub const GATES: [(&str, Gate); 5] = [
    ("chaos", |text| check_chaos(&parse(text)?)),
    ("service", |text| check_service(&parse(text)?)),
    ("perf", |text| check_perf(&parse(text)?)),
    ("perf-capture", |text| check_perf_capture(&parse(text)?)),
    ("trace", check_trace),
];

/// The gate for `kind`, if [`GATES`] has one.
pub fn gate(kind: &str) -> Option<Gate> {
    GATES.iter().find(|(k, _)| *k == kind).map(|&(_, g)| g)
}

/// Checks `text` as a report of `kind` (one of [`GATES`]), returning a
/// one-line summary.
///
/// # Errors
///
/// Returns the first failed gate, the parse error if `text` is not JSON,
/// or an unknown-kind error.
pub fn check(kind: &str, text: &str) -> Result<String, String> {
    gate(kind).ok_or_else(|| format!("unknown report kind '{kind}'"))?(text)
}

fn parse(text: &str) -> Result<Json, String> {
    parse_json(text).map_err(|e| e.to_string())
}

fn get<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field \"{key}\""))
}

fn flag(obj: &Json, key: &str) -> Result<bool, String> {
    get(obj, key)?.as_bool().ok_or_else(|| format!("\"{key}\" is not a boolean"))
}

fn num(obj: &Json, key: &str) -> Result<f64, String> {
    get(obj, key)?.as_f64().ok_or_else(|| format!("\"{key}\" is not a number"))
}

fn string<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    get(obj, key)?.as_str().ok_or_else(|| format!("\"{key}\" is not a string"))
}

/// Runs `gate` on every row of the array `key`, which must be
/// non-empty, naming the failing row; returns the row count.
fn each_row(
    obj: &Json,
    key: &str,
    mut gate: impl FnMut(&Json) -> Result<(), String>,
) -> Result<usize, String> {
    let rows = get(obj, key)?.as_arr().ok_or_else(|| format!("\"{key}\" is not an array"))?;
    ensure!(!rows.is_empty(), "\"{key}\" has no rows");
    for (i, row) in rows.iter().enumerate() {
        gate(row).map_err(|e| format!("{key}[{i}]: {e}"))?;
    }
    Ok(rows.len())
}

fn check_schema(doc: &Json, schema: &str) -> Result<(), String> {
    let found = string(doc, "schema")?;
    ensure!(found == schema, "schema is \"{found}\", expected \"{schema}\"");
    Ok(())
}

/// The chaos gates: the report's invariants hold, every cell agrees
/// across stepping modes, and at least one cell completed through a
/// remap or failover.
fn check_chaos(doc: &Json) -> Result<String, String> {
    ensure!(flag(doc, "invariants_hold")?, "the report has an invariant violation");
    let cells = each_row(doc, "cells", |c| {
        ensure!(flag(c, "modes_agree")?, "diverged across stepping modes");
        Ok(())
    })?;
    let degraded = num(doc, "degraded_completions")?;
    ensure!(degraded >= 1.0, "no cell exercised remap/failover");
    Ok(format!("{cells} cells agree across modes, {degraded} degraded completions"))
}

/// The service gates: schema tag, invariants, Guaranteed p99 protected
/// at peak, admission control tripped at peak, and on every load level
/// dense/event identity, a Jain fairness number in [0, 1], p50/p90/p99
/// on every class row and p99 on every tenant row.
fn check_service(doc: &Json) -> Result<String, String> {
    check_schema(doc, "snacknoc-service-v1")?;
    ensure!(flag(doc, "invariants_hold")?, "the report has an invariant violation");
    ensure!(flag(doc, "qos_protected")?, "Guaranteed p99 was not protected at peak");
    let rejections = num(doc, "rejections_at_peak")?;
    ensure!(rejections > 0.0, "peak load never tripped admission control");
    let levels = each_row(doc, "levels", |l| {
        ensure!(flag(l, "modes_identical")?, "diverged across stepping modes");
        let fairness = num(l, "fairness")?;
        ensure!((0.0..=1.0).contains(&fairness), "Jain fairness {fairness} is outside [0, 1]");
        each_row(l, "classes", |c| {
            ["p50", "p90", "p99"].iter().try_for_each(|k| num(c, k).map(drop))
        })?;
        each_row(l, "tenants", |t| num(t, "p99").map(drop))?;
        Ok(())
    })?;
    Ok(format!("{levels} levels identical across modes, {rejections} rejections at peak"))
}

/// Every perf row: bit-identical across stepping modes, with an event
/// median.
fn identical_row(row: &Json) -> Result<(), String> {
    ensure!(flag(row, "stats_identical")?, "event stepping diverged from the dense oracle");
    num(row, "event_median_ns").map(drop)
}

/// The `snack-perf` gates: schema tag; every step and kernel row
/// bit-identical with an event median; every step row carrying
/// `injected_flits`, `flits_per_sec`, `delivered_flits_per_sec` and
/// `ni_backlog_end` as numbers; and event stepping faster than
/// the dense loop on every idle row (structural: the wheel jumps the
/// dead cycles the dense loop walks, so a loaded host keeps it true).
fn check_perf(doc: &Json) -> Result<String, String> {
    check_schema(doc, "snacknoc-perf-v3")?;
    let mut idle = None;
    let step = each_row(doc, "step", |r| {
        identical_row(r)?;
        num(r, "injected_flits")?;
        num(r, "flits_per_sec")?;
        num(r, "delivered_flits_per_sec")?;
        num(r, "ni_backlog_end")?;
        if string(r, "name")?.starts_with("idle") {
            let speedup = num(r, "event_speedup")?;
            ensure!(speedup > 1.0, "idle event_speedup {speedup} is not above the dense baseline");
            idle = Some(speedup);
        }
        Ok(())
    })?;
    let kernels = each_row(doc, "kernels", identical_row)?;
    let idle = idle.ok_or("no idle step row")?;
    Ok(format!("{step} step + {kernels} kernel rows bit-identical, idle event speedup {idle}x"))
}

/// The committed-capture gates: [`check_perf`], a `saturation/32x32`
/// scaling row, and the `saturation/16x16` event median at least
/// [`LOADED_PATH_MIN_SPEEDUP`] times faster than
/// [`SATURATION_16X16_BASELINE_NS`].
fn check_perf_capture(doc: &Json) -> Result<String, String> {
    let perf = check_perf(doc)?;
    let step = get(doc, "step")?.as_arr().unwrap_or_default();
    let row = |name: &str| {
        let found = step.iter().find(|r| r.get("name").and_then(Json::as_str) == Some(name));
        found.ok_or_else(|| format!("no {name} step row"))
    };
    row("saturation/32x32")?;
    let event_ns = num(row("saturation/16x16")?, "event_median_ns")?;
    let speedup = SATURATION_16X16_BASELINE_NS / event_ns;
    ensure!(
        speedup >= LOADED_PATH_MIN_SPEEDUP,
        "saturation/16x16 event median {event_ns} ns is only {speedup:.2}x over the \
         {SATURATION_16X16_BASELINE_NS} ns baseline (need >= {LOADED_PATH_MIN_SPEEDUP}x)"
    );
    Ok(format!("{perf}; loaded-path gate: saturation/16x16 {speedup:.2}x over the baseline"))
}

/// The trace gates: [`validate_chrome_trace`] (the file parses and every
/// component lane has events) and a `process_name` event naming each
/// lane.
///
/// # Errors
///
/// Returns the first failed gate.
pub fn check_trace(text: &str) -> Result<String, String> {
    let s = validate_chrome_trace(text)?;
    let doc = parse(text)?;
    let events = doc.as_arr().unwrap_or_default();
    for (pid, lane) in [(1.0, "router"), (2.0, "rcu"), (3.0, "cpm")] {
        let named = events.iter().any(|e| {
            let is = |key: &str, v: &str| e.get(key).and_then(Json::as_str) == Some(v);
            is("name", "process_name")
                && is("ph", "M")
                && e.get("pid").and_then(Json::as_f64) == Some(pid)
                && e.get("args").is_some_and(|a| a.get("name").and_then(Json::as_str) == Some(lane))
        });
        ensure!(named, "no process_name event names pid {pid} the {lane} lane");
    }
    let (total, router, rcu, cpm) = (s.total_events, s.router_events, s.rcu_events, s.cpm_events);
    Ok(format!("{total} events (router {router}, rcu {rcu}, cpm {cpm})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small hand-built reports that pass their gates. Rows carry only
    /// the fields the gates read.
    const CHAOS: &str = r#"{"invariants_hold": true, "degraded_completions": 1, "cells": [
        {"name": "SGEMM-10/s1", "modes_agree": true},
        {"name": "SGEMM-10/s2", "modes_agree": true}]}"#;

    const SERVICE: &str = r#"{"schema": "snacknoc-service-v1", "invariants_hold": true,
        "qos_protected": true, "rejections_at_peak": 3, "levels": [
        {"load": 40, "modes_identical": true, "fairness": 0.8,
         "classes": [{"p50": 1, "p90": 2, "p99": 3}, {"p50": 1, "p90": 2, "p99": 4}],
         "tenants": [{"p99": 3}, {"p99": 4}]},
        {"load": 200, "modes_identical": true, "fairness": 0.7,
         "classes": [{"p50": 1, "p90": 2, "p99": 3}, {"p50": 1, "p90": 2, "p99": 4}],
         "tenants": [{"p99": 3}, {"p99": 4}]}]}"#;

    const PERF: &str = r#"{"schema": "snacknoc-perf-v3", "host_threads": 2, "step": [
        {"name": "idle/16x16", "injected_flits": 0, "flits_per_sec": 0.0,
         "delivered_flits_per_sec": 0.0, "ni_backlog_end": 0,
         "event_median_ns": 30000, "event_speedup": 3000.0, "stats_identical": true},
        {"name": "saturation/16x16", "injected_flits": 191515, "flits_per_sec": 241419.1,
         "delivered_flits_per_sec": 239000.0, "ni_backlog_end": 120,
         "event_median_ns": 800000000, "event_speedup": 1.0, "stats_identical": true},
        {"name": "saturation/32x32", "injected_flits": 254340, "flits_per_sec": 61876.1,
         "delivered_flits_per_sec": 43200.0, "ni_backlog_end": 52347,
         "event_median_ns": 4100000000, "event_speedup": 1.0, "stats_identical": true}],
        "kernels": [
        {"name": "MAC/24", "event_median_ns": 1000, "stats_identical": true},
        {"name": "SPMV/24", "event_median_ns": 2000, "stats_identical": true}]}"#;

    /// The array element a path segment names: an index, or the row
    /// whose `name` is the segment.
    fn position(items: &[Json], seg: &str) -> usize {
        seg.parse().unwrap_or_else(|_| {
            items
                .iter()
                .position(|r| r.get("name").and_then(Json::as_str) == Some(seg))
                .unwrap_or_else(|| panic!("no row named {seg}"))
        })
    }

    /// Sets (`Some`) or removes (`None`) the member at a dotted path such
    /// as `levels.0.fairness` or `step.saturation/16x16.event_median_ns`.
    fn edit(doc: &mut Json, path: &str, value: Option<Json>) {
        let (parent, last) = path.rsplit_once('.').map_or(("", path), |(p, l)| (p, l));
        let mut node = doc;
        for seg in parent.split('.').filter(|s| !s.is_empty()) {
            node = match node {
                Json::Arr(items) => {
                    let i = position(items, seg);
                    &mut items[i]
                }
                Json::Obj(pairs) => {
                    &mut pairs.iter_mut().find(|(k, _)| k == seg).expect("path exists").1
                }
                _ => panic!("{seg} indexes a scalar"),
            };
        }
        match (node, value) {
            (Json::Arr(items), value) => {
                let i = position(items, last);
                match value {
                    Some(v) => items[i] = v,
                    None => {
                        items.remove(i);
                    }
                }
            }
            (Json::Obj(pairs), value) => {
                let at = pairs.iter().position(|(k, _)| k == last);
                match (at, value) {
                    (Some(i), Some(v)) => pairs[i].1 = v,
                    (Some(i), None) => {
                        pairs.remove(i);
                    }
                    (None, _) => panic!("no member {last}"),
                }
            }
            _ => panic!("{path} is not inside a container"),
        }
    }

    fn edited(base: &str, path: &str, value: Option<Json>) -> String {
        let mut doc = parse_json(base).expect("fixture parses");
        edit(&mut doc, path, value);
        doc.to_string()
    }

    /// Asserts that `base` passes `kind` and that each edit alone makes
    /// it fail with an error containing the given text.
    fn assert_each_edit_fails(kind: &str, base: &str, edits: &[(&str, Option<Json>, &str)]) {
        check(kind, base).unwrap_or_else(|e| panic!("{kind} fixture base fails: {e}"));
        for (path, value, expect) in edits {
            match check(kind, &edited(base, path, value.clone())) {
                Ok(summary) => {
                    panic!("{kind}: editing {path} to {value:?} still passes: {summary}")
                }
                Err(e) => assert!(e.contains(expect), "{kind}: {path}: {e}"),
            }
        }
    }

    fn num(n: f64) -> Option<Json> {
        Some(Json::Num(n))
    }

    #[test]
    fn chaos_gates_fail_on_each_fixture() {
        assert_each_edit_fails(
            "chaos",
            CHAOS,
            &[
                ("invariants_hold", Some(Json::Bool(false)), "invariant violation"),
                ("invariants_hold", None, "missing field \"invariants_hold\""),
                ("cells.1.modes_agree", Some(Json::Bool(false)), "diverged"),
                ("cells.0.modes_agree", None, "missing field \"modes_agree\""),
                ("cells", Some(Json::Arr(vec![])), "no rows"),
                ("degraded_completions", num(0.0), "remap/failover"),
                ("degraded_completions", None, "missing field"),
            ],
        );
    }

    #[test]
    fn service_gates_fail_on_each_fixture() {
        assert_each_edit_fails(
            "service",
            SERVICE,
            &[
                ("schema", Some(Json::Str("snacknoc-service-v0".into())), "schema"),
                ("invariants_hold", Some(Json::Bool(false)), "invariant violation"),
                ("qos_protected", Some(Json::Bool(false)), "Guaranteed p99"),
                ("rejections_at_peak", num(0.0), "admission control"),
                ("rejections_at_peak", None, "missing field"),
                ("levels", Some(Json::Arr(vec![])), "no rows"),
                ("levels.1.modes_identical", Some(Json::Bool(false)), "diverged"),
                ("levels.0.fairness", num(-0.25), "outside [0, 1]"),
                ("levels.1.fairness", num(1.5), "outside [0, 1]"),
                ("levels.0.fairness", Some(Json::Null), "not a number"),
                ("levels.0.fairness", None, "missing field \"fairness\""),
                ("levels.0.classes.0.p50", None, "missing field \"p50\""),
                ("levels.1.classes.1.p90", None, "missing field \"p90\""),
                ("levels.1.classes.0.p99", None, "missing field \"p99\""),
                ("levels.0.tenants.1.p99", None, "missing field \"p99\""),
                ("levels.0.classes", None, "missing field \"classes\""),
                ("levels.0.tenants", None, "missing field \"tenants\""),
            ],
        );
        for bound in [0.0, 1.0] {
            let text = edited(SERVICE, "levels.0.fairness", num(bound));
            assert!(check("service", &text).is_ok(), "fairness {bound} is in [0, 1]");
        }
    }

    #[test]
    fn perf_gates_fail_on_each_fixture() {
        assert_each_edit_fails(
            "perf",
            PERF,
            &[
                ("schema", Some(Json::Str("snacknoc-perf-v2".into())), "schema"),
                ("step.saturation/16x16.stats_identical", Some(Json::Bool(false)), "diverged"),
                ("kernels.SPMV/24.stats_identical", Some(Json::Bool(false)), "diverged"),
                ("kernels.MAC/24.stats_identical", None, "missing field"),
                ("step.idle/16x16.event_median_ns", None, "missing field \"event_median_ns\""),
                ("kernels.SPMV/24.event_median_ns", None, "missing field \"event_median_ns\""),
                ("step.saturation/16x16.injected_flits", None, "missing field \"injected_flits\""),
                ("step.saturation/32x32.flits_per_sec", None, "missing field \"flits_per_sec\""),
                (
                    "step.saturation/16x16.delivered_flits_per_sec",
                    None,
                    "missing field \"delivered_flits_per_sec\"",
                ),
                (
                    "step.idle/16x16.delivered_flits_per_sec",
                    Some(Json::Str("fast".into())),
                    "\"delivered_flits_per_sec\" is not a number",
                ),
                ("step.saturation/32x32.ni_backlog_end", None, "missing field \"ni_backlog_end\""),
                (
                    "step.saturation/16x16.ni_backlog_end",
                    Some(Json::Null),
                    "\"ni_backlog_end\" is not a number",
                ),
                ("step.idle/16x16.event_speedup", num(1.0), "not above the dense baseline"),
                ("step.idle/16x16.name", Some(Json::Str("busy/16x16".into())), "no idle step row"),
                ("kernels", Some(Json::Arr(vec![])), "no rows"),
            ],
        );
    }

    #[test]
    fn perf_capture_gates_fail_on_each_fixture() {
        let sat16 = "step.saturation/16x16";
        assert_each_edit_fails(
            "perf-capture",
            PERF,
            &[
                ("schema", Some(Json::Str("snacknoc-perf-v2".into())), "schema"),
                ("step.saturation/32x32.stats_identical", Some(Json::Bool(false)), "diverged"),
                (
                    "step.saturation/32x32.name",
                    Some(Json::Str("saturation/64x64".into())),
                    "no saturation/32x32",
                ),
                (
                    &format!("{sat16}.name"),
                    Some(Json::Str("saturation/8x8".into())),
                    "no saturation/16x16",
                ),
                (&format!("{sat16}.event_median_ns"), num(1_400_000_000.0), "need >= 1.2x"),
            ],
        );
        let at_bound = edited(
            PERF,
            &format!("{sat16}.event_median_ns"),
            num(SATURATION_16X16_BASELINE_NS / 1.2),
        );
        assert_eq!(
            check("perf-capture", &at_bound).map(|s| s.ends_with("1.20x over the baseline")),
            Ok(true),
            "exactly 1.2x passes"
        );
    }

    fn trace(events: &[&str]) -> String {
        format!("[{}]", events.join(","))
    }

    const LANES: [&str; 3] = [
        r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"router"}}"#,
        r#"{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"rcu"}}"#,
        r#"{"name":"process_name","ph":"M","pid":3,"tid":0,"args":{"name":"cpm"}}"#,
    ];
    const EVENTS: [&str; 3] = [
        r#"{"name":"x","ph":"i","ts":1,"pid":1,"tid":0,"args":{}}"#,
        r#"{"name":"y","ph":"i","ts":2,"pid":2,"tid":0,"args":{}}"#,
        r#"{"name":"z","ph":"X","ts":3,"dur":2,"pid":3,"tid":0,"args":{}}"#,
    ];

    #[test]
    fn trace_gates_fail_on_each_fixture() {
        let good = trace(&[LANES.as_slice(), EVENTS.as_slice()].concat());
        assert_eq!(check("trace", &good), Ok("3 events (router 1, rcu 1, cpm 1)".to_string()));
        for lane in 0..3 {
            let mut lanes = LANES.to_vec();
            lanes.remove(lane);
            let bad = trace(&[lanes.as_slice(), EVENTS.as_slice()].concat());
            assert!(check("trace", &bad).unwrap_err().contains("process_name"));
        }
        let mislabeled = LANES[1].replace("\"rcu\"", "\"cpm\"");
        let bad = trace(&[LANES[0], &mislabeled, LANES[2], EVENTS[0], EVENTS[1], EVENTS[2]]);
        assert!(check("trace", &bad).unwrap_err().contains("rcu lane"));
        let no_rcu_events = trace(&[LANES[0], LANES[1], LANES[2], EVENTS[0], EVENTS[2]]);
        assert!(check("trace", &no_rcu_events).unwrap_err().contains("rcu-lane"));
        assert!(check("trace", "[").is_err(), "unparseable trace");
    }

    #[test]
    fn unknown_kinds_and_unparseable_reports_fail() {
        assert!(gate("perf_capture").is_none());
        assert!(check("perf_capture", PERF).unwrap_err().contains("unknown report kind"));
        for (kind, _) in GATES {
            assert!(check(kind, "{").is_err(), "{kind} accepts unparseable text");
        }
    }
}
