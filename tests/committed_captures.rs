//! The committed captures pass the same gates `snack-check` applies to
//! freshly emitted reports. These tests only parse files, so they add no
//! simulation time.

use snacknoc_bench::check::check;

fn check_capture(kind: &str, name: &str) {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    if let Err(e) = check(kind, &text) {
        panic!("{name}: {e}");
    }
}

#[test]
fn committed_chaos_capture_passes_its_gates() {
    check_capture("chaos", "BENCH_chaos.json");
}

#[test]
fn committed_service_capture_passes_its_gates() {
    check_capture("service", "BENCH_service.json");
}

/// Includes the loaded-path gate: saturation/16x16 at least 1.2x faster
/// than the pre-overhaul baseline.
#[test]
fn committed_perf_capture_passes_its_gates() {
    check_capture("perf-capture", "BENCH_perf.json");
}
