//! Meta-tests: the oracle itself is checked for determinism and for the
//! property that disabling any check or failpoint is a detected failure,
//! not a silent coverage gap.

use oracle::invariants::{check_cache_transparent, check_tracing_transparent};
use oracle::{
    reference_snapshot, run, verify_snapshot, Failpoint, FailpointStore, Report, Tier, Workload,
    EXPECTED_CHECKS, EXPECTED_FAULTS,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[test]
fn selftest_passes_and_reports_full_coverage() {
    let report = run(1, 0);
    assert!(report.passed, "violations: {:?}", report.violations);
    assert_eq!(report.checks.len(), EXPECTED_CHECKS.len());
    assert_eq!(report.faults.len(), EXPECTED_FAULTS.len());
    for check in &report.checks {
        assert!(check.cases > 0, "{} verified zero cases", check.name);
    }
    for fault in &report.faults {
        assert!(fault.injected > 0, "{} injected zero faults", fault.name);
    }
}

#[test]
fn selftest_is_byte_deterministic_per_seed() {
    let a = run(7, 0).to_json();
    let b = run(7, 0).to_json();
    assert_eq!(a, b);
    let c = run(8, 0).to_json();
    assert_ne!(a, c, "different seeds must exercise different workloads");
}

#[test]
fn dropping_any_check_fails_validation() {
    let full = run(2, 0);
    for name in EXPECTED_CHECKS {
        let checks = full
            .checks
            .iter()
            .filter(|c| c.name != name)
            .cloned()
            .collect();
        let crippled = Report::new(full.seed, full.tier, checks, full.faults.clone());
        assert!(!crippled.passed, "dropping '{name}' went undetected");
        assert!(
            crippled
                .violations
                .iter()
                .any(|v| v.contains(name) && v.contains("did not run")),
            "no violation naming '{name}': {:?}",
            crippled.violations
        );
    }
}

#[test]
fn dropping_any_fault_scenario_fails_validation() {
    let full = run(2, 0);
    for name in EXPECTED_FAULTS {
        let faults = full
            .faults
            .iter()
            .filter(|f| f.name != name)
            .cloned()
            .collect();
        let crippled = Report::new(full.seed, full.tier, full.checks.clone(), faults);
        assert!(!crippled.passed, "dropping '{name}' went undetected");
    }
}

#[test]
fn tier_scales_with_budget_not_wall_clock() {
    assert_eq!(Tier::from_budget_ms(0), Tier::Quick);
    assert_eq!(Tier::from_budget_ms(9_999), Tier::Quick);
    assert_eq!(Tier::from_budget_ms(30_000), Tier::Standard);
    assert_eq!(Tier::from_budget_ms(500_000), Tier::Thorough);
    // Tier only changes the workload size, never the verdict.
    let standard = run(3, 30_000);
    assert!(standard.passed, "violations: {:?}", standard.violations);
    assert_eq!(standard.tier, Tier::Standard);
}

#[test]
fn reference_snapshot_roundtrips_and_detects_every_byte_flip_sample() {
    let snap = reference_snapshot(1).unwrap();
    let entries = verify_snapshot(snap.clone()).unwrap();
    assert!(entries >= 3, "reference catalog too small: {entries}");

    // Sample a spread of offsets; every single-bit flip must be rejected.
    let bytes = snap.to_vec();
    let step = (bytes.len() / 13).max(1);
    for offset in (0..bytes.len()).step_by(step) {
        let mut bad = bytes.clone();
        bad[offset] ^= 1;
        assert!(
            verify_snapshot(bytes::Bytes::from(bad)).is_err(),
            "bit flip at {offset} accepted"
        );
    }
}

#[test]
fn failpoints_fire_exactly_as_armed() {
    let workload = Workload::generate(4, Tier::Quick);
    let (catalog, _) = oracle::faults::build_reference_catalog(&workload).unwrap();
    let mut store = FailpointStore::new(catalog);
    assert!(store.all_fired(), "no faults armed yet");
    store.arm(Failpoint::CorruptSnapshotByte {
        offset: 5,
        xor: 0x80,
    });
    assert!(!store.all_fired(), "armed fault reported as fired");
    let corrupted = store.snapshot();
    assert!(store.all_fired(), "snapshot fault did not fire");
    assert!(verify_snapshot(corrupted).is_err());
    // The store itself is untouched: a clean snapshot still verifies.
    assert!(verify_snapshot(store.snapshot()).is_ok());
}

#[test]
fn tracing_transparent_ignores_a_sibling_thread_estimating_and_flipping_the_global_gate() {
    // The check must observe only the engine it builds. A sibling thread
    // keeps default engines estimating (bumping the process-global rung
    // counters and emitting events through the global recorder) and
    // flips the global trace gate while the check runs.
    let workload = Workload::generate(1, Tier::Quick);
    let stop = AtomicBool::new(false);
    let sibling_rounds = AtomicU64::new(0);
    let (reports, sibling_reports) = std::thread::scope(|s| {
        let sibling = s.spawn(|| {
            let mut reports = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let round = sibling_rounds.fetch_add(1, Ordering::Relaxed);
                obs::trace::set_trace_enabled(round % 2 == 1);
                reports.push(check_cache_transparent(&workload));
            }
            obs::trace::set_trace_enabled(true);
            reports
        });
        // Start only once the sibling is mid-round, so the two overlap.
        while sibling_rounds.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let reports: Vec<_> = (0..5)
            .map(|_| check_tracing_transparent(&workload))
            .collect();
        stop.store(true, Ordering::Relaxed);
        (reports, sibling.join().expect("sibling thread panicked"))
    });
    for report in &reports {
        assert!(report.cases > 0, "tracing_transparent verified zero cases");
        assert!(report.passed, "failures: {:?}", report.failures);
    }
    for report in &sibling_reports {
        assert!(report.passed, "sibling failures: {:?}", report.failures);
    }
}
