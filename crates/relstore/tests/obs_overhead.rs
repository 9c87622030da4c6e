//! The obs overhead contract (see `obs` crate docs): with recording
//! disabled, every instrumentation point must reduce to a relaxed atomic
//! load and a branch. This smoke test pins that down end-to-end: an
//! instrumented 1M-row Algorithm *Matrix* scan with metrics disabled
//! must stay within 5% of the wall time of the same scan with no
//! instrumentation at all.
//!
//! This file holds a single test so the global enable flag cannot race
//! with other tests in the same process.

use freqdist::zipf::zipf_frequencies;
use relstore::generate::relation_from_frequency_set;
use relstore::stats::{count_frequencies, frequency_table, FrequencyTable};
use relstore::Relation;
use std::time::{Duration, Instant};

const ROWS: u64 = 1_000_000;
const DISTINCT: usize = 10_000;
const TRIALS: usize = 5;

/// The scan of `frequency_table` with zero instrumentation: its own
/// counting kernel, called directly, so the baseline is the same
/// algorithm whichever path the kernel takes.
fn bare_frequency_table(relation: &Relation, column: &str) -> FrequencyTable {
    count_frequencies(relation.column_by_name(column).unwrap())
}

fn timed(mut f: impl FnMut()) -> Duration {
    let started = Instant::now();
    f();
    started.elapsed()
}

/// Min-of-N for both variants with strictly interleaved, order-alternated
/// trials, so ambient load (the rest of the suite running in parallel)
/// hits both sides equally.
fn measure_pair(relation: &Relation) -> (Duration, Duration) {
    let mut with_obs = Duration::MAX;
    let mut without_obs = Duration::MAX;
    for round in 0..TRIALS {
        let a = || {
            std::hint::black_box(frequency_table(relation, "a").unwrap());
        };
        let b = || {
            std::hint::black_box(bare_frequency_table(relation, "a"));
        };
        if round % 2 == 0 {
            with_obs = with_obs.min(timed(a));
            without_obs = without_obs.min(timed(b));
        } else {
            without_obs = without_obs.min(timed(b));
            with_obs = with_obs.min(timed(a));
        }
    }
    (with_obs, without_obs)
}

/// Threads used by the concurrent phase.
const SCAN_THREADS: usize = 4;

/// The concurrent variant: every trial runs the scan on `SCAN_THREADS`
/// threads at once and times the whole fan-out. With the old
/// single-mutex metrics registry, disabled instrumentation still
/// serialized concurrent scans on registry probes; the sharded registry
/// must keep the instrumented fan-out within the same 5% budget as the
/// sequential path.
fn measure_pair_concurrent(relation: &Relation) -> (Duration, Duration) {
    let fan_out = |instrumented: bool| {
        std::thread::scope(|s| {
            for _ in 0..SCAN_THREADS {
                s.spawn(move || {
                    if instrumented {
                        std::hint::black_box(frequency_table(relation, "a").unwrap());
                    } else {
                        std::hint::black_box(bare_frequency_table(relation, "a"));
                    }
                });
            }
        });
    };
    let mut with_obs = Duration::MAX;
    let mut without_obs = Duration::MAX;
    for round in 0..TRIALS {
        if round % 2 == 0 {
            with_obs = with_obs.min(timed(|| fan_out(true)));
            without_obs = without_obs.min(timed(|| fan_out(false)));
        } else {
            without_obs = without_obs.min(timed(|| fan_out(false)));
            with_obs = with_obs.min(timed(|| fan_out(true)));
        }
    }
    (with_obs, without_obs)
}

/// Measures with up to two re-measurements before failing: a noisy box
/// can push a single pass past the budget for reasons unrelated to
/// instrumentation.
fn measure_with_retries(mut measure: impl FnMut() -> (Duration, Duration)) -> (Duration, Duration) {
    let mut result = measure();
    for _ in 0..2 {
        if result.0 <= result.1.mul_f64(1.05) {
            break;
        }
        result = measure();
    }
    result
}

#[test]
fn disabled_instrumentation_adds_under_five_percent() {
    let freqs = zipf_frequencies(ROWS, DISTINCT, 1.0).unwrap();
    let relation = relation_from_frequency_set("big", "a", &freqs, 7).unwrap();

    // Same scan, same answer — the baseline really is the same algorithm.
    assert_eq!(
        frequency_table(&relation, "a").unwrap(),
        bare_frequency_table(&relation, "a")
    );

    // Tracing stays fully armed: its own flag is on, so the only thing
    // standing between every trace point and a recorded event is the
    // same master switch — the disabled path must still be one relaxed
    // load + branch, within the identical 105% budget.
    obs::trace::set_trace_enabled(true);
    obs::set_enabled(false);
    let sequential = measure_with_retries(|| measure_pair(&relation));
    let concurrent = measure_with_retries(|| measure_pair_concurrent(&relation));
    obs::set_enabled(true);

    let (with_obs, without_obs) = sequential;
    assert!(
        with_obs <= without_obs.mul_f64(1.05),
        "instrumented scan {with_obs:?} exceeds 105% of bare scan {without_obs:?}"
    );
    let (with_obs, without_obs) = concurrent;
    assert!(
        with_obs <= without_obs.mul_f64(1.05),
        "{SCAN_THREADS}-thread instrumented scan {with_obs:?} exceeds 105% of bare \
         {without_obs:?} — is the metrics registry serializing concurrent readers?"
    );
}
