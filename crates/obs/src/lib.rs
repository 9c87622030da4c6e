//! Workspace-wide observability, built from scratch.
//!
//! Cooperating layers, all cheap enough to leave on:
//!
//! * [`mod@span`] — thread-local hierarchical spans with monotonic
//!   timers. Span paths are interned once, so a span close feeds its
//!   path's latency histogram through a held handle and, while tracing,
//!   the flight recorder below — the one sink every event goes to.
//! * [`metrics`] — a registry of named counters, gauges, and
//!   log-bucketed latency histograms. The latency buckets are powers
//!   of two — the same "store an average per bucket, accept bounded
//!   within-bucket error" trade the paper makes for frequency
//!   histograms, applied to our own telemetry.
//! * [`quality`] — the estimation-quality monitor: (estimate, actual,
//!   Q-error) records per relation/histogram with running aggregates
//!   (count, geometric-mean Q-error, max Q-error, EWMA Q-error) and a
//!   drift watchdog that flags scopes whose recent estimates degrade.
//!   This is the query-feedback stream self-tuning histograms need.
//! * [`trace`] — the provenance flight recorder: a bounded, lock-free,
//!   per-thread log of structured trace events (span open/close, cache
//!   probes, ladder rungs, statistics resolution, WAL and daemon
//!   activity) with causal span ids and a global sequence, exportable
//!   as JSON-lines or a Chrome `trace_event` file.
//! * [`recorder`] — the [`Recorder`] handle that owns a metrics registry
//!   and a trace gate. The process-global recorder is the default; a
//!   component observed in isolation records through a private one.
//!
//! Everything funnels into [`export::prometheus`] (text exposition)
//! and [`export::json`] (driven through the `serde` Serialize/
//! Serializer traits).
//!
//! # Overhead contract
//!
//! A single global [`AtomicBool`] gates every recording path; with
//! recording disabled each instrumentation point is one relaxed atomic
//! load and a branch. The instrumented-but-disabled overhead budget is
//! < 5% on a 1M-row Algorithm *Matrix* scan, enforced by a smoke test
//! in `relstore`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

pub mod export;
pub mod metrics;
pub mod quality;
pub mod recorder;
pub mod span;
pub mod trace;

pub use metrics::{counter, gauge, histogram, labeled, Counter, Gauge, LatencyHistogram};
pub use quality::{record_quality, QualitySnapshot};
pub use recorder::Recorder;
pub use span::{span, SpanGuard};

/// Recording is ON by default; disabling reduces every instrumentation
/// point to a relaxed load + branch.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether recording is currently enabled (relaxed; the fast path).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables all recording.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Serialises unit tests that toggle the global enable flag or assert
/// on global recorder state, so `cargo test`'s parallel runner cannot
/// interleave them.
#[cfg(test)]
pub(crate) fn test_lock() -> parking_lot::MutexGuard<'static, ()> {
    static LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    LOCK.lock()
}

/// Pre-registers the workspace's well-known metric families so every
/// exposition covers them (at zero) even on code paths that never
/// touch, say, the catalog. Call once from a binary's startup.
pub fn register_well_known() {
    for name in [
        "catalog_get_hit_total",
        "catalog_get_miss_total",
        "catalog_get_stale_total",
        "catalog_put_total",
        "catalog_refresh_failure_total",
        "relstore_scan_rows_total",
        "relstore_hash_join_total",
        "engine_queries_total",
        "daemon_refresh_total",
        "daemon_refresh_failure_total",
        "wal_append_total",
        "wal_checkpoint_total",
        "wal_recover_total",
        "wal_torn_tail_total",
        "wal_snapshot_fallback_total",
        "est_cache_hit_total",
        "est_cache_miss_total",
        "est_cache_evict_total",
        "qerror_drift_events_total",
        "qerror_nonfinite_dropped_total",
        "trace_events_dropped_total",
        // Statistics-server (netserve) wire families. Per-tenant
        // variants appear as labeled series the first time a tenant is
        // touched: `net_requests_total{tenant=...}` etc.
        "net_connections_total",
        "net_connections_rejected_total",
        "net_requests_total",
        "net_overloaded_total",
        "net_protocol_errors_total",
        "net_bytes_in_total",
        "net_bytes_out_total",
        "net_deadline_total",
        "client_retry_total",
        // Feedback tuning: steps that changed a histogram vs. steps
        // evaluated but skipped (dead zone, zero mass, unrepresentable).
        "tune_applied_total",
        "tune_skipped_total",
    ] {
        metrics::counter(name);
    }
    // Degradation-ladder rung counters: which tier of statistics
    // answered each estimator lookup — plus the per-rung EWMA Q-error
    // gauge the drift watchdog publishes.
    for rung in ["spec", "end_biased", "trivial", "uniform"] {
        metrics::counter(&labeled("estimate_rung_total", "rung", rung));
        metrics::gauge(&labeled("qerror_ewma", "rung", rung));
    }
    // Durability and daemon health gauges, plus the catalog's current
    // snapshot epoch (bumped once per mutation).
    for name in [
        "wal_journal_bytes",
        "daemon_breaker_closed",
        "daemon_breaker_open",
        "daemon_breaker_half_open",
        "catalog_epoch",
        "net_active_connections",
        "catalog_readonly",
        // Q-error of the most recent feedback observation that tuned a
        // histogram, before and after the step.
        "qerror_pre",
        "qerror_post",
    ] {
        metrics::gauge(name);
    }
    metrics::histogram("daemon_sweep_seconds");
    for class in [
        "trivial",
        "equi_width",
        "equi_depth",
        "v_opt_serial",
        "v_opt_serial_exhaustive",
        "v_opt_end_biased",
        "end_biased",
        "max_diff",
    ] {
        metrics::histogram(&labeled("construction_seconds", "class", class));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_flag_round_trips() {
        let _guard = test_lock();
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }

    #[test]
    fn well_known_metrics_appear_in_exposition() {
        register_well_known();
        let text = export::prometheus();
        assert!(text.contains("catalog_get_hit_total"));
        assert!(text.contains("catalog_get_miss_total"));
        assert!(text.contains(r#"construction_seconds_bucket{class="equi_width""#));
        // Durability / daemon / ladder families land in every exposition
        // even before any maintenance or estimation has run.
        assert!(text.contains("wal_journal_bytes"));
        assert!(text.contains("daemon_breaker_closed"));
        assert!(text.contains("daemon_breaker_open"));
        assert!(text.contains("daemon_breaker_half_open"));
        assert!(text.contains(r#"estimate_rung_total{rung="uniform"}"#));
        assert!(text.contains(r#"estimate_rung_total{rung="spec"}"#));
        assert!(text.contains("daemon_sweep_seconds_bucket"));
        assert!(text.contains("wal_torn_tail_total"));
        assert!(text.contains("daemon_refresh_failure_total"));
        // The hot-read-path family: estimation cache counters and the
        // catalog snapshot epoch.
        assert!(text.contains("est_cache_hit_total"));
        assert!(text.contains("est_cache_miss_total"));
        assert!(text.contains("est_cache_evict_total"));
        assert!(text.contains("catalog_epoch"));
        // The provenance-tracing / drift-watchdog families.
        assert!(text.contains("qerror_drift_events_total"));
        assert!(text.contains("qerror_nonfinite_dropped_total"));
        assert!(text.contains("trace_events_dropped_total"));
        assert!(text.contains(r#"qerror_ewma{rung="spec"}"#));
        assert!(text.contains(r#"qerror_ewma{rung="uniform"}"#));
        // Fault-tolerance families: deadline closes, client retries,
        // and the read-only degraded-mode gauge.
        assert!(text.contains("net_deadline_total"));
        assert!(text.contains("client_retry_total"));
        assert!(text.contains("catalog_readonly"));
    }
}
