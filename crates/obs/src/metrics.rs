//! The metrics registry: named counters, gauges, and log-bucketed
//! latency histograms. Each [`crate::Recorder`] owns one; the free
//! functions here act on the process-global recorder's.
//!
//! Metric names follow `<subsystem>_<what>_<unit-or-total>` with
//! optional Prometheus-style labels baked into the registry key
//! (`construction_seconds{class="equi_width"}` — see [`labeled`]).
//! Each namespace is sharded across several read-write locks keyed by
//! a hash of the name, so concurrent lookups of different instruments
//! rarely share a lock and never serialise behind one global mutex
//! (bumps themselves are relaxed atomics on the returned handles).
//! Still: instrument per operation, not per row, and hold the returned
//! `Arc` where a path is hot.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Default, Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as bits in an atomic).
#[derive(Default, Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of log₂ latency buckets: bucket `i` counts durations in
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 is `< 1 ns`), up to the full
/// `u64` nanosecond range.
pub const LATENCY_BUCKETS: usize = 65;

/// A latency histogram with power-of-two nanosecond buckets.
///
/// This reuses the paper's central approximation — summarise a
/// distribution by per-bucket aggregates and accept bounded
/// within-bucket error — on the system's own latencies: a value is
/// known to within a factor of 2, which is exactly the granularity
/// latency triage needs.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a duration: 0 for sub-nanosecond, else
/// `64 - leading_zeros(ns)` so bucket `i` covers `[2^(i-1), 2^i)`.
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    (64 - ns.leading_zeros()) as usize
}

impl LatencyHistogram {
    /// Records one duration in nanoseconds.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        if crate::enabled() {
            self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
            self.sum_ns.fetch_add(ns, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a `Duration`.
    #[inline]
    pub fn observe(&self, d: std::time::Duration) {
        self.observe_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (non-cumulative), index per [`bucket_index`].
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) in nanoseconds, reported as the
    /// upper bound of the log₂ bucket holding it — the same
    /// factor-of-two resolution every other consumer of this histogram
    /// gets. Returns `None` when nothing was recorded.
    ///
    /// The rank convention is "smallest value with cumulative count ≥
    /// q·total", so `quantile_ns(0.0)` is the minimum's bucket and
    /// `quantile_ns(1.0)` the maximum's.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                // Bucket i covers [2^(i-1), 2^i): report the upper bound
                // (bucket 0 is the sub-nanosecond bucket, the top
                // bucket's range is capped by the u64 domain itself).
                return Some(match i {
                    0 => 1,
                    64.. => u64::MAX,
                    _ => 1u64 << i,
                });
            }
        }
        Some(u64::MAX)
    }
}

/// Lock shards per instrument namespace. Name-hash sharding keeps
/// concurrent registry probes from different instruments off one
/// global lock (the bench harness must not measure the observer).
const NAMESPACE_SHARDS: usize = 16;

fn shard_index(name: &str) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() as usize) % NAMESPACE_SHARDS
}

/// One namespace of named instruments, sharded by name hash. Each
/// shard keeps a `BTreeMap` so the merged snapshot below stays
/// deterministically ordered.
struct Namespace<T> {
    shards: [RwLock<BTreeMap<String, Arc<T>>>; NAMESPACE_SHARDS],
}

impl<T> Default for Namespace<T> {
    fn default() -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(BTreeMap::new())),
        }
    }
}

impl<T: Default> Namespace<T> {
    fn get_or_insert(&self, name: &str) -> Arc<T> {
        let map = &self.shards[shard_index(name)];
        if let Some(found) = map.read().get(name) {
            return Arc::clone(found);
        }
        Arc::clone(
            map.write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(T::default())),
        )
    }

    /// Name-sorted snapshot merged across all shards (each shard is
    /// already sorted; the merge re-sorts the concatenation).
    fn snapshot(&self) -> Vec<(String, Arc<T>)> {
        let mut all: Vec<(String, Arc<T>)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .iter()
                    .map(|(k, v)| (k.clone(), Arc::clone(v)))
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }
}

/// The registry: three namespaces of named instruments, each sharded
/// across several locks. Snapshots are merged and name-sorted, so every
/// exposition stays deterministically ordered.
#[derive(Default)]
pub struct Registry {
    counters: Namespace<Counter>,
    gauges: Namespace<Gauge>,
    histograms: Namespace<LatencyHistogram>,
}

impl Registry {
    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counters.get_or_insert(name)
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauges.get_or_insert(name)
    }

    /// Gets or creates the latency histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        self.histograms.get_or_insert(name)
    }

    /// Snapshot of all counters as `(name, value)`, name-sorted.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .snapshot()
            .into_iter()
            .map(|(k, v)| (k, v.get()))
            .collect()
    }

    /// Snapshot of all gauges as `(name, value)`, name-sorted.
    pub fn gauge_values(&self) -> Vec<(String, f64)> {
        self.gauges
            .snapshot()
            .into_iter()
            .map(|(k, v)| (k, v.get()))
            .collect()
    }

    /// Snapshot of all histograms as `(name, handle)`, name-sorted.
    pub fn histogram_handles(&self) -> Vec<(String, Arc<LatencyHistogram>)> {
        self.histograms.snapshot()
    }
}

/// The process-global recorder's registry.
pub fn registry() -> &'static Registry {
    crate::Recorder::global().registry()
}

/// Gets or creates a global counter.
pub fn counter(name: &str) -> Arc<Counter> {
    registry().counter(name)
}

/// Gets or creates a global gauge.
pub fn gauge(name: &str) -> Arc<Gauge> {
    registry().gauge(name)
}

/// Gets or creates a global latency histogram.
pub fn histogram(name: &str) -> Arc<LatencyHistogram> {
    registry().histogram(name)
}

/// Builds a labeled registry key: `labeled("x_seconds", "class", "dp")`
/// is `x_seconds{class="dp"}`. Expositions split the base name back
/// off at the `{`.
pub fn labeled(name: &str, key: &str, value: &str) -> String {
    format!("{name}{{{key}=\"{value}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let _guard = crate::test_lock();
        let c = counter("test_metrics_counter_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(counter("test_metrics_counter_total").get(), 5);
        let g = gauge("test_metrics_gauge");
        g.set(2.5);
        assert_eq!(gauge("test_metrics_gauge").get(), 2.5);
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_accumulates() {
        let _guard = crate::test_lock();
        let h = histogram("test_metrics_hist_seconds");
        h.observe_ns(100);
        h.observe_ns(100);
        h.observe_ns(1_000_000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_ns(), 1_000_200);
        let counts = h.bucket_counts();
        assert_eq!(counts[bucket_index(100)], 2);
        assert_eq!(counts[bucket_index(1_000_000)], 1);
    }

    #[test]
    fn labeled_key_shape() {
        assert_eq!(
            labeled("construction_seconds", "class", "dp"),
            "construction_seconds{class=\"dp\"}"
        );
    }

    #[test]
    fn quantiles_come_from_log2_buckets() {
        let _guard = crate::test_lock();
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_ns(0.5), None, "empty histogram has no median");
        // 90 fast observations in [64, 128), 10 slow in [4096, 8192).
        for _ in 0..90 {
            h.observe_ns(100);
        }
        for _ in 0..10 {
            h.observe_ns(5_000);
        }
        assert_eq!(h.quantile_ns(0.0), Some(128), "minimum bucket");
        assert_eq!(
            h.quantile_ns(0.5),
            Some(128),
            "median is in the fast bucket"
        );
        assert_eq!(h.quantile_ns(0.90), Some(128), "p90 is the last fast rank");
        assert_eq!(
            h.quantile_ns(0.99),
            Some(8_192),
            "p99 lands in the slow bucket"
        );
        assert_eq!(h.quantile_ns(1.0), Some(8_192), "maximum bucket");
        // The sub-nanosecond and top buckets report usable bounds.
        let edge = LatencyHistogram::default();
        edge.observe_ns(0);
        edge.observe_ns(u64::MAX);
        assert_eq!(edge.quantile_ns(0.0), Some(1));
        assert_eq!(edge.quantile_ns(1.0), Some(u64::MAX));
    }

    #[test]
    fn concurrent_registration_and_bumps_count_exactly() {
        let _guard = crate::test_lock();
        // Many threads hammer overlapping names through the sharded
        // registry: every name must resolve to one shared instrument
        // and no increment may be lost.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 500;
        let names: Vec<String> = (0..20)
            .map(|i| format!("test_metrics_sharded_{i}_total"))
            .collect();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let names = &names;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Re-probe the registry by name each time — the
                        // contended path the sharding exists for.
                        counter(&names[(t as u64 + i) as usize % names.len()]).inc();
                    }
                });
            }
        });
        let total: u64 = names.iter().map(|n| counter(n).get()).sum();
        assert_eq!(total, THREADS as u64 * PER_THREAD);
        // The merged snapshot is name-sorted despite sharding.
        let values = registry().counter_values();
        let sorted: Vec<&String> = {
            let mut v: Vec<&String> = values.iter().map(|(k, _)| k).collect();
            assert!(v.windows(2).all(|w| w[0] <= w[1]), "snapshot unsorted");
            v.sort();
            v
        };
        assert_eq!(sorted.len(), values.len());
    }

    #[test]
    fn disabled_recording_is_a_noop() {
        let _guard = crate::test_lock();
        let c = counter("test_metrics_disabled_total");
        crate::set_enabled(false);
        c.inc();
        crate::set_enabled(true);
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
