//! The statistics catalog (§4 storage discussion).
//!
//! Commercial systems of the paper's era (e.g. DB2's
//! `SYSIBM.SYSCOLDIST`) store per-column frequency statistics in catalog
//! tables. [`StoredHistogram`] implements the compact layout §4
//! describes: every bucket stores its (integer-rounded) average, values
//! are listed explicitly only for buckets *other than the largest*, and
//! "not finding a valid attribute value among those explicitly stored
//! implies that it belongs to the missing bucket and has that special
//! frequency". End-biased histograms make this layout tiny: β−1 listed
//! values plus two averages.
//!
//! [`Catalog`] is the concurrent registry: keyed by relation and column
//! list, with per-relation update counters so estimator code can reason
//! about staleness (the paper declares update-propagation *schedules* out
//! of scope; the counters are the hook such a schedule would use).

use crate::catalog2d::StoredMatrixHistogram;
use crate::error::{Result, StoreError};
use crate::relation::Relation;
use crate::stats::{frequency_matrix_table, frequency_table, FrequencyTable};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use vopt_hist::feedback::{tune_step, TuneConfig, TuneSkip};
use vopt_hist::{BuilderSpec, Histogram, MatrixHistogram, ValueBounds};

/// A histogram in the paper's compact catalog layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredHistogram {
    /// Paper-rounded average frequency per bucket.
    bucket_avgs: Vec<u64>,
    /// The bucket whose values are *not* listed (the largest bucket).
    default_bucket: u32,
    /// `(domain value, bucket)` for every value outside the default
    /// bucket, sorted by value for binary search.
    exceptions: Vec<(u64, u32)>,
    /// Per-bucket value span `[lo, hi)` and distinct-count, parallel to
    /// `bucket_avgs` — what range and band estimation interpolate over.
    bounds: Vec<ValueBounds>,
}

impl StoredHistogram {
    /// Converts an analysis [`Histogram`] plus the domain values it was
    /// built over into the compact catalog form.
    ///
    /// `values[i]` is the domain value of histogram value-index `i`.
    pub fn from_histogram(values: &[u64], hist: &Histogram) -> Result<Self> {
        if values.len() != hist.num_values() {
            return Err(StoreError::InvalidParameter(format!(
                "{} domain values but histogram covers {}",
                values.len(),
                hist.num_values()
            )));
        }
        let bucket_avgs: Vec<u64> = hist.buckets().iter().map(|b| b.average_rounded()).collect();
        let default_bucket = hist
            .buckets()
            .iter()
            .enumerate()
            .max_by_key(|(_, b)| b.count())
            .map(|(i, _)| i as u32)
            .unwrap_or(0);
        let mut exceptions: Vec<(u64, u32)> = values
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| {
                let b = hist.bucket_of(i);
                (b != default_bucket).then_some((v, b))
            })
            .collect();
        exceptions.sort_unstable_by_key(|&(v, _)| v);
        let bounds = if hist.bounds().len() == hist.num_buckets() {
            // An ANALYZE-built histogram already carries its spans.
            hist.bounds().to_vec()
        } else {
            // Bounds never attached (raw construction paths): derive
            // them from the assignment here so every stored histogram
            // supports range interpolation.
            let mut bounds = vec![
                ValueBounds {
                    lo: u64::MAX,
                    hi: 0,
                    distinct: 0,
                };
                hist.num_buckets()
            ];
            for (i, &v) in values.iter().enumerate() {
                let bb = &mut bounds[hist.bucket_of(i) as usize];
                bb.lo = bb.lo.min(v);
                bb.hi = bb.hi.max(v.saturating_add(1));
                bb.distinct += 1;
            }
            bounds
        };
        Ok(Self {
            bucket_avgs,
            default_bucket,
            exceptions,
            bounds,
        })
    }

    /// Reassembles a stored histogram from its raw parts (used by the
    /// binary codec). Validates bucket references, exception order, and
    /// that every bucket's value span is well-formed.
    pub fn from_parts(
        bucket_avgs: Vec<u64>,
        default_bucket: u32,
        exceptions: Vec<(u64, u32)>,
        bounds: Vec<ValueBounds>,
    ) -> Result<Self> {
        let n = bucket_avgs.len();
        if n == 0 {
            return Err(StoreError::InvalidParameter(
                "a stored histogram needs at least one bucket".into(),
            ));
        }
        if (default_bucket as usize) >= n {
            return Err(StoreError::InvalidParameter(format!(
                "default bucket {default_bucket} out of range 0..{n}"
            )));
        }
        for w in exceptions.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(StoreError::InvalidParameter(
                    "exception values must be strictly increasing".into(),
                ));
            }
        }
        if let Some(&(v, b)) = exceptions.iter().find(|&&(_, b)| (b as usize) >= n) {
            return Err(StoreError::InvalidParameter(format!(
                "exception value {v} references bucket {b} out of range 0..{n}"
            )));
        }
        if bounds.len() != n {
            return Err(StoreError::InvalidParameter(format!(
                "{} value spans for {n} buckets",
                bounds.len()
            )));
        }
        if let Some((b, bb)) = bounds
            .iter()
            .enumerate()
            .find(|(_, bb)| !bb.is_well_formed())
        {
            return Err(StoreError::InvalidParameter(format!(
                "bucket {b} has a malformed value span [{}, {}) with {} distinct",
                bb.lo, bb.hi, bb.distinct
            )));
        }
        Ok(Self {
            bucket_avgs,
            default_bucket,
            exceptions,
            bounds,
        })
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.bucket_avgs.len()
    }

    /// Bucket averages (paper-rounded).
    pub fn bucket_avgs(&self) -> &[u64] {
        &self.bucket_avgs
    }

    /// The implicit bucket id.
    pub fn default_bucket(&self) -> u32 {
        self.default_bucket
    }

    /// Explicitly listed `(value, bucket)` pairs.
    pub fn exceptions(&self) -> &[(u64, u32)] {
        &self.exceptions
    }

    /// Per-bucket value spans, parallel to [`StoredHistogram::bucket_avgs`].
    pub fn bounds(&self) -> &[ValueBounds] {
        &self.bounds
    }

    /// The value span of bucket `b`.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn bucket_bounds(&self, b: usize) -> &ValueBounds {
        &self.bounds[b]
    }

    /// The approximate frequency of a domain value: the average of its
    /// listed bucket, or the default bucket's average when unlisted.
    pub fn approx_frequency(&self, value: u64) -> u64 {
        match self.exceptions.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(i) => self.bucket_avgs[self.exceptions[i].1 as usize],
            Err(_) => self.bucket_avgs[self.default_bucket as usize],
        }
    }

    /// Catalog entries consumed: one per bucket average plus one per
    /// listed value (the §4 storage cost this layout optimises).
    pub fn storage_entries(&self) -> usize {
        self.bucket_avgs.len() + self.exceptions.len()
    }
}

/// A stage of the scan → build → store ANALYZE pipeline, announced to
/// the hook of [`Catalog::analyze_with_hook`] just before the stage
/// runs. Failpoint layers (the oracle's fault injection) return an
/// error from the hook to abort the refresh mid-flight; the catalog
/// guarantees an aborted refresh leaves the previous entry — and the
/// relation's staleness accounting — untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshStage {
    /// About to scan the relation (Algorithm *Matrix*).
    BeforeScan,
    /// Scan complete; about to build the histogram and store it.
    BeforeStore,
}

/// Key of a catalog entry: relation name plus the column list the
/// statistics cover.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StatKey {
    /// Relation name.
    pub relation: String,
    /// Attribute(s) the histogram covers, in order.
    pub columns: Vec<String>,
}

impl StatKey {
    /// Builds a key.
    pub fn new(relation: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            relation: relation.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    /// Human-readable `relation(col, ...)` form used in error messages,
    /// metrics labels, and daemon traces.
    pub fn display(&self) -> String {
        format!("{}({})", self.relation, self.columns.join(", "))
    }
}

#[derive(Debug, Clone)]
struct Entry {
    histogram: StoredHistogram,
    built_at_version: u64,
    /// How the histogram was built (None for raw `put`s, e.g. snapshots
    /// from codec versions that predate spec recording).
    spec: Option<BuilderSpec>,
    /// Feedback tune steps applied since the histogram was last fully
    /// (re)built. Like the per-relation version counters, this is *not*
    /// part of the persisted snapshot format: after recovery it counts
    /// tunes replayed from the journal since the last checkpoint, which
    /// is exactly the "has this state diverged from a full build"
    /// signal the provenance trail and `histctl tune --status` report.
    tuned: u64,
}

#[derive(Debug, Clone)]
struct MatrixEntry {
    histogram: StoredMatrixHistogram,
    built_at_version: u64,
    spec: Option<BuilderSpec>,
}

/// What one applied feedback tune step did — the observability payload
/// of [`CatalogSnapshot::compute_tune`], fed to the `tune_applied_total`
/// counter, the `qerror_pre`/`qerror_post` gauges, and daemon traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// Frequency mass moved between buckets (exactly conserved).
    pub mass_moved: u64,
    /// Q-error of the observation before the step.
    pub qerror_pre: f64,
    /// Q-error the tuned bucket would produce against the same
    /// observation.
    pub qerror_post: f64,
    /// Whether the step also split/merged buckets.
    pub restructured: bool,
}

/// The failure history of a catalog entry's refresh pipeline: how many
/// consecutive rebuilds have failed and what the last error said. A
/// successful store clears the record, so `count` is always the length
/// of the *current* failure streak — exactly what a circuit breaker
/// trips on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefreshFailure {
    /// Consecutive failed refreshes since the last successful store.
    pub count: u64,
    /// The error string of the most recent failure.
    pub last_error: String,
}

/// An immutable, epoch-stamped view of the entire catalog.
///
/// Readers obtain one via [`Catalog::read_snapshot`] and then run any
/// number of lookups against a single consistent state: a published
/// snapshot never changes, so a multi-column read can never observe one
/// column from before a mutation and another from after it, and it
/// never contends with writers. The epoch increases by exactly one per
/// catalog mutation, which makes it a free invalidation token — a value
/// derived from a snapshot is current iff its recorded epoch equals the
/// catalog's current epoch (the engine's estimation cache keys on it).
#[derive(Debug, Clone, Default)]
pub struct CatalogSnapshot {
    epoch: u64,
    entries: HashMap<StatKey, Arc<Entry>>,
    /// Attribute-pair statistics (2-D histograms), in their own
    /// namespace, as systems keep single- and multi-column distribution
    /// statistics in distinct catalog tables.
    matrix_entries: HashMap<StatKey, Arc<MatrixEntry>>,
    /// Updates observed per relation since catalog creation.
    versions: HashMap<String, u64>,
    /// Refresh-failure streaks per key (cleared by a successful store).
    /// Kept beside the entries rather than inside them so a column
    /// whose *first* ANALYZE fails — no entry exists yet — still has a
    /// failure history for the maintenance daemon's breaker to read.
    failures: HashMap<StatKey, RefreshFailure>,
}

/// The `catalog_get_*_total` counters every statistics lookup bumps,
/// resolved once rather than probed by name per lookup.
struct GetCounters {
    hit: Arc<obs::Counter>,
    stale: Arc<obs::Counter>,
    miss: Arc<obs::Counter>,
}

fn get_counters() -> &'static GetCounters {
    static C: OnceLock<GetCounters> = OnceLock::new();
    C.get_or_init(|| GetCounters {
        hit: obs::counter("catalog_get_hit_total"),
        stale: obs::counter("catalog_get_stale_total"),
        miss: obs::counter("catalog_get_miss_total"),
    })
}

impl CatalogSnapshot {
    /// The mutation count of the catalog at the instant this snapshot
    /// was published. Strictly monotone across snapshots of one catalog.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Fetches a histogram by reference — no clone, no lock.
    pub fn get(&self, key: &StatKey) -> Result<&StoredHistogram> {
        self.lookup(key)
            .ok_or_else(|| StoreError::MissingStatistics { key: key.display() })
    }

    /// [`CatalogSnapshot::get`] for callers that treat a missing entry
    /// as an answer rather than an error: the same hit, stale and miss
    /// counts, and no error message formatted for a miss.
    pub fn lookup(&self, key: &StatKey) -> Option<&StoredHistogram> {
        match self.entries.get(key) {
            Some(e) => {
                get_counters().hit.inc();
                if self.version_of(&key.relation) > e.built_at_version {
                    get_counters().stale.inc();
                }
                Some(&e.histogram)
            }
            None => {
                get_counters().miss.inc();
                None
            }
        }
    }

    /// Fetches a 2-D histogram by reference.
    pub fn get_matrix(&self, key: &StatKey) -> Result<&StoredMatrixHistogram> {
        match self.matrix_entries.get(key) {
            Some(e) => {
                get_counters().hit.inc();
                if self.version_of(&key.relation) > e.built_at_version {
                    get_counters().stale.inc();
                }
                Ok(&e.histogram)
            }
            None => {
                get_counters().miss.inc();
                Err(StoreError::MissingStatistics { key: key.display() })
            }
        }
    }

    /// Updates `relation` has seen since the stored histogram was built
    /// (saturating, see [`Catalog::staleness`]).
    pub fn staleness(&self, key: &StatKey) -> Result<u64> {
        let entry = self
            .entries
            .get(key)
            .ok_or_else(|| StoreError::MissingStatistics { key: key.display() })?;
        Ok(self
            .version_of(&key.relation)
            .saturating_sub(entry.built_at_version))
    }

    /// Staleness of a 2-D histogram (saturating).
    pub fn matrix_staleness(&self, key: &StatKey) -> Result<u64> {
        let entry = self
            .matrix_entries
            .get(key)
            .ok_or_else(|| StoreError::MissingStatistics { key: key.display() })?;
        Ok(self
            .version_of(&key.relation)
            .saturating_sub(entry.built_at_version))
    }

    /// The update counter of `relation` (0 if never updated).
    pub fn version_of(&self, relation: &str) -> u64 {
        self.versions.get(relation).copied().unwrap_or(0)
    }

    /// The current refresh-failure streak of `key`, if any.
    pub fn refresh_failure(&self, key: &StatKey) -> Option<&RefreshFailure> {
        self.failures.get(key)
    }

    /// Every key with a live failure streak, sorted by `(relation,
    /// columns)` for deterministic exposition.
    pub fn refresh_failures(&self) -> Vec<(StatKey, RefreshFailure)> {
        let mut all: Vec<(StatKey, RefreshFailure)> = self
            .failures
            .iter()
            .map(|(k, f)| (k.clone(), f.clone()))
            .collect();
        all.sort_by(|a, b| (&a.0.relation, &a.0.columns).cmp(&(&b.0.relation, &b.0.columns)));
        all
    }

    /// The spec a 1-D entry's histogram was built with, if recorded.
    pub fn spec_of(&self, key: &StatKey) -> Option<BuilderSpec> {
        self.entries.get(key).and_then(|e| e.spec)
    }

    /// The spec a 2-D entry's histogram was built with, if recorded.
    pub fn matrix_spec_of(&self, key: &StatKey) -> Option<BuilderSpec> {
        self.matrix_entries.get(key).and_then(|e| e.spec)
    }

    /// Feedback tune steps applied to `key`'s histogram since it was
    /// last fully (re)built (0 for missing entries, and for entries a
    /// full ANALYZE/`put` just replaced). See the field note on `Entry`:
    /// after crash recovery this counts tunes replayed from the journal
    /// since the last checkpoint.
    pub fn tuned_count(&self, key: &StatKey) -> u64 {
        self.entries.get(key).map(|e| e.tuned).unwrap_or(0)
    }

    /// Computes — without mutating anything — the tuned histogram one
    /// (estimate, actual) feedback observation produces for `key`,
    /// delegating the mass-conserving update rule to
    /// [`vopt_hist::feedback::tune_step`]. The β budget is the bucket
    /// count of the entry's recorded [`BuilderSpec`], falling back to
    /// the histogram's current bucket count for spec-less entries.
    ///
    /// The outer `Result` is "does the entry exist"; the inner one is
    /// the tuner's applied-or-skipped verdict.
    pub fn compute_tune(
        &self,
        key: &StatKey,
        estimate: f64,
        actual: f64,
        cfg: &TuneConfig,
    ) -> Result<std::result::Result<(StoredHistogram, TuneReport), TuneSkip>> {
        let entry = self
            .entries
            .get(key)
            .ok_or_else(|| StoreError::MissingStatistics { key: key.display() })?;
        let hist = &entry.histogram;
        let beta = entry
            .spec
            .map(|s| s.buckets())
            .unwrap_or_else(|| hist.num_buckets());
        let delta = match tune_step(
            hist.bucket_avgs(),
            hist.default_bucket(),
            hist.exceptions(),
            hist.bounds(),
            estimate,
            actual,
            beta,
            cfg,
        ) {
            Ok(delta) => delta,
            Err(skip) => return Ok(Err(skip)),
        };
        let report = TuneReport {
            mass_moved: delta.mass_moved,
            qerror_pre: delta.qerror_pre,
            qerror_post: delta.qerror_post,
            restructured: delta.restructured,
        };
        let tuned = StoredHistogram::from_parts(
            delta.bucket_avgs,
            delta.default_bucket,
            delta.exceptions,
            delta.bounds,
        )?;
        Ok(Ok((tuned, report)))
    }

    /// All keys currently stored, in unspecified order.
    pub fn keys(&self) -> Vec<StatKey> {
        self.entries.keys().cloned().collect()
    }

    /// A snapshot of every 1-D entry (for persistence), sorted by
    /// `(relation, columns)` so the encoding is order-stable regardless
    /// of insertion order.
    pub fn snapshot_1d(&self) -> Vec<(StatKey, StoredHistogram, Option<BuilderSpec>)> {
        let _span = obs::span("catalog_snapshot_1d");
        let mut all: Vec<(StatKey, StoredHistogram, Option<BuilderSpec>)> = self
            .entries
            .iter()
            .map(|(k, e)| (k.clone(), e.histogram.clone(), e.spec))
            .collect();
        all.sort_by(|a, b| (&a.0.relation, &a.0.columns).cmp(&(&b.0.relation, &b.0.columns)));
        all
    }

    /// A snapshot of every 2-D entry, sorted like
    /// [`CatalogSnapshot::snapshot_1d`].
    pub fn snapshot_2d(&self) -> Vec<(StatKey, StoredMatrixHistogram, Option<BuilderSpec>)> {
        let _span = obs::span("catalog_snapshot_2d");
        let mut all: Vec<(StatKey, StoredMatrixHistogram, Option<BuilderSpec>)> = self
            .matrix_entries
            .iter()
            .map(|(k, e)| (k.clone(), e.histogram.clone(), e.spec))
            .collect();
        all.sort_by(|a, b| (&a.0.relation, &a.0.columns).cmp(&(&b.0.relation, &b.0.columns)));
        all
    }

    /// Every per-relation update counter, sorted by relation name.
    pub fn version_snapshot(&self) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> =
            self.versions.iter().map(|(r, &v)| (r.clone(), v)).collect();
        all.sort();
        all
    }
}

/// A concurrent statistics catalog.
///
/// Internally a read-copy-update cell over [`CatalogSnapshot`]: every
/// mutation clones the current snapshot (entries are `Arc`-shared, so
/// the clone is shallow), applies itself, bumps the epoch, and swaps
/// the new snapshot in under a short write lock. Readers only ever take
/// the read lock for the duration of one `Arc` clone, so lookups never
/// wait on a scan, a build, or the maintenance daemon.
#[derive(Debug, Default)]
pub struct Catalog {
    current: RwLock<Arc<CatalogSnapshot>>,
    /// Serializes mutations so two concurrent writers each see the
    /// other's effects (plain RCU would lose one of them).
    mutate: Mutex<()>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current epoch-stamped snapshot. O(1): one `Arc` clone under
    /// a read lock held for no other work.
    pub fn read_snapshot(&self) -> Arc<CatalogSnapshot> {
        Arc::clone(&self.current.read())
    }

    /// The catalog's current epoch (its mutation count).
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch
    }

    /// Runs one mutation: clone-shallow the current snapshot, bump the
    /// epoch, let `f` edit the clone, publish. The `mutate` lock makes
    /// the read-modify-write atomic; the write lock on `current` is
    /// held only for the pointer swap.
    fn mutate<R>(&self, f: impl FnOnce(&mut CatalogSnapshot) -> R) -> R {
        let _guard = self.mutate.lock();
        let mut next = CatalogSnapshot::clone(&self.current.read());
        next.epoch += 1;
        let out = f(&mut next);
        obs::gauge("catalog_epoch").set(next.epoch as f64);
        *self.current.write() = Arc::new(next);
        out
    }

    /// Stores a histogram for `key`, stamping it with the relation's
    /// current update version. The construction spec is left unrecorded;
    /// prefer [`Catalog::put_with_spec`] (or the ANALYZE entry points)
    /// so snapshots can say how the histogram was built.
    pub fn put(&self, key: StatKey, histogram: StoredHistogram) {
        self.put_with_spec(key, histogram, None);
    }

    /// Stores a histogram along with the [`BuilderSpec`] that built it.
    pub fn put_with_spec(
        &self,
        key: StatKey,
        histogram: StoredHistogram,
        spec: Option<BuilderSpec>,
    ) {
        self.put_all_with_spec(vec![(key, histogram, spec)]);
    }

    /// Stores a batch of histograms in one mutation (one epoch bump,
    /// one snapshot publication). Readers — and the engine's estimation
    /// cache — observe either none or all of the batch, which is what
    /// lets a multi-column ANALYZE stay atomic from the read path's
    /// point of view.
    pub fn put_all_with_spec(&self, items: Vec<(StatKey, StoredHistogram, Option<BuilderSpec>)>) {
        if items.is_empty() {
            return;
        }
        self.mutate(|snap| {
            for (key, histogram, spec) in items {
                obs::counter("catalog_put_total").inc();
                let version = snap.version_of(&key.relation);
                snap.failures.remove(&key);
                snap.entries.insert(
                    key,
                    Arc::new(Entry {
                        histogram,
                        built_at_version: version,
                        spec,
                        tuned: 0,
                    }),
                );
            }
        });
    }

    /// Replaces `key`'s histogram with a feedback-tuned successor,
    /// growing the entry's tune counter while keeping its build stamp
    /// and spec: tuning refines the *existing* build, it is not a new
    /// one, so staleness accounting and refresh scheduling are
    /// unaffected. This is the single mutation point for feedback —
    /// every tuned histogram enters the catalog here (live via
    /// `DurableCatalog::tune_column`, or replayed from a WAL tune
    /// record during recovery). Errors if no entry exists: feedback
    /// can refine statistics, never invent them.
    pub fn apply_tune(&self, key: &StatKey, histogram: StoredHistogram) -> Result<()> {
        self.mutate(|snap| {
            let entry = snap
                .entries
                .get(key)
                .ok_or_else(|| StoreError::MissingStatistics { key: key.display() })?;
            let mut next = Entry::clone(entry);
            next.histogram = histogram;
            next.tuned = next.tuned.saturating_add(1);
            snap.entries.insert(key.clone(), Arc::new(next));
            Ok(())
        })
    }

    /// Feedback tune steps applied to `key` since its last full build.
    pub fn tuned_count(&self, key: &StatKey) -> u64 {
        self.read_snapshot().tuned_count(key)
    }

    /// Snapshot-read convenience for [`CatalogSnapshot::compute_tune`].
    pub fn compute_tune(
        &self,
        key: &StatKey,
        estimate: f64,
        actual: f64,
        cfg: &TuneConfig,
    ) -> Result<std::result::Result<(StoredHistogram, TuneReport), TuneSkip>> {
        self.read_snapshot()
            .compute_tune(key, estimate, actual, cfg)
    }

    /// Records that a refresh (or first ANALYZE) of `key` failed with
    /// `error`, growing the entry's consecutive-failure streak. The
    /// streak is what the maintenance daemon's circuit breaker counts
    /// and what `histctl metrics` exposes; a successful store clears it.
    pub fn note_refresh_failure(&self, key: &StatKey, error: &str) {
        obs::counter("catalog_refresh_failure_total").inc();
        self.mutate(|snap| {
            let record = snap.failures.entry(key.clone()).or_insert(RefreshFailure {
                count: 0,
                last_error: String::new(),
            });
            record.count = record.count.saturating_add(1);
            record.last_error = error.to_string();
        });
    }

    /// The current refresh-failure streak of `key`, if any.
    pub fn refresh_failure(&self, key: &StatKey) -> Option<RefreshFailure> {
        self.read_snapshot().refresh_failure(key).cloned()
    }

    /// Every key with a live failure streak, sorted by `(relation,
    /// columns)` for deterministic exposition.
    pub fn refresh_failures(&self) -> Vec<(StatKey, RefreshFailure)> {
        self.read_snapshot().refresh_failures()
    }

    /// The spec a 1-D entry's histogram was built with, if recorded.
    pub fn spec_of(&self, key: &StatKey) -> Option<BuilderSpec> {
        self.read_snapshot().spec_of(key)
    }

    /// The spec a 2-D entry's histogram was built with, if recorded.
    pub fn matrix_spec_of(&self, key: &StatKey) -> Option<BuilderSpec> {
        self.read_snapshot().matrix_spec_of(key)
    }

    /// Fetches a histogram (cloned; hot paths should prefer
    /// [`Catalog::read_snapshot`] and borrow instead).
    pub fn get(&self, key: &StatKey) -> Result<StoredHistogram> {
        self.read_snapshot().get(key).cloned()
    }

    /// Records that `updates` tuples changed in `relation` (insert,
    /// delete, or modify). Histograms built before these updates become
    /// stale. Saturating: a counter at `u64::MAX` pins there instead of
    /// wrapping (which would make every histogram look freshly built).
    pub fn note_updates(&self, relation: &str, updates: u64) {
        self.mutate(|snap| {
            let counter = snap.versions.entry(relation.to_string()).or_insert(0);
            *counter = counter.saturating_add(updates);
        });
    }

    /// How many updates `relation` has seen since the stored histogram
    /// was built. Saturating: an entry stamped *ahead* of the current
    /// version counter (possible after a journal recovery rebuilt the
    /// counters) reads as staleness 0, never as a huge wrapped value.
    pub fn staleness(&self, key: &StatKey) -> Result<u64> {
        self.read_snapshot().staleness(key)
    }

    /// All keys currently stored, in unspecified order.
    pub fn keys(&self) -> Vec<StatKey> {
        self.read_snapshot().keys()
    }

    /// A snapshot of every 1-D entry (for persistence), sorted by
    /// `(relation, columns)` so the encoding is order-stable regardless
    /// of insertion order — parallel and sequential ANALYZE produce
    /// byte-identical snapshots.
    pub fn snapshot_1d(&self) -> Vec<(StatKey, StoredHistogram, Option<BuilderSpec>)> {
        self.read_snapshot().snapshot_1d()
    }

    /// A snapshot of every 2-D entry (for persistence), sorted like
    /// [`Catalog::snapshot_1d`].
    pub fn snapshot_2d(&self) -> Vec<(StatKey, StoredMatrixHistogram, Option<BuilderSpec>)> {
        self.read_snapshot().snapshot_2d()
    }

    /// Every per-relation update counter, sorted by relation name.
    /// Together with the VOHG snapshot bytes this pins the catalog's
    /// full observable state — the crash-recovery oracle compares both
    /// against the pre- and post-fault committed states.
    pub fn version_snapshot(&self) -> Vec<(String, u64)> {
        self.read_snapshot().version_snapshot()
    }

    /// The build step of the unified ANALYZE pipeline: a collected
    /// frequency table plus a [`BuilderSpec`] become a compact
    /// [`StoredHistogram`]. The bucket budget is clamped to the column's
    /// distinct-value count (the spec's forgiving `build`).
    ///
    /// Exposed so callers that already hold a scan result (the engine's
    /// parallel catalog-wide ANALYZE) run the exact same build as
    /// [`Catalog::analyze`].
    pub fn build_stored(table: &FrequencyTable, spec: BuilderSpec) -> Result<StoredHistogram> {
        let hist = spec.build_with_values(&table.values, &table.freqs)?;
        StoredHistogram::from_histogram(&table.values, &hist)
    }

    /// End-to-end ANALYZE for one column: runs Algorithm *Matrix* over
    /// the relation (scan → frequency table), builds the histogram the
    /// spec describes, and stores it with the spec recorded. Returns the
    /// key. This is the single construction pipeline every layer
    /// (maintenance, engine, CLIs) routes through.
    pub fn analyze(&self, relation: &Relation, column: &str, spec: BuilderSpec) -> Result<StatKey> {
        self.analyze_with_hook(relation, column, spec, &mut |_| Ok(()))
    }

    /// [`Catalog::analyze`] with a stage hook: `hook` is called with
    /// each [`RefreshStage`] before that stage runs, and an `Err` from
    /// it aborts the ANALYZE at that point. Nothing is stored unless
    /// every stage completes, so an aborted refresh leaves the previous
    /// histogram (if any) readable and the staleness counter unreset —
    /// the failure mode production maintenance daemons must have.
    pub fn analyze_with_hook(
        &self,
        relation: &Relation,
        column: &str,
        spec: BuilderSpec,
        hook: &mut dyn FnMut(RefreshStage) -> Result<()>,
    ) -> Result<StatKey> {
        let _span = obs::span("analyze");
        hook(RefreshStage::BeforeScan)?;
        let table = frequency_table(relation, column)?;
        hook(RefreshStage::BeforeStore)?;
        let stored = Self::build_stored(&table, spec)?;
        let key = StatKey::new(relation.name(), &[column]);
        self.put_with_spec(key.clone(), stored, Some(spec));
        Ok(key)
    }

    /// [`Catalog::analyze`] with the paper's recommended practical
    /// choice, the v-optimal end-biased histogram with `buckets` buckets.
    pub fn analyze_end_biased(
        &self,
        relation: &Relation,
        column: &str,
        buckets: usize,
    ) -> Result<StatKey> {
        self.analyze(relation, column, BuilderSpec::VOptEndBiased(buckets))
    }

    /// Stores a 2-D histogram for an attribute pair (spec unrecorded;
    /// prefer [`Catalog::put_matrix_with_spec`]).
    pub fn put_matrix(&self, key: StatKey, histogram: StoredMatrixHistogram) {
        self.put_matrix_with_spec(key, histogram, None);
    }

    /// Stores a 2-D histogram along with the per-cell-vector
    /// [`BuilderSpec`] that built it.
    pub fn put_matrix_with_spec(
        &self,
        key: StatKey,
        histogram: StoredMatrixHistogram,
        spec: Option<BuilderSpec>,
    ) {
        obs::counter("catalog_put_total").inc();
        self.mutate(|snap| {
            let version = snap.version_of(&key.relation);
            snap.failures.remove(&key);
            snap.matrix_entries.insert(
                key,
                Arc::new(MatrixEntry {
                    histogram,
                    built_at_version: version,
                    spec,
                }),
            );
        });
    }

    /// Fetches a 2-D histogram (cloned; hot paths should prefer
    /// [`Catalog::read_snapshot`] and borrow instead).
    pub fn get_matrix(&self, key: &StatKey) -> Result<StoredMatrixHistogram> {
        self.read_snapshot().get_matrix(key).cloned()
    }

    /// Staleness of a 2-D histogram (saturating, like
    /// [`Catalog::staleness`]).
    pub fn matrix_staleness(&self, key: &StatKey) -> Result<u64> {
        self.read_snapshot().matrix_staleness(key)
    }

    /// End-to-end ANALYZE for an attribute pair: collects the frequency
    /// matrix (Algorithm *Matrix* on pairs), builds the spec's histogram
    /// over its cell vector, and stores it with the spec recorded.
    pub fn analyze_matrix(
        &self,
        relation: &Relation,
        first: &str,
        second: &str,
        spec: BuilderSpec,
    ) -> Result<StatKey> {
        let _span = obs::span("analyze_matrix");
        let table = frequency_matrix_table(relation, first, second)?;
        let hist = MatrixHistogram::build(&table.matrix, |cells| spec.build(cells))?;
        let stored = StoredMatrixHistogram::from_matrix_histogram(
            &table.row_values,
            &table.col_values,
            &hist,
        )?;
        let key = StatKey::new(relation.name(), &[first, second]);
        self.put_matrix_with_spec(key.clone(), stored, Some(spec));
        Ok(key)
    }

    /// [`Catalog::analyze_matrix`] with the v-optimal end-biased spec.
    pub fn analyze_matrix_end_biased(
        &self,
        relation: &Relation,
        first: &str,
        second: &str,
        buckets: usize,
    ) -> Result<StatKey> {
        self.analyze_matrix(relation, first, second, BuilderSpec::VOptEndBiased(buckets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::relation_from_frequency_set;
    use freqdist::FrequencySet;
    use vopt_hist::construct::end_biased;
    use vopt_hist::RoundingMode;

    #[test]
    fn stored_histogram_round_trips_approximations() {
        let freqs = [90u64, 10, 9, 8, 2];
        let values = [100u64, 200, 300, 400, 500];
        let hist = end_biased(&freqs, 1, 1).unwrap();
        let stored = StoredHistogram::from_histogram(&values, &hist).unwrap();
        for (i, &v) in values.iter().enumerate() {
            let expected = hist.approx_frequency(i, RoundingMode::PaperRounded) as u64;
            assert_eq!(stored.approx_frequency(v), expected, "value {v}");
        }
        // Unknown values fall into the default (largest) bucket.
        assert_eq!(
            stored.approx_frequency(9999),
            stored.bucket_avgs()[stored.default_bucket() as usize]
        );
    }

    #[test]
    fn storage_cost_is_beta_minus_one_values_for_end_biased() {
        let freqs = [90u64, 10, 9, 8, 2, 3, 4, 5];
        let hist = end_biased(&freqs, 2, 1).unwrap();
        let values: Vec<u64> = (0..8).collect();
        let stored = StoredHistogram::from_histogram(&values, &hist).unwrap();
        // 4 buckets (3 singletons + pool) + 3 listed values.
        assert_eq!(stored.storage_entries(), 4 + 3);
    }

    #[test]
    fn lookup_of_a_missing_entry_still_counts_a_miss() {
        let catalog = Catalog::new();
        let rel =
            relation_from_frequency_set("r", "a", &FrequencySet::new(vec![5, 3, 1]), 1).unwrap();
        let present = catalog.analyze_end_biased(&rel, "a", 2).unwrap();
        let absent = StatKey::new("r", &["b"]);
        let snap = catalog.read_snapshot();
        let misses = || obs::counter("catalog_get_miss_total").get();
        let before = misses();
        assert!(snap.lookup(&absent).is_none());
        assert!(snap.lookup(&absent).is_none());
        assert!(snap.get(&absent).is_err());
        assert!(
            misses() >= before + 3,
            "misses counted: {before} -> {}",
            misses()
        );
        assert_eq!(snap.lookup(&present), Some(snap.get(&present).unwrap()));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let hist = end_biased(&[1, 2, 3], 1, 0).unwrap();
        assert!(StoredHistogram::from_histogram(&[1, 2], &hist).is_err());
    }

    #[test]
    fn from_histogram_derives_bounds_when_unattached() {
        let freqs = [90u64, 10, 9, 8, 2];
        let values = [100u64, 200, 300, 400, 500];
        let hist = end_biased(&freqs, 1, 1).unwrap();
        let stored = StoredHistogram::from_histogram(&values, &hist).unwrap();
        assert_eq!(stored.bounds().len(), stored.num_buckets());
        let total: u64 = stored.bounds().iter().map(|b| b.distinct).sum();
        assert_eq!(total as usize, values.len());
        assert!(stored.bounds().iter().all(ValueBounds::is_well_formed));
        // Attached bounds (the ANALYZE path) must agree exactly.
        let mut attached = end_biased(&freqs, 1, 1).unwrap();
        attached.attach_bounds(&values).unwrap();
        let stored2 = StoredHistogram::from_histogram(&values, &attached).unwrap();
        assert_eq!(stored, stored2);
    }

    #[test]
    fn from_parts_validates_bounds() {
        let good = vec![
            ValueBounds {
                lo: 1,
                hi: 4,
                distinct: 2,
            },
            ValueBounds {
                lo: 9,
                hi: 10,
                distinct: 1,
            },
        ];
        assert!(StoredHistogram::from_parts(vec![5, 7], 0, vec![(9, 1)], good.clone()).is_ok());
        // Wrong arity.
        assert!(
            StoredHistogram::from_parts(vec![5, 7], 0, vec![(9, 1)], good[..1].to_vec()).is_err()
        );
        // Empty span.
        let mut bad = good.clone();
        bad[1].hi = 9;
        assert!(StoredHistogram::from_parts(vec![5, 7], 0, vec![(9, 1)], bad).is_err());
        // Distinct exceeds span width.
        let mut bad = good;
        bad[0].distinct = 5;
        assert!(StoredHistogram::from_parts(vec![5, 7], 0, vec![(9, 1)], bad).is_err());
    }

    #[test]
    fn catalog_put_get_and_miss() {
        let cat = Catalog::new();
        let key = StatKey::new("orders", &["customer_id"]);
        assert!(matches!(
            cat.get(&key),
            Err(StoreError::MissingStatistics { .. })
        ));
        let hist = end_biased(&[5, 5, 50], 1, 0).unwrap();
        let stored = StoredHistogram::from_histogram(&[1, 2, 3], &hist).unwrap();
        cat.put(key.clone(), stored.clone());
        assert_eq!(cat.get(&key).unwrap(), stored);
        assert_eq!(cat.keys(), vec![key]);
    }

    #[test]
    fn staleness_tracks_updates_since_build() {
        let cat = Catalog::new();
        let key = StatKey::new("r", &["a"]);
        cat.note_updates("r", 5);
        let hist = end_biased(&[1, 2], 1, 0).unwrap();
        cat.put(
            key.clone(),
            StoredHistogram::from_histogram(&[10, 20], &hist).unwrap(),
        );
        assert_eq!(cat.staleness(&key).unwrap(), 0);
        cat.note_updates("r", 3);
        assert_eq!(cat.staleness(&key).unwrap(), 3);
        // Other relations don't interfere.
        cat.note_updates("s", 100);
        assert_eq!(cat.staleness(&key).unwrap(), 3);
    }

    #[test]
    fn note_updates_saturates_at_u64_max() {
        let cat = Catalog::new();
        let key = StatKey::new("r", &["a"]);
        let hist = end_biased(&[1, 2], 1, 0).unwrap();
        cat.put(
            key.clone(),
            StoredHistogram::from_histogram(&[10, 20], &hist).unwrap(),
        );
        cat.note_updates("r", u64::MAX);
        // A further update must pin at MAX, not wrap to a tiny counter
        // that would make the histogram look freshly built.
        cat.note_updates("r", u64::MAX);
        cat.note_updates("r", 1);
        assert_eq!(cat.staleness(&key).unwrap(), u64::MAX);
        assert_eq!(cat.version_snapshot(), vec![("r".to_string(), u64::MAX)]);
    }

    #[test]
    fn staleness_saturates_when_entry_is_ahead_of_counter() {
        let cat = Catalog::new();
        let key = StatKey::new("r", &["a"]);
        cat.note_updates("r", u64::MAX);
        let hist = end_biased(&[1, 2], 1, 0).unwrap();
        cat.put(
            key.clone(),
            StoredHistogram::from_histogram(&[10, 20], &hist).unwrap(),
        );
        // Entry stamped at MAX while a recovered counter restarts at 0:
        // simulate by a fresh catalog sharing the entry's stamp.
        assert_eq!(cat.staleness(&key).unwrap(), 0);
        cat.note_updates("r", 7);
        // Counter pinned at MAX, entry at MAX → still 0, never wrapped.
        assert_eq!(cat.staleness(&key).unwrap(), 0);
    }

    #[test]
    fn refresh_failures_recorded_and_cleared_by_store() {
        let cat = Catalog::new();
        let key = StatKey::new("r", &["a"]);
        assert!(cat.refresh_failure(&key).is_none());
        cat.note_refresh_failure(&key, "scan failed");
        cat.note_refresh_failure(&key, "build failed");
        let record = cat.refresh_failure(&key).unwrap();
        assert_eq!(record.count, 2);
        assert_eq!(record.last_error, "build failed");
        assert_eq!(cat.refresh_failures().len(), 1);
        // A successful store clears the streak.
        let hist = end_biased(&[1, 2], 1, 0).unwrap();
        cat.put(
            key.clone(),
            StoredHistogram::from_histogram(&[10, 20], &hist).unwrap(),
        );
        assert!(cat.refresh_failure(&key).is_none());
        assert!(cat.refresh_failures().is_empty());
    }

    #[test]
    fn analyze_end_biased_end_to_end() {
        let freqs = FrequencySet::new(vec![50, 3, 3, 3, 3, 3, 90]);
        let rel = relation_from_frequency_set("emp", "dept", &freqs, 77).unwrap();
        let cat = Catalog::new();
        let key = cat.analyze_end_biased(&rel, "dept", 3).unwrap();
        let stored = cat.get(&key).unwrap();
        assert_eq!(stored.num_buckets(), 3);
        // The two dominant values (0 → 50, 6 → 90) must be singled out.
        assert_eq!(stored.approx_frequency(0), 50);
        assert_eq!(stored.approx_frequency(6), 90);
        assert_eq!(stored.approx_frequency(1), 3);
    }

    #[test]
    fn analyze_matrix_end_biased_end_to_end() {
        use crate::generate::relation_from_matrix;
        use freqdist::FreqMatrix;
        let m = FreqMatrix::from_rows(2, 3, vec![90, 5, 6, 4, 5, 70]).unwrap();
        let rel =
            relation_from_matrix("emp", "dept", "year", &[10, 20], &[1, 2, 3], &m, 5).unwrap();
        let cat = Catalog::new();
        let key = cat
            .analyze_matrix_end_biased(&rel, "dept", "year", 3)
            .unwrap();
        assert_eq!(key.columns, vec!["dept".to_string(), "year".to_string()]);
        let stored = cat.get_matrix(&key).unwrap();
        // The two dominant pairs are singled out exactly.
        assert_eq!(stored.approx_frequency(10, 1), 90);
        assert_eq!(stored.approx_frequency(20, 3), 70);
        // Pooled pairs share the average (5+6+4+5)/4 = 5.
        assert_eq!(stored.approx_frequency(10, 2), 5);
        assert_eq!(cat.matrix_staleness(&key).unwrap(), 0);
        cat.note_updates("emp", 9);
        assert_eq!(cat.matrix_staleness(&key).unwrap(), 9);
        // 1-D and 2-D namespaces are distinct.
        assert!(cat.get(&key).is_err());
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let cat = Arc::new(Catalog::new());
        let hist = end_biased(&[1, 2, 3], 1, 0).unwrap();
        let stored = StoredHistogram::from_histogram(&[1, 2, 3], &hist).unwrap();
        let mut handles = Vec::new();
        for t in 0..8 {
            let cat = Arc::clone(&cat);
            let stored = stored.clone();
            handles.push(std::thread::spawn(move || {
                let key = StatKey::new(format!("r{t}"), &["a"]);
                cat.put(key.clone(), stored);
                cat.note_updates(&format!("r{t}"), 1);
                cat.staleness(&key).unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 1);
        }
        assert_eq!(cat.keys().len(), 8);
    }

    #[test]
    fn epoch_bumps_once_per_mutation_and_snapshots_are_frozen() {
        let cat = Catalog::new();
        assert_eq!(cat.epoch(), 0);
        let before = cat.read_snapshot();

        let hist = end_biased(&[1, 2], 1, 0).unwrap();
        let stored = StoredHistogram::from_histogram(&[10, 20], &hist).unwrap();
        let key = StatKey::new("r", &["a"]);
        cat.put(key.clone(), stored.clone());
        assert_eq!(cat.epoch(), 1);
        cat.note_updates("r", 3);
        assert_eq!(cat.epoch(), 2);
        cat.note_refresh_failure(&key, "boom");
        assert_eq!(cat.epoch(), 3);

        // The pinned pre-mutation snapshot still shows the empty state.
        assert_eq!(before.epoch(), 0);
        assert!(before.get(&key).is_err());
        assert_eq!(before.version_of("r"), 0);

        // A fresh snapshot shows everything, at the current epoch.
        let now = cat.read_snapshot();
        assert_eq!(now.epoch(), 3);
        assert_eq!(now.get(&key).unwrap(), &stored);
        assert_eq!(now.staleness(&key).unwrap(), 3);
        assert_eq!(now.refresh_failure(&key).unwrap().count, 1);
    }

    #[test]
    fn put_all_is_one_epoch_and_atomic_for_readers() {
        let cat = Catalog::new();
        let hist = end_biased(&[1, 2], 1, 0).unwrap();
        let stored = StoredHistogram::from_histogram(&[10, 20], &hist).unwrap();
        let k1 = StatKey::new("t", &["a"]);
        let k2 = StatKey::new("t", &["b"]);
        cat.put_all_with_spec(vec![
            (k1.clone(), stored.clone(), None),
            (k2.clone(), stored, None),
        ]);
        // One mutation, one epoch: no snapshot can exist holding k1 but
        // not k2.
        assert_eq!(cat.epoch(), 1);
        let snap = cat.read_snapshot();
        assert!(snap.get(&k1).is_ok() && snap.get(&k2).is_ok());
        // An empty batch publishes nothing.
        cat.put_all_with_spec(Vec::new());
        assert_eq!(cat.epoch(), 1);
    }
}
