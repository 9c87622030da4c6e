//! The engine: registration, ANALYZE, exact execution, and
//! histogram-driven estimation.
//!
//! Estimation follows the classic System-R decomposition the paper's
//! histograms plug into:
//!
//! ```text
//! |Q| ≈ Π |Rᵢ| × Π sel(filter) × Π sel(join)
//! sel(join R.a = S.b) = Σ_v âR(v)·âS(v) / (|R|·|S|)
//! sel(filter)        = Σ_{v passes} â(v) / |R|
//! ```
//!
//! with the per-value `â` read from the stored catalog histograms (§4
//! layout) over the column's value dictionary, and independence assumed
//! between predicates. Range-shaped filters (`<`, `<=`, `>`, `>=`,
//! `BETWEEN`) and band joins (`abs(l.a - r.b) <= w`) are answered from
//! the histograms' value-carrying buckets by overlap-ratio interpolation
//! (`query::estimate::{estimate_range, estimate_band_join}`). Execution
//! is exact: filters materialise, equality joins hash, band joins probe
//! a sorted value window.

use crate::ast::{ColumnRef, FilterPredicate, Query};
use crate::cache::{fingerprint, CacheKey, CachedEstimate, EstimationCache};
use crate::error::{EngineError, Result};
use crate::ladder::{
    uniform_filter_selectivity, EngineObs, EstimatePolicy, EstimateRung, StatsUse,
    UNIFORM_BAND_SELECTIVITY, UNIFORM_DISTINCT_DEFAULT,
};
use crate::parser;
use crate::provenance::{ProvenanceRecord, StageTiming};
use query::Predicate;
use relstore::catalog::StatKey;
use relstore::join::materialize_join;
use relstore::stats::frequency_table;
use relstore::{Catalog, CatalogSnapshot, Relation, Schema, StoredHistogram};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use vopt_hist::BuilderSpec;

/// A registry of relations with statistics, able to execute and estimate
/// `COUNT(*)` queries.
///
/// The estimation read path is concurrent by design: every estimate pins
/// one immutable [`CatalogSnapshot`] (an epoch-stamped copy-on-write
/// view) and resolves all of its statistics from it, so lookups never
/// contend with ANALYZE, the maintenance daemon, or WAL apply. Whole
/// estimates are memoised in an `EstimationCache` keyed by
/// `(query fingerprint, snapshot epoch)`; epoch bumps invalidate for
/// free, while the engine-local inputs the epoch does not cover
/// (relations, value dictionaries, the ladder policy, the catalog handle
/// itself) explicitly clear the cache when they change.
///
/// The cache is private to this crate, so every probe goes through the
/// estimate methods and their one pipeline:
///
/// ```compile_fail,E0603
/// use engine::cache::EstimationCache;
/// ```
#[derive(Debug, Default)]
pub struct Engine {
    relations: HashMap<String, Relation>,
    catalog: Arc<Catalog>,
    /// What ANALYZE captured per relation, then per column, looked up
    /// by `&str`.
    columns: HashMap<String, HashMap<String, ColumnRecord>>,
    /// When the estimator stops trusting stored histograms and drops
    /// down the degradation ladder.
    policy: EstimatePolicy,
    /// Memoised whole-query estimates, versioned by catalog epoch.
    cache: EstimationCache,
    /// The recorder the engine's rung, cache and query counters and its
    /// trace events go to: the process-global one unless built
    /// [`Engine::with_recorder`].
    pub(crate) obs: EngineObs,
}

/// What ANALYZE captured about one column: its value dictionary and
/// the catalog key and `rel.col` label its statistics are resolved and
/// traced under, built once so that a resolution allocates nothing.
#[derive(Debug)]
struct ColumnRecord {
    /// Sorted distinct values (the "value dictionary" a real system
    /// keeps as column metadata).
    domain: Vec<u64>,
    key: StatKey,
    label: Arc<str>,
}

impl ColumnRecord {
    fn new(relation: &str, column: &str, domain: Vec<u64>) -> Self {
        Self {
            domain,
            key: StatKey::new(relation, &[column]),
            label: Arc::from(format!("{relation}.{column}")),
        }
    }
}

/// Everything the estimator resolved about one column: the surviving
/// statistics plus the ladder rung they support. Frequencies are then
/// always read through [`ColumnStats::approx_frequency`], which answers
/// from the rung, never from missing data.
pub(crate) struct ColumnStats<'a> {
    pub(crate) rung: EstimateRung,
    /// Whether feedback tuning has adjusted the histogram since its
    /// last full build. Always false when self-tuning is off.
    pub(crate) tuned: bool,
    hist: Option<&'a StoredHistogram>,
    domain: Option<&'a [u64]>,
    rows: f64,
}

impl ColumnStats<'_> {
    /// Estimated frequency of one value under this rung. Never called
    /// on the `uniform` rung (no per-value model exists there; callers
    /// use the System R constants instead).
    fn approx_frequency(&self, value: u64) -> f64 {
        match self.rung {
            EstimateRung::Spec => self
                .hist
                .expect("spec rung has a histogram")
                .approx_frequency(value) as f64,
            EstimateRung::EndBiased => {
                // The histogram is degraded: its singleton exception
                // values (the end-biased high frequencies of §4.2) stay
                // trustworthy under updates, but the bulk averages do
                // not. Keep the exceptions, re-spread the remaining
                // live mass uniformly over the unlisted values.
                let hist = self.hist.expect("end_biased rung has a histogram");
                let domain = self.domain.expect("end_biased rung has a domain");
                let exceptions = hist.exceptions();
                match exceptions.binary_search_by_key(&value, |&(v, _)| v) {
                    Ok(i) => hist.bucket_avgs()[exceptions[i].1 as usize] as f64,
                    Err(_) => {
                        let listed_mass: f64 = exceptions
                            .iter()
                            .map(|&(_, b)| hist.bucket_avgs()[b as usize] as f64)
                            .sum();
                        let unlisted = (domain.len() as f64 - exceptions.len() as f64).max(1.0);
                        (self.rows - listed_mass).max(0.0) / unlisted
                    }
                }
            }
            EstimateRung::Trivial => {
                // The paper's trivial histogram: one bucket over the
                // whole dictionary.
                let domain = self.domain.expect("trivial rung has a domain");
                self.rows / (domain.len() as f64).max(1.0)
            }
            EstimateRung::Uniform => {
                unreachable!("uniform rung has no per-value frequency model")
            }
        }
    }

    /// `Σ â(c)` over the constants found in the dictionary, which must
    /// be sorted and deduplicated: one binary search per constant
    /// instead of a dictionary walk. The matches are summed in
    /// ascending order, so this adds the same terms in the same order
    /// as the walk `Σ_{v ∈ dict, v ∈ constants} â(v)` and is bit-identical
    /// to it — including the empty sum, `-0.0`, when no constant is in
    /// the dictionary. Never called on the `uniform` rung.
    fn point_mass(&self, constants: &[u64]) -> f64 {
        let domain = self.domain.expect("non-uniform rungs have a domain");
        constants
            .iter()
            .filter(|c| domain.binary_search(c).is_ok())
            .map(|&c| self.approx_frequency(c))
            .sum()
    }
}

/// The options [`Engine::estimate_pipeline`] runs one estimate with:
/// whether it uses the cache, and whether it collects provenance (which
/// reports the cache outcome, so only the cached path has it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EstimateOptions {
    /// The brute-force reference: compute on the pinned snapshot, with
    /// no fingerprint and no probe.
    Uncached,
    /// Probe the cache; replay a hit, or compute and insert a miss.
    Cached,
    /// [`EstimateOptions::Cached`], also timing the stages into a
    /// [`ProvenanceRecord`].
    CachedWithProvenance,
}

/// Runs one pipeline stage, timing it into `stages` when a provenance
/// record is being collected; otherwise no clock is read.
fn timed<T>(
    stages: &mut Option<Vec<StageTiming>>,
    stage: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let Some(stages) = stages else {
        return f();
    };
    let start = Instant::now();
    let out = f();
    stages.push(StageTiming {
        stage: stage.to_string(),
        elapsed: start.elapsed(),
    });
    out
}

impl Engine {
    /// Creates an empty engine recording to the process-global
    /// [`obs::Recorder`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty engine whose `estimate_rung_total{rung=…}`,
    /// `est_cache_{hit,miss,evict}_total` and `engine_queries_total`
    /// counters and estimation trace events (`cache_probe`,
    /// `rung_chosen`, `stats_resolved`) go to `recorder` and obey its
    /// trace gate alone. Spans and quality records stay process-global.
    pub fn with_recorder(recorder: Arc<obs::Recorder>) -> Self {
        Self {
            obs: EngineObs::new(recorder),
            ..Self::default()
        }
    }

    /// Registers (or replaces) a relation under its own name.
    pub fn register(&mut self, relation: Relation) {
        self.relations.insert(relation.name().to_string(), relation);
        // Row counts feed every estimate but are not epoch-covered.
        self.cache.clear();
    }

    /// The statistics catalog (for inspection).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Swaps in a shared catalog handle — typically
    /// [`DurableCatalog::catalog_arc`], so estimates read the same
    /// epoch-versioned statistics the WAL and the maintenance daemon
    /// maintain. Value dictionaries already captured by ANALYZE are
    /// kept; the estimation cache is dropped because epochs from
    /// different catalogs are not comparable.
    ///
    /// [`DurableCatalog::catalog_arc`]: relstore::DurableCatalog::catalog_arc
    pub fn attach_catalog(&mut self, catalog: Arc<Catalog>) {
        self.catalog = catalog;
        self.cache.clear();
    }

    /// A registered relation by name.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| EngineError::UnknownRelation(name.to_string()))
    }

    /// ANALYZEs every column of every registered relation with a
    /// v-optimal end-biased histogram of `buckets` buckets (the paper's
    /// practical recommendation). Shorthand for
    /// [`Engine::analyze_all_with`].
    pub fn analyze_all(&mut self, buckets: usize) -> Result<()> {
        self.analyze_all_with(BuilderSpec::VOptEndBiased(buckets))
    }

    /// ANALYZEs every column of every registered relation: collects the
    /// value dictionary and builds + stores the histogram described by
    /// `spec`. The scan/build phase is pure and runs across columns in
    /// parallel; histograms are then inserted sequentially, so the
    /// resulting catalog (and its binary snapshot) is byte-identical to
    /// a sequential ANALYZE.
    pub fn analyze_all_with(&mut self, spec: BuilderSpec) -> Result<()> {
        let _span = obs::span("analyze_all");
        let batch = self.build_analyze_batch(spec)?;
        // One batched put: a single epoch bump, so concurrent readers
        // see the whole ANALYZE atomically (and one cache invalidation
        // instead of one per column).
        self.catalog.put_all_with_spec(batch);
        self.cache.clear();
        Ok(())
    }

    /// Durable counterpart of [`Engine::analyze_all_with`]: the same
    /// scan → build pipeline, but the batch is routed through `store`
    /// so every histogram is journaled (and fsynced) before it becomes
    /// visible. The engine must already share the store's catalog
    /// (via [`Engine::attach_catalog`]); otherwise the journaled batch
    /// would apply to a catalog the estimator never reads. Returns the
    /// number of histograms written.
    pub fn analyze_all_durable(
        &mut self,
        store: &relstore::DurableCatalog,
        spec: BuilderSpec,
    ) -> Result<usize> {
        let _span = obs::span("analyze_all");
        if !Arc::ptr_eq(&self.catalog, &store.catalog_arc()) {
            return Err(EngineError::Store(
                "durable ANALYZE requires the engine to be attached to the store's catalog"
                    .to_string(),
            ));
        }
        let batch = self.build_analyze_batch(spec)?;
        let written = batch.len();
        store
            .put_all_with_spec(batch)
            .map_err(|e| EngineError::Store(e.to_string()))?;
        self.cache.clear();
        Ok(written)
    }

    /// The shared ANALYZE scan/build phase: collects each column's value
    /// dictionary and builds the histogram described by `spec`, in
    /// parallel, returning the catalog batch in deterministic
    /// (relation, column) order. Records each column's dictionary as it
    /// goes.
    fn build_analyze_batch(
        &mut self,
        spec: BuilderSpec,
    ) -> Result<Vec<(StatKey, StoredHistogram, Option<BuilderSpec>)>> {
        let mut names: Vec<&String> = self.relations.keys().collect();
        names.sort();
        let work: Vec<(String, String)> = names
            .into_iter()
            .flat_map(|name| {
                self.relations[name]
                    .schema()
                    .columns()
                    .iter()
                    .map(move |c| (name.clone(), c.name.clone()))
            })
            .collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let relations = &self.relations;
        let built = relstore::par_map(work.clone(), threads, |(name, column)| -> Result<_> {
            let table = frequency_table(&relations[name], column)?;
            let stored = if table.freqs.is_empty() {
                None
            } else {
                Some(Catalog::build_stored(&table, spec)?)
            };
            Ok((table.values, stored))
        });
        let mut batch = Vec::new();
        for ((name, column), result) in work.into_iter().zip(built) {
            let (values, stored) = result?;
            let record = ColumnRecord::new(&name, &column, values);
            if let Some(stored) = stored {
                batch.push((record.key.clone(), stored, Some(spec)));
            }
            self.columns.entry(name).or_default().insert(column, record);
        }
        Ok(batch)
    }

    /// Names of every registered relation, sorted (for serving layers
    /// that need to enumerate a session's tables deterministically).
    pub fn relation_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.relations.keys().cloned().collect();
        names.sort();
        names
    }

    /// Parses a query against this engine's dialect (binding happens at
    /// execution/estimation time).
    pub fn parse(&self, text: &str) -> Result<Query> {
        let _span = obs::span("parse");
        parser::parse(text)
    }

    /// Checks that every table/column the query names exists.
    pub(crate) fn bind(&self, query: &Query) -> Result<()> {
        let _span = obs::span("bind");
        if query.tables.is_empty() {
            return Err(EngineError::InvalidJoinGraph("no tables".into()));
        }
        let check_col = |c: &ColumnRef| -> Result<()> {
            if !query.tables.contains(&c.table) {
                return Err(EngineError::UnknownRelation(format!(
                    "{} (not in FROM clause)",
                    c.table
                )));
            }
            let rel = self.relation(&c.table)?;
            if rel.schema().index_of(&c.column).is_none() {
                return Err(EngineError::UnknownColumn {
                    relation: c.table.clone(),
                    column: c.column.clone(),
                });
            }
            Ok(())
        };
        for t in &query.tables {
            self.relation(t)?;
        }
        for j in &query.joins {
            check_col(&j.left)?;
            check_col(&j.right)?;
        }
        for f in &query.filters {
            check_col(&f.column)?;
        }
        Ok(())
    }

    /// Applies all of a table's filters, materialising the surviving
    /// rows.
    pub(crate) fn filtered_base(
        &self,
        table: &str,
        filters: &[&FilterPredicate],
    ) -> Result<Relation> {
        let rel = self.relation(table)?;
        if filters.is_empty() {
            return Ok(rel.clone());
        }
        let cols: Vec<(&[u64], Predicate)> = filters
            .iter()
            .map(|f| Ok((rel.column_by_name(&f.column.column)?, f.op.to_predicate())))
            .collect::<Result<_>>()?;
        let keep: Vec<usize> = (0..rel.num_rows())
            .filter(|&row| cols.iter().all(|(col, p)| p.matches(col[row])))
            .collect();
        let columns: Vec<Vec<u64>> = (0..rel.schema().arity())
            .map(|c| keep.iter().map(|&r| rel.column(c)[r]).collect())
            .collect();
        Ok(Relation::from_columns(
            rel.name().to_string(),
            rel.schema().clone(),
            columns,
        )?)
    }

    /// Renames every column of `rel` to `table.column`, so multi-way
    /// joins never collide on names.
    pub(crate) fn qualified(rel: &Relation) -> Result<Relation> {
        let names: Vec<String> = rel
            .schema()
            .columns()
            .iter()
            .map(|c| format!("{}.{}", rel.name(), c.name))
            .collect();
        let columns: Vec<Vec<u64>> = (0..rel.schema().arity())
            .map(|c| rel.column(c).to_vec())
            .collect();
        Ok(Relation::from_columns(
            rel.name().to_string(),
            Schema::new(names)?,
            columns,
        )?)
    }

    /// Keeps the rows of `rel` where two of its columns are equal (a
    /// join predicate between two already-joined tables).
    pub(crate) fn filter_equal_columns(rel: Relation, a: &str, b: &str) -> Result<Relation> {
        Self::filter_column_pair(rel, a, b, |x, y| x == y)
    }

    /// Keeps the rows of `rel` where two of its columns are within `w`
    /// of each other (a residual band predicate inside an accumulated
    /// join result).
    pub(crate) fn filter_band_columns(rel: Relation, a: &str, b: &str, w: u64) -> Result<Relation> {
        Self::filter_column_pair(rel, a, b, move |x, y| x.abs_diff(y) <= w)
    }

    fn filter_column_pair(
        rel: Relation,
        a: &str,
        b: &str,
        keep_pair: impl Fn(u64, u64) -> bool,
    ) -> Result<Relation> {
        let ca = rel.column_by_name(a)?.to_vec();
        let cb = rel.column_by_name(b)?.to_vec();
        let keep: Vec<usize> = (0..rel.num_rows())
            .filter(|&r| keep_pair(ca[r], cb[r]))
            .collect();
        let columns: Vec<Vec<u64>> = (0..rel.schema().arity())
            .map(|c| keep.iter().map(|&r| rel.column(c)[r]).collect())
            .collect();
        Ok(Relation::from_columns(
            rel.name().to_string(),
            rel.schema().clone(),
            columns,
        )?)
    }

    /// Materialises the band join `abs(left.lcol - right.rcol) <= w`.
    /// Right rows are ordered by join value once, so every left row's
    /// matches are one contiguous run found by binary search — the
    /// sort-based plan a real executor uses for inequality joins.
    pub(crate) fn materialize_band_join(
        left: &Relation,
        lcol: &str,
        right: &Relation,
        rcol: &str,
        w: u64,
    ) -> Result<Relation> {
        let lv = left.column_by_name(lcol)?;
        let rv = right.column_by_name(rcol)?;
        let mut order: Vec<usize> = (0..right.num_rows()).collect();
        order.sort_unstable_by_key(|&r| rv[r]);
        let sorted: Vec<u64> = order.iter().map(|&r| rv[r]).collect();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (l_row, &v) in lv.iter().enumerate() {
            let lo = sorted.partition_point(|&x| x < v.saturating_sub(w));
            let hi = sorted.partition_point(|&x| x <= v.saturating_add(w));
            for &r_row in &order[lo..hi] {
                pairs.push((l_row, r_row));
            }
        }
        let names: Vec<String> = left
            .schema()
            .columns()
            .iter()
            .chain(right.schema().columns())
            .map(|c| c.name.clone())
            .collect();
        let mut columns: Vec<Vec<u64>> = Vec::with_capacity(names.len());
        for c in 0..left.schema().arity() {
            let col = left.column(c);
            columns.push(pairs.iter().map(|&(l, _)| col[l]).collect());
        }
        for c in 0..right.schema().arity() {
            let col = right.column(c);
            columns.push(pairs.iter().map(|&(_, r)| col[r]).collect());
        }
        Ok(Relation::from_columns(
            left.name().to_string(),
            Schema::new(names)?,
            columns,
        )?)
    }

    /// Executes the query exactly: filter, then hash-join along the join
    /// graph (cross products are rejected). Returns the `COUNT(*)`.
    pub fn execute(&self, query: &Query) -> Result<u128> {
        let _span = obs::span("execute");
        self.obs.query_executed();
        self.bind(query)?;
        // Filters grouped per table.
        let mut per_table: HashMap<&str, Vec<&FilterPredicate>> = HashMap::new();
        for f in &query.filters {
            per_table
                .entry(f.column.table.as_str())
                .or_default()
                .push(f);
        }
        // Filtered, qualified base relations.
        let mut bases: HashMap<String, Relation> = HashMap::new();
        for t in &query.tables {
            let filtered =
                self.filtered_base(t, per_table.get(t.as_str()).map_or(&[][..], Vec::as_slice))?;
            bases.insert(t.clone(), Self::qualified(&filtered)?);
        }

        if query.tables.len() == 1 {
            return Ok(bases[&query.tables[0]].num_rows() as u128);
        }

        // Greedy connected join order.
        let mut joined: HashSet<String> = HashSet::new();
        let mut pending: Vec<&crate::ast::JoinPredicate> = query.joins.iter().collect();
        // Start from the first table that appears in some join predicate
        // (binding guarantees tables exist; a table in no predicate means
        // a cross product, rejected below).
        let first = query
            .tables
            .iter()
            .find(|t| {
                query
                    .joins
                    .iter()
                    .any(|j| &j.left.table == *t || &j.right.table == *t)
            })
            .ok_or_else(|| {
                EngineError::InvalidJoinGraph("no join predicates between tables".into())
            })?;
        let mut acc = bases[first].clone();
        joined.insert(first.clone());

        while joined.len() < query.tables.len() || !pending.is_empty() {
            // First apply any predicate whose both sides are joined
            // (a residual equality inside acc).
            if let Some(idx) = pending
                .iter()
                .position(|j| joined.contains(&j.left.table) && joined.contains(&j.right.table))
            {
                let j = pending.remove(idx);
                acc = match j.band {
                    None => {
                        Self::filter_equal_columns(acc, &j.left.to_string(), &j.right.to_string())?
                    }
                    Some(w) => Self::filter_band_columns(
                        acc,
                        &j.left.to_string(),
                        &j.right.to_string(),
                        w,
                    )?,
                };
                continue;
            }
            // Otherwise join one new table connected to the current set.
            let Some(idx) = pending
                .iter()
                .position(|j| joined.contains(&j.left.table) != joined.contains(&j.right.table))
            else {
                return Err(EngineError::InvalidJoinGraph(format!(
                    "tables {:?} are not connected to the rest of the query",
                    query
                        .tables
                        .iter()
                        .filter(|t| !joined.contains(*t))
                        .collect::<Vec<_>>()
                )));
            };
            let j = pending.remove(idx);
            let (acc_side, new_side) = if joined.contains(&j.left.table) {
                (&j.left, &j.right)
            } else {
                (&j.right, &j.left)
            };
            let new_rel = &bases[&new_side.table];
            // The last equality join of the query only needs a count —
            // skip the (potentially huge) materialisation.
            if j.band.is_none() && joined.len() + 1 == query.tables.len() && pending.is_empty() {
                return Ok(relstore::join::hash_join_count(
                    &acc,
                    &acc_side.to_string(),
                    new_rel,
                    &new_side.to_string(),
                )?);
            }
            acc = match j.band {
                None => {
                    materialize_join(&acc, &acc_side.to_string(), new_rel, &new_side.to_string())?
                }
                Some(w) => Self::materialize_band_join(
                    &acc,
                    &acc_side.to_string(),
                    new_rel,
                    &new_side.to_string(),
                    w,
                )?,
            };
            joined.insert(new_side.table.clone());
        }
        Ok(acc.num_rows() as u128)
    }

    /// Replaces the degradation-ladder policy (staleness hard limit and
    /// breaker threshold).
    pub fn set_estimate_policy(&mut self, policy: EstimatePolicy) {
        self.policy = policy;
        // Rung selection depends on the policy, not the epoch.
        self.cache.clear();
    }

    /// The current degradation-ladder policy.
    pub fn estimate_policy(&self) -> EstimatePolicy {
        self.policy
    }

    /// Drops every stored histogram and value dictionary, as after a
    /// statistics catalog is lost without a recoverable snapshot.
    /// Estimation keeps working from the `uniform` rung; execution is
    /// unaffected.
    pub fn clear_statistics(&mut self) {
        self.catalog = Arc::new(Catalog::new());
        self.columns.clear();
        self.cache.clear();
    }

    /// Resolves the best surviving statistics for one column and the
    /// ladder rung they support:
    ///
    /// * histogram + dictionary, fresh and un-quarantined → `spec`;
    /// * histogram + dictionary, but stale past the policy's hard limit
    ///   or with a refresh-failure streak at the breaker threshold →
    ///   `end_biased`;
    /// * dictionary only → `trivial`;
    /// * nothing → `uniform`.
    ///
    /// Resolution itself records no metrics — `explain_analyze`'s
    /// join-order search resolves the same columns many times per
    /// greedy round while scoring candidates it then discards. The
    /// `estimate_rung_total{rung=…}` counters are bumped by
    /// [`EngineObs::record_stats_use`] exactly once per lookup that
    /// contributes to a returned estimate, so degraded answers stay
    /// visible in `histctl metrics` without search-evaluation inflation.
    ///
    /// A column ANALYZE has recorded resolves without allocating; one it
    /// has not (a recovered catalog before this engine's first ANALYZE)
    /// builds its key on the spot.
    pub(crate) fn resolve_stats<'a>(
        &'a self,
        snap: &'a CatalogSnapshot,
        c: &ColumnRef,
    ) -> Result<ColumnStats<'a>> {
        let rows = self.relation(&c.table)?.num_rows() as f64;
        let recorded = self.column_record(c);
        let unrecorded;
        let record = match recorded {
            Some(record) => record,
            None => {
                unrecorded = ColumnRecord::new(&c.table, &c.column, Vec::new());
                &unrecorded
            }
        };
        let key = &record.key;
        let hist = snap.lookup(key);
        let domain = recorded
            .map(|r| r.domain.as_slice())
            .filter(|d| !d.is_empty());
        // Read once for the ladder and the trace event.
        let staleness = hist.and_then(|_| snap.staleness(key).ok());
        let rung = match (&hist, domain) {
            (Some(_), Some(_)) => {
                let stale = staleness.unwrap_or(u64::MAX) > self.policy.hard_staleness_limit;
                let breaker_open = snap
                    .refresh_failure(key)
                    .is_some_and(|f| f.count >= self.policy.breaker_failure_threshold);
                if stale || breaker_open {
                    EstimateRung::EndBiased
                } else {
                    EstimateRung::Spec
                }
            }
            (None, Some(_)) => EstimateRung::Trivial,
            _ => EstimateRung::Uniform,
        };
        // Flight-recorder provenance: which histogram class and rung
        // this resolution consulted. Guarded so the extra catalog
        // lookup (spec) happens only while tracing.
        let recorder = self.obs.recorder();
        if recorder.trace_active() {
            recorder.stats_resolved(
                &record.label,
                snap.spec_of(key).map(|s| s.name()),
                rung.name(),
                staleness,
            );
        }
        let tuned = hist.is_some() && snap.tuned_count(key) > 0;
        Ok(ColumnStats {
            rung,
            tuned,
            hist,
            domain,
            rows,
        })
    }

    /// What ANALYZE recorded about column `c`, if it has been analyzed.
    fn column_record(&self, c: &ColumnRef) -> Option<&ColumnRecord> {
        self.columns
            .get(c.table.as_str())
            .and_then(|columns| columns.get(c.column.as_str()))
    }

    /// The [`StatsUse`] target for one filter lookup. Equality-shaped
    /// filters keep the bare `table.column` form the estimator has
    /// always reported (pinning those trails bit-for-bit), shared from
    /// the column's record when ANALYZE made one; range-shaped filters
    /// name the full predicate they were estimated with, so a trail
    /// entry says exactly what the interpolation answered.
    pub(crate) fn filter_target(&self, f: &FilterPredicate) -> Arc<str> {
        if f.op.is_range_shaped() {
            return Arc::from(f.to_string());
        }
        match self.column_record(&f.column) {
            Some(record) => Arc::clone(&record.label),
            None => Arc::from(f.column.to_string()),
        }
    }

    /// Selectivity of one filter predicate and the rung that answered.
    ///
    /// Equality-shaped filters sum the mass of passing dictionary
    /// values: `=` and `IN` look their constants up in the dictionary
    /// (see [`ColumnStats::point_mass`]), `<>` walks it. Range-shaped
    /// filters on the `spec` rung are answered by overlap-ratio
    /// interpolation over the histogram's value-carrying buckets
    /// (`BETWEEN c AND c` normalises to equality first, so a point
    /// interval takes the equality path bit-for-bit); degraded rungs
    /// keep the dictionary walk, whose per-value model survives without
    /// bucket bounds. The `uniform` rung answers with System R's
    /// constants.
    pub(crate) fn filter_selectivity(
        &self,
        snap: &CatalogSnapshot,
        f: &FilterPredicate,
    ) -> Result<(f64, EstimateRung, bool)> {
        let stats = self.resolve_stats(snap, &f.column)?;
        let pred = f.op.to_predicate().normalize();
        let sel = match (stats.rung, pred.interval()) {
            (EstimateRung::Uniform, _) => uniform_filter_selectivity(&f.op),
            (EstimateRung::Spec, Some((q_lo, q_hi))) => {
                let hist = stats.hist.expect("spec rung has a histogram");
                (query::estimate::estimate_range(hist, q_lo, q_hi) / stats.rows.max(1.0))
                    .clamp(0.0, 1.0)
            }
            _ => {
                let mass = match pred {
                    Predicate::Equals(c) => stats.point_mass(&[c]),
                    Predicate::In(mut cs) => {
                        cs.sort_unstable();
                        cs.dedup();
                        stats.point_mass(&cs)
                    }
                    pred => stats
                        .domain
                        .expect("non-uniform rungs have a domain")
                        .iter()
                        .filter(|&&v| pred.matches(v))
                        .map(|&v| stats.approx_frequency(v))
                        .sum(),
                };
                (mass / stats.rows.max(1.0)).clamp(0.0, 1.0)
            }
        };
        Ok((sel, stats.rung, stats.tuned))
    }

    /// Estimates the query's `COUNT(*)` from catalog statistics alone —
    /// no base data is touched. Never fails for missing statistics: the
    /// ladder degrades to System R defaults instead.
    pub fn estimate(&self, query: &Query) -> Result<f64> {
        self.estimate_with_sources(query).map(|(est, _)| est)
    }

    /// Like [`Engine::estimate`], additionally reporting which ladder
    /// rung answered each statistics lookup.
    ///
    /// The hot path: pins one catalog snapshot, probes the estimation
    /// cache under `(fingerprint, snapshot epoch)`, and only computes on
    /// a miss. A hit replays the memoised [`StatsUse`] sequence through
    /// the ladder's rung accounting, so both the returned sources and
    /// the `estimate_rung_total` counters are identical hit vs. miss.
    pub fn estimate_with_sources(&self, query: &Query) -> Result<(f64, Vec<StatsUse>)> {
        let (estimate, sources, _) = self.estimate_pipeline(query, EstimateOptions::Cached)?;
        Ok((estimate, sources))
    }

    /// Like [`Engine::estimate_with_sources`], additionally returning a
    /// [`ProvenanceRecord`] — fingerprint, pinned epoch, cache outcome,
    /// per-lookup histogram class / rung / staleness, and per-stage
    /// timings. Estimation behaviour is identical: same snapshot
    /// pinning, same cache probe and insert, same [`StatsUse`]
    /// accounting; only the audit record is added.
    pub fn estimate_with_provenance(
        &self,
        query: &Query,
    ) -> Result<(f64, Vec<StatsUse>, ProvenanceRecord)> {
        let (estimate, sources, record) =
            self.estimate_pipeline(query, EstimateOptions::CachedWithProvenance)?;
        Ok((estimate, sources, record.expect("provenance was requested")))
    }

    /// Like [`Engine::estimate_with_sources`] but bypassing the
    /// estimation cache entirely — the brute-force reference path the
    /// equivalence tests and the bench harness compare against.
    pub fn estimate_with_sources_uncached(&self, query: &Query) -> Result<(f64, Vec<StatsUse>)> {
        let (estimate, sources, _) = self.estimate_pipeline(query, EstimateOptions::Uncached)?;
        Ok((estimate, sources))
    }

    /// The one estimation read path behind the public estimate methods:
    /// bind, pin one snapshot, then either compute on it (uncached) or
    /// build the snapshot's [`CacheKey`], probe, and replay a hit or
    /// compute and insert a miss. Probe and insert use the same key, so
    /// both are keyed by the epoch of the snapshot the estimate reads.
    fn estimate_pipeline(
        &self,
        query: &Query,
        opts: EstimateOptions,
    ) -> Result<(f64, Vec<StatsUse>, Option<ProvenanceRecord>)> {
        let _span = obs::span("estimate");
        let mut stages =
            (opts == EstimateOptions::CachedWithProvenance).then(|| Vec::with_capacity(3));
        timed(&mut stages, "bind", || self.bind(query))?;
        let snap = self.catalog.read_snapshot();
        if opts == EstimateOptions::Uncached {
            let (estimate, sources) = self.estimate_on(&snap, query)?;
            return Ok((estimate, sources, None));
        }
        let key = CacheKey::new(fingerprint(query), &snap);
        let hit = timed(&mut stages, "cache_lookup", || {
            let hit = {
                let _span = obs::span("est_cache_lookup");
                self.cache.get(key)
            };
            self.obs.cache_probe(key, hit.is_some());
            hit
        });
        let cache_hit = hit.is_some();
        let (estimate, sources) = match hit {
            Some(hit) => timed(&mut stages, "replay", || {
                let mut sources = Vec::with_capacity(hit.sources.len());
                for s in hit.sources.iter() {
                    self.obs
                        .record_stats_use(&mut sources, s.target.clone(), s.rung, s.tuned);
                }
                (hit.estimate, sources)
            }),
            None => timed(&mut stages, "compute", || -> Result<_> {
                let _span = obs::span("est_compute");
                let (estimate, sources) = self.estimate_on(&snap, query)?;
                let cached = CachedEstimate {
                    estimate,
                    sources: Arc::new(sources.clone()),
                };
                if self.cache.insert(key, cached) {
                    self.obs.cache_evicted();
                }
                Ok((estimate, sources))
            })?,
        };
        let provenance = stages.map(|stages| {
            ProvenanceRecord::build(&snap, key.fingerprint(), cache_hit, &sources, stages)
        });
        Ok((estimate, sources, provenance))
    }

    /// Computes the estimate against one pinned snapshot.
    fn estimate_on(&self, snap: &CatalogSnapshot, query: &Query) -> Result<(f64, Vec<StatsUse>)> {
        let mut sources = Vec::new();
        // Base cardinalities and filter selectivities.
        let mut estimate = 1.0f64;
        for t in &query.tables {
            let rows = self.relation(t)?.num_rows() as f64;
            estimate *= rows;
            if rows == 0.0 {
                return Ok((0.0, sources));
            }
        }
        for f in &query.filters {
            let (sel, rung, tuned) = self.filter_selectivity(snap, f)?;
            estimate *= sel;
            self.obs
                .record_stats_use(&mut sources, self.filter_target(f), rung, tuned);
        }
        // Join selectivities.
        for j in &query.joins {
            let (sel, rung, tuned) = self.join_selectivity(snap, j)?;
            estimate *= sel;
            self.obs
                .record_stats_use(&mut sources, j.to_string(), rung, tuned);
        }
        Ok((estimate, sources))
    }

    /// Selectivity of one join predicate and the rung that answered
    /// (the worse of the two sides). With both sides on `spec` an
    /// equality join is `Σ_v âL(v)·âR(v) / (|L|·|R|)` over the union of
    /// both dictionaries, answered in closed form over the stored
    /// layouts by [`query::estimate::estimate_equi_join`] (bit-identical
    /// to the union walk the oracle pins), and a band join
    /// `abs(l - r) <= w` is the
    /// bucket-pair overlap estimate of
    /// [`query::estimate::estimate_band_join`] scaled the same way.
    /// Degraded equality sides substitute their rung's per-value model;
    /// a degraded band join falls back to System R's `1/4` range
    /// constant, as does an equality join with no dictionary at all
    /// (`1/max(V₁,V₂)`, unknown `V` defaulted to 10).
    pub(crate) fn join_selectivity(
        &self,
        snap: &CatalogSnapshot,
        j: &crate::ast::JoinPredicate,
    ) -> Result<(f64, EstimateRung, bool)> {
        let left = self.resolve_stats(snap, &j.left)?;
        let right = self.resolve_stats(snap, &j.right)?;
        let rung = left.rung.worse(right.rung);
        let tuned = left.tuned || right.tuned;
        if let Some(w) = j.band {
            let sel = if left.rung == EstimateRung::Spec && right.rung == EstimateRung::Spec {
                let lh = left.hist.expect("spec rung has a histogram");
                let rh = right.hist.expect("spec rung has a histogram");
                let l_rows = self.relation(&j.left.table)?.num_rows() as f64;
                let r_rows = self.relation(&j.right.table)?.num_rows() as f64;
                (query::estimate::estimate_band_join(lh, rh, w) / (l_rows * r_rows).max(1.0))
                    .clamp(0.0, 1.0)
            } else {
                UNIFORM_BAND_SELECTIVITY
            };
            return Ok((sel, rung, tuned));
        }
        let (Some(l_dom), Some(r_dom)) = (left.domain, right.domain) else {
            let v_l = left
                .domain
                .map_or(UNIFORM_DISTINCT_DEFAULT, |d| d.len() as f64);
            let v_r = right
                .domain
                .map_or(UNIFORM_DISTINCT_DEFAULT, |d| d.len() as f64);
            return Ok(((1.0 / v_l.max(v_r).max(1.0)).clamp(0.0, 1.0), rung, tuned));
        };
        let overlap: f64 = if left.rung == EstimateRung::Spec && right.rung == EstimateRung::Spec {
            let lh = left.hist.expect("spec rung has a histogram");
            let rh = right.hist.expect("spec rung has a histogram");
            query::estimate::estimate_equi_join(lh, l_dom, rh, r_dom)
        } else {
            let mut domain: Vec<u64> = l_dom.iter().chain(r_dom).copied().collect();
            domain.sort_unstable();
            domain.dedup();
            domain
                .iter()
                .map(|&v| left.approx_frequency(v) * right.approx_frequency(v))
                .sum()
        };
        let l_rows = self.relation(&j.left.table)?.num_rows() as f64;
        let r_rows = self.relation(&j.right.table)?.num_rows() as f64;
        Ok(((overlap / (l_rows * r_rows)).clamp(0.0, 1.0), rung, tuned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::FilterOp;
    use freqdist::zipf::zipf_frequencies;
    use freqdist::{Arrangement, FreqMatrix};
    use relstore::generate::{relation_from_frequency_set, relation_from_matrix};

    fn registered_chain() -> Engine {
        // r0(a), r1(a, b), r2(b): a classic chain.
        let mut e = Engine::new();
        let f0 = zipf_frequencies(200, 10, 1.0).unwrap();
        e.register(relation_from_frequency_set("r0", "a", &f0, 1).unwrap());
        let fm = zipf_frequencies(300, 100, 0.8).unwrap();
        let arr = Arrangement::random_batch(100, 1, 7).remove(0);
        let matrix = FreqMatrix::from_arrangement(&fm, 10, 10, &arr).unwrap();
        let a_vals: Vec<u64> = (0..10).collect();
        let b_vals: Vec<u64> = (0..10).collect();
        e.register(relation_from_matrix("r1", "a", "b", &a_vals, &b_vals, &matrix, 2).unwrap());
        let f2 = zipf_frequencies(150, 10, 0.5).unwrap();
        e.register(relation_from_frequency_set("r2", "b", &f2, 3).unwrap());
        e
    }

    fn engine_with_chain() -> Engine {
        let mut e = registered_chain();
        e.analyze_all(5).unwrap();
        e
    }

    #[test]
    fn analyze_all_records_the_build_spec() {
        let mut e = registered_chain();
        let spec = BuilderSpec::MaxDiff(4);
        e.analyze_all_with(spec).unwrap();
        for key in e.catalog().keys() {
            assert_eq!(e.catalog().spec_of(&key), Some(spec), "{key:?}");
        }
    }

    #[test]
    fn parallel_analyze_snapshot_matches_sequential() {
        let spec = BuilderSpec::VOptEndBiased(5);
        let mut e = registered_chain();
        e.analyze_all_with(spec).unwrap();
        let parallel_bytes = relstore::codec::encode_catalog(e.catalog());

        // Sequential reference: one catalog.analyze per column, plain
        // loop, same spec.
        let seq = Catalog::new();
        for name in ["r0", "r1", "r2"] {
            let rel = e.relation(name).unwrap();
            let columns: Vec<String> = rel
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect();
            for column in columns {
                seq.analyze(rel, &column, spec).unwrap();
            }
        }
        let sequential_bytes = relstore::codec::encode_catalog(&seq);
        assert_eq!(parallel_bytes, sequential_bytes);
    }

    #[test]
    fn single_table_count() {
        let e = engine_with_chain();
        let q = e.parse("SELECT COUNT(*) FROM r0").unwrap();
        assert_eq!(e.execute(&q).unwrap(), 200);
        assert!((e.estimate(&q).unwrap() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn filtered_count_matches_direct_computation() {
        let e = engine_with_chain();
        let q = e
            .parse("SELECT COUNT(*) FROM r0 WHERE r0.a IN (0, 1)")
            .unwrap();
        let exact = e.execute(&q).unwrap();
        let direct = e
            .relation("r0")
            .unwrap()
            .column_by_name("a")
            .unwrap()
            .iter()
            .filter(|&&v| v == 0 || v == 1)
            .count();
        assert_eq!(exact, direct as u128);
    }

    #[test]
    fn two_way_join_matches_hash_join() {
        let e = engine_with_chain();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE r0.a = r1.a")
            .unwrap();
        let exact = e.execute(&q).unwrap();
        let direct = relstore::join::hash_join_count(
            e.relation("r0").unwrap(),
            "a",
            e.relation("r1").unwrap(),
            "a",
        )
        .unwrap();
        assert_eq!(exact, direct);
    }

    #[test]
    fn chain_join_with_filter_executes() {
        let e = engine_with_chain();
        let q = e
            .parse(
                "SELECT COUNT(*) FROM r0, r1, r2 \
                 WHERE r0.a = r1.a AND r1.b = r2.b AND r2.b <> 0",
            )
            .unwrap();
        let exact = e.execute(&q).unwrap();
        assert!(exact > 0);
        // And the estimate lands within a factor of 3 on this mild skew.
        let est = e.estimate(&q).unwrap();
        let ratio = est / exact as f64;
        assert!(
            (0.33..=3.0).contains(&ratio),
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn estimates_track_exact_sizes_for_joins() {
        let e = engine_with_chain();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE r0.a = r1.a")
            .unwrap();
        let exact = e.execute(&q).unwrap() as f64;
        let est = e.estimate(&q).unwrap();
        assert!(
            (est - exact).abs() / exact < 0.5,
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn cross_product_rejected() {
        let e = engine_with_chain();
        let q = e.parse("SELECT COUNT(*) FROM r0, r2").unwrap();
        assert!(matches!(
            e.execute(&q),
            Err(EngineError::InvalidJoinGraph(_))
        ));
        // Disconnected subgraph too.
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1, r2 WHERE r0.a = r1.a")
            .unwrap();
        assert!(matches!(
            e.execute(&q),
            Err(EngineError::InvalidJoinGraph(_))
        ));
    }

    #[test]
    fn binding_errors() {
        let e = engine_with_chain();
        let q = e.parse("SELECT COUNT(*) FROM nope").unwrap();
        assert!(matches!(
            e.execute(&q),
            Err(EngineError::UnknownRelation(_))
        ));
        let q = e.parse("SELECT COUNT(*) FROM r0 WHERE r0.zzz = 1").unwrap();
        assert!(matches!(
            e.execute(&q),
            Err(EngineError::UnknownColumn { .. })
        ));
        let q = e.parse("SELECT COUNT(*) FROM r0 WHERE r2.b = 1").unwrap();
        assert!(matches!(
            e.execute(&q),
            Err(EngineError::UnknownRelation(_))
        ));
    }

    #[test]
    fn estimate_without_statistics_answers_from_the_uniform_rung() {
        let mut e = Engine::new();
        let f0 = zipf_frequencies(100, 5, 0.0).unwrap();
        e.register(relation_from_frequency_set("t", "a", &f0, 1).unwrap());
        let q = e.parse("SELECT COUNT(*) FROM t WHERE t.a = 1").unwrap();
        // Never ANALYZEd: System R's 1/10 equality default applies.
        let (est, sources) = e.estimate_with_sources(&q).unwrap();
        assert!((est - 10.0).abs() < 1e-9, "est {est}");
        assert_eq!(
            sources,
            vec![StatsUse {
                target: "t.a".into(),
                rung: EstimateRung::Uniform,
                tuned: false,
            }]
        );
        // Execution works without statistics.
        assert_eq!(e.execute(&q).unwrap(), 20);
    }

    #[test]
    fn cache_hit_replays_the_cached_targets_without_copying_them() {
        let e = engine_with_chain();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE r0.a = r1.a AND r0.a < 4")
            .unwrap();
        let (_, computed) = e.estimate_with_sources(&q).unwrap();
        let (_, replayed) = e.estimate_with_sources(&q).unwrap();
        assert_eq!(replayed, computed);
        let key = CacheKey::new(fingerprint(&q), &e.catalog.read_snapshot());
        let cached = e.cache.get(key).expect("second estimate was a hit");
        assert_eq!(replayed.len(), 2);
        for (r, c) in replayed.iter().zip(cached.sources.iter()) {
            assert!(Arc::ptr_eq(&r.target, &c.target), "{} was copied", r.target);
        }
    }

    #[test]
    fn cache_counters_move_on_the_engines_recorder() {
        let recorder = Arc::new(obs::Recorder::new());
        let mut e = Engine::with_recorder(Arc::clone(&recorder));
        let f0 = zipf_frequencies(200, 10, 1.0).unwrap();
        e.register(relation_from_frequency_set("r0", "a", &f0, 1).unwrap());
        e.analyze_all(5).unwrap();
        // More distinct queries than the cache holds: the later misses
        // evict.
        let queries = 1200;
        for v in 0..queries {
            let sql = format!("SELECT COUNT(*) FROM r0 WHERE r0.a = {v}");
            e.estimate(&e.parse(&sql).unwrap()).unwrap();
        }
        let q = e
            .parse("SELECT COUNT(*) FROM r0 WHERE r0.a = 1199")
            .unwrap();
        e.estimate(&q).unwrap();
        let count = |name| recorder.registry().counter(name).get();
        assert_eq!(count("est_cache_miss_total"), queries);
        assert_eq!(count("est_cache_hit_total"), 1);
        assert!(count("est_cache_evict_total") >= queries - 1024);
    }

    #[test]
    fn emptied_catalog_degrades_to_uniform_instead_of_erroring() {
        let mut e = engine_with_chain();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE r0.a = r1.a AND r0.a = 2")
            .unwrap();
        assert!(e.estimate(&q).is_ok());
        e.clear_statistics();
        let (est, sources) = e.estimate_with_sources(&q).unwrap();
        // 200 × 300 × sel(=) × sel(join) = 60000 × 0.1 × 0.1 = 600.
        assert!((est - 600.0).abs() < 1e-9, "est {est}");
        assert!(sources.iter().all(|s| s.rung == EstimateRung::Uniform));
        assert_eq!(sources.len(), 2);
    }

    #[test]
    fn fresh_statistics_answer_from_the_spec_rung() {
        let e = engine_with_chain();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE r0.a = r1.a AND r0.a = 2")
            .unwrap();
        let (_, sources) = e.estimate_with_sources(&q).unwrap();
        assert_eq!(sources.len(), 2);
        assert!(sources.iter().all(|s| s.rung == EstimateRung::Spec));
    }

    #[test]
    fn staleness_past_hard_limit_demotes_to_end_biased() {
        let mut e = engine_with_chain();
        e.set_estimate_policy(EstimatePolicy {
            hard_staleness_limit: 50,
            ..EstimatePolicy::default()
        });
        let q = e.parse("SELECT COUNT(*) FROM r0 WHERE r0.a = 2").unwrap();
        let (_, sources) = e.estimate_with_sources(&q).unwrap();
        assert_eq!(sources[0].rung, EstimateRung::Spec);
        e.catalog().note_updates("r0", 51);
        let (est, sources) = e.estimate_with_sources(&q).unwrap();
        assert_eq!(sources[0].rung, EstimateRung::EndBiased);
        assert!(est.is_finite() && est >= 0.0);
    }

    #[test]
    fn refresh_failure_streak_opens_the_estimator_breaker() {
        let e = engine_with_chain();
        let q = e.parse("SELECT COUNT(*) FROM r0 WHERE r0.a = 2").unwrap();
        let key = StatKey::new("r0", &["a"]);
        for _ in 0..e.estimate_policy().breaker_failure_threshold {
            e.catalog().note_refresh_failure(&key, "disk on fire");
        }
        let (_, sources) = e.estimate_with_sources(&q).unwrap();
        assert_eq!(sources[0].rung, EstimateRung::EndBiased);
        // Only the quarantined column degrades; r1 stays on spec.
        let q2 = e.parse("SELECT COUNT(*) FROM r1 WHERE r1.a = 2").unwrap();
        let (_, sources2) = e.estimate_with_sources(&q2).unwrap();
        assert_eq!(sources2[0].rung, EstimateRung::Spec);
    }

    #[test]
    fn dictionary_without_histogram_uses_the_trivial_rung() {
        let mut e = Engine::new();
        let f0 = zipf_frequencies(100, 5, 0.0).unwrap();
        e.register(relation_from_frequency_set("t", "a", &f0, 1).unwrap());
        // A surviving value dictionary but no catalog entry (e.g. the
        // histogram was never rebuilt after recovery).
        e.columns.entry("t".to_string()).or_default().insert(
            "a".to_string(),
            ColumnRecord::new("t", "a", (0..5).collect()),
        );
        let q = e
            .parse("SELECT COUNT(*) FROM t WHERE t.a IN (0, 1)")
            .unwrap();
        let (est, sources) = e.estimate_with_sources(&q).unwrap();
        assert_eq!(sources[0].rung, EstimateRung::Trivial);
        // rows/|domain| = 20 per value, two values pass: 40.
        assert!((est - 40.0).abs() < 1e-9, "est {est}");
    }

    #[test]
    fn end_biased_rung_keeps_exception_values_exact() {
        // Heavy skew: the top value sits in a singleton bucket whose
        // average survives degradation untouched.
        let mut e = Engine::new();
        let f0 = zipf_frequencies(10_000, 50, 1.5).unwrap();
        e.register(relation_from_frequency_set("t", "a", &f0, 1).unwrap());
        e.analyze_all(8).unwrap();
        let q = e.parse("SELECT COUNT(*) FROM t WHERE t.a = 0").unwrap();
        let (fresh, sources) = e.estimate_with_sources(&q).unwrap();
        assert_eq!(sources[0].rung, EstimateRung::Spec);
        e.set_estimate_policy(EstimatePolicy {
            hard_staleness_limit: 0,
            ..EstimatePolicy::default()
        });
        e.catalog().note_updates("t", 1);
        let (degraded, sources) = e.estimate_with_sources(&q).unwrap();
        assert_eq!(sources[0].rung, EstimateRung::EndBiased);
        // The top value is an end-biased exception: its estimate is
        // unchanged by the demotion.
        assert!(
            (degraded - fresh).abs() < 1e-9,
            "degraded {degraded} vs fresh {fresh}"
        );
    }

    #[test]
    fn provenance_reports_cache_outcome_and_column_facts() {
        let e = engine_with_chain();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE r0.a = r1.a AND r0.a = 2")
            .unwrap();
        let (est1, sources1, prov1) = e.estimate_with_provenance(&q).unwrap();
        assert!(!prov1.cache_hit, "first estimate computes");
        let (est2, sources2, prov2) = e.estimate_with_provenance(&q).unwrap();
        assert!(prov2.cache_hit, "second estimate replays the cache");
        // Identical answers and trails either way.
        assert_eq!(est1.to_bits(), est2.to_bits());
        assert_eq!(sources1, sources2);
        assert_eq!(prov1.fingerprint, prov2.fingerprint);
        assert_eq!(prov1.epoch, prov2.epoch);
        assert_eq!(prov1.stats, prov2.stats);
        // Per-lookup facts: fresh spec-rung entries name their class
        // and a zero staleness.
        assert_eq!(prov1.stats.len(), 2);
        for p in &prov1.stats {
            assert_eq!(p.rung, EstimateRung::Spec);
            assert_eq!(p.class.as_deref(), Some("v_opt_end_biased"));
            assert_eq!(p.staleness, Some(0));
        }
        assert_eq!(prov1.worst_rung(), Some(EstimateRung::Spec));
        // Stage timings: bind, cache_lookup, then compute vs replay.
        let stages1: Vec<&str> = prov1.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages1, ["bind", "cache_lookup", "compute"]);
        let stages2: Vec<&str> = prov2.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages2, ["bind", "cache_lookup", "replay"]);
        // The record renders.
        let text = prov1.to_string();
        assert!(text.contains("cache=miss"), "{text}");
        assert!(text.contains("class=v_opt_end_biased"), "{text}");
    }

    #[test]
    fn provenance_tracks_staleness_on_degraded_columns() {
        let mut e = engine_with_chain();
        e.set_estimate_policy(EstimatePolicy {
            hard_staleness_limit: 50,
            ..EstimatePolicy::default()
        });
        e.catalog().note_updates("r0", 51);
        let q = e.parse("SELECT COUNT(*) FROM r0 WHERE r0.a = 2").unwrap();
        let (_, _, prov) = e.estimate_with_provenance(&q).unwrap();
        assert_eq!(prov.stats.len(), 1);
        assert_eq!(prov.stats[0].rung, EstimateRung::EndBiased);
        assert_eq!(prov.stats[0].staleness, Some(51));
        // And with no statistics at all, the facts honestly go blank.
        e.clear_statistics();
        let (_, _, prov) = e.estimate_with_provenance(&q).unwrap();
        assert_eq!(prov.stats[0].rung, EstimateRung::Uniform);
        assert_eq!(prov.stats[0].class, None);
        assert_eq!(prov.stats[0].staleness, None);
    }

    #[test]
    fn range_filters_match_execution_on_singleton_buckets() {
        // One bucket per value: interpolation is exact, so every range
        // shape estimates its executed count exactly.
        let mut e = Engine::new();
        let f0 = zipf_frequencies(300, 8, 1.0).unwrap();
        e.register(relation_from_frequency_set("t", "a", &f0, 1).unwrap());
        e.analyze_all(8).unwrap();
        for sql in [
            "SELECT COUNT(*) FROM t WHERE t.a < 3",
            "SELECT COUNT(*) FROM t WHERE t.a <= 3",
            "SELECT COUNT(*) FROM t WHERE t.a > 5",
            "SELECT COUNT(*) FROM t WHERE t.a >= 5",
            "SELECT COUNT(*) FROM t WHERE t.a BETWEEN 2 AND 6",
        ] {
            let q = e.parse(sql).unwrap();
            let exact = e.execute(&q).unwrap() as f64;
            let est = e.estimate(&q).unwrap();
            assert!(
                (est - exact).abs() < 1e-6,
                "{sql}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn range_filter_sources_name_the_predicate_form() {
        let e = engine_with_chain();
        let q = e
            .parse("SELECT COUNT(*) FROM r0 WHERE r0.a BETWEEN 2 AND 6")
            .unwrap();
        let (_, sources) = e.estimate_with_sources(&q).unwrap();
        assert_eq!(&*sources[0].target, "r0.a BETWEEN 2 AND 6");
        let q = e.parse("SELECT COUNT(*) FROM r0 WHERE r0.a > 4").unwrap();
        let (_, sources) = e.estimate_with_sources(&q).unwrap();
        assert_eq!(&*sources[0].target, "r0.a > 4");
        // Equality-family filters keep the bare-column trail of the
        // pre-interpolation engine.
        let q = e.parse("SELECT COUNT(*) FROM r0 WHERE r0.a = 2").unwrap();
        let (_, sources) = e.estimate_with_sources(&q).unwrap();
        assert_eq!(&*sources[0].target, "r0.a");
    }

    #[test]
    fn point_between_estimates_bit_identical_to_equality() {
        let e = engine_with_chain();
        let qb = e
            .parse("SELECT COUNT(*) FROM r0 WHERE r0.a BETWEEN 2 AND 2")
            .unwrap();
        let qe = e.parse("SELECT COUNT(*) FROM r0 WHERE r0.a = 2").unwrap();
        assert_eq!(
            e.estimate(&qb).unwrap().to_bits(),
            e.estimate(&qe).unwrap().to_bits()
        );
        // And the point interval keeps the bare-column equality trail.
        let (_, sources) = e.estimate_with_sources(&qb).unwrap();
        assert_eq!(&*sources[0].target, "r0.a");
    }

    #[test]
    fn band_join_executes_and_estimates() {
        let e = engine_with_chain();
        // w = 0: the band join executes exactly like the equality join.
        let qb = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE ABS(r0.a - r1.a) <= 0")
            .unwrap();
        let qe = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE r0.a = r1.a")
            .unwrap();
        assert_eq!(e.execute(&qb).unwrap(), e.execute(&qe).unwrap());
        // Widening the band never loses rows; estimates stay finite and
        // non-negative and come from the spec rung with the band target.
        let mut last = 0u128;
        for w in [0u64, 1, 3, 20] {
            let q = e
                .parse(&format!(
                    "SELECT COUNT(*) FROM r0, r1 WHERE ABS(r0.a - r1.a) <= {w}"
                ))
                .unwrap();
            let exact = e.execute(&q).unwrap();
            assert!(exact >= last, "w={w} lost rows");
            last = exact;
            let (est, sources) = e.estimate_with_sources(&q).unwrap();
            assert!(est.is_finite() && est >= 0.0, "w={w}: {est}");
            assert_eq!(*sources[0].target, format!("abs(r0.a - r1.a) <= {w}"));
            assert_eq!(sources[0].rung, EstimateRung::Spec);
        }
        // A band covering the whole domain is the cross product.
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE ABS(r0.a - r1.a) <= 1000")
            .unwrap();
        let exact = e.execute(&q).unwrap();
        assert_eq!(exact, 200 * 300);
        let est = e.estimate(&q).unwrap();
        let ratio = est / exact as f64;
        assert!((0.9..=1.1).contains(&ratio), "est {est} vs exact {exact}");
    }

    #[test]
    fn degraded_band_join_falls_back_to_the_range_constant() {
        let mut e = engine_with_chain();
        e.clear_statistics();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE ABS(r0.a - r1.a) <= 2")
            .unwrap();
        let (est, sources) = e.estimate_with_sources(&q).unwrap();
        // 200 × 300 × 1/4.
        assert!((est - 15_000.0).abs() < 1e-9, "est {est}");
        assert_eq!(sources[0].rung, EstimateRung::Uniform);
    }

    #[test]
    fn residual_band_predicate_filters_the_intermediate() {
        let e = engine_with_chain();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE r0.a = r1.a AND ABS(r0.a - r1.b) <= 2")
            .unwrap();
        let exact = e.execute(&q).unwrap();
        // Direct nested-loop reference.
        let r0 = e.relation("r0").unwrap();
        let r1 = e.relation("r1").unwrap();
        let a0 = r0.column_by_name("a").unwrap();
        let a1 = r1.column_by_name("a").unwrap();
        let b1 = r1.column_by_name("b").unwrap();
        let mut expect = 0u128;
        for &x in a0 {
            for (i, &y) in a1.iter().enumerate() {
                if x == y && x.abs_diff(b1[i]) <= 2 {
                    expect += 1;
                }
            }
        }
        assert_eq!(exact, expect);
    }

    #[test]
    fn cached_range_estimates_replay_bit_identical() {
        let e = engine_with_chain();
        let q = e
            .parse(
                "SELECT COUNT(*) FROM r0, r1 \
                 WHERE ABS(r0.a - r1.a) <= 2 AND r0.a BETWEEN 1 AND 7",
            )
            .unwrap();
        let (e1, s1) = e.estimate_with_sources(&q).unwrap(); // miss
        let (e2, s2) = e.estimate_with_sources(&q).unwrap(); // hit
        assert_eq!(e1.to_bits(), e2.to_bits());
        assert_eq!(s1, s2);
        let (eu, su) = e.estimate_with_sources_uncached(&q).unwrap();
        assert_eq!(e1.to_bits(), eu.to_bits());
        assert_eq!(s1, su);
    }

    #[test]
    fn self_join_predicate_within_one_table_pair() {
        // Join predicate between two already-joined tables acts as a
        // residual filter: r0.a = r1.a AND r0.a = r1.b.
        let e = engine_with_chain();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE r0.a = r1.a AND r0.a = r1.b")
            .unwrap();
        let exact = e.execute(&q).unwrap();
        // Direct computation: Σ over rows of r1 with a == b of freq_r0(a).
        let r0 = e.relation("r0").unwrap();
        let r1 = e.relation("r1").unwrap();
        let t0 = frequency_table(r0, "a").unwrap();
        let mut expect: u128 = 0;
        for row in r1.iter_rows() {
            if row[0] == row[1] {
                expect += t0.frequency_of(row[0]) as u128;
            }
        }
        assert_eq!(exact, expect);
    }

    /// One engine per non-uniform rung over the same column `t.a`,
    /// whose 40 dictionary values `0, 3, 6, …` leave gaps for absent
    /// constants: fresh statistics (`spec`), statistics stale past the
    /// hard limit (`end_biased`), and a dictionary without a histogram
    /// (`trivial`).
    fn point_lookup_engines() -> [(Engine, EstimateRung); 3] {
        let values: Vec<u64> = (0..40).map(|v| v * 3).collect();
        let freqs = zipf_frequencies(4_000, 40, 1.2).unwrap();
        let build = || {
            let mut e = Engine::new();
            e.register(
                relstore::generate::relation_from_frequencies("t", "a", &values, &freqs, 1)
                    .unwrap(),
            );
            e.analyze_all(6).unwrap();
            e
        };
        let spec = build();
        let mut end_biased = build();
        end_biased.set_estimate_policy(EstimatePolicy {
            hard_staleness_limit: 0,
            ..EstimatePolicy::default()
        });
        end_biased.catalog().note_updates("t", 1);
        let mut trivial = build();
        trivial.catalog = Arc::new(Catalog::new());
        [
            (spec, EstimateRung::Spec),
            (end_biased, EstimateRung::EndBiased),
            (trivial, EstimateRung::Trivial),
        ]
    }

    /// The selectivity the dictionary walk gives `op` on `t.a`: every
    /// dictionary value the predicate passes, summed in order.
    fn walked_selectivity(e: &Engine, op: &FilterOp) -> f64 {
        let snap = e.catalog.read_snapshot();
        let column = ColumnRef {
            table: "t".into(),
            column: "a".into(),
        };
        let stats = e.resolve_stats(&snap, &column).unwrap();
        let pred = op.to_predicate();
        let mass: f64 = stats
            .domain
            .unwrap()
            .iter()
            .filter(|&&v| pred.matches(v))
            .map(|&v| stats.approx_frequency(v))
            .sum();
        (mass / stats.rows.max(1.0)).clamp(0.0, 1.0)
    }

    fn looked_up_selectivity(e: &Engine, op: &FilterOp) -> (f64, EstimateRung) {
        let f = FilterPredicate {
            column: ColumnRef {
                table: "t".into(),
                column: "a".into(),
            },
            op: op.clone(),
        };
        let (sel, rung, _) = e
            .filter_selectivity(&e.catalog.read_snapshot(), &f)
            .unwrap();
        (sel, rung)
    }

    #[test]
    fn point_lookups_of_absent_constants_give_the_empty_sum() {
        for (e, rung) in point_lookup_engines() {
            for op in [
                FilterOp::Equals(1),
                FilterOp::Equals(500),
                FilterOp::Between(4, 4),
                FilterOp::In(vec![500, 1, 1]),
                FilterOp::In(vec![]),
            ] {
                let (sel, answered) = looked_up_selectivity(&e, &op);
                assert_eq!(answered, rung);
                assert_eq!(sel.to_bits(), (-0.0f64).to_bits(), "{rung:?} {op:?}");
            }
        }
    }

    proptest::proptest! {
        /// `=`, point `BETWEEN` and `IN` filters answered by dictionary
        /// lookups equal the dictionary walk bit for bit on every rung
        /// with a per-value model, for present, absent, unsorted and
        /// repeated constants.
        #[test]
        fn point_lookup_filters_equal_the_dictionary_walk(
            c in 0u64..130,
            list in proptest::collection::vec(0u64..130, 0..10),
        ) {
            let mut repeated = list.clone();
            repeated.extend(list.iter().rev());
            for (e, rung) in point_lookup_engines() {
                for op in [
                    FilterOp::Equals(c),
                    FilterOp::Between(c, c),
                    FilterOp::In(list.clone()),
                    FilterOp::In(repeated.clone()),
                ] {
                    let (sel, answered) = looked_up_selectivity(&e, &op);
                    proptest::prop_assert!(answered == rung);
                    let walked = walked_selectivity(&e, &op);
                    proptest::prop_assert!(
                        sel.to_bits() == walked.to_bits(),
                        "{:?} {:?}: {} vs {}", rung, op, sel, walked
                    );
                }
            }
        }
    }
}
