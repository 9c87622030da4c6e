//! `EXPLAIN ANALYZE`: cost-based join ordering with side-by-side
//! estimated and actual cardinalities.
//!
//! Join order is chosen greedily from the catalog statistics: at every
//! step the engine picks the applicable join predicate whose estimated
//! output is smallest (the textbook heuristic the paper's histograms
//! feed). Each step is then executed, so the report shows exactly where
//! the estimates drove the plan and how far they were from the truth.

use crate::ast::{FilterPredicate, JoinPredicate, Query};
use crate::cache::fingerprint;
use crate::engine::{filter_target, Engine};
use crate::error::{EngineError, Result};
use crate::ladder::{EstimateRung, StatsUse};
use crate::provenance::{ProvenanceRecord, StageTiming};
use relstore::join::materialize_join;
use relstore::{CatalogSnapshot, Relation};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One step of an executed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Human-readable description (`scan orders [filtered]`,
    /// `join lineitem ON orders.part = lineitem.part`, …).
    pub description: String,
    /// Cardinality the optimizer expected from the catalog statistics.
    pub estimated: f64,
    /// Cardinality actually produced.
    pub actual: u128,
    /// Wall time this stage took (zero when span recording is
    /// disabled).
    pub elapsed: std::time::Duration,
}

impl PlanStep {
    /// Q-error of this step's estimate.
    pub fn q_error(&self) -> f64 {
        let a = (self.actual as f64).max(1.0);
        let e = self.estimated.max(1e-9);
        (e / a).max(a / e)
    }
}

/// The full report of an `EXPLAIN ANALYZE` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainOutput {
    /// Steps in execution order (scans first, then joins).
    pub steps: Vec<PlanStep>,
    /// Which degradation-ladder rung answered each statistics lookup
    /// the optimizer performed (one entry per filter and join
    /// predicate, in plan order).
    pub stats_sources: Vec<StatsUse>,
    /// The exact `COUNT(*)`.
    pub count: u128,
    /// Full estimate provenance: fingerprint, pinned epoch, per-lookup
    /// histogram class / staleness, and per-step timings.
    pub provenance: ProvenanceRecord,
}

impl ExplainOutput {
    /// The worst (most degraded) rung any lookup fell to, if statistics
    /// were consulted at all.
    pub fn worst_rung(&self) -> Option<EstimateRung> {
        self.stats_sources.iter().map(|s| s.rung).max()
    }
}

impl fmt::Display for ExplainOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<52} {:>12} {:>12} {:>8} {:>10}",
            "step", "estimated", "actual", "q-err", "time"
        )?;
        for s in &self.steps {
            writeln!(
                f,
                "{:<52} {:>12.0} {:>12} {:>7.2}x {:>10}",
                s.description,
                s.estimated,
                s.actual,
                s.q_error(),
                format!("{:.1?}", s.elapsed)
            )?;
        }
        for s in &self.stats_sources {
            writeln!(f, "stats {:<46} via {} rung", s.target, s.rung.name())?;
        }
        for p in &self.provenance.stats {
            writeln!(
                f,
                "prov  {:<46} class={} staleness={}",
                p.target,
                p.class.as_deref().unwrap_or("-"),
                p.staleness
                    .map_or_else(|| "-".to_string(), |n| n.to_string()),
            )?;
        }
        writeln!(
            f,
            "prov  fp={:016x} epoch={}",
            self.provenance.fingerprint, self.provenance.epoch
        )?;
        write!(f, "COUNT(*) = {}", self.count)
    }
}

/// One [`StageTiming`] per executed plan step, for the report's
/// provenance record.
fn plan_stages(steps: &[PlanStep]) -> Vec<StageTiming> {
    steps
        .iter()
        .map(|s| StageTiming {
            stage: s.description.clone(),
            elapsed: s.elapsed,
        })
        .collect()
}

/// The column names one [`StatsUse`] target consulted, for the
/// per-column quality scopes: bare columns (`t.a`), equality joins
/// (`l.a = r.b`), band joins (`abs(l.a - r.b) <= w`), and the
/// predicate-form range-filter targets (`t.a < 5`,
/// `t.a BETWEEN 2 AND 4`) whose column is the leading token.
fn target_columns(target: &str) -> Vec<&str> {
    if let Some((inside, _)) = target
        .strip_prefix("abs(")
        .and_then(|rest| rest.split_once(')'))
    {
        if let Some((l, r)) = inside.split_once(" - ") {
            return vec![l, r];
        }
    }
    if let Some((l, r)) = target.split_once(" = ") {
        return vec![l, r];
    }
    vec![target.split_whitespace().next().unwrap_or(target)]
}

impl Engine {
    /// One plan-step materialisation: equality joins hash, band joins
    /// probe a sorted value window.
    fn materialize_join_step(
        left: &Relation,
        lcol: &str,
        right: &Relation,
        rcol: &str,
        band: Option<u64>,
    ) -> Result<Relation> {
        match band {
            None => Ok(materialize_join(left, lcol, right, rcol)?),
            Some(w) => Self::materialize_band_join(left, lcol, right, rcol, w),
        }
    }

    /// Estimated output cardinality of joining two intermediate results
    /// through `predicate`, given their current estimated cardinalities,
    /// plus the ladder rung the selectivity came from.
    fn join_step_estimate(
        &self,
        snap: &CatalogSnapshot,
        predicate: &JoinPredicate,
        est_left_rows: f64,
        est_right_rows: f64,
    ) -> Result<(f64, EstimateRung, bool)> {
        let (sel, rung, tuned) = self.join_selectivity(snap, predicate)?;
        Ok((est_left_rows * est_right_rows * sel, rung, tuned))
    }

    /// Executes the query with statistics-driven join ordering and
    /// returns the per-step report.
    ///
    /// Requires `analyze_all` to have run (the optimizer can't order
    /// joins without statistics).
    ///
    /// The whole run pins one catalog snapshot: every selectivity the
    /// plan search evaluates reads the same epoch, so a concurrent
    /// ANALYZE or daemon refresh can never split one plan across two
    /// statistics states.
    pub fn explain_analyze(&self, query: &Query) -> Result<ExplainOutput> {
        let _span = obs::span("explain_analyze");
        crate::engine::queries_total().inc();
        self.bind(query)?;
        let snap = self.catalog().read_snapshot();
        let mut steps = Vec::new();
        let mut stats_sources = Vec::new();

        // Scan + filter every base table, recording estimated vs actual.
        let mut per_table: HashMap<&str, Vec<&FilterPredicate>> = HashMap::new();
        for f in &query.filters {
            per_table
                .entry(f.column.table.as_str())
                .or_default()
                .push(f);
        }
        let mut bases: HashMap<String, Relation> = HashMap::new();
        let mut est_rows: HashMap<String, f64> = HashMap::new();
        for t in &query.tables {
            let sp = obs::span("scan");
            let filters = per_table.get(t.as_str()).map_or(&[][..], Vec::as_slice);
            let filtered = self.filtered_base(t, filters)?;
            let mut est = self.relation(t)?.num_rows() as f64;
            for f in filters {
                let (sel, rung, tuned) = self.filter_selectivity(&snap, f)?;
                est *= sel;
                self.obs
                    .record_stats_use(&mut stats_sources, filter_target(f), rung, tuned);
            }
            steps.push(PlanStep {
                description: if filters.is_empty() {
                    format!("scan {t}")
                } else {
                    format!("scan {t} [{} filter(s)]", filters.len())
                },
                estimated: est,
                actual: filtered.num_rows() as u128,
                elapsed: sp.finish(),
            });
            est_rows.insert(t.clone(), est);
            bases.insert(t.clone(), Self::qualified(&filtered)?);
        }

        if query.tables.len() == 1 {
            let count = bases[&query.tables[0]].num_rows() as u128;
            self.record_query_quality(
                &snap,
                query,
                est_rows[&query.tables[0]],
                count,
                &stats_sources,
            );
            let provenance = ProvenanceRecord::build(
                &snap,
                fingerprint(query),
                false,
                &stats_sources,
                plan_stages(&steps),
            );
            return Ok(ExplainOutput {
                steps,
                stats_sources,
                count,
                provenance,
            });
        }
        if query.joins.is_empty() {
            return Err(EngineError::InvalidJoinGraph(
                "no join predicates between tables".into(),
            ));
        }

        // Start from the join with the smallest estimated output.
        let mut pending: Vec<&JoinPredicate> = query.joins.iter().collect();
        let mut joined: HashSet<String> = HashSet::new();
        let first_idx = {
            let mut best = (f64::INFINITY, 0usize);
            for (i, j) in pending.iter().enumerate() {
                let (e, _, _) = self.join_step_estimate(
                    &snap,
                    j,
                    est_rows[&j.left.table],
                    est_rows[&j.right.table],
                )?;
                if e < best.0 {
                    best = (e, i);
                }
            }
            best.1
        };
        let j = pending.remove(first_idx);
        let sp = obs::span("join");
        let (mut acc_est, first_rung, first_tuned) =
            self.join_step_estimate(&snap, j, est_rows[&j.left.table], est_rows[&j.right.table])?;
        self.obs
            .record_stats_use(&mut stats_sources, j.to_string(), first_rung, first_tuned);
        let mut acc = Self::materialize_join_step(
            &bases[&j.left.table],
            &j.left.to_string(),
            &bases[&j.right.table],
            &j.right.to_string(),
            j.band,
        )?;
        joined.insert(j.left.table.clone());
        joined.insert(j.right.table.clone());
        steps.push(PlanStep {
            description: format!("join {j}"),
            estimated: acc_est,
            actual: acc.num_rows() as u128,
            elapsed: sp.finish(),
        });

        while joined.len() < query.tables.len() || !pending.is_empty() {
            // Residual predicates inside the accumulated result first.
            if let Some(idx) = pending
                .iter()
                .position(|j| joined.contains(&j.left.table) && joined.contains(&j.right.table))
            {
                let j = pending.remove(idx);
                let sp = obs::span("residual_filter");
                // A residual predicate keeps one row per matching value
                // pair: its selectivity within the intermediate is the
                // pair-overlap selectivity scaled back up by one side's
                // cardinality (the other side is already fixed per row).
                let (sel, rung, tuned) = self.join_selectivity(&snap, j)?;
                self.obs
                    .record_stats_use(&mut stats_sources, j.to_string(), rung, tuned);
                acc_est *= sel * self.relation(&j.left.table)?.num_rows() as f64;
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
                steps.push(PlanStep {
                    description: format!("residual filter {j}"),
                    estimated: acc_est,
                    actual: acc.num_rows() as u128,
                    elapsed: sp.finish(),
                });
                continue;
            }
            // Among joins that connect a new table, pick the smallest
            // estimated output.
            let mut best: Option<(f64, usize, EstimateRung, bool)> = None;
            for (i, j) in pending.iter().enumerate() {
                let l_in = joined.contains(&j.left.table);
                let r_in = joined.contains(&j.right.table);
                if l_in == r_in {
                    continue;
                }
                let new_table = if l_in { &j.right.table } else { &j.left.table };
                let (e, rung, tuned) =
                    self.join_step_estimate(&snap, j, acc_est, est_rows[new_table])?;
                if best.is_none_or(|(b, _, _, _)| e < b) {
                    best = Some((e, i, rung, tuned));
                }
            }
            let Some((step_est, idx, step_rung, step_tuned)) = best else {
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
            let sp = obs::span("join");
            let (acc_side, new_side) = if joined.contains(&j.left.table) {
                (&j.left, &j.right)
            } else {
                (&j.right, &j.left)
            };
            acc = Self::materialize_join_step(
                &acc,
                &acc_side.to_string(),
                &bases[&new_side.table],
                &new_side.to_string(),
                j.band,
            )?;
            acc_est = step_est;
            joined.insert(new_side.table.clone());
            self.obs
                .record_stats_use(&mut stats_sources, j.to_string(), step_rung, step_tuned);
            steps.push(PlanStep {
                description: format!("join {j}"),
                estimated: acc_est,
                actual: acc.num_rows() as u128,
                elapsed: sp.finish(),
            });
        }
        let count = acc.num_rows() as u128;
        self.record_query_quality(&snap, query, acc_est, count, &stats_sources);
        let provenance = ProvenanceRecord::build(
            &snap,
            fingerprint(query),
            false,
            &stats_sources,
            plan_stages(&steps),
        );
        Ok(ExplainOutput {
            steps,
            stats_sources,
            count,
            provenance,
        })
    }

    /// Feeds the query's final (estimate, actual) pair to the
    /// estimation-quality monitor:
    ///
    /// * under the `<query tables>/<histogram class>` scope (the class
    ///   component is read from the catalog's recorded build spec — all
    ///   columns share one spec after `analyze_all_with`; entries
    ///   stored without a spec fall back to the engine's default
    ///   class);
    /// * under a `col:<table.column>` scope for every column the
    ///   estimate consulted, so the drift watchdog can attribute
    ///   degrading accuracy to individual columns (the signal a refresh
    ///   prioritizer consumes);
    /// * under the worst rung's `rung:<rung>` scope, driving the
    ///   per-rung EWMA gauges.
    fn record_query_quality(
        &self,
        snap: &CatalogSnapshot,
        query: &Query,
        estimate: f64,
        actual: u128,
        sources: &[StatsUse],
    ) {
        let class = snap
            .keys()
            .into_iter()
            .filter(|k| query.tables.contains(&k.relation))
            .find_map(|k| snap.spec_of(&k))
            .map_or("v_opt_end_biased", |s| s.name());
        let scope = format!("{}/{class}", query.tables.join(","));
        obs::record_quality(&scope, estimate, actual as f64);
        let mut columns: Vec<&str> = sources
            .iter()
            .flat_map(|s| target_columns(&s.target))
            .collect();
        columns.sort_unstable();
        columns.dedup();
        for column in columns {
            obs::record_quality(&format!("col:{column}"), estimate, actual as f64);
        }
        if let Some(worst) = sources.iter().map(|s| s.rung).max() {
            obs::quality::record_rung_quality(worst.name(), estimate, actual as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freqdist::zipf::zipf_frequencies;
    use freqdist::{Arrangement, FreqMatrix};
    use relstore::generate::{relation_from_frequency_set, relation_from_matrix};

    fn engine() -> Engine {
        let mut e = Engine::new();
        let f0 = zipf_frequencies(400, 20, 1.0).unwrap();
        e.register(relation_from_frequency_set("r0", "a", &f0, 1).unwrap());
        let fm = zipf_frequencies(600, 20 * 10, 0.8).unwrap();
        let arr = Arrangement::random_batch(200, 1, 7).remove(0);
        let m = FreqMatrix::from_arrangement(&fm, 20, 10, &arr).unwrap();
        let a_vals: Vec<u64> = (0..20).collect();
        let b_vals: Vec<u64> = (0..10).collect();
        e.register(relation_from_matrix("r1", "a", "b", &a_vals, &b_vals, &m, 2).unwrap());
        let f2 = zipf_frequencies(100, 10, 0.3).unwrap();
        e.register(relation_from_frequency_set("r2", "b", &f2, 3).unwrap());
        e.analyze_all(6).unwrap();
        e
    }

    #[test]
    fn explain_count_matches_execute() {
        let e = engine();
        for sql in [
            "SELECT COUNT(*) FROM r0",
            "SELECT COUNT(*) FROM r0 WHERE r0.a IN (1, 2)",
            "SELECT COUNT(*) FROM r0, r1 WHERE r0.a = r1.a",
            "SELECT COUNT(*) FROM r0, r1, r2 WHERE r0.a = r1.a AND r1.b = r2.b",
            "SELECT COUNT(*) FROM r0, r1, r2 \
             WHERE r0.a = r1.a AND r1.b = r2.b AND r2.b <> 3",
        ] {
            let q = e.parse(sql).unwrap();
            let plain = e.execute(&q).unwrap();
            let explained = e.explain_analyze(&q).unwrap();
            assert_eq!(plain, explained.count, "{sql}");
        }
    }

    #[test]
    fn steps_cover_scans_and_joins() {
        let e = engine();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1, r2 WHERE r0.a = r1.a AND r1.b = r2.b")
            .unwrap();
        let out = e.explain_analyze(&q).unwrap();
        // 3 scans + 2 joins.
        assert_eq!(out.steps.len(), 5);
        assert!(out.steps[0].description.starts_with("scan"));
        assert!(out.steps[3].description.starts_with("join"));
        // The final join's actual equals the count.
        assert_eq!(out.steps.last().unwrap().actual, out.count);
        // Render does not panic and mentions the count.
        let text = out.to_string();
        assert!(text.contains("COUNT(*)"));
    }

    /// Join-order search scores many candidate orders, each scoring
    /// pass consulting the same column statistics as the chosen plan —
    /// but only the *final* plan's estimate may feed the quality
    /// monitor. One explain_analyze must record exactly one
    /// observation per consulted `col:` scope (the drift watchdog
    /// attributes accuracy to columns; double-counting a stationary
    /// workload would look like drift), and no scope at all for
    /// columns outside the plan's statistics trail.
    #[test]
    fn candidate_scoring_does_not_pollute_column_quality_scopes() {
        // Relation names unique to this test: the quality registry is
        // process-global and other tests in this binary record their
        // own `col:` scopes concurrently.
        let mut e = Engine::new();
        let f0 = zipf_frequencies(400, 20, 1.0).unwrap();
        e.register(relation_from_frequency_set("qp_r0", "a", &f0, 1).unwrap());
        let fm = zipf_frequencies(600, 20 * 10, 0.8).unwrap();
        let arr = Arrangement::random_batch(200, 1, 7).remove(0);
        let m = FreqMatrix::from_arrangement(&fm, 20, 10, &arr).unwrap();
        let a_vals: Vec<u64> = (0..20).collect();
        let b_vals: Vec<u64> = (0..10).collect();
        e.register(relation_from_matrix("qp_r1", "a", "b", &a_vals, &b_vals, &m, 2).unwrap());
        let f2 = zipf_frequencies(100, 10, 0.3).unwrap();
        e.register(relation_from_frequency_set("qp_r2", "b", &f2, 3).unwrap());
        e.analyze_all(6).unwrap();

        let q = e
            .parse(
                "SELECT COUNT(*) FROM qp_r0, qp_r1, qp_r2 \
                 WHERE qp_r0.a = qp_r1.a AND qp_r1.b = qp_r2.b",
            )
            .unwrap();
        let out = e.explain_analyze(&q).unwrap();

        let mut trail_columns: Vec<String> = out
            .stats_sources
            .iter()
            .flat_map(|s| target_columns(&s.target))
            .map(|c| format!("col:{c}"))
            .collect();
        trail_columns.sort_unstable();
        trail_columns.dedup();
        assert!(!trail_columns.is_empty());

        let mut recorded: Vec<(String, u64)> = obs::quality::snapshot_prefixed("col:qp_")
            .into_iter()
            .map(|(scope, snap)| (scope, snap.count))
            .collect();
        recorded.sort();
        // Exactly the trail's columns, no extras from discarded
        // candidate orders...
        assert_eq!(
            recorded.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>(),
            trail_columns
        );
        // ...and exactly one observation each, despite the join-order
        // search having estimated each candidate step.
        for (scope, count) in recorded {
            assert_eq!(count, 1, "{scope} recorded {count} observations");
        }
    }

    #[test]
    fn estimates_are_close_on_scans() {
        let e = engine();
        let q = e.parse("SELECT COUNT(*) FROM r0 WHERE r0.a = 0").unwrap();
        let out = e.explain_analyze(&q).unwrap();
        // Top value is in a singleton bucket: the scan estimate is exact.
        assert!(out.steps[0].q_error() < 1.05, "{:?}", out.steps[0]);
    }

    #[test]
    fn join_order_prefers_smaller_outputs() {
        // r2 is tiny; the optimizer should join r1 ⋈ r2 before touching
        // r0 whenever that output is smaller.
        let e = engine();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1, r2 WHERE r0.a = r1.a AND r1.b = r2.b")
            .unwrap();
        let out = e.explain_analyze(&q).unwrap();
        let joins: Vec<&PlanStep> = out
            .steps
            .iter()
            .filter(|s| s.description.starts_with("join"))
            .collect();
        assert_eq!(joins.len(), 2);
        // The first chosen join must be the one with the smaller
        // estimate of the two options at the start.
        assert!(
            joins[0].estimated <= joins[1].estimated * 10.0,
            "first join should not be wildly larger: {joins:?}"
        );
    }

    #[test]
    fn explain_names_the_rung_used() {
        let e = engine();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE r0.a = r1.a AND r0.a = 1")
            .unwrap();
        let out = e.explain_analyze(&q).unwrap();
        // One filter + one join lookup, all on fresh statistics.
        assert_eq!(out.stats_sources.len(), 2);
        assert_eq!(out.worst_rung(), Some(EstimateRung::Spec));
        assert!(out.to_string().contains("via spec rung"), "{out}");
    }

    #[test]
    fn explain_after_catalog_loss_names_the_uniform_rung() {
        let mut e = engine();
        e.clear_statistics();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE r0.a = r1.a AND r0.a = 1")
            .unwrap();
        let out = e.explain_analyze(&q).unwrap();
        assert_eq!(out.worst_rung(), Some(EstimateRung::Uniform));
        assert!(out.to_string().contains("via uniform rung"), "{out}");
        // The exact count is unaffected by statistics loss.
        assert_eq!(out.count, e.execute(&q).unwrap());
    }

    #[test]
    fn explain_attaches_a_provenance_record() {
        let e = engine();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE r0.a = r1.a AND r0.a = 1")
            .unwrap();
        let out = e.explain_analyze(&q).unwrap();
        assert!(!out.provenance.cache_hit, "explain never uses the cache");
        assert_eq!(out.provenance.epoch, e.catalog().read_snapshot().epoch());
        // One provenance entry per statistics lookup, in the same order.
        assert_eq!(out.provenance.stats.len(), out.stats_sources.len());
        for (p, s) in out.provenance.stats.iter().zip(&out.stats_sources) {
            assert_eq!(p.target, s.target);
            assert_eq!(p.rung, s.rung);
            assert_eq!(p.class.as_deref(), Some("v_opt_end_biased"));
        }
        // One stage per executed plan step.
        assert_eq!(out.provenance.stages.len(), out.steps.len());
        assert!(out.to_string().contains("prov  fp="), "{out}");
    }

    #[test]
    fn explain_handles_band_joins_and_range_filters() {
        let e = engine();
        let q = e
            .parse("SELECT COUNT(*) FROM r0, r1 WHERE ABS(r0.a - r1.a) <= 1 AND r0.a >= 3")
            .unwrap();
        let out = e.explain_analyze(&q).unwrap();
        assert_eq!(out.count, e.execute(&q).unwrap());
        assert!(
            out.steps
                .iter()
                .any(|s| s.description == "join abs(r0.a - r1.a) <= 1"),
            "{out}"
        );
        assert!(
            out.stats_sources.iter().any(|s| &*s.target == "r0.a >= 3"),
            "{out}"
        );
        assert_eq!(out.worst_rung(), Some(EstimateRung::Spec));
    }

    #[test]
    fn target_columns_parse_every_trail_form() {
        assert_eq!(target_columns("t.a"), vec!["t.a"]);
        assert_eq!(target_columns("l.a = r.b"), vec!["l.a", "r.b"]);
        assert_eq!(target_columns("abs(l.a - r.b) <= 3"), vec!["l.a", "r.b"]);
        assert_eq!(target_columns("t.a < 5"), vec!["t.a"]);
        assert_eq!(target_columns("t.a BETWEEN 2 AND 4"), vec!["t.a"]);
    }

    #[test]
    fn disconnected_graph_rejected() {
        let e = engine();
        let q = e.parse("SELECT COUNT(*) FROM r0, r2").unwrap();
        assert!(matches!(
            e.explain_analyze(&q),
            Err(EngineError::InvalidJoinGraph(_))
        ));
    }
}
