//! Per-query estimate provenance: *why* an estimate is what it is.
//!
//! A [`ProvenanceRecord`] pins everything needed to reproduce and audit
//! one estimation: the query's structural fingerprint, the catalog
//! epoch the statistics were read at, whether the answer came from the
//! estimation cache, and — per statistics lookup — the histogram class
//! consulted, the ladder rung that answered, and the column's staleness
//! at that epoch. [`Engine::estimate_with_provenance`] produces one per
//! estimate, `explain_analyze` attaches one to its report, and the
//! bench harness surfaces them, so "which histogram produced this wrong
//! estimate" is always answerable.
//!
//! This is deliberately a *value*, separate from the flight recorder in
//! `obs::trace`: the recorder keeps bounded per-thread logs of events
//! for post-hoc timelines, gated by the engine's `obs::Recorder`, while
//! the record here travels with the result it describes.
//!
//! [`Engine::estimate_with_provenance`]: crate::engine::Engine::estimate_with_provenance

use crate::ladder::{EstimateRung, StatsUse};
use relstore::catalog::StatKey;
use relstore::CatalogSnapshot;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Provenance of one statistics lookup: the [`StatsUse`] plus what the
/// pinned snapshot knew about the column(s) behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsProvenance {
    /// What was looked up (`t.a`, or `t.a = s.b` for a join).
    pub target: Arc<str>,
    /// The degradation-ladder rung that answered.
    pub rung: EstimateRung,
    /// Whether feedback tuning adjusted the answering statistics since
    /// their last full build (either side, for a join). Always `false`
    /// with self-tuning off.
    pub tuned: bool,
    /// Histogram class (builder name) the consulted entry was built
    /// with, if a histogram existed and recorded its spec. For a join
    /// this is the class of the staler side — the one that limits
    /// trust.
    pub class: Option<String>,
    /// Updates since the consulted histogram was built (the worse side
    /// for a join); `None` when no histogram existed.
    pub staleness: Option<u64>,
}

/// Wall time of one named estimation stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name (`bind`, `cache_lookup`, `compute`, `replay`, or a
    /// plan-step description from `explain_analyze`).
    pub stage: String,
    /// Wall time the stage took (for a plan step, zero when span
    /// recording is disabled).
    pub elapsed: Duration,
}

/// Everything needed to audit one estimate after the fact.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceRecord {
    /// Structural fingerprint of the bound query (the cache key's first
    /// half).
    pub fingerprint: u64,
    /// Catalog epoch the estimate's snapshot was pinned at.
    pub epoch: u64,
    /// Whether the estimation cache answered (`true` ⇒ the memoised
    /// [`StatsUse`] trail was replayed instead of recomputed).
    pub cache_hit: bool,
    /// One entry per statistics lookup, in evaluation order.
    pub stats: Vec<StatsProvenance>,
    /// Per-stage wall times, in execution order.
    pub stages: Vec<StageTiming>,
}

/// What the snapshot records about one qualified column, as
/// `(class, staleness)`.
fn column_facts(snap: &CatalogSnapshot, qualified: &str) -> (Option<String>, Option<u64>) {
    let Some((table, column)) = qualified.split_once('.') else {
        return (None, None);
    };
    let key = StatKey::new(table, &[column]);
    let class = snap.spec_of(&key).map(|s| s.name().to_string());
    let staleness = snap.staleness(&key).ok();
    (class, staleness)
}

impl StatsProvenance {
    /// Derives the provenance of one [`StatsUse`] from the snapshot the
    /// estimate was computed against. A join target (`t.a = s.b`)
    /// reports the facts of its staler side.
    pub(crate) fn derive(snap: &CatalogSnapshot, source: &StatsUse) -> Self {
        let (class, staleness) = match source.target.split_once(" = ") {
            Some((left, right)) => {
                let l = column_facts(snap, left);
                let r = column_facts(snap, right);
                // The staler side bounds how much the join estimate can
                // be trusted; a side with no histogram at all is worst.
                match (l.1, r.1) {
                    (Some(ls), Some(rs)) if ls >= rs => l,
                    (Some(_), Some(_)) => r,
                    (Some(_), None) => r,
                    _ => l,
                }
            }
            None => column_facts(snap, &source.target),
        };
        Self {
            target: Arc::clone(&source.target),
            rung: source.rung,
            tuned: source.tuned,
            class,
            staleness,
        }
    }
}

impl ProvenanceRecord {
    /// Builds the record for one estimate from its pinned snapshot and
    /// recorded lookups.
    pub(crate) fn build(
        snap: &CatalogSnapshot,
        fingerprint: u64,
        cache_hit: bool,
        sources: &[StatsUse],
        stages: Vec<StageTiming>,
    ) -> Self {
        Self {
            fingerprint,
            epoch: snap.epoch(),
            cache_hit,
            stats: sources
                .iter()
                .map(|s| StatsProvenance::derive(snap, s))
                .collect(),
            stages,
        }
    }

    /// The worst (most degraded) rung any lookup fell to, if statistics
    /// were consulted at all.
    pub fn worst_rung(&self) -> Option<EstimateRung> {
        self.stats.iter().map(|s| s.rung).max()
    }
}

impl fmt::Display for ProvenanceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "provenance fp={:016x} epoch={} cache={}",
            self.fingerprint,
            self.epoch,
            if self.cache_hit { "hit" } else { "miss" }
        )?;
        for s in &self.stats {
            writeln!(
                f,
                "  {:<46} rung={} class={} staleness={}{}",
                s.target,
                s.rung.name(),
                s.class.as_deref().unwrap_or("-"),
                s.staleness
                    .map_or_else(|| "-".to_string(), |n| n.to_string()),
                if s.tuned { " tuned" } else { "" },
            )?;
        }
        for st in &self.stages {
            writeln!(f, "  stage {:<40} {:.1?}", st.stage, st.elapsed)?;
        }
        Ok(())
    }
}
