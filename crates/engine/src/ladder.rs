//! The graceful-degradation estimation ladder.
//!
//! A production optimizer must produce *some* estimate for every query:
//! statistics that are missing (never analyzed, or the catalog was
//! lost), stale past any usable limit, or quarantined behind an open
//! refresh circuit breaker cannot be a hard error on the query path.
//! Instead the estimator falls down a ladder of progressively cheaper
//! approximations, each one the best answer the surviving metadata can
//! support:
//!
//! | rung | needs | per-value frequency `â(v)` |
//! |------|-------|-----------------------------|
//! | `spec` | fresh histogram + value dictionary | stored bucket average (the paper's §4 layout, exactly as before) |
//! | `end_biased` | *degraded* histogram + dictionary | listed exception values keep their stored averages (end-biased high frequencies stay accurate under updates — the paper's §4.2 argument); the remaining mass is re-spread uniformly from the **live** row count |
//! | `trivial` | value dictionary only | `rows / |domain|` — the paper's trivial histogram (a single bucket) |
//! | `uniform` | nothing | System R's uniform-independence magic constants (`1/10` for equality, `1/4` for ranges, `1/max(V₁,V₂)` with `V` defaulting to 10 for joins) |
//!
//! Which rung answered is recorded per lookup in the engine recorder's
//! `estimate_rung_total{rung=…}` counters and named in
//! `explain_analyze` output, so a silently degraded estimate is always
//! visible.

use crate::ast::FilterOp;
use std::sync::Arc;

/// Which rung of the degradation ladder answered a statistics lookup.
/// Ordered from best to worst; [`EstimateRung::worse`] combines the
/// two sides of a join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EstimateRung {
    /// The stored histogram, fresh and trusted: estimation exactly as
    /// the paper describes.
    Spec,
    /// The stored histogram is degraded (stale past the hard limit or
    /// breaker open): only its end-biased exception values are trusted;
    /// the bulk is re-derived from the live row count.
    EndBiased,
    /// No histogram, but the column's value dictionary survives:
    /// uniform spread over the known domain (the trivial histogram).
    Trivial,
    /// No statistics at all: System R uniform-independence defaults.
    Uniform,
}

impl EstimateRung {
    /// Stable lowercase name used in metrics labels and explain output.
    pub fn name(self) -> &'static str {
        match self {
            EstimateRung::Spec => "spec",
            EstimateRung::EndBiased => "end_biased",
            EstimateRung::Trivial => "trivial",
            EstimateRung::Uniform => "uniform",
        }
    }

    /// The weaker (further degraded) of two rungs — the honest label
    /// for an estimate that combined both.
    pub fn worse(self, other: EstimateRung) -> EstimateRung {
        self.max(other)
    }
}

/// When the estimator stops trusting a stored histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimatePolicy {
    /// Staleness (updates since build) beyond which a histogram is
    /// demoted to the `end_biased` rung. Distinct from — and much
    /// larger than — the maintenance daemon's refresh threshold: the
    /// daemon *wants* to rebuild long before the estimator gives up.
    pub hard_staleness_limit: u64,
    /// Consecutive refresh failures (the catalog's recorded streak) at
    /// which the estimator treats the column's breaker as open and
    /// demotes it, matching the daemon's default breaker threshold.
    pub breaker_failure_threshold: u64,
}

impl Default for EstimatePolicy {
    fn default() -> Self {
        Self {
            hard_staleness_limit: 10_000,
            breaker_failure_threshold: 3,
        }
    }
}

/// One statistics lookup the estimator performed: which column (or
/// join pair) and which rung answered. `explain_analyze` reports these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsUse {
    /// What was looked up (`t.a`, or `t.a = s.b` for a join). Shared,
    /// so replaying a cached trail clones a pointer, not the text.
    pub target: Arc<str>,
    /// The ladder rung that answered.
    pub rung: EstimateRung,
    /// Whether feedback tuning has adjusted the answering statistics
    /// since their last full build (for a join: either side). Always
    /// `false` when self-tuning is off, so disabled-mode trails — and
    /// their wire encoding — are bit-identical to the pre-feedback
    /// behaviour.
    pub tuned: bool,
}

/// An engine's handle on its [`obs::Recorder`]: the recorder (whose
/// trace gate the estimation path's events obey) and its four
/// `estimate_rung_total{rung=…}` counters, resolved once per engine.
/// Formatting the labeled name and probing the registry both allocate;
/// the estimation hot path (and especially cache-hit replay) pays only
/// an atomic increment.
#[derive(Debug)]
pub(crate) struct EngineObs {
    recorder: Arc<obs::Recorder>,
    /// Indexed by `EstimateRung as usize`, i.e. ladder order.
    rung_counters: [Arc<obs::Counter>; 4],
}

impl EngineObs {
    pub(crate) fn new(recorder: Arc<obs::Recorder>) -> Self {
        let rung_counters = [
            EstimateRung::Spec,
            EstimateRung::EndBiased,
            EstimateRung::Trivial,
            EstimateRung::Uniform,
        ]
        .map(|rung| {
            recorder
                .registry()
                .counter(&obs::labeled("estimate_rung_total", "rung", rung.name()))
        });
        Self {
            recorder,
            rung_counters,
        }
    }

    pub(crate) fn recorder(&self) -> &Arc<obs::Recorder> {
        &self.recorder
    }

    /// Records one *answered* statistics lookup: bumps its
    /// `estimate_rung_total{rung=…}` counter and appends it to `sources`.
    /// Every lookup that contributes to a returned estimate goes through
    /// here and nothing else does — `explain_analyze`'s join-order search
    /// evaluates and discards candidate selectivities each greedy round,
    /// and those must not inflate the ladder metrics. Cache hits replay
    /// their memoised lookups through here too, so the rung counters move
    /// identically hit vs. miss.
    pub(crate) fn record_stats_use(
        &self,
        sources: &mut Vec<StatsUse>,
        target: impl Into<Arc<str>>,
        rung: EstimateRung,
        tuned: bool,
    ) {
        let target = target.into();
        self.rung_counters[rung as usize].inc();
        self.recorder.rung_chosen(&target, rung.name());
        sources.push(StatsUse {
            target,
            rung,
            tuned,
        });
    }
}

impl Default for EngineObs {
    /// The process-global recorder, so `histctl metrics`/`trace` see the
    /// engine's rung counters and events.
    fn default() -> Self {
        Self::new(Arc::clone(obs::Recorder::global()))
    }
}

/// System R's textbook default selectivities, used on the `uniform`
/// rung where nothing is known about the column: equality matches one
/// of an assumed 10 distinct values, a range keeps a quarter of the
/// relation.
pub(crate) fn uniform_filter_selectivity(op: &FilterOp) -> f64 {
    match op {
        FilterOp::Equals(_) => 0.1,
        FilterOp::NotEquals(_) => 0.9,
        FilterOp::In(values) => (0.1 * values.len() as f64).min(1.0),
        FilterOp::Between(_, _)
        | FilterOp::Lt(_)
        | FilterOp::Le(_)
        | FilterOp::Gt(_)
        | FilterOp::Ge(_) => 0.25,
    }
}

/// System R's default selectivity for a band join on the `uniform`
/// rung: a band is a range predicate over value pairs, so the textbook
/// `1/4` range constant applies.
pub(crate) const UNIFORM_BAND_SELECTIVITY: f64 = 0.25;

/// The assumed distinct-value count on the `uniform` rung.
pub(crate) const UNIFORM_DISTINCT_DEFAULT: f64 = 10.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_ordering_and_names() {
        assert!(EstimateRung::Spec < EstimateRung::EndBiased);
        assert!(EstimateRung::EndBiased < EstimateRung::Trivial);
        assert!(EstimateRung::Trivial < EstimateRung::Uniform);
        assert_eq!(
            EstimateRung::Spec.worse(EstimateRung::Trivial),
            EstimateRung::Trivial
        );
        for (rung, name) in [
            (EstimateRung::Spec, "spec"),
            (EstimateRung::EndBiased, "end_biased"),
            (EstimateRung::Trivial, "trivial"),
            (EstimateRung::Uniform, "uniform"),
        ] {
            assert_eq!(rung.name(), name);
        }
    }

    #[test]
    fn uniform_constants() {
        assert_eq!(uniform_filter_selectivity(&FilterOp::Equals(1)), 0.1);
        assert_eq!(uniform_filter_selectivity(&FilterOp::NotEquals(1)), 0.9);
        assert!((uniform_filter_selectivity(&FilterOp::In(vec![1, 2, 3])) - 0.3).abs() < 1e-12);
        // IN can never exceed certainty.
        assert_eq!(
            uniform_filter_selectivity(&FilterOp::In((0..50).collect())),
            1.0
        );
        assert_eq!(uniform_filter_selectivity(&FilterOp::Between(1, 9)), 0.25);
        for op in [
            FilterOp::Lt(5),
            FilterOp::Le(5),
            FilterOp::Gt(5),
            FilterOp::Ge(5),
        ] {
            assert_eq!(uniform_filter_selectivity(&op), 0.25, "{op:?}");
        }
        assert_eq!(UNIFORM_BAND_SELECTIVITY, 0.25);
    }
}
