//! Property tests for the estimation cache's one contract: caching is
//! *invisible*. For any sequence of estimates interleaved with catalog
//! churn (staleness notes, re-ANALYZEs, policy swaps, statistics
//! drops), the cached path must return bit-identical estimates and an
//! identical [`StatsUse`] trail to the uncached path — on a cold probe,
//! on a guaranteed warm re-probe, and after every mutation in between.
//!
//! [`StatsUse`]: engine::StatsUse

use engine::{Engine, EstimatePolicy, Query};
use proptest::prelude::*;
use relstore::generate::relation_from_frequency_set;

/// One step of an interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Estimate query `idx` from the pool, cached and uncached.
    Estimate(usize),
    /// Mark one relation dirty; large amounts cross the estimator's
    /// `hard_staleness_limit` and demote rungs, which the cache must
    /// reflect on its very next probe (the note bumps the epoch).
    NoteUpdates(usize, u64),
    /// Re-ANALYZE everything (clears staleness, bumps the epoch once).
    Reanalyze,
    /// Drop all statistics; estimates fall to the trivial/uniform rungs.
    ClearStats,
    /// Swap the degradation policy (a non-epoch input: clears the cache).
    SetPolicy(u64),
    /// Apply one feedback tune to a relation's histogram. The tune goes
    /// through the catalog's single mutation point, so it bumps the
    /// epoch — every cached estimate computed from the pre-tune
    /// statistics must miss on the next probe.
    Tune(usize, u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored `prop_oneof!` is unweighted; listing the estimate
    // arm three times skews interleavings toward actual probes.
    prop_oneof![
        (0usize..QUERY_POOL.len()).prop_map(Op::Estimate),
        (0usize..QUERY_POOL.len()).prop_map(Op::Estimate),
        (0usize..QUERY_POOL.len()).prop_map(Op::Estimate),
        ((0usize..2), (1u64..30_000)).prop_map(|(r, n)| Op::NoteUpdates(r, n)),
        Just(Op::Reanalyze),
        Just(Op::ClearStats),
        prop_oneof![Just(5u64), Just(500), Just(10_000)].prop_map(Op::SetPolicy),
        ((0usize..2), (1u64..200), (1u64..200)).prop_map(|(r, e, a)| Op::Tune(r, e, a)),
    ]
}

/// Applies one feedback observation to `names[rel]`'s column through
/// the catalog's compute/apply tune pair (the same split
/// `DurableCatalog::tune_column` journals around). Skips — dead zone,
/// quantisation — are fine: the cache contract is about what happens
/// when the histogram *does* change.
fn tune_relation(eng: &Engine, names: &[&str; 2], rel: usize, estimate: u64, actual: u64) {
    let key = relstore::catalog::StatKey::new(names[rel], &["v"]);
    let cfg = vopt_hist::feedback::TuneConfig::default();
    if let Ok(Ok((hist, _))) =
        eng.catalog()
            .compute_tune(&key, estimate as f64, actual as f64, &cfg)
    {
        eng.catalog().apply_tune(&key, hist).expect("apply tune");
    }
}

/// The query pool: every predicate shape the estimator knows, over two
/// relations sharing a value domain.
const QUERY_POOL: &[&str] = &[
    "SELECT COUNT(*) FROM l, r WHERE l.v = r.v",
    "SELECT COUNT(*) FROM l WHERE l.v = 0",
    "SELECT COUNT(*) FROM r WHERE r.v = 3",
    "SELECT COUNT(*) FROM l, r WHERE l.v = r.v AND l.v = 1",
    "SELECT COUNT(*) FROM l WHERE l.v IN (0, 2, 5)",
    "SELECT COUNT(*) FROM r WHERE r.v BETWEEN 1 AND 4",
];

fn build_engine(left: &[u64], right: &[u64], seed: u64) -> (Engine, Vec<Query>) {
    let mut eng = Engine::new();
    for (name, freqs, sub) in [("l", left, 0u64), ("r", right, 1)] {
        let set = freqdist::FrequencySet::new(freqs.to_vec());
        let rel =
            relation_from_frequency_set(name, "v", &set, seed ^ sub).expect("relation generation");
        eng.register(rel);
    }
    eng.analyze_all(4).expect("analyze");
    let pool = QUERY_POOL
        .iter()
        .map(|sql| eng.parse(sql).expect("parse pool query"))
        .collect();
    (eng, pool)
}

/// Asserts the cache contract for one query right now: uncached,
/// cold-or-warm cached, and guaranteed-warm cached all agree bitwise,
/// through both `estimate_with_sources` and `estimate_with_provenance`.
/// The provenance record names the epoch of the snapshot the estimate
/// was pinned to, and reports the guaranteed-warm probe as a hit.
fn assert_transparent(eng: &Engine, query: &Query, context: &str) {
    let (base, base_src) = eng
        .estimate_with_sources_uncached(query)
        .expect("uncached estimate");
    let epoch = eng.catalog().read_snapshot().epoch();
    for phase in ["first cached", "warm cached"] {
        let (est, src, record) = eng
            .estimate_with_provenance(query)
            .expect("provenance estimate");
        assert_eq!(
            est.to_bits(),
            base.to_bits(),
            "{context}: {phase} provenance estimate diverged ({est} vs {base})"
        );
        assert_eq!(
            src, base_src,
            "{context}: {phase} provenance trail diverged"
        );
        assert_eq!(record.epoch, epoch, "{context}: {phase} provenance epoch");
        if phase == "warm cached" {
            assert!(record.cache_hit, "{context}: warm provenance probe missed");
        }
        let (est, src) = eng.estimate_with_sources(query).expect("cached estimate");
        assert_eq!(
            est.to_bits(),
            base.to_bits(),
            "{context}: {phase} estimate diverged ({est} vs {base})"
        );
        assert_eq!(src, base_src, "{context}: {phase} StatsUse trail diverged");
    }
}

// Case count comes from the PROPTEST_CASES environment variable (the
// vendored proptest reads it directly); CI pins it for reproducibility.
proptest! {
    /// Cached and uncached estimation agree bitwise (values and
    /// [`StatsUse`] trails) across random interleavings of estimates
    /// and catalog churn.
    #[test]
    fn cached_estimates_match_uncached_across_interleavings(
        left in prop::collection::vec(1u64..=60, 4..10),
        right in prop::collection::vec(1u64..=60, 4..10),
        seed in 0u64..1_000,
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        let (mut eng, pool) = build_engine(&left, &right, seed);
        let names = ["l", "r"];
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Estimate(idx) => {
                    assert_transparent(&eng, &pool[idx], &format!("step {step}, query {idx}"));
                }
                Op::NoteUpdates(rel, n) => eng.catalog().note_updates(names[rel], n),
                Op::Reanalyze => eng.analyze_all(4).expect("reanalyze"),
                Op::ClearStats => eng.clear_statistics(),
                Op::SetPolicy(limit) => eng.set_estimate_policy(EstimatePolicy {
                    hard_staleness_limit: limit,
                    ..EstimatePolicy::default()
                }),
                Op::Tune(rel, estimate, actual) => {
                    tune_relation(&eng, &names, rel, estimate, actual);
                }
            }
        }
        // Whatever state the interleaving left behind, every pool query
        // must still be cache-transparent.
        for (idx, query) in pool.iter().enumerate() {
            assert_transparent(&eng, query, &format!("final state, query {idx}"));
        }
    }
}

/// A feedback tune is a catalog mutation like any other: it bumps the
/// epoch, so every estimate cached against the pre-tune statistics
/// misses on its next probe. The [`StatsUse`] `tuned` marker makes a
/// stale hit detectable end to end: the warm pre-tune trail carries
/// `tuned: false`, so if the cache served it after the tune, the
/// post-tune probe could not report `tuned: true`.
#[test]
fn tune_epoch_bump_flushes_cached_estimates() {
    let left: Vec<u64> = (1..=10).map(|i| i * 13 % 50 + 1).collect();
    let right: Vec<u64> = (1..=10).map(|i| i * 17 % 45 + 1).collect();
    let (eng, pool) = build_engine(&left, &right, 4242);

    // Warm the cache and pin the pre-tune state: histogram-backed
    // estimates, not yet tuned.
    let mut before = Vec::new();
    for query in &pool {
        let (est, src) = eng.estimate_with_sources(query).expect("warm");
        let (est2, src2) = eng.estimate_with_sources(query).expect("re-probe");
        assert_eq!(est.to_bits(), est2.to_bits());
        assert_eq!(src, src2);
        assert!(src.iter().all(|s| !s.tuned), "nothing tuned yet");
        before.push((est, src));
    }

    // A feedback observation that must apply: the current average of
    // `l.v`'s first mass-bearing bucket, reported 10× too low.
    let key = relstore::catalog::StatKey::new("l", &["v"]);
    let hist = eng.catalog().get(&key).expect("l statistics");
    let avg = *hist
        .bucket_avgs()
        .iter()
        .find(|&&a| a > 0)
        .expect("some bucket carries mass");
    let cfg = vopt_hist::feedback::TuneConfig::default();
    let epoch_before = eng.catalog().epoch();
    let (tuned_hist, report) = eng
        .catalog()
        .compute_tune(&key, avg as f64, avg as f64 * 10.0, &cfg)
        .expect("entry exists")
        .expect("observation outside the dead zone applies");
    assert!(report.qerror_post <= report.qerror_pre);
    eng.catalog().apply_tune(&key, tuned_hist).expect("apply");
    assert_eq!(
        eng.catalog().epoch(),
        epoch_before + 1,
        "a tune is one catalog mutation: exactly one epoch bump"
    );

    // Every cached entry is now stale by epoch. Each probe must agree
    // bitwise with the uncached path, and every estimate that consults
    // l's histogram must now say so via the tuned marker.
    for (idx, query) in pool.iter().enumerate() {
        assert_transparent(&eng, query, &format!("post-tune, query {idx}"));
        let (_, src) = eng.estimate_with_sources(query).expect("post-tune");
        for s in &src {
            assert_eq!(
                s.tuned,
                s.target.contains("l.v"),
                "query {idx}: tuned marker wrong for {}",
                s.target
            );
        }
        // The pre-tune trail said `tuned: false` everywhere; any query
        // touching l.v proves the flush by flipping it.
        if src.iter().any(|s| s.tuned) {
            assert_ne!(
                src, before[idx].1,
                "query {idx}: stale trail survived the tune"
            );
        }
    }
}

/// Tuning refines a histogram; it must not prop one up on the
/// degradation ladder. Staleness past the hard limit demotes a tuned
/// column to the same rung, at the same time, as an untuned one (the
/// ladder looks at staleness, never at feedback) — though the demoted
/// `end_biased` answer still reads the (tuned) histogram, so the
/// `tuned` marker stays honest rather than vanishing. Only when the
/// statistics are dropped outright is the feedback gone with them:
/// estimates and trails become bit-identical to an engine that never
/// saw feedback, `tuned: false` everywhere.
#[test]
fn tuned_then_invalidated_falls_down_ladder_exactly_as_untuned() {
    let left: Vec<u64> = (1..=10).map(|i| i * 19 % 60 + 1).collect();
    let right: Vec<u64> = (1..=10).map(|i| i * 23 % 55 + 1).collect();
    let (mut tuned_eng, pool) = build_engine(&left, &right, 777);
    let (mut plain_eng, _) = build_engine(&left, &right, 777);

    // Tune only one engine, hard enough to visibly change l's histogram.
    let key = relstore::catalog::StatKey::new("l", &["v"]);
    let hist = tuned_eng.catalog().get(&key).expect("l statistics");
    let avg = *hist
        .bucket_avgs()
        .iter()
        .find(|&&a| a > 0)
        .expect("some bucket carries mass");
    let cfg = vopt_hist::feedback::TuneConfig::default();
    let (tuned_hist, _) = tuned_eng
        .catalog()
        .compute_tune(&key, avg as f64, avg as f64 * 8.0, &cfg)
        .expect("entry exists")
        .expect("observation applies");
    tuned_eng
        .catalog()
        .apply_tune(&key, tuned_hist)
        .expect("apply");

    // While the histogram is live the engines must disagree somewhere —
    // otherwise the demotion assertion below proves nothing.
    let diverged = pool.iter().any(|q| {
        let (a, _) = tuned_eng.estimate_with_sources(q).expect("tuned");
        let (b, _) = plain_eng.estimate_with_sources(q).expect("plain");
        a.to_bits() != b.to_bits()
    });
    assert!(
        diverged,
        "the tune changed no estimate; pick a harder observation"
    );

    // Cross the hard staleness limit on l in both engines: both demote
    // in lockstep. The tuned engine's demoted answers may differ in
    // *value* (the end_biased rung still reads the tuned histogram) but
    // never in rung, and its trail must keep reporting the feedback.
    for eng in [&mut tuned_eng, &mut plain_eng] {
        eng.set_estimate_policy(EstimatePolicy {
            hard_staleness_limit: 10,
            ..EstimatePolicy::default()
        });
        eng.catalog().note_updates("l", 1_000_000);
    }
    for (idx, query) in pool.iter().enumerate() {
        let (_, sa) = tuned_eng.estimate_with_sources(query).expect("tuned");
        let (_, sb) = plain_eng.estimate_with_sources(query).expect("plain");
        let shape_a: Vec<_> = sa.iter().map(|s| (&s.target, s.rung)).collect();
        let shape_b: Vec<_> = sb.iter().map(|s| (&s.target, s.rung)).collect();
        assert_eq!(shape_a, shape_b, "query {idx}: demotion rungs diverged");
        for s in &sa {
            assert_eq!(
                s.tuned,
                s.target.contains("l.v"),
                "query {idx}: tuned marker must survive demotion for {}",
                s.target
            );
        }
        assert_transparent(
            &tuned_eng,
            query,
            &format!("demoted tuned engine, query {idx}"),
        );
    }

    // Dropping the statistics abandons the tuned histogram entirely:
    // from here the engines are indistinguishable, bit for bit.
    tuned_eng.clear_statistics();
    plain_eng.clear_statistics();
    for (idx, query) in pool.iter().enumerate() {
        let (a, sa) = tuned_eng.estimate_with_sources(query).expect("tuned");
        let (b, sb) = plain_eng.estimate_with_sources(query).expect("plain");
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "query {idx}: statless estimates diverged ({a} vs {b})"
        );
        assert_eq!(sa, sb, "query {idx}: statless StatsUse trails diverged");
        assert!(
            sa.iter().all(|s| !s.tuned),
            "query {idx}: no histogram, no tuned marker"
        );
        assert_transparent(
            &tuned_eng,
            query,
            &format!("statless tuned engine, query {idx}"),
        );
    }
}

/// The same contract under real concurrency: reader threads hammer the
/// cached path while the main thread churns epochs via staleness notes
/// and re-ANALYZEs that rebuild identical statistics. Because the data
/// never changes, every estimate (cached, uncached, any epoch) must be
/// bit-identical — so each reader compares against a reference computed
/// once up front.
#[test]
fn concurrent_readers_see_identical_estimates_under_epoch_churn() {
    let left: Vec<u64> = (1..=12).map(|i| i * 7 % 40 + 1).collect();
    let right: Vec<u64> = (1..=12).map(|i| i * 11 % 35 + 1).collect();
    let (eng, pool) = build_engine(&left, &right, 99);
    let reference: Vec<(u64, Vec<engine::StatsUse>)> = pool
        .iter()
        .map(|q| {
            let (est, src) = eng.estimate_with_sources_uncached(q).expect("reference");
            (est.to_bits(), src)
        })
        .collect();

    std::thread::scope(|s| {
        for worker in 0..4usize {
            let (eng, pool, reference) = (&eng, &pool, &reference);
            s.spawn(move || {
                for round in 0..300 {
                    let idx = (worker + round) % pool.len();
                    let (est, src) = eng
                        .estimate_with_sources(&pool[idx])
                        .expect("cached estimate");
                    assert_eq!(
                        est.to_bits(),
                        reference[idx].0,
                        "worker {worker} round {round} query {idx} diverged"
                    );
                    assert_eq!(src, reference[idx].1, "worker {worker} StatsUse diverged");
                }
            });
        }
        // Epoch churn: staleness notes stay far below the hard limit
        // (so rungs never demote) but every note bumps the epoch and
        // invalidates the readers' cache entries mid-flight.
        for i in 0..200 {
            eng.catalog()
                .note_updates(if i % 2 == 0 { "l" } else { "r" }, 1);
            std::hint::spin_loop();
        }
    });
}
