//! The paper's theorems as machine-checked invariants.
//!
//! Each check runs one claim of the paper against the brute-force ground
//! truth of [`crate::exact`] over every relevant case of a
//! [`Workload`], returning a [`CheckReport`]. All histogram builds go
//! through [`BuilderSpec`] — the same single dispatch site production
//! code uses — so a regression in the registry is caught here, not just
//! a regression in the raw constructors.
//!
//! | check | paper claim |
//! |---|---|
//! | `serial_dp_matches_exhaustive_optimum` | Theorem 4.1: the DP and Algorithm V-OptHist reach the same optimum |
//! | `theorem_3_3_v_optimal_minimizes_sigma` | Theorem 3.3: v-optimal serial minimises σ over all arrangements |
//! | `query_independence_self_join_optimum` | §3.3: the σ-optimal histogram is the self-join-error optimum |
//! | `theorem_4_2_end_biased_optimal_split` | Theorem 4.2: V-OptBiasHist finds the best end-biased split |
//! | `exact_when_buckets_cover_domain` | β = M histograms estimate exactly, end to end |
//! | `prop_3_1_self_join_error_formula` | Proposition 3.1: `S − S' = Σ PᵢVᵢ ≥ 0` |
//! | `differential_catalog_engine_consistency` | core build ≡ ANALYZE ≡ snapshot reload ≡ engine SQL |
//! | `theorem_2_1_chain_product_matches_execution` | Theorem 2.1: matrix product = executed chain size |
//! | `cache_transparent` | §4–§6 practicality: the estimation cache is invisible — cached ≡ brute-force at every epoch |
//! | `tracing_transparent` | §4–§6 practicality: the flight recorder only observes — recorder on ≡ recorder off, bit for bit |
//! | `range_band_matches_execution` | value-carrying buckets: range / BETWEEN / band-join estimates equal executed counts with β = M statistics, stay inside `[0, |R|]` (`[0, |R|·|S|]` for bands) at every budget, and point BETWEEN is bit-for-bit the equality path |
//! | `wire_equals_inprocess` | serving practicality: estimates + `StatsUse` trails served over a loopback socket are bit-identical to in-process `estimate_with_sources` for the same seed |
//! | `feedback_converges` | self-tuning practicality: on a stationary workload, journaled feedback tuning of drifted statistics has monotonically non-increasing median Q-error and ends within a constant factor of ANALYZE-fresh |

use crate::exact;
use crate::report::CheckReport;
use crate::workload::{Tier, Workload};
use query::model::{ChainQuery, RelationStats};
use relstore::catalog::StatKey;
use relstore::codec::{decode_catalog, encode_catalog};
use relstore::generate::relation_from_frequencies;
use relstore::{Catalog, StoredHistogram};
use std::sync::Arc;
use vopt_hist::{builders, BuilderSpec, Histogram, MatrixHistogram, RoundingMode};

/// Cap on recorded failure messages per check, keeping reports bounded
/// even when a regression breaks every case.
const MAX_FAILURES: usize = 20;

fn push_fail(failures: &mut Vec<String>, msg: String) {
    if failures.len() < MAX_FAILURES {
        failures.push(msg);
    }
}

/// Relative-tolerance float comparison used by every invariant check.
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * 1.0_f64.max(a.abs()).max(b.abs())
}

/// The sum of squared within-bucket deviations `Σᵢ PᵢVᵢ`, recomputed
/// from first principles (bucket membership and raw frequencies only) —
/// deliberately *not* using the histogram's own error accounting, so the
/// Proposition 3.1 check is a genuine cross-implementation comparison.
pub fn sse_from_assignment(freqs: &[u64], hist: &Histogram) -> f64 {
    let n = hist.num_buckets();
    let mut sums = vec![0.0f64; n];
    let mut counts = vec![0u64; n];
    for (i, &f) in freqs.iter().enumerate() {
        let b = hist.bucket_of(i) as usize;
        sums[b] += f as f64;
        counts[b] += 1;
    }
    let means: Vec<f64> = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect();
    freqs
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let d = f as f64 - means[hist.bucket_of(i) as usize];
            d * d
        })
        .sum()
}

/// Bucket budgets applicable to a domain of `n` values.
fn betas_for(w: &Workload, n: usize) -> impl Iterator<Item = usize> + '_ {
    w.betas.iter().copied().filter(move |&b| b <= n)
}

/// Theorem 4.1: the `O(M²β)` dynamic program and the exhaustive
/// Algorithm V-OptHist both attain the enumerated serial optimum.
pub fn check_serial_dp_matches_exhaustive_optimum(w: &Workload) -> CheckReport {
    let _span = obs::span("oracle_check_dp_vs_exhaustive");
    let mut cases = 0;
    let mut failures = Vec::new();
    for set in &w.small_sets {
        let freqs = set.freqs.as_slice();
        for beta in betas_for(w, freqs.len()) {
            cases += 1;
            let min = match exact::min_serial_error(freqs, beta) {
                Ok(m) => m,
                Err(e) => {
                    push_fail(&mut failures, format!("{} β={beta}: {e}", set.name));
                    continue;
                }
            };
            for spec in [
                BuilderSpec::VOptSerial(beta),
                BuilderSpec::VOptSerialExhaustive(beta),
            ] {
                match spec.build_opt(freqs) {
                    Ok(opt) if approx_eq(opt.error, min) => {}
                    Ok(opt) => push_fail(
                        &mut failures,
                        format!(
                            "{} β={beta}: {} error {} ≠ enumerated optimum {min}",
                            set.name,
                            spec.name(),
                            opt.error
                        ),
                    ),
                    Err(e) => push_fail(
                        &mut failures,
                        format!("{} β={beta}: {} failed: {e}", set.name, spec.name()),
                    ),
                }
            }
        }
    }
    CheckReport::from_failures("serial_dp_matches_exhaustive_optimum", cases, failures)
}

/// All serial histograms of `freqs` with `beta` buckets, paired with
/// their self-join error and their error deviation σ against `probe`
/// (enumerated over every arrangement).
fn serial_error_sigma_table(
    freqs: &[u64],
    beta: usize,
    probe: &[u64],
) -> Result<Vec<(f64, f64)>, String> {
    Ok(exact::all_serial_histograms(freqs, beta)?
        .iter()
        .map(|h| {
            let errors = exact::approximation_errors(freqs, h);
            (
                h.self_join_error(),
                exact::sigma_over_arrangements(&errors, probe),
            )
        })
        .collect())
}

/// A deterministic probe frequency set (the "other relation" of the
/// 2-way join σ is defined over): the set's own frequencies reversed.
fn probe_for(freqs: &[u64]) -> Vec<u64> {
    freqs.iter().rev().copied().collect()
}

/// Theorem 3.3: among all serial histograms, the v-optimal one minimises
/// the error deviation σ of a 2-way equality join, with the expectation
/// taken over *all* arrangements of the joined relations.
pub fn check_theorem_3_3_v_optimal_minimizes_sigma(w: &Workload) -> CheckReport {
    let _span = obs::span("oracle_check_theorem_3_3");
    let mut cases = 0;
    let mut failures = Vec::new();
    for set in &w.small_sets {
        let freqs = set.freqs.as_slice();
        let probe = probe_for(freqs);
        for beta in betas_for(w, freqs.len()) {
            cases += 1;
            let table = match serial_error_sigma_table(freqs, beta, &probe) {
                Ok(t) => t,
                Err(e) => {
                    push_fail(&mut failures, format!("{} β={beta}: {e}", set.name));
                    continue;
                }
            };
            let min_sigma = table
                .iter()
                .map(|&(_, s)| s)
                .min_by(f64::total_cmp)
                .unwrap_or(f64::NAN);
            let vopt = match BuilderSpec::VOptSerial(beta).build_opt(freqs) {
                Ok(opt) => opt.histogram,
                Err(e) => {
                    push_fail(&mut failures, format!("{} β={beta}: v-opt: {e}", set.name));
                    continue;
                }
            };
            let errors = exact::approximation_errors(freqs, &vopt);
            let sigma = exact::sigma_over_arrangements(&errors, &probe);
            if !approx_eq(sigma, min_sigma) {
                push_fail(
                    &mut failures,
                    format!(
                        "{} β={beta}: v-optimal σ={sigma} exceeds the serial minimum {min_sigma}",
                        set.name
                    ),
                );
            }
        }
    }
    CheckReport::from_failures("theorem_3_3_v_optimal_minimizes_sigma", cases, failures)
}

/// Query independence (§3.3): the histogram minimising the self-join
/// error formula is the one minimising σ — optimising for the self-join
/// is optimising for every (arrangement-averaged) equality join.
pub fn check_query_independence_self_join_optimum(w: &Workload) -> CheckReport {
    let _span = obs::span("oracle_check_query_independence");
    let mut cases = 0;
    let mut failures = Vec::new();
    for set in &w.small_sets {
        let freqs = set.freqs.as_slice();
        let probe = probe_for(freqs);
        for beta in betas_for(w, freqs.len()) {
            cases += 1;
            let table = match serial_error_sigma_table(freqs, beta, &probe) {
                Ok(t) => t,
                Err(e) => {
                    push_fail(&mut failures, format!("{} β={beta}: {e}", set.name));
                    continue;
                }
            };
            let min_error = table
                .iter()
                .map(|&(e, _)| e)
                .min_by(f64::total_cmp)
                .unwrap_or(f64::NAN);
            let min_sigma = table
                .iter()
                .map(|&(_, s)| s)
                .min_by(f64::total_cmp)
                .unwrap_or(f64::NAN);
            // The best σ among error-optimal histograms must *be* the
            // global σ minimum: no other serial histogram beats the
            // self-join optimum on any arrangement-averaged join.
            let sigma_of_error_optimum = table
                .iter()
                .filter(|&&(e, _)| approx_eq(e, min_error))
                .map(|&(_, s)| s)
                .min_by(f64::total_cmp)
                .unwrap_or(f64::NAN);
            if !approx_eq(sigma_of_error_optimum, min_sigma) {
                push_fail(
                    &mut failures,
                    format!(
                        "{} β={beta}: self-join optimum has σ={sigma_of_error_optimum} \
                         but some serial histogram achieves σ={min_sigma}",
                        set.name
                    ),
                );
            }
        }
    }
    CheckReport::from_failures("query_independence_self_join_optimum", cases, failures)
}

/// Theorem 4.2: Algorithm V-OptBiasHist's result equals the best
/// explicit end-biased split, and the class ordering
/// `serial optimum ≤ end-biased optimum` holds (end-biased histograms
/// are serial, so they can never beat the serial optimum).
pub fn check_theorem_4_2_end_biased_optimal_split(w: &Workload) -> CheckReport {
    let _span = obs::span("oracle_check_theorem_4_2");
    let mut cases = 0;
    let mut failures = Vec::new();
    for set in &w.small_sets {
        let freqs = set.freqs.as_slice();
        for beta in betas_for(w, freqs.len()) {
            cases += 1;
            // Enumerate every explicit split with at most β buckets
            // (h + l singletons plus the pooled middle).
            let mut best_split = f64::INFINITY;
            for high in 0..beta {
                for low in 0..beta - high {
                    if let Ok(opt) = (BuilderSpec::EndBiased { high, low }).build_strict(freqs) {
                        best_split = best_split.min(opt.error);
                    }
                }
            }
            match BuilderSpec::VOptEndBiased(beta).build_opt(freqs) {
                Ok(opt) => {
                    if !approx_eq(opt.error, best_split) {
                        push_fail(
                            &mut failures,
                            format!(
                                "{} β={beta}: V-OptBiasHist error {} ≠ best explicit split {}",
                                set.name, opt.error, best_split
                            ),
                        );
                    }
                    match exact::min_serial_error(freqs, beta) {
                        Ok(serial_min) if serial_min <= opt.error + 1e-9 => {}
                        Ok(serial_min) => push_fail(
                            &mut failures,
                            format!(
                                "{} β={beta}: end-biased error {} beats the serial optimum \
                                 {serial_min}, impossible for a serial subclass",
                                set.name, opt.error
                            ),
                        ),
                        Err(e) => push_fail(&mut failures, format!("{} β={beta}: {e}", set.name)),
                    }
                }
                Err(e) => push_fail(
                    &mut failures,
                    format!("{} β={beta}: V-OptBiasHist failed: {e}", set.name),
                ),
            }
        }
    }
    CheckReport::from_failures("theorem_4_2_end_biased_optimal_split", cases, failures)
}

/// With as many buckets as distinct values, every registered builder
/// must estimate exactly — per value, in aggregate, and through the
/// compact catalog layout.
pub fn check_exact_when_buckets_cover_domain(w: &Workload) -> CheckReport {
    let _span = obs::span("oracle_check_exactness");
    let mut cases = 0;
    let mut failures = Vec::new();
    for set in w.small_sets.iter().chain(&w.medium_sets) {
        let freqs = set.freqs.as_slice();
        let n = freqs.len();
        for builder in builders() {
            let spec = builder.spec(n);
            if spec.buckets() != n {
                // The trivial builder ignores the budget; one bucket
                // cannot be exact on a non-constant set.
                continue;
            }
            cases += 1;
            let hist = match spec.build(freqs) {
                Ok(h) => h,
                Err(e) => {
                    push_fail(&mut failures, format!("{} {}: {e}", set.name, spec.name()));
                    continue;
                }
            };
            if hist.self_join_error().abs() > 1e-9 {
                push_fail(
                    &mut failures,
                    format!(
                        "{} {}: β=M histogram has error {}",
                        set.name,
                        spec.name(),
                        hist.self_join_error()
                    ),
                );
            }
            for (i, &f) in freqs.iter().enumerate() {
                let approx = hist.approx_frequency(i, RoundingMode::Exact);
                if !approx_eq(approx, f as f64) {
                    push_fail(
                        &mut failures,
                        format!(
                            "{} {}: value {i} approximated {approx} ≠ exact {f}",
                            set.name,
                            spec.name()
                        ),
                    );
                    break;
                }
            }
            let values: Vec<u64> = (0..n as u64).collect();
            match StoredHistogram::from_histogram(&values, &hist) {
                Ok(stored) => {
                    for (i, &f) in freqs.iter().enumerate() {
                        if stored.approx_frequency(i as u64) != f {
                            push_fail(
                                &mut failures,
                                format!(
                                    "{} {}: stored layout approximates value {i} as {} ≠ {f}",
                                    set.name,
                                    spec.name(),
                                    stored.approx_frequency(i as u64)
                                ),
                            );
                            break;
                        }
                    }
                }
                Err(e) => push_fail(
                    &mut failures,
                    format!(
                        "{} {}: stored conversion failed: {e}",
                        set.name,
                        spec.name()
                    ),
                ),
            }
        }
    }
    CheckReport::from_failures("exact_when_buckets_cover_domain", cases, failures)
}

/// Proposition 3.1: for every builder and budget, the reported self-join
/// error equals both the independently recomputed `Σ PᵢVᵢ` and the
/// directly measured `S − S'`, and is never negative (histograms never
/// overestimate a self-join in exact mode).
pub fn check_prop_3_1_self_join_error_formula(w: &Workload) -> CheckReport {
    let _span = obs::span("oracle_check_prop_3_1");
    let mut cases = 0;
    let mut failures = Vec::new();
    for set in &w.medium_sets {
        let freqs = set.freqs.as_slice();
        let s_exact = exact::self_join_size(freqs) as f64;
        for builder in builders() {
            // The exhaustive serial builder is exponential in β and
            // checked on the small sets (Theorem 4.1); skip it here.
            if builder.name() == "v_opt_serial_exhaustive" {
                continue;
            }
            for beta in betas_for(w, freqs.len()) {
                cases += 1;
                let spec = builder.spec(beta);
                let opt = match spec.build_opt(freqs) {
                    Ok(o) => o,
                    Err(e) => {
                        push_fail(
                            &mut failures,
                            format!("{} {} β={beta}: {e}", set.name, spec.name()),
                        );
                        continue;
                    }
                };
                let sse = sse_from_assignment(freqs, &opt.histogram);
                let measured = s_exact - opt.histogram.approx_self_join_size(RoundingMode::Exact);
                if !approx_eq(opt.error, sse) {
                    push_fail(
                        &mut failures,
                        format!(
                            "{} {} β={beta}: reported error {} ≠ recomputed Σ PᵢVᵢ = {sse}",
                            set.name,
                            spec.name(),
                            opt.error
                        ),
                    );
                }
                if !approx_eq(opt.error, measured) {
                    push_fail(
                        &mut failures,
                        format!(
                            "{} {} β={beta}: reported error {} ≠ measured S − S' = {measured}",
                            set.name,
                            spec.name(),
                            opt.error
                        ),
                    );
                }
                if opt.error < -1e-9 || measured < -1e-6 * s_exact.max(1.0) {
                    push_fail(
                        &mut failures,
                        format!(
                            "{} {} β={beta}: negative self-join error ({}, measured {measured}) — \
                             the histogram overestimates",
                            set.name,
                            spec.name(),
                            opt.error
                        ),
                    );
                }
            }
        }
    }
    CheckReport::from_failures("prop_3_1_self_join_error_formula", cases, failures)
}

/// The positive-frequency domain of a set, as `(values, freqs)` — what a
/// relation scan recovers (zero-frequency values never reach a tuple).
fn nonzero_domain(freqs: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let values: Vec<u64> = freqs
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f > 0)
        .map(|(i, _)| i as u64)
        .collect();
    let nz: Vec<u64> = freqs.iter().copied().filter(|&f| f > 0).collect();
    (values, nz)
}

/// Differential check across every storage and estimation layer: a
/// direct registry build, a catalog ANALYZE over a materialised
/// relation, a binary-snapshot round trip, the query-layer estimators,
/// and the engine's SQL execute/estimate must all tell one consistent
/// story.
pub fn check_differential_catalog_engine_consistency(w: &Workload) -> CheckReport {
    let _span = obs::span("oracle_check_differential");
    let mut cases = 0;
    let mut failures = Vec::new();
    for (idx, set) in w.medium_sets.iter().enumerate() {
        let freqs = set.freqs.as_slice();
        let (values, nz) = nonzero_domain(freqs);
        if values.is_empty() {
            continue;
        }
        let freq_set = freqdist::FrequencySet::new(nz.clone());
        for beta in betas_for(w, values.len()) {
            cases += 1;
            let spec = BuilderSpec::VOptEndBiased(beta);
            let case = format!("{} β={beta}", set.name);
            let fail = |failures: &mut Vec<String>, msg: String| {
                push_fail(failures, format!("{case}: {msg}"));
            };

            // Layer 1: direct registry build over the scanned domain.
            let hist = match spec.build(&nz) {
                Ok(h) => h,
                Err(e) => {
                    fail(&mut failures, format!("core build failed: {e}"));
                    continue;
                }
            };
            let direct = match StoredHistogram::from_histogram(&values, &hist) {
                Ok(s) => s,
                Err(e) => {
                    fail(&mut failures, format!("stored conversion failed: {e}"));
                    continue;
                }
            };

            // Layer 2: catalog ANALYZE over a materialised relation.
            let left = match relation_from_frequencies(
                "l",
                "a",
                &values,
                &freq_set,
                w.subseed(2 * idx as u64),
            ) {
                Ok(r) => r,
                Err(e) => {
                    fail(&mut failures, format!("relation build failed: {e}"));
                    continue;
                }
            };
            let catalog = Catalog::new();
            let key = match catalog.analyze(&left, "a", spec) {
                Ok(k) => k,
                Err(e) => {
                    fail(&mut failures, format!("ANALYZE failed: {e}"));
                    continue;
                }
            };
            match catalog.get(&key) {
                Ok(analyzed) if analyzed == direct => {}
                Ok(_) => fail(
                    &mut failures,
                    "catalog ANALYZE disagrees with the direct registry build".into(),
                ),
                Err(e) => fail(&mut failures, format!("catalog get failed: {e}")),
            }

            // Layer 3: binary snapshot round trip, byte-stable.
            let bytes = encode_catalog(&catalog);
            match decode_catalog(bytes.clone()) {
                Ok(decoded) => {
                    match decoded.get(&key) {
                        Ok(reloaded) if reloaded == direct => {}
                        Ok(_) => fail(
                            &mut failures,
                            "snapshot reload changed the stored histogram".into(),
                        ),
                        Err(e) => fail(&mut failures, format!("reloaded get failed: {e}")),
                    }
                    let reencoded = encode_catalog(&decoded);
                    if reencoded != bytes {
                        fail(
                            &mut failures,
                            "snapshot re-encoding is not byte-identical".into(),
                        );
                    }
                }
                Err(e) => fail(&mut failures, format!("snapshot decode failed: {e}")),
            }

            // Layer 4: query-layer self-join estimate vs the analysis
            // formula `Σ Pᵢ·round(avg)²` from the core histogram.
            let est = query::estimate::estimate_self_join(&direct, &values);
            let formula = hist.approx_self_join_size(RoundingMode::PaperRounded);
            if !approx_eq(est, formula) {
                fail(
                    &mut failures,
                    format!("estimate_self_join {est} ≠ Σ Pᵢ·round(avg)² = {formula}"),
                );
            }

            // Layer 5: the engine's SQL paths. Execution must equal the
            // exact integer join size; estimation must equal the
            // histogram overlap formula the estimator documents.
            let right = match relation_from_frequencies(
                "r",
                "a",
                &values,
                &freq_set,
                w.subseed(2 * idx as u64 + 1),
            ) {
                Ok(r) => r,
                Err(e) => {
                    fail(&mut failures, format!("probe relation failed: {e}"));
                    continue;
                }
            };
            let mut engine = engine::Engine::new();
            engine.register(left);
            engine.register(right);
            if let Err(e) = engine.analyze_all_with(spec) {
                fail(&mut failures, format!("engine ANALYZE failed: {e}"));
                continue;
            }
            let sql = "SELECT COUNT(*) FROM l, r WHERE l.a = r.a";
            let q = match engine.parse(sql) {
                Ok(q) => q,
                Err(e) => {
                    fail(&mut failures, format!("parse failed: {e}"));
                    continue;
                }
            };
            let exact_join = exact::join_size(&nz, &nz);
            match engine.execute(&q) {
                Ok(n) if n == exact_join => {}
                Ok(n) => fail(
                    &mut failures,
                    format!("engine executed {n} tuples, exact join size is {exact_join}"),
                ),
                Err(e) => fail(&mut failures, format!("execute failed: {e}")),
            }
            let stored_l = engine.catalog().get(&StatKey::new("l", &["a"]));
            let stored_r = engine.catalog().get(&StatKey::new("r", &["a"]));
            match (engine.estimate(&q), stored_l, stored_r) {
                (Ok(est), Ok(sl), Ok(sr)) => {
                    let overlap = query::estimate::estimate_two_way_join(&sl, &sr, &values);
                    let rows = freq_set.total() as f64;
                    let expected = overlap.min(rows * rows);
                    if !approx_eq(est, expected) {
                        fail(
                            &mut failures,
                            format!("engine estimate {est} ≠ histogram overlap {expected}"),
                        );
                    }
                }
                (Err(e), _, _) => fail(&mut failures, format!("estimate failed: {e}")),
                (_, Err(e), _) | (_, _, Err(e)) => {
                    fail(&mut failures, format!("engine catalog get failed: {e}"))
                }
            }
        }
    }
    CheckReport::from_failures("differential_catalog_engine_consistency", cases, failures)
}

/// The practicality claim behind §4–§6: memoising estimates must be
/// invisible. For every generated workload, estimates through the
/// engine's versioned cache equal the brute-force (cache-bypassing)
/// path bit for bit — value *and* reported [`engine::StatsUse`]
/// sequence — at every catalog epoch the check drives the engine
/// through: fresh statistics, a staleness bump that degrades the
/// ladder rung, and a re-ANALYZE that restores it. A stale-epoch hit
/// is impossible by construction (a hit requires the stored epoch to
/// equal the pinned snapshot's), and this check falsifies it anyway:
/// after each mutation the cached answer must track the *new*
/// brute-force answer, never the memoised old one.
pub fn check_cache_transparent(w: &Workload) -> CheckReport {
    let _span = obs::span("oracle_check_cache_transparent");
    let mut cases = 0;
    let mut failures = Vec::new();

    // Both estimates of one query through both paths, twice through the
    // cached path so the second call is a guaranteed same-epoch hit.
    // Returns the brute-force result for cross-epoch comparisons.
    fn probe(
        engine: &engine::Engine,
        query: &engine::Query,
        case: &str,
        phase: &str,
        failures: &mut Vec<String>,
    ) -> Option<(f64, Vec<engine::StatsUse>)> {
        let uncached = match engine.estimate_with_sources_uncached(query) {
            Ok(r) => r,
            Err(e) => {
                push_fail(failures, format!("{case} [{phase}]: uncached failed: {e}"));
                return None;
            }
        };
        for attempt in ["miss", "hit"] {
            match engine.estimate_with_sources(query) {
                Ok((est, sources)) => {
                    if est.to_bits() != uncached.0.to_bits() {
                        push_fail(
                            failures,
                            format!(
                                "{case} [{phase}/{attempt}]: cached estimate {est} is not \
                                 bit-identical to brute force {}",
                                uncached.0
                            ),
                        );
                    }
                    if sources != uncached.1 {
                        push_fail(
                            failures,
                            format!(
                                "{case} [{phase}/{attempt}]: cached StatsUse {sources:?} \
                                 differs from brute force {:?}",
                                uncached.1
                            ),
                        );
                    }
                }
                Err(e) => push_fail(failures, format!("{case} [{phase}/{attempt}]: {e}")),
            }
        }
        Some(uncached)
    }

    for (idx, set) in w.medium_sets.iter().enumerate() {
        let freqs = set.freqs.as_slice();
        let (values, nz) = nonzero_domain(freqs);
        if values.is_empty() {
            continue;
        }
        let freq_set = freqdist::FrequencySet::new(nz.clone());
        for beta in betas_for(w, values.len()) {
            cases += 1;
            let spec = BuilderSpec::VOptEndBiased(beta);
            let case = format!("{} β={beta}", set.name);
            let mut engine = engine::Engine::new();
            let mut registered = true;
            for (name, sub) in [("l", 2 * idx as u64), ("r", 2 * idx as u64 + 1)] {
                match relation_from_frequencies(name, "a", &values, &freq_set, w.subseed(sub)) {
                    Ok(rel) => engine.register(rel),
                    Err(e) => {
                        push_fail(&mut failures, format!("{case}: relation build failed: {e}"));
                        registered = false;
                    }
                }
            }
            if !registered {
                continue;
            }
            if let Err(e) = engine.analyze_all_with(spec) {
                push_fail(&mut failures, format!("{case}: ANALYZE failed: {e}"));
                continue;
            }
            let mut sqls = vec![
                "SELECT COUNT(*) FROM l, r WHERE l.a = r.a".to_string(),
                format!("SELECT COUNT(*) FROM l WHERE l.a = {}", values[0]),
            ];
            if let Some(&v) = values.last() {
                sqls.push(format!(
                    "SELECT COUNT(*) FROM l, r WHERE l.a = r.a AND r.a = {v}"
                ));
            }
            let queries: Vec<engine::Query> = match sqls
                .iter()
                .map(|sql| engine.parse(sql))
                .collect::<std::result::Result<_, _>>()
            {
                Ok(qs) => qs,
                Err(e) => {
                    push_fail(&mut failures, format!("{case}: parse failed: {e}"));
                    continue;
                }
            };

            // Phase 1: fresh statistics, spec rung.
            let mut fresh = Vec::new();
            for q in &queries {
                fresh.push(probe(&engine, q, &case, "fresh", &mut failures));
            }

            // Phase 2: push staleness past the ladder's hard limit. The
            // epoch bump must invalidate every memoised entry — cached
            // answers must now match the *degraded* brute-force path.
            let epoch_before = engine.catalog().epoch();
            let limit = engine.estimate_policy().hard_staleness_limit;
            engine.catalog().note_updates("l", limit + 1);
            engine.catalog().note_updates("r", limit + 1);
            if engine.catalog().epoch() != epoch_before + 2 {
                push_fail(
                    &mut failures,
                    format!(
                        "{case}: two update notes moved the epoch {epoch_before} -> {} (expected +2)",
                        engine.catalog().epoch()
                    ),
                );
            }
            for q in &queries {
                if let Some((_, sources)) = probe(&engine, q, &case, "stale", &mut failures) {
                    if sources.iter().any(|s| s.rung == engine::EstimateRung::Spec) {
                        push_fail(
                            &mut failures,
                            format!(
                                "{case} [stale]: a lookup still answered from the spec rung \
                                 ({sources:?}) — the staleness bump did not reach the estimator"
                            ),
                        );
                    }
                }
            }

            // Phase 3: re-ANALYZE restores the spec rung; the cached
            // path must return to the phase-1 answers bit for bit.
            if let Err(e) = engine.analyze_all_with(spec) {
                push_fail(&mut failures, format!("{case}: re-ANALYZE failed: {e}"));
                continue;
            }
            for (q, before) in queries.iter().zip(&fresh) {
                let after = probe(&engine, q, &case, "refreshed", &mut failures);
                if let (Some((est_before, src_before)), Some((est_after, src_after))) =
                    (before.as_ref(), after.as_ref())
                {
                    if est_before.to_bits() != est_after.to_bits() || src_before != src_after {
                        push_fail(
                            &mut failures,
                            format!(
                                "{case} [refreshed]: identical statistics must reproduce the \
                                 fresh-epoch estimate ({est_before} vs {est_after})"
                            ),
                        );
                    }
                }
            }
        }
    }
    CheckReport::from_failures("cache_transparent", cases, failures)
}

/// The rungs whose `estimate_rung_total{rung=…}` counters the tracing
/// check compares across recorder states, in ladder order.
const RUNG_NAMES: [&str; 4] = ["spec", "end_biased", "trivial", "uniform"];

/// Current values of the four per-rung counters in `recorder`.
fn rung_totals(recorder: &obs::Recorder) -> [u64; 4] {
    RUNG_NAMES.map(|r| {
        recorder
            .registry()
            .counter(&obs::labeled("estimate_rung_total", "rung", r))
            .get()
    })
}

/// The observability claim behind the flight recorder: tracing only
/// *observes*. For every generated workload, running the estimator with
/// the recorder on and with it off produces bit-identical estimates,
/// identical [`engine::StatsUse`] trails, and identical
/// `estimate_rung_total{rung=…}` counter movements — through both the
/// cached and the brute-force paths. The check also falsifies the
/// recorder's two boundary contracts: with tracing off the estimation
/// path records *no* cache/rung/stats events, and with tracing on it
/// actually records them (a recorder that silently recorded nothing
/// would pass any transparency test).
///
/// Each case's engine records to a private [`obs::Recorder`]: the check
/// toggles only that recorder's trace gate, reads only its rung
/// counters, and reads back only its own thread's events
/// ([`obs::trace::drain_thread`]), so engines and trace toggles on other
/// threads of the same process cannot move what it compares.
pub fn check_tracing_transparent(w: &Workload) -> CheckReport {
    use obs::trace::TraceKind;

    let _span = obs::span("oracle_check_tracing_transparent");
    let mut cases = 0;
    let mut failures = Vec::new();

    // Both estimation paths for one query: brute force, then cached.
    // The first cached call of a phase misses and computes; the second
    // phase's cached call hits and replays — the comparison therefore
    // covers compute, miss-fill, and hit-replay under both recorder
    // states.
    type Estimate = (f64, Vec<engine::StatsUse>);
    fn both_paths(
        engine: &engine::Engine,
        query: &engine::Query,
        case: &str,
        phase: &str,
        failures: &mut Vec<String>,
    ) -> Option<(Estimate, Estimate)> {
        let uncached = match engine.estimate_with_sources_uncached(query) {
            Ok(r) => r,
            Err(e) => {
                push_fail(failures, format!("{case} [{phase}]: uncached failed: {e}"));
                return None;
            }
        };
        match engine.estimate_with_sources(query) {
            Ok(cached) => Some((uncached, cached)),
            Err(e) => {
                push_fail(failures, format!("{case} [{phase}]: cached failed: {e}"));
                None
            }
        }
    }

    for (idx, set) in w.medium_sets.iter().enumerate() {
        let freqs = set.freqs.as_slice();
        let (values, nz) = nonzero_domain(freqs);
        if values.is_empty() {
            continue;
        }
        let freq_set = freqdist::FrequencySet::new(nz.clone());
        for beta in betas_for(w, values.len()) {
            cases += 1;
            let spec = BuilderSpec::VOptEndBiased(beta);
            let case = format!("{} β={beta}", set.name);
            let recorder = Arc::new(obs::Recorder::new());
            let mut engine = engine::Engine::with_recorder(Arc::clone(&recorder));
            let mut registered = true;
            for (name, sub) in [("l", 2 * idx as u64), ("r", 2 * idx as u64 + 1)] {
                match relation_from_frequencies(name, "a", &values, &freq_set, w.subseed(sub)) {
                    Ok(rel) => engine.register(rel),
                    Err(e) => {
                        push_fail(&mut failures, format!("{case}: relation build failed: {e}"));
                        registered = false;
                    }
                }
            }
            if !registered {
                continue;
            }
            if let Err(e) = engine.analyze_all_with(spec) {
                push_fail(&mut failures, format!("{case}: ANALYZE failed: {e}"));
                continue;
            }
            let sqls = [
                "SELECT COUNT(*) FROM l, r WHERE l.a = r.a".to_string(),
                format!("SELECT COUNT(*) FROM l WHERE l.a = {}", values[0]),
            ];
            let queries: Vec<engine::Query> = match sqls
                .iter()
                .map(|sql| engine.parse(sql))
                .collect::<std::result::Result<_, _>>()
            {
                Ok(qs) => qs,
                Err(e) => {
                    push_fail(&mut failures, format!("{case}: parse failed: {e}"));
                    continue;
                }
            };

            // Phase 1: recorder off. Only this case's private recorder
            // is switched off; the estimates run on this thread, so the
            // thread drain holds exactly what they recorded.
            obs::trace::drain_thread();
            recorder.set_trace_enabled(false);
            let rungs_at_start = rung_totals(&recorder);
            let untraced: Vec<Option<(Estimate, Estimate)>> = queries
                .iter()
                .map(|q| both_paths(&engine, q, &case, "untraced", &mut failures))
                .collect();
            let untraced_deltas: Vec<u64> = rung_totals(&recorder)
                .iter()
                .zip(rungs_at_start)
                .map(|(&after, before)| after - before)
                .collect();
            recorder.set_trace_enabled(true);
            let silent = obs::trace::drain_thread();
            if silent.iter().any(|e| {
                matches!(
                    &e.kind,
                    TraceKind::CacheProbe { .. }
                        | TraceKind::Rung { .. }
                        | TraceKind::StatsResolved { .. }
                )
            }) {
                push_fail(
                    &mut failures,
                    format!("{case}: estimation events were recorded with tracing off"),
                );
            }

            // Phase 2: recorder on. The cached calls are same-epoch hits
            // now, so hit-replay is compared against phase 1's miss-fill.
            let rungs_at_start = rung_totals(&recorder);
            let traced: Vec<Option<(Estimate, Estimate)>> = queries
                .iter()
                .map(|q| both_paths(&engine, q, &case, "traced", &mut failures))
                .collect();
            let traced_deltas: Vec<u64> = rung_totals(&recorder)
                .iter()
                .zip(rungs_at_start)
                .map(|(&after, before)| after - before)
                .collect();
            let events = obs::trace::drain_thread();
            if !events
                .iter()
                .any(|e| matches!(&e.kind, TraceKind::CacheProbe { .. }))
            {
                push_fail(
                    &mut failures,
                    format!("{case}: traced estimates recorded no cache-probe events"),
                );
            }
            if !events
                .iter()
                .any(|e| matches!(&e.kind, TraceKind::Rung { .. }))
            {
                push_fail(
                    &mut failures,
                    format!("{case}: traced estimates recorded no rung events"),
                );
            }
            if untraced_deltas != traced_deltas {
                push_fail(
                    &mut failures,
                    format!(
                        "{case}: rung counters moved by {untraced_deltas:?} untraced but \
                         {traced_deltas:?} traced — tracing changed the ladder's accounting"
                    ),
                );
            }
            for (i, (off, on)) in untraced.iter().zip(&traced).enumerate() {
                let (Some(off), Some(on)) = (off.as_ref(), on.as_ref()) else {
                    continue;
                };
                for (path, (est_off, src_off), (est_on, src_on)) in
                    [("uncached", &off.0, &on.0), ("cached", &off.1, &on.1)]
                {
                    if est_off.to_bits() != est_on.to_bits() {
                        push_fail(
                            &mut failures,
                            format!(
                                "{case} q{i} [{path}]: traced estimate {est_on} is not \
                                 bit-identical to untraced {est_off}"
                            ),
                        );
                    }
                    if src_off != src_on {
                        push_fail(
                            &mut failures,
                            format!(
                                "{case} q{i} [{path}]: traced StatsUse {src_on:?} differs \
                                 from untraced {src_off:?}"
                            ),
                        );
                    }
                }
            }
        }
    }
    CheckReport::from_failures("tracing_transparent", cases, failures)
}

/// Theorem 2.1: the chain-product result size equals tuple-by-tuple
/// execution over materialised relations, and the histogram estimate
/// with per-value-exact statistics recovers the exact size.
pub fn check_theorem_2_1_chain_product_matches_execution(w: &Workload) -> CheckReport {
    let _span = obs::span("oracle_check_theorem_2_1");
    let mut cases = 0;
    let mut failures = Vec::new();
    for (idx, chain) in w.chains.iter().enumerate() {
        cases += 1;
        let query = match ChainQuery::new(chain.matrices.clone()) {
            Ok(q) => q,
            Err(e) => {
                push_fail(&mut failures, format!("{}: {e}", chain.name));
                continue;
            }
        };
        let product = match query.exact_size() {
            Ok(s) => s,
            Err(e) => {
                push_fail(
                    &mut failures,
                    format!("{}: product failed: {e}", chain.name),
                );
                continue;
            }
        };
        match exact::chain_ground_truth(&chain.matrices, w.subseed(1000 + idx as u64)) {
            Ok(executed) if executed == product => {}
            Ok(executed) => push_fail(
                &mut failures,
                format!(
                    "{}: Theorem 2.1 product {product} ≠ executed size {executed}",
                    chain.name
                ),
            ),
            Err(e) => push_fail(
                &mut failures,
                format!("{}: execution failed: {e}", chain.name),
            ),
        }
        // Per-value-exact statistics (β = M for every relation) must
        // recover the exact size through the estimation path.
        let stats: Result<Vec<RelationStats>, String> = chain
            .matrices
            .iter()
            .enumerate()
            .map(|(k, m)| {
                let exact_spec = |cells: &[u64]| BuilderSpec::VOptSerial(cells.len()).build(cells);
                if k == 0 || k + 1 == chain.matrices.len() {
                    exact_spec(m.cells())
                        .map(RelationStats::Vector)
                        .map_err(|e| format!("vector stats: {e}"))
                } else {
                    MatrixHistogram::build(m, exact_spec)
                        .map(RelationStats::Matrix)
                        .map_err(|e| format!("matrix stats: {e}"))
                }
            })
            .collect();
        match stats.and_then(|s| {
            query
                .estimated_size(&s, RoundingMode::Exact)
                .map_err(|e| e.to_string())
        }) {
            Ok(estimate) if approx_eq(estimate, product as f64) => {}
            Ok(estimate) => push_fail(
                &mut failures,
                format!(
                    "{}: exact-statistics estimate {estimate} ≠ exact size {product}",
                    chain.name
                ),
            ),
            Err(e) => push_fail(
                &mut failures,
                format!("{}: estimate failed: {e}", chain.name),
            ),
        }
    }
    CheckReport::from_failures(
        "theorem_2_1_chain_product_matches_execution",
        cases,
        failures,
    )
}

/// Exact tuple count of the filter `pred` over a frequency-annotated
/// domain — the integer ground truth every range estimate is held to.
fn exact_filter_count(values: &[u64], freqs: &[u64], pred: impl Fn(u64) -> bool) -> u64 {
    values
        .iter()
        .zip(freqs)
        .filter(|&(&v, _)| pred(v))
        .map(|(_, &f)| f)
        .sum()
}

/// Exact pair count of the band join `|x − y| ≤ w` between two
/// relations sharing one frequency-annotated domain.
fn exact_band_count(values: &[u64], freqs: &[u64], w: u64) -> u64 {
    let mut total = 0u64;
    for (i, &v) in values.iter().enumerate() {
        for (j, &u) in values.iter().enumerate() {
            if v.abs_diff(u) <= w {
                total += freqs[i] * freqs[j];
            }
        }
    }
    total
}

/// The value-carrying-buckets claim, end to end: with per-value-exact
/// statistics (β = M, every bucket a singleton span) the engine's
/// range, BETWEEN, and band-join estimates equal the counts the engine
/// *executes* — overlap-ratio interpolation is exact when buckets are
/// point masses. The check also pins three contracts that hold at
/// every budget, not just β = M:
///
/// * `BETWEEN c AND c` normalises to the equality path bit for bit —
///   same estimate bits, same [`engine::StatsUse`] trail;
/// * every range-shaped lookup reports its full predicate form as the
///   `StatsUse` target (so a trail never hides *which* range was
///   estimated);
/// * sanity: `0 ≤ est ≤ |R|` for filters and `0 ≤ est ≤ |R|·|S|` for
///   band joins, with pooled-bucket budgets swept too under the
///   thorough tier, where interval widening must never shrink an
///   estimate.
///
/// Domains are spread (`v ↦ 3v + 1`, small sets `5v + 2`) so buckets
/// have genuine gaps between them: an estimator that interpolated over
/// the gap — or dropped the `+1` of the integer embedding — fails.
pub fn check_range_band_matches_execution(w: &Workload) -> CheckReport {
    let _span = obs::span("oracle_check_range_band");
    let mut cases = 0;
    let mut failures = Vec::new();

    // Part 1: range and BETWEEN filters on the medium sets, singleton
    // buckets, executed and estimated through the SQL engine.
    for (idx, set) in w.medium_sets.iter().enumerate() {
        let (indices, nz) = nonzero_domain(set.freqs.as_slice());
        if indices.len() < 2 {
            continue;
        }
        cases += 1;
        let values: Vec<u64> = indices.iter().map(|&i| i * 3 + 1).collect();
        let n = values.len();
        let freq_set = freqdist::FrequencySet::new(nz.clone());
        let rows = freq_set.total() as f64;
        let case = format!("{} (range)", set.name);
        let mut engine = engine::Engine::new();
        match relation_from_frequencies("l", "a", &values, &freq_set, w.subseed(4000 + idx as u64))
        {
            Ok(rel) => engine.register(rel),
            Err(e) => {
                push_fail(&mut failures, format!("{case}: relation build failed: {e}"));
                continue;
            }
        }
        if let Err(e) = engine.analyze_all_with(BuilderSpec::VOptEndBiased(n)) {
            push_fail(&mut failures, format!("{case}: ANALYZE failed: {e}"));
            continue;
        }
        let c = values[n / 2];
        let (lo, hi) = (values[n / 4], values[3 * n / 4]);
        let probes: Vec<(String, u64)> = vec![
            (
                format!("l.a < {c}"),
                exact_filter_count(&values, &nz, |v| v < c),
            ),
            (
                format!("l.a <= {c}"),
                exact_filter_count(&values, &nz, |v| v <= c),
            ),
            (
                format!("l.a > {c}"),
                exact_filter_count(&values, &nz, |v| v > c),
            ),
            (
                format!("l.a >= {c}"),
                exact_filter_count(&values, &nz, |v| v >= c),
            ),
            (
                format!("l.a BETWEEN {lo} AND {hi}"),
                exact_filter_count(&values, &nz, |v| lo <= v && v <= hi),
            ),
        ];
        for (pred, exact_count) in &probes {
            let sql = format!("SELECT COUNT(*) FROM l WHERE {pred}");
            let q = match engine.parse(&sql) {
                Ok(q) => q,
                Err(e) => {
                    push_fail(&mut failures, format!("{case}: parse '{sql}' failed: {e}"));
                    continue;
                }
            };
            match engine.execute(&q) {
                Ok(executed) if executed == u128::from(*exact_count) => {}
                Ok(executed) => push_fail(
                    &mut failures,
                    format!("{case}: '{pred}' executed {executed} ≠ ground truth {exact_count}"),
                ),
                Err(e) => push_fail(&mut failures, format!("{case}: execute '{pred}': {e}")),
            }
            match engine.estimate_with_sources(&q) {
                Ok((est, sources)) => {
                    if !approx_eq(est, *exact_count as f64) {
                        push_fail(
                            &mut failures,
                            format!("{case}: '{pred}' β=M estimate {est} ≠ executed {exact_count}"),
                        );
                    }
                    if !(0.0..=rows * (1.0 + 1e-9)).contains(&est) {
                        push_fail(
                            &mut failures,
                            format!("{case}: '{pred}' estimate {est} outside [0, |R|={rows}]"),
                        );
                    }
                    if sources.len() != 1 || *sources[0].target != **pred {
                        push_fail(
                            &mut failures,
                            format!(
                                "{case}: '{pred}' StatsUse trail {sources:?} does not name \
                                 the predicate form"
                            ),
                        );
                    }
                }
                Err(e) => push_fail(&mut failures, format!("{case}: estimate '{pred}': {e}")),
            }
        }
        // Point BETWEEN is the equality path, bit for bit.
        let point_sqls = [
            format!("SELECT COUNT(*) FROM l WHERE l.a = {c}"),
            format!("SELECT COUNT(*) FROM l WHERE l.a BETWEEN {c} AND {c}"),
        ];
        let results: Vec<_> = point_sqls
            .iter()
            .map(|sql| {
                engine
                    .parse(sql)
                    .and_then(|q| engine.estimate_with_sources(&q))
            })
            .collect();
        match (&results[0], &results[1]) {
            (Ok((eq, eq_src)), Ok((pt, pt_src))) => {
                if eq.to_bits() != pt.to_bits() {
                    push_fail(
                        &mut failures,
                        format!(
                            "{case}: BETWEEN {c} AND {c} estimated {pt}, not bit-identical \
                             to '= {c}' estimate {eq}"
                        ),
                    );
                }
                if eq_src != pt_src {
                    push_fail(
                        &mut failures,
                        format!(
                            "{case}: point BETWEEN left trail {pt_src:?}, equality left \
                             {eq_src:?} — normalisation leaked into the StatsUse trail"
                        ),
                    );
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                push_fail(&mut failures, format!("{case}: point probe failed: {e}"));
            }
        }

        // Part 2 (thorough tier): pooled-bucket budgets. Interpolated
        // estimates are approximations now, but they must stay inside
        // [0, |R|] and widening the interval must never shrink them.
        if w.tier == Tier::Thorough {
            for beta in betas_for(w, n) {
                cases += 1;
                let case = format!("{} (pooled β={beta})", set.name);
                if let Err(e) = engine.analyze_all_with(BuilderSpec::VOptEndBiased(beta)) {
                    push_fail(&mut failures, format!("{case}: re-ANALYZE failed: {e}"));
                    continue;
                }
                let mut widening = Vec::new();
                for (a, b) in [(lo, hi), (values[0], values[n - 1])] {
                    let sql = format!("SELECT COUNT(*) FROM l WHERE l.a BETWEEN {a} AND {b}");
                    match engine.parse(&sql).and_then(|q| engine.estimate(&q)) {
                        Ok(est) => {
                            if !(0.0..=rows * (1.0 + 1e-9)).contains(&est) {
                                push_fail(
                                    &mut failures,
                                    format!(
                                        "{case}: BETWEEN {a} AND {b} estimate {est} outside \
                                         [0, |R|={rows}]"
                                    ),
                                );
                            }
                            widening.push(est);
                        }
                        Err(e) => push_fail(&mut failures, format!("{case}: '{sql}': {e}")),
                    }
                }
                if let [narrow, wide] = widening[..] {
                    if narrow > wide * (1.0 + 1e-9) + 1e-9 {
                        push_fail(
                            &mut failures,
                            format!("{case}: widening shrank the estimate {narrow} -> {wide}"),
                        );
                    }
                }
            }
            // Restore β = M statistics for any later probes.
            let _ = engine.analyze_all_with(BuilderSpec::VOptEndBiased(n));
        }
    }

    // Part 3: band joins on the small sets (pair counts stay tiny, so
    // full execution is affordable at every width up to the whole
    // domain span), singleton buckets throughout.
    for (idx, set) in w.small_sets.iter().enumerate() {
        let (indices, nz) = nonzero_domain(set.freqs.as_slice());
        if indices.len() < 2 {
            continue;
        }
        cases += 1;
        let values: Vec<u64> = indices.iter().map(|&i| i * 5 + 2).collect();
        let n = values.len();
        let freq_set = freqdist::FrequencySet::new(nz.clone());
        let rows = freq_set.total() as f64;
        let case = format!("{} (band)", set.name);
        let mut engine = engine::Engine::new();
        let mut registered = true;
        for (name, sub) in [("l", 5000 + 2 * idx as u64), ("r", 5001 + 2 * idx as u64)] {
            match relation_from_frequencies(name, "a", &values, &freq_set, w.subseed(sub)) {
                Ok(rel) => engine.register(rel),
                Err(e) => {
                    push_fail(&mut failures, format!("{case}: relation build failed: {e}"));
                    registered = false;
                }
            }
        }
        if !registered {
            continue;
        }
        if let Err(e) = engine.analyze_all_with(BuilderSpec::VOptEndBiased(n)) {
            push_fail(&mut failures, format!("{case}: ANALYZE failed: {e}"));
            continue;
        }
        let span = values[n - 1] - values[0];
        let mut last_est = 0.0f64;
        for width in [0, 2, 5, 7, span] {
            let exact_count = exact_band_count(&values, &nz, width);
            let pred = format!("abs(l.a - r.a) <= {width}");
            let sql = format!("SELECT COUNT(*) FROM l, r WHERE {pred}");
            let q = match engine.parse(&sql) {
                Ok(q) => q,
                Err(e) => {
                    push_fail(&mut failures, format!("{case}: parse '{sql}' failed: {e}"));
                    continue;
                }
            };
            match engine.execute(&q) {
                Ok(executed) if executed == u128::from(exact_count) => {}
                Ok(executed) => push_fail(
                    &mut failures,
                    format!("{case}: '{pred}' executed {executed} ≠ ground truth {exact_count}"),
                ),
                Err(e) => push_fail(&mut failures, format!("{case}: execute '{pred}': {e}")),
            }
            match engine.estimate_with_sources(&q) {
                Ok((est, sources)) => {
                    if !approx_eq(est, exact_count as f64) {
                        push_fail(
                            &mut failures,
                            format!("{case}: '{pred}' β=M estimate {est} ≠ executed {exact_count}"),
                        );
                    }
                    if !(0.0..=rows * rows * (1.0 + 1e-9)).contains(&est) {
                        push_fail(
                            &mut failures,
                            format!(
                                "{case}: '{pred}' estimate {est} outside [0, |R|·|S|={}]",
                                rows * rows
                            ),
                        );
                    }
                    if est + 1e-9 < last_est {
                        push_fail(
                            &mut failures,
                            format!(
                                "{case}: widening the band to {width} shrank the estimate \
                                 {last_est} -> {est}"
                            ),
                        );
                    }
                    last_est = est;
                    if !sources.iter().any(|s| *s.target == *pred) {
                        push_fail(
                            &mut failures,
                            format!(
                                "{case}: '{pred}' StatsUse trail {sources:?} does not name \
                                 the band predicate"
                            ),
                        );
                    }
                }
                Err(e) => push_fail(&mut failures, format!("{case}: estimate '{pred}': {e}")),
            }
        }
    }
    CheckReport::from_failures("range_band_matches_execution", cases, failures)
}

/// The serving layer must be estimate-preserving: for the same seed,
/// estimates *and their `StatsUse` trails* obtained over a loopback
/// socket from a `netserve` server are bit-identical to in-process
/// [`engine::Engine::estimate_with_sources`]. The wire side ANALYZEs
/// durably (journaled through the tenant's WAL) while the in-process
/// side uses the plain catalog path, so this also pins "durable
/// ANALYZE ≡ in-memory ANALYZE" at the estimate level.
pub fn check_wire_equals_inprocess(w: &Workload) -> CheckReport {
    let _span = obs::span("oracle_check_wire");
    const NAME: &str = "wire_equals_inprocess";
    const TENANT: &str = "oracle";
    let mut cases = 0;
    let mut failures = Vec::new();

    // One loopback server (and one tenant namespace) for the whole
    // check. The scratch path is deterministic — pid + seed, no
    // timestamps — because the selftest report must stay byte-stable.
    let scratch =
        std::env::temp_dir().join(format!("oracle-wire-{}-{}", std::process::id(), w.seed));
    let _ = std::fs::remove_dir_all(&scratch);
    let server = match netserve::Server::start(netserve::ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        tenants_dir: scratch.clone(),
        ..netserve::ServerConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            return CheckReport::from_failures(
                NAME,
                0,
                vec![format!("loopback server failed to start: {e}")],
            )
        }
    };
    let mut client = match netserve::Client::connect(server.local_addr()) {
        Ok(c) => c,
        Err(e) => return CheckReport::from_failures(NAME, 0, vec![format!("connect failed: {e}")]),
    };

    for (idx, set) in w.medium_sets.iter().enumerate() {
        let (indices, nz) = nonzero_domain(set.freqs.as_slice());
        if indices.len() < 2 {
            continue;
        }
        let values: Vec<u64> = indices.iter().map(|&i| i * 3 + 1).collect();
        let n = values.len();
        let freq_set = freqdist::FrequencySet::new(nz.clone());
        let left = match relation_from_frequencies(
            "l",
            "a",
            &values,
            &freq_set,
            w.subseed(9000 + idx as u64),
        ) {
            Ok(r) => r,
            Err(e) => {
                push_fail(&mut failures, format!("{}: build l: {e}", set.name));
                continue;
            }
        };
        let right = match relation_from_frequencies(
            "r",
            "b",
            &values,
            &freq_set,
            w.subseed(9500 + idx as u64),
        ) {
            Ok(r) => r,
            Err(e) => {
                push_fail(&mut failures, format!("{}: build r: {e}", set.name));
                continue;
            }
        };

        for beta in betas_for(w, n) {
            let case = format!("{} β={beta}", set.name);
            let spec = BuilderSpec::VOptEndBiased(beta);

            // In-process reference.
            let mut engine = engine::Engine::new();
            engine.register(left.clone());
            engine.register(right.clone());
            if let Err(e) = engine.analyze_all_with(spec) {
                push_fail(&mut failures, format!("{case}: local ANALYZE: {e}"));
                continue;
            }

            // Wire twin: LOAD replaces, ANALYZE rebuilds, so the one
            // tenant namespace is reused across cases.
            let wire_setup = client
                .load_relation(TENANT, &left)
                .and_then(|_| client.load_relation(TENANT, &right))
                .and_then(|_| client.analyze(TENANT, "v_opt_end_biased", beta as u32));
            if let Err(e) = wire_setup {
                push_fail(&mut failures, format!("{case}: wire setup: {e}"));
                continue;
            }

            let c = values[n / 2];
            let (lo, hi) = (values[n / 4], values[3 * n / 4]);
            let probes = [
                "select count(*) from l".to_string(),
                format!("select count(*) from l where l.a = {c}"),
                format!("select count(*) from l where l.a < {c}"),
                format!("select count(*) from l where l.a between {lo} and {hi}"),
                "select count(*) from l, r where l.a = r.b".to_string(),
            ];
            for sql in &probes {
                cases += 1;
                let query = match engine.parse(sql) {
                    Ok(q) => q,
                    Err(e) => {
                        push_fail(&mut failures, format!("{case}: parse '{sql}': {e}"));
                        continue;
                    }
                };
                let (local_est, local_sources) = match engine.estimate_with_sources(&query) {
                    Ok(r) => r,
                    Err(e) => {
                        push_fail(
                            &mut failures,
                            format!("{case}: local estimate '{sql}': {e}"),
                        );
                        continue;
                    }
                };
                let (wire_est, wire_sources) = match client.estimate(TENANT, sql) {
                    Ok(r) => r,
                    Err(e) => {
                        push_fail(&mut failures, format!("{case}: wire estimate '{sql}': {e}"));
                        continue;
                    }
                };
                if local_est.to_bits() != wire_est.to_bits() {
                    push_fail(
                        &mut failures,
                        format!(
                            "{case}: '{sql}' wire estimate {wire_est} ({:#018x}) ≠ \
                             in-process {local_est} ({:#018x})",
                            wire_est.to_bits(),
                            local_est.to_bits()
                        ),
                    );
                }
                if local_sources != wire_sources {
                    push_fail(
                        &mut failures,
                        format!(
                            "{case}: '{sql}' wire StatsUse trail {wire_sources:?} ≠ \
                             in-process {local_sources:?}"
                        ),
                    );
                }
            }
        }
    }

    if let Err(e) = client.shutdown() {
        push_fail(&mut failures, format!("graceful shutdown failed: {e}"));
    }
    if let Err(e) = server.join() {
        push_fail(&mut failures, format!("server join failed: {e}"));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    CheckReport::from_failures(NAME, cases, failures)
}

/// Retries must be convergent, not merely eventual: a retrying client
/// driven through the deterministic chaos proxy (seeded resets,
/// mid-frame drops, response truncation, delays) must return estimates
/// and `StatsUse` trails bit-identical to a direct connection to the
/// same server — and once the chaos connections unwind, the server
/// must hold zero admission slots, or a leaked slot would eventually
/// wedge it at `max_connections`.
pub fn check_chaos_converges(w: &Workload) -> CheckReport {
    let _span = obs::span("oracle_check_chaos");
    const NAME: &str = "chaos_converges";
    const TENANT: &str = "oracle";
    let mut cases = 0;
    let mut failures = Vec::new();

    let scratch =
        std::env::temp_dir().join(format!("oracle-chaos-{}-{}", std::process::id(), w.seed));
    let _ = std::fs::remove_dir_all(&scratch);
    let server = match netserve::Server::start(netserve::ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        tenants_dir: scratch.clone(),
        ..netserve::ServerConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            return CheckReport::from_failures(
                NAME,
                0,
                vec![format!("loopback server failed to start: {e}")],
            )
        }
    };
    let proxy = match netserve::ChaosProxy::start(netserve::ChaosConfig {
        upstream: server.local_addr().to_string(),
        seed: w.seed,
        ..netserve::ChaosConfig::default()
    }) {
        Ok(p) => p,
        Err(e) => {
            return CheckReport::from_failures(
                NAME,
                0,
                vec![format!("chaos proxy failed to start: {e}")],
            )
        }
    };
    let mut direct = match netserve::Client::connect(server.local_addr()) {
        Ok(c) => c,
        Err(e) => return CheckReport::from_failures(NAME, 0, vec![format!("connect failed: {e}")]),
    };
    // Short backoffs keep the check inside its budget; the retry count
    // of 8 is generous against the proxy's forced-clean-every-third
    // schedule.
    let policy = netserve::RetryPolicy {
        retries: 8,
        backoff_base: std::time::Duration::from_millis(5),
        backoff_max: std::time::Duration::from_millis(50),
        connect_timeout: Some(std::time::Duration::from_secs(5)),
        seed: w.seed,
    };
    let mut chaotic = match netserve::Client::connect_with_retry(proxy.local_addr(), policy) {
        Ok(c) => c,
        Err(e) => {
            return CheckReport::from_failures(
                NAME,
                0,
                vec![format!("connect through chaos proxy failed: {e}")],
            )
        }
    };

    for (idx, set) in w.medium_sets.iter().enumerate().take(2) {
        let (indices, nz) = nonzero_domain(set.freqs.as_slice());
        if indices.len() < 2 {
            continue;
        }
        let values: Vec<u64> = indices.iter().map(|&i| i * 3 + 1).collect();
        let n = values.len();
        let freq_set = freqdist::FrequencySet::new(nz.clone());
        let left = match relation_from_frequencies(
            "l",
            "a",
            &values,
            &freq_set,
            w.subseed(9700 + idx as u64),
        ) {
            Ok(r) => r,
            Err(e) => {
                push_fail(&mut failures, format!("{}: build l: {e}", set.name));
                continue;
            }
        };
        let right = match relation_from_frequencies(
            "r",
            "b",
            &values,
            &freq_set,
            w.subseed(9750 + idx as u64),
        ) {
            Ok(r) => r,
            Err(e) => {
                push_fail(&mut failures, format!("{}: build r: {e}", set.name));
                continue;
            }
        };
        let Some(beta) = betas_for(w, n).next() else {
            continue;
        };
        let case = format!("{} β={beta}", set.name);

        // Setup over the *direct* connection: LOAD_RELATION is not
        // idempotent, so the chaos path only carries retryable reads.
        let setup = direct
            .load_relation(TENANT, &left)
            .and_then(|_| direct.load_relation(TENANT, &right))
            .and_then(|_| direct.analyze(TENANT, "v_opt_end_biased", beta as u32));
        if let Err(e) = setup {
            push_fail(&mut failures, format!("{case}: direct setup: {e}"));
            continue;
        }

        let c = values[n / 2];
        let (lo, hi) = (values[n / 4], values[3 * n / 4]);
        let probes = [
            "select count(*) from l".to_string(),
            format!("select count(*) from l where l.a = {c}"),
            format!("select count(*) from l where l.a < {c}"),
            format!("select count(*) from l where l.a between {lo} and {hi}"),
            "select count(*) from l, r where l.a = r.b".to_string(),
        ];
        for sql in &probes {
            cases += 1;
            let (direct_est, direct_sources) = match direct.estimate(TENANT, sql) {
                Ok(r) => r,
                Err(e) => {
                    push_fail(
                        &mut failures,
                        format!("{case}: direct estimate '{sql}': {e}"),
                    );
                    continue;
                }
            };
            let (chaos_est, chaos_sources) = match chaotic.estimate(TENANT, sql) {
                Ok(r) => r,
                Err(e) => {
                    push_fail(
                        &mut failures,
                        format!("{case}: estimate '{sql}' through chaos proxy: {e}"),
                    );
                    continue;
                }
            };
            if direct_est.to_bits() != chaos_est.to_bits() {
                push_fail(
                    &mut failures,
                    format!(
                        "{case}: '{sql}' chaos estimate {chaos_est} ({:#018x}) ≠ \
                         direct {direct_est} ({:#018x})",
                        chaos_est.to_bits(),
                        direct_est.to_bits()
                    ),
                );
            }
            if direct_sources != chaos_sources {
                push_fail(
                    &mut failures,
                    format!(
                        "{case}: '{sql}' chaos StatsUse trail {chaos_sources:?} ≠ \
                         direct {direct_sources:?}"
                    ),
                );
            }
        }
    }

    drop(chaotic);
    proxy.stop();
    // Slot hygiene: every chaos connection must release its admission
    // slot; only the direct client's slot may remain.
    let drain = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.active_connections() > 1 && std::time::Instant::now() < drain {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let active = server.active_connections();
    if active > 1 {
        push_fail(
            &mut failures,
            format!("{active} connection slot(s) still held after the chaos connections closed"),
        );
    }
    if let Err(e) = direct.shutdown() {
        push_fail(&mut failures, format!("graceful shutdown failed: {e}"));
    }
    if let Err(e) = server.join() {
        push_fail(&mut failures, format!("server join failed: {e}"));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    CheckReport::from_failures(NAME, cases, failures)
}

/// The Q-error of one estimate against ground truth, both clamped to
/// ≥ 1 tuple so empty results compare as "exactly right" rather than
/// dividing by zero.
fn qerror(estimate: f64, actual: f64) -> f64 {
    let e = estimate.max(1.0);
    let a = actual.max(1.0);
    (e / a).max(a / e)
}

/// Median of a set of Q-errors (mean of the middle two when even).
fn median_of(mut qs: Vec<f64>) -> f64 {
    qs.sort_by(|a, b| a.partial_cmp(b).expect("qerror is finite"));
    let n = qs.len();
    if n % 2 == 1 {
        qs[n / 2]
    } else {
        (qs[n / 2 - 1] + qs[n / 2]) / 2.0
    }
}

/// One data set's hot-query trajectory through the journaled feedback
/// loop: the observed Q-error before each tuning round (so
/// `qs.len() == rounds + 1`), the Q-error a fresh ANALYZE of the live
/// data would give the same query, and how many tunes were actually
/// applied. Produced by [`feedback_trajectories`]; consumed by the
/// `feedback_converges` invariant and by `histctl tune --convergence`.
#[derive(Debug, Clone)]
pub struct FeedbackTrajectory {
    /// The workload set's name.
    pub set: String,
    /// Observed Q-error of the stationary hot query, per round
    /// (`qs[0]` is pre-tuning).
    pub qs: Vec<f64>,
    /// Q-error a fresh ANALYZE of the live data gives the same query.
    pub fresh_q: f64,
    /// Journaled tune steps actually applied across the rounds.
    pub applied: u64,
}

/// Runs the feedback convergence study over a workload's medium sets:
/// for each set a histogram is built on *drifted* (rotated)
/// frequencies, and a stationary hot query — the range spanned by the
/// stale histogram's most-wrong bucket — keeps reporting its true
/// result size through [`relstore::DurableCatalog::tune_column`], the
/// same journaled action the maintenance daemon's sweep issues.
///
/// Two deliberate choices keep the trajectories exact rather than
/// statistical. The hot bucket is picked among buckets whose stored
/// average is *unique*, so the tuner's nearest-average hit selection
/// provably recovers the observed bucket on the first round (feedback
/// carries only a scalar estimate, so equal-average buckets alias) —
/// a set with no such bucket is skipped. And restructuring is
/// disabled ([`TuneConfig::split_qerror`] = ∞): a split or merge
/// relocates values across bucket boundaries, which re-targets the
/// observation mid-flight — the per-step `q_post ≤ q_pre` contract
/// only chains into a monotone trajectory under pure frequency
/// transfers. Restructuring correctness is covered separately by the
/// tuner's property tests.
///
/// [`TuneConfig::split_qerror`]: vopt_hist::feedback::TuneConfig
pub fn feedback_trajectories(
    w: &Workload,
    rounds: usize,
) -> (Vec<FeedbackTrajectory>, Vec<String>) {
    let scratch =
        std::env::temp_dir().join(format!("oracle-feedback-{}-{}", std::process::id(), w.seed));
    let _ = std::fs::remove_dir_all(&scratch);
    let beta = w.betas.iter().copied().max().unwrap_or(3).max(2);
    let cfg = vopt_hist::feedback::TuneConfig {
        split_qerror: f64::INFINITY,
        ..vopt_hist::feedback::TuneConfig::default()
    };
    let mut trajectories = Vec::new();
    let mut errors = Vec::new();

    'sets: for (si, set) in w.medium_sets.iter().enumerate() {
        let truth = set.freqs.as_slice();
        let n = truth.len();
        // Stationary workload, drifted statistics: the stored histogram
        // describes the value order rotated by a third — the data it
        // was built on has since "moved" — while feedback reports the
        // live truth.
        let mut drifted = truth.to_vec();
        drifted.rotate_left(n / 3);
        let values: Vec<u64> = (0..n as u64).collect();
        let spec = BuilderSpec::VOptEndBiased(beta);
        let built = spec
            .build(&drifted)
            .map_err(|e| e.to_string())
            .and_then(|h| StoredHistogram::from_histogram(&values, &h).map_err(|e| e.to_string()))
            .and_then(|stale| {
                spec.build(truth)
                    .map_err(|e| e.to_string())
                    .and_then(|h| {
                        StoredHistogram::from_histogram(&values, &h).map_err(|e| e.to_string())
                    })
                    .map(|fresh| (stale, fresh))
            });
        let (stale, fresh) = match built {
            Ok(pair) => pair,
            Err(e) => {
                errors.push(format!("{}: build: {e}", set.name));
                continue;
            }
        };
        // The hot query: the range of the stale bucket most wrong about
        // the live data, restricted to unique-average buckets. `actual`
        // is the query's true mean frequency over that range and never
        // changes — the workload is stationary.
        let avgs = stale.bucket_avgs();
        let (mut v_star, mut actual, mut worst) = (0u64, 1.0f64, 0.0f64);
        for b in 0..stale.num_buckets() {
            if avgs.iter().filter(|&&a| a == avgs[b]).count() > 1 {
                continue;
            }
            let bb = stale.bucket_bounds(b);
            let span_sum: u64 = (bb.lo..bb.hi.min(n as u64))
                .map(|v| truth[v as usize])
                .sum();
            let a = span_sum as f64 / bb.distinct.max(1) as f64;
            let q = qerror(avgs[b] as f64, a);
            if q > worst {
                worst = q;
                v_star = bb.lo;
                actual = a;
            }
        }
        if worst == 0.0 {
            // Every bucket average is duplicated (e.g. perfectly uniform
            // data): no unambiguous hot query exists; the drift is
            // invisible to scalar feedback, so the set contributes
            // nothing to the trajectory.
            continue;
        }
        let fresh_q = qerror(fresh.approx_frequency(v_star) as f64, actual);
        let store = match relstore::DurableCatalog::open(scratch.join(format!("set{si}"))) {
            Ok(s) => s,
            Err(e) => {
                errors.push(format!("{}: open store: {e}", set.name));
                continue;
            }
        };
        let key = StatKey::new("oracle_fb", &["v"]);
        if let Err(e) = store.put_with_spec(key.clone(), stale, Some(spec)) {
            errors.push(format!("{}: seed store: {e}", set.name));
            continue;
        }
        let mut qs = Vec::with_capacity(rounds + 1);
        for round in 0..=rounds {
            let hist = match store.catalog().get(&key) {
                Ok(h) => h,
                Err(e) => {
                    errors.push(format!("{}: get: {e}", set.name));
                    continue 'sets;
                }
            };
            let estimate = hist.approx_frequency(v_star) as f64;
            qs.push(qerror(estimate, actual));
            if round == rounds {
                break;
            }
            if let Err(e) = store.tune_column(&key, estimate, actual, &cfg) {
                errors.push(format!("{}: tune round {round}: {e}", set.name));
                continue 'sets;
            }
        }
        trajectories.push(FeedbackTrajectory {
            set: set.name.clone(),
            qs,
            fresh_q,
            applied: store.catalog().tuned_count(&key),
        });
    }
    let _ = std::fs::remove_dir_all(&scratch);
    (trajectories, errors)
}

/// Workload median of the observed Q-error at round `r`, across a
/// study's trajectories.
pub fn feedback_round_medians(trajectories: &[FeedbackTrajectory]) -> Vec<f64> {
    let rounds = trajectories.iter().map(|t| t.qs.len()).min().unwrap_or(0);
    (0..rounds)
        .map(|r| median_of(trajectories.iter().map(|t| t.qs[r]).collect()))
        .collect()
}

/// The self-tuning feedback loop converges: across the tuning rounds
/// of [`feedback_trajectories`], the workload's median observed
/// Q-error is monotonically non-increasing, every individual hot
/// query ends no worse than it started, any hot query outside the
/// tuner's dead zone produced at least one applied journaled tune,
/// and the final median lands within a constant factor of what a
/// fresh ANALYZE of the live data would estimate for the same
/// queries. Aliasing can still arise mid-trajectory when a transfer
/// lands two buckets on the same average, which is why the monotone
/// assertion is on the workload median (and per-query only
/// end-to-start), not on every per-query round.
pub fn check_feedback_converges(w: &Workload) -> CheckReport {
    let _span = obs::span("oracle_check_feedback_converges");
    const NAME: &str = "feedback_converges";
    /// Tuning rounds: one feedback observation per hot query each.
    const ROUNDS: usize = 8;
    /// The final median must land within this factor of ANALYZE-fresh.
    const FRESH_FACTOR: f64 = 1.5;
    let min_qerror = vopt_hist::feedback::TuneConfig::default().min_qerror;
    let mut cases = 0;
    let mut failures = Vec::new();
    let (trajectories, errors) = feedback_trajectories(w, ROUNDS);
    for e in errors {
        push_fail(&mut failures, e);
    }

    for t in &trajectories {
        // Each hot query ends no worse than it started.
        cases += 1;
        let (first, last) = (t.qs[0], *t.qs.last().expect("rounds >= 1"));
        if last > first + 1e-9 {
            push_fail(
                &mut failures,
                format!(
                    "{}: hot-query Q-error regressed {first} → {last} after tuning",
                    t.set
                ),
            );
        }
        // The loop must actually have closed: a hot query outside the
        // tuner's dead zone must have produced at least one journaled,
        // applied tune.
        cases += 1;
        if first > min_qerror && t.applied == 0 {
            push_fail(
                &mut failures,
                format!("{}: initial Q-error {first} yet no tune was applied", t.set),
            );
        }
    }

    if !trajectories.is_empty() {
        let medians = feedback_round_medians(&trajectories);
        for (r, pair) in medians.windows(2).enumerate() {
            cases += 1;
            if pair[1] > pair[0] + 1e-9 {
                push_fail(
                    &mut failures,
                    format!(
                        "workload median Q-error rose {} → {} in round {}",
                        pair[0],
                        pair[1],
                        r + 1
                    ),
                );
            }
        }
        cases += 1;
        let final_median = *medians.last().expect("rounds >= 1");
        let fresh_median = median_of(trajectories.iter().map(|t| t.fresh_q).collect());
        if final_median > fresh_median.max(1.0) * FRESH_FACTOR {
            push_fail(
                &mut failures,
                format!(
                    "final workload median Q-error {final_median} not within {FRESH_FACTOR}× of \
                     ANALYZE-fresh {fresh_median} (started at {})",
                    medians[0]
                ),
            );
        }
    }
    CheckReport::from_failures(NAME, cases, failures)
}

/// Runs every invariant check, in [`crate::report::EXPECTED_CHECKS`]
/// order.
pub fn run_all(w: &Workload) -> Vec<CheckReport> {
    let _span = obs::span("oracle_invariants");
    let reports = vec![
        check_serial_dp_matches_exhaustive_optimum(w),
        check_theorem_3_3_v_optimal_minimizes_sigma(w),
        check_query_independence_self_join_optimum(w),
        check_theorem_4_2_end_biased_optimal_split(w),
        check_exact_when_buckets_cover_domain(w),
        check_prop_3_1_self_join_error_formula(w),
        check_differential_catalog_engine_consistency(w),
        check_theorem_2_1_chain_product_matches_execution(w),
        check_cache_transparent(w),
        check_tracing_transparent(w),
        check_range_band_matches_execution(w),
        check_wire_equals_inprocess(w),
        check_chaos_converges(w),
        check_feedback_converges(w),
    ];
    for r in &reports {
        obs::counter(if r.passed {
            "oracle_checks_passed_total"
        } else {
            "oracle_checks_failed_total"
        })
        .inc();
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Tier;

    #[test]
    fn all_checks_pass_on_a_quick_workload() {
        let w = Workload::generate(11, Tier::Quick);
        for report in run_all(&w) {
            assert!(report.cases > 0, "{} ran zero cases", report.name);
            assert!(
                report.passed,
                "{} failed: {:?}",
                report.name, report.failures
            );
        }
    }

    #[test]
    fn sse_recomputation_is_independent_of_bucket_stats() {
        let freqs = [10u64, 10, 1, 1];
        let hist = BuilderSpec::VOptSerial(2).build(&freqs).unwrap();
        assert!(approx_eq(sse_from_assignment(&freqs, &hist), 0.0));
        let trivial = BuilderSpec::Trivial.build(&freqs).unwrap();
        // Mean 5.5 → SSE = 2·4.5² + 2·4.5² = 81.
        assert!(approx_eq(sse_from_assignment(&freqs, &trivial), 81.0));
        assert!(approx_eq(trivial.self_join_error(), 81.0));
    }

    #[test]
    fn ground_truth_discriminates_suboptimal_histograms() {
        // The oracle must be able to tell a wrong "optimum" from a right
        // one: a skewed set where equi-depth is strictly worse than the
        // serial optimum.
        let freqs = [100u64, 90, 2, 1, 1];
        let min = exact::min_serial_error(&freqs, 2).unwrap();
        let equi = BuilderSpec::EquiDepth(2).build_opt(&freqs).unwrap();
        assert!(
            equi.error > min + 1.0,
            "equi-depth {} vs optimum {min}",
            equi.error
        );
        // And σ discriminates too: the trivial histogram's deviation is
        // strictly larger than the v-optimal one's.
        let probe = probe_for(&freqs);
        let vopt = BuilderSpec::VOptSerial(2).build(&freqs).unwrap();
        let triv = BuilderSpec::Trivial.build(&freqs).unwrap();
        let sigma_vopt =
            exact::sigma_over_arrangements(&exact::approximation_errors(&freqs, &vopt), &probe);
        let sigma_triv =
            exact::sigma_over_arrangements(&exact::approximation_errors(&freqs, &triv), &probe);
        assert!(sigma_vopt < sigma_triv, "{sigma_vopt} !< {sigma_triv}");
    }
}
