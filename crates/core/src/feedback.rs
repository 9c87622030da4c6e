//! Self-tuning histogram updates from query feedback (ST-histograms).
//!
//! "A Learning Framework for Self-Tuning Histograms" observes that the
//! (estimate, actual) pairs a running system collects for free are a
//! training signal: when the optimizer's estimate for a predicate is
//! off, the buckets that produced it can be nudged toward the observed
//! truth without rescanning the relation. This module implements that
//! update rule over the paper's compact catalog layout — bucket
//! averages, an implicit default bucket, listed exception values, and
//! per-bucket value spans — under three hard invariants the oracle and
//! property tests enforce on every step:
//!
//! 1. **Mass conservation.** The histogram's total frequency mass
//!    `Σ avg_b · distinct_b` is *exactly* unchanged: tuning
//!    redistributes rows between buckets, it never invents or loses
//!    them. Because bucket averages are integers and buckets differ in
//!    distinct-count, a transfer between the hit bucket `i` and a
//!    partner bucket `j` moves mass in units of `lcm(d_i, d_j)` — the
//!    smallest quantum both sides can express exactly.
//! 2. **Structural validity.** Bucket value spans stay well-formed and
//!    pairwise disjoint, exceptions stay strictly sorted with valid
//!    bucket references, and the default bucket stays in range.
//! 3. **β budget.** The bucket count never exceeds
//!    `max(β, incoming count)`: a split of the worst-offending bucket
//!    is paid for by merging the most-similar adjacent pair first when
//!    the histogram is already at budget.
//!
//! The update itself is damped (`new ← old + α·(actual − old)` on the
//! hit bucket, α the [`TuneConfig::damping`] factor) and bounded (at
//! most [`TuneConfig::max_step_fraction`] of the total mass moves per
//! step), so a single outlier observation cannot capsize a histogram —
//! and on a stationary workload repeated steps converge geometrically
//! toward the observed frequency, which is what the oracle's
//! `feedback_converges` invariant checks end to end.

use crate::interp::ValueBounds;

/// Tuning parameters. The defaults are deliberately conservative: half
///-step damping, a 5% Q-error dead zone, at most a quarter of the mass
/// moved per step, and restructuring only past Q-error 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneConfig {
    /// Damping factor α in `(0, 1]`: the hit bucket moves this fraction
    /// of the way from its current average toward the observed actual.
    pub damping: f64,
    /// Observations with Q-error below this are noise; skip them.
    pub min_qerror: f64,
    /// At most this fraction of the histogram's total mass moves in one
    /// step, whatever the observation says.
    pub max_step_fraction: f64,
    /// Q-error at or above which the hit bucket is considered
    /// "worst-offending" and a split/merge restructure is attempted.
    pub split_qerror: f64,
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self {
            damping: 0.5,
            min_qerror: 1.05,
            max_step_fraction: 0.25,
            split_qerror: 2.0,
        }
    }
}

/// Why a tune step was skipped (all skips leave the histogram
/// untouched; they feed the `tune_skipped_total` counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneSkip {
    /// Estimate or actual was not a finite non-negative number.
    NonFinite,
    /// Q-error below [`TuneConfig::min_qerror`]: nothing to learn.
    NegligibleError,
    /// The histogram carries no mass to redistribute.
    ZeroMass,
    /// Fewer than two buckets: no partner to conserve mass against.
    NoPartner,
    /// The bounded, quantised step rounded to zero mass moved.
    StepRoundsToZero,
}

impl TuneSkip {
    /// Stable label for metrics and daemon traces.
    pub fn reason(self) -> &'static str {
        match self {
            TuneSkip::NonFinite => "non_finite",
            TuneSkip::NegligibleError => "negligible_error",
            TuneSkip::ZeroMass => "zero_mass",
            TuneSkip::NoPartner => "no_partner",
            TuneSkip::StepRoundsToZero => "step_rounds_to_zero",
        }
    }
}

/// The tuned histogram parts plus what the step did. Field layout
/// mirrors the stored catalog form so callers can reassemble a
/// histogram without further translation.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneDelta {
    /// New per-bucket averages.
    pub bucket_avgs: Vec<u64>,
    /// New default (unlisted) bucket index.
    pub default_bucket: u32,
    /// New `(value, bucket)` exception list, still strictly sorted.
    pub exceptions: Vec<(u64, u32)>,
    /// New per-bucket value spans, parallel to `bucket_avgs`.
    pub bounds: Vec<ValueBounds>,
    /// Frequency mass moved between buckets (exactly conserved).
    pub mass_moved: u64,
    /// Q-error of the observation before the step.
    pub qerror_pre: f64,
    /// Q-error the hit bucket's *new* average would produce against the
    /// same observation (the predicted post-step error).
    pub qerror_post: f64,
    /// Whether a split/merge restructure ran in addition to the
    /// frequency transfer.
    pub restructured: bool,
}

/// Q-error of an (estimate, actual) pair, clamped to `≥ 1`.
fn qerror(estimate: f64, actual: f64) -> f64 {
    let e = estimate.max(1e-9);
    let a = actual.max(1e-9);
    (e / a).max(a / e)
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Total frequency mass of a histogram in parts: `Σ avg_b · distinct_b`.
/// This is the conserved quantity of every tune step.
pub fn total_mass(bucket_avgs: &[u64], bounds: &[ValueBounds]) -> u128 {
    bucket_avgs
        .iter()
        .zip(bounds)
        .map(|(&avg, b)| avg as u128 * b.distinct as u128)
        .sum()
}

/// One bounded, mass-conserving tune step.
///
/// `estimate` and `actual` are one feedback observation for an
/// equality-shaped predicate answered by this histogram; `beta` is the
/// bucket budget the histogram was built under (its spec's bucket
/// count; pass the current bucket count when no spec was recorded).
///
/// Returns the tuned parts, or the typed reason nothing changed.
#[allow(clippy::too_many_arguments)] // the four slices ARE the stored histogram
pub fn tune_step(
    bucket_avgs: &[u64],
    default_bucket: u32,
    exceptions: &[(u64, u32)],
    bounds: &[ValueBounds],
    estimate: f64,
    actual: f64,
    beta: usize,
    cfg: &TuneConfig,
) -> Result<TuneDelta, TuneSkip> {
    if !estimate.is_finite() || !actual.is_finite() || estimate < 0.0 || actual < 0.0 {
        return Err(TuneSkip::NonFinite);
    }
    let q_pre = qerror(estimate, actual);
    if q_pre < cfg.min_qerror {
        return Err(TuneSkip::NegligibleError);
    }
    let n = bucket_avgs.len();
    if n < 2 {
        return Err(TuneSkip::NoPartner);
    }
    let total = total_mass(bucket_avgs, bounds);
    if total == 0 {
        return Err(TuneSkip::ZeroMass);
    }

    // The bucket the observation hit: for an equality predicate the
    // estimate *is* some bucket's stored average, so nearest-average
    // recovers it exactly; ties resolve to the lowest index so the
    // step is deterministic.
    let hit = (0..n)
        .min_by(|&a, &b| {
            let da = (bucket_avgs[a] as f64 - estimate).abs();
            let db = (bucket_avgs[b] as f64 - estimate).abs();
            da.partial_cmp(&db).unwrap().then(a.cmp(&b))
        })
        .expect("n >= 2");
    let d_hit = bounds[hit].distinct as u128;
    if d_hit == 0 {
        return Err(TuneSkip::ZeroMass);
    }

    // Damped target for the hit bucket, expressed as a signed mass
    // delta, bounded by the per-step fraction of total mass.
    let avg_hit = bucket_avgs[hit] as f64;
    let target = avg_hit + cfg.damping * (actual - avg_hit);
    let desired = ((target - avg_hit) * d_hit as f64).round();
    let cap = (cfg.max_step_fraction * total as f64).floor();
    let desired_abs = desired.abs().min(cap);
    if desired_abs < 1.0 {
        return Err(TuneSkip::StepRoundsToZero);
    }
    let desired_mass = desired_abs as u128;
    let gaining = desired > 0.0;

    // Partner search: mass moves between the hit bucket and exactly one
    // partner, in units of lcm(d_hit, d_j) — the smallest quantum both
    // integer averages can absorb exactly. Pick the partner that can
    // realise the most of the desired transfer; ties go to the smaller
    // quantum, then the lower index.
    let mut best: Option<(usize, u128, u128)> = None; // (j, unit L, moved)
    for j in 0..n {
        if j == hit {
            continue;
        }
        let d_j = bounds[j].distinct as u128;
        if d_j == 0 {
            continue;
        }
        let g = gcd(d_hit, d_j);
        let Some(l) = (d_hit / g).checked_mul(d_j) else {
            continue;
        };
        // k transfers of L mass each; the losing side caps k.
        let k_desired = desired_mass / l;
        let k_cap = if gaining {
            // Partner loses k·(L/d_j) average units.
            (bucket_avgs[j] as u128) / (l / d_j)
        } else {
            (bucket_avgs[hit] as u128) / (l / d_hit)
        };
        let k = k_desired.min(k_cap);
        let moved = k * l;
        if moved == 0 {
            continue;
        }
        let better = match best {
            None => true,
            Some((bj, bl, bmoved)) => {
                moved > bmoved || (moved == bmoved && (l < bl || (l == bl && j < bj)))
            }
        };
        if better {
            best = Some((j, l, moved));
        }
    }
    let Some((partner, l, moved)) = best else {
        return Err(TuneSkip::StepRoundsToZero);
    };

    let mut avgs = bucket_avgs.to_vec();
    let mut bounds = bounds.to_vec();
    let mut exceptions = exceptions.to_vec();
    let mut default_bucket = default_bucket;
    let du_hit = (l / d_hit) as u64 * (moved / l) as u64;
    let du_partner = (l / bounds[partner].distinct as u128) as u64 * (moved / l) as u64;
    if gaining {
        avgs[hit] += du_hit;
        avgs[partner] -= du_partner;
    } else {
        avgs[hit] -= du_hit;
        avgs[partner] += du_partner;
    }
    let q_post = qerror(avgs[hit] as f64, actual);

    // Restructure: past the split threshold, give the worst-offending
    // bucket more resolution by splitting it at its median member —
    // paying for the new bucket by merging the most-similar adjacent
    // pair when the histogram is already at its β budget. Restructuring
    // is best-effort: any condition it cannot meet exactly (default
    // bucket hit, residual mass with no singleton sink, member/distinct
    // disagreement) skips it, keeping the frequency transfer above.
    let mut restructured = false;
    if q_pre >= cfg.split_qerror {
        restructured = try_restructure(
            &mut avgs,
            &mut default_bucket,
            &mut exceptions,
            &mut bounds,
            hit,
            beta,
        );
    }

    Ok(TuneDelta {
        bucket_avgs: avgs,
        default_bucket,
        exceptions,
        bounds,
        mass_moved: moved as u64,
        qerror_pre: q_pre,
        qerror_post: q_post,
        restructured,
    })
}

/// Splits bucket `hit` at its median listed member, merging the
/// most-similar adjacent non-default pair first if the bucket count is
/// already at `beta`. Returns whether anything changed; `false` leaves
/// every part exactly as passed in.
fn try_restructure(
    avgs: &mut Vec<u64>,
    default_bucket: &mut u32,
    exceptions: &mut [(u64, u32)],
    bounds: &mut Vec<ValueBounds>,
    hit: usize,
    beta: usize,
) -> bool {
    // Only non-default buckets list their members, and only a listed
    // membership can be split exactly.
    if hit == *default_bucket as usize {
        return false;
    }
    let members: Vec<u64> = exceptions
        .iter()
        .filter(|&&(_, b)| b as usize == hit)
        .map(|&(v, _)| v)
        .collect();
    if members.len() < 2 || members.len() as u64 != bounds[hit].distinct {
        return false;
    }
    let budget = beta.max(avgs.len());
    let mut hit = hit;
    if avgs.len() + 1 > budget {
        // At budget: merge first. Candidates are pairs adjacent in
        // value order (so the union span stays disjoint from everyone
        // else), excluding the default bucket and the bucket being
        // split. The pair with the closest averages loses the least
        // information; any division remainder needs a singleton bucket
        // to land on exactly.
        let mut order: Vec<usize> = (0..avgs.len()).collect();
        order.sort_by_key(|&b| (bounds[b].lo, bounds[b].hi));
        let mut pick: Option<(usize, usize, u64)> = None; // (p, q, |avg diff|)
        for w in order.windows(2) {
            let (p, q) = (w[0], w[1]);
            if p == *default_bucket as usize
                || q == *default_bucket as usize
                || p == hit
                || q == hit
            {
                continue;
            }
            let diff = avgs[p].abs_diff(avgs[q]);
            if pick.is_none() || diff < pick.unwrap().2 {
                pick = Some((p, q, diff));
            }
        }
        let Some((p, q, _)) = pick else {
            return false;
        };
        let (dp, dq) = (bounds[p].distinct as u128, bounds[q].distinct as u128);
        if dp == 0 || dq == 0 {
            return false;
        }
        let mass = avgs[p] as u128 * dp + avgs[q] as u128 * dq;
        let merged_avg = (mass / (dp + dq)) as u64;
        let residual = (mass % (dp + dq)) as u64;
        // Exact conservation: the division remainder must land on a
        // singleton bucket (one distinct value absorbs any integer
        // mass exactly).
        let sink = (0..avgs.len())
            .find(|&s| s != p && s != q && bounds[s].distinct == 1 && bounds[s].lo != bounds[s].hi);
        if residual != 0 && sink.is_none() {
            return false;
        }
        let (keep, drop) = (p.min(q), p.max(q));
        avgs[keep] = merged_avg;
        bounds[keep] = ValueBounds {
            lo: bounds[p].lo.min(bounds[q].lo),
            hi: bounds[p].hi.max(bounds[q].hi),
            distinct: (dp + dq) as u64,
        };
        if residual != 0 {
            avgs[sink.expect("checked above")] += residual;
        }
        avgs.remove(drop);
        bounds.remove(drop);
        for (_, b) in exceptions.iter_mut() {
            let bi = *b as usize;
            if bi == drop {
                *b = keep as u32;
            } else if bi > drop {
                *b = (bi - 1) as u32;
            }
        }
        let db = *default_bucket as usize;
        if db > drop {
            *default_bucket = (db - 1) as u32;
        }
        if hit > drop {
            hit -= 1;
        }
    }
    // Split at the median member: the left half keeps the bucket index
    // (and average), the right half becomes a new bucket appended at
    // the end. Same average on both halves conserves mass exactly
    // (d_left + d_right = d), and sub-spans of the original span stay
    // disjoint from every other bucket.
    let members: Vec<u64> = exceptions
        .iter()
        .filter(|&&(_, b)| b as usize == hit)
        .map(|&(v, _)| v)
        .collect();
    let mid = members.len() / 2;
    let (left, right) = members.split_at(mid);
    let new_index = avgs.len() as u32;
    avgs.push(avgs[hit]);
    let old = bounds[hit];
    bounds[hit] = ValueBounds {
        lo: old.lo,
        hi: left[left.len() - 1] + 1,
        distinct: left.len() as u64,
    };
    bounds.push(ValueBounds {
        lo: right[0],
        hi: old.hi,
        distinct: right.len() as u64,
    });
    for (v, b) in exceptions.iter_mut() {
        if *b as usize == hit && *v >= right[0] {
            *b = new_index;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn singleton(v: u64) -> ValueBounds {
        ValueBounds {
            lo: v,
            hi: v + 1,
            distinct: 1,
        }
    }

    /// Bucket averages, default bucket, exceptions, and bucket bounds.
    type Parts = (Vec<u64>, u32, Vec<(u64, u32)>, Vec<ValueBounds>);

    /// A typical end-biased shape: two singleton exceptions plus a wide
    /// default bucket.
    fn end_biased_parts() -> Parts {
        (
            vec![50, 30, 4],
            2,
            vec![(0, 0), (1, 1)],
            vec![
                singleton(0),
                singleton(1),
                ValueBounds {
                    lo: 2,
                    hi: 12,
                    distinct: 10,
                },
            ],
        )
    }

    #[test]
    fn step_moves_hit_bucket_toward_actual_and_conserves_mass() {
        let (avgs, def, exc, bounds) = end_biased_parts();
        let before = total_mass(&avgs, &bounds);
        // The estimate 50 pinpoints bucket 0; truth is 80.
        let delta = tune_step(
            &avgs,
            def,
            &exc,
            &bounds,
            50.0,
            80.0,
            3,
            &TuneConfig::default(),
        )
        .expect("tunes");
        assert_eq!(total_mass(&delta.bucket_avgs, &delta.bounds), before);
        assert!(delta.bucket_avgs[0] > 50, "{:?}", delta.bucket_avgs);
        assert!(delta.qerror_post < delta.qerror_pre);
        assert!(delta.mass_moved > 0);
    }

    #[test]
    fn overestimate_shrinks_the_hit_bucket() {
        let (avgs, def, exc, bounds) = end_biased_parts();
        let before = total_mass(&avgs, &bounds);
        let delta = tune_step(
            &avgs,
            def,
            &exc,
            &bounds,
            50.0,
            20.0,
            3,
            &TuneConfig::default(),
        )
        .expect("tunes");
        assert!(delta.bucket_avgs[0] < 50);
        assert_eq!(total_mass(&delta.bucket_avgs, &delta.bounds), before);
    }

    #[test]
    fn negligible_error_skips() {
        let (avgs, def, exc, bounds) = end_biased_parts();
        assert_eq!(
            tune_step(
                &avgs,
                def,
                &exc,
                &bounds,
                50.0,
                51.0,
                3,
                &TuneConfig::default()
            ),
            Err(TuneSkip::NegligibleError)
        );
    }

    #[test]
    fn non_finite_and_degenerate_inputs_skip() {
        let (avgs, def, exc, bounds) = end_biased_parts();
        let cfg = TuneConfig::default();
        assert_eq!(
            tune_step(&avgs, def, &exc, &bounds, f64::NAN, 1.0, 3, &cfg),
            Err(TuneSkip::NonFinite)
        );
        assert_eq!(
            tune_step(&[7], 0, &[], &[singleton(1)], 7.0, 70.0, 1, &cfg),
            Err(TuneSkip::NoPartner)
        );
        assert_eq!(
            tune_step(
                &[0, 0],
                0,
                &[(5, 1)],
                &[singleton(3), singleton(5)],
                1.0,
                100.0,
                2,
                &cfg
            ),
            Err(TuneSkip::ZeroMass)
        );
    }

    #[test]
    fn repeated_steps_converge_on_a_stationary_observation() {
        let (mut avgs, def, exc, mut bounds) = end_biased_parts();
        let before = total_mass(&avgs, &bounds);
        let cfg = TuneConfig::default();
        let mut q = f64::INFINITY;
        for _ in 0..12 {
            let est = avgs[0] as f64;
            match tune_step(&avgs, def, &exc, &bounds, est, 80.0, 3, &cfg) {
                Ok(d) => {
                    let q_now = d.qerror_pre;
                    assert!(q_now <= q + 1e-9, "q went {q} -> {q_now}");
                    q = q_now;
                    avgs = d.bucket_avgs;
                    bounds = d.bounds;
                }
                Err(TuneSkip::NegligibleError) | Err(TuneSkip::StepRoundsToZero) => break,
                Err(e) => panic!("unexpected skip {e:?}"),
            }
        }
        assert_eq!(total_mass(&avgs, &bounds), before);
        // Converged into the dead zone around the truth.
        let q_final = (avgs[0] as f64 / 80.0).max(80.0 / avgs[0] as f64);
        assert!(q_final < 1.3, "final avg {} q {q_final}", avgs[0]);
    }

    #[test]
    fn split_keeps_count_within_budget_and_conserves_mass() {
        // Four singletons listed, wide default; budget 5 allows a split
        // of a 2-member bucket... so build one: bucket 0 holds values
        // {0, 1}, bucket 1 is the default.
        let avgs = vec![40u64, 6];
        let bounds = vec![
            ValueBounds {
                lo: 0,
                hi: 2,
                distinct: 2,
            },
            ValueBounds {
                lo: 2,
                hi: 10,
                distinct: 8,
            },
        ];
        let exc = vec![(0u64, 0u32), (1, 0)];
        let cfg = TuneConfig::default();
        let before = total_mass(&avgs, &bounds);
        // Large error (q = 4) triggers the restructure path.
        let delta = tune_step(&avgs, 1, &exc, &bounds, 40.0, 160.0, 4, &cfg).expect("tunes");
        assert!(delta.restructured);
        assert!(delta.bucket_avgs.len() <= 4);
        assert_eq!(total_mass(&delta.bucket_avgs, &delta.bounds), before);
        // Halves are disjoint and ordered.
        let b = &delta.bounds;
        assert!(b[0].hi <= b[2].lo);
        assert_eq!(b[0].distinct + b[2].distinct, 2);
        // Exceptions re-point at the halves.
        assert_eq!(delta.exceptions, vec![(0, 0), (1, 2)]);
    }

    #[test]
    fn at_budget_split_merges_most_similar_pair_first() {
        // β = 3, already 3 buckets: splitting bucket 0 must merge the
        // adjacent singletons 1 and 2 (equal averages ⇒ no residual).
        let avgs = vec![40u64, 7, 7];
        let bounds = vec![
            ValueBounds {
                lo: 0,
                hi: 2,
                distinct: 2,
            },
            singleton(5),
            singleton(6),
        ];
        let exc = vec![(0u64, 0u32), (1, 0), (5, 1), (6, 2)];
        // Default is none of the above participants... there is no
        // fourth bucket, so make bucket 1 default: then (1,2) is
        // excluded and no merge pair exists — expect no restructure.
        let cfg = TuneConfig::default();
        let before = total_mass(&avgs, &bounds);
        let d = tune_step(&avgs, 1, &exc, &bounds, 40.0, 160.0, 3, &cfg).expect("tunes");
        assert!(!d.restructured);
        assert_eq!(total_mass(&d.bucket_avgs, &d.bounds), before);

        // With a separate default bucket the merge+split goes through.
        let avgs = vec![40u64, 7, 7, 3];
        let bounds = vec![
            ValueBounds {
                lo: 0,
                hi: 2,
                distinct: 2,
            },
            singleton(5),
            singleton(6),
            ValueBounds {
                lo: 8,
                hi: 20,
                distinct: 12,
            },
        ];
        let exc = vec![(0u64, 0u32), (1, 0), (5, 1), (6, 2)];
        let before = total_mass(&avgs, &bounds);
        let d = tune_step(&avgs, 3, &exc, &bounds, 40.0, 160.0, 4, &cfg).expect("tunes");
        assert!(d.restructured);
        assert_eq!(d.bucket_avgs.len(), 4);
        assert_eq!(total_mass(&d.bucket_avgs, &d.bounds), before);
        // The two singletons merged into one 2-distinct bucket.
        assert!(d
            .bounds
            .iter()
            .any(|b| b.lo == 5 && b.hi == 7 && b.distinct == 2));
    }
}
