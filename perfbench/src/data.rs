//! Generated inputs: the relations, the query lists and the op stream of
//! one round. Everything here is a pure function of the workload seed
//! (and of a fixed data seed), so two runs with one seed hand the
//! program identical inputs.

use freqdist::zipf::zipf_frequencies;
use freqdist::FrequencySet;
use relstore::generate::relation_from_frequency_set;
use relstore::Relation;
use std::collections::HashSet;

/// Relations per data set (`t0` … `t7`), one column each.
pub const RELATIONS: usize = 8;
/// Rows per relation.
pub const ROWS: u64 = 200_000;
/// The single column every relation carries.
pub const COLUMN: &str = "v";
/// Distinct values per relation.
pub const DISTINCT: usize = 1024;

/// One SplitMix64 step: the benchmark's only PRNG.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    splitmix64(state) % n
}

/// Folds one word into an FNV-1a digest byte by byte, so the digest
/// certifies bit-identical estimates.
pub fn fnv1a(digest: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(digest, |d, &b| {
        (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Seed of the data set and of the accuracy sample. It is fixed, not
/// taken from `--seed`: how well a histogram estimates joins depends on
/// which values of two relations share high frequencies, and with one
/// random arrangement per seed the Q-error p90 moved by half from seed
/// to seed. The workload seed picks the queries and the op stream.
pub const DATA_SEED: u64 = 0x1995_0522;

/// The data set: relation `ti` holds `ROWS` rows over `DISTINCT` values
/// with Zipf skew `0.5 + 0.2·i` (0.5 … 1.9), its frequencies arranged
/// over the values in a random order and its tuples shuffled.
pub fn relations() -> Vec<Relation> {
    (0..RELATIONS)
        .map(|i| {
            let skew = 0.5 + 0.2 * i as f64;
            let mut freqs = zipf_frequencies(ROWS, DISTINCT, skew)
                .expect("valid Zipf parameters")
                .as_slice()
                .to_vec();
            let mut state = DATA_SEED ^ (i as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f);
            for k in (1..freqs.len()).rev() {
                let j = below(&mut state, k as u64 + 1) as usize;
                freqs.swap(k, j);
            }
            relation_from_frequency_set(
                format!("t{i}"),
                COLUMN,
                &FrequencySet::new(freqs),
                splitmix64(&mut state),
            )
            .expect("generated relation is well formed")
        })
        .collect()
}

/// The predicate shapes the workloads mix, by table index and constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// `ti.v = c`
    Eq { t: usize, c: u64 },
    /// `ti.v < c`
    Lt { t: usize, c: u64 },
    /// `ti.v BETWEEN lo AND hi`
    Between { t: usize, lo: u64, hi: u64 },
    /// `tl.v = tr.v AND tl.v < c`
    JoinFilter { l: usize, r: usize, c: u64 },
    /// `abs(tl.v - tr.v) <= w AND tl.v < c`
    Band { l: usize, r: usize, w: u64, c: u64 },
}

/// One generated query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Its shape and constants.
    pub shape: Shape,
    /// Its SQL text, as the program receives it.
    pub sql: String,
}

impl Query {
    fn new(shape: Shape) -> Query {
        let sql = match shape {
            Shape::Eq { t, c } => format!("SELECT COUNT(*) FROM t{t} WHERE t{t}.v = {c}"),
            Shape::Lt { t, c } => format!("SELECT COUNT(*) FROM t{t} WHERE t{t}.v < {c}"),
            Shape::Between { t, lo, hi } => {
                format!("SELECT COUNT(*) FROM t{t} WHERE t{t}.v BETWEEN {lo} AND {hi}")
            }
            Shape::JoinFilter { l, r, c } => {
                format!("SELECT COUNT(*) FROM t{l}, t{r} WHERE t{l}.v = t{r}.v AND t{l}.v < {c}")
            }
            Shape::Band { l, r, w, c } => format!(
                "SELECT COUNT(*) FROM t{l}, t{r} WHERE abs(t{l}.v - t{r}.v) <= {w} AND t{l}.v < {c}"
            ),
        };
        Query { shape, sql }
    }

    /// Whether `Engine::execute` counts it cheaply. Band joins are
    /// excluded: execution materialises the band join, which on this
    /// skew runs to billions of rows.
    pub fn executes_cheaply(&self) -> bool {
        !matches!(self.shape, Shape::Band { .. })
    }
}

/// `n` distinct queries over the data set. Query `k`
/// has shape `k mod 5` and its tables follow from `k` too, so every seed
/// gets the same mix of shapes and tables; the seed picks the constants. The list for a smaller `n` is a prefix of
/// the list for a larger one.
pub fn queries(seed: u64, n: usize) -> Vec<Query> {
    let m = DISTINCT as u64;
    let mut state = seed ^ 0x5151_7a7a_0f0f_3c3c;
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let k = out.len();
        let t = (k / 5) % RELATIONS;
        let other = (t + 1 + (k / (5 * RELATIONS)) % (RELATIONS - 1)) % RELATIONS;
        let c = below(&mut state, m);
        let shape = match k % 5 {
            0 => Shape::Eq { t, c },
            1 => Shape::Lt { t, c: c.max(1) },
            2 => Shape::Between {
                t,
                lo: c,
                hi: c + 1 + below(&mut state, m / 4),
            },
            3 => Shape::JoinFilter {
                l: t,
                r: other,
                c: c.max(1),
            },
            _ => Shape::Band {
                l: t,
                r: other,
                w: 1 + below(&mut state, 3),
                c: c.max(1),
            },
        };
        if seen.insert(shape) {
            out.push(Query::new(shape));
        }
    }
    out
}

/// Exact result sizes of generated queries, from the value counts of
/// the relations (over the canonical domain `0..DISTINCT`).
pub struct Exact {
    /// `prefix[t][v]`: rows of `t` with a value below `v`.
    prefix: Vec<Vec<u64>>,
}

impl Exact {
    /// Counts every value of every relation.
    pub fn new(relations: &[Relation]) -> Exact {
        let prefix = relations
            .iter()
            .map(|r| {
                let mut freq = vec![0u64; DISTINCT];
                for &v in r.column_by_name(COLUMN).expect("generated column") {
                    freq[v as usize] += 1;
                }
                std::iter::once(0)
                    .chain(freq.iter().scan(0, |acc, f| {
                        *acc += f;
                        Some(*acc)
                    }))
                    .collect()
            })
            .collect();
        Exact { prefix }
    }

    /// Rows of `t` with a value in `lo..hi` (clamped to the domain).
    fn rows(&self, t: usize, lo: u64, hi: u64) -> u64 {
        let p = &self.prefix[t];
        let clamp = |v: u64| (v as usize).min(p.len() - 1);
        p[clamp(hi)] - p[clamp(lo.min(hi))]
    }

    /// The exact `COUNT(*)` of `q`.
    pub fn count(&self, q: &Query) -> u128 {
        let freq = |t: usize, v: u64| u128::from(self.rows(t, v, v + 1));
        match q.shape {
            Shape::Eq { t, c } => freq(t, c),
            Shape::Lt { t, c } => u128::from(self.rows(t, 0, c)),
            Shape::Between { t, lo, hi } => u128::from(self.rows(t, lo, hi + 1)),
            Shape::JoinFilter { l, r, c } => (0..c).map(|v| freq(l, v) * freq(r, v)).sum(),
            Shape::Band { l, r, w, c } => (0..c)
                .map(|v| freq(l, v) * u128::from(self.rows(r, v.saturating_sub(w), v + w + 1)))
                .sum(),
        }
    }
}

/// One step of a workload's op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Estimate query `i` of the workload's list.
    Estimate(u32),
    /// Durable single-column ANALYZE of relation `t`.
    Analyze(u8),
}

/// Times each pool query is estimated in one `hot`/`wire` round.
const HOT_REPEATS: usize = 64;
/// Estimates between two ANALYZEs in `churn`.
pub const CHURN_PERIOD: usize = 2000;
/// The ops of one round of `hot` and `wire`: every pool query
/// `HOT_REPEATS` times, in a seeded order. Read-only.
pub fn hot_round(seed: u64, pool: usize) -> Vec<Op> {
    let mut state = seed ^ 0x0123_4567_89ab_cdef;
    let mut ops: Vec<Op> = (0..pool * HOT_REPEATS)
        .map(|k| Op::Estimate((k % pool) as u32))
        .collect();
    for k in (1..ops.len()).rev() {
        let j = below(&mut state, k as u64 + 1) as usize;
        ops.swap(k, j);
    }
    ops
}

/// The ops of one round of `churn`: for each relation in turn,
/// `CHURN_PERIOD` estimates drawn uniformly from the whole query list,
/// then an ANALYZE of that relation. Every query is equally likely, so
/// the working set is the full list, 16 times the cache, and most
/// estimates miss.
pub fn churn_round(seed: u64, queries: usize) -> Vec<Op> {
    let mut state = seed ^ 0x0fed_cba9_8765_4321;
    let mut ops = Vec::with_capacity(RELATIONS * (CHURN_PERIOD + 1));
    for t in 0..RELATIONS {
        for _ in 0..CHURN_PERIOD {
            ops.push(Op::Estimate(below(&mut state, queries as u64) as u32));
        }
        ops.push(Op::Analyze(t as u8));
    }
    ops
}
