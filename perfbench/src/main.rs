//! End-to-end and per-layer benchmark of the statistics service.
//!
//! ```text
//! perfbench --workload hot|churn|wire --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is closed-loop with one client thread: an optimizer
//! waits for each estimate before it asks the next. The benchmark makes
//! the queries and op stream from `--seed` (the relations from a fixed
//! data seed), hands them to the program through its public calls,
//! times those calls from outside, checks the
//! outputs and prints one JSON object as the last line of stdout. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! records its own spans around the same calls and reports per-layer
//! metrics. See `README.md` beside this file.

mod data;
mod service;
mod trace;

use data::{Op, Query, Shape, COLUMN, FNV_OFFSET, RELATIONS};
use engine::{Engine, EstimateRung, StatsUse};
use netserve::proto::read_frame;
use netserve::{Request, Response, Tenant, TenantConfig};
use relstore::catalog::StatKey;
use relstore::codec::encode_catalog;
use relstore::stats::frequency_table;
use relstore::{Catalog, Relation};
use service::{cache_hits, Local, Wire, BUCKETS, NO_TICK, SPEC, TENANT};
use std::collections::HashSet;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{quantile, quantile_f64, Phase, Tracer};
use vopt_hist::BuilderSpec;

/// Segments (set-ups) per untraced run; `setup_s` is their median.
const SEGMENTS: usize = 14;
/// Queries whose estimates are compared with exact counts. The sample
/// is generated from the fixed data seed, not from `--seed`: the
/// Q-error percentiles then depend only on the program, and a change
/// that costs accuracy shows on every seed.
const QERROR_QUERIES: usize = 16_384;
/// Exact counts cross-checked against `Engine::execute`.
const EXECUTE_CHECK: usize = 32;
/// Queries compared cached against uncached after the timed phase.
const CACHE_CHECK_SAMPLE: usize = 256;
/// Queries each side probe runs.
const PROBE_SAMPLE: usize = 64;
/// Passes of each side probe over its sample.
const PROBE_PASSES: usize = 8;
/// Spans written to the trace file.
const SPAN_FILE_LIMIT: usize = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Hot,
    Churn,
    Wire,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "hot" => Ok(Workload::Hot),
            "churn" => Ok(Workload::Churn),
            "wire" => Ok(Workload::Wire),
            other => Err(format!("unknown workload {other:?} (hot, churn, wire)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::Churn => "churn",
            Workload::Wire => "wire",
        }
    }

    /// Queries in the workload's list.
    fn queries(self) -> usize {
        match self {
            Workload::Churn => 16_384,
            _ => 64,
        }
    }

    fn round(self, seed: u64, queries: &[Query]) -> Vec<Op> {
        match self {
            Workload::Hot | Workload::Wire => data::hot_round(seed, queries.len()),
            Workload::Churn => data::churn_round(seed, queries.len()),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    // One CPU for the whole process, before any thread starts: the
    // wire client and server threads then hand off on one CPU instead
    // of waking an idle one, whose wake-up latency follows host load.
    if let Err(e) = pin_to_one_cpu() {
        eprintln!("perfbench: not pinned to one CPU: {e}");
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = WorkDir::create(&work).and_then(|dir| run(&args, &dir));
    match result {
        Ok(report) => println!("{}", report.json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Restricts this thread, and every thread it starts later, to the
/// first CPU it may run on.
fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable 128-byte CPU set and exactly its size
    // is passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    let cpu = (0..mask.len() * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU set")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable 128-byte CPU set and exactly its size
    // is passed; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(())
}

/// The run's scratch directory inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(path: &Path) -> Result<WorkDir, String> {
        let _ = std::fs::remove_dir_all(path);
        std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir(path.to_path_buf()))
    }

    fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The result line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The service under test, reached in-process or over VOHW.
enum Service {
    Local(Local),
    Wire(Wire),
}

impl Service {
    fn setup(workload: Workload, dir: &Path, relations: Vec<Relation>) -> Result<Service, String> {
        match workload {
            Workload::Wire => Wire::setup(dir, &relations).map(Service::Wire),
            _ => Local::setup(dir, relations).map(Service::Local),
        }
    }

    /// The root span name of one estimate op.
    fn op_span(&self) -> &'static str {
        match self {
            Service::Local(_) => "op",
            Service::Wire(_) => "wire_op",
        }
    }

    fn estimate(&mut self, sql: &str) -> Result<(f64, Vec<StatsUse>), String> {
        match self {
            Service::Local(l) => l.estimate(sql),
            Service::Wire(w) => w.estimate(sql),
        }
    }

    fn estimate_traced(
        &mut self,
        sql: &str,
        tr: &mut Tracer,
        op: u64,
    ) -> Result<(f64, Vec<StatsUse>), String> {
        let root = tr.open(self.op_span(), op, None);
        let out = match self {
            Service::Local(l) => l.estimate_traced(sql, tr, op, Some(root)),
            Service::Wire(w) => w.estimate_traced(sql, tr, op, Some(root)),
        };
        tr.close(root);
        out
    }

    fn analyze(&mut self, t: usize, tr: Option<(&mut Tracer, u64)>) -> Result<(), String> {
        let Service::Local(l) = self else {
            return Err("the wire workload is read-only".to_string());
        };
        match tr {
            None => l.analyze(t),
            Some((tr, op)) => {
                let root = tr.open("analyze", op, None);
                let out = l.analyze_traced(t, tr, op, Some(root));
                tr.close(root);
                out
            }
        }
    }

    fn epoch(&mut self) -> Result<u64, String> {
        match self {
            Service::Local(l) => Ok(l.engine.catalog().epoch()),
            Service::Wire(w) => w.epoch(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No spans, observability on: the end-to-end path.
    Plain,
    /// Spans around every public call.
    Traced,
    /// `obs::set_enabled(false)`, for the observability cost.
    ObsOff,
}

/// Latency samples of one mode, summarised per window: a window is
/// one round, or the ANALYZEs after a segment. Each vCPU of the host
/// switches between two speeds every second or two, so one percentile
/// over a whole run would jump between the two speeds' values as their
/// mix crosses a half; the mean of the rounds' estimate percentiles
/// follows the mix smoothly. A window of ANALYZEs holds one to eight
/// samples, so one slow journal write would move a mean: ANALYZE
/// windows are summarised by their median.
#[derive(Default)]
struct Samples {
    /// Raw samples of the open window.
    estimate_ns: Vec<u64>,
    analyze_ns: Vec<u64>,
    /// Percentiles of every closed window.
    estimate_p50: Vec<f64>,
    estimate_p90: Vec<f64>,
    analyze_p50: Vec<f64>,
}

impl Samples {
    /// Closes the open window: its percentiles are kept, its raw
    /// samples dropped.
    fn close_window(&mut self) {
        if !self.estimate_ns.is_empty() {
            self.estimate_p50.push(quantile(&self.estimate_ns, 0.5));
            self.estimate_p90.push(quantile(&self.estimate_ns, 0.9));
            self.estimate_ns.clear();
        }
        if !self.analyze_ns.is_empty() {
            self.analyze_p50.push(quantile(&self.analyze_ns, 0.5));
            self.analyze_ns.clear();
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// What one round returned besides latencies.
#[derive(Default)]
struct RoundOut {
    /// Estimate bits in op order (`u64::MAX` for a failed op).
    bits: Vec<u64>,
    /// Statistics lookups answered on the `spec` rung, and all lookups.
    spec_lookups: u64,
    lookups: u64,
    estimates: u64,
    analyzes: u64,
    failed: u64,
}

fn run_round(
    svc: &mut Service,
    ops: &[Op],
    queries: &[Query],
    mode: Mode,
    tr: &mut Tracer,
    first_op: u64,
    samples: &mut Samples,
) -> RoundOut {
    let mut out = RoundOut {
        bits: Vec::with_capacity(ops.len()),
        ..RoundOut::default()
    };
    if mode == Mode::ObsOff {
        obs::set_enabled(false);
    }
    for (k, op) in ops.iter().enumerate() {
        let op_id = first_op + k as u64;
        match *op {
            Op::Estimate(i) => {
                let sql = &queries[i as usize].sql;
                let t = Instant::now();
                let result = if mode == Mode::Traced {
                    svc.estimate_traced(sql, tr, op_id)
                } else {
                    svc.estimate(sql)
                };
                let ns = t.elapsed().as_nanos() as u64;
                out.estimates += 1;
                match result {
                    Ok((estimate, sources)) => {
                        samples.estimate_ns.push(ns);
                        out.bits.push(estimate.to_bits());
                        out.lookups += sources.len() as u64;
                        out.spec_lookups += sources
                            .iter()
                            .filter(|s| s.rung == EstimateRung::Spec)
                            .count() as u64;
                    }
                    Err(_) => {
                        out.failed += 1;
                        out.bits.push(u64::MAX);
                    }
                }
            }
            Op::Analyze(t) => {
                let start = Instant::now();
                let result = if mode == Mode::Traced {
                    svc.analyze(t as usize, Some((tr, op_id)))
                } else {
                    svc.analyze(t as usize, None)
                };
                let ns = start.elapsed().as_nanos() as u64;
                out.analyzes += 1;
                match result {
                    Ok(()) => samples.analyze_ns.push(ns),
                    Err(_) => out.failed += 1,
                }
            }
        }
    }
    obs::set_enabled(true);
    out
}

/// Process-wide estimation-cache and catalog counters around the first
/// round.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    hits: u64,
    misses: u64,
    evictions: u64,
    epoch: u64,
}

impl Counts {
    fn read(svc: &mut Service) -> Result<Counts, String> {
        Ok(Counts {
            hits: obs::counter("est_cache_hit_total").get(),
            misses: obs::counter("est_cache_miss_total").get(),
            evictions: obs::counter("est_cache_evict_total").get(),
            epoch: svc.epoch()?,
        })
    }
}

fn q_error(estimate: f64, actual: u128) -> f64 {
    let (e, a) = (estimate.max(1.0), (actual as f64).max(1.0));
    (e / a).max(a / e)
}

/// `(Δsteal, Δtotal)` source: the aggregate `cpu` line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// VmHWM of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args, work: &WorkDir) -> Result<Report, String> {
    let w = args.workload;
    let relations = data::relations();
    let queries = &data::queries(args.seed, w.queries())[..];
    let ops = w.round(args.seed, queries);

    // Accuracy is measured on a fixed query sample against exact counts,
    // and the exact counter must agree with `Engine::execute`.
    let sample = data::queries(data::DATA_SEED, QERROR_QUERIES);

    let exact = data::Exact::new(&relations);
    let truths: Vec<u128> = sample.iter().map(|q| exact.count(q)).collect();
    let mut failed = 0u64;
    {
        let mut executor = Engine::new();
        relations.iter().cloned().for_each(|r| executor.register(r));
        for (q, &count) in sample
            .iter()
            .zip(&truths)
            .filter(|(q, _)| q.executes_cheaply())
            .take(EXECUTE_CHECK)
        {
            let executed = executor.parse(&q.sql).and_then(|p| executor.execute(&p));
            if executed.as_ref().ok() != Some(&count) {
                eprintln!(
                    "perfbench: execute gave {executed:?}, exact count {count} for {}",
                    q.sql
                );
                failed += 1;
            }
        }
    }

    // The wire workload keeps an in-process reference over the same
    // data: the digest check replays the op stream on it, and the side
    // probes use it.
    let reference = match w {
        Workload::Wire => Some(Local::setup(&work.sub("reference"), relations.clone())?),
        _ => None,
    };

    // Segments: each sets the service up afresh (one `setup_s` sample:
    // hand-over, durable ANALYZE, warm-up round), then runs whole rounds
    // for its share of `--seconds`. The VM's speed swings last seconds,
    // so spreading set-ups and timed rounds over the run lets every
    // metric average over them. Counts come from the first round alone,
    // so they repeat exactly for one seed.
    let segments = if args.trace { 1 } else { SEGMENTS };
    let modes: &[Mode] = if args.trace {
        &[Mode::Plain, Mode::Traced, Mode::ObsOff]
    } else {
        &[Mode::Plain]
    };
    let share = Duration::from_secs_f64(args.seconds / segments as f64);
    let mut samples: Vec<Samples> = modes.iter().map(|_| Samples::default()).collect();
    let mut tr = Tracer::new();
    let (mut setup_s, mut timed) = (Vec::new(), Duration::ZERO);
    let (mut attempted, mut rounds) = (0u64, 0usize);
    let (mut round0_bits, mut round0) = (Vec::new(), RoundOut::default());
    let mut counts = (Counts::default(), Counts::default());
    let ticks_before = cpu_ticks();
    let mut svc = None;
    for segment in 0..segments {
        drop(svc.take());
        let handed = relations.clone();
        let start = Instant::now();
        let mut s = Service::setup(w, &work.sub(&format!("segment{segment}")), handed)?;
        let warm = run_round(
            &mut s,
            &ops,
            queries,
            Mode::Plain,
            &mut tr,
            0,
            &mut Samples::default(),
        );
        setup_s.push(start.elapsed().as_secs_f64());
        failed += warm.failed;

        let segment_start = Instant::now();
        let mut segment_rounds = 0;
        while segment_rounds < modes.len() || segment_start.elapsed() < share {
            let slot = rounds % modes.len();
            let before = if rounds == 0 {
                Some(Counts::read(&mut s)?)
            } else {
                None
            };
            let t = Instant::now();
            let out = run_round(
                &mut s,
                &ops,
                queries,
                modes[slot],
                &mut tr,
                (rounds * ops.len()) as u64,
                &mut samples[slot],
            );
            timed += t.elapsed();
            samples[slot].close_window();
            attempted += out.estimates + out.analyzes;
            failed += out.failed;
            if let Some(before) = before {
                counts = (before, Counts::read(&mut s)?);
                round0_bits = out.bits.clone();
                round0 = out;
            } else {
                failed += mismatches(&round0_bits, &out.bits);
            }
            rounds += 1;
            segment_rounds += 1;
        }
        // `churn` times the ANALYZE ops of its stream. `hot` and `wire`
        // make none while timed, yet every metric is reported on every
        // workload, so after each segment's timed rounds they ANALYZE
        // their own service. The data is unchanged, so the histograms,
        // and with them the estimates, stay the same.
        if w != Workload::Churn {
            failed += analyze_own_service(&mut s, &mut samples[0]);
            samples[0].close_window();
        }

        svc = Some(s);
    }
    let mut svc = svc.expect("at least one segment");
    let ticks_after = cpu_ticks();
    let digest = round0_bits
        .iter()
        .fold(FNV_OFFSET, |d, &b| data::fnv1a(d, b));
    println!(
        "digest {digest:#018x} rounds {rounds} ops_per_round {}",
        ops.len()
    );

    // Output checks and accuracy. The cache check runs first, before the
    // accuracy sample's estimates fill the cache with entries of their own.
    if let Service::Local(local) = &svc {
        failed += check_cached_equals_uncached(local, &ops, queries);
    }
    let mut qerrors = Vec::with_capacity(truths.len());
    for (q, &actual) in sample.iter().zip(&truths) {
        match svc.estimate(&q.sql) {
            Ok((estimate, _)) => qerrors.push(q_error(estimate, actual)),
            Err(e) => {
                eprintln!("perfbench: q-error estimate failed: {e}");
                failed += 1;
            }
        }
    }
    let catalog_bytes = match (&svc, &reference) {
        (Service::Local(local), _) => {
            let live = encode_catalog(local.engine.catalog());
            failed += check_recovery(&local.dir, &live);
            live.len()
        }
        (Service::Wire(_), Some(local)) => {
            // The same op stream in-process must give the same bits.
            let bits: Vec<u64> = ops
                .iter()
                .filter_map(|op| match *op {
                    Op::Estimate(i) => Some(
                        local
                            .estimate(&queries[i as usize].sql)
                            .map_or(u64::MAX, |(e, _)| e.to_bits()),
                    ),
                    Op::Analyze(_) => None,
                })
                .collect();
            let m = mismatches(&round0_bits, &bits);
            if m > 0 {
                eprintln!("perfbench: {m} wire estimates differ from in-process");
            }
            failed += m;
            encode_catalog(local.engine.catalog()).len()
        }
        (Service::Wire(_), None) => unreachable!("wire keeps a reference"),
    };

    let mut metrics = Vec::new();
    if args.trace {
        let probes = match &mut svc {
            Service::Local(l) => run_probes(work, l, None, &relations, queries, &mut tr),
            Service::Wire(wire) => {
                let l = reference.as_ref().expect("wire keeps a reference");
                run_probes(work, l, Some(wire), &relations, queries, &mut tr)
            }
        }?;
        metrics = per_layer(
            &tr,
            &svc,
            &samples,
            &round0,
            counts,
            &probes,
            ticks_before,
            ticks_after,
        );
        let _ = tr.write_jsonl(
            &PathBuf::from(".bench_work").join(format!("spans-{}-{}.jsonl", w.name(), args.seed)),
            SPAN_FILE_LIMIT,
        );
    }

    // The wire tenant's catalog, recovered after a graceful stop, must
    // equal the in-process reference.
    if let Service::Wire(wire) = svc {
        let tenant_dir = wire.dir.join(TENANT);
        wire.close()?;
        let local = reference.as_ref().expect("wire keeps a reference");
        failed += check_recovery(&tenant_dir, &encode_catalog(local.engine.catalog()));
    }

    if !args.trace {
        let plain = &samples[0];
        metrics = vec![
            ("setup_s", quantile_f64(&setup_s, 0.5), "s"),
            ("ops_per_s", attempted as f64 / timed.as_secs_f64(), "1/s"),
            ("estimate_p50_us", mean(&plain.estimate_p50) / 1e3, "us"),
            ("estimate_p90_us", mean(&plain.estimate_p90) / 1e3, "us"),
            (
                "analyze_p50_ms",
                quantile_f64(&plain.analyze_p50, 0.5) / 1e6,
                "ms",
            ),
            ("qerror_p50", quantile_f64(&qerrors, 0.5), "ratio"),
            ("qerror_p90", quantile_f64(&qerrors, 0.9), "ratio"),
            ("catalog_kib", catalog_bytes as f64 / 1024.0, "KiB"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
    }
    eprintln!(
        "perfbench: workload={} seed={} rounds={rounds} attempted={attempted} failed={failed} timed={:.3}s",
        w.name(),
        args.seed,
        timed.as_secs_f64()
    );
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// After a segment of `hot` or `wire`: `hot` makes `churn`'s
/// single-column durable ANALYZE of every relation; `wire` sends one
/// ANALYZE request, which rebuilds every column of the tenant, and
/// counts its time per column. Returns the number of failures.
fn analyze_own_service(svc: &mut Service, samples: &mut Samples) -> u64 {
    let mut failed = 0;
    let mut outcome = |result: Result<(), String>, ns: u128| match result {
        Ok(()) => samples.analyze_ns.push(ns as u64),
        Err(e) => {
            eprintln!("perfbench: ANALYZE after the segment failed: {e}");
            failed += 1;
        }
    };
    match svc {
        Service::Local(l) => {
            for t in 0..RELATIONS {
                let start = Instant::now();
                let result = l.analyze(t);
                outcome(result, start.elapsed().as_nanos());
            }
        }
        Service::Wire(wire) => {
            let start = Instant::now();
            let result = wire.analyze();
            outcome(result, start.elapsed().as_nanos() / RELATIONS as u128);
        }
    }
    failed
}

/// Ops whose estimate bits differ from the reference round.
fn mismatches(reference: &[u64], bits: &[u64]) -> u64 {
    let differ = reference.iter().zip(bits).filter(|(a, b)| a != b).count();
    (differ + reference.len().abs_diff(bits.len())) as u64
}

/// Cached estimates must equal `estimate_with_sources_uncached` bit for
/// bit, trail included. The op stream's first stretch up to an ANALYZE
/// is replayed first; in `churn` the round ended with an ANALYZE, so the
/// replay misses, inserts and evicts as the timed rounds do. The most
/// recently estimated distinct queries of the replay, up to
/// `CACHE_CHECK_SAMPLE`, are still in the LRU cache: each must be
/// answered from it (the hit counter goes up) and equal the uncached
/// compute. Returns the number of misses and mismatches.
fn check_cached_equals_uncached(local: &Local, ops: &[Op], queries: &[Query]) -> u64 {
    let replay: Vec<usize> = ops
        .iter()
        .map_while(|op| match *op {
            Op::Estimate(i) => Some(i as usize),
            Op::Analyze(_) => None,
        })
        .collect();
    let mut bad = 0;
    for &i in &replay {
        if local.estimate(&queries[i].sql).is_err() {
            bad += 1;
        }
    }
    let mut seen = HashSet::new();
    let recent = replay
        .iter()
        .rev()
        .filter(|&&i| seen.insert(i))
        .take(CACHE_CHECK_SAMPLE);
    for &i in recent {
        let sql = &queries[i].sql;
        let hits = cache_hits();
        let same = local.engine.parse(sql).ok().is_some_and(|parsed| {
            match (
                local.engine.estimate_with_sources(&parsed),
                local.engine.estimate_with_sources_uncached(&parsed),
            ) {
                (Ok((a, sa)), Ok((b, sb))) => a.to_bits() == b.to_bits() && sa == sb,
                _ => false,
            }
        });
        if cache_hits() == hits {
            eprintln!("perfbench: recently estimated query missed the cache: {sql}");
            bad += 1;
        } else if !same {
            eprintln!("perfbench: cached estimate differs from uncached for {sql}");
            bad += 1;
        }
    }
    bad
}

/// The catalog recovered from `dir`'s snapshot and journal must encode
/// to `live`. Returns 1 on a mismatch.
fn check_recovery(dir: &Path, live: &[u8]) -> u64 {
    match relstore::wal::recover(dir) {
        Ok(recovered) if encode_catalog(&recovered)[..] == live[..] => 0,
        Ok(_) => {
            eprintln!("perfbench: recovered catalog in {} differs", dir.display());
            1
        }
        Err(e) => {
            eprintln!("perfbench: recover {}: {e}", dir.display());
            1
        }
    }
}

/// Layer costs the op loop alone does not give on every workload.
struct Probes {
    wal_bytes_per_analyze: f64,
    read_snapshot_ns: f64,
    estimate_range_ns: f64,
    estimate_band_join_us: f64,
    decode_ns: f64,
    bytes_per_op: f64,
}

/// Per-call ns of `f`, timed over `batches` batches of `per_batch`
/// calls; the median batch.
fn batch_ns(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    quantile_f64(&per_call, 0.5)
}

/// Side probes on the workload's data and queries: the three ANALYZE
/// calls, miss/hit/uncached estimates, catalog snapshot and bucket
/// interpolation in-process; wire ops and frame decoding over VOHW; and
/// `Tenant::submit` on a tenant the benchmark opens itself.
fn run_probes(
    work: &WorkDir,
    local: &Local,
    wire: Option<&mut Wire>,
    relations: &[Relation],
    queries: &[Query],
    tr: &mut Tracer,
) -> Result<Probes, String> {
    tr.phase = Phase::Probe;
    let sample = &queries[..queries.len().min(PROBE_SAMPLE)];

    let before = local.store.journal_bytes();
    for t in 0..RELATIONS {
        let root = tr.open("analyze", 0, None);
        local.analyze_traced(t, tr, 0, Some(root))?;
        tr.close(root);
    }
    let wal_bytes_per_analyze = (local.store.journal_bytes() - before) as f64 / RELATIONS as f64;

    // The paper's Table 1 cost: the v-optimal serial DP on the same
    // frequency tables, beside the end-biased builds above.
    for relation in relations {
        let table = frequency_table(relation, COLUMN).map_err(|e| e.to_string())?;
        let s = tr.open("build.v_opt_serial", 0, None);
        let built = Catalog::build_stored(&table, BuilderSpec::VOptSerial(BUCKETS));
        tr.close(s);
        built.map_err(|e| e.to_string())?;
    }

    for pass in 0..PROBE_PASSES {
        // A re-ANALYZE bumps the epoch: the first estimate of each
        // query below misses, the second hits.
        local.analyze(pass % RELATIONS)?;
        for q in sample {
            local.estimate_traced(&q.sql, tr, 0, None)?;
            local.estimate_traced(&q.sql, tr, 0, None)?;
            let parsed = local.engine.parse(&q.sql).map_err(|e| e.to_string())?;
            let s = tr.open("compute", 0, None);
            let out = local.engine.estimate_with_sources_uncached(&parsed);
            tr.close(s);
            out.map_err(|e| e.to_string())?;
        }
    }

    let catalog = local.engine.catalog();
    let read_snapshot_ns = batch_ns(20, 1000, || {
        black_box(catalog.read_snapshot());
    });
    let snap = catalog.read_snapshot();
    let hist = |t: usize| {
        snap.get(&StatKey::new(format!("t{t}"), &[COLUMN]))
            .map_err(|e| e.to_string())
    };
    let mut ranges = Vec::new();
    let mut bands = Vec::new();
    for q in sample {
        match q.shape {
            Shape::Lt { t, c } => ranges.push((hist(t)?, query::Predicate::Lt(c).interval())),
            Shape::Between { t, lo, hi } => {
                ranges.push((hist(t)?, query::Predicate::Between(lo, hi).interval()))
            }
            Shape::Band { l, r, w, .. } => bands.push((hist(l)?, hist(r)?, w)),
            _ => {}
        }
    }
    let ranges: Vec<_> = ranges
        .into_iter()
        .map(|(h, iv)| (h, iv.expect("range predicates have an interval")))
        .collect();
    let mut k = 0usize;
    let estimate_range_ns = batch_ns(20, 1000, || {
        let (h, (lo, hi)) = &ranges[k % ranges.len()];
        black_box(query::estimate::estimate_range(h, *lo, *hi));
        k += 1;
    });
    let estimate_band_join_us = batch_ns(20, 50, || {
        let (l, r, w) = &bands[k % bands.len()];
        black_box(query::estimate::estimate_band_join(l, r, *w));
        k += 1;
    }) / 1e3;

    // Over VOHW: the workload's own server, or one set up for the probe.
    let mut probe_server = None;
    let wire = match wire {
        Some(wire) => wire,
        None => {
            let wire = Wire::setup(&work.sub("probe_server"), relations)?;
            probe_server.insert(wire)
        }
    };
    let mut frames = Vec::new();
    for pass in 0..PROBE_PASSES {
        for q in sample {
            let root = tr.open("wire_op", 0, None);
            let out = wire.estimate_traced(&q.sql, tr, 0, Some(root));
            tr.close(root);
            let (estimate, sources) = out?;
            if pass == 0 {
                let request = Request::Estimate {
                    tenant: TENANT.to_string(),
                    sql: q.sql.clone(),
                }
                .encode_frame()?;
                let response = Response::Estimated { estimate, sources }.encode_frame()?;
                frames.push((request, response));
            }
        }
    }
    if let Some(wire) = probe_server {
        wire.close()?;
    }
    let bytes_per_op =
        frames.iter().map(|(a, b)| a.len() + b.len()).sum::<usize>() as f64 / frames.len() as f64;
    let decode_ns = batch_ns(20, 200, || {
        let (_, response) = &frames[k % frames.len()];
        let (opcode, payload) = read_frame(&mut &response[..]).expect("well-formed frame");
        black_box(Response::decode(opcode, payload).expect("well-formed response"));
        k += 1;
    });

    // A tenant opened by the benchmark over the same data.
    let tenant = Tenant::open(
        &work.sub("probe_tenant"),
        TENANT,
        &TenantConfig {
            daemon_tick: NO_TICK,
            ..TenantConfig::default()
        },
    )?;
    let mut requests: Vec<Request> = relations
        .iter()
        .map(|r| Request::load_relation(TENANT, r))
        .collect();
    requests.push(Request::Analyze {
        tenant: TENANT.to_string(),
        class: SPEC.name().to_string(),
        buckets: BUCKETS as u32,
    });
    for request in &requests {
        if let Response::Error { message, .. } = tenant.submit(request) {
            tenant.close();
            return Err(format!("probe tenant: {message}"));
        }
    }
    for _ in 0..PROBE_PASSES {
        for q in sample {
            let request = Request::Estimate {
                tenant: TENANT.to_string(),
                sql: q.sql.clone(),
            };
            let s = tr.open("submit", 0, None);
            let response = tenant.submit(&request);
            tr.close(s);
            if !matches!(response, Response::Estimated { .. }) {
                tenant.close();
                return Err(format!("probe tenant answered {response:?}"));
            }
        }
    }
    tenant.close();
    tr.phase = Phase::Main;
    Ok(Probes {
        wal_bytes_per_analyze,
        read_snapshot_ns,
        estimate_range_ns,
        estimate_band_join_us,
        decode_ns,
        bytes_per_op,
    })
}

/// The per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    tr: &Tracer,
    svc: &Service,
    samples: &[Samples],
    round0: &RoundOut,
    (before, after): (Counts, Counts),
    probes: &Probes,
    ticks_before: Option<(u64, u64)>,
    ticks_after: Option<(u64, u64)>,
) -> Vec<(&'static str, f64, &'static str)> {
    let p50 = |name: &str| quantile(&tr.durations(name), 0.5);
    let root = svc.op_span();
    let op_p50 = quantile(&tr.durations_in(root, Phase::Main), 0.5);
    let plain_p50 = mean(&samples[0].estimate_p50);
    let obs_off_p50 = mean(&samples[2].estimate_p50);
    let lookups = after.hits + after.misses - before.hits - before.misses;
    let transport = p50("wire_op") - p50("encode") - p50("submit") - probes.decode_ns;
    let steal = match (ticks_before, ticks_after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    vec![
        ("engine.parse_us", p50("parse") / 1e3, "us"),
        ("engine.estimate_hit_us", p50("estimate.hit") / 1e3, "us"),
        ("engine.estimate_miss_us", p50("estimate.miss") / 1e3, "us"),
        ("engine.compute_us", p50("compute") / 1e3, "us"),
        (
            "engine.cache.hit_ratio",
            (after.hits - before.hits) as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        (
            "engine.cache.evictions_per_op",
            (after.evictions - before.evictions) as f64 / round0.estimates.max(1) as f64,
            "ratio",
        ),
        (
            "engine.ladder.spec_share",
            round0.spec_lookups as f64 / round0.lookups.max(1) as f64,
            "ratio",
        ),
        ("query.estimate_range_ns", probes.estimate_range_ns, "ns"),
        (
            "query.estimate_band_join_us",
            probes.estimate_band_join_us,
            "us",
        ),
        (
            "relstore.catalog.read_snapshot_ns",
            probes.read_snapshot_ns,
            "ns",
        ),
        (
            "relstore.catalog.epoch_bumps",
            (after.epoch - before.epoch) as f64,
            "count",
        ),
        ("relstore.stats.scan_us", p50("scan") / 1e3, "us"),
        ("core.build_us", p50("build") / 1e3, "us"),
        (
            "core.vopt_serial_build_us",
            p50("build.v_opt_serial") / 1e3,
            "us",
        ),
        ("relstore.wal.put_us", p50("put") / 1e3, "us"),
        (
            "relstore.wal.bytes_per_analyze",
            probes.wal_bytes_per_analyze,
            "bytes",
        ),
        ("netserve.proto.encode_ns", p50("encode"), "ns"),
        ("netserve.proto.decode_ns", probes.decode_ns, "ns"),
        ("netserve.proto.bytes_per_op", probes.bytes_per_op, "bytes"),
        ("netserve.client.send_us", p50("send") / 1e3, "us"),
        ("netserve.client.read_us", p50("read") / 1e3, "us"),
        ("netserve.tenant.submit_us", p50("submit") / 1e3, "us"),
        ("netserve.transport_us", transport / 1e3, "us"),
        ("obs.cost_us", (plain_p50 - obs_off_p50) / 1e3, "us"),
        ("bench.op_p50_us", op_p50 / 1e3, "us"),
        (
            "bench.unattributed_us",
            quantile(&tr.self_times_in(root, Phase::Main), 0.5) / 1e3,
            "us",
        ),
        (
            "bench.trace_overhead_pct",
            (op_p50 / plain_p50 - 1.0) * 100.0,
            "%",
        ),
        ("host.steal_share", steal, "ratio"),
    ]
}
