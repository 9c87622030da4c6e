//! `histctl` — a small command-line tool around the histogram library:
//! generate synthetic relations as CSV, ANALYZE a column into a binary
//! catalog histogram, inspect it, and estimate selection/join sizes —
//! the end-to-end workflow a DBA would drive.
//!
//! ```text
//! histctl generate --rows 10000 --distinct 500 --skew 1.2 --out orders.csv
//! histctl analyze  --input orders.csv --column part --buckets 10 --out orders.voh
//! histctl analyze  --input orders.csv --column part --buckets 10 \
//!                  --class max_diff --out orders.voh
//! histctl inspect  --hist orders.voh
//! histctl estimate-eq   --hist orders.voh --value 42
//! histctl estimate-join --left orders.voh --right stock.voh --domain 500
//! histctl metrics --format prometheus
//! histctl trace --out run.jsonl
//! histctl top --by max-q
//! ```
//!
//! Every error path prints to stderr and exits nonzero; stdout carries
//! only the command's payload, so output can be piped safely.

use freqdist::zipf::zipf_frequencies;
use query::estimate::{estimate_equality, estimate_two_way_join};
use relstore::codec::{decode_histogram, encode_histogram};
use relstore::generate::relation_from_frequency_set;
use relstore::stats::frequency_table;
use relstore::{Relation, StoredHistogram};
use std::collections::HashMap;
use std::process::ExitCode;
use vopt_hist::BuilderSpec;

const USAGE: &str = "usage: histctl <command> [--flag value]...
commands:
  generate      --rows N --distinct M --skew Z --out FILE.csv [--column NAME] [--seed S]
  analyze       --input FILE.csv --column NAME --buckets B --out FILE.voh [--class CLASS]
  inspect       --hist FILE.voh
  estimate-eq   --hist FILE.voh --value V
  estimate-join --left A.voh --right B.voh --domain MAX_VALUE
  query         --sql QUERY --tables name=a.csv,name2=b.csv [--buckets B] [--class CLASS]
                (executes COUNT(*) exactly and prints the histogram estimate)
  metrics       [--format prometheus|json] [--buckets B] [--seed S]
                (runs a demo workload and prints the observability snapshot:
                 catalog hit/miss counters, per-class construction latency,
                 span timings, and per-histogram Q-error aggregates)
  trace         --out FILE [--format jsonl|chrome] [--buckets B] [--seed S]
                (runs the metrics demo workload with the flight recorder
                 on and dumps the recorded provenance events: span
                 open/close, cache probes, ladder rungs, statistics
                 resolutions, drift crossings. jsonl is the
                 histctl-trace-v1 line format; chrome loads directly in
                 chrome://tracing or Perfetto)
  top           [--by geo-q|max-q|drift] [--limit N] [--buckets B] [--seed S]
                (runs the demo workload and ranks the worst columns by
                 the quality monitor's per-column Q-error aggregates)
  serve         --data-dir DIR --tables name=a.csv,name2=b.csv
                [--sweeps N] [--tick-ms MS] [--buckets B] [--class CLASS]
                [--jitter-seed S] [--compact-bytes BYTES] [--self-tune]
                (runs the crash-safe statistics service: opens the
                 journaled catalog in DIR, registers every column of the
                 given tables with the maintenance daemon, performs N
                 bounded sweeps, and prints the daemon's event trace plus
                 journal/breaker state. --self-tune closes the feedback
                 loop: each sweep also consumes the newest per-column
                 (estimate, actual) quality observation and applies a
                 bounded, journaled histogram adjustment)
  tune          --data-dir DIR (--status |
                 --table T --column C --estimate E --actual A)
                (feedback tuning against the journaled catalog in DIR.
                 --status lists every column with the number of tune
                 steps applied since its last full build; the apply form
                 feeds one (estimate, actual) observation through the
                 same journaled path the daemon's sweep uses and prints
                 the applied delta or the skip reason)
  tune          --convergence [--seed S] [--budget-ms MS] [--rounds K]
                [--json]
                (runs the oracle's feedback convergence study — the
                 data behind the feedback_converges selftest invariant:
                 histograms built on drifted data are tuned from query
                 feedback for K rounds and the per-round Q-error
                 trajectory is printed, as deterministic JSON with
                 --json. Same flags, byte-identical output)
  serve         --listen HOST:PORT --tenants DIR
                [--max-conns N] [--queue-depth N] [--allow-remote-shutdown]
                [--read-timeout-ms MS] [--write-timeout-ms MS]
                (runs the networked multi-tenant statistics server:
                 binds the VOHW frame protocol on HOST:PORT — port 0
                 picks an ephemeral port, printed on the first stdout
                 line — and gives every tenant its own journaled
                 catalog, maintenance daemon, and admission queue under
                 DIR. Runs until a client sends SHUTDOWN or the process
                 gets SIGINT/SIGTERM; either path checkpoints every
                 tenant. SHUTDOWN is unauthenticated, so non-loopback
                 listeners refuse it unless --allow-remote-shutdown is
                 given. The deadlines default to 30000 ms each and bound
                 how long a connection may sit idle, dribble a partial
                 frame, or stall a response write before it is closed
                 with a typed DEADLINE error; 0 disables a deadline)
  client        --addr HOST:PORT --op OP [--tenant T] [--sql QUERY]
                [--table name=file.csv] [--class CLASS] [--buckets B]
                [--retries N]
                (one request against a running serve --listen server.
                 OP is ping, load (--tenant --table), analyze (--tenant
                 [--class] [--buckets]), estimate (--tenant --sql),
                 epoch (--tenant), metrics, or shutdown. --retries
                 turns on the fault-tolerant client: N extra attempts
                 with seeded exponential backoff, reconnecting and
                 replaying idempotent ops — load is replayed only when
                 the failure struck before any bytes reached the server)
  chaos         --upstream HOST:PORT [--listen HOST:PORT] [--seed S]
                (runs the deterministic chaos proxy in front of a
                 serve --listen server: each accepted connection draws
                 a seeded fate — clean, reset, drop-request,
                 truncate-response, or delay — and every third
                 connection is forced clean so retrying clients always
                 converge. The first stdout line reports the bound
                 address; the proxy runs until SIGINT/SIGTERM)
  recover       --data-dir DIR
                (replays the newest valid snapshot plus journal tail in
                 DIR read-only and prints what survived)
  selftest      [--seed S] [--budget-ms MS] [--emit-snapshot FILE] [--snapshot FILE]
                (runs the oracle: differential checks of every histogram
                 class against brute-force ground truth plus fault
                 injection — including the crash-recovery kill-point
                 matrix; prints a deterministic JSON report and exits
                 nonzero on any violation. --emit-snapshot writes the
                 seed's reference catalog; --snapshot verifies one first)
  bench         [--threads LIST] [--ops N] [--workload selfjoin|chain|range]
                [--remote HOST:PORT] [--retries N] [--seed S] [--buckets B]
                [--class CLASS] [--json] [--out FILE.json]
                (seeded estimation load harness whose result is a digest:
                 at each thread count in --threads ('1,2,4'), every
                 thread issues --ops N (default 2000) cached estimates
                 over an oracle-generated query pool while the
                 maintenance daemon churns the catalog with ANALYZE
                 refreshes; the digest of every estimate's bits is
                 byte-identical across reruns with the same --seed.
                 The report also checks that a repeated estimate is a
                 cache hit with the uncached estimate's bits and trail.
                 --workload range mixes point, comparison, BETWEEN, and
                 band-join queries through the cache. --remote drives
                 the identical query stream over the wire against a
                 serve --listen server instead of in-process: the
                 report gains \"transport\":\"remote\" and its digests
                 are bit-identical to the in-process run with the same
                 seed — the serving layer adds latency, never error.
                 --retries N arms the fault-tolerant client on every
                 remote connection, so the bench converges even through
                 the chaos proxy. Timing is perfbench's job)

CLASS names a registered histogram builder (default v_opt_end_biased),
optionally with an explicit budget: 'max_diff', 'equi_depth:20', or
'end_biased:H,L' for an explicit high/low split.

Every command additionally accepts --trace-out FILE
[--trace-format jsonl|chrome]: after the command finishes, the flight
recorder's buffered provenance events are dumped to FILE.";

/// Writes payload to stdout. A reader that closes the pipe early
/// (`histctl inspect ... | head`) ends the process quietly instead of
/// panicking; any other stdout failure surfaces as a normal error.
fn emit(args: std::fmt::Arguments<'_>, newline: bool) -> Result<(), String> {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let result = out
        .write_fmt(args)
        .and_then(|()| {
            if newline {
                out.write_all(b"\n")
            } else {
                Ok(())
            }
        })
        .and_then(|()| out.flush());
    match result {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => Err(format!("stdout: {e}")),
    }
}

macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*), true)?
    };
}

/// Flags that are pure switches: present or absent, no value token.
const BOOLEAN_FLAGS: &[&str] = &[
    "json",
    "allow-remote-shutdown",
    "status",
    "self-tune",
    "convergence",
];

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got '{flag}'"))?;
        if BOOLEAN_FLAGS.contains(&name) {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}\n{USAGE}"))
}

fn parse_num<T: std::str::FromStr>(value: &str, name: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{name}: cannot parse '{value}'"))
}

/// Resolves the optional `--class` flag against the builder registry.
/// Unknown names surface the registry's own error, which lists every
/// valid spelling.
fn class_spec(flags: &HashMap<String, String>, buckets: usize) -> Result<BuilderSpec, String> {
    let class = flags
        .get("class")
        .map(String::as_str)
        .unwrap_or("v_opt_end_biased");
    BuilderSpec::parse(class, buckets).map_err(|e| e.to_string())
}

/// Writes a relation as CSV via `relstore::csv`.
fn write_csv(relation: &Relation, path: &str) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    relstore::csv::write_csv(relation, file).map_err(|e| e.to_string())
}

/// Reads a CSV relation via `relstore::csv`.
fn read_csv(path: &str, name: &str) -> Result<Relation, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("read {path}: {e}"))?;
    relstore::csv::read_csv(std::io::BufReader::new(file), name).map_err(|e| format!("{path}: {e}"))
}

fn load_histogram(path: &str) -> Result<StoredHistogram, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    decode_histogram(bytes.into()).map_err(|e| e.to_string())
}

/// SIGINT/SIGTERM turn into a flag the long-running commands poll, so
/// Ctrl-C runs the same checkpoint-all-tenants path as a wire SHUTDOWN
/// instead of killing the process mid-journal. The workspace keeps
/// `libc` out of the dependency tree, so the handler registers through
/// the C `signal` symbol directly — the only unsafe code in the binary,
/// confined to this module.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a single atomic store.
        SIGNALED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the flag-setting handler for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        // SAFETY: `signal(2)` with a handler that only stores an atomic
        // is async-signal-safe; both signum values are valid.
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }

    /// Whether a termination signal has arrived since [`install`].
    pub fn received() -> bool {
        SIGNALED.load(Ordering::SeqCst)
    }
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let rows: u64 = parse_num(required(flags, "rows")?, "rows")?;
    let distinct: usize = parse_num(required(flags, "distinct")?, "distinct")?;
    let skew: f64 = parse_num(required(flags, "skew")?, "skew")?;
    let out = required(flags, "out")?;
    let column = flags.get("column").map(String::as_str).unwrap_or("value");
    let seed: u64 = flags
        .get("seed")
        .map(|s| parse_num(s, "seed"))
        .transpose()?
        .unwrap_or(42);
    let freqs = zipf_frequencies(rows, distinct, skew).map_err(|e| e.to_string())?;
    let relation = relation_from_frequency_set("generated", column, &freqs, seed)
        .map_err(|e| e.to_string())?;
    write_csv(&relation, out)?;
    outln!(
        "wrote {} rows over {} distinct values (zipf z={skew}) to {out}",
        relation.num_rows(),
        distinct
    );
    Ok(())
}

fn cmd_analyze(flags: &HashMap<String, String>) -> Result<(), String> {
    let input = required(flags, "input")?;
    let column = required(flags, "column")?;
    let buckets: usize = parse_num(required(flags, "buckets")?, "buckets")?;
    let out = required(flags, "out")?;
    let relation = read_csv(input, "input")?;
    let table = frequency_table(&relation, column).map_err(|e| e.to_string())?;
    if table.freqs.is_empty() {
        return Err(format!("{input}: column '{column}' has no values"));
    }
    let spec = class_spec(flags, buckets)?;
    let opt = spec.build_opt(&table.freqs).map_err(|e| e.to_string())?;
    let stored = StoredHistogram::from_histogram(&table.values, &opt.histogram)
        .map_err(|e| e.to_string())?;
    let bytes = encode_histogram(&stored);
    std::fs::write(out, &bytes).map_err(|e| format!("write {out}: {e}"))?;
    outln!(
        "analyzed {} rows, {} distinct values -> {} {} buckets, {} catalog entries, \
         self-join error {:.1}; wrote {} bytes to {out}",
        relation.num_rows(),
        table.num_values(),
        stored.num_buckets(),
        spec.name(),
        stored.storage_entries(),
        opt.error,
        bytes.len()
    );
    Ok(())
}

fn cmd_inspect(flags: &HashMap<String, String>) -> Result<(), String> {
    let hist = load_histogram(required(flags, "hist")?)?;
    outln!(
        "buckets: {}   catalog entries: {}   default bucket: {}",
        hist.num_buckets(),
        hist.storage_entries(),
        hist.default_bucket()
    );
    for (i, &avg) in hist.bucket_avgs().iter().enumerate() {
        let members: Vec<String> = hist
            .exceptions()
            .iter()
            .filter(|&&(_, b)| b as usize == i)
            .map(|&(v, _)| v.to_string())
            .collect();
        if i as u32 == hist.default_bucket() {
            outln!("  bucket {i}: avg {avg}  (all values not listed below)");
        } else {
            outln!("  bucket {i}: avg {avg}  values [{}]", members.join(", "));
        }
    }
    Ok(())
}

fn cmd_estimate_eq(flags: &HashMap<String, String>) -> Result<(), String> {
    let hist = load_histogram(required(flags, "hist")?)?;
    let value: u64 = parse_num(required(flags, "value")?, "value")?;
    outln!("{}", estimate_equality(&hist, value));
    Ok(())
}

fn cmd_estimate_join(flags: &HashMap<String, String>) -> Result<(), String> {
    let left = load_histogram(required(flags, "left")?)?;
    let right = load_histogram(required(flags, "right")?)?;
    let max: u64 = parse_num(required(flags, "domain")?, "domain")?;
    let domain: Vec<u64> = (0..max).collect();
    outln!("{:.0}", estimate_two_way_join(&left, &right, &domain));
    Ok(())
}

fn cmd_query(flags: &HashMap<String, String>) -> Result<(), String> {
    let sql = required(flags, "sql")?;
    let tables = required(flags, "tables")?;
    let buckets: usize = flags
        .get("buckets")
        .map(|b| parse_num(b, "buckets"))
        .transpose()?
        .unwrap_or(10);
    let spec = class_spec(flags, buckets)?;
    let mut eng = engine::Engine::new();
    for entry in tables.split(',') {
        let (name, path) = entry
            .split_once('=')
            .ok_or_else(|| format!("--tables entry '{entry}' is not name=file.csv"))?;
        let relation = read_csv(path.trim(), name.trim())?;
        eng.register(relation);
    }
    eng.analyze_all_with(spec).map_err(|e| e.to_string())?;
    let query = eng.parse(sql).map_err(|e| e.to_string())?;
    let actual = eng.execute(&query).map_err(|e| e.to_string())?;
    let (estimate, sources) = eng
        .estimate_with_sources(&query)
        .map_err(|e| e.to_string())?;
    let q_err = {
        let a = (actual as f64).max(1.0);
        (estimate.max(1e-9) / a).max(a / estimate.max(1e-9))
    };
    outln!("actual   {actual}");
    // The summary names the predicate forms the estimator actually
    // evaluated (a range-shaped lookup reports its whole predicate, an
    // equality lookup its column), so range vs. equality runs are
    // distinguishable in piped output and provenance traces alike.
    let evaluated = sources
        .iter()
        .map(|s| format!("{} [{}]", s.target, s.rung.name()))
        .collect::<Vec<_>>()
        .join(", ");
    outln!(
        "estimate {estimate:.0}   (class={}, beta={}, q-error {q_err:.2}x)   via {}",
        spec.name(),
        spec.buckets(),
        if evaluated.is_empty() {
            "<no statistics lookups>".to_string()
        } else {
            evaluated
        }
    );
    Ok(())
}

/// Runs the small, seed-deterministic in-process workload behind
/// `metrics`, `trace`, and `top`: one construction per histogram class
/// over a skewed set, then an end-to-end engine run — exercising every
/// instrumented layer (catalog counters, construction latency, spans,
/// the estimation cache, the quality monitor, and the flight recorder).
fn run_demo_workload(buckets: usize, seed: u64) -> Result<(), String> {
    obs::register_well_known();

    // Build every histogram class once over a skewed frequency set: each
    // construction feeds its `construction_seconds{class=...}` latency
    // histogram, and the self-join estimate feeds a `self_join/<class>`
    // Q-error scope.
    use query::montecarlo::sample_self_join;
    let freqs = zipf_frequencies(100_000, 500, 1.2).map_err(|e| e.to_string())?;
    for builder in vopt_hist::builders() {
        // The exhaustive serial search is combinatorial in the domain
        // size (Table 1's point); the demo workload skips it.
        if builder.name() == "v_opt_serial_exhaustive" {
            continue;
        }
        let spec = builder.spec(buckets);
        sample_self_join(&freqs, spec, 3, seed, vopt_hist::RoundingMode::Exact)
            .map_err(|e| e.to_string())?;
    }

    // A small end-to-end engine run: ANALYZE populates the catalog
    // (puts), estimation reads it back (hits), and EXPLAIN ANALYZE
    // records per-query Q-error under `<tables>/v_opt_end_biased`.
    let mut eng = engine::Engine::new();
    for (name, total, distinct, skew, s) in [
        ("orders", 20_000u64, 200usize, 1.2f64, seed),
        ("stock", 10_000, 200, 0.8, seed + 1),
    ] {
        let fs = zipf_frequencies(total, distinct, skew).map_err(|e| e.to_string())?;
        let rel = relation_from_frequency_set(name, "part", &fs, s).map_err(|e| e.to_string())?;
        eng.register(rel);
    }
    eng.analyze_all(buckets).map_err(|e| e.to_string())?;
    for sql in [
        "SELECT COUNT(*) FROM orders WHERE orders.part = 0",
        "SELECT COUNT(*) FROM orders, stock WHERE orders.part = stock.part",
    ] {
        let q = eng.parse(sql).map_err(|e| e.to_string())?;
        eng.explain_analyze(&q).map_err(|e| e.to_string())?;
        // Two cached estimates: the first misses and fills the
        // estimation cache, the second hits — so the cache counters
        // and the recorder's probe events cover both outcomes.
        for _ in 0..2 {
            eng.estimate(&q).map_err(|e| e.to_string())?;
        }
    }
    // One lookup of statistics that were never collected, so the miss
    // counter is exercised alongside the hits.
    let _ = eng
        .catalog()
        .get(&relstore::catalog::StatKey::new("unanalyzed", &["value"]));
    Ok(())
}

/// Prints the observability snapshot after a demo workload. This is the
/// CLI window into `obs`: catalog hit/miss/put counters, one
/// construction-latency histogram per histogram class, span timings,
/// and per-histogram Q-error aggregates from the quality monitor.
fn cmd_metrics(flags: &HashMap<String, String>) -> Result<(), String> {
    let format = flags
        .get("format")
        .map(String::as_str)
        .unwrap_or("prometheus");
    if format != "prometheus" && format != "json" {
        return Err(format!(
            "--format must be 'prometheus' or 'json', got '{format}'"
        ));
    }
    let buckets: usize = flags
        .get("buckets")
        .map(|b| parse_num(b, "buckets"))
        .transpose()?
        .unwrap_or(10);
    let seed: u64 = flags
        .get("seed")
        .map(|s| parse_num(s, "seed"))
        .transpose()?
        .unwrap_or(42);
    run_demo_workload(buckets, seed)?;
    match format {
        "json" => outln!("{}", obs::export::json()),
        _ => emit(format_args!("{}", obs::export::prometheus()), false)?,
    }
    Ok(())
}

/// Drains the flight recorder and writes its events to `path` in the
/// given format. Returns `(events, dropped_total)` for the summary line.
fn write_trace(path: &str, format: &str) -> Result<(usize, u64), String> {
    if format != "jsonl" && format != "chrome" {
        return Err(format!(
            "trace format must be 'jsonl' or 'chrome', got '{format}'"
        ));
    }
    let events = obs::trace::drain();
    let text = match format {
        "chrome" => obs::trace::chrome(&events),
        _ => obs::trace::jsonl(&events),
    };
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
    Ok((events.len(), obs::trace::dropped()))
}

/// `histctl trace`: runs the demo workload with the flight recorder on
/// and dumps everything it recorded.
fn cmd_trace(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = required(flags, "out")?;
    let format = flags.get("format").map(String::as_str).unwrap_or("jsonl");
    let buckets: usize = flags
        .get("buckets")
        .map(|b| parse_num(b, "buckets"))
        .transpose()?
        .unwrap_or(10);
    let seed: u64 = flags
        .get("seed")
        .map(|s| parse_num(s, "seed"))
        .transpose()?
        .unwrap_or(42);
    obs::trace::set_trace_enabled(true);
    // Start from an empty recorder so the dump is exactly the demo
    // workload's provenance, not startup noise.
    obs::trace::drain();
    run_demo_workload(buckets, seed)?;
    let (events, dropped) = write_trace(out, format)?;
    outln!("trace: wrote {events} event(s) ({dropped} dropped so far) to {out} ({format})");
    Ok(())
}

/// `histctl top`: runs the demo workload and ranks the worst columns
/// from the quality monitor's per-column (`col:<table>.<column>`)
/// Q-error aggregates.
fn cmd_top(flags: &HashMap<String, String>) -> Result<(), String> {
    let by = flags.get("by").map(String::as_str).unwrap_or("geo-q");
    if !["geo-q", "max-q", "drift"].contains(&by) {
        return Err(format!(
            "--by must be 'geo-q', 'max-q', or 'drift', got '{by}'"
        ));
    }
    let limit: usize = flags
        .get("limit")
        .map(|s| parse_num(s, "limit"))
        .transpose()?
        .unwrap_or(10);
    let buckets: usize = flags
        .get("buckets")
        .map(|b| parse_num(b, "buckets"))
        .transpose()?
        .unwrap_or(10);
    let seed: u64 = flags
        .get("seed")
        .map(|s| parse_num(s, "seed"))
        .transpose()?
        .unwrap_or(42);
    run_demo_workload(buckets, seed)?;

    let mut rows = obs::quality::snapshot_prefixed("col:");
    // Primary key: the chosen metric, worst first. Ties (and the drift
    // ranking's common all-zero case) fall back to EWMA, then to the
    // scope name, so the listing is total-ordered and deterministic.
    rows.sort_by(|(scope_a, a), (scope_b, b)| {
        let metric = |s: &obs::quality::QualitySnapshot| match by {
            "max-q" => s.max_q,
            "drift" => s.drift_events as f64,
            _ => s.geo_mean_q,
        };
        metric(b)
            .total_cmp(&metric(a))
            .then(b.ewma_q.total_cmp(&a.ewma_q))
            .then(scope_a.cmp(scope_b))
    });
    outln!("top columns by {by} (seed {seed}, buckets {buckets}):");
    for (rank, (scope, s)) in rows.iter().take(limit).enumerate() {
        let column = scope.strip_prefix("col:").unwrap_or(scope);
        outln!(
            "  {:>2}. {column:<24} geo-q {:>8.3}x  max-q {:>8.3}x  ewma {:>8.3}x  \
             drift {:>2}  samples {}",
            rank + 1,
            s.geo_mean_q,
            s.max_q,
            s.ewma_q,
            s.drift_events,
            s.count
        );
    }
    Ok(())
}

/// Opens the journaled catalog under `--data-dir`, registers every
/// column of the given tables with the maintenance daemon, runs a
/// bounded number of sweeps on the real daemon thread, then prints the
/// deterministic event trace and the store's durability state.
///
/// `--sweeps` bounds the run so `serve` is scriptable and testable; a
/// long-lived deployment would simply skip the stop. Because the daemon
/// drains its command channel in order, all requested sweeps complete
/// before the stop command is observed — no sleeps needed.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    use relstore::{Daemon, DaemonConfig, DaemonCore, DaemonEvent, DurableCatalog};
    use std::sync::Arc;

    // `serve --listen` is the networked multi-tenant form; without it
    // the command keeps its original single-catalog daemon behavior.
    if flags.contains_key("listen") {
        return cmd_serve_net(flags);
    }
    let dir = required(flags, "data-dir")?;
    let tables = required(flags, "tables")?;
    let sweeps: u64 = flags
        .get("sweeps")
        .map(|s| parse_num(s, "sweeps"))
        .transpose()?
        .unwrap_or(3);
    // Default tick interval is effectively "manual sweeps only" so the
    // bounded run's trace is deterministic; pass a small --tick-ms to
    // let the timer drive extra sweeps.
    let tick_ms: u64 = flags
        .get("tick-ms")
        .map(|s| parse_num(s, "tick-ms"))
        .transpose()?
        .unwrap_or(3_600_000);
    let buckets: usize = flags
        .get("buckets")
        .map(|b| parse_num(b, "buckets"))
        .transpose()?
        .unwrap_or(10);
    let spec = class_spec(flags, buckets)?;
    let mut config = DaemonConfig {
        jitter_seed: flags
            .get("jitter-seed")
            .map(|s| parse_num(s, "jitter-seed"))
            .transpose()?
            .unwrap_or(0),
        ..DaemonConfig::default()
    };
    if let Some(bytes) = flags.get("compact-bytes") {
        config.compaction_bytes = parse_num(bytes, "compact-bytes")?;
    }
    if flags.contains_key("self-tune") {
        config.self_tune = true;
    }

    obs::register_well_known();

    let store = Arc::new(DurableCatalog::open(dir).map_err(|e| e.to_string())?);
    let mut core = DaemonCore::new(config);
    let mut columns = 0usize;
    let mut table_count = 0usize;
    for entry in tables.split(',') {
        let (name, path) = entry
            .split_once('=')
            .ok_or_else(|| format!("--tables entry '{entry}' is not name=file.csv"))?;
        let relation = Arc::new(read_csv(path.trim(), name.trim())?);
        table_count += 1;
        for col in relation.schema().columns() {
            core.register_with_spec(Arc::clone(&relation), col.name.clone(), spec);
            columns += 1;
        }
    }

    let daemon = Daemon::spawn(
        core,
        Arc::clone(&store),
        std::time::Duration::from_millis(tick_ms),
    );
    for _ in 0..sweeps {
        daemon.sweep_now();
    }
    let core = daemon.stop();

    outln!(
        "served {dir}: {} sweep(s) over {columns} column(s) across {table_count} table(s)",
        core.now()
    );
    for event in core.trace() {
        match event {
            DaemonEvent::Refreshed { column, tick } => {
                outln!("  tick {tick}: refreshed {column}");
            }
            DaemonEvent::RefreshFailed {
                column,
                tick,
                error,
                retry_at,
            } => {
                outln!(
                    "  tick {tick}: refresh of {column} failed ({error}); retry at tick {retry_at}"
                );
            }
            DaemonEvent::BreakerOpened {
                column,
                tick,
                until,
            } => {
                outln!("  tick {tick}: breaker opened for {column} until tick {until}");
            }
            DaemonEvent::BreakerHalfOpen { column, tick } => {
                outln!("  tick {tick}: breaker half-open for {column}");
            }
            DaemonEvent::BreakerClosed { column, tick } => {
                outln!("  tick {tick}: breaker closed for {column}");
            }
            DaemonEvent::Compacted {
                tick,
                journal_bytes,
            } => {
                outln!("  tick {tick}: compacted journal ({journal_bytes} bytes)");
            }
            DaemonEvent::CompactionFailed { tick, error } => {
                outln!("  tick {tick}: compaction failed ({error})");
            }
            DaemonEvent::Tuned { column, tick } => {
                outln!("  tick {tick}: tuned {column} from feedback");
            }
            DaemonEvent::TuneSkipped {
                column,
                tick,
                reason,
            } => {
                outln!("  tick {tick}: tune of {column} skipped ({reason})");
            }
            DaemonEvent::TuneFailed {
                column,
                tick,
                error,
            } => {
                outln!("  tick {tick}: tune of {column} failed ({error})");
            }
        }
    }
    let (closed, open, half_open) = core.breaker_counts();
    outln!("breakers: {closed} closed, {open} open, {half_open} half-open");
    outln!(
        "journal: {} bytes, snapshot generation {}",
        store.journal_bytes(),
        store.generation()
    );
    Ok(())
}

/// `histctl tune`: the feedback loop's command-line surface. With
/// `--status` it reports, for every column in the journaled catalog,
/// how many tune steps have been applied since the column's last full
/// build — the same divergence signal the provenance trail's `tuned`
/// marker exposes per estimate. With `--table/--column/--estimate/
/// --actual` it feeds a single observation through
/// [`relstore::DurableCatalog::tune_column`], the identical journaled
/// path the maintenance daemon's sweep uses, and prints what happened.
/// With `--convergence` it runs the oracle's drifted-workload
/// convergence study ([`oracle::feedback_trajectories`] — the data
/// behind the `feedback_converges` invariant) and emits it as
/// deterministic JSON, so the convergence claim is reproducible from
/// the command line.
fn cmd_tune(flags: &HashMap<String, String>) -> Result<(), String> {
    use relstore::catalog::StatKey;
    use relstore::DurableCatalog;

    if flags.contains_key("convergence") {
        return cmd_tune_convergence(flags);
    }
    let dir = required(flags, "data-dir")?;
    let store = DurableCatalog::open(dir).map_err(|e| e.to_string())?;
    if flags.contains_key("status") {
        let mut keys = store.catalog().keys();
        keys.sort_by_key(|k| k.display());
        outln!("tuning status for {dir}: {} column(s)", keys.len());
        for key in keys {
            let tunes = store.catalog().tuned_count(&key);
            let staleness = store.catalog().staleness(&key).unwrap_or(0);
            outln!(
                "  {:<30} tuned {} time(s) since last build, staleness {}",
                key.display(),
                tunes,
                staleness
            );
        }
        return Ok(());
    }
    let table = required(flags, "table")?;
    let column = required(flags, "column")?;
    let estimate: f64 = parse_num(required(flags, "estimate")?, "estimate")?;
    let actual: f64 = parse_num(required(flags, "actual")?, "actual")?;
    let key = StatKey::new(table, &[column]);
    let cfg = vopt_hist::feedback::TuneConfig::default();
    match store
        .tune_column(&key, estimate, actual, &cfg)
        .map_err(|e| e.to_string())?
    {
        Ok(report) => {
            outln!(
                "tuned {}: moved {} tuple(s), Q-error {:.4} -> {:.4}{}",
                key.display(),
                report.mass_moved,
                report.qerror_pre,
                report.qerror_post,
                if report.restructured {
                    " (restructured)"
                } else {
                    ""
                }
            );
            outln!(
                "  tuned {} time(s) since last build",
                store.catalog().tuned_count(&key)
            );
        }
        Err(skip) => {
            outln!("tune of {} skipped ({})", key.display(), skip.reason());
        }
    }
    Ok(())
}

/// `histctl tune --convergence [--seed S] [--budget-ms MS] [--rounds K]
/// [--json]`: runs the oracle's feedback convergence study and prints
/// either a human-readable trajectory table or a deterministic JSON
/// artifact (schema `histctl-tune-v1`). Everything is derived from
/// `(seed, tier, rounds)` — no wall clock — so two runs with the same
/// flags produce byte-identical output.
fn cmd_tune_convergence(flags: &HashMap<String, String>) -> Result<(), String> {
    let seed: u64 = flags
        .get("seed")
        .map(|s| parse_num(s, "seed"))
        .transpose()?
        .unwrap_or(1);
    let budget_ms: u64 = flags
        .get("budget-ms")
        .map(|s| parse_num(s, "budget-ms"))
        .transpose()?
        .unwrap_or(30_000);
    let rounds: usize = flags
        .get("rounds")
        .map(|s| parse_num(s, "rounds"))
        .transpose()?
        .unwrap_or(8);
    if rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    let tier = oracle::Tier::from_budget_ms(budget_ms);
    let workload = oracle::Workload::generate(seed, tier);
    let (trajectories, errors) = oracle::feedback_trajectories(&workload, rounds);
    if !errors.is_empty() {
        return Err(format!(
            "convergence study hit {} error(s); first: {}",
            errors.len(),
            errors[0]
        ));
    }
    if trajectories.is_empty() {
        return Err("convergence study produced no trajectories".into());
    }
    let medians = oracle::feedback_round_medians(&trajectories);
    let fresh_median = {
        let mut qs: Vec<f64> = trajectories.iter().map(|t| t.fresh_q).collect();
        qs.sort_by(f64::total_cmp);
        let mid = qs.len() / 2;
        if qs.len() % 2 == 1 {
            qs[mid]
        } else {
            (qs[mid - 1] + qs[mid]) / 2.0
        }
    };
    let fmt_list = |qs: &[f64]| {
        qs.iter()
            .map(|q| format!("{q:.6}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    if flags.contains_key("json") {
        let tier_name = format!("{tier:?}").to_ascii_lowercase();
        let sets = trajectories
            .iter()
            .map(|t| {
                format!(
                    "    {{\"set\": \"{}\", \"qerrors\": [{}], \"fresh_qerror\": {:.6}, \
                     \"tunes_applied\": {}}}",
                    t.set,
                    fmt_list(&t.qs),
                    t.fresh_q,
                    t.applied
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        outln!("{{");
        outln!("  \"schema\": \"histctl-tune-v1\",");
        outln!("  \"seed\": {seed},");
        outln!("  \"tier\": \"{tier_name}\",");
        outln!("  \"rounds\": {rounds},");
        outln!("  \"sets\": [");
        outln!("{sets}");
        outln!("  ],");
        outln!("  \"median_qerror_per_round\": [{}],", fmt_list(&medians));
        outln!("  \"fresh_median_qerror\": {fresh_median:.6},");
        outln!(
            "  \"median_improvement\": {:.6}",
            medians[0] / medians[rounds].max(1e-12)
        );
        outln!("}}");
    } else {
        outln!(
            "feedback convergence (seed {seed}, {tier:?} tier, {} set(s), {rounds} round(s)):",
            trajectories.len()
        );
        for t in &trajectories {
            outln!(
                "  {:<22} Q-error {:.4} -> {:.4} ({} tune(s), fresh {:.4})",
                t.set,
                t.qs[0],
                t.qs[rounds],
                t.applied,
                t.fresh_q
            );
        }
        outln!("  median per round: {}", fmt_list(&medians));
        outln!(
            "  median Q-error {:.4} -> {:.4} ({:.2}x better; ANALYZE-fresh median {:.4})",
            medians[0],
            medians[rounds],
            medians[0] / medians[rounds].max(1e-12),
            fresh_median
        );
    }
    Ok(())
}

/// `histctl serve --listen HOST:PORT --tenants DIR`: the networked
/// multi-tenant statistics server. Binds the VOHW frame protocol,
/// gives every tenant its own journaled catalog and maintenance daemon
/// under DIR, and runs until a client sends SHUTDOWN — which
/// checkpoints every tenant before the process exits. The first stdout
/// line reports the *bound* address, so scripts can pass port 0 and
/// parse the ephemeral port the kernel picked.
fn cmd_serve_net(flags: &HashMap<String, String>) -> Result<(), String> {
    let listen = required(flags, "listen")?;
    let tenants = required(flags, "tenants")?;
    let max_connections: usize = flags
        .get("max-conns")
        .map(|s| parse_num(s, "max-conns"))
        .transpose()?
        .unwrap_or(64);
    let queue_depth: usize = flags
        .get("queue-depth")
        .map(|s| parse_num(s, "queue-depth"))
        .transpose()?
        .unwrap_or(64);
    // Connection deadlines default on (30 s): a slow-loris client that
    // dribbles half a frame must not hold an admission slot forever.
    // `0` disables a deadline for debugger-friendly sessions.
    let deadline = |flag: &str| -> Result<Option<std::time::Duration>, String> {
        let ms: u64 = flags
            .get(flag)
            .map(|s| parse_num(s, flag))
            .transpose()?
            .unwrap_or(30_000);
        Ok((ms > 0).then(|| std::time::Duration::from_millis(ms)))
    };
    let read_timeout = deadline("read-timeout-ms")?;
    let write_timeout = deadline("write-timeout-ms")?;
    obs::register_well_known();
    let server = netserve::Server::start(netserve::ServerConfig {
        listen: listen.to_string(),
        tenants_dir: std::path::PathBuf::from(tenants),
        max_connections,
        queue_depth,
        allow_remote_shutdown: flags.contains_key("allow-remote-shutdown"),
        read_timeout,
        write_timeout,
        ..netserve::ServerConfig::default()
    })
    .map_err(|e| format!("bind {listen}: {e}"))?;
    let timeout_ms = |t: Option<std::time::Duration>| match t {
        Some(d) => format!("{}ms", d.as_millis()),
        None => "off".to_string(),
    };
    outln!(
        "serving on {} (tenants in {tenants}, max {max_connections} connection(s), \
         queue depth {queue_depth}, read/write deadlines {}/{})",
        server.local_addr(),
        timeout_ms(read_timeout),
        timeout_ms(write_timeout)
    );
    // SIGINT/SIGTERM run the same graceful path as a wire SHUTDOWN:
    // flip the stop flag, drain connections, checkpoint every tenant.
    signals::install();
    while !server.stopping() && !signals::received() {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    if signals::received() {
        server.shutdown();
    }
    let checkpointed = server.join().map_err(|e| e.to_string())?;
    outln!("shutdown: checkpointed {checkpointed} tenant(s)");
    Ok(())
}

/// `histctl chaos`: the deterministic chaos proxy as a standalone
/// process, for CI gates and manual fault drills. Prints the bound
/// address on the first stdout line (pass --listen port 0 for an
/// ephemeral port) and forwards to --upstream until SIGINT/SIGTERM.
fn cmd_chaos(flags: &HashMap<String, String>) -> Result<(), String> {
    let upstream = required(flags, "upstream")?;
    let listen = flags
        .get("listen")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    let seed: u64 = flags
        .get("seed")
        .map(|s| parse_num(s, "seed"))
        .transpose()?
        .unwrap_or(0xc4a0_5150);
    let proxy = netserve::ChaosProxy::start(netserve::ChaosConfig {
        listen: listen.to_string(),
        upstream: upstream.to_string(),
        seed,
    })
    .map_err(|e| format!("bind {listen}: {e}"))?;
    outln!(
        "chaos proxy on {} (upstream {upstream}, seed {seed})",
        proxy.local_addr()
    );
    signals::install();
    while !signals::received() {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    proxy.stop();
    outln!("chaos proxy stopped");
    Ok(())
}

/// `histctl client`: one typed request against a running
/// `serve --listen` server. Payloads go to stdout (pipe-safe); errors —
/// including typed remote errors and OVERLOADED backpressure — exit
/// nonzero through the normal stderr path.
fn cmd_client(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = required(flags, "addr")?;
    let op = required(flags, "op")?;
    // Resolve every op-specific flag (and parse the CSV for `load`)
    // before dialing, so usage errors don't depend on a live server.
    if ![
        "ping", "load", "analyze", "estimate", "epoch", "metrics", "shutdown",
    ]
    .contains(&op)
    {
        return Err(format!(
            "--op must be ping|load|analyze|estimate|epoch|metrics|shutdown, got '{op}'"
        ));
    }
    let tenant = if matches!(op, "load" | "analyze" | "estimate" | "epoch") {
        required(flags, "tenant")?
    } else {
        ""
    };
    let sql = if op == "estimate" {
        required(flags, "sql")?
    } else {
        ""
    };
    let relation = if op == "load" {
        let table = required(flags, "table")?;
        let (name, path) = table
            .split_once('=')
            .ok_or_else(|| format!("--table entry '{table}' is not name=file.csv"))?;
        Some(read_csv(path.trim(), name.trim())?)
    } else {
        None
    };

    // --retries arms the fault-tolerant client: the dial and every
    // idempotent op get N extra attempts with seeded backoff. With the
    // default of 0 the behavior is the original single-shot client.
    let retries: u32 = flags
        .get("retries")
        .map(|s| parse_num(s, "retries"))
        .transpose()?
        .unwrap_or(0);
    let mut client =
        netserve::Client::connect_with_retry(addr, netserve::RetryPolicy::with_retries(retries))
            .map_err(|e| format!("connect {addr}: {e}"))?;
    match op {
        "ping" => {
            client.ping().map_err(|e| e.to_string())?;
            outln!("pong");
        }
        "load" => {
            let relation = relation.expect("load resolved its table above");
            let rows = client
                .load_relation(tenant, &relation)
                .map_err(|e| e.to_string())?;
            outln!("loaded {rows} row(s) into {tenant}/{}", relation.name());
        }
        "analyze" => {
            let buckets: u32 = flags
                .get("buckets")
                .map(|b| parse_num(b, "buckets"))
                .transpose()?
                .unwrap_or(10);
            let class = flags
                .get("class")
                .map(String::as_str)
                .unwrap_or("v_opt_end_biased");
            let (histograms, epoch) = client
                .analyze(tenant, class, buckets)
                .map_err(|e| e.to_string())?;
            outln!("analyzed {tenant}: {histograms} histogram(s), epoch {epoch}");
        }
        "estimate" => {
            let (estimate, sources) = client.estimate(tenant, sql).map_err(|e| e.to_string())?;
            let via = sources
                .iter()
                .map(|s| format!("{} [{}]", s.target, s.rung.name()))
                .collect::<Vec<_>>()
                .join(", ");
            outln!(
                "estimate {estimate:.0}   via {}",
                if via.is_empty() {
                    "<no statistics lookups>".to_string()
                } else {
                    via
                }
            );
        }
        "epoch" => {
            outln!("{}", client.epoch(tenant).map_err(|e| e.to_string())?);
        }
        "metrics" => {
            emit(
                format_args!("{}", client.metrics().map_err(|e| e.to_string())?),
                false,
            )?;
        }
        _ => {
            client.shutdown().map_err(|e| e.to_string())?;
            outln!("shutdown requested");
        }
    }
    Ok(())
}

/// Read-only crash recovery: replays the newest checksum-valid snapshot
/// plus the journal tail under `--data-dir` (truncating at the first
/// torn record) and prints what survived, without modifying the
/// directory.
fn cmd_recover(flags: &HashMap<String, String>) -> Result<(), String> {
    let dir = required(flags, "data-dir")?;
    let catalog =
        relstore::Catalog::recover(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    let mut one_d = catalog.snapshot_1d();
    one_d.sort_by(|a, b| (&a.0.relation, &a.0.columns).cmp(&(&b.0.relation, &b.0.columns)));
    let mut two_d = catalog.snapshot_2d();
    two_d.sort_by(|a, b| (&a.0.relation, &a.0.columns).cmp(&(&b.0.relation, &b.0.columns)));
    outln!(
        "recovered {dir}: {} column histogram(s), {} joint histogram(s)",
        one_d.len(),
        two_d.len()
    );
    for (key, hist, spec) in &one_d {
        outln!(
            "  {}({}): {} buckets, {} catalog entries, class {}, staleness {}",
            key.relation,
            key.columns.join(", "),
            hist.num_buckets(),
            hist.storage_entries(),
            spec.as_ref().map_or("unrecorded", |s| s.name()),
            catalog.staleness(key).unwrap_or(0)
        );
    }
    for (key, _, spec) in &two_d {
        outln!(
            "  joint {}({}): class {}",
            key.relation,
            key.columns.join(", "),
            spec.as_ref().map_or("unrecorded", |s| s.name())
        );
    }
    for (relation, updates) in catalog.version_snapshot() {
        outln!("  updates since last checkpoint: {relation} = {updates}");
    }
    Ok(())
}

/// Runs the oracle selftest: seed-deterministic differential checks of
/// the paper's theorems plus fault-injection scenarios, reported as JSON
/// on stdout. The report is byte-identical across runs with the same
/// seed and budget, so CI can diff it. Any violation — including a
/// check that silently did not run — exits nonzero.
fn cmd_selftest(flags: &HashMap<String, String>) -> Result<(), String> {
    let seed: u64 = flags
        .get("seed")
        .map(|s| parse_num(s, "seed"))
        .transpose()?
        .unwrap_or(1);
    let budget_ms: u64 = flags
        .get("budget-ms")
        .map(|s| parse_num(s, "budget-ms"))
        .transpose()?
        .unwrap_or(30_000);

    if let Some(path) = flags.get("snapshot") {
        let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
        let entries =
            oracle::verify_snapshot(bytes.into()).map_err(|e| format!("snapshot {path}: {e}"))?;
        eprintln!("histctl: snapshot {path} verified ({entries} catalog entries)");
    }
    if let Some(path) = flags.get("emit-snapshot") {
        let snap = oracle::reference_snapshot(seed)?;
        std::fs::write(path, snap.to_vec()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("histctl: wrote reference snapshot for seed {seed} to {path}");
    }

    let report = oracle::run(seed, budget_ms);
    outln!("{}", report.to_json());
    if report.passed {
        Ok(())
    } else {
        Err(format!(
            "selftest failed with {} violation(s); first: {}",
            report.violations.len(),
            report
                .violations
                .first()
                .map_or("<none recorded>", |v| v.as_str())
        ))
    }
}

/// One SplitMix64 step: the bench's only PRNG. Deterministic, seedable,
/// and dependency-free (the workspace deliberately keeps `rand` out of
/// release binaries), so two runs with the same `--seed` pick the same
/// query sequence.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds one 64-bit word into an FNV-1a digest byte-by-byte. Estimate
/// bit patterns go through this, so the digest certifies bit-identical
/// results, not merely "close" ones.
fn fnv1a(digest: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(digest, |d, &b| {
        (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One thread count's result: the op total and the digest of every
/// estimate's query index and bit pattern.
struct BenchRun {
    threads: usize,
    ops: u64,
    digest: u64,
}

/// The seeded op stream every bench transport drives.
struct OpStream<'a> {
    thread_counts: &'a [usize],
    seed: u64,
    /// Estimates per worker thread.
    ops: u64,
}

impl OpStream<'_> {
    /// The one worker loop behind both transports. At each thread
    /// count, every worker builds its estimator with `worker(index)` and
    /// issues `ops` estimates of pool queries drawn from a SplitMix64
    /// stream keyed by `(seed, threads, worker)`, folding each query
    /// index and estimate bit pattern into an FNV-1a digest. Worker
    /// digests fold in worker order, so the combined digest depends on
    /// neither the schedule nor the transport.
    fn run<F, W>(&self, pool_len: usize, worker: F) -> Result<Vec<BenchRun>, String>
    where
        F: Fn(usize) -> Result<W, String> + Sync,
        W: FnMut(usize) -> Result<f64, String>,
    {
        self.thread_counts
            .iter()
            .map(|&threads| {
                let digests: Vec<u64> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..threads)
                        .map(|index| {
                            let worker = &worker;
                            s.spawn(move || {
                                let mut estimate = worker(index)?;
                                let mut state = self.seed
                                    ^ ((threads as u64) << 32)
                                    ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                                let mut digest = FNV_OFFSET;
                                for _ in 0..self.ops {
                                    let idx = (splitmix64(&mut state) % pool_len as u64) as usize;
                                    digest = fnv1a(digest, idx as u64);
                                    digest = fnv1a(digest, estimate(idx)?.to_bits());
                                }
                                Ok(digest)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            h.join()
                                .unwrap_or_else(|_| Err("bench worker panicked".into()))
                        })
                        .collect::<Result<_, String>>()
                })?;
                Ok(BenchRun {
                    threads,
                    ops: self.ops * threads as u64,
                    digest: digests.into_iter().fold(FNV_OFFSET, fnv1a),
                })
            })
            .collect()
    }
}

/// Seeded estimation load harness whose result is a digest, not a
/// timing (`perfbench` owns timing). Builds an oracle-generated
/// relation set and query pool, then drives the seeded op stream at
/// each requested thread count: in process against a journaled catalog
/// whose maintenance daemon keeps re-ANALYZEing columns (so the catalog
/// epoch advances while readers run), or over the wire with `--remote`.
///
/// Determinism: every thread issues exactly `--ops` estimates, and the
/// churn daemon rebuilds histograms from *unchanged* relations with the
/// *same* builder spec — epochs advance but every recomputed estimate
/// is bit-identical, so the reported digest is byte-stable across
/// reruns with one `--seed` and equal across transports.
fn cmd_bench(flags: &HashMap<String, String>) -> Result<(), String> {
    if flags.contains_key("duration-ms") {
        return Err(
            "--duration-ms is no longer supported: bench runs a fixed --ops N \
             estimates per thread (default 2000)"
                .into(),
        );
    }
    let seed: u64 = flags
        .get("seed")
        .map(|s| parse_num(s, "seed"))
        .transpose()?
        .unwrap_or(42);
    let ops: u64 = flags
        .get("ops")
        .map(|s| parse_num(s, "ops"))
        .transpose()?
        .unwrap_or(2000);
    let workload = flags
        .get("workload")
        .map(String::as_str)
        .unwrap_or("selfjoin");
    if workload != "selfjoin" && workload != "chain" && workload != "range" {
        return Err(format!(
            "--workload must be 'selfjoin', 'chain', or 'range', got '{workload}'"
        ));
    }
    let buckets: usize = flags
        .get("buckets")
        .map(|b| parse_num(b, "buckets"))
        .transpose()?
        .unwrap_or(10);
    let spec = class_spec(flags, buckets)?;
    let thread_counts: Vec<usize> = flags
        .get("threads")
        .map(String::as_str)
        .unwrap_or("1,2,4")
        .split(',')
        .map(|t| parse_num::<usize>(t.trim(), "threads"))
        .collect::<Result<_, _>>()?;
    if thread_counts.is_empty() || thread_counts.contains(&0) {
        return Err("--threads needs a comma list of positive counts".into());
    }
    let stream = OpStream {
        thread_counts: &thread_counts,
        seed,
        ops,
    };

    // Relations and queries come from the oracle's seed-deterministic
    // workload generator, so `bench` exercises the same distribution
    // shapes (zipf, cusp, uniform, stepped, random) the selftest proves
    // correct. The same pool feeds both transports, which is what makes
    // the in-process and --remote digests comparable.
    let wl = oracle::Workload::generate(seed, oracle::Tier::Quick);
    let (relations, sql_pool) = bench_workload(&wl, workload)?;
    let remote = flags.get("remote");
    let runs = match remote {
        Some(addr) => {
            let class = flags
                .get("class")
                .map(String::as_str)
                .unwrap_or("v_opt_end_biased");
            let retries: u32 = flags
                .get("retries")
                .map(|s| parse_num(s, "retries"))
                .transpose()?
                .unwrap_or(0);
            bench_runs_remote(
                &stream,
                addr,
                class,
                buckets as u32,
                &relations,
                &sql_pool,
                retries,
            )?
        }
        None => bench_runs_local(&stream, &relations, &sql_pool, spec)?,
    };
    let (probe_hit, probe_matches) = bench_cache_probe(seed, spec)?;

    let transport = if remote.is_some() {
        "remote"
    } else {
        "inprocess"
    };
    let json = {
        let runs: Vec<String> = runs
            .iter()
            .map(|r| {
                format!(
                    "{{\"threads\":{},\"ops\":{},\"digest\":\"{:016x}\"}}",
                    r.threads, r.ops, r.digest
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"histctl-bench-v2\",\"seed\":{seed},\"workload\":\"{workload}\",\
             \"transport\":\"{transport}\",\"class\":\"{}\",\"buckets\":{buckets},\
             \"queries\":{},\"runs\":[{}],\
             \"probe\":{{\"cache_hit\":{probe_hit},\"matches_uncached\":{probe_matches}}}}}",
            spec.name(),
            sql_pool.len(),
            runs.join(",")
        )
    };
    if let Some(path) = flags.get("out") {
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("write {path}: {e}"))?;
    }
    if flags.contains_key("json") {
        outln!("{json}");
    } else {
        outln!(
            "bench: workload={workload} transport={transport} seed={seed} queries={} \
             ops/thread={ops}",
            sql_pool.len()
        );
        for r in &runs {
            outln!(
                "  threads {:>2}: {:>8} ops  digest {:016x}",
                r.threads,
                r.ops,
                r.digest
            );
        }
        outln!(
            "  cache probe: repeat hit {probe_hit}, bits and trail equal uncached {probe_matches}"
        );
    }
    Ok(())
}

/// The deterministic cache check on a join over a wide domain (2048
/// distinct values): estimates it twice through the cache and once
/// uncached. Returns whether the first estimate computed and the repeat
/// was a cache hit, and whether the hit returned the uncached estimate's
/// bits and `StatsUse` trail.
fn bench_cache_probe(seed: u64, spec: BuilderSpec) -> Result<(bool, bool), String> {
    let mut probe = engine::Engine::new();
    for (name, rows, z, sub) in [
        ("probe_l", 200_000u64, 1.1f64, 0xabcdu64),
        ("probe_r", 180_000, 0.9, 0xdcba),
    ] {
        let freqs = zipf_frequencies(rows, 2048, z).map_err(|e| e.to_string())?;
        let rel = relation_from_frequency_set(name, "v", &freqs, seed ^ sub)
            .map_err(|e| e.to_string())?;
        probe.register(rel);
    }
    probe.analyze_all_with(spec).map_err(|e| e.to_string())?;
    let pq = probe
        .parse("SELECT COUNT(*) FROM probe_l, probe_r WHERE probe_l.v = probe_r.v")
        .map_err(|e| e.to_string())?;
    let (_, _, first) = probe
        .estimate_with_provenance(&pq)
        .map_err(|e| e.to_string())?;
    let (cached, cached_trail, repeat) = probe
        .estimate_with_provenance(&pq)
        .map_err(|e| e.to_string())?;
    let (uncached, uncached_trail) = probe
        .estimate_with_sources_uncached(&pq)
        .map_err(|e| e.to_string())?;
    Ok((
        !first.cache_hit && repeat.cache_hit,
        cached.to_bits() == uncached.to_bits() && cached_trail == uncached_trail,
    ))
}

/// Builds the bench's relations (each a single column `v`) and SQL
/// query pool for one workload shape. One source of truth shared by the
/// in-process and `--remote` transports: both drive the identical query
/// stream over identical relations, which is what makes their result
/// digests directly comparable.
fn bench_workload(
    wl: &oracle::Workload,
    workload: &str,
) -> Result<(Vec<Relation>, Vec<String>), String> {
    // Every relation is one medium set's frequencies in a column `v`,
    // seeded with the workload's `sub`-th subseed.
    let relation = |name: String, set: &oracle::workload::NamedSet, sub: u64| {
        relation_from_frequency_set(name, "v", &set.freqs, wl.subseed(sub))
            .map_err(|e| e.to_string())
    };
    let mut relations = Vec::new();
    let mut sql_pool: Vec<String> = Vec::new();
    match workload {
        "selfjoin" => {
            // One left/right relation pair per medium set; queries are
            // the pair's join, point selections on both sides, and the
            // join with a residual filter.
            for (i, set) in wl.medium_sets.iter().enumerate() {
                let n = set.freqs.len();
                for (suffix, sub) in [("l", 0u64), ("r", 1u64)] {
                    relations.push(relation(format!("t{i}{suffix}"), set, 2 * i as u64 + sub)?);
                }
                sql_pool.push(format!(
                    "SELECT COUNT(*) FROM t{i}l, t{i}r WHERE t{i}l.v = t{i}r.v"
                ));
                sql_pool.push(format!("SELECT COUNT(*) FROM t{i}l WHERE t{i}l.v = 0"));
                sql_pool.push(format!(
                    "SELECT COUNT(*) FROM t{i}r WHERE t{i}r.v = {}",
                    n / 2
                ));
                sql_pool.push(format!(
                    "SELECT COUNT(*) FROM t{i}l, t{i}r WHERE t{i}l.v = t{i}r.v AND t{i}l.v = {}",
                    n - 1
                ));
            }
        }
        "range" => {
            // One left/right pair per medium set; queries mix every
            // predicate shape the value-carrying buckets answer — point
            // equality, one-sided comparisons, BETWEEN, and band joins —
            // so cache fingerprints and interpolation both run hot
            // while the ANALYZE churn advances the epoch underneath.
            for (i, set) in wl.medium_sets.iter().enumerate() {
                let n = set.freqs.len() as u64;
                for (suffix, sub) in [("l", 0u64), ("r", 1u64)] {
                    relations.push(relation(format!("t{i}{suffix}"), set, 2 * i as u64 + sub)?);
                }
                let (q1, mid, q3) = (n / 4, n / 2, 3 * n / 4);
                sql_pool.push(format!("SELECT COUNT(*) FROM t{i}l WHERE t{i}l.v = {mid}"));
                sql_pool.push(format!("SELECT COUNT(*) FROM t{i}l WHERE t{i}l.v < {mid}"));
                sql_pool.push(format!("SELECT COUNT(*) FROM t{i}r WHERE t{i}r.v >= {q3}"));
                sql_pool.push(format!(
                    "SELECT COUNT(*) FROM t{i}r WHERE t{i}r.v BETWEEN {q1} AND {q3}"
                ));
                sql_pool.push(format!(
                    "SELECT COUNT(*) FROM t{i}l, t{i}r WHERE abs(t{i}l.v - t{i}r.v) <= 1"
                ));
                sql_pool.push(format!(
                    "SELECT COUNT(*) FROM t{i}l, t{i}r \
                     WHERE abs(t{i}l.v - t{i}r.v) <= 2 AND t{i}l.v >= {q1}"
                ));
            }
        }
        _ => {
            // One relation per medium set; queries chain consecutive
            // relations two and three deep (§2.2's vector/matrix shape
            // collapsed to shared-domain chains).
            for (i, set) in wl.medium_sets.iter().enumerate() {
                relations.push(relation(format!("c{i}"), set, i as u64)?);
            }
            let m = wl.medium_sets.len();
            for i in 0..m.saturating_sub(2) {
                let (a, b, c) = (i, i + 1, i + 2);
                sql_pool.push(format!(
                    "SELECT COUNT(*) FROM c{a}, c{b} WHERE c{a}.v = c{b}.v"
                ));
                sql_pool.push(format!(
                    "SELECT COUNT(*) FROM c{a}, c{b}, c{c} \
                     WHERE c{a}.v = c{b}.v AND c{b}.v = c{c}.v"
                ));
                sql_pool.push(format!(
                    "SELECT COUNT(*) FROM c{a}, c{b}, c{c} \
                     WHERE c{a}.v = c{b}.v AND c{b}.v = c{c}.v AND c{a}.v = {i}"
                ));
            }
        }
    }
    Ok((relations, sql_pool))
}

/// In-process bench transport: the engine attached to a journaled
/// catalog whose maintenance daemon keeps re-ANALYZEing columns, so the
/// catalog epoch advances under the workers' feet.
fn bench_runs_local(
    stream: &OpStream<'_>,
    relations: &[Relation],
    sql_pool: &[String],
    spec: BuilderSpec,
) -> Result<Vec<BenchRun>, String> {
    use relstore::{Daemon, DaemonConfig, DaemonCore, DurableCatalog};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let mut eng = engine::Engine::new();
    let dir = std::env::temp_dir().join(format!("histctl_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(DurableCatalog::open(&dir).map_err(|e| e.to_string())?);
    eng.attach_catalog(store.catalog_arc());

    let mut core = DaemonCore::new(DaemonConfig {
        jitter_seed: stream.seed,
        ..DaemonConfig::default()
    });
    let mut rel_names = Vec::new();
    for rel in relations {
        core.register_with_spec(Arc::new(rel.clone()), "v", spec);
        rel_names.push(rel.name().to_string());
        eng.register(rel.clone());
    }
    eng.analyze_all_with(spec).map_err(|e| e.to_string())?;
    let pool: Vec<engine::ast::Query> = sql_pool
        .iter()
        .map(|sql| eng.parse(sql).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    // Churn: a background thread marks relations dirty and triggers
    // daemon sweeps, so the daemon keeps journaling fresh ANALYZE
    // results and the catalog epoch advances under the readers' feet.
    let daemon = Daemon::spawn(
        core,
        Arc::clone(&store),
        Duration::from_millis(3_600_000), // manual sweeps only
    );
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let stop = Arc::clone(&stop);
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            // One sweep at least, even when the run stops before this
            // thread is first scheduled.
            for i in 0.. {
                let _ = store.note_updates(&rel_names[i % rel_names.len()], 300);
                daemon.sweep_now();
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            daemon.stop()
        })
    };

    let (eng, pool) = (&eng, &pool);
    let runs = stream.run(pool.len(), move |_| {
        Ok(move |idx: usize| eng.estimate(&pool[idx]).map_err(|e| e.to_string()))
    });
    stop.store(true, Ordering::Relaxed);
    churn
        .join()
        .map_err(|_| "churn thread panicked".to_string())?;
    let _ = std::fs::remove_dir_all(&dir);
    runs
}

/// Remote bench transport: the bench relations loaded into a `bench`
/// tenant of a `serve --listen` server and ANALYZEd once, then the same
/// op stream over VOHW, one connection per worker. There is no churn
/// daemon on this path, and the oracle's `wire_equals_inprocess`
/// invariant guarantees every wire estimate is bit-identical to its
/// in-process twin, so the digests must equal an in-process run's with
/// the same seed and op count.
fn bench_runs_remote(
    stream: &OpStream<'_>,
    addr: &str,
    class: &str,
    buckets: u32,
    relations: &[Relation],
    sql_pool: &[String],
    retries: u32,
) -> Result<Vec<BenchRun>, String> {
    const TENANT: &str = "bench";
    let seed = stream.seed;
    let mut admin = netserve::Client::connect_with_retry(addr, bench_retry_policy(seed, retries))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    for rel in relations {
        // The typed client only replays LOAD_RELATION on connect-phase
        // failures (a half-delivered mutation must not be blindly
        // resent). The bench knows more: its loads are idempotent
        // upserts of a deterministic relation, so re-driving the whole
        // call after any transport failure converges to the same
        // catalog. That is what lets `bench --remote --retries` run
        // through the chaos proxy end to end.
        let mut attempt = 0;
        loop {
            match admin.load_relation(TENANT, rel) {
                Ok(_) => break,
                Err(netserve::ClientError::Io(_)) if attempt < retries => attempt += 1,
                Err(e) => return Err(format!("load {}: {e}", rel.name())),
            }
        }
    }
    admin
        .analyze(TENANT, class, buckets)
        .map_err(|e| format!("remote ANALYZE: {e}"))?;

    stream.run(sql_pool.len(), |worker| {
        // Distinct jitter seeds per worker so retrying clients fan out
        // instead of stampeding.
        let policy = bench_retry_policy(seed ^ (worker as u64 + 1), retries);
        let mut client = netserve::Client::connect_with_retry(addr, policy)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(move |idx: usize| {
            client
                .estimate(TENANT, &sql_pool[idx])
                .map(|(est, _)| est)
                .map_err(|e| format!("remote estimate: {e}"))
        })
    })
}

/// The remote bench's retry schedule: short backoffs (5 ms base,
/// 100 ms cap) because the chaos proxy guarantees every third
/// connection is clean — convergence needs persistence, not patience.
fn bench_retry_policy(seed: u64, retries: u32) -> netserve::RetryPolicy {
    netserve::RetryPolicy {
        retries,
        backoff_base: std::time::Duration::from_millis(5),
        backoff_max: std::time::Duration::from_millis(100),
        seed,
        ..netserve::RetryPolicy::default()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = parse_flags(rest).and_then(|flags| {
        let outcome = match command.as_str() {
            "generate" => cmd_generate(&flags),
            "analyze" => cmd_analyze(&flags),
            "inspect" => cmd_inspect(&flags),
            "estimate-eq" => cmd_estimate_eq(&flags),
            "estimate-join" => cmd_estimate_join(&flags),
            "query" => cmd_query(&flags),
            "metrics" => cmd_metrics(&flags),
            "trace" => cmd_trace(&flags),
            "top" => cmd_top(&flags),
            "serve" => cmd_serve(&flags),
            "tune" => cmd_tune(&flags),
            "client" => cmd_client(&flags),
            "chaos" => cmd_chaos(&flags),
            "recover" => cmd_recover(&flags),
            "selftest" => cmd_selftest(&flags),
            "bench" => cmd_bench(&flags),
            "-h" | "--help" | "help" => {
                outln!("{USAGE}");
                Ok(())
            }
            other => Err(format!("unknown command '{other}'\n{USAGE}")),
        };
        // The shared flight-recorder dump: after any subcommand, write
        // whatever the recorder buffered while the command ran. The
        // summary goes to stderr so stdout stays the command's payload.
        match (outcome, flags.get("trace-out")) {
            (Ok(()), Some(path)) => {
                let format = flags
                    .get("trace-format")
                    .map(String::as_str)
                    .unwrap_or("jsonl");
                let (events, dropped) = write_trace(path, format)?;
                eprintln!(
                    "histctl: dumped {events} trace event(s) ({dropped} dropped so far) \
                     to {path} ({format})"
                );
                Ok(())
            }
            (outcome, _) => outcome,
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("histctl: {e}");
            ExitCode::from(2)
        }
    }
}
