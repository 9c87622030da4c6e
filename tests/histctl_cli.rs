//! CLI-level tests for `histctl`, driving the real binary: the builder
//! registry is the single source of histogram-class names, so unknown
//! `--class` values must fail with the registry's error (listing every
//! valid name) on stderr and a nonzero exit code, while every valid name
//! analyzes cleanly.

use std::path::PathBuf;
use std::process::{Command, Output};

fn histctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_histctl"))
        .args(args)
        .output()
        .expect("histctl binary runs")
}

/// A scratch directory unique to this test binary's process.
fn scratch(file: &str) -> String {
    let mut dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    dir.push("histctl_cli");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.push(file);
    dir.to_str().expect("utf-8 path").to_string()
}

fn generate_csv(name: &str) -> String {
    let csv = scratch(name);
    let out = histctl(&[
        "generate",
        "--rows",
        "5000",
        "--distinct",
        "100",
        "--skew",
        "1.0",
        "--out",
        &csv,
    ]);
    assert!(out.status.success(), "generate failed: {out:?}");
    csv
}

#[test]
fn unknown_class_fails_listing_valid_names() {
    let csv = generate_csv("unknown_class.csv");
    let voh = scratch("unknown_class.voh");
    let out = histctl(&[
        "analyze",
        "--input",
        &csv,
        "--column",
        "value",
        "--buckets",
        "5",
        "--out",
        &voh,
        "--class",
        "zipf_magic",
    ]);
    assert!(!out.status.success(), "unknown class must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown histogram class 'zipf_magic'"),
        "stderr should name the bad class: {stderr}"
    );
    // The registry's error lists every valid spelling.
    for name in ["v_opt_end_biased", "v_opt_serial", "max_diff", "equi_depth"] {
        assert!(stderr.contains(name), "stderr should list {name}: {stderr}");
    }
    assert!(
        String::from_utf8_lossy(&out.stdout).is_empty(),
        "errors must not pollute stdout"
    );
}

#[test]
fn every_registry_class_analyzes() {
    let csv = generate_csv("all_classes.csv");
    for class in [
        "trivial",
        "equi_width",
        "equi_depth",
        "v_opt_serial",
        "v_opt_end_biased",
        "max_diff",
        "end_biased:2,1",
    ] {
        let voh = scratch(&format!("{}.voh", class.replace([':', ','], "_")));
        let out = histctl(&[
            "analyze",
            "--input",
            &csv,
            "--column",
            "value",
            "--buckets",
            "5",
            "--out",
            &voh,
            "--class",
            class,
        ]);
        assert!(
            out.status.success(),
            "--class {class} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let inspect = histctl(&["inspect", "--hist", &voh]);
        assert!(inspect.status.success(), "inspect failed for {class}");
    }
}

#[test]
fn class_flag_reaches_query_pipeline() {
    let csv = generate_csv("query_class.csv");
    let out = histctl(&[
        "query",
        "--sql",
        "SELECT COUNT(*) FROM t WHERE t.value = 0",
        "--tables",
        &format!("t={csv}"),
        "--class",
        "max_diff",
    ]);
    assert!(
        out.status.success(),
        "query with --class failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("class=max_diff"),
        "estimate line should echo the class: {stdout}"
    );
}

#[test]
fn serve_then_recover_round_trips_the_journaled_catalog() {
    let csv = generate_csv("serve.csv");
    let data_dir = scratch("serve_store");
    let _ = std::fs::remove_dir_all(&data_dir);

    let serve = histctl(&[
        "serve",
        "--data-dir",
        &data_dir,
        "--tables",
        &format!("orders={csv}"),
        "--sweeps",
        "3",
        "--buckets",
        "6",
    ]);
    assert!(
        serve.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&serve.stderr)
    );
    let stdout = String::from_utf8_lossy(&serve.stdout);
    assert!(
        stdout.contains("3 sweep(s) over 1 column(s)"),
        "serve should report its bounded run: {stdout}"
    );
    // The first sweep analyzes the column; later sweeps find it fresh.
    assert!(
        stdout.contains("tick 1: refreshed orders(value)"),
        "serve should trace the refresh: {stdout}"
    );
    assert!(
        stdout.contains("breakers: 1 closed, 0 open, 0 half-open"),
        "healthy run keeps the breaker closed: {stdout}"
    );

    let recover = histctl(&["recover", "--data-dir", &data_dir]);
    assert!(
        recover.status.success(),
        "recover failed: {}",
        String::from_utf8_lossy(&recover.stderr)
    );
    let recovered = String::from_utf8_lossy(&recover.stdout);
    assert!(
        recovered.contains("1 column histogram(s)"),
        "recover should find the daemon's histogram: {recovered}"
    );
    assert!(
        recovered.contains("orders(value): 6 buckets"),
        "recover should list the entry: {recovered}"
    );
}

#[test]
fn recover_survives_a_torn_journal_tail() {
    let csv = generate_csv("torn.csv");
    let data_dir = scratch("torn_store");
    let _ = std::fs::remove_dir_all(&data_dir);
    let serve = histctl(&[
        "serve",
        "--data-dir",
        &data_dir,
        "--tables",
        &format!("t={csv}"),
        "--sweeps",
        "1",
    ]);
    assert!(serve.status.success());

    // Simulate a crash mid-append: a torn half-frame at the journal tail
    // (a length prefix promising more bytes than exist).
    let journal = PathBuf::from(&data_dir).join("journal.0000000000000000.wal");
    let mut bytes = std::fs::read(&journal).expect("read journal");
    bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xAB]);
    std::fs::write(&journal, &bytes).expect("write torn journal");

    let recover = histctl(&["recover", "--data-dir", &data_dir]);
    assert!(
        recover.status.success(),
        "recover must tolerate a torn tail: {}",
        String::from_utf8_lossy(&recover.stderr)
    );
    let recovered = String::from_utf8_lossy(&recover.stdout);
    assert!(
        recovered.contains("1 column histogram(s)"),
        "the committed prefix must survive: {recovered}"
    );
}

#[test]
fn recover_on_a_missing_directory_is_an_empty_catalog() {
    let data_dir = scratch("never_served");
    let _ = std::fs::remove_dir_all(&data_dir);
    let recover = histctl(&["recover", "--data-dir", &data_dir]);
    assert!(
        recover.status.success(),
        "recovering nothing is a fresh catalog, not an error: {}",
        String::from_utf8_lossy(&recover.stderr)
    );
    let recovered = String::from_utf8_lossy(&recover.stdout);
    assert!(
        recovered.contains("0 column histogram(s), 0 joint histogram(s)"),
        "empty recovery should say so: {recovered}"
    );
}

#[test]
fn metrics_exposition_covers_durability_and_ladder_families() {
    let out = histctl(&["metrics", "--format", "prometheus", "--buckets", "6"]);
    assert!(
        out.status.success(),
        "metrics failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for family in [
        "wal_journal_bytes",
        "daemon_breaker_closed",
        "daemon_breaker_open",
        "daemon_breaker_half_open",
        "daemon_sweep_seconds",
        r#"estimate_rung_total{rung="uniform"}"#,
        "wal_torn_tail_total",
        "qerror_drift_events_total",
        "qerror_nonfinite_dropped_total",
        "trace_events_dropped_total",
        r#"qerror_ewma{rung="spec"}"#,
        r#"qerror_ewma{rung="uniform"}"#,
    ] {
        assert!(
            text.contains(family),
            "exposition should cover {family}: got {} bytes of text",
            text.len()
        );
    }
    // The demo workload estimates with fresh statistics, so the spec
    // rung must have actually been exercised, not just registered.
    let spec_line = text
        .lines()
        .find(|l| l.starts_with(r#"estimate_rung_total{rung="spec"}"#))
        .expect("spec rung counter line");
    let count: u64 = spec_line
        .rsplit(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("counter value parses");
    assert!(
        count > 0,
        "demo workload should hit the spec rung: {spec_line}"
    );
}

#[test]
fn selftest_is_byte_identical_across_reruns() {
    let first = histctl(&["selftest", "--seed", "3", "--budget-ms", "0"]);
    assert!(
        first.status.success(),
        "selftest failed: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = histctl(&["selftest", "--seed", "3", "--budget-ms", "0"]);
    assert!(second.status.success());
    assert_eq!(
        first.stdout, second.stdout,
        "same seed and budget must produce byte-identical JSON"
    );
    let report = String::from_utf8_lossy(&first.stdout);
    assert!(report.contains("\"passed\":true"), "report: {report}");
    assert!(report.contains("\"seed\":3"), "report: {report}");
    assert!(
        report.contains("tracing_transparent"),
        "selftest must run the tracing-transparency invariant: {report}"
    );

    let other = histctl(&["selftest", "--seed", "4", "--budget-ms", "0"]);
    assert!(other.status.success());
    assert_ne!(
        first.stdout, other.stdout,
        "different seeds must exercise different workloads"
    );
}

#[test]
fn selftest_rejects_a_corrupted_snapshot() {
    let snap = scratch("selftest_ref.snap");
    let out = histctl(&[
        "selftest",
        "--seed",
        "2",
        "--budget-ms",
        "0",
        "--emit-snapshot",
        &snap,
    ]);
    assert!(
        out.status.success(),
        "emit-snapshot failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The pristine snapshot verifies.
    let ok = histctl(&[
        "selftest",
        "--seed",
        "2",
        "--budget-ms",
        "0",
        "--snapshot",
        &snap,
    ]);
    assert!(
        ok.status.success(),
        "clean snapshot rejected: {}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // Flip one byte in the middle: the run must exit nonzero with the
    // error on stderr, before any checks execute.
    let mut bytes = std::fs::read(&snap).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    let bad = scratch("selftest_bad.snap");
    std::fs::write(&bad, &bytes).expect("write corrupted snapshot");
    let err = histctl(&[
        "selftest",
        "--seed",
        "2",
        "--budget-ms",
        "0",
        "--snapshot",
        &bad,
    ]);
    assert!(
        !err.status.success(),
        "corrupted snapshot must exit nonzero"
    );
    let stderr = String::from_utf8_lossy(&err.stderr);
    assert!(
        stderr.contains("snapshot") && stderr.contains(&bad),
        "stderr should name the snapshot: {stderr}"
    );
    assert!(
        String::from_utf8_lossy(&err.stdout).is_empty(),
        "a rejected snapshot must not emit a report on stdout"
    );
}

/// Extracts every `"digest":"..."` value from a bench JSON report.
fn digests_of(json: &str) -> Vec<String> {
    json.split("\"digest\":\"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap().to_string())
        .collect()
}

/// Extracts every `"ops":N` value from a bench JSON report.
fn ops_of(json: &str) -> Vec<u64> {
    json.split("\"ops\":")
        .skip(1)
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .expect("ops value")
        })
        .collect()
}

#[test]
fn bench_reports_the_full_schema_with_nonzero_ops() {
    let out = histctl(&[
        "bench",
        "--threads",
        "1,2",
        "--ops",
        "60",
        "--seed",
        "11",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "bench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    for field in [
        "\"schema\":\"histctl-bench-v2\"",
        "\"seed\":11",
        "\"workload\":\"selfjoin\"",
        "\"transport\":\"inprocess\"",
        "\"threads\":1",
        "\"threads\":2",
        "\"digest\":\"",
        "\"probe\":{\"cache_hit\":true,\"matches_uncached\":true}",
    ] {
        assert!(json.contains(field), "report missing {field}: {json}");
    }
    // The report is digests only: timing, hit-rate, speedup and
    // nodelay fields are perfbench's business.
    for gone in [
        "elapsed_ms",
        "throughput",
        "p50_ns",
        "p99_ns",
        "hit_rate",
        "evictions",
        "speedup",
        "nodelay",
    ] {
        assert!(!json.contains(gone), "report still carries {gone}: {json}");
    }
    // Per-thread fixed op counts: 1×60 and 2×60.
    assert_eq!(ops_of(&json), vec![60, 120], "fixed --ops counts: {json}");
}

/// The `(threads, ops, digest)` triples of a bench JSON report.
fn runs_of(json: &str) -> Vec<(u64, u64, String)> {
    let threads = json.split("\"threads\":").skip(1).map(|rest| {
        rest.chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("threads value")
    });
    threads
        .zip(ops_of(json))
        .zip(digests_of(json))
        .map(|((t, o), d)| (t, o, d))
        .collect()
}

#[test]
fn bench_reproduces_the_committed_digests() {
    for (workload, artifact) in [("selfjoin", "BENCH_pr5.json"), ("range", "BENCH_pr7.json")] {
        let path = format!("{}/{artifact}", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("committed bench artifact");
        let out = histctl(&[
            "bench",
            "--workload",
            workload,
            "--threads",
            "1,2,4,8",
            "--ops",
            "2000",
            "--seed",
            "1",
            "--json",
        ]);
        assert!(
            out.status.success(),
            "bench failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let fresh = runs_of(&String::from_utf8_lossy(&out.stdout));
        assert_eq!(fresh.len(), 4, "one run per thread count: {fresh:?}");
        assert_eq!(
            fresh,
            runs_of(&committed),
            "{workload} digests must equal {artifact}'s"
        );
    }
}

#[test]
fn bench_digest_is_identical_across_reruns_with_one_seed() {
    let run = || {
        let out = histctl(&[
            "bench",
            "--threads",
            "1,2",
            "--ops",
            "80",
            "--workload",
            "chain",
            "--seed",
            "23",
            "--json",
        ]);
        assert!(
            out.status.success(),
            "bench failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let (a, b) = (run(), run());
    let (da, db) = (digests_of(&a), digests_of(&b));
    assert_eq!(da.len(), 2, "one digest per thread count: {a}");
    assert_eq!(da, db, "reruns with one --seed must agree bitwise");
    assert_eq!(ops_of(&a), ops_of(&b));
    // A different seed picks different query sequences.
    let out = histctl(&[
        "bench",
        "--threads",
        "1,2",
        "--ops",
        "80",
        "--workload",
        "chain",
        "--seed",
        "24",
        "--json",
    ]);
    assert!(out.status.success());
    let other = digests_of(&String::from_utf8_lossy(&out.stdout));
    assert_ne!(da, other, "different seeds must not collide");
}

#[test]
fn bench_writes_the_report_file_and_summarizes_the_cache_probe() {
    let path = scratch("bench_out.json");
    let out = histctl(&[
        "bench",
        "--threads",
        "1",
        "--ops",
        "40",
        "--seed",
        "5",
        "--out",
        &path,
    ]);
    assert!(
        out.status.success(),
        "bench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Human summary on stdout, full JSON in the file.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("cache probe: repeat hit true, bits and trail equal uncached true"),
        "summary: {stdout}"
    );
    let json = std::fs::read_to_string(&path).expect("report file");
    assert!(
        json.starts_with("{\"schema\":\"histctl-bench-v2\""),
        "{json}"
    );
    assert!(
        json.ends_with("}\n"),
        "report must be one JSON line: {json}"
    );
}

#[test]
fn bench_rejects_unknown_workloads_and_zero_threads() {
    let bad = histctl(&["bench", "--workload", "starjoin", "--ops", "1"]);
    assert!(!bad.status.success(), "unknown workload must exit nonzero");
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("workload"),
        "stderr should name the flag"
    );
    let zero = histctl(&["bench", "--threads", "0", "--ops", "1"]);
    assert!(!zero.status.success(), "zero threads must exit nonzero");
    // A stale wall-clock command line fails instead of silently running
    // the default op count.
    let stale = histctl(&["bench", "--duration-ms", "500"]);
    assert!(!stale.status.success(), "--duration-ms must exit nonzero");
    assert!(
        String::from_utf8_lossy(&stale.stderr).contains("--ops"),
        "the error names the replacement flag: {stale:?}"
    );
}

/// The sequence of `"event":"..."` names in a trace dump, in order.
fn event_names_of(jsonl: &str) -> Vec<String> {
    jsonl
        .lines()
        .skip(1)
        .map(|line| {
            line.split("\"event\":\"")
                .nth(1)
                .unwrap_or_else(|| panic!("no event field in {line}"))
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn trace_dumps_provenance_jsonl_deterministic_under_seed() {
    let run = |file: &str| {
        let path = scratch(file);
        let out = histctl(&["trace", "--out", &path, "--seed", "7"]);
        assert!(
            out.status.success(),
            "trace failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("trace: wrote"),
            "summary line expected"
        );
        std::fs::read_to_string(&path).expect("trace file")
    };
    let text = run("trace_a.jsonl");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].contains("\"schema\":\"histctl-trace-v1\""),
        "header: {}",
        lines[0]
    );
    assert_eq!(
        lines.len() - 1,
        lines[0]
            .split("\"events\":")
            .nth(1)
            .and_then(|r| r.split([',', '}']).next())
            .and_then(|n| n.parse::<usize>().ok())
            .expect("events count in header"),
        "header event count must match the body"
    );
    // Every event line carries the merge-ordering and causal fields,
    // and the global sequence is strictly increasing.
    let mut last_seq = 0u64;
    for line in &lines[1..] {
        for field in [
            "\"seq\":",
            "\"ts_ns\":",
            "\"thread\":",
            "\"span\":",
            "\"parent\":",
        ] {
            assert!(line.contains(field), "missing {field}: {line}");
        }
        let seq: u64 = line
            .split("\"seq\":")
            .nth(1)
            .and_then(|r| r.split(',').next())
            .and_then(|n| n.parse().ok())
            .expect("seq parses");
        assert!(seq > last_seq, "seq must be strictly increasing: {line}");
        last_seq = seq;
    }
    // The demo workload touches every estimation layer: spans, cache
    // probes, rung choices, and statistics resolutions all show up.
    let names = event_names_of(&text);
    for expected in [
        "span_open",
        "span_close",
        "cache_miss",
        "rung",
        "stats_resolved",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "trace should record {expected}: {names:?}"
        );
    }
    // Reruns with the same seed replay the same workload: the event
    // sequence (names, in order) is identical even though timings vary.
    let again = run("trace_b.jsonl");
    assert_eq!(names, event_names_of(&again), "same seed, same events");
}

#[test]
fn trace_chrome_format_loads_as_trace_events() {
    let path = scratch("trace.chrome.json");
    let out = histctl(&["trace", "--out", &path, "--format", "chrome", "--seed", "7"]);
    assert!(
        out.status.success(),
        "chrome trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("chrome trace file");
    assert!(text.starts_with("{\"traceEvents\":["), "envelope: {text}");
    assert!(text.contains("\"ph\":\"X\""), "spans become X events");
    assert!(text.contains("\"ph\":\"i\""), "instants become i events");
    assert!(
        !text.contains("span_open"),
        "opens are implied by complete events"
    );
    let bad = histctl(&["trace", "--out", &path, "--format", "xml"]);
    assert!(!bad.status.success(), "unknown format must exit nonzero");
}

#[test]
fn top_ranks_columns_deterministically() {
    let run = || {
        let out = histctl(&["top", "--by", "max-q", "--seed", "9"]);
        assert!(
            out.status.success(),
            "top failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed must rank identically, byte for byte");
    assert!(a.contains("top columns by max-q"), "header: {a}");
    // The demo workload's engine phase estimates over orders and stock,
    // so both columns have per-column quality scopes to rank.
    for column in ["orders.part", "stock.part"] {
        assert!(a.contains(column), "should rank {column}: {a}");
    }
    assert!(a.contains("  1. "), "ranked list starts at 1: {a}");
    let bad = histctl(&["top", "--by", "p99"]);
    assert!(!bad.status.success(), "unknown ranking must exit nonzero");
}

#[test]
fn any_command_dumps_the_recorder_via_trace_out() {
    let path = scratch("bench_trace.jsonl");
    let out = histctl(&[
        "bench",
        "--threads",
        "1",
        "--ops",
        "30",
        "--seed",
        "5",
        "--json",
        "--trace-out",
        &path,
    ]);
    assert!(
        out.status.success(),
        "bench --trace-out failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The bench report still owns stdout; the dump summary goes to stderr.
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"schema\":\"histctl-bench-v2\""),
        "bench JSON stays on stdout"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("trace event(s)"),
        "dump summary on stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("trace file");
    assert!(
        text.lines()
            .next()
            .unwrap()
            .contains("\"schema\":\"histctl-trace-v1\""),
        "header: {text}"
    );
    let names = event_names_of(&text);
    // The bench drives the full stack: cached estimates (hits after the
    // first probe), daemon sweeps, and WAL appends from the churn's
    // re-ANALYZE refreshes — all from threads that exited before the
    // dump, proving ring retirement keeps worker events.
    for expected in ["cache_hit", "daemon_sweep", "wal_append"] {
        assert!(
            names.iter().any(|n| n == expected),
            "bench trace should record {expected}: {names:?}"
        );
    }
}

// --- serve --listen / client / bench --remote ------------------------

/// A `histctl serve --listen` subprocess bound to an ephemeral port.
/// Reads the first stdout line to learn the kernel-picked address and
/// kills the process on drop so a failing test never leaks a listener.
struct ServeGuard {
    child: std::process::Child,
    addr: String,
    stdout: std::io::BufReader<std::process::ChildStdout>,
}

impl ServeGuard {
    fn start(tenants_dir: &str, extra: &[&str]) -> ServeGuard {
        use std::io::BufRead;
        let mut child = Command::new(env!("CARGO_BIN_EXE_histctl"))
            .args(["serve", "--listen", "127.0.0.1:0", "--tenants", tenants_dir])
            .args(extra)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn histctl serve");
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("serve stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first).expect("serve banner");
        let addr = first
            .split_whitespace()
            .nth(2)
            .unwrap_or_else(|| panic!("no address in serve banner: {first:?}"))
            .to_string();
        assert!(
            addr.starts_with("127.0.0.1:") && !addr.ends_with(":0"),
            "serve must report the bound ephemeral port, got {addr:?} in {first:?}"
        );
        ServeGuard {
            child,
            addr,
            stdout,
        }
    }

    /// Waits for the server to exit after a client-requested SHUTDOWN
    /// and returns its remaining stdout (the checkpoint summary line).
    fn wait(mut self) -> String {
        use std::io::Read;
        let status = self.child.wait().expect("serve exit status");
        assert!(status.success(), "serve exited nonzero: {status:?}");
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("serve stdout tail");
        // Disarm the drop kill: the child is already reaped.
        std::mem::forget(self);
        rest
    }
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn serve_listen_client_round_trip_checkpoints_on_shutdown() {
    let tenants = scratch("net_roundtrip_tenants");
    let _ = std::fs::remove_dir_all(&tenants);
    let server = ServeGuard::start(&tenants, &[]);
    let addr = server.addr.clone();

    let out = histctl(&["client", "--addr", &addr, "--op", "ping"]);
    assert!(out.status.success(), "ping failed: {out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "pong");

    let csv = generate_csv("net_roundtrip.csv");
    let out = histctl(&[
        "client",
        "--addr",
        &addr,
        "--op",
        "load",
        "--tenant",
        "acme",
        "--table",
        &format!("orders={csv}"),
    ]);
    assert!(out.status.success(), "load failed: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("5000 row(s) into acme/orders"),
        "load output: {out:?}"
    );

    let out = histctl(&[
        "client",
        "--addr",
        &addr,
        "--op",
        "analyze",
        "--tenant",
        "acme",
        "--buckets",
        "8",
        "--class",
        "max_diff",
    ]);
    assert!(out.status.success(), "analyze failed: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("1 histogram(s), epoch 1"),
        "analyze output: {out:?}"
    );

    let out = histctl(&[
        "client",
        "--addr",
        &addr,
        "--op",
        "estimate",
        "--tenant",
        "acme",
        "--sql",
        "select count(*) from orders where orders.value = 3",
    ]);
    assert!(out.status.success(), "estimate failed: {out:?}");
    let estimate_line = String::from_utf8_lossy(&out.stdout).trim().to_string();
    assert!(
        estimate_line.starts_with("estimate ") && estimate_line.contains("orders.value"),
        "estimate output: {estimate_line}"
    );

    let out = histctl(&[
        "client", "--addr", &addr, "--op", "epoch", "--tenant", "acme",
    ]);
    assert!(out.status.success(), "epoch failed: {out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "1");

    // Tenant isolation is visible from the CLI too: the same relation
    // name in another tenant is unknown.
    let out = histctl(&[
        "client",
        "--addr",
        &addr,
        "--op",
        "estimate",
        "--tenant",
        "rival",
        "--sql",
        "select count(*) from orders",
    ]);
    assert!(!out.status.success(), "cross-tenant estimate must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown relation"),
        "cross-tenant stderr: {out:?}"
    );

    let out = histctl(&["client", "--addr", &addr, "--op", "metrics"]);
    assert!(out.status.success(), "metrics failed: {out:?}");
    let metrics = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        metrics.contains("net_requests_total{op=\"estimate\"}"),
        "metrics should count wire requests by op: {metrics}"
    );

    let out = histctl(&["client", "--addr", &addr, "--op", "shutdown"]);
    assert!(out.status.success(), "shutdown failed: {out:?}");
    let tail = server.wait();
    assert!(
        tail.contains("checkpointed") && tail.contains("tenant(s)"),
        "shutdown summary: {tail:?}"
    );
    // The graceful shutdown checkpointed the tenant's journal into a
    // snapshot, recoverable offline by the existing recover command.
    let out = histctl(&["recover", "--data-dir", &format!("{tenants}/acme")]);
    assert!(out.status.success(), "recover failed: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("1 column histogram(s)"),
        "recover output: {out:?}"
    );
}

#[test]
fn bench_remote_digests_match_the_inprocess_run() {
    let tenants = scratch("net_bench_tenants");
    let _ = std::fs::remove_dir_all(&tenants);
    let server = ServeGuard::start(&tenants, &[]);
    let addr = server.addr.clone();

    let args = [
        "bench",
        "--threads",
        "1,2",
        "--ops",
        "80",
        "--seed",
        "9",
        "--workload",
        "range",
        "--json",
    ];
    let local = histctl(&args);
    assert!(local.status.success(), "local bench failed: {local:?}");
    let mut remote_args: Vec<&str> = args.to_vec();
    remote_args.extend_from_slice(&["--remote", &addr]);
    let remote = histctl(&remote_args);
    assert!(remote.status.success(), "remote bench failed: {remote:?}");

    let local_json = String::from_utf8_lossy(&local.stdout).to_string();
    let remote_json = String::from_utf8_lossy(&remote.stdout).to_string();
    assert!(
        local_json.contains("\"transport\":\"inprocess\""),
        "{local_json}"
    );
    assert!(
        remote_json.contains("\"transport\":\"remote\""),
        "{remote_json}"
    );
    // Same seed, same op counts -> bit-identical result digests across
    // transports: the serving layer adds latency, never error.
    assert_eq!(ops_of(&local_json), ops_of(&remote_json));
    assert_eq!(
        digests_of(&local_json),
        digests_of(&remote_json),
        "wire digests must equal in-process digests\nlocal:  {local_json}\nremote: {remote_json}"
    );

    let out = histctl(&["client", "--addr", &addr, "--op", "shutdown"]);
    assert!(out.status.success(), "shutdown failed: {out:?}");
    server.wait();
}

#[test]
fn serve_connection_limit_rejects_with_a_typed_error() {
    let tenants = scratch("net_connlimit_tenants");
    let _ = std::fs::remove_dir_all(&tenants);
    let server = ServeGuard::start(&tenants, &["--max-conns", "0"]);
    let addr = server.addr.clone();
    let out = histctl(&["client", "--addr", &addr, "--op", "ping"]);
    assert!(!out.status.success(), "ping must be rejected at the limit");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("connection limit"),
        "typed rejection on stderr: {out:?}"
    );
    // ServeGuard's drop kills the server (no client can reach SHUTDOWN).
}

#[test]
fn client_and_serve_usage_errors_exit_nonzero() {
    // client without --addr.
    let out = histctl(&["client", "--op", "ping"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --addr"));

    // client with an unknown op.
    let out = histctl(&["client", "--addr", "127.0.0.1:1", "--op", "frobnicate"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--op must be"),
        "unknown op lists the valid ones: {out:?}"
    );

    // client estimate without --tenant.
    let out = histctl(&[
        "client",
        "--addr",
        "127.0.0.1:1",
        "--op",
        "estimate",
        "--sql",
        "select count(*) from t",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --tenant"));

    // serve --listen without --tenants.
    let out = histctl(&["serve", "--listen", "127.0.0.1:0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --tenants"));

    // bench --remote against a dead address fails loudly, not silently.
    let out = histctl(&[
        "bench",
        "--threads",
        "1",
        "--ops",
        "5",
        "--json",
        "--remote",
        "127.0.0.1:1",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("connect 127.0.0.1:1"),
        "dead remote: {out:?}"
    );
}
