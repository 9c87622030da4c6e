//! Count metrics and output digests repeat exactly across runs of one
//! seed, every output check passes, and the wire workload gives the
//! in-process digest. Runs the benchmark binary on short runs.

use std::collections::BTreeMap;
use std::process::Command;

/// Metrics that are counts or deterministic functions of the inputs.
const TRACED_COUNTS: &[&str] = &[
    "engine.cache.hit_ratio",
    "engine.cache.evictions_per_op",
    "engine.ladder.spec_share",
    "relstore.catalog.epoch_bumps",
    "relstore.wal.bytes_per_analyze",
    "netserve.proto.bytes_per_op",
];
const UNTRACED_COUNTS: &[&str] = &["catalog_kib", "qerror_p50", "qerror_p90"];

struct Run {
    digest: String,
    metrics: BTreeMap<String, f64>,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest ")?.split_whitespace().next())
        .expect("a digest line")
        .to_string();
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true,"),
        "{workload}: {last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
    Run {
        digest,
        metrics: parse_metrics(last),
    }
}

/// `"name": {"value": v, "unit": "u"}` pairs of the result line.
fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    let (_, body) = line.split_once("\"metrics\": {").expect("metrics key");
    body.split("}, ")
        .filter_map(|entry| {
            let name = entry.split('"').nth(1)?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

fn assert_same(workload: &str, names: &[&str], a: &Run, b: &Run) {
    assert_eq!(a.digest, b.digest, "{workload}: digest");
    for name in names {
        let (x, y) = (a.metrics.get(*name), b.metrics.get(*name));
        assert!(x.is_some(), "{workload}: {name} missing");
        assert_eq!(x, y, "{workload}: {name}");
    }
}

#[test]
fn counts_and_digests_repeat_for_one_seed() {
    let mut digests = BTreeMap::new();
    for workload in ["hot", "churn", "wire"] {
        let (a, b) = (run(workload, 7, true), run(workload, 7, true));
        assert_same(workload, TRACED_COUNTS, &a, &b);
        let (c, d) = (run(workload, 7, false), run(workload, 7, false));
        assert_same(workload, UNTRACED_COUNTS, &c, &d);
        assert_eq!(
            a.digest, c.digest,
            "{workload}: traced and untraced digests"
        );
        digests.insert(workload, a.digest);
    }
    assert_eq!(digests["hot"], digests["wire"], "wire equals in-process");
}
