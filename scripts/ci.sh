#!/usr/bin/env bash
# The full CI gate, runnable locally and offline:
#   formatting, lints-as-errors, docs-as-errors, the builder-registry
#   dispatch guard, release build, and the test suite.
# The release build + `cargo test -q` pair is the tier-1 gate; fmt,
# clippy, and rustdoc keep the tree warning-free.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied, own crates only)"
# The vendored crates under vendor/ carry their upstream rustdoc
# warnings; the gate covers the crates this repo authors.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
  -p histograms-repro -p freqdist -p vopt-hist -p relstore \
  -p query -p engine -p experiments -p obs -p hist-bench -p netserve

echo "==> builder-registry dispatch guard"
# Histogram-constructor dispatch must live in the registry alone: a
# `match` arm (or other `=>` branch) that calls a raw constructor
# outside crates/core/src/registry.rs reintroduces the per-layer class
# switches this refactor removed. Direct (non-dispatch) constructor
# calls in tests and ground-truth checks remain fine.
guard_pattern='=>[^=]*\b(trivial|equi_width|equi_depth|v_opt_serial|v_opt_serial_dp|v_opt_end_biased|max_diff|end_biased)\s*\('
if grep -RnE "$guard_pattern" \
    --include='*.rs' \
    src tests examples crates \
    | grep -v 'crates/core/src/registry.rs'; then
  echo "error: histogram-constructor dispatch found outside the builder registry" >&2
  echo "       (route it through vopt_hist::BuilderSpec instead)" >&2
  exit 1
fi

echo "==> no-ignored-tests guard"
# Every test must run in CI: an `#[ignore]` outside crates/bench (whose
# long-running calibration harnesses are opt-in by design) silently
# removes coverage. Gate it like the dispatch guard above.
if grep -Rn '#\[ignore' \
    --include='*.rs' \
    src tests examples crates \
    | grep -v '^crates/bench/'; then
  echo "error: #[ignore] tests found outside crates/bench" >&2
  echo "       (either make the test fast enough for CI or move it to the bench crate)" >&2
  exit 1
fi

echo "==> journal-encapsulation guard"
# The write-ahead journal's framing, fsync ordering, and torn-tail
# truncation are correct only if every open of a journal file goes
# through relstore::wal. Any other code mentioning the journal file
# naming scheme (journal.<gen>.wal) is bypassing the WAL's invariants.
# Tests and the CLI walkthroughs may *read* a journal to tear it on
# purpose; production crates may not touch it at all.
if grep -RnE 'journal\.\{?[0-9a-zA-Z_:$<>]*\}?\.wal|"journal\.' \
    --include='*.rs' \
    src crates examples \
    | grep -v 'crates/relstore/src/wal.rs'; then
  echo "error: journal file access found outside relstore::wal" >&2
  echo "       (route catalog persistence through relstore::DurableCatalog)" >&2
  exit 1
fi

echo "==> socket-timeout confinement guard"
# Connection deadlines are a netserve policy, enforced in one place
# (the server's DeadlineReader and the chaos proxy's bounded pumps).
# A raw set_read_timeout/set_write_timeout anywhere else is an ad-hoc
# deadline that bypasses the typed DEADLINE close, the
# net_deadline_total counter, and the slot-release path.
if grep -RnE 'set_read_timeout|set_write_timeout' \
    --include='*.rs' \
    src tests examples crates \
  | grep -v '^crates/netserve/'; then
  echo "error: raw socket timeout calls found outside crates/netserve" >&2
  echo "       (deadlines are configured via netserve::ServerConfig)" >&2
  exit 1
fi

echo "==> socket-confinement guard"
# Raw socket I/O lives in crates/netserve alone: every other crate,
# binary, and test speaks to the statistics server through
# netserve::{Server, Client}. A TcpListener/TcpStream anywhere else is
# a second protocol implementation waiting to drift from the
# checksummed VOHW framing and its admission-control semantics.
if grep -RnE 'TcpListener|TcpStream|UdpSocket' \
    --include='*.rs' \
    src tests examples crates \
  | grep -v '^crates/netserve/'; then
  echo "error: raw socket I/O found outside crates/netserve" >&2
  echo "       (speak the wire protocol through netserve::Server / netserve::Client)" >&2
  exit 1
fi

echo "==> interpolation-confinement guard"
# Overlap-ratio interpolation lives in crates/core/src/interp.rs and
# nowhere else: the engine and query crates consume overlap_fraction /
# band_fraction / clamp_fraction, they never re-derive the arithmetic.
# Two greppable rules: (1) the fraction functions are defined only in
# the interp module; (2) no ad-hoc `(hi - lo)`-denominator division
# appears in engine or query source (comment lines are exempt — prose
# may mention ranges; code may not divide by a span difference).
if grep -RnE 'fn (overlap_fraction|band_fraction|clamp_fraction)' \
    --include='*.rs' \
    src tests examples crates \
  | grep -v 'crates/core/src/interp.rs'; then
  echo "error: interpolation-fraction definition found outside vopt_hist::interp" >&2
  echo "       (all interpolation arithmetic belongs in crates/core/src/interp.rs)" >&2
  exit 1
fi
if grep -RnE '[^/]/ *\([^)]*[a-z_0-9] *- *[a-z_0-9][^)]*\)' \
    --include='*.rs' \
    crates/engine/src crates/query/src \
  | grep -vE ':[0-9]+: *//'; then
  echo "error: ad-hoc interpolation arithmetic (division by a value-span difference)" >&2
  echo "       found in engine/query — call vopt_hist::interp instead" >&2
  exit 1
fi

echo "==> feedback-mutation confinement guard"
# Histogram mutation from query feedback is correct only because it is
# funnelled through one pure function and one journaled mutation
# point. Two greppable rules: (1) `tune_step` — the arithmetic that
# moves mass between buckets — is called only from the tuner module
# itself (and its own property tests) and from the catalog's
# `compute_tune`, which every journaled path consumes; (2) no
# production crate outside relstore calls `apply_tune` directly —
# live tuning goes through `DurableCatalog::tune_column` so the WAL
# record, the epoch bump, and the obs counters can never be skipped
# (tests may drive `apply_tune` to falsify the mutation point itself).
if grep -RnE '\btune_step\s*\(' \
    --include='*.rs' \
    src tests examples crates \
  | grep -v 'crates/core/src/feedback.rs' \
  | grep -v 'crates/core/tests/feedback_properties.rs' \
  | grep -v 'crates/relstore/src/catalog.rs'; then
  echo "error: tune_step called outside the feedback tuner and Catalog::compute_tune" >&2
  echo "       (feedback mutations go through DurableCatalog::tune_column)" >&2
  exit 1
fi
if grep -RnE '\bapply_tune\s*\(' \
    --include='*.rs' \
    src examples \
    crates/*/src \
  | grep -v '^crates/relstore/src/'; then
  echo "error: apply_tune called outside relstore's journaled tune path" >&2
  echo "       (feedback mutations go through DurableCatalog::tune_column)" >&2
  exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (PROPTEST_CASES=${PROPTEST_CASES:-64})"
# Pin the property-test case count so CI runs are reproducible and the
# persisted .proptest-regressions corpora replay under the same budget
# everywhere. Override by exporting PROPTEST_CASES before invoking.
PROPTEST_CASES="${PROPTEST_CASES:-64}" cargo test -q

echo "==> oracle selftest (differential checks + fault injection)"
# Seed-deterministic end-to-end verification of the paper's theorems
# against brute force, plus fault-injection containment; exits nonzero
# on any violation, including a check that silently did not run.
selftest_report="$(target/release/histctl selftest --seed 1 --budget-ms 30000)"

echo "==> crash-recovery gate"
# The selftest's kill-point matrix (journal append / journal fsync /
# snapshot rotation / daemon refresh, each with and without a prior
# checkpoint) must actually have injected faults: recovery landing on
# anything but a committed catalog state, or the matrix silently not
# running, fails the build. The report validates zero-injection runs
# itself; this gate additionally pins the scenario's presence, verdict,
# and a nonzero injection count — parsed from the JSON rather than
# grepped as one exact byte sequence, so serializer formatting or
# matrix-size changes cannot fail the gate spuriously.
if ! SELFTEST_REPORT="$selftest_report" python3 - <<'PY'
import json
import os
import sys

report = json.loads(os.environ["SELFTEST_REPORT"])
fault = next(
    (f for f in report.get("faults", [])
     if f.get("name") == "crash_recovery_restores_committed_state"),
    None,
)
if fault is None:
    sys.exit("crash-recovery scenario missing from selftest report")
if not fault.get("passed"):
    sys.exit(f"crash-recovery scenario failed: {fault.get('failures')}")
if not fault.get("injected"):
    sys.exit("crash-recovery scenario injected zero faults")
PY
then
  echo "error: crash-recovery matrix missing, failing, or incomplete in selftest report" >&2
  exit 1
fi

echo "==> named-invariant gates (range/band, wire equivalence, feedback convergence)"
# Each invariant below must be declared in EXPECTED_CHECKS (so a
# silently skipped run fails report validation) and must actually have
# run and passed in the selftest above, with a nonzero case count:
# * range_band_matches_execution: the value-carrying-buckets invariant;
# * wire_equals_inprocess: estimates and StatsUse trails served over a
#   loopback socket are bit-identical to in-process calls;
# * feedback_converges: on drifted statistics under a stationary hot
#   query, the journaled tuning path's median observed Q-error is
#   monotonically non-increasing and ends within 1.5x of ANALYZE-fresh.
for check in range_band_matches_execution wire_equals_inprocess feedback_converges; do
  if ! grep -q "\"$check\"" crates/oracle/src/report.rs; then
    echo "error: $check missing from oracle EXPECTED_CHECKS" >&2
    exit 1
  fi
  if ! SELFTEST_REPORT="$selftest_report" CHECK="$check" python3 - <<'PY'
import json
import os
import sys

name = os.environ["CHECK"]
report = json.loads(os.environ["SELFTEST_REPORT"])
check = next(
    (c for c in report.get("checks", []) if c.get("name") == name),
    None,
)
if check is None:
    sys.exit(f"{name} missing from selftest report")
if not check.get("passed"):
    sys.exit(f"{name} failed: {check.get('failures')}")
if not check.get("cases"):
    sys.exit(f"{name} verified zero cases")
PY
  then
    echo "error: $check invariant missing, failing, or empty in selftest report" >&2
    exit 1
  fi
done

echo "==> bench smoke gate (deterministic digest + cache probe)"
# The load harness must (1) report the histctl-bench-v2 schema, (2)
# produce a byte-identical result digest across reruns with one seed,
# and (3) pass its deterministic cache probe on a 2,048-value
# equi-join: the repeat estimate is a cache hit, and its bits and
# StatsUse trail equal the uncached recomputation's. How much cheaper a
# hit is than a recompute is a perfbench measurement
# (engine.estimate_hit_us against engine.compute_us), not a gate here.
bench_a="$(mktemp)"
bench_b="$(mktemp)"
bench_remote="$(mktemp)"
trace_out="$(mktemp)"
serve_log="$(mktemp)"
tenants_dir="$(mktemp -d)"
trap 'rm -rf "$bench_a" "$bench_b" "$bench_remote" "$trace_out" "$serve_log" "$tenants_dir"' EXIT
target/release/histctl bench --threads 1,2,4 --ops 200 --seed 1 --json > "$bench_a"
target/release/histctl bench --threads 1,2,4 --ops 200 --seed 1 --json > "$bench_b"
if ! BENCH_A="$bench_a" BENCH_B="$bench_b" python3 - <<'PY'
import json
import os
import sys

a = json.load(open(os.environ["BENCH_A"]))
b = json.load(open(os.environ["BENCH_B"]))
if a.get("schema") != "histctl-bench-v2":
    sys.exit(f"unexpected schema: {a.get('schema')}")
if [r["threads"] for r in a["runs"]] != [1, 2, 4]:
    sys.exit(f"wrong thread counts: {[r['threads'] for r in a['runs']]}")
for r in a["runs"]:
    if sorted(r) != ["digest", "ops", "threads"]:
        sys.exit(f"run fields are not threads/ops/digest: {r}")
    if r["ops"] != r["threads"] * 200:
        sys.exit(f"wrong fixed op count: {r}")
da = [(r["threads"], r["ops"], r["digest"]) for r in a["runs"]]
db = [(r["threads"], r["ops"], r["digest"]) for r in b["runs"]]
if da != db:
    sys.exit(f"bench digests differ across reruns with one seed:\n{da}\n{db}")
probe = a.get("probe", {})
if probe.get("cache_hit") is not True:
    sys.exit(f"the repeated probe estimate was not a cache hit: {probe}")
if probe.get("matches_uncached") is not True:
    sys.exit(f"the cached probe estimate differs from the uncached one: {probe}")
# The committed trajectory artifact, a histctl-bench-v1 report kept as
# it was written, must exist and carry >= 4-thread scaling data.
c = json.load(open("BENCH_pr5.json"))
if c.get("schema") != "histctl-bench-v1":
    sys.exit("BENCH_pr5.json missing or not a histctl-bench-v1 report")
if max(r["threads"] for r in c["runs"]) < 4:
    sys.exit("BENCH_pr5.json lacks >=4-thread scaling data")
if c["speedup"]["speedup"] < 10.0:
    sys.exit("BENCH_pr5.json records a sub-10x cache speedup")
PY
then
  echo "error: bench smoke gate failed (schema, determinism, or cache probe)" >&2
  exit 1
fi

echo "==> loopback serving gate (remote digests = in-process digests)"
# End-to-end over a real socket: a multi-tenant server on an ephemeral
# loopback port must answer client requests, and a bench --remote run
# with the same seed/ops/threads must report byte-identical result
# digests to the in-process run captured above — the serving layer adds
# latency, never error. The client-driven SHUTDOWN then checkpoints the
# bench tenant, and the server process must exit cleanly.
target/release/histctl serve --listen 127.0.0.1:0 --tenants "$tenants_dir" \
  > "$serve_log" &
serve_pid=$!
addr=""
for _ in $(seq 100); do
  addr="$(grep -oE '127\.0\.0\.1:[0-9]+' "$serve_log" | head -1 || true)"
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "error: serve --listen did not report a bound address" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
target/release/histctl client --addr "$addr" --op ping > /dev/null
target/release/histctl bench --threads 1,2,4 --ops 200 --seed 1 --json \
  --remote "$addr" > "$bench_remote"
target/release/histctl client --addr "$addr" --op shutdown > /dev/null
wait "$serve_pid"
if ! BENCH_A="$bench_a" BENCH_REMOTE="$bench_remote" python3 - <<'PY'
import json
import os
import sys

local = json.load(open(os.environ["BENCH_A"]))
remote = json.load(open(os.environ["BENCH_REMOTE"]))
if local.get("transport") != "inprocess" or remote.get("transport") != "remote":
    sys.exit(
        f"transport fields wrong: {local.get('transport')} / {remote.get('transport')}"
    )
dl = [(r["threads"], r["ops"], r["digest"]) for r in local["runs"]]
dr = [(r["threads"], r["ops"], r["digest"]) for r in remote["runs"]]
if dl != dr:
    sys.exit(f"wire digests differ from in-process digests:\n{dl}\n{dr}")
PY
then
  echo "error: loopback serving gate failed (wire digests != in-process digests)" >&2
  exit 1
fi
if ! grep -q 'checkpointed' "$serve_log"; then
  echo "error: graceful shutdown did not report tenant checkpoints" >&2
  exit 1
fi

echo "==> chaos-convergence gate (retrying bench through the proxy = direct digests)"
# Fault tolerance end to end over real processes: a serve --listen
# server, the deterministic chaos proxy in front of it (dropped
# connections, truncated responses, injected resets, delays), and a
# retrying bench --remote driven through the proxy. The chaotic run's
# result digests must be byte-identical to a direct-connection run —
# the fault layer adds retries, never error. SIGTERM must stop the
# proxy cleanly and checkpoint the server's tenants.
chaos_tenants="$(mktemp -d)"
chaos_serve_log="$(mktemp)"
chaos_log="$(mktemp)"
bench_direct="$(mktemp)"
bench_chaos="$(mktemp)"
trap 'rm -rf "$bench_a" "$bench_b" "$bench_remote" "$trace_out" "$serve_log" \
  "$tenants_dir" "$chaos_tenants" "$chaos_serve_log" "$chaos_log" \
  "$bench_direct" "$bench_chaos"' EXIT
target/release/histctl serve --listen 127.0.0.1:0 --tenants "$chaos_tenants" \
  > "$chaos_serve_log" &
chaos_serve_pid=$!
chaos_addr=""
for _ in $(seq 100); do
  chaos_addr="$(grep -oE '127\.0\.0\.1:[0-9]+' "$chaos_serve_log" | head -1 || true)"
  [ -n "$chaos_addr" ] && break
  sleep 0.1
done
if [ -z "$chaos_addr" ]; then
  echo "error: chaos-gate serve --listen did not report a bound address" >&2
  kill "$chaos_serve_pid" 2>/dev/null || true
  exit 1
fi
target/release/histctl chaos --upstream "$chaos_addr" > "$chaos_log" &
chaos_pid=$!
proxy_addr=""
for _ in $(seq 100); do
  proxy_addr="$(grep -oE '127\.0\.0\.1:[0-9]+' "$chaos_log" | head -1 || true)"
  [ -n "$proxy_addr" ] && break
  sleep 0.1
done
if [ -z "$proxy_addr" ]; then
  echo "error: chaos proxy did not report a bound address" >&2
  kill "$chaos_pid" "$chaos_serve_pid" 2>/dev/null || true
  exit 1
fi
target/release/histctl bench --threads 1,2 --ops 150 --seed 1 --json \
  --remote "$chaos_addr" > "$bench_direct"
target/release/histctl bench --threads 1,2 --ops 150 --seed 1 --json \
  --remote "$proxy_addr" --retries 8 > "$bench_chaos"
kill -TERM "$chaos_pid"
wait "$chaos_pid"
target/release/histctl client --addr "$chaos_addr" --op shutdown > /dev/null
wait "$chaos_serve_pid"
if ! BENCH_DIRECT="$bench_direct" BENCH_CHAOS="$bench_chaos" python3 - <<'PY'
import json
import os
import sys

direct = json.load(open(os.environ["BENCH_DIRECT"]))
chaos = json.load(open(os.environ["BENCH_CHAOS"]))
dd = [(r["threads"], r["ops"], r["digest"]) for r in direct["runs"]]
dc = [(r["threads"], r["ops"], r["digest"]) for r in chaos["runs"]]
if dd != dc:
    sys.exit(f"chaotic digests differ from direct digests:\n{dd}\n{dc}")
PY
then
  echo "error: chaos-convergence gate failed (digests differ)" >&2
  exit 1
fi
if ! grep -q 'chaos proxy stopped' "$chaos_log"; then
  echo "error: SIGTERM did not stop the chaos proxy cleanly" >&2
  exit 1
fi
if ! grep -q 'checkpointed' "$chaos_serve_log"; then
  echo "error: chaos-gate shutdown did not report tenant checkpoints" >&2
  exit 1
fi

echo "==> provenance trace gate (flight-recorder dump under load)"
# A full bench run with --trace-out must produce a valid
# histctl-trace-v1 dump: the header's schema and event count, every
# required field on every event, a strictly increasing global sequence,
# and — when the recorder dropped nothing — per-thread balanced span
# opens/closes. This drives the recorder through worker threads, the
# maintenance daemon, and the WAL, and proves ring retirement keeps
# events from threads that exited before the dump.
target/release/histctl bench --threads 1,2 --ops 200 --seed 1 --json \
  --trace-out "$trace_out" > /dev/null
if ! TRACE_OUT="$trace_out" python3 - <<'PY'
import json
import os
import sys

lines = open(os.environ["TRACE_OUT"]).read().splitlines()
if not lines:
    sys.exit("empty trace dump")
header = json.loads(lines[0])
if header.get("schema") != "histctl-trace-v1":
    sys.exit(f"unexpected trace schema: {header.get('schema')}")
events = [json.loads(line) for line in lines[1:]]
if header.get("events") != len(events):
    sys.exit(f"header says {header.get('events')} events, dump has {len(events)}")
if not events:
    sys.exit("a bench run must record trace events")
last_seq = 0
open_spans = {}
for e in events:
    for field in ("seq", "ts_ns", "thread", "span", "parent", "event"):
        if field not in e:
            sys.exit(f"event missing {field}: {e}")
    if e["seq"] <= last_seq:
        sys.exit(f"global sequence not strictly increasing at {e}")
    last_seq = e["seq"]
    stack = open_spans.setdefault(e["thread"], [])
    if e["event"] == "span_open":
        stack.append(e["span"])
    elif e["event"] == "span_close":
        if e["span"] not in stack:
            if header["dropped"] == 0:
                sys.exit(f"span close without a recorded open: {e}")
        else:
            stack.remove(e["span"])
kinds = {e["event"] for e in events}
for needed in ("span_open", "span_close", "cache_hit", "daemon_sweep", "wal_append"):
    if needed not in kinds:
        sys.exit(f"bench trace missing {needed} events (got {sorted(kinds)})")
if header["dropped"] == 0:
    leftover = {t: s for t, s in open_spans.items() if s}
    if leftover:
        sys.exit(f"unbalanced span opens with zero drops: {leftover}")
PY
then
  echo "error: provenance trace gate failed (schema, ordering, or span balance)" >&2
  exit 1
fi

echo "CI gate passed."
