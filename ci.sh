#!/usr/bin/env bash
# CI gate for the SQLancer++ reproduction workspace.
#
#   ./ci.sh          # full gate: fmt, clippy, rustdoc, release build, tests,
#                    # self-asserting examples, perf-regression gate,
#                    # benchmark smoke tests
#
# Every step must pass; the script stops at the first failure. The perf
# gate compares timed throughput ratios against the floors in
# campaign_throughput.rs, so a change that silently loses the AST fast path
# or the compiled evaluator fails CI.

set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
# Broken or private intra-doc links fail here, so a doc comment naming an
# item that moved or was renamed cannot go stale.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> self-asserting examples"
# These examples assert their own contracts: serial == sharded trace
# summaries and atlases, pool-size invariance of the report, and a fault
# bisection that must attribute every incident to its injected kind. A
# failed assert exits non-zero. Together they run in well under a second.
EXAMPLES=(coverage_hunt fault_storm flaky_hunt trace_hunt)
cargo build --release "${EXAMPLES[@]/#/--example=}"
for example in "${EXAMPLES[@]}"; do
    echo "--> $example"
    "./target/release/examples/$example" > /dev/null
done

echo "==> perf-regression gate (~30s)"
# Times every paired workload of the throughput harness (AST/text,
# compiled/tree, txn, isolation, traced/untraced, probed, partitioned) as
# the median of interleaved rounds and compares each ratio with its
# FLOOR_* constant in campaign_throughput.rs; exits non-zero on a miss.
# Writes to a scratch path so the committed BENCH_campaign.json is not
# clobbered, and keeps the printed table for the CI job summary. 100
# queries/db is the smallest budget whose ratios are stable enough to gate
# on. The partitioned floor arms only where available_parallelism() > 1.
# Properties (parity, determinism, zero false positives, the real-sqlite3
# campaign) are asserted by `cargo test` above.
./target/release/campaign_throughput --gate 100 /tmp/ci_smoke_bench.json | tee /tmp/ci_gate.txt

echo "==> repository benchmark smoke test (fault-storm and fleet-mixed, 1 s each, traced)"
# Runs the benchmark declared in BENCHMARK.json once per workload, as a
# correctness check of the whole stack: the run must exit 0 and every one
# of its output checks (report byte-identity, statement reconciliation,
# incident ledger, ...) must print `ok`. fault-storm covers every
# infrastructure fault kind; fleet-mixed is the workload that runs the
# engine's rollback, isolation and reducer paths. Timing figures are not
# gated here.
for workload in fault-storm fleet-mixed; do
    echo "--> $workload"
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 | tee /tmp/ci_benchmark_smoke.txt
    if grep -q '^check .*: FAILED' /tmp/ci_benchmark_smoke.txt; then
        echo "benchmark smoke test ($workload): an output check FAILED" >&2
        exit 1
    fi
done

echo "CI OK"
