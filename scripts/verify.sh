#!/usr/bin/env bash
# Local verification gate: formatting, lints, tests.
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> clippy unwrap gate (lib code of every library crate)"
# Lib targets only (no --all-targets): test modules may unwrap freely.
cargo clippy -q --no-deps \
    -p pga-core -p pga-observe -p pga-problems -p pga-topology -p pga-cluster \
    -p pga-master-slave -p pga-island -p pga-cellular -p pga-hierarchical \
    -p pga-multiobjective -p pga-compact -p pga-analysis -p pga-apps -p pga-serve \
    -- -D warnings -D clippy::unwrap_used

echo "==> clippy expect gate (lib code of pga-serve and of the engines it hosts)"
# The job server must never take the pool down on a bad input; lib code
# proves it by carrying no unwrap/expect at all. The island drivers, the
# cellular grid they host as demes, the compact GAs, the cluster
# simulator under pcGA and the async engines, and the recorders every
# engine writes to are held to the same rule.
cargo clippy -q --no-deps -p pga-serve -p pga-island -p pga-observe -p pga-cellular \
    -p pga-compact -p pga-cluster \
    -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo bench --no-run (benches compile)"
cargo bench --workspace --no-run

echo "==> word-kernel equivalence suite (word vs scalar operators and block fitness)"
cargo test -q -p pga-core --test word_kernels
cargo test -q -p pga-problems --test block_kernels

echo "==> BENCH_ops.json speedup gate (every kernel >= 2x over scalar)"
# Re-run 'cargo bench -p pga-bench --bench ops' to refresh the file after
# kernel changes; the gate checks the recorded entries.
awk -F'"speedup": ' '/"speedup"/ {
    v = $2 + 0
    if (v < 2.0) { print "speedup below 2x: " $0; bad = 1 }
    n++
}
END {
    if (n == 0) { print "no speedup entries found"; exit 1 }
    if (bad) exit 1
    print n " kernel entries, all >= 2x"
}' results/BENCH_ops.json

echo "==> pool determinism suite"
cargo test -q --test pool_determinism

echo "==> resilient fault-injection stress suite (release, timeout-guarded)"
# The suite's no-hang guarantee is only meaningful under a hard timeout.
timeout 300 cargo test -q -p pga-master-slave --release --test resilient_stress

echo "==> resilient archipelago suite (release, timeout-guarded)"
timeout 300 cargo test -q -p pga-island --release --test resilient_islands

echo "==> serve job-server suite: crash resume, fairness, HTTP (release, timeout-guarded)"
timeout 300 cargo test -q -p pga-serve --release --test serve_resume

echo "==> repo benchmark builds against the serve API and its unit tests pass"
# The benchmark is a package of its own (not a workspace member): a serve
# API change that breaks it must fail here, not in a benchmark run.
cargo test -q --offline --manifest-path examples/benchmark/Cargo.toml

echo "==> repo benchmark smoke run (every workload must report correct)"
# Exits non-zero unless every workload is correct. Windows shorter than
# 5 s are too short for serve-mixed's steady-backlog check.
timeout 300 cargo run --release --quiet --offline --manifest-path examples/benchmark/Cargo.toml -- --seconds 5 --trace 0 > /dev/null

echo "==> e19 serve load smoke (quick mode: no results files rewritten)"
timeout 300 cargo run -q --release -p pga-bench --bin e19_serve_load -- --quick > /dev/null

echo "==> serve chaos suite: fault injection, quarantine, degraded modes (release, timeout-guarded)"
# Injected stalls/backoffs must never hang the scheduler: timeout is the gate.
timeout 300 cargo test -q -p pga-serve --release --test chaos
timeout 300 cargo test -q -p pga-serve --release --test malformed
timeout 300 cargo test -q -p pga-serve --release --test retention

echo "==> e22 chaos availability smoke (quick mode: no results files rewritten)"
# Quick mode still asserts availability >= 0.99, exact quarantines, and
# bit-identical healthy results under the seeded storm.
timeout 300 cargo run -q --release -p pga-bench --bin e22_chaos_availability -- --quick > /dev/null 2> /dev/null

echo "==> BENCH_chaos.json availability gates (healthy availability >= 0.99, zero un-quarantined failures, exact quarantines)"
# Re-run 'cargo run --release -p pga-bench --bin e22_chaos_availability'
# (full mode) to refresh the file; the gates check the recorded storm.
awk '
/"availability"/ {
    seen++
    v = $2 + 0
    if (v < 0.99) { print "healthy availability " v " < 0.99"; bad = 1 }
}
/"unquarantined_failures"/ {
    seen++
    if ($2 + 0 != 0) { print "un-quarantined failures: " $2; bad = 1 }
}
/"quarantined"/ && !/"expected_quarantined"/ { seen++; q = $2 + 0 }
/"expected_quarantined"/ { seen++; eq = $2 + 0 }
/"recovery"/ {
    seen++
    if (match($0, /"divergent": [0-9]+/)) {
        d = substr($0, RSTART + 14, RLENGTH - 14) + 0
        if (d != 0) { print d " divergent post-storm replays"; bad = 1 }
    }
}
END {
    if (seen < 5) { print "BENCH_chaos.json is missing gated fields"; exit 1 }
    if (q != eq) { print "quarantined " q " != expected " eq; bad = 1 }
    if (bad) exit 1
    print "chaos storm: availability >= 0.99, " q "/" eq " quarantines, 0 un-quarantined failures, 0 divergent replays"
}' results/BENCH_chaos.json

echo "==> async steady-state acceptance suite (release, timeout-guarded)"
# Includes the stalled-worker no-barrier test: meaningful only under a timeout.
timeout 300 cargo test -q -p pga-master-slave --release --test async_steady

echo "==> overlap migration suite (release, timeout-guarded)"
timeout 300 cargo test -q -p pga-island --release --test overlap_migration

echo "==> e20 async fairness smoke (quick mode: no results files rewritten)"
# Quick mode still asserts async rate >= sync at 4 workers and overlap > sync islands.
timeout 300 cargo run -q --release -p pga-bench --bin e20_async_fairness -- --quick > /dev/null

echo "==> compact GA suite (release, timeout-guarded)"
timeout 300 cargo test -q -p pga-compact --release

echo "==> dispatch scaling suite (release: the near-linear gates need optimized timings)"
timeout 300 cargo test -q -p pga-cluster --release --test dispatch_scaling

echo "==> e21 compact scale smoke (quick mode: no results files rewritten)"
# Quick mode still asserts cGA/GA parity >= 0.9 and dispatch 1024->4096 <= 1.5x.
timeout 300 cargo run -q --release -p pga-bench --bin e21_compact_scale -- --quick > /dev/null

echo "==> BENCH_cluster.json gates (dispatch <= 1.5x linear at 4096 nodes; cGA parity >= 0.9)"
# Re-run 'cargo run --release -p pga-bench --bin e21_compact_scale' (full
# mode) to refresh the file; the gates check the recorded rows.
awk '/"ratio_vs_1024"/ {
    n4 = r = 0
    if (match($0, /"nodes": [0-9]+/))           n4 = substr($0, RSTART + 9, RLENGTH - 9) + 0
    if (match($0, /"ratio_vs_1024": [0-9.]+/))  r = substr($0, RSTART + 18, RLENGTH - 18) + 0
    if (n4 == 4096) {
        n++
        if (r > 1.5) { print "dispatch at 4096 nodes is " r "x its 1024-node cost (> 1.5x)"; bad = 1 }
    }
}
END {
    if (n == 0) { print "no 4096-node dispatch row found"; exit 1 }
    if (bad) exit 1
    print "dispatch at 4096 nodes within 1.5x of 1024-node per-task cost"
}' results/BENCH_cluster.json
awk -F'"parity": ' '/"parity": [0-9]/ {
    v = $2 + 0
    if (v < 0.9) { print "quality parity below 0.9: " $0; bad = 1 }
    n++
}
END {
    if (n == 0) { print "no parity entries found"; exit 1 }
    if (bad) exit 1
    print n " parity entries (serial cGA + sharded pcGA), all >= 0.9"
}' results/BENCH_cluster.json

echo "==> BENCH_async.json fairness gate (async >= sync at every worker count >= 4)"
# Re-run 'cargo run --release -p pga-bench --bin e20_async_fairness' (full
# mode) to refresh the file; the gate checks the recorded virtual sweep.
awk '/"workers"/ && /sync_evals_per_s/ {
    w = s = a = 0
    if (match($0, /"workers": [0-9]+/))          w = substr($0, RSTART + 11, RLENGTH - 11) + 0
    if (match($0, /"sync_evals_per_s": [0-9.]+/)) s = substr($0, RSTART + 20, RLENGTH - 20) + 0
    if (match($0, /"async_evals_per_s": [0-9.]+/)) a = substr($0, RSTART + 21, RLENGTH - 21) + 0
    if (w >= 4) {
        n++
        if (a < s) { print "async slower than sync at " w " workers: " a " < " s; bad = 1 }
    }
}
END {
    if (n == 0) { print "no gated virtual-sweep rows found"; exit 1 }
    if (bad) exit 1
    print n " virtual-sweep rows at >= 4 workers, async >= sync on all"
}' results/BENCH_async.json

echo "verify: OK"
