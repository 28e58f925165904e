#!/usr/bin/env sh
# Regenerate the bench snapshots at the repository root with JSON output
# enabled, assembling before/after pairs with the bench_snapshot binary:
#
#   BENCH_1.json — the storage / fan-out benches (DESIGN.md "Storage
#                  layer"): seq_vs_par, chase, instance_index;
#   BENCH_2.json — the incremental-view benches (DESIGN.md "Incremental
#                  view maintenance"): view_maintenance;
#   BENCH_3.json — the flat relation kernel (DESIGN.md "Storage layer"):
#                  relation_kernel (BTreeSet vs flat operator pairs), plus
#                  chase and view_maintenance reruns pinning the series
#                  that must not regress under the new storage;
#   BENCH_5.json — coloring-certified sharded execution (DESIGN.md
#                  "Sharded execution"): seq_vs_shard steady-state wave
#                  pairs across a 1/2/4/8 thread axis, uniform and
#                  Zipf-skewed receiver distributions plus 25%/50%
#                  cross-shard-argument series (EXPERIMENTS.md P11);
#   BENCH_7.json — the durability layer (DESIGN.md "Durability layer"):
#                  wal_recovery commit-overhead, fsync-batching, and
#                  recovery-vs-rebuild series (EXPERIMENTS.md P13);
#   BENCH_8.json — the program-level plan pipeline (DESIGN.md
#                  "Expression-DAG planner"): plan_pipeline one-at-a-time
#                  vs compiled-DAG execution pairs over uniform and
#                  Zipf-skewed instances, the planning-overhead pair, and
#                  the CSE and netting passes priced separately
#                  (EXPERIMENTS.md P14);
#   BENCH_9.json — the plan profiler and flight recorder (DESIGN.md
#                  "Plan profiler and flight recorder"): profiler
#                  plain/analyze/analyze_full pairs on the mixed program
#                  (compare plain against BENCH_8.json plan/program for
#                  the disabled-path claim), the disabled-gate series,
#                  the netting proof-cache cold/warm compile pair, and a
#                  wal_recovery rerun pricing recovery with the replay
#                  path landing ops in the instance alone
#                  (EXPERIMENTS.md P15);
#   BENCH_4.json — the observability layer (DESIGN.md "Observability
#                  layer"): obs_overhead off/on pairs, relation_kernel and
#                  view_maintenance reruns with the (disabled) obs hooks in
#                  the tree — compare against BENCH_3.json for the
#                  noise-level claim of EXPERIMENTS.md P10 — and embedded
#                  metrics snapshots of two instrumented example runs.
#
# BENCH_6.json (the retired sharded-upgraded arms of seq_vs_shard) is
# frozen history and is not regenerated.
set -eu
cd "$(dirname "$0")/.."

# Absolute path: cargo runs bench binaries with the package directory as
# their working directory, so a relative path would land in crates/bench/.
DIR="$(pwd)/target/bench-json"
rm -rf "$DIR"
mkdir -p "$DIR"

BENCH_JSON_DIR="$DIR" cargo bench -p receivers-bench --bench seq_vs_par
BENCH_JSON_DIR="$DIR" cargo bench -p receivers-bench --bench chase
BENCH_JSON_DIR="$DIR" cargo bench -p receivers-bench --bench instance_index

cargo run --release -p receivers-bench --bin bench_snapshot -- "$DIR" BENCH_1.json

DIR2="$(pwd)/target/bench-json-2"
rm -rf "$DIR2"
mkdir -p "$DIR2"

BENCH_JSON_DIR="$DIR2" cargo bench -p receivers-bench --bench view_maintenance

cargo run --release -p receivers-bench --bin bench_snapshot -- "$DIR2" BENCH_2.json

DIR3="$(pwd)/target/bench-json-3"
rm -rf "$DIR3"
mkdir -p "$DIR3"

BENCH_JSON_DIR="$DIR3" cargo bench -p receivers-bench --bench relation_kernel
BENCH_JSON_DIR="$DIR3" cargo bench -p receivers-bench --bench chase
BENCH_JSON_DIR="$DIR3" cargo bench -p receivers-bench --bench view_maintenance

cargo run --release -p receivers-bench --bin bench_snapshot -- "$DIR3" BENCH_3.json

DIR4="$(pwd)/target/bench-json-4"
rm -rf "$DIR4"
mkdir -p "$DIR4"

# The obs hooks stay disabled (RECEIVERS_TRACE/RECEIVERS_METRICS unset)
# for the timing reruns: their medians must sit within noise of the
# BENCH_3.json series recorded before the instrumentation existed.
BENCH_JSON_DIR="$DIR4" cargo bench -p receivers-bench --bench obs_overhead
BENCH_JSON_DIR="$DIR4" cargo bench -p receivers-bench --bench relation_kernel
BENCH_JSON_DIR="$DIR4" cargo bench -p receivers-bench --bench view_maintenance

# Metrics snapshots of instrumented end-to-end runs, embedded into the
# snapshot (rt steals need real workers, so pin a multi-thread pool).
RECEIVERS_RT_THREADS=4 cargo run --release --example order_independence -- \
    --metrics-json "$DIR4/metrics-order_independence.json"
RECEIVERS_RT_THREADS=4 cargo run --release --example parallel_vs_sequential -- \
    --metrics-json "$DIR4/metrics-parallel_vs_sequential.json"
cargo run --release -p receivers-obs --bin obs_check -- \
    --metrics "$DIR4/metrics-order_independence.json" \
    --manifest crates/obs/metrics_manifest.txt
cargo run --release -p receivers-obs --bin obs_check -- \
    --metrics "$DIR4/metrics-parallel_vs_sequential.json" \
    --manifest crates/obs/metrics_manifest.txt

cargo run --release -p receivers-bench --bin bench_snapshot -- "$DIR4" BENCH_4.json

DIR5="$(pwd)/target/bench-json-5"
rm -rf "$DIR5"
mkdir -p "$DIR5"

# The thread axis is an env knob so constrained hosts can trim the sweep
# (e.g. RECEIVERS_BENCH_THREADS="1,4" scripts/perf_snapshot.sh).
RECEIVERS_BENCH_THREADS="${RECEIVERS_BENCH_THREADS:-1,2,4,8}" \
    BENCH_JSON_DIR="$DIR5" cargo bench -p receivers-bench --bench seq_vs_shard

cargo run --release -p receivers-bench --bin bench_snapshot -- "$DIR5" BENCH_5.json

DIR7="$(pwd)/target/bench-json-7"
rm -rf "$DIR7"
mkdir -p "$DIR7"

# The durability layer: WAL commit overhead against the plain viewed
# driver, the group-commit fsync-batching pair over real files, and
# recovery (snapshot + tail replay) against the from-scratch view rebuild
# a non-durable restart pays anyway.
BENCH_JSON_DIR="$DIR7" cargo bench -p receivers-bench --bench wal_recovery

cargo run --release -p receivers-bench --bin bench_snapshot -- "$DIR7" BENCH_7.json

DIR8="$(pwd)/target/bench-json-8"
rm -rf "$DIR8"
mkdir -p "$DIR8"

# The program-level planner: whole update programs one statement at a
# time (the pre-planner path) against the compiled expression-DAG
# pipeline, with the planning overhead and the CSE/netting passes each
# priced by their own pair.
BENCH_JSON_DIR="$DIR8" cargo bench -p receivers-bench --bench plan_pipeline

cargo run --release -p receivers-bench --bin bench_snapshot -- "$DIR8" BENCH_8.json

DIR9="$(pwd)/target/bench-json-9"
rm -rf "$DIR9"
mkdir -p "$DIR9"

# The plan profiler: the mixed program with profiling off (must match
# the BENCH_8.json compiled arm), with the measurement tree collected,
# and fully enabled (metrics + flight ring), plus the disabled-path
# gate, the netting proof-cache cold/warm pair, and a wal_recovery
# rerun pricing recovery now that replay lands ops in the instance
# alone (the view is rebuilt once at the end instead of maintained
# record by record).
BENCH_JSON_DIR="$DIR9" cargo bench -p receivers-bench --bench profiler
BENCH_JSON_DIR="$DIR9" cargo bench -p receivers-bench --bench wal_recovery

cargo run --release -p receivers-bench --bin bench_snapshot -- "$DIR9" BENCH_9.json
