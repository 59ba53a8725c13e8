#!/usr/bin/env bash
# The one command: builds the benchmark in release and runs it.
#
#   perf/run.sh                       all five workloads, end to end and traced;
#                                     writes perf/out/RESULT.json and TRACE_*.json
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one workload, one kind of run (BENCHMARK.json's command)
#   perf/run.sh --repeat 2 | --check | --compare A.json B.json
#
# See perf/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# A driver may point CARGO_TARGET_DIR elsewhere; on its own the build stays
# under perf/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perf/frontdoor-bench/target}"
cargo build --release --offline --quiet --manifest-path perf/frontdoor-bench/Cargo.toml >&2
# Pin glibc malloc's thresholds (otherwise they adapt to what the process
# has freed so far): whether a fleet's large zeroed buffers come from fresh
# mmap pages or from recycled heap changes set-up time threefold, and
# without the pin that depends on which workloads ran earlier in the process.
export MALLOC_MMAP_THRESHOLD_=33554432
export MALLOC_TRIM_THRESHOLD_=1073741824
FRONTDOOR_BENCH_RUSTC="$(rustc --version)"
export FRONTDOOR_BENCH_RUSTC
exec "$CARGO_TARGET_DIR/release/frontdoor-bench" "$@"
