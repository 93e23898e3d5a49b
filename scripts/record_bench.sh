#!/usr/bin/env bash
# Record the microbenchmark suites (google-benchmark's JSON format,
# machine-diffable across commits) at the repo root:
#   bench_kernels   -> BENCH_KERNELS.json
#   bench_telemetry -> BENCH_TELEMETRY.json (metrics-off vs -on A/B)
#   bench_graph     -> BENCH_GRAPH.json (compiled vs batched replay, compile)
#   bench_simcore   -> BENCH_SIMCORE.json (engine/runtime host-cost baseline
#                      for the report-only CI regression smoke)
#
#   scripts/record_bench.sh [build-dir] [kernels-out.json] [telemetry-out.json] [graph-out.json] [simcore-out.json]
#
# Pass a build configured with -DMS_NATIVE=ON to record the full-ISA numbers.
set -euo pipefail

BUILD_DIR="${1:-build}"
SOURCE_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="${2:-${SOURCE_DIR}/BENCH_KERNELS.json}"
TEL_OUT="${3:-${SOURCE_DIR}/BENCH_TELEMETRY.json}"
GRAPH_OUT="${4:-${SOURCE_DIR}/BENCH_GRAPH.json}"
SIMCORE_OUT="${5:-${SOURCE_DIR}/BENCH_SIMCORE.json}"

if [[ ! -x "${BUILD_DIR}/bench/bench_kernels" || ! -x "${BUILD_DIR}/bench/bench_telemetry" ||
      ! -x "${BUILD_DIR}/bench/bench_graph" || ! -x "${BUILD_DIR}/bench/bench_simcore" ]]; then
  cmake -S "${SOURCE_DIR}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bench_kernels bench_telemetry bench_graph bench_simcore
fi

"${BUILD_DIR}/bench/bench_kernels" \
  --benchmark_format=json \
  --benchmark_out_format=json \
  --benchmark_out="${OUT}"

echo "record_bench: wrote ${OUT}"

"${BUILD_DIR}/bench/bench_telemetry" \
  --benchmark_format=json \
  --benchmark_out_format=json \
  --benchmark_out="${TEL_OUT}"

echo "record_bench: wrote ${TEL_OUT}"

"${BUILD_DIR}/bench/bench_graph" \
  --benchmark_format=json \
  --benchmark_out_format=json \
  --benchmark_out="${GRAPH_OUT}"

echo "record_bench: wrote ${GRAPH_OUT}"

"${BUILD_DIR}/bench/bench_simcore" \
  --benchmark_format=json \
  --benchmark_out_format=json \
  --benchmark_out="${SIMCORE_OUT}"

echo "record_bench: wrote ${SIMCORE_OUT}"
