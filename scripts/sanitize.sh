#!/bin/sh
# Address/UB-sanitized build and test run (mirrors the CI hygiene of the
# Arrow/RocksDB projects this codebase's style follows).
#
#   scripts/sanitize.sh [build-dir]
#
# The bench_e2e tests (label `e2e`) are left out: their stack sampler and
# 60 s smoke timeout are calibrated for optimised builds.
set -e

BUILD_DIR="${1:-build-asan}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -G Ninja -S "$SRC_DIR" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -O1 -g"
cmake --build "$BUILD_DIR"
ctest --test-dir "$BUILD_DIR" --output-on-failure -LE e2e
