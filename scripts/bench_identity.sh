#!/bin/sh
# Output identity of bench binaries across two commits.
#
#   sh scripts/bench_identity.sh <git-ref> [bench...]
#
# Exports <git-ref> with `git archive` into a temporary directory, builds
# the named bench targets there and in this checkout's build/ (Release),
# runs each binary in both trees (with --quick where the bench accepts
# it) and diffs their stdout. Prints one line per bench and the diff of
# any that differ; exits 1 on any difference (stdout or exit status).
#
# The default bench list covers the service and scheduler layers: the
# multi-tenant service, AM failover, preemption, elastic membership,
# footprint admission and cache reuse, plus the workflow-scheduler
# ablations (data-aware locality, adaptive policies, HEFT, HEFT under
# three runtime-estimator strategies) and the Fig. 4 Hi-WAY-vs-Tez
# scaling run. Three more drive the RM directly, each registering a
# hadoop-masters application with null callbacks: the Fig. 6 master-load
# run (which also prints the RM's counters), the Table 2 / Fig. 5 weak
# scaling run and the container-cramming ablation. Their stdout is
# virtual-time only, so a behaviour-preserving change must reproduce it
# byte for byte. The temporary tree goes under $TMPDIR (default /tmp)
# and is removed on exit.

set -eu

if [ $# -lt 1 ]; then
  echo "usage: $0 <git-ref> [bench...]" >&2
  exit 2
fi
ref=$1
shift
if [ $# -eq 0 ]; then
  set -- bench_service_multitenant bench_failover bench_preemption \
    bench_elastic bench_footprint bench_cache_reuse \
    bench_ablation_locality bench_ablation_adaptive_policies \
    bench_fig9_heft_adaptive bench_ablation_estimator bench_fig4_scaling_tez \
    bench_fig6_utilization bench_table2_fig5_weak_scaling bench_ablation_cram
fi

repo=$(cd "$(dirname "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 2)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_identity.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

build() {  # build <source-dir> <build-dir> <targets...>
  src=$1
  dir=$2
  shift 2
  if [ ! -f "$dir/CMakeCache.txt" ]; then
    cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=Release >"$tmp/cmake.log" ||
      { cat "$tmp/cmake.log" >&2; exit 2; }
  fi
  cmake --build "$dir" -j"$jobs" --target "$@" >"$tmp/build.log" 2>&1 ||
    { tail -n 40 "$tmp/build.log" >&2; exit 2; }
}

mkdir "$tmp/src"
git -C "$repo" archive "$ref" | tar -x -C "$tmp/src"
echo "building $ref ($(git -C "$repo" rev-parse --short "$ref")) ..."
build "$tmp/src" "$tmp/build" "$@"
echo "building the checkout ..."
build "$repo" "$repo/build" "$@"

status=0
for bench in "$@"; do
  args=
  if grep -q QuickMode "$repo/bench/$bench.cc" 2>/dev/null; then
    args=--quick
  fi
  base_rc=0
  change_rc=0
  "$tmp/build/bench/$bench" $args >"$tmp/$bench.base" 2>/dev/null ||
    base_rc=$?
  "$repo/build/bench/$bench" $args >"$tmp/$bench.change" 2>/dev/null ||
    change_rc=$?
  if [ "$base_rc" -ne "$change_rc" ]; then
    echo "DIFFERS   $bench $args: exit status $base_rc -> $change_rc"
    status=1
  fi
  if cmp -s "$tmp/$bench.base" "$tmp/$bench.change"; then
    echo "identical $bench $args ($(wc -l <"$tmp/$bench.change") lines)"
  else
    echo "DIFFERS   $bench $args"
    diff -u --label "$ref" --label checkout "$tmp/$bench.base" \
      "$tmp/$bench.change" || true
    status=1
  fi
done
exit $status
