#!/bin/sh
# Smoke test of the `hiway` CLI: run a Cuneiform workflow, export its
# provenance trace, and replay the trace — asserting both runs succeed and
# produce the same task count — then run the example CWL workflow ($2)
# through the --cwl front-end. Also drives AM crashes and node kills
# through --faults, and checks that README.md's flag table and the
# attribute keys the docs name match `hiway --help`.
set -e

HIWAY_BIN="$1"
CWL_FILE="$2"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

cat > "$WORKDIR/wf.cf" <<'EOF'
deftask align( sam : reads ) in 'bowtie2';
deftask sort( bam : sam ) in 'samtools-sort';
target sort( sam: align( reads: '/in/reads.fq' ) );
EOF

"$HIWAY_BIN" --workflow "$WORKDIR/wf.cf" --policy data-aware \
    -a cluster/workers=4 --input /in/reads.fq=64MB \
    --trace-out "$WORKDIR/trace.jsonl" > "$WORKDIR/run1.out"
grep -q "finished: 2 task(s)" "$WORKDIR/run1.out"
test -s "$WORKDIR/trace.jsonl"

"$HIWAY_BIN" --workflow "$WORKDIR/trace.jsonl" --language trace \
    --policy fcfs -a cluster/workers=4 > "$WORKDIR/run2.out"
grep -q "finished: 2 task(s)" "$WORKDIR/run2.out"

# The CWL front-end: the example Montage document declares its own
# inputs, so no --input flags are needed, and the 15-step graph runs to
# completion (tests/cwl_test.cc proves the run byte-identical to DAX).
"$HIWAY_BIN" --cwl "$CWL_FILE" --policy data-aware \
    -a cluster/workers=4 > "$WORKDIR/run3.out"
grep -q "finished: 15 task(s)" "$WORKDIR/run3.out"
grep -q "(cwl)" "$WORKDIR/run3.out"

# Unknown flags and missing files fail with helpful errors.
if "$HIWAY_BIN" --bogus 2> "$WORKDIR/err1.out"; then exit 1; fi
grep -q "unknown flag" "$WORKDIR/err1.out"
if "$HIWAY_BIN" --workflow /nonexistent.cf 2> "$WORKDIR/err2.out"; then
  exit 1
fi
grep -q "cannot read" "$WORKDIR/err2.out"

# An unknown RM policy, spelled as a flag or as an attribute, is an
# InvalidArgument naming the token (exit 1), not an abort.
for bad in "--rm-scheduler lottery" "-a yarn/scheduler=lottery"; do
  rc=0
  # shellcheck disable=SC2086
  "$HIWAY_BIN" --workflow "$WORKDIR/wf.cf" $bad 2> "$WORKDIR/err3.out" || rc=$?
  test "$rc" -eq 1
  grep -q "InvalidArgument.*'lottery'" "$WORKDIR/err3.out"
done

# Non-positive container sizing and an out-of-range priority are
# rejected at parse time (exit 2), naming the flag.
for bad in "--vcores 0" "--vcores -2" "--memory 0" "--memory -5" \
    "--priority 99999999999"; do
  rc=0
  # shellcheck disable=SC2086
  "$HIWAY_BIN" --workflow "$WORKDIR/wf.cf" $bad 2> "$WORKDIR/err4.out" || rc=$?
  test "$rc" -eq 2
  grep -q -- "${bad%% *}" "$WORKDIR/err4.out"
done

# A container larger than every node (2 cores, 7680 MB by default) fails
# the workflow with exit 1 naming the task, in both modes, instead of
# waiting forever for capacity.
for big in "--vcores 4" "--memory 100000"; do
  for mode in "" "--service"; do
    rc=0
    # shellcheck disable=SC2086
    timeout 60 "$HIWAY_BIN" --workflow "$WORKDIR/wf.cf" $big $mode \
        -a cluster/workers=2 --input /in/reads.fq=64MB \
        > "$WORKDIR/out5.out" 2>&1 || rc=$?
    test "$rc" -eq 1
    grep -q "task 1 ('align')" "$WORKDIR/out5.out"
  done
done

# The fault path through --faults: a crashed AM is timed out by the RM
# and replaced, and the submission still succeeds. Faults that hit
# nothing (a node beyond the fleet, an unknown submission) are skipped
# and not counted.
"$HIWAY_BIN" --service --workflow "$WORKDIR/wf.cf" -a cluster/workers=4 \
    --input /in/reads.fq=64MB --faults am-crash@5 > "$WORKDIR/out8.out"
grep -q "#1 .*wf.cf *succeeded" "$WORKDIR/out8.out"
grep -q "1 am crash(es)" "$WORKDIR/out8.out"
grep -q "am failovers survived: 1" "$WORKDIR/out8.out"
"$HIWAY_BIN" --service --workflow "$WORKDIR/wf.cf" -a cluster/workers=4 \
    --input /in/reads.fq=64MB --faults kill-node@1:node=99 \
    > "$WORKDIR/out9.out"
grep -q "#1 .*wf.cf *succeeded" "$WORKDIR/out9.out"
grep -q "faults injected: 0 node kill(s)" "$WORKDIR/out9.out"
# A kill aimed at a live worker takes effect and is counted.
"$HIWAY_BIN" --service --workflow "$WORKDIR/wf.cf" -a cluster/workers=4 \
    --input /in/reads.fq=64MB --faults kill-node@1:node=2 \
    > "$WORKDIR/out11.out"
grep -q "#1 .*wf.cf *succeeded" "$WORKDIR/out11.out"
grep -q "faults injected: 1 node kill(s)" "$WORKDIR/out11.out"
"$HIWAY_BIN" --service --workflow "$WORKDIR/wf.cf" -a cluster/workers=4 \
    --input /in/reads.fq=64MB --faults am-crash@1:sub=7 \
    > "$WORKDIR/out10.out"
grep -q "0 am crash(es)" "$WORKDIR/out10.out"
grep -q "am failovers survived: 0" "$WORKDIR/out10.out"

# Deployment attributes are checked against one table before any recipe
# runs: an unknown key (a typo of cluster/workers) and a switch spelled
# other than on|off|true|false|1|0 exit 1 naming the key.
for bad in "cluster/worker=8" "hiway/gc=yes"; do
  rc=0
  "$HIWAY_BIN" --workflow "$WORKDIR/wf.cf" -a "$bad" \
      --input /in/reads.fq=64MB 2> "$WORKDIR/err6.out" || rc=$?
  test "$rc" -eq 1
  grep -q "${bad%%=*}" "$WORKDIR/err6.out"
done
# Every spelling of a switch that callers use today is accepted.
for on in "yarn/preemption=on" "hiway/gc=true" "obs/tracing=1"; do
  "$HIWAY_BIN" --workflow "$WORKDIR/wf.cf" -a "$on" \
      --input /in/reads.fq=64MB > "$WORKDIR/out6.out"
  grep -q "finished: 2 task(s)" "$WORKDIR/out6.out"
done

# A flag that is shorthand for an attribute fails like the attribute
# does: exit 1 at converge time, naming the key.
for pair in "--preemption-grace yarn/preemption_grace_s" \
    "--max-preempt-per-round yarn/max_preempt_per_round" \
    "--staging-cache-mb hiway/cache_staging_mb" \
    "--dfs-capacity-mb dfs/capacity_mb" \
    "--autoscaler elastic/autoscaler"; do
  flag="${pair%% *}"
  key="${pair#* }"
  rc=0
  "$HIWAY_BIN" --workflow "$WORKDIR/wf.cf" "$flag" abc \
      2> "$WORKDIR/err7.out" || rc=$?
  test "$rc" -eq 1
  grep -q "$key" "$WORKDIR/err7.out"
done

# README and --help do not drift: the flags in README's flag table are
# exactly the flags --help lists, and every attribute key README.md or a
# docs/ page names is in the --help attribute catalogue.
"$HIWAY_BIN" --help > "$WORKDIR/help.out"
sed -n 's/^  \(-a\|--[a-z-]*\).*/\1/p' "$WORKDIR/help.out" | sort -u \
    > "$WORKDIR/help_flags.txt"
grep '^| `-' "$REPO_DIR/README.md" | cut -d'|' -f2 \
    | grep -o -- '`\(-a\|--[a-z-]*\)' | tr -d '`' | sort -u \
    > "$WORKDIR/readme_flags.txt"
diff "$WORKDIR/help_flags.txt" "$WORKDIR/readme_flags.txt"
sed -n 's/^  \([a-z0-9_]*\/[a-z0-9_]*\|seed\)  .*/\1/p' "$WORKDIR/help.out" \
    | sort -u > "$WORKDIR/help_keys.txt"
test "$(wc -l < "$WORKDIR/help_keys.txt")" -gt 0
cat "$REPO_DIR/README.md" "$REPO_DIR"/docs/*.md \
    | grep -o '\(^\|[^/a-z0-9_.]\)\(cluster\|dfs\|yarn\|obs\|hiway\|elastic\|snv\|rnaseq\|montage\|kmeans\)/[a-z0-9_]*[a-z0-9]' \
    | sed 's/^[^a-z]//' | sort -u > "$WORKDIR/doc_keys.txt"
test "$(wc -l < "$WORKDIR/doc_keys.txt")" -gt 0
missing="$(comm -23 "$WORKDIR/doc_keys.txt" "$WORKDIR/help_keys.txt")"
if [ -n "$missing" ]; then
  echo "attribute keys named in the docs but missing from --help:" >&2
  echo "$missing" >&2
  exit 1
fi

echo "cli smoke test passed"
