#!/bin/sh
# Smoke test of the `hiway` CLI: run a Cuneiform workflow, export its
# provenance trace, and replay the trace — asserting both runs succeed and
# produce the same task count — then run the example CWL workflow ($2)
# through the --cwl front-end.
set -e

HIWAY_BIN="$1"
CWL_FILE="$2"
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

echo "cli smoke test passed"
