#!/bin/sh
# Verify that every relative markdown link in the repo's docs resolves to
# an existing file, that intra-page `#anchor` fragments (same-file or
# `file.md#anchor`) resolve to a real heading in the target page, and
# that backticked repo paths (src/..., docs/..., bench/..., scripts/...)
# still exist, and that every span name src/ records is documented in
# the span taxonomy of docs/observability.md. Run from anywhere; CI runs
# it in the build-and-test job.
#
#   scripts/check_docs_links.sh            # check and report
#
# Exits non-zero listing every dead link/path/anchor and undocumented
# span name found.

set -u
root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$root" || exit 1

fail=0

# GitHub-style anchor slugs of every heading in $1: lowercase, strip
# everything but alphanumerics/space/hyphen/underscore, spaces become
# hyphens. `#` lines inside fenced code blocks can slip in as extra
# slugs — that only ever makes the check more lenient, never flaky.
slugs_of() {
  grep '^#' "$1" 2>/dev/null \
    | sed -e 's/^#\{1,\}[[:space:]]*//' \
    | tr '[:upper:]' '[:lower:]' \
    | sed -e 's/[^a-z0-9 _-]//g' -e 's/ /-/g'
}

# Markdown files under version control only (skips build trees).
files=$(git ls-files '*.md')

for f in $files; do
  dir=$(dirname "$f")

  # --- [text](target) links -------------------------------------------
  # One link per line; tolerate several links per source line.
  links=$(grep -o '](\([^)]*\))' "$f" 2>/dev/null | sed 's/^](//; s/)$//')
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*) continue ;;  # external: not checked
    esac
    target=${link%%#*}                          # strip fragment
    if [ -n "$target" ] && [ ! -e "$dir/$target" ]; then
      echo "DEAD LINK  $f: ($link)"
      fail=1
      continue
    fi
    # Fragment (same-file `#a` or cross-file `page.md#a`): the anchor
    # must match a heading slug in the target page.
    case "$link" in
      *'#'*)
        frag=${link#*#}
        [ -n "$frag" ] || continue
        if [ -z "$target" ]; then
          anchor_file=$f
        else
          anchor_file="$dir/$target"
        fi
        case "$anchor_file" in
          *.md) ;;
          *) continue ;;  # anchors into non-markdown targets: skip
        esac
        if ! slugs_of "$anchor_file" | grep -qx "$frag"; then
          echo "DEAD ANCHOR $f: ($link) — no heading #$frag in $anchor_file"
          fail=1
        fi
        ;;
    esac
  done

  # --- backticked repo paths ------------------------------------------
  # `src/foo/bar.h`, `docs/x.md`, `bench/bench_y.cc`, `scripts/z.sh`.
  # Wildcard forms like `src/core/metrics.*` must glob-match something.
  paths=$(grep -o '`\(src\|docs\|bench\|scripts\|cli\|tests\|examples\)/[A-Za-z0-9_./*-]*`' "$f" 2>/dev/null | tr -d '`')
  for p in $paths; do
    p=${p%.}                                    # trailing sentence dot
    case "$p" in
      *'*'*)
        # shellcheck disable=SC2086
        set -- $p
        if [ ! -e "$1" ]; then
          echo "DEAD PATH  $f: \`$p\` (glob matches nothing)"
          fail=1
        fi
        ;;
      *)
        # Accept `bench/bench_foo` for the binary whose source is
        # bench/bench_foo.cc — docs refer to bench targets this way.
        if [ ! -e "$p" ] && [ ! -e "$p.cc" ]; then
          echo "DEAD PATH  $f: \`$p\`"
          fail=1
        fi
        ;;
    esac
  done
done

# --- required pages ---------------------------------------------------
# Orientation pages that must exist and be reachable from the README:
# a PR that deletes or un-links them should fail here, not silently
# orphan them.
for page in docs/architecture.md docs/observability.md docs/data-cache.md \
            docs/scaling.md docs/fuzzing.md docs/storage-model.md; do
  if [ ! -f "$page" ]; then
    echo "MISSING    required page $page does not exist"
    fail=1
  elif ! grep -q "]($page)" README.md; then
    echo "UNLINKED   README.md does not link to $page"
    fail=1
  fi
done

# --- span taxonomy ----------------------------------------------------
# Every name literal passed to Tracer::Instant/Begin/End in src/ (calls
# may span lines; a ternary passes two names) must appear in the first
# column of the table in docs/observability.md section 3.
span_names=$(for f in $(git ls-files 'src/*.cc' 'src/*.h'); do
               tr '\n' ' ' < "$f" \
                 | grep -oE '(Instant|Begin|End)\([[:space:]]*SpanCategory::k[A-Za-z]+,[^;]*'
             done | grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)
documented=$(sed -n '/^## 3\. Span taxonomy/,/^## 4\./p' docs/observability.md \
               | grep '^| `' | cut -d'|' -f2 | grep -oE '`[a-z_]+`' | tr -d '`')
if [ -z "$span_names" ]; then
  echo "NO SPANS   found no Instant/Begin/End span names in src/"
  fail=1
fi
for name in $span_names; do
  if ! printf '%s\n' "$documented" | grep -qx "$name"; then
    echo "UNDOCUMENTED span name \"$name\" (src/) is missing from the table in docs/observability.md section 3"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs_links: FAILED" >&2
  exit 1
fi
echo "check_docs_links: all markdown links and repo paths resolve; all span names documented"
