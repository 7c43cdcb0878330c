#!/usr/bin/env bash
# check_docs.sh — documentation gate, run by CI:
#
#   1. Every package under internal/ (and the root package) must carry
#      package documentation: a `// Package <name> ...` doc comment in
#      some non-test Go file.
#   2. Every relative markdown link in the repo's documentation set
#      (README.md, ARCHITECTURE.md, CHANGES.md, ROADMAP.md and any
#      markdown under examples/) must point at a file or directory that
#      exists.
#   3. Every markdown file a Go comment names (`see ARCHITECTURE.md`)
#      must exist, next to the Go file or at the repo root.
#
# Exits non-zero with one line per violation.
set -uo pipefail

cd "$(dirname "$0")/.."
fail=0

echo "== package documentation"
# Every library package — the root package and everything under
# internal/ — must carry a `// Package ...` doc comment (cmd/ and
# examples/ main packages use the `// Command ...` / walkthrough style
# and document themselves in the README instead).
while IFS= read -r dir; do
  pkgfiles=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
  [ -z "$pkgfiles" ] && continue
  if ! grep -l '^// Package ' $pkgfiles > /dev/null 2>&1; then
    echo "MISSING package doc: $dir"
    fail=1
  fi
done < <({ echo .; find internal -type d; } | sort -u)

echo "== markdown links"
docs=$(ls README.md ARCHITECTURE.md CHANGES.md ROADMAP.md 2>/dev/null; find examples -name '*.md' 2>/dev/null)
for doc in $docs; do
  dir=$(dirname "$doc")
  # Extract ](target) link targets; keep relative ones (skip URLs and
  # pure in-page anchors), strip any #fragment.
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path=${target%%#*}
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "BROKEN link in $doc: $target"
      fail=1
    fi
  done < <(grep -o ']([^)]*)' "$doc" | sed 's/^](//; s/)$//')
done

echo "== markdown files named in Go comments"
# Each hit is "<file>:<line> <name>": the text after a line's first //
# scanned for *.md names. Names starting with / are URL tails.
while read -r loc name; do
  case "$name" in /*) continue ;; esac
  if [ ! -e "$(dirname "${loc%%:*}")/$name" ] && [ ! -e "$name" ]; then
    echo "DANGLING markdown reference at $loc: $name"
    fail=1
  fi
done < <(find . -name '*.go' -not -path './.git/*' | sort | xargs awk '
  i = index($0, "//") {
    rest = substr($0, i + 2)
    while (match(rest, /[A-Za-z0-9_.\/-]+\.md/)) {
      print FILENAME ":" FNR " " substr(rest, RSTART, RLENGTH)
      rest = substr(rest, RSTART + RLENGTH)
    }
  }')

if [ "$fail" -ne 0 ]; then
  echo "FAIL: documentation check"
  exit 1
fi
echo "PASS"
