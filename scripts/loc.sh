#!/usr/bin/env bash
# Non-test Go line counts (plain `wc -l`, comments and blanks included) per
# package directory under internal/ (nested ones, such as internal/ring/ringtest,
# on their own line), for cmd/fivm and for the root package, plus the
# data+ivm+ring total: the figure ROADMAP ground rule (d) asks every PR to
# report, at the parent and at the change. Informational; it gates nothing.
set -euo pipefail
shopt -s nullglob

cd "$(dirname "$0")/.."

count() { # lines of the non-test .go files directly in directory $1
  find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

total=0
core=0
for dir in internal/*/ internal/*/*/ cmd/fivm/ ./; do
  dir=${dir%/}
  n=$(count "$dir")
  printf '%-24s %6d\n' "$dir" "$n"
  total=$((total + n))
  case "$dir" in internal/data | internal/ivm | internal/ring) core=$((core + n)) ;; esac
done
printf '%-24s %6d\n' "data+ivm+ring" "$core"
printf '%-24s %6d\n' "total" "$total"
