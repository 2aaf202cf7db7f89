#!/usr/bin/env bash
# lint.sh — the repo's single lint entry point: builds cmd/ubslint and
# runs the eight-analyzer suite with the committed baseline.
#
#   scripts/lint.sh                 # human-readable, exit 1 on unbaselined findings
#   scripts/lint.sh -sarif          # SARIF 2.1.0 on stdout (CI code-scanning upload)
#   scripts/lint.sh -json           # machine-readable JSON findings
#   scripts/lint.sh -check-baseline # additionally fail if lint/baseline.json is stale
#
# Extra arguments are forwarded to ubslint (see cmd/ubslint).
set -euo pipefail
cd "$(dirname "$0")/.."

bin="$(mktemp -d)/ubslint"
trap 'rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/ubslint

check_baseline=0
args=()
for a in "$@"; do
  case "$a" in
    -check-baseline|--check-baseline) check_baseline=1 ;;
    *) args+=("$a") ;;
  esac
done

"$bin" "${args[@]+"${args[@]}"}" ./...

if [[ "$check_baseline" == 1 ]]; then
  # Baseline drift gate: regenerating the baseline must be a no-op, so
  # the committed file can neither hide fresh findings nor carry stale
  # entries.
  tmp="$(mktemp)"
  "$bin" -baseline "$tmp" -write-baseline ./... 2>/dev/null
  if ! diff -u lint/baseline.json "$tmp"; then
    echo "lint.sh: lint/baseline.json is stale; run: go run ./cmd/ubslint -write-baseline ./..." >&2
    rm -f "$tmp"
    exit 1
  fi
  rm -f "$tmp"
fi
