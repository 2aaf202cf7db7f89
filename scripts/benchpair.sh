#!/usr/bin/env bash
# benchpair.sh — compare this checkout against a base revision with the
# repository benchmark (perfbench), in alternating pairs, and write the
# comparison as a BENCH_*.json file.
#
#   scripts/benchpair.sh -b HEAD~1 -o BENCH_PR18.json
#   scripts/benchpair.sh -b HEAD~1 -w spec-loop -S 1000003 -o held-out.json
#
# Options:
#   -b REV        base revision (required), built in a temporary git worktree;
#                 use HEAD when the change is not yet committed
#   -o FILE       output file (required)
#   -w LIST       comma-separated workloads (default: every workload in BENCHMARK.json)
#   -S SEED       perfbench --seed (default 1)
#
# Each workload gets 10 pairs. Pairs alternate which side runs first (odd
# pairs the base); each side runs the unchanged `bash perfbench/run.sh
# --seconds <BENCHMARK.json's run_seconds> --trace 0` of its own tree. For every
# end-to-end metric the output holds both medians, both spreads between
# the quartiles (IQR), and how many pairs the change won, judged by the
# metric's "better" direction in BENCHMARK.json. It also records the
# machine line of the first run and every run's raw value. Needs git,
# jq and Go.
set -euo pipefail

out="" pairs=10 workloads="" seed=1 base=""
while getopts "o:w:S:b:" opt; do
	case "$opt" in
	o) out=$OPTARG ;;
	w) workloads=$OPTARG ;;
	S) seed=$OPTARG ;;
	b) base=$OPTARG ;;
	*) sed -n '2,23p' "$0" >&2; exit 2 ;;
	esac
done
[ -n "$out" ] && [ -n "$base" ] || { sed -n '2,23p' "$0" >&2; exit 2; }
case "$out" in /*) ;; *) out=$PWD/$out ;; esac
cd "$(dirname "$0")/.."
root=$(pwd)
[ -n "$workloads" ] || workloads=$(jq -r '[.workloads[].name] | join(",")' BENCHMARK.json)
seconds=$(jq -r '.run_seconds' BENCHMARK.json)

raw=$(mktemp -d)
cleanup() {
	if [ -n "${worktree:-}" ]; then
		git -C "$root" worktree remove --force "$worktree" 2>/dev/null || true
	fi
	rm -rf "$raw"
}
trap cleanup EXIT
worktree="$raw/base"
git worktree add --detach "$worktree" "$base" >&2
parent=$worktree

# run TREE WORKLOAD FILE: one benchmark run of TREE, its JSON lines in FILE.
run() {
	(cd "$1" && bash perfbench/run.sh --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0) \
		| grep '^{' >"$3"
	[ "$(jq -s '.[-1].correct' "$3")" = true ] || { echo "benchpair: $3: run not correct" >&2; exit 1; }
}

IFS=, read -ra wls <<<"$workloads"
for w in "${wls[@]}"; do
	for i in $(seq 1 "$pairs"); do
		echo "benchpair: $w pair $i/$pairs" >&2
		# Alternate which side runs first, so a drift in host speed within
		# a pair does not favour one side.
		if ((i % 2)); then
			run "$parent" "$w" "$raw/$w.parent.$i.json"
			run "$root" "$w" "$raw/$w.change.$i.json"
		else
			run "$root" "$w" "$raw/$w.change.$i.json"
			run "$parent" "$w" "$raw/$w.parent.$i.json"
		fi
	done
done

# jq cannot glob, so the per-run files are gathered into one stream, each
# tagged with its workload, side and pair.
for w in "${wls[@]}"; do
	for i in $(seq 1 "$pairs"); do
		for side in parent change; do
			jq -c -s --arg w "$w" --arg side "$side" --argjson i "$i" \
				'{workload: $w, side: $side, pair: $i, metrics: (.[-1].metrics | map_values(.value))}' \
				"$raw/$w.$side.$i.json"
		done
	done
done >"$raw/all.jsonl"

# Quartiles interpolate linearly between order statistics.
jq -s --arg seed "$seed" --arg seconds "$seconds" --argjson pairs "$pairs" \
	--arg base "$(git -C "$parent" describe --always)" \
	--arg change "$(git describe --always --dirty)" \
	--slurpfile bench BENCHMARK.json \
	--slurpfile first "$raw/${wls[0]}.change.1.json" '
	def q($p): sort as $s | ((($s | length) - 1) * $p) as $x | ($x | floor) as $i
		| if $i + 1 < ($s | length) then $s[$i] + ($s[$i + 1] - $s[$i]) * ($x - $i) else $s[$i] end;
	def r: . * 10000 | round / 10000;
	. as $runs
	| ($bench[0].end_to_end | map({key: .name, value: .}) | from_entries) as $defs
	| {
		protocol: "scripts/benchpair.sh: \($pairs) alternating pairs per workload (base first in odd pairs) of bash perfbench/run.sh --seed \($seed) --seconds \($seconds) --trace 0; medians, IQRs and wins over the pairs",
		base: $base,
		change: $change,
		machine: ($first[0] | {nproc, gomaxprocs, go, cpu}),
		workloads: (
			$runs | group_by(.workload) | map(
				. as $wruns | {key: .[0].workload, value: (
					$defs | keys | map(. as $m | {key: $m, value: (
						($wruns | map(select(.side == "parent")) | sort_by(.pair) | map(.metrics[$m])) as $p
						| ($wruns | map(select(.side == "change")) | sort_by(.pair) | map(.metrics[$m])) as $c
						| {
							unit: $defs[$m].unit,
							better: $defs[$m].better,
							parent_median: ($p | q(0.5) | r),
							change_median: ($c | q(0.5) | r),
							parent_iqr: (($p | q(0.75)) - ($p | q(0.25)) | r),
							change_iqr: (($c | q(0.75)) - ($c | q(0.25)) | r),
							change_wins: ([range(0; $p | length)] | map(select(
								if $defs[$m].better == "lower" then $c[.] < $p[.] else $c[.] > $p[.] end)) | length),
							pairs: ($p | length),
							parent_runs: ($p | map(r)),
							change_runs: ($c | map(r))
						}
					)}) | from_entries
				)}
			) | from_entries
		)
	}' "$raw/all.jsonl" >"$out"
echo "benchpair: wrote $out" >&2
