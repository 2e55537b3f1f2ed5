#!/usr/bin/env bash
# Paired A/B benchmark: runs spurbench on two revisions of this repository,
# alternating the two sides pair by pair on one host, and writes every
# pair's end-to-end metrics to one JSON record.
#
#   scripts/ab_bench.sh [-n pairs] [-s seconds] [-e seed] [-o out.json] <base-rev> <head-rev> <workload>...
#
# Each revision is checked out into its own git worktree under a temporary
# directory and measured there with `bash cmd/spurbench/run.sh --workload W
# --seed S --seconds T --trace 0`, so each side builds spurbench from its own
# source. Pair i runs the base side first when i is even and the head side
# first when it is odd, so a host that drifts over minutes cannot favour one
# side. Defaults: 5 pairs, BENCHMARK.json's run_seconds, seed 1, output to
# stdout. Run it from anywhere inside the repository:
#
#   scripts/ab_bench.sh -n 10 -o BENCH_pr16.json HEAD~1 HEAD table41-exact
#
# The record holds the host (CPU model, nproc, Go version), both revisions,
# the pair count, the seed, each pair's values, output digests and order.
# scripts/ab_judge.jq then adds, per workload, whether every pair's two
# digests were equal, and per end-to-end metric the median and quartiles of
# each side, the median of head/base ratios, in how many pairs head was
# better and worse (the direction BENCHMARK.json gives), and a verdict:
# regressed, unresolved, missing or pass (see that file for the rule).
# Every verdict other than pass is printed to stderr. The script exits 1
# after writing the record when any metric regressed, and stops with status
# 1 at once when a run reports correct=false or failed>0.
set -euo pipefail

pairs=5 seconds= seed=1 out=
while getopts n:s:e:o: opt; do
	case $opt in
	n) pairs=$OPTARG ;;
	s) seconds=$OPTARG ;;
	e) seed=$OPTARG ;;
	o) out=$OPTARG ;;
	*) exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [ $# -lt 3 ]; then
	sed -n '2,27p' "$0" >&2
	exit 2
fi
base_rev=$1 head_rev=$2
shift 2

root=$(git rev-parse --show-toplevel)
bench=$root/BENCHMARK.json
seconds=${seconds:-$(jq -r .run_seconds "$bench")}
base_sha=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
head_sha=$(git -C "$root" rev-parse --verify "$head_rev^{commit}")

work=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
	git -C "$root" worktree remove --force "$work/head" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$work/base" "$base_sha" >/dev/null
git -C "$root" worktree add --detach "$work/head" "$head_sha" >/dev/null

# run <side> <workload>: one spurbench run; prints its metrics and output
# digest as one JSON object.
run() {
	local stdout line digest
	stdout=$(cd "$work/$1" && CARGO_TARGET_DIR="$work/build-$1" \
		bash cmd/spurbench/run.sh --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0)
	line=$(tail -n 1 <<<"$stdout")
	digest=$(sed -n 's/.* digest=\([0-9a-f]*\)$/\1/p' <<<"$stdout" | head -n 1)
	if [ "$(jq -r '.correct and .failed == 0' <<<"$line")" != true ]; then
		echo "ab_bench: $1 ($2) reported a failed run: $line" >&2
		exit 1
	fi
	jq -c --arg digest "$digest" '.metrics | map_values(.value) | .digest = $digest' <<<"$line"
}

records=$work/pairs.jsonl
: >"$records"
for w in "$@"; do
	for ((i = 0; i < pairs; i++)); do
		if ((i % 2 == 0)); then first=base second=head; else first=head second=base; fi
		a=$(run $first "$w")
		b=$(run $second "$w")
		jq -nc --arg w "$w" --argjson i "$i" --arg first "$first" \
			--argjson a "$a" --argjson b "$b" --arg second "$second" \
			'{workload: $w, pair: $i, first: $first, ($first): $a, ($second): $b}' >>"$records"
		echo "ab_bench: $w pair $((i + 1))/$pairs done ($first first)" >&2
	done
done

host=$(jq -n --arg cpu "$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)" \
	--argjson nproc "$(nproc)" --arg go "$(go env GOVERSION)" '{cpu: $cpu, nproc: $nproc, go: $go}')

result=$(jq -s --argjson host "$host" --arg base "$base_sha" --arg head "$head_sha" \
	--argjson pairs "$pairs" --argjson seconds "$seconds" --argjson seed "$seed" '
	{host: $host, base: $base, head: $head, pairs: $pairs, seconds: $seconds, seed: $seed,
	 workloads: (group_by(.workload) | map({workload: .[0].workload, pairs: map({pair, first, base, head})}))}' "$records" |
	jq --slurpfile bench "$bench" -f "$(dirname "$0")/ab_judge.jq")

if [ -n "$out" ]; then
	printf '%s\n' "$result" >"$out"
else
	printf '%s\n' "$result"
fi
jq -r '.workloads[] | (.pairs | length) as $n | .workload as $w | .summary | to_entries[]
	| select(.value.verdict != "pass") | .key as $m | .value
	| if .verdict == "missing" then "ab_bench: missing: \($w) \($m) on \(.missing_on | join(" and ")), not judged"
	  else "ab_bench: \(.verdict): \($w) \($m): head worse in \(.head_worse) of \($n) pairs, median head/base \(.ratio_median * 1000 | round / 1000)"
	  end' <<<"$result" >&2
if [ "$(jq '.regressions | length' <<<"$result")" -gt 0 ]; then
	exit 1
fi
