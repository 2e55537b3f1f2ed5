#!/usr/bin/env bash
# Print the paper's claims across a panel of seeds: for seeds 1-10 it runs
#
#   go run ./cmd/tables -t claims -reps 3 -json -seed N
#
# and prints one line per claim: its ID, then the measured value (with its
# CI95 half-width where the claim has one) and the verdict at each seed. A
# verdict that differs from seed 1's is marked with '*'. Verdicts read:
# pass, unresolved, FAIL, dev (fail, a known deviation) and UNEXPECTED
# (pass, a known deviation). About a minute per seed on 2 vCPUs.
#
#   scripts/claims_panel.sh > testdata/claims-panel.txt
#   scripts/claims_panel.sh runs > testdata/claims-panel.txt   # keep every run
#                                   # in the result store "runs": a rerun is free
set -euo pipefail

cd "$(dirname "$0")/.."

store=()
if [ $# -gt 0 ]; then
    store=(-store "$1")
fi
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for seed in $(seq 1 10); do
    echo "seed $seed..." >&2
    go run ./cmd/tables -t claims -reps 3 -json -seed "$seed" "${store[@]}" >"$out/$seed.json" 2>/dev/null
done

# Each file holds one doc, the claims table: ID, Claim, Measured, ±95%,
# Deciding row, Band, Paper, Verdict.
for seed in $(seq 1 10); do cat "$out/$seed.json"; done | jq -rs '
  def pad(n): if length < n then . + (" " * (n - length)) else . end;
  def short: if startswith("fail (known") then "dev"
             elif startswith("UNEXPECTED") then "UNEXPECTED"
             else . end;
  map(.[0].rows) as $seeds
  | (["claim"] + [range(1; ($seeds | length) + 1) | "seed \(.)"]) as $head
  | [range(0; $seeds[0] | length) as $i
     | ($seeds[0][$i][7] | short) as $first
     | [$seeds[0][$i][0]]
       + [$seeds[] | .[$i] | (.[7] | short) as $v
          | "\(.[2])\(.[3]) \($v)\(if $v != $first then "*" else "" end)"]] as $body
  | ([$head] + $body) as $m
  | [range(0; $head | length) as $c | [$m[] | .[$c] | length] | max + 2] as $w
  | $m[] | [range(0; length) as $c | .[$c] | pad($w[$c])] | join("") | sub(" +$"; "")
'
