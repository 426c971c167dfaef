#!/usr/bin/env bash
# Regenerates results_runs20.txt and results_ablation.txt with fchain-bench
# and fails on any difference from the committed files. Table II's section
# is left out of the comparison: its lines are wall-clock measurements.
#
#   scripts/check_artifacts.sh          # check (~1 min on 2 vCPU)
#   scripts/check_artifacts.sh update   # rewrite the committed files
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/fchain-bench" ./cmd/fchain-bench
"$tmp/fchain-bench" -all -runs 20 >"$tmp/results_runs20.txt"
"$tmp/fchain-bench" -exp ablation -runs 20 >"$tmp/results_ablation.txt"
if [ "${1:-}" = update ]; then
	cp "$tmp/results_runs20.txt" "$tmp/results_ablation.txt" .
	exit 0
fi
# Table II runs from its title line to the next blank line or the end.
strip() { sed '/^Table II:/,/^$/d' "$1"; }
status=0
for f in results_runs20.txt results_ablation.txt; do
	if ! diff -u "--label=$f (committed)" "--label=$f (regenerated)" <(strip "$f") <(strip "$tmp/$f"); then
		echo "$f is stale: regenerate it with scripts/check_artifacts.sh update" >&2
		status=1
	fi
done
exit "$status"
