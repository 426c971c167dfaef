#!/usr/bin/env bash
# Paired end-to-end benchmark runs: a parent revision against the working
# tree, on one workload of benchmark/run.sh, 15 s per run, untraced.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <n> [first-seed]
#
# The parent is exported with git archive into a temporary directory,
# removed on exit, so the repository's worktree list is never touched. Pair i runs seed first-seed+i (default first seed 1) on
# both sides, the parent first in even pairs and the working tree first in
# odd ones. For each of the four end-to-end metrics the script prints every
# pair (parent -> change, change/parent ratio), the pairs the change wins
# (ties count for neither side), the median pair ratio, and each side's
# median and quartiles. Raw driver lines are kept in the temporary
# directory until exit; a run that reports correct=false or failed
# operations is flagged in its pair's line.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
	echo "usage: $0 <parent-rev> <workload> <n> [first-seed]" >&2
	exit 2
fi
parent_rev=$1 workload=$2 n=$3 seed0=${4:-1}
root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$tmp/parent"

# run <checkout> <seed> prints the driver's JSON line, the last line of
# run.sh's standard output. run.sh exits non-zero on an incorrect run; the
# line still says so.
run() {
	bash "$1/benchmark/run.sh" --workload "$workload" --seed "$2" --seconds 15 --trace 0 2>/dev/null | tail -n 1 || true
}

results="$tmp/pairs.txt"
for ((i = 0; i < n; i++)); do
	seed=$((seed0 + i))
	if ((i % 2 == 0)); then
		p="$(run "$tmp/parent" "$seed")"
		c="$(run "$root" "$seed")"
	else
		c="$(run "$root" "$seed")"
		p="$(run "$tmp/parent" "$seed")"
	fi
	printf '%s\tparent\t%s\n%s\tchange\t%s\n' "$seed" "$p" "$seed" "$c" >>"$results"
	echo "pair $((i + 1))/$n (seed $seed) done" >&2
done

awk -F '\t' '
function value(line, name,   s) {
	if (!match(line, "\"" name "\":\\{\"value\":[^,}]*")) return "nan"
	s = substr(line, RSTART, RLENGTH)
	sub(/.*"value":/, "", s)
	return s + 0
}
function ok(line) { return line ~ /"correct":true/ && line ~ /"failed":0[,}]/ }
# q sorts a[1..k] in place and returns its p-quantile, interpolating
# linearly between order statistics.
function q(a, k, p,   i, j, t, h, f) {
	for (i = 2; i <= k; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
	h = 1 + (k - 1) * p
	f = int(h)
	return f >= k ? a[k] : a[f] + (h - f) * (a[f + 1] - a[f])
}
function copy(src, dst, k,   i) { for (i = 1; i <= k; i++) dst[i] = src[i] }
BEGIN {
	split("setup_s ingest_samples_per_s localize_p50_ms heap_bytes_per_component", names, " ")
	higher["ingest_samples_per_s"] = 1
}
$2 == "parent" { k++; seed[k] = $1; pline[k] = $3 }
$2 == "change" { cline[k] = $3 }
END {
	for (m = 1; m <= 4; m++) {
		name = names[m]
		wins = 0
		printf "%s (%s is better)\n", name, (name in higher) ? "higher" : "lower"
		for (i = 1; i <= k; i++) {
			pv[i] = value(pline[i], name)
			cv[i] = value(cline[i], name)
			r[i] = pv[i] != 0 ? cv[i] / pv[i] : 0
			if ((name in higher) ? cv[i] > pv[i] : cv[i] < pv[i]) wins++
			flag = (ok(pline[i]) && ok(cline[i])) ? "" : "  NOT correct=true failed=0"
			printf "  seed %-6s %12.6g -> %-12.6g (%.3f)%s\n", seed[i], pv[i], cv[i], r[i], flag
		}
		copy(pv, s, k); pq1 = q(s, k, 0.25); pmed = q(s, k, 0.5); pq3 = q(s, k, 0.75)
		copy(cv, s, k); cq1 = q(s, k, 0.25); cmed = q(s, k, 0.5); cq3 = q(s, k, 0.75)
		copy(r, s, k); rmed = q(s, k, 0.5)
		printf "  wins %d/%d, median pair ratio %.3f\n", wins, k, rmed
		printf "  parent median %.6g (quartiles %.6g-%.6g, IQR %.6g)\n", pmed, pq1, pq3, pq3 - pq1
		printf "  change median %.6g (quartiles %.6g-%.6g, IQR %.6g)\n\n", cmed, cq1, cq3, cq3 - cq1
	}
}' "$results"
