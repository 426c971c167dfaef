#!/usr/bin/env bash
# Counts the non-test Go lines of the repository outside benchmark/ (and
# outside hidden directories such as .bench_build/): one line per package
# directory, then the total, the size figure CHANGES.md reports.
#
#   scripts/loc.sh [checkout]    # default: the checkout holding this script
set -euo pipefail

root="${1:-$(git -C "$(dirname "$0")" rev-parse --show-toplevel)}"
cd "$root"
find . \( -path './.*' -o -path ./benchmark \) -prune -o \
	-name '*.go' ! -name '*_test.go' -type f -print0 |
	xargs -0 awk '
		FNR == 1 { dir = FILENAME; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir); if (dir == "") dir = "." }
		{ lines[dir]++; total++ }
		END {
			for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
			close("sort -k2")
			printf "%7d  total\n", total
		}'
