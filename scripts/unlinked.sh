#!/usr/bin/env bash
# Prints every non-test function outside benchmark/ that no program links,
# one per line with the reason it is kept. Every cmd/* and examples/*
# program and benchmark/'s driver is built with inlining off (so every call
# keeps its symbol); a function that appears in none of their `go tool nm`
# text symbols is listed. testdata/unlinked.txt pins the output, and CI
# fails on any difference:
#
#   scripts/unlinked.sh | diff -u testdata/unlinked.txt -
#
# The reasons (scripts/unlinked.go assigns them; "none" means delete it):
#   roadmap-1   the streaming selection code ROADMAP item 1 deletes whole;
#   public-api  a facade call README.md or example_test.go shows, or what
#               such a call links (the program built from api.go below);
#   test-infra  faultnet and golden, or linked into the test binary of a
#               package other than its own.
#
# Nothing is written inside the checkout: the programs, the test binaries
# and the api.go module go to a temporary directory.
set -euo pipefail

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cd "$root"
mkdir -p "$tmp/bin" "$tmp/test" "$tmp/api"

go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd benchmark && go build -gcflags=all=-l -o "$tmp/bin/benchmark" .)
go test -c -gcflags=all=-l -o "$tmp/test/" ./... >/dev/null # "no test files" notes

cat >"$tmp/api/go.mod" <<EOF
module fchainapi

go 1.24

require fchain v0.0.0

replace fchain => $root
EOF
cat >"$tmp/api/api.go" <<'EOF'
package main

import (
	"fmt"

	"fchain"
)

var shown = []any{
	fchain.DialService,              // README.md, service mode
	(*fchain.ServiceClient).Violate, // README.md, service mode
	(*fchain.ServiceClient).Close,
	fchain.NewDependencyGraph, // example_test.go
}

func main() { fmt.Println(len(shown)) }
EOF
(cd "$tmp/api" && go build -gcflags=all=-l -o api .)

# "<kind> <owner> <nm type> <symbol>", the symbol last: it may hold spaces.
symbols() {
	go tool nm "$3" | awk -v k="$1" -v o="$2" '
		{ sub(/^ +/, ""); typ = $2; sub(/^[^ ]+ +[^ ]+ +/, ""); print k, o, typ, $0 }'
}
{
	for exe in "$tmp"/bin/*; do
		symbols bin "$(basename "$exe")" "$exe"
	done
	for pkg in $(go list ./...); do
		if [[ -f "$tmp/test/${pkg##*/}.test" ]]; then
			symbols test "$pkg" "$tmp/test/${pkg##*/}.test"
		fi
	done
	symbols api - "$tmp/api/api"
} | go run scripts/unlinked.go "$root"
