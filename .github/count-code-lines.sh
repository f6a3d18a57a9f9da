#!/bin/sh
# Code size as CHANGES.md quotes it: non-blank lines that do not start with
# `//`, in non-test .go files outside bench/. Arguments narrow the count to
# the given directories (default: the whole module).
#
#   .github/count-code-lines.sh                    # whole module
#   .github/count-code-lines.sh internal/ergraph   # one package
cd "$(dirname "$0")/.." || exit 1
find "${@:-.}" -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path 'bench/*' -print0 |
	xargs -0 -r cat | grep -v -c -E '^[[:space:]]*(//|$)'
