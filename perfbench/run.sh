#!/usr/bin/env bash
# Build the benchmark from the sources in this checkout, then run it with
# the given arguments. Build output goes to standard error, so the last
# line of standard output stays the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --display quiet perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
