#!/usr/bin/env bash
# Build the campaign benchmark from the sources in the current directory
# (the repository root) and run it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to standard error; the benchmark's last line of
# standard output is its JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe >&2
exe=./_build/default/perfbench/perfbench.exe
# Address-space randomisation places the heap differently in every
# process, which moved imb-messages' tests_per_s by 10% between otherwise
# identical runs; run with it off where the host allows.
if setarch "$(uname -m)" -R true 2>/dev/null; then
  exec setarch "$(uname -m)" -R "$exe" "$@"
fi
exec "$exe" "$@"
