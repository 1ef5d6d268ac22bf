#!/bin/sh
# Build the redf CLI and the benchmark from this checkout's sources,
# then run one benchmark invocation (arguments are passed through).
# Run from the root of a checkout:
#   sh perfbench/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0
set -u
for f in dune-project bin/redf.ml lib/server/engine.ml lib/admit/daemon.ml; do
  if [ ! -f "$f" ]; then
    echo "perfbench: $f is missing; run from the root of a reconfig_edf checkout" >&2
    exit 2
  fi
done
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
# keep every build artefact inside the checkout
DUNE_CACHE=disabled dune build --root . --build-dir .bench_build --profile release \
  ./bin/redf.exe ./perfbench/perfbench.exe >&2 || exit 3
exec .bench_build/default/perfbench/perfbench.exe --redf .bench_build/default/bin/redf.exe "$@"
