#!/usr/bin/env bash
# Runs every workload, first for its end-to-end metrics (--trace 0) and
# then traced for its per-layer table (--trace 1). Exits 1 if any run
# fails, e.g. on a verdict that disagrees with perfbench/expected.txt.
#
#   bash perfbench/all.sh [SEED] [SECONDS]     (from the repository root)
set -u
seed=${1:-1}
seconds=${2:-50}
status=0
for workload in cold-solve registry-fleet warm-served; do
  for trace in 0 1; do
    dune exec --root . --display quiet ./perfbench/main.exe -- \
      --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --trace "$trace" || status=1
  done
done
exit $status
