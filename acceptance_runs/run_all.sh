#!/bin/sh
# Populates the acceptance-run cache read by tests/test_acceptance.py
# (criteria 5 and 6): nine csac-lb/tilt cells, up to `nproc` at once, each
# one process with one BLAS thread.  One thread is the scope of every
# golden log digest: OpenBLAS gives other bits at 2 threads.  ~658k updates
# in all; on 2 vCPUs that is ~4.6 h in two processes, against ~8.5 h in
# sequence.  A cell whose log.csv exists is skipped.  Runs from any
# directory, with or without an installed package.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
# one line per cell: output directory, seed, steps, mu
cells() {
  for seed in 0 1 2; do
    echo "acceptance_runs/c5_mu3_seed$seed $seed 100000 3.0"
  done
  for mu in 1.01 1.5; do
    for seed in 0 1 2; do
      echo "acceptance_runs/c6_mu${mu}_seed$seed $seed 60000 $mu"
    done
  done
}
cells | xargs -L 1 -P "$(nproc)" sh -ec '
  [ -f "$1/log.csv" ] || python3 -m barrier_rl.cli train --algo csac-lb --env tilt \
    --seed "$2" --steps "$3" --mu "$4" --out "$1"
  echo "done $1"' cell
echo ALL DONE
