#!/bin/sh
# Populates the acceptance-run cache read by tests/test_acceptance.py
# (criteria 5 and 6).  Sequential; ~6-10 h on one desktop core.
# Runs from any directory, with or without an installed package.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
for seed in 0 1 2; do
  d=acceptance_runs/c5_mu3_seed$seed
  [ -f $d/log.csv ] || python3 -m barrier_rl.cli train --algo csac-lb --env tilt \
    --seed $seed --steps 100000 --mu 3.0 --out $d
  echo "done $d"
done
for mu in 1.01 1.5; do
  for seed in 0 1 2; do
    d=acceptance_runs/c6_mu${mu}_seed$seed
    [ -f $d/log.csv ] || python3 -m barrier_rl.cli train --algo csac-lb --env tilt \
      --seed $seed --steps 60000 --mu $mu --out $d
    echo "done $d"
  done
done
echo ALL DONE
