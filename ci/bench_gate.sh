#!/usr/bin/env bash
# Run each named benchmark workload for 5 s at seed 1, print its pass_s,
# peak_rss_mb and ok_frac, and fail unless its oracles all held and no
# operation failed. A numeric warning fails the run. The BLAS thread count
# is whatever the caller's environment sets.
#
# usage: ci/bench_gate.sh WORKLOAD...
set -eu
export PYTHONWARNINGS=error::RuntimeWarning
for w in "$@"; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 5 --trace 0 \
    | tail -n 1 \
    | python3 -c "
import json, sys
r = json.load(sys.stdin)
m = r['metrics']
print(sys.argv[1], *(f'{k} {m[k][\"value\"]:.4g}'
                     for k in ('pass_s', 'peak_rss_mb', 'ok_frac')))
sys.exit(r['correct'] is not True or r['failed'] != 0)" "$w" \
    || { echo "benchmark workload $w failed"; exit 1; }
done
