#!/bin/sh
# Run-to-run spread of the benchmark's metrics.  From the root of a checkout:
#
#   sh benchmark/spread.sh WORKLOAD SEED N [STEP [SECONDS [TRACE]]]
#
# runs WORKLOAD N times, with seeds SEED, SEED+STEP, ..., SEED+(N-1)*STEP.
# STEP defaults to 0, so every run has the same seed; STEP 1 sweeps seeds.
# SECONDS defaults to run_seconds in BENCHMARK.json, TRACE to 0.  For each
# metric it prints the median, the first and third quartiles as Python's
# statistics.quantiles(values, n=4) computes them, and the interquartile
# range as a share of the median.
set -eu
if [ $# -lt 3 ] || [ "$3" -lt 2 ]; then
  echo "usage: $0 WORKLOAD SEED N [STEP [SECONDS [TRACE]]]   (N >= 2)" >&2
  exit 2
fi
workload=$1
seed=$2
n=$3
step=${4:-0}
seconds=${5:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
trace=${6:-0}
i=0
lines=""
while [ "$i" -lt "$n" ]; do
  out=$(sh benchmark/run.sh --workload "$workload" --seed $((seed + i * step)) --seconds "$seconds" --trace "$trace")
  lines="$lines$(printf '%s\n' "$out" | grep '^metric ')
"
  printf '%s\n' "$out" | grep '^host ' >&2
  i=$((i + 1))
done
printf '%s' "$lines" | sort -k2,2 -k3,3g | awk '
  function flush(   k, j, d, q) {
    if (count == 0) return
    for (k = 1; k <= 3; k++) {
      j = int(k * (count + 1) / 4)
      if (j < 1) j = 1
      if (j > count - 1) j = count - 1
      d = k * (count + 1) - 4 * j
      q[k] = (v[j] * (4 - d) + v[j + 1] * d) / 4
    }
    printf "%-36s %-9s median %-14.8g q1 %-14.8g q3 %-14.8g iqr/median %.4f\n", \
      name, unit, q[2], q[1], q[3], (q[2] == 0 ? 0 : (q[3] - q[1]) / q[2])
    count = 0
  }
  $2 != name { flush(); name = $2; unit = $4 }
  { v[++count] = $3 }
  END { flush() }'
