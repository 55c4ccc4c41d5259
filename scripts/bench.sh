#!/usr/bin/env bash
# Runs the fig5_speed benchmark (host throughput of every simulator
# configuration, the naive vs pre-decoded vs block-compiled vs
# profile-guided trace dispatch comparison — golden and VLIW cores on
# every tier, with per-workload trace-formation stats — the sharded
# multi-core throughput scaling 1->2->4->8->64->256 cores with paired
# sequential/pooled scheduler rows at every width, the epoch-barrier
# cost table (O(traffic) delta barrier, ns/epoch at 8/64/256 cores),
# and the fleet service at 1/10/100/1000 concurrent
# sessions with paired 1-worker/4-worker pool rows — sessions/sec plus
# aggregate MIPS) and leaves the machine-readable result in
# BENCH_fig5.json at the repo root, so the performance trajectory
# accumulates run over run.
#
# Note on the fleet pairs: both pool sizes simulate the bit-identical
# batch (the bench asserts the folded epoch digest chains match), so on
# a single-CPU host the 4-worker rows track the 1-worker rows — the
# pairing measures scheduling overhead there, not parallel speedup.
#
# `bench.sh --smoke` runs a tiny-budget pass instead (CI keep-alive
# for the bench paths, covering BOTH shard schedules at 1 and 2 cores,
# the barrier-cost harness, and all FOUR
# dispatch cores: the trace tier is exercised on every bundled fig5
# workload with an eager formation config, and the bench asserts
# traces actually form) and does NOT touch BENCH_fig5.json.
set -euo pipefail
cd "$(dirname "$0")/.."

export BENCH_FIG5_OUT="$PWD/BENCH_fig5.json"
if [[ "${1:-}" == "--smoke" ]]; then
  export BENCH_SMOKE=1
  BENCH_FIG5_OUT="$(mktemp -t BENCH_fig5_smoke.XXXXXX)"
  export BENCH_FIG5_OUT
fi

cargo bench -p cabt-bench --bench fig5_speed

echo
echo "== $BENCH_FIG5_OUT =="
cat "$BENCH_FIG5_OUT"
