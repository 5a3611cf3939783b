#!/usr/bin/env bash
# repeat.sh — run the ledger K times per workload and report its spread.
#
#   bench/ledger/repeat.sh [--rounds=K] [--seconds=S] [--seed=BASE]
#                          [--workload=NAME|all]
#
# Round i runs every chosen workload with seed BASE+i (one run.sh call per
# workload and round, each a separate process).  For every (workload,
# end-to-end metric) pair it prints the median, the quartiles, and the
# interquartile range as a share of the median next to the metric's bound
# from BENCHMARK.json; a pair whose spread exceeds its bound is flagged
# ("OVER") and makes the script exit 1.  set-up time is reported but not
# judged: its bound limits how far the median may move, not its spread.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
rounds=5
seconds=10
seed=1
workloads="floor_batched fig10_ecc16 re32_qat host_loop keyed_open"
for arg in "$@"; do
  case "$arg" in
    --rounds=*) rounds="${arg#*=}" ;;
    --seconds=*) seconds="${arg#*=}" ;;
    --seed=*) seed="${arg#*=}" ;;
    --workload=all) ;;
    --workload=*) workloads="${arg#*=}" ;;
    *) echo "usage: repeat.sh [--rounds=K] [--seconds=S] [--seed=BASE] [--workload=NAME|all]" >&2
       exit 2 ;;
  esac
done
if ! [[ "$rounds" =~ ^[1-9][0-9]*$ && "$seed" =~ ^[0-9]+$ ]]; then
  echo "repeat.sh: --rounds must be a positive integer, --seed a number" >&2
  exit 2
fi

results="$(mktemp)"
trap 'rm -f "$results"' EXIT
for ((i = 0; i < rounds; i++)); do
  for w in $workloads; do
    line="$("$here/run.sh" --workload="$w" --seed=$((seed + i)) \
              --seconds="$seconds" | tail -n 1)"
    echo "round $((i + 1))/$rounds $w done" >&2
    printf '%s\t%s\n' "$w" "$line" >>"$results"
  done
done

python3 - "$results" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys

bounds = {}
try:
    for m in json.load(open(sys.argv[2]))["end_to_end"]:
        bounds[m["name"]] = m["bound"]
except OSError:
    pass
runs = {}
for row in open(sys.argv[1]):
    workload, line = row.rstrip("\n").split("\t", 1)
    for name, m in json.loads(line)["metrics"].items():
        runs.setdefault((workload, name), []).append(m["value"])
over = 0
print(f"{'workload':14s} {'metric':22s} {'median':>12s} {'q1':>12s} "
      f"{'q3':>12s} {'iqr/med':>8s} {'bound':>7s}")
for (workload, name), v in runs.items():
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
    spread = (q3 - q1) / med if med else float("inf")
    bound = bounds.get(name)
    flag = ""
    if bound is not None and name != "setup_s" and spread > bound:
        flag = "  OVER"
        over += 1
    print(f"{workload:14s} {name:22s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
          f"{spread:8.4f} {bound if bound is not None else '-':>7}{flag}")
sys.exit(1 if over else 0)
EOF
