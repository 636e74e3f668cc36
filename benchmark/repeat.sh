#!/usr/bin/env bash
# Run N full sets of the benchmark on the current build and print, per
# workload and end-to-end metric, median, min, max and spread against the
# metric's bound in BENCHMARK.json.
#
#   benchmark/repeat.sh N            N sets, every run with --seed 1
#   benchmark/repeat.sh N 7          N sets, every run with --seed 7
#   benchmark/repeat.sh N vary       set i runs with --seed i (what the driver does)
#   WORKLOADS="plan_cold wire_mixed" benchmark/repeat.sh N    a subset
#
# Spread is the distance between the first and third quartile
# (statistics.quantiles(values, n=4)) as a share of the median; with fewer
# than about five sets the quartiles are extrapolated and overstate it. A
# metric whose spread exceeds its bound is too noisy to judge a change by.
set -euo pipefail
cd "$(dirname "$0")/.."
sets="${1:?usage: benchmark/repeat.sh N [seed|vary]}"
seed="${2:-1}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

python3 - "$sets" "$seed" <<'EOF'
import json, os, statistics, subprocess, sys

sets, seed_arg = int(sys.argv[1]), sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
names = os.environ.get("WORKLOADS", "").split() or [w["name"] for w in spec["workloads"]]
values = {}  # (workload, metric) -> [value per set]
for i in range(1, sets + 1):
    seed = i if seed_arg == "vary" else int(seed_arg)
    for name in names:
        cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{name} (set {i}, seed {seed}) exited {out.returncode}:\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{name} (set {i}, seed {seed}): {result['failed']} of {result['attempted']} failed")
        for metric, v in result["metrics"].items():
            values.setdefault((name, metric), []).append(v["value"])
        print(f"set {i} seed {seed} {name}: ok, {result['attempted']} operations", file=sys.stderr)

print(f"{'workload':<13} {'metric':<15} {'median':>14} {'min':>14} {'max':>14} {'spread':>8} {'bound':>6}")
noisy = 0
for name in names:
    for m in spec["end_to_end"]:
        v = values[(name, m["name"])]
        med = statistics.median(v)
        if len(v) >= 2:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
        else:
            spread = 0.0
        # setup_s is judged on its median only, so its spread never flags.
        flag = " NOISY" if spread > m["bound"] and m["name"] != "setup_s" else ""
        noisy += bool(flag)
        print(f"{name:<13} {m['name']:<15} {med:>14.6g} {min(v):>14.6g} {max(v):>14.6g} "
              f"{spread:>8.4f} {m['bound']:>6}{flag}")
sys.exit(1 if noisy else 0)
EOF
