"""Run the benchmark over several seeds and report each end-to-end metric's
spread against its bound.

    python3 perfbench/steadiness.py --workloads eval-cli pde-quartet --seeds 10

Run from the root of the checkout.  For every workload it runs
`perfbench/run.py --trace 0` once per seed (1..N), then prints, per
metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json; the exit status is 1 when a spread exceeds its bound.
Raw results go to .perfbench-out/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    raw = {}
    steady = True
    for workload in names:
        runs = [run_once(spec, workload, seed) for seed in range(1, args.seeds + 1)]
        raw[workload] = runs
        print(f"{workload}: correct {all(r['correct'] for r in runs)},"
              f" attempted {[r['attempted'] for r in runs]},"
              f" failed {[r['failed'] for r in runs]}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            held = spread <= metric["bound"]
            steady = steady and held
            print(f"  {metric['name']:16s} median {med:.6g} {metric['unit']}"
                  f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
                  f"  bound {metric['bound']}  {'ok' if held else 'TOO WIDE'}")
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench-out", "steadiness.json"), "w",
              encoding="utf-8") as handle:
        json.dump(raw, handle, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
