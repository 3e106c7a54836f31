"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload large-offset --seeds 1-10

For every metric: the median over the seeds and the distance between the
first and third quartiles as a share of the median, the figure
BENCHMARK.json's bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a seed or a range lo-hi")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seed_list(args.seeds):
        result = run_once(args.workload, seed, bench["run_seconds"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                          for k, v in result["metrics"].items()),
              flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = f"  bound {bound}, a third {bound / 3:.3f}" if bound else ""
        print(f"{name:32s} median {med:.6g}  IQR/median {share:.3f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
