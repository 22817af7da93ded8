"""Run one workload several times, each with another seed, and print each
end-to-end metric's median and its spread: the distance between the first
and third quartile as a share of the median.

    python3 perfbench/spread.py --workload ingest --runs 10 --seconds 25

Each run is a separate `run.py` process, started one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed} correct={result['correct']} failed={result['failed']} {line}", flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for k, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{k}: median {med:.6g}  quartiles {q1:.6g} .. {q3:.6g}  spread {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
