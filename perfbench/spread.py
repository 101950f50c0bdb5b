"""Run a workload once per seed, one run at a time, and summarize.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 5] [--trace 0|1]

Prints, for each metric, the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, plus the share of failed operations.  The benchmark's
bound for an end-to-end metric only means something where this spread is
well inside it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", default="5")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    args = p.parse_args(argv)

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            cwd=RUN.parent.parent, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        res = json.loads(lines[-1])
        results.append(res)
        shown = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
        print(f"seed {seed}: failed {res['failed']}/{res['attempted']} "
              f"{shown if args.trace == '0' else ''}", flush=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"\n{args.workload}: {len(results)} runs, failed {failed}/{attempted}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) < 2:
            print(f"{name:42s} median {med:.6g}")
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:42s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {share:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
