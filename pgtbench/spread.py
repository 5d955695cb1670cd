"""Run one workload repeatedly and report each metric's spread.

    python3 pgtbench/spread.py --workload deep --seeds 1-10
    python3 pgtbench/spread.py --workload deep --seeds 7,7,7 --trace 1

Each run is `run.py` in its own process with the next seed.  For every
metric the script prints the median, the quartiles and the spread, the
distance between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them.  With --trace 1 it also
reports, per seed, whether the counters repeat exactly across its runs.
--seconds defaults to run_seconds of BENCHMARK.json.  The bounds in
BENCHMARK.json are set from these spreads.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNTER_UNITS = ("count", "MB", "ratio")


def seeds_arg(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", default=str(json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]))
    p.add_argument("--trace", default="0", choices=("0", "1"))
    args = p.parse_args()
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print("seed %d: exit code %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append((seed, result))
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
    names = list(runs[0][1]["metrics"])
    print("%-34s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3", "spread"))
    for name in names:
        values = [r["metrics"][name]["value"] for _, r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-34s %12.6g %12.6g %12.6g %8.3f" % (name, med, q1, q3, spread))
    shares = {r["failed"] / r["attempted"] for _, r in runs}
    print("failed share: %s" % sorted(shares))
    if args.trace == "1":
        by_seed = {}
        for seed, r in runs:
            counters = {k: v["value"] for k, v in r["metrics"].items()
                        if v["unit"] in COUNTER_UNITS}
            by_seed.setdefault(seed, []).append(counters)
        for seed, cs in by_seed.items():
            if len(cs) > 1:
                print("seed %d: counters repeat exactly across %d runs: %s"
                      % (seed, len(cs), all(c == cs[0] for c in cs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
