"""Steadiness check: two sets of runs of the same code, compared by bounds.

    python3 aqpbench/steady.py --workload tpch_adhoc --runs 10

Each of the two sets runs the workload once per seed (the second set uses
the ``runs`` seeds after the first set's).  For every end-to-end metric it
prints each set's median and quartiles and the spread (interquartile
distance over the median), then whether the sets agree with
``BENCHMARK.json``: every spread within the metric's bound, the second
median within the bound of the first on either side, and the same share of
failed operations in both sets.  Exits 1 when they do not agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr[-2000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / abs(statistics.median(values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    agree = True
    for workload in args.workload:
        sets = []
        for number in range(SETS):
            runs = []
            for index in range(args.runs):
                seed = args.first_seed + number * args.runs + index
                result = run_once(workload, seed, seconds, 0)
                runs.append(result)
                print(f"{workload} set {number} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"wall={result['wall_s']:.1f}s", flush=True)
            sets.append(runs)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with open(os.path.join(HERE, "out", f"steady-{workload}.json"), "w") as handle:
            json.dump(sets, handle)
        print(f"\n{workload}: metric, then per set median [q1, q3] spread")
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            cells = []
            medians = []
            for runs in sets:
                q1, mid, q3, width = spread([run["metrics"][name]["value"] for run in runs])
                medians.append(mid)
                cells.append(f"{mid:.5g} [{q1:.5g}, {q3:.5g}] {width:.3f}")
                if width > bound:
                    agree = False
                    cells[-1] += " WIDE"
                elif width > bound / 3:
                    cells[-1] += " (over bound/3)"
            if abs(medians[1] - medians[0]) > bound * abs(medians[0]):
                agree = False
                cells.append("MEDIAN MOVED")
            print(f"  {name:<18} bound {bound:<5} " + " | ".join(cells))
        shares = {
            round(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs), 12)
            for runs in sets
        }
        if len(shares) > 1 or not all(r["correct"] for runs in sets for r in runs):
            agree = False
        walls = [run["wall_s"] for runs in sets for run in runs]
        print(f"  failed share per set: {sorted(shares)}; wall per run "
              f"median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
    print("sets agree within bounds" if agree else "sets DO NOT agree within bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
