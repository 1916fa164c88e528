"""Steadiness of the end-to-end metrics: repeated runs against their bounds.

    python3 bench/steady.py                      # 10 seeds on every workload
    python3 bench/steady.py --workload qt_rewrite --sets 2 --first-seed 201

Runs bench/run.py RUNS times per set, once per seed and one run at a time,
each for run_seconds from BENCHMARK.json.  Prints for every end-to-end metric
the median, the quartiles, the spread (the distance between the quartiles as
a share of the median) and the bound from BENCHMARK.json.
With --sets 2 the second set uses the next seeds and the shift of its median
against the first set is printed too.  The raw results are saved under
bench/out/ for the README's tables.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10  # runs per set; a set's spread is taken over their values


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def report(workload: str, sets: list[list[dict]], bounds: dict[str, float]) -> None:
    print(f"\n{workload}: {len(sets)} set(s) of {len(sets[0])} runs")
    print(f"{'metric':16} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>7} {'bound':>6} {'shift':>7}")
    for name, bound in bounds.items():
        first = None
        for k, runs in enumerate(sets, 1):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, s = spread(values)
            shift = "" if first is None else f"{med / first - 1:+.3f}"
            first = med if first is None else first
            print(f"{name:16} {k:>3} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{s:7.3f} {bound:6.2f} {shift:>7}")
    for k, runs in enumerate(sets, 1):
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        secs = statistics.median(r["run_s"] for r in runs)
        print(f"set {k}: attempted={attempted} failed={failed} correct={correct} "
              f"median run {secs:.1f} s")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workload or names:
        sets = []
        seed = args.first_seed
        for _ in range(args.sets):
            runs = []
            for _ in range(RUNS):
                runs.append(one_run(workload, seed, spec["run_seconds"]))
                seed += 1
            sets.append(runs)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (out_dir / f"steady-{workload}-{stamp}.json").write_text(json.dumps(sets))
        report(workload, sets, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
