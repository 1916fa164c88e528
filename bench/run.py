"""Benchmark of the qtbraid engine, end to end and layer by layer.

    python3 bench/run.py --workload word_problem --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src.  One
process, one thread, closed loop: each operation is one qtbraid subcommand
run in process through qtbraid.cli.run(argv, out=buffer), so its time covers
parsing, computing and rendering.  A round is a fresh set-up (qtbraid
imported anew, then one small warm-up call per strand count) followed by the
workload's fixed batch of operations on fresh inputs from (seed, round).
Rounds repeat while the next one, and the set-ups still owed after it (a
run makes SETUPS at least), fit in --seconds, and until the run holds at
least MIN_OPS operations.  Outputs are checked by the benchmark's own code
after each batch, outside the timed region.

Timings are calibrated against host contention.  The machines this runs on
share their cores, and a neighbour can slow a whole run by 10-80 %.  So a
fixed reference loop that calls no qtbraid code is timed before the batch and
again whenever CHUNK_S of operations have run since; each operation's time is
divided by the slowdown around it: the median of the REFERENCE_WINDOW
reference timings nearest to it, over REFERENCE_S, the reference loop's time
on an idle host.  A time then reads as seconds on that idle host.  Each
round's median slowdown and raw batch time go to stderr.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics, the end-to-end metrics with --trace 0 and the per-layer metrics of
bench/spans.py with --trace 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 7  # set-ups per run at least; setup_s is their median
REFERENCE_PASSES = 48
REFERENCE_S = 0.0016  # reference() on an idle 2-vCPU Xeon at 2.1 GHz, Python 3.11
CHUNK_S = 0.05  # operation time between two reference timings, at most one operation more
REFERENCE_WINDOW = 7  # reference timings whose median gives a chunk's slowdown
MIN_OPS = 100  # operations per run at least, so ten lie beyond op_p90_ms
OUT_DIR = BENCH / "out"


# tuple-keyed dict lookups are the staple of the engine's memo and tables
_REF_KEYS = [tuple(range(i, i + 8)) for i in range(512)]
_REF_TABLE = {key: i for i, key in enumerate(_REF_KEYS)}


def reference() -> float:
    """Seconds taken by a fixed loop of tuple-keyed dict lookups."""
    table, keys = _REF_TABLE, _REF_KEYS
    start = perf_counter()
    total = 0
    for _ in range(REFERENCE_PASSES):
        for key in keys:
            total += table[key]
    return perf_counter() - start


class Clock:
    """Divides each timed span by the host slowdown measured around it.

    The reference loop is timed at the start and after every CHUNK_S of
    spans.  One reference timing scatters by about 10 %, while contention
    changes over seconds, so a chunk's slowdown is the median of the
    REFERENCE_WINDOW timings nearest to it.
    """

    def __init__(self):
        self._refs = [reference()]
        self._spans: list = []  # (key, seconds, index of the chunk's first reference)
        self._since = perf_counter()

    def add(self, key, seconds: float) -> None:
        self._spans.append((key, seconds, len(self._refs) - 1))
        if perf_counter() - self._since >= CHUNK_S:
            self.tick()

    def tick(self) -> None:
        self._refs.append(reference())
        self._since = perf_counter()

    def finish(self) -> tuple[dict, float]:
        """Calibrated seconds by key, and the median slowdown."""
        if self._spans[-1][2] == len(self._refs) - 1:
            self.tick()
        refs = self._refs
        half = REFERENCE_WINDOW // 2
        slowdowns = []
        for c in range(len(refs) - 1):
            lo = max(0, min(c + 1 - half, len(refs) - REFERENCE_WINDOW))
            slowdowns.append(statistics.median(refs[lo:lo + REFERENCE_WINDOW]) / REFERENCE_S)
        times = {key: seconds / slowdowns[c] for key, seconds, c in self._spans}
        return times, statistics.median(slowdowns)


def fresh_setup(workload, clock: Clock):
    """Import qtbraid anew and warm it up; returns the cli module.

    The set-up's time goes to the clock under the key "setup".
    """
    for name in [m for m in sys.modules if m == "qtbraid" or m.startswith("qtbraid.")]:
        del sys.modules[name]
    gc.collect()
    start = perf_counter()
    cli = importlib.import_module("qtbraid.cli")
    for argv in workload.warmup():
        if cli.run(argv, out=io.StringIO()) != 0:
            raise RuntimeError(f"warm-up {argv} failed")
    clock.add("setup", perf_counter() - start)
    clock.tick()
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"qtbraid imported from {cli.__file__}, not from ./src")
    return cli


class Round:
    """One set-up plus one batch: timings, outputs and check results."""

    def __init__(self, workload, seed: int, index: int, checker, scratch: str, mode: str):
        rng = random.Random(f"{workload.name}:{seed}:{index}")
        ops = workload.batch(rng, checker, scratch)
        order = list(range(len(ops)))
        rng.shuffle(order)
        tracer = spans.Tracer() if mode == "spans" else None

        start = perf_counter()
        clock = Clock()
        cli = fresh_setup(workload, clock)
        self.setup_real = perf_counter() - start
        if tracer is not None:
            tracer.install()
        gc.collect()
        if mode == "memory":
            tracemalloc.start()
        codes: list[int | None] = [None] * len(ops)
        outs = [""] * len(ops)
        raw_wall = 0.0
        for k in order:
            buf = io.StringIO()
            t0 = perf_counter()
            try:
                codes[k] = cli.run(ops[k].argv, out=buf)
            except Exception:  # a crash fails this operation, not the run
                traceback.print_exc()
            elapsed = perf_counter() - t0
            raw_wall += elapsed
            clock.add(k, elapsed)
            outs[k] = buf.getvalue()
        times, self.slowdown = clock.finish()
        if mode == "memory":
            snapshot = tracemalloc.take_snapshot()
            tracemalloc.stop()
            self.retained = {
                "garside.retained_mb": spans.retained_mb(snapshot, "garside.py"),
                "purebraid.retained_mb": spans.retained_mb(snapshot, "purebraid.py"),
            }
        del cli
        self.setup = times["setup"]
        self.times = [times[k] for k in range(len(ops))]
        self.raw_wall = raw_wall
        self.wall = sum(self.times)

        self.attempted = len(ops)
        self.failed = 0
        self.correct = True
        self.letters = 0
        for op, code, out in zip(ops, codes, outs):
            if code is None or code == 2:
                self.failed += 1
                continue
            try:
                self.letters += op.check(code, out)
            except (checks.CheckError, ValueError, KeyError, TypeError) as exc:
                self.correct = False
                print(f"check failed: {' '.join(op.argv)[:200]}: {exc!r}", file=sys.stderr)
        self.out_bytes = sum(len(o) for o in outs)
        self.tracer = tracer
        if tracer is not None:
            self.layers = spans.layer_metrics(tracer.spans, self.slowdown)
        self.real_s = perf_counter() - start


def run(workload, seed: int, seconds: float, traced: bool, scratch: str) -> dict:
    checker = checks.Checker(seed)
    plain: list[Round] = []
    spanned: list[Round] = []
    start = perf_counter()
    while True:
        index = len(plain)
        plain.append(Round(workload, seed, index, checker, scratch, "plain"))
        if traced:
            # the same inputs after a fresh import, so the difference in
            # wall time is the tracing overhead and not the inputs
            spanned.append(Round(workload, seed, index, checker, scratch, "spans"))
        step = sum(r.real_s for r in plain[-1:] + spanned[-1:])
        # the standalone set-ups still owed after one more round
        owed = max(0, SETUPS - len(plain) - len(spanned) - (2 if traced else 1))
        tail = owed * plain[-1].setup_real
        # a traced run reports no percentiles, so one pair of rounds is enough
        enough = traced or sum(r.attempted for r in plain) >= MIN_OPS
        if enough and perf_counter() - start + step + tail > seconds:
            break
    rounds = plain + spanned
    setups = [r.setup for r in rounds]
    while len(setups) < SETUPS:
        clock = Clock()
        fresh_setup(workload, clock)
        setups.append(clock.finish()[0]["setup"])
    memory = None
    if traced:
        memory = Round(workload, seed, len(plain), checker, scratch, "memory")
        rounds.append(memory)
    result = {
        "correct": all(r.correct for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    med = statistics.median
    if not traced:
        deciles = statistics.quantiles([t for r in plain for t in r.times], n=10)
        metrics = {
            "setup_s": (med(setups), "s"),
            "wall_s": (med(r.wall for r in plain), "s"),
            "op_p50_ms": (deciles[4] * 1e3, "ms"),
            "op_p90_ms": (deciles[8] * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "result_letters": (med(r.letters for r in plain), "letters"),
        }
    else:
        layers = {
            name: statistics.fmean(r.layers.get(name, 0.0) for r in spanned)
            for name, _ in spans.PER_LAYER
        }
        layers["cli.out_bytes"] = statistics.fmean(r.out_bytes for r in spanned)
        layers.update(memory.retained)
        layers["trace.overhead_s"] = med(r.wall for r in spanned) - med(r.wall for r in plain)
        metrics = {name: (layers[name], unit) for name, unit in spans.PER_LAYER}
        spanned[-1].tracer.dump(str(OUT_DIR / f"trace-{workload.name}-seed{seed}.json"))
    print(f"rounds: raw batch s {[round(r.raw_wall, 3) for r in rounds]}, "
          f"slowdown {[round(r.slowdown, 3) for r in rounds]}", file=sys.stderr)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qtbraid" / "__init__.py").is_file():
        print(f"error: no qtbraid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), str(scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
