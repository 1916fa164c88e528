"""Span tracing of qtbraid's layers from outside the library.

The tracer replaces public functions in the namespace of the module that
calls them (for example qtbraid.cli.normal_form or
qtbraid.presentations.smith_normal_form) with a wrapper that records a span:
metric name, start, end, parent span and a few work counts.  Spans stay in
memory; per-layer metrics are computed from them after each traced round and
the spans are written out when the run ends.

A metric "<layer>.<stage>_s" is the inclusive time of the outermost spans of
that stage; cli.self_s is the time in qtbraid.cli.run minus its child spans
and the time spent counting their work.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

import checks

WIDE_N = 16  # normal forms on at least this many strands count as wide


def _count_nf(span, args, result):
    w = args[0]
    span[4]["n"] = w.strands
    span[4]["letters"] = len(w.letters)
    span[4]["factors"] = len(result.factors)


def _count_expand(span, args, result):
    span[4]["letters"] = len(result.letters)


def _count_build(span, args, result):
    span[4]["relators"] = len(result.relators)


def _count_h1(span, args, result):
    relators = args[0].relators
    span[4]["rows"] = len(relators)
    useful = 0
    for rel in relators:
        row = defaultdict(int)
        for atom, e in rel:
            row[atom] += e
        useful += any(row.values())
    span[4]["useful_rows"] = useful


def _count_smith(span, args, result):
    span[4]["cells"] = len(args[0]) * result.cols


def _count_atoms(span, args, result):
    span[4]["atoms"] = sum(abs(e) for _, e in result)


def _count_decompose(span, args, result):
    w = args[0]
    span[4]["in"] = len(w.letters)
    span[4]["out"] = sum(len(checks.atom_power(w.strands, a.kind, a.i, a.j, 1)[0]) * abs(e)
                         for a, e in result)


# (module, attribute, metric, counter): where each layer is looked up by its caller
HOOKS = (
    ("cli", "run", "cli.run", None),
    ("cli", "parse_word", "words.parse", None),
    ("cli", "parse_generator_word", "words.parse", None),
    ("cli", "parse_form_text", "words.parse", None),
    ("cli", "qt_to_word", "words.parse", None),
    ("cli", "expand", "words.expand", _count_expand),
    ("presentations", "expand", "words.expand", _count_expand),
    ("cli", "normal_form", "garside.nf", _count_nf),
    ("cli", "equal", "garside.nf", None),
    ("presentations", "is_trivial", "garside.nf", None),
    ("garside", "normal_form", "garside.nf", _count_nf),
    ("cli", "presentation", "presentations.build", _count_build),
    ("cli", "verify", "presentations.verify", None),
    ("cli", "h1", "presentations.h1", _count_h1),
    ("cli", "qt_class", "presentations.qt_class", None),
    ("presentations", "smith_normal_form", "snf.smith", _count_smith),
    ("cli", "factor", "quasitoric.factor", None),
    ("genset", "factor", "quasitoric.factor", None),
    ("presentations", "factor", "quasitoric.factor", None),
    ("cli", "is_quasitoric", "quasitoric.is_qt", None),
    ("genset", "is_quasitoric", "quasitoric.is_qt", None),
    ("quasitoric", "is_quasitoric", "quasitoric.is_qt", None),
    ("cli", "comb", "purebraid.comb", None),
    ("purebraid", "comb", "purebraid.comb", None),
    ("genset", "t_decompose", "purebraid.t_decompose", _count_atoms),
    ("cli", "linking", "purebraid.linking", None),
    ("presentations", "linking", "purebraid.linking", None),
    ("cli", "decompose", "genset.decompose", _count_decompose),
    ("genset", "rewrite_to_thm41", "genset.rewrite", None),
    ("genset", "rewrite_to_thm42", "genset.rewrite", None),
)

# (metric, unit) in the order they are reported
PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("words.parse_s", "s"),
    ("words.expand_s", "s"),
    ("words.expand_letters", "letters"),
    ("garside.nf_s", "s"),
    ("garside.nf_calls", "count"),
    ("garside.in_letters", "letters"),
    ("garside.factors_out", "count"),
    ("garside.small_n.letters_per_s", "letters/s"),
    ("garside.wide_n.letters_per_s", "letters/s"),
    ("garside.retained_mb", "MB"),
    ("presentations.build_s", "s"),
    ("presentations.relators", "count"),
    ("presentations.verify_s", "s"),
    ("presentations.h1_s", "s"),
    ("presentations.h1_rows", "count"),
    ("presentations.h1_useful_rows", "count"),
    ("presentations.qt_class_s", "s"),
    ("snf.smith_s", "s"),
    ("snf.cells", "count"),
    ("quasitoric.factor_s", "s"),
    ("quasitoric.is_qt_s", "s"),
    ("purebraid.comb_s", "s"),
    ("purebraid.t_decompose_s", "s"),
    ("purebraid.linking_s", "s"),
    ("purebraid.atoms_out", "count"),
    ("purebraid.retained_mb", "MB"),
    ("genset.decompose_s", "s"),
    ("genset.rewrite_s", "s"),
    ("genset.blowup", "ratio"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans [metric, start, end, parent, counts] while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap the hooked functions of the currently imported qtbraid modules."""
        for mod_name, attr, metric, counter in HOOKS:
            module = sys.modules.get(f"qtbraid.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(fn, metric, counter))

    def _wrap(self, fn, metric, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [metric, 0.0, 0.0, stack[-1] if stack else -1, {}]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                start = perf_counter()
                counter(span, args, result)
                # counting is tracing overhead, not time of the caller
                span[4]["count_s"] = perf_counter() - start
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s[:4] for s in self.spans], fh)


def layer_metrics(spans: list[list], slowdown: float) -> dict[str, float]:
    """Per-layer totals over one traced round's spans, times divided by slowdown."""
    out: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1] + s[4].get("count_s", 0.0)
    small = [0, 0.0]
    wide = [0, 0.0]
    for idx, (metric, start, end, parent, counts) in enumerate(spans):
        dur = end - start
        if metric == "cli.run":
            out["cli.self_s"] += dur - child_time[idx]
        elif not _inside(spans, parent, metric):
            out[metric + "_s"] += dur
        if "n" in counts:  # one normal_form call
            out["garside.nf_calls"] += 1
            out["garside.in_letters"] += counts["letters"]
            out["garside.factors_out"] += counts["factors"]
            bucket = wide if counts["n"] >= WIDE_N else small
            bucket[0] += counts["letters"]
            bucket[1] += dur
        if metric == "words.expand":
            out["words.expand_letters"] += counts["letters"]
        out["presentations.relators"] += counts.get("relators", 0)
        out["presentations.h1_rows"] += counts.get("rows", 0)
        out["presentations.h1_useful_rows"] += counts.get("useful_rows", 0)
        out["snf.cells"] += counts.get("cells", 0)
        out["purebraid.atoms_out"] += counts.get("atoms", 0)
        out["_decompose_in"] += counts.get("in", 0)
        out["_decompose_out"] += counts.get("out", 0)
    for name in list(out):
        if name.endswith("_s"):
            out[name] /= slowdown
    for name, (letters, seconds) in (("small_n", small), ("wide_n", wide)):
        out[f"garside.{name}.letters_per_s"] = letters * slowdown / seconds if seconds else 0.0
    din = out.pop("_decompose_in")
    dout = out.pop("_decompose_out")
    out["genset.blowup"] = dout / din if din else 0.0
    return dict(out)


def _inside(spans: list[list], parent: int, metric: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == metric:
            return True
        parent = spans[parent][3]
    return False


def retained_mb(snapshot: tracemalloc.Snapshot, filename: str) -> float:
    """Memory allocated while tracing and still held, attributed to one source file."""
    total = sum(
        stat.size
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.endswith(filename)
    )
    return total / 2**20
