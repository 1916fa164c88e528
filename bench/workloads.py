"""The three workloads: seeded inputs, warm-up calls and output checks.

A workload builds one batch per round.  A batch is a list of operations, each
one qtbraid subcommand (argv for qtbraid.cli.run) plus a check of its exit
code and standard output.  Inputs come only from (seed, round), so a seed
fixes every input of a run.  Checks run after the batch, in generation order,
and return the number of sigma letters in the braids the result denotes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks
from checks import Checker, require


@dataclass
class Op:
    argv: list[str]
    check: Callable[[int, str], int]  # (exit code, stdout) -> result letters


def _load(rc: int, out: str, want_rc: int = 0) -> dict:
    require(rc == want_rc, f"exit code {rc}, want {want_rc}")
    return json.loads(out)


def _word_text(letters: list[int]) -> str:
    return " ".join(map(str, letters))


# ---------------------------------------------------------------------------
# word_problem


def random_letters(rng: random.Random, n: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]


def equal_variant(rng: random.Random, n: int, letters: list[int], moves: int) -> list[int]:
    """The same braid, rewritten by free insertions and braid-relation moves."""
    w = list(letters)
    for _ in range(moves):
        kind = rng.randrange(3)
        k = rng.randint(0, len(w))
        if kind == 0:
            x = rng.choice((1, -1)) * rng.randint(1, n - 1)
            w[k:k] = [x, -x]
        elif kind == 1:
            # insert (j i j)(j i j)^-1, then turn the first half into i j i
            i = rng.randint(1, n - 2)
            i, j = (i, i + 1) if rng.random() < 0.5 else (i + 1, i)
            s = rng.choice((1, -1))
            w[k:k] = [s * i, s * j, s * i, -s * j, -s * i, -s * j]
        elif k + 1 < len(w) and abs(abs(w[k]) - abs(w[k + 1])) >= 2:
            w[k], w[k + 1] = w[k + 1], w[k]
    return w


class WordProblem:
    """eq on word pairs and nf --json on single words, in two regimes."""

    name = "word_problem"
    # (strand counts, nf word lengths, eq word lengths).  Lengths are spread
    # over a grid, not drawn at two values, so that operation times fill a
    # range without gaps and op_p50_ms and op_p90_ms do not sit on a cliff.
    regimes = (
        ((4, 5, 6), (1000, 1200, 1400, 1600, 1800, 2000), (1000, 1400, 1800)),
        ((32, 40, 48, 56, 64), (200, 250, 300), (250,)),
    )

    def warmup(self) -> list[list[str]]:
        return [["nf", "-n", str(n), "1"] for ns, *_ in self.regimes for n in ns]

    def batch(self, rng: random.Random, checker: Checker, scratch: str) -> list[Op]:
        ops = []
        equal = False
        for ns, nf_lengths, eq_lengths in self.regimes:
            for n in ns:
                for length in nf_lengths:
                    ops.append(self._nf(rng, checker, n, length))
                for length in eq_lengths:
                    equal = not equal  # half the pairs equal, half not
                    ops.append(self._eq(rng, n, length, equal))
        return ops

    def _nf(self, rng, checker, n, length) -> Op:
        word = random_letters(rng, n, length)

        def check(rc: int, out: str) -> int:
            return checker.normal_form(n, word, _load(rc, out))

        return Op(["nf", "-n", str(n), _word_text(word), "--json"], check)

    def _eq(self, rng, n, length, equal: bool) -> Op:
        u = random_letters(rng, n, length)
        v = equal_variant(rng, n, u, length // 20)
        if not equal:
            k = rng.randrange(len(v))
            v[k] = -v[k]  # exponent sum moves by 2, so the braids differ

        def check(rc: int, out: str) -> int:
            verdict = _load(rc, out, 0 if equal else 1)["equal"]
            require(verdict is equal, f"eq said {verdict}, pair built {equal}")
            return 0

        return Op(["eq", "-n", str(n), _word_text(u), _word_text(v), "--json"], check)


# ---------------------------------------------------------------------------
# presentation_check


class PresentationCheck:
    """relators, verify and h1 over a range of strand counts."""

    name = "presentation_check"
    ns = range(3, 15)  # relators and h1 for pb, qb, pmod
    verify_ns = range(3, 11)  # verify for pb and qb

    def warmup(self) -> list[list[str]]:
        return [["nf", "-n", str(n), "1"] for n in self.ns]

    def batch(self, rng: random.Random, checker: Checker, scratch: str) -> list[Op]:
        counts: dict[tuple[str, int], int] = {}
        ops = []
        for n in self.ns:
            for g in ("pb", "qb", "pmod"):
                ops.append(self._relators(g, n, counts))
            if n in self.verify_ns:
                for g in ("pb", "qb"):
                    ops.append(self._verify(g, n, counts))
            for g in ("pb", "qb", "pmod"):
                ops.append(self._h1(g, n))
        return ops

    def _relators(self, g, n, counts) -> Op:
        def check(rc: int, out: str) -> int:
            data = _load(rc, out)
            require((data["group"], data["n"]) == (g, n), "wrong presentation")
            letters = sum(checks.check_relator(n, r) for r in data["relators"])
            counts[g, n] = len(data["relators"])
            # the relators that verify checks are the ones the result denotes
            return letters if g != "pmod" and n in self.verify_ns else 0

        return Op(["relators", "--group", g, "-n", str(n), "--json"], check)

    def _verify(self, g, n, counts) -> Op:
        def check(rc: int, out: str) -> int:
            data = _load(rc, out)
            require(data["failures"] == [], f"verify {g} {n} failed {data['failures']}")
            require(data["checked"] == counts[g, n], "verify checked a different count")
            return 0

        return Op(["verify", "--group", g, "-n", str(n), "--json"], check)

    def _h1(self, g, n) -> Op:
        def check(rc: int, out: str) -> int:
            data = _load(rc, out)
            checks.check_h1(g, n, data["rank"], data["torsion"])
            return 0

        return Op(["h1", "--group", g, "-n", str(n), "--json"], check)


# ---------------------------------------------------------------------------
# qt_rewrite


class QtRewrite:
    """decompose (thm41, thm42) and abelianize on quasitoric sign-matrix forms."""

    name = "qt_rewrite"
    ns = range(5, 14)
    # one form of each height per strand count; the heights are a grid so that
    # operation times fill a range without gaps
    rows = (6, 12, 18, 24, 30, 36)

    def warmup(self) -> list[list[str]]:
        argvs = []
        for n in self.ns:
            d0 = _word_text(list(range(1, n)))
            for target in ("thm41", "thm42"):
                argvs.append(["decompose", "-n", str(n), "--target", target, d0])
            argvs.append(["abelianize", "-n", str(n), d0])
        return argvs

    def batch(self, rng: random.Random, checker: Checker, scratch: str) -> list[Op]:
        ops = []
        for n in self.ns:
            forms = []
            for m in rng.sample(self.rows, len(self.rows)):
                forms.append([[rng.choice((1, -1)) for _ in range(n - 1)] for _ in range(m)])
            classes: dict[int, dict] = {}
            sums: dict = {}  # class -> exponent sum, shared by the strand count's forms
            for k, form in enumerate(forms):
                path = self._write(scratch, n, k, form)
                for target in ("thm41", "thm42"):
                    ops.append(self._decompose(checker, n, form, path, target))
                ops.append(self._abelianize(n, path, form, classes, sums, k))
            for a, b in zip(range(0, len(forms), 2), range(1, len(forms), 2)):
                path = self._write(scratch, n, f"{a}{b}", forms[a] + forms[b])
                ops.append(self._abelianize(n, path, forms[a] + forms[b], classes, sums, (a, b)))
        return ops

    @staticmethod
    def _write(scratch: str, n: int, tag, form: list[list[int]]) -> str:
        path = os.path.join(scratch, f"form-{n}-{tag}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join("".join("+" if e > 0 else "-" for e in row) + "\n" for row in form))
        return path

    def _decompose(self, checker, n, form, path, target) -> Op:
        word = [e * i for row in form for i, e in enumerate(row, 1)]

        def check(rc: int, out: str) -> int:
            genword = _load(rc, out)["genword"]
            checks.check_alphabet(target, n, genword)
            return checker.genword_denotes(n, genword, word)

        argv = ["decompose", "-n", str(n), "--form", path, "--target", target, "--json"]
        return Op(argv, check)

    def _abelianize(self, n, path, form, classes, sums, key) -> Op:
        total = sum(e for row in form for e in row)

        def check(rc: int, out: str) -> int:
            cls = _load(rc, out)
            rank, torsion = checks.expected_h1("qb", n)
            require(cls["moduli"] == torsion and len(cls["free"]) == rank, "wrong H1(QB_n)")
            checks.check_class_exponent(sums, cls, total)
            if isinstance(key, tuple):
                a, b = key
                want = checks.add_classes(classes[a], classes[b])
                require(cls == want, f"abelianize(u.v) = {cls}, want {want}")
            classes[key] = cls
            return 0

        return Op(["abelianize", "-n", str(n), "--form", path, "--json"], check)


WORKLOADS = {w.name: w for w in (WordProblem(), PresentationCheck(), QtRewrite())}
