"""Shared generators for randomized tests (seeded, reproducible)."""

from __future__ import annotations

import json
import random
from pathlib import Path

from qtbraid import Atom, BraidWord, gen_concat, gen_inverse, is_pure
from qtbraid import genset
from qtbraid.quasitoric import QuasitoricForm, qt_to_word
from qtbraid.words import GenWord, Table

# Outputs of comb, decompose and nf_word on fixed inputs at n=3-9, recorded
# before the backward-sweep normal form and the shared permutation-braid word
# routine, to pin the rewritten paths byte for byte; and decompose at n=10-16
# and 21, recorded before substitution joined its pieces at the seams.
GOLDENS = json.loads((Path(__file__).parent / "data" / "rewrite_goldens.json").read_text())


class WatchedMemo(Table):
    """A Table that counts its clears and records its largest size."""

    clears = 0
    peak = 0

    def clear(self):
        self.clears += 1
        super().clear()

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


def compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of q -> f(g(q)) (0-based, as words.perm): g is applied first."""
    return tuple(f[v] for v in g)


def rewrite(gw: GenWord, n: int, variant: str) -> GenWord:
    """gw rewritten by the library's twist table for variant ("thm41" or "thm42").

    On the thm41 alphabet the "thm42" table gives the thm42 rewriting, since
    thm41 fixes d0 and t1,j for j <= N.
    """
    return genset._twist_tables(n)[variant].substitute(gw)


def stack_reduce(gw) -> GenWord:
    """Free reduction as first written, sharing no code with the library's:
    one pass with a stack, merging equal neighbours and dropping zeros."""
    out: list[tuple[Atom, int]] = []
    for atom, e in gw:
        if e == 0:
            continue
        if out and out[-1][0] == atom:
            merged = out.pop()[1] + e
            if merged:
                out.append((atom, merged))
        else:
            out.append((atom, e))
    return tuple(out)


def substitute_then_reduce(image, fixed: Atom | None, gw: GenWord) -> GenWord:
    """The image of gw under atom -> image(atom), fixed -> fixed, as first defined:
    concatenate image(atom)^e for every syllable, then free-reduce once."""
    out: list[tuple[Atom, int]] = []
    for atom, e in gw:
        if atom == fixed:
            out.append((atom, e))
        else:
            word = image(atom)
            out.extend((word if e > 0 else gen_inverse(word)) * abs(e))
    return stack_reduce(out)


def gen_pow(gw: GenWord, k: int) -> GenWord:
    """gw^k, freely reduced; the inverse word for k < 0."""
    if k < 0:
        gw, k = gen_inverse(gw), -k
    return gen_concat(*([gw] * k))


def random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    return BraidWord(
        n,
        tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)),
    )


def random_pure_word(rng: random.Random, n: int, max_len: int = 10) -> BraidWord:
    """Rejection-sample a pure braid word of length <= max_len."""
    while True:
        w = random_word(rng, n, rng.randint(0, max_len))
        if is_pure(w):
            return w


def random_form(rng: random.Random, n: int, m: int) -> QuasitoricForm:
    return QuasitoricForm(
        n,
        tuple(
            tuple(rng.choice([1, -1]) for _ in range(n - 1)) for _ in range(m)
        ),
    )


def random_qt_word(rng: random.Random, n: int, max_rows: int = 5) -> BraidWord:
    return qt_to_word(random_form(rng, n, rng.randint(0, max_rows)))


def rewrite_equivalent(rng: random.Random, w: BraidWord, moves: int = 30) -> BraidWord:
    """Apply random braid-relation moves and free insertions; same group element."""
    letters = list(w.letters)
    n = w.strands
    for _ in range(moves):
        kind = rng.randint(0, 2)
        if kind == 0 and len(letters) > 1:
            k = rng.randrange(len(letters) - 1)
            if abs(abs(letters[k]) - abs(letters[k + 1])) >= 2:
                letters[k], letters[k + 1] = letters[k + 1], letters[k]
        elif kind == 1 and len(letters) >= 3:
            k = rng.randrange(len(letters) - 2)
            a, b, c = letters[k : k + 3]
            if a == c and a > 0 and b > 0 and abs(a - b) == 1:
                letters[k : k + 3] = [b, a, b]
        else:
            k = rng.randint(0, len(letters))
            x = rng.choice([1, -1]) * rng.randint(1, n - 1)
            letters[k:k] = [x, -x]
    return BraidWord(n, tuple(letters))
