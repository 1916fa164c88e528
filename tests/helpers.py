"""Shared generators for randomized tests (seeded, reproducible)."""

from __future__ import annotations

import json
import random
from pathlib import Path

from qtbraid import BraidWord, is_pure
from qtbraid.quasitoric import QuasitoricForm, qt_to_word
from qtbraid.words import Table

# Outputs of comb, decompose and nf_word on fixed inputs at n=3-9, recorded
# before the backward-sweep normal form and the shared permutation-braid word
# routine, to pin the rewritten paths byte for byte.
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
