"""Pure-braid machinery: linking numbers, combing, and full-twist decomposition.

Linking numbers are the abelian invariants of a pure braid: lk_{k,l} is half
the signed count of crossings between the strands starting at positions k and
l, and the map p -> (lk_{k,l}(p)) gives the coordinates of p in the free
abelianization of the pure braid group with respect to the looping generators
a<i>,<j>.

Combing writes a pure braid word as a product of a<i>,<j> atoms.  The word is
split letter by letter through the Schreier transversal of canonical positive
permutation lifts: a letter sigma_p^e either reduces against the lift (no
contribution) or contributes a conjugate lift(pi) sigma_p^{+-2} lift(pi)^{-1},
which is folded into a-atoms by the conjugation rules

    sigma_q a(r,s) sigma_q^{-1} =
        a(r,s)                          q+1 < r, q > s, r < q < s-1, or (q,q+1) == (r,s)
        a(q,r) a(q,s) a(q,r)^{-1}       q+1 == r
        a(r+1,s)                        q == r < s-1
        a(r,s)^{-1} a(r,s-1) a(r,s)     q == s-1 > r
        a(r,s+1)                        q == s

machine-verified against the Garside oracle for all cases (see the tests).

Full twists t<i>,<j> also generate the pure braid group; the change of basis

    a(i,j) = t(i,j-1)^{-1} t(i,j) t(i+1,j)^{-1} t(i+1,j-1)

(degenerate one-strand twists dropped) converts combed words into twist words.

Both conjugation by sigma_q and the change of basis are free-group
homomorphisms on the atoms, so each runs as one substitution pass through an
ImageTable (image^e per syllable, one free reduction at the end).  The tables
live on the per-strand-count _Comb context, of which words.STRAND_CACHE_SIZE
are kept, and fill on first lookup (words.Table).  So does the loop-word table,
which is emptied at COMB_MEMO_CAP entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial

from .garside import perm_braid_word
from .words import (
    STRAND_CACHE_SIZE,
    Atom,
    BraidWord,
    GenWord,
    ImageTable,
    Table,
    WordError,
    gen_concat,
    is_pure,
)

# the size at which the loop-word table of one strand count is emptied
# (benchmark rounds fill at most 234 entries, at n=13)
COMB_MEMO_CAP = 1 << 12


@dataclass(frozen=True)
class LinkingMatrix:
    """Symmetric matrix of strand-pair linking numbers, stored upper-triangular.

    entries[i-1][j-i-1] is lk_{i,j} for 1 <= i < j <= n.
    """

    strands: int
    entries: tuple[tuple[int, ...], ...]

    def lk(self, i: int, j: int) -> int:
        if i == j:
            return 0
        if i > j:
            i, j = j, i
        if not 1 <= i < j <= self.strands:
            raise WordError(f"no strand pair ({i}, {j}) in {self.strands} strands")
        return self.entries[i - 1][j - i - 1]

    def __add__(self, other: "LinkingMatrix") -> "LinkingMatrix":
        if self.strands != other.strands:
            raise WordError("strand mismatch in linking-matrix sum")
        return LinkingMatrix(
            self.strands,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.entries)

    def to_json(self) -> str:
        return json.dumps(
            {"strands": self.strands, "rows": [list(r) for r in self.entries]}
        )


def linking(w: BraidWord) -> LinkingMatrix:
    """Linking numbers of a pure braid, indexed by starting positions."""
    if not is_pure(w):
        raise WordError("linking numbers need a pure braid")
    n = w.strands
    cur = list(range(n))  # strand starting index at each position
    counts = [[0] * n for _ in range(n)]
    for x in w.letters:
        i = abs(x) - 1
        a, b = cur[i], cur[i + 1]
        if a > b:
            a, b = b, a
        counts[a][b] += 1 if x > 0 else -1
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
    rows = []
    for i in range(n - 1):
        row = []
        for j in range(i + 1, n):
            c = counts[i][j]
            if c % 2:
                raise AssertionError(f"odd crossing count {c} for strands {i + 1}, {j + 1}")
            row.append(c // 2)
        rows.append(tuple(row))
    return LinkingMatrix(n, tuple(rows))


def a_to_t(n: int, i: int, j: int) -> GenWord:
    """The a(i,j) atom as a word in full twists, degenerate twists dropped."""
    if not 1 <= i < j <= n:
        raise WordError(f"pure-braid atom a{i},{j} out of range for {n} strands")

    def term(a: int, b: int, e: int) -> GenWord:
        return ((Atom.t(a, b), e),) if a < b else ()

    return gen_concat(
        term(i, j - 1, -1), term(i, j, 1), term(i + 1, j, -1), term(i + 1, j - 1, 1)
    )


def _conj_atom(q: int, r: int, s: int) -> GenWord:
    """sigma_q a(r,s) sigma_q^{-1} as an a-atom word (table in module docstring)."""
    if q + 1 < r or q > s or r < q < s - 1 or (q == r and s == q + 1):
        return ((Atom.a(r, s), 1),)
    if q + 1 == r:
        return ((Atom.a(q, r), 1), (Atom.a(q, s), 1), (Atom.a(q, r), -1))
    if q == r:
        return ((Atom.a(r + 1, s), 1),)
    if q == s - 1:
        return ((Atom.a(r, s), -1), (Atom.a(r, s - 1), 1), (Atom.a(r, s), 1))
    if q == s:
        return ((Atom.a(r, s + 1), 1),)
    raise AssertionError(f"unhandled conjugation case q={q} r={r} s={s}")


def _loop_word(conj: Table, key: tuple[tuple[int, ...], int, int]) -> GenWord:
    """lift(pi) * sigma_p^{2*sign} * lift(pi)^{-1} as an a-atom word, for key (pi, p, sign).

    lift(pi) is spelled by perm_braid_word, and the double crossing is
    conjugated by its letters from the last to the first.
    """
    pi, p, sign = key
    result: GenWord = ((Atom.a(p, p + 1), sign),)
    for q in reversed(perm_braid_word(pi)):
        result = conj[q].substitute(result)
    return result


class _Comb:
    """Per-strand-count tables of Schreier-conjugate expressions and atom images.

    conj[q] maps a(r,s) to sigma_q a(r,s) sigma_q^{-1}; loops maps (pi, p, sign)
    to its loop word; twists maps a(i,j) to its full-twist word.
    """

    def __init__(self, n: int):
        self.conj = Table(lambda q: ImageTable(lambda atom: _conj_atom(q, atom.i, atom.j)))
        self.loops = Table(partial(_loop_word, self.conj), COMB_MEMO_CAP)
        self.twists = ImageTable(lambda atom: a_to_t(n, atom.i, atom.j))


@lru_cache(maxsize=STRAND_CACHE_SIZE)
def _comb_ctx(n: int) -> _Comb:
    return _Comb(n)


def comb(w: BraidWord) -> GenWord:
    """Write a pure braid as a word in the a<i>,<j> atoms.

    Every letter is compared with the canonical positive lift of the prefix
    permutation; mismatching letters emit a conjugated double crossing.  The
    product of the emitted pieces telescopes back to w, so the result expands
    to a braid Garside-equal to the input.  Output length is not bounded.
    """
    if not is_pure(w):
        raise WordError("combing needs a pure braid")
    loops = _comb_ctx(w.strands).loops
    image = list(range(w.strands))
    pieces: list[GenWord] = []
    for x in w.letters:
        p = abs(x)
        i = p - 1
        ascends = image[i] < image[i + 1]
        if x > 0 and not ascends:
            image[i], image[i + 1] = image[i + 1], image[i]
            pieces.append(loops[tuple(image), p, 1])
            continue
        if x < 0 and ascends:
            pieces.append(loops[tuple(image), p, -1])
        image[i], image[i + 1] = image[i + 1], image[i]
    return gen_concat(*pieces)


def t_decompose(w: BraidWord) -> GenWord:
    """Write a pure braid as a word in full-twist atoms t<i>,<j>."""
    return _comb_ctx(w.strands).twists.substitute(comb(w))
