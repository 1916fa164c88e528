"""Pure-braid machinery: linking numbers, combing, and full-twist decomposition.

Linking numbers are the abelian invariants of a pure braid: lk_{k,l} is half
the signed count of crossings between the strands starting at positions k and
l, and the map p -> (lk_{k,l}(p)) gives the coordinates of p in the free
abelianization of the pure braid group with respect to the looping generators
a<i>,<j>.

Combing writes a pure braid word as a product of a<i>,<j> atoms.  The word is
split letter by letter through the Schreier transversal of canonical positive
permutation lifts: a letter sigma_p^e either reduces against the lift (no
contribution) or contributes a conjugate lift(pi) sigma_p^{+-2} lift(pi)^{-1}.
That Schreier generator has the closed form

    u a(i,j)^{+-1} u^{-1},    u = a(i,k1) a(i,k2) ...,    i < k1 < k2 < ... < j

where i < j are the strands pi puts at positions p and p+1 and the k are the
strands between them that pi puts left of position p.  It is freely reduced,
and costs O(n) with no table.  The conjugation rules sigma_q a(r,s)
sigma_q^{-1} that derive it one letter of lift(pi) at a time live in the
tests, where each rule is checked against the Garside oracle and the closed
form against the rules.

Full twists t<i>,<j> also generate the pure braid group; the change of basis

    a(i,j) = t(i,j-1)^{-1} t(i,j) t(i+1,j)^{-1} t(i+1,j-1)

(degenerate one-strand twists dropped) converts combed words into twist words.

The change of basis is a free-group homomorphism on the atoms: t_decompose
writes a_to_t(i,j)^e for each combed syllable a(i,j)^e and free-reduces once.
Loop words are memoised in one words.Table, emptied at COMB_MEMO_CAP entries,
whose keys carry the strand count as the length of pi.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .words import (
    Atom,
    BraidWord,
    GenWord,
    Table,
    WordError,
    _join,
    gen_inverse,
    gen_reduce,
    is_pure,
)

# the size at which the loop-word table is emptied; one cap across strand
# counts (a benchmark round fills about 1,030 keys over n = 5-13)
COMB_MEMO_CAP = 1 << 12


@dataclass(frozen=True)
class LinkingMatrix:
    """Symmetric matrix of strand-pair linking numbers, stored upper-triangular.

    entries[i-1][j-i-1] is lk_{i,j} for 1 <= i < j <= n.
    """

    strands: int
    entries: tuple[tuple[int, ...], ...]

    def lk(self, i: int, j: int) -> int:
        if not (1 <= i <= self.strands and 1 <= j <= self.strands):
            raise WordError(f"no strand pair ({i}, {j}) in {self.strands} strands")
        if i == j:
            return 0
        if i > j:
            i, j = j, i
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


def _t(i: int, j: int, e: int = 1) -> GenWord:
    """t(i,j)^e as a word; t(i,i) is the empty word."""
    return ((Atom.t(i, j), e),) if i < j else ()


def a_to_t(n: int, i: int, j: int) -> GenWord:
    """The a(i,j) atom as a word in full twists, degenerate twists dropped.

    The word is reduced as it stands: no two adjacent twists of
    t(i,j-1)^-1 t(i,j) t(i+1,j)^-1 t(i+1,j-1) share a span, so dropping the
    empty ones leaves nothing to merge."""
    if not 1 <= i < j <= n:
        raise WordError(f"pure-braid atom a{i},{j} out of range for {n} strands")
    return _t(i, j - 1, -1) + _t(i, j) + _t(i + 1, j, -1) + _t(i + 1, j - 1)


def _loop_word(key: tuple[tuple[int, ...], int, int]) -> GenWord:
    """lift(pi) * sigma_p^{2*sign} * lift(pi)^{-1} as an a-atom word, for key (pi, p, sign).

    The closed form of the module docstring: u a(i,j)^sign u^{-1}, with i < j
    the strands pi[p-1] + 1 and pi[p] + 1, and u the a(i,k) over the strands
    i < k < j that pi puts before position p-1 (0-based), in increasing k.
    """
    pi, p, sign = key
    i, j = sorted((pi[p - 1] + 1, pi[p] + 1))
    left = set(pi[: p - 1])
    u = tuple((Atom.a(i, k), 1) for k in range(i + 1, j) if k - 1 in left)
    return u + ((Atom.a(i, j), sign),) + tuple((atom, -1) for atom, _ in reversed(u))


_LOOPS = Table(_loop_word, COMB_MEMO_CAP)


def comb(w: BraidWord) -> GenWord:
    """Write a pure braid as a word in the a<i>,<j> atoms.

    Every letter is compared with the canonical positive lift of the prefix
    permutation; mismatching letters emit a conjugated double crossing.  The
    product of the emitted pieces telescopes back to w, so the result expands
    to a braid Garside-equal to the input.  Output length is not bounded.
    """
    if not is_pure(w):
        raise WordError("combing needs a pure braid")
    loops = _LOOPS
    image = list(range(w.strands))
    out: list[tuple[Atom, int]] = []
    for x in w.letters:
        p = abs(x)
        i = p - 1
        ascends = image[i] < image[i + 1]
        if x > 0 and not ascends:
            image[i], image[i + 1] = image[i + 1], image[i]
            piece = loops[tuple(image), p, 1]
        elif x < 0 and ascends:
            piece = loops[tuple(image), p, -1]
            image[i], image[i + 1] = image[i + 1], image[i]
        else:
            image[i], image[i + 1] = image[i + 1], image[i]
            continue
        # a loop word is reduced, so only a seam of equal atoms can merge
        if out and piece and out[-1][0] == piece[0][0]:
            _join(out, piece)
        else:
            out += piece
    return tuple(out)


def t_decompose(w: BraidWord) -> GenWord:
    """Write a pure braid as a word in full-twist atoms t<i>,<j>: a_to_t(i,j)^e
    for each syllable a(i,j)^e of comb(w), freely reduced."""
    n = w.strands

    def power(atom: Atom, e: int) -> GenWord:
        word = a_to_t(n, atom.i, atom.j)
        return (word if e > 0 else gen_inverse(word)) * abs(e)

    return gen_reduce(syllable for atom, e in comb(w) for syllable in power(atom, e))
