"""Finite presentations, relator verification, and abelianization.

One builder, presentation(group, n), makes three presented groups over the
full-twist generators t<i>,<j>:

* pb:   the pure braid group, generators all t<i>,<j> for 1 <= i < j <= n;
* qb:   the quasitoric braid group, generators d0 and all t<i>,<j>;
* pmod: the pure mapping class group of the (n+1)-punctured sphere,
        generators all t<i>,<j> except t1,<n>.

Shared relator families:

1. commutation  t(i,j) t(k,l) = t(k,l) t(i,j) whenever the index spans are
   disjoint or nested (touching spans are excluded); each unordered pair is
   emitted once, in lexicographic order;
2. pentagonal   t(j,m-1)^-1 t(k,m-1) t(j,l-1) t(i,k-1) t(i,l-1)^-1 =
                t(i,l-1)^-1 t(i,k-1) t(j,l-1) t(k,m-1) t(j,m-1)^-1
   for every 5-subset i < j < k < l < m of 1..n.

qb adds the cyclic generator d0 with

3. d0^n = t(1,n);
4. d0 t(i,j) d0^{-1} = t(i+1,j+1)                     for j < n,
                     = t(1,n)                          for (i,j) = (1,n),
                     = t(2,n)^-1 t(1,i)^-1 t(2,i) t(i+1,n) t(1,n)
                                                      for j = n and i > 1,
   with one-strand twists t(k,k) dropped as trivial.

Every relator is stored as LHS * RHS^{-1}.  verify checks the relators against
the Garside oracle without expanding them: a relator u v is trivial iff
u = v^{-1}, so it compares the normal forms of the two halves of the relator,
each read from cached syllable normal forms (garside.gen_normal_factors).
Every pmod relator is also a pb relator, so it holds in PB_n and hence in the
quotient PB_n / Z(PB_n) that pmod presents.

Each of the two shared families is one signed-slot template (COMMUTATOR,
PENTAGON): a relator is the syllables t(span)^+-1 of its instance's spans,
joined by plain tuple concatenation in template order.  No free reduction is
needed.  The index inequalities rule out a one-strand twist t(k,k) (i < j for a
commutator span; i < j < k < l < m makes every pentagon span at least two
strands wide) and give adjacent slots different spans, so no two adjacent
syllables merge and gen_reduce would return each word unchanged.  The cyclic
qb relators read the same syllable table and are joined the same way: t(k,k)
is dropped, and the spans of adjacent syllables differ in every case, so they
need no free reduction either (a test checks gen_reduce on every relator).

h1 computes the Smith normal form of the relator exponent matrix, giving the
invariant-factor decomposition of the abelianization together with the
coordinate transform, so homology classes of concrete braids are computable
(qt_class), not just the group shape.  The class of d0^k p is linear:
k c(d0) + sum over i < j of lk(i,j)(p) c(a(i,j)), where c is a coordinate row
read from the transform.  Those coefficients are computed once per n, with
H_1(QB_n), and kept for at most words.STRAND_CACHE_SIZE strand counts, so a
call costs one row sum per nonzero linking number.

Only the nonzero exponent rows go to the Smith normal form.  That is exact: H_1
is Z^g modulo the row span, and a zero row adds nothing to the span, so rank
and invariant factors cannot change.  It is also most of the matrix.  In both
templates each slot's exponents sum to zero, checked once per template when the
module loads, so every commutator and every pentagon abelianizes to zero.
presentation emits those families first and records their count in
Presentation.zero_rows; h1 skips those rows without reading them.  Of the
remaining cyclic qb relators the central one, d0 t(1,n) d0^-1 t(1,n)^-1, also
abelianizes to zero, and h1 drops it by its row.  What reaches the Smith normal
form is 91 of 4,824 rows at qb n=14, and no rows at all for pb and pmod.

Building a table costs time and memory in proportion to its relator count, which
grows like n^5 / 120.  presentation counts the relators from the closed forms
first (2 C(n,4) + 2 C(n,3) commutators, C(n,2) - 1 fewer for pmod, C(n,5)
pentagons, and 1 + C(n,2) cyclic relators for qb) and refuses a table with more
than MAX_RELATORS of them.  h1 takes a built presentation, so that limit bounds
h1 too, although it reads none of the zero rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from operator import itemgetter
from typing import Callable

from .garside import gen_normal_factors
from .purebraid import a_to_t, linking
from .quasitoric import factor
from .snf import SmithNormalForm, smith_normal_form
from .words import (
    STRAND_CACHE_SIZE,
    Atom,
    BraidWord,
    GenWord,
    WordError,
    gen_inverse,
)

GROUPS = ("pb", "qb", "pmod")

# presentation refuses a table with more relators than this, before building
# any; the command line reports the refusal with exit code 2.  qb on 30 strands
# has 205,872 relators; the tests and the benchmark build at most 4,824 (n=14)
MAX_RELATORS = 250_000


@dataclass(frozen=True)
class Presentation:
    """Generators and relators of a presented group.

    The first zero_rows relators abelianize to zero, so h1 skips them.
    presentation sets it from its templates; a hand-built presentation keeps
    the default 0, and h1 then scans every relator.
    """

    group: str
    strands: int
    generators: tuple[Atom, ...]
    relators: tuple[GenWord, ...]
    zero_rows: int = 0

    def __post_init__(self):
        if not 0 <= self.zero_rows <= len(self.relators):
            raise WordError(
                f"zero_rows must lie in 0..{len(self.relators)}, got {self.zero_rows}"
            )
        # the set operations run in C; walk the relators only to name the
        # first foreign atom
        atoms = set(map(itemgetter(0), chain.from_iterable(self.relators)))
        if foreign := atoms.difference(self.generators):
            atom = next(a for a, _ in chain.from_iterable(self.relators) if a in foreign)
            raise WordError(f"relator uses non-generator {atom}")


def _template(slots: tuple[tuple[int, int], ...]) -> Callable[[GenWord], GenWord]:
    """Instantiate a relator family template.

    A signed slot (s, e) stands for t(span_s)^e, where span_s is the s-th span
    of an instance.  The returned function maps the syllable pairs of an
    instance's spans, concatenated in slot order, to its relator.  Refuses a
    template whose exponents do not sum to zero slot by slot: that is what
    makes every instance abelianize to zero, decided once per template.
    """
    for slot in {s for s, _ in slots}:
        if sum(e for s, e in slots if s == slot):
            raise ValueError(f"slot {slot} of template {slots} has a nonzero exponent sum")
    return itemgetter(*(2 * s + (e < 0) for s, e in slots))


# t(a) t(b) t(a)^-1 t(b)^-1 over the spans (a, b)
COMMUTATOR = ((0, 1), (1, 1), (0, -1), (1, -1))
# LHS * RHS^-1 of the pentagonal relation, over the spans
# ((j,m-1), (k,m-1), (j,l-1), (i,k-1), (i,l-1))
PENTAGON = ((0, -1), (1, 1), (2, 1), (3, 1), (4, -1), (0, 1), (1, -1), (2, -1), (3, -1), (4, 1))
_commutator = _template(COMMUTATOR)
_pentagon = _template(PENTAGON)

# span (i, j) -> the syllables (t(i,j), 1) and (t(i,j), -1), for i < j
Syllables = dict[tuple[int, int], GenWord]


def _syllables(n: int) -> Syllables:
    table: Syllables = {}
    for i, j in _span_pairs(n):
        atom = Atom.t(i, j)
        table[i, j] = ((atom, 1), (atom, -1))
    return table


def _span_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def _commutation_relators(
    pairs: list[tuple[int, int]], n: int, t: Syllables
) -> list[GenWord]:
    """One commutator per unordered pair of disjoint or nested spans, in lexicographic order.

    pairs is in lexicographic order.  The partners (k, l) after a span (i, j)
    are read directly from the rows of spans with first index k, in order: at
    k = i the spans with l > j, which contain it; for i < k < j those with
    l <= j, inside it; none at k = j, which touch it; all of them for k > j,
    right of it.
    """
    rows: dict[int, list[tuple[int, GenWord]]] = {}
    for i, j in pairs:
        rows.setdefault(i, []).append((j, t[i, j]))
    out = []
    for i, j in pairs:
        u = t[i, j]
        out += [_commutator(u + v) for l, v in rows[i] if l > j]
        for k in range(i + 1, j):
            out += [_commutator(u + v) for l, v in rows.get(k, ()) if l <= j]
        for k in range(j + 1, n):
            out += [_commutator(u + v) for _, v in rows.get(k, ())]
    return out


def _pentagonal_relators(n: int, t: Syllables) -> list[GenWord]:
    return [
        _pentagon(t[j, m - 1] + t[k, m - 1] + t[j, l - 1] + t[i, k - 1] + t[i, l - 1])
        for i, j, k, l, m in combinations(range(1, n + 1), 5)
    ]


def _cyclic_relators(n: int, t: Syllables) -> list[GenWord]:
    """The qb relators that involve d0: d0^n = t(1,n), then d0 t(i,j) d0^-1 for each span.

    t[span][:1] and t[span][1:] are the one-syllable words t(span)^1 and
    t(span)^-1; a one-strand span (k, k) is not in t, and t.get gives the
    empty word for it.
    """
    d0 = Atom.d(0)
    out = [((d0, n),) + t[1, n][1:]]
    for i, j in _span_pairs(n):
        conj = ((d0, 1),) + t[i, j][:1] + ((d0, -1),)
        if j < n:
            rhs_inverse = t[i + 1, j + 1][1:]
        elif i == 1:
            rhs_inverse = t[1, n][1:]
        else:
            # (t(2,n)^-1 t(1,i)^-1 t(2,i) t(i+1,n) t(1,n))^-1
            rhs_inverse = (
                t[1, n][1:]
                + t.get((i + 1, n), ())[1:]
                + t.get((2, i), ())[1:]
                + t[1, i][:1]
                + t[2, n][:1]
            )
        out.append(conj + rhs_inverse)
    return out


def _relator_count(group: str, n: int) -> int:
    """Number of relators presentation(group, n) has."""
    pairs = comb(n, 2)
    count = 2 * comb(n, 4) + 2 * comb(n, 3) + comb(n, 5)
    if group == "pmod":
        # every other span is nested in (1, n), so each loses one commutator
        return count - (pairs - 1)
    if group == "qb":
        return count + 1 + pairs
    return count


def presentation(group: str, n: int) -> Presentation:
    """The presentation of group ("pb", "qb" or "pmod") on n strands, over the full twists.

    pmod drops the generator t1,<n>, and with it the commutators it takes
    part in; qb adds d0 and the cyclic relators after the shared families.
    """
    if group not in GROUPS:
        raise WordError(f"unknown group {group!r}; expected one of {GROUPS}")
    if n < 3:
        raise WordError(f"presentations need n >= 3, got {n}")
    count = _relator_count(group, n)
    if count > MAX_RELATORS:
        raise WordError(
            f"{group} on {n} strands has {count} relators, "
            f"more than the limit of {MAX_RELATORS}"
        )
    pairs = _span_pairs(n)
    if group == "pmod":
        pairs.remove((1, n))
    t = _syllables(n)
    relators = _commutation_relators(pairs, n, t) + _pentagonal_relators(n, t)
    zero_rows = len(relators)
    generators = tuple(Atom.t(i, j) for i, j in pairs)
    if group == "qb":
        relators += _cyclic_relators(n, t)
        generators = (Atom.d(0),) + generators
    return Presentation(group, n, generators, tuple(relators), zero_rows)


@dataclass(frozen=True)
class VerifyReport:
    group: str
    strands: int
    checked: int
    failures: tuple[int, ...]  # indices into Presentation.relators

    @property
    def ok(self) -> bool:
        return not self.failures


def _relator_holds(rel: GenWord, n: int) -> bool:
    """True iff the relator is trivial in the braid group on n strands.

    r = u v is trivial iff u = v^{-1}, so the oracle compares the normal forms
    of the two halves, split at h = len(r) // 2 syllables; any split point
    would give the same verdict.
    """
    h = len(rel) // 2
    return gen_normal_factors(rel[:h], n) == gen_normal_factors(gen_inverse(rel[h:]), n)


def verify(p: Presentation) -> VerifyReport:
    """Check every relator with the Garside oracle, by the normal forms of its two halves.

    No relator is expanded to letters: each half's normal form is read from
    cached syllable normal forms.  Raises WordError for a half that would
    expand to more than MAX_LETTERS letters.
    """
    n = p.strands
    failures = tuple(idx for idx, rel in enumerate(p.relators) if not _relator_holds(rel, n))
    return VerifyReport(p.group, n, len(p.relators), failures)


# ---------------------------------------------------------------------------
# abelianization


@dataclass(frozen=True)
class ClassVector:
    """Coordinates of a homology class: free part and reduced torsion part."""

    free: tuple[int, ...]
    torsion: tuple[int, ...]
    moduli: tuple[int, ...]

    def __post_init__(self):
        if len(self.torsion) != len(self.moduli):
            raise WordError("torsion coordinates and moduli disagree")
        for v, d in zip(self.torsion, self.moduli):
            if not 0 <= v < d:
                raise WordError(f"torsion coordinate {v} not reduced mod {d}")

    def __add__(self, other: "ClassVector") -> "ClassVector":
        if self.moduli != other.moduli or len(self.free) != len(other.free):
            raise WordError("class vectors from different groups")
        return ClassVector(
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple((a + b) % d for a, b, d in zip(self.torsion, other.torsion, self.moduli)),
            self.moduli,
        )

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)


@dataclass(frozen=True)
class AbelianStructure:
    """Invariant-factor shape of H_1 plus the generator-to-coordinate transform."""

    group: str
    strands: int
    generators: tuple[Atom, ...]
    free_rank: int
    torsion: tuple[int, ...]  # invariant factors > 1, ascending
    snf: SmithNormalForm


def h1(p: Presentation) -> AbelianStructure:
    """Abelianization of the presented group by exact Smith normal form.

    The first p.zero_rows relators are skipped unread, and the Smith normal
    form sees only the nonzero rows of the rest, in relator order; see the
    module docstring for why that is exact.
    """
    index = {atom: c for c, atom in enumerate(p.generators)}
    matrix = []
    for rel in p.relators[p.zero_rows:]:
        row = [0] * len(p.generators)
        for atom, e in rel:
            row[index[atom]] += e
        if any(row):
            matrix.append(row)
    s = smith_normal_form(matrix, cols=len(p.generators))
    torsion = tuple(d for d in s.invariant_factors if d > 1)
    free_rank = len(p.generators) - s.rank
    return AbelianStructure(p.group, p.strands, p.generators, free_rank, torsion, s)


def min_generators(a: AbelianStructure) -> int:
    """Free rank plus the number of nontrivial invariant factors."""
    return a.free_rank + len(a.torsion)


@lru_cache(maxsize=STRAND_CACHE_SIZE)
def _qb_h1(
    n: int,
) -> tuple[AbelianStructure, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """H_1(QB_n), the coordinates of d0, and those of each a(i,j), i < j, in span order.

    A generator's coordinates are its row of the Smith transform V; an a-atom's
    are the rows of the twists in a_to_t(n, i, j), each times its exponent.
    """
    a = h1(presentation("qb", n))
    rows = dict(zip(a.generators, a.snf.right))
    pair_rows = []
    for i, j in _span_pairs(n):
        y = [0] * len(a.generators)
        for atom, e in a_to_t(n, i, j):
            y = [u + e * x for u, x in zip(y, rows[atom])]
        pair_rows.append(tuple(y))
    return a, rows[Atom.d(0)], tuple(pair_rows)


def qt_class(w: BraidWord) -> ClassVector:
    """Homology class of a quasitoric braid in canonical H_1(QB_n) coordinates.

    Factors the braid as d0^k * p and adds k times the coordinates of d0 to
    lk(i,j) times those of a(i,j) for each linking number of p.  The entries
    of the linking matrix and the pair rows of _qb_h1 are both row-major over
    i < j.  Coordinates past the rank are free; the others are reduced modulo
    their invariant factor, and those of unit factors dropped.
    """
    a, d0_row, pair_rows = _qb_h1(w.strands)
    k, p = factor(w)
    y = [k * x for x in d0_row]
    for c, row in zip(chain.from_iterable(linking(p).entries), pair_rows):
        if c:
            y = [u + c * x for u, x in zip(y, row)]
    rank = a.snf.rank
    torsion = tuple(y[col] % d for col, d in enumerate(a.snf.diag[:rank]) if d > 1)
    return ClassVector(tuple(y[rank:]), torsion, a.torsion)
