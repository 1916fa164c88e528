"""Finite presentations, relator verification, and abelianization.

One builder, presentation(group, n), makes three presented groups over the
full-twist generators t<i>,<j>:

* pb:   the pure braid group, generators all t<i>,<j> for 1 <= i < j <= n;
* qb:   the quasitoric braid group, generators d0 and all t<i>,<j>;
* pmod: the pure mapping class group of the (n+1)-punctured sphere,
        generators all t<i>,<j> except t1,<n>.

Shared relator families:

1. commutation  t(i,j) t(k,l) = t(k,l) t(i,j) for spans (i,j) < (k,l) in
   lexicographic order with k = i, l <= j or k > j: (k,l) contains (i,j)
   from the same left end, lies inside it, or lies right of it.  Those are
   the disjoint and nested pairs; touching and crossing spans are excluded.
   Each unordered pair is emitted once, in lexicographic order;
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

verify asks the oracle once per relator shape, not once per relator.  A
relator of twists alone, on spans inside strands lo..hi, is a word in
sigma_lo .. sigma_(hi-1), and t(i,j) expands to the same letters shifted by
i - 1 as t(1, j-i+1).  So it is the image of its down-shift by lo - 1, a word
on w = hi - lo + 1 strands, under the standard inclusion B_w -> B_n,
sigma_k -> sigma_(k+lo-1).  That inclusion is injective: it is a standard
parabolic subgroup of the Artin group B_n (van der Lek, thesis, Nijmegen 1983;
Paris, "Parabolic subgroups of Artin groups", J. Algebra 196, 1997).  Hence the
relator is trivial in B_n iff its down-shift is trivial in B_w, and verify
keys it by (down-shift, w).  That covers every commutator and pentagon, of
pb, qb and pmod alike.  A relator that holds another atom, as the cyclic qb
relators hold d0, keys to itself at n and is checked in B_n.  Relators with
one key share one verdict.  Almost every commutator and pentagon is a shift of
another; the pb shapes on n strands are those with lo = 1, and they include
every shape of pmod and of the shared qb families on n strands, and of pb on
fewer.  The verdicts are kept across calls in one capped words.Table, so a
process asks the oracle about each shape once.  A call finds all its keys
first and then looks up their verdicts in order of width, so each strand
count's Garside context is built once, even when the widths outnumber the
contexts garside keeps (words.STRAND_CACHE_SIZE).

Each family is written once, over a syllable writer: its builder takes the
function that writes a syllable (atom, e).  relators passes every syllable
through unchanged, so each relator is its GenWord.  relator_texts, the listing
that the relators command prints, writes every syllable with the text that
format_generator_word gives it and joins each relator's texts with spaces, so
it builds no GenWord and looks up no syllable text table.  Each of the two
shared families is one signed-slot template (COMMUTATOR, PENTAGON): a relator
is the written syllables t(span)^+-1 of its instance's spans, in template
order.  No free reduction is needed.  The index inequalities rule out a
one-strand twist t(k,k) (i < j for a commutator span; i < j < k < l < m makes
every pentagon span at least two strands wide) and give adjacent slots
different spans, so no two adjacent syllables merge and gen_reduce would return
each word unchanged.  The cyclic qb relators read the same syllable table and
are joined the same way: t(k,k) is dropped, and the spans of adjacent syllables
differ in every case, so they need no free reduction either (a test checks
gen_reduce on every relator).

h1 computes the abelianization by exact Smith normal form, together with the
class column of each orbit root (below), so homology classes of concrete
braids are computable (qt_class), not just the group shape.  The class of
d0^k p is linear: k x(d0) + sum over i < j of lk(i,j)(p) x(a(i,j)).  Each
a(i,j) combs into at most four twists, t(i,j-1)^-1 t(i,j) t(i+1,j)^-1
t(i+1,j-1), and a twist's class is that of its root, its width less one, so
a(i,j) has the class of a(1,j-i+1).  Its terms are computed once per diagonal
d = j - i, n - 1 of them with H_1(QB_n), and kept for at most
words.STRAND_CACHE_SIZE strand counts.  A call sums the linking numbers along
each diagonal, adds up the terms of the nonzero sums over the class columns
and multiplies the sum by the transform once.

H_1 is Z^g modulo the span of the relators' exponent rows:

* The commutators and pentagons abelianize to zero: in both templates each
  slot's exponents sum to zero, checked once per template when the module
  loads.  So pb and pmod have no row, and H_1 is free on their generators.
* For qb, relation 4 at j < n says x(t(i,j)) = x(t(i+1,j+1)).  The orbit map
  sends x(d0) to root 0 and x(t(i,j)) to root j - i, the root of t(1,j-i+1),
  from Z^g onto Z^n.  Its kernel has rank g - n = C(n-1,2), one less than the
  number of generators on each diagonal, summed over the diagonals, and the
  j < n rows are exactly the differences of neighbours on a diagonal, so they
  generate that kernel.  Hence H_1(QB_n) = Z^n modulo the image of the n
  remaining rows: relation 3 and relation 4 at j = n.  The central row
  (i,j) = (1,n) maps to zero and is dropped.
* h1 writes those rows over the roots, drops the zero ones and runs the dense
  Smith normal form on the roots they touch, in ascending order; every other
  root is a free coordinate of H_1, after those, and has no column there.

So H_1 is kept in root coordinates, never generator ones.  A root is
_root(atom) for qb, and the generator's index in _generator_spans order for
pb and pmod.  Root r is class column columns[r], touched roots first: at even
n the free root n/2 - 1 breaks the identity.  A column's coordinates are its
transform row, or its unit vector if it is free.  Row order, roots and
pivoting are deterministic, so the output is reproducible.

Building the relator table costs time and memory in proportion to its relator
count, which grows like n^5 / 120, but h1 needs only the group, n and, for qb,
n cyclic relators over 3n - 6 spans.  So a presentation is its (group, n),
which alone make its repr, equality and hash, and it builds nothing at once:
the generators and the relators are each built on their first read.  Reading
relators or relator_texts counts the relators from the closed forms
(2 C(n,4) + 2 C(n,3) commutators, C(n,2) - 1 fewer for pmod, C(n,5) pentagons,
and 1 + C(n,2) cyclic relators for qb) and refuses a table of more than
MAX_RELATORS relators, which bounds relators and verify at n = 31.  Reading
the generators, and h1, count the generators (C(n,2), one more for qb, one
fewer for pmod) and refuse more than MAX_GENERATORS, which bounds h1 and
qt_class at n = 707.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, zip_longest
from math import comb
from operator import itemgetter
from typing import Callable, Iterable

from .garside import gen_normal_factors
from .purebraid import a_to_t, linking
from .quasitoric import factor
from .snf import SmithNormalForm, smith_normal_form
from .words import (
    STRAND_CACHE_SIZE,
    Atom,
    BraidWord,
    GenWord,
    Table,
    WordError,
    _syllable_text,
    gen_inverse,
)

GROUPS = ("pb", "qb", "pmod")

# Presentation.relators and relator_texts refuse a table with more relators
# than this, before building any; the command line reports the refusal with
# exit code 2.  qb on 30 strands has 205,872 relators; the benchmark builds at
# most 4,824 (n=14) and the tests 35,190 (qb, n=21)
MAX_RELATORS = 250_000
# Presentation.generators and h1 refuse a presentation with more generators
# than this, counted from the closed form before anything is built.  That
# bounds h1, and with it qt_class: 250,000 generators is qb on 707 strands
MAX_GENERATORS = 250_000


@dataclass(frozen=True)
class Presentation:
    """The presentation of group on strands strands; build it with presentation().

    Each part is built on its first read and kept.
    """

    group: str
    strands: int

    @cached_property
    def generators(self) -> tuple[Atom, ...]:
        _generator_count(self.group, self.strands)
        twists = tuple(Atom.t(i, j) for i, j in _generator_spans(self.group, self.strands))
        return (Atom.d(0),) + twists if self.group == "qb" else twists

    @cached_property
    def relators(self) -> tuple[GenWord, ...]:
        return tuple(self._relator_words(_as_is))

    @cached_property
    def relator_texts(self) -> tuple[str, ...]:
        """format_generator_word of each relator, written without building relators."""
        return tuple(map(" ".join, self._relator_words(_syllable_text)))

    def _relator_words(self, write: Callable[[Syllable], object]) -> list[tuple]:
        """Each relator as the tuple of its syllables, each written by write.

        Refuses more than MAX_RELATORS relators before building any.
        """
        n = self.strands
        count = _relator_count(self.group, n)
        if count > MAX_RELATORS:
            raise WordError(
                f"{self.group} on {n} strands has {count} relators, "
                f"more than the limit of {MAX_RELATORS}"
            )
        pairs = _generator_spans(self.group, n)
        t = _syllables(pairs, write)
        out = _commutation_relators(pairs, t) + _pentagonal_relators(n, t)
        if self.group == "qb":
            out += _cyclic_relators(n, t, pairs, write)
        return out


def _template(slots: tuple[tuple[int, int], ...]) -> Callable[[tuple], tuple]:
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

# (class column, coefficient) pairs, as AbelianStructure.columns numbers the columns
Terms = tuple[tuple[int, int], ...]

Syllable = tuple[Atom, int]

# span (i, j) -> the syllables (t(i,j), 1) and (t(i,j), -1) as written, for i < j
Syllables = dict[tuple[int, int], tuple]


def _as_is(syllable: Syllable) -> Syllable:
    """A syllable written as itself, so a relator is its GenWord."""
    return syllable


def _syllables(spans: Iterable[tuple[int, int]], write: Callable[[Syllable], object]) -> Syllables:
    """The syllables of the twists on spans, each written by write.

    write is _as_is for relators and words._syllable_text for their texts.
    """
    return {(i, j): (write((t := Atom.t(i, j), 1)), write((t, -1))) for i, j in spans}


def _span_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def _generator_spans(group: str, n: int) -> list[tuple[int, int]]:
    """The spans of group's twist generators, in order: all of them, but (1, n) for pmod."""
    pairs = _span_pairs(n)
    if group == "pmod":
        pairs.remove((1, n))
    return pairs


def _commutation_relators(pairs: list[tuple[int, int]], t: Syllables) -> list[tuple]:
    """One commutator per unordered pair of disjoint or nested spans, in lexicographic order.

    pairs is in lexicographic order, so combinations gives each pair of spans
    (i, j) < (k, l) once, in lexicographic order.  The pair is kept iff
    (k, l) contains (i, j) from the same left end (k = i), lies inside it
    (l <= j) or lies right of it (k > j).
    """
    return [
        _commutator(t[i, j] + t[k, l])
        for (i, j), (k, l) in combinations(pairs, 2)
        if k == i or l <= j or k > j
    ]


def _pentagonal_relators(n: int, t: Syllables) -> list[tuple]:
    return [
        _pentagon(t[j, m - 1] + t[k, m - 1] + t[j, l - 1] + t[i, k - 1] + t[i, l - 1])
        for i, j, k, l, m in combinations(range(1, n + 1), 5)
    ]


def _cyclic_relator(
    n: int, t: Syllables, i: int, j: int, write: Callable[[Syllable], object]
) -> tuple:
    """Relation 4 at the span (i, j): d0 t(i,j) d0^-1 times the inverse of its right side.

    t[span][:1] and t[span][1:] are the one-syllable words t(span)^1 and
    t(span)^-1; a one-strand span (k, k) is not in t, and t.get gives the
    empty word for it.  The d0 syllables are written by write, as t's are.
    """
    d0 = Atom.d(0)
    conj = (write((d0, 1)),) + t[i, j][:1] + (write((d0, -1)),)
    if j < n:
        return conj + t[i + 1, j + 1][1:]
    if i == 1:
        return conj + t[1, n][1:]
    # (t(2,n)^-1 t(1,i)^-1 t(2,i) t(i+1,n) t(1,n))^-1
    return (
        conj
        + t[1, n][1:]
        + t.get((i + 1, n), ())[1:]
        + t.get((2, i), ())[1:]
        + t[1, i][:1]
        + t[2, n][:1]
    )


def _cyclic_relators(
    n: int, t: Syllables, spans: list[tuple[int, int]], write: Callable[[Syllable], object]
) -> list[tuple]:
    """The qb relators that involve d0: relation 3, d0^n = t(1,n), then relation 4 at each span."""
    relation_3 = (write((Atom.d(0), n)),) + t[1, n][1:]
    return [relation_3] + [_cyclic_relator(n, t, i, j, write) for i, j in spans]


def _generator_count(group: str, n: int) -> int:
    """Number of generators presentation(group, n) has; refuses more than MAX_GENERATORS."""
    count = comb(n, 2) + {"pb": 0, "qb": 1, "pmod": -1}[group]
    if count > MAX_GENERATORS:
        raise WordError(
            f"{group} on {n} strands has {count} generators, "
            f"more than the limit of {MAX_GENERATORS}"
        )
    return count


def _relator_count(group: str, n: int) -> int:
    """Number of relators presentation(group, n) has."""
    count = 2 * comb(n, 4) + 2 * comb(n, 3) + comb(n, 5)
    if group == "pmod":
        # every other span is nested in (1, n), so each loses one commutator
        count -= comb(n, 2) - 1
    elif group == "qb":
        count += 1 + comb(n, 2)
    return count


def presentation(group: str, n: int) -> Presentation:
    """The presentation of group ("pb", "qb" or "pmod") on n strands, over the full twists.

    pmod drops the generator t1,<n>, and with it the commutators it takes
    part in; qb adds d0 and the cyclic relators after the shared families.
    Builds nothing yet: the generators and the relators are each built on their
    first read.
    """
    if group not in GROUPS:
        raise WordError(f"unknown group {group!r}; expected one of {GROUPS}")
    if n < 3:
        raise WordError(f"presentations need n >= 3, got {n}")
    return Presentation(group, n)


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


# a relator's shape: a word and the strand count whose braid group it is checked in
Shape = tuple[GenWord, int]


def _down_shift(s: int) -> Table:
    """Syllable t(i,j)^e -> t(i-s, j-s)^e, built on first lookup."""
    return Table(lambda syllable: (Atom.t(syllable[0].i - s, syllable[0].j - s), syllable[1]))


def _shape(rel: GenWord, n: int, shifts: Table) -> Shape:
    """verify's key of relator rel on n strands; shifts maps s to _down_shift(s).

    A relator of twists on strands lo..hi inside 1..n keys to its down-shift
    by lo - 1, on hi - lo + 1 strands.  Any other relator, including one with
    a twist out of range, keys to itself on n strands.  No relator is empty.
    """
    kinds, lows, highs = zip(*next(zip(*rel)))
    lo, hi = min(lows), max(highs)
    if {*kinds} != {"t"} or lo < 1 or hi > n:
        return rel, n
    if lo > 1:
        rel = tuple(map(shifts[lo - 1].__getitem__, rel))
    return rel, hi - lo + 1


# verify's verdicts, shape -> whether the shape is trivial, kept across calls.
# pb on n strands has C(n-1,4) + 2 C(n-1,3) + 2 C(n-1,2) shapes, those with
# lo = 1, and qb 1 + C(n,2) more.  So the cap keeps every shape of pb and qb
# on up to 29 strands (31,869 entries), at about 200 bytes an entry.
VERDICT_CACHE_SIZE = 1 << 15
_verdicts = Table(lambda shape: _relator_holds(*shape), VERDICT_CACHE_SIZE)


def verify(p: Presentation) -> VerifyReport:
    """Check every relator with the Garside oracle, once per shape (see the module docstring).

    Reads p.group, p.strands and p.relators only.  A shape's verdict compares
    the normal forms of its two halves.  No relator is expanded to letters:
    each half's normal form is read from cached syllable normal forms.  Raises
    WordError for a half that would expand to more than MAX_LETTERS letters.
    """
    n = p.strands
    shifts = Table(_down_shift)
    shapes: dict[Shape, list[int]] = {}
    for idx, rel in enumerate(p.relators):
        shapes.setdefault(_shape(rel, n, shifts), []).append(idx)
    failures: list[int] = []
    # by width, so no strand count's Garside context is built twice in a call
    for shape in sorted(shapes, key=itemgetter(1)):
        if not _verdicts[shape]:
            failures += shapes[shape]
    return VerifyReport(p.group, n, len(p.relators), tuple(sorted(failures)))


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


@dataclass(frozen=True)
class AbelianStructure:
    """Invariant-factor shape of H_1 plus the root-to-column map.

    A class has rank + free_rank coordinates, rank = snf.rank: coordinate t < rank
    lives in Z / snf.diag[t], and the others are free.  Every generator with
    root r has the class of column columns[r].  Class column p has the
    coordinates row p of snf.right (padded with zeros) if p < snf.cols, and
    else the unit vector at p.
    """

    group: str
    strands: int
    free_rank: int
    torsion: tuple[int, ...]  # invariant factors > 1, ascending
    snf: SmithNormalForm  # of the residue rows, over the roots they touch
    columns: tuple[int, ...]  # root -> class column

    def combination(self, z: list[int]) -> list[int]:
        """The coordinates of the sum over class columns p of z[p] times column p."""
        y = [0] * self.snf.cols
        for zp, row in zip(z, self.snf.right):
            if zp:
                y = [u + zp * x for u, x in zip(y, row)]
        return y + z[self.snf.cols :]


def _root(atom: Atom) -> int:
    """The orbit root of a qb generator: 0 for d0, and j - i for t(i,j), the root of t(1,j-i+1)."""
    return 0 if atom.kind == "d" else atom.j - atom.i


def _root_sums(word: GenWord) -> dict[int, int]:
    """A qb word's nonzero exponent sums over the orbit roots, in order of first appearance."""
    sums: dict[int, int] = {}
    for atom, e in word:
        r = _root(atom)
        sums[r] = sums.get(r, 0) + e
    return {r: e for r, e in sums.items() if e}


def h1(p: Presentation) -> AbelianStructure:
    """Abelianization of the presented group by exact Smith normal form.

    Reads p.group and p.strands only.  For qb it writes relation 3 and
    relation 4 at j = n over the orbit roots; see the module docstring for
    why that is exact.  pb and pmod have no row.
    """
    n = p.strands
    roots, rels = _generator_count(p.group, n), []
    if p.group == "qb":
        # relation 4 at j = n reads the spans that end at n, or start at 1 or 2
        ends = [(i, n) for i in range(1, n)]
        t = _syllables(ends + [(i, j) for i in (1, 2) for j in range(i + 1, n)], _as_is)
        roots, rels = n, _cyclic_relators(n, t, ends, _as_is)
    rows = [row for row in map(_root_sums, rels) if row]
    touched = sorted(set().union(*rows))
    snf = smith_normal_form([[row.get(r, 0) for r in touched] for row in rows], cols=len(touched))
    # the free roots follow the touched ones
    column = {r: k for k, r in enumerate(touched)}
    free = iter(range(len(touched), roots))
    columns = tuple(column[r] if r in column else next(free) for r in range(roots))
    torsion = tuple(d for d in snf.invariant_factors if d > 1)
    return AbelianStructure(p.group, n, roots - snf.rank, torsion, snf, columns)


def min_generators(a: AbelianStructure) -> int:
    """Free rank plus the number of nontrivial invariant factors."""
    return a.free_rank + len(a.torsion)


@lru_cache(maxsize=STRAND_CACHE_SIZE)
def _qb_h1(n: int) -> tuple[AbelianStructure, tuple[Terms, ...]]:
    """H_1(QB_n) and the terms of each diagonal d = j - i, d = 1 .. n - 1.

    Diagonal d has the terms of a(1, d+1): the exponent sums of a_to_t(n, 1,
    d+1) over the roots, each at its root's class column.  Every a(i,j) with
    j - i = d has the same terms, since each of its twists has the root of
    the matching twist of a(1, d+1).
    """
    a = h1(presentation("qb", n))
    diagonal_terms = (_root_sums(a_to_t(n, 1, d + 1)).items() for d in range(1, n))
    return a, tuple(tuple((a.columns[r], e) for r, e in terms) for terms in diagonal_terms)


def qt_class(w: BraidWord) -> ClassVector:
    """Homology class of a quasitoric braid in canonical H_1(QB_n) coordinates.

    Factors the braid as d0^k * p, puts k at the class column of d0 and adds
    c_d times the terms of diagonal d, where c_d sums the linking numbers
    lk(i, i+d) of p (entries[i-1][d-1] of its linking matrix), then reads the
    sum's coordinates.  Coordinates past the rank are free; the others are
    reduced modulo their invariant factor, and those of unit factors dropped.
    """
    k, p = factor(w)
    a, diagonal_terms = _qb_h1(w.strands)
    z = [0] * (a.snf.rank + a.free_rank)
    z[a.columns[0]] = k  # d0 is root 0
    # column d - 1 of the rows, padded with zeros, is diagonal d
    sums = map(sum, zip_longest(*linking(p).entries, fillvalue=0))
    for c, terms in zip(sums, diagonal_terms):
        if c:
            for col, e in terms:
                z[col] += c * e
    y = a.combination(z)
    rank = a.snf.rank
    torsion = tuple(y[col] % d for col, d in enumerate(a.snf.diag[:rank]) if d > 1)
    return ClassVector(tuple(y[rank:]), torsion, a.torsion)
