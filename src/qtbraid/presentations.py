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

h1 computes the abelianization by exact Smith normal form, together with the
coordinates of each generator, so homology classes of concrete braids are
computable (qt_class), not just the group shape.  The class of d0^k p is
linear: k x(d0) + sum over i < j of lk(i,j)(p) x(a(i,j)).  Each a(i,j) combs
into at most four twists, and each twist is a sign times one class column of
h1 (below), so those terms are computed once per n, with H_1(QB_n), in O(n^2)
space, and kept for at most words.STRAND_CACHE_SIZE strand counts.  A call
adds up the terms of its nonzero linking numbers over the class columns and
multiplies the sum by the transform once.

H_1 is Z^g modulo the span of the relators' exponent rows, and h1 shrinks that
matrix exactly before the Smith normal form:

* The commutators and pentagons abelianize to zero: in both templates each
  slot's exponents sum to zero, checked once per template when the module
  loads.  presentation puts those families first, and h1 reads only
  abelian_rows, the relators after them; a zero row adds nothing to the
  span.  So h1 reads the cyclic qb relators and nothing else, and no row at
  all for pb and pmod.
* A row with exactly two entries, both +-1, says x_a = +-x_b.  Replacing x_a
  by x_a -+ x_b is a unimodular column operation that makes the row a unit
  vector, so the row and the column of x_a drop out, and the other rows read
  +-x_b for x_a.  h1 does that for every such row, in order, with a signed
  union-find over the columns: each column is a sign times a root column, and
  of two joined roots the smaller index stays root.  A row whose two columns
  are already joined would close a cycle, so it stays, like every other row.
  For qb, relation 4 gives such a row for every t(i,j) with j < n, which merges
  each twist with its shifts: the roots are d0 and the t(1,j), and of the
  C(n,2) + 1 cyclic rows only n - 1 stay (relation 3 and relation 4 at j = n,
  i > 1); the central row is zero.
* The rows that stay, rewritten over the roots, go to the dense Smith normal
  form on the root columns they touch, at most n of them for qb.  Every other
  root is a free coordinate of H_1 and has no column there, so pb and pmod,
  whose generators are all roots, make no g x g identity.

A generator's coordinates are its sign times the transform row of its root,
or the unit vector of a free root.  Row order, union-find roots and pivoting
are deterministic, so the output is reproducible.

Building the relator table costs time and memory in proportion to its relator
count, which grows like n^5 / 120, but h1 needs only the generators and the
cyclic qb relators, C(n,2) + 1 of each at most.  So a presentation is its
(group, n), which alone make its repr, equality and hash, and it builds
nothing at once: the generators, the cyclic relators and the whole table are
each built on their first read, from one syllable table.  Reading relators
counts the relators from the closed forms (2 C(n,4) + 2 C(n,3) commutators,
C(n,2) - 1 fewer for pmod, C(n,5) pentagons, and 1 + C(n,2) cyclic relators
for qb) and refuses a table of more than MAX_RELATORS relators, which bounds
relators and verify at n = 31.  Reading the generators or the cyclic relators
refuses more than MAX_GENERATORS generators, which bounds h1 and qt_class at
n = 707.  h1(qb) takes ~0.3 s at n = 200, most of it in the Smith normal form
of the n - 1 rows that stay, and that dense form grows like n^3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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

# Presentation.relators refuses a table with more relators than this, before
# building any; the command line reports the refusal with exit code 2.  qb on
# 30 strands has 205,872 relators; the tests and the benchmark build at most
# 4,824 (n=14)
MAX_RELATORS = 250_000
# A presentation refuses more generators than this, before building any, on
# the first read of its generators or its cyclic relators, one per generator.
# That is all h1 reads of it, so this bounds h1, and with it qt_class: 250,000
# generators is qb on 707 strands
MAX_GENERATORS = 250_000


@dataclass(frozen=True)
class Presentation:
    """The presentation of group on strands strands; build it with presentation().

    Each part is built on its first read and kept.  abelian_rows are the
    relators after the commutators and pentagons, which abelianize to zero.
    """

    group: str
    strands: int

    def _check_generators(self) -> None:
        count = comb(self.strands, 2) + {"pb": 0, "qb": 1, "pmod": -1}[self.group]
        if count > MAX_GENERATORS:
            raise WordError(
                f"{self.group} on {self.strands} strands has {count} generators, "
                f"more than the limit of {MAX_GENERATORS}"
            )

    @cached_property
    def generators(self) -> tuple[Atom, ...]:
        self._check_generators()
        twists = tuple(Atom.t(i, j) for i, j in _generator_spans(self.group, self.strands))
        return (Atom.d(0),) + twists if self.group == "qb" else twists

    @cached_property
    def _table(self) -> Syllables:
        return _syllables(self.strands)

    @cached_property
    def abelian_rows(self) -> tuple[GenWord, ...]:
        if self.group != "qb":
            return ()
        self._check_generators()
        return tuple(_cyclic_relators(self.strands, self._table))

    @cached_property
    def relators(self) -> tuple[GenWord, ...]:
        n = self.strands
        count = _relator_count(self.group, n)
        if count > MAX_RELATORS:
            raise WordError(
                f"{self.group} on {n} strands has {count} relators, "
                f"more than the limit of {MAX_RELATORS}"
            )
        t = self._table
        pairs = _generator_spans(self.group, n)
        zero_sum = _commutation_relators(pairs, n, t) + _pentagonal_relators(n, t)
        return tuple(zero_sum) + self.abelian_rows


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

# (class column, coefficient) pairs, as AbelianStructure.classes numbers the columns
Terms = tuple[tuple[int, int], ...]

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


def _generator_spans(group: str, n: int) -> list[tuple[int, int]]:
    """The spans of group's twist generators, in order: all of them, but (1, n) for pmod."""
    pairs = _span_pairs(n)
    if group == "pmod":
        pairs.remove((1, n))
    return pairs


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
    Builds nothing yet: the generators, the cyclic relators and the whole
    table are each built on their first read.
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


def verify(p: Presentation) -> VerifyReport:
    """Check every relator with the Garside oracle, by the normal forms of its two halves.

    Reads p.group, p.strands and p.relators only.  No relator is expanded to
    letters: each half's normal form is read from cached syllable normal
    forms.  Raises WordError for a half that would expand to more than
    MAX_LETTERS letters.
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
    """Invariant-factor shape of H_1 plus the generator-to-coordinate map.

    A class has rank + free_rank coordinates, rank = snf.rank: coordinate t < rank
    lives in Z / snf.diag[t], and the others are free.  Generator c is sign
    times class column p, (sign, p) = classes[c].  Class column p has the
    coordinates row p of snf.right (padded with zeros) if p < snf.cols, and
    else the unit vector at p.
    """

    group: str
    strands: int
    generators: tuple[Atom, ...]
    free_rank: int
    torsion: tuple[int, ...]  # invariant factors > 1, ascending
    snf: SmithNormalForm  # of the residue rows, over the columns they touch
    classes: tuple[tuple[int, int], ...]

    def coordinates(self, c: int) -> list[int]:
        """The coordinates of generator c: the signed transform row of its class."""
        sign, p = self.classes[c]
        z = [0] * (self.snf.rank + self.free_rank)
        z[p] = sign
        return self.combination(z)

    def combination(self, z: list[int]) -> list[int]:
        """The coordinates of the sum over class columns p of z[p] times column p."""
        y = [0] * self.snf.cols
        for zp, row in zip(z, self.snf.right):
            if zp:
                y = [u + zp * x for u, x in zip(y, row)]
        return y + z[self.snf.cols :]


def h1(p: Presentation) -> AbelianStructure:
    """Abelianization of the presented group by exact Smith normal form.

    Reads only p.abelian_rows, in order, as exponent rows; see the module
    docstring for the merge of two-term unit rows and why it is exact.
    """
    index = {atom: c for c, atom in enumerate(p.generators)}
    # column c is sign[c] times column parent[c]; a root is its own parent
    parent = list(range(len(p.generators)))
    sign = [1] * len(p.generators)

    def find(c: int) -> tuple[int, int]:
        """(root, s) with x_c = s x_root modulo the merged rows; compresses the path."""
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        sg = 1
        for node in reversed(path):
            sg *= sign[node]
            parent[node], sign[node] = c, sg
        return c, sg

    residue = []
    for rel in p.abelian_rows:
        row: dict[int, int] = {}
        for atom, e in rel:
            c = index[atom]
            row[c] = row.get(c, 0) + e
        entries = [(c, e) for c, e in row.items() if e]
        if len(entries) == 2 and all(e in (1, -1) for _, e in entries):
            (a, ea), (b, eb) = entries
            (ra, sa), (rb, sb) = find(a), find(b)
            if ra != rb:
                # ea x_a + eb x_b = 0 makes x_ra = -ea eb sa sb x_rb; the
                # larger root joins the smaller
                lo, hi = min(ra, rb), max(ra, rb)
                parent[hi], sign[hi] = lo, -ea * eb * sa * sb
                continue
        if entries:
            residue.append(entries)
    # the rows that stay, over the roots, on the root columns they touch, in order
    merged = []
    for entries in residue:
        row = {}
        for c, e in entries:
            root, sg = find(c)
            row[root] = row.get(root, 0) + sg * e
        if row := {c: e for c, e in row.items() if e}:
            merged.append(row)
    touched = sorted(set().union(*merged))
    matrix = [[row.get(c, 0) for c in touched] for row in merged]
    snf = smith_normal_form(matrix, cols=len(touched))
    # the free roots follow the touched ones
    column = {c: k for k, c in enumerate(touched)}
    roots = [c for c in range(len(parent)) if parent[c] == c]
    for c in roots:
        column.setdefault(c, len(column))
    classes = tuple((sg, column[root]) for root, sg in map(find, range(len(parent))))
    torsion = tuple(d for d in snf.invariant_factors if d > 1)
    free_rank = len(roots) - snf.rank
    return AbelianStructure(p.group, p.strands, p.generators, free_rank, torsion, snf, classes)


def min_generators(a: AbelianStructure) -> int:
    """Free rank plus the number of nontrivial invariant factors."""
    return a.free_rank + len(a.torsion)


@lru_cache(maxsize=STRAND_CACHE_SIZE)
def _qb_h1(n: int) -> tuple[AbelianStructure, Terms, tuple[Terms, ...]]:
    """H_1(QB_n), the terms of d0, and those of each a(i,j), i < j, in span order.

    The terms of a generator are its class column and sign, and an a-atom's
    terms are those of the twists in a_to_t(n, i, j), each times its exponent,
    with the terms on one column added.  They take O(n^2) space in all, where
    coordinate rows per a-atom would take O(n^3).
    """
    a = h1(presentation("qb", n))
    index = {atom: c for c, atom in enumerate(a.generators)}
    pair_terms = []
    for i, j in _span_pairs(n):
        z: dict[int, int] = {}
        for atom, e in a_to_t(n, i, j):
            sign, p = a.classes[index[atom]]
            z[p] = z.get(p, 0) + sign * e
        pair_terms.append(tuple((p, e) for p, e in z.items() if e))
    sign, p = a.classes[index[Atom.d(0)]]
    return a, ((p, sign),), tuple(pair_terms)


def qt_class(w: BraidWord) -> ClassVector:
    """Homology class of a quasitoric braid in canonical H_1(QB_n) coordinates.

    Factors the braid as d0^k * p, adds k times the terms of d0 to lk(i,j)
    times those of a(i,j) for each linking number of p, and reads the sum's
    coordinates.  The entries of the linking matrix and the pair terms of
    _qb_h1 are both row-major over i < j.  Coordinates past the rank are free;
    the others are reduced modulo their invariant factor, and those of unit
    factors dropped.
    """
    k, p = factor(w)
    a, d0_terms, pair_terms = _qb_h1(w.strands)
    z = [0] * (a.snf.rank + a.free_rank)
    for col, e in d0_terms:
        z[col] += k * e
    for c, terms in zip(chain.from_iterable(linking(p).entries), pair_terms):
        if c:
            for col, e in terms:
                z[col] += c * e
    y = a.combination(z)
    rank = a.snf.rank
    torsion = tuple(y[col] % d for col, d in enumerate(a.snf.diag[:rank]) if d > 1)
    return ClassVector(tuple(y[rank:]), torsion, a.torsion)
