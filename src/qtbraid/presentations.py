"""Finite presentations, relator verification, and abelianization.

Three presented groups are built over the full-twist generators t<i>,<j>:

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

Every relator is stored as LHS * RHS^{-1}.  The pb and qb relators expand to
braid words and are checked against the Garside oracle; the pmod relators live
in a quotient that braid words do not represent faithfully, so only their
exponent matrix is consumed (by h1).

h1 computes the Smith normal form of the relator exponent matrix, giving the
invariant-factor decomposition of the abelianization together with the
coordinate transform, so homology classes of concrete braids are computable
(qt_class), not just the group shape.  Only the nonzero exponent rows go to the
Smith normal form.  That is exact: H_1 is Z^g modulo the row span, and a zero
row adds nothing to the span, so rank and invariant factors cannot change.  It
is also most of the matrix: commutators, the pentagonal relators (whose two
sides hold the same atoms) and the central qb relator abelianize to zero.  Only
the other cyclic qb relators remain, 91 of 4,824 rows at n=14, and no rows at
all for pb and pmod.

Building a table costs time and memory in proportion to its relator count, which
grows like n^5 / 120.  Each builder counts its relators from the closed forms
first (2 C(n,4) + 2 C(n,3) commutators, C(n,2) - 1 fewer for pmod, C(n,5)
pentagons, and 1 + C(n,2) cyclic relators for qb) and refuses a table with more
than MAX_RELATORS of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .garside import is_trivial
from .purebraid import linking
from .quasitoric import factor
from .snf import SmithNormalForm, smith_normal_form
from .words import (
    Atom,
    BraidWord,
    GenWord,
    WordError,
    expand,
    gen_concat,
    gen_inverse,
)

GROUPS = ("pb", "qb", "pmod")

# the builders refuse a table with more relators than this, before building
# any; the command line reports the refusal with exit code 2.  qb on 30 strands
# has 205,872 relators; the tests and the benchmark build at most 4,824 (n=14)
MAX_RELATORS = 250_000

# strand counts whose H_1(QB_n) qt_class keeps
H1_CACHE_SIZE = 16


@dataclass(frozen=True)
class Presentation:
    group: str
    strands: int
    generators: tuple[Atom, ...]
    relators: tuple[GenWord, ...]

    def __post_init__(self):
        gens = set(self.generators)
        for rel in self.relators:
            for atom, _ in rel:
                if atom not in gens:
                    raise WordError(f"relator uses non-generator {atom}")


# t(i,j)^e as a one-entry generator word, keyed (i, j, e)
Twists = dict[tuple[int, int, int], GenWord]


def _twists(n: int) -> Twists:
    """Every t(i,j)^e with 1 <= i <= j <= n and e = +-1, built once per table.

    One-strand twists t(k,k) are the trivial element, so they map to ().
    """
    table: Twists = {}
    for k in range(1, n + 1):
        table[k, k, 1] = table[k, k, -1] = ()
    for i, j in _span_pairs(n):
        atom = Atom.t(i, j)
        table[i, j, 1] = ((atom, 1),)
        table[i, j, -1] = ((atom, -1),)
    return table


def _span_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def _commutation_relators(pairs: list[tuple[int, int]], t: Twists) -> list[GenWord]:
    out = []
    for (i, j), (k, l) in combinations(sorted(pairs), 2):
        disjoint = j < k or l < i
        nested = (k <= i and j <= l) or (i <= k and l <= j)
        if disjoint or nested:
            out.append(
                gen_concat(t[i, j, 1], t[k, l, 1], t[i, j, -1], t[k, l, -1])
            )
    return out


def _pentagonal_relators(n: int, t: Twists) -> list[GenWord]:
    out = []
    for i, j, k, l, m in combinations(range(1, n + 1), 5):
        lhs = gen_concat(
            t[j, m - 1, -1],
            t[k, m - 1, 1],
            t[j, l - 1, 1],
            t[i, k - 1, 1],
            t[i, l - 1, -1],
        )
        rhs = gen_concat(
            t[i, l - 1, -1],
            t[i, k - 1, 1],
            t[j, l - 1, 1],
            t[k, m - 1, 1],
            t[j, m - 1, -1],
        )
        out.append(gen_concat(lhs, gen_inverse(rhs)))
    return out


def _relator_count(group: str, n: int) -> int:
    """Number of relators the builder of `group` makes for n strands."""
    pairs = comb(n, 2)
    count = 2 * comb(n, 4) + 2 * comb(n, 3) + comb(n, 5)
    if group == "pmod":
        # every other span is nested in (1, n), so each loses one commutator
        return count - (pairs - 1)
    if group == "qb":
        return count + 1 + pairs
    return count


def _require_size(group: str, n: int) -> None:
    if n < 3:
        raise WordError(f"presentations need n >= 3, got {n}")
    count = _relator_count(group, n)
    if count > MAX_RELATORS:
        raise WordError(
            f"{group} on {n} strands has {count} relators, "
            f"more than the limit of {MAX_RELATORS}"
        )


def pb_relators(n: int) -> Presentation:
    """Presentation of the pure braid group on the full-twist generators."""
    _require_size("pb", n)
    pairs = _span_pairs(n)
    t = _twists(n)
    relators = _commutation_relators(pairs, t) + _pentagonal_relators(n, t)
    return Presentation(
        "pb", n, tuple(Atom.t(i, j) for i, j in pairs), tuple(relators)
    )


def pmod_relators(n: int) -> Presentation:
    """Pure mapping class group of the (n+1)-punctured sphere: drop t1,<n>."""
    _require_size("pmod", n)
    pairs = [p for p in _span_pairs(n) if p != (1, n)]
    t = _twists(n)
    relators = _commutation_relators(pairs, t) + _pentagonal_relators(n, t)
    return Presentation(
        "pmod", n, tuple(Atom.t(i, j) for i, j in pairs), tuple(relators)
    )


def qb_relators(n: int) -> Presentation:
    """Presentation of the quasitoric braid group over d0 and the full twists."""
    _require_size("qb", n)
    pairs = _span_pairs(n)
    t = _twists(n)
    d0 = ((Atom.d(0), 1),)
    d0_inv = ((Atom.d(0), -1),)
    relators = _commutation_relators(pairs, t) + _pentagonal_relators(n, t)
    relators.append(gen_concat(((Atom.d(0), n),), t[1, n, -1]))
    for i, j in pairs:
        conj = gen_concat(d0, t[i, j, 1], d0_inv)
        if j < n:
            rhs: GenWord = t[i + 1, j + 1, 1]
        elif (i, j) == (1, n):
            rhs = t[1, n, 1]
        else:
            rhs = gen_concat(
                t[2, n, -1],
                t[1, i, -1],
                t[2, i, 1],
                t[i + 1, n, 1],
                t[1, n, 1],
            )
        relators.append(gen_concat(conj, gen_inverse(rhs)))
    gens = (Atom.d(0),) + tuple(Atom.t(i, j) for i, j in pairs)
    return Presentation("qb", n, gens, tuple(relators))


def presentation(group: str, n: int) -> Presentation:
    if group == "pb":
        return pb_relators(n)
    if group == "qb":
        return qb_relators(n)
    if group == "pmod":
        return pmod_relators(n)
    raise WordError(f"unknown group {group!r}; expected one of {GROUPS}")


@dataclass(frozen=True)
class VerifyReport:
    group: str
    strands: int
    checked: int
    failures: tuple[int, ...]  # indices into Presentation.relators

    @property
    def ok(self) -> bool:
        return not self.failures


def verify(p: Presentation) -> VerifyReport:
    """Expand every relator to a braid word and test triviality with the oracle."""
    if p.group == "pmod":
        raise WordError(
            "pmod relators live in a quotient of the braid group; "
            "only their abelianized matrix is meaningful"
        )
    failures = []
    for idx, rel in enumerate(p.relators):
        if not is_trivial(expand(rel, p.strands)):
            failures.append(idx)
    return VerifyReport(p.group, p.strands, len(p.relators), tuple(failures))


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

    def __neg__(self) -> "ClassVector":
        return ClassVector(
            tuple(-a for a in self.free),
            tuple((-a) % d for a, d in zip(self.torsion, self.moduli)),
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

    def class_of_exponents(self, exponents: dict[Atom, int]) -> ClassVector:
        """Canonical coordinates of a generator-exponent vector."""
        index = {atom: c for c, atom in enumerate(self.generators)}
        vec = [0] * len(self.generators)
        for atom, e in exponents.items():
            if atom not in index:
                raise WordError(f"{atom} is not a generator of this presentation")
            vec[index[atom]] += e
        y = self.snf.coordinates(vec)
        rank = self.snf.rank
        free = tuple(y[rank:])
        torsion = tuple(
            y[c] % d for c, d in enumerate(self.snf.diag[:rank]) if d > 1
        )
        return ClassVector(free, torsion, self.torsion)

    def zero(self) -> ClassVector:
        return ClassVector((0,) * self.free_rank, (0,) * len(self.torsion), self.torsion)


def h1(p: Presentation) -> AbelianStructure:
    """Abelianization of the presented group by exact Smith normal form.

    The Smith normal form sees only the nonzero exponent rows, in relator
    order; see the module docstring for why that is exact.
    """
    index = {atom: c for c, atom in enumerate(p.generators)}
    matrix = []
    for rel in p.relators:
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


@lru_cache(maxsize=H1_CACHE_SIZE)
def _qb_h1(n: int) -> AbelianStructure:
    return h1(qb_relators(n))


def qt_class(w: BraidWord) -> ClassVector:
    """Homology class of a quasitoric braid in canonical H_1(QB_n) coordinates.

    Factors the braid as d0^k * p, reads the linking matrix of p (its a-atom
    coordinates in the abelianized pure braid group), converts to full-twist
    coordinates by the inclusion-exclusion change of basis, and pushes the
    exponent vector through the Smith transform.
    """
    structure = _qb_h1(w.strands)
    k, p = factor(w)
    lk = linking(p)
    exponents: dict[Atom, int] = {Atom.d(0): k}

    def bump(i: int, j: int, c: int) -> None:
        if i < j and c:
            atom = Atom.t(i, j)
            exponents[atom] = exponents.get(atom, 0) + c

    n = w.strands
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            c = lk.lk(i, j)
            bump(i, j, c)
            bump(i, j - 1, -c)
            bump(i + 1, j, -c)
            bump(i + 1, j - 1, c)
    return structure.class_of_exponents(exponents)
