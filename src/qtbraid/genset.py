"""Rewriting quasitoric braids into the two minimal generating sets.

Put N = n//2 + 1; the abelianization bounds the number of generators of QB_n
below by N, and two alphabets of exactly that size generate:

* thm41: the cyclic braid d0 together with the short full twists
  t1,2 ... t1,<N>;
* thm42: the cyclic family d0, d1, ..., d<N-1>.

The rewriters are syntactic macro expansions certified by the Garside oracle.
Long twists resolve into the thm41 alphabet through

    t(i,j)   = d0^{i-1} t(1,j-i+1) d0^{-(i-1)}            index shift, i >= 2
    t(1,n)   = d0^n
    t(1,n-1) = t(1,N-1) t(N,n-1) t(1,n) d0^{-1} t(1,N)^{-1} d0 t(N,n)^{-1}
    t(1,j)   = t(1,n-1) t(j+1,n) d0^{-1} t(1,j+1) d0 t(1,n)^{-1} t(j+1,n-1)^{-1}
                                          for j = n-2 down to N+1

where the four-hole relations behind the last two lines are part of the
oracle-checked identity suite.  The thm42 alphabet is reached through

    t(1,j)     = d0^{-(n-j)} t(n-j+1,n) d0^{n-j}
    t(n-1,n)^{-1} = d0^{-1} d1
    t(i,n)^{-1}   = d0^{-1} d<n-i> d0^{-1} t(i+1,n)^{-1} d0

with every index d<k> staying below N.

The output is in central form.  Relation 3 makes d0^n = t(1,n) the full
twist, which generates the centre of B_n, so a word over either alphabet is
d0^(nQ) times its reduced image in Z/n * F(alphabet without d0): freely
reduced, every d0 exponent in (-n/2, n/2] (an even-n tie at +n/2), Q fixed
by the total d0 exponent.  That form is unique for the word's free-group
element, and exact, since a central power moves anywhere without changing
the braid; writing d0^9 at n = 9 as the central unit lets t1,5^-1 d0^9 t1,5
cancel.  d0^(nQ) is spread one d0^(+-n) onto each of the first |Q| d0
syllables, the first taking what is left, or put in front of a word without
d0: collected into one syllable it reaches d0^-2412 at n = 12 on a 36-row
form, where spread only the first d0 syllable, and only when |Q| exceeds
their number, strays more than n from (-n/2, n/2].

Each strand count keeps four central ImageTables (_tables, at most
words.STRAND_CACHE_SIZE strand counts), filled on first lookup and keyed by
width: the index shift holds for a(i,j) as for t(i,j), so each stores only the
images of x(1,l), l = 2..n, reduced with their central counts (t(1,n) = d0^n
is the empty word and one unit).  The thm41 twist table reads the t(1,j) of
_thm41_long_twists, built top-down from t(1,n) = d0^n; a private table
rewrites the short twists into the thm42 alphabet.  The thm41 a-atom table
maps a(1,l) to the twist table's image of purebraid.a_to_t(n, 1, l), the
thm42 one to that image rewritten by the short-twist table.  No table looks
itself up, so none is a reference cycle.  decompose is one pass
(ImageTable.substitute) of the combed word through its target's a-atom
table: image^e per syllable a(i,j)^e, d0^e kept, reduced at the seams only.
Each a-atom table checks an image against its target's alphabet once, as it
stores it, and raises AssertionError (kept under python -O) if it strays;
every output syllable is d0 or comes from an entry, so the output is not
scanned again.

decompose refuses a strand count whose long thm41 twists could hold more than
words.MAX_LETTERS syllables (n > 2112), counted from lengths only before any
table is built; then it factors its input with quasitoric.factor, which
refuses a braid outside QB_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable

from .purebraid import a_to_t, comb
from .quasitoric import factor
from .words import (
    MAX_LETTERS,
    STRAND_CACHE_SIZE,
    Atom,
    BraidWord,
    GenWord,
    ImageTable,
    WordError,
    gen_concat,
    gen_inverse,
)

VARIANTS = ("thm41", "thm42")


def short_twist_bound(n: int) -> int:
    """The minimal generator count N: (n+1)/2 for odd n, (n+2)/2 for even n."""
    return n // 2 + 1


@dataclass(frozen=True)
class GensetTarget:
    """A target alphabet: variant "thm41" or "thm42" on n strands."""

    variant: str
    strands: int

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise WordError(f"unknown variant {self.variant!r}; expected {VARIANTS}")
        if self.strands < 3:
            raise WordError(f"generating-set targets need n >= 3, got {self.strands}")

    @property
    def size(self) -> int:
        return short_twist_bound(self.strands)

    @property
    def alphabet(self) -> tuple[Atom, ...]:
        N = self.size
        if self.variant == "thm41":
            return (Atom.d(0),) + tuple(Atom.t(1, j) for j in range(2, N + 1))
        return tuple(Atom.d(k) for k in range(N))

    def admits(self, gw: GenWord) -> bool:
        return set(self.alphabet).issuperset(map(itemgetter(0), gw))


_D0 = Atom.d(0)


def _d0(e: int) -> GenWord:
    return ((_D0, e),)


def _conj_d0(k: int, inner: GenWord) -> GenWord:
    return gen_concat(_d0(k), inner, _d0(-k))


def _thm41_long_twists(n: int) -> dict[int, GenWord]:
    """j -> t(1,j) over the thm41 alphabet, for j = 2..n.

    The short twists j <= N are letters of the alphabet.  The long ones are
    filled top-down from t(1,n) = d0^n by the lines of the module docstring,
    so every t(1,k) they read is already in the dict.
    """
    N = short_twist_bound(n)
    twists = {j: ((Atom.t(1, j), 1),) for j in range(2, N + 1)}
    if n > N:
        twists[n] = _d0(n)
    if n - 1 > N:
        twists[n - 1] = gen_concat(
            twists[N - 1],
            _conj_d0(N - 1, twists[n - N]),
            _d0(n - 1),
            gen_inverse(twists[N]),
            _d0(1),
            gen_inverse(_conj_d0(N - 1, twists[n - N + 1])),
        )
    for j in range(n - 2, N, -1):
        twists[j] = gen_concat(
            twists[n - 1],
            _conj_d0(j, twists[n - j]),
            _d0(-1),
            twists[j + 1],
            _d0(1 - n),
            gen_inverse(_conj_d0(j, twists[n - j - 1])) if j + 1 < n - 1 else (),
        )
    return twists


def _long_twist_syllables(n: int) -> int:
    """An upper bound on the syllables _thm41_long_twists(n) holds, from lengths only.

    gen_concat only merges, so an image has at most as many syllables as its
    parts, and the twist tables' central reduction only drops more.  Besides
    t(1,n-1) and t(1,j+1), each long line reads only short twists, of one
    syllable, and a conjugation adds two d0 syllables: so t(1,n) = d0^n has
    1, t(1,n-1) has 4 + 6 = 10, t(1,n-2) has 10 + 3 + 10 + 2 = 25, and each
    lower long twist 18 more than the one above it.
    """
    N = short_twist_bound(n)
    m = max(0, n - 2 - N)  # long twists below t(1,n-1)
    return N - 1 + (n > N) + 10 * (n - 1 > N) + 25 * m + 9 * m * (m - 1)


def _thm41_image(twists: dict[int, GenWord], atom: Atom) -> GenWord:
    """t(1,j) over the thm41 alphabet, read from _thm41_long_twists."""
    if atom.kind != "t" or atom.i != 1 or atom.j not in twists:
        raise WordError(f"foreign atom {atom} in thm41 rewriting")
    return twists[atom.j]


def _short_thm42_image(n: int, atom: Atom) -> GenWord:
    """t(1,j) over the thm42 alphabet: d0^{-(n-j)} t(n-j+1,n) d0^{n-j}."""
    j = atom.j
    if atom.kind != "t" or atom.i != 1 or not 2 <= j <= short_twist_bound(n):
        raise WordError(f"foreign atom {atom} in thm42 rewriting")
    # t(i,n)^{-1} for i = n-1 down to n-j+1, by the recursion of the module docstring
    inverse = ((_D0, -1), (Atom.d(1), 1))
    for i in range(n - 2, n - j, -1):
        inverse = gen_concat(((_D0, -1), (Atom.d(n - i), 1), (_D0, -1)), inverse, _d0(1))
    return _conj_d0(-(n - j), gen_inverse(inverse))


def _thm42_image(thm41: ImageTable, short: ImageTable, atom: Atom) -> GenWord:
    """An atom's thm41 image, rewritten into the thm42 alphabet by the short-twist table."""
    return short.substitute(thm41.substitute(((atom, 1),)))


def _a_image(n: int, twists: ImageTable, atom: Atom) -> GenWord:
    """a(1,j) over the thm41 alphabet: the image of its full-twist word a_to_t."""
    if atom.kind != "a" or atom.i != 1:
        raise WordError(f"foreign atom {atom} in a-atom rewriting")
    return twists.substitute(a_to_t(n, 1, atom.j))


def _admitted(variant: str, n: int, image: Callable[[Atom], GenWord], atom: Atom) -> GenWord:
    """image(atom), refused unless it lies in the variant's alphabet on n strands."""
    word = image(atom)
    if not GensetTarget(variant, n).admits(word):
        raise AssertionError(f"the {variant} image of {atom} leaves its alphabet")
    return word


@lru_cache(maxsize=STRAND_CACHE_SIZE)
def _tables(n: int) -> dict[str, ImageTable]:
    """The a-atom tables "thm41" and "thm42", the thm41 "twists" and the "short" twist
    table on n strands, empty until first looked up.  Refuses, before building any,
    an n whose long thm41 twists could hold more than MAX_LETTERS syllables."""
    syllables = _long_twist_syllables(n)
    if syllables > MAX_LETTERS:
        raise WordError(
            f"the twist tables on {n} strands would hold up to {syllables} syllables, "
            f"more than the limit of {MAX_LETTERS}"
        )
    twists = ImageTable(partial(_thm41_image, _thm41_long_twists(n)), (_D0, n))
    short = ImageTable(partial(_short_thm42_image, n), (_D0, n))
    thm41 = ImageTable(partial(_admitted, "thm41", n, partial(_a_image, n, twists)), (_D0, n))
    thm42 = ImageTable(
        partial(_admitted, "thm42", n, partial(_thm42_image, thm41, short)), (_D0, n)
    )
    return {"thm41": thm41, "thm42": thm42, "twists": twists, "short": short}


def decompose(w: BraidWord, target: GensetTarget) -> GenWord:
    """Write a quasitoric braid over the target alphabet, in central form.

    Look up the target's a-atom table, which refuses too many strands, factor
    off the cyclic part d0^k, comb the pure part into a-atoms, and make one
    substitution pass; the output expands to a braid Garside-equal to the input,
    and lies in the target alphabet, as does every entry of the table."""
    if w.strands != target.strands:
        raise WordError(f"strand mismatch: {w.strands} vs {target.strands}")
    table = _tables(w.strands)[target.variant]
    k, p = factor(w)
    return table.substitute(_d0(k) + comb(p))
