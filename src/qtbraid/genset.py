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
oracle-checked identity suite, and a degenerate twist t(k,k) is the empty
word, written by the same helper as purebraid.a_to_t.  _tables substitutes
the last three, as they stand and top-down, through the twist table, whose
width key reads each shifted t(i,j) by the first.  The paper's thm42 lines are

    t(1,j)        = d0^{-(n-j)} t(n-j+1,n) d0^{n-j}
    t(n-1,n)^{-1} = d0^{-1} d1
    t(i,n)^{-1}   = d0^{-1} d<n-i> d0^{-1} t(i+1,n)^{-1} d0

The last line at i = n-k+1, inverted and conjugated as in the first, with
t(n-k+2,n) read by the index shift at j = k-1, gives one recurrence whose
every d<k> stays below N:

    t(1,k) = t(1,k-1) d0^{k-n} d<k-1>^{-1} d0^{n-k+1},    t(1,1) = 1.

The output is in central form.  Relation 3 makes d0^n = t(1,n) the full twist,
which generates the centre of B_n, so a word over either alphabet is d0^(nQ)
times its reduced image in Z/n * F(alphabet without d0): freely reduced, every
d0 exponent in (-n/2, n/2] (an even-n tie at +n/2, chosen by words._half
alone), Q fixed by the total d0 exponent.  That form is unique for the word's
free-group element, and exact, since a central power moves anywhere without
changing the braid; writing d0^9 at n = 9 as the central unit lets t1,5^-1
d0^9 t1,5 cancel.  d0^(nQ) is spread one d0^(+-n) onto each of the first |Q|
d0 syllables, the first taking what is left, or put in front of a word without
d0: collected into one syllable it reaches d0^-2412 at n = 12 on a 36-row
form, where spread only the first d0 syllable, and only when |Q| exceeds their
number, strays more than n from (-n/2, n/2].

Each strand count keeps four ImageTables (_tables, at most
words.STRAND_CACHE_SIZE strand counts) keyed by width: the index shift holds
for a(i,j) as for t(i,j), so each stores only the images of x(1,l), l = 2..n,
reduced, with the central units d0^n in a piece's head (t(1,n) = d0^n is the
piece (n, (), 0)).  The thm41 twist table writes its long twists when it is
built; its image function answers only the short twists, letters of the
alphabet.  The others fill on first lookup: a private table rewrites the short
twists into the thm42 alphabet by the recurrence (both short-twist image
functions refuse any other atom by one check), the thm41 a-atom table maps
a(1,l) to the twist table's image of purebraid.a_to_t(n, 1, l), and the thm42
one to that image rewritten by the short-twist table.  No table looks itself
up, so none is a reference cycle.  decompose is one pass
(ImageTable.substitute) of the combed word through its target's a-atom table:
image^e per syllable a(i,j)^e, d0^e kept, reduced at the seams only.  Each
a-atom table checks an image against its target's alphabet once, as it stores
it, and raises AssertionError (kept under python -O) if it strays; every
output syllable is d0 or comes from an entry, so the output is not scanned
again.

decompose refuses a strand count whose long thm41 twists could hold more than
words.MAX_LETTERS syllables (n > 2112), counted from lengths only before any
table is built; then it factors its input with quasitoric.factor, which
refuses a braid outside QB_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from operator import itemgetter
from typing import Callable

from .purebraid import _t, a_to_t, comb
from .quasitoric import factor
from .words import (
    MAX_LETTERS,
    STRAND_CACHE_SIZE,
    Atom,
    BraidWord,
    GenWord,
    ImageTable,
    WordError,
    _D0,
    _pieces,
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


def _d0(e: int) -> GenWord:
    return ((_D0, e),)


def _long_twist_syllables(n: int) -> int:
    """An upper bound on the syllables the thm41 twist table stores, from lengths only.

    ImageTable.substitute only merges, so an entry has at most as many
    syllables as its line, and the central reduction only drops more.
    Besides t(1,n-1) and t(1,j+1), each long line reads only short twists, of
    one syllable, and a shifted one adds two d0 syllables: so t(1,n) = d0^n
    has 1, t(1,n-1) has 4 + 6 = 10, t(1,n-2) has 10 + 3 + 10 + 2 = 25, and
    each lower long twist 18 more than the one above it.
    """
    N = short_twist_bound(n)
    m = max(0, n - 2 - N)  # long twists below t(1,n-1)
    return N - 1 + (n > N) + 10 * (n - 1 > N) + 25 * m + 9 * m * (m - 1)


def _short_twist(variant: str, n: int, atom: Atom) -> int:
    """j of a short twist t(1,j), 2 <= j <= N; any other atom is foreign to variant's rewriting."""
    if atom.kind != "t" or atom.i != 1 or not 2 <= atom.j <= short_twist_bound(n):
        raise WordError(f"foreign atom {atom} in {variant} rewriting")
    return atom.j


def _thm41_image(n: int, atom: Atom) -> GenWord:
    """A short twist t(1,j), j <= N: a letter of the thm41 alphabet."""
    _short_twist("thm41", n, atom)
    return ((atom, 1),)


def _short_thm42_image(n: int, atom: Atom) -> GenWord:
    """A short twist t(1,j) over the thm42 alphabet, by the recurrence of the module docstring."""
    j = _short_twist("thm42", n, atom)
    steps = (((_D0, k - n), (Atom.d(k - 1), -1), (_D0, n - k + 1)) for k in range(2, j + 1))
    return tuple(chain.from_iterable(steps))


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
    table on n strands.  Refuses, before building any, an n whose long thm41 twists
    could hold more than MAX_LETTERS syllables."""
    syllables = _long_twist_syllables(n)
    if syllables > MAX_LETTERS:
        raise WordError(
            f"the twist tables on {n} strands would hold up to {syllables} syllables, "
            f"more than the limit of {MAX_LETTERS}"
        )
    N, t, d0 = short_twist_bound(n), _t, _d0
    lines = {n: d0(n)}
    if n - 1 > N:
        lines[n - 1] = (
            t(1, N - 1) + t(N, n - 1) + t(1, n) + d0(-1) + t(1, N, -1) + d0(1) + t(N, n, -1)
        )
    for j in range(n - 2, N, -1):
        lines[j] = (
            t(1, n - 1) + t(j + 1, n) + d0(-1) + t(1, j + 1) + d0(1) + t(1, n, -1)
            + t(j + 1, n - 1, -1)
        )
    twists = ImageTable(partial(_thm41_image, n), n)
    for j, line in lines.items():  # top-down, so a line reads only stored long twists
        twists[Atom.t(1, j)] = _pieces(twists.substitute(line), n)
    short = ImageTable(partial(_short_thm42_image, n), n)
    thm41 = ImageTable(partial(_admitted, "thm41", n, partial(_a_image, n, twists)), n)
    thm42 = ImageTable(partial(_admitted, "thm42", n, partial(_thm42_image, thm41, short)), n)
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
