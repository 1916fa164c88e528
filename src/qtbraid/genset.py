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

with every index d<k> staying below N.  Beyond merging adjacent equal atoms,
no simplification is attempted; soundness, not brevity, is the contract.

Each strand count keeps one twist table per alphabet (_twist_tables, at most
words.STRAND_CACHE_SIZE strand counts): an ImageTable (a words.Table) from
t(i,j) to its image under the lines above and that image's inverse, filled on
first lookup, so a word with no twists builds nothing.  The tables are not
capped, as the thm41 one looks itself up.  A rewriter is then one substitution
pass (ImageTable.substitute): image^e for each syllable t(i,j)^e, d0^e kept,
and one free reduction at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from .purebraid import t_decompose
from .quasitoric import factor, is_quasitoric  # noqa: F401  (hooked by bench/spans.py)
from .words import (
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
        n, N = self.strands, self.size
        if not n - N <= N - 1:
            raise AssertionError("alphabet too small to span the long twists")

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
        allowed = set(self.alphabet)
        return all(atom in allowed for atom, _ in gw)


_D0 = Atom.d(0)


def _d0(e: int) -> GenWord:
    return ((_D0, e),)


def _conj_d0(k: int, inner: GenWord) -> GenWord:
    if k == 0:
        return inner
    return gen_concat(_d0(k), inner, _d0(-k))


def _thm41_image(n: int, table: ImageTable, atom: Atom) -> GenWord:
    """t(i,j) over the thm41 alphabet, from the lines of the module docstring."""
    i, j = atom.i, atom.j
    if atom.kind != "t" or j > n:
        raise WordError(f"foreign atom {atom} in thm41 rewriting")
    N = short_twist_bound(n)
    if i > 1:
        return _conj_d0(i - 1, table[Atom.t(1, j - i + 1)][0])
    if j <= N:
        return ((atom, 1),)
    if j == n:
        return _d0(n)
    if j == n - 1:
        return gen_concat(
            table[Atom.t(1, N - 1)][0],
            table[Atom.t(N, n - 1)][0],
            _d0(n - 1),
            table[Atom.t(1, N)][1],
            _d0(1),
            table[Atom.t(N, n)][1],
        )
    # t(1,j) leans on t(1,j+1): fill that chain from the top, not by deep recursion
    for k in range(n - 2, j, -1):
        table[Atom.t(1, k)]
    return gen_concat(
        table[Atom.t(1, n - 1)][0],
        table[Atom.t(j + 1, n)][0],
        _d0(-1),
        table[Atom.t(1, j + 1)][0],
        _d0(1 - n),
        table[Atom.t(j + 1, n - 1)][1] if j + 1 < n - 1 else (),
    )


def _thm42_image(n: int, atom: Atom) -> GenWord:
    """t(1,j) over the thm42 alphabet: d0^{-(n-j)} t(n-j+1,n) d0^{n-j}."""
    j = atom.j
    if atom.kind != "t" or atom.i != 1 or not 2 <= j <= short_twist_bound(n):
        raise WordError(f"foreign atom {atom} in thm42 rewriting")
    # t(i,n)^{-1} for i = n-1 down to n-j+1, by the recursion of the module docstring
    inverse = ((_D0, -1), (Atom.d(1), 1))
    for i in range(n - 2, n - j, -1):
        inverse = gen_concat(((_D0, -1), (Atom.d(n - i), 1), (_D0, -1)), inverse, _d0(1))
    return _conj_d0(-(n - j), gen_inverse(inverse))


@lru_cache(maxsize=STRAND_CACHE_SIZE)
def _twist_tables(n: int) -> dict[str, ImageTable]:
    """The thm41 and thm42 twist tables on n strands, empty until first looked up."""
    thm41 = ImageTable(lambda atom: _thm41_image(n, thm41, atom), fixed=_D0)
    return {"thm41": thm41, "thm42": ImageTable(partial(_thm42_image, n), fixed=_D0)}


def rewrite_to_thm41(gw: GenWord, n: int) -> GenWord:
    """Rewrite a word over d0 and full twists into the thm41 alphabet."""
    return _twist_tables(n)["thm41"].substitute(gw)


def rewrite_to_thm42(gw: GenWord, n: int) -> GenWord:
    """Rewrite a word over the thm41 alphabet into the cyclic thm42 alphabet."""
    return _twist_tables(n)["thm42"].substitute(gw)


def decompose(w: BraidWord, target: GensetTarget) -> GenWord:
    """Write a quasitoric braid over the target alphabet.

    Pipeline: factor off the cyclic part d0^k, comb the pure part into full
    twists, then run the alphabet rewriters.  The result expands to a braid
    Garside-equal to the input.
    """
    if w.strands != target.strands:
        raise WordError(f"strand mismatch: {w.strands} vs {target.strands}")
    k, p = factor(w)
    over_twists = gen_concat(_d0(k) if k else (), t_decompose(p))
    out = rewrite_to_thm41(over_twists, w.strands)
    if target.variant == "thm42":
        out = rewrite_to_thm42(out, w.strands)
    if not target.admits(out):
        raise AssertionError(f"decompose left atoms outside the {target.variant} alphabet")
    return out
