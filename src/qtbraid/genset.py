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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .purebraid import t_decompose
from .quasitoric import factor, is_quasitoric
from .words import (
    Atom,
    BraidWord,
    GenWord,
    WordError,
    gen_concat,
    gen_inverse,
    gen_pow,
)

VARIANTS = ("thm41", "thm42")

# strand counts whose twist tables _short_twist_words and _long_twist_inverses keep
TWIST_CACHE_SIZE = 16


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


def _d0(e: int) -> GenWord:
    return ((Atom.d(0), e),)


def _conj_d0(k: int, inner: GenWord) -> GenWord:
    if k == 0:
        return inner
    return gen_concat(_d0(k), inner, _d0(-k))


@lru_cache(maxsize=TWIST_CACHE_SIZE)
def _short_twist_words(n: int) -> dict[int, GenWord]:
    """t(1,j) over the thm41 alphabet, for every 2 <= j <= n."""
    N = short_twist_bound(n)
    words: dict[int, GenWord] = {j: ((Atom.t(1, j), 1),) for j in range(2, N + 1)}
    words[n] = _d0(n)

    def shifted(i: int, j: int) -> GenWord:
        # t(i,j) with short span j-i+1 <= N, as a d0-conjugate of a resolved twist
        if i >= j:
            return ()
        return _conj_d0(i - 1, words[j - i + 1])

    if n - 1 > N:
        words[n - 1] = gen_concat(
            words[N - 1],
            shifted(N, n - 1),
            _d0(n),
            _d0(-1),
            gen_inverse(words[N]),
            _d0(1),
            gen_inverse(shifted(N, n)),
        )
    for j in range(n - 2, N, -1):
        words[j] = gen_concat(
            words[n - 1],
            shifted(j + 1, n),
            _d0(-1),
            words[j + 1],
            _d0(1),
            _d0(-n),
            gen_inverse(shifted(j + 1, n - 1)),
        )
    return words


def rewrite_to_thm41(gw: GenWord, n: int) -> GenWord:
    """Rewrite a word over d0 and full twists into the thm41 alphabet."""
    words = _short_twist_words(n)
    parts: list[GenWord] = []
    for atom, e in gw:
        if atom == Atom.d(0):
            parts.append(_d0(e))
        elif atom.kind == "t" and atom.j <= n:
            i, j = atom.i, atom.j
            base = words[j] if i == 1 else _conj_d0(i - 1, words[j - i + 1])
            parts.append(gen_pow(base, e))
        else:
            raise WordError(f"foreign atom {atom} in thm41 rewriting")
    return gen_concat(*parts)


@lru_cache(maxsize=TWIST_CACHE_SIZE)
def _long_twist_inverses(n: int) -> dict[int, GenWord]:
    """t(i,n)^{-1} over the thm42 alphabet for n-N+1 <= i <= n-1."""
    N = short_twist_bound(n)
    words: dict[int, GenWord] = {n - 1: ((Atom.d(0), -1), (Atom.d(1), 1))}
    for i in range(n - 2, n - N, -1):
        words[i] = gen_concat(
            ((Atom.d(0), -1), (Atom.d(n - i), 1), (Atom.d(0), -1)),
            words[i + 1],
            _d0(1),
        )
    return words


def rewrite_to_thm42(gw: GenWord, n: int) -> GenWord:
    """Rewrite a word over the thm41 alphabet into the cyclic thm42 alphabet."""
    N = short_twist_bound(n)
    inverses = _long_twist_inverses(n)
    parts: list[GenWord] = []
    for atom, e in gw:
        if atom == Atom.d(0):
            parts.append(_d0(e))
        elif atom.kind == "t" and atom.i == 1 and 2 <= atom.j <= N:
            j = atom.j
            base = _conj_d0(-(n - j), gen_inverse(inverses[n - j + 1]))
            parts.append(gen_pow(base, e))
        else:
            raise WordError(f"foreign atom {atom} in thm42 rewriting")
    return gen_concat(*parts)


def decompose(w: BraidWord, target: GensetTarget) -> GenWord:
    """Write a quasitoric braid over the target alphabet.

    Pipeline: factor off the cyclic part d0^k, comb the pure part into full
    twists, then run the alphabet rewriters.  The result expands to a braid
    Garside-equal to the input.
    """
    if w.strands != target.strands:
        raise WordError(f"strand mismatch: {w.strands} vs {target.strands}")
    if is_quasitoric(w) is None:
        raise WordError("braid is not quasitoric: permutation is not a power of the n-cycle")
    k, p = factor(w)
    over_twists = gen_concat(_d0(k) if k else (), t_decompose(p))
    out = rewrite_to_thm41(over_twists, w.strands)
    if target.variant == "thm42":
        out = rewrite_to_thm42(out, w.strands)
    if not target.admits(out):
        raise AssertionError(f"decompose left atoms outside the {target.variant} alphabet")
    return out
