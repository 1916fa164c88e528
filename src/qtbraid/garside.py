"""Left-greedy (Garside) normal form: the word-problem oracle.

Every element of the braid group has a unique factorization

    Delta^inf * f_1 * f_2 * ... * f_k

where Delta is the positive half twist, each f_i is a permutation braid
(a positive braid in which any two strands cross at most once, determined
by its permutation) that is neither trivial nor Delta, and each adjacent
pair is left-weighted: the starting set of f_{i+1} is contained in the
finishing set of f_i.  Two words are equal in the group iff their normal
forms coincide, which makes this module the equality oracle certifying
all the relator and rewriting machinery elsewhere in the package.

The form is built in one left-to-right pass over the letters, keeping the
Delta exponent d so far and the factors to its right.  Negative letters use
sigma_i^{-1} = Delta^{-1} * (Delta sigma_i^{-1}) with Delta sigma_i^{-1} a
permutation braid.  Moving Delta^{-1} to the front conjugates every factor it
passes by the order-2 flip automorphism tau(x) = Delta^{-1} x Delta, so the
factor list stores tau^d of each true factor instead: a change of d then
moves no stored factor, and tau is applied once to all of them at the end if
d is odd.  tau maps sigma_i to sigma_{n-i} and preserves left-weightedness,
so letters come from a table per parity of d and pairs are left-weighted on
the stored factors directly.  Each letter's factor is appended, and the pairs
are left-weighted once from right to left.  By the sweep lemma (Elrifai and
Morton, Q. J. Math. 1994; Epstein et al., "Word Processing in Groups",
ch. 9), that one backward sweep gives the normal form of a left-weighted
sequence times a permutation braid: each step leaves the pair to its right
left-weighted, and the sweep stops at the first unchanged pair, as the pairs
left of it are untouched.  A factor that becomes Delta is deleted and d
raised by one (the Delta pull): the stored factors left of it stay, those
right of it are flipped by tau.  The sweep would only carry that Delta on to
the front, flipping each factor it passes, as raising d already does, so the
pull ends the sweep.  Only the appended factor can be absorbed into its left
neighbour (any other right factor has grown from b in a left-weighted pair
(a, b), and a*b is not simple), so it alone is dropped: the list never holds
Delta or the identity.

Permutation braids are stored internally as 0-based one-line arrays under the
same convention as words.perm (the array entry at position q is the start of
the strand ending at q).  For a factor array B, sigma_{s+1} is a prefix of the
factor iff value s+1 occurs before value s in B, and a suffix iff B[s] > B[s+1].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .words import BraidWord, WordError, exponent_sum

Factor = tuple[int, ...]

_MISS = object()

# The pair memo of one strand count is emptied when it reaches this many
# entries, so a long-lived process holds at most CTX_CACHE_SIZE full memos.
# The largest one benchmark round fills holds about 49,000 (verify at n=10).
RENORM_MEMO_CAP = 1 << 16
CTX_CACHE_SIZE = 16


@dataclass(frozen=True)
class GarsideNormalForm:
    """Canonical form (Delta power, left-weighted permutation-braid factors).

    Factors are stored as tuples of 1-based permutation images.
    """

    strands: int
    inf: int
    factors: tuple[tuple[int, ...], ...]

    def is_trivial(self) -> bool:
        return self.inf == 0 and not self.factors

    def canonical_length(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        head = f"D^{self.inf}"
        if not self.factors:
            return head
        return " | ".join([head] + [" ".join(map(str, f)) for f in self.factors])

    def to_json(self) -> str:
        return json.dumps(
            {
                "strands": self.strands,
                "inf": self.inf,
                "factors": [list(f) for f in self.factors],
            }
        )


class _Ctx:
    """Per-strand-count tables and the pair-normalization memo."""

    def __init__(self, n: int):
        self.n = n
        self.identity: Factor = tuple(range(n))
        self.w0: Factor = tuple(range(n - 1, -1, -1))
        # letters[p][x]: tau^p of the factor of letter x, indexed by the signed
        # letter; sigma_i is its own factor, sigma_i^{-1} = Delta^{-1} (Delta sigma_i^{-1})
        even: list[Factor] = [self.identity] * (2 * n - 1)
        for i in range(n - 1):
            t = list(self.identity)
            t[i], t[i + 1] = t[i + 1], t[i]
            even[i + 1] = tuple(t)
            c = list(self.w0)
            c[i], c[i + 1] = c[i + 1], c[i]
            even[-i - 1] = tuple(c)
        # tau maps sigma_i to sigma_{n-i} and Delta sigma_i^{-1} to Delta sigma_{n-i}^{-1}
        odd = [self.identity] + even[n - 1 : 0 : -1] + even[: n - 1 : -1]
        self.letters = (even, odd)
        self._renorm_memo: dict[
            tuple[Factor, Factor], tuple[Factor, Factor] | None
        ] = {}

    def tau(self, x: Factor) -> Factor:
        """The flip automorphism Delta^{-1} x Delta on factor arrays."""
        n1 = self.n - 1
        return tuple([n1 - v for v in reversed(x)])

    def renorm_memoized(self, a: Factor, b: Factor) -> tuple[Factor, Factor] | None:
        """Left-weight the pair (a, b); None means it already was left-weighted.

        The memo stores None for unchanged pairs so the hot path in
        _normal_factors is a single dict probe.  It is emptied when it reaches
        RENORM_MEMO_CAP entries.
        """
        n = self.n
        A = list(a)
        B = list(b)
        pos = [0] * n
        for q, v in enumerate(B):
            pos[v] = q
        changed = False
        moving = True
        while moving:
            moving = False
            for s in range(n - 1):
                # s in starting set of B and not in finishing set of A
                if pos[s + 1] < pos[s] and A[s] < A[s + 1]:
                    A[s], A[s + 1] = A[s + 1], A[s]
                    p1, p2 = pos[s], pos[s + 1]
                    B[p1], B[p2] = B[p2], B[p1]
                    pos[s], pos[s + 1] = p2, p1
                    changed = moving = True
        result = (tuple(A), tuple(B)) if changed else None
        if len(self._renorm_memo) >= RENORM_MEMO_CAP:
            self._renorm_memo.clear()
        self._renorm_memo[(a, b)] = result
        return result


@lru_cache(maxsize=CTX_CACHE_SIZE)
def _ctx(n: int) -> _Ctx:
    return _Ctx(n)


def _normal_factors(w: BraidWord) -> tuple[int, list[Factor]]:
    """(inf, factors) of the normal form, in one left-to-right pass over w.

    fs holds tau^d of each true factor.  Each letter's factor is appended and
    followed by one backward sweep of left-weighting that stops at the first
    unchanged pair or at a Delta pull (see the module docstring).
    """
    n = w.strands
    if n == 2:  # B_2 is infinite cyclic, generated by sigma_1 = Delta
        return exponent_sum(w), []
    ctx = _ctx(n)
    memo = ctx._renorm_memo
    identity, w0, tau, letters = ctx.identity, ctx.w0, ctx.tau, ctx.letters
    fs: list[Factor] = []
    d = 0
    for x in w.letters:
        if x < 0:
            d -= 1
        fs.append(letters[d & 1][x])
        j = len(fs) - 1
        while j:
            key = (fs[j - 1], fs[j])
            res = memo.get(key, _MISS)
            if res is _MISS:
                res = ctx.renorm_memoized(*key)
            if res is None:
                break
            a, b = res
            if a == w0:
                d += 1
                fs[j - 1 :] = [tau(f) for f in [b] + fs[j + 1 :] if f != identity]
                break
            fs[j - 1] = a
            if b == identity:  # only the appended factor is ever absorbed
                fs.pop()
            else:
                fs[j] = b
            j -= 1
    if d & 1:
        fs = [tau(f) for f in fs]
    return d, fs


def normal_form(w: BraidWord) -> GarsideNormalForm:
    """The left-greedy normal form of the braid represented by w."""
    inf, fs = _normal_factors(w)
    return GarsideNormalForm(
        w.strands, inf, tuple(tuple(v + 1 for v in f) for f in fs)
    )


def equal(u: BraidWord, v: BraidWord) -> bool:
    """True iff u and v represent the same element of the braid group."""
    if u.strands != v.strands:
        raise WordError(f"strand mismatch: {u.strands} vs {v.strands}")
    return normal_form(u) == normal_form(v)


def is_trivial(w: BraidWord) -> bool:
    return normal_form(w).is_trivial()


def perm_braid_word(x: Factor) -> list[int]:
    """A reduced positive word (1-based letters) for the permutation braid x.

    Each letter is the smallest sigma_{s+1} that is a prefix of what remains
    (value s+1 before value s in x); removing it can only create a smaller
    prefix letter at s-1, so the scan resumes there.
    """
    n = len(x)
    pos = [0] * n
    for q, v in enumerate(x):
        pos[v] = q
    out: list[int] = []
    s = 0
    while s < n - 1:
        if pos[s + 1] < pos[s]:
            out.append(s + 1)
            pos[s], pos[s + 1] = pos[s + 1], pos[s]
            s = max(s - 1, 0)
        else:
            s += 1
    return out


def nf_word(nf: GarsideNormalForm) -> BraidWord:
    """A braid word spelling the normal form back out."""
    n = nf.strands
    ctx = _ctx(n)
    delta = perm_braid_word(ctx.w0)
    letters: list[int] = []
    if nf.inf >= 0:
        letters.extend(delta * nf.inf)
    else:
        letters.extend([-x for x in reversed(delta)] * (-nf.inf))
    for f in nf.factors:
        letters.extend(perm_braid_word(tuple(v - 1 for v in f)))
    return BraidWord(n, tuple(letters))
