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
so letters are read through tau^d and pairs are left-weighted on the stored
factors directly.

The unit of input is a run: a maximal stretch of same-sign letters whose
product is still a permutation braid.  A positive run keeps its array x;
appending sigma_{s+1} keeps it simple iff x[s] < x[s+1], and swaps those two
entries.  A negative run sigma_{i1}^{-1} ... sigma_{ik}^{-1} is y^{-1} with
y = sigma_ik ... sigma_i1, so it keeps the array of y^{-1}, where prepending
sigma_{s+1} to y passes the same test and makes the same swap.  It lowers d
by one and contributes the factor Delta y^{-1}, whose array is
q -> n - 1 - y^{-1}[q].  A one-letter run takes its factor from a table per
parity of d.  Two runs add no factor: a positive run equal to Delta only
raises d (tau^{d+1} tau = tau^d, so the stored factors stay), and a negative
run with y = Delta, whose Delta y^{-1} is the identity, only lowers it.

Each run's factor is appended, and the pairs are left-weighted once from
right to left.  By the sweep lemma (Elrifai and Morton, Q. J. Math. 1994;
Epstein et al., "Word Processing in Groups", ch. 9), that one backward sweep
gives the normal form of a left-weighted sequence times any permutation
braid: each step leaves the pair to its right left-weighted, and the sweep
stops at the first unchanged pair, as the pairs left of it are untouched.  A
factor that becomes Delta is deleted and d raised by one (the Delta pull):
the stored factors left of it stay, those right of it are flipped by tau.
The sweep would only carry that Delta on to the front, flipping each factor
it passes, as raising d already does, so the pull ends the sweep.  Only the
appended factor can be absorbed into its left neighbour (any other right
factor has grown from b in a left-weighted pair (a, b), and a*b is not
simple), so it alone is dropped: the list never holds Delta or the identity.
One helper, _sweep, does this for both front ends below.

A generator word (words.GenWord) is read syllable by syllable instead of
letter by letter, by gen_normal_factors.  Each syllable atom^{+-1} has its own
normal form Delta^inf f_1 ... f_k, built once by the letter pass over its
expansion and kept with tau of each factor.  Appending it raises d by inf:
Delta^inf moves left past each true factor g as tau^inf(g), so the stored
tau^d(g) stay.  Then each f_i is appended as tau^d(f_i), at the parity of d
then current, and swept.  The result is the letter pass's exactly, as the
normal form is unique and the sweep lemma holds for any appended permutation
braid.  A power atom^e is |e| such syllables.  The syllable table of n strands
(a words.Table, filled on first lookup) holds at most two entries for each of
its n^2 + n - 1 atoms in range (s, d, t and a), and it lives in the per-n
context, of which words.STRAND_CACHE_SIZE are kept.
Before any work gen_normal_factors refuses what expand would: an atom out of
range, or a word longer than MAX_LETTERS letters, which would otherwise cost
one sweep per syllable copy.

Permutation braids are stored internally as 0-based one-line arrays under the
same convention as words.perm (the array entry at position q is the start of
the strand ending at q).  For a factor array B, sigma_{s+1} is a prefix of the
factor iff value s+1 occurs before value s in B, and a suffix iff B[s] > B[s+1].

A pair (a, b) becomes (a m, m^{-1} b) with m = (a^{-1} Delta) ^ b, by one of two
routes behind one memo: the context's pairs table, a words.Table emptied at
RENORM_MEMO_CELLS // n entries.  The bubble moves prefix letters of b into a
one at a time, in passes over the n - 1 letters: about passes * n steps plus
|m| swaps.
The meet takes the strand pairs m leaves uncrossed as the transitive closure
of those a crosses and b leaves uncrossed (the weak-order meet; Epstein et
al., ch. 9), in bitmask rows: O(n) steps plus the closure work, which is small
exactly when m, and so the bubble, is long.  Each negative letter appends a
near-Delta factor to a short one, so wide words are full of such pairs.  The
meet takes a pair when n >= MEET_MIN_STRANDS and a has under half as many
descents as b.  On random words at n=64 such pairs took the bubble ~530 us and
the meet ~85 us, the rest took the bubble ~20 us (Python 3.11, 2-vCPU Xeon);
below 20 strands the gate cost what the meet saved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import add, gt, sub

from .words import (
    STRAND_CACHE_SIZE,
    BraidWord,
    GenWord,
    Table,
    WordError,
    check_expansion,
    expand,
    exponent_sum,
)

Factor = tuple[int, ...]

# The pair memo of n strands is emptied at RENORM_MEMO_CELLS // n entries of at
# most four n-tuples, so its size does not grow with n.  One benchmark round
# fills at most ~30,000 entries at n=10 (verify) and ~6,000 at n=32-64.
RENORM_MEMO_CELLS = 1 << 19
MEET_MIN_STRANDS = 20  # the narrowest pairs that may go to the meet


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


def _tau(x: Factor) -> Factor:
    """The flip automorphism Delta^{-1} x Delta on factor arrays."""
    n1 = len(x) - 1
    return tuple([n1 - v for v in reversed(x)])


def _letter_factor(n: int, slot: list[int], x: int) -> Factor:
    """tau^parity of the signed letter's factor; slot is _Ctx.slots[parity]."""
    # sigma_i is its own factor, sigma_i^{-1} = Delta^{-1} (Delta sigma_i^{-1}),
    # and tau maps sigma_i to sigma_{n-i}, Delta sigma_i^{-1} to Delta sigma_{n-i}^{-1}
    i = slot[x]
    f = list(range(n)) if x > 0 else list(range(n - 1, -1, -1))
    f[i], f[i + 1] = f[i + 1], f[i]
    return tuple(f)


def _syllable_form(n: int, syllable: tuple) -> tuple[int, tuple[tuple[Factor, Factor], ...]]:
    """(inf, ((f, tau f), ...)), the normal form of the syllable (atom, +-1).

    Made by expanding the syllable and reading its letters once.  The caller
    checks the atom's range first, so a foreign atom is never stored.
    """
    inf, fs = _normal_factors(expand((syllable,), n))
    return inf, tuple((f, _tau(f)) for f in fs)


def _left_weight(pair: tuple[Factor, Factor]) -> tuple[Factor, Factor] | None:
    """Left-weight the pair (a, b); None means it already was left-weighted.

    The pairs table stores None for unchanged pairs, so _sweep makes one probe
    per pair.
    """
    a, b = pair
    wide = len(a) >= MEET_MIN_STRANDS
    short_a = wide and 2 * sum(map(gt, a, a[1:])) < sum(map(gt, b, b[1:]))
    return _meet(a, b) if short_a else _bubble(a, b)


def _bubble(a: Factor, b: Factor) -> tuple[Factor, Factor] | None:
    """Move prefix letters of b that are not suffix letters of a, one at a time."""
    n = len(a)
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
    return (tuple(A), tuple(B)) if changed else None


def _meet(a: Factor, b: Factor) -> tuple[Factor, Factor] | None:
    """(a m, m^{-1} b) for the weak-order meet m = (a^{-1} Delta) ^ b.

    up[p] (down[p]) holds the strands q > p (q < p), each named by its middle
    position, that stay on their side of p in m."""
    n = len(a)
    full = (1 << n) - 1
    up, down = [0] * n, [0] * n
    # a^{-1} Delta as an array is the inverse of a, reversed
    for x in (sorted(range(n), key=a.__getitem__)[::-1], b):
        seen = 0
        for p in x:
            if below := seen & ((1 << p) - 1):
                down[p] |= below
            if above := (full ^ seen) >> (p + 1):
                up[p] |= above << (p + 1)
            seen |= 1 << p
    # close from the far end; bits a closed row already covers need no visit
    for rows, order in ((up, range(n - 1, -1, -1)), (down, range(n))):
        for p in order:
            row = todo = rows[p]
            while todo:
                closed = rows[(todo & -todo).bit_length() - 1]
                row |= closed
                todo &= (todo - 1) & ~closed
            rows[p] = row
    # p ends after the strands below it that stay and those above it that pass it
    ends = map(add, map(int.bit_count, down), range(n - 1, -1, -1))
    pos = list(map(sub, ends, map(int.bit_count, up)))
    if pos == list(range(n)):
        return None
    m = sorted(range(n), key=pos.__getitem__)
    return tuple(map(a.__getitem__, m)), tuple(map(pos.__getitem__, b))


class _Ctx:
    """Per-strand-count tables: letter factors, syllable forms and the pair memo."""

    def __init__(self, n: int):
        self.identity: Factor = tuple(range(n))
        self.w0: Factor = tuple(range(n - 1, -1, -1))
        # [parity][letter]: the s with tau^parity(sigma_|letter|) = sigma_{s+1};
        # lists of 2n, so that letters -1..1-n index their top half
        self.slots = ([0] * 2 * n, [0] * 2 * n)
        for k in range(1, n):
            self.slots[0][k] = self.slots[0][-k] = k - 1
            self.slots[1][k] = self.slots[1][-k] = n - 1 - k
        # [parity][letter]: tau^parity of the letter's factor
        self.letters = tuple(Table(partial(_letter_factor, n, slot)) for slot in self.slots)
        self.syllables = Table(partial(_syllable_form, n))
        # (a, b) -> the left-weighted pair, or None if (a, b) already is one
        self.pairs = Table(_left_weight, RENORM_MEMO_CELLS // n)


@lru_cache(maxsize=STRAND_CACHE_SIZE)
def _ctx(n: int) -> _Ctx:
    return _Ctx(n)


def _sweep(ctx: _Ctx, fs: list[Factor], d: int) -> int:
    """Left-weight fs after one simple factor was appended; returns the new d.

    fs holds tau^d of each true factor.  One backward sweep stops at the first
    unchanged pair or at a Delta pull (see the module docstring).
    """
    pairs = ctx.pairs
    j = len(fs) - 1
    while j:
        res = pairs[fs[j - 1], fs[j]]
        if res is None:
            break
        a, b = res
        if a == ctx.w0:
            identity = ctx.identity
            fs[j - 1 :] = [_tau(f) for f in [b] + fs[j + 1 :] if f != identity]
            return d + 1
        fs[j - 1] = a
        if b == ctx.identity:  # only the appended factor is ever absorbed
            fs.pop()
        else:
            fs[j] = b
        j -= 1
    return d


def _normal_factors(w: BraidWord) -> tuple[int, list[Factor]]:
    """(inf, factors) of the normal form, in one left-to-right pass over w.

    fs holds tau^d of each true factor; each run's factor is appended and swept.
    """
    n = w.strands
    if n == 2:  # B_2 is infinite cyclic, generated by sigma_1 = Delta
        return exponent_sum(w), []
    ctx = _ctx(n)
    identity, w0, letters = ctx.identity, ctx.w0, ctx.letters
    slots = ctx.slots
    n1 = n - 1
    word = w.letters
    end = len(word)
    fs: list[Factor] = []
    d = i = 0
    while i < end:
        x = word[i]
        i += 1
        if x < 0:
            d -= 1
        # sigma_i sigma_i is not simple, so a run outlasts x only if the next
        # letter has its sign and another index
        if i == end or (word[i] ^ x) < 0 or word[i] == x:
            fs.append(letters[d & 1][x])
        else:
            run = list(identity)  # the array of x, or of y^{-1} for a negative run
            slot = slots[d & 1]
            i -= 1
            while i < end and ((y := word[i]) ^ x) >= 0:
                s = slot[y]
                if run[s] > run[s + 1]:
                    break
                run[s], run[s + 1] = run[s + 1], run[s]
                i += 1
            f = tuple(run)
            if f == w0:  # the run is Delta^{+-1}: it only moves d
                if x > 0:
                    d += 1
                continue
            fs.append(f if x > 0 else tuple([n1 - v for v in f]))
        d = _sweep(ctx, fs, d)
    if d & 1:
        fs = [_tau(f) for f in fs]
    return d, fs


def gen_normal_factors(gw: GenWord, n: int) -> tuple[int, list[Factor]]:
    """(inf, factors) of the normal form of a generator word on n strands.

    Equal to _normal_factors(expand(gw, n)), but reads each syllable's cached
    normal form instead of its letters (see the module docstring).  Refuses,
    before any work, what expand refuses: fewer than 2 strands, an atom out of
    range, or a word longer than MAX_LETTERS letters.
    """
    if n < 2:
        raise WordError(f"need at least 2 strands, got {n}")
    check_expansion(gw, n)
    ctx = _ctx(n)
    syllables = ctx.syllables
    fs: list[Factor] = []
    d = 0
    for atom, e in gw:
        inf, factors = syllables[atom, 1 if e > 0 else -1]
        for _ in range(abs(e)):
            d += inf  # the stored factors stay (see the module docstring)
            for f in factors:
                fs.append(f[d & 1])
                d = _sweep(ctx, fs, d)
    if d & 1:
        fs = [_tau(f) for f in fs]
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
    letters: list[int] = []
    if nf.inf:
        delta = perm_braid_word(_ctx(n).w0)
        if nf.inf < 0:
            delta = [-x for x in reversed(delta)]
        letters.extend(delta * abs(nf.inf))
    for f in nf.factors:
        letters.extend(perm_braid_word(tuple(v - 1 for v in f)))
    return BraidWord(n, tuple(letters))
