"""Left-greedy (Garside) normal form: the word-problem oracle.

Every braid has a unique factorization Delta^inf f_1 ... f_k, where Delta is
the positive half twist, each f_i is a permutation braid (a positive braid in
which two strands cross at most once, fixed by its permutation) other than 1
and Delta, and each adjacent pair is left-weighted: the starting set of f_{i+1}
lies in the finishing set of f_i.  Two words are equal in the group iff their
normal forms coincide: the oracle that certifies the package's relators.

The form is built in one left-to-right pass over the letters, keeping the Delta
exponent d so far and the factors to its right.  A negative letter is
sigma_i^{-1} = Delta^{-1} (Delta sigma_i^{-1}), a permutation braid after
Delta^{-1}.  Moving Delta^{-1} to the front conjugates each factor it passes by
the flip tau(x) = Delta^{-1} x Delta, of order 2, so the list stores tau^d of
each true factor: a change of d moves no stored factor, and an odd d flips them
all once at the end.  tau maps sigma_i to sigma_{n-i} and keeps pairs
left-weighted, so letters are read through tau^d and stored pairs are
left-weighted as they are.

The unit of input is a run: a maximal stretch of same-sign letters whose
product is still a permutation braid.  A positive run keeps its array x;
appending sigma_{s+1} keeps it simple iff x[s] < x[s+1], and swaps those two
entries.  A negative run sigma_{i1}^{-1} ... sigma_{ik}^{-1} is y^{-1} with y =
sigma_ik ... sigma_i1; it keeps the array of y^{-1}, where prepending
sigma_{s+1} to y passes the same test and makes the same swap, lowers d by one
and contributes Delta y^{-1}, the array q -> n - 1 - y^{-1}[q].  A one-letter
run takes its factor from a table per parity of d.  A run equal to Delta only
raises d (tau^{d+1} tau = tau^d); one with y = Delta only lowers it.

From LEVEL_MIN_STRANDS strands on, the letters are first put in the order of
their levels (Cartier and Foata, LNM 85, 1969): a letter +-i has level 1 + the
largest level among the letters +-(i-1), +-i and +-(i+1) before it.  Letters of
one level commute, and a letter that does not commute with an earlier one has a
higher level, so the order is the same trace and gives the same normal form.
Positive letters come first on odd levels and negative ones on even levels, so
runs cross levels.  On six random 250-letter words at n=64 this cut the sweeps
from 790 to 179, for ~0.7 us a letter; below 8 strands it did not pay.  Each
LEVEL_BLOCK letters are sorted as a word of their own (the same braid), read
back from the word's tuple: 8 bytes a letter, with a peak of 25 at n=16.

Each run's factor is appended, and the pairs are left-weighted once from right
to left.  By the sweep lemma (Elrifai and Morton, Q. J. Math. 1994; Epstein et
al., "Word Processing in Groups", ch. 9) that backward sweep gives the normal
form of a left-weighted sequence times a permutation braid, and it stops at the
first unchanged pair.  A factor that becomes Delta is deleted and d raised by
one (the Delta pull): the factors right of it are flipped by tau, read from the
flips table as the final flip is, and the sweep ends, as it would only carry
that Delta to the front.  Only the appended factor can be absorbed into its
left neighbour (a right factor grown in a left-weighted pair (a, b) makes a*b
not simple), so the list never holds Delta or the identity.

gen_normal_factors reads a generator word (words.GenWord) syllable by syllable.
Each atom^{+-1} has its normal form Delta^inf f_1 ... f_k, built once by the
letter pass over its expansion and kept with tau of each factor.  Appending it
raises d by inf (Delta^inf moves left past each true factor g as tau^inf(g), so
the stored tau^d(g) stay), then appends and sweeps each f_i as tau^d(f_i) at
the parity of d then current: the letter pass's result, by uniqueness and the
sweep lemma.  A power atom^e is |e| such syllables.  The syllable table holds
at most two forms for each of the n^2 + n - 1 atoms in range.

Permutation braids are 0-based one-line arrays, the encoding of words.perm (the
entry at position q is the start of the strand ending at q), also in
GarsideNormalForm.  sigma_{s+1} is a prefix of the factor B iff value s+1
occurs before value s in B, and a suffix iff B[s] > B[s+1].  In a pass a factor
is an id, its index in the per-n context's registry, which holds each distinct
array once; arrays are read back only by the kernels and at the end.  The other
stores hold ints: the pair memo maps two ids packed in one int to the
left-weighted pair packed so, or to a sentinel.  One budget,
RENORM_MEMO_CELLS // n, bounds the registry, the pair memo and the flips table.
A full table is emptied at once, as ids stay valid.  A safe point before each
run and syllable copy empties the context, registering the live factors again,
when the registry holds that many besides those the call kept at its last
emptying.  Filled to the budget, the stores held 8.0 MB at n = 6 (the pair
memo; all 720 arrays take 0.1 MB) and 6.3 MB at n = 64 (arrays 4.9, pair memo
0.8, flips 0.6) under tracemalloc.

A pair (a, b) becomes (a m, m^{-1} b) with m = (a^{-1} Delta) ^ b, by one of
two kernels.  The bubble moves prefix letters of b into a one at a time, in one
forward scan that steps back to s - 1 after a swap at s: at most n - 1 + 2|m|
steps (1.3 / 7.9 us a pair at n = 4 / 12, repeated passes 1.6 / 9.6).  The meet
takes the strand pairs m leaves uncrossed as the transitive closure of those a
crosses and b leaves uncrossed (the weak-order meet; Epstein et al., ch. 9), in
bitmask rows: O(n) steps plus the closure, small exactly when m is long.  The
gate sends a pair to the meet when n >= MEET_MIN_STRANDS, b has over n/2
descents and a under half as many.  On the pairs of six random 250-letter words
at n = 20 / 32 / 64 (Python 3.11, 2-vCPU Xeon), those it takes cost the bubble
41 / 101 / 449 us and the meet 25 / 39 / 81 us, the rest 8.9 / 12.9 / 11.5 us
and 51 / 113 / 543 us; the bound on b keeps out short-m pairs that cost the
meet up to 1 ms.  Below 20 strands it paid nothing.
"""

from __future__ import annotations

import json
import math
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

# RENORM_MEMO_CELLS // n bounds each store of an n-strand context: the registry's
# arrays (n ints each) and the pair memo's and flips table's entries, which hold only
# ints; filled, they held 8.0 MB at n=6 and 6.3 MB at n=64.  One benchmark round fills
# at most ~16,600 pair entries at n=6 (nf, eq), ~1,900 at n=9 and ~1,600 at n=32-64.
RENORM_MEMO_CELLS = 1 << 19
_IDENTITY, _DELTA = 0, 1  # the ids every context registers first
_LEFT_WEIGHTED = -1  # the pair memo's value for a pair that already is left-weighted
MEET_MIN_STRANDS = 20  # the narrowest pairs that may go to the meet
LEVEL_MIN_STRANDS = 8  # the narrowest words read by levels
LEVEL_BLOCK = 1 << 14  # letters per sort of the level pass


@dataclass(frozen=True)
class GarsideNormalForm:
    """Canonical form (Delta power, left-weighted permutation-braid factors).

    Factors are 0-based one-line arrays, as words.perm; str and to_json print 1-based.
    """

    strands: int
    inf: int
    factors: tuple[tuple[int, ...], ...]

    def is_trivial(self) -> bool:
        return self.inf == 0 and not self.factors

    def __str__(self) -> str:
        head = f"D^{self.inf}"
        if not self.factors:
            return head
        return " | ".join([head] + [" ".join(str(v + 1) for v in f) for f in self.factors])

    def to_json(self) -> str:
        return json.dumps(
            {
                "strands": self.strands,
                "inf": self.inf,
                "factors": [[v + 1 for v in f] for f in self.factors],
            }
        )


def _tau(x: Factor) -> Factor:
    """The flip automorphism Delta^{-1} x Delta on factor arrays."""
    n1 = len(x) - 1
    return tuple([n1 - v for v in reversed(x)])


def _letter_id(ids: Table, n: int, slot: list[int], x: int) -> int:
    """The id of tau^parity of the signed letter's factor; slot is _Ctx.slots[parity]."""
    # sigma_i is its own factor, sigma_i^{-1} = Delta^{-1} (Delta sigma_i^{-1}),
    # and tau maps sigma_i to sigma_{n-i}, Delta sigma_i^{-1} to Delta sigma_{n-i}^{-1}
    i = slot[x]
    f = list(range(n)) if x > 0 else list(range(n - 1, -1, -1))
    f[i], f[i + 1] = f[i + 1], f[i]
    return ids[tuple(f)]


def _syllable_form(n: int, syllable: tuple) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(inf, ((f, tau f), ...)) in ids, the normal form of the syllable (atom, +-1).

    Made by reading its expansion once, with no safe point, as it runs inside a
    pass whose ids it must keep.  The caller checks the atom's range first.
    """
    ctx = _ctx(n)
    inf, fs = _letter_ids(ctx, expand((syllable,), n), math.inf)
    flipped = list(map(ctx.flips.__getitem__, fs))  # fs holds tau^inf of each factor
    return inf, tuple(zip(flipped, fs) if inf & 1 else zip(fs, flipped))


def _left_weight(pair: tuple[Factor, Factor]) -> tuple[Factor, Factor] | None:
    """Left-weight the pair (a, b); None means it already was left-weighted."""
    a, b = pair
    if len(a) >= MEET_MIN_STRANDS:
        descents_b = sum(map(gt, b, b[1:]))
        if 2 * descents_b > len(a) and 2 * sum(map(gt, a, a[1:])) < descents_b:
            return _meet(a, b)
    return _bubble(a, b)


def _bubble(a: Factor, b: Factor) -> tuple[Factor, Factor] | None:
    """Move prefix letters of b that are not suffix letters of a, one at a time.

    One forward scan that steps back after each swap, as perm_braid_word does.
    """
    n1 = len(a) - 1
    A = list(a)
    B = list(b)
    pos = [0] * len(b)
    for q, v in enumerate(B):
        pos[v] = q
    changed = False
    s = 0
    while s < n1:
        # s in starting set of B and not in finishing set of A
        if pos[s + 1] < pos[s] and A[s] < A[s + 1]:
            A[s], A[s + 1] = A[s + 1], A[s]
            p1, p2 = pos[s], pos[s + 1]
            B[p1], B[p2] = B[p2], B[p1]
            pos[s], pos[s + 1] = p2, p1
            changed = True
            if s:
                s -= 1
        else:
            s += 1
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
    """Per-strand-count factor registry, and letter, syllable, pair and flip tables of ids."""

    def __init__(self, n: int):
        self.cap = RENORM_MEMO_CELLS // n
        # ids < min(n!, 2^32), as the registry holds distinct arrays and is emptied near cap
        self.bits = (min(math.factorial(n), 1 << 32) - 1).bit_length()
        self.mask = (1 << self.bits) - 1
        # the registry: factors[id] is the array, ids[array] its id, made on first lookup
        factors = self.factors = [tuple(range(n)), tuple(range(n - 1, -1, -1))]
        ids = self.ids = Table(lambda f: factors.append(f) or len(factors) - 1)
        # [parity][letter]: the s with tau^parity(sigma_|letter|) = sigma_{s+1}; 2n long
        self.slots = ([0] * 2 * n, [0] * 2 * n)
        for k in range(1, n):
            self.slots[0][k] = self.slots[0][-k] = k - 1
            self.slots[1][k] = self.slots[1][-k] = n - 1 - k
        # [parity][letter]: the id of tau^parity of the letter's factor
        self.letters = tuple(Table(partial(_letter_id, ids, n, slot)) for slot in self.slots)
        self.syllables = Table(partial(_syllable_form, n))
        # a << bits | b -> the left-weighted pair, packed so, or _LEFT_WEIGHTED
        self.pairs: dict[int, int] = {}
        # x -> tau(x), read by the Delta pull and the final flip
        self.flips = Table(lambda x: ids[_tau(factors[x])], self.cap)
        self.reset()

    def reset(self, *live: list[int]) -> list[list[int]]:
        """Empty the context but for the identity and Delta; returns live re-registered."""
        factors, ids = self.factors, self.ids
        arrays = [list(map(factors.__getitem__, part)) for part in live]
        del factors[2:]
        for table in (ids, *self.letters, self.syllables, self.pairs, self.flips):
            table.clear()
        ids.update(zip(factors, (_IDENTITY, _DELTA)))
        return [list(map(ids.__getitem__, part)) for part in arrays]


@lru_cache(maxsize=STRAND_CACHE_SIZE)
def _ctx(n: int) -> _Ctx:
    return _Ctx(n)


def _sweep(ctx: _Ctx, fs: list[int], d: int) -> int:
    """Left-weight fs after one simple factor was appended; returns the new d.

    fs holds the ids of tau^d of each true factor.  One backward sweep stops at
    the first unchanged pair or at a Delta pull (see the module docstring).
    """
    pairs, bits, mask = ctx.pairs, ctx.bits, ctx.mask
    j = len(fs) - 1
    while j:
        key = fs[j - 1] << bits | fs[j]
        res = pairs.get(key)
        if res is None:
            factors, ids = ctx.factors, ctx.ids
            pair = _left_weight((factors[fs[j - 1]], factors[fs[j]]))
            res = _LEFT_WEIGHTED if pair is None else ids[pair[0]] << bits | ids[pair[1]]
            if len(pairs) >= ctx.cap:
                pairs.clear()
            pairs[key] = res
        if res == _LEFT_WEIGHTED:
            break
        a, b = res >> bits, res & mask
        if a == _DELTA:
            flips = ctx.flips
            fs[j - 1 :] = [flips[f] for f in [b] + fs[j + 1 :] if f != _IDENTITY]
            return d + 1
        fs[j - 1] = a
        if b == _IDENTITY:  # only the appended factor is ever absorbed
            fs.pop()
        else:
            fs[j] = b
        j -= 1
    return d


def _by_levels(word: tuple[int, ...], n: int) -> list[int]:
    """The letters of word in the order of their levels, LEVEL_BLOCK letters at a time.

    See the module docstring.  Each block is put in order as a word of its
    own, so the result is the same braid.
    """
    n2 = 2 * n
    block = LEVEL_BLOCK
    out = [0] * len(word)
    for start in range(0, len(word), block):
        chunk = word[start : start + block]
        top = [0] * (n + 1)  # top[i]: the level of the last letter +-i so far
        keyed = []
        for offset, x in enumerate(chunk):
            i = x if x > 0 else -x
            k = top[i - 1]
            if top[i] > k:
                k = top[i]
            if top[i + 1] > k:
                k = top[i + 1]
            k += 1
            top[i] = k
            # level k, then its first sign (positive on odd k), then the
            # letter; the offset only tells where the letter was
            keyed.append(((2 * k + ((x > 0) ^ (k & 1))) * n2 + x + n) * block + offset)
        keyed.sort()
        # read back from word, so that no new int is made
        out[start : start + len(chunk)] = [chunk[key % block] for key in keyed]
    return out


def _letter_ids(ctx: _Ctx, w: BraidWord, limit: float) -> tuple[int, list[int]]:
    """(inf, factor ids) of the normal form, in one left-to-right pass over w.

    fs holds tau^d of each true factor; each run's factor is appended and swept.
    A safe point before each run empties the context after limit registrations.
    """
    n = w.strands
    if n == 2:  # B_2 is infinite cyclic, generated by sigma_1 = Delta
        return exponent_sum(w), []
    registry, ids, letters, slots = ctx.factors, ctx.ids, ctx.letters, ctx.slots
    identity, w0 = registry[_IDENTITY], registry[_DELTA]
    n1 = n - 1
    word = w.letters if n < LEVEL_MIN_STRANDS else _by_levels(w.letters, n)
    end = len(word)
    fs: list[int] = []
    d, i, top = 0, 0, limit
    while i < end:
        if len(registry) >= top:
            (fs,) = ctx.reset(fs)
            top = len(registry) + limit
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
            fs.append(ids[f if x > 0 else tuple([n1 - v for v in f])])
        d = _sweep(ctx, fs, d)
    return d, fs


def _arrays(ctx: _Ctx, d: int, fs: list[int]) -> tuple[int, list[Factor]]:
    """(d, the arrays of fs), each flipped by tau if d is odd."""
    if d & 1:
        fs = list(map(ctx.flips.__getitem__, fs))
    return d, list(map(ctx.factors.__getitem__, fs))


def _normal_factors(w: BraidWord) -> tuple[int, list[Factor]]:
    """(inf, factors) of the normal form, in one left-to-right pass over w."""
    ctx = _ctx(w.strands)
    return _arrays(ctx, *_letter_ids(ctx, w, ctx.cap))


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
    syllables, registry, cap = ctx.syllables, ctx.factors, ctx.cap
    fs: list[int] = []
    d, top = 0, cap
    for atom, e in gw:
        inf, form = syllables[atom, 1 if e > 0 else -1]
        for _ in range(abs(e)):
            if len(registry) >= top:  # a safe point, as in _letter_ids
                fs, *form = ctx.reset(fs, *form)
                top = len(registry) + cap
            d += inf  # the stored factors stay (see the module docstring)
            for f in form:
                fs.append(f[d & 1])
                d = _sweep(ctx, fs, d)
    return _arrays(ctx, d, fs)


def normal_form(w: BraidWord) -> GarsideNormalForm:
    """The left-greedy normal form of the braid represented by w."""
    inf, fs = _normal_factors(w)
    return GarsideNormalForm(w.strands, inf, tuple(fs))


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
        delta = perm_braid_word(range(n - 1, -1, -1))
        if nf.inf < 0:
            delta = [-x for x in reversed(delta)]
        letters.extend(delta * abs(nf.inf))
    for f in nf.factors:
        letters.extend(perm_braid_word(f))
    return BraidWord(n, tuple(letters))
