import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtbraid import (
    Atom,
    BraidWord,
    WordError,
    concat,
    equal,
    expand,
    exponent_sum,
    format_word,
    free_reduce,
    inverse,
    nf_word,
    normal_form,
    is_trivial,
    parse_word,
    perm,
    toric,
)
from qtbraid import garside
from qtbraid.garside import _ctx, _normal_factors, perm_braid_word

from helpers import GOLDENS, WatchedMemo, random_word, rewrite_equivalent


def renorm(ctx, a, b):
    """Left-weight the pair (a, b), moving prefix letters of b into a."""
    res = ctx.renorm_memoized(a, b)
    return (a, b) if res is None else res


def tau(x):
    """The flip automorphism Delta^{-1} x Delta on 0-based factor arrays."""
    n1 = len(x) - 1
    return tuple(n1 - x[n1 - q] for q in range(len(x)))


def fixpoint_normal_factors(w):
    """Reference normalizer: sweep every adjacent pair until nothing moves.

    Independent of the single-pass scheduling used by the production path:
    all Delta powers are pushed to the front first, and half twists that form
    are left in place until the end.  The unique-normal-form theorem says
    both must land on the same factor list.
    """
    n = w.strands
    identity = tuple(range(n))
    w0 = identity[::-1]
    raw = []
    dpows = []
    for x in w.letters:
        i = abs(x) - 1
        f = list(identity if x > 0 else w0)
        f[i], f[i + 1] = f[i + 1], f[i]
        raw.append(tuple(f))
        dpows.append(0 if x > 0 else -1)
    shift = 0
    for t in range(len(raw) - 1, -1, -1):
        if shift % 2:
            raw[t] = tau(raw[t])
        shift += dpows[t]
    ctx = _ctx(n)
    fs = list(raw)
    changed = True
    while changed:
        changed = False
        fs = [f for f in fs if f != identity]
        for j in range(len(fs) - 1):
            a2, b2 = renorm(ctx, fs[j], fs[j + 1])
            if a2 != fs[j]:
                fs[j], fs[j + 1] = a2, b2
                changed = True
    fs = [f for f in fs if f != identity]
    lead = 0
    while lead < len(fs) and fs[lead] == w0:
        lead += 1
    return shift + lead, fs[lead:]


def _reference_inputs():
    """Random words, all-negative words, and words that build Delta mid-sweep."""
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(2, 6)
        yield random_word(rng, n, rng.randint(0, 35))
    for _ in range(12):
        n = rng.randint(7, 16)
        yield random_word(rng, n, rng.randint(100, 200))
    for _ in range(40):
        n = rng.randint(2, 10)
        yield BraidWord(n, tuple(-abs(x) for x in random_word(rng, n, 60).letters))
    for _ in range(60):
        n = rng.randint(3, 10)
        blocks = [(1, 2, 1), tuple(range(1, n)), tuple(range(-1, -n, -1))]
        letters = []
        for _ in range(rng.randint(1, 6)):
            letters += rng.choice(blocks) * rng.randint(1, n)
            letters += random_word(rng, n, rng.randint(0, 6)).letters
        yield BraidWord(n, tuple(letters[:150]))


class TestNormalForm:
    def test_agrees_with_fixpoint_reference(self):
        for w in _reference_inputs():
            assert _normal_factors(w) == fixpoint_normal_factors(w), w

    def test_empty(self):
        nf = normal_form(BraidWord(4))
        assert nf.inf == 0 and nf.factors == ()
        assert nf.is_trivial()

    def test_braid_relation(self):
        assert normal_form(parse_word(3, "1 2 1")) == normal_form(parse_word(3, "2 1 2"))

    def test_single_negative_letter(self):
        nf = normal_form(parse_word(2, "-1"))
        assert nf.inf == -1 and nf.factors == ()
        assert is_trivial(parse_word(2, "1 -1"))

    def test_half_twist(self):
        nf = normal_form(parse_word(3, "1 2 1"))
        assert nf.inf == 1 and nf.factors == ()

    def test_invariant_under_free_reduction(self):
        rng = random.Random(10)
        for _ in range(50):
            w = random_word(rng, rng.randint(2, 6), rng.randint(0, 25))
            assert normal_form(free_reduce(w)) == normal_form(w)

    def test_factors_are_valid(self):
        for w in _reference_inputs():
            ctx = _ctx(w.strands)
            inf, fs = _normal_factors(w)
            for f in fs:
                assert f != ctx.identity and f != ctx.w0
            for j in range(len(fs) - 1):
                assert renorm(ctx, fs[j], fs[j + 1]) == (fs[j], fs[j + 1])

    def test_exponent_sum_reconstruction(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.randint(2, 6)
            w = random_word(rng, n, rng.randint(0, 25))
            inf, fs = _normal_factors(w)
            half_twist_len = n * (n - 1) // 2
            assert exponent_sum(w) == inf * half_twist_len + sum(map(_inversions, fs))

    def test_word_reconstruction(self):
        rng = random.Random(13)
        for _ in range(80):
            w = random_word(rng, rng.randint(2, 6), rng.randint(0, 20))
            assert equal(nf_word(normal_form(w)), w)

    @pytest.mark.parametrize("case", GOLDENS["nf_word"], ids=lambda c: f"n{c['n']}")
    def test_nf_word_golden(self, case):
        w = parse_word(case["n"], case["word"])
        assert format_word(nf_word(normal_form(w))) == case["letters"]

    def test_format(self):
        assert str(normal_form(BraidWord(3))) == "D^0"
        assert str(normal_form(parse_word(3, "1 2 1"))) == "D^1"
        assert str(normal_form(parse_word(3, "1"))) == "D^0 | 2 1 3"

    def test_json_roundtrip(self):
        import json

        nf = normal_form(parse_word(4, "1 -2 3 1"))
        data = json.loads(nf.to_json())
        assert data["inf"] == nf.inf
        assert tuple(tuple(f) for f in data["factors"]) == nf.factors


class TestEqual:
    def test_full_twist_equals_delta0_power(self):
        for n in range(2, 7):
            assert equal(toric(n, 1) ** n, expand(((Atom.t(1, n), 1),), n))

    def test_disjoint_full_twists_commute(self):
        u = expand(((Atom.t(1, 2), 1), (Atom.t(3, 4), 1)), 4)
        v = expand(((Atom.t(3, 4), 1), (Atom.t(1, 2), 1)), 4)
        assert equal(u, v)

    def test_distinct_generators_differ(self):
        assert not equal(BraidWord(3, (1,)), BraidWord(3, (2,)))

    def test_powers_of_sigma_differ(self):
        assert not equal(BraidWord(2, (1, 1)), BraidWord(2, (1, 1, 1)))

    def test_strand_mismatch(self):
        with pytest.raises(WordError):
            equal(BraidWord(3, (1,)), BraidWord(4, (1,)))

    def test_equivalence_on_rewrites(self):
        rng = random.Random(14)
        for _ in range(100):
            n = rng.randint(2, 6)
            w = random_word(rng, n, rng.randint(0, 20))
            v = rewrite_equivalent(rng, w)
            assert equal(w, v)

    def test_necessary_conditions(self):
        rng = random.Random(15)
        for _ in range(100):
            n = rng.randint(2, 6)
            u = random_word(rng, n, rng.randint(0, 15))
            v = random_word(rng, n, rng.randint(0, 15))
            if equal(u, v):
                assert perm(u) == perm(v)
                assert exponent_sum(u) == exponent_sum(v)

    def test_congruence_under_concat(self):
        rng = random.Random(16)
        for _ in range(40):
            n = rng.randint(2, 5)
            u = random_word(rng, n, rng.randint(0, 10))
            v = rewrite_equivalent(rng, u)
            c = random_word(rng, n, rng.randint(0, 10))
            assert equal(concat(u, c), concat(v, c))
            assert equal(concat(c, u), concat(c, v))


class TestTrivial:
    def test_inverse_law(self):
        rng = random.Random(17)
        for _ in range(60):
            w = random_word(rng, rng.randint(2, 6), rng.randint(0, 20))
            assert is_trivial(concat(w, inverse(w)))

    def test_sigma_squared_not_trivial(self):
        assert not is_trivial(BraidWord(3, (1, 1)))

    def test_full_twist_central(self):
        for n in range(2, 7):
            full = toric(n, 1) ** n
            for i in range(1, n):
                s = BraidWord(n, (i,))
                assert equal(concat(full, s), concat(s, full))


@st.composite
def _words(draw, max_len=40):
    n = draw(st.integers(3, 12))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=max_len))))


# derandomized, so the examples and the run time are the same on every run
_PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)


class TestProperties:
    @_PROPERTY
    @given(_words(max_len=60))
    def test_agrees_with_fixpoint_reference(self, w):
        assert _normal_factors(w) == fixpoint_normal_factors(w)

    @_PROPERTY
    @given(_words())
    def test_times_inverse_is_trivial(self, w):
        assert is_trivial(concat(w, inverse(w)))

    @_PROPERTY
    @given(_words(), st.randoms(use_true_random=False))
    def test_invariant_under_rewrites(self, w, rng):
        assert normal_form(rewrite_equivalent(rng, w)) == normal_form(w)


class TestMemoBound:
    def test_pair_memo_is_capped(self, monkeypatch):
        cap = 400
        monkeypatch.setattr(garside, "RENORM_MEMO_CAP", cap)
        ctx = _ctx(64)
        memo = WatchedMemo()
        monkeypatch.setattr(ctx, "_renorm_memo", memo)
        rng = random.Random(21)
        for _ in range(100):
            w = random_word(rng, 64, 40)
            assert _normal_factors(w) == fixpoint_normal_factors(w)
            if memo.clears >= 2:
                break
        assert memo.clears >= 2 and memo.peak <= cap
        assert _ctx.cache_parameters()["maxsize"] == garside.CTX_CACHE_SIZE


def _inversions(x):
    return sum(1 for a in range(len(x)) for b in range(a + 1, len(x)) if x[a] > x[b])


def _permutations():
    """Every permutation at n=2-5, then random ones at n=6-12 (0-based)."""
    for n in range(2, 6):
        yield from itertools.permutations(range(n))
    rng = random.Random(22)
    for _ in range(200):
        x = list(range(rng.randint(6, 12)))
        rng.shuffle(x)
        yield tuple(x)


class TestPermBraidWord:
    def test_spells_x_by_smallest_prefix_letters(self):
        for x in _permutations():
            n = len(x)
            letters = perm_braid_word(x)
            assert all(0 < s < n for s in letters)
            assert len(letters) == _inversions(x)
            assert perm(BraidWord(n, tuple(letters))).image == tuple(v + 1 for v in x)
            # sigma_s is a prefix of what remains iff value s comes before s-1
            rest = list(x)
            for s in letters:
                prefixes = [t for t in range(1, n) if rest.index(t) < rest.index(t - 1)]
                assert s == min(prefixes), (x, letters)
                i, k = rest.index(s - 1), rest.index(s)
                rest[i], rest[k] = rest[k], rest[i]
            assert rest == sorted(rest)


class TestPerformance:
    def test_long_word_b8(self):
        rng = random.Random(18)
        w = random_word(rng, 8, 2000)
        start = time.perf_counter()
        normal_form(w)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"normal form took {elapsed:.2f}s"


# --------------------------------------------------------------------------
# second oracle: the reduced Burau representation is faithful on 3 strands,
# so matrix equality over Z[t, 1/t] must agree with the Garside verdict


def _lp(items):
    return {k: v for k, v in items.items() if v}


def _lp_mul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            out[a + b] = out.get(a + b, 0) + ca * cb
    return _lp(out)


def _lp_add(p, q):
    out = dict(p)
    for b, cb in q.items():
        out[b] = out.get(b, 0) + cb
    return _lp(out)


def _mat_mul(x, y):
    return tuple(
        tuple(
            _lp_add(_lp_mul(x[r][0], y[0][c]), _lp_mul(x[r][1], y[1][c]))
            for c in range(2)
        )
        for r in range(2)
    )


_BURAU = {
    1: (({1: -1}, {0: 1}), ({}, {0: 1})),
    -1: (({-1: -1}, {-1: 1}), ({}, {0: 1})),
    2: (({0: 1}, {}), ({1: 1}, {1: -1})),
    -2: (({0: 1}, {}), ({0: 1}, {-1: -1})),
}


def burau3(w):
    m = (({0: 1}, {}), ({}, {0: 1}))
    for x in w.letters:
        m = _mat_mul(m, _BURAU[x])
    return m


class TestBurauOracle:
    def test_representation_is_sound(self):
        # braid relation and inverses hold matrix-side before trusting it
        lhs = burau3(parse_word(3, "1 2 1"))
        rhs = burau3(parse_word(3, "2 1 2"))
        assert lhs == rhs
        ident = burau3(BraidWord(3))
        assert burau3(parse_word(3, "1 -1")) == ident
        assert burau3(parse_word(3, "2 -2")) == ident

    def test_agrees_with_garside_equality(self):
        rng = random.Random(19)
        for _ in range(400):
            u = random_word(rng, 3, rng.randint(0, 12))
            v = random_word(rng, 3, rng.randint(0, 12))
            assert equal(u, v) == (burau3(u) == burau3(v)), (u, v)
        for _ in range(60):
            u = random_word(rng, 3, rng.randint(0, 10))
            v = rewrite_equivalent(rng, u)
            assert burau3(u) == burau3(v)
