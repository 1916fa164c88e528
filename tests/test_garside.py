import itertools
import operator
import random
import time
import tracemalloc
from types import SimpleNamespace

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
from qtbraid import garside, presentations
from qtbraid.garside import _ctx, _normal_factors, gen_normal_factors, perm_braid_word
from qtbraid.presentations import presentation, verify
from qtbraid.words import STRAND_CACHE_SIZE

from helpers import GOLDENS, WatchedMemo, compose, random_word, rewrite_equivalent


def _bubble(a, b):
    """The bubble pair kernel: move prefix letters of b that are not suffix
    letters of a, one adjacent swap at a time.  None if nothing moves.

    A private copy, so the reference normalizer below shares no pair kernel
    with the library.
    """
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
            if pos[s + 1] < pos[s] and A[s] < A[s + 1]:
                A[s], A[s + 1] = A[s + 1], A[s]
                p1, p2 = pos[s], pos[s + 1]
                B[p1], B[p2] = B[p2], B[p1]
                pos[s], pos[s + 1] = p2, p1
                changed = moving = True
    return (tuple(A), tuple(B)) if changed else None


def renorm(a, b):
    """Left-weight the pair (a, b), moving prefix letters of b into a."""
    res = _bubble(a, b)
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
    fs = list(raw)
    changed = True
    while changed:
        changed = False
        fs = [f for f in fs if f != identity]
        for j in range(len(fs) - 1):
            a2, b2 = renorm(fs[j], fs[j + 1])
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
    for _ in range(6):  # wide enough for the meet route
        n = rng.randint(garside.MEET_MIN_STRANDS, 64)
        yield random_word(rng, n, rng.randint(30, 90))
    for _ in range(16):  # on both sides of the level order's threshold
        n = rng.randint(garside.LEVEL_MIN_STRANDS - 2, 40)
        yield random_word(rng, n, rng.randint(10, 100))
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
    yield from _run_inputs(rng)


def _delta(n):
    """Delta spelled positively."""
    return tuple(perm_braid_word(tuple(range(n - 1, -1, -1))))


def _negated(letters):
    """The letters of the inverse word."""
    return tuple(-x for x in reversed(letters))


def _shifted(w, n, offset):
    """w's letters moved up by offset, on n strands."""
    return BraidWord(n, tuple(x + offset if x > 0 else x - offset for x in w.letters))


def _run_inputs(rng):
    """Words whose same-sign runs end at Delta, at the simplicity limit, or
    inside relators; up to 64 strands, so the meet route is included."""
    for n in (3, 4, 5, 7, 10, 12, garside.MEET_MIN_STRANDS):
        delta = _delta(n)
        for block in (delta, _negated(delta)):
            yield BraidWord(n, block)
            yield BraidWord(n, block * 2)
            u, v = random_word(rng, n, 4), random_word(rng, n, 4)
            yield BraidWord(n, u.letters + block + v.letters)
        i = rng.randint(1, n - 1)
        for sign in (1, -1):
            yield BraidWord(n, (sign * i,) * 2)
            # runs of (sigma_1...sigma_{n-1})^k stop inside the second power
            yield BraidWord(n, tuple(sign * x for x in range(1, n)) * (n // 2 + 2))
    for n in (6, 7, 8):
        pentagons = presentations._pentagonal_relators(
            n, presentations._syllables(presentations._span_pairs(n), presentations._as_is)
        )
        for rel in rng.sample(pentagons, 3):
            yield expand(rel, n)
    for n in (7, 12, 24, 40, 64):
        for e in (1, -1):
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, min(n, i + 8))
            yield expand(((Atom.t(i, j), e),), n)
        yield _shifted(expand(rng.choice(pentagons), 7), n, rng.randint(0, n - 7))


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
            n = rng.randint(2, 6)
            w = random_word(rng, n, rng.randint(0, 25))
            nf, reduced = normal_form(w), free_reduce(w).letters
            assert normal_form(BraidWord(n, reduced)) == nf
            # the commuting cancellation deletes what free reduction does, and may delete more;
            # its result has one length whatever was deleted first
            out = garside._cancel_pairs(w.letters, n)
            assert normal_form(BraidWord(n, tuple(out))) == nf
            assert len(garside._cancel_pairs(reduced, n)) == len(out) <= len(reduced)

    def test_factors_are_valid(self):
        for w in _reference_inputs():
            identity = tuple(range(w.strands))
            inf, fs = _normal_factors(w)
            for f in fs:
                assert f != identity and f != identity[::-1]
            for j in range(len(fs) - 1):
                assert renorm(fs[j], fs[j + 1]) == (fs[j], fs[j + 1])

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

    def test_nf_word_spells_delta_only_when_present(self):
        import tracemalloc

        n = 5000  # Delta alone would be 12.5M letters
        tracemalloc.start()
        try:
            word = nf_word(normal_form(BraidWord(n, (2, 1))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert word.letters == (2, 1)
        assert peak < 4 << 20, f"peak allocation {peak} bytes"
        delta_inverse = (-1, -2, -3, -1, -2, -1)
        assert nf_word(normal_form(parse_word(4, "-1"))).letters == delta_inverse + (1, 2, 1, 3, 2)

    def test_format(self):
        assert str(normal_form(BraidWord(3))) == "D^0"
        assert str(normal_form(parse_word(3, "1 2 1"))) == "D^1"
        assert str(normal_form(parse_word(3, "1"))) == "D^0 | 2 1 3"

    def test_json_roundtrip(self):
        import json

        nf = normal_form(parse_word(4, "1 -2 3 1"))
        data = json.loads(nf.to_json())
        assert data["inf"] == nf.inf
        assert data["factors"] == [[v + 1 for v in f] for f in nf.factors]


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
def _words(draw, max_len=40, strands=st.integers(3, 12)):
    n = draw(strands)
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=max_len))))


@st.composite
def _blocks(draw, max_blocks=4):
    """Words of same-sign blocks: random letters, sigma_1...sigma_{n-1}, or Delta."""
    n = draw(st.integers(3, 9))
    block = st.one_of(
        st.lists(st.integers(1, n - 1), max_size=n),
        st.just(tuple(range(1, n))),
        st.just(_delta(n)),
    )
    letters = ()
    for b, sign in draw(st.lists(st.tuples(block, st.sampled_from((1, -1))), max_size=max_blocks)):
        letters += tuple(b) if sign > 0 else _negated(b)
    return BraidWord(n, letters)


# derandomized, so the examples and the run time are the same on every run
_PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)


class TestProperties:
    @_PROPERTY
    @given(st.one_of(_words(max_len=60), _blocks()))
    def test_agrees_with_fixpoint_reference(self, w):
        assert _normal_factors(w) == fixpoint_normal_factors(w)

    @_PROPERTY
    @given(st.one_of(_words(), _blocks()))
    def test_spelled_normal_form_is_fixed(self, w):
        # nf_word spells Delta^inf and each factor as whole runs
        nf = normal_form(w)
        assert normal_form(nf_word(nf)) == nf

    @_PROPERTY
    @given(_words(strands=st.integers(2, 12)), st.integers(0, 40))
    def test_perm_is_a_homomorphism(self, w, k):
        u, v = BraidWord(w.strands, w.letters[:k]), BraidWord(w.strands, w.letters[k:])
        assert perm(u * v).image == compose(perm(u).image, perm(v).image)
        # Delta^inf f_1 ... f_k maps to perm(Delta)^inf composed with the factors';
        # perm(Delta) is the reversal, which is its own inverse
        nf = normal_form(w)
        p = tuple(range(w.strands))
        for _ in range(abs(nf.inf)):
            p = compose(tuple(range(w.strands - 1, -1, -1)), p)
        for f in nf.factors:
            p = compose(p, f)
        assert p == perm(w).image

    @_PROPERTY
    @given(_words())
    def test_times_inverse_is_trivial(self, w):
        assert is_trivial(concat(w, inverse(w)))

    @_PROPERTY
    @given(_words(), st.randoms(use_true_random=False))
    def test_invariant_under_rewrites(self, w, rng):
        assert normal_form(rewrite_equivalent(rng, w)) == normal_form(w)


@st.composite
def _gen_words(draw):
    """(generator word over s/d/t/a atoms with exponents +-1..+-3, n) for n = 2..12."""
    n = draw(st.integers(2, 12))
    syllables = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from("sdta"))
        if kind == "s":
            atom = Atom.s(draw(st.integers(1, n - 1)))
        elif kind == "d":
            atom = Atom.d(draw(st.integers(0, n - 1)))
        else:
            i = draw(st.integers(1, n - 1))
            atom = getattr(Atom, kind)(i, draw(st.integers(i + 1, n)))
        syllables.append((atom, draw(st.integers(1, 3)) * draw(st.sampled_from((1, -1)))))
    return tuple(syllables), n


class TestGeneratorWords:
    @_PROPERTY
    @given(_gen_words())
    def test_agrees_with_expanded_letters(self, case):
        gw, n = case
        assert gen_normal_factors(gw, n) == _normal_factors(expand(gw, n))

    def test_huge_power_refused_before_any_work(self):
        rel = ((Atom.t(1, 4), 1_000_000_000),)
        p = SimpleNamespace(group="pb", strands=4, relators=(rel,))
        start = time.perf_counter()
        with pytest.raises(WordError, match="limit"):
            verify(p)
        assert time.perf_counter() - start < 1.0

    def test_out_of_range_atom_refused_and_not_stored(self):
        table = _ctx(4).syllables
        for atom in (Atom.s(4), Atom.d(4), Atom.t(1, 5), Atom.a(3, 5)):
            with pytest.raises(WordError, match="out of range"):
                gen_normal_factors(((Atom.s(1), 1), (atom, -1)), 4)
            assert all(a != atom for a, _ in table)
        with pytest.raises(WordError, match="strands"):
            gen_normal_factors((), 1)

    @pytest.mark.parametrize("group", ["pb", "qb"])
    def test_one_flipped_syllable_is_reported(self, group):
        # flipping a syllable moves the exponent sum, so the mutant is never trivial
        p = presentation(group, 5)
        for idx, rel in enumerate(p.relators):
            k = idx % len(rel)
            atom, e = rel[k]
            bad = rel[:k] + ((atom, -e),) + rel[k + 1 :]
            assert not is_trivial(expand(bad, 5))
            relators = p.relators[:idx] + (bad,) + p.relators[idx + 1 :]
            bad_p = SimpleNamespace(group=group, strands=5, relators=relators)
            assert verify(bad_p).failures == (idx,)


def _watched_context(monkeypatch, n, cap, firsts=None):
    """The n-strand context built under a budget of cap, with its two tables watched.

    watch.resets counts the emptyings with live factors.  Each sweep that follows
    a safe point (every sweep of the letter pass; those numbered in firsts for a
    generator word, whose syllable-form builds are not numbered) checks the
    stated bound: the registry holds at most cap factors besides those kept at
    the call's last emptying (none at its start).  Set watch.kept and
    watch.sweeps to 0 before each call.
    """
    monkeypatch.setattr(garside, "RENORM_MEMO_CELLS", cap * n)
    _ctx.cache_clear()  # the budget is fixed when a context is built
    ctx = _ctx(n)
    assert ctx.cap == ctx.flips.cap == cap
    ctx.pairs = WatchedMemo(None, cap)
    ctx.flips = WatchedMemo(ctx.flips.compute, cap)
    watch = SimpleNamespace(resets=0, kept=0, sweeps=0, nested=False)
    reset, sweep, build = ctx.reset, garside._sweep, ctx.syllables.compute

    def counted_reset(*live):
        out = reset(*live)
        watch.resets += bool(live[0])
        watch.kept = len(ctx.factors)
        return out

    def checked_sweep(c, fs, d):
        if watch.nested:
            return sweep(c, fs, d)
        if firsts is None or watch.sweeps in firsts:
            assert len(ctx.factors) <= watch.kept + cap, (len(ctx.factors), watch.kept)
        watch.sweeps += 1
        return sweep(c, fs, d)

    def nested_build(syllable):
        watch.nested = True
        try:
            return build(syllable)
        finally:
            watch.nested = False

    monkeypatch.setattr(ctx, "reset", counted_reset)
    monkeypatch.setattr(ctx.syllables, "compute", nested_build)
    monkeypatch.setattr(garside, "_sweep", checked_sweep)
    return ctx, watch


class TestMemoBound:
    """One budget, RENORM_MEMO_CELLS // n, bounds the factor registry, the pair
    memo and the flips table; the context is emptied in the middle of a word."""

    def test_pair_memo_is_capped(self, monkeypatch):
        cap, n = 30, 64
        rng = random.Random(21)
        words = [random_word(rng, n, 100) for _ in range(2)]
        want = [fixpoint_normal_factors(w) for w in words]
        try:
            ctx, watch = _watched_context(monkeypatch, n, cap)
            for w, expected in zip(words, want):
                watch.resets = watch.kept = watch.sweeps = 0
                assert _normal_factors(w) == expected
                assert watch.resets >= 2
            assert ctx.pairs.clears >= 2 and ctx.pairs.peak <= cap
        finally:
            _ctx.cache_clear()
        assert _ctx.cache_parameters()["maxsize"] == STRAND_CACHE_SIZE

    def test_flip_table_is_capped(self, monkeypatch):
        cap, n = 16, 6
        rng = random.Random(27)
        words = [random_word(rng, n, 200) for _ in range(10)]
        want = [fixpoint_normal_factors(w) for w in words]
        try:
            ctx, watch = _watched_context(monkeypatch, n, cap)
            for w, expected in zip(words, want):
                watch.resets = watch.kept = watch.sweeps = 0
                assert _normal_factors(w) == expected
                assert watch.resets >= 2
            flips = ctx.flips
            assert flips.clears >= 2 and flips.peak <= cap and ctx.pairs.peak <= cap
            factors = ctx.factors
            assert flips and all(factors[y] == tau(factors[x]) for x, y in flips.items())
        finally:
            _ctx.cache_clear()

    def test_generator_word_context_is_emptied_inside_a_power(self, monkeypatch):
        cap, n = 8, 7
        gw = ((Atom.t(1, 4), 37), (Atom.d(0), -5), (Atom.t(2, 7), -23), (Atom.s(2), 11))
        want = _normal_factors(expand(gw, n))
        # the first sweep of each syllable copy follows its safe point
        firsts, k = set(), 0
        for atom, e in gw:
            size = len(_normal_factors(expand(((atom, 1 if e > 0 else -1),), n))[1])
            for _ in range(abs(e)):
                firsts.add(k)
                k += size
        try:
            ctx, watch = _watched_context(monkeypatch, n, cap, firsts)
            assert gen_normal_factors(gw, n) == want
            assert watch.sweeps == k and watch.resets >= 2
            assert ctx.pairs.peak <= cap and ctx.flips.peak <= cap
        finally:
            _ctx.cache_clear()

    def test_cells_not_entries_are_bounded(self):
        # a registered array holds n ints, so the budget times n bounds the registry
        for n in (3, 10, 64, 1000):
            ctx = garside._Ctx(n)
            assert ctx.flips.cap == ctx.cap and ctx.cap * n <= garside.RENORM_MEMO_CELLS
        # no benchmark-sized memo is cleared: ~6.5k pair entries at n=10, ~1.6k at n=32-64
        assert garside._Ctx(10).cap >= 50_000
        assert garside._Ctx(64).cap >= 8_000


class TestRegistry:
    """Each distinct factor array is registered once, and the memos hold only its ids."""

    def test_each_array_is_registered_once(self):
        rng = random.Random(31)
        for n, count in ((6, 20), (40, 5)):
            for _ in range(count):
                w = random_word(rng, n, 200)
                inf, fs = _normal_factors(w)
                assert all(type(f) is tuple for f in fs)
                nf = normal_form(w)
                assert type(nf.factors) is tuple and all(type(f) is tuple for f in nf.factors)
            ctx = _ctx(n)
            factors, ids = ctx.factors, ctx.ids
            assert len(set(factors)) == len(factors) == len(ids) > 2
            assert all(ids[f] == i for i, f in enumerate(factors))
            mask = (1 << ctx.bits) - 1
            assert ctx.pairs and ctx.flips
            for key, value in ctx.pairs.items():
                assert key >> ctx.bits < len(factors) and key & mask < len(factors)
                if value != garside._LEFT_WEIGHTED:
                    assert value >> ctx.bits < len(factors) and value & mask < len(factors)
            assert all(x < len(factors) and y < len(factors) for x, y in ctx.flips.items())


def _same_sign_runs(letters):
    return sum(1 for k, x in enumerate(letters) if k == 0 or (x ^ letters[k - 1]) < 0)


class TestLevels:
    """The level order is a rearrangement of the same trace, and it saves sweeps."""

    @staticmethod
    def assert_same_trace(word, n):
        out = garside._by_levels(word, n)
        # letters of one index never commute, so the k-th one of each index
        # in out is the k-th one in word: that fixes each letter's position
        where = {}
        for p, x in enumerate(word):
            where.setdefault(abs(x), []).append(p)
        for ps in where.values():
            ps.reverse()
        pos = [where[abs(x)].pop() for x in out]
        assert sorted(pos) == list(range(len(word)))
        assert [word[p] for p in pos] == out
        for a in range(len(out)):
            for b in range(a + 1, len(out)):
                if abs(abs(out[a]) - abs(out[b])) <= 1:
                    assert pos[a] < pos[b], (word, out, a, b)

    def test_keeps_the_order_of_letters_that_do_not_commute(self):
        rng = random.Random(25)
        for k in range(80):
            n = 3 + k % 62
            self.assert_same_trace(random_word(rng, n, rng.randint(0, 120)).letters, n)

    def test_blocks_keep_the_trace_and_bound_memory(self, monkeypatch):
        # each block is ordered as a word of its own: the same trace, so the
        # same normal form, as the word ordered in one block
        rng = random.Random(27)
        w = random_word(rng, 16, 400)
        assert len(w.letters) <= garside.LEVEL_BLOCK
        want = _normal_factors(w)
        monkeypatch.setattr(garside, "LEVEL_BLOCK", 64)
        assert _normal_factors(w) == want
        for n in (3, 8, 40):
            self.assert_same_trace(random_word(rng, n, 200).letters, n)
        # the result holds 8 bytes a letter, and the keys of one block at a
        # time come on top: a word of 8 blocks stays under 24 bytes a letter
        monkeypatch.setattr(garside, "LEVEL_BLOCK", 1024)
        word = random_word(rng, 16, 8 * 1024).letters
        tracemalloc.start()
        try:
            out = garside._by_levels(word, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(out) == sorted(word)
        assert peak <= 24 * len(word), peak / len(word)

    def test_wide_word_sweeps_at_most_half_its_runs(self, monkeypatch):
        sweeps = 0
        sweep = garside._sweep

        def counted(*args):
            nonlocal sweeps
            sweeps += 1
            return sweep(*args)

        monkeypatch.setattr(garside, "_sweep", counted)
        w = random_word(random.Random(26), 64, 250)
        _normal_factors(w)
        assert 2 * sweeps <= _same_sign_runs(w.letters), (sweeps, _same_sign_runs(w.letters))


def cancel_reference(letters):
    """Delete a pair x ... -x whose in-between letters all commute with x, until none is left.

    A brute-force search from each letter in turn, sharing no code with the
    library's stack pass: letters commute iff their indices differ by 2 or more.
    """
    w = list(letters)
    a = 0
    while a < len(w):
        x = w[a]
        for b in range(a + 1, len(w)):
            if abs(abs(w[b]) - abs(x)) < 2:
                if w[b] == -x:
                    del w[b], w[a]
                    a = -1  # search again from the start
                break
        a += 1
    return w


def _commuting_swapped(letters):
    """letters with each commuting pair at positions (2k, 2k + 1) swapped."""
    out = list(letters)
    for k in range(0, len(out) - 1, 2):
        if abs(abs(out[k]) - abs(out[k + 1])) >= 2:
            out[k], out[k + 1] = out[k + 1], out[k]
    return tuple(out)


def _cancelling_word(rng, n, length):
    """A word over at most four neighbouring indices, often the first or the last
    ones (+-(n-1) included), so that many pairs cancel across commuting letters."""
    lo = rng.choice([1, max(1, n - 4), rng.randint(1, n - 1)])
    hi = min(n - 1, lo + 3)
    return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(lo, hi) for _ in range(length)))


def _cancel_inputs(rng):
    """At each n = 2-64: a random word, a word that cancels much, and a word times
    the inverse of its end with commuting letters swapped."""
    for n in range(2, 65):
        yield random_word(rng, n, rng.randint(0, 60))
        yield _cancelling_word(rng, n, rng.randint(1, 60))
        u = random_word(rng, n, rng.randint(1, 40)).letters
        yield BraidWord(n, u + _commuting_swapped(_negated(u[rng.randint(0, len(u)) :])))


class TestCancel:
    """The commuting cancellation deletes pairs as the brute-force search does,
    and leaves the braid, so the normal form, as it was."""

    def test_agrees_with_brute_force(self):
        rng = random.Random(34)
        for w in _cancel_inputs(rng):
            n, letters = w.strands, w.letters
            out = list(garside._cancel_pairs(letters, n))
            assert len(out) == len(cancel_reference(letters)), w
            rest = iter(letters)
            assert all(x in rest for x in out), w  # a subsequence of the word
            assert list(garside._cancel_pairs(out, n)) == out, w

    def test_normal_form_is_unchanged(self, monkeypatch):
        rng = random.Random(35)
        words = list(_cancel_inputs(rng))
        words += [random_word(rng, n, k) for n, k in ((4, 1500), (6, 2000), (16, 400), (64, 250))]
        want = [_normal_factors(w) for w in words]
        strands = set()  # the pass runs at every n from 3 on, with levels or without
        monkeypatch.setattr(garside, "_cancel_pairs", lambda word, n: strands.add(n) or word)
        assert [_normal_factors(w) for w in words] == want
        assert strands == set(range(3, 65))

    def test_words_of_one_sign_come_back_unchanged(self):
        rng = random.Random(36)
        for n in range(2, 65):
            letters = tuple(abs(x) for x in random_word(rng, n, 50).letters) + (n - 1,)
            for word in (letters, _negated(letters), ()):
                assert garside._cancel_pairs(word, n) is word
            # mixed signs, but no letter's inverse occurs: (1 -2)^k, alternating
            # signs over the indices, and a random sign fixed for each index
            sign = [0] + [rng.choice((1, -1)) for _ in range(1, n)]
            mixed = (
                (1, -2) * 300 if n >= 3 else (),
                tuple(i if i % 2 else -i for i in range(1, n)) * 8,
                tuple(sign[abs(x)] * abs(x) for x in letters),
            )
            for word in mixed:
                assert garside._cancel_pairs(word, n) is word

    def test_blocks_keep_the_normal_form_and_bound_memory(self, monkeypatch):
        rng = random.Random(37)
        words = [random_word(rng, 6, 600), random_word(rng, 16, 600), _cancelling_word(rng, 40, 600)]
        want = [_normal_factors(w) for w in words]
        monkeypatch.setattr(garside, "LEVEL_BLOCK", 5)
        assert [_normal_factors(w) for w in words] == want
        # the result holds 8 bytes a survivor, and the positions of one block at a
        # time come on top: a word of 8 blocks stays under 16 bytes a letter, where
        # one pass over the whole word took ~40
        monkeypatch.setattr(garside, "LEVEL_BLOCK", 1024)
        word = random_word(rng, 16, 8 * 1024).letters
        tracemalloc.start()
        try:
            out = garside._cancel_pairs(word, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) < len(word)
        assert peak <= 16 * len(word), peak / len(word)


def _short(rng, n, swaps, base):
    """base times a few random adjacent swaps, as a 0-based factor array."""
    x = list(base)
    for _ in range(swaps):
        i = rng.randrange(n - 1)
        x[i], x[i + 1] = x[i + 1], x[i]
    return tuple(x)


def _descents(x):
    return sum(map(operator.gt, x, x[1:]))


def _random_perm(rng, n):
    x = list(range(n))
    rng.shuffle(x)
    return tuple(x)


def _sweep_pairs(monkeypatch, words):
    """Every pair the backward sweeps over the words hand to the pair kernel."""
    seen = []
    kernel = garside._left_weight

    def record(pair):
        seen.append(pair)
        return kernel(pair)

    with monkeypatch.context() as patch:
        patch.setattr(garside, "_left_weight", record)
        for w in words:
            _normal_factors(w)
    return seen


def _needs_back_step(a, b):
    """True if one forward pass of swaps does not left-weight (a, b).

    Then the library's scan must step back after some swap to finish.
    """
    n = len(a)
    A, pos = list(a), [0] * n
    for q, v in enumerate(b):
        pos[v] = q
    for s in range(n - 1):
        if pos[s + 1] < pos[s] and A[s] < A[s + 1]:
            A[s], A[s + 1] = A[s + 1], A[s]
            pos[s], pos[s + 1] = pos[s + 1], pos[s]
    return any(pos[s + 1] < pos[s] and A[s] < A[s + 1] for s in range(n - 1))


class TestPairKernel:
    """The library's kernels, the meet and the resumed scan, left-weight every
    pair exactly as the private multi-pass bubble does."""

    def test_every_pair_up_to_five_strands(self):
        count = 0
        for n in range(2, 6):
            perms = list(itertools.permutations(range(n)))
            for a in perms:
                for b in perms:
                    want = _bubble(a, b)
                    assert garside._meet(a, b) == want, (a, b)
                    assert garside._bubble(a, b) == want, (a, b)
                    count += 1
        assert count == 15_016

    def test_resumed_scan_on_pairs_from_sweeps(self, monkeypatch):
        rng = random.Random(25)
        count = 0
        for n in range(3, 65):
            _ctx(n).pairs.clear()
            words = [random_word(rng, n, 60) for _ in range(2)]
            for a, b in _sweep_pairs(monkeypatch, words):
                assert garside._bubble(a, b) == _bubble(a, b), (a, b)
                count += 1
        assert count > 2_000

    def test_resumed_scan_on_pairs_that_need_a_back_step(self):
        rng = random.Random(26)
        pairs = []
        for n in range(3, 65):
            identity, w0 = tuple(range(n)), tuple(range(n - 1, -1, -1))
            pairs.append((identity, w0))  # every swap at s > 0 enables one at s - 1
            for _ in range(20):
                swaps = rng.randint(1, n)
                pairs.append((_short(rng, n, swaps, identity), _short(rng, n, swaps, w0)))
                pairs.append((_random_perm(rng, n), _random_perm(rng, n)))
        pairs = [pair for pair in pairs if _needs_back_step(*pair)]
        assert len(pairs) > 1_000
        for a, b in pairs:
            assert garside._bubble(a, b) == _bubble(a, b), (a, b)
        n = 9
        assert garside._bubble(tuple(range(n)), tuple(range(n - 1, -1, -1))) == (
            tuple(range(n - 1, -1, -1)),
            tuple(range(n)),
        )

    def test_random_wide_pairs(self):
        rng = random.Random(23)
        for k in range(2400):
            n = rng.randint(16, 64)
            identity, w0 = tuple(range(n)), tuple(range(n - 1, -1, -1))
            shape = k % 4
            swaps = rng.randint(1, 8)
            if shape == 0:  # a few adjacent swaps against Delta sigma_i^{-1}
                a, b = _short(rng, n, swaps, identity), _short(rng, n, 1, w0)
            elif shape == 1:  # short against near-Delta
                a, b = _short(rng, n, swaps, identity), _short(rng, n, swaps, w0)
            elif shape == 2:  # near-Delta against short
                a, b = _short(rng, n, swaps, w0), _short(rng, n, swaps, identity)
            else:
                a, b = _random_perm(rng, n), _random_perm(rng, n)
            assert garside._meet(a, b) == _bubble(a, b), (a, b)

    def test_pairs_from_wide_sweeps(self, monkeypatch):
        rng = random.Random(24)
        routed = 0
        for n in (garside.MEET_MIN_STRANDS, 32, 64):
            ctx = _ctx(n)
            ctx.reset()  # far below the budget, so no id changes during the words
            ids, bits = ctx.ids, ctx.bits
            # long enough that the pairs left after the commuting cancellation reach the meet
            words = [random_word(rng, n, 150) for _ in range(2)]
            for a, b in _sweep_pairs(monkeypatch, words):
                want = _bubble(a, b)
                assert garside._meet(a, b) == want, (a, b)
                # the memo holds the pair's ids packed in one int, and so its result
                packed = ids[want[0]] << bits | ids[want[1]] if want else garside._LEFT_WEIGHTED
                assert ctx.pairs[ids[a] << bits | ids[b]] == packed
                routed += 2 * _descents(b) > n and 2 * _descents(a) < _descents(b)
        assert routed > 100  # the gate sends wide sweeps to the meet


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
            assert perm(BraidWord(n, tuple(letters))).image == x
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
