import inspect
import random
import sys
from functools import lru_cache

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
    inverse,
    toric,
)
from qtbraid import genset
from qtbraid.genset import (
    VARIANTS,
    GensetTarget,
    decompose,
    rewrite_to_thm41,
    rewrite_to_thm42,
    short_twist_bound,
)
from qtbraid.purebraid import t_decompose
from qtbraid.quasitoric import QuasitoricForm, factor, qt_to_word
from qtbraid.words import STRAND_CACHE_SIZE, gen_concat, gen_inverse, gen_pow

from helpers import random_qt_word

# ---------------------------------------------------------------------------
# Reference rewriters: a private copy of the step-by-step expansion, which
# free-reduces after every atom and builds each twist's image anew.  The
# library rewrites from cached twist tables and reduces once; both must give
# the same tuple, since free reduction of a homomorphic image is canonical.


def _ref_d0(e):
    return ((Atom.d(0), e),)


def _ref_conj_d0(k, inner):
    return inner if k == 0 else gen_concat(_ref_d0(k), inner, _ref_d0(-k))


def _ref_short_twist_words(n):
    N = short_twist_bound(n)
    words = {j: ((Atom.t(1, j), 1),) for j in range(2, N + 1)}
    words[n] = _ref_d0(n)

    def shifted(i, j):
        return () if i >= j else _ref_conj_d0(i - 1, words[j - i + 1])

    if n - 1 > N:
        words[n - 1] = gen_concat(
            words[N - 1], shifted(N, n - 1), _ref_d0(n), _ref_d0(-1),
            gen_inverse(words[N]), _ref_d0(1), gen_inverse(shifted(N, n)),
        )
    for j in range(n - 2, N, -1):
        words[j] = gen_concat(
            words[n - 1], shifted(j + 1, n), _ref_d0(-1), words[j + 1],
            _ref_d0(1), _ref_d0(-n), gen_inverse(shifted(j + 1, n - 1)),
        )
    return words


def _ref_thm41(gw, n):
    words = _ref_short_twist_words(n)
    parts = []
    for atom, e in gw:
        if atom == Atom.d(0):
            parts.append(_ref_d0(e))
        else:
            i, j = atom.i, atom.j
            base = words[j] if i == 1 else _ref_conj_d0(i - 1, words[j - i + 1])
            parts.append(gen_pow(base, e))
    return gen_concat(*parts)


def _ref_thm42(gw, n):
    N = short_twist_bound(n)
    inverses = {n - 1: ((Atom.d(0), -1), (Atom.d(1), 1))}
    for i in range(n - 2, n - N, -1):
        inverses[i] = gen_concat(
            ((Atom.d(0), -1), (Atom.d(n - i), 1), (Atom.d(0), -1)), inverses[i + 1], _ref_d0(1)
        )
    parts = []
    for atom, e in gw:
        if atom == Atom.d(0):
            parts.append(_ref_d0(e))
        else:
            base = _ref_conj_d0(-(n - atom.j), gen_inverse(inverses[n - atom.j + 1]))
            parts.append(gen_pow(base, e))
    return gen_concat(*parts)


def _ref_decompose(w, variant):
    k, p = factor(w)
    out = _ref_thm41(gen_concat(_ref_d0(k) if k else (), t_decompose(p)), w.strands)
    return _ref_thm42(out, w.strands) if variant == "thm42" else out


def atom_word(atom, n):
    return expand(((atom, 1),), n)


class TestTargets:
    def test_alphabet_sizes(self):
        for n in range(3, 10):
            want = (n + 1) // 2 if n % 2 else (n + 2) // 2
            assert short_twist_bound(n) == want
            for variant in ("thm41", "thm42"):
                assert len(GensetTarget(variant, n).alphabet) == want

    def test_alphabets(self):
        assert GensetTarget("thm41", 5).alphabet == (
            Atom.d(0),
            Atom.t(1, 2),
            Atom.t(1, 3),
        )
        assert GensetTarget("thm42", 6).alphabet == tuple(Atom.d(k) for k in range(4))

    def test_rejects(self):
        with pytest.raises(WordError):
            GensetTarget("thm43", 5)
        with pytest.raises(WordError):
            GensetTarget("thm41", 2)


class TestRewriteThm41:
    def test_shift_case(self):
        # t(2,3) in B_5 conjugates down to the short twist t(1,2)
        out = rewrite_to_thm41(((Atom.t(2, 3), 1),), 5)
        assert out == ((Atom.d(0), 1), (Atom.t(1, 2), 1), (Atom.d(0), -1))

    def test_t1n_is_d0_power(self):
        for n in range(3, 8):
            assert rewrite_to_thm41(((Atom.t(1, n), 1),), n) == ((Atom.d(0), n),)

    def test_every_generator_sound(self):
        for n in range(3, 7):
            target = GensetTarget("thm41", n)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    out = rewrite_to_thm41(((Atom.t(i, j), 1),), n)
                    assert target.admits(out), (n, i, j)
                    assert equal(expand(out, n), atom_word(Atom.t(i, j), n)), (n, i, j)

    def test_inverse_exponents(self):
        n = 5
        out_pos = rewrite_to_thm41(((Atom.t(1, 4), 1),), n)
        out_neg = rewrite_to_thm41(((Atom.t(1, 4), -1),), n)
        assert equal(
            expand(out_neg, n), inverse(expand(out_pos, n))
        )

    def test_foreign_atom_rejected(self):
        with pytest.raises(WordError):
            rewrite_to_thm41(((Atom.a(1, 3), 1),), 4)
        with pytest.raises(WordError):
            rewrite_to_thm41(((Atom.d(1), 1),), 4)


class TestRewriteThm42:
    def test_adjacent_twist_inverse(self):
        # t(n-1,n)^{-1} = d0^{-1} d1, so t(1,2) conjugates to d-atoms
        n = 3
        out = rewrite_to_thm42(((Atom.t(1, 2), 1),), n)
        assert equal(expand(out, n), atom_word(Atom.t(1, 2), n))
        assert GensetTarget("thm42", n).admits(out)

    def test_d0_passthrough(self):
        assert rewrite_to_thm42(((Atom.d(0), 4),), 5) == ((Atom.d(0), 4),)

    def test_short_twists_sound(self):
        for n in range(3, 7):
            target = GensetTarget("thm42", n)
            N = short_twist_bound(n)
            for j in range(2, N + 1):
                out = rewrite_to_thm42(((Atom.t(1, j), 1),), n)
                assert target.admits(out), (n, j)
                assert equal(expand(out, n), atom_word(Atom.t(1, j), n)), (n, j)

    def test_foreign_atom_rejected(self):
        n = 7
        with pytest.raises(WordError):
            rewrite_to_thm42(((Atom.t(1, short_twist_bound(n) + 1), 1),), n)
        with pytest.raises(WordError):
            rewrite_to_thm42(((Atom.t(2, 3), 1),), n)


class TestDecompose:
    def test_delta0(self):
        for variant in ("thm41", "thm42"):
            out = decompose(toric(5, 1), GensetTarget(variant, 5))
            assert out == ((Atom.d(0), 1),)

    def test_full_twist_word(self):
        out = decompose(atom_word(Atom.t(1, 4), 4), GensetTarget("thm41", 4))
        assert out == ((Atom.d(0), 4),)

    def test_random_forms_roundtrip(self):
        rng = random.Random(60)
        for _ in range(40):
            n = rng.randint(3, 6)
            w = random_qt_word(rng, n)
            for variant in ("thm41", "thm42"):
                target = GensetTarget(variant, n)
                out = decompose(w, target)
                assert target.admits(out)
                assert equal(expand(out, n), w), (variant, n, w)

    def test_rejects_non_member(self):
        with pytest.raises(WordError):
            decompose(BraidWord(4, (2,)), GensetTarget("thm41", 4))

    def test_rejects_strand_mismatch(self):
        with pytest.raises(WordError):
            decompose(toric(4, 1), GensetTarget("thm41", 5))

    def test_alphabet_postcondition_raises(self, monkeypatch):
        monkeypatch.setattr(GensetTarget, "admits", lambda self, gw: False)
        with pytest.raises(AssertionError, match="alphabet"):
            decompose(toric(5, 1), GensetTarget("thm41", 5))


class TestProofIdentities:
    def test_index_shift_conjugation(self):
        # d0^{-1} t(i,j) d0 == t(i-1,j-1) for 2 <= i < j <= n
        for n in range(3, 8):
            d0 = toric(n, 1)
            for i in range(2, n):
                for j in range(i + 1, n + 1):
                    lhs = concat(concat(inverse(d0), atom_word(Atom.t(i, j), n)), d0)
                    assert equal(lhs, atom_word(Atom.t(i - 1, j - 1), n)), (n, i, j)

    def test_four_hole_family_around_delta0(self):
        # t(1,i) t(2,n) d0 t(i,n) d0^{-1} == t(2,i) t(i+1,n) t(1,n), 2 <= i <= n-1
        for n in range(3, 8):
            for i in range(2, n):
                lhs = gen_concat(
                    ((Atom.t(1, i), 1),),
                    ((Atom.t(2, n), 1),),
                    ((Atom.d(0), 1), (Atom.t(i, n), 1), (Atom.d(0), -1)),
                )
                rhs = gen_concat(
                    ((Atom.t(2, i), 1),) if 2 < i else (),
                    ((Atom.t(i + 1, n), 1),) if i + 1 < n else (),
                    ((Atom.t(1, n), 1),),
                )
                assert equal(expand(lhs, n), expand(rhs, n)), (n, i)

    def test_four_hole_family_short_spans(self):
        # t(1,n-1) t(j+1,n) d0^{-1} t(1,j+1) d0 == t(1,j) t(j+1,n-1) t(1,n), 2 <= j <= n-2
        for n in range(4, 8):
            for j in range(2, n - 1):
                lhs = gen_concat(
                    ((Atom.t(1, n - 1), 1),),
                    ((Atom.t(j + 1, n), 1),),
                    ((Atom.d(0), -1), (Atom.t(1, j + 1), 1), (Atom.d(0), 1)),
                )
                rhs = gen_concat(
                    ((Atom.t(1, j), 1),),
                    ((Atom.t(j + 1, n - 1), 1),) if j + 1 < n - 1 else (),
                    ((Atom.t(1, n), 1),),
                )
                assert equal(expand(lhs, n), expand(rhs, n)), (n, j)

    def test_delta_double_descent(self):
        # sigma_{n-1}^{-1} ... sigma_i^{-1} sigma_i^{-1} ... sigma_{n-1}^{-1} == d0^{-1} d<n-i>
        for n in range(3, 8):
            for i in range(1, n):
                down = tuple(range(n - 1, i - 1, -1))
                up = tuple(range(i, n))
                lhs = BraidWord(n, tuple(-x for x in down) + tuple(-x for x in up))
                rhs = expand(((Atom.d(0), -1), (Atom.d(n - i), 1)), n)
                assert equal(lhs, rhs), (n, i)

    def test_long_twist_inverse_recursion(self):
        # t(i,n)^{-1} == (d0^{-1} d<n-i>) d0^{-1} t(i+1,n)^{-1} d0, 1 <= i <= n-1
        for n in range(3, 8):
            for i in range(1, n):
                tail = ((Atom.t(i + 1, n), -1),) if i + 1 < n else ()
                rhs = gen_concat(
                    ((Atom.d(0), -1), (Atom.d(n - i), 1), (Atom.d(0), -1)),
                    tail,
                    ((Atom.d(0), 1),),
                )
                assert equal(
                    expand(((Atom.t(i, n), -1),), n), expand(rhs, n)
                ), (n, i)


# derandomized, so the examples and the run time are the same on every run
_PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def _forms(draw):
    n = draw(st.integers(3, 13))
    sign = st.sampled_from((1, -1))
    rows = draw(st.lists(st.tuples(*[sign] * (n - 1)), max_size=8))
    return QuasitoricForm(n, tuple(rows))


class TestAgainstReference:
    @_PROPERTY
    @given(_forms())
    def test_random_forms(self, form):
        w = qt_to_word(form)
        for variant in VARIANTS:
            assert decompose(w, GensetTarget(variant, w.strands)) == _ref_decompose(w, variant)

    def test_every_twist_power(self):
        for n in range(3, 17):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    for e in (1, -1, 2, -2):
                        gw = ((Atom.t(i, j), e),)
                        thm41 = rewrite_to_thm41(gw, n)
                        assert thm41 == _ref_thm41(gw, n), (n, i, j, e)
                        assert rewrite_to_thm42(thm41, n) == _ref_thm42(thm41, n), (n, i, j, e)


class TestTwistTables:
    def test_bounded_by_strand_counts(self):
        genset._twist_tables.cache_clear()
        for n in range(3, 3 + STRAND_CACHE_SIZE + 4):
            decompose(atom_word(Atom.t(1, n - 1), n), GensetTarget("thm42", n))
        assert genset._twist_tables.cache_info().currsize == STRAND_CACHE_SIZE

    def test_warmup_fills_nothing(self):
        genset._twist_tables.cache_clear()
        for n in range(5, 14):
            for variant in VARIANTS:
                assert decompose(toric(n, 1), GensetTarget(variant, n)) == ((Atom.d(0), 1),)
            assert all(not table for table in genset._twist_tables(n).values())

    def test_long_chain_without_deep_recursion(self):
        # t(1,j) leans on t(1,j+1) down a chain of ~n/2 entries; building
        # t(1,N+1) first must not nest one call per link
        n = 301
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            genset._twist_tables.cache_clear()
            out = rewrite_to_thm41(((Atom.t(1, short_twist_bound(n) + 1), 1),), n)
        finally:
            sys.setrecursionlimit(limit)
        assert out == _ref_thm41(((Atom.t(1, short_twist_bound(n) + 1), 1),), n)

    def test_cache_of_one_keeps_output(self, monkeypatch):
        rng = random.Random(81)
        cases = [(n, random_qt_word(rng, n, max_rows=4)) for n in (7, 9) * 4]
        want = [decompose(w, GensetTarget("thm42", n)) for n, w in cases]
        monkeypatch.setattr(
            genset, "_twist_tables", lru_cache(maxsize=1)(genset._twist_tables.__wrapped__)
        )
        # n alternates, so every call rebuilds its strand count's tables
        assert [decompose(w, GensetTarget("thm42", n)) for n, w in cases] == want
        assert genset._twist_tables.cache_info().misses == len(cases)
