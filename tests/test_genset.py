import random

import pytest

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
from qtbraid.genset import (
    GensetTarget,
    decompose,
    rewrite_to_thm41,
    rewrite_to_thm42,
    short_twist_bound,
)
from qtbraid.words import gen_concat

from helpers import random_qt_word


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
