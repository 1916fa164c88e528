import itertools
import random

import pytest

from qtbraid import (
    Atom,
    BraidWord,
    WordError,
    concat,
    equal,
    expand,
    format_generator_word,
    inverse,
    parse_word,
    toric,
)
from qtbraid import genset, purebraid
from qtbraid.genset import GensetTarget, decompose
from qtbraid.garside import perm_braid_word
from qtbraid.purebraid import a_to_t, comb, linking, t_decompose
from qtbraid.quasitoric import factor
from qtbraid.words import gen_concat, gen_reduce

from helpers import (
    GOLDENS,
    WatchedMemo,
    gen_pow,
    random_pure_word,
    random_qt_word,
    random_word,
    rewrite_equivalent,
)


def atom_word(atom, n):
    return expand(((atom, 1),), n)


def _conj_atom(q, r, s):
    """sigma_q a(r,s) sigma_q^{-1} as an a-atom word, by the conjugation rules

        a(r,s)                          q+1 < r, q > s, r < q < s-1, or (q,q+1) == (r,s)
        a(q,r) a(q,s) a(q,r)^{-1}       q+1 == r
        a(r+1,s)                        q == r < s-1
        a(r,s)^{-1} a(r,s-1) a(r,s)     q == s-1 > r
        a(r,s+1)                        q == s

    which comb once applied one letter of a permutation lift at a time, and
    which now certify its closed-form loop words (_ref_loop_word)."""
    if q + 1 < r or q > s or r < q < s - 1 or (q == r and s == q + 1):
        return ((Atom.a(r, s), 1),)
    if q + 1 == r:
        return ((Atom.a(q, r), 1), (Atom.a(q, s), 1), (Atom.a(q, r), -1))
    if q == r:
        return ((Atom.a(r + 1, s), 1),)
    if q == s - 1:
        return ((Atom.a(r, s), -1), (Atom.a(r, s - 1), 1), (Atom.a(r, s), 1))
    if q == s:
        return ((Atom.a(r, s + 1), 1),)
    raise AssertionError(f"unhandled conjugation case q={q} r={r} s={s}")


class TestLinking:
    def test_sigma1_squared(self):
        lk = linking(BraidWord(3, (1, 1)))
        assert lk.lk(1, 2) == 1 and lk.lk(1, 3) == 0 and lk.lk(2, 3) == 0

    def test_lk_checks_range_first(self):
        lk = linking(BraidWord(3, (1, 1)))
        assert lk.lk(2, 1) == 1 and lk.lk(3, 3) == 0
        for i, j in ((7, 7), (0, 2), (0, 0), (2, 4)):
            with pytest.raises(WordError):
                lk.lk(i, j)

    def test_full_twist_indicator(self):
        for n in range(2, 8):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    lk = linking(atom_word(Atom.t(i, j), n))
                    for k in range(1, n):
                        for l in range(k + 1, n + 1):
                            assert lk.lk(k, l) == (1 if i <= k < l <= j else 0)

    def test_inverse_cancels(self):
        rng = random.Random(40)
        for _ in range(40):
            n = rng.randint(2, 6)
            p = random_pure_word(rng, n)
            total = linking(concat(p, inverse(p)))
            assert all(
                total.lk(k, l) == 0
                for k in range(1, n)
                for l in range(k + 1, n + 1)
            )

    def test_additive(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(2, 5)
            p = random_pure_word(rng, n)
            q = random_pure_word(rng, n)
            assert linking(concat(p, q)) == linking(p) + linking(q)

    def test_invariant_under_equality(self):
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(2, 5)
            p = random_pure_word(rng, n)
            q = rewrite_equivalent(rng, p)
            assert linking(p) == linking(q)

    def test_rejects_non_pure(self):
        with pytest.raises(WordError):
            linking(BraidWord(3, (1,)))

    def test_parity_postcondition_raises(self, monkeypatch):
        monkeypatch.setattr(purebraid, "is_pure", lambda w: True)
        with pytest.raises(AssertionError, match="odd crossing count"):
            linking(BraidWord(3, (1,)))

    def test_format(self):
        lk = linking(BraidWord(3, (1, 1)))
        assert str(lk) == "1 0\n0"

    def test_sum_across_strand_counts_refused(self):
        with pytest.raises(WordError, match="strand mismatch"):
            linking(BraidWord(3, (1, 1))) + linking(BraidWord(4, (1, 1)))


class TestConjugationRules:
    def test_table_against_oracle(self):
        # every sigma_q a(r,s) sigma_q^{-1} rule, n <= 7
        for n in range(3, 8):
            for q in range(1, n):
                for r in range(1, n):
                    for s in range(r + 1, n + 1):
                        target = concat(
                            concat(BraidWord(n, (q,)), atom_word(Atom.a(r, s), n)),
                            BraidWord(n, (-q,)),
                        )
                        assert equal(target, expand(_conj_atom(q, r, s), n)), (n, q, r, s)


class TestComb:
    def test_generator_stays(self):
        assert comb(BraidWord(3, (1, 1))) == ((Atom.a(1, 2), 1),)

    def test_a_atom_roundtrip(self):
        for n in range(3, 6):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    w = atom_word(Atom.a(i, j), n)
                    assert equal(expand(comb(w), n), w)

    def test_conjugated_generator(self):
        d0 = toric(3, 1)
        w = concat(concat(inverse(d0), BraidWord(3, (1, 1))), d0)
        assert equal(expand(comb(w), 3), w)

    def test_random_roundtrip(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(2, 5)
            p = random_pure_word(rng, n)
            assert equal(expand(comb(p), n), p)

    def test_empty(self):
        assert comb(BraidWord(4)) == ()

    def test_rejects_non_pure(self):
        with pytest.raises(WordError):
            comb(BraidWord(4, (2,)))

    @pytest.mark.parametrize("case", GOLDENS["comb"], ids=lambda c: f"n{c['n']}")
    def test_golden(self, case):
        gw = comb(parse_word(case["n"], case["word"]))
        assert format_generator_word(gw) + "\n" == case["out"]


class TestCombMemoBound:
    def test_loop_memo_is_capped(self, monkeypatch):
        # one memo across strand counts: its keys carry n as the length of pi
        rng = random.Random(45)
        words = []
        for n in range(3, 9):
            for _ in range(8):
                u = random_word(rng, n, 12)
                back = BraidWord(n, tuple(abs(x) for x in reversed(u.letters)))
                words.append(concat(u, back))  # pure: sigma and its inverse agree on perm
        expected = [comb(w) for w in words]
        assert purebraid._LOOPS.cap == purebraid.COMB_MEMO_CAP
        cap = 30
        memo = WatchedMemo(purebraid._loop_word, cap)
        monkeypatch.setattr(purebraid, "_LOOPS", memo)
        assert [comb(w) for w in words] == expected
        assert memo.clears >= 2 and memo.peak <= cap


class TestAToT:
    def test_adjacent(self):
        assert a_to_t(5, 3, 4) == ((Atom.t(3, 4), 1),)

    def test_1_3_in_b3(self):
        assert a_to_t(3, 1, 3) == (
            (Atom.t(1, 2), -1),
            (Atom.t(1, 3), 1),
            (Atom.t(2, 3), -1),
        )

    def test_2_4_in_b4(self):
        assert a_to_t(4, 2, 4) == (
            (Atom.t(2, 3), -1),
            (Atom.t(2, 4), 1),
            (Atom.t(3, 4), -1),
        )

    def test_identity_against_oracle(self):
        for n in range(3, 8):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    assert equal(
                        expand(a_to_t(n, i, j), n), atom_word(Atom.a(i, j), n)
                    ), (n, i, j)

    def test_abelianized_change_of_basis(self):
        # the inclusion-exclusion identity at the linking-matrix level
        for n in range(3, 7):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    assert linking(expand(a_to_t(n, i, j), n)) == linking(
                        atom_word(Atom.a(i, j), n)
                    )

    def test_out_of_range(self):
        with pytest.raises(WordError):
            a_to_t(4, 2, 5)

    def test_already_reduced(self):
        # no two adjacent twists of the change of basis share a span, so
        # free reduction leaves every a_to_t word as it is
        for n in range(2, 13):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    word = a_to_t(n, i, j)
                    assert gen_reduce(word) == word, (n, i, j)


class TestTDecompose:
    def test_full_twist_roundtrip(self):
        w = atom_word(Atom.t(2, 5), 5)
        assert equal(expand(t_decompose(w), 5), w)

    def test_empty(self):
        assert t_decompose(BraidWord(3)) == ()

    def test_random_roundtrip(self):
        rng = random.Random(44)
        for _ in range(50):
            n = rng.randint(2, 5)
            p = random_pure_word(rng, n)
            gw = t_decompose(p)
            assert all(atom.kind == "t" for atom, _ in gw)
            assert equal(expand(gw, n), p)

    def test_rejects_non_pure(self):
        with pytest.raises(WordError):
            t_decompose(BraidWord(3, (2,)))


# Reference copies of the step-by-step substitutions: every atom's image is
# raised to its exponent and free-reduced on its own, then reduced again as
# the pieces are joined, where the library reduces the whole word once.


def _ref_t_decompose(w):
    n = w.strands
    return gen_concat(*(gen_pow(a_to_t(n, atom.i, atom.j), e) for atom, e in comb(w)))


def _ref_loop_word(pi, p, sign):
    """The loop word of (pi, p, sign) by the conjugation rules, conjugating the
    double crossing by the letters of lift(pi) from the last to the first."""
    result = ((Atom.a(p, p + 1), sign),)
    for q in reversed(perm_braid_word(pi)):
        result = gen_concat(*(gen_pow(_conj_atom(q, atom.i, atom.j), e) for atom, e in result))
    return result


def _every_key(n):
    for pi in itertools.permutations(range(n)):
        for p in range(1, n):
            for sign in (1, -1):
                yield pi, p, sign


class TestOnePassMatchesReference:
    def test_t_decompose_on_quasitoric_pure_parts(self):
        rng = random.Random(4610)
        for _ in range(60):
            n = rng.randint(3, 13)
            _, p = factor(random_qt_word(rng, n, max_rows=4))
            assert t_decompose(p) == _ref_t_decompose(p), p

    def test_t_decompose_on_random_pure_words(self):
        rng = random.Random(4611)
        for _ in range(100):
            p = random_pure_word(rng, rng.randint(2, 7), max_len=14)
            assert t_decompose(p) == _ref_t_decompose(p), p

    def test_loop_words_at_small_n(self):
        # every key at n <= 6, against the conjugation rules
        for n in range(2, 7):
            for key in _every_key(n):
                assert purebraid._loop_word(key) == _ref_loop_word(*key), key

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_loop_words_at_random_keys(self, n):
        rng = random.Random(2700 + n)
        for _ in range(960 // n):  # the reference conjugates by up to C(n,2) letters
            pi = tuple(rng.sample(range(n), n))
            key = (pi, rng.randint(1, n - 1), rng.choice((1, -1)))
            assert purebraid._loop_word(key) == _ref_loop_word(*key), key

    def test_loop_words_against_the_oracle(self):
        # every key at n <= 5 expands to lift(pi) sigma_p^(2 sign) lift(pi)^{-1}
        for n in range(2, 6):
            for pi, p, sign in _every_key(n):
                lift = BraidWord(n, tuple(perm_braid_word(pi)))
                loop = concat(concat(lift, BraidWord(n, (p * sign,) * 2)), inverse(lift))
                assert equal(expand(purebraid._loop_word((pi, p, sign)), n), loop), (pi, p, sign)

    def test_decompose_combs_through_its_module_global(self, monkeypatch):
        calls = []

        def counted(w):
            calls.append(w)
            return comb(w)

        monkeypatch.setattr(genset, "comb", counted)
        w = expand(((Atom.t(1, 5), 1), (Atom.d(0), 2)), 5)
        decompose(w, GensetTarget("thm42", 5))
        assert len(calls) == 1
