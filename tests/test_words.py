import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtbraid import (
    Atom,
    BraidWord,
    Permutation,
    WordError,
    closure_components,
    concat,
    delta_word,
    expand,
    exponent_sum,
    format_generator_word,
    format_word,
    free_reduce,
    gen_inverse,
    gen_reduce,
    inverse,
    parse_generator_word,
    parse_word,
    perm,
    toric,
)
from qtbraid import words
from qtbraid.purebraid import linking
from qtbraid.words import ImageTable, Table

from helpers import (
    WatchedMemo,
    central_reduce,
    compose,
    random_word,
    stack_reduce,
    substitute_then_reduce,
)


def sig(n, *letters):
    return BraidWord(n, tuple(letters))


class TestConcat:
    def test_identity_element(self):
        u = sig(3, 1)
        assert concat(u, BraidWord(3)).letters == (1,)
        assert concat(BraidWord(3), u).letters == (1,)

    def test_inverse_pair_reduces(self):
        w = concat(sig(3, 1), sig(3, -1))
        assert len(w) == 2
        assert free_reduce(w).letters == ()

    def test_delta0_squared_in_b3(self):
        d0 = toric(3, 1)
        assert concat(d0, d0).letters == (1, 2, 1, 2)

    def test_strand_mismatch(self):
        with pytest.raises(WordError):
            concat(sig(3, 1), sig(4, 1))


class TestFreeReduce:
    def test_cancel(self):
        assert free_reduce(sig(3, 1, -1)).letters == ()

    def test_inner_cancel(self):
        assert free_reduce(sig(3, 1, 2, -2, 1)).letters == (1, 1)

    def test_idempotent_on_reduced(self):
        w = sig(3, 1, 2, 1)
        assert free_reduce(w) == w

    def test_idempotent_random(self):
        rng = random.Random(0)
        for _ in range(100):
            w = random_word(rng, rng.randint(2, 6), rng.randint(0, 30))
            r = free_reduce(w)
            assert free_reduce(r) == r
            assert perm(r) == perm(w)
            assert exponent_sum(r) == exponent_sum(w)


class TestInverse:
    def test_reverse_flip(self):
        assert inverse(sig(3, 1, 2)).letters == (-2, -1)

    def test_empty(self):
        assert inverse(BraidWord(4)).letters == ()

    def test_delta0_b4(self):
        assert inverse(toric(4, 1)).letters == (-3, -2, -1)

    def test_cancels(self):
        rng = random.Random(1)
        for _ in range(50):
            w = random_word(rng, rng.randint(2, 5), rng.randint(0, 15))
            assert free_reduce(concat(w, inverse(w))).letters == ()


class TestPerm:
    def test_sigma1_is_transposition(self):
        assert perm(sig(3, 1)).cycles() == [(0, 1), (2,)]

    def test_delta0_is_rotation(self):
        for n in range(2, 8):
            assert perm(toric(n, 1)).image == tuple(range(1, n)) + (0,)

    def test_empty_is_identity(self):
        assert perm(BraidWord(5)).is_identity()

    def test_sign_irrelevant(self):
        assert perm(sig(4, -2)) == perm(sig(4, 2))

    def test_homomorphism(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(2, 6)
            u = random_word(rng, n, rng.randint(0, 12))
            v = random_word(rng, n, rng.randint(0, 12))
            assert perm(concat(u, v)).image == compose(perm(u).image, perm(v).image)

    def test_inverse_permutation(self):
        rng = random.Random(3)
        for _ in range(50):
            w = random_word(rng, 5, rng.randint(0, 12))
            assert compose(perm(inverse(w)).image, perm(w).image) == tuple(range(5))


class TestExponentSum:
    def test_delta0(self):
        for n in range(2, 7):
            assert exponent_sum(toric(n, 1)) == n - 1

    def test_full_twist_formula(self):
        # two independent counts: letters of the expansion, and linking sums
        for n in range(2, 8):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    w = expand(((Atom.t(i, j), 1),), n)
                    assert exponent_sum(w) == (j - i + 1) * (j - i)
                    lk = linking(w)
                    total = sum(
                        lk.lk(k, l)
                        for k in range(1, n)
                        for l in range(k + 1, n + 1)
                    )
                    assert exponent_sum(w) == 2 * total

    def test_cancelling_pair(self):
        assert exponent_sum(sig(3, 1, -1)) == 0

    def test_additive(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(2, 6)
            u = random_word(rng, n, rng.randint(0, 10))
            v = random_word(rng, n, rng.randint(0, 10))
            assert exponent_sum(concat(u, v)) == exponent_sum(u) + exponent_sum(v)
            assert exponent_sum(inverse(u)) == -exponent_sum(u)


class TestExpand:
    def test_adjacent_full_twist(self):
        for n in range(3, 6):
            for i in range(1, n):
                assert expand(((Atom.t(i, i + 1), 1),), n).letters == (i, i)

    def test_a13_in_b3(self):
        assert expand(((Atom.a(1, 3), 1),), 3).letters == (2, 1, 1, -2)

    def test_t1n_is_delta0_power_word(self):
        for n in range(2, 7):
            assert expand(((Atom.t(1, n), 1),), n).letters == (toric(n, 1) ** n).letters

    def test_full_twist_is_pure(self):
        for n in range(3, 7):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    assert perm(expand(((Atom.t(i, j), 1),), n)).is_identity()

    def test_expand_respects_inverse(self):
        for atom in (Atom.t(2, 4), Atom.a(1, 3), Atom.d(2), Atom.s(3)):
            w_pos = expand(((atom, 1),), 5)
            w_neg = expand(((atom, -1),), 5)
            assert w_neg == inverse(w_pos)

    def test_delta_words(self):
        assert delta_word(4, 0).letters == (1, 2, 3)
        assert delta_word(4, 1).letters == (1, 2, -3)
        assert delta_word(4, 3).letters == (-1, -2, -3)

    def test_size_limit(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_LETTERS", 12)
        for atom, e in ((Atom.t(1, 3), 2), (Atom.a(1, 4), -2), (Atom.d(1), 3), (Atom.s(2), 12)):
            assert len(expand(((atom, e),), 5)) == 12
        with pytest.raises(WordError, match="limit"):
            expand(((Atom.t(1, 3), 2), (Atom.s(1), -1)), 5)
        with pytest.raises(WordError, match="limit"):
            expand(((Atom.d(0), 5),), 4)
        assert len(toric(5, 3)) == 12
        with pytest.raises(WordError, match="limit"):
            toric(5, 4)
        assert len(sig(5, 1, -2, 3) ** -4) == 12
        with pytest.raises(WordError, match="limit"):
            sig(5, 1, -2, 3) ** 5

    def test_huge_power_refused_before_allocating(self):
        import tracemalloc

        tracemalloc.start()
        try:
            for k in (10**9, -(10**9)):
                with pytest.raises(WordError, match="limit"):
                    BraidWord(3, (1,)) ** k
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak allocation {peak} bytes"

    def test_unknown_atom_kind(self):
        with pytest.raises(WordError, match="unknown atom kind 'x'"):
            expand(((Atom("x", 1), 1),), 4)

    def test_out_of_range(self):
        with pytest.raises(WordError):
            expand(((Atom.t(2, 5), 1),), 4)
        with pytest.raises(WordError):
            expand(((Atom.s(4), 1),), 4)
        with pytest.raises(WordError):
            expand(((Atom.d(4), 1),), 4)


class TestToric:
    def test_4_3(self):
        assert toric(4, 3).letters == (1, 2, 3) * 3

    def test_m_zero(self):
        assert toric(5, 0).letters == ()

    def test_m_one_is_delta0(self):
        assert toric(6, 1) == delta_word(6, 0)

    def test_negative_m_rejected(self):
        with pytest.raises(WordError):
            toric(4, -1)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_too_few_strands_rejected(self, n):
        with pytest.raises(WordError, match="at least 2 strands"):
            toric(n, 2)


class TestClosureComponents:
    def test_toric_4_2(self):
        assert closure_components(toric(4, 2)) == 2

    def test_pure_braid_has_n(self):
        assert closure_components(expand(((Atom.t(1, 3), 1),), 4)) == 4

    def test_delta0(self):
        for n in range(2, 7):
            assert closure_components(toric(n, 1)) == 1

    def test_gcd_for_toric(self):
        import math

        # gcd(n, 0) == n covers the empty braid
        for n in range(2, 7):
            for m in range(0, 7):
                assert closure_components(toric(n, m)) == math.gcd(n, m)


class TestGrammar:
    def test_word_roundtrip(self):
        w = parse_word(4, "1 2 -3")
        assert w.letters == (1, 2, -3)
        assert format_word(w) == "1 2 -3"

    def test_str_of_word_is_its_text(self):
        assert str(BraidWord(4, (1, 2, -3))) == "1 2 -3"
        assert str(BraidWord(3)) == ""

    @pytest.mark.parametrize("tok", ["^2", "^-1"])
    def test_generator_token_without_name(self, tok):
        with pytest.raises(WordError, match=re.escape(f"bad generator token {tok!r}")):
            parse_generator_word(f"s1 {tok}")

    def test_word_rejects_zero_and_junk(self):
        with pytest.raises(WordError):
            parse_word(4, "1 0 2")
        with pytest.raises(WordError):
            parse_word(4, "1 x")
        with pytest.raises(WordError):
            parse_word(3, "3")

    @pytest.mark.parametrize("tok", ["1_0", "-1_0", "\u0663", "\uff11", "1\u0660"])
    def test_word_rejects_underscores_and_non_ascii_digits(self, tok):
        # int() reads all of these (1_0 as 10, ARABIC-INDIC THREE as 3)
        with pytest.raises(WordError, match=re.escape(repr(tok))):
            parse_word(12, f"1 {tok} 2")

    @pytest.mark.parametrize("tok", ["s1_0", "d0^1_0", "t1,1_0", "a\u0661,3", "s\u0663", "t1,4^\u0662"])
    def test_generator_rejects_underscores_and_non_ascii_digits(self, tok):
        with pytest.raises(WordError, match=re.escape(repr(tok))):
            parse_generator_word(f"s1 {tok} d0")

    def test_non_ascii_whitespace_still_separates_tokens(self):
        assert parse_word(4, "1\u00a02").letters == (1, 2)
        assert parse_generator_word("s1\u2003d0") == ((Atom.s(1), 1), (Atom.d(0), 1))

    def test_generator_roundtrip(self):
        gw = parse_generator_word("d0^3 t1,4^-2 a2,5 s1")
        assert gw == (
            (Atom.d(0), 3),
            (Atom.t(1, 4), -2),
            (Atom.a(2, 5), 1),
            (Atom.s(1), 1),
        )
        assert format_generator_word(gw) == "d0^3 t1,4^-2 a2,5 s1"

    def test_generator_rejects(self):
        for bad in ("t1", "t2,1", "x3", "d0^0", "t1,2^x", "a1,1", ""):
            if bad == "":
                continue
            with pytest.raises(WordError):
                parse_generator_word(bad)

    @pytest.mark.parametrize("tok", ["s0", "s-1", "d-1"])
    def test_generator_index_below_range(self, tok):
        # the Atom constructors refuse the index; the parser names the token
        with pytest.raises(WordError) as info:
            parse_generator_word(f"s1 {tok}")
        assert str(info.value) == f"bad generator token {tok!r}"

    def test_atom_constructors_match_grammar(self):
        for text, atom in (
            ("t1,4", Atom.t(1, 4)),
            ("a2,5", Atom.a(2, 5)),
            ("d0", Atom.d(0)),
            ("s3", Atom.s(3)),
        ):
            ((parsed, e),) = parse_generator_word(text)
            assert parsed == atom and e == 1
            assert hash(parsed) == hash(atom) == hash((atom.kind, atom.i, atom.j))
            assert str(parsed) == text

    def test_atom_repr(self):
        assert repr(Atom.t(1, 4)) == "Atom(kind='t', i=1, j=4)"
        assert repr(Atom.d(2)) == "Atom(kind='d', i=2, j=0)"

    def test_atom_index_validation(self):
        for make in (
            lambda: Atom.t(0, 2),
            lambda: Atom.t(3, 3),
            lambda: Atom.t(4, 2),
            lambda: Atom.a(0, 1),
            lambda: Atom.a(2, 2),
            lambda: Atom.d(-1),
            lambda: Atom.s(0),
            lambda: Atom.s(-3),
        ):
            with pytest.raises(WordError):
                make()

    def test_gen_reduce_merges(self):
        gw = ((Atom.d(0), 2), (Atom.d(0), -2), (Atom.t(1, 2), 1))
        assert gen_reduce(gw) == ((Atom.t(1, 2), 1),)

    def test_reduced_word_keeps_its_syllables(self):
        # an unchanged syllable comes back as the same tuple, freely and in
        # central form, so reducing a table entry copies none of it
        gw = parse_generator_word("d0^2 t1,3^-1 d1 d0^-2 t1,2^5")
        for n in (0, 7):
            out = words._reduce(gw, n)[0]
            assert out == gw and all(a is b for a, b in zip(out, gw)), n
        merged = gen_reduce(gw[:2] + ((Atom.t(1, 3), 2),) + gw[2:])
        assert merged[1] == (Atom.t(1, 3), 1) and merged[2] is gw[2]

    def test_gen_inverse(self):
        gw = parse_generator_word("d0 t1,3^2")
        assert gen_inverse(gw) == ((Atom.t(1, 3), -2), (Atom.d(0), -1))


class TestValidation:
    def test_min_strands(self):
        with pytest.raises(WordError):
            BraidWord(1)

    def test_letter_range(self):
        with pytest.raises(WordError):
            BraidWord(3, (3,))

    @pytest.mark.parametrize("bad", [0, 5, -5])
    def test_letter_range_message(self, bad):
        # the first bad letter is named, wherever it sits among valid ones
        with pytest.raises(WordError) as info:
            BraidWord(5, (1, -4, bad, 4, 0, -5))
        assert str(info.value) == f"letter {bad} out of range for 5 strands"

    def test_letter_range_edges_accepted(self):
        assert BraidWord(5, (4, -4, 1, -1)).letters == (4, -4, 1, -1)

    def test_permutation_bijection(self):
        with pytest.raises(WordError):
            Permutation((0, 0, 2))
        with pytest.raises(WordError):
            Permutation((1, 2, 3))  # 1-based images are not a permutation of 0..2


class TestTable:
    def test_computes_once_and_clears_at_cap(self):
        calls = []

        def square(k):
            calls.append(k)
            return k * k

        table = WatchedMemo(square, 3)
        assert [table[k] for k in (1, 2, 1, 3, 2)] == [1, 4, 1, 9, 4]
        assert calls == [1, 2, 3] and table.clears == 0
        assert table[4] == 16  # a fourth key empties the table first
        assert table.clears == 1 and dict(table) == {4: 16}
        for k in range(5, 12):
            assert table[k] == k * k
        assert table.clears == 3 and table.peak == 3

    def test_nothing_stored_when_compute_raises(self):
        def positive(k):
            if k < 1:
                raise WordError(f"bad key {k}")
            return k

        table = Table(positive, 2)
        table[1], table[2]
        with pytest.raises(WordError, match="bad key 0"):
            table[0]
        assert dict(table) == {1: 1, 2: 2}  # neither stored nor cleared

    def test_uncapped_table_may_look_itself_up(self):
        fib = Table(lambda k: k if k < 2 else fib[k - 1] + fib[k - 2])
        assert fib[60] == 1_548_008_755_920
        assert len(fib) == 61 and fib.cap is None


_X, _Y, _Z = Atom.s(1), Atom.s(2), Atom.s(3)
_D0 = Atom.d(0)
# two atoms a table looks up by their own key; _D0 may occur in images
_A, _B = Atom.t(1, 2), Atom.t(1, 3)

_exponents = st.sampled_from((1, -1, 2, -2, 3, -3))
# unreduced words: adjacent syllables may share an atom or cancel outright
_image_words = st.lists(st.tuples(st.sampled_from((_X, _Y, _D0)), _exponents), max_size=5)


@st.composite
def _width_maps_and_words(draw):
    """(n, images, gw): an image word for each width l = 2..n, and a word in
    the twists t(i,j), j <= n, and _D0."""
    n = draw(st.integers(2, 6))
    images = {width: tuple(draw(_image_words)) for width in range(2, n + 1)}
    if n > 2 and draw(st.booleans()):
        # an image that cancels completely against its neighbour's
        images[3] = gen_inverse(images[2])
    atoms = [Atom.t(i, j) for i in range(1, n) for j in range(i + 1, n + 1)] + [_D0]
    gw = draw(st.lists(st.tuples(st.sampled_from(atoms), _exponents), max_size=12))
    return n, images, tuple(gw)


# the domain of the plain test maps: t(1,j) is looked up by its own key
_DOMAIN = (Atom.t(1, 2), Atom.t(1, 3), Atom.t(1, 4))
# so many strands that no d0 exponent a test word reaches is ever wrapped
_WIDE = 1 << 20


@st.composite
def _maps_and_words(draw):
    images = dict(zip(_DOMAIN, draw(st.tuples(*[_image_words] * 3))))
    if draw(st.booleans()):
        # an image that cancels completely against its neighbour's
        images[_DOMAIN[1]] = gen_inverse(tuple(images[_DOMAIN[0]]))
    atoms = st.sampled_from(_DOMAIN + (_D0,))
    gw = draw(st.lists(st.tuples(atoms, _exponents), max_size=12))
    return images, tuple(gw)


def _shifted_image(images, atom):
    """The image of t(i,j) under a map given on widths: d0^(i-1) images[j-i+1] d0^-(i-1)."""
    shift = atom.i - 1
    return ((_D0, shift),) + images[atom.j - shift] + ((_D0, -shift),)


class TestImageTableSubstitute:
    """substitute joins reduced pieces at their seams and keeps the central
    form as it goes; it must equal the concatenate-then-reduce definition,
    brought into central form, on every input, reduced or not."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(_maps_and_words())
    def test_equals_concatenate_then_reduce(self, case):
        # on so many strands that no d0 residue wraps, the central form is
        # the freely reduced word itself
        images, gw = case
        table = ImageTable(lambda atom: tuple(images[atom]), _WIDE)
        want = substitute_then_reduce(lambda atom: tuple(images[atom]), gw)
        assert table.substitute(gw) == want
        assert gen_reduce(want) == want

    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(_width_maps_and_words())
    def test_central_equals_concatenate_then_central_reduce(self, case):
        # even-n ties included, and t(i,j) read as t(1,j-i+1) shifted by
        # d0^(i-1); it must equal central_reduce of the plain image, the
        # shift written out
        n, images, gw = case
        table = ImageTable(lambda atom: images[atom.j], n)
        plain = substitute_then_reduce(lambda atom: _shifted_image(images, atom), gw)
        assert gen_reduce(plain) == plain
        assert table.substitute(gw) == central_reduce(plain, n)
        assert all(key.i == 1 for key in table)

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(st.lists(st.tuples(st.sampled_from((_X, _Y, _D0)), st.integers(-3, 3)), max_size=16))
    def test_gen_reduce_is_stack_reduction(self, gw):
        # gen_reduce joins one syllable at a time; zero exponents are dropped
        assert gen_reduce(gw) == stack_reduce(gw)

    def test_neighbours_cancel_completely(self):
        word = ((_X, 1), (_Y, -2), (_Z, 1))
        table = ImageTable({_A: word, _B: gen_inverse(word)}.__getitem__, 7)
        gw = ((_A, 2), (_B, 1), (_D0, 1), (_B, 1), (_A, 1))
        # A^2 B = w w w^-1 = w, and B A = w^-1 w is empty
        assert table.substitute(gw) == word + ((_D0, 1),)
        assert table.substitute(((_A, 1), (_B, 1))) == ()

    def test_powers_merge_between_copies(self):
        table = ImageTable(lambda atom: ((_X, 1), (_Y, 1), (_X, -1)), 7)
        for e in (1, -1, 2, -2, 3, -3):
            assert table.substitute(((_A, e),)) == ((_X, 1), (_Y, e), (_X, -1))

    def test_fixed_atom_runs_and_unreduced_images(self):
        # _D0 maps to itself; the image of _A is unreduced
        table = ImageTable(lambda atom: ((_D0, 1), (_X, 2), (_X, -2), (_D0, 2)), 7)
        gw = ((_D0, 2), (_D0, -1), (_A, 1), (_D0, -3), (_D0, 0))
        assert table.substitute(gw) == ((_D0, 1),)
        # stored reduced: the pieces (head, body, tail) of d0^3 and d0^-3
        assert table[_A] == ((3, (), 0), (-3, (), 0))
        # a central unit is folded into the head: d0^9 = d0^7 d0^2 on 7 strands
        table = ImageTable(lambda atom: ((_D0, 9),), 7)
        assert table[_A] == ((9, (), 0), (-9, (), 0))
        assert table.substitute(((_A, 2), (_D0, 1))) == ((_D0, 19),)


def _random_syllables(rng, atoms, n, length):
    """A random unreduced word over atoms, d0 exponents up to 2n either way."""
    out = []
    for _ in range(length):
        atom = rng.choice(atoms)
        top = 2 * n if atom == _D0 else 3
        out.append((atom, rng.randint(-top, top)))
    return tuple(out)


class TestCentralTie:
    """The even-n tie of the central form is chosen in words._half alone:
    with the tie moved to -n/2 there, _reduce, the seams of _join and
    ImageTable.substitute all write it so, as central_reduce does given the
    same tie."""

    @pytest.fixture(autouse=True)
    def _negative_tie(self, monkeypatch):
        monkeypatch.setattr(words, "_half", lambda n: n // 2)

    def test_reduce(self):
        rng = random.Random(33)
        ties = 0
        for _ in range(600):
            n = rng.choice((2, 4, 6, 8))
            gw = _random_syllables(rng, (_X, _Y, _D0), n, rng.randint(0, 10))
            out, q = words._reduce(gw, n)
            out = list(out)
            if q:
                words._spread(out, q, n)
            assert tuple(out) == central_reduce(gw, n, tie=-1), (n, gw)
            ties += (_D0, -n // 2) in out
        assert ties > 20

    def test_join_seams(self):
        rng = random.Random(34)
        ties = 0
        for _ in range(600):
            n = rng.choice((2, 4, 6, 8))
            u = words._reduce(_random_syllables(rng, (_X, _Y, _D0), n, 6), n)[0]
            # v opens by cancelling part of u's end, so the seam merges
            k = rng.randint(0, len(u))
            start = [(atom, -e + rng.randint(-1, 1)) for atom, e in reversed(u[k:])]
            tail = _random_syllables(rng, (_X, _Y, _D0), n, 4)
            v = words._reduce(tuple(start) + tail, n)[0]
            out = list(u)
            q = words._join(out, v, n)
            if q:
                words._spread(out, q, n)
            assert tuple(out) == central_reduce(u + v, n, tie=-1), (n, u, v)
            ties += (_D0, -n // 2) in out
        assert ties > 20

    def test_substitute(self):
        rng = random.Random(35)
        ties = 0
        for _ in range(400):
            n = rng.choice((2, 4, 6))
            images = {
                l: _random_syllables(rng, (_X, _Y, _D0), n, rng.randint(0, 4))
                for l in range(2, n + 1)
            }
            atoms = [Atom.t(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
            gw = _random_syllables(rng, atoms + [_D0], n, rng.randint(0, 8))
            table = ImageTable(lambda atom: images[atom.j], n)
            plain = substitute_then_reduce(lambda atom: _shifted_image(images, atom), gw)
            out = table.substitute(gw)
            assert out == central_reduce(plain, n, tie=-1), (n, images, gw)
            ties += (_D0, -n // 2) in out
        assert ties > 20


class TestSyllableText:
    def test_bounded_and_output_unchanged(self, monkeypatch):
        import io

        from qtbraid.cli import run

        from helpers import random_qt_word

        rng = random.Random(60)
        argvs = [["relators", "--group", "qb", "-n", "6", "--json"]]
        for target in ("thm41", "thm42"):
            word = " ".join(map(str, random_qt_word(rng, 6).letters))
            argvs.append(["decompose", "-n", "6", "--target", target, "--json", word])

        def outputs():
            texts = []
            for argv in argvs:
                out = io.StringIO()
                assert run(argv, out=out) == 0
                texts.append(out.getvalue())
            return texts

        want = outputs()
        assert words._SYLLABLE_TEXT.cap == words.SYLLABLE_CACHE_SIZE
        watched = WatchedMemo(words._SYLLABLE_TEXT.compute, 7)
        monkeypatch.setattr(words, "_SYLLABLE_TEXT", watched)
        assert outputs() == want
        assert watched.clears >= 2
        assert 0 < watched.peak <= 7
