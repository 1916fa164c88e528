import itertools
import random

import pytest

from qtbraid import (
    BraidWord,
    Atom,
    WordError,
    concat,
    equal,
    expand,
    is_pure,
    parse_word,
    perm,
    toric,
)
from qtbraid import words
from qtbraid.quasitoric import (
    QuasitoricForm,
    factor,
    format_form_text,
    is_quasitoric,
    parse_form_text,
    qt_to_word,
)

from helpers import compose, random_form, random_qt_word, random_word


def brute_is_quasitoric(w):
    """The least k with perm(w) == rho^k, trying rho^0 .. rho^(n-1) in turn."""
    n = w.strands
    rho = tuple(range(1, n)) + (0,)
    power = tuple(range(n))
    for k in range(n):
        if perm(w).image == power:
            return k
        power = compose(rho, power)
    return None


def word_with_perm(image):
    """A braid word whose permutation has the given image tuple (0-based, as perm)."""
    target, swaps = list(image), []
    for end in range(len(target) - 1, 0, -1):
        for q in range(end):
            if target[q] > target[q + 1]:
                target[q], target[q + 1] = target[q + 1], target[q]
                swaps.append(q + 1)
    return BraidWord(len(image), tuple(reversed(swaps)))


class TestQtToWord:
    def test_all_positive_is_toric(self):
        for n in range(2, 6):
            for m in range(0, 4):
                form = QuasitoricForm(n, ((1,) * (n - 1),) * m)
                assert qt_to_word(form) == toric(n, m)

    def test_empty(self):
        assert qt_to_word(QuasitoricForm(4)).letters == ()

    def test_figure_signs(self):
        form = QuasitoricForm(4, ((1, 1, 1), (-1, -1, 1), (-1, 1, 1)))
        assert qt_to_word(form) == parse_word(4, "1 2 3 -1 -2 3 -1 2 3")


class TestIsQuasitoric:
    def test_delta0(self):
        for n in range(2, 7):
            assert is_quasitoric(toric(n, 1)) == 1

    def test_pure(self):
        assert is_quasitoric(BraidWord(3, (1, 1))) == 0

    def test_transposition_is_not(self):
        assert is_quasitoric(BraidWord(3, (1,))) is None

    def test_form_words_reduce_mod_n(self):
        rng = random.Random(22)
        for _ in range(60):
            n = rng.randint(2, 6)
            form = random_form(rng, n, rng.randint(0, 7))
            assert is_quasitoric(qt_to_word(form)) == len(form.rows) % n

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_permutation_matches_brute_powers(self, n):
        # members and non-members alike: every image tuple
        members = 0
        for image in itertools.permutations(range(n)):
            w = word_with_perm(image)
            assert perm(w).image == image
            k = is_quasitoric(w)
            assert k == brute_is_quasitoric(w)
            members += k is not None
        assert members == n

    @pytest.mark.parametrize("n", [8, 9])
    def test_random_words_match_brute_powers(self, n):
        rng = random.Random(24 + n)
        for _ in range(200):
            w = random_word(rng, n, rng.randint(0, 30))
            assert is_quasitoric(w) == brute_is_quasitoric(w)
        for k in range(-n, 2 * n):
            w = toric(n, k) if k >= 0 else toric(n, -k) ** -1
            assert is_quasitoric(w) == brute_is_quasitoric(w) == k % n


class TestFactor:
    def test_delta0(self):
        k, p = factor(toric(4, 1))
        assert k == 1
        assert equal(p, BraidWord(4))

    def test_delta1(self):
        for n in range(3, 7):
            d1 = expand(((Atom.d(1), 1),), n)
            k, p = factor(d1)
            assert k == 1
            assert equal(p, BraidWord(n, (-(n - 1), -(n - 1))))

    def test_toric_n_n(self):
        for n in range(3, 6):
            k, p = factor(toric(n, n))
            assert k == 0
            assert equal(p, expand(((Atom.t(1, n), 1),), n))

    def test_roundtrip_and_purity(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 6)
            w = random_qt_word(rng, n)
            k, p = factor(w)
            assert is_pure(p)
            assert equal(concat(toric(n, 1) ** k, p), w)

    def test_rejects_non_member(self):
        with pytest.raises(WordError):
            factor(BraidWord(3, (1,)))

    def test_pure_part_is_delta0_inverse_power_then_w(self):
        rng = random.Random(24)
        for _ in range(40):
            n = rng.randint(2, 7)
            w = random_qt_word(rng, n)
            k, p = factor(w)
            assert p == concat(toric(n, k) ** -1, w)

    def test_long_delta0_power_refused(self, monkeypatch):
        # delta_0^-4 on 5 strands has 16 letters
        w = toric(5, 1) ** -1
        monkeypatch.setattr(words, "MAX_LETTERS", 16)
        assert factor(w)[0] == 4
        monkeypatch.setattr(words, "MAX_LETTERS", 15)
        with pytest.raises(WordError, match="limit"):
            factor(w)


class TestFormFiles:
    def test_roundtrip(self):
        form = QuasitoricForm(4, ((1, -1, 1), (-1, -1, -1)))
        text = format_form_text(form)
        assert text == "+-+\n---"
        assert parse_form_text(text) == form

    def test_strand_inference(self):
        assert parse_form_text("++\n--").strands == 3

    def test_explicit_strands_checked(self):
        with pytest.raises(WordError):
            parse_form_text("++\n--", strands=4)

    def test_bad_character(self):
        with pytest.raises(WordError):
            parse_form_text("+x+")

    def test_empty_needs_strands(self):
        with pytest.raises(WordError):
            parse_form_text("")
        assert parse_form_text("", strands=5).rows == ()

    def test_blank_lines_skipped(self):
        form = parse_form_text("\n+-\n  \n-+\n\n")
        assert form == QuasitoricForm(3, ((1, -1), (-1, 1)))
        # line numbers in errors still count the blank lines
        with pytest.raises(WordError, match="line 3: bad character 'x'"):
            parse_form_text("+-\n\n-x")

    def test_first_bad_character_named(self):
        with pytest.raises(WordError, match="line 1: bad character 'a'"):
            parse_form_text("+a-b")


class TestQuasitoricForm:
    def test_too_few_strands(self):
        with pytest.raises(WordError, match="at least 2 strands"):
            QuasitoricForm(1)

    def test_short_row(self):
        with pytest.raises(WordError, match="row length 2 != 3"):
            QuasitoricForm(4, ((1, -1, 1), (1, -1)))

    @pytest.mark.parametrize("entry", [0, 2, -2])
    def test_entry_not_a_sign(self, entry):
        with pytest.raises(WordError, match="must be \\+1 or -1"):
            QuasitoricForm(3, ((1, entry),))
