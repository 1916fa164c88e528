import gc
import inspect
import random
import sys
import weakref
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
    short_twist_bound,
)
from qtbraid.purebraid import a_to_t, t_decompose
from qtbraid.quasitoric import QuasitoricForm, factor, qt_to_word
from qtbraid.words import MAX_LETTERS, STRAND_CACHE_SIZE, ImageTable, gen_concat, gen_inverse

from helpers import central_reduce, gen_pow, random_qt_word, rewrite

# ---------------------------------------------------------------------------
# Reference rewriters: a private copy of the step-by-step expansion, which
# free-reduces after every atom and builds each twist's image anew.  The
# library rewrites from cached twist tables and reduces once, in central form;
# it must give central_reduce of the reference, since that form of a
# homomorphic image is unique.


def _ref_d0(e):
    return ((Atom.d(0), e),)


def _ref_conj_d0(k, inner):
    return inner if k == 0 else gen_concat(_ref_d0(k), inner, _ref_d0(-k))


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _ref_long_twist_inverses(n):
    N = short_twist_bound(n)
    inverses = {n - 1: ((Atom.d(0), -1), (Atom.d(1), 1))}
    for i in range(n - 2, n - N, -1):
        inverses[i] = gen_concat(
            ((Atom.d(0), -1), (Atom.d(n - i), 1), (Atom.d(0), -1)), inverses[i + 1], _ref_d0(1)
        )
    return inverses


def _ref_thm42(gw, n):
    inverses = _ref_long_twist_inverses(n)
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
        # the short twists and d0 span every long twist: n - N <= N - 1
        for n in range(3, 1001):
            assert n - short_twist_bound(n) <= short_twist_bound(n) - 1, n

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
        out = rewrite(((Atom.t(2, 3), 1),), 5, "thm41")
        assert out == ((Atom.d(0), 1), (Atom.t(1, 2), 1), (Atom.d(0), -1))

    def test_t1n_is_d0_power(self):
        for n in range(3, 8):
            assert rewrite(((Atom.t(1, n), 1),), n, "thm41") == ((Atom.d(0), n),)

    def test_every_generator_sound(self):
        for n in range(3, 7):
            target = GensetTarget("thm41", n)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    out = rewrite(((Atom.t(i, j), 1),), n, "thm41")
                    assert out == central_reduce(_ref_thm41(((Atom.t(i, j), 1),), n), n)
                    assert target.admits(out), (n, i, j)
                    assert equal(expand(out, n), atom_word(Atom.t(i, j), n)), (n, i, j)

    def test_central_units_spread(self):
        # t(1,5) = d0^5 is central: its units go one d0^+-5 onto each d0
        # syllable from the front, the first taking what is left
        n, d0, t12 = 5, Atom.d(0), Atom.t(1, 2)
        cases = [
            (((Atom.t(1, 5), 3),), ((d0, 15),)),
            (((Atom.t(2, 3), 1), (Atom.t(1, 5), 3)), ((d0, 11), (t12, 1), (d0, 4))),
            (((Atom.t(2, 3), 1), (Atom.t(1, 5), -1)), ((d0, -4), (t12, 1), (d0, -1))),
        ]
        for gw, want in cases:
            assert rewrite(gw, n, "thm41") == want == central_reduce(_ref_thm41(gw, n), n)
            assert equal(expand(want, n), expand(gw, n)), gw

    def test_inverse_exponents(self):
        n = 5
        out_pos = rewrite(((Atom.t(1, 4), 1),), n, "thm41")
        out_neg = rewrite(((Atom.t(1, 4), -1),), n, "thm41")
        assert equal(
            expand(out_neg, n), inverse(expand(out_pos, n))
        )

    def test_foreign_atom_rejected(self):
        with pytest.raises(WordError):
            rewrite(((Atom.a(1, 3), 1),), 4, "thm41")
        with pytest.raises(WordError):
            rewrite(((Atom.d(1), 1),), 4, "thm41")


class TestRewriteThm42:
    def test_adjacent_twist_inverse(self):
        # t(n-1,n)^{-1} = d0^{-1} d1, so t(1,2) conjugates to d-atoms
        n = 3
        out = rewrite(((Atom.t(1, 2), 1),), n, "thm42")
        assert equal(expand(out, n), atom_word(Atom.t(1, 2), n))
        assert GensetTarget("thm42", n).admits(out)

    def test_d0_passthrough(self):
        assert rewrite(((Atom.d(0), 4),), 5, "thm42") == ((Atom.d(0), 4),)

    def test_short_twists_sound(self):
        for n in range(3, 7):
            target = GensetTarget("thm42", n)
            N = short_twist_bound(n)
            for j in range(2, N + 1):
                out = rewrite(((Atom.t(1, j), 1),), n, "thm42")
                assert out == central_reduce(_ref_thm42(((Atom.t(1, j), 1),), n), n)
                assert target.admits(out), (n, j)
                assert equal(expand(out, n), atom_word(Atom.t(1, j), n)), (n, j)

    def test_foreign_atom_rejected(self):
        # the short-twist table maps t(1,j) for j <= N only, and reads t(2,3)
        # as t(1,2) shifted; the thm42 rewriting refuses what the thm41 one
        # does, and no table stores a foreign atom
        n = 7
        tables = genset._tables(n)
        short = tables["short"]
        foreign = (Atom.t(1, short_twist_bound(n) + 1), Atom.d(1))
        for atom in foreign:
            with pytest.raises(WordError, match=f"foreign atom {atom} in thm42 rewriting"):
                short.substitute(((atom, 1),))
        with pytest.raises(WordError, match="foreign atom d1 in thm41 rewriting"):
            rewrite(((Atom.t(1, 2), 1), (Atom.d(1), 1)), n, "thm42")
        assert not set(foreign) & short.keys()
        assert all(Atom.d(1) not in table for table in tables.values())


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

    def test_one_substitution_pass(self, monkeypatch):
        # either target is one pass through its own a-atom table, thm42 included
        n = 9
        w = random_qt_word(random.Random(15), n)
        tables = genset._tables(n)
        substitute, seen = ImageTable.substitute, []

        def recorded(table, gw):
            seen.append(table)
            return substitute(table, gw)

        monkeypatch.setattr(ImageTable, "substitute", recorded)
        for variant in VARIANTS:
            want = decompose(w, GensetTarget(variant, n))
            seen.clear()
            assert decompose(w, GensetTarget(variant, n)) == want
            assert [key for t in seen for key, u in tables.items() if t is u] == [variant]

    def test_alphabet_postcondition_raises(self, monkeypatch):
        # an image function that strays from its alphabet is refused as its entry is stored
        monkeypatch.setattr(genset, "_tables", lru_cache(maxsize=1)(genset._tables.__wrapped__))
        monkeypatch.setattr(genset, "_a_image", lambda n, twists, atom: ((Atom.t(1, 4), 1),))
        monkeypatch.setattr(genset, "_thm42_image", lambda thm41, short, atom: ((Atom.t(1, 2), 1),))
        w = concat(toric(5, 1), BraidWord(5, (2, 2)))  # d0 a(2,3)
        for variant in VARIANTS:
            with pytest.raises(AssertionError, match="alphabet"):
                decompose(w, GensetTarget(variant, 5))
            assert not genset._tables(5)[variant]


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


@st.composite
def _small_forms(draw):
    n = draw(st.integers(3, 9))
    sign = st.sampled_from((1, -1))
    rows = draw(st.lists(st.tuples(*[sign] * (n - 1)), max_size=4))
    return QuasitoricForm(n, tuple(rows))


class TestCentralForm:
    @_PROPERTY
    @given(_small_forms())
    def test_decompose_output_contract(self, form):
        # the output denotes its input, in the target alphabet, freely
        # reduced, and every d0 exponent but the first d0 syllable's is within
        # n of (-n/2, n/2]: the central form, which central_reduce keeps
        w = qt_to_word(form)
        n = w.strands
        for variant in VARIANTS:
            target = GensetTarget(variant, n)
            out = decompose(w, target)
            assert equal(expand(out, n), w), (variant, form)
            assert target.admits(out)
            assert all(a[0] != b[0] for a, b in zip(out, out[1:])), out
            d0_exponents = [e for atom, e in out if atom == Atom.d(0)]
            assert all(-3 * n < 2 * e <= 3 * n for e in d0_exponents[1:]), out
            assert out == central_reduce(out, n)


class TestAgainstReference:
    @_PROPERTY
    @given(_forms())
    def test_random_forms(self, form):
        w = qt_to_word(form)
        n = w.strands
        for variant in VARIANTS:
            want = central_reduce(_ref_decompose(w, variant), n)
            assert decompose(w, GensetTarget(variant, n)) == want

    def test_every_twist_power(self):
        for n in range(3, 17):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    for e in (1, -1, 2, -2):
                        gw = ((Atom.t(i, j), e),)
                        thm41 = rewrite(gw, n, "thm41")
                        assert thm41 == central_reduce(_ref_thm41(gw, n), n), (n, i, j, e)
                        thm42 = central_reduce(_ref_thm42(thm41, n), n)
                        assert rewrite(thm41, n, "thm42") == thm42, (n, i, j, e)


class TestComposedThm42Table:
    def test_every_twist_matches_reference(self):
        # t(i,j) maps to the thm42 alphabet: thm42 after thm41
        for n in range(3, 21):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    for e in (1, -1):
                        want = central_reduce(_ref_thm42(_ref_thm41(((Atom.t(i, j), e),), n), n), n)
                        assert rewrite(((Atom.t(i, j), e),), n, "thm42") == want, (n, i, j, e)

    def test_stored_twists_match_reference_at_wide_n(self):
        # every long thm41 twist and every short-table entry, both signs,
        # past the strand counts the per-atom reference tests reach; built
        # past the caches, so each n's tables and references are freed
        # before the next n's are built
        for n in range(21, 102):
            tables = genset._tables.__wrapped__(n)
            words, N = _ref_short_twist_words.__wrapped__(n), short_twist_bound(n)
            refs = [("twists", j, words[j]) for j in range(N + 1, n + 1)]
            refs += [("short", j, _ref_thm42(((Atom.t(1, j), 1),), n)) for j in range(2, N + 1)]
            for name, j, ref in refs:
                for e, want in ((1, ref), (-1, gen_inverse(ref))):
                    out = tables[name].substitute(((Atom.t(1, j), e),))
                    assert out == central_reduce(want, n), (n, name, j, e)
            _ref_long_twist_inverses.cache_clear()

    def test_every_twist_sound(self):
        for n in range(3, 9):
            target = GensetTarget("thm42", n)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    image = rewrite(((Atom.t(i, j), 1),), n, "thm42")
                    assert target.admits(image), (n, i, j)
                    assert equal(expand(image, n), atom_word(Atom.t(i, j), n)), (n, i, j)


class TestATables:
    def test_every_a_atom_matches_two_pass_reference(self):
        # a(i,j)^e maps straight to the target alphabet: the central form of
        # its full-twist word a_to_t rewritten by the reference twist images
        for n in range(3, 17):
            tables = genset._tables(n)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    for e in (1, -1):
                        thm41 = _ref_thm41(gen_pow(a_to_t(n, i, j), e), n)
                        want = {"thm41": thm41, "thm42": _ref_thm42(thm41, n)}
                        for variant in VARIANTS:
                            out = tables[variant].substitute(((Atom.a(i, j), e),))
                            assert out == central_reduce(want[variant], n), (n, i, j, e, variant)

    def test_every_a_atom_sound(self):
        for n in range(3, 9):
            tables = genset._tables(n)
            for variant in VARIANTS:
                target = GensetTarget(variant, n)
                for i in range(1, n):
                    for j in range(i + 1, n + 1):
                        for e in (1, -1):
                            gw = ((Atom.a(i, j), e),)
                            image = tables[variant].substitute(gw)
                            assert target.admits(image), (n, i, j, e, variant)
                            assert equal(expand(image, n), expand(gw, n)), (n, i, j, e, variant)

    @_PROPERTY
    @given(_forms())
    def test_decompose_is_the_two_pass_rewrite(self, form):
        # one pass from the combed word gives what the twist word rewritten
        # by the twist table gives
        w = qt_to_word(form)
        n = w.strands
        k, p = factor(w)
        for variant in VARIANTS:
            want = rewrite(((Atom.d(0), k),) + t_decompose(p), n, variant)
            assert decompose(w, GensetTarget(variant, n)) == want


class TestWidthKeys:
    """Each central table stores the pieces of x(1,l) only, l = 2..n, and reads
    x(i,j) as x(1,j-i+1) conjugated by d0^(i-1) (relation 4)."""

    def test_atom_past_the_last_strand_refused(self):
        # x(3,8) at n = 7 would read the width-6 piece, which is in range; it
        # is looked up as it is, and refused, and no table gains a key
        n = 7
        genset._tables.cache_clear()
        tables = genset._tables(n)
        for name, kind in (("twists", "t"), ("short", "t"), ("thm41", "a"), ("thm42", "a")):
            atom = Atom(kind, 3, n + 1)
            tables[name].substitute(((Atom(kind, 1, 2), 1),))
            keys = {key: set(table) for key, table in tables.items()}
            with pytest.raises(WordError, match=f"foreign atom {atom} in "):
                tables[name].substitute(((Atom(kind, 1, 2), 1), (atom, 1)))
            assert {key: set(table) for key, table in tables.items()} == keys, name

    def test_t_atom_refused_by_a_table(self):
        for variant in VARIANTS:
            table = genset._tables(7)[variant]
            for atom, key in ((Atom.t(1, 7), Atom.t(1, 7)), (Atom.t(2, 5), Atom.t(1, 4))):
                with pytest.raises(WordError, match=f"foreign atom {key} in a-atom rewriting"):
                    table.substitute(((atom, 1),))
            assert not any(key.kind == "t" for key in table)

    def test_a_atom_refused_by_twist_table(self):
        for name, variant in (("twists", "thm41"), ("short", "thm42")):
            table = genset._tables(7)[name]
            for atom, key in ((Atom.a(1, 7), Atom.a(1, 7)), (Atom.a(2, 5), Atom.a(1, 4))):
                with pytest.raises(WordError, match=f"foreign atom {key} in {variant} rewriting"):
                    table.substitute(((atom, 1),))
            assert not any(key.kind == "a" for key in table)

    def test_tables_hold_one_entry_per_width(self):
        genset._tables.cache_clear()
        rng = random.Random(26)
        for n in range(3, 14):
            for _ in range(6):
                w = random_qt_word(rng, n)
                for variant in VARIANTS:
                    decompose(w, GensetTarget(variant, n))
            tables = genset._tables(n)
            for table in tables.values():
                assert len(table) <= n - 1 and all(key.i == 1 for key in table), n


class TestTwistTables:
    def test_bounded_by_strand_counts(self):
        genset._tables.cache_clear()
        for n in range(3, 3 + STRAND_CACHE_SIZE + 4):
            decompose(atom_word(Atom.t(1, n - 1), n), GensetTarget("thm42", n))
        assert genset._tables.cache_info().currsize == STRAND_CACHE_SIZE

    def test_warmup_fills_nothing(self):
        # the warm-up reads d0 alone: the twist table holds what it wrote as
        # it was built, its long twists and the short ones their lines read,
        # and the other tables stay empty
        genset._tables.cache_clear()
        for n in range(5, 14):
            for variant in VARIANTS:
                assert decompose(toric(n, 1), GensetTarget(variant, n)) == ((Atom.d(0), 1),)
            tables = genset._tables(n)
            assert all(not tables[name] for name in ("thm41", "thm42", "short")), n
            twists = tables["twists"]
            assert all(key.kind == "t" and key.i == 1 for key in twists), n
            assert {Atom.t(1, j) for j in range(short_twist_bound(n) + 1, n + 1)} <= twists.keys()

    def test_freed_by_refcount_alone(self):
        # no table reaches itself, so dropping the cache frees all four
        # tables without the cyclic collector
        genset._tables.cache_clear()
        gc.disable()
        try:
            tables = genset._tables(9)
            for variant in VARIANTS:
                decompose(random_qt_word(random.Random(9), 9), GensetTarget(variant, 9))
            assert all(tables.values())
            refs = [weakref.ref(table) for table in tables.values()]
            del tables
            genset._tables.cache_clear()
            assert [ref() for ref in refs] == [None] * 4
        finally:
            gc.enable()

    def test_long_chain_without_deep_recursion(self):
        # t(1,j) leans on t(1,j+1) down a chain of ~n/2 entries; building
        # t(1,N+1) first must not nest one call per link
        n = 301
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            genset._tables.cache_clear()
            gw = ((Atom.t(1, short_twist_bound(n) + 1), 1),)
            out = rewrite(gw, n, "thm41")
        finally:
            sys.setrecursionlimit(limit)
        assert out == central_reduce(_ref_thm41(gw, n), n)

    def test_size_bound_covers_the_built_table(self):
        # the count from lengths alone never undercounts, since substitute
        # only merges at the seams; nor does it refuse a table of half the
        # limit.  Each stored long twist counts its body, and its head and
        # tail as one d0 syllable each.  The tables hold no reference cycle,
        # so the cyclic collector is paused: its full passes would otherwise
        # walk every object that earlier tests keep, for most of the time.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for n in range(3, 201):  # built past the cache, so each n is freed before the next
                twists = genset._tables.__wrapped__(n)["twists"]
                long = range(short_twist_bound(n) + 1, n + 1)
                built = sum(len(twists[Atom.t(1, j)][0][1]) + 2 for j in long)
                assert built <= genset._long_twist_syllables(n) < 2 * built, n
        finally:
            if enabled:
                gc.enable()

    def test_oversized_table_refused(self):
        # n = 2112 is the last strand count whose bound fits MAX_LETTERS;
        # past it the tables are refused before any is built, and a
        # refused n is not cached
        assert genset._long_twist_syllables(2112) <= MAX_LETTERS
        assert genset._long_twist_syllables(2113) > MAX_LETTERS
        genset._tables.cache_clear()
        for variant in VARIANTS:
            with pytest.raises(WordError, match="on 2113 strands would hold up to"):
                decompose(BraidWord(2113, ()), GensetTarget(variant, 2113))
        assert genset._tables.cache_info().currsize == 0

    def test_cache_of_one_keeps_output(self, monkeypatch):
        rng = random.Random(81)
        cases = [(n, random_qt_word(rng, n, max_rows=4)) for n in (7, 9) * 4]
        want = [decompose(w, GensetTarget("thm42", n)) for n, w in cases]
        monkeypatch.setattr(genset, "_tables", lru_cache(maxsize=1)(genset._tables.__wrapped__))
        # n alternates, so every call rebuilds its strand count's tables
        assert [decompose(w, GensetTarget("thm42", n)) for n, w in cases] == want
        assert genset._tables.cache_info().misses == len(cases)
