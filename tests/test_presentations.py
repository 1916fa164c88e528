import dataclasses
import itertools
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from qtbraid import (
    Atom,
    BraidWord,
    WordError,
    concat,
    equal,
    expand,
    gen_concat,
    gen_reduce,
    toric,
)
from qtbraid import presentations
from qtbraid.presentations import (
    AbelianStructure,
    ClassVector,
    Presentation,
    _relator_count,
    _template,
    h1,
    min_generators,
    presentation,
    qt_class,
    verify,
)
from qtbraid.genset import GensetTarget, short_twist_bound
from qtbraid.purebraid import a_to_t, linking, t_decompose
from qtbraid.quasitoric import factor
from qtbraid.snf import smith_normal_form
from qtbraid.words import Table, format_generator_word

from helpers import (
    WatchedMemo,
    generator_roots,
    is_zero_class,
    random_qt_word,
    rewrite_equivalent,
    union_find_h1,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "relator_counts.json").read_text()
)


def pairwise_commutation_spans(pairs):
    """Independent enumeration: every unordered span pair, kept if disjoint or nested."""
    kept = []
    for (i, j), (k, l) in itertools.combinations(sorted(pairs), 2):
        if j < k or l < i or (k <= i and j <= l) or (i <= k and l <= j):
            kept.append(((i, j), (k, l)))
    return kept


def brute_commutation_count(n):
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    return len(pairwise_commutation_spans(pairs))


def cyclic_count(group, n):
    """The number of qb relators that involve d0, which presentation puts last."""
    return 1 + math.comb(n, 2) if group == "qb" else 0


class TestRelatorEnumeration:
    @pytest.mark.parametrize("n", range(3, 17))
    def test_commutators_match_pairwise_filter(self, n):
        pb = presentations._span_pairs(n)
        t = presentations._syllables(pb, presentations._as_is)
        for pairs in (pb, [p for p in pb if p != (1, n)]):
            want = [
                presentations._commutator(t[a] + t[b]) for a, b in pairwise_commutation_spans(pairs)
            ]
            assert presentations._commutation_relators(pairs, t) == want

    def test_pentagonal_counts(self):
        for n, want in ((5, 1), (6, 6), (7, 21)):
            p = presentation("pb", n)
            pent = len(p.relators) - brute_commutation_count(n)
            assert pent == want == math.comb(n, 5)

    def test_golden_counts(self):
        for group in ("pb", "qb", "pmod"):
            for n in range(3, 13):
                p = presentation(group, n)
                gold = GOLDEN[f"{group},{n}"]
                assert len(p.generators) == gold["generators"]
                assert len(p.relators) == gold["total"]
                assert _relator_count(group, n) == gold["total"]

    def test_oversized_table_refused(self, monkeypatch):
        # the table is built, and refused, on the first read of relators;
        # h1 reads none of it
        assert _relator_count("qb", 14) == 4824
        monkeypatch.setattr(presentations, "MAX_RELATORS", 4823)
        for group in ("pb", "qb", "pmod"):
            assert len(presentation(group, 13).relators) == _relator_count(group, 13)
        p = presentation("qb", 14)
        assert h1(p).torsion == (7,)
        for _ in range(2):
            with pytest.raises(WordError, match="has 4824 relators, more than the limit"):
                p.relators
        with pytest.raises(WordError, match="limit"):
            presentation("pb", 40).relators

    def test_generator_count_refused(self, monkeypatch):
        # h1 reads only the generators, C(n,2) + 1 at most, and n cyclic qb
        # relators, so the generator count is what bounds it
        monkeypatch.setattr(presentations, "MAX_GENERATORS", 43)
        for group, count in (("pb", 45), ("qb", 46), ("pmod", 44)):
            assert h1(presentation(group, 9)).free_rank > 0
            p = presentation(group, 10)
            limit = f"{group} on 10 strands has {count} generators, more than the limit of 43"
            with pytest.raises(WordError, match=limit):
                h1(p)
            with pytest.raises(WordError, match=limit):
                p.generators

    def test_each_limit_has_its_own_refusal(self):
        # past both limits, relators names the relator count and h1 the
        # generator count
        p = presentation("qb", 2000)
        with pytest.raises(WordError, match="has 266667666666401 relators, more than"):
            p.relators
        with pytest.raises(WordError, match="has 1999001 generators, more than"):
            h1(p)

    def test_generator_counts(self):
        for n in range(3, 9):
            assert len(presentation("pb", n).generators) == math.comb(n, 2)
            assert len(presentation("pmod", n).generators) == math.comb(n, 2) - 1
            assert len(presentation("qb", n).generators) == math.comb(n, 2) + 1

    def test_nested_pair_present_at_n3(self):
        rels = presentation("pb", 3).relators
        nested = gen_concat(
            ((Atom.t(1, 3), 1),),
            ((Atom.t(2, 3), 1),),
            ((Atom.t(1, 3), -1),),
            ((Atom.t(2, 3), -1),),
        )
        assert nested in rels

    def test_touching_spans_absent(self):
        # t(1,2) and t(2,3) share an endpoint: no commutation relator
        for rel in presentation("pb", 3).relators:
            atoms = {atom for atom, _ in rel}
            assert atoms != {Atom.t(1, 2), Atom.t(2, 3)}

    def test_small_n_rejected(self):
        for group in ("pb", "qb", "pmod"):
            with pytest.raises(WordError, match="n >= 3"):
                presentation(group, 2)

    def test_unknown_group_refused(self):
        with pytest.raises(WordError, match="unknown group"):
            presentation("bq", 4)

    @pytest.mark.parametrize("group, n", [("foo", 5), ("qb", 2), ("pb", 0), ("pmod", -1)])
    def test_direct_construction_refused_as_the_factory_refuses(self, group, n):
        # Presentation checks its own group and strand count, so one built
        # directly is refused with presentation()'s message, before any part
        with pytest.raises(WordError) as factory:
            presentation(group, n)
        with pytest.raises(WordError) as direct:
            Presentation(group, n)
        want = "unknown group" if group == "foo" else "presentations need n >= 3"
        assert str(direct.value) == str(factory.value) and want in str(direct.value)

    @pytest.mark.parametrize("group", ["pb", "qb", "pmod"])
    def test_zero_rows_are_reduced_and_abelianize_to_zero(self, group):
        # every family, the cyclic qb one included, is joined by plain tuple
        # concatenation; that is exact only while no adjacent syllables merge,
        # so every relator, not only the zero rows, must be freely reduced
        for n in range(3, 17):
            p = presentation(group, n)
            assert all(rel == gen_reduce(rel) for rel in p.relators)
            for rel in p.relators[: len(p.relators) - cyclic_count(group, n)]:
                exponents = {}
                for atom, e in rel:
                    exponents[atom] = exponents.get(atom, 0) + e
                assert not any(exponents.values())

    @pytest.mark.parametrize("group", ["pb", "qb", "pmod"])
    def test_zero_rows_closed_form(self, group):
        # every commutator and every pentagon, counted from the closed forms
        for n in range(3, 17):
            commutators = 2 * math.comb(n, 4) + 2 * math.comb(n, 3)
            if group == "pmod":
                commutators -= math.comb(n, 2) - 1
            p = presentation(group, n)
            assert len(p.relators) - cyclic_count(group, n) == commutators + math.comb(n, 5)
        p = presentation("pb", 6)
        assert len(p.relators) == brute_commutation_count(6) + 6

    def test_template_with_nonzero_slot_refused(self):
        with pytest.raises(ValueError, match="slot 1"):
            _template(((0, 1), (1, 1), (0, -1)))

    def test_qb_case_relators(self):
        rels = presentation("qb", 5).relators
        # shift case (i,j)=(2,4)
        shift = gen_concat(
            ((Atom.d(0), 1), (Atom.t(2, 4), 1), (Atom.d(0), -1)),
            ((Atom.t(3, 5), -1),),
        )
        assert shift in rels
        # central case (i,j)=(1,n)
        central = gen_concat(
            ((Atom.d(0), 1), (Atom.t(1, 5), 1), (Atom.d(0), -1)),
            ((Atom.t(1, 5), -1),),
        )
        assert central in rels
        # lantern case (i,j)=(2,n): t(2,2) dropped from the right side
        lantern = gen_concat(
            ((Atom.d(0), 1), (Atom.t(2, 5), 1), (Atom.d(0), -1)),
            (
                (Atom.t(1, 5), -1),
                (Atom.t(3, 5), -1),
                (Atom.t(1, 2), 1),
                (Atom.t(2, 5), 1),
            ),
        )
        assert lantern in rels


class TestIdentity:
    # a presentation is its (group, n): repr, == and hash read nothing else,
    # so they answer past both limits and build no table
    def test_identity_reads_only_group_and_strands(self):
        for group, n in (("qb", 40), ("pb", 2000)):
            p = presentation(group, n)
            assert repr(p) == f"Presentation(group={group!r}, strands={n})"
            assert p == presentation(group, n) and hash(p) == hash(presentation(group, n))
            assert p != presentation(group, n + 1)
            assert vars(p) == {"group": group, "strands": n}
        assert [f.name for f in dataclasses.fields(Presentation)] == ["group", "strands"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.group = "qb"

    def test_equality_builds_no_table(self, monkeypatch):
        calls = []
        monkeypatch.setattr(presentations, "_syllables", calls.append)
        p, q = presentation("pb", 20), presentation("pb", 20)
        assert p == q and {p, q} == {p}
        assert calls == [] and vars(p) == vars(q) == {"group": "pb", "strands": 20}

    def test_one_syllable_table_per_presentation(self, monkeypatch):
        # relators reads one table of every generator's syllables, and so does
        # relator_texts; h1 builds one of the 3n - 6 spans that start at 1 or 2
        # or end at n
        calls = []
        build = presentations._syllables
        as_is = presentations._as_is

        def counted(spans, write):
            calls.append(tuple(spans))
            return build(calls[-1], write)

        monkeypatch.setattr(presentations, "_syllables", counted)
        p = presentation("qb", 8)
        assert h1(p).torsion == (4,)
        relators = p.relators
        spans = presentations._span_pairs(8)
        assert len(calls) == 2 and calls[1] == tuple(spans)
        assert len(build(calls[0], as_is)) == len(set(calls[0])) == 3 * 8 - 6
        assert all(i <= 2 or j == 8 for i, j in calls[0])
        rows = presentations._cyclic_relators(8, build(spans, as_is), spans, as_is)
        assert relators[-len(rows) :] == tuple(rows)
        assert len(p.relator_texts) == len(relators)
        assert len(calls) == 3 and calls[2] == tuple(spans)


class TestRelatorTexts:
    # relator_texts writes each syllable with the text format_generator_word
    # gives it, and never builds the GenWord table
    @pytest.mark.parametrize("group", ["pb", "qb", "pmod"])
    @pytest.mark.parametrize("n", [*range(3, 15), 21])
    def test_equals_formatted_relators(self, group, n):
        p = presentation(group, n)
        texts = p.relator_texts
        assert "relators" not in vars(p)
        assert texts == tuple(map(format_generator_word, presentation(group, n).relators))

    def test_refused_before_anything_is_built(self, monkeypatch):
        calls = []
        monkeypatch.setattr(presentations, "_syllables", lambda *args: calls.append(args))
        monkeypatch.setattr(presentations, "MAX_RELATORS", 182)
        limit = "qb on 7 strands has 183 relators, more than the limit of 182"
        for part in ("relators", "relator_texts"):
            p = presentation("qb", 7)
            with pytest.raises(WordError) as info:
                getattr(p, part)
            assert str(info.value) == limit
            assert vars(p) == {"group": "qb", "strands": 7}
        assert calls == []


class TestVerify:
    @pytest.mark.parametrize("group", ["pb", "qb"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_all_relators_trivial(self, group, n):
        report = verify(presentation(group, n))
        assert report.ok
        assert report.checked == GOLDEN[f"{group},{n}"]["total"]

    def test_corrupted_relator_detected(self):
        p = presentation("qb", 4)
        corrupted = []
        for rel in p.relators:
            atom, e = rel[0]
            corrupted.append(((atom, -e),) + rel[1:])
        # verify reads only the group, the strand count and the relators
        bad = SimpleNamespace(group=p.group, strands=p.strands, relators=tuple(corrupted))
        report = verify(bad)
        # flipping one sign breaks all non-commutation relators
        assert report.failures

    def test_pmod_relators_are_pb_relators(self):
        # pmod only drops t1,<n> and its commutators, so its relators hold in
        # PB_n and in the quotient PB_n / Z(PB_n) alike
        for n in range(3, 12):
            pb = set(presentation("pb", n).relators)
            assert set(presentation("pmod", n).relators) <= pb, n
        for n in range(3, 10):
            assert verify(presentation("pmod", n)).ok, n


@pytest.fixture
def cold_verdicts():
    """An empty verify verdict memo, emptied again after the test."""
    presentations._verdicts.clear()
    yield presentations._verdicts
    presentations._verdicts.clear()


def _up_shift(word, s):
    """Each twist syllable t(i,j)^e of word as t(i+s, j+s)^e."""
    return tuple((Atom.t(atom.i + s, atom.j + s), e) for atom, e in word)


def _flip_slot(rel, slot):
    """The pentagon relator rel with both syllables of one template slot inverted."""
    return tuple(
        (atom, -e if s == slot else e) for (atom, e), (s, _) in zip(rel, presentations.PENTAGON)
    )


class TestVerifyByShape:
    @pytest.mark.parametrize("group", ["pb", "qb", "pmod"])
    def test_shift_map_is_exact(self, group):
        for n in range(3, 17):
            shifts = Table(presentations._down_shift)
            for rel in presentation(group, n).relators:
                word, width = presentations._shape(rel, n, shifts)
                if any(atom.kind == "d" for atom, _ in rel):
                    assert (word, width) == (rel, n)
                    continue
                lo = min(atom.i for atom, _ in rel)
                hi = max(atom.j for atom, _ in rel)
                assert width == hi - lo + 1
                assert _up_shift(word, lo - 1) == rel
                assert min(atom.i for atom, _ in word) == 1 and max(atom.j for atom, _ in word) == width

    def test_one_oracle_call_per_shape(self, cold_verdicts, monkeypatch):
        real, calls = presentations._relator_holds, []

        def holds(rel, n):
            calls.append((rel, n))
            return real(rel, n)

        monkeypatch.setattr(presentations, "_relator_holds", holds)
        cyclic = 0
        for n in range(3, 11):
            assert verify(presentation("pb", n)).ok
            # the shapes so far are the pb relators on n strands with a span from strand 1
            assert len(calls) - cyclic == _relator_count("pb", n) - _relator_count("pb", n - 1)
            start = len(calls)
            assert verify(presentation("qb", n)).ok and verify(presentation("pmod", n)).ok
            # qb adds only its cyclic relators, checked on n strands, and pmod nothing
            assert len(calls) - start == 1 + math.comb(n, 2)
            assert all(width == n for _, width in calls[start:])
            cyclic += len(calls) - start
        assert len(set(calls)) == len(calls)

    def test_agrees_with_one_call_per_relator(self, cold_verdicts):
        # every third relator with its first syllable inverted, against the
        # oracle asked about each relator on all n strands
        failed = 0
        for n in range(3, 8):
            for group in ("pb", "qb", "pmod"):
                relators = tuple(
                    ((rel[0][0], -rel[0][1]),) + rel[1:] if k % 3 == 0 else rel
                    for k, rel in enumerate(presentation(group, n).relators)
                )
                stand_in = SimpleNamespace(group=group, strands=n, relators=relators)
                want = tuple(
                    k for k, rel in enumerate(relators)
                    if not presentations._relator_holds(rel, n)
                )
                assert verify(stand_in).failures == want
                failed += len(want)
        assert failed > 100

    @pytest.mark.parametrize("slot", range(5))
    def test_warm_memo_does_not_mask_a_flipped_slot(self, slot, cold_verdicts):
        assert verify(presentation("pb", 8)).ok
        relators = presentation("pb", 6).relators
        # the pentagon on strands 2..6, keyed by its shift down to strands 1..5
        idx = next(
            k for k, rel in enumerate(relators)
            if len(rel) == 10 and min(atom.i for atom, _ in rel) == 2
        )
        bad = _flip_slot(relators[idx], slot)
        stand_in = SimpleNamespace(
            group="pb", strands=6, relators=relators[:idx] + (bad,) + relators[idx + 1 :]
        )
        assert verify(stand_in).failures == (idx,)
        assert not equal(expand(bad, 6), BraidWord(6))

    def test_cold_and_warm_reports_are_equal(self, cold_verdicts):
        cases = [(group, n) for n in range(3, 11) for group in ("pb", "qb", "pmod")]
        cold = []
        for group, n in cases:
            cold_verdicts.clear()
            cold.append(verify(presentation(group, n)))
        warm = [verify(presentation(group, n)) for group, n in cases]
        assert warm == cold
        assert all(report.ok for report in cold)

    def test_capped_memo_stays_correct(self, cold_verdicts, monkeypatch):
        memo = WatchedMemo(cold_verdicts.compute, 8)
        monkeypatch.setattr(presentations, "_verdicts", memo)
        for n in range(3, 9):
            for group in ("pb", "qb", "pmod"):
                p = presentation(group, n)
                assert verify(p) == presentations.VerifyReport(group, n, len(p.relators), ())
        relators = presentation("qb", 7).relators
        # one commutator, one pentagon and one cyclic relator, each with one syllable inverted
        picks = [0, next(k for k, rel in enumerate(relators) if len(rel) == 10), len(relators) - 1]
        corrupted = list(relators)
        for k in picks:
            atom, e = corrupted[k][0]
            corrupted[k] = ((atom, -e),) + corrupted[k][1:]
        stand_in = SimpleNamespace(group="qb", strands=7, relators=tuple(corrupted))
        assert verify(stand_in).failures == tuple(picks)
        assert memo.peak <= 8 and memo.clears > 0


class TestH1:
    def test_qb_structure(self):
        for n, rank, torsion in ((3, 1, (3,)), (4, 2, (2,)), (6, 3, (3,))):
            a = h1(presentation("qb", n))
            assert (a.free_rank, a.torsion) == (rank, torsion)

    def test_pb_free(self):
        for n in range(3, 8):
            a = h1(presentation("pb", n))
            assert a.free_rank == math.comb(n, 2) and a.torsion == ()

    def test_pmod_free(self):
        for n in range(3, 8):
            a = h1(presentation("pmod", n))
            assert a.free_rank == math.comb(n, 2) - 1 and a.torsion == ()

    def test_orbit_form_matches_union_find(self):
        # the reference reads every cyclic row and merges the shift rows one
        # by one, and gives each generator a signed class column; h1 reads n
        # rows over the orbit roots, and gives every generator the column of
        # its root
        def check(p):
            a = h1(p)
            free_rank, torsion, snf, classes = union_find_h1(p)
            assert (a.free_rank, a.torsion, a.snf) == (free_rank, torsion, snf), p
            assert classes == tuple((1, a.columns[r]) for r in generator_roots(p)), p

        for group in ("pb", "qb", "pmod"):
            for n in range(3, 41):
                check(presentation(group, n))
        for n in (100, 200):
            check(presentation("qb", n))

    def test_h1_reads_no_generator(self, monkeypatch):
        # h1 reads only the group and the strand count: it answers with the
        # generator tuple unreadable, up to the MAX_GENERATORS edge
        def unreadable(p):
            raise AssertionError(f"h1 read the generators of {p}")

        monkeypatch.setattr(Presentation, "generators", property(unreadable))
        for n in [*range(3, 41), 707]:
            a = h1(presentation("pb", n))
            assert (a.free_rank, a.torsion) == (math.comb(n, 2), ()), n
            a = h1(presentation("pmod", n))
            assert (a.free_rank, a.torsion) == (math.comb(n, 2) - 1, ()), n
            a = h1(presentation("qb", n))
            want = (n // 2, (n // 2,)) if n % 2 == 0 else ((n - 1) // 2, (n,))
            assert (a.free_rank, a.torsion) == want, n
            assert len(a.columns) == n and sorted(a.columns) == list(range(n))
        with pytest.raises(AssertionError, match="read the generators"):
            presentation("pb", 3).generators

    def test_shift_rows_map_to_zero(self):
        # relation 4 at j < n and the central row (1, n) lie in the kernel of
        # the orbit map, which sends every generator to one of the n roots;
        # the other rows at j = n do not
        for n in range(3, 41):
            t = presentations._syllables(presentations._span_pairs(n), presentations._as_is)
            for i, j in presentations._span_pairs(n):
                rel = presentations._cyclic_relator(n, t, i, j, presentations._as_is)
                row = {}
                for atom, e in rel:
                    r = presentations._root(atom)
                    assert 0 <= r < n
                    row[r] = row.get(r, 0) + e
                assert any(row.values()) == (j == n and i > 1), (n, i, j)

    @pytest.mark.parametrize("group", ["pb", "qb", "pmod"])
    def test_zero_rows_dropped_exactly(self, group):
        # h1 skips the zero-sum rows and writes only the rows outside the
        # orbit map's kernel before its Smith normal form; the dense Smith
        # normal form of the full matrix is the reference for H_1 and for
        # which classes are zero
        rng = random.Random(53)
        for n in range(3, 15):
            p = presentation(group, n)
            g = len(p.generators)
            index = {atom: c for c, atom in enumerate(p.generators)}
            roots = generator_roots(p)
            full = []
            for rel in p.relators:
                row = [0] * g
                for atom, e in rel:
                    row[index[atom]] += e
                full.append(row)
            s = smith_normal_form(full, cols=g)
            a = h1(p)
            assert a.free_rank == g - s.rank
            assert a.torsion == tuple(d for d in s.invariant_factors if d > 1)
            # at most the n - 1 nonzero qb rows over the orbit roots reach
            # the Smith normal form
            assert a.snf.rows <= max(0, n - 1)
            vectors = []
            rows = [row for row in full if any(row)]
            for _ in range(20):
                # a sum of relator rows is zero; a multiple of one generator
                # on top of it may be, by torsion
                x = [0] * g
                for row in rng.sample(rows, min(3, len(rows))):
                    e = rng.choice((-2, -1, 1, 2))
                    x = [u + e * v for u, v in zip(x, row)]
                if rng.random() < 0.5:
                    x[rng.randrange(g)] += rng.randint(-n, n)
                vectors.append(x)
            if group == "qb" and n < 14:
                for _ in range(10):
                    k, pure = factor(random_qt_word(rng, n, 3))
                    x = [0] * g
                    for atom, e in ((Atom.d(0), k),) + t_decompose(pure):
                        x[index[atom]] += e
                    vectors.append(x)
            zeros = 0
            for x in vectors:
                dense = [sum(u * v[c] for u, v in zip(x, s.right)) for c in range(g)]
                # generator c has the class of its root's column
                z = [0] * (a.snf.rank + a.free_rank)
                for c, e in enumerate(x):
                    z[a.columns[roots[c]]] += e
                merged = a.combination(z)
                assert is_zero(dense, s.diag) == is_zero(merged, a.snf.diag), x
                zeros += is_zero(merged, a.snf.diag)
            assert 0 < zeros < len(vectors)

    def test_min_generators(self):
        assert min_generators(h1(presentation("qb", 3))) == 2
        assert min_generators(h1(presentation("qb", 4))) == 3
        # one root killed by one relator: the trivial group needs none
        trivial = AbelianStructure("qb", 3, 0, (), smith_normal_form([[1]]), (0,))
        assert min_generators(trivial) == 0


def is_zero(y, diag):
    """True iff coordinates y, against the Smith diagonal diag, give the zero class."""
    return all(u % d == 0 if d else u == 0 for u, d in itertools.zip_longest(y, diag, fillvalue=0))


class TestMinimality:
    """H_1 of QB_n is the paper's lower bound, and both alphabets meet it."""

    def test_qb_closed_forms_and_minimal_alphabets(self):
        for n in [*range(3, 41), 64, 100]:
            a = h1(presentation("qb", n))
            want = (n // 2, (n // 2,)) if n % 2 == 0 else ((n - 1) // 2, (n,))
            assert (a.free_rank, a.torsion) == want, n
            bound = short_twist_bound(n)
            assert min_generators(a) == bound
            for variant in ("thm41", "thm42"):
                assert len(GensetTarget(variant, n).alphabet) == bound

    def test_qb_against_sympy(self):
        # an oracle that shares no code with h1: sympy's invariant factors
        # of every nonzero exponent row
        for n in (5, 6, 9):
            p = presentation("qb", n)
            index = {atom: c for c, atom in enumerate(p.generators)}
            rows = []
            for rel in p.relators:
                row = [0] * len(p.generators)
                for atom, e in rel:
                    row[index[atom]] += e
                if any(row):
                    rows.append(row)
            factors = [int(d) for d in invariant_factors(sympy.Matrix(rows)) if d != 0]
            a = h1(p)
            assert a.torsion == tuple(d for d in factors if d > 1)
            assert a.free_rank == len(p.generators) - len(factors)

    def test_pb_pmod_closed_forms(self):
        for n in range(3, 61):
            a = h1(presentation("pb", n))
            assert (a.free_rank, a.torsion) == (n * (n - 1) // 2, ()), n
            a = h1(presentation("pmod", n))
            assert (a.free_rank, a.torsion) == ((n + 1) * (n - 2) // 2, ()), n


class TestClassVector:
    def test_torsion_and_moduli_lengths_differ(self):
        with pytest.raises(WordError, match="torsion coordinates and moduli disagree"):
            ClassVector((1,), (0, 1), (3,))

    @pytest.mark.parametrize("v", [3, -1, 7])
    def test_unreduced_torsion_coordinate(self, v):
        with pytest.raises(WordError, match=f"torsion coordinate {v} not reduced mod 3"):
            ClassVector((), (v,), (3,))

    def test_sum_reduces_torsion(self):
        assert ClassVector((1,), (2,), (3,)) + ClassVector((-4,), (2,), (3,)) == ClassVector(
            (-3,), (1,), (3,)
        )

    @pytest.mark.parametrize(
        "other",
        [ClassVector((1,), (0,), (4,)), ClassVector((1, 2), (0,), (3,)), ClassVector((1,), (), ())],
    )
    def test_sum_across_groups_refused(self, other):
        with pytest.raises(WordError, match="different groups"):
            ClassVector((1,), (2,), (3,)) + other

    def test_sum_of_classes_at_different_strand_counts_refused(self):
        with pytest.raises(WordError, match="different groups"):
            qt_class(toric(4, 1)) + qt_class(toric(5, 1))


class TestQtClass:
    def test_relators_vanish(self):
        for n in (3, 4):
            p = presentation("qb", n)
            for rel in p.relators:
                assert is_zero_class(qt_class(expand(rel, n)))

    def test_shift_identity(self):
        for n in range(3, 7):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    a = qt_class(expand(((Atom.t(i, j), 1),), n))
                    b = qt_class(expand(((Atom.t(1, j - i + 1), 1),), n))
                    assert a == b

    def test_odd_torsion_identity(self):
        for n in (3, 5, 7):
            u = expand(((Atom.t(1, n - 1), n),), n)
            v = expand(((Atom.d(0), n * (n - 2)),), n)
            assert qt_class(u) == qt_class(v)

    def test_even_torsion_identity(self):
        for n in (4, 6):
            u = expand(((Atom.t(1, n - 1), n // 2),), n)
            v = expand(((Atom.d(0), n * (n - 2) // 2),), n)
            assert qt_class(u) == qt_class(v)

    def test_additive(self):
        rng = random.Random(50)
        for _ in range(50):
            n = rng.randint(3, 13)
            u = random_qt_word(rng, n)
            v = random_qt_word(rng, n)
            assert qt_class(concat(u, v)) == qt_class(u) + qt_class(v)

    def test_matches_combing_route(self):
        # a second route to the class: the exponent vector of d0^k times the
        # combed twist word of p, not p's linking numbers, over the
        # generators' roots, summed over the class columns of the roots
        rng = random.Random(52)
        for n in range(3, 14):
            a = h1(presentation("qb", n))
            rank = a.snf.rank
            for _ in range(15):
                w = random_qt_word(rng, n, 3)
                k, p = factor(w)
                x = [0] * n
                for atom, e in ((Atom.d(0), k),) + t_decompose(p):
                    x[presentations._root(atom)] += e
                z = [0] * (rank + a.free_rank)
                for r, e in enumerate(x):
                    z[a.columns[r]] += e
                y = a.combination(z)
                cv = qt_class(w)
                assert cv.free == tuple(y[rank:])
                assert cv.torsion == tuple(
                    y[c] % d for c, d in enumerate(a.snf.diag[:rank]) if d > 1
                )

    def test_diagonal_terms_are_linear(self):
        # a(i,j) combs into at most four twists, so the cache keeps at most
        # four (column, coefficient) pairs per diagonal, O(n) in all, and no
        # coordinate row; the terms are tuples, so no caller can change what
        # later calls read
        for n in (3, 10, 40):
            a, diagonal_terms = presentations._qb_h1(n)
            assert len(a.columns) == n and len(diagonal_terms) == n - 1
            assert all(type(terms) is tuple and len(terms) <= 4 for terms in diagonal_terms)
            assert all(
                0 <= col < a.snf.rank + a.free_rank for terms in diagonal_terms for col, _ in terms
            )

    def test_matches_pair_terms(self):
        # the terms as first kept, one tuple per pair i < j read from
        # a_to_t(n, i, j), equal those of the pair's diagonal, and the sum of
        # lk(i,j) times them, pair by pair, is the class qt_class reads
        rng = random.Random(54)
        for n in range(3, 41):
            a, diagonal_terms = presentations._qb_h1(n)
            pair_terms = {}
            for i, j in presentations._span_pairs(n):
                z = {}
                for atom, e in a_to_t(n, i, j):
                    p = a.columns[presentations._root(atom)]
                    z[p] = z.get(p, 0) + e
                pair_terms[i, j] = tuple((p, e) for p, e in z.items() if e)
                assert pair_terms[i, j] == diagonal_terms[j - i - 1], (n, i, j)
            rank = a.snf.rank
            for _ in range(4):
                w = random_qt_word(rng, n, 3)
                k, p = factor(w)
                lk = linking(p)
                z = [0] * (rank + a.free_rank)
                z[a.columns[0]] += k
                for (i, j), terms in pair_terms.items():
                    for col, e in terms:
                        z[col] += lk.lk(i, j) * e
                y = a.combination(z)
                cv = qt_class(w)
                assert cv.free == tuple(y[rank:])
                assert cv.torsion == tuple(
                    y[c] % d for c, d in enumerate(a.snf.diag[:rank]) if d > 1
                )

    def test_garside_invariant(self):
        rng = random.Random(51)
        for _ in range(40):
            n = rng.randint(3, 5)
            w = random_qt_word(rng, n)
            v = rewrite_equivalent(rng, w)
            assert equal(w, v)
            assert qt_class(w) == qt_class(v)

    def test_delta0_class_has_order_content(self):
        # d0 generates the cyclic part: n*(d0-class of the torsion coordinate)
        n = 5
        cv = qt_class(toric(n, 1))
        total = cv
        for _ in range(n - 1):
            total = total + cv
        full_twist = qt_class(expand(((Atom.t(1, n), 1),), n))
        assert total == full_twist

    def test_rejects_non_member(self):
        with pytest.raises(WordError):
            qt_class(BraidWord(4, (2,)))
