import json
import math
import random
from pathlib import Path

import pytest

from qtbraid import (
    Atom,
    BraidWord,
    WordError,
    concat,
    equal,
    expand,
    gen_concat,
    toric,
)
from qtbraid import presentations
from qtbraid.presentations import (
    AbelianStructure,
    _relator_count,
    h1,
    min_generators,
    pb_relators,
    pmod_relators,
    presentation,
    qb_relators,
    qt_class,
    verify,
)
from qtbraid.snf import smith_normal_form

from helpers import random_qt_word, rewrite_equivalent

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "relator_counts.json").read_text()
)


def brute_commutation_count(n):
    """Independent enumeration: unordered span pairs, disjoint or nested."""
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    count = 0
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            (i, j), (k, l) = pairs[a], pairs[b]
            if j < k or l < i or (k <= i and j <= l) or (i <= k and l <= j):
                count += 1
    return count


class TestRelatorEnumeration:
    def test_pentagonal_counts(self):
        for n, want in ((5, 1), (6, 6), (7, 21)):
            p = pb_relators(n)
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
        assert _relator_count("qb", 14) == 4824
        monkeypatch.setattr(presentations, "MAX_RELATORS", 4823)
        for group in ("pb", "qb", "pmod"):
            presentation(group, 13)
        with pytest.raises(WordError, match="limit"):
            presentation("qb", 14)
        with pytest.raises(WordError, match="limit"):
            presentation("pb", 1000)

    def test_generator_counts(self):
        for n in range(3, 9):
            assert len(pb_relators(n).generators) == math.comb(n, 2)
            assert len(pmod_relators(n).generators) == math.comb(n, 2) - 1
            assert len(qb_relators(n).generators) == math.comb(n, 2) + 1

    def test_nested_pair_present_at_n3(self):
        rels = pb_relators(3).relators
        nested = gen_concat(
            ((Atom.t(1, 3), 1),),
            ((Atom.t(2, 3), 1),),
            ((Atom.t(1, 3), -1),),
            ((Atom.t(2, 3), -1),),
        )
        assert nested in rels

    def test_touching_spans_absent(self):
        # t(1,2) and t(2,3) share an endpoint: no commutation relator
        for rel in pb_relators(3).relators:
            atoms = {atom for atom, _ in rel}
            assert atoms != {Atom.t(1, 2), Atom.t(2, 3)}

    def test_small_n_rejected(self):
        for builder in (pb_relators, qb_relators, pmod_relators):
            with pytest.raises(WordError):
                builder(2)

    def test_qb_case_relators(self):
        rels = qb_relators(5).relators
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


class TestVerify:
    @pytest.mark.parametrize("group", ["pb", "qb"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_all_relators_trivial(self, group, n):
        report = verify(presentation(group, n))
        assert report.ok
        assert report.checked == GOLDEN[f"{group},{n}"]["total"]

    def test_corrupted_relator_detected(self):
        p = qb_relators(4)
        corrupted = []
        for rel in p.relators:
            atom, e = rel[0]
            corrupted.append(((atom, -e),) + rel[1:])
        bad = p.__class__(p.group, p.strands, p.generators, tuple(corrupted))
        report = verify(bad)
        # flipping one sign breaks all non-commutation relators
        assert report.failures

    def test_pmod_not_verifiable(self):
        with pytest.raises(WordError):
            verify(pmod_relators(4))


class TestH1:
    def test_qb_structure(self):
        for n, rank, torsion in ((3, 1, (3,)), (4, 2, (2,)), (6, 3, (3,))):
            a = h1(qb_relators(n))
            assert (a.free_rank, a.torsion) == (rank, torsion)

    def test_pb_free(self):
        for n in range(3, 8):
            a = h1(pb_relators(n))
            assert a.free_rank == math.comb(n, 2) and a.torsion == ()

    def test_pmod_free(self):
        for n in range(3, 8):
            a = h1(pmod_relators(n))
            assert a.free_rank == math.comb(n, 2) - 1 and a.torsion == ()

    @pytest.mark.parametrize("group", ["pb", "qb", "pmod"])
    def test_zero_rows_dropped_exactly(self, group):
        # h1 hands only the nonzero exponent rows to the Smith normal form;
        # the full matrix must give the same H_1 and the same transform
        for n in range(3, 11):
            p = presentation(group, n)
            index = {atom: c for c, atom in enumerate(p.generators)}
            full = []
            for rel in p.relators:
                row = [0] * len(p.generators)
                for atom, e in rel:
                    row[index[atom]] += e
                full.append(row)
            s = smith_normal_form(full, cols=len(p.generators))
            a = h1(p)
            assert a.snf.invariant_factors == s.invariant_factors
            assert a.snf.right == s.right
            assert a.free_rank == len(p.generators) - s.rank
            assert a.torsion == tuple(d for d in s.invariant_factors if d > 1)
            assert a.snf.rows == sum(1 for row in full if any(row))

    def test_min_generators(self):
        assert min_generators(h1(qb_relators(3))) == 2
        assert min_generators(h1(qb_relators(4))) == 3
        # one generator killed by one relator: the trivial group needs none
        trivial = AbelianStructure(
            "qb", 3, (Atom.t(1, 2),), 0, (), smith_normal_form([[1]])
        )
        assert min_generators(trivial) == 0


class TestQtClass:
    def test_relators_vanish(self):
        for n in (3, 4):
            p = qb_relators(n)
            for rel in p.relators:
                assert qt_class(expand(rel, n)).is_zero()

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
            n = rng.randint(3, 6)
            u = random_qt_word(rng, n)
            v = random_qt_word(rng, n)
            assert qt_class(concat(u, v)) == qt_class(u) + qt_class(v)

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
