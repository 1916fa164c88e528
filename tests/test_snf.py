import math
import random

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from qtbraid.snf import _pivot, smith_normal_form


def brute_invariant_factors(matrix):
    if not matrix:
        return []
    return [int(x) for x in invariant_factors(sympy.Matrix(matrix)) if x != 0]


def assert_smith_form_of(m, s):
    """s is a Smith normal form of m: sympy's invariant factors, a unimodular
    right transform, and every row of m in the lattice of the d_t."""
    g = s.cols
    assert list(s.invariant_factors) == brute_invariant_factors(m)
    assert sympy.Matrix([list(row) for row in s.right]).det() in (1, -1)
    for row in m:
        y = [sum(x * v[c] for x, v in zip(row, s.right)) for c in range(g)]
        for c, val in enumerate(y):
            if c < len(s.diag) and s.diag[c]:
                assert val % s.diag[c] == 0
            else:
                assert val == 0


@st.composite
def _matrix_and_start(draw):
    r, g = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entries = st.integers(-4, 4) | st.just(0)  # zeros and +-1s are common
    m = draw(st.lists(st.lists(entries, min_size=g, max_size=g), min_size=r, max_size=r))
    return m, draw(st.integers(0, min(r, g)))


class TestPivot:
    @given(_matrix_and_start())
    def test_early_exit_equals_full_scan_minimum(self, case):
        m, t = case
        r, g = len(m), len(m[0])
        keys = [(abs(m[i][j]), i, j) for i in range(t, r) for j in range(t, g) if m[i][j]]
        assert _pivot(m, t, r, g) == (min(keys)[1:] if keys else None)


class TestSmithNormalForm:
    def test_pinned_examples(self):
        s = smith_normal_form([[2, 0], [0, 3]])
        assert s.diag == (1, 6)
        s = smith_normal_form([[2, 4], [4, 8]])
        assert s.diag == (2, 0)
        s = smith_normal_form([[0, 0], [0, 0]])
        assert s.diag == (0, 0)
        s = smith_normal_form([], cols=3)
        assert s.diag == () and s.rank == 0

    def test_divisibility_and_sign(self):
        rng = random.Random(30)
        for _ in range(200):
            r, g = rng.randint(1, 6), rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(g)] for _ in range(r)]
            s = smith_normal_form(m)
            facs = s.invariant_factors
            assert all(d > 0 for d in facs)
            for a, b in zip(facs, facs[1:]):
                assert b % a == 0
            # zeros only trail
            nonzero = [d for d in s.diag if d]
            assert s.diag[: len(nonzero)] == tuple(nonzero)

    def test_against_sympy(self):
        rng = random.Random(31)
        for _ in range(150):
            r, g = rng.randint(0, 6), rng.randint(1, 6)
            m = [[rng.randint(-20, 20) for _ in range(g)] for _ in range(r)]
            s = smith_normal_form(m, cols=g)
            assert list(s.invariant_factors) == brute_invariant_factors(m)

    def test_transform_is_unimodular_and_consistent(self):
        rng = random.Random(32)
        for _ in range(100):
            r, g = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(g)] for _ in range(r)]
            assert_smith_form_of(m, smith_normal_form(m))

    @given(
        st.integers(1, 6).flatmap(
            lambda g: st.lists(
                st.lists(st.integers(-6, 6), min_size=g, max_size=g), min_size=1, max_size=6
            )
        )
    )
    def test_property_bounded_matrices(self, m):
        assert_smith_form_of(m, smith_normal_form(m))

    def test_determinism(self):
        m = [[3, 1, -4], [2, -7, 1], [0, 5, 5]]
        assert smith_normal_form(m) == smith_normal_form([row[:] for row in m])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]])

    def test_empty_needs_cols(self):
        with pytest.raises(ValueError):
            smith_normal_form([])

    @pytest.mark.parametrize("cols", [1, 3])
    def test_rejects_cols_disagreeing_with_rows(self, cols):
        assert smith_normal_form([[1, 2], [3, 4]], cols=2).cols == 2
        with pytest.raises(ValueError, match="cols disagrees"):
            smith_normal_form([[1, 2], [3, 4]], cols=cols)

    def test_big_integers_exact(self):
        big = 10**30
        s = smith_normal_form([[big, big], [0, big]])
        assert s.diag == (big, big)


class TestDivisibilityFix:
    """Pivots that do not divide what is left below and right of them.

    No matrix the library builds needs the fix; these pin cases that do.
    """

    def test_diagonal_chain(self):
        m = [[4, 0, 0], [0, 6, 0], [0, 0, 10]]
        s = smith_normal_form(m)
        assert s.diag == (2, 2, 60)
        assert_smith_form_of(m, s)

    def test_diagonal_of_primes(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        m = [[p if a == b else 0 for b in range(12)] for a, p in enumerate(primes)]
        s = smith_normal_form(m)
        assert s.diag == (1,) * 11 + (math.prod(primes),)
        assert_smith_form_of(m, s)

    def test_offending_entry_off_the_diagonal(self):
        # the pivot 2 clears its row and column at once, and 3 at (1, 2) is not a multiple of it
        m = [[2, 0, 0], [0, 4, 3], [0, 6, 8]]
        s = smith_normal_form(m)
        assert s.diag == (1, 2, 14)
        assert_smith_form_of(m, s)
