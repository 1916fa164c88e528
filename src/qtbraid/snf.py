"""Smith normal form over the integers, exact and with the column transform.

Given an integer matrix M (rows = relations, columns = generators) there are
unimodular U, V with U M V = D diagonal, d_1 | d_2 | ... and d_i >= 0.  Only V
is tracked: a generator-exponent row vector x has coordinates x V in the
quotient group Z^g / rowspan(M).  V is carried as the g rows after the r rows
of M, starting from the identity, so every column operation acts on both at
once, while row operations stop at row r.  Arithmetic is Python int, so there
is no overflow to silence.

It is one elimination loop, which fixes divisibility at the step where it
fails, by adding a row (Cohen, A Course in Computational Algebraic Number
Theory, GTM 138, 2.4).  Pivoting is deterministic (smallest absolute value,
then lowest row, then lowest column), and invariant factors are normalized
positive and ascending, so identical inputs give identical transforms.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SmithNormalForm:
    """Diagonal d_1 | d_2 | ..., rank, and the g x g right transform V."""

    rows: int
    cols: int
    diag: tuple[int, ...]
    right: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d != 0)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diag if d != 0)


def _pivot(m: list[list[int]], t: int, r: int, g: int) -> tuple[int, int] | None:
    """The pivot of step t: the nonzero m[i][j], t <= i < r and t <= j < g,
    least by (|value|, i, j).

    In row-major order the first +-1 met has the least key, so the scan stops there.
    """
    best = None
    for i in range(t, r):
        row = m[i]
        for j in range(t, g):
            val = row[j]
            if val:
                if val == 1 or val == -1:
                    return i, j
                key = (abs(val), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(matrix: list[list[int]], cols: int | None = None) -> SmithNormalForm:
    """Compute the Smith normal form of an integer matrix.

    `cols` must be given when the matrix has no rows.  Step t moves the pivot
    to (t, t), reduces rows t+1.. by row t and columns t+1.. by column t, and
    repeats while a remainder is left.  Then, if the pivot d is not +-1 and
    does not divide some entry below and right of it, that entry's row is
    added to row t and the step repeats: its next pivot is a remainder
    smaller than |d|, so the fix ends, and every later pivot is a multiple of
    d.  Column t is negated if d < 0; no later step reads it.  A matrix that
    never needs the fix gets the plain elimination's transform.
    """
    r = len(matrix)
    if not r and cols is None:
        raise ValueError("empty matrix needs an explicit column count")
    g = len(matrix[0]) if r else cols
    if any(len(row) != g for row in matrix):
        raise ValueError("ragged matrix")
    if cols is not None and cols != g:
        raise ValueError("cols disagrees with matrix width")
    m = [list(row) for row in matrix]
    m += ([1 if a == b else 0 for b in range(g)] for a in range(g))
    t = 0
    while t < min(r, g):
        piv = _pivot(m, t, r, g)
        if piv is None:
            break
        i, j = piv
        m[t], m[i] = m[i], m[t]
        if j != t:
            for row in m:
                row[t], row[j] = row[j], row[t]
        top, d = m[t], m[t][t]
        dirty = False
        for row in m[t + 1 : r]:
            if row[t]:
                q = row[t] // d
                if q:
                    row[:] = [a - q * b for a, b in zip(row, top)]
                dirty = dirty or row[t] != 0
        for j in range(t + 1, g):
            if top[j]:
                q = top[j] // d
                if q:
                    for row in m:
                        row[j] -= q * row[t]
                dirty = dirty or top[j] != 0
        if dirty:
            continue
        if d != 1 and d != -1:
            bad = next((row for row in m[t + 1 : r] if any(x % d for x in row[t + 1 :])), None)
            if bad is not None:
                top[:] = [a + b for a, b in zip(top, bad)]
                continue
        if d < 0:
            for row in m:
                row[t] = -row[t]
        t += 1
    diag = tuple(m[k][k] for k in range(min(r, g)))
    return SmithNormalForm(r, g, diag, tuple(tuple(row) for row in m[r:]))
