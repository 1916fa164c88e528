"""Smith normal form over the integers, exact and with the column transform.

Given an integer matrix M (rows = relations, columns = generators) there are
unimodular U, V with U M V = D diagonal, d_1 | d_2 | ... and d_i >= 0.  Only V
is tracked: a generator-exponent row vector x has coordinates x V in the
quotient group Z^g / rowspan(M).  V is carried as the g rows after the r rows
of M, starting from the identity, so every column operation acts on both at
once, while row operations stop at row r.  Arithmetic is Python int, so there
is no overflow to silence.

Pivoting is deterministic (smallest absolute value, then lowest row, then
lowest column), and invariant factors are normalized positive and ascending,
so identical inputs give identical transforms.
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

    `cols` must be given when the matrix has no rows.
    """
    r = len(matrix)
    if r:
        g = len(matrix[0])
        if any(len(row) != g for row in matrix):
            raise ValueError("ragged matrix")
        if cols is not None and cols != g:
            raise ValueError("cols disagrees with matrix width")
    else:
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        g = cols
    m = [list(row) for row in matrix]
    m += ([1 if a == b else 0 for b in range(g)] for a in range(g))

    def swap_cols(a: int, b: int) -> None:
        for row in m:
            row[a], row[b] = row[b], row[a]

    def add_col(dst: int, src: int, q: int) -> None:
        # column dst += q * column src
        for row in m:
            row[dst] += q * row[src]

    def negate_col(a: int) -> None:
        for row in m:
            row[a] = -row[a]

    def clear_at(t: int) -> None:
        """Make m[t][t] the only nonzero entry in its row and column."""
        while True:
            piv = _pivot(m, t, r, g)
            if piv is None:
                return
            i, j = piv
            if i != t:
                m[t], m[i] = m[i], m[t]
            if j != t:
                swap_cols(t, j)
            dirty = False
            for i in range(t + 1, r):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    if q:
                        for c in range(g):
                            m[i][c] -= q * m[t][c]
                    if m[i][t]:
                        dirty = True
            for j in range(t + 1, g):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    if q:
                        add_col(j, t, -q)
                    if m[t][j]:
                        dirty = True
            if not dirty:
                return

    limit = min(r, g)

    def diagonalize(start: int) -> None:
        for t in range(start, limit):
            clear_at(t)
            if m[t][t] == 0:
                break
        for t in range(start, limit):
            if m[t][t] < 0:
                negate_col(t)

    diagonalize(0)

    # enforce the divisibility chain d_t | d_{t+1}; a repair can shrink d_t,
    # so rescan from the top (these matrices are small)
    t = 0
    while t + 1 < limit:
        a, b = m[t][t], m[t + 1][t + 1]
        if a and b % a != 0:
            add_col(t, t + 1, 1)
            diagonalize(t)
            t = 0
            continue
        t += 1

    diag = tuple(m[t][t] for t in range(limit))
    return SmithNormalForm(r, g, diag, tuple(tuple(row) for row in m[r:]))
