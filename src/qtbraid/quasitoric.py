"""Quasitoric forms, membership, and the cyclic/pure factorization.

An (n, m)-quasitoric word is m rows, each row running through
sigma_1 ... sigma_{n-1} in ascending index order with arbitrary signs;
the sign matrix is the defining datum.  A braid lies in the quasitoric
subgroup QB_n exactly when its permutation is a power of the n-cycle
rho, and every member factors as delta_0^k times a pure braid.  rho^k
maps each position q to q+k mod n, so where perm(w) sends 0 names the only
candidate k, and is_quasitoric tests membership with one tuple comparison.

File format for sign matrices: one row per line, characters '+'/'-',
exactly n-1 per line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import BraidWord, WordError, _check_length, perm


@dataclass(frozen=True)
class QuasitoricForm:
    """Sign matrix of an (n, m)-quasitoric word: m rows of n-1 entries in {+1, -1}."""

    strands: int
    rows: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.strands < 2:
            raise WordError(f"need at least 2 strands, got {self.strands}")
        for row in self.rows:
            if len(row) != self.strands - 1:
                raise WordError(
                    f"row length {len(row)} != {self.strands - 1} for {self.strands} strands"
                )
            if any(e not in (1, -1) for e in row):
                raise WordError("sign matrix entries must be +1 or -1")


def qt_to_word(form: QuasitoricForm) -> BraidWord:
    """Concatenate the rows: row j contributes sigma_1^{e_1} ... sigma_{n-1}^{e_{n-1}}."""
    letters: list[int] = []
    for row in form.rows:
        letters.extend(e * i for i, e in enumerate(row, start=1))
    return BraidWord(form.strands, tuple(letters))


def is_quasitoric(w: BraidWord) -> int | None:
    """Least k in [0, n-1] with perm(w) == rho^k, or None if w is not in QB_n.

    rho^k maps position q to q+k mod n (0-based, as words.perm), so the only
    candidate is k = perm(w).image[0].
    """
    image = perm(w).image
    k = image[0]
    rho_k = tuple(range(k, w.strands)) + tuple(range(k))
    return k if image == rho_k else None


def factor(w: BraidWord) -> tuple[int, BraidWord]:
    """Factor a member of QB_n as delta_0^k * p with p pure; returns (k, p).

    p is the word delta_0^-k w: k copies of delta_0^-1 = sigma_{n-1}^-1 ...
    sigma_1^-1, then w, built as one BraidWord.  A delta_0^-k of more than
    MAX_LETTERS letters is refused."""
    k = is_quasitoric(w)
    if k is None:
        raise WordError("braid is not quasitoric: permutation is not a power of the n-cycle")
    n = w.strands
    _check_length((n - 1) * k)
    return k, BraidWord(n, tuple(range(1 - n, 0)) * k + w.letters)


def parse_form_text(text: str, strands: int | None = None) -> QuasitoricForm:
    """Parse the '+'/'-' row file format; strands may be inferred from row width."""
    rows = []
    width = None if strands is None else strands - 1
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if width is None:
            width = len(line)
        if len(line) != width:
            raise WordError(f"line {lineno}: expected {width} signs, got {len(line)}")
        bad = line.replace("+", "").replace("-", "")
        if bad:
            raise WordError(f"line {lineno}: bad character {bad[0]!r}")
        rows.append(tuple(1 if ch == "+" else -1 for ch in line))
    if width is None:
        raise WordError("empty form needs an explicit strand count")
    return QuasitoricForm(width + 1, tuple(rows))


def format_form_text(form: QuasitoricForm) -> str:
    return "\n".join(
        "".join("+" if e > 0 else "-" for e in row) for row in form.rows
    )
