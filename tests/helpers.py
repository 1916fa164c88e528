"""Shared generators for randomized tests (seeded, reproducible)."""

from __future__ import annotations

import json
import random
from pathlib import Path

from qtbraid import Atom, BraidWord, gen_concat, gen_inverse, is_pure
from qtbraid import genset, presentations
from qtbraid.presentations import ClassVector, Presentation
from qtbraid.quasitoric import QuasitoricForm, qt_to_word
from qtbraid.snf import smith_normal_form
from qtbraid.words import GenWord, Table

# Outputs of comb and nf_word on fixed inputs at n=3-9, recorded before the
# backward-sweep normal form and the shared permutation-braid word routine, to
# pin the rewritten paths byte for byte; and decompose at n=4-16 and 21,
# re-recorded when decompose took to the central form, each new output
# certified Garside-equal to its input and to the output it replaced.
GOLDENS = json.loads((Path(__file__).parent / "data" / "rewrite_goldens.json").read_text())


class WatchedMemo(Table):
    """A Table that counts its clears and records its largest size."""

    clears = 0
    peak = 0

    def clear(self):
        self.clears += 1
        super().clear()

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


def compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of q -> f(g(q)) (0-based, as words.perm): g is applied first."""
    return tuple(f[v] for v in g)


def rewrite(gw: GenWord, n: int, variant: str) -> GenWord:
    """gw, a word in full twists and d0, rewritten by the library's thm41 twist
    table, and for variant "thm42" then by its short-twist table.

    The thm41 table fixes d0 and t1,j for j <= N, so on the thm41 alphabet
    "thm42" is the thm42 rewriting.
    """
    tables = genset._tables(n)
    out = tables["twists"].substitute(gw)
    return tables["short"].substitute(out) if variant == "thm42" else out


def stack_reduce(gw) -> GenWord:
    """Free reduction as first written, sharing no code with the library's:
    one pass with a stack, merging equal neighbours and dropping zeros."""
    out: list[tuple[Atom, int]] = []
    for atom, e in gw:
        if e == 0:
            continue
        if out and out[-1][0] == atom:
            merged = out.pop()[1] + e
            if merged:
                out.append((atom, merged))
        else:
            out.append((atom, e))
    return tuple(out)


def central_reduce(gw, n: int) -> GenWord:
    """The central form of gw on n strands, sharing no code with the library's.

    d0^n is central, so gw is d0^(n Q) times its reduced image in
    Z/n * F(other atoms).  One stack pass reduces it there, keeping each d0
    exponent as a residue 0..n-1 and dropping the residue 0; the residues
    are then moved into (-n/2, n/2].  d0^(n Q), with Q read off the total d0
    exponent, is spread one d0^(+-n) onto each of the first |Q| d0 syllables,
    the first of them taking what is left; with no d0 syllable it goes in front.
    """
    d0 = Atom.d(0)
    stack: list[tuple[Atom, int]] = []
    for atom, e in gw:
        if stack and stack[-1][0] == atom:
            e += stack.pop()[1]
        if atom == d0:
            e %= n
        if e:
            stack.append((atom, e))
    body = [(atom, e - n if atom == d0 and 2 * e > n else e) for atom, e in stack]
    central = sum(e for atom, e in gw if atom == d0) - sum(e for atom, e in body if atom == d0)
    assert central % n == 0, (gw, n)
    units, unit = abs(central) // n, (n if central > 0 else -n)
    at = [k for k, (atom, _) in enumerate(body) if atom == d0]
    if units and not at:
        body.insert(0, (d0, central))
    elif units:
        for k in at[:units]:
            body[k] = (d0, body[k][1] + unit)
        rest = units - len(at[:units])
        body[at[0]] = (d0, body[at[0]][1] + rest * unit)
    return tuple(body)


def substitute_then_reduce(image, gw: GenWord) -> GenWord:
    """The image of gw under atom -> image(atom), d0 -> d0, as first defined:
    concatenate image(atom)^e for every syllable, then free-reduce once."""
    d0 = Atom.d(0)
    out: list[tuple[Atom, int]] = []
    for atom, e in gw:
        if atom == d0:
            out.append((atom, e))
        else:
            word = image(atom)
            out.extend((word if e > 0 else gen_inverse(word)) * abs(e))
    return stack_reduce(out)


def gen_pow(gw: GenWord, k: int) -> GenWord:
    """gw^k, freely reduced; the inverse word for k < 0."""
    if k < 0:
        gw, k = gen_inverse(gw), -k
    return gen_concat(*([gw] * k))


def random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    return BraidWord(
        n,
        tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)),
    )


def random_pure_word(rng: random.Random, n: int, max_len: int = 10) -> BraidWord:
    """Rejection-sample a pure braid word of length <= max_len."""
    while True:
        w = random_word(rng, n, rng.randint(0, max_len))
        if is_pure(w):
            return w


def random_form(rng: random.Random, n: int, m: int) -> QuasitoricForm:
    return QuasitoricForm(
        n,
        tuple(
            tuple(rng.choice([1, -1]) for _ in range(n - 1)) for _ in range(m)
        ),
    )


def random_qt_word(rng: random.Random, n: int, max_rows: int = 5) -> BraidWord:
    return qt_to_word(random_form(rng, n, rng.randint(0, max_rows)))


def rewrite_equivalent(rng: random.Random, w: BraidWord, moves: int = 30) -> BraidWord:
    """Apply random braid-relation moves and free insertions; same group element."""
    letters = list(w.letters)
    n = w.strands
    for _ in range(moves):
        kind = rng.randint(0, 2)
        if kind == 0 and len(letters) > 1:
            k = rng.randrange(len(letters) - 1)
            if abs(abs(letters[k]) - abs(letters[k + 1])) >= 2:
                letters[k], letters[k + 1] = letters[k + 1], letters[k]
        elif kind == 1 and len(letters) >= 3:
            k = rng.randrange(len(letters) - 2)
            a, b, c = letters[k : k + 3]
            if a == c and a > 0 and b > 0 and abs(a - b) == 1:
                letters[k : k + 3] = [b, a, b]
        else:
            k = rng.randint(0, len(letters))
            x = rng.choice([1, -1]) * rng.randint(1, n - 1)
            letters[k:k] = [x, -x]
    return BraidWord(n, tuple(letters))


def is_zero_class(cv: ClassVector) -> bool:
    """True iff cv is the zero class of its group."""
    return cv == ClassVector((0,) * len(cv.free), (0,) * len(cv.torsion), cv.moduli)


def generator_roots(p: Presentation) -> list[int]:
    """The orbit root of each of p's generators, in order: presentations._root
    for qb, and the generator's own index for pb and pmod."""
    if p.group == "qb":
        return [presentations._root(atom) for atom in p.generators]
    return list(range(len(p.generators)))


def union_find_h1(p: Presentation):
    """H_1 as the library first computed it, from every exponent row that
    involves d0, with no orbit map: a signed union-find merges the two-term
    unit rows, and the rows that stay go to the Smith normal form over the
    roots they touch, then the free roots.  Returns (free_rank, torsion, snf,
    classes), where generator c is sign times class column k for
    (sign, k) = classes[c].

    A row with exactly two entries, both +-1, says x_a = +-x_b; replacing x_a
    by x_a -+ x_b is a unimodular column operation that makes the row a unit
    vector, so the row and the column of x_a drop out.  Each column is a sign
    times a root column, and of two joined roots the smaller index stays
    root.  A row whose two columns are already joined stays, like every
    other row.
    """
    n = p.strands
    rels = []
    if p.group == "qb":
        spans = presentations._span_pairs(n)
        rels = presentations._cyclic_relators(n, presentations._syllables(spans), spans)
    index = {atom: c for c, atom in enumerate(p.generators)}
    # column c is sign[c] times column parent[c]; a root is its own parent
    parent = list(range(len(p.generators)))
    sign = [1] * len(p.generators)

    def find(c: int) -> tuple[int, int]:
        """(root, s) with x_c = s x_root modulo the merged rows; compresses the path."""
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        sg = 1
        for node in reversed(path):
            sg *= sign[node]
            parent[node], sign[node] = c, sg
        return c, sg

    residue = []
    for rel in rels:
        row: dict[int, int] = {}
        for atom, e in rel:
            c = index[atom]
            row[c] = row.get(c, 0) + e
        entries = [(c, e) for c, e in row.items() if e]
        if len(entries) == 2 and all(e in (1, -1) for _, e in entries):
            (a, ea), (b, eb) = entries
            (ra, sa), (rb, sb) = find(a), find(b)
            if ra != rb:
                # ea x_a + eb x_b = 0 makes x_ra = -ea eb sa sb x_rb; the
                # larger root joins the smaller
                lo, hi = min(ra, rb), max(ra, rb)
                parent[hi], sign[hi] = lo, -ea * eb * sa * sb
                continue
        if entries:
            residue.append(entries)
    merged = []
    for entries in residue:
        row = {}
        for c, e in entries:
            root, sg = find(c)
            row[root] = row.get(root, 0) + sg * e
        if row := {c: e for c, e in row.items() if e}:
            merged.append(row)
    touched = sorted(set().union(*merged))
    matrix = [[row.get(c, 0) for c in touched] for row in merged]
    snf = smith_normal_form(matrix, cols=len(touched))
    column = {c: k for k, c in enumerate(touched)}
    roots = [c for c in range(len(parent)) if parent[c] == c]
    for c in roots:
        column.setdefault(c, len(column))
    classes = tuple((sg, column[root]) for root, sg in map(find, range(len(parent))))
    torsion = tuple(d for d in snf.invariant_factors if d > 1)
    free_rank = len(roots) - snf.rank
    return free_rank, torsion, snf, classes
