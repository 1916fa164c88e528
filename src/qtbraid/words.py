"""Braid words, named braids, and elementary invariants.

Conventions
-----------
A braid on n strands is a word in the Artin generators sigma_1 ... sigma_{n-1};
we store a word as a tuple of nonzero integers, where +i means sigma_i and -i
means sigma_i^{-1}.  The product u*v stacks u on top of v, i.e. the letters of
u are read first.  Text form: whitespace-separated signed decimal integers,
so "1 2 -3" is sigma_1 sigma_2 sigma_3^{-1}.

The permutation of a braid maps each endpoint position to the starting
position of the strand that terminates there.  Positions are 0-based, here
and in the Garside factor arrays: one encoding throughout the package, which
only text and JSON output render 1-based.  With this convention the
permutation map is a homomorphism,

    perm(u * v).image[q] == perm(u).image[perm(v).image[q]],

and the cyclic braid delta_0 = sigma_1 ... sigma_{n-1} maps to the n-cycle
0 -> 1 -> ... -> n-1 -> 0.

Generator words are sequences of (atom, exponent) pairs over the symbolic
alphabet

    s<i>      Artin generator sigma_i
    d<k>      the cyclic braids: d0 = sigma_1 ... sigma_{n-1}, and for k >= 1
              d<k> = sigma_1 ... sigma_{n-k-1} sigma_{n-k}^{-1} ... sigma_{n-1}^{-1}
    t<i>,<j>  full twist of strands i..j, expanding to (sigma_i ... sigma_{j-1})^{j-i+1}
    a<i>,<j>  pure-braid generator, strand j looping once around strand i:
              (sigma_{j-1} ... sigma_{i+1}) sigma_i^2 (sigma_{i+1}^{-1} ... sigma_{j-1}^{-1})

Text form of a generator word: whitespace-separated tokens, each optionally
followed by ^<k> for a nonzero exponent, e.g. "d0^3 t1,4^-2 a2,5".
format_generator_word renders each (atom, exponent) syllable once and reuses
its text from a table; the output of comb and decompose, verify's FAIL lines
and the demos repeat a few dozen syllables many times.  The relator listing
(presentations.Presentation.relator_texts) calls _syllable_text itself, once
per twist syllable rather than once per relator syllable, and never reads the
table.

Every memo in the package is a Table, a dict that computes a missing value on
first lookup and, given a cap, empties itself before storing past it, except
garside's pair memo, which its one caller fills and caps, and the per-n
contexts of garside, genset and presentations: each of those is a
functools.lru_cache of STRAND_CACHE_SIZE strand counts (and cli builds its
argument parser once).  The syllable text table is capped at
SYLLABLE_CACHE_SIZE entries and comb's loop words (keyed across strand
counts) at purebraid.COMB_MEMO_CAP, so a long-lived process stays bounded.

In both grammars an integer is written in ASCII decimal digits with an
optional sign; '_' separators and other Unicode digits are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple


class WordError(ValueError):
    """Malformed word, invalid index, strand-count mismatch, or oversized word."""


# expand and toric refuse to build a word longer than this, before allocating
# it; the command line reports the refusal with exit code 2
MAX_LETTERS = 10_000_000

# format_generator_word keeps the text of at most this many distinct
# syllables; one benchmark round renders fewer than 100 of them on qt_rewrite
# (comb and decompose output) and none on presentation_check, whose relator
# listing bypasses the table
SYLLABLE_CACHE_SIZE = 4_096

# strand counts whose per-n tables each module keeps (its functools.lru_cache size)
STRAND_CACHE_SIZE = 16


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class Permutation:
    """A permutation of positions 0..n-1 stored as the tuple of images; str renders 1-based."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(n)):
            raise WordError(f"not a bijection of 0..{n - 1}: {self.image}")

    def is_identity(self) -> bool:
        return self.image == tuple(range(len(self.image)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, fixed points included, cycles sorted by minimum."""
        seen = [False] * len(self.image)
        out = []
        for start in range(len(self.image)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            q = self.image[start]
            while q != start:
                cyc.append(q)
                seen[q] = True
                q = self.image[q]
            out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        return " ".join(str(v + 1) for v in self.image)


# ---------------------------------------------------------------------------
# braid words


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of the braid group on `strands` strands.

    `letters` is a tuple of nonzero integers; +i is sigma_i, -i is sigma_i^{-1}.
    The empty tuple is the identity braid.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 2:
            raise WordError(f"need at least 2 strands, got {self.strands}")
        letters, top = self.letters, self.strands - 1
        # range check at C speed; scan letter by letter only to name the bad one
        if letters and (0 in letters or min(letters) < -top or max(letters) > top):
            for x in letters:
                if x == 0 or not 1 <= abs(x) <= top:
                    raise WordError(f"letter {x} out of range for {self.strands} strands")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return concat(self, other)

    def __pow__(self, k: int) -> "BraidWord":
        _check_length(len(self.letters) * abs(k))
        base = self if k >= 0 else inverse(self)
        return BraidWord(self.strands, base.letters * abs(k))

    def __str__(self) -> str:
        return format_word(self)


def _check_decimal_tokens(text: str, message: str) -> None:
    """Refuse tokens int() reads but the grammar does not: '_' separators, non-ASCII digits.

    The test runs over the whole text at C speed; tokens are searched only
    to name the bad one.
    """
    if text.isascii() and "_" not in text:
        return
    for tok in text.split():
        if not tok.isascii() or "_" in tok:
            raise WordError(f"{message} {tok!r}")


def parse_word(n: int, text: str) -> BraidWord:
    """Parse whitespace-separated signed decimal integers into a braid word."""
    _check_decimal_tokens(text, "bad word token")
    letters = []
    for tok in text.split():
        try:
            x = int(tok)
        except ValueError:
            raise WordError(f"bad word token {tok!r}") from None
        if x == 0:
            raise WordError("0 is not a valid letter")
        letters.append(x)
    return BraidWord(n, tuple(letters))


def format_word(w: BraidWord) -> str:
    return " ".join(str(x) for x in w.letters)


def concat(u: BraidWord, v: BraidWord) -> BraidWord:
    """The product of u and v: u stacked on top, letters of u read first."""
    if u.strands != v.strands:
        raise WordError(f"strand mismatch: {u.strands} vs {v.strands}")
    return BraidWord(u.strands, u.letters + v.letters)


def inverse(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands, tuple(-x for x in reversed(w.letters)))


def free_reduce(w: BraidWord) -> BraidWord:
    """Delete adjacent cancelling pairs sigma_i^{+-1} sigma_i^{-+1} until none remain."""
    out: list[int] = []
    for x in w.letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return BraidWord(w.strands, tuple(out))


def perm(w: BraidWord) -> Permutation:
    """The permutation of w; see the module docstring for the convention."""
    image = list(range(w.strands))
    for x in w.letters:
        i = abs(x) - 1
        image[i], image[i + 1] = image[i + 1], image[i]
    return Permutation(tuple(image))


def exponent_sum(w: BraidWord) -> int:
    """Sum of letter signs (the writhe); invariant under braid relations."""
    return sum(1 if x > 0 else -1 for x in w.letters)


def is_pure(w: BraidWord) -> bool:
    return perm(w).is_identity()


def closure_components(w: BraidWord) -> int:
    """Number of components of the closure: the cycle count of perm(w)."""
    return len(perm(w).cycles())


def toric(n: int, m: int) -> BraidWord:
    """The (n, m)-toric braid (sigma_1 ... sigma_{n-1})^m."""
    if n < 2:
        raise WordError(f"need at least 2 strands, got {n}")
    if m < 0:
        raise WordError(f"toric braid needs m >= 0, got {m}")
    _check_length((n - 1) * m)
    return BraidWord(n, tuple(range(1, n)) * m)


def delta_word(n: int, k: int) -> BraidWord:
    """The cyclic braid d<k>: all of sigma_1..sigma_{n-1}, the last k inverted."""
    return expand(((Atom.d(k), 1),), n)


# ---------------------------------------------------------------------------
# generator atoms and generator words


class Atom(NamedTuple):
    """A symbolic generator: kind 's'|'d'|'t'|'a' with one or two indices.

    A plain tuple (kind, i, j), so hashing and comparing atoms, which relator
    tables and free reduction do constantly, run in C.  Build atoms through
    the s/d/t/a constructors, which validate the indices.
    """

    kind: str
    i: int
    j: int = 0

    @staticmethod
    def s(i: int) -> "Atom":
        if i < 1:
            raise WordError(f"Artin generator index must be >= 1, got s{i}")
        return Atom("s", i)

    @staticmethod
    def d(k: int) -> "Atom":
        if k < 0:
            raise WordError(f"cyclic braid index must be >= 0, got d{k}")
        return Atom("d", k)

    @staticmethod
    def t(i: int, j: int) -> "Atom":
        if not 1 <= i < j:
            raise WordError(f"full twist needs 1 <= i < j, got t{i},{j}")
        return Atom("t", i, j)

    @staticmethod
    def a(i: int, j: int) -> "Atom":
        if not 1 <= i < j:
            raise WordError(f"pure-braid atom needs 1 <= i < j, got a{i},{j}")
        return Atom("a", i, j)

    def __str__(self) -> str:
        if self.kind in ("s", "d"):
            return f"{self.kind}{self.i}"
        return f"{self.kind}{self.i},{self.j}"


# a generator word is a tuple of (atom, nonzero exponent) pairs
GenWord = tuple[tuple[Atom, int], ...]

# the cyclic braid d0, whose n-th power is central: the fixed atom of every ImageTable
_D0 = Atom.d(0)


def gen_inverse(gw: GenWord) -> GenWord:
    return tuple((atom, -e) for atom, e in reversed(gw))


def gen_concat(*parts: GenWord) -> GenWord:
    return gen_reduce(syllable for part in parts for syllable in part)


def gen_reduce(gw: Iterable[tuple[Atom, int]]) -> GenWord:
    """Merge adjacent equal atoms and drop zero exponents (free reduction)."""
    return _reduce(gw)[0]


def _reduce(gw: Iterable[tuple[Atom, int]], n: int = 0) -> tuple[GenWord, int]:
    """(w, q): gw freely reduced to w, in one stack pass that merges each
    syllable into the top.  With n, whose d0^n is central, d0 exponents are
    kept in (-n/2, n/2], which is -h..n-1-h, and gw = d0^(n q) w, w in the
    central form of ImageTable.  A syllable that comes through unchanged is
    kept as the same tuple, so reducing a reduced word copies no syllable."""
    center, h = (_D0 if n else None), (n - 1) // 2
    out: list[tuple[Atom, int]] = []
    q = 0
    for syllable in gw:
        atom, e = syllable
        if out and out[-1][0] == atom:
            e += out.pop()[1]
        if atom == center:
            q, e = q + (e + h) // n, (e + h) % n - h
        if e:
            out.append(syllable if e == syllable[1] else (atom, e))
    return tuple(out), q


def _join(out: list[tuple[Atom, int]], piece: GenWord, n: int = 0) -> int:
    """Append the reduced word piece to the reduced list out; only the seam can merge.

    With n, whose d0^n is central, out and piece are reduced with every d0
    exponent in (-n/2, n/2]; two such exponents merged at the seam are
    brought back into that range, and the number of d0^n taken out is
    returned.  A d0 syllable that drops to 0 lets the merging go on.
    """
    center, q, k = (_D0 if n else None), 0, 0
    m = len(piece)
    while out and k < m and out[-1][0] == piece[k][0]:
        atom, e = out.pop()
        e, k = e + piece[k][1], k + 1
        if atom == center:  # e is in (-n, n], at most one n out of range
            if 2 * e > n:
                e, q = e - n, q + 1
            elif 2 * e <= -n:
                e, q = e + n, q - 1
        if e:
            out.append((atom, e))
            break  # piece is reduced, so its next atom differs
    out.extend(piece[k:])
    return q


class Table(dict):
    """key -> compute(key), computed on the first lookup of each key.

    With a cap, a miss that finds the table holding cap entries empties it
    before storing, so it never holds more.  A key whose compute raises is not
    stored.  A capped table's compute must not look the table itself up: a
    clear in the inner lookup could drop entries the outer one filled to read.
    """

    def __init__(self, compute: Callable, cap: int | None = None):
        self.compute, self.cap = compute, cap

    def __missing__(self, key):
        value = self.compute(key)
        if self.cap is not None and len(self) >= self.cap:
            self.clear()
        self[key] = value
        return value


class ImageTable(Table):
    """atom -> pieces of its image under a free-group homomorphism, built on first lookup.

    d0 maps to itself and is never looked up; d0^n is central (the paper's
    relation 3).  image(atom) returns the image word of one other atom,
    without looking the table up, and raises WordError for an atom outside
    the map's domain, so a foreign atom is never stored.  An entry may also
    be stored directly as _pieces(word, n), for a word the atom maps to:
    genset writes its long twists so, each a line substituted through the
    entries stored before it.

    Words are kept in central form: d0^(n q) times a reduced word with every
    d0 exponent in (-n/2, n/2], its image in Z/n * F(other atoms).  That form
    is unique: the reduced word of the image, with q fixed by the total d0
    exponent.  Each entry holds, for the image and for its inverse, a piece
    (head, body, tail, q): the word is d0^(n q + head) body d0^tail, with
    body neither starting nor ending in d0.  The inverse has a q of its own,
    since an even-n tie d0^-(n/2) is kept as d0^(n/2) d0^-n.  By the paper's
    relation 4, d0 x(i,j) d0^-1 = x(i+1,j+1), the table reads x(i,j), j <= n,
    as d0^(i-1) x(1,j-i+1) d0^-(i-1), so image is never given an x(i,j) with
    1 < i < j <= n.
    """

    def __init__(self, image: Callable[[Atom], GenWord], n: int):
        super().__init__(lambda atom: _pieces(image(atom), n))
        self.n = n

    def substitute(self, gw: GenWord) -> GenWord:
        """The image of gw in central form: image^e for each syllable atom^e,
        d0^e kept, even for unreduced gw or 0 exponents.

        One pass with one central counter q, spread over the result (_spread).
        pend is the d0 exponent owed at the end of out, which never ends in d0:
        each piece's head and tail, and each d0 syllable of gw, are added to it,
        and it is brought into (-n/2, n/2] and written only before the next
        body.  Bodies are reduced, so where pend is 0 only the seam can merge,
        and _join cancels as far as it does.
        """
        n, d0 = self.n, _D0
        h = (n - 1) // 2  # (-n/2, n/2] is -h..n-1-h
        out: list[tuple[Atom, int]] = []
        q, pend, get = 0, 0, self.get
        for atom, e in gw:
            if atom == d0:
                pend += e
                continue
            kind, i, j = atom  # x(i,j) with j > n is looked up as it is, and refused
            key = (kind, 1, j - i + 1) if 1 < i and 0 < j <= n else atom
            # a stored piece is read by its plain key; only a miss builds the Atom
            head, body, tail, c = (get(key) or self[Atom(*key)])[e < 0]
            if body and key is not atom:
                head, tail = head + i - 1, tail - i + 1
            q += c * abs(e)
            for _ in range(abs(e)):
                pend += head
                if not body:
                    continue
                if pend:
                    q, pend = q + (pend + h) // n, (pend + h) % n - h
                if pend:
                    out.append((d0, pend))
                    out += body
                    pend = 0
                elif out and out[-1][0] == body[0][0]:
                    q += _join(out, body, n)
                    if out and out[-1][0] == d0:  # body cancelled down to a d0 syllable
                        pend = out.pop()[1]
                else:
                    out += body
                pend += tail
        if pend:
            q, pend = q + (pend + h) // n, (pend + h) % n - h
        if pend:
            out.append((d0, pend))
        if q:
            _spread(out, q, n)
        return tuple(out)


def _spread(out: list[tuple[Atom, int]], q: int, n: int) -> None:
    """Multiply the central-form list out by d0^(n q), in place: one n (of
    q's sign) onto each of the first |q| d0 syllables, and what is left
    onto the first of them, or in front as d0^(n q) if out has none."""
    unit, left, first = (n if q > 0 else -n), abs(q), None
    for k, (atom, e) in enumerate(out):
        if atom == _D0:
            first = k if first is None else first
            out[k] = (_D0, e + unit)
            left -= 1
            if not left:
                return
    if first is None:
        out.insert(0, (_D0, n * q))
    else:
        out[first] = (_D0, out[first][1] + unit * left)


def _pieces(word: GenWord, n: int):
    """The ImageTable pieces (head, body, tail, q) of word and its inverse on
    n strands: what an entry holds in place of its image word and its inverse.

    The inverse of d0^(n q) w is d0^(-n q) w^-1.  w^-1 is reduced too, but at
    even n each d0^(n/2) of w turns into the tie d0^-(n/2), which _reduce
    writes as d0^(n/2) d0^-n, so its central count is what _reduce counts
    less q."""
    word, q = _reduce(word, n)
    inverse, inverse_q = _reduce(gen_inverse(word), n)
    return _piece(word, q), _piece(inverse, inverse_q - q)


def _piece(word: GenWord, q: int) -> tuple[int, GenWord, int, int]:
    head = tail = 0
    if word and word[0][0] == _D0:
        head, word = word[0][1], word[1:]
    if word and word[-1][0] == _D0:
        tail, word = word[-1][1], word[:-1]
    return head, word, tail, q


def _atom_length(atom: Atom, n: int) -> int:
    """Letter count of the atom's expansion on n strands, found without building it."""
    kind, i, j = atom.kind, atom.i, atom.j
    if kind == "s":
        ok, length = 1 <= i <= n - 1, 1
    elif kind == "d":
        ok, length = 0 <= i <= n - 1, n - 1
    elif kind in ("t", "a"):
        ok = 1 <= i < j <= n
        length = (j - i) * (j - i + 1) if kind == "t" else 2 * (j - i)
    else:
        raise WordError(f"unknown atom kind {kind!r}")
    if not ok:
        raise WordError(f"{atom} out of range for {n} strands")
    return length


def _atom_letters(atom: Atom, n: int) -> tuple[int, ...]:
    """The atom's expansion on n strands; the atom must be in range."""
    kind, i, j = atom.kind, atom.i, atom.j
    if kind == "s":
        return (i,)
    if kind == "d":
        return tuple(range(1, n - i)) + tuple(-p for p in range(n - i, n))
    if kind == "t":
        return tuple(range(i, j)) * (j - i + 1)
    return (
        tuple(range(j - 1, i, -1))
        + (i, i)
        + tuple(-p for p in range(i + 1, j))
    )


def _check_length(length: int) -> None:
    if length > MAX_LETTERS:
        raise WordError(
            f"word would have {length} letters, more than the limit of {MAX_LETTERS}"
        )


def check_expansion(gw: GenWord, n: int) -> None:
    """Refuse what expand(gw, n) would refuse, without building anything.

    Raises WordError for an atom out of range for n strands, or a word that
    would expand to more than MAX_LETTERS letters.
    """
    _check_length(sum(_atom_length(atom, n) * abs(e) for atom, e in gw))


def expand(gw: GenWord, n: int) -> BraidWord:
    """Expand a generator word into a braid word on n strands.

    Raises WordError before allocating if the result would exceed MAX_LETTERS.
    """
    check_expansion(gw, n)
    letters: list[int] = []
    for atom, e in gw:
        base = _atom_letters(atom, n)
        if e < 0:
            base = tuple(-x for x in reversed(base))
        letters.extend(base * abs(e))
    return BraidWord(n, tuple(letters))


def parse_generator_word(text: str) -> GenWord:
    """Parse the generator-word grammar: tokens s/d/t/a with optional ^<k>."""
    _check_decimal_tokens(text, "bad generator token")
    entries: list[tuple[Atom, int]] = []
    for tok in text.split():
        body, caret, exp_text = tok.partition("^")
        if caret:
            try:
                e = int(exp_text)
            except ValueError:
                raise WordError(f"bad exponent in token {tok!r}") from None
            if e == 0:
                raise WordError(f"zero exponent in token {tok!r}")
        else:
            e = 1
        if not body:
            raise WordError(f"bad generator token {tok!r}")
        kind, params = body[0], body[1:]
        try:
            if kind in ("s", "d"):
                atom = Atom.s(int(params)) if kind == "s" else Atom.d(int(params))
            elif kind in ("t", "a"):
                i_text, comma, j_text = params.partition(",")
                if not comma:
                    raise ValueError
                atom = Atom.t(int(i_text), int(j_text)) if kind == "t" else Atom.a(
                    int(i_text), int(j_text)
                )
            else:
                raise ValueError
        except ValueError:
            raise WordError(f"bad generator token {tok!r}") from None
        entries.append((atom, e))
    return tuple(entries)


def _syllable_text(syllable: tuple[Atom, int]) -> str:
    """The syllable's text, such as "t1,4^-2"."""
    atom, e = syllable
    return str(atom) if e == 1 else f"{atom}^{e}"


_SYLLABLE_TEXT = Table(_syllable_text, SYLLABLE_CACHE_SIZE)


def format_generator_word(gw: GenWord) -> str:
    return " ".join(map(_SYLLABLE_TEXT.__getitem__, gw))
