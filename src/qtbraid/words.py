"""Braid words, named braids, and elementary invariants.

Conventions
-----------
A braid on n strands is a word in the Artin generators sigma_1 ... sigma_{n-1};
we store a word as a tuple of nonzero integers, where +i means sigma_i and -i
means sigma_i^{-1}.  The product u*v stacks u on top of v, i.e. the letters of
u are read first.  Text form: whitespace-separated signed decimal integers,
so "1 2 -3" is sigma_1 sigma_2 sigma_3^{-1}.

The permutation of a braid maps each endpoint position to the starting
position of the strand that terminates there.  With this convention the
permutation map is a homomorphism,

    perm(u * v) == compose(perm(u), perm(v)),

where compose(f, g) applies g first, and the cyclic braid
delta_0 = sigma_1 ... sigma_{n-1} maps to the n-cycle 1 -> 2 -> ... -> n -> 1.

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
its text from a table; relator tables and rewriter output repeat a few hundred
syllables many thousand times.

Every memo in the package is a Table: a dict that computes a missing value on
first lookup and, given a cap, empties itself before storing past it.  The
syllable text table is capped at SYLLABLE_CACHE_SIZE entries.  The per-strand-
count contexts of garside, purebraid, genset and presentations are kept for at
most STRAND_CACHE_SIZE strand counts each, so a long-lived process stays bounded.

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
# and 196 on presentation_check
SYLLABLE_CACHE_SIZE = 4_096

# strand counts whose per-n tables each module keeps (its functools.lru_cache size)
STRAND_CACHE_SIZE = 16


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} stored as the tuple of images (1-based)."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise WordError(f"not a bijection of 1..{n}: {self.image}")

    @property
    def size(self) -> int:
        return len(self.image)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def rotation(n: int) -> "Permutation":
        """The n-cycle 1 -> 2 -> ... -> n -> 1."""
        return Permutation(tuple(range(2, n + 1)) + (1,))

    def __call__(self, q: int) -> int:
        return self.image[q - 1]

    def is_identity(self) -> bool:
        return all(v == q + 1 for q, v in enumerate(self.image))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for q, v in enumerate(self.image):
            inv[v - 1] = q + 1
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """The permutation q -> self(other(q)); other is applied first."""
        if self.size != other.size:
            raise WordError("size mismatch in permutation composition")
        return Permutation(tuple(self.image[v - 1] for v in other.image))

    def __pow__(self, k: int) -> "Permutation":
        n = self.size
        result = Permutation.identity(n)
        base = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            result = base.compose(result)
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, fixed points included, cycles sorted by minimum."""
        seen = [False] * self.size
        out = []
        for start in range(1, self.size + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            q = self.image[start - 1]
            while q != start:
                cyc.append(q)
                seen[q - 1] = True
                q = self.image[q - 1]
            out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.image)


def compose(f: Permutation, g: Permutation) -> Permutation:
    """compose(f, g)(q) == f(g(q)); matches perm(concat(u, v)) == compose(perm(u), perm(v))."""
    return f.compose(g)


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
    image = list(range(1, w.strands + 1))
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


def gen_inverse(gw: GenWord) -> GenWord:
    return tuple((atom, -e) for atom, e in reversed(gw))


def gen_concat(*parts: GenWord) -> GenWord:
    out: list[tuple[Atom, int]] = []
    for part in parts:
        out.extend(part)
    return gen_reduce(tuple(out))


def gen_pow(gw: GenWord, k: int) -> GenWord:
    if k < 0:
        gw, k = gen_inverse(gw), -k
    return gen_concat(*([gw] * k))


def gen_reduce(gw: Iterable[tuple[Atom, int]]) -> GenWord:
    """Merge adjacent equal atoms and drop zero exponents (free reduction)."""
    out: list[tuple[Atom, int]] = []
    for atom, e in gw:
        if e == 0:
            continue
        if out and out[-1][0] == atom:
            merged = out[-1][1] + e
            out.pop()
            if merged:
                out.append((atom, merged))
        else:
            out.append((atom, e))
    return tuple(out)


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
    """atom -> (image, inverse image) under a free-group homomorphism, built on first lookup.

    image(atom) returns the image word of one atom; it may look other atoms up
    in the same table, and it raises WordError for an atom outside the map's
    domain, so a foreign atom is never stored.  The fixed atom, if any, maps
    to itself and is never looked up.
    """

    def __init__(self, image: Callable[[Atom], GenWord], fixed: Atom | None = None):
        super().__init__(lambda atom: _with_inverse(image(atom)))
        self.fixed = fixed

    def substitute(self, gw: GenWord) -> GenWord:
        """The image of gw: image^e for each syllable atom^e, one free reduction at the end.

        That equals reducing after every syllable: the map is a homomorphism
        of free groups on the atoms, and gen_reduce's stack reduction gives the
        unique reduced form of a free-group element, however reached.
        """
        out: list[tuple[Atom, int]] = []
        fixed = self.fixed
        for atom, e in gw:
            if atom == fixed:
                out.append((atom, e))
            else:
                image, inverse = self[atom]
                out.extend((image if e > 0 else inverse) * abs(e))
        return gen_reduce(out)


def _with_inverse(word: GenWord) -> tuple[GenWord, GenWord]:
    return word, gen_inverse(word)


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
