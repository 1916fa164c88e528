"""Independent checkers for the outputs of the qtbraid command line.

Nothing here imports qtbraid: every check is recomputed from the documented
conventions (README "Conventions" and "Word grammars"), so a fault in the
library cannot hide itself by agreeing with its own code.

* Words are lists of nonzero ints, +i = sigma_i, -i = sigma_i^-1, read left to
  right (top to bottom).
* A permutation is the list of 1-based images: entry q is the start position
  of the strand that ends at position q, so letter +-i swaps entries i-1, i.
* Burau: the unreduced Burau matrices at a random point t of GF(P), applied
  to a random row vector.  Equal braids give equal images; a mismatch proves
  two words differ, a match is a necessary condition only.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Iterable

P = 1_000_000_007  # below 2**30, so Python keeps residues in one machine digit


class CheckError(AssertionError):
    """An output of the program failed one of the benchmark's checks."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# words, permutations, generator grammar


def exponent_sum(letters: list[int]) -> int:
    return sum(1 if x > 0 else -1 for x in letters)


def permutation(n: int, letters: list[int]) -> list[int]:
    image = list(range(1, n + 1))
    for x in letters:
        i = abs(x)
        image[i - 1], image[i] = image[i], image[i - 1]
    return image


def invert(letters: list[int]) -> list[int]:
    return [-x for x in reversed(letters)]


Token = tuple[str, int, int, int]
_TOKENS: dict[str, Token] = {}  # rewriter outputs repeat a few tokens many times


def parse_token(tok: str) -> Token:
    body, _, exp = tok.partition("^")
    kind, idx = body[0], body[1:]
    i, _, j = idx.partition(",")
    return kind, int(i), int(j) if j else 0, int(exp) if exp else 1


def parse_genword(text: str) -> list[Token]:
    """Tokens "<kind><i>[,<j>][^e]" as (kind, i, j, e); j is 0 for s and d."""
    out = []
    for tok in text.split():
        token = _TOKENS.get(tok)
        if token is None:
            token = _TOKENS[tok] = parse_token(tok)
        out.append(token)
    return out


def atom_letters(n: int, kind: str, i: int, j: int) -> list[int]:
    """One atom of the generator grammar as sigma letters on n strands."""
    if kind == "s":
        return [i]
    if kind == "d":  # sigma_1 ... sigma_{n-1} with the last i letters inverted
        return [p if p < n - i else -p for p in range(1, n)]
    if kind == "t":  # (sigma_i ... sigma_{j-1})^(j-i+1)
        return list(range(i, j)) * (j - i + 1)
    if kind == "a":  # strand j loops once around strand i
        up = list(range(j - 1, i, -1))
        return up + [i, i] + invert(up)
    raise CheckError(f"unknown atom kind {kind!r}")


def atom_name(kind: str, i: int, j: int) -> str:
    return f"{kind}{i}" if kind in "sd" else f"{kind}{i},{j}"


Power = tuple[list[int], list[int], int]  # letters, permutation, exponent sum
_POWERS: dict[tuple[int, str, int, int, int], Power] = {}


def atom_power(n: int, kind: str, i: int, j: int, e: int) -> Power:
    """One atom^e of a generator word, expanded once per process."""
    key = (n, kind, i, j, e)
    if key not in _POWERS:
        base = atom_letters(n, kind, i, j)
        letters = (base if e > 0 else invert(base)) * abs(e)
        _POWERS[key] = (letters, permutation(n, letters), exponent_sum(letters))
    return _POWERS[key]


def genword_powers(n: int, text: str) -> list[Power]:
    return [atom_power(n, *token) for token in parse_genword(text)]


def expand_genword(n: int, text: str) -> list[int]:
    return [x for letters, _, _ in genword_powers(n, text) for x in letters]


def invariants(n: int, powers: list[Power]) -> tuple[list[int], int, int]:
    """(permutation, exponent sum, length) of a product of atom powers."""
    image = list(range(1, n + 1))
    for _, perm, _ in powers:
        image = [image[q - 1] for q in perm]
    return image, sum(p[2] for p in powers), sum(len(p[0]) for p in powers)


def positive_word(image: list[int]) -> list[int]:
    """A reduced positive word whose permutation is `image` (insertion sort)."""
    a = list(image)
    swaps = []
    for k in range(1, len(a)):
        q = k
        while q > 0 and a[q - 1] > a[q]:
            a[q - 1], a[q] = a[q], a[q - 1]
            swaps.append(q)
            q -= 1
    return swaps[::-1]


def inversions(image: list[int]) -> int:
    n = len(image)
    return sum(1 for p in range(n) for q in range(p + 1, n) if image[p] > image[q])


# ---------------------------------------------------------------------------
# Burau evaluation


class Burau:
    """Unreduced Burau image of a random row vector at a random t, mod P."""

    def __init__(self, n: int, rng: random.Random):
        self.n = n
        self.t = rng.randrange(2, P - 1)
        self.tinv = pow(self.t, P - 2, P)
        self.start = [rng.randrange(1, P) for _ in range(n)]

    def image(self, letters: Iterable[int]) -> list[int]:
        v = list(self.start)
        t, tinv = self.t, self.tinv
        one_t, one_tinv = (1 - t) % P, (1 - tinv) % P
        for x in letters:
            if x > 0:
                i = x - 1
                a = v[i]
                v[i] = (a * one_t + v[i + 1]) % P
                v[i + 1] = a * t % P
            else:
                i = -x - 1
                a, b = v[i], v[i + 1]
                v[i] = b * tinv % P
                v[i + 1] = (a + b * one_tinv) % P
        return v


class Checker:
    """Holds one Burau evaluation point per strand count."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"burau:{seed}")
        self._burau: dict[int, Burau] = {}
        self._delta: dict[int, list[int]] = {}

    def burau(self, n: int) -> Burau:
        if n not in self._burau:
            self._burau[n] = Burau(n, self._rng)
        return self._burau[n]

    def delta(self, n: int) -> list[int]:
        if n not in self._delta:
            self._delta[n] = positive_word(list(range(n, 0, -1)))
        return self._delta[n]

    def same_braid_invariants(self, n: int, got: list[int], want: list[int]) -> None:
        """Permutation, exponent sum and Burau image must all agree."""
        require(permutation(n, got) == permutation(n, want), "permutation differs")
        require(exponent_sum(got) == exponent_sum(want), "exponent sum differs")
        b = self.burau(n)
        require(b.image(got) == b.image(want), "Burau image differs")

    def genword_denotes(self, n: int, genword: str, want: list[int]) -> int:
        """The generator word has the invariants of `want`; returns its length."""
        powers = genword_powers(n, genword)
        image, total, length = invariants(n, powers)
        require(image == permutation(n, want), "permutation differs")
        require(total == exponent_sum(want), "exponent sum differs")
        b = self.burau(n)
        got = b.image(chain.from_iterable(p[0] for p in powers))
        require(got == b.image(want), "Burau image differs")
        return length

    def normal_form(self, n: int, word: list[int], nf: dict) -> int:
        """Validate a Garside normal form of `word`; returns its spelled-out length."""
        require(nf["strands"] == n, "strand count differs")
        inf = nf["inf"]
        factors = [list(f) for f in nf["factors"]]
        identity = list(range(1, n + 1))
        reversal = identity[::-1]
        for f in factors:
            require(sorted(f) == identity, f"factor {f} is not a permutation")
            require(f != identity and f != reversal, f"factor {f} is trivial or Delta")
        for a, b in zip(factors, factors[1:]):
            require(left_weighted(a, b), f"pair {a} | {b} is not left-weighted")
        degree = inf * n * (n - 1) // 2 + sum(inversions(f) for f in factors)
        require(degree == exponent_sum(word), "degree differs from exponent sum")
        spelled = self.spell(n, inf, factors)
        self.same_braid_invariants(n, spelled, word)
        return len(spelled)

    def spell(self, n: int, inf: int, factors: list[list[int]]) -> list[int]:
        delta = self.delta(n)
        letters = (delta if inf >= 0 else invert(delta)) * abs(inf)
        for f in factors:
            letters.extend(positive_word(f))
        return letters


def starting_set(image: list[int]) -> set[int]:
    """Letters s with sigma_s a prefix: the strands starting at s, s+1 cross."""
    end = [0] * (len(image) + 1)
    for q, start in enumerate(image, 1):
        end[start] = q
    return {s for s in range(1, len(image)) if end[s] > end[s + 1]}


def finishing_set(image: list[int]) -> set[int]:
    """Letters s with sigma_s a suffix: the strands ending at s, s+1 cross."""
    return {s for s in range(1, len(image)) if image[s - 1] > image[s]}


def left_weighted(a: list[int], b: list[int]) -> bool:
    return starting_set(b) <= finishing_set(a)


# ---------------------------------------------------------------------------
# presentations and quasitoric alphabets


def expected_h1(group: str, n: int) -> tuple[int, list[int]]:
    """The paper's closed forms for (free rank, torsion) of H_1."""
    if group == "pb":
        return n * (n - 1) // 2, []
    if group == "pmod":
        return (n + 1) * (n - 2) // 2, []
    if group == "qb":
        return (n // 2, [n // 2]) if n % 2 == 0 else ((n - 1) // 2, [n])
    raise CheckError(f"unknown group {group!r}")


def target_alphabet(variant: str, n: int) -> set[str]:
    size = n // 2 + 1
    if variant == "thm41":
        return {"d0"} | {f"t1,{j}" for j in range(2, size + 1)}
    if variant == "thm42":
        return {f"d{k}" for k in range(size)}
    raise CheckError(f"unknown target {variant!r}")


def check_alphabet(variant: str, n: int, genword: str) -> None:
    allowed = target_alphabet(variant, n)
    for kind, i, j, _ in parse_genword(genword):
        name = atom_name(kind, i, j)
        require(name in allowed, f"atom {name} outside the {variant} alphabet")


def check_h1(group: str, n: int, rank: int, torsion: list[int]) -> None:
    want = expected_h1(group, n)
    require((rank, list(torsion)) == want, f"H1({group}, {n}) = {rank}, {torsion}; want {want}")


def check_relator(n: int, genword: str) -> int:
    """A relator expands to a pure braid of exponent sum 0; returns its length."""
    image, total, length = invariants(n, genword_powers(n, genword))
    require(image == list(range(1, n + 1)), f"relator {genword} is not pure")
    require(total == 0, f"relator {genword} has nonzero exponent sum")
    return length


def add_classes(a: dict, b: dict) -> dict:
    moduli = a["moduli"]
    return {
        "free": [x + y for x, y in zip(a["free"], b["free"])],
        "torsion": [(x + y) % m for x, y, m in zip(a["torsion"], b["torsion"], moduli)],
        "moduli": moduli,
    }


def check_class_exponent(sums: dict, cls: dict, total: int) -> None:
    """Equal H_1 classes must have equal exponent sums.

    The exponent sum is a homomorphism to Z that kills commutators, so it
    factors through H_1(QB_n).  `sums` maps each class seen so far to its
    exponent sum and starts with the zero class at 0: a class map that sends
    a braid of nonzero exponent sum to zero is caught at once.
    """
    zero = (tuple(0 for _ in cls["free"]), tuple(0 for _ in cls["torsion"]))
    sums.setdefault(zero, 0)
    key = (tuple(cls["free"]), tuple(t % m for t, m in zip(cls["torsion"], cls["moduli"])))
    seen = sums.setdefault(key, total)
    require(seen == total, f"class {cls} has exponent sums {seen} and {total}")
