"""Constructive decomposition into the two minimal generating sets.

With N = (n+1)/2 for odd n and (n+2)/2 for even n, the quasitoric braid
group is generated by either

    thm41:  d0 and the short full twists t1,2 ... t1,<N>
    thm42:  the cyclic braids d0, d1, ..., d<N-1>

and N matches the abelianization lower bound, so both sets are minimal.
`decompose` factors a quasitoric braid as d0^k * pure, combs the pure part
into the looping generators a<i>,<j>, and rewrites each of them, through its
full twists, over the chosen alphabet; every output is certified
Garside-equal to the input.
"""

import random

from qtbraid import equal, expand, format_generator_word, format_word
from qtbraid.genset import GensetTarget, decompose
from qtbraid.presentations import qt_class
from qtbraid.quasitoric import (
    QuasitoricForm,
    format_form_text,
    parse_form_text,
    qt_to_word,
)

# ------------------------------------------------------------ a worked example
form = parse_form_text("+-+\n--+\n-++")
w = qt_to_word(form)
print("the (4,3)-quasitoric braid with sign matrix")
print("    " + "\n    ".join(format_form_text(form).splitlines()))
print("as a word:", format_word(w))
print()

for variant in ("thm41", "thm42"):
    target = GensetTarget(variant, 4)
    out = decompose(w, target)
    print(f"{variant} alphabet {[str(a) for a in target.alphabet]}")
    print(f"  decomposition ({sum(abs(e) for _, e in out)} letters):")
    print("   ", format_generator_word(out))
    print("  re-expands equal to the input:", equal(expand(out, 4), w))
    print()

# ------------------------------------------------- the homology class of w
cv = qt_class(w)
print(
    f"homology class of w in H1(QB_4): free part {list(cv.free)}, "
    f"torsion {list(cv.torsion)} mod {list(cv.moduli)}"
)
print()

# ------------------------------------------------------------- bulk check
rng = random.Random(7)
checked = 0
for _ in range(25):
    n = rng.randint(3, 6)
    m = rng.randint(0, 5)
    u = qt_to_word(
        QuasitoricForm(
            n, tuple(tuple(rng.choice([1, -1]) for _ in range(n - 1)) for _ in range(m))
        )
    )
    for variant in ("thm41", "thm42"):
        out = decompose(u, GensetTarget(variant, n))
        assert equal(expand(out, n), u)
        checked += 1
print(f"{checked} random decompositions round-tripped through the oracle")
