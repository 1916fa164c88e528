"""The word problem: left-greedy normal forms as an equality oracle.

Every braid has a unique factorization Delta^k f_1 ... f_m into a power of
the half twist and left-weighted permutation braids.  Comparing normal forms
decides equality of words, which is the engine behind all relator checking.
"""

import random
import time

from qtbraid import (
    BraidWord,
    concat,
    equal,
    is_trivial,
    normal_form,
    parse_word,
    toric,
)

# ------------------------------------------------------- canonical forms
u = parse_word(3, "1 2 1")
v = parse_word(3, "2 1 2")
print("nf(1 2 1)  =", normal_form(u))
print("nf(2 1 2)  =", normal_form(v))
print("equal      =", equal(u, v), "(the braid relation)")
print()

w = parse_word(4, "1 -2 3 3 -2")
print("nf(1 -2 3 3 -2) =", normal_form(w))
print("as JSON         =", normal_form(w).to_json())
print()

# ------------------------------------------------- the full twist is central
n = 5
full = toric(n, 1) ** n
ok = all(
    equal(concat(full, BraidWord(n, (i,))), concat(BraidWord(n, (i,)), full))
    for i in range(1, n)
)
print(f"delta_0^{n} commutes with every generator of B_{n}:", ok)
print("delta_0^n is trivial?", is_trivial(full), "(no: it generates the center)")
print()

# ------------------------------------------------------------ throughput
rng = random.Random(0)
word = BraidWord(8, tuple(rng.choice([1, -1]) * rng.randint(1, 7) for _ in range(2000)))
start = time.perf_counter()
nf = normal_form(word)
elapsed = time.perf_counter() - start
print(
    f"normal form of a random 2000-letter word in B_8: "
    f"{elapsed * 1000:.0f} ms, infimum {nf.inf}, canonical length {len(nf.factors)}"
)
