"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import random
import time
from pathlib import Path

from qtbraid import (
    Atom,
    BraidWord,
    concat,
    equal,
    expand,
    exponent_sum,
    gen_concat,
    inverse,
    is_pure,
    perm,
    toric,
)
from qtbraid.genset import GensetTarget, decompose
from qtbraid.presentations import (
    h1,
    min_generators,
    presentation,
    qt_class,
    verify,
)
from qtbraid.purebraid import a_to_t, linking, t_decompose
from qtbraid.quasitoric import factor, qt_to_word

from helpers import (
    central_reduce,
    is_zero_class,
    random_form,
    random_pure_word,
    random_qt_word,
    rewrite,
    rewrite_equivalent,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "relator_counts.json").read_text()
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def atom_word(atom, n):
    return expand(((atom, 1),), n)


def test_criterion_1_presentation_soundness():
    start = time.perf_counter()
    failures = 0
    checked = 0
    for n in range(3, 8):
        for group in ("pb", "qb"):
            p = presentation(group, n)
            gold = GOLDEN[f"{group},{n}"]
            assert len(p.relators) == gold["total"]
            assert gold["pentagonal"] == math.comb(n, 5)
            report = verify(p)
            checked += report.checked
            failures += len(report.failures)
    elapsed = time.perf_counter() - start
    _report(
        1,
        failures == 0 and elapsed < 60.0,
        f"{checked} relators of the pure and quasitoric presentations are "
        f"Garside-trivial for n=3..7, {failures} failures, counts match the "
        f"golden file, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_qb_abelianization():
    start = time.perf_counter()
    ok = True
    for n in range(3, 21):
        a = h1(presentation("qb", n))
        if n % 2:
            ok = ok and a.free_rank == (n - 1) // 2 and a.torsion == (n,)
        else:
            ok = ok and a.free_rank == n // 2 and a.torsion == (n // 2,)
    elapsed = time.perf_counter() - start
    _report(
        2,
        ok and elapsed < 5.0,
        f"H1(QB_n) has rank (n-1)/2 with Z_n torsion (odd) and rank n/2 with "
        f"Z_(n/2) torsion (even), exactly, for n=3..20, {elapsed:.1f}s (< 5s)",
    )


def test_criterion_3_pb_pmod_abelianizations():
    ok = True
    for n in range(3, 11):
        apb = h1(presentation("pb", n))
        apmod = h1(presentation("pmod", n))
        ok = ok and apb.free_rank == math.comb(n, 2) and apb.torsion == ()
        ok = ok and apmod.free_rank == math.comb(n, 2) - 1 and apmod.torsion == ()
    _report(
        3,
        ok,
        "H1 of the pure braid group is Z^C(n,2) and of the punctured-sphere "
        "pure mapping class group Z^(C(n,2)-1), exactly, for n=3..10",
    )


def test_criterion_4_minimal_generator_count():
    ok = True
    for n in range(3, 21):
        bound = (n + 1) // 2 if n % 2 else (n + 2) // 2
        ok = ok and min_generators(h1(presentation("qb", n))) == bound
        ok = ok and len(GensetTarget("thm41", n).alphabet) == bound
        ok = ok and len(GensetTarget("thm42", n).alphabet) == bound
    _report(
        4,
        ok,
        "the H1 lower bound equals (n+1)/2 (odd) / (n+2)/2 (even) and both "
        "generating-set alphabets have exactly that size, n=3..20",
    )


def _piecewise(gw, n, variant):
    """gw rewritten one syllable at a time and concatenated, reduced nowhere."""
    return tuple(s for syllable in gw for s in rewrite((syllable,), n, variant))


def _rewrites_piecewise(w, out, variant):
    """out is central_reduce of w's d0 power and twists, rewritten piecewise."""
    k, p = factor(w)
    gw = ((Atom.d(0), k),) + t_decompose(p)
    return out == central_reduce(_piecewise(gw, w.strands, variant), w.strands)


def test_criterion_5_rewriting_soundness():
    start = time.perf_counter()
    ok = True
    for n in range(3, 7):
        t41 = GensetTarget("thm41", n)
        t42 = GensetTarget("thm42", n)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                ref = atom_word(Atom.t(i, j), n)
                w41 = rewrite(((Atom.t(i, j), 1),), n, "thm41")
                w42 = rewrite(w41, n, "thm42")
                ok = ok and w42 == central_reduce(_piecewise(w41, n, "thm42"), n)
                ok = ok and t41.admits(w41) and equal(expand(w41, n), ref)
                ok = ok and t42.admits(w42) and equal(expand(w42, n), ref)
    # the full pipeline (factor, comb, rewrite) on every expanded twist word
    for n in range(3, 7):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                w = atom_word(Atom.t(i, j), n)
                for variant in ("thm41", "thm42"):
                    target = GensetTarget(variant, n)
                    out = decompose(w, target)
                    ok = ok and _rewrites_piecewise(w, out, variant)
                    ok = ok and target.admits(out) and equal(expand(out, n), w)
    rng = random.Random(1729)
    for _ in range(100):
        n = rng.randint(3, 6)
        w = qt_to_word(random_form(rng, n, rng.randint(0, 5)))
        for variant in ("thm41", "thm42"):
            target = GensetTarget(variant, n)
            out = decompose(w, target)
            ok = ok and _rewrites_piecewise(w, out, variant)
            ok = ok and target.admits(out) and equal(expand(out, n), w)
    elapsed = time.perf_counter() - start
    _report(
        5,
        ok and elapsed < 120.0,
        f"every full twist (n=3..6) and 100 random quasitoric forms decompose "
        f"into both alphabets in central form and re-expand Garside-equal, "
        f"alphabet confinement holds, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_6_derived_formula_gate():
    ok = True
    # the twist expansion: delta_0^n == t(1,n) as group elements
    for n in range(3, 8):
        ok = ok and equal(toric(n, 1) ** n, atom_word(Atom.t(1, n), n))
    # indicator linking matrices for every twist, and the a-to-t identity
    for n in range(3, 8):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                lk = linking(atom_word(Atom.t(i, j), n))
                ok = ok and all(
                    lk.lk(k, l) == (1 if i <= k < l <= j else 0)
                    for k in range(1, n)
                    for l in range(k + 1, n + 1)
                )
                ok = ok and equal(
                    expand(a_to_t(n, i, j), n), atom_word(Atom.a(i, j), n)
                )
    _report(
        6,
        ok,
        "full-twist expansion validated by the delta_0^n identity and by "
        "indicator linking matrices, and the a-to-t change of basis is "
        "oracle-verified for all pairs, n=3..7",
    )


def test_criterion_7_identity_suite():
    ok = True
    for n in range(3, 8):
        d0 = toric(n, 1)
        # index-shift conjugation for 2 <= i < j <= n
        for i in range(2, n):
            for j in range(i + 1, n + 1):
                lhs = concat(concat(inverse(d0), atom_word(Atom.t(i, j), n)), d0)
                ok = ok and equal(lhs, atom_word(Atom.t(i - 1, j - 1), n))
        # four-hole relators around delta_0, 2 <= i <= n-1
        for i in range(2, n):
            lhs = gen_concat(
                ((Atom.t(1, i), 1),),
                ((Atom.t(2, n), 1),),
                ((Atom.d(0), 1), (Atom.t(i, n), 1), (Atom.d(0), -1)),
            )
            rhs = gen_concat(
                ((Atom.t(2, i), 1),) if 2 < i else (),
                ((Atom.t(i + 1, n), 1),) if i + 1 < n else (),
                ((Atom.t(1, n), 1),),
            )
            ok = ok and equal(expand(lhs, n), expand(rhs, n))
        # four-hole relators with short spans, 2 <= j <= n-2
        for j in range(2, n - 1):
            lhs = gen_concat(
                ((Atom.t(1, n - 1), 1),),
                ((Atom.t(j + 1, n), 1),),
                ((Atom.d(0), -1), (Atom.t(1, j + 1), 1), (Atom.d(0), 1)),
            )
            rhs = gen_concat(
                ((Atom.t(1, j), 1),),
                ((Atom.t(j + 1, n - 1), 1),) if j + 1 < n - 1 else (),
                ((Atom.t(1, n), 1),),
            )
            ok = ok and equal(expand(lhs, n), expand(rhs, n))
        # cyclic-family relations from the second generating set
        for i in range(1, n):
            down = tuple(-x for x in range(n - 1, i - 1, -1))
            up = tuple(-x for x in range(i, n))
            ok = ok and equal(
                BraidWord(n, down + up),
                expand(((Atom.d(0), -1), (Atom.d(n - i), 1)), n),
            )
            tail = ((Atom.t(i + 1, n), -1),) if i + 1 < n else ()
            rhs = gen_concat(
                ((Atom.d(0), -1), (Atom.d(n - i), 1), (Atom.d(0), -1)),
                tail,
                ((Atom.d(0), 1),),
            )
            ok = ok and equal(expand(((Atom.t(i, n), -1),), n), expand(rhs, n))
    _report(
        7,
        ok,
        "index-shift conjugations, both four-hole relator families, and the "
        "cyclic-family relations are Garside-trivial for n=3..7",
    )


def test_criterion_8_homomorphism_and_invariance():
    ok = True
    rng = random.Random(4096)
    # additivity on 100 random quasitoric pairs
    for _ in range(100):
        n = rng.randint(3, 6)
        u = random_qt_word(rng, n)
        v = random_qt_word(rng, n)
        ok = ok and qt_class(concat(u, v)) == qt_class(u) + qt_class(v)
    # zero on all relators
    for n in range(3, 8):
        for rel in presentation("qb", n).relators:
            ok = ok and is_zero_class(qt_class(expand(rel, n)))
    # index-shift and torsion identities at the class level
    for n in range(3, 8):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                ok = ok and qt_class(atom_word(Atom.t(i, j), n)) == qt_class(
                    atom_word(Atom.t(1, j - i + 1), n)
                )
        power = n if n % 2 else n // 2
        ok = ok and qt_class(expand(((Atom.t(1, n - 1), power),), n)) == qt_class(
            expand(((Atom.d(0), power * (n - 2)),), n)
        )
    # equal() implies matching invariants on equal-by-construction pairs
    for _ in range(100):
        n = rng.randint(3, 6)
        w = random_qt_word(rng, n)
        c = BraidWord(
            n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(4))
        )
        v = rewrite_equivalent(rng, concat(concat(c, inverse(c)), w))
        ok = ok and equal(w, v)
        ok = ok and perm(w) == perm(v)
        ok = ok and exponent_sum(w) == exponent_sum(v)
        ok = ok and qt_class(w) == qt_class(v)
        if is_pure(w):
            ok = ok and linking(w) == linking(v)
    # the pure case of the linking comparison, explicitly
    for _ in range(25):
        n = rng.randint(3, 5)
        p = random_pure_word(rng, n)
        q = rewrite_equivalent(rng, p)
        ok = ok and equal(p, q) and linking(p) == linking(q)
    _report(
        8,
        ok,
        "homology classes are additive, vanish on relators, satisfy the "
        "index-shift and torsion identities, and match (with permutation, "
        "exponent sum, linking) across equal-by-construction pairs",
    )
