"""Each checker of the benchmark accepts a right answer and rejects a wrong one.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import random
import unittest

import checks
from checks import CheckError, Checker
from workloads import equal_variant, random_letters


class BurauTest(unittest.TestCase):
    def test_equal_braids_agree(self):
        b = Checker(1).burau(3)
        self.assertEqual(b.image([1, 2, 1]), b.image([2, 1, 2]))
        self.assertEqual(b.image([1, -1, 2, -2]), b.image([]))

    def test_rewritten_word_agrees(self):
        rng = random.Random(7)
        checker = Checker(7)
        word = random_letters(rng, 6, 300)
        checker.same_braid_invariants(6, equal_variant(rng, 6, word, 40), word)

    def test_flipped_letter_is_caught(self):
        rng = random.Random(3)
        b = Checker(3).burau(5)
        for _ in range(20):
            word = random_letters(rng, 5, 200)
            wrong = list(word)
            k = rng.randrange(len(wrong))
            wrong[k] = -wrong[k]
            self.assertNotEqual(b.image(wrong), b.image(word))


class NormalFormTest(unittest.TestCase):
    def nf(self, inf, *factor_words, n=3):
        return {"strands": n, "inf": inf,
                "factors": [checks.permutation(n, w) for w in factor_words]}

    def test_valid_forms_pass(self):
        checker = Checker(1)
        self.assertEqual(checker.normal_form(3, [1, 2], self.nf(0, [1, 2])), 2)
        self.assertEqual(checker.normal_form(3, [1, 1], self.nf(0, [1], [1])), 2)
        # sigma_1^-1 = Delta^-1 (sigma_1 sigma_2)
        checker.normal_form(3, [-1], self.nf(-1, [1, 2]))

    def test_pair_not_left_weighted_is_caught(self):
        # sigma_1 | sigma_2 denotes the right braid with the right degree,
        # but sigma_2 starts where sigma_1 does not finish
        with self.assertRaisesRegex(CheckError, "left-weighted"):
            Checker(1).normal_form(3, [1, 2], self.nf(0, [1], [2]))

    def test_wrong_braid_is_caught(self):
        with self.assertRaises(CheckError):
            Checker(1).normal_form(3, [1, 2], self.nf(0, [2, 1]))

    def test_delta_factor_is_caught(self):
        with self.assertRaisesRegex(CheckError, "trivial or Delta"):
            Checker(1).normal_form(3, [1, 2, 1], self.nf(0, [1, 2, 1]))

    def test_descent_sets(self):
        image = checks.permutation(4, [1, 2])
        self.assertEqual(checks.starting_set(image), {1})
        self.assertEqual(checks.finishing_set(image), {2})


class GrammarTest(unittest.TestCase):
    def test_documented_expansions(self):
        self.assertEqual(checks.expand_genword(4, "t2,4^-1"), [-3, -2, -3, -2, -3, -2])
        self.assertEqual(checks.expand_genword(5, "d0"), [1, 2, 3, 4])
        self.assertEqual(checks.expand_genword(5, "d2"), [1, 2, -3, -4])
        self.assertEqual(checks.expand_genword(5, "a2,4"), [3, 2, 2, -3])

    def test_relator_check(self):
        self.assertGreater(checks.check_relator(4, "t1,2 t3,4 t1,2^-1 t3,4^-1"), 0)
        for bad in ("t1,2", "s1 s2", "d0^3"):
            with self.assertRaises(CheckError):
                checks.check_relator(4, bad)


class AlphabetTest(unittest.TestCase):
    def test_alphabet_atoms(self):
        checks.check_alphabet("thm41", 7, "d0^3 t1,4 t1,2^-1")
        checks.check_alphabet("thm42", 7, "d0 d3^-2 d1")

    def test_atom_outside_alphabet_is_caught(self):
        for variant, word in (("thm41", "d0 t1,5"), ("thm41", "d1"),
                              ("thm42", "d4"), ("thm42", "d0 t1,2")):
            with self.assertRaises(CheckError, msg=word):
                checks.check_alphabet(variant, 7, word)

    def test_alphabet_size_is_h1_lower_bound(self):
        # the paper's minimal alphabets have floor(n/2) + 1 atoms, the free
        # rank plus the number of torsion factors of H_1(QB_n)
        for n in range(3, 17):
            rank, torsion = checks.expected_h1("qb", n)
            for variant in ("thm41", "thm42"):
                self.assertEqual(len(checks.target_alphabet(variant, n)), n // 2 + 1)
                self.assertEqual(len(checks.target_alphabet(variant, n)), rank + len(torsion))


class H1Test(unittest.TestCase):
    def test_closed_forms(self):
        checks.check_h1("qb", 6, 3, [3])
        checks.check_h1("qb", 7, 3, [7])
        checks.check_h1("pb", 5, 10, [])
        checks.check_h1("pmod", 5, 9, [])

    def test_wrong_torsion_is_caught(self):
        for group, n, rank, torsion in (("qb", 6, 3, [6]), ("qb", 7, 3, []),
                                        ("qb", 7, 3, [1, 7]), ("pb", 5, 10, [2])):
            with self.assertRaises(CheckError):
                checks.check_h1(group, n, rank, torsion)

    def test_class_sum(self):
        a = {"free": [1, 2], "torsion": [2], "moduli": [3]}
        b = {"free": [0, -5], "torsion": [2], "moduli": [3]}
        self.assertEqual(checks.add_classes(a, b), {"free": [1, -3], "torsion": [1], "moduli": [3]})

    def test_class_exponent(self):
        sums = {}
        checks.check_class_exponent(sums, {"free": [1, 0], "torsion": [2], "moduli": [3]}, 5)
        checks.check_class_exponent(sums, {"free": [1, 0], "torsion": [5], "moduli": [3]}, 5)
        checks.check_class_exponent(sums, {"free": [0, 2], "torsion": [0], "moduli": [3]}, 5)
        checks.check_class_exponent(sums, {"free": [0, 0], "torsion": [0], "moduli": [3]}, 0)

    def test_zero_class_is_caught(self):
        zero = {"free": [0, 0], "torsion": [0], "moduli": [3]}
        with self.assertRaisesRegex(CheckError, "exponent sums"):
            checks.check_class_exponent({}, zero, 4)

    def test_constant_class_is_caught(self):
        sums = {}
        cls = {"free": [1, 0], "torsion": [1], "moduli": [3]}
        checks.check_class_exponent(sums, cls, 3)
        with self.assertRaisesRegex(CheckError, "exponent sums"):
            checks.check_class_exponent(sums, cls, 7)


if __name__ == "__main__":
    unittest.main()
