import io
import json
import tracemalloc

import pytest

from qtbraid.cli import run

from helpers import GOLDENS


def go(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


class TestPredicates:
    def test_eq_true(self):
        code, out = go("eq", "-n", "3", "1 2 1", "2 1 2")
        assert code == 0 and out == "true\n"

    def test_eq_false(self):
        code, out = go("eq", "-n", "3", "1", "2")
        assert code == 1 and out == "false\n"

    def test_is_qt_none(self):
        code, out = go("is-qt", "-n", "3", "1")
        assert code == 1 and out == "none\n"

    def test_is_qt_some(self):
        code, out = go("is-qt", "-n", "3", "1 2")
        assert code == 0 and out == "k=1\n"


class TestOutputs:
    def test_h1_line(self):
        code, out = go("h1", "--group", "qb", "-n", "4")
        assert code == 0 and out == "rank=2 torsion=[2]\n"

    def test_h1_pb(self):
        code, out = go("h1", "--group", "pb", "-n", "4")
        assert code == 0 and out == "rank=6 torsion=[]\n"

    def test_nf(self):
        code, out = go("nf", "-n", "3", "1 2 1")
        assert code == 0 and out == "D^1\n"

    def test_perm(self):
        code, out = go("perm", "-n", "4", "1 2 3")
        assert code == 0 and out == "2 3 4 1\n"

    def test_expand(self):
        code, out = go("expand", "-n", "3", "t1,3")
        assert code == 0 and out == "1 2 1 2 1 2\n"

    def test_factor(self):
        code, out = go("factor", "-n", "3", "1 2")
        assert code == 0 and out.startswith("k=1 pure=")

    def test_components(self):
        code, out = go("components", "-n", "4", "1 2 3 1 2 3")
        assert code == 0 and out == "2\n"

    def test_verify(self):
        code, out = go("verify", "--group", "qb", "-n", "3")
        assert code == 0 and out == "checked=6 failures=0\n"

    def test_relators_grammar_roundtrip(self):
        from qtbraid.words import parse_generator_word

        code, out = go("relators", "--group", "qb", "-n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        for line in lines:
            parse_generator_word(line)

    def test_decompose(self):
        code, out = go("decompose", "-n", "5", "--target", "thm41", "1 2 3 4")
        assert code == 0 and out == "d0\n"

    def test_comb(self):
        code, out = go("comb", "-n", "3", "1 1")
        assert code == 0 and out == "a1,2\n"

    @pytest.mark.parametrize("case", GOLDENS["comb"], ids=lambda c: f"n{c['n']}")
    def test_comb_golden(self, case):
        argv = ("comb", "-n", str(case["n"]), case["word"])
        assert go(*argv) == (0, case["out"])
        genword = json.dumps({"genword": case["out"].rstrip("\n")})
        assert go(*argv, "--json") == (0, genword + "\n")

    @pytest.mark.parametrize(
        "case", GOLDENS["decompose"], ids=lambda c: f"{c['target']}-n{c['n']}"
    )
    def test_decompose_golden(self, case):
        argv = ("decompose", "-n", str(case["n"]), "--target", case["target"], case["word"])
        assert go(*argv) == (0, case["out"])
        genword = json.dumps({"genword": case["out"].rstrip("\n")})
        assert go(*argv, "--json") == (0, genword + "\n")

    def test_linking(self):
        code, out = go("linking", "-n", "3", "1 1")
        assert code == 0 and out == "1 0\n0\n"

    def test_abelianize(self):
        # class of delta_0 in H1(QB_3) = Z + Z/3; tripling it must give the
        # class of the full twist t(1,3) = delta_0^3, i.e. (3, 0)
        code, out = go("abelianize", "-n", "3", "1 2")
        assert code == 0 and out == "free=[1] torsion=[2] moduli=[3]\n"


class TestJson:
    def test_nf_json(self):
        code, out = go("nf", "-n", "3", "1 2 1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == {"strands": 3, "inf": 1, "factors": []}

    def test_h1_json(self):
        code, out = go("h1", "--group", "qb", "-n", "6", "--json")
        assert json.loads(out) == {"rank": 3, "torsion": [3]}

    def test_eq_json(self):
        code, out = go("eq", "-n", "3", "1", "1", "--json")
        assert code == 0 and json.loads(out) == {"equal": True}

    def test_is_qt_json(self):
        code, out = go("is-qt", "-n", "4", "1 2 3 1 2 3", "--json")
        assert code == 0 and json.loads(out) == {"k": 2}

    def test_perm_json(self):
        code, out = go("perm", "-n", "3", "1", "--json")
        assert json.loads(out) == {"image": [2, 1, 3]}

    def test_verify_json(self):
        code, out = go("verify", "--group", "pb", "-n", "3", "--json")
        assert json.loads(out) == {
            "group": "pb",
            "n": 3,
            "checked": 2,
            "failures": [],
        }

    def test_abelianize_json(self):
        code, out = go("abelianize", "-n", "4", "--form", "/dev/null", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == {"free": [0, 0], "torsion": [0], "moduli": [2]}


class TestErrors:
    def test_bad_token(self):
        code, _ = go("eq", "-n", "3", "1", "x")
        assert code == 2

    def test_out_of_range_letter(self):
        code, _ = go("nf", "-n", "3", "3")
        assert code == 2

    def test_small_n(self):
        code, _ = go("nf", "-n", "1", "")
        assert code == 2

    def test_factor_non_member(self):
        code, _ = go("factor", "-n", "3", "1")
        assert code == 2

    def test_comb_non_pure(self):
        code, _ = go("comb", "-n", "3", "1")
        assert code == 2

    def test_missing_file(self):
        code, _ = go("nf", "-n", "3", "@/no/such/file")
        assert code == 2

    def test_usage_error(self):
        code, _ = go("verify", "-n", "3")
        assert code == 2

    def test_oversized_expansion(self):
        tracemalloc.start()
        try:
            code, out = go("expand", "-n", "5", "t1,4^1000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert peak < 1 << 20, f"peak allocation {peak} bytes"

    def test_oversized_presentation(self):
        # C(1000, 5) pentagonal relators: refused from the count, before building
        for group in ("pb", "qb", "pmod"):
            tracemalloc.start()
            try:
                code, out = go("h1", "--group", group, "-n", "1000")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2 and out == ""
            assert peak < 1 << 20, f"peak allocation {peak} bytes"


class TestFiles:
    def test_at_indirection(self, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("1 2 1")
        code, out = go("nf", "-n", "3", f"@{path}")
        assert code == 0 and out == "D^1\n"

    def test_form_input(self, tmp_path):
        path = tmp_path / "form.txt"
        path.write_text("+-+\n-++\n")
        code, out = go("is-qt", "-n", "4", "--form", str(path))
        assert code == 0 and out == "k=2\n"
        code, out = go("decompose", "-n", "4", "--form", str(path), "--target", "thm42")
        assert code == 0
        from qtbraid.words import expand, parse_generator_word
        from qtbraid.quasitoric import parse_form_text, qt_to_word
        from qtbraid import equal

        w = qt_to_word(parse_form_text(path.read_text()))
        assert equal(expand(parse_generator_word(out.strip()), 4), w)

    def test_form_strand_mismatch(self, tmp_path):
        path = tmp_path / "form.txt"
        path.write_text("+-+\n")
        code, _ = go("is-qt", "-n", "5", "--form", str(path))
        assert code == 2

    def test_determinism(self):
        a = go("relators", "--group", "qb", "-n", "5")
        b = go("relators", "--group", "qb", "-n", "5")
        assert a == b
