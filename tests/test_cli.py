import contextlib
import io
import json
import sys
import time
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest

from qtbraid import cli
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
        assert code == 0 and out == "free=[1] torsion=[0] moduli=[3]\n"
        tripled = go("abelianize", "-n", "3", "1 2 1 2 1 2")
        assert tripled == (0, "free=[3] torsion=[0] moduli=[3]\n")


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

    @pytest.mark.parametrize("group, n", [("pb", 9), ("qb", 8), ("pmod", 7)])
    def test_relators_json_lists_the_text_lines(self, group, n):
        code, out = go("relators", "--group", group, "-n", str(n))
        code_json, out_json = go("relators", "--group", group, "-n", str(n), "--json")
        assert code == code_json == 0
        assert json.loads(out_json)["relators"] == out.splitlines()

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

    def test_huge_strand_count(self):
        # letter factors are built on first use, not 2(n-1) of n entries up front
        n = 100_000
        tracemalloc.start()
        try:
            code, out = go("nf", "-n", str(n), "1", "--json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out) == {
            "strands": n,
            "inf": 0,
            "factors": [[2, 1, *range(3, n + 1)]],
        }
        assert peak < 32 << 20, f"peak allocation {peak} bytes"

    def test_oversized_presentation(self):
        # about C(1000, 2) generators: refused from the count, before building
        for group in ("pb", "qb", "pmod"):
            tracemalloc.start()
            try:
                code, out = go("h1", "--group", group, "-n", "1000")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2 and out == ""
            assert peak < 1 << 20, f"peak allocation {peak} bytes"

    def test_oversized_abelianize(self):
        # qb on 708 strands has 250,279 generators: H_1(QB_708) is refused
        # before any of it is built; a word that is not quasitoric is refused
        # before that
        for word, reason in (("", "250279 generators"), ("1", "not quasitoric")):
            tracemalloc.start()
            try:
                code, out, err = go_all(["abelianize", "-n", "708", word])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2 and out == "" and reason in err
            assert peak < 1 << 20, f"peak allocation {peak} bytes"

    def test_oversized_decompose(self):
        # the twist tables on 100,000 strands would hold about 2.2e10
        # syllables: refused from their length alone, before the word is
        # factored or any table is built
        for target in ("thm41", "thm42"):
            tracemalloc.start()
            start = time.perf_counter()
            try:
                code, out, err = go_all(["decompose", "-n", "100000", "--target", target, ""])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.perf_counter() - start < 1
            assert code == 2 and out == "" and "more than the limit of 10000000" in err
            assert peak < 1 << 20, f"peak allocation {peak} bytes"

    def test_h1_reach(self):
        # h1 builds no relator table, so it answers past the table's limit,
        # and refuses only from the generator count
        start = time.perf_counter()
        assert go("h1", "--group", "pb", "-n", "2000") == (2, "")
        assert time.perf_counter() - start < 0.1
        assert go("h1", "--group", "pb", "-n", "200") == (0, "rank=19900 torsion=[]\n")
        assert go("h1", "--group", "qb", "-n", "40") == (0, "rank=20 torsion=[20]\n")
        # qb on 32 strands has 283,713 relators, and pb 283,216
        for command in ("relators", "verify"):
            assert go(command, "--group", "qb", "-n", "32") == (2, "")
        for flags in ((), ("--json",)):
            code, out, err = go_all(["relators", "--group", "pb", "-n", "32", *flags])
            assert (code, out) == (2, "")
            limit = "pb on 32 strands has 283216 relators, more than the limit of 250000"
            assert err == f"error: {limit}\n"


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

    @pytest.mark.parametrize("command", ["is-qt", "factor", "decompose", "abelianize"])
    def test_word_and_form_refused(self, command, tmp_path):
        # the word alone is not quasitoric, the form alone is; given both,
        # neither may win silently
        path = tmp_path / "form.txt"
        path.write_text("++\n")
        assert go(command, "-n", "3", "--form", str(path))[0] == 0
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = go(command, "-n", "3", "1", "--form", str(path))
        assert (code, out) == (2, "")
        assert err.getvalue() == "error: give a word or --form, not both\n"

    def test_determinism(self):
        a = go("relators", "--group", "qb", "-n", "5")
        b = go("relators", "--group", "qb", "-n", "5")
        assert a == b


class TestParserReuse:
    SEQUENCE = (
        ("nf", "-n", "4", "1 2 -3 1", "--json"),
        ("decompose", "-n", "5", "--target", "thm42", "1 -2 3 4 -1 2 3 -4"),
        ("verify", "-n", "3"),  # usage error: --group is required
        ("eq", "-n", "3", "1 2 1", "2 1 2", "--json"),
        ("eq", "-n", "3", "1", "2"),
        ("decompose", "-n", "5", "--target", "thm41", "1 -2 3 4 -1 2 3 -4", "--json"),
        ("abelianize", "-n", "4", "1 2 3"),
        ("h1", "--group", "qb", "-n", "5", "--json"),
        ("nf", "-n", "3", "0"),
        ("relators", "--group", "pb", "-n", "3"),
        ("nf", "-n", "4", "1 2 -3 1", "--json"),
    )

    def test_one_parser_matches_fresh_parsers(self, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        fresh = cli.build_parser.__wrapped__
        monkeypatch.setattr(cli, "build_parser", fresh)
        want = [go(*argv) for argv in self.SEQUENCE]
        assert [code for code, _ in want] == [0, 0, 2, 0, 1, 0, 0, 0, 2, 0, 0]

        built = []

        def counted():
            built.append(1)
            return fresh()

        monkeypatch.setattr(cli, "build_parser", lru_cache(maxsize=1)(counted))
        assert [go(*argv) for argv in self.SEQUENCE] == want
        assert len(built) == 1


# Exit code, stdout and stderr, pinned byte for byte, of every subcommand in
# text and --json form at n=3-8, of every --help, and of usage and input
# errors.  Arguments and messages name the input files' directory as {dir}.
# Help text is laid out for 80 columns.
CLI_GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "cli_goldens.json").read_text(encoding="utf-8")
)


def go_all(argv):
    """run with argv, printing to the real streams; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "case", CLI_GOLDENS, ids=[f"{k}-{' '.join(c['argv'][:1])}" for k, c in enumerate(CLI_GOLDENS)]
)
def test_cli_golden(case, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in case["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in case["argv"]]
    code, out, err = go_all(argv)
    assert (code, out, err.replace(str(tmp_path), "{dir}")) == (
        case["code"],
        case["stdout"],
        case["stderr"],
    )


def test_goldens_cover_every_subcommand():
    ran = {case["argv"][0] for case in CLI_GOLDENS if case["code"] != 2}
    assert ran - {"--help", "-h"} == set(cli.COMMANDS)
    helped = {tuple(case["argv"]) for case in CLI_GOLDENS}
    assert all((name, "--help") in helped for name in cli.COMMANDS)


class TestVerifyFailure:
    @pytest.fixture
    def fail_second(self, monkeypatch):
        """Make the oracle's second verdict false, on an empty verdict memo.

        verify keeps its verdicts across calls, so the memo is emptied before
        the test, to make the second oracle call this test's second shape, and
        after it, so that the planted verdict does not outlive the test.
        """
        from qtbraid import presentations

        real, calls = presentations._relator_holds, []

        def holds(rel, n):
            calls.append(rel)
            return len(calls) != 2 and real(rel, n)

        presentations._verdicts.clear()
        monkeypatch.setattr(presentations, "_relator_holds", holds)
        yield calls
        presentations._verdicts.clear()

    def test_text(self, fail_second):
        from qtbraid.presentations import presentation
        from qtbraid.words import format_generator_word

        code, out = go("verify", "--group", "qb", "-n", "3")
        failed = format_generator_word(presentation("qb", 3).relators[1])
        assert code == 1 and out == f"checked=6 failures=1\nFAIL {failed}\n"

    def test_json(self, fail_second):
        code, out = go("verify", "--group", "qb", "-n", "3", "--json")
        assert code == 1
        assert json.loads(out) == {"group": "qb", "n": 3, "checked": 6, "failures": [1]}


class TestMain:
    @pytest.mark.parametrize(
        "argv, want",
        [
            (["nf", "-n", "3", "1 2 1"], 0),
            (["eq", "-n", "3", "1", "2"], 1),
            (["nf", "-n", "3", "0"], 2),
            (["verify", "-n", "3"], 2),
        ],
    )
    def test_exit_code_is_run_result(self, argv, want, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["qtbraid", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == want == run(argv)


class TestNonUtf8:
    def test_at_path(self, tmp_path):
        path = tmp_path / "word.txt"
        path.write_bytes(b"1 \xff 2")
        code, out, err = go_all(["nf", "-n", "3", f"@{path}"])
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte 2)\n"

    def test_form(self, tmp_path):
        path = tmp_path / "form.txt"
        path.write_bytes(b"+-\n\xff\n")
        code, out, err = go_all(["is-qt", "-n", "3", "--form", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not UTF-8 text")


@pytest.mark.parametrize(
    "argv",
    [
        ("nf", "-n", "12", "1_0"),
        ("nf", "-n", "4", "\u0663"),  # ARABIC-INDIC DIGIT THREE
        ("expand", "-n", "12", "s1_0"),
        ("expand", "-n", "5", "t\u0663,4"),
    ],
)
def test_malformed_integer_is_input_error(argv):
    code, out, err = go_all(argv)
    assert (code, out) == (2, "") and err.startswith("error: bad ")
