"""Batch command-line front end.

Words are quoted token strings in the grammar of words.py; an argument of the
form @path reads the tokens from a file instead.  Quasitoric sign matrices are
read from --form files ('+'/'-' rows).  Exit codes: 0 for success or a true
predicate, 1 for a false or negative predicate (eq false, is-qt none, verify
failures), 2 for usage or input errors, including a generator word that would
expand to more than words.MAX_LETTERS letters.  Output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

from .garside import equal, normal_form
from .genset import GensetTarget, decompose
from .presentations import GROUPS, h1, presentation, qt_class, verify
from .purebraid import comb, linking
from .quasitoric import factor, is_quasitoric, parse_form_text, qt_to_word
from .words import (
    BraidWord,
    WordError,
    closure_components,
    expand,
    format_generator_word,
    format_word,
    parse_generator_word,
    parse_word,
    perm,
)


def _read_text_arg(text: str) -> str:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return text


def _word_from_args(args: argparse.Namespace, attr: str = "word") -> BraidWord:
    form_path = getattr(args, "form", None)
    if form_path is not None:
        with open(form_path, "r", encoding="utf-8") as fh:
            form = parse_form_text(fh.read(), strands=args.n)
        if form.strands != args.n:
            raise WordError(
                f"form file is for {form.strands} strands, -n says {args.n}"
            )
        return qt_to_word(form)
    text = getattr(args, attr)
    if text is None:
        raise WordError("need a word argument or --form")
    return parse_word(args.n, _read_text_arg(text))


def _strands(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", type=int, required=True, help="strand count (>= 2)")


def _check_n(args: argparse.Namespace) -> None:
    if getattr(args, "n", None) is not None and args.n < 2:
        raise WordError(f"need at least 2 strands, got {args.n}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtbraid",
        description="exact braid-group and quasitoric-subgroup computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="Garside normal form of a word")
    _strands(p)
    p.add_argument("word")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("eq", help="test equality of two words")
    _strands(p)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("perm", help="permutation of a word")
    _strands(p)
    p.add_argument("word")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("expand", help="expand a generator word to a sigma word")
    _strands(p)
    p.add_argument("genword")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("is-qt", help="least k with perm == rho^k, if any")
    _strands(p)
    p.add_argument("word", nargs="?")
    p.add_argument("--form")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("factor", help="factor a quasitoric braid as d0^k * pure")
    _strands(p)
    p.add_argument("word", nargs="?")
    p.add_argument("--form")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("comb", help="write a pure braid over a-atoms")
    _strands(p)
    p.add_argument("word")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("linking", help="linking matrix of a pure braid")
    _strands(p)
    p.add_argument("word")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("decompose", help="rewrite over a minimal generating set")
    _strands(p)
    p.add_argument("word", nargs="?")
    p.add_argument("--form")
    p.add_argument("--target", choices=["thm41", "thm42"], default="thm41")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("abelianize", help="homology class of a quasitoric braid")
    _strands(p)
    p.add_argument("word", nargs="?")
    p.add_argument("--form")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("h1", help="abelianization of a presented group")
    _strands(p)
    p.add_argument("--group", choices=list(GROUPS), required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="oracle-check every relator of a presentation")
    _strands(p)
    p.add_argument("--group", choices=["pb", "qb"], required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("relators", help="list the relators of a presentation")
    _strands(p)
    p.add_argument("--group", choices=list(GROUPS), required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("components", help="closure component count of a word")
    _strands(p)
    p.add_argument("word")
    p.add_argument("--json", action="store_true")

    return parser


def _run(args: argparse.Namespace, out) -> int:
    cmd = args.command
    _check_n(args)

    if cmd == "nf":
        nf = normal_form(_word_from_args(args))
        print(nf.to_json() if args.json else str(nf), file=out)
        return 0

    if cmd == "eq":
        u = parse_word(args.n, _read_text_arg(args.left))
        v = parse_word(args.n, _read_text_arg(args.right))
        same = equal(u, v)
        print(json.dumps({"equal": same}) if args.json else str(same).lower(), file=out)
        return 0 if same else 1

    if cmd == "perm":
        p = perm(_word_from_args(args))
        print(json.dumps({"image": list(p.image)}) if args.json else str(p), file=out)
        return 0

    if cmd == "expand":
        gw = parse_generator_word(_read_text_arg(args.genword))
        w = expand(gw, args.n)
        print(json.dumps({"word": format_word(w)}) if args.json else format_word(w), file=out)
        return 0

    if cmd == "is-qt":
        k = is_quasitoric(_word_from_args(args))
        if args.json:
            print(json.dumps({"k": k}), file=out)
        else:
            print("none" if k is None else f"k={k}", file=out)
        return 0 if k is not None else 1

    if cmd == "factor":
        k, p = factor(_word_from_args(args))
        if args.json:
            print(json.dumps({"k": k, "pure": format_word(p)}), file=out)
        else:
            print(f"k={k} pure={format_word(p)}", file=out)
        return 0

    if cmd == "comb":
        gw = comb(_word_from_args(args))
        text = format_generator_word(gw)
        print(json.dumps({"genword": text}) if args.json else text, file=out)
        return 0

    if cmd == "linking":
        lk = linking(_word_from_args(args))
        print(lk.to_json() if args.json else str(lk), file=out)
        return 0

    if cmd == "decompose":
        gw = decompose(_word_from_args(args), GensetTarget(args.target, args.n))
        text = format_generator_word(gw)
        print(json.dumps({"genword": text}) if args.json else text, file=out)
        return 0

    if cmd == "abelianize":
        cv = qt_class(_word_from_args(args))
        if args.json:
            print(
                json.dumps(
                    {
                        "free": list(cv.free),
                        "torsion": list(cv.torsion),
                        "moduli": list(cv.moduli),
                    }
                ),
                file=out,
            )
        else:
            print(
                f"free={list(cv.free)} torsion={list(cv.torsion)} moduli={list(cv.moduli)}",
                file=out,
            )
        return 0

    if cmd == "h1":
        a = h1(presentation(args.group, args.n))
        if args.json:
            print(
                json.dumps({"rank": a.free_rank, "torsion": list(a.torsion)}),
                file=out,
            )
        else:
            print(f"rank={a.free_rank} torsion={list(a.torsion)}", file=out)
        return 0

    if cmd == "verify":
        p = presentation(args.group, args.n)
        rep = verify(p)
        if args.json:
            print(
                json.dumps(
                    {
                        "group": rep.group,
                        "n": rep.strands,
                        "checked": rep.checked,
                        "failures": list(rep.failures),
                    }
                ),
                file=out,
            )
        else:
            print(f"checked={rep.checked} failures={len(rep.failures)}", file=out)
            for idx in rep.failures:
                print(f"FAIL {format_generator_word(p.relators[idx])}", file=out)
        return 0 if rep.ok else 1

    if cmd == "relators":
        p = presentation(args.group, args.n)
        if args.json:
            print(
                json.dumps(
                    {
                        "group": p.group,
                        "n": p.strands,
                        "generators": [str(a) for a in p.generators],
                        "relators": [format_generator_word(r) for r in p.relators],
                    }
                ),
                file=out,
            )
        else:
            for rel in p.relators:
                print(format_generator_word(rel), file=out)
        return 0

    if cmd == "components":
        c = closure_components(_word_from_args(args))
        print(json.dumps({"components": c}) if args.json else str(c), file=out)
        return 0

    raise AssertionError(f"unhandled command {cmd}")


def run(argv: list[str] | None = None, out=None) -> int:
    """Parse argv and execute; returns the exit code without exiting."""
    out = sys.stdout if out is None else out
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _run(args, out)
    except WordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
