"""Batch command-line front end.

Words are quoted token strings in the grammar of words.py; an argument of the
form @path reads the tokens from a file instead.  Quasitoric sign matrices are
read from --form files ('+'/'-' rows); a word and --form together are an input
error.  Both kinds of file are read as UTF-8.
Exit codes: 0 for success or a true predicate, 1 for a false or negative
predicate (eq false, is-qt none, verify failures), 2 for usage or input
errors, including a generator word that would expand to more than
words.MAX_LETTERS letters.  Output is deterministic.

Each subcommand is one entry of COMMANDS: its help text, its own arguments,
and a handler (args, as_json) -> (exit code, output lines) that renders only
the format asked for.  build_parser gives every subcommand -n first and
--json last; run parses, checks n, calls the handler and prints once.
Handlers look the library functions up by their names in this module
(normal_form, decompose, h1, ...) when they run, and nothing holds a library
function captured at import, so a tracer that replaces those module
attributes sees every call.  run reuses one argument parser per process;
parse_args leaves it unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Callable

from .garside import equal, normal_form
from .genset import VARIANTS, GensetTarget, decompose
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


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise WordError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_text_arg(text: str) -> str:
    return _read_file(text[1:]) if text.startswith("@") else text


def _word(args: argparse.Namespace) -> BraidWord:
    """The braid of the --form file if given, else of the word argument; not both."""
    if getattr(args, "form", None) is not None:
        if args.word is not None:
            raise WordError("give a word or --form, not both")
        return qt_to_word(parse_form_text(_read_file(args.form), strands=args.n))
    if args.word is None:
        raise WordError("need a word argument or --form")
    return parse_word(args.n, _read_text_arg(args.word))


def _fields(fields: dict, as_json: bool) -> str:
    """A JSON object, or the text line key=value ... in the same order."""
    if as_json:
        return json.dumps(fields)
    return " ".join(f"{key}={value}" for key, value in fields.items())


def _nf(args, as_json):
    nf = normal_form(_word(args))
    return 0, [nf.to_json() if as_json else str(nf)]


def _eq(args, as_json):
    u = parse_word(args.n, _read_text_arg(args.left))
    v = parse_word(args.n, _read_text_arg(args.right))
    same = equal(u, v)
    return 0 if same else 1, [json.dumps({"equal": same}) if as_json else str(same).lower()]


def _perm(args, as_json):
    p = perm(_word(args))
    return 0, [json.dumps({"image": [v + 1 for v in p.image]}) if as_json else str(p)]


def _expand(args, as_json):
    text = format_word(expand(parse_generator_word(_read_text_arg(args.genword)), args.n))
    return 0, [json.dumps({"word": text}) if as_json else text]


def _is_qt(args, as_json):
    k = is_quasitoric(_word(args))
    code = 1 if k is None else 0
    if as_json:
        return code, [json.dumps({"k": k})]
    return code, ["none" if k is None else f"k={k}"]


def _factor(args, as_json):
    k, p = factor(_word(args))
    return 0, [_fields({"k": k, "pure": format_word(p)}, as_json)]


def _comb(args, as_json):
    text = format_generator_word(comb(_word(args)))
    return 0, [json.dumps({"genword": text}) if as_json else text]


def _linking(args, as_json):
    lk = linking(_word(args))
    return 0, [lk.to_json() if as_json else str(lk)]


def _decompose(args, as_json):
    text = format_generator_word(decompose(_word(args), GensetTarget(args.target, args.n)))
    return 0, [json.dumps({"genword": text}) if as_json else text]


def _abelianize(args, as_json):
    cv = qt_class(_word(args))
    fields = {"free": list(cv.free), "torsion": list(cv.torsion), "moduli": list(cv.moduli)}
    return 0, [_fields(fields, as_json)]


def _h1(args, as_json):
    a = h1(presentation(args.group, args.n))
    return 0, [_fields({"rank": a.free_rank, "torsion": list(a.torsion)}, as_json)]


def _verify(args, as_json):
    p = presentation(args.group, args.n)
    rep = verify(p)
    code = 0 if rep.ok else 1
    if as_json:
        report = {"group": rep.group, "n": rep.strands, "checked": rep.checked}
        return code, [json.dumps({**report, "failures": list(rep.failures)})]
    lines = [f"checked={rep.checked} failures={len(rep.failures)}"]
    lines += (f"FAIL {format_generator_word(p.relators[idx])}" for idx in rep.failures)
    return code, lines


def _relators(args, as_json):
    p = presentation(args.group, args.n)
    relators = p.relator_texts
    if as_json:
        generators = [str(atom) for atom in p.generators]
        listing = {"group": p.group, "n": p.strands, "generators": generators}
        return 0, [json.dumps({**listing, "relators": relators})]
    return 0, relators


def _components(args, as_json):
    c = closure_components(_word(args))
    return 0, [json.dumps({"components": c}) if as_json else str(c)]


# subcommand arguments besides -n and --json: (flag, add_argument options)
WORD = ("word", {})
OPTIONAL_WORD = ("word", {"nargs": "?"})
FORM = ("--form", {})
TARGET = ("--target", {"choices": list(VARIANTS), "default": "thm41"})
ANY_GROUP = ("--group", {"choices": list(GROUPS), "required": True})

# name -> (help text, arguments, handler), in the order --help lists them
COMMANDS: dict[str, tuple[str, tuple[tuple[str, dict], ...], Callable]] = {
    "nf": ("Garside normal form of a word", (WORD,), _nf),
    "eq": ("test equality of two words", (("left", {}), ("right", {})), _eq),
    "perm": ("permutation of a word", (WORD,), _perm),
    "expand": ("expand a generator word to a sigma word", (("genword", {}),), _expand),
    "is-qt": ("least k with perm == rho^k, if any", (OPTIONAL_WORD, FORM), _is_qt),
    "factor": ("factor a quasitoric braid as d0^k * pure", (OPTIONAL_WORD, FORM), _factor),
    "comb": ("write a pure braid over a-atoms", (WORD,), _comb),
    "linking": ("linking matrix of a pure braid", (WORD,), _linking),
    "decompose": (
        "rewrite over a minimal generating set",
        (OPTIONAL_WORD, FORM, TARGET),
        _decompose,
    ),
    "abelianize": ("homology class of a quasitoric braid", (OPTIONAL_WORD, FORM), _abelianize),
    "h1": ("abelianization of a presented group", (ANY_GROUP,), _h1),
    "verify": ("oracle-check every relator of a presentation", (ANY_GROUP,), _verify),
    "relators": ("list the relators of a presentation", (ANY_GROUP,), _relators),
    "components": ("closure component count of a word", (WORD,), _components),
}


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtbraid",
        description="exact braid-group and quasitoric-subgroup computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-n", type=int, required=True, help="strand count (>= 2)")
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--json", action="store_true")
    return parser


def run(argv: list[str] | None = None, out=None) -> int:
    """Parse argv and execute; returns the exit code without exiting."""
    out = sys.stdout if out is None else out
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.n < 2:
            raise WordError(f"need at least 2 strands, got {args.n}")
        _, _, handler = COMMANDS[args.command]
        code, lines = handler(args, args.json)
        out.write("".join(f"{line}\n" for line in lines))
    except (WordError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
