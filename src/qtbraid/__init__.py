"""Exact computation in braid groups and the quasitoric braid subgroup.

The package solves the word problem via left-greedy Garside normal forms,
verifies finite presentations of the pure and quasitoric braid groups,
computes abelianizations by exact integer Smith normal form, and rewrites
quasitoric braids constructively into two minimal generating sets.
"""

from .words import (
    Atom,
    BraidWord,
    GenWord,
    Permutation,
    WordError,
    closure_components,
    concat,
    delta_word,
    expand,
    exponent_sum,
    format_generator_word,
    format_word,
    free_reduce,
    gen_concat,
    gen_inverse,
    gen_reduce,
    inverse,
    is_pure,
    parse_generator_word,
    parse_word,
    perm,
    toric,
)
from .garside import GarsideNormalForm, equal, is_trivial, nf_word, normal_form

__all__ = [
    "Atom",
    "BraidWord",
    "GarsideNormalForm",
    "GenWord",
    "Permutation",
    "WordError",
    "closure_components",
    "concat",
    "delta_word",
    "equal",
    "expand",
    "exponent_sum",
    "format_generator_word",
    "format_word",
    "free_reduce",
    "gen_concat",
    "gen_inverse",
    "gen_reduce",
    "inverse",
    "is_pure",
    "is_trivial",
    "nf_word",
    "normal_form",
    "parse_generator_word",
    "parse_word",
    "perm",
    "toric",
]
