"""Finite-automata toolkit for catenation state-complexity experiments.

Builds deterministic and nondeterministic catenation automata, decides
whether a pair of regular languages catenates unambiguously (extracting a
shortest counterexample when it does not), generates the witness families
that realize the worst-case bounds, and ships brute-force oracles plus a
CLI for reproducing the bound experiments.
"""

from .catenation import (
    CatDfa,
    CatState,
    build_catenation_dfa,
    build_catenation_nfa,
    general_upper_bound,
    orthogonal_upper_bound,
    valid_second_components,
)
from .core import (
    Dfa,
    Nfa,
    Word,
    accepts,
    dead_states,
    determinize,
    extend_alphabet,
    format_word,
    is_permutation_automaton,
    language_equivalent,
    minimize,
    nfa_accepts,
    parse_word,
    reachable_states,
    state_equivalent,
)
from .fileformat import FormatError, parse_automaton, serialize_automaton
from .oracle import (
    FoolingSetResult,
    brute_force_orthogonal,
    enumerate_accepted,
    factorizations,
    residual_count,
    verify_fooling_set,
)
from .orthogonality import (
    AccOrder,
    AcceptingCycleError,
    AmbiguityWitness,
    NotOrthogonalError,
    OrthogonalityVerdict,
    acc_order,
    check_acyclic_accepting,
    forbidden_second_component_states,
    is_orthogonal,
    merging_pairs,
    orthogonal_catenation,
)
from .randgen import random_dfa, splitmix64_stream
from .witnesses import fooling_set_unary_catenation, unary_star_dfa, witness_a, witness_b

__version__ = "0.1.0"

__all__ = [
    "AccOrder",
    "AcceptingCycleError",
    "AmbiguityWitness",
    "CatDfa",
    "CatState",
    "Dfa",
    "FoolingSetResult",
    "FormatError",
    "Nfa",
    "NotOrthogonalError",
    "OrthogonalityVerdict",
    "Word",
    "accepts",
    "acc_order",
    "brute_force_orthogonal",
    "build_catenation_dfa",
    "build_catenation_nfa",
    "check_acyclic_accepting",
    "dead_states",
    "determinize",
    "enumerate_accepted",
    "extend_alphabet",
    "factorizations",
    "fooling_set_unary_catenation",
    "forbidden_second_component_states",
    "format_word",
    "general_upper_bound",
    "is_orthogonal",
    "is_permutation_automaton",
    "language_equivalent",
    "merging_pairs",
    "minimize",
    "nfa_accepts",
    "orthogonal_catenation",
    "orthogonal_upper_bound",
    "parse_automaton",
    "parse_word",
    "random_dfa",
    "reachable_states",
    "residual_count",
    "serialize_automaton",
    "splitmix64_stream",
    "state_equivalent",
    "unary_star_dfa",
    "valid_second_components",
    "verify_fooling_set",
    "witness_a",
    "witness_b",
]
