"""The three benchmark workloads: inputs made from a seed, one op, one check.

Each workload is a ``setup(seed, workdir) -> list`` giving one pass of op
inputs, a ``run(input)`` doing one op, and a ``check(input, result)`` that
returns whether the op's output is correct. Ops call the library through
module attributes (``core.minimize``, not a name bound at import), so a
:class:`tracing.Tracer` installed around them sees every call.

Seeds change the inputs, never the amount of work where the workload pins a
size: the witness and file workloads renumber the states of fixed automata
with a seeded permutation, which keeps every language, verdict and
counterexample and changes every file and state id.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from pathlib import Path

from orthocat import catenation, cli, core, fileformat, oracle, orthogonality, witnesses
from orthocat.core import Dfa
from orthocat.randgen import random_dfa, splitmix64_stream

ORACLE_MAX_LEN = 8  # the bound `orthocat verify` scans to

WITNESS_M, WITNESS_N = 12, 14
WITNESS_BUILT = 188_416  # 2 * (m * 2**(n-1) - 2**(n-2)) at (12, 14)
WITNESS_MINIMAL = 94_208  # m * 2**(n-1) - 2**(n-2) at (12, 14)

RANDOM_MAX_STATES = 6
RANDOM_MAX_ALPHABET = 3
# (m, n, k, accepting probability of a, of b): every setting of the test
# suite's ``dfa_pairs`` recipe at these maxima, 972 of them.
RANDOM_SETTINGS = list(
    itertools.product(
        range(1, RANDOM_MAX_STATES + 1),
        range(1, RANDOM_MAX_STATES + 1),
        range(1, RANDOM_MAX_ALPHABET + 1),
        (0.25, 0.5, 0.75),
        (0.25, 0.5, 0.75),
    )
)
RANDOM_ROUNDS = 17  # 16,524 distinct pairs per pass

FILE_WITNESS_SIZE = 200
FILE_CAT_PAIR = (10, 12)


def relabel(d: Dfa, perm: list[int]) -> Dfa:
    """The same automaton with state q renamed perm[q]."""
    delta: list[tuple[int, ...]] = [()] * d.state_count
    for q, row in enumerate(d.delta):
        delta[perm[q]] = tuple(perm[t] for t in row)
    return Dfa(
        alphabet=d.alphabet,
        delta=tuple(delta),
        start=perm[d.start],
        accepting=frozenset(perm[q] for q in d.accepting),
    )


def _permutation(rng: random.Random, n: int) -> list[int]:
    return rng.sample(range(n), n)


def _confirmed_ambiguous(a: Dfa, b: Dfa, word) -> bool:
    """The word factors in two or more ways, by direct enumeration."""
    return len(oracle.factorizations(a, b, word)) >= 2


# -- witness-verify -------------------------------------------------------------


def setup_witness_verify(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    return [(_permutation(rng, WITNESS_M), _permutation(rng, WITNESS_N))]


def run_witness_verify(perms) -> tuple:
    """The `verify 12 14` pipeline on a renumbered witness pair."""
    a = relabel(witnesses.witness_a(WITNESS_M), perms[0])
    b = relabel(witnesses.witness_b(WITNESS_N), perms[1])
    verdict = orthogonality.is_orthogonal(a, b)
    scan = oracle.brute_force_orthogonal(a, b, ORACLE_MAX_LEN)
    cat = catenation.build_catenation_dfa(a, b)
    minimal = core.minimize(cat.dfa)
    return verdict.orthogonal, scan is None, cat.dfa.state_count, minimal.state_count


def check_witness_verify(perms, result) -> bool:
    orthogonal, scan_clean, built, minimized = result
    predicted = catenation.orthogonal_upper_bound(WITNESS_M, WITNESS_N)
    return (
        orthogonal
        and scan_clean
        and predicted == minimized == WITNESS_MINIMAL
        and built == WITNESS_BUILT
    )


# -- random-pipeline ------------------------------------------------------------


def setup_random_pipeline(seed: int, workdir: Path) -> list:
    """Random pairs of the test suite's ``dfa_pairs`` recipe, stratified.

    ``dfa_pairs`` draws each pair's sizes and accepting probabilities at
    random; here each round takes every one of those settings once, in a
    fixed order, and only the automata come from the seed. The work per
    pass then no longer depends on the seed's mix of sizes, and any stretch
    of 972 ops covers every setting, wherever a run stops.
    """
    draws = splitmix64_stream(seed)
    return [
        (random_dfa(m, k, prob_a, next(draws)), random_dfa(n, k, prob_b, next(draws)))
        for _ in range(RANDOM_ROUNDS)
        for m, n, k, prob_a, prob_b in RANDOM_SETTINGS
    ]


def run_random_pipeline(pair) -> tuple:
    a, b = pair
    verdict = orthogonality.is_orthogonal(a, b)
    scan = oracle.brute_force_orthogonal(a, b, ORACLE_MAX_LEN)
    via_dfa = core.minimize(catenation.build_catenation_dfa(a, b).dfa)
    via_nfa = core.minimize(core.determinize(catenation.build_catenation_nfa(a, b)))
    return verdict.witness, scan, via_dfa, via_nfa


def check_random_pipeline(pair, result) -> bool:
    a, b = pair
    witness, scan, via_dfa, via_nfa = result
    if via_dfa != via_nfa:
        return False
    if witness is None:
        return scan is None
    if scan is None:
        if len(witness.word) <= ORACLE_MAX_LEN:
            return False
    elif scan.word != witness.word:
        return False
    return _confirmed_ambiguous(a, b, witness.word)


# -- file-cli -------------------------------------------------------------------


def setup_file_cli(seed: int, workdir: Path) -> list:
    """Write the four automaton files and return the command cycle.

    ``a200 b200`` is an orthogonal witness pair; swapped it is not, with a
    397-letter shortest counterexample. ``cat`` is the unminimized catenation
    DFA of the (10, 12) witness pair and ``min`` its minimal DFA.
    """
    rng = random.Random(seed)
    size = FILE_WITNESS_SIZE
    a = relabel(witnesses.witness_a(size), _permutation(rng, size))
    b = relabel(witnesses.witness_b(size), _permutation(rng, size))
    cat = catenation.build_catenation_dfa(
        witnesses.witness_a(FILE_CAT_PAIR[0]), witnesses.witness_b(FILE_CAT_PAIR[1])
    ).dfa
    minimal = core.minimize(cat)
    files = {
        "a200": a,
        "b200": b,
        "cat_10_12": relabel(cat, _permutation(rng, cat.state_count)),
        "min_10_12": relabel(minimal, _permutation(rng, minimal.state_count)),
    }
    for name, dfa in files.items():
        (workdir / name).write_text(fileformat.serialize_automaton(dfa))
    path = {name: str(workdir / name) for name in files}
    return [
        (["ortho", path["a200"], path["b200"]], 0, None),
        (["ortho", path["b200"], path["a200"]], 1, (b, a)),
        (["eq", path["cat_10_12"], path["min_10_12"]], 0, None),
    ]


def run_file_cli(command) -> tuple:
    argv, _, _ = command
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(list(argv))
    return status, out.getvalue()


def check_file_cli(command, result) -> bool:
    argv, expected_status, pair = command
    status, text = result
    if status != expected_status:
        return False
    if pair is None:
        return text == ("orthogonal\n" if argv[0] == "ortho" else "equivalent\n")
    lines = text.splitlines()
    if lines[0] != "not orthogonal" or not lines[1].startswith("word: "):
        return False
    first, second = pair
    word = core.parse_word(first.alphabet, lines[1][len("word: "):])
    return _confirmed_ambiguous(first, second, word)


WORKLOADS = {
    "witness-verify": (setup_witness_verify, run_witness_verify, check_witness_verify),
    "random-pipeline": (setup_random_pipeline, run_random_pipeline, check_random_pipeline),
    "file-cli": (setup_file_cli, run_file_cli, check_file_cli),
}
