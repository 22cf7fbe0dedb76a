"""Shared corpora, strategies and helpers for the test suite.

All random corpora are seeded through the package's own splitmix64 stream so
every run (and every implementation of the documented generator) sees the
identical automata.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import orthocat
from orthocat import Dfa, Nfa
from orthocat.randgen import random_dfa, splitmix64_stream

BOUND_CORPUS_SEED = 0xB0D5_0001
CONSTRUCTION_CORPUS_SEED = 0x0CA7_0002
ORTHO_CORPUS_SEED = 0x0A70_0003
RESIDUAL_CORPUS_SEED = 0x0E50_0004
NFA_CORPUS_SEED = 0x0FA0_0005


def dfa_pairs(
    seed: int,
    count: int,
    *,
    min_m: int = 1,
    max_m: int = 4,
    min_n: int = 1,
    max_n: int = 4,
    max_alphabet: int = 3,
) -> list[tuple[Dfa, Dfa]]:
    """Seeded corpus of random DFA pairs sharing an alphabet."""
    draws = splitmix64_stream(seed)
    pairs = []
    for _ in range(count):
        m = min_m + next(draws) % (max_m - min_m + 1)
        n = min_n + next(draws) % (max_n - min_n + 1)
        k = 1 + next(draws) % max_alphabet
        prob_a = (1 + next(draws) % 3) / 4
        prob_b = (1 + next(draws) % 3) / 4
        pairs.append(
            (random_dfa(m, k, prob_a, next(draws)), random_dfa(n, k, prob_b, next(draws)))
        )
    return pairs


def random_nfas(seed: int, count: int, *, max_states: int = 4, max_alphabet: int = 3) -> list[Nfa]:
    """Seeded corpus of random NFAs with uniform successor subsets."""
    draws = splitmix64_stream(seed)
    out = []
    for _ in range(count):
        n = 1 + next(draws) % max_states
        k = 1 + next(draws) % max_alphabet
        rows = tuple(
            tuple(_subset(next(draws), n) for _ in range(k)) for _ in range(n)
        )
        initial = _subset(next(draws), n)
        accepting = _subset(next(draws), n)
        out.append(
            Nfa(alphabet=tuple("abc"[:k]), delta=rows, initial=initial, accepting=accepting)
        )
    return out


def _subset(mask: int, n: int) -> frozenset[int]:
    return frozenset(p for p in range(n) if mask >> p & 1)


def product_walk_agrees(d1: Dfa, p: int, d2: Dfa, q: int) -> bool:
    """True iff state ``p`` of ``d1`` and state ``q`` of ``d2`` accept the
    same words: a walk over the pairs of states that one word reaches from
    ``(p, q)``, which fails at a pair where only one side accepts. It reads
    only the ``delta`` rows and accepting sets, so it shares no algorithm
    with the library's equivalence tests."""
    seen = {(p, q)}
    todo = [(p, q)]
    while todo:
        p, q = todo.pop()
        if (p in d1.accepting) != (q in d2.accepting):
            return False
        for pair in zip(d1.delta[p], d2.delta[q]):
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True


@pytest.fixture(scope="session")
def bound_corpus() -> list[tuple[Dfa, Dfa]]:
    """500 pairs for the catenation bound ceilings; n starts at 2 because the
    halved bound formula is undefined below that."""
    return dfa_pairs(BOUND_CORPUS_SEED, 500, max_m=5, min_n=2, max_n=5)


@pytest.fixture(scope="session")
def construction_corpus() -> list[tuple[Dfa, Dfa]]:
    """200 pairs for cross-checking the two catenation constructions."""
    return dfa_pairs(CONSTRUCTION_CORPUS_SEED, 200, max_m=5, max_n=5)


@pytest.fixture(scope="session")
def ortho_corpus() -> list[tuple[Dfa, Dfa]]:
    """1000 pairs for the orthogonality decision/oracle agreement suites."""
    return dfa_pairs(ORTHO_CORPUS_SEED, 1000, max_m=4, max_n=4)


@pytest.fixture(scope="session")
def residual_corpus() -> list[Dfa]:
    """500 single DFAs (<= 6 states, <= 3 letters) for the residual oracle."""
    draws = splitmix64_stream(RESIDUAL_CORPUS_SEED)
    out = []
    for _ in range(500):
        n = 1 + next(draws) % 6
        k = 1 + next(draws) % 3
        prob = (1 + next(draws) % 3) / 4
        out.append(random_dfa(n, k, prob, next(draws)))
    return out


@st.composite
def dfa_strategy(draw, max_states: int = 5, max_alphabet: int = 3) -> Dfa:
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, max_alphabet))
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(k)) for _ in range(n)
    )
    accepting = draw(st.frozensets(st.integers(0, n - 1)))
    return Dfa(alphabet=tuple("abcde"[:k]), delta=delta, start=0, accepting=accepting)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's orthocat,
    whether or not the package is installed."""
    package_parent = str(Path(orthocat.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
