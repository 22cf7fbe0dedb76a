"""Brute-force reference implementations used to certify the main algorithms.

Everything here works by direct enumeration over words — vectorized with
numpy where the word counts get large — and shares no logic with the
constructions it is used to check: factorization counts come straight from
the definition (prefix accepted by the first automaton, suffix by the
second), and residuals are compared as raw acceptance vectors. Costs are
exponential in the length bound by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import Dfa, Word, _require_same_alphabet, accepts, reachable_states
from .orthogonality import AmbiguityWitness


def factorizations(a: Dfa, b: Dfa, w: str | Iterable[int]) -> list[tuple[Word, Word]]:
    """All splits w = u·v with u in L(a) and v in L(b), shortest u first."""
    _require_same_alphabet(a, b)
    word = a.word(w)
    length = len(word)
    prefix_ok = [a.start in a.accepting]
    state = a.start
    for s in word:
        state = a.delta[state][s]
        prefix_ok.append(state in a.accepting)
    # vec[p] = does b accept the current suffix when started in p
    vec = [p in b.accepting for p in range(b.state_count)]
    suffix_ok = [False] * (length + 1)
    suffix_ok[length] = vec[b.start]
    for i in range(length - 1, -1, -1):
        s = word[i]
        vec = [vec[b.delta[p][s]] for p in range(b.state_count)]
        suffix_ok[i] = vec[b.start]
    return [(word[:i], word[i:]) for i in range(length + 1) if prefix_ok[i] and suffix_ok[i]]


def brute_force_orthogonal(a: Dfa, b: Dfa, max_len: int) -> AmbiguityWitness | None:
    """Scan every word of length <= max_len in shortest-then-lex order and
    return a witness for the first one with two or more factorizations.

    ``None`` means no violation exists up to the bound — and nothing more.
    """
    _require_same_alphabet(a, b)
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    k = len(a.alphabet)
    for length, counts in enumerate(_count_tables(a, b, max_len)):
        flagged = counts >= 2
        first = int(np.argmax(flagged))
        if flagged[first]:
            word = _word_at(k, length, first)
            splits = factorizations(a, b, word)
            return AmbiguityWitness(word, splits[0], splits[1])
    return None


def factorization_count_table(a: Dfa, b: Dfa, length: int) -> np.ndarray:
    """Number of factorizations of every word of exactly ``length``, in
    lexicographic order over the alphabet (index = base-k word value), as
    the smallest unsigned integer dtype that holds ``length + 1``."""
    _require_same_alphabet(a, b)
    if length < 0:
        raise ValueError("length must be non-negative")
    return next(islice(_count_tables(a, b, length), length, None))


def acceptance_table(d: Dfa, length: int) -> np.ndarray:
    """Acceptance flag for every word of exactly ``length``, lex order."""
    if length < 0:
        raise ValueError("length must be non-negative")
    delta = d._table
    acc = np.array([q in d.accepting for q in range(d.state_count)])
    states = np.array([d.start], dtype=np.int64)
    for _ in range(length):
        # extending every prefix by one symbol keeps lex order: index = prefix*k + c
        states = delta[states].ravel()
    return acc[states]


def enumerate_accepted(d: Dfa, max_len: int) -> list[Word]:
    """All accepted words of length <= max_len, shortest first, then
    lexicographic in alphabet order. Brute force; meant for small bounds."""
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    k = len(d.alphabet)
    return [
        _word_at(k, length, index)
        for length in range(max_len + 1)
        for index in np.flatnonzero(acceptance_table(d, length)).tolist()
    ]


def _count_tables(a: Dfa, b: Dfa, max_len: int) -> Iterator[np.ndarray]:
    """Yield, for each length 0..max_len, the factorization counts of all
    k^length words in lex order.

    Level j is computed from level j-1 by sharing suffixes: suffix_acc[p, y]
    says whether b started in p accepts suffix y, and splits[q, y] counts the
    factorization points inside y when a enters it in state q. One gather
    per side extends every suffix by a first symbol c, and the reshape puts
    c·y' at index c*k^(j-1) + y' (the first symbol is the most significant
    digit, so array order is lex order), as in ``acceptance_table``. A word
    of length L has at most L + 1 split points, so the counts' dtype is the
    smallest unsigned one that holds max_len + 1.
    """
    m, nb = a.state_count, b.state_count
    a_delta = a._table
    b_delta = b._table
    a_acc = np.array([q in a.accepting for q in range(m)])
    suffix_acc = np.array([[p in b.accepting] for p in range(nb)])
    splits = np.zeros((m, 1), dtype=np.min_scalar_type(max_len + 1))
    splits[a_acc] += suffix_acc[b.start]  # one split if the empty suffix is in L(b)
    yield splits[a.start].copy()
    for _ in range(max_len):
        suffix_acc = suffix_acc[b_delta].reshape(nb, -1)
        splits = splits[a_delta].reshape(m, -1)
        splits[a_acc] += suffix_acc[b.start]
        yield splits[a.start].copy()


def _word_at(k: int, length: int, index: int) -> Word:
    word = []
    for _ in range(length):
        index, digit = divmod(index, k)
        word.append(digit)
    return tuple(reversed(word))


def residual_count(d: Dfa) -> int:
    """Number of distinct residual languages among reachable states.

    Compares acceptance vectors over all words of length <= state_count,
    packed per length into big integers; inequivalent states of a single
    DFA are always distinguished by a word shorter than the state count, so
    the bound is sufficient. Counts the empty residual like any other, so
    the result matches the size of the canonical minimal complete DFA.
    """
    n, k = d.state_count, len(d.alphabet)
    vec = [1 if q in d.accepting else 0 for q in range(n)]
    keys: list[tuple[int, ...]] = [(v,) for v in vec]
    width = 1  # bit width of the per-state vector for the previous length
    for _ in range(n):
        nxt = []
        for q in range(n):
            value = 0
            for s in range(k):
                value = (value << width) | vec[d.delta[q][s]]
            nxt.append(value)
        vec = nxt
        width *= k
        keys = [keys[q] + (vec[q],) for q in range(n)]
    return len({keys[q] for q in reachable_states(d)})


@dataclass(frozen=True)
class FoolingSetResult:
    """Outcome of a fooling-set check.

    ``size`` is the certified lower bound on nondeterministic state
    complexity when ``ok``; otherwise ``offending`` holds the index pair
    that broke a condition ((i, i) for a rejected x·y)."""

    ok: bool
    size: int
    offending: tuple[int, int] | None = None
    reason: str = ""


def verify_fooling_set(lang: Dfa, pairs: Sequence[tuple[Word, Word]]) -> FoolingSetResult:
    """Certify fooling-set conditions by direct membership tests.

    Every x_i·y_i must be accepted, and for i != j at least one of the two
    cross products x_i·y_j, x_j·y_i must be rejected. Failure is a value,
    not an exception.
    """
    words = [(lang.word(x), lang.word(y)) for x, y in pairs]
    for i, (x, y) in enumerate(words):
        if not accepts(lang, x + y):
            return FoolingSetResult(False, 0, (i, i), f"pair {i}: x·y is not in the language")
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            if accepts(lang, words[i][0] + words[j][1]) and accepts(
                lang, words[j][0] + words[i][1]
            ):
                return FoolingSetResult(
                    False, 0, (i, j), f"pairs {i}, {j}: both cross products are accepted"
                )
    return FoolingSetResult(True, len(words))
