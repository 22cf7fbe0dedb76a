"""Orthogonality of a catenation pair: decision procedure, counterexample
extraction, and the structural checkers that constrain orthogonal pairs.

A pair (a, b) is orthogonal when no word of L(a)·L(b) can be split in two
different ways into an L(a) prefix and an L(b) suffix. Because both inputs
are deterministic, accepting runs of the catenation NFA correspond one-to-one
with split positions, so the decision reduces to an exact ambiguity search
on that NFA's self-product.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import core
from .catenation import (
    CatDfa,
    build_catenation_dfa,
    build_catenation_nfa,
    valid_second_components,
)
from .core import (
    _DENSE_MIN_QUEUE,
    Dfa,
    Word,
    _bfs_tree,
    _flags_of,
    _require_same_alphabet,
    format_word,
)

Node = tuple[int, int, bool]  # a self-product node (s, t, diverged) of the search


@dataclass(frozen=True)
class AmbiguityWitness:
    """A word with two distinct prefix/suffix factorizations.

    ``u + v == word`` for both splits, every prefix is accepted by the first
    automaton and every suffix by the second, and the splits are ordered by
    prefix length (``len(split1[0]) < len(split2[0])``).
    """

    word: Word
    split1: tuple[Word, Word]
    split2: tuple[Word, Word]


@dataclass(frozen=True)
class OrthogonalityVerdict:
    """Result of the orthogonality decision; truthy iff orthogonal."""

    witness: AmbiguityWitness | None

    @property
    def orthogonal(self) -> bool:
        return self.witness is None

    def __bool__(self) -> bool:
        return self.witness is None


class NotOrthogonalError(ValueError):
    """Raised when an operation defined only for orthogonal pairs is applied
    to a pair with a doubly factorizable word; carries the witness."""

    def __init__(self, witness: AmbiguityWitness, alphabet: tuple[str, ...]):
        self.witness = witness
        word = format_word(alphabet, witness.word)
        super().__init__(f"languages are not catenation-orthogonal: {word} factors twice")


class AcceptingCycleError(ValueError):
    """Raised when an accepting state lies on a cycle, naming the offender."""

    def __init__(self, state: int, cycle: Word, alphabet: tuple[str, ...]):
        self.state = state
        self.cycle = cycle
        super().__init__(
            f"accepting state {state} returns to itself on {format_word(alphabet, cycle)}"
        )


@dataclass(frozen=True)
class AccOrder:
    """Strict reachability order on accepting states: (f1, f2) is present
    iff f2 is reachable from f1. Anti-reflexive under the no-accepting-cycle
    precondition of :func:`acc_order`."""

    pairs: frozenset[tuple[int, int]]


def is_orthogonal(a: Dfa, b: Dfa) -> OrthogonalityVerdict:
    """Decide whether every word of L(a)·L(b) factors uniquely.

    Breadth-first search over self-product states (s, t, diverged) of the
    catenation NFA: the flag records whether the two runs have differed so
    far, and a diverged pair of accepting states is exactly a word with two
    distinct factorizations. :func:`_search` groups frontier nodes by the
    word that first reaches them and expands groups in word order (many
    product nodes share one word), so the first hit is the shortest
    ambiguous word with ties broken in alphabet order; its two runs yield
    the splits.

    A diverged node and its mirror (t, s) are reached by the same words, so
    each unordered pair of runs is searched once, stored as (min, max). The
    splits survive: two runs both in the first automaton's part are one run
    (it is deterministic, and no run returns there from the second's part),
    so the lower state is the run still in the first part until both have
    left it, and :func:`_witness` counts only states of the first part.

    Levels of at most ``_DENSE_MIN_QUEUE`` nodes are expanded by the loop.
    Once a level holds more, :func:`_dense_search` starts the search over
    with one numpy step per level and marks the nodes on shortest paths to
    a hit; the loop, admitting only those, then reads the same witness. The
    numpy route runs only while its arrays keep to ``core._MAX_CELLS`` int64
    cells (about 24 * k * (m + n)**2 for k letters); past that the loop runs
    to the end. Both routes read the NFA's cells, frozensets, as built, in
    any order.
    """
    _require_same_alphabet(a, b)
    nfa = build_catenation_nfa(a, b)
    succ = nfa.delta

    bits = len(succ).bit_length()  # 2**bits > m + n, so a spare state fits
    # The dense route's int32 level array and bool hit array over every key,
    # and six arrays of the 4 * k candidates of each node (s <= t, diverged)
    # there is: two for the new keys each step meets and their rows, kept for
    # every level, and four for one step's work, in case all wait in one level.
    cells = (3 << 2 * bits) + 24 * len(nfa.alphabet) * len(succ) * (len(succ) + 1)
    narrow = _DENSE_MIN_QUEUE if cells <= core._MAX_CELLS else float("inf")
    found = _search(succ, nfa.accepting, bits, (a.start, a.start, False), narrow)
    return OrthogonalityVerdict(found and _witness(*found, a.state_count))


def _search(
    succ: tuple[tuple[frozenset[int], ...], ...],
    acc: frozenset[int],
    bits: int,
    start: Node,
    narrow: float,
    keep: Callable[[Node, int], bool] | None = None,
) -> tuple[list[Node], Word] | None:
    """Search the self-product of :func:`is_orthogonal` from ``start`` in
    word order; return the first hit's chain, start first, and its word, or
    None past the last level.

    Once a level holds more than ``narrow`` nodes, the search is left to
    :func:`_dense_search`. When ``keep`` is given, a node met at BFS level
    ``depth`` is admitted only if ``keep(node, depth)`` is true.
    """
    k = len(succ[0])
    parents: dict[Node, tuple[Node, int] | None] = {start: None}
    frontier: list[list[Node]] = [[start]]  # groups share a word, in lex order
    count = 1  # nodes in frontier
    depth = 0
    while frontier:
        if count > narrow:
            return _dense_search(succ, acc, bits, start)
        next_frontier: list[list[Node]] = []
        count = 0
        depth += 1
        for group in frontier:
            for sym in range(k):
                fresh: list[Node] = []
                for s, t, diverged in group:
                    for s2 in succ[s][sym]:
                        for t2 in succ[t][sym]:
                            nxt = (s2, t2, True) if s2 < t2 else (t2, s2, diverged or s2 != t2)
                            if nxt in parents or keep and not keep(nxt, depth):
                                continue
                            parents[nxt] = ((s, t, diverged), sym)
                            fresh.append(nxt)
                if not fresh:
                    continue
                fresh.sort()
                for node in fresh:
                    if node[2] and node[0] in acc and node[1] in acc:
                        chain, word = [node], []
                        while (edge := parents[chain[-1]]) is not None:
                            chain.append(edge[0])
                            word.append(edge[1])
                        return chain[::-1], tuple(reversed(word))
                next_frontier.append(fresh)
                count += len(fresh)
        frontier = next_frontier
    return None


def _dense_search(
    succ: tuple[tuple[frozenset[int], ...], ...], acc: frozenset[int], bits: int, start: Node
) -> tuple[list[Node], Word] | None:
    """Search as :func:`_search` does from ``start``, with one numpy step
    per BFS level, and return the same hit chain and word, or None past the
    last level.

    A node ``(s, t, diverged)`` is the key ``(s << bits | t) << 1 | diverged``,
    so keys sort as the tuples do. ``succ`` holds the catenation NFA's cells,
    frozensets of at most two successors; a spare state, ``len(succ)``, pads
    every cell to two. ``level[key]`` is the BFS level of a node found,
    -1 for one not yet found and -2 for one that holds the spare state. Each
    step takes the next level as the set of new keys among the successors
    of its level, and keeps each new key it meets with the row of the node
    it comes from, until a level holds a hit. A pass down the kept keys
    marks ``good`` the nodes with a path to a hit, and :func:`_search`,
    admitting only good nodes at their own level, reads the witness.

    That witness is the full loop's: the first node to reach a good node in
    the loop steps to it from one level down, so it is itself good. The
    limited loop thus meets the good nodes in the same order, from the same
    parents, and stops at the same first hit.
    """
    k = len(succ[0])
    spare, low, shift = len(succ), (1 << bits) - 1, bits + 1
    table = np.full((1 << bits, k, 2), spare, dtype=np.int64)
    table[:spare] = [[tuple(cell) + (spare,) * (2 - len(cell)) for cell in row] for row in succ]
    # the successors of s and of t for the four choices of a symbol, in order
    firsts = table[:, :, [0, 0, 1, 1]].reshape(1 << bits, 4 * k)
    seconds = table[:, :, [0, 1, 0, 1]].reshape(1 << bits, 4 * k)
    flags = _flags_of(1 << bits, list(acc))
    hit = np.zeros((1 << bits, 1 << bits, 2), dtype=bool)
    hit[:, :, 1] = np.logical_and.outer(flags, flags)
    hit = hit.ravel()  # diverged, and both accepting

    def key(node: Node) -> int:
        return (node[0] << bits | node[1]) << 1 | node[2]

    level = np.full(2 << 2 * bits, -1, dtype=np.int32)
    padded = (np.arange(spare + 1) << bits | spare) << 1
    level[padded] = level[padded | 1] = -2
    keys = np.array([key(start)], dtype=np.int64)
    level[keys] = 0
    levels, edges = [keys], []
    while not hit.take(keys).any():
        s2, t2 = firsts.take(keys >> shift, 0), seconds.take(keys >> 1 & low, 0)
        cand = np.minimum(s2, t2)
        cand <<= bits
        cand |= np.maximum(s2, t2)
        cand <<= 1
        cand |= s2 != t2
        cand |= (keys & 1)[:, None]
        del s2, t2  # at most four candidate-sized arrays live, as the budget counts
        found = np.flatnonzero(level.take(cand) == -1)
        new = cand.take(found)
        del cand
        keys = np.unique(new)
        if not len(keys):
            return None
        level[keys] = len(levels)
        levels.append(keys)
        edges.append((found // (4 * k), new))  # each new key met and its row

    # mark the nodes with a path to a hit, from the hit level down: a node
    # has one when a new key it steps to has one
    good = hit
    for keys, (rows, new) in zip(levels[-2::-1], reversed(edges)):
        good[keys[rows[good.take(new)]]] = True

    def keep(node: Node, depth: int) -> bool:
        return good[key(node)] and level[key(node)] == depth

    return _search(succ, acc, bits, start, float("inf"), keep)


def _witness(chain: list[Node], word: Word, m: int) -> AmbiguityWitness:
    """The splits of the two runs along ``chain``, the path of ``word`` from
    the start to a hit, shorter prefix first. The catenation NFA has no edge
    from the second automaton's states (m and up) back to the first's, so a
    run's states below m are exactly its first ``len(prefix) + 1``."""
    i, j = sorted(sum(node[run] < m for node in chain) - 1 for run in (0, 1))
    return AmbiguityWitness(word, (word[:i], word[i:]), (word[:j], word[j:]))


def orthogonal_catenation(a: Dfa, b: Dfa) -> CatDfa:
    """Catenation DFA, defined only for orthogonal pairs.

    Raises :class:`NotOrthogonalError` carrying the counterexample when some
    product word factors twice.
    """
    verdict = is_orthogonal(a, b)
    if verdict.witness is not None:
        raise NotOrthogonalError(verdict.witness, a.alphabet)
    return build_catenation_dfa(a, b)


def _cycle_word(d: Dfa, tree: dict[int, tuple[int, int] | None]) -> Word | None:
    """Shortest nonempty word, ties broken in alphabet order, leading the root
    of ``tree`` (its breadth-first tree) back to the root, or None. Tree paths
    are shortest-lex words, so the cycle ends at the first state in discovery
    order with an edge into the root, on its lowest such symbol."""
    root = next(iter(tree))
    for q in tree:
        if root in d.delta[q]:
            word = [d.delta[q].index(root)]
            while (edge := tree[q]) is not None:
                q, s = edge
                word.append(s)
            return tuple(reversed(word))
    return None


def check_acyclic_accepting(a: Dfa) -> bool:
    """True iff no accepting state can reach itself on a nonempty word."""
    return all(_cycle_word(a, _bfs_tree(a, f)) is None for f in a.accepting)


def acc_order(a: Dfa) -> AccOrder:
    """Reachability order restricted to accepting states, diagonal excluded.

    Requires :func:`check_acyclic_accepting`; otherwise the relation would
    not be anti-reflexive, and an :class:`AcceptingCycleError` names the
    offending state and a shortest cycle word.
    """
    pairs: set[tuple[int, int]] = set()
    for f in sorted(a.accepting):
        tree = _bfs_tree(a, f)
        cycle = _cycle_word(a, tree)
        if cycle is not None:
            raise AcceptingCycleError(f, cycle, a.alphabet)
        pairs.update((f, g) for g in tree.keys() & a.accepting if g != f)
    return AccOrder(frozenset(pairs))


def merging_pairs(b: Dfa) -> list[tuple[int, int, int]]:
    """All (p1, p2, symbol) with p1 < p2 sent to the same state by the
    symbol; empty exactly when the automaton is a permutation automaton."""
    out: list[tuple[int, int, int]] = []
    for s in range(len(b.alphabet)):
        groups: dict[int, list[int]] = {}
        for p in range(b.state_count):
            groups.setdefault(b.delta[p][s], []).append(p)
        for group in groups.values():
            for i, p1 in enumerate(group):
                for p2 in group[i + 1 :]:
                    out.append((p1, p2, s))
    out.sort()
    return out


def forbidden_second_component_states(a: Dfa, b: Dfa, q: int) -> frozenset[int]:
    """b-states missing from every valid second component of q.

    The caller interprets the result: orthogonal pairs with a permutation
    second automaton are guaranteed a nonempty set for any q that can still
    reach an accepting state, while arbitrary pairs promise nothing.
    """
    return frozenset(range(b.state_count)).difference(*valid_second_components(a, b, q))
