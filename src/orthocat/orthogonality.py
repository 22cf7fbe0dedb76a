"""Orthogonality of a catenation pair: decision procedure, counterexample
extraction, and the structural checkers that constrain orthogonal pairs.

A pair (a, b) is orthogonal when no word of L(a)·L(b) can be split in two
different ways into an L(a) prefix and an L(b) suffix. Because both inputs
are deterministic, accepting runs of the catenation NFA correspond one-to-one
with split positions, so the decision reduces to an exact ambiguity search
on that NFA's self-product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catenation import (
    _DENSE_MAX_CELLS,
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
    distinct factorizations. Frontier nodes are grouped by the word that
    first reaches them and groups are expanded in word order (many product
    nodes share one word), so the first hit is the shortest ambiguous word
    with ties broken in alphabet order; its two runs yield the splits.

    A diverged node and its mirror (t, s) are reached by the same words, so
    each unordered pair of runs is searched once, stored as (min, max). The
    splits survive: two runs both in the first automaton's part are one run
    (it is deterministic, and no run returns there from the second's part),
    so the lower state is the run still in the first part until both have
    left it, and :func:`_split_of` counts only states of the first part.

    Levels of at most ``_DENSE_MIN_QUEUE`` nodes are expanded by a Python
    loop. Once a level holds more, :func:`_dense_search` starts the search
    over with one numpy step per level, each level found as a set, and reads
    the loop's witness off the levels: the least word of the hit level's
    length that reaches a hit, the least hit it reaches, and as each node's
    parent the least node below that the word's prefix reaches. It runs
    only while its arrays fit ``_DENSE_MAX_CELLS`` int64 cells (about
    24 * k * (m + n)**2 for k letters); past that the loop runs to the end.
    Both routes read the NFA's cells, frozensets, as built, in any order.
    """
    _require_same_alphabet(a, b)
    nfa = build_catenation_nfa(a, b)
    k = len(nfa.alphabet)
    acc = nfa.accepting
    succ = nfa.delta

    bits = len(succ).bit_length()  # 2**bits > m + n, so a spare state fits
    # The dense route's int32 level array and bool hit array over every key,
    # and six arrays of the 4 * k candidates of each node (s <= t, diverged)
    # there is: two for the new keys each step meets and their rows, kept for
    # every level, and four for one step's work, in case all wait in one level.
    cells = (3 << 2 * bits) + 24 * k * len(succ) * (len(succ) + 1)
    narrow = _DENSE_MIN_QUEUE if cells <= _DENSE_MAX_CELLS else float("inf")

    Node = tuple[int, int, bool]
    start: Node = (a.start, a.start, False)
    parents: dict[Node, tuple[Node, int] | None] = {start: None}
    frontier: list[list[Node]] = [[start]]  # groups share a word, in lex order
    count = 1  # nodes in frontier
    while frontier:
        if count > narrow:
            found = _dense_search(succ, acc, bits, start)
            return OrthogonalityVerdict(found and _witness(*found, a.state_count))
        next_frontier: list[list[Node]] = []
        count = 0
        for group in frontier:
            for sym in range(k):
                fresh: list[Node] = []
                for s, t, diverged in group:
                    for s2 in succ[s][sym]:
                        for t2 in succ[t][sym]:
                            nxt = (s2, t2, True) if s2 < t2 else (t2, s2, diverged or s2 != t2)
                            if nxt in parents:
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
                        witness = _witness(chain[::-1], tuple(reversed(word)), a.state_count)
                        return OrthogonalityVerdict(witness)
                next_frontier.append(fresh)
                count += len(fresh)
        frontier = next_frontier
    return OrthogonalityVerdict(None)


def _dense_search(
    succ: tuple[tuple[frozenset[int], ...], ...],
    acc: frozenset[int],
    bits: int,
    start: tuple[int, int, bool],
) -> tuple[list[tuple[int, int, bool]], Word] | None:
    """Search the self-product of :func:`is_orthogonal` from ``start`` with
    one numpy step per BFS level; return the loop's hit chain, start first,
    and its word, or None past the last level.

    A node ``(s, t, diverged)`` is the key ``(s << bits | t) << 1 | diverged``,
    so keys sort as the tuples do. ``succ`` holds the catenation NFA's cells,
    frozensets of at most two successors; a spare state, ``len(succ)``, pads
    every cell to two. ``level[key]`` is the BFS level of a node found,
    -1 for one not yet found and -2 for one that holds the spare state. Each
    step takes the next level as the set of new keys among the successors
    of its level, and keeps each new key it meets with the row of the node
    it comes from, until a level holds a hit.

    The loop's groups go in word order, so its witness is the least word of
    that level's length that reaches a hit, the least hit that word reaches,
    and as each node's parent the least node one level down that the word's
    prefix reaches and that steps to it. A pass down the kept keys marks the
    nodes with a path to a hit; a pass up takes at each level the least
    letter that keeps one of them in reach.
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

    def key(node: tuple[int, int, bool]) -> int:
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
    reached, word = [{start}], []
    for i in range(1, len(levels)):
        for sym in range(k):
            ahead = (x for y in reached[-1] for x in _steps(succ, y, sym))
            fresh = {x for x in ahead if good[key(x)] and level[key(x)] == i}
            if fresh:
                break
        reached.append(fresh)
        word.append(sym)
    chain = [min(reached.pop())]
    for sym in reversed(word):
        chain.append(min(y for y in reached.pop() if chain[-1] in _steps(succ, y, sym)))
    return chain[::-1], tuple(word)


def _steps(
    succ: tuple[tuple[frozenset[int], ...], ...], node: tuple[int, int, bool], sym: int
) -> set[tuple[int, int, bool]]:
    """The self-product nodes that ``node`` steps to on ``sym``, read off the
    NFA's cells, frozensets, in ``succ``."""
    s, t, diverged = node
    return {
        (s2, t2, True) if s2 < t2 else (t2, s2, diverged or s2 != t2)
        for s2 in succ[s][sym]
        for t2 in succ[t][sym]
    }


def _witness(chain: list[tuple[int, int, bool]], word: Word, m: int) -> AmbiguityWitness:
    """The splits of the two runs along ``chain``, the path of ``word`` from
    the start to a hit."""
    first = _split_of([n[0] for n in chain], word, m)
    second = _split_of([n[1] for n in chain], word, m)
    split1, split2 = sorted((first, second), key=lambda sp: len(sp[0]))
    return AmbiguityWitness(word, split1, split2)


def _split_of(run: list[int], word: Word, m: int) -> tuple[Word, Word]:
    """Factorization encoded by an accepting run. The catenation NFA has no
    edge from the second automaton's states (m and up) back to the first's,
    so the run's states below m are exactly its first ``len(prefix) + 1``."""
    i = sum(q < m for q in run) - 1
    return word[:i], word[i:]


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
