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

from .catenation import CatDfa, build_catenation_dfa, build_catenation_nfa, valid_second_components
from .core import Dfa, Word, _bfs_tree, _require_same_alphabet, format_word


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
    """
    _require_same_alphabet(a, b)
    nfa = build_catenation_nfa(a, b)
    k = len(nfa.alphabet)
    acc = nfa.accepting
    succ = [[tuple(sorted(cell)) for cell in row] for row in nfa.delta]

    Node = tuple[int, int, bool]
    start: Node = (a.start, a.start, False)
    parents: dict[Node, tuple[Node, int] | None] = {start: None}
    frontier: list[list[Node]] = [[start]]  # groups share a word, in lex order
    while frontier:
        next_frontier: list[list[Node]] = []
        for group in frontier:
            for sym in range(k):
                fresh: list[Node] = []
                for s, t, diverged in group:
                    for s2 in succ[s][sym]:
                        for t2 in succ[t][sym]:
                            nxt = (s2, t2, diverged or s2 != t2)
                            if nxt in parents:
                                continue
                            parents[nxt] = ((s, t, diverged), sym)
                            fresh.append(nxt)
                if not fresh:
                    continue
                fresh.sort()
                for node in fresh:
                    if node[2] and node[0] in acc and node[1] in acc:
                        return OrthogonalityVerdict(_witness(node, parents, a.state_count))
                next_frontier.append(fresh)
        frontier = next_frontier
    return OrthogonalityVerdict(None)


def _witness(hit: tuple[int, int, bool], parents: dict, m: int) -> AmbiguityWitness:
    """The word on the parent chain of ``hit`` and the splits of its two runs."""
    chain, symbols = [hit], []
    while (edge := parents[chain[-1]]) is not None:
        chain.append(edge[0])
        symbols.append(edge[1])
    chain.reverse()
    word = tuple(reversed(symbols))
    first = _split_of([n[0] for n in chain], word, m)
    second = _split_of([n[1] for n in chain], word, m)
    split1, split2 = sorted((first, second), key=lambda sp: len(sp[0]))
    return AmbiguityWitness(word, split1, split2)


def _split_of(run: list[int], word: Word, m: int) -> tuple[Word, Word]:
    """Factorization encoded by an accepting run: the prefix read before the
    run crosses from the first automaton's states into the second's."""
    for i in range(len(run) - 1):
        if run[i] < m <= run[i + 1]:
            return word[:i], word[i:]
    return word, ()


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
    family = valid_second_components(a, b, q)
    used: set[int] = set()
    for component in family:
        used |= component
    return frozenset(range(b.state_count)) - used
