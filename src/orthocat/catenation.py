"""Catenation constructions and the state-count bound formulas.

The deterministic construction tracks, next to the first automaton's state,
the set of second-automaton states that some already-accepted prefix could
have launched; the nondeterministic one glues the two automata with copied
edges instead of ε-moves, so it has exactly the sum of the state counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .core import Dfa, Nfa, _require_same_alphabet

# Second-automaton subsets are bitmasks held in Python ints, which have no
# fixed width: the cap is a plain size limit on the second automaton.
MAX_SECOND_AUTOMATON_STATES = 62


@dataclass(frozen=True)
class CatState:
    """Label of a catenation-DFA state: the tracked first-automaton state
    plus the set of live second-automaton states."""

    a_state: int
    b_subset: frozenset[int]


@dataclass(frozen=True)
class CatDfa:
    """Catenation DFA together with the construction key of every state.

    ``keys[i]`` is ``(q, mask)``: state i tracks first-automaton state q and
    the second-automaton states whose bits are set in ``mask``.
    """

    dfa: Dfa
    keys: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        if len(self.keys) != self.dfa.state_count:
            raise ValueError("exactly one key per state is required")

    @cached_property
    def labels(self) -> tuple[CatState, ...]:
        """The keys decoded into labels, one per state; built on first access."""
        return tuple(CatState(q, _mask_members(mask)) for q, mask in self.keys)


def _mask_members(mask: int) -> frozenset[int]:
    return frozenset(p for p in range(mask.bit_length()) if mask >> p & 1)


def general_upper_bound(m: int, n: int) -> int:
    """Largest minimal-DFA size the catenation of arbitrary m- and n-state
    DFA languages can need: m * 2**n - 2**(n-1)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    return m * 2**n - 2 ** (n - 1)


def orthogonal_upper_bound(m: int, n: int) -> int:
    """Halved ceiling m * 2**(n-1) - 2**(n-2) that applies when every
    product word factors uniquely; an integer only from n = 2 upward."""
    if m < 1:
        raise ValueError("m must be positive")
    if n < 2:
        raise ValueError("orthogonal_upper_bound is undefined for n < 2")
    return m * 2 ** (n - 1) - 2 ** (n - 2)


def build_catenation_dfa(a: Dfa, b: Dfa) -> CatDfa:
    """Deterministic catenation automaton, restricted to reachable states.

    A state labelled (q, X) means: ``a`` sits in q, and X collects the
    ``b``-runs spawned at every accepted prefix so far. Stepping on a symbol
    advances q and every member of X; whenever the new q is accepting, the
    ``b`` start state joins X. A state accepts iff X meets ``b``'s accepting
    set. The start label is (a.start, {}) — except that when the empty word
    is already in L(a) it must be (a.start, {b.start}), since the transition
    rule only spawns runs on moves and would otherwise lose ε·L(b).
    """
    _require_same_alphabet(a, b)
    nb = b.state_count
    if nb > MAX_SECOND_AUTOMATON_STATES:
        raise ValueError(
            f"second automaton has {nb} states; bitmask subsets support at most "
            f"{MAX_SECOND_AUTOMATON_STATES}"
        )
    k = len(a.alphabet)
    image = [[1 << b.delta[p][s] for p in range(nb)] for s in range(k)]
    # step[s][mask]: the b-states that mask moves to on s. A mask recurs
    # with many first components, so each is worked out once per symbol.
    step: list[dict[int, int]] = [{} for _ in range(k)]
    b_start = 1 << b.start
    fb_mask = 0
    for p in b.accepting:
        fb_mask |= 1 << p
    start_key = (a.start, b_start if a.start in a.accepting else 0)
    index = {start_key: 0}
    keys = [start_key]
    rows: list[tuple[int, ...]] = []
    for q, mask in keys:  # keys grows while it is walked: the BFS queue
        row = []
        for s, q2 in enumerate(a.delta[q]):
            mask2 = step[s].get(mask)
            if mask2 is None:
                mask2 = 0
                rem = mask
                while rem:
                    low = rem & -rem
                    mask2 |= image[s][low.bit_length() - 1]
                    rem ^= low
                step[s][mask] = mask2
            key = (q2, mask2 | b_start) if q2 in a.accepting else (q2, mask2)
            target = index.get(key)
            if target is None:
                target = index[key] = len(keys)
                keys.append(key)
            row.append(target)
        rows.append(tuple(row))
    accepting = frozenset(i for i, (_, mask) in enumerate(keys) if mask & fb_mask)
    dfa = Dfa(alphabet=a.alphabet, delta=tuple(rows), start=0, accepting=accepting)
    return CatDfa(dfa, tuple(keys))


def build_catenation_nfa(a: Dfa, b: Dfa) -> Nfa:
    """Catenation NFA with exactly a.state_count + b.state_count states.

    ``a``'s part keeps its transitions; every accepting ``a`` state also
    carries copies of the out-edges of ``b``'s start state (replacing
    ε-moves) and counts as accepting iff ``b`` accepts the empty word. The
    automata may use different alphabets: the result runs over their union
    with ``a``'s symbols first, leaving foreign symbols without successors.
    """
    merged = a.alphabet + tuple(s for s in b.alphabet if s not in a.alphabet)
    b_cols = [merged.index(name) for name in b.alphabet]  # a's columns come first
    m = a.state_count
    edges = chain(
        ((q, s, t) for q, row in enumerate(a.delta) for s, t in enumerate(row)),
        ((m + p, c, m + t) for p, row in enumerate(b.delta) for c, t in zip(b_cols, row)),
        ((q, c, m + t) for q in a.accepting for c, t in zip(b_cols, b.delta[b.start])),
    )
    accepting = {m + p for p in b.accepting}
    if b.start in b.accepting:
        accepting |= a.accepting
    return Nfa.from_edges(merged, m + b.state_count, {a.start}, accepting, edges)


def valid_second_components(a: Dfa, b: Dfa, q: int) -> frozenset[frozenset[int]]:
    """All sets X of b-states occurring with first component q among the
    reachable catenation-DFA states; empty when q never shows up."""
    if not 0 <= q < a.state_count:
        raise ValueError(f"state {q} out of range for {a.state_count} states")
    masks = {mask for p, mask in build_catenation_dfa(a, b).keys if p == q}
    return frozenset(_mask_members(mask) for mask in masks)
