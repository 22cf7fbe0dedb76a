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
from typing import Iterable

import numpy as np

from . import core
from .core import (
    _DENSE_MIN_QUEUE,
    Dfa,
    Nfa,
    _bfs_levels,
    _Frozen,
    _require_same_alphabet,
    _state,
)


def _dense_fits(m: int, k: int, n: int) -> bool:
    """(m + k) << n <= core._MAX_CELLS, without forming 2**n for a huge n."""
    return m + k <= core._MAX_CELLS >> n


@dataclass(frozen=True)
class CatState:
    """Label of a catenation-DFA state: the tracked first-automaton state
    plus the set of live second-automaton states."""

    a_state: int
    b_subset: frozenset[int]


class CatDfa(_Frozen):
    """Catenation DFA together with the construction key of every state.

    ``keys[i]`` is ``(q, mask)``: state i tracks first-automaton state q and
    the second-automaton states whose bits are set in ``mask``. The dense
    build stores the keys packed as ``q << n | mask`` in one int64 array,
    with n the second automaton's state count, and the pairs are decoded on
    first access.
    """

    dfa: Dfa

    def __init__(self, dfa: Dfa, keys: Iterable[tuple[int, int]]) -> None:
        keys = tuple(keys)
        if len(keys) != dfa.state_count:
            raise ValueError("exactly one key per state is required")
        object.__setattr__(self, "dfa", dfa)
        object.__setattr__(self, "keys", keys)

    @classmethod
    def _packed(cls, dfa: Dfa, codes: np.ndarray, shift: int) -> "CatDfa":
        """The keys given packed, ``codes[i] = q << shift | mask``."""
        codes.flags.writeable = False
        cat = cls.__new__(cls)
        object.__setattr__(cat, "dfa", dfa)
        object.__setattr__(cat, "_codes", codes)
        object.__setattr__(cat, "_shift", shift)
        return cat

    @cached_property
    def keys(self) -> tuple[tuple[int, int], ...]:
        """The ``(q, mask)`` pairs, decoded from the packed keys on first access."""
        shift = self._shift
        low = (1 << shift) - 1
        return tuple((code >> shift, code & low) for code in self._codes.tolist())

    @cached_property
    def labels(self) -> tuple[CatState, ...]:
        """The keys decoded into labels, one per state; built on first access."""
        return tuple(CatState(q, _mask_members(mask)) for q, mask in self.keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CatDfa):
            return NotImplemented
        return (self.dfa, self.keys) == (other.dfa, other.keys)

    def __hash__(self) -> int:
        return hash((self.dfa, self.keys))

    def __repr__(self) -> str:
        return f"CatDfa(dfa={self.dfa!r}, keys={self.keys!r})"


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

    States are numbered breadth-first, symbols in alphabet order. A dict
    loop builds the automaton. If numpy tables indexed by every label fit the
    size budget ``core._MAX_CELLS``, the build starts over on them, with the
    same result, once the loop queues more than ``_DENSE_MIN_QUEUE`` found
    states or passes its share of the budget; if not, that raises ValueError.
    """
    _require_same_alphabet(a, b)
    if _dense_fits(a.state_count, len(a.alphabet), b.state_count):
        return _build_loop(a, b, _DENSE_MIN_QUEUE) or _build_dense(a, b)
    cat = _build_loop(a, b)
    if cat is None:
        raise core._over_budget("the catenation DFA")
    return cat


def _build_loop(a: Dfa, b: Dfa, limit: float = float("inf")) -> CatDfa | None:
    """``build_catenation_dfa`` by a dict-indexed BFS over (q, mask) keys,
    each row's masks stepped bit by bit; None once more than ``limit`` found
    states wait in the queue, or once what it holds, its found keys plus k
    cells a row (k letters), passes ``_MAX_CELLS >> 4``."""
    nb, k = b.state_count, len(a.alphabet)
    image = [[1 << b.delta[p][s] for p in range(nb)] for s in range(k)]
    b_start = 1 << b.start
    fb_mask = sum(1 << p for p in b.accepting)
    start_key = (a.start, b_start if a.start in a.accepting else 0)
    index = {start_key: 0}
    keys = [start_key]
    rows: list[tuple[int, ...]] = []
    for q, mask in keys:  # keys grows while it is walked: the BFS queue
        row = []
        for q2, moved in zip(a.delta[q], image):
            mask2, rem = 0, mask
            while rem:
                low = rem & -rem
                mask2 |= moved[low.bit_length() - 1]
                rem ^= low
            key = (q2, mask2 | b_start) if q2 in a.accepting else (q2, mask2)
            target = index.get(key)
            if target is None:
                target = index[key] = len(keys)
                keys.append(key)
            row.append(target)
        rows.append(tuple(row))
        if len(keys) - len(rows) > limit or len(keys) + k * len(rows) > core._MAX_CELLS >> 4:
            return None
    accepting = frozenset(i for i, (_, mask) in enumerate(keys) if mask & fb_mask)
    return CatDfa(Dfa._make(a.alphabet, tuple(rows), 0, accepting), tuple(keys))


def _build_dense(a: Dfa, b: Dfa) -> CatDfa:
    """``build_catenation_dfa`` on numpy tables: a state's key is
    ``q << n | mask`` (n = b's state count), an index into the dense range
    of all ``m << n`` keys, and ``_bfs_levels`` numbers the reachable ones.

    When some b-states cannot reach b's accepting set, the DFA is given the
    congruence "same q, same mask without those states" on the packed keys,
    which ``minimize`` refines in place of the whole automaton."""
    nb = b.state_count
    # step[mask, s]: the b-states that mask moves to on s, by doubling: the
    # masks with top bit p are those below 2**p plus state p
    step = np.zeros((1 << nb, len(a.alphabet)), dtype=np.int64)
    for p, row in enumerate(b._table):
        step[1 << p : 2 << p] = step[: 1 << p] | 1 << row
    # spawn[q]: the bit a move into q adds, b's start state iff q accepts;
    # moves[q, s]: the key bits of the move from q on s, its target and spawn
    spawn = np.where(a._flags, 1 << b.start, 0)
    moves, low = a._table << nb | spawn[a._table], (1 << nb) - 1

    def successors(keys: np.ndarray) -> np.ndarray:
        return moves[keys >> nb] | step[keys & low]

    start = a.start << nb | int(spawn[a.start])
    keys, rows = _bfs_levels(start, a.state_count << nb, successors)
    fb_mask = sum(1 << p for p in b.accepting)
    # the b-states that can reach b's accepting set, by backward search
    useful, grown = -1, fb_mask
    while grown != useful:
        useful = grown
        for p, row in enumerate(b.delta):
            if any(useful >> t & 1 for t in row):
                grown |= 1 << p
    # A useless b-state steps only to useless ones and never accepts, so
    # (q, X) and (q, X minus the useless states) accept the same words.
    congruence = (keys, ~(low ^ useful)) if useful != low else None
    dfa = Dfa._make(a.alphabet, rows, 0, (keys & fb_mask) != 0, congruence)
    return CatDfa._packed(dfa, keys, nb)


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
    q = _state(q, a.state_count, "state")
    masks = {mask for p, mask in build_catenation_dfa(a, b).keys if p == q}
    return frozenset(_mask_members(mask) for mask in masks)
