"""Finite-automata core: complete DFAs, NFAs, and the standard algorithms.

States are integers ``0..state_count-1`` and symbols are indices into an
ordered alphabet of printable names. A word is a tuple of symbol indices;
wherever every symbol name is a single character, a plain string works too.
All types are immutable values and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

Word = tuple[int, ...]


def parse_word(alphabet: Sequence[str], text: str) -> Word:
    """Turn a string into a word, one character per symbol name.

    Only usable when every alphabet name is a single character; automata
    with longer names must pass explicit index tuples instead.
    """
    index = {name: i for i, name in enumerate(alphabet)}
    word = []
    for ch in text:
        if ch not in index:
            raise ValueError(f"symbol {ch!r} not in alphabet {list(alphabet)}")
        word.append(index[ch])
    return tuple(word)


def format_word(alphabet: Sequence[str], word: Iterable[int]) -> str:
    """Render a word with the alphabet's symbol names; the empty word is shown as ε."""
    names = [alphabet[s] for s in word]
    if not names:
        return "ε"
    if all(len(n) == 1 for n in names):
        return "".join(names)
    return " ".join(names)


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic finite automaton.

    ``delta[q][s]`` is the successor of state ``q`` on the ``s``-th alphabet
    symbol and must be present for every pair; incomplete tables are
    rejected at construction time rather than silently patched.
    """

    alphabet: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]
    start: int
    accepting: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        _check_alphabet(self.alphabet)
        n = len(self.delta)
        if n == 0:
            raise ValueError("an automaton needs at least one state")
        for q, row in enumerate(self.delta):
            if len(row) != len(self.alphabet):
                raise ValueError(
                    f"state {q}: expected {len(self.alphabet)} transitions, got {len(row)}"
                )
            for s, target in enumerate(row):
                if not 0 <= target < n:
                    raise ValueError(
                        f"transition ({q}, {self.alphabet[s]}) targets invalid state {target}"
                    )
        if not 0 <= self.start < n:
            raise ValueError(f"start state {self.start} out of range for {n} states")
        for q in self.accepting:
            if not 0 <= q < n:
                raise ValueError(f"accepting state {q} out of range for {n} states")

    @property
    def state_count(self) -> int:
        return len(self.delta)

    def word(self, w: str | Iterable[int]) -> Word:
        """Coerce a string or symbol-index iterable into a validated word."""
        return _coerce_word(self.alphabet, w)


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic finite automaton with a set of initial states.

    ``delta[q][s]`` is the (possibly empty) successor set; a missing
    transition is just an empty set.
    """

    alphabet: tuple[str, ...]
    delta: tuple[tuple[frozenset[int], ...], ...]
    initial: frozenset[int]
    accepting: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(
            self, "delta", tuple(tuple(frozenset(cell) for cell in row) for row in self.delta)
        )
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        _check_alphabet(self.alphabet)
        n = len(self.delta)
        if n == 0:
            raise ValueError("an automaton needs at least one state")
        for q, row in enumerate(self.delta):
            if len(row) != len(self.alphabet):
                raise ValueError(f"state {q}: expected {len(self.alphabet)} successor sets")
            for cell in row:
                for target in cell:
                    if not 0 <= target < n:
                        raise ValueError(f"state {q}: successor {target} out of range")
        for q in self.initial | self.accepting:
            if not 0 <= q < n:
                raise ValueError(f"state {q} out of range for {n} states")

    @property
    def state_count(self) -> int:
        return len(self.delta)

    @classmethod
    def from_edges(
        cls,
        alphabet: Sequence[str],
        state_count: int,
        initial: Iterable[int],
        accepting: Iterable[int],
        edges: Iterable[tuple[int, int, int]],
    ) -> "Nfa":
        """Build from sparse ``(state, symbol index, successor)`` triples."""
        rows: list[list[set[int]]] = [[set() for _ in alphabet] for _ in range(state_count)]
        for q, s, r in edges:
            rows[q][s].add(r)
        return cls(alphabet, rows, initial, accepting)


def _check_alphabet(names: tuple[str, ...]) -> None:
    if not names:
        raise ValueError("alphabet must not be empty")
    if len(set(names)) != len(names):
        raise ValueError("alphabet symbols must be distinct")
    for name in names:
        if not name or not name.isprintable() or any(c.isspace() for c in name):
            raise ValueError(f"bad alphabet symbol {name!r}")


def _coerce_word(alphabet: tuple[str, ...], w: str | Iterable[int]) -> Word:
    if isinstance(w, str):
        return parse_word(alphabet, w)
    word = tuple(w)
    k = len(alphabet)
    for s in word:
        if not 0 <= s < k:
            raise ValueError(f"symbol index {s} out of range for alphabet size {k}")
    return word


def accepts(d: Dfa, w: str | Iterable[int]) -> bool:
    """Decide whether the automaton accepts the word."""
    state = d.start
    for s in d.word(w):
        state = d.delta[state][s]
    return state in d.accepting


def nfa_accepts(n: Nfa, w: str | Iterable[int]) -> bool:
    """Decide membership by direct subset simulation."""
    current = n.initial
    for s in _coerce_word(n.alphabet, w):
        current = frozenset().union(*(n.delta[q][s] for q in current))
    return bool(current & n.accepting)


def _require_same_alphabet(a: Dfa, b: Dfa) -> None:
    if a.alphabet != b.alphabet:
        raise ValueError(f"alphabet mismatch: {list(a.alphabet)} vs {list(b.alphabet)}")


def _bfs_tree(d: Dfa, root: int) -> dict[int, tuple[int, int] | None]:
    """Breadth-first tree from ``root``: each reachable state maps to its
    ``(parent, symbol)`` tree edge (the root to None), keyed in discovery
    order with symbols tried in alphabet order, so every tree path is the
    shortest, then lexicographically least, word from the root."""
    tree: dict[int, tuple[int, int] | None] = {root: None}
    order = [root]
    for q in order:  # order grows while it is walked: the BFS queue
        for s, t in enumerate(d.delta[q]):
            if t not in tree:
                tree[t] = (q, s)
                order.append(t)
    return tree


def reachable_states(d: Dfa) -> frozenset[int]:
    """States reachable from the start state."""
    return frozenset(_bfs_tree(d, d.start))


def dead_states(d: Dfa) -> frozenset[int]:
    """Non-accepting states whose every transition is a self-loop.

    Equivalent to "only q is reachable from q": if anything else were
    reachable, some transition would have to leave q.
    """
    return frozenset(
        q
        for q in range(d.state_count)
        if q not in d.accepting and all(t == q for t in d.delta[q])
    )


# Around this many states the numpy refinement overtakes the dict loop;
# below it numpy's per-call overhead dominates. Tiny random inputs sit below
# the threshold and the witness catenation DFAs far above it.
_VECTOR_MIN_STATES = 64


def _moore_loop(d: Dfa) -> list[int]:
    """Moore refinement with dict-numbered signatures, over all states."""
    block = [1 if q in d.accepting else 0 for q in range(d.state_count)]
    n_blocks = len(set(block))
    while True:
        sigs: dict[tuple[int, ...], int] = {}
        new_block = [
            sigs.setdefault((block[q], *map(block.__getitem__, row)), len(sigs))
            for q, row in enumerate(d.delta)
        ]
        if len(sigs) == n_blocks:
            return new_block
        block = new_block
        n_blocks = len(sigs)


def _moore_vector(d: Dfa) -> np.ndarray:
    """Moore refinement in numpy, over all states.

    Each round ranks the signature (own block, block of each successor) one
    column at a time, so no row-wise sort of the whole signature matrix is
    needed; the ranks stay below the state count, so the products fit int64.
    """
    n, k = d.state_count, len(d.alphabet)
    delta = np.fromiter(chain.from_iterable(d.delta), dtype=np.int64, count=n * k)
    delta = delta.reshape(n, k)
    accepting = np.zeros(n, dtype=np.int64)
    accepting[np.fromiter(d.accepting, dtype=np.int64, count=len(d.accepting))] = 1
    # With return_inverse, np.unique skips a masked-array check whose first
    # use imports numpy.ma and adds ~1.6 MB to the process.
    ranks, block = np.unique(accepting, return_inverse=True)
    n_blocks = len(ranks)
    while True:
        cur = block
        for s in range(k):
            ranks, cur = np.unique(cur * n_blocks + block[delta[:, s]], return_inverse=True)
        if len(ranks) == n_blocks:
            return cur
        block = cur
        n_blocks = len(ranks)


def _partition_blocks(d: Dfa) -> list[int]:
    """Block id per state, equal iff no word distinguishes the two states.

    All states take part, reachable or not. Large automata are refined in
    numpy, small ones by the dict loop; both give the same partition.
    """
    if d.state_count < _VECTOR_MIN_STATES:
        return _moore_loop(d)
    return _moore_vector(d).tolist()


def state_equivalent(d: Dfa, q1: int, q2: int) -> bool:
    """True iff the two states accept exactly the same words."""
    for q in (q1, q2):
        if not 0 <= q < d.state_count:
            raise ValueError(f"state {q} out of range for {d.state_count} states")
    if q1 == q2:
        return True
    blocks = _partition_blocks(d)
    return blocks[q1] == blocks[q2]


def minimize(d: Dfa) -> Dfa:
    """Canonical minimal DFA for the same language.

    Equivalent states are merged by partition refinement, and the quotient
    is renumbered breadth-first from the start exploring symbols in alphabet
    order, which drops unreachable states; equal languages over equal
    alphabets always yield the bit-identical automaton. Any member can stand
    for its block, because equivalent states have equivalent successors.
    """
    blocks = _partition_blocks(d)
    rep = dict(zip(blocks, range(d.state_count)))
    order = [-1] * d.state_count  # block id -> new state number
    order[blocks[d.start]] = 0
    bfs = [blocks[d.start]]
    rows: list[tuple[int, ...]] = []
    for b in bfs:
        row = []
        for t in d.delta[rep[b]]:
            tb = blocks[t]
            if order[tb] < 0:
                order[tb] = len(bfs)
                bfs.append(tb)
            row.append(order[tb])
        rows.append(tuple(row))
    accepting = frozenset(i for i, b in enumerate(bfs) if rep[b] in d.accepting)
    return Dfa(alphabet=d.alphabet, delta=tuple(rows), start=0, accepting=accepting)


def language_equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Exact language equality, by product search for a distinguishing pair."""
    _require_same_alphabet(d1, d2)
    start = (d1.start, d2.start)
    seen = {start}
    order = [start]
    for p, q in order:  # order grows while it is walked: the BFS queue
        if (p in d1.accepting) != (q in d2.accepting):
            return False
        for pair in zip(d1.delta[p], d2.delta[q]):
            if pair not in seen:
                seen.add(pair)
                order.append(pair)
    return True


def determinize(n: Nfa) -> Dfa:
    """Subset construction over reachable subsets, numbered breadth-first.

    The empty subset shows up as an ordinary dead sink whenever some symbol
    has nowhere to go; a subset accepts iff it meets the NFA's accepting set.
    """
    k = len(n.alphabet)
    start = frozenset(n.initial)
    index: dict[frozenset[int], int] = {start: 0}
    subsets: list[frozenset[int]] = [start]
    rows: list[tuple[int, ...]] = []
    for subset in subsets:  # subsets grows while it is walked: the BFS queue
        row = []
        for s in range(k):
            target = frozenset().union(*(n.delta[q][s] for q in subset))
            if target not in index:
                index[target] = len(subsets)
                subsets.append(target)
            row.append(index[target])
        rows.append(tuple(row))
    accepting = frozenset(i for i, sub in enumerate(subsets) if sub & n.accepting)
    return Dfa(alphabet=n.alphabet, delta=tuple(rows), start=0, accepting=accepting)


def is_permutation_automaton(d: Dfa) -> bool:
    """True iff every symbol acts as a bijection on the state set."""
    n = d.state_count
    return all(
        len({d.delta[q][s] for q in range(n)}) == n for s in range(len(d.alphabet))
    )


def extend_alphabet(d: Dfa, alphabet: Sequence[str]) -> Dfa:
    """Re-express the automaton over a superset alphabet.

    Symbols are matched by name; genuinely new symbols all lead to a fresh
    non-accepting sink appended as the last state. Without new symbols no
    sink is added and the columns are merely reordered.
    """
    names = tuple(alphabet)
    _check_alphabet(names)
    dropped = [s for s in d.alphabet if s not in names]
    if dropped:
        raise ValueError(f"new alphabet drops symbols {dropped}")
    old_index = {name: i for i, name in enumerate(d.alphabet)}
    sink = d.state_count
    rows = [
        tuple(row[old_index[name]] if name in old_index else sink for name in names)
        for row in d.delta
    ]
    if len(names) > len(d.alphabet):  # nothing is dropped, so some symbol is new
        rows.append((sink,) * len(names))
    return Dfa(names, tuple(rows), d.start, d.accepting)
