"""Finite-automata core: complete DFAs, NFAs, and the standard algorithms.

States are integers ``0..state_count-1`` and symbols are indices into an
ordered alphabet of printable names. A word is a tuple of symbol indices;
wherever every symbol name is a single character, a plain string works too.
All types are immutable values and every operation is a pure function.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, partial
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

Word = tuple[int, ...]

# How many characters of an input an error message quotes; an oversized
# symbol or alphabet must not make a huge message.
_QUOTED_CHARS = 100


def _clip(text: str) -> str:
    """``text`` for an error message: at most ``_QUOTED_CHARS`` characters,
    then how many were cut."""
    cut = len(text) - _QUOTED_CHARS
    return text if cut <= 0 else f"{text[:_QUOTED_CHARS]}... ({cut} more characters)"


def parse_word(alphabet: Sequence[str], text: str) -> Word:
    """Turn a string into a word, one character per symbol name.

    Only usable when every alphabet name is a single character; automata
    with longer names must pass explicit index tuples instead.
    """
    index = {name: i for i, name in enumerate(alphabet)}
    word = []
    for ch in text:
        if ch not in index:
            raise ValueError(f"symbol {ch!r} not in alphabet {_clip(str(list(alphabet)))}")
        word.append(index[ch])
    return tuple(word)


def format_word(alphabet: Sequence[str], word: Iterable[int]) -> str:
    """Render a word with the alphabet's symbol names; the empty word is shown as ε."""
    names = [alphabet[s] for s in _coerce_word(alphabet, word)]
    if not names:
        return "ε"
    if all(len(n) == 1 for n in names):
        return "".join(names)
    return " ".join(names)


class _Frozen:
    """Immutable instances: ``__init__`` sets the attributes with
    ``object.__setattr__``, and derived forms are added on first use. Two
    threads may both compute a derived form; it is a pure value, so they
    agree."""

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Dfa(_Frozen):
    """A complete deterministic finite automaton.

    ``delta[q][s]`` is the successor of state ``q`` on the ``s``-th alphabet
    symbol and must be present for every pair; incomplete tables are
    rejected at construction time rather than silently patched.

    ``delta`` may also be given as a 2-D integer numpy table. The automaton
    keeps a read-only C-ordered int64 copy, which nothing else can write,
    and makes the rows on first use of ``delta``; so the numpy routes, among
    them ``minimize`` and the Moore refinement that both equivalence tests
    share with it, can make and read a large automaton without ever building
    its rows in Python. States
    must be integers: Python's, numpy's or any other type with
    ``__index__``; the automaton keeps every state as a Python int, and
    ``accepting``, a frozenset, or ``_flags``, one bool per state, as its
    maker made it (an integer numpy array of accepting states becomes
    flags); the other is made on first use. == and hash go by content.
    """

    alphabet: tuple[str, ...]
    start: int
    state_count: int
    _stored_table: np.ndarray | None = None

    # ``(codes, keep)``: states whose ``codes`` agree on the bits of ``keep``
    # are equivalent, a congruence given by the catenation build; ``minimize``
    # refines its quotient, and ==, hash, repr and serialization ignore it.
    _congruence: tuple[np.ndarray, int] | None = None

    def __init__(
        self,
        alphabet: Sequence[str],
        delta: Sequence[Sequence[int]] | np.ndarray,
        start: int,
        accepting: Iterable[int],
    ) -> None:
        alphabet = tuple(alphabet)
        _check_alphabet(alphabet)
        if isinstance(delta, np.ndarray) and delta.ndim == 2:
            # C order: a row gather, ``take(ids, 0)``, copies any other layout whole
            delta = delta.astype(np.int64, order="C", casting="safe")
            n, width = delta.shape
        else:
            delta = tuple(tuple(row) for row in delta)
            n = len(delta)
        if n == 0:
            raise ValueError("an automaton needs at least one state")
        if isinstance(delta, tuple):
            if _check_rows(alphabet, n, enumerate(delta)):
                delta = tuple(tuple(map(operator.index, row)) for row in delta)
        elif width != len(alphabet) or delta.min() < 0 or delta.max() >= n:
            # the first offending row in row-major order gets the rows' message
            q = int(np.argwhere((delta < 0) | (delta >= n))[0, 0]) if width == len(alphabet) else 0
            _check_rows(alphabet, n, [(q, delta[q].tolist())])
        start = _state(start, n, "start state")
        if (
            isinstance(accepting, np.ndarray)
            and accepting.ndim == 1
            and accepting.dtype.kind in "iu"
            and accepting.min(initial=0) >= 0
            and accepting.max(initial=0) < n
        ):  # one range check for an integer array, and it becomes flags
            accepting = _flags_of(n, accepting)
        else:  # name the first bad state in the set's order
            accepting = frozenset([_state(q, n, "accepting state") for q in frozenset(accepting)])
        self._fill(alphabet, delta, start, accepting)

    @classmethod
    def _make(cls, alphabet, delta, start, accepting, congruence=None) -> Dfa:
        """The automaton of parts the library has just made, checked and let
        go: ``delta`` rows of ints or an int64 table, ``accepting`` a frozenset
        or one bool per state. Nothing is checked or copied."""
        return cls.__new__(cls)._fill(alphabet, delta, start, accepting, congruence)

    def _fill(self, alphabet, delta, start, accepting, congruence=None) -> Dfa:
        """Keep the parts as ``_make`` takes them, arrays made read-only; return self."""
        set_ = object.__setattr__  # one call a field, no instance dict: construction is hot
        set_(self, "alphabet", alphabet)
        set_(self, "start", start)
        set_(self, "state_count", len(delta))
        if isinstance(delta, tuple):
            set_(self, "delta", delta)
        else:
            delta.flags.writeable = False
            set_(self, "_stored_table", delta)
        if isinstance(accepting, frozenset):
            set_(self, "accepting", accepting)
        else:
            accepting.flags.writeable = False
            set_(self, "_flags", accepting)
        if congruence is not None:
            set_(self, "_congruence", congruence)
        return self

    @cached_property
    def delta(self) -> tuple[tuple[int, ...], ...]:
        """The transitions as rows of ints; made from the table on first use
        and kept, because Python code reads them one cell at a time."""
        return tuple(map(tuple, self._stored_table.tolist()))

    @cached_property
    def accepting(self) -> frozenset[int]:
        """The accepting states; made from the flags on first use and kept."""
        return frozenset(np.flatnonzero(self._flags).tolist())

    @cached_property
    def _flags(self) -> np.ndarray:
        """One read-only bool per state; made from ``accepting`` on first use."""
        return _flags_of(self.state_count, list(self.accepting))

    @property
    def _table(self) -> np.ndarray:
        """The transitions as a read-only int64 table: the one given, or one
        made from the rows on each use and not kept."""
        table = self._stored_table
        if table is None:
            n, k = self.state_count, len(self.alphabet)
            table = np.fromiter(chain.from_iterable(self.delta), np.int64, n * k).reshape(n, k)
            table.flags.writeable = False
        return table

    def _key(self) -> tuple:  # what == and hash compare, whatever the forms
        return (self.alphabet, self.start, self._flags.tobytes(), self._table.tobytes())

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, Dfa) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Dfa(alphabet={self.alphabet!r}, delta={self.delta!r}, "
            f"start={self.start!r}, accepting={self.accepting!r})"
        )

    def word(self, w: str | Iterable[int]) -> Word:
        """Coerce a string or symbol-index iterable into a validated word."""
        return _coerce_word(self.alphabet, w)


def _check_rows(
    alphabet: tuple[str, ...], n: int, rows: Iterable[tuple[int, Sequence[int]]]
) -> bool:
    """Raise for the first numbered row of the wrong width, or the first
    transition that is not an integer or lies outside ``0..n-1``, in
    row-major order; else return whether some transition is not an ``int``."""
    not_int = False
    for q, row in rows:
        if len(row) != len(alphabet):
            raise ValueError(f"state {q}: expected {len(alphabet)} transitions, got {len(row)}")
        for s, target in enumerate(row):
            if target.__class__ is not int:
                operator.index(target)  # TypeError unless an integer, such as numpy's
                not_int = True
            if not 0 <= target < n:
                raise ValueError(
                    f"transition ({q}, {_clip(alphabet[s])}) targets invalid state {target}"
                )
    return not_int


def _flags_of(n: int, states: Sequence[int] | np.ndarray) -> np.ndarray:
    """Read-only flags, one bool per state of ``n``, true at ``states`` (ints
    or an integer array), which must already lie in ``0..n-1``: none is checked."""
    flags = np.zeros(n, dtype=bool)
    flags[states] = True
    flags.flags.writeable = False
    return flags


def _state(q: int, n: int, what: str) -> int:
    """``q`` as an ``int``; raise ``TypeError`` unless it is an integer
    (numpy's and bools are), ``ValueError`` unless it lies in ``0..n-1``."""
    if q.__class__ is not int:
        q = operator.index(q)
    if not 0 <= q < n:
        raise ValueError(f"{what} {q} out of range for {n} states")
    return q


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic finite automaton with a set of initial states.

    ``delta[q][s]`` is the (possibly empty) successor set; a missing
    transition is just an empty set. States must be integers, as in
    ``Dfa``; the automaton keeps its initial and accepting states as Python
    ints, and successors as given.
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
        _check_alphabet(self.alphabet)
        n = len(self.delta)
        if n == 0:
            raise ValueError("an automaton needs at least one state")
        for q, row in enumerate(self.delta):
            if len(row) != len(self.alphabet):
                raise ValueError(f"state {q}: expected {len(self.alphabet)} successor sets")
            for cell in row:
                for target in cell:
                    if target.__class__ is not int:
                        operator.index(target)  # TypeError unless an integer, such as numpy's
                    if not 0 <= target < n:
                        raise ValueError(f"state {q}: successor {target} out of range")
        for name in ("initial", "accepting"):
            # one set after the other, each in its own order: a union would
            # drop 0.0 beside 0
            states = [_state(q, n, "state") for q in frozenset(getattr(self, name))]
            object.__setattr__(self, name, frozenset(states))

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
            raise ValueError(f"bad alphabet symbol {_clip(repr(name))}")


def _coerce_word(alphabet: tuple[str, ...], w: str | Iterable[int]) -> Word:
    if isinstance(w, str):
        return parse_word(alphabet, w)
    word = tuple(w)
    k = len(alphabet)
    not_int = False
    for s in word:
        if s.__class__ is not int:
            operator.index(s)  # TypeError unless an integer, such as numpy's
            not_int = True
        if not 0 <= s < k:
            raise ValueError(f"symbol index {s} out of range for alphabet size {k}")
    return tuple(map(operator.index, word)) if not_int else word


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
        shown_a, shown_b = (_clip(str(list(d.alphabet))) for d in (a, b))
        raise ValueError(f"alphabet mismatch: {shown_a} vs {shown_b}")


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


# A numpy step costs tens of microseconds however few ids it takes, so it
# only pays on wide inputs. The catenation build hands its Python walk over
# to a numpy search by BFS levels once more than this many found ids wait in
# its queue; the orthogonality search continues from the loop's frontier in
# numpy, one step per BFS level, once a level holds more than this many
# nodes; and ``minimize`` runs on numpy tables from this many states up. Of
# 33,048 random pairs of up to six states and three letters, none reached
# the build's numpy search; the widest orthogonality level over the 16,524
# pairs of the random-pipeline benchmark is 24 nodes; and tiny random inputs
# stay on minimize's dict loops.
_DENSE_MIN_QUEUE = 64

# The size budget of every stage, in cells: 128 MB of int64s. Stages read it
# here when called. The dense catenation build counts its key index and step
# table, (m + k) << n cells for an (m, n) pair over k letters; the numpy
# orthogonality search its arrays over every key; ``verify``'s brute-force
# oracle its count tables, (m + n) * k**8. The build's dict loop counts its
# found keys plus k cells a row against ``_MAX_CELLS >> 4``: its cells are
# Python objects in lists, tuples and dicts, 13-58 bytes each (tracemalloc's
# peak on refused builds over 256 down to 4 letters), so 2**20 stay under 60 MB.
_MAX_CELLS = 1 << 24


def _over_budget(what: str) -> ValueError:
    """The error that refuses ``what``, a stage past the size budget."""
    return ValueError(f"{what} would pass the limit of {_MAX_CELLS} cells")


def _count_rank(values: np.ndarray, span: int) -> int:
    """Replace each of ``values`` (int64, in ``0..span-1``) in place by its rank
    among the distinct values, counting which occur; return how many occur."""
    seen = np.zeros(span, dtype=bool)
    seen[values] = True
    present = seen.nonzero()[0]
    ids = np.empty(span, dtype=np.int64)  # read only where a value occurs
    ids[present] = np.arange(len(present))
    ids.take(values, out=values, mode="clip")  # reads each index before writing its place
    return len(present)


def _sort_rank(values: np.ndarray) -> int:
    """``_count_rank`` by an argsort, whatever the range."""
    order = values.argsort()
    ordered = values.take(order)
    new = np.empty(len(values), dtype=bool)
    new[0] = False
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    ids = np.cumsum(new)
    values[order] = ids
    return int(ids[-1]) + 1


def _moore_loop(rows: Sequence[Sequence[int]], flags: Iterable[bool]) -> list[int]:
    """Moore refinement with dict-numbered signatures, over all states of
    the automaton with transition ``rows`` and accepting ``flags``."""
    block = list(map(int, flags))
    n_blocks = len(set(block))
    while True:
        sigs: dict[tuple[int, ...], int] = {}
        new_block = [
            sigs.setdefault((block[q], *map(block.__getitem__, row)), len(sigs))
            for q, row in enumerate(rows)
        ]
        if len(sigs) == n_blocks:
            return new_block
        block = new_block
        n_blocks = len(sigs)


def _moore_vector(table: np.ndarray, flags: np.ndarray) -> tuple[np.ndarray, int]:
    """Moore refinement in numpy, over all states of the automaton with
    transition table ``table`` and accepting flags ``flags``. Returns one
    block id per state, the ids ``0..count-1`` all used, and the number of
    rounds taken.

    The rounds run in two phases, and one check ends them:

    - Exact while counting is cheap, that is while ``n_blocks ** k <= n``
      (k letters, n states): a round packs (accepting bit, block of each
      successor) into one int64 below ``2 * n`` and ranks it by counting.
      Over the blocks of the previous Moore level this splits the states
      as (own block, block of each successor) would.
    - Hashed: a round gives each state ``_signature_hash`` of its own value
      and its successors' values, and counts the distinct values with one
      sort. Equivalent states always hash alike, so a hashed partition is
      never finer than the minimal one; one of single states is therefore
      exact, and final.
    - When the hashed count stops growing short of n, the hashes are ranked
      once and checked to be a right congruence: on each letter, each
      state's successor block is that of one member of its block. A
      congruence whose blocks keep acceptance apart (the hash's low bit) is
      no coarser than the minimal partition (Myhill-Nerode), so it is the
      minimal partition. Only a hash collision, even a crafted one, fails
      the check; ``_moore_loop`` then refines the table instead, which
      costs time but never the answer, and its rounds are not counted.
    """
    columns = np.ascontiguousarray(table.T)
    n = len(flags)
    cur = flags.astype(np.int64)
    n_blocks = _count_rank(cur, 2)
    # block ids are below n: a narrow copy halves the memory each gather reads
    block = np.empty(n, dtype=np.int32 if n <= 1 << 31 else np.int64)
    successor = np.empty_like(block)
    rounds = 0
    while n_blocks < n and n_blocks ** len(columns) <= n:
        rounds += 1
        block[:] = cur
        cur[:] = flags
        for column in columns:
            cur *= n_blocks
            # ids are in range: "clip" skips the copy the default mode makes for out=
            cur += block.take(column, out=successor, mode="clip")
        count = _count_rank(cur, 2 * n_blocks ** len(columns))
        if count == n_blocks:
            return cur, rounds
        n_blocks = count
    while n_blocks < n:
        rounds += 1
        # below 2**63, so int64 keeps the hashes and their order
        cur = _signature_hash(cur.view(np.uint64), columns, flags).view(np.int64)
        ordered = np.sort(cur)
        count = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
        del ordered  # before the next round's sort
        if count == n:
            return np.arange(n), rounds
        if count <= n_blocks:  # stable, or a collision: check the congruence
            member = np.empty(_sort_rank(cur), dtype=np.int64)
            member[cur] = np.arange(n)  # any member will do
            rep = member.take(cur)
            block[:] = cur
            for column in columns:
                block.take(column, out=successor, mode="clip")
                if not np.array_equal(successor, successor.take(rep)):
                    loop = _moore_loop(table.tolist(), flags.tolist())
                    return np.array(loop, dtype=np.int64), rounds
            break
        n_blocks = count
    return cur, rounds


# splitmix64's constants (see ``randgen``): the odd step multiplier folds in
# one value a multiplication, and the (shift, odd multiplier) pairs finish
# each hash. numpy scalars, not Python ints, so that no numpy version casts
# the arrays to float or object; uint64 array arithmetic wraps without a warning.
_HASH_STEP = np.uint64(0x9E3779B97F4A7C15)
_HASH_MIX = (
    (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
    (np.uint64(27), np.uint64(0x94D049BB133111EB)),
)


def _signature_hash(values: np.ndarray, columns: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """A uint64 hash of each state's signature: its own entry of ``values``
    (uint64), then its successors' entries along ``columns`` in order. Each
    hash is below 2**63, and its low bit is the state's accepting flag, so
    no two states with different flags ever hash alike."""
    out = values * _HASH_STEP
    step = np.empty_like(values)
    for column in columns:
        out ^= values.take(column, out=step, mode="clip")
        out *= _HASH_STEP
    # splitmix64's finalizer, which spreads every bit over the high ones
    for shift, mix in _HASH_MIX:
        np.right_shift(out, shift, out=step)
        out ^= step
        out *= mix
    out >>= np.uint64(2)
    out <<= np.uint64(1)
    out |= flags
    return out


# Gathers on the numpy routes use ``take``, and row gathers ``take(ids, 0)``:
# with numpy 2.4 on an x86-64 Xeon, fancy indexing ``t[ids]`` returns the
# same rows 4-9 times slower (33.2 against 3.8 us for 3,000 rows of a
# (16384, 4) int64 table), and a large 1-D gather about 20% slower.
def _bfs_levels(
    start: int, size: int, successors: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first numbering over ids ``0..size-1``, one level at a time.

    ``successors(ids)`` gives the successor ids of each id in ``ids``, one
    row per id with symbols in alphabet order. Each level's new ids are
    numbered in order of first occurrence along the level's rows, which is
    the order a queue-driven BFS meets them in. Returns the reached ids in
    BFS order and their successor rows renumbered, as a table.
    """
    # 1 + BFS number once reached, 0 before; np.zeros leaves the untouched
    # pages of a large, sparsely reached range unallocated
    number = np.zeros(size, dtype=np.int64)
    number[start] = 1
    count = 1
    frontier = np.array([start], dtype=np.int64)
    levels, rows = [], []
    while frontier.size:
        levels.append(frontier)
        rows.append(successors(frontier))
        fresh = rows[-1].ravel()
        fresh = fresh[number.take(fresh) == 0]
        # mark each new id with the (negative) place of its first occurrence
        place = np.arange(-fresh.size, 0)
        np.minimum.at(number, fresh, place)
        frontier = fresh[number.take(fresh) == place]
        number[frontier] = np.arange(count + 1, count + 1 + frontier.size)
        count += frontier.size
    flat = np.concatenate(rows)
    rows.clear()  # one n x k table alive, renumbered in place
    number.take(flat, out=flat, mode="clip")
    flat -= 1
    return np.concatenate(levels), flat


def state_equivalent(d: Dfa, q1: int, q2: int) -> bool:
    """True iff the two states accept exactly the same words: iff Moore
    refinement (``_moore_vector``) puts them in one block."""
    q1, q2 = _state(q1, d.state_count, "state"), _state(q2, d.state_count, "state")
    blocks, _ = _moore_vector(d._table, d._flags)
    return bool(blocks[q1] == blocks[q2])


def minimize(d: Dfa) -> Dfa:
    """Canonical minimal DFA for the same language.

    Equivalent states are merged by partition refinement, and the quotient
    is renumbered breadth-first from the start exploring symbols in alphabet
    order, which drops unreachable states; equal languages over equal
    alphabets always yield the bit-identical automaton. Any member can stand
    for its block, because equivalent states have equivalent successors.
    From ``_DENSE_MIN_QUEUE`` states up this runs on numpy tables and keeps
    a table and flags, below it on dict loops and keeps rows and a set;
    both give the same automaton. The table route refines by exact rounds,
    then hashed rounds, and checks once that a hashed partition short of
    single states is a congruence, which makes it minimal by Myhill-Nerode
    (see ``_moore_vector``); with no two states merged, the table is its
    own quotient. A catenation DFA that carries a congruence (the classes
    of states that differ only in useless second-automaton states) is first
    replaced by its quotient by it on the table route.
    """
    if d.state_count >= _DENSE_MIN_QUEUE:
        return _minimize_table(d)
    return _minimize_loop(d)


def _minimize_loop(d: Dfa) -> Dfa:
    """``minimize`` by the dict loops: Moore refinement, then a queue-driven
    BFS over the quotient."""
    flags = [q in d.accepting for q in range(d.state_count)]
    blocks = _moore_loop(d.delta, flags)
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
    accepting = frozenset(i for i, b in enumerate(bfs) if flags[rep[b]])
    return Dfa._make(d.alphabet, tuple(rows), 0, accepting)


def _minimize_table(d: Dfa) -> Dfa:
    """``minimize`` in numpy: Moore refinement, then the quotient by its
    blocks, renumbered by ``_bfs_levels`` unless it is breadth-first already.

    An automaton with a congruence (see ``Dfa``) is first replaced by its
    quotient by it, which has fewer states. A class holds only equivalent
    states, so Moore on the quotient finds the same blocks of states, and
    the renumbered result is the same.
    """
    table, flags, start = d._table, d._flags, d.start
    if d._congruence is not None:
        codes, keep = d._congruence
        table, flags, start = _quotient(table, flags, start, codes & keep)
    blocks, _ = _moore_vector(table, flags)
    if blocks.max() + 1 < len(blocks):  # else its quotient is the table itself
        table, flags, start = _quotient(table, flags, start, blocks)
    if not _is_breadth_first(table, start):
        bfs, table = _bfs_levels(start, len(table), partial(table.take, axis=0))
        flags = flags.take(bfs)
    return Dfa._make(d.alphabet, table, 0, flags)


def _quotient(
    table: np.ndarray, flags: np.ndarray, start: int, classes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """The table, accepting flags and start of the automaton whose states
    are the ``classes`` of a congruence that respects acceptance, given as
    one int64 id per state, ids in ``0..max`` with gaps allowed. ``classes``
    is renumbered in place by first members, in state order, and each first
    member stands for its class; a class's shortest-lex access word is the
    least of its members', so the quotient of a breadth-first automaton is
    breadth-first."""
    first = np.full(int(classes.max()) + 1, len(classes), dtype=np.int64)
    np.minimum.at(first, classes, np.arange(len(classes)))
    first.sort()
    ids = np.empty_like(first)  # read only where a class occurs
    first = first[: np.searchsorted(first, len(classes))]  # unused ids sort last
    ids[classes.take(first)] = np.arange(len(first))
    ids.take(classes, out=classes, mode="clip")  # reads each index before writing its place
    del ids  # sized by the largest id: not held through the gathers below
    rows = table.take(first, 0)
    classes.take(rows, out=rows, mode="clip")
    return rows, flags.take(first), int(classes[start])


def _is_breadth_first(table: np.ndarray, start: int) -> bool:
    """Whether ``_bfs_levels`` from ``start`` keeps every state and its
    number: the start is 0 and, along the rows in order, each new state is
    one above the highest before it and first occurs in a row before its own."""
    top = np.maximum.accumulate(table.ravel())
    row_tops = top[table.shape[1] - 1 :: table.shape[1]][:-1]
    if not (start == 0 and top[0] <= 1 and (row_tops > np.arange(len(row_tops))).all()):
        return False
    # top never falls, so it rises by at most 1 a step iff its rise is its
    # number of steps that rise: one bool a cell, not a second int64 table
    return bool(np.count_nonzero(top[1:] != top[:-1]) == top[-1] - top[0])


def language_equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Exact language equality: the two canonical minimal DFAs are equal,
    since ``minimize`` gives the same automaton for equal languages over
    equal alphabets. ``ValueError`` when the alphabets differ."""
    _require_same_alphabet(d1, d2)
    return minimize(d1) == minimize(d2)


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
    return Dfa._make(n.alphabet, tuple(rows), 0, accepting)


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
        raise ValueError(f"new alphabet drops symbols {_clip(str(dropped))}")
    old_index = {name: i for i, name in enumerate(d.alphabet)}
    sink = d.state_count
    rows = [
        tuple(row[old_index[name]] if name in old_index else sink for name in names)
        for row in d.delta
    ]
    if len(names) > len(d.alphabet):  # nothing is dropped, so some symbol is new
        rows.append((sink,) * len(names))
    return Dfa._make(names, tuple(rows), d.start, d.accepting)
