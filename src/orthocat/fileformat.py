"""Line-based text format for complete DFAs.

::

    alphabet a b c d
    states 4
    start 0
    accepting 2
    0 a 0
    0 b 1
    ...

Tokens are whitespace-separated, ``#`` starts a comment, blank lines are
ignored. The four header lines come first in this exact order, followed by
exactly ``states × |alphabet|`` transition lines; duplicates and missing
pairs are rejected. Serialization is canonical (transitions sorted by state
then symbol index), so equal automata produce byte-identical text. Symbol
names contain neither whitespace nor ``#``.
"""

from __future__ import annotations

from decimal import Decimal
from itertools import chain, islice
from typing import NoReturn

import numpy as np

from .core import _QUOTED_CHARS, Dfa, _check_alphabet, _clip

# How many missing (state, symbol) pairs an error names; it gives the count
# of the rest, so a huge declared state count cannot produce a huge message.
_MISSING_SHOWN = 5


class FormatError(ValueError):
    """Automaton file rejected; carries the offending line number if any."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def parse_automaton(text: str) -> Dfa:
    """Parse the text format above into a validated complete DFA.

    The transition lines are read in bulk: each is split once, the tokens
    are sliced into state, symbol and target columns, each column is checked
    as a whole, and the targets fill one ``states × |alphabet|`` table that
    the automaton keeps as its read-only table. When a bulk check fails, a
    line-by-line scan only locates the first bad line, or else the missing
    pairs, and raises; so every error is the one a line-wise parse meets
    first. The table is allocated only once the line count equals
    ``states × |alphabet|``, so a huge declared state count allocates
    nothing.
    """
    rows = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    lines = list(islice(((n, tokens) for n, tokens in enumerate(rows, start=1) if tokens), 4))
    if len(lines) < 4:
        raise FormatError("expected alphabet/states/start/accepting header lines")

    (ln_alpha, alpha), (ln_states, states_l), (ln_start, start_l), (ln_acc, acc_l) = lines
    if alpha[0] != "alphabet" or len(alpha) < 2:
        raise FormatError("expected 'alphabet <symbol>...'", ln_alpha)
    alphabet = tuple(alpha[1:])
    try:
        _check_alphabet(alphabet)
    except ValueError as exc:
        raise FormatError(str(exc), ln_alpha) from None
    if states_l[0] != "states" or len(states_l) != 2:
        raise FormatError("expected 'states <count>'", ln_states)
    state_count = _int(states_l[1], ln_states)
    if state_count < 1:
        raise FormatError("state count must be positive", ln_states)
    if start_l[0] != "start" or len(start_l) != 2:
        raise FormatError("expected 'start <state>'", ln_start)
    start = _int(start_l[1], ln_start)
    if not 0 <= start < state_count:
        raise FormatError(
            f"start {_num(start)} out of range (states {_num(state_count)})", ln_start
        )
    if acc_l[0] != "accepting":
        raise FormatError("expected 'accepting <state>...'", ln_acc)
    accepting = set()
    for token in acc_l[1:]:
        q = _int(token, ln_acc)
        if not 0 <= q < state_count:
            raise FormatError(
                f"accepting state {_num(q)} out of range (states {_num(state_count)})", ln_acc
            )
        accepting.add(q)

    table = _bulk_table([tokens for tokens in rows[ln_acc:] if tokens], alphabet, state_count)
    if table is None:
        _raise_first_error(rows, ln_acc, alphabet, state_count)
    return Dfa(alphabet=alphabet, delta=table, start=start, accepting=frozenset(accepting))


def _bulk_table(
    body: list[list[str]], alphabet: tuple[str, ...], state_count: int
) -> np.ndarray | None:
    """The read-only transition table of the transition lines' tokens, or
    None when a line is malformed, a (state, symbol) pair repeats or one is
    missing."""
    k = len(alphabet)
    if len(body) != state_count * k or set(map(len, body)) != {3}:
        return None
    tokens = list(chain.from_iterable(body))
    states, symbols, targets = tokens[0::3], tokens[1::3], tokens[2::3]
    for column in (states, targets):
        joined = "".join(column)
        if not (joined.isascii() and joined.isdigit()):  # as in _int
            return None
    try:
        qs, ts = list(map(int, states)), list(map(int, targets))
    except ValueError:  # more digits than int() converts
        return None
    ss = list(map({name: i for i, name in enumerate(alphabet)}.get, symbols))
    if None in ss or max(qs) >= state_count or max(ts) >= state_count:
        return None
    cells = np.array(qs, dtype=np.int64) * k + np.array(ss, dtype=np.int64)
    if np.bincount(cells, minlength=state_count * k).max() > 1:
        return None
    table = np.empty(state_count * k, dtype=np.int64)
    table[cells] = ts
    table.flags.writeable = False
    return table.reshape(state_count, k)


def _raise_first_error(
    rows: list[list[str]], first: int, alphabet: tuple[str, ...], state_count: int
) -> NoReturn:
    """Scan the transition lines ``rows[first:]`` one by one and raise for
    the first malformed line or repeated pair, or else for the missing
    pairs. Called only when the bulk parse failed, so one of them exists."""
    symbol_index = {name: i for i, name in enumerate(alphabet)}
    seen: set[tuple[int, int]] = set()
    for number, tokens in enumerate(rows[first:], start=first + 1):
        if not tokens:
            continue
        if len(tokens) != 3:
            raise FormatError("expected '<state> <symbol> <state>'", number)
        q = _int(tokens[0], number)
        if tokens[1] not in symbol_index:
            raise FormatError(f"unknown symbol {_clip(repr(tokens[1]))}", number)
        s = symbol_index[tokens[1]]
        target = _int(tokens[2], number)
        for state in (q, target):
            if not 0 <= state < state_count:
                raise FormatError(
                    f"state {_num(state)} out of range (states {_num(state_count)})", number
                )
        if (q, s) in seen:
            raise FormatError(f"duplicate transition for ({_num(q)}, {_clip(tokens[1])})", number)
        seen.add((q, s))

    missing = state_count * len(alphabet) - len(seen)
    gaps = (
        f"({q}, {_clip(name)})"
        for q in range(state_count)
        for s, name in enumerate(alphabet)
        if (q, s) not in seen
    )
    shown = ", ".join(islice(gaps, _MISSING_SHOWN))
    more = ", ..." if missing > _MISSING_SHOWN else ""
    raise FormatError(f"incomplete transition table; {_num(missing)} missing: {shown}{more}")


def serialize_automaton(d: Dfa) -> str:
    """Canonical text for a DFA; ``parse_automaton`` round-trips it exactly.

    Raises ``ValueError`` for a symbol name containing ``#``, which the
    format would read as the start of a comment.
    """
    for name in d.alphabet:
        if "#" in name:
            raise ValueError(f"symbol {_clip(repr(name))} contains '#', which starts a comment")
    lines = [
        "alphabet " + " ".join(d.alphabet),
        f"states {d.state_count}",
        f"start {d.start}",
        ("accepting " + " ".join(str(q) for q in sorted(d.accepting))).rstrip(),
    ]
    for q in range(d.state_count):
        for s, name in enumerate(d.alphabet):
            lines.append(f"{q} {name} {d.delta[q][s]}")
    return "\n".join(lines) + "\n"


def _num(value: int) -> str:
    """A non-negative integer for an error message, cut like quoted input.
    It is cut before it is converted, so it may have more digits than
    ``str`` converts (a count of missing pairs can)."""
    cut = Decimal(value).adjusted() + 1 - _QUOTED_CHARS
    return str(value) if cut <= 0 else f"{value // 10**cut}... ({cut} more characters)"


def _int(token: str, line: int) -> int:
    try:
        if token.isascii() and token.isdigit():  # no sign, "_" or non-ASCII digit
            return int(token)
    except ValueError:  # more digits than int() converts
        pass
    raise FormatError(f"expected an integer, got {_clip(repr(token))}", line)
