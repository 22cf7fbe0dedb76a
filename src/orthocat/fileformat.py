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

import re
from decimal import Decimal
from itertools import chain, islice
from typing import NoReturn

import numpy as np

from .core import _QUOTED_CHARS, Dfa, _check_alphabet, _clip, _flags_of

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

    Every text is read the same way. Non-ASCII line breaks become
    ``"\\x0c"``, other non-ASCII whitespace a space, and comments are cut,
    so every line keeps the number ``str.splitlines`` gives it. After the
    four header lines, numpy passes over the UTF-8 bytes of the rest check
    that every line holds three tokens or none, read the state and target
    columns as integers and match the symbol column against the names, for
    any alphabet; no token becomes a string. The targets fill one
    ``states × |alphabet|`` table that the automaton keeps as its read-only
    table. Only when a check fails (a malformed line, an unknown symbol, a
    state out of range, a repeated or missing pair) are the transition lines
    scanned one by one, to name the first bad one. The table is allocated
    only once the token count is ``3 × states × |alphabet|``, so a huge
    declared state count allocates nothing.
    """
    lines, body = _split_header(_normalised(text))
    alphabet, state_count, start, accepting = _header(lines)
    table = _body_table(body, alphabet, state_count)
    if table is None:
        _raise_first_error(body, lines[3][0], alphabet, state_count)
    return Dfa._make(alphabet, table, start, _flags_of(state_count, accepting))


# ``str.splitlines`` ends a line at each of these ASCII breaks ("\r\n" is
# one break) and at "\x85\u2028\u2029"; ``str.split`` splits at all of them,
# at " \t\x1f" and at the other non-ASCII whitespace.
_BREAKS = "\n\r\x0b\x0c\x1c-\x1e"
_LINE_BREAK = re.compile(rf"\r\n|[{_BREAKS}]")
_COMMENT = re.compile(rf"#[^{_BREAKS}\x85\u2028\u2029]*")
_WIDE_BREAK = re.compile("[\x85\u2028\u2029]")
_WIDE_SPACE = re.compile(r"[^\S\x00-\x7f\x85\u2028\u2029]")
_WHITESPACE = np.zeros(256, dtype=np.uint8)  # 1 a space, 2 a line break, by byte
_WHITESPACE[list(b" \t\x1f")] = 1
_WHITESPACE[list(b"\n\r\x0b\x0c\x1c\x1d\x1e")] = 2


def _normalised(text: str) -> str:
    """The text with its comments cut and its whitespace ASCII: a non-ASCII
    line break becomes "\\x0c" (not "\\n": "\\r\\x85" is two breaks, "\\r\\n"
    one), any other non-ASCII whitespace a space. No line break moves.
    Comments go first, so non-ASCII text inside them costs no more passes."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    if not text.isascii():
        text = _WIDE_SPACE.sub(" ", _WIDE_BREAK.sub("\x0c", text))
    return text


def _split_header(text: str) -> tuple[list[tuple[int, list[str]]], str]:
    """The first four non-blank lines as (line number, tokens), and the text
    after them; raise when the text ends before a fourth one."""
    lines, pos, end = [], 0, len(text)
    # the end of the text ends the last line (a "|\\Z" in the pattern would
    # make its search try every position instead of scanning for a break)
    spans = chain(map(re.Match.span, _LINE_BREAK.finditer(text)), [(end, end)])
    for number, (stop, after) in enumerate(spans, start=1):
        tokens = text[pos:stop].split()
        pos = after
        if tokens:
            lines.append((number, tokens))
            if len(lines) == 4:
                return lines, text[pos:]
    raise FormatError("expected alphabet/states/start/accepting header lines")


def _header(lines: list[tuple[int, list[str]]]) -> tuple[tuple[str, ...], int, int, list[int]]:
    """Alphabet, state count, start and accepting states of the four header
    lines, each given as (line number, tokens); raise for the first bad one."""
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
    start = _state(start_l[1], ln_start, state_count, "start")
    if acc_l[0] != "accepting":
        raise FormatError("expected 'accepting <state>...'", ln_acc)
    accepting = _ints(acc_l[1:])
    if accepting is None or max(accepting, default=0) >= state_count:
        accepting = [_state(t, ln_acc, state_count, "accepting state") for t in acc_l[1:]]
    return alphabet, state_count, start, accepting


def _body_table(body: str, alphabet: tuple[str, ...], state_count: int) -> np.ndarray | None:
    """The transition table of the text after the header, or None when a
    line holds other than three tokens or none, or a column check fails."""
    # whitespace is ASCII; every other character, a lone surrogate too, encodes past 127
    data = np.frombuffer(body.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    kind = _WHITESPACE.take(data)
    space, line_break = kind != 0, kind == 2
    first = ~space  # the first byte of each token
    first[1:] &= space[:-1]
    last = ~space  # the last byte of each token
    last[:-1] &= space[1:]
    # token starts and line breaks in text order; a "\r\n" makes an empty line
    events = np.flatnonzero(first | line_break)
    is_break = line_break[events]
    breaks = np.flatnonzero(is_break)
    if len(events) - len(breaks) != 3 * state_count * len(alphabet):
        return None
    per_line = np.diff(breaks, prepend=-1, append=len(events)) - 1
    if not ((per_line == 0) | (per_line == 3)).all():
        return None
    starts = events[~is_break]
    lengths = np.flatnonzero(last) + 1 - starts
    qs = _digits(data, starts[0::3], lengths[0::3])
    ss = _symbols(data, starts[1::3], lengths[1::3], alphabet)
    ts = _digits(data, starts[2::3], lengths[2::3])
    if qs is None or ss is None or ts is None or max(qs.max(), ts.max()) >= state_count:
        return None
    return _table(qs, ss, ts, state_count, len(alphabet))


def _digits(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """The tokens of ``data`` at ``starts`` as int64, or None unless each is
    ASCII digits, all but the last 18 of them zeros, so that none overflows.
    Each is read from its last byte back, at most 18 digits."""
    ends = starts + lengths - 1
    long = np.flatnonzero(lengths > 18)
    if len(long):
        spans = np.column_stack([starts[long], ends[long] - 17]).ravel()  # [start, cut) of each
        if np.add.reduceat(data != 48, spans)[0::2].any():  # bool add: any byte not "0"
            return None
        lengths = np.minimum(lengths, 18)
    values = np.zeros(len(starts), dtype=np.int64)
    for j in range(int(lengths.max())):  # one digit of every token a step
        # a short token's index may fall before the text: "clip" reads byte 0, masked next
        digit = data.take(ends - j, mode="clip") - 48  # uint8: below "0" wraps past 9
        digit[lengths <= j] = 0
        if (digit > 9).any():
            return None
        values += digit * np.int64(10**j)
    return values


def _symbols(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, alphabet: tuple[str, ...]
) -> np.ndarray | None:
    """The alphabet index of each token at ``starts``, or None when one is
    no name. Tokens are matched as rows of their UTF-8 bytes against the
    names of their byte length, so the rows are no larger than the tokens."""
    names = [name.encode("utf-8") for name in alphabet]
    ss = np.full(len(starts), -1)
    for size in set(map(len, names)):
        index = np.array([s for s, name in enumerate(names) if len(name) == size])
        keys = np.array([names[s] for s in index], dtype=f"S{size}")
        order = np.argsort(keys)
        at = np.flatnonzero(lengths == size)
        rows = data.take(starts[at, None] + np.arange(size)).view(f"S{size}").ravel()
        found = order[np.searchsorted(keys, rows, sorter=order).clip(max=len(keys) - 1)]
        hit = keys[found] == rows
        ss[at[hit]] = index[found[hit]]
    return None if (ss < 0).any() else ss


def _table(qs: np.ndarray, ss: np.ndarray, ts: np.ndarray, n: int, k: int) -> np.ndarray | None:
    """The ``n × k`` table of the three columns, or None when a (state, symbol)
    pair repeats (so, the count being right, one is missing)."""
    cells = qs * k + ss
    if np.bincount(cells, minlength=n * k).max() > 1:
        return None
    table = np.empty((n, k), dtype=np.int64)
    np.put(table, cells, ts)
    return table


def _ints(tokens: list[str]) -> list[int] | None:
    """The tokens as ints, or None if one of them is not ASCII digits that
    ``int()`` converts whole (``_int`` then reads them one by one). The
    tokens come from ``str.split``, so none is empty and one check of the
    joined string covers them all."""
    joined = "".join(tokens)
    if tokens and not (joined.isascii() and joined.isdigit()):  # as in _int
        return None
    try:
        return list(map(int, tokens))
    except ValueError:  # more digits than int() converts
        return None


def _raise_first_error(
    body: str, last: int, alphabet: tuple[str, ...], state_count: int
) -> NoReturn:
    """Scan the transition lines, the lines of ``body`` after header line
    ``last``, one by one and raise for the first malformed line or repeated
    pair, or else for the missing pairs. Called only when a bulk check
    failed, so one of them exists."""
    symbol_index = {name: i for i, name in enumerate(alphabet)}
    seen: set[tuple[int, int]] = set()
    for number, line in enumerate(body.splitlines(), start=last + 1):
        tokens = line.split()
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
            # int() limits the digits it converts; leading zeros need none
            return int(token.lstrip("0") or "0")
    except ValueError:  # more digits than int() converts
        pass
    raise FormatError(f"expected an integer, got {_clip(repr(token))}", line)


def _state(token: str, line: int, state_count: int, what: str) -> int:
    """The state number of a token, named ``what`` if it is out of range."""
    q = _int(token, line)
    if q >= state_count:
        raise FormatError(f"{what} {_num(q)} out of range (states {_num(state_count)})", line)
    return q
