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

from itertools import islice

from .core import Dfa, _check_alphabet, _clip

# How many missing (state, symbol) pairs an error names; it gives the count
# of the rest, so a huge declared state count cannot produce a huge message.
_MISSING_SHOWN = 5


class FormatError(ValueError):
    """Automaton file rejected; carries the offending line number if any."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def parse_automaton(text: str) -> Dfa:
    """Parse the text format above into a validated complete DFA."""
    lines: list[tuple[int, list[str]]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            lines.append((number, tokens))
    if len(lines) < 4:
        raise FormatError("expected alphabet/states/start/accepting header lines")

    (ln_alpha, alpha), (ln_states, states_l), (ln_start, start_l), (ln_acc, acc_l) = lines[:4]
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
        raise FormatError(f"start {start} out of range (states {state_count})", ln_start)
    if acc_l[0] != "accepting":
        raise FormatError("expected 'accepting <state>...'", ln_acc)
    accepting = set()
    for token in acc_l[1:]:
        q = _int(token, ln_acc)
        if not 0 <= q < state_count:
            raise FormatError(f"accepting state {q} out of range (states {state_count})", ln_acc)
        accepting.add(q)

    symbol_index = {name: i for i, name in enumerate(alphabet)}
    table: dict[tuple[int, int], int] = {}
    for number, tokens in lines[4:]:
        if len(tokens) != 3:
            raise FormatError("expected '<state> <symbol> <state>'", number)
        q = _int(tokens[0], number)
        if tokens[1] not in symbol_index:
            raise FormatError(f"unknown symbol {_clip(repr(tokens[1]))}", number)
        s = symbol_index[tokens[1]]
        target = _int(tokens[2], number)
        for state in (q, target):
            if not 0 <= state < state_count:
                raise FormatError(f"state {state} out of range (states {state_count})", number)
        if (q, s) in table:
            raise FormatError(f"duplicate transition for ({q}, {_clip(tokens[1])})", number)
        table[(q, s)] = target

    missing = state_count * len(alphabet) - len(table)
    if missing:
        gaps = (
            f"({q}, {_clip(name)})"
            for q in range(state_count)
            for s, name in enumerate(alphabet)
            if (q, s) not in table
        )
        shown = ", ".join(islice(gaps, _MISSING_SHOWN))
        more = ", ..." if missing > _MISSING_SHOWN else ""
        raise FormatError(f"incomplete transition table; {missing} missing: {shown}{more}")

    delta = tuple(
        tuple(table[(q, s)] for s in range(len(alphabet))) for q in range(state_count)
    )
    return Dfa(alphabet=alphabet, delta=delta, start=start, accepting=frozenset(accepting))


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


def _int(token: str, line: int) -> int:
    try:
        if token.isascii() and token.isdigit():  # no sign, "_" or non-ASCII digit
            return int(token)
    except ValueError:  # more digits than int() converts
        pass
    raise FormatError(f"expected an integer, got {_clip(repr(token))}", line)
