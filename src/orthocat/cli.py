"""Command-line interface: bound-verification experiments, sweeps, and
automaton file utilities.

Exit statuses follow one convention across subcommands: 0 for success (or a
positive verdict), 1 for a negative verdict or failed check, 2 for usage,
parse, or I/O errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import astuple, dataclass
from pathlib import Path

from . import core
from .catenation import (
    _dense_fits,
    build_catenation_dfa,
    build_catenation_nfa,
    orthogonal_upper_bound,
)
from .core import Dfa, determinize, format_word, language_equivalent, minimize
from .fileformat import FormatError, parse_automaton, serialize_automaton
from .oracle import brute_force_orthogonal, verify_fooling_set
from .orthogonality import is_orthogonal
from .witnesses import _SIGMA, fooling_set_unary_catenation, unary_star_dfa, witness_a, witness_b

CSV_HEADER = "m,n,predicted,constructed,minimized,orthogonal,elapsed_ms"

# Bounded cross-check of the orthogonality decision inside `verify`; the
# decision procedure itself is exact.
_VERIFY_ORACLE_MAX_LEN = 8

# Largest m + n that `nfa-bound` takes: its fooling-set check makes one
# membership test for each of (m + n)**2 / 2 pairs, so its cost grows with
# (m + n)**3; 350 takes about a second.
_NFA_BOUND_MAX_STATES = 350


@dataclass(frozen=True)
class SweepRow:
    """One experiment record: a witness pair (m, n), the predicted minimal
    size, what the construction and minimization actually produced, the
    orthogonality verdict, and the wall-clock cost."""

    m: int
    n: int
    predicted: int
    constructed: int
    minimized: int
    orthogonal: bool
    elapsed_ms: int


def _cells(row: SweepRow) -> list[str]:
    """A row's values in field order, the verdict as ``true``/``false``."""
    return [("true" if v else "false") if isinstance(v, bool) else str(v) for v in astuple(row)]


class OracleDisagreement(RuntimeError):
    """The orthogonality decision and the bounded brute-force scan disagree."""


def _witness_cell(m: int, n: int, check_oracle: bool) -> SweepRow:
    t0 = time.perf_counter()
    wa, wb = witness_a(m), witness_b(n)
    verdict = is_orthogonal(wa, wb)
    if check_oracle:
        scan = brute_force_orthogonal(wa, wb, _VERIFY_ORACLE_MAX_LEN)
        if verdict.orthogonal != (scan is None):
            raise OracleDisagreement(
                f"orthogonality decision and brute-force scan disagree for ({m}, {n})"
            )
    cat = build_catenation_dfa(wa, wb)
    minimized = minimize(cat.dfa).state_count
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return SweepRow(
        m=m,
        n=n,
        predicted=orthogonal_upper_bound(m, n),
        constructed=cat.dfa.state_count,
        minimized=minimized,
        orthogonal=verdict.orthogonal,
        elapsed_ms=elapsed_ms,
    )


def cmd_verify(m: int, n: int) -> SweepRow:
    """Build the (m, n) witness pair, assert orthogonality with both the
    decision procedure and the bounded brute-force scan, and measure the
    minimal catenation size against the predicted bound. A pair is refused
    before any work when the dense build's tables or the oracle's, ``(m +
    n) * k**8`` cells for k letters, would pass ``core._MAX_CELLS``."""
    if m < 3 or n < 3:
        raise ValueError("verify needs m >= 3 and n >= 3")
    k = len(_SIGMA)
    if not _dense_fits(m, k, n):
        raise core._over_budget(f"verify {m} {n}: the catenation table")
    if (m + n) * k**_VERIFY_ORACLE_MAX_LEN > core._MAX_CELLS:
        raise core._over_budget(f"verify {m} {n}: the oracle's tables")
    return _witness_cell(m, n, check_oracle=True)


def cmd_sweep(m_max: int, n_max: int, out: str | Path) -> list[SweepRow]:
    """One row per (m, n) in [3..m_max] × [3..n_max], written as CSV.

    Output bytes are identical across runs except for the elapsed_ms column.
    """
    if not (3 <= m_max <= 10) or not (3 <= n_max <= 10):
        raise ValueError("sweep needs 3 <= m_max, n_max <= 10")
    rows = [
        _witness_cell(m, n, check_oracle=False)
        for m in range(3, m_max + 1)
        for n in range(3, n_max + 1)
    ]
    lines = [CSV_HEADER, *(",".join(_cells(row)) for row in rows)]
    Path(out).write_text("\n".join(lines) + "\n", newline="")
    return rows


def _load(path: str | Path) -> Dfa:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_automaton(text)


def cmd_ortho(file_a: str | Path, file_b: str | Path) -> int:
    """Print the orthogonality verdict for two automaton files; exit status
    0 when orthogonal, 1 when not."""
    a, b = _load(file_a), _load(file_b)
    verdict = is_orthogonal(a, b)
    if verdict.orthogonal:
        print("orthogonal")
        return 0
    witness = verdict.witness
    assert witness is not None

    def fmt(w):
        return format_word(a.alphabet, w)

    print("not orthogonal")
    print(f"word: {fmt(witness.word)}")
    print(f"split 1: {fmt(witness.split1[0])} · {fmt(witness.split1[1])}")
    print(f"split 2: {fmt(witness.split2[0])} · {fmt(witness.split2[1])}")
    return 1


def _row_line(row: SweepRow) -> str:
    return " ".join(f"{name}={cell}" for name, cell in zip(CSV_HEADER.split(","), _cells(row)))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _handle_verify(args: argparse.Namespace) -> int:
    try:
        row = cmd_verify(args.m, args.n)
    except OracleDisagreement as exc:
        print(f"MISMATCH: {exc}")
        return 1
    print(_row_line(row))
    if row.minimized == row.predicted and row.orthogonal:
        print("ok: minimized size matches the predicted bound")
        return 0
    print("MISMATCH: minimized size differs from the predicted bound")
    return 1


def _handle_sweep(args: argparse.Namespace) -> int:
    rows = cmd_sweep(args.m_max, args.n_max, args.out)
    bad = sum(1 for r in rows if r.minimized != r.predicted or not r.orthogonal)
    print(f"wrote {len(rows)} rows to {args.out}")
    if bad:
        print(f"MISMATCH in {bad} rows")
        return 1
    return 0


def _handle_ortho(args: argparse.Namespace) -> int:
    return cmd_ortho(args.file_a, args.file_b)


def _handle_cat(args: argparse.Namespace) -> int:
    a, b = _load(args.file_a), _load(args.file_b)
    result = minimize(build_catenation_dfa(a, b).dfa)
    _emit(serialize_automaton(result), args.out)
    return 0


def _handle_min(args: argparse.Namespace) -> int:
    _emit(serialize_automaton(minimize(_load(args.file))), args.out)
    return 0


def _handle_eq(args: argparse.Namespace) -> int:
    if language_equivalent(_load(args.file_a), _load(args.file_b)):
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


def _handle_witness(args: argparse.Namespace) -> int:
    build = witness_a if args.family == "a" else witness_b
    _emit(serialize_automaton(build(args.size)), args.out)
    return 0


def _handle_nfa_bound(args: argparse.Namespace) -> int:
    m, n = args.m, args.n
    if m + n > _NFA_BOUND_MAX_STATES:
        raise ValueError(
            f"nfa-bound {m} {n}: m + n passes the limit of {_NFA_BOUND_MAX_STATES} states"
        )
    nfa = build_catenation_nfa(unary_star_dfa(m, "a"), unary_star_dfa(n, "b"))
    lang = minimize(determinize(nfa))
    result = verify_fooling_set(lang, fooling_set_unary_catenation(m, n))
    print(f"nfa states: {nfa.state_count}")
    if result.ok:
        print(f"certified lower bound: {result.size}")
    else:
        print(f"fooling set rejected: {result.reason}")
    return 0 if result.ok and nfa.state_count == m + n and result.size == m + n else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthocat",
        description="catenation state-complexity experiments on finite automata",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the witness-pair bound for one (m, n)")
    p.add_argument("m", type=_positive_int)
    p.add_argument("n", type=_positive_int)
    p.set_defaults(func=_handle_verify)

    p = sub.add_parser("sweep", help="witness-pair bound sweep, CSV output")
    p.add_argument("m_max", type=_positive_int)
    p.add_argument("n_max", type=_positive_int)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_handle_sweep)

    p = sub.add_parser("ortho", help="decide orthogonality of two automaton files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_handle_ortho)

    p = sub.add_parser("cat", help="minimal DFA for the catenation of two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_handle_cat)

    p = sub.add_parser("min", help="canonical minimal DFA for a file")
    p.add_argument("file")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_handle_min)

    p = sub.add_parser("eq", help="language equivalence of two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_handle_eq)

    p = sub.add_parser("witness", help="emit a witness automaton file")
    p.add_argument("family", choices=("a", "b"))
    p.add_argument("size", type=_positive_int)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_handle_witness)

    p = sub.add_parser(
        "nfa-bound",
        help="state count and fooling-set lower bound for the unary-pair NFA",
    )
    p.add_argument("m", type=_positive_int)
    p.add_argument("n", type=_positive_int)
    p.set_defaults(func=_handle_nfa_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
