import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocat import Dfa, FormatError, minimize, parse_automaton, serialize_automaton, witness_a, witness_b
from orthocat import fileformat
from orthocat.randgen import random_dfa, splitmix64_stream

from conftest import dfa_pairs, dfa_strategy


class TestRoundTrip:
    @pytest.mark.parametrize("build,size", [(witness_a, 3), (witness_a, 6), (witness_b, 4)])
    def test_witness_files(self, build, size):
        d = build(size)
        assert parse_automaton(serialize_automaton(d)) == d

    def test_seeded_corpus(self):
        for d, _ in dfa_pairs(0xF11E_0001, 40, max_m=6, max_n=1):
            assert parse_automaton(serialize_automaton(d)) == d

    @settings(max_examples=40, deadline=None)
    @given(dfa_strategy())
    def test_arbitrary(self, d):
        assert parse_automaton(serialize_automaton(d)) == d

    def test_canonical_bytes_are_stable(self):
        d = minimize(witness_b(5))
        assert serialize_automaton(d) == serialize_automaton(minimize(witness_b(5)))

    def test_empty_accepting_line(self):
        d = Dfa(("a",), ((0,),), 0, frozenset())
        text = serialize_automaton(d)
        assert "accepting\n" in text
        assert parse_automaton(text) == d

    def test_symbol_with_comment_sign_is_refused(self):
        d = Dfa(("a", "x#y"), ((0, 0),), 0, frozenset({0}))
        with pytest.raises(ValueError, match="symbol 'x#y' contains '#'"):
            serialize_automaton(d)


class TestSerializeLayout:
    def test_header_order(self):
        text = serialize_automaton(witness_b(3))
        lines = text.splitlines()
        assert lines[0] == "alphabet a b c d"
        assert lines[1] == "states 3"
        assert lines[2] == "start 0"
        assert lines[3] == "accepting 1"
        assert lines[4] == "0 a 2"

    def test_transitions_sorted_and_complete(self):
        text = serialize_automaton(witness_a(3))
        body = text.splitlines()[4:]
        assert len(body) == 3 * 4
        assert body == sorted(body, key=lambda t: (int(t.split()[0]), "abcd".index(t.split()[1])))


class TestParseErrors:
    def witness_text(self) -> str:
        return serialize_automaton(witness_a(3))

    def test_missing_transition_is_named(self):
        lines = self.witness_text().splitlines()
        dropped = [ln for ln in lines if ln != "1 c 0"]
        with pytest.raises(FormatError, match=r"missing: \(1, c\)"):
            parse_automaton("\n".join(dropped))

    def test_missing_transitions_message_is_bounded(self):
        text = "alphabet a b\nstates 1000000\nstart 0\naccepting\n"
        with pytest.raises(FormatError, match=r"2000000 missing: \(0, a\), \(0, b\),") as info:
            parse_automaton(text)
        assert len(str(info.value)) < 1024

    def test_duplicate_transition(self):
        text = self.witness_text() + "0 a 0\n"
        with pytest.raises(FormatError, match="duplicate transition"):
            parse_automaton(text)

    def test_start_out_of_range(self):
        text = self.witness_text().replace("start 0", "start 5")
        with pytest.raises(FormatError, match="start 5 out of range"):
            parse_automaton(text)

    def test_accepting_out_of_range(self):
        text = self.witness_text().replace("accepting 1", "accepting 12")
        with pytest.raises(FormatError, match="accepting state 12 out of range"):
            parse_automaton(text)

    @pytest.mark.parametrize(
        "line,message",
        [
            ("accepting 1 x 12", "expected an integer, got 'x'"),
            ("accepting 1 12 x", "accepting state 12 out of range"),
            ("accepting 2 3", "accepting state 3 out of range"),
            ("accepting 2 1 " + "9" * 5000, "expected an integer"),
        ],
        ids=["bad-token-first", "out-of-range-first", "state-count", "5000-digits"],
    )
    def test_first_bad_accepting_token(self, line, message):
        text = self.witness_text().replace("accepting 1", line)
        with pytest.raises(FormatError, match=message) as info:
            parse_automaton(text)
        assert info.value.line == 4

    def test_unknown_symbol(self):
        text = self.witness_text().replace("0 a 0", "0 z 0")
        with pytest.raises(FormatError, match="unknown symbol 'z'"):
            parse_automaton(text)

    def test_malformed_transition_line(self):
        text = self.witness_text() + "0 a\n"
        with pytest.raises(FormatError) as info:
            parse_automaton(text)
        assert info.value.line == 17

    def test_non_integer_state(self):
        text = self.witness_text().replace("states 3", "states many")
        with pytest.raises(FormatError, match="expected an integer"):
            parse_automaton(text)

    def test_non_ascii_digits_sign_and_underscore(self):
        text = "alphabet a\nstates \uff12\nstart +0\naccepting 0_1\n0 a 1\n1 a \u0660\n"
        with pytest.raises(FormatError, match="expected an integer"):
            parse_automaton(text)

    @pytest.mark.parametrize(
        "token", ["+0", "0_1", "\uff12", "\u0660", "-0", pytest.param("9" * 5000, id="5000-digits")]
    )
    def test_only_ascii_digit_integers(self, token):
        text = "alphabet a\nstates 2\nstart 0\naccepting 1\n0 a 1\n1 a 0\n"
        assert parse_automaton(text).state_count == 2
        for old in ("states 2", "start 0", "accepting 1", "1 a 0"):
            bad = text.replace(old, old[:-1] + token, 1)
            with pytest.raises(FormatError, match="expected an integer, got") as info:
                parse_automaton(bad)
            assert info.value.line == text.splitlines().index(old) + 1

    def test_zero_states(self):
        with pytest.raises(FormatError, match="state count must be positive") as info:
            parse_automaton("alphabet a\nstates 0\nstart 0\naccepting\n")
        assert info.value.line == 2

    def test_transition_target_out_of_range(self):
        text = self.witness_text().replace("1 c 0", "1 c 7")
        with pytest.raises(FormatError, match=r"^line 11: state 7 out of range \(states 3\)$"):
            parse_automaton(text)

    def test_missing_headers(self):
        with pytest.raises(FormatError, match="header"):
            parse_automaton("alphabet a\nstates 1\n")

    def test_bad_alphabet_symbol(self):
        text = "alphabet \x00\nstates 1\nstart 0\naccepting\n0 \x00 0\n"
        with pytest.raises(FormatError, match="bad alphabet symbol") as info:
            parse_automaton(text)
        assert info.value.line == 1

    def test_duplicate_alphabet_symbol(self):
        with pytest.raises(FormatError, match="alphabet symbols must be distinct") as info:
            parse_automaton("alphabet a a\nstates 1\nstart 0\naccepting\n0 a 0\n")
        assert info.value.line == 1

    def test_misordered_headers(self):
        with pytest.raises(FormatError, match="expected 'states"):
            parse_automaton("alphabet a\nstart 0\nstates 1\naccepting\n0 a 0\n")


class TestHostileSizes:
    """A declared state count far beyond the transition lines gets the
    missing-pairs error without a table of that size being allocated."""

    @pytest.mark.parametrize(
        "states,comment", [(10**7, ""), (10**4000, ""), (10**7, "# c\n")], ids=["1e7", "1e4000", "1e7-commented"]
    )
    def test_declared_state_count_allocates_nothing(self, states, comment):
        text = f"{comment}alphabet a b\nstates {states}\nstart 0\naccepting 1\n0 a 1\n0 b 0\n1 a 1\n"
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"^incomplete transition table; .* missing: \(1, b\), \(2, a\),"):
                parse_automaton(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_long_name_allocates_by_the_text(self):
        # one 10,000-byte name among 3,999 one-byte symbol tokens: rows as
        # wide as the longest name would take 320 MB of byte indices
        long = "x" * 10_000
        lines = ["alphabet a " + long, "states 2000", "start 0", "accepting", "0 a 0", f"0 {long} 0"]
        lines += [f"{q} a {t}" for q in range(1, 2000) for t in (0, 1)]
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"^line 8: duplicate transition for \(1, a\)$"):
                parse_automaton("\n".join(lines) + "\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


class TestComments:
    def test_comments_and_blanks_ignored(self):
        text = serialize_automaton(witness_b(3))
        noisy = "# generated file\n\n" + text.replace(
            "start 0", "start 0   # initial state"
        )
        assert parse_automaton(noisy) == witness_b(3)

    @pytest.mark.parametrize(
        "edit,expect",
        [
            (lambda t: t, "Dfa("),
            (lambda t: t.replace("start 0", "start 9"), "line 3: start 9"),
            (lambda t: t.replace("\n1 b 2", "\n1 b 3"), "line 10: state 3"),
            (lambda t: t + "1 b 0\n", "line 17: duplicate"),
        ],
        ids=["valid", "header-error", "out-of-range", "duplicate"],
    )
    def test_non_ascii_comments_and_wide_breaks(self, edit, expect):
        # a non-ASCII comment on every line, ended by "\n" or by a non-ASCII
        # line break, which must end the comment and keep the line numbers
        text = edit(serialize_automaton(witness_a(3)))
        outcome = _outcome(text)
        assert expect in outcome
        for end in ("\n", "\x85", "\u2028", "\u2029"):
            assert _outcome(text.replace("\n", f" # caf\xe9\xa0\u3000\xe9{end}")) == outcome


# Tokens that are valid somewhere, plus non-printable, non-integer, huge and
# comment-starting ones; st.text() adds whitespace and line breaks.
_TOKENS = st.one_of(
    st.integers(-1, 3).map(str),
    st.sampled_from(["a", "b", "0x1", "1.5", "\uff11", "\x00", "\x7f", "\u200b", "#", "9" * 5000]),
    st.text(max_size=3),
)


@st.composite
def automaton_like_text(draw) -> str:
    """The four header keywords followed by arbitrary tokens, then random
    transition lines: text that gets past the header far more often than
    arbitrary text does."""
    lines = [
        " ".join([keyword, *draw(st.lists(_TOKENS, max_size=3))])
        for keyword in ("alphabet", "states", "start", "accepting")
    ]
    for _ in range(draw(st.integers(0, 6))):
        lines.append(" ".join(draw(st.lists(_TOKENS, min_size=2, max_size=4))))
    return "\n".join(lines)


@st.composite
def mutated_automaton_text(draw) -> str:
    """A valid file with one token replaced, one token renamed everywhere
    (a symbol or a state number), or one line dropped or repeated."""
    lines = [line.split(" ") for line in serialize_automaton(draw(dfa_strategy())).splitlines()]
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines[i]) - 1))
    edit = draw(st.sampled_from(["replace", "rename", "drop", "repeat"]))
    if edit == "replace":
        lines[i][j] = draw(_TOKENS)
    elif edit == "rename":
        old, new = lines[i][j], draw(_TOKENS)
        lines = [[new if token == old else token for token in line] for line in lines]
    elif edit == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\n".join(" ".join(line) for line in lines)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), automaton_like_text(), mutated_automaton_text()))
    def test_parse_returns_dfa_or_raises_format_error(self, text):
        try:
            d = parse_automaton(text)
        except FormatError:
            return
        assert isinstance(d, Dfa)
        assert parse_automaton(serialize_automaton(d)) == d


# Separators the format must read as whitespace inside a line, and line
# breaks it must read as the end of one.
_SPACES = [" ", "\t", "   ", " \t", "\xa0", "\u3000", "\u2003"]
_BREAKS = ["\n", "\r\n", "\x85", "\u2028"]
_SYMBOL_NAMES = ["a", "b", "0", "1", "12", "ab", "x_y", "é", "007", "->"]


def _respaced(draws, lines: list[list[str]]) -> str:
    """Token lines joined with seeded separators, with blank and comment
    lines and trailing comments."""
    def pick(options):
        return options[next(draws) % len(options)]

    out = []
    for tokens in lines:
        if next(draws) % 8 == 0:
            out.append(pick(["", "  ", "# note", "\t# 0 a 0"]))
        line = pick(["", " ", "\t"]) + pick(_SPACES).join(tokens)
        if next(draws) % 6 == 0:
            line += pick(_SPACES) + "# trailing 1 a 1"
        out.append(line)
    return "".join(line + pick(_BREAKS) for line in out)


def _corpus_file(draws, mutate: bool) -> str:
    """One seeded automaton file, valid or with one mutation in its
    transition lines (the header stays valid, so the body is parsed)."""
    n, k = 1 + next(draws) % 8, 1 + next(draws) % 4
    d = random_dfa(n, k, (1 + next(draws) % 3) / 4, next(draws))
    offset = next(draws) % (len(_SYMBOL_NAMES) - k + 1)
    d = Dfa(_SYMBOL_NAMES[offset : offset + k], d.delta, next(draws) % n, d.accepting)
    lines = [line.split(" ") for line in serialize_automaton(d).splitlines()]
    for i, tokens in enumerate(lines[1:], start=1):  # leading zeros on state numbers
        for j in range(1, len(tokens)) if i < 4 else (0, 2):
            tokens[j] = "0" * (next(draws) % 4 // 2) + tokens[j]
    header, body = lines[:4], lines[4:]
    for i in range(len(body) - 1, 0, -1):  # any order of transition lines is valid
        j = next(draws) % (i + 1)
        body[i], body[j] = body[j], body[i]
    if mutate:
        i = next(draws) % len(body)
        kind = next(draws) % 8
        if kind == 0:  # a token too few or too many
            body[i] = body[i][:2] if next(draws) % 2 else [*body[i], body[i][0]]
        elif kind == 1:  # a token moved to the start of the next line
            body[(i + 1) % len(body)].insert(0, body[i].pop())
        elif kind == 2:  # not an ASCII integer
            body[i][2 * (next(draws) % 2)] = ["x1", "-1", "+1", "1.0", "١", "0x1", "1_0"][next(draws) % 7]
        elif kind == 3:
            body[i][1] = "zz"
        elif kind == 4:
            body[i][2 * (next(draws) % 2)] = str(n + next(draws) % 3)
        elif kind == 5:  # a duplicate (q, s), possibly to another target
            body.insert(next(draws) % (len(body) + 1), [*body[i][:2], str(next(draws) % n)])
        elif kind == 6:
            del body[i]
        else:  # a 30-digit state number, in range only with leading zeros
            body[i][2 * (next(draws) % 2)] = ("0" * 29 + "1") if next(draws) % 2 else "9" * 30
    return _respaced(draws, header + body)


def _outcome(text: str) -> str:
    try:
        return repr(parse_automaton(text))
    except FormatError as exc:
        return f"FormatError({str(exc)!r}, {exc.line})"


class TestParsePinned:
    """The parser's outcome on a seeded corpus, hashed and pinned: the
    automaton, or the exact message and line of the error. Half the files
    are valid but re-spaced; half carry one mutation in their transition
    lines. The digest was computed with the line-by-line parser, before
    the bulk parse, which had to leave every outcome alone."""

    def test_outcomes_are_pinned(self):
        draws = splitmix64_stream(0xF11E_0007)
        outcomes = [_outcome(_corpus_file(draws, mutate)) for mutate in [False, True] * 1000]
        assert sum(o.startswith("Dfa(") for o in outcomes[0::2]) == 1000
        assert sum(o.startswith("FormatError(") for o in outcomes[1::2]) == 964
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        assert digest == "4684d7463d2f768d71c90e9a64b20c299b8dc44331a01ace304c7a38aeabaa0d"


def _moved_token(text: str) -> str:
    """The last token of the fifth line moved to the start of the sixth: a
    line of two tokens beside one of four, with the token count unchanged."""
    lines = text.splitlines()
    first, token = lines[5].rsplit(" ", 1)
    lines[5:7] = [first, f"{token} {lines[6]}"]
    return "\n".join(lines) + "\n"


# (id, edit of a valid file, whether its parse never reaches the line-wise
# scan for the first error, and True if it parses, else a part of the error)
_BULK_CASES = [
    ("tabs", lambda t: t.replace(" ", "\t"), True, True),
    ("unit-separator", lambda t: t.replace(" ", " \x1f"), True, True),
    *(
        (f"break-{ord(b):02x}", lambda t, b=b: t.replace("\n", b), True, True)
        for b in "\x0b\x0c\x1c\x1d\x1e\r"
    ),
    ("crlf", lambda t: t.replace("\n", "\r\n"), True, True),
    ("blank-lines", lambda t: t.replace("\n1 a", "\n\n \t\n\r\n1 a"), True, True),
    ("two-and-four-tokens", _moved_token, False, "line 6: expected '<state> <symbol> <state>'"),
    ("leading-zeros", lambda t: t.replace("\n1 b 2", "\n001 b 0002"), True, True),
    ("18-digits", lambda t: t.replace("\n1 b 2", f"\n{'1'.zfill(18)} b {'2'.zfill(18)}"), True, True),
    ("19-digits", lambda t: t.replace("\n1 b 2", f"\n{'1'.zfill(19)} b 2"), True, True),
    # past 18 digits, the bytes before the last 18 must all be zeros
    ("19-digits-one-first", lambda t: t.replace("\n1 b 2", f"\n1 b 1{'2'.zfill(18)}"), False, "line 10: state 1000000000000000002 out of range"),
    ("19-digits-sign-first", lambda t: t.replace("\n1 b 2", f"\n+{'1'.zfill(18)} b 2"), False, "line 10: expected an integer, got '+000000000000000001'"),
    # past int()'s 4,300-digit limit only by its leading zeros, which go first
    ("5000-digits", lambda t: t.replace("\n1 b 2", f"\n1 b {'2'.zfill(5000)}"), True, True),
    ("5000-digits-header", lambda t: t.replace(" 0\na", f" {'0' * 5000}\na").replace("g 1", f"g {'1'.zfill(5000)}"), True, True),
    ("5000-digits-then-duplicate", lambda t: t.replace("\n1 b 2", f"\n1 b {'2'.zfill(5000)}") + "1 b 0\n", False, "line 17: duplicate"),
    ("19-nines", lambda t: t.replace("\n1 b 2", f"\n{'9' * 19} b 2"), False, "line 10: state 9999"),
    ("fullwidth-digit", lambda t: t.replace("\n1 b 2", "\n\uff11 b 2"), False, "line 10: expected an integer, got '\uff11'"),
    ("no-final-newline", lambda t: t.rstrip("\n"), True, True),
    ("duplicate", lambda t: t + "1 b 0\n", False, "line 17: duplicate transition for (1, b)"),
    ("missing", lambda t: t.replace("\n1 b 2", ""), False, "incomplete transition table; 1 missing: (1, b)"),
    ("unknown-symbol", lambda t: t.replace("\n1 b 2", "\n1 z 2"), False, "line 10: unknown symbol 'z'"),
    ("out-of-range", lambda t: t.replace("\n1 b 2", "\n1 b 3"), False, "line 10: state 3 out of range"),
    ("four-tokens", lambda t: t.replace("\n1 b 2", "\n1 b 2 2"), False, "line 10: expected '<state>"),
    # header errors, raised before the transition lines are read
    ("crlf-header-error", lambda t: t.replace("\n", "\r\n").replace("start 0", "start 9"), True, "line 3: start 9"),
    ("breaks-in-header", lambda t: t.replace("\nstart 0", "\n\x0b\r\n\x1c \nstart 0 0", 1), True, "line 7: expected 'start"),
    # "\r\x85" and "\r\u2028" are two line breaks each, unlike "\r\n"
    ("cr-nel", lambda t: t.replace("\n", "\r\x85"), True, True),
    ("cr-nel-out-of-range", lambda t: t.replace("\n1 b 2", "\n1 b 3").replace("\n", "\r\x85"), False, "line 19: state 3"),
    ("cr-ls-header-error", lambda t: t.replace("start 0", "start 9").replace("\n", "\r\u2028"), True, "line 5: start 9"),
    ("cr-ls-duplicate", lambda t: (t + "1 b 0\n").replace("\n", "\r\u2028"), False, "line 33: duplicate"),
    ("last-line-comment", lambda t: t.rstrip("\n") + " # last", True, True),
    ("comment-line-last", lambda t: t + "# last", True, True),
    ("nbsp", lambda t: t.replace(" ", "\xa0"), True, True),
    ("ideographic-space", lambda t: t.replace(" ", "\u3000"), True, True),
    # quoted as written, not as the "?" bytes that the bulk checks read
    ("unknown-non-ascii-symbol", lambda t: t.replace("\n1 b 2", "\n1 b\xe9\u4e00\xa02"), False, "line 10: unknown symbol 'b\xe9\u4e00'"),
    ("lone-surrogate", lambda t: t.replace("\n1 b 2", "\n1 \ud800 2"), False, "line 10: unknown symbol '\\ud800'"),
    ("header-only", lambda t: "\n".join(t.splitlines()[:4]), False, "incomplete transition table; 12 missing"),
]


# Comment-free ASCII layout: separators inside a line, and line breaks
_ASCII_SPACES = [" ", "\t", "\x1f", "  ", " \t "]
_ASCII_BREAKS = ["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
_ASCII_NAMES = ["a", "b", "0", "1", "12", "ab", "x_y", "007", "->"]


def _ascii_file(draws) -> str:
    """One seeded comment-free ASCII file: valid, or with one mutation in
    its transition lines, laid out with seeded separators and line breaks."""

    def pick(options):
        return options[next(draws) % len(options)]

    n, k = 1 + next(draws) % 6, 1 + next(draws) % 3
    d = random_dfa(n, k, 0.5, next(draws))
    offset = next(draws) % (len(_ASCII_NAMES) - k + 1)
    d = Dfa(_ASCII_NAMES[offset : offset + k], d.delta, next(draws) % n, d.accepting)
    lines = [line.split(" ") for line in serialize_automaton(d).splitlines()]
    body = lines[4:]
    for tokens in body:  # leading zeros, up to 18 digits
        for j in (0, 2):
            if next(draws) % 4 == 0:
                tokens[j] = tokens[j].zfill(pick([2, 5, 18]))
    i, j = next(draws) % len(body), pick([0, 2])
    kind = next(draws) % 13  # one mutation, or none for kind 0 or 10 and up
    if kind == 1 and len(body) > 1:  # two tokens beside four
        body[(i + 1) % len(body)].insert(0, body[i].pop())
    elif kind == 2:
        body.insert(next(draws) % (len(body) + 1), [*body[i][:2], str(next(draws) % n)])
    elif kind == 3:
        body[i][1] = "zz"
    elif kind == 4:
        del body[i]
    elif kind == 5:
        body[i].append(body[i][0])
    elif kind == 6:
        body[i][j] = str(n + next(draws) % 3)
    elif kind == 7:
        body[i][j] = pick(["x1", "-1", "+1", "1_0", "0x1", "\uff11", "9" * 18, "9" * 19])
    elif kind == 8:  # in range, past 18 digits
        body[i][j] = body[i][j].zfill(pick([19, 5000]))
    elif kind == 9:  # a header error, which the bulk route raises itself
        lines[pick([2, 3])].append("99")
    out = []
    for tokens in lines[:4] + body:
        if next(draws) % 6 == 0:
            out.append(pick(["", " ", "\t\x1f"]))
        out.append(pick(["", " ", "\t"]) + pick(_ASCII_SPACES).join(tokens) + pick(["", " "]))
    text = "".join(line + pick(_ASCII_BREAKS) for line in out)
    return text if next(draws) % 5 else text.rstrip("".join(_ASCII_BREAKS))


# (id, alphabet, and None for the valid file, else the token put in place
# of a symbol): every alphabet goes the one bulk route
_SYMBOL_CASES = [
    ("multi-byte", ("\xe9", "\u6f22\u5b57", "\U0001f600"), None),
    ("prefix-sharing", ("a", "ab", "abc"), None),
    ("digit-like", ("0", "007"), None),
    ("multi-byte-prefix", ("\u6f22", "\u6f22\u5b57"), None),
    ("unknown-multi-byte", ("\xe9", "\u6f22\u5b57", "\U0001f600"), "\u6f22"),
    ("prefix-of-every-name", ("ab", "abc"), "a"),
    ("longer-than-every-name", ("a", "ab", "abc"), "abcd"),
    ("digit-like-near-miss", ("0", "007"), "07"),
    # zero-padded to the width of "bc", "a\x00" would read as "a"
    ("nul-padded", ("a", "bc"), "a\x00"),
    ("lone-surrogate", ("\xe9", "\u6f22\u5b57", "\U0001f600"), "\ud83d"),
    ("surrogate-pair", ("\xe9", "\u6f22\u5b57", "\U0001f600"), "\ud83d\ude00"),
]


class TestBulkRoute:
    """Every text is parsed in bulk; its transition lines are scanned one by
    one only after a bulk check fails, to name the first error. A file and
    the same file with a comment appended must agree on the automaton, or
    on the exact error message and line."""

    @pytest.fixture
    def line_wise(self, monkeypatch):
        """The bodies scanned line by line for the first error, in order."""
        scanned, scan = [], fileformat._raise_first_error

        def record(body, *args):
            scanned.append(body)
            scan(body, *args)

        monkeypatch.setattr(fileformat, "_raise_first_error", record)
        return scanned

    @pytest.mark.parametrize(
        "edit,bulk,expect", [case[1:] for case in _BULK_CASES], ids=[c[0] for c in _BULK_CASES]
    )
    def test_edited_file(self, line_wise, edit, bulk, expect):
        text = edit(serialize_automaton(witness_a(3)))
        outcome = _outcome(text)
        assert (line_wise == []) == bulk
        assert outcome == _outcome(text + "# x\n")
        if expect is True:
            assert outcome.startswith("Dfa(")
        else:
            with pytest.raises(FormatError) as info:
                parse_automaton(text)
            assert expect in str(info.value)

    @pytest.mark.parametrize(
        "names,token", [case[1:] for case in _SYMBOL_CASES], ids=[c[0] for c in _SYMBOL_CASES]
    )
    def test_symbol_column(self, line_wise, names, token):
        d = random_dfa(3, len(names), 0.5, 7)
        d = Dfa(names, d.delta, 0, d.accepting)
        lines = serialize_automaton(d).splitlines()
        if token is not None:  # in place of line 8's symbol
            q, _, t = lines[7].split(" ")
            lines[7] = f"{q} {token} {t}"
        text = "\n".join(lines) + "\n"
        outcome = _outcome(text)
        assert outcome == _outcome(text + "# x\n")
        assert (line_wise == []) == (token is None)
        if token is None:
            assert parse_automaton(text) == d
        else:
            assert outcome == f"FormatError({f'line 8: unknown symbol {token!r}'!r}, 8)"

    @pytest.mark.parametrize("token", ["1:", "0;", "2@", "4a"])
    def test_non_digit_that_would_read_as_a_state(self, token):
        # byte by byte, ":" would be digit 10, so a target "1:" would read as
        # state 20; a target, since a changed state would repeat a pair
        lines = serialize_automaton(witness_b(60)).splitlines()
        lines[4] = lines[4].rsplit(" ", 1)[0] + " " + token
        text = "\n".join(lines) + "\n"
        assert _outcome(text) == _outcome(text + "# x\n")
        assert f"expected an integer, got {token!r}" in _outcome(text)

    def test_seeded_files(self, line_wise):
        draws = splitmix64_stream(0xF11E_0019)
        bulk = []
        for _ in range(1500):
            text = _ascii_file(draws)
            line_wise.clear()
            outcome = _outcome(text)
            bulk.append(not line_wise and outcome.startswith("Dfa("))
            assert outcome == _outcome(text + "# x\n"), repr(text)
        # the bulk route must parse a good share of them
        assert sum(bulk) > 300

    def test_outcomes_are_pinned(self):
        """The outcomes of the seeded files and the edits, each also with a
        comment appended, hashed and pinned. The digest was computed with
        the line-by-line parser that came before, with Python's limit on
        integer digits lifted: only then does that parser read a 5,000-digit
        zero-padded state."""
        draws = splitmix64_stream(0xF11E_0019)
        texts = [_ascii_file(draws) for _ in range(1500)]
        texts += [edit(serialize_automaton(witness_a(3))) for _, edit, *_ in _BULK_CASES]
        outcomes = [_outcome(t) for text in texts for t in (text, text + "# x\n")]
        assert sum(o.startswith("Dfa(") for o in outcomes) == 1210
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        assert digest == "bb35dc0409a4a27dfcfc31781084e42bc95b5d5d317ef37b8d04a42422548c89"

    def test_serialized_file_never_reaches_the_line_wise_route(self, monkeypatch):
        def line_wise(*args):
            raise AssertionError("scanned line by line")

        monkeypatch.setattr(fileformat, "_raise_first_error", line_wise)
        d = witness_b(8)
        text = serialize_automaton(d)
        for variant in (text, "# a comment\n" + text, text.replace(" ", "\xa0")):
            assert parse_automaton(variant) == d


# Names that share prefixes, take two to four UTF-8 bytes a character, or
# read as state numbers
_NAME_POOL = ["a", "ab", "abc", "b", "\xe9", "\xe9a", "\u6f22", "\u6f22\u5b57", "\U0001f600", "0", "00", "007", "7", "->"]


@st.composite
def named_dfas(draw) -> Dfa:
    names = tuple(draw(st.lists(st.sampled_from(_NAME_POOL), min_size=1, max_size=5, unique=True)))
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, n - 1), min_size=len(names), max_size=len(names))
    delta = draw(st.lists(row, min_size=n, max_size=n))
    return Dfa(names, delta, draw(st.integers(0, n - 1)), draw(st.frozensets(st.integers(0, n - 1))))


def _parsed_line_by_line(text: str) -> Dfa:
    """A valid file read with ``str`` methods and a dict alone."""
    lines = [tokens for line in text.splitlines() if (tokens := line.split("#")[0].split())]
    (_, *alphabet), (_, states), (_, start), (_, *accepting), *body = lines
    index = {name: s for s, name in enumerate(alphabet)}
    delta = [[0] * len(alphabet) for _ in range(int(states))]
    for q, name, target in body:
        delta[int(q)][index[name]] = int(target)
    return Dfa(tuple(alphabet), delta, int(start), frozenset(map(int, accepting)))


class TestSymbolDifferential:
    """The bulk parse against a line-by-line reading that shares no code
    with it, on names of every kind and any spacing."""

    @settings(max_examples=150, deadline=None)
    @given(named_dfas(), st.integers(0, 2**64 - 1))
    def test_respaced_files(self, d, seed):
        text = serialize_automaton(d)
        assert parse_automaton(text) == d
        draws = splitmix64_stream(seed)
        lines = [line.split(" ") for line in text.splitlines()]
        header, body = lines[:4], lines[4:]
        for i in range(len(body) - 1, 0, -1):  # any order of transition lines
            j = next(draws) % (i + 1)
            body[i], body[j] = body[j], body[i]
        respaced = _respaced(draws, header + body)
        assert parse_automaton(respaced) == _parsed_line_by_line(respaced) == d
