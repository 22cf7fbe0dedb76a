import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocat import Dfa, FormatError, minimize, parse_automaton, serialize_automaton, witness_a, witness_b
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

    @pytest.mark.parametrize("states", [10**7, 10**4000], ids=["1e7", "1e4000"])
    def test_declared_state_count_allocates_nothing(self, states):
        text = f"alphabet a b\nstates {states}\nstart 0\naccepting 1\n0 a 1\n0 b 0\n1 a 1\n"
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"^incomplete transition table; .* missing: \(1, b\), \(2, a\),"):
                parse_automaton(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestComments:
    def test_comments_and_blanks_ignored(self):
        text = serialize_automaton(witness_b(3))
        noisy = "# generated file\n\n" + text.replace(
            "start 0", "start 0   # initial state"
        )
        assert parse_automaton(noisy) == witness_b(3)


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
