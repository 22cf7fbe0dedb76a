import pytest
from hypothesis import given, settings

from orthocat import Dfa, FormatError, minimize, parse_automaton, serialize_automaton, witness_a, witness_b

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

    def test_missing_headers(self):
        with pytest.raises(FormatError, match="header"):
            parse_automaton("alphabet a\nstates 1\n")

    def test_misordered_headers(self):
        with pytest.raises(FormatError, match="expected 'states"):
            parse_automaton("alphabet a\nstart 0\nstates 1\naccepting\n0 a 0\n")


class TestComments:
    def test_comments_and_blanks_ignored(self):
        text = serialize_automaton(witness_b(3))
        noisy = "# generated file\n\n" + text.replace(
            "start 0", "start 0   # initial state"
        )
        assert parse_automaton(noisy) == witness_b(3)
