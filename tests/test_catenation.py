import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocat import (
    CatDfa,
    CatState,
    Dfa,
    accepts,
    build_catenation_dfa,
    build_catenation_nfa,
    determinize,
    general_upper_bound,
    language_equivalent,
    minimize,
    nfa_accepts,
    orthogonal_upper_bound,
    state_equivalent,
    unary_star_dfa,
    valid_second_components,
    dead_states,
    witness_a,
    witness_b,
)


def epsilon_dfa(alphabet=("a",)) -> Dfa:
    """Two-state DFA for the language {ε}: accepting start plus a sink."""
    k = len(alphabet)
    return Dfa(alphabet, ((1,) * k, (1,) * k), 0, frozenset({0}))


def single_word_dfa(word: str, alphabet: tuple[str, ...]) -> Dfa:
    """Chain DFA accepting exactly one word over the given alphabet."""
    k = len(alphabet)
    L = len(word)
    sink = L + 1
    rows = []
    index = {name: i for i, name in enumerate(alphabet)}
    for i in range(L):
        row = [sink] * k
        row[index[word[i]]] = i + 1
        rows.append(tuple(row))
    rows.append(tuple(sink for _ in range(k)))  # the accepting end state
    rows.append(tuple(sink for _ in range(k)))  # the sink
    return Dfa(alphabet, tuple(rows), 0, frozenset({L}))


class TestBounds:
    @pytest.mark.parametrize("m,n,expected", [(2, 2, 6), (3, 3, 20), (1, 1, 1)])
    def test_general(self, m, n, expected):
        assert general_upper_bound(m, n) == expected

    @pytest.mark.parametrize("m,n,expected", [(3, 4, 20), (4, 4, 28), (6, 6, 176)])
    def test_orthogonal(self, m, n, expected):
        assert orthogonal_upper_bound(m, n) == expected

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            general_upper_bound(0, 3)
        with pytest.raises(ValueError):
            orthogonal_upper_bound(3, 1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 200), st.integers(2, 40))
    def test_general_is_twice_orthogonal(self, m, n):
        assert general_upper_bound(m, n) == 2 * orthogonal_upper_bound(m, n)


class TestBuildCatenationDfa:
    def test_epsilon_prefix_is_identity(self):
        b = unary_star_dfa(2)
        cat = build_catenation_dfa(epsilon_dfa(), b)
        assert language_equivalent(minimize(cat.dfa), minimize(b))

    def test_witness_pair_3_3(self):
        cat = build_catenation_dfa(witness_a(3), witness_b(3))
        assert minimize(cat.dfa).state_count == 10

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            build_catenation_dfa(unary_star_dfa(2, "a"), unary_star_dfa(2, "b"))

    def test_second_automaton_capped_at_bitmask_width(self):
        assert build_catenation_dfa(unary_star_dfa(1), unary_star_dfa(62)).dfa.state_count
        with pytest.raises(ValueError, match="at most 62"):
            build_catenation_dfa(unary_star_dfa(1), unary_star_dfa(63))

    def test_rejects_key_count_unlike_state_count(self):
        cat = build_catenation_dfa(witness_a(3), witness_b(3))
        with pytest.raises(ValueError, match="one key per state"):
            CatDfa(cat.dfa, cat.keys[:-1])

    def test_start_label_without_epsilon(self):
        cat = build_catenation_dfa(witness_a(3), witness_b(3))
        assert cat.labels[0] == CatState(0, frozenset())

    def test_start_label_with_epsilon_in_first_language(self):
        # empty word in L(a) must launch a b-run immediately
        a = Dfa(("a",), ((1,), (0,)), 0, frozenset({0}))  # even lengths
        b = unary_star_dfa(3)
        cat = build_catenation_dfa(a, b)
        assert cat.labels[0] == CatState(0, frozenset({0}))
        # ε·ε = ε and a³ = ε·a³ must be accepted
        assert accepts(cat.dfa, "")
        assert accepts(cat.dfa, "aaa")

    def test_labels_are_unique_and_consistent(self, construction_corpus):
        for a, b in construction_corpus[:60]:
            cat = build_catenation_dfa(a, b)
            assert len(set(cat.labels)) == cat.dfa.state_count
            for i, label in enumerate(cat.labels):
                if label.a_state in a.accepting:
                    assert b.start in label.b_subset
                assert (i in cat.dfa.accepting) == bool(label.b_subset & b.accepting)

    def test_reachable_count_within_construction_space(self, construction_corpus):
        for a, b in construction_corpus[:100]:
            cat = build_catenation_dfa(a, b)
            m, n = a.state_count, b.state_count
            full = m * 2**n - len(a.accepting) * 2 ** (n - 1)
            assert cat.dfa.state_count <= max(full, 1)

    def test_agrees_with_nfa_determinization(self, construction_corpus):
        for a, b in construction_corpus[:60]:
            direct = build_catenation_dfa(a, b).dfa
            via_nfa = determinize(build_catenation_nfa(a, b))
            assert language_equivalent(direct, via_nfa)

    def test_dead_second_component_state_is_droppable(self, bound_corpus):
        # a dead b-state never influences acceptance of a catenation state
        checked = 0
        for a, b in bound_corpus:
            dead = dead_states(b)
            if not dead:
                continue
            cat = build_catenation_dfa(a, b)
            index = {label: i for i, label in enumerate(cat.labels)}
            for label, i in index.items():
                for p in dead & label.b_subset:
                    partner = CatState(label.a_state, label.b_subset - {p})
                    if partner in index:
                        assert state_equivalent(cat.dfa, i, index[partner])
                        checked += 1
            if checked > 200:
                break
        assert checked > 0


class TestBuildCatenationNfa:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (5, 4), (8, 8)])
    def test_unary_pair_has_m_plus_n_states(self, m, n):
        nfa = build_catenation_nfa(unary_star_dfa(m, "a"), unary_star_dfa(n, "b"))
        assert nfa.state_count == m + n
        assert nfa.alphabet == ("a", "b")

    def test_state_count_is_always_the_sum(self, construction_corpus):
        for a, b in construction_corpus[:80]:
            assert build_catenation_nfa(a, b).state_count == a.state_count + b.state_count

    def test_epsilon_prefix_language(self):
        b = witness_b(3)
        nfa = build_catenation_nfa(epsilon_dfa(b.alphabet), b)
        assert language_equivalent(minimize(determinize(nfa)), minimize(b))

    def test_witness_pair_via_nfa_route(self):
        nfa = build_catenation_nfa(witness_a(3), witness_b(3))
        assert minimize(determinize(nfa)).state_count == 10

    def test_unary_pair_language(self):
        nfa = build_catenation_nfa(unary_star_dfa(2, "a"), unary_star_dfa(3, "b"))
        # (aa)*(bbb)* membership spot checks by subset simulation
        assert nfa_accepts(nfa, "")
        assert nfa_accepts(nfa, "aa")
        assert nfa_accepts(nfa, "bbb")
        assert nfa_accepts(nfa, "aabbb")
        assert not nfa_accepts(nfa, "a")
        assert not nfa_accepts(nfa, "ba")
        assert not nfa_accepts(nfa, "aabb")


class TestValidSecondComponents:
    def test_start_component_contains_empty_set(self):
        family = valid_second_components(witness_a(3), witness_b(3), 0)
        assert frozenset() in family

    def test_minimal_accepting_state_tracks_only_the_start(self):
        # chain for {"a"} catenated with the permutation automaton for (aa)*
        a = single_word_dfa("a", ("a",))
        b = unary_star_dfa(2)
        family = valid_second_components(a, b, 1)
        assert family == frozenset({frozenset({0})})

    def test_unreachable_state_has_empty_family(self):
        d = Dfa(("a",), ((0,), (1,)), 0, frozenset({1}))  # state 1 unreachable
        assert valid_second_components(d, unary_star_dfa(2), 1) == frozenset()

    def test_invalid_state(self):
        with pytest.raises(ValueError, match="out of range"):
            valid_second_components(witness_a(3), witness_b(3), 9)
