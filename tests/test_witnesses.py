import pytest

from orthocat import (
    accepts,
    build_catenation_dfa,
    build_catenation_nfa,
    dead_states,
    determinize,
    enumerate_accepted,
    fooling_set_unary_catenation,
    is_orthogonal,
    is_permutation_automaton,
    minimize,
    orthogonal_upper_bound,
    unary_star_dfa,
    verify_fooling_set,
    witness_a,
    witness_b,
)

A, B, C, D = range(4)


class TestWitnessA:
    @pytest.mark.parametrize("m", [3, 4, 5, 7])
    def test_transcription(self, m):
        d = witness_a(m)
        assert d.alphabet == ("a", "b", "c", "d")
        assert d.start == 0
        assert d.accepting == frozenset({m - 2})
        dead = m - 1
        for i in range(m):
            for s in range(4):
                target = d.delta[i][s]
                if i == 0 and s == A:
                    assert target == 0
                elif i == m - 2 and s == C:
                    assert target == 0
                elif s == B and i <= m - 3:
                    assert target == i + 1
                elif s == D and i <= m - 4:
                    assert target == i + 1
                elif s == D and i == m - 2:
                    assert target == 0
                else:
                    assert target == dead

    def test_m3_d_from_0_is_dead(self):
        assert witness_a(3).delta[0][D] == 2

    def test_m4_accepts_bb(self):
        assert accepts(witness_a(4), "bb")

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_rejects_words_ending_in_d(self, m):
        for word in enumerate_accepted(witness_a(m), 6):
            assert not word or word[-1] != D

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            witness_a(2)


class TestWitnessB:
    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_transcription(self, n):
        d = witness_b(n)
        assert d.alphabet == ("a", "b", "c", "d")
        assert d.start == 0
        assert d.accepting == frozenset({1})
        dead = n - 1
        for i in range(n):
            for s in range(4):
                target = d.delta[i][s]
                if s == A and 1 <= i <= n - 3:
                    assert target == i + 1
                elif s == A and i == n - 2:
                    assert target == 1
                elif s == B and 1 <= i <= n - 2:
                    assert target == i
                elif s == C and 2 <= i <= n - 2:
                    assert target == i
                elif s == C and i == 0:
                    assert target == 1
                elif s == D and i <= n - 2:
                    assert target == i
                else:
                    assert target == dead

    def test_accepts_c_and_dca(self):
        assert accepts(witness_b(3), "c")
        assert accepts(witness_b(3), "dca")

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_rejects_a(self, n):
        assert not accepts(witness_b(n), "a")

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_dead_state(self, n):
        assert dead_states(witness_b(n)) == frozenset({n - 1})

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            witness_b(2)


class TestFamiliesAreMinimalAndOrthogonal:
    @pytest.mark.parametrize("k", range(3, 9))
    def test_minimal(self, k):
        assert minimize(witness_a(k)).state_count == k
        assert minimize(witness_b(k)).state_count == k

    @pytest.mark.parametrize("m,n", [(3, 3), (3, 5), (5, 3), (4, 4)])
    def test_orthogonal(self, m, n):
        assert is_orthogonal(witness_a(m), witness_b(n)).orthogonal

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (3, 4), (5, 4)])
    def test_catenation_hits_the_bound(self, m, n):
        cat = build_catenation_dfa(witness_a(m), witness_b(n))
        assert minimize(cat.dfa).state_count == orthogonal_upper_bound(m, n)


class TestUnaryStar:
    def test_single_state_accepts_everything(self):
        d = unary_star_dfa(1)
        assert all(accepts(d, (0,) * i) for i in range(6))

    def test_length_multiples_of_three(self):
        d = unary_star_dfa(3)
        expected = {0, 3, 6}
        for i in range(8):
            assert accepts(d, (0,) * i) == (i in expected)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_permutation(self, k):
        assert is_permutation_automaton(unary_star_dfa(k))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            unary_star_dfa(0)


class TestFoolingSets:
    def test_pairs_for_2_2(self):
        a, b = 0, 1
        assert fooling_set_unary_catenation(2, 2) == [
            ((), (a, a, b, b)),
            ((a,), (a, b, b)),
            ((a, a, b), (b,)),
            ((a, a, b, b), ()),
        ]

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 0)])
    def test_rejects_empty_factor(self, m, n):
        with pytest.raises(ValueError, match="needs m, n >= 1"):
            fooling_set_unary_catenation(m, n)

    def test_pairs_for_1_1(self):
        assert fooling_set_unary_catenation(1, 1) == [((), (0, 1)), ((0, 1), ())]

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 2), (5, 5)])
    def test_size_is_m_plus_n(self, m, n):
        assert len(fooling_set_unary_catenation(m, n)) == m + n

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 5), (4, 1)])
    def test_certified_against_language_dfa(self, m, n):
        nfa = build_catenation_nfa(unary_star_dfa(m, "a"), unary_star_dfa(n, "b"))
        lang = minimize(determinize(nfa))
        result = verify_fooling_set(lang, fooling_set_unary_catenation(m, n))
        assert result.ok and result.size == m + n
