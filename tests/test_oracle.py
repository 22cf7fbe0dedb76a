from itertools import product

import pytest

from orthocat import (
    Dfa,
    build_catenation_dfa,
    minimize,
    residual_count,
    unary_star_dfa,
    verify_fooling_set,
    witness_a,
    witness_b,
    fooling_set_unary_catenation,
    build_catenation_nfa,
    determinize,
)
from orthocat.oracle import (
    acceptance_table,
    brute_force_orthogonal,
    factorization_count_table,
    factorizations,
)

from test_orthogonality import epsilon_or_x_dfa, sigma_star_dfa


class TestFactorizations:
    def test_sigma_star_pair(self):
        d = sigma_star_dfa()
        assert factorizations(d, d, "x") == [((), (0,)), ((0,), ())]

    def test_witness_pair_bc_splits_once(self):
        assert factorizations(witness_a(3), witness_b(3), "bc") == [((1,), (2,))]

    def test_word_outside_the_product(self):
        assert factorizations(witness_a(3), witness_b(3), "a") == []

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            factorizations(unary_star_dfa(1, "a"), unary_star_dfa(1, "b"), ())


class TestBruteForceOrthogonal:
    def test_finds_shortest_witness(self):
        d = epsilon_or_x_dfa()
        w = brute_force_orthogonal(d, d, 1)
        assert w is not None
        assert w.word == (0,)
        assert w.split1 == ((), (0,))

    def test_witness_pair_clean_to_twelve(self):
        assert brute_force_orthogonal(witness_a(3), witness_b(3), 12) is None

    def test_empty_language_never_violates(self):
        empty = Dfa(("x",), ((0,),), 0, frozenset())
        assert brute_force_orthogonal(empty, sigma_star_dfa(), 8) is None

    def test_agrees_with_per_word_counts(self, ortho_corpus):
        for a, b in ortho_corpus[:40]:
            k = len(a.alphabet)
            ambiguous = None
            for length in range(7):
                for w in product(range(k), repeat=length):
                    if len(factorizations(a, b, w)) >= 2:
                        ambiguous = w
                        break
                if ambiguous is not None:
                    break
            found = brute_force_orthogonal(a, b, 6)
            if ambiguous is None:
                assert found is None
            else:
                assert found is not None and found.word == ambiguous


class TestCountTables:
    def test_matches_per_word_factorizations(self, ortho_corpus):
        for a, b in ortho_corpus[:15]:
            k = len(a.alphabet)
            for length in range(5):
                table = factorization_count_table(a, b, length)
                direct = [
                    len(factorizations(a, b, w)) for w in product(range(k), repeat=length)
                ]
                assert list(table) == direct

    def test_counts_do_not_wrap(self):
        # every split point of a^32767 counts; a 16-bit signed count wrapped
        a = Dfa(("a",), ((0,),), 0, frozenset({0}))
        assert factorization_count_table(a, a, 32767).tolist() == [32768]

    def test_acceptance_table_matches_accepts(self, ortho_corpus):
        from orthocat import accepts

        for a, _ in ortho_corpus[:15]:
            k = len(a.alphabet)
            for length in range(5):
                flags = acceptance_table(a, length)
                direct = [accepts(a, w) for w in product(range(k), repeat=length)]
                assert list(flags) == direct


    @pytest.mark.parametrize(
        "call",
        [
            lambda d: brute_force_orthogonal(d, d, -1),
            lambda d: factorization_count_table(d, d, -1),
            lambda d: acceptance_table(d, -1),
        ],
        ids=["brute_force_orthogonal", "factorization_count_table", "acceptance_table"],
    )
    def test_negative_length_is_refused(self, call):
        with pytest.raises(ValueError, match="must be non-negative"):
            call(witness_a(3))


class TestResidualCount:
    def test_unary_cycle(self):
        assert residual_count(unary_star_dfa(3)) == 3

    def test_witness_a3(self):
        assert residual_count(witness_a(3)) == 3

    def test_minimal_catenation_of_the_witness_pair(self):
        cat = build_catenation_dfa(witness_a(3), witness_b(3))
        assert residual_count(minimize(cat.dfa)) == 10

    def test_matches_minimize_on_corpus(self, residual_corpus):
        for d in residual_corpus:
            assert residual_count(d) == minimize(d).state_count


class TestVerifyFoolingSet:
    def lang_2_2(self) -> Dfa:
        nfa = build_catenation_nfa(unary_star_dfa(2, "a"), unary_star_dfa(2, "b"))
        return minimize(determinize(nfa))

    def test_certifies_the_unary_family(self):
        result = verify_fooling_set(self.lang_2_2(), fooling_set_unary_catenation(2, 2))
        assert result.ok and result.size == 4 and result.offending is None

    def test_duplicate_entry_fails_cross_condition(self):
        pairs = fooling_set_unary_catenation(2, 2)
        pairs.append(pairs[0])
        result = verify_fooling_set(self.lang_2_2(), pairs)
        assert not result.ok
        assert result.offending == (0, 4)
        assert "cross products" in result.reason

    def test_rejected_diagonal_word(self):
        pairs = [((0,), (0,))]  # "aa" is fine; "ab" would not be... use a bad one
        bad = [((1,), (0,))]  # "ba" is not in (aa)*(bb)*
        result = verify_fooling_set(self.lang_2_2(), bad)
        assert not result.ok and result.offending == (0, 0)

    def test_empty_set_certifies_zero(self):
        result = verify_fooling_set(self.lang_2_2(), [])
        assert result.ok and result.size == 0

    def test_never_exceeds_known_nfa_size(self):
        for m, n in [(1, 2), (3, 3), (2, 5)]:
            nfa = build_catenation_nfa(unary_star_dfa(m, "a"), unary_star_dfa(n, "b"))
            lang = minimize(determinize(nfa))
            result = verify_fooling_set(lang, fooling_set_unary_catenation(m, n))
            assert result.ok and result.size <= nfa.state_count
