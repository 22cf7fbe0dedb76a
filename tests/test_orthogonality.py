import hashlib
from itertools import product

import pytest

from orthocat import (
    AcceptingCycleError,
    AccOrder,
    Dfa,
    Nfa,
    NotOrthogonalError,
    accepts,
    acc_order,
    build_catenation_nfa,
    determinize,
    check_acyclic_accepting,
    dead_states,
    enumerate_accepted,
    extend_alphabet,
    forbidden_second_component_states,
    is_orthogonal,
    is_permutation_automaton,
    merging_pairs,
    minimize,
    orthogonal_catenation,
    unary_star_dfa,
    witness_a,
    witness_b,
)
from orthocat.oracle import brute_force_orthogonal, factorization_count_table, factorizations

from conftest import dfa_pairs
from test_catenation import single_word_dfa

CYCLE_CORPUS_SEED = 0x0C1C_0006


def sigma_star_dfa(alphabet=("x",)) -> Dfa:
    k = len(alphabet)
    return Dfa(alphabet, ((0,) * k,), 0, frozenset({0}))


def epsilon_or_x_dfa() -> Dfa:
    """DFA for {ε, "x"}."""
    return Dfa(("x",), ((1,), (2,), (2,)), 0, frozenset({0, 1}))


class TestIsOrthogonal:
    def test_sigma_star_with_itself(self):
        verdict = is_orthogonal(sigma_star_dfa(), sigma_star_dfa())
        assert not verdict.orthogonal
        w = verdict.witness
        assert w.word == (0,)
        assert w.split1 == ((), (0,))
        assert w.split2 == ((0,), ())

    def test_unary_stars_on_distinct_letters(self):
        a = extend_alphabet(unary_star_dfa(2, "a"), ("a", "b"))
        b = extend_alphabet(unary_star_dfa(3, "b"), ("a", "b"))
        assert is_orthogonal(a, b).orthogonal

    def test_witness_pair(self):
        assert is_orthogonal(witness_a(3), witness_b(3)).orthogonal

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            is_orthogonal(unary_star_dfa(2, "a"), unary_star_dfa(2, "b"))

    def test_empty_language_is_vacuously_orthogonal(self):
        empty = Dfa(("x",), ((0,),), 0, frozenset())
        assert is_orthogonal(empty, sigma_star_dfa()).orthogonal
        assert is_orthogonal(sigma_star_dfa(), empty).orthogonal

    def test_not_symmetric(self):
        # {ε, a} · b a* is unambiguous, the reverse direction is not
        eps_or_a = Dfa(("a", "b"), ((1, 2), (2, 2), (2, 2)), 0, frozenset({0, 1}))
        b_then_as = Dfa(("a", "b"), ((2, 1), (1, 2), (2, 2)), 0, frozenset({1}))
        assert is_orthogonal(eps_or_a, b_then_as).orthogonal
        assert not is_orthogonal(b_then_as, eps_or_a).orthogonal

    def test_witness_is_sound(self, ortho_corpus):
        for a, b in ortho_corpus[:150]:
            verdict = is_orthogonal(a, b)
            if verdict.orthogonal:
                continue
            w = verdict.witness
            for u, v in (w.split1, w.split2):
                assert u + v == w.word
                assert accepts(a, u) and accepts(b, v)
            assert w.split1 != w.split2
            assert len(w.split1[0]) < len(w.split2[0])
            assert w.split1 in factorizations(a, b, w.word)
            assert w.split2 in factorizations(a, b, w.word)


class TestOrthogonalCatenation:
    def test_witness_pair_3_4(self):
        cat = orthogonal_catenation(witness_a(3), witness_b(4))
        assert minimize(cat.dfa).state_count == 20

    def test_undefined_for_ambiguous_pair(self):
        d = epsilon_or_x_dfa()
        with pytest.raises(NotOrthogonalError) as info:
            orthogonal_catenation(d, d)
        witness = info.value.witness
        assert witness.word == (0,)
        assert witness.split1 == ((), (0,))
        assert witness.split2 == ((0,), ())

    def test_single_word_languages(self):
        a = single_word_dfa("a", ("a", "b"))
        b = single_word_dfa("b", ("a", "b"))
        cat = orthogonal_catenation(a, b)
        assert enumerate_accepted(cat.dfa, 3) == [(0, 1)]


class TestAcyclicAccepting:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_witness_a_has_accepting_cycle(self, m):
        assert not check_acyclic_accepting(witness_a(m))

    def test_finite_language_chain(self):
        assert check_acyclic_accepting(single_word_dfa("ab", ("a", "b")))

    def test_sigma_star(self):
        assert not check_acyclic_accepting(sigma_star_dfa())


class TestAccOrder:
    def test_chain_language(self):
        # {"a", "aa"}: accepting states 1 and 2 along a single chain
        d = Dfa(("a",), ((1,), (2,), (3,), (3,)), 0, frozenset({1, 2}))
        assert acc_order(d) == AccOrder(frozenset({(1, 2)}))

    def test_single_accepting_acyclic(self):
        assert acc_order(single_word_dfa("ab", ("a", "b"))) == AccOrder(frozenset())

    def test_rejects_accepting_cycle(self):
        with pytest.raises(AcceptingCycleError) as info:
            acc_order(witness_a(3))
        assert info.value.state == 1
        assert len(info.value.cycle) >= 1

    def test_error_names_state_and_word(self):
        with pytest.raises(AcceptingCycleError, match="accepting state 0 returns to itself on x"):
            acc_order(sigma_star_dfa())


def brute_force_cycle(d: Dfa, f: int) -> tuple[int, ...] | None:
    """First nonempty word, shortest then lexicographic, taking f back to f;
    a shortest cycle is never longer than the state count."""
    for length in range(1, d.state_count + 1):
        for word in product(range(len(d.alphabet)), repeat=length):
            q = f
            for s in word:
                q = d.delta[q][s]
            if q == f:
                return word
    return None


def brute_force_reach(d: Dfa) -> list[set[int]]:
    """States reachable from each state on any word, by fixed-point iteration."""
    reach = [{q} for q in range(d.state_count)]
    changed = True
    while changed:
        changed = False
        for q, row in enumerate(d.delta):
            grown = reach[q].union(*(reach[t] for t in row))
            changed |= grown != reach[q]
            reach[q] = grown
    return reach


class TestAccOrderAgainstBruteForce:
    def test_cycle_word_is_shortest_then_lex(self):
        multi_letter_cycles = 0
        for d, _ in dfa_pairs(CYCLE_CORPUS_SEED, 1000, max_m=6, max_n=1, max_alphabet=3):
            for f in range(d.state_count):
                only_f = Dfa(d.alphabet, d.delta, d.start, frozenset({f}))
                expected = brute_force_cycle(d, f)
                assert check_acyclic_accepting(only_f) == (expected is None)
                if expected is None:
                    assert acc_order(only_f) == AccOrder(frozenset())
                    continue
                with pytest.raises(AcceptingCycleError) as info:
                    acc_order(only_f)
                assert (info.value.state, info.value.cycle) == (f, expected)
                multi_letter_cycles += len(expected) > 1
        assert multi_letter_cycles > 100

    def test_pairs_are_reachability_among_accepting_states(self):
        nonempty_orders = 0
        for d, _ in dfa_pairs(CYCLE_CORPUS_SEED + 1, 300, max_m=6, max_n=1, max_alphabet=3):
            reach = brute_force_reach(d)
            on_cycle = {q for q in range(d.state_count) if any(q in reach[t] for t in d.delta[q])}
            acyclic = frozenset(range(d.state_count)) - on_cycle
            for accepting in (d.accepting, acyclic):
                other = Dfa(d.alphabet, d.delta, d.start, accepting)
                cyclic = sorted(accepting & on_cycle)
                if cyclic:
                    with pytest.raises(AcceptingCycleError) as info:
                        acc_order(other)
                    assert info.value.state == cyclic[0]
                    continue
                expected = {(f, g) for f in accepting for g in reach[f] & accepting if g != f}
                assert acc_order(other).pairs == expected
                nonempty_orders += bool(expected)
        assert nonempty_orders > 20


class TestMergingPairs:
    def test_permutation_automaton_has_none(self):
        assert merging_pairs(unary_star_dfa(3)) == []

    def test_witness_b3_merges_on_b(self):
        assert (0, 2, 1) in merging_pairs(witness_b(3))

    def test_everything_to_zero(self):
        d = Dfa(("a", "b"), ((0, 0), (0, 0)), 0, frozenset())
        assert merging_pairs(d) == [(0, 1, 0), (0, 1, 1)]

    def test_empty_iff_permutation(self, ortho_corpus):
        for _, b in ortho_corpus[:200]:
            assert (merging_pairs(b) == []) == is_permutation_automaton(b)


class TestForbiddenSecondComponents:
    def test_dead_first_state_forbids_everything_unreached(self):
        a = witness_a(3)
        b = witness_b(3)
        family_union = set()
        from orthocat import valid_second_components

        for x in valid_second_components(a, b, 2):
            family_union |= x
        assert forbidden_second_component_states(a, b, 2) == (
            frozenset(range(3)) - family_union
        )

    def test_nonempty_for_permutation_pair(self):
        a = single_word_dfa("a", ("a",))
        b = unary_star_dfa(2)
        assert forbidden_second_component_states(a, b, 0)

    def test_invalid_state(self):
        with pytest.raises(ValueError, match="out of range"):
            forbidden_second_component_states(witness_a(3), witness_b(3), 77)


class TestStructuralFilters:
    """Structural consequences of orthogonality, sampled over the corpus.

    The claims need minimal automata (an unreachable accepting loop, or an
    unminimized trap region standing in for a dead state, breaks them while
    leaving the languages untouched), so each pair is minimized first.
    """

    def test_acyclic_accepting_filter(self, ortho_corpus):
        checked = 0
        for a, b in ortho_corpus[:400]:
            if not is_orthogonal(a, b).orthogonal:
                continue
            ma, mb = minimize(a), minimize(b)
            if dead_states(mb):
                continue
            checked += 1
            assert check_acyclic_accepting(ma)
        assert checked > 10

    def test_literal_filter_needs_minimality(self):
        # unreachable accepting self-loop: language empty, pair orthogonal,
        # dead-state-free second automaton — yet an accepting cycle exists
        a = Dfa(("x",), ((0,), (1,)), 0, frozenset({1}))
        b = sigma_star_dfa()
        assert is_orthogonal(a, b).orthogonal
        assert not dead_states(b)
        assert not check_acyclic_accepting(a)
        assert check_acyclic_accepting(minimize(a))


def _affix_dfa(word: str, alphabet: tuple[str, ...], prefixes: bool) -> Dfa:
    """All prefixes, or all suffixes, of ``word``; for a word of distinct
    letters, prefixes times suffixes first turns ambiguous at the word
    itself, which then factors len(word) + 1 ways."""
    positions = range(len(word) + 1)
    edges = [(i, alphabet.index(c), i + 1) for i, c in enumerate(word)]
    initial, accepting = ({0}, positions) if prefixes else (positions, {len(word)})
    return determinize(Nfa.from_edges(alphabet, len(word) + 1, initial, accepting, edges))


def _reversed_states(d: Dfa) -> Dfa:
    last = d.state_count - 1
    rows = tuple(tuple(last - t for t in row) for row in reversed(d.delta))
    return Dfa(d.alphabet, rows, last - d.start, frozenset(last - q for q in d.accepting))


def _witness_key(w):
    return None if w is None else (w.word, w.split1, w.split2)


def _nfa_key(n):
    cells = tuple(tuple(tuple(sorted(cell)) for cell in row) for row in n.delta)
    return n.alphabet, cells, sorted(n.initial), sorted(n.accepting)


class TestStagePinned:
    """Everything the orthogonality stage reports, hashed and pinned: the
    decision's word and both splits, the brute-force scan, the catenation
    NFA and the factorization counts. The digest was computed from the code
    before its NFA builder, ambiguity search and count tables were slimmed
    down, a rewrite that had to leave every one of these results alone."""

    def test_results_are_pinned(self, ortho_corpus):
        results = []
        # several splits at the shortest ambiguous word, so the two reported
        # depend on which product node the search meets first
        alphabet, words = ("a", "b", "c", "d"), ["ab", "abc", "bca", "abcd", "dcba", "abab", "aab"]
        affixes = [
            (number(_affix_dfa(u, alphabet, True)), number(_affix_dfa(v, alphabet, False)))
            for u, v in product(words, repeat=2)
            for number in (lambda d: d, _reversed_states)
        ]
        for a, b in [*ortho_corpus, *affixes, (witness_b(20), witness_a(20))]:
            results.append((
                _witness_key(is_orthogonal(a, b).witness),
                _witness_key(brute_force_orthogonal(a, b, 8)),
                _nfa_key(build_catenation_nfa(a, b)),
                [factorization_count_table(a, b, n).tolist() for n in (0, 3, 5)],
            ))
        # up to six states: the first ambiguous nodes of some of these pairs
        # come out in another order unsorted, with other splits
        wide = dfa_pairs(2, 1000, max_m=6, max_n=6)
        results += [_witness_key(is_orthogonal(a, b).witness) for a, b in wide]
        # alphabets that differ: disjoint unary ones, and corpus automata
        # over one, two or three letters crossed with each other
        mixed = [(unary_star_dfa(m, "a"), unary_star_dfa(n, "b")) for m in range(1, 5) for n in range(1, 5)]
        mixed += [(a, b) for (a, _), (_, b) in zip(ortho_corpus[:200], ortho_corpus[200:400])]
        results += [_nfa_key(build_catenation_nfa(a, b)) for a, b in mixed]
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        assert digest == "d3be07164415094072cce00f4bfba71a25ca276c18d8bb032137c06db67445ce"


class TestLongWitnessPinned:
    """The reversed (200, 200) witness pair's counterexample: the 397-letter
    word and both splits, hashed and pinned. The digest was computed with
    the search that expanded each diverged node and its mirror apart."""

    def test_word_and_splits_are_pinned(self):
        witness = is_orthogonal(witness_b(200), witness_a(200)).witness
        assert len(witness.word) == 397
        digest = hashlib.sha256(repr(_witness_key(witness)).encode()).hexdigest()
        assert digest == "990a92ed05d186a09585bb573780ae1cc9ba499c7006c2d9b8a3742ab177c749"
