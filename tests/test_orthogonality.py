import hashlib
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
import orthocat.core
import orthocat.orthogonality
from orthocat.core import _DENSE_MIN_QUEUE
from orthocat.oracle import brute_force_orthogonal, factorization_count_table, factorizations

from conftest import dfa_pairs
from test_catenation import single_word_dfa

CYCLE_CORPUS_SEED = 0x0C1C_0006
WIDE_PAIRS_SEED = 0x0D15_0036

# handover thresholds for the search: the numpy route from the first level,
# after a few narrow levels, from the first level wider than the default,
# and never
QUEUE_LIMITS = (0, 4, _DENSE_MIN_QUEUE, 10**9)
# handover thresholds that leave the loop's frontier at many depths
HANDOVER_LIMITS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, _DENSE_MIN_QUEUE)


def _handover_above(limit):
    """Make ``is_orthogonal`` take the numpy route once a level holds more
    than ``limit`` nodes."""
    return patch.object(orthocat.orthogonality, "_DENSE_MIN_QUEUE", limit)


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

    def test_verdict_is_truthy_iff_orthogonal(self):
        assert is_orthogonal(witness_a(3), witness_b(3))
        assert not is_orthogonal(witness_b(3), witness_a(3))

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

    def test_state_must_be_an_integer(self):
        a, b = witness_a(3), witness_b(3)
        with pytest.raises(TypeError):
            forbidden_second_component_states(a, b, 1.0)
        assert forbidden_second_component_states(a, b, np.int64(1)) == (
            forbidden_second_component_states(a, b, 1)
        )


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
        for limit in QUEUE_LIMITS:
            with _handover_above(limit):
                digest = self._digest(ortho_corpus)
            assert digest == "d3be07164415094072cce00f4bfba71a25ca276c18d8bb032137c06db67445ce", limit

    def _digest(self, ortho_corpus):
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
        return hashlib.sha256(repr(results).encode()).hexdigest()


class TestLongWitnessPinned:
    """The reversed (200, 200) witness pair's counterexample: the 397-letter
    word and both splits, hashed and pinned. The digest was computed with
    the search that expanded each diverged node and its mirror apart."""

    def test_word_and_splits_are_pinned(self):
        for limit in QUEUE_LIMITS:
            with _handover_above(limit):
                witness = is_orthogonal(witness_b(200), witness_a(200)).witness
            assert len(witness.word) == 397
            digest = hashlib.sha256(repr(_witness_key(witness)).encode()).hexdigest()
            assert digest == "990a92ed05d186a09585bb573780ae1cc9ba499c7006c2d9b8a3742ab177c749", limit


class TestDenseRoute:
    """The numpy route that takes over wide searches from the loop's
    frontier, against the Python loop alone."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_same_witness_at_every_handover(self, seed):
        pairs = dfa_pairs(seed, 20, max_m=6, max_n=6)
        results = []
        for limit in QUEUE_LIMITS:
            with _handover_above(limit):
                results.append([_witness_key(is_orthogonal(a, b).witness) for a, b in pairs])
        assert all(r == results[0] for r in results[1:])

    def test_same_witness_on_wider_pairs(self):
        # up to 30 states: levels of up to 101 nodes, up to 9 hits in the
        # last level and up to 14 nodes of one level on a path to a hit; the
        # numpy route takes over the loop's frontier at many depths
        pairs = dfa_pairs(WIDE_PAIRS_SEED, 50, max_m=30, max_n=30)
        pairs.append((witness_b(40), witness_a(40)))
        with _handover_above(10**9):
            expected = [_witness_key(is_orthogonal(a, b).witness) for a, b in pairs]
        assert sum(w is not None for w in expected) > 10
        for limit in HANDOVER_LIMITS:
            with _handover_above(limit):
                got = [_witness_key(is_orthogonal(a, b).witness) for a, b in pairs]
            assert got == expected, limit

    def test_least_parent_of_each_node(self):
        # aaa factors as ε·aaa, a·aa and aaa·ε; the first two runs meet in
        # b's looping state, so the prefix aa reaches two product nodes that
        # step to the hit, and the least of them fixes the splits
        a = Dfa(("a",), ((1,), (2,), (3,), (4,), (4,)), 0, {0, 1, 3})
        b = Dfa(("a",), ((1,), (2,), (2,)), 0, {0, 2})
        for limit in QUEUE_LIMITS:
            with _handover_above(limit):
                witness = is_orthogonal(a, b).witness
            assert _witness_key(witness) == ((0, 0, 0), ((0,), (0, 0)), ((0, 0, 0), ())), limit

    @pytest.mark.parametrize("m", [40, 200])
    def test_wide_witness_searches_take_it(self, m, monkeypatch):
        pairs = [(witness_a(m), witness_b(m)), (witness_b(m), witness_a(m))]
        with _handover_above(10**9):
            expected = [_witness_key(is_orthogonal(a, b).witness) for a, b in pairs]
        handovers = []
        dense = orthocat.orthogonality._dense_search

        def spy(succ, acc, bits, parents, frontier, depth):
            # the loop's levels so far, counted from the parent links before
            # the loop goes on and adds to them
            levels = {}
            for node, edge in parents.items():
                levels[node] = 0 if edge is None else levels[edge[0]] + 1
            widths = [0] * (depth + 1)
            for d in levels.values():
                widths[d] += 1
            handovers.append((widths, sum(map(len, frontier))))
            return dense(succ, acc, bits, parents, frontier, depth)

        monkeypatch.setattr(orthocat.orthogonality, "_dense_search", spy)
        assert expected[0] is None and expected[1] is not None
        assert [_witness_key(is_orthogonal(a, b).witness) for a, b in pairs] == expected
        assert len(handovers) == (2 if m == 200 else 1)  # (a40, b40) stays narrow
        for widths, width in handovers:
            # handed over at the first level wider than the default, whole
            assert width == widths[-1] > _DENSE_MIN_QUEUE
            assert max(widths[:-1]) <= _DENSE_MIN_QUEUE

    def test_no_level_is_expanded_twice(self, monkeypatch):
        # the loop expands the levels before its frontier and the numpy route
        # those from the frontier to the hit level, so together they expand
        # the same nodes wherever the loop hands over
        dense, flatnonzero, expanded = orthocat.orthogonality._dense_search, np.flatnonzero, []

        def spy(succ, acc, bits, parents, frontier, depth):
            expanded.append(len(parents) - sum(map(len, frontier)))

            def counted(unseen):  # one numpy step: a row of candidates a node
                expanded.append(len(unseen))
                return flatnonzero(unseen)

            with monkeypatch.context() as m:
                m.setattr(np, "flatnonzero", counted)
                return dense(succ, acc, bits, parents, frontier, depth)

        monkeypatch.setattr(orthocat.orthogonality, "_dense_search", spy)
        totals = set()
        for limit in HANDOVER_LIMITS:
            expanded.clear()
            with _handover_above(limit):
                is_orthogonal(witness_b(40), witness_a(40))
            assert len(expanded) > 1, limit
            totals.add(sum(expanded))
        assert len(totals) == 1

    def test_witness_read_admits_one_path(self, monkeypatch):
        # the numpy route leads the loop's witness read to the nodes on
        # shortest paths to a hit: here one node a level
        dense, admitted = orthocat.orthogonality._dense_search, []

        def spy(*args):
            keep = dense(*args)

            def counted(node, depth):
                admits = keep(node, depth)
                if admits:
                    admitted.append(node)
                return admits

            return keep and counted

        monkeypatch.setattr(orthocat.orthogonality, "_dense_search", spy)
        with _handover_above(0):
            witness = is_orthogonal(witness_b(200), witness_a(200)).witness
        assert len(witness.word) == 397
        assert 0 < len(admitted) <= len(witness.word) + 1

    def test_witness_does_not_depend_on_successor_order(self, monkeypatch):
        # the wide pairs of the pinned digest: the loop's first hits of a few
        # of them come out in another order if ``fresh`` goes unsorted
        pairs = dfa_pairs(2, 1000, max_m=6, max_n=6)
        pairs += [(witness_b(40), witness_a(40)), (witness_b(200), witness_a(200))]

        def witnesses():
            keys = []
            for limit in QUEUE_LIMITS:
                with _handover_above(limit):
                    keys.append([_witness_key(is_orthogonal(a, b).witness) for a, b in pairs])
            return keys

        expected = witnesses()
        build, turned = orthocat.orthogonality.build_catenation_nfa, []

        def reversed_cells(a, b):
            # each cell a tuple, largest successor first; a frozenset yields
            # its members in hash-slot order, not sorted, so ``turned`` counts
            # the cells that this order reads otherwise than the frozenset does
            nfa = build(a, b)
            delta = tuple(tuple(tuple(sorted(c, reverse=True)) for c in row) for row in nfa.delta)
            turned.extend(
                c
                for row, built in zip(delta, nfa.delta)
                for c, cell in zip(row, built)
                if c != tuple(cell)
            )
            object.__setattr__(nfa, "delta", delta)  # past Nfa's own freezing of the cells
            return nfa

        monkeypatch.setattr(orthocat.orthogonality, "build_catenation_nfa", reversed_cells)
        assert witnesses() == expected
        assert turned and sum(w is not None for w in expected[0]) > 50

    def test_not_taken_past_the_budget(self, monkeypatch):
        pair = witness_b(200), witness_a(200)
        expected = _witness_key(is_orthogonal(*pair).witness)
        monkeypatch.setattr(orthocat.core, "_MAX_CELLS", 1)
        monkeypatch.setattr(orthocat.orthogonality, "_dense_search", None)  # a call would fail
        assert _witness_key(is_orthogonal(*pair).witness) == expected
