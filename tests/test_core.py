import hashlib
from dataclasses import FrozenInstanceError
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthocat import (
    Dfa,
    Nfa,
    accepts,
    build_catenation_dfa,
    dead_states,
    determinize,
    enumerate_accepted,
    extend_alphabet,
    format_word,
    is_permutation_automaton,
    language_equivalent,
    minimize,
    nfa_accepts,
    parse_word,
    reachable_states,
    state_equivalent,
    unary_star_dfa,
    witness_a,
    witness_b,
)
import orthocat.core
from orthocat.core import (
    _DENSE_MIN_QUEUE,
    _moore_loop,
    _moore_vector,
)
from orthocat.fileformat import serialize_automaton
from orthocat.oracle import acceptance_table, residual_count
from orthocat.randgen import random_dfa, splitmix64_stream

from conftest import dfa_pairs, dfa_strategy, product_walk_agrees, random_nfas, NFA_CORPUS_SEED


def two_sink_dfa() -> Dfa:
    # start can reach two distinct all-self-loop reject sinks
    return Dfa(
        alphabet=("a", "b"),
        delta=((1, 2), (1, 1), (2, 2)),
        start=0,
        accepting=frozenset({0}),
    )


class TestWords:
    def test_parse_word(self):
        assert parse_word(("a", "b"), "abba") == (0, 1, 1, 0)
        assert parse_word(("a",), "") == ()

    def test_parse_word_rejects_unknown(self):
        with pytest.raises(ValueError, match="not in alphabet"):
            parse_word(("a", "b"), "abc")

    def test_format_word(self):
        assert format_word(("a", "b"), (1, 0)) == "ba"
        assert format_word(("a",), ()) == "ε"
        assert format_word(("sym1", "sym2"), (0, 1)) == "sym1 sym2"

    @pytest.mark.parametrize("word", [(-1, 0), (2,)], ids=["negative", "past-the-end"])
    def test_format_word_rejects_bad_index(self, word):
        with pytest.raises(ValueError, match="out of range for alphabet size 2"):
            format_word(("a", "b"), word)

    def test_format_word_rejects_float_index(self):
        with pytest.raises(TypeError):
            format_word(("a", "b"), (0.0,))


class TestConstruction:
    def test_rejects_zero_states(self):
        with pytest.raises(ValueError, match="at least one state"):
            Dfa(("a",), (), 0, frozenset())

    def test_rejects_incomplete_row(self):
        with pytest.raises(ValueError, match="expected 2 transitions"):
            Dfa(("a", "b"), ((0,),), 0, frozenset())

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="invalid state"):
            Dfa(("a",), ((3,),), 0, frozenset())

    def test_rejects_bad_start_and_accepting(self):
        with pytest.raises(ValueError, match="start state"):
            Dfa(("a",), ((0,),), 2, frozenset())
        with pytest.raises(ValueError, match="accepting state"):
            Dfa(("a",), ((0,),), 0, frozenset({5}))

    def test_rejects_duplicate_symbols(self):
        with pytest.raises(ValueError, match="distinct"):
            Dfa(("a", "a"), ((0, 0),), 0, frozenset())

    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValueError, match="alphabet must not be empty"):
            Dfa((), ((),), 0, ())

    def test_value_semantics(self):
        assert witness_a(3) == witness_a(3)
        assert hash(witness_a(4)) == hash(witness_a(4))

    def test_frozen(self):
        d = witness_a(3)
        with pytest.raises(FrozenInstanceError, match="assign"):
            d.start = 1
        with pytest.raises(FrozenInstanceError, match="delete"):
            del d.delta
        assert d == witness_a(3)


class TestAccepts:
    def test_witness_a_accepts_b(self):
        assert accepts(witness_a(3), "b")

    def test_empty_word_at_accepting_start(self):
        d = Dfa(("x",), ((0,),), 0, frozenset({0}))
        assert accepts(d, "")

    def test_witness_b_accepts_dc(self):
        assert accepts(witness_b(3), "dc")

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            accepts(witness_a(3), (0, 7))

    def test_symbols_must_be_integers(self):
        with pytest.raises(TypeError):
            witness_a(3).word((0.0, 1.0))
        with pytest.raises(TypeError):
            accepts(witness_a(3), (0.5,))
        # no initial states: the word is checked although no state reads it
        n = Nfa(("a",), ((frozenset(),),), frozenset(), frozenset())
        with pytest.raises(TypeError):
            nfa_accepts(n, (0.5,))

    def test_numpy_integer_symbols_become_ints(self):
        word = witness_a(3).word((np.int64(1), np.uint8(0), True))
        assert word == (1, 0, 1) and all(s.__class__ is int for s in word)
        assert accepts(witness_a(3), (np.int32(1),))


class TestReachability:
    def test_witness_a4_all_reachable(self):
        assert reachable_states(witness_a(4)) == frozenset({0, 1, 2, 3})

    def test_self_loop_start(self):
        d = Dfa(("a", "b"), ((0, 0), (0, 0)), 0, frozenset())
        assert reachable_states(d) == frozenset({0})

    def test_everything_to_state_zero(self):
        d = Dfa(("a",), ((0,), (0,)), 0, frozenset())
        assert reachable_states(d) == frozenset({0})


class TestDeadStates:
    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_witness_a_dead(self, m):
        assert dead_states(witness_a(m)) == frozenset({m - 1})

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_witness_b_dead(self, n):
        assert dead_states(witness_b(n)) == frozenset({n - 1})

    def test_unary_star_has_none(self):
        assert dead_states(unary_star_dfa(2)) == frozenset()

    def test_dead_state_accepts_nothing(self):
        # from a dead state, every walk up to state_count steps stays rejecting
        for a, _ in dfa_pairs(0xDEAD01, 40, max_m=5, max_n=2):
            for q in dead_states(a):
                from_q = Dfa(a.alphabet, a.delta, q, a.accepting)
                assert enumerate_accepted(from_q, a.state_count) == []


class TestStateEquivalence:
    def test_reflexive(self):
        d = witness_b(4)
        assert all(state_equivalent(d, q, q) for q in range(d.state_count))

    def test_two_sinks_equivalent(self):
        assert state_equivalent(two_sink_dfa(), 1, 2)

    def test_witness_b_start_vs_accepting(self):
        assert not state_equivalent(witness_b(3), 0, 1)

    def test_invalid_index(self):
        with pytest.raises(ValueError, match="out of range"):
            state_equivalent(witness_b(3), 0, 9)

    def test_integer_arguments(self):
        d = two_sink_dfa()
        for q1, q2 in ((0.0, 1), (1, 2.0), (0.5, 1), (1.0, 1)):
            with pytest.raises(TypeError):
                state_equivalent(d, q1, q2)
        assert state_equivalent(d, np.int64(1), np.uint8(2))
        assert not state_equivalent(d, np.int32(0), np.int64(1))
        assert state_equivalent(d, True, 2) and not state_equivalent(d, False, True)

    def test_numpy_step_makes_the_flags_once(self):
        d = two_sink_dfa()
        assert "_flags" not in vars(d)
        assert state_equivalent(d, 1, 2)
        flags = vars(d)["_flags"]
        assert not state_equivalent(d, 0, 1)
        assert vars(d)["_flags"] is flags

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 150),
        st.integers(1, 3),
        st.integers(1, 3),
        st.booleans(),
        st.integers(0, 2**64 - 1),
    )
    def test_matches_product_walk(self, n, k, copies, table, seed):
        # copies of each state make equivalent pairs, which random automata
        # of more than a few states hardly have; some states are unreachable
        d = inflated(random_dfa(max(1, n // copies), k, 0.5, seed), copies, seed)
        pairs = list(combinations(range(d.state_count), 2))
        agree = [product_walk_agrees(d, p, d, q) for p, q in pairs]
        d = as_table(d) if table else d
        # each verdict runs a whole refinement: check about 100 equivalent
        # and 100 inequivalent pairs, strided through each kind
        for same in (True, False):
            kind = [pair for pair, a in zip(pairs, agree) if a is same]
            for p, q in kind[:: len(kind) // 100 + 1]:
                assert state_equivalent(d, p, q) is same


class TestMinimize:
    def test_witness_b3_already_minimal(self):
        small = minimize(witness_b(3))
        assert small.state_count == residual_count(witness_b(3)) == 3
        assert language_equivalent(small, witness_b(3))

    def test_merges_duplicate_sink(self):
        d = two_sink_dfa()
        assert minimize(d).state_count == d.state_count - 1

    @settings(max_examples=60, deadline=None)
    @given(dfa_strategy())
    def test_idempotent(self, d):
        once = minimize(d)
        assert minimize(once) == once

    @settings(max_examples=60, deadline=None)
    @given(dfa_strategy())
    def test_minimal_states_reachable_and_inequivalent(self, d):
        small = minimize(d)
        assert small.state_count <= d.state_count
        assert reachable_states(small) == frozenset(range(small.state_count))
        assert len(set(loop_blocks(small))) == small.state_count

    def test_preserves_membership_up_to_length_8(self):
        for d, _ in dfa_pairs(0x3141_0001, 30, max_m=5, max_n=1):
            small = minimize(d)
            for length in range(9):
                assert (acceptance_table(d, length) == acceptance_table(small, length)).all()


def same_partition(x, y) -> bool:
    """The two block-id lists put exactly the same states together."""
    return len(set(zip(x, y))) == len(set(x)) == len(set(y))


def vector_blocks(d: Dfa) -> list[int]:
    """``_moore_vector``'s block ids for all states of ``d``."""
    return _moore_vector(d._table, d._flags)[0].tolist()


def loop_blocks(d: Dfa) -> list[int]:
    """``_moore_loop``'s block ids for all states of ``d``."""
    return _moore_loop(d.delta, d._flags.tolist())


def unary_lasso(n: int, tail: int, accepting_mask: int) -> Dfa:
    """The path 0 -> 1 -> ... -> n-1 closed by a back edge to ``tail``."""
    delta = tuple((q + 1,) for q in range(n - 1)) + ((tail,),)
    accepting = frozenset(q for q in range(n) if accepting_mask >> q & 1)
    return Dfa(("a",), delta, 0, accepting)


def large_catenation(seed: int, k: int) -> Dfa:
    """The first catenation DFA of at least the vector threshold's size
    drawn from the seed's stream: unary lassos for k = 1 (their catenations
    are long paths only rarely), random pairs otherwise."""
    draws = splitmix64_stream(seed)
    while True:
        m, n = 8 + next(draws) % 7, 8 + next(draws) % 7
        if k == 1:
            a = unary_lasso(m, next(draws) % m, next(draws))
            b = unary_lasso(n, next(draws) % n, next(draws))
        else:
            a = random_dfa(m % 6 + 3, k, 0.5, next(draws))
            b = random_dfa(n % 4 + 4, k, 0.5, next(draws))
        d = build_catenation_dfa(a, b).dfa
        if d.state_count >= _DENSE_MIN_QUEUE:
            return d


class TestMooreRoutes:
    """The numpy refinement against the dict loop, its reference."""

    def test_vector_and_loop_induce_the_same_equivalence(self):
        draws = splitmix64_stream(0x3141_0002)
        with_unreachable = 0
        for _ in range(240):
            n = 1 + next(draws) % 300
            k = 1 + next(draws) % 4
            prob = (0.0, 0.25, 0.5, 0.75, 1.0)[next(draws) % 5]
            d = random_dfa(n, k, prob, next(draws))
            with_unreachable += len(reachable_states(d)) < n
            assert same_partition(vector_blocks(d), loop_blocks(d))
        assert with_unreachable >= 120
        # state counts where the bits of n - 1 change, up to nine letters, and
        # single-block starts (no state, or every state, accepting)
        for n in (64, 127, 128, 129, 255, 256, 257, 511):
            for k in range(1, 10):
                for prob in (0.0, 0.5, 1.0):
                    d = random_dfa(n, k, prob, next(draws))
                    assert same_partition(vector_blocks(d), loop_blocks(d))

    def test_dispatch_by_size(self, monkeypatch):
        routes = []
        for name in ("_minimize_loop", "_minimize_table"):
            route = getattr(orthocat.core, name)
            spy = lambda d, name=name, route=route: routes.append(name) or route(d)
            monkeypatch.setattr(orthocat.core, name, spy)
        # a cycle with one accepting state is minimal
        for n in (_DENSE_MIN_QUEUE - 1, _DENSE_MIN_QUEUE):
            assert minimize(unary_lasso(n, 0, 1)).state_count == n
        assert routes == ["_minimize_loop", "_minimize_table"]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_large_unary_catenation_matches_residual_count(self, seed):
        d = large_catenation(seed, 1)
        small = minimize(d)
        assert small.state_count == residual_count(d)
        assert language_equivalent(small, d)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(2, 3))
    def test_large_catenation_matches_loop_reference(self, seed, k):
        # residual_count's acceptance vectors reach k**state_count bits, so
        # beyond one letter the loop's classes over reachable states count.
        d = large_catenation(seed, k)
        small = minimize(d)
        blocks = loop_blocks(d)
        assert small.state_count == len({blocks[q] for q in reachable_states(d)})
        assert language_equivalent(small, d)

    def test_canonical_witness_output_is_pinned(self):
        d = minimize(build_catenation_dfa(witness_a(6), witness_b(8)).dfa)
        digest = hashlib.sha256(serialize_automaton(d).encode()).hexdigest()
        assert digest == "b82f01acc517db8ba6498123ba31a51efc3c23a5516fde043ef595adbc5529a6"


def inflated(d: Dfa, copies: int, seed: int) -> Dfa:
    """The language of ``d`` with ``copies`` copies of each state, every
    transition going to a drawn copy of its target, states shuffled. Not
    minimal for ``copies > 1``, so a state of ``d`` pairs with several of
    its states in the product."""
    draws = splitmix64_stream(seed)
    n = d.state_count
    perm = sorted(range(n * copies), key=lambda _: next(draws))

    def copy(q: int) -> int:
        return perm[next(draws) % copies * n + q]

    rows = [()] * (n * copies)
    for c in range(copies):
        for q, row in enumerate(d.delta):
            rows[perm[c * n + q]] = tuple(map(copy, row))
    accepting = {perm[c * n + q] for c in range(copies) for q in d.accepting}
    return Dfa(d.alphabet, rows, copy(d.start), accepting)


def head_and_tail(head: int, tail: int, seed: int) -> Dfa:
    """A two-letter automaton whose states ``0..head-1`` have seeded random
    targets among themselves, except that state 0's second letter enters a
    chain of ``tail`` states. Both letters step along the chain, and its last
    state loops. It accepts the chain's last state and every third head
    state."""
    draws = splitmix64_stream(seed)
    rows = [(next(draws) % head, next(draws) % head) for _ in range(head)]
    rows[0] = (rows[0][0], head)
    rows += [(q + 1, q + 1) for q in range(head, head + tail - 1)]
    rows.append((head + tail - 1,) * 2)
    return Dfa(("a", "b"), rows, 0, {*range(0, head, 3), head + tail - 1})


def as_table(d: Dfa) -> Dfa:
    return Dfa(d.alphabet, np.array(d.delta), d.start, d.accepting)


class TestLanguageEquivalence:
    def test_self(self):
        d = witness_a(4)
        assert language_equivalent(d, d)

    def test_minimization_preserves_language(self):
        assert language_equivalent(witness_a(3), minimize(witness_a(3)))

    def test_witnesses_differ(self):
        assert not language_equivalent(witness_a(3), witness_b(3))

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            language_equivalent(unary_star_dfa(2, "a"), unary_star_dfa(2, "b"))

    def test_matches_bounded_enumeration_exactly(self):
        # equality holds iff enumerations agree up to the sum of state counts
        for a, b in dfa_pairs(0x3141_0002, 60, max_m=4, max_n=4):
            bound = a.state_count + b.state_count
            same = enumerate_accepted(a, bound) == enumerate_accepted(b, bound)
            assert language_equivalent(a, b) == same

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 100),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from(["inflated", "flipped", "other"]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**64 - 1),
    )
    @example(64, 2, 1, "inflated", True, True, 1)
    @example(63, 2, 2, "inflated", False, True, 2)
    @example(70, 3, 3, "flipped", True, False, 3)
    def test_walk_levels_and_minimize_agree(self, n, k, copies, kind, table1, table2, seed):
        d1 = random_dfa(n, k, 0.5, seed)
        if kind == "other":
            d2 = random_dfa(1 + seed % 100, k, 0.5, seed >> 1)
        else:
            d2 = inflated(d1, copies, seed)
        if kind == "flipped":
            d2 = Dfa(d2.alphabet, d2.delta, d2.start, d2.accepting ^ {seed % d2.state_count})
        d1, d2 = (as_table(d) if t else d for d, t in ((d1, table1), (d2, table2)))
        assert language_equivalent(d1, d2) is product_walk_agrees(d1, d1.start, d2, d2.start)

    def test_first_difference_thousands_of_levels_deep(self):
        chain, moved = unary_lasso(3000, 0, 1 << 2999), unary_lasso(3000, 0, 1 << 2998)
        assert minimize(chain) != minimize(moved)
        assert not language_equivalent(chain, moved)
        assert not language_equivalent(moved, chain)

    @pytest.mark.parametrize("table", [False, True])
    def test_narrow_wide_narrow(self, table):
        # the head's levels widen to hundreds of pairs and narrow again, and
        # its last pairs lead into a tail thousands of levels deep
        d = head_and_tail(2000, 3000, 0x1E0_0003)
        last = d.state_count - 1
        moved = Dfa(d.alphabet, d.delta, d.start, d.accepting ^ {last - 1, last})
        d = as_table(d) if table else d
        assert language_equivalent(d, as_table(d))
        assert not language_equivalent(d, as_table(moved))
        assert not language_equivalent(moved, d)

    def test_tables_get_no_rows(self):
        wide = random_dfa(200, 2, 0.5, 0x1E0_0001)
        chain = unary_lasso(3000, 0, 1 << 2999)
        pairs = [
            (wide, inflated(wide, 2, 1), True),
            (wide, inflated(wide, 3, 2), True),
            (wide, random_dfa(150, 2, 0.5, 0x1E0_0002), False),
            (chain, inflated(chain, 2, 3), True),
            (chain, unary_lasso(3000, 0, 1 << 2998), False),
        ]
        for d1, d2, same in pairs:
            d1, d2 = as_table(d1), as_table(d2)
            assert language_equivalent(d1, d2) is same
            assert "delta" not in d1.__dict__ and "delta" not in d2.__dict__


class TestNfaConstruction:
    def test_from_edges(self):
        n = Nfa.from_edges(("a", "b"), 3, initial={0}, accepting={2}, edges=[(0, 0, 1), (0, 0, 2), (1, 1, 2)])
        assert n.delta[0][0] == frozenset({1, 2})
        assert n.delta[0][1] == frozenset()
        assert nfa_accepts(n, "a") and nfa_accepts(n, "ab")
        assert not nfa_accepts(n, "b")

    def test_word_checks_match_dfa(self):
        n = Nfa.from_edges(("a", "b"), 1, initial={0}, accepting={0}, edges=[(0, 0, 0)])
        for bad, message in (("ac", "symbol 'c' not in alphabet"), ((0, 2), "symbol index 2 out of range")):
            with pytest.raises(ValueError, match=message):
                nfa_accepts(n, bad)
            with pytest.raises(ValueError, match=message):
                Dfa(("a", "b"), ((0, 0),), 0, frozenset()).word(bad)

    def test_rejects_out_of_range_successor(self):
        with pytest.raises(ValueError, match="out of range"):
            Nfa.from_edges(("a",), 2, initial={0}, accepting=set(), edges=[(0, 0, 5)])

    @pytest.mark.parametrize(
        "delta,initial,message",
        [
            ((), {0}, "at least one state"),
            (((frozenset(),),), {0}, "state 0: expected 2 successor sets"),
            (((frozenset(), frozenset()),), {1}, "state 1 out of range for 1 states"),
        ],
        ids=["zero-states", "short-row", "initial-out-of-range"],
    )
    def test_rejects_malformed(self, delta, initial, message):
        with pytest.raises(ValueError, match=message):
            Nfa(("a", "b"), delta, frozenset(initial), frozenset())

    @pytest.mark.parametrize(
        "delta,initial,accepting",
        [
            ([[{0.5}]], {0}, set()),
            ([[{0}]], {0.0}, set()),
            ([[{0}]], {0}, {0.0}),
        ],
        ids=["successor", "initial", "accepting"],
    )
    def test_rejects_float_states(self, delta, initial, accepting):
        with pytest.raises(TypeError):
            Nfa(("a",), delta, initial, accepting)

    def test_accepts_numpy_integer_states(self):
        n = Nfa(("a",), [[{np.int64(1)}], [{np.uint8(0)}]], {np.int32(0)}, {np.int64(1)})
        assert nfa_accepts(n, "a") and not nfa_accepts(n, "aa")
        assert determinize(n) == Dfa(("a",), ((1,), (0,)), 0, {1})
        assert all(q.__class__ is int for q in n.initial | n.accepting)


class TestDeterminize:
    def test_deterministic_nfa_round_trip(self):
        d = witness_b(3)
        n = Nfa(
            alphabet=d.alphabet,
            delta=tuple(tuple(frozenset({t}) for t in row) for row in d.delta),
            initial=frozenset({d.start}),
            accepting=d.accepting,
        )
        assert language_equivalent(determinize(n), d)

    def test_empty_initial_set(self):
        n = Nfa(("a",), ((frozenset({0}),),), frozenset(), frozenset({0}))
        out = determinize(n)
        assert enumerate_accepted(out, 4) == []

    def test_agrees_with_subset_simulation(self):
        for n in random_nfas(NFA_CORPUS_SEED, 30):
            d = determinize(n)
            k = len(n.alphabet)
            for length in range(9):
                for w in product(range(k), repeat=length):
                    assert accepts(d, w) == nfa_accepts(n, w)


class TestPermutationAutomaton:
    def test_unary_cycle(self):
        assert is_permutation_automaton(unary_star_dfa(3))

    def test_witness_b4_is_not(self):
        assert not is_permutation_automaton(witness_b(4))

    def test_single_state(self):
        assert is_permutation_automaton(Dfa(("a",), ((0,),), 0, frozenset()))

    def test_live_permutation_has_no_dead_states(self):
        for d, _ in dfa_pairs(0x3141_0003, 120, max_m=4, max_n=1):
            if not is_permutation_automaton(d) or not d.accepting:
                continue
            reaches = all(
                enumerate_accepted(Dfa(d.alphabet, d.delta, q, d.accepting), d.state_count)
                for q in range(d.state_count)
            )
            if reaches:
                assert dead_states(d) == frozenset()


class TestEnumerateAccepted:
    def test_witness_a3_short_words(self):
        assert enumerate_accepted(witness_a(3), 1) == [(1,)]

    def test_no_accepting_states(self):
        d = Dfa(("a", "b"), ((0, 1), (1, 0)), 0, frozenset())
        assert enumerate_accepted(d, 5) == []

    def test_unary_star_multiples(self):
        assert enumerate_accepted(unary_star_dfa(2), 4) == [(), (0, 0), (0, 0, 0, 0)]

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            enumerate_accepted(unary_star_dfa(2), -1)

    def test_matches_word_by_word_scan(self):
        for d, _ in dfa_pairs(0xE7A0_0001, 60, max_m=4, max_n=1):
            k = len(d.alphabet)
            expected = [w for n in range(5) for w in product(range(k), repeat=n) if accepts(d, w)]
            assert enumerate_accepted(d, 4) == expected


class TestExtendAlphabet:
    def test_adds_sink_for_new_symbols(self):
        d = extend_alphabet(unary_star_dfa(2, "a"), ("a", "b"))
        assert d.alphabet == ("a", "b")
        assert d.state_count == 3
        assert accepts(d, "aa")
        assert not accepts(d, "ab")
        assert dead_states(d) == frozenset({2})

    def test_reorders_without_sink(self):
        d = witness_a(3)
        swapped = extend_alphabet(d, ("d", "c", "b", "a"))
        assert swapped.state_count == d.state_count
        assert accepts(swapped, "b") and not accepts(swapped, "d")

    def test_rejects_dropping_symbols(self):
        with pytest.raises(ValueError, match="drops symbols"):
            extend_alphabet(witness_a(3), ("a", "b"))
