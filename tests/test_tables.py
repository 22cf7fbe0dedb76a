"""The numpy table routes against the dict loops they replace at scale.

Each test calls the private route functions directly, so tiny inputs run
the table code too; the public functions pick a route from the input.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orthocat.catenation
import orthocat.cli
import orthocat.core
import orthocat.fileformat
from orthocat import (
    Dfa,
    build_catenation_nfa,
    determinize,
    extend_alphabet,
    minimize,
    orthogonal_upper_bound,
    witness_a,
    witness_b,
)
from orthocat.catenation import _build_dense, _build_loop, build_catenation_dfa
from orthocat.cli import cmd_verify
from orthocat.core import (
    _bfs_levels,
    _count_rank,
    _is_breadth_first,
    _minimize_loop,
    _minimize_table,
    _moore_loop,
    _moore_vector,
    _quotient,
    _signature_hash,
    _sort_rank,
)
from orthocat.fileformat import parse_automaton, serialize_automaton
from orthocat.randgen import random_dfa, splitmix64_stream

from conftest import dfa_pairs
from test_core import as_table, inflated, loop_blocks, same_partition, unary_lasso, vector_blocks


def layouts(table: np.ndarray) -> list[np.ndarray]:
    """``table``'s cells as a Fortran-ordered copy and as two views that
    are not contiguous, one skipping columns and one skipping rows."""
    return [
        np.asfortranarray(table),
        np.repeat(table, 2, axis=1)[:, ::2],
        np.repeat(table, 2, axis=0)[::2],
    ]


def laid_out(d: Dfa, table: np.ndarray) -> Dfa:
    """``d`` keeping ``table``, equal to its own, in the layout given."""
    assert np.array_equal(table, d._table)
    return Dfa._make(d.alphabet, table, d.start, d._flags)


def assert_same_build(a: Dfa, b: Dfa) -> None:
    dense, loop = _build_dense(a, b), _build_loop(a, b)
    assert dense.keys == loop.keys
    assert dense.dfa.delta == loop.dfa.delta
    assert dense.dfa.accepting == loop.dfa.accepting


class TestDenseBuild:
    def test_witness_pairs_match_the_loop(self):
        for m in range(3, 11):
            for n in range(3, 13):
                assert_same_build(witness_a(m), witness_b(n))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_random_pairs_match_the_loop(self, seed):
        for a, b in dfa_pairs(seed, 10, max_m=6, max_n=8, max_alphabet=4):
            assert_same_build(a, b)

    def test_loop_gives_up_once_its_queue_passes_the_limit(self):
        a, b = witness_a(4), witness_b(4)
        states = _build_loop(a, b).dfa.state_count
        assert _build_loop(a, b, states) is not None
        assert _build_loop(a, b, 0) is None

    def test_inputs_in_any_layout(self):
        for m, n in ((3, 3), (4, 6), (6, 8), (10, 12)):
            a, b = witness_a(m), witness_b(n)
            expected = _build_loop(a, b)
            for ta, tb in zip(layouts(a._table), layouts(b._table)):
                assert not (ta.flags.c_contiguous or tb.flags.c_contiguous)
                # Dfa(...) copies into C order, _make keeps the layout as given
                copied = [Dfa(d.alphabet, t, d.start, d.accepting) for d, t in ((a, ta), (b, tb))]
                for fa, fb in (copied, (laid_out(a, ta), laid_out(b, tb))):
                    built = _build_dense(fa, fb)
                    assert built == expected
                    assert built.dfa._table.tobytes() == expected.dfa._table.tobytes()

    def test_dispatch_by_queue_length(self):
        small = build_catenation_dfa(witness_a(3), witness_b(3))
        wide = build_catenation_dfa(witness_a(6), witness_b(8))
        # a 3,000-state path: one state a level, so never more than two queued
        deep = build_catenation_dfa(unary_lasso(3000, 0, 1 << 2999), unary_lasso(2, 0, 1))
        assert deep.dfa.state_count > 3000
        for cat in (small, deep):
            assert "keys" in vars(cat) and "_codes" not in vars(cat)
        assert "_codes" in vars(wide) and "keys" not in vars(wide)
        assert wide.keys == _build_loop(witness_a(6), witness_b(8)).keys


class TestTableMinimize:
    def test_byte_identical_to_the_loop_route(self):
        draws = splitmix64_stream(0x7AB1_0001)
        for _ in range(2000):
            n = 1 + next(draws) % 300
            k = 1 + next(draws) % 4
            prob = (0.0, 0.25, 0.5, 0.75, 1.0)[next(draws) % 5]
            d = random_dfa(n, k, prob, next(draws))
            assert serialize_automaton(_minimize_table(d)) == serialize_automaton(_minimize_loop(d))

    def test_tables_in_any_layout(self):
        draws = splitmix64_stream(0x7AB1_0008)
        renumbered = 0
        for _ in range(40):
            n = 64 + next(draws) % 237
            k = 1 + next(draws) % 4
            prob = (0.25, 0.5, 0.75)[next(draws) % 3]
            d = random_dfa(n, k, prob, next(draws))
            small = _minimize_table(d)
            # minimal, not breadth-first: renumbered straight from the table given
            perm = np.array(sorted(range(small.state_count), key=lambda q: next(draws)))
            for x in (d, renamed(small, perm)):
                expected = serialize_automaton(_minimize_loop(x))
                renumbered += not _is_breadth_first(x._table, x.start)
                for table in layouts(x._table):
                    assert serialize_automaton(_minimize_table(laid_out(x, table))) == expected
                    assert serialize_automaton(minimize(laid_out(x, table))) == expected
        assert renumbered > 40

    def test_returns_a_table_backed_automaton(self):
        d = build_catenation_dfa(witness_a(6), witness_b(8)).dfa
        small = _minimize_table(d)
        assert "delta" not in vars(small)
        assert small == _minimize_loop(d)


def hint_free(d: Dfa) -> Dfa:
    """The same automaton, without a congruence."""
    return Dfa(d.alphabet, d._table.copy(), d.start, d.accepting)


def with_useless_states(b: Dfa, useless: int, seed: int) -> Dfa:
    """``b`` plus ``useless`` non-accepting states that step only among
    themselves (dead sinks and co-unreachable cycles), with about a quarter
    of ``b``'s transitions redirected into them."""
    draws = splitmix64_stream(seed)
    n, k = b.state_count, len(b.alphabet)
    rows = [
        tuple(n + next(draws) % useless if next(draws) % 4 == 0 else t for t in row)
        for row in b.delta
    ]
    rows += [tuple(n + next(draws) % useless for _ in range(k)) for _ in range(useless)]
    return Dfa(b.alphabet, tuple(rows), b.start, b.accepting)


class TestCongruenceQuotient:
    """``_minimize_table`` refines the quotient by the congruence the dense
    build gives; it must equal the dict loop and a hint-free ``minimize``."""

    def assert_quotient_is_exact(self, a: Dfa, b: Dfa) -> bool:
        d = _build_dense(a, b).dfa
        free = hint_free(d)
        assert free._congruence is None and free == d and hash(free) == hash(d)
        expected = serialize_automaton(_minimize_loop(d))
        assert serialize_automaton(_minimize_table(d)) == expected
        assert serialize_automaton(minimize(free)) == expected
        return d._congruence is not None

    def test_witness_pairs(self):
        for m in range(3, 11):
            for n in range(3, 13):
                assert self.assert_quotient_is_exact(witness_a(m), witness_b(n))

    def test_random_pairs_with_useless_states(self):
        draws = splitmix64_stream(0x7AB1_0004)
        hinted = []
        for a, b in dfa_pairs(0x7AB1_0005, 300, max_m=5, max_n=5):
            useless = next(draws) % 3
            if useless:
                b = with_useless_states(b, useless, next(draws))
            hinted.append(self.assert_quotient_is_exact(a, b))
        assert 0 < sum(hinted) < len(hinted)

    def test_no_congruence_when_every_state_is_useful(self):
        # every state of a cycle reaches its accepting state
        cycle = Dfa(witness_a(3).alphabet, tuple(((q + 1) % 5,) * 4 for q in range(5)), 0, {0})
        assert self.assert_quotient_is_exact(witness_a(6), cycle) is False

    def test_a_wider_quotient_changes_the_result(self):
        # dropping any useful b-state too merges states of different languages
        for m, n in ((3, 3), (4, 5), (6, 8)):
            d = _build_dense(witness_a(m), witness_b(n)).dfa
            codes, keep = d._congruence
            low = (1 << n) - 1
            assert keep & low == low >> 1  # every b-state but the dead one, n - 1
            expected = serialize_automaton(_minimize_table(d))
            for p in range(n - 1):
                wider = (codes, keep & ~(1 << p))
                mutant = Dfa._make(d.alphabet, d._table, d.start, d._flags, wider)
                assert serialize_automaton(_minimize_table(mutant)) != expected


def renamed(d: Dfa, perm: np.ndarray) -> Dfa:
    """``d`` with each state q renamed ``perm[q]``."""
    table = np.empty_like(d._table)
    table[perm] = perm[d._table]
    return Dfa(d.alphabet, table, int(perm[d.start]), perm[np.flatnonzero(d._flags)])


def with_unreachable_states(d: Dfa, extra: int, seed: int) -> Dfa:
    """``d`` plus ``extra`` states that nothing reaches, stepping anywhere."""
    n, k = d.state_count, len(d.alphabet)
    draws = splitmix64_stream(seed)
    rows = [[next(draws) % (n + extra) for _ in range(k)] for _ in range(extra)]
    return Dfa(d.alphabet, np.vstack([d._table, rows]), d.start, np.flatnonzero(d._flags))


@st.composite
def tables_and_starts(draw) -> tuple[np.ndarray, int]:
    """A random table and start; half of them renumbered breadth-first, and
    half of those with two states swapped after."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(0, n - 1), min_size=n * k, max_size=n * k))
    table, start = np.array(cells, dtype=np.int64).reshape(n, k), draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        ids, table = _bfs_levels(start, n, table.__getitem__)
        start, n = 0, len(ids)
        if draw(st.booleans()):
            perm = np.arange(n)
            swap = [draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))]
            perm[swap] = perm[swap[::-1]]
            swapped = np.empty_like(table)
            swapped[perm] = perm[table]
            table, start = swapped, int(perm[0])
    return table, start


class TestBreadthFirstSkip:
    """``_minimize_table`` skips ``_bfs_levels`` on a quotient that is
    breadth-first already; skipped or not, it must equal the dict loop."""

    @settings(max_examples=400, deadline=None)
    @given(tables_and_starts())
    @example((np.array([[0], [1]]), 0))  # state 1 occurs only in its own row
    @example((np.array([[1, 0], [1, 1]]), 0))
    @example((np.array([[1, 0], [1, 1]]), 1))
    @example((np.array([[2], [0], [1]]), 0))  # state 2 occurs before state 1
    def test_check_holds_iff_bfs_is_the_identity(self, table_start):
        table, start = table_start
        ids, rows = _bfs_levels(start, len(table), table.__getitem__)
        identity = np.array_equal(ids, np.arange(len(table))) and np.array_equal(rows, table)
        assert _is_breadth_first(table, start) is identity

    def test_skip_and_fallback_match_the_loop(self, monkeypatch):
        renumbered = []
        bfs_levels = _bfs_levels
        spy = lambda *args: renumbered.append(args) or bfs_levels(*args)
        monkeypatch.setattr(orthocat.core, "_bfs_levels", spy)
        draws = splitmix64_stream(0x7AB1_0006)
        fallbacks = 0
        for a, b in dfa_pairs(0x7AB1_0007, 150, max_m=5, max_n=6):
            built = _build_dense(a, b).dfa  # breadth-first, often with a congruence
            free = hint_free(built)
            small = _minimize_loop(free)
            minimal = Dfa(small.alphabet, np.array(small.delta), 0, small.accepting)
            n = free.state_count
            perm = np.array(sorted(range(n), key=lambda q: next(draws)), dtype=np.int64)
            restarted = Dfa(free.alphabet, free._table, next(draws) % n, free.accepting)
            unreachable = with_unreachable_states(free, 1 + next(draws) % 3, next(draws))
            for d in (built, free, minimal, renamed(free, perm), restarted, unreachable):
                renumbered.clear()
                expected = serialize_automaton(_minimize_loop(d))
                assert serialize_automaton(_minimize_table(d)) == expected
                # a breadth-first automaton has a breadth-first quotient
                assert not (renumbered and d in (built, free, minimal))
                fallbacks += bool(renumbered)
        assert 100 < fallbacks < 450


def moore_rounds(d: Dfa) -> int:
    """Rounds of Moore refinement up to and including the stable one."""
    block = [q in d.accepting for q in range(d.state_count)]
    rounds, n_blocks = 1, len(set(block))
    while True:
        sigs: dict[tuple, int] = {}
        block = [
            sigs.setdefault((block[q], *(block[t] for t in row)), len(sigs))
            for q, row in enumerate(d.delta)
        ]
        if len(sigs) == n_blocks:
            return rounds
        rounds, n_blocks = rounds + 1, len(sigs)


def doubled(d: Dfa) -> Dfa:
    """Two disjoint copies of ``d``: every state has an equivalent twin, so
    Moore never ends on a partition of single states."""
    n, table = d.state_count, d._table
    flags = np.concatenate([d._flags, d._flags])
    return Dfa(d.alphabet, np.vstack([table, table + n]), d.start, np.flatnonzero(flags))


class TestPackedMoore:
    """``_moore_vector`` runs exact rounds while their packed range counts,
    hashed rounds after, and one check that a hashed partition short of
    single states is a congruence; it must give the dict loop's partition.
    ``_moore_loop`` runs inside it only after a hash collision, and no
    input here has one."""

    def moore(self, monkeypatch, d: Dfa) -> tuple[int, int, int]:
        """``_moore_vector``'s rounds on ``d``, its hashed rounds and its
        sort ranks (the check's), once its partition is checked against the
        loop and the fallback is seen not to have run."""
        hashed, sorted_, fallbacks = [], [], []
        signature_hash, sort_rank, loop = _signature_hash, _sort_rank, _moore_loop
        monkeypatch.setattr(orthocat.core, "_signature_hash", lambda *a: hashed.append(a) or signature_hash(*a))
        monkeypatch.setattr(orthocat.core, "_sort_rank", lambda v: sorted_.append(v) or sort_rank(v))
        monkeypatch.setattr(orthocat.core, "_moore_loop", lambda *a: fallbacks.append(a) or loop(*a))
        blocks, rounds = _moore_vector(d._table, d._flags)
        monkeypatch.undo()
        assert not fallbacks
        assert same_partition(blocks.tolist(), loop_blocks(d))
        return rounds, len(hashed), len(sorted_)

    def test_all_columns_in_one_call(self, monkeypatch):
        # hashed rounds that end on single states need no round to confirm
        # them, where the dict loop takes one, and rank nothing by sorting;
        # the twins stop growing on the loop's stable round, and the check
        # ranks their hashes once and passes, with no round of its own
        draws = splitmix64_stream(0x7AB1_0002)
        for _ in range(20):
            d = random_dfa(300, 4, 0.5, next(draws))
            assert len(set(loop_blocks(d))) == 300
            rounds, hashed, sorts = self.moore(monkeypatch, d)
            assert rounds == moore_rounds(d) - 1 and hashed > 0 and sorts == 0
            twins = doubled(d)
            rounds, hashed, sorts = self.moore(monkeypatch, twins)
            assert rounds == moore_rounds(twins) and hashed > 0 and sorts == 1

    def test_columns_over_several_calls(self, monkeypatch):
        # eight letters: fewer exact rounds before the hashed ones, and the
        # check runs over eight columns
        draws = splitmix64_stream(0x7AB1_0003)
        for _ in range(20):
            d = random_dfa(300, 8, 0.5, next(draws))
            rounds, hashed, sorts = self.moore(monkeypatch, d)
            assert rounds == moore_rounds(d) - 1 and hashed > 0 and sorts == 0
            twins = doubled(d)
            rounds, hashed, sorts = self.moore(monkeypatch, twins)
            assert rounds == moore_rounds(twins) and hashed > 0 and sorts == 1

    def test_rounds_at_scale(self, monkeypatch):
        # (12,14): the congruence quotient is already minimal, so Moore ends
        # on single states in 12 rounds, and no second quotient is taken
        given, quotients = [], []
        moore, quotient = _moore_vector, _quotient
        monkeypatch.setattr(orthocat.core, "_moore_vector", lambda *a: given.append(moore(*a)) or given[-1])
        monkeypatch.setattr(orthocat.core, "_quotient", lambda *a: quotients.append(a) or quotient(*a))
        d = build_catenation_dfa(witness_a(12), witness_b(14)).dfa
        assert minimize(d).state_count == orthogonal_upper_bound(12, 14) == len(given[0][0])
        monkeypatch.undo()
        assert given[0][1] == 12 and len(quotients) == 1
        # the whole (10,12) catenation DFA is not minimal: its hashed rounds
        # stop growing on the dict loop's 11th, stable, round, and the check
        # passes without a round of its own
        d = hint_free(build_catenation_dfa(witness_a(10), witness_b(12)).dfa)
        rounds, hashed, sorts = self.moore(monkeypatch, d)
        assert rounds == moore_rounds(d) == 11 and hashed > 0 and sorts == 1
        blocks, _ = _moore_vector(d._table, d._flags)
        assert len(set(blocks.tolist())) == orthogonal_upper_bound(10, 12) < d.state_count

    def test_a_degenerate_hash_still_gives_the_loop_partition(self, monkeypatch):
        # every signature hashes to its accepting flag: the first hashed
        # round collides, the check fails, and the dict loop it falls back
        # on must find the partition that the real hash finds
        draws = splitmix64_stream(0x7AB1_0004)
        automata = []
        for k in (2, 4, 8):
            d = random_dfa(200, k, 0.5, next(draws))
            automata += [d, doubled(d)]
        automata.append(hint_free(build_catenation_dfa(witness_a(10), witness_b(12)).dfa))
        unpatched = [vector_blocks(d) for d in automata]
        hashed, fallbacks = [], []

        def flag_only(values, columns, flags):
            hashed.append(values)
            return flags.astype(np.uint64)

        loop = _moore_loop
        monkeypatch.setattr(orthocat.core, "_signature_hash", flag_only)
        monkeypatch.setattr(orthocat.core, "_moore_loop", lambda *a: fallbacks.append(a) or loop(*a))
        for d, expected in zip(automata, unpatched):
            hashed.clear()
            fallbacks.clear()
            blocks = vector_blocks(d)
            assert hashed and len(fallbacks) == 1
            assert same_partition(blocks, expected)
            assert same_partition(blocks, loop_blocks(d))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(64, 400),
        st.integers(1, 8),
        st.integers(1, 4),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.integers(0, 2**64 - 1),
    )
    def test_matches_the_loop(self, n, k, copies, prob, seed):
        # copies > 1: many equivalent states, so hashed rounds, once reached,
        # stop short of single states and the congruence check runs
        d = random_dfa(max(1, n // copies), k, prob, seed)
        if copies > 1:
            d = inflated(d, copies, seed)
        assert same_partition(vector_blocks(d), loop_blocks(d))


def ranked(values, span: int, rank) -> tuple[list[int], int]:
    copy = np.array(values, dtype=np.int64)
    count = rank(copy, span)
    return copy.tolist(), count


spans_and_values = st.integers(1, 1000).flatmap(
    lambda span: st.tuples(
        st.just(span), st.lists(st.integers(0, span - 1), min_size=1, max_size=60)
    )
)


class TestRank:
    @settings(max_examples=300, deadline=None)
    @given(spans_and_values)
    @example((1, [0]))
    @example((5, [3]))
    @example((7, [6, 6, 6, 6]))
    @example((40, [39, 0, 39, 17, 39]))
    @example((1000, [999, 998, 0, 999]))
    def test_count_and_sort_branches_agree(self, span_values):
        span, values = span_values
        distinct = sorted(set(values))
        expected = ([distinct.index(v) for v in values], len(distinct))
        assert ranked(values, span, _count_rank) == expected
        assert ranked(values, span, lambda v, _: _sort_rank(v)) == expected

    def test_ranks_past_a_million_values(self):
        # the hashes' range: far too wide to count, ranked by the argsort
        n = 2**20 + 1
        values = np.random.default_rng(8).integers(0, 2**63, n)
        values[[0, 5, n - 1]] = 2**63 - 1
        values[[1, 2]] = 0
        _, expected = np.unique(values, return_inverse=True)
        assert _sort_rank(values) == expected.max() + 1
        assert np.array_equal(values, expected)


def test_take_may_write_over_its_own_indices():
    # _count_rank, _quotient and _bfs_levels gather into the index array
    # itself: each index is read before its place is written
    rng = np.random.default_rng(0x7AB1_0009)
    for size, shape in ((1, (1,)), (7, (50,)), (1000, (4000,)), (5000, (3000, 4)), (2**16, (2**17,))):
        src = rng.integers(-(2**63), 2**63 - 1, size)
        idx = rng.integers(0, size, shape)
        expected = src[idx]
        assert src.take(idx, out=idx, mode="clip") is idx
        assert np.array_equal(idx, expected)


class TestDfaForms:
    def test_equal_and_same_hash_across_forms(self):
        d = witness_a(5)
        t = as_table(d)
        assert d == t and t == d and hash(d) == hash(t)
        other = Dfa(d.alphabet, d.delta, d.start, frozenset({0}))
        assert as_table(other) != d

    @staticmethod
    def forms(d: Dfa) -> list[Dfa]:
        """``d`` made anew with rows or a table, and a set or flags; an
        integer array of accepting states becomes flags beside the rows."""
        members = np.array(sorted(d.accepting), dtype=np.int64)
        return [
            Dfa(d.alphabet, delta, d.start, accepting)
            for delta in (d.delta, np.array(d.delta))
            for accepting in (d.accepting, members)
        ]

    def test_eq_and_hash_agree_across_forms_on_random_pairs(self):
        for a, b in dfa_pairs(0xE0_0001, 60, max_m=4, max_n=4):
            flipped = Dfa(a.alphabet, a.delta, a.start, a.accepting ^ {a.state_count - 1})
            rows = [list(row) for row in a.delta]
            rows[-1][-1] = (rows[-1][-1] + 1) % a.state_count
            moved = Dfa(a.alphabet, rows, a.start, a.accepting)
            for x, y in [(a, a), (a, b), (a, flipped), (a, moved)]:
                same = x.accepting == y.accepting and x.delta == y.delta  # one alphabet, start
                for fx in self.forms(x):
                    for fy in self.forms(y):
                        assert (fx == fy) is same and (fy == fx) is same
                        assert (fx != fy) is not same
                        assert not same or hash(fx) == hash(fy)

    def test_table_is_a_read_only_copy(self):
        array = np.array(witness_b(4).delta)
        d = Dfa(witness_b(4).alphabet, array, 0, {1})
        array[0, 0] = 3
        assert d.delta == witness_b(4).delta
        with pytest.raises(ValueError, match="read-only"):
            d._table[0, 0] = 1

    def test_table_is_kept_in_c_order(self):
        d = witness_b(5)
        for table in layouts(np.array(d.delta)):
            kept = Dfa(d.alphabet, table, d.start, d.accepting)
            assert kept._table.flags.c_contiguous and kept == d

    def test_read_only_view_is_copied(self):
        base = np.array([[1], [0], [2]])
        view = base.view()
        view.flags.writeable = False
        d = Dfa(("a",), view, 0, {1})
        before = hash(d)
        base[0, 0] = 7
        assert hash(d) == before and d.delta == ((1,), (0,), (2,))
        assert minimize(d) == Dfa(("a",), ((1,), (0,)), 0, {1})

    def test_parsed_built_and_minimized_tables_are_kept(self, monkeypatch):
        made = []

        def record(module, name):
            made_by = getattr(module, name)

            def wrapper(*args):
                made.append(made_by(*args))
                return made[-1]

            monkeypatch.setattr(module, name, wrapper)

        record(orthocat.fileformat, "_table")  # both parse routes make the table there
        record(orthocat.catenation, "_bfs_levels")
        record(orthocat.core, "_quotient")  # a breadth-first quotient is kept as made
        parsed = parse_automaton(serialize_automaton(witness_b(4)))
        built = build_catenation_dfa(witness_a(6), witness_b(8)).dfa
        small = minimize(built)
        # _bfs_levels returns (ids, table), _quotient (table, flags, start)
        given = made[0], made[1][1], made[-1][0]
        # handed over, not copied: the very array, made read-only
        for d, array in zip((parsed, built, small), given, strict=True):
            assert "delta" not in vars(d) and d._table is array and not array.flags.writeable

    def test_owner_cannot_change_a_given_table(self):
        table = np.array([[1], [0], [2]])
        table.flags.writeable = False
        d = Dfa(("a",), table, 0, {1})
        before = hash(d)
        table.flags.writeable = True
        table[0, 0] = 7
        assert not np.shares_memory(table, d._table)
        assert hash(d) == before and d.delta == ((1,), (0,), (2,))
        assert minimize(d) == Dfa(("a",), ((1,), (0,)), 0, {1})

    @pytest.mark.parametrize("table", [False, True], ids=["rows", "table"])
    @pytest.mark.parametrize(
        "rows,start,accepting",
        [
            pytest.param(((0, 1), (1, 0)), 0.0, (), id="start"),
            pytest.param(((0, 1), (1, 0)), 0, (1, 0.0), id="accepting"),
            pytest.param(((0, 1), (1.0, 0)), 0, (), id="transition"),
        ],
    )
    def test_float_states_are_rejected(self, table, rows, start, accepting):
        delta = np.array(rows) if table else rows
        with pytest.raises(TypeError):
            Dfa(("a", "b"), delta, start, accepting)

    @pytest.mark.parametrize("table", [False, True], ids=["rows", "table"])
    def test_numpy_integer_states_are_accepted(self, table):
        i = np.int64
        rows = ((i(0), i(1)), (i(1), i(0)))
        d = Dfa(("a", "b"), np.array(rows) if table else rows, i(1), {i(0)})
        expected = Dfa(("a", "b"), ((0, 1), (1, 0)), 1, {0})
        assert d == expected and hash(d) == hash(expected)
        assert minimize(d) == minimize(expected)
        assert serialize_automaton(d) == serialize_automaton(expected)

    @pytest.mark.parametrize("table", [False, True], ids=["rows", "table"])
    @pytest.mark.parametrize("kind", [bool, np.int64, np.uint8], ids=["bool", "int64", "uint8"])
    def test_integer_states_serialize_as_their_int_twin(self, table, kind):
        twin = Dfa(("a", "b"), ((1, 0), (0, 1)), 1, {0, 1})
        rows = tuple(tuple(map(kind, row)) for row in twin.delta)
        # beside an int 0, a bool 1 is not the least member
        for accepting in ({kind(0), kind(1)}, {0, kind(1)}):
            d = Dfa(twin.alphabet, np.array(rows) if table else rows, kind(1), accepting)
            text = serialize_automaton(d)
            assert text == serialize_automaton(twin)
            assert parse_automaton(text) == d == twin and hash(d) == hash(twin)
            states = (d.start, *d.accepting, *(t for row in d.delta for t in row))
            assert all(q.__class__ is int for q in states)

    @pytest.mark.parametrize("table", [False, True], ids=["rows", "table"])
    def test_narrow_integer_accepting_states_do_not_overflow(self, table):
        # 200 + 100 overflows uint8: a sum of the members must not be taken
        rows = [[0]] * 300
        d = Dfa(("a",), np.array(rows) if table else rows, 0, {np.uint8(200), np.uint8(100)})
        assert d.accepting == {100, 200} and all(q.__class__ is int for q in d.accepting)

    def test_rows_derived_on_first_use(self):
        d = as_table(witness_a(4))
        assert d.state_count == 4 and "delta" not in vars(d)
        assert d.delta == witness_a(4).delta and "delta" in vars(d)

    def test_verify_never_makes_rows_at_scale(self, monkeypatch):
        seen = []

        def record(fn):
            def wrapper(*args):
                seen.append(fn(*args))
                return seen[-1]

            return wrapper

        monkeypatch.setattr(orthocat.cli, "build_catenation_dfa", record(build_catenation_dfa))
        monkeypatch.setattr(orthocat.cli, "minimize", record(orthocat.cli.minimize))
        cmd_verify(12, 14)
        cat, small = seen
        assert "keys" not in vars(cat)
        assert "delta" not in vars(cat.dfa) and "delta" not in vars(small)

    @pytest.mark.parametrize(
        "rows,start,accepting",
        [
            pytest.param([[0, 5], [-1, 0], [9, 9]], 0, (), id="bad-target"),
            pytest.param([[0], [1]], 0, (), id="row-width"),
            pytest.param([[0, 1], [1, 0]], 2, (), id="start"),
            pytest.param([[0, 1], [1, 0]], 0, (0, 7), id="accepting"),
            pytest.param([], 0, (), id="no-states"),
        ],
    )
    def test_table_errors_read_as_the_rows_errors(self, rows, start, accepting):
        table = np.array(rows, dtype=np.int64) if len(rows) else np.zeros((0, 2), dtype=np.int64)
        messages = []
        for delta in (table, tuple(map(tuple, rows))):
            with pytest.raises(ValueError) as caught:
                Dfa(("a", "b"), delta, start, accepting)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("accepting", [(7,), (0, -1), (5, -3, 9, 1), (1, 2)])
    def test_accepting_out_of_range_message(self, accepting):
        bad = next(q for q in frozenset(accepting) if not 0 <= q < 2)
        for delta in (np.array([[0, 1], [1, 0]]), ((0, 1), (1, 0))):
            with pytest.raises(ValueError) as caught:
                Dfa(("a", "b"), delta, 0, accepting)
            assert str(caught.value) == f"accepting state {bad} out of range for 2 states"

    @pytest.mark.parametrize(
        "accepting",
        [(7,), (2, 1), (0, -1), (5, -3, 9, 1)],
        ids=["high", "state-count", "negative", "several"],
    )
    def test_accepting_array_errors_read_as_the_list_errors(self, accepting):
        messages = []
        for members in (list(accepting), np.array(accepting, dtype=np.int64)):
            with pytest.raises(ValueError) as caught:
                Dfa(("a", "b"), ((0, 1), (1, 0)), 0, members)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int8])
    def test_accepting_array_out_of_range_message(self, dtype):
        # an array that fails the one range check names the first bad
        # member in the set's order (9 before 7 here), as a list would
        members = np.array([1, 7, 0, 9], dtype=dtype)
        with pytest.raises(ValueError) as caught:
            Dfa(("a", "b"), np.array([[0, 1], [1, 0]]), 0, members)
        assert str(caught.value) == "accepting state 9 out of range for 2 states"

    def test_accepting_array_in_range_is_checked_as_a_whole(self, monkeypatch):
        checked, state = [], orthocat.core._state

        def record(q, n, what):
            checked.append(what)
            return state(q, n, what)

        monkeypatch.setattr(orthocat.core, "_state", record)
        d = Dfa(("a", "b"), np.array([[0, 1], [1, 0]]), 0, np.array([1, 1], dtype=np.uint8))
        assert checked == ["start state"]
        assert d.accepting == {1} and d == Dfa(("a", "b"), ((0, 1), (1, 0)), 0, {1})

    def test_accepting_float_array_is_rejected(self):
        with pytest.raises(TypeError):
            Dfa(("a", "b"), ((0, 1), (1, 0)), 0, np.array([1.0]))

    @pytest.mark.parametrize(
        "members",
        [np.array([], dtype=np.int64), np.array([1, 0, 1], dtype=np.uint8), np.array([1])],
        ids=["empty", "uint8", "int"],
    )
    def test_accepting_integer_arrays_are_accepted(self, members):
        d = Dfa(("a", "b"), ((0, 1), (1, 0)), 0, members)
        expected = Dfa(("a", "b"), ((0, 1), (1, 0)), 0, set(members.tolist()))
        assert d == expected and hash(d) == hash(expected)
        assert all(q.__class__ is int for q in d.accepting)


def assert_well_formed(d: Dfa) -> None:
    """What ``Dfa(...)`` would check, on an automaton that may come from
    ``Dfa._make``, which checks nothing; and that its arrays are read-only."""
    n, k = d.state_count, len(d.alphabet)
    table, flags = d._table, d._flags
    assert table.dtype == np.int64 and table.shape == (n, k)
    assert table.min() >= 0 and table.max() < n
    assert d.start.__class__ is int and 0 <= d.start < n
    assert flags.dtype == bool and flags.shape == (n,)
    assert d.accepting == set(np.flatnonzero(flags).tolist())
    assert all(q.__class__ is int for q in d.accepting)
    assert not table.flags.writeable and not flags.flags.writeable
    if d._congruence is not None:
        codes, _ = d._congruence
        assert codes.shape == (n,) and not codes.flags.writeable


def built_automata(a: Dfa, b: Dfa, subsets: bool = True) -> list[Dfa]:
    """Every route of the library that makes an automaton, on one pair: the
    two minimize routes by size, each on both acceptance forms; the Python
    subset construction only if ``subsets``."""
    loop, dense = _build_loop(a, b).dfa, _build_dense(a, b).dfa
    made = [
        loop,
        dense,
        minimize(loop),
        minimize(dense),
        extend_alphabet(a, a.alphabet + ("z",)),
        extend_alphabet(a, a.alphabet[::-1]),
        parse_automaton(serialize_automaton(b)),
    ]
    return made + [determinize(build_catenation_nfa(a, b))] if subsets else made


class TestHandOver:
    """``Dfa._make`` keeps what the library's routes hand it unchecked, so
    each route's product is checked here as ``Dfa(...)`` would check it,
    and against the automaton ``Dfa(...)`` makes of the same parts."""

    def assert_routes(self, a: Dfa, b: Dfa, subsets: bool = True) -> None:
        for d in built_automata(a, b, subsets):
            assert_well_formed(d)
            # the public constructor's twin in each form: rows and a set,
            # a table and an array of accepting states
            for twin in (
                Dfa(d.alphabet, d.delta, d.start, d.accepting),
                Dfa(d.alphabet, d._table, d.start, d._flags.nonzero()[0]),
            ):
                assert twin == d and hash(twin) == hash(d)

    def test_random_pairs(self):
        for a, b in dfa_pairs(0x7AB1_0006, 200, max_m=5, max_n=5):
            self.assert_routes(a, b)

    def test_witness_pairs(self):
        for m in range(3, 11):
            for n in range(3, 13):
                # the subset construction takes seconds on the largest
                self.assert_routes(witness_a(m), witness_b(n), n <= 10)

    def test_shifted_flags_are_caught(self):
        d = _build_dense(witness_a(4), witness_b(5)).dfa
        mutant = Dfa._make(d.alphabet, d._table, d.start, np.roll(d._flags, 1))
        vars(mutant)["accepting"] = d.accepting  # as a wrong derivation would
        with pytest.raises(AssertionError):
            assert_well_formed(mutant)
        assert_well_formed(d)

    def test_writeable_flags_are_caught(self):
        d = _build_dense(witness_a(4), witness_b(5)).dfa
        mutant = Dfa._make(d.alphabet, d._table, d.start, d.accepting)
        vars(mutant)["_flags"] = d._flags.copy()  # as a derivation that forgot
        with pytest.raises(AssertionError):
            assert_well_formed(mutant)


def test_verify_reproduces_the_bound_at_scale():
    row = cmd_verify(12, 14)
    assert row.constructed == 188_416
    assert row.minimized == 94_208 == orthogonal_upper_bound(12, 14)
