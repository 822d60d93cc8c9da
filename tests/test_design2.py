"""Second piggybacking layout: wrap indexing, repair, multi-failure recovery."""

import itertools
import random

import pytest

from piggyback import (
    CodeParams,
    DecodeError,
    InsufficientDataError,
    ParameterError,
    RepairError,
    SymbolGrid,
    UnsupportedPatternError,
    design2,
    field,
    grid_reader,
)

P750 = CodeParams(n=7, k=5, s=2, kprime=0, w=8)


def rand_data(params, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(params.fld.q) for _ in range(params.data_symbols)]


class TestWrapAndPlacement:
    def test_wrap_normalization(self):
        assert design2.wrap(P750, 0) == 7
        assert design2.wrap(P750, -1) == 6
        assert design2.wrap(P750, 3) == 3
        assert design2.wrap(P750, 8) == 1
        assert design2.wrap(P750, 9) == 2

    def test_wrap_range_check(self):
        with pytest.raises(ParameterError):
            design2.wrap(P750, -2)
        with pytest.raises(ParameterError):
            design2.wrap(P750, 10)

    def test_target_simple_branch(self):
        assert design2.piggyback_target(P750, 1, 3) == 4
        assert design2.piggyback_target(P750, 2, 5) == 7

    def test_target_wraparound_branch(self):
        assert design2.piggyback_target(P750, 2, 6) == 1
        assert design2.piggyback_target(P750, 1, 7) == 1

    def test_first_sum_sources(self):
        # contributors of p_1: the second parity of column 1 and the first
        # parity of column 2
        assert design2.piggyback_sources(P750, 1) == ((1, 7), (2, 6))

    def test_second_sum_sources(self):
        assert design2.piggyback_sources(P750, 2) == ((1, 1), (2, 7))

    def test_sources_and_targets_are_inverse(self):
        for m in range(1, 8):
            for i, row in design2.piggyback_sources(P750, m):
                assert design2.piggyback_target(P750, i, row) == m

    def test_no_self_row_contribution(self):
        for n in range(3, 13):
            for k in range(1, n):
                for s in range(1, n):
                    p = CodeParams(n=n, k=k, s=s, kprime=0, w=8)
                    for m in range(1, n + 1):
                        assert all(row != m for _, row in design2.piggyback_sources(p, m))

    def test_each_cell_in_exactly_one_sum(self):
        p = CodeParams(n=11, k=7, s=4, kprime=0, w=8)
        targets = {}
        for i in range(1, p.s + 1):
            for j in range(1, p.n + 1):
                targets[(i, j)] = design2.piggyback_target(p, i, j)
        sources = [
            (i, row)
            for m in range(1, p.n + 1)
            for i, row in design2.piggyback_sources(p, m)
        ]
        assert len(sources) == len(set(sources)) == p.s * p.n
        for (i, j), m in targets.items():
            assert (i, j) in design2.piggyback_sources(p, m)

    def test_design1_params_rejected(self):
        p = CodeParams(8, 6, 1, 3, w=8)
        with pytest.raises(ParameterError):
            design2.piggyback_target(p, 1, 1)


class TestEncode:
    def test_zero_data_zero_grid(self):
        grid = design2.encode_stripe(P750, [0] * 10)
        assert not grid.cells.any()

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            design2.encode_stripe(P750, [0] * 9)

    def test_layout_7_5_2_0_cell_for_cell(self):
        params = P750
        data = rand_data(params, seed=30)
        grid = design2.encode_stripe(params, data)
        f = field(8)
        P = params.mds_first.parity
        a1, a2 = data[:5], data[5:]
        col1 = a1 + [f.dot(P[0], a1), f.dot(P[1], a1)]
        col2 = a2 + [f.dot(P[0], a2), f.dot(P[1], a2)]
        cols = {1: col1, 2: col2}

        def wrapped(x):
            return x + 7 if x <= 0 else (x - 7 if x > 7 else x)

        for m in range(1, 8):
            want = cols[1][wrapped(m - 1) - 1] ^ cols[2][wrapped(m - 2) - 1]
            assert int(grid.cells[m - 1, 2]) == want
        assert [int(x) for x in grid.cells[:, 0]] == col1
        assert [int(x) for x in grid.cells[:, 1]] == col2


class TestRepair:
    def test_every_node_bandwidth_6(self):
        grid = design2.encode_stripe(P750, rand_data(P750, seed=31))
        expected = grid.cells.tolist()
        for f in range(1, 8):
            row, rep = design2.repair_node(P750, f, grid_reader(grid, failed={f}))
            assert row == expected[f - 1]
            assert rep.bandwidth == 6
            assert len(rep.reads) == 6
            assert all(node != f for node, _ in rep.reads)

    def test_node1_read_trace(self):
        # two reads rebuild p_1, then piggyback cell + one contributor for
        # each of a_{1,1} and a_{2,1}
        grid = design2.encode_stripe(P750, rand_data(P750, seed=32))
        _, rep = design2.repair_node(P750, 1, grid_reader(grid, failed={1}))
        assert rep.reads == ((2, 1), (2, 3), (3, 3), (6, 2), (7, 1), (7, 2))

    def test_s1_bandwidth_2(self):
        p = CodeParams(n=6, k=4, s=1, kprime=0, w=8)
        grid = design2.encode_stripe(p, rand_data(p, seed=33))
        expected = grid.cells.tolist()
        for f in range(1, 7):
            row, rep = design2.repair_node(p, f, grid_reader(grid, failed={f}))
            assert row == expected[f - 1]
            assert rep.bandwidth == 2

    def test_bandwidth_is_s_plus_s_squared_generally(self):
        for n, k, s in [(9, 5, 3), (12, 10, 4), (10, 3, 6)]:
            p = CodeParams(n=n, k=k, s=s, kprime=0, w=8)
            grid = design2.encode_stripe(p, rand_data(p, seed=34))
            expected = grid.cells.tolist()
            for f in range(1, n + 1):
                row, rep = design2.repair_node(p, f, grid_reader(grid, failed={f}))
                assert row == expected[f - 1]
                assert rep.bandwidth == s + s * s

    def test_unreadable_cell_names_the_cell(self):
        grid = design2.encode_stripe(P750, rand_data(P750, seed=35))
        with pytest.raises(RepairError, match="node="):
            design2.repair_node(P750, 1, grid_reader(grid, failed={1, 7}))


class TestFailurePattern:
    def test_walkthrough_gaps(self):
        pat = design2.FailurePattern.from_failed(P750, [2, 4, 6])
        assert pat.failed == (2, 4, 6)
        assert pat.gaps == (1, 1, 2)

    def test_gaps_sum_for_r_plus_1(self):
        # with r+1 failures the circular gaps always sum to k-1
        for pattern in itertools.combinations(range(1, 8), 3):
            pat = design2.FailurePattern.from_failed(P750, pattern)
            assert sum(pat.gaps) == P750.k - 1

    def test_range_check(self):
        with pytest.raises(ParameterError):
            design2.FailurePattern.from_failed(P750, [0, 3])
        with pytest.raises(ParameterError):
            design2.FailurePattern.from_failed(P750, [])


class TestRecover:
    def test_walkthrough_2_4_6(self):
        data = rand_data(P750, seed=36)
        grid = design2.encode_stripe(P750, data)
        expected = grid.cells.tolist()
        rec = design2.recover_failures(
            P750, [2, 4, 6], grid_reader(grid, failed={2, 4, 6})
        )
        assert sorted(rec) == [2, 4, 6]
        for f, syms in rec.items():
            assert syms == expected[f - 1]

    def test_exhaustive_all_triples(self):
        data = rand_data(P750, seed=37)
        grid = design2.encode_stripe(P750, data)
        expected = grid.cells.tolist()
        for pattern in itertools.combinations(range(1, 8), 3):
            rec = design2.recover_failures(
                P750, pattern, grid_reader(grid, failed=set(pattern))
            )
            for f, syms in rec.items():
                assert syms == expected[f - 1], pattern

    def test_all_patterns_up_to_r(self):
        data = rand_data(P750, seed=38)
        grid = design2.encode_stripe(P750, data)
        expected = grid.cells.tolist()
        for m in (1, 2):
            for pattern in itertools.combinations(range(1, 8), m):
                rec = design2.recover_failures(
                    P750, pattern, grid_reader(grid, failed=set(pattern))
                )
                for f, syms in rec.items():
                    assert syms == expected[f - 1], pattern

    def test_single_failure_agrees_with_repair(self):
        grid = design2.encode_stripe(P750, rand_data(P750, seed=39))
        for f in range(1, 8):
            row, _ = design2.repair_node(P750, f, grid_reader(grid, failed={f}))
            rec = design2.recover_failures(P750, [f], grid_reader(grid, failed={f}))
            assert rec[f] == row

    def test_unsupported_when_k_too_small(self):
        # r+1 = 5 failures need k > (s-1)(r+1)+1 = 11
        p = CodeParams(n=8, k=4, s=3, kprime=0, w=8)
        grid = design2.encode_stripe(p, rand_data(p, seed=40))
        with pytest.raises(UnsupportedPatternError, match="k >"):
            design2.recover_failures(
                p, [1, 2, 3, 4, 5], grid_reader(grid, failed={1, 2, 3, 4, 5})
            )

    def test_more_than_r_plus_1_failures_rejected(self):
        grid = design2.encode_stripe(P750, rand_data(P750, seed=41))
        with pytest.raises(UnsupportedPatternError, match="exceed"):
            design2.recover_failures(
                P750, [1, 2, 3, 4], grid_reader(grid, failed={1, 2, 3, 4})
            )

    def test_missing_surviving_cell_is_an_error(self):
        grid = design2.encode_stripe(P750, rand_data(P750, seed=42))
        with pytest.raises(RepairError):
            design2.recover_failures(
                P750, [2, 4], grid_reader(grid, failed={2, 4, 6})
            )

    def test_corrupt_survivor_never_used_silently(self):
        # one flipped bit in any survivor cell, as read(node) rows and as
        # read(node, col) cells, for every pattern of up to r failures
        grid = design2.encode_stripe(P750, rand_data(P750, seed=44))
        silent = []
        for m in (1, 2):
            for pattern in itertools.combinations(range(1, 8), m):
                for node in set(range(1, 8)) - set(pattern):
                    for col in range(P750.s + 1):
                        cells = grid.cells.copy()
                        cells[node - 1, col] ^= 1
                        reader = grid_reader(SymbolGrid(P750, cells), failed=pattern)
                        flipped = reader(node)[col]
                        assert reader(node, col + 1) == flipped != grid.cells[node - 1, col]
                        try:
                            design2.recover_failures(P750, pattern, reader)
                        except DecodeError:
                            continue
                        silent.append((pattern, node, col + 1))
        assert not silent, f"{len(silent)} silent outcomes: {silent[:5]}"

    def test_reads_each_survivor_row_once(self):
        grid = design2.encode_stripe(P750, rand_data(P750, seed=45))
        for m in (1, 2, 3):
            for pattern in itertools.combinations(range(1, 8), m):
                read = grid_reader(grid, failed=pattern)
                calls = []

                def counting(node, col=None):
                    calls.append((node, col))
                    return read(node, col)

                design2.recover_failures(P750, pattern, counting)
                survivors = [node for node in range(1, 8) if node not in pattern]
                assert sorted(calls) == [(node, None) for node in survivors], pattern


class TestDecodeFromK:
    def test_exhaustive_7_5_2_0(self):
        data = rand_data(P750, seed=43)
        grid = design2.encode_stripe(P750, data)
        for keep in itertools.combinations(range(1, 8), 5):
            rows = {f: [int(x) for x in grid.cells[f - 1]] for f in keep}
            assert design2.decode_from_k(P750, rows) == data

    def test_r_plus_1_lost_rows(self):
        # k-1 rows: decode runs the r+1 sweep, k > (s-1)(r+1)+1 = 4
        data = rand_data(P750, seed=46)
        grid = design2.encode_stripe(P750, data)
        rows = {f: [int(x) for x in grid.cells[f - 1]] for f in (1, 2, 3, 4)}
        assert design2.decode_from_k(P750, rows) == data

    def test_insufficient_rows(self):
        # r+2 rows lost is beyond the sweep
        grid = design2.encode_stripe(P750, rand_data(P750, seed=44))
        rows = {f: [int(x) for x in grid.cells[f - 1]] for f in (1, 2, 3)}
        with pytest.raises(InsufficientDataError):
            design2.decode_from_k(P750, rows)

    def test_corrupt_row_detected(self):
        data = rand_data(P750, seed=45)
        grid = design2.encode_stripe(P750, data)
        rows = {f: [int(x) for x in grid.cells[f - 1]] for f in range(1, 7)}
        rows[6][2] ^= 1
        with pytest.raises(DecodeError):
            design2.decode_from_k(P750, rows)
