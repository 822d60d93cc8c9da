"""First piggybacking layout: placement, encode, repair, full decode."""

import itertools
import random

import numpy as np
import pytest

from piggyback import (
    CodeParams,
    DecodeError,
    InsufficientDataError,
    ParameterError,
    RepairError,
    analysis,
    design1,
    field,
    grid_reader,
)

P863 = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
P2014 = CodeParams(n=20, k=14, s=1, kprime=14, w=8)


def rand_data(params, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(params.fld.q) for _ in range(params.data_symbols)]


def all_tuples(n_max, step=1):
    out = []
    for n in range(3, n_max + 1):
        for k in range(1, n, step):
            for kp in range(1, k + 1, step):
                h = k - kp
                for s in range(1, h + (n - k) - 1, step):
                    out.append(CodeParams(n=n, k=k, s=s, kprime=kp, w=8))
    return out


class TestPiggybackIndex:
    def test_worked_example_first_type(self):
        assert design1.piggyback_index(P863, 1, 1) == (1, 5)

    def test_worked_example_second_type(self):
        # i+j <= n branch: t = 1+5-6+3 = 3, tau = 2
        assert design1.piggyback_index(P863, 1, 5) == (2, 6)

    def test_worked_example_mds_case(self):
        assert design1.piggyback_index(P2014, 1, 1) == (1, 16)

    def test_wraparound_branch(self):
        # i+j > n: t = i+j-n+1
        assert design1.piggyback_index(P863, 1, 8) == (1, 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            design1.piggyback_index(P863, 0, 1)
        with pytest.raises(ParameterError):
            design1.piggyback_index(P863, 2, 1)
        with pytest.raises(ParameterError):
            design1.piggyback_index(P863, 1, 9)

    def test_design2_params_rejected(self):
        p = CodeParams(7, 5, 2, 0, w=8)
        with pytest.raises(ParameterError):
            design1.piggyback_index(p, 1, 1)

    def test_target_row_is_kprime_plus_1_plus_tau(self):
        for params in (P863, P2014, CodeParams(16, 10, 2, 10, w=8)):
            for i in range(1, params.s + 1):
                for j in range(1, params.n + 1):
                    tau, target = design1.piggyback_index(params, i, j)
                    assert target == params.kprime + 1 + tau
                    assert 1 <= tau <= params.h + params.r - 1


class TestBuildMap:
    def test_counts_8_6_1_3(self):
        pb = design1.build_map(P863)
        assert pb.counts == {1: 2, 2: 2, 3: 2, 4: 2}
        assert sum(pb.counts.values()) == P863.s * P863.n

    def test_counts_20_14_1_14(self):
        pb = design1.build_map(P2014)
        assert pb.counts == {t: 4 for t in range(1, 6)}

    def test_first_sum_contents_20_14_1_14(self):
        # rows 1, 6, 11 of the data plus the last parity row of column 1
        pb = design1.build_map(P2014)
        assert pb.contributors[1] == ((1, 1), (1, 6), (1, 11), (1, 20))

    def test_every_source_cell_in_exactly_one_sum(self):
        for params in all_tuples(12):
            pb = design1.build_map(params)
            seen = [cell for tau in pb.contributors for cell in pb.contributors[tau]]
            assert len(seen) == params.s * params.n
            assert len(set(seen)) == len(seen)

    def test_no_contributor_in_its_own_target_row(self):
        for params in all_tuples(12):
            pb = design1.build_map(params)
            for (i, j), (tau, target) in pb.source_to_tau.items():
                assert j != target

    def test_row_symbols_feed_distinct_sums(self):
        for params in all_tuples(12):
            pb = design1.build_map(params)
            for j in range(1, params.n + 1):
                taus = [pb.source_to_tau[(i, j)][0] for i in range(1, params.s + 1)]
                assert len(set(taus)) == params.s


class TestEncode:
    def test_zero_data_zero_grid(self):
        grid = design1.encode_stripe(P863, [0] * 9)
        assert not grid.cells.any()

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            design1.encode_stripe(P863, [0] * 8)

    def test_last_column_layout_8_6_1_3(self):
        # layout over the code's parity rows, checked against a direct
        # construction of every piggyback sum from the raw columns
        params = P863
        data = rand_data(params, seed=21)
        a1, b = data[:6], data[6:]
        grid = design1.encode_stripe(params, data)
        f = field(8)
        P = params.mds_first.parity
        Q = params.mds_last.parity
        col1 = a1 + [f.dot(P[0], a1), f.dot(P[1], a1)]
        piggy = {
            1: col1[0] ^ col1[7],   # a11 + P2a1
            2: col1[1] ^ col1[4],   # a12 + a15
            3: col1[2] ^ col1[5],   # a13 + a16
            4: col1[3] ^ col1[6],   # a14 + P1a1
        }
        expect_last = b + [f.dot(Q[0], b)] + [
            f.dot(Q[t], b) ^ piggy[t] for t in range(1, 5)
        ]
        assert [int(x) for x in grid.cells[:, 1]] == expect_last
        assert [int(x) for x in grid.cells[:, 0]] == col1

    def test_first_columns_are_codewords(self):
        for params in (P863, P2014):
            data = rand_data(params, seed=3)
            grid = design1.encode_stripe(params, data)
            for i in range(1, params.s + 1):
                col = [int(x) for x in grid.cells[:, i - 1]]
                assert params.mds_first.encode(col[: params.k]) == col

    def test_last_column_minus_piggybacks_is_codeword(self):
        params = CodeParams(11, 6, 2, 4, w=8)
        data = rand_data(params, seed=4)
        grid = design1.encode_stripe(params, data)
        pb = design1.build_map(params)
        last = [int(x) for x in grid.cells[:, params.s]]
        for tau, sources in pb.contributors.items():
            acc = 0
            for ci, cj in sources:
                acc ^= int(grid.cells[cj - 1, ci - 1])
            last[params.kprime + tau] ^= acc
        assert params.mds_last.encode(last[: params.kprime]) == last


class TestRepair:
    def test_bandwidths_8_6_1_3(self):
        grid = design1.encode_stripe(P863, rand_data(P863, seed=5))
        expected = grid.cells.tolist()
        bws = []
        for f in range(1, 9):
            row, rep = design1.repair_node(P863, f, grid_reader(grid, failed={f}))
            assert row == expected[f - 1]
            assert rep.bandwidth == len(rep.reads)
            assert all(node != f for node, _ in rep.reads)
            bws.append(rep.bandwidth)
        assert bws == [5, 5, 5, 5, 7, 7, 7, 7]

    def test_node1_read_trace(self):
        # three last-column reads, the piggybacked parity, one contributor
        grid = design1.encode_stripe(P863, rand_data(P863, seed=6))
        _, rep = design1.repair_node(P863, 1, grid_reader(grid, failed={1}))
        assert rep.reads == ((2, 2), (3, 2), (4, 2), (5, 2), (8, 1))

    def test_node5_read_trace(self):
        grid = design1.encode_stripe(P863, rand_data(P863, seed=6))
        _, rep = design1.repair_node(P863, 5, grid_reader(grid, failed={5}))
        assert rep.reads == (
            (1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (6, 2), (8, 1)
        )

    def test_bandwidths_20_14_1_14(self):
        grid = design1.encode_stripe(P2014, rand_data(P2014, seed=7))
        expected = grid.cells.tolist()
        for f in range(1, 21):
            row, rep = design1.repair_node(P2014, f, grid_reader(grid, failed={f}))
            assert row == expected[f - 1]
            assert rep.bandwidth == (18 if f <= 15 else 22)

    def test_bandwidth_equals_closed_form_across_tuples(self):
        rng = random.Random(8)
        params_list = rng.sample(all_tuples(16), 40)
        for params in params_list:
            grid = design1.encode_stripe(params, rand_data(params, seed=9))
            expected = grid.cells.tolist()
            for f in range(1, params.n + 1):
                row, rep = design1.repair_node(
                    params, f, grid_reader(grid, failed={f})
                )
                assert row == expected[f - 1]
                assert rep.bandwidth == analysis.repair_bandwidth_closed_form(params, f)
                assert rep.bandwidth == len(rep.reads)

    def test_repair_with_default_family_w16(self):
        params = CodeParams(n=12, k=8, s=2, kprime=5)
        grid = design1.encode_stripe(params, rand_data(params, seed=10))
        expected = grid.cells.tolist()
        for f in (1, 6, 9, 12):
            row, rep = design1.repair_node(params, f, grid_reader(grid, failed={f}))
            assert row == expected[f - 1]

    def test_unreadable_cell_names_the_cell(self):
        grid = design1.encode_stripe(P863, rand_data(P863, seed=11))
        with pytest.raises(RepairError, match=r"node=2, column=2"):
            design1.repair_node(P863, 1, grid_reader(grid, failed={1, 2}))

    def test_bad_node_rejected(self):
        grid = design1.encode_stripe(P863, rand_data(P863, seed=12))
        with pytest.raises(ParameterError):
            design1.repair_node(P863, 0, grid_reader(grid))
        with pytest.raises(ParameterError):
            design1.repair_node(P863, 9, grid_reader(grid))


class TestDecodeFromK:
    def test_exhaustive_8_6_1_3(self):
        data = rand_data(P863, seed=13)
        grid = design1.encode_stripe(P863, data)
        for keep in itertools.combinations(range(1, 9), 6):
            rows = {f: [int(x) for x in grid.cells[f - 1]] for f in keep}
            assert design1.decode_from_k(P863, rows) == data

    def test_systematic_rows_fast_path(self):
        data = rand_data(P2014, seed=14)
        grid = design1.encode_stripe(P2014, data)
        rows = {f: [int(x) for x in grid.cells[f - 1]] for f in range(1, 15)}
        assert design1.decode_from_k(P2014, rows) == data

    def test_all_rows_supplied(self):
        data = rand_data(P863, seed=15)
        grid = design1.encode_stripe(P863, data)
        rows = {f: [int(x) for x in grid.cells[f - 1]] for f in range(1, 9)}
        assert design1.decode_from_k(P863, rows) == data

    def test_insufficient_rows(self):
        data = rand_data(P863, seed=16)
        grid = design1.encode_stripe(P863, data)
        rows = {f: [int(x) for x in grid.cells[f - 1]] for f in range(1, 6)}
        with pytest.raises(InsufficientDataError):
            design1.decode_from_k(P863, rows)

    def test_corrupt_row_detected(self):
        data = rand_data(P863, seed=17)
        grid = design1.encode_stripe(P863, data)
        rows = {f: [int(x) for x in grid.cells[f - 1]] for f in range(1, 8)}
        rows[7][0] ^= 1
        with pytest.raises(DecodeError):
            design1.decode_from_k(P863, rows)

    def test_vector_symbols_roundtrip(self):
        # columns of several stripes at once, as the shard layer uses it
        rng = random.Random(18)
        batch = 5
        data = [
            np.array([rng.randrange(256) for _ in range(batch)], dtype=np.uint32)
            for _ in range(P863.data_symbols)
        ]
        grid = design1.encode_stripe(P863, data)
        rows = {f: list(grid.cells[f - 1]) for f in (1, 3, 4, 6, 7, 8)}
        out = design1.decode_from_k(P863, rows)
        for want, got in zip(data, out):
            assert np.array_equal(want, got)

    @pytest.mark.parametrize("vector", [False, True], ids=["int", "array"])
    def test_corrupt_redundant_last_column_detected(self, vector):
        # rows 7 and 8 take no part in decoding (the first k rows decode
        # columns 1..s, the first k' rows column s+1), so only the check of
        # the supplied rows against the decoded stripe can see the flip
        if vector:
            rng = np.random.default_rng(19)
            data = [rng.integers(0, 256, 4, dtype=np.uint8)
                    for _ in range(P863.data_symbols)]
        else:
            data = rand_data(P863, seed=19)
        grid = design1.encode_stripe(P863, data)
        rows = {f: [np.copy(x) if vector else int(x) for x in grid.cells[f - 1]]
                for f in range(1, 9)}
        if vector:
            rows[7][P863.s][2] ^= 1
        else:
            rows[7][P863.s] ^= 1
        with pytest.raises(DecodeError):
            design1.decode_from_k(P863, rows)
