"""The stripe engine shared by both layouts: placement map and full decode."""

import functools
import random

import numpy as np
import pytest

from piggyback import CodeParams, DecodeError, ParameterError, grid_reader, stripe
from piggyback import params as params_module
from piggyback.field import Field
from piggyback.mds import MdsCode

LAYOUTS = [CodeParams(8, 6, 1, 3, w=8), CodeParams(14, 10, 2, 10, w=8),
           CodeParams(7, 5, 2, 0, w=8)]


@pytest.mark.parametrize("params", LAYOUTS, ids=lambda p: p.variant.value)
def test_row_view_shares_contributor_tuples(params):
    pb = stripe.build_map(params)
    assert len(pb.sums) == len(pb.contributors)
    for (i, j), (tau, target) in pb.source_to_tau.items():
        assert pb.sums[target] is pb.contributors[tau]
        assert (i, j) in pb.sums[target]


@pytest.mark.parametrize("params", LAYOUTS, ids=lambda p: p.variant.value)
def test_decode_stripe_rebuilds_every_row(params):
    rng = random.Random(3)
    data = [rng.randrange(256) for _ in range(params.data_symbols)]
    rows = stripe.encode_stripe(params, data).cells.tolist()
    keep = rng.sample(range(1, params.n + 1), params.k)
    assert stripe.decode_stripe(params, {f: rows[f - 1] for f in keep}) == rows


@pytest.mark.parametrize(
    "params, supplied",
    [pytest.param(p, p.k + 1, id=p.variant.value) for p in LAYOUTS]
    + [pytest.param(p, p.n, id=f"{p.variant.value}-all_rows") for p in LAYOUTS],
)
def test_decode_stripe_catches_any_corrupt_cell(params, supplied):
    # a flipped cell of a row the stripe is decoded from shows up in every
    # redundant row, and one of a redundant row shows up in that row
    rng = random.Random(4)
    data = [rng.randrange(256) for _ in range(params.data_symbols)]
    rows = stripe.encode_stripe(params, data).cells.tolist()
    keep = sorted(rng.sample(range(1, params.n + 1), supplied))
    for node in keep:
        for c in range(params.s + 1):
            given = {f: list(rows[f - 1]) for f in keep}
            given[node][c] ^= 0x21
            with pytest.raises(DecodeError):
                stripe.decode_stripe(params, given)


@pytest.fixture
def decode_sizes(monkeypatch):
    """(k of the instance, positions given) for each MdsCode.decode call."""
    sizes = []
    decode = MdsCode.decode

    def record(inst, known):
        sizes.append((inst.k, len(known)))
        return decode(inst, known)

    monkeypatch.setattr(MdsCode, "decode", record)
    return sizes


@pytest.mark.parametrize(
    "params, lost",
    [pytest.param(p, range(1, m + 1), id=f"{p.variant.value}-{name}")
     for p in LAYOUTS
     for name, m in [("k", p.r), ("k+1", p.r - 1), ("all", 0)]]
    + [pytest.param(LAYOUTS[2], (2, 4, 6), id="design2-r+1")],
)
def test_decode_stripe_hands_mds_exactly_its_basis(params, lost, decode_sizes):
    # k positions per codeword column, k' for column s+1: none to spare
    rng = random.Random(5)
    data = [rng.randrange(256) for _ in range(params.data_symbols)]
    rows = stripe.encode_stripe(params, data).cells.tolist()
    given = {f: rows[f - 1] for f in range(1, params.n + 1) if f not in lost}
    assert stripe.decode_stripe(params, given) == rows
    assert len(decode_sizes) == params.s + (params.kprime > 0)
    assert all(count == k for k, count in decode_sizes), decode_sizes


@pytest.mark.parametrize("failed", [[], [0], [9], [2, 9]],
                         ids=["empty", "zero", "above_n", "mixed"])
def test_recover_nodes_rejects_bad_failed_set(failed):
    params = LAYOUTS[0]
    grid = stripe.encode_stripe(params, [0] * params.data_symbols)
    with pytest.raises(ParameterError):
        stripe.recover_nodes(params, failed, grid_reader(grid, failed=failed))


@pytest.mark.parametrize(
    "params, lost",
    [pytest.param(CodeParams(14, 10, 2, 10, w=16), lost, id=f"design1-w16-{name}")
     for name, lost in [("k", (3, 8, 12, 14))]]
    + [pytest.param(CodeParams(14, 10, 2, 0, w=8), lost, id=f"design2-w8-{name}")
       for name, lost in [("k", (2, 7, 11, 13)), ("r+1", (2, 5, 7, 11, 13))]]
    + [pytest.param(CodeParams(8, 6, 1, 3, w=8), (1, 5), id="design1-w8-s1-k"),
       pytest.param(CodeParams(12, 8, 3, 4, w=16), (2, 5, 9, 12), id="design1-w16-s3-k"),
       pytest.param(CodeParams(12, 10, 3, 0, w=8), (2, 6, 11), id="design2-w8-s3-r+1")],
)
def test_array_path_matches_int_path_stripe_by_stripe(params, lost):
    # the array path multiplies by packed tables and solves columns 1..s
    # as one block, the int path multiplies by exp/log column by column:
    # every stripe of a batch must come out the same both ways, with rows
    # handed as lists of 1-D arrays and as the shard path's (s+1, batch)
    # arrays
    rng = np.random.default_rng(params.w + len(lost))
    q, batch = 1 << params.w, 23
    dtype = np.uint8 if params.w == 8 else np.uint16
    data = [rng.integers(0, q, batch, dtype=dtype) for _ in range(params.data_symbols)]
    data[0][0] = q - 1
    grid = stripe.encode_stripe(params, data)
    keep = [f for f in range(1, params.n + 1) if f not in lost]
    want = []  # (data, recovered rows) of each stripe on the int path
    for t in range(batch):
        ints = [int(d[t]) for d in data]
        int_grid = stripe.encode_stripe(params, ints)
        assert grid.cells[:, :, t].tolist() == int_grid.cells.tolist(), t
        int_rows = {f: int_grid.row(f) for f in keep}
        assert stripe.decode_from_k(params, int_rows) == ints
        int_reader = grid_reader(int_grid, failed=lost)
        want.append((ints, stripe.recover_nodes(params, lost, int_reader)))
    read = grid_reader(grid, failed=lost)
    forms = {
        "lists": ({f: grid.row(f) for f in keep}, lambda node: list(read(node))),
        "blocks": ({f: grid.cells[f - 1] for f in keep}, read),
    }
    for form, (rows, reader) in forms.items():
        decoded = stripe.decode_from_k(params, rows)
        recovered = stripe.recover_nodes(params, lost, reader)
        assert all(d.dtype == dtype for d in decoded), form
        for t, (ints, want_rec) in enumerate(want):
            assert [int(d[t]) for d in decoded] == ints, (form, t)
            got = {f: [int(x[t]) for x in row] for f, row in recovered.items()}
            assert got == want_rec, (form, t)


@pytest.mark.parametrize(
    "params", [CodeParams(14, 10, 2, 10, w=16), CodeParams(8, 6, 1, 3, w=8)],
    ids=lambda p: f"{p.variant.value}-w{p.w}",
)
def test_array_repair_matches_int_repair_stripe_by_stripe(params):
    # the parity under each piggyback comes from one solve over the plain
    # cells: on arrays and on ints alike it must give every stripe's cells
    rng = np.random.default_rng(params.w + params.n)
    q, batch = 1 << params.w, 19
    dtype = np.uint8 if params.w == 8 else np.uint16
    data = [rng.integers(0, q, batch, dtype=dtype) for _ in range(params.data_symbols)]
    data[-1][0] = q - 1
    grid = stripe.encode_stripe(params, data)
    int_grids = [
        stripe.encode_stripe(params, [int(d[t]) for d in data]) for t in range(batch)
    ]
    for f in range(1, params.n + 1):
        got, report = stripe.repair_node(params, f, grid_reader(grid, failed=[f]))
        assert [x.dtype for x in got] == [dtype] * (params.s + 1)
        for t, int_grid in enumerate(int_grids):
            want, int_report = stripe.repair_node(
                params, f, grid_reader(int_grid, failed=[f])
            )
            assert [int(x[t]) for x in got] == want == int_grid.row(f), (f, t)
            assert int_report == report


def test_array_repair_and_decode_build_no_lane_table(monkeypatch):
    # the last column's parities in a k' > 0 repair (s + 1 = 3 rows) and a
    # decode's r = 4 missing positions are each one packed-table solve: a
    # fallback to one lane-table gather per coefficient would build
    # product tables here
    fld = Field(16)  # fresh, so every table it builds is counted
    monkeypatch.setattr(
        params_module, "mds_code",
        functools.lru_cache(None)(lambda n, k, w, family: MdsCode(n, k, fld, family)),
    )
    params = CodeParams(14, 10, 2, 10, w=16)
    rng = np.random.default_rng(17)
    data = [rng.integers(0, fld.q, 41, dtype=np.uint16)
            for _ in range(params.data_symbols)]
    grid = stripe.encode_stripe(params, data)
    for f in (1, 11, 14):
        got, _ = stripe.repair_node(params, f, grid_reader(grid, failed=[f]))
        assert all(np.array_equal(a, b) for a, b in zip(got, grid.row(f)))
    inst = params.mds_first
    cw = inst.encode(data[:10])
    known = {p: cw[p - 1] for p in (1, 2, 3, 5, 6, 7, 9, 10, 12, 14)}
    assert all(np.array_equal(a, b) for a, b in zip(inst.decode(known), cw))
    assert fld.product_table.cache_info().misses == 0
    assert fld.packed_table.cache_info().misses > 0
