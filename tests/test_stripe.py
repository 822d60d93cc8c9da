"""The stripe engine shared by both layouts: placement map and full decode."""

import random

import pytest

from piggyback import CodeParams, DecodeError, ParameterError, grid_reader, stripe
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
    """(k of the instance, positions given) for each MdsCode.decode_data call."""
    sizes = []
    decode_data = MdsCode.decode_data

    def record(inst, known):
        sizes.append((inst.k, len(known)))
        return decode_data(inst, known)

    monkeypatch.setattr(MdsCode, "decode_data", record)
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
