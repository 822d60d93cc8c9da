"""The stripe engine shared by both layouts: placement map and full decode."""

import random

import pytest

from piggyback import CodeParams, ParameterError, grid_reader, stripe

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


@pytest.mark.parametrize("failed", [[], [0], [9], [2, 9]],
                         ids=["empty", "zero", "above_n", "mixed"])
def test_recover_nodes_rejects_bad_failed_set(failed):
    params = LAYOUTS[0]
    grid = stripe.encode_stripe(params, [0] * params.data_symbols)
    with pytest.raises(ParameterError):
        stripe.recover_nodes(params, failed, grid_reader(grid, failed=failed))
