"""Systematic MDS instances: encode, erasure decode, MDS verification."""

import itertools
import random

import numpy as np
import pytest

from piggyback import (
    DecodeError,
    InsufficientDataError,
    ParameterError,
    field,
    mds,
    mds_code,
)
from piggyback.field import Field
from piggyback.mds import MdsCode


def test_zero_data_encodes_to_zero():
    inst = mds_code(8, 6, 8)
    assert inst.encode([0] * 6) == [0] * 8


def test_encode_is_linear():
    rng = random.Random(1)
    inst = mds_code(10, 7, 16)
    for _ in range(20):
        d1 = [rng.randrange(1 << 16) for _ in range(7)]
        d2 = [rng.randrange(1 << 16) for _ in range(7)]
        cw1, cw2 = inst.encode(d1), inst.encode(d2)
        cw12 = inst.encode([a ^ b for a, b in zip(d1, d2)])
        assert cw12 == [a ^ b for a, b in zip(cw1, cw2)]


def test_encode_length_mismatch():
    with pytest.raises(ParameterError):
        mds_code(8, 6, 8).encode([1, 2, 3])


def test_decode_systematic_positions_direct():
    rng = random.Random(2)
    inst = mds_code(8, 6, 8)
    data = [rng.randrange(256) for _ in range(6)]
    cw = inst.encode(data)
    out = inst.decode({p: cw[p - 1] for p in range(1, 7)})
    assert out == cw


def test_decode_all_erasure_patterns_8_6():
    rng = random.Random(3)
    inst = mds_code(8, 6, 8)
    data = [rng.randrange(256) for _ in range(6)]
    cw = inst.encode(data)
    for keep in itertools.combinations(range(1, 9), 6):
        out = inst.decode({p: cw[p - 1] for p in keep})
        assert out == cw, keep
    # stripe arrays of uint16 symbols, as w=16 shards hold them
    wide = mds_code(8, 6, 16)
    stripes = np.random.default_rng(3).integers(0, 1 << 16, (6, 64), dtype=np.uint16)
    cw = wide.encode(list(stripes))
    for keep in itertools.combinations(range(1, 9), 6):
        out = wide.decode_data({p: cw[p - 1] for p in keep})
        assert all(x.dtype == np.uint16 for x in out), keep
        assert np.array_equal(np.array(out), stripes), keep


def test_decode_rejects_more_than_k_positions():
    # the caller chooses the basis: k+1 positions are not silently narrowed
    inst = mds_code(9, 5, 16)
    cw = inst.encode(list(range(1, 6)))
    known = {p: cw[p - 1] for p in (1, 3, 5, 6, 8, 9)}
    with pytest.raises(ParameterError, match="exactly 5"):
        inst.decode_data(known)
    with pytest.raises(ParameterError, match="exactly 5"):
        inst.decode(known)


def test_decode_insufficient_positions():
    inst = mds_code(8, 6, 8)
    with pytest.raises(InsufficientDataError):
        inst.decode({1: 0, 2: 0})


def test_verify_mds_guaranteed_rs_passes():
    for n, k in [(8, 6), (12, 8), (10, 1), (9, 8)]:
        check = mds_code(n, k, 8).verify_mds()
        assert check.passed and check.witness is None


@pytest.fixture
def inverted_sizes(monkeypatch):
    """Sizes of the matrices mds._invert is called on."""
    sizes = []
    invert = mds._invert

    def record(mat, fld):
        sizes.append(len(mat))
        return invert(mat, fld)

    monkeypatch.setattr(mds, "_invert", record)
    return sizes


def test_decode_inverts_only_the_erased_block(inverted_sizes):
    rng = random.Random(8)
    inst = MdsCode(8, 6, field(8))  # fresh, so no plan is cached yet
    cw = inst.encode([rng.randrange(256) for _ in range(6)])
    known = {p: cw[p - 1] for p in (1, 2, 4, 5, 6, 7)}
    assert inst.decode(known) == cw
    assert inverted_sizes == [1]


def test_sampled_verify_inverts_at_most_r_by_r(inverted_sizes):
    check = MdsCode(40, 32, field(8)).verify_mds(mode="sampled", samples=200)
    assert check.passed and check.tested == 200
    assert len(inverted_sizes) == 200
    assert max(inverted_sizes) <= 8


@pytest.fixture
def singular_pairs(monkeypatch):
    """Every 2 x 2 block mds._invert is given is singular, so a k-subset
    with two erased data positions does not decode."""
    invert = mds._invert
    monkeypatch.setattr(
        mds, "_invert", lambda mat, fld: None if len(mat) == 2 else invert(mat, fld)
    )


def test_singular_decode_names_positions(singular_pairs):
    inst = MdsCode(8, 6, field(8))  # fresh, so no plan is cached yet
    cw = inst.encode([0x17] * 6)
    assert inst.decode({p: cw[p - 1] for p in (1, 2, 3, 4, 5, 7)}) == cw
    with pytest.raises(DecodeError, match=r"\(1, 2, 3, 4, 7, 8\)"):
        inst.decode({p: cw[p - 1] for p in (1, 2, 3, 4, 7, 8)})


def test_verify_mds_singular_block_gives_witness(singular_pairs):
    # in lexicographic order, (1, 2, 3, 4, 7, 8) is the sixth 6-subset
    # and the first with two erased data positions
    check = MdsCode(8, 6, field(8)).verify_mds()
    assert not check.passed
    assert check.witness == (1, 2, 3, 4, 7, 8)
    assert check.tested == 6


def test_verify_mds_budget_exceeded_points_to_sampled():
    inst = mds_code(30, 15, 8)
    with pytest.raises(ParameterError, match="sampled"):
        inst.verify_mds(mode="exhaustive", budget=1000)
    check = inst.verify_mds(mode="sampled", samples=200)
    assert check.passed and check.tested == 200


def test_verify_mds_n_equals_k_vacuous():
    check = MdsCode(5, 5, field(8)).verify_mds()
    assert check.passed and check.tested == 1


def test_rs_parity_entries_all_nonzero():
    # every k x k submatrix invertible forces nonzero parity entries;
    # the one-unknown repair path relies on this
    for n, k in [(8, 6), (12, 8), (20, 14), (9, 3)]:
        inst = mds_code(n, k, 16)
        assert all(all(row) for row in inst.parity)


def test_solve_matches_encode():
    rng = random.Random(6)
    inst = mds_code(10, 6, 8)
    data = [rng.randrange(256) for _ in range(6)]
    cw = inst.encode(data)
    positions = range(1, 11)
    for keep in [(1, 2, 3, 4, 5, 6), (2, 3, 5, 7, 8, 10), (5, 6, 7, 8, 9, 10)]:
        known = {p: cw[p - 1] for p in keep}
        assert inst.solve(known, positions) == cw
        for pos in positions:
            assert inst.solve(known, [pos]) == [cw[pos - 1]]
        assert inst.solve(known, [9, 1, 9]) == [cw[8], cw[0], cw[8]]
        with pytest.raises(ParameterError):
            inst.solve(known, [11])
        with pytest.raises(ParameterError):
            inst.solve(known, [0, 1])


def test_bad_shape_rejected():
    with pytest.raises(ParameterError):
        MdsCode(6, 8, field(8))
    with pytest.raises(ParameterError):
        MdsCode(300, 6, field(8))  # more points than the field has


@pytest.mark.parametrize("w", [8, 16])
def test_array_encode_and_multi_erasure_decode_build_no_lane_table(w):
    # one gather per input byte for every group of parity rows: a fallback
    # to one lane-table gather per coefficient would build product tables
    # here (r = 4, and e >= 3 erased data symbols)
    fld = Field(w)  # fresh, so every table it builds is counted
    inst = MdsCode(14, 10, fld)
    rng = np.random.default_rng(w)
    data = [rng.integers(0, fld.q, 97, dtype=fld.dtype) for _ in range(10)]
    cw = inst.encode(data)
    for lost in [(1, 2, 3), (3, 5, 8, 12), (2, 4, 6, 9)]:
        known = {p: cw[p - 1] for p in range(1, 15) if p not in lost}
        known = dict(itertools.islice(known.items(), 10))
        got = inst.decode_data(known)
        assert all(np.array_equal(a, b) for a, b in zip(got, data))
    assert fld.product_table.cache_info().misses == 0
    assert fld.packed_table.cache_info().misses > 0
    # the plain-int codeword of each stripe is the same
    for t in (0, 96):
        assert inst.encode([int(d[t]) for d in data]) == [int(c[t]) for c in cw]
