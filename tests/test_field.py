"""GF(2^w) arithmetic against an independent bitwise oracle."""

import random

import numpy as np
import pytest

from piggyback import ParameterError, field, parity_vectors
from piggyback.field import PRODUCT_TABLES, REDUCTION_POLY, Field, carryless_mul


def slow_mul(a, b, poly, w):
    """Shift-and-reduce polynomial multiply, the oracle for table mul."""
    res = 0
    while b:
        if b & 1:
            res ^= a
        a <<= 1
        b >>= 1
    for bit in range(res.bit_length() - 1, w - 1, -1):
        if res >> bit & 1:
            res ^= poly << (bit - w)
    return res


def poly_divides(g, p):
    while p.bit_length() >= g.bit_length():
        p ^= g << (p.bit_length() - g.bit_length())
    return p == 0


@pytest.mark.parametrize("w", [8, 16])
def test_reduction_poly_irreducible(w):
    poly = REDUCTION_POLY[w]
    for d in range(1, w // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            assert not poly_divides(g, poly), f"factor {g:#x} of degree {d}"


@pytest.mark.parametrize("w", [8, 16])
def test_eta_is_primitive(w):
    f = field(w)
    order = f.q - 1
    # order of eta divides q-1; primitive means no proper divisor works
    for d in range(1, order):
        if order % d == 0 and f.pow(f.eta, d) == 1:
            pytest.fail(f"eta has order {d} < {order}")
    assert f.pow(f.eta, order) == 1


def test_add_is_xor_self_cancel():
    f = field(8)
    assert f.add(0x57, 0x57) == 0x00
    assert f.add(0x12, 0x00) == 0x12


def test_mul_single_shift_reduce_example():
    # one shift past degree 8 reduced by 0x11D
    f = field(8)
    assert f.mul(0x80, 0x02) == 0x1D
    assert slow_mul(0x80, 0x02, 0x11D, 8) == 0x1D


def test_inv_identity_and_zero():
    f = field(8)
    assert f.inv(0x01) == 0x01
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.div(5, 0)


@pytest.mark.parametrize("w,rounds", [(8, 4000), (16, 2000)])
def test_mul_matches_slow_oracle(w, rounds):
    f = field(w)
    rng = random.Random(w)
    for _ in range(rounds):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.mul(a, b) == slow_mul(a, b, f.poly, w)


@pytest.mark.parametrize("w", [8, 16])
def test_field_axioms_on_random_triples(w):
    f = field(w)
    rng = random.Random(100 + w)
    for _ in range(500):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.div(f.mul(a, b), a) == b


def test_pow_matches_repeated_mul():
    f = field(8)
    rng = random.Random(9)
    for _ in range(100):
        a = rng.randrange(1, f.q)
        e = rng.randrange(0, 600)
        acc = 1
        for _ in range(e):
            acc = f.mul(acc, a)
        assert f.pow(a, e) == acc
    assert f.pow(0, 0) == 1
    assert f.pow(0, 7) == 0


def test_vector_mul_matches_scalar_path():
    f = field(16)
    rng = random.Random(11)
    a = rng.randrange(f.q)
    vec = np.array([rng.randrange(f.q) for _ in range(257)], dtype=np.uint32)
    vec[0] = 0
    out = f.mul(a, vec)
    assert out.dtype == np.uint32
    assert [int(x) for x in out] == [f.mul(a, int(x)) for x in vec]
    assert not f.mul(0, vec).any()


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_vector_mul_all_pairs_w8(dtype):
    f = field(8)
    want = np.array([[f.mul(a, b) for b in range(256)] for a in range(256)])
    vec = np.arange(256, dtype=dtype)
    for a in range(256):
        out = f.mul(a, vec)
        assert out.dtype == vec.dtype
        assert np.array_equal(out, want[a]), a
    assert f.mul(0, vec).dtype == vec.dtype


def test_vector_mul_w16_native_dtype():
    f = field(16)
    rng = random.Random(14)
    vec = np.array([rng.randrange(f.q) for _ in range(4000)], dtype=np.uint16)
    vec[:2] = (0, f.order)
    for a in [0, 1, f.order] + [rng.randrange(f.q) for _ in range(20)]:
        out = f.mul(a, vec)
        assert out.dtype == np.uint16
        assert [int(x) for x in out] == [f.mul(a, int(x)) for x in vec]


def w8_arrays():
    """uint8 arrays over every symbol: lengths 0, 1, 2, 257 and a strided view."""
    for b in range(256):
        yield np.array([b], dtype=np.uint8)  # the last lane holds one symbol
        yield np.array([b, 255 - b], dtype=np.uint8)  # b in both lane halves
    yield np.zeros(0, dtype=np.uint8)
    yield (np.arange(257) * 7 % 256).astype(np.uint8)
    # every third element of a longer array: 257 symbols, all 256 values occur
    yield (np.arange(771) % 256).astype(np.uint8)[::3]


def test_lane_mul_w8_matches_carryless_oracle():
    f = field(8)
    want = np.array(
        [[carryless_mul(a, b, f.poly, 8) for b in range(256)] for a in range(256)],
        dtype=np.uint8,
    )
    arrays = list(w8_arrays())
    assert not arrays[-1].flags.c_contiguous
    for a in range(256):
        for vec in arrays:
            out = f.mul(a, vec)
            assert out.dtype == np.uint8 and out.shape == vec.shape
            assert np.array_equal(out, want[a][vec]), (a, vec)


def test_lane_mul_w16_strided_view():
    f = field(16)
    rng = np.random.default_rng(17)
    base = rng.integers(0, f.q, 3001, dtype=np.uint16)
    view = base[1::3]
    for a in [0, 1, f.order] + [int(x) for x in rng.integers(0, f.q, 10)]:
        out = f.mul(a, view)
        assert [int(x) for x in out] == [f.mul(a, int(x)) for x in view]


@pytest.mark.parametrize("w,dtype", [
    (8, np.uint8), (8, np.uint16), (8, np.uint32), (16, np.uint16), (16, np.uint32),
])
def test_lane_mul_keeps_dtype_and_never_aliases(w, dtype):
    f = field(w)
    vec = np.arange(min(f.q, 256) - 1, -1, -1, dtype=dtype)
    for a in (0, 1, 3):
        out = f.mul(a, vec)
        assert out.dtype == vec.dtype
        assert not np.shares_memory(out, vec)
        assert [int(x) for x in out] == [f.mul(a, int(x)) for x in vec]


def test_foreign_dtype_out_of_range_raises_not_clipped():
    f = field(8)
    vec = np.array([1, 256, 2], dtype=np.uint32)
    with pytest.raises(ParameterError, match="outside GF"):
        f.mul(3, vec)
    with pytest.raises(ParameterError, match="outside GF"):
        f.mul(3, np.array([-1], dtype=np.int64))
    with pytest.raises(ParameterError):
        f.mul(3, np.array([2.0]))
    assert f.mul(3, vec[::2]).tolist() == [3, 6]


@pytest.mark.parametrize("w", [8, 16])
def test_product_table_is_one_lane_table(w):
    f = Field(w)
    table = f.product_table(7)
    assert table.dtype == np.dtype("<u2")
    assert table.shape == (1 << 16,)
    assert not table.flags.writeable
    lanes = range(0, 1 << 16, 257)
    if w == 16:
        assert [int(table[x]) for x in lanes] == [f.mul(7, x) for x in lanes]
    else:
        assert [int(table[x]) for x in lanes] == [
            f.mul(7, x & 0xFF) | f.mul(7, x >> 8) << 8 for x in lanes
        ]


@pytest.mark.parametrize("w", [8, 16])
def test_exp_log_tables_match_carryless_reference(w):
    f = Field(w)
    exp, log = [0] * (2 * f.order), [-1] * f.q
    x = 1
    for i in range(f.order):
        exp[i] = exp[i + f.order] = x
        log[x] = i
        x = carryless_mul(x, f.eta, f.poly, w)
    assert f._exp == exp
    assert f._log == log


def test_product_table_cache_is_bounded():
    f = Field(16)
    rng = random.Random(15)
    vec = np.array([rng.randrange(f.q) for _ in range(64)], dtype=np.uint16)
    coeffs = rng.sample(range(1, f.q), PRODUCT_TABLES + 40)
    for a in coeffs + coeffs[:10]:
        out = f.mul(a, vec)
        assert [int(x) for x in out] == [f.mul(a, int(x)) for x in vec]
        assert f.product_table.cache_info().currsize <= PRODUCT_TABLES
    assert f.product_table.cache_info().currsize == PRODUCT_TABLES


def test_dot_leaves_inputs_unchanged():
    f = field(16)
    rng = np.random.default_rng(16)
    arrs = [rng.integers(0, f.q, 50, dtype=np.uint16) for _ in range(5)]
    before = [a.copy() for a in arrs]
    for coeffs in ([1, 7, 0, 1, 3], [0, 0, 0, 0, 0], [5, 1, 1, 0, 9]):
        out = f.dot(coeffs, arrs)
        assert out.dtype == np.uint16
        assert all(out is not a for a in arrs)
        want = [
            f.dot(coeffs, [int(a[i]) for a in before]) for i in range(50)
        ]
        assert [int(x) for x in out] == want
        assert all(np.array_equal(a, b) for a, b in zip(arrs, before))


def test_dot_scalar_and_vector_agree():
    f = field(8)
    rng = random.Random(12)
    coeffs = [rng.randrange(f.q) for _ in range(9)]
    sym = [rng.randrange(f.q) for _ in range(9)]
    want = 0
    for c, x in zip(coeffs, sym):
        want ^= f.mul(c, x)
    assert f.dot(coeffs, sym) == want
    arrs = [np.array([x, 0, x], dtype=np.uint32) for x in sym]
    out = f.dot(coeffs, arrs)
    assert int(out[0]) == want and int(out[1]) == 0 and int(out[2]) == want


def test_parity_vectors_row1_all_ones():
    f = field(16)
    mat = parity_vectors(11, 4, f)
    assert mat[0] == [1] * 11


def test_parity_vectors_row2_consecutive_powers():
    f = field(8)
    mat = parity_vectors(3, 2, f)
    assert mat[1] == [0x02, 0x04, 0x08]
    # row 2 column c is eta^c in general
    mat = parity_vectors(10, 2, f)
    assert mat[1] == [f.pow(f.eta, c) for c in range(1, 11)]


def test_parity_vectors_general_entry():
    f = field(8)
    mat = parity_vectors(7, 5, f)
    rng = random.Random(13)
    for _ in range(30):
        j = rng.randrange(1, 6)
        c = rng.randrange(1, 8)
        assert mat[j - 1][c - 1] == f.pow(f.eta, c * (j - 1))


def test_parity_vectors_rejects_large_k():
    f = field(8)
    with pytest.raises(ParameterError):
        parity_vectors(255, 2, f)
    with pytest.raises(ParameterError):
        parity_vectors(0, 2, f)


def test_field_factory_caches():
    assert field(8) is field(8)
    assert field(8) is not field(16)


def test_bad_eta_rejected():
    # 0 and 1 cannot generate the multiplicative group
    with pytest.raises(ParameterError):
        Field(8, eta=1)
