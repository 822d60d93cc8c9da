"""GF(2^w) arithmetic against an independent bitwise oracle."""

import random

import numpy as np
import pytest

from piggyback import ParameterError, field
from piggyback.field import (
    PACKED_TABLES,
    PRODUCT_TABLES,
    REDUCTION_POLY,
    Field,
    carryless_mul,
)
from piggyback.shards import CHUNK_BYTES


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


def test_dot_foreign_dtype_out_of_range_raises_for_every_coefficient():
    # a unit coefficient XORs its symbol in without a multiply, and a zero
    # one skips it: both must still refuse a non-symbol
    f = field(8)
    one = np.array([1], dtype=np.uint32)
    for coeffs in ([1, 2], [0, 2], [3, 2]):
        with pytest.raises(ParameterError, match="outside GF"):
            f.dot(coeffs, [np.array([256], dtype=np.uint32), one])
        with pytest.raises(ParameterError):
            f.dot(coeffs, [np.array([2.0]), one])
    out = f.dot([1, 2], [np.array([255], dtype=np.uint32), one])
    assert out.dtype == np.uint32 and out.tolist() == [255 ^ 2]


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


def dots_matrix(f, rng, m, k):
    """m x k random coefficients. Every row holds a zero and a one; from
    three rows on, the second row is all zeros."""
    mat = [[rng.randrange(1, f.q) for _ in range(k)] for _ in range(m)]
    for j, row in enumerate(mat):
        row[j % k], row[(j + 1) % k] = 0, 1
    if m > 2:
        mat[1] = [0] * k
    return mat


def per_row_dot(f, mat, symbols):
    return [f.dot(row, symbols) for row in mat]


@pytest.mark.parametrize("w", [8, 16])
@pytest.mark.parametrize("m", range(1, 10))
def test_dots_matches_per_row_dot(w, m):
    # 1..9 rows crosses both group sizes (8 rows at w=8, 4 at w=16); the
    # lengths are an empty file's chunk, one stripe, an odd count and the
    # stripes of one chunk of C(14,10,2,0)
    f = field(w)
    rng = random.Random(w * 100 + m)
    k = 5
    mat = dots_matrix(f, rng, m, k)
    for size in (0, 1, 7, CHUNK_BYTES // (20 * w // 8)):
        arrays = [
            np.array([rng.randrange(f.q) for _ in range(size)], dtype=f.dtype)
            for _ in range(k)
        ]
        if size:
            arrays[0][0] = f.order
        out = f.dots(mat, arrays)
        want = per_row_dot(f, mat, arrays)
        assert len(out) == m
        for got, ref in zip(out, want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got, ref), (size, mat)


@pytest.mark.parametrize("w", [8, 16])
def test_dots_on_strided_column_views(w):
    # the columns of a (stripes, s+1) table are strided views
    f = field(w)
    rng = np.random.default_rng(w)
    table = rng.integers(0, f.q, (301, 6), dtype=f.dtype)
    views = list(table.T)
    assert not views[0].flags.c_contiguous
    mat = dots_matrix(f, random.Random(w), 6, 6)
    contiguous = [np.ascontiguousarray(v) for v in views]
    want = per_row_dot(f, mat, contiguous)
    for got, ref in zip(f.dots(mat, views), want):
        assert np.array_equal(got, ref)
    # and on 2-D symbols, as SymbolGrid cells are
    blocks = [v.reshape(7, 43) for v in contiguous]
    for got, ref in zip(f.dots(mat, blocks), want):
        assert got.shape == (7, 43) and np.array_equal(got.reshape(-1), ref)


@pytest.mark.parametrize("w,dtype", [(8, np.uint16), (8, np.uint32), (16, np.uint32)])
def test_dots_foreign_dtype_in_range(w, dtype):
    f = field(w)
    rng = random.Random(20 + w)
    arrays = [np.array([rng.randrange(f.q) for _ in range(33)], dtype=dtype)
              for _ in range(4)]
    mat = dots_matrix(f, rng, 5, 4)
    for got, ref in zip(f.dots(mat, arrays), per_row_dot(f, mat, arrays)):
        assert got.dtype == ref.dtype == dtype
        assert np.array_equal(got, ref)


def test_dots_out_of_range_raises_not_clipped():
    f = field(8)
    good = np.arange(3, dtype=np.uint32)
    mat = [[1, 2], [3, 4], [5, 6]]
    with pytest.raises(ParameterError, match="outside GF"):
        f.dots(mat, [good, np.array([1, 256, 2], dtype=np.uint32)])
    with pytest.raises(ParameterError, match="outside GF"):
        f.dots(mat, [np.array([-1, 0, 1], dtype=np.int64), good])
    with pytest.raises(ParameterError):
        f.dots(mat, [good, np.array([2.0, 1.0, 0.0])])
    with pytest.raises(ParameterError, match="coefficient 256"):
        f.dots([[1, 256], [3, 4], [5, 6]], [good, good])


@pytest.mark.parametrize("w", [8, 16])
def test_dots_leaves_inputs_unchanged_and_never_aliases(w):
    f = field(w)
    rng = np.random.default_rng(30 + w)
    arrays = [rng.integers(0, f.q, 50, dtype=f.dtype) for _ in range(5)]
    before = [a.copy() for a in arrays]
    # the identity rows copy their column: still a new array
    mat = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [3, 1, 0, 7, 1]]
    out = f.dots(mat, arrays)
    assert np.array_equal(out[0], arrays[0]) and np.array_equal(out[1], arrays[1])
    assert not any(np.shares_memory(o, a) for o in out for a in arrays)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    out[2] ^= 1
    assert np.array_equal(out[0], arrays[0])


@pytest.mark.parametrize("w", [8, 16])
def test_dots_plain_ints_give_dot_ints(w):
    f = field(w)
    rng = random.Random(40 + w)
    for m in (1, 2, 9):
        mat = dots_matrix(f, rng, m, 6)
        syms = [rng.randrange(f.q) for _ in range(6)]
        out = f.dots(mat, syms)
        want = []
        for row in mat:
            acc = 0
            for c, x in zip(row, syms):
                acc ^= f.mul(c, x)
            want.append(acc)
        assert out == want
        assert all(type(x) is int for x in out)
    assert f.dots([[1, 2], [3, 4]], []) == [0, 0]


@pytest.mark.parametrize("w", [8, 16])
@pytest.mark.parametrize(
    "m, e, c", [(1, 1, 1), (3, 2, 5), (1, 1, 64), (16, 4, 20)]
)
def test_matmul_matches_scalar_mul(w, m, e, c):
    # zeros, ones and the largest element in every operand
    f = field(w)
    rng = random.Random(50 + w + m * e * c)
    pick = lambda: rng.choice([0, 1, f.order, rng.randrange(f.q)])
    a = [[pick() for _ in range(e)] for _ in range(m)]
    b = [[pick() for _ in range(c)] for _ in range(e)]
    add = [[pick() for _ in range(c)] for _ in range(m)]
    a[0] = [0] * e
    before = [[row[:] for row in x] for x in (a, b, add)]
    want = [[add[i][j] for j in range(c)] for i in range(m)]
    for i in range(m):
        for j in range(c):
            for t in range(e):
                want[i][j] ^= f.mul(a[i][t], b[t][j])
    got = f.matmul(a, b, add)
    assert got == want
    assert all(type(x) is int for row in got for x in row)
    assert [a, b, add] == before


@pytest.mark.parametrize("w", [8, 16])
def test_packed_table_layout(w):
    f = Field(w)
    column = (7, 0, 1, f.order)[: 64 // w]
    table = f.packed_table(column)
    assert table.dtype == np.dtype("<u8") and table.shape == (w // 8, 256)
    assert not table.flags.writeable
    mask = (1 << w) - 1
    for b in range(w // 8):
        for x in range(256):
            entry = int(table[b, x])
            assert [entry >> w * j & mask for j in range(len(column))] == [
                slow_mul(a, x << 8 * b, f.poly, w) for a in column
            ]


def test_packed_table_cache_is_bounded():
    """At most PACKED_TABLES packed tables are kept: each is (w/8) x 256
    eight-byte entries, 4 KiB at w=16, so 4 MiB per Field at most."""
    f = Field(16)
    rng = random.Random(41)
    count = PACKED_TABLES + 40
    mat = [rng.sample(range(1, f.q), count)] + [
        [rng.randrange(f.q) for _ in range(count)] for _ in range(2)
    ]
    arrays = [np.array([rng.randrange(f.q) for _ in range(3)], dtype=np.uint16)
              for _ in range(count)]
    for start in range(0, count, 100):
        part = slice(start, start + 100)
        rows, syms = [row[part] for row in mat], arrays[part]
        out = f.dots(rows, syms)
        for i in range(3):
            assert [int(x[i]) for x in out] == f.dots(rows, [int(a[i]) for a in syms])
        assert f.packed_table.cache_info().currsize <= PACKED_TABLES
    assert f.packed_table.cache_info().currsize == PACKED_TABLES
    assert PACKED_TABLES * 2 * 256 * 8 == 4 << 20


@pytest.mark.parametrize("w", [8, 16])
def test_dots_takes_packed_tables_from_three_rows(w):
    # for one or two rows the lane tables gather no more entries than the
    # packed ones, and smaller ones
    f = Field(w)
    arrays = [np.arange(9, dtype=f.dtype) for _ in range(4)]
    for m in (1, 2):
        f.dots([[2, 3, 4, 5]] * m, arrays)
    assert f.packed_table.cache_info().misses == 0
    f.dots([[2, 3, 4, 5]] * 3, arrays)
    assert f.packed_table.cache_info().misses == 4


def test_field_factory_caches():
    assert field(8) is field(8)
    assert field(8) is not field(16)


def test_unsupported_width_rejected():
    with pytest.raises(ParameterError, match="w must be 8 or 16"):
        Field(4)
