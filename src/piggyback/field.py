"""GF(2^w) arithmetic.

Field elements are integers in [0, 2^w). Addition is XOR; multiplication
uses log/antilog tables built from a primitive element eta, so results are
value-exact. Scalar operations take plain ints; the second operand of
``mul`` may also be a numpy array, which is multiplied elementwise by the
scalar (used to stream many stripes through the same linear recipe).

Arrays (w=8 or 16) are multiplied by table lookup (Plank, Greenan & Miller,
FAST 2013), with two kinds of table, each built on first use and held in a
bounded LRU per Field:

* a product table serves ``mul`` and ``dot``, one coefficient at a time:
  one gather per coefficient, indexed by a 16-bit lane. A lane is one
  symbol at w=16 and two adjacent symbols at w=8, so each lookup
  multiplies two bytes at once. 128 KiB each.
* a packed table serves ``dots``, a matrix of three or more rows: for
  one input column it packs the products of up to 64/w rows (8 at w=8, 4
  at w=16) into each 64-bit entry, one entry per byte value. One gather
  per input byte then gives every row of the group. 2 KiB each at w=8,
  4 KiB at w=16 (a second 256 entries for the high byte).

Per input column, packed tables gather count*w/8 eight-byte entries and
product tables m*count*w/16 two-byte lanes, so from m = 3 rows on the
packed tables gather fewer. With one or two rows ``dots`` stays on the
product tables, which are then the faster.

Products keep the array's dtype, so stored uint8/uint16 symbols are never
widened.

Plain ints multiply in the log domain. ``dots`` looks each symbol's log up
once for all rows, and ``matmul`` multiplies two coefficient matrices,
which is how ``mds`` composes a decode into one matrix.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ParameterError

# Reduction polynomials, full form including the x^w term.
#   w=8 : x^8 + x^4 + x^3 + x^2 + 1
#   w=16: x^16 + x^12 + x^3 + x + 1
REDUCTION_POLY = {8: 0x11D, 16: 0x1100B}

# Primitive element of both fields (tests/test_field.py proves it).
ETA = 2

# Tables a Field keeps at once of each kind (least recently used evicted).
# A product table (one coefficient, for mul and dot) is 2^16 16-bit lanes,
# 128 KiB at both widths, so at most 32 MiB. A packed table (one column of
# up to 64/w rows, for dots) is 256 uint64 entries per symbol byte, 2 KiB
# at w=8 and 4 KiB at w=16, so at most 4 MiB.
PRODUCT_TABLES = 256
PACKED_TABLES = 1024


def symbols_equal(a, b) -> bool:
    """Value equality for symbols that may be ints or stripe arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def carryless_mul(a: int, b: int, poly: int, w: int) -> int:
    """Polynomial multiplication in GF(2)[x] reduced mod poly (degree w)."""
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


def _mul_array(xs: np.ndarray, b: int, poly: int, w: int) -> np.ndarray:
    """Elementwise xs * b in GF(2^w) by shift-and-add, reducing each shift.

    xs is a uint32 array of field elements; the result is a new uint32
    array.
    """
    x = xs.astype(np.uint32)
    acc = np.zeros_like(x)
    while b:
        if b & 1:
            acc ^= x
        b >>= 1
        x <<= 1
        x ^= (x >> w) * poly
    return acc


def _exp_table(eta: int, poly: int, w: int) -> np.ndarray:
    """eta^0 .. eta^(2^w - 2) by doubling: exp[m:2m] = exp[0:m] * eta^m."""
    order = (1 << w) - 1
    exp = np.empty(order, dtype=np.uint32)
    exp[0] = 1
    m = 1
    while m < order:
        step = min(m, order - m)
        eta_m = carryless_mul(int(exp[m - 1]), eta, poly, w)
        exp[m : m + step] = _mul_array(exp[:step], eta_m, poly, w)
        m += step
    return exp


class Field:
    """Arithmetic over GF(2^w).

    Scalars use log/antilog tables. Stripe arrays use per-coefficient
    product tables over 16-bit lanes (``mul``, ``dot``) or per-column
    packed tables over bytes (``dots``), built on first use and held in
    bounded LRUs.

    ``w`` is the bit width of a symbol, 8 or 16: the reduction polynomial
    is ``REDUCTION_POLY[w]`` and the primitive element ``ETA``, which build
    the tables.
    """

    def __init__(self, w: int):
        if w not in REDUCTION_POLY:
            raise ParameterError(f"GF(2^{w}) is not supported: w must be 8 or 16")
        self.w = w
        self.poly = REDUCTION_POLY[w]
        self.eta = ETA
        self.q = 1 << w
        self.order = self.q - 1

        # symbols as stored (uint8 at w=8, uint16 at w=16)
        self.dtype = np.min_scalar_type(self.order)

        exp = _exp_table(self.eta, self.poly, w)
        log = np.full(self.q, -1, dtype=np.int64)
        log[exp] = np.arange(self.order)

        self._exp = exp.tolist() * 2
        self._log = log.tolist()
        self.product_table = functools.lru_cache(maxsize=PRODUCT_TABLES)(
            self._build_product_table
        )
        self.packed_table = functools.lru_cache(maxsize=PACKED_TABLES)(
            self._build_packed_table
        )

    def __repr__(self) -> str:
        return f"Field(w={self.w}, poly={self.poly:#x}, eta={self.eta:#x})"

    @staticmethod
    def add(a, b):
        """Field addition (XOR); works on ints and numpy arrays alike."""
        return a ^ b

    def _build_product_table(self, a: int) -> np.ndarray:
        """a times every 16-bit lane: 2^16 read-only '<u2' entries.

        At w=8 a lane is two symbols, table[lo | hi << 8] = a*lo | a*hi << 8.
        """
        if not 0 <= a < self.q:
            raise ParameterError(f"coefficient {a} outside GF(2^{self.w})")
        elems = np.arange(self.q, dtype=np.uint32)
        table = _mul_array(elems, a, self.poly, self.w).astype("<u2")
        if self.w == 8:
            table = (table[:, None] << 8 | table[None, :]).ravel()
        table.flags.writeable = False
        return table

    def _build_packed_table(self, column: tuple[int, ...]) -> np.ndarray:
        """Products of every coefficient in ``column`` with every symbol byte.

        Shape (w/8, 256), read-only '<u8': entry [b, x] holds column[j] *
        (x << 8b) at bits w*j..w*j+w-1, for up to 64/w coefficients. Products
        are linear in x over GF(2), so each entry is the XOR of the entries
        of x's bits, and only those are multiplied out.
        """
        for a in column:
            if not 0 <= a < self.q:
                raise ParameterError(f"coefficient {a} outside GF(2^{self.w})")
        table = np.zeros((self.w // 8, 256), "<u8")
        for b, row in enumerate(table):
            for i in range(8):
                bit = 1 << 8 * b + i
                word = sum(self.mul(a, bit) << self.w * j for j, a in enumerate(column))
                row[1 << i : 2 << i] = row[: 1 << i] ^ np.uint64(word)
        table.flags.writeable = False
        return table

    def mul(self, a: int, b):
        """Multiply scalar a by b, where b is an int or a numpy array.

        An array b gives a new array of b's shape and dtype. An array whose
        dtype is not the field's must hold integers in [0, 2^w).
        """
        if isinstance(b, np.ndarray):
            syms = b if b.dtype == self.dtype else self._symbols(b)
            table = self.product_table(a)
            out = np.empty(b.shape, self.dtype)
            # "clip" gathers straight into out; a lane is always < 2^16
            if self.w == 16:
                table.take(syms, out=out, mode="clip")
            else:
                src, flat = np.ascontiguousarray(syms).reshape(-1), out.reshape(-1)
                even = src.size & ~1
                table.take(
                    src[:even].view("<u2"), out=flat[:even].view("<u2"), mode="clip"
                )
                if even < src.size:  # the lane (lo=last, hi=0) holds a*last
                    flat[-1] = table[src[-1]]
            return out if out.dtype == b.dtype else out.astype(b.dtype)
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def _symbols(self, b: np.ndarray) -> np.ndarray:
        """b narrowed to the field's dtype, refusing any non-symbol."""
        if b.dtype.kind not in "ui" or b.size and not (
            0 <= b.min() and b.max() <= self.order
        ):
            raise ParameterError(
                f"array of {b.dtype} holds values outside GF(2^{self.w})"
            )
        return b.astype(self.dtype)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^w)")
        return self._exp[self.order - self._log[a]]

    def div(self, a, b: int):
        return self.mul(self.inv(b), a)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp[self._log[a] * e % self.order]

    def matmul(self, a, b, add) -> list[list[int]]:
        """add + a x b for coefficient matrices a (m x e), b (e x c), add (m x c).

        All are lists of int rows; no input is modified. Each nonzero entry
        of a row of a adds that multiple of a row of b, every product the
        exp of a sum of two logs.
        """
        exp, log = self._exp, self._log
        out = []
        for row, acc in zip(a, add):
            for x, brow in zip(row, b):
                if x:
                    lx = log[x]
                    acc = [s ^ exp[lx + log[y]] if y else s for s, y in zip(acc, brow)]
            out.append(acc)
        return out

    def dot(self, coeffs, symbols):
        """GF inner product; symbols may be ints or stripe arrays.

        On arrays the result is a new array of the symbols' shape and
        dtype, and no input is modified. An array whose dtype is not the
        field's must hold integers in [0, 2^w).
        """
        if len(symbols) and isinstance(symbols[0], np.ndarray):
            dtype = np.result_type(*symbols)
            acc = np.zeros(symbols[0].shape, self.dtype)
            for c, x in zip(coeffs, symbols):
                x = x if x.dtype == self.dtype else self._symbols(x)
                if c == 1:
                    acc ^= x
                elif c:
                    acc ^= self.mul(c, x)
            return acc if acc.dtype == dtype else acc.astype(dtype)
        return self.dots([coeffs], symbols)[0]

    def dots(self, matrix, symbols) -> list:
        """The rows of matrix x symbols: ``[dot(row, symbols) for row in matrix]``.

        With three or more rows on stripe arrays, the rows go in groups of
        64/w. Each byte of each input symbol is one gather from its
        column's packed table, which yields the products of the whole group
        as one 64-bit word, and one XOR per column sums them; the words are
        then read back as (count, 64/w) symbols. One or two rows (see the
        module docstring) go through ``dot`` row by row. On arrays the
        result is new arrays of the symbols' shape and dtype; no input is
        modified. Plain ints are summed in the log domain, each symbol's
        log looked up once for all rows.
        """
        if not (len(symbols) and isinstance(symbols[0], np.ndarray)):
            exp, log = self._exp, self._log
            terms = [(j, log[x]) for j, x in enumerate(symbols) if x]
            out = []
            for row in matrix:
                acc = 0
                for j, lx in terms:
                    c = row[j]
                    if c:
                        acc ^= exp[log[c] + lx]
                out.append(acc)
            return out
        if len(matrix) < 3:
            return [self.dot(row, symbols) for row in matrix]
        shape, dtype = symbols[0].shape, np.result_type(*symbols)
        size, g = symbols[0].size, 64 // self.w
        groups = [matrix[i : i + g] for i in range(0, len(matrix), g)]
        acc = np.zeros((len(groups), size), "<u8")
        idx, tmp = np.empty(size, np.intp), np.empty(size, "<u8")
        for c, x in enumerate(symbols):
            x = (x if x.dtype == self.dtype else self._symbols(x)).reshape(-1)
            columns = [tuple(row[c] for row in group) for group in groups]
            for b in range(self.w // 8):
                if self.w == 8:
                    np.copyto(idx, x)
                elif b == 0:
                    np.bitwise_and(x, 0xFF, out=idx)
                else:
                    np.right_shift(x, 8, out=idx)
                for total, column in zip(acc, columns):
                    if any(column):
                        self.packed_table(column)[b].take(idx, out=tmp, mode="clip")
                        total ^= tmp
        words = acc.view(f"<u{self.w // 8}").reshape(len(groups), size, g)
        return [
            words[i // g, :, i % g].reshape(shape).astype(dtype)
            for i in range(len(matrix))
        ]


@functools.lru_cache(maxsize=None)
def field(w: int) -> Field:
    """Shared Field instance for w."""
    return Field(w)

