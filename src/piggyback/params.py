"""Validated code parameters and the shared stripe/report types.

A code is an n x (s+1) array: row = node, columns 1..s are codewords of an
(n, k) MDS instance. What sits in column s+1 depends on the variant:

* ``design1``      (0 < k' < k): an (n, k') codeword whose parity symbols
  carry piggyback functions of the first s columns.
* ``design1_mds``  (k' = k): same layout, all s+1 instances are (n, k)
  codewords, and the array code itself is MDS.
* ``design2``      (k' = 0): no data in column s+1, every entry is a
  piggyback function.

All node/row/column indices in the public API are 1-based. CodeParams is
frozen and all stripe operations are reentrant. Stripes are independent:
the shard path (``shards``) cuts a file's stripes into chunks, which the
caller's thread and one pool thread per other CPU take in turn.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, RepairError
from .field import Field, field
from .mds import MdsCode, mds_code


class Variant(str, enum.Enum):
    DESIGN1 = "design1"
    DESIGN1_MDS = "design1_mds"
    DESIGN2 = "design2"


@dataclass(frozen=True)
class CodeParams:
    """Parameter tuple (n, k, s, k') with derived h = k - k', r = n - k.

    Raises ParameterError for tuples outside the constructible range:
    s+2 <= h+r for the design1 variants (equivalently s <= r-2 when
    k' = k) and s+1 <= n for all variants.
    """

    n: int
    k: int
    s: int
    kprime: int
    w: int = 16

    def __post_init__(self):
        n, k, s, kp = self.n, self.k, self.s, self.kprime
        if not 1 <= k < n:
            raise ParameterError(f"need 1 <= k < n, got n={n} k={k}")
        if s < 1:
            raise ParameterError(f"need s >= 1, got s={s}")
        if s + 1 > n:
            raise ParameterError(f"need s+1 <= n, got s={s} n={n}")
        if not 0 <= kp <= k:
            raise ParameterError(f"need 0 <= kprime <= k, got kprime={kp} k={k}")
        if self.w not in (8, 16):
            raise ParameterError(f"symbol width must be 8 or 16, got {self.w}")
        if kp > 0 and s + 2 > self.h + self.r:
            raise ParameterError(
                f"need s+2 <= h+r (s <= r-2 when kprime=k): "
                f"s={s} h={self.h} r={self.r}"
            )
        if k >= (1 << self.w) - 1:
            raise ParameterError(f"k={k} too large for GF(2^{self.w})")
        # construct eagerly so invalid (n, k, w) combos fail here
        self.mds_first

    @property
    def r(self) -> int:
        return self.n - self.k

    @property
    def h(self) -> int:
        return self.k - self.kprime

    @property
    def variant(self) -> Variant:
        if self.kprime == 0:
            return Variant.DESIGN2
        if self.kprime == self.k:
            return Variant.DESIGN1_MDS
        return Variant.DESIGN1

    @property
    def data_symbols(self) -> int:
        """Data symbols per stripe: s*k + k'."""
        return self.s * self.k + self.kprime

    @property
    def fld(self) -> Field:
        return field(self.w)

    @property
    def mds_first(self) -> MdsCode:
        """The (n, k) instance filling columns 1..s."""
        return mds_code(self.n, self.k, self.w)

    @property
    def mds_last(self) -> MdsCode:
        """The (n, k') instance in column s+1 (design1 variants only)."""
        if self.kprime == 0:
            raise ParameterError("design2 has no MDS instance in the last column")
        return mds_code(self.n, self.kprime, self.w)

    def describe(self) -> str:
        return (
            f"C(n={self.n}, k={self.k}, s={self.s}, k'={self.kprime}) "
            f"[{self.variant.value}, GF(2^{self.w})]"
        )


@dataclass
class SymbolGrid:
    """One encoded stripe: cells[row][col], 0-based internally.

    ``cells`` is an (n, s+1) integer array for single stripes, or an
    (n, s+1, batch) array when symbols are stripe vectors.
    """

    params: CodeParams
    cells: np.ndarray

    def row(self, node: int) -> list:
        row = self.cells[node - 1]
        return row.tolist() if self.cells.ndim == 2 else list(row)


def grid_from_rows(params: CodeParams, rows: list[list]) -> SymbolGrid:
    """Stack encoded rows of plain ints."""
    return SymbolGrid(params, np.array(rows, dtype=np.uint32))


@dataclass
class RepairReport:
    """Outcome of a single-node repair.

    ``reads`` is the deduplicated, sorted set of (node, column) pairs the
    repair touched; ``bandwidth`` is its size, which the design guarantees
    equals the closed-form count.
    """

    node: int
    bandwidth: int
    reads: tuple[tuple[int, int], ...]


class ReadTracker:
    """Deduplicating cell reader that refuses to touch failed rows."""

    def __init__(self, read: Callable[[int, int], object], forbidden=()):
        self._read = read
        self._forbidden = frozenset(forbidden)
        self.cache: dict[tuple[int, int], object] = {}

    def fetch(self, node: int, col: int):
        key = (node, col)
        val = self.cache.get(key)
        if val is None:
            if node in self._forbidden:
                raise AssertionError(f"tried to read failed node {node}")
            try:
                val = self._read(node, col)
            except Exception as exc:
                raise RepairError(
                    f"cannot read cell (node={node}, column={col}): {exc}"
                ) from exc
            if val is None:
                raise RepairError(f"cannot read cell (node={node}, column={col})")
            self.cache[key] = val
        return val

    def reads(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.cache))


def grid_reader(grid: SymbolGrid, failed=()) -> Callable[..., object]:
    """Reader over an in-memory stripe; failed nodes are unreadable.

    ``read(node, column)`` gives one cell. ``read(node)`` gives the node's
    whole row: a list of ints for a grid of ints, the (s+1, batch) view of
    ``cells`` for stripe arrays.
    """
    gone = set(failed)
    if grid.cells.ndim == 2:
        # plain ints are much faster than numpy scalars in the repair loops
        rows = grid.cells.tolist()
    else:
        rows = grid.cells

    def read(node: int, col: int | None = None):
        if node in gone:
            raise RepairError(f"node {node} is not available")
        return rows[node - 1] if col is None else rows[node - 1][col - 1]

    return read
