"""Second piggybacking layout C(n, k, s, k'=0).

Columns 1..s hold (n, k) codewords; column s+1 carries no data, its n
entries are the piggyback sums p_1..p_n with
p_m = a_{1, m-1} + a_{2, m-2} + ... + a_{s, m-s} (row indices wrapped to
[1, n], parity positions addressed as rows k+1..n of each codeword).

Any single node repairs with exactly s + s^2 reads. Up to r = n-k
simultaneous failures decode column by column; r+1 failures are
recoverable by a sequential sweep whenever k > (s-1)(r+1)+1.

This module holds the placement rule, the failure pattern whose widest
gap starts the sweep, and ``recover_failures``, whose up-to-r path reads
only k survivors. Encode, repair, decode and the sweep itself are the
shared engine of ``piggyback.stripe``, re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ParameterError
from .params import CodeParams, ReadTracker, Variant
# the shared engine, re-exported under the layout's name
from .stripe import build_map, decode_from_k, encode_stripe, repair_node  # noqa: F401
from .stripe import _sum_values, recover_nodes


def _require_design2(params: CodeParams):
    if params.variant is not Variant.DESIGN2:
        raise ParameterError("operation needs kprime = 0 (design2 layout)")


def wrap(params: CodeParams, x: int) -> int:
    """Normalize a row offset into [1, n] (circular row indexing)."""
    n = params.n
    if not -params.s + 1 <= x <= n + params.s:
        raise ParameterError(f"offset {x} out of [{-params.s + 1}, {n + params.s}]")
    if x <= 0:
        return x + n
    if x > n:
        return x - n
    return x


def piggyback_target(params: CodeParams, i: int, j: int) -> int:
    """Row of column s+1 whose piggyback sum absorbs source cell (i, j)."""
    _require_design2(params)
    if not 1 <= i <= params.s:
        raise ParameterError(f"column {i} out of [1, {params.s}]")
    if not 1 <= j <= params.n:
        raise ParameterError(f"row {j} out of [1, {params.n}]")
    return i + j if i + j <= params.n else i + j - params.n


def piggyback_sources(params: CodeParams, m: int) -> tuple[tuple[int, int], ...]:
    """Source cells (column i, row) summed into p_m: row = wrap(m - i)."""
    _require_design2(params)
    if not 1 <= m <= params.n:
        raise ParameterError(f"row {m} out of [1, {params.n}]")
    return tuple((i, wrap(params, m - i)) for i in range(1, params.s + 1))


@dataclass(frozen=True)
class FailurePattern:
    """Sorted failed rows plus the circular gaps between them.

    gaps[i] counts surviving rows strictly between failed[i] and the next
    failed row (wrapping around after the last). With m = r+1 failures the
    gaps sum to k-1.
    """

    failed: tuple[int, ...]
    gaps: tuple[int, ...]

    @classmethod
    def from_failed(cls, params: CodeParams, failed) -> "FailurePattern":
        rows = tuple(sorted(set(failed)))
        if not rows:
            raise ParameterError("no failed rows given")
        if rows[0] < 1 or rows[-1] > params.n:
            raise ParameterError(f"failed rows out of [1, {params.n}]: {rows}")
        m = len(rows)
        gaps = tuple(
            rows[i + 1] - rows[i] - 1 if i + 1 < m else params.n - rows[-1] + rows[0] - 1
            for i in range(m)
        )
        return cls(rows, gaps)


def recover_failures(
    params: CodeParams, failed, read: Callable[[int, int], object]
) -> dict[int, list]:
    """Recover up to r+1 failed nodes; returns {node: its s+1 symbols}.

    Up to r failures decode each codeword column directly from the first
    k survivors; the other survivors are neither read nor checked. More
    failures go to ``stripe.recover_nodes``, which reads and checks every
    survivor and runs the r+1 sweep of ``stripe.decode_stripe``.
    """
    _require_design2(params)
    failed = FailurePattern.from_failed(params, failed).failed
    if len(failed) > params.r:
        return recover_nodes(params, failed, read)
    tracker = ReadTracker(read, failed)
    helpers = [row for row in range(1, params.n + 1) if row not in failed][: params.k]
    cols = [
        params.mds_first.decode({row: tracker.fetch(row, i) for row in helpers}, verify=False)
        for i in range(1, params.s + 1)
    ]
    last = _sum_values(build_map(params), cols, failed)
    return {f: [col[f - 1] for col in cols] + [last[f]] for f in failed}
