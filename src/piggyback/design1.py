"""First piggybacking layout C(n, k, s, k') with k' > 0.

Columns 1..s hold (n, k) codewords a_1..a_s; column s+1 holds an (n, k')
codeword of data b. Each symbol of the first s columns is folded into
exactly one of the h+r-1 piggyback sums p_1..p_{h+r-1}; p_tau is added to
the parity symbol in row k'+1+tau of the last column. Single-node repair
recovers the s+1 lost symbols by reading k' last-column symbols plus the
piggyback sums that contain the lost cells, never touching the failed row.

This module holds the placement rule; encode, repair and decode are the
shared engine of ``piggyback.stripe``, re-exported here.
"""

from __future__ import annotations

from .errors import ParameterError
from .params import CodeParams, Variant
# the shared engine, re-exported under the layout's name
from .stripe import (  # noqa: F401
    PiggybackMap,
    build_map,
    decode_from_k,
    encode_stripe,
    repair_node,
)


def piggyback_index(params: CodeParams, i: int, j: int) -> tuple[int, int]:
    """Piggyback sum index tau and its target row for source cell (i, j).

    i is the column in 1..s, j the row in 1..n. The target row storing
    p_tau is always k'+1+tau.
    """
    if params.variant is Variant.DESIGN2:
        raise ParameterError("operation needs kprime > 0 (design1 layouts)")
    if not 1 <= i <= params.s:
        raise ParameterError(f"column {i} out of [1, {params.s}]")
    if not 1 <= j <= params.n:
        raise ParameterError(f"row {j} out of [1, {params.n}]")
    kp, h, r = params.kprime, params.h, params.r
    if j <= kp + 1:
        tau = 1 + ((j - 1) * params.s + i - 1) % (h + r - 1)
    else:
        t = i + j - params.k + h if i + j <= params.n else i + j - params.n + 1
        tau = t - 1
    return tau, kp + 1 + tau
