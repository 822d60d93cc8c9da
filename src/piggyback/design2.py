"""Second piggybacking layout C(n, k, s, k'=0).

Columns 1..s hold (n, k) codewords; column s+1 carries no data, its n
entries are the piggyback sums p_1..p_n with
p_m = a_{1, m-1} + a_{2, m-2} + ... + a_{s, m-s} (row indices wrapped to
[1, n], parity positions addressed as rows k+1..n of each codeword).

Any single node repairs with exactly s + s^2 reads. Up to r = n-k
simultaneous failures decode column by column; r+1 failures are
recoverable by a sequential sweep whenever k > (s-1)(r+1)+1.

The placement rule (``piggyback_target``, ``piggyback_sources``, ``wrap``),
the ``FailurePattern`` whose widest gap starts the sweep, encode, repair
and decode live in ``piggyback.stripe``; they are re-exported here because
the benchmark in ``perfbench/`` patches and calls them under this name.
``recover_failures``, whose up-to-r path reads only k survivors, is the
one function defined here.
"""

from __future__ import annotations

from typing import Callable

from .params import CodeParams, ReadTracker
from .stripe import FailurePattern, _require_design2, _sum_values, build_map, recover_nodes
from .stripe import decode_from_k, encode_stripe, repair_node  # noqa: F401
from .stripe import piggyback_sources, piggyback_target, wrap  # noqa: F401


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
        params.mds_first.decode({row: tracker.fetch(row, i) for row in helpers})
        for i in range(1, params.s + 1)
    ]
    last = _sum_values(build_map(params), cols, failed)
    return {f: [col[f - 1] for col in cols] + [last[f]] for f in failed}
