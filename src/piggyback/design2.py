"""Second piggybacking layout C(n, k, s, k'=0).

Columns 1..s hold (n, k) codewords; column s+1 carries no data, its n
entries are the piggyback sums p_1..p_n with
p_m = a_{1, m-1} + a_{2, m-2} + ... + a_{s, m-s} (row indices wrapped to
[1, n], parity positions addressed as rows k+1..n of each codeword).

Any single node repairs with exactly s + s^2 reads. Up to r = n-k
simultaneous failures decode column by column; r+1 failures are
recoverable by a sequential sweep whenever k > (s-1)(r+1)+1.

The placement rule (``piggyback_target``, ``piggyback_sources``, ``wrap``),
the ``FailurePattern`` whose widest gap starts the sweep, encode, repair,
decode and multi-node recovery live in ``piggyback.stripe``; they are
re-exported here because the benchmark in ``perfbench/`` patches and calls
them under this name. ``recover_failures`` is that benchmark's name for
``stripe.recover_nodes`` on this layout.
"""

from __future__ import annotations

from typing import Callable

from .params import CodeParams
from .stripe import _require_design2, recover_nodes
from .stripe import FailurePattern, decode_from_k, encode_stripe, repair_node  # noqa: F401
from .stripe import piggyback_sources, piggyback_target, wrap  # noqa: F401


def recover_failures(
    params: CodeParams, failed, read: Callable[[int], object]
) -> dict[int, list]:
    """Recover up to r+1 failed nodes; returns {node: its s+1 symbols}.

    This is ``stripe.recover_nodes`` for k' = 0 layouts (others raise
    ParameterError): every survivor's row is read with ``read(node)`` and
    checked against the rebuilt stripe, and r+1 failures run the sweep.
    """
    _require_design2(params)
    return recover_nodes(params, failed, read)
