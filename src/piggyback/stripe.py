"""The stripe engine shared by both piggybacking layouts.

A stripe is an n x (s+1) array. Columns 1..s are codewords of the (n, k)
instance. Column s+1 is the (n, k') codeword of the last k' data symbols
(design1, k' > 0) or nothing at all (design2, k' = 0), XOR the piggyback
sum its row stores. Where each source cell (column i, row j) of the first
s columns is summed is the only thing the layouts disagree on;
``build_map`` takes it from ``design1.piggyback_index`` or
``design2.piggyback_target``, and every operation below reads it from that
map. Symbols may be ints or numpy stripe arrays throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import DecodeError, InsufficientDataError, ParameterError
from .field import symbols_equal
from .params import CodeParams, ReadTracker, RepairReport, SymbolGrid, grid_from_rows


@dataclass(frozen=True)
class PiggybackMap:
    """Placement of every source cell into its piggyback sum.

    source_to_tau maps (column i, row j) to (tau, target_row);
    contributors[tau] lists the source cells of p_tau; counts[tau] is the
    contributor count n_tau. sums[row] is the same tuple as
    contributors[tau] for the sum that row stores: rows k'+2..n for
    design1 (tau = row - k' - 1), every row for design2 (tau = row).
    """

    params: CodeParams
    source_to_tau: Mapping[tuple[int, int], tuple[int, int]]
    contributors: Mapping[int, tuple[tuple[int, int], ...]]
    counts: Mapping[int, int]
    sums: Mapping[int, tuple[tuple[int, int], ...]]


@functools.lru_cache(maxsize=512)
def build_map(params: CodeParams) -> PiggybackMap:
    """Enumerate all piggyback placements for the given parameters."""
    # the layout modules re-export this engine, so their placement rules
    # can only be imported once it is loaded
    from .design1 import piggyback_index
    from .design2 import piggyback_target

    kp = params.kprime
    offset = kp + 1 if kp else 0  # target row of p_tau is tau + offset
    count = params.h + params.r - 1 if kp else params.n
    source_to_tau = {}
    contrib: dict[int, list] = {tau: [] for tau in range(1, count + 1)}
    for i in range(1, params.s + 1):
        for j in range(1, params.n + 1):
            if kp:
                tau, target = piggyback_index(params, i, j)
            else:
                target = piggyback_target(params, i, j)
                tau = target
            source_to_tau[(i, j)] = (tau, target)
            contrib[tau].append((i, j))
    contributors = {t: tuple(v) for t, v in contrib.items()}
    return PiggybackMap(
        params=params,
        source_to_tau=source_to_tau,
        contributors=contributors,
        counts={t: len(v) for t, v in contributors.items()},
        sums={t + offset: v for t, v in contributors.items()},
    )


def _sum_values(pb: PiggybackMap, cols: list) -> dict:
    """Value of every piggyback sum over full columns, keyed by its row."""
    out = {}
    for row, sources in pb.sums.items():
        acc = None
        for ci, cj in sources:
            v = cols[ci - 1][cj - 1]
            acc = v if acc is None else acc ^ v
        out[row] = acc
    return out


def _stripe_rows(params: CodeParams, cols: list, last_cw, sums: dict) -> list:
    """Rows of the stripe: the s columns, then last_cw XOR each row's sum.

    last_cw is the (n, k') codeword of column s+1, or None when k' = 0.
    """
    if last_cw is None:
        last = [sums[row] for row in range(1, params.n + 1)]
    else:
        last = list(last_cw)
        for row, p in sums.items():
            last[row - 1] = last[row - 1] ^ p
    return [[col[j] for col in cols] + [last[j]] for j in range(params.n)]


def encode_stripe(params: CodeParams, data) -> SymbolGrid:
    """Encode s*k + k' data symbols into the n x (s+1) stripe."""
    data = list(data)
    if len(data) != params.data_symbols:
        raise ParameterError(
            f"expected {params.data_symbols} data symbols, got {len(data)}"
        )
    s, k = params.s, params.k
    cols = [params.mds_first.encode(data[i * k : (i + 1) * k]) for i in range(s)]
    last_cw = params.mds_last.encode(data[s * k :]) if params.kprime else None
    sums = _sum_values(build_map(params), cols)
    return grid_from_rows(params, _stripe_rows(params, cols, last_cw, sums))


def _last_column_data(params: CodeParams, f: int, tracker: ReadTracker) -> list:
    """The k' data symbols of column s+1, read without touching row f.

    Rows 1..k'+1 of column s+1 carry no piggyback sum. Unless f is one of
    rows 1..k', they are the systematic rows themselves; otherwise the
    first parity row replaces the lost one and b_f is solved from it.
    """
    kp, last_col = params.kprime, params.s + 1
    mds_b = params.mds_last
    if f > kp:
        return [tracker.fetch(row, last_col) for row in range(1, kp + 1)]
    known = {
        row: tracker.fetch(row, last_col) for row in range(1, kp + 2) if row != f
    }
    q1 = mds_b.parity[0]
    if q1[f - 1] == 0:
        return mds_b.decode_data(known)
    acc = known[kp + 1]
    for j in range(1, kp + 1):
        if j != f:
            acc = acc ^ params.fld.mul(q1[j - 1], known[j])
    b = [known[j] if j != f else None for j in range(1, kp + 1)]
    b[f - 1] = params.fld.div(acc, q1[f - 1])
    return b


def repair_node(
    params: CodeParams, f: int, read: Callable[[int, int], object]
) -> tuple[list, RepairReport]:
    """Rebuild the s+1 symbols of failed node f from surviving cells.

    ``read(node, column)`` must return the cell symbol; reads are
    deduplicated and reported, and row f is never read. Each lost cell
    (i, f) is peeled out of the sum that contains it: the stored sum
    minus its other contributors, and, for k' > 0, minus the (n, k')
    parity under it, which needs the k' last-column data symbols first.
    Bandwidth is k' plus the sizes of the s sums containing row f's
    cells, plus the size of the sum stored in row f itself.
    """
    if not 1 <= f <= params.n:
        raise ParameterError(f"node {f} out of [1, {params.n}]")
    s, kp = params.s, params.kprime
    last_col = s + 1
    pb = build_map(params)
    tracker = ReadTracker(read, (f,))
    if kp:
        mds_b = params.mds_last
        b = _last_column_data(params, f, tracker)
        last = mds_b.symbol_at(f, b)
    else:
        last = None
    for ci, cj in pb.sums.get(f, ()):
        v = tracker.fetch(cj, ci)
        last = v if last is None else last ^ v

    row_syms = []
    for i in range(1, s + 1):
        target = pb.source_to_tau[(i, f)][1]
        acc = tracker.fetch(target, last_col)
        if kp:
            acc = acc ^ mds_b.symbol_at(target, b)
        for ci, cj in pb.sums[target]:
            if (ci, cj) != (i, f):
                acc = acc ^ tracker.fetch(cj, ci)
        row_syms.append(acc)
    row_syms.append(last)

    reads = tracker.reads()
    report = RepairReport(node=f, bandwidth=len(reads), reads=reads, symbols=row_syms)
    return row_syms, report


def decode_stripe(params: CodeParams, rows: Mapping[int, object]) -> list:
    """Rebuild the whole stripe from any k rows; returns its n rows.

    ``rows`` maps node index to its s+1 symbols. Each column is decoded
    from the first k rows, then every supplied symbol is compared with the
    rebuilt stripe; a disagreement raises DecodeError.
    """
    if len(rows) < params.k:
        raise InsufficientDataError(
            f"need {params.k} rows to decode, got {len(rows)}"
        )
    s = params.s
    for node, row in rows.items():
        if not 1 <= node <= params.n:
            raise ParameterError(f"node {node} out of [1, {params.n}]")
        if len(row) != s + 1:
            raise ParameterError(f"row {node} must hold {s + 1} symbols")

    mds = params.mds_first
    cols = [
        mds.decode({node: row[i] for node, row in rows.items()}, verify=False)
        for i in range(s)
    ]
    sums = _sum_values(build_map(params), cols)
    last_cw = None
    if params.kprime:
        clean = {}
        for node, row in rows.items():
            p = sums.get(node)
            clean[node] = row[s] if p is None else row[s] ^ p
        last_cw = params.mds_last.decode(clean, verify=False)
    stripe = _stripe_rows(params, cols, last_cw, sums)

    for node, row in rows.items():
        full = stripe[node - 1]
        for c in range(s + 1):
            if not symbols_equal(full[c], row[c]):
                raise DecodeError(f"supplied row {node} disagrees with decoded stripe")
    return stripe


def recover_nodes(
    params: CodeParams, failed, read: Callable[[int, int], object]
) -> dict[int, list]:
    """Recover several failed nodes at once; returns {node: its s+1 symbols}.

    More than r failures with k' = 0 run design2's r+1 sweep. Every other
    pattern is one decode: the s+1 cells of every other node are read
    (failed nodes never are) and handed to ``decode_stripe``, so each
    survivor is checked against the rebuilt stripe. Fewer than k
    survivors raise InsufficientDataError.
    """
    failed = sorted(set(failed))
    if not failed:
        raise ParameterError("no failed nodes given")
    if not 1 <= failed[0] <= failed[-1] <= params.n:
        raise ParameterError(f"failed nodes out of [1, {params.n}]: {failed}")
    if not params.kprime and len(failed) > params.r:
        # imported here because design2 imports this module; called through
        # the module attribute, so a wrapper installed on it still runs
        from . import design2

        return design2.recover_failures(params, failed, read)
    tracker = ReadTracker(read, failed)
    cols = range(1, params.s + 2)
    rows = {
        node: [tracker.fetch(node, c) for c in cols]
        for node in range(1, params.n + 1)
        if node not in failed
    }
    full = decode_stripe(params, rows)
    return {node: full[node - 1] for node in failed}


def decode_from_k(params: CodeParams, rows: Mapping[int, object]) -> list:
    """Recover all s*k + k' data symbols from any k surviving rows.

    Raises DecodeError if a supplied row disagrees with the decoded
    stripe (see ``decode_stripe``).
    """
    stripe = decode_stripe(params, rows)
    data = [stripe[j][i] for i in range(params.s) for j in range(params.k)]
    return data + [stripe[j][params.s] for j in range(params.kprime)]
