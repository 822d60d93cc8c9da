"""The stripe engine shared by both piggybacking layouts.

A stripe is an n x (s+1) array. Columns 1..s are codewords of the (n, k)
instance. Column s+1 is the (n, k') codeword of the last k' data symbols
(design1, k' > 0) or nothing at all (design2, k' = 0), XOR the piggyback
sum its row stores. Where each source cell (column i, row j) of the first
s columns is summed is the only thing the layouts disagree on;
``build_map`` takes it from ``design1.piggyback_index`` or
``design2.piggyback_target``, and every operation below reads it from that
map. Symbols may be ints or numpy stripe arrays throughout.
``decode_stripe`` is the one path from surviving rows to the stripe (the
r+1 sweep included) and checks every supplied symbol it did not consume.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import DecodeError, InsufficientDataError, ParameterError
from .errors import UnsupportedPatternError
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


def _sum_values(pb: PiggybackMap, cols: list, rows=None) -> dict:
    """Value of each piggyback sum (all, or those of ``rows``), keyed by row."""
    out = {}
    for row in pb.sums if rows is None else rows:
        acc = None
        for ci, cj in pb.sums[row]:
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


def repair_node(
    params: CodeParams, f: int, read: Callable[[int, int], object]
) -> tuple[list, RepairReport]:
    """Rebuild the s+1 symbols of failed node f from surviving cells.

    ``read(node, column)`` must return the cell symbol; reads are
    deduplicated and reported, and row f is never read. Each lost cell
    (i, f) is peeled out of the sum that contains it: the stored sum
    minus its other contributors, and, for k' > 0, minus the (n, k')
    parity under it, decoded first from the unsummed rows 1..k'+1 (the
    first k' other than f). Bandwidth is k' plus the sizes of the s sums
    containing row f's cells, plus the size of the sum stored in row f.
    """
    if not 1 <= f <= params.n:
        raise ParameterError(f"node {f} out of [1, {params.n}]")
    s, kp = params.s, params.kprime
    last_col = s + 1
    pb = build_map(params)
    tracker = ReadTracker(read, (f,))
    if kp:
        mds_b = params.mds_last
        plain = [row for row in range(1, kp + 2) if row != f][:kp]
        b = mds_b.decode_data({row: tracker.fetch(row, last_col) for row in plain})
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
    report = RepairReport(node=f, bandwidth=len(reads), reads=reads)
    return row_syms, report


def r_plus_1_guaranteed(params: CodeParams) -> bool:
    """Whether any r+1 failures are recoverable: k' = 0 and k > (s-1)(r+1)+1."""
    return not params.kprime and params.k > (params.s - 1) * (params.r + 1) + 1


def require_rows(params: CodeParams, count: int):
    """Raise unless ``decode_stripe`` can rebuild the stripe from ``count`` rows."""
    if count < params.k - 1 or params.kprime and count < params.k:
        raise InsufficientDataError(f"need {params.k} rows to decode, got {count}")
    if count < params.k and not r_plus_1_guaranteed(params):
        raise UnsupportedPatternError(
            f"recovering r+1={params.r + 1} failures needs "
            f"k > (s-1)(r+1)+1, got k={params.k} with s={params.s}"
        )


def decode_stripe(params: CodeParams, rows: Mapping[int, object]) -> list:
    """Rebuild the whole stripe from the supplied rows; returns its n rows.

    ``rows`` maps node index to its s+1 symbols. From k or more rows,
    columns 1..s are decoded from the first k (in node order) and column
    s+1's (n, k') codeword from the first k'. From k-1 rows when
    ``r_plus_1_guaranteed``, the sweep starts at the lost row f with the
    widest gap of survivors after it: for each column from s down to 1,
    cell (col, f) is peeled out of its sum, lost contributors coming from
    columns already decoded, and the column decodes from the k-1 rows and
    that cell. Every supplied symbol the decode did not consume is
    compared with the rebuilt stripe; a disagreement raises DecodeError.
    Too few rows raise what ``require_rows`` raises.
    """
    s, k, kp = params.s, params.k, params.kprime
    require_rows(params, len(rows))
    for node, row in rows.items():
        if not 1 <= node <= params.n:
            raise ParameterError(f"node {node} out of [1, {params.n}]")
        if len(row) != s + 1:
            raise ParameterError(f"row {node} must hold {s + 1} symbols")
    pb, mds = build_map(params), params.mds_first
    order = sorted(rows)
    used_last = set(order[:kp])  # rows whose column s+1 cell was decoded from
    if len(rows) >= k:
        cols = [
            mds.decode({node: row[i] for node, row in rows.items()}, verify=False)
            for i in range(s)
        ]
    else:
        # imported here for the same reason as in build_map
        from .design2 import FailurePattern

        lost = [node for node in range(1, params.n + 1) if node not in rows]
        pattern = FailurePattern.from_failed(params, lost)
        gap = max(pattern.gaps)
        if gap < s:
            raise AssertionError(f"max gap {gap} < s={s} despite k > (s-1)(r+1)+1")
        f = pattern.failed[pattern.gaps.index(gap)]
        cols = [None] * s
        for col in range(s, 0, -1):
            target = pb.source_to_tau[(col, f)][1]
            used_last.add(target)
            acc = rows[target][s]
            for i, j in pb.sums[target]:
                if j in rows:
                    acc = acc ^ rows[j][i - 1]
                elif (i, j) != (col, f):
                    if cols[i - 1] is None:
                        raise AssertionError(
                            f"cell (node={j}, column={i}) needed before its column"
                        )
                    acc = acc ^ cols[i - 1][j - 1]
            known = {node: row[col - 1] for node, row in rows.items()} | {f: acc}
            cols[col - 1] = mds.decode(known, verify=False)

    sums = _sum_values(pb, cols)
    last_cw = None
    if kp:
        clean = {}
        for node, row in rows.items():
            p = sums.get(node)
            clean[node] = row[s] if p is None else row[s] ^ p
        last_cw = params.mds_last.decode(clean, verify=False)
    stripe = _stripe_rows(params, cols, last_cw, sums)

    # the cells the columns were decoded from agree by construction
    for idx, node in enumerate(order):
        full, row = stripe[node - 1], rows[node]
        for c in range(0 if idx >= k else s, s if node in used_last else s + 1):
            if not symbols_equal(full[c], row[c]):
                raise DecodeError(f"supplied row {node} disagrees with decoded stripe")
    return stripe


def recover_nodes(
    params: CodeParams, failed, read: Callable[[int, int], object]
) -> dict[int, list]:
    """Recover several failed nodes at once; returns {node: its s+1 symbols}.

    The s+1 cells of every other node are read (failed nodes never are)
    and handed to ``decode_stripe``, so each survivor the decode did not
    consume is checked against the rebuilt stripe. More than r+1 failures
    with k' = 0 raise UnsupportedPatternError; otherwise too few survivors
    raise what ``require_rows`` raises, before anything is read.
    """
    failed = sorted(set(failed))
    if not failed:
        raise ParameterError("no failed nodes given")
    if not 1 <= failed[0] <= failed[-1] <= params.n:
        raise ParameterError(f"failed nodes out of [1, {params.n}]: {failed}")
    if not params.kprime and len(failed) > params.r + 1:
        raise UnsupportedPatternError(
            f"{len(failed)} failures exceed the guaranteed capability "
            f"r+1={params.r + 1}"
        )
    require_rows(params, params.n - len(failed))
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
