"""The stripe engine shared by both piggybacking layouts.

A stripe is an n x (s+1) array. Columns 1..s are codewords of the (n, k)
instance. Column s+1 is the (n, k') codeword of the last k' data symbols
(design1, k' > 0) or nothing at all (design2, k' = 0), XOR the piggyback
sum its row stores. Where each source cell (column i, row j) of the first
s columns is summed is the only thing the layouts disagree on: the
placement rules ``piggyback_index`` (design1) and ``piggyback_target``
(design2) sit next to ``build_map``, and every operation below reads the
placement from that map. Symbols may be ints or numpy stripe arrays
throughout. On stripe arrays, ``encode_cells`` fills one (n, s+1, ...)
array in place: each code's parity is one ``MdsCode.encode`` over
(width, ...) row blocks, columns 1..s together, and column s+1 with them
when k' = k, as all s+1 columns are then codewords of one code; plain
ints encode column by column. ``decode_stripe`` is the one path from
surviving rows to the stripe (the r+1 sweep and its ``FailurePattern``
included). It chooses the exact k cells each MDS decode takes and checks
every supplied symbol outside them. Columns 1..s are s codewords of one
code decoded from the same k rows, so on stripe arrays they are one MDS
solve over (s, ...) blocks; plain ints, and the r+1 sweep, decode column
by column. A row of arrays may be one (s+1, ...) array, the form in which
``recover_nodes``, the one multi-node recovery, reads each node with one
call. ``design1`` and ``design2`` re-export these names, because the
benchmark in ``perfbench/`` patches and calls them there; the only
function they define is ``design2.recover_failures``, that benchmark's
name for ``recover_nodes``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import DecodeError, InsufficientDataError, ParameterError
from .errors import RepairError, UnsupportedPatternError
from .field import symbols_equal
from .params import CodeParams, ReadTracker, RepairReport, SymbolGrid, Variant
from .params import grid_from_rows


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


def piggyback_index(params: CodeParams, i: int, j: int) -> tuple[int, int]:
    """The design1 rule: sum index tau and its target row for source cell (i, j).

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
    """The design2 rule: row of column s+1 whose sum absorbs source cell (i, j)."""
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


@functools.lru_cache(maxsize=512)
def build_map(params: CodeParams) -> PiggybackMap:
    """Enumerate all piggyback placements for the given parameters."""
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


def encode_cells(params: CodeParams, cells: np.ndarray) -> None:
    """Fill the (n, s+1, ...) stripe array ``cells`` in place from its data.

    The data sits in the systematic cells: rows 1..k of columns 1..s and
    rows 1..k' of column s+1; every other cell is overwritten. Each code's
    parity is one ``MdsCode.encode`` over the rows' contiguous
    (width, ...) blocks: columns 1..s, and column s+1 with them when
    k' = k, since all s+1 columns are then codewords of one code. Then
    each piggyback sum is XORed into column s+1, which for k' = 0 starts
    from the sum's first contributor.
    """
    s, k, kp = params.s, params.k, params.kprime
    width = s + 1 if kp == k else s
    parity = params.mds_first.encode(list(cells[:k, :width]))[k:]
    for row, block in enumerate(parity, k):
        cells[row, :width] = block
    if 0 < kp < k:
        parity = params.mds_last.encode(list(cells[:kp, s]))[kp:]
        for row, block in enumerate(parity, kp):
            cells[row, s] = block
    for row, ((ci, cj), *rest) in build_map(params).sums.items():
        last = cells[row - 1, s, ...]  # a view, also for 0-d symbols
        if kp:
            last ^= cells[cj - 1, ci - 1]
        else:
            last[...] = cells[cj - 1, ci - 1]
        for ci, cj in rest:
            last ^= cells[cj - 1, ci - 1]


def encode_stripe(params: CodeParams, data) -> SymbolGrid:
    """Encode s*k + k' data symbols into the n x (s+1) stripe.

    Stripe arrays fill one (n, s+1, ...) array in their dtype through
    ``encode_cells``; plain ints encode column by column.
    """
    data = list(data)
    if len(data) != params.data_symbols:
        raise ParameterError(
            f"expected {params.data_symbols} data symbols, got {len(data)}"
        )
    s, k = params.s, params.k
    if isinstance(data[0], np.ndarray):
        cells = np.empty((params.n, s + 1, *data[0].shape), np.result_type(*data))
        for i in range(s):
            cells[:k, i] = data[i * k : (i + 1) * k]
        if params.kprime:
            cells[: params.kprime, s] = data[s * k :]
        encode_cells(params, cells)
        return SymbolGrid(params, cells)
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
    parity under it. Those s parities and row f's own (n, k') symbol are
    one ``MdsCode.solve`` over the unsummed rows 1..k'+1 (the first k'
    other than f). Bandwidth is k' plus the sizes of the s sums
    containing row f's cells, plus the size of the sum stored in row f.
    """
    if not 1 <= f <= params.n:
        raise ParameterError(f"node {f} out of [1, {params.n}]")
    s, kp = params.s, params.kprime
    last_col = s + 1
    pb = build_map(params)
    tracker = ReadTracker(read, (f,))
    targets = [pb.source_to_tau[(i, f)][1] for i in range(1, s + 1)]
    if kp:
        plain = [row for row in range(1, kp + 2) if row != f][:kp]
        known = {row: tracker.fetch(row, last_col) for row in plain}
        last, *under = params.mds_last.solve(known, [f, *targets])
    else:
        last = None
    for ci, cj in pb.sums.get(f, ()):
        v = tracker.fetch(cj, ci)
        last = v if last is None else last ^ v

    row_syms = []
    for i, target in enumerate(targets, 1):
        acc = tracker.fetch(target, last_col)
        if kp:
            acc = acc ^ under[i - 1]
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


def _basis_columns(params: CodeParams, rows: Mapping[int, object], basis) -> list:
    """Columns 1..s of the stripe, decoded from the rows of ``basis``.

    On stripe arrays the s columns are one ``MdsCode.decode``: its symbols
    are each basis row's first s cells as one (s, ...) block, a view when
    the row is one (s+1, ...) array. Plain ints decode column by column.
    """
    mds, s = params.mds_first, params.s
    if not isinstance(rows[basis[0]][0], np.ndarray):
        return [mds.decode({node: rows[node][i] for node in basis}) for i in range(s)]
    blocks = mds.decode({node: np.asarray(rows[node][:s]) for node in basis})
    return [[block[i] for block in blocks] for i in range(s)]


def decode_stripe(params: CodeParams, rows: Mapping[int, object]) -> list:
    """Rebuild the whole stripe from the supplied rows; returns its n rows.

    ``rows`` maps node index to its s+1 symbols: a list, or for stripe
    arrays also one (s+1, ...) array. The basis: from k or more rows,
    columns 1..s decode from the first k (in node order), on arrays in one
    solve (``_basis_columns``), and column s+1's (n, k') codeword from the
    first k'. From k-1 rows when
    ``r_plus_1_guaranteed``, the sweep starts at the lost row f with the
    widest gap of survivors after it: for each column from s down to 1,
    cell (col, f) is peeled out of its stored sum, lost contributors coming
    from columns already decoded, and the column decodes from the k-1 rows
    and that cell. Every supplied symbol outside the basis is compared
    with the rebuilt stripe; a disagreement raises DecodeError. Too few
    rows raise what ``require_rows`` raises.
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
    basis = order[:k]  # rows columns 1..s decode from: all k-1 in the sweep
    basis_last = order[:kp]  # rows column s+1 is decoded or peeled from
    if len(rows) >= k:
        cols = _basis_columns(params, rows, basis)
    else:
        lost = [node for node in range(1, params.n + 1) if node not in rows]
        pattern = FailurePattern.from_failed(params, lost)
        gap = max(pattern.gaps)
        if gap < s:
            raise AssertionError(f"max gap {gap} < s={s} despite k > (s-1)(r+1)+1")
        f = pattern.failed[pattern.gaps.index(gap)]
        cols = [None] * s
        for col in range(s, 0, -1):
            target = pb.source_to_tau[(col, f)][1]
            basis_last.append(target)
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
            known = {node: rows[node][col - 1] for node in basis} | {f: acc}
            cols[col - 1] = mds.decode(known)

    sums = _sum_values(pb, cols)
    last_cw = None
    if kp:
        clean = {}
        for node in basis_last:
            p = sums.get(node)
            clean[node] = rows[node][s] if p is None else rows[node][s] ^ p
        last_cw = params.mds_last.decode(clean)
    stripe = _stripe_rows(params, cols, last_cw, sums)

    # the basis agrees with the stripe by construction; check everything else
    in_basis, in_basis_last = set(basis), set(basis_last)
    for node in order:
        full, row = stripe[node - 1], rows[node]
        for c in range(s if node in in_basis else 0, s + (node not in in_basis_last)):
            if not symbols_equal(full[c], row[c]):
                raise DecodeError(f"supplied row {node} disagrees with decoded stripe")
    return stripe


def recover_nodes(
    params: CodeParams, failed, read: Callable[[int], object]
) -> dict[int, list]:
    """Recover several failed nodes at once; returns {node: its s+1 symbols}.

    Every other node's row is read with one call, ``read(node)`` (failed
    nodes never are), and handed to ``decode_stripe``, so every survivor
    cell outside its basis is checked against the rebuilt stripe; a read
    that fails or gives None raises RepairError. More than r+1 failures
    with k' = 0 raise UnsupportedPatternError; otherwise too few survivors
    raise what ``require_rows`` raises, before anything is read.
    """
    failed = FailurePattern.from_failed(params, failed).failed
    if not params.kprime and len(failed) > params.r + 1:
        raise UnsupportedPatternError(
            f"{len(failed)} failures exceed the guaranteed capability "
            f"r+1={params.r + 1}"
        )
    require_rows(params, params.n - len(failed))
    rows = {}
    for node in range(1, params.n + 1):
        if node in failed:
            continue
        try:
            rows[node] = read(node)
        except Exception as exc:
            raise RepairError(f"cannot read node {node}: {exc}") from exc
        if rows[node] is None:
            raise RepairError(f"cannot read node {node}")
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
