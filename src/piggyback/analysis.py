"""Closed-form repair-bandwidth evaluators, baselines and sweeps.

Provides per-piggyback contributor counts, per-node and average repair
bandwidth (simulated through the real repair engines and cross-checkable
against the closed forms), the upper/lower bound expressions for both
layouts, the OOP / Azure-LRC / optimal-LRC baseline formulas, and the
parameter sweeps behind the comparison figures. All ratios of our codes
are exact ``fractions.Fraction`` values; only the OOP baseline is a float
because its expression contains sqrt(r-1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import design1, stripe
from .errors import ParameterError
from .params import CodeParams, Variant, grid_reader

CSV_HEADER = [
    "variant",
    "n",
    "k",
    "s",
    "kprime",
    "g",
    "gamma_sim",
    "gamma_bound",
    "gamma_min",
    "gamma_max",
    "gamma_oop",
    "gamma_azure",
    "gamma_optlrc",
    "overhead",
    "overhead_baseline",
    "tolerance",
    "conditions",
    "skip_reason",
]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def n_tau_closed_form(params: CodeParams, tau: int) -> int:
    """Contributor count of piggyback sum tau, by the closed form.

    The first s(k-h+1) source cells spread over the h+r-1 sums as evenly
    as possible (the low-numbered sums get the ceiling share), and every
    sum receives exactly s cells from the last h+r-1 rows.
    """
    if params.kprime == 0:
        raise ParameterError("closed-form counts apply to the design1 layouts")
    s, k, h, r = params.s, params.k, params.h, params.r
    d = h + r - 1
    if not 1 <= tau <= d:
        raise ParameterError(f"tau {tau} out of [1, {d}]")
    first = s * (k - h + 1)
    threshold = first - (first // d) * d
    share = _ceil_div(first, d) if tau <= threshold else first // d
    return s + share


def repair_bandwidth_closed_form(params: CodeParams, f: int) -> int:
    """Single-node repair bandwidth of node f by the closed forms."""
    if not 1 <= f <= params.n:
        raise ParameterError(f"node {f} out of [1, {params.n}]")
    if params.variant is Variant.DESIGN2:
        return params.s + params.s**2
    kp = params.kprime
    total = kp + sum(
        n_tau_closed_form(params, design1.piggyback_index(params, i, f)[0])
        for i in range(1, params.s + 1)
    )
    if f >= kp + 2:
        total += n_tau_closed_form(params, f - kp - 1)
    return total


@dataclass(frozen=True)
class RatioReport:
    """Average repair bandwidth ratio over all n nodes, with bounds."""

    params: CodeParams
    per_node_bandwidth: tuple[int, ...]
    gamma_sim: Fraction
    storage_overhead: Fraction
    gamma_bound: Fraction | None = None
    gamma_min: Fraction | None = None
    gamma_max: Fraction | None = None


def storage_overhead(params: CodeParams) -> Fraction:
    """Stored symbols over data symbols: n(s+1) / (sk + k')."""
    return Fraction(params.n * (params.s + 1), params.data_symbols)


def fault_tolerance(params: CodeParams) -> int:
    """Guaranteed simultaneous failures: r for the design1 layouts, r+1
    for the k'=0 layout whenever k > (s-1)(r+1)+1 (else r)."""
    return params.r + 1 if stripe.r_plus_1_guaranteed(params) else params.r


def gamma_sim(params: CodeParams, seed: int = 0) -> RatioReport:
    """Simulate every single-node repair on random data and average.

    Each repair runs against a reader with the failed row actually
    removed, and the recovered row is checked against the original; a
    mismatch raises AssertionError since it would mean an engine bug.
    """
    rng = random.Random(seed)
    data = [rng.randrange(params.fld.q) for _ in range(params.data_symbols)]
    grid = stripe.encode_stripe(params, data)
    expected = grid.cells.tolist()
    bandwidths = []
    for f in range(1, params.n + 1):
        row, report = stripe.repair_node(params, f, grid_reader(grid, failed={f}))
        if row != expected[f - 1]:
            raise AssertionError(
                f"repair of node {f} disagrees with the original stripe"
            )
        bandwidths.append(report.bandwidth)
    gamma = Fraction(sum(bandwidths), params.n * params.data_symbols)

    bound = gmin = gmax = None
    if params.variant is not Variant.DESIGN2:
        bound = gamma_upper_bound(params)
    if params.variant is Variant.DESIGN1_MDS:
        gmin, gmax = gamma_bounds_mds(params)
    return RatioReport(
        params=params,
        per_node_bandwidth=tuple(bandwidths),
        gamma_sim=gamma,
        storage_overhead=storage_overhead(params),
        gamma_bound=bound,
        gamma_min=gmin,
        gamma_max=gmax,
    )


def gamma_upper_bound(params: CodeParams) -> Fraction:
    """Upper bound on the all-nodes ratio for the design1 layouts."""
    if params.kprime == 0:
        raise ParameterError("bound applies to the design1 layouts")
    s, k, h, r = params.s, params.k, params.h, params.r
    u = _ceil_div(s * (k - h + 1), h + r - 1)
    return Fraction((u + s) ** 2 * (h + r - 1), (k + r) * (s * k + k - h)) + Fraction(
        k - h + s, s * k + k - h
    )


def gamma_bounds_mds(params: CodeParams) -> tuple[Fraction, Fraction]:
    """Lower/upper bounds on the all-nodes ratio when k' = k."""
    if params.variant is not Variant.DESIGN1_MDS:
        raise ParameterError("bounds apply to the k'=k layout")
    s, k, r = params.s, params.k, params.r
    gmin = Fraction(k + s, (s + 1) * k) + Fraction(s * s * (k + r), (r - 1) * (s + 1) * k)
    gmax = gmin + Fraction(r - 1, 4 * k * (k + r) * (s + 1))
    return gmin, gmax


def limit_gamma_mds(r: int, s: int) -> Fraction:
    """Large-k limit of the k'=k ratio: s^2/((r-1)(s+1)) + 1/(s+1)."""
    if r < 2 or s < 1:
        raise ParameterError(f"need r >= 2 and s >= 1, got r={r} s={s}")
    return Fraction(s * s, (r - 1) * (s + 1)) + Fraction(1, s + 1)


def mds_s_candidates(r: int) -> list[int]:
    """Integer neighbors of sqrt(r)-1, clamped to the valid [1, r-2]."""
    if r < 3:
        raise ParameterError(f"k'=k layout needs r >= 3, got r={r}")
    root = math.sqrt(r) - 1
    cands = {max(1, min(r - 2, int(math.floor(root)))),
             max(1, min(r - 2, int(math.ceil(root))))}
    return sorted(cands)


def optimal_s(r: int, k: int | None = None, w: int = 16) -> int:
    """Best instance count s for the k'=k layout.

    With k given, evaluates the simulated finite-k ratio at the integer
    neighbors of sqrt(r)-1 and picks the argmin (smaller s on ties);
    without k it minimizes the large-k limit expression.
    """
    best, best_val = None, None
    for s in mds_s_candidates(r):
        if k is None:
            val = limit_gamma_mds(r, s)
        else:
            val = gamma_sim(CodeParams(n=k + r, k=k, s=s, kprime=k, w=w)).gamma_sim
        if best_val is None or val < best_val:
            best, best_val = s, val
    return best


def gamma_design2_closed(k: int, s: int) -> Fraction:
    """All-nodes ratio of the k'=0 layout: (s+1)/k, every node costs s+s^2."""
    return Fraction(s + 1, k)


def gamma_oop(k: int, r: int) -> float:
    """OOP baseline: minimum all-nodes average repair bandwidth ratio."""
    if r < 2 or k < 1:
        raise ParameterError(f"need r >= 2 and k >= 1, got r={r} k={k}")
    sq = math.sqrt(r - 1)
    data_part = k * (2 * sq + 1) / (2 * sq + r)
    parity_part = r * (sq / r + 1 / r + ((r - 1) ** 2 - (r - 1) ** 1.5) / (k * r))
    return (data_part + parity_part) / (k + r)


@dataclass(frozen=True)
class LrcBaseline:
    gamma: Fraction
    overhead: Fraction
    tolerance: int


def azure_lrc(n: int, k: int, g: int) -> LrcBaseline:
    """(n, k, g) Azure-LRC: k data in g local groups, n-k-g global parities.

    Local symbols repair from k/g group members; global parities repair
    from all k data symbols. The gamma formula is evaluated literally even
    when g does not divide k (flagged by the caller).
    """
    if not (1 <= g and k >= 1 and n > k + g):
        raise ParameterError(f"invalid Azure-LRC point (n={n}, k={k}, g={g})")
    gamma = Fraction((n - k - g + 1) * g + k, n * g)
    return LrcBaseline(gamma=gamma, overhead=Fraction(n, k), tolerance=n - k - g + 1)


def optimal_lrc(n: int, k: int, g: int) -> LrcBaseline:
    """(n, k, g) optimal-LRC: every symbol repairs from (n-g)/g group members."""
    if not (1 <= g and k >= 1 and n > k + g):
        raise ParameterError(f"invalid optimal-LRC point (n={n}, k={k}, g={g})")
    gamma = Fraction(n - g, k * g)
    return LrcBaseline(gamma=gamma, overhead=Fraction(n, k), tolerance=n - k - g + 1)


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (Fraction, float)):
        return f"{float(x):.6f}"
    return str(x)


def make_row(**kwargs) -> dict:
    row = {col: "" for col in CSV_HEADER}
    for key, val in kwargs.items():
        if key not in row:
            raise KeyError(f"unknown CSV column {key!r}")
        row[key] = val
    return row


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_HEADER)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in CSV_HEADER))
    return "\n".join(lines) + "\n"


def gamma_point(params: CodeParams, seed: int = 0) -> dict:
    """One CSV row for a single parameter point (simulated gamma)."""
    report = gamma_sim(params, seed=seed)
    return make_row(
        variant=params.variant.value,
        n=params.n,
        k=params.k,
        s=params.s,
        kprime=params.kprime,
        gamma_sim=report.gamma_sim,
        gamma_bound=report.gamma_bound,
        gamma_min=report.gamma_min,
        gamma_max=report.gamma_max,
        overhead=report.storage_overhead,
        tolerance=fault_tolerance(params),
    )


def bounds_point(params: CodeParams) -> dict:
    """One CSV row with closed-form bounds only (no simulation)."""
    row = make_row(
        variant=params.variant.value,
        n=params.n,
        k=params.k,
        s=params.s,
        kprime=params.kprime,
        overhead=storage_overhead(params),
        tolerance=fault_tolerance(params),
    )
    if params.variant is Variant.DESIGN2:
        row["gamma_sim"] = gamma_design2_closed(params.k, params.s)
    else:
        row["gamma_bound"] = gamma_upper_bound(params)
        if params.variant is Variant.DESIGN1_MDS:
            gmin, gmax = gamma_bounds_mds(params)
            row["gamma_min"], row["gamma_max"] = gmin, gmax
    return row


def sweep_mds_vs_oop(
    r: int, k_min: int, k_max: int, s: int | str = "optimal", w: int = 16
) -> list[dict]:
    """k'=k layout versus the OOP baseline for k in [k_min, k_max]."""
    rows = []
    for k in range(k_min, k_max + 1):
        try:
            s_val = optimal_s(r, k, w=w) if s == "optimal" else int(s)
            params = CodeParams(n=k + r, k=k, s=s_val, kprime=k, w=w)
        except ParameterError as exc:
            rows.append(
                make_row(variant="design1_mds", n=k + r, k=k, skip_reason=str(exc))
            )
            continue
        row = gamma_point(params)
        row["gamma_oop"] = gamma_oop(k, r)
        rows.append(row)
    return rows


def _conditions_string(n: int, k: int, g: int) -> str:
    flags = {
        "cond_2g": 2 * g > n - k + 1,
        "cond_gain": n * n - k * k < k * g * (n - k - g + 1),
        "div_n_g": n % g == 0,
        "div_nmg_g": (n - g) % g == 0,
        "k_div_g": k % g == 0,
    }
    return ";".join(f"{name}={'1' if val else '0'}" for name, val in flags.items())


def lrc_compare_point(n: int, k: int, g: int) -> list[dict]:
    """CSV rows comparing our k'=0 codes against both LRCs at (n, k, g).

    Emits up to three rows: the overhead-and-bandwidth-dominating
    C(n, k+g, n/g, 0) against Azure-LRC, the equal-overhead
    C(n-g, k, (n-g)/g, 0) against Azure-LRC, and C(n, k+g, (n-g)/g, 0)
    against optimal-LRC. Points failing the divisibility each construction
    assumes are emitted with a skip reason instead.
    """
    azure = azure_lrc(n, k, g)
    optlrc = optimal_lrc(n, k, g)
    conditions = _conditions_string(n, k, g)
    rows = []

    def our_row(n_our, k_our, s_our, baseline, which):
        row = make_row(
            variant="design2",
            n=n_our,
            k=k_our,
            s=s_our,
            kprime=0,
            g=g,
            gamma_azure=azure.gamma,
            gamma_optlrc=optlrc.gamma,
            overhead_baseline=baseline.overhead,
            conditions=conditions,
        )
        try:
            params = CodeParams(n=n_our, k=k_our, s=s_our, kprime=0)
        except ParameterError as exc:
            row["skip_reason"] = f"{which}: {exc}"
            return row
        row["gamma_sim"] = gamma_design2_closed(k_our, s_our)
        row["overhead"] = storage_overhead(params)
        row["tolerance"] = fault_tolerance(params)
        return row

    if n % g == 0:
        rows.append(our_row(n, k + g, n // g, azure, "azure"))
    else:
        rows.append(
            make_row(
                variant="design2", n=n, k=k + g, g=g,
                gamma_azure=azure.gamma, overhead_baseline=azure.overhead,
                conditions=conditions, skip_reason="n/g not integral",
            )
        )
    if (n - g) % g == 0:
        rows.append(our_row(n - g, k, (n - g) // g, azure, "azure_equal_overhead"))
        rows.append(our_row(n, k + g, (n - g) // g, optlrc, "optimal_lrc"))
    else:
        rows.append(
            make_row(
                variant="design2", n=n, k=k, g=g,
                gamma_azure=azure.gamma, gamma_optlrc=optlrc.gamma,
                overhead_baseline=azure.overhead,
                conditions=conditions, skip_reason="(n-g)/g not integral",
            )
        )
    return rows


def sweep_lrc(n: int, g_min: int, g_max: int, tolerance: int) -> list[dict]:
    """LRC comparison sweep at fixed n and fault tolerance.

    The LRC point (n, k, g) has tolerance n-k-g+1, so k = n-g-tolerance+1
    at each g.
    """
    rows = []
    for g in range(g_min, g_max + 1):
        k = n - g - tolerance + 1
        if k < 1:
            rows.append(
                make_row(n=n, g=g, tolerance=tolerance,
                         skip_reason=f"tolerance {tolerance} leaves k={k} < 1")
            )
            continue
        rows.extend(lrc_compare_point(n, k, g))
    return rows
