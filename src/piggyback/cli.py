"""Command-line front end: shard files, repair/recover them, run analyses.

Subcommands
-----------
encode   split a file into n shards
decode   rebuild the original file from any k shards
repair   rebuild one deleted/corrupt shard, reporting exact reads
recover  rebuild several failed shards at once
verify   run the invariant suite for a parameter tuple
analyze  closed-form ratios, bounds and comparison sweeps as CSV

Exit codes: 0 ok, 2 parameter error, 3 data error, 4 unsupported failure
pattern. Errors are printed to stderr as one-line JSON objects.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from math import comb

from . import analysis, shards, stripe
from .errors import (
    DataError,
    ParameterError,
    PiggybackError,
    UnsupportedPatternError,
)
from .params import CodeParams, grid_reader

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_DATA = 3
EXIT_UNSUPPORTED = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": "parameter", "message": message}), file=sys.stderr)
        self.exit(EXIT_PARAMETER)


def _params_from_args(args) -> CodeParams:
    kprime = args.kprime
    if args.design == 2:
        if kprime not in (None, 0):
            raise ParameterError("design 2 stores no data in the last column; "
                                 "omit --kprime or pass 0")
        kprime = 0
    elif kprime is None:
        kprime = args.k  # MDS variant by default
    elif kprime == 0:
        raise ParameterError("design 1 needs kprime >= 1; use --design 2 "
                             "for the empty last column")
    return CodeParams(n=args.n, k=args.k, s=args.s, kprime=kprime, w=args.w)


def _add_code_flags(sub, with_design=True):
    if with_design:
        sub.add_argument("--design", type=int, choices=(1, 2), required=True)
    sub.add_argument("-n", type=int, required=True, help="total nodes")
    sub.add_argument("-k", type=int, required=True, help="instance dimension")
    sub.add_argument("-s", type=int, required=True, help="instance count")
    sub.add_argument("--kprime", type=int, default=None,
                     help="last-instance dimension (design 1; defaults to k)")
    sub.add_argument("-w", type=int, choices=(8, 16), default=16,
                     help="symbol width in bits")


def cmd_encode(args) -> int:
    params = _params_from_args(args)
    paths = shards.encode_file(params, args.infile, args.out_dir)
    print(json.dumps({
        "command": "encode",
        "code": params.describe(),
        "shards": len(paths),
        "out_dir": str(args.out_dir),
    }))
    return EXIT_OK


def cmd_decode(args) -> int:
    written = shards.decode_file(args.in_dir, args.out)
    print(json.dumps({"command": "decode", "out": str(args.out), "bytes": written}))
    return EXIT_OK


def cmd_repair(args) -> int:
    header, report = shards.repair_shard(args.in_dir, args.node)
    out = {
        "node": report.node,
        "bandwidth_symbols": report.bandwidth,
        "stripe_count": header.stripe_count,
    }
    if args.report == "json":
        out["reads"] = [
            {"node": a, "column": b}
            for _ in range(header.stripe_count)
            for a, b in report.reads
        ]
    print(json.dumps(out))
    return EXIT_OK


def cmd_recover(args) -> int:
    nodes = [int(tok) for tok in args.nodes.split(",") if tok]
    if not nodes:
        raise ParameterError("--nodes needs at least one node index")
    done = shards.recover_shards(args.in_dir, nodes)
    print(json.dumps({"command": "recover", "nodes": done}))
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _params_from_args(args)
    rng = random.Random(args.seed)
    emit = lambda msg: print(f"ok: {msg}")
    print(f"verifying {params.describe()}")
    n, s = params.n, params.s

    pb = stripe.build_map(params)
    total = sum(pb.counts.values())
    if total != s * n:
        raise DataError(f"map sum {total} != s*n = {s * n}")
    emit(f"map sum identity: {total} = s*n")
    for j in range(1, n + 1):
        targets = [pb.source_to_tau[(i, j)][1] for i in range(1, s + 1)]
        if len(set(targets)) != s:
            raise DataError(f"row {j} feeds a piggyback sum twice")
        if j in targets:
            raise DataError(f"a cell of row {j} lands in its own row")
    emit("per-row distinctness and self-row exclusion hold")
    if params.kprime:
        for tau, cnt in pb.counts.items():
            want = analysis.n_tau_closed_form(params, tau)
            if cnt != want:
                raise DataError(f"count of sum {tau}: enumerated {cnt}, closed form {want}")
        emit("contributor counts match the closed form")

    instances = [params.mds_first] + ([params.mds_last] if params.kprime else [])
    for inst in dict.fromkeys(instances):
        if comb(inst.n, inst.k) <= 2000:
            check = inst.verify_mds(mode="exhaustive", budget=2000)
        else:
            check = inst.verify_mds(mode="sampled", samples=500, seed=rng.randrange(2**30))
        if not check.passed:
            raise DataError(
                f"({inst.n},{inst.k}) instance failed MDS check at {check.witness}"
            )
        emit(f"({inst.n},{inst.k}) instance MDS check passed ({check.tested} subsets)")

    report = analysis.gamma_sim(params, seed=rng.randrange(2**30))
    for f in range(1, n + 1):
        want = analysis.repair_bandwidth_closed_form(params, f)
        got = report.per_node_bandwidth[f - 1]
        if got != want:
            raise DataError(f"node {f} bandwidth {got} != closed form {want}")
    emit("every node repairs exactly and at closed-form bandwidth")
    gamma = report.gamma_sim
    if report.gamma_bound is not None:
        if gamma > report.gamma_bound:
            raise DataError(f"gamma {gamma} exceeds bound {report.gamma_bound}")
        emit(f"gamma = {float(gamma):.6f} <= bound {float(report.gamma_bound):.6f}")
    if report.gamma_min is not None:
        if not report.gamma_min <= gamma <= report.gamma_max:
            raise DataError("gamma outside the k'=k bounds")
        emit("gamma lies inside the k'=k lower/upper bounds")

    data = [rng.randrange(params.fld.q) for _ in range(params.data_symbols)]
    grid = stripe.encode_stripe(params, data)
    expected = grid.cells.tolist()
    nodes = range(1, n + 1)
    for m in range(1, analysis.fault_tolerance(params) + 1):
        if comb(n, m) <= 200:
            patterns = list(itertools.combinations(nodes, m))
        else:
            patterns = set()
            while len(patterns) < 200:
                patterns.add(tuple(sorted(rng.sample(nodes, m))))
        for pattern in patterns:
            rec = stripe.recover_nodes(params, pattern, grid_reader(grid, failed=pattern))
            for f, syms in rec.items():
                if syms != expected[f - 1]:
                    raise DataError(f"recovery of {pattern} mismatched node {f}")
        emit(f"recovery of {m} failed nodes exact on {len(patterns)} patterns")
    print("all checks passed")
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.mode in ("gamma", "bounds"):
        point = analysis.gamma_point if args.mode == "gamma" else analysis.bounds_point
        rows = [point(_params_from_args(args))]
    elif args.mode == "sweep":
        rows = analysis.sweep_mds_vs_oop(
            args.r, args.k_min, args.k_max, s=args.sweep_s, w=args.w
        )
    else:  # lrc-compare
        rows = analysis.sweep_lrc(args.n, args.g_min, args.g_max, args.tolerance)
    if not rows:  # every sweep point yields a row, skipped or not
        print("warning: empty sweep range", file=sys.stderr)
    sys.stdout.write(analysis.rows_to_csv(rows))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="piggyback", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    enc = subs.add_parser("encode", help="split a file into n shards")
    _add_code_flags(enc)
    enc.add_argument("--in", dest="infile", required=True, metavar="FILE")
    enc.add_argument("--out-dir", required=True, metavar="DIR")
    enc.set_defaults(func=cmd_encode)

    dec = subs.add_parser("decode", help="rebuild a file from any k shards")
    dec.add_argument("--in-dir", required=True, metavar="DIR")
    dec.add_argument("--out", required=True, metavar="FILE")
    dec.set_defaults(func=cmd_decode)

    rep = subs.add_parser("repair", help="rebuild one shard")
    rep.add_argument("--node", type=int, required=True)
    rep.add_argument("--in-dir", required=True, metavar="DIR")
    rep.add_argument("--report", choices=("json", "summary"), default="json",
                     help="json includes the full per-stripe read list")
    rep.set_defaults(func=cmd_repair)

    rec = subs.add_parser("recover", help="rebuild several shards")
    rec.add_argument("--nodes", required=True, metavar="F1,F2,...")
    rec.add_argument("--in-dir", required=True, metavar="DIR")
    rec.set_defaults(func=cmd_recover)

    ver = subs.add_parser("verify", help="run the invariant suite")
    _add_code_flags(ver)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    ana = subs.add_parser("analyze", help="ratios, bounds and sweeps as CSV")
    ana_subs = ana.add_subparsers(dest="mode", required=True)

    g = ana_subs.add_parser("gamma", help="simulated ratio at one point")
    _add_code_flags(g)
    g.set_defaults(func=cmd_analyze)

    b = ana_subs.add_parser("bounds", help="closed-form bounds at one point")
    _add_code_flags(b)
    b.set_defaults(func=cmd_analyze)

    sw = ana_subs.add_parser("sweep", help="k'=k layout versus OOP over k")
    sw.add_argument("--r", type=int, required=True)
    sw.add_argument("--k-min", type=int, required=True)
    sw.add_argument("--k-max", type=int, required=True)
    sw.add_argument("--s", dest="sweep_s", default="optimal",
                    help="instance count or 'optimal'")
    sw.add_argument("-w", type=int, choices=(8, 16), default=16)
    sw.set_defaults(func=cmd_analyze)

    lc = ana_subs.add_parser("lrc-compare", help="k'=0 layout versus LRCs over g")
    lc.add_argument("--n", type=int, required=True)
    lc.add_argument("--g-min", type=int, required=True)
    lc.add_argument("--g-max", type=int, required=True)
    lc.add_argument("--tolerance", type=int, required=True)
    lc.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(json.dumps({"error": "parameter", "message": str(exc)}), file=sys.stderr)
        return EXIT_PARAMETER
    except UnsupportedPatternError as exc:
        print(json.dumps({"error": "unsupported_pattern", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_UNSUPPORTED
    except DataError as exc:
        print(json.dumps({"error": "data", "message": str(exc)}), file=sys.stderr)
        return EXIT_DATA
    except PiggybackError as exc:
        print(json.dumps({"error": "error", "message": str(exc)}), file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
