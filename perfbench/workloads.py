"""The four benchmark workloads: their inputs, operations and output gates.

A workload is a sequence of cycles. Each cycle yields ``Op`` objects; the
runner times ``Op.run`` and nothing else, then hands its output to
``Op.check``. A check raises ``GateError`` when the output is wrong and
returns the counts the operation contributes to the end-to-end ratios.
Code between ops in a cycle generator (writing inputs, deleting shards
that an op must rebuild) is never timed.

Inputs come only from the seed. Every cycle of a workload does the same
amount of work, so count metrics taken over the first cycle repeat
exactly at a fixed seed, and the end-to-end ratios across seeds too.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

from piggyback import CodeParams, analysis, cli, design1, design2, grid_reader, mds, shards
from piggyback import field as shared_field
from piggyback.params import Variant

KIB = 1024
MIB = 1024 * KIB


class GateError(Exception):
    """An operation returned output that differs from the expected output."""


@dataclass
class Op:
    kind: str  # encode | repair | recover | decode | gamma
    nbytes: int  # original data bytes the operation covers
    run: Callable[[], object]
    check: Callable[[object], dict]
    io: bool = False  # measure the bytes the process reads during run()
    label: str = ""


def _require(cond: bool, message: str):
    if not cond:
        raise GateError(message)


def _design(params: CodeParams):
    return design2 if params.variant is Variant.DESIGN2 else design1


class Workload:
    name = ""
    params: CodeParams  # the code whose first construction setup_s times

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def describe(self) -> dict:
        raise NotImplementedError

    def warmup(self) -> Iterator[Op]:
        """Operations that run every code path once, untimed, so lazy
        imports and caches settle."""
        return iter(())

    def begin_cycle(self, c: int):
        """Untimed per-cycle preparation, called before the first op."""

    def cycle(self, c: int) -> Iterator[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# archive workloads: one large file through the shards API


class Archive(Workload):
    """Encode, repair every node, recover, then decode one seeded file."""

    size = 8 * MIB

    def __init__(self, seed, tmp, params: CodeParams, recover_nodes: list[int],
                 decode_lost: list[int]):
        super().__init__(seed, tmp)
        self.params = params
        self.raw = random.Random(seed).randbytes(self.size)
        self.input = tmp / "input.bin"
        self.input.write_bytes(self.raw)
        self.recover_nodes = recover_nodes
        self.decode_lost = decode_lost
        self.closed = {
            f: analysis.repair_bandwidth_closed_form(params, f)
            for f in range(1, params.n + 1)
        }

    def describe(self) -> dict:
        return {
            "params": self.params.describe(),
            "input_bytes": self.size,
            "recover_nodes": self.recover_nodes,
            "decode_lost": self.decode_lost,
        }

    def warmup(self) -> Iterator[Op]:
        small = self.tmp / "warm.bin"
        small.write_bytes(self.raw[: 64 * KIB])
        out = self.tmp / "warm"
        done = lambda _: {}  # the warm-up output is checked by the timed cycles
        yield Op("encode", 0, lambda: shards.encode_file(self.params, small, out), done)
        (out / shards.shard_filename(1)).unlink(missing_ok=True)
        yield Op("repair", 0, lambda: shards.repair_shard(out, 1), done)
        yield Op("recover", 0, lambda: shards.recover_shards(out, self.recover_nodes),
                 done)
        for f in self.decode_lost:
            (out / shards.shard_filename(f)).unlink(missing_ok=True)
        yield Op("decode", 0, lambda: shards.decode_file(out, self.tmp / "warm.out"),
                 done)

    def cycle(self, c: int) -> Iterator[Op]:
        p, d = self.params, self.tmp / "shards"
        if d.exists():
            shutil.rmtree(d)
        original: dict[int, bytes] = {}

        def check_encode(paths):
            _require(len(paths) == p.n, f"encode wrote {len(paths)} shards")
            for f in range(1, p.n + 1):
                original[f] = (d / shards.shard_filename(f)).read_bytes()
                header, _ = shards.read_shard(d / shards.shard_filename(f))
                _require(header.original_length == self.size, "header length")
            return {"stored": sum(map(len, original.values())), "input": self.size}

        yield Op("encode", self.size, lambda: shards.encode_file(p, self.input, d),
                 check_encode)

        for f in range(1, p.n + 1):
            (d / shards.shard_filename(f)).unlink(missing_ok=True)

            def check_repair(out, f=f):
                header, report = out
                _require(
                    (d / shards.shard_filename(f)).read_bytes() == original[f],
                    f"repaired shard {f} differs from the original",
                )
                _require(report.bandwidth == self.closed[f],
                         f"node {f} read {report.bandwidth} symbols, closed form "
                         f"{self.closed[f]}")
                stripes = header.stripe_count
                return {
                    "logical": report.bandwidth * stripes,
                    "closed": self.closed[f] * stripes,
                    "data_syms": p.data_symbols * stripes,
                    "data_bytes": self.size,
                }

            yield Op("repair", self.size,
                     lambda f=f: shards.repair_shard(d, f), check_repair, io=True,
                     label=f"node {f}")

        for f in self.recover_nodes:
            (d / shards.shard_filename(f)).unlink(missing_ok=True)

        def check_recover(nodes):
            _require(list(nodes) == self.recover_nodes, f"recovered {nodes}")
            for f in self.recover_nodes:
                _require(
                    (d / shards.shard_filename(f)).read_bytes() == original[f],
                    f"recovered shard {f} differs from the original",
                )
            return {}

        yield Op("recover", self.size,
                 lambda: shards.recover_shards(d, self.recover_nodes), check_recover)

        for f in self.decode_lost:
            (d / shards.shard_filename(f)).unlink(missing_ok=True)
        out_path = self.tmp / "decoded.bin"

        def check_decode(written):
            _require(written == self.size, f"decode wrote {written} bytes")
            _require(out_path.read_bytes() == self.raw,
                     "decoded file differs from the input")
            return {}

        yield Op("decode", self.size, lambda: shards.decode_file(d, out_path),
                 check_decode)


# Failure sets are fixed per workload, because their cost depends on which
# nodes fail: each loses at least two data nodes, so no decode takes the
# all-systematic shortcut, even after r+1 recovery has rebuilt one of them.


class ArchiveMds(Archive):
    name = "archive-mds-w16"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp, CodeParams(14, 10, 2, 10, w=16),
                         recover_nodes=[2, 7, 11, 13], decode_lost=[3, 8, 12, 14])


class ArchivePb2(Archive):
    name = "archive-pb2-w8"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp, CodeParams(14, 10, 2, 0, w=8),
                         recover_nodes=[2, 7, 11, 12, 14], decode_lost=[3, 8, 12, 14])


# ---------------------------------------------------------------------------
# sweep-scalar: the figure-reproduction path on plain-int stripes


def design1_tuples(n_max: int = 14):
    for n in range(3, n_max + 1):
        for k in range(1, n):
            for kp in range(1, k + 1):
                for s in range(1, k - kp + (n - k) - 1):
                    yield (n, k, s, kp)


def design2_tuples(n_max: int = 9):
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for s in range(1, n):
                yield (n, k, s, 0)


def recover_patterns(params: CodeParams):
    """Every pattern of up to r failures, and r+1 where it is guaranteed."""
    top = analysis.fault_tolerance(params)
    nodes = range(1, params.n + 1)
    for m in range(1, top + 1):
        yield from itertools.combinations(nodes, m)


class Sweep(Workload):
    """Every design1 tuple with n <= 14 and every design2 tuple with n <= 9.

    Per tuple: gamma_sim (which includes constructing the CodeParams),
    encode of a seeded stripe, a repair of every node through a counting
    reader, recovery of every supported failure pattern (design2), and a
    decode from a seeded k-subset of rows. Each cycle clears the public
    lru caches first, so each cycle costs what a fresh process pays.
    """

    name = "sweep-scalar"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.items = list(design1_tuples()) + list(design2_tuples())
        self.params = CodeParams(*self.items[0], w=8)

    def describe(self) -> dict:
        d1 = sum(1 for t in self.items if t[3])
        return {
            "params": f"{d1} design1 tuples n<=14, "
                      f"{len(self.items) - d1} design2 tuples n<=9, w=8",
            "input_bytes": sum(k * s + kp for _, k, s, kp in self.items),
        }

    def warmup(self) -> Iterator[Op]:
        for t in ((8, 6, 1, 3), (7, 5, 2, 0)):
            yield from self._item(random.Random(0), t)

    def begin_cycle(self, c: int):
        design1.build_map.cache_clear()
        mds.mds_code.cache_clear()
        shared_field.cache_clear()

    def cycle(self, c: int) -> Iterator[Op]:
        rng = random.Random(self.seed * 1_000_003 + c)
        items = list(self.items)
        rng.shuffle(items)
        for t in items:
            yield from self._item(rng, t)

    def _item(self, rng: random.Random, t) -> Iterator[Op]:
        holder = {}
        gamma_seed = rng.randrange(2**30)
        n = t[0]

        def run_gamma():
            holder["p"] = p = CodeParams(*t, w=8)
            return analysis.gamma_sim(p, seed=gamma_seed)

        def check_gamma(report):
            p = holder["p"]
            want = tuple(analysis.repair_bandwidth_closed_form(p, f)
                         for f in range(1, n + 1))
            _require(report.per_node_bandwidth == want,
                     f"{t}: gamma_sim bandwidths {report.per_node_bandwidth} != {want}")
            _require(report.gamma_sim == Fraction(sum(want), n * p.data_symbols),
                     f"{t}: gamma {report.gamma_sim} off the closed form")
            return {}

        # a gamma point repairs all n nodes of one stripe
        ds = t[1] * t[2] + t[3]
        yield Op("gamma", n * ds, run_gamma, check_gamma, label=str(t))
        p = holder.get("p") or CodeParams(*t, w=8)
        mod = _design(p)
        data = [rng.randrange(256) for _ in range(ds)]
        holder_grid = {}

        def check_encode(grid):
            cells = grid.cells.tolist()
            _require(len(cells) == n and all(len(r) == p.s + 1 for r in cells),
                     f"{t}: stripe shape")
            for i in range(p.s):
                for j in range(p.k):
                    _require(cells[j][i] == data[i * p.k + j],
                             f"{t}: systematic cell ({j + 1},{i + 1}) != data")
            holder_grid["g"] = grid
            holder_grid["rows"] = cells
            return {"stored": n * (p.s + 1), "input": ds}

        yield Op("encode", ds, lambda: mod.encode_stripe(p, data), check_encode,
                 label=str(t))
        if "g" not in holder_grid:
            return  # the failed encode is already counted
        grid, rows = holder_grid["g"], holder_grid["rows"]

        for f in range(1, n + 1):
            cells_read = [0]
            base = grid_reader(grid, failed={f})

            def counting(node, col, base=base, cells_read=cells_read):
                cells_read[0] += 1
                return base(node, col)

            closed = analysis.repair_bandwidth_closed_form(p, f)

            def check_repair(out, f=f, closed=closed, cells_read=cells_read):
                row, report = out
                _require(row == rows[f - 1], f"{t}: repaired node {f} differs")
                _require(report.bandwidth == closed,
                         f"{t}: node {f} read {report.bandwidth}, closed form {closed}")
                return {"logical": report.bandwidth, "closed": closed,
                        "data_syms": ds, "data_bytes": ds, "io_bytes": cells_read[0]}

            yield Op("repair", ds, lambda f=f, r=counting: mod.repair_node(p, f, r),
                     check_repair, label=f"{t} node {f}")

        if p.variant is Variant.DESIGN2:
            for pattern in recover_patterns(p):
                def check_recover(out, pattern=pattern):
                    _require(sorted(out) == list(pattern), f"{t}: recovered {sorted(out)}")
                    for f, syms in out.items():
                        _require(syms == rows[f - 1],
                                 f"{t}: recovery of {pattern} differs at node {f}")
                    return {}

                yield Op("recover", ds,
                         lambda pattern=pattern: design2.recover_failures(
                             p, pattern, grid_reader(grid, failed=set(pattern))),
                         check_recover, label=f"{t} {pattern}")

        keep = sorted(rng.sample(range(1, n + 1), p.k))
        known = {f: rows[f - 1] for f in keep}

        def check_decode(out):
            _require(list(out) == data, f"{t}: decode from {keep} differs")
            return {}

        yield Op("decode", ds, lambda: mod.decode_from_k(p, known), check_decode,
                 label=f"{t} {keep}")


# ---------------------------------------------------------------------------
# small-files-cli: many small files through cli.main in process


class SmallFiles(Workload):
    """A fixed mix of 4/16/64 KiB files in seeded order and content.

    Per file: encode, repair of every node (default json report), recovery
    of r=2 nodes, then decode with 2 shards missing, all via cli.main with
    stdout captured.
    """

    name = "small-files-cli"
    sizes = (4 * KIB, 16 * KIB, 64 * KIB) * 4
    flags = ["--design", "1", "-n", "8", "-k", "6", "-s", "1", "--kprime", "3",
             "-w", "8"]

    recover_nodes = [2, 7]  # one data and one parity node (r = 2)
    decode_lost = [4, 8]

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.params = CodeParams(8, 6, 1, 3, w=8)
        self.closed = {
            f: analysis.repair_bandwidth_closed_form(self.params, f)
            for f in range(1, self.params.n + 1)
        }

    def describe(self) -> dict:
        return {
            "params": self.params.describe(),
            "input_bytes": sum(self.sizes),
            "file_sizes": sorted(self.sizes),
        }

    @staticmethod
    def _cli(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def warmup(self) -> Iterator[Op]:
        return self._file(random.Random(0), 0, 4 * KIB)

    def cycle(self, c: int) -> Iterator[Op]:
        rng = random.Random(self.seed * 1_000_003 + c)
        order = list(self.sizes)
        rng.shuffle(order)
        for i, size in enumerate(order):
            yield from self._file(rng, i, size)

    def _file(self, rng: random.Random, i: int, size: int) -> Iterator[Op]:
        p = self.params
        raw = rng.randbytes(size)
        src = self.tmp / f"file{i}.bin"
        src.write_bytes(raw)
        d = self.tmp / f"file{i}.shards"
        if d.exists():
            shutil.rmtree(d)
        original: dict[int, bytes] = {}

        def ok(result, command):
            code, out, err = result
            _require(code == 0, f"{command} exited {code}: {err.strip()}")
            return json.loads(out), len(out)

        def check_encode(result):
            doc, nout = ok(result, "encode")
            _require(doc["shards"] == p.n, f"encode reported {doc['shards']} shards")
            for f in range(1, p.n + 1):
                original[f] = (d / shards.shard_filename(f)).read_bytes()
            return {"stored": sum(map(len, original.values())), "input": size,
                    "stdout": nout}

        yield Op("encode", size,
                 lambda: self._cli(["encode", *self.flags, "--in", str(src),
                                    "--out-dir", str(d)]),
                 check_encode, label=f"{size} B")

        for f in range(1, p.n + 1):
            (d / shards.shard_filename(f)).unlink(missing_ok=True)

            def check_repair(result, f=f):
                doc, nout = ok(result, "repair")
                bw, stripes = doc["bandwidth_symbols"], doc["stripe_count"]
                _require(doc["node"] == f, f"repair reported node {doc['node']}")
                _require(bw == self.closed[f],
                         f"node {f} read {bw} symbols, closed form {self.closed[f]}")
                _require(len(doc["reads"]) == bw * stripes, "repair read list length")
                _require((d / shards.shard_filename(f)).read_bytes() == original[f],
                         f"repaired shard {f} differs from the original")
                return {"logical": bw * stripes, "closed": self.closed[f] * stripes,
                        "data_syms": p.data_symbols * stripes, "data_bytes": size,
                        "stdout": nout}

            yield Op("repair", size,
                     lambda f=f: self._cli(["repair", "--node", str(f),
                                            "--in-dir", str(d)]),
                     check_repair, io=True, label=f"{size} B node {f}")

        lost = self.recover_nodes
        for f in lost:
            (d / shards.shard_filename(f)).unlink(missing_ok=True)

        def check_recover(result):
            doc, nout = ok(result, "recover")
            _require(doc["nodes"] == lost, f"recovered {doc['nodes']}, wanted {lost}")
            for f in lost:
                _require((d / shards.shard_filename(f)).read_bytes() == original[f],
                         f"recovered shard {f} differs from the original")
            return {"stdout": nout}

        yield Op("recover", size,
                 lambda: self._cli(["recover", "--nodes", ",".join(map(str, lost)),
                                    "--in-dir", str(d)]),
                 check_recover, label=f"{size} B {lost}")

        gone = self.decode_lost
        for f in gone:
            (d / shards.shard_filename(f)).unlink(missing_ok=True)
        dst = self.tmp / f"file{i}.out"

        def check_decode(result):
            doc, nout = ok(result, "decode")
            _require(doc["bytes"] == size, f"decode wrote {doc['bytes']} bytes")
            _require(dst.read_bytes() == raw, "decoded file differs from the input")
            return {"stdout": nout}

        yield Op("decode", size,
                 lambda: self._cli(["decode", "--in-dir", str(d), "--out", str(dst)]),
                 check_decode, label=f"{size} B {gone}")


WORKLOADS = {w.name: w for w in (ArchiveMds, ArchivePb2, Sweep, SmallFiles)}
