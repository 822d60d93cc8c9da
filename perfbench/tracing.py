"""In-memory span tracer that wraps the public functions of each layer.

The tracer patches functions on the ``piggyback`` modules from outside the
program (the program itself records nothing). Every wrapped call updates
per-name totals: calls, total time and self time, where self time is the
call's duration minus the time spent in wrapped calls beneath it.

Calls named in ``HOT`` run thousands of times per operation (scalar field
arithmetic, per-cell reads, per-column MDS work). They are aggregated into
a count and a total time per parent span. Every other wrapped call, and
every benchmark operation, is kept as a span ``(name, start, end, parent,
op)`` and written out by ``dump``.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import time
from collections import defaultdict

import numpy as np

HOT = frozenset({
    "field.mul", "field.dot", "mds.encode", "mds.decode_data", "mds.invert",
    "params.fetch", "params.construct",
})

# (module, owner attribute or None for a module function, function, name)
TARGETS = [
    ("field", "Field", "mul", "field.mul"),
    ("field", "Field", "dot", "field.dot"),
    ("mds", "MdsCode", "encode", "mds.encode"),
    ("mds", "MdsCode", "decode_data", "mds.decode_data"),
    ("mds", None, "_invert", "mds.invert"),
    ("params", "ReadTracker", "fetch", "params.fetch"),
    ("params", "CodeParams", "__init__", "params.construct"),
    ("design1", None, "encode_stripe", "design1.encode_stripe"),
    ("design1", None, "repair_node", "design1.repair_node"),
    ("design1", None, "decode_from_k", "design1.decode_from_k"),
    ("design2", None, "encode_stripe", "design2.encode_stripe"),
    ("design2", None, "repair_node", "design2.repair_node"),
    ("design2", None, "recover_failures", "design2.recover_failures"),
    ("design2", None, "decode_from_k", "design2.decode_from_k"),
    ("analysis", None, "gamma_sim", "analysis.gamma_sim"),
    ("shards", None, "encode_file", "shards.encode_file"),
    ("shards", None, "decode_file", "shards.decode_file"),
    ("shards", None, "repair_shard", "shards.repair_shard"),
    ("shards", None, "recover_shards", "shards.recover_shards"),
    ("shards", None, "load_shard_set", "shards.load_shard_set"),
    ("shards", None, "read_shard", "shards.read_shard"),
    ("shards", None, "write_shard", "shards.write_shard"),
    ("shards", None, "_payload_from_row", "shards.pack"),
    ("cli", None, "main", "cli.main"),
]

READ_COUNTED = frozenset({"shards.load_shard_set", "shards.read_shard"})
RSS_COUNTED = frozenset({
    "shards.encode_file", "shards.decode_file", "shards.repair_shard",
    "shards.recover_shards",
})


class ReadBytes:
    """Bytes this process has read (``rchar``), net of the probe's own read."""

    def __init__(self):
        self._fd = os.open("/proc/self/io", os.O_RDONLY)

    def probe(self) -> tuple[int, int]:
        """(rchar before this probe, bytes this probe read)."""
        blob = os.pread(self._fd, 512, 0)
        return int(blob.split(b"\n", 1)[0].split()[1]), len(blob)

    @staticmethod
    def since(start: tuple[int, int], end: tuple[int, int]) -> int:
        return end[0] - start[0] - start[1]

    def close(self):
        os.close(self._fd)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, read_bytes: ReadBytes):
        self.read_bytes = read_bytes
        self.root = [0.0, None]  # [child seconds, span index]
        self.stack = [self.root]
        self.spans: list[list] = []
        self.aggs: dict = defaultdict(dict)  # parent span -> name -> [n, s]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(int)
        self.op_id = None
        self.active = False  # only calls made inside an operation are traced
        self._saved: list[tuple[object, str, object]] = []

    # -- spans opened by the benchmark around each operation -------------
    def begin_op(self, op_id: int, name: str):
        self.op_id = op_id
        self.active = True
        frame = [0.0, len(self.spans)]
        self.spans.append([name, time.perf_counter(), 0.0, None, op_id])
        self.stack.append(frame)

    def end_op(self):
        frame = self.stack.pop()
        self.spans[frame[1]][2] = time.perf_counter()
        self.op_id = None
        self.active = False

    # -- patching --------------------------------------------------------
    def install(self):
        for mod_name, owner_name, attr, name in TARGETS:
            mod = importlib.import_module(f"piggyback.{mod_name}")
            owner = mod if owner_name is None else getattr(mod, owner_name)
            fn = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name: str, fn):
        stack, spans, aggs, counts = self.stack, self.spans, self.aggs, self.counts
        total = self.totals[name]
        clock = time.perf_counter
        hot = name in HOT
        probe = self.read_bytes.probe if name in READ_COUNTED else None
        rss = name in RSS_COUNTED
        is_mul = name == "field.mul"
        is_write = name == "shards.write_shard"
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, len(spans)]
                spans.append([name, 0.0, 0.0, parent[1], tracer.op_id])
            if is_mul:
                b = args[2]
                counts["field.mul.elems"] += b.size if isinstance(b, np.ndarray) else 1
            elif is_write:
                counts["shards.write_shard.bytes"] += len(args[1].pack()) + len(args[2])
            io0 = probe() if probe else None
            rss0 = _maxrss_kb() if rss else 0
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                total[0] += 1
                total[1] += d
                total[2] += d - frame[0]
                parent[0] += d
                if hot:
                    agg = aggs[parent[1]].setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += d
                else:
                    span = spans[frame[1]]
                    span[1] = t0
                    span[2] = t1
                if io0 is not None:
                    counts[f"{name}.read_bytes"] += ReadBytes.since(io0, probe())
                if rss:
                    counts[f"{name}.maxrss_growth_mb"] += (_maxrss_kb() - rss0) / 1024

        return wrapper

    # -- results ---------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def dump(self, path):
        """Write spans, their aggregated hot calls and the totals as JSON.

        ``spans`` rows follow ``fields``; ``parent`` indexes ``spans``.
        ``hot`` maps a span index (``root`` for calls outside any span) to
        ``{name: [calls, seconds]}``.
        """
        out = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "hot": {("root" if i is None else str(i)): agg
                    for i, agg in self.aggs.items()},
            "totals": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in self.totals.items()
            },
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(out, fh, separators=(",", ":"))
