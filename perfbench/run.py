"""Benchmark harness for the piggyback codec.

Run from the root of a checkout:

    python3 perfbench/run.py --workload archive-mds-w16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run is one fresh process: it measures set-up time in child
interpreters, generates the workload's inputs from the seed under
``.perfbench/`` in the checkout, runs one untimed warm-up, then runs
cycles of operations until ``--seconds`` have passed (the first cycle
always completes). Times are in nominal seconds (see ``SpeedProbe``).
Every operation's output is checked. The last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced first cycle with ``--trace 1``. The line before it
records the seed, inputs, parameters and machine. The exit code is 1 if
any output was wrong, 2 if the sources cannot be found.

See README.md in this directory for every metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
KINDS = ("encode", "repair", "recover", "decode")
SETUP_REPEATS = 7
REF_INTERVAL_S = 0.1
REF_RECENT = 15  # kernel timings that set the speed for one operation
REF_NOMINAL_S = 0.0025

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import piggyback
piggyback.CodeParams({n}, {k}, {s}, {kp}, w={w})
print(time.perf_counter() - t0)
"""


def measure_setup(params, probe) -> list[float]:
    """Import plus first CodeParams, each in a fresh interpreter, with a
    reference-kernel timing before each."""
    code = SETUP_CODE.format(n=params.n, k=params.k, s=params.s,
                             kp=params.kprime, w=params.w)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class SpeedProbe:
    """Times a fixed reference kernel every ``REF_INTERVAL_S`` of a run.

    The machine is shared, and its speed drifts by tens of percent within
    minutes, which would swamp most changes to the program. Every
    reported time is therefore in nominal seconds: wall seconds x
    REF_NOMINAL_S / the kernel's recent median time, i.e. seconds on a
    machine on which the kernel takes REF_NOMINAL_S. The kernel mixes
    interpreter work with a numpy gather over a 4 MB table, the two kinds
    of work the program does. It is benchmark code, so no change to the
    program moves it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 1 << 16, 1 << 20, dtype=np.uint32)
        self.index = rng.integers(0, 1 << 20, 1 << 18)
        self.samples: list[float] = []
        self.due = 0.0

    def sample(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(15000):
            acc ^= (i * 40503) & 0xFFFF
        int(self.table[self.index].sum()) ^ acc
        self.samples.append(time.perf_counter() - t0)

    def tick(self):
        if time.perf_counter() >= self.due:
            self.sample()
            self.due = time.perf_counter() + REF_INTERVAL_S

    def scale(self, recent: int | None = None) -> float:
        """Factor from wall seconds to nominal seconds, from the last
        ``recent`` kernel timings (all of them by default)."""
        window = self.samples[-recent:] if recent else self.samples
        return REF_NOMINAL_S / statistics.median(window)


class Runner:
    """Times operations, applies their gates and keeps the tallies."""

    def __init__(self, workload, read_bytes, probe, tracer=None):
        from workloads import GateError

        self.gate_error = GateError
        self.wl = workload
        self.rb = read_bytes
        self.probe = probe
        self.tracer = tracer
        self.lat: dict[str, list[float]] = defaultdict(list)
        self.work: dict[str, int] = defaultdict(int)
        self.cycle_busy: dict[int, float] = defaultdict(float)
        # counts of the first cycle, which every run completes
        self.tally: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cycles = 0
        self.complete: list[int] = []  # cycles that ran every operation
        self.caches: dict[str, object] = {}

    def _fail(self, message: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    def _op(self, op, c: int, traced: bool = False):
        """Run, time and check one operation of cycle c (-1: warm-up)."""
        self.attempted += 1
        io0 = self.rb.probe() if op.io else None
        if traced:
            self.tracer.begin_op(self.attempted, f"op.{op.kind}")
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # the program raised: count it, keep measuring
            if traced:
                self.tracer.end_op()
            self._fail(f"{op.kind} {op.label}: {traceback.format_exc(limit=3)}")
            return
        dt = (time.perf_counter() - t0) * self.probe.scale(REF_RECENT)
        if traced:
            self.tracer.end_op()
        io_bytes = self.rb.since(io0, self.rb.probe()) if op.io else 0
        try:
            counts = op.check(out)
        except self.gate_error as exc:
            self._fail(f"{op.kind} {op.label}: {exc}")
            return
        if c < 0:
            return
        self.lat[op.kind].append(dt)
        self.work[op.kind] += op.nbytes
        self.cycle_busy[c] += dt
        if c == 0:
            tally = self.tally[op.kind]
            for key, value in counts.items():
                tally[key] += value
            if op.io:
                tally["io_bytes"] += io_bytes

    def warmup(self):
        try:
            for op in self.wl.warmup():
                self._op(op, -1)
        except Exception:  # a warm-up that cannot go on is one failure
            self._fail(f"warm-up: {traceback.format_exc(limit=3)}")

    def run(self, seconds: float, min_cycles: int = 1):
        deadline = time.perf_counter() + seconds
        c = 0
        while c < min_cycles or time.perf_counter() < deadline:
            traced = self.tracer is not None and c == 0
            self.wl.begin_cycle(c)
            if traced:
                self.tracer.install()
            try:
                for op in self.wl.cycle(c):
                    if c >= min_cycles and time.perf_counter() >= deadline:
                        break
                    self.probe.tick()
                    self._op(op, c, traced)
                else:
                    self.complete.append(c)
            except Exception:  # a cycle that cannot go on ends the run
                self._fail(f"cycle {c}: {traceback.format_exc(limit=3)}")
                break
            finally:
                if traced:
                    self.tracer.uninstall()
                    self.caches = cache_counts()
            c += 1
        self.cycles = c

    # -- metrics ---------------------------------------------------------
    def tail(self) -> tuple[float, float, int]:
        """Tail of single-node repair latency: (seconds, percentile, samples).

        The percentile is p99, lowered where needed to leave at least ten
        samples beyond it; with ten or fewer samples it is the maximum.
        Capping at p99 keeps the metric off the handful of collector and
        host pauses that a run of 10^5 sub-millisecond repairs contains.
        """
        lat = sorted(self.lat.get("repair", ()))
        n = len(lat)
        if n <= 10:
            return (lat[-1] if lat else 0.0), 100.0, n
        beyond = max(10, n // 100)
        return lat[n - beyond - 1], 100.0 * (n - beyond) / n, n

    def end_to_end(self, setup_s: float) -> dict:
        """The 16 end-to-end metrics. A kind with no successful operation
        (possible only in a run that already failed) reads 0."""
        lat, n = self.lat, self.wl.params.n
        m = {}
        for kind in KINDS:
            m[f"{kind}_MBps"] = (_ratio(self.work[kind], sum(lat[kind])) / 1e6, "MB/s")
        for kind in ("encode", "repair", "decode"):
            p50 = statistics.median(lat[kind]) if lat[kind] else 0.0
            m[f"{kind}_p50_ms"] = (p50 * 1e3, "ms")
        m["op_tail_ms"] = (self.tail()[0] * 1e3, "ms")
        if lat.get("gamma"):
            points, busy = len(lat["gamma"]), sum(lat["gamma"])
        else:  # one gamma point = a repair of each of the n nodes
            points, busy = len(lat["repair"]) / n, sum(lat["repair"])
        m["gamma_points_per_s"] = (_ratio(points, busy), "1/s")
        m["recover_patterns_per_s"] = (
            _ratio(len(lat["recover"]), sum(lat["recover"])), "1/s")
        m["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        rep, enc = self.tally["repair"], self.tally["encode"]
        m["repair_read_ratio"] = (_ratio(rep["logical"], rep["data_syms"]), "ratio")
        m["repair_io_ratio"] = (_ratio(rep["io_bytes"], rep["data_bytes"]), "ratio")
        m["stored_bytes_ratio"] = (_ratio(enc["stored"], enc["input"]), "ratio")
        m["ok_op_ratio"] = (_ratio(self.attempted - self.failed, self.attempted), "ratio")
        m["setup_s"] = (setup_s, "s")
        return m

    def check_closed_form(self):
        rep = self.tally["repair"]
        if rep["logical"] != rep["closed"]:
            self._fail(f"repair read {rep['logical']} symbols in the first cycle, "
                       f"closed form {rep['closed']}")


def cache_counts() -> dict:
    from piggyback import design1, field, mds_code

    return {
        "build_map": design1.build_map.cache_info(),
        "mds_code": mds_code.cache_info(),
        "field": field.cache_info(),
    }


def field_build_s(w: int) -> float:
    from piggyback import Field

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        Field(w)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(runner: Runner, tracer, w: int) -> dict:
    t = tracer
    caches = runner.caches
    bm = caches["build_map"]
    decodes, inverts = t.calls("mds.decode_data"), t.calls("mds.invert")
    rep = runner.tally["repair"]
    logical_bytes = rep["logical"] * (w // 8)
    stdout_bytes = sum(v["stdout"] for v in runner.tally.values())
    untraced = [runner.cycle_busy[c] for c in runner.complete if c > 0]
    busy0, busy1 = runner.cycle_busy[0], _ratio(sum(untraced), len(untraced))
    m = {
        "field.mul.calls": (t.calls("field.mul"), "count"),
        "field.mul.elems": (t.counts["field.mul.elems"], "count"),
        "field.mul.self_s": (t.self_s("field.mul"), "s"),
        "field.dot.calls": (t.calls("field.dot"), "count"),
        "field.dot.self_s": (t.self_s("field.dot"), "s"),
        "field.build_s": (field_build_s(w), "s"),
        "field.cache.misses": (caches["field"].misses, "count"),
        "mds.encode.self_s": (t.self_s("mds.encode"), "s"),
        "mds.decode_data.calls": (decodes, "count"),
        "mds.decode_data.self_s": (t.self_s("mds.decode_data"), "s"),
        "mds.invert.calls": (inverts, "count"),
        "mds.inv_cache.hit_ratio": (1 - inverts / decodes if decodes else 0.0, "ratio"),
        "mds.code_cache.misses": (caches["mds_code"].misses, "count"),
        "params.fetch.calls": (t.calls("params.fetch"), "count"),
        "params.fetch.self_s": (t.self_s("params.fetch"), "s"),
        "params.construct.self_s": (t.self_s("params.construct"), "s"),
    }
    for name in ("design1.encode_stripe", "design1.repair_node", "design1.decode_from_k",
                 "design2.encode_stripe", "design2.repair_node",
                 "design2.recover_failures", "design2.decode_from_k",
                 "analysis.gamma_sim"):
        m[f"{name}.self_s"] = (t.self_s(name), "s")
    lookups = bm.hits + bm.misses
    m["design1.build_map.hit_ratio"] = (bm.hits / lookups if lookups else 0.0, "ratio")
    for name in ("shards.load_shard_set", "shards.read_shard"):
        m[f"{name}.read_bytes"] = (t.counts[f"{name}.read_bytes"], "B")
        m[f"{name}.self_s"] = (t.self_s(name), "s")
    m["shards.write_shard.bytes"] = (t.counts["shards.write_shard.bytes"], "B")
    m["shards.write_shard.self_s"] = (t.self_s("shards.write_shard"), "s")
    m["shards.pack.self_s"] = (t.self_s("shards.pack"), "s")
    m["shards.read_useful_ratio"] = (
        logical_bytes / rep["io_bytes"] if rep["io_bytes"] else 0.0, "ratio")
    for op in ("encode_file", "decode_file", "repair_shard", "recover_shards"):
        key = f"shards.{op}.maxrss_growth_mb"
        m[key] = (t.counts[key], "MB")
    m["cli.main.self_s"] = (t.self_s("cli.main"), "s")
    m["cli.stdout_bytes"] = (stdout_bytes, "B")
    m["trace.overhead_pct"] = (100 * (busy0 / busy1 - 1) if busy1 else 0.0, "%")
    return m


def rescale(metrics: dict, scale: float) -> dict:
    """Per-layer times were taken in wall seconds: make them nominal."""
    return {
        name: (value * scale if unit == "s" else value, unit)
        for name, (value, unit) in metrics.items()
    }


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    from tracing import ReadBytes, Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir()
    read_bytes = ReadBytes()
    try:
        wl = cls(args.seed, tmp)
        probe = SpeedProbe()
        setup = measure_setup(wl.params, probe)
        setup_scale = probe.scale(SETUP_REPEATS)  # the kernel during set-up
        tracer = Tracer(read_bytes) if args.trace else None
        runner = Runner(wl, read_bytes, probe, tracer)
        runner.warmup()
        # Keep the benchmark's own objects (inputs, modules, tuple lists)
        # out of the collector's scans, so that collection pauses inside
        # timed operations reflect the program's allocations only.
        gc.collect()
        gc.freeze()
        runner.run(args.seconds, min_cycles=2 if args.trace else 1)
        runner.check_closed_form()
        if args.trace:
            metrics = rescale(per_layer(runner, tracer, wl.params.w), probe.scale())
            tracer.dump(OUT / f"trace-{args.workload}.json")
        else:
            metrics = runner.end_to_end(statistics.median(setup) * setup_scale)
    finally:
        read_bytes.close()
        shutil.rmtree(tmp, ignore_errors=True)

    _, tail_pct, samples = runner.tail()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **wl.describe(),
        "cycles": runner.cycles,
        "ops": {k: len(v) for k, v in runner.lat.items()},
        "op_tail": {"percentile": tail_pct, "samples": samples},
        "setup_samples_s": setup,
        "reference_kernel_ms": {
            "median": statistics.median(probe.samples) * 1e3,
            "samples": len(probe.samples),
            "scale": probe.scale(),
        },
        "failures": runner.failures,
        **machine(),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if runner.failed == 0 else 1


def run_all(args) -> int:
    """Run every workload in its own process and print a metric table."""
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit {done.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, mv in result["metrics"].items():
            print(f"  {metric:40s} {mv['value']:>16.6g} {mv['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "piggyback" / "__init__.py").is_file():
        print(f"perfbench: no piggyback package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
