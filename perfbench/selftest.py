"""Self-test of the benchmark's gates and of its repeatable counts.

    python3 perfbench/selftest.py            # gates, then repeatability
    python3 perfbench/selftest.py gates      # only the gate checks

``gates``: each check injects one wrong output into a small copy of a
workload (a flipped byte in a repaired shard or a decoded file, a wrong
recovered symbol, an over-reported read count) and asserts that the run
counts failed operations. One check runs ``run.py``'s entry point with a
corrupted repair and asserts it reports ``correct: false`` and exits 1.

``repeat``: runs every workload twice at one seed, untraced and traced,
and asserts that the counts that must not depend on timing are equal:
repair_read_ratio, repair_io_ratio, stored_bytes_ratio, field.mul.elems,
params.fetch.calls and mds.invert.calls.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from piggyback import analysis, design2, shards  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import ReadBytes  # noqa: E402

REPEATED = {
    0: ("repair_read_ratio", "repair_io_ratio", "stored_bytes_ratio"),
    1: ("field.mul.elems", "params.fetch.calls", "mds.invert.calls"),
}


class SmallMds(workloads.ArchiveMds):
    size = 256 * 1024


class SmallPb2(workloads.ArchivePb2):
    size = 256 * 1024


class SmallSweep(workloads.Sweep):
    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.items = ([t for t in workloads.design1_tuples(6)]
                      + [t for t in workloads.design2_tuples(5)])


@contextlib.contextmanager
def patched(module, name, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def flip_last_byte(path: Path):
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))


def bad_repair_shard(original):
    def repair_shard(in_dir, node):
        out = original(in_dir, node)
        flip_last_byte(Path(in_dir) / shards.shard_filename(node))
        return out
    return repair_shard


def bad_decode_file(original):
    def decode_file(in_dir, out_path):
        written = original(in_dir, out_path)
        flip_last_byte(Path(out_path))
        return written
    return decode_file


def bad_recover_failures(original):
    def recover_failures(params, failed, read):
        out = original(params, failed, read)
        first = min(out)
        out[first] = [out[first][0] ^ 1] + out[first][1:]
        return out
    return recover_failures


def bad_repair_report(original):
    def repair_node(params, f, read):
        row, report = original(params, f, read)
        return row, dataclasses.replace(report, bandwidth=report.bandwidth + 1)
    return repair_node


def bad_gamma_sim(original):
    def gamma_sim(params, seed=0):
        report = original(params, seed)
        bw = report.per_node_bandwidth
        return dataclasses.replace(report, per_node_bandwidth=(bw[0] - 1,) + bw[1:])
    return gamma_sim


def failures_with(cls, module, name, make) -> int:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        read_bytes = ReadBytes()
        try:
            wl = cls(7, Path(tmp))
            runner = run.Runner(wl, read_bytes, run.SpeedProbe())
            with patched(module, name, make):
                runner.run(0)
        finally:
            read_bytes.close()
    return runner.failed


def check_gates() -> list[str]:
    cases = [
        (SmallMds, shards, "repair_shard", bad_repair_shard, "archive repaired shard"),
        (SmallPb2, shards, "decode_file", bad_decode_file, "archive decoded file"),
        (SmallSweep, design2, "recover_failures", bad_recover_failures,
         "sweep recovered symbol"),
        (SmallSweep, design2, "repair_node", bad_repair_report,
         "sweep repair read count"),
        (SmallSweep, analysis, "gamma_sim", bad_gamma_sim, "sweep gamma bandwidths"),
        (workloads.SmallFiles, shards, "repair_shard", bad_repair_shard,
         "cli repaired shard"),
    ]
    problems = []
    for cls, module, name, make, what in cases:
        clean = failures_with(cls, module, name, lambda f: f)
        broken = failures_with(cls, module, name, make)
        status = "ok" if clean == 0 and broken > 0 else "FAIL"
        print(f"{status}: {what}: {clean} failures clean, {broken} corrupted")
        if status != "ok":
            problems.append(what)

    out = io.StringIO()
    with patched(shards, "repair_shard", bad_repair_shard), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "small-files-cli", "--seed", "7",
                         "--seconds", "0", "--trace", "0"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    ok = code == 1 and result["correct"] is False and result["failed"] > 0
    print(f"{'ok' if ok else 'FAIL'}: run.py exit {code}, correct={result['correct']}, "
          f"failed={result['failed']}")
    if not ok:
        problems.append("run.py exit status")
    return problems


def run_metrics(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_repeat() -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        for trace, keys in REPEATED.items():
            first, second = run_metrics(name, trace), run_metrics(name, trace)
            for key in keys:
                same = first[key] == second[key]
                print(f"{'ok' if same else 'FAIL'}: {name} {key}: "
                      f"{first[key]!r} then {second[key]!r}")
                if not same:
                    problems.append(f"{name} {key}")
    return problems


def main(argv: list[str]) -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    what = argv[0] if argv else "all"
    problems = []
    if what in ("all", "gates"):
        problems += check_gates()
    if what in ("all", "repeat"):
        problems += check_repeat()
    print("selftest:", "passed" if not problems else f"FAILED {problems}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
