"""Command-line interface: flows, reports, exit codes, CSV output."""

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from piggyback import CodeParams, analysis, cli, shards
from piggyback.cli import main
from piggyback.shards import HEADER_SIZE, ShardHeader

SRC = str(Path(shards.__file__).resolve().parent.parent)
CHILD_ENV = os.environ | {"PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}


def write_file(tmp_path, size, seed=0):
    rng = random.Random(seed)
    path = tmp_path / "input.bin"
    path.write_bytes(bytes(rng.randrange(256) for _ in range(size)))
    return path


def run(argv):
    return main([str(a) for a in argv])


def test_encode_repair_decode_design1(tmp_path, capsys):
    src = write_file(tmp_path, 4096, seed=1)
    out_dir = tmp_path / "shards"
    assert run(["encode", "--design", 1, "-n", 8, "-k", 6, "-s", 1,
                "--kprime", 3, "-w", 8, "--in", src, "--out-dir", out_dir]) == 0
    (out_dir / "shard_0001.pgb").unlink()
    assert run(["repair", "--node", 1, "--in-dir", out_dir]) == 0
    report = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert report["node"] == 1
    assert report["bandwidth_symbols"] == 5
    assert len(report["reads"]) == 5 * report["stripe_count"]
    assert all(entry["node"] != 1 for entry in report["reads"])
    restored = tmp_path / "restored.bin"
    assert run(["decode", "--in-dir", out_dir, "--out", restored]) == 0
    assert restored.read_bytes() == src.read_bytes()


def test_encode_recover_decode_design2(tmp_path, capsys):
    src = write_file(tmp_path, 3000, seed=2)
    out_dir = tmp_path / "shards"
    assert run(["encode", "--design", 2, "-n", 7, "-k", 5, "-s", 2,
                "-w", 8, "--in", src, "--out-dir", out_dir]) == 0
    for node in (2, 4, 6):
        (out_dir / f"shard_000{node}.pgb").unlink()
    restored = tmp_path / "restored.bin"
    # r+1 lost: decode needs only k-1 shards (the sweep)
    assert run(["decode", "--in-dir", out_dir, "--out", restored]) == 0
    assert restored.read_bytes() == src.read_bytes()
    assert run(["recover", "--nodes", "2,4,6", "--in-dir", out_dir]) == 0
    assert run(["decode", "--in-dir", out_dir, "--out", restored]) == 0
    assert restored.read_bytes() == src.read_bytes()


def test_design2_r_plus_1_corrupt_survivor_exit_3(tmp_path, capsys):
    src = write_file(tmp_path, 3000, seed=9)
    out_dir = tmp_path / "shards"
    assert run(["encode", "--design", 2, "-n", 7, "-k", 5, "-s", 2,
                "-w", 8, "--in", src, "--out-dir", out_dir]) == 0
    for node in (2, 4, 6):
        (out_dir / f"shard_000{node}.pgb").unlink()
    shard3 = out_dir / "shard_0003.pgb"
    blob = bytearray(shard3.read_bytes())
    blob[HEADER_SIZE] ^= 0x21
    shard3.write_bytes(bytes(blob))
    before = {f.name: f.read_bytes() for f in out_dir.iterdir()}
    capsys.readouterr()
    assert run(["recover", "--nodes", "2,4,6", "--in-dir", out_dir]) == 3
    assert json.loads(capsys.readouterr().err.strip())["error"] == "data"
    assert {f.name: f.read_bytes() for f in out_dir.iterdir()} == before


def test_repair_summary_report_omits_reads(tmp_path, capsys):
    src = write_file(tmp_path, 512, seed=3)
    out_dir = tmp_path / "shards"
    run(["encode", "--design", 1, "-n", 8, "-k", 6, "-s", 1, "--kprime", 3,
         "-w", 8, "--in", src, "--out-dir", out_dir])
    (out_dir / "shard_0002.pgb").unlink()
    assert run(["repair", "--node", 2, "--in-dir", out_dir,
                "--report", "summary"]) == 0
    report = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert "reads" not in report and report["bandwidth_symbols"] == 5


def test_design1_defaults_kprime_to_k(tmp_path, capsys):
    src = write_file(tmp_path, 256, seed=4)
    out_dir = tmp_path / "shards"
    assert run(["encode", "--design", 1, "-n", 20, "-k", 14, "-s", 1,
                "-w", 8, "--in", src, "--out-dir", out_dir]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert "k'=14" in out["code"]


def test_parameter_error_exit_2(tmp_path, capsys):
    src = write_file(tmp_path, 10, seed=5)
    code = run(["encode", "--design", 1, "-n", 8, "-k", 9, "-s", 1,
                "--kprime", 3, "--in", src, "--out-dir", tmp_path / "x"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "parameter"


def test_design2_with_kprime_rejected(tmp_path, capsys):
    src = write_file(tmp_path, 10, seed=6)
    code = run(["encode", "--design", 2, "-n", 7, "-k", 5, "-s", 2,
                "--kprime", 3, "--in", src, "--out-dir", tmp_path / "x"])
    assert code == 2


def test_design1_with_kprime_zero_rejected(tmp_path, capsys):
    src = write_file(tmp_path, 10, seed=6)
    code = run(["encode", "--design", 1, "-n", 7, "-k", 5, "-s", 2,
                "--kprime", 0, "--in", src, "--out-dir", tmp_path / "x"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "design 2" in err["message"]


def test_corrupt_header_exit_3(tmp_path, capsys):
    bad_dir = tmp_path / "shards"
    bad_dir.mkdir()
    (bad_dir / "shard_0001.pgb").write_bytes(b"\x00" * 64)
    code = run(["decode", "--in-dir", bad_dir, "--out", tmp_path / "out.bin"])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "data" and "header" in err["message"]


def test_version_1_shard_exit_3(tmp_path, capsys):
    src = write_file(tmp_path, 500, seed=4)
    out_dir = tmp_path / "shards"
    shards.encode_file(CodeParams(8, 6, 1, 3, w=8), src, out_dir)
    for path in out_dir.iterdir():
        blob = bytearray(path.read_bytes())
        blob[4] = 1  # the version byte
        path.write_bytes(bytes(blob))
    capsys.readouterr()
    code = run(["decode", "--in-dir", out_dir, "--out", tmp_path / "out.bin"])
    assert code == 3
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "data"
    assert "version 1 is no longer readable" in err["message"]
    assert "re-encode" in err["message"]
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("fields", [dict(w=12), dict(k=8), dict(k=9)],
                         ids=["w12", "k_eq_n", "k_gt_n"])
def test_header_without_valid_code_exit_3(tmp_path, capsys, fields):
    # every other header field is valid, but the tuple is no code
    bad_dir = tmp_path / "shards"
    bad_dir.mkdir()
    base = dict(design=1, n=8, k=6, s=1, kprime=3, w=8, node_index=1,
                original_length=0, stripe_count=0)
    base.update(fields)
    (bad_dir / "shard_0001.pgb").write_bytes(ShardHeader(**base).pack())
    code = run(["decode", "--in-dir", bad_dir, "--out", tmp_path / "out.bin"])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "data" and "corrupt header" in err["message"]


def test_insufficient_shards_exit_3(tmp_path, capsys):
    src = write_file(tmp_path, 100, seed=7)
    out_dir = tmp_path / "shards"
    run(["encode", "--design", 1, "-n", 8, "-k", 6, "-s", 1, "--kprime", 3,
         "-w", 8, "--in", src, "--out-dir", out_dir])
    for node in (1, 2, 3):
        (out_dir / f"shard_000{node}.pgb").unlink()
    capsys.readouterr()
    assert run(["decode", "--in-dir", out_dir, "--out", tmp_path / "o.bin"]) == 3


def test_unsupported_pattern_exit_4(tmp_path, capsys):
    src = write_file(tmp_path, 100, seed=8)
    out_dir = tmp_path / "shards"
    run(["encode", "--design", 2, "-n", 8, "-k", 4, "-s", 3,
         "-w", 8, "--in", src, "--out-dir", out_dir])
    for node in (1, 2, 3, 4, 5):
        (out_dir / f"shard_000{node}.pgb").unlink()
    capsys.readouterr()
    code = run(["recover", "--nodes", "1,2,3,4,5", "--in-dir", out_dir])
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "unsupported_pattern"


@pytest.mark.parametrize("params", [
    CodeParams(8, 6, 1, 3, w=8),
    CodeParams(10, 6, 2, 6, w=8),
    CodeParams(7, 5, 2, 0, w=8),
], ids=lambda p: p.variant.value)
def test_verify_both_designs(capsys, params):
    design = 2 if params.kprime == 0 else 1
    assert run(["verify", "--design", design, "-n", params.n, "-k", params.k,
                "-s", params.s, "--kprime", params.kprime, "-w", 8]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    for m in range(1, analysis.fault_tolerance(params) + 1):
        assert out.count(f"ok: recovery of {m} failed nodes exact") == 1


def test_analyze_gamma_csv(capsys):
    assert run(["analyze", "gamma", "--design", 1, "-n", 8, "-k", 6,
                "-s", 1, "--kprime", 3, "-w", 8]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == ",".join(analysis.CSV_HEADER)
    fields = dict(zip(analysis.CSV_HEADER, lines[1].split(",")))
    assert fields["gamma_sim"] == "0.666667"
    assert fields["variant"] == "design1"


def test_analyze_bounds_csv(capsys):
    assert run(["analyze", "bounds", "--design", 1, "-n", 20, "-k", 14,
                "-s", 1, "-w", 8]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    fields = dict(zip(analysis.CSV_HEADER, lines[1].split(",")))
    assert fields["variant"] == "design1_mds"
    assert fields["gamma_min"] == "0.678571"


def test_analyze_sweep_csv(capsys):
    assert run(["analyze", "sweep", "--r", 8, "--k-min", 40, "--k-max", 41,
                "-w", 8]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    for line in lines[1:]:
        fields = dict(zip(analysis.CSV_HEADER, line.split(",")))
        assert float(fields["gamma_oop"]) > 0


def test_analyze_empty_sweep_warns(capsys):
    assert run(["analyze", "sweep", "--r", 8, "--k-min", 50, "--k-max", 40]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == ",".join(analysis.CSV_HEADER)
    assert "empty sweep" in captured.err


def test_analyze_sweep_bad_s_is_parameter_error(capsys):
    assert run(["analyze", "sweep", "--r", 8, "--k-min", 40, "--k-max", 41,
                "--s", "foo"]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().split("\n")
    assert len(err) == 1 and json.loads(err[0])["error"] == "parameter"
    assert "'foo'" in json.loads(err[0])["message"]
    assert captured.out == ""


def test_analyze_lrc_compare_csv(capsys):
    assert run(["analyze", "lrc-compare", "--n", 100, "--g-min", 20,
                "--g-max", 20, "--tolerance", 8]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    rows = [dict(zip(analysis.CSV_HEADER, line.split(","))) for line in lines[1:]]
    assert len(rows) == 3
    assert rows[0]["gamma_azure"] == "0.116500"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "piggyback", "analyze", "bounds", "--design", "2",
         "-n", "7", "-k", "5", "-s", "2", "-w", "8"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(analysis.CSV_HEADER[:3]))


def test_zero_length_roundtrip(tmp_path, capsys):
    src = write_file(tmp_path, 0)
    out_dir = tmp_path / "shards"
    assert run(["encode", "--design", 2, "-n", 7, "-k", 5, "-s", 2,
                "--in", src, "--out-dir", out_dir]) == 0
    restored = tmp_path / "out.bin"
    assert run(["decode", "--in-dir", out_dir, "--out", restored]) == 0
    assert restored.read_bytes() == b""


def code_flags(params):
    design = 2 if params.kprime == 0 else 1
    return ["--design", design, "-n", params.n, "-k", params.k, "-s", params.s,
            "--kprime", params.kprime, "-w", params.w]


class RecordingStdout(io.StringIO):
    """A stdout that remembers the size of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("params,size,lost", [
    (CodeParams(8, 6, 1, 3, w=8), 4096, ()),
    (CodeParams(8, 6, 1, 3, w=8), 0, ()),
    (CodeParams(8, 6, 1, 3, w=8), 250_000, ()),  # several report writes
    (CodeParams(10, 6, 2, 6, w=16), 5000, ()),
    (CodeParams(7, 5, 2, 0, w=8), 3000, ()),
    (CodeParams(7, 5, 2, 0, w=8), 3000, (3,)),  # read-set shard gone: fallback
    (CodeParams(8, 6, 1, 3, w=8), 0, (2,)),
], ids=["design1-w8", "empty", "chunks", "mds-w16", "design2-w8",
        "fallback", "fallback-empty"])
def test_streamed_repair_report_matches_one_json_dump(tmp_path, monkeypatch,
                                                      params, size, lost):
    src = write_file(tmp_path, size, seed=size)
    out_dir = tmp_path / "shards"
    assert run(["encode", *code_flags(params), "--in", src, "--out-dir", out_dir]) == 0
    for f in (1, *lost):
        (out_dir / shards.shard_filename(f)).unlink()
    header, report = shards.repair_shard(out_dir, 1)
    if lost:
        assert report.bandwidth == (params.n - 1 - len(lost)) * (params.s + 1)
    reads = [{"node": a, "column": b}
             for _ in range(header.stripe_count) for a, b in report.reads]
    want = json.dumps({"node": 1, "bandwidth_symbols": report.bandwidth,
                       "stripe_count": header.stripe_count, "reads": reads}) + "\n"
    (out_dir / shards.shard_filename(1)).unlink()
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(["repair", "--node", 1, "--in-dir", out_dir]) == 0
    assert stdout.getvalue() == want
    assert max(stdout.sizes) <= cli.REPORT_CHUNK_BYTES + 2
    if size == 250_000:
        assert len(stdout.sizes) > 3


# peak RSS of the child alone: ru_maxrss would carry over the peak of the
# test process that spawned it, across exec
REPAIR_RSS_RUN = """
import sys
from piggyback.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")),
          file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_repair_report_memory_is_flat_in_file_size(tmp_path):
    # the default report of a 4 MiB C(8,6,1,3) repair is ~60 MB of JSON;
    # streamed, its peak RSS stays near that of --report summary
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(14).randbytes(4 << 20))
    out_dir = tmp_path / "shards"
    shards.encode_file(CodeParams(8, 6, 1, 3, w=8), src, out_dir)
    peak_mb = {}
    for mode in ("json", "summary"):
        done = subprocess.run(
            [sys.executable, "-c", REPAIR_RSS_RUN, "repair", "--node", "1",
             "--in-dir", str(out_dir), "--report", mode],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=300, env=CHILD_ENV,
        )
        assert done.returncode == 0, done.stderr
        peak_mb[mode] = int(done.stderr.strip().splitlines()[-1]) / 1024
    assert peak_mb["json"] <= peak_mb["summary"] + 10, peak_mb


def test_recover_rejects_bad_node_token(tmp_path, capsys):
    src = write_file(tmp_path, 100, seed=10)
    out_dir = tmp_path / "shards"
    run(["encode", *code_flags(CodeParams(7, 5, 2, 0, w=8)), "--in", src,
         "--out-dir", out_dir])
    capsys.readouterr()
    assert run(["recover", "--nodes", "1,x", "--in-dir", out_dir]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    doc = json.loads(err[0])
    assert doc["error"] == "parameter" and "'x'" in doc["message"]


def test_encode_missing_input_is_io_error(tmp_path, capsys):
    out_dir = tmp_path / "shards"
    code = run(["encode", *code_flags(CodeParams(8, 6, 1, 3, w=8)),
                "--in", tmp_path / "missing.bin", "--out-dir", out_dir])
    assert code == 3
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and json.loads(err[0])["error"] == "io"
    assert not out_dir.exists()


def test_decode_to_missing_directory_is_io_error(tmp_path, capsys):
    src = write_file(tmp_path, 100, seed=11)
    out_dir = tmp_path / "shards"
    run(["encode", *code_flags(CodeParams(8, 6, 1, 3, w=8)), "--in", src,
         "--out-dir", out_dir])
    capsys.readouterr()
    dst = tmp_path / "missing" / "dir" / "out.bin"
    assert run(["decode", "--in-dir", out_dir, "--out", dst]) == 3
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and json.loads(err[0])["error"] == "io"
    # the message names the file asked for, not the hidden temp file
    message = json.loads(err[0])["message"]
    assert "out.bin" in message and ".tmp" not in message
    assert not (tmp_path / "missing").exists()


def test_decode_over_directory_names_it_and_leaves_no_temp(tmp_path, capsys):
    src = write_file(tmp_path, 100, seed=13)
    out_dir = tmp_path / "shards"
    run(["encode", *code_flags(CodeParams(8, 6, 1, 3, w=8)), "--in", src,
         "--out-dir", out_dir])
    capsys.readouterr()
    dst = tmp_path / "outdir"
    dst.mkdir()
    assert run(["decode", "--in-dir", out_dir, "--out", dst]) == 3
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and json.loads(err[0])["error"] == "io"
    # the failed rename names the path asked for, not the temp file
    message = json.loads(err[0])["message"]
    assert str(dst) in message and ".tmp" not in message
    assert not list(tmp_path.glob("*.tmp")) and not list(tmp_path.glob(".*.tmp"))
    assert dst.is_dir() and not list(dst.iterdir())


def test_one_parser_serves_every_call(tmp_path, capsys):
    params = CodeParams(8, 6, 1, 3, w=8)
    src = write_file(tmp_path, 2000, seed=12)
    out_dir = tmp_path / "shards"
    with pytest.raises(SystemExit) as exc:
        run(["encode", "--design", 3])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "parameter"
    assert run(["encode", *code_flags(params), "--in", src, "--out-dir", out_dir]) == 0
    assert json.loads(capsys.readouterr().out)["shards"] == 8
    (out_dir / shards.shard_filename(3)).unlink()
    assert run(["repair", "--node", 3, "--in-dir", out_dir]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["node"] == 3 and len(doc["reads"]) == 5 * doc["stripe_count"]
    (out_dir / shards.shard_filename(1)).unlink()
    restored = tmp_path / "restored.bin"
    assert run(["decode", "--in-dir", out_dir, "--out", restored]) == 0
    assert json.loads(capsys.readouterr().out)["bytes"] == 2000
    assert restored.read_bytes() == src.read_bytes()
    assert run(["analyze", "gamma", *code_flags(params)]) == 0
    assert capsys.readouterr().out.split("\n")[0] == ",".join(analysis.CSV_HEADER)
    assert cli.build_parser() is cli.build_parser()
