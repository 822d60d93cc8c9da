"""The benchmark under perfbench/ still fits the package.

perfbench patches and clears names of the package from outside it. A
refactor that drops one of those names fails here, not only in a traced
benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

from piggyback import CodeParams, design1, grid_reader, shards

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name)
               for name in ("run", "tracing", "workloads")}
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_installs_traces_and_uninstalls(bench):
    tracing = bench["tracing"]
    params = CodeParams(8, 6, 1, 3, w=8)
    originals = (design1.encode_stripe, design1.repair_node)
    read_bytes = tracing.ReadBytes()
    tracer = tracing.Tracer(read_bytes)
    try:
        tracer.install()
        tracer.begin_op(0, "repair")
        grid = design1.encode_stripe(params, list(range(params.data_symbols)))
        design1.repair_node(params, 1, grid_reader(grid, failed={1}))
        tracer.end_op()
    finally:
        tracer.uninstall()
        read_bytes.close()
    assert (design1.encode_stripe, design1.repair_node) == originals
    assert tracer.calls("design1.encode_stripe") == 1
    assert tracer.calls("design1.repair_node") == 1
    assert tracer.calls("params.fetch") > 0


def test_sweep_cycle_clears_the_caches_run_reports(bench, tmp_path):
    run, workloads = bench["run"], bench["workloads"]
    design1.build_map(CodeParams(8, 6, 1, 3, w=8))
    workloads.Sweep(seed=1, tmp=tmp_path).begin_cycle(0)
    counts = run.cache_counts()
    assert set(counts) == {"build_map", "mds_code", "field"}
    assert all(info.currsize == 0 for info in counts.values())


def test_tracer_follows_blocks_on_the_pool(bench, tmp_path, monkeypatch):
    # the shard path packs each chunk's rows in the pool's threads; every
    # wrapped call there must pop what it pushed on the tracer's stack.
    # Every writer (encode, repair, recover) packs through
    # shards._payload_from_row: one that went round it would leave the
    # shards.pack span at 0 without an error.
    tracing = bench["tracing"]
    params = CodeParams(8, 6, 1, 3, w=8)
    monkeypatch.setattr(shards, "CHUNK_BYTES", 90)  # 10 stripes per chunk
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(256)) * 20)
    out = tmp_path / "shards"
    read_bytes = tracing.ReadBytes()
    tracer = tracing.Tracer(read_bytes)
    packs = {}

    def traced(op_id, name, call):
        before = tracer.calls("shards.pack")
        tracer.begin_op(op_id, name)
        call()
        tracer.end_op()
        packs[name] = tracer.calls("shards.pack") - before

    try:
        tracer.install()
        traced(0, "encode", lambda: shards.encode_file(params, src, out))
        traced(1, "decode", lambda: shards.decode_file(out, tmp_path / "out.bin"))
        (out / shards.shard_filename(1)).unlink()
        traced(2, "repair", lambda: shards.repair_shard(out, 1))
        for node in (1, 2):
            (out / shards.shard_filename(node)).unlink()
        traced(3, "recover", lambda: shards.recover_shards(out, [1, 2]))
    finally:
        tracer.uninstall()
        read_bytes.close()
    assert tracer.stack == [tracer.root]
    assert tracer.calls("shards.encode_file") == tracer.calls("shards.decode_file") == 1
    assert tracer.calls("shards.repair_shard") == tracer.calls("shards.recover_shards") == 1
    # 57 chunks of n rows; the tracer's unlocked counters may drop a few
    assert packs["encode"] > params.n
    assert packs["decode"] == 0
    assert packs["repair"] == 57  # one row per chunk, all on the caller's thread
    assert packs["recover"] > 0
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()
    assert sorted(path.name for path in out.iterdir()) == [
        shards.shard_filename(node) for node in range(1, params.n + 1)
    ]
