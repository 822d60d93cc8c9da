"""Shared instances and the shared worker pool under concurrent traffic."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from piggyback import CodeParams, Field, design1, design2, grid_reader, shards


def test_concurrent_repairs_share_instances():
    params = CodeParams(n=12, k=8, s=2, kprime=5, w=8)
    rng = random.Random(60)
    data = [rng.randrange(256) for _ in range(params.data_symbols)]
    grid = design1.encode_stripe(params, data)
    expected = grid.cells.tolist()

    def repair_one(f):
        row, rep = design1.repair_node(params, f, grid_reader(grid, failed={f}))
        return f, row == expected[f - 1], rep.bandwidth == len(rep.reads)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(repair_one, list(range(1, 13)) * 8))
    assert all(ok and bw_ok for _, ok, bw_ok in results)


def test_concurrent_recoveries_share_decode_cache():
    params = CodeParams(n=10, k=7, s=2, kprime=0, w=8)
    rng = random.Random(61)
    data = [rng.randrange(256) for _ in range(params.data_symbols)]
    grid = design2.encode_stripe(params, data)
    expected = grid.cells.tolist()
    patterns = [(1, 5), (2, 9), (3, 4), (6, 10), (7, 8), (1, 10), (4, 9)]

    def recover_one(pattern):
        rec = design2.recover_failures(
            params, pattern, grid_reader(grid, failed=set(pattern))
        )
        return all(rec[f] == expected[f - 1] for f in pattern)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(recover_one, patterns * 10))
    assert all(results)


def test_concurrent_shard_operations_share_the_block_pool(tmp_path, monkeypatch):
    # 4 caller threads, each with its own directory of one of two codes,
    # encode, repair and decode in many chunks through the one shared pool
    codes = [CodeParams(n=8, k=6, s=1, kprime=3, w=8),
             CodeParams(n=7, k=5, s=2, kprime=0, w=16)]
    monkeypatch.setattr(shards, "CHUNK_BYTES", 64)
    inputs, expected = [], []
    for i, params in enumerate(codes):
        src = tmp_path / f"input{i}.bin"
        src.write_bytes(random.Random(62 + i).randbytes(5000))
        paths = shards.encode_file(params, src, tmp_path / f"reference{i}")
        inputs.append(src)
        expected.append([path.read_bytes() for path in paths])

    def run(caller):
        params, src, want = codes[caller % 2], inputs[caller % 2], expected[caller % 2]
        out_dir = tmp_path / f"caller{caller}"
        for _ in range(3):
            paths = shards.encode_file(params, src, out_dir)
            assert [path.read_bytes() for path in paths] == want
            for node in (1, params.n):
                paths[node - 1].unlink()
                shards.repair_shard(out_dir, node)
                assert paths[node - 1].read_bytes() == want[node - 1]
            for node in range(1, params.r + 1):
                paths[node - 1].unlink()
            decoded = tmp_path / f"decoded{caller}.bin"
            assert shards.decode_file(out_dir, decoded) == len(src.read_bytes())
            assert decoded.read_bytes() == src.read_bytes()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as callers:
            futures = [callers.submit(run, caller) for caller in range(4)]
            for future in futures:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(switch)


def test_concurrent_dots_share_one_fields_packed_tables():
    # 8 threads build and read the packed tables of one fresh Field at once
    fld = Field(16)
    rng = random.Random(63)
    mats = [[[rng.randrange(fld.q) for _ in range(6)] for _ in range(5)]
            for _ in range(16)]
    arrays = [np.array([rng.randrange(fld.q) for _ in range(301)], dtype=np.uint16)
              for _ in range(6)]

    def check(mat):
        out = fld.dots(mat, arrays)
        return all(
            [int(x[t]) for x in out] == fld.dots(mat, [int(a[t]) for a in arrays])
            for t in range(0, 301, 30)
        )

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(check, mats * 4, timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert len(results) == 64 and all(results)
