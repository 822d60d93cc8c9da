"""Shard file format and whole-file operations."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from piggyback import CodeParams, DataError, RepairError, design1, design2, shards
from piggyback.shards import HEADER_SIZE, ShardHeader


def header(**overrides):
    base = dict(design=1, n=8, k=6, s=1, kprime=3, w=8,
                node_index=2, original_length=100, stripe_count=12)
    base.update(overrides)
    return ShardHeader(**base)


def write_file(tmp_path, size, seed=0):
    rng = random.Random(seed)
    path = tmp_path / "input.bin"
    path.write_bytes(bytes(rng.randrange(256) for _ in range(size)))
    return path


class TestHeader:
    def test_pack_unpack_roundtrip(self):
        hdr = header()
        blob = hdr.pack()
        assert len(blob) == HEADER_SIZE == 33
        assert ShardHeader.unpack(blob) == hdr

    def test_magic_and_version_checked(self):
        blob = header().pack()
        with pytest.raises(DataError, match="magic"):
            ShardHeader.unpack(b"XXXX" + blob[4:])
        with pytest.raises(DataError, match="version"):
            ShardHeader.unpack(blob[:4] + b"\x09" + blob[5:])
        with pytest.raises(DataError):
            ShardHeader.unpack(blob[:10])

    def test_design_byte_consistency(self):
        with pytest.raises(DataError, match="design"):
            ShardHeader.unpack(header(design=2, kprime=3).pack())
        with pytest.raises(DataError, match="design"):
            ShardHeader.unpack(header(design=1, kprime=0).pack())

    def test_length_capacity_check(self):
        bad = header(original_length=9 * 12 + 1)  # 9 symbols/stripe, w=8
        with pytest.raises(DataError, match="original_length"):
            ShardHeader.unpack(bad.pack())

    def test_node_range_check(self):
        with pytest.raises(DataError, match="node_index"):
            ShardHeader.unpack(header(node_index=9).pack())

    def test_same_set_ignores_node(self):
        assert header(node_index=1).same_set(header(node_index=5))
        assert not header(node_index=1).same_set(header(n=9, node_index=1))


@pytest.mark.parametrize("design,params", [
    (1, dict(n=8, k=6, s=1, kprime=3)),
    (1, dict(n=11, k=7, s=2, kprime=7)),
    (2, dict(n=7, k=5, s=2, kprime=0)),
])
@pytest.mark.parametrize("w", [8, 16])
@pytest.mark.parametrize("size", [0, 1, 500, 8192])
def test_encode_decode_identity(tmp_path, design, params, w, size):
    p = CodeParams(w=w, **params)
    src = write_file(tmp_path, size, seed=size + w)
    out_dir = tmp_path / "shards"
    paths = shards.encode_file(p, src, out_dir)
    assert len(paths) == p.n
    out = tmp_path / "restored.bin"
    written = shards.decode_file(out_dir, out)
    assert written == size
    assert out.read_bytes() == src.read_bytes()


def reference_payloads(p, raw):
    """Shard payloads from a per-stripe encode on plain ints."""
    sym = p.w // 8
    stripe_bytes = p.data_symbols * sym
    count = -(-len(raw) // stripe_bytes)
    raw += bytes(count * stripe_bytes - len(raw))
    design = design2 if p.kprime == 0 else design1
    payloads = {node: bytearray() for node in range(1, p.n + 1)}
    for start in range(0, len(raw), stripe_bytes):
        data = [
            int.from_bytes(raw[i : i + sym], "little")
            for i in range(start, start + stripe_bytes, sym)
        ]
        grid = design.encode_stripe(p, data)
        for node, payload in payloads.items():
            for v in grid.row(node):
                payload += v.to_bytes(sym, "little")
    return payloads


@pytest.mark.parametrize("params", [
    dict(n=11, k=7, s=2, kprime=4),
    dict(n=11, k=7, s=2, kprime=7),
    dict(n=7, k=5, s=2, kprime=0),
])
@pytest.mark.parametrize("w", [8, 16])
def test_encode_matches_scalar_reference(tmp_path, params, w):
    p = CodeParams(w=w, **params)
    src = write_file(tmp_path, 1501, seed=w)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    want = reference_payloads(p, src.read_bytes())
    for node in range(1, p.n + 1):
        _, payload = shards.read_shard(out_dir / shards.shard_filename(node))
        assert payload == want[node], node


def test_zero_length_file_has_zero_stripes(tmp_path):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 0)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    hdr, payload = shards.read_shard(out_dir / "shard_0001.pgb")
    assert hdr.stripe_count == 0 and payload == b""
    out = tmp_path / "restored.bin"
    shards.decode_file(out_dir, out)
    assert out.read_bytes() == b""


def test_decode_from_partial_set(tmp_path):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 1000, seed=3)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    for node in (2, 5):
        (out_dir / shards.shard_filename(node)).unlink()
    out = tmp_path / "restored.bin"
    shards.decode_file(out_dir, out)
    assert out.read_bytes() == src.read_bytes()


def test_repair_rewrites_byte_identical_shard(tmp_path):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 2000, seed=4)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    target = out_dir / shards.shard_filename(5)
    original = target.read_bytes()
    target.unlink()
    hdr, report = shards.repair_shard(out_dir, 5)
    assert target.read_bytes() == original
    assert report.bandwidth == 7
    assert all(node != 5 for node, _ in report.reads)


def test_recover_multiple_design2(tmp_path):
    p = CodeParams(n=7, k=5, s=2, kprime=0, w=16)
    src = write_file(tmp_path, 3000, seed=5)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    originals = {}
    for node in (2, 4, 6):
        path = out_dir / shards.shard_filename(node)
        originals[node] = path.read_bytes()
        path.unlink()
    done = shards.recover_shards(out_dir, [2, 4, 6])
    assert done == [2, 4, 6]
    for node, blob in originals.items():
        assert (out_dir / shards.shard_filename(node)).read_bytes() == blob


def test_recover_design1_by_redecode(tmp_path):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 700, seed=6)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    originals = {}
    for node in (1, 8):
        path = out_dir / shards.shard_filename(node)
        originals[node] = path.read_bytes()
        path.unlink()
    shards.recover_shards(out_dir, [1, 8])
    for node, blob in originals.items():
        assert (out_dir / shards.shard_filename(node)).read_bytes() == blob


def test_recover_design1_rejects_corrupt_survivor(tmp_path):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 700, seed=12)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    (out_dir / shards.shard_filename(1)).unlink()
    path = out_dir / shards.shard_filename(3)
    blob = bytearray(path.read_bytes())
    blob[HEADER_SIZE + 5] ^= 0x21
    path.write_bytes(bytes(blob))
    before = {f.name: f.read_bytes() for f in out_dir.iterdir()}
    with pytest.raises(DataError):
        shards.recover_shards(out_dir, [1])
    assert {f.name: f.read_bytes() for f in out_dir.iterdir()} == before


def test_recover_design2_rejects_corrupt_survivor(tmp_path):
    p = CodeParams(n=7, k=5, s=2, kprime=0, w=8)
    src = write_file(tmp_path, 700, seed=13)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    (out_dir / shards.shard_filename(1)).unlink()
    path = out_dir / shards.shard_filename(3)
    blob = bytearray(path.read_bytes())
    blob[HEADER_SIZE + 5] ^= 0x21
    path.write_bytes(bytes(blob))
    before = {f.name: f.read_bytes() for f in out_dir.iterdir()}
    with pytest.raises(DataError):
        shards.recover_shards(out_dir, [1])
    assert {f.name: f.read_bytes() for f in out_dir.iterdir()} == before


@pytest.mark.parametrize("params", [
    dict(n=8, k=6, s=1, kprime=3),
    dict(n=7, k=5, s=2, kprime=0),
], ids=["design1", "design2"])
def test_recover_with_unrequested_shard_missing(tmp_path, params):
    p = CodeParams(w=8, **params)
    src = write_file(tmp_path, 700, seed=14)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    target = out_dir / shards.shard_filename(1)
    original = target.read_bytes()
    target.unlink()
    (out_dir / shards.shard_filename(2)).unlink()
    assert shards.recover_shards(out_dir, [1]) == [1]
    assert target.read_bytes() == original
    assert not (out_dir / shards.shard_filename(2)).exists()


def test_corrupt_symbol_detected_on_decode(tmp_path):
    # with more than k shards available, a flipped payload byte makes the
    # supplied rows inconsistent with the decoded stripe
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 900, seed=11)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    path = out_dir / shards.shard_filename(7)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0x5A  # inside the payload
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError):
        shards.decode_file(out_dir, tmp_path / "out.bin")


def test_inconsistent_set_detected(tmp_path):
    p1 = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    p2 = CodeParams(n=8, k=5, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 100, seed=7)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    shards.encode_file(p1, src, d1)
    shards.encode_file(p2, src, d2)
    (d2 / "shard_0003.pgb").replace(d1 / "shard_0003.pgb")
    with pytest.raises(DataError, match="inconsistent"):
        shards.load_shard_set(d1)


def test_duplicate_node_detected(tmp_path):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 100, seed=8)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    blob = (out_dir / "shard_0001.pgb").read_bytes()
    (out_dir / "shard_0002.pgb").write_bytes(blob)
    with pytest.raises(DataError, match="duplicate"):
        shards.load_shard_set(out_dir)


def test_truncated_payload_detected(tmp_path):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 100, seed=9)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    path = out_dir / "shard_0004.pgb"
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(DataError, match="payload"):
        shards.read_shard(path)


def test_shard_reader_missing_node(tmp_path):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 100, seed=10)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    shard_set = shards.load_shard_set(out_dir)
    shard_set.pop(3)
    reader = shards.ShardReader(shard_set)
    with pytest.raises(RepairError, match="node 3"):
        reader(3, 1)


def test_concurrent_writes_of_one_shard(tmp_path):
    hdr = header(stripe_count=4096)
    payloads = [bytes([i]) * 8192 for i in range(16)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(shards.write_shard, tmp_path, hdr, payloads[i % 16])
                for i in range(200)
            ]
            paths = {f.result(timeout=60) for f in futures}
    finally:
        sys.setswitchinterval(switch)
    path = tmp_path / shards.shard_filename(hdr.node_index)
    assert paths == {path}
    assert path.read_bytes() in {hdr.pack() + p for p in payloads}
    assert list(tmp_path.iterdir()) == [path]


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    hdr = header()
    path = shards.write_shard(tmp_path, hdr, b"a" * 24)

    def fail(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(shards.os, "replace", fail)
    with pytest.raises(OSError, match="disk gone"):
        shards.write_shard(tmp_path, hdr, b"b" * 24)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == hdr.pack() + b"a" * 24
