"""Shard file format and whole-file operations."""

import itertools
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from piggyback import (
    CodeParams,
    DataError,
    DecodeError,
    InsufficientDataError,
    ParameterError,
    RepairError,
    UnsupportedPatternError,
    design1,
    design2,
    shards,
)
from piggyback.mds import MdsCode
from piggyback.shards import HEADER_SIZE, ShardHeader

SRC = str(Path(shards.__file__).resolve().parent.parent)


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

    def test_version_1_asks_for_a_re_encode(self):
        blob = header().pack()
        with pytest.raises(DataError, match="version 1 is no longer readable.*re-encode"):
            ShardHeader.unpack(blob[:4] + b"\x01" + blob[5:])

    def test_segments_tile_the_payload(self, monkeypatch):
        # chunks of 5 stripes over 12: each column of a chunk is one run,
        # and the runs of all chunks cover the payload once, in order
        hdr = header()
        monkeypatch.setattr(shards, "CHUNK_BYTES", 5 * hdr.stripe_bytes)
        assert hdr.chunks() == [range(0, 5), range(5, 10), range(10, 12)]
        runs = [run for chunk in hdr.chunks() for run in hdr.segments(chunk)]
        # chunk 1: after chunk 0 (10 B), its column 1, then its column 2
        assert hdr.segments(range(5, 10)) == [(HEADER_SIZE + 10, 5), (HEADER_SIZE + 15, 5)]
        ends = [HEADER_SIZE] + [offset + size for offset, size in runs]
        assert [offset for offset, _ in runs] == ends[:-1]
        assert ends[-1] == HEADER_SIZE + hdr.payload_bytes
        assert header(original_length=0, stripe_count=0).chunks() == [range(0)]

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


def reference_payloads(p, raw, chunk):
    """Shard payloads in the v2 layout from a per-stripe encode on plain
    ints: for each run of ``chunk`` stripes, column 1 of every stripe of
    the run, then column 2, up to column s+1."""
    sym = p.w // 8
    stripe_bytes = p.data_symbols * sym
    count = -(-len(raw) // stripe_bytes)
    raw += bytes(count * stripe_bytes - len(raw))
    design = design2 if p.kprime == 0 else design1
    rows = {node: [] for node in range(1, p.n + 1)}
    for start in range(0, len(raw), stripe_bytes):
        data = [
            int.from_bytes(raw[i : i + sym], "little")
            for i in range(start, start + stripe_bytes, sym)
        ]
        grid = design.encode_stripe(p, data)
        for node, node_rows in rows.items():
            node_rows.append(grid.row(node))
    payloads = {node: bytearray() for node in rows}
    for node, payload in payloads.items():
        for first in range(0, count, chunk):
            for col in range(p.s + 1):
                for row in rows[node][first : first + chunk]:
                    payload += row[col].to_bytes(sym, "little")
    return payloads


@pytest.mark.parametrize("params", [
    dict(n=11, k=7, s=2, kprime=4),
    dict(n=11, k=7, s=2, kprime=7),
    dict(n=7, k=5, s=2, kprime=0),
])
@pytest.mark.parametrize("w", [8, 16])
def test_encode_matches_scalar_reference(tmp_path, monkeypatch, params, w):
    p = CodeParams(w=w, **params)
    stripe_bytes = p.data_symbols * (w // 8)
    count = -(-1501 // stripe_bytes)
    chunk = count // 3 + 1
    assert count > 2 * chunk and count % chunk  # 3 chunks, the last one short
    monkeypatch.setattr(shards, "CHUNK_BYTES", chunk * stripe_bytes)
    src = write_file(tmp_path, 1501, seed=w)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    want = reference_payloads(p, src.read_bytes(), chunk)
    for node in range(1, p.n + 1):
        _, payload = shards.read_shard(out_dir / shards.shard_filename(node))
        assert payload == want[node], node


@pytest.mark.parametrize("params,per_chunk", [
    (dict(n=14, k=10, s=2, kprime=10), 1),  # all s+1 columns: one code
    (dict(n=14, k=10, s=2, kprime=0), 1),  # column s+1 holds only sums
    (dict(n=11, k=7, s=2, kprime=4), 2),  # the (n, k') code once more
], ids=["design1_mds", "design2", "design1"])
def test_one_encode_per_code_per_chunk(tmp_path, monkeypatch, params, per_chunk):
    # a chunk's parity is one MdsCode.encode per code, over the columns
    # that code fills, whichever thread encodes the chunk
    p = CodeParams(w=8, **params)
    stripe_bytes = p.data_symbols  # a byte per symbol at w=8
    monkeypatch.setattr(shards, "CHUNK_BYTES", 10 * stripe_bytes)
    src = write_file(tmp_path, 25 * stripe_bytes - 3, seed=20)  # chunks of 10, 10, 5
    calls, lock = [0], threading.Lock()
    encode = MdsCode.encode

    def counted(self, data):
        with lock:
            calls[0] += 1
        return encode(self, data)

    monkeypatch.setattr(MdsCode, "encode", counted)
    shards.encode_file(p, src, tmp_path / "shards")
    monkeypatch.setattr(MdsCode, "encode", encode)
    assert calls[0] == 3 * per_chunk
    shards.decode_file(tmp_path / "shards", tmp_path / "out.bin")
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_encode_refuses_a_pipe(tmp_path):
    # a pipe has no size: the header would record 0 bytes and every
    # shard would be empty, so encode refuses it before making a dir
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    r, w = os.pipe()
    try:
        os.write(w, bytes(range(250)) * 20)
        os.close(w)
        with pytest.raises(ParameterError, match=f"/proc/self/fd/{r}.*not a regular file"):
            shards.encode_file(p, f"/proc/self/fd/{r}", tmp_path / "shards")
    finally:
        os.close(r)
    assert not (tmp_path / "shards").exists()


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


def test_encode_rejects_family_the_header_cannot_store(tmp_path):
    # decode rebuilds guaranteed_rs from the header, so any other family
    # would come back as wrong bytes
    p = CodeParams(n=10, k=6, s=1, kprime=6, w=8, family="vandermonde_literal")
    src = write_file(tmp_path, 1000, seed=9)
    out_dir = tmp_path / "shards"
    with pytest.raises(ParameterError, match="vandermonde_literal"):
        shards.encode_file(p, src, out_dir)
    assert not out_dir.exists()


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


@pytest.mark.parametrize("w,size", [(8, 999), (8, 8), (16, 990)])
def test_decode_odd_stripe_count(tmp_path, w, size):
    # 111, 1 and 55 stripes: at w=8 the last 16-bit lane of a column holds
    # one symbol; rows 2 and 5 are lost, so erased data is solved
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=w)
    src = write_file(tmp_path, size, seed=size)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    with shards.load_shard_set(out_dir) as shard_set:
        assert shard_set.header.stripe_count % 2 == 1
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


def test_design2_r_plus_1_lost(tmp_path):
    # shards 2, 4 and 6 (r+1) gone: decode runs the sweep, and recovery
    # checks the spare survivor cells the sweep does not consume
    p = CodeParams(n=7, k=5, s=2, kprime=0, w=8)
    src = write_file(tmp_path, 700, seed=16)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    for node in (2, 4, 6):
        (out_dir / shards.shard_filename(node)).unlink()
    shards.decode_file(out_dir, tmp_path / "out.bin")
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()
    path = out_dir / shards.shard_filename(3)
    blob = bytearray(path.read_bytes())
    blob[HEADER_SIZE] ^= 0x21
    path.write_bytes(bytes(blob))
    before = {f.name: f.read_bytes() for f in out_dir.iterdir()}
    with pytest.raises(DecodeError):
        shards.recover_shards(out_dir, [2, 4, 6])
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
    # supplied rows inconsistent with the decoded stripe: shard 7 is a
    # redundant row, shard 2 one of the rows the stripe is decoded from
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 900, seed=11)
    for node in (7, 2):
        out_dir = tmp_path / f"shards{node}"
        shards.encode_file(p, src, out_dir)
        path = out_dir / shards.shard_filename(node)
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


@pytest.mark.parametrize("offset, value, cause", [
    (15, b"\x00\x00", r"node_index 0 out of \[1, 8\]"),
    (15, b"\x09\x00", r"node_index 9 out of \[1, 8\]"),
    (4, b"\x01", "version 1"),
    (0, b"XXXX", "bad magic"),
    (17, (101).to_bytes(8, "little"), "inconsistent shard set: shard_0005.pgb"),
    (33, None, r"corrupt header: 20 bytes < 33"),
], ids=["node_0", "node_above_n", "version", "magic", "length", "short"])
def test_later_header_fault_is_named(tmp_path, offset, value, cause):
    # only the first header is unpacked in full; a later one that differs
    # from it in any byte but node_index is unpacked to name the cause
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 100, seed=8)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    path = out_dir / "shard_0005.pgb"
    blob = path.read_bytes()
    if value is None:
        blob = blob[:20]
    else:
        blob = blob[:offset] + value + blob[offset + len(value):]
    path.write_bytes(blob)
    with pytest.raises(DataError, match=cause):
        shards.load_shard_set(out_dir)


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


def test_truncated_survivor_is_left_out(tmp_path):
    # shard 1 lost and shard 3 one byte short: the six others are exactly
    # k, so recovery and decode still succeed without shard 3
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 1000, seed=14)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    first = out_dir / shards.shard_filename(1)
    original = first.read_bytes()
    first.unlink()
    third = out_dir / shards.shard_filename(3)
    third.write_bytes(third.read_bytes()[:-1])
    with shards.load_shard_set(out_dir) as shard_set:
        assert sorted(shard_set) == [2, 4, 5, 6, 7, 8]
        assert list(shard_set.dropped) == [3]
    assert shards.recover_shards(out_dir, [1]) == [1]
    assert first.read_bytes() == original
    first.unlink()
    shards.decode_file(out_dir, tmp_path / "out.bin")
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()


def test_repair_falls_back_when_read_set_shard_left_out(tmp_path):
    # node 1's repair reads row 3, which is one byte too long; the six
    # others are exactly k, so repair recovers node 1 from them instead
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 1000, seed=15)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    first = out_dir / shards.shard_filename(1)
    original = first.read_bytes()
    first.unlink()
    third = out_dir / shards.shard_filename(3)
    third.write_bytes(third.read_bytes() + b"\x00")
    hdr, report = shards.repair_shard(out_dir, 1)
    assert hdr.node_index == 1
    assert first.read_bytes() == original
    assert report.reads == tuple((i, c) for i in (2, 4, 5, 6, 7, 8) for c in (1, 2))
    assert report.bandwidth == 12


def test_broken_shard_being_rebuilt_is_never_read(tmp_path):
    # the shards asked for are rebuilt, not read: an empty or cut shard 3,
    # or a bad magic in shard 5, cannot stop its own rebuild
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 2000, seed=22)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    third, fifth = (out_dir / shards.shard_filename(node) for node in (3, 5))
    original = {path: path.read_bytes() for path in (third, fifth)}
    third.write_bytes(b"")
    shards.repair_shard(out_dir, 3)
    assert third.read_bytes() == original[third]
    third.write_bytes(original[third][:10])
    fifth.write_bytes(b"XXXX" + original[fifth][4:])
    assert shards.recover_shards(out_dir, [3, 5]) == [3, 5]
    assert {path: path.read_bytes() for path in (third, fifth)} == original


def test_no_shard_but_the_one_to_rebuild_is_a_shortfall(tmp_path):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 100, seed=23)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    for node in range(2, 9):
        (out_dir / shards.shard_filename(node)).unlink()
    with pytest.raises(InsufficientDataError, match="no surviving shards"):
        shards.repair_shard(out_dir, 1)
    with shards.load_shard_set(out_dir) as shard_set:
        assert list(shard_set) == [1]


def test_shortfall_names_left_out_shard(tmp_path):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 1000, seed=15)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    (out_dir / shards.shard_filename(1)).unlink()
    (out_dir / shards.shard_filename(2)).unlink()
    third = out_dir / shards.shard_filename(3)
    third.write_bytes(third.read_bytes() + b"\x00")
    with pytest.raises(InsufficientDataError, match="shard_0003.pgb left out"):
        shards.repair_shard(out_dir, 1)  # node 1's repair reads row 3
    with pytest.raises(InsufficientDataError, match="shard_0003.pgb left out"):
        shards.decode_file(out_dir, tmp_path / "out.bin")
    with pytest.raises(InsufficientDataError, match="shard_0003.pgb left out"):
        shards.recover_shards(out_dir, [1])
    assert sorted(path.name for path in out_dir.iterdir()) == [
        shards.shard_filename(f) for f in range(3, 9)
    ]


def test_header_claiming_extra_stripes_is_refused(tmp_path):
    # a 100-byte file is 12 stripes; with headers claiming 300,012 and
    # payloads to match, decode would start chunks past the end of the
    # file and write them out
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 100, seed=20)
    out_dir = tmp_path / "shards"
    for path in shards.encode_file(p, src, out_dir):
        hdr = replace(shards.read_shard(path)[0], stripe_count=300_012)
        path.write_bytes(hdr.pack() + bytes(hdr.payload_bytes))
    out = tmp_path / "out.bin"
    with pytest.raises(DataError, match="original_length 100 needs 12 stripes"):
        shards.decode_file(out_dir, out)
    assert not out.exists()


def test_rebuild_checks_nodes_before_writing(tmp_path, monkeypatch):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 100, seed=21)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    (out_dir / shards.shard_filename(2)).unlink()
    before = {f.name: f.read_bytes() for f in out_dir.iterdir()}

    def no_write(paths):
        raise AssertionError(f"a file was opened to write {paths}")

    monkeypatch.setattr(shards, "_atomic_files", no_write)
    with pytest.raises(ParameterError, match="no failed nodes given"):
        shards.recover_shards(tmp_path / "nowhere", [])  # before any shard is read
    with pytest.raises(ParameterError, match="no failed nodes given"):
        shards.recover_shards(out_dir, [])
    with pytest.raises(ParameterError, match=r"node 9 out of \[1, 8\]"):
        shards.recover_shards(out_dir, [2, 9])
    with pytest.raises(ParameterError, match=r"node 0 out of \[1, 8\]"):
        shards.repair_shard(out_dir, 0)
    assert {f.name: f.read_bytes() for f in out_dir.iterdir()} == before


def test_shard_reader_missing_node(tmp_path):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 100, seed=10)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    with shards.load_shard_set(out_dir) as shard_set:
        os.close(shard_set.pop(3))
        reader = shards.ShardReader(shard_set, range(0))
        with pytest.raises(RepairError, match="node 3"):
            reader(3, 1)


class OpenedShards:
    """Records ``os.open`` of shard files (temp files excluded) by name, and
    which of those descriptors are still open."""

    def __init__(self, monkeypatch):
        self.counts: dict[str, int] = {}
        self.open: dict[int, str] = {}
        real_open, real_close = os.open, os.close

        def counted_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            name = os.path.basename(os.fspath(path))
            if name.startswith("shard_") and name.endswith(".pgb"):
                self.counts[name] = self.counts.get(name, 0) + 1
                self.open[fd] = name
            return fd

        def counted_close(fd):
            self.open.pop(fd, None)
            real_close(fd)

        monkeypatch.setattr(os, "open", counted_open)
        monkeypatch.setattr(os, "close", counted_close)

    def take(self) -> dict[str, int]:
        counts, self.counts = self.counts, {}
        return counts


def once(nodes) -> dict[str, int]:
    return {shards.shard_filename(node): 1 for node in nodes}


def test_each_survivor_is_opened_once_per_operation(tmp_path, monkeypatch):
    # three chunks per operation; the shards being rebuilt are never opened
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    small_chunks(monkeypatch, p)
    src = write_file(tmp_path, 13 * p.data_symbols - 1, seed=24)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    opened = OpenedShards(monkeypatch)
    shards.decode_file(out_dir, tmp_path / "out.bin")
    assert opened.take() == once(range(1, 9))
    shards.repair_shard(out_dir, 2)
    assert opened.take() == once([1, *range(3, 9)])
    assert shards.recover_shards(out_dir, [1, 4]) == [1, 4]
    assert opened.take() == once([2, 3, *range(5, 9)])
    # node 1's read set has shard 3, left out for its size: the fallback
    # to recovery reads the shards the repair already opened
    third = out_dir / shards.shard_filename(3)
    third.write_bytes(third.read_bytes() + b"\x00")
    assert shards.repair_shard(out_dir, 1)[1].bandwidth == 6 * 2
    assert opened.take() == once(range(2, 9))
    assert not opened.open
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()


def test_left_out_shard_is_closed_at_once(tmp_path, monkeypatch):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 1000, seed=25)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    third = out_dir / shards.shard_filename(3)
    third.write_bytes(third.read_bytes()[:-1])
    opened = OpenedShards(monkeypatch)
    with shards.load_shard_set(out_dir) as shard_set:
        assert list(shard_set.dropped) == [3]
        assert sorted(opened.open.values()) == [
            shards.shard_filename(node) for node in (1, 2, 4, 5, 6, 7, 8)
        ]
    assert opened.take() == once(range(1, 9))
    assert not opened.open


def corrupt_fourth(out_dir):
    path = out_dir / shards.shard_filename(4)
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    return DataError, "bad magic"


def duplicate_node(out_dir):
    (out_dir / shards.shard_filename(6)).write_bytes(
        (out_dir / shards.shard_filename(5)).read_bytes()
    )
    return DataError, "duplicate shard for node 5"


def none_usable(out_dir):
    for path in out_dir.iterdir():
        path.write_bytes(path.read_bytes()[:-1])
    return (DataError, InsufficientDataError), "shard_0008.pgb left out"


@pytest.mark.parametrize("fault", [corrupt_fourth, duplicate_node, none_usable])
@pytest.mark.parametrize("operation", [
    lambda d, out: shards.load_shard_set(d),
    lambda d, out: shards.decode_file(d, out),
    lambda d, out: shards.repair_shard(d, 1),
    lambda d, out: shards.recover_shards(d, [1, 2]),
], ids=["load", "decode", "repair", "recover"])
def test_failed_load_closes_every_descriptor(tmp_path, monkeypatch, fault, operation):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    src = write_file(tmp_path, 1000, seed=26)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    error, cause = fault(out_dir)
    opened = OpenedShards(monkeypatch)
    with pytest.raises(error, match=cause):
        operation(out_dir, tmp_path / "out.bin")
    assert opened.counts and not opened.open
    assert not (tmp_path / "out.bin").exists()


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


# -- chunks ------------------------------------------------------------------

CHUNK_STRIPES = 4  # stripes per chunk in the multi-chunk runs below


def small_chunks(monkeypatch, p):
    stripe_bytes = p.data_symbols * (p.w // 8)
    monkeypatch.setattr(shards, "CHUNK_BYTES", CHUNK_STRIPES * stripe_bytes)


def every_output(p, src, out_dir):
    """Every shard-path output: the encoded shards; for each shard
    repaired, and for r and r+1 lost shards recovered, whether the result
    equals them (with the repair's report); and decodes with them lost.
    An error's type and message stand in where a pattern is not supported."""
    out = {}
    paths = shards.encode_file(p, src, out_dir)
    original = {node: path.read_bytes() for node, path in enumerate(paths, 1)}
    out["encode"] = original
    for node, path in enumerate(paths, 1):
        path.unlink()
        _, report = shards.repair_shard(out_dir, node)
        out[f"repair {node}"] = (path.read_bytes() == original[node], report)
    for lost in (list(range(1, p.n + 1, 2))[: p.r], list(range(1, p.n + 1, 2))[: p.r + 1]):
        for node in lost:
            paths[node - 1].unlink()
        try:
            shards.recover_shards(out_dir, lost)
            out[f"recover {lost}"] = all(
                paths[node - 1].read_bytes() == original[node] for node in lost
            )
        except (DataError, UnsupportedPatternError) as exc:
            out[f"recover {lost}"] = f"{type(exc).__name__}: {exc}"
        for node in lost:
            paths[node - 1].unlink(missing_ok=True)
        decoded = out_dir.parent / "decoded.bin"
        try:
            shards.decode_file(out_dir, decoded)
            out[f"decode {lost}"] = decoded.read_bytes()
        except (DataError, UnsupportedPatternError) as exc:
            out[f"decode {lost}"] = f"{type(exc).__name__}: {exc}"
        for node in lost:
            paths[node - 1].write_bytes(original[node])
    return out


@pytest.mark.parametrize("params", [
    dict(n=8, k=6, s=1, kprime=3),
    dict(n=11, k=7, s=2, kprime=7),
    dict(n=7, k=5, s=2, kprime=0),
], ids=["design1", "design1_mds", "design2"])
@pytest.mark.parametrize("w", [8, 16])
@pytest.mark.parametrize("stripes", [
    0, 1, CHUNK_STRIPES - 1, CHUNK_STRIPES, CHUNK_STRIPES + 1, 3 * CHUNK_STRIPES + 1,
])
def test_blocks_match_one_block(tmp_path, monkeypatch, params, w, stripes):
    # every file but the empty one ends inside its last stripe; one chunk
    # at the default size, chunks of CHUNK_STRIPES after small_chunks
    p = CodeParams(w=w, **params)
    stripe_bytes = p.data_symbols * (w // 8)
    src = write_file(tmp_path, max(0, stripes * stripe_bytes - 1), seed=stripes + w)
    raw = src.read_bytes()
    whole = every_output(p, src, tmp_path / "whole")
    small_chunks(monkeypatch, p)
    with shards.load_shard_set(tmp_path / "whole") as shard_set:
        assert len(shard_set.header.chunks()) == max(1, -(-stripes // CHUNK_STRIPES))
    chunked = every_output(p, src, tmp_path / "chunks")
    for out, chunk in ((whole, max(1, stripes)), (chunked, CHUNK_STRIPES)):
        want = reference_payloads(p, raw, chunk)
        assert {node: blob[HEADER_SIZE:] for node, blob in out.pop("encode").items()} == want
    assert chunked == whole
    assert all(whole[f"repair {node}"][0] for node in range(1, p.n + 1))
    lost = list(range(1, p.n + 1, 2))[: p.r]
    assert whole[f"recover {lost}"] is True
    assert whole[f"decode {lost}"] == raw


def flip_in_last_block(path, p):
    """Flip one payload byte of the last chunk's first stripe."""
    hdr, _ = shards.read_shard(path)
    last = hdr.chunks()[-1]
    assert last.start > 0
    blob = bytearray(path.read_bytes())
    blob[hdr.segments(last)[0][0]] ^= 0x21
    path.write_bytes(bytes(blob))


def test_corruption_in_last_block_writes_nothing(tmp_path, monkeypatch):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    small_chunks(monkeypatch, p)
    src = write_file(tmp_path, 3 * CHUNK_STRIPES * 9 + 5, seed=17)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    flip_in_last_block(out_dir / shards.shard_filename(3), p)
    out = tmp_path / "out.bin"
    with pytest.raises(DecodeError):
        shards.decode_file(out_dir, out)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["input.bin", "shards"]
    (out_dir / shards.shard_filename(1)).unlink()
    before = {f.name: f.read_bytes() for f in out_dir.iterdir()}
    with pytest.raises(DecodeError):
        shards.recover_shards(out_dir, [1])
    assert {f.name: f.read_bytes() for f in out_dir.iterdir()} == before


def test_failed_block_cancels_queued_and_waits_for_running(tmp_path, monkeypatch):
    # the first chunk fails at once while the others take a while: decode
    # raises only after every chunk that started has finished, and the
    # chunks still queued never start
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
    small_chunks(monkeypatch, p)
    src = write_file(tmp_path, 20 * CHUNK_STRIPES * 9, seed=19)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    calls, finished = itertools.count(), []
    decode = shards.stripe.decode_from_k

    def slow_decode(params, rows):
        if next(calls) == 0:
            raise DecodeError("first chunk")
        time.sleep(0.05)
        finished.append(1)
        return decode(params, rows)

    monkeypatch.setattr(shards.stripe, "decode_from_k", slow_decode)
    with pytest.raises(DecodeError, match="first chunk"):
        shards.decode_file(out_dir, tmp_path / "out.bin")
    started = next(calls)
    assert len(finished) == started - 1 and started < 20
    assert sorted(path.name for path in tmp_path.iterdir()) == ["input.bin", "shards"]


def test_blocked_repair_falls_back_when_read_set_shard_left_out(tmp_path, monkeypatch):
    p = CodeParams(n=8, k=6, s=1, kprime=3, w=16)
    small_chunks(monkeypatch, p)
    src = write_file(tmp_path, 5 * CHUNK_STRIPES * 18 + 7, seed=18)
    out_dir = tmp_path / "shards"
    shards.encode_file(p, src, out_dir)
    first = out_dir / shards.shard_filename(1)
    original = first.read_bytes()
    first.unlink()
    third = out_dir / shards.shard_filename(3)
    third.write_bytes(third.read_bytes() + b"\x00")
    hdr, report = shards.repair_shard(out_dir, 1)
    assert first.read_bytes() == original
    assert report.bandwidth == 12
    assert sorted(path.name for path in out_dir.iterdir()) == [
        shards.shard_filename(f) for f in range(1, 9)
    ]


@pytest.mark.parametrize("params,w", [
    (dict(n=14, k=10, s=2, kprime=0), 8),
    (dict(n=14, k=10, s=2, kprime=10), 16),
    (dict(n=8, k=6, s=1, kprime=3), 8),
], ids=["design2", "design1_mds", "design1"])
def test_repair_reads_exactly_its_read_set(tmp_path, monkeypatch, params, w):
    # 13 stripes in chunks of 5, the last chunk short. A repair's payload
    # reads are its bandwidth in symbols per stripe, and no more; recover
    # and decode read each surviving shard's row of a chunk once, with one
    # pread, and solve its columns 1..s as one block (ndim 2), column s+1
    # (k' > 0) in one more solve. Every writer stores a shard's header
    # with one pwrite and a node's row of a chunk with one more; decode
    # writes each chunk of the file with one.
    p = CodeParams(w=w, **params)
    stripe_bytes = p.data_symbols * (w // 8)
    monkeypatch.setattr(shards, "CHUNK_BYTES", 5 * stripe_bytes)
    src = write_file(tmp_path, 13 * stripe_bytes - 1, seed=w)
    out_dir = tmp_path / "shards"
    writes = []
    pwrite, lock = shards._pwrite, threading.Lock()

    def counted_write(fd, data, offset):
        pwrite(fd, data, offset)
        with lock:  # the pool's threads write too
            writes.append(offset)

    monkeypatch.setattr(shards, "_pwrite", counted_write)
    paths = shards.encode_file(p, src, out_dir)
    assert len(writes) == p.n + 3 * p.n
    with shards.load_shard_set(out_dir) as shard_set:
        assert [len(c) for c in shard_set.header.chunks()] == [5, 5, 3]
    read = []
    pread = shards._pread

    def counted(fd, out, offset, name):
        pread(fd, out, offset, name)
        read.append(out.nbytes)

    monkeypatch.setattr(shards, "_pread", counted)
    solves = []
    solve = MdsCode.solve

    def counted_solve(code, known, positions):
        solves.append(next(iter(known.values())).ndim)
        return solve(code, known, positions)

    monkeypatch.setattr(MdsCode, "solve", counted_solve)
    for node, path in enumerate(paths, 1):
        original = path.read_bytes()
        path.unlink()
        read.clear()
        writes.clear()
        hdr, report = shards.repair_shard(out_dir, node)
        assert path.read_bytes() == original, node
        assert sum(read) == report.bandwidth * hdr.stripe_count * (w // 8), node
        assert len(writes) == 1 + 3, node
    whole_shards = (p.n - p.r) * (p.s + 1) * hdr.stripe_count * (w // 8)
    chunk_solves = [2, 1] if p.kprime else [2]
    lost = list(range(1, p.r + 1))
    original = {node: paths[node - 1].read_bytes() for node in lost}
    for node in lost:
        paths[node - 1].unlink()
    read.clear()
    solves.clear()
    writes.clear()
    assert shards.recover_shards(out_dir, lost) == lost
    assert {node: paths[node - 1].read_bytes() for node in lost} == original
    assert sum(read) == whole_shards
    assert len(read) == (p.n - p.r) * 3
    assert sorted(solves) == sorted(chunk_solves * 3)
    assert len(writes) == p.r + 3 * p.r
    for node in lost:
        paths[node - 1].unlink()
    read.clear()
    solves.clear()
    writes.clear()
    shards.decode_file(out_dir, tmp_path / "out.bin")
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()
    assert sum(read) == whole_shards
    assert len(read) == (p.n - p.r) * 3
    assert sorted(solves) == sorted(chunk_solves * 3)
    assert len(writes) == 3


# peak RSS of the child alone: ru_maxrss would carry over the peak of the
# test process that spawned it, across exec, and hide any growth below it
MEMORY_RUN = """
import sys
from pathlib import Path
from piggyback import CodeParams, shards

def peak_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024

src, out_dir = Path(sys.argv[1]), Path(sys.argv[2])
before = peak_mb()
shards.encode_file(CodeParams(14, 10, 2, 10, w=16), src, out_dir)
for node in (1, 2, 3):
    (out_dir / shards.shard_filename(node)).unlink()
shards.decode_file(out_dir, out_dir / "decoded.bin")
assert (out_dir / "decoded.bin").stat().st_size == src.stat().st_size
print(peak_mb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_memory_does_not_grow_with_file_size(tmp_path):
    # peak RSS growth of an encode and a 3-lost decode, each in a fresh
    # interpreter: a 64 MiB file may cost at most 10 % more than 8 MiB
    growth = {}
    for mib in (8, 64):
        src = tmp_path / f"in{mib}.bin"
        rng = random.Random(mib)
        with open(src, "wb") as fh:
            for _ in range(mib):
                fh.write(rng.randbytes(1 << 20))
        done = subprocess.run(
            [sys.executable, "-c", MEMORY_RUN, str(src), str(tmp_path / f"out{mib}")],
            capture_output=True, text=True, timeout=300,
            env=os.environ | {"PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")},
        )
        assert done.returncode == 0, done.stderr
        growth[mib] = float(done.stdout)
        shutil.rmtree(tmp_path / f"out{mib}")
        src.unlink()
    assert growth[64] <= 1.1 * growth[8], growth
