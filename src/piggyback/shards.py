"""Shard file format and whole-file encode/decode/repair/recover.

A file is split into stripes of s*k + k' symbols (w/8 bytes each,
little-endian), zero-padded at the tail, and each stripe is encoded into
the n x (s+1) array. Shard f holds row f of every stripe: its s+1 symbols
stored contiguously per stripe, preceded by a fixed 33-byte header. All
stripes share one read pattern, so repair and recovery run the symbol
engines once with whole columns as numpy vectors. A shard whose size does
not match its header is left out of the set, like an absent one.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import stripe
from .errors import (
    DataError,
    InsufficientDataError,
    ParameterError,
    RepairError,
    UnsupportedPatternError,
)
from .params import CodeParams, RepairReport, Variant

MAGIC = b"PGB1"
VERSION = 1
_HEADER_FMT = "<4sBBHHHHBHQQ"
HEADER_SIZE = struct.calcsize(_HEADER_FMT)


@dataclass(frozen=True)
class ShardHeader:
    """Fixed per-shard metadata; identical across a set except node_index."""

    design: int
    n: int
    k: int
    s: int
    kprime: int
    w: int
    node_index: int
    original_length: int
    stripe_count: int

    def pack(self) -> bytes:
        return struct.pack(
            _HEADER_FMT,
            MAGIC,
            VERSION,
            self.design,
            self.n,
            self.k,
            self.s,
            self.kprime,
            self.w,
            self.node_index,
            self.original_length,
            self.stripe_count,
        )

    @classmethod
    def unpack(cls, blob: bytes) -> "ShardHeader":
        if len(blob) < HEADER_SIZE:
            raise DataError(f"corrupt header: {len(blob)} bytes < {HEADER_SIZE}")
        magic, version, design, n, k, s, kprime, w, node, length, stripes = (
            struct.unpack(_HEADER_FMT, blob[:HEADER_SIZE])
        )
        if magic != MAGIC:
            raise DataError(f"corrupt header: bad magic {magic!r}")
        if version != VERSION:
            raise DataError(f"corrupt header: unsupported version {version}")
        if design not in (1, 2):
            raise DataError(f"corrupt header: design byte {design}")
        if (design == 2) != (kprime == 0):
            raise DataError(
                f"corrupt header: design {design} with kprime {kprime}"
            )
        hdr = cls(design, n, k, s, kprime, w, node, length, stripes)
        try:
            hdr.params()
        except ParameterError as exc:
            raise DataError(f"corrupt header: {exc}") from exc
        data_bytes = stripes * hdr.symbols_per_stripe * (w // 8)
        if length > data_bytes:
            raise DataError(
                f"corrupt header: original_length {length} exceeds capacity {data_bytes}"
            )
        if not 1 <= node <= n:
            raise DataError(f"corrupt header: node_index {node} out of [1, {n}]")
        return hdr

    @property
    def symbols_per_stripe(self) -> int:
        return self.s * self.k + self.kprime

    @property
    def symbol_bytes(self) -> int:
        return self.w // 8

    @property
    def payload_bytes(self) -> int:
        return self.stripe_count * (self.s + 1) * self.symbol_bytes

    @property
    def dtype(self):
        return np.dtype("<u1") if self.w == 8 else np.dtype("<u2")

    def params(self) -> CodeParams:
        return CodeParams(n=self.n, k=self.k, s=self.s, kprime=self.kprime, w=self.w)

    def same_set(self, other: "ShardHeader") -> bool:
        return replace(self, node_index=0) == replace(other, node_index=0)


def shard_filename(node: int) -> str:
    return f"shard_{node:04d}.pgb"


def _atomic_write(path: Path, blob: bytes):
    """Replace path with blob via a temp file unique to this call.

    The temp name starts with a dot and ends in .tmp, so the shard glob
    never matches it; concurrent writers of one path never share it.
    """
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_shard(out_dir, header: ShardHeader, payload: bytes) -> Path:
    path = Path(out_dir) / shard_filename(header.node_index)
    _atomic_write(path, header.pack() + payload)
    return path


def read_shard(path) -> tuple[ShardHeader, bytes]:
    blob = Path(path).read_bytes()
    header = ShardHeader.unpack(blob)
    payload = blob[HEADER_SIZE:]
    expected = header.payload_bytes
    if len(payload) != expected:
        raise DataError(
            f"shard {path}: payload {len(payload)} bytes, expected {expected}"
        )
    return header, payload


class ShardSet(dict):
    """Usable shards {node: (header, path)}; ``dropped`` maps the rest to why."""

    def __init__(self):
        super().__init__()
        self.dropped: dict[int, str] = {}

    def note(self) -> str:
        """Suffix naming the shards left out, for a shortfall message."""
        return "".join(f"; {why}" for why in self.dropped.values())


def load_shard_set(in_dir) -> ShardSet:
    """Headers of all shards present, validated as one consistent set.

    A shard whose size disagrees with its header is left out (``dropped``).
    """
    in_dir = Path(in_dir)
    found = ShardSet()
    reference = None
    for path in sorted(in_dir.glob("shard_*.pgb")):
        # unbuffered, so only the header is read, not a buffer's worth
        with open(path, "rb", buffering=0) as fh:
            header = ShardHeader.unpack(fh.read(HEADER_SIZE))
            size = os.fstat(fh.fileno()).st_size
        if reference is None:
            reference = header
        elif not header.same_set(reference):
            raise DataError(
                f"inconsistent shard set: {path.name} disagrees with "
                f"{shard_filename(reference.node_index)}"
            )
        node = header.node_index
        if node in found or node in found.dropped:
            raise DataError(f"duplicate shard for node {node}")
        expected = HEADER_SIZE + header.payload_bytes
        if size == expected:
            found[node] = (header, path)
        else:
            found.dropped[node] = f"{path.name} left out: {size} B, expected {expected}"
    if not found:
        raise DataError(f"no shards found in {in_dir}{found.note()}")
    return found


def _node_columns(header: ShardHeader, path) -> np.ndarray:
    """Shard payload as an (s+1, stripe_count) symbol array."""
    _, payload = read_shard(path)
    arr = np.frombuffer(payload, dtype=header.dtype)
    return arr.reshape(header.stripe_count, header.s + 1).T


def _payload_from_row(header: ShardHeader, row) -> bytes:
    return np.stack(row, axis=1).astype(header.dtype, copy=False).tobytes()


def encode_file(params: CodeParams, in_path, out_dir) -> list[Path]:
    """Stripe, encode and write all n shards for a file."""
    raw = Path(in_path).read_bytes()
    sym_bytes = params.w // 8
    ds = params.data_symbols
    stripe_bytes = ds * sym_bytes
    stripe_count = -(-len(raw) // stripe_bytes) if raw else 0
    padded = raw + b"\x00" * (stripe_count * stripe_bytes - len(raw))
    dtype = np.dtype("<u1") if params.w == 8 else np.dtype("<u2")
    table = np.frombuffer(padded, dtype=dtype).reshape(stripe_count, ds)
    data = list(np.ascontiguousarray(table.T))

    grid = stripe.encode_stripe(params, data)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    design_byte = 2 if params.variant is Variant.DESIGN2 else 1
    paths = []
    for node in range(1, params.n + 1):
        header = ShardHeader(
            design=design_byte,
            n=params.n,
            k=params.k,
            s=params.s,
            kprime=params.kprime,
            w=params.w,
            node_index=node,
            original_length=len(raw),
            stripe_count=stripe_count,
        )
        payload = _payload_from_row(header, list(grid.cells[node - 1]))
        paths.append(write_shard(out_dir, header, payload))
    return paths


def decode_file(in_dir, out_path) -> int:
    """Rebuild the original file from k shards, or k-1 by the r+1 sweep."""
    shard_set = load_shard_set(in_dir)
    header = next(iter(shard_set.values()))[0]
    params = header.params()
    try:
        stripe.require_rows(params, len(shard_set))
        # decode multiplies every column: one transposing copy per shard
        # beats a strided gather in each multiply
        rows = {
            node: list(np.ascontiguousarray(_node_columns(hdr, path)))
            for node, (hdr, path) in shard_set.items()
        }
        data = stripe.decode_from_k(params, rows)
    except (InsufficientDataError, UnsupportedPatternError) as exc:
        raise type(exc)(f"{exc}{shard_set.note()}") from exc
    table = np.stack(data, axis=1).astype(header.dtype, copy=False)
    blob = table.tobytes()[: header.original_length]
    _atomic_write(Path(out_path), blob)
    return len(blob)


class ShardReader:
    """Reader over a shard directory, loading one shard per node lazily."""

    def __init__(self, shard_set: ShardSet):
        self._set = shard_set
        self._columns: dict[int, np.ndarray] = {}

    def __call__(self, node: int, col: int):
        if node not in self._set:
            raise RepairError(
                f"shard for node {node} is not available{self._set.note()}"
            )
        if node not in self._columns:
            header, path = self._set[node]
            self._columns[node] = _node_columns(header, path)
        return self._columns[node][col - 1]


def _recover(
    params: CodeParams, nodes: list[int], shard_set: ShardSet, reader: ShardReader
) -> dict[int, list]:
    """``stripe.recover_nodes`` of ``nodes`` and every node absent from the set.

    A shortfall names the shards the set left out.
    """
    absent = [node for node in range(1, params.n + 1) if node not in shard_set]
    try:
        return stripe.recover_nodes(params, nodes + absent, reader)
    except (InsufficientDataError, UnsupportedPatternError) as exc:
        raise type(exc)(f"{exc}{shard_set.note()}") from exc


def repair_shard(in_dir, node: int) -> tuple[ShardHeader, RepairReport]:
    """Rebuild shard `node` from the surviving shards and rewrite it.

    When a shard of the repair's read set is absent or left out, the node
    is recovered from every present shard instead, as ``recover_shards``
    does; the report then lists every cell of those shards.
    """
    in_dir = Path(in_dir)
    shard_set = load_shard_set(in_dir)
    shard_set.pop(node, None)  # repair must not read the failed shard
    if not shard_set:
        raise InsufficientDataError("no surviving shards to repair from")
    sample = next(iter(shard_set.values()))[0]
    params = sample.params()
    if not 1 <= node <= params.n:
        raise ParameterError(f"node {node} out of [1, {params.n}]")
    reader = ShardReader(shard_set)
    try:
        row, report = stripe.repair_node(params, node, reader)
    except RepairError:
        row = _recover(params, [node], shard_set, reader)[node]
        reads = tuple((i, c) for i in sorted(shard_set) for c in range(1, params.s + 2))
        report = RepairReport(node=node, bandwidth=len(reads), reads=reads)
    header = replace(sample, node_index=node)
    write_shard(in_dir, header, _payload_from_row(header, row))
    return header, report


def recover_shards(in_dir, nodes) -> list[int]:
    """Recover several failed shards at once and rewrite them.

    Every node whose shard is absent or left out counts as failed along
    with the requested ones; ``stripe.recover_nodes`` reads the rest and
    checks each of them. Only the requested shards are written.
    """
    in_dir = Path(in_dir)
    nodes = sorted(set(nodes))
    shard_set = load_shard_set(in_dir)
    for node in nodes:
        shard_set.pop(node, None)
    if not shard_set:
        raise InsufficientDataError("no surviving shards to recover from")
    sample = next(iter(shard_set.values()))[0]
    params = sample.params()
    recovered = _recover(params, nodes, shard_set, ShardReader(shard_set))
    for node in nodes:
        header = replace(sample, node_index=node)
        write_shard(in_dir, header, _payload_from_row(header, recovered[node]))
    return nodes
