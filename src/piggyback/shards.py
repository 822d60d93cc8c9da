"""Shard file format and whole-file encode/decode/repair/recover.

A file is split into stripes of s*k + k' symbols (w/8 bytes each,
little-endian), zero-padded at the tail, and each stripe is encoded into
the n x (s+1) array. Shard f holds row f of every stripe: its s+1 symbols
stored contiguously per stripe, preceded by a fixed 33-byte header. A
shard whose size does not match its header is left out of the set, like
an absent one.

Piggyback sums and repair read sets never cross a stripe, so every
operation runs in blocks of about ``BLOCK_BYTES`` of file data. A block is
one contiguous byte range in the input file, in every shard and in the
decoded file. It is ``os.pread`` from the shards it needs, run through the
stripe engine with whole columns as numpy vectors, and ``os.pwrite`` at its
offset into temp files that replace their targets only when every block
succeeded. Blocks run on one shared pool with a thread per CPU in the
affinity mask, since numpy's gathers and XORs release the GIL; memory
grows with the worker count, not with the file size.
"""

from __future__ import annotations

import contextlib
import functools
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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
    def row_bytes(self) -> int:
        """Bytes of one stripe's row: the s+1 symbols a shard stores per stripe."""
        return (self.s + 1) * self.symbol_bytes

    @property
    def payload_bytes(self) -> int:
        return self.stripe_count * self.row_bytes

    @property
    def dtype(self):
        return np.dtype("<u1") if self.w == 8 else np.dtype("<u2")

    def params(self) -> CodeParams:
        return CodeParams(n=self.n, k=self.k, s=self.s, kprime=self.kprime, w=self.w)

    def same_set(self, other: "ShardHeader") -> bool:
        return replace(self, node_index=0) == replace(other, node_index=0)


def shard_filename(node: int) -> str:
    return f"shard_{node:04d}.pgb"


BLOCK_BYTES = 1 << 20
"""File data per block: the unit of I/O, of memory and of work per thread."""

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


@functools.cache
def _cpus() -> int:
    # the affinity mask is Linux-only; elsewhere count every CPU
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor() -> ThreadPoolExecutor:
    """The helper pool shared by every operation: a thread per other CPU."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_cpus() - 1, thread_name_prefix="piggyback-block")
        return _pool


def _blocks(header: ShardHeader) -> list[range]:
    """Stripe ranges of about BLOCK_BYTES of file data; one, maybe empty, at least."""
    stripe_bytes = header.symbols_per_stripe * header.symbol_bytes
    step = max(1, BLOCK_BYTES // stripe_bytes)
    count = header.stripe_count
    return [range(a, min(a + step, count)) for a in range(0, count, step)] or [range(0)]


def _run_blocks(task, blocks: list[range], helped: bool = True) -> list:
    """``task(stripes)`` for every block; results in block order.

    The caller's thread takes the blocks one at a time, and when
    ``helped``, up to one pool thread per other CPU joins in. The caller
    never waits for a thread to wake before work starts, a single block
    never leaves it, and a busy pool only leaves it more blocks. After a
    failure no block starts; the failure is raised once every started
    block has finished, so nothing a block uses is closed or removed under
    it. Helpers never submit to the pool, so it cannot wait on itself.
    """
    results: list = [None] * len(blocks)
    failures: list[BaseException] = []
    order = iter(range(len(blocks)))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                i = None if failures else next(order, None)
            if i is None:
                return
            try:
                results[i] = task(blocks[i])
            except BaseException as exc:
                with lock:
                    failures.append(exc)

    count = min(_cpus(), len(blocks)) - 1 if helped else 0
    helpers = [_executor().submit(drain) for _ in range(count)]
    try:
        drain()
    finally:
        for helper in helpers:
            helper.cancel()
        wait(helpers)
    if failures:
        raise failures[0]
    return results


def _pread(fd: int, size: int, offset: int, name) -> bytes:
    blob = os.pread(fd, size, offset)
    if len(blob) != size:
        raise DataError(f"{name}: read {len(blob)} of {size} bytes at offset {offset}")
    return blob


def _pwrite(fd: int, data, offset: int):
    view = memoryview(data).cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


@contextlib.contextmanager
def _atomic_files(paths: list[Path]):
    """Yield a write fd per path, each on a temp file unique to this call.

    On success every temp file is renamed over its path; on any failure
    they are all removed. A temp name starts with a dot and ends in .tmp,
    so the shard glob never matches it; concurrent writers of one path
    never share it.
    """
    tmps = [path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp") for path in paths]
    fds: list[int] = []
    try:
        for tmp, path in zip(tmps, paths):
            try:
                fds.append(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            except OSError as exc:  # name the file the caller asked for
                raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
        yield fds
        while fds:
            os.close(fds.pop())
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise
    finally:
        for fd in fds:
            os.close(fd)


def _write_shards(
    out_dir: Path, headers: list[ShardHeader], task, helped: bool = True
) -> list:
    """Write a shard per header, block by block; ``task(stripes, fds)`` fills
    each block, fds in header order. Returns the tasks' results; ``helped``
    is passed to ``_run_blocks``."""
    paths = [out_dir / shard_filename(header.node_index) for header in headers]
    with _atomic_files(paths) as fds:
        for header, fd in zip(headers, fds):
            _pwrite(fd, header.pack(), 0)
        blocks = _blocks(headers[0])
        return _run_blocks(lambda stripes: task(stripes, fds), blocks, helped)


def _write_row(fd: int, header: ShardHeader, stripes: range, row):
    """Store one node's row of the block's stripes at their shard offset."""
    offset = HEADER_SIZE + stripes.start * header.row_bytes
    _pwrite(fd, _payload_from_row(header, row), offset)


@contextlib.contextmanager
def _open_shards(shard_set: "ShardSet"):
    """{node: read fd} for every shard of the set, closed on exit."""
    with contextlib.ExitStack() as stack:
        yield {
            node: stack.enter_context(open(path, "rb", buffering=0)).fileno()
            for node, (_, path) in shard_set.items()
        }


@contextlib.contextmanager
def _shortfall_noted(shard_set: "ShardSet"):
    """Name the shards the set left out in a shortfall raised inside."""
    try:
        yield
    except (InsufficientDataError, UnsupportedPatternError) as exc:
        raise type(exc)(f"{exc}{shard_set.note()}") from exc


def write_shard(out_dir, header: ShardHeader, payload: bytes) -> Path:
    path = Path(out_dir) / shard_filename(header.node_index)
    with _atomic_files([path]) as (fd,):
        _pwrite(fd, header.pack() + payload, 0)
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


class ShardReader:
    """Cell reader over the stripes ``stripes`` of a shard set.

    ``fds`` maps each node of the set to its open shard file. A node's
    rows are read on its first use, so a repair reads only the shards of
    its read set.
    """

    def __init__(self, shard_set: ShardSet, fds: dict[int, int], stripes: range):
        self._set = shard_set
        self._fds = fds
        self._stripes = stripes
        self._rows: dict[int, np.ndarray] = {}

    def rows(self, node: int) -> np.ndarray:
        """Node's symbols over the block as an (s+1, len(stripes)) view."""
        if node not in self._set:
            raise RepairError(
                f"shard for node {node} is not available{self._set.note()}"
            )
        if node not in self._rows:
            header, path = self._set[node]
            size, count = header.row_bytes, len(self._stripes)
            blob = _pread(
                self._fds[node], count * size, HEADER_SIZE + self._stripes.start * size,
                path,
            )
            arr = np.frombuffer(blob, dtype=header.dtype)
            self._rows[node] = arr.reshape(count, header.s + 1).T
        return self._rows[node]

    def __call__(self, node: int, col: int):
        return self.rows(node)[col - 1]


def _payload_from_row(header: ShardHeader, row) -> bytes:
    return np.stack(row, axis=1).astype(header.dtype, copy=False).tobytes()


def encode_file(params: CodeParams, in_path, out_dir) -> list[Path]:
    """Stripe, encode and write all n shards for a file."""
    if params.family != CodeParams.family:  # the v1 header has no family field
        raise ParameterError(f"shard format v1 cannot store family {params.family!r}")
    out_dir = Path(out_dir)
    with open(in_path, "rb", buffering=0) as src:
        out_dir.mkdir(parents=True, exist_ok=True)  # a missing input makes no dir
        length = os.fstat(src.fileno()).st_size
        ds = params.data_symbols
        stripe_bytes = ds * (params.w // 8)
        sample = ShardHeader(
            design=2 if params.variant is Variant.DESIGN2 else 1,
            n=params.n,
            k=params.k,
            s=params.s,
            kprime=params.kprime,
            w=params.w,
            node_index=1,
            original_length=length,
            stripe_count=-(-length // stripe_bytes),
        )
        headers = [replace(sample, node_index=node) for node in range(1, params.n + 1)]

        def encode_block(stripes: range, fds: list[int]):
            start, size = stripes.start * stripe_bytes, len(stripes) * stripe_bytes
            blob = _pread(src.fileno(), min(size, length - start), start, in_path)
            if len(blob) < size:
                blob += bytes(size - len(blob))  # zero padding of the last stripe
            table = np.frombuffer(blob, dtype=sample.dtype).reshape(len(stripes), ds)
            grid = stripe.encode_stripe(params, list(np.ascontiguousarray(table.T)))
            for header, fd, row in zip(headers, fds, grid.cells):
                _write_row(fd, header, stripes, list(row))

        _write_shards(out_dir, headers, encode_block)
    return [out_dir / shard_filename(header.node_index) for header in headers]


def decode_file(in_dir, out_path) -> int:
    """Rebuild the original file from k shards, or k-1 by the r+1 sweep."""
    shard_set = load_shard_set(in_dir)
    header = next(iter(shard_set.values()))[0]
    params = header.params()
    stripe_bytes = header.symbols_per_stripe * header.symbol_bytes
    length = header.original_length
    with _shortfall_noted(shard_set):
        stripe.require_rows(params, len(shard_set))
        with _open_shards(shard_set) as fds, _atomic_files([Path(out_path)]) as (out,):

            def decode_block(stripes: range):
                reader = ShardReader(shard_set, fds, stripes)
                # decode multiplies every column: one transposing copy per
                # shard beats a strided gather in each multiply
                rows = {
                    node: list(np.ascontiguousarray(reader.rows(node)))
                    for node in shard_set
                }
                data = stripe.decode_from_k(params, rows)
                table = np.stack(data, axis=1).astype(header.dtype, copy=False)
                start = stripes.start * stripe_bytes
                _pwrite(out, table.reshape(-1).view(np.uint8)[: length - start], start)

            _run_blocks(decode_block, _blocks(header))
    return length


def _recover_block(params: CodeParams, shard_set: ShardSet, fds, headers):
    """Block task writing the recovered rows of ``headers``' nodes.

    Every node absent from the set is recovered with them.
    """
    nodes = [header.node_index for header in headers]
    failed = nodes + [node for node in range(1, params.n + 1) if node not in shard_set]

    def recover_block(stripes: range, outs: list[int]):
        reader = ShardReader(shard_set, fds, stripes)
        rows = stripe.recover_nodes(params, failed, reader)
        for header, out in zip(headers, outs):
            _write_row(out, header, stripes, rows[header.node_index])

    return recover_block


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
    header = replace(sample, node_index=node)
    with _open_shards(shard_set) as fds:

        def repair_block(stripes: range, outs: list[int]):
            reader = ShardReader(shard_set, fds, stripes)
            row, report = stripe.repair_node(params, node, reader)
            _write_row(outs[0], header, stripes, row)
            return report

        # a repair block is a few reads and XORs: helper threads would
        # add GIL hand-offs (repair p90 5.6 -> 12 ms on C(14,10,2,0) w=8
        # with 2 CPUs) and no speed, so the caller runs every block
        try:
            report = _write_shards(in_dir, [header], repair_block, helped=False)[0]
        except RepairError:
            with _shortfall_noted(shard_set):
                task = _recover_block(params, shard_set, fds, [header])
                _write_shards(in_dir, [header], task)
            reads = tuple(
                (i, c) for i in sorted(shard_set) for c in range(1, params.s + 2)
            )
            report = RepairReport(node=node, bandwidth=len(reads), reads=reads)
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
    headers = [replace(sample, node_index=node) for node in nodes]
    with _open_shards(shard_set) as fds, _shortfall_noted(shard_set):
        _write_shards(in_dir, headers, _recover_block(params, shard_set, fds, headers))
    return nodes
