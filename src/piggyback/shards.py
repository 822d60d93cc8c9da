"""Shard file format and whole-file encode/decode/repair/recover.

A file is split into stripes of s*k + k' symbols (w/8 bytes each,
little-endian), zero-padded at the tail, and each stripe is encoded into
the n x (s+1) array. Shard f holds row f of every stripe after a fixed
33-byte header. Format v2 lays the stripes out in chunks of
``CHUNK_BYTES`` of file data: within a chunk, each column 1..s+1 of row f
is one contiguous segment, so a repair that needs one column of a helper
reads that column alone. A shard whose size does not match its header is
left out of the set, like an absent one; a v1 shard (each stripe's s+1
symbols side by side) is refused with a request to re-encode.

Piggyback sums and repair read sets never cross a stripe, so the chunk
is also the unit of I/O, of memory and of work: every operation runs chunk
by chunk (``ShardHeader.chunks``). A chunk is one contiguous byte range in
the input file and in the decoded file, and one segment per column in
every shard (``ShardHeader.segments``). A node's s+1 segments of a chunk
are adjacent, so decode and recover ``os.pread`` each surviving shard's
row of the chunk with one call, as one (s+1, count) array, and a repair
preads only the segments of its read set. The stripe engine runs on them
as numpy vectors, and each rebuilt row, one (s+1, count) array too, is
``os.pwrite`` with one call at its first segment into temp files that
replace their targets only when every chunk succeeded. The caller's
thread and one thread of a shared pool per other CPU in the affinity mask
take the chunks in turn, since numpy's gathers and XORs release the GIL;
a repair, which reads little, stays on the caller's thread. Memory grows
with the worker count, not with the file size. Encode builds each chunk's
(n, s+1, count) stripe in place in a buffer that each thread keeps,
reading the input, which must be a regular file, a piece at a time
straight into the data cells. Repair and recover never open the shards
they rebuild, so a broken one cannot stop its own rebuild.
"""

from __future__ import annotations

import contextlib
import functools
import os
import stat
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
VERSION = 2
_HEADER_FMT = "<4sBBHHHHBHQQ"
HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_NODE_AT = struct.calcsize(_HEADER_FMT[:10])  # node_index follows w
CHUNK_BYTES = 1 << 20
"""File data per chunk of the payload: a format constant, since it fixes
where each column segment lies, and the unit of I/O, memory and work of
every shard operation."""


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
        if version == 1:
            raise DataError(
                "shard format version 1 is no longer readable: "
                "re-encode the original file"
            )
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
        need = -(-length // hdr.stripe_bytes)
        if stripes != need:
            raise DataError(
                f"corrupt header: original_length {length} needs {need} stripes, "
                f"header has {stripes}"
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
    def stripe_bytes(self) -> int:
        """File data per stripe."""
        return self.symbols_per_stripe * self.symbol_bytes

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

    def chunks(self) -> list[range]:
        """Stripe ranges of the payload's chunks, of ``CHUNK_BYTES`` of file
        data each but the last; one, maybe empty, at least."""
        step, count = max(1, CHUNK_BYTES // self.stripe_bytes), self.stripe_count
        return [range(a, min(a + step, count)) for a in range(0, count, step)] or [range(0)]

    def segments(self, chunk: range) -> list[tuple[int, int]]:
        """File (offset, size) of each column 1..s+1's segment of ``chunk``,
        one of ``chunks()``: its column 1 for every stripe, then its column
        2, and so on to s+1."""
        size = len(chunk) * self.symbol_bytes
        start = HEADER_SIZE + chunk.start * self.row_bytes
        return [(start + col * size, size) for col in range(self.s + 1)]

    def params(self) -> CodeParams:
        return CodeParams(n=self.n, k=self.k, s=self.s, kprime=self.kprime, w=self.w)


def shard_filename(node: int) -> str:
    return f"shard_{node:04d}.pgb"


_PIECE_BYTES = 1 << 16  # file data per read of an encode chunk

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
            _pool = ThreadPoolExecutor(_cpus() - 1, thread_name_prefix="piggyback-chunk")
        return _pool


def _run_chunks(task, chunks: list[range], helped: bool = True) -> list:
    """``task(stripes)`` for every chunk; results in chunk order.

    The caller's thread takes the chunks one at a time, and when
    ``helped``, up to one pool thread per other CPU joins in. The caller
    never waits for a thread to wake before work starts, a single chunk
    never leaves it, and a busy pool only leaves it more chunks. After a
    failure no chunk starts; the failure is raised once every started
    chunk has finished, so nothing a chunk uses is closed or removed under
    it. Helpers never submit to the pool, so it cannot wait on itself.
    """
    results: list = [None] * len(chunks)
    failures: list[BaseException] = []
    order = iter(range(len(chunks)))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                i = None if failures else next(order, None)
            if i is None:
                return
            try:
                results[i] = task(chunks[i])
            except BaseException as exc:
                with lock:
                    failures.append(exc)

    count = min(_cpus(), len(chunks)) - 1 if helped else 0
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


def _pread(fd: int, out: np.ndarray, offset: int, name):
    """Fill the contiguous array ``out`` from ``offset`` of the file."""
    done = os.preadv(fd, [out], offset)
    if done != out.nbytes:
        raise DataError(f"{name}: read {done} of {out.nbytes} bytes at offset {offset}")


def _pwrite(fd: int, data, offset: int):
    view = memoryview(data)
    # a view with a zero in its shape cannot be cast, and an empty row,
    # (s+1, 0), has a length of s+1: the loop below would never end
    if not view.nbytes:
        return
    view = view.cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


@contextlib.contextmanager
def _named(path: Path):
    """Re-raise an OSError that names a file with ``path``, the file the
    caller asked for, instead of the temp file standing in for it."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            raise
        raise type(exc)(exc.errno, exc.strerror, str(path)) from exc


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
            with _named(path):
                fds.append(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        yield fds
        while fds:
            os.close(fds.pop())
        for tmp, path in zip(tmps, paths):
            with _named(path):
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
    """Write a shard per header, chunk by chunk; ``task(stripes, fds)`` fills
    each chunk, fds in header order. Returns the tasks' results; ``helped``
    is passed to ``_run_chunks``."""
    paths = [out_dir / shard_filename(header.node_index) for header in headers]
    with _atomic_files(paths) as fds:
        for header, fd in zip(headers, fds):
            _pwrite(fd, header.pack(), 0)
        chunks = headers[0].chunks()
        return _run_chunks(lambda stripes: task(stripes, fds), chunks, helped)


def _write_row(fd: int, header: ShardHeader, stripes: range, row):
    """Store one node's row of a chunk with one write: its s+1 column
    segments are adjacent, from the first one on."""
    _pwrite(fd, _payload_from_row(header, row), header.segments(stripes)[0][0])


@contextlib.contextmanager
def _open_shards(shard_set: "ShardSet"):
    """{node: read fd} for every shard of the set, closed on exit."""
    fds: dict[int, int] = {}
    try:
        for node, (_, path) in shard_set.items():
            fds[node] = os.open(path, os.O_RDONLY)
        yield fds
    finally:
        for fd in fds.values():
            os.close(fd)


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


def _set_bytes(blob: bytes) -> bytes:
    """A packed header without its node_index: equal across a set."""
    return blob[:_NODE_AT] + blob[_NODE_AT + 2 : HEADER_SIZE]


def load_shard_set(in_dir, skip=()) -> ShardSet:
    """Headers of all shards present, validated as one consistent set.

    The first header is validated in full; every other one whose bytes,
    but for node_index, equal it shares its fields, and only one that
    differs is unpacked, to name the cause. A shard whose size disagrees
    with its header is left out (``dropped``). The shard files of the
    nodes in ``skip``, those about to be rebuilt, are never opened.
    """
    in_dir = Path(in_dir)
    found = ShardSet()
    reference = None
    skipped = {shard_filename(node) for node in skip}
    try:
        names = sorted(
            name for name in os.listdir(in_dir)
            if name.startswith("shard_") and name.endswith(".pgb")
            and name not in skipped
        )
    except OSError:  # a missing directory holds no shards
        names = []
    for name in names:
        path = in_dir / name
        fd = os.open(path, os.O_RDONLY)
        try:
            blob = os.read(fd, HEADER_SIZE)
            size = os.fstat(fd).st_size
        finally:
            os.close(fd)
        node = int.from_bytes(blob[_NODE_AT : _NODE_AT + 2], "little")
        known = reference is not None and _set_bytes(blob) == same
        if known and 1 <= node <= reference.n:
            header = replace(reference, node_index=node)
        else:
            header = ShardHeader.unpack(blob)
            if reference is None:
                reference, same = header, _set_bytes(blob)
            else:  # other set bytes: the packing is one-to-one, so other fields
                raise DataError(
                    f"inconsistent shard set: {name} disagrees with "
                    f"{shard_filename(reference.node_index)}"
                )
        if node in found or node in found.dropped:
            raise DataError(f"duplicate shard for node {node}")
        expected = HEADER_SIZE + header.payload_bytes
        if size == expected:
            found[node] = (header, path)
        else:
            found.dropped[node] = f"{path.name} left out: {size} B, expected {expected}"
    if skip and not found:
        raise InsufficientDataError(
            f"no surviving shards to rebuild from in {in_dir}{found.note()}"
        )
    if not found:
        raise DataError(f"no shards found in {in_dir}{found.note()}")
    return found


class ShardReader:
    """Reader over one chunk, ``stripes``, of a shard set.

    ``fds`` maps each node of the set to its open shard file. Every call
    is one ``pread``: ``reader(node, col)`` reads one column's segment,
    and ``reader(node)`` the node's whole row, its s+1 adjacent segments.
    Decode and recover read each survivor's row once; repair reads
    through ``ReadTracker``, which asks once per cell, so a repair reads
    exactly its read set: the columns it uses of the shards it uses.
    """

    def __init__(self, shard_set: ShardSet, fds: dict[int, int], stripes: range):
        self._set = shard_set
        self._fds = fds
        # the same in every shard of a set
        self._segments = next(iter(shard_set.values()))[0].segments(stripes)

    def __call__(self, node: int, col: int | None = None) -> np.ndarray:
        """Node's symbols of column ``col`` over the chunk, contiguous; with
        no ``col``, its row as one (s+1, count) array, a column per row."""
        if node not in self._set:
            raise RepairError(f"shard for node {node} is not available{self._set.note()}")
        header, path = self._set[node]
        offset, size = self._segments[0 if col is None else col - 1]
        count = size // header.symbol_bytes
        shape = (len(self._segments), count) if col is None else count
        symbols = np.empty(shape, header.dtype)
        _pread(self._fds[node], symbols, offset, path)
        return symbols


def _payload_from_row(header: ShardHeader, row) -> np.ndarray:
    """A node's row of a chunk as one contiguous (s+1, count) array in the
    shard dtype, a column segment per row: a view of a row that already is
    one, else its s+1 columns stacked once."""
    return np.ascontiguousarray(row, dtype=header.dtype)


def encode_file(params: CodeParams, in_path, out_dir) -> list[Path]:
    """Stripe, encode and write all n shards for a file."""
    if params.family != CodeParams.family:  # the header has no family field
        raise ParameterError(f"shard format v2 cannot store family {params.family!r}")
    out_dir = Path(out_dir)
    with open(in_path, "rb", buffering=0) as src:
        info = os.fstat(src.fileno())
        if not stat.S_ISREG(info.st_mode):  # a pipe has no size to store
            raise ParameterError(f"{in_path}: input is not a regular file")
        out_dir.mkdir(parents=True, exist_ok=True)  # a bad input makes no dir
        length = info.st_size
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

        # each thread keeps one flat buffer and builds each chunk's stripe,
        # an (n, s+1, count) array, in its prefix, reading the file a piece
        # at a time straight into the data cells: no chunk allocates,
        # faults in and frees a chunk-sized array
        buffers = threading.local()
        n, s, k, kp = params.n, params.s, params.k, params.kprime
        piece = max(1, _PIECE_BYTES // stripe_bytes)

        def encode_chunk(stripes: range, fds: list[int]):
            count = len(stripes)
            size = n * (s + 1) * count
            buf = getattr(buffers, "cells", None)
            if buf is None or buf.size < size:
                buf = buffers.cells = np.empty(size, sample.dtype)
            cells = buf[:size].reshape(n, s + 1, count)
            for a in range(0, count, piece):
                rows = np.zeros((min(piece, count - a), ds), sample.dtype)
                flat = rows.reshape(-1).view(np.uint8)
                start = (stripes.start + a) * stripe_bytes
                # past the end of the file, the last stripe stays zero
                _pread(src.fileno(), flat[: length - start], start, in_path)
                # a stripe's data is column 1's k symbols, ..., column s's,
                # then column s+1's k'
                b = a + len(rows)
                cells[:k, :s, a:b] = rows[:, : s * k].reshape(-1, s, k).transpose(2, 1, 0)
                cells[:kp, s, a:b] = rows[:, s * k :].T
            stripe.encode_cells(params, cells)
            for header, fd, row in zip(headers, fds, cells):
                _write_row(fd, header, stripes, row)

        _write_shards(out_dir, headers, encode_chunk)
    return [out_dir / shard_filename(header.node_index) for header in headers]


def decode_file(in_dir, out_path) -> int:
    """Rebuild the original file from k shards, or k-1 by the r+1 sweep."""
    shard_set = load_shard_set(in_dir)
    header = next(iter(shard_set.values()))[0]
    params = header.params()
    stripe_bytes = header.stripe_bytes
    length = header.original_length
    with _shortfall_noted(shard_set):
        stripe.require_rows(params, len(shard_set))
        with _open_shards(shard_set) as fds, _atomic_files([Path(out_path)]) as (out,):

            def decode_chunk(stripes: range):
                reader = ShardReader(shard_set, fds, stripes)
                rows = {node: reader(node) for node in shard_set}
                data = stripe.decode_from_k(params, rows)
                table = np.stack(data, axis=1).astype(header.dtype, copy=False)
                start = stripes.start * stripe_bytes
                _pwrite(out, table.reshape(-1).view(np.uint8)[: length - start], start)

            _run_chunks(decode_chunk, header.chunks())
    return length


def _survivors(in_dir: Path, nodes: list[int]):
    """The shard set without ``nodes``, its code, and a header per node.

    ``nodes`` are the shards to rebuild: they are checked against the code
    before anything is written, and their files are never opened, so a
    broken one cannot stop its own rebuild.
    """
    if not nodes:
        raise ParameterError("no failed nodes given")
    shard_set = load_shard_set(in_dir, skip=nodes)
    sample = next(iter(shard_set.values()))[0]
    params = sample.params()
    for node in nodes:
        if not 1 <= node <= params.n:
            raise ParameterError(f"node {node} out of [1, {params.n}]")
    return shard_set, params, [replace(sample, node_index=node) for node in nodes]


def _recover_chunk(params: CodeParams, shard_set: ShardSet, fds, headers):
    """Chunk task writing the recovered rows of ``headers``' nodes.

    Every node absent from the set is recovered with them.
    """
    nodes = [header.node_index for header in headers]
    failed = nodes + [node for node in range(1, params.n + 1) if node not in shard_set]

    def recover_chunk(stripes: range, outs: list[int]):
        reader = ShardReader(shard_set, fds, stripes)
        rows = stripe.recover_nodes(params, failed, reader)
        for header, out in zip(headers, outs):
            _write_row(out, header, stripes, rows[header.node_index])

    return recover_chunk


def repair_shard(in_dir, node: int) -> tuple[ShardHeader, RepairReport]:
    """Rebuild shard `node` from the surviving shards and rewrite it.

    When a shard of the repair's read set is absent or left out, the node
    is recovered from every present shard instead, as ``recover_shards``
    does; the report then lists every cell of those shards.
    """
    in_dir = Path(in_dir)
    shard_set, params, [header] = _survivors(in_dir, [node])
    with _open_shards(shard_set) as fds:

        def repair_chunk(stripes: range, outs: list[int]):
            reader = ShardReader(shard_set, fds, stripes)
            row, report = stripe.repair_node(params, node, reader)
            _write_row(outs[0], header, stripes, row)
            return report

        # a repair chunk is a few reads and XORs: helper threads would
        # add GIL hand-offs (repair p90 5.6 -> 12 ms on C(14,10,2,0) w=8
        # with 2 CPUs) and no speed, so the caller runs every chunk
        try:
            report = _write_shards(in_dir, [header], repair_chunk, helped=False)[0]
        except RepairError:
            with _shortfall_noted(shard_set):
                task = _recover_chunk(params, shard_set, fds, [header])
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
    shard_set, params, headers = _survivors(in_dir, nodes)
    with _open_shards(shard_set) as fds, _shortfall_noted(shard_set):
        _write_shards(in_dir, headers, _recover_chunk(params, shard_set, fds, headers))
    return nodes
