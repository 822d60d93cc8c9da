"""Shard a real file, lose shards, repair and restore it.

Same operations the `piggyback` CLI exposes, driven through the library:
encode a file into 8 shards, delete one, rebuild it reading only the few
cells the repair needs, then restore the original from a shard subset.
"""

import random
import tempfile
from pathlib import Path

from piggyback import CodeParams, shards

with tempfile.TemporaryDirectory(prefix="piggyback_demo_") as tmp:
    workdir = Path(tmp)
    source = workdir / "archive.bin"
    source.write_bytes(random.Random(1).randbytes(256 * 1024))
    print(f"source file: {source} ({source.stat().st_size} bytes)")

    params = CodeParams(n=8, k=6, s=1, kprime=3, w=16)
    shard_dir = workdir / "shards"
    paths = shards.encode_file(params, source, shard_dir)
    total = sum(p.stat().st_size for p in paths)
    print(f"encoded into {len(paths)} shards, {total} bytes total "
          f"(overhead {total / source.stat().st_size:.2f}x)")

    victim = shard_dir / shards.shard_filename(2)
    original = victim.read_bytes()
    victim.unlink()
    print(f"\ndeleted {victim.name}")

    header, report = shards.repair_shard(shard_dir, 2)
    print(f"repaired node 2 reading {report.bandwidth} symbols per stripe "
          f"from {sorted(set(n for n, _ in report.reads))}")
    assert victim.read_bytes() == original
    print("repaired shard is byte-identical to the lost one")

    for node in (1, 7):
        (shard_dir / shards.shard_filename(node)).unlink()
    print("\ndeleted two more shards; decoding from the remaining 6:")
    restored = workdir / "restored.bin"
    shards.decode_file(shard_dir, restored)
    assert restored.read_bytes() == source.read_bytes()
    print(f"restored {restored} byte-identical to the source")
