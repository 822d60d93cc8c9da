"""Differential property of the shard path over random codes and files.

For a random valid (n, k, s, k', w) and file, decode with up to as many
shards lost as the code guarantees, recovery of those shards and repair
of one node must each give back the original bytes exactly.
"""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piggyback import CodeParams, analysis, shards


@st.composite
def codes(draw):
    """Valid (n, k, s, k', w) with n < 40: s + 1 <= n, and s + 2 <= h + r,
    that is s <= n - k' - 2, when k' > 0."""
    w = draw(st.sampled_from([8, 16]))
    n = draw(st.integers(2, 39))
    k = draw(st.integers(1, n - 1))
    kprime = draw(st.integers(0, min(k, n - 3))) if n >= 3 else 0
    s = draw(st.integers(1, n - kprime - 2 if kprime else n - 1))
    return CodeParams(n, k, s, kprime, w)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(params=codes(), data=st.data())
def test_shard_path_is_exact_on_random_codes(params, data):
    size = data.draw(st.integers(0, 20_000), label="size")
    lost = data.draw(
        st.lists(st.integers(1, params.n), unique=True, min_size=1,
                 max_size=analysis.fault_tolerance(params)),
        label="lost",
    )
    node = data.draw(st.integers(1, params.n), label="repaired node")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(shards, "CHUNK_BYTES", 4096)  # so files span chunks
        tmp = Path(tmp)
        src, out_dir, out = tmp / "input.bin", tmp / "shards", tmp / "out.bin"
        src.write_bytes(random.Random(seed).randbytes(size))
        paths = shards.encode_file(params, src, out_dir)
        stored = [path.read_bytes() for path in paths]

        for f in lost:
            paths[f - 1].unlink()
        assert shards.decode_file(out_dir, out) == size
        assert out.read_bytes() == src.read_bytes()
        assert shards.recover_shards(out_dir, lost) == sorted(lost)
        assert [path.read_bytes() for path in paths] == stored

        paths[node - 1].unlink()
        shards.repair_shard(out_dir, node)
        assert [path.read_bytes() for path in paths] == stored
