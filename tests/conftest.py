"""Fixtures shared by the test modules."""

import os

import pytest

FD_DIR = "/proc/self/fd"
LEAK_GUARDED = {"test_shards.py", "test_cli.py"}


def open_fds() -> dict[str, str]:
    """{fd: what it refers to} for every descriptor this process holds."""
    fds = {}
    for fd in os.listdir(FD_DIR):
        try:
            fds[fd] = os.readlink(f"{FD_DIR}/{fd}")
        except OSError:  # the listing's own descriptor, closed by now
            pass
    return fds


@pytest.fixture(autouse=True)
def no_descriptor_leak(request):
    """Fail a shard or CLI test that leaves a file descriptor open."""
    if request.path.name not in LEAK_GUARDED or not os.path.isdir(FD_DIR):
        yield
        return
    before = open_fds()
    yield
    leaked = {fd: to for fd, to in open_fds().items() if before.get(fd) != to}
    assert not leaked, f"descriptors left open: {leaked}"
