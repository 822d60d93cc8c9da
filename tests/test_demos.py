"""The demos run to completion in process and leave nothing behind.

Demo 04 is left out: it writes its CSV files into ``demos/``.
"""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_single_node_repair",
    "02_mds_variant",
    "03_multi_failure_recovery",
    "05_file_sharding",
])
def test_demo_runs(name, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
