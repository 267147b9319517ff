"""tools/gen_datasets.py rebuilds every bundled dataset byte for byte."""

import importlib.util
from pathlib import Path

from qcontexts.jsonio import dataset_path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "gen_datasets.py"


def test_regenerated_datasets_are_byte_identical(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("gen_datasets", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "OUT", tmp_path)
    tool.main()
    bundled = sorted(dataset_path("").glob("*.json"))
    assert len(bundled) == 12
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in bundled]
    for path in bundled:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
