"""tools/gen_datasets.py rebuilds every bundled dataset byte for byte."""

from helpers import load_tool
from qcontexts.jsonio import dataset_path


def test_regenerated_datasets_are_byte_identical(tmp_path, monkeypatch):
    tool = load_tool("gen_datasets")
    monkeypatch.setattr(tool, "OUT", tmp_path)
    tool.main()
    bundled = sorted(dataset_path("").glob("*.json"))
    assert len(bundled) == 12
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in bundled]
    for path in bundled:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
