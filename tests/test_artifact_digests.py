"""Every covered CLI artifact is byte-identical to the committed digests.

The digests and the runs that make them live in `tools/artifact_digests.py`;
rerun that tool only in a change that means to move an artifact.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py"
_spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
artifact_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digests)


def test_artifacts_match_recorded_digests(tmp_path, monkeypatch):
    recorded = json.loads(artifact_digests.DIGESTS.read_text())
    here = artifact_digests.platform_info()
    if here != recorded["platform"]:
        pytest.skip(f"digests not compared: they were made on "
                    f"{recorded['platform']}, this platform is {here}")
    monkeypatch.chdir(tmp_path)
    got = artifact_digests.artifact_digests()
    changed = artifact_digests.differing(recorded["digests"], got)
    assert not changed, f"artifacts differ from the recorded digests: {changed}"


def test_tool_prints_the_digests_it_moves(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(artifact_digests, "artifact_digests",
                        lambda: {"a": "1", "b": "2"})
    out = tmp_path / "digests.json"
    out.write_text(json.dumps({"digests": {"a": "1", "b": "0", "c": "3"}}))
    assert artifact_digests.main(["--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["moved: b",
                                                        "moved: c"]
    assert json.loads(out.read_text())["digests"] == {"a": "1", "b": "2"}
