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
    changed = sorted(name for name in got.keys() | recorded["digests"].keys()
                     if got.get(name) != recorded["digests"].get(name))
    assert not changed, f"artifacts differ from the recorded digests: {changed}"
