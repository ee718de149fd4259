"""The CLI outputs of tools/snapshot_outputs.py against the committed manifest.

tests/golden/outputs.json records the 61 files of the snapshot, each with
its byte size, its sha256 and a short digest of each line.  The test runs
the snapshot's commands through `pklap.cli.main` in this process and lists
every file that moved, with its first differing line, so an output change
shows here, not only in a manual `diff -r` of two snapshots.  A change that
moves an output on purpose rewrites the manifest with
`python tools/snapshot_outputs.py --manifest` and names the moved files.

The bits of the outputs depend on the Python and numpy builds, so the test
skips, naming both sets of versions, where they differ from the manifest's.
"""

import contextlib
import importlib.util
import io
import json
import pathlib

import pytest

import pklap.cli as cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "snapshot_outputs.py"
MANIFEST = ROOT / "tests" / "golden" / "outputs.json"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("snapshot_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_manifest_lists_the_61_snapshot_files():
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert len(expected["files"]) == 61
    for entry in expected["files"].values():
        assert len(entry["sha256"]) == 64 and len(entry["lines"].split()) >= 1


def test_outputs_match_the_golden_manifest(tool, tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    made_with = {key: expected[key] for key in ("python", "numpy")}
    if made_with != tool.versions():
        pytest.skip(f"manifest made with {made_with}, this run has {tool.versions()}")
    outdir, cfgdir = tmp_path / "out", tmp_path / "cfg"
    outdir.mkdir()
    cfgdir.mkdir()
    failed = []
    for cmd in tool._commands(str(outdir), str(cfgdir)):
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(cmd) != cli.EXIT_OK:
                failed.append(" ".join(cmd))
    assert failed == []
    moved = tool.moved_files(expected, str(outdir))
    assert not moved, "outputs moved from tests/golden/outputs.json:\n" + "\n".join(moved)
