"""The demos run cleanly, and the fixture generator reproduces fixtures/.

Demos call the public API the way a reader would, so a renamed or deleted
name, or a changed output path, shows up here first.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import pytest

from conftest import FIXTURE_DIR, REPO

DEMO_DIR = os.path.join(REPO, "demos")
DEMOS = sorted(f[:-3] for f in os.listdir(DEMO_DIR)
               if f.endswith(".py") and f != "regenerate_fixtures.py")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"demo_{name}", os.path.join(DEMO_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", DEMOS)
def test_demo_main_succeeds(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)          # a demo may write report files
    assert _load(name).main() == 0
    assert capsys.readouterr().out


def test_regenerated_fixtures_are_byte_identical(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO, "src"), env.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, os.path.join(DEMO_DIR, "regenerate_fixtures.py"),
         "--out-dir", str(tmp_path), "--workers", "2"],
        cwd=REPO, env=env, check=True, capture_output=True)
    for name in ("density_goldens.json", "lemma_constants.json"):
        with open(os.path.join(FIXTURE_DIR, name), "rb") as want, \
                open(tmp_path / name, "rb") as got:
            assert got.read() == want.read(), name
