"""Smoke test of the scripts in demos/: each runs to the end in a cold process.
Also the check that every public name is reached by the ppp command, a demo
or the README.

fisher_calibration.py exercises the chi-square tails of the Fisher bounds,
which bounds.py computes in math code, without scipy.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS  # an empty parametrization below would pass silently


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "Traceback" not in proc.stdout + proc.stderr


def test_every_public_name_is_reached():
    # a public name that no ppp path, demo or README sentence reaches is test-only
    import subuniform

    texts = [(ROOT / "src" / "subuniform" / "cli.py").read_text(),
             (ROOT / "README.md").read_text(), *(demo.read_text() for demo in DEMOS)]
    unreached = [name for name in subuniform.__all__
                 if not any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", text) for text in texts)]
    assert not unreached
