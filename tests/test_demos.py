import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # -X dev -W error: a warning, or a file left open, fails the demo as it fails the tests
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_readme_quick_start_runs_and_dissipates_energy():
    """The README's python block is the first code a user copies; it must run
    as printed and its free energy must never increase."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    energy = scope["report"].energy
    assert energy.size > 1
    assert np.all(np.diff(energy) <= 0)
