"""Each demo's stdout, byte for byte against its recorded golden, and the
README's quick start run as written.

Set REFLECTWALK_REGEN_GOLDEN=1 to rewrite the goldens from the current code.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import golden_mismatch

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_all_six_demos_are_pinned():
    assert len(DEMOS) == 6


def run_python(*args):
    """A fresh interpreter that imports the package from src/."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    name = f"demo_{demo.stem}"
    path = GOLDEN / f"{name}.out"
    if os.environ.get("REFLECTWALK_REGEN_GOLDEN"):
        path.write_text(proc.stdout)
    golden = path.read_text()
    assert proc.stdout == golden, golden_mismatch(name, proc.stdout, golden)


def test_readme_quick_start_runs():
    # an API change must not silently break the documented example
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
