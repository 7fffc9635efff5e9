"""The demo scripts print exactly their recorded output.

Each script in ``demos/`` runs in its own interpreter with the package
on its path; its stdout is compared byte for byte with
``tests/golden/<script>.txt``.  The README's quick start runs too, and
prints what its comments say.  After a deliberate change of what a demo
prints, record again with ``python3 demos/<script>.py >
tests/golden/<script>.txt``.
"""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

import mathieumat

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recording():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_prints_its_recording(demo):
    src = str(pathlib.Path(mathieumat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env,
                         cwd=ROOT, timeout=120, check=False)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / (demo.stem + ".txt")).read_bytes()


def test_readme_quick_start_prints_what_its_comments_state():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    scope = {}
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), scope)
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0] == "(0, 2, 2) (0, 0, 1, 3)"
    assert lines[2] == "True"
    assert scope["m"].dim == 7
