"""The demo scripts print exactly their recorded output.

Each script in ``demos/`` runs in its own interpreter with the package
on its path; its stdout is compared byte for byte with
``tests/golden/<script>.txt``.  After a deliberate change of what a demo
prints, record again with ``python3 demos/<script>.py >
tests/golden/<script>.txt``.
"""

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
