"""The command line prints exactly its recorded output.

``tests/golden/cli/<case>.txt`` holds, for each case below, the exact
stdout of a successful run (the ``wall_time_ms`` value masked) or the
exact stderr of a failing one.  After a deliberate change of what the
command line prints, record again with
``PYTHONPATH=src python3 tests/test_cli_output.py``.

The command line is also run as a real entry point
(``python -m mathieumat.cli``), and a sequence of in-process ``main``
calls, which share one argument parser, is compared with fresh
processes.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import mathieumat
from mathieumat.cli import main

from helpers import PAIR_DUAL

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli"
SRC = str(pathlib.Path(mathieumat.__file__).resolve().parent.parent)

SPACES = {
    # normalizes with three logged moves over F_5
    "moves": "field 5\nn 3\nbasis\n0 0 0\n1 1 0\n0 1 0\n",
    # diag(1, -1), E12, E21: not left Mathieu over F_2
    "trace_zero": "field 2\nn 2\nbasis\n1 0\n0 -1\n\n0 1\n0 0\n\n0 0\n1 0\n",
    "zero": "field 2\nn 2\nbasis\n",
    "lower_free": "field 3\nn 2\nbasis\n1 0\n0 0\n\n0 0\n1 0\n\n0 0\n0 1\n",
    "pair": "field 2\nn 3\nbasis\n0 1 0\n0 1 0\n0 0 0\n\n0 0 0\n0 1 1\n0 0 0\n\n"
            "1 0 0\n0 1 0\n0 0 1\n",
    "pair_dual": PAIR_DUAL,
}

# case -> (argv with {space} placeholders, exit status); exit 0 records
# stdout, any other status records stderr.
CASES = {
    "normalize_json": (["normalize", "{moves}", "--json"], 0),
    "normalize_text": (["normalize", "{moves}"], 0),
    "verify_left_text": (["verify", "{trace_zero}", "--type", "left"], 0),
    "radical_json": (["radical", "{zero}", "--json"], 0),
    "idempotents_lower_text": (["idempotents", "{lower_free}", "--r", "1",
                                "--form", "lower"], 0),
    "repro_cor62_f2_text": (["repro", "cor62-f2"], 0),
    # the certificate reports its own field bound
    "main2_field_too_small": (["main2", "{pair_dual}", "--field", "2"], 1),
    "idempotents_r_out_of_range": (["idempotents", "{lower_free}", "--r", "0"], 2),
}

WALL_TIME = re.compile(r'("?wall_time_ms"?: )[0-9.eE+-]+')


def mask(stdout):
    return WALL_TIME.sub(r"\1<masked>", stdout)


def write_spaces(directory):
    paths = {}
    for name, text in SPACES.items():
        path = pathlib.Path(directory) / (name + ".txt")
        path.write_text(text)
        paths[name] = str(path)
    return paths


def expand(argv, paths):
    return [a.format(**paths) for a in argv]


def in_process(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:       # argparse rejects the arguments
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def package_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def fresh_process(*argv):
    run = subprocess.run([sys.executable, "-m", "mathieumat.cli", *argv],
                         capture_output=True, text=True, env=package_env(),
                         timeout=120, check=False)
    return run.returncode, run.stdout, run.stderr


def test_every_case_has_a_recording():
    assert sorted(CASES) == sorted(g.stem for g in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_prints_its_recording(case, tmp_path, capsys):
    argv, status = CASES[case]
    rc, out, err = in_process(expand(argv, write_spaces(tmp_path)), capsys)
    assert rc == status
    recorded = (GOLDEN / (case + ".txt")).read_text()
    if status == 0:
        assert (mask(out), err) == (recorded, "")
    else:
        assert (out, err) == ("", recorded)


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys, monkeypatch):
    # each call's output must not depend on the calls before it
    monkeypatch.setenv("COLUMNS", "80")     # argparse wraps usage lines to it
    paths = write_spaces(tmp_path)
    sequence = [
        ["idempotents", "{lower_free}", "--r", "1", "--form", "lower"],
        ["idempotents", "{lower_free}", "--r", "1"],        # back to upper
        ["profile", "{pair}", "--field", "3"],
        ["profile", "{pair}"],                              # the file's field
        ["verify", "{trace_zero}", "--type", "three"],      # argparse rejects
        ["verify", "{trace_zero}", "--type", "left"],
        ["repro", "proposition"],
        ["radical", "{zero}", "--json"],
    ]
    seen = []
    for argv in sequence:
        argv = expand(argv, paths)
        rc, out, err = in_process(argv, capsys)
        fresh_rc, fresh_out, fresh_err = fresh_process(*argv)
        assert (rc, mask(out), err) == (fresh_rc, mask(fresh_out), fresh_err), argv
        seen.append((rc, out))
    assert '"upper"' in seen[1][1] and '"F2"' in seen[3][1] and seen[4][0] == 2


COUNT_PARSERS = """
import argparse, contextlib, io, json, sys
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    init(self, *args, **kwargs)
    if self.prog == "mathieumat":
        built.append(self)
argparse.ArgumentParser.__init__ = counting
import mathieumat.cli as cli
at_import = len(built)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        cli.main(argv)
print(at_import, len(built))
"""


def test_parser_is_built_once_per_process_not_at_import(tmp_path):
    paths = write_spaces(tmp_path)
    calls = [["profile", paths["pair"]], ["repro", "proposition"],
             ["constraints", paths["zero"], "--json"],
             ["profile", paths["pair"], "--field", "3"], ["radical", paths["zero"]]]
    run = subprocess.run([sys.executable, "-c", COUNT_PARSERS, json.dumps(calls)],
                         capture_output=True, text=True, env=package_env(),
                         timeout=120, check=True)
    assert run.stdout.split() == ["0", "1"]


NUMPY_LOADED = """
import contextlib, io, json, sys
loaded, outs = [], []
import mathieumat
loaded.append("numpy" in sys.modules)
import mathieumat.cli as cli
loaded.append("numpy" in sys.modules)
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    loaded.append("numpy" in sys.modules)
    outs.append(out.getvalue())
print(json.dumps([loaded, outs]))
"""


def test_numpy_is_loaded_at_the_first_enumeration(tmp_path, capsys):
    # pytest has imported numpy already, so a fresh interpreter follows
    # sys.modules through the imports and a profile, then a verdict
    paths = write_spaces(tmp_path)
    calls = [["profile", paths["pair"], "--json"],
             ["verify", paths["trace_zero"], "--type", "left", "--json"]]
    run = subprocess.run([sys.executable, "-c", NUMPY_LOADED, json.dumps(calls)],
                         capture_output=True, text=True, env=package_env(),
                         timeout=120, check=True)
    loaded, outs = json.loads(run.stdout)
    assert loaded == [False, False, False, True]
    for argv, out in zip(calls, outs):
        assert mask(out) == mask(in_process(argv, capsys)[1])


START_UP = """
import contextlib, io, json, sys
import mathieumat.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(json.loads(sys.argv[1]))
print(json.dumps([rc, sorted(set(sys.argv[2:]) & set(sys.modules))]))
"""


def test_start_up_and_a_profile_load_no_heavy_module(tmp_path):
    # -S: no site ``.pth`` file loads one of them before the package does
    paths = write_spaces(tmp_path)
    heavy = ["dataclasses", "inspect", "typing", "ast", "numpy"]
    run = subprocess.run([sys.executable, "-S", "-c", START_UP,
                          json.dumps(["profile", paths["pair"], "--json"]), *heavy],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
                         timeout=120, check=True)
    assert json.loads(run.stdout) == [0, []]


def test_entry_point_runs_from_the_command_line(tmp_path):
    rc, out, err = fresh_process("repro", "cor62-f2", "--json")
    assert rc == 0 and err == ""
    assert json.loads(out)["payload"]["match"] is True

    rc, out, err = fresh_process("profile", str(tmp_path / "missing.txt"))
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")

    rc, out, err = fresh_process("--help")
    assert rc == 0 and out.startswith("usage: mathieumat") and err == ""


def record(directory):
    """Write the recording of every case (uses a scratch directory for
    the space files)."""
    paths = write_spaces(directory)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case, (argv, status) in sorted(CASES.items()):
        rc, out, err = fresh_process(*expand(argv, paths))
        if rc != status:
            raise SystemExit("%s: exit %s, expected %s\n%s" % (case, rc, status, err))
        (GOLDEN / (case + ".txt")).write_text(mask(out) if status == 0 else err)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        record(scratch)
