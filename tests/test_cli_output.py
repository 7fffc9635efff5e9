"""The command line prints exactly its recorded output.

``tests/golden/cli/<case>.txt`` holds, for each case below, the exact
stdout of a successful run (the ``wall_time_ms`` value masked) or the
exact stderr of a failing one.  After a deliberate change of what the
command line prints, record again with
``PYTHONPATH=src python3 tests/test_cli_output.py``.

The command line is also run as a real entry point
(``python -m mathieumat.cli``, and the console script's target as its
installed wrapper runs it), and a sequence of in-process ``main``
calls, which share one argument parser, is compared with fresh
processes.  A well-formed command line, every benchmark line among
them, is read without argparse and as argparse reads it, and calls the
command as bound when it runs.  Every ``--json`` report is the bytes
``json.dumps(report, sort_keys=True, indent=2)`` would give; the
writer that prints it is also checked against ``json.dumps`` on
generated documents.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mathieumat
import mathieumat.cli as cli
from mathieumat.cli import COMMANDS, REPROS, TYPE_FLAGS, _json, _read, build_parser, main

from helpers import PAIR_DUAL

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import jobs  # noqa: E402

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
    # argparse's own rejections and help, from the command's parser or the
    # top-level one
    "parse_unrecognized": (["verify", "{trace_zero}", "--type", "left", "extra"], 2),
    "parse_invalid_type": (["verify", "{trace_zero}", "--type", "three"], 2),
    "parse_unknown_command": (["nosuch", "{trace_zero}"], 2),
    "parse_no_arguments": ([], 2),
    "parse_repro_field": (["repro", "cor62-f2", "--field", "3"], 2),
    "parse_verify_help": (["verify", "--help"], 0),
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
    # argparse wraps usage lines to COLUMNS
    return dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def fresh_process(*argv):
    run = subprocess.run([sys.executable, "-m", "mathieumat.cli", *argv],
                         capture_output=True, text=True, env=package_env(),
                         timeout=120, check=False)
    return run.returncode, run.stdout, run.stderr


def test_every_case_has_a_recording():
    assert sorted(CASES) == sorted(g.stem for g in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_prints_its_recording(case, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")     # as recorded
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
counts = [len(built)]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        try:
            cli.main(argv)
        except SystemExit:
            pass
        counts.append(len(built))
print(*counts)
"""


def test_parser_is_built_once_per_process_not_at_import(tmp_path):
    # none at import, none for well-formed lines, one for the first line
    # argparse has to read (a rejection) and no second one after that
    paths = write_spaces(tmp_path)
    calls = [["profile", paths["pair"]], ["repro", "proposition"],
             ["constraints", paths["zero"], "--json"],
             ["profile", paths["pair"], "--field", "3"], ["radical", paths["zero"]],
             ["verify", paths["trace_zero"], "--type", "three"],
             ["profile", paths["pair"], "--fie", "3"]]
    run = subprocess.run([sys.executable, "-c", COUNT_PARSERS, json.dumps(calls)],
                         capture_output=True, text=True, env=package_env(),
                         timeout=120, check=True)
    assert run.stdout.split() == ["0"] * 6 + ["1"] * 2


def argparse_reading(argv):
    """What argparse makes of ``argv`` when it takes every argument;
    None otherwise."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, rest = build_parser().parse_known_args(argv)
        except SystemExit:
            return None
    return None if rest else vars(args)


# Words of well-formed and malformed lines: file-like words, options in
# full, abbreviated and joined with "=", help, and good and bad values.
FILES = ["f.txt", "", "-", "-1", "--"]
FLAGS = ["--field", "--fie", "--field=3", "--json", "--js", "--json=1", "--r", "--r=2",
         "--form", "--fo", "--form=lower", "--type", "--ty", "--type=left", "-h", "--help"]
VALUES = ["3", "3.0", "-2", "Q", "upper", "lower", "middle", *TYPE_FLAGS, *REPROS, "nosuch"]
# each command's pieces of a well-formed line
WELL_FORMED = {
    "idempotents": [["f.txt"], ["--field", "3"], ["--json"], ["--r", "2"], ["--form", "lower"]],
    "verify": [["f.txt"], ["--field", "3"], ["--json"], ["--type", "left"]],
    "repro": [["proposition"], ["--json"]],
}
odd_pieces = st.lists(st.sampled_from(FILES + FLAGS + VALUES).map(lambda word: [word])
                      | st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(list),
                      max_size=2)


def line(command):
    """``command`` and, in any order, some of its well-formed pieces
    and at most two others: a word, or an option and a value."""
    good = WELL_FORMED.get(command, [["f.txt"], ["--field", "3"], ["--json"]])
    return st.tuples(st.lists(st.sampled_from(good), unique_by=tuple), odd_pieces).flatmap(
        lambda parts: st.permutations(parts[0] + parts[1])).map(
        lambda pieces: [command] + [word for piece in pieces for word in piece])


@settings(derandomize=True, deadline=None, max_examples=1500, database=None)
@given(st.sampled_from([*COMMANDS, "bogus"]).flatmap(line))
def test_a_line_read_directly_is_read_as_argparse_reads_it(argv):
    args = _read(argv)
    if args is not None:
        assert vars(args) == argparse_reading(argv)


POOL_ARGVS = sorted({tuple(job["argv"]) + ("--json",) for workload in jobs.WORKLOADS.values()
                     for items in jobs.pool(workload).values() for job in items})


@pytest.mark.parametrize("argv", POOL_ARGVS, ids=" ".join)
def test_every_benchmark_line_is_read_directly(argv):
    args = _read(list(argv))
    assert args is not None and vars(args) == argparse_reading(list(argv))


def test_a_line_calls_the_command_bound_when_it_runs(tmp_path, capsys, monkeypatch):
    # a wrapper installed after import, as the benchmark's tracer does,
    # is the function a well-formed line dispatches to
    calls = []

    def wrap(fn):
        def wrapper(*args):
            calls.append(fn)
            return fn(*args)
        return wrapper

    profile, proposition = cli.cmd_profile, cli.REPROS["proposition"]
    monkeypatch.setattr(cli, "cmd_profile", wrap(profile))
    monkeypatch.setitem(cli.REPROS, "proposition", wrap(proposition))
    monkeypatch.setattr(cli, "build_parser", None)      # never reached
    paths = write_spaces(tmp_path)
    assert in_process(["profile", paths["pair"], "--json"], capsys)[0] == 0
    assert in_process(["repro", "proposition"], capsys)[0] == 0
    assert calls == [profile, proposition]


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
    heavy = ["dataclasses", "inspect", "typing", "ast", "numpy", "argparse", "gettext"]
    run = subprocess.run([sys.executable, "-S", "-c", START_UP,
                          json.dumps(["profile", paths["pair"], "--json"]), *heavy],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
                         timeout=120, check=True)
    assert json.loads(run.stdout) == [0, []]


def test_a_verdict_answered_by_the_trace_loads_no_numpy(tmp_path):
    # claim (A): a subspace of sl_3 over Q is answered off its traces,
    # with no member enumerated
    path = tmp_path / "sl3.txt"
    path.write_text("field Q\nn 3\nbasis\n1 0 0\n0 -1 0\n0 0 0\n\n0 2 5\n0 0 0\n-1 0 0\n")
    run = subprocess.run([sys.executable, "-S", "-c", START_UP,
                          json.dumps(["verify", str(path), "--type", "two", "--json"]), "numpy"],
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


def test_console_script_target_runs():
    # the ``mathieumat`` script that pyproject.toml declares, run as the
    # wrapper an install generates runs it: import the target, exit with
    # its return value
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    module, func = re.search(r'^\[project\.scripts\]\nmathieumat = "([\w.]+):(\w+)"$',
                             pyproject.read_text(encoding="utf-8"), re.M).groups()
    wrapper = "import sys; from %s import %s; sys.exit(%s())" % (module, func, func)

    def script(*argv):
        return subprocess.run([sys.executable, "-c", wrapper, *argv], capture_output=True,
                              text=True, env=package_env(), timeout=120, check=False)

    run = script("repro", "counterexample", "--json")
    assert run.returncode == 0 and run.stderr == ""
    assert json.loads(run.stdout)["payload"]["match"] is True
    run = script("no-such-command")
    assert run.returncode == 2 and run.stdout == ""


# Every command once over a space of its own field and, except the two
# that enumerate (the rationals are not enumerable), once over Q; verify
# over Q once, on the trace-zero space that claim (A) answers.
JSON_RUNS = [
    ["constraints", "{moves}"],
    ["profile", "{moves}"],
    ["normalize", "{moves}"],
    ["idempotents", "{lower_free}", "--r", "1", "--form", "lower"],
    ["verify", "{trace_zero}", "--type", "left"],
    ["verify", "{lower_free}", "--type", "two"],
    ["radical", "{lower_free}"],
    ["maxideal", "{lower_free}"],
    ["main2", "{pair_dual}"],
]
JSON_RUNS += [argv + ["--field", "Q"] for argv in JSON_RUNS
              if argv[0] not in ("verify", "radical")]
JSON_RUNS += [["verify", "{trace_zero}", "--type", "left", "--field", "Q"]]
JSON_RUNS += [["repro", name] for name in
              ("counterexample", "proposition", "codim1-zhao", "cor62-f2")]


@pytest.mark.parametrize("argv", JSON_RUNS, ids=" ".join)
def test_json_report_is_what_json_dumps_writes(argv, tmp_path, capsys):
    rc, out, err = in_process(expand(argv, write_spaces(tmp_path)) + ["--json"], capsys)
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert ("Q" in argv) == (report["payload"].get("field") == "Q")
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


# Report-shaped documents: non-ASCII and control characters in keys and
# strings, empty containers, flat int lists mixed with bools, big ints.
json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(-10**300, 10**300)
                | st.floats(allow_nan=False, allow_infinity=False) | st.text())
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5) | st.lists(st.integers(), max_size=5)
    | st.lists(st.text(), max_size=5)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(json_documents)
def test_writer_matches_json_dumps(document):
    assert _json(document) == json.dumps(document, sort_keys=True, indent=2)


def test_writer_refuses_what_a_report_never_holds():
    for value in [float("nan"), float("inf"), (1, 2), {1: 2}, b"x"]:
        with pytest.raises(TypeError):
            _json({"payload": [value]})


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
