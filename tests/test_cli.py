import hashlib
import json
import types
from fractions import Fraction

import pytest

from mathieumat import cli, matspace, spacefile
from mathieumat.cli import _basis_payload, _basis_rows, main, matrix_payload
from mathieumat.errors import SpaceFileError
from mathieumat.linalg import DenseMatrix, Field
from mathieumat.matspace import MatrixSubspace, constraint_space

from helpers import PAIR_DUAL, record_calls

PAIR = """\
# two generators plus a comment
field 2
n 3
name pair
basis
0 1 0
0 1 0
0 0 0

0 0 0
0 1 1
0 0 0
"""

PAIR_WITH_IDENTITY = PAIR + """
1 0 0
0 1 0
0 0 1
"""


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def write(tmp_path, text, name="space.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_loads_reads_the_header_and_the_blocks():
    space = spacefile.loads(PAIR)
    f = Field.prime(2)
    assert space.field == f and space.n == 3 and space.dim == 2
    assert space == MatrixSubspace.from_matrices(f, 3, [
        DenseMatrix(f, [[0, 1, 0], [0, 1, 0], [0, 0, 0]]),
        DenseMatrix(f, [[0, 0, 0], [0, 1, 1], [0, 0, 0]]),
    ])


def test_loads_reports_line_numbers():
    bad = "field 2\nn 3\nbasis\n0 1\n"
    with pytest.raises(SpaceFileError) as exc:
        spacefile.loads(bad)
    assert exc.value.line == 4
    with pytest.raises(SpaceFileError):
        spacefile.loads("n 3\nbasis\n")          # missing field
    with pytest.raises(SpaceFileError):
        spacefile.loads("field 4\nn 2\nbasis\n")  # not a prime
    with pytest.raises(SpaceFileError) as exc:
        spacefile.loads("field 2\nn 2\nwhat ever\nbasis\n")
    assert exc.value.line == 3


def test_loads_reduces_mod_p_and_overrides():
    text = "field 5\nn 2\nbasis\n7 -1\n0 3\n"
    space = spacefile.loads(text)
    assert space.contains(DenseMatrix(space.field, [[2, 4], [0, 3]]))
    space_q = spacefile.loads(text, "Q")
    assert space_q.field == Field.rationals()
    assert space_q.contains(DenseMatrix(space_q.field, [[7, -1], [0, 3]]))


# One malformed file per check of ``loads``, in the order they run, with
# the message and line number each gives: a header error comes before a
# block error, a block error before a bad override.
MALFORMED = [
    ("field 2\nn 2\nwhatever\nbasis\n", None, "expected 'key value'", 3),
    ("field 2\nn 2\ncolour red\nbasis\n", None, "unknown header key 'colour'", 3),
    ("field 2\nn 2\nn 3\nbasis\n", None, "duplicate header key 'n'", 3),
    ("field 2\nn 2\nbasis extra\n", None, "unknown header key 'basis'", 3),
    ("n x\nfoo bar\n", None, "unknown header key 'foo'", 2),
    ("n 2\nbasis\n1 0\n0 1\n", None, "missing 'field' header", None),
    ("field 2\nbasis\n", None, "missing 'n' header", None),
    ("field 4\nn 2\nbasis\n", None, "4 is not prime", None),
    ("field R\nn 2\nbasis\n", None, "field must be a prime or Q, got 'R'", None),
    ("field 0\nn 2\n", None, "characteristic 0 is Field.rationals()", None),
    ("field 2147483659\nn 1\n", None, "prime must be < 2**31, got 2147483659", None),
    ("field R\nn 0\n", None, "field must be a prime or Q, got 'R'", None),
    ("field 2\nn two\n", None, "n must be an integer, got 'two'", None),
    ("field 2\nn 0\n", None, "n must be positive, got 0", None),
    ("field 2\nn 1\nbasis\n1 0\n", None, "expected 1 entries, got 2", 4),
    ("# c\nfield 2\n\nn 2\nbasis\n\n# row\n1 0 0\n", None, "expected 2 entries, got 3", 8),
    ("field 2\nn 2\nbasis\n1 0\n0\n", None, "expected 2 entries, got 1", 5),
    ("field 2\nn 2\nbasis\n1 x\n", None, "entries must be integers", 4),
    ("field 2\nn 2\nbasis\n1 0\n0 1\n1 1\n", None,
     "matrix block has more than 2 rows (separate blocks with a blank line)", 6),
    ("field 2\nn 2\nbasis\n1 0\n0 1\n1 x\n", None, "entries must be integers", 6),
    ("field 2\nn 2\nbasis\n1 0\n# c\n0 1\n1 1\n0 1\n", None,
     "matrix block has more than 2 rows (separate blocks with a blank line)", 7),
    ("field 2\nn 2\nbasis\n1 0\n\n0 1\n", None, "matrix block has 1 rows, expected 2", None),
    ("field 2\nn 2\nbasis\n1 0\n\n0 x\n", None, "entries must be integers", 6),
    ("field 2\nn 2\nbasis\n1 0\n0 1\n", "4", "4 is not prime", None),
    ("field 2\nn 2\nbasis\n1 0\n0 1\n", "R", "field must be a prime or Q, got 'R'", None),
    ("field 2\nn 2\nbasis\n1 0\n0 1\n", "", "field must be a prime or Q, got ''", None),
    ("field 2\nn 2\nbasis\n1 0\n0 1\n", "-3", "-3 is not prime", None),
    ("field 4\nn 2\nbasis\n1 0\n0 1\n", "5", "4 is not prime", None),
    ("field 2\nn 2\nbasis\n1 0\n", "R", "matrix block has 1 rows, expected 2", None),
]


@pytest.mark.parametrize("text, override, message, line", MALFORMED)
def test_malformed_space_files_keep_their_message_and_line(tmp_path, capsys, text, override,
                                                          message, line):
    if line is not None:
        message = "line %d: %s" % (line, message)
    with pytest.raises(SpaceFileError) as exc:
        spacefile.loads(text, override)
    assert (str(exc.value), exc.value.line) == (message, line)
    argv = ["profile", write(tmp_path, text)]
    argv += [] if override is None else ["--field", override]
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


SIGNED = "field 2\nn 2\nbasis\n+3 -0\n-1 -7\n\n0 1\n1 -2\n"

# Well-formed files in the layouts a hand-written file takes, each with
# its field and matrices: the space ``loads`` must read from it.
WELL_FORMED = [
    (PAIR.replace("\n", "\r\n"), None, "2", [
        [[0, 1, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 1], [0, 0, 0]]]),
    ("field 3\r\nn 2\r\nbasis\r\n1 0\r\n0 0\r\n \t \r\n0 0\r\n1 0\r\n", None, "3", [
        [[1, 0], [0, 0]], [[0, 0], [1, 0]]]),
    ("field 5\nn 2\nbasis\n1 2\n3 4\n   \n\t\n0 1\n1 0\n\n", None, "5", [
        [[1, 2], [3, 4]], [[0, 1], [1, 0]]]),
    ("# lead\nfield 5\n# between keys\nn 2\nbasis\n# before\n1 2\n  # inside\n3 4\n"
     "# between\n\n# after the gap\n0 1\n1 0\n# last\n", None, "5", [
        [[1, 2], [3, 4]], [[0, 1], [1, 0]]]),
    ("field 7\nn 1\nbasis\n\n\n3\n\n\n\n-3\n\n \n", None, "7", [[[3]], [[-3]]]),
    ("field Q\nn 2\nbasis\n1 0\n0 1\n\n\n\n", None, "Q", [[[1, 0], [0, 1]]]),
    (SIGNED, None, "2", [[[1, 0], [1, 1]], [[0, 1], [1, 0]]]),
    (SIGNED, "5", "5", [[[3, 0], [4, 3]], [[0, 1], [1, 3]]]),
    (SIGNED, "Q", "Q", [[[3, 0], [-1, -7]], [[0, 1], [1, -2]]]),
]


@pytest.mark.parametrize("text, override, field, mats", WELL_FORMED)
def test_well_formed_space_files_read_as_their_space(tmp_path, capsys, text, override,
                                                     field, mats):
    f = spacefile.parse_field_token(field)
    n = len(mats[0])
    expected = MatrixSubspace.from_matrices(f, n, [DenseMatrix(f, m) for m in mats])
    assert spacefile.loads(text, override) == expected
    path = tmp_path / "space.txt"
    path.write_bytes(text.encode())     # CRLF as written
    argv = ["constraints", str(path), "--json"] + ([] if override is None else
                                                   ["--field", override])
    rc, out, err = run(capsys, *argv)
    payload = json.loads(out)["payload"]
    assert (rc, payload["space_dim"], payload["field"]) == (0, expected.dim, repr(f))


def test_a_byte_order_mark_and_crlf_read_as_the_plain_file(tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_bytes(PAIR.encode())
    windows = tmp_path / "windows.txt"
    raw = b"\xef\xbb\xbf" + PAIR.replace("\n", "\r\n").encode()
    windows.write_bytes(raw)
    reports = []
    for path in (plain, windows):
        rc, out, err = run(capsys, "normalize", str(path), "--json")
        assert (rc, err) == (0, "")
        reports.append(json.loads(out))
    assert reports[0]["payload"] == reports[1]["payload"]
    assert reports[1]["digest"] == hashlib.sha256(raw).hexdigest()


def test_cli_constraints(tmp_path, capsys):
    path = write(tmp_path, PAIR)
    rc, out, err = run(capsys, "constraints", path, "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["payload"]["dim"] == 7
    assert report["payload"]["identity_in_constraints"] is False
    # deterministic payloads across runs
    rc2, out2, _ = run(capsys, "constraints", path, "--json")
    r1, r2 = json.loads(out), json.loads(out2)
    r1.pop("wall_time_ms"), r2.pop("wall_time_ms")
    assert r1 == r2


def test_cli_profile_with_field_override(tmp_path, capsys):
    path = write(tmp_path, PAIR_WITH_IDENTITY)
    rc, out, _ = run(capsys, "profile", path, "--field", "3", "--json")
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["b"] == [0, 2, 2]
    assert payload["d"] == [0, 0, 1, 3]


def test_cli_normalize_success_and_field_too_small(tmp_path, capsys):
    path = write(tmp_path, PAIR_WITH_IDENTITY)
    rc, out, _ = run(capsys, "normalize", path, "--field", "3", "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["payload"]["branch"] in ("single_pass", "double_pass")
    assert report["payload"]["b"][2] == 3
    assert "move_log" in report

    rc, out, err = run(capsys, "normalize", path)
    assert rc == 1
    assert "FieldTooSmall" in err and "3" in err


def test_cli_verify_witness(tmp_path, capsys):
    # diag(1, -1), E12, E21 span the trace-zero space over every field
    trace_zero = "field 2\nn 2\nbasis\n1 0\n0 -1\n\n0 1\n0 0\n\n0 0\n1 0\n"
    path = write(tmp_path, trace_zero)
    rc, out, _ = run(capsys, "verify", path, "--type", "left", "--json")
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["holds"] is False
    assert payload["witness"]["replays"] is True
    assert payload["witness"]["b"] is not None

    rc, out, _ = run(capsys, "verify", path, "--field", "5", "--type", "two", "--json")
    payload = json.loads(out)["payload"]
    assert payload["holds"] is True and payload["witness"] is None


def test_cli_verify_over_q(tmp_path, capsys):
    # claim (A) answers a subspace of sl_2 over Q; the span of I is still
    # refused, as the rationals are not enumerable
    path = write(tmp_path, "field Q\nn 2\nbasis\n1 0\n0 -1\n\n0 1\n0 0\n\n0 0\n1 0\n",
                 "sl2.txt")
    rc, out, _ = run(capsys, "verify", path, "--type", "two", "--json")
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["holds"] is True and payload["witness"] is None

    path = write(tmp_path, "field Q\nn 2\nbasis\n1 0\n0 1\n", "eye.txt")
    rc, out, err = run(capsys, "verify", path, "--type", "two", "--json")
    assert rc == 1 and out == "" and "TooLargeError" in err


def test_cli_idempotents(tmp_path, capsys):
    lower_free = "field 3\nn 2\nbasis\n1 0\n0 0\n\n0 0\n1 0\n\n0 0\n0 1\n"
    path = write(tmp_path, lower_free)
    rc, out, _ = run(capsys, "idempotents", path, "--r", "1", "--form", "upper",
                     "--json")
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["dim"] == 1
    assert payload["particular"] == [[1, 0], [0, 0]]

    # hypothesis failure surfaces as a domain error
    trace_zero = "field 5\nn 2\nbasis\n0 1\n0 0\n\n0 0\n1 0\n\n1 0\n0 4\n"
    path = write(tmp_path, trace_zero, "h.txt")
    rc, out, err = run(capsys, "idempotents", path, "--r", "1")
    assert rc == 1 and "HypothesisFailed" in err


def test_cli_radical(tmp_path, capsys):
    path = write(tmp_path, "field 2\nn 2\nbasis\n")
    rc, out, _ = run(capsys, "radical", path, "--json")
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["count"] == 4
    assert len(payload["elements"]) == 4


def test_cli_radical_builds_no_matrix(tmp_path, capsys, monkeypatch):
    # the report is the radical array's rows: no matrix per element
    from mathieumat import verify

    def refuse(*args):
        raise AssertionError("radical report built a matrix")

    path = write(tmp_path, "field 3\nn 2\nbasis\n1 0\n0 2\n\n0 1\n0 0\n\n0 0\n1 0\n")
    monkeypatch.setattr(verify, "_matrix", refuse)
    monkeypatch.setattr(DenseMatrix, "_trusted", staticmethod(refuse))
    rc, out, _ = run(capsys, "radical", path, "--json")
    assert rc == 0 and json.loads(out)["payload"]["count"] == 9


def test_cli_maxideal(tmp_path, capsys):
    colkill = "field 3\nn 2\nbasis\n1 0\n0 0\n\n0 0\n1 0\n"
    path = write(tmp_path, colkill)
    rc, out, _ = run(capsys, "maxideal", path, "--json")
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["dim"] == 2 and payload["k"] == 1


def test_cli_main2(tmp_path, capsys):
    f = Field.prime(3)
    pair = MatrixSubspace.from_matrices(f, 3, [
        DenseMatrix(f, [[0, 1, 0], [0, 1, 0], [0, 0, 0]]),
        DenseMatrix(f, [[0, 0, 0], [0, 1, 1], [0, 0, 0]]),
    ])
    assert spacefile.loads(PAIR_DUAL) == constraint_space(pair)
    path = write(tmp_path, PAIR_DUAL)
    rc, out, _ = run(capsys, "main2", path, "--json")
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["r"] == 2 and payload["conclusion_holds"] is True

    rc, out, err = run(capsys, "main2", path, "--field", "2")
    assert rc == 1 and "FieldTooSmall" in err


F101, QQ = Field.prime(101), Field.rationals()


@pytest.mark.parametrize("space", [
    MatrixSubspace.from_matrices(Field.prime(2), 3, [[[0, 1, 0], [0, 1, 0], [0, 0, 0]],
                                                     [[1, 0, 1], [0, 1, 1], [1, 0, 0]]]),
    MatrixSubspace.from_matrices(F101, 2, [[[3, -1], [50, 7]], [[0, 2], [-4, 100]]]),
    MatrixSubspace.from_matrices(QQ, 2, [[[3, -1], [Fraction(5, 6), 7]],
                                         [[0, Fraction(-2, 9)], [-4, 12]]]),
    MatrixSubspace.from_matrices(QQ, 3, [[[2, 4, -6], [0, 8, 10], [3, 0, 1]]]),
    MatrixSubspace.from_matrices(QQ, 3, []),
    MatrixSubspace.full_space(QQ, 2),
    MatrixSubspace.full_space(F101, 1),
    MatrixSubspace.from_matrices(QQ, 1, [[[Fraction(-7, 3)]]]),
    MatrixSubspace.from_matrices(Field.prime(2), 1, []),
], ids=repr)
def test_basis_reports_are_read_off_the_integer_rows(space):
    # the same entries, written the same way, as the basis matrices give
    assert _basis_payload(space) == [matrix_payload(m) for m in space.basis_matrices]
    f, n, basis = space.field, space.n, space.basis
    assert _basis_rows(basis) == matrix_payload(DenseMatrix._trusted(f, basis.basis, n * n))
    dual = constraint_space(space)
    assert _basis_payload(dual) == [matrix_payload(m) for m in dual.basis_matrices]


def test_basis_reports_never_build_basis_matrices(tmp_path, capsys, monkeypatch):
    def refuse(space):
        raise AssertionError("basis_matrices read for a report")

    monkeypatch.setattr(MatrixSubspace, "basis_matrices", property(refuse))
    colkill = write(tmp_path, "field 3\nn 2\nbasis\n1 0\n0 0\n\n0 0\n1 0\n", "kill.txt")
    pair = write(tmp_path, PAIR_WITH_IDENTITY)
    for field in ("3", "Q"):
        for argv in (["constraints", pair], ["normalize", pair], ["maxideal", colkill]):
            rc, out, _ = run(capsys, *argv, "--field", field, "--json")
            assert rc == 0 and json.loads(out)["payload"]


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "field 2\nn 2\nbasis\n0 1 0\n")
    rc, out, err = run(capsys, "constraints", path)
    assert rc == 2 and "line 4" in err
    rc, out, err = run(capsys, "constraints", str(tmp_path / "missing.txt"))
    assert rc == 2


def one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("r", ["0", "3", "-1"])
def test_cli_idempotents_block_size_out_of_range(tmp_path, capsys, r):
    path = write(tmp_path, PAIR)
    rc, out, err = run(capsys, "idempotents", path, "--r", r)
    assert rc == 2 and out == "" and one_error_line(err)
    assert "--r %s out of range 1..2" % r in err


def test_cli_directory_is_a_parse_error(tmp_path, capsys):
    rc, out, err = run(capsys, "profile", str(tmp_path))
    assert rc == 2 and out == "" and one_error_line(err)


def test_cli_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes("# caf\xe9\n".encode("latin-1") + PAIR.encode())
    rc, out, err = run(capsys, "profile", str(path))
    assert rc == 2 and out == "" and one_error_line(err)
    assert "utf-8" in err


def test_report_json_roundtrip(tmp_path, capsys):
    path = write(tmp_path, PAIR)
    rc, out, _ = run(capsys, "profile", path, "--json")
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report


@pytest.mark.parametrize("name", ["proposition", "codim1-zhao", "cor62-f2"])
def test_cli_repro_fast_names(name, capsys):
    rc, out, _ = run(capsys, "repro", name, "--json")
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["match"] is True
    assert payload["expected"] == payload["observed"]


def test_cli_repro_counterexample(capsys, monkeypatch):
    # the zero corner of t^-1 S t for block size r depends only on the
    # span of t's last 3 - r columns: 7 lines and 7 planes, 14 ranks for
    # the 168 conjugators, not 336, and not one conjugate
    ranks = record_calls(monkeypatch, "_eliminate", cli)
    conjugates = record_calls(monkeypatch, "conjugate", matspace)
    rc, out, _ = run(capsys, "repro", "counterexample", "--json")
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["match"] is True
    assert payload["conjugators"] == 168 and payload["successes"] == 0
    assert len(ranks) == 14 and conjugates == []


def test_cli_repro_mismatches_report_and_exit_1(capsys, monkeypatch):
    # a repro whose observed outcome differs from the expected one says
    # what it observed, reports ``match: false`` and exits with status 1
    monkeypatch.setattr(cli, "_scalar_corners", lambda space: (168, 5))
    rc, out, _ = run(capsys, "repro", "counterexample", "--json")
    payload = json.loads(out)["payload"]
    assert rc == 1 and payload["match"] is False
    assert payload["observed"] == "5 of 168 conjugators produce a scalar-only corner"
    assert (payload["conjugators"], payload["successes"]) == (168, 5)
    monkeypatch.setattr(cli, "verify_mathieu",
                        lambda space, vtype: types.SimpleNamespace(holds=True))
    rc, out, _ = run(capsys, "repro", "cor62-f2", "--json")
    payload = json.loads(out)["payload"]
    assert rc == 1 and payload["match"] is False
    assert payload["observed"] == "15 of 15 codim-1 subspaces of Mat_2(F_2) are left Mathieu"
    assert (payload["total"], payload["left_mathieu"]) == (15, 15)


# Nonzero maximal left ideals: a column-kill ideal conjugated by T (not a
# permutation; det 1, so T^-1 is integral and the files hold integers),
# alone and plus a matrix outside any ideal.
T = [[1, 2, 3], [1, 3, 3], [2, 5, 7]]
T_INV = [[6, 1, -3], [-1, 1, 0], [-1, -1, 1]]
EXTRA = [[2, -1, 0], [1, 3, -2], [0, 1, 1]]


def int_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def conjugated_column_kill(k):
    units = [[[int((r, c) == (i, j)) for c in range(3)] for r in range(3)]
             for i in range(3) for j in range(k)]
    return [int_mul(int_mul(T_INV, u), T) for u in units]


MAXIDEAL_SPACES = {
    "kill": conjugated_column_kill(2),
    "kill+random": conjugated_column_kill(1) + [EXTRA],
    # rows in span((2, 1, 0)), plus a member outside: over Q the ideal's
    # integer rows have pivot entry 2, reported as the basis rows 1 1/2 0.
    # Recorded before the ideal was laid out from its row space
    "half": [[[2, 1, 0] if r == i else [0, 0, 0] for r in range(3)] for i in range(3)]
            + [[[0, 0, 1], [1, 0, 0], [0, 3, 0]]],
}

# Recorded with the earlier kernel (rref, free vectors, a second elimination).
MAXIDEAL_PAYLOADS = {
    ("kill", "5"): {
        "dim": 6, "k": 2,
        "t": [[1, 0, 1], [0, 1, 0], [0, 0, 3]],
        "idempotent": [[1, 0, 3], [0, 1, 0], [0, 0, 0]],
        "basis": [[[1, 0, 3], [0, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                  [[0, 0, 0], [1, 0, 3], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
                  [[0, 0, 0], [0, 0, 0], [1, 0, 3]], [[0, 0, 0], [0, 0, 0], [0, 1, 0]]]},
    ("kill", "Q"): {
        "dim": 6, "k": 2,
        "t": [["1", "0", "1"], ["0", "1", "0"], ["0", "0", "-1/3"]],
        "idempotent": [["1", "0", "3"], ["0", "1", "0"], ["0", "0", "0"]],
        "basis": [[["1", "0", "3"], ["0", "0", "0"], ["0", "0", "0"]],
                  [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                  [["0", "0", "0"], ["1", "0", "3"], ["0", "0", "0"]],
                  [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
                  [["0", "0", "0"], ["0", "0", "0"], ["1", "0", "3"]],
                  [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]]]},
    ("kill+random", "5"): {
        "dim": 3, "k": 1,
        "t": [[1, 1, 0], [0, 0, 1], [0, 3, 1]],
        "idempotent": [[1, 2, 3], [0, 0, 0], [0, 0, 0]],
        "basis": [[[1, 2, 3], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 2, 3], [0, 0, 0]],
                  [[0, 0, 0], [0, 0, 0], [1, 2, 3]]]},
    ("kill+random", "Q"): {
        "dim": 3, "k": 1,
        "t": [["1", "1", "0"], ["0", "0", "1"], ["0", "-1/3", "-2/3"]],
        "idempotent": [["1", "2", "3"], ["0", "0", "0"], ["0", "0", "0"]],
        "basis": [[["1", "2", "3"], ["0", "0", "0"], ["0", "0", "0"]],
                  [["0", "0", "0"], ["1", "2", "3"], ["0", "0", "0"]],
                  [["0", "0", "0"], ["0", "0", "0"], ["1", "2", "3"]]]},
    ("half", "5"): {
        "dim": 3, "k": 1,
        "t": [[1, 1, 0], [0, 3, 0], [0, 0, 1]],
        "idempotent": [[1, 3, 0], [0, 0, 0], [0, 0, 0]],
        "basis": [[[1, 3, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 3, 0], [0, 0, 0]],
                  [[0, 0, 0], [0, 0, 0], [1, 3, 0]]]},
    ("half", "Q"): {
        "dim": 3, "k": 1,
        "t": [["1", "1", "0"], ["0", "-2", "0"], ["0", "0", "1"]],
        "idempotent": [["1", "1/2", "0"], ["0", "0", "0"], ["0", "0", "0"]],
        "basis": [[["1", "1/2", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                  [["0", "0", "0"], ["1", "1/2", "0"], ["0", "0", "0"]],
                  [["0", "0", "0"], ["0", "0", "0"], ["1", "1/2", "0"]]]},
}


@pytest.mark.parametrize("name, field", sorted(MAXIDEAL_PAYLOADS))
def test_cli_maxideal_payload_of_nonzero_ideals(tmp_path, capsys, name, field):
    assert int_mul(T, T_INV) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    blocks = ["\n".join(" ".join(map(str, row)) for row in m) for m in MAXIDEAL_SPACES[name]]
    path = write(tmp_path, "field 2\nn 3\nbasis\n" + "\n\n".join(blocks) + "\n")
    rc, out, _ = run(capsys, "maxideal", path, "--field", field, "--json")
    assert rc == 0
    expected = dict(MAXIDEAL_PAYLOADS[name, field], field="F5" if field == "5" else "Q", n=3)
    assert json.loads(out)["payload"] == expected
