"""Each certificate condition is decided once, on values the caller holds.

The check-first ``idempotent_family``, the scalar-line comparison of
``rct_zero_is_scalar`` and the counterexample repro's one conjugate per
conjugator live on here as references; call counts pin that
no certificate repeats a conjugation, a constraint space, a zero-corner
space or a maximal left ideal it already has, and that a witness's
powers are followed once.
"""

import importlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieumat.errors import HypothesisFailed, NotLeftIdealError, SingularMatrixError
from mathieumat.idempotents import LOWER, UPPER, _minor_trace, idempotent_family
from mathieumat.linalg import DenseMatrix, Field
from mathieumat.matspace import MatrixSubspace, constraint_space, conjugate, rct_zero_members
from mathieumat.normalize import rct_certificate, rct_zero_is_scalar
from mathieumat.verify import left_ideal_normal_form

from helpers import PAIR_DUAL, all_matrices, solve_affine

F2, F3, F5, QQ = Field.prime(2), Field.prime(3), Field.prime(5), Field.rationals()
# the package re-exports functions named like some of its modules
MODULES = [importlib.import_module("mathieumat." + name) for name in (
    "linalg", "multipoly", "matspace", "normalize", "idempotents", "verify", "cli")]
linalg, multipoly, matspace, normalize, idempotents, verify, cli = MODULES


# --- references --------------------------------------------------------------

def reference_idempotent_family(space, r, form=UPPER):
    """Check every zero-corner constraint's minor trace first, then solve."""
    f, n = space.field, space.n
    constraints = constraint_space(space)
    for z in rct_zero_members(constraints, r).basis_matrices:
        if _minor_trace(z, r, form) != f.zero:
            raise HypothesisFailed(
                "a zero-corner constraint has nonzero %s minor trace" % form,
                witness=z)
    rows = [[c.entries[s][r + a] for a in range(n - r) for s in range(r)]
            for c in constraints.basis_matrices]
    rhs = [f.neg(_minor_trace(c, r, form)) for c in constraints.basis_matrices]
    sol = solve_affine(DenseMatrix(f, rows, cols=(n - r) * r), rhs)
    if sol is None:
        raise AssertionError("solvable by construction once the hypothesis holds")
    block, directions = sol
    entries = [[f.zero] * n for _ in range(n)]
    for i in (range(r) if form == UPPER else range(r, n)):
        entries[i][i] = f.one
    for a in range(n - r):
        for s in range(r):
            entries[r + a][s] = block[a * r + s]
    return DenseMatrix(f, entries), directions


def reference_rct_zero_is_scalar(space, r):
    """Compare the zero-corner members with the scalar line itself."""
    f, n = space.field, space.n
    scalars = MatrixSubspace.from_matrices(f, n, [DenseMatrix.identity(f, n)])
    return rct_zero_members(space.adjoin_identity(), r) == scalars


def count_calls(monkeypatch, name, defined_in):
    """Count the calls of ``defined_in.name`` through every package module
    that binds it."""
    original = getattr(defined_in, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in MODULES:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


# --- differential tests ------------------------------------------------------

def _scalars(field):
    if field.p:
        return st.integers(0, field.p - 1)
    return st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def spaces_with_block(draw):
    """Spans of a few generators, with entries outside a random support
    zeroed so that zero-corner members occur, or their constraint spaces;
    with a block size and a form."""
    field = draw(st.sampled_from((F2, F3, F5, QQ)))
    n = draw(st.integers(2, 4))
    support = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    gens = draw(st.lists(st.lists(_scalars(field), min_size=n * n, max_size=n * n),
                         max_size=n + 1))
    space = MatrixSubspace.from_matrices(field, n, [
        [[g[i * n + j] if support[i * n + j] else 0 for j in range(n)] for i in range(n)]
        for g in gens])
    if draw(st.booleans()):
        space = constraint_space(space)
    return space, draw(st.integers(1, n - 1)), draw(st.sampled_from((UPPER, LOWER)))


@settings(derandomize=True, deadline=None, max_examples=250, database=None)
@given(spaces_with_block())
def test_idempotent_family_matches_check_first_reference(case):
    space, r, form = case
    try:
        expected = reference_idempotent_family(space, r, form)
    except HypothesisFailed as exc:
        with pytest.raises(HypothesisFailed) as got:
            idempotent_family(space, r, form)
        assert str(got.value) == str(exc)
        assert got.value.witness == exc.witness
        return
    fam = idempotent_family(space, r, form)
    assert (fam.particular, fam.directions) == expected


@settings(derandomize=True, deadline=None, max_examples=250, database=None)
@given(spaces_with_block())
def test_rct_zero_is_scalar_matches_scalar_line_reference(case):
    space, r, _ = case
    for s in (space, constraint_space(space)):
        assert rct_zero_is_scalar(s, r) == reference_rct_zero_is_scalar(s, r)


def reference_scalar_corners(space):
    """``cli._scalar_corners`` by definition: one conjugate per t."""
    f, n = space.field, space.n
    conjugators = successes = 0
    for t in all_matrices(f, n, n):
        try:
            moved = conjugate(space, t)
        except SingularMatrixError:
            continue
        conjugators += 1
        successes += sum(rct_zero_members(moved, r).dim == 1 for r in range(1, n))
    return conjugators, successes


def test_scalar_corners_match_one_conjugate_per_conjugator():
    # the repro's own pair has no success, so its payload cannot tell a
    # wrong column span (the first columns) or a wrong multiplicity per
    # span from the right one; over F_5 every space here has successes
    rng = random.Random(31)
    successful = 0
    for f, n, gens in [(F2, 3, 2)] * 6 + [(F2, 3, 1)] * 2 + [(F3, 2, 1)] * 6 + [(F5, 2, 1)] * 4:
        space = MatrixSubspace.from_matrices(f, n, [
            DenseMatrix(f, [[rng.randrange(f.p) for _ in range(n)] for _ in range(n)])
            for _ in range(gens)]).adjoin_identity()
        expected = reference_scalar_corners(space)
        assert cli._scalar_corners(space) == expected
        successful += expected[1] > 0
        assert f != F5 or expected[1] > 0
    assert successful >= 7


# --- call counts -------------------------------------------------------------

def test_rct_certificate_conjugates_once_per_move(monkeypatch):
    # one inversion per logged move and one for normalize's postcondition;
    # the conclusion is read off the normalized space itself
    rng = random.Random(97)
    certified = 0
    for field in (F5, QQ):
        for _ in range(10):
            n = rng.choice((3, 4))
            s = MatrixSubspace.from_matrices(field, n, [
                DenseMatrix(field, [[rng.choice((0, 0, 1, 2, -1)) for _ in range(n)]
                                    for _ in range(n)])
                for _ in range(rng.randrange(1, n))])
            if not s.dim or s.contains_identity():
                continue
            log = normalize.normalize(s.adjoin_identity()).log
            calls = count_calls(monkeypatch, "invert", linalg)
            cert = rct_certificate(constraint_space(s))
            monkeypatch.undo()
            assert len(calls) == 1 + len(log)
            assert rct_zero_is_scalar(conjugate(s, cert.t), cert.r)
            certified += 1
    assert certified >= 12


def test_main2_builds_the_constraint_space_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "dual.txt"
    path.write_text(PAIR_DUAL)
    calls = count_calls(monkeypatch, "constraint_space", matspace)
    assert cli.main(["main2", str(path), "--json"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["payload"]["conclusion_holds"] is True


def test_repro_counterexample_inverts_each_conjugate_once(monkeypatch, capsys):
    # the column spans come from ``all_subspaces``, not from eliminating
    # the columns of 512 candidates: the 14 conjugates, one per block size
    # and span, each invert their t and eliminate twice (the conjugate and
    # its zero corner), and building the adjoined pair takes 3 more
    calls = count_calls(monkeypatch, "invert", linalg)
    eliminations = count_calls(monkeypatch, "_eliminate", linalg)
    assert cli.main(["repro", "counterexample", "--json"]) == 0
    assert len(calls) == 14
    assert len(eliminations) == 45
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["conjugators"] == 168 and payload["successes"] == 0


def column_kill(field, n, k, t):
    """t^-1 {A : A kills the last n - k coordinates} t."""
    return conjugate(MatrixSubspace.from_matrices(field, n, [
        DenseMatrix.unit(field, n, n, u, v) for u in range(n) for v in range(k)]), t)


def test_full_space_certificate_builds_the_constraint_space_once(monkeypatch):
    # both idempotent forms are solved on the constraints it already has
    calls = count_calls(monkeypatch, "constraint_space", matspace)
    cert = idempotents.full_space_certificate(MatrixSubspace.full_space(F5, 3), 2)
    assert len(calls) == 1
    assert cert.e.mul(cert.e) == cert.e and cert.e_prime.mul(cert.e_prime) == cert.e_prime


def test_left_ideal_normal_form_inverts_its_conjugator_once(monkeypatch):
    # t^-1 serves both the column-kill postcondition and t D t^-1
    t = DenseMatrix(F5, [[1, 2, 0], [0, 1, 3], [0, 0, 1]])
    ideal = column_kill(F5, 3, 2, t)
    calls = count_calls(monkeypatch, "invert", linalg)
    nf = left_ideal_normal_form(ideal)
    assert len(calls) == 1
    assert nf.k == 2 and ideal.contains(nf.idempotent)
    assert nf.idempotent.mul(nf.idempotent) == nf.idempotent


def test_left_ideal_tests_build_no_maximal_left_ideal(monkeypatch):
    def refuse(space):
        raise AssertionError("max_left_ideal called")

    monkeypatch.setattr(verify, "max_left_ideal", refuse)
    for field in (F2, F3, QQ):
        for n in range(1, 5):
            # unipotent upper triangular: invertible over every field
            t = DenseMatrix(field, [[1 if i == j else (i + 2 * j) % 3 * (i < j)
                                     for j in range(n)] for i in range(n)])
            eye = MatrixSubspace.from_matrices(field, n, [DenseMatrix.identity(field, n)])
            for k in range(n + 1):
                ideal = column_kill(field, n, k, t)
                assert left_ideal_normal_form(ideal).k == k
                if 0 < k < n:
                    padded = ideal.sum(eye)
                    with pytest.raises(NotLeftIdealError):
                        left_ideal_normal_form(padded)


def test_rct_certificate_adjoins_the_identity_once(monkeypatch):
    # the normalized space holds I already; only the constraints get it adjoined
    original = MatrixSubspace.adjoin_identity
    calls = []

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(MatrixSubspace, "adjoin_identity", counting)
    cert = rct_certificate(constraint_space(cli.running_pair_space(F3)))
    assert len(calls) == 1
    assert cert.r == 2


def test_full_space_certificate_failure_reads_the_zero_corner_once(monkeypatch):
    # constraints <E_11>: I + <E_11> has the non-scalar zero-corner member E_11
    e11 = DenseMatrix.unit(F3, 2, 2, 0, 0)
    space = constraint_space(MatrixSubspace.from_matrices(F3, 2, [e11]))
    calls = count_calls(monkeypatch, "rct_zero_members", matspace)
    with pytest.raises(HypothesisFailed) as got:
        idempotents.full_space_certificate(space, 1)
    assert len(calls) == 1
    assert got.value.witness.entries[0][1] == 0
    assert not MatrixSubspace.from_matrices(
        F3, 2, [DenseMatrix.identity(F3, 2)]).contains(got.value.witness)


def write_trace_zero(tmp_path):
    path = tmp_path / "sl2.txt"
    path.write_text("field 2\nn 2\nbasis\n1 0\n0 1\n\n0 1\n0 0\n\n0 0\n1 0\n")
    return str(path)


def test_failing_cli_verify_follows_the_witness_powers_once(monkeypatch, tmp_path, capsys):
    calls = count_calls(monkeypatch, "power_trajectory", verify)
    assert cli.main(["verify", write_trace_zero(tmp_path), "--type", "left", "--json"]) == 0
    assert len(calls) == 1
    witness = json.loads(capsys.readouterr().out)["payload"]["witness"]
    assert witness["replays"] is True


def test_a_witness_that_does_not_replay_raises(monkeypatch, tmp_path):
    monkeypatch.setattr(verify, "_replays", lambda space, witness, traj: False)
    sl2 = cli._trace_zero(F2, 2)
    for vtype in verify.ALL_TYPES:
        with pytest.raises(AssertionError, match="witness does not replay"):
            verify.verify_mathieu(sl2, vtype)
    with pytest.raises(AssertionError, match="witness does not replay"):
        cli.main(["verify", write_trace_zero(tmp_path), "--type", "two", "--json"])


def count_method_calls(monkeypatch, cls, name):
    original = getattr(cls, name)
    calls = []

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counting)
    return calls


def test_matrix_power_makes_no_identity_product(monkeypatch):
    a = DenseMatrix(F5, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    expected = {k: a.power(k) for k in (1, 2, 4)}
    calls = count_method_calls(monkeypatch, DenseMatrix, "mul")
    for k, muls in ((1, 0), (2, 1), (4, 2)):
        calls.clear()
        assert a.power(k) == expected[k]
        assert len(calls) == muls


def test_trace_chain_report_follows_each_radical_element_once(monkeypatch):
    # sl_2(F_5) is identity-free with 5 > n: a^n and the nilpotency bound
    # are both read off each radical element's one trajectory
    trajectories = count_calls(monkeypatch, "power_trajectory", verify)
    powers = count_method_calls(monkeypatch, DenseMatrix, "power")
    report = verify.trace_chain_report(cli._trace_zero(F5, 2))
    assert report == verify.TraceChainReport(
        char_avoids_1_to_n=True, char_avoids_1_to_n_minus_1_and_identity_free=True,
        radical_nilpotent=True, two_sided_mathieu=True, nilpotency_bound_ok=True)
    assert len(trajectories) == 25 and powers == []
