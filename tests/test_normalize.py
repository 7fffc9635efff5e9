import importlib
import random
import sys

import pytest

from mathieumat import matspace, multipoly
from mathieumat.cli import running_pair_space
from mathieumat.errors import FieldTooSmallError, PreconditionViolated
from mathieumat.linalg import DenseMatrix, Field, invert
from mathieumat.matspace import (
    Filtration,
    MatrixSubspace,
    binary_profile,
    column_space,
    conjugate,
    constraint_space,
)
from mathieumat.multipoly import generic_rank_of_action
from mathieumat.normalize import (
    DOUBLE_PASS,
    SINGLE_PASS,
    NormalizationError,
    move_generic_vector,
    move_permutation,
    move_unit_triangular,
    normalize,
    rct_certificate,
    rct_zero_is_scalar,
)

from helpers import (filtration_level, mul_vector, pencil_condition, random_subspace, record_calls,
                     unit_vector)

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
F7 = Field.prime(7)
QQ = Field.rationals()


def normalizable(rng, field, n, adjoin):
    while True:
        cn = random_subspace(rng, field, n, (0, n - 1))
        cn = cn.adjoin_identity() if adjoin else cn
        if field.size_at_least(generic_rank_of_action(cn)):
            return cn


def test_pencil_condition_examples():
    eye = MatrixSubspace.from_matrices(F3, 3, [DenseMatrix.identity(F3, 3)])
    assert pencil_condition(eye, 2, 2)
    # before normalization the running example fails at (j, k) = (3, 2):
    # the column space at level 3 has dimension 2 but the pencil rank is 3
    cn2 = running_pair_space(F2).adjoin_identity()
    assert not pencil_condition(cn2, 3, 2)
    # after a generic-vector move at the top level it holds for every k
    cn3 = running_pair_space(F3).adjoin_identity()
    moved = conjugate(cn3, move_generic_vector(Filtration(cn3), 3))
    for k in (1, 2, 3):
        assert pencil_condition(moved, 3, k)


def test_move_generic_vector_saturates_level():
    cn3 = running_pair_space(F3).adjoin_identity()
    level = filtration_level(cn3, 3)
    assert column_space(level, unit_vector(F3, 3, 3)).dim == 2
    t = move_generic_vector(Filtration(cn3), 3)
    moved = conjugate(cn3, t)
    assert column_space(filtration_level(moved, 3), unit_vector(F3, 3, 3)).dim == 3
    # identity columns right of k (here k = n, so just invertibility)
    invert(t)


def test_move_generic_vector_noops():
    eye3 = MatrixSubspace.from_matrices(F5, 3, [DenseMatrix.identity(F5, 3)])
    assert move_generic_vector(Filtration(eye3), 3) is None
    # a level whose filtration is zero
    assert move_generic_vector(Filtration(eye3), 1) is None


def test_move_generic_vector_pivot_form_is_identity_outside_column():
    # level 2 is span{E_11 + 2 E_31}: it kills e_2, but its generic
    # dimension there is 1
    s = MatrixSubspace.from_matrices(F3, 3, [
        DenseMatrix(F3, [[1, 0, 0], [0, 0, 0], [2, 0, 0]])]).adjoin_identity()
    fil = Filtration(s)
    assert column_space(filtration_level(s, 2), unit_vector(F3, 3, 2)).dim == 0 and fil.d[2] == 1
    t = move_generic_vector(fil, 2, pivot=True)
    assert t.entries[1][1] == 1
    for j in (0, 2):
        assert t.column(j) == unit_vector(F3, 3, j + 1)
    assert column_space(filtration_level(conjugate(s, t), 2), unit_vector(F3, 3, 2)).dim == 1


def test_a_generic_vector_move_that_misses_raises(monkeypatch):
    # normalize checks the column space of the conjugated space along e_k
    # against the d_k it had before the move; e_k itself cannot attain it
    s = MatrixSubspace.from_matrices(F3, 3, [
        DenseMatrix(F3, [[1, 0, 0], [0, 0, 0], [2, 0, 0]])]).adjoin_identity()
    # the package binds the name "normalize" to the function
    module = importlib.import_module("mathieumat.normalize")
    monkeypatch.setattr(module, "find_generic_vector",
                        lambda fil, k, require_pivot_one=False: unit_vector(F3, 3, k))
    with pytest.raises(NormalizationError, match="missed dimension 2 at level 3"):
        normalize(s)


def test_move_unit_triangular_spans_units():
    # level-3 column space span{e2+e3} becomes span{e2}
    m = DenseMatrix(F5, [[0, 0, 0], [0, 0, 1], [0, 0, 1]])
    s = MatrixSubspace.from_matrices(F5, 3, [m])
    t = move_unit_triangular(Filtration(s), 3)
    out = conjugate(s, t)
    cs = column_space(filtration_level(out, 3), unit_vector(F5, 3, 3))
    assert cs.dim == 1 and cs.member((0, 1, 0))
    # t is lower triangular
    for i in range(3):
        for j in range(i + 1, 3):
            assert t.entries[i][j] == 0
    prof = binary_profile(out)
    assert prof.b[2] == 1


def test_move_unit_triangular_noops():
    eye3 = MatrixSubspace.from_matrices(F5, 3, [DenseMatrix.identity(F5, 3)])
    assert move_unit_triangular(Filtration(eye3), 3) is None
    assert move_unit_triangular(Filtration(MatrixSubspace.from_matrices(F5, 3, [])), 2) is None


def test_move_permutation_sorts_column():
    # column-4 indicator (1,0,1,0): sorted above the diagonal to (1,1,0,0)
    f = F5
    s = MatrixSubspace.from_matrices(f, 4, [
        DenseMatrix.unit(f, 4, 4, 0, 3),
        DenseMatrix.unit(f, 4, 4, 2, 3),
    ])
    t = move_permutation(Filtration(s), 4)
    out = conjugate(s, t)
    cs = column_space(filtration_level(out, 4), unit_vector(f, 4, 4))
    assert cs.member((1, 0, 0, 0)) and cs.member((0, 1, 0, 0))
    prof = binary_profile(out)
    assert [prof.B[i][3] for i in range(4)] == [1, 1, 0, 0]


def test_move_permutation_noops():
    f = F5
    s = MatrixSubspace.from_matrices(f, 4, [
        DenseMatrix.unit(f, 4, 4, 0, 3),
        DenseMatrix.unit(f, 4, 4, 1, 3),
    ])
    assert move_permutation(Filtration(s), 4) is None
    assert move_permutation(Filtration(MatrixSubspace.from_matrices(f, 4, [])), 4) is None


def test_normalize_running_example_over_f3():
    res = normalize(running_pair_space(F3).adjoin_identity())
    prof = res.profile
    assert prof.b[2] == prof.d[3] == 3
    assert prof.rows_increasing()
    assert prof.columns_decreasing_above_diagonal()
    assert res.branch == SINGLE_PASS


def test_normalize_field_too_small_over_f2():
    with pytest.raises(FieldTooSmallError) as exc:
        normalize(running_pair_space(F2).adjoin_identity())
    assert exc.value.needed == 3


def test_normalize_scalars_trivial():
    for field in (F2, F7, QQ):
        res = normalize(MatrixSubspace.from_matrices(
            field, 3, [DenseMatrix.identity(field, 3)]))
        assert res.profile.B == ((0, 0, 0), (0, 0, 0), (0, 0, 1))
        assert res.t_total == DenseMatrix.identity(field, 3)


def test_normalize_double_pass_branch():
    # the top level starts saturated, so the first move is a no-op and
    # d_2 = 2 = #K survives to the branch decision: double pass
    s = MatrixSubspace.from_matrices(F2, 3, [
        DenseMatrix.unit(F2, 3, 3, 0, 0),
        DenseMatrix.unit(F2, 3, 3, 1, 1),
        DenseMatrix.unit(F2, 3, 3, 0, 2),
        DenseMatrix.unit(F2, 3, 3, 1, 2),
    ])
    res = normalize(s)
    assert res.branch == DOUBLE_PASS
    assert res.profile.b == res.profile.col_dims == tuple(res.profile.d[1:])
    assert res.profile.b == (0, 2, 2)


def test_normalize_log_replays():
    rng = random.Random(71)
    for _ in range(10):
        cn = normalizable(rng, F5, 3, adjoin=rng.random() < 0.5)
        res = normalize(cn)
        replay = cn
        for move in res.log:
            assert move.kind in ("generic_vector", "unit_triangular", "permutation")
            replay = conjugate(replay, move.t)
        assert replay == res.c_n_final
        assert res.c_n_final == conjugate(cn, res.t_total)


def test_total_conjugator_is_the_product_of_the_logged_ones(monkeypatch):
    # with one move t_total is that move's t, and the final space is the
    # conjugate the move formed: the input is conjugated by t_total again
    # only when two or more moves compose it
    module = importlib.import_module("mathieumat.normalize")
    calls = record_calls(monkeypatch, "conjugate", module)
    rng = random.Random(101)
    seen = set()
    for _ in range(20):
        n = rng.choice((3, 4))
        cn = normalizable(rng, F5, n, adjoin=rng.random() < 0.5)
        calls.clear()
        res = normalize(cn)
        log = res.log
        assert len(calls) == len(log) + (len(log) >= 2)
        if len(log) == 0:
            assert res.t_total == DenseMatrix.identity(F5, n) and res.c_n_final == cn
        elif len(log) == 1:
            assert res.t_total is log[0].t
        seen.add(min(len(log), 2))
    assert seen == {0, 1, 2}


def test_a_composition_that_misses_raises(monkeypatch):
    # on a two-move normalization the postcondition's conjugate, the third
    # call, decides: another space there fails the composition check
    rng = random.Random(102)
    while True:
        cn = normalizable(rng, F5, 3, adjoin=False)
        if len(normalize(cn).log) == 2:
            break
    module = importlib.import_module("mathieumat.normalize")
    calls = []

    def third_misses(space, t):
        calls.append(t)
        return MatrixSubspace.full_space(F5, 3) if len(calls) == 3 else conjugate(space, t)

    monkeypatch.setattr(module, "conjugate", third_misses)
    with pytest.raises(NormalizationError, match="conjugate of the input by t_total"):
        normalize(cn)
    assert len(calls) == 3


def test_normalize_idempotent_profile():
    rng = random.Random(73)
    for _ in range(8):
        cn = normalizable(rng, F7, 3, adjoin=True)
        first = normalize(cn)
        second = normalize(first.c_n_final)
        assert second.profile == first.profile


def test_normalized_identity_spaces_satisfy_corner_inequalities():
    # with I in the space: B_{kn} >= B_{nk} for every k, and when
    # b_n <= n-1 also b_{n-1} < d_n
    rng = random.Random(79)
    n = 3
    for _ in range(15):
        cn = normalizable(rng, F5, n, adjoin=True)
        prof = normalize(cn).profile
        for k in range(1, n):
            assert prof.B[k - 1][n - 1] >= prof.B[n - 1][k - 1]
        if prof.b[n - 1] <= n - 1:
            assert prof.b[n - 2] < prof.d[n]


def test_normalize_over_rationals():
    s = MatrixSubspace.from_matrices(QQ, 3, [
        DenseMatrix(QQ, [[0, 1, 0], [0, 1, 0], [0, 0, 0]]),
        DenseMatrix(QQ, [[0, 0, 0], [0, 1, 1], [0, 0, 0]]),
    ]).adjoin_identity()
    res = normalize(s)
    assert res.branch == SINGLE_PASS
    assert res.profile.b[2] == 3


def test_one_filtration_per_filtered_space(monkeypatch):
    # binary_profile reads every generic dimension off one Filtration;
    # normalize builds one for the input and one after each logged move,
    # rct_certificate builds nothing besides its normalization, and
    # Bareiss runs at most once per Filtration (only where the rank
    # bounds differ)
    built = record_calls(monkeypatch, "__init__", Filtration)
    runs = record_calls(monkeypatch, "_bareiss_rank", multipoly)
    rng = random.Random(89)
    moves = []
    certified = 0
    for field in (F5, QQ):
        for _ in range(8):
            n = rng.choice((3, 4))
            s = MatrixSubspace.from_matrices(field, n, [
                DenseMatrix(field, [[rng.choice((0, 0, 0, 1, 2, -1)) for _ in range(n)]
                                    for _ in range(n)])
                for _ in range(rng.randrange(1, n))])
            built.clear()
            runs.clear()
            binary_profile(s)
            assert len(built) == 1 and len(runs) <= 1
            built.clear()
            runs.clear()
            result = normalize(s)
            assert len(built) == 1 + len(result.log) and len(runs) <= len(built)
            moves.append(len(result.log))
            if s.dim and not s.contains_identity():
                # s is the constraint space of its own constraint space
                log = normalize(s.adjoin_identity()).log
                built.clear()
                runs.clear()
                rct_certificate(constraint_space(s))
                assert len(built) == 1 + len(log) and len(runs) <= len(built)
                certified += 1
    assert max(moves) >= 2 and certified >= 8


def test_column_spaces_along_unit_vectors_are_read_off_the_filtration(monkeypatch):
    # the profile and the moves read the column space of level k along
    # e_k off ``Filtration.columns``: outside the rank bounds only the
    # generic-vector search multiplies out images (``_images``), so a run
    # without a generic-vector move multiplies out none elsewhere
    calls = []
    images = matspace._images

    def counting(*args):
        caller = sys._getframe(1).f_code.co_name
        if caller != "_rank_bounds":
            calls.append(caller)
        return images(*args)

    monkeypatch.setattr(matspace, "_images", counting)
    rng = random.Random(89)
    searched = unsearched = 0
    for field in (F5, QQ):
        for _ in range(8):
            n = rng.choice((3, 4))
            s = MatrixSubspace.from_matrices(field, n, [
                DenseMatrix(field, [[rng.choice((0, 0, 0, 1, 2, -1)) for _ in range(n)]
                                    for _ in range(n)])
                for _ in range(rng.randrange(1, n))])
            calls.clear()
            binary_profile(s)
            assert calls == []
            result = normalize(s)
            if any(move.kind == "generic_vector" for move in result.log):
                assert calls and set(calls) == {"find_generic_vector"}
                searched += 1
            else:
                assert calls == []
                unsearched += bool(result.log)
    assert searched >= 2 and unsearched >= 8


def test_lower_triangular_column_replacement():
    # t with k-th column zero above the diagonal and identity columns to
    # the right replaces the level-k column space by its t^-1 image
    rng = random.Random(83)
    f = F5
    n, k = 3, 2
    for _ in range(10):
        s = random_subspace(rng, f, n, (0, n - 1))
        entries = [list(row) for row in DenseMatrix.identity(f, n).entries]
        for i in range(k - 1, n):  # in-column and below-diagonal freedom
            entries[i][k - 1] = rng.randrange(1, 5) if i == k - 1 else rng.randrange(5)
        for j in range(k - 1):     # anything invertible on the left block
            for i in range(n):
                entries[i][j] = rng.randrange(5)
        t = DenseMatrix(f, entries)
        try:
            ti = invert(t)
        except Exception:
            continue
        before = column_space(filtration_level(s, k), unit_vector(f, n, k))
        after = column_space(filtration_level(conjugate(s, t), k), unit_vector(f, n, k))
        from mathieumat.linalg import VectorSubspace
        expected = VectorSubspace.from_vectors(
            f, n, [mul_vector(ti, v) for v in before.basis])
        assert after == expected


def test_normalize_total_on_small_universes():
    # every subspace of Mat_2(F_2) and Mat_2(F_3) normalizes (the
    # internal postcondition checks run on each of the 67 + 212 cases)
    from mathieumat.linalg import all_subspaces
    for field in (F2, F3):
        count = 0
        for dim in range(5):
            for basis in all_subspaces(field, 4, dim):
                cn = MatrixSubspace(field, 2, basis)
                assert field.size_at_least(generic_rank_of_action(cn))
                normalize(cn)
                count += 1
        assert count == (67 if field is F2 else 212)


def test_rct_zero_is_scalar_for_zero_space():
    z = MatrixSubspace.from_matrices(F3, 3, [])
    assert rct_zero_is_scalar(z, 1)
    assert rct_zero_is_scalar(z, 2)


def test_rct_certificate_on_running_dual():
    m = constraint_space(running_pair_space(F3))
    cert = rct_certificate(m)
    assert cert.r == 2
    assert rct_zero_is_scalar(conjugate(constraint_space(m), cert.t), cert.r)


def test_rct_certificate_preconditions():
    # the trace-zero space has the scalar line as its constraints
    u = lambda i, j: DenseMatrix.unit(F3, 3, 3, i, j)
    h = MatrixSubspace.from_matrices(F3, 3, [
        u(i, j) for i in range(3) for j in range(3) if i != j
    ] + [u(0, 0) - u(1, 1), u(0, 0) - u(2, 2)])
    assert constraint_space(h).contains_identity()
    with pytest.raises(PreconditionViolated):
        rct_certificate(h)
    # dimension bounds: full space has zero-dimensional constraints
    with pytest.raises(PreconditionViolated):
        rct_certificate(MatrixSubspace.full_space(F3, 2))


def test_rct_certificate_field_too_small():
    with pytest.raises(FieldTooSmallError, match="certificate needs #K >= 3") as exc:
        rct_certificate(constraint_space(running_pair_space(F2)))
    assert exc.value.needed == 3
