import random
from fractions import Fraction

import pytest

from mathieumat import matspace, multipoly
from mathieumat.cli import running_pair_space
from mathieumat.errors import FieldTooSmallError
from mathieumat.linalg import (
    DenseMatrix,
    Field,
    VectorSubspace,
    invert,
)
from mathieumat.matspace import (
    Filtration,
    MatrixSubspace,
    binary_profile,
    column_space,
    conjugate,
    constraint_space,
    find_generic_vector,
)
from mathieumat.multipoly import generic_rank_of_action

from helpers import (
    all_matrices,
    elements,
    filtration_level,
    is_rct_zero,
    matrix_sum,
    rct,
    trace_zero,
    unit,
    zeros,
)

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
QQ = Field.rationals()


def random_subspace(rng, field, n, dim_range=None):
    lo, hi = dim_range or (0, n * n)
    gens = [DenseMatrix(field, [
        [rng.randrange(field.p) if field.p else rng.randrange(-3, 4)
         for _ in range(n)] for _ in range(n)])
        for _ in range(rng.randrange(lo, hi + 1))]
    return MatrixSubspace.from_matrices(field, n, gens)


def random_invertible(rng, field, n):
    while True:
        t = DenseMatrix(field, [
            [rng.randrange(field.p) if field.p else rng.randrange(-3, 4)
             for _ in range(n)] for _ in range(n)])
        try:
            invert(t)
            return t
        except Exception:
            continue


def test_contains_rejects_a_matrix_of_another_shape():
    scalars = MatrixSubspace.from_matrices(F3, 2, [DenseMatrix.identity(F3, 2)])
    with pytest.raises(ValueError):
        scalars.contains(DenseMatrix(F3, [[1, 0, 0], [1, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError):
        scalars.contains(DenseMatrix(F3, [[1, 0], [0, 1], [0, 0]]))
    assert scalars.contains(DenseMatrix(F3, [[2, 0], [0, 2]]))


def test_contains_rejects_a_matrix_over_another_field():
    scalars = MatrixSubspace.from_matrices(F3, 2, [DenseMatrix.identity(F3, 2)])
    with pytest.raises(ValueError):
        scalars.contains(DenseMatrix(F5, [[4, 0], [0, 4]]))
    with pytest.raises(ValueError):
        scalars.contains(DenseMatrix(QQ, [[1, 0], [0, 1]]))


def test_conjugate_rejects_a_conjugator_over_another_field():
    s = MatrixSubspace.from_matrices(F3, 2, [[[1, 1], [0, 0]]])
    for t in (DenseMatrix(F5, [[1, 4], [0, 1]]), DenseMatrix(QQ, [[1, Fraction(1, 2)], [0, 1]])):
        with pytest.raises(ValueError):
            conjugate(s, t)
    # the same conjugator over F_3 (1/2 = 2): t^-1 [[1,1],[0,0]] t = [[1,0],[0,0]]
    moved = conjugate(s, DenseMatrix(F3, [[1, 2], [0, 1]]))
    assert moved.basis.rows == ((1, 0, 0, 0),)


def test_constraint_space_of_trace_zero():
    h = trace_zero(F5, 2)
    c = constraint_space(h)
    assert c.dim == 1
    assert c.contains(DenseMatrix.identity(F5, 2))


def test_constraint_space_of_full_space():
    assert constraint_space(MatrixSubspace.full_space(F3, 2)).dim == 0


def test_constraint_space_entry_pattern():
    # {M in Mat_3(F_2) : M21 = M22 = M32} has the two-generator dual
    gens = [m for m in all_matrices(F2, 3, 3)
            if m.entries[1][0] == m.entries[1][1] == m.entries[2][1]]
    m7 = MatrixSubspace.from_matrices(F2, 3, gens)
    assert m7.dim == 7
    assert constraint_space(m7) == running_pair_space(F2)


def test_double_duality_and_dimension():
    rng = random.Random(31)
    for field in (F2, F3, QQ):
        for _ in range(15):
            n = rng.randrange(1, 4)
            m = random_subspace(rng, field, n)
            c = constraint_space(m)
            assert m.dim + c.dim == n * n
            assert constraint_space(c) == m
            for cm in c.basis_matrices:
                for mm in m.basis_matrices:
                    assert cm.mul(mm).trace() == field.zero


def test_conjugate_examples():
    v = MatrixSubspace.from_matrices(F3, 2, [unit(F3, 2, 0, 1)])
    assert conjugate(v, DenseMatrix.identity(F3, 2)) == v
    swap = DenseMatrix(F3, [[0, 1], [1, 0]])
    assert conjugate(v, swap) == MatrixSubspace.from_matrices(F3, 2, [unit(F3, 2, 1, 0)])
    scalars = MatrixSubspace.from_matrices(F3, 2, [DenseMatrix.identity(F3, 2)])
    t = DenseMatrix(F3, [[1, 2], [0, 1]])
    assert conjugate(scalars, t) == scalars


def test_conjugate_involution_and_equivariance():
    rng = random.Random(13)
    for field in (F3, F5):
        for _ in range(10):
            n = rng.randrange(2, 4)
            m = random_subspace(rng, field, n)
            t = random_invertible(rng, field, n)
            mc = conjugate(m, t)
            assert conjugate(mc, invert(t)) == m
            # the dual transforms the same way
            assert constraint_space(mc) == conjugate(constraint_space(m), t)


def test_trace_pairing_conjugation_invariant():
    rng = random.Random(17)
    f = F5
    for _ in range(20):
        a = DenseMatrix(f, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        b = DenseMatrix(f, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        t = random_invertible(rng, f, 3)
        ti = invert(t)
        assert a.mul(b).trace() == ti.mul(a).mul(t).mul(ti.mul(b).mul(t)).trace()


def test_filtration_endpoints():
    cn = running_pair_space(F2).adjoin_identity()
    assert filtration_level(cn, 3) == cn
    assert filtration_level(cn, 0) == MatrixSubspace.from_matrices(F2, 3, [])


def test_filtration_nested_chain():
    rng = random.Random(19)
    for _ in range(10):
        cn = random_subspace(rng, F3, 3)
        levels = [filtration_level(cn, k) for k in range(4)]
        for lo, hi in zip(levels, levels[1:]):
            assert matrix_sum(hi, lo) == hi


def test_filtration_level_two_of_running_example():
    cn = running_pair_space(F2).adjoin_identity()
    lvl2 = filtration_level(cn, 2)
    expected = MatrixSubspace.from_matrices(
        F2, 3, [DenseMatrix(F2, [[0, 1, 0], [0, 1, 0], [0, 0, 0]])])
    assert lvl2 == expected


def test_column_space_examples():
    eye = MatrixSubspace.from_matrices(F5, 3, [DenseMatrix.identity(F5, 3)])
    cs = column_space(eye, (1, 0, 0))
    assert cs == VectorSubspace.from_vectors(F5, 3, [(1, 0, 0)])

    cn2 = running_pair_space(F2).adjoin_identity()
    cs3 = column_space(cn2, (0, 0, 1))
    assert cs3 == VectorSubspace.from_vectors(F2, 3, [(0, 1, 0), (0, 0, 1)])

    cn3 = running_pair_space(F3).adjoin_identity()
    assert column_space(cn3, (1, 1, 1)) == VectorSubspace.full(F3, 3)


def test_column_space_rejects_a_vector_of_the_wrong_length():
    space = MatrixSubspace.from_matrices(F5, 2, [[[1, 2], [3, 4]]])
    for v in ([1, 0, 0], [1]):
        with pytest.raises(ValueError):
            column_space(space, v)
    assert column_space(space, [1, 1]).basis == ((1, 4),)      # the line of (3, 2)


def test_binary_profile_scalars_only():
    eye = MatrixSubspace.from_matrices(F5, 3, [DenseMatrix.identity(F5, 3)])
    prof = binary_profile(eye)
    assert prof.B == ((0, 0, 0), (0, 0, 0), (0, 0, 1))
    assert prof.b == (0, 0, 1)
    assert prof.d == (0, 0, 0, 1)


def test_binary_profile_running_example():
    prof = binary_profile(running_pair_space(F2).adjoin_identity())
    assert prof.B == ((0, 1, 0), (0, 1, 1), (0, 0, 1))
    assert prof.b == (0, 2, 2)
    assert prof.col_dims == (0, 1, 2)
    assert prof.d == (0, 0, 1, 3)


def test_binary_profile_zero_space():
    prof = binary_profile(MatrixSubspace.from_matrices(F3, 3, []))
    assert prof.B == ((0,) * 3,) * 3
    assert prof.b == (0, 0, 0)
    assert prof.d == (0, 0, 0, 0)


def test_profile_column_bound_and_unit_span_criterion():
    # b_j >= dim C_j e_j, with equality iff the column space is spanned
    # by standard basis unit vectors
    rng = random.Random(23)
    for _ in range(25):
        cn = random_subspace(rng, F3, 3)
        prof = binary_profile(cn)
        for j in range(1, 4):
            level = filtration_level(cn, j)
            ej = tuple(F3.one if i == j - 1 else F3.zero for i in range(3))
            cs = column_space(level, ej)
            assert prof.b[j - 1] >= cs.dim == prof.col_dims[j - 1]
            unit_spanned = all(
                sum(1 for x in row if x != 0) == 1 for row in cs.basis)
            assert (prof.b[j - 1] == cs.dim) == unit_spanned


def test_profile_specialization_bound_random_vectors():
    rng = random.Random(29)
    cn = running_pair_space(F3).adjoin_identity()
    prof = binary_profile(cn)
    for k in range(4):
        level = filtration_level(cn, k)
        for _ in range(100):
            v = tuple(rng.randrange(3) for _ in range(3))
            assert column_space(level, v).dim <= prof.d[k]


def test_top_generic_dim_conjugation_invariant():
    rng = random.Random(37)
    for _ in range(10):
        cn = random_subspace(rng, F5, 3)
        d_top = generic_rank_of_action(cn)
        t = random_invertible(rng, F5, 3)
        assert generic_rank_of_action(conjugate(cn, t)) == d_top


def test_lower_generic_dims_invariant_under_lower_triangular():
    rng = random.Random(41)
    for _ in range(10):
        cn = random_subspace(rng, F5, 3)
        before = binary_profile(cn).d
        entries = [[0] * 3 for _ in range(3)]
        for i in range(3):
            entries[i][i] = rng.randrange(1, 5)
            for j in range(i):
                entries[i][j] = rng.randrange(5)
        t = DenseMatrix(F5, entries)
        after = binary_profile(conjugate(cn, t)).d
        assert after == before


@pytest.fixture
def bareiss_runs(monkeypatch):
    runs = []
    bareiss = multipoly._bareiss_rank

    def counting(*args):
        runs.append(1)
        return bareiss(*args)

    monkeypatch.setattr(multipoly, "_bareiss_rank", counting)
    return runs


def test_no_bareiss_run_where_the_rank_bounds_meet(bareiss_runs):
    for n in range(1, 5):
        assert binary_profile(MatrixSubspace.full_space(F2, n)).d == (0,) + (n,) * n
    # the columns of E_33 would lift the upper bound at level 2 to 3
    blocks = [unit(F2, 3, i, j) for i in range(2) for j in range(2)] + [unit(F2, 3, 2, 2)]
    assert binary_profile(MatrixSubspace.from_matrices(F2, 3, blocks)).d == (0, 2, 2, 3)
    rng = random.Random(47)
    for n in (5, 6):
        for _ in range(3):
            space = random_subspace(rng, QQ, n, (1, 2 * n))
            assert binary_profile(space).d[n] == min(n, space.dim)
    assert bareiss_runs == []


@pytest.mark.parametrize("space, d", [
    # the rank bounds give 2 against 3 at the top level: rank [C_1|C_2|C_3]
    # is 3, while x^t C x = 0 keeps every C x in a plane
    (MatrixSubspace.from_matrices(QQ, 3, [
        unit(QQ, 3, i, j) - unit(QQ, 3, j, i) for i in range(3) for j in range(i + 1, 3)]),
     (0, 0, 1, 2)),
    # d_3 = 3, but over F_2 no point reaches it
    (running_pair_space(F2).adjoin_identity(), (0, 0, 1, 3)),
])
def test_bareiss_decides_where_the_rank_bounds_differ(space, d, bareiss_runs):
    assert Filtration(space).d == d
    assert len(bareiss_runs) == 1


def test_rank_bounds_eliminate_forward_only(monkeypatch):
    # the bounds read only pivots, so both of their eliminations (the span
    # and each point) take ``first`` at the column count, on both fields
    calls = []
    eliminate = matspace._eliminate

    def recording(field, rows, ncols, first=0):
        calls.append((ncols, first))
        return eliminate(field, rows, ncols, first)

    rng = random.Random(5)
    for field in (F2, F5, QQ):
        space = random_subspace(rng, field, 4, (3, 12))
        fil = Filtration(space)
        want = list(matspace._rank_bounds(field, 4, fil.grids, fil.dims))
        monkeypatch.setattr(matspace, "_eliminate", recording)
        assert list(matspace._rank_bounds(field, 4, fil.grids, fil.dims)) == want
        monkeypatch.undo()
        assert len(calls) == 1 + len(matspace._POINTS)
        assert all(first == ncols for ncols, first in calls)
        calls.clear()


def test_rct_examples():
    eye = DenseMatrix.identity(F3, 3)
    assert rct(eye, 1) == zeros(F3, 1, 2)
    e13 = unit(F3, 3, 0, 2)
    assert rct(e13, 2) == DenseMatrix(F3, [[1], [0]])
    assert is_rct_zero(unit(F3, 3, 1, 0), 1)
    assert not is_rct_zero(e13, 1)
    with pytest.raises(ValueError):
        rct(eye, 3)
    with pytest.raises(ValueError):
        rct(eye, 0)


def test_find_generic_vector_scalar_space():
    eye = MatrixSubspace.from_matrices(F5, 3, [DenseMatrix.identity(F5, 3)])
    v = find_generic_vector(Filtration(eye), 3)
    assert v == (0, 0, 1)
    assert column_space(eye, v).dim == 1


def test_find_generic_vector_pivot_success_at_bound():
    cn = running_pair_space(F3).adjoin_identity()
    v = find_generic_vector(Filtration(cn), 3, require_pivot_one=True)
    assert v[2] == F3.one
    assert column_space(filtration_level(cn, 3), v).dim == 3
    # deterministic output
    assert v == find_generic_vector(Filtration(cn), 3, require_pivot_one=True)
    assert v == (0, 1, 1)


def test_find_generic_vector_field_too_small():
    cn = running_pair_space(F2).adjoin_identity()
    with pytest.raises(FieldTooSmallError) as exc:
        find_generic_vector(Filtration(cn), 3, require_pivot_one=True)
    assert exc.value.needed == 4
    # the scan's own check takes #K >= needed as guaranteed, pivot form or not
    assert str(exc.value) == ("no vector over K attains generic dimension 3 at level 3 "
                              "(guaranteed only for #K >= 4)")


def test_find_generic_vector_trailing_zeros():
    rng = random.Random(43)
    for _ in range(10):
        cn = random_subspace(rng, F5, 3)
        for k in range(4):
            v = find_generic_vector(Filtration(cn), k)
            assert all(x == 0 for x in v[k:])
            level = filtration_level(cn, k)
            assert column_space(level, v).dim == generic_rank_of_action(level)


def test_subspace_elements_enumeration():
    cn = running_pair_space(F2)
    elems = list(elements(cn))
    assert len(elems) == 4
    assert elems[0].is_zero()
    assert all(cn.contains(e) for e in elems)
    zero = MatrixSubspace.from_matrices(F3, 2, [])
    assert [m.is_zero() for m in elements(zero)] == [True]
