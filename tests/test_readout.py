"""Differential tests of the single-elimination readout.

``kernel``, ``constraint_space``, ``VectorSubspace.intersect``,
``members_vanishing_at`` and ``max_left_ideal`` all read their answer
off one RREF; the left-ideal test of ``left_ideal_normal_form`` makes
no elimination: it compares the space with the block layout of its own
first RREF rows.  The references below are the definitional formulations they
replaced: free vectors of an RREF, the kernel of the transposed basis, a
kernel on basis coefficients recombined into members, the kernel of the
system "tr(K E_ij A) = 0 for every constraint K", and a loop over unit
products (``helpers.reference_is_left_ideal``).  Every reference solves
its kernels with ``reference_kernel``, never with the code under test.

The column filtration (``Filtration``: one RREF per space) is compared
with the level-by-level reading it replaced: each level by
``helpers.filtration_level``, its column spaces by ``column_space`` and
its generic dimension by its own ``generic_rank_of_action``, which is
Bareiss alone.  ``Filtration`` reads its generic dimensions off two rank
bounds: evaluation at a point gives only a lower bound, the rank of the
matrices' columns an upper one; where they meet, that is d, and Bareiss
decides the rest.  Both bounds are checked against Bareiss at every level.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mathieumat import linalg, matspace
from mathieumat.cli import main
from mathieumat.errors import FieldTooSmallError, NotLeftIdealError, SingularMatrixError
from mathieumat.linalg import DenseMatrix, Field, VectorSubspace
from mathieumat.matspace import (
    BinaryProfile,
    Filtration,
    MatrixSubspace,
    binary_profile,
    column_space,
    conjugate,
    constraint_space,
    _POINTS,
    _rank_bounds,
    find_generic_vector,
    members_vanishing_at,
)
from mathieumat.multipoly import generic_rank_of_action
from mathieumat.verify import left_ideal_normal_form, max_left_ideal

from helpers import (
    column_kill,
    filtration_level,
    kernel,
    kernel_constraint_space,
    matrix_sum,
    mul_vector,
    neg,
    reference_is_left_ideal,
    rref,
    transpose,
    unit_vector,
    zeros,
)

F2, F3, F5, QQ = Field.prime(2), Field.prime(3), Field.prime(5), Field.rationals()
F7, FBIG = Field.prime(7), Field.prime(2**31 - 1)
FIELDS = (F2, F3, F5, QQ)
# kernels and constraint spaces also over F_(2^31-1), where the products
# of residues in a row update reach 2^62
WIDE_FIELDS = FIELDS + (F7, FBIG)
BIG = 2**31 - 2
KINDS = ("zero", "full", "random", "ideal", "ideal+random")

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


# --- references --------------------------------------------------------------

def reference_kernel(m: DenseMatrix) -> VectorSubspace:
    """One vector per free column of the RREF, then their span."""
    f = m.field
    reduced, rank, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    vectors = []
    for fc in free:
        v = [f.zero] * m.cols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = neg(f, reduced.entries[r][fc])
        vectors.append(v)
    return VectorSubspace.from_vectors(f, m.cols, vectors)


def reference_constraint_space(space: MatrixSubspace) -> MatrixSubspace:
    """tr(C M) = vec(M^T) . vec(C): the kernel of the transposed basis."""
    f, n = space.field, space.n
    rows = [transpose(m).flatten() for m in space.basis_matrices]
    return MatrixSubspace(f, n, reference_kernel(DenseMatrix(f, rows, cols=n * n)))


def reference_intersect(u: VectorSubspace, w: VectorSubspace) -> VectorSubspace:
    """Solve sum a_i u_i = sum b_j w_j for (a, b) and recombine the u_i."""
    f = u.field
    k, l = u.dim, w.dim
    if k == 0 or l == 0:
        return VectorSubspace.from_vectors(f, u.ambient_dim, [])
    system = DenseMatrix(f, [
        [u.basis[i][c] for i in range(k)] + [neg(f, w.basis[j][c]) for j in range(l)]
        for c in range(u.ambient_dim)
    ])
    vectors = []
    for coeff in reference_kernel(system).basis:
        v = [f.zero] * u.ambient_dim
        for i in range(k):
            if coeff[i] != f.zero:
                v = [f.add(x, f.mul(coeff[i], y)) for x, y in zip(v, u.basis[i])]
        vectors.append(v)
    return VectorSubspace.from_vectors(f, u.ambient_dim, vectors)


def reference_members_vanishing_at(space: MatrixSubspace, positions) -> MatrixSubspace:
    """Basis coefficients under which the listed entries vanish, recombined."""
    f, n = space.field, space.n
    mats = space.basis_matrices
    if not mats or not positions:
        return space
    rows = [[m.entries[i][j] for m in mats] for i, j in positions]
    gens = []
    for coeff in reference_kernel(DenseMatrix(f, rows, cols=len(mats))).basis:
        g = zeros(f, n, n)
        for ci, m in zip(coeff, mats):
            if ci:
                g = g + m.scale(ci)
        gens.append(g)
    return MatrixSubspace.from_matrices(f, n, gens)


def reference_max_left_ideal(space: MatrixSubspace) -> MatrixSubspace:
    """All A with tr(K E_ij A) = 0 for every constraint K and unit E_ij."""
    f, n = space.field, space.n
    rows = []
    for kmat in reference_constraint_space(space).basis_matrices:
        for i in range(n):
            for j in range(n):
                # tr(K E_ij A) = sum_t K[t][i] A[j][t]
                row = [f.zero] * (n * n)
                for t in range(n):
                    row[j * n + t] = kmat.entries[t][i]
                rows.append(row)
    return MatrixSubspace(f, n, reference_kernel(DenseMatrix(f, rows, cols=n * n)))


def reference_normal_form_t(ideal: MatrixSubspace) -> DenseMatrix:
    """Columns: e_1, e_2, ... taken greedily while outside the span of the
    common kernel and the columns taken so far, then the kernel basis."""
    f, n = ideal.field, ideal.n
    stacked = [row for m in ideal.basis_matrices for row in m.entries]
    common = reference_kernel(DenseMatrix(f, stacked, cols=n))
    columns, taken = [], common
    for i in range(n):
        e = [f.one if j == i else f.zero for j in range(n)]
        if len(columns) < n - common.dim and not taken.member(e):
            columns.append(e)
            taken = VectorSubspace.from_vectors(f, n, list(taken.basis) + [e])
    columns += list(common.basis)
    return DenseMatrix(f, [[c[i] for c in columns] for i in range(n)])


def normal_form_accepts(space: MatrixSubspace) -> bool:
    """Whether ``left_ideal_normal_form`` takes the space for a left ideal."""
    try:
        left_ideal_normal_form(space)
    except NotLeftIdealError:
        return False
    return True


def reference_profile(space: MatrixSubspace) -> BinaryProfile:
    """B, the column dimensions and d, one level at a time."""
    f, n = space.field, space.n
    levels = [filtration_level(space, k) for k in range(n + 1)]
    B = [[0] * n for _ in range(n)]
    col_dims = []
    for j in range(1, n + 1):
        cs = column_space(levels[j], unit_vector(f, n, j))
        col_dims.append(cs.dim)
        for row in cs.basis:
            for i in range(n):
                if row[i] != f.zero:
                    B[i][j - 1] = 1
    b = tuple(sum(B[i][j] for i in range(n)) for j in range(n))
    return BinaryProfile(n, tuple(map(tuple, B)), b, tuple(col_dims),
                         tuple(generic_rank_of_action(lv) for lv in levels))


def reference_generic_vector(space: MatrixSubspace, k: int, pivot: bool):
    """The first grid vector of S^k x 0 whose level-k column space has
    dimension d_k (S the first d_k + 1 elements), scaled to v_k = 1 in
    the pivot form; None when there is none."""
    f, n = space.field, space.n
    level = filtration_level(space, k)
    dk = generic_rank_of_action(level)
    if dk == 0:
        return tuple(f.one if pivot and i == k - 1 else f.zero for i in range(n))
    for point in itertools.product(f.first_elements(dk + 1), repeat=k):
        if pivot and point[k - 1] == f.zero:
            continue
        v = point + (f.zero,) * (n - k)
        if column_space(level, v).dim == dk:
            if pivot:
                v = tuple(f.mul(x, f.inv(point[k - 1])) for x in v)
            return v
    return None


# --- inputs ------------------------------------------------------------------

def scalars(field):
    if field.p:
        return st.integers(0, field.p - 1)
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def matrices(field, n):
    return st.lists(st.lists(scalars(field), min_size=n, max_size=n),
                    min_size=n, max_size=n).map(lambda rows: DenseMatrix(field, rows))


@st.composite
def matrix_spaces(draw, field, n):
    """Zero and full spaces, random spans, left ideals (the span of all
    E_ij M for M with a kernel: a matrix with its last column zeroed,
    times any T), and such ideals plus a few random matrices."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "zero":
        return MatrixSubspace.from_matrices(field, n, [])
    if kind == "full":
        return MatrixSubspace.full_space(field, n)
    gens = draw(st.lists(matrices(field, n), max_size=n * n))
    if kind.startswith("ideal"):
        t = draw(matrices(field, n))
        singular = [DenseMatrix(field, [row[:-1] + (field.zero,) for row in m.entries]).mul(t)
                    for m in gens[:2]]
        extra = gens[2:2 + n] if kind == "ideal+random" else []
        gens = [DenseMatrix.unit(field, n, n, i, j).mul(m)
                for m in singular for i in range(n) for j in range(n)] + extra
    return MatrixSubspace.from_matrices(field, n, gens)


@st.composite
def fields_and_sizes(draw, fields=FIELDS):
    return draw(st.sampled_from(fields)), draw(st.integers(1, 4))


@st.composite
def spaces(draw, fields=FIELDS):
    field, n = draw(fields_and_sizes(fields))
    return draw(matrix_spaces(field, n))


@st.composite
def space_pairs(draw):
    field, n = draw(fields_and_sizes())
    return draw(matrix_spaces(field, n)), draw(matrix_spaces(field, n))


@st.composite
def spaces_with_positions(draw):
    field, n = draw(fields_and_sizes())
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return draw(matrix_spaces(field, n)), draw(st.lists(cells, max_size=n * n + 1))


def column_kill_and_identity(field, n, k):
    """Not a left ideal for k < n; its maximal left ideal is column_kill."""
    return column_kill(field, n, k).adjoin_identity()


@st.composite
def filtered_spaces(draw):
    """Spans of generators kept to their first columns, so that the lower
    filtration levels are not zero, conjugated by a permutation, by an
    invertible lower-triangular matrix (which keeps every level's
    dimension) or by a random matrix; and the spaces above.  n = 1..5."""
    field, n = draw(st.sampled_from(FIELDS)), draw(st.integers(1, 5))
    how = draw(st.sampled_from(("plain", "permuted", "lower", "conjugated", "random")))
    if how == "random":
        return draw(matrix_spaces(field, n))
    gens = []
    for m in draw(st.lists(matrices(field, n), max_size=n + 2)):
        width = draw(st.integers(1, n))
        gens.append(DenseMatrix(field, [row[:width] + (field.zero,) * (n - width)
                                        for row in m.entries]))
    space = MatrixSubspace.from_matrices(field, n, gens)
    if how == "permuted":
        order = draw(st.permutations(range(n)))
        t = DenseMatrix(field, [[int(j == order[i]) for j in range(n)] for i in range(n)])
    elif how == "lower":
        t = draw(matrices(field, n))
        t = DenseMatrix(field, [[x if j < i else field.one if j == i else 0
                                 for j, x in enumerate(row)] for i, row in enumerate(t.entries)])
    elif how == "conjugated":
        t = draw(matrices(field, n))
    else:
        return space
    try:
        return conjugate(space, t)
    except SingularMatrixError:
        return space


@st.composite
def filtered_spaces_with_levels(draw):
    space = draw(filtered_spaces())
    return space, draw(st.integers(0, space.n)), draw(st.booleans())


@st.composite
def spaces_of_dim(draw, field, n, dim):
    """A space of the given dim: generators that are random, 0/1 or
    skew-symmetric, each kept to its first columns as in
    ``filtered_spaces``, topped up with matrix units in a drawn order."""
    gens = []
    for m in draw(st.lists(matrices(field, n), max_size=dim)):
        kind = draw(st.sampled_from(("random", "binary", "skew")))
        if kind == "binary":
            m = DenseMatrix(field, [[int(x != field.zero) for x in row] for row in m.entries])
        elif kind == "skew":
            m = m - transpose(m)
        width = draw(st.integers(1, n))
        gens.append(DenseMatrix(field, [row[:width] + (field.zero,) * (n - width)
                                        for row in m.entries]))
    space = MatrixSubspace.from_matrices(field, n, gens[:dim])
    for i, j in draw(st.permutations(list(itertools.product(range(n), repeat=2)))):
        if space.dim == dim:
            break
        space = matrix_sum(space, MatrixSubspace.from_matrices(
            field, n, [DenseMatrix.unit(field, n, n, i, j)]))
    return space


@st.composite
def kernel_inputs(draw):
    """Random, zero and low-rank (a product through k < min(rows, cols)
    dimensions) matrices, 0..4 x 0..5."""
    field = draw(st.sampled_from(WIDE_FIELDS))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(("random", "zero", "low_rank")))
    if kind == "zero":
        return zeros(field, rows, cols)

    def grid(r, c):
        return draw(st.lists(st.lists(scalars(field), min_size=c, max_size=c),
                             min_size=r, max_size=r))

    if kind == "random":
        return DenseMatrix(field, grid(rows, cols), cols=cols)
    k = draw(st.integers(0, max(0, min(rows, cols) - 1)))
    left = DenseMatrix(field, grid(rows, k), cols=k)
    return left.mul(DenseMatrix(field, grid(k, cols), cols=cols))


# --- comparisons --------------------------------------------------------------

@SETTINGS
@given(kernel_inputs())
@example(zeros(F2, 0, 3))
@example(zeros(QQ, 3, 0))
@example(zeros(F5, 0, 0))
@example(zeros(QQ, 2, 4))
@example(DenseMatrix.identity(F3, 4))
@example(DenseMatrix(QQ, [[2, 1, 0, 5], [0, Fraction(1, 3), 1, -1]]))
@example(DenseMatrix(F2, [[1, 1], [0, 1], [1, 0]]))
@example(DenseMatrix(F5, [[0, 0, 1, 2], [0, 0, 2, 4]]))
@example(DenseMatrix(F7, [[0, 0, 0], [1, 2, 3], [0, 0, 0]]))
@example(DenseMatrix(FBIG, [[5, BIG, 7], [5, BIG, 7], [BIG, 1, BIG]]))
@example(DenseMatrix(QQ, [[1, Fraction(-2, 3), 0, 4, 5, 0, 7], [2, 0, 1, 1, 1, 1, 1]]))
@example(DenseMatrix(FBIG, [[1, BIG], [BIG, 1], [3, 2**30], [0, 1], [2, 2], [BIG, 0]]))
def test_kernel_matches_free_vectors_of_the_rref(m):
    got = kernel(m)
    assert got == reference_kernel(m)
    assert got.ambient_dim == m.cols and got.dim == m.cols - rref(m)[1]
    assert all(not any(mul_vector(m, v)) for v in got.basis)


@SETTINGS
@given(spaces(WIDE_FIELDS))
@example(MatrixSubspace.from_matrices(QQ, 3, []))
@example(MatrixSubspace.full_space(F2, 2))
@example(MatrixSubspace.from_matrices(FBIG, 3, [[[1, BIG, 0], [2**30, 5, BIG], [0, 0, 3]]]))
@example(MatrixSubspace.from_matrices(F7, 2, [[[1, 2], [3, 4]], [[2, 4], [6, 1]],
                                              [[0, 0], [0, 0]], [[0, 1], [1, 0]]]))
def test_constraint_space_matches_kernel_of_transposes(space):
    dual = constraint_space(space)
    assert dual == reference_constraint_space(space)
    assert constraint_space(dual) == space


def recorded_eliminations(monkeypatch, module=linalg):
    """The (rows, columns, first) of every ``_eliminate`` call that
    ``module`` makes from here on."""
    original = module._eliminate
    calls = []

    def recording(field, rows, ncols, first=0):
        calls.append((len(rows), ncols, first))
        return original(field, rows, ncols, first)

    monkeypatch.setattr(module, "_eliminate", recording)
    return calls


def codim1_space(field, n, seed):
    """A space of codimension 1 in Mat_n spanned by n^2 - 1 matrices of
    random integers, as the benchmark's space files give them: residues
    over F_p, entries in -3..3 over Q."""
    rng = random.Random(seed)
    lo, hi = (0, field.p - 1) if field.p else (-3, 3)
    space = MatrixSubspace.from_matrices(field, n, [])
    while space.dim < n * n - 1:
        space = MatrixSubspace.from_matrices(field, n, [
            [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
            for _ in range(n * n - 1)])
    return space


def route_spaces(field, n, rng):
    """For every dim 0..n^2 a random space of that dim, then the
    column-kill spaces with and without the identity adjoined."""
    p = field.p
    for dim in range(n * n + 1):
        space = MatrixSubspace.from_matrices(field, n, [])
        while space.dim < dim:
            entries = [rng.randrange(p) if p else
                       Fraction(rng.randint(-9, 9), rng.randint(1, 4)) * (rng.random() < 0.6)
                       for _ in range(n * n)]
            space = matrix_sum(space, MatrixSubspace.from_matrices(
                field, n, [[entries[i * n:(i + 1) * n] for i in range(n)]]))
        yield space
    for k in range(n + 1):
        yield column_kill(field, n, k)
        yield column_kill_and_identity(field, n, k)


@pytest.mark.parametrize("field", [F2, F3, F5, Field.prime(101), QQ], ids=repr)
def test_constraint_space_routes_match_the_kernel_of_transposes(field):
    # both routes, the complement above half of Mat_n and the kernel at or
    # below it (2 dim = n^2 at n = 2 and n = 4), against the kernel alone
    rng = random.Random(field.p)
    for n in range(1, 6):
        for space in route_spaces(field, n, rng):
            dual = constraint_space(space)
            assert dual == kernel_constraint_space(space), (n, space.dim)
            assert constraint_space(dual) == space


@pytest.mark.parametrize("space", [
    MatrixSubspace.from_matrices(F2, 2, []),
    MatrixSubspace.full_space(FBIG, 2),
    column_kill(F3, 3, 2),
    column_kill_and_identity(QQ, 4, 1),
    column_kill(F5, 2, 1),
    column_kill(QQ, 4, 2),
    MatrixSubspace.from_matrices(QQ, 6, [DenseMatrix.identity(QQ, 6)]),
    constraint_space(MatrixSubspace.from_matrices(QQ, 6, [DenseMatrix.identity(QQ, 6)])),
    constraint_space(MatrixSubspace.from_matrices(F7, 6, [DenseMatrix.identity(F7, 6)])),
], ids=repr)
def test_constraint_space_eliminates_only_the_smaller_side(space, monkeypatch):
    # one elimination of min(dim, n^2 - dim) rows: the dim transposed basis
    # rows, or the transposed complement vectors of a codim-1 space in
    # Mat_6, one row of 36; at 2 dim = n^2 the basis rows
    calls = recorded_eliminations(monkeypatch)
    constraint_space(space)
    assert calls == [(min(space.dim, space.n ** 2 - space.dim), space.n ** 2, 0)]


@pytest.mark.parametrize("m", [
    zeros(F5, 0, 3),
    DenseMatrix(F7, [[1, 2, 3, 4, 5], [2, 4, 6, 1, 3]]),
    DenseMatrix(QQ, [[1, 2], [3, 4], [5, 6]]),
], ids=repr)
def test_kernel_eliminates_only_the_system_rows(m, monkeypatch):
    calls = recorded_eliminations(monkeypatch)
    kernel(m)
    assert calls == [(m.rows, m.cols, 0)]


@SETTINGS
@given(space_pairs())
@example((MatrixSubspace.from_matrices(F2, 1, []), MatrixSubspace.full_space(F2, 1)))
@example((MatrixSubspace.full_space(QQ, 3), MatrixSubspace.full_space(QQ, 3)))
@example((column_kill(F3, 3, 2), MatrixSubspace.from_matrices(F3, 3, [])))
def test_intersect_matches_coefficient_kernel(pair):
    u, w = pair[0].basis, pair[1].basis
    got = u.intersect(w)
    assert got == reference_intersect(u, w)
    assert got.basis == VectorSubspace.from_vectors(u.field, u.ambient_dim, got.basis).basis
    assert w.intersect(u) == got


@SETTINGS
@given(spaces_with_positions())
@example((MatrixSubspace.full_space(F5, 2), []))
@example((MatrixSubspace.from_matrices(QQ, 2, []), [(0, 1)]))
@example((MatrixSubspace.full_space(F2, 1), [(0, 0)]))
@example((MatrixSubspace.full_space(QQ, 4), [(i, j) for i in range(4) for j in range(4)]))
@example((MatrixSubspace.from_matrices(FBIG, 2, [[[1, BIG], [5, 7]], [[0, 3], [2**30, 1]],
                                                 [[BIG, BIG], [1, 0]]]), [(0, 1), (1, 1)]))
def test_members_vanishing_at_matches_coefficient_kernel(case):
    space, positions = case
    got = members_vanishing_at(space, positions)
    assert got == reference_members_vanishing_at(space, positions)
    assert members_vanishing_at(space, []) == space
    assert got == MatrixSubspace.from_matrices(space.field, space.n, got.basis_matrices)
    assert all(m.entries[i][j] == space.field.zero
               for m in got.basis_matrices for i, j in positions)


def test_members_vanishing_at_rejects_positions_outside_the_grid():
    # (-1, 0) and (0, 2) would both read coordinate 2 of Mat_2, entry (1, 0)
    space = MatrixSubspace.full_space(F3, 2)
    for position in ((-1, 0), (0, 2), (2, 0), (0, -1)):
        with pytest.raises(ValueError):
            members_vanishing_at(space, [(0, 0), position])
    assert members_vanishing_at(space, [(1, 0)]).dim == 3


@SETTINGS
@given(spaces())
@example(MatrixSubspace.from_matrices(F3, 1, []))
@example(MatrixSubspace.full_space(F3, 1))
@example(MatrixSubspace.full_space(QQ, 4))
@example(column_kill(F2, 4, 3))
@example(column_kill(QQ, 3, 1))
@example(column_kill_and_identity(F3, 3, 2))
@example(column_kill_and_identity(QQ, 4, 1))
def test_max_left_ideal_matches_trace_dual_system(space):
    ideal = max_left_ideal(space)
    assert ideal == reference_max_left_ideal(space)
    assert reference_is_left_ideal(ideal)
    assert matrix_sum(space, ideal) == space


@pytest.mark.parametrize("n", [3, 4, 5])
def test_max_left_ideal_eliminates_twice_per_row_but_the_first(n, monkeypatch):
    # per row one readout of R_i, and one intersection for each row after
    # the first; the ideal is laid out from R's RREF, not spanned again
    space, ideal = column_kill_and_identity(F5, n, 1), column_kill(F5, n, 1)
    calls = recorded_eliminations(monkeypatch)
    assert max_left_ideal(space) == ideal
    assert len(calls) == 2 * n - 1


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=repr)
def test_max_left_ideal_stops_at_a_zero_intersection(field, monkeypatch):
    # R_i is cut out by column i of each constraint: the zero space of
    # Mat_3 has R_0 = 0 (one readout), and the space with constraints
    # E_00 + E_21 and E_10 + E_31 in Mat_4 has R_0 & R_1 = 0 (two readouts
    # and one intersection, not 7 eliminations)
    zero = MatrixSubspace.from_matrices(field, 3, [])
    codim2 = constraint_space(MatrixSubspace.from_matrices(field, 4, [
        DenseMatrix.unit(field, 4, 4, 0, 0) + DenseMatrix.unit(field, 4, 4, 2, 1),
        DenseMatrix.unit(field, 4, 4, 1, 0) + DenseMatrix.unit(field, 4, 4, 3, 1)]))
    for space, eliminations in ((zero, 1), (codim2, 3)):
        calls = recorded_eliminations(monkeypatch)
        ideal = max_left_ideal(space)
        monkeypatch.undo()
        assert ideal.dim == 0 and ideal == reference_max_left_ideal(space)
        assert len(calls) == eliminations


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=repr)
def test_filtration_eliminates_its_basis_forward_only(field, monkeypatch):
    # an echelon basis in the filtration's coordinate order is adapted, so
    # its one elimination of the n^2 - 1 basis rows takes ``first`` at the
    # column count, as the rank bounds after it do
    space = codim1_space(field, 4, 38)
    calls = recorded_eliminations(monkeypatch, matspace)
    Filtration(space)
    assert calls[0] == (15, 16, 16)
    assert all(first == ncols for _, ncols, first in calls)


@SETTINGS
@given(spaces())
@example(MatrixSubspace.from_matrices(F5, 2, []))
@example(MatrixSubspace.full_space(F5, 2))
@example(column_kill(F5, 3, 1))
@example(column_kill(F2, 1, 1))
@example(column_kill_and_identity(F2, 2, 1))
@example(column_kill_and_identity(QQ, 3, 2))
# a first-block row running past column n, its cut (2, 0) not primitive
@example(MatrixSubspace.from_matrices(QQ, 2, [DenseMatrix(QQ, [[2, 0], [3, 0]])]))
# dimension n k for its one pivot below n, yet E_12 (E_11 + E_22) = E_12 lies outside
@example(MatrixSubspace.from_matrices(F3, 2, [DenseMatrix.identity(F3, 2),
                                              DenseMatrix.unit(F3, 2, 2, 1, 0)]))
def test_is_left_ideal_matches_unit_products(space):
    assert normal_form_accepts(space) == reference_is_left_ideal(space)


@SETTINGS
@given(spaces())
@example(column_kill(F3, 3, 2))
@example(column_kill(QQ, 4, 1))
@example(MatrixSubspace.full_space(F5, 2))
def test_left_ideal_normal_form_matches_greedy_completion(space):
    ideal = max_left_ideal(space)
    assert left_ideal_normal_form(ideal).t == reference_normal_form_t(ideal)


def test_left_ideal_examples_over_every_field():
    for field in FIELDS:
        for n in range(1, 5):
            for k in range(n + 1):
                ideal = column_kill(field, n, k)
                padded = column_kill_and_identity(field, n, k)
                assert normal_form_accepts(ideal) and max_left_ideal(ideal) == ideal
                closed = k == n or n == 1     # then padded is the full space
                assert normal_form_accepts(padded) == reference_is_left_ideal(padded) == closed
                assert max_left_ideal(padded) == (padded if closed else ideal)


@st.composite
def ideals_plus_members(draw):
    """A column-kill ideal conjugated by a random invertible t over F_3,
    F_5 or Q, and the space it spans with up to two random matrices."""
    field = draw(st.sampled_from((F3, F5, QQ)))
    n = draw(st.integers(2, 4))
    t = draw(matrices(field, n))
    try:
        ideal = conjugate(column_kill(field, n, draw(st.integers(1, n - 1))), t)
    except SingularMatrixError:
        assume(False)
    extra = draw(st.lists(matrices(field, n), max_size=2))
    return ideal, MatrixSubspace.from_matrices(field, n, list(ideal.basis_matrices) + extra)


def space_file(space):
    """The text of a space file for ``space``: each basis matrix cleared
    of denominators, so the file holds integers."""
    blocks = []
    for m in space.basis_matrices:
        scale = math.lcm(*(Fraction(x).denominator for row in m.entries for x in row))
        blocks.append("\n".join(" ".join(str(int(x * scale)) for x in row)
                                for row in m.entries))
    return "field %s\nn %d\nbasis\n%s\n" % (space.field.p or "Q", space.n,
                                            "\n\n".join(blocks))


def maxideal_payload(space):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "space.txt")
        with open(path, "w") as fh:
            fh.write(space_file(space))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["maxideal", path, "--json"]) == 0
    return json.loads(out.getvalue())["payload"]


def matrix_from_payload(field, rows):
    return DenseMatrix(field, [[x if field.p else Fraction(x) for x in row] for row in rows])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(ideals_plus_members())
def test_max_left_ideal_of_a_conjugated_ideal_plus_members(case):
    # nonzero maximal left ideals, which no benchmark job reaches
    ideal, space = case
    f, n = space.field, space.n
    found = max_left_ideal(space)
    assert found == reference_max_left_ideal(space)
    assert matrix_sum(found, ideal) == found
    payload = maxideal_payload(space)
    k, t = payload["k"], matrix_from_payload(f, payload["t"])
    assert payload["dim"] == found.dim == n * k
    assert MatrixSubspace.from_matrices(f, n, [
        matrix_from_payload(f, m) for m in payload["basis"]]) == found
    assert conjugate(found, t) == column_kill(f, n, k)



@SETTINGS
@given(filtered_spaces())
@example(MatrixSubspace.from_matrices(F2, 1, []))
@example(MatrixSubspace.full_space(QQ, 4))
@example(column_kill(F3, 4, 2))
@example(column_kill_and_identity(F5, 5, 3))
@example(codim1_space(F5, 4, 1))
@example(codim1_space(QQ, 4, 1))
def test_filtration_readout_matches_levels(space):
    got = Filtration(space)
    assert binary_profile(space) == got.profile() == reference_profile(space)
    levels = [filtration_level(space, k) for k in range(space.n + 1)]
    assert got.dims == tuple(level.dim for level in levels)
    assert got.col_spaces == tuple(column_space(levels[j], unit_vector(space.field, space.n, j))
                                   for j in range(1, space.n + 1))
    # the integer grids are multiples of the basis matrices; the public
    # constructor reads them as field scalars
    assert all(MatrixSubspace.from_matrices(space.field, space.n, got.grids[:level.dim])
               == level for level in levels)


@pytest.mark.parametrize("field", FIELDS)
@settings(derandomize=True, deadline=None, max_examples=6)
@given(data=st.data())
def test_rank_bounds_bracket_the_bareiss_dimensions(field, data):
    # every dim from the zero space to Mat_n, n = 1..4
    for n in range(1, 5):
        for dim in range(n * n + 1):
            space = data.draw(spaces_of_dim(field, n, dim))
            want = tuple(generic_rank_of_action(filtration_level(space, k))
                         for k in range(n + 1))
            fil = Filtration(space)
            assert fil.d == want
            for lower, upper in _rank_bounds(field, n, fil.grids, fil.dims):
                assert all(lo <= d <= up for lo, d, up in zip(lower, want, upper))


def test_the_rank_bound_points_differ_over_f2():
    # from n = 3 on, F_2 sees three distinct points, not the first one twice
    for n in range(3, 8):
        assert len({tuple(point(j) % 2 for j in range(n)) for point in _POINTS}) == 3


# d_3 = 3, but no vector over F_2 reaches it: both scans come up empty.
PAIR_PLUS_IDENTITY = MatrixSubspace.from_matrices(F2, 3, [
    [[0, 1, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 1], [0, 0, 0]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(filtered_spaces_with_levels())
@example((PAIR_PLUS_IDENTITY, 3, True))
@example((PAIR_PLUS_IDENTITY, 3, False))
@example((column_kill(QQ, 4, 3), 3, True))
@example((MatrixSubspace.from_matrices(F2, 3, []), 3, True))      # d_3 = 0: (0, 0, 1)
@example((MatrixSubspace.from_matrices(F2, 3, []), 2, False))     # d_2 = 0: (0, 0, 0)
@example((codim1_space(F5, 4, 2), 4, True))
@example((codim1_space(QQ, 4, 2), 3, False))
def test_generic_vector_from_the_readout_matches_levels(case):
    space, k, pivot = case
    pivot = pivot and k >= 1
    want = reference_generic_vector(space, k, pivot)
    try:
        got = find_generic_vector(Filtration(space), k, require_pivot_one=pivot)
    except FieldTooSmallError:
        got = None
    assert got == want
