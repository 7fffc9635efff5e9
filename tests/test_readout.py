"""Differential tests of the single-elimination readout.

``kernel``, ``constraint_space``, ``VectorSubspace.intersect``,
``members_vanishing_at``, ``max_left_ideal`` and ``is_left_ideal`` all
read their answer off one RREF.  The references below are the
definitional formulations they replaced: free vectors of an RREF, the
kernel of the transposed basis, a kernel on basis coefficients recombined
into members, the kernel of the system "tr(K E_ij A) = 0 for every
constraint K", and a loop over unit products.  Every reference solves
its kernels with ``reference_kernel``, never with the code under test.

The column filtration (``Filtration``: one RREF and one Bareiss run per
space) is compared with the level-by-level reading it replaced: each
level by ``filtration_level``, its column spaces by ``_column_space`` and
its generic dimension by its own ``generic_rank_of_action``.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mathieumat import linalg
from mathieumat.errors import FieldTooSmallError, SingularMatrixError
from mathieumat.linalg import DenseMatrix, Field, VectorSubspace, kernel, rref
from mathieumat.matspace import (
    BinaryProfile,
    Filtration,
    MatrixSubspace,
    _column_space,
    binary_profile,
    conjugate,
    constraint_space,
    filtration_level,
    find_generic_vector,
    members_vanishing_at,
)
from mathieumat.multipoly import generic_rank_of_action
from mathieumat.verify import is_left_ideal, left_ideal_normal_form, max_left_ideal

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
            v[pc] = f.neg(reduced.entries[r][fc])
        vectors.append(v)
    return VectorSubspace.from_vectors(f, m.cols, vectors)


def reference_constraint_space(space: MatrixSubspace) -> MatrixSubspace:
    """tr(C M) = vec(M^T) . vec(C): the kernel of the transposed basis."""
    f, n = space.field, space.n
    rows = [m.transpose().flatten() for m in space.basis_matrices]
    return MatrixSubspace(f, n, reference_kernel(DenseMatrix(f, rows, cols=n * n)))


def reference_intersect(u: VectorSubspace, w: VectorSubspace) -> VectorSubspace:
    """Solve sum a_i u_i = sum b_j w_j for (a, b) and recombine the u_i."""
    f = u.field
    k, l = u.dim, w.dim
    if k == 0 or l == 0:
        return VectorSubspace.zero(f, u.ambient_dim)
    system = DenseMatrix(f, [
        [u.basis[i][c] for i in range(k)] + [f.neg(w.basis[j][c]) for j in range(l)]
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
        g = DenseMatrix.zeros(f, n, n)
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


def reference_is_left_ideal(space: MatrixSubspace) -> bool:
    f, n = space.field, space.n
    return all(space.contains(DenseMatrix.unit(f, n, n, i, j).mul(a))
               for a in space.basis_matrices for i in range(n) for j in range(n))


def unit_vector(field, n, k):
    return tuple(field.one if i == k - 1 else field.zero for i in range(n))


def reference_profile(space: MatrixSubspace) -> BinaryProfile:
    """B, the column dimensions and d, one level at a time."""
    f, n = space.field, space.n
    levels = [filtration_level(space, k) for k in range(n + 1)]
    B = [[0] * n for _ in range(n)]
    col_dims = []
    for j in range(1, n + 1):
        cs = _column_space(levels[j], unit_vector(f, n, j))
        col_dims.append(cs.dim)
        for row in cs.basis:
            for i in range(n):
                if row[i] != f.zero:
                    B[i][j - 1] = 1
    b = [sum(B[i][j] for i in range(n)) for j in range(n)]
    return BinaryProfile(n, B, b, col_dims, [generic_rank_of_action(lv) for lv in levels])


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
        if _column_space(level, v).dim == dk:
            if pivot:
                v = tuple(f.div(x, point[k - 1]) for x in v)
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
        return MatrixSubspace.zero_space(field, n)
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


def column_kill(field, n, k):
    """The left ideal of matrices whose last n - k columns vanish."""
    return MatrixSubspace.from_matrices(field, n, [
        DenseMatrix.unit(field, n, n, i, j) for i in range(n) for j in range(k)])


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
def kernel_inputs(draw):
    """Random, zero and low-rank (a product through k < min(rows, cols)
    dimensions) matrices, 0..4 x 0..5."""
    field = draw(st.sampled_from(WIDE_FIELDS))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(("random", "zero", "low_rank")))
    if kind == "zero":
        return DenseMatrix.zeros(field, rows, cols)

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
@example(DenseMatrix.zeros(F2, 0, 3))
@example(DenseMatrix.zeros(QQ, 3, 0))
@example(DenseMatrix.zeros(F5, 0, 0))
@example(DenseMatrix.zeros(QQ, 2, 4))
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
    assert all(not any(m.mul_vector(v)) for v in got.basis)


@SETTINGS
@given(spaces(WIDE_FIELDS))
@example(MatrixSubspace.zero_space(QQ, 3))
@example(MatrixSubspace.full_space(F2, 2))
@example(MatrixSubspace.from_matrices(FBIG, 3, [[[1, BIG, 0], [2**30, 5, BIG], [0, 0, 3]]]))
@example(MatrixSubspace.from_matrices(F7, 2, [[[1, 2], [3, 4]], [[2, 4], [6, 1]],
                                              [[0, 0], [0, 0]], [[0, 1], [1, 0]]]))
def test_constraint_space_matches_kernel_of_transposes(space):
    dual = constraint_space(space)
    assert dual == reference_constraint_space(space)
    assert constraint_space(dual) == space


def recorded_eliminations(monkeypatch):
    """The (rows, columns) of every ``linalg._eliminate`` call from here on."""
    original = linalg._eliminate
    calls = []

    def recording(field, rows, ncols, first=0):
        calls.append((len(rows), ncols))
        return original(field, rows, ncols, first)

    monkeypatch.setattr(linalg, "_eliminate", recording)
    return calls


@pytest.mark.parametrize("space", [
    MatrixSubspace.zero_space(F2, 2),
    MatrixSubspace.full_space(FBIG, 2),
    column_kill(F3, 3, 2),
    column_kill_and_identity(QQ, 4, 1),
], ids=repr)
def test_constraint_space_eliminates_only_the_basis_rows(space, monkeypatch):
    # one elimination of the dim transposed basis rows, never n^2 rows
    calls = recorded_eliminations(monkeypatch)
    constraint_space(space)
    assert calls == [(space.dim, space.n ** 2)]


@pytest.mark.parametrize("m", [
    DenseMatrix.zeros(F5, 0, 3),
    DenseMatrix(F7, [[1, 2, 3, 4, 5], [2, 4, 6, 1, 3]]),
    DenseMatrix(QQ, [[1, 2], [3, 4], [5, 6]]),
], ids=repr)
def test_kernel_eliminates_only_the_system_rows(m, monkeypatch):
    calls = recorded_eliminations(monkeypatch)
    kernel(m)
    assert calls == [(m.rows, m.cols)]


@SETTINGS
@given(space_pairs())
@example((MatrixSubspace.zero_space(F2, 1), MatrixSubspace.full_space(F2, 1)))
@example((MatrixSubspace.full_space(QQ, 3), MatrixSubspace.full_space(QQ, 3)))
@example((column_kill(F3, 3, 2), MatrixSubspace.zero_space(F3, 3)))
def test_intersect_matches_coefficient_kernel(pair):
    u, w = pair[0].basis, pair[1].basis
    got = u.intersect(w)
    assert got == reference_intersect(u, w)
    assert got.basis == VectorSubspace.from_vectors(u.field, u.ambient_dim, got.basis).basis
    assert w.intersect(u) == got


@SETTINGS
@given(spaces_with_positions())
@example((MatrixSubspace.full_space(F5, 2), []))
@example((MatrixSubspace.zero_space(QQ, 2), [(0, 1)]))
@example((MatrixSubspace.full_space(F2, 1), [(0, 0)]))
@example((MatrixSubspace.full_space(QQ, 4), [(i, j) for i in range(4) for j in range(4)]))
@example((MatrixSubspace.from_matrices(FBIG, 2, [[[1, BIG], [5, 7]], [[0, 3], [2**30, 1]],
                                                 [[BIG, BIG], [1, 0]]]), [(0, 1), (1, 1)]))
def test_members_vanishing_at_matches_coefficient_kernel(case):
    space, positions = case
    got = members_vanishing_at(space, positions)
    assert got == reference_members_vanishing_at(space, positions)
    assert got == MatrixSubspace.from_matrices(space.field, space.n, got.basis_matrices)
    assert all(m.entries[i][j] == space.field.zero
               for m in got.basis_matrices for i, j in positions)


@SETTINGS
@given(spaces())
@example(MatrixSubspace.zero_space(F3, 1))
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
    assert space.basis.contains_subspace(ideal.basis)


@SETTINGS
@given(spaces())
@example(MatrixSubspace.zero_space(F5, 2))
@example(MatrixSubspace.full_space(F5, 2))
@example(column_kill(F5, 3, 1))
@example(column_kill(F2, 1, 1))
@example(column_kill_and_identity(F2, 2, 1))
@example(column_kill_and_identity(QQ, 3, 2))
def test_is_left_ideal_matches_unit_products(space):
    assert is_left_ideal(space) == reference_is_left_ideal(space)


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
                assert is_left_ideal(ideal) and max_left_ideal(ideal) == ideal
                closed = k == n or n == 1     # then padded is the full space
                assert is_left_ideal(padded) == reference_is_left_ideal(padded) == closed
                assert max_left_ideal(padded) == (padded if closed else ideal)



@SETTINGS
@given(filtered_spaces())
@example(MatrixSubspace.zero_space(F2, 1))
@example(MatrixSubspace.full_space(QQ, 4))
@example(column_kill(F3, 4, 2))
@example(column_kill_and_identity(F5, 5, 3))
def test_filtration_readout_matches_levels(space):
    got = Filtration(space)
    assert binary_profile(space) == got.profile() == reference_profile(space)
    levels = [filtration_level(space, k) for k in range(space.n + 1)]
    assert got.dims == tuple(level.dim for level in levels)
    assert all(MatrixSubspace.from_matrices(space.field, space.n, got.matrices[:level.dim])
               == level for level in levels)


# d_3 = 3, but no vector over F_2 reaches it: both scans come up empty.
PAIR_PLUS_IDENTITY = MatrixSubspace.from_matrices(F2, 3, [
    [[0, 1, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 1], [0, 0, 0]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(filtered_spaces_with_levels())
@example((PAIR_PLUS_IDENTITY, 3, True))
@example((PAIR_PLUS_IDENTITY, 3, False))
@example((column_kill(QQ, 4, 3), 3, True))
def test_generic_vector_from_the_readout_matches_levels(case):
    space, k, pivot = case
    pivot = pivot and k >= 1
    want = reference_generic_vector(space, k, pivot)
    try:
        got = find_generic_vector(Filtration(space), k, require_pivot_one=pivot)
    except FieldTooSmallError:
        got = None
    assert got == want
