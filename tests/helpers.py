"""Functions only the tests use: independent readings that the package
itself does not need, kept beside the tests that check them."""

import itertools
from dataclasses import dataclass
from typing import Optional

from mathieumat.errors import PreconditionViolated, SingularMatrixError
from mathieumat.linalg import (
    DenseMatrix,
    VectorSubspace,
    _cleared,
    _eliminate,
    _kernel,
    _scalars,
    invert,
)
from mathieumat.idempotents import UPPER
from mathieumat.matspace import (
    MatrixSubspace,
    column_space,
    conjugate,
    members_vanishing_at,
    rct_zero_members,
)
from mathieumat.multipoly import MultiPoly, _action_pivots
from mathieumat.verify import (
    ALL_TYPES,
    LEFT,
    PRE_TWO_SIDED,
    RIGHT,
    TWO_SIDED,
    _Dual,
    _matrix,
    _members,
    _require_enumerable,
    verify_mathieu,
)

# The space file of the trace dual of the running pair over F_3, its
# canonical basis.
PAIR_DUAL = ("field 3\nn 3\nbasis\n1 0 0\n0 0 0\n0 0 0\n\n0 1 0\n0 0 0\n0 0 0\n\n"
             "0 0 1\n0 0 0\n0 0 0\n\n0 0 0\n1 2 0\n0 1 0\n\n0 0 0\n0 0 1\n0 0 0\n\n"
             "0 0 0\n0 0 0\n1 0 0\n\n0 0 0\n0 0 0\n0 0 1\n")


def rref(m: DenseMatrix):
    """Reduced row echelon form.

    Returns ``(reduced, rank, pivots)`` where ``reduced`` is the unique
    RREF of ``m``, ``rank`` its number of nonzero rows and ``pivots`` the
    strictly increasing pivot column indices.
    """
    f = m.field
    rows = list(_cleared(f, m.entries)[0])
    pivots = _eliminate(f, rows, m.cols)
    rows = ([_scalars(f, row, row[c]) for row, c in zip(rows, pivots)]
            + [(f.zero,) * m.cols] * (m.rows - len(pivots)))
    return DenseMatrix._trusted(f, rows, m.cols), len(pivots), tuple(pivots)


def kernel(m: DenseMatrix) -> VectorSubspace:
    """The right kernel {v : m v = 0} as a canonical subspace."""
    return _kernel(m.field, _cleared(m.field, m.entries)[0], m.cols)


def solve_affine(a: DenseMatrix, b):
    """All solutions of ``a x = b``.

    Returns ``None`` when inconsistent, else ``(particular, directions)``
    with ``directions = kernel(a)``; every solution is the particular one
    plus a kernel element.
    """
    f = a.field
    b = [f.of(x) for x in b]
    if len(b) != a.rows:
        raise ValueError("right-hand side length != row count")
    aug = DenseMatrix._trusted(f, [row + (b[i],) for i, row in enumerate(a.entries)],
                               a.cols + 1)
    reduced, rank, pivots = rref(aug)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [f.zero] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced.entries[r][a.cols]
    return tuple(x), kernel(a)


def with_block(fam, flat_block) -> DenseMatrix:
    """The member of the family ``fam`` whose free block is shifted by
    ``flat_block``, any scalars of the field, converted and checked."""
    f = fam.particular.field
    n, r = fam.n, fam.r
    if len(flat_block) != (n - r) * r:
        raise ValueError("block has wrong length")
    entries = [list(row) for row in fam.particular.entries]
    for a in range(n - r):
        for s in range(r):
            entries[r + a][s] = f.add(entries[r + a][s], flat_block[a * r + s])
    return DenseMatrix(f, entries)


def image_conjugator(u: VectorSubspace) -> DenseMatrix:
    """The t whose last k = dim U columns span U: the identity columns
    off U's pivots, then U's canonical basis.  An idempotent e has image
    U iff t^-1 e t has image span(e_(n-k+1) .. e_n), that is, iff
    t^-1 e t is a member of the lower-form family at r = n - k."""
    f, n = u.field, u.ambient_dim
    eye = DenseMatrix.identity(f, n).entries
    columns = [e for i, e in enumerate(eye) if i not in u.pivots] + list(u.basis)
    return DenseMatrix._trusted(f, zip(*columns), n)


def image(m: DenseMatrix) -> VectorSubspace:
    """The column space of m."""
    return VectorSubspace.from_vectors(m.field, m.rows, [m.column(j) for j in range(m.cols)])


def symmetric_images(space: MatrixSubspace, rng):
    """A random conjugate t^-1 (space) t and the transpose of the space,
    each as ``(image, t, types)``: ``types`` maps each verdict type of
    the space to the type of the image with the same verdict, and t is
    None for the transpose.  Over Q the entries of t lie in [-3, 3]."""
    f, n = space.field, space.n
    while True:
        t = DenseMatrix(f, [[rng.randrange(f.p) if f.p else rng.randint(-3, 3)
                             for _ in range(n)] for _ in range(n)])
        try:
            invert(t)
            break
        except SingularMatrixError:
            pass
    yield conjugate(space, t), t, {v: v for v in ALL_TYPES}
    yield (MatrixSubspace.from_matrices(f, n, [transpose(m) for m in space.basis_matrices]),
           None, {LEFT: RIGHT, RIGHT: LEFT, PRE_TWO_SIDED: PRE_TWO_SIDED, TWO_SIDED: TWO_SIDED})


def kernel_constraint_space(space: MatrixSubspace) -> MatrixSubspace:
    """The trace dual as the ``_kernel`` of the transposed basis rows,
    whatever the dimension: tr(C M) = sum_ij C_ij M_ji, so the
    coefficient of C_ij is M_ji."""
    f, n = space.field, space.n
    rows = [[m[j * n + i] for i in range(n) for j in range(n)] for m in space.basis.rows]
    return MatrixSubspace(f, n, _kernel(f, rows, n * n))


def neg(field, x):
    """-x as a canonical scalar."""
    return field.sub(field.zero, x)


def negate(m: DenseMatrix) -> DenseMatrix:
    """-m, entrywise."""
    return zeros(m.field, m.rows, m.cols) - m


def transpose(m: DenseMatrix) -> DenseMatrix:
    return DenseMatrix._trusted(m.field, [m.column(j) for j in range(m.cols)], m.rows)


def poly_sub(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """a - b, as a plus the negated terms of b."""
    f = b.field
    return a + MultiPoly(f, b.nvars, {e: neg(f, c) for e, c in b.terms.items()})


def vector_sum(v: VectorSubspace, w: VectorSubspace) -> VectorSubspace:
    """The sum of two subspaces of the same K^m."""
    v._check_compatible(w)
    return VectorSubspace._span(v.field, v.ambient_dim, v.rows + w.rows)


def matrix_sum(a: MatrixSubspace, b: MatrixSubspace) -> MatrixSubspace:
    """The sum of two subspaces of the same Mat_n."""
    return MatrixSubspace(a.field, a.n, vector_sum(a.basis, b.basis))


def minor_trace(m: DenseMatrix, r: int, form: str):
    """The trace of m on the fixed diagonal of an idempotent family: the
    leading r x r block for the upper form, the trailing one for the lower."""
    f = m.field
    total = f.zero
    for i in range(r) if form == UPPER else range(r, m.rows):
        total = f.add(total, m.entries[i][i])
    return total


def minor_trace_witness(constraints: MatrixSubspace, r: int, form: str) -> DenseMatrix:
    """The first zero-corner basis matrix of the constraints with a
    nonzero ``minor_trace``, or None."""
    return next((z for z in rct_zero_members(constraints, r).basis_matrices
                 if minor_trace(z, r, form) != constraints.field.zero), None)


def raw_family_directions(constraints: MatrixSubspace, r: int) -> VectorSubspace:
    """The kernel of the trace system's A, one row per constraint, its
    top-right entries C[s][r + a] against the free entry X[a][s]."""
    f, n = constraints.field, constraints.n
    return _kernel(f, [[c[s * n + r + a] for a in range(n - r) for s in range(r)]
                       for c in constraints.basis.rows], (n - r) * r)


def reversed_kernel_columns(ideal: MatrixSubspace) -> list:
    """The indices c of the e_c that complete the common kernel W of a
    left ideal to a basis, read off W's own RREF: each c that is no
    pivot of W with its coordinates reversed, so no vector of W has its
    last nonzero coordinate at c."""
    f, n = ideal.field, ideal.n
    common = _kernel(f, [row[i * n:(i + 1) * n] for row in ideal.basis.rows
                         for i in range(n)], n)
    last = VectorSubspace._span(f, n, [v[::-1] for v in common.rows]).pivots
    return [c for c in range(n) if n - 1 - c not in last]


def full_power_set(space: MatrixSubspace):
    """All members whose every power stays inside: a^1 .. a^n do."""
    _require_enumerable(space.field, space.dim)
    dual = _Dual(space)
    return [_matrix(space.field, m)
            for a in _members(space.field.p, space.n, space.basis.basis)
            for m in a[dual.staying(a, 2, space.n)[0]]]


def mul_vector(m: DenseMatrix, v) -> tuple:
    """m v, through the matrix product with v as a column."""
    return m.mul(DenseMatrix(m.field, [[x] for x in v], cols=1)).column(0)


def zeros(field, rows, cols) -> DenseMatrix:
    return DenseMatrix._trusted(field, [(field.zero,) * cols] * rows, cols)


def elements(space: MatrixSubspace):
    """All members (prime fields), lexicographic by basis coefficients."""
    coeffs = space.field.elements()
    for tup in itertools.product(coeffs, repeat=space.dim):
        m = zeros(space.field, space.n, space.n)
        for c, b in zip(tup, space.basis_matrices):
            if c:
                m = m + b.scale(c)
        yield m


def filtration_level(space: MatrixSubspace, k: int) -> MatrixSubspace:
    """Members whose columns beyond the k-th vanish (level k = 0..n).

    Level 0 is the zero space, level n the space itself, and the levels
    form a nested chain.
    """
    n = space.n
    if not 0 <= k <= n:
        raise ValueError("level %d out of range 0..%d" % (k, n))
    return members_vanishing_at(space, [(i, j) for i in range(n) for j in range(k, n)])


def unit_vector(field, n, k) -> tuple:
    """e_k in K^n (1-based k) as canonical scalars."""
    return tuple(field.one if i == k - 1 else field.zero for i in range(n))


def unit(field, n, i, j) -> DenseMatrix:
    """The matrix unit of Mat_n with its 1 at (i, j), 0-based."""
    return DenseMatrix.unit(field, n, n, i, j)


def trace_zero(field, n) -> MatrixSubspace:
    """sl_n, spanned by the off-diagonal matrix units and the E_11 - E_ii:
    built from the units alone, not by ``constraint_space``, so that it
    can check ``constraint_space``."""
    gens = [unit(field, n, i, j) for i in range(n) for j in range(n) if i != j]
    gens += [unit(field, n, 0, 0) - unit(field, n, i, i) for i in range(1, n)]
    return MatrixSubspace.from_matrices(field, n, gens)


def column_kill(field, n, k) -> MatrixSubspace:
    """The left ideal Ann(span(e_(k+1) .. e_n)): the matrices whose last
    n - k columns vanish."""
    return MatrixSubspace.from_matrices(field, n, [
        unit(field, n, i, j) for i in range(n) for j in range(k)])


def reference_is_left_ideal(space: MatrixSubspace) -> bool:
    """Whether every unit product E_ij A of a basis matrix A stays inside."""
    f, n = space.field, space.n
    return all(space.contains(DenseMatrix.unit(f, n, n, i, j).mul(a))
               for a in space.basis_matrices for i in range(n) for j in range(n))


def degree(poly) -> int:
    """Maximum total degree, -1 for the zero polynomial."""
    return max((sum(e) for e in poly.terms), default=-1)


def all_matrices(field, rows, cols):
    """All rows x cols matrices, lexicographic by row-major entries."""
    for flat in itertools.product(field.elements(), repeat=rows * cols):
        yield DenseMatrix._trusted(
            field, [flat[i * cols:(i + 1) * cols] for i in range(rows)], cols)


def all_vectors(field, n):
    """All vectors of K^n in lexicographic order (prime fields only)."""
    for tup in itertools.product(field.elements(), repeat=n):
        yield tup


def rct(m: DenseMatrix, r: int) -> DenseMatrix:
    """The top-right block: first r rows, last n-r columns (1 <= r <= n-1)."""
    n = m.rows
    if not 1 <= r <= n - 1:
        raise ValueError("r = %d out of range 1..%d" % (r, n - 1))
    return DenseMatrix(m.field, [row[r:] for row in m.entries[:r]])


def is_rct_zero(m: DenseMatrix, r: int) -> bool:
    n = m.rows
    if not 1 <= r <= n - 1:
        raise ValueError("r = %d out of range 1..%d" % (r, n - 1))
    z = m.field.zero
    return all(m.entries[i][j] == z for i in range(r) for j in range(r, n))


def generic_rank_univariate(space, k: int, j: int) -> int:
    """Rank over K(x_j) of the columns C*(e_k + x_j e_j), C in the basis.

    ``k`` and ``j`` are 1-based coordinate indices.  Homogenizing keeps
    every minor's vanishing, so this is the rank of C*(x_k e_k + x_j e_j):
    the action of the basis with all columns but k and j zeroed.
    """
    if not (1 <= k <= space.n and 1 <= j <= space.n):
        raise ValueError("coordinate indices out of range")
    rows = [[x if c % space.n in (k - 1, j - 1) else 0 for c, x in enumerate(row)]
            for row in space.basis.rows]
    return len(_action_pivots(space.field, space.n, rows))


def pencil_condition(space: MatrixSubspace, j: int, k: int) -> bool:
    """Whether the level-j column space already has the dimension of the
    generic line e_k + x e_j (1-based coordinates).

    When true, equality holds; the normalization arranges this at every
    level, which forces the profile rows to be increasing.
    """
    level = filtration_level(space, j)
    e_j = unit_vector(space.field, space.n, j)
    return column_space(level, e_j).dim >= generic_rank_univariate(level, k, j)


def newton_char_poly(a: DenseMatrix):
    """Characteristic polynomial coefficients (descending powers of t)
    recovered from the power sums tr(a), tr(a^2), ..., tr(a^n).

    Needs n! invertible: characteristic 0 or > n.
    """
    f = a.field
    n = a.rows
    if a.rows != a.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    p = f.p
    if 0 < p <= n:
        raise PreconditionViolated(
            "power-sum recovery divides by 1..%d; characteristic %d is too small"
            % (n, p))
    sums = []
    power = a
    for _ in range(n):
        sums.append(power.trace())
        power = power.mul(a)
    elem = [f.one]
    for k in range(1, n + 1):
        acc = f.zero
        sign = f.one
        for i in range(1, k + 1):
            acc = f.add(acc, f.mul(sign, f.mul(elem[k - i], sums[i - 1])))
            sign = neg(f, sign)
        elem.append(f.mul(acc, f.inv(f.of(k))))
    coeffs = []
    sign = f.one
    for k in range(n + 1):
        coeffs.append(f.mul(sign, elem[k]))
        sign = neg(f, sign)
    return tuple(coeffs)


@dataclass(frozen=True)
class SmallCodimReport:
    """For proper subspaces of codimension below n: a left Mathieu
    subspace is automatically two-sided and the field exceeds F_2."""
    left_mathieu: bool
    two_sided_mathieu: Optional[bool]
    field_order: int


def small_codim_report(space: MatrixSubspace) -> SmallCodimReport:
    f, n = space.field, space.n
    codim = n * n - space.dim
    if not 0 < codim < n:
        raise PreconditionViolated(
            "codimension %d must lie strictly between 0 and %d" % (codim, n))
    left = verify_mathieu(space, LEFT).holds
    two = None
    if left:
        two = verify_mathieu(space, TWO_SIDED).holds
        if not two:
            raise AssertionError(
                "left Mathieu subspace of small codimension must be two-sided")
        if f.p <= 2:
            raise AssertionError("left Mathieu subspace of small codimension needs #K > 2")
    return SmallCodimReport(left_mathieu=left, two_sided_mathieu=two,
                            field_order=f.p)
