"""K-subspaces of Mat_n(K): trace duality, conjugation, filtration, profile.

A subspace is held as a canonical RREF basis of its row-major
vectorization, so subspace equality is structural.  Levels ``k`` of the
column filtration run from 0 (zero space) to n (the whole space);
coordinate indices such as the ``k`` of ``e_k`` are 1-based to match the
usual linear-algebra convention, while raw matrix entries stay 0-based.

Members cut out by vanishing entries (``members_vanishing_at``, behind
the zero-corner members, ``idempotents.corner_slice`` and
``verify.max_left_ideal``) and intersections are read off a single
elimination of the basis rows in ``linalg``, not solved for as basis
coefficients.  The binary profile, the generic-vector search and the
normalization moves read all levels, their column spaces and generic
dimensions off one :class:`Filtration`: one elimination, then two cheap
bounds on each generic dimension.  Evaluation at a point gives only a
lower bound; where it meets the upper bound the dimension is exact, and
one Bareiss run decides the rest.

Products that feed an elimination stay on integers.  ``_conjugate``,
the one conjugation path (behind ``conjugate`` and
``verify.left_ideal_normal_form``), clears t^-1, t and each basis matrix
once and hands the flat rows of t^-1 M t to one elimination.  A
:class:`Filtration` holds its adapted basis as integer grids, cleared
once, and its column spaces and rank bounds eliminate integer images
of them.  ``MatrixSubspace.basis_matrices`` is a view built on its first
read: a space that is only conjugated, filtered or compared never
builds it.
"""

from __future__ import annotations

import itertools
from operator import mul

from .errors import FieldTooSmallError
from .linalg import DenseMatrix, Field, VectorSubspace, _cleared, _eliminate, _kernel, invert
from .multipoly import _action_pivots


class MatrixSubspace:
    """A K-linear subspace of Mat_n(K) with a canonical basis."""

    __slots__ = ("field", "n", "basis", "_matrices")

    def __init__(self, field: Field, n: int, basis: VectorSubspace):
        if basis.field != field or basis.ambient_dim != n * n:
            raise ValueError("basis does not live in Mat_%d" % n)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_matrices", None)

    def __setattr__(self, *a):
        raise AttributeError("MatrixSubspace is immutable")

    @property
    def basis_matrices(self) -> tuple:
        """The basis rows as n x n matrices, built on the first read."""
        if self._matrices is None:
            n = self.n
            object.__setattr__(self, "_matrices", tuple(
                DenseMatrix._trusted(self.field, [row[i * n:(i + 1) * n] for i in range(n)], n)
                for row in self.basis.basis))
        return self._matrices

    @staticmethod
    def from_matrices(field, n, mats) -> "MatrixSubspace":
        vecs = []
        for m in mats:
            if not isinstance(m, DenseMatrix):
                m = DenseMatrix(field, m)
            if m.rows != n or m.cols != n or m.field != field:
                raise ValueError("generator is not an n x n matrix over the field")
            vecs.append(m.flatten())
        return MatrixSubspace(field, n, VectorSubspace._span(field, n * n, vecs))

    @staticmethod
    def full_space(field, n) -> "MatrixSubspace":
        return MatrixSubspace(field, n, VectorSubspace.full(field, n * n))

    @property
    def dim(self) -> int:
        return self.basis.dim

    def contains(self, m: DenseMatrix) -> bool:
        if m.field != self.field or (m.rows, m.cols) != (self.n, self.n):
            raise ValueError("not an n x n matrix over the field")
        return not any(self.basis._reduce(m.flatten()))

    def contains_identity(self) -> bool:
        return self.contains(DenseMatrix.identity(self.field, self.n))

    def sum(self, other: "MatrixSubspace") -> "MatrixSubspace":
        return MatrixSubspace(self.field, self.n, self.basis.sum(other.basis))

    def adjoin_identity(self) -> "MatrixSubspace":
        """The sum with the scalar line K*I."""
        eye = DenseMatrix.identity(self.field, self.n)
        return self.sum(MatrixSubspace.from_matrices(self.field, self.n, [eye]))

    def __eq__(self, other):
        return (
            isinstance(other, MatrixSubspace)
            and self.field == other.field
            and self.n == other.n
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.n, self.basis))

    def __repr__(self):
        return "MatrixSubspace(%r, dim %d of Mat_%d)" % (self.field, self.dim, self.n)


def constraint_space(space: MatrixSubspace) -> MatrixSubspace:
    """All C with tr(C M) = 0 for every M in the space (the trace dual).

    Its dimension is n^2 - dim(space); applying it twice returns the
    original space.
    """
    n, basis = space.n, space.basis.basis
    # tr(C M) = sum_ij C_ij M_ji: the coefficient of C_ij is M_ji.
    rows = [[m[j * n + i] for i in range(n) for j in range(n)] for m in basis]
    return MatrixSubspace(space.field, n, _kernel(space.field, rows, n * n))


def conjugate(space: MatrixSubspace, t: DenseMatrix) -> MatrixSubspace:
    """The subspace t^-1 (space) t; raises SingularMatrixError for bad t."""
    if t.rows != space.n or t.cols != space.n:
        raise ValueError("conjugator has wrong size")
    return _conjugate(space, t, invert(t))


def _conjugate(space: MatrixSubspace, t: DenseMatrix, t_inv: DenseMatrix) -> MatrixSubspace:
    """The subspace t_inv (space) t, for t_inv the inverse of t, with
    integer dot products: t_inv, t and each basis matrix are cleared once,
    and each product goes to one elimination as an integer row."""
    f, n, p = space.field, space.n, space.field.p
    a, _ = _cleared(f, t_inv.entries)
    b, _ = _cleared(f, [t.column(j) for j in range(n)])
    rows = []
    for row in space.basis.basis:
        m = _grid(f, n, row)
        mb = [[sum(map(mul, mr, col)) for mr in m] for col in b]      # the columns of m t
        prod = [sum(map(mul, ar, col)) for ar in a for col in mb]
        rows.append([x % p for x in prod] if p else prod)
    return MatrixSubspace(f, n, VectorSubspace._span(f, n * n, rows))


def members_vanishing_at(space: MatrixSubspace, positions) -> MatrixSubspace:
    """The subspace of members whose entries at the (row, column)
    ``positions`` all vanish, as a canonical space."""
    n = space.n
    return MatrixSubspace(
        space.field, n, space.basis.vanishing_at([i * n + j for i, j in positions]))


def column_space(space: MatrixSubspace, vec) -> VectorSubspace:
    """span{C vec : C in space} inside K^n."""
    if len(vec) != space.n:
        raise ValueError("vector has wrong length")
    f, n = space.field, space.n
    grids = [_grid(f, n, row) for row in space.basis.basis]
    return VectorSubspace._span(f, n, _images(f, grids, [f.of(x) for x in vec]))


def _grid(field, n, row) -> list:
    """The flat row of n*n canonical entries as n rows of ints: over Q
    times the least common denominator of its entries, over F_p as is."""
    (row,), _ = _cleared(field, [row])
    return [row[i * n:(i + 1) * n] for i in range(n)]


def _images(field, grids, v) -> list:
    """The products g v of ``_grid`` matrices g with a vector v of
    canonical scalars or ints, as rows for ``_span``: over Q a nonzero
    integer multiple of each product, over F_p its residues."""
    (v,), _ = _cleared(field, [v])
    p = field.p
    if p:
        return [[sum(map(mul, row, v)) % p for row in g] for g in grids]
    return [[sum(map(mul, row, v)) for row in g] for g in grids]


def rct_zero_members(space: MatrixSubspace, r: int) -> MatrixSubspace:
    """The subspace of members whose top-right r x (n-r) block vanishes."""
    n = space.n
    if not 1 <= r <= n - 1:
        raise ValueError("r = %d out of range 1..%d" % (r, n - 1))
    return members_vanishing_at(space, [(i, j) for i in range(r) for j in range(r, n)])


class BinaryProfile:
    """The 0/1 matrix B of a filtered space with its column statistics.

    ``B[i][j]`` (0-based grid) is 1 iff the coordinate projection
    e_{i+1}^t (level j+1 column space) is nonzero; ``b[j]`` counts the
    ones in column j; ``col_dims[j]`` is the dimension of the level-(j+1)
    column space; ``d[k]`` is the generic dimension of level k (0..n).
    """

    __slots__ = ("n", "B", "b", "col_dims", "d")

    def __init__(self, n, B, b, col_dims, d):
        B = tuple(tuple(int(x) for x in row) for row in B)
        b = tuple(int(x) for x in b)
        col_dims = tuple(int(x) for x in col_dims)
        d = tuple(int(x) for x in d)
        if len(B) != n or any(len(row) != n for row in B):
            raise ValueError("B must be n x n")
        if any(x not in (0, 1) for row in B for x in row):
            raise ValueError("B entries must be 0/1")
        if len(b) != n or len(col_dims) != n or len(d) != n + 1:
            raise ValueError("bad vector lengths")
        for j in range(n):
            if b[j] != sum(B[i][j] for i in range(n)):
                raise ValueError("b[%d] does not match column of B" % j)
            if b[j] < col_dims[j]:
                raise ValueError("b[%d] < column dimension" % j)
        if d[0] != 0 or any(d[k] > d[k + 1] for k in range(n)):
            raise ValueError("d must be nondecreasing from 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "col_dims", col_dims)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *a):
        raise AttributeError("BinaryProfile is immutable")

    def rows_increasing(self) -> bool:
        """B_ij = 0 implies B_i(j-1) = 0: ones extend to the right."""
        return all(
            self.B[i][j] <= self.B[i][j + 1]
            for i in range(self.n) for j in range(self.n - 1))

    def columns_decreasing_above_diagonal(self) -> bool:
        """Within each column, above the diagonal the ones sit on top."""
        return all(
            self.B[i][j] >= self.B[i + 1][j]
            for j in range(self.n) for i in range(j - 1))

    def __eq__(self, other):
        return (
            isinstance(other, BinaryProfile)
            and (self.n, self.B, self.b, self.col_dims, self.d) ==
                (other.n, other.B, other.b, other.col_dims, other.d)
        )

    def __hash__(self):
        return hash((self.n, self.B, self.b, self.col_dims, self.d))

    def __repr__(self):
        grid = "; ".join("".join(str(x) for x in row) for row in self.B)
        return "BinaryProfile(B=[%s], b=%r, d=%r)" % (grid, self.b, self.d)


class Filtration:
    """The column filtration C_0 <= C_1 <= ... <= C_n of a space, read once.

    One elimination of the basis rows, with the coordinates ordered by
    matrix column, last column first, gives an adapted basis: a row
    vanishes on columns k..n-1 iff its pivot lies past their
    coordinates, so those rows span C_k.  ``grids`` holds that basis
    bottom-up as ``_grid`` matrices, cleared once, so its first
    ``dims[k]`` members span C_k; the column spaces and the rank bounds
    are integer products with them.  ``d[k]`` is
    read off the bounds of ``_rank_bounds`` when they meet at every
    level for some point; otherwise one Bareiss run over the columns C*x,
    in that order, gives every generic dimension: ``d[k]`` counts its
    pivots among the first ``dims[k]``.
    """

    __slots__ = ("space", "grids", "dims", "d")

    def __init__(self, space: MatrixSubspace):
        f, n = space.field, space.n
        # Entry (i, j) sits at coordinate (n - 1 - j) n + i.
        rows = [[row[i * n + j] for j in range(n - 1, -1, -1) for i in range(n)]
                for row in space.basis.basis]
        pivots = _eliminate(f, rows, n * n)
        grids = tuple(_grid(f, n, [row[(n - 1 - j) * n + i] for i in range(n) for j in range(n)])
                      for row in reversed(rows))
        dims = [sum(n - 1 - c // n < k for c in pivots) for k in range(n + 1)]
        d = next((lower for lower, upper in _rank_bounds(f, n, grids, dims) if lower == upper),
                 None)
        if d is None:
            generic = _action_pivots(f, n, [[x for r in g for x in r] for g in grids])
            d = [sum(c < dk for c in generic) for dk in dims]
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "dims", tuple(dims))
        object.__setattr__(self, "d", tuple(d))

    def __setattr__(self, *a):
        raise AttributeError("Filtration is immutable")

    def column_space(self, k: int, vec) -> VectorSubspace:
        """span{C vec : C in C_k} inside K^n, for n canonical scalars."""
        if not 0 <= k <= self.space.n:
            raise ValueError("level %d out of range 0..%d" % (k, self.space.n))
        return VectorSubspace._span(
            self.space.field, self.space.n,
            _images(self.space.field, self.grids[:self.dims[k]], vec))

    def profile(self) -> BinaryProfile:
        """The binary profile of the space, read off this filtration."""
        f, n = self.space.field, self.space.n
        B = [[0] * n for _ in range(n)]
        col_dims = []
        for j in range(1, n + 1):
            cs = self.column_space(j, _basis_vector(f, n, j))
            col_dims.append(cs.dim)
            for row in cs.basis:
                for i in range(n):
                    if row[i] != f.zero:
                        B[i][j - 1] = 1
        b = [sum(B[i][j] for i in range(n)) for j in range(n)]
        return BinaryProfile(n, B, b, col_dims, self.d)


# The points v of the lower bounds, by 0-based coordinate j, in the order tried.
# The third differs mod 2 from the first two for n >= 3, so F_2 sees three points.
_POINTS = (lambda j: 1, lambda j: j + 1, lambda j: (j + 1) * (j + 2) // 2)


def _rank_bounds(field, n, grids, dims):
    """``(lower, upper)`` bounds on the generic rank of the first ``dims[k]``
    ``_grid`` matrices at every level k, once per point of ``_POINTS``.

    C x lies in the column space of C, so the generic rank of C_1..C_m is
    at most min(m, rank [C_1 | ... | C_m]); a minor that is nonzero at v
    is nonzero over K(x), so it is at least the rank of C_1 v .. C_m v.
    """
    span = _eliminate(field, [[x for g in grids for x in g[i]] for i in range(n)],
                      n * len(grids))
    upper = [min(m, sum(c < n * m for c in span)) for m in dims]
    for point in _POINTS:
        images = _images(field, grids, [point(j) for j in range(n)])
        pivots = _eliminate(field, [[im[i] for im in images] for i in range(n)], len(grids))
        lower = [sum(c < m for c in pivots) for m in dims]
        if any(lo > up for lo, up in zip(lower, upper)):
            raise AssertionError("rank bounds cross (lower %r, upper %r); this "
                                 "indicates a bug in the generic-rank machinery"
                                 % (lower, upper))
        yield lower, upper


def _basis_vector(field, n, k):
    return tuple(field.one if i == k - 1 else field.zero for i in range(n))


def binary_profile(space: MatrixSubspace) -> BinaryProfile:
    """The binary matrix B with counts b, column dims, and generic dims d."""
    return Filtration(space).profile()


def find_generic_vector(fil: Filtration, k: int, require_pivot_one=False):
    """A vector v with v_{k+1} = ... = v_n = 0 whose column space at
    level k has the full generic dimension d_k; with ``require_pivot_one``
    additionally v_k = 1.

    Deterministic: scans the grid S^k, S the first min(#K, d_k + 1)
    canonical field elements, in lexicographic order.  The vanishing
    bound for the top minor guarantees a witness whenever #K >= d_k
    (#K > d_k for the pivot form); below those bounds the scan may still
    succeed, and FieldTooSmallError is raised only when it does not.
    """
    f, n = fil.space.field, fil.space.n
    if not int(require_pivot_one) <= k <= n:
        raise ValueError("level %d out of range %d..%d" % (k, require_pivot_one, n))
    dk = fil.d[k]
    zero, one = f.zero, f.one
    if dk == 0:
        v = [zero] * n
        if require_pivot_one:
            v[k - 1] = one
        return tuple(v)
    grid = f.first_elements(dk + 1)
    tail = (zero,) * (n - k)
    for point in itertools.product(grid, repeat=k):
        if require_pivot_one and point[k - 1] == zero:
            continue
        v = point + tail
        if fil.column_space(k, v).dim == dk:
            if require_pivot_one and point[k - 1] != one:
                inv = f.inv(point[k - 1])
                v = tuple(f.mul(inv, x) for x in v)
            return v
    needed = dk + require_pivot_one
    if f.size_at_least(needed):
        raise AssertionError(
            "no generic vector found at level %d despite #K bound; "
            "this indicates a bug in the generic-rank machinery" % k)
    raise FieldTooSmallError(
        "no vector over K attains generic dimension %d at level %d "
        "(guaranteed only for #K >= %d)" % (dk, k, needed), needed=needed)
