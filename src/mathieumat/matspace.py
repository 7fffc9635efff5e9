"""K-subspaces of Mat_n(K): trace duality, conjugation, filtration, profile.

A subspace is held as a canonical RREF basis of its row-major
vectorization, so subspace equality is structural.  Levels ``k`` of the
column filtration run from 0 (zero space) to n (the whole space);
coordinate indices such as the ``k`` of ``e_k`` are 1-based to match the
usual linear-algebra convention, while raw matrix entries stay 0-based.

Members cut out by vanishing entries (``members_vanishing_at``, behind
the zero-corner members and ``idempotents.corner_slice``; the rows of
``verify.max_left_ideal`` use the same readout) and intersections are
read off a single elimination of the basis rows in ``linalg``, not
solved for as basis coefficients.  The binary profile, the generic-vector search and the
normalization moves read all levels, their column spaces and generic
dimensions off one :class:`Filtration`: one elimination, then two cheap
bounds on each generic dimension.  Evaluation at a point gives only a
lower bound; where it meets the upper bound the dimension is exact, and
one Bareiss run decides the rest.  The column space of level k along
e_k, which drives the moves and is column k of the profile, is read once
per level, off column k of the level's basis matrices.

Products that feed an elimination stay on integers: they read the basis
as ``VectorSubspace.rows``, integer rows over Q.  ``_conjugate``, the
one conjugation path (behind ``conjugate`` and
``verify.left_ideal_normal_form``), clears t^-1 and t once and hands
the flat rows of t^-1 M t to one elimination.  A :class:`Filtration`
holds its adapted basis as integer grids: its column spaces along e_k
eliminate their columns, and the generic-vector scan and the rank bounds
eliminate integer images of them forward only, for their rank: the scan
needs the dimension of a candidate's column space, not the space.
``MatrixSubspace.basis_matrices`` and the ``Fraction`` basis of a space
over Q are views built on their first read: a space that is only
loaded, conjugated, filtered, dualized or compared never builds either.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import mul

from .errors import FieldTooSmallError
from .linalg import (
    DenseMatrix,
    Field,
    VectorSubspace,
    _Frozen,
    _cleared,
    _eliminate,
    _kernel,
    _readout,
    invert,
)
from .multipoly import _action_pivots


class MatrixSubspace(_Frozen):
    """A K-linear subspace of Mat_n(K) with a canonical basis."""

    __slots__ = ("field", "n", "basis", "_matrices")

    def __init__(self, field: Field, n: int, basis: VectorSubspace):
        if basis.field != field or basis.ambient_dim != n * n:
            raise ValueError("basis does not live in Mat_%d" % n)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_matrices", None)

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
        vecs, _ = _cleared(field, vecs)
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
        (v,), _ = _cleared(self.field, [m.flatten()])
        return not any(self.basis._reduce(v)[0])

    def contains_identity(self) -> bool:
        n = self.n
        return not any(self.basis._reduce([int(i % (n + 1) == 0) for i in range(n * n)])[0])

    def sum(self, other: "MatrixSubspace") -> "MatrixSubspace":
        return MatrixSubspace(self.field, self.n, self.basis.sum(other.basis))

    def adjoin_identity(self) -> "MatrixSubspace":
        """The sum with the scalar line K*I."""
        f, n = self.field, self.n
        eye = VectorSubspace._span(f, n * n, [[int(i % (n + 1) == 0) for i in range(n * n)]])
        return self.sum(MatrixSubspace(f, n, eye))

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
    n = space.n
    # tr(C M) = sum_ij C_ij M_ji: the coefficient of C_ij is M_ji.
    rows = [[m[j * n + i] for i in range(n) for j in range(n)] for m in space.basis.rows]
    return MatrixSubspace(space.field, n, _kernel(space.field, rows, n * n))


def conjugate(space: MatrixSubspace, t: DenseMatrix) -> MatrixSubspace:
    """The subspace t^-1 (space) t; raises SingularMatrixError for bad t."""
    if t.field != space.field or (t.rows, t.cols) != (space.n, space.n):
        raise ValueError("conjugator is not an n x n matrix over the field")
    return _conjugate(space, t, invert(t))


def _conjugate(space: MatrixSubspace, t: DenseMatrix, t_inv: DenseMatrix) -> MatrixSubspace:
    """The subspace t_inv (space) t, for t_inv the inverse of t, with
    integer dot products: t_inv and t are cleared once, the basis rows
    are integers already, and each product goes to one elimination as an
    integer row."""
    f, n, p = space.field, space.n, space.field.p
    a, _ = _cleared(f, t_inv.entries)
    b, _ = _cleared(f, [t.column(j) for j in range(n)])
    rows = []
    for row in space.basis.rows:
        m = _grid(n, row)
        mb = [[sum(map(mul, mr, col)) for mr in m] for col in b]      # the columns of m t
        prod = [sum(map(mul, ar, col)) for ar in a for col in mb]
        rows.append([x % p for x in prod] if p else prod)
    return MatrixSubspace(f, n, VectorSubspace._span(f, n * n, rows))


def members_vanishing_at(space: MatrixSubspace, positions) -> MatrixSubspace:
    """The subspace of members whose entries at the (row, column)
    ``positions`` all vanish, as a canonical space: the basis rows with
    their entries at the positions put first, read off one ``_readout``."""
    n = space.n
    if not all(0 <= i < n and 0 <= j < n for i, j in positions):
        raise ValueError("position outside the %d x %d grid" % (n, n))
    coords = [i * n + j for i, j in positions]
    if not coords:
        return space
    rows = [[v[c] for c in coords] + list(v) for v in space.basis.rows]
    k = len(coords)
    return MatrixSubspace(space.field, n, _readout(space.field, rows, k, k + n * n))


def column_space(space: MatrixSubspace, vec) -> VectorSubspace:
    """span{C vec : C in space} inside K^n."""
    if len(vec) != space.n:
        raise ValueError("vector has wrong length")
    f, n = space.field, space.n
    grids = [_grid(n, row) for row in space.basis.rows]
    return VectorSubspace._span(f, n, _images(f, grids, [f.of(x) for x in vec]))


def _grid(n, row) -> list:
    """The flat integer row of n*n entries (a ``VectorSubspace.rows``
    row) as the n rows of its matrix."""
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


class BinaryProfile(namedtuple("BinaryProfile", "n B b col_dims d")):
    """The 0/1 matrix B of a filtered space with its column statistics.

    ``B[i][j]`` (0-based grid) is 1 iff the coordinate projection
    e_{i+1}^t (level j+1 column space) is nonzero; ``b[j]`` counts the
    ones in column j; ``col_dims[j]`` is the dimension of the level-(j+1)
    column space; ``d[k]`` is the generic dimension of level k (0..n).
    """
    __slots__ = ()

    def __new__(cls, n, B, b, col_dims, d):
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
        return super().__new__(cls, n, B, b, col_dims, d)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make (behind _replace) would skip the checks above
        return cls(*iterable)

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


class Filtration(_Frozen):
    """The column filtration C_0 <= C_1 <= ... <= C_n of a space, read once.

    One elimination of the basis rows, with the coordinates ordered by
    matrix column, last column first, gives an adapted basis: a row
    vanishes on columns k..n-1 iff its pivot lies past their
    coordinates, so those rows span C_k.  ``grids`` holds that basis
    bottom-up as ``_grid`` matrices of integer rows, so its first
    ``dims[k]`` members span C_k.  C e_k is column k of C, so
    ``col_spaces[k - 1]``, the column space of C_k along e_k, spans
    column k of those grids; the generic-vector scan and the rank
    bounds take the ranks of integer products with them.  ``d[k]`` is
    read off the bounds of ``_rank_bounds`` when they meet at every
    level for some point; otherwise one Bareiss run over the columns C*x,
    in that order, gives every generic dimension: ``d[k]`` counts its
    pivots among the first ``dims[k]``.
    """

    __slots__ = ("space", "grids", "dims", "d", "col_spaces")

    def __init__(self, space: MatrixSubspace):
        f, n = space.field, space.n
        # Entry (i, j) sits at coordinate (n - 1 - j) n + i.
        rows = [[row[i * n + j] for j in range(n - 1, -1, -1) for i in range(n)]
                for row in space.basis.rows]
        pivots = _eliminate(f, rows, n * n)
        grids = tuple(_grid(n, [row[(n - 1 - j) * n + i] for i in range(n) for j in range(n)])
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
        object.__setattr__(self, "col_spaces", tuple(
            VectorSubspace._span(f, n, [[r[j] for r in g] for g in grids[:dims[j + 1]]])
            for j in range(n)))

    def profile(self) -> BinaryProfile:
        """The binary profile of the space, read off this filtration."""
        columns = [_support(cs) for cs in self.col_spaces]
        return BinaryProfile(self.space.n, zip(*columns), map(sum, columns),
                             [cs.dim for cs in self.col_spaces], self.d)


def _support(cs: VectorSubspace) -> list:
    """0/1 by coordinate: 1 where some vector of ``cs`` is nonzero."""
    return [int(any(row[i] for row in cs.rows)) for i in range(cs.ambient_dim)]


# The points v of the lower bounds, by 0-based coordinate j, in the order tried.
# The third differs mod 2 from the first two for n >= 3, so F_2 sees three points.
_POINTS = (lambda j: 1, lambda j: j + 1, lambda j: (j + 1) * (j + 2) // 2)


def _rank_bounds(field, n, grids, dims):
    """``(lower, upper)`` bounds on the generic rank of the first ``dims[k]``
    ``_grid`` matrices at every level k, once per point of ``_POINTS``.

    C x lies in the column space of C, so the generic rank of C_1..C_m is
    at most min(m, rank [C_1 | ... | C_m]); a minor that is nonzero at v
    is nonzero over K(x), so it is at least the rank of C_1 v .. C_m v.
    Only the pivots are read, so both eliminations run forward only
    (``first`` is the column count).
    """
    count = len(grids)
    span = _eliminate(field, [[x for g in grids for x in g[i]] for i in range(n)],
                      n * count, n * count)
    upper = [min(m, sum(c < n * m for c in span)) for m in dims]
    for point in _POINTS:
        images = _images(field, grids, [point(j) for j in range(n)])
        pivots = _eliminate(field, [[im[i] for im in images] for i in range(n)], count, count)
        lower = [sum(c < m for c in pivots) for m in dims]
        if any(lo > up for lo, up in zip(lower, upper)):
            raise AssertionError("rank bounds cross (lower %r, upper %r); this "
                                 "indicates a bug in the generic-rank machinery"
                                 % (lower, upper))
        yield lower, upper


def binary_profile(space: MatrixSubspace) -> BinaryProfile:
    """The binary matrix B with counts b, column dims, and generic dims d."""
    return Filtration(space).profile()


def find_generic_vector(fil: Filtration, k: int, require_pivot_one=False):
    """A vector v with v_{k+1} = ... = v_n = 0 whose column space at
    level k has the full generic dimension d_k; with ``require_pivot_one``
    additionally v_k = 1.  Only the rank of C_1 v .. C_m v is read, so
    each candidate is eliminated forward only.

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
        if len(_eliminate(f, _images(f, fil.grids[:fil.dims[k]], v), n, n)) == dk:
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
