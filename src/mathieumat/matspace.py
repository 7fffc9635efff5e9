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
solved for as basis coefficients; the trace dual of a space of small
codimension is read off the space's own RREF by ``_complement``.  The
binary profile, the generic-vector search and the normalization moves
read all levels, their column spaces and generic dimensions off one
:class:`Filtration`: one forward elimination, then cheap bounds on each
generic dimension.  Evaluation at a point gives a lower bound; where it
reaches min(m, n) or meets the upper bound the dimension is exact, and
one Bareiss run decides the rest.  The column space of level k along
e_k, which drives the moves and is column k of the profile, has column
k of the basis matrices that level k adds as a basis: its dimension and
support are read off those vectors, and its RREF is formed only for the
unit-triangular move.

Products that feed an elimination stay on integers: they read the basis
as ``VectorSubspace.rows``, integer rows over Q.  ``conjugate``, the
one conjugation path, clears t^-1 and t once and hands the flat rows of
t^-1 M t to one elimination.  A :class:`Filtration` holds its adapted
basis as integer grids; the generic-vector scan and the rank bounds
eliminate integer images of them forward only, for their rank: the scan
needs the dimension of a candidate's column space, not the space.
``MatrixSubspace.basis_matrices`` and the ``Fraction`` basis of a space
over Q are views built when read, and never kept: a space that is only
loaded, conjugated, filtered, dualized, compared or reported builds neither.
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
    _complement,
    _eliminate,
    _grid,
    _kernel,
    _readout,
    _scalars,
    invert,
)
from .multipoly import _action_pivots


class MatrixSubspace(_Frozen):
    """A K-linear subspace of Mat_n(K) with a canonical basis."""

    __slots__ = ("field", "n", "basis")

    def __init__(self, field: Field, n: int, basis: VectorSubspace):
        if basis.field != field or basis.ambient_dim != n * n:
            raise ValueError("basis does not live in Mat_%d" % n)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", basis)

    @property
    def basis_matrices(self) -> tuple:
        """The basis rows as n x n matrices, built when read."""
        n = self.n
        return tuple(DenseMatrix._trusted(self.field, _grid(n, row), n)
                     for row in self.basis.basis)

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

    def adjoin_identity(self) -> "MatrixSubspace":
        """The sum with the scalar line K*I."""
        f, n = self.field, self.n
        eye = [int(i % (n + 1) == 0) for i in range(n * n)]
        return MatrixSubspace(f, n, VectorSubspace._span(f, n * n, [*self.basis.rows, eye]))

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
    original space.  It is the transpose of the annihilator of the basis
    rows, and the smaller side is eliminated: above half of Mat_n (the
    small codimensions) the annihilator's vectors, read off the space's
    RREF by ``_complement``; otherwise the basis rows, by ``_kernel``.
    """
    f, n, basis = space.field, space.n, space.basis
    small = 2 * basis.dim > n * n
    rows = _complement(f, basis.rows, basis.pivots, n * n) if small else basis.rows
    # tr(C M) = sum_ij C_ij M_ji: the coefficient of C_ij is M_ji.
    rows = [[row[j * n + i] for i in range(n) for j in range(n)] for row in rows]
    dual = VectorSubspace._span(f, n * n, rows) if small else _kernel(f, rows, n * n)
    return MatrixSubspace(f, n, dual)


def conjugate(space: MatrixSubspace, t: DenseMatrix) -> MatrixSubspace:
    """The subspace t^-1 (space) t; raises SingularMatrixError for bad t.

    The dot products are taken on integers: t^-1 and t are cleared once,
    the basis rows are integers already, and each product goes to one
    elimination as an integer row."""
    f, n, p = space.field, space.n, space.field.p
    if t.field != f or (t.rows, t.cols) != (n, n):
        raise ValueError("conjugator is not an n x n matrix over the field")
    a, _ = _cleared(f, invert(t).entries)
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
    rows = [[v[c] for c in coords] + list(v) for v in space.basis.rows]
    k = len(coords)
    return MatrixSubspace(space.field, n, _readout(space.field, rows, k, k + n * n))


def column_space(space: MatrixSubspace, vec) -> VectorSubspace:
    """span{C vec : C in space} inside K^n."""
    if len(vec) != space.n:
        raise ValueError("vector has wrong length")
    f, n = space.field, space.n
    grids = [_grid(n, row) for row in space.basis.rows]
    (v,), _ = _cleared(f, [[f.of(x) for x in vec]])
    return VectorSubspace._span(f, n, _images(f, grids, v))


def _images(field, grids, v) -> list:
    """The products g v of ``linalg._grid`` matrices g with an integer
    vector v, as rows for ``_span``: over Q the integer products, over
    F_p their residues."""
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
    ``Filtration.profile`` builds it of tuples of ints; normalize's postconditions check it.
    """
    __slots__ = ()

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

    One forward-only elimination of the basis rows (``first = n*n``),
    with the coordinates ordered by matrix column, last column first,
    gives an echelon basis, and any echelon basis in that order is
    adapted: a row vanishes on columns k..n-1 iff its pivot lies past
    their coordinates, so those rows span C_k.  ``grids`` holds that
    basis bottom-up as ``linalg._grid`` matrices of integer rows, so its first
    ``dims[k]`` members span C_k.  Everything read from them (``dims``,
    the rank bounds, the Bareiss pivots, the column spaces along e_k and
    the generic-vector ranks) depends only on those spans, so no
    back-substitution is needed.  C e_k is column k of C, on which the
    first ``dims[k - 1]`` members vanish and the ones that level k adds
    pivot at distinct entries, so column k of those, ``columns[k - 1]``,
    is a basis of the column space of C_k along e_k: ``col_space(k)``
    forms its RREF only when asked.  The generic-vector scan and the
    rank bounds take the ranks of integer products with the grids.
    ``d[k]`` is read off the bounds of ``_rank_bounds`` when they meet at
    every level for some point; otherwise one Bareiss run over the
    columns C*x, in that order, gives every generic dimension: ``d[k]``
    counts its pivots among the first ``dims[k]``.
    """

    __slots__ = ("space", "grids", "dims", "d", "columns")

    def __init__(self, space: MatrixSubspace):
        f, n = space.field, space.n
        # Entry (i, j) sits at coordinate (n - 1 - j) n + i.
        rows = [[row[i * n + j] for j in range(n - 1, -1, -1) for i in range(n)]
                for row in space.basis.rows]
        pivots = _eliminate(f, rows, n * n, n * n)
        grids = tuple(_grid(n, [row[(n - 1 - j) * n + i] for i in range(n) for j in range(n)])
                      for row in reversed(rows))
        dims = [sum(n - 1 - c // n < k for c in pivots) for k in range(n + 1)]
        d = next((lower for lower, upper in _rank_bounds(f, n, grids, dims) if lower == upper),
                 None)
        if d is None:
            generic = _action_pivots(f, n, grids)
            d = [sum(c < dk for c in generic) for dk in dims]
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "dims", tuple(dims))
        object.__setattr__(self, "d", tuple(d))
        object.__setattr__(self, "columns", tuple(
            [[r[j] for r in g] for g in grids[dims[j]:dims[j + 1]]] for j in range(n)))

    def col_space(self, k) -> VectorSubspace:
        """The column space of C_k along e_k as a canonical subspace."""
        return VectorSubspace._span(self.space.field, self.space.n, self.columns[k - 1])

    def profile(self) -> BinaryProfile:
        """The binary profile of the space, read off this filtration."""
        n = self.space.n
        supports = [_support(n, vectors) for vectors in self.columns]
        return BinaryProfile(n, tuple(zip(*supports)), tuple(map(sum, supports)),
                             tuple(map(len, self.columns)), self.d)


def _support(n, vectors) -> list:
    """0/1 by coordinate of K^n: 1 where one of ``vectors`` is nonzero."""
    return [int(any(v[i] for v in vectors)) for i in range(n)]


# The points v of the lower bounds, by 0-based coordinate j, in the order tried.
# The third differs mod 2 from the first two for n >= 3, so F_2 sees three points.
_POINTS = (lambda j: 1, lambda j: j + 1, lambda j: (j + 1) * (j + 2) // 2)


def _rank_bounds(field, n, grids, dims):
    """``(lower, upper)`` bounds on the generic rank of the first ``dims[k]``
    ``linalg._grid`` matrices at every level k, once per point of ``_POINTS``.

    A minor that is nonzero at v is nonzero over K(x), so the generic
    rank of C_1..C_m is at least the rank of C_1 v .. C_m v; it is at
    most min(m, n), and where the lower bound reaches that at every level
    it is both bounds.  Otherwise C x lies in the column space of C, so
    the rank is at most min(m, rank [C_1 | ... | C_m]): that elimination
    runs once, at the first point that falls short.  Only the pivots are
    read, so every elimination runs forward only (``first`` is the
    column count).
    """
    count = len(grids)
    cap = [min(m, n) for m in dims]
    upper = None
    for point in _POINTS:
        images = _images(field, grids, [point(j) for j in range(n)])
        pivots = _eliminate(field, [[im[i] for im in images] for i in range(n)], count, count)
        lower = [sum(c < m for c in pivots) for m in dims]
        if lower == cap:
            yield lower, lower
            continue
        if upper is None:
            span = _eliminate(field, [[x for g in grids for x in g[i]] for i in range(n)],
                              n * count, n * count)
            upper = [min(m, sum(c < n * m for c in span)) for m in dims]
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

    Deterministic: scans the grid S^k in lexicographic order, S the
    integers 0 .. min(#K, m) - 1 with m = max(d_k, 1) + 1 in the pivot
    form, d_k + 1 otherwise; only the point found becomes canonical
    scalars.  The top minor's vanishing bound guarantees a witness
    whenever #K >= d_k (#K > d_k for the pivot form); below those bounds
    the scan may still succeed, else FieldTooSmallError is raised.
    """
    f, n = fil.space.field, fil.space.n
    if not int(require_pivot_one) <= k <= n:
        raise ValueError("level %d out of range %d..%d" % (k, require_pivot_one, n))
    dk = fil.d[k]
    m = max(dk, require_pivot_one) + 1
    tail = (0,) * (n - k)
    for point in itertools.product(range(min(m, f.p or m)), repeat=k):
        if require_pivot_one and not point[k - 1]:
            continue
        if len(_eliminate(f, _images(f, fil.grids[:fil.dims[k]], point + tail), n, n)) == dk:
            v = _scalars(f, point + tail, 1)
            if require_pivot_one and point[k - 1] != 1:
                inv = f.inv(v[k - 1])
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
