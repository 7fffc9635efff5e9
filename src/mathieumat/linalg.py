"""Exact scalar arithmetic and dense linear algebra over F_p and Q.

Scalars are plain Python values in canonical form: residues in ``[0, p)``
(ints) for a prime field, always-reduced ``fractions.Fraction`` for the
rationals.  A :class:`Field` object supplies the arithmetic; matrices and
subspaces carry their field.  Everything here is immutable after
construction and all operations are pure, so values can be shared freely
between concurrent tasks.

Input is canonicalized once, where it enters: the public constructors
and ``VectorSubspace.reduce``/``member`` run every scalar through
``Field.of`` and check lengths.  A value held as a ``DenseMatrix``,
``VectorSubspace`` or basis row is trusted: what the package builds from
such values comes from ``DenseMatrix._trusted``, ``VectorSubspace._span``
and ``_kernel``, which neither convert nor check.

Matrix products (``DenseMatrix.mul``, behind ``power``) take their dot
products on integers: over Q each operand is scaled once by the least
common denominator of its entries, the dot products are sums of ``int``
products, and each output entry is one ``Fraction`` of its sum over the
two denominators; over F_p the dot products are reduced once per entry.
A product whose only use is to feed an elimination is not made a matrix
at all: ``_span`` and ``_eliminate`` take over Q any nonzero integer
multiple of a row, so ``matspace`` hands them its integer products
(conjugates, column-space images) as they are, and ``invert`` eliminates
the rows ``[m | I]`` as lists.

Gauss-Jordan elimination (behind ``rref``, ``kernel``, ``invert`` and
:meth:`VectorSubspace.from_vectors`) works on integers.  It copies its
rows once, as lists, and then updates those lists in place.  Over Q a
row of ``int`` is taken as it is and any other row is scaled to
integers; the rows are eliminated fraction-free, and only the finished
rows become ``Fraction`` again, divided by their pivots (a zero entry is
``field.zero`` itself).  Over F_p a pivot row is scaled to 1 unless its
pivot is 1 already, and the other rows are updated from the pivot
column on, with no final division.  The reduced echelon form is unique,
so the result does not depend on the scaling.  A kernel is the complement of
the row space: ``_kernel`` eliminates the system's rows once, reversed,
and its vectors, one per non-pivot, are already the canonical RREF.

"The vectors of a row space that satisfy linear conditions" is read off
one elimination (``_readout``): put the conditions' coordinates first,
eliminate once, and keep the rows whose pivot lies past them.  Those rows,
with the leading zeros dropped, are already the canonical RREF basis of
the answer.  :meth:`VectorSubspace.intersect` (Zassenhaus rows ``(u, u)``
and ``(w, 0)``) and :meth:`VectorSubspace.vanishing_at` (behind
``matspace.members_vanishing_at``) are built on it.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from fractions import Fraction

from .errors import SingularMatrixError


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; bases 2,3,5,7 are exact below 3.2e9.
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """A prime field F_p (``p`` > 0) or the rationals (``p`` == 0)."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int):
        if p != 0:
            if p >= 2**31:
                raise ValueError("prime must be < 2**31, got %d" % p)
            if not _is_prime(p):
                raise ValueError("%d is not prime" % p)
        object.__setattr__(self, "p", p)
        # Canonical constants, built once; Fractions are immutable, so sharing is safe.
        object.__setattr__(self, "zero", 0 if p else Fraction(0))
        object.__setattr__(self, "one", 1 if p else Fraction(1))

    def __setattr__(self, *a):
        raise AttributeError("Field is immutable")

    @staticmethod
    def prime(p: int) -> "Field":
        if p == 0:
            raise ValueError("characteristic 0 is Field.rationals()")
        return Field(p)

    @staticmethod
    def rationals() -> "Field":
        return Field(0)

    def size_at_least(self, k: int) -> bool:
        return self.p == 0 or self.p >= k

    def of(self, x):
        """Canonical representative of a rational in this field.

        Accepts an ``int`` (or ``bool``, or any ``numbers.Integral`` such as
        a numpy integer) and a ``Fraction``; anything else, a float or a
        string included, raises ``TypeError``.  Over F_p a fraction whose
        denominator p divides raises ``ValueError``.
        """
        p = self.p
        if type(x) is not int:
            if isinstance(x, Fraction):
                if not p:
                    return x if type(x) is Fraction else Fraction(x)
                if x.denominator % p == 0:
                    raise ValueError("%s has no value in F_%d: %d divides its denominator"
                                     % (x, p, p))
                return x.numerator * pow(x.denominator, -1, p) % p
            if not isinstance(x, numbers.Integral):
                raise TypeError("a field scalar must be an int or a Fraction, got %r" % (x,))
            x = int(x)
        return x % p if p else Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return -a % self.p if self.p else -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p) if self.p else 1 / a

    def elements(self):
        """All field elements in canonical order (prime fields only)."""
        if not self.p:
            raise ValueError("the rationals are not enumerable")
        return range(self.p)

    def first_elements(self, k: int):
        """The first ``k`` canonical elements: 0, 1, 2, ...

        For F_p at most ``p`` are available; the rationals never run out.
        """
        if self.p:
            return list(range(min(k, self.p)))
        return [Fraction(i) for i in range(k)]

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "F%d" % self.p if self.p else "Q"


class DenseMatrix:
    """Immutable dense matrix with exact entries over a fixed field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries, cols: int | None = None):
        rows = tuple(tuple(field.of(x) for x in row) for row in entries)
        ncol = len(rows[0]) if rows else (cols or 0)
        if any(len(row) != ncol for row in rows):
            raise ValueError("ragged rows")
        self._set(field, rows, ncol)

    def _set(self, field, rows, cols) -> "DenseMatrix":
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", rows)
        return self

    @staticmethod
    def _trusted(field, rows, cols) -> "DenseMatrix":
        """The matrix of ``rows`` of ``cols`` canonical entries, unchecked."""
        return object.__new__(DenseMatrix)._set(field, tuple(map(tuple, rows)), cols)

    def __setattr__(self, *a):
        raise AttributeError("DenseMatrix is immutable")

    @staticmethod
    def identity(field, n) -> "DenseMatrix":
        z, o = field.zero, field.one
        return DenseMatrix._trusted(
            field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @staticmethod
    def unit(field, rows, cols, i, j) -> "DenseMatrix":
        """The matrix with a single 1 at position (i, j)."""
        z = field.zero
        m = [[z] * cols for _ in range(rows)]
        m[i][j] = field.one
        return DenseMatrix._trusted(field, m, cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def _entrywise(self, other, op) -> "DenseMatrix":
        if self.field != other.field or (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("entrywise operation on different shapes or fields")
        return DenseMatrix._trusted(self.field, [
            [op(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ], self.cols)

    def __add__(self, other):
        return self._entrywise(other, self.field.add)

    def __sub__(self, other):
        return self._entrywise(other, self.field.sub)

    def __neg__(self):
        f = self.field
        return DenseMatrix._trusted(f, [[f.neg(a) for a in row] for row in self.entries],
                                    self.cols)

    def scale(self, c) -> "DenseMatrix":
        f = self.field
        c = f.of(c)
        return DenseMatrix._trusted(f, [[f.mul(c, a) for a in row] for row in self.entries],
                                    self.cols)

    def mul(self, other: "DenseMatrix") -> "DenseMatrix":
        """The matrix product, with the dot products taken on integers:
        over Q each operand is scaled once by the least common denominator
        of its entries, and each entry of the result is one ``Fraction``
        of its integer sum over the product of the two denominators."""
        if self.field != other.field or self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d over %r @ %dx%d over %r" % (
                self.rows, self.cols, self.field, other.rows, other.cols, other.field))
        f = self.field
        a, da = _cleared(f, self.entries)
        bt, db = _cleared(f, [other.column(j) for j in range(other.cols)])
        return DenseMatrix._trusted(f, [
            _scalars(f, [sum(map(operator.mul, row, col)) for col in bt], da * db) for row in a
        ], other.cols)

    def power(self, k: int) -> "DenseMatrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out.mul(base)
            k >>= 1
            if k:
                base = base.mul(base)
        return DenseMatrix.identity(self.field, self.rows) if out is None else out

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix._trusted(
            self.field, [self.column(j) for j in range(self.cols)], self.rows)

    def trace(self):
        f = self.field
        t = f.zero
        for i in range(min(self.rows, self.cols)):
            t = f.add(t, self.entries[i][i])
        return t

    def column(self, j) -> tuple:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.entries for x in row)

    def flatten(self) -> tuple:
        """Row-major vectorization."""
        return tuple(x for row in self.entries for x in row)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return "DenseMatrix(%r, [%s])" % (self.field, body)


def _cleared(field, rows):
    """``(int_rows, d)``: over Q the rows times ``d``, the least common
    denominator of all their entries, as lists of ints; over F_p the
    rows themselves and 1."""
    if field.p:
        return rows, 1
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _scalars(field, ints, d) -> tuple:
    """The canonical scalars ``x / d`` for the integers ``x`` in ``ints``
    and a nonzero integer ``d``; a zero is ``field.zero`` itself.  Over
    F_p, ``d`` is 1: ``_cleared`` gives 1 there, and ``_eliminate`` divides
    by its pivots only over Q."""
    if field.p:
        p = field.p
        return tuple(x % p for x in ints)
    z = field.zero
    return tuple(Fraction(x, d) if x else z for x in ints)


def _eliminate(field, rows, ncols, first=0):
    """Gauss-Jordan on a list of rows, copied once, then updated in place
    (the caller's row lists are never written to); returns pivots.

    Over F_p a pivot row is scaled to 1 unless its pivot is 1 already,
    and the other rows are cleared on the columns from the pivot on only
    (the pivot row is zero before it); no final division is needed.
    Over Q it is fraction-free: a row of ``int`` is taken as it is, any
    other row is first scaled to integers; a row is cleared at a pivot
    by cross-multiplication, ``a * row - b * pivot_row``, and then
    divided by the gcd of its entries; only the finished rows are
    divided by their pivots.  Either way the result is the unique RREF,
    with canonical entries.  Over Q a row may hold ``int`` as well as
    ``Fraction`` entries, and any nonzero integer multiple of a row gives
    the same result; over F_p the entries are residues in [0, p).

    Columns before ``first`` are only eliminated forward, and the rows
    pivoting there are left unfinished: the rows pivoting at ``first`` or
    later are then the RREF of the row space's members that vanish
    before ``first`` (see ``_readout``), and the others are dropped.
    """
    p = field.p
    if p:
        rows[:] = map(list, rows)
    else:
        rows[:] = [list(row) if all(type(x) is int for x in row) else _cleared(field, [row])[0][0]
                   for row in rows]
    n = len(rows)
    pivots = []
    r = top = 0
    for c in range(ncols):
        if r == n:
            break
        for src in range(r, n):
            if rows[src][c]:
                break
        else:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        prow = rows[r]
        a = prow[c]
        if p:
            if a != 1:
                inv = pow(a, -1, p)
                prow[c:] = [x * inv % p for x in prow[c:]]
            tail = prow[c:]
        for i in range(r + 1 if c < first else top, n):
            row = rows[i]
            b = row[c]
            if i == r or not b:
                continue
            if p:
                row[c:] = [(x - b * y) % p for x, y in zip(row[c:], tail)]
                continue
            row = [a * x - b * y for x, y in zip(row, prow)]
            g = math.gcd(*row)
            if g > 1:
                row = [x // g for x in row]
            rows[i] = row
        pivots.append(c)
        r += 1
        if c < first:
            top = r
    if not p:
        for i in range(top, r):
            rows[i] = _scalars(field, rows[i], rows[i][pivots[i]])
    for i in range(r, n):
        rows[i] = [field.zero] * ncols
    return pivots


def rref(m: DenseMatrix):
    """Reduced row echelon form.

    Returns ``(reduced, rank, pivots)`` where ``reduced`` is the unique
    RREF of ``m``, ``rank`` its number of nonzero rows and ``pivots`` the
    strictly increasing pivot column indices.
    """
    rows = list(m.entries)
    pivots = _eliminate(m.field, rows, m.cols)
    return DenseMatrix._trusted(m.field, rows, m.cols), len(pivots), tuple(pivots)


class VectorSubspace:
    """A subspace of K^n held by its canonical RREF basis.

    Two subspaces are equal iff their basis grids are identical, which
    makes equality structural.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, basis, pivots):
        # Internal: callers go through from_vectors / _span / full.
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, *a):
        raise AttributeError("VectorSubspace is immutable")

    @staticmethod
    def from_vectors(field, ambient_dim, vectors) -> "VectorSubspace":
        rows = [[field.of(x) for x in v] for v in vectors]
        if any(len(row) != ambient_dim for row in rows):
            raise ValueError("vector length != ambient dimension")
        return VectorSubspace._span(field, ambient_dim, rows)

    @staticmethod
    def _span(field, ambient_dim, rows) -> "VectorSubspace":
        """The span of rows of ``ambient_dim`` entries, unchecked: canonical
        scalars, or over Q any nonzero integer multiple of a row (rows of
        ``int``, as the integer products of ``matspace`` hand over)."""
        rows = list(rows)
        pivots = _eliminate(field, rows, ambient_dim)
        basis = tuple(map(tuple, rows[:len(pivots)]))
        return VectorSubspace(field, ambient_dim, basis, tuple(pivots))

    @staticmethod
    def full(field, ambient_dim) -> "VectorSubspace":
        eye = DenseMatrix.identity(field, ambient_dim)
        return VectorSubspace(field, ambient_dim, eye.entries, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v) -> tuple:
        """Residual of ``v`` after reduction against the basis."""
        v = [self.field.of(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        return self._reduce(v)

    def _reduce(self, v) -> tuple:
        """``reduce`` of ``ambient_dim`` canonical entries, unchecked."""
        f = self.field
        for row, piv in zip(self.basis, self.pivots):
            c = v[piv]
            if c != f.zero:
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return tuple(v)

    def member(self, v) -> bool:
        return not any(self.reduce(v))

    def sum(self, other: "VectorSubspace") -> "VectorSubspace":
        self._check_compatible(other)
        return VectorSubspace._span(self.field, self.ambient_dim, self.basis + other.basis)

    def intersect(self, other: "VectorSubspace") -> "VectorSubspace":
        """Intersection read off the Zassenhaus rows (u, u) and (w, 0):
        their row space meets 0 x K^n in exactly 0 x (self & other)."""
        self._check_compatible(other)
        zeros = [self.field.zero] * self.ambient_dim
        rows = [list(u) + list(u) for u in self.basis] + [list(w) + zeros for w in other.basis]
        return _readout(self.field, rows, self.ambient_dim, 2 * self.ambient_dim)

    def vanishing_at(self, coords) -> "VectorSubspace":
        """The members whose coordinates at the indices ``coords`` vanish."""
        if not coords:
            return self
        rows = [[v[c] for c in coords] + list(v) for v in self.basis]
        return _readout(self.field, rows, len(coords), len(coords) + self.ambient_dim)

    def _check_compatible(self, other):
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other):
        return (
            isinstance(other, VectorSubspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return "VectorSubspace(%r, dim %d of K^%d)" % (self.field, self.dim, self.ambient_dim)


def _readout(field, rows, k, ncols) -> VectorSubspace:
    """Eliminate ``rows`` (of length ``ncols``) once; the subspace of
    K^(ncols - k) made of the members of their row space whose first k
    coordinates vanish.

    After forward elimination on the first k columns, the rows without a
    pivot there span those members; reduced, and without their k leading
    zeros, they are that subspace's canonical RREF.
    """
    pivots = _eliminate(field, rows, ncols, k)
    first = sum(c < k for c in pivots)
    basis = tuple(tuple(row[k:]) for row in rows[first:len(pivots)])
    return VectorSubspace(field, ncols - k, basis, tuple(c - k for c in pivots[first:]))


def kernel(m: DenseMatrix) -> VectorSubspace:
    """The right kernel {v : m v = 0} as a canonical subspace."""
    return _kernel(m.field, m.entries, m.cols)


def _kernel(field, rows, m) -> VectorSubspace:
    """{v : row . v = 0 for every row}, rows of m canonical entries, read
    off the RREF R' of the reversed rows: for each non-pivot f of R', in
    descending order, the vector with 1 at m-1-f and -R'[r][f] at m-1-q_r
    for each pivot q_r < f.  Its first nonzero is at m-1-f, and it vanishes
    at the other non-pivots (the kernel's pivots): the basis is canonical.
    """
    rows = [row[::-1] for row in rows]
    pivots = _eliminate(field, rows, m)
    z, o, taken = field.zero, field.one, set(pivots)
    free = [f for f in range(m - 1, -1, -1) if f not in taken]
    basis = []
    for f in free:
        v = [z] * m
        v[m - 1 - f] = o
        for row, q in zip(rows, pivots):
            if q > f:
                break
            if row[f]:
                v[m - 1 - q] = field.neg(row[f])
        basis.append(tuple(v))
    return VectorSubspace(field, m, tuple(basis), tuple(m - 1 - f for f in free))


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


def invert(m: DenseMatrix) -> DenseMatrix:
    """Inverse of a square matrix; raises SingularMatrixError if rank-deficient.

    One elimination of the rows ``[m | I]``: m is invertible iff the
    pivots are its n columns, and then the right half is the inverse."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    f, n = m.field, m.rows
    rows = [list(row) + [0] * i + [1] + [0] * (n - 1 - i) for i, row in enumerate(m.entries)]
    if _eliminate(f, rows, 2 * n) != list(range(n)):
        raise SingularMatrixError("matrix has rank < %d" % n)
    return DenseMatrix._trusted(f, [row[n:] for row in rows], n)


def all_matrices(field, rows, cols):
    """All rows x cols matrices, lexicographic by row-major entries."""
    for flat in itertools.product(field.elements(), repeat=rows * cols):
        yield DenseMatrix._trusted(
            field, [flat[i * cols:(i + 1) * cols] for i in range(rows)], cols)


def all_subspaces(field, ambient_dim, dim):
    """All dim-dimensional subspaces of K^ambient_dim (prime fields only).

    Enumerates canonical RREF bases directly: every subspace appears
    exactly once, grouped by pivot-column pattern.
    """
    for pivots in itertools.combinations(range(ambient_dim), dim):
        pivot_set = set(pivots)
        free_slots = [
            (r, c)
            for r in range(dim)
            for c in range(pivots[r] + 1, ambient_dim)
            if c not in pivot_set
        ]
        for values in itertools.product(field.elements(), repeat=len(free_slots)):
            rows = [[field.zero] * ambient_dim for _ in range(dim)]
            for r in range(dim):
                rows[r][pivots[r]] = field.one
            for (r, c), v in zip(free_slots, values):
                rows[r][c] = v
            basis = tuple(tuple(r) for r in rows)
            yield VectorSubspace(field, ambient_dim, basis, tuple(pivots))
