"""Exact scalar arithmetic and dense linear algebra over F_p and Q.

Scalars are plain Python values in canonical form: residues in ``[0, p)``
(ints) for a prime field, always-reduced ``fractions.Fraction`` for the
rationals.  A :class:`Field` object supplies the arithmetic; matrices and
subspaces carry their field.  Every value is immutable after
construction (its class derives from ``_Frozen``, which refuses both
assignment and ``del``) and all operations are pure, so values can be
shared freely between concurrent tasks.

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

Elimination (``_eliminate``, behind ``_kernel``, ``invert``, every
subspace and the trace system of ``idempotents``) works on integers.  It
copies its rows once, as lists, and then updates those lists in place.
Over F_p it is Gauss-Jordan: a pivot row is scaled to 1 unless its pivot
is 1 already, and the other rows are updated from the pivot column on,
with no final division.  Over Q it takes only rows of ``int``: the entry
points that hold ``Fraction`` rows (``invert``,
``VectorSubspace.from_vectors``, ``MatrixSubspace.from_matrices``) clear
them once with ``_cleared``.  The rows are eliminated fraction-free and
stay integers: a forward pass clears the rows below each pivot, and one
back-substitution, bottom up, then changes only the free (non-pivot)
columns of the rows above.  Each finished row is the canonical RREF row
times its pivot, the primitive row with a positive pivot.  The reduced
echelon form is unique, so the result does not depend on the scaling.
A :class:`VectorSubspace` keeps those rows (``rows``) and builds its
``Fraction`` basis only when ``basis`` is read; ``invert`` and
``reduce`` divide as they return.  Membership (``_reduce``, behind
``MatrixSubspace.contains``) subtracts the rows from an integer vector
in one cross-multiplied step.  So a space over Q that is only spanned,
intersected, dualized, compared or tested with ``contains`` never builds
a ``Fraction``.  An annihilator is read off an RREF by ``_complement``
alone: ``_kernel`` eliminates the system's rows once, reversed, and
its vectors, reversed back, are the canonical RREF rows; ``verify``
reads the trace dual off the space's own RREF, with no elimination.

"The vectors of a row space that satisfy linear conditions" is read off
one elimination (``_readout``): put the conditions' coordinates first,
eliminate once, and keep the rows whose pivot lies past them.  Those rows,
with the leading zeros dropped, are already the canonical RREF basis of
the answer.  :meth:`VectorSubspace.intersect` (Zassenhaus rows ``(u, u)``
and ``(w, 0)``), ``matspace.members_vanishing_at`` (rows ``(v at the
positions, v)``) and ``verify.max_left_ideal`` are built on it.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from fractions import Fraction

from .errors import SingularMatrixError


def _is_prime(n: int) -> bool:
    # Trial division is exact and cheap here: a Field takes only p < 2**31,
    # so the divisors to try stop below 46341.
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


class _Frozen:
    """Base of the value classes: the constructors set the slots through
    ``object.__setattr__``; assigning or deleting one afterwards raises."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__


class Field(_Frozen):
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


class DenseMatrix(_Frozen):
    """Immutable dense matrix with exact entries over a fixed field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries, cols: int | None = None):
        rows = tuple(tuple(field.of(x) for x in row) for row in entries)
        ncol = len(rows[0]) if rows else (cols or 0)
        if any(len(row) != ncol for row in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != ncol:
            raise ValueError("rows have %d entries, not cols = %d" % (ncol, cols))
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

    @staticmethod
    def identity(field, n) -> "DenseMatrix":
        z, o = field.zero, field.one
        return DenseMatrix._trusted(
            field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @staticmethod
    def unit(field, rows, cols, i, j) -> "DenseMatrix":
        """The matrix with a single 1 at position (i, j)."""
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError("position outside the %d x %d grid" % (rows, cols))
        z = field.zero
        m = [[z] * cols for _ in range(rows)]
        m[i][j] = field.one
        return DenseMatrix._trusted(field, m, cols)

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
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        f = self.field
        t = f.zero
        for i in range(self.rows):
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
    F_p, ``d`` is 1, as ``_cleared`` gives it there, and a pivot is."""
    if field.p:
        p = field.p
        return tuple(x % p for x in ints)
    z = field.zero
    return tuple(Fraction(x, d) if x else z for x in ints)


def _eliminate(field, rows, ncols, first=0):
    """Eliminate a list of rows, copied once, then updated in place (the
    caller's row lists are never written to); returns the pivots.

    Over F_p it is Gauss-Jordan: a pivot row is scaled to 1 unless its
    pivot is 1 already, and the other rows are cleared from the pivot
    column on; the result is the unique RREF, residues in [0, p).

    Over Q the rows are ``int`` rows, each any nonzero integer multiple
    of its row (as ``_cleared`` gives them), and nothing is divided by a
    pivot.  A forward pass makes each pivot row primitive with a positive
    pivot and clears only the rows below it, from the pivot column on,
    by ``a * row - b * pivot_row`` divided by its gcd.  Then one
    back-substitution, bottom up, finishes the rows pivoting at ``first``
    or later.  The rows X_j below row k are finished, so they are zero at
    each other's pivots, and row k's entries b_j at their pivots clear in
    one step: with s the lcm of their pivots a_j, row k's pivot becomes
    s * a_k, each free (non-pivot) column f becomes s * row[f] - sum_j
    b_j * (s / a_j) * X_j[f], and the row is divided by its gcd.  Only the
    free columns change: c of them for a space of codimension c in Mat_n.
    Each finished row is the RREF row times its pivot, the primitive
    ``int`` row with a positive pivot, whatever multiples came in.  F_p
    keeps Gauss-Jordan: on its small systems (3 x 6 inverses, 3 x 11
    readouts) the back-substitution costs more than it saves.

    The rows after the finished ones are zero.  Columns before ``first``
    are only eliminated forward, and the rows pivoting there are left
    unfinished: the rows pivoting at ``first`` or later are then the RREF
    of the row space's members that vanish before ``first`` (see
    ``_readout``), and the others are dropped.  With ``first == ncols``
    the elimination is forward only, for callers that read only pivots.
    """
    p = field.p
    rows[:] = map(list, rows)
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
        else:
            g = math.gcd(*prow) if a > 0 else -math.gcd(*prow)
            if g != 1:
                prow[c:] = [x // g for x in prow[c:]]
                a = prow[c]
        tail = prow[c:]
        for i in range(r + 1 if c < first or not p else top, n):
            row = rows[i]
            b = row[c]
            if i == r or not b:
                continue
            if p:
                row[c:] = [(x - b * y) % p for x, y in zip(row[c:], tail)]
                continue
            new = [a * x - b * y for x, y in zip(row[c:], tail)]
            g = math.gcd(*new)
            row[c:] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if c < first:
            top = r
    if p:
        return pivots
    free = None
    for k in range(r - 2, top - 1, -1):
        row = rows[k]
        hits = [(row[c], x, x[c]) for x, c in zip(rows[k + 1:r], pivots[k + 1:]) if row[c]]
        if not hits:
            continue
        if free is None:
            taken = set(pivots)
            free = [f for f in range(pivots[top] + 1, ncols) if f not in taken]
        new, s = _subtract_rows([row[f] for f in free],
                                [(b, [x[f] for f in free], a) for b, x, a in hits])
        for c in pivots[k + 1:]:
            row[c] = 0
        c = pivots[k]
        a = s * row[c]
        g = math.gcd(a, *new)
        row[c] = a // g
        for f, v in zip(free, new):
            row[f] = v // g
    return pivots


def _subtract_rows(v, hits):
    """``(w, s)`` for an integer vector v and ``hits``, triples (b, row, a)
    of v's entry b at the pivot of a row whose pivot entry is a: s is the
    lcm of the a, and w = s v - sum (b s / a) row.  When the rows are zero
    at each other's pivots, that clears all of v's entries at them in one
    step, on integers."""
    s = math.lcm(*(a for _, _, a in hits))
    w = v if s == 1 else [s * x for x in v]
    for b, row, a in hits:
        m = b * (s // a)
        w = [x - m * y for x, y in zip(w, row)]
    return w, s


class VectorSubspace(_Frozen):
    """A subspace of K^n held by the rows of its canonical RREF basis.

    ``rows`` are the RREF rows as ``_eliminate`` leaves them: over F_p
    the basis itself, over Q each basis row times its pivot, a primitive
    ``int`` row with a positive pivot.  Both are unique, so two subspaces
    are equal iff their rows are identical, which makes equality
    structural.  ``basis`` is the canonical basis, built on the first read.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots", "_basis")

    def __init__(self, field, ambient_dim, rows, pivots):
        # Internal: callers go through from_vectors / _span / full.
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_basis", None)

    @staticmethod
    def from_vectors(field, ambient_dim, vectors) -> "VectorSubspace":
        rows = [[field.of(x) for x in v] for v in vectors]
        if any(len(row) != ambient_dim for row in rows):
            raise ValueError("vector length != ambient dimension")
        return VectorSubspace._span(field, ambient_dim, _cleared(field, rows)[0])

    @staticmethod
    def _span(field, ambient_dim, rows) -> "VectorSubspace":
        """The span of rows of ``ambient_dim`` entries, unchecked: over F_p
        residues, over Q rows of ``int``, any nonzero integer multiple of
        each row (as ``_cleared`` and the integer products of ``matspace``
        hand them over)."""
        rows = list(rows)
        pivots = _eliminate(field, rows, ambient_dim)
        return VectorSubspace(field, ambient_dim, tuple(map(tuple, rows[:len(pivots)])),
                              tuple(pivots))

    @staticmethod
    def full(field, ambient_dim) -> "VectorSubspace":
        rows = [(0,) * i + (1,) + (0,) * (ambient_dim - 1 - i) for i in range(ambient_dim)]
        return VectorSubspace(field, ambient_dim, tuple(rows), tuple(range(ambient_dim)))

    @property
    def basis(self) -> tuple:
        """The canonical RREF basis: over Q ``rows`` divided by their
        pivots, built on the first read; over F_p ``rows`` itself."""
        f = self.field
        if f.p:
            return self.rows
        if self._basis is None:
            object.__setattr__(self, "_basis", tuple(
                _scalars(f, row, row[c]) for row, c in zip(self.rows, self.pivots)))
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v) -> tuple:
        """Residual of ``v`` after reduction against the basis."""
        f = self.field
        v = [f.of(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        (v,), d = _cleared(f, [v])
        w, s = self._reduce(v)
        return _scalars(f, w, s * d)

    def _reduce(self, v) -> tuple:
        """``(w, s)``, ``w / s`` the residual of a vector of ``ambient_dim``
        entries as ``_span`` takes them, unchecked: v's entries at the
        pivots clear in one ``_subtract_rows`` step, over F_p with pivots
        1, so s = 1, and the residual taken mod p."""
        p = self.field.p
        w, s = _subtract_rows(v, [(v[c], row, row[c])
                                  for row, c in zip(self.rows, self.pivots) if v[c]])
        return ([x % p for x in w] if p else w), s

    def member(self, v) -> bool:
        return not any(self.reduce(v))

    def sum(self, other: "VectorSubspace") -> "VectorSubspace":
        self._check_compatible(other)
        return VectorSubspace._span(self.field, self.ambient_dim, self.rows + other.rows)

    def intersect(self, other: "VectorSubspace") -> "VectorSubspace":
        """Intersection read off the Zassenhaus rows (u, u) and (w, 0):
        their row space meets 0 x K^n in exactly 0 x (self & other)."""
        self._check_compatible(other)
        zeros = [0] * self.ambient_dim
        rows = [list(u) + list(u) for u in self.rows] + [list(w) + zeros for w in other.rows]
        return _readout(self.field, rows, self.ambient_dim, 2 * self.ambient_dim)

    def _check_compatible(self, other):
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other):
        return (
            isinstance(other, VectorSubspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.rows))

    def __repr__(self):
        return "VectorSubspace(%r, dim %d of K^%d)" % (self.field, self.dim, self.ambient_dim)


def _readout(field, rows, k, ncols) -> VectorSubspace:
    """Eliminate ``rows`` (of length ``ncols``) once; the subspace of
    K^(ncols - k) made of the members of their row space whose first k
    coordinates vanish.

    After forward elimination on the first k columns, the rows without a
    pivot there span those members; reduced, and without their k leading
    zeros, they are that subspace's canonical RREF rows.
    """
    pivots = _eliminate(field, rows, ncols, k)
    first = sum(c < k for c in pivots)
    kept = tuple(tuple(row[k:]) for row in rows[first:len(pivots)])
    return VectorSubspace(field, ncols - k, kept, tuple(c - k for c in pivots[first:]))


def _complement(field, rows, pivots, m) -> list:
    """The annihilator of the row space of an RREF of m columns, as
    ``_eliminate`` leaves it: for each non-pivot f, ascending, the integer
    vector d e_f - sum_r (R[r][f] d / a_r) e_(q_r), a_r the entry of row r
    at its pivot q_r and d the least positive integer making it integral
    (1 over F_p, entries mod p)."""
    p = field.p
    taken = set(pivots)
    vectors = []
    for f in range(m):
        if f in taken:
            continue
        terms = [(q, row[f], row[q]) for row, q in zip(rows, pivots) if row[f]]
        d = 1 if p else math.lcm(*(a // math.gcd(a, x) for _, x, a in terms))
        v = [0] * m
        v[f] = d
        for q, x, a in terms:
            v[q] = -x % p if p else -x * d // a
        vectors.append(v)
    return vectors


def _kernel(field, rows, m) -> VectorSubspace:
    """{v : row . v = 0 for every row}, rows of m entries as ``_span``
    takes them: the ``_complement`` of the reversed rows, reversed back.
    The vector of non-pivot f has its first nonzero at m-1-f and vanishes
    at the other non-pivots, so the basis is canonical."""
    rows = [row[::-1] for row in rows]
    pivots = _eliminate(field, rows, m)
    taken = set(pivots)
    return VectorSubspace(field, m, tuple(tuple(v[::-1]) for v in
                                          reversed(_complement(field, rows, pivots, m))),
                          tuple(i for i in range(m) if m - 1 - i not in taken))


def invert(m: DenseMatrix) -> DenseMatrix:
    """Inverse of a square matrix; raises SingularMatrixError if rank-deficient.

    One elimination of the rows ``[m | I]``: m is invertible iff the
    pivots are its n columns, and then the right half is the inverse."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    f, n = m.field, m.rows
    a, d = _cleared(f, m.entries)
    rows = [list(row) + [0] * i + [d] + [0] * (n - 1 - i) for i, row in enumerate(a)]
    if _eliminate(f, rows, 2 * n) != list(range(n)):
        raise SingularMatrixError("matrix has rank < %d" % n)
    if f.p:
        return DenseMatrix._trusted(f, [row[n:] for row in rows], n)
    return DenseMatrix._trusted(f, [_scalars(f, row[n:], row[i]) for i, row in enumerate(rows)], n)


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
