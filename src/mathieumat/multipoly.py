"""Sparse multivariate polynomials over an exact field and generic ranks.

The rank of a polynomial matrix over the rational function field
K(x_1, ..., x_n) is computed by fraction-free (Bareiss) elimination with
exact polynomial division.  Evaluation at a point gives only a lower
bound on it, since small fields can defeat evaluation at every field
point; ``matspace.Filtration`` takes a rank from evaluation only where
that bound meets an upper one, and leaves the rest to this layer.

A :class:`MultiPoly` keeps exponent tuples and canonical coefficients
(``Fraction`` over Q, residues over F_p); the zero polynomial stores no
terms, so equality of term maps is equality of polynomials.  Its
arithmetic is definitional, through the field's ``add`` and ``mul``.
Integer kernels serve the Bareiss loop only: term dicts from packed
exponent keys to ``int`` coefficients, reduced mod p only over F_p.  One
Bareiss loop over Z[x] computes every rank, on columns of term dicts
scaled by the lcm of their denominators (the rank over Q(x) does not
change); its divisions are exact in Z[x] (Bareiss, *Math. Comp.* 22,
1968).  It reads its columns straight off basis rows, with no
polynomial object in between, and returns its pivot columns: the pivots
among the first m columns count the rank of those m, so where its bounds
differ ``matspace.Filtration`` reads all generic dimensions of a
filtered space off one run over rows in level order.
"""

from __future__ import annotations

import heapq
import itertools

from .linalg import Field, _Frozen, _grid


class MultiPoly(_Frozen):
    """A polynomial in ``nvars`` variables with exact coefficients.

    Terms map exponent tuples to nonzero canonical coefficients; the
    constructor drops the zero ones, so sums and products need not.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms=None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError("bad exponent vector %r" % (exps,))
                coeff = field.of(coeff)
                if coeff != field.zero:
                    clean[exps] = coeff
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def variable(field, nvars, i) -> "MultiPoly":
        """The variable x_i, 1-based."""
        exps = [0] * nvars
        exps[i - 1] = 1
        return MultiPoly(field, nvars, {tuple(exps): field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def _compatible(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise ValueError("polynomials over different rings")

    def __add__(self, other):
        self._compatible(other)
        f = self.field
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = f.add(out.get(exps, f.zero), c)
        return MultiPoly(f, self.nvars, out)

    def __mul__(self, other):
        self._compatible(other)
        f = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = f.add(out.get(e, f.zero), f.mul(c1, c2))
        return MultiPoly(f, self.nvars, out)

    def evaluate(self, point):
        """Value at a point given as a sequence of ``nvars`` scalars."""
        if len(point) != self.nvars:
            raise ValueError("point arity %d != %d variables" % (len(point), self.nvars))
        f = self.field
        point = [f.of(x) for x in point]
        total = f.zero
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, exps):
                for _ in range(e):
                    v = f.mul(v, x)
            total = f.add(total, v)
        return total

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for exps in sorted(self.terms, reverse=True):
            mono = "*".join(
                "x%d^%d" % (i + 1, e) if e > 1 else "x%d" % (i + 1)
                for i, e in enumerate(exps) if e)
            c = self.terms[exps]
            bits.append(("%s*%s" % (c, mono)) if mono else str(c))
        return "MultiPoly(%s)" % " + ".join(bits)


# Integer kernels of the Bareiss loop.  A term dict maps a packed
# exponent key to an int coefficient (a residue when ``p`` is set).  Each
# exponent lives in a field of ``width`` bits whose top bit is a guard;
# the first variable takes the most significant field, so integer order
# on keys is the lexicographic order on exponent tuples and exponent
# addition is one integer ``+``.  Keys never carry a set guard bit into a
# product, so a sum of two exponents cannot spill into the next field.


def _width(bound: int) -> int:
    """Field width for exponents up to ``bound``, plus the guard bit."""
    return max(bound, 1).bit_length() + 1


def _guard(nvars: int, width: int) -> int:
    """The key with every field's guard bit set."""
    top = 1 << (width - 1)
    return sum(top << (width * i) for i in range(nvars))


def _mul_into(out: dict, a: dict, b: dict) -> None:
    """Add ``a * b`` to ``out``; entries may be left zero or unreduced."""
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2


def _div(num: dict, den: dict, p: int, guard: int) -> dict:
    """Exact quotient of term dicts; ArithmeticError if there is none.

    Over Z every quotient coefficient must be an integer.  A remainder
    term whose exponent would go negative, or has outgrown its field,
    proves the division inexact.
    """
    lead = max(den)
    lc = den[lead]
    inv = pow(lc, -1, p) if p else 0
    rest = [(e, -c) for e, c in den.items() if e != lead]
    # Every new remainder key lies below the current leading one, so a
    # key leaves the heap once; coefficients are reduced when it does.
    rem = dict(num)
    heap = [-e for e in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        e = -heapq.heappop(heap)
        c = rem.pop(e)
        if p:
            c %= p
        if not c:
            continue
        q = (e | guard) - lead
        if e & guard or q & guard != guard:
            raise ArithmeticError("inexact polynomial division")
        q ^= guard
        if p:
            qc = c * inv % p
        else:
            qc, r = divmod(c, lc)
            if r:
                raise ArithmeticError("inexact polynomial division")
        quot[q] = qc
        for de, dc in rest:
            t = q + de
            if t in rem:
                rem[t] += qc * dc
            else:
                rem[t] = qc * dc
                heapq.heappush(heap, -t)
    return quot


def _bareiss_rank(columns, p, guard) -> list:
    """Pivot columns, as many as the rank, of the matrix with these columns
    of integral term dicts, keys packed at a width for 2 min(rows, cols)
    times the largest exponent (an entry is a minor of that many rows; a
    numerator, a product of two).  The columns are eliminated in order."""
    ncols = len(columns)
    work = [list(row) for row in zip(*columns)]
    nrows = len(work)
    prev = {0: 1}
    pivots = []
    for c in range(ncols):
        pr = len(pivots)
        src = next((r for r in range(pr, nrows) if work[r][c]), None)
        if src is None:
            continue
        work[pr], work[src] = work[src], work[pr]
        pivot = work[pr]
        for r in range(pr + 1, nrows):
            row = work[r]
            minus_below = {e: -v for e, v in row[c].items()}
            for cc in range(c + 1, ncols):
                num = {}
                _mul_into(num, pivot[c], row[cc])
                _mul_into(num, minus_below, pivot[cc])
                if p:
                    num = {e: v % p for e, v in num.items()}
                num = {e: v for e, v in num.items() if v}
                row[cc] = _div(num, prev, p, guard) if num else num
            row[c] = {}
        prev = pivot[c]
        pivots.append(c)
    return pivots


def find_nonvanishing(f: MultiPoly, s):
    """First grid point of s^nvars (lexicographic in the given order of
    ``s``) where ``f`` is nonzero, or None if ``f`` vanishes on the grid.

    When ``f`` is nonzero, a witness is guaranteed if #s > deg f, or if
    ``f`` is homogeneous with 0 in s and #s >= max(deg f, 2).
    """
    vals = [f.field.of(x) for x in s]
    if len(set(vals)) != len(vals):
        raise ValueError("grid values must be distinct")
    for point in itertools.product(vals, repeat=f.nvars):
        if f.evaluate(point) != f.field.zero:
            return point
    return None


def _action_pivots(field, n, rows) -> list:
    """Bareiss pivot columns over K(x_1..x_n) of the n x len(rows) matrix
    of columns C*x, C the row-major ``rows`` in order: the pivots among
    the first m count the generic rank of the span of the first m rows.
    The rows are integers: over Q any nonzero multiple of C will do, as
    ``VectorSubspace.rows`` and ``linalg._grid`` hold them."""
    width = _width(2 * min(n, len(rows)))           # linear entries
    keys = [1 << (width * (n - 1 - l)) for l in range(n)]
    columns = [[{key: c for key, c in zip(keys, r) if c} for r in _grid(n, row)]
               for row in rows]
    return _bareiss_rank(columns, field.p, _guard(n, width))


def generic_rank_of_action(space) -> int:
    """dim over K(x) of the span of C*x for C in the subspace.

    Independent of the chosen basis of the subspace.
    """
    return len(_action_pivots(space.field, space.n, space.basis.rows))
