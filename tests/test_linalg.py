import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieumat.errors import SingularMatrixError
from mathieumat.linalg import (
    DenseMatrix,
    Field,
    VectorSubspace,
    _cleared,
    _complement,
    _eliminate,
    _is_prime,
    _kernel,
    all_subspaces,
    invert,
)
from mathieumat.matspace import MatrixSubspace

from helpers import all_matrices, all_vectors, kernel, mul_vector, rref, solve_affine, zeros
from test_readout import reference_kernel

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
QQ = Field.rationals()


def random_matrix(rng, field, rows, cols, bound=6):
    if field.p:
        return DenseMatrix(field, [[rng.randrange(field.p) for _ in range(cols)]
                                   for _ in range(rows)])
    return DenseMatrix(field, [[rng.randrange(-bound, bound) for _ in range(cols)]
                               for _ in range(rows)])


def test_field_construction():
    assert Field.prime(2).p == 2
    assert Field.rationals().p == 0
    with pytest.raises(ValueError):
        Field.prime(6)
    with pytest.raises(ValueError):
        Field.prime(0)
    assert not _is_prime(0) and not _is_prime(1)
    # 46337^2 has no factor below isqrt(n) = 46337, the last divisor tried
    for n in (46337 * 46337, 46327 * 46337, 1):
        with pytest.raises(ValueError, match="%d is not prime" % n):
            Field.prime(n)
    for p in (2147483647, 2147483629):  # the two largest primes below 2**31
        assert Field.prime(p).p == p
    with pytest.raises(ValueError):
        Field.prime(2**31 + 11)


def test_field_takes_exactly_the_primes():
    limit = 10**4
    sieve = [False, False] + [True] * (limit - 2)
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, limit, q))
    accepted = []
    for p in range(1, limit):
        try:
            accepted.append(Field.prime(p).p)
        except ValueError:
            pass
    assert accepted == [p for p in range(limit) if sieve[p]]


def test_field_canonical_values():
    assert F5.of(-1) == 4
    assert F5.of(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert QQ.of(2) == Fraction(2)
    assert F5.inv(2) == 3
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert F3.first_elements(5) == [0, 1, 2]
    assert QQ.first_elements(3) == [Fraction(0), Fraction(1), Fraction(2)]
    # the constants are built once per field, in canonical form
    assert QQ.zero is QQ.zero and type(QQ.one) is Fraction and QQ.one == 1
    assert (F5.zero, F5.one) == (0, 1)


def test_field_of_accepts_only_rationals():
    import numpy as np

    from mathieumat.matspace import MatrixSubspace
    # integers of any integral type become plain canonical scalars
    for x, want in ((np.int64(7), 2), (True, 1), (np.uint8(9), 4), (-3, 2)):
        assert F5.of(x) == want and type(F5.of(x)) is int
    assert QQ.of(np.int32(-4)) == -4 and type(QQ.of(np.int32(-4))) is Fraction
    assert QQ.of(True) == 1 and type(QQ.of(True)) is Fraction
    # a float or a string is no rational, however exact it looks
    for field in (F5, QQ):
        for x in (0.5, 2.0, 0.1, "1", "1/2", None, 1j):
            with pytest.raises(TypeError):
                field.of(x)
        with pytest.raises(TypeError):
            DenseMatrix(field, [[0.5, 2.0]])
        with pytest.raises(TypeError):
            DenseMatrix(field, [[1, 2]]).scale(0.5)
        with pytest.raises(TypeError):
            MatrixSubspace.from_matrices(field, 1, [[[0.5]]])
    # a denominator that p divides has no value in F_p
    for x in (Fraction(1, 5), Fraction(-7, 10), Fraction(3, 25)):
        with pytest.raises(ValueError, match="divides its denominator"):
            F5.of(x)
    with pytest.raises(ValueError, match="divides its denominator"):
        DenseMatrix(F5, [[1, Fraction(2, 5)]])
    assert F5.of(Fraction(10, 5)) == 2 and F5.of(Fraction(-1, 3)) == 3


def reference_eliminate(field, rows, ncols):
    """Definitional Gauss-Jordan in Field arithmetic: the reference for rref."""
    pivots = []
    r = 0
    zero = field.zero
    for c in range(ncols):
        if r == len(rows):
            break
        src = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = field.inv(rows[r][c])
        if inv != field.one:
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                factor = rows[i][c]
                rows[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return pivots


def random_rows(rng, field, nrows, ncols, small=False):
    """Rows with zero rows, repeated combinations and, over Q, signed
    fractions with large denominators (none when ``small``)."""
    def scalar():
        if field.p:
            return rng.randrange(field.p)
        kind = rng.randrange(3 if small else 4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randrange(-9, 10)
        if kind == 2:
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))
        return Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**15))

    rows = []
    for _ in range(nrows):
        kind = rng.randrange(5)
        if kind == 0:
            rows.append([0] * ncols)
        elif kind == 1 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = scalar(), scalar()
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([scalar() for _ in range(ncols)])
    return [[field.of(x) for x in row] for row in rows]


def caller_forms(rng, field, rows):
    """The rows as callers hold them before ``_cleared`` makes them the
    ``int`` rows ``_eliminate`` takes: canonical and, over Q, as rows of
    ``int`` (each a nonzero integer multiple of its row, as the integer
    products hand over) and as ``int`` and ``Fraction`` entries mixed."""
    if field.p:
        return [rows]
    ints = []
    for row in rows:
        d = math.lcm(*(x.denominator for x in row)) * rng.choice((1, -1, 2, -3, 7))
        ints.append([int(x * d) for x in row])
    mixed = [[int(x) if x.denominator == 1 else x for x in row] for row in rows]
    return [rows, ints, mixed]


def low_rank_rows(rng, field, nrows, ncols, rank):
    """``nrows`` random combinations of ``rank`` random rows."""
    gens = random_rows(rng, field, rank, ncols, small=True)
    rows = [[sum((field.mul(field.of(rng.randrange(-3, 4)), g[j]) for g in gens), field.zero)
             for j in range(ncols)] for _ in range(nrows)]
    return [[field.of(x) for x in row] for row in rows]


# Tall systems, as the space files and their corners give them: (rows,
# columns, rank or None for random rows).  The first is a codim-1 space
# file at n = 6, the next two the sizes of a codim-2 file at n = 5 and
# a codim-2 file at n = 4; the last three are rank-deficient.
TALL = [(35, 36, None), (23, 25, None), (14, 16, None), (20, 24, 12), (30, 36, 29), (16, 9, 5)]


def test_eliminate_matches_field_reference():
    rng = random.Random(12)
    for field in (QQ, F2, F3, F5, Field.prime(2147483647)):
        for case in range(80 + len(TALL)):
            if case < 80:
                nrows, ncols = rng.randrange(0, 7), rng.randrange(1, 8)
                rows = random_rows(rng, field, nrows, ncols)
            else:
                nrows, ncols, rank = TALL[case - 80]
                rows = (random_rows(rng, field, nrows, ncols, small=True) if rank is None
                        else low_rank_rows(rng, field, nrows, ncols, rank))
            expected = [list(r) for r in rows]
            pivots = tuple(reference_eliminate(field, expected, ncols))
            reduced, rank, got_pivots = rref(DenseMatrix(field, rows, cols=ncols))
            assert [list(r) for r in reduced.entries] == expected
            assert (rank, got_pivots) == (len(pivots), pivots)
            space = VectorSubspace.from_vectors(field, ncols, rows)
            assert space.basis == tuple(tuple(r) for r in expected[:rank])
            assert space.pivots == pivots
            for x in (x for row in reduced.entries for x in row):
                if field.p:
                    assert type(x) is int and 0 <= x < field.p
                else:
                    assert type(x) is Fraction
            # the kernel itself, on every row form once cleared and with
            # columns before ``first`` only eliminated forward: from ``top``
            # on, the rows are the reference rows pivoting at ``first`` or
            # later, over Q each times its pivot, then zeros; the tall cases
            # take first at their fourth pivot on their canonical rows
            for form, raw in enumerate(caller_forms(rng, field, rows)):
                given, _ = _cleared(field, raw)
                first = rng.choice((0, rng.randrange(ncols + 1)))
                if case >= 80 and form == 0:
                    first = pivots[3]
                before = [list(r) for r in given]
                work = list(given)
                assert _eliminate(field, work, ncols, first) == list(pivots)
                assert [list(r) for r in given] == before      # the caller's rows are not written to
                top = sum(c < first for c in pivots)
                if field.p:
                    assert [list(r) for r in work[top:]] == (
                        [r for r, c in zip(expected, pivots) if c >= first] + expected[rank:])
                else:
                    for row, c, want in zip(work[top:rank], pivots[top:], expected[top:rank]):
                        assert row[c] > 0 and math.gcd(*row) == 1
                        assert [x * row[c] for x in want] == list(row)
                    assert [list(r) for r in work[rank:]] == expected[rank:]
                for x in (x for row in work[top:] for x in row):
                    assert type(x) is int
                if case >= 80 and form == 0 and not field.p:
                    # the forward pass alone leaves kept rows that are not
                    # zero at a later pivot: back-substitution had work
                    forward = list(given)
                    assert _eliminate(field, forward, ncols, ncols) == list(pivots)
                    assert any(forward[k][c] for k in range(top, rank) for c in pivots[k + 1:])
    # plain int rows over Q stay exact: no float from ``1 / a`` on the way
    assert rref(DenseMatrix(QQ, [[3, 7], [3, 7], [12, 28]]))[1] == 1


Q_SCALARS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
MULTIPLIERS = st.sampled_from((1, -1, 2, -3, 6))


@st.composite
def q_spans(draw):
    """``(m, vectors)``: ``Fraction`` vectors of length m spanning a zero,
    a full (m invertible rows) or a low-rank subspace of Q^m."""
    m = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("zero", "full", "low")))
    if kind == "zero":
        return m, [[Fraction(0)] * m for _ in range(draw(st.integers(0, 3)))]
    if kind == "full":
        # upper triangular with a nonzero diagonal, then row operations
        rows = [[Fraction(0)] * i + [draw(Q_SCALARS.filter(bool))]
                + [draw(Q_SCALARS) for _ in range(m - 1 - i)] for i in range(m)]
        for i in range(1, m):
            c = draw(Q_SCALARS)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[i - 1])]
        return m, draw(st.permutations(rows))
    rank = draw(st.integers(1, max(1, m - 1)))
    gens = [[draw(Q_SCALARS) for _ in range(m)] for _ in range(rank)]
    vectors = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = [draw(Q_SCALARS) for _ in gens]
        vectors.append([sum((c * g[j] for c, g in zip(coeffs, gens)), Fraction(0))
                        for j in range(m)])
    return m, vectors


def assert_primitive_rows(space):
    for row, c in zip(space.rows, space.pivots):
        assert all(type(x) is int for x in row) and not any(row[:c])
        assert row[c] > 0 and math.gcd(*row) == 1


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(q_spans(), st.data())
def test_q_spaces_keep_primitive_rows_and_read_the_reference_rref(case, data):
    m, vectors = case
    # the same rows as integer multiples, as ``matspace`` and space files hand them over
    ints = []
    for v in vectors:
        d = math.lcm(*(x.denominator for x in v)) * data.draw(MULTIPLIERS)
        ints.append([int(x * d) for x in v])
    space = VectorSubspace.from_vectors(QQ, m, vectors)
    again = VectorSubspace._span(QQ, m, ints)
    assert space == again and hash(space) == hash(again)
    assert space.rows == again.rows and space.pivots == again.pivots
    assert_primitive_rows(space)
    expected = [list(r) for r in vectors]
    pivots = reference_eliminate(QQ, expected, m)
    assert space.pivots == tuple(pivots)
    assert space.basis == again.basis == tuple(tuple(r) for r in expected[:len(pivots)])
    assert all(type(x) is Fraction for row in space.basis for x in row)
    # the kernel, from either route, is the reference's
    want = reference_kernel(DenseMatrix(QQ, vectors, cols=m))
    for got in (kernel(DenseMatrix(QQ, vectors, cols=m)), _kernel(QQ, ints, m)):
        assert got == want and got.basis == want.basis
        assert_primitive_rows(got)
    # rref and invert divide by the pivots as they return
    reduced, rank, got_pivots = rref(DenseMatrix(QQ, vectors, cols=m))
    assert [list(r) for r in reduced.entries] == expected
    assert (rank, got_pivots) == (len(pivots), tuple(pivots))
    assert all(type(x) is Fraction for x in reduced.flatten())
    if rank == m == len(vectors):
        a = DenseMatrix(QQ, vectors, cols=m)
        inv = invert(a)
        assert all(type(x) is Fraction for x in inv.flatten())
        assert a.mul(inv) == DenseMatrix.identity(QQ, m)


def reference_reduce(space, v):
    """The residual of ``v`` in Field arithmetic against the canonical basis."""
    f = space.field
    v = [f.of(x) for x in v]
    for row, c in zip(space.basis, space.pivots):
        k = v[c]
        v = [f.sub(x, f.mul(k, y)) for x, y in zip(v, row)]
    return tuple(v)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(q_spans(), st.data())
def test_reduce_reads_the_reference_residual_on_integer_rows(case, data):
    m, vectors = case
    space = VectorSubspace.from_vectors(QQ, m, vectors)
    coeffs = [data.draw(Q_SCALARS) for _ in space.basis]
    inside = [sum((c * row[j] for c, row in zip(coeffs, space.basis)), Fraction(0))
              for j in range(m)]
    for v in ([data.draw(Q_SCALARS) for _ in range(m)], inside):
        want = reference_reduce(space, v)
        assert space.reduce(v) == want
        assert all(type(x) is Fraction for x in space.reduce(v))
        assert space.member(v) == (not any(want))
        if m == 4:
            mat = MatrixSubspace(QQ, 2, space)
            assert mat.contains(DenseMatrix(QQ, [v[:2], v[2:]])) == (not any(want))
            assert mat.contains_identity() == mat.contains(DenseMatrix.identity(QQ, 2))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for field in (F2, F5):
        space = VectorSubspace.from_vectors(field, m, random_rows(rng, field, len(vectors), m))
        v = [rng.randrange(field.p) for _ in range(m)]
        assert space.reduce(v) == reference_reduce(space, v)


def test_rref_identity_case():
    eye = DenseMatrix.identity(F5, 3)
    reduced, rank, pivots = rref(eye)
    assert reduced == eye
    assert rank == 3
    assert pivots == (0, 1, 2)


def test_rref_zero_case():
    z = zeros(QQ, 2, 4)
    reduced, rank, pivots = rref(z)
    assert reduced == z
    assert rank == 0
    assert pivots == ()


def test_rref_f2_dependent_rows():
    m = DenseMatrix(F2, [[1, 1], [1, 1]])
    reduced, rank, pivots = rref(m)
    assert reduced == DenseMatrix(F2, [[1, 1], [0, 0]])
    assert rank == 1
    assert pivots == (0,)


def test_rref_idempotent():
    rng = random.Random(11)
    for field in (F2, F5, QQ):
        for _ in range(25):
            m = random_matrix(rng, field, rng.randrange(1, 5), rng.randrange(1, 5))
            reduced, rank, pivots = rref(m)
            again, rank2, pivots2 = rref(reduced)
            assert again == reduced and rank2 == rank and pivots2 == pivots


def test_kernel_trivial_and_full():
    assert kernel(DenseMatrix.identity(F3, 4)).dim == 0
    k = kernel(zeros(F3, 2, 3))
    assert k == VectorSubspace.full(F3, 3)


def test_kernel_single_relation():
    k = kernel(DenseMatrix(F5, [[1, 2]]))
    assert k.dim == 1
    assert k.member((3, 1))
    assert not k.member((1, 1))


def test_kernel_cardinality_matches_enumeration():
    # Over F_p the kernel has exactly p^dim elements.
    rng = random.Random(5)
    for p in (2, 3):
        field = Field.prime(p)
        for n in (1, 2, 3):
            for _ in range(8):
                m = random_matrix(rng, field, rng.randrange(1, 4), n)
                k = kernel(m)
                count = sum(
                    1 for v in all_vectors(field, n)
                    if all(x == 0 for x in mul_vector(m, v)))
                assert count == p ** k.dim
                assert all(k.member(row) for row in k.basis)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.sampled_from([F2, F3, F5, Field.prime(101), QQ]), st.integers(1, 7), st.data())
def test_complement_annihilates_the_row_space(field, m, data):
    # the empty row space, the full one (the identity's rows) and random
    # rows: m - rank integer vectors, independent, each d at its own
    # non-pivot and pairing to zero with every row
    p = field.p
    k = data.draw(st.integers(0, m + 1))
    cases = [[], [[int(i == j) for j in range(m)] for i in range(m)],
             [data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
              for _ in range(k)]]
    for given_rows in cases:
        rows = [[x % p for x in row] if p else list(row) for row in given_rows]
        pivots = _eliminate(field, rows, m)
        vectors = _complement(field, rows, pivots, m)
        free = [f for f in range(m) if f not in pivots]
        assert len(vectors) == m - len(pivots)
        assert len(_eliminate(field, [list(v) for v in vectors], m, m)) == len(vectors)
        for v, f in zip(vectors, free):
            assert all(type(x) is int for x in v) and v[f] > 0
            assert all(v[g] == 0 for g in free if g != f)
            assert not p or all(0 <= x < p for x in v)
            for row in given_rows:
                dot = sum(x * y for x, y in zip(row, v))
                assert (dot % p if p else dot) == 0


def test_solve_affine_unique():
    sol = solve_affine(DenseMatrix.identity(F3, 2), (1, 2))
    assert sol is not None
    particular, directions = sol
    assert particular == (1, 2)
    assert directions.dim == 0


def test_solve_affine_inconsistent():
    assert solve_affine(zeros(F3, 1, 2), (1,)) is None


def test_solve_affine_underdetermined_f2():
    particular, directions = solve_affine(DenseMatrix(F2, [[1, 1]]), (1,))
    assert particular == (1, 0)
    assert directions.dim == 1 and directions.member((1, 1))
    # brute-force oracle: the solution set is exactly {(1,0), (0,1)}
    sols = {v for v in all_vectors(F2, 2) if (v[0] + v[1]) % 2 == 1}
    assert sols == {(1, 0), (0, 1)}
    assert particular in sols


def test_invert_identity_and_selfinverse():
    eye = DenseMatrix.identity(QQ, 4)
    assert invert(eye) == eye
    m = DenseMatrix(F2, [[1, 1], [0, 1]])
    assert invert(m) == m
    assert m.mul(m) == DenseMatrix.identity(F2, 2)


def test_invert_singular():
    with pytest.raises(SingularMatrixError):
        invert(DenseMatrix(QQ, [[1, 1], [1, 1]]))


def test_invert_roundtrip_random():
    rng = random.Random(23)
    for field in (F3, F5, QQ):
        found = 0
        while found < 10:
            m = random_matrix(rng, field, 3, 3)
            try:
                mi = invert(m)
            except SingularMatrixError:
                continue
            eye = DenseMatrix.identity(field, 3)
            assert m.mul(mi) == eye and mi.mul(m) == eye
            found += 1


def test_subspace_sum_and_intersection():
    e1 = (1, 0, 0)
    e2 = (0, 1, 0)
    e3 = (0, 0, 1)
    v12 = VectorSubspace.from_vectors(F5, 3, [e1, e2])
    v23 = VectorSubspace.from_vectors(F5, 3, [e2, e3])
    assert v12.sum(v23) == VectorSubspace.full(F5, 3)
    assert v12.intersect(v23) == VectorSubspace.from_vectors(F5, 3, [e2])


def test_subspace_membership_f2():
    v = VectorSubspace.from_vectors(F2, 2, [(1, 1)])
    assert v.member((1, 1))
    assert not v.member((1, 0))


def test_subspace_dimension_identity_random():
    # dim(V+W) + dim(V cap W) = dim V + dim W
    rng = random.Random(7)
    for field in (F2, F3, QQ):
        for _ in range(30):
            amb = rng.randrange(1, 6)
            v = VectorSubspace.from_vectors(
                field, amb,
                [random_matrix(rng, field, 1, amb).entries[0] for _ in range(rng.randrange(4))])
            w = VectorSubspace.from_vectors(
                field, amb,
                [random_matrix(rng, field, 1, amb).entries[0] for _ in range(rng.randrange(4))])
            s = v.sum(w)
            i = v.intersect(w)
            assert s.dim + i.dim == v.dim + w.dim
            assert v.sum(i) == v and w.sum(i) == w
            assert s.sum(v) == s and s.sum(w) == s


def test_subspace_equality_is_structural():
    a = VectorSubspace.from_vectors(F3, 2, [(1, 2), (2, 1)])
    b = VectorSubspace.from_vectors(F3, 2, [(2, 1), (1, 2)])
    assert a == b
    assert a.basis == b.basis


def test_all_subspaces_counts():
    # Gaussian binomial [4 choose 3]_q: 15 over F_2, 40 over F_3.
    subs2 = list(all_subspaces(F2, 4, 3))
    subs3 = list(all_subspaces(F3, 4, 3))
    assert len(subs2) == 15
    assert len(subs3) == 40
    assert len({s.basis for s in subs2}) == 15
    assert all(s.dim == 3 for s in subs2)


def test_all_matrices_order_and_count():
    mats = list(all_matrices(F2, 2, 2))
    assert len(mats) == 16
    assert mats[0] == zeros(F2, 2, 2)
    assert mats[1] == DenseMatrix(F2, [[0, 0], [0, 1]])
    assert mats[-1] == DenseMatrix(F2, [[1, 1], [1, 1]])


def test_zero_row_matrices_keep_shape():
    z = zeros(F3, 0, 4)
    assert z.cols == 4
    assert kernel(z) == VectorSubspace.full(F3, 4)
    assert z.transpose().rows == 4 and z.transpose().cols == 0


def test_matrix_power():
    m = DenseMatrix(F5, [[1, 1], [0, 1]])
    assert m.power(0) == DenseMatrix.identity(F5, 2)
    assert m.power(7) == DenseMatrix(F5, [[1, 2], [0, 1]])
    n = DenseMatrix(QQ, [[0, 1], [0, 0]])
    assert n.power(2).is_zero()
    a = DenseMatrix(QQ, [[1, 2, 0], [Fraction(1, 3), 1, -1], [0, 5, 2]])
    repeated = DenseMatrix.identity(QQ, 3)
    for k in range(10):
        assert a.power(k) == repeated
        repeated = repeated.mul(a)
    with pytest.raises(ValueError):
        a.power(-1)


def test_trace_and_flatten_roundtrip():
    m = DenseMatrix(F3, [[1, 2], [0, 1]])
    assert m.trace() == 2
    flat = m.flatten()
    assert flat == (1, 2, 0, 1) and DenseMatrix(F3, [flat[:2], flat[2:]]) == m


def test_trace_rejects_a_non_square_matrix():
    # a 2 x 3 matrix once answered the trace of its leading 2 x 2 block
    with pytest.raises(ValueError, match="trace of a non-square matrix"):
        DenseMatrix(F2, [[1, 0, 0], [0, 1, 0]]).trace()


def test_unit_rejects_a_position_outside_the_grid():
    # (-1, 0) once wrapped round to (1, 0), and (2, 0) raised a bare IndexError
    for i, j in [(-1, 0), (2, 0), (0, -1), (0, 3)]:
        with pytest.raises(ValueError, match="position outside the 2 x 3 grid"):
            DenseMatrix.unit(F2, 2, 3, i, j)
    assert DenseMatrix.unit(F2, 2, 3, 1, 2).entries == ((0, 0, 0), (0, 0, 1))


def test_enumerated_subspaces_are_all_distinct_spaces():
    seen = set()
    for s in all_subspaces(F2, 3, 2):
        members = frozenset(v for v in all_vectors(F2, 3) if s.member(v))
        assert members not in seen
        seen.add(members)
    assert len(seen) == 7  # [3 choose 2]_2


# Wrong lengths, shapes and fields raise instead of being cut short by zip.

def test_dense_matrix_rejects_ragged_rows_and_a_wrong_cols():
    for rows, cols in (([[1, 2], [1]], None), ([[1, 2]], 5), ([[1, 2]], 1), ([[1, 2]], 0)):
        with pytest.raises(ValueError):
            DenseMatrix(F3, rows, cols=cols)
    assert DenseMatrix(F3, [[1, 2]], cols=2).cols == 2
    assert DenseMatrix(F3, [], cols=5).cols == 5


def test_reduce_and_member_reject_a_vector_of_the_wrong_length():
    line = VectorSubspace.from_vectors(F3, 2, [[1, 1]])
    for v in ([1, 1, 0], [1], []):
        with pytest.raises(ValueError):
            line.reduce(v)
        with pytest.raises(ValueError):
            line.member(v)
    assert line.member([2, 2]) and line.reduce([1, 0]) == (0, 2)


def test_raw_fraction_vectors_over_a_prime_field():
    # DenseMatrix converts its rows, and column_space converts a raw vector
    from mathieumat.matspace import MatrixSubspace, column_space
    half = Fraction(1, 2)                    # 3 in F_5
    assert rref(DenseMatrix(F5, [[half, 1]]))[1] == 1
    assert rref(DenseMatrix(F5, [[half, 1], [3, 1]]))[1] == 1
    assert rref(DenseMatrix(F5, [[half, 1], [Fraction(7, 3), 4]]))[1] == 2
    m = DenseMatrix(F5, [[1, 0], [0, 2]])
    assert mul_vector(m, [half, 1]) == (3, 2)
    space = MatrixSubspace.from_matrices(F5, 2, [m])
    assert column_space(space, [half, 1]) == VectorSubspace.from_vectors(F5, 2, [[3, 2]])


def test_add_and_sub_reject_other_shapes_and_fields():
    a = DenseMatrix(F3, [[1, 2], [0, 1]])
    for b in (DenseMatrix(F3, [[1, 2, 0], [0, 1, 0]]), DenseMatrix(F3, [[1, 2]]),
              DenseMatrix(F5, [[1, 2], [0, 1]])):
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a - b
    assert a + a == DenseMatrix(F3, [[2, 1], [0, 2]]) and (a - a).is_zero()


def test_mul_rejects_a_matrix_over_another_field():
    with pytest.raises(ValueError):
        DenseMatrix.identity(F3, 2).mul(DenseMatrix.identity(F5, 2))
    with pytest.raises(ValueError):
        DenseMatrix.identity(QQ, 2).mul(DenseMatrix.identity(F5, 2))
