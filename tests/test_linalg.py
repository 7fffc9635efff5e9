import math
import random
from fractions import Fraction

import pytest

from mathieumat.errors import SingularMatrixError
from mathieumat.linalg import (
    DenseMatrix,
    Field,
    VectorSubspace,
    _eliminate,
    all_matrices,
    all_subspaces,
    invert,
    kernel,
    rref,
    solve_affine,
)

from helpers import all_vectors, mul_vector, zeros

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
        Field.prime(1)
    Field.prime(2147483647)  # largest prime below 2**31
    with pytest.raises(ValueError):
        Field.prime(2**31 + 11)


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
    """The rows as callers hand them to ``_eliminate``: canonical and, over
    Q, as rows of ``int`` (each a nonzero integer multiple of its row, as
    the integer products hand over) and as ``int`` and ``Fraction`` entries
    mixed (as ``invert`` builds ``[m | I]``)."""
    if field.p:
        return [rows]
    ints = []
    for row in rows:
        d = math.lcm(*(x.denominator for x in row)) * rng.choice((1, -1, 2, -3, 7))
        ints.append([int(x * d) for x in row])
    mixed = [[int(x) if x.denominator == 1 else x for x in row] for row in rows]
    return [rows, ints, mixed]


def test_eliminate_matches_field_reference():
    rng = random.Random(12)
    for field in (QQ, F2, F3, F5, Field.prime(2147483647)):
        for case in range(81):
            # the last case is the size of a codim-1 space file's elimination at n = 6
            nrows, ncols = (35, 36) if case == 80 else (rng.randrange(0, 7), rng.randrange(1, 8))
            rows = random_rows(rng, field, nrows, ncols, small=case == 80)
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
            # the kernel itself, on every row form and with columns before
            # ``first`` only eliminated forward: from ``top`` on, the rows are
            # the reference rows pivoting at ``first`` or later, then zeros
            for raw in caller_forms(rng, field, rows):
                first = rng.choice((0, rng.randrange(ncols + 1)))
                before = [list(r) for r in raw]
                work = list(raw)
                assert _eliminate(field, work, ncols, first) == list(pivots)
                assert raw == before        # the caller's row lists are not written to
                top = sum(c < first for c in pivots)
                assert [list(r) for r in work[top:]] == (
                    [r for r, c in zip(expected, pivots) if c >= first] + expected[rank:])
                for x in (x for row in work[top:] for x in row):
                    assert type(x) is (int if field.p else Fraction)
    # plain int rows over Q stay exact: no float from ``1 / a`` on the way
    assert rref(DenseMatrix(QQ, [[3, 7], [3, 7], [12, 28]]))[1] == 1


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


def test_enumerated_subspaces_are_all_distinct_spaces():
    seen = set()
    for s in all_subspaces(F2, 3, 2):
        members = frozenset(v for v in all_vectors(F2, 3) if s.member(v))
        assert members not in seen
        seen.add(members)
    assert len(seen) == 7  # [3 choose 2]_2


# Wrong lengths, shapes and fields raise instead of being cut short by zip.

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
