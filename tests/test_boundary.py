"""The boundary rule: scalars are canonicalized once, where they enter.

Public constructors run every entry through ``Field.of``; what the
package builds from values it already holds (matrix arithmetic, spans,
kernels, eliminations, enumerated matrices) is trusted and skips it.
These tests check that every such producer still returns canonical
entries (``Fraction`` over Q, ``int`` in [0, p) over F_p), equal to what
the public constructor makes of them, and that the structural algorithms
make no ``Field.of`` call at all on spaces built beforehand.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mathieumat.linalg import DenseMatrix, Field, VectorSubspace, invert
from mathieumat.matspace import (
    Filtration,
    MatrixSubspace,
    binary_profile,
    column_space,
    conjugate,
    constraint_space,
)
from mathieumat.multipoly import MultiPoly
from mathieumat.normalize import normalize
from mathieumat.spacefile import loads
from mathieumat.verify import radical, verify_mathieu

from helpers import filtration_level, full_power_set, kernel, mul_vector, rref, zeros

F2, F3, F5, QQ = Field.prime(2), Field.prime(3), Field.prime(5), Field.rationals()
FIELDS = (F2, F3, F5, QQ)


def canonical_scalar(f, x):
    if f.p:
        return type(x) is int and 0 <= x < f.p
    return type(x) is Fraction


def assert_canonical(m):
    f = m.field
    assert len(m.entries) == m.rows and all(len(row) == m.cols for row in m.entries)
    assert type(m.entries) is tuple and all(type(row) is tuple for row in m.entries)
    assert all(canonical_scalar(f, x) for row in m.entries for x in row)
    assert m == DenseMatrix(f, m.entries, cols=m.cols)


def assert_canonical_span(v):
    assert all(canonical_scalar(v.field, x) for row in v.basis for x in row)
    assert all(type(row) is tuple for row in v.basis)
    assert v == VectorSubspace.from_vectors(v.field, v.ambient_dim, v.basis)


def scalars(field):
    if field.p:
        return st.integers(-2 * field.p, 2 * field.p)
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def matrix_pairs(draw):
    """Two r x c matrices and a c x s one over one field; shapes may be 0."""
    field = draw(st.sampled_from(FIELDS))
    r, c, s = (draw(st.integers(0, 3)) for _ in range(3))

    def matrix(rows, cols):
        grid = draw(st.lists(st.lists(scalars(field), min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
        return DenseMatrix(field, grid, cols=cols)

    return matrix(r, c), matrix(r, c), matrix(c, s), draw(scalars(field))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(matrix_pairs())
@example((zeros(QQ, 2, 0), zeros(QQ, 2, 0), zeros(QQ, 0, 3), 2))
@example((zeros(F5, 0, 3), zeros(F5, 0, 3), zeros(F5, 3, 0), -1))
def test_matrix_producers_return_canonical_entries(case):
    a, b, c, x = case
    f = a.field
    prod = a.mul(c)
    assert (prod.rows, prod.cols) == (a.rows, c.cols)
    products = [a + b, a - b, -a, a.scale(x), prod, a.transpose(), c.transpose(),
                DenseMatrix.identity(f, a.cols), rref(a)[0], rref(c.transpose())[0]]
    if a.rows and a.cols:
        products.append(DenseMatrix.unit(f, a.rows, a.cols, a.rows - 1, 0))
    for m in products:
        assert_canonical(m)
    sq = a.mul(a.transpose())
    if rref(sq)[1] == sq.rows:
        assert_canonical(invert(sq))
    assert_canonical_span(kernel(a))


def test_empty_shapes_keep_their_dimensions():
    prod = zeros(QQ, 2, 0).mul(zeros(QQ, 0, 3))
    assert_canonical(prod)
    assert (prod.rows, prod.cols) == (2, 3) and prod == zeros(QQ, 2, 3)
    for f in (F3, QQ):
        for rows, cols in ((0, 3), (3, 0), (0, 0)):
            t = zeros(f, rows, cols).transpose()
            assert (t.rows, t.cols) == (cols, rows)
            assert_canonical(t)


def spaces(field):
    """Spaces over ``field`` with the generators given as raw integers."""
    pair = [[[0, 1, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 1], [0, 0, 0]]]
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    mixed = [[[2, -1, 0], [1, 3, -2], [0, 1, 1]], [[1, 0, 4], [0, -2, 0], [3, 0, 1]]]
    return [MatrixSubspace.from_matrices(field, 3, gens)
            for gens in (pair, pair + [eye], mixed + [eye], mixed)]


def test_spans_and_space_matrices_are_canonical():
    for f in FIELDS:
        for space in spaces(f):
            assert_canonical_span(space.basis)
            for m in space.basis_matrices:
                assert_canonical(m)
            dual = constraint_space(space)
            assert_canonical_span(dual.basis)
            assert_canonical_span(space.sum(dual).basis)
            assert_canonical_span(column_space(space, (1, -1, 2)))
            assert_canonical_span(MatrixSubspace.from_matrices(
                f, 3, space.basis_matrices + dual.basis_matrices[:2]).basis)
            t = DenseMatrix(f, [[1, 2, 3], [1, 3, 3], [2, 5, 7]])
            for m in conjugate(space, t).basis_matrices:
                assert_canonical(m)


def space_file_text(token, n, blocks):
    """The space file over ``token`` with these n x n integer blocks."""
    return "field %s\nn %d\nbasis\n%s" % (token, n, "\n".join(
        "".join(" ".join(map(str, row)) + "\n" for row in block) for block in blocks))


@st.composite
def space_files(draw):
    """The field token, n and integer blocks of a space file over F_2,
    F_3, F_5 or Q whose entries run past [0, p) on both sides; a
    generator may carry a common factor."""
    token = draw(st.sampled_from(("2", "3", "5", "Q")))
    n = draw(st.integers(1, 3))
    bound = 3 * int(token) if token != "Q" else 9
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        flat = draw(st.lists(st.integers(-bound, bound), min_size=n * n, max_size=n * n))
        factor = draw(st.sampled_from((1, 1, -1, 6, -10)))
        blocks.append(tuple(tuple(factor * x for x in flat[i * n:(i + 1) * n])
                            for i in range(n)))
    return token, n, tuple(blocks)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(space_files(), st.sampled_from((None, "2", "3", "5", "Q")))
@example(("Q", 2, (((6, -4), (2, 10)), ((-3, 2), (-1, -5)))), None)
@example(("3", 2, (((-1, 7), (3, -6)), ((5, -2), (0, 9)))), None)
def test_resolved_space_files_are_canonical(drawn, override):
    token, n, blocks = drawn
    space = loads(space_file_text(token, n, blocks), override)
    token = token if override is None else override
    field = QQ if token == "Q" else Field.prime(int(token))
    assert space.field == field and space.n == n
    assert_canonical_span(space.basis)
    assert space == MatrixSubspace.from_matrices(
        field, n, [DenseMatrix(field, block) for block in blocks])
    for m in space.basis_matrices:
        assert_canonical(m)
    assert loads("field Q\nn 1\nbasis\n-6\n").basis.basis == ((1,),)


def test_conjugates_inverses_and_column_spaces_match_the_dense_path():
    for f in FIELDS:
        t = DenseMatrix(f, [[1, 2, 3], [1, 3, 3], [2, 5, 7]])
        t_inv = invert(t)
        assert_canonical(t_inv)
        eye = DenseMatrix.identity(f, 3)
        assert t_inv.mul(t) == eye
        for space in spaces(f):
            moved = conjugate(space, t)
            assert_canonical_span(moved.basis)
            assert moved == MatrixSubspace.from_matrices(
                f, 3, [t_inv.mul(m).mul(t) for m in space.basis_matrices])
            fil = Filtration(space)
            for k in range(4):
                level = filtration_level(space, k)
                for v in ((1, -1, 2), (0, 0, 1), (Fraction(1, 7), 2, Fraction(-5, 11))):
                    v = tuple(f.of(x) for x in v)
                    got = column_space(level, v)
                    assert_canonical_span(got)
                    assert got == VectorSubspace.from_vectors(
                        f, 3, [mul_vector(m, v) for m in level.basis_matrices])
                    assert got.dim <= fil.d[k]


def test_basis_matrices_are_built_once_on_the_first_read():
    for f in FIELDS:
        for space in spaces(f) + [conjugate(spaces(f)[2], DenseMatrix.identity(f, 3))]:
            eager = tuple(DenseMatrix(f, [row[3 * i:3 * i + 3] for i in range(3)])
                          for row in space.basis.basis)
            assert space.basis_matrices == eager
            assert space.basis_matrices is space.basis_matrices


def test_enumerated_matrices_are_canonical():
    trace_zero = MatrixSubspace.from_matrices(
        F2, 2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    witness = verify_mathieu(trace_zero, "left").witness
    mats = radical(MatrixSubspace.from_matrices(F2, 2, [])) + full_power_set(spaces(F3)[1])
    for m in mats + [witness.a, witness.b]:
        assert_canonical(m)


def test_public_entry_points_canonicalize_outside_input():
    half = Fraction(1, 2)                       # 3 in F_5
    assert DenseMatrix(F5, [[half, -1]]).entries == ((3, 4),)
    line = VectorSubspace.from_vectors(F5, 2, [[half, 1]])
    assert line.basis == ((1, 2),) and line.member([Fraction(3, 2), 3])
    assert line.reduce([1, -1]) == (0, 2)
    full = MatrixSubspace.full_space(F5, 2)
    assert column_space(full, (half, 0)).basis == ((1, 0), (0, 1))
    assert column_space(MatrixSubspace.full_space(QQ, 2), (1, 0)).basis[0] == (1, 0)
    p = MultiPoly(F5, 1, {(1,): half, (0,): -2})
    assert p.terms == {(1,): 3, (0,): 3}


def test_structural_algorithms_make_no_field_of_call(monkeypatch):
    calls = []
    original = Field.of

    def counting_of(self, x):
        calls.append(x)
        return original(self, x)

    for f in (F5, QQ):
        built = spaces(f)
        t = DenseMatrix(f, [[1, 2, 3], [1, 3, 3], [2, 5, 7]])
        monkeypatch.setattr(Field, "of", counting_of)
        for space in built:
            normalize(space.adjoin_identity())
            binary_profile(space)
            conjugate(space, t)
            constraint_space(space)
        monkeypatch.setattr(Field, "of", original)
        assert calls == []
    monkeypatch.setattr(Field, "of", counting_of)
    DenseMatrix(F5, [[7]])          # the public constructor still converts
    assert calls == [7]
