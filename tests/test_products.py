"""Matrix products on integers.

``DenseMatrix.mul`` clears each operand's denominators once, takes the
dot products on Python ints and builds one canonical scalar per output
entry.  ``matspace._images`` (the column spaces) and ``matspace.conjugate``
hand their integer products to an elimination without building scalars.  The definitional products, summing field
scalars entry by entry, are kept here as the reference; the last four
tests pin that no ``Fraction`` arithmetic is left on the product path,
that the elimination takes those integer rows as they are, and that a
space over Q that is only loaded, dualized, filtered or certified never
builds its ``Fraction`` basis.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mathieumat.errors import SingularMatrixError
from mathieumat import linalg, matspace, multipoly
from mathieumat.linalg import DenseMatrix, Field, _cleared, _scalars, invert
from mathieumat.matspace import (
    Filtration,
    MatrixSubspace,
    _images,
    binary_profile,
    column_space,
    conjugate,
    constraint_space,
)
from mathieumat.normalize import rct_certificate
from mathieumat.spacefile import loads

from helpers import record_calls, rref, zeros

F2, F3, F5 = Field.prime(2), Field.prime(3), Field.prime(5)
F_BIG, QQ = Field.prime(2**31 - 1), Field.rationals()
FIELDS = (QQ, F2, F5, F_BIG)


def reference_mul(a, b):
    """The entry-by-entry sum of field products."""
    f = a.field
    cols = [b.column(j) for j in range(b.cols)]
    if f.p:
        out = [[sum(x * y for x, y in zip(row, col)) % f.p for col in cols]
               for row in a.entries]
    else:
        out = [[sum((x * y for x, y in zip(row, col)), f.zero) for col in cols]
               for row in a.entries]
    return DenseMatrix(f, out, cols=b.cols)


def reference_mul_vector(a, v):
    f = a.field
    if f.p:
        return tuple(sum(x * y for x, y in zip(row, v)) % f.p for row in a.entries)
    return tuple(sum((x * y for x, y in zip(row, v)), f.zero) for row in a.entries)


def reference_power(a, k):
    out = DenseMatrix.identity(a.field, a.rows)
    for _ in range(k):
        out = reference_mul(out, a)
    return out


def canonical(field, xs):
    if field.p:
        return all(type(x) is int and 0 <= x < field.p for x in xs)
    return all(type(x) is Fraction for x in xs)


def scalars(field):
    if field.p:
        return st.integers(0, field.p - 1)
    return st.one_of(
        st.just(0), st.integers(-9, 9),
        st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**15)))


def matrices(draw, field, rows, cols):
    grid = draw(st.lists(st.lists(scalars(field), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    if draw(st.integers(0, 7)) == 0:
        grid = [[0] * cols for _ in range(rows)]
    return DenseMatrix(field, grid, cols=cols)


@st.composite
def products(draw):
    """An r x c and a c x s matrix and a length-c vector; shapes may be 0."""
    field = draw(st.sampled_from(FIELDS))
    r, c, s = (draw(st.integers(0, 4)) for _ in range(3))
    v = draw(st.lists(scalars(field), min_size=c, max_size=c))
    return matrices(draw, field, r, c), matrices(draw, field, c, s), [field.of(x) for x in v]


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(products())
@example((zeros(QQ, 0, 3), zeros(QQ, 3, 2), [QQ.zero] * 3))
@example((zeros(QQ, 3, 0), zeros(QQ, 0, 2), []))
@example((zeros(F5, 2, 0), zeros(F5, 0, 0), []))
@example((zeros(F5, 2, 0), zeros(F5, 0, 3), []))
def test_products_match_the_fraction_sum(case):
    a, b, v = case
    f = a.field
    prod = a.mul(b)
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert prod.entries == reference_mul(a, b).entries
    assert canonical(f, prod.flatten()) and type(prod.entries) is tuple
    # the integer image is the product times both denominators
    grid, da = _cleared(f, a.entries)
    (cleared,), dv = _cleared(f, [v])
    (image,) = _images(f, [grid], cleared)
    assert all(type(x) is int for x in image)
    assert _scalars(f, image, da * dv) == reference_mul_vector(a, v)
    k = min(a.rows, a.cols)
    square = DenseMatrix(f, [row[:k] for row in a.entries[:k]], cols=k)
    for e in range(4):
        power = square.power(e)
        assert power.entries == reference_power(square, e).entries
        assert canonical(f, power.flatten())


@st.composite
def conjugations(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    gens = [matrices(draw, field, n, n) for _ in range(draw(st.integers(0, 3)))]
    t = matrices(draw, field, n, n)
    assume(rref(t)[1] == n)
    return MatrixSubspace.from_matrices(field, n, gens), t


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(conjugations())
def test_conjugate_matches_the_fraction_sum(case):
    space, t = case
    t_inv = invert(t)
    assert reference_mul(t_inv, t) == DenseMatrix.identity(space.field, space.n)
    want = MatrixSubspace.from_matrices(space.field, space.n, [
        reference_mul(reference_mul(t_inv, m), t) for m in space.basis_matrices])
    got = conjugate(space, t)
    assert got == want
    for m in got.basis_matrices:
        assert canonical(space.field, m.flatten())


@st.composite
def conjugators_of_every_rank(draw):
    """A space of Mat_n over F_2, F_3, F_5 or Q and an n x n matrix t of a
    drawn rank r = 0..n: a unit lower times the first r units of the
    diagonal times a unit upper triangular matrix, with its rows permuted."""
    field = draw(st.sampled_from((F2, F3, F5, QQ)))
    n = draw(st.integers(1, 4))
    r = draw(st.integers(0, n))
    gens = [matrices(draw, field, n, n) for _ in range(draw(st.integers(0, 4)))]
    entries = draw(st.lists(scalars(field), min_size=n * n, max_size=n * n))
    lower = DenseMatrix(field, [[1 if i == j else entries[i * n + j] if j < i else 0
                                 for j in range(n)] for i in range(n)])
    upper = DenseMatrix(field, [[1 if i == j else entries[i * n + j] if j > i else 0
                                 for j in range(n)] for i in range(n)])
    diag = DenseMatrix(field, [[int(i == j < r) for j in range(n)] for i in range(n)])
    order = draw(st.permutations(range(n)))
    t = lower.mul(diag).mul(upper)
    t = DenseMatrix(field, [t.entries[i] for i in order])
    return MatrixSubspace.from_matrices(field, n, gens), t, r


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(conjugators_of_every_rank())
def test_conjugate_matches_the_dense_products(case):
    space, t, r = case
    f, n = space.field, space.n
    assert rref(t)[1] == r
    if r < n:
        with pytest.raises(SingularMatrixError):
            invert(t)
        with pytest.raises(SingularMatrixError):
            conjugate(space, t)
        return
    t_inv = invert(t)
    eye = DenseMatrix.identity(f, n)
    assert t_inv.mul(t) == eye == t.mul(t_inv)
    assert canonical(f, t_inv.flatten())
    got = conjugate(space, t)
    assert got == MatrixSubspace.from_matrices(
        f, n, [t_inv.mul(m).mul(t) for m in space.basis_matrices])
    assert canonical(f, [x for row in got.basis.basis for x in row])


def test_conjugate_rejects_a_conjugator_of_the_wrong_size():
    space = MatrixSubspace.from_matrices(QQ, 2, [[[1, 2], [0, 1]]])
    for t in (DenseMatrix.identity(QQ, 3), DenseMatrix(QQ, [[1, 0, 0], [0, 1, 0]]),
              DenseMatrix(QQ, [[1], [1]])):
        with pytest.raises(ValueError):
            conjugate(space, t)
    with pytest.raises(ValueError):
        invert(DenseMatrix(F3, [[1, 0, 0], [0, 1, 0]]))


def q_spaces():
    gens = [[[2, -1, 0], [Fraction(1, 3), 3, -2], [0, 1, 1]],
            [[1, 0, Fraction(-4, 7)], [0, -2, 0], [3, 0, 1]],
            [[0, Fraction(5, 6), 0], [0, 0, 1], [0, 0, 0]]]
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return [MatrixSubspace.from_matrices(QQ, 3, g) for g in (gens, gens[:2] + [eye], gens[2:])]


def test_products_do_no_fraction_arithmetic(monkeypatch):
    spaces = q_spaces()
    t = DenseMatrix(QQ, [[1, Fraction(1, 2), 3], [1, 3, Fraction(-2, 9)], [2, 5, 7]])
    v = (QQ.of(Fraction(1, 4)), QQ.of(-3), QQ.zero)
    want = [m.mul(t) for s in spaces for m in s.basis_matrices]
    want_columns = [column_space(s, v) for s in spaces]
    want_conjugates = [conjugate(s, t) for s in spaces]
    want_profiles = [Filtration(s).profile() for s in spaces]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic on the product path")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__rsub__"):
        monkeypatch.setattr(Fraction, name, refuse)
    got = [m.mul(t) for s in spaces for m in s.basis_matrices]
    assert got == want
    assert [column_space(s, v) for s in spaces] == want_columns
    assert [conjugate(s, t) for s in spaces] == want_conjugates
    assert [Filtration(s).profile() for s in spaces] == want_profiles


def test_mul_builds_at_most_one_fraction_per_entry(monkeypatch):
    a = DenseMatrix(QQ, [[Fraction(1, 3), -2, Fraction(5, 4)], [0, Fraction(7, 6), 1]])
    b = DenseMatrix(QQ, [[1, Fraction(2, 5)], [Fraction(-3, 8), 0], [4, Fraction(1, 9)]])
    want = reference_mul(a, b)
    made = record_calls(monkeypatch, "__new__", Fraction)
    prod = a.mul(b)
    monkeypatch.undo()
    assert prod == want
    assert len(made) <= prod.rows * prod.cols


def test_integer_rows_are_eliminated_without_clearing(monkeypatch):
    # conjugate and loads hand all-int rows to the elimination over Q, and
    # nothing clears them again: only the entry points holding Fraction
    # rows (here `invert`, on the conjugator) clear them
    t = DenseMatrix(QQ, [[1, Fraction(1, 2), 3], [1, 3, Fraction(-2, 9)], [2, 5, 7]])
    text = "field Q\nn 2\nbasis\n4 -2\n6 0\n\n0 3\n-9 12\n"
    want = [conjugate(s, t) for s in q_spaces()], loads(text)
    calls = record_calls(monkeypatch, "_cleared", linalg)
    assert ([conjugate(s, t) for s in q_spaces()], loads(text)) == want
    assert [row for call in calls for row in call["rows"]
            if all(type(x) is int for x in row)] == []


def test_q_spaces_stay_on_integer_rows(monkeypatch):
    # a space over Q that is only loaded, dualized, filtered and certified
    # never builds its Fraction basis: no row of n^2 canonical scalars is
    # made, and no basis row is cleared back to integers
    n = 4
    c = [[1, 2, 0, -1], [3, 0, 1, 2], [0, -2, 5, 1], [1, 1, 0, -3]]
    blocks = []
    for m in constraint_space(MatrixSubspace.from_matrices(QQ, n, [c])).basis_matrices:
        d = math.lcm(*(x.denominator for x in m.flatten()))
        blocks.append("\n".join(" ".join(str(int(x * d)) for x in row) for row in m.entries))
    text = "field Q\nn %d\nbasis\n%s\n" % (n, "\n\n".join(blocks))

    def run():
        space = loads(text)
        return space, constraint_space(space), binary_profile(space), rct_certificate(space)

    want = run()
    assert want[0].dim == n * n - 1 and want[1].dim == 1
    scalar_calls = record_calls(monkeypatch, "_scalars", linalg)
    cleared_calls = record_calls(monkeypatch, "_cleared", linalg, matspace, multipoly)
    assert run() == want
    scalars = [len(call["ints"]) for call in scalar_calls]
    cleared = [len(row) for call in cleared_calls for row in call["rows"]]
    assert scalars and n * n not in scalars
    assert cleared and n * n not in cleared
