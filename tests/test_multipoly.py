import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from mathieumat.cli import running_pair_space
from mathieumat.linalg import DenseMatrix, Field
from mathieumat.matspace import Filtration, MatrixSubspace, column_space
from mathieumat.multipoly import (
    MultiPoly,
    _div,
    _guard,
    _mul_into,
    find_nonvanishing,
    generic_rank_of_action,
)

from helpers import (degree, filtration_level, first_elements, generic_rank_univariate, poly_sub,
                     random_subspace)

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
QQ = Field.rationals()


def x(field, nvars, i):
    return MultiPoly.variable(field, nvars, i)


def random_poly(rng, field, nvars, max_deg, homogeneous=False, deg=None):
    terms = {}
    target = deg if deg is not None else max_deg
    for _ in range(rng.randrange(1, 6)):
        if homogeneous:
            total = target
        else:
            total = rng.randrange(0, max_deg + 1)
        exps = [0] * nvars
        for _ in range(total):
            exps[rng.randrange(nvars)] += 1
        c = rng.randrange(1, field.p) if field.p else rng.randrange(-5, 6) or 1
        terms[tuple(exps)] = field.of(terms.get(tuple(exps), 0) + c)
    return MultiPoly(field, nvars, terms)


def test_product_difference_of_squares():
    x1, x2 = x(QQ, 2, 1), x(QQ, 2, 2)
    lhs = (x1 + x2) * poly_sub(x1, x2)
    rhs = poly_sub(x1 * x1, x2 * x2)
    assert lhs == rhs
    assert degree(lhs) == 2


def test_evaluate_f2():
    x1, x2 = x(F2, 2, 1), x(F2, 2, 2)
    f = x1 * x2 + MultiPoly(F2, 2, {(0, 0): 1})
    assert f.evaluate((1, 1)) == 0
    assert f.evaluate((0, 1)) == 1


def test_additive_identity_and_zero_normalization():
    f = x(F3, 2, 1) * x(F3, 2, 2) + MultiPoly(F3, 2, {(0, 0): 2})
    assert f + MultiPoly(F3, 2) == f
    assert poly_sub(f, f).is_zero()
    assert poly_sub(f, f).terms == {}
    # coefficients that cancel are never stored
    g = MultiPoly(F3, 1, {(1,): 3})
    assert g.is_zero() and degree(g) == -1


def test_ring_axioms_random():
    rng = random.Random(2)
    for field in (F2, F5, QQ):
        for _ in range(20):
            nv = rng.randrange(1, 4)
            f = random_poly(rng, field, nv, 3)
            g = random_poly(rng, field, nv, 3)
            h = random_poly(rng, field, nv, 3)
            assert f + g == g + f
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert (f * g) * h == f * (g * h)


def _packed(poly, width=3):
    """Hand-packed term dict of a {exponent tuple: int} map; a 3-bit field
    holds exponents 0..3 below its guard bit."""
    return {sum(e << (width * (len(exps) - 1 - i)) for i, e in enumerate(exps)): c
            for exps, c in poly.items()}


def test_div_exact_and_its_guards():
    # _div is the Bareiss loop's safety net: it returns exact quotients and
    # raises on every inexact one instead of returning a false quotient
    guard = _guard(2, 3)
    x1, x2, one = (1, 0), (0, 1), (0, 0)
    for p in (0, 5):
        num = {}
        _mul_into(num, _packed({x1: 1, x2: 1}), _packed({x1: 1, x2: -1}))
        num = {e: c % p if p else c for e, c in num.items() if c}
        assert _div(num, _packed({x1: 1, x2: -1 % p if p else -1}), p, guard) == \
            _packed({x1: 1, x2: 1})
        for bad_num, bad_den in [
            ({(2, 0): 1, one: 1}, {x1: 1, x2: p - 1 if p else -1}),   # remainder x2^2 + 1
            ({(3, 0): 1}, {x1: 1, (0, 3): p - 1 if p else -1}),       # x2^6 outgrows its field
        ]:
            with pytest.raises(ArithmeticError):
                _div(_packed(bad_num), _packed(bad_den), p, guard)
    # over Z every exponent fits, but 2 does not divide x1 + 1
    with pytest.raises(ArithmeticError):
        _div(_packed({x1: 1, one: 1}), _packed({one: 2}), 0, guard)
    # over F_2 a remainder exponent wrapped into the next field would cancel
    # down to a false quotient x1*x2^3 + 1
    with pytest.raises(ArithmeticError):
        _div(_packed({(2, 3): 1, x2: 1}), _packed({x1: 1, x2: 1}), 2, guard)


def test_div_random_roundtrip():
    # (f g) / g = f on integral term dicts, over Z and F_p
    rng = random.Random(3)
    for field in (F3, F5, QQ):
        for _ in range(30):
            nv = rng.randrange(1, 3)
            f, g = (_packed({e: int(c) for e, c in random_poly(rng, field, nv, 2).terms.items()},
                            width=4) for _ in range(2))
            if not g:
                continue
            num = {}
            _mul_into(num, f, g)
            num = {e: c % field.p if field.p else c for e, c in num.items()}
            assert _div({e: c for e, c in num.items() if c}, g, field.p, _guard(nv, 4)) == f


def _terms(field, nvars):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(exps, _coefficients(field), max_size=5)


@st.composite
def polynomial_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 3))
    f, g = (MultiPoly(field, nvars, draw(_terms(field, nvars))) for _ in range(2))
    return f, g


def _sympy_poly(f, xs):
    domain = sympy.GF(f.field.p) if f.field.p else sympy.QQ
    return sympy.Poly.from_dict(
        {e: _sympy_scalar(f.field, c) for e, c in f.terms.items()} or {(0,) * f.nvars: 0},
        *xs, domain=domain)


def _from_sympy(field, poly):
    """Term map of a sympy Poly, coefficients made canonical."""
    if field.p:
        return {e: int(c) % field.p for e, c in poly.as_dict().items() if int(c) % field.p}
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.as_dict().items()}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(polynomial_pairs())
def test_products_and_sums_match_sympy(pair):
    f, g = pair
    xs = sympy.symbols("x1:%d" % (f.nvars + 1))
    sf, sg = _sympy_poly(f, xs), _sympy_poly(g, xs)
    assert (f * g).terms == _from_sympy(f.field, sf * sg)
    assert (f + g).terms == _from_sympy(f.field, sf + sg)


def test_find_nonvanishing_basic():
    f = x(F2, 1, 1)
    assert find_nonvanishing(f, [0, 1]) == (1,)
    # x^2 + x vanishes identically on F_2
    g = MultiPoly(F2, 1, {(2,): 1, (1,): 1})
    assert find_nonvanishing(g, [0, 1]) is None


def test_find_nonvanishing_lexicographic_first():
    f3 = F3
    x2, x3 = x(f3, 3, 2), x(f3, 3, 3)
    f = x3 * x2 * (x2 + x3)
    point = find_nonvanishing(f, [0, 1, 2])
    assert point == (0, 1, 1)
    assert f.evaluate(point) == 2


def test_find_nonvanishing_distinct_grid_required():
    with pytest.raises(ValueError):
        find_nonvanishing(x(F3, 1, 1), [1, 1])


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=repr)
def test_find_nonvanishing_on_a_constant(field):
    # s^0 is the one empty point, for an empty grid too: a nonzero
    # constant is nonzero there, the zero constant nowhere
    three = MultiPoly(field, 0, {(): 3})
    for grid in ([], [0], [0, 1]):
        assert find_nonvanishing(three, grid) == ()
        assert find_nonvanishing(MultiPoly(field, 0), grid) is None
    with pytest.raises(ValueError):
        find_nonvanishing(three, [1, 1])


def test_generic_rank_of_action_examples():
    eye = MatrixSubspace.from_matrices(F3, 3, [DenseMatrix.identity(F3, 3)])
    assert generic_rank_of_action(eye) == 1
    assert generic_rank_of_action(running_pair_space(F2).adjoin_identity()) == 3
    assert generic_rank_of_action(MatrixSubspace.from_matrices(F5, 3, [])) == 0


def test_generic_rank_univariate_examples():
    eye = MatrixSubspace.from_matrices(F3, 3, [DenseMatrix.identity(F3, 3)])
    assert generic_rank_univariate(eye, 1, 3) == 1
    assert generic_rank_univariate(running_pair_space(F2).adjoin_identity(), 2, 3) == 3
    assert generic_rank_univariate(MatrixSubspace.from_matrices(F3, 3, []), 1, 2) == 0


def test_specialization_bound():
    # rank of any specialization never exceeds the generic rank
    rng = random.Random(8)
    for field in (F2, F5, QQ):
        for _ in range(20):
            n = rng.randrange(1, 4)
            space = random_subspace(rng, field, n)
            d = generic_rank_of_action(space)
            for _ in range(5):
                v = tuple(field.of(rng.randrange(-4, 5)) for _ in range(n))
                assert column_space(space, v).dim <= d


def test_generic_rank_attained_on_grid():
    # with #S = min(#K, d+1) values the maximum over the grid reaches d
    rng = random.Random(9)
    for p in (2, 3, 5, 7):
        field = Field.prime(p)
        for _ in range(6):
            n = rng.randrange(1, 4)
            space = random_subspace(rng, field, n)
            d = generic_rank_of_action(space)
            if not field.size_at_least(d):
                continue
            grid = first_elements(field, d + 1)
            best = max(
                (column_space(space, v).dim
                 for v in itertools.product(grid, repeat=n)), default=0)
            assert best == d


def test_generic_rank_basis_independent():
    f = F5
    a = DenseMatrix(f, [[1, 2, 0], [0, 1, 0], [3, 0, 1]])
    b = DenseMatrix(f, [[0, 0, 1], [1, 1, 1], [2, 0, 0]])
    s1 = MatrixSubspace.from_matrices(f, 3, [a, b])
    s2 = MatrixSubspace.from_matrices(f, 3, [a + b.scale(3), b.scale(2)])
    assert s1 == s2
    assert generic_rank_of_action(s1) == generic_rank_of_action(s2)


def test_evaluate_arity_checked():
    with pytest.raises(ValueError):
        x(QQ, 2, 1).evaluate((1,))


# Differential oracle: ranks over K(x) against sympy's DomainMatrix.

def _sympy_rank(field, grid, symbols):
    """Rank of a grid of sympy expressions over K(symbols)."""
    base = sympy.QQ if field.p == 0 else sympy.GF(field.p)
    dom = base.frac_field(*symbols)
    if not grid or not grid[0]:
        return 0
    return DomainMatrix([[dom.from_sympy(e) for e in row] for row in grid],
                        (len(grid), len(grid[0])), dom).rank()


FIELDS = [F2, F3, F5, QQ]


def _coefficients(field):
    if field.p:
        return st.integers(0, field.p - 1)
    return st.fractions(min_value=-4, max_value=4, max_denominator=9)


@st.composite
def spaces(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    # entries outside a common support vanish; with rows left out of it the
    # generic rank falls short of min(n, dim)
    rows = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    support = [[keep and cell for cell in draw(st.lists(st.booleans(), min_size=n, max_size=n))]
               for keep in rows]
    scalars = _coefficients(field)
    gens = draw(st.lists(
        st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n),
        max_size=n + 2))
    # a generator kept to its first columns gives the lower filtration
    # levels members
    widths = [draw(st.integers(1, n)) for _ in gens]
    gens = [DenseMatrix(field, [[c if keep and l < w else 0
                                 for l, (c, keep) in enumerate(zip(row, mask))]
                                for row, mask in zip(g, support)])
            for g, w in zip(gens, widths)]
    k, j = draw(st.integers(1, n)), draw(st.integers(1, n))
    return MatrixSubspace.from_matrices(field, n, gens), k, j


def _sympy_scalar(field, c):
    return sympy.Rational(c.numerator, c.denominator) if field.p == 0 else sympy.Integer(c)


# Its RREF basis rows have denominators 2, 4 and 12 within one row; with
# the numerators alone the rank over Q(x) would read 3 instead of 2.
MIXED_DENOMINATORS = MatrixSubspace.from_matrices(QQ, 3, [
    [[1, 2, 3], [0, 0, 0], [0, 0, 0]], [[0, -1, 3], [0, 0, 0], [0, 0, 0]],
    [[2, 1, 3], [2, 0, -1], [1, 3, 0]]])


# k = j: the pencil is C e_k (1 + t), of rank dim span{C e_k}; over F_2
# the specialization t = 1 would read 0.
PAIR_PLUS_IDENTITY_F2 = MatrixSubspace.from_matrices(F2, 3, [
    [[0, 1, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 1], [0, 0, 0]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(spaces())
@example((MIXED_DENOMINATORS, 1, 3))
@example((PAIR_PLUS_IDENTITY_F2, 2, 2))
def test_generic_ranks_of_spaces_match_sympy(case):
    space, k, j = case
    f, n = space.field, space.n
    mats = _sympy_matrices(space)
    xs = sympy.symbols("x1:%d" % (n + 1))
    assert generic_rank_of_action(space) == _sympy_action_rank(space, xs)
    # every generic dimension of the one filtration readout, level by level
    assert Filtration(space).d == tuple(
        _sympy_action_rank(filtration_level(space, level), xs) for level in range(n + 1))
    # column C (e_k + t e_j) for each basis matrix C
    t = sympy.Symbol("t")
    uni = [[m[i][k - 1] + t * m[i][j - 1] for m in mats] for i in range(n)]
    assert generic_rank_univariate(space, k, j) == _sympy_rank(f, uni if mats else [], (t,))


def _sympy_matrices(space):
    return [[[_sympy_scalar(space.field, c) for c in row] for row in m.entries]
            for m in space.basis_matrices]


def _sympy_action_rank(space, xs):
    """Rank over K(x) of the columns C x, C over the basis, by sympy."""
    mats = _sympy_matrices(space)
    action = [[sum(m[i][l] * xs[l] for l in range(space.n)) for m in mats]
              for i in range(space.n)]
    return _sympy_rank(space.field, action if mats else [], xs)
