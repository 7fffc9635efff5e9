"""Acceptance suite: one test per criterion, one printed line each.

Every expected value is exact; there are no tolerances anywhere.  Run
with ``pytest -s tests/test_acceptance.py`` to see the lines as they
pass.
"""

import itertools
import random
from fractions import Fraction

from mathieumat.cli import running_pair_space
from mathieumat.errors import HypothesisFailed, MathieuMatError
from mathieumat.idempotents import (
    LOWER,
    UPPER,
    corner_slice,
    full_space_certificate,
    idempotent_family,
)
from mathieumat.linalg import (
    DenseMatrix,
    Field,
    all_subspaces,
    invert,
)
from mathieumat.matspace import (
    MatrixSubspace,
    binary_profile,
    column_space,
    conjugate,
    constraint_space,
)
from mathieumat.multipoly import MultiPoly, find_nonvanishing, generic_rank_of_action
from mathieumat.normalize import normalize, rct_certificate, rct_zero_is_scalar
from mathieumat.verify import (
    ALL_TYPES,
    LEFT,
    TWO_SIDED,
    left_ideal_equivalences,
    left_ideal_normal_form,
    max_left_ideal,
    verify_mathieu,
    witness_replays,
)

from helpers import (all_matrices, degree, elements, first_elements, neg, reference_is_left_ideal,
                     rref, trace_zero)

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
F7 = Field.prime(7)
QQ = Field.rationals()


def report(number, ok, text):
    print("ACCEPTANCE %2d: %s - %s" % (number, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %d failed: %s" % (number, text)


def test_criterion_01_small_field_obstruction_is_exhaustive():
    space = running_pair_space(F2)
    conjugators = 0
    successes = 0
    for t in all_matrices(F2, 3, 3):
        try:
            invert(t)
        except MathieuMatError:
            continue
        conjugators += 1
        moved = conjugate(space, t)
        for r in (1, 2):
            if rct_zero_is_scalar(moved, r):
                successes += 1
    report(1, conjugators == 168 and successes == 0,
           "no conjugation over F_2 (168 tried, r in {1,2}) makes the "
           "zero-corner members scalar")


def test_criterion_02_lift_to_f3_succeeds():
    m = constraint_space(running_pair_space(F3))
    cert = rct_certificate(m)
    conclusion = rct_zero_is_scalar(conjugate(constraint_space(m), cert.t), cert.r)
    moved = conjugate(m, cert.t)
    full_cert = full_space_certificate(moved, cert.r)
    nil = full_cert.e + full_cert.e_prime - DenseMatrix.identity(F3, 3)
    cube_zero = nil.mul(nil).mul(nil).is_zero()
    report(2, cert.r == 2 and conclusion and cube_zero,
           "over F_3 the certificate exists with r = 2 and the idempotent "
           "sum is unipotent of index <= 3")


def test_criterion_03_codim_n_family_is_two_sided():
    ok = True
    for field in (F5, F7):
        from mathieumat.verify import proposition_family
        fam = proposition_family(field, 2, 1)
        ok &= verify_mathieu(fam, TWO_SIDED).holds
        idems = [e for e in elements(fam) if e.mul(e) == e]
        ok &= len(idems) == 1 and idems[0].is_zero()
    report(3, ok,
           "the codimension-n family over F_5 and F_7 (n=2, a=1) is "
           "two-sided Mathieu with no nonzero idempotent")


def test_criterion_04_trace_zero_boundary_at_char_two():
    ok = True
    for p in (3, 5):
        h = trace_zero(Field.prime(p), 2)
        for vtype in ALL_TYPES:
            ok &= verify_mathieu(h, vtype).holds
    h2 = trace_zero(F2, 2)
    for vtype in ALL_TYPES:
        verdict = verify_mathieu(h2, vtype)
        ok &= not verdict.holds
        ok &= verdict.witness is not None and witness_replays(h2, verdict.witness)
    report(4, ok,
           "trace-zero 2x2 spaces are Mathieu (all four types) over F_3 "
           "and F_5 and fail over F_2 with replaying witnesses")


def test_criterion_05_no_left_mathieu_codim_one_over_f2():
    total = 0
    passing = 0
    for basis in all_subspaces(F2, 4, 3):
        total += 1
        space = MatrixSubspace(F2, 2, basis)
        if verify_mathieu(space, LEFT).holds:
            passing += 1
    report(5, total == 15 and passing == 0,
           "all 15 three-dimensional subspaces of Mat_2(F_2) fail the "
           "left property")


def test_criterion_06_mathieu_implies_trace_zero_over_f3():
    total = 0
    mathieu_count = 0
    ok = True
    for basis in all_subspaces(F3, 4, 3):
        total += 1
        space = MatrixSubspace(F3, 2, basis)
        if any(verify_mathieu(space, t).holds for t in ALL_TYPES):
            mathieu_count += 1
            ok &= all(m.trace() == 0 for m in space.basis_matrices)
    report(6, total == 40 and mathieu_count >= 1 and ok,
           "every Mathieu space among the 40 three-dimensional subspaces "
           "of Mat_2(F_3) consists of trace-zero matrices "
           "(%d found)" % mathieu_count)


def test_criterion_07_family_dimension_identity():
    rng = random.Random(701)
    checked = 0
    ok = True
    while checked < 100:
        gens = [DenseMatrix(F5, [[rng.randrange(5) for _ in range(3)]
                                 for _ in range(3)])
                for _ in range(rng.randrange(4, 9))]
        space = MatrixSubspace.from_matrices(F5, 3, gens)
        r = rng.choice([1, 2])
        form = rng.choice([UPPER, LOWER])
        try:
            fam = idempotent_family(space, r, form)
        except HypothesisFailed:
            continue
        checked += 1
        ok &= fam.dim == corner_slice(space, r).dim
        cons = constraint_space(space)
        for member in fam.members():
            ok &= member.mul(member) == member
            ok &= rref(member)[1] == fam.rank
            ok &= space.contains(member)
            ok &= all(c.mul(member).trace() == 0 for c in cons.basis_matrices)
    report(7, ok,
           "on 100 random subspaces of Mat_3(F_5) the family dimension "
           "equals the corner-slice dimension and every member is a "
           "rank-r idempotent inside the space")


def test_criterion_08_generic_rank_equals_grid_maximum():
    rng = random.Random(801)
    ok = True
    for trial in range(100):
        field = F5 if trial % 2 == 0 else QQ
        n = rng.randrange(1, 4)
        gens = [DenseMatrix(field, [
            [field.of(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)])
            for _ in range(rng.randrange(0, n + 2))]
        space = MatrixSubspace.from_matrices(field, n, gens)
        d = generic_rank_of_action(space)
        grid = field.elements() if field.p else [Fraction(k) for k in range(n + 1)]
        best = 0
        for v in itertools.product(grid, repeat=n):
            best = max(best, column_space(space, v).dim)
            if best == d:
                break
        ok &= best == d
    report(8, ok,
           "on 100 random subspaces (n <= 3, F_5 and Q) the generic rank "
           "equals the maximum specialization rank over the full grid")


def test_criterion_09_normal_form_postconditions():
    rng = random.Random(901)
    ok = True
    runs = 0
    while runs < 200:
        field = rng.choice([F5, F7])
        n = rng.choice([3, 4])
        gens = [DenseMatrix(field, [[rng.randrange(field.p) for _ in range(n)]
                                    for _ in range(n)])
                for _ in range(rng.randrange(0, n + 1))]
        cn = MatrixSubspace.from_matrices(field, n, gens)
        if rng.random() < 0.5:
            cn = cn.adjoin_identity()
        d_before = generic_rank_of_action(cn)
        if not field.size_at_least(d_before):
            continue
        runs += 1
        result = normalize(cn)
        prof = binary_profile(result.c_n_final)   # independent recomputation
        ok &= prof.b == prof.col_dims == prof.d[1:]
        ok &= prof.rows_increasing()
        b_next = prof.b[n - 2]
        if field.size_at_least(min(b_next, n - 1) + 1):
            ok &= prof.columns_decreasing_above_diagonal()
        if result.c_n_final.contains_identity():
            ok &= prof.b[n - 1] > min(b_next, n - 1)
            ok &= prof.B[n - 2][n - 1] >= prof.B[n - 1][n - 2]
        ok &= prof.d[n] == d_before
        ok &= result.c_n_final == conjugate(cn, result.t_total)
    report(9, ok,
           "200 random normal-form runs over F_5/F_7, n in {3,4}: counts "
           "match dimensions match generic dims, rows increasing, columns "
           "decreasing when the field allows, identity corner "
           "inequalities, top generic dimension preserved")


def test_criterion_10_left_ideal_equivalences():
    rng = random.Random(1001)
    ok = True
    for _ in range(100):
        gens = [DenseMatrix(F3, [[rng.randrange(3) for _ in range(2)]
                                 for _ in range(2)])
                for _ in range(rng.randrange(0, 5))]
        space = MatrixSubspace.from_matrices(F3, 2, gens)
        ideal = max_left_ideal(space)
        ok &= reference_is_left_ideal(ideal)
        ok &= ideal.dim % 2 == 0
        nf = left_ideal_normal_form(ideal)
        ok &= ideal.dim == 2 * nf.k
        expected = MatrixSubspace.from_matrices(F3, 2, [
            DenseMatrix.unit(F3, 2, 2, u, v)
            for u in range(2) for v in range(nf.k)])
        ok &= conjugate(ideal, nf.t) == expected
        ok &= nf.idempotent.mul(nf.idempotent) == nf.idempotent
        ok &= ideal.contains(nf.idempotent) or nf.k == 0
        generated = MatrixSubspace.from_matrices(F3, 2, [
            DenseMatrix.unit(F3, 2, 2, i, j).mul(nf.idempotent)
            for i in range(2) for j in range(2)])
        ok &= generated == ideal
        rep = left_ideal_equivalences(space)
        ok &= rep.consistent
    report(10, ok,
           "100 random subspaces of Mat_2(F_3): the maximal left ideal "
           "has dimension 2k, normalizes to the column-kill space with "
           "a generating idempotent, and the three one-sided predicates "
           "agree")


def _random_poly(rng, field, nvars, deg, homogeneous):
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        total = deg if homogeneous else rng.randrange(0, deg + 1)
        exps = [0] * nvars
        for _ in range(total):
            exps[rng.randrange(nvars)] += 1
        c = rng.randrange(1, field.p) if field.p else rng.randrange(-4, 5) or 1
        terms[tuple(exps)] = field.of(field.of(c) + terms.get(tuple(exps), field.zero))
    return MultiPoly(field, nvars, terms)


def test_criterion_11_grid_vanishing_bounds():
    rng = random.Random(1101)
    ok = True
    for field in (F3, F5, QQ):
        size = field.p if field.p else 6
        for _ in range(500):
            nvars = rng.randrange(1, 4)
            # case: more grid values than the degree
            deg = rng.randrange(0, size - 1) if field.p else rng.randrange(0, 4)
            f = _random_poly(rng, field, nvars, deg, homogeneous=False)
            if not f.is_zero():
                s = first_elements(field, degree(f) + 1)
                ok &= find_nonvanishing(f, s) is not None
            # case: homogeneous, zero in the grid, #S >= max(deg, 2)
            deg = rng.randrange(1, size) if field.p else rng.randrange(1, 5)
            g = _random_poly(rng, field, nvars, deg, homogeneous=True)
            if not g.is_zero():
                s = first_elements(field, max(degree(g), 2))
                ok &= find_nonvanishing(g, s) is not None
    # sharpness: families vanishing on their whole grid return None
    for q in (2, 3, 5):
        fq = Field.prime(q)
        x1 = MultiPoly.variable(fq, 2, 1)
        x2 = MultiPoly.variable(fq, 2, 2)
        pow_diff = MultiPoly(fq, 2, {(q, 0): 1, (1, 0): neg(fq, fq.one)})
        ok &= find_nonvanishing(pow_diff, list(fq.elements())) is None
        frobenius_pair = MultiPoly(fq, 2, {(q, 1): 1, (1, q): neg(fq, fq.one)})
        ok &= find_nonvanishing(frobenius_pair, list(fq.elements())) is None
        units_only = MultiPoly(fq, 2, {(q - 1, 0): 1, (0, q - 1): neg(fq, fq.one)})
        ok &= find_nonvanishing(units_only, list(range(1, q))) is None
        if q > 2:
            unit_circle = MultiPoly(fq, 1, {(q - 1,): 1, (0,): neg(fq, fq.one)})
            ok &= find_nonvanishing(unit_circle, list(range(1, q))) is None
    report(11, ok,
           "500 random polynomials per case and field (F_3, F_5, Q) all "
           "yield grid witnesses under the degree bounds; the sharpness "
           "families vanish on their whole grids")
