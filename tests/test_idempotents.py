import itertools
import random
from fractions import Fraction

import pytest

from mathieumat import idempotents as idempotent_layer
from mathieumat.cli import running_pair_space
from mathieumat.errors import FieldTooSmallError, HypothesisFailed, PreconditionViolated
from mathieumat.idempotents import (
    LOWER,
    UPPER,
    corner_slice,
    _family,
    full_space_certificate,
    idempotent_family,
)
from mathieumat.linalg import DenseMatrix, Field, VectorSubspace, all_subspaces, invert
from mathieumat.matspace import MatrixSubspace, conjugate, constraint_space
from mathieumat.normalize import rct_certificate
from mathieumat.verify import idempotents

from helpers import image, image_conjugator, rref, trace_zero, transpose, unit, with_block

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
F7 = Field.prime(7)
QQ = Field.rationals()


def matrix_rank(m):
    return rref(m)[1]


def lower_right_free_space(field):
    # {M in Mat_2 : M12 = 0}
    return MatrixSubspace.from_matrices(field, 2, [
        unit(field, 2, 0, 0), unit(field, 2, 1, 0), unit(field, 2, 1, 1)])


def test_family_one_parameter():
    m = lower_right_free_space(F3)
    fam = idempotent_family(m, 1, UPPER)
    assert fam.dim == 1
    members = list(fam.members())
    assert len(members) == 3
    expected = {DenseMatrix(F3, [[1, 0], [c, 0]]) for c in range(3)}
    assert set(members) == expected
    assert fam.dim == corner_slice(m, 1).dim


def test_corner_slice_is_intersection_with_the_block():
    rng = random.Random(23)
    for _ in range(30):
        field, n = rng.choice([(F2, 3), (F3, 3), (F5, 2)])
        gens = [DenseMatrix(field, [[rng.randrange(field.p) for _ in range(n)]
                                    for _ in range(n)])
                for _ in range(rng.randrange(1, n * n))]
        space = MatrixSubspace.from_matrices(field, n, gens)
        for r in range(1, n):
            block = MatrixSubspace.from_matrices(field, n, [
                unit(field, n, i, j) for i in range(r, n) for j in range(r)])
            assert corner_slice(space, r) == MatrixSubspace(
                field, n, space.basis.intersect(block.basis))


def test_corner_slice_rejects_r_outside_the_corner_range():
    # as idempotent_family and rct_zero_members do; each once answered the zero space
    space = MatrixSubspace.full_space(F3, 3)
    for r in (-1, 0, 3, 7):
        with pytest.raises(ValueError, match="r = %d out of range 1..2" % r):
            corner_slice(space, r)


def test_family_hypothesis_failed_on_trace_zero_space():
    with pytest.raises(HypothesisFailed) as exc:
        idempotent_family(trace_zero(F5, 2), 1, UPPER)
    assert exc.value.witness == DenseMatrix.identity(F5, 2)


def test_family_full_space_has_maximal_dimension():
    m = MatrixSubspace.full_space(F2, 3)
    for r in (1, 2):
        for form in (UPPER, LOWER):
            fam = idempotent_family(m, r, form)
            assert fam.dim == (3 - r) * r


def test_family_members_are_idempotents_of_stated_rank():
    rng = random.Random(47)
    produced = 0
    while produced < 12:
        n = 3
        gens = [DenseMatrix(F3, [[rng.randrange(3) for _ in range(n)]
                                 for _ in range(n)])
                for _ in range(rng.randrange(5, 9))]
        m = MatrixSubspace.from_matrices(F3, n, gens)
        r = rng.choice([1, 2])
        form = rng.choice([UPPER, LOWER])
        try:
            fam = idempotent_family(m, r, form)
        except HypothesisFailed:
            continue
        produced += 1
        cons = constraint_space(m)
        for member in fam.members():
            assert member.mul(member) == member
            assert matrix_rank(member) == fam.rank
            assert m.contains(member)
            for c in cons.basis_matrices:
                assert c.mul(member).trace() == F3.zero
        assert fam.dim == corner_slice(m, r).dim


def test_lower_form_matches_transpose_reduction():
    # flipping along the antidiagonal turns lower-form families of a
    # space into upper-form families of the flipped space
    rng = random.Random(53)
    f = F3
    n = 3
    rev = DenseMatrix(f, [[1 if i + j == n - 1 else 0 for j in range(n)]
                          for i in range(n)])

    def flip(mat):
        return rev.mul(transpose(mat)).mul(rev)

    checked = 0
    while checked < 8:
        gens = [DenseMatrix(f, [[rng.randrange(3) for _ in range(n)]
                                for _ in range(n)])
                for _ in range(rng.randrange(5, 9))]
        m = MatrixSubspace.from_matrices(f, n, gens)
        r = rng.choice([1, 2])
        flipped = MatrixSubspace.from_matrices(f, n, [flip(b) for b in m.basis_matrices])
        try:
            low = idempotent_family(m, r, LOWER)
            up = idempotent_family(flipped, n - r, UPPER)
        except HypothesisFailed:
            continue
        checked += 1
        assert {flip(e) for e in low.members()} == set(up.members())


def test_certificate_full_matrix_space():
    cert = full_space_certificate(MatrixSubspace.full_space(F3, 2), 1)
    assert cert.e == DenseMatrix(F3, [[1, 0], [0, 0]])
    assert cert.e_prime == DenseMatrix(F3, [[0, 0], [0, 1]])
    assert (cert.e + cert.e_prime) == DenseMatrix.identity(F3, 2)


def test_certificate_hypothesis_failure():
    with pytest.raises(HypothesisFailed) as exc:
        full_space_certificate(lower_right_free_space(F3), 1)
    assert exc.value.witness == unit(F3, 2, 1, 0)


def test_certificate_precondition_identity_constraint():
    with pytest.raises(PreconditionViolated):
        full_space_certificate(trace_zero(F3, 2), 1)


def test_certificate_sum_nilpotency():
    cert = full_space_certificate(MatrixSubspace.full_space(F5, 3), 2)
    nil = cert.e + cert.e_prime - DenseMatrix.identity(F5, 3)
    assert nil.mul(nil).is_zero()
    assert matrix_rank(cert.e) == 2
    assert matrix_rank(cert.e_prime) == 1


def test_family_with_block_embedding():
    fam = idempotent_family(MatrixSubspace.full_space(F2, 2), 1, UPPER)
    shifted = with_block(fam, (1,))
    assert shifted == DenseMatrix(F2, [[1, 0], [1, 0]])
    assert shifted.mul(shifted) == shifted
    # one free coordinate: a longer or an empty block is refused
    for block in ((1, 1, 1), ()):
        with pytest.raises(ValueError, match="block has wrong length"):
            with_block(fam, block)
    # ``members`` shifts the free block itself and trusts what it builds:
    # the same matrices, in the same order, as the validating shift by
    # each combination of the directions
    rng = random.Random(181)
    directed = 0
    for field, n in [(F2, 3), (F3, 3), (F5, 2)] * 4:
        space = MatrixSubspace.from_matrices(field, n, [
            random_matrix(rng, field, n) for _ in range(rng.randrange(2, n * n))])
        for r in range(1, n):
            for form in (UPPER, LOWER):
                try:
                    fam = idempotent_family(space, r, form)
                except HypothesisFailed:
                    continue
                shifts = [[sum(c * x for c, x in zip(coeffs, col)) for col in
                           zip(*fam.directions.basis)] or [0] * ((n - r) * r)
                          for coeffs in itertools.product(range(field.p), repeat=fam.dim)]
                assert list(fam.members()) == [with_block(fam, v) for v in shifts]
                directed += fam.dim > 0
    assert directed >= 4


def of_shape(e, r, form):
    """Whether e has the shape of the form's family at block size r: the
    identity on the fixed diagonal block, anything on the lower-left
    (n-r) x r block and zeros elsewhere."""
    n, f = e.rows, e.field
    fixed = range(r) if form == UPPER else range(r, n)
    return all(e.entries[i][j] == (f.one if i == j and i in fixed else f.zero)
               for i in range(n) for j in range(n) if not (i >= r and j < r))


def random_matrix(rng, field, n):
    def scalar():
        if field.p:
            return rng.randrange(field.p)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return DenseMatrix(field, [[scalar() for _ in range(n)] for _ in range(n)])


def seeded_space(rng, field, n):
    """A space spanned by random matrices, more often of small codimension."""
    dim = rng.choice([rng.randrange(n * n + 1), n * n - rng.randrange(2 * n)])
    return MatrixSubspace.from_matrices(field, n, [random_matrix(rng, field, n)
                                                   for _ in range(dim)])


@pytest.mark.parametrize("field, n", [(F2, 2), (F3, 2), (F5, 2), (F2, 3), (F3, 3)], ids=repr)
def test_family_is_every_idempotent_of_its_shape(field, n):
    # the family solves the trace system completely: its members are all
    # the idempotents of M of that shape, and it fails exactly when none is
    rng = random.Random(61 + 10 * field.p + n)
    solved = failed = 0
    for _ in range(8):
        space = seeded_space(rng, field, n)
        found = idempotents(space)
        for r in range(1, n):
            for form in (UPPER, LOWER):
                expected = [e for e in found if of_shape(e, r, form)]
                try:
                    fam = idempotent_family(space, r, form)
                except HypothesisFailed:
                    assert expected == []
                    failed += 1
                    continue
                members = list(fam.members())
                assert len(members) == len(expected)
                assert set(members) == set(expected)
                solved += 1
    assert solved >= 4 and failed >= 1


def test_q_family_points_are_idempotents_of_the_space():
    # over Q the particular point, and that point plus each direction,
    # are idempotents of the stated rank inside the space
    rng = random.Random(67)
    checked = 0
    for _ in range(40):
        n = rng.choice([3, 4])
        space = seeded_space(rng, QQ, n)
        for r in range(1, n):
            for form in (UPPER, LOWER):
                try:
                    fam = idempotent_family(space, r, form)
                except HypothesisFailed:
                    continue
                checked += 1
                points = [fam.particular] + [with_block(fam, v) for v in fam.directions.basis]
                for e in points:
                    assert e.mul(e) == e
                    assert space.contains(e)
                    assert matrix_rank(e) == fam.rank
    assert checked >= 20


def test_q_family_reads_only_the_integer_constraint_rows(monkeypatch):
    # the trace system is built on the constraints' integer rows: a family
    # found once is found again with the Fraction basis and the basis
    # matrices refused
    def refuse(space):
        raise AssertionError("a basis view read by the trace system")

    rng = random.Random(71)
    checked = 0
    for _ in range(20):
        space = seeded_space(rng, QQ, 3)
        for r in (1, 2):
            for form in (UPPER, LOWER):
                c = constraint_space(space)
                try:
                    _family(c, r, form)
                except HypothesisFailed:
                    continue
                with monkeypatch.context() as m:
                    m.setattr(VectorSubspace, "basis", property(refuse))
                    m.setattr(MatrixSubspace, "basis_matrices", property(refuse))
                    _family(c, r, form)
                checked += c.dim > 0
    assert checked >= 5


def image_family(constraints, u):
    """The idempotents with image U of the space with these constraints,
    as ``(family, t, t^-1)``: the lower family of the conjugated
    constraints at r = n - dim U, whose members m give t m t^-1."""
    t = image_conjugator(u)
    return (_family(conjugate(constraints, t), constraints.n - u.dim, LOWER),
            t, invert(t))


@pytest.mark.parametrize("field, n", [(F2, 2), (F3, 2), (F5, 2), (F2, 3), (F3, 3), (F5, 3)],
                         ids=repr)
def test_family_of_each_image_is_every_idempotent_with_that_image(field, n):
    # e has image U iff t^-1 e t has image span(e_(r+1) .. e_n): over all
    # images U, the families conjugated back are the idempotents of M
    # other than 0 and I, and a family fails exactly where none has image U
    rng = random.Random(73 + 10 * field.p + n)
    failed = 0
    for _ in range(8):
        space = seeded_space(rng, field, n)
        while field.p ** space.dim > 2 ** 17:
            space = seeded_space(rng, field, n)
        by_image = {}
        for e in idempotents(space):
            by_image.setdefault(image(e), set()).add(e)
        constraints = constraint_space(space)
        total = 1 + space.contains_identity()
        for k in range(1, n):
            for u in all_subspaces(field, n, k):
                try:
                    fam, t, t_inv = image_family(constraints, u)
                except HypothesisFailed:
                    assert u not in by_image
                    failed += 1
                    continue
                members = [t.mul(m).mul(t_inv) for m in fam.members()]
                for e in members:
                    assert e.mul(e) == e and space.contains(e) and image(e) == u
                assert len(set(members)) == len(members)
                assert set(members) == by_image[u]
                total += len(members)
        assert total == sum(map(len, by_image.values()))
    assert failed >= 1


def test_q_family_of_each_image_holds_idempotents_with_that_image():
    # over Q the particular point of a random image's family, and that
    # point plus each direction, conjugated back, are idempotents of M
    # with image U
    rng = random.Random(79)
    checked = 0
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        space = seeded_space(rng, QQ, n)
        constraints = constraint_space(space)
        for k in range(1, n):
            u = VectorSubspace.from_vectors(QQ, n, [[rng.randint(-2, 2) for _ in range(n)]
                                                    for _ in range(k)])
            if u.dim != k:
                continue
            try:
                fam, t, t_inv = image_family(constraints, u)
            except HypothesisFailed:
                continue
            checked += 1
            for m in [fam.particular] + [with_block(fam, v) for v in fam.directions.basis]:
                e = t.mul(m).mul(t_inv)
                assert e.mul(e) == e and space.contains(e) and image(e) == u
    assert checked >= 20


@pytest.mark.parametrize("field", [F3, F5, F7, QQ], ids=repr)
def test_certificate_idempotents_lie_in_the_space(field):
    # each space of codim below n, moved by its rct certificate, gets two
    # idempotents of ranks r and n - r inside it, or a typed refusal
    rng = random.Random(83 + field.p)
    certified = 0
    for _ in range(20):
        n = rng.choice([3, 4])
        m = constraint_space(MatrixSubspace.from_matrices(
            field, n, [random_matrix(rng, field, n) for _ in range(rng.randrange(1, n))]))
        try:
            cert = rct_certificate(m)
        except (FieldTooSmallError, PreconditionViolated):
            continue
        moved = conjugate(m, cert.t)
        full = full_space_certificate(moved, cert.r)
        certified += 1
        for e, rank in ((full.e, cert.r), (full.e_prime, n - cert.r)):
            assert moved.contains(e)
            assert e.mul(e) == e
            assert matrix_rank(e) == rank
    assert certified >= 12


def test_certificate_refuses_an_idempotent_outside_the_space(monkeypatch):
    # the sum of the two forms is unipotent whatever their free blocks
    # hold, so only membership can catch a wrong point: the particular
    # point moved off its family by one unit of the free block is refused
    m = constraint_space(running_pair_space(F3))
    cert = rct_certificate(m)
    moved = conjugate(m, cert.t)
    solve = idempotent_layer._family

    def shifted(constraints, r, form):
        fam = solve(constraints, r, form)
        block = [F3.one] + [F3.zero] * ((fam.n - fam.r) * fam.r - 1)
        return fam._replace(particular=with_block(fam, block))

    monkeypatch.setattr(idempotent_layer, "_family", shifted)
    with pytest.raises(AssertionError, match="lies outside the space"):
        full_space_certificate(moved, cert.r)
