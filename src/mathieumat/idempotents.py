"""Affine families of idempotents cut out by trace constraints.

For a block size r, an upper-form candidate has the identity on its
leading r x r block, free entries on the lower-left (n-r) x r block and
zeros elsewhere; every matrix of that shape is an idempotent of rank r.
The trace conditions are one affine system on the free block, whose
solutions are an affine family of idempotents inside the original space.
By the Fredholm alternative it is solvable iff each constraint with
vanishing top-right block has trace-zero leading principal minor, so
solving it decides that hypothesis.  The lower form (identity on the
trailing block, rank n-r) is the same system with another right-hand side.

The system is built on the constraint space's basis rows, integer rows
over Q, and solved by one elimination of [A | b], which gives the
particular block with the free coordinates zero; its reduced rows,
without b, are the RREF of A, and their ``_kernel`` gives the
directions.  Scalars are built only for the particular member.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import HypothesisFailed, PreconditionViolated
from .linalg import DenseMatrix, _eliminate, _kernel, _scalars
from .matspace import (
    MatrixSubspace,
    constraint_space,
    members_vanishing_at,
    rct_zero_members,
)

UPPER = "upper"
LOWER = "lower"


class AffineFamily(namedtuple("AffineFamily", "n r form particular directions")):
    """particular + directions, all idempotent of the same rank.

    ``directions`` is a VectorSubspace of K^((n-r)r): row-major
    coordinates of the free lower-left block.
    """
    __slots__ = ()

    @property
    def dim(self) -> int:
        return self.directions.dim

    @property
    def rank(self) -> int:
        return self.r if self.form == UPPER else self.n - self.r

    def members(self):
        """All members (prime fields), lexicographic in direction coords:
        the particular member plus each combination of the directions."""
        f, n, r = self.particular.field, self.n, self.r
        top, bottom = self.particular.entries[:r], self.particular.entries[r:]
        for coeffs in itertools.product(f.elements(), repeat=self.dim):
            shift = [0] * ((n - r) * r)
            for c, row in zip(coeffs, self.directions.rows):
                shift = [x + c * y for x, y in zip(shift, row)]
            yield DenseMatrix._trusted(f, top + tuple(
                tuple((x + y) % f.p for x, y in zip(row, shift[a * r:a * r + r])) + row[r:]
                for a, row in enumerate(bottom)), n)


class FullSpaceCertificate(namedtuple("FullSpaceCertificate", "e e_prime r")):
    """Two idempotents of complementary ranks in the space, whose sum is
    unipotent by shape; membership checked."""
    __slots__ = ()


def corner_slice(space: MatrixSubspace, r: int) -> MatrixSubspace:
    """Members supported on the lower-left (n-r) x r block only."""
    n = space.n
    if not 1 <= r <= n - 1:
        raise ValueError("r = %d out of range 1..%d" % (r, n - 1))
    return members_vanishing_at(
        space, [(i, j) for i in range(n) for j in range(n) if i < r or j >= r])


def idempotent_family(space: MatrixSubspace, r: int, form: str = UPPER) -> AffineFamily:
    """The affine family of idempotents of the given form inside ``space``.

    Raises HypothesisFailed (with an offending constraint as witness)
    when some constraint with zero top-right block has a nonzero
    principal-minor trace on the relevant block.  The family dimension
    always equals the dimension of the lower-left corner slice of the
    space.
    """
    if form not in (UPPER, LOWER):
        raise ValueError("form must be %r or %r" % (UPPER, LOWER))
    if not 1 <= r <= space.n - 1:
        raise ValueError("r = %d out of range 1..%d" % (r, space.n - 1))
    return _family(constraint_space(space), r, form)


def _family(constraints: MatrixSubspace, r: int, form: str) -> AffineFamily:
    """``idempotent_family`` of the space with these constraints.

    Each basis row of the constraints, an integer row over Q, gives one
    equation on the free block: its top-right entries C[s][r + a] against
    X[a][s], equal to minus its trace on the fixed diagonal.  One
    elimination of [A | b] gives the particular block, with the free
    coordinates zero; when no pivot falls on b, the reduced rows without
    b are the RREF of A, and their ``_kernel`` the directions.
    """
    f, n, p = constraints.field, constraints.n, constraints.field.p
    ncols = (n - r) * r
    fixed = range(r) if form == UPPER else range(r, n)

    def minus_trace(c):
        t = -sum(c[i * (n + 1)] for i in fixed)
        return t % p if p else t

    aug = [[c[s * n + r + a] for a in range(n - r) for s in range(r)] + [minus_trace(c)]
           for c in constraints.basis.rows]
    pivots = _eliminate(f, aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        # Fredholm: some zero-corner constraint has a nonzero minor trace
        zero_corner = rct_zero_members(constraints, r)
        witness = next(z for z, c in zip(zero_corner.basis_matrices, zero_corner.basis.rows)
                       if minus_trace(c))
        raise HypothesisFailed(
            "a zero-corner constraint has nonzero %s minor trace" % form,
            witness=witness)
    # over Q each row is its RREF row times its pivot, over F_p the pivots are 1
    block = [f.zero] * ncols
    for row, c in zip(aug, pivots):
        block[c] = _scalars(f, [row[ncols]], row[c])[0]
    entries = [[f.zero] * n for _ in range(n)]
    for i in fixed:
        entries[i][i] = f.one
    for a in range(n - r):
        entries[r + a][:r] = block[a * r:(a + 1) * r]
    return AffineFamily(n=n, r=r, form=form,
                        particular=DenseMatrix._trusted(f, entries, n),
                        directions=_kernel(f, [row[:ncols] for row in aug[:len(pivots)]],
                                           ncols))


def full_space_certificate(space: MatrixSubspace, r: int) -> FullSpaceCertificate:
    """Idempotents of ranks r and n-r in ``space`` with unipotent sum.

    Requires the identity not to be a constraint, and every
    identity-adjoined constraint with zero top-right block to be scalar;
    a Mathieu subspace admitting such a certificate is the full algebra.
    Unipotent by shape; membership checked (AssertionError otherwise).
    """
    f, n = space.field, space.n
    constraints = constraint_space(space)
    if constraints.contains_identity():
        raise PreconditionViolated("the identity is a constraint of the space")
    zero_corner = rct_zero_members(constraints.adjoin_identity(), r)
    if zero_corner.dim != 1:
        witness = next(m for m in zero_corner.basis_matrices
                       if m != DenseMatrix.identity(f, n).scale(m.entries[0][0]))
        raise HypothesisFailed(
            "a zero-corner member of the adjoined constraints is not scalar",
            witness=witness)
    e = _family(constraints, r, UPPER).particular
    e_prime = _family(constraints, r, LOWER).particular
    if not (space.contains(e) and space.contains(e_prime)):
        raise AssertionError("a certificate idempotent lies outside the space")
    return FullSpaceCertificate(e=e, e_prime=e_prime, r=r)
