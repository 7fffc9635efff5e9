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
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import HypothesisFailed, PreconditionViolated
from .linalg import DenseMatrix, invert, solve_affine
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

    def with_block(self, flat_block) -> DenseMatrix:
        """The member whose free block is shifted by ``flat_block``."""
        f = self.particular.field
        n, r = self.n, self.r
        entries = [list(row) for row in self.particular.entries]
        for a in range(n - r):
            for s in range(r):
                entries[r + a][s] = f.add(entries[r + a][s], flat_block[a * r + s])
        return DenseMatrix(f, entries)

    def members(self):
        """All members (prime fields), lexicographic in direction coords."""
        f = self.particular.field
        for coeffs in itertools.product(f.elements(), repeat=self.dim):
            shift = [f.zero] * ((self.n - self.r) * self.r)
            for c, row in zip(coeffs, self.directions.basis):
                if c:
                    shift = [f.add(x, f.mul(c, y)) for x, y in zip(shift, row)]
            yield self.with_block(shift)


class FullSpaceCertificate(namedtuple("FullSpaceCertificate", "e e_prime r")):
    """Two idempotents of complementary ranks whose sum is unipotent."""
    __slots__ = ()


def corner_slice(space: MatrixSubspace, r: int) -> MatrixSubspace:
    """Members supported on the lower-left (n-r) x r block only."""
    n = space.n
    return members_vanishing_at(
        space, [(i, j) for i in range(n) for j in range(n) if i < r or j >= r])


def _minor_trace(m: DenseMatrix, r: int, form: str):
    f = m.field
    idx = range(r) if form == UPPER else range(r, m.rows)
    total = f.zero
    for i in idx:
        total = f.add(total, m.entries[i][i])
    return total


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
    """``idempotent_family`` of the space with these constraints."""
    f, n = constraints.field, constraints.n
    ncols = (n - r) * r
    rows = []
    rhs = []
    for c in constraints.basis_matrices:
        rows.append([c.entries[s][r + a] for a in range(n - r) for s in range(r)])
        rhs.append(f.neg(_minor_trace(c, r, form)))
    sol = solve_affine(DenseMatrix._trusted(f, rows, ncols), rhs)
    if sol is None:
        # Fredholm: some zero-corner constraint has a nonzero minor trace
        witness = next(z for z in rct_zero_members(constraints, r).basis_matrices
                       if _minor_trace(z, r, form) != f.zero)
        raise HypothesisFailed(
            "a zero-corner constraint has nonzero %s minor trace" % form,
            witness=witness)
    block, directions = sol
    entries = [[f.zero] * n for _ in range(n)]
    fixed = range(r) if form == UPPER else range(r, n)
    for i in fixed:
        entries[i][i] = f.one
    for a in range(n - r):
        for s in range(r):
            entries[r + a][s] = block[a * r + s]
    return AffineFamily(n=n, r=r, form=form,
                        particular=DenseMatrix._trusted(f, entries, n),
                        directions=directions)


def full_space_certificate(space: MatrixSubspace, r: int) -> FullSpaceCertificate:
    """Idempotents of ranks r and n-r in ``space`` with unipotent sum.

    Requires the identity not to be a constraint, and every
    identity-adjoined constraint with zero top-right block to be scalar;
    a Mathieu subspace admitting such a certificate is the full algebra.
    """
    f, n = space.field, space.n
    constraints = constraint_space(space)
    if constraints.contains_identity():
        raise PreconditionViolated("the identity is a constraint of the space")
    zero_corner = rct_zero_members(constraints.adjoin_identity(), r)
    if zero_corner.dim != 1:
        scalars = MatrixSubspace.from_matrices(f, n, [DenseMatrix.identity(f, n)])
        witness = next(m for m in zero_corner.basis_matrices if not scalars.contains(m))
        raise HypothesisFailed(
            "a zero-corner member of the adjoined constraints is not scalar",
            witness=witness)
    e = _family(constraints, r, UPPER).particular
    e_prime = _family(constraints, r, LOWER).particular
    total = e + e_prime
    if not (total - DenseMatrix.identity(f, n)).power(n).is_zero():
        raise AssertionError("sum of the two idempotents must be unipotent")
    # decomposition sanity on a canonical sample: A = A (e+e')^-1 e + A (e+e')^-1 e'
    sample = DenseMatrix.unit(f, n, n, 0, 0)
    inv_total = invert(total)
    left = sample.mul(inv_total)
    restored = left.mul(e) + left.mul(e_prime)
    if restored != sample:
        raise AssertionError("the two idempotents do not decompose the sample")
    return FullSpaceCertificate(e=e, e_prime=e_prime, r=r)
