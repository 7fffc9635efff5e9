"""The keyed bitmap enumeration, kept as a reference for ``verify``.

Every matrix is its index (key) in the array of all n x n matrices over
F_p in lexicographic row-major order, and membership is a bitmap over
that universe of p^(n^2) keys.  The package reads the same verdicts off
the members and the trace dual instead; these functions give the
answers it must reproduce, inside the 2^20 keys this reference allows.
"""

from typing import Optional

import numpy as np

from mathieumat.errors import TooLargeError
from mathieumat.linalg import DenseMatrix
from mathieumat.verify import (
    ALL_TYPES,
    LEFT,
    PRE_TWO_SIDED,
    RIGHT,
    TWO_SIDED,
    MathieuVerdict,
    Witness,
    power_trajectory,
)

GUARD = 2 ** 20
_BATCH = 4096


def _digits(p, width):
    dtype = np.int16 if width * (p - 1) ** 2 < 2 ** 15 else np.int64
    out = np.empty((p ** width, width), dtype=dtype)
    for j in range(width):
        out[:, j] = np.tile(np.repeat(np.arange(p, dtype=dtype), p ** (width - 1 - j)), p ** j)
    return out


def all_matrices_np(p, n):
    """All n x n matrices over F_p, (p^(n*n), n, n), lexicographic row-major."""
    return _digits(p, n * n).reshape(-1, n, n)


class Enumeration:
    """A space over its key ``universe``: ``inside[key]`` is membership,
    ``members`` the members' keys in coefficient order."""

    def __init__(self, space):
        f, n, p = space.field, space.n, space.field.p
        if not p or p ** (n * n) > GUARD:
            raise TooLargeError("%r: Mat_%d is not enumerable by keys" % (f, n))
        self.field, self.n, self.p = f, n, p
        self.universe = all_matrices_np(p, n)
        self.place = p ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
        basis = np.array(space.basis.basis, dtype=self.universe.dtype).reshape(-1, n * n)
        coeffs = _digits(p, space.dim)
        self.members = np.concatenate([
            self.key((coeffs[lo:lo + _BATCH] @ basis).reshape(-1, n, n))
            for lo in range(0, len(coeffs), _BATCH)])
        self.inside = np.zeros(len(self.universe), dtype=bool)
        self.inside[self.members] = True

    def key(self, mats):
        return mats.reshape(mats.shape[:-2] + (-1,)) % self.p @ self.place

    def matrix(self, key) -> Optional[DenseMatrix]:
        return None if key is None else DenseMatrix(
            self.field, self.universe[key].tolist())

    def powers(self, keys, count):
        u = self.universe
        for lo in range(0, len(keys), _BATCH):
            batch = keys[lo:lo + _BATCH]
            a, powers = u[batch], [batch]
            for _ in range(count - 1):
                powers.append(self.key(u[powers[-1]] @ a))
            yield batch, np.stack(powers, axis=1)

    def escapes(self, zs, side):
        """(len(zs), units): the unit with key p^u at u, a pair (b, c) at
        u_b n^2 + u_c."""
        n, z, at = self.n, self.universe[zs], self.place.reshape(self.n, self.n)
        keys = (at @ z.transpose(0, 2, 1) if side == LEFT else
                z.transpose(0, 2, 1) @ at if side == RIGHT else
                z[:, None, :, :, None] * at[:, None, None, :])
        keys = keys.reshape(len(zs), n * n, -1)[:, ::-1, ::-1]
        return ~self.inside[keys.reshape(len(zs), -1)]


def full_power_set(space):
    en = Enumeration(space)
    return [en.matrix(k) for batch, powers in en.powers(en.members, space.n)
            for k in batch[en.inside[powers].all(axis=1)]]


def radical(space):
    en, n = Enumeration(space), space.n
    return [en.matrix(k)
            for batch, powers in en.powers(np.arange(len(en.universe)), 2 * n - 1)
            for k in batch[en.inside[powers[:, n - 1:]].all(axis=1)]]


def idempotents(space):
    en = Enumeration(space)
    return [en.matrix(k) for batch, powers in en.powers(en.members, 2)
            for k in batch[powers[:, 1] == batch]]


def _witness(en, key, sides):
    traj = power_trajectory(en.matrix(key))
    cycle = en.key(np.array([z.entries for z in traj.cycle]))
    for side in sides:
        bad = en.escapes(cycle, side)
        hit = bad.any(axis=0)
        if hit.any():
            mult = int(np.argmax(hit))
            b, c = {LEFT: (mult, None), RIGHT: (None, mult)}.get(
                side, divmod(mult, en.n ** 2))
            return Witness(a=traj.a, b=en.matrix(None if b is None else en.p ** b),
                           c=en.matrix(None if c is None else en.p ** c),
                           exponent=traj.tail_len + 1 + int(np.argmax(bad[:, mult])))


def verify_mathieu(space, vtype):
    if vtype not in ALL_TYPES:
        raise ValueError("unknown type %r" % vtype)
    n = space.n
    en = Enumeration(space)
    if space.dim == n * n:
        return MathieuVerdict(holds=True, vtype=vtype, witness=None)
    sides = (LEFT, RIGHT) if vtype == PRE_TWO_SIDED else (vtype,)
    for batch, powers in en.powers(en.members, n):
        top = powers[:, n - 1]
        out = top != 0 if vtype == TWO_SIDED else np.any(
            [en.escapes(top, side).any(axis=1) for side in sides], axis=0)
        out &= en.inside[powers].all(axis=1)
        if out.any():
            return MathieuVerdict(False, vtype, _witness(en, batch[np.argmax(out)], sides))
    return MathieuVerdict(holds=True, vtype=vtype, witness=None)
