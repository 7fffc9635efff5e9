"""Brute-force Mathieu-subspace semantics over small prime fields.

Powers of a matrix over F_p are eventually periodic, so "for all large
exponents" means "for every exponent in the eventual cycle".  The tail
of an n x n matrix is shorter than n, and by Cayley-Hamilton every power
of a lies in the span of a^1 .. a^n, the cycle in the span of a^n ..
a^(2n-1).  So a lies in the full power set iff a^1 .. a^n lie inside,
in the radical iff a^n .. a^(2n-1) do, and a is idempotent iff a^2 = a.

Every cycle element is a^(m-n) a^n = a^n a^(m-n), so some multiplier
takes a large power of a outside iff one takes a^n outside.  The
multipliers that keep a set inside form a subspace, and the first key
outside a subspace is a matrix unit (keys below p^k are combinations of
the units with keys below p^k): a one-sided test needs the n^2 unit
products of a^n, and the first escaping multiplier (b, then c given b)
is a unit.  In a proper space every nonzero a^n escapes two-sidedly,
since E_ij z E_kl = z_jk E_il and Mat_n is simple.

The enumeration runs on keys, a matrix's index in ``all_matrices_np(p,
n)`` (below 2^20 under the guard), in fixed-size batches with numpy
(exact integer arithmetic mod p, in int16 wherever the products fit);
``power_trajectory`` and ``witness_replays`` stay the definitional path.
Enumeration orders are fixed: candidate matrices by lexicographic
row-major entries, subspace members by lexicographic basis coefficients;
the first counterexample in that order is returned as a replayable
witness.

``max_left_ideal`` needs no enumeration and works over any field: A lies
in the maximal left ideal of a space S iff every row of A lies in the
intersection over i of R_i, where R_i is the set of rows i of the
members of S that vanish off row i.  S lies in Ann(W), the left ideal
of dimension n(n - dim W) killing its common kernel W; as every left
ideal is such an annihilator, S is one iff dim S = n(n - dim W).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotLeftIdealError, PreconditionViolated, TooLargeError
from .linalg import DenseMatrix, VectorSubspace, invert, kernel
from .matspace import MatrixSubspace, conjugate, constraint_space, members_vanishing_at

ENUMERATION_GUARD = 2 ** 20
_BATCH = 4096               # keys whose powers are formed at once

LEFT = "left"
RIGHT = "right"
PRE_TWO_SIDED = "pre_two_sided"
TWO_SIDED = "two_sided"
ALL_TYPES = (LEFT, RIGHT, PRE_TWO_SIDED, TWO_SIDED)


def _require_enumerable(field, n):
    if not field.p:
        raise TooLargeError("the rationals are not enumerable")
    if field.p ** (n * n) > ENUMERATION_GUARD:
        raise TooLargeError(
            "%d^%d matrices exceed the enumeration guard 2^20" % (field.p, n * n))


@dataclass(frozen=True)
class PowerTrajectory:
    """Powers a^1, a^2, ... split into the pre-period and the cycle."""
    a: DenseMatrix
    tail: tuple      # a^1 .. a^t, the part before the cycle is entered
    cycle: tuple     # a^(t+1) .. a^(t+period)

    @property
    def tail_len(self) -> int:
        return len(self.tail)

    @property
    def period(self) -> int:
        return len(self.cycle)

    def power(self, m: int) -> DenseMatrix:
        """a^m for m >= 1 via the stored trajectory."""
        if m < 1:
            raise ValueError("exponent must be >= 1")
        if m <= self.tail_len:
            return self.tail[m - 1]
        return self.cycle[(m - self.tail_len - 1) % self.period]


def power_trajectory(a: DenseMatrix) -> PowerTrajectory:
    """Minimal tail and period with a^(m+period) = a^m for all m > tail."""
    if a.rows != a.cols:
        raise ValueError("trajectory of a non-square matrix")
    if not a.field.p:
        raise TooLargeError("power trajectories need a finite field")
    seen = {}
    seq = []
    cur = a
    m = 1
    while cur not in seen:
        seen[cur] = m
        seq.append(cur)
        cur = cur.mul(a)
        m += 1
    first = seen[cur]
    return PowerTrajectory(a=a, tail=tuple(seq[:first - 1]), cycle=tuple(seq[first - 1:]))


@dataclass(frozen=True)
class Witness:
    """A replayable counterexample: all powers of ``a`` stay inside, yet
    the displayed product escapes at the given cycle exponent (hence at
    infinitely many exponents)."""
    a: DenseMatrix
    b: Optional[DenseMatrix]
    c: Optional[DenseMatrix]
    exponent: int


@dataclass(frozen=True)
class MathieuVerdict:
    holds: bool
    vtype: str
    witness: Optional[Witness]


def _digits(p: int, width: int) -> np.ndarray:
    """All base-p digit strings of the given width, in increasing order;
    int16 when a sum of ``width`` products of digits fits in it."""
    dtype = np.int16 if width * (p - 1) ** 2 < 2 ** 15 else np.int64
    out = np.empty((p ** width, width), dtype=dtype)
    for j in range(width):
        out[:, j] = np.tile(np.repeat(np.arange(p, dtype=dtype), p ** (width - 1 - j)), p ** j)
    return out


def all_matrices_np(p: int, n: int) -> np.ndarray:
    """All n x n matrices over F_p, (p^(n*n), n, n), lexicographic row-major."""
    return _digits(p, n * n).reshape(-1, n, n)


class _Enumeration:
    """A space over its key ``universe``: ``inside[key]`` is membership,
    ``members`` the members' keys in coefficient order."""

    def __init__(self, space: MatrixSubspace):
        f, n, p = space.field, space.n, space.field.p
        _require_enumerable(f, n)
        self.field, self.n, self.p = f, n, p
        self.universe = all_matrices_np(p, n)
        self.place = p ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
        basis = np.array(space.basis.basis, dtype=self.universe.dtype).reshape(-1, n * n)
        coeffs = _digits(p, space.dim)    # members in batches keep the arrays small
        self.members = np.concatenate([
            self.key((coeffs[lo:lo + _BATCH] @ basis).reshape(-1, n, n))
            for lo in range(0, len(coeffs), _BATCH)])
        self.inside = np.zeros(len(self.universe), dtype=bool)
        self.inside[self.members] = True

    def key(self, mats: np.ndarray) -> np.ndarray:
        """Keys of the integer matrices (..., n, n), reduced mod p."""
        return mats.reshape(mats.shape[:-2] + (-1,)) % self.p @ self.place

    def matrix(self, key) -> Optional[DenseMatrix]:
        return None if key is None else DenseMatrix._trusted(
            self.field, self.universe[key].tolist(), self.n)

    def powers(self, keys, count):
        """Per batch of keys: the batch and the keys of a^1 .. a^count of
        each, (len(batch), count)."""
        u = self.universe
        for lo in range(0, len(keys), _BATCH):
            batch = keys[lo:lo + _BATCH]
            a, powers = u[batch], [batch]
            for _ in range(count - 1):
                powers.append(self.key(u[powers[-1]] @ a))
            yield batch, np.stack(powers, axis=1)

    def escapes(self, zs, side):
        """Whether each unit product of each z in ``zs`` (keys) leaves the
        space, (len(zs), units): the unit with key p^u at u, a pair (b, c)
        of them at u_b n^2 + u_c.  With at[i, j] the key of E_ij, E_ij z
        is row j of z at row i, z E_ij is column i of z at column j, and
        E_ij z E_kl is z_jk E_il."""
        n, z, at = self.n, self.universe[zs], self.place.reshape(self.n, self.n)
        keys = (at @ z.transpose(0, 2, 1) if side == LEFT else
                z.transpose(0, 2, 1) @ at if side == RIGHT else
                z[:, None, :, :, None] * at[:, None, None, :])
        # row-major positions run against key order
        keys = keys.reshape(len(zs), n * n, -1)[:, ::-1, ::-1]
        return ~self.inside[keys.reshape(len(zs), -1)]


def full_power_set(space: MatrixSubspace):
    """All members whose every power stays inside: a^1 .. a^n do."""
    en = _Enumeration(space)
    return [en.matrix(k) for batch, powers in en.powers(en.members, space.n)
            for k in batch[en.inside[powers].all(axis=1)]]


def radical(space: MatrixSubspace):
    """All a whose large powers eventually stay inside: every element of
    the cycle of a belongs to the space, i.e. a^n .. a^(2n-1) do.
    Lexicographic order."""
    en, n = _Enumeration(space), space.n
    return [en.matrix(k)
            for batch, powers in en.powers(np.arange(len(en.universe)), 2 * n - 1)
            for k in batch[en.inside[powers[:, n - 1:]].all(axis=1)]]


def idempotents(space: MatrixSubspace):
    """All members e with e^2 = e, in coefficient order."""
    en = _Enumeration(space)
    return [en.matrix(k) for batch, powers in en.powers(en.members, 2)
            for k in batch[powers[:, 1] == batch]]


def _witness(en: _Enumeration, key, sides) -> Witness:
    """The first multiplier in enumeration order taking an element of the
    cycle of the member ``key`` outside, a matrix unit or a pair of them,
    with the first such cycle element."""
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


def verify_mathieu(space: MatrixSubspace, vtype: str) -> MathieuVerdict:
    """Exhaustively check one of the four defining properties.

    A member a with a^1 .. a^n inside has all its powers inside; some
    multiplier (pair) takes a large power of a outside iff one takes a^n
    outside, iff a matrix unit (pair) does; two-sided, iff a^n is nonzero.
    The first such member in coefficient order gives the witness: the
    first multiplier in enumeration order taking an element of its cycle
    outside, and the first such element.
    """
    if vtype not in ALL_TYPES:
        raise ValueError("unknown type %r" % vtype)
    _require_enumerable(space.field, space.n)
    n = space.n
    if space.dim == n * n:
        return MathieuVerdict(holds=True, vtype=vtype, witness=None)
    en = _Enumeration(space)
    sides = (LEFT, RIGHT) if vtype == PRE_TWO_SIDED else (vtype,)
    for batch, powers in en.powers(en.members, n):
        top = powers[:, n - 1]
        out = top != 0 if vtype == TWO_SIDED else np.any(
            [en.escapes(top, side).any(axis=1) for side in sides], axis=0)
        out &= en.inside[powers].all(axis=1)
        if out.any():
            return MathieuVerdict(False, vtype, _witness(en, batch[np.argmax(out)], sides))
    return MathieuVerdict(holds=True, vtype=vtype, witness=None)


def witness_replays(space: MatrixSubspace, witness: Witness) -> bool:
    """Confirm a witness by direct power iteration: all powers of a stay
    inside, while the product escapes at the witness exponent and again
    one full period later."""
    traj = power_trajectory(witness.a)
    for x in traj.tail + traj.cycle:
        if not space.contains(x):
            return False

    def product(power):
        out = power
        if witness.b is not None:
            out = witness.b.mul(out)
        if witness.c is not None:
            out = out.mul(witness.c)
        return out

    if witness.exponent <= traj.tail_len:
        return False
    first = product(traj.power(witness.exponent))
    later = product(traj.power(witness.exponent + traj.period))
    return (not space.contains(first)) and (not space.contains(later))


def proposition_family(field, n: int, a_param) -> MatrixSubspace:
    """The codimension-n family: zero lower row left of the corner and
    trace tied to the corner entry by the parameter a.

    Requires the characteristic to avoid 1..n-1, the prime field itself
    to avoid {n, n+1} (those cases need an element outside the prime
    subfield), and a to avoid -1..-n; under these the family is a
    two-sided Mathieu subspace with no nonzero idempotent.
    """
    p = field.characteristic()
    if 0 < p <= n - 1:
        raise PreconditionViolated(
            "characteristic %d lies in 1..%d" % (p, n - 1))
    if p in (n, n + 1):
        raise PreconditionViolated(
            "over the prime field F_%d the parameter cannot leave the prime "
            "subfield as characteristic %d requires" % (p, p))
    a = field.of(a_param)
    for j in range(1, n + 1):
        if field.add(field.of(j), a) == field.zero:
            raise PreconditionViolated(
                "parameter equal to -%d admits idempotents" % j)
    # the members M with tr(E_jn M) = M_nj = 0 (j < n) and tr((I + a E_nn) M) = 0
    gens = [DenseMatrix.unit(field, n, n, j, n - 1) for j in range(n - 1)]
    corner = DenseMatrix.unit(field, n, n, n - 1, n - 1).scale(a)
    return constraint_space(MatrixSubspace.from_matrices(
        field, n, gens + [DenseMatrix.identity(field, n) + corner]))


def newton_char_poly(a: DenseMatrix):
    """Characteristic polynomial coefficients (descending powers of t)
    recovered from the power sums tr(a), tr(a^2), ..., tr(a^n).

    Needs n! invertible: characteristic 0 or > n.
    """
    f = a.field
    n = a.rows
    if a.rows != a.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    p = f.characteristic()
    if 0 < p <= n:
        raise PreconditionViolated(
            "power-sum recovery divides by 1..%d; characteristic %d is too small"
            % (n, p))
    sums = []
    power = a
    for _ in range(n):
        sums.append(power.trace())
        power = power.mul(a)
    elem = [f.one]
    for k in range(1, n + 1):
        acc = f.zero
        sign = f.one
        for i in range(1, k + 1):
            acc = f.add(acc, f.mul(sign, f.mul(elem[k - i], sums[i - 1])))
            sign = f.neg(sign)
        elem.append(f.div(acc, f.of(k)))
    coeffs = []
    sign = f.one
    for k in range(n + 1):
        coeffs.append(f.mul(sign, elem[k]))
        sign = f.neg(sign)
    return tuple(coeffs)


@dataclass(frozen=True)
class TraceChainReport:
    """The implication chain for spaces of trace-zero matrices:
    small-characteristic avoidance => identity-free variant => nilpotent
    radical => two-sided Mathieu."""
    char_avoids_1_to_n: bool
    char_avoids_1_to_n_minus_1_and_identity_free: bool
    radical_nilpotent: bool
    two_sided_mathieu: bool
    nilpotency_bound_ok: Optional[bool]

    @property
    def chain_holds(self) -> bool:
        flags = (self.char_avoids_1_to_n,
                 self.char_avoids_1_to_n_minus_1_and_identity_free,
                 self.radical_nilpotent,
                 self.two_sided_mathieu)
        return all(not a or b for a, b in zip(flags, flags[1:]))


def trace_chain_report(space: MatrixSubspace) -> TraceChainReport:
    """Evaluate the four chained predicates for a trace-zero subspace.

    Raises PreconditionViolated when some basis matrix has nonzero
    trace; raises AssertionError if an implication fails (it cannot,
    short of a bug)."""
    f, n = space.field, space.n
    for m in space.basis_matrices:
        if m.trace() != f.zero:
            raise PreconditionViolated("the space contains a nonzero-trace matrix")
    _require_enumerable(f, n)
    p = f.characteristic()
    pred1 = not 0 < p <= n
    pred2 = (not 0 < p <= n - 1) and not space.contains_identity()
    rad = radical(space)
    pred3 = all(a.power(n).is_zero() for a in rad)
    pred4 = verify_mathieu(space, TWO_SIDED).holds
    bound_ok = None
    if pred2:
        bound_ok = True
        for a in rad:
            traj = power_trajectory(a)
            threshold = traj.tail_len + 1
            while threshold > 1 and space.contains(traj.power(threshold - 1)):
                threshold -= 1
            if not a.power(n * threshold).is_zero():
                bound_ok = False
    flags = (pred1, pred2, pred3, pred4)
    if not all(not x or y for x, y in zip(flags, flags[1:])):
        raise AssertionError("implication chain violated: %r" % (flags,))
    return TraceChainReport(
        char_avoids_1_to_n=pred1,
        char_avoids_1_to_n_minus_1_and_identity_free=pred2,
        radical_nilpotent=pred3,
        two_sided_mathieu=pred4,
        nilpotency_bound_ok=bound_ok)


def max_left_ideal(space: MatrixSubspace) -> MatrixSubspace:
    """The unique maximal left ideal contained in the space.

    Consists of all A with E_ij A inside the space for every unit E_ij;
    any left ideal inside the space satisfies that, and the set itself
    is a left ideal.  E_ij A is row j of A placed at row i, so A belongs
    iff each of its rows lies in R, the intersection over i of R_i, the
    rows i of the members vanishing off row i.  Works over any field.
    """
    f, n = space.field, space.n
    common = VectorSubspace.full(f, n)
    for i in range(n):
        on_row = members_vanishing_at(
            space, [(r, c) for r in range(n) if r != i for c in range(n)])
        common = common.intersect(VectorSubspace._span(
            f, n, [m.entries[i] for m in on_row.basis_matrices]))
    zero = (f.zero,) * n
    return MatrixSubspace(f, n, VectorSubspace._span(f, n * n, [
        zero * i + row + zero * (n - 1 - i) for i in range(n) for row in common.basis]))


def _common_kernel(space: MatrixSubspace) -> VectorSubspace:
    stacked = [row for m in space.basis_matrices for row in m.entries]
    return kernel(DenseMatrix._trusted(space.field, stacked, space.n))


def is_left_ideal(space: MatrixSubspace) -> bool:
    """Whether the space is Ann(W), W its common kernel (see above)."""
    return space.dim == space.n * (space.n - _common_kernel(space).dim)


@dataclass(frozen=True)
class LeftIdealForm:
    """Conjugation data for a left ideal: after conjugating by t it kills
    exactly the last n-k coordinates, and the returned idempotent
    generates it."""
    t: DenseMatrix
    k: int
    idempotent: DenseMatrix


def left_ideal_normal_form(ideal: MatrixSubspace) -> LeftIdealForm:
    """Normalize a left ideal to the column-kill shape.

    The last n-k columns of t span the common kernel of the ideal;
    conjugating by t yields exactly the matrices vanishing on the last
    n-k coordinates.  Raises NotLeftIdealError on bad input.
    """
    f, n = ideal.field, ideal.n
    common = _common_kernel(ideal)
    k = n - common.dim
    if ideal.dim != n * k:      # dim Ann(common), as in is_left_ideal
        raise NotLeftIdealError("input is not closed under left multiplication")
    # The first k columns: each e_i outside the span of the kernel and
    # e_1..e_(i-1), i.e. each i that is no kernel vector's last nonzero
    # coordinate (no pivot of the kernel with its coordinates reversed).
    last = VectorSubspace._span(f, n, [v[::-1] for v in common.basis]).pivots
    columns = [e for i, e in enumerate(DenseMatrix.identity(f, n).entries)
               if n - 1 - i not in last] + list(common.basis)
    t = DenseMatrix._trusted(f, zip(*columns), n)
    conjugated = conjugate(ideal, t)
    expected = MatrixSubspace.from_matrices(f, n, [
        DenseMatrix.unit(f, n, n, u, v) for u in range(n) for v in range(k)])
    if conjugated != expected:
        raise AssertionError("left ideal is not a full column-kill space")
    diag = DenseMatrix._trusted(f, [[f.one if i == j < k else f.zero for j in range(n)]
                                    for i in range(n)], n)
    idem = t.mul(diag).mul(invert(t))
    return LeftIdealForm(t=t, k=k, idempotent=idem)


@dataclass(frozen=True)
class LeftIdealEquivalences:
    """Three equivalent views of the one-sided property: the space is
    left Mathieu, its idempotents all lie in the maximal left ideal, and
    space and ideal have the same radical."""
    left_mathieu: bool
    idempotents_in_ideal: bool
    radicals_match: bool
    ideal: MatrixSubspace
    idempotent_count: int

    @property
    def consistent(self) -> bool:
        return self.left_mathieu == self.idempotents_in_ideal == self.radicals_match


def left_ideal_equivalences(space: MatrixSubspace) -> LeftIdealEquivalences:
    """Evaluate all three predicates exhaustively; they must agree."""
    _require_enumerable(space.field, space.n)
    ideal = max_left_ideal(space)
    left = verify_mathieu(space, LEFT).holds
    idems = idempotents(space)
    in_ideal = all(ideal.contains(e) for e in idems)
    radicals = set(radical(space)) == set(radical(ideal))
    report = LeftIdealEquivalences(
        left_mathieu=left, idempotents_in_ideal=in_ideal,
        radicals_match=radicals, ideal=ideal, idempotent_count=len(idems))
    if not report.consistent:
        raise AssertionError("equivalence chain violated: %r" % (report,))
    return report


@dataclass(frozen=True)
class SmallCodimReport:
    """For proper subspaces of codimension below n: a left Mathieu
    subspace is automatically two-sided and the field exceeds F_2."""
    left_mathieu: bool
    two_sided_mathieu: Optional[bool]
    field_order: int


def small_codim_report(space: MatrixSubspace) -> SmallCodimReport:
    f, n = space.field, space.n
    codim = n * n - space.dim
    if not 0 < codim < n:
        raise PreconditionViolated(
            "codimension %d must lie strictly between 0 and %d" % (codim, n))
    left = verify_mathieu(space, LEFT).holds
    two = None
    if left:
        two = verify_mathieu(space, TWO_SIDED).holds
        if not two:
            raise AssertionError(
                "left Mathieu subspace of small codimension must be two-sided")
        if f.p <= 2:
            raise AssertionError("left Mathieu subspace of small codimension needs #K > 2")
    return SmallCodimReport(left_mathieu=left, two_sided_mathieu=two,
                            field_order=f.p)
