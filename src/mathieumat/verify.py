"""Brute-force Mathieu-subspace semantics over small prime fields.

Powers of a matrix over F_p are eventually periodic, so "for all large
exponents" means "for every exponent in the eventual cycle".  The tail
of an n x n matrix is shorter than n, and by Cayley-Hamilton every power
of a lies in the span of a^1 .. a^n, the cycle in the span of a^n ..
a^(2n-1).  So a lies in the full power set iff a^1 .. a^n lie inside,
in the radical iff a^n .. a^(2n-1) do, and a is idempotent iff a^2 = a.

Membership is read off the trace dual: X is a member iff tr(C_l X) = 0
for a basis C_1 .. C_c of ``constraint_space(space)``, the
``linalg._complement`` of the space's RREF, with no elimination (any
basis gives the same answers below, so it need not be the canonical
one).  Every cycle
element is a^(m-n) a^n = a^n a^(m-n), so some multiplier takes a large
power of a outside iff one takes z = a^n outside.  Those keeping z
inside form a subspace, so the first one outside in row-major
lexicographic order is a matrix unit (the matrices before the unit at
position q combine the units after it): the escaping unit with the
largest row-major position.  As tr(C E_ij z) = (z C)_ji and
tr(C z E_ij) = (C z)_ji, E_ij takes z outside on the left iff some
(z C_l)_ji != 0, on the right iff some (C_l z)_ji != 0.  The pair
E_ij z E_kl = z_jk E_il escapes iff z_jk != 0 and some (C_m)_li != 0;
in a proper space every nonzero z escapes two-sidedly.  A pair escapes
some element of a cycle iff it escapes the cycle's joint support.
Tables are formed in slices of ``_TABLE`` entries, one member at least.

Only what a question ranges over is enumerated, and
``ENUMERATION_GUARD`` bounds its count: the p^dim members for the
verdicts and ``idempotents``, all p^(n^2) matrices
(their row-major entries as the digits) for ``radical``.  Members are formed
from their indices in batches with numpy (exact arithmetic mod p, int16
wherever the sums fit), so memory does not grow with their number, in
lexicographic order of their basis coefficients (for ``radical``, of the
row-major entries); the first counterexample in that order is
returned as a witness.  The verdict scan stops at its first
counterexample, so its batches start at 64 members and quadruple up to
``_BATCH``: an early witness costs one small batch.  The scans that run
to the end take full batches.  ``verify_mathieu`` returns only witnesses
it has replayed against the powers it followed to find them, and raises
``AssertionError`` on one that does not replay; ``power_trajectory`` and
``witness_replays``, which follows the powers itself, stay the
definitional path.  numpy is imported inside the functions that use it,
at the first enumeration: commands that never enumerate never load it.

``max_left_ideal`` needs no enumeration and works over any field: A lies
in the maximal left ideal of a space S iff every row of A lies in the
intersection over i of R_i, where R_i is the set of rows i of the
members of S that vanish off row i.  S lies in Ann(W), the left ideal
of dimension n(n - dim W) killing its common kernel W; as every left
ideal is such an annihilator, S is one iff dim S = n(n - dim W).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NotLeftIdealError, PreconditionViolated, TooLargeError
from .linalg import DenseMatrix, VectorSubspace, _complement, _kernel, _readout, invert
from .matspace import MatrixSubspace, _conjugate, constraint_space

ENUMERATION_GUARD = 2 ** 20    # a power of two: the guard's message names its exponent
_BATCH = 4096               # matrices whose powers are formed at once
_FIRST_BATCH = 64           # members of a verdict's first batch; each next one is 4x
_TABLE = 2 ** 22            # entries of the largest table of unit products formed at once

LEFT = "left"
RIGHT = "right"
PRE_TWO_SIDED = "pre_two_sided"
TWO_SIDED = "two_sided"
ALL_TYPES = (LEFT, RIGHT, PRE_TWO_SIDED, TWO_SIDED)


def _require_enumerable(field, width):
    if not field.p:
        raise TooLargeError("the rationals are not enumerable")
    if field.p ** width > ENUMERATION_GUARD:
        raise TooLargeError("%d^%d matrices exceed the enumeration guard 2^%d" % (
            field.p, width, ENUMERATION_GUARD.bit_length() - 1))


class PowerTrajectory(namedtuple("PowerTrajectory", "a tail cycle")):
    """Powers a^1, a^2, ... split into the pre-period ``tail`` (a^1 ..
    a^t, before the cycle is entered) and the ``cycle`` (a^(t+1) ..
    a^(t+period)), both tuples."""
    __slots__ = ()

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
    seen, seq, cur = {}, [], a
    while cur not in seen:
        seen[cur] = len(seq)
        seq.append(cur)
        cur = cur.mul(a)
    first = seen[cur]
    return PowerTrajectory(a=a, tail=tuple(seq[:first]), cycle=tuple(seq[first:]))


class Witness(namedtuple("Witness", "a b c exponent")):
    """A replayable counterexample: all powers of ``a`` stay inside, yet
    the product b a^m c escapes at the cycle exponent m = ``exponent``
    (hence at infinitely many exponents); ``b`` or ``c`` is None for a
    side without a multiplier."""
    __slots__ = ()


class MathieuVerdict(namedtuple("MathieuVerdict", "holds vtype witness")):
    """Whether the space is Mathieu of type ``vtype``; when it is not, the
    ``Witness`` found, else None."""
    __slots__ = ()


def _dtype(p: int, n: int):
    """int16 when a sum of n^2 products of residues mod p fits in it."""
    import numpy as np
    return np.int16 if n * n * (p - 1) ** 2 < 2 ** 15 else np.int64


def _members(p: int, n: int, basis=None, first: int = _BATCH):
    """Batches (k, n, n) of the members of the span of ``basis`` (rows of
    n^2 residues) in coefficient order: digits @ basis.  With no basis the
    digits are the row-major entries, all of Mat_n(F_p) in their order.
    The batches are consecutive: the first holds ``first`` members, each
    next one four times as many, and none more than ``_BATCH``."""
    import numpy as np
    dtype = _dtype(p, n)
    d = n * n if basis is None else len(basis)
    rows = None if basis is None else np.array(basis, dtype=dtype).reshape(-1, n * n)
    place = p ** np.arange(d - 1, -1, -1)
    lo, size = 0, first
    while lo < p ** d:
        hi = min(lo + min(size, _BATCH), p ** d)
        digits = (np.arange(lo, hi)[:, None] // place % p).astype(dtype)
        yield (digits if rows is None else digits @ rows % p).reshape(-1, n, n)
        lo, size = hi, 4 * size


def _matrix(field, entries) -> DenseMatrix:
    return DenseMatrix._trusted(field, entries.tolist(), len(entries))


class _Dual:
    """A space read off a basis C_1 .. C_c of its constraint space, not
    the canonical one: the ``_complement`` of the space's RREF, with no
    elimination.  Each of its vectors phi pairs with a member M as
    phi . vec(M) = tr(C M) for the C with C_ji = phi[i n + j]: M is a
    member iff all of them vanish."""

    def __init__(self, space: MatrixSubspace):
        import numpy as np
        n, f = space.n, space.field
        phi = np.array(_complement(f, space.basis.rows, space.basis.pivots, n * n),
                       dtype=_dtype(f.p, n)).reshape(-1, n * n)
        self.p = f.p
        self.pairing = phi.T
        self.cons = np.ascontiguousarray(phi.reshape(-1, n, n).transpose(0, 2, 1))

    def contains(self, mats):
        """Membership of each matrix of ``mats`` (k, n, n)."""
        flat = mats.reshape(len(mats), len(self.pairing))
        return ~(flat @ self.pairing % self.p).any(axis=1)

    def staying(self, a, first: int, last: int):
        """Indices into the batch ``a`` (k, n, n) of the a with a^first .. a^last
        inside, and their a^last; each power is formed where those tested lie inside."""
        import numpy as np
        keep, z = np.arange(len(a)), a
        for m in range(1, last + 1):
            if m >= first:
                inside = self.contains(z)
                keep, z = keep[inside], z[inside]
            if m < last:
                z = z @ a[keep] % self.p
        return keep, z

    def escapes(self, zs, side: str):
        """Whether each unit product of each z in ``zs`` (k, n, n) leaves
        the space, (k, units) with the units E_ij in row-major order and
        a pair (b, c) of them at pos(b) n^2 + pos(c); in slices whose
        tables, n^4 entries a member at most, stay within ``_TABLE``."""
        import numpy as np
        step = max(_TABLE // zs.shape[1] ** 4, 1)
        if len(zs) > step:
            return np.concatenate([self.escapes(zs[i:i + step], side)
                                   for i in range(0, len(zs), step)])
        if side == TWO_SIDED:
            used = self.cons.any(axis=0).T      # used[i, l]: some (C_m)_li != 0
            out = (zs != 0)[:, None, :, :, None] & used[None, :, None, None, :]
        else:
            prods = zs[:, None] @ self.cons if side == LEFT else self.cons @ zs[:, None]
            out = (prods % self.p).any(axis=1).transpose(0, 2, 1)
        return out.reshape(len(zs), np.prod(out.shape[1:]))


def radical(space: MatrixSubspace):
    """All a whose large powers eventually stay inside: every element of
    the cycle of a belongs to the space, i.e. a^n .. a^(2n-1) do.
    Lexicographic order."""
    f, n = space.field, space.n
    _require_enumerable(f, n * n)
    dual = _Dual(space)
    return [_matrix(f, m) for a in _members(f.p, n)
            for m in a[dual.staying(a, n, 2 * n - 1)[0]]]


def idempotents(space: MatrixSubspace):
    """All members e with e^2 = e, in coefficient order."""
    _require_enumerable(space.field, space.dim)
    return [_matrix(space.field, e)
            for a in _members(space.field.p, space.n, space.basis.basis)
            for e in a[(a @ a % space.field.p == a).all(axis=(1, 2))]]


def _witness(space: MatrixSubspace, dual: _Dual, a, sides) -> Witness:
    """The first multiplier in enumeration order taking an element of the
    cycle of the member ``a`` outside, a matrix unit or a pair of them,
    with the first such cycle element, replayed on its trajectory."""
    import numpy as np
    f, n = space.field, space.n
    traj = power_trajectory(_matrix(f, a))
    cycle = np.array([z.entries for z in traj.cycle], dtype=a.dtype)
    for side in sides:
        # a pair asks only whether z_jk != 0: the joint support stands for the cycle
        bad = dual.escapes((cycle != 0).any(axis=0)[None] if side == TWO_SIDED else cycle, side)
        hit = np.flatnonzero(bad.any(axis=0))
        if len(hit):
            pos = int(hit[-1])      # the first in enumeration order
            b, c = {LEFT: (pos, None), RIGHT: (None, pos)}.get(side, divmod(pos, n * n))
            col = cycle[:, b % n, c // n] != 0 if side == TWO_SIDED else bad[:, pos]
            b, c = (u if u is None else DenseMatrix.unit(f, n, n, *divmod(u, n))
                    for u in (b, c))
            witness = Witness(a=traj.a, b=b, c=c,
                              exponent=traj.tail_len + 1 + int(np.argmax(col)))
            if not _replays(space, witness, traj):
                raise AssertionError("witness does not replay: %r" % (witness,))
            return witness


def verify_mathieu(space: MatrixSubspace, vtype: str) -> MathieuVerdict:
    """Exhaustively check one of the four defining properties.

    A member a with a^1 .. a^n inside has all its powers inside; some
    multiplier (pair) takes a large power of a outside iff one takes a^n
    outside, iff a matrix unit (pair) does; two-sided, iff a^n is nonzero.
    The first such member in coefficient order gives the witness: the
    first multiplier in enumeration order taking an element of its cycle
    outside, and the first such element.  The witness is replayed
    (``witness_replays``) on the powers already followed; AssertionError
    if it does not replay (it cannot, short of a bug).
    """
    import numpy as np
    if vtype not in ALL_TYPES:
        raise ValueError("unknown type %r" % vtype)
    _require_enumerable(space.field, space.dim)
    n = space.n
    if space.dim == n * n:
        return MathieuVerdict(holds=True, vtype=vtype, witness=None)
    dual = _Dual(space)
    sides = (LEFT, RIGHT) if vtype == PRE_TWO_SIDED else (vtype,)
    for a in _members(space.field.p, n, space.basis.basis, _FIRST_BATCH):
        keep, top = dual.staying(a, 2, n)
        out = keep[top.any(axis=(1, 2)) if vtype == TWO_SIDED else np.any(
            [dual.escapes(top, side).any(axis=1) for side in sides], axis=0)]
        if len(out):
            return MathieuVerdict(False, vtype, _witness(space, dual, a[out[0]], sides))
    return MathieuVerdict(holds=True, vtype=vtype, witness=None)


def witness_replays(space: MatrixSubspace, witness: Witness) -> bool:
    """Confirm a witness by direct power iteration: all powers of a stay
    inside, while the product escapes at the witness exponent and again
    one full period later."""
    return _replays(space, witness, power_trajectory(witness.a))


def _replays(space: MatrixSubspace, witness: Witness, traj: PowerTrajectory) -> bool:
    """``witness_replays`` on ``traj``, the trajectory of ``witness.a``."""
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
    p = field.p
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


class TraceChainReport(namedtuple("TraceChainReport",
        "char_avoids_1_to_n char_avoids_1_to_n_minus_1_and_identity_free "
        "radical_nilpotent two_sided_mathieu nilpotency_bound_ok")):
    """The implication chain for spaces of trace-zero matrices:
    small-characteristic avoidance => identity-free variant => nilpotent
    radical => two-sided Mathieu.  The four flags are bools;
    ``nilpotency_bound_ok`` is None when the identity-free variant fails."""
    __slots__ = ()

    @property
    def chain_holds(self) -> bool:
        return all(not a or b for a, b in zip(self[:3], self[1:4]))


def trace_chain_report(space: MatrixSubspace) -> TraceChainReport:
    """Evaluate the four chained predicates for a trace-zero subspace.

    Raises PreconditionViolated when some basis matrix has nonzero
    trace; raises AssertionError if an implication fails (it cannot,
    short of a bug)."""
    f, n = space.field, space.n
    for m in space.basis_matrices:
        if m.trace() != f.zero:
            raise PreconditionViolated("the space contains a nonzero-trace matrix")
    _require_enumerable(f, n * n)
    p = f.p
    pred1 = not 0 < p <= n
    pred2 = (not 0 < p <= n - 1) and not space.contains_identity()
    rad = radical(space)
    if pred2:
        # each element's powers are followed once, for a^n and the bound
        pred3 = bound_ok = True
        for a in rad:
            traj = power_trajectory(a)
            pred3 = pred3 and traj.power(n).is_zero()
            threshold = traj.tail_len + 1
            while threshold > 1 and space.contains(traj.power(threshold - 1)):
                threshold -= 1
            if not traj.power(n * threshold).is_zero():
                bound_ok = False
    else:
        pred3 = all(a.power(n).is_zero() for a in rad)
        bound_ok = None
    pred4 = verify_mathieu(space, TWO_SIDED).holds
    report = TraceChainReport(pred1, pred2, pred3, pred4, bound_ok)
    if not report.chain_holds:
        raise AssertionError("implication chain violated: %r" % (report,))
    return report


def max_left_ideal(space: MatrixSubspace) -> MatrixSubspace:
    """The unique maximal left ideal contained in the space.

    Consists of all A with E_ij A inside the space for every unit E_ij;
    any left ideal inside the space satisfies that, and the set itself
    is a left ideal.  E_ij A is row j of A placed at row i, so A belongs
    iff each of its rows lies in R, the intersection over i of R_i, the
    rows i of the members vanishing off row i.  Each R_i is read off one
    elimination, with the coordinates of row i last.  Works over any field.
    """
    f, n = space.field, space.n
    common = VectorSubspace.full(f, n)
    for i in range(n):
        rows = [row[:i * n] + row[(i + 1) * n:] + row[i * n:(i + 1) * n]
                for row in space.basis.rows]
        common = common.intersect(_readout(f, rows, n * n - n, n * n))
    zero = (0,) * n
    return MatrixSubspace(f, n, VectorSubspace._span(f, n * n, [
        zero * i + row + zero * (n - 1 - i) for i in range(n) for row in common.rows]))


class LeftIdealForm(namedtuple("LeftIdealForm", "t k idempotent")):
    """Conjugation data for a left ideal: after conjugating by t it kills
    exactly the last n-k coordinates, and the returned idempotent
    generates it."""
    __slots__ = ()


def left_ideal_normal_form(ideal: MatrixSubspace) -> LeftIdealForm:
    """Normalize a left ideal to the column-kill shape.

    The last n-k columns of t span the common kernel of the ideal;
    conjugating by t yields exactly the matrices vanishing on the last
    n-k coordinates.  Raises NotLeftIdealError on bad input.
    """
    f, n = ideal.field, ideal.n
    common = _kernel(f, [row[i * n:(i + 1) * n] for row in ideal.basis.rows
                         for i in range(n)], n)
    k = n - common.dim
    if ideal.dim != n * k:      # dim Ann(common), see the module docstring
        raise NotLeftIdealError("input is not closed under left multiplication")
    # The first k columns: each e_i outside the span of the kernel and
    # e_1..e_(i-1), i.e. each i that is no kernel vector's last nonzero
    # coordinate (no pivot of the kernel with its coordinates reversed).
    last = VectorSubspace._span(f, n, [v[::-1] for v in common.rows]).pivots
    columns = [e for i, e in enumerate(DenseMatrix.identity(f, n).entries)
               if n - 1 - i not in last] + list(common.basis)
    t = DenseMatrix._trusted(f, zip(*columns), n)
    t_inv = invert(t)
    expected = MatrixSubspace.from_matrices(f, n, [
        DenseMatrix.unit(f, n, n, u, v) for u in range(n) for v in range(k)])
    if _conjugate(ideal, t, t_inv) != expected:
        raise AssertionError("left ideal is not a full column-kill space")
    # t D t^-1 for D the diagonal of k ones: t with its last n-k columns zeroed, times t^-1
    idem = DenseMatrix._trusted(f, [row[:k] + (f.zero,) * (n - k) for row in t.entries], n)
    idem = idem.mul(t_inv)
    return LeftIdealForm(t=t, k=k, idempotent=idem)


class LeftIdealEquivalences(namedtuple("LeftIdealEquivalences",
        "left_mathieu idempotents_in_ideal radicals_match ideal idempotent_count")):
    """Three equivalent views of the one-sided property: the space is
    left Mathieu, its idempotents all lie in the maximal left ideal, and
    space and ideal have the same radical.  Also the maximal left
    ``ideal`` and the number of idempotents."""
    __slots__ = ()

    @property
    def consistent(self) -> bool:
        return self.left_mathieu == self.idempotents_in_ideal == self.radicals_match


def left_ideal_equivalences(space: MatrixSubspace) -> LeftIdealEquivalences:
    """Evaluate all three predicates exhaustively; they must agree."""
    _require_enumerable(space.field, space.n * space.n)
    ideal = max_left_ideal(space)
    left = verify_mathieu(space, LEFT).holds
    idems = idempotents(space)
    in_ideal = all(ideal.contains(e) for e in idems)
    radicals = radical(space) == radical(ideal)
    report = LeftIdealEquivalences(
        left_mathieu=left, idempotents_in_ideal=in_ideal,
        radicals_match=radicals, ideal=ideal, idempotent_count=len(idems))
    if not report.consistent:
        raise AssertionError("equivalence chain violated: %r" % (report,))
    return report
