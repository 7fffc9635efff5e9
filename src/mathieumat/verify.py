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
A member with z = 0 escapes nothing and forms no table; the others' tables
are formed in slices of ``_TABLE`` entries, one member at least.

Only what a question ranges over is enumerated, and
``ENUMERATION_GUARD`` bounds its count: the p^dim members for the
verdicts and ``idempotents``, all p^(n^2) matrices
(their row-major entries as the digits) for ``radical``.  Members are formed
from their indices in batches with numpy (exact arithmetic mod p, int16
wherever the sums fit), so memory does not grow with their number, in
lexicographic order of their basis coefficients (for ``radical``, of the
row-major entries); the first counterexample in that order is
returned as a witness.  The radical is one array, ``_radical``, the
staying members of every batch joined: the CLI reports its ``tolist()``,
and only ``radical`` builds a matrix per element.  The verdict scan
stops at its first counterexample, so its batches start at 64 members
and quadruple up to ``_BATCH``: an early witness costs one small batch.
The scans that run to the end take full batches.  ``verify_mathieu``
returns only witnesses it has replayed against the powers it followed
to find them, and raises ``AssertionError`` on one that does not
replay; ``power_trajectory`` and ``witness_replays``, which follows the
powers itself, stay the definitional path.  numpy is imported inside
the functions that use it, at the first enumeration: commands that
never enumerate never load it.

On a subspace of sl_n with n! != 0 in K every verdict holds and zero is
the only idempotent, read off the basis traces: numpy is not loaded.

``max_left_ideal`` needs no enumeration and works over any field: A lies
in the maximal left ideal of a space S iff every row of A lies in the
intersection over i of R_i, where R_i is the set of rows i of the
members of S that vanish off row i.  Every left ideal is Ann(W), the
matrices with all rows in R = W^perp, and its RREF is R's repeated in
each matrix row (``_left_ideal``): S is one iff it is the ideal of its
first k RREF rows, those with a pivot below n, cut to n entries.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import NotLeftIdealError, PreconditionViolated, TooLargeError
from .linalg import DenseMatrix, VectorSubspace, _complement, _kernel, _readout
from .matspace import MatrixSubspace, conjugate, constraint_space

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
        return out.reshape(len(zs), math.prod(out.shape[1:]))


def _radical(space: MatrixSubspace):
    """The radical as one array (k, n, n) of residues, in ``radical``'s order."""
    n = space.n
    _require_enumerable(space.field, n * n)
    import numpy as np
    dual = _Dual(space)
    return np.concatenate([a[dual.staying(a, n, 2 * n - 1)[0]]
                           for a in _members(space.field.p, n)])


def radical(space: MatrixSubspace):
    """All a whose large powers eventually stay inside: every element of
    the cycle of a belongs to the space, i.e. a^n .. a^(2n-1) do.
    Lexicographic order: one matrix per element of ``_radical``, the
    array that the CLI reports as it is."""
    f, n = space.field, space.n
    return [DenseMatrix._trusted(f, m, n) for m in _radical(space).tolist()]


def idempotents(space: MatrixSubspace):
    """All members e with e^2 = e, in coefficient order; on a subspace of
    sl_n with n! != 0 in K the zero matrix alone, at any size."""
    f, n = space.field, space.n
    if _answered_by_trace(space):
        return [DenseMatrix._trusted(f, [[f.zero] * n] * n, n)]
    _require_enumerable(f, space.dim)
    return [_matrix(f, e) for a in _members(f.p, n, space.basis.basis)
            for e in a[(a @ a % f.p == a).all(axis=(1, 2))]]


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
        hit = bad.any(axis=0).nonzero()[0]
        if len(hit):
            pos = int(hit[-1])      # the first in enumeration order
            b, c = {LEFT: (pos, None), RIGHT: (None, pos)}.get(side, divmod(pos, n * n))
            col = cycle[:, b % n, c // n] != 0 if side == TWO_SIDED else bad[:, pos]
            b, c = (u if u is None else DenseMatrix.unit(f, n, n, *divmod(u, n))
                    for u in (b, c))
            witness = Witness(a=traj.a, b=b, c=c,
                              exponent=traj.tail_len + 1 + int(col.argmax()))
            if not _replays(space, witness, traj):
                raise AssertionError("witness does not replay: %r" % (witness,))
            return witness


def _traceless(space: MatrixSubspace) -> bool:
    """Whether every member has trace 0, read off the integer basis rows
    (over Q multiples of the basis rows, so a zero sum is trace 0)."""
    p, n = space.field.p, space.n
    traces = (sum(row[::n + 1]) for row in space.basis.rows)
    return not any(tr % p if p else tr for tr in traces)


def _answered_by_trace(space: MatrixSubspace) -> bool:
    """Whether ``space`` lies in sl_n with n! != 0 in K, where claim (A)
    answers every verdict and ``idempotents``: a nonzero idempotent e
    has tr e = rank e != 0, so the space holds none, and a member whose
    powers all stay inside is then nilpotent (Fitting)."""
    p = space.field.p
    return (not p or p > space.n) and _traceless(space)


def verify_mathieu(space: MatrixSubspace, vtype: str) -> MathieuVerdict:
    """Check one of the four defining properties: each holds, at any
    size, on a subspace of sl_n with n! != 0 in K (``_answered_by_trace``);
    any other space is enumerated exhaustively.

    A member a with a^1 .. a^n inside has all its powers inside; some
    multiplier (pair) takes a large power of a outside iff one takes a^n
    outside, iff a matrix unit (pair) does; two-sided, iff a^n is nonzero.
    The first such member in coefficient order gives the witness: the
    first multiplier in enumeration order taking an element of its cycle
    outside, and the first such element.  The witness is replayed
    (``witness_replays``) on the powers already followed; AssertionError
    if it does not replay (it cannot, short of a bug).
    """
    if vtype not in ALL_TYPES:
        raise ValueError("unknown type %r" % vtype)
    if _answered_by_trace(space):
        return MathieuVerdict(holds=True, vtype=vtype, witness=None)
    import numpy as np
    _require_enumerable(space.field, space.dim)
    n = space.n
    if space.dim == n * n:
        return MathieuVerdict(holds=True, vtype=vtype, witness=None)
    dual = _Dual(space)
    sides = (LEFT, RIGHT) if vtype == PRE_TWO_SIDED else (vtype,)
    for a in _members(space.field.p, n, space.basis.basis, _FIRST_BATCH):
        keep, top = dual.staying(a, 2, n)
        live = top.any(axis=(1, 2))     # a^n = 0 takes no multiplier outside
        out, top = keep[live], top[live]
        if vtype != TWO_SIDED and len(out):
            bad = np.concatenate([dual.escapes(top, side) for side in sides], axis=1)
            out = out[bad.any(axis=1)]
        if len(out):
            return MathieuVerdict(False, vtype, _witness(space, dual, a[out[0]], sides))
    return MathieuVerdict(holds=True, vtype=vtype, witness=None)


def witness_replays(space: MatrixSubspace, witness: Witness) -> bool:
    """Confirm a witness by direct power iteration: all powers of a stay
    inside, while the product escapes at the witness exponent, which lies
    in the cycle: periodicity gives the escapes one period apart."""
    return _replays(space, witness, power_trajectory(witness.a))


def _replays(space: MatrixSubspace, witness: Witness, traj: PowerTrajectory) -> bool:
    """``witness_replays`` on ``traj``, the trajectory of ``witness.a``."""
    for x in traj.tail + traj.cycle:
        if not space.contains(x):
            return False
    if witness.exponent <= traj.tail_len:
        return False
    out = traj.power(witness.exponent)
    if witness.b is not None:
        out = witness.b.mul(out)
    if witness.c is not None:
        out = out.mul(witness.c)
    return not space.contains(out)


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
    radical => two-sided Mathieu, claim (A) applied by the trace answer at
    p > n and enumerated only at p <= n.  The four flags are bools;
    ``nilpotency_bound_ok`` is None when the identity-free variant fails."""
    __slots__ = ()

    @property
    def chain_holds(self) -> bool:
        return all(not a or b for a, b in zip(self[:3], self[1:4]))


def trace_chain_report(space: MatrixSubspace) -> TraceChainReport:
    """Evaluate the four chained predicates for a trace-zero subspace; at
    p > n ``two_sided_mathieu`` is claim (A) applied by the trace answer,
    and only at p <= n is it enumerated.

    Raises PreconditionViolated when some member has nonzero trace;
    raises AssertionError if an implication fails (it cannot, short of
    a bug)."""
    if not _traceless(space):
        raise PreconditionViolated("the space contains a nonzero-trace matrix")
    p, n = space.field.p, space.n
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


def _left_ideal(rows: VectorSubspace) -> MatrixSubspace:
    """Ann(rows^perp), the matrices with all rows in ``rows``, eliminating
    nothing: matrix row i of its RREF holds that of ``rows``, at i n + c."""
    f, n = rows.field, rows.ambient_dim
    zero = (0,) * n
    return MatrixSubspace(f, n, VectorSubspace(f, n * n, tuple(
        zero * i + row + zero * (n - 1 - i) for i in range(n) for row in rows.rows),
        tuple(i * n + c for i in range(n) for c in rows.pivots)))


def max_left_ideal(space: MatrixSubspace) -> MatrixSubspace:
    """The unique maximal left ideal contained in the space.

    Consists of all A with E_ij A inside the space for every unit E_ij;
    any left ideal inside the space satisfies that, and the set itself
    is a left ideal.  E_ij A is row j of A placed at row i, so A belongs
    iff each of its rows lies in R, the intersection over i of R_i, the
    rows i of the members vanishing off row i.  Each R_i is read off one
    elimination, with the coordinates of row i last, and R_0 is met with
    the other n - 1, stopping once the running intersection is zero: at
    most 2n - 1 eliminations.  Works over any field.
    """
    f, n = space.field, space.n
    common = None
    for i in range(n):
        r_i = _readout(f, [row[:i * n] + row[(i + 1) * n:] + row[i * n:(i + 1) * n]
                           for row in space.basis.rows], n * n - n, n * n)
        common = r_i if common is None else common.intersect(r_i)
        if not common.dim:
            break
    return _left_ideal(common)


class LeftIdealForm(namedtuple("LeftIdealForm", "t k idempotent")):
    """Conjugation data for a left ideal: after conjugating by t it kills
    exactly the last n-k coordinates, and the returned idempotent
    generates it."""
    __slots__ = ()


def left_ideal_normal_form(ideal: MatrixSubspace) -> LeftIdealForm:
    """Normalize a left ideal to the column-kill shape.

    A left ideal is ``_left_ideal(R)``, R its first k rows cut to n entries,
    k its pivots below n.  The last n-k columns of t span the common kernel
    R^perp; conjugating by t yields exactly the matrices vanishing on the
    last n-k coordinates.  The idempotent t D t^-1 is the projection onto
    the e_c at R's pivots along R^perp, read off R with no product: its
    row c is R's RREF row at pivot c, its other rows zero.  Raises
    NotLeftIdealError on bad input.
    """
    f, n = ideal.field, ideal.n
    k = sum(c < n for c in ideal.basis.pivots)
    rows = VectorSubspace(f, n, tuple(r[:n] for r in ideal.basis.rows[:k]), ideal.basis.pivots[:k])
    if ideal != _left_ideal(rows):
        raise NotLeftIdealError("input is not closed under left multiplication")
    # the e_c at R's pivots complete the common kernel to a basis
    eye = DenseMatrix.identity(f, n).entries
    columns = [eye[c] for c in rows.pivots] + list(_kernel(f, rows.rows, n).basis)
    t = DenseMatrix._trusted(f, zip(*columns), n)
    units = VectorSubspace.full(f, n).rows[:k]
    if conjugate(ideal, t) != _left_ideal(VectorSubspace(f, n, units, tuple(range(k)))):
        raise AssertionError("left ideal is not a full column-kill space")
    at = dict(zip(rows.pivots, rows.basis))
    idem = DenseMatrix._trusted(f, [at.get(i, (f.zero,) * n) for i in range(n)], n)
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
