"""Conjugation normal form for identity-adjoined constraint spaces.

The normalization drives the binary profile of a filtered subspace of
Mat_n(K) into shape by a sequence of three kinds of conjugation moves:

* ``generic_vector`` -- send a grid-found generic vector to e_k, making
  the level-k column space attain its generic dimension;
* ``unit_triangular`` -- a lower-triangular conjugation that turns the
  level-k column space into a span of standard basis unit vectors;
* ``permutation`` -- reorder leading coordinates so the k-th profile
  column becomes decreasing above the diagonal.

Moves are applied for k = n down to 1.  When the field is strictly
larger than min(d_{n-1}, n-1) after the first move, a single descending
pass with all three moves per level suffices; otherwise the
generic-vector pass runs in full first and the unit-triangular pass
second.  Every move is logged with its conjugator so a run can be
replayed and audited move by move.

Each move reads the current space's levels off its ``matspace.Filtration``
and returns its conjugator, or None for a no-op; ``normalize`` reads one
Filtration for the input and one for the conjugate after each logged move.
The postcondition conjugates the input by the total conjugator only when
two or more moves compose it: one move formed that conjugate already.
The moves read the column space of level k along e_k off its basis
``Filtration.columns``; only a unit-triangular move that is not a no-op
forms its RREF.  The generic-vector search reads only the rank of each
candidate's images, never a column space.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import FieldTooSmallError, PreconditionViolated
from .linalg import DenseMatrix
from .matspace import (
    Filtration,
    MatrixSubspace,
    _support,
    conjugate,
    constraint_space,
    find_generic_vector,
    rct_zero_members,
)

DOUBLE_PASS = "double_pass"
SINGLE_PASS = "single_pass"


class Move(namedtuple("Move", "kind level t")):
    """One logged conjugation by ``t`` at ``level``; ``kind`` is
    generic_vector, unit_triangular or permutation."""
    __slots__ = ()


class NormalizationResult(namedtuple("NormalizationResult",
        "c_n_input t_total c_n_final profile branch log")):
    """The input and final constraint spaces, the total conjugator, the
    final binary profile, the branch taken and the tuple of ``Move``s."""
    __slots__ = ()


class RctCertificate(namedtuple("RctCertificate", "t r")):
    """A conjugator t and block size r after which every member of the
    identity-adjoined conjugated space with zero top-right block is scalar."""
    __slots__ = ()


def move_generic_vector(fil: Filtration, k: int, pivot=False):
    """Conjugator making the level-k column space of the filtered space
    attain its generic dimension, for 1 <= k <= n.

    Its columns right of k are identity columns; with ``pivot`` the found
    vector has k-th entry 1 and t is the identity outside column k.
    None (a no-op) when the level is already saturated or zero.
    """
    f, n = fil.space.field, fil.space.n
    # The column space along e_k never exceeds d_k, so it is saturated
    # when d_k = 0.
    if len(fil.columns[k - 1]) == fil.d[k]:
        return None
    v = find_generic_vector(fil, k, require_pivot_one=pivot)
    columns = list(DenseMatrix.identity(f, n).entries)
    if v[k - 1] == f.zero:
        # Keep t invertible: the column of the last nonzero coordinate of
        # v moves to e_k.  Only columns left of k change; nothing at
        # levels above k depends on those.
        columns[max(i for i in range(n) if v[i] != f.zero)] = columns[k - 1]
    columns[k - 1] = v
    return DenseMatrix._trusted(f, zip(*columns), n)


def move_unit_triangular(fil: Filtration, k: int):
    """Lower-triangular conjugator making the level-k column space of the
    filtered space a span of standard basis unit vectors (so its
    one-count equals its dimension), for 1 <= k <= n.  None when it
    already is."""
    f, n = fil.space.field, fil.space.n
    vectors = fil.columns[k - 1]
    # a span is a coordinate subspace iff its dimension is its support's size
    if len(vectors) == sum(_support(n, vectors)):
        return None
    cs = fil.col_space(k)
    columns = list(DenseMatrix.identity(f, n).entries)
    # RREF rows have distinct pivots: each becomes the column of its own.
    for row, lead in zip(cs.basis, cs.pivots):
        columns[lead] = row
    return DenseMatrix._trusted(f, zip(*columns), n)


def move_permutation(fil: Filtration, k: int):
    """Conjugator permuting leading coordinates so column k of the
    filtered space's profile becomes decreasing above the diagonal, for
    1 <= k <= n; None when it already is.  The permutation is stable and
    fixes every coordinate from the lowest 1 of the column downward."""
    f, n = fil.space.field, fil.space.n
    ind = _support(n, fil.columns[k - 1])
    above = ind[:k - 1]
    if all(a >= b for a, b in zip(above, above[1:])):
        return None
    s = max(i for i in range(k - 1) if ind[i]) + 1
    order = sorted(range(s), key=lambda i: (-ind[i], i))
    eye = DenseMatrix.identity(f, n).entries
    # column new is e_old: the inverse of the sorting permutation
    return DenseMatrix._trusted(f, zip(*[eye[old] for old in [*order, *range(s, n)]]), n)


class NormalizationError(AssertionError):
    """A postcondition that cannot fail short of a bug did; carries the move log."""

    def __init__(self, message, log):
        dump = "\n".join(
            "  %-16s level %d, t=%r" % (m.kind, m.level, m.t) for m in log)
        super().__init__("%s\nmove log:\n%s" % (message, dump or "  (empty)"))
        self.log = tuple(log)


def normalize(space: MatrixSubspace) -> NormalizationResult:
    """Run the full profile normalization on an arbitrary subspace of
    Mat_n(K).

    Requires #K >= d_n (the generic dimension of the whole space);
    raises FieldTooSmallError otherwise.  The result's profile satisfies,
    machine-checked before returning:

    * b_j = dim(level-j column space) = d_j for every j;
    * rows of B increasing;
    * columns of B decreasing above the diagonal whenever
      #K > min(b_{n-1}, n-1);
    * when the identity belongs to the space, additionally
      b_n > min(b_{n-1}, n-1) and B_{(n-1)n} >= B_{n(n-1)}.
    """
    f, n = space.field, space.n
    fil = Filtration(space)
    d_top = fil.d[n]
    if not f.size_at_least(d_top):
        raise FieldTooSmallError(
            "normalization needs #K >= %d" % d_top, needed=d_top)
    log = []

    def apply(kind, k, t):
        nonlocal fil
        if t is None:
            return
        log.append(Move(kind, k, t))
        dk = fil.d[k]
        fil = Filtration(conjugate(fil.space, t))
        if kind == "generic_vector" and len(fil.columns[k - 1]) != dk:
            raise NormalizationError(
                "generic-vector move missed dimension %d at level %d" % (dk, k), log)

    apply("generic_vector", n, move_generic_vector(fil, n))
    branch = SINGLE_PASS if f.size_at_least(min(fil.d[n - 1], n - 1) + 1) else DOUBLE_PASS

    if branch == SINGLE_PASS:
        for k in range(n, 0, -1):
            if fil.d[k] == n:
                if k < n:
                    apply("generic_vector", k, move_generic_vector(fil, k))
                continue
            if k < n:
                apply("generic_vector", k, move_generic_vector(fil, k, pivot=True))
            apply("unit_triangular", k, move_unit_triangular(fil, k))
            apply("permutation", k, move_permutation(fil, k))
    else:
        for k in range(n - 1, 0, -1):
            apply("generic_vector", k, move_generic_vector(fil, k))
        for k in range(n, 0, -1):
            apply("unit_triangular", k, move_unit_triangular(fil, k))

    t_total = log[0].t if log else DenseMatrix.identity(f, n)
    for move in log[1:]:
        t_total = t_total.mul(move.t)
    result = NormalizationResult(
        c_n_input=space, t_total=t_total, c_n_final=fil.space,
        profile=fil.profile(), branch=branch, log=tuple(log))
    _check_postconditions(result, d_top)
    return result


def _check_postconditions(result: NormalizationResult, d_top: int):
    prof = result.profile
    space = result.c_n_final
    f, n = space.field, space.n
    log = result.log

    def ensure(ok, what):
        if not ok:
            raise NormalizationError("postcondition failed: " + what, log)

    ensure(len(log) < 2 or result.c_n_final == conjugate(result.c_n_input, result.t_total),
           "final space is the conjugate of the input by t_total")
    ensure(prof.d[n] == d_top, "top generic dimension unchanged")
    ensure(prof.b == prof.col_dims == prof.d[1:],
           "b_j = dim column space = d_j for all j")
    ensure(prof.rows_increasing(), "rows of B increasing")
    b_next = prof.b[n - 2] if n >= 2 else 0
    if f.size_at_least(min(b_next, n - 1) + 1):
        ensure(prof.columns_decreasing_above_diagonal(),
               "columns of B decreasing above the diagonal")
    if space.contains_identity():
        ensure(prof.b[n - 1] > min(b_next, n - 1),
               "b_n exceeds min(b_{n-1}, n-1)")
        if n >= 2:
            ensure(prof.B[n - 2][n - 1] >= prof.B[n - 1][n - 2],
                   "B_{(n-1)n} >= B_{n(n-1)}")


def rct_zero_is_scalar(space: MatrixSubspace, r: int) -> bool:
    """Whether the members of the identity-adjoined space with zero
    top-right r x (n-r) block, I among them, are only the scalar line."""
    return rct_zero_members(space.adjoin_identity(), r).dim == 1


def rct_certificate(m: MatrixSubspace) -> RctCertificate:
    """Find a conjugation after which the constraint space of ``m`` plus
    the scalar line meets {zero top-right block} only in the scalars.

    Preconditions: the identity is not a constraint of ``m`` and the
    constraint space has dimension strictly between 0 and n; the field
    must have at least d_n elements.  Under these the normalization
    always succeeds, with r + 1 = d_n.
    """
    n = m.n
    c = constraint_space(m)
    if c.contains_identity():
        raise PreconditionViolated("the identity is a constraint of the space")
    if not 0 < c.dim < n:
        raise PreconditionViolated(
            "constraint dimension %d must lie strictly between 0 and %d"
            % (c.dim, n))
    try:
        result = normalize(c.adjoin_identity())
    except FieldTooSmallError as exc:
        raise FieldTooSmallError(
            "certificate needs #K >= %d" % exc.needed, needed=exc.needed) from exc
    r = result.profile.d[n] - 1
    if not 1 <= r <= n - 1:
        raise NormalizationError("generic dimension out of range: %d" % (r + 1), result.log)
    # c_n_final = t^-1 (c + K I) t = t^-1 c t + K I, as normalize checked:
    # it holds I already, so its zero-corner members are read off directly
    if rct_zero_members(result.c_n_final, r).dim != 1:
        raise NormalizationError(
            "normalized space still has a non-scalar member with zero "
            "top-right block", result.log)
    return RctCertificate(t=result.t_total, r=r)
