import functools
import itertools
import random
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mathieumat.cli import _trace_zero, matrix_payload
from mathieumat.errors import PreconditionViolated, TooLargeError
from mathieumat.linalg import DenseMatrix, Field, VectorSubspace, invert
from mathieumat import verify
from mathieumat.matspace import MatrixSubspace, conjugate, constraint_space
from mathieumat.multipoly import MultiPoly
from mathieumat.verify import (
    ALL_TYPES,
    LEFT,
    PRE_TWO_SIDED,
    RIGHT,
    TWO_SIDED,
    Witness,
    _Dual,
    idempotents,
    left_ideal_equivalences,
    left_ideal_normal_form,
    max_left_ideal,
    power_trajectory,
    proposition_family,
    radical,
    trace_chain_report,
    verify_mathieu,
    witness_replays,
)

import keyed_verify
from helpers import (
    all_matrices,
    column_kill,
    elements,
    full_power_set,
    matrix_sum,
    mul_vector,
    neg,
    newton_char_poly,
    reference_is_left_ideal,
    small_codim_report,
    symmetric_images,
    trace_zero,
    unit,
    zeros,
)

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
F7 = Field.prime(7)
QQ = Field.rationals()


def test_trajectory_identity():
    t = power_trajectory(DenseMatrix.identity(F3, 2))
    assert t.tail == () and len(t.cycle) == 1
    assert t.cycle[0] == DenseMatrix.identity(F3, 2)


def test_trajectory_nilpotent():
    t = power_trajectory(DenseMatrix(F2, [[0, 1], [0, 0]]))
    assert len(t.tail) == 1 and len(t.cycle) == 1
    assert t.cycle[0].is_zero()


def test_trajectory_order_two_cycle():
    t = power_trajectory(DenseMatrix(F3, [[1, 0], [0, 2]]))
    assert t.tail == ()
    assert [m.entries for m in t.cycle] == [((1, 0), (0, 2)), ((1, 0), (0, 1))]


def test_trajectory_power_lookup():
    rng = random.Random(5)
    for _ in range(20):
        a = DenseMatrix(F5, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
        t = power_trajectory(a)
        direct = a
        for m in range(1, t.tail_len + 2 * t.period + 1):
            assert t.power(m) == direct
            direct = direct.mul(a)


def test_eventual_membership_matches_cycle_check():
    rng = random.Random(7)
    for _ in range(40):
        gens = [DenseMatrix(F3, [[rng.randrange(3) for _ in range(2)]
                                 for _ in range(2)])
                for _ in range(rng.randrange(4))]
        space = MatrixSubspace.from_matrices(F3, 2, gens)
        a = DenseMatrix(F3, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
        b = DenseMatrix(F3, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
        traj = power_trajectory(a)
        by_cycle = all(space.contains(b.mul(z)) for z in traj.cycle)
        directly = all(
            space.contains(b.mul(traj.power(e)))
            for e in range(traj.tail_len + 1, traj.tail_len + 2 * traj.period + 1))
        assert by_cycle == directly


def test_radical_of_zero_space_is_nilpotent_cone():
    rad = radical(MatrixSubspace.from_matrices(F2, 2, []))
    expected = {m for m in all_matrices(F2, 2, 2) if m.mul(m).is_zero()}
    assert set(rad) == expected
    assert len(rad) == 4


def test_radical_of_full_space_is_everything():
    assert len(radical(MatrixSubspace.full_space(F2, 2))) == 16


def test_radical_of_trace_zero_is_nilpotents():
    rad = radical(trace_zero(F3, 2))
    expected = {m for m in all_matrices(F3, 2, 2) if m.mul(m).is_zero()}
    assert set(rad) == expected
    # the largest guarded universe, 31^4 matrices: the q^2 nilpotents of
    # Mat_2(F_q), and since 2! != 0 in F_31 every verdict holds
    big = trace_zero(Field.prime(31), 2)
    rad = radical(big)
    assert len(rad) == 31 ** 2 == 961
    assert all(a.mul(a).is_zero() for a in rad)
    assert all(verify_mathieu(big, vtype).holds for vtype in ALL_TYPES)


def test_full_power_set_examples():
    assert full_power_set(MatrixSubspace.from_matrices(F2, 2, [])) == [zeros(F2, 2, 2)]
    members = full_power_set(trace_zero(F2, 2))
    assert DenseMatrix.identity(F2, 2) in members
    full = full_power_set(MatrixSubspace.full_space(F2, 2))
    assert len(full) == 16


def test_verify_full_space_always_holds():
    for vtype in ALL_TYPES:
        assert verify_mathieu(MatrixSubspace.full_space(F3, 2), vtype).holds


def test_verify_trace_zero_f2_fails_with_replayable_witness():
    h = trace_zero(F2, 2)
    verdict = verify_mathieu(h, LEFT)
    assert not verdict.holds
    w = verdict.witness
    assert w is not None and w.b is not None and w.c is None
    assert witness_replays(h, w)
    # determinism: repeated runs return the same witness
    again = verify_mathieu(h, LEFT)
    assert again.witness == w


def test_verify_trace_zero_odd_characteristic_holds():
    for field in (F3, F5):
        h = trace_zero(field, 2)
        for vtype in ALL_TYPES:
            assert verify_mathieu(h, vtype).holds


def test_two_sided_iff_pre_two_sided_empirically():
    rng = random.Random(11)
    spaces = [trace_zero(F2, 2), trace_zero(F3, 2), column_kill(F3, 2, 1),
              MatrixSubspace.from_matrices(F2, 2, [])]
    for _ in range(10):
        gens = [DenseMatrix(F3, [[rng.randrange(3) for _ in range(2)]
                                 for _ in range(2)])
                for _ in range(rng.randrange(4))]
        spaces.append(MatrixSubspace.from_matrices(F3, 2, gens))
    for space in spaces:
        two = verify_mathieu(space, TWO_SIDED).holds
        pre = verify_mathieu(space, PRE_TWO_SIDED).holds
        assert two == pre


def test_right_witness_shape():
    # a one-sided failure on the right carries c, not b
    h = trace_zero(F2, 2)
    verdict = verify_mathieu(h, RIGHT)
    assert not verdict.holds
    assert verdict.witness.c is not None and verdict.witness.b is None
    assert witness_replays(h, verdict.witness)


def test_witness_replays_rejects_a_member_with_a_power_outside():
    # a = E_12 + E_21 lies in sl_2(F_3), a^2 = I does not; E_11 a^2 escapes
    h = trace_zero(F3, 2)
    a = unit(F3, 2, 0, 1) + unit(F3, 2, 1, 0)
    w = Witness(a=a, b=unit(F3, 2, 0, 0), c=None, exponent=2)
    assert h.contains(a) and not h.contains(a.mul(a)) and not h.contains(w.b.mul(a.mul(a)))
    assert not witness_replays(h, w)


def test_witness_replays_rejects_an_exponent_in_the_tail():
    # E_12 has the tail (E_12,) and the cycle (0,): E_21 E_12 escapes
    # <E_12> at the tail exponent 1, and no cycle exponent escapes
    e12 = unit(F3, 2, 0, 1)
    space = MatrixSubspace.from_matrices(F3, 2, [e12])
    w = Witness(a=e12, b=unit(F3, 2, 1, 0), c=None, exponent=1)
    assert not space.contains(w.b.mul(e12))
    assert not witness_replays(space, w)


def test_witness_replays_rejects_multipliers_that_keep_the_power_inside():
    # each verdict's own witness on sl_2(F_2) replays; with a unit (pair)
    # that keeps its power inside in place of its multipliers, none does
    h = trace_zero(F2, 2)
    eye = DenseMatrix.identity(F2, 2)
    units = [unit(F2, 2, i, j) for i in range(2) for j in range(2)]
    multipliers = {LEFT: [(u, None) for u in units], RIGHT: [(None, u) for u in units],
                   TWO_SIDED: [(u, v) for u in units for v in units]}
    for vtype, pairs in multipliers.items():
        w = verify_mathieu(h, vtype).witness
        assert witness_replays(h, w)
        z = power_trajectory(w.a).power(w.exponent)
        kept = [(b, c) for b, c in pairs if h.contains((b or eye).mul(z).mul(c or eye))]
        assert kept
        for b, c in kept:
            assert not witness_replays(h, w._replace(b=b, c=c))


def test_witness_replays_reads_one_power(monkeypatch):
    h = trace_zero(F2, 2)
    w = verify_mathieu(h, LEFT).witness
    original = verify.PowerTrajectory.power
    reads = []

    def counting(self, m):
        reads.append(m)
        return original(self, m)

    monkeypatch.setattr(verify.PowerTrajectory, "power", counting)
    assert witness_replays(h, w)
    assert reads == [w.exponent]


def test_proposition_family_shape_and_verdict():
    fam = proposition_family(F5, 2, 1)
    assert fam.dim == 2
    assert fam.contains(DenseMatrix(F5, [[1, 0], [0, 2]]))
    assert fam.contains(unit(F5, 2, 0, 1))
    assert not fam.contains(unit(F5, 2, 1, 0))
    assert verify_mathieu(fam, TWO_SIDED).holds
    assert verify_mathieu(proposition_family(F7, 2, 1), TWO_SIDED).holds


def test_proposition_family_has_no_nonzero_idempotent():
    for field in (F5, F7):
        fam = proposition_family(field, 2, 1)
        idems = [e for e in elements(fam) if e.mul(e) == e]
        assert idems == [zeros(field, 2, 2)]


def test_proposition_family_rejections():
    with pytest.raises(PreconditionViolated):
        proposition_family(F2, 2, 1)      # p = n
    with pytest.raises(PreconditionViolated):
        proposition_family(F3, 2, 1)      # p = n + 1
    with pytest.raises(PreconditionViolated):
        proposition_family(F2, 3, 1)      # p in 1..n-1
    with pytest.raises(PreconditionViolated):
        proposition_family(F5, 2, 3)      # a = -2 admits idempotents
    # over the rationals only a in {-1, ..., -n} is excluded
    fam = proposition_family(QQ, 2, Fraction(1, 2))
    assert fam.dim == 2
    with pytest.raises(PreconditionViolated):
        proposition_family(QQ, 2, -2)


def char_poly_direct(a):
    # Leibniz expansion of det(tI - a) in one variable
    f = a.field
    n = a.rows
    acc = MultiPoly(f, 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = MultiPoly(f, 1, {(0,): sign})
        for i in range(n):
            if perm[i] == i:
                entry = MultiPoly(f, 1, {(1,): f.one, (0,): neg(f, a.entries[i][i])})
            else:
                entry = MultiPoly(f, 1, {(0,): neg(f, a.entries[i][perm[i]])})
            term = term * entry
        acc = acc + term
    return tuple(acc.terms.get((k,), f.zero) for k in range(n, -1, -1))


def test_newton_char_poly_examples():
    assert newton_char_poly(DenseMatrix(QQ, [[0, 1], [0, 0]])) == \
        (Fraction(1), Fraction(0), Fraction(0))
    assert newton_char_poly(DenseMatrix(QQ, [[1, 0], [0, 2]])) == \
        (Fraction(1), Fraction(-3), Fraction(2))
    assert newton_char_poly(DenseMatrix.identity(F5, 3)) == (1, 2, 3, 4)


def test_newton_char_poly_precondition():
    with pytest.raises(PreconditionViolated):
        newton_char_poly(DenseMatrix.identity(F2, 2))
    with pytest.raises(PreconditionViolated):
        newton_char_poly(DenseMatrix.identity(F3, 3))


def test_newton_matches_direct_char_poly():
    rng = random.Random(13)
    for _ in range(500):
        field, n = rng.choice([(F5, 2), (F5, 3), (F7, 3), (F7, 4), (QQ, 2), (QQ, 3)])
        a = DenseMatrix(field, [[field.of(rng.randrange(-4, 5)) for _ in range(n)]
                                for _ in range(n)])
        assert newton_char_poly(a) == char_poly_direct(a)


def test_vanishing_power_sums_force_pure_power():
    # all power traces zero (char 0 or > n) leaves only the leading term
    rng = random.Random(17)
    for _ in range(50):
        field, n = rng.choice([(F5, 2), (F7, 3), (QQ, 3)])
        entries = [[field.of(rng.randrange(-3, 4)) if j > i else field.zero
                    for j in range(n)] for i in range(n)]
        nil = DenseMatrix(field, entries)
        while True:
            t = DenseMatrix(field, [[field.of(rng.randrange(-3, 4)) for _ in range(n)]
                                    for _ in range(n)])
            try:
                ti = invert(t)
                break
            except Exception:
                continue
        a = ti.mul(nil).mul(t)
        expected = tuple([field.one] + [field.zero] * n)
        assert newton_char_poly(a) == expected


def test_trace_chain_reports():
    r3 = trace_chain_report(trace_zero(F3, 2))
    assert (r3.char_avoids_1_to_n, r3.radical_nilpotent, r3.two_sided_mathieu) == \
        (True, True, True)
    assert r3.nilpotency_bound_ok
    r2 = trace_chain_report(trace_zero(F2, 2))
    assert not r2.char_avoids_1_to_n
    assert not r2.char_avoids_1_to_n_minus_1_and_identity_free  # I is inside
    assert not r2.two_sided_mathieu
    z = trace_chain_report(MatrixSubspace.from_matrices(F2, 2, []))
    assert z.radical_nilpotent and z.two_sided_mathieu
    with pytest.raises(PreconditionViolated):
        trace_chain_report(MatrixSubspace.full_space(F3, 2))
    # over Q the traces are read off the integer rows too: a member of
    # trace 1/2 beside one of trace 0 is refused before the radical's guard
    with pytest.raises(PreconditionViolated):
        trace_chain_report(MatrixSubspace.from_matrices(QQ, 2, [
            DenseMatrix(QQ, [[Fraction(1, 2), 3], [0, 0]]),
            DenseMatrix(QQ, [[Fraction(1, 3), 0], [1, Fraction(-1, 3)]])]))


def test_trace_chain_report_raises_on_a_broken_implication(monkeypatch):
    # sl_2(F_3) has a nilpotent radical; a failing two-sided verdict breaks the chain
    monkeypatch.setattr(verify, "verify_mathieu",
                        lambda space, kind: types.SimpleNamespace(holds=False))
    with pytest.raises(AssertionError, match="implication chain violated"):
        trace_chain_report(trace_zero(F3, 2))


def test_trace_chain_report_refuses_at_the_radical_guard(monkeypatch):
    # the radical's own guard refuses a space past it, before any member
    # is enumerated, with the guard's own message
    def refuse(*args, **kwargs):
        raise AssertionError("a member enumerated past the guard")

    monkeypatch.setattr(verify, "_members", refuse)
    with pytest.raises(TooLargeError) as exc:
        trace_chain_report(trace_zero(QQ, 2))
    assert str(exc.value) == "the rationals are not enumerable"
    with pytest.raises(TooLargeError) as exc:
        trace_chain_report(trace_zero(F3, 4))
    assert str(exc.value) == "3^16 matrices exceed the enumeration guard 2^20"


def random_trace_zero(rng, field, n):
    """A matrix with entries in [-3, 3] whose last diagonal entry sets its
    trace to 0."""
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    rows[-1][-1] -= sum(rows[i][i] for i in range(n))
    return DenseMatrix(field, rows)


def test_trace_answer_is_the_enumerated_verdict(monkeypatch):
    # claim (A) inside the guard: on seeded subspaces of sl_n(F_p) with
    # p > n the trace answer forms no batch and gives the verdict that the
    # enumeration gives; sl_2(F_2) and sl_3(F_3) (p <= n) still enumerate,
    # fail, and give witnesses that replay
    sizes = counted_batches(monkeypatch)
    for space in (trace_zero(F2, 2), trace_zero(F3, 3)):
        for vtype in ALL_TYPES:
            sizes.clear()
            verdict = verify_mathieu(space, vtype)
            assert sizes and not verdict.holds and witness_replays(space, verdict.witness)
    rng = random.Random(45)
    answered = []
    for field, n in [(F3, 2), (F5, 2), (F7, 2), (F5, 3), (F7, 3), (F5, 4)] * 5:
        space = MatrixSubspace.from_matrices(field, n, [
            random_trace_zero(rng, field, n) for _ in range(rng.randint(1, 4))])
        answered += [(space, verify_mathieu(space, vtype)) for vtype in ALL_TYPES]
    sizes.clear()
    monkeypatch.setattr(verify, "_answered_by_trace", lambda space: False)
    for space, verdict in answered:
        assert verify_mathieu(space, verdict.vtype) == verdict == (True, verdict.vtype, None)
    assert len(sizes) >= len(answered)


def test_trace_answer_is_the_enumerated_idempotents(monkeypatch):
    # claim (A) inside the guard: on seeded subspaces of sl_n(F_p) with
    # p > n, ``idempotents`` forms no batch and gives what the enumeration
    # gives, the zero matrix alone
    sizes = counted_batches(monkeypatch)
    rng = random.Random(47)
    spaces = [MatrixSubspace.from_matrices(field, n, [
        random_trace_zero(rng, field, n) for _ in range(rng.randint(1, 4))])
        for field, n in [(F3, 2), (F5, 2), (F7, 2), (F5, 3), (F7, 3), (F5, 4)] * 5]
    answers = [idempotents(space) for space in spaces]
    assert sizes == []
    monkeypatch.setattr(verify, "_answered_by_trace", lambda space: False)
    for space, answer in zip(spaces, answers):
        zero = DenseMatrix(space.field, [[0] * space.n] * space.n)
        assert idempotents(space) == answer == [zero]
    assert len(sizes) >= len(spaces)


def test_trace_answer_holds_past_the_guard():
    # claim (A) where no enumeration reaches: sl_4(F_7) has 7^15 members,
    # and over Q there is nothing to enumerate, yet the only idempotent is
    # zero; a random conjugate and the transpose of each space get the
    # same answers
    rng = random.Random(46)
    sub = MatrixSubspace.from_matrices(QQ, 6, [random_trace_zero(rng, QQ, 6) for _ in range(5)])
    for space in (trace_zero(F7, 4), sub):
        zero = DenseMatrix(space.field, [[0] * space.n] * space.n)
        images = [(space, {v: v for v in ALL_TYPES})]
        images += [(image, types) for image, _, types in symmetric_images(space, rng)]
        for image, types in images:
            assert idempotents(image) == [zero]
            for vtype in ALL_TYPES:
                assert verify_mathieu(image, types[vtype]) == (True, types[vtype], None)


def test_verdicts_and_counts_agree_on_conjugates_and_transposes():
    # t^-1 M t shares M's four verdicts, and M^T has M's left verdict as
    # its right one and the reverse; both have M's numbers of idempotents
    # and of radical elements, and the trace dual and the maximal left
    # ideal of t^-1 M t are those of M conjugated by t
    rng = random.Random(89)
    seen = set()
    for field, n in [(F2, 2), (F3, 2), (F5, 2), (F2, 3), (F3, 3)] * 12:
        space = MatrixSubspace.from_matrices(field, n, [
            DenseMatrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
            for _ in range(rng.randrange(1, n * n))])
        verdicts = {v: verify_mathieu(space, v).holds for v in ALL_TYPES}
        seen.add((verdicts[LEFT], verdicts[RIGHT]))
        counts = (len(idempotents(space)), len(radical(space)))
        constraints, ideal = constraint_space(space), max_left_ideal(space)
        for image, t, types in symmetric_images(space, rng):
            for v in ALL_TYPES:
                assert verify_mathieu(image, types[v]).holds == verdicts[v]
            assert (len(idempotents(image)), len(radical(image))) == counts
            if t is not None:
                assert constraint_space(image) == conjugate(constraints, t)
                assert max_left_ideal(image) == conjugate(ideal, t)
    # holding, failing and one-sided verdicts all met
    assert {(True, True), (False, False)} < seen


def test_max_left_ideal_examples():
    ck = column_kill(F2, 2, 1)
    assert max_left_ideal(ck) == ck
    assert max_left_ideal(trace_zero(F3, 2)).dim == 0
    full = MatrixSubspace.full_space(F3, 2)
    assert max_left_ideal(full) == full


def test_max_left_ideal_properties():
    rng = random.Random(19)
    for _ in range(20):
        gens = [DenseMatrix(F3, [[rng.randrange(3) for _ in range(2)]
                                 for _ in range(2)])
                for _ in range(rng.randrange(5))]
        space = MatrixSubspace.from_matrices(F3, 2, gens)
        ideal = max_left_ideal(space)
        assert reference_is_left_ideal(ideal)
        assert all(space.contains(a) for a in ideal.basis_matrices)
        assert ideal.dim % 2 == 0  # n * k with n = 2
        # maximality: a left ideal inside the space lies inside the ideal
        for sub in (max_left_ideal(ideal),):
            assert matrix_sum(ideal, sub) == ideal


def test_left_ideal_normal_form_examples():
    ck = column_kill(F3, 2, 1)
    nf = left_ideal_normal_form(ck)
    assert nf.k == 1 and nf.t == DenseMatrix.identity(F3, 2)

    gens = [m for m in all_matrices(F3, 2, 2)
            if all(x == 0 for x in mul_vector(m, (1, 1)))]
    ideal = MatrixSubspace.from_matrices(F3, 2, gens)
    nf = left_ideal_normal_form(ideal)
    assert nf.k == 1
    assert nf.t.column(1) == (1, 1)
    assert ideal.contains(nf.idempotent)
    assert nf.idempotent.mul(nf.idempotent) == nf.idempotent

    nf0 = left_ideal_normal_form(MatrixSubspace.from_matrices(F3, 2, []))
    assert nf0.k == 0 and nf0.t == DenseMatrix.identity(F3, 2)


def test_left_ideal_normal_form_rejects_non_ideals():
    from mathieumat.errors import NotLeftIdealError
    with pytest.raises(NotLeftIdealError):
        left_ideal_normal_form(trace_zero(F3, 2))


def test_left_ideal_equivalences_examples():
    rep = left_ideal_equivalences(trace_zero(F3, 2))
    assert rep.left_mathieu and rep.idempotents_in_ideal and rep.radicals_match
    assert rep.ideal.dim == 0 and rep.idempotent_count == 1

    rep = left_ideal_equivalences(column_kill(F2, 2, 1))
    assert rep.left_mathieu and rep.consistent

    rep = left_ideal_equivalences(trace_zero(F2, 2))
    assert not rep.left_mathieu and not rep.idempotents_in_ideal
    assert not rep.radicals_match and rep.consistent


def test_small_codim_report():
    rep = small_codim_report(trace_zero(F5, 2))
    assert rep.left_mathieu and rep.two_sided_mathieu and rep.field_order == 5
    with pytest.raises(PreconditionViolated):
        small_codim_report(proposition_family(F5, 2, 1))  # codim n is out of scope
    with pytest.raises(PreconditionViolated):
        small_codim_report(MatrixSubspace.full_space(F3, 2))


_trajectory = functools.lru_cache(maxsize=None)(power_trajectory)


@functools.lru_cache(maxsize=None)
def _universe(p, n):
    return tuple(all_matrices(Field.prime(p), n, n))


def _definitional_full_power_set(space):
    return [a for a in elements(space)
            if all(space.contains(x) for x in _trajectory(a).tail + _trajectory(a).cycle)]


def _definitional_verdict(space, vtype):
    """Independent pure-Python reading of the defining property, built
    from elements(space), power_trajectory and space.contains only: the
    first escape (a, b, c, exponent) in enumeration order, None if none."""
    if space.dim == space.n ** 2:
        return None     # every product lies in the whole algebra
    universe = _universe(space.field.p, space.n)
    factors = {LEFT: (universe, [None]), RIGHT: ([None], universe),
               TWO_SIDED: (universe, universe)}
    sides = (LEFT, RIGHT) if vtype == PRE_TWO_SIDED else (vtype,)
    for a in _definitional_full_power_set(space):
        traj = _trajectory(a)
        # every product of zero stays inside
        cycle = [(pos, z) for pos, z in enumerate(traj.cycle) if not z.is_zero()]
        for side in sides:
            for b, c in itertools.product(*factors[side]) if cycle else ():
                for pos, z in cycle:
                    prod = z if b is None else b.mul(z)
                    prod = prod if c is None else prod.mul(c)
                    if not space.contains(prod):
                        return a, b, c, traj.tail_len + 1 + pos
    return None


def _check_against_definition(space, types=ALL_TYPES):
    for vtype in types:
        w = verify_mathieu(space, vtype).witness
        got = None if w is None else (w.a, w.b, w.c, w.exponent)
        assert got == _definitional_verdict(space, vtype)
    assert full_power_set(space) == _definitional_full_power_set(space)
    assert radical(space) == [a for a in _universe(space.field.p, space.n)
                              if all(space.contains(z) for z in _trajectory(a).cycle)]
    assert idempotents(space) == [e for e in elements(space) if e.mul(e) == e]


def test_batched_verifier_matches_definition_on_f2_universe():
    from mathieumat.linalg import all_subspaces
    for dim in range(5):
        for basis in all_subspaces(F2, 4, dim):
            _check_against_definition(MatrixSubspace(F2, 2, basis))


def test_batched_verifier_matches_definition_on_f3_universe():
    from mathieumat.linalg import all_subspaces
    for dim in range(5):
        for basis in all_subspaces(F3, 4, dim):
            _check_against_definition(MatrixSubspace(F3, 2, basis))


def test_witness_belongs_to_the_first_member_with_an_escape():
    # An escaping cycle element of a later member has a smaller key than
    # those of the first member with an escape: the witness must follow
    # the members' order, not the order of the keys.
    rows = [(1, 0, 0, 0, 0, 0, 2, 2, 2), (0, 1, 0, 0, 0, 0, 2, 1, 1),
            (0, 0, 1, 0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 0, 0, 0, 2, 2),
            (0, 0, 0, 0, 1, 0, 1, 1, 1), (0, 0, 0, 0, 0, 1, 0, 0, 0)]
    space = MatrixSubspace(F3, 3, VectorSubspace.from_vectors(F3, 9, rows))
    for vtype in (LEFT, RIGHT, PRE_TWO_SIDED):
        w = verify_mathieu(space, vtype).witness
        assert (w.a, w.b, w.c, w.exponent) == _definitional_verdict(space, vtype)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(2, 3), (5, 2), (7, 2)]).flatmap(lambda pn: st.tuples(
    st.just(pn),
    st.lists(st.lists(st.integers(0, pn[0] - 1), min_size=pn[1] ** 2,
                      max_size=pn[1] ** 2), max_size=pn[1] ** 2 - 1),
    st.booleans())))
def test_batched_verifier_matches_definition_on_drawn_spaces(drawn):
    # two-sided witnesses are compared at n = 2 only: the pure-Python
    # pair search over Mat_3(F_2) would dominate the suite
    (p, n), flats, with_identity = drawn
    field = Field.prime(p)
    if with_identity:
        flats = flats + [DenseMatrix.identity(field, n).flatten()]
    space = MatrixSubspace(field, n, VectorSubspace.from_vectors(field, n * n, flats))
    _check_against_definition(space, ALL_TYPES if n == 2 else ALL_TYPES[:3])


def test_equivalences_exhaustive_on_small_universes():
    # every subspace of Mat_2(F_2) and Mat_2(F_3): the three one-sided
    # predicates agree, and two-sided coincides with pre-two-sided
    from mathieumat.linalg import all_subspaces
    for field, expected in ((F2, 67), (F3, 212)):
        count = 0
        for dim in range(5):
            for basis in all_subspaces(field, 4, dim):
                space = MatrixSubspace(field, 2, basis)
                rep = left_ideal_equivalences(space)   # asserts consistency
                assert rep.consistent
                assert verify_mathieu(space, TWO_SIDED).holds == \
                    verify_mathieu(space, PRE_TWO_SIDED).holds
                count += 1
        assert count == expected


def test_trace_chain_on_all_trace_zero_subspaces():
    # the implication chain holds for each of the 28 subspaces of the
    # trace-zero space of Mat_2(F_3)
    from mathieumat.linalg import all_subspaces
    hbasis = trace_zero(F3, 2).basis_matrices
    count = 0
    for dim in range(4):
        for coeffs in all_subspaces(F3, 3, dim):
            gens = []
            for row in coeffs.basis:
                m = zeros(F3, 2, 2)
                for c, b in zip(row, hbasis):
                    if c:
                        m = m + b.scale(c)
                gens.append(m)
            report = trace_chain_report(MatrixSubspace.from_matrices(F3, 2, gens))
            assert report.chain_holds
            count += 1
    assert count == 28


def test_enumeration_guard():
    with pytest.raises(TooLargeError):
        radical(MatrixSubspace.from_matrices(F5, 3, []))  # 5^9 > 2^20
    with pytest.raises(TooLargeError):
        verify_mathieu(MatrixSubspace.from_matrices(QQ, 2, [DenseMatrix.identity(QQ, 2)]), LEFT)
    # the zero space lies in sl_2, and claim (A) answers it over Q
    assert verify_mathieu(MatrixSubspace.from_matrices(QQ, 2, []), LEFT).holds
    # 2^16 matrices fit the guard, and so does the two-sided verdict: it
    # reads a^n of each member, never the 2^32 multiplier pairs
    for space in (MatrixSubspace.from_matrices(F2, 4, []), trace_zero(F2, 4)):
        tracemalloc.start()
        try:
            verdict = verify_mathieu(space, TWO_SIDED)
            assert tracemalloc.get_traced_memory()[1] < 8 * 2 ** 20
        finally:
            tracemalloc.stop()
        assert verdict.holds == _two_sided_oracle(space)
        assert verdict.holds or witness_replays(space, verdict.witness)


def test_one_sided_escapes_keep_their_table_small():
    # the span of E_(1,2) .. E_(1,12) at n = 12: 2^11 members, 133
    # constraints, so a batch of 1024 members would form 19.6 million unit
    # products at once (75 MB); in slices of 2^22 it stays under 32 MB
    n = 12
    space = MatrixSubspace.from_matrices(
        F2, n, [DenseMatrix.unit(F2, n, n, 0, j) for j in range(1, n)])
    tracemalloc.start()
    try:
        verdict = verify_mathieu(space, LEFT)
        assert tracemalloc.get_traced_memory()[1] < 32 * 2 ** 20
    finally:
        tracemalloc.stop()
    assert verdict.holds


def test_escapes_in_slices_match_one_table(monkeypatch):
    # a batch past the table bound goes in slices whose rows are the
    # rows of the single table, in order
    rng = random.Random(17)
    for space in (trace_zero(F3, 3), MatrixSubspace.from_matrices(
            F3, 3, [[[rng.randrange(3) for _ in range(3)] for _ in range(3)]
                    for _ in range(4)])):
        dual = _Dual(space)
        zs = next(verify._members(3, 3, None, 200))
        whole = {side: dual.escapes(zs, side) for side in (LEFT, RIGHT, TWO_SIDED)}
        # slices of 7 members: n^4 = 81 table entries each
        monkeypatch.setattr(verify, "_TABLE", 7 * 3 ** 4)
        for side, want in whole.items():
            got = dual.escapes(zs, side)
            assert got.shape == want.shape and (got == want).all()
        monkeypatch.undo()


def test_a_member_past_the_table_bound_is_a_slice_of_its_own(monkeypatch):
    # at n = 46 one member's table, n^4 > 2^22 entries, alone exceeds the
    # bound: each slice holds one member.  Of the span of E_(1,1) over F_3
    # the two nonzero members reach the table (the zero one has a^n = 0),
    # and the witness's cycle, E_(1,1) alone, is the last slice
    n = 46
    space = MatrixSubspace.from_matrices(F3, n, [unit(F3, n, 0, 0)])
    sliced = []
    escapes = verify._Dual.escapes
    monkeypatch.setattr(verify._Dual, "escapes", lambda self, zs, side: (
        sliced.append(len(zs)), escapes(self, zs, side))[1])
    verdict = verify_mathieu(space, LEFT)
    assert sliced == [2, 1, 1, 1]
    assert verdict.witness == Witness(a=unit(F3, n, 0, 0), b=unit(F3, n, n - 1, 0), c=None,
                                      exponent=1)


def test_members_with_a_zero_power_form_no_table(monkeypatch):
    # a^n = 0 takes no multiplier outside: on a space of nilpotents no
    # member reaches ``escapes``, and elsewhere no zero a^n does
    escapes = verify._Dual.escapes
    seen = []

    def refuse_zero(self, zs, side):
        assert zs.any(axis=(1, 2)).all()
        seen.append(len(zs))
        return escapes(self, zs, side)

    monkeypatch.setattr(verify._Dual, "escapes", refuse_zero)
    n = 5
    strict = MatrixSubspace.from_matrices(F2, n, [unit(F2, n, 0, j) for j in range(1, n)])
    for vtype in (LEFT, RIGHT, PRE_TWO_SIDED):
        assert verify_mathieu(strict, vtype).holds
    assert seen == []
    for space in (trace_zero(F3, 2), column_kill(F3, 2, 1)):
        for vtype in (LEFT, RIGHT, PRE_TWO_SIDED):
            assert verify_mathieu(space, vtype) == keyed_verify.verify_mathieu(space, vtype)
    assert seen


def test_two_sided_witness_reads_the_joint_support_of_its_cycle():
    # a = diag(C, 1, 1) for the companion matrix C of x^10 + x^3 + 1, of
    # period 1023, in the span of its powers at n = 12: the two-sided
    # table of its whole cycle has 1023 x 12^4 = 21 million entries
    # (42.5 MB peak formed at once); one row of its joint support stays
    # under 8 MB (2.5 MB)
    n, d = 12, 10
    rows = [[int(i == j >= d) for j in range(n)] for i in range(n)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    rows[0][d - 1] = rows[3][d - 1] = 1
    a = DenseMatrix(F2, rows)
    powers = [DenseMatrix.identity(F2, n)]
    for _ in range(d):
        powers.append(powers[-1].mul(a))
    space = MatrixSubspace.from_matrices(F2, n, powers)
    dual = _Dual(space)
    tracemalloc.start()
    try:
        witness = verify._witness(space, dual, np.array(rows, dtype=np.int16), (TWO_SIDED,))
        assert tracemalloc.get_traced_memory()[1] < 8 * 2 ** 20
    finally:
        tracemalloc.stop()
    assert power_trajectory(a).period == 1023
    assert witness.exponent == 1 and witness_replays(space, witness)


def test_guard_message_names_the_guard(monkeypatch):
    with pytest.raises(TooLargeError) as exc:
        radical(MatrixSubspace.from_matrices(F5, 3, []))
    assert str(exc.value) == "5^9 matrices exceed the enumeration guard 2^20"
    monkeypatch.setattr("mathieumat.verify.ENUMERATION_GUARD", 2 ** 10)
    with pytest.raises(TooLargeError) as exc:
        radical(MatrixSubspace.from_matrices(F2, 4, []))
    assert str(exc.value) == "2^16 matrices exceed the enumeration guard 2^10"


def test_radical_enumerates_the_matrices_without_the_full_space(monkeypatch):
    # Mat_n(F_p) comes straight from the row-major digits, with no basis
    # of n^2 unit matrices built to multiply them by
    spaces = [MatrixSubspace.full_space(F3, 2), trace_zero(F3, 2)]

    def refuse(*args):
        raise AssertionError("radical built the full space")

    monkeypatch.setattr(MatrixSubspace, "full_space", refuse)
    for space in spaces:
        assert radical(space) == keyed_verify.radical(space)
    assert len(radical(spaces[0])) == 81 and len(radical(spaces[1])) == 9


def test_radical_memory_does_not_grow_with_the_matrices():
    # Mat_2(F_31) is 923,521 matrices, formed batch by batch; the key
    # universe with its bitmap and member keys took the peak to 15.7 MiB
    big = trace_zero(Field.prime(31), 2)
    tracemalloc.start()
    try:
        rad = radical(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert len(rad) == 961


def test_trace_zero_f5_n3_verdicts_hold(monkeypatch):
    # claim (A) at n = 3, checked by exhaustion with the trace answer
    # bypassed: 3! != 0 in F_5, so sl_3(F_5) is Mathieu.  Its
    # 5^8 members fit the guard, Mat_3(F_5) (5^9) does not; they are
    # formed batch by batch, where all of their coefficient digits at
    # once would be 6.25 MB of int16
    tz = _trace_zero(F5, 3)
    sizes = counted_batches(monkeypatch)
    monkeypatch.setattr(verify, "_answered_by_trace", lambda space: False)
    for vtype in (LEFT, RIGHT, TWO_SIDED):
        tracemalloc.start()
        try:
            verdict = verify_mathieu(tz, vtype)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.holds and verdict.witness is None
        assert peak < 2 * 2 ** 20
    assert sum(sizes) == 3 * 5 ** 8
    with pytest.raises(TooLargeError):
        radical(tz)
    for vtype in ALL_TYPES:
        with pytest.raises(TooLargeError):
            verify_mathieu(MatrixSubspace.full_space(QQ, 2), vtype)


@st.composite
def keyed_cases(draw):
    """A subspace of Mat_n(F_p) with p^(n^2) <= 2^20 (the reach of the
    keyed reference): the span of a few generators with entries outside
    a random support zeroed, the identity adjoined or not."""
    p, n = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]))
    field = Field.prime(p)
    support = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    flats = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n),
                          max_size=n * n - 1))
    gens = [[x * keep for x, keep in zip(flat, support)] for flat in flats]
    if draw(st.booleans()):
        gens.append(DenseMatrix.identity(field, n).flatten())
    return MatrixSubspace(field, n, VectorSubspace.from_vectors(field, n * n, gens))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(keyed_cases())
def test_dual_enumeration_matches_keyed_reference(space):
    for vtype in ALL_TYPES:
        assert verify_mathieu(space, vtype) == keyed_verify.verify_mathieu(space, vtype)
    assert full_power_set(space) == keyed_verify.full_power_set(space)
    assert idempotents(space) == keyed_verify.idempotents(space)
    if space.field.p ** (space.n ** 2) <= 3 ** 9:
        assert radical(space) == keyed_verify.radical(space)


@pytest.mark.parametrize("batch, first", [(2, 64), (4096, 1), (4096, 3)])
def test_dual_enumeration_does_not_depend_on_the_batch_size(monkeypatch, batch, first):
    # batches of two members: most of them have no member whose powers
    # stay inside, and the verdict is read off a later batch; verdict
    # scans starting at one or three members grow past their witness
    from mathieumat.linalg import all_subspaces
    monkeypatch.setattr(verify, "_BATCH", batch)
    monkeypatch.setattr(verify, "_FIRST_BATCH", first)
    sizes = counted_batches(monkeypatch)
    spaces = [MatrixSubspace(field, 2, basis) for field in (F2, F3) for dim in range(1, 4)
              for basis in all_subspaces(field, 4, dim)]
    for space in spaces[::5] + [trace_zero(F2, 3)]:
        for vtype in ALL_TYPES:
            assert verify_mathieu(space, vtype) == keyed_verify.verify_mathieu(space, vtype)
        assert full_power_set(space) == keyed_verify.full_power_set(space)
        assert idempotents(space) == keyed_verify.idempotents(space)
        assert radical(space) == keyed_verify.radical(space)
    assert max(sizes) <= batch


def test_no_codim1_subspace_of_mat3_f2_is_mathieu():
    # (n-1)! = 2 = 0 in F_2, outside the paper's hypothesis, yet no
    # subspace of codimension 1 < n is Mathieu of any type, sl_3(F_2) (the
    # one of them inside sl_3; 3! = 0 too) included: every verdict fails,
    # with the witness the keyed reference finds
    from mathieumat.linalg import all_subspaces
    spaces = [MatrixSubspace(F2, 3, basis) for basis in all_subspaces(F2, 9, 8)]
    assert len(spaces) == 2 ** 9 - 1 and trace_zero(F2, 3) in spaces
    for space in spaces:
        for vtype in ALL_TYPES:
            verdict = verify_mathieu(space, vtype)
            assert not verdict.holds
            assert verdict == keyed_verify.verify_mathieu(space, vtype)


def counted_batches(monkeypatch):
    """The sizes of the batches that ``verify`` forms from now on."""
    members, sizes = verify._members, []

    def counting(*args):
        for batch in members(*args):
            sizes.append(len(batch))
            yield batch

    monkeypatch.setattr(verify, "_members", counting)
    return sizes


def test_failing_verdict_stops_at_its_witness_batch(monkeypatch):
    # every witness of the 2^15 members of tz(2, 4) lies among the first 64
    sizes = counted_batches(monkeypatch)
    for vtype in ALL_TYPES:
        sizes.clear()
        assert not verify_mathieu(trace_zero(F2, 4), vtype).holds
        assert sizes == [64]


def test_holding_verdict_forms_every_member_in_growing_batches(monkeypatch):
    # claim (A) answers tz(7, 2) with no batch; prop(5, 3) lies outside
    # sl_3 and is enumerated, as tz(7, 2) is with the trace answer bypassed
    sizes = counted_batches(monkeypatch)
    tz, prop = trace_zero(F7, 2), proposition_family(F5, 3, 1)
    for space, expected in [(tz, []), (prop, [64, 256, 1024, 4096, 4096, 4096, 1993])]:
        for vtype in ALL_TYPES:
            sizes.clear()
            assert verify_mathieu(space, vtype).holds
            assert sizes == expected
    assert sum(expected) == prop.field.p ** prop.dim
    monkeypatch.setattr(verify, "_answered_by_trace", lambda space: False)
    for vtype in ALL_TYPES:
        sizes.clear()
        assert verify_mathieu(tz, vtype).holds
        assert sizes == [64, 256, 23] and sum(sizes) == 7 ** 3


def test_radical_forms_full_batches(monkeypatch):
    sizes = counted_batches(monkeypatch)
    rad = radical(MatrixSubspace.from_matrices(F2, 4, []))
    assert sizes == [4096] * 16 and len(rad) == 4096
    monkeypatch.setattr(verify, "_BATCH", 16)
    sizes.clear()
    assert radical(trace_zero(F3, 2)) == keyed_verify.radical(trace_zero(F3, 2))
    assert sizes == [16] * 5 + [1]


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_radical_array_is_the_reported_radical(p, n):
    # the CLI reports ``_radical``'s rows as they are; ``radical`` builds
    # its matrices from the same array, in the same order
    field, rng = Field.prime(p), random.Random(p * 10 + n)
    spaces = [MatrixSubspace.from_matrices(field, n, []), trace_zero(field, n)]
    for dim in (1, n, n * n - 2, n * n - 1):
        rows = [[rng.randrange(p) for _ in range(n * n)] for _ in range(dim)]
        spaces.append(MatrixSubspace(field, n, VectorSubspace.from_vectors(field, n * n, rows)))
    for space in spaces:
        rad = radical(space)
        assert verify._radical(space).tolist() == [matrix_payload(m) for m in rad]
        assert rad == keyed_verify.radical(space)


@pytest.mark.parametrize("field", [F2, F3, F5, F7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_dual_spans_the_constraint_space(field, n):
    rng = random.Random(field.p * 10 + n)
    spaces = [MatrixSubspace.from_matrices(field, n, []), MatrixSubspace.full_space(field, n)]
    for dim in range(1, n * n):
        rows = [[rng.randrange(field.p) for _ in range(n * n)] for _ in range(dim)]
        spaces.append(MatrixSubspace(field, n, VectorSubspace.from_vectors(field, n * n, rows)))
    for space in spaces:
        cons = _Dual(space).cons
        assert len(cons) == n * n - space.dim
        assert MatrixSubspace.from_matrices(field, n, [
            DenseMatrix(field, c.tolist()) for c in cons]) == constraint_space(space)


def test_verdicts_and_radicals_eliminate_nothing_once_the_space_is_built(monkeypatch):
    from mathieumat import linalg, matspace
    spaces = [trace_zero(F2, 3), trace_zero(F5, 2), column_kill(F3, 2, 1),
              MatrixSubspace.from_matrices(F3, 2, [])]
    original, calls = linalg._eliminate, []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (linalg, matspace):
        monkeypatch.setattr(module, "_eliminate", counting)
    for space in spaces:
        for vtype in ALL_TYPES:
            verify_mathieu(space, vtype)
        radical(space)
    assert calls == []


def _two_sided_oracle(space):
    """Independent reading of the two-sided verdict, built from
    elements(space), power_trajectory and space.contains only.  Mat_n is
    simple, so the two-sided ideal of a nonzero cycle element is all of
    Mat_n: a proper space is two-sided Mathieu iff every member whose
    powers all stay inside is nilpotent."""
    if space.dim == space.n ** 2:
        return True
    for a in elements(space):
        traj = power_trajectory(a)
        if all(space.contains(x) for x in traj.tail + traj.cycle) and \
                not all(z.is_zero() for z in traj.cycle):
            return False
    return True


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(2, 3), (11, 2), (13, 2)]).flatmap(lambda pn: st.tuples(
    st.just(pn),
    st.lists(st.lists(st.integers(0, pn[0] - 1), min_size=pn[1] ** 2,
                      max_size=pn[1] ** 2), max_size=pn[1] ** 2 - 1),
    st.booleans())))
@example(((11, 2), [[1, 0, 0, 10], [0, 1, 0, 0], [0, 0, 1, 0]], False))
@example(((13, 2), [[1, 0, 0, 12], [0, 1, 0, 0], [0, 0, 1, 0]], False))
def test_two_sided_verdict_matches_nilpotency_oracle(drawn):
    # Mat_2(F_11) and Mat_2(F_13) lie beyond the reach of the pair search
    # of the definitional verdict; the examples are sl_2, which holds
    (p, n), flats, with_identity = drawn
    field = Field.prime(p)
    if with_identity:
        flats = flats + [DenseMatrix.identity(field, n).flatten()]
    space = MatrixSubspace(field, n, VectorSubspace.from_vectors(field, n * n, flats))
    verdict = verify_mathieu(space, TWO_SIDED)
    assert verdict.holds == _two_sided_oracle(space)
    assert verdict.holds or witness_replays(space, verdict.witness)
