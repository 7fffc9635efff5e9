#!/usr/bin/env python3
"""Exhaustive Mathieu verification over small prime fields.

Powers of a matrix over F_p are eventually periodic, so "b a^m stays
inside for all large m" is decidable by checking the cycle.  This drives
brute-force verdicts for all four one- and two-sided properties, the
radical, and the left-ideal characterization.
"""

from mathieumat import (
    ALL_TYPES,
    DenseMatrix,
    Field,
    MatrixSubspace,
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
from mathieumat.verify import idempotents


def trace_zero(field):
    u = lambda i, j: DenseMatrix.unit(field, 2, 2, i, j)
    return MatrixSubspace.from_matrices(field, 2, [
        u(0, 1), u(1, 0), u(0, 0) - u(1, 1)])


def main():
    print("=== power trajectories ===")
    a = DenseMatrix(Field.prime(3), [[1, 0], [0, 2]])
    traj = power_trajectory(a)
    print("a = diag(1,2) over F_3: tail %d, cycle length %d"
          % (traj.tail_len, traj.period))
    print()

    print("=== the trace-zero space across characteristics ===")
    for p in (2, 3, 5):
        h = trace_zero(Field.prime(p))
        verdicts = {t: verify_mathieu(h, t) for t in ALL_TYPES}
        summary = ", ".join("%s=%s" % (t, v.holds) for t, v in verdicts.items())
        print("F_%d: %s" % (p, summary))
        if p == 2:
            w = verdicts["left"].witness
            print("  witness: a =", w.a.entries, " b =", w.b.entries,
                  " exponent", w.exponent,
                  " replays:", witness_replays(h, w))
    print()

    print("=== radicals and the implication chain ===")
    h3 = trace_zero(Field.prime(3))
    rad = radical(h3)
    print("radical of the trace-zero space over F_3: %d elements, "
          "all nilpotent: %s"
          % (len(rad), all(m.mul(m).is_zero() for m in rad)))
    print("chain report:", trace_chain_report(h3))
    print()

    print("=== the codimension-n family ===")
    fam = proposition_family(Field.prime(5), 2, 1)
    print("two-sided verdict over F_5:",
          verify_mathieu(fam, "two_sided").holds)
    idems = idempotents(fam)
    print("idempotents inside:", [m.entries for m in idems])
    print()

    print("=== maximal left ideals ===")
    f3 = Field.prime(3)
    colkill = MatrixSubspace.from_matrices(f3, 2, [
        DenseMatrix.unit(f3, 2, 2, 0, 0), DenseMatrix.unit(f3, 2, 2, 1, 0)])
    ideal = max_left_ideal(colkill)
    nf = left_ideal_normal_form(ideal)
    print("column-kill space: ideal dim %d = n*k with k = %d" % (ideal.dim, nf.k))
    rep = left_ideal_equivalences(colkill)
    print("one-sided predicates agree:", rep.consistent,
          "(left Mathieu: %s)" % rep.left_mathieu)


if __name__ == "__main__":
    main()
