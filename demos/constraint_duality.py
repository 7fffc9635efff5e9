#!/usr/bin/env python3
"""Trace-form duality between a matrix subspace and its constraints.

Every subspace M of Mat_n(K) determines the space of all C with
tr(C M) = 0 for every member M; its dimension is n^2 - dim M, applying
it twice returns M, and conjugating M conjugates the dual the same way.
"""

from mathieumat import (
    DenseMatrix,
    Field,
    MatrixSubspace,
    conjugate,
    constraint_space,
    invert,
)

F5 = Field.prime(5)


def show(title, space):
    print("%s: dim %d" % (title, space.dim))
    for m in space.basis_matrices:
        for row in m.entries:
            print("   ", " ".join(str(x) for x in row))
        print()


def main():
    print("=== the trace-zero space and its dual ===")
    u = lambda i, j: DenseMatrix.unit(F5, 2, 2, i, j)
    h = MatrixSubspace.from_matrices(F5, 2, [
        u(0, 1), u(1, 0), u(0, 0) - u(1, 1)])
    show("H = {trace zero} in Mat_2(F_5)", h)
    dual = constraint_space(h)
    show("constraints of H", dual)
    print("dual of H is the scalar line:", dual.contains_identity(), "\n")

    print("=== double duality and the dimension identity ===")
    again = constraint_space(dual)
    print("constraints of constraints == H:", again == h)
    print("dim H + dim dual = %d + %d = %d = n^2\n" % (h.dim, dual.dim, 4))

    print("=== duality commutes with conjugation ===")
    t = DenseMatrix(F5, [[1, 2], [0, 1]])
    lhs = constraint_space(conjugate(h, t))
    rhs = conjugate(constraint_space(h), t)
    print("constraints(t^-1 H t) == t^-1 constraints(H) t:", lhs == rhs)
    c, m = dual.basis_matrices[0], h.basis_matrices[0]
    ti = invert(t)
    print("trace pairing is conjugation-invariant:",
          c.mul(m).trace() ==
          ti.mul(c).mul(t).mul(ti.mul(m).mul(t)).trace())


if __name__ == "__main__":
    main()
