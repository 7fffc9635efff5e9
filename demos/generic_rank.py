#!/usr/bin/env python3
"""Generic ranks over a function field versus ranks at field points.

Applying every member of a subspace of Mat_n(K) to one generic vector of
indeterminates gives a polynomial matrix; its rank over K(x_1..x_n) is
the most any specialization can achieve.  Small fields may fail to reach
it: the two-generator space below (plus the scalar line) has generic
dimension 3, attained over F_3 but provably unattainable over F_2.
"""

import itertools

from mathieumat import (
    DenseMatrix,
    Field,
    MatrixSubspace,
    MultiPoly,
    find_nonvanishing,
    generic_rank_of_action,
)
from mathieumat.matspace import column_space


def pair_plus_scalars(field):
    return MatrixSubspace.from_matrices(field, 3, [
        DenseMatrix(field, [[0, 1, 0], [0, 1, 0], [0, 0, 0]]),
        DenseMatrix(field, [[0, 0, 0], [0, 1, 1], [0, 0, 0]]),
    ]).adjoin_identity()


def main():
    print("=== generic dimension of the action ===")
    for p in (2, 3):
        field = Field.prime(p)
        space = pair_plus_scalars(field)
        d = generic_rank_of_action(space)
        best = max(column_space(space, v).dim
                   for v in itertools.product(range(p), repeat=3))
        print("over F_%d: generic dimension %d, best over all %d field "
              "points %d%s" % (p, d, p ** 3, best,
                               "  <-- the gap" if best < d else ""))
    print()

    print("=== why F_2 falls short: the top minor never fires ===")
    f2 = Field.prime(2)
    x1 = MultiPoly.variable(f2, 3, 1)
    x2 = MultiPoly.variable(f2, 3, 2)
    x3 = MultiPoly.variable(f2, 3, 3)
    minor = x3 * x2 * (x2 + x3)     # determinant of the stacked columns
    print("det =", minor)
    print("witness over {0,1}:", find_nonvanishing(minor, [0, 1]))
    print("witness over {0,1,2} (F_3):",
          find_nonvanishing(MultiPoly(Field.prime(3), 3, dict(minor.terms)),
                            [0, 1, 2]))
    print()

    print("=== degree bounds that guarantee witnesses ===")
    f5 = Field.prime(5)
    g = MultiPoly(f5, 2, {(2, 1): 1, (1, 2): 4})   # x1 x2 (x1 - x2), degree 3
    print("homogeneous g of degree 3 vanishes on the too-small grid {0,1}:",
          find_nonvanishing(g, [0, 1]))
    print("the guaranteed grid {0,1,2} has a witness:",
          find_nonvanishing(g, [0, 1, 2]))


if __name__ == "__main__":
    main()
