"""Each public input check raises its own typed error with its own message.

The message is matched, not only the type: with a check deleted, the bad
input would often still raise, but elsewhere and with another message
(a non-square ``power`` would reach ``mul``'s shape check).
"""

import pytest

from mathieumat.errors import TooLargeError
from mathieumat.idempotents import idempotent_family
from mathieumat.linalg import DenseMatrix, Field, VectorSubspace
from mathieumat.matspace import Filtration, MatrixSubspace, find_generic_vector, rct_zero_members
from mathieumat.multipoly import MultiPoly
from mathieumat.verify import power_trajectory, verify_mathieu

F2, F3, QQ = Field.prime(2), Field.prime(3), Field.rationals()
FULL_2 = MatrixSubspace.full_space(F3, 2)
FULL_3 = MatrixSubspace.full_space(F3, 3)

CASES = {
    "idempotents.form": (
        lambda: idempotent_family(FULL_3, 1, "middle"), ValueError, "form must be"),
    "idempotents.r": (
        lambda: idempotent_family(FULL_2, 2), ValueError, r"r = 2 out of range 1\.\.1"),
    "linalg.inv_zero": (
        lambda: F3.inv(0), ZeroDivisionError, "inverse of zero"),
    "linalg.elements_of_q": (
        lambda: QQ.elements(), ValueError, "not enumerable"),
    "linalg.power_non_square": (
        lambda: DenseMatrix(F3, [[1, 0]]).power(2), ValueError, "power of a non-square matrix"),
    "linalg.from_vectors_length": (
        lambda: VectorSubspace.from_vectors(F3, 3, [[1, 0]]), ValueError,
        "vector length != ambient dimension"),
    "linalg.intersect_ambient": (
        lambda: VectorSubspace.full(F3, 2).intersect(VectorSubspace.full(F3, 3)), ValueError,
        "different ambient spaces"),
    "matspace.basis_ambient": (
        lambda: MatrixSubspace(F3, 2, VectorSubspace.full(F3, 3)), ValueError,
        "does not live in Mat_2"),
    "matspace.from_matrices_shape": (
        lambda: MatrixSubspace.from_matrices(F3, 2, [DenseMatrix.identity(F3, 3)]), ValueError,
        "generator is not an n x n matrix"),
    "matspace.rct_r": (
        lambda: rct_zero_members(FULL_2, 0), ValueError, r"r = 0 out of range 1\.\.1"),
    "matspace.generic_vector_level": (
        lambda: find_generic_vector(Filtration(FULL_2), 3), ValueError,
        r"level 3 out of range 0\.\.2"),
    "multipoly.exponents": (
        lambda: MultiPoly(F3, 2, {(1,): 1}), ValueError, "bad exponent vector"),
    "multipoly.rings": (
        lambda: MultiPoly(F2, 1, {(1,): 1}) + MultiPoly(F3, 1, {(1,): 1}), ValueError,
        "different rings"),
    "verify.power_exponent": (
        lambda: power_trajectory(DenseMatrix.identity(F3, 2)).power(0), ValueError,
        "exponent must be >= 1"),
    "verify.trajectory_non_square": (
        lambda: power_trajectory(DenseMatrix(F3, [[1, 0]])), ValueError,
        "trajectory of a non-square matrix"),
    "verify.trajectory_over_q": (
        lambda: power_trajectory(DenseMatrix.identity(QQ, 2)), TooLargeError,
        "need a finite field"),
    "verify.type": (
        lambda: verify_mathieu(FULL_2, "middle"), ValueError, "unknown type 'middle'"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_public_input_check_raises_its_own_error(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=message):
        call()
