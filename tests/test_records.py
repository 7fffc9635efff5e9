"""The result records: immutable value tuples with named fields.

Each record is built by the function that returns it, twice, and checked
for its field order, its immutability, equality and hashing by value and
its ``Name(field=value, ...)`` repr, which the demo goldens print.  The
value classes, which are not tuples, refuse assignment and ``del`` of
their slots.
"""

import pytest

from mathieumat import cli
from mathieumat.idempotents import (
    UPPER,
    AffineFamily,
    FullSpaceCertificate,
    full_space_certificate,
    idempotent_family,
)
from mathieumat.linalg import DenseMatrix, Field, VectorSubspace
from mathieumat.matspace import (
    BinaryProfile,
    Filtration,
    MatrixSubspace,
    binary_profile,
    constraint_space,
)
from mathieumat.multipoly import MultiPoly
from mathieumat.normalize import (
    Move,
    NormalizationResult,
    RctCertificate,
    normalize,
    rct_certificate,
)
from mathieumat.verify import (
    LEFT,
    LeftIdealEquivalences,
    LeftIdealForm,
    MathieuVerdict,
    PowerTrajectory,
    TraceChainReport,
    Witness,
    left_ideal_equivalences,
    left_ideal_normal_form,
    power_trajectory,
    trace_chain_report,
    verify_mathieu,
)

from helpers import column_kill

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)


def moves_space():
    # normalizes with three logged moves over F_5
    return MatrixSubspace.from_matrices(
        F5, 3, [DenseMatrix(F5, [[0, 0, 0], [1, 1, 0], [0, 1, 0]])])


# record -> (its fields in order, a function that returns one)
RECORDS = {
    PowerTrajectory: (("a", "tail", "cycle"),
                      lambda: power_trajectory(DenseMatrix(F3, [[1, 1], [0, 1]]))),
    Witness: (("a", "b", "c", "exponent"),
              lambda: verify_mathieu(cli._trace_zero(F2, 2), LEFT).witness),
    MathieuVerdict: (("holds", "vtype", "witness"),
                     lambda: verify_mathieu(cli._trace_zero(F2, 2), LEFT)),
    TraceChainReport: (("char_avoids_1_to_n", "char_avoids_1_to_n_minus_1_and_identity_free",
                        "radical_nilpotent", "two_sided_mathieu", "nilpotency_bound_ok"),
                       lambda: trace_chain_report(cli._trace_zero(F2, 2))),
    LeftIdealForm: (("t", "k", "idempotent"),
                    lambda: left_ideal_normal_form(column_kill(F3, 2, 1))),
    LeftIdealEquivalences: (("left_mathieu", "idempotents_in_ideal", "radicals_match",
                             "ideal", "idempotent_count"),
                            lambda: left_ideal_equivalences(cli._trace_zero(F2, 2))),
    Move: (("kind", "level", "t"), lambda: normalize(moves_space()).log[0]),
    NormalizationResult: (("c_n_input", "t_total", "c_n_final", "profile", "branch", "log"),
                          lambda: normalize(moves_space())),
    RctCertificate: (("t", "r"),
                     lambda: rct_certificate(constraint_space(cli.running_pair_space(F3)))),
    AffineFamily: (("n", "r", "form", "particular", "directions"),
                   lambda: idempotent_family(MatrixSubspace.full_space(F2, 2), 1, UPPER)),
    FullSpaceCertificate: (("e", "e_prime", "r"),
                           lambda: full_space_certificate(MatrixSubspace.full_space(F3, 2), 1)),
    BinaryProfile: (("n", "B", "b", "col_dims", "d"), lambda: binary_profile(moves_space())),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_an_immutable_value(cls):
    fields, build = RECORDS[cls]
    record, again = build(), build()
    assert type(record) is cls and cls._fields == fields
    assert not hasattr(record, "__dict__")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == again and hash(record) == hash(again)
    assert repr(record) == "%s(%s)" % (
        cls.__name__, ", ".join("%s=%r" % (name, getattr(record, name)) for name in fields))


def test_record_properties_and_methods():
    a = DenseMatrix(F3, [[1, 1], [0, 1]])
    traj = power_trajectory(a)
    assert (traj.tail_len, traj.period) == (0, 3)
    assert [traj.power(m) for m in (1, 2, 4, 7)] == [a, a.power(2), a, a]
    fam = idempotent_family(MatrixSubspace.full_space(F2, 2), 1, UPPER)
    assert (fam.dim, fam.rank) == (1, 1)
    members = list(fam.members())
    assert len(members) == 2 and all(e.mul(e) == e for e in members)
    report = left_ideal_equivalences(cli._trace_zero(F2, 2))
    assert report.consistent
    assert not report._replace(radicals_match=not report.radicals_match).consistent
    assert trace_chain_report(cli._trace_zero(F2, 2)).chain_holds


# value class -> (one of its values, a slot of it)
VALUES = {
    Field: (lambda: Field.prime(5), "p"),
    DenseMatrix: (lambda: DenseMatrix(F3, [[1, 1], [0, 1]]), "entries"),
    VectorSubspace: (lambda: VectorSubspace.full(F3, 2), "basis"),
    MatrixSubspace: (moves_space, "basis"),
    Filtration: (lambda: Filtration(moves_space()), "d"),
    MultiPoly: (lambda: MultiPoly.variable(F5, 2, 1), "terms"),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_refuses_assignment_and_deletion(cls):
    build, slot = VALUES[cls]
    value = build()
    before = getattr(value, slot)
    with pytest.raises(AttributeError, match="^%s is immutable$" % cls.__name__):
        setattr(value, slot, None)
    with pytest.raises(AttributeError):
        delattr(value, slot)
    assert type(value) is cls and getattr(value, slot) is before
