#!/usr/bin/env python3
"""The conjugation normal form, move by move.

The binary profile B of a filtered subspace records which coordinates
the column spaces of the filtration levels can reach.  Conjugation moves
drive B into shape: rows increasing, columns decreasing above the
diagonal, and every column count equal to the generic dimension of its
level.  Once in shape, the only member of the identity-adjoined space
with a zero top-right block is the scalar line -- unless the field is
too small for the generic dimension, which is exactly what happens to
the running example over F_2.
"""

from mathieumat import (
    Field,
    FieldTooSmallError,
    binary_profile,
    conjugate,
    constraint_space,
    normalize,
    rct_certificate,
    rct_zero_is_scalar,
)
from mathieumat.cli import running_pair_space


def print_profile(tag, prof):
    print("%s:" % tag)
    for row in prof.B:
        print("    " + " ".join(str(x) for x in row))
    print("    b =", prof.b, " col dims =", prof.col_dims, " d =", prof.d)


def main():
    print("=== the identity-adjoined running example over F_3 ===")
    cn = running_pair_space(Field.prime(3)).adjoin_identity()
    print_profile("profile before", binary_profile(cn))
    result = normalize(cn)
    print("branch:", result.branch)
    for move in result.log:
        print("move: %-16s at level %d" % (move.kind, move.level))
        for row in move.t.entries:
            print("    " + " ".join(str(x) for x in row))
    print_profile("profile after", result.profile)
    print("final space = conjugate of input by accumulated t:",
          result.c_n_final == conjugate(cn, result.t_total))
    print()

    print("=== the same space over F_2 is below the field bound ===")
    try:
        normalize(running_pair_space(Field.prime(2)).adjoin_identity())
    except FieldTooSmallError as exc:
        print("FieldTooSmall:", exc)
    print()

    print("=== the zero-corner certificate over F_3 ===")
    m = constraint_space(running_pair_space(Field.prime(3)))
    cert = rct_certificate(m)
    print("certificate block size r =", cert.r)
    moved = conjugate(constraint_space(m), cert.t)
    print("after conjugation, zero-corner members are scalar:",
          rct_zero_is_scalar(moved, cert.r))


if __name__ == "__main__":
    main()
