"""Exact machinery for Mathieu subspaces of matrix algebras.

The package is organized in layers:

* :mod:`mathieumat.linalg` -- exact fields (F_p, Q) and dense linear
  algebra: RREF, kernels, affine solving, canonical subspaces;
* :mod:`mathieumat.multipoly` -- sparse multivariate polynomials and
  fraction-free generic ranks over function fields;
* :mod:`mathieumat.matspace` -- subspaces of Mat_n(K): trace-dual
  constraint spaces, conjugation, the column filtration and its binary
  profile;
* :mod:`mathieumat.normalize` -- the conjugation normal form driving a
  profile into shape, and the zero-corner scalar certificate;
* :mod:`mathieumat.idempotents` -- affine families of idempotents cut
  out by trace constraints;
* :mod:`mathieumat.verify` -- exhaustive Mathieu-subspace verification,
  radicals and maximal left ideals over small prime fields;
* :mod:`mathieumat.spacefile` / :mod:`mathieumat.cli` -- the plain-text
  input format and the command-line front end.
"""

from .errors import (
    FieldTooSmallError,
    HypothesisFailed,
    MathieuMatError,
    NotLeftIdealError,
    PreconditionViolated,
    SingularMatrixError,
    SpaceFileError,
    TooLargeError,
)
from .linalg import (
    DenseMatrix,
    Field,
    VectorSubspace,
    all_matrices,
    all_subspaces,
    invert,
    kernel,
    rref,
    solve_affine,
)
from .matspace import (
    BinaryProfile,
    Filtration,
    MatrixSubspace,
    binary_profile,
    column_space,
    column_space_dim,
    conjugate,
    constraint_space,
    filtration_level,
    find_generic_vector,
    rct_zero_members,
    trace_pairing,
)
from .multipoly import (
    MultiPoly,
    divexact,
    find_nonvanishing,
    generic_rank_of_action,
)
from .normalize import (
    Move,
    NormalizationResult,
    RctCertificate,
    move_generic_vector,
    move_permutation,
    move_unit_triangular,
    normalize,
    rct_certificate,
    rct_zero_is_scalar,
)
from .idempotents import (
    AffineFamily,
    FullSpaceCertificate,
    corner_slice,
    full_space_certificate,
    idempotent_family,
)
from .verify import (
    ALL_TYPES,
    LEFT,
    PRE_TWO_SIDED,
    RIGHT,
    TWO_SIDED,
    MathieuVerdict,
    PowerTrajectory,
    Witness,
    full_power_set,
    is_left_ideal,
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

__version__ = "0.1.0"
