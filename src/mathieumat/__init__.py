"""Exact machinery for Mathieu subspaces of matrix algebras.

The package is organized in layers:

* :mod:`mathieumat.linalg` -- exact fields (F_p, Q) and dense linear
  algebra: products, inverses, canonical subspaces;
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

The package itself binds the names that the demos and the README quick
start use, and the exception classes of :mod:`mathieumat.errors`; every
other name is imported from its module.
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
from .linalg import DenseMatrix, Field, invert
from .matspace import (
    MatrixSubspace,
    binary_profile,
    conjugate,
    constraint_space,
)
from .multipoly import MultiPoly, find_nonvanishing, generic_rank_of_action
from .normalize import normalize, rct_certificate, rct_zero_is_scalar
from .idempotents import corner_slice, full_space_certificate, idempotent_family
from .verify import (
    ALL_TYPES,
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
