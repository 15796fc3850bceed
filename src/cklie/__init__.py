"""cklie: exact Cayley-Klein algebra families and their central extensions.

Constructs the orthogonal (so), special unitary (su), unitary (u) and
quaternionic unitary (sq) families of real Lie algebras for arbitrary
dimension and rational contraction coefficients, computes their second
cohomology exactly, and cross-validates the result against a closed-form
classification of the extension coefficients.
"""

from .scalars import Hypercomplex, Kind, parse_rational
from .ck_matrix import (
    B,
    E,
    FAMILIES,
    GeneratorLabel,
    I_LABEL,
    J,
    M,
    MatrixOverK,
    Mq,
    OmegaVector,
    XI_LABEL,
    build_generator,
    build_metric,
    is_metric_antihermitian,
    is_traceless,
    labels_for_family,
    mat_commutator,
)
from .lie_core import (
    LieAlgebra,
    build_algebra,
    build_extended,
    build_so,
    build_sq,
    build_su,
    build_u,
    epsilon,
    from_matrices,
    verify_jacobi,
)
from .cohomology import (
    CohomologyResult,
    CohomologySolver,
    OneCochain,
    TwoCochain,
    coboundary,
    h2,
)
from .classify import (
    CatalogEntry,
    CrosscheckReport,
    ExtensionCatalog,
    coefficient_cocycle,
    crosscheck,
    predict,
    predict_so,
    predict_sq,
    predict_su,
    predict_u,
    removals,
)

__version__ = "0.1.0"
