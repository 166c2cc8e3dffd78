"""Explicit finite-uniton-number harmonic maps into U(n).

Builds the projection chains of the covering-uniton construction from arrays
of rational vectors, verifies the structural identities numerically, and
factorizes algebraic loops through the finite Grassmannian model.
"""

from .builder import (
    HarmonicMapSampler,
    alpha1_is_full,
    build_fiber,
    draw_sample_points,
    evaluate_map,
    extended_coefficients,
    s1_invariant_data,
)
from .errors import (
    BadShape,
    DegeneratePoint,
    DegreeNoDrop,
    NoTermination,
    NotLambdaInvariant,
    UnitonsError,
)
from .grassmannian import (
    LoopPoly,
    QInvolution,
    WSubspace,
    binomial_transform,
    iwasawa_factorize,
    kernel_factorize_fiber,
    normalize_type_one,
    q_adapted_check,
    w_from_loop,
    w_from_x,
    x_columns_from_data,
)
from .kernels import BACKEND
from .meromorphic import (
    DataArray,
    MeroVector,
    RationalFn,
    differentiate,
    eval_rational,
    random_data,
)
from .projections import (
    Span,
    image_span,
    orthonormal_basis,
    principal_angles,
    projection_pair,
)
from .verifier import (
    connection_form,
    extended_checks,
    harmonicity_residual,
    section_identities,
    verification_report,
    wirtinger,
)

__version__ = "0.1.0"
