"""Explicit finite-uniton-number harmonic maps into U(n).

Builds the projection chains of the covering-uniton construction from arrays
of rational vectors, verifies the structural identities numerically, and
factorizes algebraic loops through the finite Grassmannian model.

Importing the package loads no submodule: each public name below is imported
from its module on first access (PEP 562), so a command that never touches
the Grassmannian model never compiles it.
"""

import importlib

_EXPORTS = {name: module for module, names in {
    "builder": "HarmonicMapSampler alpha1_is_full build_fiber draw_sample_points evaluate_map "
               "extended_coefficients s1_invariant_data",
    "errors": "BadShape DegeneratePoint DegreeNoDrop NoTermination NotLambdaInvariant UnitonsError",
    "grassmannian": "LoopPoly QInvolution WSubspace binomial_transform iwasawa_factorize kernel_factorize_fiber "
                    "normalize_type_one q_adapted_check w_from_loop w_from_x x_columns_from_data",
    "kernels": "BACKEND",
    "meromorphic": "DataArray MeroVector RationalFn differentiate eval_rational random_data",
    "projections": "Span image_span orthonormal_basis principal_angles projection_pair",
    "verifier": "connection_form extended_checks harmonicity_residual section_identities "
                "verification_report",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
