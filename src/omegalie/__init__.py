"""Exact toolkit for multiplicative omega-Lie algebras.

Verification of the defining axioms, construction of the derived objects
(dual representations, semidirect products, doubles, cobrackets, operator
lifts), residuals of the twisted Yang-Baxter equation, and a numerical
search for skew solutions with exact re-verification.

The names below are imported from their modules on first use (PEP 562), so
``import omegalie`` loads no submodule.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "algebras": (
        "GeneralizedOmegaLieAlgebra", "LeftSymmetricAlgebra", "OmegaLieAlgebra", "abelian",
        "admissible_subspace", "center", "check_generalized", "check_lsa", "check_omega_lie",
        "infer_r", "left_symmetric", "omega_lie", "subadjacent",
    ),
    "errors": (
        "AxiomViolation", "BundleFormatError", "DimensionMismatch", "EmptyDecomposition",
        "EmptyParameterSpace",
    ),
    "linalg": (
        "Matrix", "Rat", "Subspace", "ThreeTensor", "Vector", "nullspace", "rat", "rat_str",
        "solve_linear",
    ),
    "reports": ("Clause", "Report", "Violation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
