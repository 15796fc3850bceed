"""cklie: exact Cayley-Klein algebra families and their central extensions.

Constructs the orthogonal (so), special unitary (su), unitary (u) and
quaternionic unitary (sq) families of real Lie algebras for arbitrary
dimension and rational contraction coefficients, computes their second
cohomology exactly, and cross-validates the result against a closed-form
classification of the extension coefficients.
"""

# The one list of public names, by home module (no submodule has an __all__),
# each loaded on first access, so that a command loads only the modules it
# uses: structure and generators neither import nor compile cohomology and classify.
_LAZY = {
    "ck_matrix": ("B", "E", "FAMILIES", "FAMILY_KIND", "GeneratorLabel", "I_LABEL", "J", "Kind",
                  "M", "MatrixOverK", "Mq", "NotInSpanError", "OmegaVector", "build_generator",
                  "build_metric", "is_metric_antihermitian", "is_traceless", "labels_for_family",
                  "mat_commutator", "parse_rational", "reversal"),
    "lie_core": ("LieAlgebra", "build_algebra", "from_matrices", "verify_jacobi"),
    "cohomology": ("CocycleSystem", "CohomologyResult", "CohomologySolver"),
    "classify": ("CatalogEntry", "CoefficientVerdict", "CrosscheckReport", "certify_rescaling",
                 "certify_reversal", "crosscheck", "predict", "removals"),
}
__all__ = [name for names in _LAZY.values() for name in names]


def __getattr__(name: str):
    from importlib import import_module

    for home, names in _LAZY.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
