"""Exact moduli computations for conifold potentials and 2x2x2x2 tensors.

The package follows one pipeline: quartic potentials on the conifold
quiver are encoded as symmetric rational matrices, their power-trace
invariants land in a weighted projective space, and rereading the matrix
as a four-index tensor realizes a degree-4 covering onto the tensor
moduli.  Around that sit the Jacobi-algebra graded dimensions, an orbit
calculus for quadruples of points on a genus-one pencil, and prime-field
point counts of framed representation spaces.

``import ncmoduli`` loads no submodule.  Each public name lives in one
submodule (``_EXPORTS``), which is imported the first time the name or
the submodule is read; the value is then kept in this module, so later
reads are plain attribute lookups.  The public names are the same as
when the package imported everything up front.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DomainError", "SchemaError"),
    "exact": (
        "ExactMatrix", "GaussianRational", "PrimeFieldElement", "binary_form_gcd",
        "scalar_from_json", "scalar_to_json",
    ),
    "quiver": (
        "CyclicPotential", "Quiver", "conifold_potential", "conifold_quiver",
        "double_cover_quiver", "framed_conifold_quiver", "graded_dimension",
        "jacobi_generators", "potential_double_cover",
    ),
    "quintuple": (
        "J_MATRIX", "Quintuple", "QuintupleInvariants", "WeightedPoint",
        "classify_stability", "invariants", "is_geometric",
        "linear_reference_quintuple", "slot_transform", "weighted_point",
        "weighted_point_equal",
    ),
    "potential": (
        "FiberReport", "PotentialInvariants", "SymmetricPotentialMatrix",
        "classify_stability_potential", "fiber_experiment", "invariants_potential",
        "potential_to_quintuple", "potential_to_sym_matrix", "prove_covering_identities",
        "reconstruct_spectrum", "sym_matrix_to_potential", "verify_covering_identities",
        "weighted_point_potential",
    ),
    "elliptic": (
        "EllipticConfiguration", "EllPoint", "LambdaPair", "apply_group_element",
        "is_admissible", "make_configuration", "orbit_equivalent", "translate",
        "verify_equation_preservation",
    ),
    "dtcount": (
        "CountReport", "FramedRep", "StabilityParameter", "count_points",
        "counting_report", "default_stability", "is_theta_stable",
        "satisfies_relations",
    ),
    "acceptance": ("CriterionResult", "run_acceptance"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it here as well
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_HOME))
