"""Exact 6j symbols, their full symmetry group, and projective spin
networks built from five quadrangles up to the 4-simplex.

Importing the package loads no submodule.  Each exported name, and each
submodule named below, is imported on first access (PEP 562), so a
caller that only evaluates 6j symbols never builds the projective
configurations or the symmetry tables.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it, or "submodule.attribute"
# where the exported name differs; a name equal to its submodule's is the
# submodule itself
_EXPORTS = {
    "BEInstance": "identities",
    "CanonicalQuadruple": "symmetry",
    "ConfigurationSignature": "projective",
    "DesarguesSpinLabeling": "labeling",
    "ExactCheckResult": "identities",
    "IncidenceStructure": "projective",
    "RegularizationReport": "symmetry",
    "SimplexSpinLabeling": "labeling",
    "SimplicialComplex4": "projective",
    "SixJ": "wigner",
    "SixJSymmetryElement": "symmetry",
    "Spin": "exactnum",
    "SqrtRational": "exactnum",
    "be_check": "identities",
    "build_desargues": "projective",
    "build_quadrangle": "projective",
    "canonicalize_quadruple": "symmetry",
    "classical_group": "symmetry",
    "cross_section": "projective",
    "errors": "errors",
    "isomorphic": "projective",
    "iter_regularized_enumeration": "labeling",
    "kernel_backend": "kernel.backend",
    "label_desargues": "labeling",
    "network_amplitude": "labeling",
    "orthogonality_check": "identities",
    "pachner_14_check": "identities",
    "pachner_23_check": "identities",
    "phase_from_twice": "exactnum",
    "plane_dual": "projective",
    "regge_transform": "symmetry",
    "regularization_bounds": "symmetry",
    "running_range": "symmetry",
    "sixj_value": "wigner",
    "space_dual_desargues": "projective",
    "symmetry_group": "symmetry",
    "symmetry_orbit": "symmetry",
    "transfer_labeling": "labeling",
    "validate_configuration": "projective",
}

__all__ = sorted(_EXPORTS)

_SUBMODULES = frozenset(path.partition(".")[0] for path in _EXPORTS.values())


def __getattr__(name):
    if name in _SUBMODULES:
        # importing binds the submodule in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    try:
        path = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    module, _, attr = path.partition(".")
    value = getattr(importlib.import_module(f"{__name__}.{module}"),
                    attr or name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
