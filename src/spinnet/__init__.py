"""Exact 6j symbols, their full symmetry group, and projective spin
networks built from five quadrangles up to the 4-simplex."""

from . import errors
from .exactnum import (
    Spin,
    SqrtRational,
    factorial,
    phase_from_twice,
)
from .identities import (
    BEInstance,
    ExactCheckResult,
    be_check,
    orthogonality_check,
    pachner_14_check,
    pachner_23_check,
)
from .kernel import backend as kernel_backend
from .labeling import (
    DesarguesSpinLabeling,
    SimplexSpinLabeling,
    label_desargues,
    network_amplitude,
    regularized_enumeration,
    transfer_labeling,
)
from .projective import (
    ConfigurationSignature,
    IncidenceStructure,
    SimplicialComplex4,
    build_desargues,
    build_quadrangle,
    cross_section,
    isomorphic,
    plane_dual,
    space_dual_desargues,
    validate_configuration,
)
from .symmetry import (
    CanonicalQuadruple,
    RegularizationReport,
    SixJSymmetryElement,
    canonicalize_quadruple,
    classical_group,
    regge_transform,
    regularization_bounds,
    running_range,
    symmetry_group,
    symmetry_orbit,
)
from .wigner import (
    SixJ,
    sixj_value,
)

__version__ = "0.1.0"

__all__ = [
    "BEInstance",
    "CanonicalQuadruple",
    "ConfigurationSignature",
    "DesarguesSpinLabeling",
    "ExactCheckResult",
    "IncidenceStructure",
    "RegularizationReport",
    "SimplexSpinLabeling",
    "SimplicialComplex4",
    "SixJ",
    "SixJSymmetryElement",
    "Spin",
    "SqrtRational",
    "be_check",
    "build_desargues",
    "build_quadrangle",
    "canonicalize_quadruple",
    "classical_group",
    "cross_section",
    "errors",
    "factorial",
    "isomorphic",
    "kernel_backend",
    "label_desargues",
    "network_amplitude",
    "orthogonality_check",
    "pachner_14_check",
    "pachner_23_check",
    "phase_from_twice",
    "plane_dual",
    "regge_transform",
    "regularization_bounds",
    "regularized_enumeration",
    "running_range",
    "sixj_value",
    "space_dual_desargues",
    "symmetry_group",
    "symmetry_orbit",
    "transfer_labeling",
    "validate_configuration",
]
