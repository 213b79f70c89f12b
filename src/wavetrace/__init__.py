"""Wave-trace invariants of analytic plane billiards, and boundary recovery.

The package computes the oscillatory-integral trace invariants attached to
iterated bouncing-ball and rotationally symmetric ("dihedral") periodic
orbits of planar billiard tables, through a general Feynman-diagrammatic
stationary-phase engine, and runs the inverse algorithm that reconstructs
the boundary's Taylor coefficients at the orbit endpoints from those
invariants.

Modules:
    jets        dense truncated multivariate Taylor arithmetic
    domain      boundary-arc specs, Floquet data, genericity checks
    billiard    billiard map, periodic orbits, numerical Poincare maps
    hessian     circulant length-functional Hessians and inverse formulas
    feynman     graph enumeration and the stationary-phase engine
    invariants  principal-term construction and invariant tables
    inverse     Taylor-coefficient recovery from invariant tables
    cli         command-line front end (``wavetrace``)
"""

from wavetrace.domain import (
    BoundaryArc,
    DomainSpec,
    FloquetData,
    ObstructionError,
    floquet,
    genericity_check,
    parse_spec,
    write_spec,
)
from wavetrace.feynman import (
    FeynmanGraph,
    SPProblem,
    enumerate_graphs,
    full_expansion,
    sp_coefficient_diagrams,
    sp_coefficient_direct,
)
from wavetrace.invariants import (
    InvariantTable,
    build_principal,
    forward_table,
    invariant_dihedral,
    invariant_full,
    invariant_top,
)
from wavetrace.inverse import (
    RecoveryResult,
    recover,
    recover_dihedral,
    recover_f2,
    recover_symmetric,
    recover_two_symmetry,
)
from wavetrace.jets import (
    MultiJet,
    extract_partial,
    jet_compose_scalar,
    jet_mul,
)

__all__ = [
    "BoundaryArc",
    "DomainSpec",
    "FeynmanGraph",
    "FloquetData",
    "InvariantTable",
    "MultiJet",
    "ObstructionError",
    "RecoveryResult",
    "SPProblem",
    "build_principal",
    "enumerate_graphs",
    "extract_partial",
    "floquet",
    "forward_table",
    "full_expansion",
    "genericity_check",
    "invariant_dihedral",
    "invariant_full",
    "invariant_top",
    "jet_compose_scalar",
    "jet_mul",
    "parse_spec",
    "recover",
    "recover_dihedral",
    "recover_f2",
    "recover_symmetric",
    "recover_two_symmetry",
    "sp_coefficient_diagrams",
    "sp_coefficient_direct",
    "write_spec",
]

__version__ = "0.1.0"
