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
    checks      the identity suites behind ``verify`` and the acceptance gate
    cli         command-line front end (``wavetrace``)
"""
