"""Shared randomized-input factories for the test suite."""

from __future__ import annotations

import math

from wavetrace.domain import BoundaryArc, DomainSpec, ObstructionError, dihedral_parameters
from wavetrace.hessian import dihedral_inverse_entry

EXCEPTIONAL_FLOQUET = (0.0, -1.0, 2.0, -2.0)


def random_mirror_spec(rng, L=None, even_only=False, order=10):
    """Seeded up-down symmetric spec, elliptic and clear of the
    exceptional Floquet parameters by margin 0.15, with |f'''(0)| in
    [0.2, 1] unless even_only."""
    L = float(rng.uniform(0.8, 2.5)) if L is None else L
    while True:
        c2 = rng.uniform(-0.9, -0.05) / L
        a = 2.0 * L * (-2.0 * c2) - 2.0
        if min(abs(a - b) for b in EXCEPTIONAL_FLOQUET) > 0.15:
            break
    coeffs = [L / 2.0, 0.0, c2]
    cubic = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
    coeffs.append(0.0 if even_only else cubic / 6.0)
    for k in range(4, order + 1):
        c = 4.0 * rng.uniform(-1.0, 1.0) / math.factorial(k)
        coeffs.append(0.0 if (even_only and k % 2) else c)
    return DomainSpec("updown", L, BoundaryArc(tuple(coeffs)))


def random_dihedral_spec(rng, m, order=10):
    """Seeded m-fold dihedral spec, resampled until the iterates the
    tests use (r <= 3) are clear of symbol poles."""
    while True:
        rho = float(rng.uniform(0.8, 2.0))
        L = m * math.sin(math.pi / m) * rho
        coeffs = [rho, 0.0, float(rng.uniform(-0.45, 0.45))]
        for k in range(3, order + 1):
            coeffs.append(0.0 if k % 2 else 2.0 * rng.uniform(-1.0, 1.0) / math.factorial(k))
        spec = DomainSpec("dihedral", L, BoundaryArc(tuple(coeffs)), m=m)
        s_param, link = dihedral_parameters(spec)
        if abs(abs(s_param) - 2.0) < 0.1:
            continue
        try:
            for r in (1, 2, 3):
                dihedral_inverse_entry(m, r, s_param, link, 1, 1)
        except ObstructionError:
            continue
        return spec

