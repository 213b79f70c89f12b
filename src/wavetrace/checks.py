"""Numerical identity checks: the suites behind `wavetrace verify` and the
acceptance gate.

Each suite returns rows ``{"check", "residual", "tolerance"}``; a check
passes when ``residual <= tolerance``.  Suites whose callers need different
sizes take them as arguments (the CLI runs small sizes, the acceptance gate
larger ones); the rest run fixed sizes.  Randomized suites draw from the
generator they are given, so a fixed seed gives fixed rows.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .billiard import find_orbit, poincare_numeric, snell_residual
from .domain import BoundaryArc, DomainSpec
from .feynman import (
    SPProblem,
    full_expansion,
    oscillatory_quadrature,
    sp_coefficient_diagrams,
    sp_coefficient_direct,
)
from .hessian import CirculantHessian, hessian_matrix, inverse_matrix
from .invariants import build_principal, principal_leading_value
from .jets import MultiJet, derivative_tensor, extract_partial

__all__ = [
    "random_sp_problem",
    "circulant_suite",
    "poincare_suite",
    "feynman_suite",
    "amplitude_suite",
    "decay_suite",
]


def _worst(values) -> float:
    """Largest of ``values`` (0 for none), NaN if any value is NaN, so a
    routine that returns NaN fails its row instead of being skipped."""
    return float(np.max(np.asarray(values, dtype=float), initial=0.0))


def _orbit_fixture() -> DomainSpec:
    """Two-arc table with L = 0.9 and wide charts, for orbit searches."""
    L = 0.9
    return DomainSpec(
        "twoarc",
        L,
        BoundaryArc((L / 2, 0.0, -0.31, 0.17, 0.09), half_width=4.0),
        BoundaryArc((-L / 2, 0.0, 0.22, -0.26, 0.05), half_width=4.0),
    )


def _amplitude_fixture() -> DomainSpec:
    """Two-arc table with L = 2 and jets to order 9, for principal terms."""
    L = 2.0
    return DomainSpec(
        "twoarc",
        L,
        BoundaryArc((L / 2, 0.0, -0.31, 0.12, 0.05, -0.033, 0.021, 0.011, -0.017, 0.009)),
        BoundaryArc((-L / 2, 0.0, 0.22, -0.26, 0.05, 0.03, -0.01, 0.008, 0.013, -0.005)),
    )


def random_sp_problem(rng: np.random.Generator, n: int, deg: int = 8) -> SPProblem:
    """Seeded stationary-phase problem: positive-definite quadratic part,
    sparse higher phase terms, complex amplitude."""
    m = rng.normal(size=(n, n))
    hess = m @ m.T + n * np.eye(n)
    terms = {}
    for u in range(n):
        for v in range(u, n):
            alpha = [0] * n
            alpha[u] += 1
            alpha[v] += 1
            terms[tuple(alpha)] = hess[u, v] * (0.5 if u == v else 1.0)
    phase = MultiJet.from_terms(terms, n, deg)
    aterms = {(0,) * n: 1.0 + 0.5j}
    for alpha in itertools.product(range(deg + 1), repeat=n):
        degree = sum(alpha)
        if 3 <= degree <= deg and rng.random() < 0.4:
            phase = phase + MultiJet.from_terms({alpha: 0.2 * rng.normal()}, n, deg)
        if 0 < degree <= deg - 2 and rng.random() < 0.4:
            aterms[alpha] = rng.normal() + 1j * rng.normal()
    return SPProblem.from_phase(phase, MultiJet.from_terms(aterms, n, deg))


def circulant_suite(rng: np.random.Generator, r_values, draws: int) -> list[dict]:
    """Fourier, Chebyshev and dense inverses of H_2r agree.

    ``draws`` Floquet parameters a ~ U(-5, 5) per iterate, skipping any
    within 1e-6 of a symbol pole.  The residual is max|difference| times
    the smallest |symbol| over L, i.e. the difference relative to the
    spectral norm of the inverse.
    """
    L = 1.3
    rows = []
    for r in r_values:
        cheb_errors, dense_errors = [], []
        drawn = 0
        while drawn < draws:
            a = float(rng.uniform(-5.0, 5.0))
            h = CirculantHessian(r=r, L=L, a=a, b=a)
            mat = hessian_matrix(h)
            symbol_min = float(np.abs(L * np.linalg.eigvalsh(mat)).min())
            if symbol_min <= 1e-6:
                continue
            drawn += 1
            fourier = inverse_matrix(h, method="fourier")
            cheb = inverse_matrix(h, method="chebyshev")
            dense = np.linalg.inv(mat)
            scale = symbol_min / L
            cheb_errors.append(np.abs(fourier - cheb).max() * scale)
            dense_errors.append(np.abs(fourier - dense).max() * scale)
        rows.append(
            {"check": f"fourier-vs-chebyshev r={r}", "residual": _worst(cheb_errors),
             "tolerance": 1e-9}
        )
        rows.append(
            {"check": f"fourier-vs-dense r={r}", "residual": _worst(dense_errors),
             "tolerance": 1e-9}
        )
    return rows


def poincare_suite(r_max: int) -> list[dict]:
    """det(I - P) = -L^{2r} det H_2r, and the orbit found obeys Snell's law,
    for the iterates r <= r_max of the orbit fixture."""
    spec = _orbit_fixture()
    rows = []
    for r in range(1, r_max + 1):
        orbit = find_orbit(spec, r, np.zeros(2 * r))
        pdata = poincare_numeric(spec, orbit)
        lhs = float(np.linalg.det(np.eye(2) - pdata.matrix))
        h = CirculantHessian.from_spec(spec, r)
        rhs = -spec.L ** (2 * r) * float(np.linalg.det(hessian_matrix(h)))
        rows.append(
            {"check": f"det-poincare r={r}",
             "residual": abs(lhs - rhs) / abs(rhs), "tolerance": 1e-6}
        )
        rows.append(
            {"check": f"snell r={r}", "residual": snell_residual(spec, orbit),
             "tolerance": 1e-10}
        )
    return rows


def feynman_suite(rng: np.random.Generator, problems: int, n_max: int) -> list[dict]:
    """The diagram sum equals the operator expansion on random problems in
    1..n_max variables, at orders 1..3."""
    errors = []
    for _ in range(problems):
        n = int(rng.integers(1, n_max + 1))
        j = int(rng.integers(1, 4))
        problem = random_sp_problem(rng, n)
        lhs = sp_coefficient_diagrams(problem, j)
        rhs = sp_coefficient_direct(problem, j)
        errors.append(abs(lhs - rhs) / np.maximum(abs(rhs), 1e-12))
    return [
        {"check": f"diagram-sum vs operator ({problems} problems)",
         "residual": _worst(errors), "tolerance": 1e-9}
    ]


def amplitude_suite() -> list[dict]:
    """Principal terms of the amplitude fixture, iterates r <= 3 and orders
    j <= 4: both jets are gradient-free at the orbit, the amplitude has its
    closed-form leading value, pure third phase derivatives are twice the
    signed cubic of the bounce arc and mixed ones vanish, and the
    order-(2j-2) amplitude jet never reads f^(2j-1).  Each term is built
    at order 2j (4 at j = 1), where its amplitude has degree 2j - 2 (2)."""
    spec = _amplitude_fixture()
    arcs = (spec.f, spec.f_minus)
    grad, lead, third, mixed, freedom = [], [], [], [], []
    for r in (1, 2, 3):
        n = 2 * r
        expect = principal_leading_value(r, spec.L)
        for j in (1, 2, 3, 4):
            term = build_principal(spec, r, max(2 * j, 4))
            grad.append(np.abs(derivative_tensor(term.phase_jets, 1)).max())
            grad.append(np.abs(derivative_tensor(term.amplitude_jets, 1)).max())
            lead.append(abs(term.amplitude_jets.value - expect) / abs(expect))
            # j = 1 would probe f'(0), which the normalization pins to zero
            if j == 1:
                continue
            k = 2 * j - 1
            moved = dataclasses.replace(
                spec, f=spec.f.with_derivative(k, spec.f.derivative(k) + 0.6)
            )
            coeffs = term.amplitude_jets.coeffs
            other = build_principal(moved, r, max(2 * j, 4)).amplitude_jets.coeffs
            freedom.append(
                np.abs(coeffs - other).max() / np.maximum(np.abs(coeffs).max(), 1.0)
            )
        term = build_principal(spec, r, 4)
        for p in range(n):
            sign = 1.0 if p % 2 == 0 else -1.0
            alpha = [0] * n
            alpha[p] = 3
            want = 2.0 * sign * arcs[p % 2].derivative(3)
            got = extract_partial(term.phase_jets, alpha)
            third.append(abs(got - want) / np.maximum(abs(want), 1.0))
            for q in range(n):
                if q != p:
                    alpha = [0] * n
                    alpha[p], alpha[q] = 2, 1
                    mixed.append(abs(extract_partial(term.phase_jets, alpha)))
    return [
        {"check": "critical-point gradients", "residual": _worst(grad),
         "tolerance": 1e-11},
        {"check": "leading amplitude value", "residual": _worst(lead),
         "tolerance": 1e-11},
        {"check": "pure third phase derivative", "residual": _worst(third),
         "tolerance": 1e-11},
        {"check": "mixed third phase derivatives", "residual": _worst(mixed),
         "tolerance": 1e-11},
        {"check": "low amplitude jet free of higher data", "residual": _worst(freedom),
         "tolerance": 1e-11},
    ]


def decay_suite() -> list[dict]:
    """The error of the expansion truncated after order J falls by
    2^-(J + 3/2) per doubling of k, against quadrature of a cubic-perturbed
    Gaussian with analytic amplitude on a wide window."""
    c3 = 0.3
    deg = 10
    phase = MultiJet.from_terms({(2,): 0.5, (3,): c3 / 6.0}, 1, deg)
    amp = MultiJet.from_terms(
        {(2 * m,): (-0.5) ** m / math.factorial(m) for m in range(deg // 2 + 1)},
        1,
        deg,
    )
    problem = SPProblem.from_phase(phase, amp)
    ks = (40.0, 80.0, 160.0)
    quads = {
        k: oscillatory_quadrature(
            lambda x: x**2 / 2.0 + c3 * x**3 / 6.0,
            lambda x: np.exp(-(x**2) / 2.0),
            k,
            -5.5,
            5.5,
            limit=3000,
        )[0]
        for k in ks
    }
    rows = []
    for j_cap in (0, 1, 2):
        errors = [abs(quads[k] - full_expansion(problem, k, j_cap)) for k in ks]
        predicted = 2.0 ** -(j_cap + 1.5)
        ratios = [errors[i + 1] / errors[i] for i in range(len(ks) - 1)]
        residual = _worst([abs(rat / predicted - 1.0) for rat in ratios])
        rows.append(
            {"check": f"error halving rate J={j_cap}", "residual": residual,
             "tolerance": 0.25}
        )
    return rows
