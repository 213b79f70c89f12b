"""Billiard map, orbit search, Poincare linearization, determinant identities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import eval_chebyt

from test_hessian import dihedral_inverse
from wavetrace.billiard import (
    _assemble,
    arclength,
    billiard_map,
    bounce_sequence,
    charts,
    find_orbit,
    length_jet,
    poincare_numeric,
    snell_residual,
    x_from_arclength,
)
from wavetrace.domain import BoundaryArc, DomainSpec, dihedral_parameters, floquet
from wavetrace.hessian import CirculantHessian, hessian_matrix
from wavetrace.jets import derivative_tensor


def perturbed_spec(L=1.0, c2=(-0.31, 0.22), c3=(0.17, -0.26), c4=(0.09, 0.05)):
    """Nonsymmetric two-arc table with quartic terms, wide charts."""
    return DomainSpec(
        kind="twoarc",
        L=L,
        f=BoundaryArc((L / 2, 0.0, c2[0], c3[0], c4[0]), half_width=4.0),
        f_minus=BoundaryArc((-L / 2, 0.0, c2[1], c3[1], c4[1]), half_width=4.0),
    )


def symmetric_spec(L=1.0, c2=-0.3, c3=0.2, c4=-0.1):
    return DomainSpec(
        kind="updown", L=L, f=BoundaryArc((L / 2, 0.0, c2, c3, c4), half_width=4.0)
    )


def triangle_spec(rho=1.0, c2=-0.35, m=3):
    L = m * math.sin(math.pi / m) * rho
    return DomainSpec(
        kind="dihedral", L=L, f=BoundaryArc((rho, 0.0, c2, 0.0, 0.04), half_width=4.0), m=m
    )


# ---------------------------------------------------------------------------
# billiard map


def test_bouncing_ball_fixed_point():
    spec = symmetric_spec()
    q, eta = billiard_map(spec, (0, 0.0), 0.0)
    assert q == (1, pytest.approx(0.0, abs=1e-14))
    assert eta == pytest.approx(0.0, abs=1e-14)
    q2, eta2 = billiard_map(spec, q, eta)
    assert q2[0] == 0
    assert q2[1] == pytest.approx(0.0, abs=1e-14)


def test_map_snell_oracle():
    # pure-geometry check: three consecutive strike points satisfy the
    # equal-angles law at the middle one
    spec = perturbed_spec()
    rng = np.random.default_rng(3)
    chs = charts(spec)
    for _ in range(25):
        state = ((int(rng.integers(2)), float(rng.uniform(-0.2, 0.2))), float(rng.uniform(-0.3, 0.3)))
        (i0, x0), eta0 = state
        (i1, x1), eta1 = billiard_map(spec, (i0, x0), eta0)
        (i2, x2), _ = billiard_map(spec, (i1, x1), eta1)
        p0, p1, p2 = chs[i0].point(x0), chs[i1].point(x1), chs[i2].point(x2)
        e_in = (p1 - p0) / np.linalg.norm(p1 - p0)
        e_out = (p2 - p1) / np.linalg.norm(p2 - p1)
        tangent = chs[i1].tangent(x1)
        normal = chs[i1].normal(x1)
        assert abs(float((e_in - e_out) @ tangent)) <= 1e-10
        # and the normal component flips from hitting to leaving
        assert float(e_in @ normal) < 0 < float(e_out @ normal)


def test_map_commutes_with_mirror_symmetry():
    spec = DomainSpec(
        kind="updown", L=1.0, f=BoundaryArc((0.5, 0.0, -0.3, 0.0, 0.08), half_width=4.0)
    )
    for x, eta in [(0.05, 0.1), (-0.12, 0.25), (0.2, -0.17)]:
        (j, xp), etap = billiard_map(spec, (0, x), eta)
        (jm, xm), etam = billiard_map(spec, (0, -x), -eta)
        assert jm == j
        assert xm == pytest.approx(-xp, abs=1e-12)
        assert etam == pytest.approx(-etap, abs=1e-12)


def test_map_rejects_bad_momentum_and_escapes():
    spec = perturbed_spec()
    with pytest.raises(ValueError, match="eta"):
        billiard_map(spec, (0, 0.0), 1.0)
    with pytest.raises(ValueError, match="chart"):
        billiard_map(spec, (0, 0.0), 0.999)  # nearly tangential, leaves cover


def test_dihedral_map_follows_polygon():
    spec = triangle_spec()
    eta0 = math.cos(math.pi / 3)  # outgoing along the polygon side
    q, eta = (0, 0.0), eta0
    seen = [q[0]]
    for _ in range(3):
        q, eta = billiard_map(spec, q, eta)
        assert q[1] == pytest.approx(0.0, abs=1e-12)
        assert eta == pytest.approx(eta0, abs=1e-12)
        seen.append(q[0])
    assert seen == [0, 1, 2, 0]


# ---------------------------------------------------------------------------
# orbit search


def test_find_orbit_symmetric():
    spec = symmetric_spec(L=1.3)
    orbit = find_orbit(spec, 2, 0.01 * np.array([1.0, -1.0, 1.0, -1.0]))
    np.testing.assert_allclose(orbit.points, 0.0, atol=1e-12)
    assert orbit.length == pytest.approx(4 * 1.3, abs=1e-12)
    assert orbit.word == (0, 1, 0, 1)
    assert orbit.signs == (1, -1, 1, -1)
    assert orbit.residual <= 1e-12


def test_find_orbit_perturbed_snell():
    spec = perturbed_spec()
    for r in (1, 2, 3):
        orbit = find_orbit(spec, r, 0.02 * np.ones(2 * r))
        np.testing.assert_allclose(orbit.points, 0.0, atol=1e-10)
        assert snell_residual(spec, orbit) <= 1e-10
        assert orbit.length == pytest.approx(2 * r * spec.L, rel=1e-12)


def test_find_orbit_dihedral():
    spec = triangle_spec()
    orbit = find_orbit(spec, 2, 0.01 * np.ones(6))
    np.testing.assert_allclose(orbit.points, 0.0, atol=1e-10)
    assert orbit.length == pytest.approx(4 * spec.L, rel=1e-12)
    assert snell_residual(spec, orbit) <= 1e-10
    assert orbit.word == (0, 1, 2, 0, 1, 2)


def test_orbit_json_fields():
    spec = symmetric_spec()
    orbit = find_orbit(spec, 1, [0.01, 0.01])
    blob = orbit.to_json()
    assert set(blob) == {"points", "word", "length", "residual"}


# ---------------------------------------------------------------------------
# length functional routes agree


def test_length_routes_jet_vs_analytic():
    spec = perturbed_spec()
    for r in (1, 2):
        n = 2 * r
        jet = length_jet(spec, r, 3)
        value, gradient, hessian = _assemble(spec, bounce_sequence(spec, r), np.zeros(n))
        assert jet.value == pytest.approx(value, rel=1e-13)
        assert jet.value == pytest.approx(2 * r * spec.L)
        np.testing.assert_allclose(derivative_tensor(jet, 1), gradient, atol=1e-12)
        np.testing.assert_allclose(derivative_tensor(jet, 2), hessian, atol=1e-12)


def test_length_hessian_matches_circulant_form():
    spec = perturbed_spec()
    for r in (1, 2, 3):
        np.testing.assert_allclose(
            _assemble(spec, bounce_sequence(spec, r), np.zeros(2 * r))[2],
            hessian_matrix(CirculantHessian.from_spec(spec, r)),
            atol=1e-12,
        )


def test_dihedral_length_jet_matches_circulant_form():
    spec = triangle_spec()
    s_param, ell = dihedral_parameters(spec)
    for r in (1, 2):
        np.testing.assert_allclose(
            np.linalg.inv(derivative_tensor(length_jet(spec, r, 2), 2)),
            dihedral_inverse(3, r, s_param, ell),
            rtol=1e-10,
            atol=1e-12,
        )


def test_third_order_length_jet_vs_finite_differences():
    spec = perturbed_spec()
    jet = length_jet(spec, 1, 3)
    h = 1e-3

    def lv(x0, x1):
        return _assemble(spec, bounce_sequence(spec, 1), np.array([x0, x1]))[0]

    # d^3 L / dx0^2 dx1: second difference in x0 times central difference in x1
    fd = (
        lv(h, h) - 2.0 * lv(0.0, h) + lv(-h, h)
        - lv(h, -h) + 2.0 * lv(0.0, -h) - lv(-h, -h)
    ) / (2.0 * h**3)
    from wavetrace.jets import extract_partial

    assert extract_partial(jet, (2, 1)) == pytest.approx(fd, abs=5e-4)


# ---------------------------------------------------------------------------
# arclength helpers


def test_arclength_roundtrip():
    spec = perturbed_spec()
    top = charts(spec)[0]
    for x in (-0.5, -0.1, 0.0, 0.2, 0.7):
        s = arclength(top, x)
        assert x_from_arclength(top, s) == pytest.approx(x, abs=1e-12)
    assert arclength(top, 0.4) >= 0.4  # speed >= 1


# ---------------------------------------------------------------------------
# Poincare maps and determinant identities


def test_poincare_symplectic_and_trace():
    spec = symmetric_spec(L=1.1, c2=-0.37)
    flo = floquet(spec)
    for r in (1, 2, 3):
        orbit = find_orbit(spec, r, np.zeros(2 * r))
        pdata = poincare_numeric(spec, orbit)
        assert pdata.det == pytest.approx(1.0, abs=1e-6)
        # trace(P_{gamma^r}) = 2 T_{2r}(-a/2) = 2 cos(r alpha)
        expected = 2.0 * float(eval_chebyt(2 * r, -flo.a / 2.0))
        assert pdata.trace == pytest.approx(expected, abs=1e-5)
        assert pdata.trace == pytest.approx(2.0 * math.cos(r * flo.alpha.real), abs=1e-5)


def test_poincare_hyperbolic_trace():
    spec = symmetric_spec(L=1.0, c2=0.4, c3=0.0, c4=0.0)  # product > 1
    flo = floquet(spec)
    assert flo.kind == "Hyperbolic"
    orbit = find_orbit(spec, 1, np.zeros(2))
    pdata = poincare_numeric(spec, orbit)
    assert pdata.trace == pytest.approx(2.0 * float(eval_chebyt(2, -flo.a / 2.0)), rel=1e-5)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_detp_identity(r):
    # det(I - P_{gamma^r}) = -L^{2r} det(H_2r), nonsymmetric table
    spec = perturbed_spec(L=0.9)
    orbit = find_orbit(spec, r, np.zeros(2 * r))
    pdata = poincare_numeric(spec, orbit)
    lhs = float(np.linalg.det(np.eye(2) - pdata.matrix))
    h = CirculantHessian.from_spec(spec, r)
    rhs = -spec.L ** (2 * r) * float(np.linalg.det(hessian_matrix(h)))
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_kta_identity_two_link():
    # det(I - P) = -det(H) / (b_1 ... b_n) with b_j the mixed chord partials
    spec = perturbed_spec(L=1.2)
    orbit = find_orbit(spec, 1, np.zeros(2))
    pdata = poincare_numeric(spec, orbit)
    lhs = float(np.linalg.det(np.eye(2) - pdata.matrix))
    hess = _assemble(spec, orbit.word, orbit.points)[2]
    # both chords of the 2-bounce cycle have mixed partial -1/L
    b_prod = (-1.0 / spec.L) ** 2
    rhs = -float(np.linalg.det(-hess)) / b_prod  # = -det(H)/prod b, n even
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_kta_identity_three_link():
    # odd-cycle version on the triangle orbit of a dihedral table
    spec = triangle_spec(rho=1.0, c2=-0.35)
    orbit = find_orbit(spec, 1, np.zeros(3))
    pdata = poincare_numeric(spec, orbit)
    assert pdata.det == pytest.approx(1.0, abs=1e-6)
    lhs = float(np.linalg.det(np.eye(2) - pdata.matrix))
    hess = _assemble(spec, orbit.word, orbit.points)[2]
    s_param, ell = dihedral_parameters(spec)
    b_j = math.sin(math.pi / 3) ** 2 / ell  # mixed partial of one chord
    # odd cycle: the inner sign matters, det(I - P) = -det(-H) / prod(b_j)
    rhs = -float(np.linalg.det(-hess)) / b_j**3
    assert lhs == pytest.approx(rhs, rel=1e-6)
    assert 0.0 < lhs < 4.0  # this triangle orbit is elliptic


def test_angular_vs_cartesian_hessian():
    # arclength parametrization with the boundary orientation reversed on
    # the top arc: Hessians are conjugate by J = diag(-1, 1, -1, 1, ...)
    spec = perturbed_spec(L=1.4)
    r = 2
    n = 2 * r
    chs = charts(spec)
    word = bounce_sequence(spec, r)

    def length_of_s(svec):
        xs = []
        for p in range(n):
            sign = -1.0 if word[p] == 0 else 1.0
            xs.append(x_from_arclength(chs[word[p]], sign * svec[p]))
        return _assemble(spec, word, np.array(xs))[0]

    h = 1e-4
    fd = np.zeros((n, n))
    base = np.zeros(n)
    for p in range(n):
        for q in range(n):
            if p == q:
                e = np.zeros(n)
                e[p] = h
                fd[p, p] = (length_of_s(e) - 2 * length_of_s(base) + length_of_s(-e)) / h**2
            else:
                ep, eq = np.zeros(n), np.zeros(n)
                ep[p] = h
                eq[q] = h
                fd[p, q] = (
                    length_of_s(ep + eq) - length_of_s(ep - eq)
                    - length_of_s(eq - ep) + length_of_s(-ep - eq)
                ) / (4 * h**2)
    cart = _assemble(spec, word, np.zeros(n))[2]
    j_signs = np.array([-1.0 if word[p] == 0 else 1.0 for p in range(n)])
    expected = j_signs[:, None] * cart * j_signs[None, :]
    np.testing.assert_allclose(fd, expected, atol=2e-5 * np.abs(cart).max())
    assert np.linalg.det(fd) == pytest.approx(np.linalg.det(cart), rel=1e-4)
