"""Circulant length-Hessians, their inverses, and the exceptional set."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_chebyt

from wavetrace import hessian
from wavetrace.domain import BoundaryArc, DomainSpec, ObstructionError, dihedral_parameters
from wavetrace.hessian import (
    CirculantHessian,
    bad_set,
    badset_report,
    check_rank,
    cubic_sum,
    dihedral_inverse_entry,
    hessian_matrix,
    inverse_chebyshev,
    inverse_fourier,
    inverse_matrix,
    parity_sums,
    stacked_parity_sums,
)
from wavetrace.jets import MultiJet, derivative_tensor, jet_power

# a-values clear of the symbol poles a = -2 cos(pi k / r) in [-2, 2]
SAFE_AS = [3.7, 2.9, -3.3, 5.1, -6.4, 1.31, -0.57, 0.83, 1.77, -1.45]


def _h(r, a, L=1.0, b=None):
    return CirculantHessian(r=r, L=L, a=a, b=a if b is None else b)


# ---------------------------------------------------------------------------
# dense matrix and jet oracle


def test_matrix_r1_example():
    mat = hessian_matrix(_h(1, 3.0, L=1.0))
    np.testing.assert_allclose(mat, -np.array([[3.0, 2.0], [2.0, 3.0]]))


def test_matrix_structure_r2():
    mat = hessian_matrix(_h(2, 3.0, L=2.0, b=5.0))
    expect = -0.5 * np.array(
        [
            [3.0, 1.0, 0.0, 1.0],
            [1.0, 5.0, 1.0, 0.0],
            [0.0, 1.0, 3.0, 1.0],
            [1.0, 0.0, 1.0, 5.0],
        ]
    )
    np.testing.assert_allclose(mat, expect)


def length_hessian_by_jets(spec: DomainSpec, r: int) -> np.ndarray:
    """Independent oracle: Hessian of the cyclic chord-length sum, by jets."""
    n = 2 * r
    arcs = [spec.upper if p % 2 == 0 else spec.lower for p in range(n)]
    total = MultiJet.zero(n, 2)
    for p in range(n):
        q = (p + 1) % n
        dx = MultiJet.variable(q, n, 2) - MultiJet.variable(p, n, 2)
        dy = MultiJet.from_univariate(arcs[q].taylor, q, n, 2) - MultiJet.from_univariate(
            arcs[p].taylor, p, n, 2
        )
        total = total + jet_power(dx * dx + dy * dy, 0.5)
    return derivative_tensor(total, 2)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_matrix_agrees_with_jet_hessian(r):
    rng = np.random.default_rng(41 + r)
    for _ in range(5):
        L = float(rng.uniform(0.5, 3.0))
        c2_top, c3_top, c2_bot, c3_bot = rng.uniform(-0.4, 0.4, size=4)
        spec = DomainSpec(
            kind="twoarc",
            L=L,
            f=BoundaryArc((L / 2, 0.0, c2_top, c3_top)),
            f_minus=BoundaryArc((-L / 2, 0.0, c2_bot, c3_bot)),
        )
        h = CirculantHessian.from_spec(spec, r)
        np.testing.assert_allclose(
            hessian_matrix(h), length_hessian_by_jets(spec, r), atol=1e-10
        )


@pytest.mark.parametrize("r", range(1, 11))
def test_determinant_closed_form(r):
    # det H_2r = -L^{-2r} (2 - 2 T_2r(-a/2)) for all real a
    L = 1.7
    for a in (1.31, -0.57, 0.83, 3.7, -4.2):  # elliptic and hyperbolic
        want = -(L ** (-2 * r)) * (2.0 - 2.0 * float(eval_chebyt(2 * r, -a / 2.0)))
        assert np.linalg.det(hessian_matrix(_h(r, a, L=L))) == pytest.approx(want, rel=1e-8)


def test_determinant_elliptic_angle_form():
    # for |a| < 2 the closed form reads -L^{-2r} (2 - 2 cos(r * alpha))
    a, L = -1.2, 0.9
    alpha = 2.0 * math.acos(-a / 2.0)
    for r in (1, 2, 3, 5):
        assert np.linalg.det(hessian_matrix(_h(r, a, L=L))) == pytest.approx(
            -(L ** (-2 * r)) * (2.0 - 2.0 * math.cos(r * alpha)), rel=1e-12
        )


# ---------------------------------------------------------------------------
# inverse entries


def test_frozen_inverse_r1():
    # H_2^{-1} = -L/(a^2-4) [[a, -2], [-2, a]]
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = float(rng.uniform(2.2, 6.0) * rng.choice([-1, 1]))
        L = float(rng.uniform(0.5, 3.0))
        h = _h(1, a, L=L)
        denom = a * a - 4.0
        assert inverse_fourier(h, 1, 1) == pytest.approx(-L * a / denom, abs=1e-12)
        assert inverse_fourier(h, 1, 2) == pytest.approx(2.0 * L / denom, abs=1e-12)
        assert inverse_chebyshev(h, 1, 1) == pytest.approx(-L * a / denom, abs=1e-12)
        assert inverse_chebyshev(h, 2, 1) == pytest.approx(2.0 * L / denom, abs=1e-12)


def test_frozen_inverse_r1_at_a3():
    h = _h(1, 3.0, L=1.0)
    assert inverse_fourier(h, 1, 1) == pytest.approx(-0.6, abs=1e-14)
    assert inverse_fourier(h, 1, 2) == pytest.approx(0.4, abs=1e-14)


def test_frozen_inverse_r2():
    # first row of H_4^{-1}: -L/(a^4-4a^2) * (a^3-2a, -a^2, 2a, -a^2)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = float(rng.uniform(2.2, 6.0) * rng.choice([-1, 1]))
        L = float(rng.uniform(0.5, 3.0))
        h = _h(2, a, L=L)
        denom = a**4 - 4.0 * a**2
        expected = -L / denom * np.array([a**3 - 2.0 * a, -(a**2), 2.0 * a, -(a**2)])
        got = np.array([inverse_fourier(h, 1, q) for q in (1, 2, 3, 4)])
        np.testing.assert_allclose(got, expected, atol=1e-12 * max(1.0, np.abs(expected).max()))
        got_cheb = np.array([inverse_chebyshev(h, 1, q) for q in (1, 2, 3, 4)])
        np.testing.assert_allclose(got_cheb, expected, atol=1e-12 * max(1.0, np.abs(expected).max()))


@pytest.mark.parametrize("r", [1, 2, 3, 7, 25])
def test_inverse_identity_and_method_agreement(r):
    for a in SAFE_AS[:6]:
        h = _h(r, a, L=1.3)
        mat = hessian_matrix(h)
        for method in ("fourier", "chebyshev", "dense"):
            inv = inverse_matrix(h, method=method)
            np.testing.assert_allclose(mat @ inv, np.eye(2 * r), atol=1e-10 * np.abs(inv).max())
    # a != b: the 2 x 2 block symbol against the plain solve, elliptic and
    # hyperbolic products ab, including the doubled corner at r = 1
    for a, b in ((1.4, 3.3), (-0.7, 1.9), (1.1, 2.0), (-3.1, -2.6)):
        h = _h(r, a, L=1.3, b=b)
        dense = inverse_matrix(h, method="dense")
        fourier = inverse_matrix(h, method="fourier")
        np.testing.assert_allclose(fourier, dense, atol=1e-12 * np.abs(dense).max())
        np.testing.assert_allclose(
            hessian_matrix(h) @ fourier, np.eye(2 * r), atol=1e-10 * np.abs(fourier).max()
        )


def test_cot_formula_elliptic():
    # h^11 = -L cot(r alpha / 2) / (2 sin(alpha/2)) when a = -2 cos(alpha/2)
    L = 2.1
    for a in (-1.3, -0.5, 0.83, 1.7):
        alpha = 2.0 * math.acos(-a / 2.0)
        for r in (1, 2, 3, 4):
            if abs(math.sin(r * alpha / 2.0)) < 1e-3:
                continue
            h = _h(r, a, L=L)
            expect = -L / (2.0 * math.sin(alpha / 2.0)) * (1.0 / math.tan(r * alpha / 2.0))
            assert inverse_fourier(h, 1, 1) == pytest.approx(expect, rel=1e-10)


def test_parity_of_diagonal_entries():
    # dense inverse with a != b: diagonal entries of like parity are equal,
    # and swapping (a, b) swaps the two values
    h_ab = _h(3, 1.4, L=1.0, b=3.3)
    h_ba = _h(3, 3.3, L=1.0, b=1.4)
    inv_ab = inverse_matrix(h_ab, method="dense")
    inv_ba = inverse_matrix(h_ba, method="dense")
    d_ab, d_ba = np.diag(inv_ab), np.diag(inv_ba)
    np.testing.assert_allclose(d_ab[0::2], d_ab[0], rtol=1e-12)
    np.testing.assert_allclose(d_ab[1::2], d_ab[1], rtol=1e-12)
    assert d_ab[0] == pytest.approx(d_ba[1], rel=1e-12)
    assert d_ab[1] == pytest.approx(d_ba[0], rel=1e-12)


def test_elliptic_angle_entry_formula():
    # (-L)^{-1} h^{pq} = [sin((2r-q+p) alpha/2) + sin((q-p) alpha/2)]
    #                    / (2 (1 - cos(r alpha)) sin(alpha/2)),  p <= q
    L = 1.0
    for a in (0.83, -1.3):
        alpha = 2.0 * math.acos(-a / 2.0)
        for r in (2, 3):
            h = _h(r, a, L=L)
            inv = inverse_matrix(h, method="fourier")
            for p in range(1, 2 * r + 1):
                for q in range(p, 2 * r + 1):
                    expect = (
                        -L
                        * (
                            math.sin((2 * r - q + p) * alpha / 2.0)
                            + math.sin((q - p) * alpha / 2.0)
                        )
                        / (2.0 * (1.0 - math.cos(r * alpha)) * math.sin(alpha / 2.0))
                    )
                    assert inv[p - 1, q - 1] == pytest.approx(expect, rel=1e-10)


def test_pole_is_reported_with_k():
    # r = 2, a = -2 cos(pi/2) = 0 makes p(w^1) vanish
    with pytest.raises(ObstructionError) as err:
        parity_sums(_h(2, 0.0))
    assert err.value.name == "symbol-pole"
    assert "k = 1" in str(err.value)


def _one_iterate_parity_sums(h):
    """`parity_sums` of one iterate from the rows of `inverse_fourier`."""
    rows = hessian._inverse_rows(h)
    if len(rows) == 1:
        rows = np.array([rows[0], np.roll(rows[0], 1)])
    blocks = rows.reshape(2, h.r, 2)
    ones = np.ones(h.r)
    return np.array([rows[0, 0], rows[1, 1]]), ones @ blocks, ones @ (blocks * blocks * blocks)


@pytest.mark.parametrize(
    "a, b",
    [(2.7, 2.7), (-3.1, -3.1), (0.37, 0.37), (-1.3, -1.3), (1.3, -0.4), (-2.5, 3.0),
     (-1.0, -1.0), (0.0, 0.0), (2.0, 2.0)],
    ids=["hyperbolic", "hyperbolic-neg", "elliptic", "elliptic-neg", "twoarc",
         "twoarc-mixed", "poles-r3", "poles-even-r", "poles-all"],
)
def test_stacked_parity_sums_are_those_of_each_iterate_alone(a, b):
    # bit for bit: r = 1 is the doubled corner; a = -1, 0 and 2 are poles of
    # r divisible by 3, of even r and of every r
    L, rs = 1.7, list(range(1, 201))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a pole iterate is never divided by
        (diag, s1, s3), poles = stacked_parity_sums(L, a, b, rs)
    admitted = [r for r in rs if r not in poles]
    assert diag.shape == (len(admitted), 2) and s1.shape == s3.shape == (len(admitted), 2, 2)
    for i, r in enumerate(admitted):
        h = _h(r, a, L=L, b=b)
        stacked = [x.tobytes() for x in (diag[i], s1[i], s3[i])]
        assert stacked == [x.tobytes() for x in parity_sums(h)]
        assert stacked == [x.tobytes() for x in _one_iterate_parity_sums(h)]
    assert list(poles) == [r for r in rs if r not in admitted]
    for r, err in poles.items():
        with pytest.raises(ObstructionError) as alone:
            parity_sums(_h(r, a, L=L, b=b))
        assert (err.name, str(err)) == (alone.value.name, str(alone.value))
    if a == -1.0:
        assert list(poles) == list(range(3, 201, 3)) and "k = 1 (r = 3, a = -1)" in str(poles[3])


def test_stacked_parity_sums_of_no_iterate():
    for rs in ([], range(1, 1)):
        (diag, s1, s3), poles = stacked_parity_sums(1.0, 0.5, 0.5, rs)
        assert diag.shape == (0, 2) and s1.shape == s3.shape == (0, 2, 2) and poles == {}
    # every iterate at a pole leaves an empty stack
    (diag, _, _), poles = stacked_parity_sums(1.0, 2.0, 2.0, [1, 2, 3])
    assert diag.shape == (0, 2) and list(poles) == [1, 2, 3]
    with pytest.raises(ValueError, match="r must be >= 1"):
        stacked_parity_sums(1.0, 0.5, 0.5, [1, 0])
    with pytest.raises(ValueError, match="L must be positive"):
        stacked_parity_sums(0.0, 0.5, 0.5, [1])


def test_chebyshev_inverse_shares_the_symbol_pole_test():
    # 5e-9 from the resonance a = -2 cos(pi/5) at r = 5: inside the symbol
    # test's 1e-8, where 1 - T_10(-a/2) is still far from zero
    h = _h(5, -2.0 * math.cos(math.pi / 5) + 5e-9)
    for entry in (inverse_fourier, inverse_chebyshev):
        with pytest.raises(ObstructionError) as err:
            entry(h, 1, 1)
        assert err.value.name == "symbol-pole"


def test_row_sum():
    rng = np.random.default_rng(5)
    for r in (1, 2, 5, 13, 25):
        for a in rng.uniform(2.2, 6.0, size=3):
            L = 1.7
            _, s1, _ = parity_sums(_h(r, float(a), L=L))
            assert s1[0].sum() == pytest.approx(-L / (a + 2.0), abs=1e-10)
    with pytest.raises(ObstructionError):
        parity_sums(_h(3, -2.0))


# ---------------------------------------------------------------------------
# cubic sums and the exceptional set


def test_cubic_sum_r1_closed_form():
    for a in SAFE_AS:
        for L in (1.0, 2.3):
            got = cubic_sum(_h(1, a, L=L))
            expect = (-L / (a * a - 4.0)) ** 3 * (a**3 - 8.0)
            assert got == pytest.approx(expect, rel=1e-11)
            # partial-fraction form of the double character sum at r = 1
            pf = (-L) ** 3 / 4.0 * (1.0 / (a + 2.0) ** 3 + 3.0 / ((a + 2.0) * (a - 2.0) ** 2))
            assert got == pytest.approx(pf, rel=1e-11)


def test_cubic_sum_r2_closed_form():
    for a in SAFE_AS:
        got = cubic_sum(_h(2, a, L=1.4))
        expect = (-1.4 / (a**4 - 4 * a**2)) ** 3 * (
            a**9 - 6 * a**7 - 2 * a**6 + 12 * a**5
        )
        assert got == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("r", range(1, 13))
def test_cubic_sum_routes_agree(r):
    rng = np.random.default_rng(100 + r)
    count = 0
    while count < 50:
        a = float(rng.uniform(-7.0, 7.0))
        h = _h(r, a)
        try:
            direct = cubic_sum(h, method="direct")
            character = cubic_sum(h, method="dedekind")
        except ObstructionError:
            continue
        assert character == pytest.approx(direct, rel=1e-9, abs=1e-12)
        count += 1


def test_bad_set_value():
    assert bad_set() == {0.0, -1.0, 2.0, -2.0}


def test_badset_report_factorization():
    report = badset_report()
    assert report["factorization_residual"] < 1e-10
    assert report["roots"] == [-2.0, -1.0, 0.0, 2.0]


def test_ratio_differs_off_bad_set():
    a = 1.0
    ratios = []
    for r in (1, 2):
        h = _h(r, a)
        ratios.append(cubic_sum(h) / inverse_fourier(h, 1, 1) ** 2)
    assert abs(ratios[0] - ratios[1]) > 1e-8


def test_ratio_constant_on_bad_set():
    # a = -1: admissible iterates are those not divisible by 3
    vals = []
    for r in (1, 2, 4, 5):
        h = _h(r, -1.0)
        vals.append(cubic_sum(h) / inverse_fourier(h, 1, 1) ** 2)
    assert np.ptp(vals) < 1e-9


def _decoupling_rows(a, L=1.0):
    """Rows ((h^11)^2, F_3) of the iterates r <= 6 clear of a symbol pole,
    from one `stacked_parity_sums` pass, and the iterates at a pole."""
    (diagonal, _, s3), poles = stacked_parity_sums(L, a, a, range(1, 7), s1=False)
    return np.stack((diagonal[:, 0] ** 2, s3[:, 0].sum(axis=1)), axis=1), poles


def test_the_rank_rule_is_relative():
    # the rows scale as (L^2, L^3): a short orbit's rows are tiny, and pass
    # because the rule weighs the smallest singular value against the
    # largest, not against a fixed floor
    rows, _ = _decoupling_rows(1.0)
    short, _ = _decoupling_rows(1.0, L=0.01)
    np.testing.assert_allclose(short, rows * [0.01**2, 0.01**3], rtol=1e-9)
    assert np.abs(short).max() < 1e-4
    check_rank(rows, "the rows")
    check_rank(short, "the short orbit's rows")


@pytest.mark.parametrize("a", [-1.0, 0.0, 2.0, -2.0])
def test_decoupling_fails_on_bad_set(a):
    # at a = +-2 every iterate sits on a symbol pole; at a = 0 and -1 the
    # rows of the others are proportional, and the rank rule refuses them
    rows, poles = _decoupling_rows(a)
    if abs(a) == 2.0:
        assert sorted(poles) == list(range(1, 7))
        return
    assert len(rows) >= 2
    with pytest.raises(ObstructionError) as err:
        check_rank(rows, "the bad-set rows")
    assert err.value.name == "singular-decoupling"


# ---------------------------------------------------------------------------
# dihedral orbits


def regular_polygon_spec(m: int, rho: float, c2: float, c4: float = 0.0) -> DomainSpec:
    L = m * math.sin(math.pi / m) * rho
    return DomainSpec(
        kind="dihedral", L=L, f=BoundaryArc((rho, 0.0, c2, 0.0, c4)), m=m
    )


def dihedral_length_hessian_by_jets(spec: DomainSpec, r: int) -> np.ndarray:
    """Oracle: Hessian of the rotated-chart chord-length sum, by jets."""
    m = spec.m
    n = m * r
    total = MultiJet.zero(n, 2)
    comps = []
    for p in range(n):
        phi = -2.0 * math.pi * p / m
        x = MultiJet.variable(p, n, 2)
        f = MultiJet.from_univariate(spec.f.taylor, p, n, 2)
        comps.append(
            (x * math.cos(phi) - f * math.sin(phi), x * math.sin(phi) + f * math.cos(phi))
        )
    for p in range(n):
        q = (p + 1) % n
        dx = comps[q][0] - comps[p][0]
        dy = comps[q][1] - comps[p][1]
        total = total + jet_power(dx * dx + dy * dy, 0.5)
    return derivative_tensor(total, 2)


def dihedral_inverse(m: int, r: int, s_param: float, ell: float) -> np.ndarray:
    """Every entry of the inverse dihedral Hessian, by `dihedral_inverse_entry`."""
    idx = range(1, m * r + 1)
    return np.array([[dihedral_inverse_entry(m, r, s_param, ell, p, q) for q in idx]
                     for p in idx])


@pytest.mark.parametrize("m,r", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (5, 1)])
def test_dihedral_hessian_matches_jets(m, r):
    # every entry of the inverse, so the scale (sin^2(pi/m) / link, positive)
    # and the unit off-diagonals of the circulant are pinned by the jets
    rng = np.random.default_rng(10 * m + r)
    for _ in range(3):
        rho = float(rng.uniform(0.7, 2.0))
        c2 = float(rng.uniform(-0.6, 0.2))
        spec = regular_polygon_spec(m, rho, c2)
        s_param, ell = dihedral_parameters(spec)
        np.testing.assert_allclose(
            dihedral_inverse(m, r, s_param, ell),
            np.linalg.inv(dihedral_length_hessian_by_jets(spec, r)),
            rtol=1e-10,
            atol=1e-12,
        )


@pytest.mark.parametrize("m,r", [(2, 1), (3, 1), (3, 2), (5, 1)])
def test_dihedral_inverse_entry(m, r):
    spec = regular_polygon_spec(m, 1.3, -0.45)
    s_param, ell = dihedral_parameters(spec)
    inv = np.linalg.inv(dihedral_length_hessian_by_jets(spec, r))
    n = m * r
    for p in (1, 2):
        for q in range(1, n + 1):
            assert dihedral_inverse_entry(m, r, s_param, ell, p, q) == pytest.approx(
                inv[p - 1, q - 1], rel=1e-10, abs=1e-12
            )


def test_dihedral_m2_reduces_to_bouncing_ball():
    # m = 2 dihedral and the updown spec describe the same table; the two
    # Hessians agree up to conjugation by diag(1, -1, ...): |entries| equal
    rho, c2 = 1.1, -0.3
    spec = regular_polygon_spec(2, rho, c2)
    s_param, _ = dihedral_parameters(spec)
    di = dihedral_length_hessian_by_jets(spec, 3)
    ud = DomainSpec(kind="updown", L=spec.L, f=BoundaryArc((spec.L / 2, 0.0, c2)))
    bb = hessian_matrix(CirculantHessian.from_spec(ud, 3))
    assert s_param == pytest.approx(-CirculantHessian.from_spec(ud, 3).a)
    np.testing.assert_allclose(np.abs(di), np.abs(bb), atol=1e-12)
    np.testing.assert_allclose(np.diag(di), np.diag(bb), atol=1e-12)
    signs = np.array([(-1.0) ** p for p in range(6)])
    np.testing.assert_allclose(di, signs[:, None] * bb * signs[None, :], atol=1e-12)
