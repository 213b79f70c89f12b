"""Acceptance gate: the ten headline properties, one test each, in order.

Tests #1, #4, #5, #6 and #8 run the identity suites of `wavetrace.checks`,
the ones `wavetrace verify` runs, at the gate's own seeds and sizes, and
require every row to be within its tolerance; the other tests pin their
tolerances themselves.  The timed ones assert their own runtime budgets.
Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per property.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.special import eval_chebyt

from conftest import EXCEPTIONAL_FLOQUET, random_dihedral_spec, random_mirror_spec
from wavetrace import checks
from wavetrace.domain import BoundaryArc, DomainSpec, ObstructionError
from wavetrace.feynman import FeynmanGraph, amplitude, enumerate_graphs
from wavetrace.hessian import (
    CirculantHessian,
    bad_set,
    badset_report,
    cubic_sum,
    hessian_matrix,
    inverse_fourier,
    inverse_matrix,
    parity_sums,
    stacked_parity_sums,
)
from wavetrace.invariants import (
    build_principal,
    contributing_graphs,
    forward_table,
    invariant_full,
    invariant_top,
)
from wavetrace.inverse import convex_representative, recover


def _h(r, a, L=1.0, b=None):
    return CirculantHessian(r=r, L=L, a=a, b=a if b is None else b)


def _shift(spec, which, k, delta):
    arc = spec.f if which == "top" else spec.f_minus
    shifted = arc.with_derivative(k, arc.derivative(k) + delta)
    return dataclasses.replace(spec, **{("f" if which == "top" else "f_minus"): shifted})


def _assert_rows_pass(rows):
    failed = [row for row in rows if not row["residual"] <= row["tolerance"]]
    assert not failed, failed


def _centered(fn, spec, which, k, delta=1e-3):
    return (fn(_shift(spec, which, k, delta)) - fn(_shift(spec, which, k, -delta))) / (
        2.0 * delta
    )


# 1 -------------------------------------------------------------------------


def test_circulant_inverse_routes_agree_through_r25():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    _assert_rows_pass(checks.circulant_suite(rng, r_values=range(1, 26), draws=50))
    assert time.perf_counter() - start < 10.0


# 2 -------------------------------------------------------------------------


def test_closed_form_inverse_displays():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = float(rng.uniform(2.2, 6.0) * rng.choice([-1.0, 1.0]))
        L = float(rng.uniform(0.5, 3.0))
        # two-bounce inverse: -L/(a^2-4) [[a, -2], [-2, a]]
        h2 = inverse_matrix(_h(1, a, L=L), method="fourier")
        want2 = -L / (a * a - 4.0) * np.array([[a, -2.0], [-2.0, a]])
        assert np.abs(h2 - want2).max() <= 1e-12 * np.abs(want2).max()
        # four-bounce inverse, first row: -L/(a^4-4a^2) (a^3-2a, -a^2, 2a, -a^2)
        row = np.array([inverse_fourier(_h(2, a, L=L), 1, q) for q in (1, 2, 3, 4)])
        want4 = -L / (a**4 - 4 * a**2) * np.array(
            [a**3 - 2.0 * a, -(a**2), 2.0 * a, -(a**2)]
        )
        assert np.abs(row - want4).max() <= 1e-12 * np.abs(want4).max()

    for r in (1, 2, 3, 5, 8):
        for a in (2.7, -3.3, 4.1):
            L = 1.7
            h = _h(r, a, L=L)
            # each inverse row sums to -L/(a+2)
            _, s1, _ = parity_sums(h)
            assert s1[0].sum() == pytest.approx(-L / (a + 2.0), abs=1e-10)
            # the dense determinant against det H_2r = -L^-2r (2 - 2 T_2r(-a/2))
            want = -(L ** (-2 * r)) * (2.0 - 2.0 * float(eval_chebyt(2 * r, -a / 2.0)))
            assert float(np.linalg.det(hessian_matrix(h))) == pytest.approx(want, rel=1e-10)

    # diagonal entry via the cotangent of the rotation angle, elliptic range
    L = 2.1
    for a in (-1.3, -0.5, 0.83, 1.7):
        alpha = 2.0 * math.acos(-a / 2.0)
        for r in (1, 2, 3, 4):
            if abs(math.sin(r * alpha / 2.0)) < 1e-3:
                continue
            want = -L / (2.0 * math.sin(alpha / 2.0)) / math.tan(r * alpha / 2.0)
            assert inverse_fourier(_h(r, a, L=L), 1, 1) == pytest.approx(
                want, rel=1e-10
            )

    # parity: like-parity diagonal entries agree; swapping the two arc
    # parameters swaps the two diagonal values
    inv_ab = inverse_matrix(_h(3, 1.4, b=3.3), method="dense")
    inv_ba = inverse_matrix(_h(3, 3.3, b=1.4), method="dense")
    d_ab, d_ba = np.diag(inv_ab), np.diag(inv_ba)
    assert np.abs(d_ab[0::2] - d_ab[0]).max() <= 1e-10 * abs(d_ab[0])
    assert np.abs(d_ab[1::2] - d_ab[1]).max() <= 1e-10 * abs(d_ab[1])
    assert d_ab[0] == pytest.approx(d_ba[1], rel=1e-10)
    assert d_ab[1] == pytest.approx(d_ba[0], rel=1e-10)


# 3 -------------------------------------------------------------------------


def test_exceptional_set_and_cubic_sums():
    roots = sorted(bad_set())
    assert len(roots) == 4
    assert np.abs(np.array(roots) - np.array([-2.0, -1.0, 0.0, 2.0])).max() <= 1e-9
    assert badset_report()["factorization_residual"] < 1e-10

    for a in (2.7, -3.1, 4.3, -5.2):
        for L in (1.0, 2.3):
            got1 = cubic_sum(_h(1, a, L=L), method="direct")
            assert got1 == pytest.approx(
                (-L / (a * a - 4.0)) ** 3 * (a**3 - 8.0), rel=1e-10
            )
        got2 = cubic_sum(_h(2, a, L=1.4), method="direct")
        want2 = (-1.4 / (a**4 - 4 * a**2)) ** 3 * (
            a**9 - 6 * a**7 - 2 * a**6 + 12 * a**5
        )
        assert got2 == pytest.approx(want2, rel=1e-10)

    rng = np.random.default_rng(33)
    for r in range(1, 13):
        drawn = 0
        while drawn < 5:
            a = float(rng.uniform(-6.0, 6.0))
            h = _h(r, a)
            try:
                direct = cubic_sum(h, method="direct")
            except ObstructionError:
                continue
            drawn += 1
            double_sum = cubic_sum(h, method="dedekind")
            assert abs(double_sum - direct) <= 1e-9 * max(1.0, abs(direct))


# 4 -------------------------------------------------------------------------


def test_length_hessian_matches_poincare_determinant():
    _assert_rows_pass(checks.poincare_suite(r_max=4))


# 5 -------------------------------------------------------------------------


def test_diagram_sum_matches_operator_on_random_problems():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    _assert_rows_pass(checks.feynman_suite(rng, problems=200, n_max=4))
    assert time.perf_counter() - start < 60.0


# 6 -------------------------------------------------------------------------


def test_expansion_error_halves_at_the_predicted_rate():
    _assert_rows_pass(checks.decay_suite())


# 7 -------------------------------------------------------------------------


def test_sensitivity_coefficients_and_vanishing_rows():
    L = 2.0
    symmetric = DomainSpec(
        "updown",
        L,
        BoundaryArc((L / 2, 0.0, -0.31, 0.12, 0.05, -0.033, 0.021, 0.011, -0.017, 0.009, 0.004)),
    )
    nonsymmetric = DomainSpec(
        "twoarc",
        L,
        BoundaryArc((L / 2, 0.0, -0.31, 0.12, 0.05, -0.033, 0.021, 0.011, -0.017, 0.009, 0.004)),
        BoundaryArc((-L / 2, 0.0, 0.22, -0.26, 0.05, 0.03, -0.01, 0.008, 0.013, -0.005, 0.002)),
    )
    for spec in (symmetric, nonsymmetric):
        arcs = ("top",) if spec.kind == "updown" else ("top", "bottom")
        for r in (1, 2):
            for j in (2, 3, 4):
                top = lambda s: invariant_top(s, r, j)
                full = lambda s: invariant_full(s, r, j)
                for which in arcs:
                    for k in (2 * j, 2 * j - 1):
                        # the invariants are polynomial (degree <= 2) in each
                        # top datum, so a wide centered step is still exact
                        # and keeps rounding noise far below the coefficient
                        want = _centered(top, spec, which, k, delta=0.25)
                        got = _centered(full, spec, which, k, delta=0.25)
                        assert abs(got - want) <= 1e-7 * max(abs(want), 1e-12)
                # data beyond the top order leave the invariant unchanged
                base = full(spec)
                for k in (2 * j + 1, 2 * j + 2):
                    if spec.f.order >= k:
                        moved = full(_shift(spec, "top", k, 0.5))
                        assert abs(moved - base) <= 1e-10 * max(abs(base), 1.0)

    # the order-one census at j = 2 has five rows; the maximal derivative
    # f^(4)(0) rides on one of them, f^(3)(0) on two, and the other rows are
    # silent.  Each graph's value is a polynomial of degree <= 2 in either
    # datum, so a unit centered step gives its exact sensitivity.
    graphs = enumerate_graphs(1)
    assert len(graphs) == 5

    def values(spec):
        problem = build_principal(spec, 1, 4).problem()
        return np.array([amplitude(g, problem) for g in graphs])

    def carriers(sens):
        return {g for g, x in zip(graphs, sens) if x > 1e-9 * max(sens.max(), 1.0)}

    even = np.abs(_centered(values, symmetric, "top", 4, delta=1.0))
    odd = np.abs(_centered(values, symmetric, "top", 3, delta=1.0))
    flower, chain, triple = contributing_graphs(2)
    silent = {FeynmanGraph((), 1, ()), FeynmanGraph(((1, 1),), 0, ((0,),)), flower}
    assert set(graphs) == silent | {chain, triple}
    assert carriers(even) == {flower}
    assert carriers(odd) == {chain, triple}
    assert all(x <= 1e-12 for g, x in zip(graphs, odd) if g in silent)


# 8 -------------------------------------------------------------------------


def test_amplitude_identity_suite():
    _assert_rows_pass(checks.amplitude_suite())


# 9 -------------------------------------------------------------------------


def test_inverse_round_trips_across_the_three_classes():
    start = time.perf_counter()

    rng = np.random.default_rng(99)
    for i in range(50):
        spec = random_mirror_spec(rng)
        table = forward_table(spec, 3, 5)
        assert table.symmetry_class == "updown"
        result = recover(table, 5)
        want = convex_representative(spec, 10)
        for k, value in want.items():
            assert abs(result.taylor[k] - value) <= 1e-8 * max(abs(value), 1.0)

    for i in range(50):
        spec = random_mirror_spec(rng, even_only=True)
        table = forward_table(spec, 3, 5)
        assert table.symmetry_class == "twoarc-symmetric"
        result = recover(table, 5)
        want = convex_representative(spec, 10)
        for k, value in want.items():
            assert abs(result.taylor[k] - value) <= 1e-8 * max(abs(value), 1.0)

    for i in range(50):
        m = (2, 3, 5)[i % 3]
        spec = random_dihedral_spec(rng, m)
        table = forward_table(spec, 3, 5)
        assert table.symmetry_class == f"dihedral-{m}"
        result = recover(table, 5)
        for k in range(2, 11):
            want = spec.f.derivative(k) if k % 2 == 0 else 0.0
            assert abs(result.taylor[k] - want) <= 1e-8 * max(abs(want), 1.0)

    # obstruction inputs end in a named error, never in numbers
    L = 2.0
    tail = (0.05, 0.05, -0.033, 0.021, 0.011, -0.017, 0.009, 0.004)
    for a in EXCEPTIONAL_FLOQUET:
        spec = DomainSpec(
            "updown", L, BoundaryArc((L / 2, 0.0, -(a + 2.0) / (4.0 * L)) + tail)
        )
        with pytest.raises(ObstructionError) as err:
            recover(forward_table(spec, 3, 5), 5)
        assert err.value.name in ("singular-decoupling", "symbol-pole")

    # a flat-cubic table read as mirror-symmetric, as `invert --class updown`
    flat_cubic = forward_table(random_mirror_spec(rng, even_only=True), 3, 5)
    with pytest.raises(ObstructionError) as err:
        recover(dataclasses.replace(flat_cubic, symmetry_class="updown"), 5)
    assert err.value.name == "vanishing-cubic"

    assert time.perf_counter() - start < 120.0


# 10 ------------------------------------------------------------------------


def test_decoupling_determinants_and_exceptional_ratios():
    rng = np.random.default_rng(123)
    drawn = 0
    while drawn < 100:
        a = float(rng.uniform(-5.0, 5.0))
        if min(abs(a - b) for b in EXCEPTIONAL_FLOQUET) < 1e-3:
            continue
        drawn += 1
        # the rows ((h^11)^2, F_3) of the iterates r <= 6 clear of a pole;
        # some pair of them has a determinant clear of zero
        (diagonal, _, s3), _ = stacked_parity_sums(1.0, a, a, range(1, 7), s1=False)
        rows = np.stack((diagonal[:, 0] ** 2, s3[:, 0].sum(axis=1)), axis=1)
        dets = [
            rows[i, 0] * rows[k, 1] - rows[k, 0] * rows[i, 1]
            for i in range(len(rows))
            for k in range(i + 1, len(rows))
        ]
        assert max(map(abs, dets)) > 1e-8

    # on the exceptional set the two families are proportional: the ratio
    # is the same for every iterate where the entries exist (at a = 0 the
    # diagonal entry vanishes identically, so take it in the numerator)
    for a in (0.0, -1.0):
        ratios = []
        for r in range(1, 7):
            try:
                h = _h(r, a)
                f3 = cubic_sum(h, method="direct")
                h11 = inverse_fourier(h, 1, 1)
            except ObstructionError:
                continue
            ratios.append(h11**2 / f3)
        assert len(ratios) >= 3
        spread = max(ratios) - min(ratios)
        assert spread <= 1e-9 * max(1.0, max(abs(x) for x in ratios))
