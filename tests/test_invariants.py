"""Orbit invariants: principal terms, closed forms, and the diagram route."""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy._core.einsumfunc as einsumfunc
import pytest

from wavetrace import billiard, feynman, hessian, invariants, inverse, jets
from wavetrace.billiard import bounce_sequence, charts, length_jet
from wavetrace.domain import (
    MAX_BOUNCES,
    BoundaryArc,
    DomainSpec,
    ObstructionError,
    dihedral_parameters,
)
from wavetrace.feynman import FeynmanGraph, amplitude, automorphism_order, enumerate_graphs
from wavetrace.hessian import (
    CirculantHessian,
    cubic_sum,
    hessian_matrix,
    inverse_fourier,
    inverse_matrix,
    parity_sums,
)
from wavetrace.invariants import (
    InvariantTable,
    build_principal,
    contributing_graphs,
    contributing_weights,
    forward_table,
    invariant_full,
    invariant_top,
    max_iterate,
    principal_leading_value,
)
from wavetrace.inverse import recover
from wavetrace.jets import MultiJet, derivative_tensor, extract_partial, jet_power

TOP_TAYLOR = (1.0, 0.0, -0.21, 0.05, 0.013, -0.007, 0.002, 0.0011, -0.0004,
              0.0002, -0.00008)
BOT_TAYLOR = (-1.0, 0.0, 0.17, 0.03, -0.011, 0.004, -0.0015, 0.0007, 0.0002,
              -0.0001, 0.00004)


def twoarc_spec(L=2.0):
    top = (L / 2,) + TOP_TAYLOR[1:]
    bot = (-L / 2,) + BOT_TAYLOR[1:]
    return DomainSpec("twoarc", L, BoundaryArc(top), BoundaryArc(bot))


def updown_spec(L=2.0):
    return DomainSpec("updown", L, BoundaryArc((L / 2,) + TOP_TAYLOR[1:]))


def dihedral_spec(m, L=3.0, extra=()):
    c0 = L / (m * math.sin(math.pi / m))
    taylor = (c0, 0.0, -0.11, 0.0, 0.009, 0.0, -0.0004, 0.0, 0.0001) + tuple(extra)
    return DomainSpec("dihedral", L, BoundaryArc(taylor), m=m)


def shift_derivative(spec, which, k, delta):
    arc = spec.f if which == "top" else spec.f_minus
    shifted = arc.with_derivative(k, arc.derivative(k) + delta)
    field = "f" if which == "top" else "f_minus"
    return dataclasses.replace(spec, **{field: shifted})


def fd_sensitivity(fn, spec, which, k, delta=1e-3):
    """Central difference; invariants are polynomial in each datum, so this
    is exact up to rounding."""
    hi = fn(shift_derivative(spec, which, k, delta))
    lo = fn(shift_derivative(spec, which, k, -delta))
    return (hi - lo) / (2.0 * delta)


# ---------------------------------------------------------------------------
# the principal term


@pytest.mark.parametrize("r", [1, 2, 3])
def test_leading_amplitude_value(r):
    for spec in (twoarc_spec(), updown_spec(L=1.7)):
        term = build_principal(spec, r, 4)
        lead = principal_leading_value(r, spec.L)
        assert lead == 2 * r * spec.L * spec.L ** (-r) * (1j / (2 * math.pi)) ** r
        assert abs(term.amplitude_jets.value - lead) < 1e-12 * abs(lead)
        # both gradients vanish identically, not just numerically
        assert np.all(derivative_tensor(term.amplitude_jets, 1) == 0.0)
        assert np.all(derivative_tensor(term.phase_jets, 1) == 0.0)


@pytest.mark.parametrize("r", [1, 2])
def test_phase_hessian_matches_circulant(r):
    for spec in (twoarc_spec(), updown_spec()):
        term = build_principal(spec, r, 4)
        expected = hessian_matrix(CirculantHessian.from_spec(spec, r))
        assert np.allclose(
            derivative_tensor(term.phase_jets, 2), expected, rtol=0.0, atol=1e-12
        )


def test_phase_pure_third_derivative_identity():
    spec = twoarc_spec()
    term = build_principal(spec, 2, 4)
    arcs = (spec.upper, spec.lower)
    n = 4
    for p in range(n):
        sign = 1.0 if p % 2 == 0 else -1.0
        alpha = [0] * n
        alpha[p] = 3
        assert extract_partial(term.phase_jets, alpha) == pytest.approx(
            2.0 * sign * arcs[p % 2].derivative(3), abs=1e-14
        )
    # mixed third derivatives at the orbit vanish outright
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            alpha = [0] * n
            alpha[p], alpha[q] = 2, 1
            assert extract_partial(term.phase_jets, alpha) == 0.0


def test_amplitude_low_jets_free_of_top_data():
    # the order-(2j-2) amplitude jet of an order-2j build cannot see
    # f^(2j-1) or f^(2j), which its phase reads
    spec = twoarc_spec()
    j = 3
    base = build_principal(spec, 1, 2 * j).amplitude_jets
    assert base.max_degree == 2 * j - 2
    for k in (2 * j - 1, 2 * j):
        moved = shift_derivative(spec, "top", k, 0.5)
        other = build_principal(moved, 1, 2 * j).amplitude_jets
        assert np.array_equal(base.coeffs, other.coeffs)


def test_build_principal_errors():
    with pytest.raises(ValueError, match="two-arc"):
        build_principal(dihedral_spec(3), 1, 4)
    with pytest.raises(ValueError, match="r must be"):
        build_principal(twoarc_spec(), 0, 4)
    with pytest.raises(ValueError, match="order"):
        build_principal(twoarc_spec(), 1, 1)
    with pytest.raises(ValueError, match="insufficient jet order"):
        build_principal(twoarc_spec(), 1, 14)


# ---------------------------------------------------------------------------
# weights


def test_weights_are_reciprocal_automorphism_orders():
    for j in range(2, 6):
        flower, chain, triple = contributing_graphs(j)
        assert flower.order == j - 1 == chain.order == triple.order
        w1, w2, w3 = contributing_weights(j)
        assert w1 == 1.0 / automorphism_order(flower)
        assert w2 == 1.0 / automorphism_order(chain)
        assert w3 == 1.0 / automorphism_order(triple)
    assert contributing_weights(1) == (0.5, 0.0, 0.0)
    assert contributing_weights(2) == (0.125, 0.125, 1.0 / 12.0)
    with pytest.raises(ValueError):
        contributing_weights(0)


# ---------------------------------------------------------------------------
# the two routes agree where they must


@pytest.mark.parametrize("r,j", [(1, 2), (1, 3), (2, 2)])
def test_sensitivities_match_closed_form(r, j):
    spec = twoarc_spec()
    for which in ("top", "bot"):
        for k in (2 * j, 2 * j - 1):
            full = fd_sensitivity(lambda s: invariant_full(s, r, j), spec, which, k)
            top = fd_sensitivity(lambda s: invariant_top(s, r, j), spec, which, k)
            assert abs(full - top) < 1e-9 * max(abs(top), 1e-12)


def test_symmetric_spec_odd_sensitivity_carries_cubic():
    # with f''' = 0 on both arcs the f^(2j-1) sensitivity dies
    taylor = list(TOP_TAYLOR)
    taylor[3] = 0.0
    spec = DomainSpec("updown", 2.0, BoundaryArc(tuple(taylor)))
    j = 2
    sens = fd_sensitivity(lambda s: invariant_top(s, 1, j), spec, "top", 2 * j - 1)
    assert abs(sens) < 1e-14
    sens_full = fd_sensitivity(
        lambda s: invariant_full(s, 1, j), spec, "top", 2 * j - 1
    )
    assert abs(sens_full) < 1e-12


def test_mirror_word_gives_identical_values():
    # swapping the two arcs through y -> -y relabels the bounce word and
    # must not move either route
    spec = twoarc_spec()
    mirrored = DomainSpec(
        "twoarc", spec.L, spec.f_minus.negated(), spec.f.negated()
    )
    for r, j in [(1, 2), (2, 3)]:
        a, b = invariant_top(spec, r, j), invariant_top(mirrored, r, j)
        assert abs(a - b) < 1e-12 * abs(a)
    a, b = invariant_full(spec, 1, 2), invariant_full(mirrored, 1, 2)
    assert abs(a - b) < 1e-12 * abs(a)


def test_reflection_invariance():
    spec = twoarc_spec()
    reflected = DomainSpec(
        "twoarc", spec.L, spec.f.reflected(), spec.f_minus.reflected()
    )
    for r, j in [(1, 2), (2, 2)]:
        a, b = invariant_top(spec, r, j), invariant_top(reflected, r, j)
        assert abs(a - b) < 1e-12 * abs(a)
    a, b = invariant_full(spec, 1, 3), invariant_full(reflected, 1, 3)
    assert abs(a - b) < 1e-11 * abs(a)


@pytest.mark.parametrize("j", [2, 3])
def test_homogeneity_under_dilation(j):
    # scaling the whole table by lambda sends f^(k) -> lambda^(1-k) f^(k)
    # and L -> lambda L; invariants normalized by the leading amplitude
    # scale by lambda^(1-j), one more 1/L makes that lambda^-j
    lam = 1.7
    spec = twoarc_spec()
    scaled = DomainSpec(
        "twoarc",
        lam * spec.L,
        BoundaryArc(tuple(lam ** (1 - k) * c for k, c in enumerate(TOP_TAYLOR))),
        BoundaryArc(tuple(lam ** (1 - k) * c for k, c in enumerate(BOT_TAYLOR))),
    )
    r = 2
    base = invariant_top(spec, r, j) / principal_leading_value(r, spec.L)
    moved = invariant_top(scaled, r, j) / principal_leading_value(r, scaled.L)
    assert moved == pytest.approx(lam ** (1 - j) * base, rel=1e-10)
    assert moved / scaled.L == pytest.approx(
        lam**-j * (base / spec.L), rel=1e-10
    )


@pytest.mark.parametrize("r,j", [(1, 2), (2, 2), (2, 3)])
def test_symmetric_reduction_row_sums(r, j):
    # for a symmetric table the double sums collapse to the row sum and
    # the cubic sum of a single inverse row
    spec = updown_spec()
    h = CirculantHessian.from_spec(spec, r)
    h11 = inverse_fourier(h, 1, 1)
    _, s1, _ = parity_sums(h)
    row_total = s1[0].sum()
    w1, w2, w3 = contributing_weights(j)
    f = spec.f
    even = w1 * h11**j * 4 * r * f.derivative(2 * j)
    odd = (
        f.derivative(2 * j - 1)
        * f.derivative(3)
        * 2
        * r
        * (w2 * h11**j * row_total + w3 * h11 ** (j - 2) * cubic_sum(h))
    )
    lead = principal_leading_value(r, spec.L)
    expected = 2.0 * 1j ** (j + 1) * lead * (even - 4.0 * odd)
    assert invariant_top(spec, r, j) == pytest.approx(expected, rel=1e-10)


def _dense_top(spec, r, j):
    """The closed form of `invariant_top` summed over every bounce pair,
    from the dense inverse of the Hessian."""
    hinv = inverse_matrix(CirculantHessian.from_spec(spec, r), "dense")
    n = 2 * r
    diag = np.diag(hinv)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    arcs = (spec.upper, spec.lower)
    w1, w2, w3 = contributing_weights(j)
    even_data = np.array([arcs[p % 2].derivative(2 * j) for p in range(n)])
    even_term = w1 * np.sum(diag**j * 2.0 * signs * even_data)
    odd_term = 0.0
    if j >= 2:
        odd_data = np.array([arcs[p % 2].derivative(2 * j - 1) for p in range(n)])
        cubic_data = np.array([arcs[p % 2].derivative(3) for p in range(n)])
        pair = w2 * np.outer(diag ** (j - 1), diag) * hinv
        pair += w3 * np.outer(diag ** (j - 2), np.ones(n)) * hinv**3
        odd_term = (signs * odd_data) @ pair @ (signs * cubic_data)
    lead = principal_leading_value(r, spec.L)
    return 2.0 * 1j ** (j + 1) * lead * (even_term - 4.0 * odd_term)


@pytest.mark.parametrize("spec", [twoarc_spec(), updown_spec()], ids=["twoarc", "updown"])
def test_top_closed_form_matches_dense_pair_sum(spec):
    for r in (1, 2, 3, 7, 25):
        for j in range(1, 6):
            want = _dense_top(spec, r, j)
            assert invariant_top(spec, r, j) == pytest.approx(want, rel=1e-10)


def test_top_tables_and_recovery_build_no_dense_matrix(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("dense Hessian matrix built")

    monkeypatch.setattr(invariants, "inverse_matrix", dense, raising=False)
    monkeypatch.setattr(hessian, "inverse_matrix", dense)
    monkeypatch.setattr(hessian, "hessian_matrix", dense)
    assert len(forward_table(twoarc_spec(), 25, 5).entries) == 125
    result = recover(forward_table(updown_spec(), 25, 5), 5)
    assert sorted(result.taylor) == list(range(2, 11))


def test_j1_uses_only_the_even_datum():
    spec = twoarc_spec()
    moved = shift_derivative(spec, "top", 3, 0.4)
    assert invariant_top(spec, 1, 1) == invariant_top(moved, 1, 1)
    # and the j = 1 full coefficient is the bare doubled amplitude
    for s in (spec, updown_spec(L=1.3)):
        for r in (1, 2):
            assert invariant_full(s, r, 1) == pytest.approx(
                2.0 * principal_leading_value(r, s.L), rel=1e-12
            )


@pytest.mark.parametrize("k_offset", [1, 2])
def test_full_insensitive_beyond_top(k_offset):
    spec = twoarc_spec()
    j = 3
    base = invariant_full(spec, 1, j)
    moved = invariant_full(shift_derivative(spec, "top", 2 * j + k_offset, 0.7), 1, j)
    assert abs(moved - base) <= 1e-10 * abs(base)


# ---------------------------------------------------------------------------
# dihedral family


@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_dihedral_matches_two_arc_at_m2(j, r):
    # an m = 2 dihedral domain is an up-down symmetric table; the two
    # closed forms then differ by the fixed prefactor 4 w1 i^(j+1) A_r
    L = 3.0
    di = dihedral_spec(2, L=L)
    ud = DomainSpec("updown", L, di.f)
    w1 = contributing_weights(j)[0]
    factor = 4.0 * w1 * 1j ** (j + 1) * principal_leading_value(r, L)
    lhs = invariant_top(ud, r, j)
    rhs = factor * forward_table(di, r, j).entry(r, j)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_dihedral_linearity_and_structure():
    spec = dihedral_spec(3)
    j = 2
    base = forward_table(spec, 2, j).entry(2, j)
    moved_spec = dataclasses.replace(
        spec, f=spec.f.with_derivative(2 * j, spec.f.derivative(2 * j) + 1.0)
    )
    moved = forward_table(moved_spec, 2, j).entry(2, j)
    from wavetrace.hessian import dihedral_inverse_entry

    s_param, link = dihedral_parameters(spec)
    h11 = dihedral_inverse_entry(3, 2, s_param, link, 1, 1)
    assert moved - base == pytest.approx(3 * 2 * h11**j, rel=1e-12)
    # j = 1 is the bare second derivative against the Hessian diagonal
    assert forward_table(spec, 1, 1).entry(1, 1) == pytest.approx(
        3 * dihedral_inverse_entry(3, 1, s_param, link, 1, 1) * spec.f.derivative(2),
        rel=1e-12,
    )


def test_dihedral_route_guards():
    with pytest.raises(ValueError, match="two-arc.*forward_table"):
        invariant_top(dihedral_spec(3), 1, 2)
    with pytest.raises(ObstructionError) as err:
        invariant_full(dihedral_spec(3), 1, 2)
    assert err.value.name == "unsupported" and "forward_table" in str(err.value)


# ---------------------------------------------------------------------------
# which graphs carry the top data


@pytest.mark.parametrize("j", [2, 3])
def test_five_row_table(j):
    # each order-(j-1) graph value is a polynomial of degree <= 2 in either
    # top datum, so a unit centered step gives its exact sensitivity
    spec = updown_spec()
    graphs = enumerate_graphs(j - 1)

    def values(shifted):
        problem = build_principal(shifted, 1, 2 * j).problem()
        return np.array([amplitude(g, problem) for g in graphs])

    def carriers(sens):
        return {g for g, x in zip(graphs, sens) if x > 1e-9 * max(sens.max(), 1.0)}

    even = np.abs(fd_sensitivity(values, spec, "top", 2 * j, delta=1.0))
    odd = np.abs(fd_sensitivity(values, spec, "top", 2 * j - 1, delta=1.0))
    flower, chain, triple = contributing_graphs(j)
    open_loops = FeynmanGraph((), j - 1, ())
    stubbed = FeynmanGraph(((j - 1, 1),), 0, ((0,),))
    table = {flower, chain, triple, open_loops, stubbed}
    assert len(table) == 5 and table <= set(graphs)

    # the even datum lives on the flower alone; the odd one on the two
    # double-vertex graphs; the other three rows of the table are silent
    assert carriers(even) == {flower}
    assert carriers(odd) == {chain, triple}
    silent = {open_loops, flower, stubbed}
    assert all(x <= 1e-12 for g, x in zip(graphs, odd) if g in silent)
    if j == 2:
        assert len(graphs) == 5  # at order one the table is the whole census


# ---------------------------------------------------------------------------
# tables


def even_updown_spec(L=2.0):
    """Mirror symmetry plus an even arc: the "twoarc-symmetric" class."""
    even = tuple(c if k % 2 == 0 else 0.0 for k, c in enumerate(TOP_TAYLOR))
    return DomainSpec("updown", L, BoundaryArc((L / 2,) + even[1:]))


def test_forward_table_matches_pointwise():
    # the table evaluates each order over all iterates at once, invariant_top
    # one iterate at a time: the same value to the last bit
    for spec, label in ((updown_spec(), "updown"), (twoarc_spec(), "twoarc"),
                        (even_updown_spec(), "twoarc-symmetric")):
        table = forward_table(spec, 100, 5)
        assert table.normalization == "TopOnly"
        assert table.symmetry_class == label
        assert set(table.entries) == {(r, j) for r in range(1, 101) for j in range(1, 6)}
        for (r, j), value in table.entries.items():
            assert repr(value) == repr(invariant_top(spec, r, j)), (label, r, j)

    spec = twoarc_spec()
    full = forward_table(spec, 1, 2, normalization="FullPrincipal")
    assert full.entry(1, 2) == invariant_full(spec, 1, 2)

    di = forward_table(dihedral_spec(3), 2, 2)
    assert di.symmetry_class == "dihedral-3"
    s_param, link = dihedral_parameters(dihedral_spec(3))
    h11 = hessian.dihedral_inverse_entry(3, 2, s_param, link, 1, 1)
    assert di.entry(2, 2) == complex(3 * 2 * h11**2 * dihedral_spec(3).f.derivative(4))
    with pytest.raises(ObstructionError):
        forward_table(dihedral_spec(3), 1, 1, normalization="FullPrincipal")


def test_top_table_evaluates_the_closed_form_once_per_order(monkeypatch):
    calls = []
    inner = invariants._top_values

    def counted(leads, rs, j, *args):
        calls.append((len(rs), j))
        return inner(leads, rs, j, *args)

    monkeypatch.setattr(invariants, "_top_values", counted)
    forward_table(updown_spec(), 100, 5)
    assert calls == [(100, j) for j in range(1, 6)]


def _table_text(table):
    return json.dumps(table.to_json(), sort_keys=True, indent=2) + "\n"


def test_table_writer_matches_the_json_encoder():
    top = forward_table(updown_spec(), 7, 5)
    tables = [
        top,
        forward_table(updown_spec(), 2, 3, normalization="FullPrincipal"),
        forward_table(dihedral_spec(4), 3, 4),
        dataclasses.replace(top, entries={
            (1, 1): complex(-0.0, 5e-324), (1, 2): complex(1e-300, -1e250),
            (2, 1): complex(1e250, -0.0), (3, 2): complex(0.0, -5e-324),
        }),
    ]
    for table in tables:
        text = table.to_json_text()
        assert text == _table_text(table)
        assert InvariantTable.from_json(json.loads(text)) == table
    empty = InvariantTable(2.0, -1.0, "updown", "TopOnly", {})
    assert empty.to_json_text() == _table_text(empty)


def test_top_table_refuses_an_interior_pole_before_any_entry(monkeypatch):
    # a = -2 cos(5 pi / 37) is a symbol pole of r = 37 (and 74), none below
    def evaluate(*args):
        raise AssertionError("an entry was evaluated")

    monkeypatch.setattr(invariants, "_top_values", evaluate)
    a = -2.0 * math.cos(5 * math.pi / 37)
    base = updown_spec()
    spec = dataclasses.replace(base, f=base.f.with_derivative(2, -(a + 2.0) / (2.0 * base.L)))
    assert CirculantHessian.from_spec(spec, 1).a == pytest.approx(a, abs=1e-15)
    with pytest.raises(ObstructionError) as err:
        forward_table(spec, 100, 5)
    assert err.value.name == "symbol-pole"
    assert "r = 37," in str(err.value)


def test_resonant_iterate_is_a_symbol_pole_in_forward_and_hessian():
    # a = 0 puts a pole at r = 2, k = 1; the forward table and the Hessian
    # routine name it alike
    spec = DomainSpec("updown", 2.0, BoundaryArc((1.0, 0.0, -0.25, 0.05, 0.01, 0.02, -0.01)))
    with pytest.raises(ObstructionError) as forward_err:
        forward_table(spec, 2, 3)
    with pytest.raises(ObstructionError) as row_err:
        parity_sums(CirculantHessian.from_spec(spec, 2))
    assert forward_err.value.name == row_err.value.name == "symbol-pole"


def test_second_full_table_searches_no_contraction_path(monkeypatch):
    # plans are read off the graph, never searched by numpy; each graph
    # class plans its contraction, and each order compiles its program,
    # once per process
    spec = DomainSpec(
        "updown", 2.0, BoundaryArc((1.0, 0.0, 0.6, 0.15, -0.2, 0.1, 0.05, -0.12, 0.2))
    )
    searches = []
    search = einsumfunc.einsum_path

    def counted(*args, **kwargs):
        searches.append(args[0])
        return search(*args, **kwargs)

    # np.einsum(..., optimize=...) calls the module function, not np.einsum_path
    monkeypatch.setattr(einsumfunc, "einsum_path", counted)
    monkeypatch.setattr(np, "einsum_path", counted)
    caches = (feynman._plan, feynman._program)
    for cache in caches:
        cache.cache_clear()
    first = forward_table(spec, 3, 4, "FullPrincipal")
    compiled = [cache.cache_info().misses for cache in caches]
    second = forward_table(spec, 3, 4, "FullPrincipal")
    assert searches == []
    assert min(compiled) > 0 and [cache.cache_info().misses for cache in caches] == compiled
    assert second.entries == first.entries


def test_full_cost_limit(monkeypatch):
    # the largest r_max accepted at each j_max, all measured in MAX_FULL_COST's
    # comment; the test sizes (r <= 3 at j = 4, r <= 4 at j = 3) fall inside
    for j_max, r_max in {1: 51, 2: 13, 3: 7, 4: 5}.items():
        invariants.check_full_cost(r_max, j_max, "r", "j", "full mode")
        with pytest.raises(ValueError, match=f"r {r_max + 1} with j {j_max}.*r <= {r_max}"):
            invariants.check_full_cost(r_max + 1, j_max, "r", "j", "full mode")
    with pytest.raises(ValueError, match="r 1000000000 with j 4 is too large for X.*r <= 5"):
        invariants.check_full_cost(10**9, 4, "r", "j", "X")  # stops at r = 6

    def build(*args):
        raise AssertionError("a principal problem was built")

    monkeypatch.setattr(invariants, "build_principal", build)
    with pytest.raises(ValueError, match="r_max 10 with j_max 4"):
        forward_table(updown_spec(), 10, 4, "FullPrincipal")
    forward_table(updown_spec(), 10, 4)  # TopOnly builds no jets


def test_full_jobs_past_the_census_are_refused_before_any_census(monkeypatch):
    # the cost limit alone admits r_max 1 at j_max 6, whose order-5 census
    # would run for minutes
    def census(order):
        raise AssertionError(f"order-{order} census started")

    spec = updown_spec()
    table = forward_table(spec, 2, 4, "FullPrincipal")
    monkeypatch.setattr(feynman, "_census", census)
    limit = feynman.MAX_CENSUS_ORDER + 1
    with pytest.raises(ValueError, match=f"j_max {limit + 2} .*j_max <= {limit}"):
        forward_table(spec, 1, limit + 2, "FullPrincipal")
    with pytest.raises(ValueError, match=f"J {limit + 1} .*FullPrincipal table.*J <= {limit}"):
        recover(table, limit + 1)
    with pytest.raises(ValueError, match="entries\\[\\]\\.r 10 with J 4"):
        recover(dataclasses.replace(table, entries={**table.entries, (10, 1): 1.0}), 4)
    forward_table(spec, 1, limit + 1)  # TopOnly sums no graphs


def test_top_jobs_start_no_census(monkeypatch):
    # TopOnly weights its closed forms by the |Aut| of three graphs of order
    # j - 1, order 4 at j = 5, each counted from its own table
    def census(order):
        raise AssertionError(f"order-{order} census started")

    counted = []
    edge_symmetries = feynman._edge_symmetries

    def recorded(graph):
        counted.append(graph)
        return edge_symmetries(graph)

    monkeypatch.setattr(feynman, "_census", census)
    monkeypatch.setattr(feynman, "_edge_symmetries", recorded)
    feynman.automorphism_order.cache_clear()
    result = recover(forward_table(updown_spec(), 3, 5), 5)
    assert sorted(result.taylor) == list(range(2, 11))
    assert max(graph.order for graph in counted) == 4
    assert max(graph.num_closed for graph in counted) <= 2


def test_full_table_builds_each_iterate_once(monkeypatch):
    # one principal problem per iterate, at degree 2 j_max, serves every order
    spec = updown_spec()
    want = {(r, j): invariant_full(spec, r, j) for r in (1, 2, 3) for j in (1, 2, 3, 4)}
    degrees = []
    build = invariants.build_principal

    def counted(spec, r, order):
        degrees.append((r, order))
        return build(spec, r, order)

    monkeypatch.setattr(invariants, "build_principal", counted)
    table = forward_table(spec, 3, 4, "FullPrincipal")
    assert degrees == [(1, 8), (2, 8), (3, 8)]
    for key, value in want.items():
        assert table.entry(*key) == pytest.approx(value, rel=1e-13)


# ---------------------------------------------------------------------------
# the chord jets against the all-variable construction


def _all_variable_length(spec, r, degree):
    """Reference only: every chord term built in all n variables."""
    word = bounce_sequence(spec, r)
    n = len(word)
    comps = []
    for p, chart in enumerate(charts(spec)[w] for w in word):
        c, s = math.cos(chart.angle), math.sin(chart.angle)
        x = MultiJet.variable(p, n, degree)
        f = MultiJet.from_univariate(chart.arc.taylor, p, n, degree)
        comps.append((x * c - f * s, x * s + f * c))
    total = MultiJet.zero(n, degree)
    for p in range(n):
        q = (p + 1) % n
        dx = comps[q][0] - comps[p][0]
        dy = comps[q][1] - comps[p][1]
        total = total + jet_power(dx * dx + dy * dy, 0.5)
    return total


def _all_variable_amplitude(spec, r, order):
    """Reference only: the principal amplitude, every chord factor built in
    all 2r variables."""
    n = 2 * r
    arcs = (spec.upper, spec.lower)
    product = MultiJet.constant(1.0 + 0.0j, n, order)
    for p in range(n):
        q = (p + 1) % n
        arc_p, arc_q = arcs[p % 2], arcs[q % 2]
        dx = MultiJet.variable(p, n, order) - MultiJet.variable(q, n, order)
        df = (MultiJet.from_univariate(arc_p.taylor, p, n, order)
              - MultiJet.from_univariate(arc_q.taylor, q, n, order))
        slope = MultiJet.from_univariate(
            [k * arc_p.taylor[k] for k in range(1, len(arc_p.taylor))], p, n, order
        )
        factor = (dx * slope - df) * jet_power(dx * dx + df * df, -0.75)
        product = product * factor * (1.0 if p % 2 == 0 else -1.0)
    return _all_variable_length(spec, r, order) * product * invariants.LINK_CONSTANT_SQ**r


def assert_same_jet(got, want, rel=1e-13):
    assert (got.num_vars, got.max_degree) == (want.num_vars, want.max_degree)
    scale = np.max(np.abs(want.coeffs))
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= rel * scale


@pytest.mark.parametrize(
    "spec, r, degree",
    [(updown_spec(), 1, 8), (updown_spec(), 2, 8), (updown_spec(), 3, 8),
     (twoarc_spec(), 1, 6), (twoarc_spec(), 2, 6)],
    ids=["updown-r1", "updown-r2", "updown-r3", "twoarc-r1", "twoarc-r2"],
)
def test_chord_jets_match_the_all_variable_construction(spec, r, degree):
    # r = 1 includes the wrap-around chord, which joins x_1 to x_0
    term = build_principal(spec, r, degree)
    assert_same_jet(term.phase_jets, _all_variable_length(spec, r, degree))
    assert_same_jet(length_jet(spec, r, degree), _all_variable_length(spec, r, degree))
    # an order-(degree + 2) build carries the amplitude to this degree
    amplitude = build_principal(spec, r, degree + 2).amplitude_jets
    assert_same_jet(amplitude, _all_variable_amplitude(spec, r, degree))


@pytest.mark.parametrize("m", [2, 3])
def test_dihedral_chord_jets_match_the_all_variable_construction(m):
    spec = dihedral_spec(m)
    for r in (1, 2):
        assert_same_jet(length_jet(spec, r, 6), _all_variable_length(spec, r, 6))


def test_full_table_makes_few_full_size_products(monkeypatch):
    # each build multiplies its 2r chord factors and then phase x product at
    # full size; everything else runs on 2-variable chord jets.  At r = 1
    # the full basis is the chord basis, so only r = 2, 3 are told apart.
    counts = collections.Counter()
    mul = jets.jet_mul

    def counted(a, b, degree_cap=None):
        counts[a.num_vars] += 1
        return mul(a, b, degree_cap)

    monkeypatch.setattr(jets, "jet_mul", counted)
    forward_table(updown_spec(), 3, 4, "FullPrincipal")
    for r in (2, 3):
        assert counts[2 * r] <= 2 * r + 1


def _held_arrays(tab):
    """(attribute, array) for each numpy array a jet table holds, directly,
    in lists or in its dict caches of arrays and array tuples."""
    for name, value in vars(tab).items():
        for item in value.values() if isinstance(value, dict) else [value]:
            for a in item if isinstance(item, (tuple, list)) else [item]:
                if isinstance(a, np.ndarray):
                    yield name, a


def test_jet_tables_stay_the_size_of_the_basis():
    # what `jets` keeps per (num_vars, max_degree) is index arrays over the
    # basis, none as long as the product's pair list (125,970 pairs at 6
    # vars, degree 8, against 3003 slots), and a product with the most
    # pairs, of two dense jets, adds nothing.  A derivative-tensor map has
    # num_vars**order entries, the size of the tensor it fills
    forward_table(updown_spec(), 3, 4, "FullPrincipal")
    tables = dict(jets._TABLE_CACHE)
    assert (6, 8) in tables
    for shape, tab in tables.items():
        for name, a in _held_arrays(tab):
            assert name == "_tensor_maps" or a.size <= (tab.num_vars + 1) * tab.size, name

    def held():
        return {shape: [a.nbytes for _, a in _held_arrays(tab)] for shape, tab in tables.items()}

    before = held()
    rng = np.random.default_rng(11)
    for n in (2, 4, 6):  # the forward's shapes, not those other tests left
        a, b = (MultiJet(n, 8, rng.standard_normal(tables[n, 8].size)) for _ in range(2))
        jets.jet_mul(a, b)
        jets.jet_mul(a, b, degree_cap=7)
    assert dict(jets._TABLE_CACHE) == tables
    assert held() == before


def test_the_largest_job_at_j4_fits_its_memory_budget():
    # r <= 5, j <= 4 builds 10-variable jets of degree 8 (43,758 slots); a
    # product table over that basis alone held 3.1 million index triples.
    # Linux carries the spawning process's RSS into a child's ru_maxrss, so
    # the child reads the high-water mark of its own address space (kB)
    code = (
        "import wavetrace.domain as d, wavetrace.invariants as i\n"
        "spec = d.parse_spec('{\"kind\": \"updown\", \"L\": 2.0, \"f\": [1.0, 0.0, -0.31, "
        "0.12, 0.05, -0.033, 0.021, 0.011, -0.017]}')\n"
        "i.forward_table(spec, 5, 4, 'FullPrincipal')\n"
        "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')).split()[1])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(jets.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert int(out.stdout) / 1024 < 200  # MB


# ---------------------------------------------------------------------------
# chord jets shared by chart pair


def _per_chord_principal(spec, r, order):
    """Reference only: phase and amplitude with every chord's 2-variable
    jets built afresh, chord by chord."""
    word = bounce_sequence(spec, r)
    n = len(word)
    chs = charts(spec)

    def point(chart, var):
        c, s = math.cos(chart.angle), math.sin(chart.angle)
        x = MultiJet.variable(var, 2, order)
        f = MultiJet.from_univariate(chart.arc.taylor, var, 2, order)
        return x * c - f * s, x * s + f * c

    length = MultiJet.zero(n, order)
    factors = []
    for p in range(n):
        q = (p + 1) % n
        cha, chb = chs[word[p]], chs[word[q]]
        c, s = math.cos(cha.angle), math.sin(cha.angle)
        (xa, ya), (xb, yb) = point(cha, 0), point(chb, 1)
        dx, dy = xb - xa, yb - ya
        taylor = cha.arc.taylor
        slope = MultiJet.from_univariate(
            [k * taylor[k] for k in range(1, len(taylor))], 0, 2, order
        )
        chord_sq = dx * dx + dy * dy
        cross = (dy * c - dx * s) - (dx * c + dy * s) * slope
        length = length + jets.embed_pair(jet_power(chord_sq, 0.5), p, q, n)
        factor = cross * jet_power(chord_sq, -0.75) * (-1.0) ** p
        factors.append(jets.embed_pair(factor, p, q, n))
    amplitude = (length * math.prod(factors)) * invariants.LINK_CONSTANT_SQ**r
    return length, amplitude


@pytest.mark.parametrize("spec", [updown_spec(), twoarc_spec()], ids=["updown", "twoarc"])
def test_shared_chord_jets_are_the_per_chord_jets_byte_for_byte(spec):
    # an order-8 build keeps the amplitude to degree 6
    billiard._chord_pair.cache_clear()
    for r in (1, 2, 3, 4):
        term = build_principal(spec, r, 8)
        phase = _per_chord_principal(spec, r, 8)[0]
        amplitude = _per_chord_principal(spec, r, 6)[1]
        assert term.phase_jets.coeffs.tobytes() == phase.coeffs.tobytes()
        assert term.amplitude_jets.coeffs.tobytes() == amplitude.coeffs.tobytes()


@pytest.mark.parametrize("order", [2, 4, 6, 8])
@pytest.mark.parametrize("spec", [updown_spec(), twoarc_spec()], ids=["updown", "twoarc"])
def test_amplitude_is_the_full_degree_amplitude_truncated_byte_for_byte(spec, order):
    # products and the phase x product step run at degree order - 2; each
    # slot sums the same terms in the same order as at degree order
    for r in (1, 2, 3, 4):
        amplitude = build_principal(spec, r, order).amplitude_jets
        full = _per_chord_principal(spec, r, order)[1]
        assert amplitude.max_degree == order - 2
        assert amplitude.coeffs.tobytes() == full.truncated(order - 2).coeffs.tobytes()


def test_full_jobs_build_two_chart_pairs_per_spec_and_degree(monkeypatch):
    # the orbit's chords join top to bottom or bottom to top; per chord,
    # r <= 3 would build 2 + 4 + 6 = 12 pairs, 24 chart-point jets
    points = []
    point_jet = billiard._point_jet

    def counted(chart, var, degree):
        points.append(degree)
        return point_jet(chart, var, degree)

    monkeypatch.setattr(billiard, "_point_jet", counted)
    cache = billiard._chord_pair
    cache.cache_clear()
    table = forward_table(updown_spec(), 3, 4, "FullPrincipal")
    assert points == [8] * 4
    assert cache.cache_info().misses == 2
    # one auxiliary spec per order j = 2, 3, 4, at degree 2j, two pairs each
    points.clear()
    recover(table, 4)
    assert points == [4] * 4 + [6] * 4 + [8] * 4
    assert cache.cache_info().misses == 8


@pytest.mark.parametrize("spec", [updown_spec(), twoarc_spec()], ids=["updown", "twoarc"])
def test_a_build_looks_up_each_chart_pair_once(spec):
    # r = 5 has 10 chords over 2 chart pairs; a lookup hashes two charts
    build_principal(spec, 5, 4)
    before = billiard._chord_pair.cache_info()
    build_principal(spec, 5, 4)
    after = billiard._chord_pair.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)


@pytest.mark.parametrize("degree", range(1, 9))
def test_chord_powers_are_their_own_jet_powers_bit_for_bit(degree):
    # both powers come out of one complex Horner pass over the real chord_sq
    for spec in (updown_spec(), twoarc_spec()):
        top, bottom = charts(spec)
        for cha, chb in ((top, bottom), (bottom, top)):
            chord_sq, cross, root, inverse_power, factor = billiard._chord_pair(cha, chb, degree)
            assert root.coeffs.tobytes() == jet_power(chord_sq, 0.5).coeffs.tobytes()
            assert inverse_power.coeffs.tobytes() == jet_power(chord_sq, -0.75).coeffs.tobytes()
            want = cross * jet_power(chord_sq, -0.75)
            assert factor.coeffs.tobytes() == want.coeffs.tobytes()


def test_cached_chord_jets_are_read_only():
    spec = updown_spec()
    top, bottom = charts(spec)
    for jet in billiard._chord_pair(top, bottom, 4):
        with pytest.raises(ValueError, match="read-only"):
            jet.coeffs[0] = 1.0
    assert build_principal(spec, 2, 4).amplitude_jets.coeffs.flags.writeable


def test_chord_jet_caches_are_bounded():
    # a long run meets a new auxiliary spec at every recovery
    for k in range(100):
        spec = DomainSpec("updown", 2.0, BoundaryArc((1.0, 0.0, -0.2 - 1e-3 * k, 0.05)))
        build_principal(spec, 1, 2)
    info = billiard._chord_pair.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


# ---------------------------------------------------------------------------
# the range of the leading amplitude


def test_range_limit_of_the_leading_amplitude():
    assert max_iterate(2.0) == 230
    assert max_iterate(0.1) == 250
    for L in (0.1, 2.0):
        r = max_iterate(L)
        assert 1e-251 < abs(principal_leading_value(r, L)) < 1e251
        with pytest.raises(ValueError, match=f"r {r + 1} is out of range"):
            principal_leading_value(r + 1, L)
    with pytest.raises(ValueError, match="r_max 300 is out of range"):
        forward_table(updown_spec(), 300, 2)
    # A_r underflows to 0 past r = 297 at L = 2, and recovery divides by it
    entries = {(r, j): 0j for r in range(1, 301) for j in (1, 2)}
    table = InvariantTable(2.0, 0.5, "updown", "TopOnly", entries)
    with pytest.raises(ValueError, match="out of range"):
        recover(table, 2)
    # dihedral entries carry no A_r
    dihedral = forward_table(dihedral_spec(3), 2, 1).to_json()
    dihedral["entries"][0]["r"] = 300
    assert (300, 1) in InvariantTable.from_json(dihedral).entries


def test_dihedral_jobs_past_the_bounce_limit_are_refused(monkeypatch):
    # values just past MAX_BOUNCES: far past it, an unchecked job ran for
    # seconds and held hundreds of megabytes
    def no_work(*args):
        raise AssertionError("a dihedral Hessian was inverted")

    spec, m = dihedral_spec(3), MAX_BOUNCES + 1
    table = forward_table(spec, 2, 2)
    r_past = MAX_BOUNCES // 3 + 1
    monkeypatch.setattr(invariants, "dihedral_inverse_entry", no_work)
    monkeypatch.setattr(inverse, "dihedral_inverse_entry", no_work)
    with pytest.raises(ValueError, match=f"field 'm' is out of range: at m = {m}"):
        dihedral_spec(m)
    with pytest.raises(ValueError, match=f"r_max is out of range: .*r <= {r_past - 1}"):
        forward_table(spec, r_past, 1)
    with pytest.raises(ValueError, match="entries\\[\\]\\.r is out of range"):
        recover(dataclasses.replace(table, entries={(r_past, 1): 1.0}), 1)
    payload = table.to_json()
    payload["entries"][1]["r"] = r_past
    with pytest.raises(ValueError, match="entries\\[1\\]\\.r is out of range"):
        InvariantTable.from_json(payload)
    for label in (f"dihedral-{m}", "dihedral-x", "dihedral-1", "dihedral--3", "dihedral-"):
        with pytest.raises(ValueError, match=f"'class' '{label}' is invalid: expected dihedral-<m>"):
            InvariantTable.from_json({**table.to_json(), "class": label})
        with pytest.raises(ValueError, match=f"class '{label}' is invalid"):
            recover(dataclasses.replace(table, symmetry_class=label), 1)
    # at the limit itself nothing is refused
    edge = {**table.to_json(), "class": f"dihedral-{MAX_BOUNCES}"}
    edge["entries"] = [e for e in edge["entries"] if e["r"] == 1]
    assert InvariantTable.from_json(edge).symmetry_class == f"dihedral-{MAX_BOUNCES}"


def test_symmetry_class_labels():
    assert forward_table(updown_spec(), 1, 1).symmetry_class == "updown"
    # a mirror twoarc is the same recovery class as an updown spec
    sym = DomainSpec("twoarc", 2.0, BoundaryArc(TOP_TAYLOR),
                     BoundaryArc(TOP_TAYLOR).negated())
    assert forward_table(sym, 1, 1).symmetry_class == "updown"
    # mirror symmetry plus an even arc is the ellipse-like class
    assert forward_table(even_updown_spec(), 1, 1).symmetry_class == "twoarc-symmetric"


def test_table_json_roundtrip():
    table = forward_table(twoarc_spec(), 2, 2)
    data = table.to_json()
    assert set(data) == {"L", "a", "class", "normalization", "entries"}
    assert data["entries"] == sorted(
        data["entries"], key=lambda e: (e["r"], e["j"])
    )
    back = InvariantTable.from_json(data)
    assert back == table
    with pytest.raises(ValueError, match="normalization"):
        InvariantTable(2.0, -1.0, "updown", "Partial", {})


def test_forward_table_argument_guards():
    with pytest.raises(ValueError, match="normalization"):
        forward_table(twoarc_spec(), 1, 1, normalization="top")
    with pytest.raises(ValueError):
        forward_table(twoarc_spec(), 0, 1)
