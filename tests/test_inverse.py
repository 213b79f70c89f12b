"""Recovery induction: from invariant tables back to boundary data."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from wavetrace import invariants
from wavetrace.domain import (
    BoundaryArc,
    DomainSpec,
    ObstructionError,
    dihedral_parameters,
    kt_parameters,
)
from wavetrace.hessian import CirculantHessian, cubic_sum, inverse_fourier
from wavetrace.invariants import (
    InvariantTable,
    contributing_weights,
    forward_table,
    principal_leading_value,
)
from wavetrace.inverse import (
    RecoveryResult,
    _decouple,
    _iterate_data,
    convex_representative,
    recover,
    recover_f2,
)

L0 = 2.0
GENERIC = (L0 / 2, 0.0, -0.31, 0.12, 0.05, -0.033, 0.021, 0.011, -0.017, 0.009, 0.004)
EVEN = (L0 / 2, 0.0, -0.31, 0.0, 0.05, 0.0, 0.021, 0.0, -0.017, 0.0, 0.004)


def updown_spec(taylor=GENERIC, L=L0):
    return DomainSpec("updown", L, BoundaryArc(taylor))


def even_spec(c2=-0.31, L=L0):
    return updown_spec((L / 2, 0.0, c2) + EVEN[3:], L=L)


def dihedral_spec(m, L=3.0):
    c0 = L / (m * math.sin(math.pi / m))
    taylor = (c0, 0.0, 0.21, 0.0, -0.09, 0.0, 0.04, 0.0, 0.013, 0.0, -0.006)
    return DomainSpec("dihedral", L, BoundaryArc(taylor), m=m)


def random_updown(rng, L=L0, even_only=False):
    """Seeded spec with an elliptic, non-exceptional Floquet datum."""
    while True:
        c2 = rng.uniform(-0.9, -0.05) / L
        a = 2.0 * L * (-c2 * 2.0) - 2.0  # a = 2 L d2 - 2, d2 = -f''(0)
        if min(abs(a - b) for b in (0.0, -1.0, 2.0, -2.0)) > 0.15:
            break
    coeffs = [L / 2, 0.0, c2]
    cubic = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
    coeffs.append(0.0 if even_only else cubic / 6.0)
    for k in range(4, 11):
        c = rng.uniform(-1.0, 1.0) / math.factorial(k) * 4.0
        coeffs.append(0.0 if (even_only and k % 2) else c)
    return updown_spec(tuple(coeffs), L=L)


def as_class(table, symmetry_class):
    """The table read under another class, as `invert --class` does."""
    return dataclasses.replace(table, symmetry_class=symmetry_class)


def worst_rel(result, want):
    return max(
        abs(result.taylor[k] - want[k]) / max(abs(want[k]), 1.0) for k in want
    )


# ---------------------------------------------------------------------------
# base case and conventions


def test_recover_f2_examples():
    assert recover_f2(0.0, L0) == pytest.approx(1.0 / L0, rel=1e-14)
    assert recover_f2(-3.0, L0) == pytest.approx(-1.0 / (2.0 * L0), rel=1e-14)
    with pytest.raises(ValueError):
        recover_f2(0.0, -1.0)


def test_recover_f2_inverts_floquet_datum():
    rng = np.random.default_rng(7)
    for _ in range(10):
        spec = random_updown(rng)
        a, _ = kt_parameters(spec)
        assert recover_f2(a, spec.L) == pytest.approx(
            -spec.f.derivative(2), rel=1e-12
        )


def test_convex_representative_negates_and_reflects():
    # GENERIC has f'''(0) = 0.72 > 0; negating leaves d3 < 0, so the
    # representative is additionally reflected back to d3 = +0.72
    plain = convex_representative(updown_spec(), 10)
    assert plain[3] == pytest.approx(0.72, rel=1e-14)
    assert plain[2] == pytest.approx(0.62, rel=1e-14)
    # flipping the cubic's sign must reflect the representative
    flipped_taylor = tuple(
        -c if k % 2 else c for k, c in enumerate(GENERIC)
    )
    mirrored = convex_representative(updown_spec(flipped_taylor), 10)
    assert mirrored == plain
    with pytest.raises(ValueError):
        convex_representative(dihedral_spec(3), 4)


# ---------------------------------------------------------------------------
# decoupling


def decouple(j, values, a, L):
    """(A, B) of `_decouple` on an unweighted (TopOnly) order-j row, with
    the row's iterates inverted by `_iterate_data`."""
    row = InvariantTable(L, a, "updown", "TopOnly", {(r, j): v for r, v in values.items()})
    iterates, _ = _iterate_data(row, j, a, L)
    A, B, _, _ = _decouple(j, values, None, iterates, a, 2)
    return A, B


def _synthetic_values(j, A, B, a, L, iterates=(1, 2, 3)):
    values = {}
    for r in iterates:
        h = CirculantHessian(r=r, L=L, a=a, b=a)
        h11 = inverse_fourier(h, 1, 1)
        f3 = cubic_sum(h, method="direct")
        divisor = (
            8.0 * r * 1j ** (j + 1) * principal_leading_value(r, L) * h11 ** (j - 2)
        )
        values[r] = divisor * (h11**2 * A - f3 * B)
    return values


@pytest.mark.parametrize("j", [2, 3, 4])
def test_decouple_synthetic_round_trip(j):
    A, B = 0.8375, -0.413
    values = _synthetic_values(j, A, B, a=0.48, L=L0)
    got_A, got_B = decouple(j, values, 0.48, L0)
    assert got_A == pytest.approx(A, rel=1e-12)
    assert got_B == pytest.approx(B, rel=1e-12)


def test_decouple_is_linear_in_the_table():
    values = _synthetic_values(3, 0.2, 0.7, a=-0.6, L=L0)
    A1, B1 = decouple(3, values, -0.6, L0)
    scaled = {r: 2.5 * v for r, v in values.items()}
    A2, B2 = decouple(3, scaled, -0.6, L0)
    assert A2 == pytest.approx(2.5 * A1, rel=1e-12)
    assert B2 == pytest.approx(2.5 * B1, rel=1e-12)


def test_decouple_pair_choice_is_immaterial():
    spec = updown_spec()
    a, _ = kt_parameters(spec)
    table = forward_table(spec, 3, 2)
    values = {r: table.entry(r, 2) for r in (1, 2, 3)}
    results = [
        decouple(2, {r: values[r] for r in pair}, a, L0)
        for pair in [(1, 2), (1, 3), (2, 3), (1, 2, 3)]
    ]
    for A, B in results[1:]:
        assert A == pytest.approx(results[0][0], rel=1e-9)
        assert B == pytest.approx(results[0][1], rel=1e-9)


@pytest.mark.parametrize("a_bad", [0.0, -1.0, 2.0, -2.0])
def test_decouple_fails_on_exceptional_floquet(a_bad):
    # at a = +-2 every iterate sits at a symbol pole, so no row is admitted
    values = {1: 1.0 + 0j, 2: 2.0 + 0j, 3: 0.5 + 0j}
    with pytest.raises(ObstructionError) as err:
        decouple(2, values, a_bad, L0)
    assert err.value.name == ("symbol-pole" if abs(a_bad) == 2.0 else "singular-decoupling")


def test_decouple_guards():
    with pytest.raises(ObstructionError) as err:
        decouple(2, {1: 1.0 + 0j}, 0.5, L0)
    assert err.value.name == "singular-decoupling"


# ---------------------------------------------------------------------------
# mirror-symmetric recovery


@pytest.mark.parametrize("seed", range(5))
def test_symmetric_round_trip(seed):
    rng = np.random.default_rng(seed)
    spec = random_updown(rng)
    table = forward_table(spec, 3, 5)
    result = recover(table, 5)
    assert worst_rel(result, convex_representative(spec, 10)) <= 1e-8
    assert max(result.residuals.values()) <= 1e-10


def test_near_resonant_iterates_round_trip_at_r100():
    # a = 1.024: iterate r = 76 sits 2.3e-4 from a symbol pole.  Forward
    # and recovery invert the Hessian by the same symbol route, so the
    # near-pole entries cancel in the solve instead of dominating it.
    spec = updown_spec((1.0, 0.0, -0.378, 0.203, 0.031, -0.136, 0.231,
                        -0.157, -0.037, -0.293, -0.078))
    result = recover(forward_table(spec, 100, 5), 5)
    assert worst_rel(result, convex_representative(spec, 10)) <= 1e-8


def test_recovery_lands_on_the_reflected_representative():
    # a domain and its mirror image share the table; the convention with
    # f'''(0) >= 0 is the one reported
    spec = updown_spec(tuple(-c if k % 2 else c for k, c in enumerate(GENERIC)))
    result = recover(forward_table(spec, 3, 5), 5)
    assert result.taylor[3] > 0
    assert worst_rel(result, convex_representative(spec, 10)) <= 1e-8


def test_zero_table_recovers_flat_data():
    # read as "updown": its rows past order 1 all vanish, so it reads one
    # family, as the doubly symmetric class does
    spec = updown_spec((L0 / 2, 0.0, -0.2) + (0.0,) * 8)
    result = recover(as_class(forward_table(spec, 3, 5), "updown"), 5)
    assert result.taylor[2] == pytest.approx(0.4, rel=1e-12)  # -f''(0)
    assert all(result.taylor[k] == 0.0 for k in range(3, 11))


def test_vanishing_cubic_stops_the_induction():
    table = as_class(forward_table(even_spec(), 3, 5), "updown")
    # the quartic datum needs no odd anchor, so J = 2 still succeeds ...
    partial = recover(table, 2)
    assert partial.taylor[4] == pytest.approx(-24 * EVEN[4], rel=1e-10)
    assert abs(partial.taylor[3]) <= 1e-6
    # ... but the induction past it divides by f'''(0)
    with pytest.raises(ObstructionError) as err:
        recover(table, 3)
    assert err.value.name == "vanishing-cubic"


def test_negative_odd_family_is_rejected():
    spec = even_spec()
    a, _ = kt_parameters(spec)
    table = forward_table(spec, 3, 2)
    # graft an odd-family contribution with (f''')^2 < 0 onto the j = 2 row
    w3 = contributing_weights(2)[2]
    poisoned = dict(table.entries)
    for r in (1, 2, 3):
        h = CirculantHessian(r=r, L=L0, a=a, b=a)
        divisor = 8.0 * r * 1j**3 * principal_leading_value(r, L0)
        poisoned[(r, 2)] += divisor * (-cubic_sum(h, method="direct")) * (
            2.0 * w3 * (-0.5)
        )
    bad = InvariantTable(L0, a, "updown", "TopOnly", poisoned)
    with pytest.raises(ObstructionError) as err:
        recover(bad, 2)
    assert err.value.name == "vanishing-cubic"
    assert "inconsistent" in str(err.value)


def test_symmetric_rejects_bad_order():
    with pytest.raises(ValueError):
        recover(forward_table(updown_spec(), 2, 2), 0)


# ---------------------------------------------------------------------------
# doubly symmetric recovery


@pytest.mark.parametrize("seed", range(3))
def test_two_symmetry_round_trip(seed):
    rng = np.random.default_rng(100 + seed)
    spec = random_updown(rng, even_only=True)
    result = recover(forward_table(spec, 3, 5), 5)
    assert worst_rel(result, convex_representative(spec, 10)) <= 1e-9
    assert all(result.taylor[k] == 0.0 for k in range(3, 11, 2))


def test_two_symmetry_survives_exceptional_floquet():
    # a = -1 defeats the decoupling, but the single-family read only
    # loses the iterates with 3 | r to symbol poles
    spec = even_spec(c2=-1.0 / (4.0 * L0))
    a, _ = kt_parameters(spec)
    assert a == pytest.approx(-1.0, abs=1e-12)
    table = forward_table(spec, 2, 5)
    result = recover(table, 5)
    assert worst_rel(result, convex_representative(spec, 10)) <= 1e-9
    with pytest.raises(ObstructionError):
        recover(as_class(table, "updown"), 5)


def test_two_symmetry_skips_poles_with_a_note():
    # the forward map cannot even produce the r = 3 rows at a = -1 (the
    # orbit Hessian degenerates), so splice unusable placeholders into a
    # measured table: recovery must skip them by name, not read them
    spec = even_spec(c2=-1.0 / (4.0 * L0))
    a, _ = kt_parameters(spec)
    entries = dict(forward_table(spec, 2, 3).entries)
    entries.update({(3, j): complex(999.0) for j in (1, 2, 3)})
    table = InvariantTable(L0, a, "twoarc-symmetric", "TopOnly", entries)
    result = recover(table, 3)
    assert result.obstructions == (
        f"iterate r = 3 skipped: symbol pole at a = {a:g}",
    )
    assert worst_rel(result, convex_representative(spec, 6)) <= 1e-9


def test_full_mode_computes_no_remainder_at_a_pole_iterate(monkeypatch):
    # a = 1 is a symbol pole of r = 3 and of no smaller iterate; spliced r = 3
    # rows are skipped with a note and get no remainder, whose auxiliary
    # problem would have a singular Hessian
    import wavetrace.inverse

    spec = updown_spec((L0 / 2, 0.0, -0.375, 0.203, 0.031, -0.136, 0.231))
    table = forward_table(spec, 2, 3, normalization="FullPrincipal")
    spliced = dataclasses.replace(
        table, entries={**table.entries, **{(3, j): table.entry(2, j) for j in (1, 2, 3)}}
    )
    calls = []
    inner = wavetrace.inverse.invariant_full

    def counted(spec, r, j):
        calls.append(r)
        return inner(spec, r, j)

    monkeypatch.setattr(wavetrace.inverse, "invariant_full", counted)
    result = recover(spliced, 3)
    assert calls == [1, 2, 1, 2]
    a = table.floquet_parameter
    assert result.obstructions == (f"iterate r = 3 skipped: symbol pole at a = {a:g}",)
    clean = recover(table, 3)
    assert (result.taylor, result.residuals) == (clean.taylor, clean.residuals)


def test_recovery_refuses_a_j_past_the_table_orders():
    import wavetrace.inverse

    table = forward_table(updown_spec(), 3, 3)
    first = dataclasses.replace(
        table, entries={k: v for k, v in table.entries.items() if k[1] == 1}
    )
    # with no entry past order 1 there is nothing to read as zero
    assert not wavetrace.inverse._zero_beyond_quadratic(first)
    for cls in ("updown", "twoarc-symmetric"):
        with pytest.raises(ValueError, match="J 3 is out of range.*order 2, so J <= 1"):
            recover(as_class(first, cls), 3)
        assert recover(as_class(first, cls), 1).taylor == {2: recover_f2(table.floquet_parameter, L0)}
    gap = dataclasses.replace(
        table, entries={k: v for k, v in table.entries.items() if k[1] != 2}
    )
    with pytest.raises(ValueError, match="J 3 is out of range.*order 2"):
        recover(gap, 3)


@pytest.mark.parametrize("kind", ["updown", "twoarc-symmetric", "dihedral"])
def test_forward_and_recovery_invert_each_iterate_once(monkeypatch, kind):
    # h11 and F3 depend on the iterate only, not on the order j: the forward
    # map and recovery each invert every r exactly once
    import wavetrace.hessian
    import wavetrace.invariants
    import wavetrace.inverse

    spec = {"updown": updown_spec(), "twoarc-symmetric": even_spec(),
            "dihedral": dihedral_spec(4)}[kind]
    inverted = []
    if kind == "dihedral":
        name, modules = "dihedral_inverse_entry", (wavetrace.invariants, wavetrace.inverse)

        def counting(inner):
            def counted(m, r, *args):
                inverted.append(r)
                return inner(m, r, *args)
            return counted
    else:
        # through the hessian module too, where `parity_sums` calls it
        name = "stacked_parity_sums"
        modules = (wavetrace.hessian, wavetrace.invariants, wavetrace.inverse)

        def counting(inner):
            def counted(L, a, b, rs, **options):
                inverted.extend(rs)
                return inner(L, a, b, rs, **options)
            return counted

    for module in modules:
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    table = forward_table(spec, 7, 5)
    assert sorted(inverted) == list(range(1, 8))
    inverted.clear()
    result = recover(table, 5)
    assert result.obstructions == ()
    assert sorted(inverted) == list(range(1, 8))


def test_recovery_builds_no_row_sums(monkeypatch):
    # only the forward closed form reads S1; recovery reads the diagonal and
    # S3, and leaves S1 unbuilt
    import wavetrace.hessian
    import wavetrace.inverse

    built = []

    def recording(inner):
        def recorded(*args, **options):
            sums, poles = inner(*args, **options)
            built.append(sums[1])
            return sums, poles
        return recorded

    for module in (wavetrace.hessian, invariants, wavetrace.inverse):
        monkeypatch.setattr(
            module, "stacked_parity_sums", recording(module.stacked_parity_sums)
        )
    table = forward_table(updown_spec(), 7, 5)
    assert built[0].shape == (7, 2, 2)
    built.clear()
    recover(table, 5)
    assert [sums is None for sums in built] == [True]


@pytest.mark.parametrize(
    "kind, leading", [("updown", 7), ("twoarc-symmetric", 7), ("dihedral", 0)]
)
def test_recovery_computes_each_leading_amplitude_once(monkeypatch, kind, leading):
    # A_r depends on the iterate only, not on the order j
    import wavetrace.inverse

    spec = {"updown": updown_spec(), "twoarc-symmetric": even_spec(),
            "dihedral": dihedral_spec(4)}[kind]
    table = forward_table(spec, 7, 5)
    calls = []
    inner = wavetrace.inverse.principal_leading_value

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(wavetrace.inverse, "principal_leading_value", counted)
    result = recover(table, 5)
    assert result.obstructions == ()
    assert sorted(calls) == [(r, table.length) for r in range(1, leading + 1)]


def test_full_mode_rows_are_weighted_by_their_cancellation():
    # a = -1.725: at (r = 3, j = 4) entry and remainder are both about 3e5
    # and cancel to a top part of about 0.2; with unit weights that row's
    # rounding left a relative error of 5e-7 in f^(7)(0) and f^(8)(0)
    spec = updown_spec(
        (L0 / 2, 0.0, -0.034375, 0.203, 0.031, -0.136, 0.231, -0.157, -0.037)
    )
    a, _ = kt_parameters(spec)
    assert a == pytest.approx(-1.725)
    result = recover(forward_table(spec, 3, 4, normalization="FullPrincipal"), 4)
    assert worst_rel(result, convex_representative(spec, 8)) <= 1e-8
    assert sorted(result.cancellation) == [2, 3, 4]
    assert result.cancellation[4] > 1e6
    assert recover(forward_table(spec, 3, 4), 4).cancellation == {}


def test_two_symmetry_starved_of_iterates_raises():
    fake = InvariantTable(
        L0, 2.0, "twoarc-symmetric", "TopOnly", {(1, 1): 1j, (1, 2): 1j}
    )
    with pytest.raises(ObstructionError) as err:
        recover(fake, 2)
    assert err.value.name == "symbol-pole"


@pytest.mark.parametrize("cls", ["updown", "twoarc-symmetric", "dihedral-3"])
def test_an_order_with_every_row_at_a_pole_ends_in_symbol_pole(cls):
    # every iterate is resonant at a = 2 (two-arc) and s = 1 (m = 3): no row
    # is admitted, in one family or two
    a = 1.0 if cls == "dihedral-3" else 2.0
    entries = {(r, j): 1j for r in (1, 2, 3) for j in (1, 2)}
    with pytest.raises(ObstructionError) as err:
        recover(InvariantTable(L0, a, cls, "TopOnly", entries), 2)
    assert err.value.name == "symbol-pole"


def test_a_row_whose_factor_vanishes_is_left_out():
    # at s = 0 the r = 2 triangle iterate has h11 = 0 exactly, so its rows
    # past order 2 read nothing; r = 1 and r = 3 carry the data
    L = 3.0
    sin_t = math.sin(math.pi / 3)
    taylor = (L / (3 * sin_t), 0.0, -6.0 * sin_t / (8.0 * L), 0.0, -0.09, 0.0, 0.04, 0.0, 0.013)
    spec = DomainSpec("dihedral", L, BoundaryArc(taylor), m=3)
    assert dihedral_parameters(spec)[0] == pytest.approx(0.0, abs=1e-15)
    table = forward_table(spec, 3, 4)
    assert table.entry(2, 3) == 0.0
    result = recover(table, 4)
    for j in range(1, 5):
        assert result.taylor[2 * j] == pytest.approx(spec.f.derivative(2 * j), rel=1e-10)


def test_full_twoarc_symmetric_rows_are_weighted_and_report_cancellation():
    spec = even_spec()
    table = forward_table(spec, 3, 4, normalization="FullPrincipal")
    assert table.symmetry_class == "twoarc-symmetric"
    result = recover(table, 4)
    assert worst_rel(result, convex_representative(spec, 8)) <= 1e-9
    assert sorted(result.cancellation) == [2, 3, 4]
    assert all(ratio >= 1.0 for ratio in result.cancellation.values())


def test_two_symmetry_agrees_with_symmetric_quartic():
    table = forward_table(even_spec(), 3, 2)
    assert table.symmetry_class == "twoarc-symmetric"
    both = recover(as_class(table, "updown"), 2)
    even_only = recover(table, 2)
    assert both.taylor[4] == pytest.approx(even_only.taylor[4], rel=1e-9)


# ---------------------------------------------------------------------------
# dihedral recovery


@pytest.mark.parametrize("m", [2, 3, 5])
def test_dihedral_round_trip(m):
    spec = dihedral_spec(m)
    result = recover(forward_table(spec, 3, 5), 5)
    for j in range(1, 6):
        want = spec.f.derivative(2 * j)
        assert result.taylor[2 * j] == pytest.approx(want, rel=1e-8, abs=1e-12)
        assert result.taylor.get(2 * j - 1, 0.0) == 0.0


def test_dihedral_single_iterate_suffices():
    spec = dihedral_spec(3)
    result = recover(forward_table(spec, 1, 3), 3)
    for j in (1, 2, 3):
        assert result.taylor[2 * j] == pytest.approx(
            spec.f.derivative(2 * j), rel=1e-10
        )


def test_dihedral_m2_is_the_doubly_symmetric_class_up_to_mirror():
    # an m = 2 dihedral domain and its up-down reading share the boundary;
    # the dihedral chart keeps f itself while the two-arc convention
    # reports the convex representative -f, and the Floquet data match
    # through s = -a
    L = 3.0
    di = dihedral_spec(2, L=L)
    ud = DomainSpec("updown", L, di.f)
    s_param, _ = dihedral_parameters(di)
    a, _ = kt_parameters(ud)
    assert s_param == pytest.approx(-a, rel=1e-12)
    from_di = recover(forward_table(di, 3, 4), 4)
    ud_table = forward_table(ud, 3, 4)
    assert ud_table.symmetry_class == "twoarc-symmetric"
    from_ud = recover(ud_table, 4)
    for j in range(1, 5):
        assert from_di.taylor[2 * j] == pytest.approx(
            -from_ud.taylor[2 * j], rel=1e-9
        )


def test_dihedral_rejects_full_principal():
    fake = InvariantTable(3.0, 3.9, "dihedral-3", "FullPrincipal", {(1, 1): 1j})
    with pytest.raises(ObstructionError) as err:
        recover(fake, 1)
    assert err.value.name == "unsupported"


def test_dihedral_guards():
    table = forward_table(dihedral_spec(3), 1, 1)
    with pytest.raises(ValueError):
        recover(as_class(table, "dihedral-1"), 1)
    with pytest.raises(ValueError):
        recover(table, 0)


# ---------------------------------------------------------------------------
# normalization, dispatch, reporting


def test_full_principal_round_trip():
    taylor = (L0 / 2, 0.0, -0.31, 0.12, 0.05, -0.033, 0.021, 0.0, 0.0, 0.0, 0.0)
    spec = updown_spec(taylor)
    table = forward_table(spec, 2, 3, normalization="FullPrincipal")
    result = recover(table, 3)
    assert worst_rel(result, convex_representative(spec, 6)) <= 1e-8


def test_recovery_ignores_orders_beyond_target():
    spec = updown_spec()
    a, _ = kt_parameters(spec)
    table = forward_table(spec, 3, 5)
    clean = recover(table, 4)
    poisoned_entries = {
        (r, j): v + (1000.0 if j == 5 else 0.0)
        for (r, j), v in table.entries.items()
    }
    poisoned = InvariantTable(L0, a, "updown", "TopOnly", poisoned_entries)
    assert recover(poisoned, 4).taylor == clean.taylor


def test_first_order_row_is_cross_checked():
    # a FullPrincipal j = 1 entry is its order-0 diagram sum 2 A_r, not the
    # TopOnly closed form 4 r A_r h11 f''(0)
    for normalization in ("TopOnly", "FullPrincipal"):
        table = forward_table(updown_spec(), 3, 3, normalization=normalization)
        tweaked = dataclasses.replace(table, entries={
            (r, j): v * (1.1 if j == 1 else 1.0) for (r, j), v in table.entries.items()
        })
        clean = recover(table, 3)
        dirty = recover(tweaked, 3)
        assert dirty.taylor == clean.taylor  # the base case comes from a, not row 1
        assert clean.residuals[1] <= 1e-12, normalization
        assert dirty.residuals[1] >= 0.01, normalization


def test_full_first_order_check_builds_no_problem(monkeypatch):
    # 2 A_r is the j = 1 entry whatever f''(0) is, so its check needs no
    # degree-2 auxiliary problem; the orders j >= 2 still build theirs
    table = forward_table(updown_spec(), 3, 3, normalization="FullPrincipal")
    degrees = []
    build = invariants.build_principal

    def counted(spec, r, order):
        degrees.append(order)
        return build(spec, r, order)

    monkeypatch.setattr(invariants, "build_principal", counted)
    result = recover(table, 3)
    assert sorted(set(degrees)) == [4, 6]
    assert result.residuals[1] <= 1e-12


def test_recover_dispatches_on_class():
    # the class, not the entries, decides whether the odd data are read
    rng = np.random.default_rng(11)
    spec = random_updown(rng)
    table = forward_table(spec, 3, 4)
    assert table.symmetry_class == "updown"
    assert worst_rel(recover(table, 4), convex_representative(spec, 8)) <= 1e-8
    even_only = recover(as_class(table, "twoarc-symmetric"), 4)
    assert all(even_only.taylor[k] == 0.0 for k in (3, 5, 7))
    assert even_only.taylor[2] == recover(table, 4).taylor[2]

    generic = DomainSpec(
        "twoarc",
        L0,
        BoundaryArc(GENERIC),
        BoundaryArc((-L0 / 2, 0.0, 0.27, 0.08, -0.04, 0.01, 0.0)),
    )
    with pytest.raises(ObstructionError) as err:
        recover(forward_table(generic, 2, 2), 2)
    assert err.value.name == "unsupported"


def test_result_report_shape():
    result = recover(forward_table(updown_spec(), 3, 3), 3)
    assert isinstance(result, RecoveryResult)
    blob = result.to_json()
    assert set(blob) == {"taylor", "residuals", "obstructions"}
    assert blob["taylor"]["2"] == result.taylor[2]
    assert list(blob["taylor"]) == [str(k) for k in sorted(result.taylor)]
    assert blob["obstructions"] == []
