"""Jet arithmetic: oracles are a dict-based polynomial convolution and
central finite differences on closed-form functions."""

from __future__ import annotations

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetrace.jets import (
    MultiJet,
    _Tables,
    derivative_tensor,
    extract_partial,
    jet_compose_scalar,
    jet_mul,
    jet_power,
    power_series,
)

# ---------------------------------------------------------------------------
# dict-based reference implementation (independent of the dense engine)


def dict_of(jet: MultiJet) -> dict:
    tab = jet._tab()
    return {
        tuple(int(t) for t in e): c
        for e, c in zip(tab.exponents, jet.coeffs)
        if c != 0
    }


def dict_mul(a: dict, b: dict, max_degree: int) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= max_degree:
                out[e] = out.get(e, 0.0) + ca * cb
    return out


def random_jet(rng, num_vars, max_degree, complex_=False):
    jet = MultiJet.zero(num_vars, max_degree, complex_=complex_)
    vals = rng.standard_normal(jet.coeffs.shape)
    if complex_:
        vals = vals + 1j * rng.standard_normal(jet.coeffs.shape)
    jet.coeffs[:] = vals
    return jet


# ---------------------------------------------------------------------------


def test_one_plus_x_times_one_minus_x():
    one_plus = MultiJet.from_terms({(0,): 1.0, (1,): 1.0}, 1, 2)
    one_minus = MultiJet.from_terms({(0,): 1.0, (1,): -1.0}, 1, 2)
    prod = jet_mul(one_plus, one_minus)
    assert prod.coefficient((0,)) == 1.0
    assert prod.coefficient((1,)) == 0.0
    assert prod.coefficient((2,)) == -1.0


def test_add_zero_is_identity():
    rng = np.random.default_rng(0)
    jet = random_jet(rng, 3, 4)
    zero = MultiJet.zero(3, 4)
    assert (jet + zero).allclose(jet)


def test_mul_against_dict_convolution():
    rng = np.random.default_rng(1)
    for n, d in [(1, 6), (2, 5), (3, 4), (4, 3)]:
        a = random_jet(rng, n, d)
        b = random_jet(rng, n, d)
        got = dict_of(jet_mul(a, b))
        want = dict_mul(dict_of(a), dict_of(b), d)
        keys = set(got) | set(want)
        for k in keys:
            assert math.isclose(
                got.get(k, 0.0), want.get(k, 0.0), rel_tol=1e-13, abs_tol=1e-13
            )


def test_mul_commutes_and_associates():
    rng = np.random.default_rng(2)
    a = random_jet(rng, 3, 5)
    b = random_jet(rng, 3, 5)
    c = random_jet(rng, 3, 5)
    assert jet_mul(a, b).allclose(jet_mul(b, a), rtol=1e-14, atol=1e-14)
    assert jet_mul(jet_mul(a, b), c).allclose(
        jet_mul(a, jet_mul(b, c)), rtol=1e-13, atol=1e-12
    )


@functools.lru_cache(maxsize=None)
def _dense_pairs(num_vars: int, max_degree: int, top: int):
    """Reference only: every pair (i, j) of basis slots with deg i + deg j
    <= top, i-major, and the slot of each product monomial, looked up by
    its exponent row, not through the exponent codes."""
    tab = _Tables(num_vars, max_degree)
    slot_of = {row: k for k, row in enumerate(map(tuple, tab.exponents.tolist()))}
    ii, jj = [], []
    for i in np.flatnonzero(tab.degrees <= top):
        right = np.flatnonzero(tab.degrees <= top - tab.degrees[i])
        ii.append(np.full(len(right), i))
        jj.append(right)
    ii, jj = np.concatenate(ii), np.concatenate(jj)
    rows = (tab.exponents[ii] + tab.exponents[jj]).tolist()
    return ii, jj, np.array([slot_of[tuple(row)] for row in rows])


def dense_table_mul(a: MultiJet, b: MultiJet, degree_cap=None) -> np.ndarray:
    """Reference only: the product as a dense table adds it, every pair of
    slots within the truncation, zero or not, into each product slot in
    increasing slot order of ``a``."""
    top = a.max_degree if degree_cap is None else min(degree_cap, a.max_degree)
    out = np.zeros(len(a.coeffs), dtype=np.result_type(a.coeffs, b.coeffs))
    if top >= 0:
        ii, jj, kk = _dense_pairs(a.num_vars, a.max_degree, top)
        np.add.at(out, kk, a.coeffs[ii] * b.coeffs[jj])
    return out


# (40, 2) and (102, 2): the exponent codes wrap int64 from 40 variables at
# degree 2 on, and r <= 51, j <= 1 multiplies at 102
@pytest.mark.parametrize(
    "n, d", list(itertools.product((1, 2, 3, 6), (0, 1, 4, 8))) + [(40, 2), (102, 2)]
)
def test_product_on_supports_is_the_dense_table_sum_bit_for_bit(n, d):
    rng = np.random.default_rng(100 * n + d)
    size = MultiJet.zero(n, d).coeffs.size

    def draw(support, complex_):
        coeffs = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 7, size)
        if complex_:
            coeffs = coeffs + 1j * rng.standard_normal(size)
            coeffs[rng.random(size) < 0.2] *= 1j  # some purely imaginary slots
        keep = {"dense": 1.0, "sparse": 0.15, "zero": 0.0}[support]
        coeffs[rng.random(size) >= keep] = 0
        return MultiJet(n, d, coeffs)

    supports = [("sparse", "dense"), ("dense", "sparse"), ("dense", "dense"),
                ("sparse", "sparse"), ("zero", "dense"), ("dense", "zero")]
    for complex_a, complex_b in [(False, False), (True, True), (False, True)]:
        for support_a, support_b in supports:
            a, b = draw(support_a, complex_a), draw(support_b, complex_b)
            for cap in (None, -2, -1, 0, d // 2, d, d + 3):
                got = jet_mul(a, b, degree_cap=cap).coeffs
                want = dense_table_mul(a, b, degree_cap=cap)
                assert got.dtype == want.dtype, (support_a, support_b, cap)
                assert got.tobytes() == want.tobytes(), (support_a, support_b, cap)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_ring_axioms(n, d, seed):
    rng = np.random.default_rng(seed)
    a = random_jet(rng, n, d)
    b = random_jet(rng, n, d)
    c = random_jet(rng, n, d)
    # distributivity
    lhs = jet_mul(a, b + c)
    rhs = jet_mul(a, b) + jet_mul(a, c)
    assert lhs.allclose(rhs, rtol=1e-13, atol=1e-13)
    # scalar compatibility
    assert (jet_mul(a, b) * 2.5).allclose(jet_mul(a * 2.5, b))


def test_shape_mismatch_errors():
    a = MultiJet.zero(2, 3)
    with pytest.raises(ValueError, match="mismatch"):
        a + MultiJet.zero(2, 4)
    with pytest.raises(ValueError, match="mismatch"):
        jet_mul(a, MultiJet.zero(3, 3))


def _graded_desc_lex(num_vars: int, max_degree: int) -> np.ndarray:
    rows = [
        e
        for total in range(max_degree + 1)
        for e in sorted(
            (e for e in itertools.product(range(total + 1), repeat=num_vars) if sum(e) == total),
            reverse=True,
        )
    ]
    return np.array(rows, dtype=np.int64).reshape(len(rows), num_vars)


@pytest.mark.parametrize("shape", [(1, 0), (1, 5), (2, 8), (3, 4), (6, 8)])
def test_basis_is_graded_descending_lex(shape):
    # every coefficient vector depends on this layout
    np.testing.assert_array_equal(_Tables(*shape).exponents, _graded_desc_lex(*shape))


def test_basis_order_at_many_variables():
    exps = _Tables(102, 2).exponents
    assert len(exps) == math.comb(104, 2)
    degrees = exps.sum(axis=1)
    assert np.all(np.diff(degrees) >= 0)
    for a, b in zip(exps[:-1], exps[1:]):
        if a.sum() == b.sum():
            assert tuple(a) > tuple(b)


@pytest.mark.parametrize("alpha", [(-1, 2), (1, 0, 0), (2, 2), (1,)])
def test_bad_multi_index_raises(alpha):
    # a code search alone would return some slot for each of these
    jet = MultiJet.from_terms({(1, 1): 1.0}, 2, 3)
    with pytest.raises(ValueError, match="invalid"):
        jet.coefficient(alpha)
    with pytest.raises(ValueError, match="invalid"):
        MultiJet.from_terms({alpha: 1.0}, 2, 3)


@pytest.mark.parametrize("var", [-1, 2])
def test_bad_variable_raises(var):
    with pytest.raises(ValueError, match="out of range"):
        MultiJet.variable(var, 2, 3)
    with pytest.raises(ValueError, match="out of range"):
        MultiJet.from_univariate([1.0, 2.0], var, 2, 3)


def test_extract_partial_factorial_convention():
    jet = MultiJet.from_terms({(2,): 1.0}, 1, 3)
    assert extract_partial(jet, (2,)) == 2.0
    with pytest.raises(ValueError):
        extract_partial(jet, (4,))


def test_sqrt_binomial_series():
    u = MultiJet.variable(0, 1, 4)  # u with zero constant term
    jet = jet_compose_scalar(power_series(0.5, 1.0, 5), u)
    # sqrt(1 + u) = 1 + u/2 - u^2/8 + u^3/16 - 5u^4/128
    want = [1.0, 0.5, -0.125, 1.0 / 16, -5.0 / 128]
    got = [jet.coefficient((k,)) for k in range(5)]
    assert np.allclose(got, want, rtol=1e-14)


def test_sqrt_rejects_nonpositive_point():
    u = MultiJet.variable(0, 1, 3)
    with pytest.raises(ValueError, match="positive"):
        jet_power(u, 0.5)  # constant term 0


def _horner_over_jet_mul(terms, inner: MultiJet) -> MultiJet:
    """Reference only: Horner's scheme with every step a `jet_mul`."""
    complex_ = np.iscomplexobj(terms) or np.iscomplexobj(inner.coeffs)
    u = inner - inner.value
    if complex_:
        u = MultiJet(u.num_vars, u.max_degree, u.coeffs.astype(np.complex128))
    out = MultiJet.constant(terms[-1] + 0.0, inner.num_vars, inner.max_degree)
    if complex_:
        out = MultiJet(out.num_vars, out.max_degree, out.coeffs.astype(np.complex128))
    for m in range(len(terms) - 2, -1, -1):
        out = jet_mul(out, u) + terms[m]
    return out


@pytest.mark.parametrize("n, d", [(1, 0), (1, 1), (2, 2), (2, 8), (3, 4)])
def test_compose_is_horner_over_jet_mul_bit_for_bit(n, d):
    # the first step scales u instead of multiplying by a constant jet;
    # a negative top term times u's zero slots gives -0.0, which a product
    # sum turns into +0.0
    rng = np.random.default_rng(7 * n + d)
    size = MultiJet.zero(n, d).coeffs.size
    for complex_terms, complex_inner in [(False, False), (True, False), (False, True)]:
        coeffs = rng.standard_normal(size) * (rng.random(size) < 0.6)
        if complex_inner:
            coeffs = coeffs * (1.0 + 0.5j)
        inner = MultiJet(n, d, coeffs)
        for top in (-1.5, 0.0, 2.0):
            terms = rng.standard_normal(d + 1)
            if complex_terms:
                terms = terms + 1j * rng.standard_normal(d + 1)
            terms[-1] = top
            got = jet_compose_scalar(terms, inner).coeffs
            want = _horner_over_jet_mul(terms, inner).coeffs
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (complex_terms, complex_inner, top)


def test_compose_exp_with_quadratic_jet():
    # g(x, y) = exp(0.3 + x + 0.5 y + 0.2 x^2 - 0.1 x y)
    inner = MultiJet.from_terms(
        {(0, 0): 0.3, (1, 0): 1.0, (0, 1): 0.5, (2, 0): 0.2, (1, 1): -0.1}, 2, 5
    )
    # exp(0.3 + t) = e^0.3 sum_m t^m / m!
    jet = jet_compose_scalar(math.exp(0.3) / np.cumprod([1.0, 1.0, 2.0, 3.0, 4.0, 5.0]), inner)

    def g(x, y):
        return math.exp(0.3 + x + 0.5 * y + 0.2 * x * x - 0.1 * x * y)

    h = 1e-2
    # central 2nd mixed difference for d2g/dxdy
    fd = (g(h, h) - g(h, -h) - g(-h, h) + g(-h, -h)) / (4 * h * h)
    assert math.isclose(extract_partial(jet, (1, 1)), fd, rel_tol=1e-4)
    # exact third partials via analytic chain rule spot check
    fd3 = (
        g(2 * h, h) - 2 * g(h, h) + 2 * g(-h, h) - g(-2 * h, h)
        - (g(2 * h, -h) - 2 * g(h, -h) + 2 * g(-h, -h) - g(-2 * h, -h))
    ) / (4 * h**3 * h)
    assert math.isclose(extract_partial(jet, (3, 1)), fd3, rel_tol=1e-12, abs_tol=5e-3 * abs(fd3))


def chord(x1, x2, f, g):
    return math.sqrt((x1 - x2) ** 2 + (f(x1) - g(x2)) ** 2)


def test_chord_length_jet_matches_finite_differences():
    # random polynomial arcs with separated values (chord stays positive)
    rng = np.random.default_rng(5)
    fc = np.concatenate(([1.0, 0.0], 0.2 * rng.standard_normal(4)))
    gc = np.concatenate(([-1.0, 0.0], 0.2 * rng.standard_normal(4)))

    def f(x):
        return sum(c * x**k for k, c in enumerate(fc))

    def g(x):
        return sum(c * x**k for k, c in enumerate(gc))

    d = 5
    x1 = MultiJet.from_univariate(fc, 0, 2, d)
    x2 = MultiJet.from_univariate(gc, 1, 2, d)
    dx = MultiJet.variable(0, 2, d) - MultiJet.variable(1, 2, d)
    dy = x1 - x2
    c2 = jet_mul(dx, dx) + jet_mul(dy, dy)
    cjet = jet_power(c2, 0.5)

    h = 1e-2
    for alpha in [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1), (3, 2), (0, 5)]:
        # tensor-product central differences
        grid_a = [-2, -1, 0, 1, 2]
        weights = {
            0: {0: [1.0]},
        }

        def fd_1d(vals, h):
            # 5-point central first/second derivative helpers
            return vals

        # build FD by nested application of first-derivative stencils
        def partial(fun, orders, h):
            if orders == (0, 0):
                return fun(0.0, 0.0)

            def d1(fn, axis):
                def out(*p):
                    q = list(p)

                    def at(t):
                        q2 = list(p)
                        q2[axis] += t
                        return fn(*q2)

                    return (at(-2 * h) - 8 * at(-h) + 8 * at(h) - at(2 * h)) / (12 * h)

                return out

            fn = fun
            for axis, o in enumerate(orders):
                for _ in range(o):
                    fn = d1(fn, axis)
            return fn(0.0, 0.0)

        want = partial(lambda u, v: chord(u, v, f, g), alpha, h)
        got = extract_partial(cjet, alpha)
        assert math.isclose(got, want, rel_tol=2e-6, abs_tol=2e-6)


def test_chain_rule_against_reciprocal():
    # 1/(2 + x + y^2) has an elementary expansion; verify against compose
    inner = MultiJet.from_terms({(0, 0): 2.0, (1, 0): 1.0, (0, 2): 1.0}, 2, 4)
    # 1/(2 + t) = sum_m (-1)^m t^m / 2^(m+1)
    m = np.arange(5)
    jet = jet_compose_scalar((-1.0) ** m / 2.0 ** (m + 1), inner)

    def f(x, y):
        return 1.0 / (2.0 + x + y * y)

    h = 1e-2
    val = (f(h, 0) - f(-h, 0)) / (2 * h)
    assert math.isclose(extract_partial(jet, (1, 0)), val, rel_tol=1e-4)
    assert math.isclose(jet.value, 0.5, rel_tol=1e-15)


def test_truncate_extend_roundtrip():
    rng = np.random.default_rng(7)
    jet = random_jet(rng, 3, 4)
    up = jet.extended(7)
    assert up.max_degree == 7
    assert up.truncated(4).allclose(jet)
    # extension preserves every original coefficient
    for alpha in [(0, 0, 0), (1, 2, 1), (4, 0, 0)]:
        assert up.coefficient(alpha) == jet.coefficient(alpha)


def test_index_tables_grow_with_the_basis_not_the_code_range():
    # (8 vars, degree 6): 3003 monomials, but codes run up to 7**8
    tracemalloc.start()
    try:
        _Tables(8, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n, d", [(1, 3), (2, 4), (3, 5), (4, 4)])
def test_tensor_map_is_the_index_grid_map(n, d):
    tab = _Tables(n, d)
    assert [a.tolist() for a in tab.tensor_map(0)] == [[0], [1.0]]
    for order in range(1, d + 1):
        basis_idx, scale = tab.tensor_map(order)
        grid = np.indices((n,) * order).reshape(order, -1).T
        exponents = np.zeros((len(grid), n), dtype=np.int64)
        for axis in range(order):
            exponents[np.arange(len(grid)), grid[:, axis]] += 1
        assert np.array_equal(basis_idx, tab.slots(exponents))
        want = [math.prod(math.factorial(int(e)) for e in row) for row in exponents]
        assert np.array_equal(scale, want)


def test_tensor_map_peak_memory_is_twice_its_size():
    # (6 vars, degree 8), order 6: 46,656 index tuples.  An index grid of
    # them alone holds six times the slot array
    tab = _Tables(6, 8)
    tracemalloc.start()
    try:
        basis_idx, scale = tab.tensor_map(6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = basis_idx.nbytes + scale.nbytes
    assert peak < 2.5 * size


def test_derivative_tensor_symmetry_and_values():
    rng = np.random.default_rng(8)
    jet = random_jet(rng, 3, 4)
    t3 = derivative_tensor(jet, 3)
    assert t3.shape == (3, 3, 3)
    for perm in itertools.permutations(range(3)):
        assert np.allclose(t3, np.transpose(t3, perm))
    assert math.isclose(t3[0, 1, 2], extract_partial(jet, (1, 1, 1)), rel_tol=1e-14)
    assert math.isclose(t3[0, 0, 1], extract_partial(jet, (2, 1, 0)), rel_tol=1e-14)
    with pytest.raises(ValueError, match="order"):
        derivative_tensor(jet, 5)


def test_complex_jets():
    rng = np.random.default_rng(9)
    a = random_jet(rng, 2, 3, complex_=True)
    b = random_jet(rng, 2, 3, complex_=True)
    got = dict_of(jet_mul(a, b))
    want = dict_mul(dict_of(a), dict_of(b), 3)
    for k in set(got) | set(want):
        assert abs(got.get(k, 0.0) - want.get(k, 0.0)) < 1e-12
