"""Truncated multivariate Taylor polynomials ("jets").

A jet of order ``d`` in ``n`` variables stores every coefficient ``c_alpha``
of a polynomial ``sum_alpha c_alpha x^alpha`` with ``|alpha| <= d`` in a
single dense vector.  The monomial basis is ordered by total degree, and
lexicographically (descending first exponent) within each degree, so the
basis of order ``d`` is a prefix of the basis of order ``d' > d`` and
truncation/extension are slices.

Multiplication is a truncated Cauchy product driven by a precomputed
``(i, j, k)`` index table (``x^{e_i} * x^{e_j} = x^{e_k}``); the table rows
are grouped by the degree of ``e_k`` so products truncated below the storage
order use only a prefix.  Tables are cached per ``(num_vars, max_degree)``
and shared by every jet of that shape.

A jet that depends on two variables only is built in a 2-variable basis and
placed into the full basis by `embed_pair`: the orbit phase and amplitude
are sums and products of such chord factors, so only their assembly runs at
full size.

Values at the expansion point are coefficients: the partial derivative
``d^alpha`` at 0 equals ``alpha! * c_alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "MultiJet",
    "jet_mul",
    "jet_compose_scalar",
    "extract_partial",
    "jet_power",
    "embed_pair",
    "power_series",
    "derivative_tensor",
]


def _monomials(total: int, n: int):
    """Yield all exponent tuples of `n` non-negative ints summing to `total`,
    in descending lexicographic order."""
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _monomials(total - first, n - 1):
            yield (first,) + rest


class _Tables:
    """Shared index tables for one (num_vars, max_degree) shape."""

    def __init__(self, num_vars: int, max_degree: int):
        self.num_vars = num_vars
        self.max_degree = max_degree
        exps: list[tuple[int, ...]] = []
        for total in range(max_degree + 1):
            exps.extend(_monomials(total, num_vars))
        self.exponents = np.array(exps, dtype=np.int64)
        self.size = len(exps)
        self.degrees = self.exponents.sum(axis=1)
        # Mixed-radix code of an exponent vector; radix max_degree+1 has no
        # carries under addition of two admissible exponents.
        self._radix = max_degree + 1
        powers = self._radix ** np.arange(num_vars, dtype=np.int64)
        self._powers = powers
        self.codes = self.exponents @ powers
        self._code_order = np.argsort(self.codes)
        self._sorted_codes = self.codes[self._code_order]
        self.index = {tuple(int(x) for x in e): i for i, e in enumerate(exps)}
        self.factorials = np.array(
            [math.prod(math.factorial(int(t)) for t in e) for e in exps],
            dtype=np.float64,
        )
        self._mul: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._diff2: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._tensor_maps: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._pair_maps: dict[tuple[int, int], np.ndarray] = {}

    def _index_of(self, codes: np.ndarray) -> np.ndarray:
        """Basis slots of admissible exponent codes."""
        return self._code_order[np.searchsorted(self._sorted_codes, codes)]

    def mul_table(self):
        """(ii, jj, kk, offsets): result[kk] += a[ii]*b[jj]; rows sorted by
        deg(e_kk); offsets[c] = number of rows with deg <= c."""
        if self._mul is None:
            ii_parts, jj_parts = [], []
            d = self.max_degree
            for da in range(d + 1):
                left = np.nonzero(self.degrees == da)[0]
                right = np.nonzero(self.degrees <= d - da)[0]
                if len(left) == 0 or len(right) == 0:
                    continue
                ii_parts.append(np.repeat(left, len(right)))
                jj_parts.append(np.tile(right, len(left)))
            ii = np.concatenate(ii_parts)
            jj = np.concatenate(jj_parts)
            kk = self._index_of(self.codes[ii] + self.codes[jj])
            order = np.argsort(self.degrees[kk], kind="stable")
            ii, jj, kk = ii[order], jj[order], kk[order]
            degs = self.degrees[kk]
            offsets = np.searchsorted(degs, np.arange(d + 2), side="left")
            self._mul = (ii, jj, kk, offsets)
        return self._mul

    def diff2_table(self, u: int, v: int):
        """(src, dst, factor) with out[dst] = factor * in[src] for the second
        derivative d2/dx_u dx_v."""
        key = (u, v) if u <= v else (v, u)
        if key not in self._diff2:
            u0, v0 = key
            eu = self.exponents[:, u0]
            ev = self.exponents[:, v0]
            if u0 == v0:
                mask = eu >= 2
                factor = (eu * (eu - 1))[mask].astype(np.float64)
            else:
                mask = (eu >= 1) & (ev >= 1)
                factor = (eu * ev)[mask].astype(np.float64)
            src = np.nonzero(mask)[0]
            dst = self._index_of(self.codes[src] - self._powers[u0] - self._powers[v0])
            self._diff2[key] = (src, dst, factor)
        return self._diff2[key]

    def tensor_map(self, order: int):
        """(basis_idx, scale) of length num_vars**order mapping each index
        tuple (i1..i_order) to its monomial's basis slot and alpha!."""
        if order not in self._tensor_maps:
            n = self.num_vars
            if order == 0:
                basis_idx = np.zeros(1, dtype=np.int64)
            else:
                grids = np.indices((n,) * order).reshape(order, -1)
                codes = np.zeros(grids.shape[1], dtype=np.int64)
                for axis in range(order):
                    codes += self._powers[grids[axis]]
                basis_idx = self._index_of(codes)
            self._tensor_maps[order] = (basis_idx, self.factorials[basis_idx])
        return self._tensor_maps[order]

    def pair_map(self, p: int, q: int) -> np.ndarray:
        """Basis slots of the 2-variable basis of this degree under
        y_0 -> x_p, y_1 -> x_q."""
        if (p, q) not in self._pair_maps:
            pair = _tables(2, self.max_degree).exponents
            codes = pair[:, 0] * self._powers[p] + pair[:, 1] * self._powers[q]
            self._pair_maps[(p, q)] = self._index_of(codes)
        return self._pair_maps[(p, q)]


_TABLE_CACHE: dict[tuple[int, int], _Tables] = {}


def _tables(num_vars: int, max_degree: int) -> _Tables:
    key = (num_vars, max_degree)
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        if num_vars < 1:
            raise ValueError(f"num_vars must be >= 1, got {num_vars}")
        if max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {max_degree}")
        tab = _Tables(num_vars, max_degree)
        _TABLE_CACHE[key] = tab
    return tab


def _bincount(kk: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    if np.iscomplexobj(vals):
        return np.bincount(kk, weights=vals.real, minlength=size) + 1j * np.bincount(
            kk, weights=vals.imag, minlength=size
        )
    return np.bincount(kk, weights=vals, minlength=size)


@dataclass(frozen=True)
class MultiJet:
    """Dense truncated Taylor polynomial.

    Attributes:
        num_vars: number of variables ``n >= 1``.
        max_degree: truncation order ``d >= 0``; all arithmetic stays at this
            order and mixing orders (or variable counts) is an error.
        coeffs: coefficient vector over the graded monomial basis
            (float64 or complex128), length ``C(n+d, n)``.
    """

    num_vars: int
    max_degree: int
    coeffs: np.ndarray = field(repr=False)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(num_vars: int, max_degree: int, complex_: bool = False) -> "MultiJet":
        tab = _tables(num_vars, max_degree)
        dtype = np.complex128 if complex_ else np.float64
        return MultiJet(num_vars, max_degree, np.zeros(tab.size, dtype=dtype))

    @staticmethod
    def constant(value, num_vars: int, max_degree: int) -> "MultiJet":
        jet = MultiJet.zero(num_vars, max_degree, complex_=isinstance(value, complex))
        jet.coeffs[0] = value
        return jet

    @staticmethod
    def variable(var: int, num_vars: int, max_degree: int) -> "MultiJet":
        """The jet of the coordinate function ``x_var`` (0-based)."""
        if not 0 <= var < num_vars:
            raise ValueError(f"variable index {var} out of range for {num_vars} vars")
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1 to represent a variable")
        tab = _tables(num_vars, max_degree)
        jet = MultiJet.zero(num_vars, max_degree)
        jet.coeffs[tab.index[tuple(1 if i == var else 0 for i in range(num_vars))]] = 1.0
        return jet

    @staticmethod
    def from_terms(terms: dict, num_vars: int, max_degree: int) -> "MultiJet":
        """Build from a {exponent tuple: coefficient} mapping."""
        tab = _tables(num_vars, max_degree)
        complex_ = any(isinstance(v, complex) for v in terms.values())
        jet = MultiJet.zero(num_vars, max_degree, complex_=complex_)
        for alpha, val in terms.items():
            if len(alpha) != num_vars:
                raise ValueError(f"exponent {alpha} has wrong length for {num_vars} vars")
            if sum(alpha) > max_degree:
                raise ValueError(f"exponent {alpha} exceeds max_degree={max_degree}")
            jet.coeffs[tab.index[tuple(int(a) for a in alpha)]] += val
        return jet

    @staticmethod
    def from_univariate(
        series: Sequence, var: int, num_vars: int, max_degree: int
    ) -> "MultiJet":
        """Place a 1-D Taylor series ``sum_k series[k] t^k`` on variable
        ``x_var``; coefficients beyond max_degree are dropped."""
        tab = _tables(num_vars, max_degree)
        series = np.asarray(series)
        jet = MultiJet.zero(num_vars, max_degree, complex_=np.iscomplexobj(series))
        for k in range(min(len(series), max_degree + 1)):
            alpha = tuple(k if i == var else 0 for i in range(num_vars))
            jet.coeffs[tab.index[alpha]] = series[k]
        return jet

    # -- basic queries -----------------------------------------------------

    @property
    def value(self):
        """Value at the expansion point (the constant coefficient)."""
        return self.coeffs[0]

    def coefficient(self, alpha: Iterable[int]):
        alpha = tuple(int(a) for a in alpha)
        tab = self._tab()
        if len(alpha) != self.num_vars or sum(alpha) > self.max_degree:
            raise ValueError(
                f"multi-index {alpha} invalid for ({self.num_vars} vars, degree {self.max_degree})"
            )
        return self.coeffs[tab.index[alpha]]

    def _tab(self) -> _Tables:
        return _tables(self.num_vars, self.max_degree)

    def _check_match(self, other: "MultiJet"):
        if (self.num_vars, self.max_degree) != (other.num_vars, other.max_degree):
            raise ValueError(
                "jet shape mismatch: "
                f"({self.num_vars} vars, degree {self.max_degree}) vs "
                f"({other.num_vars} vars, degree {other.max_degree})"
            )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, MultiJet):
            self._check_match(other)
            return MultiJet(self.num_vars, self.max_degree, self.coeffs + other.coeffs)
        out = self.coeffs.astype(np.result_type(self.coeffs, other), copy=True)
        out[0] += other
        return MultiJet(self.num_vars, self.max_degree, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiJet(self.num_vars, self.max_degree, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiJet) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MultiJet):
            return jet_mul(self, other)
        return MultiJet(self.num_vars, self.max_degree, self.coeffs * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return MultiJet(self.num_vars, self.max_degree, self.coeffs / other)

    # -- calculus ----------------------------------------------------------

    def gradient_at_zero(self) -> np.ndarray:
        tab = self._tab()
        out = np.zeros(self.num_vars, dtype=self.coeffs.dtype)
        if self.max_degree >= 1:
            for v in range(self.num_vars):
                alpha = tuple(1 if i == v else 0 for i in range(self.num_vars))
                out[v] = self.coeffs[tab.index[alpha]]
        return out

    def hessian_at_zero(self) -> np.ndarray:
        tab = self._tab()
        out = np.zeros((self.num_vars, self.num_vars), dtype=self.coeffs.dtype)
        if self.max_degree < 2:
            return out
        for u in range(self.num_vars):
            for v in range(u, self.num_vars):
                alpha = [0] * self.num_vars
                alpha[u] += 1
                alpha[v] += 1
                c = self.coeffs[tab.index[tuple(alpha)]]
                d2 = c * (2.0 if u == v else 1.0)
                out[u, v] = d2
                out[v, u] = d2
        return out

    def strip_below(self, degree: int) -> "MultiJet":
        """Zero out all coefficients of total degree < degree."""
        tab = self._tab()
        out = self.coeffs.copy()
        out[tab.degrees < degree] = 0.0
        return MultiJet(self.num_vars, self.max_degree, out)

    def truncated(self, new_degree: int) -> "MultiJet":
        if new_degree > self.max_degree:
            raise ValueError("truncated() cannot raise the degree; use extended()")
        tab = _tables(self.num_vars, new_degree)
        return MultiJet(self.num_vars, new_degree, self.coeffs[: tab.size].copy())

    def extended(self, new_degree: int) -> "MultiJet":
        """Zero-pad to a higher truncation order (graded basis is a prefix)."""
        if new_degree < self.max_degree:
            raise ValueError("extended() cannot lower the degree; use truncated()")
        tab = _tables(self.num_vars, new_degree)
        out = np.zeros(tab.size, dtype=self.coeffs.dtype)
        out[: len(self.coeffs)] = self.coeffs
        return MultiJet(self.num_vars, new_degree, out)

    def allclose(self, other: "MultiJet", rtol=1e-12, atol=1e-12) -> bool:
        self._check_match(other)
        return bool(np.allclose(self.coeffs, other.coeffs, rtol=rtol, atol=atol))


# ---------------------------------------------------------------------------
# module-level operations


def jet_mul(a: MultiJet, b: MultiJet, degree_cap: int | None = None) -> MultiJet:
    """Cauchy product truncated at the common max_degree.

    Args:
        a, b: jets with matching (num_vars, max_degree).
        degree_cap: if given, also drop product terms of degree > degree_cap
            (a cheap way to run low-order products inside high-order storage).

    Returns:
        The truncated product jet.

    Raises:
        ValueError: on shape mismatch.
    """
    a._check_match(b)
    tab = a._tab()
    ii, jj, kk, offsets = tab.mul_table()
    if degree_cap is not None and degree_cap < tab.max_degree:
        stop = offsets[max(degree_cap, -1) + 1]
        ii, jj, kk = ii[:stop], jj[:stop], kk[:stop]
    vals = a.coeffs[ii] * b.coeffs[jj]
    return MultiJet(a.num_vars, a.max_degree, _bincount(kk, vals, tab.size))


def jet_compose_scalar(outer: Sequence, inner: MultiJet) -> MultiJet:
    """Compose a univariate analytic function with a jet.

    ``outer`` holds the Taylor coefficients of the outer function *about the
    inner jet's value*: ``g(c + t) = sum_m outer[m] t^m`` where
    ``c = inner.value``.  The composition is evaluated by Horner's scheme on
    the nilpotent part ``inner - c`` and truncated at ``inner.max_degree``.

    Args:
        outer: 1-D sequence of Taylor coefficients (length > max_degree is
            harmlessly ignored: higher powers of the nilpotent part vanish).
        inner: the inner jet.

    Returns:
        The composed jet (complex if either input is complex).
    """
    outer = np.asarray(outer)
    if outer.ndim != 1 or len(outer) == 0:
        raise ValueError("outer series must be a non-empty 1-D coefficient array")
    d = inner.max_degree
    terms = outer[: d + 1]
    u = inner - inner.value
    if np.iscomplexobj(terms) and not np.iscomplexobj(u.coeffs):
        u = MultiJet(u.num_vars, u.max_degree, u.coeffs.astype(np.complex128))
    out = MultiJet.constant(terms[-1] + 0.0, inner.num_vars, d)
    if np.iscomplexobj(terms) or np.iscomplexobj(inner.coeffs):
        out = MultiJet(out.num_vars, d, out.coeffs.astype(np.complex128))
    for m in range(len(terms) - 2, -1, -1):
        out = jet_mul(out, u) + terms[m]
    return out


def extract_partial(jet: MultiJet, alpha: Iterable[int]):
    """Partial-derivative value ``d^alpha jet(0)`` = coefficient times alpha!.

    Raises:
        ValueError: if |alpha| exceeds the jet's truncation order.
    """
    alpha = tuple(int(a) for a in alpha)
    c = jet.coefficient(alpha)
    return c * math.prod(math.factorial(a) for a in alpha)


# ---------------------------------------------------------------------------
# scalar series and composed analytic functions


def _binomial_series(p: float, c0, length: int) -> np.ndarray:
    """Coefficients of (c0 + t)^p in powers of t: c0^p * binom(p, m) c0^-m."""
    out = np.empty(length, dtype=np.result_type(type(c0), np.float64))
    coeff = c0**p
    out[0] = coeff
    binom = 1.0
    for m in range(1, length):
        binom *= (p - (m - 1)) / m
        out[m] = c0**p * binom * c0 ** (-m)
    return out


def power_series(p: float, c0, length: int) -> np.ndarray:
    """Taylor coefficients of (c0 + t)^p about t = 0; requires c0 > 0."""
    if not (np.real(c0) > 0) or np.imag(c0) != 0:
        raise ValueError(f"power series needs a positive expansion point, got {c0}")
    return _binomial_series(p, float(np.real(c0)), length)


def jet_power(jet: MultiJet, p: float) -> MultiJet:
    return jet_compose_scalar(power_series(p, jet.value, jet.max_degree + 1), jet)


def embed_pair(jet: MultiJet, p: int, q: int, num_vars: int) -> MultiJet:
    """The 2-variable jet ``g(y_0, y_1)`` as the ``num_vars``-variable jet
    ``g(x_p, x_q)``, at the same degree.

    Raises:
        ValueError: ``jet`` not in 2 variables, or p, q equal or out of range.
    """
    if jet.num_vars != 2:
        raise ValueError(f"embed_pair needs a 2-variable jet, got {jet.num_vars}")
    if p == q or not (0 <= p < num_vars and 0 <= q < num_vars):
        raise ValueError(f"variables ({p}, {q}) invalid for {num_vars} vars")
    tab = _tables(num_vars, jet.max_degree)
    out = np.zeros(tab.size, dtype=jet.coeffs.dtype)
    out[tab.pair_map(p, q)] = jet.coeffs
    return MultiJet(num_vars, jet.max_degree, out)


# ---------------------------------------------------------------------------
# derivative tensors (used by the diagram engine)


def derivative_tensor(jet: MultiJet, order: int) -> np.ndarray:
    """Dense symmetric tensor of all order-`order` partials at 0.

    Entry ``T[i1, ..., i_order] = d^order jet / dx_{i1} ... dx_{i_order} (0)``.

    Raises:
        ValueError: if order exceeds the jet's truncation degree.
    """
    if order > jet.max_degree:
        raise ValueError(
            f"requested derivative order {order} exceeds jet degree {jet.max_degree}"
        )
    tab = jet._tab()
    basis_idx, scale = tab.tensor_map(order)
    flat = jet.coeffs[basis_idx] * scale
    if order == 0:
        return flat.reshape(())
    return flat.reshape((jet.num_vars,) * order)
