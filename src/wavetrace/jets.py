"""Truncated multivariate Taylor polynomials ("jets").

A jet of order ``d`` in ``n`` variables stores every coefficient ``c_alpha``
of a polynomial ``sum_alpha c_alpha x^alpha`` with ``|alpha| <= d`` in a
single dense vector.  The monomial basis is ordered by total degree, and
lexicographically (descending first exponent) within each degree, so the
basis of order ``d`` is a prefix of the basis of order ``d' > d`` and
truncation/extension are slices.

Multiplication is a truncated Cauchy product over the nonzero slots of the
two operands only (`jet_mul`): its cost follows the operands' supports, not
the size of the basis, and nothing of size O(pairs of slots) is kept.  The
index tables behind it (exponents, codes, the code index) are O(basis) and
cached per ``(num_vars, max_degree)``, shared by every jet of that shape.
Two tables of the same cache grow faster, and like it live for the whole
process: the derivative-tensor map of each order (``num_vars**order``
entries, `_Tables.tensor_map`, read by `derivative_tensor`) and the
second-derivative table of each variable pair (O(num_vars^2 * basis) over
all pairs, `_Tables.diff2_table`).

A jet that depends on two variables only is built in a 2-variable basis and
placed into the full basis by `embed_pair`: the orbit phase and amplitude
are sums and products of such chord factors, each nonzero on the few slots
of its two variables, so a product with one of them stays small.

Each basis has one index: a linear code of the exponent vector (the code of
a product monomial is the sum of its factors' codes), searched in the
sorted codes.  Products, derivative, tensor and embedding tables, and every
multi-index a caller passes in, find their slots through it.

Values at the expansion point are coefficients: the partial derivative
``d^alpha`` at 0 equals ``alpha! * c_alpha``; `derivative_tensor` reads all
partials of one order at once.
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


def _graded_exponents(num_vars: int, max_degree: int) -> np.ndarray:
    """Exponent rows of the basis: graded, descending-lex within a degree.

    Descending lex on exponents is ascending lex on the sorted variable
    tuples of the monomials, so each degree's rows are the previous
    degree's rows, in order, each times x_v for every v from its last
    variable on.
    """
    rows = np.zeros((1, num_vars), dtype=np.int64)
    last = np.zeros(1, dtype=np.int64)
    blocks = [rows]
    for _ in range(max_degree):
        counts = num_vars - last
        parent = np.repeat(np.arange(len(rows)), counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        last = np.arange(len(parent)) - first + last[parent]
        rows = rows[parent]
        rows[np.arange(len(parent)), last] += 1
        blocks.append(rows)
    return np.concatenate(blocks)


class _Tables:
    """Shared index tables for one (num_vars, max_degree) shape."""

    def __init__(self, num_vars: int, max_degree: int):
        self.num_vars = num_vars
        self.max_degree = max_degree
        self.exponents = _graded_exponents(num_vars, max_degree)
        self.size = len(self.exponents)
        self.degrees = self.exponents.sum(axis=1)
        # Code of an exponent vector e, R^n |e| - sum_v e_v R^(n-1-v) with
        # R = max_degree + 1: linear, so a product's code is the sum of its
        # factors' codes, and rising with the slot unless int64 wraps.
        radix = np.full(num_vars + 1, max_degree + 1, dtype=np.int64) ** np.arange(num_vars + 1)
        self._powers = radix[-1] - radix[-2::-1]
        self.codes = self.exponents @ self._powers
        self._code_order = np.argsort(self.codes)
        self._sorted_codes = self.codes[self._code_order]
        # ends[c] = number of slots of degree <= c
        self.ends = np.searchsorted(self.degrees, np.arange(max_degree + 1), side="right")
        self._diff2: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._tensor_maps: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._pair_maps: dict[tuple[int, int], np.ndarray] = {}

    def slots(self, alphas) -> np.ndarray:
        """Basis slots of the multi-indices in the rows of ``alphas``.

        Raises:
            ValueError: a multi-index of the wrong length, with a negative
                entry or past max_degree (the code search would return a
                wrong slot for it).
        """
        exps = np.asarray(alphas, dtype=np.int64)
        if len(exps) == 0:
            return np.zeros(0, dtype=np.int64)
        if exps.ndim != 2:
            raise ValueError(f"multi-indices must be rows of ints, got shape {exps.shape}")
        bad = (exps < 0).any(axis=1) | (exps.sum(axis=1) > self.max_degree)
        if exps.shape[1] != self.num_vars or bad.any():
            raise ValueError(
                f"multi-index {tuple(int(a) for a in exps[np.argmax(bad)])} invalid "
                f"for ({self.num_vars} vars, degree {self.max_degree})"
            )
        return self._index_of(exps @ self._powers)

    def _index_of(self, codes: np.ndarray) -> np.ndarray:
        """Basis slots of admissible exponent codes."""
        return self._code_order[self._sorted_codes.searchsorted(codes)]

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
        tuple (i1..i_order) to its monomial's basis slot and alpha!.

        The codes of the index tuples are summed one axis at a time by
        broadcasting, the new axis last, so building the map takes about
        twice the map's own memory at its peak."""
        if order not in self._tensor_maps:
            codes = np.zeros(1, dtype=np.int64)
            for _ in range(order):
                codes = (codes[:, None] + self._powers).reshape(-1)
            basis_idx = self._index_of(codes)
            # alpha! of the degree-`order` rows, a contiguous block of the
            # graded basis, from a table of k!
            lo, hi = np.searchsorted(self.degrees, [order, order + 1])
            factorials = np.array([float(math.factorial(k)) for k in range(order + 1)])
            scale = factorials[self.exponents[lo:hi]].prod(axis=1)
            self._tensor_maps[order] = (basis_idx, scale[basis_idx - lo])
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
    if vals.dtype.kind == "c":
        out = np.empty(size, dtype=np.complex128)
        out.real = np.bincount(kk, weights=vals.real, minlength=size)
        out.imag = np.bincount(kk, weights=vals.imag, minlength=size)
        return out
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
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1 to represent a variable")
        return MultiJet.from_univariate([0.0, 1.0], var, num_vars, max_degree)

    @staticmethod
    def from_terms(terms: dict, num_vars: int, max_degree: int) -> "MultiJet":
        """Build from a {exponent tuple: coefficient} mapping."""
        complex_ = any(isinstance(v, complex) for v in terms.values())
        jet = MultiJet.zero(num_vars, max_degree, complex_=complex_)
        slots = _tables(num_vars, max_degree).slots(list(terms))
        np.add.at(jet.coeffs, slots, list(terms.values()))
        return jet

    @staticmethod
    def from_univariate(
        series: Sequence, var: int, num_vars: int, max_degree: int
    ) -> "MultiJet":
        """Place a 1-D Taylor series ``sum_k series[k] t^k`` on variable
        ``x_var``; coefficients beyond max_degree are dropped."""
        if not 0 <= var < num_vars:
            raise ValueError(f"variable index {var} out of range for {num_vars} vars")
        series = np.asarray(series)
        count = min(len(series), max_degree + 1)
        tab = _tables(num_vars, max_degree)
        jet = MultiJet.zero(num_vars, max_degree, complex_=np.iscomplexobj(series))
        # x_var^k has code k * powers[var], admissible for k <= max_degree
        jet.coeffs[tab._index_of(np.arange(count) * tab._powers[var])] = series[:count]
        return jet

    # -- basic queries -----------------------------------------------------

    @property
    def value(self):
        """Value at the expansion point (the constant coefficient)."""
        return self.coeffs[0]

    def coefficient(self, alpha: Iterable[int]):
        return self.coeffs[self._tab().slots([tuple(alpha)])[0]]

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

    Only the nonzero slots of the operands are read: each nonzero slot i of
    ``a`` is paired with the nonzero slots of ``b`` that keep the product
    within the truncation, the product slot is found from the sum of the
    exponent codes, and one `np.bincount` adds the terms, into each slot in
    increasing slot order of ``a``.  That is the order of the sum over every
    pair of basis slots, and the terms left out are zeros, which do not
    change a sum that starts at +0.0: for finite operands the result is
    bit-identical to that dense sum.

    Args:
        a, b: jets with matching (num_vars, max_degree).
        degree_cap: if given, also drop product terms of degree > degree_cap
            (a cheap way to run low-order products inside high-order storage).

    Returns:
        The truncated product jet, of the operands' result dtype.

    Raises:
        ValueError: on shape mismatch.
    """
    a._check_match(b)
    tab = a._tab()
    top = tab.max_degree if degree_cap is None else min(degree_cap, tab.max_degree)
    end = tab.ends[top] if top >= 0 else 0
    ia = a.coeffs[:end].astype(bool).nonzero()[0]
    jb = b.coeffs[:end].astype(bool).nonzero()[0]
    # slot i of a pairs with the slots of b of degree <= top - deg(i): a
    # prefix of jb, as the basis is graded; pairs run i-major
    counts = jb.searchsorted(tab.ends[top - tab.degrees[ia]])
    ii = ia.repeat(counts)
    jj = jb[np.arange(len(ii)) - (counts.cumsum() - counts).repeat(counts)]
    kk = tab._index_of(tab.codes[ii] + tab.codes[jj])
    vals = a.coeffs[ii] * b.coeffs[jj]
    # an empty pair set would give int64 zeros
    out = _bincount(kk, vals, tab.size).astype(vals.dtype, copy=False)
    return MultiJet(a.num_vars, a.max_degree, out)


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
        if m == len(terms) - 2:
            # the constant times u; + 0.0 turns a -0.0 into the +0.0 that
            # `jet_mul`'s sums start from, so this is that product bit for bit
            out = MultiJet(u.num_vars, d, u.coeffs * out.value + 0.0)
        else:
            out = jet_mul(out, u)
        out.coeffs[0] += terms[m]
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


def power_series(p: float, c0, length: int) -> np.ndarray:
    """Taylor coefficients of (c0 + t)^p about t = 0, c0^p * binom(p, m)
    c0^-m; requires c0 > 0."""
    if not (np.real(c0) > 0) or np.imag(c0) != 0:
        raise ValueError(f"power series needs a positive expansion point, got {c0}")
    c0 = float(np.real(c0))
    out = np.empty(length, dtype=np.float64)
    out[0] = c0**p
    binom = 1.0
    for m in range(1, length):
        binom *= (p - (m - 1)) / m
        out[m] = c0**p * binom * c0 ** (-m)
    return out


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
