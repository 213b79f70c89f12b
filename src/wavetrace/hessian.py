"""Hessians of the billiard length functional at iterated two-point orbits.

In graph coordinates straightening the orbit, the Hessian of the length of
the r-fold bouncing-ball path is the cyclic tridiagonal-plus-corners matrix

    H_2r = -(1/L) * C(a, b),

where C has diagonal alternating ``a`` (odd slots, the f_+ bounces) and
``b`` (even slots), unit entries on the cyclic off-diagonals (doubled to 2
at size two), and a = -2(1 + L f''_+(0)), b = -2(1 - L f''_-(0)).

C is block-circulant, so every inverse entry is a finite Fourier sum over
its symbol (Davis, *Circulant Matrices*, 1979).  For mirror-symmetric
tables (a = b) the matrix is a genuine circulant with the scalar symbol
a + 2 cos(theta); for a != b it is circulant in 2 x 2 blocks with the
symbol

    S(theta) = [[a, 1 + e^{i theta}], [1 + e^{-i theta}, b]],

sampled at theta_k = 2 pi k / r, which also covers the doubled corner at
size two.  One routine inverts the symbol and transforms back; every
inverse entry used by the forward tables and by recovery comes from it,
and it alone decides when an iterate is singular: the smallest singular
value of the symbol at some frequency is at most 1e-8, reported as the
``symbol-pole`` obstruction.  The dihedral m-gon Hessians are circulants
of the same kind and go through the same routine.

The top closed form of the invariants and the recovery steps read the
inverse only through its diagonal and its sums over bounce parities,
plain and cubed (`parity_sums`); for a = b these give h^11, the row sum
and the cubic sum F_3(r, a) that controls the decoupling step of the
inverse spectral algorithm.  A forward table and a recovery each need
these sums for every iterate of one orbit, and get them from one
`stacked_parity_sums` pass per job: the
symbol work is one array expression over all iterates, and each value is
bit-identical to that of its iterate alone.  For a = b the module also
gives the Chebyshev closed form of the inverse entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from wavetrace.domain import DomainSpec, ObstructionError, kt_parameters

__all__ = [
    "CirculantHessian",
    "hessian_matrix",
    "inverse_fourier",
    "inverse_chebyshev",
    "inverse_matrix",
    "parity_sums",
    "stacked_parity_sums",
    "cubic_sum",
    "bad_set",
    "badset_report",
    "check_rank",
    "dihedral_inverse_entry",
]

_POLE_TOL = 1e-8

# relative conditioning floor below which a decoupling system is treated
# as singular (exactly-bad Floquet parameters produce proportional rows)
_SING_TOL = 1e-8


@dataclass(frozen=True)
class CirculantHessian:
    """Length-Hessian data of the r-fold iterate of a two-point orbit.

    Attributes:
        r: iterate count (matrix size is 2r).
        L: half-length of the primitive orbit.
        a: diagonal parameter at the odd (top) bounce slots.
        b: diagonal parameter at the even (bottom) slots; equals ``a``
            for mirror-symmetric tables.
        symmetric: whether a == b (exact comparison; symmetric specs
            produce bit-equal parameters).
    """

    r: int
    L: float
    a: float
    b: float
    symmetric: bool = field(init=False)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("iterate r must be >= 1")
        if self.L <= 0:
            raise ValueError("L must be positive")
        object.__setattr__(self, "symmetric", self.a == self.b)

    @classmethod
    def from_spec(cls, spec: DomainSpec, r: int) -> "CirculantHessian":
        a, b = kt_parameters(spec)
        if spec.symmetric:
            b = a
        return cls(r=r, L=spec.L, a=a, b=b)

    @property
    def n(self) -> int:
        return 2 * self.r


def _require_symmetric(h: CirculantHessian, what: str):
    if not h.symmetric:
        raise ValueError(f"{what} requires a mirror-symmetric Hessian (a == b)")


def _symbol_inverses(
    diag: tuple[float, ...], sizes
) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """Inverse symbols of the n x n cyclic tridiagonal matrices with unit
    off-diagonals and diagonal ``diag`` repeated (P = len(diag) is 1 or 2),
    one per size n in ``sizes``, in one array pass over all of them.

    Returns (inv, blocks, poles).  ``poles`` maps the position in ``sizes``
    of each singular matrix to the first k at which the smallest singular
    value of its symbol S(theta_k), theta_k = 2 pi k / (n/P), is at most
    _POLE_TOL.  ``inv`` stacks S(theta_k)^{-1}, k = 0..n/P - 1, of the other
    sizes in their order, shape (sum of their n/P, P, P), and ``blocks``
    holds their n/P.  Every element rounds as it would for its size alone.
    """
    blocks = np.array(sizes, dtype=np.int64) // len(diag)
    owner = np.repeat(np.arange(len(blocks)), blocks)
    k = np.arange(len(owner)) - (np.cumsum(blocks) - blocks)[owner]
    theta = 2.0 * np.pi * k / blocks[owner]
    if len(diag) == 1:
        sym = diag[0] + 2.0 * np.cos(theta)
        smin = np.abs(sym)
    else:
        a, b = diag
        corner = 1.0 + np.exp(1j * theta)
        det = a * b - np.abs(corner) ** 2
        # S is Hermitian: |det| over its largest |eigenvalue|
        smax = 0.5 * abs(a + b) + np.sqrt(0.25 * (a - b) ** 2 + np.abs(corner) ** 2)
        smin = np.abs(det) / smax
    bad = np.flatnonzero(smin <= _POLE_TOL)
    poles: dict[int, int] = {}
    if bad.size:
        # invert the admitted sizes only: a pole would divide by zero
        for i, kk in zip(owner[bad].tolist(), k[bad].tolist()):
            poles.setdefault(i, kk)
        keep = ~np.isin(owner, list(poles))
        blocks = np.delete(blocks, list(poles))
        if len(diag) == 1:
            sym = sym[keep]
        else:
            corner, det = corner[keep], det[keep]
    if len(diag) == 1:
        return (1.0 / sym)[:, None, None], blocks, poles
    inv = np.empty((len(det), 2, 2), dtype=complex)
    inv[:, 0, 0], inv[:, 0, 1] = b, -corner
    inv[:, 1, 0], inv[:, 1, 1] = -corner.conj(), a
    return inv / det[:, None, None], blocks, poles


def _pole_error(k: int, where: str) -> ObstructionError:
    return ObstructionError(
        "symbol-pole",
        f"the Hessian symbol is singular at k = {k} ({where}): "
        "the orbit iterate is resonant",
    )


def _symbol_inverse(diag: tuple[float, ...], n: int, where: str) -> np.ndarray:
    """`_symbol_inverses` of the one size n, shape (n/P, P, P).

    Raises:
        ObstructionError("symbol-pole"): a singular symbol; ``where`` names
            the iterate in the message.
    """
    inv, _, poles = _symbol_inverses(diag, [n])
    if poles:
        raise _pole_error(poles[0], where)
    return inv


def _cyclic_inverse_rows(diag: tuple[float, ...], n: int, where: str) -> np.ndarray:
    """First P = len(diag) rows of C^{-1}, shape (P, n), for the cyclic
    tridiagonal C of `_symbol_inverse`.

    C^{-1} is circulant in P x P blocks, block d being the inverse DFT
    (1/N) sum_k S(theta_k)^{-1} e^{i theta_k d} over the N = n/P frequencies.
    """
    blocks = np.fft.ifft(_symbol_inverse(diag, n, where), axis=0).real
    return blocks.transpose(1, 0, 2).reshape(len(diag), n)


def _entries(rows: np.ndarray, p, q):
    """Entries (p, q), 0-based, of the symmetric block-circulant matrix
    whose first P rows are ``rows``; p and q may be index arrays."""
    size, n = rows.shape
    s = p % size
    return rows[s, (q - p + s) % n]


def _iterate_label(r: int, a: float, b: float) -> str:
    """The iterate's label in pole messages."""
    if a == b:
        return f"r = {r}, a = {a:.12g}"
    return f"r = {r}, a = {a:.12g}, b = {b:.12g}"


def _symbol_diagonal(h: CirculantHessian) -> tuple[tuple[float, ...], str]:
    """The repeating diagonal of C(a, b), (a,) or (a, b), and the iterate's
    label for pole messages."""
    diag = (h.a,) if h.symmetric else (h.a, h.b)
    return diag, _iterate_label(h.r, h.a, h.b)


def _inverse_rows(h: CirculantHessian) -> np.ndarray:
    """First one (a == b) or two (a != b) rows of H^{-1} = -L C(a, b)^{-1}."""
    diag, where = _symbol_diagonal(h)
    return -h.L * _cyclic_inverse_rows(diag, h.n, where)


def hessian_matrix(h: CirculantHessian) -> np.ndarray:
    """Dense 2r x 2r Hessian matrix -(1/L) C(a, b).

    At size two the cyclic neighbours coincide and the off-diagonal entry
    doubles: H_2 = -(1/L) [[a, 2], [2, b]].
    """
    n = h.n
    mat = np.zeros((n, n))
    idx = np.arange(n)
    mat[idx, idx] = np.where(idx % 2 == 0, h.a, h.b)
    if n == 2:
        mat[0, 1] = mat[1, 0] = 2.0
    else:
        mat[idx, (idx + 1) % n] += 1.0
        mat[idx, (idx - 1) % n] += 1.0
    return -mat / h.L


def inverse_fourier(h: CirculantHessian, p: int, q: int) -> float:
    """Inverse entry h^{pq} by finite Fourier inversion of the symbol.

    For a = b, h^{1q} = (-L / 2r) sum_k w^{(q-1)k} / p_{a,r}(w^k) with
    w = e^{i pi / r}, and h^{pq} = h^{1, q-p+1} by the circulant shift; for
    a != b the shift is by whole 2 x 2 blocks.

    Raises:
        ObstructionError("symbol-pole"): resonant parameter, naming k.
    """
    _check_index(h, p)
    _check_index(h, q)
    return float(_entries(_inverse_rows(h), p - 1, q - 1))


def inverse_chebyshev(h: CirculantHessian, p: int, q: int) -> float:
    """Inverse entry h^{pq} in terms of Chebyshev polynomials.

    (-L)^{-1} h^{pq} = [U_{2r-q+p-1}(-a/2) + U_{q-p-1}(-a/2)]
                       / (2 [1 - T_{2r}(-a/2)])  for p <= q, with U_{-1} = 0;
    the matrix is symmetric so p > q swaps the indices.

    Raises:
        ObstructionError("symbol-pole"): resonant parameter, by the same
            symbol test as every other inverse entry.
    """
    from scipy.special import eval_chebyt

    _require_symmetric(h, "inverse_chebyshev")
    _check_index(h, p)
    _check_index(h, q)
    diag, where = _symbol_diagonal(h)
    _symbol_inverse(diag, h.n, where)  # the one pole test; raises symbol-pole
    if p > q:
        p, q = q, p
    x = -h.a / 2.0
    denom = 2.0 * (1.0 - float(eval_chebyt(h.n, x)))
    return -h.L * (_chebyu(h.n - q + p - 1, x) + _chebyu(q - p - 1, x)) / denom


def _chebyu(n: int, x: float) -> float:
    from scipy.special import eval_chebyu

    return 0.0 if n < 0 else float(eval_chebyu(n, x))


def _check_index(h: CirculantHessian, p: int):
    if not 1 <= p <= h.n:
        raise ValueError(f"index {p} outside 1..{h.n}")


def inverse_matrix(h: CirculantHessian, method: str = "fourier") -> np.ndarray:
    """Full inverse of the Hessian matrix.

    Args:
        h: Hessian data.
        method: "fourier" (any a, b; symbol inversion) | "chebyshev"
            (symmetric only) | "dense" (any a, b; plain linear solve).
    """
    n = h.n
    if method == "dense":
        return np.linalg.inv(hessian_matrix(h))
    if method == "fourier":
        idx = np.arange(n)
        return _entries(_inverse_rows(h), idx[:, None], idx[None, :])
    if method == "chebyshev":
        _require_symmetric(h, "inverse_matrix(chebyshev)")
        # entry (p, q) depends on |q - p| only
        row = np.array([inverse_chebyshev(h, 1, q) for q in range(1, n + 1)])
        idx = np.arange(n)
        return row[np.abs(idx[:, None] - idx[None, :])]
    raise ValueError(f"unknown method {method!r}")


def parity_sums(h: CirculantHessian) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal and parity-block sums of H^{-1}, from its first two rows.

    With s, t the bounce parities (0: the f_+ slots, 1: the f_- slots),
    returns (d, S1, S3): d[s] = h^{pp}, S1[s, t] = sum over q of parity t
    of h^{pq}, and S3[s, t] the same sum of (h^{pq})^3, for any p of
    parity s.  For a = b, h^11 = d[0], the row sum S1[0].sum() is
    -L/(a+2) and F_3(r, a) = S3[0].sum().  The stack of one of
    `stacked_parity_sums`.

    Raises:
        ObstructionError("symbol-pole"): resonant parameter, naming k.
    """
    sums, poles = stacked_parity_sums(h.L, h.a, h.b, [h.r])
    if poles:
        raise poles[h.r]
    return tuple(s[0] for s in sums)


def stacked_parity_sums(
    L: float, a: float, b: float, rs, s1: bool = True
) -> tuple[tuple[np.ndarray, np.ndarray | None, np.ndarray], dict[int, ObstructionError]]:
    """`parity_sums` of the iterates ``rs`` of one orbit, in one pass.

    theta, the symbol, its pole test, the inverse symbol and the cubes are
    each one array expression over all iterates, and one concatenation
    lays out the first two rows of every inverse (the a = b row shift
    included).  The inverse DFT and the sums over the r blocks stay one
    call per iterate: stacked, they would round differently.  So every
    value is bit-identical to that of the iterate alone.

    Returns (sums, poles).  ``sums`` stacks (d, S1, S3) of the iterates
    whose symbol is regular, in the order of ``rs``: shapes (R, 2),
    (R, 2, 2) and (R, 2, 2); with ``s1`` False, S1 is None and not built
    (only the forward closed form reads it).  ``poles`` maps every other
    iterate, in the order of ``rs``, to the ObstructionError("symbol-pole")
    that `parity_sums` raises for it, naming r and k.

    Raises:
        ValueError: L <= 0 or an iterate below 1.
    """
    rs = list(rs)
    if L <= 0:
        raise ValueError("L must be positive")
    if any(r < 1 for r in rs):
        raise ValueError("iterate r must be >= 1")
    diag = (a,) if a == b else (a, b)
    inv, blocks, singular = _symbol_inverses(diag, [2 * r for r in rs])
    poles = {rs[i]: _pole_error(k, _iterate_label(rs[i], a, b)) for i, k in singular.items()}
    admitted = [r for i, r in enumerate(rs) if i not in singular]
    if not admitted:
        return (np.empty((0, 2)), np.empty((0, 2, 2)) if s1 else None, np.empty((0, 2, 2))), poles
    ends = np.cumsum(blocks).tolist()
    spectra = [
        np.fft.ifft(inv[end - n:end], axis=0).real for n, end in zip(blocks.tolist(), ends)
    ]
    # the first two rows of each C^{-1}, laid end to end: C^{-1} is
    # circulant in P x P blocks, so entry (s, d P + t) of its first P rows
    # is entry (s, t) of the d-th block of the inverse DFT
    if len(diag) == 2:
        pieces = [block.transpose(1, 0, 2).reshape(-1) for block in spectra]
    else:
        # a == b: row 1 of the circulant is row 0 moved one slot right
        pieces = []
        for block in spectra:
            row = block.reshape(-1)
            pieces += (row, row[-1:], row[:-1])
    rows = -L * np.concatenate(pieces)
    cubes = rows * rows * rows
    iterates = np.array(admitted)
    base = 4 * (np.cumsum(iterates) - iterates)  # where each iterate's rows start
    diagonal = rows[np.stack((base, base + 2 * iterates + 1), axis=1)]
    # the sums over the r blocks, as products with ones: the cheapest
    # reductions here
    ones = np.ones(max(admitted))
    starts = base.tolist()

    def block_sums(values):
        return np.array([
            ones[:r] @ values[lo:lo + 4 * r].reshape(2, r, 2) for r, lo in zip(admitted, starts)
        ])

    return (diagonal, block_sums(rows) if s1 else None, block_sums(cubes)), poles


def cubic_sum(h: CirculantHessian, method: str = "direct") -> float:
    """F_3(r, a) = sum_q (h^{1q})^3.

    Computed directly ("direct": cube-and-sum of the inverse row, from
    `parity_sums`) or as the double trigonometric character sum
    ("dedekind")

        F_3 = (-L)^3/(2r)^2 * sum_{k1,k2} 1/(p(k1) p(k2) p(k1+k2)),

    with p(k) = a + 2 cos(pi k / r).  The tests hold the two routes to
    each other.
    """
    _require_symmetric(h, "cubic_sum")
    if method == "direct":
        return float(parity_sums(h)[2][0].sum())
    if method == "dedekind":
        diag, where = _symbol_diagonal(h)
        inv = _symbol_inverse(diag, h.n, where)[:, 0, 0]
        k = np.arange(h.n)
        wrap = (k[:, None] + k[None, :]) % h.n
        return float(
            (-h.L) ** 3 / h.n**2 * np.sum(inv[:, None] * inv[None, :] * inv[wrap])
        )
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# the finite exceptional set of Floquet parameters


def _difference_polynomial() -> np.ndarray:
    """Coefficients (descending) of (a^3-2a)^2 (a^3-8) - (a^9-6a^7-2a^6+12a^5).

    Roots of this polynomial are the parameters where the r = 1 and r = 2
    decoupling rows are proportional.
    """
    lhs = np.polymul(np.polymul([1, 0, -2, 0], [1, 0, -2, 0]), [1, 0, 0, -8])
    rhs = np.array([1, 0, -6, -2, 12, 0, 0, 0, 0, 0], dtype=float)
    return np.polysub(lhs, rhs)


def bad_set() -> set[float]:
    """The exceptional Floquet parameters {0, -1, 2, -2}, recomputed.

    Solves the degree-9 coefficient identity equating the r = 1 and r = 2
    ratios F_3 / (h^11)^2.  Multiple roots (the polynomial has a triple
    root) come out of the companion-matrix solve with O(eps^(1/3)) errors,
    so any root within 1e-4 of an integer is certified against the exact
    integer-coefficient polynomial and snapped.
    """
    tol = 1e-4
    coeffs = np.trim_zeros(_difference_polynomial(), "f")
    int_coeffs = [int(round(c)) for c in coeffs]
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) <= tol].real
    out: list[float] = []
    for value in real:
        snapped = round(value)
        exact = sum(c * snapped**k for k, c in enumerate(reversed(int_coeffs)))
        canon = float(snapped) if abs(value - snapped) <= tol and exact == 0 else float(value)
        if not any(abs(canon - seen) <= tol for seen in out):
            out.append(canon)
    return set(out)


def badset_report() -> dict:
    """Roots plus factorization check of the exceptional-set polynomial.

    The difference polynomial factors as 2 a^2 (a-2)^3 (a+2) (a+1); the
    report carries both coefficient vectors and their max-abs residual.
    """
    diff = _difference_polynomial()
    factored = np.array([2.0])
    for factor in ([1, 0], [1, 0], [1, -2], [1, -2], [1, -2], [1, 2], [1, 1]):
        factored = np.polymul(factored, factor)
    pad = len(diff) - len(factored)
    factored_full = np.concatenate([np.zeros(pad), factored])
    residual = float(np.max(np.abs(diff - factored_full)))
    return {
        "roots": sorted(bad_set()),
        "difference_poly": [float(c) for c in diff],
        "factored_poly": [float(c) for c in factored_full],
        "factorization_residual": residual,
    }


def check_rank(rows: np.ndarray, what: str):
    """Refuse decoupling rows whose smallest singular value is at most
    `_SING_TOL` times the largest: proportional rows, or a column that
    vanishes.

    Raises:
        ObstructionError("singular-decoupling"): naming ``what``.
    """
    smin, smax = np.linalg.svd(rows, compute_uv=False)[[-1, 0]]
    if smin <= _SING_TOL * smax:
        raise ObstructionError(
            "singular-decoupling",
            f"{what} are rank-deficient: smallest singular value {smin:.3g} "
            f"<= {_SING_TOL:g} x largest {smax:.3g} (effectively a bad "
            "Floquet parameter)",
        )


# ---------------------------------------------------------------------------
# dihedrally symmetric orbits


def dihedral_inverse_entry(
    m: int, r: int, s_param: float, link_length: float, p: int, q: int
) -> float:
    """Entry (p, q), 1-based, of the inverse dihedral Hessian.

    Circulant inversion with symbol s + 2 cos(2 pi k / (mr)); the size-2
    case (m = 2, r = 1) keeps the doubled corner and is handled by the
    same formula with symbol s + 2 cos(pi k).

    Raises:
        ObstructionError("symbol-pole"): resonant parameter, naming k.
    """
    n = m * r
    rows = _cyclic_inverse_rows((s_param,), n, f"m = {m}, r = {r}, s = {s_param:.12g}")
    return float(_entries(rows, p - 1, q - 1)) * link_length / math.sin(math.pi / m) ** 2
