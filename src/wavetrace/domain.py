"""Boundary models near a distinguished periodic orbit.

A billiard table enters through local Taylor data only: each boundary piece
near an orbit endpoint is the graph of an analytic function in a chart where
the orbit is vertical.  Three symmetry classes are supported:

* ``TwoArc``: top arc ``y = f_plus(x)`` through ``(0, L/2)`` and bottom arc
  ``y = f_minus(x)`` through ``(0, -L/2)``, both with horizontal tangents;
  the vertical segment of length ``L`` is a 2-periodic (bouncing-ball)
  orbit of total length ``2L``.
* ``UpDownSymmetric``: mirror-symmetric special case ``f_minus = -f_plus``.
* ``Dihedral``: an ``m``-fold rotationally symmetric table whose boundary
  near each of the ``m`` marked points is the rotated graph of one even
  function ``f``; the inscribed regular ``m``-gon with perimeter ``2L`` is
  a periodic orbit.  This forces the vertex radius ``f(0) = L/(m sin(pi/m))``.

Taylor data are stored as *coefficients* ``c_k = f^(k)(0)/k!``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

__all__ = [
    "BoundaryArc",
    "DomainSpec",
    "FloquetData",
    "GenericityReport",
    "ObstructionError",
    "BAD_FLOQUET_SET",
    "MAX_BOUNCES",
    "check_bounces",
    "floquet",
    "genericity_check",
    "dihedral_parameters",
    "parse_spec",
    "write_spec",
]

#: Floquet parameters at which the decoupling step of the inverse algorithm
#: degenerates (the even/odd data cannot be separated).
BAD_FLOQUET_SET = (-2.0, -1.0, 0.0, 2.0)

# Largest bounce count m * r of a dihedral iterate.  Each dihedral entry
# inverts an (m r)-point circulant, and a forward table inverts one per
# r <= r_max, so its cost grows as m r_max^2: m = 2, r_max = 2048 took
# 0.3 s and r_max = 5000 took 2.5 s in a fresh process, one BLAS thread,
# on a 2-core host.  A two-arc orbit stops at 2 * 313 bounces
# (`invariants.max_iterate`).
MAX_BOUNCES = 4096


def check_bounces(m: int, r: int, name: str):
    """Refuse a dihedral iterate whose orbit, r times around the m-gon, has
    more than `MAX_BOUNCES` bounces, before any work.

    Raises:
        ValueError: naming ``name``, the input at fault, and the limit.
    """
    if m * r > MAX_BOUNCES:
        fix = f"r <= {MAX_BOUNCES // m}" if m <= MAX_BOUNCES else f"m <= {MAX_BOUNCES}"
        raise ValueError(
            f"{name} is out of range: at m = {m}, r = {r} the dihedral orbit has "
            f"m*r = {m * r} bounces, more than the limit of {MAX_BOUNCES} ({fix})"
        )


class ObstructionError(Exception):
    """A named precondition violation of the inverse pipeline.

    Attributes:
        name: machine-readable obstruction name, one of
            ``bad-floquet``, ``vanishing-cubic``, ``singular-decoupling``,
            ``degenerate-orbit`` (the primitive orbit is degenerate),
            ``symbol-pole`` (an orbit iterate is resonant: its length
            Hessian is singular, in the forward tables and in recovery
            alike), ``unsupported``.
        reason: the message, without the name.
    """

    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.name = name
        self.reason = message


@dataclass(frozen=True)
class BoundaryArc:
    """One analytic boundary piece as local Taylor data.

    Attributes:
        taylor: coefficients ``c_k = f^(k)(0)/k!`` for ``k = 0..K``.
        half_width: half-width of the graph chart (length units); purely
            geometric metadata used by the billiard map's chart guard.
    """

    taylor: tuple[float, ...]
    half_width: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "taylor", tuple(float(c) for c in self.taylor))
        if len(self.taylor) == 0:
            raise ValueError("BoundaryArc needs at least the constant coefficient")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    @property
    def order(self) -> int:
        """Highest Taylor order K carried by this arc."""
        return len(self.taylor) - 1

    def derivative(self, k: int) -> float:
        """f^(k)(0); zero beyond the stored order is an error, not a guess."""
        if k > self.order:
            raise ValueError(
                f"arc carries jets to order {self.order}, requested f^({k})(0)"
            )
        return self.taylor[k] * math.factorial(k)

    def with_derivative(self, k: int, value: float) -> "BoundaryArc":
        """Copy with f^(k)(0) replaced (padding with zeros if needed)."""
        coeffs = list(self.taylor) + [0.0] * max(0, k - self.order)
        coeffs[k] = value / math.factorial(k)
        return BoundaryArc(tuple(coeffs), self.half_width)

    def value(self, x: float) -> float:
        """Evaluate the stored Taylor polynomial."""
        return float(np.polyval(self.taylor[::-1], x))

    def deriv_value(self, x: float, k: int = 1) -> float:
        """Evaluate the k-th derivative of the Taylor polynomial."""
        poly = np.polyder(np.asarray(self.taylor[::-1]), k)
        return float(np.polyval(poly, x))

    def reflected(self) -> "BoundaryArc":
        """The arc of f(-x)."""
        return BoundaryArc(
            tuple(c * (-1) ** k for k, c in enumerate(self.taylor)), self.half_width
        )

    def negated(self) -> "BoundaryArc":
        """The arc of -f(x)."""
        return BoundaryArc(tuple(-c for c in self.taylor), self.half_width)


Kind = Literal["twoarc", "updown", "dihedral"]


@dataclass(frozen=True)
class DomainSpec:
    """A billiard table near one distinguished orbit.

    Attributes:
        kind: symmetry class, ``"twoarc"`` | ``"updown"`` | ``"dihedral"``.
        L: half-length of the orbit (the orbit has length ``2L``); for the
            two-arc classes this is the distance between the two bounce
            points, for the dihedral class half the polygon perimeter.
        f: the (top / fundamental) arc.
        f_minus: the bottom arc; only for ``kind="twoarc"``.
        m: rotation order; only for ``kind="dihedral"``.
    """

    kind: Kind
    L: float
    f: BoundaryArc
    f_minus: BoundaryArc | None = None
    m: int | None = None

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("L must be positive")
        tol = 1e-9 * max(1.0, self.L)
        if self.kind == "twoarc":
            if self.f_minus is None:
                raise ValueError("twoarc spec requires f_minus")
            self._require(abs(self.f.taylor[0] - self.L / 2) <= tol, "f(0) = L/2")
            self._require(
                abs(self.f_minus.taylor[0] + self.L / 2) <= tol, "f_minus(0) = -L/2"
            )
            self._require(
                self.f.order >= 1 and abs(self.f.taylor[1]) <= tol, "f'(0) = 0"
            )
            self._require(
                self.f_minus.order >= 1 and abs(self.f_minus.taylor[1]) <= tol,
                "f_minus'(0) = 0",
            )
        elif self.kind == "updown":
            if self.f_minus is not None:
                raise ValueError("updown spec carries a single arc f")
            self._require(abs(self.f.taylor[0] - self.L / 2) <= tol, "f(0) = L/2")
            self._require(
                self.f.order >= 1 and abs(self.f.taylor[1]) <= tol, "f'(0) = 0"
            )
        elif self.kind == "dihedral":
            if self.m is None or self.m < 2:
                raise ValueError("dihedral spec requires integer m >= 2")
            check_bounces(self.m, 1, "field 'm'")
            if self.f_minus is not None:
                raise ValueError("dihedral spec carries a single arc f")
            rho = self.L / (self.m * math.sin(math.pi / self.m))
            self._require(
                abs(self.f.taylor[0] - rho) <= 1e-9 * max(1.0, rho),
                f"f(0) = L/(m sin(pi/m)) = {rho:.12g} (vertex radius of the "
                "inscribed regular m-gon with perimeter 2L)",
            )
            for k in range(1, self.f.order + 1, 2):
                self._require(
                    abs(self.f.taylor[k]) <= tol, f"f must be even (c_{k} = 0)"
                )
        else:
            raise ValueError(f"unknown spec kind {self.kind!r}")

    @staticmethod
    def _require(cond: bool, what: str):
        if not cond:
            raise ValueError(f"spec violates orbit normalization: {what}")

    # -- expansion to the two-arc picture -----------------------------------

    @property
    def upper(self) -> BoundaryArc:
        if self.kind == "dihedral":
            raise ValueError("dihedral spec has no upper/lower arcs")
        return self.f

    @property
    def lower(self) -> BoundaryArc:
        if self.kind == "twoarc":
            return self.f_minus  # type: ignore[return-value]
        if self.kind == "updown":
            return self.f.negated()
        raise ValueError("dihedral spec has no upper/lower arcs")

    @property
    def symmetric(self) -> bool:
        """True when the lower arc is the mirror of the upper one."""
        if self.kind == "updown":
            return True
        if self.kind == "twoarc":
            up, lo = self.f.taylor, self.f_minus.taylor  # type: ignore[union-attr]
            n = max(len(up), len(lo))
            pad = lambda t: t + (0.0,) * (n - len(t))
            return all(
                abs(u + v) <= 1e-12 * max(1.0, abs(u)) for u, v in zip(pad(up), pad(lo))
            )
        return False


@dataclass(frozen=True)
class FloquetData:
    """Linearized return-map data of the bouncing-ball orbit.

    Attributes:
        a: the Floquet parameter ``-2 cos(alpha/2)`` (elliptic) or its
            ``cosh`` continuation (hyperbolic).
        alpha: rotation angle; real for elliptic data, pure imaginary for
            hyperbolic data.
        kind: ``"Elliptic" | "Hyperbolic" | "Degenerate"``.
        R_A, R_B: radii of curvature at the top/bottom bounce points
            (signed: positive for arcs curving toward the orbit; ``inf``
            for flat points).
        product: ``(1 - L/R_A)(1 - L/R_B)``, the squared cosine of
            ``alpha/2``.
    """

    a: float
    alpha: complex
    kind: str
    R_A: float
    R_B: float
    product: float


def floquet(spec: DomainSpec) -> FloquetData:
    """Floquet data of the bouncing-ball orbit of a two-arc spec.

    The stability of the vertical 2-periodic orbit is governed by
    ``cos^2(alpha/2) = (1 - L/R_A)(1 - L/R_B)`` where ``R_A = -1/f''_+(0)``
    and ``R_B = 1/f''_-(0)``.  The Floquet parameter is
    ``a = -2 cos(alpha/2)``; for mirror-symmetric specs the signed value
    ``a = -2 (1 + L f''_+(0))`` is reported (both bounce factors coincide).

    Args:
        spec: a twoarc or updown spec with second derivatives available.

    Returns:
        FloquetData with kind Elliptic (product in [0,1)), Hyperbolic
        (product > 1) or Degenerate (product in {0, 1}).

    Raises:
        ObstructionError("degenerate-orbit"): when product = 1 (a
            non-degenerate bouncing ball is required downstream).
        ObstructionError("unsupported"): product < 0 (orientation-reversing
            hyperbolic data; outside the supported classes).
        ValueError: on dihedral specs or missing second derivatives.
    """
    if spec.kind == "dihedral":
        raise ValueError("floquet applies to two-arc bouncing-ball specs")
    fpp_top = spec.upper.derivative(2)
    fpp_bot = spec.lower.derivative(2)
    L = spec.L
    term_top = 1.0 + L * fpp_top  # = 1 - L/R_A
    term_bot = 1.0 - L * fpp_bot  # = 1 - L/R_B
    product = term_top * term_bot
    R_A = math.inf if fpp_top == 0 else -1.0 / fpp_top
    R_B = math.inf if fpp_bot == 0 else 1.0 / fpp_bot

    if product < 0:
        raise ObstructionError(
            "unsupported",
            f"(1 - L/R_A)(1 - L/R_B) = {product:.6g} < 0: orientation-reversing "
            "hyperbolic orbit is outside the supported classes",
        )
    if abs(product - 1.0) <= 1e-12:
        raise ObstructionError(
            "degenerate-orbit",
            "non-degenerate bouncing ball required (cos^2(alpha/2) = 1)",
        )

    if spec.symmetric:
        cos_half = term_top  # signed; both factors equal
    else:
        cos_half = math.sqrt(product)
    a = -2.0 * cos_half

    if product == 0.0:
        kind = "Degenerate"
        alpha: complex = math.pi
    elif product < 1.0:
        kind = "Elliptic"
        alpha = 2.0 * math.acos(max(-1.0, min(1.0, cos_half)))
    else:
        kind = "Hyperbolic"
        alpha = 2.0j * math.acosh(abs(cos_half))
    return FloquetData(
        a=a, alpha=alpha, kind=kind, R_A=R_A, R_B=R_B, product=product
    )


def kt_parameters(spec: DomainSpec) -> tuple[float, float]:
    """Per-bounce curvature parameters (a, b) of the length Hessian.

    ``a = -2 (1 + L f''_+(0))`` for the top bounce and
    ``b = -2 (1 - L f''_-(0))`` for the bottom one; ``a == b`` exactly for
    mirror-symmetric specs.  These are the off-diagonal-normalized diagonal
    entries of the orbit's length Hessian (see hessian.hessian_matrix).
    """
    if spec.kind == "dihedral":
        raise ValueError("kt_parameters applies to two-arc specs")
    L = spec.L
    a = -2.0 * (1.0 + L * spec.upper.derivative(2))
    b = -2.0 * (1.0 - L * spec.lower.derivative(2))
    return a, b


def dihedral_parameters(spec: DomainSpec) -> tuple[float, float]:
    """(s_param, link_length) of a dihedral spec's polygon orbit.

    ``s_param = 2 + 4 L f''(0) / (m sin(pi/m))`` is the diagonal parameter
    of the orbit's circulant length Hessian and ``link_length = 2L/m``;
    the two-arc counterpart is `kt_parameters`.
    """
    if spec.kind != "dihedral":
        raise ValueError("dihedral_parameters applies to dihedral specs")
    m = spec.m
    assert m is not None
    sin_t = math.sin(math.pi / m)
    s_param = 2.0 + 4.0 * spec.L * spec.f.derivative(2) / (m * sin_t)
    return s_param, 2.0 * spec.L / m


@dataclass
class GenericityReport:
    """Outcome of the genericity checks required by the inverse algorithm:
    the warning of each flag, and the name of the obstruction it stands
    for, in the same order."""

    flags: list[str] = field(default_factory=list)
    obstructions: list[str] = field(default_factory=list)
    floquet_kind: str | None = None
    a: float | None = None

    @property
    def clean(self) -> bool:
        return not self.flags

    def flag(self, name: str, warning: str):
        self.obstructions.append(name)
        self.flags.append(warning)


def genericity_check(spec: DomainSpec) -> GenericityReport:
    """Collect the genericity flags relevant to inversion.

    Flags raised (never errors; this is a report), with the obstruction
    each stands for:
        * ``bad Floquet parameter ...`` (bad-floquet): the Floquet parameter
          lies in the finite set where even/odd data cannot be decoupled;
        * ``cubic vanishes; inverse algorithm inapplicable``
          (vanishing-cubic): mirror-symmetric spec with f'''(0) = 0 — the
          induction that divides by the cubic has no replacement
          implemented;
        * ``degenerate orbit`` (degenerate-orbit): the linearized return
          map is parabolic;
        * the reason of any other obstruction `floquet` raises, under its
          name (unsupported: an orientation-reversing orbit).

    Every flag uses the absolute tolerance 1e-9.

    Args:
        spec: any spec.

    Returns:
        GenericityReport; ``report.clean`` is True for generic input.
    """
    tol = 1e-9
    report = GenericityReport()
    if spec.kind == "dihedral":
        d, _ = dihedral_parameters(spec)
        report.a = d
        if abs(abs(d) - 2.0) <= tol:
            report.flag("degenerate-orbit", "degenerate orbit")
        return report
    try:
        flo = floquet(spec)
    except ObstructionError as exc:
        degenerate = exc.name == "degenerate-orbit"
        report.flag(exc.name, "degenerate orbit" if degenerate else exc.reason)
        return report
    report.floquet_kind = flo.kind
    report.a = flo.a
    if flo.kind == "Degenerate":
        report.flag("degenerate-orbit", "degenerate orbit")
    for bad in BAD_FLOQUET_SET:
        if abs(flo.a - bad) <= tol:
            report.flag("bad-floquet", f"bad Floquet parameter (a = {bad:g})")
            break
    if spec.symmetric and spec.upper.order >= 3:
        f3 = spec.upper.derivative(3)
        if abs(f3) <= tol * max(1.0, abs(spec.upper.derivative(2))):
            report.flag("vanishing-cubic", "cubic vanishes; inverse algorithm inapplicable")
    return report


# ---------------------------------------------------------------------------
# serialization


def _finite_number(value, name: str) -> float:
    """``value`` as a float; ValueError naming the field unless it is a
    finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {name!r} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"field {name!r} must be finite, got {value!r}")
    return float(value)


def _coefficients(values: list, name: str) -> tuple[float, ...]:
    return tuple(_finite_number(c, f"{name}[{k}]") for k, c in enumerate(values))


def parse_spec(text: str) -> DomainSpec:
    """Parse the JSON spec format.

    The format is an object ``{"kind": "updown"|"twoarc"|"dihedral",
    "L": number, "f": [c0, c1, ...], "f_minus": [...] (twoarc),
    "m": int (dihedral), "half_width": number (optional)}`` with
    ``c_k = f^(k)(0)/k!``.

    Raises:
        ValueError: naming the missing/invalid field.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("spec must be a JSON object")
    kind = obj.get("kind")
    if kind not in ("twoarc", "updown", "dihedral"):
        raise ValueError(f"field 'kind' must be twoarc|updown|dihedral, got {kind!r}")
    if "L" not in obj:
        raise ValueError("missing field 'L'")
    L = _finite_number(obj["L"], "L")
    if "f" not in obj or not isinstance(obj["f"], list):
        raise ValueError("missing or invalid field 'f' (list of coefficients)")
    hw = _finite_number(obj.get("half_width", 1.0), "half_width")
    f = BoundaryArc(_coefficients(obj["f"], "f"), hw)
    f_minus = None
    m = None
    if kind == "twoarc":
        if "f_minus" not in obj or not isinstance(obj["f_minus"], list):
            raise ValueError("twoarc spec: missing or invalid field 'f_minus'")
        f_minus = BoundaryArc(_coefficients(obj["f_minus"], "f_minus"), hw)
    if kind == "dihedral":
        if "m" not in obj or not isinstance(obj["m"], int):
            raise ValueError("dihedral spec: missing or invalid integer field 'm'")
        m = obj["m"]
    return DomainSpec(kind=kind, L=L, f=f, f_minus=f_minus, m=m)


def write_spec(spec: DomainSpec) -> str:
    """Serialize a spec to its canonical JSON text (stable key order)."""
    obj: dict = {"kind": spec.kind, "L": spec.L, "f": list(spec.f.taylor)}
    if spec.kind == "twoarc":
        obj["f_minus"] = list(spec.f_minus.taylor)  # type: ignore[union-attr]
    if spec.kind == "dihedral":
        obj["m"] = spec.m
    if spec.f.half_width != 1.0:
        obj["half_width"] = spec.f.half_width
    return json.dumps(obj, sort_keys=True)
