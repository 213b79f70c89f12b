"""Wave invariants of the distinguished orbit, computed by two routes.

The trace contribution of the r-fold orbit expands in inverse powers of
the wavenumber; this module evaluates those coefficients.  Route one
(`invariant_full`) builds the principal oscillatory integral from the
boundary jets and feeds it to the diagram-sum engine.  Route two
(`invariant_top`) evaluates the closed form for the part carrying the
two highest boundary derivatives, with graph weights taken verbatim as
reciprocal automorphism orders.  Sensitivity tests tie the routes
together; the recovery pipeline consumes the closed form.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .billiard import chord_jets
from .domain import (
    MAX_BOUNCES,
    DomainSpec,
    ObstructionError,
    _finite_number,
    check_bounces,
    dihedral_parameters,
)
from .feynman import (
    MAX_CENSUS_ORDER,
    FeynmanGraph,
    SPProblem,
    _i_power,
    automorphism_order,
    sp_coefficient_diagrams,
)
from .hessian import (
    CirculantHessian,
    dihedral_inverse_entry,
    parity_sums,
    stacked_parity_sums,
)
from .jets import MultiJet, embed_pair

NORMALIZATIONS = ("TopOnly", "FullPrincipal")

# Square of the per-link constant in the principal amplitude: each chord
# carries 2 * (-i/4) * sqrt(2/pi) * e^{3 pi i/4} / sqrt(chord), and the
# square of that constant is i / (2 pi).
LINK_CONSTANT_SQ = 1j / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# the principal term of one orbit


# Every two-arc entry carries A_r = 2rL (i/(2 pi L))^r, and recovery divides
# by it.  `principal_leading_value` computes it as 2rL * L^-r * (i/(2 pi))^r;
# both powers and the product are kept inside [1e-250, 1e250].  The normal
# doubles reach 2.2e-308 and 1.8e308, which leaves 58 decades for the rest of
# an entry, (h^pp)^j times the boundary data.
_LEAD_DECADES = 250.0
_LOG10_2PI = math.log10(2.0 * math.pi)


def _lead_in_range(r: int, length: float) -> bool:
    log_length = math.log10(length)
    decades = (
        r * log_length,
        r * _LOG10_2PI,
        math.log10(r / math.pi) + (1 - r) * (_LOG10_2PI + log_length),
    )
    return max(map(abs, decades)) <= _LEAD_DECADES


@functools.lru_cache(maxsize=64)
def max_iterate(length: float) -> int:
    """Largest r for which A_r = 2rL (i/(2 pi L))^r, and the powers L^-r
    and (2 pi)^-r it is computed from, stay inside [1e-250, 1e250]; 0 if
    even r = 1 does not.

    The magnitude of each is monotone in r wherever it can leave the
    range, so the admissible r form an interval [1, max_iterate(L)];
    (2 pi)^-r alone caps it at 313.  Cached per L: every entry of a
    table checks it.
    """
    lo, hi = 0, 1024
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _lead_in_range(mid, length):
            lo = mid
        else:
            hi = mid
    return lo


def check_size(value: int, name: str):
    """Refuse a size below 1, naming ``name``.

    Raises:
        ValueError: naming ``name``.
    """
    if value < 1:
        raise ValueError(f"{name} {value} is out of range: {name} must be >= 1")


def check_iterate(r: int, length: float, name: str):
    """Refuse an iterate whose leading amplitude A_r leaves the double
    range (`max_iterate`).

    Raises:
        ValueError: naming ``name`` and the limit.
    """
    limit = max_iterate(length)
    if r > limit:
        raise ValueError(
            f"{name} {r} is out of range: at L = {length:g} the leading "
            f"amplitude 2rL / (2 pi L)^r leaves [1e-250, 1e250] past r = {limit}"
        )


# Largest FullPrincipal job accepted, in jet coefficients: iterate r builds
# a 2r-variable phase jet of degree 2 j_max, C(2r + 2 j_max, 2 j_max)
# coefficients, and a job costs their sum over r <= r_max (the amplitude
# jets, of degree 2 j_max - 2, are smaller).  On a shared 2-core host with
# one BLAS thread, the largest forward jobs accepted (r_max 5, 7, 13, 51 at
# j_max 4, 3, 2, 1) take 0.66, 0.28, 0.52 and 0.46 s and peak at 130, 61,
# 67 and 103 MB cold in a fresh process (median of 3, imports included; the
# host's load moves these times by a third), and 0.15, 0.04, 0.04 and
# 0.09 s for a second spec in the same process; r_max 6 at j_max 4 takes
# 1.4 s and 332 MB, and r_max 10 at j_max 4 would hold 5.9 million.
MAX_FULL_COST = 100_000


def check_full_cost(r_max: int, j_max: int, r_name: str, j_name: str, what: str):
    """Refuse a FullPrincipal job past `MAX_FULL_COST`, before any jet is
    built.

    Raises:
        ValueError: naming ``r_name``, ``j_name`` and ``what``, and the
            largest r_max accepted at this j_max.
    """
    cost = 0
    for r in range(1, r_max + 1):
        cost += math.comb(2 * r + 2 * j_max, 2 * j_max)
        if cost > MAX_FULL_COST:
            raise ValueError(
                f"{r_name} {r_max} with {j_name} {j_max} is too large for "
                f"{what}: its jets would hold more than {MAX_FULL_COST} coefficients "
                f"(the sum over r <= r_max of C(2r + 2 j_max, 2 j_max)); at "
                f"{j_name} {j_max}, {r_name} <= {r - 1}"
            )


def check_full_job(r_max: int, j_max: int, r_name: str, j_name: str, what: str):
    """Refuse a FullPrincipal job before any jet or census work: its order
    past the graph census (order j sums the order-(j - 1) graphs), or its
    jets past `MAX_FULL_COST`.  ``r_name`` and ``j_name`` are the inputs
    that set r_max and j_max, ``what`` the input that asks for diagram sums.

    Raises:
        ValueError: naming the input at fault and the limit.
    """
    if j_max > MAX_CENSUS_ORDER + 1:
        raise ValueError(
            f"{j_name} {j_max} is too large for {what}: the graph census "
            f"runs to order {MAX_CENSUS_ORDER}, so {j_name} <= {MAX_CENSUS_ORDER + 1}"
        )
    check_full_cost(r_max, j_max, r_name, j_name, what)


def check_arc_orders(spec: DomainSpec, j_max: int, name: str):
    """Refuse a j_max past the Taylor data of the spec's arcs: order j reads
    f^(2j)(0), in either normalization.

    Raises:
        ValueError: naming ``name``, the short field and the largest j_max
            it admits.
    """
    for field, arc in (("f", spec.f), ("f_minus", spec.f_minus)):
        if arc is not None and arc.order < 2 * j_max:
            raise ValueError(
                f"{name} {j_max} is out of range: order j reads f^(2j)(0), and "
                f"field {field!r} carries Taylor data to order {arc.order}, so "
                f"{name} <= {arc.order // 2}"
            )


def principal_leading_value(r: int, length: float) -> complex:
    """Amplitude of the principal term at the orbit: 2rL * L^-r * (i/2pi)^r.

    Raises:
        ValueError: r past `max_iterate`.
    """
    check_iterate(r, length, "r")
    return 2.0 * r * length * length ** (-r) * LINK_CONSTANT_SQ**r


@dataclass(frozen=True)
class PrincipalTerm:
    """Stationary-phase data of one orbit iterate.

    Attributes:
        phase_jets: jet of the chord-length sum at the orbit, to the
            build's order.
        amplitude_jets: complex jet of the principal amplitude, to two
            degrees less: the order-k coefficient reads the phase to
            degree 2k + 2 and the amplitude to degree 2k.  Its value at
            the orbit is `principal_leading_value`, and its gradient there
            is exactly zero.
    """

    phase_jets: MultiJet
    amplitude_jets: MultiJet

    def problem(self) -> SPProblem:
        """Package the jets for the stationary-phase engine."""
        return SPProblem.from_phase(self.phase_jets, self.amplitude_jets)


def build_principal(spec: DomainSpec, r: int, order: int) -> PrincipalTerm:
    """Assemble the principal phase and amplitude jets of the r-th iterate.

    The phase is the cyclic chord-length sum in the 2r chart coordinates.
    The amplitude is the length jet times one factor per chord,

        c * w_p * [(x_p - x_q) f'_p(x_p) - (f_p(x_p) - f_q(x_q))] / chord^(3/2),

    with c^2 = i/(2 pi) and w_p = +/-1 the inward-orientation sign of the
    arc at bounce p.  At the orbit the amplitude equals
    2rL * L^-r * (i/2pi)^r and its gradient vanishes.

    The phase is built to degree ``order`` and the amplitude to
    ``order - 2``, as deep as the order-(order/2 - 1) coefficient reads
    each (`feynman._require_jet_orders`).  Each chord factor depends on
    x_p and x_q only: it is the 2-variable jet of the chord's chart pair,
    which `chord_jets` looks up once per distinct pair with the phase's
    (`billiard._chord_pair`, cached at ``order``), truncated, and placed
    into the 2r-variable basis, where it is nonzero on the slots of x_p
    and x_q alone.  `jet_mul` reads only the nonzero slots of its operands, so
    each of the 2r - 1 products over chords costs the partial product's
    support (the first k factors live in k + 1 variables) times the
    factor's, and the phase x product the phase's support times the
    product's.  The graded basis of degree ``order - 2`` is a prefix of
    that of ``order``, and a product slot of degree <= ``order - 2`` sums
    the same terms in the same order in either, so the amplitude is the
    one built at degree ``order``, truncated, bit for bit.

    Args:
        spec: two-arc domain ("twoarc" or "updown").
        r: iterate count, >= 1.
        order: phase jet degree; both arcs must store Taylor data to this
            order.

    Raises:
        ValueError: dihedral spec, r < 1, order < 2, or arcs too short.
    """
    if spec.kind == "dihedral":
        raise ValueError(
            "build_principal handles the two-arc classes; dihedral orbits "
            "have no principal amplitude here"
        )
    if r < 1:
        raise ValueError("r must be >= 1")
    if order < 2:
        raise ValueError("order must be >= 2")
    arcs = (spec.upper, spec.lower)
    for arc in arcs:
        if arc.order < order:
            raise ValueError(
                f"insufficient jet order: arc stores {arc.order}, need {order}"
            )
    phase, pairs, chords = chord_jets(spec, r, order)
    low = order - 2
    pair_factors = [pair[4].truncated(low) for pair in pairs]
    factors = [embed_pair(pair_factors[k] * (-1.0) ** p, p, q, 2 * r) for p, q, k in chords]
    product = math.prod(factors)
    amplitude = (phase.truncated(low) * product) * LINK_CONSTANT_SQ**r
    return PrincipalTerm(phase_jets=phase, amplitude_jets=amplitude)


# ---------------------------------------------------------------------------
# graph weights of the closed form


def contributing_graphs(
    j: int,
) -> tuple[FeynmanGraph, FeynmanGraph | None, FeynmanGraph | None]:
    """The three order-(j-1) graphs that carry the two highest data.

    Returns (flower, two-loop-chain, triple-edge): the j-loop flower holds
    the order-2j derivative; the other two hold the order-(2j-1) one and
    need j >= 2.  Each is built in the labelling the census keeps of its
    class, the only one `automorphism_order` accepts.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    flower = FeynmanGraph(((j, 0),), 0, ((0,),))
    if j == 1:
        return flower, None, None
    chain = FeynmanGraph(((j - 1, 0), (1, 0)), 0, ((0, 1), (1, 0)))
    triple = FeynmanGraph(((j - 2, 0), (0, 0)), 0, ((0, 3), (3, 0)))
    return flower, chain, triple


def contributing_weights(j: int) -> tuple[float, float, float]:
    """(w1, w2, w3): reciprocal automorphism orders of the three graphs."""
    flower, chain, triple = contributing_graphs(j)
    w1 = 1.0 / automorphism_order(flower)
    if chain is None or triple is None:
        return w1, 0.0, 0.0
    return w1, 1.0 / automorphism_order(chain), 1.0 / automorphism_order(triple)


# ---------------------------------------------------------------------------
# the invariants themselves


def _require_two_arc(spec: DomainSpec, op: str):
    if spec.kind == "dihedral":
        raise ValueError(f"{op} handles the two-arc classes; "
                         "dihedral tables come from forward_table")


def invariant_top(spec: DomainSpec, r: int, j: int) -> complex:
    """Top part of the (r, j) invariant: the closed form in the two
    highest boundary derivatives.

    With h the inverse orbit Hessian, w_p the arc orientation sign and
    f_p the arc at bounce p, the value is

        2 i^(j+1) A_r * [ w1 * sum_p (h^pp)^j 2 w_p f_p^(2j)(0)
            - 4 sum_{p,q} ( w2 (h^pp)^(j-1) h^qq h^pq
                          + w3 (h^pp)^(j-2) (h^pq)^3 )
                  w_p w_q f_p^(2j-1)(0) f_q^(3)(0) ],

    where A_r = 2rL * L^-r * (i/2pi)^r and (w1, w2, w3) are the
    reciprocal automorphism orders from `contributing_weights`.  For
    j = 1 only the even-derivative term is present.

    Every factor depends on p and q only through their parities, so both
    sums reduce to r times 2 x 2 sums over the diagonal and parity-block
    sums of `parity_sums`: O(r log r) per iterate, with no 2r x 2r matrix.

    Raises:
        ValueError: dihedral spec, j < 1, or arcs shorter than 2j.
        ObstructionError("symbol-pole"): singular orbit Hessian.
    """
    _require_two_arc(spec, "invariant_top")
    if j < 1:
        raise ValueError("j must be >= 1")
    sums = parity_sums(CirculantHessian.from_spec(spec, r))
    data = _arc_data((spec.upper, spec.lower), j)
    lead = principal_leading_value(r, spec.L)
    stack = tuple(s[None] for s in sums)
    return _top_values([lead], [r], j, stack, contributing_weights(j), data)[0]


def _arc_data(arcs, j: int) -> tuple:
    """Signed boundary data that order j of `invariant_top` reads from the
    (upper, lower) arcs, one entry per arc with w = (+1, -1):
    2 w_p f_p^(2j)(0), and for j >= 2 also w_p f_p^(2j-1)(0) and
    w_p f_p'''(0) (None at j = 1)."""
    signs = np.array([1.0, -1.0])
    even = 2.0 * signs * np.array([arc.derivative(2 * j) for arc in arcs])
    if j == 1:
        return even, None, None
    odd = signs * np.array([arc.derivative(2 * j - 1) for arc in arcs])
    cubic = signs * np.array([arc.derivative(3) for arc in arcs])
    return even, odd, cubic


def _top_values(leads, rs, j: int, sums, weights, data) -> list[complex]:
    """The order-j closed form of `invariant_top` at a stack of R iterates
    ``rs``, from their `principal_leading_value` ``leads`` and their
    stacked `parity_sums` (diagonals (R, 2), S1 and S3 (R, 2, 2)), and the
    order's `contributing_weights` and `_arc_data`.

    Each step is one array expression over the iterates and rounds as it
    would for one iterate, except the final 2-element dot of the odd term:
    batched, that dot rounds differently, so it stays one product per
    iterate.
    """
    diag, s1, s3 = sums
    w1, w2, w3 = weights
    even_data, odd_data, cubic_data = data
    r = np.array(rs, dtype=float)

    even_term = w1 * r * np.sum(diag**j * even_data, axis=1)
    odd_term = np.zeros(len(rs))
    if j >= 2:
        pair = w2 * diag[:, :, None] ** (j - 1) * diag[:, None, :] * s1
        pair += w3 * diag[:, :, None] ** (j - 2) * s3
        odd_term = r * np.array([row @ cubic_data for row in odd_data @ pair])

    scale = 2.0 * _i_power(j + 1)
    values = (even_term - 4.0 * odd_term).tolist()
    return [scale * lead * value for lead, value in zip(leads, values)]


def invariant_full(spec: DomainSpec, r: int, j: int) -> complex:
    """Full (r, j) invariant: order-(j-1) diagram-sum coefficient of the
    principal oscillatory integral, doubled for the mirror word.

    Contains everything `invariant_top` does plus all lower-derivative
    terms of the principal part; contributions that are not captured by
    the principal integral are outside this normalization, so only the
    top part and the stated sensitivities are exact.

    Raises:
        ObstructionError("unsupported"): dihedral spec.
        ValueError: j < 1 or arcs shorter than 2j.
    """
    if spec.kind == "dihedral":
        raise ObstructionError(
            "unsupported",
            "invariant_full needs the two-arc principal amplitude; "
            "dihedral tables come from forward_table",
        )
    if j < 1:
        raise ValueError("j must be >= 1")
    return _full_value(build_principal(spec, r, 2 * j).problem(), j)


def _full_value(problem: SPProblem, j: int) -> complex:
    return 2.0 * sp_coefficient_diagrams(problem, j - 1)


def _dihedral_value(spec: DomainSpec, r: int, j: int, h11: float) -> float:
    return spec.m * r * h11**j * spec.f.derivative(2 * j)


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True)
class InvariantTable:
    """A finite block of invariants with the metadata recovery needs.

    Attributes:
        length: L, half the primitive orbit length.
        floquet_parameter: the circulant diagonal parameter (a for the
            two-arc classes, s for dihedral).
        symmetry_class: "updown" | "twoarc" | "twoarc-symmetric" |
            "dihedral-<m>".
        normalization: "TopOnly" (closed forms, zero remainder) or
            "FullPrincipal" (diagram-sum values).
        entries: (r, j) -> invariant value.
    """

    length: float
    floquet_parameter: float
    symmetry_class: str
    normalization: str
    entries: dict[tuple[int, int], complex]

    def __post_init__(self):
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(
                f"normalization must be one of {NORMALIZATIONS}, "
                f"got {self.normalization!r}"
            )

    def entry(self, r: int, j: int) -> complex:
        return self.entries[(r, j)]

    def to_json(self) -> dict:
        return {
            "L": self.length,
            "a": self.floquet_parameter,
            "class": self.symmetry_class,
            "normalization": self.normalization,
            "entries": [
                {"r": r, "j": j, "re": v.real, "im": v.imag}
                for (r, j), v in sorted(self.entries.items())
            ],
        }

    def to_json_text(self) -> str:
        """`to_json` as ``json.dumps(..., sort_keys=True, indent=2)`` writes
        it, plus a final newline, byte for byte.  An indent sends
        `json.dumps` to its pure-Python encoder; the table's fixed layout
        needs none of its generality."""
        rows = ",\n".join(
            f'    {{\n      "im": {_json_number(v.imag)},\n      "j": {j},\n'
            f'      "r": {r},\n      "re": {_json_number(v.real)}\n    }}'
            for (r, j), v in sorted(self.entries.items())
        )
        entries = f"[\n{rows}\n  ]" if rows else "[]"
        return (
            f'{{\n  "L": {_json_number(self.length)},\n'
            f'  "a": {_json_number(self.floquet_parameter)},\n'
            f'  "class": {json.dumps(self.symmetry_class)},\n'
            f'  "entries": {entries},\n'
            f'  "normalization": {json.dumps(self.normalization)}\n}}\n'
        )

    @staticmethod
    def from_json(data) -> "InvariantTable":
        """Inverse of `to_json`.

        Raises:
            ValueError: naming the missing or invalid field.
        """
        if not isinstance(data, dict):
            raise ValueError("table must be a JSON object")
        for name in ("L", "a", "class", "normalization"):
            if name not in data:
                raise ValueError(f"table: missing field {name!r}")
        if not isinstance(data.get("entries"), list):
            raise ValueError("table: missing or invalid field 'entries' (list)")
        if not data["entries"]:
            raise ValueError("table: field 'entries' is empty")
        length = _finite_number(data["L"], "L")
        if length <= 0:
            raise ValueError(f"table: field 'L' must be positive, got {length!r}")
        for name in ("class", "normalization"):
            if not isinstance(data[name], str):
                raise ValueError(f"table: field {name!r} must be a string, got {data[name]!r}")
        m = dihedral_m(data["class"], "table: field 'class'")
        # the largest r the class admits: `check_iterate` for the two-arc
        # classes, `check_bounces` for the m-gon orbit
        limit = max_iterate(length) if m is None else MAX_BOUNCES // m
        entries = {}
        for i, e in enumerate(data["entries"]):
            if type(e) is dict:
                r, j, re, im = e.get("r"), e.get("j"), e.get("re"), e.get("im")
                # the common entry passes every check of `_checked_entry`
                # in one test
                if (
                    type(r) is int and type(j) is int and 1 <= r <= limit and j >= 1
                    and type(re) is float and type(im) is float
                    and -math.inf < re < math.inf and -math.inf < im < math.inf
                    and (r, j) not in entries
                ):
                    entries[(r, j)] = complex(re, im)
                    continue
            r, j, value = _checked_entry(i, e, length, m, entries)
            entries[(r, j)] = value
        return InvariantTable(
            length=length,
            floquet_parameter=_finite_number(data["a"], "a"),
            symmetry_class=data["class"],
            normalization=data["normalization"],
            entries=entries,
        )


def _checked_entry(i: int, e, length: float, m: int | None, entries: dict):
    """(r, j, value) of entry ``i`` of a table, after every check of
    `InvariantTable.from_json` in order, for the entries its common case
    does not pass.

    Raises:
        ValueError: naming the entry and the field at fault.
    """
    if not isinstance(e, dict):
        raise ValueError(f"table: entries[{i}] must be an object")
    for name in ("r", "j", "re", "im"):
        if name not in e:
            raise ValueError(f"table: entries[{i}] missing field {name!r}")
    for name in ("r", "j"):
        if isinstance(e[name], bool) or not isinstance(e[name], int):
            raise ValueError(f"table: entries[{i}].{name} must be an integer")
        if e[name] < 1:
            raise ValueError(f"table: entries[{i}].{name} must be >= 1")
    if m is None:
        check_iterate(e["r"], length, f"table: entries[{i}].r")
    else:  # dihedral entries carry no A_r (`forward_table`)
        check_bounces(m, e["r"], f"table: entries[{i}].r")
    if (e["r"], e["j"]) in entries:
        raise ValueError(f"table: entries[{i}] repeats (r, j) = ({e['r']}, {e['j']})")
    value = complex(
        _finite_number(e["re"], f"entries[{i}].re"),
        _finite_number(e["im"], f"entries[{i}].im"),
    )
    return e["r"], e["j"], value


def _json_number(x) -> str:
    """A number as `json.dumps` writes it: `float.__repr__` for a finite
    float, which is also what it writes for a numpy float."""
    if isinstance(x, float) and math.isfinite(x):
        return float.__repr__(x)
    return json.dumps(x)


def dihedral_m(symmetry_class: str, name: str) -> int | None:
    """m of a "dihedral-<m>" class label, None for any other class.

    Raises:
        ValueError: naming ``name``, for a dihedral label whose m is not
            an integer from 2 to `MAX_BOUNCES` (an m-gon orbit bounces m
            times).
    """
    if not symmetry_class.startswith("dihedral-"):
        return None
    digits = symmetry_class.removeprefix("dihedral-")
    # a longer digit string is past the limit, and int() refuses a huge one
    if digits.isascii() and digits.isdigit() and len(digits) <= len(str(MAX_BOUNCES)):
        m = int(digits)
        if 2 <= m <= MAX_BOUNCES:
            return m
    raise ValueError(
        f"{name} {symmetry_class!r} is invalid: expected dihedral-<m>, with an "
        f"integer m >= 2 and at most {MAX_BOUNCES}, the bounce limit of a "
        "dihedral orbit"
    )


def _class_label(spec: DomainSpec) -> str:
    """Recovery class of a spec: "dihedral-<m>", "twoarc-symmetric"
    (mirror symmetry plus an even arc — the ellipse-like class),
    "updown" (mirror symmetry only), or generic "twoarc"."""
    if spec.kind == "dihedral":
        return f"dihedral-{spec.m}"
    if spec.symmetric:
        tol = 1e-12 * max(1.0, max(abs(c) for c in spec.f.taylor))
        if all(abs(c) <= tol for c in spec.f.taylor[3::2]):
            return "twoarc-symmetric"
        return "updown"
    return "twoarc"


def forward_table(
    spec: DomainSpec,
    r_max: int,
    j_max: int,
    normalization: str = "TopOnly",
    names: tuple[str, str, str] = ("r_max", "j_max", "full mode"),
) -> InvariantTable:
    """Tabulate invariants for 1 <= r <= r_max, 1 <= j <= j_max.

    TopOnly rows come from the closed forms, FullPrincipal rows from the
    diagram sum (two-arc classes only).  The job is checked once, before
    any work, in this order: r_max and j_max >= 1; a FullPrincipal job
    against the graph census and `MAX_FULL_COST` (`check_full_job`);
    r_max against `max_iterate` (two-arc classes) or `MAX_BOUNCES`
    bounces (dihedral); j_max against the arcs' Taylor data
    (`check_arc_orders`).  ``names`` are the caller's names for r_max,
    j_max and the FullPrincipal request, used in the messages only.
    A two-arc job then inverts every iterate in one `stacked_parity_sums`
    pass, which is also its symbol-pole test.

    Raises:
        ValueError: bad normalization, or a size check above, naming the
            input at fault.
        ObstructionError("unsupported"): FullPrincipal with a dihedral spec.
        ObstructionError("symbol-pole"): a resonant iterate, in either
            normalization.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(
            f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}"
        )
    check_size(r_max, names[0])
    check_size(j_max, names[1])
    if normalization == "FullPrincipal":
        check_full_job(r_max, j_max, *names)
    if spec.kind == "dihedral":
        check_bounces(spec.m, r_max, names[0])
    else:
        check_iterate(r_max, spec.L, names[0])
    check_arc_orders(spec, j_max, names[1])
    iterates, orders = range(1, r_max + 1), range(1, j_max + 1)
    entries: dict[tuple[int, int], complex] = {}
    if spec.kind == "dihedral":
        if normalization == "FullPrincipal":
            raise ObstructionError(
                "unsupported", "FullPrincipal tables are two-arc only"
            )
        param, link = dihedral_parameters(spec)
        for r in iterates:
            h11 = dihedral_inverse_entry(spec.m, r, param, link, 1, 1)
            for j in orders:
                entries[(r, j)] = complex(_dihedral_value(spec, r, j, h11))
    else:
        base = CirculantHessian.from_spec(spec, 1)
        param = base.a
        # one pass inverts every iterate, and is the symbol-pole test of
        # each, before any jet is built
        sums, poles = stacked_parity_sums(base.L, base.a, base.b, iterates)
        if poles:
            raise next(iter(poles.values()))
        if normalization == "TopOnly":
            # one closed-form evaluation per order, over every iterate at once
            arcs = (spec.upper, spec.lower)
            leads = [principal_leading_value(r, spec.L) for r in iterates]
            columns = [
                _top_values(leads, iterates, j, sums, contributing_weights(j),
                            _arc_data(arcs, j))
                for j in orders
            ]
            for i, r in enumerate(iterates):
                for j, column in zip(orders, columns):
                    entries[(r, j)] = column[i]
        else:
            # one principal problem per iterate at degree 2 j_max serves every
            # order: order j reads the phase to degree 2j and the amplitude
            # to 2j - 2 only
            for r in iterates:
                problem = build_principal(spec, r, 2 * j_max).problem()
                for j in orders:
                    entries[(r, j)] = _full_value(problem, j)
    return InvariantTable(
        length=spec.L,
        floquet_parameter=param,
        symmetry_class=_class_label(spec),
        normalization=normalization,
        entries=entries,
    )
