"""Stationary-phase expansions evaluated two ways: operator route and graphs.

The expansion of an oscillatory integral with a nondegenerate critical point
is computed both by iterated application of the inverse-Hessian second-order
operator to ``amplitude * (cubic remainder)**mu`` and by summing Feynman-type
multigraph amplitudes weighted by inverse automorphism counts.  Keeping the
two routes separate (and testable against each other) is the point; do not
collapse them.

Graph model: a single distinguished *open* vertex carries the amplitude; any
number of *closed* vertices carry the phase remainder.  Edges are unoriented
and may be loops (at either kind of vertex), parallel bundles between closed
vertices, or bundles between a closed vertex and the open one ("stubs").
A graph with ``V`` closed vertices and ``I`` total edges contributes at order
``I - V`` in inverse powers of the large parameter, i.e. carries ``k**(V-I)``.
A class has one labelling: the orderly table the census generates
(`_orderly_stabilizer`), whose search also counts the vertex automorphisms.
`automorphism_order` accepts that labelling alone.

Self-loops are contracted in jet space: a vertex with ``l`` loops and ``m``
other edge ends enters as the order-``m`` derivative tensor of
``Delta_H**l`` applied to its jet, with ``Delta_H = sum h_uv d_u d_v`` the
operator of the operator route.  Through order 3 the largest vertex tensor
then has rank 3, 4, 6 at a closed vertex and 1, 3, 4 at the open vertex
(orders 1, 2, 3), against rank 2o + 2 with the loops as operands.

The other edges are contracted in the eigenbasis of the inverse Hessian:
with ``H^-1 = P P^T``, ``P = Q diag(sqrt(lambda))`` (complex where
``lambda < 0``), every vertex tensor carries ``P`` on each axis, so each
propagator is the identity and a diagram is a network of vertex tensors
alone, joined pairwise along a greedy plan read off the graph.  Each
order's sum runs as one program (`_program`): a pairwise step common to
several classes (the same two operands, the same subscripts up to letter
renaming) runs once per problem, 470 distinct steps over orders <= 3
against 815 planned (common-subexpression elimination over a tensor
network; Smith & Gray, *opt_einsum*, JOSS 2018).  A vertex tensor of rank
>= 1 that is exactly zero zeroes every step and class that reads it, and
these are not run (`_run`): at a periodic orbit the amplitude is stationary
too, so the open vertex's rank-1 tensor vanishes, and 8 of the 45 order-2
steps and 85 of the 422 order-3 steps are skipped.

The coefficient sums linked clusters (the exponential formula; Stanley,
*Enumerative Combinatorics* II, ch. 5): every class factors into the part
linked to the open vertex and a multiset of connected vacuum parts, with
the 1/|Aut| weights multiplying, so at order ``j``

    sum over all classes = sum_{a+b=j} L_a * E_b,   E = exp(V),

where ``L_o`` sums the linked classes of order ``o`` and ``V_o`` the
connected vacuum classes, evaluated without the open vertex.
"""

from __future__ import annotations

import itertools
import math
import operator
import string
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .jets import MultiJet, derivative_tensor, jet_mul

__all__ = [
    "MAX_CENSUS_ORDER",
    "FeynmanGraph",
    "SPProblem",
    "amplitude",
    "automorphism_order",
    "enumerate_graphs",
    "full_expansion",
    "oscillatory_quadrature",
    "sp_coefficient_diagrams",
    "sp_coefficient_direct",
]

# highest census order accepted; the order-4 census (4186 classes) takes
# about 0.15 s, but full mode at j = 5 is not measured yet
MAX_CENSUS_ORDER = 3

# i**m and i**(-m) without trig roundoff
_IPOW = (1 + 0j, 1j, -1 + 0j, -1j)


def _i_power(m: int) -> complex:
    return _IPOW[m % 4]


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class FeynmanGraph:
    """Isomorphism-class representative of a contraction multigraph.

    Attributes:
        closed_vertices: per closed vertex, a ``(loops, stubs)`` pair; loops
            are edges from the vertex to itself, stubs are edges from the
            vertex to the open vertex.
        open_loops: number of loops at the open vertex.
        edges_between: symmetric ``V x V`` multiplicity table (zero diagonal)
            of edges between distinct closed vertices.
    """

    closed_vertices: tuple[tuple[int, int], ...]
    open_loops: int
    edges_between: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        v = len(self.closed_vertices)
        adj = self.edges_between
        if len(adj) != v or any(len(row) != v for row in adj):
            raise ValueError(f"edges_between must be {v}x{v}")
        for i in range(v):
            if adj[i][i] != 0:
                raise ValueError("edges_between diagonal must be zero (loops are stored per vertex)")
            for j in range(v):
                if adj[i][j] != adj[j][i]:
                    raise ValueError("edges_between must be symmetric")
                if adj[i][j] < 0:
                    raise ValueError("edge multiplicities must be non-negative")
        if self.open_loops < 0:
            raise ValueError("open_loops must be non-negative")
        for loops, stubs in self.closed_vertices:
            if loops < 0 or stubs < 0:
                raise ValueError("loop and stub counts must be non-negative")

    # -- counting ------------------------------------------------------------

    @property
    def num_closed(self) -> int:
        return len(self.closed_vertices)

    @property
    def num_edges(self) -> int:
        v = self.num_closed
        internal = sum(self.edges_between[i][j] for i in range(v) for j in range(i + 1, v))
        self_edges = sum(l + s for l, s in self.closed_vertices)
        return internal + self_edges + self.open_loops

    @property
    def order(self) -> int:
        """Inverse power of the large parameter carried by this graph."""
        return self.num_edges - self.num_closed

    def to_json(self) -> dict:
        """The class as JSON, with its |Aut|."""
        return {
            "closed_vertices": [list(r) for r in self.closed_vertices],
            "open_loops": self.open_loops,
            "edges_between": [list(row) for row in self.edges_between],
            "order": self.order,
            "automorphisms": automorphism_order(self),
        }


@lru_cache(maxsize=None)
def automorphism_order(graph: FeynmanGraph) -> int:
    """Order of the automorphism group (the open vertex is kept fixed) of a
    graph in the labelling the census gives its class, computed once per
    graph and process.

    The vertex part is the count the census's orderly pass found for the
    table (`_orderly_tables`); the edge part is `_edge_symmetries`.

    Raises:
        ValueError: if the graph is in any other labelling: its closed
            vertices are not sorted by (record, internal degree),
            descending, or its table is not the orderly one.
    """
    records = graph.closed_vertices
    degrees = tuple(map(sum, graph.edges_between))
    vertices = list(zip(records, degrees))
    stabilizer = None
    if vertices == sorted(vertices, reverse=True):
        stabilizer = _orderly_tables(degrees, _runs(records, degrees)).get(graph.edges_between)
    if stabilizer is None:
        raise ValueError(f"{graph} is not in the labelling the census keeps of its class")
    return stabilizer * _edge_symmetries(graph)


def _edge_symmetries(graph: FeynmanGraph) -> int:
    """The edge-set factor of |Aut|: each loop can swap its two ends, loops
    at one vertex permute among themselves, and every parallel bundle
    (including stubs and open loops) permutes freely."""
    v = graph.num_closed
    factor = 2**graph.open_loops * math.factorial(graph.open_loops)
    for loops, stubs in graph.closed_vertices:
        factor *= 2**loops * math.factorial(loops) * math.factorial(stubs)
    for i in range(v):
        for j in range(i + 1, v):
            factor *= math.factorial(graph.edges_between[i][j])
    return factor


def _vertex_sequences(budget: int):
    """Records and degrees of every labelling of closed vertices with
    ``budget`` more edges than vertices, as ``(records, degrees)``: vertex
    types ((loops, stubs), internal degree) non-increasing, the order the
    census labels vertices in.

    A vertex with l loops, s stubs and internal degree d has valence
    2l + s + d >= 3 and holds l + s + d / 2 edges, so it weighs
    2(l + s) + d - 2 >= 1 half-edges above its share of the count, and the
    weights sum to 2 budget.  Some degree tuples have no table
    (`_realizations`).
    """
    top = 2 * budget
    types = sorted(
        (((l, s), d), 2 * (l + s) + d - 2)
        for l in range(budget + 2)
        for s in range(budget + 2)
        for d in range(top + 3)
        if 2 * l + s + d >= 3 and 2 * (l + s) + d - 2 <= top
    )[::-1]

    def rec(start, room):
        if room == 0:
            yield ()
            return
        for k in range(start, len(types)):
            vertex, weight = types[k]
            if weight <= room:
                for rest in rec(k, room - weight):
                    yield (vertex,) + rest

    for vertices in rec(0, top):
        yield tuple(record for record, _ in vertices), tuple(d for _, d in vertices)


def _realizations(degrees, runs):
    """Symmetric non-negative integer tables with zero diagonal and the
    given row sums (labelled loopless multigraphs on this degree sequence),
    less most of those that are not orderly (`_orderly_stabilizer`).

    The table is filled row by row, and two transpositions within a run of
    ``runs`` prune it as it grows; each raises the upper triangle of every
    table pruned, so no orderly table is lost.  Two columns of one run that
    agree on every row so far can be swapped without changing those rows,
    so the current row does not increase from the first to the second.  And
    when rows u - 1 and u are in one run and their columns agree above row
    u - 1, swapping them puts row u's tail in row u - 1's place, so row u's
    tail must not exceed row u - 1's.
    """
    v = len(degrees)
    res = list(degrees)
    adj = [[0] * v for _ in range(v)]
    # tie[w]: column w is in column w - 1's run and agrees with it on every
    # finished row
    tie = [False] * v
    start = 0
    for n in runs:
        tie[start + 1 : start + n] = [True] * (n - 1)
        start += n
    out = []

    def finish(u):
        if u and tie[u] and adj[u][u + 1 :] > adj[u - 1][u + 1 :]:
            return
        if u == v - 2:
            out.append(tuple(map(tuple, adj)))
            return
        left = res[u + 1 :]
        # the rows left must still be realizable: none above the rest together
        if 2 * max(left) <= sum(left):
            saved = tie[u + 2 :]
            row = adj[u]
            for w in range(u + 2, v):
                tie[w] = tie[w] and row[w] == row[w - 1]
            fill(u + 1, u + 2, 0, sum(left) - left[0])
            tie[u + 2 :] = saved

    def fill(u, w, prev, room):
        # room: the row sums left in columns w and on, at least res[u]
        room -= res[w]
        top = min(res[u], res[w])
        if tie[w] and w > u + 1:
            top = min(top, prev)
        for m in range(top, max(res[u] - room, 0) - 1, -1):
            adj[u][w] = adj[w][u] = m
            res[u] -= m
            res[w] -= m
            if w + 1 < v:
                fill(u, w + 1, m, room)
            else:
                finish(u)
            res[u] += m
            res[w] += m
        adj[u][w] = adj[w][u] = 0

    # a loopless table has these row sums only when their total is even and
    # none exceeds the others together
    if sum(degrees) % 2 or 2 * max(degrees, default=0) > sum(degrees):
        return []
    if v < 2:
        return [tuple(map(tuple, adj))]
    fill(0, 1, 0, sum(res[1:]))
    return out


def _runs(records, degrees) -> tuple[int, ...]:
    """Lengths of the consecutive runs of equal (record, degree)."""
    return tuple(len(list(run)) for _, run in itertools.groupby(zip(records, degrees)))


def _triangle(adj) -> tuple[int, ...]:
    """The upper triangle of a table, row by row."""
    v = len(adj)
    return tuple(adj[i][j] for i in range(v) for j in range(i + 1, v))


class _Larger(Exception):
    """Some relabeling gives the table a larger upper triangle."""


def _orderly_stabilizer(adj, runs: tuple[int, ...]) -> int:
    """The number of relabelings within ``runs`` that fix ``adj``, or 0 if
    one of them gives a larger upper triangle.

    A table is orderly, the one labelling the census keeps of its class,
    when no relabeling that permutes vertices of equal (record, degree)
    raises its upper triangle, read row by row (orderly generation; Read,
    Ann. Discrete Math. 2, 1978).  The generator fixes the records and the
    degree tuple, so those relabelings are the ones it can yield of one
    class, and they permute within consecutive runs.  Every vertex
    automorphism is such a relabeling, so the count returned is the vertex
    part of |Aut|.

    The relabelings are searched a row at a time (`_split`).  A branch that
    ties every row is an automorphism.  While the search keeps every vertex
    so far in place, a child that holds one automorphism holds as many as
    the child that keeps vertex u in place (it is that child's image), so
    it is not counted leaf by leaf (McKay, Congr. Numer. 30, 1981).
    """
    try:
        return _fixing(adj, _cells(runs), True)
    except _Larger:
        return 0


def _cells(runs: tuple[int, ...]) -> list[tuple[int, list[int]]]:
    """One cell per run: its first position and its candidate vertices."""
    starts = itertools.accumulate(runs, initial=0)
    return [(start, list(range(start, start + n))) for start, n in zip(starts, runs)]


def _split(row, lo: int, cands: list[int]) -> tuple[tuple, list]:
    """One cell of a relabeling search, at row u once pi(u) is chosen.

    Position p of the relabeled table takes vertex pi(p); the positions not
    yet chosen fall in consecutive cells, each with a set of candidate
    vertices.  Row u of the relabeled triangle reads adj[pi(u)][pi(j)],
    j > u, so given ``row = adj[pi(u)]`` it is fixed up to the order within
    each cell, and sorted descending within cells it is the largest row the
    branch gives; any other order gives a smaller one.  Returns the cell's
    part of that row, and the cell split by value, each part a
    ``(first position, candidates)`` cell.
    """
    # a stable sort keeps each value's candidates ascending, so a vertex
    # kept in place stays first in its cell
    order = sorted(cands, key=row.__getitem__, reverse=True)
    values = tuple(map(row.__getitem__, order))
    parts = []
    for k, y in enumerate(order):
        if k and values[k] == values[k - 1]:
            parts[-1][1].append(y)
        else:
            parts.append((lo + k, [y]))
    return values, parts


def _fixing(adj, cells, in_place: bool) -> int:
    """The relabelings below one node of the `_orderly_stabilizer` search
    that fix ``adj``: ``cells`` holds the positions left, and ``in_place``
    says that every position so far kept its vertex.  Off that path only
    whether one exists matters, so it returns at the first.

    Raises:
        _Larger: if a relabeling below gives a larger upper triangle.
    """
    if in_place and all(len(cands) == 1 for _, cands in cells):
        return 1
    while cells and len(cells[0][1]) == 1:
        (u, (x,)), rest = cells[0], cells[1:]
        cells = _tie(adj, u, x, rest)
        if cells is None:
            return 0
    if not cells:
        return 1
    (u, first), rest = cells[0], cells[1:]
    count = 0
    for x in first:
        others = [y for y in first if y != x]
        refined = _tie(adj, u, x, [(u + 1, others), *rest] if others else rest)
        if refined is None:
            continue
        if in_place and x == u:
            kept = _fixing(adj, refined, True)
            count += kept
        elif _fixing(adj, refined, False):
            if not in_place:
                return 1
            count += kept
    return count


def _tie(adj, u: int, x: int, cells):
    """The cells split by row u once pi(u) = x (`_split`), or None if every
    relabeling of the branch gives a smaller row u than ``adj``.

    Raises:
        _Larger: if one gives a larger row u.
    """
    row, want = adj[x], adj[u]
    refined = []
    for lo, cands in cells:
        if len(cands) == 1:
            have = row[cands[0]]
            if have != want[lo]:
                if have > want[lo]:
                    raise _Larger
                return None
            refined.append((lo, cands))
            continue
        values, parts = _split(row, lo, cands)
        target = tuple(want[lo : lo + len(cands)])
        if values != target:
            if values > target:
                raise _Larger
            return None
        refined += parts
    return refined


def enumerate_graphs(order: int) -> tuple[FeynmanGraph, ...]:
    """All isomorphism classes of contraction graphs at the given order,
    each in the labelling the census keeps, ordered by size, open loops,
    records and upper triangle.

    Every closed vertex must have valence >= 3; disconnected graphs are
    included.  At order 0 the only class is the empty graph.  Only the
    orderly table of each class is kept (`_orderly_stabilizer`), so no
    class is relabeled or deduplicated, and it is the only labelling that
    `automorphism_order` accepts.  Orders up to `MAX_CENSUS_ORDER`
    take about 14 ms together, cold; order 4 (4186 classes) takes about
    0.15 s.  The census is built once per process.

    Raises:
        ValueError: on a negative order.
    """
    return _census(order)


@lru_cache(maxsize=None)
def _census(order: int) -> tuple[FeynmanGraph, ...]:
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    keyed = []
    for open_loops in range(order + 1):
        for recs, degs in _vertex_sequences(order - open_loops):
            for adj in _orderly_tables(degs, _runs(recs, degs)):
                keyed.append(((len(recs), open_loops, recs, _triangle(adj)),
                              FeynmanGraph(recs, open_loops, adj)))
    keyed.sort(key=operator.itemgetter(0))
    return tuple(graph for _, graph in keyed)


@lru_cache(maxsize=None)
def _orderly_tables(degrees: tuple[int, ...], runs: tuple[int, ...]) -> dict[tuple, int]:
    """Every orderly table with these row sums and runs, mapped to its
    vertex |Aut|, built once per process.  The records enter only through
    the runs, so every order and every record tuple with these degrees and
    runs shares the tables."""
    found = {}
    for adj in _realizations(degrees, runs):
        stabilizer = _orderly_stabilizer(adj, runs)
        if stabilizer:
            found[adj] = stabilizer
    return found


# ---------------------------------------------------------------------------
# stationary-phase problems


@dataclass(frozen=True, eq=False)
class SPProblem:
    """Local data of an oscillatory integral at a nondegenerate critical point.

    Attributes:
        num_vars: dimension of the integration variable.
        hessian_inverse: inverse of the phase Hessian at the critical point.
        phase_tensors: jet of the phase with its value, gradient and quadratic
            part removed (every stored coefficient has total degree >= 3).
        amplitude: jet of the amplitude at the critical point (may be complex).
        phase_value: phase at the critical point.
        signature: signature (n_plus - n_minus) of the phase Hessian.
    """

    num_vars: int
    hessian_inverse: np.ndarray
    phase_tensors: MultiJet
    amplitude: MultiJet
    phase_value: float
    signature: int
    _loop_jets: dict = field(default_factory=dict, init=False, repr=False)
    _tensors: dict = field(default_factory=dict, init=False, repr=False)
    _clusters: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        n = self.num_vars
        h = np.asarray(self.hessian_inverse, dtype=float)
        if h.shape != (n, n):
            raise ValueError(f"hessian_inverse must be {n}x{n}, got {h.shape}")
        if not np.allclose(h, h.T, atol=1e-12 * (1 + np.abs(h).max())):
            raise ValueError("hessian_inverse must be symmetric")
        object.__setattr__(self, "hessian_inverse", h)
        if self.phase_tensors.num_vars != n or self.amplitude.num_vars != n:
            raise ValueError("jet variable counts must match num_vars")
        if np.iscomplexobj(self.phase_tensors.coeffs):
            raise ValueError("phase jets must be real")
        low = self.phase_tensors.coeffs[self.phase_tensors._tab().degrees < 3]
        if low.size and np.any(low != 0.0):
            raise ValueError("phase_tensors must not carry terms of degree < 3")
        if abs(self.signature) > n or (self.signature - n) % 2 != 0:
            raise ValueError(f"signature {self.signature} impossible in dimension {n}")

    def vertex_tensor(self, open_vertex: bool, loops: int, valence: int) -> np.ndarray:
        """Tensor of a vertex with ``loops`` self-loops and ``valence``
        other edge ends: the derivative tensor of order ``valence`` of
        ``Delta_H**loops`` applied to the amplitude (the open vertex) or to
        the phase remainder (a closed vertex), with `_propagator_root` ``P``
        applied on every axis.  Since ``P @ P.T`` is the inverse Hessian,
        two such tensors joined on one axis carry the propagator of that
        edge.  Each tensor, and each ``Delta_H**loops`` jet, is built once
        per problem and shared by every graph contracted on it.

        Raises:
            ValueError: if the vertex's full valence ``2 * loops + valence``
                exceeds the jet's degree; ``Delta_H`` on a truncated jet
                would drop terms silently.
        """
        key = (open_vertex, loops, valence)
        if key not in self._tensors:
            jet = self.amplitude if open_vertex else self.phase_tensors
            if 2 * loops + valence > jet.max_degree:
                raise ValueError(
                    f"requested derivative order {2 * loops + valence} "
                    f"exceeds jet degree {jet.max_degree}"
                )
            tensor = derivative_tensor(self._loop_jet(open_vertex, loops), valence)
            n = self.num_vars
            for _ in range(valence):
                # contracts the leading axis and appends the new one last
                tensor = tensor.reshape(n, -1).T @ self._propagator_root
            self._tensors[key] = tensor.reshape((n,) * valence)
        return self._tensors[key]

    @cached_property
    def _propagator_root(self) -> np.ndarray:
        """``P = Q diag(sqrt(lambda))`` from the eigenpairs of the inverse
        Hessian, so that ``P @ P.T`` (the plain transpose) is the inverse
        Hessian; its columns are imaginary where ``lambda < 0``."""
        lam, q = np.linalg.eigh(self.hessian_inverse)
        return q * np.emath.sqrt(lam)

    def _loop_jet(self, open_vertex: bool, loops: int) -> MultiJet:
        key = (open_vertex, loops)
        if key not in self._loop_jets:
            if loops == 0:
                jet = self.amplitude if open_vertex else self.phase_tensors
            else:
                jet = _apply_inverse_hessian_operator(
                    self._loop_jet(open_vertex, loops - 1), self.hessian_inverse
                )
            self._loop_jets[key] = jet
        return self._loop_jets[key]

    @staticmethod
    def from_phase(phase: MultiJet, amplitude: MultiJet) -> "SPProblem":
        """Split a full phase jet at a critical point into problem data.

        Raises:
            ValueError: if the gradient does not vanish or the Hessian is
                singular.
        """
        grad = derivative_tensor(phase, 1)
        if np.linalg.norm(grad, np.inf) > 1e-9:
            raise ValueError("phase gradient does not vanish: not a critical point")
        hess = derivative_tensor(phase, 2).real
        eig = np.linalg.eigvalsh(hess)
        # relative to the largest |eigenvalue|: orbit Hessians scale as 1/L
        if np.min(np.abs(eig)) <= 1e-12 * np.max(np.abs(eig)):
            raise ValueError("phase Hessian is singular; expansion undefined")
        return SPProblem(
            num_vars=phase.num_vars,
            hessian_inverse=np.linalg.inv(hess),
            phase_tensors=phase.strip_below(3),
            amplitude=amplitude,
            phase_value=float(np.real(phase.value)),
            signature=int(np.sum(eig > 0) - np.sum(eig < 0)),
        )


def _require_jet_orders(problem: SPProblem, j: int):
    need_phase = 2 * j + 2
    need_amp = 2 * j
    if j > 0 and problem.phase_tensors.max_degree < need_phase:
        raise ValueError(
            f"order-{j} coefficient needs phase jets of degree >= {need_phase}, "
            f"got {problem.phase_tensors.max_degree}"
        )
    if problem.amplitude.max_degree < need_amp:
        raise ValueError(
            f"order-{j} coefficient needs amplitude jets of degree >= {need_amp}, "
            f"got {problem.amplitude.max_degree}"
        )


# ---------------------------------------------------------------------------
# graph route


@lru_cache(maxsize=None)
def _plan(graph: FeynmanGraph) -> tuple[int, tuple, tuple]:
    """Contraction plan of one graph class, built once per process: the edge
    count (loops included: it sets the i-power), one ``(open, loops,
    valence)`` key per vertex for `SPProblem.vertex_tensor` (closed
    vertices, then the open one), and pairwise steps ``(positions,
    subscripts)``: pop the operands at ``positions``, contract them, append
    the result.

    Loops are contracted in jet space, so they are not operands; ``valence``
    counts a vertex's other edge ends.  The vertex tensors carry the
    propagator's square root on every axis, so each link (an edge between
    two distinct vertices) is one letter shared by the tensors at its two
    ends, and the operands are the tensors of the vertices with
    ``valence > 0`` alone.  A vertex whose edges are all loops is a scalar
    factor outside the steps.

    Each step joins the two operands whose result has the fewest open
    letters.  Through order 3 the largest intermediate has rank 0, 4, 4 at
    orders 1, 2, 3, against vertex tensors of rank up to 3, 4, 6, so the
    vertex tensors set the peak memory.

    Raises:
        ValueError: if the graph has more than 52 links.
    """
    v = graph.num_closed
    loops = [l for l, _ in graph.closed_vertices] + [graph.open_loops]
    links: list[tuple[int, int]] = []
    for idx, (_, stubs) in enumerate(graph.closed_vertices):
        links.extend([(idx, v)] * stubs)
    for i in range(v):
        for j in range(i + 1, v):
            links.extend([(i, j)] * graph.edges_between[i][j])
    if len(links) > len(string.ascii_letters):
        raise ValueError(f"graph has {len(links)} links; 52 contraction symbols available")
    slots = [""] * (v + 1)
    for letter, (p, q) in zip(string.ascii_letters, links):
        slots[p] += letter
        slots[q] += letter
    keys = tuple((i == v, loops[i], len(slot)) for i, slot in enumerate(slots))
    terms = [slot for slot in slots if slot]
    steps = []
    while len(terms) > 1:
        i, j = min(
            itertools.combinations(range(len(terms)), 2),
            key=lambda pair: len(set(terms[pair[0]]).symmetric_difference(terms[pair[1]])),
        )
        first, second = terms.pop(j), terms.pop(i)
        # a letter of both is summed over; every other letter stays open
        terms.append("".join(c for c in first + second if (c in first) != (c in second)))
        steps.append(((j, i), f"{first},{second}->{terms[-1]}"))
    return len(links) + sum(loops), keys, tuple(steps)


@dataclass(frozen=True)
class _Program:
    """Contraction program of one or more families of graph classes.

    Slot ``s < len(keys)`` holds the vertex tensor of ``keys[s]``; step
    ``k``, a ``(first, second, subscripts, done)`` tuple, joins two earlier
    slots and fills slot ``len(keys) + k``, and ``done`` names the slots
    that no later step and no term reads.  Per family, one term per class:
    ``(i-power, rank-0 vertex slots, final slot or None, |Aut|)``.
    """

    keys: tuple
    steps: tuple
    families: tuple


def _rename(subscripts: str) -> str:
    """The subscripts with letters renamed in order of first appearance, so
    two steps that differ only in their letters share one key."""
    names: dict[str, str] = {}
    return "".join(
        c if c in ",->" else names.setdefault(c, string.ascii_letters[len(names)])
        for c in subscripts
    )


def _compile(families: Sequence[tuple[Sequence[tuple[FeynmanGraph, int]], bool]]) -> _Program:
    """One `_Program` from ``(classes, with_open)`` families, ``classes``
    being ``(graph, |Aut|)`` pairs.  Without the open vertex a class is
    valued on its closed vertices alone, as a vacuum graph is.

    Each class's `_plan` is replayed on slots.  A step whose two operand
    slots and subscripts, letters renamed (`_rename`), were seen before in
    any class reuses that step's slot, so a contraction common to several
    classes runs once.  The step keeps the letters of the first class that
    planned it, so every value is computed as that class's plan computes it.
    """
    members = []
    for classes, with_open in families:
        members.append([])
        for graph, aut in classes:
            n_edges, keys, plan = _plan(graph)
            i_power = _i_power(n_edges + graph.num_closed)
            members[-1].append((i_power, keys if with_open else keys[:-1], plan, aut))
    slots: dict[tuple, int] = {}
    for family in members:
        for _, keys, _, _ in family:
            for key in keys:
                slots.setdefault(key, len(slots))
    steps, step_slots = [], {}
    out = []
    for family in members:
        terms = []
        for i_power, keys, plan, aut in family:
            operands = [slots[key] for key in keys if key[2]]
            for (first, second), subscripts in plan:
                step = (operands.pop(first), operands.pop(second), subscripts)
                name = step[:2] + (_rename(subscripts),)
                if name not in step_slots:
                    step_slots[name] = len(slots) + len(steps)
                    steps.append(step)
                operands.append(step_slots[name])
            scalars = tuple(slots[key] for key in keys if not key[2])
            terms.append((i_power, scalars, operands[0] if operands else None, aut))
        out.append(tuple(terms))
    last = {slot: k for k, step in enumerate(steps) for slot in step[:2]}
    for _, scalars, final, _ in itertools.chain(*out):
        for slot in (*scalars, final):
            last.pop(slot, None)
    steps = [(*step, tuple(s for s in set(step[:2]) if last.get(s) == k))
             for k, step in enumerate(steps)]
    return _Program(tuple(slots), tuple(steps), tuple(out))


def _run(program: _Program, problem: SPProblem) -> tuple[complex, ...]:
    """Per family of ``program``, the sum over its classes of i-power times
    scalar vertex factors times the final contraction, divided by |Aut|.

    A slot is dropped after the step that reads it last.  A vertex tensor
    of rank >= 1 that is exactly zero is not stored either (at an orbit,
    the amplitude's gradient): a step that reads it is not run, its result
    is zero too, and a term whose final contraction is such a zero is left
    out.  Each left-out term is an exact zero added to a sum that starts at
    +0.0, so for finite data every sum keeps its bits.  A slot holds None
    once dropped or when it is zero; a dropped slot is never read again.
    """
    values = []
    for key in program.keys:
        tensor = problem.vertex_tensor(*key)
        if not tensor.ndim:
            values.append(complex(tensor))
        else:
            values.append(tensor if tensor.any() else None)
    for first, second, subscripts, done in program.steps:
        a, b = values[first], values[second]
        values.append(None if a is None or b is None else np.einsum(subscripts, a, b))
        for slot in done:
            values[slot] = None
    sums = []
    for terms in program.families:
        total = 0j
        for value, scalars, final, aut in terms:
            if final is not None and values[final] is None:
                continue
            for slot in scalars:
                value *= values[slot]
            if final is not None:
                value *= complex(values[final])
            total += value / aut
        sums.append(total)
    return tuple(sums)


def amplitude(graph: FeynmanGraph, problem: SPProblem) -> complex:
    """Contraction value of one graph (with the k-power stripped off).

    Sums, over all assignments of variable indices to edge ends, the product
    of an inverse-Hessian entry per edge, a phase-remainder partial per
    closed vertex and an amplitude partial at the open vertex, each of order
    equal to the vertex's valence; the whole is multiplied by
    ``i**(edges + closed)``.  Self-loops are summed first, in jet space, and
    the other edges in the eigenbasis of the inverse Hessian, where each
    propagator is the identity (`SPProblem.vertex_tensor`).

    Raises:
        ValueError: if a stored jet is too short for a required valence, or
            the graph has more than 52 links.
    """
    return _run(_class_program(graph), problem)[0]


@lru_cache(maxsize=None)
def _class_program(graph: FeynmanGraph) -> _Program:
    """The program of `amplitude`: one class, its |Aut| taken as 1."""
    return _compile([([(graph, 1)], True)])


def _reach(graph: FeynmanGraph, start: int) -> set[int]:
    """Vertices joined to ``start`` by edges (the open vertex is index
    ``num_closed``)."""
    v = graph.num_closed
    seen, stack = {start}, [start]
    while stack:
        p = stack.pop()
        if p == v:
            nbrs = [q for q, (_, stubs) in enumerate(graph.closed_vertices) if stubs]
        else:
            nbrs = [q for q in range(v) if graph.edges_between[p][q]]
            if graph.closed_vertices[p][1]:
                nbrs.append(v)
        for q in nbrs:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


@lru_cache(maxsize=None)
def _cluster_classes(order: int) -> tuple[tuple, tuple]:
    """``(graph, |Aut|)`` pairs of the two families summed at this order:
    the classes whose closed vertices are all linked to the open vertex,
    and the connected vacuum classes (no stubs, no open loops)."""
    linked, vacuum = [], []
    for graph in enumerate_graphs(order):
        v = graph.num_closed
        if len(_reach(graph, v)) == v + 1:
            linked.append((graph, automorphism_order(graph)))
        elif graph.open_loops == 0 and _reach(graph, 0) == set(range(v)):
            vacuum.append((graph, automorphism_order(graph)))
    return tuple(linked), tuple(vacuum)


@lru_cache(maxsize=None)
def _program(order: int) -> _Program:
    """The linked and vacuum families of `_cluster_classes` as one program,
    compiled once per process."""
    linked, vacuum = _cluster_classes(order)
    return _compile(((linked, True), (vacuum, False)))


def _cluster_sums(problem: SPProblem, order: int) -> tuple[complex, complex]:
    """``(L_o, V_o)`` of the module docstring, computed once per problem."""
    if order not in problem._clusters:
        problem._clusters[order] = _run(_program(order), problem)
    return problem._clusters[order]


def sp_coefficient_diagrams(problem: SPProblem, j: int) -> complex:
    """Order-j expansion coefficient as a sum over graph classes.

    Each class at order j contributes its contraction value divided by the
    order of its automorphism group.  The sum is taken as linked clusters
    times the exponential of the connected vacuum sums (module docstring),
    which gives the same total from far fewer classes.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    _require_jet_orders(problem, j)
    sums = [_cluster_sums(problem, o) for o in range(j + 1)]
    exp_vacuum = [1 + 0j]
    for b in range(1, j + 1):
        exp_vacuum.append(sum(k * sums[k][1] * exp_vacuum[b - k] for k in range(1, b + 1)) / b)
    return sum(sums[a][0] * exp_vacuum[j - a] for a in range(j + 1))


# ---------------------------------------------------------------------------
# operator route


def _apply_inverse_hessian_operator(jet: MultiJet, h: np.ndarray) -> MultiJet:
    """One application of the second-order operator sum h[u,v] d_u d_v.

    The operator lowers the degree by 2, so the result is kept to degree
    max(d - 2, 0): the graded basis of that degree is a prefix of the
    jet's, and every slot past it would be zero.
    """
    tab = jet._tab()
    degree = max(jet.max_degree - 2, 0)
    out = np.zeros(tab.ends[degree], dtype=jet.coeffs.dtype)
    n = jet.num_vars
    for u in range(n):
        for w in range(u, n):
            weight = h[u, u] if u == w else 2.0 * h[u, w]
            if weight == 0.0:
                continue
            src, dst, factor = tab.diff2_table(u, w)
            out[dst] += weight * (factor * jet.coeffs[src])
    return MultiJet(jet.num_vars, degree, out)


def sp_coefficient_direct(problem: SPProblem, j: int) -> complex:
    """Order-j expansion coefficient by the operator route.

    Sums over ``mu = 0..2j`` (with ``nu = mu + j``) the value at 0 of
    ``nu`` applications of the inverse-Hessian second-order operator to
    ``amplitude * remainder**mu``, weighted by
    ``(-1)**nu * i**(-j) / (2**nu * mu! * nu!)``.

    Cost grows steeply with dimension (dense working jets of degree ``6j``);
    the graph route scales better for larger ``num_vars``.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    _require_jet_orders(problem, j)
    if j == 0:
        return complex(problem.amplitude.value)
    work_deg = 6 * j
    h = problem.hessian_inverse

    def at_work(jet: MultiJet) -> MultiJet:
        if jet.max_degree < work_deg:
            return jet.extended(work_deg)
        if jet.max_degree > work_deg:
            return jet.truncated(work_deg)
        return jet

    remainder = at_work(problem.phase_tensors)
    product = at_work(problem.amplitude)
    total = 0j
    for mu in range(0, 2 * j + 1):
        nu = mu + j
        if mu > 0:
            product = jet_mul(product, remainder, degree_cap=2 * mu + 2 * j)
        term = product
        for _ in range(nu):
            term = _apply_inverse_hessian_operator(term, h)
        coeff = (-1.0) ** nu * _i_power(-j) / (2**nu * math.factorial(mu) * math.factorial(nu))
        total += coeff * term.value
    return complex(total)


# ---------------------------------------------------------------------------
# assembled expansion and quadrature oracle


def full_expansion(problem: SPProblem, k: float, order_cap: int) -> complex:
    """Truncated stationary-phase value of the oscillatory integral.

    Multiplies the Gaussian prefactor
    ``(2 pi / k)**(n/2) * exp(i pi sgn / 4) / sqrt(|det H|) * exp(i k S(0))``
    by the operator-route coefficient series through order ``order_cap`` in
    ``1/k``.

    Args:
        problem: local data at the critical point.
        k: large positive parameter.
        order_cap: highest inverse power retained.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    n = problem.num_vars
    det_h = np.linalg.det(problem.hessian_inverse)
    prefactor = (
        (2.0 * np.pi / k) ** (n / 2.0)
        * np.exp(1j * np.pi * problem.signature / 4.0)
        * np.sqrt(abs(det_h))
        * np.exp(1j * k * problem.phase_value)
    )
    series = sum(sp_coefficient_direct(problem, j) * k ** (-j) for j in range(order_cap + 1))
    return complex(prefactor * series)


def oscillatory_quadrature(
    phase: Callable,
    amp: Callable,
    k: float,
    lower,
    upper,
    limit: int = 800,
) -> tuple[complex, float]:
    """Adaptive quadrature of ``amp * exp(i k phase)`` over a box (dim <= 2).

    Scalar bounds integrate a single variable; length-2 bounds integrate a
    rectangle by nested quadrature (the reported error then covers only the
    outer integrals, which is good enough for an oracle).

    Returns:
        (value, error_estimate)
    """
    from scipy.integrate import quad

    try:
        bounds = list(zip(lower, upper))
    except TypeError:
        bounds = [(float(lower), float(upper))]
    if len(bounds) == 1:
        (lo, hi), = bounds
        re = quad(lambda x: np.real(amp(x) * np.exp(1j * k * phase(x))), lo, hi, limit=limit)
        im = quad(lambda x: np.imag(amp(x) * np.exp(1j * k * phase(x))), lo, hi, limit=limit)
        return re[0] + 1j * im[0], re[1] + im[1]
    if len(bounds) != 2:
        raise ValueError("quadrature supports one or two variables only")
    (lo0, hi0), (lo1, hi1) = bounds

    def nested(part):
        def inner(y):
            val = quad(
                lambda x: part(amp(x, y) * np.exp(1j * k * phase(x, y))),
                lo0,
                hi0,
                limit=limit,
            )
            return val[0]

        return quad(inner, lo1, hi1, limit=limit)

    re = nested(np.real)
    im = nested(np.imag)
    return re[0] + 1j * im[0], re[1] + im[1]
