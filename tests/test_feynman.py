"""Diagram/operator expansion engine tests.

The graph census is validated against a from-scratch brute-force enumerator,
automorphism counts against exhaustive half-edge permutation counting, and
contraction values against an explicit sum over all end labelings.  The two
coefficient routes (operator and diagram) must agree to float precision.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import string
import tracemalloc

import numpy as np
import pytest

from wavetrace import feynman
from wavetrace.checks import random_sp_problem
from wavetrace.domain import parse_spec
from wavetrace.feynman import (
    FeynmanGraph,
    SPProblem,
    amplitude,
    automorphism_order,
    enumerate_graphs,
    full_expansion,
    oscillatory_quadrature,
    sp_coefficient_diagrams,
    sp_coefficient_direct,
)
from wavetrace.invariants import build_principal, contributing_graphs
from wavetrace.jets import (
    MultiJet,
    derivative_tensor,
    extract_partial,
    jet_compose_scalar,
    jet_mul,
)


def _flower(loops):
    return FeynmanGraph(((loops, 0),), 0, ((0,),))


DUMBBELL = FeynmanGraph(((1, 0), (1, 0)), 0, ((0, 1), (1, 0)))
THETA = FeynmanGraph(((0, 0), (0, 0)), 0, ((0, 3), (3, 0)))
STUB_LOOP = FeynmanGraph(((1, 1),), 0, ((0,),))
OPEN_LOOP = FeynmanGraph((), 1, ())


# ---------------------------------------------------------------------------
# census


def test_order_zero_census():
    graphs = enumerate_graphs(0)
    assert len(graphs) == 1
    (g,) = graphs
    assert g.num_closed == 0 and g.num_edges == 0
    assert g.order == 0
    assert automorphism_order(g) == 1


def test_order_one_census_is_the_five_known_classes():
    graphs = enumerate_graphs(1)
    assert set(graphs) == {OPEN_LOOP, STUB_LOOP, _flower(2), DUMBBELL, THETA}
    auts = sorted(automorphism_order(g) for g in graphs)
    assert auts == [2, 2, 8, 8, 12]


def _perm_min_key(loops, stubs, adj, open_loops):
    v = len(loops)
    best = None
    for perm in itertools.permutations(range(v)):
        recs = tuple((loops[p], stubs[p]) for p in perm)
        flat = tuple(adj[perm[i]][perm[j]] for i in range(v) for j in range(i + 1, v))
        key = (v, open_loops, recs, flat)
        if best is None or key < best:
            best = key
    return best if best is not None else (0, open_loops, (), ())


def _compositions(total, slots):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _bruteforce_census(order):
    """Directly enumerate every edge layout at V <= 2*order and dedup by the
    minimum over all vertex permutations (no shared code with the engine)."""
    keys = set()
    for v in range(0, 2 * order + 1):
        total_edges = order + v
        pair_list = [(a, b) for a in range(v) for b in range(a + 1, v)]
        nslots = v + v + len(pair_list) + 1
        for comp in _compositions(total_edges, nslots):
            loops = comp[:v]
            stubs = comp[v : 2 * v]
            bundle = comp[2 * v : 2 * v + len(pair_list)]
            open_loops = comp[-1]
            adj = [[0] * v for _ in range(v)]
            for (a, b), m in zip(pair_list, bundle):
                adj[a][b] = adj[b][a] = m
            if any(2 * loops[u] + stubs[u] + sum(adj[u]) < 3 for u in range(v)):
                continue
            keys.add(_perm_min_key(loops, stubs, adj, open_loops))
    return keys


def test_order_two_census_matches_bruteforce():
    brute = _bruteforce_census(2)
    engine = {
        _perm_min_key(
            [l for l, _ in g.closed_vertices],
            [s for _, s in g.closed_vertices],
            [list(r) for r in g.edges_between],
            g.open_loops,
        )
        for g in enumerate_graphs(2)
    }
    assert engine == brute
    assert len(enumerate_graphs(2)) == len(brute)


def test_census_counts_frozen():
    assert [len(enumerate_graphs(j)) for j in range(3)] == [1, 5, 41]
    # regression pin; order 3 is also exercised through the route-equality tests
    assert len(enumerate_graphs(3)) == 378


def test_disconnected_graphs_are_included():
    two_flowers = FeynmanGraph(((2, 0), (2, 0)), 0, ((0, 0), (0, 0)))
    assert two_flowers in enumerate_graphs(2)


def test_negative_order_rejected():
    with pytest.raises(ValueError, match="order"):
        enumerate_graphs(-1)


# The census's generators as they were before they pruned, kept here so that
# the oracle shares no generator with the code it checks.


def _all_self_assignments(v, budget):
    """Non-increasing length-v tuples of (loops, stubs) with total <= budget."""
    pairs = [(l, s) for tot in range(budget + 1) for l in range(tot + 1) for s in [tot - l]]
    pairs.sort(reverse=True)

    def rec(idx, remaining, start):
        if idx == v:
            yield ()
            return
        for p in range(start, len(pairs)):
            l, s = pairs[p]
            if l + s > remaining:
                continue
            for rest in rec(idx + 1, remaining - l - s, p):
                yield ((l, s),) + rest

    yield from rec(0, budget, 0)


def _all_degree_sequences(needs, records, total):
    """Degree tuples >= needs summing to total, non-increasing on equal records."""

    def rec(idx, remaining):
        if idx == len(needs):
            if remaining == 0:
                yield ()
            return
        lo = needs[idx]
        hi = remaining - sum(needs[idx + 1 :])
        for d in range(lo, hi + 1):
            for rest in rec(idx + 1, remaining - d):
                if rest and records[idx + 1] == records[idx] and rest[0] > d:
                    continue
                yield (d,) + rest

    yield from rec(0, total)


def _all_realizations(degrees):
    """All symmetric non-negative integer tables with zero diagonal and the
    given row sums."""
    v = len(degrees)
    res = list(degrees)
    adj = [[0] * v for _ in range(v)]
    out = []

    def rec(u, w):
        if u == v:
            out.append(tuple(tuple(row) for row in adj))
            return
        if w == v:
            if res[u] == 0:
                rec(u + 1, u + 2)
            return
        if res[u] > sum(res[w:]):
            return
        top = min(res[u], res[w])
        for m in range(top, -1, -1):
            adj[u][w] = adj[w][u] = m
            res[u] -= m
            res[w] -= m
            rec(u, w + 1)
            res[u] += m
            res[w] += m
        adj[u][w] = adj[w][u] = 0

    rec(0, 1)
    return out


def _census_by_search(order):
    """The census without the orderly filter, as (graph, |Aut|) in census
    order: each labelled candidate's orbit under relabelings within runs of
    equal (record, degree) keeps its largest upper triangle, and |Aut| is
    the relabelings over the orbit size times the edge factor."""
    found = {}
    for open_loops in range(order + 1):
        budget = order - open_loops
        for v in range(2 * budget + 1):
            total = budget + v
            for recs in _all_self_assignments(v, total):
                edge_budget = total - sum(l + s for l, s in recs)
                if v == 1 and edge_budget > 0:
                    continue
                needs = [max(0, 3 - 2 * l - s) for l, s in recs]
                if sum(needs) > 2 * edge_budget:
                    continue
                for degs in _all_degree_sequences(needs, recs, 2 * edge_budget):
                    runs = itertools.groupby(range(v), key=lambda u: (recs[u], degs[u]))
                    cells = [itertools.permutations(run) for _, run in runs]
                    perms = [sum(p, ()) for p in itertools.product(*cells)]
                    seen = set()
                    for adj in _all_realizations(degs):
                        if adj in seen:
                            continue
                        orbit = {tuple(tuple(adj[p][q] for q in perm) for p in perm)
                                 for perm in perms}
                        seen |= orbit
                        best = max(orbit, key=_triangle)
                        g = FeynmanGraph(recs, open_loops, best)
                        aut = len(perms) // len(orbit) * _edge_factor(g)
                        found[(v, open_loops, recs, _triangle(best))] = (g, aut)
    return [found[k] for k in sorted(found)]


def _triangle(adj):
    return tuple(adj[i][j] for i in range(len(adj)) for j in range(i + 1, len(adj)))


@pytest.mark.parametrize("order", range(4))
def test_census_equals_the_dedupe_by_search_census(order):
    graphs = enumerate_graphs(order)
    assert [(g, automorphism_order(g)) for g in graphs] == _census_by_search(order)


# sha256 of repr([(closed_vertices, open_loops, edges_between, |Aut|), ...])
# over the order-4 census, as the census that filtered every labelled table
# after generating it (about 11 s) produced it
ORDER_FOUR_DIGEST = "157b0eb88a3ab9630d1b151d648c33fae18f20221546e4607c77bd64fb519e64"


def test_order_four_census_matches_the_unpruned_census():
    graphs = enumerate_graphs(4)
    assert len(graphs) == 4186
    rows = [(g.closed_vertices, g.open_loops, g.edges_between, automorphism_order(g)) for g in graphs]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == ORDER_FOUR_DIGEST


def _fresh_census(monkeypatch):
    """Clear every census cache and the |Aut| memo; returns the list that
    records each call of the orderly pass from then on, as ((table, runs),
    result)."""
    for cache in (feynman._census, feynman._orderly_tables, feynman._cluster_classes,
                  automorphism_order):
        cache.cache_clear()
    examined = []
    stabilizer = feynman._orderly_stabilizer

    def counted(adj, runs):
        examined.append(((adj, runs), stabilizer(adj, runs)))
        return examined[-1][1]

    monkeypatch.setattr(feynman, "_orderly_stabilizer", counted)
    return examined


@pytest.mark.parametrize("order, classes, candidates", [(3, 378, 238), (4, 4186, 2768)])
def test_census_candidate_counts_frozen(monkeypatch, order, classes, candidates):
    # pruning pins: the labelled tables a cold census hands to the orderly
    # pass; checking every labelled table of every record tuple took 1859
    # at order 3 and 313,194 at order 4
    examined = _fresh_census(monkeypatch)
    assert len(enumerate_graphs(order)) == classes
    assert len(examined) == candidates


@pytest.mark.parametrize("order", range(4))
def test_census_searches_each_class_once(monkeypatch, order):
    # the one orderly pass over each kept table gives the class its
    # labelling and vertex |Aut|; nothing searches a table again
    examined = _fresh_census(monkeypatch)
    graphs = enumerate_graphs(order)
    tables = [table for table, _ in examined]
    assert len(set(tables)) == len(tables)
    assert all(automorphism_order(g) > 0 for g in graphs)
    assert len(examined) == len(tables)


def test_cluster_classes_take_automorphism_counts_from_the_census(monkeypatch):
    # the census counts the vertex automorphisms of each class; the cluster
    # families read them back without searching again
    examined = _fresh_census(monkeypatch)
    for order in range(4):
        enumerate_graphs(order)
    searched = len(examined)
    for order in range(4):
        feynman._cluster_classes(order)
    assert len(examined) == searched


def test_orderly_filter_keeps_one_table_per_orbit():
    rng = random.Random(13)
    orbit_sizes = []
    while len(orbit_sizes) < 200:
        v = rng.randint(1, 5)
        # mostly one (record, degree) pair, so that many orbits are large;
        # the generator's labelling: records, then degrees, non-increasing
        common = (rng.choice(((0, 0), (1, 0))), rng.choice((2, 3, 4)))
        others = [((0, 1), 3), ((0, 0), 2), ((1, 0), 4)]
        vertices = sorted(
            (common if rng.random() < 0.7 else rng.choice(others) for _ in range(v)), reverse=True
        )
        recs = tuple(rec for rec, _ in vertices)
        degs = tuple(deg for _, deg in vertices)
        tables = _all_realizations(degs)
        if not tables:
            continue
        adj = rng.choice(tables)
        perms = [
            perm
            for perm in itertools.permutations(range(v))
            if all(recs[p] == recs[i] and degs[p] == degs[i] for i, p in enumerate(perm))
        ]
        orbit = {tuple(tuple(adj[p][q] for q in perm) for p in perm) for perm in perms}
        runs = feynman._runs(recs, degs)
        kept = [table for table in orbit if feynman._orderly_stabilizer(table, runs)]
        assert len(kept) == 1, (recs, adj)
        # the pass counts the relabelings that fix the kept table, and the
        # pruned generator still yields it
        assert feynman._orderly_stabilizer(kept[0], runs) == len(perms) // len(orbit)
        assert kept[0] in feynman._realizations(degs, runs)
        orbit_sizes.append(len(orbit))
    assert sum(size >= 10 for size in orbit_sizes) >= 10


# ---------------------------------------------------------------------------
# graph type and automorphisms


def test_graph_validation():
    with pytest.raises(ValueError, match="symmetric"):
        FeynmanGraph(((0, 0), (0, 0)), 0, ((0, 1), (2, 0)))
    with pytest.raises(ValueError, match="diagonal"):
        FeynmanGraph(((0, 0),), 0, ((1,),))
    with pytest.raises(ValueError, match="non-negative"):
        FeynmanGraph(((-1, 0),), 0, ((0,),))
    with pytest.raises(ValueError, match="0x0"):
        FeynmanGraph((), 0, ((0,),))


def test_automorphism_closed_families():
    for j in range(1, 5):
        assert automorphism_order(_flower(j)) == 2**j * math.factorial(j)
    assert automorphism_order(DUMBBELL) == 8
    assert automorphism_order(THETA) == 12
    for j in range(3, 5):
        bundle3 = FeynmanGraph(
            ((j - 2, 0), (0, 0)), 0, ((0, 3), (3, 0))
        )
        assert automorphism_order(bundle3) == 6 * 2 ** (j - 2) * math.factorial(j - 2)
    single_stub = FeynmanGraph(((0, 1),), 0, ((0,),))
    assert automorphism_order(single_stub) == 1


def _halfedge_ends(g):
    ends = []
    v = g.num_closed
    for idx, (loops, stubs) in enumerate(g.closed_vertices):
        ends.extend([(idx, idx)] * loops)
        ends.extend([(idx, v)] * stubs)
    for i in range(v):
        for j in range(i + 1, v):
            ends.extend([(i, j)] * g.edges_between[i][j])
    ends.extend([(v, v)] * g.open_loops)
    return ends


def _exhaustive_aut_count(g):
    """Count all half-edge permutations preserving the incidence structure
    (vertex partition up to a closed-vertex bijection fixing the open vertex,
    and the pairing of half-edges into edges)."""
    ends = _halfedge_ends(g)
    n_half = 2 * len(ends)
    attach = [p for pq in ends for p in pq]
    partner = {}
    for e in range(len(ends)):
        partner[2 * e] = 2 * e + 1
        partner[2 * e + 1] = 2 * e
    open_vertex = g.num_closed
    count = 0
    for perm in itertools.permutations(range(n_half)):
        if any(perm[partner[h]] != partner[perm[h]] for h in range(n_half)):
            continue
        vmap = {}
        ok = True
        for h in range(n_half):
            src, dst = attach[h], attach[perm[h]]
            if vmap.setdefault(src, dst) != dst:
                ok = False
                break
        if not ok or vmap.get(open_vertex, open_vertex) != open_vertex:
            continue
        if len(set(vmap.values())) != len(vmap):
            continue
        count += 1
    return count


def test_automorphism_exhaustive_halfedge_oracle():
    small = [g for j in range(3) for g in enumerate_graphs(j) if g.num_edges <= 4]
    small.append(FeynmanGraph(((0, 1),), 0, ((0,),)))  # one open-closed edge
    assert len(small) > 10
    for g in small:
        assert automorphism_order(g) == _exhaustive_aut_count(g), g


def _edge_factor(g):
    """Loop end swaps, loop permutations and bundle permutations."""
    factor = 2**g.open_loops * math.factorial(g.open_loops)
    for loops, stubs in g.closed_vertices:
        factor *= 2**loops * math.factorial(loops) * math.factorial(stubs)
    for i in range(g.num_closed):
        for j in range(i + 1, g.num_closed):
            factor *= math.factorial(g.edges_between[i][j])
    return factor


def _relabeled(g, perm):
    return FeynmanGraph(
        tuple(g.closed_vertices[p] for p in perm),
        g.open_loops,
        tuple(tuple(g.edges_between[p][q] for q in perm) for p in perm),
    )


def test_canonical_form_and_automorphisms_match_brute_force():
    # the census labelling is the only one counted, and any other raises;
    # the graphs that weight the closed form are built in it (here j <= 11)
    rng = random.Random(5)
    census = [g for j in range(4) for g in enumerate_graphs(j)]
    for g in census:
        v = g.num_closed
        for _ in range(3):
            h = _relabeled(g, rng.sample(range(v), v))
            if h != g:
                with pytest.raises(ValueError, match="labelling the census keeps"):
                    automorphism_order(h)
    weighted = [g for j in range(1, 12) for g in contributing_graphs(j) if g is not None]
    for g in census + weighted:
        vertex_perms = sum(
            _relabeled(g, perm) == g for perm in itertools.permutations(range(g.num_closed))
        )
        assert automorphism_order(g) == vertex_perms * _edge_factor(g), g


# ---------------------------------------------------------------------------
# amplitudes


def _explicit_label_sum(g, problem):
    ends = _halfedge_ends(g)
    n = problem.num_vars
    n_closed = g.num_closed
    total = 0j
    for labels in itertools.product(range(n), repeat=2 * len(ends)):
        factor = 1.0 + 0j
        for e, _ in enumerate(ends):
            factor *= problem.hessian_inverse[labels[2 * e], labels[2 * e + 1]]
        allocation = [[0] * n for _ in range(n_closed + 1)]
        for h, lab in enumerate(labels):
            allocation[ends[h // 2][h % 2]][lab] += 1
        for v in range(n_closed):
            factor *= extract_partial(problem.phase_tensors, allocation[v])
        factor *= extract_partial(problem.amplitude, allocation[n_closed])
        total += factor
    return (1j) ** (len(ends) + n_closed) * total


def test_amplitude_matches_explicit_label_sum():
    rng = np.random.default_rng(7)
    problem = random_sp_problem(rng, 2, deg=8)
    graphs = [g for j in range(3) for g in enumerate_graphs(j) if g.num_edges <= 4]
    assert len(graphs) > 10
    for g in graphs:
        fast = amplitude(g, problem)
        slow = _explicit_label_sum(g, problem)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)
    problem3 = random_sp_problem(rng, 3, deg=6)
    for g in (DUMBBELL, THETA, STUB_LOOP, _flower(2)):
        assert amplitude(g, problem3) == pytest.approx(
            _explicit_label_sum(g, problem3), rel=1e-12, abs=1e-12
        )


def _fresh_path_amplitude(g, problem):
    """The contraction with numpy searching its path on this call, and the
    same contraction of the operands' absolute values, which bounds the
    rounding of any summation order."""
    ends = _halfedge_ends(g)
    letters = string.ascii_letters
    slots = [""] * (g.num_closed + 1)
    terms = []
    for e, (p, q) in enumerate(ends):
        terms.append(letters[2 * e] + letters[2 * e + 1])
        slots[p] += letters[2 * e]
        slots[q] += letters[2 * e + 1]
    operands = [problem.hessian_inverse] * len(ends)
    operands += [derivative_tensor(problem.phase_tensors, len(s)) for s in slots[:-1]]
    operands.append(derivative_tensor(problem.amplitude, len(slots[-1])))
    subscripts = ",".join(terms + slots) + "->"
    value = np.einsum(subscripts, *operands, optimize=True)
    scale = np.einsum(subscripts, *map(np.abs, operands), optimize=True)
    return (1j) ** (len(ends) + g.num_closed) * complex(value), float(scale)


@pytest.mark.parametrize("r", [1, 3])
def test_planned_contraction_matches_a_fresh_path_search(r):
    spec = parse_spec(
        '{"kind": "updown", "L": 2.0, "f": [1.0, 0.0, 0.6, 0.15, -0.2, 0.1, 0.05, -0.12, 0.2]}'
    )
    problem = build_principal(spec, r, 8).problem()
    assert problem.num_vars == 2 * r
    graphs = [g for j in range(4) for g in enumerate_graphs(j)]
    assert len(graphs) == 425
    for g in graphs:
        want, scale = _fresh_path_amplitude(g, problem)
        assert abs(amplitude(g, problem) - want) <= 1e-13 * scale, g


def test_every_planned_step_joins_two_operands():
    # a step over more operands loops over all their indices at once
    # (K_3,3 at n = 6: 6**9 terms)
    graphs = [g for j in range(4) for g in enumerate_graphs(j)]
    for g in graphs:
        _, _, steps = feynman._plan(g)
        assert all(len(positions) <= 2 for positions, _ in steps), g


@pytest.mark.parametrize("order", range(4))
def test_plans_contract_the_vertex_tensors_alone(order):
    # no propagator is an operand, so a class with m non-scalar vertex
    # tensors takes m - 1 steps.  No intermediate outgrows the largest vertex
    # tensor of its order; it can outgrow those of its own class (K_4 joins
    # two rank-3 tensors into a rank-4 one)
    top, widest = 0, 0
    for g in enumerate_graphs(order):
        _, keys, steps = feynman._plan(g)
        ranks = [valence for _, _, valence in keys if valence]
        assert len(steps) == max(len(ranks) - 1, 0), g
        top = max([top] + ranks)
        widest = max([widest] + [len(sub.split("->")[1]) for _, sub in steps])
    assert widest <= top


def test_programs_match_the_classes_contracted_one_by_one():
    # a step shared by several classes runs once; each class's term must
    # still be what its own plan gives.  Without the open vertex a vacuum
    # class is valued on its own, so its amplitude carries the open
    # vertex's factor, the amplitude's value
    spec = parse_spec(
        '{"kind": "updown", "L": 2.0, "f": [1.0, 0.0, 0.6, 0.15, -0.2, 0.1, 0.05, -0.12, 0.2]}'
    )
    problems = [build_principal(spec, r, 8).problem() for r in (1, 2, 3)]
    rng = np.random.default_rng(29)
    problems += [random_sp_problem(rng, n) for n in (1, 2, 3, 4)]
    problems += _indefinite_ill_scaled_problems()
    for problem in problems:
        value = complex(problem.amplitude.value)
        for order in range(4):
            linked, vacuum = feynman._cluster_classes(order)
            sums = feynman._cluster_sums(problem, order)
            for got, classes, factor in zip(sums, (linked, vacuum), (1.0, value)):
                terms = [amplitude(g, problem) / aut for g, aut in classes]
                want = sum(terms, 0j)
                assert abs(got * factor - want) <= 1e-13 * abs(want), (problem.num_vars, order)


def test_programs_run_each_distinct_step_once():
    # over orders <= 3 the 274 summed classes plan 815 pairwise steps, of
    # which 470 differ in their operands or subscripts
    classes = [g for o in range(4) for family in feynman._cluster_classes(o) for g, _ in family]
    assert len(classes) == 274
    assert sum(len(feynman._plan(g)[2]) for g in classes) == 815
    assert [len(feynman._program(o).steps) for o in range(4)] == [0, 3, 45, 422]


def _run_keeping_every_slot(program, problem):
    """Reference only: `feynman._run` with no slot dropped."""
    values = []
    for key in program.keys:
        tensor = problem.vertex_tensor(*key)
        values.append(tensor if tensor.ndim else complex(tensor))
    for first, second, subscripts, _ in program.steps:
        values.append(np.einsum(subscripts, values[first], values[second]))
    sums = []
    for terms in program.families:
        total = 0j
        for value, scalars, final, aut in terms:
            for slot in scalars:
                value *= values[slot]
            if final is not None:
                value *= complex(values[final])
            total += value / aut
        sums.append(total)
    return tuple(sums)


@pytest.mark.parametrize("order", range(4))
def test_programs_drop_each_slot_after_its_last_reader(order):
    program = feynman._program(order)
    terms = [term for family in program.families for term in family]
    kept = {slot for _, scalars, final, _ in terms for slot in (*scalars, final)}
    dropped = set()
    for k, (first, second, _, done) in enumerate(program.steps):
        assert not {first, second} & dropped, (order, k)
        assert set(done) <= {first, second} and not set(done) & kept, (order, k)
        dropped |= set(done)
    spec = parse_spec(
        '{"kind": "updown", "L": 2.0, "f": [1.0, 0.0, 0.6, 0.15, -0.2, 0.1, 0.05, -0.12, 0.2]}'
    )
    for r in (1, 3):
        problem = build_principal(spec, r, 8).problem()
        got = feynman._run(program, problem)
        want = _run_keeping_every_slot(program, problem)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def _steps_run(monkeypatch, program, problem):
    """`feynman._run` of ``program``, and the number of steps it ran."""
    for key in program.keys:  # vertex tensors take no einsum; build them first
        problem.vertex_tensor(*key)
    calls = []
    einsum = np.einsum

    def counted(*args):
        calls.append(args[0])
        return einsum(*args)

    monkeypatch.setattr(np, "einsum", counted)
    sums = feynman._run(program, problem)
    monkeypatch.setattr(np, "einsum", einsum)
    return sums, len(calls)


@pytest.mark.parametrize("order, steps, skipped", [(2, 45, 8), (3, 422, 85)])
def test_steps_on_the_vanishing_amplitude_gradient_are_skipped(monkeypatch, order, steps, skipped):
    # at the orbit the amplitude's gradient is exactly zero, so every step
    # that reads the open vertex's rank-1 tensor, or a result of one, is
    # left out, and so is every term that reads one; the sums keep their bits
    spec = parse_spec(
        '{"kind": "updown", "L": 2.0, "f": [1.0, 0.0, 0.6, 0.15, -0.2, 0.1, 0.05, -0.12, 0.2]}'
    )
    program = feynman._program(order)
    assert len(program.steps) == steps
    for r in (1, 3):
        problem = build_principal(spec, r, 8).problem()
        assert not problem.vertex_tensor(True, 0, 1).any()
        got, run = _steps_run(monkeypatch, program, problem)
        assert run == steps - skipped
        want = _run_keeping_every_slot(program, problem)
        assert np.array(got).tobytes() == np.array(want).tobytes()
    # a random problem's tensors are all nonzero: nothing is skipped
    problem = random_sp_problem(np.random.default_rng(31), 3)
    assert all(problem.vertex_tensor(*key).any() for key in program.keys)
    got, run = _steps_run(monkeypatch, program, problem)
    assert run == steps
    assert np.array(got).tobytes() == np.array(_run_keeping_every_slot(program, problem)).tobytes()


def _census_sum(problem, j):
    return sum(amplitude(g, problem) / automorphism_order(g) for g in enumerate_graphs(j))


def test_linked_clusters_match_the_whole_census():
    spec = parse_spec(
        '{"kind": "updown", "L": 2.0, "f": [1.0, 0.0, 0.6, 0.15, -0.2, 0.1, 0.05, -0.12, 0.2]}'
    )
    problems = [build_principal(spec, r, 8).problem() for r in (1, 3)]
    rng = np.random.default_rng(17)
    problems += [random_sp_problem(rng, n) for n in (1, 2, 3, 4)]
    # the vacuum sums must not be read off through the amplitude's value
    base = problems[-1]
    problems.append(
        SPProblem(
            num_vars=base.num_vars,
            hessian_inverse=base.hessian_inverse,
            phase_tensors=base.phase_tensors,
            amplitude=base.amplitude - base.amplitude.value,
            phase_value=base.phase_value,
            signature=base.signature,
        )
    )
    for problem in problems:
        for j in range(4):
            want = _census_sum(problem, j)
            got = sp_coefficient_diagrams(problem, j)
            assert abs(got - want) <= 1e-12 * abs(want), (problem.num_vars, j)


def test_diagram_sum_memory_is_bounded():
    # with loops as operands the order-3 flower alone is a rank-8 tensor:
    # 6**8 doubles, 13 MB, at r = 3
    spec = parse_spec(
        '{"kind": "updown", "L": 2.0, "f": [1.0, 0.0, 0.6, 0.15, -0.2, 0.1, 0.05, -0.12, 0.2]}'
    )
    problem = build_principal(spec, 3, 8).problem()
    enumerate_graphs(3)  # cached per process: keep the census out of the bound
    tracemalloc.start()
    try:
        sp_coefficient_diagrams(problem, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_each_derivative_tensor_is_extracted_once_per_problem(monkeypatch):
    spec = parse_spec(
        '{"kind": "updown", "L": 2.0, "f": [1.0, 0.0, 0.6, 0.15, -0.2, 0.1, 0.05, -0.12, 0.2]}'
    )
    problem = build_principal(spec, 2, 8).problem()

    def loop_key(jet):
        # (open, loops) such that jet is Delta_H**loops of the vertex's jet
        for open_vertex in (False, True):
            ref = problem.amplitude if open_vertex else problem.phase_tensors
            for loops in range(5):
                if np.array_equal(jet.coeffs, ref.coeffs):
                    return open_vertex, loops
                ref = feynman._apply_inverse_hessian_operator(ref, problem.hessian_inverse)
        raise AssertionError("tensor taken from an unexpected jet")

    calls = []
    extract = feynman.derivative_tensor

    def counted(jet, order):
        calls.append(loop_key(jet) + (order,))
        return extract(jet, order)

    monkeypatch.setattr(feynman, "derivative_tensor", counted)
    values = [sp_coefficient_diagrams(problem, j) for j in range(4)]
    needed = {key for j in range(4) for g in enumerate_graphs(j) for key in feynman._plan(g)[1]}
    assert sorted(calls) == sorted(needed)
    assert [sp_coefficient_diagrams(problem, j) for j in range(4)] == values


def test_classical_first_correction_one_dim():
    rng = np.random.default_rng(3)
    for _ in range(5):
        c, s3, s4 = rng.uniform(0.5, 2.0), rng.normal(), rng.normal()
        h = 1.0 / c
        phase = MultiJet.from_terms({(2,): c / 2, (3,): s3 / 6, (4,): s4 / 24}, 1, 8)
        problem = SPProblem.from_phase(phase, MultiJet.constant(1.0, 1, 8))
        expected = 1j * (5 * s3**2 * h**3 / 24 - s4 * h**2 / 8)
        assert sp_coefficient_direct(problem, 1) == pytest.approx(expected, rel=1e-12)
        assert sp_coefficient_diagrams(problem, 1) == pytest.approx(expected, rel=1e-12)


def test_gaussian_is_exact():
    phase = MultiJet.from_terms({(2,): 0.5}, 1, 10)
    problem = SPProblem.from_phase(phase, MultiJet.constant(1.0, 1, 10))
    for j in range(1, 4):
        assert sp_coefficient_direct(problem, j) == 0
        assert sp_coefficient_diagrams(problem, j) == 0
    k = 17.0
    assert full_expansion(problem, k, 3) == pytest.approx(
        np.sqrt(2 * np.pi / k) * np.exp(1j * np.pi / 4), rel=1e-14
    )


def test_saddle_signature_prefactor():
    # x^2/2 - y^2/2: signature 0, |det| 1 => exactly 2 pi / k
    phase = MultiJet.from_terms({(2, 0): 0.5, (0, 2): -0.5}, 2, 8)
    problem = SPProblem.from_phase(phase, MultiJet.constant(1.0, 2, 8))
    assert problem.signature == 0
    assert full_expansion(problem, 9.0, 2) == pytest.approx(2 * np.pi / 9.0, rel=1e-14)


def _untruncated_operator(jet, h):
    """Delta_H as it was before its result dropped the degrees it empties."""
    tab = jet._tab()
    out = np.zeros_like(jet.coeffs)
    for u in range(jet.num_vars):
        for w in range(u, jet.num_vars):
            weight = h[u, u] if u == w else 2.0 * h[u, w]
            if weight == 0.0:
                continue
            src, dst, factor = tab.diff2_table(u, w)
            out[dst] += weight * (factor * jet.coeffs[src])
    return MultiJet(jet.num_vars, jet.max_degree, out)


def test_each_loop_jet_is_the_untruncated_one_truncated():
    spec = parse_spec(
        '{"kind": "updown", "L": 2.0, "f": [1.0, 0.0, 0.6, 0.15, -0.2, 0.1, 0.05, -0.12, 0.2]}'
    )
    problems = [random_sp_problem(np.random.default_rng(3), 3, deg=9),
                build_principal(spec, 3, 8).problem()]
    for problem in problems:
        h = problem.hessian_inverse
        for open_vertex in (False, True):
            full = problem.amplitude if open_vertex else problem.phase_tensors
            for loops in range(1, 6):
                full = _untruncated_operator(full, h)
                jet = problem._loop_jet(open_vertex, loops)
                assert jet.max_degree == max(full.max_degree - 2 * loops, 0)
                assert jet.coeffs.tobytes() == full.truncated(jet.max_degree).coeffs.tobytes()


def test_routes_agree_on_random_problems():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for _ in range(3):
            problem = random_sp_problem(rng, n, deg=8)
            for j in range(4):
                direct = sp_coefficient_direct(problem, j)
                diagram = sp_coefficient_diagrams(problem, j)
                scale = max(abs(direct), 1e-6)
                assert abs(direct - diagram) <= 1e-9 * scale


def _indefinite_ill_scaled_problems():
    # random_sp_problem draws positive-definite Hessians only; here the
    # propagator root has imaginary columns, with norms spread over 3 decades
    rng = np.random.default_rng(23)
    problems = []
    for n in (2, 3, 3, 4):
        base = random_sp_problem(rng, n, deg=8)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eig = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        eig[0], eig[-1] = 1e-3, 1e3
        eig *= np.resize([1.0, -1.0], n)
        rng.shuffle(eig)
        problems.append(
            SPProblem(
                num_vars=n,
                hessian_inverse=q @ np.diag(1.0 / eig) @ q.T,
                phase_tensors=base.phase_tensors,
                amplitude=base.amplitude,
                phase_value=base.phase_value,
                signature=int(np.sum(np.sign(eig))),
            )
        )
    return problems


def test_routes_agree_on_indefinite_ill_scaled_hessians():
    for problem in _indefinite_ill_scaled_problems():
        n = problem.num_vars
        assert np.iscomplexobj(problem._propagator_root)
        for j in range(4):
            direct = sp_coefficient_direct(problem, j)
            diagram = sp_coefficient_diagrams(problem, j)
            scale = max(abs(direct), 1e-6)
            assert abs(direct - diagram) <= 1e-9 * scale, (n, j)


def test_separable_two_dim_coefficients_multiply():
    rng = np.random.default_rng(5)
    deg = 8

    def one_dim(seed_shift):
        terms = {(2,): rng.uniform(0.4, 1.5)}
        for d in range(3, deg + 1):
            terms[(d,)] = 0.2 * rng.normal()
        aterms = {(0,): 1.0 + 0.3j}
        for d in range(1, deg - 1):
            aterms[(d,)] = 0.3 * rng.normal()
        return (
            MultiJet.from_terms(terms, 1, deg),
            MultiJet.from_terms(aterms, 1, deg),
        )

    sx, ax = one_dim(0)
    sy, ay = one_dim(1)
    phase2 = MultiJet.from_univariate(
        [sx.coefficient((d,)) for d in range(deg + 1)], 0, 2, deg
    ) + MultiJet.from_univariate([sy.coefficient((d,)) for d in range(deg + 1)], 1, 2, deg)
    amp2 = jet_mul(
        MultiJet.from_univariate(
            np.array([ax.coefficient((d,)) for d in range(deg + 1)]), 0, 2, deg
        ),
        MultiJet.from_univariate(
            np.array([ay.coefficient((d,)) for d in range(deg + 1)]), 1, 2, deg
        ),
    )
    px = SPProblem.from_phase(sx, ax)
    py = SPProblem.from_phase(sy, ay)
    pxy = SPProblem.from_phase(phase2, amp2)
    for j in range(4):
        product_rule = sum(
            sp_coefficient_direct(px, p) * sp_coefficient_direct(py, j - p)
            for p in range(j + 1)
        )
        assert sp_coefficient_direct(pxy, j) == pytest.approx(product_rule, rel=1e-10)


def test_coefficients_linear_in_amplitude():
    rng = np.random.default_rng(23)
    base = random_sp_problem(rng, 2, deg=8)
    other = random_sp_problem(rng, 2, deg=8)
    summed = SPProblem(
        num_vars=2,
        hessian_inverse=base.hessian_inverse,
        phase_tensors=base.phase_tensors,
        amplitude=base.amplitude + other.amplitude,
        phase_value=base.phase_value,
        signature=base.signature,
    )
    for j in range(3):
        lhs = sp_coefficient_direct(summed, j)
        rhs = sp_coefficient_direct(base, j) + sp_coefficient_direct(
            SPProblem(
                num_vars=2,
                hessian_inverse=base.hessian_inverse,
                phase_tensors=base.phase_tensors,
                amplitude=other.amplitude,
                phase_value=base.phase_value,
                signature=base.signature,
            ),
            j,
        )
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_k_power_bookkeeping():
    for j in range(3):
        for g in enumerate_graphs(j):
            assert g.order == g.num_edges - g.num_closed == j
    assert _flower(3).order == 2


def test_insufficient_jets_raise():
    phase = MultiJet.from_terms({(2,): 0.5, (3,): 0.2}, 1, 5)
    problem = SPProblem.from_phase(phase, MultiJet.constant(1.0, 1, 5))
    with pytest.raises(ValueError, match="degree >= 8"):
        sp_coefficient_direct(problem, 3)
    with pytest.raises(ValueError, match="degree >= 8"):
        sp_coefficient_diagrams(problem, 3)
    with pytest.raises(ValueError, match="exceeds jet degree"):
        amplitude(_flower(3), problem)


def test_from_phase_validation():
    slanted = MultiJet.from_terms({(1,): 1.0, (2,): 0.5}, 1, 4)
    with pytest.raises(ValueError, match="critical point"):
        SPProblem.from_phase(slanted, MultiJet.constant(1.0, 1, 4))
    flat = MultiJet.from_terms({(3,): 1.0}, 1, 4)
    with pytest.raises(ValueError, match="singular"):
        SPProblem.from_phase(flat, MultiJet.constant(1.0, 1, 4))
    quad_leak = MultiJet.from_terms({(2,): 0.5}, 1, 4)
    with pytest.raises(ValueError, match="degree < 3"):
        SPProblem(
            num_vars=1,
            hessian_inverse=np.eye(1),
            phase_tensors=quad_leak,
            amplitude=MultiJet.constant(1.0, 1, 4),
            phase_value=0.0,
            signature=1,
        )


# ---------------------------------------------------------------------------
# quadrature oracle


def _bump_value(x, width):
    s = (x / width) ** 2
    return np.exp(1.0 - 1.0 / (1.0 - s)) if s < 1.0 else 0.0


def test_quadrature_matches_expansion_orders():
    # analytic amplitude keeps the truncation error a clean power law; the
    # second phase critical point sits at -2/c3, far outside the window
    deg = 10
    c3 = 0.3
    radius = 5.5
    phase = MultiJet.from_terms({(2,): 0.5, (3,): c3 / 6.0}, 1, deg)
    gauss = np.zeros(deg + 1)
    gauss[2] = -0.5
    series = 1.0 / np.cumprod(np.concatenate(([1.0], np.arange(1.0, deg + 1))))
    amp = jet_compose_scalar(series, MultiJet.from_univariate(gauss, 0, 1, deg))
    problem = SPProblem.from_phase(phase, amp)
    k = 40.0
    value, err = oscillatory_quadrature(
        lambda x: x**2 / 2 + c3 * x**3 / 6,
        lambda x: np.exp(-(x**2) / 2),
        k,
        -radius,
        radius,
        limit=3000,
    )
    assert err < 1e-6
    resid0 = abs(value - full_expansion(problem, k, 0))
    resid1 = abs(value - full_expansion(problem, k, 1))
    resid2 = abs(value - full_expansion(problem, k, 2))
    assert resid1 < 0.05 * resid0
    assert resid2 < 0.05 * resid1


def test_quadrature_two_dim_separable():
    width = 0.7
    k = 20.0

    def phase1(x):
        return x**2 / 2

    one_dim, _ = oscillatory_quadrature(
        phase1, lambda x: _bump_value(x, width), k, -width, width
    )
    two_dim, _ = oscillatory_quadrature(
        lambda x, y: x**2 / 2 + y**2 / 2,
        lambda x, y: _bump_value(x, width) * _bump_value(y, width),
        k,
        (-width, -width),
        (width, width),
        limit=200,
    )
    assert two_dim == pytest.approx(one_dim**2, rel=1e-6)

