"""Fixed-input probes of single layers, each a timed public call.

Run as a child of run.py, one group per process, so that the cold probes
start from a fresh interpreter and the 2.3 GB jet index of the (10 vars,
degree 6) shape is held by one process at a time:

    python3 perfbench/probes.py census       # cold graph census, orders 2, 3
    python3 perfbench/probes.py first-shape  # first (10, 6) jet: time, memory
    python3 perfbench/probes.py warm         # every other probe, warm caches

Each prints one JSON object {metric: value}.  The inputs never depend on
the workload or the seed.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# A hyperbolic mirror-symmetric table (a = 3): no iterate is near resonance.
PROBE_SPEC = (
    '{"kind": "updown", "L": 2.0, "f": [1.0, 0.0, -0.625, 0.2, 0.13, -0.21,'
    " 0.17, -0.08, 0.11, 0.06, -0.14]}"
)


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def census() -> dict:
    from wavetrace.feynman import enumerate_graphs

    out = {}
    for order in (2, 3):
        t0 = time.perf_counter()
        enumerate_graphs(order)
        out[f"feynman.census_s.order{order}"] = time.perf_counter() - t0
    return out


def first_shape() -> dict:
    from wavetrace.jets import MultiJet, jet_mul

    before = _peak_mb()
    t0 = time.perf_counter()
    x = MultiJet.variable(0, 10, 6) + 1.0
    y = MultiJet.variable(1, 10, 6) + 1.0
    jet_mul(x, y)
    return {
        "jets.first_shape_s.v10d6": time.perf_counter() - t0,
        "jets.first_shape_mb.v10d6": _peak_mb() - before,
    }


def _median_time(fn, reps: int) -> float:
    fn()  # fill caches first
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def warm() -> dict:
    import numpy as np

    from wavetrace.billiard import length_jet
    from wavetrace.domain import parse_spec
    from wavetrace.feynman import amplitude, automorphism_order, enumerate_graphs
    from wavetrace.hessian import CirculantHessian, cubic_sum, inverse_fourier, inverse_matrix
    from wavetrace.invariants import build_principal, forward_table, invariant_full, invariant_top
    from wavetrace.inverse import recover
    from wavetrace.jets import MultiJet, jet_mul, jet_power

    spec = parse_spec(PROBE_SPEC)
    rng = np.random.default_rng(0)

    def random_jet(n, d, value=0.0):
        size = len(MultiJet.zero(n, d).coeffs)
        coeffs = rng.uniform(-1.0, 1.0, size)
        coeffs[0] = value
        return MultiJet(n, d, coeffs)

    a6, b6 = random_jet(6, 8), random_jet(6, 8)
    a10, b10 = random_jet(10, 6), random_jet(10, 6)
    base10 = random_jet(10, 6, value=2.0)
    h = CirculantHessian.from_spec(spec, 100)
    graphs = enumerate_graphs(3)
    problem = build_principal(spec, 3, 8).problem()
    top_table = forward_table(spec, 100, 5, normalization="TopOnly")
    full_table = forward_table(spec, 3, 4, normalization="FullPrincipal")

    return {
        "jets.mul_s.v6d8": _median_time(lambda: jet_mul(a6, b6), 15),
        "jets.mul_s.v10d6": _median_time(lambda: jet_mul(a10, b10), 7),
        "jets.power_s.v10d6": _median_time(lambda: jet_power(base10, -0.75), 5),
        "billiard.length_jet_s.r5d6": _median_time(lambda: length_jet(spec, 5, 6), 3),
        "invariants.build_principal_s.r3d8": _median_time(lambda: build_principal(spec, 3, 8), 3),
        "invariants.build_principal_s.r5d6": _median_time(lambda: build_principal(spec, 5, 6), 3),
        "invariants.top_entry_s.r100j5": _median_time(lambda: invariant_top(spec, 100, 5), 5),
        "invariants.full_entry_s.r3j4": _median_time(lambda: invariant_full(spec, 3, 4), 2),
        "invariants.full_entry_s.r5j3": _median_time(lambda: invariant_full(spec, 5, 3), 3),
        "hessian.inverse_s.r100.dense": _median_time(lambda: inverse_matrix(h, "dense"), 15),
        "hessian.inverse_s.r100.fourier": _median_time(lambda: inverse_matrix(h, "fourier"), 15),
        "hessian.row_s.r100": _median_time(
            lambda: (inverse_fourier(h, 1, 1), cubic_sum(h, "direct")), 15
        ),
        "feynman.graphs.order3": len(graphs),
        "feynman.contract_s.order3.v6": _median_time(
            lambda: [amplitude(g, problem) for g in graphs], 3
        ),
        "feynman.automorphism_s.order3": _median_time(
            lambda: [automorphism_order(g) for g in graphs], 3
        ),
        "inverse.recover_s.top.r100j5": _median_time(lambda: recover(top_table, 5), 5),
        "inverse.recover_s.full.r3j4": _median_time(lambda: recover(full_table, 4), 2),
    }


GROUPS = {"census": census, "first-shape": first_shape, "warm": warm}

if __name__ == "__main__":
    print(json.dumps(GROUPS[sys.argv[1]]()))
