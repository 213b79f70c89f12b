"""Round-trip benchmark of the wavetrace CLI: forward -> invert -> check.

    python3 perfbench/run.py --workload top-wide --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
load is a closed loop with one client: each operation (forward, invert,
check of one item) starts when the previous one has ended.  A run draws a
fixed list of items from --seed and repeats whole rounds of that list until
--seconds have passed, so every median is taken over the same items.

--trace 0 prints the end-to-end metrics; --trace 1 runs the fixed-input
layer probes, then alternates untraced and traced rounds and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Raw samples go to
.perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from roundtrip import is_expected_failure, run_item, write_specs
from workloads import WORKLOADS, make_items

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Fixed for every run and both sides of a comparison.  One BLAS thread: the
# client loop is single-threaded, and on the 2-core reference machine a
# second BLAS thread bought no measurable speed on these shapes.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# setup_s is the median over this many fresh interpreters.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

# What the `wavetrace` console script runs, with ./src on the path, twice:
# a cold call, then a warm one on the same spec.  Prints the wall-clock
# time at which the cold call ended and the time of the warm call.
_FRESH_CLI = """
import sys, time
sys.path.insert(0, sys.argv[1])
from wavetrace.cli import main
code = main(sys.argv[2:])
cold_end = time.time()
code = code or main(sys.argv[2:])
print(cold_end, time.time() - cold_end)
sys.exit(code)
"""

# per-item call counts reported by the traced run: metric -> traced function
COUNTED = {
    "hessian.matrix_builds": "hessian.hessian_matrix",
    "feynman.contractions": "feynman.amplitude",
    "feynman.automorphism_calls": "feynman.automorphism_order",
    "jets.mul_calls": "jets.jet_mul",
    "invariants.full_entries": "invariants.invariant_full",
}

# probes whose value is not a time
PROBE_UNITS = {"feynman.graphs.order3": "count", "jets.first_shape_mb.v10d6": "MB"}


def _run_child(argv: list[str]) -> tuple[str, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return proc.stdout, wall


def fresh_setup_s(workload, spec_path: Path) -> float:
    """One-time cost of a fresh `wavetrace forward`: the wall time from
    starting the interpreter to the end of the first call, minus the time of
    a second, warm call on the same spec in the same process."""
    table_path = spec_path.with_name("fresh.table.json")
    start = time.time()
    stdout, _ = _run_child(
        [sys.executable, "-c", _FRESH_CLI, str(SRC), "forward", str(spec_path),
         *workload.forward_args(), "--out", str(table_path)]
    )
    cold_end, warm_s = map(float, stdout.split())
    return cold_end - start - warm_s


def run_round(cli, workload, items, paths, tracer=None) -> list[dict]:
    """One pass over the item list; with a tracer, per-item layer deltas."""
    rows = []
    for item, path in zip(items, paths):
        if tracer is not None:
            self_before, calls_before = tracer.snapshot()
        result = run_item(cli, workload, item, path)
        row = {"item": item, "result": result}
        if tracer is not None:
            self_after, calls_after = tracer.snapshot()
            row["self_s"] = {
                k: v - self_before.get(k, 0.0) for k, v in self_after.items()
            }
            row["calls"] = calls_after - calls_before
        rows.append(row)
    return rows


def tally(rows: list[dict]) -> tuple[bool, int, int]:
    failed = [r for r in rows if r["result"].failures]
    unexpected = [r for r in failed if not is_expected_failure(r["item"], r["result"])]
    for r in unexpected:
        print(f"unexpected failure on {r['item'].label}: {r['result'].failures}",
              file=sys.stderr)
    return not unexpected, len(rows), len(failed)


def _median(values) -> float:
    return statistics.median(list(values))


def timed_run(workload, items, paths, seconds: float):
    setup_samples = [fresh_setup_s(workload, paths[0]) for _ in range(SETUP_SAMPLES)]
    import wavetrace.cli as cli

    run_item(cli, workload, items[0], paths[0])  # lazy set-up, not timed
    rows = []
    t0 = time.perf_counter()
    while True:
        rows += run_round(cli, workload, items, paths)
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            break
    metrics = {
        "setup_s": (_median(setup_samples), "s"),
        "forward_s.p50": (_median(r["result"].forward_s for r in rows), "s"),
        "invert_s.p50": (_median(r["result"].invert_s for r in rows), "s"),
        "tables_per_s": (len(rows) / elapsed, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = {"setup_samples_s": setup_samples, "elapsed_s": elapsed}
    return rows, metrics, record


def traced_run(workload, items, paths, seconds: float):
    probes = {}
    for group in ("census", "first-shape", "warm"):
        stdout, _ = _run_child([sys.executable, str(HERE / "probes.py"), group])
        probes.update(json.loads(stdout.strip().splitlines()[-1]))

    import wavetrace.cli as cli
    from tracer import LAYERS, Tracer

    run_item(cli, workload, items[0], paths[0])  # lazy set-up, not traced
    tracer = Tracer()
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        untraced += run_round(cli, workload, items, paths)
        tracer.install()
        try:
            traced += run_round(cli, workload, items, paths, tracer)
        finally:
            tracer.uninstall()
        if time.perf_counter() - t0 >= seconds:
            break

    metrics = {
        f"{layer}.self_s": (_median(r["self_s"].get(layer, 0.0) for r in traced), "s")
        for layer in LAYERS
    }
    metrics["trace.overhead_s"] = (
        _median(r["result"].item_s for r in traced)
        - _median(r["result"].item_s for r in untraced),
        "s",
    )
    for metric, fn in COUNTED.items():
        metrics[metric] = (_median(r["calls"][fn] for r in traced), "count")
    for name, value in probes.items():
        metrics[name] = (value, PROBE_UNITS.get(name, "s"))
    record = {
        "traced_self_s": [r["self_s"] for r in traced],
        "traced_calls": [dict(r["calls"]) for r in traced],
    }
    return untraced + traced, metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wavetrace" / "cli.py").is_file():
        print(f"error: no wavetrace sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREADS)  # before numpy is first imported, here or in a child
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    items = make_items(workload, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        paths = write_specs(workdir, items)
        run = traced_run if args.trace else timed_run
        rows, metrics, record = run(workload, items, paths, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct, attempted, failed = tally(rows)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(
        workload=workload.name, seed=args.seed, trace=args.trace, result=result,
        items=[{"label": r["item"].label, "forward_s": r["result"].forward_s,
                "invert_s": r["result"].invert_s, "failures": r["result"].failures}
               for r in rows],
    )
    kind = "trace" if args.trace else "result"
    (OUT / f"{kind}-{workload.name}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
