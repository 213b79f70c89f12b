"""The identity suites fail a check whose routine returns NaN."""

from __future__ import annotations

import numpy as np
import pytest

from wavetrace import checks


def _nan_on_call(fn, call):
    count = 0

    def wrapped(*args, **kwargs):
        nonlocal count
        count += 1
        result = fn(*args, **kwargs)
        return result * np.nan if count == call else result

    return wrapped


@pytest.mark.parametrize(
    "routine, call, run, failing",
    [
        ("inverse_matrix", 2,
         lambda: checks.circulant_suite(np.random.default_rng(0), (1, 2), draws=2),
         "fourier-vs-chebyshev r=1"),
        ("sp_coefficient_diagrams", 2,
         lambda: checks.feynman_suite(np.random.default_rng(0), problems=3, n_max=2),
         "diagram-sum vs operator (3 problems)"),
        ("extract_partial", 2, checks.amplitude_suite, "mixed third phase derivatives"),
        ("full_expansion", 3, checks.decay_suite, "error halving rate J=0"),
    ],
    ids=["circulant", "feynman", "amplitude", "decay"],
)
def test_a_nan_from_one_call_fails_its_row(monkeypatch, routine, call, run, failing):
    monkeypatch.setattr(checks, routine, _nan_on_call(getattr(checks, routine), call))
    rows = run()
    assert [row["check"] for row in rows
            if not row["residual"] <= row["tolerance"]] == [failing]
