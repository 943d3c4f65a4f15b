"""Confidence-interval machinery (Alameldeen-Wood methodology)."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.analysis.variability import ConfidenceInterval, mean_ci, speedup_ci, t_quantile


def test_single_sample_zero_width():
    ci = mean_ci([5.0])
    assert ci.mean == 5.0 and ci.half_width == 0.0


def test_identical_samples_zero_width():
    ci = mean_ci([3.0, 3.0, 3.0])
    assert ci.mean == 3.0
    assert ci.half_width == pytest.approx(0.0)


def test_known_interval():
    # mean 10, sd 1, n=4 -> sem 0.5, t(0.975, df=3) = 3.182
    ci = mean_ci([9.0, 10.0, 10.0, 11.0])
    assert ci.mean == pytest.approx(10.0)
    assert ci.half_width == pytest.approx(3.182 * (0.816 / 2), rel=0.01)


def test_empty_rejected():
    with pytest.raises(ValueError):
        mean_ci([])


def test_overlap():
    a = ConfidenceInterval(mean=1.0, half_width=0.1, n=3)
    b = ConfidenceInterval(mean=1.15, half_width=0.1, n=3)
    c = ConfidenceInterval(mean=1.5, half_width=0.1, n=3)
    assert a.overlaps(b) and b.overlaps(a)
    assert not a.overlaps(c)


def test_speedup_paired():
    base = [100.0, 110.0, 105.0]
    variant = [90.0, 100.0, 96.0]
    ci = speedup_ci(base, variant)
    assert 1.05 < ci.mean < 1.15
    assert ci.n == 3


def test_speedup_unpaired_fallback():
    ci = speedup_ci([100.0, 102.0], [50.0, 51.0, 49.0])
    assert ci.mean == pytest.approx(101.0 / 50.0, rel=0.02)


def test_str_render():
    assert "±" in str(ConfidenceInterval(mean=1.0, half_width=0.01, n=3))


@given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=2, max_size=30))
def test_mean_within_interval(samples):
    ci = mean_ci(samples)
    assert ci.low <= ci.mean <= ci.high
    assert ci.half_width >= 0


@given(
    st.lists(st.floats(min_value=10.0, max_value=1e5), min_size=2, max_size=10),
)
def test_paired_speedup_of_identical_runs_is_one(samples):
    ci = speedup_ci(samples, list(samples))
    assert ci.mean == pytest.approx(1.0)


def test_importing_the_cli_does_not_import_scipy():
    """The package computes its t quantiles itself and never loads scipy."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    code = "import sys, repro.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


T_TABLE = json.loads(
    (pathlib.Path(__file__).resolve().parent / "data" / "t_quantiles_scipy.json").read_text()
)["rows"]


@pytest.mark.parametrize("df,confidence,expected", T_TABLE)
def test_t_quantile_matches_scipy_table(df, confidence, expected):
    assert t_quantile(0.5 + confidence / 2, df) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("confidence", (0.8, 0.9, 0.95, 0.99, 0.999))
def test_mean_ci_and_speedup_ci_match_scipy_table(confidence):
    table = {(df, c): t for df, c, t in T_TABLE}
    for df in (1, 2, 5, 17, 40, 60, 120, 1000):
        samples = [float(i % 7) for i in range(df + 1)]
        n = len(samples)
        mean = sum(samples) / n
        sem = math.sqrt(sum((x - mean) ** 2 for x in samples) / (n - 1) / n)
        expected = table[(df, confidence)] * sem
        assert mean_ci(samples, confidence).half_width == pytest.approx(expected, rel=1e-9)
        # Paired speedups of runs 1 + x/10 faster than a unit baseline.
        variant = [1.0 / (1.0 + x / 10) for x in samples]
        ci = speedup_ci([1.0] * n, variant, confidence)
        ratio_sem = sem / 10
        assert ci.half_width == pytest.approx(table[(df, confidence)] * ratio_sem, rel=1e-9)
