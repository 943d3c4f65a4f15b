"""Drift gate: a sample of the committed golden matrix must reproduce.

``results/matrix_scale1.0.json`` backs the paper-claim checks, which
read it without running anything.  These tests rerun a few of its
scale-1.0 cells with the current code and require every recorded
field to match exactly, so a change in simulated behaviour cannot
leave the committed results silently stale.  The sample covers the
``base``, ``lvp``, ``sle`` and ``emesti+lvp+sle`` techniques and keeps
to the cheapest cells that do (ocean, and tpc-b for the coherence-heavy
combined technique).  The file is only read.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments.runner import NONDETERMINISTIC_FIELDS, MatrixRunner, run_cell

GOLDEN = pathlib.Path(__file__).resolve().parents[2] / "results" / "matrix_scale1.0.json"

SAMPLE = (
    "ocean|base|1",
    "ocean|lvp|1",
    "ocean|sle|1",
    "tpc-b|emesti+lvp+sle|1",
)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", SAMPLE)
def test_golden_cell_reproduces_exactly(golden, key, tmp_path):
    benchmark, technique, seed = key.split("|")
    runner = MatrixRunner(scale=1.0, results_dir=tmp_path, verbose=False)
    summary = run_cell(runner.cell_config(technique), benchmark, 1.0, int(seed))
    recorded = {k: v for k, v in golden[key].items() if k not in NONDETERMINISTIC_FIELDS}
    assert recorded, key
    mismatched = {
        field: (value, summary.get(field, "<missing>"))
        for field, value in recorded.items()
        if summary.get(field, "<missing>") != value
    }
    assert not mismatched, f"{key}: golden vs now {mismatched}"
