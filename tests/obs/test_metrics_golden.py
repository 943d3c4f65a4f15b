"""Golden metrics exports: the series a run exports must not drift.

Four cells of tpc-b at scale 0.1, seed 1 — ``base`` and
``emesti+lvp+sle``, each on the snooping bus and on the directory
interconnect — are rerun with a :class:`MetricsRegistry` attached, and
both export formats must equal the committed captures byte for byte.
That pins every series name, label set, help string and value,
including the declared-but-never-incremented series that export as
``0.0``.

The captures in ``tests/obs/data/`` were written by this module's
``__main__`` block; rerun it (``PYTHONPATH=src python
tests/obs/test_metrics_golden.py``) only when a change to the exported
series is intended.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.common.config import InterconnectKind, scaled_config
from repro.obs.metrics import MetricsRegistry
from repro.system.system import System
from repro.system.techniques import configure_technique
from repro.workloads.registry import get_benchmark

DATA = pathlib.Path(__file__).resolve().parent / "data"

CELLS = [
    (technique, interconnect)
    for technique in ("base", "emesti+lvp+sle")
    for interconnect in (InterconnectKind.BUS, InterconnectKind.DIRECTORY)
]


def _stem(technique: str, interconnect: InterconnectKind) -> str:
    return f"metrics_tpcb_{technique.replace('+', '_')}_{interconnect.value}"


def export(technique: str, interconnect: InterconnectKind) -> tuple[str, str]:
    """The JSON and Prometheus exports of one tpc-b cell (scale 0.1, seed 1)."""
    config = configure_technique(scaled_config(), technique)
    config = dataclasses.replace(config, interconnect=interconnect)
    metrics = MetricsRegistry()
    System(config, get_benchmark("tpc-b", scale=0.1), seed=1, metrics=metrics).run()
    as_json = json.dumps(metrics.to_json(), indent=1, sort_keys=True) + "\n"
    return as_json, metrics.to_prometheus()


@pytest.mark.parametrize(
    "technique,interconnect", CELLS, ids=[_stem(t, i) for t, i in CELLS]
)
def test_export_matches_golden(technique, interconnect):
    as_json, as_prom = export(technique, interconnect)
    stem = _stem(technique, interconnect)
    assert as_json == (DATA / f"{stem}.json").read_text(), f"{stem}.json drifted"
    assert as_prom == (DATA / f"{stem}.prom").read_text(), f"{stem}.prom drifted"


if __name__ == "__main__":  # pragma: no cover - regenerates the captures
    DATA.mkdir(exist_ok=True)
    for technique, interconnect in CELLS:
        as_json, as_prom = export(technique, interconnect)
        stem = _stem(technique, interconnect)
        (DATA / f"{stem}.json").write_text(as_json)
        (DATA / f"{stem}.prom").write_text(as_prom)
        print(f"wrote {stem}.json and {stem}.prom")
