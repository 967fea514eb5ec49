"""Committed benchmark records (`BENCH_*.json` at the repository root).

Each file records paired `bench/run.py` runs of a parent commit and a
change: per workload and bounded end-to-end metric, both sides' per-seed
values, their medians and quartiles, and how many pairs the change read
lower.  These tests check that every file is complete and consistent.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _check_series(where: str, series: dict, pairs: int) -> None:
    """Per-seed values, medians, quartiles and the lower count agree."""
    for side in SIDES:
        values = series[side]
        assert len(values) == pairs, f"{where}: {len(values)} {side} values for {pairs} pairs"
        assert math.isclose(series[f"{side}_median"], statistics.median(values)), (where, side)
        quartiles = statistics.quantiles(values, n=4)
        assert all(map(math.isclose, series[f"{side}_quartiles"], (quartiles[0], quartiles[2]))), (
            where,
            side,
        )
    lower = sum(c < p for p, c in zip(series["parent"], series["change"]))
    assert series["change_lower"] == lower, where


def test_there_is_a_bench_file():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_bench_file_is_complete_and_consistent(path):
    record = _load(path)
    assert re.fullmatch(r"[0-9a-f]{7,40}", record["parent"]["commit"])
    assert record["failed"] == 0
    pairs = len(record["pairs"])
    assert pairs >= 1
    for workload in BENCHMARK["workloads"]:
        metrics = record["workloads"][workload["name"]]
        for metric in BENCHMARK["end_to_end"]:
            series = metrics[metric["name"]]
            assert series["bound"] == metric["bound"], (workload["name"], metric["name"])
            _check_series(f"{workload['name']} {metric['name']}", series, pairs)
    for name, series in record.get("gadgets", {}).items():
        _check_series(name, series, pairs)
