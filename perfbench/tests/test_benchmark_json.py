"""Every metric the benchmark prints is declared in ``BENCHMARK.json``
with its unit and direction, and every declared workload exists."""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import run  # noqa: E402
from checker import Tally  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def declared(section: str) -> dict[str, dict]:
    return {m["name"]: m for m in SPEC[section]}


def test_end_to_end_metrics_are_declared():
    spec = declared("end_to_end")
    assert {k: m["unit"] for k, m in spec.items()} == run.END_TO_END
    for metric in spec.values():
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    assert spec["setup_s"]["better"] == "lower"
    assert spec["setup_s"]["bound"] == max(m["bound"] for m in spec.values())


def test_per_layer_metrics_are_declared():
    spec = declared("per_layer")
    assert {k: m["unit"] for k, m in spec.items()} == run.PER_LAYER
    assert all(m["better"] in ("higher", "lower") for m in spec.values())


def test_workloads_are_declared():
    spec = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert spec == {name: w.why for name, w in WORKLOADS.items()}


def test_printed_result_names_exactly_the_declared_metrics():
    e2e = dict.fromkeys(run.END_TO_END, 1.0)
    layers = dict.fromkeys(run.PER_LAYER, 1.0)
    tally = Tally(attempted=3)
    untraced = run.Result("paper-mix", e2e, None, {}, [tally]).line()
    traced = run.Result("paper-mix", e2e, layers, {}, [tally]).line()
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == run.END_TO_END
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == run.PER_LAYER
    assert untraced["correct"] is True and untraced["attempted"] == 3
