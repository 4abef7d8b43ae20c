"""The benchmark in perfbench/ imports names from the package; an API change
that removes one of them should fail here as well as in a benchmark run."""

import importlib
import json
import random
import sys
from pathlib import Path

from cayleyac.explorer import build_ball

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        names = set(workloads.WORKLOADS)
    finally:
        # perfbench's top-level module names are generic; do not leave them
        for name in ("workloads", "tracing"):
            sys.modules.pop(name, None)
    with open(PERFBENCH.parent / "BENCHMARK.json") as fh:
        declared = {w["name"] for w in json.load(fh)["workloads"]}
    assert names == declared


def test_ball_central_micro_calls(monkeypatch, tmp_path):
    """A traced ball-central run times d_reduce and d_reduce_with_charges
    through positional calls; run its micro timings on B(2) of its group."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        workload = workloads.BallCentral(0, str(tmp_path), {})
        state = workload.setup(workloads.NoTrace())
        ball = build_ball(state[1], 2)
        metrics = workload.micro(state, ball, random.Random(0))
        per_layer = set(workloads.PER_LAYER)
    finally:
        for name in ("workloads", "tracing"):
            sys.modules.pop(name, None)
    assert set(metrics) == {"extensions.multiply_us", "surface.multiply_us",
                            "surface.resolve_us", "dehn.d_reduce_us",
                            "dehn.d_reduce_with_charges_us"}
    assert set(metrics) <= per_layer
    assert all(value > 0 for value in metrics.values())
