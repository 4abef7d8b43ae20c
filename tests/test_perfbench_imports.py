"""The benchmark in perfbench/ imports names from the package; an API change
that removes one of them should fail here as well as in a benchmark run."""

import importlib
import json
import sys
from pathlib import Path

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
