"""The benchmark in perfbench/ imports names from the package; an API change
that removes one of them should fail here as well as in a benchmark run."""

import importlib
import json
import random
import sys
from pathlib import Path

from cayleyac.cli import build_group, parse_group_spec
from cayleyac.convexity import ac_profile
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


def test_ball_central_traced_setup_equals_build_group(monkeypatch, tmp_path):
    """A traced ball-central run rebuilds the extension step by step and
    checks that it equals build_group's: fingerprint, truncation flag and
    quasi-constants.  Only traced runs make that check, so it runs here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        tracing = importlib.import_module("tracing")
        workload = workloads.BallCentral(0, str(tmp_path), {})
        checks = workloads.Checks()
        state = workload.setup(workloads.NoTrace())
        workload.trace_setup(state, tracing.Tracer(workload.name, "setup"), checks)
    finally:
        for name in ("workloads", "tracing"):
            sys.modules.pop(name, None)
    assert checks.attempted == 1 and checks.failures == []


def test_constants_triangle_outputs_match_reference(monkeypatch, tmp_path):
    """The constants-triangle workload's set-up and its units 0-2 at seed 0,
    checked by the workload itself against reference.json."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        reference = json.loads((PERFBENCH / "reference.json").read_text())
        workload = workloads.ConstantsTriangle(0, str(tmp_path),
                                               reference[workloads.ConstantsTriangle.name])
        checks = workloads.Checks()
        state = workload.setup(workloads.NoTrace())
        checks.against("set-up", workload.observe_setup(state), workload.reference["setup"])
        for index in range(3):
            quasi = workload.unit(state, workloads.NoTrace(), index)
            workload.check_unit(workload.observe(quasi), index, checks)
    finally:
        for name in ("workloads", "tracing"):
            sys.modules.pop(name, None)
    assert checks.attempted > 3 * 6 and checks.failures == []


def test_ac_table_replay_rows_match_ac_profile(monkeypatch, tmp_path):
    """A traced ac-table run replays ac_profile's work through
    Ball.adjacency, sphere_pairs and inside_path(cap=); on small hex and Sol
    balls written where the workload reads them, the replayed rows equal
    ac_profile's."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        workload = workloads.AcTable(0, str(tmp_path), {})
        replayed, profiled = {}, {}
        # the workload's hex and Sol groups, on smaller balls
        for (key, text, _radius), radius in zip(workload.GROUPS, (6, 5)):
            group = build_group(parse_group_spec(text))
            ball = build_ball(group, radius)
            ball.write(str(tmp_path / f"{key}.ball"))
            profiled[key] = ac_profile(ball, workload.M, radius).rows
            replayed[key] = workload._replay(workloads.NoTrace(), key, group, radius)
    finally:
        for name in ("workloads", "tracing"):
            sys.modules.pop(name, None)
    assert replayed == profiled
    # both tables have pairs whose inside distance only the search finds
    assert all(max(row.k_max for row in rows) > 2 for rows in profiled.values())
