"""The three benchmark workloads.

Every group is built from group-file text through ``cli.parse_group_spec``
and ``cli.build_group``, the path the ``cayleyac`` command takes.  Each
workload has a set-up (timed as ``setup_s``), a unit of work (timed as
``wall_s`` and ``cpu_s``, repeated for the run's duration) and output checks
against ``reference.json``, which was recorded at commit 3eee0fd with
``record.py``.  See README.md for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import hashlib
import os
from fractions import Fraction

from cayleyac import cli
from cayleyac.convexity import ProfileRow, ac_profile
from cayleyac.dehn import (_LAMBDA_GRID, d_reduce, d_reduce_with_charges,
                           measure_quasi_constants)
from cayleyac.explorer import Ball, build_ball, inside_path, sphere_pairs
from cayleyac.extensions import CentralExtension
from cayleyac.surface import SurfaceGroup

from tracing import NoTrace, per_op_us, rss_mb

# The workload seed that reference.json was recorded with.
DEFAULT_SEED = 0
# Span around work a traced unit repeats only to attribute time to layers;
# the runner leaves it out of the traced unit's wall time.
REPLAY_SPAN = "perfbench.replay"


class Checks:
    """Output checks, counted as operations: ``attempted`` checks were run
    and ``failures`` lists the ones that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)

    def against(self, label: str, observed: dict, reference: dict) -> None:
        """One check per leaf of the reference."""
        for key, want in reference.items():
            got = observed.get(key)
            if isinstance(want, dict) and isinstance(got, dict):
                self.against(f"{label} {key}", got, want)
            else:
                self.expect(f"{label} {key}", got == want, f"got {got!r}, want {want!r}")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    """What every workload gives the runner: ``setup``, ``groups`` (the
    group instances whose calls a traced unit counts), ``unit``,
    ``observe``, ``unit_layers``/``setup_layers`` (per-layer metrics from
    spans) and ``micro`` (seeded per-call timings).  The hooks defined here
    are the ones with a common default."""

    name = ""
    # group methods whose calls a traced unit counts
    COUNTED = ("multiply", "resolve")

    def __init__(self, seed: int, tmp: str, reference: dict):
        self.seed = seed
        self.tmp = tmp
        self.reference = reference
        self._first = None
        self.replayed: dict = {}

    def observe_setup(self, state) -> dict:
        return {}

    def trace_setup(self, state, tr, checks: Checks) -> None:
        pass

    def instrument(self, state, tr) -> None:
        for group in self.groups(state):
            for method in self.COUNTED:
                tr.count_calls(group, method)

    def release(self, state) -> None:
        for group in self.groups(state):
            for method in self.COUNTED:
                group.__dict__.pop(method, None)

    def setup_counts(self, state) -> dict:
        return {}

    def check_replay(self, out, checks: Checks) -> None:
        pass

    def check_unit(self, observed: dict, index: int, checks: Checks) -> None:
        """Compare with the reference, and every unit after the first with
        the first."""
        checks.against(self.name, observed, self.reference["unit"])
        if self._first is None:
            self._first = observed
        else:
            checks.expect(f"{self.name} unit {index} repeats unit 0", observed == self._first)

    def reference_unit(self, state) -> dict:
        """What record.py stores as this workload's unit reference."""
        return self.observe(self.unit(state, NoTrace(), 0))

    @staticmethod
    def explorer_layers(tr) -> dict:
        """Ball build and cache metrics, summed over a traced unit."""
        rss = [rec["rss_mb"] for rec in tr.spans
               if rec["name"] == "explorer.build_ball" and "rss_mb" in rec]
        return {
            "explorer.build_ball_s": tr.total("explorer.build_ball"),
            "explorer.ball_elements": tr.total("explorer.build_ball", "elements"),
            "explorer.build_ball.multiply_calls": tr.total("explorer.build_ball", "multiply"),
            "explorer.build_ball.resolve_calls": tr.total("explorer.build_ball", "resolve"),
            "explorer.build_ball.rss_mb": max(rss, default=0),
            "explorer.cache_write_s": tr.total("explorer.cache_write"),
            "explorer.cache_read_s": tr.total("explorer.cache_read"),
            "explorer.cache_bytes": tr.total("explorer.cache_write", "bytes"),
        }

    @staticmethod
    def cli_layers(tr) -> dict:
        return {
            "cli.parse_group_spec_s": tr.total("cli.parse_group_spec"),
            "cli.build_group_s": tr.total("cli.build_group"),
        }


def _build_spec(tr, text: str, **attrs):
    with tr.span("cli.parse_group_spec", **attrs):
        spec = cli.parse_group_spec(text)
    with tr.span("cli.build_group", **attrs):
        group = cli.build_group(spec)
    return spec, group


def _ball_round_trip(tr, group, radius: int, path: str, attrs: dict) -> Ball:
    """build_ball -> Ball.write -> Ball.read, as a cache miss then a hit."""
    with tr.span("explorer.build_ball", **attrs) as rec:
        ball = build_ball(group, radius)
        rec["elements"] = len(ball)
        if tr.enabled:
            rec["rss_mb"] = rss_mb()
    with tr.span("explorer.cache_write", **attrs) as rec:
        ball.write(path)
    if tr.enabled:
        rec["bytes"] = os.path.getsize(path)
    del ball
    with tr.span("explorer.cache_read", **attrs):
        return Ball.read(path, group)


# ---------------------------------------------------------------------------


class AcTable(Workload):
    """K(2,n) tables with ac-check semantics: a Nil group that is almost
    convex, Sol as the negative control, and a finite extension."""

    name = "ac-table"
    M = 2
    GROUPS = (
        # key, group file, ball radius
        ("hex", "kind=heisenberg_hex e=1 gens=plain", 10),
        ("sol", "kind=sol matrix=[[2,1],[1,1]]", 8),
        ("klein", "kind=finite_extension config=klein_bottle", 5),
    )
    MICRO = {"hex": ("nil.multiply_us", 20000), "sol": ("sol.multiply_us", 20000),
             "klein": ("finite_ext.multiply_us", 5000)}

    def setup(self, tr):
        state = []
        for key, text, radius in self.GROUPS:
            spec, group = _build_spec(tr, text, group=key)
            state.append((key, spec, group, radius))
        return state

    def groups(self, state) -> list:
        return [group for _key, _spec, group, _radius in state]

    def unit(self, state, tr, index: int):
        out = {}
        for key, spec, group, radius in state:
            base = os.path.join(self.tmp, key)
            ball = _ball_round_trip(tr, group, radius, base + ".ball", {"group": key})
            with tr.span("convexity.ac_profile", group=key):
                profile = ac_profile(ball, self.M, radius, name=spec.name)
            with tr.span("convexity.report", group=key):
                for suffix, text in ((".csv", profile.to_csv()), (".json", profile.to_json())):
                    with open(base + suffix, "w") as fh:
                        fh.write(text)
            del ball
            out[key] = profile
            if tr.enabled:
                # right after ac_profile, so that both see the same machine
                with tr.span(REPLAY_SPAN, group=key):
                    self.replayed[key] = self._replay(tr, key, group, radius)
        return out

    def observe(self, out) -> dict:
        observed = {}
        for key, profile in out.items():
            base = os.path.join(self.tmp, key)
            observed[key] = {
                "ball_sha256": sha256_file(base + ".ball"),
                "csv_sha256": sha256_file(base + ".csv"),
                "json_sha256": sha256_file(base + ".json"),
                "k_values": profile.k_values(),
                "bounded": profile.bounded_verdict(),
            }
        return observed

    def _replay(self, tr, key: str, group, radius: int) -> list[ProfileRow]:
        """ac_profile's work driven directly on a fresh copy of the ball:
        adjacency, then pair enumeration and inside-path search with one span
        per sphere."""
        ball = Ball.read(os.path.join(self.tmp, key + ".ball"), group)
        with tr.span("explorer.adjacency", group=key):
                ball.adjacency()
        rows = []
        for n in range(radius + 1):
            with tr.span("explorer.sphere_pairs", group=key, n=n) as rec:
                pairs = list(sphere_pairs(ball, n, self.M))
                rec["pairs"] = len(pairs)
            k_max, total, absent = -1, 0, 0
            with tr.span("explorer.inside_path", group=key, n=n) as rec:
                for i, j, _q in pairs:
                    path = inside_path(ball, i, j, n, cap=4 * n + 64)
                    if path is None:
                        absent += 1
                    else:
                        k_max = max(k_max, len(path))
                        total += len(path)
                rec["calls"] = len(pairs)
                rec["absent"] = absent
            rows.append(ProfileRow(n=n, pairs=len(pairs), k_max=k_max,
                                   total_len=total, absent_under_cap=absent))
        return rows

    def check_replay(self, out, checks: Checks) -> None:
        for key, profile in out.items():
            checks.expect(f"{self.name} {key} replayed rows equal ac_profile rows",
                          self.replayed.pop(key) == profile.rows)

    def unit_layers(self, tr) -> dict:
        metrics = self.explorer_layers(tr)
        for key, _text, _radius in self.GROUPS:
            acp = tr.total("convexity.ac_profile", group=key)
            adj = tr.total("explorer.adjacency", group=key)
            pairs = tr.total("explorer.sphere_pairs", group=key)
            search = tr.total("explorer.inside_path", group=key)
            metrics.update({
                f"explorer.sphere_pairs_s.{key}": pairs,
                f"explorer.pairs.{key}": tr.total("explorer.sphere_pairs", "pairs", group=key),
                f"explorer.sphere_pairs.multiply_calls.{key}":
                    tr.total("explorer.sphere_pairs", "multiply", group=key),
                f"explorer.inside_path_s.{key}": search,
                f"explorer.inside_path_calls.{key}":
                    tr.total("explorer.inside_path", "calls", group=key),
                f"explorer.inside_path_absent.{key}":
                    tr.total("explorer.inside_path", "absent", group=key),
                f"explorer.adjacency_s.{key}": adj,
                f"explorer.adjacency.multiply_calls.{key}":
                    tr.total("explorer.adjacency", "multiply", group=key),
                f"convexity.ac_profile_s.{key}": acp,
                f"convexity.self_s.{key}": acp - adj - pairs - search,
            })
        return metrics

    def setup_layers(self, tr) -> dict:
        return self.cli_layers(tr)

    def micro(self, state, out, rng) -> dict:
        metrics = {}
        for key, _spec, group, _radius in state:
            name, count = self.MICRO[key]
            elems = Ball.read(os.path.join(self.tmp, key + ".ball"), group).elements
            pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(count)]
            metrics[name] = per_op_us(group.multiply, pairs)
        return metrics


# ---------------------------------------------------------------------------


class BallCentral(Workload):
    """B(5) of the genus-2 central extension with charge [1]: ball building
    on an expensive word multiply, then the cache written and read back."""

    name = "ball-central"
    SPEC = ("kind=central_extension base_genus=2 charges=[1] constants_radius=5 "
            "constants_seed=7 budget=20000")
    # build_group's fixed sample count for the extension's quasi constants
    QUASI_SAMPLES = 200
    RADIUS = 5
    MICRO_PAIRS = 2000

    def setup(self, tr):
        return _build_spec(tr, self.SPEC)

    def observe_setup(self, state) -> dict:
        _spec, group = state
        return {"central_letters": sorted(group.central.names),
                "truncated": group.central.truncated,
                "relators": len(group.dehn.relators)}

    def trace_setup(self, state, tr, checks: Checks) -> None:
        """Repeat build_group's central-extension steps one call at a time,
        so that each module's share of the set-up shows."""
        spec, group = state
        params = spec.params
        with tr.span("surface.SurfaceGroup"):
            base = SurfaceGroup(params["base_genus"])
        with tr.span("explorer.build_ball"):
            base_ball = build_ball(base, params["constants_radius"])
        with tr.span("dehn.measure_quasi_constants") as rec:
            quasi = measure_quasi_constants(base, base.dehn, base_ball,
                                            params["constants_radius"],
                                            samples=self.QUASI_SAMPLES,
                                            seed=params["constants_seed"])
            rec["data_points"] = quasi.details["data_points"]
        with tr.span("extensions.CentralExtension"):
            ext = CentralExtension(base, {base.relator: tuple(params["charges"])},
                                   rank=len(params["charges"]), quasi=quasi,
                                   budget=params["budget"])
        same = (ext.fingerprint() == group.fingerprint()
                and ext.central.truncated == group.central.truncated
                and (quasi.lam, quasi.eps, quasi.k_of_m, quasi.delta)
                == (group.quasi.lam, group.quasi.eps, group.quasi.k_of_m, group.quasi.delta))
        checks.expect(f"{self.name} step-by-step set-up equals build_group's", same)

    def groups(self, state) -> list:
        return [state[1]]

    def unit(self, state, tr, index: int):
        _spec, group = state
        return _ball_round_trip(tr, group, self.RADIUS, os.path.join(self.tmp, "central.ball"), {})

    def observe(self, ball) -> dict:
        return {
            "spheres": ball.sphere_sizes(),
            "ball_sha256": sha256_file(os.path.join(self.tmp, "central.ball")),
            "reread_to_bytes_sha256": hashlib.sha256(ball.to_bytes()).hexdigest(),
        }

    def unit_layers(self, tr) -> dict:
        return self.explorer_layers(tr)

    def setup_layers(self, tr) -> dict:
        metrics = self.cli_layers(tr)
        metrics["extensions.init_s"] = tr.total("extensions.CentralExtension")
        metrics["dehn.measure_quasi_constants_s"] = tr.total("dehn.measure_quasi_constants")
        metrics["dehn.quasi_data_points"] = tr.total("dehn.measure_quasi_constants",
                                                     "data_points")
        return metrics

    def setup_counts(self, state) -> dict:
        _spec, group = state
        return {"extensions.central_letters": len(group.central.names),
                "extensions.central_truncated": int(group.central.truncated),
                "dehn.relators": len(group.dehn.relators)}

    def micro(self, state, ball, rng) -> dict:
        _spec, group = state
        base = group.base
        elems = ball.elements
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(self.MICRO_PAIRS)]
        base_pairs = [(u.base, v.base) for u, v in pairs]
        words = [u.base.word + v.base.word for u, v in pairs]
        metrics = {
            "extensions.multiply_us": per_op_us(group.multiply, pairs),
            "surface.multiply_us": per_op_us(base.multiply, base_pairs),
            "dehn.d_reduce_us": per_op_us(d_reduce, [(w, base.dehn) for w in words]),
            "dehn.d_reduce_with_charges_us": per_op_us(
                d_reduce_with_charges,
                [(w, group.dehn, group.charges, group.rank) for w in words]),
        }
        # resolve registers elements it has not seen, so it runs last
        products = [(base.multiply(u, v),) for u, v in base_pairs]
        metrics["surface.resolve_us"] = per_op_us(base.resolve, products)
        return metrics


# ---------------------------------------------------------------------------


class ConstantsTriangle(Workload):
    """Quasigeodesic, fellow-traveler and thin-triangle constants of the
    (2,3,7) triangle group, in exact algebraic-number arithmetic.

    The cost of one measurement depends on its seed by about 7% (the random
    thin triangles), so each unit of a run measures with the next seed of a
    sequence fixed by the workload seed, and the run's median averages over
    them."""

    name = "constants-triangle"
    SPEC = "kind=triangle p=2 q=3 r=7"
    BALL_RADIUS = 8
    RADIUS = 5
    SAMPLES = 20
    MICRO_OPS = 200
    # units of the default seed whose outputs reference.json holds
    RECORDED_UNITS = 12
    COUNTED = ("multiply", "invert")

    def setup(self, tr):
        spec, group = _build_spec(tr, self.SPEC)
        with tr.span("triangle.dehn_system") as rec:
            system = group.dehn_system()
            rec["relators"] = len(system.relators)
        with tr.span("explorer.build_ball"):
            ball = build_ball(group, self.BALL_RADIUS)
        return spec, group, system, ball

    def observe_setup(self, state) -> dict:
        _spec, _group, system, ball = state
        return {"relators": len(system.relators), "spheres": ball.sphere_sizes()}

    def groups(self, state) -> list:
        return [state[1]]

    def unit(self, state, tr, index: int):
        _spec, group, system, ball = state
        with tr.span("dehn.measure_quasi_constants") as rec:
            quasi = measure_quasi_constants(group, system, ball, self.RADIUS,
                                            samples=self.SAMPLES,
                                            seed=self.unit_seed(index))
            rec["data_points"] = quasi.details["data_points"]
        return quasi

    def observe(self, quasi) -> dict:
        return {"lam": str(quasi.lam), "eps": str(quasi.eps),
                "k_of_m": {str(m): k for m, k in sorted(quasi.k_of_m.items())},
                "delta": quasi.delta, "samples": quasi.samples,
                "data_points": quasi.details["data_points"]}

    def unit_seed(self, index: int) -> int:
        return self.seed * 1_000_003 + index

    def reference_unit(self, state) -> dict:
        return {str(i): self.observe(self.unit(state, NoTrace(), i))
                for i in range(self.RECORDED_UNITS)}

    def check_unit(self, observed: dict, index: int, checks: Checks) -> None:
        label = f"{self.name} measurement seed {self.unit_seed(index)}"
        recorded = self.reference["unit"]
        if self.seed == DEFAULT_SEED and str(index) in recorded:
            checks.against(label, observed, recorded[str(index)])
            return
        # invariants that hold for every seed
        ref = recorded["0"]
        bound = self.RADIUS + 1
        checks.expect(f"{label} samples", observed["samples"] == ref["samples"],
                      f"got {observed['samples']}")
        checks.expect(f"{label} lambda on the grid",
                      Fraction(observed["lam"]) in _LAMBDA_GRID, observed["lam"])
        checks.expect(f"{label} epsilon <= 12", Fraction(observed["eps"]) <= 12,
                      observed["eps"])
        checks.expect(f"{label} k(m) <= {bound}",
                      observed["k_of_m"].keys() == ref["k_of_m"].keys()
                      and max(observed["k_of_m"].values()) <= bound,
                      str(observed["k_of_m"]))
        checks.expect(f"{label} delta <= {bound}", observed["delta"] <= bound,
                      str(observed["delta"]))

    def unit_layers(self, tr) -> dict:
        return {
            "dehn.measure_quasi_constants_s": tr.total("dehn.measure_quasi_constants"),
            "dehn.quasi_data_points": tr.total("dehn.measure_quasi_constants", "data_points"),
            "triangle.multiply_calls": tr.total("dehn.measure_quasi_constants", "multiply"),
        }

    def setup_layers(self, tr) -> dict:
        metrics = self.cli_layers(tr)
        metrics["triangle.dehn_system_s"] = tr.total("triangle.dehn_system")
        return metrics

    def setup_counts(self, state) -> dict:
        return {"dehn.relators": len(state[2].relators)}

    def micro(self, state, quasi, rng) -> dict:
        group, ball = state[1], state[3]
        elems = ball.elements
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(self.MICRO_OPS)]
        return {
            "triangle.multiply_us": per_op_us(group.multiply, pairs, reps=3),
            "triangle.invert_us": per_op_us(group.invert, [(u,) for u, _v in pairs], reps=3),
        }


WORKLOADS = {cls.name: cls for cls in (AcTable, BallCentral, ConstantsTriangle)}


def _per_layer_units() -> dict:
    units = {}
    for key, _text, _radius in AcTable.GROUPS:
        for name, unit in (
            ("explorer.sphere_pairs_s", "s"), ("explorer.pairs", "count"),
            ("explorer.sphere_pairs.multiply_calls", "count"),
            ("explorer.inside_path_s", "s"), ("explorer.inside_path_calls", "count"),
            ("explorer.inside_path_absent", "count"),
            ("explorer.adjacency_s", "s"), ("explorer.adjacency.multiply_calls", "count"),
            ("convexity.ac_profile_s", "s"), ("convexity.self_s", "s"),
        ):
            units[f"{name}.{key}"] = unit
    units.update({
        "explorer.build_ball_s": "s", "explorer.ball_elements": "count",
        "explorer.build_ball.multiply_calls": "count",
        "explorer.build_ball.resolve_calls": "count", "explorer.build_ball.rss_mb": "MB",
        "explorer.cache_write_s": "s", "explorer.cache_read_s": "s",
        "explorer.cache_bytes": "bytes",
        "extensions.init_s": "s", "extensions.central_letters": "count",
        "extensions.central_truncated": "flag",
        "extensions.multiply_us": "us", "surface.multiply_us": "us",
        "surface.resolve_us": "us", "dehn.d_reduce_us": "us",
        "dehn.d_reduce_with_charges_us": "us",
        "dehn.measure_quasi_constants_s": "s", "dehn.quasi_data_points": "count",
        "dehn.relators": "count",
        "triangle.multiply_us": "us", "triangle.invert_us": "us",
        "triangle.multiply_calls": "count", "triangle.dehn_system_s": "s",
        "nil.multiply_us": "us", "sol.multiply_us": "us", "finite_ext.multiply_us": "us",
        "cli.parse_group_spec_s": "s", "cli.build_group_s": "s",
        "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
    })
    return units


# Every per-layer metric a traced run reports, with its unit.  A metric of a
# layer that the workload does not call reads 0.
PER_LAYER = _per_layer_units()
