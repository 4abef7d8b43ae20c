"""Group-definition files, command dispatch and report emission.

A group file is whitespace-separated key=value entries ('#' starts a
comment):

    kind=heisenberg e=1 gens=plain
    kind=heisenberg_hex e=1 saturation.x_offsets=[1]
    kind=sol matrix=[[2,1],[1,1]]
    kind=surface genus=2
    kind=triangle p=2 q=3 r=7
    kind=central_extension base_genus=2 charges=[1] constants_radius=5
    kind=finite_extension config=s2222 e=1

Words on the command line are space-separated letters with a trailing '-'
for inverses, e.g. "x y x- y-".
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

from .convexity import ConvexityProfile, ac_profile
from .explorer import build_ball, cached_ball
from .words import UnknownSymbol


class GroupSpecError(ValueError):
    def __init__(self, kind: str, message: str, fld: str | None = None):
        super().__init__(message)
        self.kind = kind
        self.field = fld

    def record(self) -> dict:
        return {"error": self.kind, "detail": str(self), "field": self.field}


def _err(kind, message, fld=None):
    return GroupSpecError(kind, message, fld)


@dataclass
class GroupSpecFile:
    kind: str
    params: dict = field(default_factory=dict)
    name: str = ""

    def serialize(self) -> str:
        items = sorted(self.params.items())
        body = " ".join([f"kind={self.kind}"] + [f"{k}={_render(v)}" for k, v in items])
        return body

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:16]


def _render(value) -> str:
    if isinstance(value, list):
        return "[" + ",".join(_render(v) for v in value) + "]"
    return str(value)


def parse_group_spec(text: str) -> GroupSpecFile:
    """Parse a group definition into its kind and fields; raises
    GroupSpecError for a malformed entry or a missing kind=.  Field values
    are validated by ``build_group``."""
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    entries = {}
    for tok in tokens:
        if "=" not in tok:
            raise _err("InvalidValue", f"not a key=value entry: {tok!r}", tok)
        key, raw = tok.split("=", 1)
        if raw.startswith("["):
            try:
                value = ast.literal_eval(raw)
            except (ValueError, SyntaxError):
                raise _err("InvalidValue", f"bad list for {key}: {raw!r}", key) from None
        else:
            try:
                value = int(raw)
            except ValueError:
                value = raw
        entries[key] = value
    if "kind" not in entries:
        raise _err("MissingField", "group file lacks kind=", "kind")
    kind = entries.pop("kind")
    name = entries.pop("name", kind)
    return GroupSpecFile(kind=kind, params=entries, name=str(name))


def _saturation_from(params) -> "SaturationSpec":
    from .nil import SaturationSpec

    def grab(key):
        value = params.get(f"saturation.{key}", [])
        if isinstance(value, int):
            value = [value]
        if not isinstance(value, list) or not all(isinstance(v, int) for v in value):
            raise _err("InvalidValue", f"saturation.{key} must be an integer list",
                       f"saturation.{key}")
        return tuple(value)

    try:
        return SaturationSpec(
            x_offsets=grab("x_offsets"),
            y_offsets=grab("y_offsets"),
            t_offsets=grab("t_offsets"),
            z_powers=grab("z_powers"),
        )
    except ValueError as exc:
        raise _err("InvalidValue", str(exc), "saturation") from None


def build_group(spec: GroupSpecFile):
    """Instantiate the group a spec file describes; raises GroupSpecError
    with the offending field named."""
    kind = spec.kind
    params = dict(spec.params)

    def need(key, typ=int, least=None):
        if key not in params:
            raise _err("MissingField", f"{kind} needs {key}=", key)
        return optional_int(key, None, least) if typ is int else params[key]

    def optional_int(key, default, least=None):
        value = params.get(key, default)
        if not isinstance(value, int) or (least is not None and value < least):
            rule = "an integer" if least is None else f"an integer >= {least}"
            raise _err("InvalidValue", f"{key} must be {rule}", key)
        return value

    if kind in ("heisenberg", "heisenberg_hex"):
        from .nil import NilGenSet, NilGroup

        e = need("e", least=1)
        gens = params.get("gens", "full")
        if gens not in ("full", "plain"):
            raise _err("InvalidValue", "gens must be full or plain", "gens")
        genset = NilGenSet(
            kind="hexagonal" if kind == "heisenberg_hex" else "square",
            include_z=(gens == "full"),
            saturation=_saturation_from(params),
        )
        return NilGroup(e, genset)

    if kind == "sol":
        from .sol import SolLattice

        matrix = need("matrix", list)
        try:
            return SolLattice(tuple(tuple(row) for row in matrix))
        except (ValueError, TypeError) as exc:
            raise _err("InvalidValue", str(exc), "matrix") from None

    if kind == "lattice":
        from .groups import IntegerLattice

        return IntegerLattice(need("rank", least=1))

    if kind == "free":
        from .groups import FreeGroup

        return FreeGroup(need("rank", least=1))

    if kind == "surface":
        from .surface import SurfaceGroup

        return SurfaceGroup(need("genus", least=2))

    if kind == "triangle":
        from .triangle import TriangleGroup

        try:
            return TriangleGroup(need("p"), need("q"), need("r"))
        except ValueError as exc:
            raise _err("InvalidValue", str(exc), "p,q,r") from None

    if kind == "central_extension":
        from .dehn import measure_quasi_constants
        from .extensions import CentralExtension
        from .surface import SurfaceGroup

        genus = optional_int("base_genus", 2, least=2)
        charges = need("charges", list)
        if (not isinstance(charges, list) or not charges
                or not all(isinstance(c, int) for c in charges)):
            raise _err("InvalidValue", "charges must be a nonempty integer list", "charges")
        radius = optional_int("constants_radius", 4, least=1)
        budget = optional_int("budget", 10 ** 6, least=0)
        seed = optional_int("constants_seed", 7)
        # every central letter is a multiple of the relator charge c, which
        # is itself a letter: the letters span Z c, of index |c| in Z^1 and
        # of infinite index (0) in Z^rank for rank >= 2
        index = abs(charges[0]) if len(charges) == 1 else 0
        if index != 1:
            size = f"index {index}" if index else "infinite index"
            raise _err("InvalidValue", f"the central letters generate a subgroup of "
                       f"{size} in Z^{len(charges)}, not all of it", "charges")
        base = SurfaceGroup(genus)
        ball = build_ball(base, radius)
        quasi = measure_quasi_constants(base, base.dehn, ball, radius,
                                        samples=200, seed=seed)
        return CentralExtension(base, {base.relator: tuple(charges)},
                                rank=len(charges), quasi=quasi, budget=budget)

    if kind == "finite_extension":
        from .finite_ext import BUILTIN_CONFIGS, FiniteNilExtension

        config = need("config", str)
        if config not in BUILTIN_CONFIGS:
            raise _err("UnknownKind", f"no finite-extension config {config!r}", "config")
        kwargs = {}
        if "e" in params:
            kwargs["e"] = params["e"]
        if "m" in params and config == "s2222":
            kwargs["m"] = params["m"]
        try:
            return FiniteNilExtension(BUILTIN_CONFIGS[config](**kwargs))
        except Exception as exc:
            raise _err("InvalidValue", str(exc), "config") from None

    raise _err("UnknownKind", f"unknown group kind {kind!r}", "kind")


def _load_spec(path: str) -> GroupSpecFile:
    with open(path) as fh:
        return parse_group_spec(fh.read())


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def run_command(argv) -> int:
    parser = argparse.ArgumentParser(prog="cayleyac")
    parser.add_argument("--cache-dir", default=os.environ.get("CAYLEYAC_CACHE_DIR"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_ball = sub.add_parser("ball", help="build (or load) a ball and report sphere sizes")
    p_ball.add_argument("--group", required=True)
    p_ball.add_argument("--radius", type=int, required=True)

    p_ac = sub.add_parser("ac-check", help="measure a K(m,n) profile")
    p_ac.add_argument("--group", required=True)
    p_ac.add_argument("--m", type=int, default=2)
    p_ac.add_argument("--radius", type=int, required=True)
    p_ac.add_argument("--out", required=True)

    p_dehn = sub.add_parser("dehn", help="reduce a word with the group's relator system")
    p_dehn.add_argument("--group", required=True)
    p_dehn.add_argument("--word", required=True)

    p_geo = sub.add_parser("geodesic", help="standard geodesic for a Heisenberg element")
    p_geo.add_argument("--group", required=True)
    p_geo.add_argument("--element", required=True, help="a,b,t")

    p_area = sub.add_parser("area", help="signed area of a closed lattice word")
    p_area.add_argument("--word", required=True)
    p_area.add_argument("--lattice", choices=("square", "hex"), default="square")

    p_rep = sub.add_parser("report", help="validate and summarize a profile file")
    p_rep.add_argument("--profile", required=True)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except GroupSpecError as exc:
        _emit(exc.record())
        return 1
    except (UnknownSymbol, ValueError, KeyError, AssertionError, OSError) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 1


def _dispatch(args) -> int:
    if args.command == "ball":
        spec = _load_spec(args.group)
        group = build_group(spec)
        ball = cached_ball(group, args.radius, cache_dir=args.cache_dir)
        _emit({
            "group": spec.name,
            "fingerprint": spec.fingerprint,
            "radius": ball.radius,
            "spheres": ball.sphere_sizes(),
            "total": len(ball),
        })
        return 0

    if args.command == "ac-check":
        if args.m < 1:
            raise _err("InvalidValue", "m must be >= 1", "m")
        spec = _load_spec(args.group)
        group = build_group(spec)
        ball = cached_ball(group, args.radius, cache_dir=args.cache_dir)
        profile = ac_profile(ball, args.m, args.radius, name=spec.name)
        text = profile.to_json() if args.out.endswith(".json") else profile.to_csv()
        with open(args.out, "w") as fh:
            fh.write(text)
        _emit({
            "group": spec.name,
            "m": args.m,
            "k_values": profile.k_values(),
            "bounded": profile.bounded_verdict(),
            "out": args.out,
        })
        return 0

    if args.command == "dehn":
        spec = _load_spec(args.group)
        group = build_group(spec)
        system = getattr(group, "dehn", None)
        if system is None:
            raise _err("InvalidValue", f"{spec.kind} has no relator system", "group")
        from .dehn import d_reduce

        word = group.alphabet.parse(args.word)
        reduced = d_reduce(word, system)
        _emit({"reduced": " ".join(reduced), "length": len(reduced)})
        return 0

    if args.command == "geodesic":
        spec = _load_spec(args.group)
        group = build_group(spec)
        from .geodesics import standard_geodesic
        from .nil import NilGroup

        if not isinstance(group, NilGroup):
            raise _err("InvalidValue", "geodesic needs a heisenberg group", "group")
        try:
            a, b, t = (int(part) for part in args.element.split(","))
        except ValueError:
            raise _err("InvalidValue", "element must be a,b,t", "element") from None
        word = standard_geodesic((a, b, t), kind=group.gens.kind, e=group.e)
        _emit({"word": " ".join(word), "length": len(word)})
        return 0

    if args.command == "area":
        from .lattice import black_triangle_count, signed_area
        from .words import Alphabet

        alphabet = Alphabet(["x", "y", "t"])
        word = alphabet.parse(args.word)
        value = signed_area(word) if args.lattice == "square" else black_triangle_count(word)
        _emit({"area": value, "lattice": args.lattice})
        return 0

    if args.command == "report":
        with open(args.profile) as fh:
            text = fh.read()
        profile = (ConvexityProfile.from_json(text) if args.profile.endswith(".json")
                   else ConvexityProfile.from_csv(text))
        _emit({
            "group": profile.group,
            "m": profile.m,
            "rows": len(profile.rows),
            "k_values": profile.k_values(),
            "bounded": profile.bounded_verdict(),
        })
        return 0

    raise _err("UnknownKind", f"unknown command {args.command}", "command")


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
