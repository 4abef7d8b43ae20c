"""Integer Heisenberg lattices N^e in their square, hexagonal, plain and
saturated generating sets.

Elements are Mal'cev coordinate triples (a, b, t) standing for x^a y^b z^t.
The multiplication convention is fixed once and for all as

    (a, b, t) * (a', b', t') = (a + a', b + b', t + t' - e*b*a')

which realizes the commutator convention x^-1 y^-1 x y = z^e.  The defining
relations are re-checked at group construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .groups import GroupInterface, pack_ints

NilElement = tuple[int, int, int]

NIL_IDENTITY: NilElement = (0, 0, 0)


def nil_multiply(u: NilElement, v: NilElement, e: int) -> NilElement:
    a, b, t = u
    a2, b2, t2 = v
    return (a + a2, b + b2, t + t2 - e * b * a2)


def nil_invert(u: NilElement, e: int) -> NilElement:
    a, b, t = u
    return (-a, -b, -t - e * a * b)


def nil_commutator(u: NilElement, v: NilElement, e: int) -> NilElement:
    """[u, v] = u^-1 v^-1 u v."""
    p = nil_multiply(nil_invert(u, e), nil_invert(v, e), e)
    return nil_multiply(nil_multiply(p, u, e), v, e)


def nil_power(u: NilElement, n: int, e: int) -> NilElement:
    """(a, b, t)^n in closed form."""
    if n < 0:
        return nil_power(nil_invert(u, e), -n, e)
    a, b, t = u
    return (n * a, n * b, n * t - e * a * b * (n * (n - 1) // 2))


@dataclass(frozen=True)
class SaturationSpec:
    """Central offsets enlarging a Heisenberg generating set: x z^i, y z^j,
    t z^k and extra central powers z^l.  Offset 0 is never listed (the plain
    generators are always present); z_powers excludes 0."""

    x_offsets: tuple[int, ...] = ()
    y_offsets: tuple[int, ...] = ()
    t_offsets: tuple[int, ...] = ()
    z_powers: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("x_offsets", "y_offsets", "t_offsets"):
            cleaned = tuple(sorted(set(getattr(self, name)) - {0}))
            object.__setattr__(self, name, cleaned)
        if 0 in self.z_powers:
            raise ValueError("z_powers may not contain 0")
        object.__setattr__(self, "z_powers", tuple(sorted(set(self.z_powers) - {1})))

    @property
    def empty(self) -> bool:
        return not (self.x_offsets or self.y_offsets or self.t_offsets or self.z_powers)

    def max_offset(self) -> int:
        """Largest offset magnitude k entering the transfer bound ceil(16k/e)+e."""
        vals = self.x_offsets + self.y_offsets + self.t_offsets + self.z_powers
        return max((abs(v) for v in vals), default=0)


@dataclass(frozen=True)
class NilGenSet:
    kind: str = "square"  # "square" ({x,y}) or "hexagonal" ({x,y,t})
    include_z: bool = True
    saturation: SaturationSpec = field(default_factory=SaturationSpec)

    def __post_init__(self):
        if self.kind not in ("square", "hexagonal"):
            raise ValueError(f"unknown generating-set kind: {self.kind}")
        if self.saturation.t_offsets and self.kind != "hexagonal":
            raise ValueError("t offsets require the hexagonal kind")

    def describe(self) -> str:
        sat = self.saturation
        parts = [self.kind, "z" if self.include_z else "noz"]
        if not sat.empty:
            parts.append(
                f"sat:{list(sat.x_offsets)}/{list(sat.y_offsets)}"
                f"/{list(sat.t_offsets)}/{list(sat.z_powers)}"
            )
        return " ".join(parts)


def saturate(base: NilGenSet, spec: SaturationSpec) -> NilGenSet:
    """Enlarge ``base`` by the offsets in ``spec`` (idempotent, merge by union)."""
    old = base.saturation
    merged = SaturationSpec(
        x_offsets=old.x_offsets + spec.x_offsets,
        y_offsets=old.y_offsets + spec.y_offsets,
        t_offsets=old.t_offsets + spec.t_offsets,
        z_powers=old.z_powers + spec.z_powers,
    )
    return NilGenSet(kind=base.kind, include_z=base.include_z, saturation=merged)


def _offset_name(base: str, off: int) -> str:
    return f"{base}z{off}"


class NilGroup(GroupInterface):
    """The lattice N^e with a chosen generating set."""

    def __init__(self, e: int = 1, gens: NilGenSet | None = None):
        if e < 1:
            raise ValueError("extension degree e must be a positive integer")
        self.e = e
        self.gens = gens or NilGenSet()
        from .words import Alphabet

        names: list[str] = []
        images: dict[str, NilElement] = {}

        def add(name: str, img: NilElement):
            names.append(name)
            images[name] = img

        sat = self.gens.saturation
        add("x", (1, 0, 0))
        for i in sat.x_offsets:
            add(_offset_name("x", i), (1, 0, i))
        add("y", (0, 1, 0))
        for j in sat.y_offsets:
            add(_offset_name("y", j), (0, 1, j))
        if self.gens.kind == "hexagonal":
            add("t", (1, 1, 0))
            for k in sat.t_offsets:
                add(_offset_name("t", k), (1, 1, k))
        if self.gens.include_z:
            add("z", (0, 0, 1))
        for l in sat.z_powers:
            add(f"z{l}", (0, 0, l))

        self.alphabet = Alphabet(names)
        self._images = dict(images)
        for name in names:
            self._images[self.alphabet.inverse(name)] = nil_invert(images[name], e)
        self._check_presentation()

    def _check_presentation(self):
        """Verify [x,z]=[y,z]=1 and [x,y]=z^e against the multiplication."""
        e = self.e
        x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        assert nil_commutator(x, z, e) == NIL_IDENTITY
        assert nil_commutator(y, z, e) == NIL_IDENTITY
        assert nil_commutator(x, y, e) == (0, 0, e)
        if self.gens.kind == "hexagonal":
            assert self._images["t"] == nil_multiply(x, y, e)

    @property
    def identity(self) -> NilElement:
        return NIL_IDENTITY

    def multiply(self, u, v):
        return nil_multiply(u, v, self.e)

    def invert(self, u):
        return nil_invert(u, self.e)

    def power(self, u, n):
        return nil_power(u, n, self.e)

    @property
    def generator_images(self):
        return self._images

    def key(self, elem) -> bytes:
        return pack_ints(elem)

    def generator_weight(self, name: str) -> int:
        # pure central letters carry weight so witnesses minimize z usage
        return 1 if name.startswith("z") else 0

    def fingerprint(self) -> str:
        return self.word_fingerprint(f"heisenberg e={self.e} gens={self.gens.describe()}")


def central_power_length_bound(t: int, e: int) -> int:
    """Upper bound 4*ceil(sqrt(t/e)) + e for the {x,y,z}-length of z^t, t >= 0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if e < 1:
        raise ValueError("e must be positive")
    m = _ceil_sqrt_ratio(t, e)
    return 4 * m + e


def _ceil_sqrt_ratio(t: int, e: int) -> int:
    """ceil(sqrt(t/e)) in exact integer arithmetic."""
    if t == 0:
        return 0
    m = 0
    while e * m * m < t:
        m += 1
    return m


def fiber_interval(ball, g: tuple[int, int], n: int | None = None):
    """The set {t : (g, t) in the radius-n ball} as a closed interval.

    Returns None when the fiber over g is empty; raises AssertionError if
    the set has gaps (the interval property is verified, never assumed).
    """
    from .explorer import RadiusUnavailable

    if n is None:
        n = ball.radius
    if n > ball.radius:
        raise RadiusUnavailable(f"fiber query at {n} on a radius-{ball.radius} ball")
    a, b = g
    ts = sorted(
        elem[2]
        for idx, elem in enumerate(ball.elements)
        if elem[0] == a and elem[1] == b and ball.lengths[idx] <= n
    )
    if not ts:
        return None
    for lo, hi in zip(ts, ts[1:]):
        if hi - lo > 1:
            raise AssertionError(f"fiber over {g} has a gap between {lo} and {hi}")
    return (ts[0], ts[-1])
