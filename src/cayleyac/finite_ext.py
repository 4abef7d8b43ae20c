"""Finite extensions 1 -> N^e -> G -> Z_k -> 1 assembled from an
automorphism per quotient class, a cocycle table, and designated lift
generators; the induced wallpaper quotient G/<z>, whose product is the
extension's product projected to the plane, comes along for the planar
geodesy checks.

Two verified built-in configurations ship: the Klein-bottle family (even e;
the lift squares to x, conjugation sends y to (y z^{e/2})^{-1} and inverts
z -- the central offset on y is forced by rho^2 = x) and the S(2,2,2,2)
family (four half-turn lifts, inversion action, central cocycle z^m).
Whether the automorphisms literally permute the saturated fiber set is
checked and reported, not assumed; for the Klein family no finite saturated
set is fully closed (offsets escalate by e/2 per conjugation), so its flag
is False by construction and the radius decides how many offsets matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .groups import GroupInterface, pack_ints, unpack_ints
from .nil import (NilElement, NilGenSet, NilGroup, SaturationSpec,
                  nil_commutator, nil_invert, nil_multiply, nil_power)
from .words import Alphabet, Word


class CocycleInconsistent(ValueError):
    """The assembled multiplication failed associativity on the test grid."""


@dataclass(frozen=True)
class NilAutomorphism:
    """Automorphism of N^e given by generator images."""

    x_image: NilElement
    y_image: NilElement
    z_image: NilElement
    e: int

    def apply(self, elem: NilElement) -> NilElement:
        """x_image^a y_image^b z_image^t in closed form (z_image central)."""
        a, b, t = elem
        x1, x2, x3 = self.x_image
        y1, y2, y3 = self.y_image
        return (a * x1 + b * y1, a * x2 + b * y2,
                a * x3 + b * y3 + t * self.z_image[2]
                - self.e * (x1 * x2 * (a * (a - 1) // 2) + y1 * y2 * (b * (b - 1) // 2)
                            + a * b * x2 * y1))

    def check(self) -> None:
        e = self.e
        assert self.z_image[:2] == (0, 0), "the z image is not central"
        assert nil_commutator(self.x_image, self.z_image, e) == (0, 0, 0)
        assert nil_commutator(self.y_image, self.z_image, e) == (0, 0, 0)
        assert nil_commutator(self.x_image, self.y_image, e) == nil_power(self.z_image, e, e), \
            "generator images do not satisfy the presentation"


@dataclass
class FiniteExtensionConfig:
    name: str
    e: int
    quotient_order: int
    actions: dict[int, NilAutomorphism]  # q -> automorphism (q=0 implicit identity)
    cocycle: dict[tuple[int, int], NilElement]
    lifts: dict[str, tuple[NilElement, int]]  # letter -> (fiber part, quotient class)
    saturation: SaturationSpec = field(default_factory=SaturationSpec)
    gen_kind: str = "square"


FEElement = tuple[NilElement, int]


class FiniteNilExtension(GroupInterface):
    """Elements are (fiber element, quotient index) with
    (n, q) (n', q') = (n * phi_q(n') * c(q, q'), q + q')."""

    def __init__(self, config: FiniteExtensionConfig):
        self.config = config
        self.e = config.e
        self.Q = config.quotient_order
        ident = NilAutomorphism((1, 0, 0), (0, 1, 0), (0, 0, 1), self.e)
        self.actions = {0: ident}
        self.actions.update(config.actions)
        for q, phi in self.actions.items():
            phi.check()
        self.cocycle = {}
        for q1 in range(self.Q):
            for q2 in range(self.Q):
                self.cocycle[(q1, q2)] = config.cocycle.get((q1, q2), (0, 0, 0))
        self._check_cocycle()

        self.fiber = NilGroup(self.e, NilGenSet(kind=config.gen_kind, include_z=True,
                                                saturation=config.saturation))
        lift_names = list(config.lifts)
        names = [n for n in self.fiber.alphabet.names if not n.endswith("-")] + lift_names
        self.alphabet = Alphabet(names)
        self._images: dict[str, FEElement] = {}
        for name, img in self.fiber.generator_images.items():
            self._images[name] = (img, 0)
        for name, (fiber_part, q) in config.lifts.items():
            elem = (fiber_part, q % self.Q)
            self._images[name] = elem
            self._images[self.alphabet.inverse(name)] = self.invert(elem)
        self.permutes_fiber_set = self._check_permutation()

    def _check_cocycle(self):
        """Associativity requires phi_q phi_q' = conj_{c(q,q')} phi_{qq'} and
        the 2-cocycle identity; both are verified on generators and on a
        sample grid at construction."""
        e = self.e
        gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for q1 in range(self.Q):
            for q2 in range(self.Q):
                c = self.cocycle[(q1, q2)]
                q12 = (q1 + q2) % self.Q
                for g in gens:
                    lhs = self.actions[q1].apply(self.actions[q2].apply(g))
                    conj = nil_multiply(
                        nil_multiply(c, self.actions[q12].apply(g), e), nil_invert(c, e), e
                    )
                    if lhs != conj:
                        raise CocycleInconsistent(
                            f"action tower fails at q={q1},{q2} on {g}: {lhs} != {conj}"
                        )
                for q3 in range(self.Q):
                    # c(q1,q2) c(q1q2,q3) = phi_q1(c(q2,q3)) c(q1, q2q3)
                    lhs = nil_multiply(self.cocycle[(q1, q2)],
                                       self.cocycle[((q1 + q2) % self.Q, q3)], e)
                    rhs = nil_multiply(self.actions[q1].apply(self.cocycle[(q2, q3)]),
                                       self.cocycle[(q1, (q2 + q3) % self.Q)], e)
                    if lhs != rhs:
                        raise CocycleInconsistent(
                            f"cocycle identity fails at ({q1},{q2},{q3})"
                        )

    def _check_permutation(self) -> bool:
        """Do all lift conjugations permute the saturated fiber set?"""
        fiber_images = set(self.fiber.generator_images.values())
        for name in self.config.lifts:
            lift = self._images[name]
            for img in fiber_images:
                conj = self.multiply(self.multiply(lift, (img, 0)), self.invert(lift))
                if conj[1] != 0 or conj[0] not in fiber_images:
                    return False
        return True

    @property
    def identity(self) -> FEElement:
        return ((0, 0, 0), 0)

    def multiply(self, u: FEElement, v: FEElement) -> FEElement:
        n, q = u
        n2, q2 = v
        fiber = nil_multiply(n, self.actions[q].apply(n2), self.e)
        fiber = nil_multiply(fiber, self.cocycle[(q, q2)], self.e)
        return (fiber, (q + q2) % self.Q)

    def invert(self, u: FEElement) -> FEElement:
        n, q = u
        qbar = (-q) % self.Q
        x = nil_multiply(self.actions[qbar].apply(n), self.cocycle[(qbar, q)], self.e)
        return (nil_invert(x, self.e), qbar)

    @property
    def generator_images(self):
        return self._images

    def key(self, elem: FEElement) -> bytes:
        (a, b, t), q = elem
        return pack_ints((a, b, t, q))

    def decode_key(self, key: bytes) -> FEElement:
        a, b, t, q = unpack_ints(key, 4)
        return ((a, b, t), q)

    def generator_weight(self, name: str) -> int:
        return 1 if name.startswith("z") else 0

    def fingerprint(self) -> str:
        return self.word_fingerprint(
            f"finite_ext {self.config.name} e={self.e} Q={self.Q} "
            f"sat={self.config.saturation} lifts={sorted(self.config.lifts)}"
        )

    # -- structure maps ---------------------------------------------------------

    def fiber_group(self) -> NilGroup:
        return self.fiber

    def lift_letters(self) -> list[str]:
        out = []
        for name in self.config.lifts:
            out.append(name)
            inv = self.alphabet.inverse(name)
            if inv != name:
                out.append(inv)
        return out

    def quotient(self) -> "WallpaperQuotient":
        return WallpaperQuotient(self)

    def normalize_fiber_tail(self, word: Word, fiber_ball) -> Optional[Word]:
        """The shortest word of equal evaluation in the shape
        (fiber letters)* (lift letters)^{<= #Q}, scanning tails shortest
        first and reading the fiber part off the supplied fiber ball.

        Never longer than a geodesic of that shape; None when no tail leaves
        a fiber part inside the fiber ball.  The input word is a geodesic of
        the shape exactly when the result has the input's length.
        """
        g = self.evaluate(word)
        best = None
        for tail in self._tails():
            tail_elem = self.evaluate(tail)
            if tail_elem[1] != g[1]:
                continue
            fiber_part = self.multiply(g, self.invert(tail_elem))
            assert fiber_part[1] == 0
            try:
                flen = fiber_ball.length_of(fiber_part[0])
            except KeyError:
                continue
            total = flen + len(tail)
            if best is None or total < best[0]:
                best = (total, fiber_ball.geodesic_witness(fiber_part[0]) + tail)
        return best[1] if best else None

    def _tails(self):
        """Lift-letter words of length 0..#Q, shortest first."""
        letters = self.lift_letters()
        frontier: list[Word] = [()]
        yield ()
        for _ in range(self.Q):
            nxt = []
            for word in frontier:
                for letter in letters:
                    cand = word + (letter,)
                    nxt.append(cand)
                    yield cand
            frontier = nxt


def _lift(elem):
    (a, b), q = elem
    return ((a, b, 0), q)


def _project(elem):
    (a, b, _t), q = elem
    return ((a, b), q)


class WallpaperQuotient(GroupInterface):
    """G/<z>: elements ((a,b), q).  Generators are x, y and the lift
    letters.  The product and inverse are those of the extension on the
    lifts ((a,b,0), q), projected back: the centre <z> is normal, and the
    planar part of a product does not depend on the fiber coordinates."""

    def __init__(self, ext: FiniteNilExtension):
        self.ext = ext
        self.alphabet = Alphabet(["x", "y"] + list(ext.config.lifts))
        self._images = {name: _project(ext.generator_images[name])
                        for name in self.alphabet.names}

    @property
    def identity(self):
        return ((0, 0), 0)

    def multiply(self, u, v):
        return _project(self.ext.multiply(_lift(u), _lift(v)))

    def invert(self, u):
        return _project(self.ext.invert(_lift(u)))

    @property
    def generator_images(self):
        return self._images

    def key(self, elem) -> bytes:
        (a, b), q = elem
        return pack_ints((a, b, q))

    def decode_key(self, key: bytes):
        a, b, q = unpack_ints(key, 3)
        return ((a, b), q)

    def fingerprint(self) -> str:
        return self.word_fingerprint(f"wallpaper of {self.ext.fingerprint()}")


# ---------------------------------------------------------------------------
# Built-in configurations.


def klein_bottle_config(e: int = 2) -> FiniteExtensionConfig:
    """Nil lattice over the Klein bottle: rho^2 = x, rho inverts the
    fiber direction, and consistency forces even e with the twist
    y -> (y z^{e/2})^{-1}."""
    if e % 2:
        raise CocycleInconsistent("the Klein-bottle family needs even e")
    phi = NilAutomorphism(
        x_image=(1, 0, 0),
        y_image=(0, -1, -(e // 2)),
        z_image=(0, 0, -1),
        e=e,
    )
    sat = SaturationSpec(y_offsets=(-2, -1, 0, 1, 2))
    return FiniteExtensionConfig(
        name="klein_bottle",
        e=e,
        quotient_order=2,
        actions={1: phi},
        cocycle={(1, 1): (1, 0, 0)},
        lifts={"r": ((0, 0, 0), 1)},
        saturation=sat,
    )


def s2222_config(e: int = 1, m: int = 1) -> FiniteExtensionConfig:
    """Nil lattice over the sphere with four cone points of order two: four
    half-turn lifts a, b, c, d over the inversion action, lift squares z^m.
    The central powers z^2, z^3 keep the K(2,n) profile flat on the tested
    range (with z^2 alone it still creeps at radius 10)."""
    phi = NilAutomorphism(
        x_image=(-1, 0, 0),
        y_image=(0, -1, 0),
        z_image=(0, 0, 1),
        e=e,
    )
    sat = SaturationSpec(x_offsets=(-1, 0, 1), y_offsets=(-1, 0, 1), z_powers=(2, 3))
    return FiniteExtensionConfig(
        name="s2222",
        e=e,
        quotient_order=2,
        actions={1: phi},
        cocycle={(1, 1): (0, 0, m)},
        lifts={
            "a": ((0, 0, 0), 1),
            "b": ((1, 0, 0), 1),
            "c": ((1, 1, 0), 1),
            "d": ((0, 1, 0), 1),
        },
        saturation=sat,
    )


BUILTIN_CONFIGS = {
    "klein_bottle": klein_bottle_config,
    "s2222": s2222_config,
}
