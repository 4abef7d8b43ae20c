"""A lattice in Sol: Z^2 extended by a hyperbolic integer matrix.  Serves
as the negative control for the convexity profiles."""

from __future__ import annotations

from .groups import GroupInterface, pack_ints, unpack_ints
from .words import Alphabet

SolElement = tuple[tuple[int, int], int]


class SolLattice(GroupInterface):
    """Elements (v, n) with (v, n)(v', n') = (v + M^n v', n + n')."""

    def __init__(self, matrix=((2, 1), (1, 1))):
        (a, b), (c, d) = matrix
        if a * d - b * c != 1:
            raise ValueError("monodromy must have determinant 1")
        if abs(a + d) <= 2:
            raise ValueError("monodromy must be hyperbolic (|trace| > 2)")
        self.matrix = ((a, b), (c, d))
        self._powers = {0: ((1, 0), (0, 1)), 1: self.matrix,
                        -1: ((d, -b), (-c, a))}
        self.alphabet = Alphabet(["x", "y", "s"])
        self._images = {
            "x": ((1, 0), 0),
            "y": ((0, 1), 0),
            "s": ((0, 0), 1),
        }
        for name in ("x", "y", "s"):
            self._images[name + "-"] = self.invert(self._images[name])

    def _power(self, n: int):
        if n not in self._powers:
            if n > 0:
                self._powers[n] = _mat_mul(self._power(n - 1), self.matrix)
            else:
                self._powers[n] = _mat_mul(self._power(n + 1), self._powers[-1])
        return self._powers[n]

    @property
    def identity(self) -> SolElement:
        return ((0, 0), 0)

    def multiply(self, u: SolElement, v: SolElement) -> SolElement:
        (vu, nu), (vv, nv) = u, v
        m = self._power(nu)
        moved = (m[0][0] * vv[0] + m[0][1] * vv[1], m[1][0] * vv[0] + m[1][1] * vv[1])
        return ((vu[0] + moved[0], vu[1] + moved[1]), nu + nv)

    def invert(self, u: SolElement) -> SolElement:
        v, n = u
        m = self._power(-n)
        return ((-(m[0][0] * v[0] + m[0][1] * v[1]), -(m[1][0] * v[0] + m[1][1] * v[1])), -n)

    @property
    def generator_images(self):
        return self._images

    def key(self, elem: SolElement) -> bytes:
        (a, b), n = elem
        return pack_ints((a, b, n))

    def decode_key(self, key: bytes) -> SolElement:
        a, b, n = unpack_ints(key, 3)
        return ((a, b), n)

    def fingerprint(self) -> str:
        return self.word_fingerprint(f"sol {self.matrix}")


def _mat_mul(m1, m2):
    return (
        (m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0], m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
        (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0], m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]),
    )
