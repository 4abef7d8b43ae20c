"""Lattice-path projections of Heisenberg words and the exact area oracles:
shoelace signed area on the square lattice, signed black-triangle count on
the triangular lattice from the shoelace area and the balance of diagonal
steps.  Everything is integer arithmetic."""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Sequence

from .words import Word

SQUARE_STEPS = {"x": (1, 0), "x-": (-1, 0), "y": (0, 1), "y-": (0, -1)}
HEX_STEPS = dict(SQUARE_STEPS, **{"t": (1, 1), "t-": (-1, -1)})


class NotClosed(ValueError):
    """The path does not return to its starting point."""


class NotLatticeWord(ValueError):
    """A letter with no projection onto the lattice in use."""


def path_vertices(word: Sequence[str], steps=None) -> list[tuple[int, int]]:
    """Vertices of the path the word labels, starting at the origin."""
    steps = steps or SQUARE_STEPS
    x, y = 0, 0
    verts = [(0, 0)]
    for letter in word:
        try:
            dx, dy = steps[letter]
        except KeyError:
            raise NotLatticeWord(letter) from None
        x += dx
        y += dy
        verts.append((x, y))
    return verts


def _twice_area(verts: list[tuple[int, int]]) -> int:
    """Shoelace sum of a closed path's vertices: twice its signed area."""
    if verts[-1] != (0, 0):
        raise NotClosed(f"endpoint {verts[-1]}")
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(verts, verts[1:]))


def signed_area(word: Sequence[str]) -> int:
    """Shoelace signed area of a closed square-lattice word, counterclockwise
    positive, in unit squares."""
    twice = _twice_area(path_vertices(word, SQUARE_STEPS))
    assert twice % 2 == 0
    return twice // 2


def black_triangle_count(word: Sequence[str]) -> int:
    """Signed number of black triangles enclosed by a closed word on the
    triangular lattice (steps x, y, t=x+y and inverses), each counted with
    the path's winding number around it.

    The unit cell [i,i+1]x[j,j+1] splits along its diagonal into a white
    triangle (boundary x y t-) and a black one (boundary t x- y-); a
    counterclockwise circuit around one black triangle gives +1.  Each
    triangle has area 1/2, so the winding-weighted counts satisfy
    B + W = 2A, twice the shoelace area.  The edge weights t = 1, x = y = 0
    sum to +1 around a black triangle and to -1 around a white one, so
    B - W = #t - #t-.  Hence B = (2A + #t - #t-) / 2.
    """
    doubled = (_twice_area(path_vertices(word, HEX_STEPS))
               + word.count("t") - word.count("t-"))
    assert doubled % 2 == 0
    return doubled // 2


def loop_enclosing_area(area: int) -> Word:
    """A closed square-lattice word with exactly the given signed area and
    length at most 2*ceil(2*sqrt(|area|)) + 2 (a staircase rectangle)."""
    if area == 0:
        return ()
    a = abs(area)
    h = max(1, isqrt(a))
    w = -(-a // h)  # ceil
    r = a - w * (h - 1)
    assert 1 <= r <= w
    word: list[str] = []
    word += ["x"] * w
    word += ["y"] * (h - 1)
    word += ["x-"] * (w - r)
    word += ["y"]
    word += ["x-"] * r
    word += ["y-"] * h
    if area < 0:
        from .words import Alphabet, word_inverse

        alph = Alphabet(["x", "y"])
        return word_inverse(word, alph)
    return tuple(word)


def is_simple_loop(word: Sequence[str], steps=None) -> bool:
    """True when the closed path visits no vertex twice (except the basepoint
    at start and end)."""
    verts = path_vertices(word, steps or SQUARE_STEPS)
    if verts[-1] != (0, 0):
        raise NotClosed(f"endpoint {verts[-1]}")
    interior = verts[1:-1]
    return len(set(interior)) == len(interior) and (0, 0) not in interior


# ---------------------------------------------------------------------------
# Brute-force extremal-shape oracles.


def max_rectangle_area(perimeter: int) -> int:
    """Largest area of a lattice rectangle with boundary length <= perimeter."""
    best = 0
    for a in range(0, perimeter // 2 + 1):
        for b in range(0, perimeter // 2 + 1 - a):
            best = max(best, a * b)
    return best


def best_rectangles(perimeter: int) -> list[tuple[int, int]]:
    best = max_rectangle_area(perimeter)
    out = []
    for a in range(0, perimeter // 2 + 1):
        for b in range(a, perimeter // 2 + 1 - a):
            if a * b == best:
                out.append((a, b))
    return out


def is_almost_square(a: int, b: int) -> bool:
    return abs(a - b) <= 1


def hexagon_side_tuples(perimeter: int) -> Iterable[tuple[int, ...]]:
    """All convex counterclockwise lattice hexagons with sides along the six
    axial directions (x, t, y, x-, t-, y-) and total boundary length equal to
    ``perimeter``.  Degenerate sides are allowed, so rectangles, rhombi and
    triangles are included."""
    for s1 in range(perimeter + 1):
        for s2 in range(perimeter + 1 - s1):
            for s3 in range(perimeter + 1 - s1 - s2):
                for s5 in range(0, min(s1 + s2, s2 + s3) + 1):
                    s4 = s1 + s2 - s5
                    s6 = s2 + s3 - s5
                    if s1 + s2 + s3 + s4 + s5 + s6 == perimeter:
                        yield (s1, s2, s3, s4, s5, s6)


def hexagon_boundary_word(sides: Sequence[int]) -> Word:
    s1, s2, s3, s4, s5, s6 = sides
    return tuple(
        ["x"] * s1 + ["t"] * s2 + ["y"] * s3 + ["x-"] * s4 + ["t-"] * s5 + ["y-"] * s6
    )


def hexagon_black_count(sides: Sequence[int]) -> int:
    """Black-triangle count of a convex axial hexagon."""
    return black_triangle_count(hexagon_boundary_word(sides))


def max_hexagon_black_count(perimeter: int) -> int:
    """Largest black-triangle count over all axial hexagons with boundary
    length <= perimeter."""
    best = 0
    for p in range(perimeter + 1):
        for sides in hexagon_side_tuples(p):
            best = max(best, hexagon_black_count(sides))
    return best


def is_almost_regular_hexagon(sides: Sequence[int]) -> bool:
    """No two sides differ in length by more than 2."""
    return max(sides) - min(sides) <= 2
