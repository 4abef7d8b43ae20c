import random

import pytest

from cayleyac.lattice import (NotClosed, black_triangle_count,
                              hexagon_black_count, hexagon_boundary_word,
                              hexagon_side_tuples, is_almost_regular_hexagon,
                              is_almost_square, is_simple_loop,
                              loop_enclosing_area, max_hexagon_black_count,
                              max_rectangle_area, best_rectangles, signed_area)
from cayleyac.nil import NilGroup, NilGenSet
from cayleyac.words import Alphabet, word_inverse

SQ = Alphabet(["x", "y"])
HX = Alphabet(["x", "y", "t"])


def test_signed_area_examples():
    assert signed_area(("x", "y", "x-", "y-")) == 1
    assert signed_area(()) == 0
    w = ("x",) * 5 + ("y",) * 5 + ("x-",) * 5 + ("y-",) * 5
    assert signed_area(w) == 25
    with pytest.raises(NotClosed):
        signed_area(("x",))


def test_black_triangle_examples():
    assert black_triangle_count(("x", "y", "t-")) == 0  # white circuit
    assert black_triangle_count(("t", "x-", "y-")) == 1  # black circuit
    assert black_triangle_count(()) == 0
    assert black_triangle_count(("x", "y", "x-", "y-")) == 1
    with pytest.raises(NotClosed):
        black_triangle_count(("t",))


def _random_closed_word(alphabet, rng, max_half):
    out = tuple(rng.choice(alphabet.names) for _ in range(rng.randrange(max_half + 1)))
    return out + word_inverse(out, alphabet)[::1][:]


def _random_closed_loop(alphabet, rng, max_half):
    """Random walk followed by a shuffled return, still closed."""
    walk = tuple(rng.choice(alphabet.names) for _ in range(rng.randrange(max_half + 1)))
    back = list(word_inverse(walk, alphabet))
    rng.shuffle(back)
    return walk + tuple(back)


def test_area_fiber_equivalence_square_sample():
    rng = random.Random(5)
    for e in (1, 2, 3):
        g = NilGroup(e, NilGenSet("square", include_z=False))
        for _ in range(500):
            w = _random_closed_loop(SQ, rng, 14)
            a, b, t = g.evaluate(w)
            assert (a, b) == (0, 0)
            assert t == e * signed_area(w)


def test_triangle_fiber_equivalence_hex_sample():
    rng = random.Random(6)
    for e in (1, 2):
        g = NilGroup(e, NilGenSet("hexagonal", include_z=False))
        for _ in range(500):
            w = _random_closed_loop(HX, rng, 14)
            a, b, t = g.evaluate(w)
            assert (a, b) == (0, 0)
            assert t == e * black_triangle_count(w)


def test_loop_enclosing_area_exact_and_short():
    for area in list(range(-30, 31)) + [97, 100, 137, 1000]:
        w = loop_enclosing_area(area)
        assert signed_area(w) == area
        # length at most 4*sqrt(|A|) + 4, squared to stay in integers
        if area:
            assert (len(w) - 4) ** 2 <= 16 * abs(area)


def test_loop_is_simple():
    for area in range(1, 40):
        assert is_simple_loop(loop_enclosing_area(area))


def test_max_rectangle_area():
    assert max_rectangle_area(4) == 1
    assert max_rectangle_area(8) == 4
    assert max_rectangle_area(10) == 6
    assert max_rectangle_area(20) == 25
    for p in range(4, 21, 2):
        assert all(is_almost_square(a, b) for a, b in best_rectangles(p))


def test_hexagon_black_count_matches_general_oracle():
    """The hexagon count equals the fiber coordinate of its boundary word
    in the hexagonal Nil lattice, divided by e: an oracle that does not use
    the closed form."""
    for e in (1, 2):
        g = NilGroup(e, NilGenSet("hexagonal", include_z=False))
        for perimeter in range(0, 13):
            for sides in hexagon_side_tuples(perimeter):
                a, b, t = g.evaluate(hexagon_boundary_word(sides))
                assert (a, b) == (0, 0)
                assert e * hexagon_black_count(sides) == t


def test_max_hexagon_values():
    assert max_hexagon_black_count(3) == 1
    assert max_hexagon_black_count(6) == 3   # unit regular hexagon
    assert max_hexagon_black_count(12) == 12  # side-2 regular hexagon
    # maximizers at regular perimeters are almost regular
    best = max_hexagon_black_count(12)
    winners = [s for s in hexagon_side_tuples(12) if hexagon_black_count(s) == best]
    assert winners and all(is_almost_regular_hexagon(s) for s in winners)
