import hashlib

import pytest

from cayleyac.explorer import build_ball
from cayleyac.geodesics import (HexGeodesicTable, PreconditionViolated,
                                UnreachableElement, hex_z2_geodesic,
                                square_geodesic, square_length,
                                standard_geodesic, witness_path_hex)
from cayleyac.lattice import is_simple_loop
from cayleyac.nil import NilGenSet, NilGroup


def test_square_examples(nil_xy):
    assert square_geodesic((3, 0, 0)) == ("x", "x", "x")
    w = square_geodesic((0, 0, 1))
    assert len(w) == 4 and nil_xy.evaluate(w) == (0, 0, 1)
    w25 = square_geodesic((0, 0, 25))
    assert len(w25) == 20 and nil_xy.evaluate(w25) == (0, 0, 25)


def test_square_matches_ball(nil_xy, nil_xy_ball12):
    for idx in range(len(nil_xy_ball12)):
        g = nil_xy_ball12.elements[idx]
        n = nil_xy_ball12.lengths[idx]
        assert square_length(g, 1) == n
        w = square_geodesic(g, 1)
        assert len(w) == n and nil_xy.evaluate(w) == g


def test_square_higher_degree():
    g2 = NilGroup(2, NilGenSet("square", include_z=False))
    ball = build_ball(g2, 9)
    for idx in range(len(ball)):
        g = ball.elements[idx]
        w = square_geodesic(g, 2)
        assert len(w) == ball.lengths[idx] and g2.evaluate(w) == g
    with pytest.raises(UnreachableElement):
        square_geodesic((0, 0, 1), 2)


def test_hex_matches_ball(nil_hex, nil_hex_ball12):
    table = HexGeodesicTable(1)
    for idx in range(len(nil_hex_ball12)):
        g = nil_hex_ball12.elements[idx]
        n = nil_hex_ball12.lengths[idx]
        assert table.length(g) == n
        w = table.geodesic(g)
        assert len(w) == n and nil_hex.evaluate(w) == g


def test_standard_geodesic_dispatch():
    assert standard_geodesic((2, 0, 0), "square") == ("x", "x")
    w = standard_geodesic((0, 0, 3), "hexagonal")
    assert len(w) == 6
    with pytest.raises(ValueError):
        standard_geodesic((0, 0, 0), "cubic")


def test_closed_square_geodesics_are_simple():
    # central elements admit a simple-closed-curve geodesic witness
    for t in range(1, 26):
        w = square_geodesic((0, 0, t))
        assert is_simple_loop(w)


def test_hex_z2_geodesic():
    assert hex_z2_geodesic((0, 0), (2, 2)) == ("t", "t")
    assert hex_z2_geodesic((0, 0), (2, -1)) == ("x", "x", "y-")
    w = hex_z2_geodesic((1, 1), (-2, 0))
    x, y = 1, 1
    steps = {"x": (1, 0), "x-": (-1, 0), "y": (0, 1), "y-": (0, -1),
             "t": (1, 1), "t-": (-1, -1)}
    for letter in w:
        dx, dy = steps[letter]
        x, y = x + dx, y + dy
    assert (x, y) == (-2, 0)


def test_witness_path_trivial_pair(nil_hex_ball12):
    table = HexGeodesicTable(1)
    g = (3, 1, 2)
    n = table.length(g)
    assert witness_path_hex(g, g, (), n, table=table) == ()


def test_witness_path_preconditions():
    table = HexGeodesicTable(1)
    with pytest.raises(PreconditionViolated):
        witness_path_hex((1, 0, 0), (3, 0, 0), ("x", "x"), 1, table=table)
    with pytest.raises(PreconditionViolated):
        witness_path_hex((1, 0, 0), (1, 0, 0), ("x", "x", "x"), 1, table=table)


def test_witness_path_small_branch_stays_inside(nil_hex, nil_hex_ball12):
    from cayleyac.convexity import compare_witness

    table = HexGeodesicTable(1)
    report = compare_witness(
        nil_hex_ball12, 8, 2,
        lambda i, j, q: witness_path_hex(
            nil_hex_ball12.elements[i], nil_hex_ball12.elements[j], q, 8, table=table
        ),
    )
    assert report["pairs"] > 0
    assert report["max_constructive"] <= 16


def test_witness_path_recipe_branch_evaluates(nil_hex, nil_hex_ball12):
    # forced through the backtrack/cross/correct recipe at a small threshold;
    # the connection and length accounting are exact even at toy scale
    from cayleyac.explorer import sphere_pairs
    from cayleyac.nil import nil_multiply

    table = HexGeodesicTable(1)
    words = []
    for i, j, q in sphere_pairs(nil_hex_ball12, 9, 2):
        g, gp = nil_hex_ball12.elements[i], nil_hex_ball12.elements[j]
        w = witness_path_hex(g, gp, q, 9, split=4, table=table)
        elem = g
        for letter in w:
            elem = nil_multiply(elem, nil_hex.generator_images[letter], 1)
        assert elem == gp
        words.append(w)
        if len(words) >= 300:
            break
    assert len(words) == 300
    # the words themselves, one per line in pair order, are fixed
    assert _digest(words) == \
        "8fd28240554028010e11e6b9e392f2526e5711d1310f02bd4d5ec4054edbb851"


def _digest(words):
    h = hashlib.sha256()
    for word in words:
        h.update((" ".join(word) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("e", [1, 2])
def test_hex_geodesic_words_pinned(e):
    """The table's geodesic for every element of the hexagonal B(8), in
    ball order, is fixed: the backtrack takes the first move that fits, so
    the order and the fiber increments of the moves decide the word
    ((a, b, t) -> (a, b, e*t) carries the e = 1 ball onto the e = 2 ball in
    key order, and the table counts the fiber in units of e, so both
    degrees give the same words)."""
    ball = build_ball(NilGroup(e, NilGenSet("hexagonal", include_z=False)), 8)
    table = HexGeodesicTable(e)
    assert _digest(table.geodesic(g) for g in ball.elements) == \
        "f40ed6ff444fb3c1f3e88ca74f9097775878943158f1352ca50ab54b83891637"
