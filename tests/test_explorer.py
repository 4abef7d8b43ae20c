import itertools

import pytest

from cayleyac.explorer import (Ball, BudgetExceeded, ElementAbsent,
                               RadiusUnavailable, build_ball, cached_ball,
                               inside_path, sphere_pairs)
from cayleyac.groups import FreeGroup, IntegerLattice
from cayleyac.sol import SolLattice


def test_lattice_ball_count():
    ball = build_ball(IntegerLattice(2), 3)
    assert len(ball) == 25  # 2n^2 + 2n + 1
    for n in range(1, 13):
        pass
    b = build_ball(IntegerLattice(2), 12)
    assert [len(b.sphere(n)) for n in range(13)] == [1] + [4 * n for n in range(1, 13)]


def test_free_group_sphere_formula():
    b = build_ball(FreeGroup(2), 7)
    assert b.sphere_sizes() == [1] + [4 * 3 ** (n - 1) for n in range(1, 8)]


def test_single_element_ball():
    b = build_ball(IntegerLattice(2), 0)
    assert len(b) == 1 and b.lengths == [0]


def test_nil_ball_vs_word_enumeration(nil_xy):
    # independent oracle: evaluate every word of length <= 4 and deduplicate
    ball = build_ball(nil_xy, 4)
    names = nil_xy.alphabet.names
    seen = {}
    for k in range(5):
        for word in itertools.product(names, repeat=k):
            elem = nil_xy.evaluate(word)
            seen.setdefault(elem, k)
    assert len(seen) == len(ball)
    for elem, first_len in seen.items():
        assert ball.length_of(elem) <= first_len


def test_ball_monotone_and_parent_chains(nil_xy_ball12):
    ball = nil_xy_ball12
    sizes = ball.sphere_sizes()
    assert all(s > 0 for s in sizes)
    assert len(ball) == sum(sizes)
    # parent chains reach the identity in exactly l(g) steps
    for idx in (0, 5, 50, len(ball) - 1):
        w = ball.geodesic_witness(idx)
        assert len(w) == ball.lengths[idx]
        assert nil_xy_ball12.group.evaluate(w) == ball.elements[idx]


def test_geodesic_witness_trivial(nil_xy_ball12):
    assert nil_xy_ball12.geodesic_witness((0, 0, 0)) == ()
    assert nil_xy_ball12.geodesic_witness((1, 0, 0)) == ("x",)
    with pytest.raises(ElementAbsent):
        nil_xy_ball12.geodesic_witness((99, 0, 0))


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded) as info:
        build_ball(IntegerLattice(2), 5, max_elements=10)
    assert info.value.partial is not None
    assert not info.value.partial.complete


def test_sphere_pairs_lattice():
    ball = build_ball(IntegerLattice(2), 3)
    pairs = list(sphere_pairs(ball, 1, 2))
    assert len(pairs) == 6  # all pairs among the 4 sphere-1 points
    assert len(list(sphere_pairs(ball, 0, 2))) == 0
    with pytest.raises(RadiusUnavailable):
        list(sphere_pairs(ball, 9, 2))


def test_sphere_pairs_free_group_share_parent():
    ball = build_ball(FreeGroup(2), 3)
    for i, j, q in sphere_pairs(ball, 2, 2):
        pi, _ = ball.parents[i]
        pj, _ = ball.parents[j]
        assert pi == pj  # tree: distance-2 sphere pairs are siblings


def _reference_sphere_pairs(ball, n, m):
    """Word breadth-first pair enumeration: every connector word of length
    1..m from every sphere element, in generator order."""
    group = ball.group
    images = [group.generator_images[name] for name in ball.gen_names]
    names = ball.gen_names
    seen = set()
    for i in ball.sphere(n):
        frontier = [(ball.elements[i], ())]
        for _ in range(m):
            nxt = []
            for elem, word in frontier:
                for gi, img in enumerate(images):
                    child = group.multiply(elem, img)
                    cword = word + (names[gi],)
                    nxt.append((child, cword))
                    j = ball.index.get(group.dedup_key(group.resolve(child)))
                    if j is None or j == i or ball.lengths[j] != n:
                        continue
                    a, b = (i, j) if i < j else (j, i)
                    if (a, b) in seen:
                        continue
                    seen.add((a, b))
                    yield (i, j, cword)
            frontier = nxt


@pytest.mark.parametrize("fixture, radius, m", [
    ("nil_hex", 6, 2), ("nil_hex", 5, 3), ("sol", 5, 2), ("klein", 4, 2),
    ("surface2", 3, 2),
])
def test_sphere_pairs_match_word_search(request, fixture, radius, m):
    group = SolLattice(((2, 1), (1, 1))) if fixture == "sol" else request.getfixturevalue(fixture)
    ball = build_ball(group, radius)
    for n in range(radius + 1):
        assert list(sphere_pairs(ball, n, m)) == list(_reference_sphere_pairs(ball, n, m))


def test_inside_path_lattice():
    ball = build_ball(IntegerLattice(2), 8)
    i = ball.find((8, 0))
    j = ball.find((7, 1))
    path = inside_path(ball, i, j, 8)
    assert path is not None and len(path) == 2
    assert inside_path(ball, i, i, 8) == ()
    # crossing the ball boundary is forbidden: antipodal sphere points
    k = ball.find((0, 8))
    path2 = inside_path(ball, i, k, 8)
    assert path2 is not None
    elem = (8, 0)
    for letter in path2:
        elem = ball.group.multiply(elem, ball.group.generator_images[letter])
        assert ball.lengths[ball.find(elem)] <= 8
    assert elem == (0, 8)


def test_inside_path_respects_cap():
    ball = build_ball(IntegerLattice(2), 6)
    i = ball.find((6, 0))
    j = ball.find((-6, 0))
    assert inside_path(ball, i, j, 6, cap=4) is None
    p = inside_path(ball, i, j, 6)
    assert p is not None and len(p) == 12


def test_cache_round_trip(tmp_path, nil_xy):
    ball = cached_ball(nil_xy, 6, cache_dir=str(tmp_path))
    again = cached_ball(nil_xy, 6, cache_dir=str(tmp_path))
    assert ball.to_bytes() == again.to_bytes()
    direct = build_ball(nil_xy, 6)
    assert direct.to_bytes() == ball.to_bytes()
    loaded = Ball.from_bytes(ball.to_bytes(), nil_xy)
    assert loaded.lengths == ball.lengths
    assert loaded.keys == ball.keys
    assert loaded.parents == ball.parents


def test_cache_round_trip_surface(tmp_path, surface2):
    ball = cached_ball(surface2, 3, cache_dir=str(tmp_path))
    again = cached_ball(surface2, 3, cache_dir=str(tmp_path))
    assert ball.to_bytes() == again.to_bytes()


def test_cache_rejects_damaged_files(nil_xy):
    data = build_ball(nil_xy, 3).to_bytes()
    for bad in (data[:10], data[:17], data[: len(data) // 2], data[:-1], data + b"\0",
                data[:4] + b"\0\x09" + data[6:]):
        with pytest.raises(ValueError):
            Ball.from_bytes(bad, nil_xy)
    with pytest.raises(ValueError):
        Ball.from_bytes(data, IntegerLattice(3))  # six generators, not four
