import collections
import hashlib
import itertools
import os
import struct

import pytest

from cayleyac.convexity import ac_profile, compare_witness
from cayleyac.explorer import (UNKNOWN, Ball, ElementAbsent, RadiusUnavailable,
                               build_ball, cached_ball, inside_distance,
                               inside_path, sphere_pair_counts, sphere_pairs)
from cayleyac.extensions import CentralExtension
from cayleyac.finite_ext import FiniteNilExtension, klein_bottle_config
from cayleyac.groups import FreeGroup, IntegerLattice, encode_word
from cayleyac.nil import NilGenSet, NilGroup
from cayleyac.sol import SolLattice
from cayleyac.surface import SurfaceGroup
from cayleyac.triangle import TriangleGroup


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
    with pytest.raises(RadiusUnavailable):
        build_ball(IntegerLattice(2), -1)


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
                    j = ball.index.get(child)
                    if j is None or j == i or ball.lengths[j] != n:
                        continue
                    a, b = (i, j) if i < j else (j, i)
                    if (a, b) in seen:
                        continue
                    seen.add((a, b))
                    yield (i, j, cword)
            frontier = nxt


@pytest.mark.parametrize("fixture, radius, m", [
    ("nil_hex", 6, 2), ("nil_hex", 5, 3), ("nil_hex", 4, 4), ("sol", 5, 2), ("sol", 4, 3),
    ("klein", 4, 2), ("surface2", 3, 2), ("surface2", 3, 3), ("central", 3, 2),
])
def test_sphere_pairs_match_word_search(request, fixture, radius, m):
    # m = 3 and 4 reach past the one-sphere halo at n = radius
    if fixture == "sol":
        group = SolLattice(((2, 1), (1, 1)))
    elif fixture == "central":
        group = _central_extension()
    else:
        group = request.getfixturevalue(fixture)
    ball = build_ball(group, radius)
    for n in range(radius + 1):
        assert list(sphere_pairs(ball, n, m)) == list(_reference_sphere_pairs(ball, n, m))


@pytest.mark.parametrize("make", [
    lambda: NilGroup(1, NilGenSet("hexagonal", include_z=False)), lambda: SurfaceGroup(2),
], ids=["nil_hex", "surface2"])
def test_graph_walks_multiply_nothing(make):
    """Once the Cayley graph is built, pair enumeration at m = 2 and the
    inside-path search read it and never multiply."""
    group = make()
    ball = build_ball(group, 4)
    ball.graph()
    calls = []
    multiply = group.multiply
    group.multiply = lambda u, v: calls.append(1) or multiply(u, v)
    for n in range(ball.radius + 1):
        pairs = list(sphere_pairs(ball, n, 2))
        for i, j, _q in pairs:
            assert inside_path(ball, i, j, n) is not None
    assert pairs and not calls


@pytest.mark.parametrize("make", [
    lambda: NilGroup(1, NilGenSet("hexagonal", include_z=False)),
    lambda: SolLattice(((2, 1), (1, 1))), lambda: SurfaceGroup(2), lambda: _central_extension(),
], ids=["nil_hex", "sol", "surface2", "central"])
@pytest.mark.parametrize("m", [2, 3])
def test_pair_lengths_agree_with_pairs_and_search(make, m):
    """The per-vertex walk covers the pairs of sphere_pairs at the lengths
    of their connectors: it counts by (i, d) exactly the pairs whose
    inside distance is their distance, lists the others, and multiplies
    nothing once the graph is built."""
    group = make()
    ball = build_ball(group, 3)
    ball.graph((m + 1) // 2 - 1)  # the depth the walks need at n = radius
    calls = []
    multiply = group.multiply
    group.multiply = lambda u, v: calls.append(1) or multiply(u, v)
    walks = [list(sphere_pair_counts(ball, n, m)) for n in range(ball.radius + 1)]
    assert not calls
    group.multiply = multiply
    for n, walk in enumerate(walks):
        assert [i for i, _counts, _undecided in walk] == list(ball.sphere(n))
        assert all(len(counts) == m for _i, counts, _undecided in walk)
        counted = collections.Counter()
        listed = []
        for i, j, q in sphere_pairs(ball, n, m):
            d = len(q)
            if len(inside_path(ball, i, j, n)) == d:
                counted[i, d] += 1
            else:
                listed.append((i, j, d))
        assert {(i, d): count for i, counts, _undecided in walk
                for d, count in enumerate(counts, start=1) if count} == counted
        assert sorted((i, j, d) for i, _counts, undecided in walk
                      for j, d in undecided) == sorted(listed)
    assert any(any(counts) for walk in walks for _i, counts, _undecided in walk)


def _reference_inside_distance(rows, stop, i, j):
    """Distance from i to j in the graph restricted to ids below stop, by a
    plain breadth-first search from i."""
    dist = {i: 0}
    level = [i]
    while j not in dist:
        nxt = []
        for u in level:
            for v in rows[u]:
                if 0 <= v < stop and v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        level = nxt
    return dist[j]


@pytest.mark.parametrize("make, radius", [
    (lambda: NilGroup(1, NilGenSet("hexagonal", include_z=False)), 4),
    (lambda: SolLattice(((2, 1), (1, 1))), 4),
    (lambda: FiniteNilExtension(klein_bottle_config()), 3),
    (lambda: SurfaceGroup(2), 3), (lambda: _central_extension(), 3),
], ids=["nil_hex", "sol", "klein", "surface2", "central"])
def test_inside_distance_is_inside_path_length(make, radius):
    """On every sphere pair at distance <= 4, the inside distance and the
    inside path's length equal a one-directional breadth-first search's,
    the path walks from i to j over the graph without leaving B(n), and
    both give None exactly where a small cap cuts the path off."""
    ball = build_ball(make(), radius)
    capped = 0
    for n in range(radius + 1):
        rows = ball.graph(n - radius)
        stop = ball.sphere(n).stop
        for i, j, _q in sphere_pairs(ball, n, 4):
            dist = _reference_inside_distance(rows, stop, i, j)
            path = inside_path(ball, i, j, n)
            assert inside_distance(ball, i, j, n) == len(path) == dist
            v = i
            for letter in path:
                v = rows[v][ball.gen_names.index(letter)]
                assert v < stop
            assert v == j
            short = inside_path(ball, i, j, n, cap=3)
            assert inside_distance(ball, i, j, n, cap=3) == (
                None if short is None else len(short))
            assert (short is None) == (dist > 3)
            capped += short is None
    assert capped and inside_distance(ball, 0, 0, 0) == 0


@pytest.mark.parametrize("make, radius", [
    (lambda: NilGroup(1, NilGenSet("hexagonal", include_z=False)), 5),
    (lambda: SolLattice(((2, 1), (1, 1))), 5), (lambda: SurfaceGroup(2), 4),
    (lambda: _central_extension(), 3),
], ids=["nil_hex", "sol", "surface2", "central"])
def test_graph_grows_sphere_by_sphere(make, radius):
    """Growing the graph one depth at a time gives the rows of a one-shot
    build, halo ids included.  After graph(r - radius) every row of B(r) is
    full, and the rows past it hold only edges back into B(r).  Consumers
    stop a walk only at v >= stop, and UNKNOWN (-1) is below every stop."""
    ball = build_ball(make(), radius)
    for depth in range(-radius, 2):
        # B(radius + 1) is the ball plus the halo sphere graph(0) made
        full = ball.sphere(radius + depth).stop if depth <= 0 else len(rows)
        rows = ball.graph(depth)
        assert all(UNKNOWN not in row for row in rows[:full])
        assert all(u < full for row in rows[full:] for u in row)
    assert rows == build_ball(make(), radius).graph(1)


def test_graph_seeds_parent_edges():
    """graph(0) takes the ball's parent edges, both ways, from the ball
    and multiplies only the other edges of B(10) and its halo."""
    group = NilGroup(1, NilGenSet("hexagonal", include_z=False))
    ball = build_ball(group, 10)
    calls = []
    multiply = group.multiply
    group.multiply = lambda u, v: calls.append(1) or multiply(u, v)
    rows = ball.graph()
    assert len(calls) == 22271
    for v, (p, gi) in enumerate(ball.parents[1:], start=1):
        assert rows[p][gi] == v and rows[v][ball.inverse_gens[gi]] == p


def _reference_pair_counts(ball, n, m):
    """sphere_pair_counts with one visited set per walk."""
    rows = ball.graph(n + (m + 1) // 2 - 1 - ball.radius)
    stop = ball.sphere(n).stop
    for i in ball.sphere(n):
        seen = {i, UNKNOWN}
        inside, outside, counts, undecided = [i], [], [], []
        for d in range(1, m + 1):
            next_inside, next_outside, count = [], [], 0
            for u in inside:
                for v in rows[u]:
                    if v not in seen:
                        seen.add(v)
                        if v < stop:
                            next_inside.append(v)
                            count += v > i
                        else:
                            next_outside.append(v)
            for u in outside:
                for v in rows[u]:
                    if v not in seen:
                        seen.add(v)
                        next_outside.append(v)
                        if i < v < stop:
                            undecided.append((v, d))
            counts.append(count)
            inside, outside = next_inside, next_outside
        yield i, counts, undecided


@pytest.mark.parametrize("make, radius", [
    (lambda: NilGroup(1, NilGenSet("hexagonal", include_z=False)), 4),
    (lambda: SolLattice(((2, 1), (1, 1))), 4),
    (lambda: FiniteNilExtension(klein_bottle_config()), 3), (lambda: SurfaceGroup(2), 3),
], ids=["nil_hex", "sol", "klein", "surface2"])
def test_pair_counts_match_set_walks(make, radius):
    """The walks on visit marks count and list what walks on visited sets
    do, at n = radius too, where an m = 3 walk reads UNKNOWN entries past
    the halo, and with inside searches between the walks, as in a
    profile."""
    ball = build_ball(make(), radius)
    for n in range(radius + 1):
        walks = []
        for i, counts, undecided in sphere_pair_counts(ball, n, 3):
            walks.append((i, counts, undecided))
            for j, _d in undecided:
                inside_distance(ball, i, j, n)
        assert walks == list(_reference_pair_counts(ball, n, 3))
    assert any(UNKNOWN in row for row in ball.graph(1))


@pytest.mark.parametrize("make, radius, pairs, digest", [
    (lambda: NilGroup(1, NilGenSet("hexagonal", include_z=False)), 7, 23703,
     "89d86fbbd79ff0dbc770bbddfed156c211290338ebec23d13cf4943495ecc39e"),
    (lambda: SolLattice(((2, 1), (1, 1))), 6, 12367,
     "f9b4e31deddfc89f585792dfe82d6edb943ae695ad2351a6c7083c5f953c04aa"),
    (lambda: FiniteNilExtension(klein_bottle_config()), 4, 35474,
     "0b6ebf34b55ef947ad7973dfa4933f043e900056be19a7f82ab145d4a217b0b0"),
    (lambda: SurfaceGroup(2), 3, 1380,
     "6e0978c401b33e3cd9b07f3aafdaff6c9a5ee149adf6418cfbf2edd8207346d2"),
], ids=["nil_hex", "sol", "klein", "surface2"])
def test_inside_path_words_pinned(make, radius, pairs, digest):
    """The words of inside_path, uncapped and at cap 3, on every m = 3
    sphere pair of the ball hash to a recorded digest."""
    ball = build_ball(make(), radius)
    h = hashlib.sha256()
    count = 0
    for n in range(radius + 1):
        for i, j, _q in sphere_pairs(ball, n, 3):
            words = (inside_path(ball, i, j, n), inside_path(ball, i, j, n, cap=3))
            h.update(repr((i, j) + words).encode())
            count += 1
    assert (count, h.hexdigest()) == (pairs, digest)


def test_witness_check_multiplies_only_the_rows_it_reads():
    """compare_witness at n <= 3 on the central B(5) multiplies at most the
    products of B(3), not the rows of the whole ball and its halo."""
    group = _central_extension()
    ball = build_ball(group, 5)
    calls = []
    multiply = group.multiply
    group.multiply = lambda u, v: calls.append(1) or multiply(u, v)
    for n in (1, 2, 3):
        report = compare_witness(ball, n, 2, lambda i, j, q: inside_path(ball, i, j, n))
        assert report["pairs"] > 0
    assert ball.sphere(3).stop == 607
    assert len(calls) <= 607 * len(ball.gen_names)


@pytest.mark.parametrize("make, radius, digest", [
    (lambda: SurfaceGroup(2), 5,
     "024673e8ab918fdc5a623b027d2c03e9bde926f7978f670920bfe87a41f6f34f"),
    (lambda: _central_extension(), 4,
     "03da5ea5d00caaaf0d85832c31ab6ffb9902f0194edcbdab6166618d6e5e98c7"),
], ids=["surface2", "central"])
def test_surface_history_after_profile(make, radius, digest):
    """A profile on a small ball resolves products into the group's memo;
    a bigger ball built afterwards on the same instance must still be the
    fresh one, byte for byte."""
    group = make()
    ac_profile(build_ball(group, 3), 2)
    data = build_ball(group, radius).to_bytes()
    assert data == build_ball(make(), radius).to_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("make, radius, size", [
    (lambda: NilGroup(1, NilGenSet("hexagonal", include_z=False)), 6, 1309),
    (lambda: SurfaceGroup(2), 3, 457),
], ids=["nil_hex", "surface2"])
def test_build_keys_each_element_once(make, radius, size):
    """build_ball keys only the new elements, once each, not the duplicate
    products that reach them."""
    group = make()
    calls = []
    key = group.key
    group.key = lambda elem: calls.append(1) or key(elem)
    ball = build_ball(group, radius)
    assert len(ball) == size and len(calls) == size


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


@pytest.mark.parametrize("name, radius", [("nil_xy", 6), ("genus2_ext", 4)],
                         ids=["nil", "central"])
def test_cache_round_trip(tmp_path, request, name, radius):
    """A ball read back has the built ball's records, an index that maps
    every built element to its record, and elements that hash as the built
    ones, whose hashes were kept from the build."""
    group = request.getfixturevalue(name)
    ball = cached_ball(group, radius, cache_dir=str(tmp_path))
    again = cached_ball(group, radius, cache_dir=str(tmp_path))
    assert ball.to_bytes() == again.to_bytes()
    direct = build_ball(group, radius)
    assert direct.to_bytes() == ball.to_bytes()
    loaded = Ball.from_bytes(ball.to_bytes(), group)
    assert loaded.keys == ball.keys
    assert loaded.lengths == ball.lengths
    assert loaded.parents == ball.parents
    assert loaded.weights == ball.weights
    assert loaded.sphere_offsets == ball.sphere_offsets
    assert loaded.elements == ball.elements
    assert [loaded.locate(elem) for elem in ball.elements] == list(range(len(ball)))
    assert [hash(elem) for elem in loaded.elements] == [hash(elem) for elem in ball.elements]


def test_cache_round_trip_surface(tmp_path, surface2):
    ball = cached_ball(surface2, 3, cache_dir=str(tmp_path))
    again = cached_ball(surface2, 3, cache_dir=str(tmp_path))
    assert ball.to_bytes() == again.to_bytes()


def _refield(data, index, **changes):
    """Ball bytes with fields of record ``index`` changed: records follow
    the 17-byte header, each a 2-byte key length, the key and the 16 bytes
    of its length, parent, generator and weight."""
    pos = 17
    for _ in range(index + 1):
        pos += 2 + int.from_bytes(data[pos : pos + 2], "big") + 16
    record = struct.Struct(">IiiI")
    fields = dict(zip(("length", "parent", "gen", "weight"),
                      record.unpack(data[pos - 16 : pos])))
    fields.update(changes)
    return data[: pos - 16] + record.pack(*fields.values()) + data[pos:]


def test_cache_rejects_damaged_files(nil_xy, surface2):
    ball = build_ball(nil_xy, 3)
    data = ball.to_bytes()
    last, sphere2 = len(ball) - 1, ball.sphere(2).start
    # the next cases: format version 9, and a header flag byte of 0; then
    # fields no ball has: an identity record of length 1 or with parent
    # (0, 0), a last length past the radius, a parent or generator index out
    # of range, parent -1 past record 0, a sphere-2 parent in sphere 0, and
    # a length that decreases, with a parent one sphere closer
    for bad in (data[:10], data[:17], data[: len(data) // 2], data[:-1], data + b"\0",
                data[:4] + b"\0\x09" + data[6:], data[:16] + b"\0" + data[17:],
                _refield(data, 0, length=1), _refield(data, 0, parent=0, gen=0),
                _refield(data, last, length=4), _refield(data, 1, parent=len(ball)),
                _refield(data, 1, gen=4), _refield(data, sphere2, parent=-1),
                _refield(data, sphere2, parent=0), _refield(data, sphere2 + 1, length=1, parent=0)):
        with pytest.raises(ValueError):
            Ball.from_bytes(bad, nil_xy)
    with pytest.raises(ValueError):
        Ball.from_bytes(data, IntegerLattice(3))  # six generators, not four
    # a word key with a letter index outside the alphabet: the 17-byte
    # header, the identity's record (empty key), then the first key byte
    data = bytearray(build_ball(surface2, 2).to_bytes())
    data[17 + 18 + 2] = 0xFF
    with pytest.raises(ValueError):
        Ball.from_bytes(bytes(data), surface2)


def test_damaged_cache_registers_no_word():
    """A truncated, over-long or trailing-byte surface cache read into a
    fresh group is refused, and a ball built on that group afterwards is
    the fresh one, byte for byte."""
    data = build_ball(SurfaceGroup(2), 3).to_bytes()
    count = int.from_bytes(data[10:14], "big")
    fewer = data[:10] + (count - 1).to_bytes(4, "big") + data[14:]
    for bad in (data[:-1], data[: len(data) // 2], fewer, data + b"\0"):
        group = SurfaceGroup(2)
        with pytest.raises(ValueError):
            Ball.from_bytes(bad, group)
        assert build_ball(group, 3).to_bytes() == data


def _rekey(data, index, rekey):
    """Ball bytes with the key of record ``index`` replaced by rekey(key):
    records follow the 17-byte header, each a 2-byte key length, the key
    and 16 bytes."""
    pos = 17
    for _ in range(index):
        pos += 2 + int.from_bytes(data[pos : pos + 2], "big") + 16
    end = pos + 2 + int.from_bytes(data[pos : pos + 2], "big")
    key = rekey(data[pos + 2 : end])
    return data[:pos] + len(key).to_bytes(2, "big") + key + data[end:]


def test_cache_with_a_bad_last_key_registers_no_word():
    """A surface cache whose last key is not a normal form (not even
    D-reduced) is refused, and a ball built on that group afterwards is the
    fresh one, byte for byte."""
    data = build_ball(SurfaceGroup(2), 2).to_bytes()
    count = int.from_bytes(data[10:14], "big")
    group = SurfaceGroup(2)
    bad = _rekey(data, count - 1, lambda key: encode_word(("a1", "a1-"), group.alphabet))
    with pytest.raises(ValueError):
        Ball.from_bytes(bad, group)
    assert build_ball(group, 2).to_bytes() == data


def test_build_after_resolving_a_word_is_the_fresh_build():
    """Keys depend only on the element: resolving b2 a2 b2- a2- (the
    element a1 b1 a1- b1-) first leaves B(4) the fresh build, byte for
    byte."""
    group = SurfaceGroup(2)
    group.resolve(group.evaluate(("b2", "a2", "b2-", "a2-")))
    assert hashlib.sha256(build_ball(group, 4).to_bytes()).hexdigest() == (
        "0963cb236a5054797c25f2562564f7adfe2d5d72a6b100601b5385fd82f1d658")


def test_central_cache_read_keeps_the_key_contract():
    """A fresh central B(4) read into a group whose base first resolved
    b2 a2 b2- a2- holds, for every record, the key of its element."""
    written = build_ball(_central_extension(), 4)
    group = _central_extension()
    group.base.resolve(group.base.evaluate(("b2", "a2", "b2-", "a2-")))
    read = Ball.from_bytes(written.to_bytes(), group)
    assert all(read.keys[i] == group.key(elem) for i, elem in enumerate(read.elements))


def test_central_cache_read_into_a_group_with_history():
    """A central B(4) read into a group whose base first registered
    b2 a2 b2- a2-, an element the writing group holds as a1 b1 a1- b1-:
    each record reads as the element its parent edges spell, with the
    charge moved onto the reading group's word, and each element of the
    written ball locates at its own index."""
    written = build_ball(_central_extension(), 4)
    group = _central_extension()
    group.base.resolve(group.base.evaluate(("b2", "a2", "b2-", "a2-")))
    read = Ball.from_bytes(written.to_bytes(), group)
    for i, elem in enumerate(read.elements):
        assert elem == group.evaluate(read.geodesic_witness(i)), i
    for i in range(len(written)):
        assert read.locate(group.evaluate(written.geodesic_witness(i))) == i


@pytest.mark.parametrize("make, rekey", [
    (lambda: TriangleGroup(2, 3, 7), lambda key: key.rsplit(b";", 1)[0]),
    (lambda: TriangleGroup(2, 3, 7), lambda key: key + b",0/1"),
    (lambda: IntegerLattice(2), lambda key: key[:8]),
    (lambda: NilGroup(1, NilGenSet("square")), lambda key: key + b"\0"),
    (lambda: SolLattice(((2, 1), (1, 1))), lambda key: key + b"\0"),
    (lambda: FiniteNilExtension(klein_bottle_config()), lambda key: key + b"\0"),
    (lambda: FiniteNilExtension(klein_bottle_config()).quotient(), lambda key: key + b"\0"),
    (lambda: _central_extension(), lambda key: key[4:]),
], ids=["triangle_8_entries", "triangle_extra_coefficient", "lattice_8_bytes",
        "heisenberg_stray_byte", "sol_stray_byte", "klein_stray_byte",
        "wallpaper_stray_byte", "central_short_vector"])
def test_cache_with_malformed_key_is_rebuilt(tmp_path, make, rekey):
    """A key of the wrong shape does not decode, so the cache file holding
    it is rebuilt instead of loading a malformed element."""
    group = make()
    cached_ball(group, 3, cache_dir=str(tmp_path))
    (name,) = os.listdir(tmp_path)
    path = os.path.join(tmp_path, name)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(_rekey(data, 1, rekey))
    with pytest.raises(ValueError):
        Ball.read(path, group)
    rebuilt = cached_ball(group, 3, cache_dir=str(tmp_path))
    assert rebuilt.to_bytes() == build_ball(make(), 3).to_bytes()


def _central_extension():
    base = SurfaceGroup(2)
    return CentralExtension(base, {base.relator: (1,)})


@pytest.mark.parametrize("make, radius, digest", [
    (lambda: TriangleGroup(2, 3, 7), 8,
     "c3d6de24e3d02256897f7f977e4522c832f3e12addcdf96a44341aeee551ebe2"),
    (lambda: TriangleGroup(3, 3, 4), 5,
     "4aa7489ad5df9ce4d0e72945731d1cd7a0f3b0f2dae8b934974da05376147ffa"),
    (lambda: SurfaceGroup(2), 4,
     "0963cb236a5054797c25f2562564f7adfe2d5d72a6b100601b5385fd82f1d658"),
    (_central_extension, 4,
     "03da5ea5d00caaaf0d85832c31ab6ffb9902f0194edcbdab6166618d6e5e98c7"),
], ids=["triangle237", "triangle334", "surface2", "central"])
def test_ball_bytes_pinned(make, radius, digest):
    # a fresh group per ball: a word group's representatives depend on what
    # the instance resolved before.
    assert hashlib.sha256(build_ball(make(), radius).to_bytes()).hexdigest() == digest


@pytest.mark.parametrize("family", [
    "lattice", "free", "nil_hex", "sol", "klein", "s2222", "surface2", "central", "triangle",
])
def test_key_contract(request, family):
    """Keys decode to equal, equally hashed elements that the ball locates
    at their own index, and increase strictly inside each sphere."""
    if family == "lattice":
        group = IntegerLattice(2)
    elif family == "free":
        group = FreeGroup(2)
    elif family == "sol":
        group = SolLattice(((2, 1), (1, 1)))
    elif family == "central":
        group = _central_extension()
    elif family == "triangle":
        group = TriangleGroup(2, 3, 7)
    else:
        group = request.getfixturevalue(family)
    ball = build_ball(group, 2)
    for i, key in enumerate(ball.keys):
        elem = group.decode_key(key)
        assert elem == ball.elements[i]
        assert hash(elem) == hash(ball.elements[i])
        assert group.key(ball.elements[i]) == key
        assert ball.locate(elem) == i
    for n in range(3):
        keys = [ball.keys[i] for i in ball.sphere(n)]
        assert all(a < b for a, b in zip(keys, keys[1:]))
