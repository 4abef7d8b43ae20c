import gc
import random
import weakref
from fractions import Fraction

import pytest

from cayleyac import explorer
from cayleyac.dehn import (_LAMBDA_GRID, DehnSystem, EmptyRelator, _fit_quasi,
                           close_dehn, close_dehn_with_charges, d_reduce,
                           d_reduce_with_charges, is_d_reduced,
                           measure_quasi_constants, surface_alphabet,
                           surface_relator, triangle_relators)
from cayleyac.explorer import build_ball
from cayleyac.extensions import CentralExtension
from cayleyac.groups import FreeGroup
from cayleyac.surface import SurfaceGroup
from cayleyac.triangle import TriangleGroup
from cayleyac.words import Alphabet, free_reduce, word_inverse


def test_close_dehn_counts():
    a = Alphabet(["x", "y"])
    system = close_dehn([("x", "y", "x-", "y-")], a)
    assert len(system.relators) == 8  # 4 rotations x inverse

    genus2 = close_dehn([surface_relator(2)], surface_alphabet(2))
    assert len(genus2.relators) == 16

    again = close_dehn(genus2.relators, surface_alphabet(2))
    assert again.relators == genus2.relators  # idempotent

    with pytest.raises(EmptyRelator):
        close_dehn([()], a)
    with pytest.raises(EmptyRelator):
        close_dehn([("x", "x-")], a)


def test_relators_evaluate_to_identity(surface2):
    for rel in surface2.dehn.relators:
        assert surface2.is_identity_word(rel)


def test_d_reduce_definition_instance():
    a = surface_alphabet(2)
    system = close_dehn([surface_relator(2)], a)
    rel = surface_relator(2)
    prefix = rel[:5]
    reduced = d_reduce(prefix, system)
    assert reduced == word_inverse(rel[5:], a)
    assert len(reduced) == 3


def test_d_reduce_identity_words_surface(surface2):
    rng = random.Random(10)
    system = surface2.dehn
    names = surface2.alphabet.names
    for _ in range(200):
        w = ()
        while True:
            u = tuple(rng.choice(names) for _ in range(rng.randrange(0, 6)))
            w = w + u + rng.choice(system.relators) + word_inverse(u, surface2.alphabet)
            if len(w) > 20 or rng.random() < 0.5:
                break
        assert d_reduce(w, system) == ()


def test_d_reduce_never_lengthens(surface2):
    rng = random.Random(11)
    names = surface2.alphabet.names
    for _ in range(300):
        w = tuple(rng.choice(names) for _ in range(rng.randrange(0, 18)))
        red = d_reduce(w, surface2.dehn)
        assert len(red) <= len(w)
        assert surface2.is_identity_word(red + word_inverse(w, surface2.alphabet))


def test_is_d_reduced():
    a = surface_alphabet(2)
    system = close_dehn([surface_relator(2)], a)
    assert is_d_reduced((), system)
    assert not is_d_reduced(surface_relator(2), system)
    red = d_reduce(surface_relator(2)[:6], system)
    assert is_d_reduced(red, system)


def test_triangle_relators_skip_self_inverse_powers():
    rels, alphabet = triangle_relators(2, 3, 7)
    assert ("u",) * 2 not in rels
    assert ("v",) * 3 in rels
    assert ("u", "v") * 7 in rels
    assert alphabet.inverse("u") == "u"


def test_d_reduce_identity_words_triangle(triangle237, triangle_dehn):
    rng = random.Random(12)
    names = triangle237.alphabet.names
    for _ in range(200):
        w = ()
        while True:
            u = tuple(rng.choice(names) for _ in range(rng.randrange(0, 5)))
            w = w + u + rng.choice(triangle_dehn.relators) + word_inverse(u, triangle237.alphabet)
            if len(w) > 24 or rng.random() < 0.5:
                break
        assert d_reduce(w, triangle_dehn) == ()


def test_charged_closure_signs():
    a = surface_alphabet(2)
    rel = surface_relator(2)
    system, charges = close_dehn_with_charges({rel: (1,)}, a)
    for r in system.relators:
        assert charges[r] in ((1,), (-1,))
        assert charges[word_inverse(r, a)] == tuple(-c for c in charges[r])
    word, consumed = d_reduce_with_charges(rel, system, charges, 1)
    assert word == () and consumed == (1,)
    word, consumed = d_reduce_with_charges(word_inverse(rel, a), system, charges, 1)
    assert word == () and consumed == (-1,)


def test_free_group_constants():
    free = FreeGroup(2)
    ball = build_ball(free, 6)
    system = DehnSystem(free.alphabet, ())
    qc = measure_quasi_constants(free, system, ball, 6, samples=80, seed=3)
    assert qc.lam == 1 and qc.eps == 0
    # every sampled word would be empty: rejected instead of sampling forever
    for radius in (0, -1):
        with pytest.raises(ValueError):
            measure_quasi_constants(free, system, ball, radius, samples=80, seed=3)


def test_radius_past_the_ball_rejected():
    """Sampled words would leave the ball, whose lengths the measurement
    reads: rejected up front, naming both radii."""
    free = FreeGroup(2)
    ball = build_ball(free, 3)
    system = DehnSystem(free.alphabet, ())
    with pytest.raises(ValueError, match="radius 4 exceeds the ball radius 3"):
        measure_quasi_constants(free, system, ball, 4, samples=10)
    assert measure_quasi_constants(free, system, ball, 3, samples=10).lam == 1


def test_surface_constants_stable(surface2, surface_ball5, surface_quasi):
    q4, q5 = surface_quasi
    assert (q4.lam, q4.eps, q4.k_of_m[2]) == (q5.lam, q5.eps, q5.k_of_m[2])
    assert q5.lam == 1 and q5.eps == 0


def test_triangle_constants_stable(triangle237, triangle_dehn):
    ball = build_ball(triangle237, 8)
    q7 = measure_quasi_constants(triangle237, triangle_dehn, ball, 7, samples=300, seed=7)
    q8 = measure_quasi_constants(triangle237, triangle_dehn, ball, 8, samples=300, seed=7)
    assert (q7.lam, q7.eps, q7.k_of_m[2]) == (q8.lam, q8.eps, q8.k_of_m[2])
    assert q8.k_of_m[2] >= 1


def _fraction_fit_quasi(data):
    """The lambda/epsilon fit in Fraction arithmetic, kept as the reference
    for the integer-scaled fit."""
    for lam in _LAMBDA_GRID:
        eps = Fraction(0)
        ok = True
        for wlen, elen in data:
            need = Fraction(wlen) - lam * elen
            if need > eps:
                eps = need
            if eps > 12:
                ok = False
                break
        if ok:
            return lam, eps
    return _LAMBDA_GRID[-1], eps


def test_integer_fit_equals_fraction_fit():
    """The same lambda and epsilon, as Fractions, on random data: fits at
    every grid point, and past the grid, where epsilon is the first value
    found over 12."""
    rng = random.Random(5)
    branches = set()
    for _ in range(3000):
        n = rng.randrange(0, 30)
        spread = rng.choice((1, 3, 8, 40))
        data = []
        for _ in range(n):
            wlen = rng.randrange(1, spread + 2)
            data.append((wlen, rng.randrange(0, wlen + 1)))
        want = _fraction_fit_quasi(data)
        got = _fit_quasi(data)
        assert got == want and all(type(x) is Fraction for x in got), data
        branches.add(want[1] > 12)
    assert branches == {False, True}


def _grid_quasi_constants(group, system, ball, radius, samples, seed):
    """The measurement before index walks, kept as the reference: every
    product multiplied from group elements, every length located in the
    ball, and the fellow-traveler and thin-triangle distances as full grids
    of inverted prefixes times path points."""
    rng = random.Random(seed)
    alphabet = system.alphabet

    def d_reduced(word):
        return free_reduce(word, alphabet) == word and is_d_reduced(word, system)

    def all_d_reduced(prefix, remaining):
        yield prefix
        if remaining:
            for letter in alphabet.names:
                if d_reduced(prefix + (letter,)):
                    yield from all_d_reduced(prefix + (letter,), remaining - 1)

    def random_d_reduced():
        word = ()
        for _ in range(radius):
            options = list(alphabet.names)
            rng.shuffle(options)
            for letter in options:
                if d_reduced(word + (letter,)):
                    word += (letter,)
                    break
            else:
                break
        return word

    words = [w for w in all_d_reduced((), min(3, radius)) if w]
    while len(words) < samples:
        w = random_d_reduced()
        if w:
            words.append(w)

    images = group.generator_images
    data = []
    for w in words:
        for i in range(len(w)):
            sub = group.identity
            for j in range(i + 1, len(w) + 1):
                sub = group.multiply(sub, images[w[j - 1]])
                data.append((j - i, ball.length_of(sub)))
    lam, eps = _fraction_fit_quasi(data)

    def points(word):
        pts = [group.identity]
        for letter in word:
            pts.append(group.multiply(pts[-1], images[letter]))
        return pts

    def dist(a_inv, b):
        try:
            return ball.length_of(group.multiply(a_inv, b))
        except KeyError:
            return ball.radius + 1

    def hausdorff(u, v):
        pv = points(v)
        grid = [[dist(a_inv, b) for b in pv] for a_inv in map(group.invert, points(u))]
        return max(max(min(row) for row in grid),
                   max(min(row[j] for row in grid) for j in range(len(pv))))

    k_of_m = {}
    for m in (1, 2):
        worst = 0
        for w in words[:120]:
            end = group.evaluate(w)
            for count in range(1, m + 1):
                connector = tuple(rng.choice(alphabet.names) for _ in range(count))
                target = group.multiply(end, group.evaluate(connector))
                try:
                    v = ball.geodesic_witness(target)
                except KeyError:
                    continue
                worst = max(worst, hausdorff(w, v))
        k_of_m[m] = worst

    delta = 0
    pool = words[:60]
    for _ in range(min(30, len(pool))):
        x = group.evaluate(rng.choice(pool))
        y = group.evaluate(rng.choice(pool))
        try:
            side_a = ball.geodesic_witness(x)
            side_c = ball.geodesic_witness(y)
            side_b = ball.geodesic_witness(group.multiply(group.invert(x), y))
        except KeyError:
            continue
        pb = [group.multiply(x, p) for p in points(side_b)]
        pc = points(side_c)
        for p_inv in map(group.invert, points(side_a)):
            delta = max(delta, min(min(dist(p_inv, q) for q in pb),
                                   min(dist(p_inv, q) for q in pc)))
    return lam, eps, k_of_m, delta, len(words), len(data)


def _outputs(qc):
    return qc.lam, qc.eps, qc.k_of_m, qc.delta, qc.samples, qc.details["data_points"]


def test_walks_equal_grid_measurement(triangle237, triangle_ball, triangle_dehn,
                                      surface2, surface_ball5):
    """The index walks give the grid measurement's constants: (2,3,7) on
    B(8) at every radius from 3, surface genus 2 on B(5) at radii 4 and 5,
    and the free group on B(6)."""
    cases = [(triangle237, triangle_dehn, triangle_ball, radius, 24, seed)
             for radius in range(3, 9) for seed in (0, 1, 2)]
    cases += [(surface2, surface2.dehn, surface_ball5, radius, 200, seed)
              for radius in (4, 5) for seed in (7, 8, 9)]
    free = FreeGroup(2)
    cases += [(free, DehnSystem(free.alphabet, ()), build_ball(free, 6), 6, 80, 3)]
    for group, system, ball, radius, samples, seed in cases:
        want = _grid_quasi_constants(group, system, ball, radius, samples, seed)
        got = measure_quasi_constants(group, system, ball, radius, samples=samples,
                                      seed=seed)
        assert _outputs(got) == want, (group, radius, seed)


def test_measurement_multiplies_each_product_once():
    """Within one measurement no product of the same two elements is taken
    twice; (2,3,7) at radius 5 with 20 samples makes at most 150."""
    group = TriangleGroup(2, 3, 7)
    ball, system = build_ball(group, 5), group.dehn
    calls = []
    multiply = group.multiply
    group.multiply = lambda u, v: calls.append((group.key(u), group.key(v))) or multiply(u, v)
    for seed in range(3):
        calls.clear()
        measure_quasi_constants(group, system, ball, 5, samples=20, seed=seed)
        assert len(set(calls)) == len(calls)
        if seed == 0:
            assert 0 < len(calls) <= 150


def _full_scan_reduce(word, system, charges=None, rank=0):
    """The reduction loop before junction-local reductions, kept as the reference:
    free reduction and a scan from every start after each replacement, and
    the relator of a charged replacement rebuilt from the word."""
    total = [0] * rank
    current = free_reduce(word, system.alphabet)
    while True:
        best = None
        for start in range(len(current)):
            hit = system.longest_match(current, start)
            if hit is not None and (best is None or hit[1] > best[2]):
                best = (start, hit[0], hit[1])
        if best is None:
            return current, tuple(total)
        start, replacement, consumed = best
        if charges is not None:
            relator = current[start:start + consumed] + word_inverse(replacement, system.alphabet)
            for k, c in enumerate(charges[relator]):
                total[k] += c
        current = free_reduce(current[:start] + replacement + current[start + consumed:],
                              system.alphabet)


def _reduction_systems(name, request):
    """The relator system, and charge maps of rank 1 and 2, of each family
    whose words reduce by Dehn's algorithm."""
    if name.startswith("surface"):
        genus = int(name[-1])
        rel, alphabet = surface_relator(genus), surface_alphabet(genus)
        system, charges1 = close_dehn_with_charges({rel: (1,)}, alphabet)
        _, charges2 = close_dehn_with_charges({rel: (1, 1)}, alphabet)
        return system, [(charges1, 1), (charges2, 2)]
    if name == "rotation237":
        rels, alphabet = triangle_relators(2, 3, 7)
        system = close_dehn(rels, alphabet)
    else:
        system = request.getfixturevalue("triangle_dehn")
    # a charge per relator, so that charging the wrong relator shows
    return system, [({rel: (1,) for rel in system.relators}, 1),
                    ({rel: (1, i) for i, rel in enumerate(system.relators)}, 2)]


@pytest.mark.parametrize("name", ["surface2", "surface3", "rotation237", "triangle237"])
def test_split_reduction_equals_full_reduction(name, request):
    """d_reduce and d_reduce_with_charges give the full-scan loop's word and
    charge: on random words, on words split into two D-reduced factors of
    length <= 13 (half of them ending and starting inside one relator, where
    replacements cross the junction), and on one-letter appends and
    prepends."""
    system, charge_maps = _reduction_systems(name, request)
    names = system.alphabet.names
    rng = random.Random(name)

    def letters(k):
        return tuple(rng.choice(names) for _ in range(k))

    def factor(left):
        # half of the factors end (left) or start (right) inside a relator,
        # so that replacements cross the junction
        word = letters(rng.randrange(14))
        if rng.random() < 0.5:
            rel = rng.choice(system.relators)
            cut = rng.randrange(len(rel) + 1)
            word = (word + rel[:cut])[-13:] if left else (rel[cut:] + word)[:13]
        return _full_scan_reduce(word, system)[0]

    def check(word):
        want, _ = _full_scan_reduce(word, system)
        assert d_reduce(word, system) == want, word
        charges, rank = rng.choice(charge_maps)
        assert (d_reduce_with_charges(word, system, charges, rank)
                == _full_scan_reduce(word, system, charges, rank)), word

    for _ in range(7000):
        check(letters(rng.randrange(25)))
        u, v = factor(True), factor(False)
        check(u + v)
        letter = letters(1)
        check(u + letter if rng.random() < 0.5 else letter + u)


def test_dehn_groups_freed_by_reference_counting(monkeypatch):
    """Relator systems and surface groups hold no reference cycle, so they
    are freed as soon as their last reference goes, with no collection; a
    cycle would keep each set-up's tables until the collector runs.  The
    same holds for a system after a measurement has read it, and for the
    ball that the triangle-group seeding walks."""
    triangle = TriangleGroup(2, 3, 7)
    seeds = triangle.identity_words(2 * triangle.orders[2] + 1)
    ball = build_ball(triangle, 3)
    balls = []

    def build(group, radius):
        built = build_ball(group, radius)
        balls.append(weakref.ref(built))
        return built

    monkeypatch.setattr(explorer, "build_ball", build)
    gc.collect()
    gc.disable()
    try:
        system = close_dehn(seeds, triangle.alphabet)
        measure_quasi_constants(triangle, system, ball, 3, samples=10, seed=0)
        surface = SurfaceGroup(2)
        build_ball(surface, 2).graph()
        refs = [weakref.ref(system), weakref.ref(surface.dehn), weakref.ref(surface)]
        del system, surface
        assert [ref() for ref in refs] == [None, None, None]
        # the cached system of a group that is gone goes with it
        ref = weakref.ref(TriangleGroup(2, 3, 7).dehn)
        assert ref() is None
        assert triangle.identity_words(7)
        assert len(balls) == 2 and [ref() for ref in balls] == [None, None]
    finally:
        gc.enable()
