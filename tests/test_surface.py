import itertools
import random

import pytest

from cayleyac.dehn import d_reduce, is_d_reduced
from cayleyac.explorer import build_ball
from cayleyac.groups import FreeGroup, IntegerLattice, encode_word
from cayleyac.sol import SolLattice
from cayleyac.surface import SurfaceGroup
from cayleyac.triangle import TriangleGroup
from cayleyac.words import free_reduce, word_inverse


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_relator_maps_to_identity_in_quotients(genus):
    """Every rotation of the relator and of its inverse evaluates to the
    identity of the quotient of the free group, its normal form the empty
    word."""
    group = SurfaceGroup(genus)
    for rel in group.dehn.relators:
        assert group.evaluate(rel) == group.identity
        assert group.multiply(group.evaluate(rel[:5]), group.evaluate(rel[5:])) == group.identity


@pytest.mark.parametrize("family", [
    "lattice", "free", "nil_hex", "sol", "klein", "s2222", "surface2", "central", "triangle",
])
def test_generator_images_built_once(request, family):
    """Every family builds its generator images once, in ``__init__``: ball
    builds and index walks read them per letter."""
    make = {
        "lattice": lambda: IntegerLattice(2),
        "free": lambda: FreeGroup(2),
        "sol": lambda: SolLattice(((2, 1), (1, 1))),
        "central": lambda: request.getfixturevalue("genus2_ext"),
        "triangle": lambda: TriangleGroup(2, 3, 7),
    }.get(family, lambda: request.getfixturevalue(family))
    group = make()
    assert group.generator_images is group.generator_images


def test_equal_elements_same_key(surface2):
    rel = surface2.relator
    u = surface2.evaluate(rel[:4])
    v = surface2.evaluate(word_inverse(rel[4:], surface2.alphabet))
    assert u == v
    assert surface2.key(u) == surface2.key(v)


def test_distinct_elements_distinct_keys(surface_ball5):
    assert len(set(surface_ball5.keys)) == len(surface_ball5)


def test_sphere_counts(surface_ball5):
    # free numbers minus the half-relator identifications at radius 4
    assert surface_ball5.sphere_sizes()[:5] == [1, 8, 56, 392, 2736]


def test_ball_matches_word_enumeration(surface2):
    # independent count at radius 3: no relations visible below length 4,
    # so elements are exactly the freely reduced words
    ball = build_ball(surface2, 3)
    names = surface2.alphabet.names
    words = set()
    for k in range(4):
        for word in itertools.product(names, repeat=k):
            if free_reduce(word, surface2.alphabet) == word:
                words.add(word)
    assert len(words) == len(ball)


def test_word_problem_random_insertions(surface2):
    rng = random.Random(13)
    names = surface2.alphabet.names
    for _ in range(150):
        u = tuple(rng.choice(names) for _ in range(rng.randrange(0, 8)))
        v = tuple(rng.choice(names) for _ in range(rng.randrange(0, 8)))
        rel = rng.choice(surface2.dehn.relators)
        with_rel = surface2.evaluate(u + rel + v)
        without = surface2.evaluate(u + v)
        assert with_rel == without
        assert surface2.key(with_rel) == surface2.key(without)


def test_inverse_and_associativity(surface2):
    rng = random.Random(14)
    names = surface2.alphabet.names
    pool = [surface2.evaluate(tuple(rng.choice(names) for _ in range(rng.randrange(6))))
            for _ in range(30)]
    for _ in range(100):
        u, v, w = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        left = surface2.multiply(surface2.multiply(u, v), w)
        right = surface2.multiply(u, surface2.multiply(v, w))
        assert surface2.element_equal(left, right)
        assert surface2.element_equal(surface2.multiply(u, surface2.invert(u)),
                                      surface2.identity)


def test_ball_words_d_reduced_and_keys_round_trip(surface2, surface_ball5):
    """Every word of B(5) is D-reduced and its own normal form, of the
    length of its sphere.  Keys decode to the element, hashed alike, on the
    instance that built the ball and on a fresh one."""
    fresh = SurfaceGroup(2)
    for elem, key, length in zip(surface_ball5.elements, surface_ball5.keys,
                                 surface_ball5.lengths):
        assert is_d_reduced(elem.word, surface2.dehn)
        assert surface2.rewriting.rewrite(elem.word) == elem.word
        assert len(elem.word) == length
        for group in (fresh, surface2):
            back = group.decode_key(key)
            assert back == elem and hash(back) == hash(elem)


def test_decode_key_rejects_words_that_are_not_d_reduced():
    group = SurfaceGroup(2)
    with pytest.raises(ValueError):
        group.decode_key(encode_word(group.relator[:5], group.alphabet))


def _growth_series(genus, terms):
    """The first terms of Cannon's growth series of the genus-g surface
    group, (1 + 2z + ... + 2z^(2g-1) + z^(2g)) / (1 - (4g-2)(z + ... +
    z^(2g-1)) + z^(2g)); see also Floyd and Plotnick, Invent. Math. 88
    (1987)."""
    top = 2 * genus
    numerator = [1] + [2] * (top - 1) + [1]
    denominator = [1] + [-(4 * genus - 2)] * (top - 1) + [1]
    series = []
    for n in range(terms):
        series.append((numerator[n] if n <= top else 0)
                      - sum(denominator[k] * series[n - k] for k in range(1, min(n, top) + 1)))
    return series


@pytest.mark.parametrize("genus, spheres", [
    (2, [1, 8, 56, 392, 2736, 19096, 133288]),
    (3, [1, 12, 132, 1452, 15972]),
])
def test_sphere_sizes_follow_the_growth_series(genus, spheres):
    """One normal form per element: the spheres of the ball count the
    elements of each length exactly, as the growth series does."""
    assert _growth_series(genus, len(spheres)) == spheres
    assert build_ball(SurfaceGroup(genus), len(spheres) - 1).sphere_sizes() == spheres


@pytest.mark.parametrize("genus", [2, 3])
def test_normal_forms_of_random_words(genus):
    """A seeded random word of length <= 20, half of them with a relator
    inserted, evaluates to a normal form that Dehn's algorithm equates with
    the word, that is never longer than the word's D-reduced form, and that
    rewriting the word directly gives too."""
    group = SurfaceGroup(genus)
    names = group.alphabet.names
    rng = random.Random(genus)
    for _ in range(400):
        word = tuple(rng.choice(names) for _ in range(rng.randrange(21)))
        if rng.random() < 0.5:
            cut = rng.randrange(len(word) + 1)
            word = (word[:cut] + rng.choice(group.dehn.relators) + word[cut:])[:20]
        normal = group.evaluate(word).word
        assert d_reduce(normal + word_inverse(word, group.alphabet), group.dehn) == ()
        assert len(normal) <= len(d_reduce(word, group.dehn))
        assert group.rewriting.rewrite(word) == normal


def test_products_rewrite_without_dehn_scans():
    """A ball build multiplies by rewriting: no product scans a word for
    relator matches."""
    group = SurfaceGroup(2)
    scans = []
    scan = group.dehn.scan
    group.dehn.scan = lambda word: scans.append(1) or scan(word)
    build_ball(group, 4)
    assert scans == []
