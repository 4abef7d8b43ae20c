import itertools
import random

import pytest

from cayleyac.dehn import is_d_reduced
from cayleyac.explorer import build_ball
from cayleyac.groups import FreeGroup, IntegerLattice, encode_word
from cayleyac.sol import SolLattice
from cayleyac.surface import SurfaceGroup
from cayleyac.triangle import TriangleGroup
from cayleyac.words import free_reduce, word_inverse


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_relator_maps_to_identity_in_quotients(genus):
    group = SurfaceGroup(genus)
    assert group._fp_of_word(group.relator) == group.identity.fp


@pytest.mark.parametrize("genus, radius", [(2, 5), (3, 3)])
def test_fingerprints_separate_ball(genus, radius):
    # the SL(2, p) image alone collides on genus-2 B(5) (a2 and
    # [a1,b1] b1 [a1,b1]^-1 share it); the abelianization vector separates
    ball = build_ball(SurfaceGroup(genus), radius)
    assert len({elem.fp for elem in ball.elements}) == len(ball)


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
    assert surface2.element_equal(u, v)
    assert surface2.key(surface2.resolve(u)) == surface2.key(surface2.resolve(v))


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
        assert surface2.element_equal(with_rel, without)
        assert (surface2.key(surface2.resolve(with_rel))
                == surface2.key(surface2.resolve(without)))


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


def test_ball_words_d_reduced_and_keys_round_trip(surface2, surface_ball5, monkeypatch):
    """Every word of B(5) is D-reduced, which products rely on to reduce
    only at the junction.  Keys decode to the element with its fingerprint,
    on the instance that registered them (no fold, no reduction) and on a
    fresh one (folded, not resolved)."""
    from cayleyac import surface

    fresh = SurfaceGroup(2)
    for elem, key in zip(surface_ball5.elements, surface_ball5.keys):
        assert is_d_reduced(elem.word, surface2.dehn)
        for group in (fresh, surface2):
            back = group.decode_key(key)
            assert back == elem and back.fp == elem.fp
    calls = []
    monkeypatch.setattr(surface, "d_reduce", lambda *args, **kw: calls.append(1))
    monkeypatch.setattr(SurfaceGroup, "_fp_of_word", lambda self, word: calls.append(1))
    for i, elem in enumerate(surface_ball5.elements):
        assert surface2.resolve(elem) is elem
        assert surface2.decode_key(surface_ball5.keys[i]) == elem
    assert calls == []


def test_decode_key_rejects_words_that_are_not_d_reduced():
    group = SurfaceGroup(2)
    with pytest.raises(ValueError):
        group.decode_key(encode_word(group.relator[:5], group.alphabet))
