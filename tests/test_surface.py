import hashlib
import itertools
import random

import pytest

from cayleyac.dehn import d_reduce, is_d_reduced, surface_alphabet
from cayleyac.explorer import Ball, build_ball
from cayleyac.groups import FreeGroup, IntegerLattice, encode_word, pack_ints
from cayleyac.sol import SolLattice
from cayleyac.surface import LETTERS, SurfaceGroup
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
        assert left == right
        assert surface2.multiply(u, surface2.invert(u)) == surface2.identity


def test_ball_words_d_reduced_and_keys_round_trip(surface2, surface_ball5):
    """Every word of B(5) is D-reduced and its own normal form, of the
    length of its sphere.  The ball read back from its bytes holds each
    element, hashed alike, on the instance that built the ball and on a
    fresh one."""
    data = surface_ball5.to_bytes()
    reads = [Ball.from_bytes(data, group) for group in (SurfaceGroup(2), surface2)]
    for i, (elem, length) in enumerate(zip(surface_ball5.elements, surface_ball5.lengths)):
        assert is_d_reduced(elem.word, surface2.dehn)
        assert surface2.rewriting.rewrite(elem.code) == elem.code
        assert len(elem.word) == length
        for read in reads:
            back = read.elements[i]
            assert back == elem and hash(back) == hash(elem)


def test_cache_refuses_a_key_word_that_is_not_d_reduced(surface_ball5):
    """The last record of B(5) holds a 5-letter key, the file's last 21
    bytes but the 16 of its fields; five letters of the relator, which are
    not D-reduced, in its place refuse the file."""
    group = SurfaceGroup(2)
    data = surface_ball5.to_bytes()
    bad = data[:-21] + encode_word(group.relator[:5], group.alphabet) + data[-16:]
    with pytest.raises(ValueError):
        Ball.from_bytes(bad, group)


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
        assert group.rewriting.rewrite(encode_word(word, group.alphabet)) == group.key(
            group.evaluate(word))


def test_products_rewrite_without_dehn_scans():
    """A ball build multiplies by rewriting: no product scans a word for
    relator matches."""
    group = SurfaceGroup(2)
    scans = []
    scan = group.dehn.scan
    group.dehn.scan = lambda word: scans.append(1) or scan(word)
    build_ball(group, 4)
    assert scans == []


def test_keys_are_the_encoded_words(surface2, surface_ball5, genus2_ext):
    """A key is the element's word as letter-index bytes: over genus-2 B(5),
    genus-3 B(4) and the central B(4), whose keys put the packed central
    vector first.  The names table numbers each genus's letters as its
    alphabet does."""
    for genus in range(2, 7):
        assert LETTERS[:4 * genus] == surface_alphabet(genus).names
    genus3 = SurfaceGroup(3)
    for group, ball in ((surface2, surface_ball5), (genus3, build_ball(genus3, 4))):
        for elem in ball.elements:
            assert group.key(elem) == encode_word(elem.word, group.alphabet)
    for elem in build_ball(genus2_ext, 4).elements:
        assert genus2_ext.key(elem) == (pack_ints(elem.avec)
                                        + encode_word(elem.base.word, surface2.alphabet))


def _rewrite_by_suffixes(rules, word, start):
    """Reference rewriting: a stack that, after each letter pushed, applies
    the rule whose left-hand side is a suffix, found by trying every rule."""
    stack, pending, applied = bytearray(word[:start]), bytearray(word[start:][::-1]), []
    while pending:
        stack.append(pending.pop())
        for lhs, rhs in rules.items():
            if stack.endswith(lhs):
                del stack[len(stack) - len(lhs):]
                pending += rhs[::-1]
                applied.append(lhs)
                break
    return bytes(stack), applied


def test_rewriting_from_the_normal_prefix_is_exact(surface2):
    """Rewriting u v from start = len(u), for a normal form u, gives the
    word and the rules applied that rewriting from the first letter gives,
    and that a stack trying every rule gives: for every genus-2 B(4)
    element times each letter, and for 2,000 seeded random pairs of B(4)
    elements."""
    elements = build_ball(surface2, 4).elements
    rng = random.Random(30)
    letters = list(surface2.generator_images.values())
    pairs = [(u, x) for u in elements for x in letters]
    pairs += [(rng.choice(elements), rng.choice(elements)) for _ in range(2000)]
    rewriting = surface2.rewriting
    for u, v in pairs:
        word = u.code + v.code
        whole, skipped = [], []
        normal = rewriting.rewrite(word, 0, whole)
        assert (normal, whole) == (rewriting.rewrite(word, len(u.code), skipped), skipped)
        assert (normal, whole) == _rewrite_by_suffixes(rewriting.rules, word, len(u.code))


@pytest.mark.parametrize("genus, length, bound, rules, digest", [
    (2, 6, 26, 27, "088e4d0155dae7d67b45af200d9df6093a18dc4973c2093e7b78939ba9666c00"),
    (2, 10, 38, 31, "90f52ec19efaa69ced7f366232499e48f5e4a2571bff139c290d3d0831a97358"),
    (3, 6, 30, 40, "6db00d59138b93865cc85d930b1b8ceea5a130672d117c902ad82e0d133fe6fc"),
])
def test_completion_pinned(genus, length, bound, rules, digest):
    """Rewriting a word of L letters on a fresh group completes the system
    to M = 3L + 4g with the rules pinned here: their count and the sha256 of
    the sorted lines "lhs -> rhs" in letter names, joined by newlines."""
    rewriting = SurfaceGroup(genus).rewriting
    rewriting.rewrite(bytes(length))
    assert rewriting.bound == bound
    assert len(rewriting.rules) == rules
    lines = sorted((" ".join(LETTERS[i] for i in lhs), " ".join(LETTERS[i] for i in rhs))
                   for lhs, rhs in rewriting.rules.items())
    text = "\n".join(f"{lhs} -> {rhs}" for lhs, rhs in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
