import hashlib
import random

import pytest

from cayleyac.dehn import d_reduce_with_charges, is_d_reduced
from cayleyac.explorer import Ball, ElementAbsent, build_ball, sphere_pairs
from cayleyac.extensions import (CentralExtension, ExtElement, MissingCentralGenerator,
                                 PreconditionViolated, central_witness_path)
from cayleyac.words import word_inverse


def test_central_alphabet_and_flag(genus2_ext):
    # charge 1 lifts to the +-1 letter; short loops cannot certify more at
    # this scale, and the budgeted enumeration reports truncation honestly
    assert genus2_ext.central.names == {"c1": (1,)}
    assert genus2_ext.central.truncated


def test_identity_law(genus2_ext):
    g = genus2_ext.evaluate(("a1", "b1", "c1"))
    assert genus2_ext.multiply(genus2_ext.identity, g) == g


def test_half_relator_product_collects_charge(genus2_ext, surface2):
    rel = surface2.relator
    first = genus2_ext.evaluate(rel[:4])
    second = genus2_ext.evaluate(rel[4:])
    product = genus2_ext.multiply(first, second)
    assert product.avec == (1,)
    assert product.base.word == ()


def test_inverse_law_random(genus2_ext):
    rng = random.Random(20)
    names = genus2_ext.alphabet.names
    for _ in range(10 ** 3):
        w = tuple(rng.choice(names) for _ in range(rng.randrange(0, 9)))
        g = genus2_ext.evaluate(w)
        assert genus2_ext.multiply(g, genus2_ext.invert(g)) == genus2_ext.identity


def test_associativity_random(genus2_ext):
    rng = random.Random(21)
    names = genus2_ext.alphabet.names
    pool = [genus2_ext.evaluate(tuple(rng.choice(names) for _ in range(rng.randrange(7))))
            for _ in range(40)]
    for _ in range(300):
        u, v, w = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        left = genus2_ext.multiply(genus2_ext.multiply(u, v), w)
        right = genus2_ext.multiply(u, genus2_ext.multiply(v, w))
        assert left == right


def test_centrality_exhaustive(genus2_ext):
    c = genus2_ext.generator_images["c1"]
    for name in genus2_ext.alphabet.names:
        g = genus2_ext.generator_images[name]
        assert genus2_ext.multiply(c, g) == genus2_ext.multiply(g, c)


def test_dreduced_shape_examples(genus2_ext, surface2):
    rel = surface2.relator
    # a full relator spelled in zero-offset lifts becomes one central letter
    shaped = genus2_ext.to_dreduced_shape(rel)
    assert shaped == ("c1",)
    assert genus2_ext.evaluate(shaped) == genus2_ext.evaluate(rel)
    # already-shaped words are unchanged
    assert genus2_ext.to_dreduced_shape(("c1", "a1", "b2")) == ("c1", "a1", "b2")


def test_dreduced_shape_random(genus2_ext):
    rng = random.Random(22)
    names = genus2_ext.alphabet.names
    for _ in range(200):
        w = tuple(rng.choice(names) for _ in range(12))
        shaped = genus2_ext.to_dreduced_shape(w)
        assert genus2_ext.dreduced_shape(w) == genus2_ext.split_central(shaped)
        assert len(shaped) <= len(w)
        assert genus2_ext.evaluate(shaped) == genus2_ext.evaluate(w)
        _, base_part = genus2_ext.split_central(shaped)
        assert is_d_reduced(base_part, genus2_ext.dehn)


def test_central_geodesic_and_missing(genus2_ext):
    assert genus2_ext.central_geodesic((0,)) == ()
    assert genus2_ext.central_geodesic((3,)) == ("c1", "c1", "c1")
    assert genus2_ext.central_length((-2,)) == 2
    starved = CentralExtension(
        genus2_ext.base, {genus2_ext.base.relator: (2,)}, rank=1,
        quasi=None, extra_central=[(2,)],
    )
    with pytest.raises(MissingCentralGenerator):
        starved.central_geodesic((1,))


def test_geodesics_admit_dreduced_projection(genus2_ext):
    ball = build_ball(genus2_ext, 4)
    for idx in range(len(ball)):
        w = ball.geodesic_witness(idx)
        shaped = genus2_ext.to_dreduced_shape(w)
        assert len(shaped) == len(w)
        _, base_part = genus2_ext.split_central(shaped)
        assert is_d_reduced(base_part, genus2_ext.dehn)


def test_central_isometry_small(genus2_ext):
    ball = build_ball(genus2_ext, 4)
    for idx in range(len(ball)):
        elem = ball.elements[idx]
        if not elem.base.word:
            assert genus2_ext.central_length(elem.avec) == ball.lengths[idx]


def test_witness_path_identical_endpoints(genus2_ext, surface_ball5):
    from cayleyac.extensions import central_witness_path as cwp

    ball = build_ball(genus2_ext, 3)
    g = ball.elements[next(iter(ball.sphere(2)))]
    assert cwp(genus2_ext, ball, surface_ball5, g, g, (), 2) == ()


def test_witness_path_small_spheres(genus2_ext, surface_ball5):
    from cayleyac.convexity import compare_witness

    ball = build_ball(genus2_ext, 4)
    for n in (1, 2, 3):
        report = compare_witness(
            ball, n, 2,
            lambda i, j, q: central_witness_path(
                genus2_ext, ball, surface_ball5,
                ball.elements[i], ball.elements[j], q, n,
            ),
        )
        assert report["pairs"] > 0


def test_witness_path_preconditions(genus2_ext, surface_ball5):
    """Each hypothesis of the construction is checked and refused with
    PreconditionViolated; a connector that evaluates to 1 gives ()."""
    ball = build_ball(genus2_ext, 3)
    n = 2
    i, j, q = next(sphere_pairs(ball, n, 2))
    g, g_prime = ball.elements[i], ball.elements[j]

    def cwp(u, u_prime, word, radius=n):
        return central_witness_path(genus2_ext, ball, surface_ball5, u, u_prime, word, radius)

    assert cwp(g, g_prime, q)
    with pytest.raises(PreconditionViolated, match="longer than 2"):
        cwp(g, g, ("a1", "a1", "a1-"))
    with pytest.raises(PreconditionViolated, match="sphere"):
        cwp(g, g_prime, q, radius=3)
    outside = genus2_ext.evaluate(("a1",) * 4)
    with pytest.raises(ElementAbsent):
        cwp(g, outside, ("a1", "a1"))
    other = next(k for k in ball.sphere(n) if k not in (i, j))
    with pytest.raises(PreconditionViolated, match="eval"):
        cwp(g, ball.elements[other], q)
    # a connector whose first letter leaves B(n), and a second letter that
    # does not come back to g
    rows = ball.graph(n - ball.radius)
    names = ball.gen_names
    a = next(gi for gi, v in enumerate(rows[i]) if ball.lengths[v] > n)
    b = next(gi for gi in range(len(names)) if gi not in (a, ball.inverse_gens[a]))
    with pytest.raises(PreconditionViolated, match="eval"):
        cwp(g, g, (names[a], names[b]))
    assert cwp(g, g, (names[a], names[ball.inverse_gens[a]])) == ()


def _digest(words):
    h = hashlib.sha256()
    for word in words:
        h.update((" ".join(word) + "\n").encode())
    return h.hexdigest()


_WITNESS_DIGESTS = {
    1: "dbe7368e97f74ffa06f269bec5afece3f73afd8309fda19665dcf6ab9095578e",
    2: "623a5a53c6687526585c23d0b17ffea40fd0d107d84b8faccf2273fe5c77c824",
    3: "47220886f53fdc80858e3164190162383986bec85a4f3bba0091762238cad762",
    4: "9db4f204e99ae2ce564010d484567bccaf0adc144dff32da53145e2ae56b22a6",
    5: "11f988adbdad2cbc4a3152288021dd741136c7e7c17172cd6384802cecb370b8",
}


def test_witness_words_pinned(genus2_ext, ext_ball6, surface_ball5):
    """The words of the construction on every sphere-n pair, one per line
    in pair order, are fixed: on B(4) at n = 1..4 and on B(6) at n = 5
    (124,248 pairs).  Reading the hypotheses, the prefixes and the
    correction off the ball and the charges must not change them."""
    small = build_ball(genus2_ext, 4)
    for n, digest in _WITNESS_DIGESTS.items():
        ball = small if n < 5 else ext_ball6
        words = [central_witness_path(genus2_ext, ball, surface_ball5,
                                      ball.elements[i], ball.elements[j], q, n)
                 for i, j, q in sphere_pairs(ball, n, 2)]
        assert _digest(words) == digest, n


def test_direct_product_central_values(surface2):
    # trivial charges: short loops realize nothing, the charge letters come
    # from the explicitly supplied basis
    trivial = CentralExtension(surface2, {surface2.relator: (0,)}, rank=1,
                               quasi=None, extra_central=[(1,)])
    assert trivial.central.names == {"c1": (1,)}
    g = trivial.evaluate(surface2.relator)
    assert g.avec == (0,)


def test_fingerprint_hashes_every_charge(surface2):
    # one surface relator gives every closed relator the same charge up to
    # sign, so the two charge maps are made to differ by hand, past the
    # second entry in sorted order
    first = CentralExtension(surface2, {surface2.relator: (1,)})
    second = CentralExtension(surface2, {surface2.relator: (1,)})
    assert first.fingerprint() == second.fingerprint()
    third = sorted(second.charges, key=" ".join)[2]
    second.charges[third] = (5,)
    assert first.fingerprint() != second.fingerprint()


def test_central_ball_invariants(genus2_ext):
    """Over the genus-2 central B(4): base words are D-reduced normal forms
    and the ball read back from its bytes holds equal, equally hashed
    elements, which the ball locates at their own index; distinct elements
    have distinct keys; a central letter multiplies, without rewriting,
    into the element the charged reduction gives; and two base words for
    one base element evaluate to elements that differ by the relator's
    charge."""
    ball = build_ball(genus2_ext, 4)
    base = genus2_ext.base
    read = Ball.from_bytes(ball.to_bytes(), genus2_ext)
    for i, elem in enumerate(ball.elements):
        assert is_d_reduced(elem.base.word, genus2_ext.dehn)
        assert base.rewriting.rewrite(elem.base.code) == elem.base.code
        back = read.elements[i]
        assert back == elem and hash(back) == hash(elem)
        assert ball.locate(back) == i
    assert len(set(ball.keys)) == len(ball)
    for name in ("c1", "c1-"):
        img = genus2_ext.generator_images[name]
        for elem in ball.elements:
            word, consumed = d_reduce_with_charges(elem.base.word + img.base.word,
                                                   genus2_ext.dehn, genus2_ext.charges,
                                                   genus2_ext.rank)
            got = genus2_ext.multiply(elem, img)
            assert got.avec == tuple(map(sum, zip(elem.avec, img.avec, consumed)))
            assert got.base.word == word
    rel = base.relator
    first = genus2_ext.evaluate(rel[:4])
    second = genus2_ext.evaluate(word_inverse(rel[4:], base.alphabet))
    assert first.base == second.base and first != second
    assert genus2_ext.multiply(first, genus2_ext.invert(second)) == ExtElement(
        genus2_ext.charges[rel], base.identity)


def test_evaluate_agrees_with_dreduced_shape(genus2_ext):
    """evaluate and dreduced_shape give one element for random words of
    length <= 20 over the base and central letters: their central parts
    differ by the charge of the closed base word (normal form) (D-reduced
    word)^-1, which Dehn's algorithm reduces to the empty word."""
    base = genus2_ext.base
    names = genus2_ext.alphabet.names
    rng = random.Random(20)
    for _ in range(400):
        word = tuple(rng.choice(names) for _ in range(rng.randrange(21)))
        elem = genus2_ext.evaluate(word)
        vec, reduced = genus2_ext.dreduced_shape(word)
        assert len(elem.base.word) <= len(reduced)
        rest, charge = d_reduce_with_charges(
            elem.base.word + word_inverse(reduced, base.alphabet),
            genus2_ext.dehn, genus2_ext.charges, genus2_ext.rank)
        assert rest == ()
        assert vec == tuple(a + c for a, c in zip(elem.avec, charge))
