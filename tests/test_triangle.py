import hashlib
import random

import pytest

from cayleyac.dehn import close_dehn
from cayleyac.explorer import Ball, build_ball
from cayleyac.triangle import (CosField, TriangleGroup, _mat_inverse, _mat_mul,
                               cyclotomic_polynomial, real_minimal_polynomial)


def test_cyclotomic_small():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(7) == [1] * 7


def test_real_minimal_polynomials():
    # 2cos(2pi/6) = 1
    assert real_minimal_polynomial(6) == [-1, 1]
    # 2cos(pi/4) = sqrt(2): x^2 - 2
    assert real_minimal_polynomial(8) == [-2, 0, 1]
    # 2cos(pi/7): x^3 - x^2 - 2x + 1
    assert real_minimal_polynomial(14) == [1, -2, -1, 1]


def test_cos_field_arithmetic():
    field = CosField(7)
    assert field.degree == 3
    c = field.generator()
    # c satisfies its minimal polynomial
    val = field.add(field.sub(field.mul(field.mul(c, c), c), field.mul(c, c)),
                    field.sub(field.one(), field.scale(c, 2)))
    assert val == field.zero()
    assert field.two_cos_pi_over(7) == c
    # the ring is integral: every generator image has int coefficients
    for image in TriangleGroup(2, 3, 7).generator_images.values():
        assert all(type(c) is int for entry in image for c in entry)


def test_triangle_group_orders():
    t = TriangleGroup(2, 3, 7)
    u = t.generator_images["u"]
    v = t.generator_images["v"]
    assert t.multiply(u, u) == t.identity
    assert t.multiply(t.multiply(v, v), v) == t.identity
    uv = t.multiply(u, v)
    power = uv
    for _ in range(6):
        power = t.multiply(power, uv)
    assert power == t.identity


def test_triangle_rejects_spherical():
    with pytest.raises(ValueError):
        TriangleGroup(2, 3, 5)


def test_triangle_ball_and_keys(triangle237, triangle_ball):
    assert triangle_ball.sphere_sizes()[0:3] == [1, 3, 4]
    # the ball read back from its bytes holds equal matrices
    data = triangle_ball.to_bytes()
    assert Ball.from_bytes(data, triangle237).elements == triangle_ball.elements
    # the ring is integral, so a key of record 1 with another denominator,
    # past the 17-byte header and the identity's record, is damaged
    record1 = 17 + 2 + len(triangle_ball.keys[0]) + 16
    bad = data[:record1] + data[record1:].replace(b"/1", b"/2", 1)
    with pytest.raises(ValueError):
        Ball.from_bytes(bad, triangle237)


def test_triangle_inverse_exact(triangle237):
    u = triangle237.generator_images["u"]
    v = triangle237.generator_images["v"]
    uv = triangle237.multiply(u, v)
    assert triangle237.multiply(uv, triangle237.invert(uv)) == triangle237.identity


def test_other_triangle_group():
    t = TriangleGroup(3, 3, 4)
    ball = build_ball(t, 4)
    assert len(ball) > 10
    w = t.generator_images["u"]
    assert t.multiply(t.multiply(w, w), w) == t.identity


def _reference_identity_words(group, scale):
    """The depth-first search with one matrix product per node."""
    alphabet = group.alphabet
    images = group.generator_images
    prune_radius = scale // 2 + 1
    ball = build_ball(group, prune_radius)
    out = []

    def extend(word, elem):
        if word and elem == group.identity:
            if alphabet.inverse(word[-1]) != word[0]:
                out.append(tuple(word))
        if len(word) == scale:
            return
        remaining = scale - len(word)
        if remaining <= prune_radius:
            try:
                if ball.length_of(elem) > remaining:
                    return
            except KeyError:
                return
        for name in alphabet.names:
            if word and alphabet.inverse(word[-1]) == name:
                continue
            word.append(name)
            extend(word, group.multiply(elem, images[name]))
            word.pop()

    extend([], group.identity)
    return out


@pytest.mark.parametrize("orders", [(2, 3, 7), (3, 3, 4), (2, 4, 5), (4, 4, 4)])
def test_identity_words_match_matrix_search(orders):
    group = TriangleGroup(*orders)
    scale = 2 * orders[2] + 1
    words = group.identity_words(scale)
    assert words and words == _reference_identity_words(group, scale)


def test_identity_words_multiply_only_for_the_graph():
    """The seeds come from B(8)'s graph: its build and rows are the only
    products, at most 2 |B(8)| G of them."""
    group = TriangleGroup(2, 3, 7)
    bound = 2 * len(build_ball(group, 8)) * len(group.alphabet.names)
    calls = []
    multiply = group.multiply
    group.multiply = lambda u, v: calls.append(1) or multiply(u, v)
    group.identity_words(2 * 7 + 1)
    assert 0 < len(calls) <= bound


@pytest.mark.parametrize("orders, degree", [((2, 3, 7), 3), ((4, 4, 4), 2), ((3, 4, 5), 8)])
def test_matrix_kernel_matches_entrywise_reference(orders, degree):
    group = TriangleGroup(*orders)
    f = group.field
    assert f.degree == degree
    elements = build_ball(group, 5).elements
    rng = random.Random(11)

    def entry(A, i, j):
        return A[3 * i + j]

    for _ in range(40):
        A, B = rng.choice(elements), rng.choice(elements)
        product = []
        for i in range(3):
            for j in range(3):
                acc = f.zero()
                for k in range(3):
                    acc = f.add(acc, f.mul(entry(A, i, k), entry(B, k, j)))
                product.append(acc)
        assert _mat_mul(f, A, B) == tuple(product)

        cof = []
        for i in range(3):
            for j in range(3):
                r = [k for k in range(3) if k != i]
                c = [k for k in range(3) if k != j]
                minor = f.sub(f.mul(entry(A, r[0], c[0]), entry(A, r[1], c[1])),
                              f.mul(entry(A, r[0], c[1]), entry(A, r[1], c[0])))
                cof.append(minor if (i + j) % 2 == 0 else f.neg(minor))
        det = f.zero()
        for j in range(3):
            det = f.add(det, f.mul(entry(A, 0, j), cof[j]))
        sign = 1 if det == f.one() else -1
        assert det == f.integer(sign)
        adjugate = tuple(f.scale(cof[3 * j + i], sign) for i in range(3) for j in range(3))
        inverse = _mat_inverse(f, A)
        assert inverse == adjugate
        assert _mat_mul(f, A, inverse) == group.identity


def test_matrix_inverse_rejects_non_unit_determinant(triangle237):
    f = triangle237.field
    doubled = tuple(f.scale(entry, 2) for entry in triangle237.identity)
    with pytest.raises(ValueError, match="not a unit"):
        _mat_inverse(f, doubled)


@pytest.mark.parametrize("orders, count, digest", [
    ((2, 3, 7), 636, "cfe7ecf4f39a029df493ca1afb88a2893f694474353d9617973f31ab54938172"),
    ((3, 3, 4), 356, "8f3c5506ec7834c0d03bd62519544f61ef4f94e3a7c27f12ae6850d7158302ab"),
])
def test_relator_systems_pinned(orders, count, digest):
    relators = TriangleGroup(*orders).dehn.relators
    assert len(relators) == count
    assert hashlib.sha256(repr(relators).encode()).hexdigest() == digest


@pytest.mark.parametrize("orders", [(2, 3, 7), (2, 3, 8), (3, 3, 4), (2, 4, 5)])
def test_identity_words_are_closed_under_rotation_and_inversion(orders):
    """The cyclically reduced identity words of length <= 2r + 1 are
    closed under rotation and inversion already, so the relator system
    built on them directly is the closed one."""
    group = TriangleGroup(*orders)
    seeds = group.identity_words(2 * orders[2] + 1)
    assert group.dehn.relators == close_dehn(seeds, group.alphabet).relators
