import pytest

from cayleyac.explorer import build_ball
from cayleyac.triangle import (CosField, TriangleGroup, cyclotomic_polynomial,
                               real_minimal_polynomial)


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
    # keys decode back to equal matrices
    for idx in (0, 1, 5, len(triangle_ball) - 1):
        key = triangle_ball.keys[idx]
        assert triangle237.decode_key(key) == triangle_ball.elements[idx]
    # the ring is integral, so a key with another denominator is damaged
    with pytest.raises(ValueError):
        triangle237.decode_key(triangle_ball.keys[1].replace(b"/1", b"/2", 1))


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
