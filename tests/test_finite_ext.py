import random

import pytest

from cayleyac.explorer import build_ball
from cayleyac.finite_ext import (BUILTIN_CONFIGS, CocycleInconsistent,
                                 FiniteExtensionConfig, FiniteNilExtension,
                                 NilAutomorphism, klein_bottle_config)
from cayleyac.groups import check_group_axioms
from cayleyac.nil import nil_multiply, nil_power


def _random_fiber(rng):
    return (rng.randrange(-4, 5), rng.randrange(-4, 5), rng.randrange(-8, 9))


def test_identity_acts_as_identity(klein):
    e = klein.identity
    g = (( -2, 3, 5), 1)
    assert klein.multiply(e, g) == g
    assert klein.multiply(g, e) == g


def test_klein_structure(klein):
    r = klein.generator_images["r"]
    x = klein.generator_images["x"]
    # the lift squares to x
    assert klein.multiply(r, r) == x
    # conjugation inverts the fiber direction and twists y by z^(-e/2)
    y = klein.generator_images["y"]
    z = klein.generator_images["z"]
    conj = klein.multiply(klein.multiply(r, y), klein.invert(r))
    expected = nil_multiply((0, -1, 0), (0, 0, -klein.e // 2), klein.e)
    assert conj == (expected, 0)
    conj_z = klein.multiply(klein.multiply(r, z), klein.invert(r))
    assert conj_z == ((0, 0, -1), 0)


@pytest.mark.parametrize("make, e", [
    (BUILTIN_CONFIGS["klein_bottle"], 2), (BUILTIN_CONFIGS["klein_bottle"], 4),
    (BUILTIN_CONFIGS["s2222"], 1), (BUILTIN_CONFIGS["s2222"], 3),
])
def test_action_closed_form(make, e):
    """apply(a, b, t) is x_image^a y_image^b z_image^t, negative powers
    included."""
    actions = FiniteNilExtension(make(e=e)).actions
    grid = range(-3, 4)
    for phi in actions.values():
        for a in grid:
            for b in grid:
                for t in grid:
                    power = nil_multiply(nil_power(phi.x_image, a, e),
                                         nil_power(phi.y_image, b, e), e)
                    power = nil_multiply(power, nil_power(phi.z_image, t, e), e)
                    assert phi.apply((a, b, t)) == power


def test_check_rejects_non_central_z_image():
    # with e = 0 the commutator conditions hold for any z image
    with pytest.raises(AssertionError):
        NilAutomorphism((1, 0, 0), (0, 1, 0), (1, 0, 1), 0).check()


def test_klein_requires_even_degree():
    with pytest.raises(CocycleInconsistent):
        klein_bottle_config(e=1)


def test_untwisted_klein_action_is_inconsistent():
    # the naive action y -> y^-1, z -> z^-1 with rho^2 = x fails associativity
    phi = NilAutomorphism((1, 0, 0), (0, -1, 0), (0, 0, -1), 2)
    config = FiniteExtensionConfig(
        name="broken", e=2, quotient_order=2,
        actions={1: phi}, cocycle={(1, 1): (1, 0, 0)},
        lifts={"r": ((0, 0, 0), 1)},
    )
    with pytest.raises(CocycleInconsistent):
        FiniteNilExtension(config)


def test_s2222_structure(s2222):
    a = s2222.generator_images["a"]
    # a^2 = z^m, central
    sq = s2222.multiply(a, a)
    assert sq == ((0, 0, 1), 0)
    x = s2222.generator_images["x"]
    conj = s2222.multiply(s2222.multiply(a, x), s2222.invert(a))
    assert conj == ((-1, 0, 0), 0)
    z = s2222.generator_images["z"]
    assert s2222.multiply(s2222.multiply(a, z), s2222.invert(a)) == ((0, 0, 1), 0)


def test_axioms_random(klein, s2222):
    rng = random.Random(30)
    for group in (klein, s2222):
        pool = [(_random_fiber(rng), rng.randrange(2)) for _ in range(60)]
        check_group_axioms(group, pool, trials=10 ** 4)


def test_cocycle_associativity_grid(klein, s2222):
    rng = random.Random(31)
    for group in (klein, s2222):
        fibers = [_random_fiber(rng) for _ in range(100)]
        for q1 in range(group.Q):
            for q2 in range(group.Q):
                for q3 in range(group.Q):
                    n1, n2, n3 = rng.choice(fibers), rng.choice(fibers), rng.choice(fibers)
                    u, v, w = (n1, q1), (n2, q2), (n3, q3)
                    assert group.multiply(group.multiply(u, v), w) == \
                        group.multiply(u, group.multiply(v, w))


def test_permutation_flag_reported(klein, s2222):
    # no finite saturated set closes under all the lift conjugations (the
    # composite of two half-turn conjugations is an inner twist by x, which
    # shifts central offsets forever); the flag records that honestly
    assert klein.permutes_fiber_set is False
    assert s2222.permutes_fiber_set is False


def test_quotient_wallpaper(klein, s2222):
    kq = klein.quotient()
    rho = kq.generator_images["r"]
    assert kq.multiply(rho, rho) == ((1, 0), 0)  # glide squared = x-translation
    sq = s2222.quotient()
    a, b = sq.generator_images["a"], sq.generator_images["b"]
    assert sq.multiply(b, a) == ((1, 0), 0)  # two half-turns compose to x
    rng = random.Random(32)
    pool = [((rng.randrange(-4, 5), rng.randrange(-4, 5)), rng.randrange(2))
            for _ in range(50)]
    for q in (kq, sq):
        check_group_axioms(q, pool, trials=300)


def test_quotient_lattice_geodesy(klein, s2222):
    for group in (klein, s2222):
        qball = build_ball(group.quotient(), 8)
        for idx in range(len(qball)):
            (v, q) = qball.elements[idx]
            if q == 0:
                assert qball.lengths[idx] >= abs(v[0]) + abs(v[1])


def test_fiber_tail_normalization(klein):
    fiber_ball = build_ball(klein.fiber_group(), 7)
    # pure fiber words normalize to a fiber geodesic, no tail
    w = ("x", "y", "z")
    out = klein.normalize_fiber_tail(w, fiber_ball)
    assert out is not None and klein.evaluate(out) == klein.evaluate(w)
    assert len(out) <= len(w)
    # a word with a lift letter comes back in fiber-then-tail shape
    w2 = ("r", "x", "x")
    out2 = klein.normalize_fiber_tail(w2, fiber_ball)
    assert out2 is not None
    assert klein.evaluate(out2) == klein.evaluate(w2)
    lifts = set(klein.lift_letters())
    seen_lift = False
    for letter in out2:
        if letter in lifts:
            seen_lift = True
        else:
            assert not seen_lift  # fiber letters all precede the tail


def test_overlong_tail_is_shortened(klein):
    # three lift letters collapse: r r r = x r, so the tail shrinks and the
    # fiber prefix grows without the word getting longer
    fiber_ball = build_ball(klein.fiber_group(), 4)
    out = klein.normalize_fiber_tail(("r", "r", "r"), fiber_ball)
    assert out is not None and len(out) <= 3
    assert klein.evaluate(out) == klein.evaluate(("r", "r", "r"))
    tail = [letter for letter in out if letter in set(klein.lift_letters())]
    assert len(tail) <= klein.Q


def test_fiber_tail_counterexample(klein):
    # l_G(r^-1 * y z^-R) = 2, but the best fiber-first form has length 3:
    # the tail normal form genuinely fails to reach geodesic length here
    fiber_ball = build_ball(klein.fiber_group(), 6)
    R = max(klein.config.saturation.y_offsets)
    word = ("r-", f"yz{-R}")
    assert klein.evaluate(word)[1] == 1
    ball = build_ball(klein, 3)
    assert ball.length_of(klein.evaluate(word)) == 2
    out = klein.normalize_fiber_tail(word, fiber_ball)
    assert out is not None and len(out) == 3


def test_fiber_geodesy_reported(klein):
    # the Klein inclusion is geodesic on the tested range; reported, not assumed
    ball = build_ball(klein, 6)
    fiber_ball = build_ball(klein.fiber_group(), 6)
    for idx in range(len(fiber_ball)):
        elem = fiber_ball.elements[idx]
        assert ball.length_of((elem, 0)) == fiber_ball.lengths[idx]
