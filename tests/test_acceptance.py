"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them).  Criterion 8's fiber-tail normal form (8b) is
expected to fail: no finite saturated generating set supports it for these
lattices (the README's acceptance notes give the counterexample); the test
states the fact it was asked to check and fails honestly.
"""

import random
import time

import pytest

from cayleyac.convexity import ac_profile, compare_witness
from cayleyac.dehn import d_reduce, is_d_reduced, measure_quasi_constants
from cayleyac.explorer import build_ball
from cayleyac.extensions import central_witness_path
from cayleyac.geodesics import HexGeodesicTable, square_geodesic
from cayleyac.lattice import (black_triangle_count, max_hexagon_black_count,
                              max_rectangle_area, signed_area)
from cayleyac.nil import (NilGenSet, NilGroup, SaturationSpec,
                          central_power_length_bound, fiber_interval,
                          nil_invert, nil_multiply)
from cayleyac.sol import SolLattice
from cayleyac.words import Alphabet, word_inverse


def _report(number: int, ok: bool, detail: str):
    print(f"CRITERION {number} {'PASS' if ok else 'FAIL'}: {detail}")


# -- criterion 1: Nil relator suite ------------------------------------------


def test_criterion_1_nil_relators():
    t0 = time.time()
    for e in (1, 2, 3):
        g = NilGroup(e)  # construction checks [x,z]=[y,z]=1, [x,y]=z^e
        assert g.evaluate(("x-", "y-", "x", "y")) == (0, 0, e)
    rng = random.Random(101)
    for _ in range(10 ** 4):
        e = rng.choice((1, 2, 3))
        u, v, w = (
            (rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(-40, 41))
            for _ in range(3)
        )
        assert nil_multiply(nil_multiply(u, v, e), w, e) == \
            nil_multiply(u, nil_multiply(v, w, e), e)
        assert nil_multiply(u, nil_invert(u, e), e) == (0, 0, 0)
    elapsed = time.time() - t0
    _report(1, elapsed < 1.0, f"relators and 10^4 random triples in {elapsed:.2f}s")
    assert elapsed < 1.0


# -- criterion 2: area oracles ------------------------------------------------


def _closed_words(alphabet, count, max_half, seed):
    rng = random.Random(seed)
    for _ in range(count):
        walk = tuple(rng.choice(alphabet.names) for _ in range(rng.randrange(max_half + 1)))
        back = list(word_inverse(walk, alphabet))
        rng.shuffle(back)
        yield walk + tuple(back)


def test_criterion_2_area_oracles():
    t0 = time.time()
    sq = Alphabet(["x", "y"])
    hx = Alphabet(["x", "y", "t"])
    groups = {e: NilGroup(e, NilGenSet("square", include_z=False)) for e in (1, 2, 3)}
    hexgroups = {e: NilGroup(e, NilGenSet("hexagonal", include_z=False)) for e in (1, 2, 3)}
    for i, w in enumerate(_closed_words(sq, 10 ** 4, 20, seed=202)):
        e = (i % 3) + 1
        a, b, t = groups[e].evaluate(w)
        assert (a, b) == (0, 0) and t == e * signed_area(w)
    for i, w in enumerate(_closed_words(hx, 10 ** 4, 20, seed=203)):
        e = (i % 3) + 1
        a, b, t = hexgroups[e].evaluate(w)
        assert (a, b) == (0, 0) and t == e * black_triangle_count(w)
    elapsed = time.time() - t0
    _report(2, elapsed < 30.0, f"2x10^4 closed words, exact match, {elapsed:.1f}s")
    assert elapsed < 30.0


# -- criterion 3: geodesic structure --------------------------------------------


@pytest.fixture(scope="module")
def square_ball14(nil_xy):
    return build_ball(nil_xy, 14)


@pytest.fixture(scope="module")
def square_ball20(nil_xy):
    return build_ball(nil_xy, 20)


@pytest.fixture(scope="module")
def hex_ball20(nil_hex):
    return build_ball(nil_hex, 20)


def test_criterion_3_geodesic_structure(nil_xy, nil_hex, square_ball14,
                                        square_ball20, hex_ball20,
                                        nil_hex_ball12):
    t0 = time.time()
    # interval property, gap-free
    for ball, radius in ((square_ball14, 14), (nil_hex_ball12, 12)):
        seen = set()
        for elem in ball.elements:
            g = (elem[0], elem[1])
            if g not in seen:
                seen.add(g)
                fiber_interval(ball, g)  # raises on a gap

    # closed extremals achieve the brute-force shape maximum for every length
    for n in range(0, 21):
        interval = fiber_interval(square_ball20, (0, 0), n)
        assert interval[1] == max_rectangle_area(n)
        assert interval[0] == -interval[1]
    for n in range(0, 21):
        interval = fiber_interval(hex_ball20, (0, 0), n)
        assert interval[1] == max_hexagon_black_count(n)
        assert interval[0] == -interval[1]

    # standard geodesics realize the breadth-first length on all of B(12)
    table = HexGeodesicTable(1)
    for idx in range(len(square_ball14)):
        g = square_ball14.elements[idx]
        if square_ball14.lengths[idx] > 12:
            continue
        w = square_geodesic(g, 1)
        assert len(w) == square_ball14.lengths[idx] and nil_xy.evaluate(w) == g
    for idx in range(len(nil_hex_ball12)):
        g = nil_hex_ball12.elements[idx]
        w = table.geodesic(g)
        assert len(w) == nil_hex_ball12.lengths[idx] and nil_hex.evaluate(w) == g
    elapsed = time.time() - t0
    _report(3, elapsed < 300.0,
            f"intervals, extremal shapes, geodesic lengths on B(12) in {elapsed:.1f}s")
    assert elapsed < 300.0




# -- criterion 4: explicit constants ---------------------------------------------


def test_criterion_4_paper_constants(nil_xy):
    # length transfer between {x,y} and {x,y,z} at e=1
    full = build_ball(NilGroup(1), 10)
    plain30 = build_ball(nil_xy, 30)
    for idx in range(len(full)):
        g = full.elements[idx]
        diff = plain30.length_of(g) - full.lengths[idx]  # raises if > 30
        assert 0 <= diff <= 20

    # central powers up to 25 cost at most 20 plain letters
    for i in range(-25, 26):
        assert plain30.length_of((0, 0, i)) <= 20

    # saturation transfer: discrepancy within ceil(16k/e) + e on B(8)
    samples = [
        (1, SaturationSpec(x_offsets=(1,))),
        (1, SaturationSpec(x_offsets=(2,), y_offsets=(1,), z_powers=(2,))),
        (2, SaturationSpec(x_offsets=(1,), z_powers=(3,))),
    ]
    for e, spec in samples:
        k = spec.max_offset()
        bound = -(-16 * k // e) + e
        base = build_ball(NilGroup(e), 8)
        sat = build_ball(NilGroup(e, NilGenSet("square", saturation=spec)), 8)
        worst = 0
        for idx in range(len(base)):
            worst = max(worst, base.lengths[idx] - sat.length_of(base.elements[idx]))
        assert 0 <= worst <= bound

    # central power bound against breadth-first lengths, t <= 100
    for e in (1, 2, 3):
        radius = max(central_power_length_bound(t, e) for t in range(101))
        ball = build_ball(NilGroup(e), radius)
        for t in range(101):
            assert ball.length_of((0, 0, t)) <= central_power_length_bound(t, e)
        # no witness anywhere in the ball needs more than 25 central letters
        if e == 1:
            assert max(ball.weights) <= 25
    _report(4, True, "transfer <= 20, l(z^i) <= 20, saturation bounds, power bound")


# -- criterion 5: almost-convexity profiles ----------------------------------------


def test_criterion_5_profiles(nil_xy_ball12, nil_hex_ball12):
    t0 = time.time()
    prof_sq = ac_profile(nil_xy_ball12, 2, 12, name="n1 {x,y}")
    assert prof_sq.bounded_verdict(window=4), prof_sq.k_values()
    prof_hx = ac_profile(nil_hex_ball12, 2, 12, name="n1 {x,y,t}")
    assert prof_hx.bounded_verdict(window=4), prof_hx.k_values()

    sol = SolLattice(((2, 1), (1, 1)))
    sol_ball = build_ball(sol, 10)
    prof_sol = ac_profile(sol_ball, 2, 10, name="sol")
    ks = prof_sol.k_values()
    assert any(ks[n + 1] > ks[n] for n in range(6, 10)), ks
    assert not prof_sol.bounded_verdict(window=4)
    elapsed = time.time() - t0
    _report(5, elapsed < 1800.0,
            f"square K={prof_sq.k_values()[-1]}, hex K={prof_hx.k_values()[-1]}, "
            f"sol K grows {ks[6:]}; {elapsed:.1f}s")
    assert elapsed < 1800.0


# -- criterion 6: Dehn suite ---------------------------------------------------------


def _identity_words(group, system, count, max_len, seed):
    rng = random.Random(seed)
    names = group.alphabet.names
    out = []
    while len(out) < count:
        w = ()
        while True:
            u = tuple(rng.choice(names) for _ in range(rng.randrange(0, 6)))
            w = w + u + rng.choice(system.relators) + word_inverse(u, group.alphabet)
            if len(w) >= max_len - 8 or rng.random() < 0.4:
                break
        if len(w) <= max_len:
            out.append(w)
    return out


def test_criterion_6_dehn_suite(surface2, surface_quasi, triangle237,
                                triangle_dehn, triangle_ball):
    rng = random.Random(606)
    for group, system in ((surface2, surface2.dehn), (triangle237, triangle_dehn)):
        for w in _identity_words(group, system, 10 ** 3, 30, seed=rng.randrange(2 ** 30)):
            assert d_reduce(w, system) == ()
        names = group.alphabet.names
        for _ in range(500):
            w = tuple(rng.choice(names) for _ in range(rng.randrange(0, 24)))
            assert len(d_reduce(w, system)) <= len(w)

    q4, q5 = surface_quasi
    assert (q4.lam, q4.eps, q4.k_of_m[2]) == (q5.lam, q5.eps, q5.k_of_m[2])
    t7 = measure_quasi_constants(triangle237, triangle_dehn, triangle_ball, 7,
                                 samples=300, seed=7)
    t8 = measure_quasi_constants(triangle237, triangle_dehn, triangle_ball, 8,
                                 samples=300, seed=7)
    assert (t7.lam, t7.eps, t7.k_of_m[2]) == (t8.lam, t8.eps, t8.k_of_m[2])
    _report(6, True,
            f"10^3 identity words reduced; constants surface {q5.lam},{q5.eps},"
            f"k2={q5.k_of_m[2]} triangle {t8.lam},{t8.eps},k2={t8.k_of_m[2]}")


# -- criterion 7: central extension ---------------------------------------------------


def test_criterion_7_central_extension(genus2_ext, ext_ball6, surface_ball5):
    t0 = time.time()
    rng = random.Random(707)
    names = genus2_ext.alphabet.names
    pool = [genus2_ext.evaluate(tuple(rng.choice(names) for _ in range(rng.randrange(7))))
            for _ in range(60)]
    for _ in range(10 ** 4):
        u, v, w = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        left = genus2_ext.multiply(genus2_ext.multiply(u, v), w)
        right = genus2_ext.multiply(u, genus2_ext.multiply(v, w))
        assert genus2_ext.element_equal(left, right)

    for cname, _vec in genus2_ext.central.letter_pairs():
        c = genus2_ext.generator_images[cname]
        for gname in names:
            g = genus2_ext.generator_images[gname]
            assert genus2_ext.element_equal(genus2_ext.multiply(c, g),
                                            genus2_ext.multiply(g, c))

    # every element of B(5) has a geodesic whose projection is D-reduced
    for idx in range(len(ext_ball6)):
        if ext_ball6.lengths[idx] > 5:
            break
        w = ext_ball6.geodesic_witness(idx)
        shaped = genus2_ext.to_dreduced_shape(w)
        assert len(shaped) == len(w)
        _, base_part = genus2_ext.split_central(shaped)
        assert is_d_reduced(base_part, genus2_ext.dehn)

    # the central subgroup embeds isometrically on B(6)
    for idx in range(len(ext_ball6)):
        elem = ext_ball6.elements[idx]
        if not elem.base.word:
            assert genus2_ext.central_length(elem.avec) == ext_ball6.lengths[idx]

    # witness paths on spheres <= 5 never leave the ball
    worst = 0
    for n in range(1, 6):
        report = compare_witness(
            ext_ball6, n, 2,
            lambda i, j, q: central_witness_path(
                genus2_ext, ext_ball6, surface_ball5,
                ext_ball6.elements[i], ext_ball6.elements[j], q, n,
            ),
        )
        worst = max(worst, report["max_constructive"])
    elapsed = time.time() - t0
    _report(7, True, f"assoc, centrality, shapes, isometry, witnesses<= {worst}; "
                     f"{elapsed:.0f}s")


# -- criterion 8: finite extensions ------------------------------------------------------


def test_criterion_8a_cocycle_associativity(klein, s2222):
    rng = random.Random(808)
    for group in (klein, s2222):
        fibers = [(rng.randrange(-5, 6), rng.randrange(-5, 6), rng.randrange(-9, 10))
                  for _ in range(100)]
        for q1 in range(group.Q):
            for q2 in range(group.Q):
                for q3 in range(group.Q):
                    for n1 in fibers:
                        u = (n1, q1)
                        v = (rng.choice(fibers), q2)
                        w = (rng.choice(fibers), q3)
                        assert group.multiply(group.multiply(u, v), w) == \
                            group.multiply(u, group.multiply(v, w))
    _report(8, True, "8a cocycle associativity exhaustive over Q^3 x 100 fibers")


def test_criterion_8b_fiber_tail_form(klein, s2222):
    # This is the one criterion the artifact cannot meet: conjugating by a
    # lift shifts central offsets of the fiber letters, and the composite of
    # two half-turn conjugations is an inner twist by x that shifts them
    # unboundedly, so no finite saturated set yields fiber-then-tail
    # geodesics for every element.  l_G(r^-1 yz^-R) = 2 with best tail form
    # of length 3 is a closed-form counterexample at every offset range.
    failures = {}
    for group in (klein, s2222):
        ball = build_ball(group, 8)
        fiber_ball = build_ball(group.fiber_group(), 8)
        bad = 0
        for idx in range(len(ball)):
            w = ball.geodesic_witness(idx)
            out = group.normalize_fiber_tail(w, fiber_ball)
            if out is None or len(out) != ball.lengths[idx]:
                bad += 1
        failures[group.config.name] = (bad, len(ball))
    detail = ", ".join(f"{name}: {bad}/{total} elements without the form"
                       for name, (bad, total) in failures.items())
    ok = all(bad == 0 for bad, _ in failures.values())
    _report(8, ok, f"8b fiber-tail geodesic form on B(8): {detail}")
    assert ok, (
        "fiber-tail geodesic form fails on B(8): " + detail +
        " (structurally unattainable for any finite saturated set; "
        "see the acceptance notes in the README)"
    )


def test_criterion_8c_quotient_geodesy(klein, s2222):
    for group in (klein, s2222):
        qball = build_ball(group.quotient(), 8)
        for idx in range(len(qball)):
            (v, q) = qball.elements[idx]
            if q == 0:
                assert qball.lengths[idx] >= abs(v[0]) + abs(v[1])
    _report(8, True, "8c planar-lattice geodesy in both quotients on B(8)")


def test_criterion_8d_profiles_bounded(klein, s2222):
    t0 = time.time()
    details = []
    for group in (klein, s2222):
        fiber_ball = build_ball(group.fiber_group(), 10)
        fiber_prof = ac_profile(fiber_ball, 2, 10, name=group.config.name + " fiber")
        assert fiber_prof.bounded_verdict(window=4), fiber_prof.k_values()
        ball = build_ball(group, 10)
        prof = ac_profile(ball, 2, 10, name=group.config.name)
        assert prof.bounded_verdict(window=4), (group.config.name, prof.k_values())
        details.append(f"{group.config.name} K={max(prof.k_values())} "
                       f"(fiber K={max(fiber_prof.k_values())})")
    _report(8, True, f"8d K(2,n) bounded to n=10: {', '.join(details)} "
                     f"({time.time() - t0:.0f}s)")


# -- criterion 9: determinism ---------------------------------------------------------------


def test_criterion_9_determinism(nil_hex, surface2):
    hex_bytes = [build_ball(nil_hex, 8).to_bytes() for _ in range(2)]
    assert hex_bytes[0] == hex_bytes[1]

    sol = SolLattice(((2, 1), (1, 1)))
    sol_bytes = [build_ball(sol, 6).to_bytes() for _ in range(2)]
    assert sol_bytes[0] == sol_bytes[1]

    surf_bytes = [build_ball(surface2, 4).to_bytes() for _ in range(2)]
    assert surf_bytes[0] == surf_bytes[1]

    hex_ball = build_ball(nil_hex, 8)
    profiles = [ac_profile(hex_ball, 2, 8, name="hex").to_csv() for _ in range(2)]
    assert profiles[0] == profiles[1]
    _report(9, True, "balls and profiles bit-identical across runs")
