import pytest

from cayleyac import convexity
from cayleyac.convexity import (ConstructionEscapedBall, ConvexityProfile,
                                ProfileRow, ac2_consistency_report, ac_profile,
                                compare_witness, length_comparison_check,
                                transfer_verdict)
from cayleyac.explorer import build_ball, inside_path, sphere_pairs
from cayleyac.finite_ext import FiniteNilExtension, klein_bottle_config
from cayleyac.groups import IntegerLattice
from cayleyac.nil import NilGenSet, NilGroup
from cayleyac.sol import SolLattice
from cayleyac.surface import SurfaceGroup


@pytest.fixture(scope="module")
def z2_ball():
    return build_ball(IntegerLattice(2), 10)


def test_lattice_profile_bounded(z2_ball):
    prof = ac_profile(z2_ball, 2, 10, name="z2")
    assert all(k <= 4 for k in prof.k_values() if k >= 0)
    for m in (0, -1):
        with pytest.raises(ValueError):
            ac_profile(z2_ball, m, 10)
    assert prof.bounded_verdict()
    assert all(r.absent_under_cap == 0 for r in prof.rows)


def test_profile_monotone_in_m(z2_ball):
    p2 = ac_profile(z2_ball, 2, 8, name="z2")
    p3 = ac_profile(z2_ball, 3, 8, name="z2")
    for r2, r3 in zip(p2.rows, p3.rows):
        if r2.pairs and r3.pairs:
            assert r3.k_max >= r2.k_max


def test_ac2_consistency(z2_ball):
    profiles = {m: ac_profile(z2_ball, m, 8, name="z2") for m in (2, 3, 4)}
    report = ac2_consistency_report(profiles)
    assert report["k2_bounded"] and report["consistent"]


def test_ac2_consistency_nil(nil_xy_ball12):
    # K(4,n) reaches its plateau of 14 only at n=9, so the window needs the
    # full radius-12 ball to certify constancy
    profiles = {m: ac_profile(nil_xy_ball12, m, 12, name="n1") for m in (2, 3, 4)}
    report = ac2_consistency_report(profiles)
    assert report["k2_bounded"] and report["consistent"]
    assert report["per_m"][4]["k_max"] <= report["per_m"][4]["chain_bound"]


def test_sol_profile_unbounded_and_report():
    ball = build_ball(SolLattice(((2, 1), (1, 1))), 8)
    profiles = {m: ac_profile(ball, m, 8, name="sol") for m in (2, 3, 4)}
    assert not profiles[2].bounded_verdict()
    report = ac2_consistency_report(profiles)
    assert report["consistent"] is None  # hypothesis fails, nothing to corroborate


def test_length_comparison_identical_sets(nil_xy, nil_xy_ball12):
    k, details = length_comparison_check(nil_xy_ball12, nil_xy_ball12)
    assert k == 0 and details["missing_in_other"] == 0


def test_length_comparison_xy_vs_xyz():
    plain = build_ball(NilGroup(1, NilGenSet("square", include_z=False)), 8)
    full = build_ball(NilGroup(1), 8)
    # the same elements exist in both; {x,y,z} never longer
    k = 0
    for idx in range(len(full)):
        elem = full.elements[idx]
        try:
            other = plain.length_of(elem)
        except KeyError:
            continue
        assert other >= full.lengths[idx]
        k = max(k, other - full.lengths[idx])
    assert k <= 20


def test_profile_round_trips(z2_ball):
    prof = ac_profile(z2_ball, 2, 6, name="z2")
    again = ConvexityProfile.from_csv(prof.to_csv())
    assert [r.k_max for r in again.rows] == [r.k_max for r in prof.rows]
    assert again.to_csv() == prof.to_csv()
    j = ConvexityProfile.from_json(prof.to_json())
    assert [r.k_max for r in j.rows] == [r.k_max for r in prof.rows]


def test_transfer_verdict(z2_ball):
    p = ac_profile(z2_ball, 2, 8, name="z2")
    v = transfer_verdict(p, p)
    assert v["transfer_holds"]


def test_compare_witness_flags_escapes(z2_ball):
    # a deliberately bad witness that runs through radius n+1
    def bad_witness(i, j, q):
        return ("x", "x-") + tuple(q)

    with pytest.raises(ConstructionEscapedBall):
        compare_witness(z2_ball, 10, 2, bad_witness)


def test_compare_witness_accepts_inside_paths(z2_ball):
    from cayleyac.explorer import inside_path

    def optimum(i, j, q):
        return inside_path(z2_ball, i, j, 4)

    report = compare_witness(z2_ball, 4, 2, optimum)
    assert report["pairs"] > 0
    assert report["max_constructive"] == report["max_optimal"] == 2


def _searched_rows(ball, m):
    """The profile rows with the inside-path search run on every pair."""
    rows = []
    for n in range(ball.radius + 1):
        pairs, k_max, total, absent = 0, -1, 0, 0
        for i, j, _q in sphere_pairs(ball, n, m):
            pairs += 1
            path = inside_path(ball, i, j, n, cap=4 * n + 64)
            if path is None:
                absent += 1
            else:
                k_max = max(k_max, len(path))
                total += len(path)
        rows.append(ProfileRow(n=n, pairs=pairs, k_max=k_max,
                               total_len=total, absent_under_cap=absent))
    return rows


def _nil_hex():
    return NilGroup(1, NilGenSet("hexagonal", include_z=False))


def _sol():
    return SolLattice(((2, 1), (1, 1)))


@pytest.mark.parametrize("make, radius, ms", [
    (_nil_hex, 8, (2, 3)),
    (_sol, 7, (2, 3)),
    (lambda: FiniteNilExtension(klein_bottle_config()), 4, (2,)),
    (lambda: SurfaceGroup(2), 4, (2,)),
    (lambda: IntegerLattice(2), 8, (4,)),
], ids=["nil_hex", "sol", "klein", "surface2", "z2"])
def test_profile_equals_search_on_every_pair(make, radius, ms):
    """Pairs decided by the walk give the rows the search gives."""
    ball = build_ball(make(), radius)
    for m in ms:
        assert ac_profile(ball, m).rows == _searched_rows(ball, m), m


@pytest.mark.parametrize("make, radius, searches", [
    (_nil_hex, 10, 6204), (_sol, 8, 5492),
], ids=["nil_hex", "sol"])
def test_profile_searches_only_undecided_pairs(monkeypatch, make, radius, searches):
    calls = []
    search = convexity.inside_distance
    monkeypatch.setattr(convexity, "inside_distance",
                        lambda *args, **kw: calls.append(1) or search(*args, **kw))
    ac_profile(build_ball(make(), radius), 2)
    assert len(calls) == searches
