import random

import pytest

from cayleyac.explorer import Ball, build_ball
from cayleyac.groups import (FreeGroup, IntegerLattice, check_group_axioms,
                             encode_word, pack_ints)
from cayleyac.words import Alphabet, UnknownSymbol


def test_pack_ints_order_and_range():
    rng = random.Random(50)
    values = [tuple(rng.randrange(-10 ** 9, 10 ** 9) for _ in range(3)) for _ in range(200)]
    assert all(len(pack_ints(v)) == 24 for v in values)
    assert len(set(map(pack_ints, values))) == len(set(values))
    assert sorted(values, key=pack_ints) == sorted(values)
    assert pack_ints((-(1 << 62), (1 << 62) - 1)) == bytes(8) + b"\x7f" + b"\xff" * 7
    for v in (1 << 62, -(1 << 62) - 1, 1 << 63):
        with pytest.raises(OverflowError):
            pack_ints((v,))


def test_word_codec():
    """A word's key is its letters' alphabet indices, and a free-group
    ball read back from its bytes holds the built ball's words."""
    a = Alphabet(["x", "y"])
    assert encode_word(("x", "y-", "x-"), a) == bytes([0, 3, 1])
    with pytest.raises(UnknownSymbol):
        encode_word(("x", "z"), a)
    group = FreeGroup(2)
    ball = build_ball(group, 3)
    assert Ball.from_bytes(ball.to_bytes(), group).elements == ball.elements


def test_lattice_axioms():
    g = IntegerLattice(2)
    rng = random.Random(51)
    pool = [(rng.randrange(-9, 10), rng.randrange(-9, 10)) for _ in range(40)]
    check_group_axioms(g, pool, trials=200)


def test_free_group_axioms_and_evaluate():
    g = FreeGroup(2)
    assert g.evaluate(("a", "b", "b-", "a-")) == ()
    assert g.evaluate(("a", "b")) == ("a", "b")
    rng = random.Random(52)
    pool = [g.evaluate(tuple(rng.choice(g.alphabet.names) for _ in range(6)))
            for _ in range(30)]
    check_group_axioms(g, pool, trials=200)


def test_evaluate_rejects_unknown_letters():
    g = IntegerLattice(2)
    with pytest.raises(UnknownSymbol):
        g.evaluate(("x", "q"))


def test_fingerprints_distinguish_groups():
    assert IntegerLattice(2).fingerprint() != IntegerLattice(3).fingerprint()
    assert FreeGroup(2).fingerprint() != IntegerLattice(2).fingerprint()
