import random

import pytest

from cayleyac.groups import (FreeGroup, IntegerLattice, check_group_axioms,
                             decode_word, encode_word, pack_ints, unpack_ints)
from cayleyac.words import Alphabet, UnknownSymbol


def test_pack_ints_round_trip_and_order():
    rng = random.Random(50)
    values = [tuple(rng.randrange(-10 ** 9, 10 ** 9) for _ in range(3)) for _ in range(200)]
    for v in values:
        assert unpack_ints(pack_ints(v), len(v)) == v
    packed = sorted(pack_ints(v) for v in values)
    assert [unpack_ints(p, 3) for p in packed] == sorted(values)
    for key in (pack_ints((1, 2)) + b"\0", pack_ints((1, 2))[1:]):
        with pytest.raises(ValueError):
            unpack_ints(key, 2)
    with pytest.raises(OverflowError):
        pack_ints((1 << 63,))


def test_word_codec():
    a = Alphabet(["x", "y"])
    w = ("x", "y-", "x-")
    assert decode_word(encode_word(w, a), a) == w


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
