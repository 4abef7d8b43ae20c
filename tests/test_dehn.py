import random

import pytest

from cayleyac.dehn import (DehnSystem, EmptyRelator, close_dehn,
                           close_dehn_with_charges, d_reduce,
                           d_reduce_with_charges, is_d_reduced,
                           measure_quasi_constants, surface_alphabet,
                           surface_relator, triangle_relators)
from cayleyac.explorer import build_ball
from cayleyac.groups import FreeGroup
from cayleyac.words import Alphabet, word_inverse


def test_close_dehn_counts():
    a = Alphabet(["x", "y"])
    system = close_dehn([("x", "y", "x-", "y-")], a)
    assert len(system.relators) == 8  # 4 rotations x inverse

    genus2 = close_dehn([surface_relator(2)], surface_alphabet(2))
    assert len(genus2.relators) == 16

    again = close_dehn(genus2.relators, surface_alphabet(2))
    assert again.relators == genus2.relators  # idempotent

    with pytest.raises(EmptyRelator):
        close_dehn([()], a)
    with pytest.raises(EmptyRelator):
        close_dehn([("x", "x-")], a)


def test_relators_evaluate_to_identity(surface2):
    for rel in surface2.dehn.relators:
        assert surface2.is_identity_word(rel)


def test_d_reduce_definition_instance():
    a = surface_alphabet(2)
    system = close_dehn([surface_relator(2)], a)
    rel = surface_relator(2)
    prefix = rel[:5]
    reduced = d_reduce(prefix, system)
    assert reduced == word_inverse(rel[5:], a)
    assert len(reduced) == 3


def test_d_reduce_identity_words_surface(surface2):
    rng = random.Random(10)
    system = surface2.dehn
    names = surface2.alphabet.names
    for _ in range(200):
        w = ()
        while True:
            u = tuple(rng.choice(names) for _ in range(rng.randrange(0, 6)))
            w = w + u + rng.choice(system.relators) + word_inverse(u, surface2.alphabet)
            if len(w) > 20 or rng.random() < 0.5:
                break
        assert d_reduce(w, system) == ()


def test_d_reduce_never_lengthens(surface2):
    rng = random.Random(11)
    names = surface2.alphabet.names
    for _ in range(300):
        w = tuple(rng.choice(names) for _ in range(rng.randrange(0, 18)))
        red = d_reduce(w, surface2.dehn)
        assert len(red) <= len(w)
        assert surface2.is_identity_word(red + word_inverse(w, surface2.alphabet))


def test_is_d_reduced():
    a = surface_alphabet(2)
    system = close_dehn([surface_relator(2)], a)
    assert is_d_reduced((), system)
    assert not is_d_reduced(surface_relator(2), system)
    red = d_reduce(surface_relator(2)[:6], system)
    assert is_d_reduced(red, system)


def test_triangle_relators_skip_self_inverse_powers():
    rels, alphabet = triangle_relators(2, 3, 7)
    assert ("u",) * 2 not in rels
    assert ("v",) * 3 in rels
    assert ("u", "v") * 7 in rels
    assert alphabet.inverse("u") == "u"


def test_d_reduce_identity_words_triangle(triangle237, triangle_dehn):
    rng = random.Random(12)
    names = triangle237.alphabet.names
    for _ in range(200):
        w = ()
        while True:
            u = tuple(rng.choice(names) for _ in range(rng.randrange(0, 5)))
            w = w + u + rng.choice(triangle_dehn.relators) + word_inverse(u, triangle237.alphabet)
            if len(w) > 24 or rng.random() < 0.5:
                break
        assert d_reduce(w, triangle_dehn) == ()


def test_charged_closure_signs():
    a = surface_alphabet(2)
    rel = surface_relator(2)
    system, charges = close_dehn_with_charges({rel: (1,)}, a)
    for r in system.relators:
        assert charges[r] in ((1,), (-1,))
        assert charges[word_inverse(r, a)] == tuple(-c for c in charges[r])
    word, consumed = d_reduce_with_charges(rel, system, charges, 1)
    assert word == () and consumed == (1,)
    word, consumed = d_reduce_with_charges(word_inverse(rel, a), system, charges, 1)
    assert word == () and consumed == (-1,)


def test_free_group_constants():
    free = FreeGroup(2)
    ball = build_ball(free, 6)
    system = DehnSystem(free.alphabet, ())
    qc = measure_quasi_constants(free, system, ball, 6, samples=80, seed=3)
    assert qc.lam == 1 and qc.eps == 0
    # every sampled word would be empty: rejected instead of sampling forever
    for radius in (0, -1):
        with pytest.raises(ValueError):
            measure_quasi_constants(free, system, ball, radius, samples=80, seed=3)


def test_surface_constants_stable(surface2, surface_ball5, surface_quasi):
    q4, q5 = surface_quasi
    assert (q4.lam, q4.eps, q4.k_of_m[2]) == (q5.lam, q5.eps, q5.k_of_m[2])
    assert q5.lam == 1 and q5.eps == 0


def test_triangle_constants_stable(triangle237, triangle_dehn):
    ball = build_ball(triangle237, 8)
    q7 = measure_quasi_constants(triangle237, triangle_dehn, ball, 7, samples=300, seed=7)
    q8 = measure_quasi_constants(triangle237, triangle_dehn, ball, 8, samples=300, seed=7)
    assert (q7.lam, q7.eps, q7.k_of_m[2]) == (q8.lam, q8.eps, q8.k_of_m[2])
    assert q8.k_of_m[2] >= 1
