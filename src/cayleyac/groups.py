"""Abstract group interface shared by every concrete family, plus two
elementary reference groups (integer lattices and free groups) used as
oracles in tests and profiles."""

from __future__ import annotations

import abc
import hashlib
from typing import Any, Mapping, Sequence

from .words import Alphabet, Word, UnknownSymbol, free_reduce, word_inverse


def pack_ints(values: Sequence[int]) -> bytes:
    """Fixed-width serialization of signed integers whose byte order agrees
    with numeric order (offset encoding, big endian)."""
    out = b""
    for v in values:
        if not -(1 << 62) <= v < (1 << 62):
            raise OverflowError(f"coordinate out of key range: {v}")
        out += (v + (1 << 62)).to_bytes(8, "big")
    return out


class GroupInterface(abc.ABC):
    """Contract every concrete group implements: pure, immutable elements
    that hash by value, and one injective byte key per element.

    Each group element has exactly one representation, so ``==`` on
    elements is group equality and the only element comparison; word groups
    keep normal forms.  ``key`` serializes an element, so it depends only on
    the element; balls are ordered and stored by it.  Nothing decodes a
    key: a ball cache is read by replaying its parent edges through
    ``multiply`` and comparing each product's key with the stored one."""

    alphabet: Alphabet

    @property
    @abc.abstractmethod
    def identity(self) -> Any: ...

    @abc.abstractmethod
    def multiply(self, u: Any, v: Any) -> Any: ...

    @abc.abstractmethod
    def invert(self, u: Any) -> Any: ...

    @property
    @abc.abstractmethod
    def generator_images(self) -> Mapping[str, Any]: ...

    @abc.abstractmethod
    def key(self, elem: Any) -> bytes: ...

    def evaluate(self, word: Sequence[str]) -> Any:
        """Fold of ``multiply`` over generator images; empty word -> identity."""
        images = self.generator_images
        elem = self.identity
        for letter in word:
            try:
                img = images[letter]
            except KeyError:
                raise UnknownSymbol(letter) from None
            elem = self.multiply(elem, img)
        return elem

    def resolve(self, elem: Any) -> Any:
        """The element itself, which is its only representation.  Nothing in
        the package calls it; it is kept because the benchmark counts and
        times its calls."""
        return elem

    def generator_weight(self, name: str) -> int:
        """Witness-preference weight of a generator (breadth-first tie-break)."""
        return 0

    @abc.abstractmethod
    def fingerprint(self) -> str: ...

    def gens_fingerprint(self) -> str:
        return hashlib.sha256(" ".join(self.alphabet.names).encode()).hexdigest()[:16]

    def word_fingerprint(self, data: str) -> str:
        return hashlib.sha256(data.encode()).hexdigest()[:16]


class IntegerLattice(GroupInterface):
    """Z^rank with the standard generating set; a counting oracle."""

    def __init__(self, rank: int = 2):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        names = ["x", "y", "w"][:rank] if rank <= 3 else [f"g{i}" for i in range(rank)]
        self.alphabet = Alphabet(names)
        self._images = {}
        for i, name in enumerate(names):
            vec = [0] * rank
            vec[i] = 1
            self._images[name] = tuple(vec)
            self._images[self.alphabet.inverse(name)] = tuple(-x for x in vec)

    @property
    def identity(self):
        return (0,) * self.rank

    def multiply(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def invert(self, u):
        return tuple(-a for a in u)

    @property
    def generator_images(self):
        return self._images

    def key(self, elem):
        return pack_ints(elem)

    def fingerprint(self):
        return self.word_fingerprint(f"lattice rank={self.rank}")


class FreeGroup(GroupInterface):
    """Free group on ``rank`` letters; elements are reduced words."""

    def __init__(self, rank: int = 2):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        names = ["a", "b", "c", "d"][:rank] if rank <= 4 else [f"a{i}" for i in range(rank)]
        self.alphabet = Alphabet(names)
        self._images = {name: (name,) for name in self.alphabet.names}

    @property
    def identity(self) -> Word:
        return ()

    def multiply(self, u: Word, v: Word) -> Word:
        return free_reduce(u + v, self.alphabet)

    def invert(self, u: Word) -> Word:
        return word_inverse(u, self.alphabet)

    @property
    def generator_images(self):
        return self._images

    def key(self, elem: Word) -> bytes:
        return encode_word(elem, self.alphabet)

    def fingerprint(self):
        return self.word_fingerprint(f"free rank={self.rank}")


def encode_word(word: Sequence[str], alphabet: Alphabet) -> bytes:
    try:
        return bytes(map(alphabet._index.__getitem__, word))
    except KeyError:
        for letter in word:
            alphabet.index(letter)  # UnknownSymbol for the first unknown letter
        raise


def check_group_axioms(group: GroupInterface, elements, trials: int = 100, rng=None) -> None:
    """Randomized two-sided identity / inverse / associativity check used by
    the test suites.  Raises AssertionError on the first violation."""
    import random

    rng = rng or random.Random(0)
    pool = list(elements)
    e = group.identity
    for _ in range(trials):
        u = rng.choice(pool)
        v = rng.choice(pool)
        w = rng.choice(pool)
        assert group.multiply(u, e) == u
        assert group.multiply(e, u) == u
        assert group.multiply(u, group.invert(u)) == e
        assert group.multiply(group.invert(u), u) == e
        left = group.multiply(group.multiply(u, v), w)
        right = group.multiply(u, group.multiply(v, w))
        assert left == right
