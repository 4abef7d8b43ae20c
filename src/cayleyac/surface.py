"""Orientable surface groups with Dehn reduction as the word problem.

Equality is decided soundly.  A fingerprint -- the abelianization vector and
the image under one homomorphism into SL(2, p) -- is a complete *negative*
test, and words with equal fingerprints are compared by Dehn-reducing
u * v^-1.  The homomorphism is written down in closed form: handle 1 goes to
a random pair (U, W); each middle handle goes to (cWc^-1, cZc^-1) with
c = [U, W] and a fresh Z, after which the product so far is again one
commutator [cUWU^-1c^-1, cZU^-1c^-1]; the last handle goes to
(cWc^-1, cUc^-1), whose commutator [U, W]^-1 closes the relator to I.  This
map has a small built-in kernel (a2 and [a1,b1] b1 [a1,b1]^-1 have one
image), which the abelianization vector separates.

The fingerprint is one flat 5-tuple: the abelianization vector packed into
one int, then the four matrix entries.  The packing (coordinate i times
2**(32 i)) is additive, so the fingerprint stays a function of the element,
and injective while every coordinate is below 2**31 in absolute value.  A
product's fingerprint is the product of its factors', one matrix product.

Words are D-reduced throughout, so a product by one letter is reduced in one
step (see ``dehn``).

Representatives come from a clustering memo that keeps the first word it
sees for each element; which word that is does not depend on the
homomorphism, only on the order of resolution.  Exploration resolves
candidates in a fixed order, so the keys of resolved elements are
reproducible, but they depend on what the instance resolved before.  The
memo also maps each registered word to its fingerprint: no two registered
words are one element, so a registered word resolves to itself at once,
and its key decodes without folding the word.  A key decodes to its own
word, unresolved; a reader resolves it (see ``Ball.from_bytes``).
"""

from __future__ import annotations

import random

from .dehn import close_dehn, d_reduce, is_d_reduced, surface_alphabet, surface_relator
from .groups import GroupInterface, encode_word, decode_word
from .words import Word, word_inverse

_P = 1_073_741_789  # the largest prime below 2**30: entries are one-digit ints
_ID2 = (1, 0, 0, 1)
_DIGIT = 32  # bits per packed abelianization coordinate


def _mat_mul(a, b):
    return (
        (a[0] * b[0] + a[1] * b[2]) % _P,
        (a[0] * b[1] + a[1] * b[3]) % _P,
        (a[2] * b[0] + a[3] * b[2]) % _P,
        (a[2] * b[1] + a[3] * b[3]) % _P,
    )


def _mat_inv(a):
    # determinant 1 throughout
    return (a[3], -a[1] % _P, -a[2] % _P, a[0])


def _conj(c, x):
    return _mat_mul(_mat_mul(c, x), _mat_inv(c))


def _commutator(a, b):
    return _mat_mul(_mat_mul(a, b), _mat_mul(_mat_inv(a), _mat_inv(b)))


def _random_sl2(rng: random.Random):
    a = rng.randrange(1, _P)
    b = rng.randrange(_P)
    c = rng.randrange(_P)
    return (a, b, c, (1 + b * c) * pow(a, -1, _P) % _P)


def _surface_images(genus: int, rng: random.Random) -> list:
    """Images of a1, b1, ..., ag, bg in SL(2, p) whose product of
    commutators is I (see the module docstring)."""
    u, w = _random_sl2(rng), _random_sl2(rng)
    images = [u, w]
    for _ in range(genus - 2):
        c = _commutator(u, w)
        z = _random_sl2(rng)
        images += [_conj(c, w), _conj(c, z)]
        u, w = (_conj(c, _mat_mul(_mat_mul(u, w), _mat_inv(u))),
                _conj(c, _mat_mul(z, _mat_inv(u))))
    c = _commutator(u, w)
    return images + [_conj(c, w), _conj(c, u)]


class SurfaceElement:
    """A word with its fingerprint.  Invariant: the word is D-reduced, which
    every product and inverse keeps and ``decode_key`` checks; a product by
    one letter is reduced in one step on the strength of it.
    ``==`` and ``hash`` go by the word (the fingerprint is a function of the
    group element), so two words for one group element are unequal until
    resolved."""

    __slots__ = ("word", "fp")

    def __init__(self, word: Word, fp: tuple):
        self.word = word
        self.fp = fp

    def __eq__(self, other):
        return isinstance(other, SurfaceElement) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"SurfaceElement({' '.join(self.word) or 'e'})"


class SurfaceGroup(GroupInterface):
    def __init__(self, genus: int = 2):
        if genus < 2:
            raise ValueError("hyperbolic surface groups need genus >= 2")
        self.genus = genus
        self.alphabet = surface_alphabet(genus)
        self.relator = surface_relator(genus)
        self.dehn = close_dehn([self.relator], self.alphabet)
        positive = [n for n in self.alphabet.names if not n.endswith("-")]
        images = _surface_images(genus, random.Random(0x5EED))
        self._identity = SurfaceElement((), (0,) + _ID2)
        self._images = {}
        for i, (name, mat) in enumerate(zip(positive, images)):
            fp = (1 << (_DIGIT * i),) + mat
            inv = self.alphabet.inverse(name)
            self._images[name] = SurfaceElement((name,), fp)
            self._images[inv] = SurfaceElement((inv,), self._fp_inv(fp))
        # fingerprint -> registered words, and registered word -> fingerprint
        self._registry: dict[tuple, list[Word]] = {}
        self._registered: dict[Word, tuple] = {}

    # -- fingerprints: (packed abelianization, SL(2, p) image entries) ----------

    def _fp_of_word(self, word: Word) -> tuple:
        fp = self._identity.fp
        for letter in word:
            fp = self._fp_mul(fp, self._images[letter].fp)
        return fp

    @staticmethod
    def _fp_mul(fu: tuple, fv: tuple) -> tuple:
        v, a, b, c, d = fu
        v1, e, f, g, h = fv
        return (v + v1, (a * e + b * g) % _P, (a * f + b * h) % _P,
                (c * e + d * g) % _P, (c * f + d * h) % _P)

    @staticmethod
    def _fp_inv(fu: tuple) -> tuple:
        return (-fu[0],) + _mat_inv(fu[1:])

    # -- group interface --------------------------------------------------------

    @property
    def identity(self) -> SurfaceElement:
        return self._identity

    def multiply(self, u: SurfaceElement, v: SurfaceElement) -> SurfaceElement:
        return SurfaceElement(d_reduce(u.word + v.word, self.dehn, split=len(u.word)),
                              self._fp_mul(u.fp, v.fp))

    def compose_element(self, word: Word, u: SurfaceElement, v: SurfaceElement) -> SurfaceElement:
        """Element with an externally reduced word for the product u*v (the
        fingerprint only depends on the factors)."""
        return SurfaceElement(word, self._fp_mul(u.fp, v.fp))

    def invert(self, u: SurfaceElement) -> SurfaceElement:
        return SurfaceElement(word_inverse(u.word, self.alphabet), self._fp_inv(u.fp))

    @property
    def generator_images(self):
        return self._images

    def is_identity_word(self, word) -> bool:
        return d_reduce(word, self.dehn) == ()

    def element_equal(self, u: SurfaceElement, v: SurfaceElement) -> bool:
        if u.fp != v.fp:
            return False
        return self.is_identity_word(u.word + word_inverse(v.word, self.alphabet))

    def resolve(self, elem: SurfaceElement) -> SurfaceElement:
        """Canonical representative through the clustering memo.  A
        registered word is its own representative: no two registered words
        are one element."""
        word = elem.word
        if word in self._registered:
            return elem
        bucket = self._registry.setdefault(elem.fp, [])
        for rep in bucket:
            if not d_reduce(word + word_inverse(rep, self.alphabet), self.dehn):
                return SurfaceElement(rep, elem.fp)
        bucket.append(word)
        self._registered[word] = elem.fp
        return elem

    def key(self, elem: SurfaceElement) -> bytes:
        return encode_word(elem.word, self.alphabet)

    def decode_key(self, key: bytes) -> SurfaceElement:
        """The key's word with its fingerprint, as given: not resolved, so
        decoding registers nothing.  A registered word keeps its stored
        fingerprint.  Raises ValueError for a word that is not D-reduced,
        which no key of an element is."""
        word = decode_word(key, self.alphabet)
        fp = self._registered.get(word)
        if fp is None:
            if not is_d_reduced(word, self.dehn):
                raise ValueError(f"key word {' '.join(word)} is not D-reduced")
            fp = self._fp_of_word(word)
        return SurfaceElement(word, fp)

    def fingerprint(self) -> str:
        return self.word_fingerprint(f"surface genus={self.genus}")
