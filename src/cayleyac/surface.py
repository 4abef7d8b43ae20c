"""Orientable surface groups with Dehn reduction as the word problem.

Element equality is decided soundly: images under a pair of homomorphisms
into SL(2, p) (plus the abelianization vector) are a complete *negative*
test, and candidates with equal fingerprints are confirmed by reducing
u * v^-1 with the relator system.  Representatives come from a clustering
memo that stores the first geodesic word discovered for each element;
exploration resolves candidates in a fixed order, so the keys of resolved
elements are reproducible.
"""

from __future__ import annotations

import random

from .dehn import close_dehn, d_reduce, surface_alphabet, surface_relator
from .groups import GroupInterface, encode_word, decode_word
from .words import Word, word_inverse

_PRIMES = (1019, 2003)  # both 3 mod 4, so square roots are a single pow


def _mat_mul(a, b, p):
    return (
        (a[0] * b[0] + a[1] * b[2]) % p,
        (a[0] * b[1] + a[1] * b[3]) % p,
        (a[2] * b[0] + a[3] * b[2]) % p,
        (a[2] * b[1] + a[3] * b[3]) % p,
    )


def _mat_inv(a, p):
    # determinant 1 throughout
    return (a[3] % p, -a[1] % p, -a[2] % p, a[0] % p)


_ID2 = (1, 0, 0, 1)


def _commutator(a, b, p):
    return _mat_mul(_mat_mul(a, b, p), _mat_mul(_mat_inv(a, p), _mat_inv(b, p), p), p)


def _random_sl2(rng: random.Random, p: int):
    while True:
        m = [rng.randrange(p) for _ in range(4)]
        det = (m[0] * m[3] - m[1] * m[2]) % p
        if det == 0:
            continue
        if pow(det, (p - 1) // 2, p) != 1:
            continue
        root = pow(det, (p + 1) // 4, p)
        inv = pow(root, p - 2, p)
        return tuple(x * inv % p for x in m)


def _nullspace(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the nullspace of a matrix over F_p (rows of length n)."""
    n = len(rows[0])
    mat = [row[:] for row in rows]
    pivots = []
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] % p), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                factor = mat[r][col]
                mat[r] = [(x - factor * y) % p for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-mat[r][fc]) % p
        basis.append(vec)
    return basis


def _solve_conjugator(x, y, p):
    """S with S x S^-1 = y and det(S) = 1, or None."""
    # S x - y S = 0, S = (s0 s1; s2 s3)
    rows = []
    for i in range(2):
        for j in range(2):
            row = [0] * 4
            for k in range(2):
                row[2 * i + k] = (row[2 * i + k] + x[2 * k + j]) % p
                row[2 * k + j] = (row[2 * k + j] - y[2 * i + k]) % p
            rows.append(row)
    basis = _nullspace(rows, p)
    if not basis:
        return None

    def candidates():
        if len(basis) == 1:
            yield basis[0]
            return
        v1, v2 = basis[0], basis[1]
        yield v2
        for alpha in range(p):
            yield [(c1 + alpha * c2) % p for c1, c2 in zip(v1, v2)]

    for s in candidates():
        det = (s[0] * s[3] - s[1] * s[2]) % p
        if det and pow(det, (p - 1) // 2, p) == 1:
            root = pow(det, (p + 1) // 4, p)
            inv = pow(root, p - 2, p)
            s = tuple(c * inv % p for c in s)
            if _mat_mul(_mat_mul(s, x, p), _mat_inv(s, p), p) == y:
                return s
    return None


def _find_surface_hom(genus: int, p: int, rng: random.Random):
    """Generator images in SL(2,p) with product of commutators trivial."""
    while True:
        images = []
        prod = _ID2
        for _ in range(genus - 1):
            a = _random_sl2(rng, p)
            b = _random_sl2(rng, p)
            images += [a, b]
            prod = _mat_mul(prod, _commutator(a, b, p), p)
        c = _mat_inv(prod, p)
        a = _random_sl2(rng, p)
        x = _mat_inv(a, p)
        y = _mat_mul(x, c, p)
        if (x[0] + x[3]) % p != (y[0] + y[3]) % p:
            continue
        if (x[0] + x[3]) % p in (2 % p, (p - 2) % p):
            continue
        s = _solve_conjugator(x, y, p)
        if s is None:
            continue
        images += [a, s]
        total = _ID2
        for i in range(genus):
            total = _mat_mul(total, _commutator(images[2 * i], images[2 * i + 1], p), p)
        if total == _ID2:
            return images


class SurfaceElement:
    """A D-reduced word with its fingerprint.  ``==`` and ``hash`` go by the
    word (the fingerprint is a function of the group element), so two words
    for one group element are unequal until resolved."""

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
        rng = random.Random(0x5EED)
        self._homs = []
        for p in _PRIMES:
            images = _find_surface_hom(genus, p, rng)
            table = {}
            for i in range(genus):
                for k, mat in ((2 * i, images[2 * i]), (2 * i + 1, images[2 * i + 1])):
                    name = f"a{i + 1}" if k % 2 == 0 else f"b{i + 1}"
                    table[name] = mat
                    table[self.alphabet.inverse(name)] = _mat_inv(mat, p)
            self._homs.append((p, table))
        # abelianization positions
        self._ab_pos = {}
        for i, name in enumerate(n for n in self.alphabet.names if not n.endswith("-")):
            self._ab_pos[name] = i
        self._registry: dict[tuple, list[Word]] = {}
        self._identity = SurfaceElement((), self._fp_of_word(()))

    # -- fingerprints ---------------------------------------------------------

    def _fp_of_word(self, word: Word) -> tuple:
        ab = [0] * (2 * self.genus)
        for letter in word:
            if letter.endswith("-"):
                ab[self._ab_pos[letter[:-1]]] -= 1
            else:
                ab[self._ab_pos[letter]] += 1
        mats = []
        for p, table in self._homs:
            m = _ID2
            for letter in word:
                m = _mat_mul(m, table[letter], p)
            mats.append(m)
        return (tuple(ab), tuple(mats))

    def _fp_mul(self, fu: tuple, fv: tuple) -> tuple:
        ab = tuple(x + y for x, y in zip(fu[0], fv[0]))
        mats = tuple(
            _mat_mul(mu, mv, p) for (p, _), mu, mv in zip(self._homs, fu[1], fv[1])
        )
        return (ab, mats)

    def _fp_inv(self, fu: tuple) -> tuple:
        ab = tuple(-x for x in fu[0])
        mats = tuple(_mat_inv(m, p) for (p, _), m in zip(self._homs, fu[1]))
        return (ab, mats)

    # -- group interface --------------------------------------------------------

    @property
    def identity(self) -> SurfaceElement:
        return self._identity

    def multiply(self, u: SurfaceElement, v: SurfaceElement) -> SurfaceElement:
        return SurfaceElement(d_reduce(u.word + v.word, self.dehn), self._fp_mul(u.fp, v.fp))

    def compose_element(self, word: Word, u: SurfaceElement, v: SurfaceElement) -> SurfaceElement:
        """Element with an externally reduced word for the product u*v (the
        fingerprint only depends on the factors)."""
        return SurfaceElement(word, self._fp_mul(u.fp, v.fp))

    def invert(self, u: SurfaceElement) -> SurfaceElement:
        return SurfaceElement(word_inverse(u.word, self.alphabet), self._fp_inv(u.fp))

    @property
    def generator_images(self):
        return {name: SurfaceElement((name,), self._fp_of_word((name,)))
                for name in self.alphabet.names}

    def is_identity_word(self, word) -> bool:
        return d_reduce(word, self.dehn) == ()

    def element_equal(self, u: SurfaceElement, v: SurfaceElement) -> bool:
        if u.fp != v.fp:
            return False
        return self.is_identity_word(u.word + word_inverse(v.word, self.alphabet))

    def resolve(self, elem: SurfaceElement) -> SurfaceElement:
        """Canonical representative through the clustering memo."""
        bucket = self._registry.setdefault(elem.fp, [])
        for rep in bucket:
            if rep == elem.word or self.is_identity_word(
                elem.word + word_inverse(rep, self.alphabet)
            ):
                return elem if rep == elem.word else SurfaceElement(rep, elem.fp)
        bucket.append(elem.word)
        return elem

    def key(self, elem: SurfaceElement) -> bytes:
        return encode_word(elem.word, self.alphabet)

    def decode_key(self, key: bytes) -> SurfaceElement:
        word = decode_word(key, self.alphabet)
        return self.resolve(SurfaceElement(word, self._fp_of_word(word)))

    def fingerprint(self) -> str:
        return self.word_fingerprint(f"surface genus={self.genus}")
