"""Hyperbolic (p,q,r) rotation groups through the exact reflection
representation.

The three reflections act on the span of the side normals; in that basis
their matrices are I minus a row of the doubled Gram matrix, whose entries
are 2, 0, -1 and -2cos(pi/k).  All of them lie in the ring Z[2cos(pi/N)],
where N = lcm of the orders that contribute an irrational cosine, and the
minimal polynomial of 2cos(pi/N) is monic, so arithmetic is exact integer
arithmetic (int tuples modulo that polynomial).  A matrix product or
inverse sums each entry's coefficient products unreduced and reduces each
entry once.  Element equality and keys are exact matrix comparisons.

The Dehn relator system is seeded with the short identity words, found by
a depth-first walk over the Cayley graph of a ball (``Ball.graph``), which
reads vertex ids instead of multiplying matrices.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .groups import GroupInterface
from .words import Alphabet


# -- integer polynomial helpers (dense coefficient lists, low degree first) --


def _poly_divmod(a, b):
    """Quotient and remainder of integer polynomials by a monic b."""
    assert b[-1] == 1, "divisor must be monic"
    a = list(a)
    out = [0] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        coeff = a[-1]
        out[shift] = coeff
        for i, cb in enumerate(b):
            a[shift + i] -= coeff * cb
        a.pop()
    return out, a


def cyclotomic_polynomial(m: int) -> list[int]:
    """Coefficients of the m-th cyclotomic polynomial."""
    if m == 1:
        return [-1, 1]
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            assert not any(rem)
    return poly


def real_minimal_polynomial(m: int) -> list[int]:
    """Minimal polynomial of 2cos(2*pi/m) over Q, for m >= 3: fold the
    palindromic cyclotomic polynomial through z + 1/z."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    assert d % 2 == 0
    half = d // 2
    # z^(half-k) * (z^2+1)^k expanded, subtracted greedily from the top
    from math import comb

    work = list(phi)
    out = [0] * (half + 1)
    for k in range(half, -1, -1):
        c = work[half + k]
        out[k] = c
        if c:
            # subtract c * z^(half-k) * (z^2+1)^k
            binom = [0] * (2 * k + 1)
            for i in range(k + 1):
                binom[2 * i] = comb(k, i)
            term = ([0] * (half - k)) + binom
            for i, cc in enumerate(term):
                work[i] -= c * cc
    assert not any(work)
    return out


class CosField:
    """The ring Z[2cos(pi/n)] with exact integer arithmetic: elements are
    int coefficient tuples over the powers of 2cos(pi/n), reduced modulo its
    monic minimal polynomial.  Triangle-group matrices have integral entries,
    so no division is needed."""

    def __init__(self, n: int):
        self.n = n
        coeffs = real_minimal_polynomial(2 * n)
        lead = coeffs[-1]
        assert lead in (1, -1)
        if lead == -1:
            coeffs = [-c for c in coeffs]
        self.minpoly = coeffs
        self.degree = len(coeffs) - 1
        # reduction of x^degree
        self._top = tuple(-c for c in self.minpoly[:-1])

    def zero(self):
        return (0,) * self.degree

    def one(self):
        return self.integer(1)

    def integer(self, k: int) -> tuple:
        return (k,) + (0,) * (self.degree - 1)

    def generator(self) -> tuple:
        """The element 2cos(pi/n)."""
        if self.degree == 1:
            # x - c: generator equals the integer root
            return self.integer(-self.minpoly[0])
        return (0, 1) + (0,) * (self.degree - 2)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return self.dot(((a, b),))

    def dot(self, pairs):
        """The sum of a*b over the (a, b) pairs: the coefficient products
        are summed unreduced, then reduced once."""
        prod = [0] * (2 * self.degree - 1)
        for a, b in pairs:
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        if cb:
                            prod[i + j] += ca * cb
        return self._reduce(prod)

    def _reduce(self, prod: list) -> tuple:
        """Reduce a coefficient list of length 2*degree - 1 (consumed)
        modulo the minimal polynomial."""
        deg = self.degree
        for k in range(2 * deg - 2, deg - 1, -1):
            c = prod[k]
            if c:
                for i, t in enumerate(self._top):
                    prod[k - deg + i] += c * t
        return tuple(prod[:deg])

    def scale(self, a, k: int):
        return tuple(x * k for x in a)

    def two_cos_pi_over(self, k: int) -> tuple:
        """2cos(pi/k) as a field element: 0 and 1 for k = 2, 3, otherwise via
        the Dickson recurrence D_j(2cos t) = 2cos(j t) with t = pi/n, j = n/k."""
        if k in (2, 3):
            return self.integer(k - 2)
        if self.n % k:
            raise ValueError(f"{k} does not divide the field order {self.n}")
        j = self.n // k
        d_prev = self.integer(2)
        d_cur = self.generator()
        for _ in range(j - 1):
            d_prev, d_cur = d_cur, self.sub(self.mul(self.generator(), d_cur), d_prev)
        return d_cur


def _mat_mul(field: CosField, A, B):
    """The product of 3x3 matrices; each entry is reduced once."""
    dot = field.dot
    return tuple(dot(((A[i], B[j]), (A[i + 1], B[j + 3]), (A[i + 2], B[j + 6])))
                 for i in (0, 3, 6) for j in (0, 1, 2))


def _mat_identity(field: CosField):
    one, zero = field.one(), field.zero()
    return tuple(one if i % 4 == 0 else zero for i in range(9))


def _mat_inverse(field: CosField, M):
    """Adjugate divided by the determinant (determinant is +-1 here).  Each
    2x2 minor is reduced once, and the determinant is the cofactor
    expansion along the first row."""
    f = field
    neg = f.neg
    # cof[3*i + j] is the (i, j) cofactor; the cyclic index order (i+1, i+2)
    # and (j+1, j+2) carries the sign (-1)^(i+j)
    cof = []
    for i in range(3):
        r0, r1 = 3 * ((i + 1) % 3), 3 * ((i + 2) % 3)
        for j in range(3):
            c0, c1 = (j + 1) % 3, (j + 2) % 3
            cof.append(f.dot(((M[r0 + c0], M[r1 + c1]), (M[r0 + c1], neg(M[r1 + c0])))))
    det = f.dot(((M[0], cof[0]), (M[1], cof[1]), (M[2], cof[2])))
    if det == f.integer(-1):
        cof = [neg(c) for c in cof]
    elif det != f.one():
        raise ValueError("matrix determinant is not a unit")
    # adjugate = transpose of cofactors
    return tuple(cof[3 * j + i] for i in range(3) for j in range(3))


class TriangleGroup(GroupInterface):
    """Rotation subgroup of the hyperbolic (p,q,r) reflection group with
    generators u = R1 R2 (order p) and v = R2 R3 (order q); u v has order r.
    Elements are exact 3x3 matrices."""

    def __init__(self, p: int, q: int, r: int):
        if min(p, q, r) < 2:
            raise ValueError(f"triangle orders must be >= 2, got ({p},{q},{r})")
        # 1/p + 1/q + 1/r < 1, cleared of denominators
        if q * r + p * r + p * q >= p * q * r:
            raise ValueError("(p,q,r) is not hyperbolic")
        self.orders = (p, q, r)
        nontrivial = [k for k in (p, q, r) if k > 3]
        self.field = CosField(lcm(*nontrivial) if nontrivial else 3)
        f = self.field
        # Doubled Gram matrix of the side normals: angle pi/p between sides
        # 1,2; pi/q between sides 2,3; pi/r between sides 1,3.
        c12, c23, c13 = (f.two_cos_pi_over(k) for k in (p, q, r))
        two = f.integer(2)
        gram2 = [
            [two, f.neg(c12), f.neg(c13)],
            [f.neg(c12), two, f.neg(c23)],
            [f.neg(c13), f.neg(c23), two],
        ]
        # reflection i: x -> x - 2 <x, n_i> n_i, i.e. I minus row i of gram2
        reflections = []
        for i in range(3):
            mat = []
            for row in range(3):
                for col in range(3):
                    entry = f.one() if row == col else f.zero()
                    if row == i:
                        entry = f.sub(entry, gram2[i][col])
                    mat.append(entry)
            reflections.append(tuple(mat))
        r1, r2, r3 = reflections
        u = _mat_mul(f, r1, r2)
        v = _mat_mul(f, r2, r3)

        self_inv = [name for name, k in (("u", p), ("v", q)) if k == 2]
        self.alphabet = Alphabet(["u", "v"], self_inverse=self_inv)
        self._images = {"u": u, "v": v}
        self._images[self.alphabet.inverse("u")] = _mat_mul(f, r2, r1)
        self._images[self.alphabet.inverse("v")] = _mat_mul(f, r3, r2)
        self._identity = _mat_identity(f)
        self._check_orders()

    def _check_orders(self):
        p, q, r = self.orders
        for elem, order in ((self._images["u"], p), (self._images["v"], q),
                            (self.multiply(self._images["u"], self._images["v"]), r)):
            power = elem
            for _ in range(order - 1):
                power = self.multiply(power, elem)
            assert power == self._identity, "rotation order failed; bad representation"
            if order > 1:
                shy = elem
                for _ in range(order - 2):
                    shy = self.multiply(shy, elem)
                assert shy != self._identity

    @property
    def identity(self):
        return self._identity

    def multiply(self, u, v):
        return _mat_mul(self.field, u, v)

    def invert(self, u):
        return _mat_inverse(self.field, u)

    @property
    def generator_images(self):
        return self._images

    def key(self, elem) -> bytes:
        # coefficients keep the "numerator/denominator" form of the key format
        return ";".join(",".join(f"{c}/1" for c in entry) for entry in elem).encode()

    def decode_key(self, key: bytes):
        entries = [part.split(",") for part in key.decode().split(";")]
        if not all(c.endswith("/1") for entry in entries for c in entry):
            raise ValueError("triangle key coefficients must have denominator 1")
        return tuple(tuple(int(c[:-2]) for c in entry) for entry in entries)

    def fingerprint(self) -> str:
        p, q, r = self.orders
        return self.word_fingerprint(f"triangle {p},{q},{r}")

    def identity_words(self, scale: int):
        """All cyclically reduced nontrivial words of length <= scale that
        evaluate to the identity, by exact enumeration: a depth-first walk
        over the Cayley graph of the ball of radius scale // 2 + 1, pruned
        where a prefix can no longer return to the identity.  The walk
        reads vertex ids and multiplies nothing."""
        from .explorer import build_ball

        names = self.alphabet.names
        prune_radius = scale // 2 + 1
        ball = build_ball(self, prune_radius)
        rows = ball.graph()
        lengths = ball.lengths
        size = len(ball)
        inverse = ball.inverse_gens
        out = []

        # the walk is passed itself, so that no closure refers to it and
        # nothing it holds waits for the cycle collector
        def extend(extend, word, v):
            # vertex 0 is the identity
            if word and v == 0 and inverse[word[-1]] != word[0]:
                out.append(tuple(names[g] for g in word))
            if len(word) == scale:
                return
            remaining = scale - len(word)
            # Before the prune region a prefix has length < prune_radius,
            # so its vertex always has a full row.  Inside it, a halo id
            # (>= size) lies outside the ball and cannot return in time.
            if remaining <= prune_radius and (v >= size or lengths[v] > remaining):
                return
            row = rows[v]
            back = inverse[word[-1]] if word else None
            for g, child in enumerate(row):
                if g == back:
                    continue
                word.append(g)
                extend(extend, word, child)
                word.pop()

        extend(extend, [], 0)
        return out

    @cached_property
    def dehn(self):
        """Relator system seeded with every identity word of length up to
        2r + 1 and closed under inversion and rotation, built on first use.
        Short power relators of self-inverse generators live in free
        reduction instead."""
        from .dehn import close_dehn

        seeds = self.identity_words(2 * self.orders[2] + 1)
        if not seeds:
            raise ValueError("no identity words of length up to 2r + 1")
        return close_dehn(seeds, self.alphabet)

    def dehn_system(self):
        """The relator system ``dehn``."""
        return self.dehn
