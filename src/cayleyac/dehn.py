"""Dehn's-algorithm machinery: relator systems closed under inversion and
cyclic permutation, greedy more-than-half reduction, and empirical
measurement of quasigeodesic and fellow-traveler constants.

Each reduction step replaces the leftmost of the longest more-than-half
relator prefixes of the word, found by a scan of the whole word, and then
freely reduces.  Group products do not reduce here: surface groups and
their central extensions multiply by shortlex rewriting (see ``surface``).
The reduction serves the word problem, the relator charges and the measured
constants.  The random and exhaustive word samplers grow D-reduced words a
letter at a time and keep a letter when the whole grown word passes
``is_d_reduced``."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .words import Alphabet, Word, free_reduce, word_inverse


class EmptyRelator(ValueError):
    pass


def _rotations(word: Word):
    for i in range(len(word)):
        yield word[i:] + word[:i]


class DehnSystem:
    """A relator set closed under inversion and cyclic permutation, with a
    prefix trie for leftmost-longest more-than-half matching."""

    def __init__(self, alphabet: Alphabet, relators: Sequence[Word]):
        self.alphabet = alphabet
        self.relators: tuple[Word, ...] = tuple(sorted(set(relators)))
        for r in self.relators:
            if not r:
                raise EmptyRelator("empty relator")
        self._trie = self._build_trie()

    def _build_trie(self):
        # node: dict letter -> node, with "" slot holding the best
        # (replacement, consumed, relator rank) at this depth.  Ranks
        # ascend, so the first relator to reach a node holds it.
        root: dict = {}
        for rank, rel in enumerate(self.relators):
            half = len(rel) // 2
            inverse = word_inverse(rel, self.alphabet)
            node = root
            for depth, letter in enumerate(rel, start=1):
                node = node.setdefault(letter, {})
                if depth > half and "" not in node:
                    # the inverse of rel[depth:] is a prefix of rel's inverse
                    node[""] = (inverse[:len(rel) - depth], depth, rank)
        return root

    def longest_match(self, word: Sequence[str], start: int):
        """Deepest more-than-half relator prefix matching word[start:]."""
        node = self._trie
        best = None
        for pos in range(start, len(word)):
            node = node.get(word[pos])
            if node is None:
                break
            hit = node.get("")
            if hit is not None:
                best = hit
        return best

    def scan(self, word: Sequence[str]):
        """Leftmost-longest match in word: (position, replacement, consumed,
        relator rank) or None."""
        best = None
        for start in range(len(word)):
            hit = self.longest_match(word, start)
            if hit is not None and (best is None or hit[1] > best[2]):
                best = (start, hit[0], hit[1], hit[2])
        return best


def close_dehn(relators: Sequence[Word], alphabet: Alphabet) -> DehnSystem:
    """Closure under inversion and all cyclic rotations (idempotent)."""
    closed: set[Word] = set()
    for rel in relators:
        rel = free_reduce(rel, alphabet)
        if not rel:
            raise EmptyRelator("relator freely reduces to the empty word")
        # the inverses of the rotations are the rotations of the inverse
        closed.update(_rotations(rel))
        closed.update(_rotations(word_inverse(rel, alphabet)))
    return DehnSystem(alphabet, sorted(closed))


def close_dehn_with_charges(base: Mapping[Word, tuple[int, ...]],
                            alphabet: Alphabet):
    """Close a charged relator family: rotations carry the same central
    charge, inverses the negated one."""
    system = close_dehn(list(base), alphabet)
    charges: dict[Word, tuple[int, ...]] = {}
    for rel, charge in base.items():
        rel = free_reduce(rel, alphabet)
        neg = tuple(-c for c in charge)
        for rot in _rotations(rel):
            charges[rot] = charge
            charges[word_inverse(rot, alphabet)] = neg
    for rel in system.relators:
        if rel not in charges:
            raise ValueError(f"no charge derivable for relator {rel}")
    return system, charges


def _reduce(word: Sequence[str], system: DehnSystem) -> tuple[Word, list[int]]:
    """The greedy reduction loop behind ``d_reduce`` and
    ``d_reduce_with_charges``: the reduced word, and the ranks of the
    relators whose more-than-half prefixes it replaced, in order.  Free
    reduction, then the leftmost of the longest matches replaced and the
    result freely reduced again until no match is left."""
    current = free_reduce(word, system.alphabet)
    ranks: list[int] = []
    while True:
        hit = system.scan(current)
        if hit is None:
            return current, ranks
        start, replacement, consumed, rank = hit
        ranks.append(rank)
        current = free_reduce(current[:start] + replacement + current[start + consumed:],
                              system.alphabet)


def d_reduce(word: Sequence[str], system: DehnSystem) -> Word:
    """Freely reduce and replace more-than-half relator subwords by the
    inverse of the remainder until neither applies.  Never longer than the
    input; evaluation unchanged."""
    return _reduce(word, system)[0]


def d_reduce_with_charges(word: Sequence[str], system: DehnSystem,
                          charges: Mapping[Word, tuple[int, ...]],
                          rank: int) -> tuple[Word, tuple[int, ...]]:
    """``d_reduce`` that also sums the central charges of the relators its
    replacements consumed, one instance per replacement."""
    reduced, ranks = _reduce(word, system)
    total = [0] * rank
    for r in ranks:
        for k, c in enumerate(charges[system.relators[r]]):
            total[k] += c
    return reduced, tuple(total)


def is_d_reduced(word: Sequence[str], system: DehnSystem) -> bool:
    if tuple(word) != free_reduce(word, system.alphabet):
        return False
    return system.scan(word) is None


# ---------------------------------------------------------------------------
# Built-in presentations.


def surface_relator(genus: int) -> Word:
    """Product of commutators [a1,b1]...[ag,bg]."""
    rel: list[str] = []
    for i in range(1, genus + 1):
        a, b = f"a{i}", f"b{i}"
        rel += [a, b, a + "-", b + "-"]
    return tuple(rel)


def surface_alphabet(genus: int) -> Alphabet:
    names = []
    for i in range(1, genus + 1):
        names += [f"a{i}", f"b{i}"]
    return Alphabet(names)


def triangle_relators(p: int, q: int, r: int) -> tuple[list[Word], Alphabet]:
    """Rotation presentation <u, v | u^p, v^q, (uv)^r>.  An order-two
    generator is declared self-inverse, which absorbs its power relator into
    free reduction."""
    self_inv = [n for n, k in (("u", p), ("v", q)) if k == 2]
    alphabet = Alphabet(["u", "v"], self_inverse=self_inv)
    rels = [("u",) * p, ("v",) * q, ("u", "v") * r]
    rels = [rel for rel in rels if free_reduce(rel, alphabet)]
    return rels, alphabet


# ---------------------------------------------------------------------------
# Empirical constants.


@dataclass
class QuasiConstants:
    lam: Fraction
    eps: Fraction
    k_of_m: dict[int, int]
    delta: int
    radius: int
    samples: int
    details: dict = field(default_factory=dict)


_LAMBDA_GRID = [Fraction(1), Fraction(9, 8), Fraction(5, 4), Fraction(3, 2),
                Fraction(7, 4), Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4)]


def _random_d_reduced(system: DehnSystem, length: int, rng: random.Random) -> Word:
    """Grow a random word letter by letter, keeping it D-reduced."""
    names = system.alphabet.names
    word: tuple[str, ...] = ()
    for _ in range(length):
        options = list(names)
        rng.shuffle(options)
        for letter in options:
            if is_d_reduced(word + (letter,), system):
                word += (letter,)
                break
        else:
            break
    return word


def _all_d_reduced(system: DehnSystem, prefix: Word, remaining: int):
    """Every D-reduced extension of prefix by at most ``remaining`` letters,
    depth first in alphabet order."""
    yield prefix
    if remaining == 0:
        return
    for letter in system.alphabet.names:
        grown = prefix + (letter,)
        if is_d_reduced(grown, system):
            yield from _all_d_reduced(system, grown, remaining - 1)


class _BallWalk:
    """Walks over a ball by vertex ids.  A state is a ball index, or ~k for
    the k-th element met outside the ball.  A memo maps (state, letter) to
    the next state, with the edge back filled in as well, so each distinct
    product is multiplied and located at most once.  A length is read by
    index; outside the ball it is clamped to radius + 1."""

    def __init__(self, group, ball):
        self.group = group
        self.ball = ball
        self.clamp = ball.radius + 1
        self._memo: dict = {}
        self._outside: list = []  # elements past the ball, by ~state
        self._outside_ids: dict = {}

    def path(self, state: int, word: Sequence[str]) -> list[int]:
        """The states after each prefix of word, from ``state`` on."""
        memo = self._memo
        states = [state]
        for letter in word:
            nxt = memo.get((state, letter))
            if nxt is None:
                nxt = self._step(state, letter)
            states.append(nxt)
            state = nxt
        return states

    def walk(self, state: int, word: Sequence[str]) -> int:
        return self.path(state, word)[-1]

    def _step(self, state: int, letter: str) -> int:
        group, ball = self.group, self.ball
        elem = ball.elements[state] if state >= 0 else self._outside[~state]
        product = group.multiply(elem, group.generator_images[letter])
        nxt = ball.index.get(product)
        if nxt is None:
            nxt = self._outside_ids.get(product)
            if nxt is None:
                nxt = self._outside_ids[product] = ~len(self._outside)
                self._outside.append(product)
        self._memo[(state, letter)] = nxt
        self._memo.setdefault((nxt, group.alphabet.inverse(letter)), state)
        return nxt

    def length(self, state: int) -> int:
        return self.ball.lengths[state] if state >= 0 else self.clamp


def measure_quasi_constants(group, system: DehnSystem, ball, radius: int,
                            samples: int = 400, seed: int = 0) -> QuasiConstants:
    """Empirical (lambda, epsilon), fellow-traveler constants k(m) for
    m = 1, 2 and a thin-triangle delta, measured over sampled D-reduced words
    of length up to ``radius`` with exact lengths from the ball.

    Every product is one step of a walk over ball indices (``_BallWalk``),
    whose memo lives for this call only: each distinct product is multiplied
    once, and lengths are read by index, clamped to the ball's radius + 1
    outside it.  Raises ValueError for a radius below 1, where every sampled
    word is empty, and for one past the ball's radius, where sampled words
    leave the ball."""
    if radius < 1:
        raise ValueError(f"quasi-constants radius must be >= 1, got {radius}")
    if radius > ball.radius:
        raise ValueError(f"quasi-constants radius {radius} exceeds the ball "
                         f"radius {ball.radius}")
    rng = random.Random(seed)
    # exhaustive short words, then random longer ones
    words: list[Word] = [w for w in _all_d_reduced(system, (), min(3, radius)) if w]
    while len(words) < samples:
        w = _random_d_reduced(system, radius, rng)
        if w:
            words.append(w)

    walker = _BallWalk(group, ball)
    lengths = ball.lengths
    # quasigeodesic data: (word length, element length) for all subwords;
    # every subword lies in the ball
    data: list[tuple[int, int]] = []
    for w in words:
        for i in range(len(w)):
            for j, state in enumerate(walker.path(0, w[i:])[1:], 1):
                data.append((j, lengths[state]))

    lam, eps = _fit_quasi(data)

    # fellow traveling: pair each sampled word with a geodesic witness of a
    # nearby endpoint, then take the worst two-sided prefix-grid distance
    k_of_m: dict[int, int] = {}
    names = system.alphabet.names
    for m in (1, 2):
        worst = 0
        for w in words[: min(len(words), 120)]:
            end = walker.walk(0, w)
            for count in range(1, m + 1):
                connector = tuple(rng.choice(names) for _ in range(count))
                target = walker.walk(end, connector)
                if target < 0:
                    continue
                v = ball.geodesic_witness(target)
                worst = max(worst, _hausdorff(walker, w, v))
        k_of_m[m] = worst

    delta = _measure_delta(walker, words[: min(len(words), 60)], rng)
    return QuasiConstants(lam=lam, eps=eps, k_of_m=k_of_m, delta=delta,
                          radius=radius, samples=len(words),
                          details={"data_points": len(data)})


# the grid scaled to integers by the lcm of its denominators
_GRID_SCALE = lcm(*(lam.denominator for lam in _LAMBDA_GRID))
_SCALED_GRID = [int(lam * _GRID_SCALE) for lam in _LAMBDA_GRID]


def _fit_quasi(data) -> tuple[Fraction, Fraction]:
    """Smallest grid lambda admitting a finite epsilon <= 12, then the
    smallest such epsilon; past the grid, the last lambda with the first
    epsilon found over 12.  The search runs in integers scaled by
    ``_GRID_SCALE``."""
    bound = 12 * _GRID_SCALE
    for lam, scaled in zip(_LAMBDA_GRID, _SCALED_GRID):
        eps = 0
        for wlen, elen in data:
            need = _GRID_SCALE * wlen - scaled * elen
            if need > eps:
                eps = need
                if eps > bound:
                    break
        else:
            return lam, Fraction(eps, _GRID_SCALE)
    return _LAMBDA_GRID[-1], Fraction(eps, _GRID_SCALE)


def _hausdorff(walker: _BallWalk, u: Word, v: Word) -> int:
    """Two-sided Hausdorff distance between the paths labelled u and v,
    through exact ball lengths (distances beyond the ball radius are clamped
    to radius+1).  Row i of the grid is the walk along v from u[:i]^-1, so
    entry j is the distance between u[:i] and v[:j]."""
    alphabet = walker.group.alphabet
    grid = [[walker.length(s)
             for s in walker.path(walker.walk(0, word_inverse(u[:i], alphabet)), v)]
            for i in range(len(u) + 1)]
    one = max(min(row) for row in grid)
    two = max(min(row[j] for row in grid) for j in range(len(v) + 1))
    return max(one, two)


def _measure_delta(walker: _BallWalk, words, rng) -> int:
    """Worst thin-triangle constant over sampled geodesic triangles: sides
    a and c are geodesics to x and y, side b one from x to y."""
    ball = walker.ball
    alphabet = walker.group.alphabet
    worst = 0
    pool = [w for w in words if w]
    for _ in range(min(30, len(pool))):
        wx = rng.choice(pool)
        wy = rng.choice(pool)
        x = walker.walk(0, wx)
        y = walker.walk(0, wy)
        x_to_y = walker.walk(walker.walk(0, word_inverse(wx, alphabet)), wy)
        if x_to_y < 0:
            continue
        side_a = ball.geodesic_witness(x)
        side_b = ball.geodesic_witness(x_to_y)
        side_c = ball.geodesic_witness(y)
        for i in range(len(side_a) + 1):
            # from the point p = side_a[:i]: p^-1 x is side_a[i:]
            to_b = min(map(walker.length, walker.path(walker.walk(0, side_a[i:]), side_b)))
            p_inv = walker.walk(0, word_inverse(side_a[:i], alphabet))
            to_c = min(map(walker.length, walker.path(p_inv, side_c)))
            worst = max(worst, min(to_b, to_c))
    return worst
