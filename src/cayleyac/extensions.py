"""Central extensions of surface groups.

The cocycle is never materialized: an element is a pair (central vector,
base element), and the base element is the normal form of a surface group
(see ``surface``), so ``==`` on elements is group equality and a key depends
only on the element.  A product appends the base words and rewrites them
with the base group's shortlex system; each rule l -> r it applies deposits
its charge, the central vector that ``d_reduce_with_charges`` consumes in
reducing l r^-1 to the empty word, worked out once per rule.  A factor with
an empty base word (a central letter) only adds its vector.  The generating
set consists of the base letters and a central alphabet assembled from the
relator charges, a budgeted short-word enumeration, and a certified
relator-power completion."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Mapping, Optional, Sequence

from .convexity import PreconditionViolated
from .dehn import QuasiConstants, close_dehn_with_charges, d_reduce_with_charges
from .groups import GroupInterface, pack_ints, unpack_ints
from .surface import SurfaceElement
from .words import Word, word_inverse


class MissingCentralGenerator(KeyError):
    """A combined charge fell outside the central alphabet: the central
    generating set was built too small for this operation."""


class ExtElement:
    """Central vector and base element; ``==`` and ``hash`` go by both.  The
    hash is computed on first use and kept."""

    __slots__ = ("avec", "base", "_hash")

    def __init__(self, avec: tuple[int, ...], base):
        self.avec = avec
        self.base = base
        self._hash = None

    def __eq__(self, other):
        return (isinstance(other, ExtElement)
                and self.avec == other.avec and self.base == other.base)

    def __hash__(self):
        # base elements compare by word, so hashing the word agrees with ==
        h = self._hash
        if h is None:
            h = self._hash = hash((self.avec, self.base.word))
        return h

    def __repr__(self):
        return f"ExtElement({self.avec}, {' '.join(self.base.word) or 'e'})"


@dataclass
class CentralAlphabet:
    """Central letters: nonzero vectors closed under negation, named c1, c2,
    ... along the sorted positive representatives."""

    values: tuple[tuple[int, ...], ...]
    truncated: bool = False
    names: dict[str, tuple[int, ...]] = field(init=False)

    def __post_init__(self):
        reps = sorted({max(v, tuple(-c for c in v)) for v in self.values if any(v)})
        self.names = {f"c{i}": v for i, v in enumerate(reps, start=1)}

    def letter_pairs(self):
        return list(self.names.items())


def _vec_add(u, v):
    return tuple(map(add, u, v))


def _vec_neg(u):
    return tuple(-a for a in u)


class CentralExtension(GroupInterface):
    """G = Z^rank x_rho H for a surface group H."""

    def __init__(self, base, relator_charges: Mapping[Word, tuple[int, ...]],
                 rank: int = 1, quasi: Optional[QuasiConstants] = None,
                 budget: int = 10 ** 6, extra_central: Sequence[tuple[int, ...]] = ()):
        self.base = base
        self.rank = rank
        self.quasi = quasi
        self._zero = (0,) * rank
        base_rels = {tuple(rel): tuple(charge) for rel, charge in relator_charges.items()}
        for charge in base_rels.values():
            if len(charge) != rank:
                raise ValueError("charge rank mismatch")
        self.dehn, self.charges = close_dehn_with_charges(base_rels, base.alphabet)
        self._rule_charges: dict[Word, tuple[int, ...]] = {}  # rule lhs -> charge

        self._identity = ExtElement(self._zero, base.identity)
        self._images: dict[str, ExtElement] = {
            name: ExtElement(self._zero, base.evaluate((name,)))
            for name in base.alphabet.names
        }
        self.central = self._build_central_alphabet(budget, extra_central)

        from .words import Alphabet

        positive = [n for n in base.alphabet.names if not n.endswith("-")]
        central_names = [name for name, _ in self.central.letter_pairs()]
        self.alphabet = Alphabet(positive + central_names)
        for name, vec in self.central.letter_pairs():
            self._images[name] = ExtElement(vec, base.identity)
            self._images[self.alphabet.inverse(name)] = ExtElement(_vec_neg(vec), base.identity)
        self._central_geo: dict[tuple[int, ...], Word] = {self._zero: ()}

    # -- construction of the central alphabet --------------------------------

    def _build_central_alphabet(self, budget: int, extra) -> CentralAlphabet:
        values: set[tuple[int, ...]] = {c for c in self.charges.values() if any(c)}
        for v in extra:
            if any(v):
                values.add(tuple(v))
        truncated = False

        if self.quasi is not None:
            k = self.quasi.k_of_m.get(2, 0)
            length_bound = int(self.quasi.lam * (2 * k + 3) + self.quasi.eps + 2 * k + 3)

            # certified completion: concatenated relator instances realize the
            # summed charge at the summed spelled length
            base_costs = sorted({(len(rel), self.charges[rel]) for rel in self.dehn.relators})
            seen = {self._zero: 0}
            frontier = [(self._zero, 0)]
            while frontier:
                nxt = []
                for vec, cost in frontier:
                    for clen, charge in base_costs:
                        nv = _vec_add(vec, charge)
                        nc = cost + clen
                        if nc <= length_bound and seen.get(nv, nc + 1) > nc:
                            seen[nv] = nc
                            nxt.append((nv, nc))
                frontier = nxt
            values |= {v for v in seen if any(v)}

            # budgeted breadth-first enumeration over base-letter words,
            # flagged partial on overflow
            visited = 0
            frontier_elems = [self._identity]
            keys = {(self._identity.avec, self._identity.base.word)}
            depth = 0
            while frontier_elems and depth < length_bound and not truncated:
                depth += 1
                nxt_elems = []
                for elem in frontier_elems:
                    for name in self.base.alphabet.names:
                        child = self.multiply(elem, self._images[name])
                        visited += 1
                        rk = (child.avec, child.base.word)
                        if rk in keys:
                            continue
                        keys.add(rk)
                        nxt_elems.append(child)
                        if not child.base.word and any(child.avec):
                            values.add(child.avec)
                    if visited > budget:
                        truncated = True
                        break
                frontier_elems = nxt_elems
        return CentralAlphabet(values=tuple(sorted(values)), truncated=truncated)

    # -- group interface ------------------------------------------------------

    @property
    def identity(self) -> ExtElement:
        return self._identity

    def _rewrite(self, avec: tuple[int, ...], word: Word, start: int = 0) -> ExtElement:
        """The element (avec, word) with word rewritten to its normal form,
        whose prefix word[:start] is one, and the charges of the rules
        applied added to avec."""
        applied: list[Word] = []
        word = self.base.rewriting.rewrite(word, start, applied)
        for lhs in applied:
            charge = self._rule_charges.get(lhs)
            if charge is None:
                rhs = self.base.rewriting.rules[lhs]
                rest, charge = d_reduce_with_charges(lhs + word_inverse(rhs, self.base.alphabet),
                                                     self.dehn, self.charges, self.rank)
                if rest:
                    raise AssertionError(f"rule {lhs} -> {rhs} is no identity")
                self._rule_charges[lhs] = charge
            avec = _vec_add(avec, charge)
        return ExtElement(avec, SurfaceElement(word))

    def multiply(self, u: ExtElement, v: ExtElement) -> ExtElement:
        ub, vb = u.base, v.base
        avec = u.avec if v.avec == self._zero else _vec_add(u.avec, v.avec)
        if not vb.word:
            # v is central: no rewriting, no charge
            return ExtElement(avec, ub)
        return self._rewrite(avec, ub.word + vb.word, len(ub.word))

    def invert(self, u: ExtElement) -> ExtElement:
        # u's word followed by its formal inverse cancels freely, so the
        # formal inverse carries -avec before it is rewritten
        return self._rewrite(_vec_neg(u.avec), word_inverse(u.base.word, self.base.alphabet))

    @property
    def generator_images(self):
        return self._images

    def key(self, elem: ExtElement) -> bytes:
        return pack_ints(elem.avec) + self.base.key(elem.base)

    def decode_key(self, key: bytes) -> ExtElement:
        avec = unpack_ints(key[: 8 * self.rank], self.rank)
        base_elem = self.base.decode_key(key[8 * self.rank:])
        return ExtElement(avec, base_elem)

    def fingerprint(self) -> str:
        charge_desc = sorted((" ".join(r), list(c)) for r, c in self.charges.items())
        return self.word_fingerprint(
            f"central_ext rank={self.rank} base={self.base.fingerprint()} {charge_desc}"
            f" central={[v for _, v in self.central.letter_pairs()]}"
        )

    # -- central geodesics ------------------------------------------------------

    def central_geodesic(self, vec: tuple[int, ...]) -> Word:
        """Shortest word over the central letters evaluating to (vec, 1)."""
        vec = tuple(vec)
        if vec in self._central_geo:
            return self._central_geo[vec]
        steps = []
        for name, value in self.central.letter_pairs():
            steps.append((name, value))
            steps.append((self.alphabet.inverse(name), _vec_neg(value)))
        frontier = {self._zero: ()}
        seen = dict(frontier)
        limit = 4 * sum(abs(c) for c in vec) + 4
        for _ in range(limit):
            if vec in seen:
                break
            nxt = {}
            for v, word in sorted(frontier.items()):
                for name, value in steps:
                    nv = _vec_add(v, value)
                    if nv not in seen and nv not in nxt:
                        nxt[nv] = word + (name,)
            seen.update(nxt)
            frontier = nxt
            if not frontier:
                break
        if vec not in seen:
            raise MissingCentralGenerator(f"{vec} not reachable over {self.central.names}")
        self._central_geo[vec] = seen[vec]
        return seen[vec]

    def central_length(self, vec) -> int:
        return len(self.central_geodesic(tuple(vec)))

    # -- normal-shape rewriting ----------------------------------------------------

    def split_central(self, word: Word) -> tuple[tuple[int, ...], Word]:
        """Total value of the central letters and the base-letter subword."""
        vec = self._zero
        base_letters = []
        for letter in word:
            if letter in self.base.alphabet:
                base_letters.append(letter)
            else:
                img = self._images[letter]
                if img.base.word:
                    raise ValueError(f"letter {letter} is neither central nor base")
                vec = _vec_add(vec, img.avec)
        return vec, tuple(base_letters)

    def dreduced_shape(self, word: Word) -> tuple[tuple[int, ...], Word]:
        """(central value, D-reduced base word) of an equal evaluation."""
        vec, base_word = self.split_central(word)
        reduced, consumed = d_reduce_with_charges(base_word, self.dehn, self.charges, self.rank)
        return _vec_add(vec, consumed), reduced

    def to_dreduced_shape(self, word: Word) -> Word:
        """Equal evaluation, length never larger: central letters migrate to
        the front and the base projection becomes D-reduced, each replacement
        consuming a relator charge realized by central letters."""
        vec, reduced = self.dreduced_shape(word)
        return self.central_geodesic(vec) + reduced


def central_witness_path(group: CentralExtension, ball, base_ball,
                         g: ExtElement, g_prime: ExtElement, q: Word, n: int) -> Word:
    """A word from g to g' through the radius-n ball, for sphere-n elements
    with g' = g * eval(q), l(q) <= 2.

    Shape: back up along the non-central tail (at most k+1 letters), cross to
    the other geodesic with a short base path, correct with a central
    geodesic, then run forward.  When both elements are central the central
    letters alone connect them (the central subgroup embeds isometrically).
    The path starts at the endpoint with the longer base word (from g', it
    is inverted).

    q is checked by a walk over the graph with full rows of B(n).  Only its
    second letter can start outside B(n), on sphere n+1, whose edges back
    into B(n) the graph holds; an entry it lacks is UNKNOWN, no vertex.  So
    the walk ends at g' exactly when g * eval(q) = g'.
    """
    if len(q) > 2:
        raise PreconditionViolated("connector longer than 2")
    i, j = ball.find(g), ball.find(g_prime)
    if ball.lengths[i] != n or ball.lengths[j] != n:
        raise PreconditionViolated("endpoints must lie on the sphere of radius n")
    rows = ball.graph(n - ball.radius)
    end = i
    for letter in q:
        end = rows[end][group.alphabet.index(letter)]
    if end != j:
        raise PreconditionViolated("g' != g * eval(q)")
    if i == j:
        return ()
    k = group.quasi.k_of_m.get(2, 1) if group.quasi else 1

    vec_u, v = group.dreduced_shape(ball.geodesic_witness(i))
    vec_u2, v_prime = group.dreduced_shape(ball.geodesic_witness(j))
    if not v and not v_prime:
        # both central: travel inside the central subgroup
        return group.central_geodesic(_vec_add(vec_u2, _vec_neg(vec_u)))
    swap = len(v) < len(v_prime)
    if swap:
        (vec_u, v), (vec_u2, v_prime) = (vec_u2, v_prime), (vec_u, v)
    back = min(k + 1, len(v))
    x, y = v[:len(v) - back], v[len(v) - back:]
    base = group.base
    # crossing: the shortest base path diff = eval(x)^-1 eval(v'[:cut]) over
    # the prefixes of v', one letter more per cut
    best = None
    diff = base.invert(base.evaluate(x))
    for cut in range(len(v_prime) + 1):
        if cut:
            diff = base.multiply(diff, base.generator_images[v_prime[cut - 1]])
        idx = base_ball.locate(diff)
        if idx is not None and (best is None or base_ball.lengths[idx] < best[0]):
            best = (base_ball.lengths[idx], cut, idx)
    if best is None or best[0] > max(k, 1):
        raise PreconditionViolated("no crossing within the fellow-traveler bound")
    _, cut, idx = best
    z = base_ball.geodesic_witness(idx)

    # central correction: x z and v'[:cut] are one base element, so the
    # closed word x z v'[:cut]^-1 reduces to the empty word, and the charge
    # s it consumes gives x z = (s, v'[:cut]) in the extension
    closed = x + z + word_inverse(v_prime[:cut], group.alphabet)
    rest, charge = d_reduce_with_charges(closed, group.dehn, group.charges, group.rank)
    if rest:
        raise AssertionError("crossing bookkeeping failed")
    correction = group.central_geodesic(_vec_add(vec_u2, _vec_neg(_vec_add(vec_u, charge))))
    path = word_inverse(y, group.alphabet) + z + correction + v_prime[cut:]
    return word_inverse(path, group.alphabet) if swap else path
