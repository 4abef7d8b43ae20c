"""Orientable surface groups, one word per element.

An element is the shortlex-least word that spells it, under the alphabet
order a1 a1- b1 b1- a2 ...: its normal form, which is a geodesic.  So ``==``
on elements is group equality, and a key (the word) depends only on the
element.  A product appends the words and rewrites the result with a
shortlex rewriting system (``ShortlexRewriting``); a key decodes only to a
word that is its own normal form.

Surface groups are shortlex automatic (Epstein et al., *Word Processing in
Groups*, 1992), but their shortlex systems are infinite: completion from the
relator adds one rule for about every 3 letters of left-hand side, without
end.  The system here is completed from the free cancellations and the
relator and truncated at a bound M that follows from the longest word it
must rewrite, and it grows on demand.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

from .dehn import _rotations, close_dehn, d_reduce, surface_alphabet, surface_relator
from .groups import GroupInterface, encode_word, decode_word
from .words import Alphabet, Word, word_inverse


class ShortlexRewriting:
    """Shortlex rewriting system for one relator, by Knuth-Bendix completion
    truncated at a bound M: overlaps longer than M are not resolved.

    Why the truncation is exact for the words rewritten.  Completion that
    resolves every overlap of length <= M joins any two words that a chain
    of seed equations links through words of length <= M: each peak of such
    a chain lies in a word of length <= M, so its overlap was resolved.  The
    seeds are x x^-1 = e and, for each rotation s t of the relator or its
    inverse, s = t^-1, which holds the relator = e, of length 4g <= M.  A
    word w of length <= L equals its shortlex-least word z, |z| <= |w|:
    insert z^-1 z after w (length <= 3L), then Dehn-reduce w z^-1 to the
    empty word, each step an insertion of t t^-1 with |t| < 2g and the
    deletion of a relator, so every word of the chain has length
    < 3L + 4g.  z is irreducible, as no rule maps it to a smaller word for
    the same element, so with M = 3L + 4g every word of length <= L
    rewrites to z (``capacity`` is L).

    Rules are kept interreduced, so no left-hand side contains another, and
    they sit in a trie read from the end of the left-hand side, each rule a
    leaf.  Rewriting keeps a stack that is irreducible, so a match ends at
    the letter just pushed, and at most one does."""

    def __init__(self, alphabet: Alphabet, relator: Word):
        self.alphabet = alphabet
        self.relator_len = len(relator)
        self._rank = {name: i for i, name in enumerate(alphabet.names)}
        self._seeds = [((x, alphabet.inverse(x)), ()) for x in alphabet.names]
        for rel in (relator, word_inverse(relator, alphabet)):
            for rot in _rotations(rel):
                for cut in range(len(rot) // 2, len(rot) + 1):
                    self._seeds.append((rot[:cut], word_inverse(rot[cut:], alphabet)))
        self.rules: dict[Word, Word] = {}
        self.bound = 0  # M
        self.capacity = -1  # L: every word this long or shorter rewrites exactly
        self._trie: dict = {}

    def _order(self, word: Word):
        return len(word), [self._rank[x] for x in word]

    def rewrite(self, word: Word, start: int = 0, applied: Optional[list] = None) -> Word:
        """The normal form of word, whose prefix word[:start] is already a
        normal form.  The left-hand side of every rule applied is appended to
        ``applied`` when one is given.  Completes the system further first
        when word is longer than its capacity."""
        if len(word) > self.capacity:
            self._grow(len(word))
        return self._rewrite(word, start, applied)

    def is_normal(self, word: Word) -> bool:
        """Whether word is its own normal form: no left-hand side ends at
        any of its letters."""
        if len(word) > self.capacity:
            self._grow(len(word))
        trie = self._trie
        for end in range(len(word)):
            node = trie
            for i in range(end, -1, -1):
                node = node.get(word[i])
                if node.__class__ is not dict:
                    break
            if node.__class__ is tuple:
                return False
        return True

    def _rewrite(self, word, start, applied) -> Word:
        trie = self._trie
        stack = list(word[:start])
        pending = list(reversed(word[start:]))
        while pending:
            stack.append(pending.pop())
            node = trie
            for letter in reversed(stack):
                node = node.get(letter)
                if node.__class__ is not dict:
                    break
            if node.__class__ is tuple:
                lhs, rhs = node
                del stack[len(stack) - len(lhs):]
                pending.extend(reversed(rhs))
                if applied is not None:
                    applied.append(lhs)
        return tuple(stack)

    def _add(self, lhs: Word, rhs: Word) -> None:
        self.rules[lhs] = rhs
        node = self._trie
        for letter in reversed(lhs[1:]):
            node = node.setdefault(letter, {})
        node[lhs[0]] = (lhs, rhs)

    def _remove(self, lhs: Word) -> Word:
        path = [self._trie]
        for letter in reversed(lhs[1:]):
            path.append(path[-1][letter])
        # drop the leaf, then every node that it leaves empty
        for letter, node in zip(lhs, reversed(path)):
            del node[letter]
            if node:
                break
        return self.rules.pop(lhs)

    def _overlaps(self, a: Word, b: Word, shortest: int):
        """Critical pairs of the rules a -> ra and b -> rb from a proper
        overlap of a suffix of a with a prefix of b, over words of length
        from ``shortest`` to the bound."""
        top = len(a) + len(b)
        for k in range(max(1, top - self.bound), min(len(a), len(b), top - shortest + 1)):
            if a[-k:] == b[:k]:
                yield top - k, self.rules[a] + b[k:], a[:-k] + self.rules[b]

    def _grow(self, length: int) -> None:
        """Complete with M = 3 * length + 4g.  Overlaps up to the old bound
        were resolved before, so only longer ones are queued again."""
        old = self.bound
        self.capacity = length
        self.bound = 3 * length + self.relator_len
        count = itertools.count()
        if self.rules:
            heap = [(n, next(count), u, v)
                    for a, b in itertools.product(self.rules, repeat=2)
                    for n, u, v in self._overlaps(a, b, old + 1)]
        else:
            heap = [(len(u), next(count), u, v) for u, v in self._seeds]
        heapq.heapify(heap)
        while heap:
            _, _, u, v = heapq.heappop(heap)
            u, v = self._rewrite(u, 0, None), self._rewrite(v, 0, None)
            if u == v:
                continue
            if self._order(u) < self._order(v):
                u, v = v, u
            # rules whose left-hand side contains u become equations again
            for lhs in [lhs for lhs in self.rules if len(lhs) > len(u) and _contains(lhs, u)]:
                heapq.heappush(heap, (len(lhs), next(count), lhs, self._remove(lhs)))
            self._add(u, v)
            for lhs in list(self.rules):
                for n, p, q in itertools.chain(self._overlaps(u, lhs, 0),
                                               self._overlaps(lhs, u, 0) if lhs != u else ()):
                    heapq.heappush(heap, (n, next(count), p, q))


def _contains(word: Word, part: Word) -> bool:
    k = len(part)
    return any(word[i:i + k] == part for i in range(len(word) - k + 1))


class SurfaceElement:
    """A normal-form word; ``==`` and ``hash`` go by the word, which is group
    equality."""

    __slots__ = ("word",)

    def __init__(self, word: Word):
        self.word = word

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
        self.rewriting = ShortlexRewriting(self.alphabet, self.relator)
        self._identity = SurfaceElement(())
        self._images = {name: SurfaceElement((name,)) for name in self.alphabet.names}

    @property
    def identity(self) -> SurfaceElement:
        return self._identity

    def multiply(self, u: SurfaceElement, v: SurfaceElement) -> SurfaceElement:
        return SurfaceElement(self.rewriting.rewrite(u.word + v.word, len(u.word)))

    def invert(self, u: SurfaceElement) -> SurfaceElement:
        return SurfaceElement(self.rewriting.rewrite(word_inverse(u.word, self.alphabet)))

    @property
    def generator_images(self):
        return self._images

    def is_identity_word(self, word) -> bool:
        return d_reduce(word, self.dehn) == ()

    def key(self, elem: SurfaceElement) -> bytes:
        return encode_word(elem.word, self.alphabet)

    def decode_key(self, key: bytes) -> SurfaceElement:
        """The key's word; ValueError for a word that is not its own normal
        form, which no key of an element is."""
        word = decode_word(key, self.alphabet)
        if not self.rewriting.is_normal(word):
            raise ValueError(f"key word {' '.join(word)} is not in normal form")
        return SurfaceElement(word)

    def fingerprint(self) -> str:
        return self.word_fingerprint(f"surface genus={self.genus}")
