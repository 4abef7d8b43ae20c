"""Orientable surface groups, one word per element.

An element is the shortlex-least word that spells it, under the alphabet
order a1 a1- b1 b1- a2 ...: its normal form, which is a geodesic.  The word
is held as the bytes of its letters' indices in that order, and those bytes
are its key.  So ``==`` on elements is group equality, and a key depends
only on the element.  Bytes compare as their indices do, so the shortlex
order is the order of (length, bytes).  Every genus numbers its letters as
a prefix of one table, ``LETTERS``, which gives an element's word of letter
names back.  A product appends the words and rewrites the result with a
shortlex rewriting system (``ShortlexRewriting``).

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

from .dehn import _rotations, close_dehn, surface_alphabet, surface_relator
from .groups import GroupInterface, encode_word
from .words import Alphabet, Word

# letter names by index; genus g uses the first 4g, one byte each
LETTERS: tuple[str, ...] = surface_alphabet(64).names


class ShortlexRewriting:
    """Shortlex rewriting system for one relator, by Knuth-Bendix completion
    truncated at a bound M: overlaps longer than M are not resolved.  Words
    are the bytes of their letters' alphabet indices, so the shortlex order
    is the order of (length, bytes).

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
    leaf.  Rewriting reads the word in place from the first letter after its
    normal-form prefix, and returns it as it is when no left-hand side ends
    at any letter.  From the first letter where one does, it keeps a stack
    that is irreducible, so a match ends at the letter just pushed, and at
    most one does."""

    def __init__(self, alphabet: Alphabet, relator: Word):
        self.alphabet = alphabet
        self.relator_len = len(relator)
        inverse = [alphabet.index(alphabet.inverse(x)) for x in alphabet.names]
        # each letter's inverse letter, padded to the 256 entries of a translate table
        self._inverse = bytes(inverse) + bytes(range(len(inverse), 256))
        self._seeds = [(bytes((x, x_inv)), b"") for x, x_inv in enumerate(inverse)]
        relator = encode_word(relator, alphabet)
        for rel in (relator, self.inverse(relator)):
            for rot in _rotations(rel):
                for cut in range(len(rot) // 2, len(rot) + 1):
                    self._seeds.append((rot[:cut], self.inverse(rot[cut:])))
        self.rules: dict[bytes, bytes] = {}
        self.bound = 0  # M
        self.capacity = -1  # L: every word this long or shorter rewrites exactly
        self._trie: dict = {}

    def inverse(self, word: bytes) -> bytes:
        """The formal inverse of word."""
        return word[::-1].translate(self._inverse)

    def rewrite(self, word: bytes, start: int = 0, applied: Optional[list] = None) -> bytes:
        """The normal form of word, whose prefix word[:start] is already a
        normal form.  The left-hand side of every rule applied is appended to
        ``applied`` when one is given.  Completes the system further first
        when word is longer than its capacity."""
        if len(word) > self.capacity:
            self._grow(len(word))
        return self._rewrite(word, start, applied)

    def _match(self, word, end):
        """The rule (lhs, rhs) whose left-hand side ends at word[end], or
        None; word[:end] is irreducible."""
        node = self._trie
        while end >= 0:
            node = node.get(word[end])
            if node.__class__ is not dict:
                return node
            end -= 1
        return None

    def _rewrite(self, word: bytes, start: int, applied) -> bytes:
        match = self._match
        for end in range(start, len(word)):
            rule = match(word, end)
            if rule is not None:
                break
        else:
            return word
        stack = bytearray(word[:end + 1])
        pending = bytearray(word[:end:-1])
        while rule is not None:
            lhs, rhs = rule
            del stack[len(stack) - len(lhs):]
            pending += rhs[::-1]
            if applied is not None:
                applied.append(lhs)
            rule = None
            while rule is None and pending:
                stack.append(pending.pop())
                rule = match(stack, len(stack) - 1)
        return bytes(stack)

    def _add(self, lhs: bytes, rhs: bytes) -> None:
        self.rules[lhs] = rhs
        node = self._trie
        for letter in reversed(lhs[1:]):
            node = node.setdefault(letter, {})
        node[lhs[0]] = (lhs, rhs)

    def _remove(self, lhs: bytes) -> bytes:
        path = [self._trie]
        for letter in reversed(lhs[1:]):
            path.append(path[-1][letter])
        # drop the leaf, then every node that it leaves empty
        for letter, node in zip(lhs, reversed(path)):
            del node[letter]
            if node:
                break
        return self.rules.pop(lhs)

    def _overlaps(self, a: bytes, b: bytes, shortest: int):
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
            if (len(u), u) < (len(v), v):
                u, v = v, u
            # rules whose left-hand side contains u become equations again
            for lhs in [lhs for lhs in self.rules if len(lhs) > len(u) and u in lhs]:
                heapq.heappush(heap, (len(lhs), next(count), lhs, self._remove(lhs)))
            self._add(u, v)
            for lhs in list(self.rules):
                for n, p, q in itertools.chain(self._overlaps(u, lhs, 0),
                                               self._overlaps(lhs, u, 0) if lhs != u else ()):
                    heapq.heappush(heap, (n, next(count), p, q))


class SurfaceElement:
    """A normal form, held as the bytes of its letters' indices (``code``);
    ``==`` and ``hash`` go by the bytes, which is group equality.  ``word``
    reads the letter names back."""

    __slots__ = ("code",)

    def __init__(self, code: bytes):
        self.code = code

    @property
    def word(self) -> Word:
        return tuple(map(LETTERS.__getitem__, self.code))

    def __eq__(self, other):
        return isinstance(other, SurfaceElement) and self.code == other.code

    def __hash__(self):
        return hash(self.code)

    def __repr__(self):
        return f"SurfaceElement({' '.join(self.word) or 'e'})"


class SurfaceGroup(GroupInterface):
    def __init__(self, genus: int = 2):
        if not 2 <= genus <= len(LETTERS) // 4:
            raise ValueError(f"surface groups here have genus 2 (hyperbolic) to "
                             f"{len(LETTERS) // 4} (one byte per letter)")
        self.genus = genus
        self.alphabet = surface_alphabet(genus)
        self.relator = surface_relator(genus)
        self.dehn = close_dehn([self.relator], self.alphabet)
        self.rewriting = ShortlexRewriting(self.alphabet, self.relator)
        self._identity = SurfaceElement(b"")
        self._images = {name: SurfaceElement(bytes((i,)))
                        for i, name in enumerate(self.alphabet.names)}

    @property
    def identity(self) -> SurfaceElement:
        return self._identity

    def multiply(self, u: SurfaceElement, v: SurfaceElement) -> SurfaceElement:
        return SurfaceElement(self.rewriting.rewrite(u.code + v.code, len(u.code)))

    def invert(self, u: SurfaceElement) -> SurfaceElement:
        return SurfaceElement(self.rewriting.rewrite(self.rewriting.inverse(u.code)))

    @property
    def generator_images(self):
        return self._images

    def key(self, elem: SurfaceElement) -> bytes:
        return elem.code

    def fingerprint(self) -> str:
        return self.word_fingerprint(f"surface genus={self.genus}")
