"""Generator alphabets with formal inverses, words over them, free reduction."""

from __future__ import annotations

from typing import Iterable, Sequence

Word = tuple[str, ...]


class UnknownSymbol(KeyError):
    """A letter that does not belong to the alphabet in use."""


def default_inverse_name(name: str) -> str:
    """Involution on symbol names: a trailing '-' marks the inverse."""
    return name[:-1] if name.endswith("-") else name + "-"


class Alphabet:
    """Ordered generator list, closed under the involution on construction.

    Declaring ``x`` also adds ``x-`` immediately after it.  A name listed in
    ``self_inverse`` is its own inverse (used for order-two generators) and
    gets no companion symbol.
    """

    def __init__(self, names: Iterable[str], self_inverse: Iterable[str] = ()):
        self_inverse = set(self_inverse)
        self._inverse: dict[str, str] = {}  # in alphabet order
        for name in names:
            if name in self._inverse:
                continue
            if name in self_inverse:
                self._inverse[name] = name
            else:
                inv = default_inverse_name(name)
                self._inverse[name] = inv
                self._inverse[inv] = name
        self.names: tuple[str, ...] = tuple(self._inverse)
        self._index = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._inverse

    def __iter__(self):
        return iter(self.names)

    def inverse(self, name: str) -> str:
        try:
            return self._inverse[name]
        except KeyError:
            raise UnknownSymbol(name) from None

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownSymbol(name) from None

    def check_word(self, word: Sequence[str]) -> Word:
        for letter in word:
            if letter not in self._inverse:
                raise UnknownSymbol(letter)
        return tuple(word)

    def parse(self, text: str) -> Word:
        """Parse a space-separated word; trailing '-' marks an inverse letter."""
        return self.check_word(tuple(text.split()))


def word_inverse(word: Sequence[str], alphabet: Alphabet) -> Word:
    return tuple(alphabet.inverse(letter) for letter in reversed(word))


def free_reduce(word: Sequence[str], alphabet: Alphabet) -> Word:
    """Cancel adjacent letter/inverse pairs until none remain."""
    out: list[str] = []
    for letter in word:
        if out and out[-1] == alphabet.inverse(letter):
            out.pop()
        else:
            out.append(letter)
    return tuple(out)
