"""Immutable words over (generator, sign) letters.

Braid words, twist words and swap words are all words in one free algebra:
a tuple of letters (generator, sign) with sign +1 or -1, read right to left
(the rightmost letter acts first), together with the context the generators
live in: a strand count, a surface or a layout.  This module defines the
algebra once; the subclasses in braid, surface and swaps add only their
context accessor, their letter check and what depends on the group.
"""

from __future__ import annotations

import itertools
from typing import Iterable


class ContextMismatch(ValueError):
    """Raised when combining words defined in different contexts."""


class Word:
    """An unreduced word; instances are immutable and cache their hash, so
    they serve as dictionary keys however long they are."""

    __slots__ = ("context", "letters", "_hash")
    _mismatch = ContextMismatch

    def __init__(self, context, letters: Iterable[tuple] = ()):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "letters", tuple(letters))
        object.__setattr__(self, "_hash", None)
        if any(s != 1 and s != -1 for _, s in self.letters):
            raise ValueError("letter sign must be +1 or -1")
        self._check()

    def _check(self) -> None:
        """Reject letters whose generator the context does not have."""

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: __setattr__ refuses
        return type(self), (self.context, self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other):
        return (type(other) is type(self) and self.context == other.context
                and self.letters == other.letters)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash",
                               hash((self.context, self.letters)))
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({self.context!r}; {len(self)} letters)"

    def __mul__(self, other: "Word") -> "Word":
        return compose(self, other)

    def inverse(self) -> "Word":
        """Reverse the letters and flip every sign."""
        return type(self)(self.context,
                          ((g, -s) for g, s in reversed(self.letters)))

    def power(self, k: int) -> "Word":
        base = self if k >= 0 else self.inverse()
        return type(self)(self.context, base.letters * abs(k))

    def is_positive(self) -> bool:
        return all(s == 1 for _, s in self.letters)

    def free_reduce(self) -> "Word":
        """Cancel adjacent inverse pairs (no group relations applied)."""
        stack: list = []
        for g, s in self.letters:
            if stack and stack[-1] == (g, -s):
                stack.pop()
            else:
                stack.append((g, s))
        return type(self)(self.context, stack)

    def conjugate_letters(self, v: "Word") -> "Word":
        """v . self . v^-1 spelled letter by letter: each letter x becomes
        the single letter v x v^-1, so the word keeps its length."""
        return type(self)(self.context, ((self._conjugate(v, g), s)
                                         for g, s in self.letters))

    def _conjugate(self, v: "Word", generator):
        """The generator of v . generator . v^-1."""
        raise TypeError(f"{type(self).__name__} has no conjugated letters")


def compose(*words: Word) -> Word:
    """Concatenate words; the rightmost argument acts first."""
    if not words:
        raise ValueError("compose needs at least one word")
    first = words[0]
    for w in words:
        if type(w) is not type(first) or w.context != first.context:
            raise first._mismatch(
                f"cannot compose words on {first.context!r} and {w.context!r}")
    return type(first)(first.context, itertools.chain.from_iterable(
        w.letters for w in words))
