"""Immutable words over (generator, sign) letters.

Braid words, twist words and swap words are all words in one free algebra:
a tuple of letters (generator, sign) with sign +1 or -1, read right to left
(the rightmost letter acts first), together with the context the generators
live in: a strand count, a surface or a layout.  This module defines the
algebra once; the subclasses in braid, surface and swaps add only their
context accessor, their letter check and what depends on the group.

Words and the value types (surfaces, curves, framed braids, factorizations)
are immutable records on one base, Value.  A subclass names its fields in
__slots__ (a name starting with _ is private state), checks its arguments
and stores them with self._init(...); Value refuses assignment and deletion,
compares and hashes the field tuple, prints Name(field=value, ...), and
copies and pickles through __init__.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Iterable


class ContextMismatch(ValueError):
    """Raised when combining words defined in different contexts."""


class Value:
    """An immutable record whose fields are the public names in its
    class's __slots__, plus those of the classes it derives from."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(
            f for f in cls.__dict__.get("__slots__", ())
            if not f.startswith("_"))
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the value, not a 1-tuple
        cls._values = get if len(cls._fields) > 1 else staticmethod(
            lambda obj: (get(obj),))

    def _init(self, *values) -> None:
        """Store the fields, in slot order; only __init__ calls this."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through __init__: __setattr__ refuses
        return type(self), self._values(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = map("{}={!r}".format, self._fields, self._values(self))
        return f"{type(self).__name__}({', '.join(pairs)})"


class Word(Value):
    """An unreduced word; instances are immutable and cache their hash, so
    they serve as dictionary keys however long they are."""

    __slots__ = ("context", "letters", "_hash")
    _mismatch = ContextMismatch

    def __init__(self, context, letters: Iterable[tuple] = ()):
        self._init(context, tuple(letters))
        object.__setattr__(self, "_hash", None)
        if any(s != 1 and s != -1 for _, s in self.letters):
            raise ValueError("letter sign must be +1 or -1")
        self._check()

    def _check(self) -> None:
        """Reject letters whose generator the context does not have."""

    def __len__(self) -> int:
        return len(self.letters)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._values(self)))
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
