"""Braid words as signed integers, the spelling the braid tests compare."""


def to_ints(word) -> tuple:
    """The word's letters as signed generator indices: b1 b2^-1 -> (1, -2)."""
    return tuple(i * s for i, s in word.letters)
