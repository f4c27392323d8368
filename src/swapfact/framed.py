"""Exact arithmetic in the framed braid group B_{*n}.

A framed braid is an underlying braid word plus one integer framing per
strand, indexed by the strand's starting position.  Although B_{*n} is
abstractly B_n x Z^n, composition in this presentation is semidirect: the
framings travel with the strands, so the first factor's framings are read
off at the end positions of the second.  This is the composition law that
reproduces the +3/-3 framing counts of the swap-map calculus.

Everything here is about the 4-strand shadows of swap words, but the
operations are written for any strand count (the two-cluster shadow of the
half-twist lift uses n = 2).
"""

from __future__ import annotations

from typing import Tuple

from .braid import BraidWord, StrandMismatch, compose, equal, full_twist
from .words import Value


class FramedBraid(Value):
    __slots__ = ("underlying", "framings")

    def __init__(self, underlying: BraidWord, framings: Tuple[int, ...]):
        if len(framings) != underlying.strands:
            raise ValueError("framing vector length must equal strand count")
        self._init(underlying, framings)

    @property
    def strands(self) -> int:
        return self.underlying.strands


def framed_identity(n: int) -> FramedBraid:
    return FramedBraid(BraidWord(n), (0,) * n)


def m_framed(i: int, n: int = 4) -> FramedBraid:
    """The boundary multitwist of the i-th inner boundary: framing +1 on
    strand i, trivial braiding."""
    if not 1 <= i <= n:
        raise ValueError(f"strand index {i} out of range")
    return FramedBraid(BraidWord(n), tuple(int(k == i - 1) for k in range(n)))


def fcompose(*factors: FramedBraid) -> FramedBraid:
    """Compose framed braids, rightmost first.

    The composite's framing at starting strand i is the rightmost factor's
    framing there plus the next factor's framing at the strand's landing
    position, and so on along the strand.  One walk over the factors
    carries the strands' landing positions; the underlying words are joined
    once, so the cost is linear in the total length.
    """
    if not factors:
        raise ValueError("fcompose needs at least one factor")
    n = factors[0].strands
    for f in factors:
        if f.strands != n:
            raise StrandMismatch("framed braids on different strand counts")
    landing, framings = range(n), [0] * n
    for g in reversed(factors):
        framings = [x + g.framings[p] for x, p in zip(framings, landing)]
        perm = g.underlying.permutation()
        landing = [perm[p] for p in landing]
    return FramedBraid(compose(*(f.underlying for f in factors)),
                       tuple(framings))


def finverse(x: FramedBraid) -> FramedBraid:
    inv = x.underlying.inverse()
    perm = inv.permutation()
    framings = tuple(-x.framings[perm[i]] for i in range(x.strands))
    return FramedBraid(inv, framings)


def fpower(x: FramedBraid, k: int) -> FramedBraid:
    base = x if k >= 0 else finverse(x)
    return fcompose(framed_identity(x.strands), *[base] * abs(k))


def delta_framed(i: int, j: int, n: int = 4) -> FramedBraid:
    """The framed half-twist exchanging adjacent inner boundaries i < j:
    boundary i travels to slot j picking up framing +1, boundary j comes
    back with framing 0."""
    if j != i + 1 or not 1 <= i < n:
        raise ValueError("delta_framed is primitive only for adjacent pairs;"
                         " conjugate for the rest")
    underlying = BraidWord.from_ints(n, [i])
    framings = tuple(1 if k == i - 1 else 0 for k in range(n))
    return FramedBraid(underlying, framings)


def rho_framed(i: int, j: int, n: int = 4) -> FramedBraid:
    """The framed swap generator: the half-twist corrected by a negative
    twist about each of the two boundaries, so strand i ends with framing 0
    and strand j with -1.  Non-adjacent pairs are spelled with the
    conjugation identities rho_13 = rho_12^-1 rho_23 rho_12 and
    rho_24 = rho_23^-1 rho_34 rho_23 (and once more for rho_14)."""
    if not 1 <= i < j <= n:
        raise ValueError(f"bad swap pair ({i}, {j})")
    if j == i + 1:
        underlying = BraidWord.from_ints(n, [i])
        framings = tuple(-1 if k == j - 1 else 0 for k in range(n))
        return FramedBraid(underlying, framings)
    inner = rho_framed(i + 1, j, n)
    step = rho_framed(i, i + 1, n)
    return fcompose(finverse(step), inner, step)


def boundary_multitwist_framed(n: int) -> FramedBraid:
    """Positive twist about the outer boundary: full twist downstairs with
    framing +1 on every strand."""
    if n < 2:
        raise ValueError("need n >= 2")
    return FramedBraid(full_twist(n), (1,) * n)


def framed_equal(x: FramedBraid, y: FramedBraid) -> bool:
    """Exact equality in B_{*n}: equal underlying braids and identical
    framing vectors."""
    if x.strands != y.strands:
        raise StrandMismatch("framed braids on different strand counts")
    if x.framings != y.framings:
        return False
    return equal(x.underlying, y.underlying)
