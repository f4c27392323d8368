"""Swap-map calculus on the genus 11+4l surface.

The ambient surface Sigma_{11+4l}^2 is the double branched cover of a disk
with 4h marked points, h = 2l+6, grouped into four clusters; the subsurface
F_i is the part of the cover over the i-th cluster, a Sigma_{2+l}^2 whose
chain curves are the ambient chain curves over that cluster.  A swap word is
a word in the maps exchanging these subsurfaces, the boundary multitwists,
and embedded subsurface mapping classes.

Downstairs, the swap of adjacent subsurfaces is the braid

    rho_hat = W_i . (Delta_block . T_i^-1 . T_j^-1) . W_i^-1,

the block half-twist with the cluster twists cancelled, conjugated by the
half-twist W_i of the lower cluster; the conjugation is what makes the swap
carry the k-th chain curve of F_i to the k-th chain curve of F_j instead of
reversing the chain.  Its certified band factorization (see lift) therefore
transports to a positive twist expansion of every swap letter.

Two verification tiers are provided: expand() maps swap words to twist words
whose homology action is exact on H_1 of the ambient surface, and shadow()
maps them to framed 4-braids, which by the structure of the layout determine
compositions of plain swap maps completely.  Words mixing in subsurface
classes are only constrained homologically (the shadow of an embedded class
is trivial by construction).
"""

from __future__ import annotations

import functools
from typing import Tuple

from .braid import BraidWord, block_half_twist
from .framed import (FramedBraid, boundary_multitwist_framed, fcompose,
                     finverse, framed_identity, m_framed, rho_framed)
from .lift import lift, rho_band_factorization
from .surface import (MAX_LAYOUT, DerivedCurve, NamedCurve, SurfaceLayout,
                      TwistWord, UnknownCurve, twist)
from .words import Word, compose


_SUB_TAG = {"chain": "subchain", "dcurve": "subdcurve",
            "boundary": "subboundary"}


def embed(word: TwistWord, i: int, layout: SurfaceLayout) -> TwistWord:
    """The mapping class acting as the subsurface word on F_i and as the
    identity elsewhere: letterwise curve relabeling."""
    if word.surface != layout.subsurface_model():
        raise ValueError("embed expects a word on the subsurface model")

    def embed_curve(curve):
        if isinstance(curve, NamedCurve):
            kind = curve.tag[0]
            if kind not in _SUB_TAG:
                raise UnknownCurve(f"cannot embed curve {curve.tag}")
            return NamedCurve((_SUB_TAG[kind], i) + curve.tag[1:])
        return DerivedCurve(embed_curve(curve.base),
                            embed(curve.conjugator, i, layout))

    return TwistWord(layout.ambient_model(),
                     ((embed_curve(c), s) for c, s in word.letters))


# ---------------------------------------------------------------------------
# Swap words
# ---------------------------------------------------------------------------
#
# Letter kinds (each letter is (kind, sign)):
#   ('rho', i, j)            swap of F_i and F_j (adjacent pairs primitive,
#                            the rest spelled by conjugation)
#   ('delta', i, j)          the uncorrected half-twist swap
#   ('M', i)                 boundary multitwist of F_i
#   ('Mb',)                  boundary multitwist of the ambient surface
#   ('sub', i, A)            A in Gamma_{2+l}^2 embedded on F_i
#   ('conj', V, kind)        V . letter(kind) . V^-1 for a SwapWord V


class SwapWord(Word):
    """A word in swap-map letters on a fixed layout; letters are
    (kind, sign) and the rightmost letter acts first."""

    __slots__ = ()

    @property
    def layout(self) -> SurfaceLayout:
        return self.context

    def _conjugate(self, v: "SwapWord", kind: tuple) -> tuple:
        return ("conj", v, kind)


def swap_letter(layout: SurfaceLayout, kind: tuple, sign: int = 1) -> SwapWord:
    return SwapWord(layout, ((kind, sign),))


def rho(layout: SurfaceLayout, i: int, j: int, sign: int = 1) -> SwapWord:
    if not 1 <= i < j <= 4:
        raise ValueError(f"bad swap pair ({i}, {j})")
    return swap_letter(layout, ("rho", i, j), sign)


# --- expansion to twist words ----------------------------------------------

# Keyed on l, not on a caller's layout: a cached layout would keep the
# homology calculator it owns, and that calculator's class memo, for the
# life of the process.
@functools.lru_cache(maxsize=MAX_LAYOUT + 1)
def _rho_expansions(l: int) -> Tuple[TwistWord, ...]:
    """Positive expansions of rho_{i,i+1} for i = 1, 2, 3 on layout l: the
    certified bands of the block swap braid, shifted onto clusters i, i+1,
    lifted, and transported by the lifted cluster-i half twist."""
    layout = SurfaceLayout(l)
    bands = rho_band_factorization(layout.subsurface_genus)
    n = layout.branch_points
    surface = layout.ambient_model()
    out = []
    for i in (1, 2, 3):
        off = layout.cluster_offset(i)
        vi = lift(block_half_twist(n, off + 1, off + layout.cluster_size),
                  surface)
        letters = []
        for core, conj in bands:
            shifted = BraidWord(n, ((k + off, s) for k, s in conj.letters))
            curve = DerivedCurve(NamedCurve(("chain", core + off)),
                                 vi * lift(shifted, surface))
            letters.append((curve, 1))
        out.append(TwistWord(surface, letters))
    return tuple(out)


def _expand_positive_kind(layout: SurfaceLayout, kind: tuple) -> TwistWord:
    surface = layout.ambient_model()
    name = kind[0]
    if name == "rho":
        _, i, j = kind
        if j == i + 1:
            return _rho_expansions(layout.l)[i - 1]
        step = rho(layout, i, i + 1)
        inner = expand(SwapWord(layout, ((("rho", i + 1, j), 1),)))
        return inner.conjugate_letters(expand(step.inverse()))
    if name == "delta":
        _, i, j = kind
        return compose(
            _expand_positive_kind(layout, ("rho", i, j)),
            _expand_positive_kind(layout, ("M", j)),
            _expand_positive_kind(layout, ("M", i)))
    if name == "M":
        _, i = kind
        return (twist(surface, NamedCurve(("subboundary", i, 1)))
                * twist(surface, NamedCurve(("subboundary", i, 2))))
    if name == "Mb":
        return (twist(surface, NamedCurve(("boundary", 1)))
                * twist(surface, NamedCurve(("boundary", 2))))
    if name == "sub":
        _, i, a_word = kind
        return embed(a_word, i, layout)
    if name == "conj":
        _, v, inner = kind
        return _expand_positive_kind(layout, inner).conjugate_letters(expand(v))
    raise ValueError(f"unknown swap letter kind {kind!r}")


def expand(word: SwapWord) -> TwistWord:
    """Twist-word expansion; positive swap letters expand to all-positive
    twist letters and the letter counts are exact bookkeeping."""
    return compose(TwistWord(word.layout.ambient_model()), *[
        _expand_positive_kind(word.layout, kind).power(sign)
        for kind, sign in word.letters])


# --- framed shadow ----------------------------------------------------------

def _shadow_positive_kind(layout: SurfaceLayout, kind: tuple) -> FramedBraid:
    name = kind[0]
    if name == "rho":
        return rho_framed(kind[1], kind[2])
    if name == "delta":
        _, i, j = kind
        return fcompose(rho_framed(i, j), m_framed(j), m_framed(i))
    if name == "M":
        return m_framed(kind[1])
    if name == "Mb":
        return boundary_multitwist_framed(4)
    if name == "sub":
        return framed_identity(4)
    if name == "conj":
        _, v, inner = kind
        sv = shadow(v)
        return fcompose(sv, _shadow_positive_kind(layout, inner), finverse(sv))
    raise ValueError(f"unknown swap letter kind {kind!r}")


def shadow(word: SwapWord) -> FramedBraid:
    """The induced framed 4-braid: faithful on words in the plain swap
    letters; embedded subsurface classes shadow to the identity."""
    factors = [framed_identity(4)]
    for kind, sign in word.letters:
        s = _shadow_positive_kind(word.layout, kind)
        factors.append(s if sign > 0 else finverse(s))
    return fcompose(*factors)


def has_subsurface_letters(word: SwapWord) -> bool:
    """Whether a sub letter occurs anywhere in the word, inside the
    conjugators of conj and rhoA letters too: the letters the shadow
    cannot see."""
    stack = [kind for kind, _ in word.letters]
    while stack:
        kind = stack.pop()
        if kind[0] == "sub":
            return True
        if kind[0] == "conj":
            stack.append(kind[2])
            stack.extend(k for k, _ in kind[1].letters)
    return False
