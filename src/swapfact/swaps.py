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

spell() writes each swap letter once, as conjugates V.p.V^-1 of primitives
p: rho_{i,i+1}, M_i, Mb and sub.  Two verification tiers read it, each with
its image of p and of V.  expand() maps swap words to twist words whose
homology action is exact on H_1 of the ambient surface: rho_{i,i+1} to its
lifted bands, M_i and Mb to the twists about their two boundary circles,
sub to the embedded word.  shadow() maps them to framed 4-braids, which by
the layout's structure determine compositions of plain swap maps fully:
rho_framed, m_framed, the framed full twist, and the identity for sub.
"""

from __future__ import annotations

import functools
from typing import Tuple

from .braid import BraidWord, block_half_twist
from .framed import (FramedBraid, boundary_multitwist_framed, fcompose,
                     finverse, framed_identity, m_framed, rho_framed)
from .lift import lift, rho_band_factorization
from .surface import (MAX_LAYOUT, DerivedCurve, NamedCurve, SurfaceLayout,
                      TwistWord, UnknownCurve)
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
# Letter kinds (each letter is (kind, sign)), as spell() writes them:
#   ('rho', i, j)            swap of F_i and F_j: primitive for j = i+1,
#                            else rho_{i,i+1}^-1 . rho_{i+1,j} . rho_{i,i+1}
#   ('delta', i, j)          the uncorrected half-twist rho_ij . M_j . M_i
#   ('M', i)                 boundary multitwist of F_i: primitive
#   ('Mb',)                  boundary multitwist of the ambient: primitive
#   ('sub', i, A)            A in Gamma_{2+l}^2 embedded on F_i: primitive
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


def spell(layout: SurfaceLayout, kind: tuple) -> list:
    """The positive letter as pairs (V, p), the product of the V . p . V^-1
    for primitive kinds p and SwapWords V (p alone for V None)."""
    name = kind[0]
    if name == "rho" and kind[2] > kind[1] + 1:
        _, i, j = kind
        v, inner = rho(layout, i, i + 1, -1), ("rho", i + 1, j)
    elif name == "conj":
        _, v, inner = kind
    elif name == "delta":
        _, i, j = kind
        return spell(layout, ("rho", i, j)) + [(None, ("M", j)),
                                               (None, ("M", i))]
    elif name in ("rho", "M", "Mb", "sub"):
        return [(None, kind)]
    else:
        raise ValueError(f"unknown swap letter kind {kind!r}")
    return [(v if w is None else v * w, p) for w, p in spell(layout, inner)]


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


# --- the two tiers ---------------------------------------------------------

# Each tier's image of each primitive, from the layout and its arguments.
_TWIST_IMAGES = {
    "rho": lambda layout, i, j: _rho_expansions(layout.l)[i - 1],
    "M": lambda layout, i: TwistWord(layout.ambient_model(), (
        (NamedCurve(("subboundary", i, k)), 1) for k in (1, 2))),
    "Mb": lambda layout: TwistWord(layout.ambient_model(), (
        (NamedCurve(("boundary", k)), 1) for k in (1, 2))),
    "sub": lambda layout, i, a_word: embed(a_word, i, layout),
}
_FRAMED_IMAGES = {
    "rho": lambda layout, i, j: rho_framed(i, j),
    "M": lambda layout, i: m_framed(i),
    "Mb": lambda layout: boundary_multitwist_framed(4),
    "sub": lambda layout, i, a_word: framed_identity(4),
}


def expand(word: SwapWord) -> TwistWord:
    """Twist-word expansion; positive swap letters expand to all-positive
    twist letters and the letter counts are exact bookkeeping."""
    layout = word.layout
    letters = [TwistWord(layout.ambient_model())]
    for kind, sign in word.letters:
        pieces = []
        for v, (name, *args) in spell(layout, kind):
            x = _TWIST_IMAGES[name](layout, *args)
            pieces.append(x if v is None else x.conjugate_letters(expand(v)))
        letters.append(compose(*pieces).power(sign))
    return compose(*letters)


def shadow(word: SwapWord) -> FramedBraid:
    """The induced framed 4-braid: faithful on words in the plain swap
    letters; embedded subsurface classes shadow to the identity."""
    factors = [framed_identity(4)]
    for kind, sign in word.letters:
        pieces = []
        for v, (name, *args) in spell(word.layout, kind):
            x = _FRAMED_IMAGES[name](word.layout, *args)
            if v is not None:
                x = fcompose(sv := shadow(v), x, finverse(sv))
            pieces.append(x)
        s = fcompose(*pieces)
        factors.append(s if sign > 0 else finverse(s))
    return fcompose(*factors)


def has_subsurface_letters(word: SwapWord) -> bool:
    """Whether a sub letter occurs anywhere in the word, conjugators
    included: the letters the shadow cannot see."""
    return any(p[0] == "sub" or (v is not None and has_subsurface_letters(v))
               for kind, _ in word.letters
               for v, p in spell(word.layout, kind))


# --- expansion sizes --------------------------------------------------------

def _tree_size(word: TwistWord) -> int:
    """The letters of the word and, once per letter that carries it, those
    of its conjugator, recursively: the letters embed builds."""
    memo: dict = {}

    def size(w: TwistWord) -> int:
        n = len(w)
        for curve, _ in w.letters:
            if isinstance(curve, DerivedCurve):
                c = curve.conjugator
                if id(c) not in memo:
                    memo[id(c)] = size(c)
                n += memo[id(c)]
        return n

    return size(word)


def _rho_sizes(l: int, i: int) -> Tuple[int, int, int]:
    w = _rho_expansions(l)[i - 1]
    return len(w), len(w), _tree_size(w)


# Per primitive: its twist letters t, the letters b expand builds for it
# unconjugated, and the letters c (twists and their conjugators) that
# conjugating its image copies.  The rho images are built once per layout.
_SIZES = {
    "rho": lambda layout, i, j: _rho_sizes(layout.l, i),
    "M": lambda layout, i: (2, 2, 2),
    "Mb": lambda layout: (2, 2, 2),
    "sub": lambda layout, i, a: (len(a),) + (_tree_size(a),) * 2,
}


def expansion_size(layout: SurfaceLayout, kind: tuple) -> Tuple[int, int]:
    """The twist letters of expand of the positive letter kind, and a bound
    on the letters that expand builds for it, counted before building:
    V . p . V^-1 builds V's expansion and a conjugator for each letter of
    p's image, as long as V's expansion and the letter's own conjugator."""
    twists = built = 0
    for v, (name, *args) in spell(layout, kind):
        t, b, c = _SIZES[name](layout, *args)
        if v is not None:
            sizes = [expansion_size(layout, k) for k, _ in v.letters]
            b += c + sum(s for _, s in sizes) + t * sum(n for n, _ in sizes)
        twists, built = twists + t, built + b
    return twists, built
