"""The double branched cover homomorphism B_{2g+2} -> Gamma_g^2.

Sigma_g^2 double covers the disk branched at 2g+2 marked points; the Artin
half-twist b_i lifts to the Dehn twist about the chain curve c_i, so braid
words lift letterwise to twist words and bands (conjugated generators) lift
to twists about derived curves.

The swap braid Delta.T_1^-1.T_2^-1 in B_{4g'+4} (T_i the full twists of the
two half blocks) is the downstairs picture of the swap map rho; its
quasipositive factorization is generated here as a nested family of 2g'+2
bands, each joining a point of the first block to its mirror point in the
second block through the connecting ribbon, and is certified by exact braid
equality rather than trusted.
"""

from __future__ import annotations

from typing import List, Tuple

from .braid import (BraidWord, band, block_half_twist, compose, equal,
                    half_twist)
from .surface import SurfaceModel, TwistWord, chain_curve


class CertificationError(RuntimeError):
    """A configured band word failed its exact-braid certification."""


def lift(w: BraidWord, surface: SurfaceModel | None = None) -> TwistWord:
    """Letterwise lift b_i^e -> t_{c_i}^e; requires an even strand count."""
    if w.strands % 2 != 0 or w.strands < 4:
        raise ValueError("branched lift needs an even strand count >= 4")
    g = (w.strands - 2) // 2
    if surface is None:
        surface = SurfaceModel(g, 2)
    elif surface.genus != g or surface.boundary != 2:
        raise ValueError(f"braid on {w.strands} strands lifts to "
                         f"Sigma_{g}^2, not the given surface")
    return TwistWord(surface, ((chain_curve(i), s) for i, s in w.letters))


def block_full_twist(n: int, lo: int, hi: int) -> BraidWord:
    b = block_half_twist(n, lo, hi)
    return compose(b, b)


def swap_braid_target(gp: int) -> BraidWord:
    """Delta . T_1^-1 . T_2^-1 in B_{4g'+4}: the braid covering rho."""
    if gp < 1:
        raise ValueError("swap surfaces need g' >= 1")
    h = 2 * gp + 2
    n = 2 * h
    return compose(half_twist(n), block_full_twist(n, 1, h).inverse(),
                   block_full_twist(n, h + 1, n).inverse())


def swap_bands(gp: int) -> List[Tuple[int, BraidWord]]:
    """The 2g'+2 positive bands multiplying to Delta.T_1^-1.T_2^-1.

    Band k (k = h..1, outermost first, innermost acting first) joins the
    mirror pair of punctures (h-k+1, h+k): its arc leaves the first block
    under its own cluster and crosses to the second through the ribbon.
    Returns (core index, conjugator) pairs; the band is conj.b_core.conj^-1.
    """
    if gp < 1:
        raise ValueError("swap surfaces need g' >= 1")
    h = 2 * gp + 2
    out: List[Tuple[int, BraidWord]] = []
    for k in range(h, 0, -1):
        off = h - k
        conj = [-(off + j) for j in range(1, k)] \
            + [off + k + j for j in range(k - 1)]
        core = off + 2 * k - 1
        out.append((core, BraidWord.from_ints(2 * h, conj)))
    return out


def band_word(bands: List[Tuple[int, BraidWord]]) -> BraidWord:
    """Multiply out a band list into one braid word."""
    return compose(*[band(core, conj) for core, conj in bands])


def rho_band_factorization(gp: int) -> List[Tuple[int, BraidWord]]:
    """Certified quasipositive factorization of the swap braid.

    The band product is checked against Delta.T_1^-1.T_2^-1 by the exact
    word problem on every call; a failure means the configured family is
    wrong for this size and is raised, never returned.
    """
    bands = swap_bands(gp)
    if not equal(band_word(bands), swap_braid_target(gp)):
        raise CertificationError(
            f"band family for g'={gp} does not multiply to the swap braid")
    return bands
