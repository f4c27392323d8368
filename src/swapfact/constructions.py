"""The arbitrarily long positive factorization families.

Built from three ingredients:

* the ten-twist word T on the genus-two subsurface and the commutator
  relation 1 = T^m C(m), which holds because a mapping class psi carries the
  pair (c_1, d_1) to (d_2, c_3); psi is found by a bounded bidirectional
  search over twist words, whose moves are the sparse transvections of
  the surface's calculator, and certified homologically;
* the swap word Phi = rho_24 rho_13 rho_34 rho_23 rho_12, whose conjugated
  rewriting absorbs the commutator and yields positive factorizations of
  length 10m + 5(2l+6);
* the insertion lemma (inserting positive letters into a positive word is
  the same as appending their prefix conjugates), which extends Phi's
  factorizations to the boundary multitwist and then to higher genus via
  the chain relations.

Letter counts are computed outputs, never inputs.  The literature this
follows states the assembled lengths inconsistently in one place (10m+60
against the count 10m+104 implied by the vanishing-cycle census); this
module's counts are the assembled ones, 10m + 24l + 104.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence, Tuple

from .surface import (DerivedCurve, HomologyCalculator, NamedCurve,
                      SurfaceLayout, SurfaceModel, TwistWord, chain_curve,
                      twist)
from .swaps import SwapWord, expand, rho
from .words import Value, Word, compose


class SearchExhausted(RuntimeError):
    """The bounded psi search ended without a certified word."""


# ---------------------------------------------------------------------------
# The genus-two commutator relation
# ---------------------------------------------------------------------------

_T_SEQUENCE = (2, 3, 1, 2, 3, 1, 2, 3, 1, 2)     # the chain curves' indices


def word_T(surface: SurfaceModel | None = None) -> TwistWord:
    """T = t_c2 t_c3 (t_c1 t_c2 t_c3)^2 t_c1 t_c2: ten positive twists."""
    surface = surface or SurfaceModel(2, 2)
    return compose(*[twist(surface, chain_curve(k)) for k in _T_SEQUENCE])


_PSI_GEN_TAGS = (("chain", 1), ("chain", 2), ("chain", 3), ("chain", 4),
                 ("chain", 5), ("dcurve", 1))

# Search depth per direction: psi is certified within 2 * PSI_MAX_DEPTH
# letters.
PSI_MAX_DEPTH = 6


def make_psi(surface: SurfaceModel | None = None, seed: int = 0
             ) -> TwistWord:
    """A twist word certified to carry ([c1], [d1]) to (+-[d2], +-[c3]).

    Bidirectional breadth-first search over words in twists about
    c_1..c_5, d_1, each state stored with the word that reaches it;
    deterministic for a fixed seed (the seed only rotates the generator
    order, the search itself is exhaustive per depth).  It stops on the
    first half-level that reaches a state the other side has seen; ties
    between shortest certificates fall to the iteration order of the set
    of states both sides have seen.  Raises SearchExhausted if no
    certificate exists within 2 * PSI_MAX_DEPTH letters.
    """
    surface = surface or SurfaceModel(2, 2)
    return _psi_search(surface, seed)


# A CLI command searches once; the test suite asks for 68 distinct
# (surface, seed) pairs, 263 times in all.  Each side maps a state, a pair
# of classes, to its path: the (tag, sign) labels in application order.
@functools.lru_cache(maxsize=16)
def _psi_search(surface: SurfaceModel, seed: int) -> TwistWord:
    calc = HomologyCalculator(surface)
    gens = [(tag, sign) for tag in _PSI_GEN_TAGS for sign in (1, -1)]
    k = seed % len(gens)
    # generator (tag, sign) moves a class x to x + <x, sign c> c: the
    # nonzero entries of c from the calculator's table, with its signed
    # covector's; the backward side applies the inverse, the covector negated
    steps = []
    for tag, sign in gens[k:] + gens[:k]:
        support, phi = calc.sparse(calc.curve_class(NamedCurve(tag)))
        steps.append(((tag, sign), support,
                      tuple((j, sign * f) for j, f in phi)))
    back = [(g, support, tuple((j, -f) for j, f in phi))
            for g, support, phi in steps]

    def grow(frontier, paths, steps, forward):
        """One half-level: the states first reached from the frontier, each
        stored in paths with its path, the label appended (forward) or
        prepended (backward)."""
        new = []
        for st in frontier:
            path = paths[st]
            for g, support, phi in steps:
                nx = []
                for x in st:
                    k = 0
                    for j, f in phi:
                        k += x[j] * f
                    if k:
                        x = list(x)
                        for i, v in support:
                            x[i] += k * v
                        x = tuple(x)
                    nx.append(x)
                nx = tuple(nx)
                if nx not in paths:
                    paths[nx] = path + (g,) if forward else (g,) + path
                    new.append(nx)
        return new

    c1, d1, d2, c3 = (calc.curve_class(NamedCurve(t)) for t in (
        ("chain", 1), ("dcurve", 1), ("dcurve", 2), ("chain", 3)))
    fwd = {(c1, d1): ()}
    bwd = {(tuple(a * x for x in d2), tuple(b * x for x in c3)): ()
           for a in (1, -1) for b in (1, -1)}
    ffr, bfr = list(fwd), list(bwd)
    for half in range(2 * PSI_MAX_DEPTH):
        if half % 2:
            bfr = grow(bfr, bwd, back, False)
        else:
            ffr = grow(ffr, fwd, steps, True)
        # the first shortest path in the meet set's iteration order wins
        meet = set(fwd) & set(bwd)
        if meet:
            best = min((fwd[m] + bwd[m] for m in meet), key=len)
            return TwistWord(surface, tuple((NamedCurve(t), s)
                                            for t, s in reversed(best)))
    raise SearchExhausted(
        f"no psi certificate within {2 * PSI_MAX_DEPTH} letters")


def commutator_relation(m: int, surface: SurfaceModel | None = None,
                        seed: int = 0) -> Tuple[TwistWord, TwistWord]:
    """(T^m, C(m)) with T^m C(m) acting trivially on homology.

    C(m) = psi X psi^-1 X^-1 for X = t_c1^-m t_d1^m; with psi's certificate
    this inverts T^m = X psi X^-1 psi^-1 exactly at the homology tier.
    Neither word touches the boundary curves.  seed picks the psi
    certificate, as in make_psi.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    surface = surface or SurfaceModel(2, 2)
    psi = make_psi(surface, seed=seed)
    x = (twist(surface, NamedCurve(("chain", 1)), -1).power(m)
         * twist(surface, NamedCurve(("dcurve", 1))).power(m))
    c = compose(psi, x, psi.inverse(), x.inverse())
    return word_T(surface).power(m), c


# ---------------------------------------------------------------------------
# Positive factorizations
# ---------------------------------------------------------------------------

class PositiveFactorization(Value):
    """An all-positive twist word, its swap-letter skeleton, and the target
    it factorizes."""

    __slots__ = ("word", "skeleton", "description", "provenance")

    def __init__(self, word: TwistWord, skeleton: SwapWord | None,
                 description: str, provenance: Tuple[str, ...]):
        if not word.is_positive():
            raise ValueError("factorization letters must all be positive")
        if len(provenance) != len(word):
            raise ValueError("one provenance note per letter")
        self._init(word, skeleton, description, provenance)

    def length(self) -> int:
        return len(self.word)


def phi(layout: SurfaceLayout | int = 0) -> SwapWord:
    """Phi = rho_24 rho_13 rho_34 rho_23 rho_12."""
    if isinstance(layout, int):
        layout = SurfaceLayout(layout)
    return compose(rho(layout, 2, 4), rho(layout, 1, 3), rho(layout, 3, 4),
                   rho(layout, 2, 3), rho(layout, 1, 2))


def phi_factorization(m: int, l: int = 0, seed: int = 0
                      ) -> PositiveFactorization:
    """Positive factorization of Phi of length 10m + 5(2l+6).

    The commutator gauge letters A = t_c1^m t_d1^-m and B = psi^-1 of the
    rewriting are pushed across the swaps until each swap letter carries an
    explicit conjugator; what remains in front is m embedded copies of T.
    The gauge residue cancels freely, so the output is freely equal to the
    conjugated word and its homology action equals that of Phi's plain
    expansion.  seed picks the psi certificate, as in make_psi.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    layout = SurfaceLayout(l)
    sub = layout.subsurface_model()
    t_word = word_T(sub)
    psi = make_psi(sub, seed=seed)
    a_word = (twist(sub, NamedCurve(("chain", 1))).power(m)
              * twist(sub, NamedCurve(("dcurve", 1)), -1).power(m))
    b_word = psi.inverse()

    def sub_letter(i, w):
        return (("sub", i, w), 1)

    gauge = [sub_letter(1, compose(b_word.inverse(), a_word.inverse(),
                                   b_word)),
             sub_letter(2, b_word.inverse() * a_word.inverse()),
             sub_letter(3, b_word.inverse())]
    p_head = SwapWord(layout, tuple(gauge))
    conjugators = [
        p_head * SwapWord(layout, (sub_letter(2, b_word),)),
        p_head * SwapWord(layout, (sub_letter(1, a_word),)),
        p_head, p_head, p_head,
    ]
    swaps = [("rho", 2, 4), ("rho", 1, 3), ("rho", 3, 4),
             ("rho", 2, 3), ("rho", 1, 2)]

    skeleton = SwapWord(layout, tuple(
        [(("sub", 1, t_word), 1)] * m
        + [(("conj", v, kind), 1) for v, kind in zip(conjugators, swaps)]))

    word = expand(skeleton)
    prov = [f"T copy {k // 10 + 1}" for k in range(10 * m)]
    per = layout.cluster_size
    for (kind, v) in zip(swaps, conjugators):
        prov.extend([f"conjugated swap {kind[1]}{kind[2]}"] * per)
    return PositiveFactorization(word, skeleton, f"Phi (m={m}, l={l})",
                                 tuple(prov))


# ---------------------------------------------------------------------------
# Inserting equals appending
# ---------------------------------------------------------------------------

def insert_equals_append(word: Word, insertions: Sequence[Tuple[int, tuple]]
                         ) -> Tuple[Word, Word]:
    """Rewrite insertions as an appended positive prefix.

    word is a SwapWord or TwistWord; insertions are (position, letter)
    pairs, position indexing the original letters (0..len), letters
    positive.  Inserting w between W_2 . W_1 equals appending W_2 w W_2^-1,
    where W_2 is the original prefix only: the letters inserted before w at
    the same position are not part of it, since conjugation by the prefix
    distributes over the block.  Returns (tilde, full) with full the
    in-place result and tilde the appended word, so that tilde * word = full
    in the group.
    """
    letters = word.letters
    blocks: Dict[int, list] = {}
    for pos, letter in insertions:
        if not 0 <= pos <= len(letters):
            raise ValueError(f"insertion position {pos} out of range")
        if letter[1] != 1:
            raise ValueError("only positive letters may be inserted")
        blocks.setdefault(pos, []).append(letter)

    tilde: list = []
    full: list = []
    for pos in range(len(letters) + 1):
        if pos in blocks:
            block = type(word)(word.context, blocks[pos])
            prefix = type(word)(word.context, letters[:pos])
            tilde.extend(block.conjugate_letters(prefix).letters if pos
                         else block.letters)
            full.extend(block.letters)
        if pos < len(letters):
            full.append(letters[pos])
    return type(word)(word.context, tilde), type(word)(word.context, full)


# ---------------------------------------------------------------------------
# The boundary multitwist factorization and its extensions
# ---------------------------------------------------------------------------

def _adjacent_spelling(layout: SurfaceLayout) -> SwapWord:
    """Phi respelled in adjacent swaps: rho_23^-1 rho_34 rho_23 rho_12^-1
    rho_23 rho_12 rho_34 rho_23 rho_12."""
    seq = [((2, 3), -1), ((3, 4), 1), ((2, 3), 1), ((1, 2), -1),
           ((2, 3), 1), ((1, 2), 1), ((3, 4), 1), ((2, 3), 1), ((1, 2), 1)]
    return SwapWord(layout, tuple((("rho", i, j), s) for (i, j), s in seq))


def _full_twist_insertions() -> List[Tuple[int, tuple]]:
    """The seven swap insertions turning the adjacent spelling of Phi into
    (rho_34 rho_23 rho_12)^4."""
    mk = lambda i, j: (("rho", i, j), 1)
    return ([(0, mk(3, 4)), (0, mk(2, 3)), (0, mk(1, 2)), (0, mk(2, 3))]
            + [(3, mk(1, 2)), (3, mk(1, 2))]
            + [(4, mk(3, 4))])


def boundary_multitwist_factorization(m: int, l: int = 0, seed: int = 0
                                      ) -> PositiveFactorization:
    """Positive factorization of the boundary multitwist of Sigma_{11+4l}^2,
    of length 10m + 24l + 104 (10m + 104 at l = 0).

    Assembled as M_bdry = W~ . Phi(m) . M_4^4 M_3^4 M_2^4 M_1^4 where W~
    comes from insert_equals_append on the adjacent spelling of Phi;
    seed picks the psi certificate, as in make_psi.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    layout = SurfaceLayout(l)
    spelled = _adjacent_spelling(layout)
    tilde, full = insert_equals_append(spelled, _full_twist_insertions())
    base = compose(rho(layout, 3, 4), rho(layout, 2, 3),
                   rho(layout, 1, 2)).power(4)
    if full.free_reduce() != base:
        raise AssertionError("insertion table does not assemble the "
                             "full-twist word")

    phi_fact = phi_factorization(m, l, seed=seed)
    multitwists = SwapWord(layout, tuple(
        (("M", i), 1) for i in (4, 3, 2, 1) for _ in range(4)))
    skeleton = tilde * phi_fact.skeleton * multitwists

    h = layout.cluster_size
    word = compose(expand(tilde), phi_fact.word, expand(multitwists))
    prov = ([f"appended swap insertion {k + 1}" for k in range(7)
             for _ in range(h)]
            + list(phi_fact.provenance)
            + [f"boundary multitwist of F_{i}" for i in (4, 3, 2, 1)
               for _ in range(8)])
    return PositiveFactorization(
        word, skeleton, f"boundary multitwist (m={m}, l={l})", tuple(prov))


def _rebase_curve(curve, new_surface: SurfaceModel):
    if isinstance(curve, NamedCurve):
        if curve.tag[0] == "boundary":
            raise ValueError("ambient boundary twists cannot be rebased")
        return curve
    return DerivedCurve(_rebase_curve(curve.base, new_surface),
                        _rebase_word(curve.conjugator, new_surface))


def _rebase_word(word: TwistWord, new_surface: SurfaceModel) -> TwistWord:
    return TwistWord(new_surface, ((_rebase_curve(c, new_surface), s)
                                   for c, s in word.letters))


def extended_calculator(gtarget: int, layout: SurfaceLayout
                        ) -> HomologyCalculator:
    """Calculator for Sigma_gtarget^2 with the given layout."""
    return HomologyCalculator(SurfaceModel(gtarget, 2, layout))


def extend_to_genus(gtarget: int, base: PositiveFactorization
                    ) -> PositiveFactorization:
    """Extend a genus-11 boundary factorization to Sigma_gtarget^2.

    The genus-11 chain word (t_1...t_23)^24 sits inside the genus-g chain
    word (t_1...t_{2g+1})^{2g+2} as a subsequence; inserting the missing
    letters and appending their conjugates gives M'_bdry = W~ . M_bdry, and
    the base factorization replaces M_bdry.  Adds
    (2g+1)(2g+2) - 552 letters.  The result's surface keeps the base's
    layout, whose curves the base letters name.
    """
    if gtarget <= 11:
        raise ValueError("extension needs genus > 11")
    surface = SurfaceModel(gtarget, 2, base.word.surface.layout)
    n_big = 2 * gtarget + 1
    # one object per chain curve, so equal letters compare by identity
    chain = [NamedCurve(("chain", k)) for k in range(1, n_big + 1)]
    small = TwistWord(surface, [(c, 1) for c in chain[:23]]).power(24)
    insertions: List[Tuple[int, tuple]] = []
    for block in range(24):
        insertions += [(23 * (block + 1), (c, 1)) for c in chain[23:]]
    for block in range(24, 2 * gtarget + 2):
        insertions += [(23 * 24, (c, 1)) for c in chain]
    tilde, full = insert_equals_append(small, insertions)
    big = TwistWord(surface, [(c, 1) for c in chain]).power(2 * gtarget + 2)
    if full != big:
        raise AssertionError("chain insertion table does not assemble the "
                             "genus-%d chain word" % gtarget)

    rebased = _rebase_word(base.word, surface)
    word = tilde * rebased
    prov = (tuple(f"appended chain letter {k + 1}" for k in range(len(tilde)))
            + base.provenance)
    return PositiveFactorization(
        word, None, f"boundary multitwist of genus {gtarget} "
        f"(from: {base.description})", prov)
