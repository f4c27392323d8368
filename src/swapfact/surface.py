"""Surfaces, named curves, and the homology representation of twist words.

A surface of genus g with two boundary components is modeled on the chain
basis: H_1 is free of rank 2g+1 on the classes of the chain curves
c_1, ..., c_{2g+1} (consecutive curves meet once, others are disjoint), so
the intersection form is <u, v> = sum_i u_i v_{i+1} - u_{i+1} v_i.  The two
boundary classes span the radical: [delta_1] = c_1 + c_3 + ... + c_{2g+1}
and [delta_2] = -[delta_1].

Dehn twists act by transvections x -> x + sign*<x, c>*c; a twist word acts
by the ordered product of its letters' transvections, rightmost first, same
as braid words.  All arithmetic is exact (Python ints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .words import ContextMismatch, Word

Vector = Tuple[int, ...]
Matrix = Tuple[Vector, ...]


class SurfaceMismatch(ContextMismatch):
    """Raised when combining twist words on different surfaces."""


class UnknownCurve(KeyError):
    """Raised when a curve tag is not defined on the ambient surface."""


def identity_matrix(r: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


@dataclass(frozen=True)
class SurfaceModel:
    """Sigma_g^s with its chain-basis homology data (s in {0, 1, 2})."""
    genus: int
    boundary: int = 2

    def __post_init__(self):
        if self.genus < 0 or self.boundary not in (0, 1, 2):
            raise ValueError("unsupported surface")

    @property
    def rank(self) -> int:
        return 2 * self.genus + (1 if self.boundary == 2 else 0)

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        """<u, v> = sum_i u_i v_{i+1} - u_{i+1} v_i: consecutive chain
        curves meet once, others are disjoint.  For s < 2 the basis is the
        first 2g chain classes of the capped surface; their mutual
        intersections are unchanged by capping, so the same form applies
        (and is nondegenerate there)."""
        return (sum(a * b for a, b in zip(u, v[1:]))
                - sum(a * b for a, b in zip(u[1:], v)))

    def boundary_class(self) -> Vector:
        if self.boundary != 2:
            raise ValueError("boundary class only defined for s = 2")
        return tuple(1 if i % 2 == 0 else 0 for i in range(self.rank))

    def zero(self) -> Vector:
        return (0,) * self.rank


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NamedCurve:
    """A curve known to the ambient surface's table, e.g. ('chain', 3),
    ('boundary', 1), ('dcurve', 2), ('subchain', i, k), ('subdcurve', i, k),
    ('subboundary', i, side)."""
    tag: tuple

    def __repr__(self):
        return f"NamedCurve{self.tag}"


@dataclass(frozen=True)
class DerivedCurve:
    """The image w(base) of a named curve under a twist word w."""
    base: NamedCurve
    conjugator: "TwistWord"


def chain_curve(k: int) -> NamedCurve:
    return NamedCurve(("chain", k))


def boundary_curve(which: int) -> NamedCurve:
    return NamedCurve(("boundary", which))


def d_curve(which: int) -> NamedCurve:
    return NamedCurve(("dcurve", which))


def _base_curve_table(surface: SurfaceModel) -> Dict[tuple, Vector]:
    """Classes of the curves every chain-based surface knows about."""
    r = surface.rank
    table: Dict[tuple, Vector] = {}
    n_chain = 2 * surface.genus + 1 if surface.boundary == 2 else r
    for k in range(1, n_chain + 1):
        table[("chain", k)] = tuple(int(i == k - 1) for i in range(r))
    if surface.boundary == 2:
        e = surface.boundary_class()
        table[("boundary", 1)] = e
        table[("boundary", 2)] = tuple(-x for x in e)
    if surface.genus >= 2:
        # d_1, d_2: boundary of a neighborhood of the subchain c_1, c_2, c_3
        d1 = tuple(int(i in (0, 2)) for i in range(r))
        table[("dcurve", 1)] = d1
        table[("dcurve", 2)] = tuple(-x for x in d1)
    return table


class TwistWord(Word):
    """A word in Dehn twists on a fixed surface; letters are (curve, sign)
    and the rightmost letter acts first."""

    __slots__ = ()
    _mismatch = SurfaceMismatch

    @property
    def surface(self) -> SurfaceModel:
        return self.context

    def _conjugate(self, v: "TwistWord", curve):
        if isinstance(curve, DerivedCurve):
            return DerivedCurve(curve.base, v * curve.conjugator)
        return DerivedCurve(curve, v)


def twist(surface: SurfaceModel, curve, sign: int = 1) -> TwistWord:
    return TwistWord(surface, ((curve, sign),))


# ---------------------------------------------------------------------------
# Homology actions
# ---------------------------------------------------------------------------

class HomologyCalculator:
    """Curve classes and transvection actions for one surface.

    Extra named-curve classes (e.g. a layout's subsurface tables) can be
    supplied at construction.  Derived-curve classes are memoized on the
    base tag and the conjugator word, whose hash is cached.
    """

    def __init__(self, surface: SurfaceModel,
                 extra_classes: Dict[tuple, Vector] | None = None):
        self.surface = surface
        self.table = _base_curve_table(surface)
        if extra_classes:
            self.table.update(extra_classes)
        self._derived_memo: Dict[tuple, Vector] = {}

    def curve_class(self, curve) -> Vector:
        if isinstance(curve, NamedCurve):
            try:
                return self.table[curve.tag]
            except KeyError:
                raise UnknownCurve(f"{curve.tag} not on this surface") from None
        if isinstance(curve, DerivedCurve):
            key = (curve.base.tag, curve.conjugator)
            hit = self._derived_memo.get(key)
            if hit is None:
                base = self.curve_class(curve.base)
                hit = self.apply_word(curve.conjugator, base)
                self._derived_memo[key] = hit
            return hit
        raise TypeError(f"not a curve: {curve!r}")

    def _transvect(self, v: Vector, sign: int, x: Vector) -> Vector:
        coef = sign * self.surface.pairing(x, v)
        return tuple(a + coef * b for a, b in zip(x, v))

    def apply_word(self, w: TwistWord, x: Sequence[int]) -> Vector:
        """Apply the word's action to one class (rightmost letter first)."""
        x = tuple(x)
        for curve, sign in reversed(w.letters):
            x = self._transvect(self.curve_class(curve), sign, x)
        return x

    def twist_action(self, curve, sign: int = 1) -> Matrix:
        return self.homology_action(twist(self.surface, curve, sign))

    def homology_action(self, w: TwistWord) -> Matrix:
        # act column by column: column j of the matrix is w applied to e_j
        return tuple(zip(*(self.apply_word(w, e)
                           for e in identity_matrix(self.surface.rank))))

    def verify_homologically(self, w1: TwistWord, w2: TwistWord) -> bool:
        """Necessary condition for w1 = w2 in the mapping class group: a
        False verdict refutes the relation, a True verdict does not prove
        it."""
        if w1.surface != w2.surface:
            raise SurfaceMismatch("twist words live on different surfaces")
        return self.homology_action(w1) == self.homology_action(w2)

    def is_identity_action(self, w: TwistWord) -> bool:
        return self.homology_action(w) == identity_matrix(self.surface.rank)
