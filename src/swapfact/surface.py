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

One kernel builds actions: it keeps a matrix A as its list of columns and
right-multiplies it by one letter's transvection at a time, a rank-one
update A <- A + sign * (A c) (x) phi_c, where phi_c = <., c> is the
letter's covector.  Each calculator keeps one sparse table of the
transvections it has met, the nonzero entries of c and of phi_c for each
distinct class c, so a step sums only the columns of A where c is
nonzero and updates only those where phi_c is; a chain letter touches
two columns.  Reading a word's letters left to right from the identity
gives its action.  The same kernel resolves every derived curve:
the calculator keeps the columns of the last conjugator it resolved and
walks them to the next one, stepping back over the letters past their
common prefix (a transvection's inverse is the same curve with the other
sign) or starting again from the identity, whichever steps fewer, then
forward over the new letters.  The generated families' conjugators share
long prefixes, so each costs about the letters in which it differs from
the last.
"""

from __future__ import annotations

import functools
from operator import add, sub
from typing import Dict, List, Sequence, Tuple

from .words import ContextMismatch, Value, Word

Vector = Tuple[int, ...]
Matrix = Tuple[Vector, ...]
Sparse = Tuple[Tuple[int, int], ...]    # the (index, value) nonzero entries


class SurfaceMismatch(ContextMismatch):
    """Raised when combining twist words on different surfaces."""


class UnknownCurve(KeyError):
    """Raised when a curve tag is not defined on the ambient surface."""


def identity_matrix(r: int) -> Matrix:
    zero = (0,) * r
    return tuple(zero[:i] + (1,) + zero[i + 1:] for i in range(r))


# The largest layout parameter l an input may name (a DSL header's l=, the
# CLI's --l).  The boundary family sets it, and the header's genus cap
# bounds it: 11 + 4l <= 100.  README's CLI section gives the time of each
# command at l = 22 (632 letters, a 3.2 MB artifact).
MAX_LAYOUT = 22


class SurfaceLayout(Value):
    """The four-subsurface decomposition of Sigma_{11+4l}^2."""

    # __dict__ holds the cached calculator
    __slots__ = ("l", "__dict__")

    def __init__(self, l: int = 0):
        if l < 0:
            raise ValueError("layout parameter l must be >= 0")
        self._init(l)

    @property
    def subsurface_genus(self) -> int:
        return 2 + self.l

    @property
    def cluster_size(self) -> int:
        return 2 * self.subsurface_genus + 2

    @property
    def branch_points(self) -> int:
        return 4 * self.cluster_size

    @property
    def ambient_genus(self) -> int:
        return 11 + 4 * self.l

    def ambient_model(self) -> "SurfaceModel":
        return SurfaceModel(self.ambient_genus, 2, self)

    def subsurface_model(self) -> "SurfaceModel":
        return SurfaceModel(self.subsurface_genus, 2)

    def cluster_offset(self, i: int) -> int:
        if not 1 <= i <= 4:
            raise ValueError(f"subsurface index {i} out of range")
        return (i - 1) * self.cluster_size

    @functools.cached_property
    def calculator(self) -> "HomologyCalculator":
        return HomologyCalculator(self.ambient_model())


class SurfaceModel(Value):
    """Sigma_g^s with its chain-basis homology data (s in {0, 1, 2}).

    layout is the four-subsurface layout whose subsurface curves the
    surface's twist words may name, None for the plain chain surface.  It
    needs s = 2 and genus >= 11+4l; above genus 11+4l the layout sits on
    the first chain curves.
    """

    __slots__ = ("genus", "boundary", "layout")

    def __init__(self, genus: int, boundary: int = 2,
                 layout: SurfaceLayout | None = None):
        if genus < 0 or boundary not in (0, 1, 2):
            raise ValueError("unsupported surface")
        if layout is not None and (
                boundary != 2 or genus < layout.ambient_genus):
            raise ValueError(f"layout l={layout.l} needs s=2 and genus "
                             f">= {layout.ambient_genus}")
        self._init(genus, boundary, layout)

    @property
    def rank(self) -> int:
        return 2 * self.genus + (1 if self.boundary == 2 else 0)

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        """<u, v> = sum_i u_i v_{i+1} - u_{i+1} v_i: consecutive chain
        curves meet once, others are disjoint.  For s < 2 the basis is the
        first 2g chain classes of the capped surface; their mutual
        intersections are unchanged by capping, so the same form applies
        (and is nondegenerate there)."""
        return sum(a * b for a, b in zip(u, self.covector(v)))

    def covector(self, v: Sequence[int]) -> Vector:
        """phi_v with phi_v[j] = <e_j, v> = v_{j+1} - v_{j-1}: the pairing
        with v as a row, zero exactly when v is in the radical."""
        padded = (0, *v, 0)
        return tuple(b - a for a, b in zip(padded, padded[2:]))

    def boundary_class(self) -> Vector:
        if self.boundary != 2:
            raise ValueError("boundary class only defined for s = 2")
        return tuple(1 if i % 2 == 0 else 0 for i in range(self.rank))


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

class NamedCurve(Value):
    """A curve known to the ambient surface's table, e.g. ('chain', 3),
    ('boundary', 1), ('dcurve', 2), ('subchain', i, k), ('subdcurve', i, k),
    ('subboundary', i, side)."""

    __slots__ = ("tag",)

    def __init__(self, tag: tuple):
        self._init(tag)

    # hashed per letter of every new twist word: Value's getter is slower
    def __hash__(self):
        return hash((self.tag,))

    def __repr__(self):
        return f"NamedCurve{self.tag}"


class DerivedCurve(Value):
    """The image w(base) of a named curve under a twist word w."""

    __slots__ = ("base", "conjugator")

    def __init__(self, base: NamedCurve, conjugator: "TwistWord"):
        self._init(base, conjugator)


def chain_curve(k: int) -> NamedCurve:
    return NamedCurve(("chain", k))


def curve_table(surface: SurfaceModel) -> Dict[tuple, Vector]:
    """The class of every named curve of the surface: the chain, boundary
    and d-curves, and the subchain, subdcurve and subboundary curves of its
    layout, if it has one.  Each subsurface F_i sits on the chain curves
    over the i-th cluster, so its classes are sums of chain classes."""
    r = surface.rank
    table: Dict[tuple, Vector] = {}

    def chains(*ks: int) -> Vector:  # c_k1 + c_k2 + ..., 1-based
        return tuple([1 if i in ks else 0 for i in range(1, r + 1)])

    def pair(key: tuple, v: Vector) -> None:  # the two sides of a curve
        table[key + (1,)] = v
        table[key + (2,)] = tuple(-x for x in v)

    n_chain = 2 * surface.genus + 1 if surface.boundary == 2 else r
    for k in range(1, n_chain + 1):
        table[("chain", k)] = chains(k)
    if surface.boundary == 2:
        pair(("boundary",), surface.boundary_class())
    if surface.genus >= 2:
        # d_1, d_2: boundary of a neighborhood of the subchain c_1, c_2, c_3
        pair(("dcurve",), chains(1, 3))
    layout = surface.layout
    if layout is not None:
        h = layout.cluster_size
        for i in range(1, 5):
            off = layout.cluster_offset(i)
            for k in range(1, h):
                table[("subchain", i, k)] = chains(off + k)
            pair(("subdcurve", i), chains(off + 1, off + 3))
            pair(("subboundary", i), chains(*range(off + 1, off + h, 2)))
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
    """Curve classes and transvection actions for one surface, read with
    the surface's curve_table.  Derived-curve classes are memoized on the
    base tag and the conjugator word, whose hash is cached.

    The calculator keeps one prefix state: the letters of the last
    conjugator resolved through it and the columns A of that word's
    action.  A derived curve walks a copy of the state to its conjugator
    and reads its class as A . base.  The letters walked over may be
    derived curves that walk the state too; since each walk works on a
    copy and stores it only when done, the state is valid throughout.
    """

    def __init__(self, surface: SurfaceModel):
        self.surface = surface
        self.table = curve_table(surface)
        self._derived_memo: Dict[tuple, Vector] = {}
        self._sparse: Dict[Vector, Tuple[Sparse, Sparse]] = {}
        self._prefix: Tuple[tuple, List[Vector]] = (
            (), list(identity_matrix(surface.rank)))

    def curve_class(self, curve) -> Vector:
        if isinstance(curve, NamedCurve):
            try:
                return self.table[curve.tag]
            except KeyError:
                raise UnknownCurve(f"{curve.tag} not on this surface"
                                   ) from None
        if isinstance(curve, DerivedCurve):
            key = (curve.base.tag, curve.conjugator)
            hit = self._derived_memo.get(key)
            if hit is None:
                hit = self._resolve(curve)
                self._derived_memo[key] = hit
            return hit
        raise TypeError(f"not a curve: {curve!r}")

    def sparse(self, c: Vector) -> Tuple[Sparse, Sparse]:
        """The transvection about the class c as the nonzero entries of c
        and of its covector, each a tuple of (index, value) pairs; an
        empty covector means c is in the radical.  Built on first use for
        each distinct class."""
        hit = self._sparse.get(c)
        if hit is None:
            hit = self._sparse[c] = (_nonzero(c),
                                     _nonzero(self.surface.covector(c)))
        return hit

    def _resolve(self, curve: DerivedCurve) -> Vector:
        """Walk a copy of the prefix state to the conjugator, back over the
        letters past their common prefix or up from the identity, whichever
        steps fewer, and read the class as A . base."""
        base = self.curve_class(curve.base)
        letters = curve.conjugator.letters
        done, columns = self._prefix
        p = _common_prefix(done, letters)
        if len(done) - p <= p:
            columns = list(columns)
            self._advance(columns, [(c, -s) for c, s in reversed(done[p:])])
        else:
            p, columns = 0, list(identity_matrix(self.surface.rank))
        self._advance(columns, letters[p:])
        self._prefix = letters, columns
        return _combine(columns, self.sparse(base)[0])

    def _advance(self, columns: List[Vector], letters: Sequence[tuple]
                 ) -> None:
        """Right-multiply the matrix with these columns by each letter's
        transvection in turn, in place: A <- A + sign * (A c) (x) phi_c,
        touching only the columns where phi_c is nonzero."""
        for curve, sign in letters:
            support, phi = self.sparse(self.curve_class(curve))
            ac = _combine(columns, support)
            for j, f in phi:
                k = sign * f
                if k == 1:
                    columns[j] = tuple(map(add, columns[j], ac))
                elif k == -1:
                    columns[j] = tuple(map(sub, columns[j], ac))
                else:
                    columns[j] = tuple([a + k * b
                                        for a, b in zip(columns[j], ac)])

    def homology_action(self, w: TwistWord) -> Matrix:
        """The action as a tuple of rows, built from the identity by the
        column kernel over the letters, leftmost first."""
        columns = list(identity_matrix(self.surface.rank))
        self._advance(columns, w.letters)
        return tuple(zip(*columns))

    def verify_homologically(self, w1: TwistWord, w2: TwistWord) -> bool:
        """Necessary condition for w1 = w2 in the mapping class group: a
        False verdict refutes the relation, a True verdict does not prove
        it."""
        if w1.surface != w2.surface:
            raise SurfaceMismatch("twist words live on different surfaces")
        return self.homology_action(w1) == self.homology_action(w2)

    def is_identity_action(self, w: TwistWord) -> bool:
        return self.homology_action(w) == identity_matrix(self.surface.rank)


def _common_prefix(done: tuple, letters: tuple) -> int:
    """The length of the longest common prefix of two letter tuples."""
    if letters[:len(done)] == done:     # one C-speed test for an extension
        return len(done)
    for k, (x, y) in enumerate(zip(done, letters)):
        if x != y:
            return k
    return len(letters)


def _nonzero(v: Sequence[int]) -> Sparse:
    return tuple((k, x) for k, x in enumerate(v) if x)


def _combine(columns: Sequence[Vector], support: Sparse) -> Vector:
    """A v for the matrix A with these columns, from v's nonzero
    entries."""
    out = None
    for k, x in support:
        col = columns[k] if x == 1 else tuple([x * a for a in columns[k]])
        out = col if out is None else tuple(map(add, out, col))
    return (0,) * len(columns) if out is None else out
