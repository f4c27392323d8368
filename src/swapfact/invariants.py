"""Numerical invariants of the Lefschetz fibrations cut out by a positive
factorization: Euler characteristics, first Betti number with torsion via
integer Smith normal form, and the signature obstruction to
hyperellipticity.

Everything is exact: Smith normal form over Python ints, the signature
formula over Fraction.  No floating point is permitted in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .surface import HomologyCalculator
from .constructions import PositiveFactorization


def euler_closed(g: int, n_cycles: int) -> int:
    """Euler characteristic 4 - 4g + n of the closed fibration over S^2
    with fiber genus g and n vanishing cycles (pencil value after one
    blowdown is one less)."""
    if g < 0 or n_cycles < 0:
        raise ValueError("need g >= 0 and n_cycles >= 0")
    return 4 - 4 * g + n_cycles


def euler_filling(g: int, s: int, n_cycles: int) -> int:
    """Euler characteristic (2 - 2g - s) + n of a fibration over the disk
    with fiber Sigma_g^s."""
    if s < 1:
        raise ValueError("fillings need a bounded fiber, s >= 1")
    return 2 - 2 * g - s + n_cycles


def smith_normal_form(rows: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix, exactly.

    Each step takes a pivot p, an entry +-1 of the first row that has one
    or, with no such entry, one of least magnitude, and reduces p's column
    by row operations and p's row by column operations; a remainder starts
    the next step.  Once both are clear, an entry p does not divide has
    its row added to p's row, else |p| is the next factor and p's row and
    column are deleted.  Trailing zero factors are kept so the length
    equals min(nrows, ncols).
    """
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return ()
    nr, nc = len(m), len(m[0])
    if any(len(r) != nc for r in m):
        raise ValueError("ragged matrix")
    factors: List[int] = []
    while True:
        piv = next(((1, i, r.index(u)) for i, r in enumerate(m)
                    for u in (1, -1) if u in r), None) or min(
            ((abs(x), i, j) for i, r in enumerate(m)
             for j, x in enumerate(r) if x), default=None)
        if piv is None:
            break
        _, i, j = piv
        p = m[i][j]
        for k, r in enumerate(m):  # p's column, by row operations
            q = r[j] // p
            if q and k != i:
                m[k] = [a - q * b for a, b in zip(r, m[i])]
        # p's row, by column operations: a row changes if it meets p's column
        qs = [(c, x // p) for c, x in enumerate(m[i]) if c != j and x // p]
        for r in m:
            if r[j]:
                for c, q in qs:
                    r[c] -= q * r[j]
        if sum(1 for r in m if r[j]) + sum(map(bool, m[i])) > 2:
            continue  # a remainder is left
        if abs(p) != 1:  # a unit divides every entry
            bad = next((r for r in m if any(x % p for x in r)), None)
            if bad is not None:  # the next step leaves an entry below |p|
                m[i] = [a + b for a, b in zip(m[i], bad)]
                continue
        factors.append(abs(p))
        del m[i]
        for r in m:
            del r[j]
    factors.extend([0] * (min(nr, nc) - len(factors)))
    return tuple(factors)


class HomologySummary(NamedTuple):
    b1: int
    torsion: Tuple[int, ...]


def b1_of_total_space(fact: PositiveFactorization,
                      calc: HomologyCalculator,
                      cap: bool = True) -> HomologySummary:
    """First homology of the fibration's total space: quotient of H_1 of
    the (capped) fiber by the vanishing-cycle classes.

    Capping kills the radical class e, realized by the change of basis
    sending e to the first basis vector and dropping that coordinate.
    Letters whose class projects to zero would be separating (or evidence
    of a bookkeeping defect) and are rejected rather than counted.
    """
    surface = fact.word.surface
    r = surface.rank
    if cap:
        if surface.boundary != 2:
            raise ValueError("capping expects a two-boundary fiber")
        e = surface.boundary_class()
        rank_ambient = r - 1
    else:
        rank_ambient = r
    # the letters' classes repeat (at genus 45, 7,924 letters have 175
    # classes up to sign), so each distinct class is capped once, named by
    # its first letter; a row and its negative span the same lattice, so
    # each is kept once, with its first nonzero entry positive
    firsts: Dict[Tuple[int, ...], object] = {}
    for c, _ in fact.word.letters:
        firsts.setdefault(calc.curve_class(c), c)
    rows: Dict[Tuple[int, ...], None] = {}
    for v, c in firsts.items():
        if cap:
            # coordinates in the basis e, c_2, ..., c_r (unimodular since
            # e_1 = 1) are v_1 and v_i - e_i v_1; drop the e-coordinate
            v = tuple(x - y * v[0] for x, y in zip(v[1:], e[1:]))
        lead = next((x for x in v if x), 0)
        if not lead:
            raise ValueError(f"letter {c!r} has null class: separating "
                             "vanishing cycle or class bookkeeping defect")
        rows[v if lead > 0 else tuple(-x for x in v)] = None
    factors = smith_normal_form(list(rows))
    rank = sum(1 for d in factors if d != 0)
    torsion = tuple(d for d in factors if d not in (0, 1))
    return HomologySummary(rank_ambient - rank, torsion)


def endo_signature(g: int, n_nonsep: int) -> Fraction:
    """The hyperelliptic signature formula for N non-separating vanishing
    cycles, exactly: sigma = -(g+1)/(2g+1) N.  b1_of_total_space rejects
    null classes, so no vanishing cycle it counts is separating."""
    if g < 1:
        raise ValueError("need g >= 1")
    return Fraction(-(g + 1), 2 * g + 1) * n_nonsep


def hyperelliptic_obstruction(g: int, n_nonsep: int) -> str:
    """'NotHyperelliptic' when the signature formula is non-integral (a
    genuine signature is an integer), else 'Inconclusive'."""
    sigma = endo_signature(g, n_nonsep)
    return "Inconclusive" if sigma.denominator == 1 else "NotHyperelliptic"


class FibrationInvariants(NamedTuple):
    genus: int
    n_cycles: int
    euler_closed: int
    euler_filling: int
    b1: int
    torsion: Tuple[int, ...]
    endo_sigma: Fraction
    hyperelliptic_verdict: str


def fibration_invariants(fact: PositiveFactorization,
                         calc: HomologyCalculator) -> FibrationInvariants:
    """Full invariant report for a positive factorization of the boundary
    multitwist (fiber has two boundary components).  Nothing here checks
    that the word is one: a caller checks its action first."""
    surface = fact.word.surface
    g = surface.genus
    n = fact.length()
    summary = b1_of_total_space(fact, calc, cap=True)
    return FibrationInvariants(
        genus=g,
        n_cycles=n,
        euler_closed=euler_closed(g, n),
        euler_filling=euler_filling(g, 2, n),
        b1=summary.b1,
        torsion=summary.torsion,
        endo_sigma=endo_signature(g, n),
        hyperelliptic_verdict=hyperelliptic_obstruction(g, n),
    )
