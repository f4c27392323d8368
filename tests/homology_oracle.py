"""Independent first homology of a Lefschetz fibration's closed total space.

Used only by the test suite, to check the arithmetic of
swapfact.invariants.b1_of_total_space by a computation that shares no code
with it or with swapfact.surface.HomologyCalculator: its own transvections,
capping by an extra relation instead of a change of basis, and its own
integer elimination.

H_1 of Sigma_g^2 is free on the chain classes c_1 .. c_{2g+1}, with
<c_k, c_{k+1}> = 1 and all other pairings of chain classes zero.  The
boundary class is e = c_1 + c_3 + ... + c_{2g+1}.  Capping both boundary
components kills e, and the total space over the sphere has

    H_1(X) = Z^{2g+1} / <e, [v_1], ..., [v_n]>

for the vanishing cycles v_1 .. v_n (the letters of the factorization).

The geometric input is the package's: the named curves' classes are
restated from the layout's description (F_i sits over the i-th cluster of
h = 2(2+l)+2 branch points, so its k-th chain curve is the ambient chain
curve with index (i-1)h + k), and derived curves are resolved through the
conjugators the package built.  A wrong layout or a wrong expansion would
mislead this module and the package alike; mod2_model.py checks that input
against the branched-cover picture.
"""

from itertools import combinations
from math import gcd

from swapfact.surface import DerivedCurve, NamedCurve  # data types only


def mat_mul(a, b):
    """The matrix product a b of tuple-of-rows matrices."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def pairing(u, v):
    """Algebraic intersection number in the chain basis."""
    return sum(u[i] * v[i + 1] - u[i + 1] * v[i] for i in range(len(u) - 1))


class ClassResolver:
    """Homology classes of the curves of one factorization.

    handed = +1 is the convention t_c(x) = x + <x, c> c for a positive twist;
    handed = -1 flips every twist.  The total space's H_1 depends only on
    the letters' classes, so both conventions must give the same group.
    """

    def __init__(self, genus, l=0, handed=1):
        self.rank = 2 * genus + 1
        self.cluster = 2 * (2 + l) + 2
        self.handed = handed
        self.memo = {}

    def unit(self, k):
        return tuple(int(i == k - 1) for i in range(self.rank))

    def odd_sum(self, first, last):
        """c_first + c_{first+2} + ... + c_last."""
        return tuple(int(first - 1 <= i < last and (i - first + 1) % 2 == 0)
                     for i in range(self.rank))

    def named(self, tag):
        kind = tag[0]
        if kind == "chain":
            return self.unit(tag[1])
        if kind == "boundary":
            return _signed(self.odd_sum(1, self.rank), tag[1])
        if kind == "dcurve":
            return _signed(_add(self.unit(1), self.unit(3)), tag[1])
        off = (tag[1] - 1) * self.cluster
        if kind == "subchain":
            return self.unit(off + tag[2])
        if kind == "subdcurve":
            return _signed(_add(self.unit(off + 1), self.unit(off + 3)),
                           tag[2])
        if kind == "subboundary":
            return _signed(self.odd_sum(off + 1, off + self.cluster - 1),
                           tag[2])
        raise KeyError(tag)

    def __call__(self, curve):
        hit = self.memo.get(curve)
        if hit is None:
            if isinstance(curve, NamedCurve):
                hit = self.named(curve.tag)
            elif isinstance(curve, DerivedCurve):
                hit = self.apply(curve.conjugator.letters, self(curve.base))
            else:
                raise TypeError(curve)
            self.memo[curve] = hit
        return hit

    def apply(self, letters, x):
        """The word's action on a class, rightmost letter first."""
        for curve, sign in reversed(letters):
            c = self(curve)
            k = self.handed * sign * pairing(x, c)
            if k:
                x = tuple(a + k * b for a, b in zip(x, c))
        return x


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _signed(v, which):
    return v if which == 1 else tuple(-a for a in v)


def relations(fact, l=0, handed=1):
    """The relation rows e, [v_1], ..., [v_n], each class once up to sign."""
    surface = fact.word.surface
    if surface.boundary != 2:
        raise ValueError("the oracle caps a two-boundary fiber")
    resolve = ClassResolver(surface.genus, l, handed)
    rows = [resolve(NamedCurve(("boundary", 1)))]
    rows += [resolve(c) for c, _ in fact.word.letters]
    seen, out = set(), []
    for v in rows:
        key = max(v, tuple(-a for a in v))
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def invariant_factors(rows, ncols):
    """Nonzero invariant factors of the integer matrix, in divisibility order.

    Diagonalizes by unimodular 2x2 Bezout steps on rows and columns, then
    turns the diagonal into a divisibility chain by (a, b) -> (gcd, lcm).
    """
    m = [list(r) for r in rows]
    diag = []
    top = 0
    while True:
        piv = next(((i, j) for j in range(top, ncols)
                    for i in range(top, len(m)) if m[i][j]), None)
        if piv is None:
            break
        i, j = piv
        m[top], m[i] = m[i], m[top]
        for r in m:
            r[top], r[j] = r[j], r[top]
        while True:
            for i in range(top + 1, len(m)):
                if m[i][top]:
                    _bezout_rows(m, top, i, top)
            done = True
            for j in range(top + 1, ncols):
                if m[top][j]:
                    _bezout_cols(m, top, j, top)
                    done = False
            if done:
                break
        diag.append(abs(m[top][top]))
        top += 1
    for a in range(len(diag)):
        for b in range(a + 1, len(diag)):
            g = gcd(diag[a], diag[b])
            diag[a], diag[b] = g, diag[a] * diag[b] // g
    return tuple(diag)


def smith_normal_form_oracle(rows):
    """Independent check of swapfact.invariants.smith_normal_form: the
    invariant factors from gcds of k x k minors.

    Exponential in the matrix size; intended for small matrices only.
    """
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return ()
    nr, nc = len(m), len(m[0])

    def det(rs, cs):
        if len(rs) == 1:
            return m[rs[0]][cs[0]]
        out = 0
        sign = 1
        for k, r in enumerate(rs):
            out += sign * m[r][cs[0]] * det(rs[:k] + rs[k + 1:], cs[1:])
            sign = -sign
        return out

    d_prev = 1
    factors = []
    for k in range(1, min(nr, nc) + 1):
        dk = 0
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                dk = gcd(dk, det(rs, cs))
        if dk == 0:
            factors.extend([0] * (min(nr, nc) - len(factors)))
            break
        factors.append(dk // d_prev)
        d_prev = dk
    return tuple(factors)


def _bezout(a, b):
    """(x, y, u, v) with x a + y b = g = gcd(a, b), u = a/g, v = b/g, so
    that [[x, y], [-v, u]] is unimodular; pure subtraction when a | b."""
    if b % a == 0:
        return 1, 0, 1, b // a
    r0, r1, x0, x1, y0, y1 = a, b, 1, 0, 0, 1
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0, a // r0, b // r0


def _bezout_rows(m, p, i, c):
    """Mix rows p and i, leaving the gcd at (p, c) and 0 at (i, c)."""
    x, y, u, v = _bezout(m[p][c], m[i][c])
    rp, ri = m[p], m[i]
    m[p] = [x * s + y * t for s, t in zip(rp, ri)]
    m[i] = [u * t - v * s for s, t in zip(rp, ri)]


def _bezout_cols(m, r, j, c):
    """Mix columns c and j, leaving the gcd at (r, c) and 0 at (r, j)."""
    x, y, u, v = _bezout(m[r][c], m[r][j])
    for row in m:
        s, t = row[c], row[j]
        row[c], row[j] = x * s + y * t, u * t - v * s


def first_homology(fact, l=0, handed=1):
    """(b1, torsion) of the closed total space, torsion as the invariant
    factors greater than one."""
    rows = relations(fact, l, handed)
    ncols = 2 * fact.word.surface.genus + 1
    factors = invariant_factors(rows, ncols)
    return ncols - len(factors), tuple(d for d in factors if d > 1)
