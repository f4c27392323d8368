"""Ground-truth engine for integral laminations of the punctured disk.

Used only by the test suite, to guard the piecewise-linear Dynnikov update
rules in swapfact.braid against the model they were derived from.

Cut the disk along the vertical rays above (U_j) and below (D_j) each
puncture; the pieces are strips, so a taut multicurve is exactly a reduced
cyclic word of signed ray crossings.  The braid group acts through the
Artin representation on the lasso generators u_j (cross U_j, return through
D_j), and crossing counts of the reduced word give the coordinates.
"""


def edge_path_of_u(j, sgn):
    fwd = [("D", k, 1) for k in range(1, j)] + [("U", j, 1), ("D", j, -1)] + \
          [("D", k, -1) for k in range(j - 1, 0, -1)]
    if sgn > 0:
        return fwd
    return [(k, i, -d) for (k, i, d) in reversed(fwd)]


def reduce_cyclic(word):
    w = list(word)
    changed = True
    while changed:
        changed = False
        out = []
        for e in w:
            if out and out[-1][:2] == e[:2] and out[-1][2] == -e[2]:
                out.pop()
                changed = True
            else:
                out.append(e)
        while len(out) >= 2 and out[0][:2] == out[-1][:2] \
                and out[0][2] == -out[-1][2]:
            out = out[1:-1]
            changed = True
        w = out
    return w


def artin_sigma(i, uword, inverse=False):
    out = []
    for (j, s) in uword:
        if not inverse:
            if j == i:
                img = [(i, 1), (i + 1, 1), (i, -1)]
            elif j == i + 1:
                img = [(i, 1)]
            else:
                img = [(j, 1)]
        else:
            if j == i:
                img = [(i + 1, 1)]
            elif j == i + 1:
                img = [(i + 1, -1), (i, 1), (i + 1, 1)]
            else:
                img = [(j, 1)]
        if s < 0:
            img = [(a, -b) for (a, b) in reversed(img)]
        out.extend(img)
    return out


def free_reduce_u(uword):
    out = []
    for letter in uword:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    while len(out) >= 2 and out[0][0] == out[-1][0] \
            and out[0][1] == -out[-1][1]:
        out = out[1:-1]
    return out


class Lamination:
    """Multiset of components as reduced cyclic ray-crossing words."""

    def __init__(self, n, components):
        self.n = n
        self.components = [c for c in map(reduce_cyclic, components) if c]

    def act(self, braid_ints):
        comps = [[(j, d) for (kind, j, d) in c if kind == "U"]
                 for c in self.components]
        for g in reversed(braid_ints):
            comps = [free_reduce_u(artin_sigma(abs(g), w, inverse=g < 0))
                     for w in comps]
        return Lamination(self.n, [
            reduce_cyclic([e for (j, s) in w for e in edge_path_of_u(j, s)])
            for w in comps])

    def dynnikov(self):
        n = self.n
        mu_up = [0] * (n + 1)
        mu_dn = [0] * (n + 1)
        nu = [0] * n
        for c in self.components:
            for kind, j, _ in c:
                (mu_up if kind == "U" else mu_dn)[j] += 1
            m = len(c)
            for idx in range(m):
                e_in, e_out = c[idx], c[(idx + 1) % m]
                strip = e_in[1] if e_in[2] > 0 else e_in[1] - 1
                if 1 <= strip <= n - 1:
                    if (e_in[1] == strip) != (e_out[1] == strip):
                        nu[strip] += 1
        coords = []
        for i in range(1, n - 1):
            coords.extend(((mu_dn[i + 1] - mu_up[i + 1]) // 2,
                           (nu[i] - nu[i + 1]) // 2))
        return tuple(coords)


def round_curve(lo, hi):
    return [("U", j, 1) for j in range(lo, hi + 1)] + \
           [("D", j, -1) for j in range(hi, lo - 1, -1)]


def laminar_family(rng, n):
    fam = []

    def gen(lo, hi, depth):
        if depth > 3 or hi - lo < 1:
            return
        if rng.random() < 0.7:
            a = rng.randint(lo, hi - 1)
            b = rng.randint(a + 1, hi)
            if (a, b) != (1, n):
                fam.append((a, b))
            gen(a, b, depth + 1)
            if b + 1 < hi:
                gen(b + 1, hi, depth + 1)
    gen(1, n, 0)
    return fam
