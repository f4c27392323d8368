"""Reference for swapfact.braid._left_weight, used only by the test suite.

This is the plain insertion sort the kernel was written from: invert b,
walk each pair left while a crossing can move, invert back.  The kernel
tests the first comparison before it walks and inverts b in place; it must
leave a and b exactly as this does and return the same flag.
"""


def _inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return out


def left_weight(a, b):
    """Slide crossings from b into a, in place, until (a, b) is
    left-weighted; return whether any crossing moved.  Position i carries
    the pair (a[i], b^-1[i]), and a crossing moves at i iff
    b^-1[i-1] > b^-1[i] and a[i-1] < a[i], which swaps the pairs at i-1
    and i."""
    binv = _inverse(b)
    moved = False
    for k in range(1, len(a)):
        xa, xb = a[k], binv[k]
        i = k
        while i and binv[i - 1] > xb and a[i - 1] < xa:
            a[i], binv[i] = a[i - 1], binv[i - 1]
            i -= 1
        if i != k:
            a[i], binv[i] = xa, xb
            moved = True
    if moved:
        b[:] = _inverse(binv)
    return moved
