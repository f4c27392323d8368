"""Exact arithmetic in the Artin braid groups B_n.

Elements are plain words in the Artin generators b_1, ..., b_{n-1}; words are
never simplified until a canonical form is requested.  Composition is read
right to left throughout: in ``compose(u, v)`` the word ``v`` acts first, and
the permutation underlying a word is the functional composition of its
letters' transpositions taken in that order.

Two independent decision procedures for the word problem are provided:

* :func:`normal_form` computes the left-greedy Garside normal form
  Delta^p . A_1 ... A_k with permutation-braid factors, without tabulating
  the symmetric group, so it works for any strand count we need (up to
  B_100 here, for the band certificate at the layout cap).  One pass
  first cancels each b_i^s against a b_i^-s behind only letters that
  commute with b_i (free cancellation in the free partially commutative
  group), and the rest is cut into maximal runs of one sign whose positive
  part is a permutation braid, each run one simple factor.  The form is
  built incrementally (Epstein et al., *Word Processing in Groups*, ch.
  9): each run's factor is appended and left-weighted backwards until a
  pair is already left-weighted or a factor becomes Delta, which leaves
  for the front at once.  A pair visited costs O(n) plus O(1) per crossing
  moved, and on seeded random words of either sign the visits per letter
  stay flat in B_4 (about 1.0) and grow slowly in B_24 as the word grows
  (3.7 to 4.5 at 1,000 to 4,000 letters), so the normal form takes
  near-linear time in practice.  :func:`equal` reads one normal form, of
  w1^-1 w2, and asks whether it is trivial.  Two spellings of one braid
  share most of their letters, and the far cancellation removes the
  shared prefix, up to far commutation, across the junction of w1^-1 and
  w2 before any run is cut.  Runs of neighbouring generators of opposite
  signs, (b1^1000 b2^-1000)^r, stay quadratic: 250(r + 1) + 1
  left-weighting calls per letter for their normal form, and for the
  quotient of two spellings of them that share no such prefix.
* :func:`dynnikov_equal` acts on integer laminations of the punctured disk
  via the Dynnikov coordinate update rules.  The action cannot see the
  central full twists, so the test also compares exponent sums, which is
  exactly the missing invariant (the kernel of the lamination action is the
  center).

The two procedures share no code and are required by the test suite to agree.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Tuple

from .words import ContextMismatch, Word, compose

Perm = Tuple[int, ...]


class StrandMismatch(ContextMismatch):
    """Raised when combining words defined on different strand counts."""


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

class BraidWord(Word):
    """An unreduced word in B_n; letters are (index, sign) pairs, b_index^sign
    with 1 <= index <= n-1, and the rightmost letter acts first."""

    __slots__ = ()
    _mismatch = StrandMismatch

    @property
    def strands(self) -> int:
        return self.context

    def _check(self) -> None:
        if self.strands < 1:
            raise ValueError("strand count must be >= 1")
        for i, _ in self.letters:
            if not 1 <= i < self.strands:
                raise ValueError(
                    f"letter b{i} does not fit in B_{self.strands}")

    @staticmethod
    def from_ints(strands: int, ints: Iterable[int]) -> "BraidWord":
        """Build a word from signed integers, e.g. [1, -2] -> b1 b2^-1."""
        return BraidWord(strands, ((abs(i), 1 if i > 0 else -1) for i in ints))

    def exponent_sum(self) -> int:
        return sum(s for _, s in self.letters)

    def permutation(self) -> Perm:
        """End positions: strand starting at i (0-based) ends at perm[i]."""
        perm = list(range(self.strands))
        # rightmost letter acts first
        for i, _ in reversed(self.letters):
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        # perm built by tracking positions: invert tracking to get images
        out = [0] * self.strands
        for pos, strand in enumerate(perm):
            out[strand] = pos
        return tuple(out)


def block_half_twist(n: int, lo: int, hi: int) -> BraidWord:
    """Half twist of the consecutive strands lo..hi inside B_n."""
    ints: list[int] = []
    for top in range(hi - 1, lo - 1, -1):
        ints.extend(range(lo, top + 1))
    return BraidWord.from_ints(n, ints)


def half_twist(n: int) -> BraidWord:
    """The Garside half-twist (b1...b_{n-1})(b1...b_{n-2})...(b1)."""
    if n < 2:
        raise ValueError("half_twist needs n >= 2")
    return block_half_twist(n, 1, n)


def full_twist(n: int) -> BraidWord:
    """The central full twist Delta^2."""
    d = half_twist(n)
    return compose(d, d)


def band(i: int, conjugator: BraidWord) -> BraidWord:
    """The band w b_i w^-1."""
    if not 1 <= i < conjugator.strands:
        raise ValueError(f"band generator b{i} does not fit in "
                         f"B_{conjugator.strands}")
    core = BraidWord.from_ints(conjugator.strands, [i])
    return compose(conjugator, core, conjugator.inverse())


# ---------------------------------------------------------------------------
# Garside left normal form
# ---------------------------------------------------------------------------
#
# Permutations are sequences p with p[i] = image of position i (0-based) and
# multiply functionally: the product p.q applies q first.  A permutation
# braid is the positive braid in which the pair of strands (i, j) crosses
# iff (i, j) is an inversion of the permutation; its Artin length is inv(p).
#
# For simple factors written in word order (rightmost acts first):
#   starting set  S(B) = {i : B = b_i . B'}  = descents of B^-1
#   finishing set F(A) = {i : A = A' . b_i}  = descents of A
# and a pair (A, B) is left-weighted iff S(B) is a subset of F(A).
#
# A word first loses its far-commuting inverse pairs: read left to right, a
# letter b_i^s cancels against the last live letter it does not commute
# with (the latest b_{i-1}, b_i or b_{i+1}) when that is b_i^-s.  This is
# free cancellation in the group where only far generators commute, so the
# element, and with it the normal form, stays the same.  Flat arrays make
# it O(1) per letter (see `_cancel_far`); rescanning backwards and deleting
# in place is quadratic on b1^K (b3 b5 ... b99)^M b1^-K.
#
# The word is then cut into runs, each of which is Delta^e . X with X
# simple.  A maximal run of positive letters whose product P stays a
# permutation braid is P itself, with e = 0.  A maximal run of negative
# letters b_i1^-1 ... b_ik^-1 is P^-1 with P = b_ik ... b_i1 simple, and
# that is Delta^-1 . (Delta P^-1): one Delta and one complement factor,
# where reading the run one letter at a time gives k of each, every
# complement a near-Delta of n(n-1)/2 - 1 crossings.
#
# The normal form is then built incrementally (Epstein et al., *Word
# Processing in Groups*, ch. 9; Dehornoy et al., *Foundations of Garside
# Theory*).  Appending a simple X to a normal form A_1 ... A_k, the pairs
# (A_k, X), (A_{k-1}, A_k'), ... are left-weighted from right to left.
# Left-weighting a pair keeps the pair to its right left-weighted, and a
# pair that does not change leaves everything to its left as it was, so the
# pass stops there.  Afterwards only the last factor can be the identity; it
# is dropped.
#
# A factor A_j that left-weighting turns into Delta leaves the pass at once:
# left-weighting (A_{j-1}, Delta) gives (Delta, tau(A_{j-1})), so every pair
# left of j would only carry the Delta to the front, conjugating each factor
# it passes (A.Delta = Delta.tau(A)).  tau keeps pairs left-weighted, and
# the pair (tau(A_{j-1}), A_{j+1}) is left-weighted because left-weighting
# keeps the pair to its right left-weighted.  So A_j is deleted, the
# infimum grows by one and the factors left of j are conjugated lazily: one
# global parity, one bit per factor, and tau is applied to a factor only
# when it is next read.  Flipping the parity and the bits right of j costs
# O(k - j).
#
# A pass visits at most k pairs for k factors, each for O(n) plus O(1) per
# crossing moved (at most n(n-1)/2), so L letters cost O(L k n^2) at worst.
# The exit is what keeps passes short on mixed-sign words: each negative
# run leaves a complement factor, the Deltas these assemble form at the
# right end, and walking each back through all k factors made such words
# quadratic.  With it, the runs and the far cancellation, seeded random
# words of L = 2,000 to 8,000 letters cost about 1.0 `_left_weight` calls
# per letter in B_4 and 3.4 to 5.6 in B_24 if mixed-sign (2.0, and 5.6 to
# 8.2, without the cancellation), and 1.4 to 1.5 in B_24 if positive.
# Words made of long runs gain most from the runs: the band certificate of
# `lift.rho_band_factorization` at g' = 24 (B_100) takes 393 calls,
# against 22,146 when its two sides were read one factor per letter.  The
# cancellation cannot help runs of neighbouring generators:
# (b1^1000 b2^-1000)^r in B_4 still costs 250(r + 1) + 1 calls per letter.


def pinv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _tau(p: Perm, m: int) -> list[int]:
    """Conjugation by Delta in B_(m+1): flip positions and values."""
    return [m - x for x in reversed(p)]


class GarsideNormalForm(NamedTuple):
    """Delta^infimum followed by left-weighted permutation factors.

    Factors are stored in word order (rightmost acts first); no factor is the
    identity or Delta.
    """
    strands: int
    infimum: int
    factors: Tuple[Perm, ...]

    def canonical_length(self) -> int:
        return len(self.factors)


def _left_weight(a: list[int], b: list[int]) -> bool:
    """Slide crossings from b into a, in place, until (a, b) is left-weighted;
    return whether any crossing moved.

    Position i carries the pair (a[i], b^-1[i]).  A crossing can move at i
    iff i is in S(b) but not in F(a), that is b^-1[i-1] > b^-1[i] and
    a[i-1] < a[i]; moving it (a <- a.b_i, b <- b_i^-1.b) swaps the pairs at
    i-1 and i.  So this is an insertion sort of the pairs under that rule:
    pair k walks left while a crossing moves.  Positions left of k are
    settled before it walks and the pairs it passes keep their order, so one
    walk per position suffices: O(n) plus O(1) per crossing moved.  At most
    positions no crossing moves, so the first step is tested before the
    walk starts.
    """
    n = len(b)
    binv = [0] * n
    for i in range(n):
        binv[b[i]] = i
    moved = False
    for k in range(1, n):
        xb = binv[k]
        if binv[k - 1] < xb:
            continue
        xa = a[k]
        if a[k - 1] > xa:
            continue
        a[k] = a[k - 1]
        binv[k] = binv[k - 1]
        i = k - 1
        while i and binv[i - 1] > xb and a[i - 1] < xa:
            a[i] = a[i - 1]
            binv[i] = binv[i - 1]
            i -= 1
        a[i] = xa
        binv[i] = xb
        moved = True
    if moved:
        for i in range(n):
            b[binv[i]] = i
    return moved


def _cancel_far(letters: Iterable[Tuple[int, int]],
                n: int) -> list[Tuple[int, int]]:
    """The letters without any b_i^s ... b_i^-s whose letters between all
    commute with b_i, in one left-to-right pass (see the comment above).

    A cancelled letter becomes a tombstone, None.  `last` holds each
    generator's last live index and `below` each kept letter's previous
    live index of its generator, so a cancellation rewinds its generator in
    O(1) and the pairs it brings together cancel in turn.
    """
    kept: list = []
    below: list[int] = []
    last = [-1] * (n + 1)
    for letter in letters:
        i = letter[0]
        k = last[i]
        if k > last[i - 1] and k > last[i + 1] and kept[k][1] != letter[1]:
            kept[k] = None
            last[i] = below[k]
        else:
            below.append(k)
            last[i] = len(kept)
            kept.append(letter)
    return [x for x in kept if x is not None]


def normal_form(w: BraidWord) -> GarsideNormalForm:
    """Left-greedy Garside normal form; canonical for the word problem."""
    n = w.strands
    if n == 1:
        return GarsideNormalForm(1, 0, ())
    m = n - 1
    ident = list(range(n))
    rev = ident[::-1]

    # Cancel the far-commuting inverse letters, then cut the word, right to
    # left, into the runs described above, each Delta^e . X, and push all
    # Delta powers to the front: X . Delta^e = Delta^e . tau^e(X).  `run`
    # holds P^-1 for a positive run (b_i . P swaps positions i-1, i of
    # P^-1) and P for a negative one (P . b_i swaps those of P); either way
    # the letter keeps P simple iff run[i-1] < run[i].  The sentinel letter
    # ends the last run.
    simples: list[Perm] = []
    infimum = 0
    run: list[int] = []
    run_sign = 0
    for i, sign in itertools.chain(reversed(_cancel_far(w.letters, n)),
                                   ((1, None),)):
        if sign == run_sign and run[i - 1] < run[i]:
            run[i - 1], run[i] = run[i], run[i - 1]
            continue
        if run_sign:
            x = pinv(run) if run_sign > 0 else [m - v for v in pinv(run)]
            simples.append(_tau(x, m) if infimum % 2 else x)
            if run_sign < 0:
                infimum -= 1
        run = list(ident)
        run[i - 1], run[i] = run[i], run[i - 1]
        run_sign = sign

    # Append the simples left to right, left-weighting backwards from the
    # new pair until a pair is already left-weighted or a factor becomes
    # Delta.  That Delta goes to the front at once and conjugates the
    # factors left of it; the conjugation is lazy: factor i stands for
    # tau^(parity ^ flips[i]) of the stored permutation and is brought up
    # to date only when it is read.
    factors: list[list[int]] = []
    flips: list[int] = []
    parity = 0
    for x in reversed(simples):
        factors.append(list(x))
        flips.append(parity)
        j = len(factors) - 1
        while factors[j] != rev:
            j -= 1
            if j < 0:
                break
            if flips[j] != parity:
                factors[j][:] = _tau(factors[j], m)
                flips[j] = parity
            if not _left_weight(factors[j], factors[j + 1]):
                break
        else:
            # A.Delta = Delta.tau(A) for each factor A left of j: flip the
            # global parity, and the factors right of j back.
            del factors[j], flips[j]
            infimum += 1
            parity ^= 1
            for i in range(j, len(flips)):
                flips[i] ^= 1
        if factors and factors[-1] == ident:
            factors.pop()
            flips.pop()

    return GarsideNormalForm(n, infimum, tuple(
        tuple(_tau(f, m) if b != parity else f)
        for f, b in zip(factors, flips)))


def equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Exact word-problem equality: whether the Garside normal form of
    w1^-1 w2 is trivial."""
    if w1.strands != w2.strands:
        raise StrandMismatch(
            f"cannot compare B_{w1.strands} with B_{w2.strands}")
    nf = normal_form(compose(w1.inverse(), w2))
    return nf.infimum == 0 and not nf.factors


# ---------------------------------------------------------------------------
# Dynnikov coordinate oracle
# ---------------------------------------------------------------------------
#
# Integral laminations of the n-punctured disk carry coordinates
# (a_1, b_1, ..., a_{n-2}, b_{n-2}), one pair per interior puncture: a_i
# measures the imbalance of crossings with the vertical rays above and below
# puncture i+1, b_i the difference of crossings with the vertical lines on
# each side of it.  The piecewise-linear update rule below was fitted to, and
# verified against, an explicit taut-curve engine (curves as reduced cyclic
# crossing words over the ray system, acted on through the Artin
# representation); it is exact on all of Z^{2n-4}.
#
# Words act through the embedding B_n -> B_{n+2} that adds one never-braided
# puncture on each side, so only the interior-generator rule is ever needed.
# The two extra coordinate pairs of the ambient disk are not zero: their b
# entries record the absolute line-crossing counts that the interior b
# differences forget.  They are known exactly for the probe laminations used
# here, which is all the oracle needs.
#
# Coordinates are exact Python ints; they grow exponentially in word length,
# so fixed-width arithmetic is forbidden in this module.


def _padded_base(n: int) -> list[tuple[int, int]]:
    """Coordinates of the base multicurve inside the (n+2)-punctured disk.

    The left pad's b entry is -(sum of multiplicities) because every base
    curve crosses the leftmost real line twice per weight unit.
    """
    total = n * (n - 3) // 2 + 1  # sum(1..n-2)
    return [(0, -total)] + [(0, k) for k in range(1, n - 1)] + [(0, 0)]


def _act_interior(pairs: list, i: int, sign: int) -> None:
    """Apply b_i^sign in place; requires 2 <= i <= len(pairs)-1."""
    a1, b1 = pairs[i - 2]
    a2, b2 = pairs[i - 1]
    if sign > 0:
        c = a1 - a2 + min(b1, 0) - max(b2, 0)
        na1 = a1 - max(b1, 0) - max(max(b2, 0) + c, 0)
        nb1 = b2 + min(c, 0)
        na2 = a2 - min(b2, 0) + max(c - min(b1, 0), 0)
        nb2 = b1 - min(c, 0)
    else:
        d = a1 - a2 - min(b1, 0) + max(b2, 0)
        na1 = a1 + max(b1, 0) + max(max(b2, 0) - d, 0)
        nb1 = b2 - max(d, 0)
        na2 = a2 + min(b2, 0) + min(min(b1, 0) + d, 0)
        nb2 = b1 + max(d, 0)
    pairs[i - 2] = (na1, nb1)
    pairs[i - 1] = (na2, nb2)


def _act_padded(w: BraidWord, pairs: list) -> list:
    """Act on (n+2)-disk coordinate pairs; b_i of B_n acts as b_{i+1}."""
    pairs = list(pairs)
    for i, sign in reversed(w.letters):
        _act_interior(pairs, i + 1, sign)
    return pairs


def dynnikov_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Independent word-problem oracle.

    True iff w1 w2^-1 acts trivially on the standard initial Dynnikov state
    and on its images under the powers of delta = b_1 b_2 ... b_{n-1}.
    The state holds the round curve about punctures 1 and 2, delta turns
    the punctures like a rotation, so the n images hold a curve about each
    pair of adjacent punctures, and a braid that fixes all of these curves
    is a power of the full twist.  The lamination action is blind to the central full twists,
    so exponent sums are compared first, which is exactly the invariant
    the kernel retains.
    """
    if w1.strands != w2.strands:
        raise StrandMismatch(
            f"cannot compare B_{w1.strands} with B_{w2.strands}")
    n = w1.strands
    if n < 3:
        raise ValueError("the Dynnikov oracle needs n >= 3")
    if w1.exponent_sum() != w2.exponent_sum():
        return False
    if w1.permutation() != w2.permutation():
        return False
    diff = compose(w1, w2.inverse())
    delta = BraidWord.from_ints(n, range(1, n))
    probe = _padded_base(n)
    for _ in range(n):
        if _act_padded(diff, probe) != probe:
            return False
        probe = _act_padded(delta, probe)
    return True
