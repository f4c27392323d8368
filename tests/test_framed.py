import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from swapfact.braid import BraidWord, StrandMismatch, compose
from swapfact.framed import (FramedBraid, boundary_multitwist_framed,
                             delta_framed, fcompose, finverse, fpower,
                             framed_equal, framed_identity, m_framed,
                             rho_framed)

from braid_ints import to_ints
from swap_calculus import framed_relations

RELATIONS = framed_relations()


def test_generator_values():
    d = delta_framed(1, 2)
    assert to_ints(d.underlying) == (1,) and d.framings == (1, 0, 0, 0)
    r = rho_framed(1, 2)
    assert to_ints(r.underlying) == (1,) and r.framings == (0, -1, 0, 0)


def test_delta_requires_adjacent():
    with pytest.raises(ValueError):
        delta_framed(1, 3)


def test_end_permutation_swaps():
    assert delta_framed(1, 2).underlying.permutation() == (1, 0, 2, 3)


def test_pure_framings_add():
    x = fcompose(FramedBraid(BraidWord(4), (1, 0, 0, 0)),
                 FramedBraid(BraidWord(4), (0, 1, 0, 0)))
    assert x.framings == (1, 1, 0, 0) and len(x.underlying) == 0


def test_identity_neutral():
    x = rho_framed(2, 3)
    assert framed_equal(fcompose(x, framed_identity(4)), x)
    assert framed_equal(fcompose(framed_identity(4), x), x)


def test_rho_squared():
    r = rho_framed(1, 2)
    sq = fcompose(r, r)
    assert to_ints(sq.underlying) == (1, 1)
    assert sq.framings == (-1, -1, 0, 0)


def test_rho_exponent_and_total_framing():
    for (i, j) in [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)]:
        r = rho_framed(i, j)
        assert r.underlying.exponent_sum() == 1
        assert sum(r.framings) == -1


def test_boundary_multitwist():
    mb = boundary_multitwist_framed(4)
    assert mb.framings == (1, 1, 1, 1)
    sq = fcompose(mb, mb)
    assert sq.framings == (2, 2, 2, 2)
    # commutes with everything on 4 strands
    for x in (rho_framed(1, 2), delta_framed(2, 3), m_framed(3)):
        assert framed_equal(fcompose(mb, x), fcompose(x, mb))


def test_framed_equal_sees_framings():
    x = rho_framed(1, 2)
    y = FramedBraid(x.underlying, (1, -1, 0, 0))
    assert not framed_equal(x, y)


def test_framed_equal_strand_mismatch():
    with pytest.raises(StrandMismatch):
        framed_equal(framed_identity(3), framed_identity(4))


def test_fcompose_associative():
    rng = random.Random(3)
    gens = [rho_framed(1, 2), rho_framed(2, 3), rho_framed(3, 4),
            delta_framed(1, 2), m_framed(2), boundary_multitwist_framed(4)]
    for _ in range(40):
        a, b, c = (rng.choice(gens) for _ in range(3))
        assert framed_equal(fcompose(fcompose(a, b), c),
                            fcompose(a, fcompose(b, c)))


def framed_braids(n):
    return st.builds(
        lambda ints, framings: FramedBraid(BraidWord.from_ints(n, ints),
                                           tuple(framings)),
        st.lists(st.integers(1, n - 1).flatmap(
            lambda i: st.sampled_from([i, -i])), max_size=12),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n))


def compose_pair(a, b):
    """a after b by the framing law: b's framing at strand i plus a's
    framing where strand i lands under b."""
    perm = b.underlying.permutation()
    return FramedBraid(compose(a.underlying, b.underlying),
                       tuple(f + a.framings[p]
                             for f, p in zip(b.framings, perm)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fcompose_is_the_left_fold_of_pairs(data):
    n = data.draw(st.integers(2, 6))
    fs = data.draw(st.lists(framed_braids(n), min_size=1, max_size=8))
    folded = functools.reduce(compose_pair, fs)
    assert fcompose(*fs) == folded
    assert functools.reduce(lambda a, b: fcompose(a, b), fs) == folded
    k = data.draw(st.integers(-4, 4))
    base = fs[0] if k >= 0 else finverse(fs[0])
    assert fpower(fs[0], k) == functools.reduce(
        compose_pair, [base] * abs(k), framed_identity(n))


def test_inverse_cancels():
    rng = random.Random(7)
    gens = [rho_framed(1, 2), rho_framed(2, 4), delta_framed(3, 4),
            m_framed(1)]
    for _ in range(30):
        x = fcompose(*[rng.choice(gens) for _ in range(4)])
        assert framed_equal(fcompose(x, finverse(x)), framed_identity(4))


def test_total_framing_homomorphism():
    rng = random.Random(9)
    gens = [rho_framed(1, 2), rho_framed(2, 3), delta_framed(1, 2),
            m_framed(4), boundary_multitwist_framed(4)]
    for _ in range(30):
        a, b = rng.choice(gens), rng.choice(gens)
        assert (sum(fcompose(a, b).framings)
                == sum(a.framings) + sum(b.framings))


def test_rho_and_delta_framings_differ_by_two():
    # rho = delta . M_i^-1 . M_j^-1 on the base disk
    for (i, j) in [(1, 2), (2, 3), (3, 4)]:
        lhs = rho_framed(i, j)
        rhs = fcompose(delta_framed(i, j), fpower(m_framed(i), -1),
                       fpower(m_framed(j), -1))
        assert framed_equal(lhs, rhs)


def test_swap_relation_suite_passes():
    assert len({name for name, _, _ in RELATIONS}) == 7
    assert all(framed_equal(lhs, rhs) for _, lhs, rhs in RELATIONS)


@pytest.mark.parametrize("name, lhs, rhs", RELATIONS,
                         ids=[name for name, _, _ in RELATIONS])
def test_swap_relation(name, lhs, rhs):
    assert framed_equal(lhs, rhs), name


def test_perturbed_framings_fail():
    # delta framings in place of rho framings break the -4 full twist law
    d34, d23, d12 = delta_framed(3, 4), delta_framed(2, 3), delta_framed(1, 2)
    lhs = fpower(fcompose(d34, d23, d12), 4)
    rhs = fcompose(boundary_multitwist_framed(4),
                   *[fpower(m_framed(i), -4) for i in (4, 3, 2, 1)])
    assert not framed_equal(lhs, rhs)
    # and sign-flipping one framing keeps the braid part but breaks framings
    bad = FramedBraid(rho_framed(1, 2).underlying, (0, 1, 0, 0))
    good = rho_framed(1, 2)
    assert to_ints(bad.underlying) == to_ints(good.underlying)
    assert not framed_equal(bad, good)
