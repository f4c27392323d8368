import random

import pytest

from swapfact.surface import (DerivedCurve, HomologyCalculator, NamedCurve,
                              SurfaceMismatch, SurfaceModel, TwistWord,
                              UnknownCurve, chain_curve, identity_matrix,
                              twist)
from swapfact.words import compose

from homology_oracle import mat_mul


def boundary_curve(which):
    return NamedCurve(("boundary", which))


def d_curve(which):
    return NamedCurve(("dcurve", which))


@pytest.fixture
def genus2():
    s = SurfaceModel(2, 2)
    return s, HomologyCalculator(s)


def chain_matrix(r):
    """The chain-basis intersection matrix: J[i][i+1] = 1, J[i+1][i] = -1."""
    return tuple(tuple(int(k == i + 1) - int(i == k + 1) for k in range(r))
                 for i in range(r))


def chain_word(s, ks):
    return compose(*[twist(s, chain_curve(k)) for k in ks])


class TestModel:
    def test_ranks(self):
        assert SurfaceModel(2, 2).rank == 5
        assert SurfaceModel(11, 2).rank == 23
        assert SurfaceModel(2, 0).rank == 4

    def test_intersection_matrix_skew(self, genus2):
        s, _ = genus2
        j = chain_matrix(s.rank)
        assert all(j[i][k] == -j[k][i] for i in range(5) for k in range(5))

    @pytest.mark.parametrize("r", range(1, 10))
    def test_pairing_is_the_chain_matrix_form(self, r):
        s = SurfaceModel(r // 2, 2 if r % 2 else 0)
        assert s.rank == r
        j = chain_matrix(r)
        rng = random.Random(r)
        for _ in range(50):
            u = tuple(rng.randint(-9, 9) for _ in range(r))
            v = tuple(rng.randint(-9, 9) for _ in range(r))
            assert s.pairing(u, v) == sum(u[i] * j[i][k] * v[k]
                                          for i in range(r) for k in range(r))

    def test_boundary_class_in_radical(self, genus2):
        s, calc = genus2
        e = s.boundary_class()
        for k in range(1, 6):
            assert s.pairing(e, calc.curve_class(chain_curve(k))) == 0

    def test_chain_pairings(self, genus2):
        s, calc = genus2
        for k in range(1, 5):
            a = calc.curve_class(chain_curve(k))
            b = calc.curve_class(chain_curve(k + 1))
            assert abs(s.pairing(a, b)) == 1
        a = calc.curve_class(chain_curve(1))
        c = calc.curve_class(chain_curve(4))
        assert s.pairing(a, c) == 0

    def test_boundary_pairs_zero_with_everything(self, genus2):
        s, calc = genus2
        d1 = calc.curve_class(boundary_curve(1))
        for tag in [("chain", 2), ("dcurve", 1), ("boundary", 2)]:
            assert s.pairing(d1, calc.curve_class(NamedCurve(tag))) == 0

    def test_d_classes(self, genus2):
        s, calc = genus2
        d1 = calc.curve_class(d_curve(1))
        d2 = calc.curve_class(d_curve(2))
        c1 = calc.curve_class(chain_curve(1))
        c3 = calc.curve_class(chain_curve(3))
        assert tuple(a + b for a, b in zip(d1, d2)) == (0,) * 5
        assert d1 in (tuple(x + y for x, y in zip(c1, c3)),
                      tuple(-x - y for x, y in zip(c1, c3)))


class TestActions:
    def test_boundary_twist_trivial(self, genus2):
        s, calc = genus2
        m = calc.homology_action(twist(s, boundary_curve(1)))
        assert m == identity_matrix(5)

    def test_twist_inverse(self, genus2):
        s, calc = genus2
        m = calc.homology_action(twist(s, chain_curve(2), 1))
        mi = calc.homology_action(twist(s, chain_curve(2), -1))
        assert mat_mul(m, mi) == identity_matrix(5)

    def test_transvection_power(self, genus2):
        s, calc = genus2
        c1 = calc.curve_class(chain_curve(1))
        c2 = calc.curve_class(chain_curve(2))
        w = twist(s, chain_curve(1)).power(2)
        image = calc.apply_word(w, c2)
        coef = 2 * s.pairing(c2, c1)
        assert image == tuple(a + coef * b for a, b in zip(c2, c1))

    def test_preserves_intersection_form(self, genus2):
        s, calc = genus2
        j = chain_matrix(s.rank)
        rng = random.Random(1)
        tags = [("chain", k) for k in range(1, 6)] + [("dcurve", 1),
                                                      ("boundary", 1)]
        for tag in tags:
            for sign in (1, -1):
                m = calc.homology_action(twist(s, NamedCurve(tag), sign))
                mt = tuple(zip(*m))
                assert mat_mul(mat_mul(mt, j), m) == j
        # and for a random derived curve
        conj = chain_word(s, [rng.randint(1, 5) for _ in range(6)])
        m = calc.homology_action(twist(s, DerivedCurve(chain_curve(2), conj)))
        mt = tuple(zip(*m))
        assert mat_mul(mat_mul(mt, j), m) == j

    def test_det_one(self, genus2):
        import sympy
        s, calc = genus2
        for tag in [("chain", 3), ("dcurve", 2)]:
            m = sympy.Matrix(calc.homology_action(twist(s, NamedCurve(tag))))
            assert m.det() == 1

    def test_action_homomorphism(self, genus2):
        s, calc = genus2
        u = chain_word(s, [1, 2])
        v = chain_word(s, [3, 4, 5])
        lhs = calc.homology_action(compose(u, v))
        rhs = mat_mul(calc.homology_action(u), calc.homology_action(v))
        assert lhs == rhs

    def test_action_of_inverse(self, genus2):
        s, calc = genus2
        w = compose(twist(s, chain_curve(1)),
                    twist(s, d_curve(1), -1))
        assert mat_mul(calc.homology_action(w),
                       calc.homology_action(w.inverse())) \
            == identity_matrix(5)

    def test_empty_word_identity(self, genus2):
        s, calc = genus2
        assert calc.homology_action(TwistWord(s)) == identity_matrix(5)


class TestRelations:
    def test_chain_relation_genus2(self, genus2):
        s, calc = genus2
        lhs = chain_word(s, [1, 2, 3]).power(4)
        rhs = compose(twist(s, d_curve(1)), twist(s, d_curve(2)))
        assert calc.verify_homologically(lhs, rhs)

    def test_full_chain_relation(self, genus2):
        s, calc = genus2
        assert calc.is_identity_action(chain_word(s, [1, 2, 3, 4, 5]).power(6))

    @pytest.mark.parametrize("g", [3, 11, 12])
    def test_big_chain_relations(self, g):
        s = SurfaceModel(g, 2)
        calc = HomologyCalculator(s)
        word = compose(*[twist(s, chain_curve(k))
                         for k in range(1, 2 * g + 2)])
        assert calc.is_identity_action(word.power(2 * g + 2))

    def test_distinct_transvections_refuted(self, genus2):
        s, calc = genus2
        assert not calc.verify_homologically(
            twist(s, chain_curve(1)), twist(s, chain_curve(2)))

    def test_boundary_vs_empty_not_refutable(self, genus2):
        # the documented verifier limitation: boundary twists vanish on H_1
        s, calc = genus2
        assert calc.verify_homologically(
            twist(s, boundary_curve(1)), TwistWord(s))


class TestCurves:
    def test_unknown_tag(self, genus2):
        _, calc = genus2
        with pytest.raises(UnknownCurve):
            calc.curve_class(NamedCurve(("nonsense", 7)))

    def test_surface_mismatch(self, genus2):
        s, calc = genus2
        other = SurfaceModel(3, 2)
        with pytest.raises(SurfaceMismatch):
            calc.verify_homologically(TwistWord(s), TwistWord(other))

    def test_derived_curve_memoized(self, genus2):
        s, calc = genus2
        conj = chain_word(s, [1, 2, 1, 2])
        d = DerivedCurve(chain_curve(2), conj)
        first = calc.curve_class(d)
        assert calc.curve_class(DerivedCurve(chain_curve(2), conj)) == first
        assert first == calc.apply_word(conj, calc.curve_class(chain_curve(2)))
