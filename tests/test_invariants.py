import random
from fractions import Fraction

import pytest

from swapfact.constructions import (PositiveFactorization,
                                    boundary_multitwist_factorization,
                                    make_psi)
from swapfact.invariants import (b1_of_total_space, endo_signature,
                                 euler_closed, euler_filling,
                                 fibration_invariants,
                                 hyperelliptic_obstruction,
                                 smith_normal_form)
from swapfact.surface import (HomologyCalculator, SurfaceModel,
                              chain_curve, twist)
from swapfact.swaps import SurfaceLayout
from swapfact.words import compose

from homology_oracle import (first_homology, invariant_factors, relations,
                             smith_normal_form_oracle)
from mod2_model import (Mod2Model, from_chain_class, h1_dimension,
                        insertion_table_assembles, matches_blocks,
                        vanishing_cycles)


class TestEuler:
    def test_closed_values(self):
        assert euler_closed(11, 104) == 64
        assert euler_closed(11, 114) == 74
        assert euler_closed(1, 12) == 12

    def test_closed_monotone(self):
        vals = [euler_closed(11, 104 + 10 * m) for m in range(5)]
        assert vals == sorted(vals) and len(set(vals)) == len(vals)

    def test_filling_values(self):
        assert euler_filling(11, 2, 104) == 82
        assert euler_filling(3, 2, 0) == 2 - 2 * 3 - 2

    def test_filling_needs_boundary(self):
        with pytest.raises(ValueError):
            euler_filling(2, 0, 5)


class TestSmith:
    def test_identity(self):
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)

    def test_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 4]]) == (2, 4)

    def test_hand_example(self):
        assert smith_normal_form([[2, 4], [6, 10]]) == (2, 2)
        # 2 clears its row and column but does not divide 3: 3's row is
        # added to 2's before 2 can be split off
        assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
        assert smith_normal_form([[4, 6], [6, 4]]) == (2, 10)
        assert smith_normal_form([[2], [4], [6]]) == (2,)
        assert smith_normal_form([[0, 3, 0]]) == (3,)

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)

    def test_divisibility_chain(self):
        rng = random.Random(2)
        for _ in range(50):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            fs = smith_normal_form(m)
            nonzero = [d for d in fs if d]
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            assert smith_normal_form(m) == smith_normal_form_oracle(m)

    def test_against_minor_gcd_oracle_without_units(self):
        # entries from -9..9 almost always offer a unit pivot; these offer
        # none to start with, so pivots of least magnitude and added rows
        # are reached
        rng = random.Random(11)
        entries = [0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9]
        for _ in range(300):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.choice(entries) for _ in range(nc)] for _ in range(nr)]
            assert smith_normal_form(m) == smith_normal_form_oracle(m)


class TestEndo:
    def test_exact_rational(self):
        assert endo_signature(2, 20) == Fraction(-12)
        assert endo_signature(11, 104) == Fraction(-1248, 23)
        assert endo_signature(5, 0) == 0

    def test_verdicts(self):
        assert hyperelliptic_obstruction(2, 20) == "Inconclusive"
        for m in range(26):
            v = hyperelliptic_obstruction(11, 10 * m + 104)
            want = "Inconclusive" if m % 23 == 8 else "NotHyperelliptic"
            assert v == want

    def test_verdict_at_m8(self):
        assert hyperelliptic_obstruction(11, 184) == "Inconclusive"


class TestB1:
    def test_genus2_chain_fibration(self):
        # (t_c1...t_c5)^6 closes to the standard genus-2 fibration, b1 = 0
        s = SurfaceModel(2, 2)
        calc = HomologyCalculator(s)
        w = compose(*[twist(s, chain_curve(k))
                      for k in range(1, 6)]).power(6)
        fact = PositiveFactorization(w, None, "chain", ("chain",) * len(w))
        out = b1_of_total_space(fact, calc, cap=True)
        assert out.b1 == 0 and out.torsion == ()

    def test_depends_only_on_classes(self):
        # conjugating a letter by a word with the same class history
        # cannot change the result
        s = SurfaceModel(2, 2)
        calc = HomologyCalculator(s)
        from swapfact.surface import DerivedCurve, TwistWord
        base = compose(*[twist(s, chain_curve(k))
                         for k in range(1, 6)]).power(6)
        letters = list(base.letters)
        conj = compose(twist(s, chain_curve(2)),
                       twist(s, chain_curve(2), -1))
        letters[0] = (DerivedCurve(letters[0][0], conj), 1)
        changed = TwistWord(s, tuple(letters))
        f1 = PositiveFactorization(base, None, "a", ("x",) * len(base))
        f2 = PositiveFactorization(changed, None, "b", ("x",) * len(changed))
        assert b1_of_total_space(f1, calc) == b1_of_total_space(f2, calc)

    def test_boundary_family_b1_stable_in_m(self):
        lay = SurfaceLayout(0)
        outs = [b1_of_total_space(boundary_multitwist_factorization(m),
                                  lay.calculator) for m in (0, 1, 2)]
        assert len({o.b1 for o in outs}) == 1

    def test_b1_bounded_by_2g(self):
        lay = SurfaceLayout(0)
        out = b1_of_total_space(boundary_multitwist_factorization(0),
                                lay.calculator)
        assert 0 <= out.b1 <= 2 * 11

    def test_nonseparating_letters_have_nonzero_class(self):
        lay = SurfaceLayout(0)
        f = boundary_multitwist_factorization(1)
        calc = lay.calculator
        for c, _ in f.word.letters:
            assert any(calc.curve_class(c))

    def test_report(self):
        lay = SurfaceLayout(0)
        f = boundary_multitwist_factorization(0)
        rep = fibration_invariants(f, lay.calculator)
        assert rep.genus == 11 and rep.n_cycles == 104
        assert rep.euler_closed == 64 and rep.euler_filling == 82
        assert rep.endo_sigma == Fraction(-1248, 23)
        assert rep.hyperelliptic_verdict == "NotHyperelliptic"


class TestHomologyOracle:
    """The independent H_1 computation that criteria 8b and 8c compare
    b1_of_total_space against."""

    def test_elimination_against_minor_gcd_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            want = tuple(d for d in smith_normal_form_oracle(m) if d)
            assert invariant_factors(m, nc) == want

    def test_elimination_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors as sympy_if
        for l in (0, 1, 2):
            rows = relations(boundary_multitwist_factorization(0, l), l)
            want = tuple(abs(int(d)) for d in
                         sympy_if(sympy.Matrix(rows), domain=sympy.ZZ) if d)
            assert invariant_factors(rows, len(rows[0])) == want

    def test_independent_of_psi_and_twist_handedness(self):
        # every distinct psi certificate the search returns, under both
        # sign conventions for a positive twist, and in the mod-2 model
        lay = SurfaceLayout(0)
        seeds = {}
        for seed in range(12):
            seeds.setdefault(make_psi(lay.subsurface_model(), seed=seed), seed)
        assert len(seeds) > 1
        calc = lay.calculator
        for psi, seed in seeds.items():
            tags = [c.tag for c, _ in psi.letters]
            for m, torsion in ((0, (9,)), (1, ()), (2, ())):
                f = boundary_multitwist_factorization(m, seed=seed)
                out = b1_of_total_space(f, calc)
                assert (out.b1, out.torsion) == (0, torsion)
                assert first_homology(f) == (0, torsion)
                assert first_homology(f, handed=-1) == (0, torsion)
                blocks = vanishing_cycles(m, 0, tags)
                classes = [calc.curve_class(c) for c, _ in f.word.letters]
                assert matches_blocks(classes, blocks)
                assert h1_dimension(blocks, 0) == 0


class TestMod2Model:
    """The branched-cover model that bounds b1 in criteria 8b and 8c."""

    def test_insertion_table_assembles_the_full_twist_word(self):
        assert insertion_table_assembles()

    def test_boundary_set_is_the_radical(self):
        # the boundary meets every even set evenly, and the chain curves
        # meet in the chain pattern
        model = Mod2Model(0)
        units = [tuple(int(i == k) for i in range(model.n - 1))
                 for k in range(model.n - 1)]
        sets = [from_chain_class(u) for u in units]
        assert model.everything == from_chain_class(
            SurfaceLayout(0).ambient_model().boundary_class())
        for a, x in enumerate(sets):
            assert bin(x & model.everything).count("1") % 2 == 0
            for b, y in enumerate(sets):
                assert bin(x & y).count("1") % 2 == int(abs(a - b) == 1)

    def test_swap_words_permute_whole_clusters(self):
        model = Mod2Model(1)
        word = [(1, 2), (2, 4), (3, 4)]
        for i in range(1, 5):
            image = model.permute(word, model.cluster(i))
            assert image in [model.cluster(j) for j in range(1, 5)]
            assert model.permute(word[::-1], image) == model.cluster(i)

    def test_a_wrong_layout_class_is_seen(self):
        # a subsurface curve d_1 read as c_1 + c_2 instead of c_1 + c_3
        lay = SurfaceLayout(0)
        calc = HomologyCalculator(lay.ambient_model())
        table = calc.table
        d1 = table[("subdcurve", 1, 1)]
        wrong = tuple(a + (k == 1) - (k == 2) for k, a in enumerate(d1))
        table[("subdcurve", 1, 1)] = wrong
        table[("subdcurve", 1, 2)] = tuple(-a for a in wrong)
        tags = [c.tag for c, _ in make_psi(lay.subsurface_model()).letters]
        f = boundary_multitwist_factorization(1)
        classes = [calc.curve_class(c) for c, _ in f.word.letters]
        assert not matches_blocks(classes, vanishing_cycles(1, 0, tags))
