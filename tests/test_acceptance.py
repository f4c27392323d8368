"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criteria 8b and 8c assert the first homology of the closed total spaces:
b1 = 0 on the genus-11 family, with torsion Z/9 at m = 0 and none for
m = 1, 2, and b1 = 2l on the genus 11+4l families for l = 0..3.  Each case
is checked twice more.  homology_oracle.py redoes the integral arithmetic, and
mod2_model.py rebuilds the vanishing cycles mod 2 from the branched-cover
picture; its dimension of H_1(X; Z/2) bounds b1 from above and rules out
2-torsion where it is 0.  Every criterion must pass.
"""

import random
import time

from swapfact.braid import (BraidWord, compose, dynnikov_equal, equal,
                            full_twist, half_twist)
from swapfact.constructions import (boundary_multitwist_factorization,
                                    commutator_relation, extend_to_genus,
                                    extended_calculator, make_psi,
                                    phi_factorization, word_T)
from swapfact.dsl import parse, print_document
from swapfact.framed import framed_equal
from swapfact.invariants import (b1_of_total_space, endo_signature,
                                 euler_closed, hyperelliptic_obstruction,
                                 smith_normal_form)
from swapfact.lift import band_word, rho_band_factorization, swap_braid_target
from swapfact.surface import HomologyCalculator, SurfaceModel
from swapfact.swaps import SurfaceLayout

from braid_ints import to_ints
from homology_oracle import first_homology, smith_normal_form_oracle
from mod2_model import h1_dimension, matches_blocks, vanishing_cycles
from swap_calculus import boundary_verdicts, framed_relations


def report(name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  ({extra})" if extra else ""))
    return ok


def test_criterion_01_braid_kernel_oracle_equivalence():
    rng = random.Random(20260811)
    t0 = time.time()
    disagreements = 0
    for k in range(1000):
        n = rng.randint(3, 8)
        mk = lambda: BraidWord.from_ints(
            n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                for _ in range(rng.randint(0, 40))])
        w1 = mk()
        if k % 3 == 0:
            # engineered equal pair: insert relators into w1
            ints = list(to_ints(w1))
            for _ in range(rng.randint(1, 5)):
                i = rng.randint(1, n - 2)
                p = rng.randint(0, len(ints))
                ints[p:p] = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
            w2 = BraidWord.from_ints(n, ints)
        else:
            w2 = mk()
        if equal(w1, w2) != dynnikov_equal(w1, w2):
            disagreements += 1
    elapsed = time.time() - t0
    ok = disagreements == 0 and elapsed < 60
    assert report("1. equal <=> dynnikov_equal on 1000 pairs", ok,
                  f"{elapsed:.1f}s, {disagreements} disagreements")


def test_criterion_02_garside_structure():
    ok = True
    for n in range(3, 9):
        for i in range(1, n - 1):
            ok &= equal(BraidWord.from_ints(n, [i, i + 1, i]),
                        BraidWord.from_ints(n, [i + 1, i, i + 1]))
        for i in range(1, n - 2):
            for j in range(i + 2, n):
                ok &= equal(BraidWord.from_ints(n, [i, j]),
                            BraidWord.from_ints(n, [j, i]))
        d = half_twist(n)
        ft = full_twist(n)
        for i in range(1, n):
            g = BraidWord.from_ints(n, [i])
            ok &= equal(compose(d, g, d.inverse()),
                        BraidWord.from_ints(n, [n - i]))
            ok &= equal(compose(ft, g), compose(g, ft))
    assert report("2. Artin/far-commutation/Delta-reversal/centrality "
                  "for n in 3..8", ok)


def test_criterion_03_swap_braid_calculus():
    t0 = time.time()
    relations = framed_relations()
    ok = len(relations) == 7 and all(framed_equal(lhs, rhs)
                                     for _, lhs, rhs in relations)
    elapsed = time.time() - t0
    ok &= elapsed < 1
    assert report("3. framed swap calculus (7 relations, exact tier)", ok,
                  f"{elapsed:.3f}s")


def test_criterion_04_band_certificate():
    ok = True
    for gp in (2, 3):
        bands = rho_band_factorization(gp)
        w = band_word(bands)
        target = swap_braid_target(gp)
        ok &= equal(w, target)
        ok &= len(bands) == 2 * gp + 2 == target.exponent_sum()
    assert report("4. rho band certificate in B_12 and B_16 "
                  "(count = exponent sum)", ok)


def test_criterion_05_commutator_relation():
    surface = SurfaceModel(2, 2)
    calc = HomologyCalculator(surface)
    ok = len(word_T(surface)) == 10
    for m in (1, 2, 3):
        lhs, rhs = commutator_relation(m, surface)
        ok &= calc.is_identity_action(compose(lhs, rhs))
        boundary_letters = sum(
            1 for w in (lhs, rhs) for c, _ in w.letters
            if getattr(c, "tag", ("",))[0] == "boundary")
        ok &= boundary_letters == 0
    assert report("5. T^m C(m) homologically trivial, |T| = 10, "
                  "no boundary twists", ok)


def test_criterion_06_family_lengths():
    ok = True
    for l in (0, 1, 2):
        for m in range(0, 11):
            f = phi_factorization(m, l)
            ok &= f.length() == 10 * m + 5 * (2 * l + 6)
            ok &= f.word.is_positive()
    for m in (0, 1, 2):
        f = boundary_multitwist_factorization(m)
        ok &= f.length() == 10 * m + 104
        ok &= f.word.is_positive()
    assert report("6. lengths 10m+5(2l+6) and 10m+104, all letters "
                  "positive", ok)


def test_criterion_07_boundary_verification():
    ok = True
    times = []
    for m in (0, 1, 2):
        t0 = time.time()
        f = boundary_multitwist_factorization(m)
        sh, hom = boundary_verdicts(f)
        times.append(time.time() - t0)
        ok &= sh and hom and times[-1] < 30
    assert report("7. boundary factorization: shadow = Mb(4) exactly, "
                  "homology = 23x23 identity", ok,
                  "m=0..2, " + ", ".join(f"{t:.1f}s" for t in times))


def test_criterion_08a_euler_growth():
    vals = [euler_closed(11, 104 + 10 * m) for m in range(6)]
    ok = vals[0] == 64 and all(b - a == 10 for a, b in zip(vals, vals[1:]))
    assert report("8a. euler_closed(11, 104+10m) = 64+10m strictly "
                  "increasing", ok)


def first_homology_three_ways(m, l):
    """((b1, torsion) of b1_of_total_space, the same from the integral
    oracle, dim H_1(X; Z/2) from the mod-2 model) for the boundary
    factorization; the dimension is None unless the factorization's letters
    reduce mod 2 to the model's vanishing cycles."""
    lay = SurfaceLayout(l)
    f = boundary_multitwist_factorization(m, l)
    out = b1_of_total_space(f, lay.calculator)
    psi = make_psi(lay.subsurface_model())
    blocks = vanishing_cycles(m, l, [c.tag for c, _ in psi.letters])
    classes = [lay.calculator.curve_class(c) for c, _ in f.word.letters]
    dim = h1_dimension(blocks, l) if matches_blocks(classes, blocks) else None
    return (out.b1, out.torsion), first_homology(f, l), dim


def test_criterion_08b_b1_genus11_family():
    got, oracle, dims = zip(*(first_homology_three_ways(m, 0)
                              for m in (0, 1, 2)))
    ok = (list(got) == list(oracle) == [(0, (9,)), (0, ()), (0, ())]
          and dims == (0, 0, 0))
    assert report("8b. b1 = 0 for m in 0..2, torsion Z/9 at m = 0 and none "
                  "at m = 1, 2; equals the homology oracle; H_1(X; Z/2) = 0 "
                  "in the mod-2 model, so no b1 > 0 and no 2-torsion", ok,
                  f"measured {got}, oracle {oracle}, mod-2 dimensions {dims}")


def test_criterion_08c_b1_l_families():
    got, oracle, dims = zip(*(first_homology_three_ways(0, l)
                              for l in (0, 1, 2, 3)))
    b1s = [b for b, _ in got]
    even = [sum(1 for d in t if d % 2 == 0) for _, t in got]
    ok = (got == oracle and b1s == [0, 2, 4, 6] and dims == (0, 2, 4, 6)
          and [b + e for b, e in zip(b1s, even)] == list(dims))
    assert report("8c. b1 = 2l for l in 0..3; equals the homology oracle; "
                  "the mod-2 model gives dim H_1(X; Z/2) = 2l, so b1 <= 2l",
                  ok, f"measured {got}, oracle {oracle}, mod-2 dimensions "
                  f"{dims}")


def test_criterion_09_endo_obstruction():
    ok = endo_signature(11, 104).denominator != 1
    for m in range(26):
        want = "Inconclusive" if m % 23 == 8 else "NotHyperelliptic"
        ok &= hyperelliptic_obstruction(11, 10 * m + 104) == want
    rng = random.Random(99)
    for _ in range(200):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        ok &= smith_normal_form(mat) == smith_normal_form_oracle(mat)
    assert report("9. exact Endo verdicts for m in 0..25; SNF matches "
                  "minor-gcd oracle on 200 matrices", ok)


def test_criterion_10_higher_genus_extension():
    base = boundary_multitwist_factorization(0)
    ext = extend_to_genus(12, base)
    calc = extended_calculator(12, SurfaceLayout(0))
    ok = ext.length() == 202 and ext.word.is_positive() \
        and calc.is_identity_action(ext.word)
    assert report("10. genus-12 extension: 202 positive letters, identity "
                  "action on H_1(Sigma_12^2)", ok)


def test_criterion_11_cli_golden_scenarios(tmp_path, capsys):
    from swapfact.cli import main

    # round trips on generated artifacts
    phi_file = tmp_path / "phi.txt"
    bdry_file = tmp_path / "bdry.txt"
    assert main(["generate", "phi", "--m", "1", "-o", str(phi_file)]) == 0
    assert main(["generate", "boundary", "--m", "0", "-o",
                 str(bdry_file)]) == 0
    ok = True
    for f in (phi_file, bdry_file):
        text = f.read_text()
        ok &= print_document(parse(text)) == text

    # golden scenario: pass
    a = tmp_path / "a.txt"; b = tmp_path / "b.txt"
    a.write_text("@braid n=4\nb1 b2 b1\n")
    b.write_text("@braid n=4\nb2 b1 b2\n")
    ok &= main(["verify", str(a), str(b)]) == 0
    # golden scenario: refuted
    a.write_text("@twist g=2 s=2\nc1\n")
    b.write_text("@twist g=2 s=2\nc2\n")
    ok &= main(["verify", str(a), str(b), "--tier", "homology"]) == 2
    # golden scenario: tier-insufficient (homology is blind to boundary twists)
    a.write_text("@twist g=11 s=2\ndelta1 delta2\n")
    b.write_text("@twist g=11 s=2\n\n")
    ok &= main(["verify", str(a), str(b), "--tier", "homology"]) == 3
    ok &= main(["verify", str(a), str(b), "--tier", "exact"]) == 3
    capsys.readouterr()
    assert report("11. CLI round trips and exit codes 0/2/3 golden "
                  "scenarios", ok)
