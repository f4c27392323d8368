import pytest

from swapfact import braid as braid_mod
from swapfact import lift as lift_mod
from swapfact import swaps as swaps_mod
from swapfact.braid import (BraidWord, band, compose, dynnikov_equal, equal,
                            full_twist, half_twist)
from swapfact.framed import (FramedBraid, boundary_multitwist_framed,
                             fcompose, framed_equal)
from swapfact.lift import (CertificationError, band_word, block_full_twist,
                           block_half_twist, lift, rho_band_factorization,
                           swap_bands, swap_braid_target)
from swapfact.surface import (DerivedCurve, HomologyCalculator, SurfaceModel,
                              chain_curve, twist)
from swapfact.swaps import SurfaceLayout, expand, rho


def verify_delta_square_lift(g: int) -> bool:
    """delta-hat squared is the boundary multitwist: checked on absolute
    homology (both act trivially) and exactly on the framed two-cluster
    shadow."""
    if g < 1:
        raise ValueError("need g >= 1")
    surface = SurfaceModel(g, 2)
    calc = HomologyCalculator(surface)
    lifted = lift(full_twist(2 * g + 2), surface)
    if not calc.is_identity_action(lifted):
        return False
    dhat = FramedBraid(BraidWord.from_ints(2, [1]), (1, 0))
    return framed_equal(fcompose(dhat, dhat), boundary_multitwist_framed(2))


def test_lift_letterwise():
    w = BraidWord.from_ints(6, [1, -3, 5])
    t = lift(w)
    assert t.surface == SurfaceModel(2, 2)
    assert [(c.tag, s) for c, s in t.letters] == [
        (("chain", 1), 1), (("chain", 3), -1), (("chain", 5), 1)]


def test_lift_needs_even_strands():
    with pytest.raises(ValueError):
        lift(BraidWord.from_ints(5, [1]))


def test_lift_homomorphism_on_homology():
    surface = SurfaceModel(2, 2)
    calc = HomologyCalculator(surface)
    u = BraidWord.from_ints(6, [1, 2])
    v = BraidWord.from_ints(6, [4, -5])
    from homology_oracle import mat_mul
    assert calc.homology_action(lift(compose(u, v))) == mat_mul(
        calc.homology_action(lift(u)), calc.homology_action(lift(v)))


def test_equal_braids_equal_actions():
    surface = SurfaceModel(2, 2)
    calc = HomologyCalculator(surface)
    w1 = BraidWord.from_ints(6, [1, 2, 1])
    w2 = BraidWord.from_ints(6, [2, 1, 2])
    assert equal(w1, w2)
    assert calc.homology_action(lift(w1)) == calc.homology_action(lift(w2))


def test_lift_of_band_is_derived_twist():
    # the lift of w.b_core.w^-1 acts as the twist about c_core carried by
    # the lift of w
    surface = SurfaceModel(2, 2)
    calc = HomologyCalculator(surface)
    conj = BraidWord.from_ints(6, [3, -4])
    derived = twist(surface, DerivedCurve(chain_curve(2), lift(conj)))
    assert calc.homology_action(lift(band(2, conj))) \
        == calc.homology_action(derived)


def test_delta_hat_word_shape():
    # the lift of the half twist is (t1...t_{2g+1})(t1...t_{2g})...(t1)
    t = lift(half_twist(6))
    ks = [c.tag[1] for c, _ in t.letters]
    assert ks == [1, 2, 3, 4, 5, 1, 2, 3, 4, 1, 2, 3, 1, 2, 1]


@pytest.mark.parametrize("g", [1, 2, 5])
def test_delta_square_lift(g):
    assert verify_delta_square_lift(g)


def test_delta_square_lift_perturbed_fails():
    surface = SurfaceModel(2, 2)
    calc = HomologyCalculator(surface)
    w = compose(full_twist(6), BraidWord.from_ints(6, [1]))
    assert not calc.is_identity_action(lift(w, surface))


class TestSwapBands:
    @pytest.mark.parametrize("gp", [1, 2, 3])
    def test_band_count_and_positivity(self, gp):
        bands = rho_band_factorization(gp)
        assert len(bands) == 2 * gp + 2
        for core, conj in bands:
            assert band(core, conj).exponent_sum() == 1

    @pytest.mark.parametrize("gp", [*range(1, 9), 14])
    def test_certified_against_target(self, gp):
        # the Dynnikov oracle shares no code with the Garside normal form;
        # at g' = 14 (B_60) it takes about 0.7 s, and 3.3 s at g' = 24
        w, target = band_word(swap_bands(gp)), swap_braid_target(gp)
        assert equal(w, target)
        assert dynnikov_equal(w, target)

    def test_exponent_sum_bookkeeping(self):
        # e(Delta) - 2 e(T_1) - 2 e(T_2) equals the band count
        for gp in (2, 3):
            h = 2 * gp + 2
            n = 2 * h
            target = swap_braid_target(gp)
            assert target.exponent_sum() == h

    def test_lifted_factorization_positive(self):
        surface = SurfaceModel(5, 2)
        w = compose(*[twist(surface, DerivedCurve(chain_curve(core),
                                                  lift(conj, surface)))
                      for core, conj in rho_band_factorization(2)])
        assert len(w) == 6 and w.is_positive()

    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_cluster_pair_family(self, l, i):
        # the expansion of rho_{i,i+1} names the certified bands shifted
        # onto clusters i, i+1 of B_{4h} and transported by the lifted
        # cluster-i half twist; shifted, they multiply to the block swap
        # braid on those clusters
        layout = SurfaceLayout(l)
        n, h, off = (layout.branch_points, layout.cluster_size,
                     layout.cluster_offset(i))
        vi = lift(block_half_twist(n, off + 1, off + h),
                  layout.ambient_model())
        shifted = []
        for curve, sign in expand(rho(layout, i, i + 1)).letters:
            letters = curve.conjugator.letters
            assert sign == 1 and letters[:len(vi)] == vi.letters
            shifted.append((curve.base.tag[1], BraidWord(
                n, ((c.tag[1], s) for c, s in letters[len(vi):]))))
        assert [(core - off, BraidWord(2 * h, ((k - off, s)
                                               for k, s in conj.letters)))
                for core, conj in shifted] \
            == rho_band_factorization(layout.subsurface_genus)
        w = band_word(shifted)
        target = compose(block_half_twist(n, off + 1, off + 2 * h),
                         block_full_twist(n, off + 1, off + h).inverse(),
                         block_full_twist(n, off + h + 1,
                                          off + 2 * h).inverse())
        assert equal(w, target)
        assert dynnikov_equal(w, target)

    @pytest.mark.parametrize("gp", [1, 14, 24])
    def test_bad_family_raises(self, monkeypatch, gp):
        good = lift_mod.swap_bands
        monkeypatch.setattr(lift_mod, "swap_bands", lambda gp:
                            good(gp)[:-1] + [(1, BraidWord(4 * gp + 4))])
        with pytest.raises(CertificationError):
            lift_mod.rho_band_factorization(gp)

    def test_certificate_work_at_the_layout_cap(self, monkeypatch):
        # g' = 24 is the subsurface genus at l = 22.  The band product and
        # the target are long runs of one sign; read one simple factor per
        # letter, their two normal forms took 22,146 `_left_weight` calls.
        # Read one per run, the one normal form of the band product's
        # inverse times the target takes 393.
        calls = 0
        left_weight = braid_mod._left_weight

        def counted(a, b):
            nonlocal calls
            calls += 1
            return left_weight(a, b)

        monkeypatch.setattr(braid_mod, "_left_weight", counted)
        rho_band_factorization(24)
        assert calls < 2000, calls

    def test_expansion_refuses_a_bad_family(self, monkeypatch):
        # the swap expansion certifies the band family before shifting it
        # onto a pair of clusters, so a wrong family is never expanded
        good = lift_mod.swap_bands
        monkeypatch.setattr(lift_mod, "swap_bands", lambda gp:
                            good(gp)[:-1] + [(1, BraidWord(4 * gp + 4))])
        swaps_mod._rho_expansions.cache_clear()
        try:
            with pytest.raises(CertificationError):
                expand(rho(SurfaceLayout(0), 1, 2))
        finally:
            swaps_mod._rho_expansions.cache_clear()
