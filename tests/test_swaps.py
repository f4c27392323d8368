import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from swapfact import dsl, swaps as swaps_mod
from swapfact.dsl import Document, ParseError, parse, print_document
from swapfact.framed import framed_equal, framed_identity
from swapfact.surface import NamedCurve, TwistWord, twist
from swapfact.swaps import (SurfaceLayout, SwapWord, embed, expand,
                            expansion_size, rho, shadow, spell, swap_letter)
from swapfact.words import compose

from swap_calculus import conjugation_rules, rho_conjugated


PAIRS = [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)]


@pytest.fixture(scope="module")
def layout():
    return SurfaceLayout(0)


def sub_twist(layout, tag, sign=1):
    return twist(layout.subsurface_model(), NamedCurve(tag), sign)


class TestLayout:
    def test_dimensions(self, layout):
        assert layout.cluster_size == 6
        assert layout.branch_points == 24
        assert layout.ambient_genus == 11
        assert SurfaceLayout(1).ambient_genus == 15

    def test_no_calculator_outlives_its_layout(self):
        # the swap expansions are cached per layout parameter; a layout
        # kept as the cache key kept its calculator and class memo too
        swaps_mod._rho_expansions.cache_clear()
        lay = SurfaceLayout(0)
        expand(rho(lay, 1, 2))
        ref = weakref.ref(lay.calculator)
        del lay
        gc.collect()
        assert ref() is None

    def test_each_subsurface_meets_each_disk_once(self, layout):
        # one boundary circle of F_i on each side: the two subboundary
        # classes are negatives of each other
        t = layout.calculator.table
        for i in range(1, 5):
            a = t[("subboundary", i, 1)]
            b = t[("subboundary", i, 2)]
            assert tuple(-x for x in a) == b

    def test_bad_index(self, layout):
        with pytest.raises(ValueError):
            layout.cluster_offset(5)


class TestEmbed:
    def test_empty(self, layout):
        w = embed(TwistWord(layout.subsurface_model()), 2, layout)
        assert len(w) == 0

    def test_relabeling(self, layout):
        w = embed(sub_twist(layout, ("chain", 1)), 1, layout)
        (curve, sign), = w.letters
        assert curve.tag == ("subchain", 1, 1) and sign == 1

    def test_homomorphism(self, layout):
        calc = layout.calculator
        a = sub_twist(layout, ("chain", 2))
        b = sub_twist(layout, ("dcurve", 1), -1)
        from homology_oracle import mat_mul
        assert calc.homology_action(embed(compose(a, b), 3, layout)) \
            == mat_mul(calc.homology_action(embed(a, 3, layout)),
                       calc.homology_action(embed(b, 3, layout)))

    def test_embeddings_conjugate_under_swap(self, layout):
        calc = layout.calculator
        a = sub_twist(layout, ("chain", 1))
        r = expand(rho(layout, 1, 2))
        lhs = compose(embed(a, 1, layout), r)
        rhs = compose(r, embed(a, 2, layout))
        assert calc.verify_homologically(lhs, rhs)


class TestSpelling:
    def test_unknown_kinds_raise(self, layout):
        for kind in [("tau",), ("conj", rho(layout, 1, 2), ("tau",))]:
            for read in (lambda w: spell(layout, kind), expand, shadow):
                with pytest.raises(ValueError, match="unknown swap letter"):
                    read(swap_letter(layout, kind))

    def test_primitives_spell_themselves(self, layout):
        a = sub_twist(layout, ("chain", 1))
        for kind in [("rho", 1, 2), ("M", 3), ("Mb",), ("sub", 2, a)]:
            assert spell(layout, kind) == [(None, kind)]

    def test_rho14_conjugates_by_both_steps(self, layout):
        (v, p), = spell(layout, ("rho", 1, 4))
        assert p == ("rho", 3, 4)
        assert v == rho(layout, 1, 2, -1) * rho(layout, 2, 3, -1)

    def test_conj_composes_conjugators(self, layout):
        v = rho(layout, 3, 4)
        kind = ("conj", v, ("delta", 1, 3))
        assert spell(layout, kind) == [
            (v * rho(layout, 1, 2, -1), ("rho", 2, 3)),
            (v, ("M", 3)), (v, ("M", 1))]

    @pytest.mark.parametrize("l", [0, 1])
    def test_expansion_size_counts_twist_letters(self, l):
        lay = SurfaceLayout(l)
        letters = parse(f"@swap l={l}\nsub(c1 img(c2; d1)^-1; F3) "
                        "rhoA(1,3; c1 img(c2 img(c1; c3); d1))").value.letters
        kinds = ([("rho", *p) for p in PAIRS] + [("delta", *p) for p in PAIRS]
                 + [("M", 2), ("Mb",), ("conj", rho(lay, 2, 3, -1),
                                         ("delta", 1, 4))]
                 + [kind for kind, _ in letters])
        for kind in kinds:
            twists, built = expansion_size(lay, kind)
            assert twists == len(expand(swap_letter(lay, kind)))
            assert built >= twists


class TestExpand:
    @pytest.mark.parametrize("pair", PAIRS)
    def test_positive_letter_counts(self, layout, pair):
        w = expand(rho(layout, *pair))
        assert len(w) == 6 and w.is_positive()

    @pytest.mark.parametrize("l,count", [(0, 6), (1, 8), (2, 10)])
    def test_counts_scale_with_l(self, l, count):
        lay = SurfaceLayout(l)
        assert len(expand(rho(lay, 1, 2))) == count

    def test_inverse_expansion_homologically_trivial(self, layout):
        calc = layout.calculator
        w = expand(rho(layout, 1, 2, -1) * rho(layout, 1, 2))
        assert calc.is_identity_action(w)

    def test_boundary_multitwist_expansion(self, layout):
        w = expand(swap_letter(layout, ("Mb",)))
        assert len(w) == 2
        assert layout.calculator.is_identity_action(w)

    def test_m_expansion(self, layout):
        w = expand(swap_letter(layout, ("M", 2)))
        assert len(w) == 2 and w.is_positive()


class TestTwoTierRelations:
    def hom_eq(self, layout, w1, w2):
        return layout.calculator.verify_homologically(expand(w1), expand(w2))

    def sh_eq(self, w1, w2):
        return framed_equal(shadow(w1), shadow(w2))

    @pytest.mark.parametrize("rel", [
        ((1, 2), (2, 3)), ((2, 3), (3, 4)),
    ])
    def test_braid_relations(self, layout, rel):
        (a, b), (c, d) = rel
        r1, r2 = rho(layout, a, b), rho(layout, c, d)
        lhs, rhs = r1 * r2 * r1, r2 * r1 * r2
        assert self.hom_eq(layout, lhs, rhs)
        assert self.sh_eq(lhs, rhs)

    def test_conjugation_spellings_agree(self, layout):
        for lay in (layout, SurfaceLayout(1)):
            r12, r23, r34 = (rho(lay, *p) for p in [(1, 2), (2, 3), (3, 4)])
            pairs = [
                (r12.inverse() * r23 * r12, r23 * r12 * r23.inverse()),
                (r23.inverse() * r34 * r23, r34 * r23 * r34.inverse()),
                (rho(lay, 1, 3), r12.inverse() * r23 * r12),
                (rho(lay, 2, 4), r23.inverse() * r34 * r23),
                (rho(lay, 1, 4), r12.inverse() * rho(lay, 2, 4) * r12),
            ]
            for lhs, rhs in pairs:
                assert self.hom_eq(lay, lhs, rhs)
                assert self.sh_eq(lhs, rhs)

    @pytest.mark.parametrize("l", [0, 1])
    @pytest.mark.parametrize("i,j", PAIRS)
    def test_delta_is_rho_then_both_multitwists(self, l, i, j):
        lay = SurfaceLayout(l)
        spelled = (rho(lay, i, j) * swap_letter(lay, ("M", j))
                   * swap_letter(lay, ("M", i)))
        delta = swap_letter(lay, ("delta", i, j))
        assert expand(delta).letters == expand(spelled).letters
        assert self.sh_eq(delta, spelled)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from([f"rho({i},{j})" for i, j in PAIRS]
                        + [f"delta({i},{i + 1})" for i in (1, 2, 3)]
                        + [f"M({i})" for i in (1, 2, 3, 4)] + ["Mb"]),
        st.integers(-3, 3)), max_size=8))
    def test_shadow_matches_the_framed_reader(self, tokens):
        # the @framed reader spells rho and delta in framed.py; the shadow
        # reads the swap spelling: two statements of the same rules
        body = " ".join(f"{t}^{k}" for t, k in tokens)
        swap = parse(f"@swap l=0\n{body}").value
        assert framed_equal(shadow(swap), parse(f"@framed n=4\n{body}").value)

    def test_far_commutation(self, layout):
        r12, r34 = rho(layout, 1, 2), rho(layout, 3, 4)
        assert self.hom_eq(layout, r12 * r34, r34 * r12)
        assert self.sh_eq(r12 * r34, r34 * r12)

    def test_rho_squared_boundary_relation(self, layout):
        for i, j in PAIRS:
            r = rho(layout, i, j)
            d = swap_letter(layout, ("delta", i, j))
            mi = swap_letter(layout, ("M", i))
            mj = swap_letter(layout, ("M", j))
            lhs = r * r
            rhs = d * d * mi.power(-2) * mj.power(-2)
            assert self.hom_eq(layout, lhs, rhs)
            assert self.sh_eq(lhs, rhs)

    def test_swap_homomorphism_to_shadow(self, layout):
        import random
        rng = random.Random(5)
        gens = [rho(layout, 1, 2), rho(layout, 2, 3), rho(layout, 3, 4),
                swap_letter(layout, ("M", 1)), swap_letter(layout, ("Mb",))]
        from swapfact.framed import fcompose
        for _ in range(20):
            a, b = rng.choice(gens), rng.choice(gens)
            assert framed_equal(shadow(a * b),
                                fcompose(shadow(a), shadow(b)))

    def test_sub_shadow_trivial(self, layout):
        a = sub_twist(layout, ("chain", 1))
        w = SwapWord(layout, ((("sub", 1, a), 1),))
        assert framed_equal(shadow(w), framed_identity(4))

    def test_phi_shadow_exponent(self, layout):
        from swapfact.constructions import phi
        s = shadow(phi(layout))
        assert s.underlying.exponent_sum() == 5

    def test_full_twist_shadow_identity(self, layout):
        from swapfact.framed import boundary_multitwist_framed, fcompose, fpower, m_framed
        w = (rho(layout, 3, 4) * rho(layout, 2, 3) * rho(layout, 1, 2)).power(4)
        rhs = fcompose(boundary_multitwist_framed(4),
                       *[fpower(m_framed(i), -4) for i in (4, 3, 2, 1)])
        assert framed_equal(shadow(w), rhs)


class TestConjugationRelations:
    def refuted(self, rules, layout):
        return [name for name, lhs, rhs in rules
                if not layout.calculator.verify_homologically(lhs, rhs)]

    def test_single_twist(self, layout):
        rules = conjugation_rules(sub_twist(layout, ("chain", 1)), 1, 2,
                                  layout)
        assert len(rules) == 4 and not self.refuted(rules, layout)

    def test_ten_twist_word_nonadjacent(self, layout):
        from swapfact.constructions import word_T
        rules = conjugation_rules(word_T(layout.subsurface_model()), 1, 3,
                                  layout)
        assert len(rules) == 4 and not self.refuted(rules, layout)

    def test_wrong_relation_fails(self, layout):
        # the deliberately wrong A_i rho = rho A_i (same side twice)
        calc = layout.calculator
        a = sub_twist(layout, ("chain", 1))
        r = expand(rho(layout, 1, 2))
        a1 = embed(a, 1, layout)
        assert not calc.verify_homologically(
            compose(a1, r), compose(r, a1))

    def test_rho_conjugated_expansion_positive(self, layout):
        w = expand(rho_conjugated(layout, 1, 2, sub_twist(layout, ("chain", 1))))
        assert len(w) == 6 and w.is_positive()


class TestSwapAlphabet:
    """The @swap reader's alphabet is the only check of a letter's indices:
    spell does not check them."""

    PLAIN = ([(name, i, j) for name in ("rho", "delta") for i, j in PAIRS]
             + [("M", i) for i in range(1, 5)] + [("Mb",)])

    def test_plain_letters_are_the_valid_kinds(self):
        kinds = [kind for kind, _, _ in dsl._SWAP.letters.values()]
        assert len(kinds) == len(self.PLAIN)
        assert set(kinds) == set(self.PLAIN)

    @pytest.mark.parametrize("l", [0, 1])
    def test_each_plain_letter_prints_as_one_token(self, l):
        layout = SurfaceLayout(l)
        for kind in self.PLAIN:
            w = swap_letter(layout, kind)
            assert len(expand(w)) == expansion_size(layout, kind)[0]
            text = print_document(Document("swap", w))
            assert text.splitlines()[1:] == [dsl._SWAP.spellings[kind]]
            assert parse(text).value == w

    @given(name=st.sampled_from(["rho", "delta", "rhoA", "M"]),
           i=st.integers(0, 5), j=st.integers(0, 5))
    def test_a_token_parses_exactly_when_its_indices_are_valid(self, name,
                                                               i, j):
        token = {"rho": f"rho({i},{j})", "delta": f"delta({i},{j})",
                 "rhoA": f"rhoA({i},{j}; c1)", "M": f"M({i})"}[name]
        valid = 1 <= i <= 4 if name == "M" else 1 <= i < j <= 4
        text = f"@swap l=0\nMb {token}"
        if valid:
            assert len(parse(text).value) == 2
        else:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (err.value.line, err.value.column) == (2, 4)

    @pytest.mark.parametrize("l", [0, 1])
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_each_subsurface_index_round_trips(self, l, i):
        text = f"@swap l={l}\nsub(c1 c2^-1; F{i})^-1"
        w = parse(text).value
        (kind, sign), = w.letters
        assert (kind[:2], sign) == (("sub", i), -1)
        printed = print_document(Document("swap", w))
        assert printed.splitlines()[1:] == [f"sub(c1 c2^-1; F{i})^-1"]
        assert parse(printed).value == w

    def test_printer_writes_no_token_outside_the_alphabet(self, layout):
        a = parse("@swap l=0\nsub(c1; F1)").value.letters[0][0][2]
        v = swap_letter(layout, ("sub", 1, a))
        for kind in [("rho", 1, 5), ("M", 7), ("conj", v, ("rho", 1, 5)),
                     ("sub", 0, a), ("sub", 5, a), ("sub", 7, a)]:
            with pytest.raises(ValueError):
                print_document(Document("swap", swap_letter(layout, kind)))

    def test_parse_builds_no_rho_expansion_it_does_not_read(self):
        # the letters' sizes are counted as they are read: the rho
        # expansions of l = 22 take a fifth of a second to build
        swaps_mod._rho_expansions.cache_clear()
        parse("@swap l=22\nMb M(1) sub(c1; F2)")
        assert swaps_mod._rho_expansions.cache_info().currsize == 0
