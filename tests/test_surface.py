import copy
import importlib
import pickle
import pkgutil
import random

import pytest
from hypothesis import given, settings, strategies as st

import swapfact
from swapfact.braid import BraidWord
from swapfact.constructions import (PositiveFactorization,
                                    boundary_multitwist_factorization,
                                    extend_to_genus)
from swapfact.dsl import Document, parse, print_document
from swapfact.framed import FramedBraid
from swapfact.surface import (DerivedCurve, HomologyCalculator, NamedCurve,
                              SurfaceLayout, SurfaceMismatch, SurfaceModel,
                              TwistWord, UnknownCurve, chain_curve,
                              identity_matrix, twist)
from swapfact.swaps import rho
from swapfact.words import Value, Word, compose

from homology_oracle import ClassResolver, mat_mul


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

    @pytest.mark.parametrize("r", range(1, 10))
    def test_covector_is_the_pairing_row(self, r):
        s = SurfaceModel(r // 2, 2 if r % 2 else 0)
        rng = random.Random(r)
        for _ in range(20):
            v = tuple(rng.randint(-9, 9) for _ in range(r))
            assert s.covector(v) == tuple(s.pairing(e, v)
                                          for e in identity_matrix(r))
        assert not any(SurfaceModel(3, 2).covector(
            SurfaceModel(3, 2).boundary_class()))

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
        image = tuple(row[1] for row in calc.homology_action(w))
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
        assert first == ClassResolver(2)(d)


# ---------------------------------------------------------------------------
# The hand-written value types
# ---------------------------------------------------------------------------

_S3 = SurfaceModel(3)
_C2 = twist(_S3, chain_curve(2))
_WORD = "TwistWord(SurfaceModel(genus=3, boundary=2, layout=None); 1 letters)"

# (value, its fields by name in order, another value of the same type, its
# repr, constructors that must raise ValueError with these messages); the
# reprs and messages are those the frozen dataclasses printed
_VALUES = {
    "SurfaceLayout": (
        SurfaceLayout(1), {"l": 1}, SurfaceLayout(2), "SurfaceLayout(l=1)",
        [(lambda: SurfaceLayout(-1), "layout parameter l must be >= 0")]),
    "SurfaceModel": (
        SurfaceModel(11, 2, SurfaceLayout(0)),
        {"genus": 11, "boundary": 2, "layout": SurfaceLayout(0)},
        SurfaceModel(11, 2),
        "SurfaceModel(genus=11, boundary=2, layout=SurfaceLayout(l=0))",
        [(lambda: SurfaceModel(14, 2, SurfaceLayout(1)),
          "layout l=1 needs s=2 and genus >= 15"),
         (lambda: SurfaceModel(11, 1, SurfaceLayout(0)),
          "layout l=0 needs s=2 and genus >= 11"),
         (lambda: SurfaceModel(2, 3), "unsupported surface"),
         (lambda: SurfaceModel(-1), "unsupported surface")]),
    "NamedCurve": (
        chain_curve(3), {"tag": ("chain", 3)}, chain_curve(4),
        "NamedCurve('chain', 3)", []),
    "DerivedCurve": (
        DerivedCurve(chain_curve(1), _C2),
        {"base": chain_curve(1), "conjugator": _C2},
        DerivedCurve(chain_curve(1), _C2.inverse()),
        f"DerivedCurve(base=NamedCurve('chain', 1), conjugator={_WORD})",
        []),
    "FramedBraid": (
        FramedBraid(BraidWord(3, [(1, 1)]), (0, 1, 2)),
        {"underlying": BraidWord(3, [(1, 1)]), "framings": (0, 1, 2)},
        FramedBraid(BraidWord(3, [(1, 1)]), (0, 1, 3)),
        "FramedBraid(underlying=BraidWord(3; 1 letters), framings=(0, 1, 2))",
        [(lambda: FramedBraid(BraidWord(3), (0, 0)),
          "framing vector length must equal strand count")]),
    "PositiveFactorization": (
        PositiveFactorization(_C2, None, "d", ("x",)),
        {"word": _C2, "skeleton": None, "description": "d",
         "provenance": ("x",)},
        PositiveFactorization(_C2, None, "e", ("x",)),
        f"PositiveFactorization(word={_WORD}, skeleton=None, "
        "description='d', provenance=('x',))",
        [(lambda: PositiveFactorization(_C2.inverse(), None, "d", ("x",)),
          "factorization letters must all be positive"),
         (lambda: PositiveFactorization(_C2, None, "d", ()),
          "one provenance note per letter")]),
}


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_value_type_semantics(name):
    """Each value type hashes, compares, refuses assignment, copies, prints
    and validates as the frozen dataclass it replaced did: the types key
    dicts and sets, and ContextMismatch messages print the reprs."""
    x, fields, other, text, bad = _VALUES[name]
    cls = type(x)
    assert cls.__name__ == name
    values = tuple(fields.values())
    twin = cls(**fields)
    assert x == twin and hash(x) == hash(twin) == hash(values)
    assert x != other and {x: 1, twin: 2} == {x: 2}
    assert x != values and x != values[0]
    assert SurfaceLayout(0) != SurfaceModel(11, 2, SurfaceLayout(0))
    for attr in fields:
        with pytest.raises(AttributeError):
            setattr(x, attr, getattr(other, attr))
        with pytest.raises(AttributeError):
            delattr(x, attr)
    assert x == twin and copy.copy(x) == x
    assert repr(x) == text
    for make, message in bad:
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


_LAYOUT = SurfaceLayout(0)
_WORDS = {
    "BraidWord": BraidWord(3, [(1, 1)]),
    "TwistWord": compose(_C2, twist(_S3, DerivedCurve(chain_curve(1), _C2),
                                    -1)),
    "SwapWord": rho(_LAYOUT, 1, 2).conjugate_letters(rho(_LAYOUT, 2, 3)),
    "DerivedCurve": DerivedCurve(chain_curve(1), _C2),
    "PositiveFactorization": PositiveFactorization(_C2, None, "d", ("x",)),
}


@pytest.mark.parametrize("name", sorted(_WORDS))
def test_words_copy_and_pickle(name):
    """Words refuse assignment, so copy and pickle must rebuild them
    through __init__; so must every value type that holds one."""
    x = _WORDS[name]
    assert type(x).__name__ == name
    for twin in (copy.copy(x), copy.deepcopy(x),
                 pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x) and twin == x
        assert hash(twin) == hash(x)
    if isinstance(x, Word):
        letters = x.letters
        for attr in ("context", "letters"):
            with pytest.raises(AttributeError):
                setattr(x, attr, None)
            with pytest.raises(AttributeError):
                delattr(x, attr)
        assert x.letters == letters and x == copy.copy(x)


def test_only_value_writes_the_record_protocol():
    """words.Value is the one copy of the immutable-record protocol: no
    other class of the package defines its refusing or rebuilding methods,
    and no other module writes a slot past __setattr__."""
    for info in pkgutil.iter_modules(swapfact.__path__):
        module = importlib.import_module(f"swapfact.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and cls is not Value):
                for method in ("__setattr__", "__delattr__", "__reduce__"):
                    assert method not in vars(cls), (cls, method)
        if info.name != "words":
            with open(module.__file__, encoding="utf-8") as fh:
                assert "object.__setattr__" not in fh.read(), module


# ---------------------------------------------------------------------------
# Letter classes and actions against the from-scratch resolver
# ---------------------------------------------------------------------------

def _word(family, k, m=0):
    """The extension to genus k, or the boundary factorization at l = k."""
    if family == "extend":
        return extend_to_genus(k, boundary_multitwist_factorization(0)).word
    return boundary_multitwist_factorization(m, k).word


def _resolver(word):
    return ClassResolver(word.surface.genus, word.surface.layout.l)


class TestClassResolution:
    @pytest.mark.parametrize("family, k, m", [
        ("extend", 12, 0), ("extend", 14, 0),
        *[("boundary", l, m) for l in (0, 1, 2) for m in (0, 1)]])
    def test_letter_classes_match_the_oracle(self, family, k, m):
        word = _word(family, k, m)
        parsed = parse(print_document(Document("twist", word))).value
        resolve = _resolver(word)
        expected = [resolve(c) for c, _ in word.letters]
        for w in (word, parsed):
            calc = HomologyCalculator(w.surface)
            assert [calc.curve_class(c) for c, _ in w.letters] == expected

    @pytest.mark.parametrize("family, k, m", [("extend", 12, 0),
                                              ("boundary", 1, 1)])
    def test_action_matches_oracle_columns(self, family, k, m):
        word = _word(family, k, m)
        resolve = _resolver(word)
        columns = [resolve.apply(word.letters, resolve.unit(j))
                   for j in range(1, resolve.rank + 1)]
        calc = HomologyCalculator(word.surface)
        assert calc.homology_action(word) == tuple(zip(*columns))

    def test_class_resolution_steps_per_letter_stay_flat(self, monkeypatch):
        # The extension's conjugators are prefixes of the 552-letter chain
        # word (t_1 ... t_23)^24.  Applied from scratch, each distinct one
        # cost its whole length: 272 class lookups per appended letter at
        # genus 12, and 118 at genus 20, where repeated blocks hit the memo.
        calls = 0
        curve_class = HomologyCalculator.curve_class

        def counted(self, curve):
            nonlocal calls
            calls += 1
            return curve_class(self, curve)

        monkeypatch.setattr(HomologyCalculator, "curve_class", counted)
        base = boundary_multitwist_factorization(0)
        per_letter = []
        for genus in (12, 16, 20):
            fact = extend_to_genus(genus, base)
            added = [c for (c, _), note in zip(fact.word.letters,
                                               fact.provenance)
                     if note.startswith("appended chain letter")]
            calc = HomologyCalculator(fact.word.surface)
            calls = 0
            for curve in added:
                calc.curve_class(curve)
            # each chain-word letter is stepped over once in all, beside
            # a letter's own lookup and its base's
            assert calls <= 23 * 24 + 2 * len(added)
            per_letter.append(calls / len(added))
        assert per_letter == sorted(per_letter, reverse=True), per_letter

    def test_boundary_lookups_per_letter_stay_low(self, monkeypatch):
        # The boundary words' conjugators share long prefixes but rarely
        # extend one another.  Applied from scratch, they cost 26, 37 and
        # 36 class lookups per letter at (l, m) = (0, 0), (1, 1), (2, 20);
        # walking the prefix state to each costs about 10.
        calls = 0
        curve_class = HomologyCalculator.curve_class

        def counted(self, curve):
            nonlocal calls
            calls += 1
            return curve_class(self, curve)

        monkeypatch.setattr(HomologyCalculator, "curve_class", counted)
        for l, m in ((0, 0), (1, 1), (2, 20)):
            word = boundary_multitwist_factorization(m, l).word
            calc = HomologyCalculator(word.surface)
            calls = 0
            for curve, _ in word.letters:
                calc.curve_class(curve)
            assert calls <= 18 * len(word), (l, m, calls)

    def test_one_covector_per_distinct_class(self, monkeypatch):
        # Each transvection reads the calculator's sparse table.  Computing
        # the covector at every letter stepped over made 2,748 calls over
        # 71 distinct classes for the 352 letters of (l, m) = (2, 20).
        seen = []
        covector = SurfaceModel.covector

        def counted(self, v):
            seen.append(tuple(v))
            return covector(self, v)

        word = boundary_multitwist_factorization(20, 2).word
        calc = HomologyCalculator(word.surface)
        monkeypatch.setattr(SurfaceModel, "covector", counted)
        for curve, _ in word.letters:
            calc.curve_class(curve)
        assert 0 < len(seen) == len(set(seen)) <= 100

    def test_failed_advance_leaves_a_usable_state(self, genus2):
        s, calc = genus2
        bad = TwistWord(s, [(chain_curve(1), 1), (chain_curve(9), 1)])
        with pytest.raises(UnknownCurve):
            calc.curve_class(DerivedCurve(chain_curve(2), bad))
        good = chain_word(s, [1, 2, 3])
        resolve = ClassResolver(2)
        for k in (1, 2, 3):
            curve = DerivedCurve(chain_curve(k), good)
            assert calc.curve_class(curve) == resolve(curve)


_NAMES = [NamedCurve(("chain", k)) for k in range(1, 8)] + [
    NamedCurve(("dcurve", 1)), NamedCurve(("dcurve", 2))]


@st.composite
def prefix_curves(draw):
    """Derived curves over prefixes of one word P, shortest first.  Letters
    of P may themselves be derived curves over earlier prefixes of P, so
    advancing the prefix state meets curves that would advance it too."""
    s = SurfaceModel(3, 2)
    letters = []
    for i in range(draw(st.integers(1, 14))):
        curve = draw(st.sampled_from(_NAMES))
        if i and draw(st.booleans()):
            curve = DerivedCurve(curve, TwistWord(
                s, letters[:draw(st.integers(0, i))]))
        letters.append((curve, draw(st.sampled_from((1, -1)))))
    cuts = sorted(draw(st.lists(st.integers(0, len(letters)),
                                min_size=1, max_size=8)))
    return [DerivedCurve(draw(st.sampled_from(_NAMES)),
                         TwistWord(s, letters[:c])) for c in cuts]


class TestNestedPrefixes:
    @settings(max_examples=150, deadline=None)
    @given(prefix_curves())
    def test_extending_conjugators(self, curves):
        calc, resolve = HomologyCalculator(SurfaceModel(3, 2)), ClassResolver(3)
        assert [calc.curve_class(c) for c in curves] == \
            [resolve(c) for c in curves]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_resolution_order(self, data):
        curves = data.draw(prefix_curves())
        shuffled = data.draw(st.permutations(curves))
        calc, resolve = HomologyCalculator(SurfaceModel(3, 2)), ClassResolver(3)
        assert [calc.curve_class(c) for c in shuffled] == \
            [resolve(c) for c in shuffled]


@st.composite
def sibling_curves(draw):
    """Derived curves over a shared prefix P and diverging tails: P . x,
    P . y, ... cut at random lengths.  Letters of P and of the tails may
    be derived curves over earlier prefixes of P or of their own branch,
    so walking the prefix state between siblings meets curves that walk
    it too."""
    s = SurfaceModel(3, 2)

    def grow(letters, k):
        for _ in range(k):
            curve = draw(st.sampled_from(_NAMES))
            if letters and draw(st.booleans()):
                curve = DerivedCurve(curve, TwistWord(
                    s, letters[:draw(st.integers(0, len(letters)))]))
            letters.append((curve, draw(st.sampled_from((1, -1)))))
        return letters

    prefix = grow([], draw(st.integers(0, 10)))
    curves = []
    for _ in range(draw(st.integers(1, 4))):
        branch = grow(list(prefix), draw(st.integers(1, 8)))
        for cut in draw(st.lists(st.integers(0, len(branch)), min_size=1,
                                 max_size=3)):
            curves.append(DerivedCurve(draw(st.sampled_from(_NAMES)),
                                       TwistWord(s, branch[:cut])))
    return draw(st.permutations(curves))


class TestSiblingConjugators:
    @settings(max_examples=200, deadline=None)
    @given(sibling_curves())
    def test_siblings_in_any_order(self, curves):
        calc, resolve = HomologyCalculator(SurfaceModel(3, 2)), ClassResolver(3)
        assert [calc.curve_class(c) for c in curves] == \
            [resolve(c) for c in curves]
