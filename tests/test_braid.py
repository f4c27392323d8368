import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from swapfact import braid
from swapfact.braid import (BraidWord, GarsideNormalForm, StrandMismatch,
                            _act_padded, _padded_base, band,
                            block_half_twist, compose, dynnikov_equal, equal,
                            full_twist, half_twist, normal_form)
from swapfact.cli import main
from swapfact.dsl import Document, print_document

from braid_ints import to_ints


def W(n, *ints):
    return BraidWord.from_ints(n, ints)


def nf_is_trivial(nf):
    return nf.infimum == 0 and not nf.factors


def nf_word(nf):
    """The normal form expanded back to a braid word."""
    n = nf.strands
    return compose(half_twist(n).power(nf.infimum), *[
        BraidWord.from_ints(n, perm_word(f)) for f in nf.factors])


def perm_word(p):
    """A reduced word for the permutation braid of p (bubble sort)."""
    out = []
    q = list(p)
    changed = True
    while changed:
        changed = False
        for i in range(len(q) - 1):
            if q[i] > q[i + 1]:
                q[i], q[i + 1] = q[i + 1], q[i]
                out.append(i + 1)
                changed = True
    # out sorts q to identity; the braid word for p is out reversed
    return out[::-1]


def random_word(rng, n, length):
    return BraidWord.from_ints(
        n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
            for _ in range(length)])


class TestWordAlgebra:
    def test_compose_concatenates(self):
        w = compose(W(3, 1), W(3, 2))
        assert to_ints(w) == (1, 2)

    def test_compose_identity(self):
        w = W(4, 1, -2, 3)
        assert to_ints(compose(w, BraidWord(4))) == to_ints(w)

    def test_compose_strand_mismatch(self):
        with pytest.raises(StrandMismatch):
            compose(W(3, 1), W(4, 1))

    def test_inverse_antihomomorphism(self):
        assert to_ints(W(3, 1, 2).inverse()) == (-2, -1)

    def test_inverse_involution(self):
        w = W(5, 3, -1, 4)
        assert to_ints(w.inverse().inverse()) == to_ints(w)

    def test_inverse_pair_trivial(self):
        assert nf_is_trivial(normal_form(compose(W(3, -1), W(3, 1))))

    def test_permutation_tracks_strands(self):
        # b1 exchanges strands 1 and 2 (0-based 0 and 1)
        assert W(3, 1).permutation() == (1, 0, 2)

    def test_band_definition(self):
        b = band(1, W(4, 2))
        assert to_ints(b) == (2, 1, -2)

    def test_band_exponent_sum(self):
        rng = random.Random(5)
        for _ in range(20):
            conj = random_word(rng, 5, rng.randint(0, 10))
            assert band(rng.randint(1, 4), conj).exponent_sum() == 1


class TestGarside:
    def test_half_twist_lengths(self):
        assert to_ints(W(2, 1)) == to_ints(half_twist(2))
        assert to_ints(half_twist(3)) == (1, 2, 1)
        assert len(half_twist(4)) == 6

    def test_half_twist_requires_two_strands(self):
        with pytest.raises(ValueError):
            half_twist(1)

    def test_trivial_word(self):
        assert nf_is_trivial(normal_form(W(3, 1, -1)))

    def test_artin_relation_same_form(self):
        assert normal_form(W(3, 1, 2, 1)) == normal_form(W(3, 2, 1, 2))

    def test_half_twist_is_delta(self):
        nf = normal_form(half_twist(3))
        assert nf.infimum == 1 and nf.factors == ()

    def test_far_commutation(self):
        assert equal(W(4, 1, 3), W(4, 3, 1))

    def test_distinct_generators(self):
        assert not equal(W(3, 1), W(3, 2))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_delta_conjugation_reverses(self, n):
        d = half_twist(n)
        for i in range(1, n):
            lhs = compose(d, W(n, i), d.inverse())
            assert equal(lhs, W(n, n - i))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_full_twist_central(self, n):
        ft = full_twist(n)
        for i in range(1, n):
            assert equal(compose(ft, W(n, i)), compose(W(n, i), ft))

    def test_full_twist_conjugation_invariant(self):
        ft = full_twist(4)
        for i in range(1, 4):
            w = compose(W(4, i), ft, W(4, -i))
            assert equal(ft, w)

    def test_normal_form_idempotent(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 7)
            w = random_word(rng, n, rng.randint(0, 30))
            nf = normal_form(w)
            assert normal_form(nf_word(nf)) == nf

    def test_equal_is_congruence(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(3, 6)
            a = random_word(rng, n, 10)
            b = compose(a, W(n, 2, -2))
            c = random_word(rng, n, 6)
            assert equal(a, b)
            assert equal(compose(c, a), compose(c, b))
            assert equal(compose(a, c), compose(b, c))

    def test_exponent_sum_invariant(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(3, 6)
            w = random_word(rng, n, rng.randint(0, 20))
            assert w.exponent_sum() == nf_word(normal_form(w)).exponent_sum()

    def test_left_weight_calls_per_letter_stay_flat(self, monkeypatch):
        # Each Delta the factors assemble forms at the right end.  Carried
        # back through every factor, it made these mixed-sign B_4 words
        # cost 105 calls per letter at 2,000 letters and 365 at 8,000; they
        # cost about 1.0 at both, and 2.0 before far-commuting inverse
        # letters were cancelled first.
        per_letter = left_weight_calls_per_letter(
            monkeypatch, seeded_words(4, (2000, 8000)))
        assert per_letter[1] < 1.25 * per_letter[0], per_letter

    def test_left_weight_calls_per_letter_stay_flat_in_b24(self,
                                                           monkeypatch):
        # Wide simple factors: these words make about 3.7 calls per letter
        # at 1,000 letters and 4.5 at 4,000 (5.8 and 6.9 before far
        # cancellation); a pass quadratic in the number of factors would
        # multiply the ratio several times.
        per_letter = left_weight_calls_per_letter(
            monkeypatch, seeded_words(24, (1000, 4000)))
        assert per_letter[1] < 1.5 * per_letter[0], per_letter

    def test_far_cancellation_empties_long_one_sign_runs(self, monkeypatch):
        # b1^K (b3 b5 ... b39)^M b1^-K: each negative b1 is a run of its own
        # whose Delta^-1 walks back through the K positive factors.  The
        # middle commutes with b1, so the b1 letters cancel and only its M
        # factors are left, one call each.  At n = 100, K = 100,000 and
        # M = 2,000 the normal form did not finish within 60 s before far
        # cancellation, and takes under a second with it.
        n, k, m = 40, 5000, 500
        middle = list(range(3, n, 2)) * m
        word = W(n, *[1] * k, *middle, *[-1] * k)
        assert len(word) == 19_500
        assert normal_form(word) == normal_form(W(n, *middle))
        per_letter, = left_weight_calls_per_letter(monkeypatch, [word])
        assert per_letter < 1, per_letter


def seeded_words(n, lengths):
    """A seeded mixed-sign word in B_n of each length."""
    return [random_word(random.Random(length), n, length)
            for length in lengths]


def counted_left_weight_calls(monkeypatch):
    """A list that gains one entry per braid._left_weight call from now
    on."""
    calls = []
    left_weight = braid._left_weight

    def counted(a, b):
        calls.append(None)
        return left_weight(a, b)

    monkeypatch.setattr(braid, "_left_weight", counted)
    return calls


def left_weight_calls_per_letter(monkeypatch, words):
    """Calls to braid._left_weight per input letter while normal_form
    reads each word."""
    calls = counted_left_weight_calls(monkeypatch)
    per_letter = []
    for w in words:
        calls.clear()
        normal_form(w)
        per_letter.append(len(calls) / len(w))
    return per_letter


def far_reduced(letters):
    """Whether no b_i^s ... b_i^-s is left whose letters between all
    commute with b_i: a quadratic scan from each letter to the first letter
    it does not commute with."""
    for p, (i, s) in enumerate(letters):
        for j, t in letters[p + 1:]:
            if abs(i - j) < 2:
                if (j, t) == (i, -s):
                    return False
                break
    return True


def far_conjugates(n):
    """Words of up to 200 letters with u v u^-1 pieces, v in generators
    far from u's last letter, between random signed letters."""
    def conjugate(u, i, v):
        u = u + [i]
        return u + [x for x in v if abs(abs(x) - abs(i)) >= 2] + [
            -x for x in reversed(u)]

    piece = st.one_of(
        signed_letters(n, max_size=20),
        st.builds(conjugate, signed_letters(n, max_size=10),
                  st.integers(1, n - 1).flatmap(
                      lambda i: st.sampled_from([i, -i])),
                  signed_letters(n, max_size=20)))
    return st.lists(piece, max_size=6).map(
        lambda ps: [x for p in ps for x in p][:200])


class TestCancelFar:
    """braid._cancel_far, the pass in front of normal_form's runs."""

    @staticmethod
    def draw(data):
        n = data.draw(st.integers(2, 30))
        ints = data.draw(st.one_of(far_conjugates(n),
                                   signed_letters(n, max_size=200)))
        w = BraidWord.from_ints(n, ints)
        return w, BraidWord(n, braid._cancel_far(w.letters, n))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_keeps_the_braid(self, data):
        w, v = self.draw(data)
        assert v.exponent_sum() == w.exponent_sum()
        assert v.permutation() == w.permutation()
        if w.strands >= 3:
            assert dynnikov_equal(v, w)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_leaves_no_far_inverse_pair(self, data):
        _, v = self.draw(data)
        assert far_reduced(v.letters)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_second_pass_changes_nothing(self, data):
        _, v = self.draw(data)
        assert braid._cancel_far(v.letters, v.strands) == list(v.letters)

    def test_cancels_behind_far_letters_only(self):
        def cancel(n, *ints):
            w = W(n, *ints)
            return to_ints(BraidWord(n, braid._cancel_far(w.letters, n)))

        assert cancel(5, 1, 3, 4, -3, -1) == (3, 4, -3)
        assert cancel(5, 1, 3, 4, -4, -3, -1) == ()
        assert cancel(5, 1, 2, 3, -3, -1) == (1, 2, -1)
        assert cancel(5, 2, 4, -2, 1) == (4, 1)
        assert cancel(5, 2, 1, -2) == (2, 1, -2)
        assert cancel(3, 1, 1, -1, 2, -1) == (1, 2, -1)


def descents(p):
    """1-based i with p[i-1] > p[i]."""
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def signed_letters(n, max_size=60):
    return st.lists(st.integers(1, n - 1).flatmap(
        lambda i: st.sampled_from([i, -i])), max_size=max_size)


def delta_heavy_letters(n):
    """Words that form many Deltas: short signed runs interleaved with
    runs of Delta^+-1, or negative letters only."""
    delta = to_ints(half_twist(n))
    runs = st.one_of(
        signed_letters(n, max_size=8),
        st.integers(-3, 3).map(
            lambda k: delta * k if k > 0 else [-x for x in delta[::-1]] * -k))
    return st.one_of(
        st.lists(runs, max_size=6).map(lambda rs: [x for r in rs for x in r]),
        st.lists(st.integers(1, n - 1).map(lambda i: -i), max_size=60))


def run_heavy_letters(n):
    """Words of long runs of one sign: block half twists of either sign
    (runs whose positive part is simple), squares b_i^+-2 (a run stops
    being simple), and Delta^+-k."""
    def block(lo, size, sign):
        w = block_half_twist(n, lo, min(lo + size, n))
        return list(to_ints(w if sign > 0 else w.inverse()))

    delta = half_twist(n)
    pieces = st.one_of(
        st.builds(block, st.integers(1, n - 1), st.integers(1, n - 1),
                  st.sampled_from([1, -1])),
        st.integers(1, n - 1).flatmap(
            lambda i: st.sampled_from([[i, i], [-i, -i]])),
        st.integers(-2, 2).map(lambda k: list(to_ints(delta.power(k)))))
    return st.lists(pieces, max_size=8).map(
        lambda ps: [x for p in ps for x in p])


def assert_canonical(w, v):
    """w's normal form is a left-weighted Delta^p A_1 ... A_k that spells
    w, and equal agrees with the independent oracle on (w, v)."""
    n = w.strands
    nf = normal_form(w)
    assert tuple(range(n)) not in nf.factors
    assert tuple(range(n - 1, -1, -1)) not in nf.factors
    for a, b in zip(nf.factors, nf.factors[1:]):
        # S(b) = descents of b^-1 must lie in F(a) = descents of a
        assert descents(inverse(b)) <= descents(a)
    assert normal_form(nf_word(nf)) == nf
    assert dynnikov_equal(nf_word(nf), w)
    assert equal(w, v) == dynnikov_equal(w, v)


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_normal_form_is_canonical(self, data):
        n = data.draw(st.integers(3, 10))
        assert_canonical(BraidWord.from_ints(n, data.draw(signed_letters(n))),
                         BraidWord.from_ints(n, data.draw(signed_letters(n))))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_delta_heavy_words_are_canonical(self, data):
        n = data.draw(st.integers(3, 8))
        letters = delta_heavy_letters(n)
        assert_canonical(BraidWord.from_ints(n, data.draw(letters)),
                         BraidWord.from_ints(n, data.draw(letters)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_run_heavy_words_are_canonical(self, data):
        n = data.draw(st.integers(3, 10))
        letters = run_heavy_letters(n)
        assert_canonical(BraidWord.from_ints(n, data.draw(letters)),
                         BraidWord.from_ints(n, data.draw(letters)))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_two_strands(self, data):
        # B_2 is Z on b1 = Delta, so the normal form is Delta^(exponent
        # sum); the Dynnikov oracle needs n >= 3.
        w = BraidWord.from_ints(2, data.draw(signed_letters(2)))
        v = BraidWord.from_ints(2, data.draw(signed_letters(2)))
        assert normal_form(w) == GarsideNormalForm(2, w.exponent_sum(), ())
        assert equal(w, v) == (w.exponent_sum() == v.exponent_sum())

    def test_two_strand_delta_times_inverse_is_trivial(self):
        # Delta b1^-1 is the identity simple in B_2
        assert nf_is_trivial(normal_form(compose(half_twist(2), W(2, -1))))
        assert normal_form(W(2, -1, 1, 1)) == GarsideNormalForm(2, 1, ())

    # sha256 of `swapfact nf` stdout for seeded 800-letter words: the printed
    # normal form is canonical and must stay byte-identical.
    @pytest.mark.parametrize("n, seed, digest", [
        (24, 7, "328c582f363f9b34611bf7bd684508b8"
                "e1e19524f039837353c941496b85d9ca"),
        (8, 3, "1c4f9d938715ceb1c2a9d22e0e527b3c"
               "e0f5a3aa607500193eed97a99319cb09"),
    ], ids=["B24", "B8"])
    def test_nf_output_is_pinned(self, tmp_path, capsys, n, seed, digest):
        path = tmp_path / "w.braid"
        w = random_word(random.Random(seed), n, 800)
        path.write_text(print_document(Document("braid", w)))
        assert main(["nf", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDynnikov:
    def test_action_inverse(self):
        base = _padded_base(5)
        moved = _act_padded(W(5, 2, 3, -1), base)
        assert _act_padded(W(5, 2, 3, -1).inverse(), moved) == base

    def test_braid_relations_on_orbit(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(3, 8)
            pre = random_word(rng, n, rng.randint(0, 10))
            pairs = _act_padded(pre, _padded_base(n))
            i = rng.randint(1, n - 2) if n > 3 else 1
            assert (_act_padded(W(n, i, i + 1, i), pairs)
                    == _act_padded(W(n, i + 1, i, i + 1), pairs))

    def test_oracle_detects_central_powers(self):
        for n in (3, 4, 5):
            assert not dynnikov_equal(full_twist(n), BraidWord(n))
            assert not dynnikov_equal(full_twist(n).power(2), BraidWord(n))

    def test_free_reduction_pair(self):
        rng = random.Random(29)
        w = random_word(rng, 5, 15)
        assert dynnikov_equal(w, compose(w, W(5, 2, -2)))

    def test_exponent_sum_filter(self):
        assert not dynnikov_equal(W(3, 1), W(3, 1, 1, 1))

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_oracle_sees_twists_that_fix_one_probe(self, n):
        # b_i^{n(n-1)} times the inverse full twist has exponent sum 0 and
        # fixes the round curve about punctures i, i+1; an oracle with too
        # few probes called it trivial (for n = 3 a hypothesis draw met
        # b_1^-5 against b_2^-1 b_1^-2 b_2^-1 b_1^-1)
        for i in range(1, n):
            w = compose(BraidWord.from_ints(n, [i] * (n * (n - 1))),
                        full_twist(n).inverse())
            assert not equal(w, BraidWord(n))
            assert not dynnikov_equal(w, BraidWord(n))
        assert not dynnikov_equal(W(3, -1, -1, -1, -1, -1),
                                  W(3, -2, -1, -1, -2, -1))


class TestOracleAgreement:
    def test_oracles_agree_on_random_pairs(self):
        rng = random.Random(37)
        for _ in range(300):
            n = rng.randint(3, 8)
            w1 = random_word(rng, n, rng.randint(0, 40))
            w2 = random_word(rng, n, rng.randint(0, 40))
            assert equal(w1, w2) == dynnikov_equal(w1, w2)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rewritten_words_stay_equal(self, data):
        n = data.draw(st.integers(3, 7))
        ints = data.draw(st.lists(
            st.integers(1, n - 1).flatmap(
                lambda i: st.sampled_from([i, -i])), max_size=20))
        w1 = BraidWord.from_ints(n, ints)
        # insert braid relators at a random point
        i = data.draw(st.integers(1, n - 2))
        pos = data.draw(st.integers(0, len(ints)))
        relator = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
        w2 = BraidWord.from_ints(n, ints[:pos] + relator + ints[pos:])
        assert equal(w1, w2)
        assert dynnikov_equal(w1, w2)


def relator(rng, n):
    """A word equal to the identity in B_n, n >= 3: a free cancellation, a
    braid relation or a far commutation."""
    kind = rng.randrange(3)
    if kind == 0:
        i = rng.randrange(1, n)
        return [i, -i] if rng.random() < 0.5 else [-i, i]
    i = rng.randrange(1, n - 1)
    far = [j for j in range(1, n) if abs(j - i) >= 2]
    if kind == 1 or not far:
        return [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    j = rng.choice(far)
    return [i, j, -i, -j]


def spelling(rng, n, base, extra):
    """base with relators inserted at random places until it has grown by
    at least extra letters."""
    out = list(base)
    while len(out) < len(base) + extra:
        pos = rng.randrange(len(out) + 1)
        out[pos:pos] = relator(rng, n)
    return out


def seeded_pair(rng, n, length, same):
    """Two spellings of one seeded base word, each with relators inserted;
    unless same, one of them also holds the pure commutator
    [b_i^2, b_(i+1)^2], which keeps exponent sum and permutation."""
    base = to_ints(random_word(rng, n, length))
    a, b = spelling(rng, n, base, 20), spelling(rng, n, base, 20)
    if not same:
        i = rng.randrange(1, n - 1)
        pos = rng.randrange(len(b) + 1)
        b[pos:pos] = [i, i, i + 1, i + 1, -i, -i, -(i + 1), -(i + 1)]
    return BraidWord.from_ints(n, a), BraidWord.from_ints(n, b)


class TestEqualFromOneNormalForm:
    """equal(w1, w2) reads one normal form, of w1^-1 w2."""

    @pytest.mark.parametrize("n", [4, 8, 16, 24])
    def test_agrees_with_both_normal_forms_and_the_oracle(self, n):
        rng = random.Random(3200 + n)
        for same in (True, False, True, False):
            a, b = seeded_pair(rng, n, 200, same)
            assert equal(a, b) == same
            assert (normal_form(a) == normal_form(b)) == same
            assert dynnikov_equal(a, b) == same

    def test_a_shared_spelling_costs_no_left_weighting(self, monkeypatch):
        # the letters of w^-1 w cancel at the junction, each against its
        # inverse, before any run is cut.  The two normal forms of w cost
        # 2,251 calls per letter each, 72 million in all
        calls = counted_left_weight_calls(monkeypatch)
        w = W(4, *([1] * 1000 + [-2] * 1000) * 8)
        assert equal(w, w)
        assert equal(w, compose(w, W(4, 1, -1)))
        assert not calls


class TestLeftWeightKernel:
    """braid._left_weight against the insertion sort it was written from."""

    @pytest.mark.parametrize("n", range(2, 25))
    def test_matches_the_reference(self, n):
        from left_weight_reference import left_weight

        rng = random.Random(n)
        ident = list(range(n))
        for _ in range(150):
            pair = []
            for _ in range(2):
                # a uniform simple factor, or one a few crossings away
                # from the identity or from Delta, where pairs are more
                # often left-weighted already
                p = ident[:] if rng.random() < 0.5 else ident[::-1]
                if rng.random() < 0.4:
                    rng.shuffle(p)
                else:
                    for _ in range(rng.randrange(n)):
                        i = rng.randrange(n - 1)
                        p[i], p[i + 1] = p[i + 1], p[i]
                pair.append(p)
            a, b = pair
            ra, rb = a[:], b[:]
            assert braid._left_weight(a, b) == left_weight(ra, rb)
            assert (a, b) == (ra, rb)


class TestAgainstLaminationEngine:
    """The PL update rules were derived from this taut-curve model; keep
    them pinned to it."""

    def test_padded_action_matches_engine(self):
        from lamination_oracle import Lamination, laminar_family, round_curve

        rng = random.Random(424)
        for _ in range(150):
            n = rng.randint(3, 7)
            comps = []
            for (lo, hi) in laminar_family(rng, n):
                comps.extend([round_curve(lo + 1, hi + 1)]
                             * rng.randint(1, 2))
            if not comps:
                comps = [round_curve(2, k + 2) for k in range(1, n - 1)]
            lam = Lamination(n + 2, comps)
            w = [rng.choice([1, -1]) * rng.randint(1, n - 1)
                 for _ in range(rng.randint(1, 15))]
            truth = lam.act([g + (1 if g > 0 else -1) for g in w]).dynnikov()
            pairs = [tuple(lam.dynnikov()[2 * k: 2 * k + 2])
                     for k in range(n)]
            got = _act_padded(BraidWord.from_ints(n, w), pairs)
            assert tuple(x for p in got for x in p) == truth

    def test_base_state_coordinates_match_engine(self):
        from lamination_oracle import Lamination, round_curve

        for n in range(3, 8):
            comps = []
            for k in range(1, n - 1):
                comps.extend([round_curve(2, k + 2)] * k)
            truth = Lamination(n + 2, comps).dynnikov()
            assert tuple(x for p in _padded_base(n) for x in p) == truth
