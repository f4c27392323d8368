import contextlib
import hashlib
import io
import os
import random
import re
import resource
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from swapfact import cli, dsl
from swapfact.braid import BraidWord
from swapfact.cli import MAX_GENUS, main
from swapfact.constructions import (boundary_multitwist_factorization,
                                    extend_to_genus)
from swapfact.dsl import (MAX_HEADER, MAX_LETTERS, MAX_NESTING, MAX_POWER,
                          Document, ParseError, _tokenize, parse,
                          print_document)
from swapfact.framed import FramedBraid
from swapfact.surface import (MAX_LAYOUT, DerivedCurve, HomologyCalculator,
                              SurfaceLayout)

from braid_ints import to_ints


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def inline_text(word) -> str:
    """The word's @twist document in the inline format, which writes each
    conjugator out in full at every letter that uses it."""
    s = word.surface
    head = f"@twist g={s.genus} s={s.boundary}" + (
        f" l={s.layout.l}" if s.layout else "")
    tokens = dsl._print_twist_tokens(word, dsl._inline)
    return head + "\n" + dsl._wrap(tokens) + "\n"


def traced_parse(text):
    """(peak, kept): the traced peak while parsing text, and what the
    parsed document keeps."""
    tracemalloc.start()
    try:
        doc = parse(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, kept


def twist_letters(curves, depth):
    """Printed twist letters over curves, img(...) nested at most depth
    deep."""
    letter = st.sampled_from(curves)
    if depth:
        letter = st.one_of(letter, st.builds(
            lambda body, base: f"img({' '.join(body)}; {base})",
            st.lists(twist_letters(curves, depth - 1), min_size=1,
                     max_size=4),
            st.sampled_from(curves)))
    return st.builds(lambda t, inverse: t + "^-1" * inverse, letter,
                     st.booleans())


_SUB_CURVES = ["c1", "c2", "c5", "d1", "d2", "delta1"]
_SWAP_LETTER = st.one_of(
    st.sampled_from(["rho(1,2)", "rho(2,4)^-1", "delta(1,3)", "M(1)",
                     "M(4)^-1", "Mb"]),
    st.builds(lambda body, i: f"sub({' '.join(body)}; F{i})",
              st.lists(twist_letters(_SUB_CURVES, 2), min_size=1, max_size=4),
              st.integers(1, 4)),
    st.builds(lambda pair, body: f"rhoA({pair};{' '.join(body)})",
              st.sampled_from(["1,2", "1,3", "2,4"]),
              st.lists(twist_letters(_SUB_CURVES, 2), min_size=1,
                       max_size=4)))
_WORDS = st.one_of(
    st.tuples(st.just("@twist g=11 s=2 l=0"), st.lists(twist_letters(
        ["c1", "c3", "d1", "delta1", "c(2,4)", "d(1,1)", "bd(F3)",
         "bd(F2,2)"], 3), max_size=8)),
    st.tuples(st.just("@swap l=0"), st.lists(_SWAP_LETTER, max_size=8)))


class TestDSL:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_parsing_ignores_whitespace(self, data):
        head, letters = data.draw(_WORDS)
        canonical = print_document(parse(head + "\n" + " ".join(letters)))
        head, body = canonical.split("\n", 1)
        # every separator, inside groups too, becomes spaces and newlines
        spaced = head + "\n" + "".join(
            t + data.draw(st.text(" \n", min_size=1, max_size=4))
            for t in body.split())
        assert parse(spaced) == parse(canonical)
        assert print_document(parse(spaced)) == canonical

    def test_parse_memory_is_linear_in_the_text(self):
        base = boundary_multitwist_factorization(0, seed=0)
        text = inline_text(extend_to_genus(14, base).word)
        peak, _ = traced_parse(text)
        # tokens are read as they come: no list holds the whole document
        assert peak < 10 * len(text)

    def test_parse_holds_no_copy_of_the_lines(self):
        text = inline_text(boundary_multitwist_factorization(0, 7, seed=0).word)
        peak, _ = traced_parse(text)
        # the parsed word keeps about 2.4 bytes per byte of text; holding
        # text.splitlines() for the whole parse made the peak 4.1 per byte
        assert peak < 3.5 * len(text)

    @pytest.mark.parametrize("build", [
        lambda: extend_to_genus(14, boundary_multitwist_factorization(0)),
        lambda: boundary_multitwist_factorization(0, 7)], ids=["g14", "l7"])
    def test_parse_peak_over_the_word_is_at_most_the_text(self, build):
        # the definition form is 11 to 17 times smaller than the inline
        # one, so the peak per byte of text is about 39; what the parse
        # holds beyond the word it keeps stays under the text's length
        text = print_document(Document("twist", build().word))
        peak, kept = traced_parse(text)
        assert peak - kept < len(text)

    # every line boundary str.splitlines recognises
    _LINE_ENDS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                  "\x85", "\u2028", "\u2029"]

    # \x1f and \xa0 are whitespace that ends no line
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(_LINE_ENDS + ["b1", "x", " ", "\t", "#",
                                                  "\x1f", "\xa0"]),
                    max_size=20))
    def test_tokens_keep_their_splitlines_positions(self, pieces):
        text = "".join(pieces)
        want = [(m.group(0), ln, m.start() + 1)
                for ln, line in enumerate(text.splitlines(), start=1)
                for m in re.finditer(r"\S+", line.split("#", 1)[0])]
        assert list(_tokenize(text)) == want

    @pytest.mark.parametrize("end", _LINE_ENDS)
    def test_parse_error_position_after_each_line_end(self, end):
        with pytest.raises(ParseError) as err:
            parse(f"@braid n=3{end}b1 # b9{end}{end}  b2 b7{end}")
        assert (err.value.line, err.value.column) == (4, 6)

    # an error inside a group is reported at its own token
    @pytest.mark.parametrize("text,position", [
        ("@twist g=2 s=2\nc1\n  img(c1 cx; c3)", (3, 10)),
        ("@swap l=0\nsub(c1\n  zz; F2)", (3, 3)),
        ("@swap l=0\nrhoA(1,2; c1 c2^x)", (2, 14)),
    ], ids=["img", "sub", "rhoA"])
    def test_error_inside_a_group_names_its_token(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == position

    # whitespace around a group's (, ; and ) is optional, and spaces and
    # tabs next to the ( , ; or ) of a token's indices read as absent
    @pytest.mark.parametrize("text,canonical", [
        ("@swap l=0\nsub(c1 c2; F2 )", "@swap l=0\nsub(c1 c2; F2)"),
        ("@swap l=0\nsub( c1 c2;F2)", "@swap l=0\nsub(c1 c2; F2)"),
        ("@twist g=2 s=2\nimg(c1;c2 )", "@twist g=2 s=2\nimg(c1; c2)"),
        ("@swap l=0\nrhoA(1,3; c1 c2^-1 )", "@swap l=0\nrhoA(1,3;c1 c2^-1)"),
        ("@swap l=0\nrhoA(1,3 ; c1)", "@swap l=0\nrhoA(1,3;c1)"),
        ("@swap l=0\nrhoA( 1,3; c1)", "@swap l=0\nrhoA(1,3;c1)"),
        ("@swap l=0\nrhoA(1, 3; c1)", "@swap l=0\nrhoA(1,3;c1)"),
        ("@swap l=0\nrhoA(\t1 ,\t3\t;c1)", "@swap l=0\nrhoA(1,3;c1)"),
        ("@swap l=0\nrho(1, 2)^-1 delta( 2,3 ) M(1 )",
         "@swap l=0\nrho(1,2)^-1 delta(2,3) M(1)"),
        ("@framed n=4\nrho(1, 2) delta(2 ,3)^2 M( 4)",
         "@framed n=4\nrho(1,2) delta(2,3)^2 M(4)"),
        ("@twist g=11 s=2 l=0\nc(2, 4)", "@twist g=11 s=2 l=0\nc(2,4)"),
        ("@twist g=11 s=2 l=0\nd( 1,1 )^-1 bd(F3 , 2) bd(\tF2)",
         "@twist g=11 s=2 l=0\nd(1,1)^-1 bd(F3,2) bd(F2)"),
        ("@twist g=11 s=2 l=0\nimg(c( 1,1) c2; c(2, 4))",
         "@twist g=11 s=2 l=0\nimg(c(1,1) c2; c(2,4))"),
    ], ids=["sub-close", "sub-open", "img", "rhoA", "rhoA-index-semicolon",
            "rhoA-index-open", "rhoA-index-comma", "rhoA-index-tabs",
            "swap-indices", "framed-indices", "subchain-index",
            "layout-curve-indices", "indices-in-img"])
    def test_space_inside_a_group_reads_the_same(self, text, canonical):
        assert parse(text) == parse(canonical)

    # a line end there stays a token boundary, and a blank between two
    # characters of an index stays in the token its error names
    @pytest.mark.parametrize("text,message", [
        ("@swap l=0\nrhoA(1,\n3; c1)", "2:1: unknown swap token 'rhoA'"),
        ("@twist g=11 s=2 l=0\nc(2,\n4)", "2:1: unknown curve token 'c'"),
        ("@swap l=0\nM(1 2)", "2:1: unknown swap token 'M(1 2)'"),
        ("@twist g=11 s=2 l=0\nc( 2,4) cx", "2:9: unknown curve token 'cx'"),
    ], ids=["rhoA-line-end", "subchain-line-end", "blank-inside-index",
            "column-after-spaced-index"])
    def test_index_parentheses_keep_line_ends_and_inner_blanks(self, text,
                                                               message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    # a 60 KB conjugator 1 and 100 groups deep, in each kind of group
    @pytest.mark.parametrize("wrap", [
        lambda body: "@twist g=2 s=2\nimg(" + body + "; c2)",
        lambda body: "@swap l=0\nsub(" + body + "; F2)",
        lambda body: "@swap l=0\nrhoA(1,3;" + body + ")",
    ], ids=["img", "sub", "rhoA"])
    def test_parse_memory_does_not_grow_with_depth(self, wrap):
        def text(depth):
            return wrap("img(" * (depth - 1) + "c1 c2 " * 10_000
                        + "; c2)" * (depth - 1))
        shallow, _ = traced_parse(text(1))
        deep, _ = traced_parse(text(MAX_NESTING))
        # each group's body was read again at every level: 49 times the
        # shallow peak at depth 100
        assert deep < 2 * shallow

    def test_braid_round_trip(self):
        d = parse("@braid n=3\nb1 b2 b1")
        assert isinstance(d.value, BraidWord)
        assert to_ints(d.value) == (1, 2, 1)
        assert parse(print_document(d)).value == d.value

    def test_phi_file(self):
        d = parse("@swap l=0\nrho(2,4) rho(1,3) rho(3,4) rho(2,3) rho(1,2)")
        kinds = [k for k, _ in d.value.letters]
        assert kinds == [("rho", 2, 4), ("rho", 1, 3), ("rho", 3, 4),
                         ("rho", 2, 3), ("rho", 1, 2)]

    def test_detached_suffix_errors(self):
        with pytest.raises(ParseError):
            parse("@braid n=3\nb1 ^-1")

    def test_comments_dropped(self):
        d = parse("@braid n=3\nb1 # a comment\nb2")
        assert to_ints(d.value) == (1, 2)
        assert "#" not in print_document(d)

    def test_powers(self):
        d = parse("@braid n=4\nb1^3 b2^-2")
        assert to_ints(d.value) == (1, 1, 1, -2, -2)

    def test_twist_tokens(self):
        text = ("@twist g=11 s=2 l=0\nc3 d1^-1 delta1 c(2,4) bd(F3) "
                "img(c1 c2; c3)")
        d = parse(text)
        assert len(d.value) == 6
        assert parse(print_document(d)).value == d.value

    def test_framed_evaluates(self):
        d = parse("@framed n=4\nrho(1,2) rho(1,2)")
        assert d.value.framings == (-1, -1, 0, 0)

    def test_framed_round_trip(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 6)
            ints = [rng.choice([1, -1]) * rng.randint(1, n - 1)
                    for _ in range(rng.randint(0, 12) if n > 1 else 0)]
            bound = rng.choice([3, 3 * MAX_POWER])
            x = FramedBraid(BraidWord.from_ints(n, ints),
                            tuple(rng.randint(-bound, bound) for _ in range(n)))
            # equality compares the underlying letters, not only the braid
            assert parse(print_document(Document("framed", x))).value == x

    def test_framed_printer_splits_large_powers(self):
        x = FramedBraid(BraidWord(2), (2 * MAX_POWER + 1, 0))
        text = print_document(Document("framed", x))
        assert text.split() == ["@framed", "n=2", f"M(1)^{MAX_POWER}",
                                f"M(1)^{MAX_POWER}", "M(1)"]

    def test_power_at_cap_expands(self):
        d = parse(f"@braid n=3\nb1^-{MAX_POWER}")
        assert to_ints(d.value) == (-1,) * MAX_POWER

    def test_twist_layout_round_trip(self):
        inline = ("@twist g=16 s=2 l=1\nc(2,4) d(1,2) bd(F3) bd(F2,2) c33 "
                  "delta2 d2 img(c(1,1); bd(F4))\n")
        text = ("@twist g=16 s=2 l=1\nV1 = c(1,1) ;\nc(2,4) d(1,2) bd(F3) "
                "bd(F2,2) c33 delta2 d2 img(V1; bd(F4))\n")
        d = parse(inline)
        assert d.value.surface.layout == SurfaceLayout(1)
        assert print_document(d) == text
        assert parse(text) == d
        # a plain surface has no layout curves
        with pytest.raises(ParseError, match=r"^2:1: .*l=<l> in the @twist"):
            parse("@twist g=16 s=2\nc(2,4)")

    @pytest.mark.parametrize("token", ["c", "c(1)", "c(1,2,3)", "bd(F)",
                                       "bd(F1,2,3)", "c{}", "c({},1)",
                                       "delta", "cx1", "d(1,)"])
    def test_unknown_curve_token(self, token):
        with pytest.raises(ParseError, match="unknown curve token"):
            parse(f"@twist g=11 s=2 l=0\n{token}")

    @pytest.mark.parametrize("text", ["@braid n=3 g=9\nb1",
                                      "@framed n=4 l=0\nMb",
                                      "@twist g=2 s=2 q=7\nc1",
                                      "@swap l=0 n=4\nMb"])
    def test_header_rejects_keys_its_kind_does_not_take(self, tmp_path,
                                                        capsys, text):
        with pytest.raises(ParseError, match="takes no"):
            parse(text)
        f = tmp_path / "w.txt"
        f.write_text(text + "\n")
        code, _, err = run(["verify", str(f), str(f)], capsys)
        assert code == 1 and "parse error" in err

    def test_header_is_read_from_its_line_only(self):
        assert to_ints(parse("@braid n=3 b1 b2").value) == (1, 2)
        with pytest.raises(ParseError, match="unknown braid token"):
            parse("@braid n=3\nn=4 b1")

    def test_rhoA(self):
        d = parse("@swap l=0\nrhoA(1,3; c1 c2^-1) M(2) Mb^-1")
        k0 = d.value.letters[0][0]
        assert k0[0] == "conj" and k0[2] == ("rho", 1, 3)


class TestCLI:
    def test_nf(self, tmp_path, capsys):
        f = tmp_path / "w.txt"
        f.write_text("@braid n=3\nb1 b2 b1\n")
        code, out, _ = run(["nf", str(f)], capsys)
        assert code == 0 and "infimum: 1" in out

    def test_usage_error_exit_1(self, tmp_path, capsys):
        f = tmp_path / "w.txt"
        f.write_text("@braid n=3\nb9\n")
        code, _, err = run(["nf", str(f)], capsys)
        assert code == 1 and "parse error" in err

    def test_verify_pass(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("@braid n=3\nb1 b2 b1\n")
        b.write_text("@braid n=3\nb2 b1 b2\n")
        code, out, _ = run(["verify", str(a), str(b)], capsys)
        assert code == 0 and "equal" in out

    def test_verify_refuted_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("@twist g=2 s=2\nc1\n")
        b.write_text("@twist g=2 s=2\nc2\n")
        code, out, _ = run(["verify", str(a), str(b), "--tier", "homology"],
                           capsys)
        assert code == 2

    def test_verify_tier_insufficient_exit_3(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        # boundary multitwist vs the empty word: homology cannot distinguish
        a.write_text("@twist g=11 s=2\ndelta1 delta2\n")
        b.write_text("@twist g=11 s=2\n\n")
        code, out, err = run(["verify", str(a), str(b), "--tier", "exact"],
                             capsys)
        assert code == 3 and "tier-insufficient" in err
        code, out, _ = run(["verify", str(a), str(b), "--tier", "homology"],
                           capsys)
        assert code == 3 and "homology cannot distinguish" in out

    def test_verify_reads_a_generated_boundary_file(self, tmp_path, capsys):
        # the generated word names subsurface curves of the layout, which
        # the verify command must know to read the file at all
        bdry, multitwist = tmp_path / "bdry.txt", tmp_path / "mt.txt"
        assert run(["generate", "boundary", "--m", "0", "--l", "0", "-o",
                    str(bdry)], capsys)[0] == 0
        multitwist.write_text("@twist g=11 s=2\ndelta1 delta2\n")
        code, out, _ = run(["verify", str(bdry), str(multitwist), "--tier",
                            "homology"], capsys)
        assert code == 3 and "tier-insufficient" in out

    @pytest.mark.parametrize("genus", [15, 19])
    def test_extension_names_its_layout(self, tmp_path, capsys, genus):
        # the extension names zero-padded layout-0 curves; read with the
        # layout of genus 11+4l instead, it was refuted against the
        # boundary multitwist
        ext, multitwist = tmp_path / "ext.txt", tmp_path / "mt.txt"
        assert run(["generate", "extend", "--genus", str(genus), "-o",
                    str(ext)], capsys)[0] == 0
        assert ext.read_text().startswith(f"@twist g={genus} s=2 l=0\n")
        multitwist.write_text(f"@twist g={genus} s=2\ndelta1 delta2\n")
        code, out, _ = run(["verify", str(ext), str(multitwist), "--tier",
                            "homology"], capsys)
        assert code == 3 and "tier-insufficient" in out

    @pytest.mark.parametrize("texts,hint", [
        (["@twist g=11 s=2\nc(2,4)"], "l=<l>"),
        (["@twist g=5 s=2 l=0\nc1"], "genus >= 11"),
        (["@twist g=11 s=1 l=0\nc1"], "s=2"),
        (["@twist g=15 s=2 l=0\nc1", "@twist g=15 s=2 l=1\nc1"],
         "different surfaces or layouts"),
    ])
    def test_layout_errors_exit_1(self, tmp_path, capsys, texts, hint):
        files = []
        for k, text in enumerate(texts):
            files.append(tmp_path / f"w{k}.txt")
            files[-1].write_text(text + "\n")
        commands = [["verify", str(files[0]), str(files[-1]), "--tier",
                     "homology"]]
        if len(files) == 1:
            commands.append(["invariants", str(files[0])])
        for argv in commands:
            code, _, err = run(argv, capsys)
            assert code == 1 and hint in err and "Traceback" not in err

    @pytest.mark.parametrize("tier", ["auto", "framed", "homology", "exact"])
    def test_swap_words_on_different_layouts_exit_1(self, tmp_path, capsys,
                                                    tier):
        # the framed shadow does not see the layout, so the layouts are
        # compared before any tier runs
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("@swap l=0\nrho(1,2)\n")
        b.write_text("@swap l=1\nrho(1,2)\n")
        code, out, err = run(["verify", str(a), str(b), "--tier", tier],
                             capsys)
        assert code == 1 and out == ""
        assert "swap words on different layouts" in err

    @pytest.mark.parametrize("lhs,rhs,auto_code", [
        # conjugating rho(1,2) by a twist of F1 moves it in homology; the
        # shadow of the twist is the identity, so framed called them equal
        ("rhoA(1,2; c1)", "rho(1,2)", 2),
        # both expand to bd(F1,1) bd(F1,2), but framed refuted them
        ("sub(delta1 delta2; F1)", "M(1)", 0),
    ])
    def test_framed_tier_declines_subsurface_letters(self, tmp_path, capsys,
                                                     lhs, rhs, auto_code):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text(f"@swap l=0\n{lhs}\n")
        b.write_text(f"@swap l=0\n{rhs}\n")
        for first, second in ((a, b), (b, a)):
            code, out, _ = run(["verify", str(first), str(second)], capsys)
            assert code == auto_code and "tier: homology" in out
            code, out, err = run(["verify", str(first), str(second),
                                  "--tier", "framed"], capsys)
            assert code == 3 and out == ""
            assert "cannot see subsurface letters" in err

    def test_framed_tier_declines_twist_words(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("@twist g=2 s=2\nc1\n")
        code, out, err = run(["verify", str(a), str(a), "--tier", "framed"],
                             capsys)
        assert code == 3 and out == "" and "tier-insufficient" in err

    @pytest.mark.parametrize("argv", [["extend", "--l", "2", "--genus", "20"],
                                      ["commutator", "--l", "3"]])
    def test_generate_without_layout_rejects_l(self, tmp_path, capsys, argv):
        f = tmp_path / "w.txt"
        code, out, err = run(["generate", *argv, "-o", str(f)], capsys)
        assert code == 1 and out == "" and "--l" in err
        assert not f.exists()

    @pytest.mark.parametrize("family", ["phi", "boundary", "commutator"])
    def test_generate_rejects_genus_outside_extend(self, tmp_path, capsys,
                                                   family):
        f = tmp_path / "w.txt"
        code, out, err = run(["generate", family, "--m", "1", "--genus",
                              "20", "-o", str(f)], capsys)
        assert code == 1 and out == "" and "--genus" in err
        assert not f.exists()

    def test_generate_extend_defaults_to_genus_12(self, tmp_path, capsys):
        f = tmp_path / "w.txt"
        assert run(["generate", "extend", "-o", str(f)], capsys)[0] == 0
        assert f.read_text().startswith("@twist g=12 s=2 l=0\n")

    @pytest.mark.parametrize("command", [["invariants", "{f}"],
                                         ["verify", "{f}", "{f}"]])
    def test_unknown_curve_exit_1(self, tmp_path, capsys, command):
        f = tmp_path / "c7.txt"
        f.write_text("@twist g=2 s=2\nc7\n")
        code, _, err = run([a.format(f=f) for a in command], capsys)
        assert code == 1 and "error:" in err and "Traceback" not in err

    # a curve token is read from the surface's curve table, so a curve the
    # surface lacks is a parse error with its line and column, whatever the
    # tier; only a layout-shaped token in a @twist header without l= gets
    # the hint
    _HINT = "; a layout curve needs l=<l> in the @twist header"

    @pytest.mark.parametrize("text,tier,err", [
        ("@twist g=11 s=2 l=0\nc(2,99)", "auto",
         "2:1: unknown curve token 'c(2,99)'"),
        ("@twist g=2 s=2\nc(1,1)", "auto",
         "2:1: unknown curve token 'c(1,1)'" + _HINT),
        ("@twist g=2 s=2\nimg(c1; bd(F1))", "auto",
         "2:9: unknown curve token 'bd(F1)'" + _HINT),
        ("@twist g=2 s=2\nc9", "auto", "2:1: unknown curve token 'c9'"),
        ("@swap l=0\nsub(c(1,1); F2)", "auto",
         "2:5: unknown curve token 'c(1,1)'"),
        ("@twist g=2 s=2\nc01", "auto", "2:1: unknown curve token 'c01'"),
        ("@twist g=11 s=2 l=0\nc1 c(2,99)", "exact",
         "2:4: unknown curve token 'c(2,99)'"),
        ("@twist g=11 s=2 l=0\nc1 c(2,99)", "framed",
         "2:4: unknown curve token 'c(2,99)'"),
    ], ids=["subchain-index", "layout-token-without-l", "img-base-without-l",
            "chain-index", "swap-body", "leading-zero", "tier-exact",
            "tier-framed"])
    def test_curve_not_on_the_surface_is_a_located_parse_error(
            self, tmp_path, capsys, text, tier, err):
        f = tmp_path / "w.txt"
        f.write_text(text + "\n")
        assert run(["verify", str(f), str(f), "--tier", tier], capsys) == (
            1, "", f"parse error: {err}\n")

    # a token outside the @swap alphabet is unknown, an error at its own
    # line and column; the Fi of sub(...; Fi) is one of the tokens F1 to F4,
    # so a leading zero or another script's digit is no index
    @pytest.mark.parametrize("token,message", [
        pytest.param(token, message, id=token) for token, message in [
            ("rhoA(1,5; c1)", "2:4: unknown swap token 'rhoA(1,5;'"),
            ("rhoA(2,1; c1)", "2:4: unknown swap token 'rhoA(2,1;'"),
            ("rhoA(3,3; c1)", "2:4: unknown swap token 'rhoA(3,3;'"),
            ("sub(c1; F5)", "2:12: unknown subsurface token 'F5'"),
            ("sub(c1; F0)", "2:12: unknown subsurface token 'F0'"),
            ("sub(c1; F01)", "2:12: unknown subsurface token 'F01'"),
            ("sub(c1; F001)", "2:12: unknown subsurface token 'F001'"),
            ("sub(c1; F\u0661)", "2:12: unknown subsurface token 'F\u0661'"),
            ("M(0)", "2:4: unknown swap token 'M(0)'"),
            ("M(7)", "2:4: unknown swap token 'M(7)'"),
            ("rho(1,5)", "2:4: unknown swap token 'rho(1,5)'"),
            ("delta(2,2)", "2:4: unknown swap token 'delta(2,2)'"),
            ("rho(01,2)", "2:4: unknown swap token 'rho(01,2)'"),
        ]])
    def test_swap_index_out_of_range_is_a_parse_error(self, tmp_path, capsys,
                                                      token, message):
        f = tmp_path / "w.swap"
        f.write_text(f"@swap l=0\nMb {token}\n", encoding="utf-8")
        code, _, err = run(["verify", str(f), str(f), "--tier", "homology"],
                           capsys)
        assert code == 1 and err == f"parse error: {message}\n"

    @pytest.mark.parametrize("token", ["b5", "b3", "b0", "b01"])
    def test_braid_index_out_of_range_is_a_parse_error(self, tmp_path,
                                                       capsys, token):
        f = tmp_path / "w.braid"
        f.write_text(f"@braid n=3\nb1 {token}\n")
        code, _, err = run(["verify", str(f), str(f)], capsys)
        assert code == 1
        assert err == f"parse error: 2:4: unknown braid token {token!r}\n"

    @pytest.mark.parametrize("text", ["@framed n=4\nMb M(7)",
                                      "@framed n=4\nMb M(0)",
                                      "@framed n=1\nMb"])
    def test_framed_index_out_of_range_is_a_parse_error(self, tmp_path,
                                                        capsys, text):
        f = tmp_path / "w.framed"
        f.write_text(text + "\n")
        code, _, err = run(["verify", str(f), str(f)], capsys)
        assert code == 1 and err.startswith("parse error: 2:")
        assert "Traceback" not in err

    # per pair, (exit code, deciding tier or None) at the tiers exact,
    # framed, homology and auto; tier None: a refusal, with no report
    @pytest.mark.parametrize("texts,outcomes", [
        (("@braid n=4\nb1 b2 b1", "@braid n=4\nb2 b1 b2"),
         [(0, "exact"), (3, None), (3, None), (0, "exact")]),
        (("@framed\nrho(1,3) Mb",
          "@framed\nrho(1,2)^-1 rho(2,3) rho(1,2) Mb"),
         [(0, "framed"), (0, "framed"), (3, None), (0, "framed")]),
        # Phi, and Phi with its last two letters exchanged
        (("@swap l=0\nrho(2,4) rho(1,3) rho(3,4) rho(2,3) rho(1,2)",
          "@swap l=0\nrho(2,4) rho(1,3) rho(3,4) rho(1,2) rho(2,3)"),
         [(3, None), (2, "framed"), (2, "homology"), (2, "framed")]),
        (("@swap l=0\nrhoA(1,2; c1)", "@swap l=0\nrho(1,2)"),
         [(3, None), (3, None), (2, "homology"), (2, "homology")]),
        (("@twist g=2 s=2\nc1 c2", "@twist g=2 s=2\nc2 c1"),
         [(3, None), (3, None), (2, "homology"), (2, "homology")]),
    ])
    @pytest.mark.parametrize("k,tier", enumerate(["exact", "framed",
                                                  "homology", "auto"]))
    def test_verify_contract(self, tmp_path, capsys, texts, outcomes, k,
                             tier):
        files = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for f, text in zip(files, texts):
            f.write_text(text + "\n")
        code, out, err = run(["verify", *map(str, files), "--tier", tier],
                             capsys)
        want_code, want_tier = outcomes[k]
        assert code == want_code
        if want_tier is None:
            assert out == "" and err
        else:
            assert out.splitlines()[:2] == ["schema: 1",
                                            f"tier: {want_tier}"]
            assert err == ""

    _FILES = {"braid": "@braid n=4\nb1 b2 b1",
              "braid2": "@braid n=4\nb2 b1 b2",
              "framed": "@framed\nrho(1,3) Mb",
              "swap": "@swap l=0\nrho(1,2)", "swap1": "@swap l=1\nrho(1,2)",
              "rhoA": "@swap l=0\nrhoA(1,2; c1)",
              "twist": "@twist g=2 s=2\nc1 c2", "twist3": "@twist g=3 s=2\nc1",
              # (t_c1 t_c2)^6 is the twist about a separating curve, which
              # acts trivially on H_1
              "chain6": "@twist g=2 s=2\n" + "c1 c2 " * 6,
              "negative": "@twist g=2 s=2\nc1 c2^-1",
              "multitwist": "@twist g=11 s=2\ndelta1 delta2",
              "empty": "@twist g=11 s=2"}
    _NOT_IDENTITY = ("invariants expects a factorization of the boundary "
                     "multitwist, which acts as the identity on H_1\n")
    _TIER_INSUFFICIENT = (
        "tier-insufficient (the words differ in twists about radical classes, "
        "which homology cannot distinguish; boundary twists act trivially on "
        "absolute H_1)")

    # (argv, exit code, stdout, stderr) as main writes them; an argv word
    # *.txt reads that one of _FILES, and "out" is the output path
    _MAIN_CASES = [
        (["nf", "twist.txt"], 1, "", "nf expects a @braid file\n"),
        (["lift", "framed.txt", "-o", "out"], 1, "",
         "lift expects a @braid file\n"),
        (["invariants", "braid.txt"], 1, "",
         "invariants expects a @twist file\n"),
        (["invariants", "negative.txt"], 1, "",
         "invariants expects an all-positive factorization\n"),
        (["generate", "extend", "--l", "2", "-o", "out"], 1, "",
         "--l applies to phi and boundary, not to extend\n"),
        (["generate", "phi", "--genus", "20", "-o", "out"], 1, "",
         "--genus applies to extend, not to phi\n"),
        (["verify", "braid.txt", "framed.txt"], 1, "",
         "cannot compare documents of different kinds\n"),
        (["verify", "braid.txt", "braid2.txt", "--tier", "homology"], 3, "",
         "braid words support only the exact tier\n"),
        (["verify", "framed.txt", "framed.txt", "--tier", "homology"], 3, "",
         "framed words support only the framed tier\n"),
        (["verify", "swap.txt", "swap1.txt"], 1, "",
         "swap words on different layouts\n"),
        (["verify", "rhoA.txt", "swap.txt", "--tier", "framed"], 3, "",
         "tier-insufficient: the framed shadow cannot see subsurface letters "
         "(sub, rhoA); use --tier homology\n"),
        (["verify", "swap.txt", "swap.txt", "--tier", "exact"], 3, "",
         "swap words: use --tier framed or homology\n"),
        (["verify", "twist.txt", "twist.txt", "--tier", "exact"], 3, "",
         "tier-insufficient: the exact mapping class group word problem is "
         "out of scope; homology refutes but cannot certify\n"),
        (["verify", "twist.txt", "twist.txt", "--tier", "framed"], 3, "",
         "tier-insufficient: twist words have no framed shadow; use --tier "
         "homology\n"),
        (["verify", "twist.txt", "twist3.txt", "--tier", "homology"], 1, "",
         "twist words on different surfaces or layouts\n"),
        (["nf", "braid.txt"], 0, "schema: 1\nstrands: 4\ninfimum: 0\n"
         "canonical_length: 1\nfactor_1: 3 2 1 4\n", ""),
        (["generate", "boundary", "-o", "out"], 0, "schema: 1\nfamily: "
         "boundary multitwist (m=0, l=0)\nletters: 104\nverified: pass\n", ""),
        (["verify", "braid.txt", "braid2.txt"], 0,
         "schema: 1\ntier: exact\nverdict: equal\n", ""),
        # the one exit-3 outcome that is a report, not a refusal
        (["verify", "multitwist.txt", "empty.txt", "--tier", "homology"], 3,
         f"schema: 1\ntier: homology\nverdict: {_TIER_INSUFFICIENT}\n", ""),
        (["invariants", "twist.txt"], 2, "", _NOT_IDENTITY),
        (["invariants", "chain6.txt"], 0, "schema: 1\ngenus: 2\n"
         "n_cycles: 12\neuler_closed: 8\neuler_filling: 8\nb1: 2\n"
         "torsion: none\nendo_sigma_num: -36\nendo_sigma_den: 5\n"
         "hyperelliptic_verdict: NotHyperelliptic\n", ""),
    ]

    @pytest.mark.parametrize("argv,code,out,err", _MAIN_CASES,
                             ids=["-".join(case[0]) for case in _MAIN_CASES])
    def test_main_writes_reports_and_refusals(self, tmp_path, capsys, argv,
                                              code, out, err):
        for name, text in self._FILES.items():
            (tmp_path / f"{name}.txt").write_text(text + "\n")
        argv = [str(tmp_path / a) if a.endswith(".txt") or a == "out" else a
                for a in argv]
        assert run(argv, capsys) == (code, out, err)
        if code == 1:
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        "@braid n=3\nb1^{k}",
        "@framed n=4\nM(2)^{k}",
        "@twist g=2 s=2\nc1^-{k}",
        "@twist g=2 s=2\nimg(c1; c2)^{k}",
        "@swap l=0\nrho(1,2)^{k}",
        "@swap l=0\nsub(c1; F2)^{k}",
        "@swap l=0\nrhoA(1,3; c1)^{k}",
    ])
    def test_power_over_cap_exit_1_without_expanding(self, tmp_path, capsys,
                                                     text):
        f = tmp_path / "w.txt"
        f.write_text(text.format(k=1_000_000) + "\n")
        tracemalloc.start()
        try:
            code, _, err = run(["verify", str(f), str(f)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and "exceeds the cap" in err
        assert peak < 2_000_000

    @pytest.mark.parametrize("header", ["@braid n=", "@framed n=",
                                        "@twist g=", "@swap l="])
    def test_header_over_cap_exit_1_without_allocating(self, tmp_path, capsys,
                                                       header):
        f = tmp_path / "w.txt"
        f.write_text(f"{header}{10**6}\n")
        tracemalloc.start()
        try:
            code, _, err = run(["verify", str(f), str(f)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and "exceeds the cap" in err
        assert "Traceback" not in err
        assert peak < 2_000_000

    @pytest.mark.parametrize("argv,text", [
        (["generate", "boundary", "--m", str(MAX_POWER + 1)], None),
        (["generate", "phi", "--l", str(MAX_LAYOUT + 1)], None),
        (["generate", "extend", "--genus", str(MAX_GENUS + 1)], None),
        (["verify", "{f}", "{f}", "--tier", "homology"],
         f"@swap l={MAX_LAYOUT + 1}\nrho(1,2)"),
        (["verify", "{f}", "{f}", "--tier", "homology"],
         f"@twist g={MAX_HEADER} s=2 l={MAX_LAYOUT + 1}\nc1"),
    ])
    def test_size_over_cap_exit_1_without_building(self, tmp_path, capsys,
                                                   argv, text):
        f = tmp_path / "w.txt"
        if text is not None:
            f.write_text(text + "\n")
        argv = [a.format(f=f) for a in argv] + (
            ["-o", str(f)] if argv[0] == "generate" else [])
        tracemalloc.start()
        try:
            code, _, err = run(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and "exceeds the cap" in err
        assert "Traceback" not in err
        assert peak < 2_000_000

    def test_size_at_cap_reaches_the_builder(self, tmp_path, capsys,
                                             monkeypatch):
        seen = []

        def builder(*args, **kwargs):
            seen.append(args)
            raise ValueError("stub builder")

        for name in ("phi_factorization", "boundary_multitwist_factorization",
                     "extend_to_genus"):
            monkeypatch.setattr(cli, name, builder)
        out = str(tmp_path / "w.txt")
        for argv in (["boundary", "--m", str(MAX_POWER)],
                     ["phi", "--l", str(MAX_LAYOUT)]):
            assert run(["generate", *argv, "-o", out], capsys)[0] == 1
        assert seen == [(MAX_POWER, 0), (0, MAX_LAYOUT)]
        seen.clear()
        monkeypatch.setattr(cli, "boundary_multitwist_factorization",
                            lambda *a, **k: None)
        assert run(["generate", "extend", "--genus", str(MAX_GENUS), "-o",
                    out], capsys)[0] == 1
        assert seen == [(MAX_GENUS, None)]

    def test_header_at_cap_parses(self):
        assert parse(f"@braid n={MAX_HEADER}\nb1").value.strands == MAX_HEADER
        assert parse(f"@twist g={MAX_HEADER} s=2\nc1").value.surface.genus \
            == MAX_HEADER
        assert parse(f"@swap l={MAX_LAYOUT}\nMb").value.layout.l == MAX_LAYOUT
        g = 11 + 4 * MAX_LAYOUT
        assert parse(f"@twist g={g} s=2 l={MAX_LAYOUT}\nc(4,1)").value \
            .surface.layout == SurfaceLayout(MAX_LAYOUT)

    # 2,000 levels of img(...) written with no whitespace: the tokenizer
    # splits each group's opener, ; and ) out of the one run of text.
    _DEEP_TOKEN = "img(" * 2000 + "c1" + ";c2)" * 2000

    _NEST = "nest deeper than the cap"

    # the second sub( of "sub(sub(" is read as a curve of the first one's
    # body, and refused at once: the whole stderr line is pinned
    @pytest.mark.parametrize("text,other,want", [
        ("@twist g=2 s=2\n" + "img(" * 2000 + "c1" + "; c2)" * 2000,
         "@twist g=2 s=2\nc1", _NEST),
        ("@twist g=2 s=2\n" + _DEEP_TOKEN, "@twist g=2 s=2\nc1", _NEST),
        ("@twist g=2 s=2\nc1 img(c1; c2) " + _DEEP_TOKEN + " c2",
         "@twist g=2 s=2\nc1", _NEST),
        ("@swap l=0\n" + "sub(" * 2000 + "c1" + "; F2)" * 2000,
         "@swap l=0\nMb", "parse error: 2:5: unknown curve token 'sub('\n"),
        ("@swap l=0\nsub(" + _DEEP_TOKEN + "; F2)", "@swap l=0\nMb", _NEST),
        ("@swap l=0\nrhoA(1,3;" + _DEEP_TOKEN + ")", "@swap l=0\nMb",
         _NEST),
        # each definition nests one level deeper than the one before
        ("@twist g=2 s=2\nV1 = c1 ;\n" + "".join(
            f"V{k} = img(V{k - 1}; c1) ;\n" for k in range(2, 10_001))
         + "img(V10000; c2)", "@twist g=2 s=2\nc1", _NEST),
    ], ids=["img", "img-one-token", "img-mixed", "sub", "sub-body",
            "rhoA-body", "chained-definitions"])
    def test_deep_nesting_exit_1_without_recursing(self, tmp_path, capsys,
                                                   text, other, want):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text(text + "\n")
        b.write_text(other + "\n")
        tracemalloc.start()
        try:
            code, _, err = run(["verify", str(a), str(b)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and want in err
        assert "Traceback" not in err
        assert peak < 2_000_000

    @pytest.mark.parametrize("sep", ["; ", ";"])
    def test_nesting_at_cap_parses(self, sep):
        def nested(depth):
            return "@twist g=2 s=2\n" + "img(" * depth + "c1" \
                + (sep + "c2)") * depth
        d = parse(nested(MAX_NESTING))
        printed = print_document(d)
        # one definition per level: V1 = c1, then Vk = img(V(k-1); c2)
        lines = printed.splitlines()
        assert len(lines) == MAX_NESTING + 2
        assert lines[MAX_NESTING] == \
            f"V{MAX_NESTING} = img(V{MAX_NESTING - 1}; c2) ;"
        assert parse(printed) == d
        with pytest.raises(ParseError):
            parse(nested(MAX_NESTING + 1))

    @pytest.mark.parametrize("depth", [MAX_NESTING - 1, MAX_NESTING,
                                       MAX_NESTING + 1])
    @pytest.mark.parametrize("inner,outer", [("c1", "c2"), ("c(1,1)", "c2"),
                                             ("c1", "c(1,2)")])
    def test_definitions_nest_as_their_inline_text(self, depth, inner,
                                                   outer):
        # one word, inline and as chained definitions: each parses exactly
        # when the other does, to the same value
        head = "@twist g=11 s=2 l=0\n"
        inline = head + "img(" * depth + inner + f"; {outer})" * depth
        defined = head + f"V1 = {inner} ;\n" + "".join(
            f"V{k} = img(V{k - 1}; {outer}) ;\n"
            for k in range(2, depth + 1)) + f"img(V{depth}; {outer})\n"

        def outcome(text):
            try:
                return parse(text).value
            except ParseError as exc:
                assert "nest deeper than the cap" in str(exc)
                return "over the cap"

        paren_depth = depth + ("(" in inner + outer)
        assert outcome(inline) == outcome(defined)
        assert (outcome(defined) == "over the cap") == (
            paren_depth > MAX_NESTING)

    @pytest.mark.parametrize("text,message", [
        ("@twist g=2 s=2\nimg(V1; c2)", "V1 is not defined"),
        ("@twist g=2 s=2\nimg(V1; c2) V1 = c1 ;", "V1 is not defined"),
        ("@twist g=2 s=2\nV1 = c1 img(V1; c2) ;", "V1 is not defined"),
        ("@twist g=2 s=2\nV1 = c1 ; V1 = c2 ; img(V1; c3)",
         "V1 is defined twice"),
        ("@twist g=2 s=2\nV1 = c1 ;\nimg(V1 = c2 ; ; c3)", "stands alone"),
        ("@twist g=2 s=2\nV1 = V2 = c1 ; ;", "stands alone"),
        ("@twist g=2 s=2\nV1 = c1 ;\nimg(V1 c2; c3)", "stands alone"),
        ("@twist g=2 s=2\nV1 = c1 ;\nV1", "not followed by ="),
        ("@twist g=2 s=2\nV1 c1 ;", "not followed by ="),
        ("@twist g=2 s=2\nV1 = c1", "does not end with ;"),
        ("@twist g=2 s=2\nc1 ;", "unknown curve token"),
        ("@swap l=0\nsub(img(V1; c2); F2)", "V1 is not defined"),
        ("@swap l=0\nsub(V1 = c1 ; ; F2)", "stands alone"),
    ])
    def test_definition_errors_exit_1(self, tmp_path, capsys, text, message):
        f = tmp_path / "w.txt"
        f.write_text(text + "\n")
        code, _, err = run(["verify", str(f), str(f)], capsys)
        assert code == 1 and message in err
        assert "Traceback" not in err

    def test_names_are_local_to_a_file(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("@twist g=2 s=2\nV1 = c1 ;\nimg(V1; c2)\n")
        b.write_text("@twist g=2 s=2\nimg(V1; c2)\n")
        code, _, err = run(["verify", str(a), str(b)], capsys)
        assert code == 1 and "V1 is not defined" in err

    def test_equal_conjugators_are_one_object(self):
        w = parse("@twist g=3 s=2\nimg(c1 c2; c3) c4 img(c1 c2; c5)").value
        first, second = w.letters[0][0], w.letters[2][0]
        assert first.conjugator is second.conjugator

    def test_documents_parsed_with_one_memo_share_conjugators(self):
        conjugators = {}
        text = "@twist g=3 s=2\nimg(c1 c2; c3) c4"
        a, b = (parse(text, conjugators).value for _ in range(2))
        assert a.letters[0][0].conjugator is b.letters[0][0].conjugator
        # a document on another surface keeps its own conjugators
        c = parse("@twist g=4 s=2\nimg(c1 c2; c3)", conjugators).value
        assert c.letters[0][0].conjugator.surface.genus == 4

    def test_verify_reads_both_files_with_one_memo(self, tmp_path, capsys,
                                                   monkeypatch):
        seen = []
        check = HomologyCalculator.verify_homologically

        def spy(calc, w1, w2):
            seen.append((w1, w2))
            return check(calc, w1, w2)

        monkeypatch.setattr(HomologyCalculator, "verify_homologically", spy)
        path = tmp_path / "a.txt"
        path.write_text("@twist g=3 s=2\nimg(c1 c2; c3) c4\n")
        code, _, _ = run(["verify", str(path), str(path)], capsys)
        (w1, w2), = seen
        assert code == 0
        assert w1.letters[0][0].conjugator is w2.letters[0][0].conjugator
        # one conjugator defined under a different name in each file
        seen.clear()
        other = tmp_path / "b.txt"
        path.write_text("@twist g=3 s=2\nV1 = c1 c2 ;\nimg(V1; c3) c4\n")
        other.write_text("@twist g=3 s=2\nV1 = c4 ;\nV2 = c1 c2 ;\n"
                         "img(V2; c3) img(V1; c4)\n")
        run(["verify", str(path), str(other)], capsys)
        (w1, w2), = seen
        assert w1.letters[0][0].conjugator is w2.letters[0][0].conjugator

    def test_verify_homology_consistent_exit_0(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        # chain relation: agreement with no radical letters involved
        a.write_text("@twist g=2 s=2\nc1 c2 c3 c1 c2 c3 c1 c2 c3 c1 c2 c3\n")
        b.write_text("@twist g=2 s=2\nd1 d2\n")
        code, out, _ = run(["verify", str(a), str(b), "--tier", "homology"],
                           capsys)
        assert code == 0 and "consistent" in out

    def test_lift_round_trip(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        out_file = tmp_path / "lifted.txt"
        a.write_text("@braid n=6\nb1 b2^-1\n")
        code, _, _ = run(["lift", str(a), "-o", str(out_file)], capsys)
        assert code == 0
        d = parse(out_file.read_text())
        assert d.kind == "twist" and len(d.value) == 2

    def test_generate_phi_and_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "phi.txt"
        code, out, _ = run(["generate", "phi", "--m", "1", "-o",
                            str(out_file)], capsys)
        assert code == 0 and "letters: 40" in out
        text = out_file.read_text()
        assert print_document(parse(text)) == text

    def test_generate_boundary_roundtrip_byte_identical(self, tmp_path,
                                                        capsys):
        out_file = tmp_path / "bdry.txt"
        code, out, _ = run(["generate", "boundary", "--m", "0", "-o",
                            str(out_file)], capsys)
        assert code == 0 and "letters: 104" in out
        text = out_file.read_text()
        assert print_document(parse(text)) == text

    # sha256 of the artifact `generate` writes in the inline format (the
    # artifact before named conjugator definitions), of the artifact, of
    # the command's stdout, and of the stdout of `invariants` on the
    # artifact, which it must also print for the inline text.  The
    # commutator word is not positive, so `invariants` refuses it: exit 1,
    # nothing on stdout.  The phi word factorizes Phi, whose action is not
    # the identity, so `invariants` refuses it: exit 2, nothing on stdout.
    @pytest.mark.parametrize("argv, digests, invariants_code", [
        (["boundary", "--m", "0"],
         ("f357d0d41cc3603faa69007bd8703c77acc05c8c197ed38c5a88f04ddfd316f4",
          "7564dfa98ad94ed12b692ce5e30c16c41ae716ab5b4cac2a023c77221df85fec",
          "dc25c0673fdc1e9764d95fc96999f9689eaa9830eb6ffac2e7d40866fa53e083",
          "8969a83f3bf19a8a1b0a17dd1f2e3f1d6e6ca6c8ee2de9ef3eea9a99af6a2daf"),
         0),
        (["boundary", "--l", "1", "--m", "3"],
         ("1554782b21a02b501728baf6b7fdb4c029621afce2bf9566db977d18650971d2",
          "836d6688fe00c689b035279ad11a1f27c7d2bcfce787b49800a3e1a5304eab08",
          "c510e13ce0e0a8969aa1f7da1a3c0c17b48ecd82cc985bfb8496a7d59487487b",
          "67dfd3ce35ba8a40adf6d62ccb4e290b95541e2dfd26493947aa0b89bc72d9fc"),
         0),
        (["phi", "--m", "1"],
         ("9f035d0ea158257f6e734927d66be181bb4b49007c46b2bedfe300c6578aa043",
          "3757deb993fe6ce633fc76bd701aa1c64d3200b9d80fae63e4c01198b2ceb3d7",
          "90ad5abcb9aa57c270980b3001a3a7305a954abc3e88fcb1a841c608ba56e132",
          hashlib.sha256(b"").hexdigest()),
         2),
        (["extend", "--genus", "12"],
         ("3a088cf514c4acf931dec038223fe18c95480d25f3a4d7d8dff4340c26fb157d",
          "19bcf4fc367b05e1ccd7c1dce4a57d2d90c17a70df09b2c0287cb82c8541dba0",
          "f7dfa9250a0f4a6e26de13b243d116de8fd424af623fc9e4cbfbcb899934f0d5",
          "0fcdba23d05ccb2df37fe625c2321c230d345a9b0fb5320fc423894c729ea5bb"),
         0),
        (["commutator", "--m", "2"],
         ("0221b143855a1f14c4fe96309b68e5f0fc6965cf76bb003cf1bce39f74da38a4",
          "0221b143855a1f14c4fe96309b68e5f0fc6965cf76bb003cf1bce39f74da38a4",
          "adc9600ca5cd1300566750214358840647746f295caed11991423c5de9c4b0fa",
          hashlib.sha256(b"").hexdigest()),
         1),
    ], ids=["boundary-l0-m0", "boundary-l1-m3", "phi-m1", "extend-g12",
            "commutator-m2"])
    def test_generated_bytes_are_pinned(self, tmp_path, capsys, argv,
                                        digests, invariants_code):
        f, inline = tmp_path / "w.txt", tmp_path / "inline.txt"
        code, generated, _ = run(["generate", *argv, "-o", str(f)], capsys)
        assert code == 0
        code, invariants, _ = run(["invariants", str(f)], capsys)
        assert code == invariants_code
        word = parse(f.read_text()).value
        inline.write_text(inline_text(word))
        assert parse(inline.read_text()).value == word
        assert run(["invariants", str(inline)], capsys)[:2] == (
            invariants_code, invariants)
        sha = lambda b: hashlib.sha256(b).hexdigest()
        assert (sha(inline.read_bytes()), sha(f.read_bytes()),
                sha(generated.encode()), sha(invariants.encode())) == digests
        # each token is short, so every line wraps within 78 characters
        assert max(map(len, f.read_text().splitlines())) <= 78

    def test_seed_reaches_the_builder_and_leaves_no_state(self, tmp_path,
                                                          capsys):
        from swapfact.constructions import boundary_multitwist_factorization
        from swapfact.dsl import Document

        def expected(**kw):
            word = boundary_multitwist_factorization(0, **kw).word
            return print_document(Document("twist", word))

        seeded, plain = tmp_path / "seeded.txt", tmp_path / "plain.txt"
        assert run(["--seed", "2", "generate", "boundary", "-o",
                    str(seeded)], capsys)[0] == 0
        assert run(["generate", "boundary", "-o", str(plain)], capsys)[0] == 0
        assert seeded.read_text() == expected(seed=2)
        assert plain.read_text() == expected() != expected(seed=2)

    def test_seed_only_rotates_the_generator_order(self, tmp_path, capsys):
        # the psi search is deterministic and tries its 12 generators in
        # an order rotated by the seed, so seeds 0 and 12 are the same
        # search; seed 5 finds another certificate
        texts = {}
        for seed in (0, 12, 5):
            out = tmp_path / f"seed{seed}.txt"
            assert run(["--seed", str(seed), "generate", "boundary", "-o",
                        str(out)], capsys)[0] == 0
            texts[seed] = out.read_bytes()
        assert texts[0] == texts[12] != texts[5]

    def test_invariants_report_keys(self, tmp_path, capsys):
        out_file = tmp_path / "bdry.txt"
        run(["generate", "boundary", "--m", "0", "-o", str(out_file)], capsys)
        code, out, _ = run(["invariants", str(out_file)], capsys)
        assert code == 0
        for key in ["genus:", "n_cycles:", "euler_closed:", "euler_filling:",
                    "b1:", "torsion:", "endo_sigma_num:", "endo_sigma_den:",
                    "hyperelliptic_verdict:"]:
            assert key in out

    @pytest.mark.parametrize("body, first", [
        ("delta1 delta2", 1), ("delta2 delta1", 2)])
    def test_invariants_names_the_first_letter_with_a_null_class(
            self, tmp_path, capsys, body, first):
        # the boundary twists act as the identity but cap to zero
        f = tmp_path / "w.txt"
        f.write_text(f"@twist g=11 s=2\n{body}\n")
        code, out, err = run(["invariants", str(f)], capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: letter NamedCurve('boundary', {first}) has "
                       "null class: separating vanishing cycle or class "
                       "bookkeeping defect\n")

    def test_schema_version_in_reports(self, tmp_path, capsys):
        f = tmp_path / "w.txt"
        f.write_text("@braid n=3\nb1\n")
        code, out, _ = run(["nf", str(f)], capsys)
        assert "schema: 1" in out

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "swapfact.cli",
                               "--version"], capture_output=True, text=True)
        assert proc.returncode == 0

    def test_closed_stdout_exits_1_without_traceback(self, tmp_path):
        """`swapfact nf FILE | head -2`: the reader leaves after a few bytes
        of a report larger than the pipe buffer (about 250 KB here)."""
        f = tmp_path / "w.braid"
        middle = " ".join(f"b{j}" for j in range(3, 40, 2))
        f.write_text("@braid n=40\n" + (middle + "\n") * 2000)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "swapfact.cli", "nf", str(f)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.read(16) == b"schema: 1\nstrand"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=30) == 1, err
        assert "Traceback" not in err, err

    def test_import_skips_dataclasses_and_inspect(self):
        """Every command is a fresh process that imports every module, and
        importing dataclasses (which pulls in inspect, ast and dis) and
        building frozen dataclasses once took most of that.  -S keeps site
        hooks from importing either module first."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", "import sys, swapfact.cli; print("
             "sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


_MALFORMED = ["x", "", "1e3", "0x10", "9" * 30]   # never an int in range
_SMALL_ARGV = {"phi": ({"--m": ["0", "1"], "--l": ["0"]}),
               "boundary": ({"--m": ["0", "1"], "--l": ["0"]}),
               "extend": ({"--genus": ["12"]}),
               "commutator": ({"--m": ["1", "2"]})}


@st.composite
def generate_argv(draw):
    """generate argv: small in-range values, or malformed and out-of-range
    ones.  Negative values reach only the builders that read them."""
    family = draw(st.sampled_from(sorted(_SMALL_ARGV)))
    argv = ["generate", family]
    for flag, cap in (("--m", MAX_POWER), ("--l", MAX_LAYOUT),
                      ("--genus", MAX_GENUS)):
        small = _SMALL_ARGV[family].get(flag, [])
        bad = _MALFORMED + [str(cap + 1), "-1", str(-cap)]
        value = draw(st.sampled_from([None, *small, *bad, *bad]))
        if value is not None:
            argv += [flag, value]
    return argv


# Per kind: a valid header, header parameters valid and not, and body
# tokens valid and not; junk tokens fit no kind.
_KINDS = {
    "@braid": ("n=4", ["n=3", "n=0", "n=-2", f"n={MAX_HEADER + 1}"],
               ["b1", "b2^-1", "b3^2", "b9"]),
    "@framed": ("n=4", ["n=2", "n=0"],
                ["delta(1,2)", "rho(2,3)^-1", "Mb", "M(2)", "M(5)",
                 "rho(3,1)"]),
    "@twist": ("g=11 s=2 l=0",
               ["g=2", "g=15", "g=0", "s=2", "s=1", "s=0", "s=5", "l=0",
                "l=1", "l=-1", f"l={MAX_LAYOUT + 1}", f"g={MAX_HEADER + 1}"],
               ["c1", "c3^2", "c0", "d1", "d2^-1", "delta1", "delta2",
                "c(2,4)", "d(1,1)", "bd(F3)", "bd(F2,2)", "img(c1 c2; c3)",
                "img(c(1,1); bd(F2))", "V1", "=", ";", "img(V1; c2)",
                # curves the surface lacks, and a spelling never printed
                "c99", "d3", "c(2,99)", "d(5,1)", "bd(F9)", "c01"]),
    "@swap": ("l=0", ["l=1", "l=-1", f"l={MAX_LAYOUT + 1}"],
              ["rho(1,2)", "rho(2,4)^-1", "delta(1,3)", "rhoA(1,3; c1 c2^-1)",
               "sub(c1 d1^-1; F2)", "M(1)", "Mb", "rho(3,1)", "M(5)"]),
}
_JUNK = ["x", "^2", "c1^", "c1^x", "img(c1;", ")", "sub(c1;", "q=7",
         "@braid", "#", f"b1^{MAX_POWER + 1}", "9" * 30]


@st.composite
def dsl_text(draw):
    kind = draw(st.sampled_from([*_KINDS, "@other", "braid", ""]))
    valid, params, body = _KINDS.get(kind, ("", [], []))
    head = [kind] + draw(st.one_of(
        st.just([valid]),
        st.lists(st.sampled_from(params + ["q=1", "n=x"]), max_size=3)))
    tokens = draw(st.lists(st.sampled_from(body * 4 + _JUNK), max_size=8))
    return " ".join(head) + "\n" + " ".join(tokens) + "\n"


class TestFuzz:
    """Every input reaches an exit code of the contract, never a traceback."""

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        return code

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=generate_argv())
    def test_generate_argv(self, tmp_path, argv):
        code = self._main(argv + ["-o", str(tmp_path / "out.txt")])
        over = [str(cap + 1) for cap in (MAX_POWER, MAX_LAYOUT, MAX_GENUS)]
        if any(v in argv[3::2] for v in _MALFORMED + over):
            assert code == 1

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=dsl_text(), other=dsl_text(),
           command=st.sampled_from(["nf", "lift", "invariants", "exact",
                                    "framed", "homology", "auto"]))
    def test_dsl_text(self, tmp_path, text, other, command):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text(text)
        b.write_text(other if command in ("exact", "framed") else text)
        if command in ("nf", "invariants"):
            self._main([command, str(a)])
        elif command == "lift":
            self._main(["lift", str(a), "-o", str(tmp_path / "out.txt")])
        else:
            self._main(["verify", str(a), str(b), "--tier", command])


class TestDSLSwapLetters:
    def test_rhoA_round_trip(self):
        text = "@swap l=0\nrhoA(1,3;c1 c2^-1) rho(1,2)^-1 M(2) Mb"
        d = parse(text)
        printed = print_document(d)
        assert parse(printed).value == d.value

    def test_sub_round_trip(self):
        text = "@swap l=1\nsub(c1 d1^-1; F2) rho(2,3)"
        d = parse(text)
        assert d.value.layout.l == 1
        printed = print_document(d)
        assert parse(printed).value == d.value

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("@swap l=0\nrhoA(1,3; c1")


# A few bytes that once made the reader build millions of letters: an n=100
# full twist (9,900 braid letters) a thousand times, twenty such tokens, and
# a 5,000-letter subsurface word whose thousand copies expand to 5 M twist
# letters.
_LETTER_BOMBS = [
    "@framed n=100\nMb^1000",
    "@framed n=100\n" + "Mb^1000 " * 20,
    "@swap l=0\nsub(" + "c1^1000 " * 5 + "; F1)^1000",
]


def _stored_letters(word) -> int:
    """The letters of the word and of each distinct conjugator under it,
    counted once: what its printed @twist document spells."""
    seen, n, stack = set(), len(word), [word]
    while stack:
        for curve, _ in stack.pop().letters:
            if isinstance(curve, DerivedCurve) and curve.conjugator not in seen:
                seen.add(curve.conjugator)
                n += len(curve.conjugator)
                stack.append(curve.conjugator)
    return n


class TestLetterCap:
    @pytest.mark.parametrize("text", _LETTER_BOMBS, ids=[
        "one_full_twist", "twenty_full_twists", "sub_expansion"])
    def test_bomb_exits_1_fast_in_bounded_memory(self, tmp_path, text):
        f = tmp_path / "w.txt"
        f.write_text(text + "\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))

        def one_gigabyte():
            resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

        proc = subprocess.run(
            [sys.executable, "-m", "swapfact.cli", "verify", str(f), str(f)],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": src}, preexec_fn=one_gigabyte)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ("parse error: 2:1: the document's letters "
                               f"exceed the cap {MAX_LETTERS}\n")

    @pytest.mark.parametrize("text,count", [
        ("@braid n=3\nb1^4 b2^-3", 7),
        # a definition's letters count once, however often it is used
        ("@twist g=2 s=2\nV1 = c1^3 ;\nimg(V1; c2)^2 c1", 6),
        # an inline conjugator's letters count at each occurrence
        ("@twist g=2 s=2\nimg(c1^3; c2)^2 img(c1^3; c2)", 9),
        # one per letter plus its braid's: rho(1,3) has 3, Mb at n=4 12
        ("@framed n=4\nrho(1,3)^2 M(1)^-2 Mb", 23),
        # one per letter plus the letters its expansion builds
        ("@swap l=0\nM(1)^3 Mb^-1", 12),
        ("@swap l=0\nrho(1,2)", 7),
        ("@swap l=0\nsub(c1^2 c2; F1)^2", 11),
        # the 2 letters read, then V p V^-1 for p = rho(2,3), whose 6
        # twists carry 126 letters with their conjugators, and
        # V = sub(c1 c2; F1) rho(1,2)^-1, whose letters expand to 2 and 6
        # twists: 2 + 1 + 6 + 126 + 8 + 6 * 8
        ("@swap l=0\nrhoA(1,3; c1 c2)", 191),
        # rho(1,3), which is rho(2,3) conjugated by rho(1,2)^-1, then M(3)
        # and M(1): 1 + (6 + 126 + 6 + 6 * 6) + 2 + 2
        ("@swap l=0\ndelta(1,3)", 179),
    ])
    def test_counting(self, monkeypatch, text, count):
        monkeypatch.setattr(dsl, "MAX_LETTERS", count)
        parse(text)
        monkeypatch.setattr(dsl, "MAX_LETTERS", count - 1)
        with pytest.raises(ParseError, match="exceed the cap"):
            parse(text)

    def test_document_at_the_cap_parses(self):
        body = "b1^1000 " * (MAX_LETTERS // 1000)
        assert len(parse(f"@braid n=3\n{body}").value) == MAX_LETTERS
        with pytest.raises(ParseError) as err:
            parse(f"@braid n=3\n{body}b2")
        assert (err.value.line, err.value.column) == (2, len(body) + 1)

    def test_largest_artifacts_fit_under_the_cap(self, monkeypatch):
        word = boundary_multitwist_factorization(20, 2).word
        text = print_document(Document("twist", word))
        monkeypatch.setattr(dsl, "MAX_LETTERS", _stored_letters(word))
        assert parse(text).value == word
        monkeypatch.setattr(dsl, "MAX_LETTERS", _stored_letters(word) - 1)
        with pytest.raises(ParseError, match="exceed the cap"):
            parse(text)
        monkeypatch.undo()
        boundary = boundary_multitwist_factorization(MAX_POWER, MAX_LAYOUT)
        extension = extend_to_genus(
            MAX_GENUS, boundary_multitwist_factorization(MAX_POWER))
        assert _stored_letters(boundary.word) == 1_778_532 < MAX_LETTERS
        assert _stored_letters(extension.word) < MAX_LETTERS
