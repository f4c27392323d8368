"""The word DSL: parsing and printing of braid, framed, twist, and swap
words.

A document is a header line followed by tokens:

    @braid n=6              b1 b2^-1 b3^2
    @framed n=4             delta(1,2) rho(2,3)^-1 Mb M(2)
    @twist g=11 s=2         c3 d1^-1 delta1 img(c1 c2; c3)
    @twist g=11 s=2 l=0     c(2,4) d(1,1) bd(F3) c5
    @swap l=0               rho(2,4) rhoA(1,3; c1 c2^-1) sub(c1; F2) M(1) Mb

The header is the @kind token and the key=value tokens after it on its
line: n= (strands; @framed defaults to 4) for @braid and @framed; g=, s=
(default 2) and l= for @twist, where l= names the layout whose subsurface
curves c(i,k), d(i,k), bd(Fi) the word may use and no l= means the plain
chain surface; l= (default 0) for @swap.  Other keys are errors.  n= and
g= are at most MAX_HEADER, l= at most surface.MAX_LAYOUT.

One reader reads every body but @framed's, through the alphabet of its
context: the plain tokens, each with its generator, the letters it stores
per power and its nesting depth, and the group openers, each with the
reader of the rest of its letter.  @braid has b1 ... b(n-1).  @twist has
a token for each curve in surface.curve_table of its surface, and img(.
@swap has rho(i,j) and delta(i,j) for 1 <= i < j <= 4, M(1) to M(4), Mb,
sub( and rhoA(i,j;, whose bodies are @twist words on the subsurface, and
the ; of sub( is followed by one of F1 to F4.  A token outside the
alphabet is unknown, an error at its line and column.

`#` starts a comment running to the end of the line.  Whitespace separates
tokens, and a group's opener (img(, sub(, rhoA(i,j;), each ; and each )
is a token of its own, so whitespace around them is optional; spaces and
tabs next to the ( , ; or ) of a token's indices, as in c(2, 4), read as
absent.  Tokens accept `^k` and `^-k` suffixes with |k| <= MAX_POWER, a
group's ) too, groups nest at most MAX_NESTING deep, and a document
stores at most MAX_LETTERS letters.  Printing is canonical (single
spaces, no comments) and parse(print(d)) == d.
Composition is right to left: the rightmost token acts first, annotated
in printed headers to prevent convention drift.

A @twist body may name a conjugator and use the name in its place:

    @twist g=11 s=2
    V1 = c1 c2 ;
    V2 = c4 img(V1; c3) ;
    img(V2; c5) c3 img(V1; c3)

is img(c4 img(c1 c2; c3); c5) c3 img(c1 c2; c3).  A definition is a name
V<k>, then =, the word's tokens and ;, each a token of its own, so line
ends do not matter.  It stands at the top level of the body, before the
first letter that uses it, and each name is defined once; names are local
to their document.  A named conjugator nests as deep as its definition
written out in place.  The printer writes each distinct conjugator of a
@twist word once, after those of its own conjugators, as V1, V2, ... in
that order, and the letters use the names; @swap bodies write their
conjugators out in place.  The parser reads both forms.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import List, NamedTuple, Tuple

from .braid import BraidWord
from .framed import (FramedBraid, boundary_multitwist_framed, delta_framed,
                     fcompose, fpower, framed_identity, m_framed,
                     rho_framed)
from .surface import (MAX_LAYOUT, DerivedCurve, NamedCurve, SurfaceLayout,
                      SurfaceModel, TwistWord, curve_table)
from .swaps import SwapWord, expansion_size


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class Document(NamedTuple):
    kind: str                  # braid | framed | twist | swap
    value: object              # BraidWord | FramedBraid | TwistWord | SwapWord


# The largest |k| a ^k suffix may carry.  Powers are expanded into letters
# while parsing, so the cap bounds the letters one token can ask for.
MAX_POWER = 1000

# The most letters a document may store, counted before they are built:
# the letters of its body after powers and of each conjugator read,
# defined or inline; a @framed letter counts one plus its braid's letters,
# so Mb counts 1 + n(n-1); a @swap letter counts one plus the letters its
# expansion builds, conjugators' included (swaps.expansion_size).  The cap
# bounds what a few bytes can make the parser, and expand, hold in memory.
# The CLI's largest artifact, `generate boundary --l 22 --m 1000`, counts
# 1,778,532.  Documents just under the cap peaked at 45-390 MB of RSS,
# parsed and for @swap expanded, and 745 MB for verify's two @swap ones.
MAX_LETTERS = 2_000_000

# The largest n= or g= a header may carry.  They size what the tokens are
# read into (strands, surface rank) before any token is read, so the cap
# bounds that memory.
MAX_HEADER = 100

# The deepest parenthesis nesting a letter may have: each group counts one
# level, as does the (...) of a curve token such as c(2,4), and a named
# conjugator counts as its definition written out in place.  The cap is
# checked before each descent into a group's body, so it bounds the stack
# depth of the parser and of the resolution of a derived curve's class.
MAX_NESTING = 100
_TOO_DEEP = f"parentheses nest deeper than the cap {MAX_NESTING}"
_UNBALANCED = "unbalanced parentheses"

# The caps on header values; the keys each kind takes are in _KINDS.
_HEADER_CAPS = {"n": MAX_HEADER, "g": MAX_HEADER, "l": MAX_LAYOUT}
_HEADER_PARAM = re.compile(r"(\w+)=(-?\d+)")


# A token, a comment or one line boundary, for every boundary
# str.splitlines recognises; the whitespace between them is skipped.  A
# token is a group opener (img(, sub( or rhoA(i,j;), a ;, a ) with its ^k,
# a stray (, or a run of other characters with at most one (...) in it,
# such as c(2,4), bd(F3,2) or rho(1,2)^-1.  A blank in its indices not
# next to a ( , ; or ), as in M(1 2), stays in the token.
_LINE_END = "\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
_PLAIN = r"[^\s#();]"
_INDEX = rf"(?:{_PLAIN}|[ \t])*"
_BLANKS = re.compile(r"[ \t]*([(,;)])[ \t]*")
_LEXEME = re.compile(
    rf"(img\(|sub\(|rhoA\({_INDEX};|[;(]|\)(?:\^{_PLAIN}*)?"
    rf"|{_PLAIN}+(?:\({_INDEX}\){_PLAIN}*)?)"
    rf"|#[^{_LINE_END}]*|(\r\n|[{_LINE_END}])")


def _tokenize(text: str):
    """Yield (token, line, column) skipping comments, in one pass over the
    text, so no copy of its lines is held."""
    line, start = 1, 0
    for m in _LEXEME.finditer(text):
        token, end = m.groups()
        if token:
            if " " in token or "\t" in token:
                token = _BLANKS.sub(r"\1", token)
            yield token, line, m.start() - start + 1
        elif end:
            line, start = line + 1, m.end()


def _split_power(tok: str, line: int, col: int) -> Tuple[str, int]:
    """The token's base and the k of its ^k suffix, 1 when there is none."""
    base, caret, exp = tok.partition("^")
    if not caret:
        return base, 1
    if not base:
        raise ParseError("detached power suffix", line, col)
    try:
        k = int(exp)
    except ValueError:
        raise ParseError(f"bad exponent {exp!r}", line, col) from None
    if abs(k) > MAX_POWER:
        raise ParseError(f"exponent {k} exceeds the cap {MAX_POWER}",
                         line, col)
    return base, k


def _parse_header(tokens):
    """(kind, params, body tokens).  The parameters are the key=value tokens
    after the @kind token on its line; the body starts at the first other
    token."""
    first = next(tokens, None)
    if first is None:
        raise ParseError("empty document", 1, 1)
    tok, line, col = first
    if not tok.startswith("@"):
        raise ParseError("missing @-header", line, col)
    kind = tok[1:]
    if kind not in _KINDS:
        raise ParseError(f"unknown document kind @{kind}", line, col)
    params = {}
    for tok, ln, col in tokens:
        m = _HEADER_PARAM.fullmatch(tok) if ln == line else None
        if m is None:
            return kind, params, itertools.chain([(tok, ln, col)], tokens)
        key, value = m.group(1), int(m.group(2))
        if key not in _KINDS[kind][0]:
            raise ParseError(f"@{kind} takes no {key}= parameter", ln, col)
        if value > _HEADER_CAPS.get(key, value):
            raise ParseError(f"{key}={value} exceeds the cap "
                             f"{_HEADER_CAPS[key]}", ln, col)
        params[key] = value
    return kind, params, tokens


# --- the reader -------------------------------------------------------------

class _Alphabet(NamedTuple):
    """The tokens of the words of one document context."""
    what: str               # braid | curve | swap: what an unknown token is
    word: type              # BraidWord | TwistWord | SwapWord
    context: object         # the words' strands, surface or layout
    # token -> (generator, letters stored per power, depth), the count None
    # for a @swap letter, whose expansion is counted when it is read
    letters: dict
    # opener -> the _Reader method that reads the rest of the letter, its
    # body at the level given, and returns the same three and its power
    groups: dict
    spellings: dict         # curve tag or swap kind -> the printed token
    hint: str = ""          # ends the error for an unknown c(, d(, bd( token

    def unknown(self, base: str, ln: int, col: int) -> ParseError:
        hint = self.hint if base.startswith(("c(", "d(", "bd(")) else ""
        return ParseError(f"unknown {self.what} token {base!r}{hint}", ln, col)


_NAME = re.compile(r"V\d+")           # a conjugator's name
_SUBSURFACES = {f"F{i}": i for i in range(1, 5)}  # the Fi of sub(...; Fi)


class _Reader:
    """One document being read: its tokens, the letters it may still
    store, the conjugators read so far, interned by value so that equal
    ones are one object, which the class memo finds fast, and each name
    defined so far with its word and depth."""

    __slots__ = ("toks", "left", "words", "names")

    def __init__(self, toks, words: dict):
        self.toks, self.left, self.words, self.names = (toks, MAX_LETTERS,
                                                         words, {})

    def spend(self, n: int, ln: int, col: int) -> None:
        """Spend the n letters the token at ln:col asks for."""
        self.left -= n
        if self.left < 0:
            raise ParseError(f"the document's letters exceed the cap "
                             f"{MAX_LETTERS}", ln, col)

    def take(self, ln: int, col: int):
        """The next token of the group opened at ln:col."""
        for t in self.toks:
            return t
        raise ParseError(_UNBALANCED, ln, col)

    def close(self, what: str, ln: int, col: int) -> int:
        """The k of the )^k that ends the group opened at ln:col."""
        tok, l, c = self.take(ln, col)
        base, k = _split_power(tok, l, c)
        if base != ")":
            raise ParseError(f"malformed {what}", l, c)
        return k

    def word(self, alphabet: _Alphabet, level: int = 0,
             end: str | None = None, first=(), eof=None):
        """Read a word of the alphabet from first, then the tokens, up to
        its end token: ; or ) for the body of a group, which level groups
        enclose, or None for the top level, which runs to the end of the
        text and alone may define names.  Return the word, how deep its
        letters nest (a named conjugator as its definition written out)
        and the k of the end token.  eof is the (message, line, column) of
        the error to raise when the text ends first."""
        plain, groups = alphabet.letters, alphabet.groups
        letters, depth = [], 0
        for tok, ln, col in itertools.chain(first, self.toks):
            base, k = _split_power(tok, ln, col)
            entry = plain.get(base)
            if entry is not None:
                generator, size, d = entry
            elif base == end:
                return alphabet.word(alphabet.context, letters), depth, k
            elif tok in groups:
                if level == MAX_NESTING:
                    raise ParseError(_TOO_DEEP, ln, col)
                generator, size, d, k = groups[tok](self, alphabet,
                                                    level + 1, ln, col)
            elif alphabet.word is TwistWord and _NAME.fullmatch(tok):
                self.define(alphabet, tok, end, ln, col)
                continue
            else:
                raise alphabet.unknown(base, ln, col)
            if level + d > MAX_NESTING:
                raise ParseError(_TOO_DEEP, ln, col)
            depth = max(depth, d)
            if size is None:
                size = 1 + expansion_size(alphabet.context, generator)[1]
            # spend inline: this loop reads every letter of an artifact,
            # and the call costs more than the count
            n = abs(k)
            self.left -= n * size
            if self.left < 0:
                self.spend(0, ln, col)
            letters += [(generator, 1 if k > 0 else -1)] * n
        if eof:
            raise ParseError(*eof)
        return alphabet.word(alphabet.context, letters), depth, None

    def define(self, alphabet, name, end, ln, col) -> None:
        """Read the definition name = <word> ; whose name is at ln:col."""
        if end is not None:
            raise ParseError(f"{name} stands alone: a name is defined at "
                             f"the top level and used as img({name}; "
                             f"<curve>)", ln, col)
        if next(self.toks, ("",))[0] != "=":
            raise ParseError(f"{name} is not followed by =", ln, col)
        if name in self.names:
            raise ParseError(f"{name} is defined twice", ln, col)
        v, d, _ = self.word(alphabet, 0, ";", (), (
            f"the definition of {name} does not end with ;", ln, col))
        self.names[name] = self.words.setdefault(v, v), d

    def img(self, alphabet, level, ln, col):
        """img(<a name defined before, or a word>; <curve>)^k."""
        tok = self.take(ln, col)
        first = [tok, self.take(ln, col)] if _NAME.fullmatch(tok[0]) else [tok]
        if first[1:] and first[1][0] == ";":  # else word() refuses the name
            name, nl, nc = first[0]
            if name not in self.names:
                raise ParseError(f"{name} is not defined before its use",
                                 nl, nc)
            v, d = self.names[name]
        else:
            v, d, _ = self.word(alphabet, level, ";", first,
                                (_UNBALANCED, ln, col))
            v = self.words.setdefault(v, v)
        tok, bl, bc = self.take(ln, col)
        curve = alphabet.letters.get(tok)
        if curve is None:
            raise alphabet.unknown(tok, bl, bc)
        k = self.close("img(...) token", ln, col)
        return DerivedCurve(curve[0], v), 1, 1 + max(d, curve[2]), k

    def sub(self, alphabet, level, ln, col):
        """sub(<subsurface word>; F<i>)^k."""
        body = _twist_alphabet(alphabet.context.subsurface_model())
        a, d, _ = self.word(body, level, ";", (), (_UNBALANCED, ln, col))
        f, fl, fc = self.take(ln, col)
        i = _SUBSURFACES.get(f)
        if i is None:
            raise ParseError(f"unknown subsurface token {f!r}", fl, fc)
        return ("sub", i, a), None, 1 + d, self.close("swap token", ln, col)

    def rho_a(self, alphabet, level, ln, col, pair):
        """rhoA(i,j; <subsurface word>)^k for the pair (i, j)."""
        body = _twist_alphabet(alphabet.context.subsurface_model())
        a, d, k = self.word(body, level, ")", (), (_UNBALANCED, ln, col))
        v = SwapWord(alphabet.context, ((("sub", pair[0], a), 1),))
        return ("conj", v, ("rho", *pair)), None, 1 + d, k


# --- braid ------------------------------------------------------------------

def _parse_braid(params, reader: _Reader) -> BraidWord:
    n = params.get("n")
    if n is None:
        raise ParseError("braid header needs n=<strands>", 1, 1)
    letters = {f"b{i}": (i, 1, 0) for i in range(1, n)}
    return reader.word(_Alphabet("braid", BraidWord, n, letters, {}, {}))[0]


def _print_braid(w: BraidWord) -> str:
    toks = [f"b{i}" + ("^-1" if s < 0 else "") for i, s in w.letters]
    return f"@braid n={w.strands}\n" + _wrap(toks)


# --- framed -----------------------------------------------------------------

_PAIR_TOK = re.compile(r"(delta|rho)\((\d+),(\d+)\)")
_M_TOK = re.compile(r"M\((\d+)\)")


def _parse_framed(params, reader: _Reader) -> FramedBraid:
    n = params.get("n", 4)
    factors = [framed_identity(n)]
    for tok, ln, col in reader.toks:
        base, k = _split_power(tok, ln, col)
        m = _PAIR_TOK.fullmatch(base)
        mi = _M_TOK.fullmatch(base)
        if not (m or mi or base == "Mb"):
            raise ParseError(f"unknown framed token {base!r}", ln, col)
        try:
            if m:
                fn = delta_framed if m.group(1) == "delta" else rho_framed
                x = fn(int(m.group(2)), int(m.group(3)), n)
            elif mi:
                x = m_framed(int(mi.group(1)), n)
            else:
                x = boundary_multitwist_framed(n)
        except ValueError as exc:
            raise ParseError(str(exc), ln, col) from None
        reader.spend(abs(k) * (1 + len(x.underlying)), ln, col)
        factors.append(fpower(x, k))
    return fcompose(*factors)


def _print_framed(x: FramedBraid) -> str:
    n = x.strands
    toks = [f"delta({i},{i + 1})" + ("^-1" if s < 0 else "")
            for i, s in x.underlying.letters]
    # The M(k) tokens come last, so they act first; their braids are
    # trivial, so each adds its power to strand k's framing on top of what
    # the delta tokens leave there.
    deltas = fcompose(framed_identity(n), *[
        fpower(delta_framed(i, i + 1, n), s) for i, s in x.underlying.letters])
    for k, (want, have) in enumerate(zip(x.framings, deltas.framings), 1):
        c = want - have
        while c:
            step = max(-MAX_POWER, min(MAX_POWER, c))
            toks.append(f"M({k})" + ("" if step == 1 else f"^{step}"))
            c -= step
    return f"@framed n={n}\n" + _wrap(toks)


# --- twist ------------------------------------------------------------------

# Curve tokens: each tag, with None where the spelling's numbers go, in
# order, and its spelling.  A tag whose last entry is fixed is spelled so
# before the free form: the printer writes bd(Fi) for bd(Fi,1).
_CURVE_SPELLINGS = {
    ("chain", None): "c{}",
    ("dcurve", None): "d{}",
    ("boundary", None): "delta{}",
    ("subchain", None, None): "c({},{})",
    ("subdcurve", None, None): "d({},{})",
    ("subboundary", None, 1): "bd(F{})",
    ("subboundary", None, None): "bd(F{},{})",
}


@functools.lru_cache(maxsize=64)   # a run reads and writes a few surfaces
def _twist_alphabet(surface: SurfaceModel) -> _Alphabet:
    """The twist words on the surface: each spelling of each curve in its
    curve_table, with its depth, and img(; the printer writes the first."""
    letters, spellings = {}, {}
    for tag in curve_table(surface):
        curve, free = NamedCurve(tag), (tag[0],) + (None,) * (len(tag) - 1)
        for template in (free[:-1] + tag[-1:], free):
            if template in _CURVE_SPELLINGS:
                token = _CURVE_SPELLINGS[template].format(*tag[1:])
                letters[token] = curve, 1, int("(" in token)
                spellings.setdefault(tag, token)
    return _Alphabet("curve", TwistWord, surface, letters,
                     {"img(": _Reader.img}, spellings)


def _parse_twist(params, reader: _Reader) -> TwistWord:
    g, l = params.get("g"), params.get("l")
    if g is None:
        raise ParseError("twist header needs g=<genus>", 1, 1)
    layout = None if l is None else SurfaceLayout(l)
    alphabet = _twist_alphabet(SurfaceModel(g, params.get("s", 2), layout))
    if layout is None:
        alphabet = alphabet._replace(hint="; a layout curve needs l=<l> in "
                                     "the @twist header")
    return reader.word(alphabet)[0]


def _print_twist_tokens(w: TwistWord, conjugator) -> List[str]:
    """The word's tokens; conjugator(v) spells the conjugator v of each
    img(...) letter."""
    spell = _twist_alphabet(w.surface).spellings
    return [(f"img({conjugator(c.conjugator)}; {spell[c.base.tag]})"
             if isinstance(c, DerivedCurve) else spell[c.tag])
            + ("^-1" if s < 0 else "") for c, s in w.letters]


def _inline(v: TwistWord) -> str:
    """The word's tokens, each conjugator written out in place."""
    return " ".join(_print_twist_tokens(v, _inline))


def _print_twist(w: TwistWord) -> str:
    """The header, then one definition per distinct conjugator, after the
    definitions of its own conjugators, then the word."""
    surface = w.surface
    head = f"@twist g={surface.genus} s={surface.boundary}"
    if surface.layout is not None:
        head += f" l={surface.layout.l}"
    names: dict = {}
    definitions: List[str] = []

    def name(v: TwistWord) -> str:
        k = names.get(v)
        if k is None:
            tokens = _print_twist_tokens(v, name)
            k = names[v] = f"V{len(names) + 1}"
            definitions.append(_wrap([k, "=", *tokens, ";"]))
        return k

    body = _wrap(_print_twist_tokens(w, name))
    return "\n".join([head, *definitions, body])


# --- swap -------------------------------------------------------------------

# Each plain @swap letter once: rho(i,j) and delta(i,j) for the pairs
# 1 <= i < j <= 4, M(1) to M(4) and Mb.
_PAIRS = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
_SWAP_SPELLINGS = {
    **{(name, i, j): f"{name}({i},{j})" for name in ("rho", "delta")
       for i, j in _PAIRS},
    **{("M", i): f"M({i})" for i in range(1, 5)},
    ("Mb",): "Mb",
}
_SWAP = _Alphabet(
    "swap", SwapWord, None,
    {token: (kind, None, 0) for kind, token in _SWAP_SPELLINGS.items()},
    {"sub(": _Reader.sub, **{f"rhoA({i},{j};": functools.partial(
        _Reader.rho_a, pair=(i, j)) for i, j in _PAIRS}},
    _SWAP_SPELLINGS)


def _parse_swap(params, reader: _Reader) -> SwapWord:
    return reader.word(_SWAP._replace(
        context=SurfaceLayout(params.get("l", 0))))[0]


_SUBSURFACE_TOKENS = {i: f for f, i in _SUBSURFACES.items()}


def _print_swap_letter(kind, sign) -> str:
    suffix = "^-1" if sign < 0 else ""
    name = kind[0]
    if name == "sub":
        f = _SUBSURFACE_TOKENS.get(kind[1])
        if f is None:
            raise ValueError(f"unknown subsurface index {kind[1]!r}")
        return f"sub({_inline(kind[2])}; {f})" + suffix
    if name == "conj":
        v, inner = kind[1], kind[2]
        if (len(v.letters) == 1 and v.letters[0][0][0] == "sub"
                and v.letters[0][1] == 1 and inner[0] == "rho"
                and inner[1:] in _PAIRS and v.letters[0][0][1] == inner[1]):
            a = _inline(v.letters[0][0][2])
            return f"rhoA({inner[1]},{inner[2]};{a})" + suffix
        raise ValueError("general conjugated letters have no DSL token")
    if kind not in _SWAP.spellings:
        raise ValueError(f"unknown swap letter {kind!r}")
    return _SWAP.spellings[kind] + suffix


def _print_swap(w: SwapWord) -> str:
    head = f"@swap l={w.layout.l}"
    return head + "\n" + _wrap([_print_swap_letter(k, s) for k, s in w.letters])


# --- public api --------------------------------------------------------------

def _wrap(tokens: List[str], width: int = 78) -> str:
    if not tokens:
        return ""
    lines: List[str] = []
    cur = ""
    for t in tokens:
        if cur and len(cur) + 1 + len(t) > width:
            lines.append(cur)
            cur = t
        else:
            cur = f"{cur} {t}" if cur else t
    lines.append(cur)
    return "\n".join(lines)


# Per document kind: the header keys it takes, its parser and its printer.
_KINDS = {
    "braid": (("n",), _parse_braid, _print_braid),
    "framed": (("n",), _parse_framed, _print_framed),
    "twist": (("g", "s", "l"), _parse_twist, _print_twist),
    "swap": (("l",), _parse_swap, _print_swap),
}


def parse(text: str, conjugators: dict | None = None) -> Document:
    """The document text spells.  conjugators, when given, is the memo of
    the conjugators read so far, each interned by value: documents parsed
    with one such dict share their equal conjugators as one object.  The
    memo is flat, one dict for every surface, since a word's equality
    includes its surface."""
    kind, params, rest = _parse_header(_tokenize(text))
    reader = _Reader(rest, {} if conjugators is None else conjugators)
    return Document(kind, _KINDS[kind][1](params, reader))


def print_document(doc: Document) -> str:
    # composition is right to left in every body; comments are not preserved
    if doc.kind not in _KINDS:
        raise ValueError(f"cannot print documents of kind {doc.kind}")
    return _KINDS[doc.kind][2](doc.value) + "\n"
