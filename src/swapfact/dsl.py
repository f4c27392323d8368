"""The word DSL: parsing and printing of braid, framed, twist, and swap
words.

A document is a header line followed by whitespace-separated tokens:

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

`#` starts a comment running to the end of the line.  Tokens accept `^k`
and `^-k` suffixes with |k| <= MAX_POWER, and parentheses nest at most
MAX_NESTING deep.  Printing is canonical (single spaces, no comments) and
parse(print(d)) == d.  Composition is right to left: the rightmost token
acts first, annotated in printed headers to prevent convention drift.

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
                      SurfaceModel, TwistWord)
from .swaps import SwapWord


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class Document(NamedTuple):
    kind: str                  # braid | framed | twist | swap
    value: object              # BraidWord | FramedBraid | TwistWord | SwapWord


_TOKEN = re.compile(r"\S+")

# The largest |k| a ^k suffix may carry.  Powers are expanded into letters
# while parsing, so the cap bounds the memory one token can ask for.
MAX_POWER = 1000

# The largest n= or g= a header may carry.  They size what the tokens are
# read into (strands, surface rank) before any token is read, so the cap
# bounds that memory.
MAX_HEADER = 100

# The deepest parenthesis nesting a token group may have, counted paren by
# paren, within tokens too.  The body of each img(...) is parsed by a
# recursive call that reads its own copy of the body's text.  A body is
# reached only after the tokens before it parsed, and those balance, so each
# level of recursion sits one parenthesis deeper in the outermost group: the
# cap bounds the parser's stack depth and its memory.  A letter whose
# conjugator is named is counted as the definition written out in place;
# the class of a derived curve is resolved by a recursion that deep.
MAX_NESTING = 100

# The caps on header values; the keys each kind takes are in _KINDS.
_HEADER_CAPS = {"n": MAX_HEADER, "g": MAX_HEADER, "l": MAX_LAYOUT}
_HEADER_PARAM = re.compile(r"(\w+)=(-?\d+)")


# A token, a comment or one line boundary, for every boundary
# str.splitlines recognises; the whitespace between them is skipped.
_LINE_END = "\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
_LEXEME = re.compile(rf"([^\s#]+)|#[^{_LINE_END}]*|(\r\n|[{_LINE_END}])")


def _tokenize(text: str):
    """Yield (token, line, column) skipping comments, in one pass over the
    text, so no copy of its lines is held."""
    line, start = 1, 0
    for m in _LEXEME.finditer(text):
        token, end = m.groups()
        if token:
            yield token, line, m.start() - start + 1
        elif end:
            line, start = line + 1, m.end()


def _exponent(exp: str | None, line: int, col: int) -> int:
    """The k of a ^k suffix, 1 when there is none."""
    if exp is None:
        return 1
    try:
        k = int(exp)
    except ValueError:
        raise ParseError(f"bad exponent {exp!r}", line, col) from None
    if abs(k) > MAX_POWER:
        raise ParseError(f"exponent {k} exceeds the cap {MAX_POWER}",
                         line, col)
    return k


def _split_power(tok: str, line: int, col: int) -> Tuple[str, int]:
    base, caret, exp = tok.partition("^")
    if caret and not base:
        raise ParseError("detached power suffix", line, col)
    return base, _exponent(exp if caret else None, line, col)


def _repeat(generator, k: int) -> list:
    """The letters of generator^k."""
    return [(generator, 1 if k > 0 else -1)] * abs(k)


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


# --- braid ------------------------------------------------------------------

_BRAID_TOK = re.compile(r"b(\d+)")


def _parse_braid(params, toks) -> BraidWord:
    n = params.get("n")
    if n is None:
        raise ParseError("braid header needs n=<strands>", 1, 1)
    letters: list = []
    for tok, ln, col in toks:
        base, k = _split_power(tok, ln, col)
        m = _BRAID_TOK.fullmatch(base)
        if not m:
            raise ParseError(f"unknown braid token {base!r}", ln, col)
        i = int(m.group(1))
        if not 1 <= i < n:
            raise ParseError(f"generator b{i} out of range for n={n}", ln, col)
        letters.extend(_repeat(i, k))
    return BraidWord(n, letters)


def _print_braid(w: BraidWord) -> str:
    toks = [f"b{i}" + ("^-1" if s < 0 else "") for i, s in w.letters]
    return f"@braid n={w.strands}\n" + _wrap(toks)


# --- framed -----------------------------------------------------------------

_PAIR_TOK = re.compile(r"(delta|rho)\((\d+),(\d+)\)")
_M_TOK = re.compile(r"M\((\d+)\)")


def _parse_framed(params, toks) -> FramedBraid:
    n = params.get("n", 4)
    factors = [framed_identity(n)]
    for tok, ln, col in toks:
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

# Curve tokens: each spelling and the tag it reads to, with None where the
# spelling's numbers go, in order.  The printer prefers a spelling that
# fixes the tag's last entry (bd(Fi) is bd(Fi,1)).
_CURVE_SPELLINGS = {
    "c{}": ("chain", None),
    "d{}": ("dcurve", None),
    "delta{}": ("boundary", None),
    "c({},{})": ("subchain", None, None),
    "d({},{})": ("subdcurve", None, None),
    "bd(F{})": ("subboundary", None, 1),
    "bd(F{},{})": ("subboundary", None, None),
}
# A token's literal parts joined by "#", which no token contains (it starts
# a comment), so a match fixes how many numbers the token has.
_TAG_OF_SHAPE = {sp.replace("{}", "#"): tag
                 for sp, tag in _CURVE_SPELLINGS.items()}
_SPELLING_OF_TAG = {tag: sp for sp, tag in _CURVE_SPELLINGS.items()}
_NUMBERS = re.compile(r"(\d+)")


def _curve_of_token(base: str, ln: int, col: int) -> NamedCurve:
    curve = _named_curve(base)
    if curve is None:
        raise ParseError(f"unknown curve token {base!r}", ln, col)
    return curve


@functools.lru_cache(maxsize=1024)   # words repeat a few hundred tokens
def _named_curve(base: str) -> NamedCurve | None:
    """The curve the token spells, None when it spells none."""
    parts = _NUMBERS.split(base)
    template = _TAG_OF_SHAPE.get("#".join(parts[0::2]))
    if template is None:
        return None
    numbers = map(int, parts[1::2])
    return NamedCurve(tuple(next(numbers) if x is None else x
                            for x in template))


def _groups(toks, openers):
    """Yield each (token, line, column) as it is, except that a token
    starting with one of openers is joined by single spaces with the tokens
    after it, up to the one that balances its parentheses."""
    toks = iter(toks)
    for tok, ln, col in toks:
        if tok.startswith(openers):
            parts, depth = [], 0
            for t, _, _ in itertools.chain([(tok, ln, col)], toks):
                parts.append(t)
                opens = t.count("(")
                # t reaches at most opens deeper; only then count paren by
                # paren
                if depth + opens > MAX_NESTING \
                        and depth + _deepest(t) > MAX_NESTING:
                    raise ParseError(f"parentheses nest deeper than the cap "
                                     f"{MAX_NESTING}", ln, col)
                depth += opens - t.count(")")
                if depth == 0:
                    break
            else:
                raise ParseError("unbalanced parentheses", ln, col)
            tok = " ".join(parts)
        yield tok, ln, col


def _deepest(t: str) -> int:
    """How many parentheses deep t reaches, read left to right."""
    return max(itertools.accumulate((c == "(") - (c == ")")
                                    for c in t if c in "()"), default=0)


def _body(text: str, ln: int, col: int):
    """The grouped tokens of a twist word written in a group's body, each
    at the group's position."""
    return _groups(((m.group(0), ln, col) for m in _TOKEN.finditer(text)),
                   ("img(",))


# A conjugator's name, and an img(<conjugator>; <curve>) letter.
_NAME = re.compile(r"V\d+")
_IMG = re.compile(r"img\((.*);(.*)\)(?:\^(-?\d+))?")


def _parse_twist_tokens(surface: SurfaceModel, groups, words: dict,
                        names: dict, top: bool = False
                        ) -> Tuple[TwistWord, int]:
    """The word the grouped tokens spell and how deep its img(...) letters
    nest, counted as MAX_NESTING counts parentheses: a named conjugator
    counts as its definition written out in place.  The class resolution
    recurses that deep.

    words interns the conjugators read so far by value: equal conjugators
    become one object, which the class memo finds fast.  names maps each
    name defined so far, and each conjugator written out in an img(...)
    letter so far, to its word and depth.  Only the top level (top) may
    define a name."""
    letters, depth = [], 0
    for tok, ln, col in groups:
        if tok.startswith("img("):
            m = _IMG.fullmatch(tok)
            if not m:
                raise ParseError("malformed img(...) token", ln, col)
            body = m.group(1).strip()
            known = names.get(body)
            if known is None:
                if _NAME.fullmatch(body):
                    raise ParseError(f"{body} is not defined before its use",
                                     ln, col)
                inner, d = _parse_twist_tokens(
                    surface, _body(body, ln, col), words, names)
                known = names[body] = words.setdefault(inner, inner), d
            inner, d = known
            base = m.group(2).strip()
            d = 1 + max(d, "(" in base)
            if d > MAX_NESTING:
                raise ParseError(f"img(...) letters nest deeper than the cap "
                                 f"{MAX_NESTING}, through definitions", ln, col)
            curve = DerivedCurve(_curve_of_token(base, ln, col), inner)
            k = _exponent(m.group(3), ln, col)
        elif _NAME.fullmatch(tok):
            if not top:
                raise ParseError(f"{tok} stands alone: a name is defined at "
                                 f"the top level and used as img({tok}; "
                                 f"<curve>)", ln, col)
            if next(groups, ("",))[0] != "=":
                raise ParseError(f"{tok} is not followed by =", ln, col)
            if tok in names:
                raise ParseError(f"{tok} is defined twice", ln, col)
            v, d = _parse_twist_tokens(
                surface, _definition(groups, tok, ln, col), words, names)
            names[tok] = words.setdefault(v, v), d
            continue
        else:
            base, k = _split_power(tok, ln, col)
            curve = _curve_of_token(base, ln, col)
            d = "(" in base
        depth = max(depth, d)
        letters.extend(_repeat(curve, k))
    return TwistWord(surface, letters), depth


def _definition(groups, name: str, ln: int, col: int):
    """The grouped tokens of name's definition, up to the ; that ends it."""
    for group in groups:
        if group[0] == ";":
            return
        yield group
    raise ParseError(f"the definition of {name} does not end with ;", ln, col)


def _parse_twist(params, toks, conjugators=None) -> TwistWord:
    g, l = params.get("g"), params.get("l")
    if g is None:
        raise ParseError("twist header needs g=<genus>", 1, 1)
    layout = None if l is None else SurfaceLayout(l)
    surface = SurfaceModel(g, params.get("s", 2), layout)
    words = {} if conjugators is None else conjugators.setdefault(surface,
                                                                  {})
    return _parse_twist_tokens(surface, _groups(toks, ("img(",)), words, {},
                               top=True)[0]


@functools.lru_cache(maxsize=1024)   # words repeat a few hundred tags
def _spell(tag: tuple) -> str:
    free = (tag[0],) + (None,) * (len(tag) - 1)
    for template in (free[:-1] + tag[-1:], free):
        spelling = _SPELLING_OF_TAG.get(template)
        if spelling is not None:
            return spelling.format(*(x for x, t in zip(tag, template)
                                     if t is None))
    raise ValueError(f"curve {tag} has no DSL token")


def _print_twist_tokens(w: TwistWord, conjugator) -> List[str]:
    """The word's tokens; conjugator(v) spells the conjugator v of each
    img(...) letter."""
    return [(f"img({conjugator(c.conjugator)}; {_spell(c.base.tag)})"
             if isinstance(c, DerivedCurve) else _spell(c.tag))
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

def _parse_swap(params, toks) -> SwapWord:
    l = params.get("l", 0)
    layout = SurfaceLayout(l)
    sub = layout.subsurface_model()
    letters = []
    for tok, ln, col in _groups(toks, ("rhoA(", "sub(")):
        if tok.startswith(("rhoA(", "sub(")):
            m = re.fullmatch(r"rhoA\((\d+),(\d+);(.*)\)(?:\^(-?\d+))?", tok)
            if m:
                i, j = int(m.group(1)), int(m.group(2))
                if not 1 <= i < j <= 4:
                    raise ParseError(f"bad swap pair rhoA({i},{j})", ln, col)
                a = _parse_twist_tokens(sub, _body(m.group(3), ln, col),
                                        {}, {})[0]
                v = SwapWord(layout, ((("sub", i, a), 1),))
                kind = ("conj", v, ("rho", i, j))
                k = _exponent(m.group(4), ln, col)
            else:
                m = re.fullmatch(r"sub\((.*);\s*F(\d+)\)(?:\^(-?\d+))?", tok)
                if not m:
                    raise ParseError("malformed swap token", ln, col)
                i = int(m.group(2))
                if not 1 <= i <= 4:
                    raise ParseError(f"no subsurface F{i}", ln, col)
                a = _parse_twist_tokens(sub, _body(m.group(1), ln, col),
                                        {}, {})[0]
                kind = ("sub", i, a)
                k = _exponent(m.group(3), ln, col)
        else:
            base, k = _split_power(tok, ln, col)
            m = _PAIR_TOK.fullmatch(base)
            if m:
                kind = (m.group(1), int(m.group(2)), int(m.group(3)))
                if not 1 <= kind[1] < kind[2] <= 4:
                    raise ParseError(f"bad swap pair {base}", ln, col)
            elif _M_TOK.fullmatch(base):
                kind = ("M", int(_M_TOK.fullmatch(base).group(1)))
                if not 1 <= kind[1] <= 4:
                    raise ParseError(f"no subsurface boundary {base}", ln, col)
            elif base == "Mb":
                kind = ("Mb",)
            else:
                raise ParseError(f"unknown swap token {base!r}", ln, col)
        letters.extend(_repeat(kind, k))
    return SwapWord(layout, letters)


def _print_swap_letter(kind, sign) -> str:
    suffix = "^-1" if sign < 0 else ""
    name = kind[0]
    if name in ("rho", "delta"):
        return f"{name}({kind[1]},{kind[2]})" + suffix
    if name == "M":
        return f"M({kind[1]})" + suffix
    if name == "Mb":
        return "Mb" + suffix
    if name == "sub":
        return f"sub({_inline(kind[2])}; F{kind[1]})" + suffix
    if name == "conj":
        v, inner = kind[1], kind[2]
        if (len(v.letters) == 1 and v.letters[0][0][0] == "sub"
                and v.letters[0][1] == 1 and inner[0] == "rho"
                and v.letters[0][0][1] == inner[1]):
            a = _inline(v.letters[0][0][2])
            return f"rhoA({inner[1]},{inner[2]};{a})" + suffix
        raise ValueError("general conjugated letters have no DSL token")
    raise ValueError(f"unknown swap letter {kind!r}")


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
    """The document text spells.  conjugators, when given, maps each
    surface to the img(...) conjugators read on it so far: documents parsed
    with one such dict share their equal conjugators as one object."""
    kind, params, rest = _parse_header(_tokenize(text))
    if kind == "twist":
        return Document(kind, _parse_twist(params, rest, conjugators))
    return Document(kind, _KINDS[kind][1](params, rest))


def print_document(doc: Document) -> str:
    # composition is right to left in every body; comments are not preserved
    if doc.kind not in _KINDS:
        raise ValueError(f"cannot print documents of kind {doc.kind}")
    return _KINDS[doc.kind][2](doc.value) + "\n"
