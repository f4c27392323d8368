"""The word DSL: parsing and printing of braid, framed, twist, and swap
words.

A document is a header line followed by whitespace-separated tokens:

    @braid n=6          b1 b2^-1 b3^2
    @framed n=4         delta(1,2) rho(2,3)^-1 Mb M(2)
    @twist g=11 s=2     c3 d1^-1 delta1 c(2,4) img(c1 c2; c3)
    @swap l=0           rho(2,4) rhoA(1,3; c1 c2^-1) sub(c1; F2) M(1) Mb

`#` starts a comment running to the end of the line.  Header values n=,
g= and l= are at most MAX_HEADER.  Tokens accept `^k` and `^-k` suffixes
with |k| <= MAX_POWER.  Printing is canonical (single spaces, no comments)
and parse(print(d)) == d.  Composition is right to left: the rightmost
token acts first, annotated in printed headers to prevent convention
drift.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

from .braid import BraidWord
from .framed import (FramedBraid, boundary_multitwist_framed, delta_framed,
                     fcompose, fpower, framed_identity, m_framed,
                     rho_framed)
from .surface import (DerivedCurve, NamedCurve, SurfaceModel, TwistWord)
from .swaps import SurfaceLayout, SwapWord


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Document:
    kind: str                  # braid | framed | twist | swap
    value: object              # BraidWord | FramedBraid | TwistWord | SwapWord


_TOKEN = re.compile(r"\S+")

# The largest |k| a ^k suffix may carry.  Powers are expanded into letters
# while parsing, so the cap bounds the memory one token can ask for.
MAX_POWER = 1000

# The largest n=, g= or l= a header may carry.  They size what the tokens
# are read into (strands, surface rank, layout) before any token is read,
# so the cap bounds that memory.
MAX_HEADER = 100


def _tokenize(text: str):
    """Yield (token, line, column) skipping comments."""
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for m in _TOKEN.finditer(body):
            yield m.group(0), ln, m.start() + 1


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


def _parse_header(tokens, text):
    try:
        first = next(tokens)
    except StopIteration:
        raise ParseError("empty document", 1, 1) from None
    tok, ln, col = first
    if not tok.startswith("@"):
        raise ParseError("missing @-header", ln, col)
    kind = tok[1:]
    params = {}
    rest = []
    for tok2, ln2, col2 in tokens:
        m = re.fullmatch(r"(\w+)=(-?\d+)", tok2)
        if m and ln2 == ln and not rest:
            key, value = m.group(1), int(m.group(2))
            if key in ("n", "g", "l") and value > MAX_HEADER:
                raise ParseError(f"{key}={value} exceeds the cap "
                                 f"{MAX_HEADER}", ln2, col2)
            params[key] = value
        else:
            rest.append((tok2, ln2, col2))
    return kind, params, rest


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
    out = framed_identity(n)
    for tok, ln, col in toks:
        base, k = _split_power(tok, ln, col)
        m = _PAIR_TOK.fullmatch(base)
        if m:
            fn = delta_framed if m.group(1) == "delta" else rho_framed
            try:
                x = fn(int(m.group(2)), int(m.group(3)), n)
            except ValueError as exc:
                raise ParseError(str(exc), ln, col) from None
        elif _M_TOK.fullmatch(base):
            x = m_framed(int(_M_TOK.fullmatch(base).group(1)), n)
        elif base == "Mb":
            x = boundary_multitwist_framed(n)
        else:
            raise ParseError(f"unknown framed token {base!r}", ln, col)
        out = fcompose(out, fpower(x, k))
    return out


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

def _curve_of_token(base: str, ln: int, col: int):
    m = re.fullmatch(r"c(\d+)", base)
    if m:
        return NamedCurve(("chain", int(m.group(1))))
    m = re.fullmatch(r"d(\d+)", base)
    if m:
        return NamedCurve(("dcurve", int(m.group(1))))
    m = re.fullmatch(r"delta(\d+)", base)
    if m:
        return NamedCurve(("boundary", int(m.group(1))))
    m = re.fullmatch(r"c\((\d+),(\d+)\)", base)
    if m:
        return NamedCurve(("subchain", int(m.group(1)), int(m.group(2))))
    m = re.fullmatch(r"d\((\d+),(\d+)\)", base)
    if m:
        return NamedCurve(("subdcurve", int(m.group(1)), int(m.group(2))))
    m = re.fullmatch(r"bd\(F(\d+)\)", base)
    if m:
        return NamedCurve(("subboundary", int(m.group(1)), 1))
    m = re.fullmatch(r"bd\(F(\d+),(\d+)\)", base)
    if m:
        return NamedCurve(("subboundary", int(m.group(1)), int(m.group(2))))
    raise ParseError(f"unknown curve token {base!r}", ln, col)


def _parse_twist_tokens(surface: SurfaceModel, toks) -> TwistWord:
    letters = []
    stream = list(toks)
    i = 0
    while i < len(stream):
        tok, ln, col = stream[i]
        if tok.startswith("img("):
            # img(<word>; <curve>) possibly spanning tokens
            joined, j = _join_until(stream, i, ln, col)
            m = re.fullmatch(r"img\((.*);(.*)\)(?:\^(-?\d+))?", joined)
            if not m:
                raise ParseError("malformed img(...) token", ln, col)
            inner = _parse_twist_tokens(
                surface, [(t, ln, col) for t in m.group(1).split()])
            curve = DerivedCurve(_curve_of_token(m.group(2).strip(), ln, col),
                                 inner)
            letters.extend(_repeat(curve, _exponent(m.group(3), ln, col)))
            i = j + 1
            continue
        base, k = _split_power(tok, ln, col)
        letters.extend(_repeat(_curve_of_token(base, ln, col), k))
        i += 1
    return TwistWord(surface, letters)


def _join_until(stream, i, ln, col):
    """Join tokens from i until parentheses balance."""
    depth = 0
    parts = []
    for j in range(i, len(stream)):
        t = stream[j][0]
        parts.append(t)
        depth += t.count("(") - t.count(")")
        if depth == 0:
            return " ".join(parts), j
    raise ParseError("unbalanced parentheses", ln, col)


def _parse_twist(params, toks) -> TwistWord:
    g = params.get("g")
    s = params.get("s", 2)
    if g is None:
        raise ParseError("twist header needs g=<genus>", 1, 1)
    return _parse_twist_tokens(SurfaceModel(g, s), toks)


def _print_curve(curve) -> str:
    if isinstance(curve, DerivedCurve):
        inner = " ".join(_print_twist_tokens(curve.conjugator))
        return f"img({inner}; {_print_curve(curve.base)})"
    tag = curve.tag
    if tag[0] == "chain":
        return f"c{tag[1]}"
    if tag[0] == "dcurve":
        return f"d{tag[1]}"
    if tag[0] == "boundary":
        return f"delta{tag[1]}"
    if tag[0] == "subchain":
        return f"c({tag[1]},{tag[2]})"
    if tag[0] == "subdcurve":
        return f"d({tag[1]},{tag[2]})"
    if tag[0] == "subboundary":
        return f"bd(F{tag[1]})" if tag[2] == 1 else f"bd(F{tag[1]},{tag[2]})"
    raise ValueError(f"curve {tag} has no DSL token")


def _print_twist_tokens(w: TwistWord) -> List[str]:
    return [_print_curve(c) + ("^-1" if s < 0 else "") for c, s in w.letters]


def _print_twist(w: TwistWord) -> str:
    head = f"@twist g={w.surface.genus} s={w.surface.boundary}"
    return head + "\n" + _wrap(_print_twist_tokens(w))


# --- swap -------------------------------------------------------------------

def _parse_swap(params, toks) -> SwapWord:
    l = params.get("l", 0)
    layout = SurfaceLayout(l)
    sub = layout.subsurface_model()
    letters = []
    stream = list(toks)
    i = 0
    while i < len(stream):
        tok, ln, col = stream[i]
        if tok.startswith(("rhoA(", "sub(")):
            joined, j = _join_until(stream, i, ln, col)
            i = j + 1
            m = re.fullmatch(r"rhoA\((\d+),(\d+);(.*)\)(?:\^(-?\d+))?",
                             joined)
            if m:
                a = _parse_twist_tokens(
                    sub, [(t, ln, col) for t in m.group(3).split()])
                v = SwapWord(layout, ((("sub", int(m.group(1)), a), 1),))
                kind = ("conj", v, ("rho", int(m.group(1)), int(m.group(2))))
                k = _exponent(m.group(4), ln, col)
            else:
                m = re.fullmatch(r"sub\((.*);\s*F(\d+)\)(?:\^(-?\d+))?",
                                 joined)
                if not m:
                    raise ParseError("malformed swap token", ln, col)
                a = _parse_twist_tokens(
                    sub, [(t, ln, col) for t in m.group(1).split()])
                kind = ("sub", int(m.group(2)), a)
                k = _exponent(m.group(3), ln, col)
            letters.extend(_repeat(kind, k))
            continue
        base, k = _split_power(tok, ln, col)
        m = re.fullmatch(r"(rho|delta)\((\d+),(\d+)\)", base)
        if m:
            kind = (m.group(1), int(m.group(2)), int(m.group(3)))
            if not 1 <= kind[1] < kind[2] <= 4:
                raise ParseError(f"bad swap pair {base}", ln, col)
        elif _M_TOK.fullmatch(base):
            kind = ("M", int(_M_TOK.fullmatch(base).group(1)))
        elif base == "Mb":
            kind = ("Mb",)
        else:
            raise ParseError(f"unknown swap token {base!r}", ln, col)
        letters.extend(_repeat(kind, k))
        i += 1
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
        inner = " ".join(_print_twist_tokens(kind[2]))
        return f"sub({inner}; F{kind[1]})" + suffix
    if name == "conj":
        v, inner = kind[1], kind[2]
        if (len(v.letters) == 1 and v.letters[0][0][0] == "sub"
                and v.letters[0][1] == 1 and inner[0] == "rho"
                and v.letters[0][0][1] == inner[1]):
            a = " ".join(_print_twist_tokens(v.letters[0][0][2]))
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


def parse(text: str) -> Document:
    tokens = _tokenize(text)
    kind, params, rest = _parse_header(tokens, text)
    if kind == "braid":
        return Document("braid", _parse_braid(params, rest))
    if kind == "framed":
        return Document("framed", _parse_framed(params, rest))
    if kind == "twist":
        return Document("twist", _parse_twist(params, rest))
    if kind == "swap":
        return Document("swap", _parse_swap(params, rest))
    raise ParseError(f"unknown document kind @{kind}", 1, 1)


def print_document(doc: Document) -> str:
    # composition is right to left in every body; comments are not preserved
    if doc.kind == "braid":
        return _print_braid(doc.value) + "\n"
    if doc.kind == "framed":
        return _print_framed(doc.value) + "\n"
    if doc.kind == "twist":
        return _print_twist(doc.value) + "\n"
    if doc.kind == "swap":
        return _print_swap(doc.value) + "\n"
    raise ValueError(f"cannot print documents of kind {doc.kind}")
