"""Command line interface.

Commands:
    nf FILE                          Garside normal form of a braid word file
    lift FILE -o OUT                 branched lift of a braid word file
    generate phi|boundary|extend|commutator ...
    verify FILE1 FILE2 [--tier ...]  compare two word files
    invariants FILE                  fibration invariant report

Exit codes: 0 pass, 1 usage or parse error, or a report whose reader
closed the pipe, 2 relation refuted, 3 requested tier cannot decide the
comparison.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

from . import __version__
from .braid import equal, normal_form
from .constructions import (PositiveFactorization,
                            boundary_multitwist_factorization,
                            commutator_relation, extend_to_genus, phi,
                            phi_factorization)
from .dsl import (MAX_HEADER, MAX_POWER, Document, ParseError, parse,
                  print_document)
from .framed import framed_equal
from .invariants import fibration_invariants
from .lift import lift as branched_lift
from .surface import MAX_LAYOUT, HomologyCalculator, SurfaceModel, TwistWord
from .swaps import expand, has_subsurface_letters, shadow

REPORT_SCHEMA = 1

# The largest target genus of `generate extend`: dsl.MAX_HEADER, the
# largest genus a @twist header may name.  The extension adds
# (2g+1)(2g+2) - 552 letters whose conjugators are prefixes of one word;
# the artifact defines each distinct conjugator once.  At genus 100
# (40,154 letters, 0.6 MB) a shared 2-vCPU host took 2.9 s to generate
# it, 3.2 s for `invariants` of it (1 s checks its action) and 3.8 s to
# `verify` it against the boundary multitwist (medians of three runs).
MAX_GENUS = MAX_HEADER


class Refusal(Exception):
    """A command declines its input: main writes the message on stderr and
    exits with the code.  Not a ValueError: main reports those as errors."""
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _read(path: str, conjugators: dict | None = None) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read(), conjugators)


def _read_value(args, kind: str):
    """The value of the document args.file, which must be of the kind."""
    doc = _read(args.file)
    if doc.kind != kind:
        raise Refusal(f"{args.command} expects a @{kind} file")
    return doc.value


def _write(path: str, doc: Document) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_document(doc))


def _cmd_nf(args):
    nf = normal_form(_read_value(args, "braid"))
    return 0, [("strands", nf.strands), ("infimum", nf.infimum),
               ("canonical_length", nf.canonical_length()),
               *((f"factor_{k}", " ".join(str(x + 1) for x in f))
                 for k, f in enumerate(nf.factors, start=1))]


def _cmd_lift(args):
    lifted = branched_lift(_read_value(args, "braid"))
    _write(args.output, Document("twist", lifted))
    return 0, None


def _cmd_generate(args):
    if args.l and args.family in ("extend", "commutator"):
        raise Refusal("--l applies to phi and boundary, not to "
                      f"{args.family}")
    if args.genus is not None and args.family != "extend":
        raise Refusal(f"--genus applies to extend, not to {args.family}")
    target, verdict = None, "verified"      # target None: the identity
    if args.family == "commutator":
        lhs, rhs = commutator_relation(args.m, seed=args.seed)
        word, family = lhs * rhs, f"commutator m={args.m}"
        verdict = "homology_identity"
    else:
        if args.family == "phi":
            fact = phi_factorization(args.m, args.l, seed=args.seed)
            target = expand(phi(args.l))
        elif args.family == "boundary":
            fact = boundary_multitwist_factorization(args.m, args.l,
                                                     seed=args.seed)
        else:
            base = boundary_multitwist_factorization(args.m, seed=args.seed)
            genus = 12 if args.genus is None else args.genus
            fact = extend_to_genus(genus, base)
        word, family = fact.word, fact.description
    calc = HomologyCalculator(word.surface)
    ok = (calc.is_identity_action(word) if target is None
          else calc.verify_homologically(word, target))
    _write(args.output, Document("twist", word))
    return (0 if ok else 2), [("family", family), ("letters", len(word)),
                              (verdict, "pass" if ok else "FAIL")]


class Verdict(NamedTuple):
    """verify's outcome: the deciding tier, its verdict and exit code."""
    tier: str
    verdict: str
    code: int


def _decide(kind: str, a, b, tier: str) -> Verdict:
    """The verdict on a = b for two words of one kind at the requested
    tier.  A swap pair is decided as its shadows' framed pair or its
    expansions' twist pair.  Refusal code 3: the tier cannot decide the
    pair; code 1: the words share no surface."""
    if kind == "braid":
        if tier not in ("exact", "auto"):
            raise Refusal("braid words support only the exact tier", 3)
        ok = equal(a, b)
        return Verdict("exact", "equal" if ok else "refuted", 0 if ok else 2)
    if kind == "framed":
        if tier not in ("framed", "exact", "auto"):
            raise Refusal("framed words support only the framed tier", 3)
        ok = framed_equal(a, b)
        return Verdict("framed", "equal" if ok else "refuted", 0 if ok else 2)
    if kind == "swap":
        if a.layout != b.layout:
            raise Refusal("swap words on different layouts")
        # the shadow of a subsurface letter is the identity, so the framed
        # tier decides only pairs without one
        blind = has_subsurface_letters(a) or has_subsurface_letters(b)
        if tier == "framed" and blind:
            raise Refusal("tier-insufficient: the framed shadow cannot see "
                          "subsurface letters (sub, rhoA); use --tier "
                          "homology", 3)
        if tier == "framed" or (tier == "auto" and not blind):
            return _decide("framed", shadow(a), shadow(b), "framed")
        if tier in ("homology", "auto"):
            return _decide("twist", expand(a), expand(b), "homology")
        raise Refusal("swap words: use --tier framed or homology", 3)
    # twist words: only the homological necessary condition is available
    if tier == "exact":
        raise Refusal("tier-insufficient: the exact mapping class group word "
                      "problem is out of scope; homology refutes but cannot "
                      "certify", 3)
    if tier == "framed":
        raise Refusal("tier-insufficient: twist words have no framed shadow; "
                      "use --tier homology", 3)
    # a plain word is read with the layout the other word names
    surface = a.surface if a.surface.layout is not None else b.surface
    if {a.surface, b.surface} - {surface, SurfaceModel(surface.genus,
                                                       surface.boundary)}:
        raise Refusal("twist words on different surfaces or layouts")
    a, b = (TwistWord(surface, w.letters) for w in (a, b))
    calc = HomologyCalculator(surface)
    if not calc.verify_homologically(a, b):
        return Verdict("homology", "refuted", 2)
    if _radical_signature(a, calc) != _radical_signature(b, calc):
        return Verdict("homology", "tier-insufficient (the words differ in "
                       "twists about radical classes, which homology cannot "
                       "distinguish; boundary twists act trivially on "
                       "absolute H_1)", 3)
    return Verdict("homology", "consistent (a necessary condition only, not "
                   "a proof of equality)", 0)


def _cmd_verify(args):
    # one conjugator memo for both files, so the class memo finds their
    # equal conjugators by identity instead of letter by letter
    conjugators: dict = {}
    d1, d2 = (_read(path, conjugators) for path in (args.file1, args.file2))
    if d1.kind != d2.kind:
        raise Refusal("cannot compare documents of different kinds")
    v = _decide(d1.kind, d1.value, d2.value, args.tier)
    return v.code, [("tier", v.tier), ("verdict", v.verdict)]


def _radical_signature(word, calc):
    """Signed count of letters whose class lies in the radical of the
    intersection form, that is, whose covector is zero: exactly what the
    homology action cannot see."""
    return sum(sign for curve, sign in word.letters
               if not calc.sparse(calc.curve_class(curve))[1])


def _cmd_invariants(args):
    word = _read_value(args, "twist")
    if not word.is_positive():
        raise Refusal("invariants expects an all-positive factorization")
    calc = HomologyCalculator(word.surface)      # the check generate makes
    if not calc.is_identity_action(word):
        raise Refusal("invariants expects a factorization of the boundary "
                      "multitwist, which acts as the identity on H_1", 2)
    fact = PositiveFactorization(word, None, "input file",
                                 ("input",) * len(word))
    inv = fibration_invariants(fact, calc)
    return 0, [("genus", inv.genus), ("n_cycles", inv.n_cycles),
               ("euler_closed", inv.euler_closed),
               ("euler_filling", inv.euler_filling), ("b1", inv.b1),
               ("torsion", ",".join(map(str, inv.torsion)) or "none"),
               ("endo_sigma_num", inv.endo_sigma.numerator),
               ("endo_sigma_den", inv.endo_sigma.denominator),
               ("hyperelliptic_verdict", inv.hyperelliptic_verdict)]


def _at_most(cap: int):
    """argparse type: an int no larger than cap."""
    def value(text: str) -> int:
        k = int(text)
        if k > cap:
            raise argparse.ArgumentTypeError(f"{k} exceeds the cap {cap}")
        return k
    return value


def main(argv=None) -> int:
    top = argparse.ArgumentParser(
        prog="swapfact",
        description="Exact swap-map calculus: positive Dehn twist "
                    "factorizations and their machine verification.")
    top.add_argument("--version", action="version", version=__version__)
    top.add_argument("--seed", type=int, default=0,
                     help="rotates the order in which the deterministic psi "
                          "search tries its 12 generators, which can pick "
                          "another certificate; seeds equal mod 12 give the "
                          "same output (default 0)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="Garside normal form of a braid word")
    p.add_argument("file")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("lift", help="branched double cover lift")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("generate", help="generate a factorization family")
    p.add_argument("family", choices=["phi", "boundary", "extend",
                                      "commutator"])
    p.add_argument("--m", type=_at_most(MAX_POWER), default=0)
    p.add_argument("--l", type=_at_most(MAX_LAYOUT), default=0)
    p.add_argument("--genus", type=_at_most(MAX_GENUS),
                   help="target genus of extend (default 12)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="compare two word files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--tier", choices=["exact", "framed", "homology", "auto"],
                   default="auto")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("invariants", help="fibration invariants of a "
                                          "positive factorization")
    p.add_argument("file")
    p.set_defaults(func=_cmd_invariants)

    try:
        args = top.parse_args(argv)
    except SystemExit as exc:   # usage errors exit 1, --help and --version 0
        return 1 if exc.code else 0
    # a command returns its exit code and report, the (key, value) pairs
    # that follow the schema line, or None for no report
    try:
        code, report = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except Refusal as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report is not None:
        try:
            print(f"schema: {REPORT_SCHEMA}")
            for key, value in report:
                print(f"{key}: {value}")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left (`| head`): point stdout at devnull so that
            # the flush at interpreter exit does not raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
