"""Command line interface.

Commands:
    nf FILE                          Garside normal form of a braid word file
    lift FILE -o OUT                 branched lift of a braid word file
    generate phi|boundary|extend|commutator ...
    verify FILE1 FILE2 [--tier ...]  compare two word files
    invariants FILE                  fibration invariant report

Exit codes: 0 pass, 1 usage or parse error, 2 relation refuted,
3 requested tier cannot decide the comparison.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .braid import equal, normal_form
from .constructions import (PositiveFactorization,
                            boundary_multitwist_factorization,
                            calculator_for, commutator_relation,
                            extend_to_genus, extended_calculator, phi,
                            phi_factorization)
from .dsl import Document, ParseError, parse, print_document
from .framed import framed_equal
from .invariants import fibration_invariants
from .lift import lift as branched_lift
from .surface import SurfaceModel, UnknownCurve, identity_matrix
from .swaps import SurfaceLayout, expand, shadow

REPORT_SCHEMA = 1


def _read(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _write(path: str, doc: Document) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_document(doc))


def _cmd_nf(args) -> int:
    doc = _read(args.file)
    if doc.kind != "braid":
        print("nf expects a @braid file", file=sys.stderr)
        return 1
    nf = normal_form(doc.value)
    print(f"schema: {REPORT_SCHEMA}")
    print(f"strands: {nf.strands}")
    print(f"infimum: {nf.infimum}")
    print(f"canonical_length: {nf.canonical_length()}")
    for k, f in enumerate(nf.factors, start=1):
        print(f"factor_{k}: {' '.join(str(x + 1) for x in f)}")
    return 0


def _cmd_lift(args) -> int:
    doc = _read(args.file)
    if doc.kind != "braid":
        print("lift expects a @braid file", file=sys.stderr)
        return 1
    lifted = branched_lift(doc.value)
    _write(args.output, Document("twist", lifted))
    return 0


def _cmd_generate(args) -> int:
    if args.family == "phi":
        fact = phi_factorization(args.m, args.l, seed=args.seed)
        layout = SurfaceLayout(args.l)
        target_ok = layout.calculator.verify_homologically(
            fact.word, expand(phi(layout)))
    elif args.family == "boundary":
        fact = boundary_multitwist_factorization(args.m, args.l,
                                                 seed=args.seed)
        layout = SurfaceLayout(args.l)
        target_ok = layout.calculator.is_identity_action(fact.word)
    elif args.family == "extend":
        base = boundary_multitwist_factorization(args.m, seed=args.seed)
        fact = extend_to_genus(args.genus, base)
        calc = extended_calculator(args.genus, SurfaceLayout(0))
        target_ok = calc.is_identity_action(fact.word)
    elif args.family == "commutator":
        surface = SurfaceModel(2, 2)
        lhs, rhs = commutator_relation(args.m, surface, seed=args.seed)
        target_ok = calculator_for(surface).is_identity_action(lhs * rhs)
        _write(args.output, Document("twist", lhs * rhs))
        print(f"schema: {REPORT_SCHEMA}")
        print(f"family: commutator m={args.m}")
        print(f"letters: {len(lhs) + len(rhs)}")
        print(f"homology_identity: {'pass' if target_ok else 'FAIL'}")
        return 0 if target_ok else 2
    else:
        print(f"unknown family {args.family}", file=sys.stderr)
        return 1
    _write(args.output, Document("twist", fact.word))
    print(f"schema: {REPORT_SCHEMA}")
    print(f"family: {fact.description}")
    print(f"letters: {fact.length()}")
    print(f"verified: {'pass' if target_ok else 'FAIL'}")
    return 0 if target_ok else 2


def _cmd_verify(args) -> int:
    d1, d2 = _read(args.file1), _read(args.file2)
    if d1.kind != d2.kind:
        print("cannot compare documents of different kinds", file=sys.stderr)
        return 1
    tier = args.tier
    if d1.kind == "braid":
        if tier in ("exact", "auto"):
            ok = equal(d1.value, d2.value)
            print(f"schema: {REPORT_SCHEMA}")
            print(f"tier: exact\nverdict: {'equal' if ok else 'refuted'}")
            return 0 if ok else 2
        print("braid words support only the exact tier", file=sys.stderr)
        return 3
    if d1.kind == "framed":
        if tier in ("framed", "exact", "auto"):
            ok = framed_equal(d1.value, d2.value)
            print(f"schema: {REPORT_SCHEMA}")
            print(f"tier: framed\nverdict: {'equal' if ok else 'refuted'}")
            return 0 if ok else 2
        print("framed words support only the framed tier", file=sys.stderr)
        return 3
    if d1.kind == "swap":
        if tier == "framed" or tier == "auto":
            ok = framed_equal(shadow(d1.value), shadow(d2.value))
            print(f"schema: {REPORT_SCHEMA}")
            print(f"tier: framed\nverdict: {'equal' if ok else 'refuted'}")
            return 0 if ok else 2
        if tier == "homology":
            layout = d1.value.layout
            if layout != d2.value.layout:
                print("swap words on different layouts", file=sys.stderr)
                return 1
            ok = layout.calculator.verify_homologically(
                expand(d1.value), expand(d2.value))
            print(f"schema: {REPORT_SCHEMA}")
            print("tier: homology")
            print(f"verdict: {'consistent' if ok else 'refuted'}")
            return 0 if ok else 2
        print("swap words: use --tier framed or homology", file=sys.stderr)
        return 3
    # twist words: only the homological necessary condition is available
    if tier == "exact":
        print("tier-insufficient: the exact mapping class group word problem "
              "is out of scope; homology refutes but cannot certify",
              file=sys.stderr)
        return 3
    surface = d1.value.surface
    if surface != d2.value.surface:
        print("twist words on different surfaces", file=sys.stderr)
        return 1
    calc = calculator_for(surface)
    ok = calc.verify_homologically(d1.value, d2.value)
    if not ok:
        print(f"schema: {REPORT_SCHEMA}")
        print("tier: homology\nverdict: refuted")
        return 2
    if _radical_signature(d1.value, calc) != _radical_signature(d2.value, calc):
        print(f"schema: {REPORT_SCHEMA}")
        print("tier: homology")
        print("verdict: tier-insufficient (the words differ in twists about "
              "radical classes, which homology cannot distinguish; boundary "
              "twists act trivially on absolute H_1)")
        return 3
    print(f"schema: {REPORT_SCHEMA}")
    print("tier: homology")
    print("verdict: consistent (a necessary condition only, not a proof "
          "of equality)")
    return 0


def _radical_signature(word, calc):
    """Signed count of letters whose class lies in the radical of the
    intersection form: exactly what the homology action cannot see."""
    pair, basis = calc.surface.pairing, identity_matrix(calc.surface.rank)
    return sum(sign for curve, sign in word.letters
               if not any(pair(b, calc.curve_class(curve)) for b in basis))


def _cmd_invariants(args) -> int:
    doc = _read(args.file)
    if doc.kind != "twist":
        print("invariants expects a @twist file", file=sys.stderr)
        return 1
    word = doc.value
    if not word.is_positive():
        print("invariants expects an all-positive factorization",
              file=sys.stderr)
        return 1
    fact = PositiveFactorization(word, None, "input file",
                                 ("input",) * len(word))
    inv = fibration_invariants(fact, calculator_for(word.surface))
    print(f"schema: {REPORT_SCHEMA}")
    print(f"genus: {inv.genus}")
    print(f"n_cycles: {inv.n_cycles}")
    print(f"euler_closed: {inv.euler_closed}")
    print(f"euler_filling: {inv.euler_filling}")
    print(f"b1: {inv.b1}")
    print(f"torsion: {','.join(map(str, inv.torsion)) or 'none'}")
    print(f"endo_sigma_num: {inv.endo_sigma.numerator}")
    print(f"endo_sigma_den: {inv.endo_sigma.denominator}")
    print(f"hyperelliptic_verdict: {inv.hyperelliptic_verdict}")
    return 0


def main(argv=None) -> int:
    top = argparse.ArgumentParser(
        prog="swapfact",
        description="Exact swap-map calculus: positive Dehn twist "
                    "factorizations and their machine verification.")
    top.add_argument("--version", action="version", version=__version__)
    top.add_argument("--seed", type=int, default=0,
                     help="seed for randomized searches (default 0)")
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
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--genus", type=int, default=12)
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

    args = top.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, UnknownCurve) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
