"""Traced driver for one benchmark job, run in a process of its own.

    python perfbench/traced_job.py '<job spec as JSON>'

It calls, in the order the CLI command calls them, the public functions of
swapfact that the command reaches, with a span around each call. It prints
one JSON object: the values the CLI would report, the job's counts and its
spans. The swapfact package must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Tracer

from swapfact.braid import dynnikov_equal, normal_form
from swapfact.constructions import (PositiveFactorization,
                                    boundary_multitwist_factorization,
                                    extend_to_genus, extended_calculator,
                                    make_psi, phi)
from swapfact.dsl import Document, parse, print_document
from swapfact.framed import boundary_multitwist_framed, framed_equal
from swapfact.invariants import (b1_of_total_space, endo_signature,
                                 euler_closed, euler_filling,
                                 hyperelliptic_obstruction)
from swapfact.surface import DerivedCurve, HomologyCalculator
from swapfact.swaps import SurfaceLayout, expand, shadow


def conjugator_letters(word) -> int:
    """Letters inside all derived-curve conjugators, counted recursively."""
    total = 0
    for curve, _ in word.letters:
        while isinstance(curve, DerivedCurve):
            total += len(curve.conjugator) + conjugator_letters(
                curve.conjugator)
            curve = curve.base
    return total


def run_generate(tr: Tracer, spec: dict) -> dict:
    # The psi search and the swap expansions are cached per process, so
    # timing them first, cold, takes their cost out of the build span.
    layout = SurfaceLayout(spec.get("l", 0))
    with tr.span("constructions.psi"):
        make_psi(layout.subsurface_model())
    with tr.span("swaps.expand"):
        expand(phi(layout))
    if spec["family"] == "boundary":
        with tr.span("constructions.build"):
            fact = boundary_multitwist_factorization(spec["m"], spec["l"])
        with tr.span("framed.shadow", on_path=False):
            framed_equal(shadow(fact.skeleton), boundary_multitwist_framed(4))
        with tr.span("surface.action"):
            ok = layout.calculator.is_identity_action(fact.word)
    else:
        with tr.span("constructions.build"):
            fact = extend_to_genus(spec["genus"],
                                   boundary_multitwist_factorization(0))
        with tr.span("surface.action"):
            calc = extended_calculator(spec["genus"], layout)
            ok = calc.is_identity_action(fact.word)
    with tr.span("dsl.print"):
        text = print_document(Document("twist", fact.word))
    Path(spec["output"]).write_text(text, encoding="utf-8")
    with tr.span("trace.count", on_path=False):
        hidden = conjugator_letters(fact.word)
    return {"exit": 0 if ok else 2,
            "report": {"letters": str(fact.length()),
                       "verified": "pass" if ok else "FAIL"},
            "counts": {"constructions.letters": fact.length(),
                       "constructions.conjugator_letters": hidden,
                       "surface.rank": fact.word.surface.rank}}


def _calculator(surface) -> HomologyCalculator:
    """The calculator `swapfact invariants` picks for a surface."""
    for l in (0, 1, 2, 3):
        layout = SurfaceLayout(l)
        if layout.ambient_model() == surface:
            return layout.calculator
    if surface.genus > 11:
        return extended_calculator(surface.genus, SurfaceLayout(0))
    return HomologyCalculator(surface)


def run_invariants(tr: Tracer, spec: dict) -> dict:
    text = Path(spec["file"]).read_text(encoding="utf-8")
    with tr.span("dsl.parse"):
        word = parse(text).value
    surface = word.surface
    with tr.span("surface.classes"):
        calc = _calculator(surface)
        for curve, _ in word.letters:
            calc.curve_class(curve)
    fact = PositiveFactorization(word, None, "input file",
                                 ("input",) * len(word))
    with tr.span("invariants.b1"):
        summary = b1_of_total_space(fact, calc, cap=True)
    g, n = surface.genus, len(word)
    sigma = endo_signature(g, n)
    report = {
        "genus": str(g), "n_cycles": str(n),
        "euler_closed": str(euler_closed(g, n)),
        "euler_filling": str(euler_filling(g, surface.boundary, n)),
        "b1": str(summary.b1),
        "torsion": ",".join(map(str, summary.torsion)) or "none",
        "endo_sigma_num": str(sigma.numerator),
        "endo_sigma_den": str(sigma.denominator),
        "hyperelliptic_verdict": hyperelliptic_obstruction(g, n),
    }
    counts = {"dsl.bytes": len(text.encode("utf-8")),
              "surface.rank": surface.rank,
              "invariants.snf_rows": n,
              "invariants.snf_cols": surface.rank - 1}
    return {"exit": 0, "report": report, "counts": counts}


def run_verify(tr: Tracer, spec: dict) -> dict:
    texts = [Path(f).read_text(encoding="utf-8") for f in spec["files"]]
    with tr.span("dsl.parse"):
        w1, w2 = (parse(t).value for t in texts)
    with tr.span("braid.normal_form"):
        nf1, nf2 = normal_form(w1), normal_form(w2)
    ok = nf1 == nf2
    with tr.span("braid.dynnikov", on_path=False):
        oracle = dynnikov_equal(w1, w2)
    counts = {"dsl.bytes": sum(len(t.encode("utf-8")) for t in texts),
              "braid.input_letters": len(w1) + len(w2),
              "braid.canonical_length": (nf1.canonical_length()
                                         + nf2.canonical_length())}
    return {"exit": 0 if ok else 2,
            "report": {"tier": "exact",
                       "verdict": "equal" if ok else "refuted"},
            "oracle": "equal" if oracle else "refuted",
            "counts": counts}


RUNNERS = {"generate": run_generate, "invariants": run_invariants,
           "verify": run_verify}


def main(argv) -> int:
    spec = json.loads(argv[1])
    tr = Tracer(spec["id"])
    with tr.span("job." + spec["kind"]):
        result = RUNNERS[spec["kind"]](tr, spec)
    result["spans"] = tr.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
