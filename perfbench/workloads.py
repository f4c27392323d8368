"""The benchmark's workloads: the CLI commands each one runs, the inputs it
writes, and what every command must print.

Expected values come from closed formulas and from values pinned at the
seed state, never from the code under test, except for the braid verdicts,
which come from the Dynnikov oracle (the procedure the CLI does not use).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS = ("boundary_family", "extend_chain", "braid_word_problem")

# (l, m) grid of boundary_family; m = 0 and m = 20 separate the per-letter
# cost from the fixed per-process cost (imports and the psi search).
BOUNDARY_GRID = tuple((l, m) for l in (0, 1, 2) for m in (0, 20))
EXTEND_GENERA = (12, 14)
# (strands, letters per side) of braid_word_problem; each pass draws one
# equal and one unequal pair per braid group.
BRAID_GROUPS = ((8, 800), (16, 800), (24, 800))


@dataclass
class Job:
    """One CLI command, the output it must print, and the traced driver's
    description of the same command."""
    name: str
    kind: str                       # generate | invariants | verify
    argv: List[str]                 # arguments after `swapfact`
    expect_exit: int
    expect: Dict[str, str]          # `key: value` lines the command prints
    trace: dict                     # spec for traced_job.py
    artifact: Optional[str] = None  # file a generate command writes


def _invariant_lines(g: int, n: int, b1: int, torsion: str) -> Dict[str, str]:
    sigma = Fraction(-(g + 1) * n, 2 * g + 1)
    return {
        "genus": str(g),
        "n_cycles": str(n),
        "euler_closed": str(4 - 4 * g + n),
        "euler_filling": str(2 - 2 * g - 2 + n),
        "b1": str(b1),
        "torsion": torsion,
        "endo_sigma_num": str(sigma.numerator),
        "endo_sigma_den": str(sigma.denominator),
        "hyperelliptic_verdict": ("Inconclusive" if sigma.denominator == 1
                                  else "NotHyperelliptic"),
    }


def _family_jobs(tag: str, gen_argv: List[str], trace: dict, letters: int,
                 g: int, b1: int, torsion: str, work: Path) -> List[Job]:
    out = str(work / f"{tag}.twist")
    gen = Job(f"generate {tag}", "generate", gen_argv + ["-o", out], 0,
              {"letters": str(letters), "verified": "pass"},
              dict(trace, kind="generate", output=out), artifact=out)
    inv = Job(f"invariants {tag}", "invariants", ["invariants", out], 0,
              _invariant_lines(g, letters, b1, torsion),
              {"kind": "invariants", "file": out})
    return [gen, inv]


def boundary_jobs(work: Path, grid=BOUNDARY_GRID) -> List[Job]:
    jobs: List[Job] = []
    for l, m in grid:
        # b1 and torsion are the values measured at the seed state; the
        # spec's pinned values (acceptance criteria 8b, 8c) differ.
        jobs += _family_jobs(
            f"boundary-l{l}-m{m}",
            ["generate", "boundary", "--m", str(m), "--l", str(l)],
            {"family": "boundary", "m": m, "l": l},
            10 * m + 24 * l + 104, 11 + 4 * l, 2 * l,
            "9" if (l, m) == (0, 0) else "none", work)
    return jobs


def extend_jobs(work: Path, genera=EXTEND_GENERA) -> List[Job]:
    jobs: List[Job] = []
    for g in genera:
        jobs += _family_jobs(
            f"extend-g{g}", ["generate", "extend", "--genus", str(g)],
            {"family": "extend", "genus": g},
            (2 * g + 1) * (2 * g + 2) - 552 + 104, g, 0, "none", work)
    return jobs


# --- braid inputs -----------------------------------------------------------

def _random_word(rng: random.Random, n: int, length: int) -> List[int]:
    out: List[int] = []
    while len(out) < length:
        x = rng.randrange(1, n) * rng.choice((1, -1))
        if not out or out[-1] != -x:
            out.append(x)
    return out


def _relator(rng: random.Random, n: int) -> List[int]:
    """A word equal to the identity in B_n, as signed generator indices."""
    i = rng.randrange(1, n)
    kind = rng.randrange(3)
    if kind == 0:
        return [i, -i] if rng.random() < 0.5 else [-i, i]
    if kind == 1:
        j = rng.choice([j for j in range(1, n) if abs(j - i) >= 2])
        return [i, j, -i, -j]
    i = min(i, n - 2)
    return [i, i + 1, i, -(i + 1), -i, -(i + 1)]


def _insert_relators(rng: random.Random, word: List[int], n: int,
                     extra: int) -> List[int]:
    out = list(word)
    while len(out) < len(word) + extra:
        pos = rng.randrange(len(out) + 1)
        out[pos:pos] = _relator(rng, n)
    return out


def braid_pair(rng: random.Random, n: int, length: int, equal: bool):
    """Two spellings of one braid (equal) or of two braids that differ by a
    nontrivial pure commutator [b_i^2, b_{i+1}^2] (unequal), so that
    exponent sums and permutations agree and only a word-problem procedure
    can tell them apart."""
    base = _random_word(rng, n, length - 40)
    a = _insert_relators(rng, base, n, 40)
    b = _insert_relators(rng, base, n, 40)
    if not equal:
        i = rng.randrange(1, n - 1)
        pos = rng.randrange(len(b) + 1)
        b[pos:pos] = [i, i, i + 1, i + 1, -i, -i, -(i + 1), -(i + 1)]
    return a, b


def braid_text(n: int, ints: List[int]) -> str:
    toks = [f"b{abs(x)}" + ("^-1" if x < 0 else "") for x in ints]
    lines = [" ".join(toks[k:k + 16]) for k in range(0, len(toks), 16)]
    return f"@braid n={n}\n" + "\n".join(lines) + "\n"


def braid_jobs(work: Path, rng: random.Random,
               groups=BRAID_GROUPS) -> List[Job]:
    """Draw the next pairs from rng, write them and return one
    `verify --tier exact` job per pair. The expected verdict is the Dynnikov
    oracle's."""
    from swapfact.braid import BraidWord, dynnikov_equal
    jobs: List[Job] = []
    for n, length in groups:
        for equal in (True, False):
            a, b = braid_pair(rng, n, length, equal)
            if dynnikov_equal(BraidWord.from_ints(n, a),
                              BraidWord.from_ints(n, b)) != equal:
                raise AssertionError(f"braid pair generator broke in B_{n}")
            tag = f"braid-n{n}-{'eq' if equal else 'ne'}"
            files = []
            for side, ints in (("a", a), ("b", b)):
                path = work / f"{tag}-{side}.braid"
                path.write_text(braid_text(n, ints), encoding="utf-8")
                files.append(str(path))
            jobs.append(Job(
                f"verify {tag}", "verify",
                ["verify", *files, "--tier", "exact"], 0 if equal else 2,
                {"tier": "exact", "verdict": "equal" if equal else "refuted"},
                {"kind": "verify", "files": files}))
    return jobs


def jobs_for(workload: str, rng: random.Random, work: Path) -> List[Job]:
    """The command list of one pass of a workload. The seeded rng reaches
    only the braid generator, which draws new pairs for every pass: the
    normal form's cost varies by about 10% between random words of one
    size. The two families are deterministic in (m, l, genus)."""
    if workload == "boundary_family":
        return boundary_jobs(work)
    if workload == "extend_chain":
        return extend_jobs(work)
    if workload == "braid_word_problem":
        return braid_jobs(work, rng)
    raise ValueError(f"unknown workload {workload!r}")


def parse_report(stdout: str) -> Dict[str, str]:
    """The `key: value` lines of a schema-1 CLI report."""
    out: Dict[str, str] = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def check_output(job: Job, exit_code: int, got: Dict[str, str]) -> List[str]:
    """Problems with one command's exit code and parsed report; empty when
    both are correct."""
    problems = []
    if exit_code != job.expect_exit:
        problems.append(f"exit {exit_code}, expected {job.expect_exit}")
    for key, want in job.expect.items():
        if got.get(key) != want:
            problems.append(f"{key}: {got.get(key)!r}, expected {want!r}")
    return problems
