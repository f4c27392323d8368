"""Tests of the benchmark itself, on tiny versions of its workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's test suite does not
collect it: each case starts CLI processes and takes a few seconds.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = run.benchmark_spec()


def tiny_jobs(workload, rng, work):
    if workload == "boundary_family":
        return wl.boundary_jobs(work, grid=((0, 0),))
    if workload == "extend_chain":
        return wl.extend_jobs(work, genera=(12,))
    return wl.braid_jobs(work, rng, groups=((8, 200),))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(wl, "jobs_for", tiny_jobs)


def assert_metrics(result, listed):
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(tiny, workload):
    out = run.run_workload(workload, 1, 0, False, SPEC)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(run.E2E_UNITS) <= set(out["report"]["values"])
    assert out["report"]["probe"]["exit"] in (0, 1, 2, 3)


@pytest.mark.parametrize("workload, layers", [
    ("boundary_family", ("constructions.psi_s", "swaps.expand_s",
                         "constructions.build_s", "framed.shadow_s",
                         "surface.action_s", "surface.classes_s",
                         "invariants.b1_s", "dsl.print_s", "dsl.parse_s")),
    ("extend_chain", ("constructions.build_s", "surface.action_s",
                      "surface.classes_s", "invariants.b1_s")),
    ("braid_word_problem", ("braid.normal_form_s", "braid.dynnikov_s",
                            "dsl.parse_s")),
])
def test_traced_run_emits_every_per_layer_metric(tiny, workload, layers):
    out = run.run_workload(workload, 1, 0, True, SPEC)
    result = out["result"]
    assert result["correct"], out["report"]
    assert_metrics(result, SPEC["per_layer"])
    for name in layers:
        assert result["metrics"][name]["value"] > 0, name
    spans = json.loads((run.OUT / f"spans-{workload}-seed1-trace1.json")
                       .read_text(encoding="utf-8"))
    assert {"name", "job", "parent", "start", "end"} <= set(spans[0])


def test_letter_counts_match_the_formula(tiny):
    out = run.run_workload("boundary_family", 1, 0, True, SPEC)
    values = out["report"]["values"]
    assert values["constructions.letters"] == 104
    assert values["surface.rank"] == 23


def test_wrong_expectation_counts_as_failed(monkeypatch):
    def wrong(workload, rng, work):
        jobs = wl.boundary_jobs(work, grid=((0, 0),))
        jobs[0].expect["letters"] = "105"
        return jobs
    monkeypatch.setattr(wl, "jobs_for", wrong)
    result = run.run_workload("boundary_family", 1, 0, False, SPEC)["result"]
    # one wrong line in each of the two passes
    assert result["failed"] == 2 and not result["correct"]


def test_wrong_braid_verdict_counts_as_failed(monkeypatch):
    def wrong(workload, rng, work):
        jobs = wl.braid_jobs(work, rng, groups=((8, 200),))
        jobs[0].expect_exit, jobs[0].expect["verdict"] = 2, "refuted"
        return jobs
    monkeypatch.setattr(wl, "jobs_for", wrong)
    result = run.run_workload("braid_word_problem", 1, 0, True, SPEC)
    # the CLI pass and the traced pass each count the wrong verdict
    assert result["result"]["failed"] == 2


def test_braid_inputs_depend_on_the_seed_only(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    for d, seed in ((a, 5), (b, 5), (c, 6)):
        wl.braid_jobs(d, random.Random(seed), groups=((8, 200),))
    name = "braid-n8-ne-b.braid"
    assert (a / name).read_text() == (b / name).read_text()
    assert (a / name).read_text() != (c / name).read_text()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "extend_chain", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert p.returncode != 0
    assert "{" not in p.stdout
