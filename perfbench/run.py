"""End-to-end and per-layer benchmark of the swapfact CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--trace 1]

Run it from the root of a source checkout. Every command is a fresh
`python -m swapfact.cli ...` process, started by this driver one at a time,
so every command pays the cold-start cost a user pays. With --trace 0 the
last line of standard output is one JSON object with the end-to-end metrics
named in BENCHMARK.json; with --trace 1 it holds the per-layer metrics of a
traced run. Reports and spans are written to .perfbench/ in the checkout.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import workloads as wl
from tracing import layer_totals, off_path_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

COMMAND_TIMEOUT_S = 150
SETUP_LAUNCHES = 15
MIN_PASSES = 2

# Per-layer counts that are sizes rather than amounts of work: the largest
# value over the jobs is reported instead of the sum.
MAX_COUNTS = ("surface.rank", "invariants.snf_cols")


@dataclass
class Proc:
    exit: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # fixed string hashing, so dict and set order is the same in every run
    env["PYTHONHASHSEED"] = "0"
    # commands run from bytecode, as an installed package does; the untimed
    # warm-up launch in measure_setup writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch(argv: List[str], env: Dict[str, str], work: Path) -> Proc:
    """Run one child to completion; its peak RSS comes from wait4 on
    exactly that process."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode,
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"),
                wall, usage.ru_maxrss / 1024.0)


def cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "swapfact.cli", *args]


def round_trip_problems(path: str, seen: set) -> List[str]:
    """print_document(parse(text)) must give back the file's text. A text
    already checked in this run (by content hash, in seen) is skipped."""
    from swapfact.dsl import parse, print_document
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        return [f"artifact unreadable: {exc}"]
    digest = hashlib.sha256(data).hexdigest()
    if digest in seen:
        return []
    text = data.decode("utf-8")
    if print_document(parse(text)) != text:
        return ["artifact does not round-trip through parse and print"]
    seen.add(digest)
    return []


def run_cli_pass(jobs: List[wl.Job], env, work: Path, seen: set) -> List[dict]:
    """Run the workload's command list once, checking every output."""
    results = []
    for job in jobs:
        p = launch(cli(*job.argv), env, work)
        report = wl.parse_report(p.stdout)
        problems = wl.check_output(job, p.exit, report)
        size = 0
        if job.artifact and p.exit == 0:
            problems += round_trip_problems(job.artifact, seen)
            size = os.path.getsize(job.artifact)
        results.append({"job": job.name, "kind": job.kind, "exit": p.exit,
                        "wall_s": p.wall_s, "rss_mb": p.rss_mb,
                        "artifact_bytes": size,
                        "report": report, "problems": problems})
    return results


def pass_totals(results: List[dict]) -> dict:
    def kind_s(kind):
        return sum((r["wall_s"] for r in results if r["kind"] == kind), 0.0)
    return {"wall_s": sum(r["wall_s"] for r in results),
            "peak_rss_mb": max(r["rss_mb"] for r in results),
            "generate_s": kind_s("generate"),
            "invariants_s": kind_s("invariants"),
            "verify_s": kind_s("verify"),
            "artifact_kb": sum(r["artifact_bytes"] for r in results) / 1024,
            "failed": sum(1 for r in results if r["problems"])}


def measure_setup(env, work: Path, version: str):
    """Median wall time of `swapfact --version` over several launches,
    after one untimed launch that writes bytecode and warms the file cache.
    """
    launch(cli("--version"), env, work)
    walls, failed = [], 0
    for _ in range(SETUP_LAUNCHES):
        p = launch(cli("--version"), env, work)
        failed += p.exit != 0 or p.stdout.strip() != version
        walls.append(p.wall_s)
    return statistics.median(walls), failed


def probe_verify_crash(env, work: Path) -> dict:
    """Untimed probe of a known defect: `verify --tier homology` of a
    generated boundary file against the boundary multitwist. It is reported
    on its own and counts in no metric and in no failure count."""
    boundary = work / "probe-boundary.twist"
    multitwist = work / "probe-multitwist.twist"
    launch(cli("generate", "boundary", "--m", "0", "--l", "0",
               "-o", str(boundary)), env, work)
    multitwist.write_text("@twist g=11 s=2\ndelta1 delta2\n",
                          encoding="utf-8")
    p = launch(cli("verify", str(boundary), str(multitwist),
                   "--tier", "homology"), env, work)
    tail = p.stderr.strip().splitlines()
    return {"command": "verify <boundary l=0 m=0> <delta1 delta2> "
                       "--tier homology",
            "exit": p.exit, "stderr_tail": tail[-1] if tail else ""}


def run_untraced(workload: str, seed: int, seconds: float, env,
                 work: Path, version: str) -> dict:
    setup_s, setup_failed = measure_setup(env, work, version)
    rng = random.Random(seed)
    seen: set = set()
    passes, commands = [], []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        jobs = wl.jobs_for(workload, rng, work)
        results = run_cli_pass(jobs, env, work, seen)
        commands += results
        passes.append(pass_totals(results))
    attempted = SETUP_LAUNCHES + len(commands)
    failed = setup_failed + sum(p["failed"] for p in passes)
    values = {key: statistics.median(p[key] for p in passes)
              for key in ("wall_s", "generate_s", "invariants_s",
                          "verify_s", "artifact_kb")}
    values["peak_rss_mb"] = max(p["peak_rss_mb"] for p in passes)
    values["setup_s"] = setup_s
    values["ops_failed_share"] = failed / attempted
    return {"attempted": attempted, "failed": failed, "values": values,
            "passes": len(passes), "commands": commands}


def run_traced_pass(jobs: List[wl.Job], cli_results: List[dict], env,
                    work: Path) -> dict:
    """Run every job once more through traced_job.py, one process each,
    and check it against its expectations and against the CLI's output."""
    spans, counts, records = [], {}, []
    wall = 0.0
    for i, (job, ref) in enumerate(zip(jobs, cli_results)):
        spec = dict(job.trace, id=f"{i}:{job.name}")
        p = launch([sys.executable, str(HERE / "traced_job.py"),
                    json.dumps(spec)], env, work)
        wall += p.wall_s
        problems = []
        try:
            result = json.loads(p.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if p.exit != 0 or result is None:
            problems.append(f"traced job failed (exit {p.exit}): "
                            f"{p.stderr.strip()[-300:]}")
        else:
            spans.append(result["spans"])
            for key, value in result["counts"].items():
                merge = max if key in MAX_COUNTS else (lambda a, b: a + b)
                counts[key] = merge(counts.get(key, 0), value)
            problems += wl.check_output(job, result["exit"], result["report"])
            for key in job.expect:
                if result["report"].get(key) != ref["report"].get(key):
                    problems.append(f"drift on {key}: traced "
                                    f"{result['report'].get(key)!r}, CLI "
                                    f"{ref['report'].get(key)!r}")
            if result.get("oracle", result["report"].get("verdict")) != \
                    result["report"].get("verdict"):
                problems.append("Garside verdict disagrees with Dynnikov")
        records.append({"job": job.name, "wall_s": p.wall_s,
                        "problems": problems})
    return {"wall_s": wall, "spans": spans, "counts": counts,
            "records": records}


def artifact_drift(cli_jobs: List[wl.Job], traced_jobs: List[wl.Job]):
    """Generate jobs of both passes must write byte-identical artifacts."""
    problems = []
    for a, b in zip(cli_jobs, traced_jobs):
        if a.artifact and Path(a.artifact).read_bytes() != \
                Path(b.artifact).read_bytes():
            problems.append(f"{a.name}: traced artifact differs from CLI's")
    return problems


def run_traced(workload: str, seed: int, env, work: Path) -> dict:
    cli_dir, traced_dir = work / "cli", work / "traced"
    cli_dir.mkdir()
    traced_dir.mkdir()
    cli_jobs = wl.jobs_for(workload, random.Random(seed), cli_dir)
    cli_results = run_cli_pass(cli_jobs, env, work, set())
    traced_jobs = wl.jobs_for(workload, random.Random(seed), traced_dir)
    traced = run_traced_pass(traced_jobs, cli_results, env, work)
    drift = artifact_drift(cli_jobs, traced_jobs)

    totals = pass_totals(cli_results)
    layers = layer_totals(traced["spans"])
    values = {f"cli.{k}": totals[k] for k in
              ("generate_s", "invariants_s", "verify_s", "artifact_kb")}
    for span in ("constructions.psi", "swaps.expand", "constructions.build",
                 "framed.shadow", "surface.action", "surface.classes",
                 "dsl.print", "dsl.parse", "invariants.b1",
                 "braid.normal_form", "braid.dynnikov"):
        values[span + "_s"] = layers.get(span, 0.0)
    for key in ("constructions.letters", "constructions.conjugator_letters",
                "surface.rank", "dsl.bytes", "invariants.snf_rows",
                "invariants.snf_cols", "braid.input_letters",
                "braid.canonical_length"):
        values[key] = traced["counts"].get(key, 0)
    values["trace.overhead_s"] = (traced["wall_s"]
                                  - off_path_time(traced["spans"])
                                  - totals["wall_s"])
    failed = (totals["failed"] + len(drift)
              + sum(1 for r in traced["records"] if r["problems"]))
    return {"attempted": len(cli_results) + len(traced["records"]),
            "failed": failed, "values": values, "drift": drift,
            "commands": cli_results, "traced": traced["records"],
            "spans": [s for job in traced["spans"] for s in job]}


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    """One run: the result line for the contract and a full report."""
    import swapfact
    env = child_env()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if trace:
            run = run_traced(workload, seed, env, work)
            listed = spec["per_layer"]
        else:
            run = run_untraced(workload, seed, seconds, env, work,
                               swapfact.__version__)
            listed = spec["end_to_end"]
        run["probe"] = probe_verify_crash(env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {m["name"]: {"value": run["values"][m["name"]],
                           "unit": m["unit"]} for m in listed}
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        (OUT / f"spans-{stem}.json").write_text(
            json.dumps(run.pop("spans")), encoding="utf-8")
    report = dict(run, workload=workload, seed=seed, trace=trace)
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1),
                                             encoding="utf-8")
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    return {"result": result, "report": report}


E2E_UNITS = {"setup_s": "s", "wall_s": "s",
             "generate_s": "s", "invariants_s": "s", "verify_s": "s",
             "peak_rss_mb": "MB", "artifact_kb": "KB",
             "ops_failed_share": "ratio"}


def summary_lines(out: dict) -> List[str]:
    rep = out["report"]
    head = f"== {rep['workload']} seed={rep['seed']} trace={int(rep['trace'])}"
    lines = [head]
    if rep["trace"]:
        units = {m: v["unit"] for m, v in out["result"]["metrics"].items()}
        lines += [f"  {k:34s} {v:14.4f} {units[k]}"
                  for k, v in rep["values"].items()]
        lines += [f"  drift: {p}" for p in rep["drift"]]
    else:
        lines.append(f"  passes: {rep['passes']}")
        lines += [f"  {k:34s} {rep['values'][k]:14.4f} {u}"
                  for k, u in E2E_UNITS.items()]
    for c in rep["commands"] + rep.get("traced", []):
        for p in c["problems"]:
            lines.append(f"  FAILED {c['job']}: {p}")
    probe = rep["probe"]
    lines.append(f"  probe (untimed) {probe['command']}: exit "
                 f"{probe['exit']} {probe['stderr_tail']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(wl.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds "
                         "from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "swapfact" / "cli.py").is_file():
        print(f"error: no swapfact sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = benchmark_spec()
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        out = run_workload(name, args.seed, seconds, bool(args.trace), spec)
        print("\n".join(summary_lines(out)), flush=True)
        results[name] = out["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
