"""Benchmark of the plspines CLI: whole jobs, each in a fresh process.

Usage, from the repository root:

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Workloads, metrics and what each metric should move are described in
bench/WORKLOADS.md.  Each workload is a closed loop with one client: a list
of CLI jobs run one at a time, every job with the workload seed as
``--seed`` and its own PYTHONHASHSEED.  The first pass over the list always
completes; further jobs run round-robin while they are predicted to finish
within ``--seconds``.  Every output is checked against facts the benchmark
derives itself; a failed check or a stdout that differs between runs of the
same job counts as a failed job and does not stop the run.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate, the traced jobs run
through bench/traced_cli.py, and the last line reports per-layer metrics.
The line before it is a record of the run: versions, load, input hashes and
per-job samples (bench/compare.py compares saved records).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CATALOGUE = SRC / "plspines" / "data"

# a hung job is killed early enough for the run to end within 180 s
JOB_TIMEOUT_S = 120
SETUP_SAMPLES = 5

# Minimum vertex counts over all certified partitions, from exhaustive
# searches (genus2_10 with --budget 200000 --exhaustive).
ORACLE_MIN = {"T2_7": 6, "RP2_6": 4, "genus2_10": 10}


def facts(out: str) -> dict[str, str]:
    """The ``key: value`` lines of a job's stdout, first occurrence wins."""
    found: dict[str, str] = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            found.setdefault(key, value)
    return found


@dataclass
class Job:
    name: str
    args: list[str]
    # stdout -> list of problems; empty when the output is right
    check: Callable[[str], list[str]]
    # spine vertex count stated by the output, when the job states one
    vertices: Callable[[str], int] | None = None
    # the exhaustive minimum for search jobs
    oracle: int | None = None
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    stdout: str | None = None


@dataclass
class Inputs:
    facets: dict[str, list[inputs.Facet]]
    paths: dict[str, Path]
    hashes: dict[str, str]


# -- inputs ------------------------------------------------------------------


def make_inputs(work: Path) -> Inputs:
    facets, paths = {}, {}
    for name in ("S1_triangle", "T2_7", "RP2_6", "genus2_10", "S3_pentachoron"):
        paths[name] = CATALOGUE / f"{name}.cplx"
        facets[name] = inputs.parse_facets(paths[name].read_text())
    t3 = inputs.octahedron()
    for _ in range(3):
        t3 = inputs.barycentric(t3)
    for name, fs in (("S1_join_S1", inputs.circle_join_circle()), ("S2_oct_T3", t3)):
        paths[name] = work / f"{name}.cplx"
        paths[name].write_text(inputs.format_facets(fs))
        facets[name] = fs
    hashes = {name: inputs.sha256(p) for name, p in sorted(paths.items())}
    return Inputs(facets, paths, hashes)


# -- output checks -----------------------------------------------------------


def _classes(line: str) -> list[list[str]]:
    return [c.split() for c in line.split("|")]


def check_search(facets, oracle: int, must_be_exhaustive: bool, verify):
    def check(out: str) -> list[str]:
        spec = facts(out)
        try:
            best = int(spec["best_count"])
            exhaustive = spec["proven_exhaustive"] == "true"
            classes = _classes(spec["best_partition"])
            recount = inputs.rainbow_count(facets, classes)
        except (KeyError, ValueError) as e:
            return [f"unreadable search output: {e}"]
        problems = []
        if recount != best:
            problems.append(f"best_count {best} but the partition has {recount} rainbow facets")
        if must_be_exhaustive and not exhaustive:
            problems.append("search was not proven exhaustive")
        if best < oracle or (exhaustive and best != oracle):
            problems.append(f"best_count {best} contradicts the exhaustive minimum {oracle}")
        if not verify(classes):
            problems.append("verify-spine rejects the returned partition")
        return problems

    return check


def check_report(facets):
    def check(out: str) -> list[str]:
        spec = facts(out)
        want = {
            "euler": "0",
            "betti": "1 0 0 1",
            "certificate": "yes",
            "nerve-0or2": "pass",
            "nerve-dim-iff-vertices": "pass",
        }
        problems = [f"{k}: {spec.get(k)!r}, expected {v!r}" for k, v in want.items() if spec.get(k) != v]
        try:
            classes = _classes(spec["partition"])
            recount = inputs.rainbow_count(facets, classes)
            if any(len(c) != 1 for c in classes):
                problems.append("partition is not discrete")
            if int(spec["vertices"]) != recount:
                problems.append(f"vertices {spec['vertices']} but {recount} rainbow facets")
        except (KeyError, ValueError) as e:
            problems.append(f"unreadable report output: {e}")
        return problems

    return check


DRILL_LINE = re.compile(r"drill (\d+) at \S+: vertices (\d+) -> (\d+) preserved")


def check_drill(points: int):
    def check(out: str) -> list[str]:
        lines = out.splitlines()
        ok = [m for m in map(DRILL_LINE.fullmatch, lines) if m and m.group(2) == m.group(3)]
        if len(lines) != points or len(ok) != points:
            return [f"{len(ok)} of {points} drill lines read 'preserved' ({len(lines)} lines)"]
        return []

    return check


def check_gen(facets):
    def check(out: str) -> list[str]:
        try:
            same = sorted(inputs.parse_facets(out)) == sorted(facets)
        except (ValueError, IndexError) as e:
            return [f"unreadable complex: {e}"]
        return [] if same else ["gen printed other facets than the catalogue file"]

    return check


def check_homology(expected: str):
    def check(out: str) -> list[str]:
        return [] if out == expected + "\n" else [f"homology printed {out!r}, expected {expected!r}"]

    return check


def stated_vertices(key: str):
    def vertices(out: str) -> int:
        # an unreadable output already failed its check, which fails the run
        try:
            return int(facts(out)[key])
        except (KeyError, ValueError):
            return 0

    return vertices


# -- processes ---------------------------------------------------------------


class Launcher:
    """Runs CLI processes; every launch gets its own PYTHONHASHSEED."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.launches = 0
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))

    def run(self, argv: list[str]) -> tuple[int, str, float, float, float]:
        """(exit code, stdout, wall s, cpu s, peak RSS MB) of one process."""
        self.launches += 1
        env = dict(self.env, PYTHONHASHSEED=str((self.seed * 7919 + self.launches) % 4_294_967_295))
        with tempfile.TemporaryFile(dir=self.work) as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
            # a timed-out child is killed, and the wait below then reaps it
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 reads this child's own rusage; RUSAGE_CHILDREN would
                # report the maximum RSS over every earlier child as well
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read().decode("utf-8", "replace")
        return proc.returncode, text, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024

    def cli(self, args: list[str]) -> list[str]:
        return [sys.executable, "-m", "plspines.cli", "--seed", str(self.seed), *args]


# -- workloads ---------------------------------------------------------------


def build_workload(name: str, inp: Inputs, launcher: Launcher) -> list[Job]:
    verified: dict[tuple, bool] = {}

    def verifier(catalogue_name: str):
        def verify(classes: list[list[str]]) -> bool:
            # untimed: once per distinct partition in a run
            spec = "|".join(",".join(c) for c in classes)
            key = (catalogue_name, spec)
            if key not in verified:
                argv = launcher.cli(["verify-spine", "--name", catalogue_name, "--partition", spec])
                verified[key] = launcher.run(argv)[0] == 0
            return verified[key]

        return verify

    def search(cat: str, must_be_exhaustive: bool) -> Job:
        check = check_search(inp.facets[cat], ORACLE_MIN[cat], must_be_exhaustive, verifier(cat))
        return Job(f"search {cat}", ["search", "--name", cat], check, stated_vertices("best_count"), ORACLE_MIN[cat])

    exhaustive = [search("T2_7", True), search("RP2_6", True)]
    anneal = [search("genus2_10", False)]
    if name == "search-exhaustive":
        return exhaustive
    if name == "search-anneal":
        return anneal
    if name == "search":
        return exhaustive + anneal
    if name == "towers":
        s1s1 = str(inp.paths["S1_join_S1"])
        return [
            Job("report S3_pentachoron", ["report", "--name", "S3_pentachoron"],
                check_report(inp.facets["S3_pentachoron"]), stated_vertices("vertices")),
            Job("report S1_join_S1", ["report", "--in", s1s1, "--partition", "discrete"],
                check_report(inp.facets["S1_join_S1"]), stated_vertices("vertices")),
            Job("drill S3_pentachoron", ["drill", "--name", "S3_pentachoron", "--partition", "discrete",
                                         "--points", "20"], check_drill(20)),
            Job("homology S2_oct_T3", ["homology", "--in", str(inp.paths["S2_oct_T3"])],
                check_homology("betti: 1 0 1")),
        ]
    raise ValueError(f"unknown workload {name!r}")


def setup_job(inp: Inputs) -> Job:
    """The set-up cost every CLI job pays: start, imports, one catalogue read."""
    return Job("setup gen S1_triangle", ["gen", "--name", "S1_triangle"], check_gen(inp.facets["S1_triangle"]))


# BENCHMARK.json gates on "search" and "towers": two workloads leave room for
# 60 s runs, which keep the run-to-run spread of wall_s inside its bound on a
# shared 2-vCPU host.  "search" is the union of the two search workloads,
# which stay runnable by name; "all" runs the three.
WORKLOADS = ("search-exhaustive", "search-anneal", "search", "towers")
ALL = ("search-exhaustive", "search-anneal", "towers")


class Runner:
    """Runs jobs, checks their outputs and counts failures."""

    def __init__(self, launcher: Launcher):
        self.launcher = launcher
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job: Job, argv: list[str]) -> None:
        code, out, wall, cpu, rss = self.launcher.run(argv)
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"]
        elif job.stdout is not None and out != job.stdout:
            problems = ["stdout differs from an earlier run of the same job"]
        else:
            problems = job.check(out)
        if job.stdout is None and code == 0:
            job.stdout = out
        if problems:
            self.failures.append(f"{job.name}: {'; '.join(problems)}")
        job.walls.append(wall)
        job.cpus.append(cpu)
        job.rss_mb.append(rss)

    def loop(self, jobs: list[Job], seconds: float, launch: Callable[[Job], None]) -> None:
        """One full pass, then round-robin while each next job fits the deadline."""
        deadline = time.perf_counter() + seconds
        for job in jobs:
            launch(job)
        while True:
            ran = False
            for job in jobs:
                if time.perf_counter() + statistics.median(job.walls) <= deadline:
                    launch(job)
                    ran = True
            if not ran:
                return


def samples(jobs: list[Job]) -> dict[str, dict]:
    return {j.name: {"wall_s": j.walls, "cpu_s": j.cpus, "peak_rss_mb": j.rss_mb} for j in jobs}


def pass_wall(jobs: list[Job]) -> float:
    """Workload wall time: the sum over jobs of each job's median wall time."""
    return sum(statistics.median(j.walls) for j in jobs)


# -- end-to-end run ------------------------------------------------------------


def end_to_end(jobs: list[Job], setup: Job, runner: Runner, seconds: float) -> tuple[dict, dict]:
    for _ in range(SETUP_SAMPLES):
        runner.run(setup, runner.launcher.cli(setup.args))

    def launch(job: Job) -> None:
        runner.run(job, runner.launcher.cli(job.args))
        # setup samples spread over the run see the same machine drift as the jobs
        runner.run(setup, runner.launcher.cli(setup.args))

    runner.loop(jobs, seconds, launch)
    stated = [j.vertices(j.stdout) for j in jobs if j.vertices and j.stdout is not None]
    searches = [j for j in jobs if j.oracle is not None]
    metrics = {
        "wall_s": {"value": pass_wall(jobs), "unit": "s"},
        "peak_rss_mb": {"value": max(statistics.median(j.rss_mb) for j in jobs), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup.walls), "unit": "s"},
        "spine_vertices": {"value": sum(stated), "unit": "count"},
    }
    extra = {
        "setup_samples_s": setup.walls,
        "excess_vertices": (
            sum(j.vertices(j.stdout) - j.oracle for j in searches if j.stdout is not None)
            if searches else None
        ),
    }
    return metrics, extra


# -- traced run ----------------------------------------------------------------


def _self_time(spans: list[list], i: int, children: dict[int, list[int]]) -> float:
    s = spans[i]
    return (s[2] - s[1]) - sum(spans[c][2] - spans[c][1] for c in children.get(i, ()))


def layer_totals(dump: dict) -> dict[str, float]:
    """Per-layer busy time, self time, calls and attr sums of one traced job."""
    spans = dump["spans"]
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    tot: dict[str, float] = {}

    def add(key, v):
        tot[key] = tot.get(key, 0) + v

    for i, (name, start, end, parent, attrs) in enumerate(spans):
        add(name + ".calls", 1)
        add(name + ".self_s", _self_time(spans, i, children))
        # busy time counts a span only when no ancestor has the same name
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            add(name + ".s", end - start)
        for k, v in (attrs or {}).items():
            add(f"{name}.{k}", int(v))
    add("import_s", dump["import_s"])
    add("derived_hits", dump["derived_cache"][0])
    add("derived_misses", dump["derived_cache"][1])
    return tot


def per_layer(t: dict[str, float], overhead_s: float) -> dict[str, dict]:
    g = lambda k: t.get(k, 0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    certify = g("collapse.collapses_to_point.calls") + g("collapse.collapses_onto.calls")
    certify_yes = g("collapse.collapses_to_point.yes") + g("collapse.collapses_onto.yes")
    s, c = "s", "count"
    m = {
        "collapse.greedy_s": (g("collapse.greedy_collapse.s"), s),
        "collapse.greedy_calls": (g("collapse.greedy_collapse.calls"), c),
        "collapse.faces_in": (g("collapse.greedy_collapse.faces"), c),
        "collapse.certify_calls": (certify, c),
        "collapse.certify_yes_ratio": (ratio(certify_yes, certify), "ratio"),
        "collapse.restarts_per_certify": (ratio(g("collapse.greedy_collapse.calls"), certify), "ratio"),
        "search.self_s": (g("search.search_min_vertices.self_s"), s),
        "search.partitions_examined": (g("search.search_min_vertices.examined"), c),
        "search.partitions_certified": (g("search.search_min_vertices.certified"), c),
        "search.accept_ratio": (
            ratio(g("search.search_min_vertices.found"), g("search.search_min_vertices.certified")), "ratio"),
        "spine.region_of_class_s": (g("spine.region_of_class.s"), s),
        "spine.region_of_class_calls": (g("spine.region_of_class.calls"), c),
        "spine.vertex_count_s": (g("spine.vertex_count.s"), s),
        "spine.vertex_count_calls": (g("spine.vertex_count.calls"), c),
        "spine.dual_spine_s": (g("spine.dual_spine.s"), s),
        "spine.verify_spine_s": (g("spine.verify_spine.s"), s),
        "partitions.vertex_partition_s": (g("partitions.vertex_partition.s"), s),
        "partitions.vertex_partition_calls": (g("partitions.vertex_partition.calls"), c),
        "core.derived_s": (g("core.derived.s"), s),
        "core.derived_faces": (g("core.derived.faces"), c),
        "core.derived_cache_hit_ratio": (
            ratio(g("derived_hits"), g("derived_hits") + g("derived_misses")), "ratio"),
        "core.derived_map_s": (g("core.derived_map.s"), s),
        "core.star_s": (g("core.star.s"), s),
        "core.connected_components_s": (g("core.connected_components.s"), s),
        "nerve.stein_s": (g("nerve.stein.s"), s),
        "nerve.stein_self_s": (g("nerve.stein.self_s"), s),
        "nerve.prenerve_map_s": (g("nerve.prenerve_map.s"), s),
        "nerve.component_poset_s": (g("nerve.component_poset.s"), s),
        "nerve.order_complex_s": (g("nerve.order_complex.s"), s),
        "nerve.nerve_checks_s": (g("nerve.nerve_checks.s"), s),
        "nerve.middle_faces": (g("nerve.stein.middle"), c),
        "drill.prepare_s": (g("drill.prepare.s"), s),
        "drill.drill_s": (g("drill.drill.s"), s),
        "drill.frontier_of_s": (g("drill.frontier_of.s"), s),
        "drill.points": (g("drill.drill.calls"), c),
        "strata.assign_types_s": (g("strata.assign_types.s"), s),
        "strata.stratum_components_s": (g("strata.stratum_components.s"), s),
        "strata.classify_point_link_s": (g("strata.classify_point_link.s"), s),
        "strata.classify_point_link_calls": (g("strata.classify_point_link.calls"), c),
        "homology.betti_all_s": (g("homology.betti_all.s"), s),
        "homology.gf2_rank_s": (g("homology.gf2_rank.s"), s),
        # betti_all wraps no call but gf2_rank, so its self time is the
        # chain-complex build plus the boundary-of-boundary check
        "homology.chain_build_s": (g("homology.betti_all.self_s"), s),
        "homology.gf2_rank_cells": (g("homology.gf2_rank.cells"), c),
        "recognize.is_closed_manifold_s": (g("recognize.is_closed_manifold.s"), s),
        "recognize.boundary_complex_s": (g("recognize.boundary_complex.s"), s),
        "io.parse_s": (g("io.parse_complex.s"), s),
        "models.named_triangulation_s": (g("models.named_triangulation.s"), s),
        "cli.import_s": (g("import_s"), s),
        "cli.self_s": (g("cli.main.self_s"), s),
        "trace.overhead_s": (overhead_s, s),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


COUNTS = ("collapse.greedy_calls", "search.partitions_certified", "core.derived_faces", "homology.gf2_rank_cells")


def traced(jobs: list[Job], runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced runs of each job; per-layer metrics are
    medians over the traced passes."""
    launcher = runner.launcher
    tjobs = [Job(j.name + " (traced)", j.args, j.check, j.vertices, j.oracle) for j in jobs]
    spans_path = launcher.work / "spans.json"
    passes: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() + pass_wall(jobs) + pass_wall(tjobs) <= deadline:
        totals: dict[str, float] = {}
        for j, t in zip(jobs, tjobs):
            runner.run(j, launcher.cli(j.args))
            t.stdout = j.stdout  # the traced stdout must equal the untraced one
            runner.run(t, [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path),
                           "--seed", str(launcher.seed), *t.args])
            if spans_path.exists():
                for k, v in layer_totals(json.loads(spans_path.read_text())).items():
                    totals[k] = totals.get(k, 0) + v
                spans_path.unlink()
        passes.append(totals)
    overhead = (statistics.median(map(sum, zip(*(t.walls for t in tjobs))))
                - statistics.median(map(sum, zip(*(j.walls for j in jobs)))))
    layers = [per_layer(t, overhead) for t in passes]
    # counts repeat exactly, so their median is taken among observed values
    median = {"count": statistics.median_low}
    metrics = {
        k: {"value": median.get(v["unit"], statistics.median)([m[k]["value"] for m in layers]), "unit": v["unit"]}
        for k, v in layers[0].items()
    }
    extra = {
        "traced_jobs": samples(tjobs),
        "counts_repeat": all(m[k]["value"] == layers[0][k]["value"] for m in layers for k in COUNTS),
    }
    return metrics, extra


# -- main ----------------------------------------------------------------------


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    src_files = sorted(p for p in (SRC / "plspines").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for p in src_files:
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path, inp: Inputs) -> dict:
    runner = Runner(Launcher(seed, work))
    jobs = build_workload(name, inp, runner.launcher)
    load_start = loadavg()
    # warm the bytecode and file caches before anything is timed
    runner.launcher.run(runner.launcher.cli(["gen", "--name", "S1_triangle"]))
    if trace:
        metrics, extra = traced(jobs, runner, seconds)
    else:
        metrics, extra = end_to_end(jobs, setup_job(inp), runner, seconds)
    failed = len(runner.failures)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "load_start": load_start,
        "load_end": loadavg(),
        "input_sha256": inp.hashes,
        "fail_ratio": failed / runner.attempted,
        "failures": runner.failures,
        "jobs": samples(jobs),
        **extra,
    }
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
            "metrics": metrics, "record": record}


def result_line(res: dict) -> dict:
    return {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}


def print_summary(name: str, res: dict) -> None:
    """Every metric by name with its unit, on stderr."""
    rec = res["record"]
    rows = [(k, v["value"], v["unit"]) for k, v in res["metrics"].items()]
    rows.append(("fail_ratio", rec["fail_ratio"], f"({res['failed']}/{res['attempted']} jobs)"))
    if not rec["trace"]:
        excess = rec["excess_vertices"]
        rows.append(("excess_vertices", "n/a" if excess is None else excess, "count"))
    for key, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:18s} {key:36s} {shown:>12s} {unit}", file=sys.stderr)
    for failure in rec["failures"]:
        print(f"{name:18s} FAILED {failure}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still kills and reaps its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "plspines" / "cli.py").is_file():
        print(f"error: no plspines package under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    names = ALL if args.workload == "all" else (args.workload,)
    results = {}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        work = Path(tmp)
        inp = make_inputs(work)
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), work, inp)
            res["record"]["environment"] = env
            print(json.dumps({"record": res["record"]}))
            print_summary(name, res)
            results[name] = res
    if args.workload != "all":
        print(json.dumps(result_line(results[args.workload])))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
