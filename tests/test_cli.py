import dataclasses
import importlib
import json
import os
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import plspines
from plspines.core import InvariantViolation
from plspines.io import format_complex
from plspines.models import named_triangulation
from helpers import run_cli, wedge_of_tetra_boundaries


def _env(**extra):
    """The environment for a subprocess that imports this checkout."""
    src = str(Path(plspines.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def _stdout(args, stdin=None):
    """Stdout of a command that must exit 0."""
    code, out, err = run_cli(args, stdin)
    assert code == 0, (args, err)
    return out


class TestGen:
    def test_gen_torus(self):
        out = _stdout(["gen", "--name", "T2_7"])
        assert "dim 2" in out
        assert len([l for l in out.splitlines() if l and not l.startswith("#")]) == 15

    def test_gen_unknown_exits_1(self):
        code, _, _ = run_cli(["gen", "--name", "nope"])
        assert code == 1


class TestPipeline:
    def test_gen_dualspine_verify(self):
        gen = _stdout(["gen", "--name", "T2_7"])
        ds = _stdout(["dual-spine", "--partition", "discrete"], gen)
        assert "# vertices: 14" in ds
        vs = _stdout(["verify-spine"], ds)
        assert "certificate: yes" in vs
        assert "vertices: 14" in vs

    def test_real_subprocess_pipe(self):
        cli = f"{shlex.quote(sys.executable)} -m plspines"
        shell = (
            f"{cli} gen --name S2_tetra | "
            f"{cli} dual-spine --partition discrete | "
            f"{cli} verify-spine"
        )
        out = subprocess.run(
            ["bash", "-c", shell], capture_output=True, text=True, timeout=120, env=_env()
        )
        assert out.returncode == 0
        assert "certificate: yes" in out.stdout
        assert "vertices: 4" in out.stdout

    def test_verify_unknown_exits_2(self):
        gen = _stdout(["gen", "--name", "RP2_6"])
        ds = _stdout(["dual-spine", "--partition", "one-vs-rest"], gen)
        code, out, _ = run_cli(["verify-spine"], ds)
        assert code == 2
        assert "certificate: unknown" in out


class TestCommands:
    def test_subdivide(self):
        gen = _stdout(["gen", "--name", "S1_triangle"])
        sub = _stdout(["subdivide"], gen)
        lines = [l for l in sub.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "dim 1"
        assert len(lines) == 7  # hexagon facets

    def test_normal_discs(self):
        assert _stdout(["normal-discs", "--n", "3"]).strip() == "total: 15 (5x(4,1), 10x(3,2))"
        assert _stdout(["normal-discs", "--n", "2"]).strip() == "total: 7 (4x(3,1), 3x(2,2))"

    def test_homology(self):
        assert _stdout(["homology", "--name", "T2_7"]).strip() == "betti: 1 2 1"
        assert _stdout(["homology", "--name", "T2_7", "--k", "1"]).strip() == "betti[1]: 2"

    def test_strata(self):
        out = _stdout(["strata", "--name", "S2_tetra", "--partition", "discrete"])
        assert "type 0 components: 4" in out
        assert "type 1 components: 6" in out
        assert "regions: 4" in out

    def test_search_exhaustive(self):
        out = _stdout(["search", "--name", "S2_tetra", "--exhaustive"])
        assert "best_count: 0" in out
        assert "proven_exhaustive: true" in out

    def test_search_exhaustive_needs_budget(self):
        code, _, _ = run_cli(["--budget", "1", "search", "--name", "S2_tetra", "--exhaustive"])
        assert code == 2

    def test_search_inline_partition_input(self):
        out = _stdout(["verify-spine", "--name", "S2_tetra", "--partition", "a,b|c,d"])
        assert "vertices: 0" in out

    def test_nerve(self):
        out = _stdout(["nerve", "--name", "S2_tetra", "--partition", "discrete"])
        assert "nerve dim: 2" in out
        assert "nerve-0or2: pass" in out
        assert "nerve-dim-iff-vertices: pass" in out

    def test_drill(self):
        out = _stdout(["--seed", "5", "drill", "--name", "S2_tetra",
                       "--partition", "a,b|c,d", "--points", "2"])
        assert out.count("vertices 0 -> 0") == 2

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_drill_needs_a_point(self, points):
        code, out, err = run_cli(["drill", "--name", "S2_tetra", "--partition",
                                  "discrete", "--points", points])
        assert code == 1
        assert out == ""
        assert "--points must be at least 1" in err

    def test_subdivide_rejects_negative_times(self):
        gen = _stdout(["gen", "--name", "S1_triangle"])
        code, out, err = run_cli(["subdivide", "--times", "-1"], gen)
        assert code == 1
        assert out == ""
        assert "--times must be at least 0" in err

    def test_report(self):
        out = _stdout(["report", "--name", "T2_7"])
        for line in ("manifold: T2_7", "vertices: 14", "certificate: yes",
                     "nerve-0or2: pass", "betti: 1 2 1"):
            assert line in out

    @pytest.mark.parametrize("name,partition", [("T2_7", "discrete"), ("D2_triangle", "single")])
    def test_report_computes_the_boundary_once(self, monkeypatch, name, partition):
        # dual_spine computes the boundary for its check; the spine
        # certificate, its region fallbacks and the nerve checks read it off
        # the spine.  The modules report imports late are loaded first, so
        # every binding is counted
        import plspines.homology
        import plspines.nerve
        import plspines.recognize

        real = plspines.recognize.boundary_complex
        calls = []

        def counted(cx):
            calls.append(cx)
            return real(cx)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("plspines") and getattr(mod, "boundary_complex", None) is real:
                monkeypatch.setattr(mod, "boundary_complex", counted)
        _, out, _ = run_cli(["report", "--name", name, "--partition", partition])
        assert "betti: " in out
        assert len(calls) == 1

    def test_help_names_every_command(self):
        code, out, _ = run_cli(["--help"])
        assert code == 0
        first_words = {line.split()[0] for line in out.splitlines() if line.strip()}
        assert {"gen", "subdivide", "dual-spine", "verify-spine", "strata", "search",
                "nerve", "homology", "normal-discs", "drill", "report"} <= first_words

    def test_report_help_shows_partition_default(self):
        code, out, _ = run_cli(["report", "--help"])
        assert code == 0
        assert "the piped one, else discrete" in " ".join(out.split())


def _piped_rp2_one_vs_rest():
    gen = _stdout(["gen", "--name", "RP2_6"])
    return _stdout(["dual-spine", "--partition", "one-vs-rest"], gen)


class TestPartitionPrecedence:
    def test_report_reads_the_piped_partition(self):
        code, out, _ = run_cli(["report"], _piped_rp2_one_vs_rest())
        assert code == 2
        assert "partition: p1 | p2 p3 p4 p5 p6\n" in out
        assert "certificate: unknown\n" in out

    @pytest.mark.parametrize("cmd", ["report", "verify-spine"])
    def test_explicit_partition_overrides_the_piped_one(self, cmd):
        out = _stdout([cmd, "--partition", "discrete"], _piped_rp2_one_vs_rest())
        assert "vertices: 10\n" in out
        assert "certificate: yes\n" in out


PAIR_COMMANDS = {
    # command -> a package function it calls, looked up where the command finds it
    "report": "plspines.homology.betti_all",
    "nerve": "plspines.nerve.nerve_checks",
    "strata": "plspines.cli.stratum_components",
    "drill": "plspines.drill.prepare",
    "dual-spine": "plspines.cli.dual_spine",
    "verify-spine": "plspines.cli.verify_spine",
}


class TestExitCodes:
    @pytest.mark.parametrize("cmd,target", sorted(PAIR_COMMANDS.items()))
    def test_invariant_violation_exits_3(self, monkeypatch, cmd, target):
        def broken(*args, **kwargs):
            raise InvariantViolation("injected")

        monkeypatch.setattr(target, broken)
        code, _, err = run_cli([cmd, "--name", "S2_tetra", "--partition", "discrete"])
        assert code == 3
        assert err == "error: injected\n"

    @pytest.mark.parametrize("cmd", ["nerve", "report"])
    def test_failed_nerve_check_exits_3(self, monkeypatch, cmd):
        import plspines.nerve

        real = plspines.nerve.nerve_checks

        def failing(*args, **kwargs):
            rep = real(*args, **kwargs)
            return dataclasses.replace(rep, pseudomanifold_ok=False, failures=("injected",))

        monkeypatch.setattr(plspines.nerve, "nerve_checks", failing)
        code, out, err = run_cli([cmd, "--name", "S2_tetra", "--partition", "discrete"])
        assert code == 3
        assert "nerve-0or2: FAIL\n" in out
        assert err == "error: injected\n"

    @pytest.mark.parametrize("cmd", ["nerve", "report"])
    def test_arc_with_boundary_exits_0(self, cmd):
        # nerve-0or2 is stated for closed manifold pairs; at an end of the
        # arc the nerve has a free vertex
        out = _stdout([cmd, "--partition", "discrete"], "dim 1\na b\nb c\n")
        assert "nerve-0or2: n/a (boundary)\n" in out

    def test_closed_non_manifold_exits_2(self, tmp_path):
        # every region collapses, yet the wedge is not a manifold: no "yes"
        path = tmp_path / "wedge.cplx"
        path.write_text(format_complex(wedge_of_tetra_boundaries()))
        code, out, _ = run_cli(["report", "--in", str(path)])
        assert code == 2
        assert "certificate: unknown\n" in out

    @pytest.mark.parametrize("cmd", sorted([*PAIR_COMMANDS, "search"]))
    def test_dimension_0_exits_1(self, cmd):
        # two points: valid input, but no dual spine and no search
        args = [cmd] if cmd == "search" else [cmd, "--partition", "discrete"]
        code, out, err = run_cli(args, "dim 0\na\nb\n")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("cmd", ["gen", "search"])
    def test_unwritable_out_exits_1(self, tmp_path, cmd):
        out = subprocess.run(
            [sys.executable, "-m", "plspines", "--out", str(tmp_path / "missing" / "x"),
             cmd, "--name", "S1_triangle"],
            capture_output=True, text=True, timeout=120, env=_env(),
        )
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("error:")

    @pytest.mark.parametrize("args", [
        ["verify-spine", "--name", "S2_tetra", "--partition", "discrete"],
        ["strata", "--name", "S2_tetra", "--partition", "discrete"],
        ["nerve", "--name", "S2_tetra", "--partition", "discrete"],
        ["homology", "--name", "S2_tetra"],
        ["normal-discs", "--n", "2"],
        ["drill", "--name", "S2_tetra", "--partition", "discrete"],
        ["report", "--name", "S2_tetra"],
    ], ids=lambda args: args[0])
    def test_out_on_a_command_that_writes_nothing_exits_1(self, tmp_path, args):
        # --out would be silently ignored: refused before the command runs
        path = tmp_path / "x.txt"
        code, out, err = run_cli(["--out", str(path), *args])
        assert code == 1
        assert out == ""
        assert err == f"error: {args[0]} writes no file: --out does not apply\n"
        assert not path.exists()

    @pytest.mark.parametrize("cmd", sorted(PAIR_COMMANDS))
    def test_bad_partition_spec_exits_1(self, cmd):
        code, _, err = run_cli([cmd, "--name", "S2_tetra", "--partition", "a,zz"])
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("cmd", ["homology", "search", "nerve"])
    def test_in_with_name_exits_1(self, tmp_path, cmd):
        path = tmp_path / "t.cplx"
        path.write_text(format_complex(named_triangulation("S2_oct")))
        code, out, err = run_cli([cmd, "--in", str(path), "--name", "S2_tetra"])
        assert code == 1
        assert out == ""
        assert err == "error: give --in or --name, not both\n"

    def test_negative_budget_exits_1(self):
        code, out, err = run_cli(["--budget", "-5", "search", "--name", "S2_tetra"])
        assert code == 1
        assert out == ""
        assert err == "error: --budget must be at least 0, got -5\n"

    @pytest.mark.parametrize("args", [
        pytest.param(["report", "--bogus"], id="command-option"),
        pytest.param(["--bogus", "report"], id="group-option"),
        pytest.param(["nosuch"], id="command-name"),
        pytest.param(["drill", "--name", "S2_tetra", "--partition", "discrete",
                      "--points", "x"], id="option-value"),
        pytest.param(["report", "--nam", "S3_pentachoron"], id="abbreviation"),
        pytest.param(["--budget", "x", "report"], id="group-option-value"),
    ])
    def test_usage_error_exits_1(self, args):
        # exit 2 would read as "a certificate did not pass"
        code, out, err = run_cli(args)
        assert code == 1
        assert out == ""
        assert "error: " in err

    def test_report_input_error_prints_nothing(self):
        # the discrete partition splits the disc's boundary
        code, out, err = run_cli(["report", "--name", "D2_triangle"])
        assert out == ""
        assert code == 1
        assert err.startswith("error: partition does not respect the boundary")

    def test_closed_stdout_exits_141(self):
        # the reader keeps one line and goes away while the report still runs
        proc = subprocess.Popen(
            [sys.executable, "-m", "plspines", "report", "--name", "S3_pentachoron"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
        )
        assert proc.stdout.readline() == b"manifold: S3_pentachoron\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert err == b""


class TestFiles:
    def test_partition_file_and_out(self, tmp_path):
        t_path = tmp_path / "t.cplx"
        p_path = tmp_path / "p.txt"
        spine_path = tmp_path / "spine.cplx"
        t_path.write_text(_stdout(["gen", "--name", "S2_tetra"]))
        p_path.write_text("a b\nc d\n")
        _stdout(["--out", str(spine_path), "dual-spine",
                 "--in", str(t_path), "--partition", str(p_path)])
        from plspines import io as pio
        from helpers import is_closed_curve

        spine = pio.parse_complex(spine_path.read_text())
        assert is_closed_curve(spine)

    def test_missing_partition_is_input_error(self):
        code, _, _ = run_cli(["verify-spine", "--name", "S2_tetra"])
        assert code == 1


class TestDeterminism:
    def test_byte_identical_reports(self):
        args = ["--seed", "7", "report", "--name", "RP2_6"]
        assert run_cli(args) == run_cli(args)

    def test_byte_identical_search(self):
        args = ["--seed", "3", "--budget", "300", "search", "--name", "S2_tetra"]
        assert run_cli(args) == run_cli(args)

    @pytest.mark.parametrize(
        "args",
        [
            ["search", "--name", "genus2_10"],
            ["report", "--name", "T2_7"],
            # the nerve of a 3-manifold: Stein orders by computed ranks
            ["report", "--name", "S3_pentachoron"],
        ],
    )
    def test_stdout_independent_of_hash_seed(self, args):
        outs = [
            subprocess.run(
                [sys.executable, "-m", "plspines", *args], capture_output=True, text=True,
                timeout=120, env=_env(PYTHONHASHSEED=seed), check=True,
            ).stdout
            for seed in ("1", "4242")
        ]
        assert outs[0] == outs[1]

    def test_stein_independent_of_hash_seed(self):
        # Stein's step pairs come out of a set, and stdout's f-vectors would
        # not show a middle numbered in another order; S1*S1's discrete
        # nerve has the most transversal chains of the golden jobs
        join = Path(__file__).parent / "golden" / "S1_join_S1.cplx"
        code = (
            "import hashlib\n"
            "from plspines.io import parse_complex\n"
            "from plspines.models import named_triangulation\n"
            "from plspines.nerve import nerve\n"
            "from plspines.partitions import discrete, one_vs_rest\n"
            "from plspines.spine import dual_spine\n"
            "t = named_triangulation('S3_pentachoron')\n"
            f"u = parse_complex(open({str(join)!r}).read())\n"
            "for s in (dual_spine(t, one_vs_rest(t)), dual_spine(u, discrete(u))):\n"
            "    sf = nerve(s).stein\n"
            "    key = (sf.h, sorted(sf.middle.vertices), sorted(sf.g_assignment.items()))\n"
            "    print(hashlib.sha256(repr(key).encode()).hexdigest())\n"
        )
        outs = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=120, env=_env(PYTHONHASHSEED=seed), check=True).stdout
            for seed in ("1", "4242")
        ]
        assert len(outs[0]) == 2 * 65
        assert outs[0] == outs[1]


@pytest.mark.parametrize("module", ["numpy", "click"])
def test_cli_import_leaves_module_unloaded(module):
    # the CLI runs on the standard library: a launch pays for no other import
    code = f"import sys, plspines.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=_env(), check=True)
    assert out.stdout == "False\n"


def test_homology_and_report_leave_numpy_unloaded():
    # GF(2) homology runs on bit-packed int columns, so no subcommand needs numpy
    code = (
        "import sys\n"
        "from plspines.cli import main\n"
        "for args in (['homology', '--name', 'T2_7'], ['report', '--name', 'T2_7']):\n"
        "    try:\n"
        "        main.main(args=args, prog_name='plspines')\n"
        "    except SystemExit as e:\n"
        "        assert not e.code, (args, e.code)\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=_env(), check=True)
    assert out.stdout.count("betti: 1 2 1\n") == 2
    assert out.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("golden,args", [
    ("report_S3_pentachoron", ["report", "--name", "S3_pentachoron"]),
    ("search_genus2_10", ["search", "--name", "genus2_10"]),
])
def test_module_entry_point_matches_golden(golden, args):
    # every benchmark job launches the CLI as `python -m plspines.cli`
    out = subprocess.run([sys.executable, "-m", "plspines.cli", "--seed", "0", *args],
                         capture_output=True, text=True, timeout=120, env=_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout == (Path(__file__).parent / "golden" / f"{golden}.out").read_text()


def test_traced_harness_names_resolve():
    # bench/traced_cli.py reads the derived cache's counters; the functions
    # it wraps are checked one by one by test_trace_target_resolves
    assert callable(plspines.core.derived.cache_info)
    for name in plspines.__all__:
        assert getattr(plspines, name) is not None, name


# read from the file itself: runpy compiles it without writing bytecode
TRACE_TARGETS = sorted(
    runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"))["TARGETS"]
)


@pytest.mark.parametrize("modname,fn_name", TRACE_TARGETS, ids=[".".join(k) for k in TRACE_TARGETS])
def test_trace_target_resolves(modname, fn_name):
    # install() looks up every target by name, so a moved or renamed one
    # breaks every --trace 1 run
    assert callable(getattr(importlib.import_module(modname), fn_name, None))


TRACED_RUNS = [
    ["report", "--name", "S2_tetra"],
    ["search", "--name", "S2_tetra"],
    ["drill", "--name", "S3_pentachoron", "--partition", "discrete", "--points", "2"],
    ["homology", "--name", "T2_7"],
]


def test_traced_harness_runs_end_to_end(tmp_path):
    # bench/traced_cli.py reads attributes off package results (Stein's
    # middle, the search counts, matrix sizes, derived levels); a changed
    # field would otherwise show only in a traced benchmark run
    script = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"
    env = _env(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    attrs: dict[str, set[str]] = {}
    for i, args in enumerate(TRACED_RUNS):
        spans_path = tmp_path / f"spans{i}.json"
        traced = subprocess.run([sys.executable, str(script), str(spans_path), *args],
                                capture_output=True, text=True, timeout=300, env=env)
        plain = subprocess.run([sys.executable, "-m", "plspines", *args],
                               capture_output=True, text=True, timeout=300, env=env)
        assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout), args
        for name, _, _, _, span_attrs in json.loads(spans_path.read_text())["spans"]:
            attrs.setdefault(name, set()).update(span_attrs or ())
    for name, attr in [
        ("nerve.stein", "middle"),
        ("search.search_min_vertices", "certified"),
        ("homology.gf2_rank", "cells"),
        ("core.derived", "faces"),
    ]:
        assert attr in attrs.get(name, ()), (name, attr)
