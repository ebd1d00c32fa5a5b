import dataclasses
import importlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import plspines
from plspines.cli import main
from plspines.core import InvariantViolation
from plspines.io import format_complex
from plspines.models import named_triangulation


@pytest.fixture()
def runner():
    # click 8.1 mixes stderr into the output unless told not to; click 8.2
    # keeps the two apart and no longer takes the option
    try:
        return CliRunner(mix_stderr=False)
    except TypeError:
        return CliRunner()


def _env(**extra):
    """The environment for a subprocess that imports this checkout."""
    src = str(Path(plspines.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


class TestGen:
    def test_gen_torus(self, runner):
        res = invoke(runner, ["gen", "--name", "T2_7"])
        assert res.exit_code == 0
        assert "dim 2" in res.output
        assert len([l for l in res.output.splitlines()
                    if l and not l.startswith("#")]) == 15

    def test_gen_unknown_exits_1(self, runner):
        res = runner.invoke(main, ["gen", "--name", "nope"])
        assert res.exit_code == 1


class TestPipeline:
    def test_gen_dualspine_verify(self, runner):
        gen = invoke(runner, ["gen", "--name", "T2_7"])
        ds = invoke(runner, ["dual-spine", "--partition", "discrete"],
                    input=gen.output)
        assert ds.exit_code == 0
        assert "# vertices: 14" in ds.output
        vs = invoke(runner, ["verify-spine"], input=ds.output)
        assert vs.exit_code == 0
        assert "certificate: yes" in vs.output
        assert "vertices: 14" in vs.output

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

    def test_verify_unknown_exits_2(self, runner):
        gen = invoke(runner, ["gen", "--name", "RP2_6"])
        ds = invoke(runner, ["dual-spine", "--partition", "one-vs-rest"],
                    input=gen.output)
        res = runner.invoke(main, ["verify-spine"], input=ds.output)
        assert res.exit_code == 2
        assert "certificate: unknown" in res.output


class TestCommands:
    def test_subdivide(self, runner):
        gen = invoke(runner, ["gen", "--name", "S1_triangle"])
        sub = invoke(runner, ["subdivide"], input=gen.output)
        assert sub.exit_code == 0
        lines = [l for l in sub.output.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "dim 1"
        assert len(lines) == 7  # hexagon facets

    def test_normal_discs(self, runner):
        res = invoke(runner, ["normal-discs", "--n", "3"])
        assert res.output.strip() == "total: 15 (5x(4,1), 10x(3,2))"
        res2 = invoke(runner, ["normal-discs", "--n", "2"])
        assert res2.output.strip() == "total: 7 (4x(3,1), 3x(2,2))"

    def test_homology(self, runner):
        res = invoke(runner, ["homology", "--name", "T2_7"])
        assert res.output.strip() == "betti: 1 2 1"
        res2 = invoke(runner, ["homology", "--name", "T2_7", "--k", "1"])
        assert res2.output.strip() == "betti[1]: 2"

    def test_strata(self, runner):
        res = invoke(runner, ["strata", "--name", "S2_tetra",
                              "--partition", "discrete"])
        assert "type 0 components: 4" in res.output
        assert "type 1 components: 6" in res.output
        assert "regions: 4" in res.output

    def test_search_exhaustive(self, runner):
        res = invoke(runner, ["search", "--name", "S2_tetra", "--exhaustive"])
        assert "best_count: 0" in res.output
        assert "proven_exhaustive: true" in res.output

    def test_search_exhaustive_needs_budget(self, runner):
        res = runner.invoke(
            main, ["--budget", "1", "search", "--name", "S2_tetra", "--exhaustive"]
        )
        assert res.exit_code == 2

    def test_search_inline_partition_input(self, runner):
        res = invoke(runner, ["verify-spine", "--name", "S2_tetra",
                              "--partition", "a,b|c,d"])
        assert res.exit_code == 0
        assert "vertices: 0" in res.output

    def test_nerve(self, runner):
        res = invoke(runner, ["nerve", "--name", "S2_tetra",
                              "--partition", "discrete"])
        assert "nerve dim: 2" in res.output
        assert "nerve-0or2: pass" in res.output
        assert "nerve-dim-iff-vertices: pass" in res.output

    def test_drill(self, runner):
        res = invoke(runner, ["--seed", "5", "drill", "--name", "S2_tetra",
                              "--partition", "a,b|c,d", "--points", "2"])
        assert res.exit_code == 0
        assert res.output.count("vertices 0 -> 0") == 2

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_drill_needs_a_point(self, runner, points):
        res = runner.invoke(main, ["drill", "--name", "S2_tetra", "--partition",
                                   "discrete", "--points", points])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "--points must be at least 1" in res.stderr

    def test_subdivide_rejects_negative_times(self, runner):
        gen = invoke(runner, ["gen", "--name", "S1_triangle"])
        res = runner.invoke(main, ["subdivide", "--times", "-1"], input=gen.output)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "--times must be at least 0" in res.stderr

    def test_report(self, runner):
        res = invoke(runner, ["report", "--name", "T2_7"])
        assert res.exit_code == 0
        for line in ("manifold: T2_7", "vertices: 14", "certificate: yes",
                     "nerve-0or2: pass", "betti: 1 2 1"):
            assert line in res.output


def _piped_rp2_one_vs_rest(runner):
    gen = invoke(runner, ["gen", "--name", "RP2_6"])
    return invoke(runner, ["dual-spine", "--partition", "one-vs-rest"], input=gen.output).output


class TestPartitionPrecedence:
    def test_report_reads_the_piped_partition(self, runner):
        res = runner.invoke(main, ["report"], input=_piped_rp2_one_vs_rest(runner))
        assert res.exit_code == 2
        assert "partition: p1 | p2 p3 p4 p5 p6\n" in res.stdout
        assert "certificate: unknown\n" in res.stdout

    @pytest.mark.parametrize("cmd", ["report", "verify-spine"])
    def test_explicit_partition_overrides_the_piped_one(self, runner, cmd):
        res = invoke(runner, [cmd, "--partition", "discrete"],
                     input=_piped_rp2_one_vs_rest(runner))
        assert res.exit_code == 0
        assert "vertices: 10\n" in res.stdout
        assert "certificate: yes\n" in res.stdout


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
    def test_invariant_violation_exits_3(self, runner, monkeypatch, cmd, target):
        def broken(*args, **kwargs):
            raise InvariantViolation("injected")

        monkeypatch.setattr(target, broken)
        res = runner.invoke(main, [cmd, "--name", "S2_tetra", "--partition", "discrete"])
        assert res.exit_code == 3
        assert res.stderr == "error: injected\n"

    @pytest.mark.parametrize("cmd", ["nerve", "report"])
    def test_failed_nerve_check_exits_3(self, runner, monkeypatch, cmd):
        import plspines.nerve

        real = plspines.nerve.nerve_checks

        def failing(*args, **kwargs):
            rep = real(*args, **kwargs)
            return dataclasses.replace(rep, pseudomanifold_ok=False, failures=("injected",))

        monkeypatch.setattr(plspines.nerve, "nerve_checks", failing)
        res = runner.invoke(main, [cmd, "--name", "S2_tetra", "--partition", "discrete"])
        assert res.exit_code == 3
        assert "nerve-0or2: FAIL\n" in res.stdout
        assert res.stderr == "error: injected\n"

    @pytest.mark.parametrize("cmd", sorted(PAIR_COMMANDS))
    def test_bad_partition_spec_exits_1(self, runner, cmd):
        res = runner.invoke(main, [cmd, "--name", "S2_tetra", "--partition", "a,zz"])
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ")

    @pytest.mark.parametrize("cmd", ["homology", "search", "nerve"])
    def test_in_with_name_exits_1(self, runner, tmp_path, cmd):
        path = tmp_path / "t.cplx"
        path.write_text(format_complex(named_triangulation("S2_oct")))
        res = runner.invoke(main, [cmd, "--in", str(path), "--name", "S2_tetra"])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == "error: give --in or --name, not both\n"

    def test_negative_budget_exits_1(self, runner):
        res = runner.invoke(main, ["--budget", "-5", "search", "--name", "S2_tetra"])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == "error: --budget must be at least 0, got -5\n"

    @pytest.mark.parametrize("args", [
        pytest.param(["report", "--bogus"], id="command-option"),
        pytest.param(["--bogus", "report"], id="group-option"),
        pytest.param(["nosuch"], id="command-name"),
        pytest.param(["drill", "--name", "S2_tetra", "--partition", "discrete",
                      "--points", "x"], id="option-value"),
    ])
    def test_usage_error_exits_1(self, runner, args):
        # exit 2 would read as "a certificate did not pass"
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert "Error: " in res.stderr

    def test_report_input_error_prints_nothing(self):
        # the discrete partition splits the disc's boundary; a subprocess,
        # since click 8.1's CliRunner mixes stderr into stdout
        out = subprocess.run(
            [sys.executable, "-m", "plspines", "report", "--name", "D2_triangle"],
            capture_output=True, text=True, timeout=120, env=_env(),
        )
        assert out.stdout == ""
        assert out.returncode == 1
        assert out.stderr.startswith("error: partition does not respect the boundary")

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
    def test_partition_file_and_out(self, runner, tmp_path):
        t_path = tmp_path / "t.cplx"
        p_path = tmp_path / "p.txt"
        spine_path = tmp_path / "spine.cplx"
        gen = invoke(runner, ["gen", "--name", "S2_tetra"])
        t_path.write_text(gen.output)
        p_path.write_text("a b\nc d\n")
        res = invoke(runner, [
            "--out", str(spine_path), "dual-spine",
            "--in", str(t_path), "--partition", str(p_path),
        ])
        assert res.exit_code == 0
        from plspines import io as pio
        from plspines.recognize import is_closed_curve

        spine = pio.parse_complex(spine_path.read_text())
        assert is_closed_curve(spine)

    def test_missing_partition_is_input_error(self, runner):
        res = runner.invoke(main, ["verify-spine", "--name", "S2_tetra"])
        assert res.exit_code == 1


class TestDeterminism:
    def test_byte_identical_reports(self, runner):
        a = invoke(runner, ["--seed", "7", "report", "--name", "RP2_6"])
        b = invoke(runner, ["--seed", "7", "report", "--name", "RP2_6"])
        assert a.output == b.output

    def test_byte_identical_search(self, runner):
        args = ["--seed", "3", "--budget", "300", "search", "--name", "S2_tetra"]
        a = invoke(runner, args)
        b = invoke(runner, args)
        assert a.output == b.output

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


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, plspines.cli; print('numpy' in sys.modules)"
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


def test_traced_harness_names_resolve(monkeypatch):
    # bench/traced_cli.py wraps package functions by name; a deleted or
    # renamed one would break its --trace runs, and nothing else imports it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    traced_cli = importlib.import_module("traced_cli")
    for modname, fn_name in traced_cli.TARGETS:
        assert callable(getattr(importlib.import_module(modname), fn_name)), (modname, fn_name)
    assert callable(plspines.core.derived.cache_info)
    for name in plspines.__all__:
        assert getattr(plspines, name) is not None, name


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
