"""Command-line front end.

Commands print deterministic text reports; complexes travel between
pipelined commands in the canonical text format (with an optional inline
partition section).  Commands on a pair (complex, partition) take
``--in``/``--name`` and ``--partition``; the partition is ``--partition``
if given, else the one piped in with the complex, else the command's
default (``discrete`` for ``report``; the others exit 1).  Exit codes,
mapped once by the command group for every command: 0 success, 1 input
error (click's usage errors included), 2 a certificate or check did not
pass, 3 an internal invariant was violated (a theorem check failed, which
means a bug), 141 stdout was closed before the report was written (128 +
SIGPIPE, as a shell reports a producer cut off by a closed pipe).  Errors
print ``error: <message>`` on stderr.
"""

from __future__ import annotations

import functools
import os
import sys

import click

from plspines import io as pio
from plspines.core import Complex, InvariantViolation, derived
from plspines.models import named_triangulation
from plspines.partitions import (
    VertexPartition,
    discrete,
    one_vs_rest,
    single_class,
    vertex_partition,
)
from plspines.recognize import boundary_complex, euler_characteristic
from plspines.search import search_min_vertices
from plspines.spine import dual_spine, verify_spine
from plspines.strata import stratum_components

EXIT_INPUT = 1
EXIT_CHECK = 2
EXIT_BUG = 3
EXIT_PIPE = 141  # 128 + SIGPIPE (13), as shells report a killed writer


def _fail(msg: str, code: int) -> None:
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


class _Commands(click.Group):
    """The command group; maps errors to exit codes for every command.

    Usage errors surface in ``make_context`` (group options) and in
    ``invoke`` (the command name and the subcommand's options); click
    prints them and exits with their ``exit_code``, here 1 instead of 2.
    """

    def make_context(self, *args, **kwargs) -> click.Context:
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as e:
            e.exit_code = EXIT_INPUT
            raise

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            e.exit_code = EXIT_INPUT
            raise
        except InvariantViolation as e:
            _fail(str(e), EXIT_BUG)
        except ValueError as e:
            _fail(str(e), EXIT_INPUT)
        except BrokenPipeError:
            # the reader is gone: send what is still buffered to devnull so
            # the interpreter's last flush stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(EXIT_PIPE)


def _read_file(path: str) -> str:
    """Text of an input file; an unreadable file is an input error."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise ValueError(str(e)) from e


def _read_input(in_path: str | None, name: str | None):
    """Load (complex, optional partition) from --name, --in, or stdin."""
    if name is not None:
        if in_path is not None:
            raise ValueError("give --in or --name, not both")
        return named_triangulation(name), None
    return pio.parse_combined(_read_file(in_path) if in_path is not None else sys.stdin.read())


_NAMED_PARTITIONS = {"discrete": discrete, "single": single_class, "one-vs-rest": one_vs_rest}


def _parse_partition(t: Complex, spec: str) -> VertexPartition:
    if spec in _NAMED_PARTITIONS:
        return _NAMED_PARTITIONS[spec](t)
    if "|" in spec or "," in spec:
        classes = [c.split(",") for c in spec.split("|")]
        return vertex_partition(t, [[v for v in c if v] for c in classes])
    return pio.parse_partition(_read_file(spec), t)


def pair_input(default: str | None = None):
    """Give a command --in, --name and --partition; it is called with the
    complex and partition in place of those three options.

    The partition is --partition if given, else the piped one, else
    ``default``; with none of them the command exits 1.
    """
    fallback = "the piped one" + (f", else {default}" if default else "")

    def decorate(fn):
        @click.option("--in", "in_path", type=str, default=None)
        @click.option("--name", type=str, default=None)
        @click.option("--partition", "partition_arg", type=str, default=None,
                      help=f"Vertex partition; default: {fallback}.")
        @functools.wraps(fn)
        def command(*args, in_path, name, partition_arg, **kwargs):
            t, piped = _read_input(in_path, name)
            if partition_arg is not None:
                p = _parse_partition(t, partition_arg)
            elif piped is not None:
                p = piped
            elif default is not None:
                p = _parse_partition(t, default)
            else:
                raise ValueError("no partition given (use --partition)")
            return fn(*args, t, p, **kwargs)

        return command

    return decorate


def _write_out(out: str | None, text: str) -> None:
    """Write --out; a path that cannot be written is an input error."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ValueError(str(e)) from e


def _echo_strata(comps, d: int) -> None:
    """Count the stratum components of each type; type d are the regions."""
    for k in range(d):
        click.echo(f"type {k} components: {sum(1 for c in comps if c.type == k)}")
    click.echo(f"regions: {sum(1 for c in comps if c.type == d)}")


def _echo_nerve_checks(rep, closed: bool) -> bool:
    """Print the nerve checks; return whether those that apply pass.
    ``nerve-0or2`` is stated for closed manifold pairs only."""
    pseudo = ("pass" if rep.pseudomanifold_ok else "FAIL") if closed else "n/a (boundary)"
    click.echo(f"nerve-0or2: {pseudo}")
    click.echo(
        f"nerve-dim-iff-vertices: {'pass' if rep.dim_iff_vertices_ok else 'FAIL'}"
    )
    return rep.ok if closed else rep.dim_iff_vertices_ok


@click.group(cls=_Commands)
@click.option("--seed", type=int, default=0, show_default=True, help="RNG seed.")
@click.option("--budget", type=int, default=100_000, show_default=True,
              help="Search cap: exhaustive when 2**(vertex count) fits it, "
              "else the discrete partition.")
@click.option("--out", type=str, default=None, help="Optional output file.")
@click.pass_context
def main(ctx: click.Context, seed: int, budget: int, out: str | None):
    """Simple spines of PL manifolds: construction, search, and checks."""
    if budget < 0:
        raise ValueError(f"--budget must be at least 0, got {budget}")
    ctx.obj = {"seed": seed, "budget": budget, "out": out}


@main.command()
@click.option("--name", required=True, help="Catalogue name.")
@click.pass_context
def gen(ctx, name: str):
    """Emit a catalogued triangulation in the canonical format."""
    text = pio.format_complex(named_triangulation(name), comments=[f"name: {name}"])
    click.echo(text, nl=False)
    _write_out(ctx.obj["out"], text)


@main.command()
@click.option("--in", "in_path", type=str, default=None)
@click.option("--times", type=int, default=1, show_default=True)
@click.pass_context
def subdivide(ctx, in_path, times: int):
    """Derived (barycentric) subdivision of a complex."""
    if times < 0:
        raise ValueError(f"--times must be at least 0, got {times}")
    cx, _ = _read_input(in_path, None)
    for _ in range(times):
        cx = derived(cx).complex
    text = pio.format_complex(cx, comments=[f"derived x{times}"])
    click.echo(text, nl=False)
    _write_out(ctx.obj["out"], text)


@main.command("dual-spine")
@pair_input()
@click.pass_context
def dual_spine_cmd(ctx, t, p):
    """Build the dual spine; emits the input with its partition for piping,
    report lines as comments, and writes the spine complex to --out."""
    s = dual_spine(t, p)
    spine_cx = s.as_complex()
    comments = [
        f"spine cells: {len(spine_cx)}",
        f"spine dim: {spine_cx.dim}",
        f"vertices: {s.vertex_count}",
    ]
    click.echo(pio.format_combined(t, p, comments=comments), nl=False)
    if ctx.obj["out"]:
        _write_out(ctx.obj["out"], pio.format_complex(spine_cx))


@main.command("verify-spine")
@pair_input()
@click.pass_context
def verify_spine_cmd(ctx, t, p):
    """Certify the spine: each complement region is a ball, or a collar on
    the boundary, decided on its class's span where the span can."""
    cert = verify_spine(dual_spine(t, p), seed=ctx.obj["seed"])
    click.echo(f"certificate: {cert.certificate}")
    click.echo(f"vertices: {cert.vertices}")
    for r in cert.region_reports:
        status = "ok" if r.ok else "not collapsed"
        click.echo(
            f"region class {r.class_index} component {r.component_index}: "
            f"{r.kind} {status} ({r.faces} faces)"
        )
    if not cert.is_yes:
        sys.exit(EXIT_CHECK)


@main.command()
@pair_input()
def strata(t, p):
    """Stratum components of the dual spine, by type."""
    s = dual_spine(t, p)
    comps = stratum_components(s)
    click.echo(f"spine cells: {len(s.cells)}")
    click.echo(f"vertices: {s.vertex_count}")
    _echo_strata(comps, t.dim)


@main.command()
@click.option("--in", "in_path", type=str, default=None)
@click.option("--name", type=str, default=None)
@click.option("--exhaustive", is_flag=True, help="Require a proven-exhaustive search.")
@click.pass_context
def search(ctx, in_path, name, exhaustive):
    """Minimize the spine vertex count over certified partitions."""
    t, _ = _read_input(in_path, name)
    res = search_min_vertices(t, ctx.obj["budget"], seed=ctx.obj["seed"])
    if exhaustive and not res.proven_exhaustive:
        _fail("budget too small for an exhaustive search", EXIT_CHECK)
    click.echo(f"best_count: {res.best_count}")
    click.echo(f"proven_exhaustive: {str(res.proven_exhaustive).lower()}")
    click.echo(
        "best_partition: "
        + " | ".join(" ".join(c) for c in res.best_partition.canonical_key())
    )
    if ctx.obj["out"]:
        _write_out(ctx.obj["out"], pio.format_partition(res.best_partition))


@main.command()
@pair_input()
def nerve(t, p):
    """Pre-nerve and nerve of the pair, with the structural checks."""
    from plspines.nerve import nerve as nerve_fn
    from plspines.nerve import nerve_checks

    s = dual_spine(t, p)
    np_ = nerve_fn(s)
    click.echo(f"prenerve f-vector: {' '.join(map(str, np_.prenerve.f_vector()))}")
    click.echo(f"nerve f-vector: {' '.join(map(str, np_.nerve.f_vector()))}")
    click.echo(f"nerve dim: {np_.nerve.dim}")
    rep = nerve_checks(np_, s.vertex_count, t.dim)
    if not _echo_nerve_checks(rep, boundary_complex(t).is_empty):
        raise InvariantViolation("; ".join(rep.failures))


@main.command()
@click.option("--in", "in_path", type=str, default=None)
@click.option("--name", type=str, default=None)
@click.option("--k", "kdim", type=int, default=None, help="Single homology degree.")
def homology(in_path, name, kdim):
    """Betti numbers over the two-element field."""
    cx, _ = _read_input(in_path, name)
    from plspines.homology import betti, betti_all

    if kdim is not None:
        click.echo(f"betti[{kdim}]: {betti(cx, kdim)}")
    else:
        bs = betti_all(cx)
        click.echo("betti: " + " ".join(map(str, bs)))


@main.command("normal-discs")
@click.option("--n", "n", type=int, required=True)
def normal_discs(n):
    """Census of normal discs in the (n+1)-simplex."""
    from plspines.homology import enumerate_normal_discs

    discs = enumerate_normal_discs(n)
    from collections import Counter

    kinds = Counter(d.type for d in discs)
    parts = ", ".join(
        f"{kinds[k]}x({k[0]},{k[1]})" for k in sorted(kinds, reverse=True)
    )
    click.echo(f"total: {len(discs)} ({parts})")


@main.command()
@pair_input()
@click.option("--points", type=int, default=1, show_default=True,
              help="Number of seeded off-1-skeleton drill points.")
@click.pass_context
def drill(ctx, t, p, points):
    """Drill the dual spine at seeded points off its 1-skeleton."""
    if points < 1:
        raise ValueError(f"--points must be at least 1, got {points}")
    from plspines.drill import drill as drill_fn
    from plspines.drill import prepare, sample_drill_points

    ctx_d = prepare(dual_spine(t, p))
    pts = sample_drill_points(ctx_d, points, seed=ctx.obj["seed"])
    bad = 0
    for i, k in enumerate(pts):
        res = drill_fn(ctx_d, k)
        label = k.vertices[0]
        status = ""
        if res.vertices_after is not None:
            preserved = res.vertices_after == res.vertices_before
            status = " preserved" if preserved else " CHANGED"
            if not preserved:
                bad += 1
        click.echo(
            f"drill {i} at {label}: vertices {res.vertices_before} -> "
            f"{res.vertices_after}{status}"
        )
    if bad and t.dim >= 3:
        raise InvariantViolation("off-skeleton drilling changed the vertex count")


@main.command()
@pair_input(default="discrete")
@click.pass_context
def report(ctx, t, p):
    """Full pipeline for one manifold: spine, certificate, strata, nerve,
    checks, and homology, as one summary."""
    from plspines.homology import betti_all
    from plspines.nerve import component_poset, nerve_checks, nerve_of_poset

    s = dual_spine(t, p)  # an input error leaves stdout empty
    if ctx.params["name"]:
        click.echo(f"manifold: {ctx.params['name']}")
    click.echo(f"dim: {t.dim}")
    click.echo(f"f-vector: {' '.join(map(str, t.f_vector()))}")
    click.echo(f"euler: {euler_characteristic(t)}")
    click.echo("partition: " + " | ".join(" ".join(c) for c in p.canonical_key()))
    cert = verify_spine(s, seed=ctx.obj["seed"])
    click.echo(f"vertices: {s.vertex_count}")
    click.echo(f"certificate: {cert.certificate}")
    comps = stratum_components(s)
    _echo_strata(comps, t.dim)
    np_ = nerve_of_poset(t, component_poset(comps))
    click.echo(f"nerve dim: {np_.nerve.dim}")
    rep = nerve_checks(np_, s.vertex_count, t.dim)
    nerve_ok = _echo_nerve_checks(rep, boundary_complex(t).is_empty)
    click.echo("betti: " + " ".join(map(str, betti_all(t))))
    if not nerve_ok:
        raise InvariantViolation("; ".join(rep.failures))
    if not cert.is_yes:
        sys.exit(EXIT_CHECK)


if __name__ == "__main__":
    main()
