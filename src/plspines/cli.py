"""Command-line front end.

Commands print deterministic text reports; complexes travel between
pipelined commands in the canonical text format (with an optional inline
partition section).  Exit codes: 0 success, 1 input error, 2 a certificate
or check did not pass, 3 an internal invariant was violated (a theorem
check failed, which means a bug).
"""

from __future__ import annotations

import sys

import click

from plspines import io as pio
from plspines.core import Complex, InvariantViolation, derived
from plspines.models import named_triangulation
from plspines.partitions import VertexPartition, discrete, one_vs_rest, single_class
from plspines.recognize import euler_characteristic
from plspines.search import search_min_vertices
from plspines.spine import dual_spine, verify_spine
from plspines.strata import assign_types, stratum_components

EXIT_INPUT = 1
EXIT_CHECK = 2
EXIT_BUG = 3


class CliError(click.ClickException):
    exit_code = EXIT_INPUT


def _fail(msg: str, code: int) -> None:
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


def _read_input(in_path: str | None, name: str | None):
    """Load (complex, optional partition) from --in, --name, or stdin."""
    try:
        if name is not None:
            return named_triangulation(name), None
        if in_path is not None:
            with open(in_path) as fh:
                return pio.parse_combined(fh.read())
        data = sys.stdin.read()
        return pio.parse_combined(data)
    except (OSError, ValueError) as e:
        _fail(str(e), EXIT_INPUT)


def _resolve_partition(t: Complex, spec: str | None, inherited) -> VertexPartition:
    if spec is None:
        if inherited is not None:
            return inherited
        _fail("no partition given (use --partition)", EXIT_INPUT)
    try:
        if spec == "discrete":
            return discrete(t)
        if spec == "single":
            return single_class(t)
        if spec == "one-vs-rest":
            return one_vs_rest(t)
        if "|" in spec or "," in spec:
            classes = [c.split(",") for c in spec.split("|")]
            from plspines.partitions import vertex_partition

            return vertex_partition(t, [[v for v in c if v] for c in classes])
        with open(spec) as fh:
            return pio.parse_partition(fh.read(), t)
    except (OSError, ValueError) as e:
        _fail(str(e), EXIT_INPUT)


def _write_out(out: str | None, text: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)


@click.group()
@click.option("--seed", type=int, default=0, show_default=True, help="RNG seed.")
@click.option("--budget", type=int, default=100_000, show_default=True,
              help="Search cap: exhaustive when 2**(vertex count) fits it, "
              "else the discrete partition.")
@click.option("--out", type=str, default=None, help="Optional output file.")
@click.pass_context
def main(ctx: click.Context, seed: int, budget: int, out: str | None):
    """Simple spines of PL manifolds: construction, search, and checks."""
    ctx.obj = {"seed": seed, "budget": budget, "out": out}


@main.command()
@click.option("--name", required=True, help="Catalogue name.")
@click.pass_context
def gen(ctx, name: str):
    """Emit a catalogued triangulation in the canonical format."""
    try:
        cx = named_triangulation(name)
    except ValueError as e:
        _fail(str(e), EXIT_INPUT)
    text = pio.format_complex(cx, comments=[f"name: {name}"])
    click.echo(text, nl=False)
    _write_out(ctx.obj["out"], text)


@main.command()
@click.option("--in", "in_path", type=str, default=None)
@click.option("--times", type=int, default=1, show_default=True)
@click.pass_context
def subdivide(ctx, in_path, times: int):
    """Derived (barycentric) subdivision of a complex."""
    cx, _ = _read_input(in_path, None)
    for _ in range(times):
        cx = derived(cx).complex
    text = pio.format_complex(cx, comments=[f"derived x{times}"])
    click.echo(text, nl=False)
    _write_out(ctx.obj["out"], text)


@main.command("dual-spine")
@click.option("--in", "in_path", type=str, default=None)
@click.option("--name", type=str, default=None)
@click.option("--partition", "partition_arg", type=str, default=None)
@click.pass_context
def dual_spine_cmd(ctx, in_path, name, partition_arg):
    """Build the dual spine; emits the input with its partition for piping,
    report lines as comments, and writes the spine complex to --out."""
    t, inherited = _read_input(in_path, name)
    p = _resolve_partition(t, partition_arg, inherited)
    try:
        s = assign_types(dual_spine(t, p))
    except ValueError as e:
        _fail(str(e), EXIT_INPUT)
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
@click.option("--in", "in_path", type=str, default=None)
@click.option("--name", type=str, default=None)
@click.option("--partition", "partition_arg", type=str, default=None)
@click.pass_context
def verify_spine_cmd(ctx, in_path, name, partition_arg):
    """Certify the spine by collapsing the complement regions."""
    t, inherited = _read_input(in_path, name)
    p = _resolve_partition(t, partition_arg, inherited)
    try:
        cert = verify_spine(t, p, seed=ctx.obj["seed"])
    except ValueError as e:
        _fail(str(e), EXIT_INPUT)
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
@click.option("--in", "in_path", type=str, default=None)
@click.option("--name", type=str, default=None)
@click.option("--partition", "partition_arg", type=str, default=None)
def strata(in_path, name, partition_arg):
    """Stratum components of the dual spine, by type."""
    t, inherited = _read_input(in_path, name)
    p = _resolve_partition(t, partition_arg, inherited)
    try:
        s = assign_types(dual_spine(t, p))
    except ValueError as e:
        _fail(str(e), EXIT_INPUT)
    comps = stratum_components(s)
    d = t.dim
    click.echo(f"spine cells: {len(s.cells)}")
    click.echo(f"vertices: {s.vertex_count}")
    for k in range(d):
        n = sum(1 for c in comps if c.type == k)
        click.echo(f"type {k} components: {n}")
    click.echo(f"regions: {sum(1 for c in comps if c.type == d)}")


@main.command()
@click.option("--in", "in_path", type=str, default=None)
@click.option("--name", type=str, default=None)
@click.option("--exhaustive", is_flag=True, help="Require a proven-exhaustive search.")
@click.pass_context
def search(ctx, in_path, name, exhaustive):
    """Minimize the spine vertex count over certified partitions."""
    t, _ = _read_input(in_path, name)
    try:
        res = search_min_vertices(t, ctx.obj["budget"], seed=ctx.obj["seed"])
    except ValueError as e:
        _fail(str(e), EXIT_INPUT)
    except InvariantViolation as e:
        _fail(str(e), EXIT_BUG)
    if exhaustive and not res.proven_exhaustive:
        _fail("budget too small for an exhaustive search", EXIT_CHECK)
    if res.best_partition is None:
        click.echo("best_count: none")
        click.echo("proven_exhaustive: " + str(res.proven_exhaustive).lower())
        sys.exit(EXIT_CHECK)
    click.echo(f"best_count: {res.best_count}")
    click.echo(f"proven_exhaustive: {str(res.proven_exhaustive).lower()}")
    click.echo(
        "best_partition: "
        + " | ".join(" ".join(c) for c in res.best_partition.canonical_key())
    )
    if ctx.obj["out"]:
        _write_out(ctx.obj["out"], pio.format_partition(res.best_partition))


@main.command()
@click.option("--in", "in_path", type=str, default=None)
@click.option("--name", type=str, default=None)
@click.option("--partition", "partition_arg", type=str, default=None)
def nerve(in_path, name, partition_arg):
    """Pre-nerve and nerve of the pair, with the structural checks."""
    t, inherited = _read_input(in_path, name)
    p = _resolve_partition(t, partition_arg, inherited)
    from plspines.nerve import nerve as nerve_fn
    from plspines.nerve import nerve_checks
    from plspines.spine import vertex_count

    try:
        np_ = nerve_fn(t, p)
    except ValueError as e:
        _fail(str(e), EXIT_INPUT)
    click.echo(f"prenerve f-vector: {' '.join(map(str, np_.prenerve.f_vector()))}")
    click.echo(f"nerve f-vector: {' '.join(map(str, np_.nerve.f_vector()))}")
    click.echo(f"nerve dim: {np_.nerve.dim}")
    rep = nerve_checks(np_, vertex_count(t, p), t.dim)
    click.echo(f"nerve-0or2: {'pass' if rep.pseudomanifold_ok else 'FAIL'}")
    click.echo(f"nerve-dim-iff-vertices: {'pass' if rep.dim_iff_vertices_ok else 'FAIL'}")
    if not rep.ok:
        for f in rep.failures:
            click.echo(f"failure: {f}", err=True)
        sys.exit(EXIT_BUG)


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

    try:
        discs = enumerate_normal_discs(n)
    except ValueError as e:
        _fail(str(e), EXIT_INPUT)
    from collections import Counter

    kinds = Counter(d.type for d in discs)
    parts = ", ".join(
        f"{kinds[k]}x({k[0]},{k[1]})" for k in sorted(kinds, reverse=True)
    )
    click.echo(f"total: {len(discs)} ({parts})")


@main.command()
@click.option("--in", "in_path", type=str, default=None)
@click.option("--name", type=str, default=None)
@click.option("--partition", "partition_arg", type=str, default=None)
@click.option("--points", type=int, default=1, show_default=True,
              help="Number of seeded off-1-skeleton drill points.")
@click.pass_context
def drill(ctx, in_path, name, partition_arg, points):
    """Drill the dual spine at seeded points off its 1-skeleton."""
    if points < 1:
        _fail(f"--points must be at least 1, got {points}", EXIT_INPUT)
    t, inherited = _read_input(in_path, name)
    p = _resolve_partition(t, partition_arg, inherited)
    from plspines.drill import drill as drill_fn
    from plspines.drill import prepare, sample_drill_points

    try:
        s = assign_types(dual_spine(t, p))
        ctx_d = prepare(s)
        pts = sample_drill_points(ctx_d, points, seed=ctx.obj["seed"])
    except ValueError as e:
        _fail(str(e), EXIT_INPUT)
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
        _fail("off-skeleton drilling changed the vertex count", EXIT_BUG)


@main.command()
@click.option("--in", "in_path", type=str, default=None)
@click.option("--name", type=str, default=None)
@click.option("--partition", "partition_arg", type=str, default="discrete",
              show_default=True)
@click.pass_context
def report(ctx, in_path, name, partition_arg):
    """Full pipeline for one manifold: spine, certificate, strata, nerve,
    checks, and homology, as one summary."""
    t, inherited = _read_input(in_path, name)
    p = _resolve_partition(t, partition_arg, inherited)
    from plspines.homology import betti_all
    from plspines.nerve import component_poset, nerve_checks, nerve_of_poset

    if name:
        click.echo(f"manifold: {name}")
    click.echo(f"dim: {t.dim}")
    click.echo(f"f-vector: {' '.join(map(str, t.f_vector()))}")
    click.echo(f"euler: {euler_characteristic(t)}")
    click.echo("partition: " + " | ".join(" ".join(c) for c in p.canonical_key()))
    try:
        s = assign_types(dual_spine(t, p))
        cert = verify_spine(t, p, seed=ctx.obj["seed"])
    except ValueError as e:
        _fail(str(e), EXIT_INPUT)
    click.echo(f"vertices: {s.vertex_count}")
    click.echo(f"certificate: {cert.certificate}")
    comps = stratum_components(s)
    d = t.dim
    for k in range(d):
        click.echo(f"type {k} components: {sum(1 for c in comps if c.type == k)}")
    click.echo(f"regions: {sum(1 for c in comps if c.type == d)}")
    np_ = nerve_of_poset(t, component_poset(comps))
    click.echo(f"nerve dim: {np_.nerve.dim}")
    rep = nerve_checks(np_, s.vertex_count, d)
    click.echo(f"nerve-0or2: {'pass' if rep.pseudomanifold_ok else 'FAIL'}")
    click.echo(
        f"nerve-dim-iff-vertices: {'pass' if rep.dim_iff_vertices_ok else 'FAIL'}"
    )
    click.echo("betti: " + " ".join(map(str, betti_all(t))))
    if not rep.ok:
        sys.exit(EXIT_BUG)
    if not cert.is_yes:
        sys.exit(EXIT_CHECK)


if __name__ == "__main__":
    main()
