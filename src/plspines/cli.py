"""Command-line front end: it parses options, calls the package and prints.

Commands print deterministic text reports; complexes travel between
pipelined commands in the canonical text format (with an optional inline
partition section).  Commands on a pair (complex, partition) take
``--in``/``--name`` and ``--partition`` and read the pair with ``_pair``;
the partition is ``--partition`` if given, else the one piped in with the
complex, else the command's default (``discrete`` for ``report``; the
others exit 1).  What a report says, such as whether ``nerve-0or2``
applies, is decided in the package.  Exit codes, mapped once by ``main``
for every command: 0 success, 1 input error (usage errors included: they
print the usage line first), 2 a certificate or check did not pass, 3 an
internal invariant was violated (a theorem check failed, which means a
bug), 141 stdout was closed before the report was written (128 + SIGPIPE,
as a shell reports a producer cut off by a closed pipe).  Errors print
``error: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from plspines import io as pio
from plspines.core import Complex, InvariantViolation, derived
from plspines.models import enumerate_normal_discs, named_triangulation
from plspines.partitions import (
    VertexPartition,
    discrete,
    one_vs_rest,
    single_class,
    vertex_partition,
)
from plspines.recognize import euler_characteristic
from plspines.search import search_min_vertices
from plspines.spine import dual_spine, verify_spine
from plspines.strata import stratum_components

EXIT_INPUT = 1
EXIT_CHECK = 2
EXIT_BUG = 3
EXIT_PIPE = 141  # 128 + SIGPIPE (13), as shells report a killed writer


def _echo(text: str, end: str = "\n") -> None:
    # flushed line by line: a reader that leaves early shows up as
    # BrokenPipeError while the command runs (exit 141)
    print(text, end=end, flush=True)


def _fail(msg: str, code: int) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


class _Parser(argparse.ArgumentParser):
    """The parser of the group and of each subcommand: a usage error prints
    the usage line and ``error: <message>`` and exits 1, not argparse's 2,
    which would read as a failed check.  Both are built with
    ``allow_abbrev=False``: ``--nam`` is not ``--name``."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


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


def _pair(opts, default: str | None = None) -> tuple[Complex, VertexPartition]:
    """The complex and partition a pair command names.  The partition is
    --partition if given, else the piped one, else ``default``; with none
    of them the command exits 1."""
    t, piped = _read_input(opts.in_path, opts.name)
    if opts.partition is not None:
        return t, _parse_partition(t, opts.partition)
    if piped is not None:
        return t, piped
    if default is None:
        raise ValueError("no partition given (use --partition)")
    return t, _parse_partition(t, default)


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
        _echo(f"type {k} components: {sum(1 for c in comps if c.type == k)}")
    _echo(f"regions: {sum(1 for c in comps if c.type == d)}")


def _echo_nerve_checks(rep) -> None:
    """Print the nerve checks; ``nerve-0or2`` is n/a when it does not apply."""
    pseudo = {True: "pass", False: "FAIL", None: "n/a (boundary)"}[rep.pseudomanifold_ok]
    _echo(f"nerve-0or2: {pseudo}")
    _echo(f"nerve-dim-iff-vertices: {'pass' if rep.dim_iff_vertices_ok else 'FAIL'}")


def _parser(prog: str) -> _Parser:
    """The group's options, then one subparser per command, in help order."""
    parser = _Parser(prog=prog, description=main.__doc__, allow_abbrev=False)
    parser.add_argument("--seed", type=int, default=0, help="RNG seed. [default: %(default)s]")
    parser.add_argument("--budget", type=int, default=100_000,
                        help="Search cap: exhaustive when 2**(vertex count) fits it, "
                        "else the discrete partition. [default: %(default)s]")
    parser.add_argument("--out", help="Output file of gen, subdivide, dual-spine or search.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def add(run, name=None, inputs=False, partition=None, writes=False):
        """Subcommand ``name`` (default: run's name) calling ``run(opts)``;
        ``inputs`` gives it --in and --name, and ``partition``, the help's
        default, also --partition.  ``writes``: the command writes --out."""
        doc = " ".join(run.__doc__.split())
        command = name or run.__name__
        sp = commands.add_parser(command, help=doc, description=doc, allow_abbrev=False)
        sp.set_defaults(run=run, command=command, writes=writes)
        if inputs or partition:
            sp.add_argument("--in", dest="in_path", metavar="PATH")
            sp.add_argument("--name")
        if partition:
            sp.add_argument("--partition", help=f"Vertex partition; default: {partition}.")
        return sp

    piped = "the piped one"
    add(gen, writes=True).add_argument("--name", required=True, help="Catalogue name.")
    sp = add(subdivide, writes=True)
    sp.add_argument("--in", dest="in_path", metavar="PATH")
    sp.add_argument("--times", type=int, default=1, help="[default: %(default)s]")
    add(dual_spine_cmd, "dual-spine", partition=piped, writes=True)
    add(verify_spine_cmd, "verify-spine", partition=piped)
    add(strata, partition=piped)
    add(search, inputs=True, writes=True).add_argument(
        "--exhaustive", action="store_true", help="Require a proven-exhaustive search.")
    add(nerve, partition=piped)
    add(homology, inputs=True).add_argument("--k", type=int, help="Single homology degree.")
    add(normal_discs, "normal-discs").add_argument("--n", type=int, required=True)
    add(drill, partition=piped).add_argument(
        "--points", type=int, default=1,
        help="Number of seeded off-1-skeleton drill points. [default: %(default)s]")
    add(report, partition=f"{piped}, else discrete")
    return parser


def main(args: list[str] | None = None, prog_name: str = "plspines") -> None:
    """Simple spines of PL manifolds: construction, search, and checks."""
    opts = _parser(prog_name).parse_args(args)
    try:
        if opts.budget < 0:
            raise ValueError(f"--budget must be at least 0, got {opts.budget}")
        if opts.out is not None and not opts.writes:
            raise ValueError(f"{opts.command} writes no file: --out does not apply")
        opts.run(opts)
    except InvariantViolation as e:
        _fail(str(e), EXIT_BUG)
    except ValueError as e:
        _fail(str(e), EXIT_INPUT)
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull so
        # the interpreter's last flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_PIPE)


# bench/traced_cli.py runs a command as main.main(args=..., prog_name=...)
main.main = main


def gen(opts):
    """Emit a catalogued triangulation in the canonical format."""
    text = pio.format_complex(named_triangulation(opts.name), comments=[f"name: {opts.name}"])
    _echo(text, end="")
    _write_out(opts.out, text)


def subdivide(opts):
    """Derived (barycentric) subdivision of a complex."""
    if opts.times < 0:
        raise ValueError(f"--times must be at least 0, got {opts.times}")
    cx, _ = _read_input(opts.in_path, None)
    for _ in range(opts.times):
        cx = derived(cx).complex
    text = pio.format_complex(cx, comments=[f"derived x{opts.times}"])
    _echo(text, end="")
    _write_out(opts.out, text)


def dual_spine_cmd(opts):
    """Build the dual spine; emits the input with its partition for piping,
    report lines as comments, and writes the spine complex to --out."""
    t, p = _pair(opts)
    s = dual_spine(t, p)
    spine_cx = s.as_complex()
    comments = [
        f"spine cells: {len(spine_cx)}",
        f"spine dim: {spine_cx.dim}",
        f"vertices: {s.vertex_count}",
    ]
    _echo(pio.format_combined(t, p, comments=comments), end="")
    if opts.out:
        _write_out(opts.out, pio.format_complex(spine_cx))


def verify_spine_cmd(opts):
    """Certify the spine: each complement region is a ball, or a collar on
    the boundary, decided on its class's span; only a stuck span off the
    boundary is decided on its region in T''."""
    t, p = _pair(opts)
    cert = verify_spine(dual_spine(t, p), seed=opts.seed)
    _echo(f"certificate: {cert.certificate}")
    _echo(f"vertices: {cert.vertices}")
    for r in cert.region_reports:
        status = "ok" if r.ok else "not collapsed"
        _echo(f"region class {r.class_index} component {r.component_index}: "
              f"{r.kind} {status} ({r.faces} faces)")
    if not cert.is_yes:
        sys.exit(EXIT_CHECK)


def strata(opts):
    """Stratum components of the dual spine, by type."""
    t, p = _pair(opts)
    s = dual_spine(t, p)
    comps = stratum_components(s)
    _echo(f"spine cells: {len(s.cells)}")
    _echo(f"vertices: {s.vertex_count}")
    _echo_strata(comps, t.dim)


def search(opts):
    """Minimize the spine vertex count over certified partitions."""
    t, _ = _read_input(opts.in_path, opts.name)
    res = search_min_vertices(t, opts.budget, seed=opts.seed)
    if opts.exhaustive and not res.proven_exhaustive:
        _fail("budget too small for an exhaustive search", EXIT_CHECK)
    _echo(f"best_count: {res.best_count}")
    _echo(f"proven_exhaustive: {str(res.proven_exhaustive).lower()}")
    key = res.best_partition.canonical_key()
    _echo("best_partition: " + " | ".join(" ".join(c) for c in key))
    if opts.out:
        _write_out(opts.out, pio.format_partition(res.best_partition))


def nerve(opts):
    """Pre-nerve and nerve of the pair, with the structural checks."""
    from plspines.nerve import nerve as nerve_fn
    from plspines.nerve import nerve_checks

    t, p = _pair(opts)
    s = dual_spine(t, p)
    np_ = nerve_fn(s)
    _echo(f"prenerve f-vector: {' '.join(map(str, np_.prenerve.f_vector()))}")
    _echo(f"nerve f-vector: {' '.join(map(str, np_.nerve.f_vector()))}")
    _echo(f"nerve dim: {np_.nerve.dim}")
    rep = nerve_checks(np_, s)
    _echo_nerve_checks(rep)
    if not rep.ok:
        raise InvariantViolation("; ".join(rep.failures))


def homology(opts):
    """Betti numbers over the two-element field."""
    cx, _ = _read_input(opts.in_path, opts.name)
    from plspines.homology import betti, betti_all

    if opts.k is not None:
        _echo(f"betti[{opts.k}]: {betti(cx, opts.k)}")
    else:
        _echo("betti: " + " ".join(map(str, betti_all(cx))))


def normal_discs(opts):
    """Census of normal discs in the (n+1)-simplex."""
    discs = enumerate_normal_discs(opts.n)
    from collections import Counter

    kinds = Counter(d.type for d in discs)
    parts = ", ".join(f"{kinds[k]}x({k[0]},{k[1]})" for k in sorted(kinds, reverse=True))
    _echo(f"total: {len(discs)} ({parts})")


def drill(opts):
    """Drill the dual spine at seeded points off its 1-skeleton."""
    t, p = _pair(opts)
    if opts.points < 1:
        raise ValueError(f"--points must be at least 1, got {opts.points}")
    from plspines.drill import drill as drill_fn
    from plspines.drill import prepare, sample_drill_points

    ctx_d = prepare(dual_spine(t, p))
    pts = sample_drill_points(ctx_d, opts.points, seed=opts.seed)
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
        _echo(f"drill {i} at {label}: vertices {res.vertices_before} -> "
              f"{res.vertices_after}{status}")
    if bad and t.dim >= 3:
        raise InvariantViolation("off-skeleton drilling changed the vertex count")


def report(opts):
    """Full pipeline for one manifold: spine, certificate, strata, nerve,
    checks, and homology, as one summary."""
    from plspines.homology import betti_all
    from plspines.nerve import component_poset, nerve_checks, nerve_of_poset

    t, p = _pair(opts, "discrete")
    s = dual_spine(t, p)  # an input error leaves stdout empty
    if opts.name:
        _echo(f"manifold: {opts.name}")
    _echo(f"dim: {t.dim}")
    _echo(f"f-vector: {' '.join(map(str, t.f_vector()))}")
    _echo(f"euler: {euler_characteristic(t)}")
    _echo("partition: " + " | ".join(" ".join(c) for c in p.canonical_key()))
    cert = verify_spine(s, seed=opts.seed)
    _echo(f"vertices: {s.vertex_count}")
    _echo(f"certificate: {cert.certificate}")
    comps = stratum_components(s)
    _echo_strata(comps, t.dim)
    np_ = nerve_of_poset(t, component_poset(comps))
    _echo(f"nerve dim: {np_.nerve.dim}")
    rep = nerve_checks(np_, s)
    _echo_nerve_checks(rep)
    _echo("betti: " + " ".join(map(str, betti_all(t))))
    if not rep.ok:
        raise InvariantViolation("; ".join(rep.failures))
    if not cert.is_yes:
        sys.exit(EXIT_CHECK)


if __name__ == "__main__":
    main()
