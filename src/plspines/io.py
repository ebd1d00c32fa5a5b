"""Canonical line-oriented text formats for complexes and partitions.

Complex files: a header line ``dim <d>``, then one line per maximal face
with whitespace-separated vertex labels.  ``#`` starts a comment and blank
lines are ignored.  Partition files: one line per class.  A combined
document is a complex followed by a ``partition`` line and class lines,
which is what pipelined commands exchange on stdout/stdin.
"""

from __future__ import annotations

from plspines.core import Complex, from_facets
from plspines.partitions import VertexPartition, vertex_partition


def _clean_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def parse_complex(text: str) -> Complex:
    lines = _clean_lines(text)
    if not lines:
        raise ValueError("empty complex document")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "dim":
        raise ValueError(f"expected 'dim <d>' header, got {lines[0]!r}")
    try:
        dim = int(header[1])
    except ValueError:
        raise ValueError(f"bad dimension {header[1]!r}") from None
    facets = [line.split() for line in lines[1:]]
    if not facets:
        raise ValueError("complex document has no faces")
    cx = from_facets(facets)
    if cx.dim != dim:
        raise ValueError(f"header says dim {dim} but faces have dim {cx.dim}")
    return cx


def format_complex(cx: Complex, comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(f"dim {cx.dim}")
    for f in sorted(cx.facets):
        lines.append(" ".join(f))
    return "\n".join(lines) + "\n"


def parse_partition(text: str, base: Complex) -> VertexPartition:
    lines = _clean_lines(text)
    if not lines:
        raise ValueError("empty partition document")
    return vertex_partition(base, [line.split() for line in lines])


def format_partition(p: VertexPartition) -> str:
    return "\n".join(" ".join(c) for c in p.canonical_key()) + "\n"


def parse_combined(text: str) -> tuple[Complex, VertexPartition | None]:
    """Split a combined document into its complex and optional partition."""
    lines = text.splitlines()
    for i, raw in enumerate(lines):
        if raw.split("#", 1)[0].strip() == "partition":
            cx = parse_complex("\n".join(lines[:i]))
            part = parse_partition("\n".join(lines[i + 1 :]), cx)
            return cx, part
    return parse_complex(text), None


def format_combined(
    cx: Complex, p: VertexPartition, comments: list[str] | None = None
) -> str:
    return format_complex(cx, comments) + "partition\n" + format_partition(p)
