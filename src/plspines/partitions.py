"""Vertex partitions of a complex, with canonical ordering."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from plspines.core import Complex, Face


@dataclass(frozen=True, eq=False)
class VertexPartition:
    """Partition of a complex's vertex set into labeled classes.

    Classes are canonically ordered by their smallest member, so equal
    partitions compare equal across runs.
    """

    base: Complex
    classes: tuple[frozenset[str], ...]

    @cached_property
    def class_of(self) -> Mapping[str, int]:
        return {v: i for i, cls in enumerate(self.classes) for v in cls}

    def classes_meeting(self, face: Face) -> int:
        co = self.class_of
        return len({co[v] for v in face})

    def canonical_key(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(sorted(c)) for c in self.classes)

    def __eq__(self, other):
        return (
            isinstance(other, VertexPartition)
            and self.base.faces == other.base.faces
            and self.canonical_key() == other.canonical_key()
        )

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return "VertexPartition(" + " | ".join(
            " ".join(c) for c in self.canonical_key()
        ) + ")"


def vertex_partition(base: Complex, classes: Iterable[Iterable[str]]) -> VertexPartition:
    """Validate and canonicalize a partition of the base's vertices."""
    cls = [frozenset(c) for c in classes]
    if any(not c for c in cls):
        raise ValueError("empty partition class")
    seen: set[str] = set()
    for c in cls:
        if seen & c:
            raise ValueError(f"classes overlap at {sorted(seen & c)[:3]}")
        seen |= c
    missing = set(base.vertices) - seen
    extra = seen - set(base.vertices)
    if missing:
        raise ValueError(f"uncovered vertices {sorted(missing)[:3]}")
    if extra:
        raise ValueError(f"unknown vertices {sorted(extra)[:3]}")
    cls.sort(key=min)
    return VertexPartition(base, tuple(cls))


def discrete(base: Complex) -> VertexPartition:
    return vertex_partition(base, [[v] for v in base.vertices])


def single_class(base: Complex) -> VertexPartition:
    return vertex_partition(base, [list(base.vertices)])


def one_vs_rest(base: Complex, label: str | None = None) -> VertexPartition:
    verts = base.vertices
    if label is None:
        label = verts[0]
    rest = [v for v in verts if v != label]
    if not rest:
        return vertex_partition(base, [[label]])
    return vertex_partition(base, [[label], rest])
