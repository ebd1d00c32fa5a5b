"""Generators for standard objects: simplexes, spheres, local models, and
a small catalogue of named triangulations shipped as data files."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from plspines.collapse import collapses_to_point
from plspines.core import Complex, InvariantViolation, derived, from_facets
from plspines.partitions import VertexPartition
from plspines.spine import assign_types, vertex_count


def simplex(n: int) -> Complex:
    """The n-simplex on vertices v0..vn."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return from_facets([[f"v{i}" for i in range(n + 1)]])


def boundary_sphere(n: int) -> Complex:
    """The n-sphere as the boundary of the (n+1)-simplex."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    verts = [f"v{i}" for i in range(n + 2)]
    return from_facets(
        [[v for v in verts if v != skip] for skip in verts]
    )


@dataclass(frozen=True, eq=False)
class LocalModel:
    """A local model subcomplex of a derived simplex."""

    ambient: Complex
    model: Complex
    n: int
    k: int


def dual_model(n: int, partition: VertexPartition) -> LocalModel:
    """Polyhedron dual to a vertex partition of the (n+1)-simplex.

    Built by the chain rule of ``dual_spine`` through ``assign_types``,
    without its checks: the partition need not respect the simplex's
    boundary.  With k+1 classes the result is a copy of the local model of
    codimension n+1-k; with two or more classes its dimension and
    collapsibility are verified on construction.
    """
    amb = simplex(n + 1)
    if partition.base.faces != amb.faces:
        raise ValueError("partition is not over the (n+1)-simplex")
    dt = derived(amb)
    model = Complex(assign_types(dt, partition, vertex_count(amb, partition)))
    k = n + 2 - len(partition.classes)
    if k <= n:  # with one class no face meets two classes: the model is empty
        if model.dim != n:
            raise InvariantViolation(
                f"dual model has dim {model.dim}, expected {n}"
            )
        if not collapses_to_point(model):
            raise InvariantViolation("dual model did not collapse to a point")
    return LocalModel(dt.complex, model, n, k)


# -- catalogue --------------------------------------------------------------

#: name -> expected kind of manifold check the entry passes
CATALOGUE: dict[str, str] = {
    "S1_triangle": "closed curve",
    "S2_tetra": "closed surface",
    "S2_oct": "closed surface",
    "RP2_6": "closed surface",
    "T2_7": "closed surface",
    "genus2_10": "closed surface",
    "S3_pentachoron": "closed 3-manifold",
    "D2_triangle": "surface with boundary",
}


def catalogue_names() -> tuple[str, ...]:
    return tuple(sorted(CATALOGUE))


def named_triangulation(name: str) -> Complex:
    """Load a catalogued complex from the package data directory."""
    if name not in CATALOGUE:
        raise ValueError(
            f"unknown triangulation {name!r}; known: {', '.join(catalogue_names())}"
        )
    from plspines.io import parse_complex

    text = resources.files("plspines").joinpath("data", f"{name}.cplx").read_text()
    return parse_complex(text)
