"""Run one plspines CLI command with spans around calls into each module.

Usage: python3 bench/traced_cli.py <spans.json> <plspines arguments...>

Modules bind each other's functions with ``from ... import``, so a wrapper
replaces every binding of the original function object in every loaded
``plspines`` module, which is where callers look the name up.  Per-face
helpers (``VertexPartition.classes_meeting``, ``face_link``) are left alone:
they run millions of times and a wrapper would swamp what it measures.

Spans are [name, start, end, parent index, attrs]; they are kept in memory
and written to <spans.json> when the command ends.  Stdout is untouched.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


def _faces_in(args, kwargs, out):
    return {"faces": len(args[0].faces)}


def _yes(args, kwargs, out):
    return {"yes": bool(out)}


def _search_result(args, kwargs, out):
    return {
        "examined": out.partitions_examined,
        "certified": out.partitions_certified,
        "found": out.best_partition is not None,
    }


def _middle_faces(args, kwargs, out):
    return {"middle": len(out.middle.faces)}


def _cells(args, kwargs, out):
    return {"cells": int(args[0].size)}


# (module, function) -> (span name, attrs taken from the call)
TARGETS = {
    ("plspines.collapse", "greedy_collapse"): ("collapse.greedy_collapse", _faces_in),
    ("plspines.collapse", "collapses_to_point"): ("collapse.collapses_to_point", _yes),
    ("plspines.collapse", "collapses_onto"): ("collapse.collapses_onto", _yes),
    ("plspines.search", "search_min_vertices"): ("search.search_min_vertices", _search_result),
    ("plspines.spine", "region_of_class"): ("spine.region_of_class", None),
    ("plspines.spine", "vertex_count"): ("spine.vertex_count", None),
    ("plspines.spine", "dual_spine"): ("spine.dual_spine", None),
    ("plspines.spine", "verify_spine"): ("spine.verify_spine", None),
    ("plspines.spine", "certify_region_component"): ("spine.certify_region_component", None),
    ("plspines.partitions", "vertex_partition"): ("partitions.vertex_partition", None),
    ("plspines.core", "derived_map"): ("core.derived_map", None),
    ("plspines.core", "star"): ("core.star", None),
    ("plspines.core", "connected_components"): ("core.connected_components", None),
    ("plspines.nerve", "stein"): ("nerve.stein", _middle_faces),
    ("plspines.nerve", "_prenerve_map"): ("nerve.prenerve_map", None),
    ("plspines.nerve", "component_poset"): ("nerve.component_poset", None),
    ("plspines.nerve", "order_complex"): ("nerve.order_complex", None),
    ("plspines.nerve", "nerve_checks"): ("nerve.nerve_checks", None),
    ("plspines.drill", "prepare"): ("drill.prepare", None),
    ("plspines.drill", "drill"): ("drill.drill", None),
    ("plspines.drill", "frontier_of"): ("drill.frontier_of", None),
    ("plspines.strata", "assign_types"): ("strata.assign_types", None),
    ("plspines.strata", "stratum_components"): ("strata.stratum_components", None),
    ("plspines.strata", "classify_point_link"): ("strata.classify_point_link", None),
    ("plspines.homology", "betti_all"): ("homology.betti_all", None),
    ("plspines.homology", "gf2_rank"): ("homology.gf2_rank", _cells),
    ("plspines.recognize", "is_closed_manifold"): ("recognize.is_closed_manifold", None),
    ("plspines.recognize", "boundary_complex"): ("recognize.boundary_complex", None),
    ("plspines.io", "parse_complex"): ("io.parse_complex", None),
    ("plspines.models", "named_triangulation"): ("models.named_triangulation", None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if attrs is not None:
                span[4] = attrs(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced


def _rebind(orig, wrapped) -> None:
    """Replace every binding of ``orig`` in the loaded plspines modules."""
    for modname, mod in list(sys.modules.items()):
        if modname != "plspines" and not modname.startswith("plspines."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer):
    """Wrap the TARGETS and ``core.derived``; returns the original ``derived``."""
    for modname in {m for m, _ in TARGETS}:
        importlib.import_module(modname)
    for (modname, fn_name), (span, attrs) in TARGETS.items():
        orig = getattr(sys.modules[modname], fn_name)
        _rebind(orig, tracer.wrap(span, orig, attrs))

    derived = sys.modules["plspines.core"].derived
    misses = [derived.cache_info().misses]

    def built_faces(args, kwargs, out):
        # faces are counted only when the call built the subdivision
        now = derived.cache_info().misses
        built = now > misses[0]
        misses[0] = now
        return {"faces": len(out.complex.faces) if built else 0}

    _rebind(derived, tracer.wrap("core.derived", derived, built_faces))
    return derived


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = perf_counter()
    import plspines.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    derived = install(tracer)
    run = tracer.wrap(
        "cli.main",
        lambda: plspines.cli.main.main(args=cli_args, prog_name="plspines"),
    )
    code = 0
    try:
        run()
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        sys.stdout.flush()
        info = derived.cache_info()
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "derived_cache": [info.hits, info.misses],
                    "spans": tracer.spans,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
