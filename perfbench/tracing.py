"""Spans around moncoh's layers, recorded from outside the package.

``traced(tracer)`` replaces every binding of each target function - the
defining module's global, every ``from``-import of it in other modules,
the package namespace, and class attributes such as ``AbHom.compose`` -
with a wrapper that records a span (name, start, end, parent).  Leaving
the context puts every original binding back.

A span's self time is its duration minus the time its child spans cover.
Counters that need the arguments or the result (matrix cells, entry bit
lengths, nonzeros, bytes) are computed after the span has ended, and that
bookkeeping is charged to neither the span nor its parent.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path); the span is named after the module's last part.
TARGETS = (
    ("moncoh.abelian", "smith_normal_form"),
    ("moncoh.abelian", "cohomology_at"),
    ("moncoh.abelian", "AbHom.compose"),
    ("moncoh.abelian", "assemble_hom"),
    ("moncoh.abelian", "DirectSum.of"),
    ("moncoh.intmat", "matmul"),
    ("moncoh.leech", "cochain_group"),
    ("moncoh.leech", "coboundary"),
    ("moncoh.leech", "LeechComplex.__init__"),
    ("moncoh.grid", "PathCochain.__init__"),
    ("moncoh.grid", "square_cohomology"),
    ("moncoh.grid", "local_exactness_report"),
    ("moncoh.totalcx", "is_double_complex"),
    ("moncoh.totalcx", "TotalComplex.__init__"),
    ("moncoh.structured", "fs_pipeline"),
    ("moncoh.structured", "h_pipeline"),
    ("moncoh.structured", "check_h_surjective"),
    ("moncoh.coeff", "validate_relations"),
    ("moncoh.monoid", "validate"),
    ("moncoh.document", "parse_document"),
    ("moncoh.cli", "run_command"),
)


def _max_bits(matrices) -> int:
    best = 0
    for m in matrices:
        for row in m:
            for x in row:
                if x:
                    b = abs(x).bit_length()
                    if b > best:
                        best = b
    return best


class Tracer:
    """In-memory spans plus the per-layer counters read from them."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[list] = []  # [span index, child seconds, name]
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.maxima: Counter[str] = Counter()
        self.coboundary_keys: set = set()

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        frame = [index, 0.0, name]
        start = perf_counter()
        self.spans.append([name, start, None, parent[0] if parent else None])
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index][2] = end
            self.calls[name] += 1
            self.self_s[name] += (end - start) - frame[1]
        self._count(name, args, kwargs, result)
        if parent is not None:
            parent[1] += perf_counter() - start
        return result

    def _inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self._stack)

    def _count(self, name, args, kwargs, result) -> None:
        if name == "abelian.smith_normal_form":
            matrix = args[0]
            shape = kwargs.get("shape", args[1] if len(args) > 1 else None)
            cells = (shape[0] * shape[1] if shape is not None
                     else len(matrix) * (len(matrix[0]) if matrix else 0))
            self.counts["snf_cells"] += cells
            self.maxima["snf_max_cells"] = max(self.maxima["snf_max_cells"], cells)
            self.maxima["snf_max_bits"] = max(
                self.maxima["snf_max_bits"],
                _max_bits((result.d, result.u, result.v)))
            if self._inside("abelian.cohomology_at"):
                self.counts["snf_in_cohomology"] += 1
        elif name == "leech.cochain_group":
            self.counts["cochain_coords"] += result.dsum.presentation_size
        elif name == "leech.coboundary":
            m, c, n = args[:3]
            self.counts["coboundary_nnz"] += sum(
                1 for row in result.matrix for x in row if x)
            self.coboundary_keys.add(
                (m, c.groups, frozenset(c.lstar.items()),
                 frozenset(c.rstar.items()), n))
        elif name == "document.parse_document":
            self.counts["parse_bytes"] += len(args[0].encode("utf-8"))
        elif name == "cli.run_command":
            self.counts["output_bytes"] += len(result[1].encode("utf-8"))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, keyed by the names BENCHMARK.json lists."""
        n, s = self.calls, self.self_s
        cohomology_calls = n["abelian.cohomology_at"]
        coboundary_calls = n["leech.coboundary"]
        return {
            "abelian.snf_calls": (n["abelian.smith_normal_form"], "count"),
            "abelian.snf_s": (s["abelian.smith_normal_form"], "s"),
            "abelian.snf_cells": (self.counts["snf_cells"], "cells"),
            "abelian.snf_max_cells": (self.maxima["snf_max_cells"], "cells"),
            "abelian.snf_max_bits": (self.maxima["snf_max_bits"], "bits"),
            "abelian.snf_per_cohomology": (
                self.counts["snf_in_cohomology"] / cohomology_calls
                if cohomology_calls else 0.0, "ratio"),
            "abelian.cohomology_calls": (cohomology_calls, "count"),
            "abelian.cohomology_s": (s["abelian.cohomology_at"], "s"),
            "abelian.compose_calls": (n["abelian.AbHom.compose"], "count"),
            "abelian.compose_s": (s["abelian.AbHom.compose"], "s"),
            "abelian.assemble_calls": (n["abelian.assemble_hom"], "count"),
            "abelian.assemble_s": (s["abelian.assemble_hom"], "s"),
            "abelian.direct_sum_s": (s["abelian.DirectSum.of"], "s"),
            "intmat.matmul_calls": (n["intmat.matmul"], "count"),
            "intmat.matmul_s": (s["intmat.matmul"], "s"),
            "leech.cochain_group_calls": (n["leech.cochain_group"], "count"),
            "leech.cochain_group_s": (s["leech.cochain_group"], "s"),
            "leech.cochain_coords": (self.counts["cochain_coords"], "count"),
            "leech.coboundary_calls": (coboundary_calls, "count"),
            "leech.coboundary_s": (s["leech.coboundary"], "s"),
            "leech.coboundary_nnz": (self.counts["coboundary_nnz"], "count"),
            "leech.coboundary_reuse": (
                len(self.coboundary_keys) / coboundary_calls
                if coboundary_calls else 1.0, "ratio"),
            "leech.complex_builds": (n["leech.LeechComplex.__init__"], "count"),
            "grid.path_cochain_builds": (n["grid.PathCochain.__init__"], "count"),
            "grid.square_s": (s["grid.square_cohomology"], "s"),
            "grid.exactness_s": (s["grid.local_exactness_report"], "s"),
            "totalcx.double_check_s": (s["totalcx.is_double_complex"], "s"),
            "totalcx.build_s": (s["totalcx.TotalComplex.__init__"], "s"),
            "structured.pipeline_s": (
                s["structured.fs_pipeline"] + s["structured.h_pipeline"], "s"),
            "structured.surjectivity_s": (s["structured.check_h_surjective"], "s"),
            "coeff.validate_s": (s["coeff.validate_relations"], "s"),
            "monoid.validate_s": (s["monoid.validate"], "s"),
            "document.parse_s": (s["document.parse_document"], "s"),
            "document.parse_bytes": (self.counts["parse_bytes"], "bytes"),
            "cli.render_s": (s["cli.run_command"], "s"),
            "cli.output_bytes": (self.counts["output_bytes"], "bytes"),
        }

    def top_self(self, k: int = 8) -> list[tuple[str, float, int]]:
        ranked = sorted(self.self_s.items(), key=lambda kv: -kv[1])[:k]
        return [(name, secs, self.calls[name]) for name, secs in ranked]


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every binding of every target; restore them on exit.

    Yields the list of targets that could not be found, so that a renamed
    function shows up in the report instead of silently reading zero.
    """
    undo: list[tuple[object, str, object]] = []
    missing = []
    modules = [m for m in list(sys.modules.values()) if m is not None]
    try:
        for module_name, path in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(f"{module_name}.{path}")
                continue
            name = f"{module_name.rpartition('.')[2]}.{path}"
            if isinstance(raw, classmethod):
                undo.append((owner, attr, raw))
                setattr(owner, attr, classmethod(_wrap(tracer, name, raw.__func__)))
                continue
            wrapper = _wrap(tracer, name, raw)
            if owner_name:
                undo.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        undo.append((mod, key, raw))
                        setattr(mod, key, wrapper)
        yield missing
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
