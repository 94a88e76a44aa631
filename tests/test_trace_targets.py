"""The benchmark's per-layer spans still find every function they wrap.

``perfbench/tracing.py`` wraps moncoh functions by module and attribute
name.  A renamed or moved function would only print a warning there and
its per-layer metrics would read 0, so every target is resolved here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import moncoh  # noqa: F401  (imports every module the targets name)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module_name, path", tracing.TARGETS,
                         ids=[f"{m}.{p}" for m, p in tracing.TARGETS])
def test_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    assert vars(owner).get(attr) is not None, f"{module_name}.{path} is gone"


def test_tracing_reports_nothing_missing_and_restores_bindings():
    from moncoh import abelian, leech

    before = (abelian.assemble_hom, leech.assemble_hom, abelian.DirectSum.of)
    with tracing.traced(tracing.Tracer()) as missing:
        assert missing == []
        assert leech.assemble_hom is not before[1]
    assert (abelian.assemble_hom, leech.assemble_hom, abelian.DirectSum.of) == before
