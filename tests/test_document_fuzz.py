"""Mutated demo documents: every input is parsed or rejected, and every
subcommand run through ``cli.main`` on it exits 0, 1 or 2 without raising
or printing a traceback; a rejected document exits 2.

Each example replaces or deletes values at random JSON paths of the
document `scripts/make_demo_document.py` writes.  Replacement values mix
subtrees, names and numbers taken from the document with small arbitrary
JSON, so mutations reach the cross-references and shape checks as well
as the type checks, and a good share of the mutated documents parse.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from moncoh.cli import _HANDLERS, main
from moncoh.document import DocumentError, parse_document

from test_golden_cli import demo_document


def json_paths(node, prefix: tuple = ()) -> list[tuple]:
    """Every path into the document as keys and indices from the root, the
    root included."""
    out = [prefix]
    if isinstance(node, dict):
        for key, value in node.items():
            out += json_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            out += json_paths(value, prefix + (index,))
    return out


def node_at(root, path: tuple):
    for step in path:
        root = root[step]
    return root


DEMO = demo_document()
SUBTREES = [node_at(DEMO, p) for p in json_paths(DEMO)[1:]]
NAMES = sorted({x for x in SUBTREES if isinstance(x, str)}
               | {k for p in json_paths(DEMO) for k in p if isinstance(k, str)})

scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(-3, 6), st.sampled_from([-(10 ** 30), 10 ** 30, 2 ** 63]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(NAMES), st.text(max_size=6))
values = st.one_of(
    st.sampled_from(SUBTREES).map(copy.deepcopy),
    st.recursive(
        scalars,
        lambda inner: st.one_of(st.lists(inner, max_size=3),
                                st.dictionaries(st.sampled_from(NAMES), inner,
                                                max_size=3)),
        max_leaves=6))


def mutate(data, root):
    """Delete the value at a random path, or replace it by a value of the
    same JSON type from the document, or by any value."""
    path = data.draw(st.sampled_from(json_paths(root)))
    action = data.draw(st.sampled_from(
        ("like", "any", "delete") if path else ("like", "any")))
    if action == "delete":
        del node_at(root, path[:-1])[path[-1]]
        return root
    old = node_at(root, path)
    if action == "like":
        new = copy.deepcopy(data.draw(st.sampled_from(
            [x for x in SUBTREES if type(x) is type(old)] or [old])))
    else:
        new = data.draw(values)
    if not path:
        return new
    node_at(root, path[:-1])[path[-1]] = new
    return root


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 2), st.data())
def test_mutated_demo_document_never_escapes(n_mutations, data):
    root = copy.deepcopy(DEMO)
    for _ in range(n_mutations):
        root = mutate(data, root)
    text = json.dumps(root)
    try:
        parse_document(text)
    except DocumentError:
        codes = (2,)
    else:
        codes = (0, 1, 2)
    # one format per example: building the argument parser dominates the
    # cost of a call, and both formats are drawn across the examples
    fmt = data.draw(st.sampled_from(("text", "json")))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text, encoding="utf-8")
        for command in _HANDLERS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--input", str(path), "--pmax", "1",
                             "--format", fmt])
            assert code in codes
            assert "Traceback" not in err.getvalue()
