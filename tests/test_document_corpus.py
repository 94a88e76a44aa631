"""A seeded corpus of mutated documents pins what the parser says about
each of them.

Every document is a base document with one or two values deleted, or
replaced by a subtree, name or number taken from the base, or by a small
arbitrary value; a few also give one key of one object twice.  The bases
are the demo document, its failing variant with explicit vertical maps,
the demo document re-serialized (explicit coefficient systems and move
strings) and `test_document.sample_root()`.  For each document the log
holds either its serialization or the text of every diagnostic, in
order, and the SHA-256 of the whole log is pinned: an accepted document
that parses differently, or a rejected one whose diagnostics change in
path, wording or order, changes the digest.

Re-record the digest only for a deliberate change of what the parser
accepts or says, and say so where the change is described.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import random

from moncoh.document import DocumentError, parse_document, serialize_document

from test_document import sample_root
from test_golden_cli import SCRIPT, demo_document, load_script

SEED = 20201124
DOCUMENTS_PER_BASE = 250
DIGEST = "8058ae0bfd01d34199a4d4876997ea0bb6df1d4988b85e99ae03ea9a3f13b563"

SMALL = [None, True, False, 0, 1, -1, 2, 3, 6, 1.5, "", "x", "Z/2", "Z x Z",
         "[e,g]", "[0,0]", "DR", "\ud800", [], {}, [[1]], [[0, 1]], [1, 2],
         {"name": "x"}, {"e": [[1]]}, {"descend_at": [0]},
         {"descend_at": [2, -1]}, {"maps": {"[0,00]": [[1]]}},
         {"maps": {"[0,9]": [[1]]}}, {"maps": {"[x,0]": [[1]]}},
         {"maps": {"[0,0]": [[1]]}}, {"\ud800": 0}]
# keys that some object of the grammar may hold
KEYS = ["finite", "pmax", "path", "vertical", "descend_at", "moves",
        "properties", "nonalg", "operations", "p_max", "coefficients", "name"]


class Repeated(list):
    """The (key, value) pairs of an object written with a key given twice."""


def to_json(node) -> str:
    if isinstance(node, (dict, Repeated)):
        pairs = node if isinstance(node, Repeated) else node.items()
        return "{" + ", ".join(f"{json.dumps(k)}: {to_json(v)}"
                               for k, v in pairs) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(to_json(v) for v in node) + "]"
    return json.dumps(node)


def json_paths(node, prefix: tuple = ()) -> list[tuple]:
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


@functools.lru_cache(maxsize=None)
def role(path: tuple) -> tuple:
    """The last key on a path and the number of indices after it: values
    with one role, such as two table cells or two group names, are
    interchangeable in shape."""
    keys = [i for i, step in enumerate(path) if isinstance(step, str)]
    last = keys[-1] if keys else -1
    return (path[last] if keys else None, len(path) - last - 1)


class Base:
    def __init__(self, root):
        self.text = json.dumps(root)
        paths = json_paths(root)[1:]
        self.values = [node_at(root, p) for p in paths]
        self.by_role: dict[tuple, list] = {}
        for p, value in zip(paths, self.values):
            self.by_role.setdefault(role(p), []).append(value)
        self.leaves = ([x for x in self.values if isinstance(x, (str, int))]
                       + [k for p in paths for k in p if isinstance(k, str)])


def mutate(rng: random.Random, root, base: Base):
    """Delete the value at a random path, or replace it (or, in an object,
    a value under one more key) by a value of the base in the same role,
    by any subtree, name or number of the base, or by a small arbitrary
    value."""
    by_role: dict[tuple, list[tuple]] = {}
    for p in json_paths(root):
        by_role.setdefault(role(p), []).append(p)
    path = rng.choice(by_role[rng.choice(sorted(by_role, key=repr))])
    if path and rng.random() < 0.2:
        del node_at(root, path[:-1])[path[-1]]
        return root
    if isinstance(node_at(root, path), dict) and rng.random() < 0.2:
        path += (rng.choice(KEYS),)
    kind = rng.random()
    if kind < 0.5:
        new = rng.choice(base.by_role.get(role(path), base.values))
    elif kind < 0.6:
        new = rng.choice(base.values)
    elif kind < 0.75:
        new = rng.choice(base.leaves)
    else:
        new = rng.choice(SMALL)
    new = copy.deepcopy(new)
    if not path:
        return new
    node_at(root, path[:-1])[path[-1]] = new
    return root


def repeat_a_key(rng: random.Random, root, base):
    objects = [p for p in json_paths(root)
               if isinstance(node_at(root, p), dict) and node_at(root, p)]
    if not objects:
        return root
    path = rng.choice(objects)
    node = node_at(root, path)
    key = rng.choice(sorted(node))
    value = rng.choice(base.values)
    pairs = Repeated(node.items())
    pairs.insert(rng.randrange(len(pairs) + 1), (key, copy.deepcopy(value)))
    if not path:
        return pairs
    node_at(root, path[:-1])[path[-1]] = pairs
    return root


def bases() -> list[Base]:
    demo = demo_document()
    failing = load_script(SCRIPT).FAILING_DOCUMENT
    # a small document in the serializer's own spelling: explicit
    # coefficient systems, a move string and an explicit vertical map
    small = {
        "monoids": [demo["monoids"][0], demo["monoids"][2]],
        "coefficients": [
            demo["coefficients"][2],
            {"name": "sZ2", "monoid": "S", "kind": "constant", "group": "Z/2"}],
        "grids": [{"name": "down",
                   "floors": [{"monoid": "C2", "coeff": "sign"},
                              {"monoid": "S", "coeff": "sZ2"}],
                   "vertical": {"maps": {"[0,0]": [[1]]}}, "pmax": 1}],
    }
    serialized = json.loads(serialize_document(parse_document(json.dumps(small))))
    return [Base(root) for root in (demo, failing, serialized, sample_root())]


def corpus_log() -> tuple[str, int, int]:
    rng = random.Random(SEED)
    lines: list[str] = []
    accepted = rejected = 0
    for base in bases():
        for _ in range(DOCUMENTS_PER_BASE):
            root = json.loads(base.text)
            for _ in range(rng.choice((1, 1, 1, 2))):
                root = mutate(rng, root, base)
            if rng.random() < 0.05:
                text = to_json(repeat_a_key(rng, root, base))
            else:
                text = json.dumps(root)
            lines.append(text)
            try:
                doc = parse_document(text)
            except DocumentError as exc:
                rejected += 1
                lines.extend(str(d) for d in exc.diagnostics)
            else:
                accepted += 1
                lines.append(serialize_document(doc))
            lines.append("--")
    return "\n".join(lines), accepted, rejected


def test_corpus_digest():
    log, accepted, rejected = corpus_log()
    total = accepted + rejected
    assert total >= 1000
    assert accepted >= total // 5 and rejected >= total // 5
    digest = hashlib.sha256(log.encode("utf-8", "surrogatepass")).hexdigest()
    assert digest == DIGEST
