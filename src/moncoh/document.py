"""JSON input documents: named monoids, coefficient systems, grids, set
systems and descriptor lists, with strict parsing and a deterministic
serializer.

Parsing is strict: unknown keys are rejected, every diagnostic carries a
JSON path, and cross-references are resolved by name at parse time.  A
problem is raised where it is found and collected once for each entry
(and each field of "defaults"), so an entry reports its first problem
and parsing goes on with the next entry.  Law
checks that are allowed to fail on well-formed input (associativity,
translation relations, path fit, surjectivity) are deliberately NOT run
here; the validate command reports those, so that a structurally sound
document always parses.

Pair keys such as "[a,x]" use element names.  Names may themselves
contain commas (set-style names like "{0,1}"), so the split point is the
unique comma producing two known names.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .abelian import AbHom, FgAbGroup, Z, check_shape, parse_group
from .coeff import CoeffSystem, constant_system, explicit_system, group_action_system
from .grid import GridSpec, PathSpec, VerticalFamily
from .leech import cochain_group, cochain_ngens
from .monoid import FinMonoid
from .structured import SetSystem, StructureDescriptor


@dataclass(frozen=True)
class Diagnostic:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class DocumentError(ValueError):
    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass(frozen=True)
class Defaults:
    p_max: int = 4
    coeff_group: FgAbGroup = Z


@dataclass(frozen=True)
class GridBundle:
    """A grid with its vertical family, path and optional degree bound."""

    grid: GridSpec
    family: VerticalFamily
    path: PathSpec
    p_max: int | None = None


@dataclass(frozen=True)
class Document:
    monoids: tuple[tuple[str, FinMonoid], ...] = ()
    coefficients: tuple[tuple[str, CoeffSystem], ...] = ()
    grids: tuple[tuple[str, GridBundle], ...] = ()
    set_systems: tuple[tuple[str, SetSystem], ...] = ()
    descriptor_lists: tuple[tuple[str, tuple[StructureDescriptor, ...]], ...] = ()
    defaults: Defaults = field(default_factory=Defaults)

    def _lookup(self, pairs, name: str):
        for n, obj in pairs:
            if n == name:
                return obj
        return None

    def monoid(self, name: str) -> FinMonoid | None:
        return self._lookup(self.monoids, name)

    def coefficient(self, name: str) -> CoeffSystem | None:
        return self._lookup(self.coefficients, name)

    def grid(self, name: str) -> GridBundle | None:
        return self._lookup(self.grids, name)

    def monoid_name(self, m: FinMonoid) -> str | None:
        for n, obj in self.monoids:
            if obj == m:
                return n
        return None

    def coefficient_name(self, c: CoeffSystem) -> str | None:
        for n, obj in self.coefficients:
            if obj == c:
                return n
        return None


_ROOT_KEYS = {"monoids", "coefficients", "grids", "set_systems",
              "descriptor_lists", "defaults"}


class _Rejected(Exception):
    """A problem, raised where it is found, with its diagnostics: one, or
    those found side by side (every unknown and missing key of one
    object, or the fields `_each` reads).  Not a ValueError, so `_at`
    never wraps it again."""

    def __init__(self, *diagnostics: Diagnostic):
        self.diagnostics = diagnostics


def _error(path: str, message: str) -> _Rejected:
    return _Rejected(Diagnostic(path, message))


@contextmanager
def _at(path: str):
    """Report a constructor's ValueError as a diagnostic at path."""
    try:
        yield
    except ValueError as exc:
        raise _error(path, str(exc))


@contextmanager
def _collected(diags: list[Diagnostic]):
    """Add the diagnostics of a problem raised inside to diags, and go on."""
    try:
        yield
    except _Rejected as exc:
        diags.extend(exc.diagnostics)


def _each(*parses) -> tuple:
    """The results of independent parses; if any fails, the diagnostics of
    every one that fails, in order."""
    diags: list[Diagnostic] = []
    out = []
    for parse in parses:
        with _collected(diags):
            out.append(parse())
    if diags:
        raise _Rejected(*diags)
    return tuple(out)


# shape helpers -----------------------------------------------------------


def _object(value: Any, path: str, required: set[str],
            optional: set[str] = frozenset()) -> dict:
    if not isinstance(value, dict):
        raise _error(path, f"expected an object, got {type(value).__name__}")
    problems = [Diagnostic(f"{path}.{key}", "unknown key")
                for key in sorted(set(value) - required - optional)]
    problems += [Diagnostic(path, f"missing required key {key!r}")
                 for key in sorted(required - set(value))]
    if problems:
        raise _Rejected(*problems)
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise _error(path, f"expected a string, got {type(value).__name__}")
    return value


def _integer(value: Any, path: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise _error(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise _error(path, f"expected an integer >= {minimum}, got {value}")
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise _error(path, f"expected an array, got {type(value).__name__}")
    return value


def _strings(value: Any, path: str) -> list[str]:
    return [_string(item, f"{path}[{i}]")
            for i, item in enumerate(_array(value, path))]


def _matrix(value: Any, path: str) -> list[list[int]]:
    out = []
    for i, row in enumerate(_array(value, path)):
        cells = _array(row, f"{path}[{i}]")
        for j, cell in enumerate(cells):
            if not isinstance(cell, int) or isinstance(cell, bool):
                raise _error(f"{path}[{i}][{j}]",
                             "matrix entries must be integers")
        out.append(list(cells))
    return out


def _group(value: Any, path: str) -> FgAbGroup:
    text = _string(value, path)
    with _at(path):
        return parse_group(text)


def _pair_key(key: str, names: Mapping[str, int],
              path: str) -> tuple[int, int]:
    """Resolve "[a,x]" where a, x are element names; the split comma is
    the unique one yielding two known names."""
    if not (key.startswith("[") and key.endswith("]")):
        raise _error(path, f"pair key {key!r} must look like \"[a,x]\"")
    body = key[1:-1]
    hits = []
    for pos in range(len(body)):
        if body[pos] != ",":
            continue
        left, right = body[:pos], body[pos + 1:]
        if left in names and right in names:
            hits.append((names[left], names[right]))
    if len(hits) == 1:
        return hits[0]
    reason = "does not name two elements" if not hits else "is ambiguous"
    raise _error(path, f"pair key {key!r} {reason}")


# sections ----------------------------------------------------------------


def _parse_monoid(obj: dict, path: str) -> FinMonoid:
    _object(obj, path, {"name", "elements", "identity", "table"})
    elements, identity = _each(
        lambda: _strings(obj["elements"], f"{path}.elements"),
        lambda: _string(obj["identity"], f"{path}.identity"))
    if len(set(elements)) != len(elements):
        raise _error(f"{path}.elements", "element names must be distinct")
    index = {e: i for i, e in enumerate(elements)}
    if identity not in index:
        raise _error(f"{path}.identity",
                     f"identity {identity!r} is not an element")
    rows = _array(obj["table"], f"{path}.table")
    if len(rows) != len(elements):
        raise _error(f"{path}.table",
                     f"expected {len(elements)} rows, got {len(rows)}")
    table = []
    for i, raw_row in enumerate(rows):
        row = _strings(raw_row, f"{path}.table[{i}]")
        if len(row) != len(elements):
            raise _error(f"{path}.table[{i}]",
                         f"expected {len(elements)} entries, got {len(row)}")
        idx_row = []
        for j, cell in enumerate(row):
            if cell not in index:
                raise _error(f"{path}.table[{i}][{j}]",
                             f"unknown element {cell!r}")
            idx_row.append(index[cell])
        table.append(tuple(idx_row))
    with _at(path):
        return FinMonoid(obj["name"], tuple(elements), index[identity],
                         tuple(table))


def _parse_hom_table(raw: Any, path: str, m: FinMonoid,
                     groups: Sequence[FgAbGroup],
                     combine) -> dict[tuple[int, int], AbHom]:
    if not isinstance(raw, dict):
        raise _error(path, "expected an object of pair keys")
    names = {e: i for i, e in enumerate(m.element_names)}
    out: dict[tuple[int, int], AbHom] = {}
    for key in sorted(raw):
        key_path = f"{path}.{key}"
        a, x = _pair_key(key, names, key_path)
        rows = _matrix(raw[key], key_path)
        with _at(key_path):
            out[a, x] = AbHom(groups[x], groups[combine(a, x)], rows)
    return out


_COEFFICIENT_KEYS = {"constant": {"group"}, "action": {"group", "action"},
                     "explicit": {"groups", "lstar", "rstar"}}


def _parse_coefficient(obj: dict, path: str,
                       monoids: dict[str, FinMonoid]) -> CoeffSystem:
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _COEFFICIENT_KEYS:
        raise _error(f"{path}.kind", "expected \"constant\", \"action\" or "
                                     f"\"explicit\", got {kind!r}")
    _object(obj, path, {"name", "monoid", "kind"} | _COEFFICIENT_KEYS[kind])
    mname = _string(obj["monoid"], f"{path}.monoid")
    m = monoids.get(mname)
    if m is None:
        raise _error(f"{path}.monoid", f"coefficient system {obj['name']!r} "
                                       f"references unknown monoid {mname!r}")
    if kind == "constant":
        return constant_system(m, _group(obj["group"], f"{path}.group"))
    if kind == "action":
        g = _group(obj["group"], f"{path}.group")
        raw = obj["action"]
        if not isinstance(raw, dict):
            raise _error(f"{path}.action",
                         "expected an object keyed by element name")
        index = {e: i for i, e in enumerate(m.element_names)}
        unknown = sorted(set(raw) - set(index))
        if unknown:
            raise _error(f"{path}.action.{unknown[0]}",
                         f"unknown element {unknown[0]!r}")
        missing = [e for e in m.element_names if e not in raw]
        if missing:
            raise _error(f"{path}.action",
                         "missing elements: " + ", ".join(missing))
        action: dict[int, AbHom] = {}
        for key in sorted(raw):
            rows = _matrix(raw[key], f"{path}.action.{key}")
            with _at(f"{path}.action.{key}"):
                action[index[key]] = AbHom(g, g, rows)
        try:
            return group_action_system(m, g, action)
        except (KeyError, ValueError) as exc:
            raise _error(f"{path}.action", str(exc) or "action is incomplete")
    groups_raw = _array(obj["groups"], f"{path}.groups")
    if len(groups_raw) != m.size:
        raise _error(f"{path}.groups", f"expected one group per element "
                                       f"({m.size}), got {len(groups_raw)}")
    groups = [_group(g, f"{path}.groups[{i}]")
              for i, g in enumerate(groups_raw)]
    lstar, rstar = _each(
        lambda: _parse_hom_table(obj["lstar"], f"{path}.lstar", m, groups,
                                 lambda a, x: m.mul(a, x)),
        lambda: _parse_hom_table(obj["rstar"], f"{path}.rstar", m, groups,
                                 lambda b, x: m.mul(x, b)))
    with _at(path):
        return explicit_system(m, groups, lstar, rstar)


def _parse_path(raw: Any, path: str, grid: GridSpec) -> PathSpec:
    _object(raw, path, set(), {"moves", "descend_at"})
    if ("moves" in raw) == ("descend_at" in raw):
        raise _error(path,
                     "exactly one of \"moves\" or \"descend_at\" is required")
    if "moves" in raw:
        moves = _string(raw["moves"], f"{path}.moves")
        with _at(f"{path}.moves"):
            return PathSpec(moves)
    cols = _array(raw["descend_at"], f"{path}.descend_at")
    columns = [_integer(c, f"{path}.descend_at[{i}]", minimum=0)
               for i, c in enumerate(cols)]
    # columns past the grid's pmax are kept: a run may take a larger
    # degree bound, and "moves" keeps such a descent too
    return PathSpec.descending_at(columns, grid.floor_count)


def _parse_grid(obj: dict, path: str,
                monoids: dict[str, FinMonoid],
                coefficients: dict[str, CoeffSystem],
                defaults: Defaults) -> GridBundle:
    _object(obj, path, {"name", "floors"},
            {"vertical", "path", "pmax", "finite"})
    floors = []
    for i, raw in enumerate(_array(obj["floors"], f"{path}.floors")):
        fpath = f"{path}.floors[{i}]"
        _object(raw, fpath, {"monoid", "coeff"})
        mname, cname = _each(lambda: _string(raw["monoid"], f"{fpath}.monoid"),
                             lambda: _string(raw["coeff"], f"{fpath}.coeff"))
        m = monoids.get(mname)
        if m is None:
            raise _error(f"{fpath}.monoid", f"grid {obj['name']!r} references "
                                            f"unknown monoid {mname!r}")
        c = coefficients.get(cname)
        if c is None:
            raise _error(f"{fpath}.coeff",
                         f"grid {obj['name']!r} references unknown "
                         f"coefficient system {cname!r}")
        if c.monoid != m:
            raise _error(f"{fpath}.coeff", f"coefficient system {cname!r} "
                                           f"does not belong to monoid {mname!r}")
        floors.append((m, c))
    finite = obj.get("finite", True)
    if not isinstance(finite, bool):
        raise _error(f"{path}.finite", "expected true or false")
    with _at(f"{path}.floors"):
        grid = GridSpec(tuple(floors), finite=finite)

    p_max = defaults.p_max
    if "pmax" in obj:
        p_max = _integer(obj["pmax"], f"{path}.pmax", minimum=0)

    family = VerticalFamily.zero()
    raw = obj.get("vertical", "zero")
    if isinstance(raw, dict):
        _object(raw, f"{path}.vertical", {"maps"})
        if not isinstance(raw["maps"], dict):
            raise _error(f"{path}.vertical.maps",
                         "expected an object of pair keys")
        maps: dict[tuple[int, int], AbHom] = {}
        for key in sorted(raw["maps"]):
            key_path = f"{path}.vertical.maps.{key}"
            if not (key.startswith("[") and key.endswith("]")
                    and key.count(",") == 1):
                raise _error(key_path,
                             f"expected a \"[floor,degree]\" key, got {key!r}")
            left, right = key[1:-1].split(",")
            try:
                floor, degree = int(left), int(right)
            except ValueError:
                raise _error(key_path, "expected integer floor and degree "
                                       f"in {key!r}")
            if key != f"[{floor},{degree}]":
                # keys such as "[0,00]" or "[0, +0]" would alias "[0,0]"
                raise _error(key_path,
                             f"expected a \"[floor,degree]\" key, got {key!r}")
            if not 0 <= floor < grid.floor_count - 1:
                raise _error(key_path,
                             f"floor {floor} has no floor below it in this grid")
            if not 0 <= degree <= p_max + 1:
                raise _error(key_path,
                             f"degree must lie in 0..{p_max + 1} (the grid "
                             f"degree bound plus one)")
            rows = _matrix(raw["maps"][key], key_path)
            source, target = grid.floors[floor], grid.floors[floor + 1]
            with _at(key_path):
                # the groups have (|M| - 1)^degree summands, so the rows
                # are checked against their counted generators before
                # either is built
                check_shape(rows, cochain_ngens(*target, degree),
                            cochain_ngens(*source, degree))
                dom = cochain_group(*source, degree).total
                cod = cochain_group(*target, degree).total
                maps[(floor, degree)] = AbHom(dom, cod, rows)
        family = VerticalFamily.explicit(maps)
    elif raw != "zero":
        raise _error(f"{path}.vertical",
                     "expected \"zero\" or an object with \"maps\"")

    if "path" in obj:
        spec = _parse_path(obj["path"], f"{path}.path", grid)
    else:
        spec = PathSpec.staircase(grid.floor_count)
    return GridBundle(grid, family, spec,
                      p_max if "pmax" in obj else None)


def _parse_set_system(obj: dict, path: str) -> SetSystem:
    _object(obj, path, {"name", "points", "sets"})
    points, raw_sets = _each(
        lambda: _strings(obj["points"], f"{path}.points"),
        lambda: _array(obj["sets"], f"{path}.sets"))
    named_sets = []
    for i, raw in enumerate(raw_sets):
        spath = f"{path}.sets[{i}]"
        _object(raw, spath, {"name", "members"})
        named_sets.append(_each(
            lambda: _string(raw["name"], f"{spath}.name"),
            lambda: _strings(raw["members"], f"{spath}.members")))
    with _at(path):
        return SetSystem.from_names(points, named_sets)


def _parse_descriptor(raw: Any, path: str) -> StructureDescriptor:
    _object(raw, path, set(), {"operations", "nonalg"})
    operations = []
    if "operations" in raw:
        ops = _array(raw["operations"], f"{path}.operations")
        for i, op in enumerate(ops):
            opath = f"{path}.operations[{i}]"
            _object(op, opath, {"arity"}, {"properties"})
            arity = _integer(op["arity"], f"{opath}.arity", minimum=1)
            props = (_strings(op["properties"], f"{opath}.properties")
                     if "properties" in op else [])
            operations.append((arity, props))
    nonalg = (_strings(raw["nonalg"], f"{path}.nonalg")
              if "nonalg" in raw else [])
    return StructureDescriptor.make(operations, nonalg)


def _parse_descriptor_list(obj: dict,
                           path: str) -> tuple[StructureDescriptor, ...]:
    _object(obj, path, {"name", "descriptors"})
    raw = _array(obj["descriptors"], f"{path}.descriptors")
    return tuple(_parse_descriptor(d, f"{path}.descriptors[{i}]")
                 for i, d in enumerate(raw))


def _walk(root: Any):
    """Every (path, value) of a JSON tree, each parent before its
    children, in document order and without recursion.  A key with no
    UTF-8 form is not entered, as no path through it could be printed."""
    stack = [("$", root)]
    while stack:
        path, value = stack.pop()
        yield path, value
        if isinstance(value, dict):
            stack.extend(reversed([(f"{path}.{key}", item)
                                   for key, item in value.items()
                                   if not _unencodable(key)]))
        elif isinstance(value, list):
            stack.extend(reversed([(f"{path}[{i}]", item)
                                   for i, item in enumerate(value)]))


def _lone_surrogates(root: Any) -> list[Diagnostic]:
    """A diagnostic for every string, key or value, holding a lone UTF-16
    surrogate such as the escape "\\ud800": such a string has no UTF-8
    encoding, so no report could print it.  A key is reported at its
    object's path, as the key itself cannot be printed."""
    out = []
    for path, value in _walk(root):
        if isinstance(value, dict):
            out.extend(Diagnostic(path, f"key {key!r} holds a lone surrogate")
                       for key in value if _unencodable(key))
        elif isinstance(value, str) and _unencodable(value):
            out.append(Diagnostic(path, f"string {value!r} holds a lone surrogate"))
    return out


def _unencodable(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _repeated_keys(root: Any,
                   repeated: Mapping[int, tuple[dict, list[str]]]) -> list[Diagnostic]:
    """A diagnostic at the path of every key given more than once in one
    object; ``repeated`` maps the id of such an object to the object and
    those keys."""
    return [Diagnostic(f"{path}.{key}", f"repeated key {key!r}")
            for path, value in _walk(root) if isinstance(value, dict)
            for key in repeated.get(id(value), (value, ()))[1]]


def parse_document(text: str) -> Document:
    """Parse and cross-link a UTF-8 JSON document; DocumentError carries
    path-addressed diagnostics: the first problem of each entry, and of
    each field of "defaults"."""
    # JSON keeps the last value of a key given twice in one object; record
    # such keys, as a document that gives two values means neither.  The
    # object is kept with them, so that its id is not reused.
    repeated: dict[int, tuple[dict, list[str]]] = {}

    def build_object(pairs: list[tuple[str, Any]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set[str] = set()
            repeated[id(obj)] = (obj, list(dict.fromkeys(
                key for key, _ in pairs if key in seen or seen.add(key))))
        return obj

    try:
        root = json.loads(text, object_pairs_hook=build_object)
    except json.JSONDecodeError as exc:
        raise DocumentError([Diagnostic("$", f"invalid JSON: {exc}")])
    except (RecursionError, ValueError) as exc:
        # nesting past the recursion limit, or an integer literal past the
        # interpreter's digit limit
        raise DocumentError([Diagnostic("$", f"unusable JSON: {exc}")])
    try:
        json.dumps(root, ensure_ascii=False).encode("utf-8")
    except (UnicodeEncodeError, RecursionError):
        # some string has no UTF-8 form, or the check nested too deep;
        # the walk finds which strings, if any, without recursing
        unencodable = _lone_surrogates(root)
        if unencodable:
            raise DocumentError(unencodable)
    if repeated:
        raise DocumentError(_repeated_keys(root, repeated))
    try:
        _object(root, "$", set(), _ROOT_KEYS)
    except _Rejected as exc:
        raise DocumentError(exc.diagnostics)

    diags: list[Diagnostic] = []
    fields = {}
    raw = root.get("defaults", {})
    with _collected(diags):
        _object(raw, "$.defaults", set(), {"p_max", "coefficients"})
        if "p_max" in raw:
            with _collected(diags):
                fields["p_max"] = _integer(raw["p_max"], "$.defaults.p_max",
                                           minimum=0)
        if "coefficients" in raw:
            with _collected(diags):
                fields["coeff_group"] = _group(raw["coefficients"],
                                               "$.defaults.coefficients")
    defaults = Defaults(**fields)

    def section(key: str, parse, *context) -> list[tuple[str, Any]]:
        """Parse each entry of a named section that has an object with a
        fresh name; a bad entry is reported and the next one read."""
        entries = []
        seen: set[str] = set()
        with _collected(diags):
            for i, item in enumerate(_array(root.get(key, []), f"$.{key}")):
                path = f"$.{key}[{i}]"
                if not isinstance(item, dict):
                    diags.append(Diagnostic(path, "expected an object"))
                    continue
                name = item.get("name")
                if not isinstance(name, str) or not name:
                    diags.append(Diagnostic(path, "missing or empty \"name\""))
                    continue
                if name in seen:
                    diags.append(Diagnostic(path, f"duplicate name {name!r}"))
                    continue
                seen.add(name)
                entries.append((item, name, path))
        parsed = []
        for item, name, path in entries:
            with _collected(diags):
                parsed.append((name, parse(item, path, *context)))
        return parsed

    monoids = section("monoids", _parse_monoid)
    coefficients = section("coefficients", _parse_coefficient, dict(monoids))
    grids = section("grids", _parse_grid, dict(monoids), dict(coefficients),
                    defaults)
    set_systems = section("set_systems", _parse_set_system)
    descriptor_lists = section("descriptor_lists", _parse_descriptor_list)
    if diags:
        raise DocumentError(diags)
    return Document(tuple(monoids), tuple(coefficients), tuple(grids),
                    tuple(set_systems), tuple(descriptor_lists), defaults)


# serialization ---------------------------------------------------------


def _rows(matrix) -> list[list[int]]:
    return [list(row) for row in matrix]


def _ser_monoid(name: str, m: FinMonoid) -> dict:
    return {
        "name": name,
        "elements": list(m.element_names),
        "identity": m.element_names[m.identity_index],
        "table": [[m.element_names[x] for x in row] for row in m.table],
    }


def _ser_coefficient(name: str, c: CoeffSystem, doc: Document) -> dict:
    mname = doc.monoid_name(c.monoid)
    if mname is None:
        raise ValueError(f"coefficient system {name!r} uses a monoid that is "
                         f"not a named document monoid")
    names = c.monoid.element_names
    return {
        "name": name,
        "monoid": mname,
        "kind": "explicit",
        "groups": [g.render() for g in c.groups],
        "lstar": {f"[{names[a]},{names[x]}]": _rows(h.matrix)
                  for (a, x), h in sorted(c.lstar.items())},
        "rstar": {f"[{names[a]},{names[x]}]": _rows(h.matrix)
                  for (a, x), h in sorted(c.rstar.items())},
    }


def _ser_grid(name: str, bundle: GridBundle, doc: Document) -> dict:
    floors = []
    for m, c in bundle.grid.floors:
        mname, cname = doc.monoid_name(m), doc.coefficient_name(c)
        if mname is None or cname is None:
            raise ValueError(f"grid {name!r} uses an unnamed monoid or "
                             f"coefficient system")
        floors.append({"monoid": mname, "coeff": cname})
    out: dict = {"name": name, "floors": floors}
    if not bundle.grid.finite:
        out["finite"] = False
    if not bundle.family.maps:
        out["vertical"] = "zero"
    else:
        out["vertical"] = {"maps": {
            f"[{f},{d}]": _rows(h.matrix)
            for (f, d), h in sorted(bundle.family.maps.items())}}
    out["path"] = {"moves": bundle.path.prefix_moves}
    if bundle.p_max is not None:
        out["pmax"] = bundle.p_max
    return out


def _ser_set_system(name: str, s: SetSystem) -> dict:
    return {
        "name": name,
        "points": list(s.points),
        "sets": [{"name": sname,
                  "members": [s.points[i] for i in sorted(members)]}
                 for sname, members in s.sets],
    }


def _ser_descriptor(d: StructureDescriptor) -> dict:
    return {
        "operations": [{"arity": arity, "properties": list(tags)}
                       for arity, tags in d.operations],
        "nonalg": list(d.nonalg_tags),
    }


def serialize_document(doc: Document) -> str:
    """Deterministic JSON; parse_document(serialize_document(d)) == d."""
    root: dict = {}
    if doc.monoids:
        root["monoids"] = [_ser_monoid(n, m) for n, m in doc.monoids]
    if doc.coefficients:
        root["coefficients"] = [_ser_coefficient(n, c, doc)
                                for n, c in doc.coefficients]
    if doc.grids:
        root["grids"] = [_ser_grid(n, g, doc) for n, g in doc.grids]
    if doc.set_systems:
        root["set_systems"] = [_ser_set_system(n, s)
                               for n, s in doc.set_systems]
    if doc.descriptor_lists:
        root["descriptor_lists"] = [
            {"name": n, "descriptors": [_ser_descriptor(d) for d in ds]}
            for n, ds in doc.descriptor_lists]
    root["defaults"] = {"p_max": doc.defaults.p_max,
                        "coefficients": doc.defaults.coeff_group.render()}
    return json.dumps(root, indent=2, sort_keys=True) + "\n"
