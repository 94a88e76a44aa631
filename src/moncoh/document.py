"""JSON input documents: named monoids, coefficient systems, grids, set
systems and descriptor lists, with strict parsing and a deterministic
serializer.

Parsing is strict: unknown keys are rejected, every diagnostic carries a
JSON path, and cross-references are resolved by name at parse time.  Law
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
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .abelian import AbHom, FgAbGroup, Z, check_shape, parse_group
from .coeff import CoeffSystem, constant_system, explicit_system, group_action_system
from .grid import GridSpec, PathSpec, VerticalFamily, path_from_rule
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


class _Parser:
    def __init__(self) -> None:
        self.diags: list[Diagnostic] = []

    def err(self, path: str, message: str) -> None:
        self.diags.append(Diagnostic(path, message))

    # shape helpers -----------------------------------------------------

    def obj(self, value: Any, path: str, required: set[str],
            optional: set[str] = frozenset()) -> dict | None:
        if not isinstance(value, dict):
            self.err(path, f"expected an object, got {type(value).__name__}")
            return None
        ok = True
        for key in sorted(set(value) - required - optional):
            self.err(f"{path}.{key}", "unknown key")
            ok = False
        for key in sorted(required - set(value)):
            self.err(path, f"missing required key {key!r}")
            ok = False
        return value if ok else None

    def string(self, value: Any, path: str) -> str | None:
        if not isinstance(value, str):
            self.err(path, f"expected a string, got {type(value).__name__}")
            return None
        return value

    def integer(self, value: Any, path: str, minimum: int | None = None) -> int | None:
        if not isinstance(value, int) or isinstance(value, bool):
            self.err(path, f"expected an integer, got {type(value).__name__}")
            return None
        if minimum is not None and value < minimum:
            self.err(path, f"expected an integer >= {minimum}, got {value}")
            return None
        return value

    def array(self, value: Any, path: str) -> list | None:
        if not isinstance(value, list):
            self.err(path, f"expected an array, got {type(value).__name__}")
            return None
        return value

    def string_array(self, value: Any, path: str) -> list[str] | None:
        items = self.array(value, path)
        if items is None:
            return None
        out = []
        for i, item in enumerate(items):
            s = self.string(item, f"{path}[{i}]")
            if s is None:
                return None
            out.append(s)
        return out

    def matrix(self, value: Any, path: str) -> list[list[int]] | None:
        rows = self.array(value, path)
        if rows is None:
            return None
        out = []
        for i, row in enumerate(rows):
            cells = self.array(row, f"{path}[{i}]")
            if cells is None:
                return None
            for j, cell in enumerate(cells):
                if not isinstance(cell, int) or isinstance(cell, bool):
                    self.err(f"{path}[{i}][{j}]", "matrix entries must be integers")
                    return None
            out.append(list(cells))
        return out

    def group(self, value: Any, path: str) -> FgAbGroup | None:
        s = self.string(value, path)
        if s is None:
            return None
        try:
            return parse_group(s)
        except ValueError as exc:
            self.err(path, str(exc))
            return None

    def pair_key(self, key: str, names: Mapping[str, int],
                 path: str) -> tuple[int, int] | None:
        """Resolve "[a,x]" where a, x are element names; the split comma is
        the unique one yielding two known names."""
        if not (key.startswith("[") and key.endswith("]")):
            self.err(path, f"pair key {key!r} must look like \"[a,x]\"")
            return None
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
        self.err(path, f"pair key {key!r} {reason}")
        return None


def _named_items(p: _Parser, raw: Any, path: str) -> list[tuple[dict, str, str]]:
    """Entries of a named section as (object, name, entry path)."""
    items = p.array(raw, path)
    if items is None:
        return []
    out = []
    seen: set[str] = set()
    for i, item in enumerate(items):
        entry_path = f"{path}[{i}]"
        if not isinstance(item, dict):
            p.err(entry_path, "expected an object")
            continue
        name = item.get("name")
        if not isinstance(name, str) or not name:
            p.err(entry_path, "missing or empty \"name\"")
            continue
        if name in seen:
            p.err(entry_path, f"duplicate name {name!r}")
            continue
        seen.add(name)
        out.append((item, name, entry_path))
    return out


def _parse_monoid(p: _Parser, obj: dict, path: str) -> FinMonoid | None:
    if p.obj(obj, path, {"name", "elements", "identity", "table"}) is None:
        return None
    elements = p.string_array(obj["elements"], f"{path}.elements")
    identity = p.string(obj["identity"], f"{path}.identity")
    if elements is None or identity is None:
        return None
    if len(set(elements)) != len(elements):
        p.err(f"{path}.elements", "element names must be distinct")
        return None
    index = {e: i for i, e in enumerate(elements)}
    if identity not in index:
        p.err(f"{path}.identity", f"identity {identity!r} is not an element")
        return None
    rows = p.array(obj["table"], f"{path}.table")
    if rows is None:
        return None
    if len(rows) != len(elements):
        p.err(f"{path}.table", f"expected {len(elements)} rows, got {len(rows)}")
        return None
    table = []
    for i, raw_row in enumerate(rows):
        row = p.string_array(raw_row, f"{path}.table[{i}]")
        if row is None:
            return None
        if len(row) != len(elements):
            p.err(f"{path}.table[{i}]",
                  f"expected {len(elements)} entries, got {len(row)}")
            return None
        idx_row = []
        for j, cell in enumerate(row):
            if cell not in index:
                p.err(f"{path}.table[{i}][{j}]", f"unknown element {cell!r}")
                return None
            idx_row.append(index[cell])
        table.append(tuple(idx_row))
    try:
        return FinMonoid(obj["name"], tuple(elements), index[identity],
                         tuple(table))
    except ValueError as exc:
        p.err(path, str(exc))
        return None


def _parse_hom_table(p: _Parser, raw: Any, path: str, m: FinMonoid,
                     groups: Sequence[FgAbGroup],
                     combine) -> dict[tuple[int, int], AbHom] | None:
    if not isinstance(raw, dict):
        p.err(path, "expected an object of pair keys")
        return None
    names = {e: i for i, e in enumerate(m.element_names)}
    out: dict[tuple[int, int], AbHom] = {}
    for key in sorted(raw):
        key_path = f"{path}.{key}"
        pair = p.pair_key(key, names, key_path)
        if pair is None:
            return None
        rows = p.matrix(raw[key], key_path)
        if rows is None:
            return None
        a, x = pair
        try:
            out[pair] = AbHom.from_rows(groups[x], groups[combine(a, x)], rows)
        except ValueError as exc:
            p.err(key_path, str(exc))
            return None
    return out


def _parse_coefficient(p: _Parser, obj: dict, path: str,
                       monoids: dict[str, FinMonoid]) -> CoeffSystem | None:
    base = {"name", "monoid", "kind"}
    kind = obj.get("kind")
    if kind == "constant":
        checked = p.obj(obj, path, base | {"group"})
    elif kind == "action":
        checked = p.obj(obj, path, base | {"group", "action"})
    elif kind == "explicit":
        checked = p.obj(obj, path, base | {"groups", "lstar", "rstar"})
    else:
        p.err(f"{path}.kind",
              f"expected \"constant\", \"action\" or \"explicit\", got {kind!r}")
        return None
    if checked is None:
        return None
    mname = p.string(obj["monoid"], f"{path}.monoid")
    if mname is None:
        return None
    m = monoids.get(mname)
    if m is None:
        p.err(f"{path}.monoid",
              f"coefficient system {obj['name']!r} references unknown monoid {mname!r}")
        return None
    if kind == "constant":
        g = p.group(obj["group"], f"{path}.group")
        return None if g is None else constant_system(m, g)
    if kind == "action":
        g = p.group(obj["group"], f"{path}.group")
        if g is None:
            return None
        raw = obj["action"]
        if not isinstance(raw, dict):
            p.err(f"{path}.action", "expected an object keyed by element name")
            return None
        index = {e: i for i, e in enumerate(m.element_names)}
        for key in sorted(set(raw) - set(index)):
            p.err(f"{path}.action.{key}", f"unknown element {key!r}")
            return None
        missing = [e for e in m.element_names if e not in raw]
        if missing:
            p.err(f"{path}.action",
                  "missing elements: " + ", ".join(missing))
            return None
        action: dict[int, AbHom] = {}
        for key in sorted(raw):
            rows = p.matrix(raw[key], f"{path}.action.{key}")
            if rows is None:
                return None
            try:
                action[index[key]] = AbHom.from_rows(g, g, rows)
            except ValueError as exc:
                p.err(f"{path}.action.{key}", str(exc))
                return None
        try:
            return group_action_system(m, g, action)
        except (KeyError, ValueError) as exc:
            detail = str(exc) or "action is incomplete"
            p.err(f"{path}.action", detail)
            return None
    groups_raw = p.array(obj["groups"], f"{path}.groups")
    if groups_raw is None:
        return None
    if len(groups_raw) != m.size:
        p.err(f"{path}.groups",
              f"expected one group per element ({m.size}), got {len(groups_raw)}")
        return None
    groups = []
    for i, g_raw in enumerate(groups_raw):
        g = p.group(g_raw, f"{path}.groups[{i}]")
        if g is None:
            return None
        groups.append(g)
    lstar = _parse_hom_table(p, obj["lstar"], f"{path}.lstar", m, groups,
                             lambda a, x: m.mul(a, x))
    rstar = _parse_hom_table(p, obj["rstar"], f"{path}.rstar", m, groups,
                             lambda b, x: m.mul(x, b))
    if lstar is None or rstar is None:
        return None
    try:
        return explicit_system(m, groups, lstar, rstar)
    except ValueError as exc:
        p.err(path, str(exc))
        return None


def _parse_path(p: _Parser, raw: Any, path: str, grid: GridSpec,
                p_max: int) -> PathSpec | None:
    if p.obj(raw, path, set(), {"moves", "descend_at"}) is None:
        return None
    if ("moves" in raw) == ("descend_at" in raw):
        p.err(path, "exactly one of \"moves\" or \"descend_at\" is required")
        return None
    if "moves" in raw:
        moves = p.string(raw["moves"], f"{path}.moves")
        if moves is None:
            return None
        try:
            return PathSpec(moves)
        except ValueError as exc:
            p.err(f"{path}.moves", str(exc))
            return None
    cols = p.array(raw["descend_at"], f"{path}.descend_at")
    if cols is None:
        return None
    columns = set()
    for i, c in enumerate(cols):
        v = p.integer(c, f"{path}.descend_at[{i}]", minimum=0)
        if v is None:
            return None
        columns.add(v)
    return path_from_rule(lambda c: c in columns, grid, p_max)


def _parse_grid(p: _Parser, obj: dict, path: str,
                monoids: dict[str, FinMonoid],
                coefficients: dict[str, CoeffSystem],
                defaults: Defaults) -> GridBundle | None:
    if p.obj(obj, path, {"name", "floors"},
             {"vertical", "path", "pmax", "finite"}) is None:
        return None
    raw_floors = p.array(obj["floors"], f"{path}.floors")
    if raw_floors is None:
        return None
    floors = []
    for i, raw in enumerate(raw_floors):
        fpath = f"{path}.floors[{i}]"
        if p.obj(raw, fpath, {"monoid", "coeff"}) is None:
            return None
        mname = p.string(raw["monoid"], f"{fpath}.monoid")
        cname = p.string(raw["coeff"], f"{fpath}.coeff")
        if mname is None or cname is None:
            return None
        m = monoids.get(mname)
        if m is None:
            p.err(f"{fpath}.monoid",
                  f"grid {obj['name']!r} references unknown monoid {mname!r}")
            return None
        c = coefficients.get(cname)
        if c is None:
            p.err(f"{fpath}.coeff",
                  f"grid {obj['name']!r} references unknown coefficient system {cname!r}")
            return None
        if c.monoid != m:
            p.err(f"{fpath}.coeff",
                  f"coefficient system {cname!r} does not belong to monoid {mname!r}")
            return None
        floors.append((m, c))
    finite = obj.get("finite", True)
    if not isinstance(finite, bool):
        p.err(f"{path}.finite", "expected true or false")
        return None
    try:
        grid = GridSpec(tuple(floors), finite=finite)
    except ValueError as exc:
        p.err(f"{path}.floors", str(exc))
        return None

    p_max = defaults.p_max
    if "pmax" in obj:
        v = p.integer(obj["pmax"], f"{path}.pmax", minimum=0)
        if v is None:
            return None
        p_max = v

    family = VerticalFamily.zero()
    if "vertical" in obj:
        raw = obj["vertical"]
        if raw == "zero":
            pass
        elif isinstance(raw, dict):
            if p.obj(raw, f"{path}.vertical", {"maps"}) is None:
                return None
            if not isinstance(raw["maps"], dict):
                p.err(f"{path}.vertical.maps", "expected an object of pair keys")
                return None
            maps: dict[tuple[int, int], AbHom] = {}
            for key in sorted(raw["maps"]):
                key_path = f"{path}.vertical.maps.{key}"
                if not (key.startswith("[") and key.endswith("]")
                        and key.count(",") == 1):
                    p.err(key_path, f"expected a \"[floor,degree]\" key, got {key!r}")
                    return None
                left, right = key[1:-1].split(",")
                try:
                    floor, degree = int(left), int(right)
                except ValueError:
                    p.err(key_path, f"expected integer floor and degree in {key!r}")
                    return None
                if key != f"[{floor},{degree}]":
                    # keys such as "[0,00]" or "[0, +0]" would alias "[0,0]"
                    p.err(key_path, f"expected a \"[floor,degree]\" key, got {key!r}")
                    return None
                if not 0 <= floor < grid.floor_count - 1:
                    p.err(key_path,
                          f"floor {floor} has no floor below it in this grid")
                    return None
                if not 0 <= degree <= p_max + 1:
                    p.err(key_path,
                          f"degree must lie in 0..{p_max + 1} (the grid "
                          f"degree bound plus one)")
                    return None
                rows = p.matrix(raw["maps"][key], key_path)
                if rows is None:
                    return None
                source, target = grid.floors[floor], grid.floors[floor + 1]
                try:
                    # the groups have (|M| - 1)^degree summands, so the
                    # rows are checked against their counted generators
                    # before either is built
                    check_shape(rows, cochain_ngens(*target, degree),
                                cochain_ngens(*source, degree))
                    dom = cochain_group(*source, degree).total
                    cod = cochain_group(*target, degree).total
                    maps[(floor, degree)] = AbHom.from_rows(dom, cod, rows)
                except ValueError as exc:
                    p.err(key_path, str(exc))
                    return None
            family = VerticalFamily.explicit(maps)
        else:
            p.err(f"{path}.vertical",
                  "expected \"zero\" or an object with \"maps\"")
            return None

    if "path" in obj:
        spec = _parse_path(p, obj["path"], f"{path}.path", grid, p_max)
        if spec is None:
            return None
    else:
        spec = PathSpec("DR" * (grid.floor_count - 1))
    return GridBundle(grid, family, spec,
                      p_max if "pmax" in obj else None)


def _parse_set_system(p: _Parser, obj: dict, path: str) -> SetSystem | None:
    if p.obj(obj, path, {"name", "points", "sets"}) is None:
        return None
    points = p.string_array(obj["points"], f"{path}.points")
    raw_sets = p.array(obj["sets"], f"{path}.sets")
    if points is None or raw_sets is None:
        return None
    named_sets = []
    for i, raw in enumerate(raw_sets):
        spath = f"{path}.sets[{i}]"
        if p.obj(raw, spath, {"name", "members"}) is None:
            return None
        sname = p.string(raw["name"], f"{spath}.name")
        members = p.string_array(raw["members"], f"{spath}.members")
        if sname is None or members is None:
            return None
        named_sets.append((sname, members))
    try:
        return SetSystem.from_names(points, named_sets)
    except ValueError as exc:
        p.err(path, str(exc))
        return None


def _parse_descriptor(p: _Parser, raw: Any, path: str) -> StructureDescriptor | None:
    if p.obj(raw, path, set(), {"operations", "nonalg"}) is None:
        return None
    operations = []
    if "operations" in raw:
        ops = p.array(raw["operations"], f"{path}.operations")
        if ops is None:
            return None
        for i, op in enumerate(ops):
            opath = f"{path}.operations[{i}]"
            if p.obj(op, opath, {"arity"}, {"properties"}) is None:
                return None
            arity = p.integer(op["arity"], f"{opath}.arity", minimum=1)
            if arity is None:
                return None
            props: list[str] = []
            if "properties" in op:
                got = p.string_array(op["properties"], f"{opath}.properties")
                if got is None:
                    return None
                props = got
            operations.append((arity, props))
    nonalg: list[str] = []
    if "nonalg" in raw:
        got = p.string_array(raw["nonalg"], f"{path}.nonalg")
        if got is None:
            return None
        nonalg = got
    return StructureDescriptor.make(operations, nonalg)


def _parse_descriptor_list(p: _Parser, obj: dict,
                           path: str) -> tuple[StructureDescriptor, ...] | None:
    if p.obj(obj, path, {"name", "descriptors"}) is None:
        return None
    raw = p.array(obj["descriptors"], f"{path}.descriptors")
    if raw is None:
        return None
    out = []
    for i, d in enumerate(raw):
        parsed = _parse_descriptor(p, d, f"{path}.descriptors[{i}]")
        if parsed is None:
            return None
        out.append(parsed)
    return tuple(out)


def _parse_defaults(p: _Parser, raw: Any, path: str) -> Defaults:
    if p.obj(raw, path, set(), {"p_max", "coefficients"}) is None:
        return Defaults()
    p_max = 4
    if "p_max" in raw:
        v = p.integer(raw["p_max"], f"{path}.p_max", minimum=0)
        if v is not None:
            p_max = v
    group = Z
    if "coefficients" in raw:
        g = p.group(raw["coefficients"], f"{path}.coefficients")
        if g is not None:
            group = g
    return Defaults(p_max, group)


def _lone_surrogates(root: Any) -> list[Diagnostic]:
    """A diagnostic for every string, key or value, holding a lone UTF-16
    surrogate such as the escape "\\ud800": such a string has no UTF-8
    encoding, so no report could print it.  A key is reported at its
    object's path, as the key itself cannot be printed."""
    out = []
    stack = [("$", root)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, dict):
            items = []
            for key, item in value.items():
                if _unencodable(key):
                    out.append(Diagnostic(path, f"key {key!r} holds a lone surrogate"))
                else:
                    items.append((f"{path}.{key}", item))
            stack.extend(reversed(items))
        elif isinstance(value, list):
            stack.extend(reversed([(f"{path}[{i}]", item)
                                   for i, item in enumerate(value)]))
        elif isinstance(value, str) and _unencodable(value):
            out.append(Diagnostic(path, f"string {value!r} holds a lone surrogate"))
    return out


def _unencodable(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def parse_document(text: str) -> Document:
    """Parse and cross-link a UTF-8 JSON document; DocumentError carries
    path-addressed diagnostics for every problem found."""
    try:
        root = json.loads(text)
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
    p = _Parser()
    if p.obj(root, "$", set(), _ROOT_KEYS) is None:
        raise DocumentError(p.diags)

    defaults = _parse_defaults(p, root.get("defaults", {}), "$.defaults")

    monoids: list[tuple[str, FinMonoid]] = []
    for obj, name, path in _named_items(p, root.get("monoids", []), "$.monoids"):
        m = _parse_monoid(p, obj, path)
        if m is not None:
            monoids.append((name, m))
    monoid_map = dict(monoids)

    coefficients: list[tuple[str, CoeffSystem]] = []
    for obj, name, path in _named_items(p, root.get("coefficients", []),
                                        "$.coefficients"):
        c = _parse_coefficient(p, obj, path, monoid_map)
        if c is not None:
            coefficients.append((name, c))
    coeff_map = dict(coefficients)

    grids: list[tuple[str, GridBundle]] = []
    for obj, name, path in _named_items(p, root.get("grids", []), "$.grids"):
        g = _parse_grid(p, obj, path, monoid_map, coeff_map, defaults)
        if g is not None:
            grids.append((name, g))

    set_systems: list[tuple[str, SetSystem]] = []
    for obj, name, path in _named_items(p, root.get("set_systems", []),
                                        "$.set_systems"):
        s = _parse_set_system(p, obj, path)
        if s is not None:
            set_systems.append((name, s))

    descriptor_lists: list[tuple[str, tuple[StructureDescriptor, ...]]] = []
    for obj, name, path in _named_items(p, root.get("descriptor_lists", []),
                                        "$.descriptor_lists"):
        d = _parse_descriptor_list(p, obj, path)
        if d is not None:
            descriptor_lists.append((name, d))

    if p.diags:
        raise DocumentError(p.diags)
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
