"""The three benchmark workloads: their inputs, operations and checks.

Every workload is a fixed list of operations built from a seed.  An
operation calls moncoh's public functions and returns the raw result;
rendering it for the fingerprint and checking it against closed forms
happens outside the timed region, in ``check``, which sees every result
of the pass so that one operation can be checked against another.

Why these workloads:

* ``leech_large`` - the ROADMAP baseline rows plus torsion rows.  Dense
  Smith normal form on matrices up to 2401 x 343 is nearly the whole run,
  and the headline row P(3)/Z to degree 3 is timed on its own.  The rows
  and their order are fixed and the seed is not used: relabelling the
  elements changes the elimination order and with it the run time by up
  to a factor of two, and a seeded order moved the median operation's
  time by up to 30%.  The cheapest row repeats, spread through the pass,
  so that the median operation is measured 13 times in the one pass a run
  has room for; the 95th percentile is the headline.
* ``grid_total`` - stacks of two and three floors joined by pullback
  families, each run over Z and Z/2.  Every operation rebuilds every
  floor complex and proves d o d = 0 again, so construction and
  composition checks are about half the time and SNF the other half.
  The stacks are fixed because relabelling changes the time of single
  tables so much; the seed shuffles the order of the grids.
* ``cli_docs`` - small JSON documents generated from the seed, each
  parsed and run through all six subcommands, alternating text and JSON.
  Per-call overhead in parsing, rendering and validation sets the median;
  fs/h on eight-element floors set the tail.  A third of the documents
  carry those eight-element floors, so the 95th percentile sits inside
  that class.  The documents' shapes are fixed; the seed orders them and
  writes their names.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Any, Callable

import closed_forms as cf

WORKLOADS = ("leech_large", "grid_total", "cli_docs")
SIZES = ("full", "tiny")
COMMANDS = ("validate", "leech", "square", "total", "fs", "h")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]


@dataclass
class Workload:
    """Operations of one pass plus the check over a pass's results.

    ``check`` maps {op name: result} to {op name: (rendering, problems)};
    an operation fails when it raised or has problems.
    """

    ops: list[Op]
    check: Callable[[dict[str, Any]], dict[str, tuple[str, list[str]]]]
    headline: str | None = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build(name: str, seed: int, size: str, mc) -> Workload:
    """Generate the workload's inputs from the seed; ``mc`` is moncoh."""
    rng = random.Random(f"{name}:{seed}")
    return {"leech_large": _leech_large,
            "grid_total": _grid_total,
            "cli_docs": _cli_docs}[name](rng, size, mc)


# leech_large -----------------------------------------------------------

_LEECH_ROWS = {
    # (monoid, coefficient group, degree bound, copies).  Only one pass fits
    # in a run, so the cheapest row repeats: with 13 copies among 19
    # operations the median operation is one of them, measured across the
    # pass instead of once, and the nearest-rank 95th percentile of 19 is
    # the slowest operation, the headline.
    "full": [("Z/4", "Z", 4, 13), ("P(2)", "Z/2", 4, 1), ("P(3)", "Z", 2, 1),
             ("P(3)", "Z", 3, 1), ("Z/6", "Z", 3, 1), ("P(2)", "Z", 5, 1),
             ("Z/4", "Z x Z/2", 4, 1)],
    "tiny": [("Z/4", "Z", 2, 1), ("P(2)", "Z/2", 2, 1), ("P(3)", "Z", 1, 1),
             ("Z/4", "Z x Z/2", 2, 1)],
}
_HEADLINE = "leech P(3) over Z p3"


def _monoid(mc, label: str):
    if label.startswith("Z/"):
        return mc.cyclic_group(int(label[2:]))
    return mc.power_set_monoid(int(label[2:-1]))


def _floor_table(label: str, coeffs: str, p_max: int) -> list[str]:
    if label.startswith("Z/"):
        return cf.cyclic_table(int(label[2:]), cf.parse(coeffs), p_max)
    return cf.zero_element_table(cf.parse(coeffs), p_max)


def _leech_large(rng: random.Random, size: str, mc) -> Workload:
    # A fixed order, because a seeded one moved the median operation's time
    # by up to 30%: the copies of each row spread evenly through the pass,
    # the headline in the middle, so the median operation samples the
    # whole pass rather than a few seconds of it.
    placed, expected, headline = [], {}, []
    for row, (label, coeffs, p, copies) in enumerate(_LEECH_ROWS[size]):
        m = _monoid(mc, label)
        c = mc.constant_system(m, mc.parse_group(coeffs))
        name = f"leech {label} over {coeffs} p{p}"
        for k in range(copies):
            op = Op(name + (f" #{k}" if copies > 1 else ""),
                    lambda m=m, c=c, p=p: mc.leech_cohomology_table(m, c, p))
            expected[op.name] = _floor_table(label, coeffs, p)
            if op.name == _HEADLINE:
                headline.append(op)
            else:
                placed.append(((k + 0.5) / copies, row, op))
    ops = [op for _, _, op in sorted(placed, key=lambda t: t[:2])]
    ops[len(ops) // 2:len(ops) // 2] = headline

    def check(results):
        out = {}
        for name, groups in results.items():
            got = [g.render() for g in groups]
            problems = [] if got == expected[name] else [
                f"expected {expected[name]}, got {got}"]
            out[name] = (" | ".join(got), problems)
        return out

    return Workload(ops, check, _HEADLINE if size == "full" else None)


# grid_total ------------------------------------------------------------

# (floors bottom-up as labels, p for total_cohomology, p for the staircase).
# Vertical maps run from floor f to floor f + 1 and pull cochains back
# along a monoid homomorphism from floor f + 1 to floor f; a third floor
# has no maps into it.
_STACKS = {
    "full": [(("Z/2", "Z/4"), 4, 3), (("Z/3", "Z/6"), 3, 2),
             (("Z/2", "Z/6"), 3, 2), (("P(1)", "P(2)"), 4, 3),
             (("Z/2", "Z/4", "Z/3"), 4, 3), (("Z/3", "Z/6", "Z/2"), 3, 2),
             (("Z/2", "Z/6", "Z/3"), 3, 2), (("P(1)", "P(2)", "Z/3"), 4, 3)],
    "tiny": [(("Z/2", "Z/4"), 2, 2), (("Z/2", "Z/4", "Z/3"), 2, 2)],
}
_GRID_COEFFS = {"full": ("Z", "Z/2"), "tiny": ("Z/2",)}


def _hom_to_lower(upper_label: str, lower_label: str, upper, lower) -> list[int]:
    """Element map upper -> lower: reduction mod k for cyclic floors,
    X -> X meet {0} for P(2) -> P(1), both by element name."""
    index = {n: i for i, n in enumerate(lower.element_names)}
    if upper_label.startswith("Z/"):
        k = int(lower_label[2:])
        return [index[str(int(n) % k)] for n in upper.element_names]
    return [index["{0}" if "0" in n else "{}"] for n in upper.element_names]


def _pullback(mc, upper, lower, phi: list[int], order: int | None, n: int):
    """Degree-n pullback C^n(lower) -> C^n(upper) for constant Z (order
    None) or Z/order coefficients, whose canonical generators are the
    identity-free tuples in lexicographic order."""
    src = list(itertools.product(lower.non_identity(), repeat=n))
    dst = list(itertools.product(upper.non_identity(), repeat=n))
    index = {t: i for i, t in enumerate(src)}
    rows = []
    for t in dst:
        row = [0] * len(src)
        image = tuple(phi[a] for a in t)
        if lower.identity_index not in image:
            row[index[image]] = 1
        rows.append(row)

    def group(k):
        return mc.FgAbGroup(k) if order is None else mc.FgAbGroup(0, (order,) * k)
    return mc.AbHom.from_rows(group(len(src)), group(len(dst)), rows)


def _square(mc, grid, family, path, p_max):
    square = mc.square_cohomology(grid, family, path, p_max)
    return square, mc.local_exactness_report(grid, family, path, p_max,
                                             square_report=square)


def _grid_total(rng: random.Random, size: str, mc) -> Workload:
    grids = []
    for labels, p_total, p_square in _STACKS[size]:
        for coeffs in _GRID_COEFFS[size]:
            grids.append((labels, coeffs, p_total, p_square))
    rng.shuffle(grids)
    ops = []
    meta = {}
    for labels, coeffs, p_total, p_square in grids:
        group = mc.parse_group(coeffs)
        monoids = [_monoid(mc, label) for label in labels]
        grid = mc.GridSpec(tuple((m, mc.constant_system(m, group))
                                 for m in monoids))
        order = None if coeffs == "Z" else group.torsion[0]
        phi = _hom_to_lower(labels[1], labels[0], monoids[1], monoids[0])
        maps = {}
        for n in range(max(p_total, p_square) + 2):
            maps[(0, n)] = _pullback(mc, monoids[1], monoids[0], phi, order, n)
        family = mc.VerticalFamily.explicit(maps)
        path = mc.PathSpec("DR" * (len(labels) - 1))
        key = f"grid {'>'.join(labels)} over {coeffs}"
        for kind in ("validate", "double", "total", "square"):
            meta[f"{key} {kind}"] = (key, kind, labels, coeffs, p_total)
        ops += [
            Op(f"{key} validate", lambda g=grid, f=family, pa=path, p=p_square: (
                f.column_violations(),
                mc.validate_mixed_compositions(g, f, pa, p))),
            Op(f"{key} double", lambda g=grid, f=family, p=p_total:
               mc.is_double_complex(g, f, p)),
            Op(f"{key} total", lambda g=grid, f=family, p=p_total:
               mc.total_cohomology(g, f, p)),
            Op(f"{key} square", lambda g=grid, f=family, pa=path, p=p_square:
               _square(mc, g, f, pa, p)),
        ]

    def check(results):
        out = {}
        totals = {}
        for name, res in results.items():
            key, kind, labels, coeffs, p_total = meta[name]
            problems = []
            if kind == "validate":
                column, mixed = res
                text = f"column {len(column)} mixed {mixed is not None}"
                if column or mixed is not None:
                    problems.append("pullback family failed validation")
            elif kind == "double":
                text = repr((res.commutes, res.column_ok))
                if not res.ok:
                    problems.append("pullback family is not a double complex")
            elif kind == "total":
                got = [g.render() for g in res]
                totals[key] = got
                text = " | ".join(got)
                if got[0] != "0":
                    problems.append("degree-0 pullback is injective, so H^0 must be 0")
            else:
                square, exact = res
                text = "\n".join(
                    f"{e.index} {e.floor} {e.degree} {e.move_in}{e.move_out} "
                    f"{e.tag} {e.group.render()}" for e in square.entries)
                text += f"\nidentified {exact.all_identified}"
                if not exact.all_identified:
                    problems.append("local exactness reports a mismatch")
                for e in square.entries:
                    if e.tag == "floor_leech":
                        want = _floor_table(labels[e.floor], coeffs, e.degree)[-1]
                        if e.group.render() != want:
                            problems.append(
                                f"floor {e.floor} degree {e.degree}: expected "
                                f"{want}, got {e.group.render()}")
            out[name] = (text, problems)
        # A third floor with no maps into it splits off as a shifted summand.
        for key, got in totals.items():
            _, _, labels, coeffs, p_total = meta[f"{key} total"]
            if len(labels) != 3:
                continue
            base = totals.get(f"grid {'>'.join(labels[:2])} over {coeffs}")
            if base is None:
                continue
            third = _floor_table(labels[2], coeffs, p_total)
            want = [cf.render(cf.direct_sum(
                [cf.parse(base[n])] + ([cf.parse(third[n - 2])] if n >= 2 else [])))
                for n in range(p_total + 1)]
            if got != want:
                out[f"{key} total"][1].append(f"expected {want} from the two-floor stack")
        return out

    return Workload(ops, check)


# cli_docs ---------------------------------------------------------------

_POOL = [("cyclic", 2), ("cyclic", 3), ("cyclic", 4),
         ("chain", 2), ("chain", 3), ("chain", 4)]
_GROUPS = ["Z", "Z/2", "Z/3", "Z x Z/2"]
_DOCS = {"full": (10, 20), "tiny": (0, 2)}  # (heavy, light) documents
_DOC_PMAX = 2


def _monoid_json(kind: str, n: int, name: str, rng: random.Random) -> dict:
    scheme = rng.choice(["letters", "indexed"])
    if scheme == "letters":
        elements = ["e", "a", "b", "c"][:n]
    else:
        elements = [f"{name.lower()}{i}" for i in range(n)]
    op = (lambda i, j: (i + j) % n) if kind == "cyclic" else max
    return {"name": name, "elements": elements, "identity": elements[0],
            "table": [[elements[op(i, j)] for j in range(n)] for i in range(n)]}


def _set_system_json(k: int, shape: random.Random, rng: random.Random,
                     extra: int) -> dict:
    """One point per nonempty subcollection of k sets, so the point map is
    surjective; point names sort in subcollection order, so the union
    monoids of every document have the same table."""
    subs = [s for r in range(1, k + 1) for s in itertools.combinations(range(k), r)]
    prefix = rng.choice("pqxy")
    members = list(subs) + [shape.choice(subs) for _ in range(extra)]
    points = [f"{prefix}{i:02d}" for i in range(len(members))]
    order = list(range(len(points)))
    rng.shuffle(order)
    set_names = rng.sample(["A", "B", "C", "U", "V", "W"], k)
    return {"name": f"sys{rng.randrange(100)}",
            "points": [points[i] for i in order],
            "sets": [{"name": set_names[j],
                      "members": [points[i] for i in order if j in members[i]]}
                     for j in range(k)]}


def _descriptors_json(k: int, rng: random.Random) -> list[dict]:
    tags = ["associative", "commutative", "unital", "idempotent"]
    out = []
    for i in range(k):
        d: dict = {"operations": [{"arity": i + 1,
                                   "properties": rng.sample(tags, rng.randrange(3))}]}
        if rng.random() < 0.5:
            d["nonalg"] = rng.sample(["ordered", "topological", "graded"], 1)
        out.append(d)
    return out


def _document(heavy: bool, shape: random.Random,
              rng: random.Random) -> tuple[dict, dict]:
    """A document defining every section, plus the closed-form answers.

    ``shape`` makes every choice that decides how much work the document
    is (monoids, groups, grid, path, extra points); ``rng``, the seed's,
    makes the rest (element and point names, set order, descriptors)."""
    picks = shape.sample(_POOL, shape.choice([2, 3]))
    monoids, tables = [], {}
    for kind, n in picks:
        name = f"{'C' if kind == 'cyclic' else 'L'}{n}"
        monoids.append(_monoid_json(kind, n, name, rng))
        tables[name] = (kind, n)
    default = "Z" if heavy else shape.choice(_GROUPS)
    coefficients, coeff_of = [], {}
    for i, m in enumerate(monoids):
        if i == 2 and shape.random() < 0.5:
            continue  # leech falls back to the default coefficients
        cname = f"k{i}"
        coeff_of[m["name"]] = (cname, shape.choice(_GROUPS))
        coefficients.append({"name": cname, "monoid": m["name"],
                             "kind": "constant", "group": coeff_of[m["name"]][1]})
    floors = [m["name"] for m in monoids[:2]]
    grid: dict = {"name": "stack",
                  "floors": [{"monoid": f, "coeff": coeff_of[f][0]} for f in floors]}
    if shape.random() < 0.5:
        grid["vertical"] = "zero"
    path = shape.choice([None, {"moves": "DR"}, {"moves": "D"}, {"moves": "RD"},
                         {"descend_at": [0]}])
    if path is not None:
        grid["path"] = path
    if shape.random() < 0.5:
        grid["pmax"] = _DOC_PMAX
    k = 3 if heavy else 2
    doc = {"monoids": monoids, "coefficients": coefficients, "grids": [grid],
           "set_systems": [_set_system_json(
               k, shape, rng, 0 if heavy else shape.randrange(3))],
           "descriptor_lists": [{"name": "ops", "descriptors": _descriptors_json(k, rng)}],
           "defaults": {"p_max": _DOC_PMAX, "coefficients": default}}

    def table(mname: str, coeffs: str) -> list[str]:
        kind, n = tables[mname]
        if kind == "cyclic":
            return cf.cyclic_table(n, cf.parse(coeffs), _DOC_PMAX + 1)
        return cf.zero_element_table(cf.parse(coeffs), _DOC_PMAX + 1)

    leech = {}
    for m in monoids:
        if m["name"] in coeff_of:
            cname, g = coeff_of[m["name"]]
            leech[(m["name"], cname)] = table(m["name"], g)[:_DOC_PMAX + 1]
        else:
            leech[(m["name"], f"constant {default} (default)")] = \
                table(m["name"], default)[:_DOC_PMAX + 1]
    floor_tables = [table(f, coeff_of[f][1]) for f in floors]
    expect = {
        "checks": len(monoids) + len(coefficients) + 3,
        "leech": leech,
        "floors": floor_tables,
        "total": cf.stacked_total(floor_tables, _DOC_PMAX),
        "union_floor": cf.zero_element_table(cf.parse(default), _DOC_PMAX + 1),
        "sizes": [2 ** (r + 1) for r in range(k)],
    }
    return doc, expect


_POSITION = re.compile(
    r"position \d+: \(floor (\d+), degree (\d+)\) tag (\w+) H = (.+)$")


def _square_view(text: str, fmt: str) -> tuple[list, bool, list]:
    """Positions as (floor, degree, tag, group), the all-identified flag and
    the floor sizes, read from either output format."""
    if fmt == "json":
        body = json.loads(text)
        positions, ok, sizes = [], True, []
        for r in body["results"]:
            positions += [(p["floor"], p["degree"], p["tag"], p["group"])
                          for p in r["positions"]]
            ok = ok and r["local_exactness"]["all_identified"]
            sizes += r.get("floor_sizes", [])
        return positions, ok, sizes
    positions = [(int(a), int(b), c, d) for a, b, c, d in
                 (m.groups() for m in map(_POSITION.search, text.splitlines()) if m)]
    sizes = []
    for line in text.splitlines():
        if "floors of sizes" in line:
            sizes += [int(x) for x in line.split("floors of sizes ")[1].split(", ")]
    return positions, "MISMATCHES PRESENT" not in text, sizes


def _check_command(cmd: str, fmt: str, code: int, text: str, expect: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    if cmd == "validate":
        ok = (json.loads(text)["ok"] if fmt == "json"
              else f"validate: all {expect['checks']} checks passed" in text)
        if not ok:
            problems.append("validation did not pass every check")
    elif cmd == "leech":
        got = {}
        if fmt == "json":
            for t in json.loads(text)["tables"]:
                got[(t["monoid"], t["coefficients"])] = t["groups"]
        else:
            current = None
            for line in text.splitlines():
                head = re.match(r"monoid (\S+), coefficients (.+):$", line)
                if head:
                    current = got.setdefault(head.groups(), [])
                elif current is not None and line.startswith("  H^"):
                    current.append(line.split(" = ", 1)[1])
        if got != expect["leech"]:
            problems.append(f"leech tables {got} differ from {expect['leech']}")
    elif cmd == "total":
        if fmt == "json":
            got = json.loads(text)["results"][0]["total"]
        else:
            got = [line.split(" = ", 1)[1] for line in text.splitlines()
                   if line.startswith("  Tot^")]
        if got != expect["total"]:
            problems.append(f"total {got} differs from {expect['total']}")
    else:
        positions, ok, sizes = _square_view(text, fmt)
        if not ok:
            problems.append("floor identification mismatch")
        for floor, degree, tag, group in positions:
            if tag != "floor_leech":
                continue
            table = (expect["floors"][floor] if cmd == "square"
                     else expect["union_floor"])
            if group != table[degree]:
                problems.append(f"floor {floor} degree {degree}: expected "
                                f"{table[degree]}, got {group}")
        if cmd in ("fs", "h") and sizes != expect["sizes"]:
            problems.append(f"floor sizes {sizes}, expected {expect['sizes']}")
        if not positions:
            problems.append("no positions reported")
    return problems


def _cli_docs(rng: random.Random, size: str, mc) -> Workload:
    # Document shapes are the same for every seed, so the mix of work is
    # too; letting the seed pick the shapes moved the median operation by
    # up to 40% between seeds.  The seed orders the documents and writes
    # their names.
    heavy, light = _DOCS[size]
    shapes = [(i < heavy, i) for i in range(heavy + light)]
    rng.shuffle(shapes)
    ops, expects, parsed = [], {}, {}
    for k, (is_heavy, i) in enumerate(shapes):
        shape = random.Random(f"cli_docs/{size}/shape {i}")
        doc, expect = _document(is_heavy, shape, rng)
        text = json.dumps(doc, indent=shape.choice([None, 2]))
        tag = f"doc{k:02d}"
        expects[tag] = expect

        def parse(text=text, tag=tag):
            parsed[tag] = mc.parse_document(text)
            return parsed[tag]
        ops.append(Op(f"{tag} parse", parse))
        for j, cmd in enumerate(COMMANDS):
            fmt = "json" if (i + j) % 2 else "text"
            ops.append(Op(f"{tag} {cmd} {fmt}",
                          lambda tag=tag, cmd=cmd, fmt=fmt: mc.run_command(
                              cmd, parsed[tag], mc.RunFlags(fmt=fmt))))

    def check(results):
        out = {}
        for name, res in results.items():
            tag, rest = name.split(" ", 1)
            if rest == "parse":
                names = [n for section in (res.monoids, res.coefficients, res.grids,
                                           res.set_systems, res.descriptor_lists)
                         for n, _ in section]
                out[name] = (" ".join(names), [])
                continue
            cmd, fmt = rest.split(" ")
            code, text = res
            out[name] = (f"{code}\n{text}",
                         _check_command(cmd, fmt, code, text, expects[tag]))
        return out

    return Workload(ops, check)
