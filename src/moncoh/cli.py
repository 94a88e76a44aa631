"""Command-line surface: runs one subcommand against a JSON document and
prints a deterministic text or JSON report.

Exit codes: 0 success, 1 a validation or consistency check failed, 2 the
input could not be used (unreadable file, rejected document, unknown
name).  JSON reports carry a "convention" block naming the indexing and
sign choices so tables can be compared across tools.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .coeff import CoeffSystem, constant_system, validate_relations
from .document import (
    Document,
    DocumentError,
    GridBundle,
    parse_document,
)
from .grid import local_exactness_report, square_cohomology, validate_mixed_compositions
from .leech import (
    ALTERNATE_INDEXING_NOTE,
    INDEXING_CONVENTION,
    leech_cohomology_table,
)
from .monoid import FinMonoid, validate as validate_monoid
from .structured import (
    NotSurjective,
    check_h_surjective,
    distinct_classes,
    fs_pipeline,
    h_pipeline,
)
from .totalcx import SIGN_CONVENTION, NotADoubleComplex, TotalComplex

COMMANDS = ("validate", "leech", "square", "total", "fs", "h")

CONVENTION = {
    "indexing": INDEXING_CONVENTION,
    "indexing_note": ALTERNATE_INDEXING_NOTE,
    "total_sign": SIGN_CONVENTION,
}


class _InputError(Exception):
    """The document or a flag gives a command nothing to run on (exit 2)."""


@dataclass(frozen=True)
class RunFlags:
    p_max: int | None = None
    fmt: str = "text"
    grid: str | None = None
    monoid: str | None = None


def _effective_pmax(flags: RunFlags, doc: Document,
                    bundle: GridBundle | None = None) -> int:
    if flags.p_max is not None:
        return flags.p_max
    if bundle is not None and bundle.p_max is not None:
        return bundle.p_max
    return doc.defaults.p_max


def _square_payload(square, exact) -> dict:
    positions = [{
        "index": e.index,
        "floor": e.floor,
        "degree": e.degree,
        "move_in": e.move_in,
        "move_out": e.move_out,
        "tag": e.tag,
        "group": e.group.render(),
    } for e in square.entries]
    runs = [{
        "floor": r.floor,
        "start_degree": r.start_degree,
        "end_degree": r.end_degree,
        "length": r.length,
        "short": r.short,
        "tail": r.tail,
    } for r in exact.runs]
    idents = [{
        "floor": i.floor,
        "degree": i.degree,
        "path_group": i.path_group.render(),
        "floor_group": i.floor_group.render(),
        "matches": i.matches,
    } for i in exact.identifications]
    return {
        "moves": square.moves,
        "positions": positions,
        "local_exactness": {
            "runs": runs,
            "identifications": idents,
            "extremal": [list(pos) for pos in exact.extremal_positions],
            "all_identified": exact.all_identified,
        },
    }


def _square_lines(payload: dict, indent: str = "  ") -> list[str]:
    lines = []
    for e in payload["positions"]:
        lines.append(
            f"{indent}position {e['index']}: (floor {e['floor']}, degree "
            f"{e['degree']}) tag {e['tag']} H = {e['group']}")
    ex = payload["local_exactness"]
    for r in ex["runs"]:
        suffix = " tail" if r["tail"] else (" short" if r["short"] else "")
        lines.append(
            f"{indent}run: floor {r['floor']} degrees "
            f"{r['start_degree']}..{r['end_degree']}{suffix}")
    if ex["extremal"]:
        spots = ", ".join(f"({f}, {d})" for f, d in ex["extremal"])
        lines.append(f"{indent}extremal positions: {spots}")
    else:
        lines.append(f"{indent}extremal positions: none")
    for i in ex["identifications"]:
        word = "match" if i["matches"] else "MISMATCH"
        lines.append(
            f"{indent}identification: (floor {i['floor']}, degree "
            f"{i['degree']}) path {i['path_group']} floor "
            f"{i['floor_group']} {word}")
    word = "all match" if ex["all_identified"] else "MISMATCHES PRESENT"
    lines.append(f"{indent}floor identifications: {word}")
    return lines


def _grid_problems(bundle: GridBundle, p_max: int) -> list[str]:
    problems = []
    for floor, degree, _ in bundle.family.column_violations():
        problems.append(
            f"vertical maps do not square to zero at (floor {floor}, "
            f"degree {degree})")
    if problems:
        return problems
    try:
        violation = validate_mixed_compositions(
            bundle.grid, bundle.family, bundle.path, p_max)
    except (ValueError, AssertionError) as exc:
        return [str(exc)]
    if violation is not None:
        floor, degree = violation.position
        problems.append(
            f"maps {violation.moves[0]} then {violation.moves[1]} around "
            f"(floor {floor}, degree {degree}) compose to a nonzero "
            f"homomorphism")
    return problems


def _cmd_validate(doc: Document, flags: RunFlags) -> tuple[int, dict, list[str]]:
    results = []
    for name, m in doc.monoids:
        results.append(("monoid", name, validate_monoid(m), []))
    for name, c in doc.coefficients:
        problems = [str(v) for v in validate_relations(c)]
        results.append(("coefficient system", name, problems, []))
    for name, bundle in doc.grids:
        p_max = _effective_pmax(flags, doc, bundle)
        results.append(("grid", name, _grid_problems(bundle, p_max), []))
    for name, system in doc.set_systems:
        report = check_h_surjective(system)
        problems = ([] if report.ok else
                    ["h map misses subcollections: "
                     + ", ".join(report.missing_names)])
        results.append(("set system", name, problems, []))
    for name, ds in doc.descriptor_lists:
        classes = distinct_classes(ds)
        notes = [f"{len(classes)} distinct classes from {len(ds)} descriptors"]
        seen: list = []
        for i, d in enumerate(ds):
            if d in seen:
                notes.append(f"descriptor {i} repeats an earlier class; "
                             f"the fs command rejects this list")
            else:
                seen.append(d)
        results.append(("descriptor list", name, [], notes))

    payload_results = [{"section": section, "name": name,
                        "ok": not problems, "problems": problems,
                        "notes": notes}
                       for section, name, problems, notes in results]
    failed = sum(1 for r in payload_results if not r["ok"])
    payload = {"results": payload_results, "ok": failed == 0}
    lines = []
    for section, name, problems, notes in results:
        lines.append(f"{section} {name}: {'FAIL' if problems else 'ok'}")
        for problem in problems:
            lines.append(f"  problem: {problem}")
        for note in notes:
            lines.append(f"  note: {note}")
    total = len(results)
    lines.append(f"validate: {failed} of {total} checks failed" if failed
                 else f"validate: all {total} checks passed")
    return (1 if failed else 0), payload, lines


def _leech_targets(doc: Document, flags: RunFlags
                   ) -> list[tuple[str, str, FinMonoid, CoeffSystem]]:
    if flags.monoid is not None and doc.monoid(flags.monoid) is None:
        raise _InputError(f"unknown monoid {flags.monoid!r}")
    targets = []
    covered = set()
    for cname, c in doc.coefficients:
        mname = doc.monoid_name(c.monoid)
        if flags.monoid is not None and mname != flags.monoid:
            continue
        covered.add(mname)
        targets.append((mname, cname, c.monoid, c))
    group = doc.defaults.coeff_group
    for mname, m in doc.monoids:
        if flags.monoid is not None and mname != flags.monoid:
            continue
        if mname not in covered:
            targets.append((mname, f"constant {group.render()} (default)",
                            m, constant_system(m, group)))
    if not targets:
        raise _InputError("document defines no monoids")
    return targets


def _cmd_leech(doc: Document, flags: RunFlags) -> tuple[int, dict, list[str]]:
    targets = _leech_targets(doc, flags)
    p_max = _effective_pmax(flags, doc)
    code = 0
    tables = []
    lines = [f"leech cohomology, degrees 0..{p_max}",
             f"convention: {INDEXING_CONVENTION}"]
    for mname, label, m, c in targets:
        try:
            groups = [g.render()
                      for g in leech_cohomology_table(m, c, p_max)]
        except (ValueError, AssertionError) as exc:
            code = 1
            tables.append({"monoid": mname, "coefficients": label,
                           "error": str(exc)})
            lines.append(f"monoid {mname}, coefficients {label}: FAIL {exc}")
            continue
        tables.append({"monoid": mname, "coefficients": label,
                       "groups": groups})
        lines.append(f"monoid {mname}, coefficients {label}:")
        lines.extend(f"  H^{n} = {g}" for n, g in enumerate(groups))
    return code, {"pmax": p_max, "tables": tables}, lines


def _selected_grids(doc: Document, flags: RunFlags
                    ) -> list[tuple[str, GridBundle]]:
    if flags.grid is not None:
        bundle = doc.grid(flags.grid)
        if bundle is None:
            raise _InputError(f"unknown grid {flags.grid!r}")
        return [(flags.grid, bundle)]
    if not doc.grids:
        raise _InputError("document defines no grids")
    return list(doc.grids)


def _cmd_square(doc: Document, flags: RunFlags) -> tuple[int, dict, list[str]]:
    grids = _selected_grids(doc, flags)
    code = 0
    results = []
    lines = [f"convention: {INDEXING_CONVENTION}"]
    for name, bundle in grids:
        p_max = _effective_pmax(flags, doc, bundle)
        try:
            square = square_cohomology(bundle.grid, bundle.family,
                                       bundle.path, p_max)
            exact = local_exactness_report(bundle.grid, bundle.family,
                                           bundle.path, p_max,
                                           square_report=square)
        except (ValueError, AssertionError) as exc:
            code = max(code, 1)
            results.append({"grid": name, "pmax": p_max, "error": str(exc)})
            lines.append(f"grid {name}: FAIL {exc}")
            continue
        payload = _square_payload(square, exact)
        if not exact.all_identified:
            code = max(code, 1)
        results.append({"grid": name, "pmax": p_max, **payload})
        lines.append(f"grid {name}: moves {payload['moves']!r}, "
                     f"p_max {p_max}")
        lines.extend(_square_lines(payload))
    return code, {"results": results}, lines


def _cmd_total(doc: Document, flags: RunFlags) -> tuple[int, dict, list[str]]:
    grids = _selected_grids(doc, flags)
    code = 0
    results = []
    lines = [f"convention: {INDEXING_CONVENTION}",
             f"sign: {SIGN_CONVENTION}"]
    for name, bundle in grids:
        p_max = _effective_pmax(flags, doc, bundle)
        try:
            cx = TotalComplex(bundle.grid, bundle.family, p_max)
            groups = [cx.cohomology(n).render() for n in range(p_max + 1)]
        except NotADoubleComplex as exc:
            reason = ("vertical maps do not square to zero"
                      if not exc.view.column_ok else str(exc))
            code = max(code, 1)
            results.append({"grid": name, "pmax": p_max,
                            "commutes": False, "error": reason})
            lines.append(f"grid {name}: FAIL {reason}")
            continue
        except (ValueError, AssertionError) as exc:
            code = max(code, 1)
            results.append({"grid": name, "pmax": p_max, "error": str(exc)})
            lines.append(f"grid {name}: FAIL {exc}")
            continue
        results.append({"grid": name, "pmax": p_max, "commutes": True,
                        "total": groups})
        lines.append(f"grid {name}: double complex ok, degrees 0..{p_max}")
        lines.extend(f"  Tot^{n} = {g}" for n, g in enumerate(groups))
    return code, {"results": results}, lines


def _run_pipelines(doc: Document, flags: RunFlags, items, key: str,
                   section: str, pipeline, describe
                   ) -> tuple[int, dict, list[str]]:
    """Shared body of fs and h: run the pipeline on each named item and
    report its square.  describe(report, sizes) gives the item's own JSON
    fields and header lines, the first one following "{section} {name}: "."""
    if not items:
        raise _InputError(f"document defines no {section}s")
    p_max = _effective_pmax(flags, doc)
    group = doc.defaults.coeff_group
    code = 0
    results = []
    lines = [f"convention: {INDEXING_CONVENTION}"]
    for name, item in items:
        try:
            report = pipeline(item, coeff_group=group, p_max=p_max)
        except (ValueError, AssertionError) as exc:
            code = 1
            failure = {key: name, "error": str(exc)}
            if isinstance(exc, NotSurjective):
                failure["missing"] = list(exc.missing)
            results.append(failure)
            lines.append(f"{section} {name}: FAIL {exc}")
            continue
        payload = _square_payload(report.square, report.exactness)
        sizes = ", ".join(str(m.size) for m in report.floors)
        fields, header = describe(report, sizes)
        results.append({
            key: name,
            **fields,
            "floor_sizes": [m.size for m in report.floors],
            "pmax": p_max,
            "notes": list(report.notes),
            **payload,
        })
        lines.append(f"{section} {name}: {header[0]}")
        lines.extend(header[1:])
        lines.append(f"  moves {payload['moves']!r}, p_max {p_max}")
        lines.extend(_square_lines(payload))
        lines.extend(f"  note: {n}" for n in report.notes)
    return code, {"results": results}, lines


def _cmd_fs(doc: Document, flags: RunFlags) -> tuple[int, dict, list[str]]:
    return _run_pipelines(
        doc, flags, doc.descriptor_lists, "list", "descriptor list",
        fs_pipeline, lambda report, sizes: (
            {"classes": len(report.floors)},
            [f"{len(report.floors)} classes, floors of sizes {sizes}"]))


def _cmd_h(doc: Document, flags: RunFlags) -> tuple[int, dict, list[str]]:
    return _run_pipelines(
        doc, flags, doc.set_systems, "system", "set system",
        h_pipeline, lambda report, sizes: (
            {"chain": {"permutation": list(report.chain.permutation),
                       "representatives": list(report.chain.representatives)}},
            [f"floors of sizes {sizes}", "  chain representatives: "
             + ", ".join(report.chain.representatives)]))


_HANDLERS = {
    "validate": _cmd_validate,
    "leech": _cmd_leech,
    "square": _cmd_square,
    "total": _cmd_total,
    "fs": _cmd_fs,
    "h": _cmd_h,
}


def run_command(command: str, doc: Document,
                flags: RunFlags = RunFlags()) -> tuple[int, str]:
    """Execute one subcommand; returns (exit code, rendered report)."""
    handler = _HANDLERS.get(command)
    if handler is None:
        return 2, f"unknown command {command!r}"
    try:
        code, payload, lines = handler(doc, flags)
    except _InputError as exc:
        code, payload, lines = 2, {"error": str(exc)}, [str(exc)]
    if flags.fmt == "json":
        body = {"command": command, "convention": CONVENTION,
                "exit_code": code, **payload}
        return code, json.dumps(body, indent=2, sort_keys=True)
    return code, "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moncoh",
        description="Exact cohomology of finite monoids, lattice-path "
                    "grids and total complexes, driven by JSON documents.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    helps = {
        "validate": "run every law, relation, path and coverage check",
        "leech": "cohomology table for each monoid and coefficient system",
        "square": "path cohomology and local-exactness report per grid",
        "total": "double-complex check and total cohomology per grid",
        "fs": "structure-descriptor pipeline per descriptor list",
        "h": "set-system pipeline per set system",
    }
    for name in COMMANDS:
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--input", required=True, metavar="FILE",
                        help="JSON document to read")
        sp.add_argument("--pmax", type=int, default=None, metavar="N",
                        help="degree bound (default: document setting or 4)")
        sp.add_argument("--format", choices=("text", "json"), default="text",
                        dest="fmt", help="report format")
        sp.add_argument("--grid", default=None, metavar="NAME",
                        help="restrict square/total to one named grid")
        sp.add_argument("--monoid", default=None, metavar="NAME",
                        help="restrict leech to one named monoid")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.pmax is not None and args.pmax < 0:
        print("--pmax must be nonnegative", file=sys.stderr)
        return 2
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    try:
        doc = parse_document(text)
    except DocumentError as exc:
        if args.fmt == "json":
            _emit(json.dumps({
                "command": args.command,
                "exit_code": 2,
                "error": "document rejected",
                "diagnostics": [{"path": d.path, "message": d.message}
                                for d in exc.diagnostics],
            }, indent=2, sort_keys=True))
        else:
            _emit("\n".join(["document rejected:"]
                            + [f"  {d}" for d in exc.diagnostics]))
        return 2
    flags = RunFlags(args.pmax, args.fmt, args.grid, args.monoid)
    code, report = run_command(args.command, doc, flags)
    _emit(report)
    return code


def _emit(report: str) -> None:
    """Print the report; a reader that closed stdout early is not an error.

    The interpreter flushes stdout once more at exit, so after a broken
    pipe the stdout descriptor is pointed at the null device, where that
    flush succeeds.
    """
    try:
        print(report)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
