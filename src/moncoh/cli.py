"""Command-line surface: runs one subcommand against a JSON document and
prints a deterministic text or JSON report.

Exit codes: 0 success, 1 a validation or consistency check failed, 2 the
input could not be used (unreadable file, rejected document, unknown
name, out of memory).  JSON reports carry a "convention" block naming the
indexing and sign choices so tables can be compared across tools.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .abelian import FgAbGroup
from .coeff import CoeffSystem, constant_system, validate_relations
from .document import (
    Document,
    DocumentError,
    GridBundle,
    parse_document,
)
from .grid import (
    ColumnConditionError,
    local_exactness_report,
    square_cohomology,
    validate_mixed_compositions,
)
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


def _fields(record) -> dict:
    """A report record's fields under their own names, groups rendered."""
    return {key: value.render() if isinstance(value, FgAbGroup) else value
            for key, value in vars(record).items()}


def _square_payload(square, exact) -> dict:
    return {
        "moves": square.cochain.path.prefix_moves,
        "positions": [_fields(e) for e in square.entries],
        "local_exactness": {
            "runs": [_fields(r) for r in exact.runs],
            "identifications": [_fields(i) for i in exact.identifications],
            "extremal": exact.extremal_positions,
            "all_identified": exact.all_identified,
        },
    }


def _square_lines(payload: dict) -> list[str]:
    lines = []
    for e in payload["positions"]:
        lines.append(
            f"  position {e['index']}: (floor {e['floor']}, degree "
            f"{e['degree']}) tag {e['tag']} H = {e['group']}")
    ex = payload["local_exactness"]
    for r in ex["runs"]:
        suffix = " tail" if r["tail"] else (" short" if r["short"] else "")
        lines.append(
            f"  run: floor {r['floor']} degrees "
            f"{r['start_degree']}..{r['end_degree']}{suffix}")
    spots = ", ".join(f"({f}, {d})" for f, d in ex["extremal"])
    lines.append(f"  extremal positions: {spots or 'none'}")
    for i in ex["identifications"]:
        lines.append(
            f"  identification: (floor {i['floor']}, degree "
            f"{i['degree']}) path {i['path_group']} floor "
            f"{i['floor_group']} match")
    lines.append("  floor identifications: all match")
    return lines


def _grid_problems(bundle: GridBundle, p_max: int) -> list[str]:
    problems = [str(ColumnConditionError([v]))
                for v in bundle.family.column_violations()]
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


def _failure(exc: Exception) -> dict:
    """The JSON fields of an item whose run raised exc."""
    if isinstance(exc, NotADoubleComplex):
        return {"commutes": False, "error": str(exc)}
    if isinstance(exc, NotSurjective):
        return {"error": str(exc), "missing": exc.missing}
    return {"error": str(exc)}


def _each(items, run, header: list[str], key: str = "results",
          **extra) -> tuple[int, dict, list[str]]:
    """Report each (label, JSON fields, item) under the header lines and
    the key.  run(*item) returns the item's exit code, JSON fields and
    text lines, the first one following "{label}:".  A ValueError or
    AssertionError fails that item alone, with exit code 1."""
    code = 0
    results = []
    lines = list(header)
    for label, fields, item in items:
        try:
            item_code, payload, text = run(*item)
        except (ValueError, AssertionError) as exc:
            item_code, payload = 1, _failure(exc)
            text = [f"FAIL {payload['error']}"]
        code = max(code, item_code)
        results.append({**fields, **payload})
        lines.append(f"{label}: {text[0]}" if text[0] else f"{label}:")
        lines.extend(text[1:])
    return code, {key: results, **extra}, lines


def _cmd_validate(doc: Document, flags: RunFlags) -> tuple[int, dict, list[str]]:
    """run every law, relation, path and coverage check"""
    checks = []
    for name, m in doc.monoids:
        checks.append(("monoid", name, validate_monoid(m), []))
    for name, c in doc.coefficients:
        problems = [str(v) for v in validate_relations(c)]
        checks.append(("coefficient system", name, problems, []))
    for name, bundle in doc.grids:
        p_max = _effective_pmax(flags, doc, bundle)
        checks.append(("grid", name, _grid_problems(bundle, p_max), []))
    for name, system in doc.set_systems:
        report = check_h_surjective(system)
        problems = ([] if report.ok else
                    ["h map misses subcollections: "
                     + ", ".join(report.missing_names)])
        checks.append(("set system", name, problems, []))
    for name, ds in doc.descriptor_lists:
        classes = distinct_classes(ds)
        notes = [f"{len(classes)} distinct classes from {len(ds)} descriptors"]
        notes += [f"descriptor {i} repeats an earlier class; "
                  f"the fs command rejects this list"
                  for i, d in enumerate(ds) if ds.index(d) < i]
        checks.append(("descriptor list", name, [], notes))

    def run(problems, notes):
        text = ["FAIL" if problems else "ok"]
        text += [f"  problem: {p}" for p in problems]
        text += [f"  note: {note}" for note in notes]
        return (1 if problems else 0), {
            "ok": not problems, "problems": problems, "notes": notes}, text

    code, payload, lines = _each(
        [(f"{sec} {name}", {"section": sec, "name": name}, rest)
         for sec, name, *rest in checks], run, [])
    failed = sum(not r["ok"] for r in payload["results"])
    payload["ok"] = failed == 0
    lines.append(f"validate: {failed} of {len(checks)} checks failed" if failed
                 else f"validate: all {len(checks)} checks passed")
    return code, payload, lines


def _leech_targets(doc: Document, flags: RunFlags
                   ) -> list[tuple[str, dict, tuple[FinMonoid, CoeffSystem]]]:
    """Each coefficient system, then a default on each monoid without one."""
    if flags.monoid is not None and doc.monoid(flags.monoid) is None:
        raise _InputError(f"unknown monoid {flags.monoid!r}")
    pairs = [(doc.monoid_name(c.monoid), cname, c)
             for cname, c in doc.coefficients]
    covered = {mname for mname, _, _ in pairs}
    group = doc.defaults.coeff_group
    pairs += [(mname, f"constant {group.render()} (default)",
               constant_system(m, group)) for mname, m in doc.monoids
              if mname not in covered and flags.monoid in (None, mname)]
    targets = [(f"monoid {mname}, coefficients {cname}",
                {"monoid": mname, "coefficients": cname}, (c.monoid, c))
               for mname, cname, c in pairs if flags.monoid in (None, mname)]
    if not targets:
        raise _InputError("document defines no monoids")
    return targets


def _cmd_leech(doc: Document, flags: RunFlags) -> tuple[int, dict, list[str]]:
    """cohomology table for each monoid and coefficient system"""
    targets = _leech_targets(doc, flags)
    p_max = _effective_pmax(flags, doc)

    def run(m, c):
        groups = [g.render() for g in leech_cohomology_table(m, c, p_max)]
        return 0, {"groups": groups}, [
            "", *(f"  H^{n} = {g}" for n, g in enumerate(groups))]

    return _each(targets, run, [f"leech cohomology, degrees 0..{p_max}",
                                f"convention: {INDEXING_CONVENTION}"],
                 "tables", pmax=p_max)


def _selected_grids(doc: Document, flags: RunFlags
                    ) -> list[tuple[str, dict, tuple[GridBundle, int]]]:
    """The (grid, pmax) items of square and total."""
    if flags.grid is not None and doc.grid(flags.grid) is None:
        raise _InputError(f"unknown grid {flags.grid!r}")
    if not doc.grids:
        raise _InputError("document defines no grids")
    items = []
    for name, bundle in doc.grids:
        if flags.grid in (None, name):
            p_max = _effective_pmax(flags, doc, bundle)
            items.append((f"grid {name}", {"grid": name, "pmax": p_max},
                          (bundle, p_max)))
    return items


def _cmd_square(doc: Document, flags: RunFlags) -> tuple[int, dict, list[str]]:
    """path cohomology and local-exactness report per grid"""
    def run(bundle, p_max):
        walk = (bundle.grid, bundle.family, bundle.path, p_max)
        square = square_cohomology(*walk)
        exact = local_exactness_report(*walk, square_report=square)
        payload = _square_payload(square, exact)
        return 0, payload, [
            f"moves {payload['moves']!r}, p_max {p_max}",
            *_square_lines(payload)]

    return _each(_selected_grids(doc, flags), run,
                 [f"convention: {INDEXING_CONVENTION}"])


def _cmd_total(doc: Document, flags: RunFlags) -> tuple[int, dict, list[str]]:
    """double-complex check and total cohomology per grid"""
    def run(bundle, p_max):
        cx = TotalComplex(bundle.grid, bundle.family, p_max)
        groups = [cx.cohomology(n).render() for n in range(p_max + 1)]
        return 0, {"commutes": True, "total": groups}, [
            f"double complex ok, degrees 0..{p_max}",
            *(f"  Tot^{n} = {g}" for n, g in enumerate(groups))]

    return _each(_selected_grids(doc, flags), run,
                 [f"convention: {INDEXING_CONVENTION}",
                  f"sign: {SIGN_CONVENTION}"])


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

    def run(item):
        report = pipeline(item, coeff_group=group, p_max=p_max)
        payload = _square_payload(report.square, report.exactness)
        sizes = ", ".join(str(m.size) for m in report.floors)
        fields, header = describe(report, sizes)
        return 0, {
            **fields,
            "floor_sizes": [m.size for m in report.floors],
            "pmax": p_max,
            "notes": report.notes,
            **payload,
        }, [*header, f"  moves {payload['moves']!r}, p_max {p_max}",
            *_square_lines(payload), *(f"  note: {n}" for n in report.notes)]

    return _each(
        [(f"{section} {name}", {key: name}, (item,)) for name, item in items],
        run, [f"convention: {INDEXING_CONVENTION}"])


def _cmd_fs(doc: Document, flags: RunFlags) -> tuple[int, dict, list[str]]:
    """structure-descriptor pipeline per descriptor list"""
    return _run_pipelines(
        doc, flags, doc.descriptor_lists, "list", "descriptor list",
        fs_pipeline, lambda report, sizes: (
            {"classes": len(report.floors)},
            [f"{len(report.floors)} classes, floors of sizes {sizes}"]))


def _cmd_h(doc: Document, flags: RunFlags) -> tuple[int, dict, list[str]]:
    """set-system pipeline per set system"""
    return _run_pipelines(
        doc, flags, doc.set_systems, "system", "set system",
        h_pipeline, lambda report, sizes: (
            {"chain": _fields(report.chain)},
            [f"floors of sizes {sizes}", "  chain representatives: "
             + ", ".join(report.chain.representatives)]))


# the subcommands, in --help order; each one's help is its docstring
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
    for name, handler in _HANDLERS.items():
        sp = sub.add_parser(name, help=handler.__doc__)
        sp.add_argument("--input", required=True, metavar="FILE",
                        help="JSON document to read")
        sp.add_argument("--pmax", type=int, default=None, metavar="N",
                        help="degree bound (default: document setting or 4)")
        sp.add_argument("--format", choices=("text", "json"), default="text",
                        dest="fmt", help="report format")
        if name in ("square", "total"):
            sp.add_argument("--grid", default=None, metavar="NAME",
                            help="restrict square/total to one named grid")
        if name == "leech":
            sp.add_argument("--monoid", default=None, metavar="NAME",
                            help="restrict leech to one named monoid")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.pmax is not None and args.pmax < 0:
        return _unusable(args, "--pmax must be nonnegative")
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _unusable(args, f"cannot read {args.input}: {exc}")
    flags = RunFlags(args.pmax, args.fmt, getattr(args, "grid", None),
                     getattr(args, "monoid", None))
    try:
        code, report = run_command(args.command, parse_document(text), flags)
    except DocumentError as exc:
        if args.fmt == "json":
            _emit(_refusal(args, "document rejected", diagnostics=[
                {"path": d.path, "message": d.message}
                for d in exc.diagnostics]))
        else:
            _emit("\n".join(["document rejected:"]
                            + [f"  {d}" for d in exc.diagnostics]))
        return 2
    except MemoryError:
        return _unusable(args, "out of memory; try a smaller --pmax")
    _emit(report)
    return code


def _refusal(args: argparse.Namespace, error: str, **extra) -> str:
    """The JSON body of a run that exits 2 before any command runs."""
    return json.dumps({"command": args.command, "exit_code": 2,
                       "error": error, **extra}, indent=2, sort_keys=True)


def _unusable(args: argparse.Namespace, error: str) -> int:
    """Exit 2 for a flag or input file that cannot be used: the error goes
    to stderr in text, and into a JSON body on stdout in JSON."""
    if args.fmt == "json":
        _emit(_refusal(args, error))
    else:
        print(error, file=sys.stderr)
    return 2


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
