#!/usr/bin/env python3
"""Write a demo JSON document exercising every CLI subcommand.

The document defines two cyclic groups and a two-element semilattice,
constant and sign-action coefficient systems, a two-floor grid with a
descent path, the seven-point set system and a two-descriptor list.
With ``--failing`` it writes FAILING_DOCUMENT instead, on which
``moncoh total`` exits 1: besides the passing grid, one grid has a square
that no total degree reaches that does not commute, and one has vertical
maps that do not square to zero down a column.
"""

import argparse
import copy
import json

DOCUMENT = {
    "monoids": [
        {"name": "C2", "elements": ["e", "g"], "identity": "e",
         "table": [["e", "g"], ["g", "e"]]},
        {"name": "C3", "elements": ["e", "a", "b"], "identity": "e",
         "table": [["e", "a", "b"], ["a", "b", "e"], ["b", "e", "a"]]},
        {"name": "S", "elements": ["{}", "{x}"], "identity": "{}",
         "table": [["{}", "{x}"], ["{x}", "{x}"]]},
    ],
    "coefficients": [
        {"name": "c2Z", "monoid": "C2", "kind": "constant", "group": "Z"},
        {"name": "c3Z", "monoid": "C3", "kind": "constant", "group": "Z"},
        {"name": "sign", "monoid": "C2", "kind": "action", "group": "Z",
         "action": {"e": [[1]], "g": [[-1]]}},
    ],
    "grids": [
        {"name": "pair",
         "floors": [{"monoid": "C2", "coeff": "c2Z"},
                    {"monoid": "C3", "coeff": "c3Z"}],
         "vertical": "zero",
         "path": {"moves": "D"},
         "pmax": 3},
    ],
    "set_systems": [
        {"name": "seven",
         "points": ["a", "b", "c", "d", "e", "f", "g"],
         "sets": [{"name": "U0", "members": ["a", "d", "e", "g"]},
                  {"name": "U1", "members": ["b", "d", "f", "g"]},
                  {"name": "U2", "members": ["c", "e", "f", "g"]}]},
    ],
    "descriptor_lists": [
        {"name": "two", "descriptors": [
            {"operations": [{"arity": 2, "properties": ["associative"]}]},
            {"operations": [{"arity": 2}]},
        ]},
    ],
    "defaults": {"p_max": 4, "coefficients": "Z"},
}


FAILING_DOCUMENT = copy.deepcopy(DOCUMENT)
FAILING_DOCUMENT["monoids"].append(
    {"name": "T", "elements": ["e"], "identity": "e", "table": [["e"]]})
FAILING_DOCUMENT["coefficients"] += [
    {"name": "sZ", "monoid": "S", "kind": "constant", "group": "Z"},
    {"name": "tZ", "monoid": "T", "kind": "constant", "group": "Z"},
]
FAILING_DOCUMENT["grids"] += [
    # d^1 is 2 on C2 and 1 on S, so the identity at degree 1 breaks the
    # square at (floor 0, degree 1); with pmax 1 no total degree reads it
    {"name": "late-square",
     "floors": [{"monoid": "C2", "coeff": "c2Z"},
                {"monoid": "S", "coeff": "sZ"}],
     "vertical": {"maps": {"[0,1]": [[1]]}},
     "pmax": 1},
    # two stacked identities at degree 0 compose to the identity
    {"name": "column",
     "floors": [{"monoid": "T", "coeff": "tZ"},
                {"monoid": "C2", "coeff": "c2Z"},
                {"monoid": "S", "coeff": "sZ"}],
     "vertical": {"maps": {"[0,0]": [[1]], "[1,0]": [[1]]}},
     "pmax": 2},
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("target", nargs="?", default="demo.json")
    parser.add_argument("--failing", action="store_true",
                        help="write the document on which total exits 1")
    args = parser.parse_args()
    target = args.target
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(FAILING_DOCUMENT if args.failing else DOCUMENT, fh, indent=2)
        fh.write("\n")
    print(f"wrote {target}")
    print("try:")
    if args.failing:
        print(f"  moncoh total --input {target}  (exits 1)")
        return
    for cmd in ("validate", "leech", "square", "total", "fs", "h"):
        extra = " --pmax 2" if cmd in ("fs", "h") else ""
        print(f"  moncoh {cmd} --input {target}{extra}")


if __name__ == "__main__":
    main()
