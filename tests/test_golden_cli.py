"""Golden bytes of every subcommand on the demo document, and of the
Leech tables script.

The document is the one `scripts/make_demo_document.py` writes; `fs` and
`h` run with `--pmax 2`, as the script suggests.  Each case pins the exit
code and the SHA-256 of stdout, so any change to a rendered report, text
or JSON, shows up here.  `scripts/leech_tables.py --pmax 4` is pinned the
same way; its rows include `Z x Z/2` and sign-action coefficients.  So is
`scripts/grid_walkthrough.py --pmax 4`, whose staircase reads path
positions of every tag, horizontal runs, floor identifications and the
total complex.
`total` is pinned as well on the script's failing document, whose
extra grids fail a square beyond the total range and a column; it exits 1.
Every subcommand is pinned on BROKEN_DOCUMENT too, whose every part
fails its check: a coefficient system breaking the translation relations,
a grid failing the column condition, a descriptor list with a repeat and
a set system whose h map misses a subcollection.  All of them exit 1.
BADFLOOR_DOCUMENT adds one grid whose lower floor breaks the translation
relations: its path leaves that floor after degree 0, so `validate` finds
it ok and `square --grid badfloor` exits 0, while `total` fails it with
the coboundary's own error, the one failure that is not a column or
square check.
Re-record a digest only for a deliberate change of output, and say so
where the change is described.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from moncoh.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "make_demo_document.py"
LEECH_TABLES = ROOT / "scripts" / "leech_tables.py"
LEECH_TABLES_PMAX_4 = "f3bb19fdd833c3e629dc81fedd16bfda05e83b2077d9b1c8fd9c7dd04d846ea7"
GRID_WALKTHROUGH = ROOT / "scripts" / "grid_walkthrough.py"
GRID_WALKTHROUGH_PMAX_4 = "737dc34aed5cb2387d46cca43be33584ab30bd2f07f6f96378b5c44383c51306"

GOLDEN = {
    ("validate", "text"): (0, "64027a378cb0fbec707b4dfefe58f720e64bbeb4928a3a7d8dd301b67534cf18"),
    ("validate", "json"): (0, "e301ccf82525a881e5871db957a8b9df1d70a2cebb34958d8b1ad20e72dc0765"),
    ("leech", "text"): (0, "9ea6090bb5a97d55db96a0a9d7bcc48b586db82063e10d2ab486717934c53ea0"),
    ("leech", "json"): (0, "8ef6b4ab842dd9d2d943637f7438122835121124ca5dd44e932f0c50aa668fc4"),
    ("square", "text"): (0, "190daf7a65f160765ccfa7729431e74b503dacc187a6f937f800dff4725f0535"),
    ("square", "json"): (0, "5ab9aba5846d9c801325c354ff31800ceca6ae83cee240c55d510c9b148a529c"),
    ("total", "text"): (0, "8737670196bab2a4c4f0bfa362830ab5d94dd804d2f65ab5955f41bc1db6c911"),
    ("total", "json"): (0, "55056f3cbe82013e321b12759431c5a397b44b94cd2ce68f8a092d6f6f69902e"),
    ("fs", "text"): (0, "c5e1482989390463a83e3122ed0fa5a33ce1a79b42ea3bb89b80f748a670c02b"),
    ("fs", "json"): (0, "fb43bbaa666e6de788ecf455153e3e05e41500b77fc8fb9d22be3f6de1dfdb15"),
    ("h", "text"): (0, "4bf5d3fa057093c28ec6e36f0be53754aa9b3515d1478696cc33a880ee1522bd"),
    ("h", "json"): (0, "ad606ec8c96a12ea81e80f3fe86115049d69a54d827731eb0da3281092192ee7"),
}

FAILING_TOTAL = {
    "text": (1, "11ded2df6462f9d84bd5c4707c58c20ed7b74981a7079f87008378e512d9b105"),
    "json": (1, "f4726872205eaf348a97e726d548685228dc3a971c4c6668a372c74b61d1e7b7"),
}

# C2 = {e, g} with Z at both elements, where left translation by g
# doubles, so translating by g twice is not translating by g * g = e; a
# grid whose two stacked identities at degree 0 compose to the identity;
# a third descriptor repeating the first; and two disjoint singletons,
# whose h map misses the subcollection {U0,U1}.
BROKEN_DOCUMENT = {
    "monoids": [
        {"name": "C2", "elements": ["e", "g"], "identity": "e",
         "table": [["e", "g"], ["g", "e"]]},
        {"name": "S", "elements": ["{}", "{x}"], "identity": "{}",
         "table": [["{}", "{x}"], ["{x}", "{x}"]]},
        {"name": "T", "elements": ["e"], "identity": "e", "table": [["e"]]},
    ],
    "coefficients": [
        {"name": "doubling", "monoid": "C2", "kind": "explicit",
         "groups": ["Z", "Z"],
         "lstar": {"[e,e]": [[1]], "[e,g]": [[1]],
                   "[g,e]": [[2]], "[g,g]": [[2]]},
         "rstar": {"[e,e]": [[1]], "[e,g]": [[1]],
                   "[g,e]": [[1]], "[g,g]": [[1]]}},
        {"name": "c2Z", "monoid": "C2", "kind": "constant", "group": "Z"},
        {"name": "sZ", "monoid": "S", "kind": "constant", "group": "Z"},
        {"name": "tZ", "monoid": "T", "kind": "constant", "group": "Z"},
    ],
    "grids": [
        {"name": "column",
         "floors": [{"monoid": "T", "coeff": "tZ"},
                    {"monoid": "C2", "coeff": "c2Z"},
                    {"monoid": "S", "coeff": "sZ"}],
         "vertical": {"maps": {"[0,0]": [[1]], "[1,0]": [[1]]}},
         "pmax": 2},
    ],
    "set_systems": [
        {"name": "gappy", "points": ["a", "b"],
         "sets": [{"name": "U0", "members": ["a"]},
                  {"name": "U1", "members": ["b"]}]},
    ],
    "descriptor_lists": [
        {"name": "repeat", "descriptors": [
            {"operations": [{"arity": 2}]},
            {"operations": [{"arity": 2, "properties": ["associative"]}]},
            {"operations": [{"arity": 2}]},
        ]},
    ],
    "defaults": {"p_max": 2, "coefficients": "Z"},
}

BROKEN_GOLDEN = {
    ("validate", "text"): (1, "f9aa4a51d2b015829e8cd628cbb8e0c85e4d3ed119f7198dfa46587e62a2e682"),
    ("validate", "json"): (1, "66a63455c6a4cf67bc201c626c047f01aca98e3973b7d1beb33039fdca5b3793"),
    ("leech", "text"): (1, "6ea9907449c9f41a4e45863fd7c7ac299e6893bbee2955c8b78747a1cea0d3a5"),
    ("leech", "json"): (1, "78472a69be251c9b79b82b3f6789ab9df3d243f4e5def376d904b53003842001"),
    ("square", "text"): (1, "3eb7e4c314f381f77a385b7afdb66d285569390b7cc2bc766e0ed4fc72637a92"),
    ("square", "json"): (1, "2ac630d10bb98962192033c29195f41132e7766be617537c21483070e3d493e6"),
    ("total", "text"): (1, "f493f85b9507db0bcfe29af5bf81fe3edfb99423b8608887fdbdfe179c7c3c7a"),
    ("total", "json"): (1, "db15b6b005d38964ab6641457e9b91fdaac5e7a90068f3e04665d8513ced4d2e"),
    ("fs", "text"): (1, "e206137977338f520c5333e8a7a31e23e4070275380fcbd6ee4179ad9d924d28"),
    ("fs", "json"): (1, "5c4aa73369d8e6494b1d779c7969e80b1eab433f34f9805d58d368c43513a1a5"),
    ("h", "text"): (1, "45e2b3a07be991ff746ea39be425c78164d6931640fdc33d75f73fe9fa067aa9"),
    ("h", "json"): (1, "44e6808ef30dbafd654adee9c90921121b12e66aefc5e44633aaf61e68f384db"),
}

# BROKEN_DOCUMENT plus a grid over the broken `doubling` floor; the D path
# leaves it after degree 0, so only the total complex sees the breakage.
BADFLOOR_DOCUMENT = {
    **BROKEN_DOCUMENT,
    "grids": BROKEN_DOCUMENT["grids"] + [
        {"name": "badfloor",
         "floors": [{"monoid": "C2", "coeff": "doubling"},
                    {"monoid": "S", "coeff": "sZ"}],
         "pmax": 2},
    ],
}

BADFLOOR_GOLDEN = {
    ("validate", "text"): (1, "6feb02162f5fd28048e2ada81a53c5ca21fb28d6b891d1d382183e246133b9b8"),
    ("validate", "json"): (1, "2081364447d338acc05f3b4a25cde3f2d7f36b3f8625f5abe199f46c4c3a87ee"),
    ("leech", "text"): (1, "6ea9907449c9f41a4e45863fd7c7ac299e6893bbee2955c8b78747a1cea0d3a5"),
    ("leech", "json"): (1, "78472a69be251c9b79b82b3f6789ab9df3d243f4e5def376d904b53003842001"),
    ("square", "text"): (1, "75bedd6827bb8f4bfbf3909f8cb4b81a6624f907025a5de14c9d0275e6307591"),
    ("square", "json"): (1, "d813e35f350e9c1d4cda965b878d7be18896722498372cc1db8b390541d98694"),
    ("total", "text"): (1, "56e1a2c8cce86705ad6725edc2a9916c8988edfb70428909977d4ba564c7da8b"),
    ("total", "json"): (1, "17eaf144861ae17b82961a9513d904f84412d274048ca0fe7bb9ba5cd4e434a2"),
    ("fs", "text"): (1, "e206137977338f520c5333e8a7a31e23e4070275380fcbd6ee4179ad9d924d28"),
    ("fs", "json"): (1, "5c4aa73369d8e6494b1d779c7969e80b1eab433f34f9805d58d368c43513a1a5"),
    ("h", "text"): (1, "45e2b3a07be991ff746ea39be425c78164d6931640fdc33d75f73fe9fa067aa9"),
    ("h", "json"): (1, "44e6808ef30dbafd654adee9c90921121b12e66aefc5e44633aaf61e68f384db"),
}

# the same document with `--grid badfloor`
BADFLOOR_ONE_GRID = {
    ("square", "text"): (0, "4acc6668979e1e81d1b70e85530a6adc597eeee7167f2587de59248e955a9d16"),
    ("square", "json"): (0, "5f7f905e3a2c80af6bccf13d752170c0d08c58bbedf5f2287c22d5172d6fc458"),
    ("total", "text"): (1, "a1e37da3d030de2a99f1d7c7ca7e783b3f7a9d08ab068d322b916663ee8b5d00"),
    ("total", "json"): (1, "0a0034857ae05067a264fbec98b94690b848e4d9f26901a5210549b857dfff7c"),
}


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def demo_document() -> dict:
    return load_script(SCRIPT).DOCUMENT


def write_document(tmp_path_factory, document: dict) -> Path:
    path = tmp_path_factory.mktemp("demo") / "demo.json"
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def demo_path(tmp_path_factory) -> Path:
    return write_document(tmp_path_factory, demo_document())


@pytest.fixture(scope="module")
def failing_path(tmp_path_factory) -> Path:
    return write_document(tmp_path_factory,
                          load_script(SCRIPT).FAILING_DOCUMENT)


@pytest.fixture(scope="module")
def broken_path(tmp_path_factory) -> Path:
    return write_document(tmp_path_factory, BROKEN_DOCUMENT)


@pytest.fixture(scope="module")
def badfloor_path(tmp_path_factory) -> Path:
    return write_document(tmp_path_factory, BADFLOOR_DOCUMENT)


def run_cli(capsys, demo_path: Path, command: str, fmt: str,
            *extra: str) -> tuple[int, str]:
    argv = [command, "--input", str(demo_path), "--format", fmt, *extra]
    if command in ("fs", "h"):
        argv += ["--pmax", "2"]
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, hashlib.sha256(captured.out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command, fmt", sorted(GOLDEN))
def test_output_bytes(capsys, demo_path, command, fmt):
    assert run_cli(capsys, demo_path, command, fmt) == GOLDEN[command, fmt]


@pytest.mark.parametrize("fmt", sorted(FAILING_TOTAL))
def test_failing_total_output_bytes(capsys, failing_path, fmt):
    assert run_cli(capsys, failing_path, "total", fmt) == FAILING_TOTAL[fmt]


@pytest.mark.parametrize("command, fmt", sorted(BROKEN_GOLDEN))
def test_broken_document_output_bytes(capsys, broken_path, command, fmt):
    assert run_cli(capsys, broken_path, command, fmt) == \
        BROKEN_GOLDEN[command, fmt]


@pytest.mark.parametrize("command, fmt", sorted(BADFLOOR_GOLDEN))
def test_badfloor_document_output_bytes(capsys, badfloor_path, command, fmt):
    assert run_cli(capsys, badfloor_path, command, fmt) == \
        BADFLOOR_GOLDEN[command, fmt]


@pytest.mark.parametrize("command, fmt", sorted(BADFLOOR_ONE_GRID))
def test_badfloor_grid_output_bytes(capsys, badfloor_path, command, fmt):
    assert run_cli(capsys, badfloor_path, command, fmt,
                   "--grid", "badfloor") == BADFLOOR_ONE_GRID[command, fmt]


def test_module_entry_point_matches_main(capsys, demo_path):
    argv = ["validate", "--input", str(demo_path)]
    code = main(argv)
    expected = capsys.readouterr().out
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-m", "moncoh", *argv],
                          capture_output=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == \
        (code, expected.encode("utf-8"), b"")


def script_digest(capsys, monkeypatch, path: Path) -> str:
    script = load_script(path)
    monkeypatch.setattr(sys, "argv", [str(path), "--pmax", "4"])
    script.main()
    captured = capsys.readouterr()
    assert captured.err == ""
    return hashlib.sha256(captured.out.encode("utf-8")).hexdigest()


def test_leech_tables_script_output(capsys, monkeypatch):
    assert script_digest(capsys, monkeypatch, LEECH_TABLES) == \
        LEECH_TABLES_PMAX_4


def test_grid_walkthrough_script_output(capsys, monkeypatch):
    assert script_digest(capsys, monkeypatch, GRID_WALKTHROUGH) == \
        GRID_WALKTHROUGH_PMAX_4
