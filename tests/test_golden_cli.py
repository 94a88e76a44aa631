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


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def demo_document() -> dict:
    return load_script(SCRIPT).DOCUMENT


@pytest.fixture(scope="module")
def demo_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("demo") / "demo.json"
    path.write_text(json.dumps(demo_document(), indent=2) + "\n",
                    encoding="utf-8")
    return path


def run_cli(capsys, demo_path: Path, command: str, fmt: str) -> tuple[int, str]:
    argv = [command, "--input", str(demo_path), "--format", fmt]
    if command in ("fs", "h"):
        argv += ["--pmax", "2"]
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, hashlib.sha256(captured.out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command, fmt", sorted(GOLDEN))
def test_output_bytes(capsys, demo_path, command, fmt):
    assert run_cli(capsys, demo_path, command, fmt) == GOLDEN[command, fmt]


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
