import io
import json
import os
import sys

import pytest

from moncoh import cli
from moncoh.cli import CONVENTION, RunFlags, main, run_command
from moncoh.document import parse_document

from test_document import DIGIT_LIMIT, sample_root, sample_text


def run(command: str, root: dict, **kwargs) -> tuple[int, str]:
    doc = parse_document(json.dumps(root))
    return run_command(command, doc, RunFlags(**kwargs))


def run_json(command: str, root: dict, **kwargs) -> tuple[int, dict]:
    code, text = run(command, root, fmt="json", **kwargs)
    return code, json.loads(text)


class TestValidate:
    def test_clean_document_passes(self):
        code, text = run("validate", sample_root())
        assert code == 0
        assert "validate: all 9 checks passed" in text

    def test_broken_table_fails_with_witness(self):
        root = {"monoids": [{
            "name": "M", "elements": ["e", "a", "b"], "identity": "e",
            "table": [["e", "a", "b"], ["a", "a", "e"], ["b", "b", "b"]]}]}
        code, text = run("validate", root)
        assert code == 1
        assert "associativity broken at (a,b,a)" in text

    def test_bad_declared_path_fails(self):
        root = sample_root()
        root["grids"][0]["path"] = {"moves": "DD"}
        code, text = run("validate", root)
        assert code == 1
        assert "grid pair: FAIL" in text

    def test_nonzero_composition_reported(self):
        root = composition_violation_root()
        code, text = run("validate", root)
        assert code == 1
        assert "compose to a nonzero homomorphism" in text

    def test_non_surjective_system_reported(self):
        root = {"set_systems": [{
            "name": "disjoint", "points": ["p", "q"],
            "sets": [{"name": "U0", "members": ["p"]},
                     {"name": "U1", "members": ["q"]}]}]}
        code, text = run("validate", root)
        assert code == 1
        assert "misses subcollections: {U0,U1}" in text

    def test_duplicate_descriptors_noted_not_failed(self):
        root = {"descriptor_lists": [{"name": "dup", "descriptors": [
            {"operations": [{"arity": 2}]},
            {"operations": [{"arity": 2}]}]}]}
        code, text = run("validate", root)
        assert code == 0
        assert "descriptor 1 repeats an earlier class" in text

    def test_json_shape(self):
        code, body = run_json("validate", sample_root())
        assert code == 0 and body["ok"] is True
        assert body["command"] == "validate"
        assert {r["section"] for r in body["results"]} == {
            "monoid", "coefficient system", "grid", "set system",
            "descriptor list"}


class TestLeech:
    def test_frozen_table_for_c2(self):
        code, body = run_json("leech", sample_root(), monoid="C2")
        assert code == 0
        by_label = {t["coefficients"]: t["groups"] for t in body["tables"]}
        assert by_label["c2Z"] == ["Z", "0", "Z/2", "0", "Z/2"]
        assert by_label["sign"] == ["0", "Z/2", "0", "Z/2", "0"]

    def test_frozen_table_for_c3(self):
        code, body = run_json("leech", sample_root(), monoid="C3")
        assert code == 0
        assert body["tables"] == [{"monoid": "C3", "coefficients": "c3Z",
                                   "groups": ["Z", "0", "Z/3", "0", "Z/3"]}]

    def test_uncovered_monoid_gets_default_constant(self):
        code, body = run_json("leech", sample_root(), monoid="S", p_max=2)
        assert code == 0
        assert body["tables"] == [{
            "monoid": "S", "coefficients": "constant Z (default)",
            "groups": ["Z", "0", "0"]}]

    def test_unknown_monoid_is_input_error(self):
        code, text = run("leech", sample_root(), monoid="nope")
        assert code == 2
        assert "unknown monoid" in text

    def test_no_monoids_is_input_error(self):
        code, _ = run("leech", {})
        assert code == 2

    def test_convention_field_present(self):
        _, body = run_json("leech", sample_root(), monoid="C3")
        assert "ker(d^n)" in body["convention"]["indexing"]
        assert "vertical" in body["convention"]["total_sign"]


def composition_violation_root() -> dict:
    return {
        "monoids": [
            {"name": "C3", "elements": ["e", "a", "b"], "identity": "e",
             "table": [["e", "a", "b"], ["a", "b", "e"], ["b", "e", "a"]]},
            {"name": "S", "elements": ["{}", "{x}"], "identity": "{}",
             "table": [["{}", "{x}"], ["{x}", "{x}"]]},
        ],
        "coefficients": [
            {"name": "cm", "monoid": "C3", "kind": "constant", "group": "Z/2"},
            {"name": "sm", "monoid": "S", "kind": "constant", "group": "Z/2"},
        ],
        "grids": [{
            "name": "bad",
            "floors": [{"monoid": "C3", "coeff": "cm"},
                       {"monoid": "S", "coeff": "sm"}],
            "vertical": {"maps": {"[0,1]": [[1, 0]]}},
            "path": {"moves": "RD"},
            "pmax": 3,
        }],
    }


class TestSquare:
    def test_sample_grid_positions(self):
        code, body = run_json("square", sample_root(), grid="pair")
        assert code == 0
        result = body["results"][0]
        assert result["moves"] == "D"
        groups = [p["group"] for p in result["positions"]]
        tags = [p["tag"] for p in result["positions"]]
        assert groups == ["Z", "Z", "0", "Z/3", "0"]
        assert tags == ["full_cochain_group", "kernel_group",
                        "floor_leech", "floor_leech", "floor_leech"]
        assert result["local_exactness"]["all_identified"] is True

    def test_text_report_mentions_positions(self):
        code, text = run("square", sample_root())
        assert code == 0
        assert "position 0: (floor 0, degree 0) tag full_cochain_group" in text
        assert "floor identifications: all match" in text

    def test_unknown_grid_is_input_error(self):
        code, text = run("square", sample_root(), grid="nope")
        assert code == 2 and "unknown grid" in text

    def test_no_grids_is_input_error(self):
        code, _ = run("square", {})
        assert code == 2

    def test_composition_violation_fails(self):
        code, text = run("square", composition_violation_root())
        assert code == 1
        assert "grid bad: FAIL" in text


class TestTotal:
    def test_zero_family_shifted_sum(self):
        code, body = run_json("total", sample_root(), grid="pair")
        assert code == 0
        assert body["results"][0]["total"] == ["Z", "Z", "Z/2", "Z/3"]
        assert body["results"][0]["commutes"] is True

    def test_non_commuting_square_fails(self):
        root = sample_root()
        root["grids"].append({
            "name": "skew",
            "floors": [{"monoid": "C2", "coeff": "c2Z"},
                       {"monoid": "S", "coeff": "sZ"}],
            "vertical": {"maps": {"[0,1]": [[1]]}},
            "path": {"moves": "D"},
            "pmax": 2,
        })
        root["coefficients"].append(
            {"name": "sZ", "monoid": "S", "kind": "constant", "group": "Z"})
        code, text = run("total", root, grid="skew")
        assert code == 1
        assert "square at (floor 0, degree 1) does not commute" in text

    def test_column_condition_fails(self):
        root = sample_root()
        root["coefficients"].append(
            {"name": "sZ", "monoid": "S", "kind": "constant", "group": "Z"})
        root["grids"].append({
            "name": "column",
            "floors": [{"monoid": "C2", "coeff": "c2Z"},
                       {"monoid": "S", "coeff": "sZ"},
                       {"monoid": "C3", "coeff": "c3Z"}],
            "vertical": {"maps": {"[0,0]": [[1]], "[1,0]": [[1]]}},
            "pmax": 1,
        })
        code, text = run("total", root, grid="column")
        assert code == 1
        assert text.endswith("grid column: FAIL vertical maps do not square "
                             "to zero at (floor 0, degree 0)")
        code, body = run_json("total", root, grid="column")
        assert body["results"] == [{
            "grid": "column", "pmax": 1, "commutes": False,
            "error": "vertical maps do not square to zero at "
                     "(floor 0, degree 0)"}]

    def test_sign_named_in_report(self):
        _, text = run("total", sample_root(), grid="pair")
        assert "sign: total differential" in text


class TestFs:
    def test_sample_descriptor_list(self):
        code, body = run_json("fs", sample_root(), p_max=2)
        assert code == 0
        result = body["results"][0]
        assert result["classes"] == 2
        assert result["floor_sizes"] == [2, 4]
        assert result["moves"] == "DR"
        tags = [p["tag"] for p in result["positions"]]
        assert tags[0] == "full_cochain_group"

    def test_duplicate_class_fails(self):
        root = {"descriptor_lists": [{"name": "dup", "descriptors": [
            {"operations": [{"arity": 2}]},
            {"operations": [{"arity": 2}]}]}]}
        code, text = run("fs", root)
        assert code == 1
        assert "descriptor list dup: FAIL" in text

    def test_no_lists_is_input_error(self):
        code, _ = run("fs", {})
        assert code == 2


class TestH:
    def test_seven_point_system(self):
        code, body = run_json("h", sample_root(), p_max=1)
        assert code == 0
        result = body["results"][0]
        assert result["floor_sizes"] == [2, 4, 8]
        assert result["chain"]["representatives"] == ["a", "d", "g"]
        assert result["moves"] == "DRDR"

    def test_disjoint_system_fails_naming_missing(self):
        root = {"set_systems": [{
            "name": "disjoint", "points": ["p", "q"],
            "sets": [{"name": "U0", "members": ["p"]},
                     {"name": "U1", "members": ["q"]}]}]}
        code, body = run_json("h", root)
        assert code == 1
        assert body["results"][0]["missing"] == ["{U0,U1}"]

    def test_no_systems_is_input_error(self):
        code, _ = run("h", {})
        assert code == 2


class TestInputErrors:
    """A document without the section a command reads, or a --grid or
    --monoid naming nothing, exits 2 with one message and nothing else."""

    CASES = [
        (["leech"], {}, "document defines no monoids"),
        (["square"], {}, "document defines no grids"),
        (["total"], {}, "document defines no grids"),
        (["fs"], {}, "document defines no descriptor lists"),
        (["h"], {}, "document defines no set systems"),
        (["leech", "--monoid", "nope"], sample_root(),
         "unknown monoid 'nope'"),
        (["square", "--grid", "nope"], sample_root(), "unknown grid 'nope'"),
        (["total", "--grid", "nope"], sample_root(), "unknown grid 'nope'"),
    ]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv, root, message", CASES,
                             ids=[" ".join(c[0]) for c in CASES])
    def test_exact_output(self, tmp_path, capsys, argv, root, message, fmt):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(root), encoding="utf-8")
        code = main([argv[0], "--input", str(path), "--format", fmt,
                     *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        if fmt == "text":
            assert captured.out == message + "\n"
        else:
            assert json.loads(captured.out) == {
                "command": argv[0], "convention": CONVENTION,
                "exit_code": 2, "error": message}


class TestFlagScope:
    """--grid is read only by square and total, --monoid only by leech;
    every other subcommand rejects them as argparse usage errors."""

    @pytest.mark.parametrize("command, flag", [
        ("validate", "--grid"), ("validate", "--monoid"),
        ("leech", "--grid"), ("square", "--monoid"), ("total", "--monoid"),
        ("fs", "--grid"), ("fs", "--monoid"),
        ("h", "--grid"), ("h", "--monoid")])
    def test_unread_flag_is_rejected(self, tmp_path, capsys, command, flag):
        path = tmp_path / "doc.json"
        path.write_text(sample_text(), encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--input", str(path), flag, "nope"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} nope" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, flags", [
        ("validate", []), ("leech", ["--monoid"]), ("square", ["--grid"]),
        ("total", ["--grid"]), ("fs", []), ("h", [])])
    def test_help_lists_only_read_flags(self, capsys, command, flags):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert [f for f in ("--grid", "--monoid") if f in out] == flags

    def test_top_level_help_reads_handler_docstrings(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for handler in cli._HANDLERS.values():
            assert handler.__doc__ in out


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_repeated_runs_byte_identical(self, fmt):
        first = run("square", sample_root(), fmt=fmt)
        second = run("square", sample_root(), fmt=fmt)
        assert first == second

    def test_unknown_command(self):
        code, _ = run("bogus", {})
        assert code == 2


class TestMain:
    def test_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(sample_text(), encoding="utf-8")
        code = main(["leech", "--input", str(path), "--monoid", "C3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "H^2 = Z/3" in out

    def test_json_flag(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(sample_text(), encoding="utf-8")
        code = main(["total", "--input", str(path), "--format", "json",
                     "--grid", "pair"])
        body = json.loads(capsys.readouterr().out)
        assert code == 0
        assert body["results"][0]["total"] == ["Z", "Z", "Z/2", "Z/3"]

    def test_missing_file(self, tmp_path, capsys):
        code = main(["validate", "--input", str(tmp_path / "none.json")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_bytes(b"\xff\xfe{}")
        code = main(["validate", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"cannot read {path}: ")
        assert "codec can't decode" in captured.err

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,
        pytest.param('{"defaults": {"p_max": 1' + "0" * DIGIT_LIMIT + "}}",
                     marks=pytest.mark.skipif(
                         not DIGIT_LIMIT, reason="no integer digit limit")),
    ], ids=["deep_nesting", "long_integer"])
    def test_unusable_json(self, tmp_path, capsys, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        code = main(["validate", "--input", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert out.startswith("document rejected:\n  $: unusable JSON")

    def test_rejected_document(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text('{"bogus": 1}', encoding="utf-8")
        code = main(["validate", "--input", str(path)])
        assert code == 2
        assert "document rejected" in capsys.readouterr().out

    def test_negative_pmax(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(sample_text(), encoding="utf-8")
        code = main(["leech", "--input", str(path), "--pmax", "-1"])
        assert code == 2
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("case", ["missing", "non_utf8", "negative_pmax"])
    def test_unusable_input_or_flag(self, tmp_path, capsys, case, fmt):
        # exit 2 before any document is parsed: text on stderr, or a JSON
        # body on stdout shaped like the rejected document's
        path = tmp_path / "doc.json"
        pmax = []
        if case == "missing":
            error = f"cannot read {path}: [Errno 2] No such file or directory: '{path}'"
        elif case == "non_utf8":
            path.write_bytes(b"\xff\xfe{}")
            error = (f"cannot read {path}: 'utf-8' codec can't decode byte "
                     f"0xff in position 0: invalid start byte")
        else:
            path.write_text(sample_text(), encoding="utf-8")
            pmax, error = ["--pmax", "-1"], "--pmax must be nonnegative"
        code = main(["leech", "--input", str(path), "--format", fmt, *pmax])
        captured = capsys.readouterr()
        assert code == 2
        if fmt == "text":
            assert (captured.out, captured.err) == ("", error + "\n")
        else:
            assert captured.err == ""
            assert json.loads(captured.out) == {
                "command": "leech", "exit_code": 2, "error": error}

    def test_rejected_document_json_body(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text('{"bogus": 1}', encoding="utf-8")
        code = main(["validate", "--input", str(path), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        body = json.loads(captured.out)
        assert body.keys() == {"command", "exit_code", "error", "diagnostics"}
        assert (body["command"], body["exit_code"], body["error"]) == (
            "validate", 2, "document rejected")
        assert body["diagnostics"] and all(
            d["path"].startswith("$") for d in body["diagnostics"])

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_lone_surrogate_rejected(self, tmp_path, capsys, fmt):
        root = {"monoids": [{"name": "\ud800", "elements": ["e"],
                             "identity": "e", "table": [["e"]]}]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(root), encoding="utf-8")
        code = main(["validate", "--input", str(path), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert "$.monoids[0].name" in captured.out
        assert "lone surrogate" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("stage", ["parse", "run"])
    def test_out_of_memory(self, tmp_path, monkeypatch, capsys, stage, fmt):
        # a step that runs out of memory exits 2 with a one-line diagnostic,
        # never a traceback; the failing step is simulated, not allocated
        def exhausted(*args):
            raise MemoryError

        if stage == "parse":
            monkeypatch.setattr(cli, "parse_document", exhausted)
        else:
            monkeypatch.setitem(cli._HANDLERS, "leech", exhausted)
        path = tmp_path / "doc.json"
        path.write_text(sample_text(), encoding="utf-8")
        code = main(["leech", "--input", str(path), "--format", fmt])
        captured = capsys.readouterr()
        error = "out of memory; try a smaller --pmax"
        assert code == 2
        if fmt == "text":
            assert (captured.out, captured.err) == ("", error + "\n")
        else:
            assert captured.err == ""
            assert json.loads(captured.out) == {
                "command": "leech", "exit_code": 2, "error": error}


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away: every write fails."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


class TestClosedStdout:
    @pytest.mark.parametrize("text, want", [
        (sample_text(), 0),
        ('{"bogus": 1}', 2),
        (json.dumps({"monoids": [{
            "name": "M", "elements": ["e", "a", "b"], "identity": "e",
            "table": [["e", "a", "b"], ["a", "a", "e"], ["b", "b", "b"]]}]}), 1),
    ], ids=["passes", "rejected", "fails"])
    def test_returns_the_command_code(self, tmp_path, monkeypatch, capsys,
                                      text, want):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        with open(tmp_path / "stdout", "w") as sink:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(sink.fileno()))
            code = main(["validate", "--input", str(path), "--format", "json"])
            # the exit-time flush of stdout now goes to the null device
            assert os.path.samestat(os.fstat(sink.fileno()), os.stat(os.devnull))
        assert code == want
        assert capsys.readouterr().err == ""
