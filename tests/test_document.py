import json
import sys

import pytest

import moncoh.document
from moncoh.abelian import AbHom, Z, Zmod
from moncoh.cli import run_command
from moncoh.document import (
    Defaults,
    Document,
    DocumentError,
    GridBundle,
    parse_document,
    serialize_document,
)
from moncoh.grid import GridSpec, PathSpec, VerticalFamily
from moncoh.leech import cochain_group
from moncoh.monoid import cyclic_group
from moncoh.coeff import constant_system


# 0 where the interpreter converts integer strings of any length
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def sample_root() -> dict:
    return {
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
                {"operations": [{"arity": 2,
                                 "properties": ["associative"]}]},
                {"operations": [{"arity": 2}]},
            ]},
        ],
        "defaults": {"p_max": 4, "coefficients": "Z"},
    }


def sample_text() -> str:
    return json.dumps(sample_root())


def diags_of(text: str) -> list[str]:
    with pytest.raises(DocumentError) as info:
        parse_document(text)
    return [str(d) for d in info.value.diagnostics]


class TestParse:
    def test_minimal_document(self):
        doc = parse_document(json.dumps({
            "monoids": [{"name": "C2", "elements": ["e", "g"],
                         "identity": "e",
                         "table": [["e", "g"], ["g", "e"]]}]}))
        m = doc.monoid("C2")
        assert m is not None and m.size == 2
        assert doc.defaults == Defaults()

    def test_empty_document(self):
        assert parse_document("{}") == Document()

    def test_full_sample(self):
        doc = parse_document(sample_text())
        assert [n for n, _ in doc.monoids] == ["C2", "C3", "S"]
        assert doc.coefficient("sign").lstar[(1, 0)].matrix == ((-1,),)
        bundle = doc.grid("pair")
        assert bundle.path == PathSpec("D")
        assert bundle.p_max == 3
        assert bundle.family == VerticalFamily.zero()
        assert doc.set_systems[0][1].set_count == 3
        assert len(doc.descriptor_lists[0][1]) == 2
        assert doc.monoid_name(doc.monoid("C3")) == "C3"
        assert doc.coefficient_name(doc.coefficient("c2Z")) == "c2Z"

    def test_invalid_json(self):
        assert any("invalid JSON" in d for d in diags_of("{not json"))

    def test_nesting_past_the_recursion_limit(self):
        diags = diags_of("[" * 100000 + "]" * 100000)
        assert len(diags) == 1 and diags[0].startswith("$: unusable JSON")

    @pytest.mark.skipif(not DIGIT_LIMIT,
                        reason="no integer digit limit in this interpreter")
    def test_integer_past_the_digit_limit(self):
        digits = "9" * (DIGIT_LIMIT + 1)
        diags = diags_of('{"defaults": {"p_max": ' + digits + '}}')
        assert len(diags) == 1 and diags[0].startswith("$: unusable JSON")

    def test_lone_surrogates_located(self):
        root = sample_root()
        root["monoids"][0]["elements"][1] = "\udc00"
        root["defaults"] = {"\ud800": 1}
        assert diags_of(json.dumps(root)) == [
            "$.monoids[0].elements[1]: string '\\udc00' holds a lone surrogate",
            "$.defaults: key '\\ud800' holds a lone surrogate",
        ]
        # a surrogate pair is one character and parses
        root = sample_root()
        root["set_systems"][0]["name"] = "\ud83d\ude00"
        assert parse_document(json.dumps(root)).set_systems[0][0] == "\U0001f600"

    def test_no_path_through_an_unencodable_key(self):
        text = json.dumps({"defaults": {"\ud800": "\udc00",
                                        "p_max": ["\udc01"]}})
        assert diags_of(text) == [
            "$.defaults: key '\\ud800' holds a lone surrogate",
            "$.defaults.p_max[0]: string '\\udc01' holds a lone surrogate",
        ]

    def test_each_defaults_field_then_each_entry(self):
        text = json.dumps({"defaults": {"p_max": -1, "coefficients": "Q"},
                           "monoids": 3, "grids": [{"name": "g"}, 1]})
        assert diags_of(text) == [
            "$.defaults.p_max: expected an integer >= 0, got -1",
            "$.defaults.coefficients: unrecognized group term 'Q' in 'Q'",
            "$.monoids: expected an array, got int",
            "$.grids[1]: expected an object",
            "$.grids[0]: missing required key 'floors'",
        ]

    def test_first_problem_of_each_entry(self):
        root = sample_root()
        root["monoids"][1]["elements"] = "abc"
        root["monoids"][1]["identity"] = 1
        root["monoids"].append({"name": "C2"})
        root["coefficients"][2]["action"] = {"y": [[1]], "x": [[1]], "e": 1}
        # elements and identity are read side by side, so both are
        # reported; the action reports its first unknown element only
        assert diags_of(json.dumps(root)) == [
            "$.monoids[3]: duplicate name 'C2'",
            "$.monoids[1].elements: expected an array, got str",
            "$.monoids[1].identity: expected a string, got int",
            "$.coefficients[1].monoid: coefficient system 'c3Z' references "
            "unknown monoid 'C3'",
            "$.coefficients[2].action.x: unknown element 'x'",
            "$.grids[0].floors[1].monoid: grid 'pair' references unknown "
            "monoid 'C3'",
        ]

    def test_repeated_defaults_rejected(self):
        # JSON keeps the last of two equal keys: this text would set p_max
        # from 4 to 1 without a word
        text = sample_text()
        assert parse_document(text).defaults.p_max == 4
        twice = '{"defaults": {"p_max": 1}, ' + text[1:]
        assert json.loads(twice)["defaults"]["p_max"] == 4
        assert diags_of(twice) == ["$.defaults: repeated key 'defaults'"]

    def test_repeated_map_key_rejected_at_its_path(self):
        root = sample_root()
        root["grids"][0]["vertical"] = {"maps": {"[0,0]": [[1]]}}
        text = json.dumps(root)
        assert parse_document(text).grid("pair").family.maps[(0, 0)].matrix == ((1,),)
        twice = text.replace('"[0,0]": [[1]]', '"[0,0]": [[1]], "[0,0]": [[2]]')
        assert twice != text
        assert diags_of(twice) == [
            "$.grids[0].vertical.maps.[0,0]: repeated key '[0,0]'"]
        # three values name the key once; each object names its own keys
        thrice = '{"a": [{"x": 1, "x": 2, "x": 3}], "b": {"y": {}, "y": {}}}'
        assert diags_of(thrice) == ["$.a[0].x: repeated key 'x'",
                                    "$.b.y: repeated key 'y'"]

    def test_root_must_be_object(self):
        assert any(d.startswith("$:") for d in diags_of("[1, 2]"))

    def test_unknown_keys_rejected(self):
        assert any("$.bogus" in d and "unknown key" in d
                   for d in diags_of('{"bogus": 1}'))
        root = sample_root()
        root["monoids"][0]["extra"] = 1
        assert any("$.monoids[0].extra" in d for d in diags_of(json.dumps(root)))

    def test_duplicate_names(self):
        root = sample_root()
        root["monoids"].append(root["monoids"][0])
        assert any("duplicate name 'C2'" in d for d in diags_of(json.dumps(root)))

    def test_dangling_reference_names_both(self):
        root = sample_root()
        root["coefficients"][0]["monoid"] = "nope"
        hits = [d for d in diags_of(json.dumps(root))
                if "'c2Z'" in d and "'nope'" in d]
        assert hits

    def test_bad_identity_and_table(self):
        root = {"monoids": [{"name": "M", "elements": ["e"],
                             "identity": "x", "table": [["e"]]}]}
        assert any("not an element" in d for d in diags_of(json.dumps(root)))
        root = {"monoids": [{"name": "M", "elements": ["e", "a"],
                             "identity": "e",
                             "table": [["e", "a"]]}]}
        assert any("expected 2 rows" in d for d in diags_of(json.dumps(root)))
        root = {"monoids": [{"name": "M", "elements": ["e"],
                             "identity": "e", "table": [["z"]]}]}
        assert any("unknown element 'z'" in d for d in diags_of(json.dumps(root)))

    def test_action_requires_a_group(self):
        root = sample_root()
        root["coefficients"].append(
            {"name": "bad", "monoid": "S", "kind": "action", "group": "Z",
             "action": {"{}": [[1]], "{x}": [[1]]}})
        assert any("not a group" in d for d in diags_of(json.dumps(root)))

    def test_action_missing_element(self):
        root = sample_root()
        del root["coefficients"][2]["action"]["g"]
        assert any("missing elements: g" in d for d in diags_of(json.dumps(root)))

    def test_bad_group_string(self):
        root = sample_root()
        root["coefficients"][0]["group"] = "Q"
        assert any("unrecognized group term" in d
                   for d in diags_of(json.dumps(root)))

    def test_non_canonical_group_string_located(self):
        root = sample_root()
        root["coefficients"][1]["group"] = "Z^1"
        assert any(d.startswith("$.coefficients[1].group: ")
                   and "not the canonical spelling 'Z'" in d
                   for d in diags_of(json.dumps(root)))

    def test_explicit_system_with_comma_in_names(self):
        root = {
            "monoids": [{"name": "M", "elements": ["e", "a,b"],
                         "identity": "e",
                         "table": [["e", "a,b"], ["a,b", "a,b"]]}],
            "coefficients": [{
                "name": "c", "monoid": "M", "kind": "explicit",
                "groups": ["Z", "Z"],
                "lstar": {f"[{x},{y}]": [[1]]
                          for x in ("e", "a,b") for y in ("e", "a,b")},
                "rstar": {f"[{x},{y}]": [[1]]
                          for x in ("e", "a,b") for y in ("e", "a,b")},
            }],
        }
        doc = parse_document(json.dumps(root))
        c = doc.coefficient("c")
        assert c.lstar[(1, 1)].matrix == ((1,),)

    def test_explicit_system_missing_pair(self):
        root = {
            "monoids": [{"name": "M", "elements": ["e"], "identity": "e",
                         "table": [["e"]]}],
            "coefficients": [{
                "name": "c", "monoid": "M", "kind": "explicit",
                "groups": ["Z"], "lstar": {}, "rstar": {"[e,e]": [[1]]},
            }],
        }
        assert any("lstar missing pair" in d for d in diags_of(json.dumps(root)))

    def test_unresolvable_pair_key(self):
        root = {
            "monoids": [{"name": "M", "elements": ["e"], "identity": "e",
                         "table": [["e"]]}],
            "coefficients": [{
                "name": "c", "monoid": "M", "kind": "explicit",
                "groups": ["Z"],
                "lstar": {"[e,z]": [[1]]}, "rstar": {"[e,e]": [[1]]},
            }],
        }
        assert any("does not name two elements" in d
                   for d in diags_of(json.dumps(root)))

    def test_rule_path_resolves_to_moves(self):
        root = sample_root()
        root["grids"][0]["path"] = {"descend_at": [0]}
        doc = parse_document(json.dumps(root))
        assert doc.grid("pair").path == PathSpec("D")

    def test_rule_path_keeps_descents_past_pmax(self):
        # a run may take a larger degree bound than the grid's pmax, so a
        # descent listed past it stays, as it does when spelled as moves
        root = sample_root()
        root["grids"][0]["pmax"] = 2
        root["grids"][0]["path"] = {"descend_at": [3]}
        doc = parse_document(json.dumps(root))
        assert doc.grid("pair").path == PathSpec("RRRD")
        root["grids"][0]["path"] = {"descend_at": [5, 3, 1]}
        assert parse_document(json.dumps(root)).grid("pair").path == \
            PathSpec("RD")

    def test_rule_path_far_column(self):
        # a descent a million columns out is one string, and validate walks
        # the path only to the degree bound
        root = sample_root()
        root["grids"][0]["path"] = {"descend_at": [10**6]}
        doc = parse_document(json.dumps(root))
        assert doc.grid("pair").path == PathSpec("R" * 10**6 + "D")
        assert run_command("validate", doc)[0] == 0

    def test_moves_and_rule_are_exclusive(self):
        root = sample_root()
        root["grids"][0]["path"] = {"moves": "D", "descend_at": [0]}
        assert any("exactly one" in d for d in diags_of(json.dumps(root)))

    def test_default_path_is_the_staircase(self):
        root = sample_root()
        del root["grids"][0]["path"]
        doc = parse_document(json.dumps(root))
        assert doc.grid("pair").path == PathSpec("DR")

    def test_vertical_maps_parse(self):
        root = sample_root()
        root["grids"][0]["vertical"] = {"maps": {"[0,0]": [[1]]}}
        doc = parse_document(json.dumps(root))
        family = doc.grid("pair").family
        assert set(family.maps) == {(0, 0)}
        assert family.maps[(0, 0)].matrix == ((1,),)

    def test_vertical_map_shape_checked(self):
        root = sample_root()
        root["grids"][0]["vertical"] = {"maps": {"[0,0]": [[1], [2]]}}
        assert any("$.grids[0].vertical.maps.[0,0]" in d
                   for d in diags_of(json.dumps(root)))

    def test_vertical_map_shape_checked_before_groups_are_built(self, monkeypatch):
        # C3 has 2^40 tuples in degree 40; a wrong shape must be reported
        # from counted generators, without building a cochain group
        def refuse(*args):
            pytest.fail(f"cochain_group{args[2:]} built during the parse")

        monkeypatch.setattr(moncoh.document, "cochain_group", refuse)
        root = sample_root()
        root["grids"][0]["pmax"] = 40
        root["grids"][0]["vertical"] = {"maps": {"[0,40]": [[1]]}}
        assert diags_of(json.dumps(root)) == [
            "$.grids[0].vertical.maps.[0,40]: matrix has 1 rows, codomain "
            f"has {2 ** 40} generators"]
        root["grids"][0]["pmax"] = 3
        root["grids"][0]["vertical"] = {"maps": {"[0,2]": [[1, 2]] * 4}}
        assert diags_of(json.dumps(root)) == [
            "$.grids[0].vertical.maps.[0,2]: matrix row has 2 entries, domain "
            "has 1 generators"]

    @pytest.mark.parametrize("floors, key, rows", [
        ([("C2", "c2Z"), ("C3", "c3Z")], "[0,2]", [[1], [2], [0], [-3]]),
        ([("C3", "c3Z"), ("C2", "c2Z")], "[0,2]", [[1, 0, 2, 5]]),
        ([("C2", "c2M"), ("C3", "c3M")], "[0,2]", [[3], [0], [9], [-3]]),
        ([("C3", "c3M"), ("C2", "c2M")], "[0,1]", [[3, 1]]),
    ])
    def test_vertical_map_parses_to_hom_on_cochain_groups(self, floors, key, rows):
        root = sample_root()
        root["coefficients"] += [
            {"name": "c2M", "monoid": "C2", "kind": "constant", "group": "Z/2"},
            {"name": "c3M", "monoid": "C3", "kind": "constant", "group": "Z/6"}]
        root["grids"][0]["floors"] = [{"monoid": m, "coeff": c} for m, c in floors]
        root["grids"][0]["vertical"] = {"maps": {key: rows}}
        doc = parse_document(json.dumps(root))
        (source, target) = doc.grid("pair").grid.floors
        degree = int(key[3:-1])
        want = AbHom.from_rows(cochain_group(*source, degree).total,
                               cochain_group(*target, degree).total, rows)
        assert doc.grid("pair").family.maps == {(0, degree): want}

    def test_aliased_vertical_map_keys_rejected(self):
        # all three would parse to (0, 0), and only one map would survive
        root = sample_root()
        root["grids"][0]["vertical"] = {"maps": {
            "[0,0]": [[1]], "[0,00]": [[2]], "[0, +0]": [[3]]}}
        assert any(d.startswith("$.grids[0].vertical.maps.[0, +0]: ")
                   and "expected a \"[floor,degree]\" key" in d
                   for d in diags_of(json.dumps(root)))

    @pytest.mark.parametrize("key", [
        "[0,00]", "[00,0]", "[0, +0]", "[0,0 ]", "[+0,0]", "[1_0,0]", "[0,1_0]"],
        ids=["degree_leading_zero", "floor_leading_zero", "space_and_sign",
             "trailing_space", "floor_sign", "floor_underscore",
             "degree_underscore"])
    def test_vertical_map_key_must_be_canonical(self, key):
        root = sample_root()
        root["grids"][0]["vertical"] = {"maps": {key: [[1]]}}
        assert diags_of(json.dumps(root)) == [
            f"$.grids[0].vertical.maps.{key}: expected a \"[floor,degree]\" "
            f"key, got {key!r}"]

    def test_vertical_map_key_must_hold_integers(self):
        root = sample_root()
        root["grids"][0]["vertical"] = {"maps": {"[x,1]": [[1]]}}
        assert diags_of(json.dumps(root)) == [
            "$.grids[0].vertical.maps.[x,1]: expected integer floor and "
            "degree in '[x,1]'"]

    def test_finite_must_be_true_or_false(self):
        root = sample_root()
        root["grids"][0]["finite"] = "no"
        assert diags_of(json.dumps(root)) == [
            "$.grids[0].finite: expected true or false"]

    def test_vertical_map_floor_bounds(self):
        root = sample_root()
        root["grids"][0]["vertical"] = {"maps": {"[1,0]": [[1]]}}
        assert any("no floor below" in d for d in diags_of(json.dumps(root)))

    def test_vertical_map_degree_bounds(self):
        root = sample_root()
        root["grids"][0]["vertical"] = {"maps": {"[0,9]": [[1]]}}
        assert any("degree must lie in 0..4" in d
                   for d in diags_of(json.dumps(root)))

    def test_grid_rejects_duplicate_floors(self):
        root = sample_root()
        root["grids"][0]["floors"] = [{"monoid": "C2", "coeff": "c2Z"},
                                      {"monoid": "C2", "coeff": "sign"}]
        assert any("pairwise distinct" in d for d in diags_of(json.dumps(root)))

    def test_grid_coeff_must_match_floor_monoid(self):
        root = sample_root()
        root["grids"][0]["floors"][0]["coeff"] = "c3Z"
        assert any("does not belong to monoid 'C2'" in d
                   for d in diags_of(json.dumps(root)))

    def test_set_system_member_errors(self):
        root = sample_root()
        root["set_systems"][0]["sets"][0]["members"] = ["zz"]
        assert any("unknown point" in d for d in diags_of(json.dumps(root)))

    def test_descriptor_arity_checked(self):
        root = sample_root()
        root["descriptor_lists"][0]["descriptors"][0]["operations"][0]["arity"] = 0
        assert any("integer >= 1" in d for d in diags_of(json.dumps(root)))

    def test_defaults_parsed(self):
        doc = parse_document(json.dumps(
            {"defaults": {"p_max": 2, "coefficients": "Z/2"}}))
        assert doc.defaults == Defaults(2, Zmod(2))

    def test_several_diagnostics_at_once(self):
        root = {"monoids": [
            {"name": "A", "elements": ["e"], "identity": "x",
             "table": [["e"]]},
            {"name": "B", "elements": ["e", "e"], "identity": "e",
             "table": [["e", "e"], ["e", "e"]]},
        ]}
        diags = diags_of(json.dumps(root))
        assert len(diags) == 2


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        doc = parse_document(sample_text())
        text = serialize_document(doc)
        again = parse_document(text)
        assert again == doc
        assert serialize_document(again) == text

    def test_infinite_grid_round_trips(self):
        root = sample_root()
        root["grids"][0]["finite"] = False
        doc = parse_document(json.dumps(root))
        assert doc.grid("pair").grid.finite is False
        text = serialize_document(doc)
        assert json.loads(text)["grids"][0]["finite"] is False
        assert parse_document(text) == doc

    def test_serializer_is_deterministic(self):
        doc = parse_document(sample_text())
        assert serialize_document(doc) == serialize_document(
            parse_document(sample_text()))

    def test_serializer_requires_named_references(self):
        m = cyclic_group(2)
        bundle = GridBundle(
            GridSpec(((m, constant_system(m, Z)),)),
            VerticalFamily.zero(), PathSpec(""))
        doc = Document(grids=(("loose", bundle),))
        with pytest.raises(ValueError, match="unnamed"):
            serialize_document(doc)
        doc = Document(coefficients=(("loose", constant_system(m, Z)),))
        with pytest.raises(ValueError, match="not a named document monoid"):
            serialize_document(doc)
