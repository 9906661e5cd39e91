import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tracelin import cli, fincat, harness, serialize
from tracelin.exactalg import ChainComplex, ChainMap, Mat, identity_chain_map
from tracelin import diagrams


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_category_round_trip():
    cat = harness.span_category()
    obj = serialize.cat_to_json(cat)
    back = serialize.cat_from_json(obj)
    assert fincat.validate(back) == []
    assert back.objects == cat.objects
    assert serialize.cat_to_json(back) == obj


def test_category_rejects_unknown_fields():
    obj = serialize.cat_to_json(harness.span_category())
    obj["extra"] = 1
    with pytest.raises(ValueError):
        serialize.cat_from_json(obj)
    obj2 = serialize.cat_to_json(harness.span_category())
    obj2["arrows"][0]["weight"] = 1
    with pytest.raises(ValueError):
        serialize.cat_from_json(obj2)


def test_diagram_round_trip():
    cat = harness.arrow_category()
    cx = ChainComplex({0: 1, 1: 1}, {1: Mat([[2]])})
    cy = ChainComplex({0: 2, 1: 1}, {1: Mat([[2], [0]])})
    dia = diagrams.ChainDiagram(
        cat, {"a": cx, "b": cy},
        {"a": identity_chain_map(cx), "b": identity_chain_map(cy),
         "f": ChainMap(cx, cy, {0: Mat([[1], [0]]), 1: Mat([[1]])})})
    endo = diagrams.NatEndo(
        dia, {"a": identity_chain_map(cx), "b": identity_chain_map(cy)})
    obj = serialize.diagram_to_json(dia, endo)
    dia2, endo2 = serialize.diagram_from_json(obj, lambda name: cat)
    assert dia2.violations() == []
    assert serialize.diagram_to_json(dia2, endo2) == obj


def test_rational_strings():
    from fractions import Fraction
    assert serialize.frac_from("3") == 3
    assert serialize.frac_from("-1/2") == Fraction(-1, 2)
    for bad in (True, False, 1.5, None):
        with pytest.raises(ValueError, match="^bad rational "):
            serialize.frac_from(bad)
    assert serialize.frac_str(Fraction(4, 2)) == "2"
    assert serialize.frac_str(Fraction(-1, 3)) == "-1/3"


def test_cli_coeffs_hofin_pushout(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "coeffs",
                           "--method", "hofin", "pushout")
    assert code == 0
    assert json.loads(out) == {"a": "-1", "b": "1", "c": "1"}


def test_cli_coeffs_group_bs3(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "coeffs",
                           "--method", "group", "BS3")
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == "1/6"
    assert sorted(payload.values()) == ["1/2", "1/3", "1/6"]


def test_cli_coeffs_ei_equals_desouza(capsys):
    code1, out1, _ = run_cli(capsys, "--format", "json", "coeffs",
                             "--method", "ei", "hom_C2_C2_id")
    code2, out2, _ = run_cli(capsys, "--format", "json", "coeffs",
                             "--method", "desouza", "hom_C2_C2_id")
    assert code1 == code2 == 0
    assert json.loads(out1) == json.loads(out2)


def test_cli_validate_and_classes(capsys):
    code, out, _ = run_cli(capsys, "validate", "BS3")
    assert code == 0 and "ok" in out
    code, out, _ = run_cli(capsys, "--format", "json", "classes", "BS3")
    assert code == 0
    payload = json.loads(out)
    assert [len(c["members"]) for c in payload["classes"]] == [1, 3, 2]


def test_cli_trace_and_hocolim(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "trace",
                           "pushout", "pushout_span")
    assert code == 0
    assert json.loads(out) == {"method": "hofin", "trace": "1"}
    code, out, _ = run_cli(capsys, "--format", "json", "hocolim",
                           "pushout", "pushout_span")
    assert code == 0
    assert "complex" in json.loads(out)


@pytest.mark.parametrize("cat, dia, method", [
    ("pushout", "pushout_span", "hofin"), ("pushout", "pushout_span", "ei"),
    ("BC2", "BC2_regular", "groupoid"), ("BC2", "BC2_regular", "ei"),
])
def test_cli_without_endo_uses_the_identity(tmp_path, capsys, monkeypatch,
                                            cat, dia, method):
    # with no endo entry, hocolim prints the same complex and trace gives
    # its Euler characteristic, both through diagrams.identity_endo
    obj = serialize.load_json(cli.data_dir() / (dia + ".json"))
    del obj["endo"]
    path = tmp_path / "noendo.json"
    path.write_text(json.dumps(obj))
    calls = []
    real = diagrams.identity_endo
    monkeypatch.setattr(diagrams, "identity_endo",
                        lambda x: calls.append(x) or real(x))
    argv = ["--format", "json", "hocolim", "--method", method, cat]
    _, with_endo, _ = run_cli(capsys, *argv, dia)
    code, out, _ = run_cli(capsys, *argv, str(path))
    assert code == 0 and out == with_endo
    degrees = json.loads(out)["complex"]["degrees"]
    euler = sum((-1) ** int(n) * d for n, d in degrees.items())
    code, out, _ = run_cli(capsys, "--format", "json", "trace", "--method",
                           method, cat, str(path))
    assert code == 0 and json.loads(out)["trace"] == str(euler)
    # hocolim takes the identity for both files, trace only without an endo
    assert len(calls) == 3


def test_cli_bicat_trace(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "bicat-trace",
                           "idem", "idem_diagram")
    assert code == 0
    assert json.loads(out) == {"x": "4", "e": "3"}


def test_cli_group_trace_via_groupoid_pipeline(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "trace",
                           "BC2", "BC2_regular")
    assert code == 0
    assert json.loads(out) == {"method": "groupoid", "trace": "1"}


def test_cli_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "validate", "no_such_category")
    assert code == 2
    assert "error" in err


def test_cli_invalid_category_exits_one(tmp_path, capsys):
    obj = serialize.cat_to_json(harness.span_category())
    del obj["compose"][0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1


def test_cli_verify_suite_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--format", "json", "verify",
                             "--suite", "sets", "--seed", "4",
                             "--cases", "5")
    code2, out2, _ = run_cli(capsys, "--format", "json", "verify",
                             "--suite", "sets", "--seed", "4",
                             "--cases", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["all_pass"] is True


def test_cli_gen_hofin_round_trips(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "hofin",
                           "--seed", "11")
    assert code == 0
    cat = serialize.cat_from_json(json.loads(out))
    assert fincat.validate(cat) == []
    assert fincat.is_strictly_homotopy_finite(cat)


def test_cli_gen_chain_round_trips(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "chain", "--seed", "3")
    assert code == 0
    dia, endo = serialize.diagram_from_json(
        json.loads(out), lambda name: None)
    assert dia.violations() == []
    assert endo is not None and endo.violations() == []


def test_cli_leinster_method(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "coeffs",
                           "--method", "leinster", "idem")
    assert code == 0
    assert json.loads(out) == {"x": "1/2"}


def test_cli_table_methods(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "coeffs",
                           "--method", "table:pushout", "pushout")
    assert code == 0
    assert json.loads(out) == {"a": "-1", "b": "1", "c": "1"}
    code, out, _ = run_cli(capsys, "--format", "json", "coeffs",
                           "--method", "table:idempotent", "idem")
    assert code == 0
    assert json.loads(out) == {"x": "0", "e": "1"}


def test_cli_table_rejects_wrong_shape(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--method", "table:cofiber",
                           "pushout")
    assert code == 2


@pytest.mark.parametrize("key", ["objects", "arrows", "identities",
                                 "compose"])
def test_cli_category_missing_field_is_input_error(tmp_path, capsys, key):
    obj = serialize.cat_to_json(harness.span_category())
    del obj[key]
    with pytest.raises(ValueError, match="missing fields in category"):
        serialize.cat_from_json(obj)
    path = tmp_path / "nokey.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "classes", str(path))
    assert code == 2
    assert err.strip() == "error: missing fields in category: ['%s']" % key


def test_cli_arrow_missing_field_is_input_error():
    obj = serialize.cat_to_json(harness.span_category())
    del obj["arrows"][0]["dst"]
    with pytest.raises(ValueError, match="missing fields in arrow"):
        serialize.cat_from_json(obj)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "sets", "--cases", "0"],
    ["verify", "--suite", "sets", "--cases", "-3"],
    ["gen", "--family", "hofin", "--max-objects", "0"],
])
def test_cli_rejects_counts_below_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_cli_gen_rejects_negative_max_edges(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--family", "hofin", "--max-edges", "-1"])
    assert exc.value.code == 2
    assert "must be at least 0" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "gen", "--family", "hofin",
                           "--max-edges", "0")
    assert code == 0
    assert fincat.validate(serialize.cat_from_json(json.loads(out))) == []


def test_cli_verify_component_redraws_singular_matrix(capsys):
    # this seed draws a singular change of basis over the idempotent shape
    code, out, _ = run_cli(capsys, "verify", "--suite", "component",
                           "--seed", "100524")
    assert code == 0
    assert "all-pass" in out


@pytest.mark.parametrize("exc", [
    ValueError("map does not factor through the projection"),
    ZeroDivisionError("division by zero")])
def test_cli_verify_suite_error_is_failure(tmp_path, capsys, monkeypatch, exc):
    def broken_suite(**_kwargs):
        raise exc
    monkeypatch.setitem(harness.SUITES, "sets", broken_suite)
    code, out, _ = run_cli(capsys, "verify", "--suite", "sets",
                           "--seed", "3", "--artifacts", str(tmp_path))
    assert code == 1
    note = "%s: %s" % (type(exc).__name__, exc)
    assert "FAIL sets:error" in out and note in out
    payload = serialize.load_json(tmp_path / "failures-seed3.json")
    assert payload["seed"] == 3
    assert [(c["id"], c["note"], c["equal"]) for c in payload["failures"]] \
        == [("sets:error", note, False)]


def test_cli_verify_failing_case_writes_loadable_witness(tmp_path, capsys,
                                                         monkeypatch):
    from tracelin import coeffs
    real = coeffs.coeff_hofin

    def perturbed(cat):
        # one entry off by one, so that linearity:hofin cases fail
        phi = real(cat)
        phi.values[phi.classes.reps[0]] += 1
        return phi
    monkeypatch.setattr(coeffs, "coeff_hofin", perturbed)
    code, out, _ = run_cli(capsys, "verify", "--suite", "linearity",
                           "--seed", "0", "--cases", "4",
                           "--artifacts", str(tmp_path))
    assert code == 1 and "FAIL linearity:hofin:0:" in out
    payload = serialize.load_json(tmp_path / "failures-seed0.json")
    hofin = [c for c in payload["failures"]
             if c["id"].startswith("linearity:hofin:")]
    assert hofin
    for c in hofin:
        dia, endo = serialize.diagram_from_json(
            c["witness"]["diagram"], lambda name: harness.corpus()[name]["cat"])
        # the loaded diagram and endomorphism give the reported side back
        rhs = harness.linearity_rhs(coeffs.coeff_hofin(dia.base), dia, endo)
        assert str(rhs) == c["rhs"]


def test_cli_diagram_missing_entry_is_input_error(tmp_path, capsys):
    obj = serialize.load_json(cli.data_dir() / "pushout_span.json")
    del obj["arrows"][sorted(obj["arrows"])[0]]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "trace", "pushout", str(path))
    assert code == 2
    assert err.startswith("error: diagram arrows has no entry for")


@pytest.mark.parametrize("field, key, value, message", [
    ("arrows", "e", [["0", "0"]], "matrix is 1 x 2, expected 2 x 2"),
    ("arrows", "e", [["0", "0"], ["1"]],
     "matrix rows have lengths [2, 1], expected 2 x 2"),
    ("endo", "x", {"0": [["1", "0", "0"], ["2", "3", "0"]]},
     "matrix is 2 x 3, expected 2 x 2"),
    ("arrows", "e", ["00", "11"], "matrix must be a list of rows"),
    ("arrows", "e", "0", "chain map must be a JSON object"),
])
@pytest.mark.parametrize("command", ["trace", "hocolim", "bicat-trace"])
def test_cli_matrix_of_wrong_shape_is_input_error(tmp_path, capsys, command,
                                                  field, key, value, message):
    obj = serialize.load_json(cli.data_dir() / "idem_diagram.json")
    obj[field][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, command, "idem", str(path))
    assert code == 2
    assert err.strip() == "error: " + message


@pytest.mark.parametrize("command", ["trace", "hocolim"])
def test_cli_complex_with_nonzero_dd_is_input_error(tmp_path, capsys, command):
    obj = serialize.load_json(cli.data_dir() / "pushout_span.json")
    obj["objects"]["c"] = {"degrees": {"0": 1, "1": 1, "2": 1},
                           "d": {"1": [["1"]], "2": [["1"]]}}
    path = tmp_path / "dd.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, command, "pushout", str(path))
    assert code == 2
    assert out == ""
    assert err.strip() == "error: d o d nonzero out of degree 2"


@pytest.mark.parametrize("argv", [
    ["hocolim", "delta2op", "pushout_span"],
    ["bicat-trace", "BS3", "idem_diagram"],
    ["trace", "BS3", "idem_diagram"],
    ["bicat-trace", "idem", "pushout_span"],
])
def test_cli_diagram_over_another_category_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip() == ("error: diagram %r is not over category %r"
                           % (argv[2], argv[1]))


def test_cli_inline_category_is_compared_by_table(tmp_path, capsys):
    # an inline copy of the corpus category passes; the same objects and
    # arrows with e o e = x make B(C2), another category
    obj = serialize.load_json(cli.data_dir() / "idem_diagram.json")
    obj["category"] = serialize.load_json(cli.data_dir() / "idem.json")
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "bicat-trace", "idem", str(path))
    assert code == 0 and out
    table = serialize.load_json(cli.data_dir() / "idem.json")
    for c in table["compose"]:
        if c["f"] == c["g"] == "e":
            c["gf"] = "x"
    cat_path = tmp_path / "bc2.json"
    cat_path.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "bicat-trace", str(cat_path), str(path))
    assert code == 2 and out == ""
    assert err.strip() == ("error: diagram %r is not over category %r"
                           % (str(path), str(cat_path)))


def _without_composite(name, f, g):
    obj = serialize.load_json(cli.data_dir() / (name + ".json"))
    obj["compose"] = [c for c in obj["compose"]
                      if (c["f"], c["g"]) != (f, g)]
    return obj


@pytest.mark.parametrize("name, pair, argv", [
    ("BC2", ("g", "g"), ["classes"]),
    ("BC2", ("g", "g"), ["coeffs", "--method", "ei"]),
    ("BC2", ("g", "g"), ["coeffs", "--method", "group"]),
    ("idem", ("e", "e"), ["coeffs", "--method", "leinster"]),
    ("idem", ("e", "e"), ["classes"]),
])
def test_cli_broken_table_is_input_error(tmp_path, capsys, name, pair, argv):
    """A table missing a composite is refused on load, naming the first
    violation, by every command but ``validate``."""
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(_without_composite(name, *pair)))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.strip() == ("error: category broken is not a valid table: "
                           "missing composite for %r" % (pair,))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out.splitlines() == ["violations:",
                                "missing composite for %r" % (pair,)]


def test_cli_unknown_endpoint_is_input_error(tmp_path, capsys):
    obj = serialize.load_json(cli.data_dir() / "BC2.json")
    obj["arrows"][1]["src"] = "y"
    path = tmp_path / "endpoint.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "classes", str(path))
    assert code == 2
    assert err.strip() == ("error: category endpoint is not a valid table: "
                           "arrow 'g' has unknown endpoint")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out.splitlines()[1:] == [
        "arrow 'g' has unknown endpoint",
        "composite entry ('e', 'g') is not composable",
        "composite entry ('g', 'g') is not composable"]


def test_cli_inconsistent_ei_table_is_input_error(tmp_path, capsys):
    """orbit_S3 with the composite of (a3, a0) sent to a0 passes the load
    checks, but its stabilizer classes do not restrict to one class at
    o0: ``coeffs --method ei`` exits 2 with one line, not a traceback."""
    obj = serialize.load_json(cli.data_dir() / "orbit_S3.json")
    entry = next(c for c in obj["compose"] if (c["f"], c["g"]) == ("a3", "a0"))
    entry["gf"] = "a0"
    path = tmp_path / "orbit_mut.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "coeffs", "--method", "ei", str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: class restriction at 'o0' is not well defined"]
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value, message", [
    ("objects", 3, "objects must be an array, not a number"),
    ("identities", None, "identities must be an object, not null"),
    ("compose", 5, "compose must be an array, not a number"),
])
@pytest.mark.parametrize("command", ["classes", "validate"])
def test_cli_wrong_json_type_is_input_error(tmp_path, capsys, command, field,
                                            value, message):
    obj = serialize.load_json(cli.data_dir() / "BC2.json")
    obj[field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: category field " + message]
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    (lambda o: o["objects"].__setitem__(0, ["x"]),
     "objects[0] must be a string, not an array"),
    (lambda o: o["arrows"][1].__setitem__("id", 1),
     "arrows[1].id must be a string, not a number"),
    (lambda o: o["identities"].__setitem__("x", {}),
     "identities.x must be a string, not an object"),
    (lambda o: o["compose"][2].__setitem__("gf", True),
     "compose[2].gf must be a string, not a boolean"),
], ids=["object", "arrow_id", "identity", "composite"])
def test_category_ids_must_be_strings(edit, message):
    obj = serialize.load_json(cli.data_dir() / "BC2.json")
    edit(obj)
    with pytest.raises(ValueError) as exc:
        serialize.cat_from_json(obj)
    assert str(exc.value) == "category field " + message


@pytest.mark.parametrize("command", ["trace", "hocolim", "bicat-trace"])
def test_cli_broken_inline_category_is_input_error(tmp_path, capsys, command):
    obj = serialize.load_json(cli.data_dir() / "idem_diagram.json")
    obj["category"] = _without_composite("idem", "e", "e")
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, command, "idem", str(path))
    assert code == 2 and out == ""
    assert err.strip() == ("error: category (inline) is not a valid table: "
                           "missing composite for ('e', 'e')")


# SHA-256 of the --format json output of trace and hocolim on the bundled
# diagrams, per pipeline.  How the chain layer stores its matrices must
# not move a byte of it.
BUNDLED_OUTPUT_SHA256 = {
    ("trace", "auto", "pushout", "pushout_span"):
        "777b23dbccbebcfd7b05a4f89d312dadf4ec03af0d17152f4f8df78dfd006315",
    ("hocolim", "auto", "pushout", "pushout_span"):
        "b49ccbd1ecc2f471644f2cb2e2fdf19b313d669b3be5688f804b77c7bcd810bd",
    ("trace", "hofin", "pushout", "pushout_span"):
        "777b23dbccbebcfd7b05a4f89d312dadf4ec03af0d17152f4f8df78dfd006315",
    ("hocolim", "hofin", "pushout", "pushout_span"):
        "b49ccbd1ecc2f471644f2cb2e2fdf19b313d669b3be5688f804b77c7bcd810bd",
    ("trace", "ei", "pushout", "pushout_span"):
        "bb0cfe6e6509c8f0e20b9ca2a0c57f90da3f3653eff5dee4ba54860be0dd05f9",
    ("hocolim", "ei", "pushout", "pushout_span"):
        "d4b4c4b3d101fb1d3914ca39aa8dd4b38bd8a218e3ae513a57437f6ac2dde4f5",
    ("trace", "auto", "BC2", "BC2_regular"):
        "cf180ac495a8f40cb7ed658b12ee20f707c5b73c3d7c4ceba25521c842e59fa0",
    ("hocolim", "auto", "BC2", "BC2_regular"):
        "f61bd7ce9734b5f7cbd447620a6aa002909430deaab101afac588aaac6994c17",
    ("trace", "groupoid", "BC2", "BC2_regular"):
        "cf180ac495a8f40cb7ed658b12ee20f707c5b73c3d7c4ceba25521c842e59fa0",
    ("hocolim", "groupoid", "BC2", "BC2_regular"):
        "f61bd7ce9734b5f7cbd447620a6aa002909430deaab101afac588aaac6994c17",
    ("trace", "ei", "BC2", "BC2_regular"):
        "bb0cfe6e6509c8f0e20b9ca2a0c57f90da3f3653eff5dee4ba54860be0dd05f9",
    ("hocolim", "ei", "BC2", "BC2_regular"):
        "6c634b73171f8d0d9083c8ed8bdde2e1080ea3443ef0a181589045dcd77f881d",
}


@pytest.mark.parametrize("key", sorted(BUNDLED_OUTPUT_SHA256))
def test_cli_bundled_output_bytes_are_pinned(capsys, key):
    command, method, cat, dia = key
    code, out, _ = run_cli(capsys, "--format", "json", command,
                           "--method", method, cat, dia)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() \
        == BUNDLED_OUTPUT_SHA256[key]


@pytest.mark.parametrize("command", ["trace", "hocolim"])
def test_cli_idem_diagram_has_no_hocolim_pipeline(capsys, command):
    code, out, err = run_cli(capsys, "--format", "json", command, "idem",
                             "idem_diagram")
    assert (code, out) == (2, "")
    assert err.strip() == ("error: no homotopy colimit pipeline applies to "
                           "this category")


@pytest.mark.parametrize("command", ["trace", "hocolim", "bicat-trace"])
def test_cli_zero_denominator_is_input_error(tmp_path, capsys, command):
    obj = serialize.load_json(cli.data_dir() / "pushout_span.json")
    obj["arrows"]["f"] = {"0": [["1/0"], ["1"]]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, command, "pushout", str(path))
    assert (code, out) == (2, "")
    assert err.strip() == "error: bad rational '1/0'"


@pytest.mark.parametrize("value, shown", [(True, "true"), (False, "false")])
@pytest.mark.parametrize("command", ["trace", "hocolim", "bicat-trace"])
def test_cli_boolean_entry_is_input_error(tmp_path, capsys, command, value,
                                          shown):
    """JSON true and false are not rationals, although Python's bool is
    an int."""
    obj = serialize.load_json(cli.data_dir() / "pushout_span.json")
    obj["arrows"]["f"] = {"0": [[value], ["1"]]}
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, command, "pushout", str(path))
    assert (code, out) == (2, "")
    assert err.strip() == "error: bad rational %s" % shown


BAD_DIMENSIONS = [(1.5, "1.5"), ("1", '"1"'), (1.0, "1.0"), (True, "true"),
                  (-1, "-1")]


@pytest.mark.parametrize("form, value, shown",
                         [("complex", v, s) for v, s in BAD_DIMENSIONS]
                         + [("integer", True, "true"), ("integer", -1, "-1")])
@pytest.mark.parametrize("command", ["trace", "hocolim"])
def test_cli_dimension_that_is_not_a_nonnegative_int_is_input_error(
        tmp_path, capsys, command, form, value, shown):
    """A complex's dimensions, and an object given as a plain dimension,
    must be nonnegative JSON ints; a bool is not one."""
    obj = serialize.load_json(cli.data_dir() / "pushout_span.json")
    if form == "complex":
        obj["objects"]["a"]["degrees"]["0"] = value
    else:
        obj["objects"]["a"] = value
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, command, "pushout", str(path))
    assert (code, out) == (2, "")
    assert err.strip() == ("error: object 'a' has dimension %s in degree 0, "
                           "expected a nonnegative integer" % shown)


def _readme_commands():
    """The argument lists of the README's ``$ tracelin`` examples."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    return [line[len("$ tracelin "):].split("#")[0].split()
            for line in readme.read_text().splitlines()
            if line.startswith("$ tracelin ")]


def test_library_runs_no_mat_arithmetic(tmp_path, capsys, monkeypatch):
    """With Mat's arithmetic made to raise, the verify suites and the
    README's examples print the bytes they print without it: inside the
    library every matrix is a SparseMat.  The patched runs go first, so
    nothing they compute is left over from an unpatched run."""
    runs = [["--format", "json", "verify", "--suite", "all", "--seed",
             str(seed), "--artifacts", str(tmp_path)] for seed in (0, 1)]
    # the README's verify prints wall times; the runs above cover it
    runs += [argv for argv in _readme_commands() if argv[0] != "verify"]
    assert len(runs) > 10

    def forbidden(*args, **kwargs):
        raise AssertionError("Mat arithmetic inside the library")

    with monkeypatch.context() as patch:
        for name in ("__matmul__", "__add__", "__sub__", "__neg__", "smul",
                     "transpose"):
            patch.setattr(Mat, name, forbidden)
        guarded = [run_cli(capsys, *argv) for argv in runs]
    assert guarded == [run_cli(capsys, *argv) for argv in runs]
    assert all(code == 0 for code, _out, _err in guarded)


def test_repeated_calls_reuse_one_parser_and_match_fresh_processes(
        capsys, monkeypatch):
    """In-process calls build the argument parser at most once, and a
    usage error or a help request leaves nothing behind: each call prints
    the bytes and returns the exit code of its own fresh interpreter."""
    runs = [["nosuch"], ["--help"],
            ["--format", "json", "coeffs", "--method", "ei", "orbit_C4"],
            ["coeffs", "one"], ["verify", "--help"], ["classes", "pushout"]]
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        if kwargs.get("prog") == "tracelin":
            built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    here = []
    for argv in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        here.append((code, out.out, out.err))
    assert len(built) <= 1
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), COLUMNS="80")
    fresh = []
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "tracelin.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert here == fresh
    assert [code for code, _out, _err in here] == [2, 0, 0, 2, 0, 0]
