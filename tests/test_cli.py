"""CLI surface: subcommands, JSON determinism, exit codes."""
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from grascat import cli, combinat
from grascat.cli import main, subset_key
from grascat.combinat import nonfrozen_subsets
from grascat.kinematics import nc_amplitude


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_nc_count(capsys):
    code, out = run(capsys, "nc", "count", "--k", "3", "--n", "6")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 42 and data["schema"] == "grascat/1"


def test_nc_count_deterministic(capsys):
    _, out1 = run(capsys, "nc", "count", "--k", "2", "--n", "7")
    _, out2 = run(capsys, "nc", "count", "--k", "2", "--n", "7")
    assert out1 == out2


def test_nc_degree_and_decompose(tmp_path, capsys):
    blob = {"k": 3, "n": 7,
            "coeffs": {"1,3,5": "-1", "2,3,5": "1", "1,4,5": "1", "1,3,6": "1"}}
    path = tmp_path / "tripod.json"
    path.write_text(json.dumps(blob))
    code, out = run(capsys, "nc", "degree", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 2
    assert data["expansion"] == {"1,4,5": "1", "2,3,6": "1"}
    code, out = run(capsys, "decompose", "--input", str(path))
    assert json.loads(out)["expansion"] == {"1,4,5": "1", "2,3,6": "1"}



@pytest.mark.parametrize("command", [("decompose",), ("nc", "degree")])
def test_zero_expansion_builds_no_key_table(tmp_path, capsys, command):
    # a zero combination expands to {} with no fan, and its empty output
    # map with no key table, whatever the file's (k, n)
    combinat.clear_caches()
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"k": 4, "n": 11, "coeffs": {"1,3,5,7": 0, "2,4,6,8": "0/3"}}))
    code, out = run(capsys, *command, "--input", str(path))
    assert code == 0 and json.loads(out)["expansion"] == {}
    assert cli._subset_keys.cache_info().currsize == 0

def test_volume(capsys):
    code, out = run(capsys, "volume", "--k", "2", "--n", "6")
    assert code == 0 and json.loads(out)["relative_volume"] == 14


def test_pk_reports(capsys):
    code, out = run(capsys, "pk", "facets", "--k", "2", "--n", "5")
    assert code == 0 and json.loads(out)["facets"] == 5
    code, out = run(capsys, "pk", "fvector", "--k", "2", "--n", "5")
    assert code == 0
    assert json.loads(out)["f_vector"][1] == 5


def test_newton_report(capsys):
    code, out = run(capsys, "newton", "--k", "3", "--n", "6", "--fvector")
    data = json.loads(out)
    assert code == 0 and data["hrep_agrees"]
    assert data["f_vector"] == [1, 42, 84, 56, 14, 1]
    assert data["lambda"] == ["7", "7"]


def test_ucheck_single(capsys):
    code, out = run(capsys, "u-check", "--k", "4", "--n", "8", "--J", "2,3,6,8",
                    "--mode", "symbolic")
    data = json.loads(out)
    assert code == 0 and data["pass"] and data["checked"] == 1


def test_ucheck_random(capsys):
    code, out = run(capsys, "u-check", "--k", "3", "--n", "9", "--J", "1,3,5",
                    "--mode", "random", "--trials", "3", "--seed", "7")
    data = json.loads(out)
    assert code == 0 and data["pass"] and data["seed"] == 7


def test_amplitude_pk(capsys):
    code, out = run(capsys, "amplitude", "--k", "3", "--n", "6", "--pk")
    assert code == 0 and json.loads(out)["value"] == "42"


def test_amplitude_prime_benchmark(tmp_path, capsys):
    from grascat.kinematics import PRIME_ETA_36, NC_AMPLITUDE_36_VALUE
    blob = {"eta": {",".join(map(str, J)): str(v) for J, v in PRIME_ETA_36.items()}}
    path = tmp_path / "appB.json"
    path.write_text(json.dumps(blob))
    code, out = run(capsys, "amplitude", "--k", "3", "--n", "6",
                    "--eta", str(path), "--shift")
    data = json.loads(out)
    assert code == 0
    assert data["value"] == str(NC_AMPLITUDE_36_VALUE)


def test_amplitude_random_interior(capsys):
    code, out1 = run(capsys, "amplitude", "--k", "2", "--n", "6",
                     "--eta", "random-interior", "--seed", "3")
    assert code == 0
    _, out2 = run(capsys, "amplitude", "--k", "2", "--n", "6",
                  "--eta", "random-interior", "--seed", "3")
    assert out1 == out2  # identical config, byte-identical output


def test_amplitude_zero_pole_exit(tmp_path, capsys):
    blob = {"eta": {"1,3": "0", "1,4": "1", "2,4": "1", "2,5": "1", "3,5": "1"}}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(blob))
    code, out = run(capsys, "amplitude", "--k", "2", "--n", "5", "--eta", str(path))
    assert code == 1
    assert "1,3" in json.loads(out)["poles"]


@pytest.mark.parametrize("k,n,digits,quoted", [(3, 8, 100, True), (2, 5, 5000, False)],
                         ids=["value-over-4300-digits", "input-over-4300-digits"])
def test_exact_values_of_any_size_print(tmp_path, capsys, k, n, digits, quoted):
    # str() and int() refuse ints over 4300 digits unless the limit is lifted:
    # 100-digit etas at (3,8) give a value of 8710 characters, and 5000-digit
    # JSON integers are input over the limit; the file is written as text
    rng = random.Random(digits)
    texts = {J: rng.choice("123456789") + "".join(rng.choices("0123456789", k=digits - 1))
             for J in nonfrozen_subsets(k, n)}
    path = tmp_path / "eta.json"
    path.write_text('{"eta": {' + ", ".join(
        f'"{subset_key(J)}": ' + (f'"{t}"' if quoted else t) for J, t in texts.items()) + "}}")
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    code, out = run(capsys, "amplitude", "--k", str(k), "--n", str(n), "--eta", str(path))
    assert code == 0
    assert get_limit() == limit
    value = json.loads(out)["value"]
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert Fraction(value) == nc_amplitude(k, n, {J: Fraction(int(t))
                                                      for J, t in texts.items()})
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_kinematics_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "kinematics", "basis", "--k", "2", "--n", "5")
    assert code == 0 and json.loads(out)["dimension"] == 5
    blob = {"eta": {"1,3": "1", "1,4": "2", "2,4": "3", "2,5": "5", "3,5": "7"}}
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(blob))
    code, out = run(capsys, "kinematics", "eta-to-s", "--k", "2", "--n", "5",
                    "--input", str(path))
    svals = json.loads(out)["s"]
    path2 = tmp_path / "s.json"
    path2.write_text(json.dumps({"s": svals}))
    code, out = run(capsys, "kinematics", "s-to-eta", "--k", "2", "--n", "5",
                    "--input", str(path2))
    assert json.loads(out)["eta"] == blob["eta"]


def test_search(capsys):
    code, out = run(capsys, "search", "--n", "6", "--trials", "2", "--seed", "1")
    data = json.loads(out)
    assert code == 0
    assert data["quadruples"] > 0
    assert "min_flip_value" in data


def _error(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    return code, json.loads(err)


def test_decompose_subset_out_of_range(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k": 3, "n": 7, "coeffs": {"1,3,9": "1"}}))
    code, data = _error(capsys, "decompose", "--input", str(path))
    assert code == 2 and data["schema"] == "grascat/1"
    assert "1, 3, 9" in data["error"]


@pytest.mark.parametrize("command", [("decompose",), ("nc", "degree")])
@pytest.mark.parametrize("k,n,coeffs", [
    (2, 3, {"1,3": "1"}), (-1, 5, {}), (0, 5, {}), (1, 5, {"2": "1"}), (3, 4, {"1,2,4": "1"})])
def test_decompose_rejects_impossible_k_n(tmp_path, capsys, command, k, n, coeffs):
    path = tmp_path / "range.json"
    path.write_text(json.dumps({"k": k, "n": n, "coeffs": coeffs}))
    code, data = _error(capsys, *command, "--input", str(path))
    assert code == 2 and data == {"schema": "grascat/1",
                                  "error": f"need 2 <= k <= n-2, got ({k}, {n})"}


@pytest.mark.parametrize("argv", [("pk", "facets", "--k", "1", "--n", "4"),
                                  ("pk", "facets", "--k", "4", "--n", "5"),
                                  ("newton", "--k", "1", "--n", "4")])
def test_impossible_k_n_rejected(capsys, argv):
    code, data = _error(capsys, *argv)
    assert code == 2 and data["error"] == f"need 2 <= k <= n-2, got ({argv[-3]}, {argv[-1]})"


def test_ucheck_subset_of_wrong_size(capsys):
    code, data = _error(capsys, "u-check", "--k", "5", "--n", "9", "--J", "1,2,3")
    assert code == 2 and data["error"]


def test_ucheck_subset_with_spaces(capsys):
    code, out = run(capsys, "u-check", "--k", "4", "--n", "8", "--J", "2, 3,6,8")
    assert code == 0 and json.loads(out)["pass"]


@pytest.mark.parametrize("mode", ["symbolic", "random"])
def test_ucheck_empty_subset_rejected(capsys, mode):
    """--J "" is a malformed subset, not an absent --J: no identity runs."""
    code = main(["u-check", "--k", "3", "--n", "6", "--J", "", "--mode", mode])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.count("\n") == 1 and json.loads(err)["error"]


@pytest.mark.parametrize("mode", ["symbolic", "random"])
@pytest.mark.parametrize("key", ["1,3,x", "", "1,,3"])
def test_ucheck_malformed_subset_names_the_key(capsys, mode, key):
    """A --J that does not parse is an input error naming the key, not
    int()'s own message."""
    code = main(["u-check", "--k", "3", "--n", "6", "--J", key, "--mode", mode])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and json.loads(err) == {
        "schema": "grascat/1", "error": f"subset key {key!r} is not a comma-separated list of ints"}


@pytest.mark.parametrize("key", [" 1,3,5", "+1,3,5", "01,3,5", "1, 3,5 "])
def test_ucheck_subset_spellings_still_parse(capsys, key):
    code, out = run(capsys, "u-check", "--k", "3", "--n", "6", "--J", key)
    assert code == 0 and json.loads(out)["checked"] == 1


# explicit ids keep the names these cases have always run under

@pytest.mark.parametrize("argv,message", [
    pytest.param(("nc", "count", "--k", "3"), "required: --n", id="argv0"),
    pytest.param(("nc", "list"), "required: --k, --n", id="argv1"),
    pytest.param(("nc", "degree", "--k", "3", "--n", "6"), "required: --input", id="argv2"),
])
def test_nc_missing_arguments(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"error: the following arguments are {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    pytest.param(("kinematics", "eta-to-s", "--k", "3", "--n", "6"),
                 "the following arguments are required: --input",
                 id="argv0-requires --input"),
    pytest.param(("kinematics", "s-to-eta", "--k", "3", "--n", "6"),
                 "the following arguments are required: --input",
                 id="argv1-requires --input"),
    pytest.param(("amplitude", "--k", "3", "--n", "6"),
                 "one of the arguments --pk --eta is required",
                 id="argv2-requires --pk or --eta"),
])
def test_missing_input_options(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("decompose", "--input", "nope.json"),
    ("nc", "degree", "--input", "nope.json"),
    ("kinematics", "eta-to-s", "--k", "3", "--n", "6", "--input", "nope.json"),
    ("amplitude", "--k", "3", "--n", "6", "--eta", "nope.json"),
])
def test_unreadable_input_file(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, data = _error(capsys, *argv)
    assert code == 2 and data["schema"] == "grascat/1"
    assert "nope.json" in data["error"]


@pytest.mark.parametrize("cap", ["abc", "-3", "0"])
def test_bad_memory_cap_reported(capsys, monkeypatch, cap):
    monkeypatch.setenv("GRASCAT_CAP_MB", cap)
    code, data = _error(capsys, "nc", "count", "--k", "2", "--n", "5")
    assert code == 2 and "GRASCAT_CAP_MB" in data["error"]


def test_unsettable_memory_cap_reported(capsys, monkeypatch):
    import resource

    def refuse(*_args):
        raise OSError("not permitted")
    monkeypatch.setattr(resource, "setrlimit", refuse)
    monkeypatch.setenv("GRASCAT_CAP_MB", "4096")
    code, data = _error(capsys, "nc", "count", "--k", "2", "--n", "5")
    assert code == 2 and "not permitted" in data["error"]


@pytest.mark.parametrize("cap", [None, "4096"])
def test_out_of_memory_reported(capsys, monkeypatch, cap):
    import resource

    def exhaust(*_args):
        raise MemoryError
    monkeypatch.setattr(combinat, "_search_dag", exhaust)
    monkeypatch.setattr(resource, "setrlimit", lambda *_args: None)
    if cap:
        monkeypatch.setenv("GRASCAT_CAP_MB", cap)
    else:
        monkeypatch.delenv("GRASCAT_CAP_MB", raising=False)
    code, data = _error(capsys, "nc", "count", "--k", "3", "--n", "6")
    assert code == 2 and data["schema"] == "grascat/1"
    assert "out of memory" in data["error"]
    assert ("GRASCAT_CAP_MB='4096'" in data["error"]) == bool(cap)


def test_input_values_are_ints_where_integral(tmp_path):
    path = tmp_path / "coeffs.json"
    path.write_text('{"k": 3, "n": 7, "coeffs": {"1,3,5": 5, "2,3,5": "5", '
                    '"1,4,5": "3/2", "1,3,6": 2.0}}')
    values, k, n = cli._load_subset_map(path, "coeffs")
    assert (k, n) == (3, 7)
    assert values == {(1, 3, 5): 5, (2, 3, 5): 5, (1, 4, 5): Fraction(3, 2), (1, 3, 6): 2}
    assert {J: type(v) for J, v in values.items()} == {
        (1, 3, 5): int, (2, 3, 5): int, (1, 4, 5): Fraction, (1, 3, 6): int}


@pytest.mark.parametrize("command", [("decompose",), ("nc", "degree")])
@pytest.mark.parametrize("key,value", [("coeffs", None), ("k", None), ("n", None),
                                       ("coeffs", [1]), ("k", "3"), ("k", True),
                                       ("n", True)])
def test_coeffs_input_missing_or_mistyped_key(tmp_path, capsys, command, key, value):
    blob = {"k": 3, "n": 7, "coeffs": {"1,3,5": "1"}}
    if value is None:
        del blob[key]
    else:
        blob[key] = value
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(blob))
    code, data = _error(capsys, *command, "--input", str(path))
    assert code == 2 and data["schema"] == "grascat/1"
    assert repr(key) in data["error"]


@pytest.mark.parametrize("argv,key", [
    (("amplitude", "--k", "2", "--n", "5", "--eta"), "eta"),
    (("kinematics", "eta-to-s", "--k", "2", "--n", "5", "--input"), "eta"),
    (("kinematics", "s-to-eta", "--k", "2", "--n", "5", "--input"), "s"),
])
@pytest.mark.parametrize("blob", [{"values": {"1,3": "1"}}, {"eta": [1], "s": [1]}, 3])
def test_subset_map_input_missing_or_mistyped_key(tmp_path, capsys, argv, key, blob):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(blob))
    code, data = _error(capsys, *argv, str(path))
    assert code == 2 and data["schema"] == "grascat/1"
    assert repr(key) in data["error"]


@pytest.mark.parametrize("value", [None, True, [1], {"1": 1}, "1/0"])
@pytest.mark.parametrize("argv,blob", [
    (("decompose", "--input"), lambda v: {"k": 3, "n": 7, "coeffs": {"1,3,5": v}}),
    (("amplitude", "--k", "2", "--n", "5", "--eta"), lambda v: {"eta": {"1,3": v}}),
])
def test_non_numeric_input_value(tmp_path, capsys, argv, blob, value):
    path = tmp_path / "value.json"
    path.write_text(json.dumps(blob(value)))
    code, data = _error(capsys, *argv, str(path))
    assert code == 2 and data["schema"] == "grascat/1"
    assert f"{path}: input value {json.dumps(value)} is not a number" == data["error"]


@pytest.mark.parametrize("argv,text", [
    (("decompose", "--input"), '{"k": 3, "n": 6, "coeffs": {"1,3,5": 1e1000000000}}'),
    (("decompose", "--input"), '{"k": 3, "n": 6, "coeffs": {"1,3,5": -2.5E+4301}}'),
    (("amplitude", "--k", "3", "--n", "6", "--eta"), '{"eta": {"1,3,5": "1e-1000000000"}}'),
    (("amplitude", "--k", "3", "--n", "6", "--eta"), '{"eta": {"1,3,5": "1.5E-4_301"}}'),
], ids=["json-number", "json-number-capital", "string", "string-underscores"])
def test_huge_decimal_exponent_is_rejected(tmp_path, capsys, argv, text):
    # Fraction would build 10 ** exponent: an exponent over 4300 in
    # magnitude is refused before any digit is made
    path = tmp_path / "big.json"
    path.write_text(text)
    code, data = _error(capsys, *argv, str(path))
    assert code == 2 and data["schema"] == "grascat/1"
    assert data["error"].startswith(f"{path}: input value ")
    assert data["error"].endswith(f"has a decimal exponent over {cli.MAX_EXPONENT}")
    assert cli.MAX_EXPONENT == 4300


@pytest.mark.parametrize("value,want", [("1e4300", "1" + "0" * 4300),
                                        ('"1E-4_300"', "1/1" + "0" * 4300)])
def test_decimal_exponent_at_the_limit_parses(tmp_path, capsys, value, want):
    path = tmp_path / "limit.json"
    path.write_text('{"k": 3, "n": 6, "coeffs": {"1,3,5": %s}}' % value)
    code, out = run(capsys, "decompose", "--input", str(path))
    assert code == 0 and json.loads(out)["expansion"] == {"1,3,5": want}


@pytest.mark.parametrize("argv,blob", [
    (("decompose", "--input"), lambda v: {"k": 3, "n": 7, "coeffs": {"1,3,5": v}}),
    (("kinematics", "eta-to-s", "--k", "2", "--n", "5", "--input"),
     lambda v: {"eta": {"1,3": v, "1,4": 2, "2,4": 3, "2,5": 1, "3,5": 1}}),
])
def test_json_decimal_is_read_exactly(tmp_path, capsys, argv, blob):
    outs = []
    for name, value in (("decimal", 0.1), ("string", "1/10")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(blob(value)))
        code, out = run(capsys, *argv, str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("subset,message", [
    ("1,2,9", "not inside [1, 6]"), ("0,2,4", "not inside [1, 6]"),
    ("1,2", "expected a 3-element subset"), ("1,2,4,5", "expected a 3-element subset"),
    ("2,1,4", "strictly increasing"), ("1,1,4", "strictly increasing"),
])
@pytest.mark.parametrize("argv,key", [
    (("amplitude", "--k", "3", "--n", "6", "--eta"), "eta"),
    (("kinematics", "eta-to-s", "--k", "3", "--n", "6", "--input"), "eta"),
    (("kinematics", "s-to-eta", "--k", "3", "--n", "6", "--input"), "s"),
])
def test_subset_map_bad_key(tmp_path, capsys, argv, key, subset, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({key: {subset: "5"}}))
    code, data = _error(capsys, *argv, str(path))
    assert code == 2 and data["schema"] == "grascat/1"
    assert message in data["error"]


@pytest.mark.parametrize("argv,zero_code", [
    (("amplitude", "--k", "3", "--n", "6", "--eta"), 1),  # the missing etas are poles
    (("kinematics", "eta-to-s", "--k", "3", "--n", "6", "--input"), 0),
])
def test_frozen_eta_key(tmp_path, capsys, argv, zero_code):
    path = tmp_path / "frozen.json"
    path.write_text(json.dumps({"eta": {"1,2,3": "5", "1,2,4": "1"}}))
    code, data = _error(capsys, *argv, str(path))
    assert code == 2 and data["schema"] == "grascat/1"
    assert "frozen subset 1,2,3" in data["error"]
    # a frozen eta is zero on K(k,n), so giving it as zero is allowed;
    # eta-to-s needs every nonfrozen eta, amplitude reads missing ones as poles
    etas = {"1,2,3": "0", "1,2,4": "1"}
    if argv[0] == "kinematics":
        etas.update({",".join(map(str, J)): "1" for J in nonfrozen_subsets(3, 6)})
    path.write_text(json.dumps({"eta": etas}))
    assert main([*argv, str(path)]) == zero_code


def test_eta_to_s_needs_every_nonfrozen_eta(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"eta": {"1,2,4": 5, "1,3,5": 2}}))
    code, data = _error(capsys, "kinematics", "eta-to-s", "--k", "3", "--n", "6",
                        "--input", str(path))
    assert code == 2 and data["schema"] == "grascat/1"
    # the first nonfrozen subset missing, in sorted order
    assert data["error"].endswith("no eta for the subset 1,2,5")
    assert capsys.readouterr().out == ""


def test_s_to_eta_needs_momentum_conservation(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"s": {"1,2,4": 1}}))
    code, data = _error(capsys, "kinematics", "s-to-eta", "--k", "3", "--n", "6",
                        "--input", str(path))
    assert code == 2 and data["schema"] == "grascat/1"
    assert "momentum conservation" in data["error"]


def test_amplitude_shift_builds_no_kinematic_basis(capsys, monkeypatch):
    from grascat.kinematics import kin_basis
    monkeypatch.chdir(Path(__file__).parent / "corpus")
    combinat.clear_caches()
    code, _ = run(capsys, "amplitude", "--k", "3", "--n", "8", "--eta", "eta_3_8.json",
                  "--shift")
    assert code == 0
    assert kin_basis.cache_info().currsize == 0


def test_coeffs_input_not_an_object(tmp_path, capsys):
    path = tmp_path / "number.json"
    path.write_text("3")
    code, data = _error(capsys, "decompose", "--input", str(path))
    assert code == 2 and "not an object" in data["error"]


@pytest.mark.parametrize("source", [("--pk",), ("--eta", "random-interior")])
def test_amplitude_shift_needs_k3(capsys, source):
    with pytest.raises(SystemExit) as exc:
        main(["amplitude", "--k", "2", "--n", "6", *source, "--shift"])
    assert exc.value.code == 2
    assert "--shift is defined for k = 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("u-check", "--k", "3", "--n", "6", "--mode", "random", "--trials", "-3"),
    ("u-check", "--k", "3", "--n", "6", "--J", "1,2,4", "--mode", "random", "--trials", "0"),
    ("search", "--n", "7", "--trials", "0"),
])
def test_trials_below_one_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "--trials must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("nc", "count", "--k", "3", "--n", "6", "--max-cliques", "-5"),
    ("volume", "--k", "3", "--n", "6", "--max-cliques", "0"),
    ("amplitude", "--k", "3", "--n", "6", "--pk", "--max-cliques", "-1"),
])
def test_max_cliques_below_one_rejected(capsys, argv):
    # otherwise it would be reported as "more than -5 maximal collections"
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"--max-cliques must be at least 1, not {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["eta-to-s", "s-to-eta"])
def test_kinematics_rejects_input_before_building_basis(tmp_path, capsys, action):
    from grascat.kinematics import kin_basis
    key = "eta" if action == "eta-to-s" else "s"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({key: {"1,2,3,4,6": "5"}}))
    combinat.clear_caches()
    code, data = _error(capsys, "kinematics", action, "--k", "4", "--n", "9",
                        "--input", str(path))
    assert code == 2 and "expected a 4-element subset" in data["error"]
    assert kin_basis.cache_info().currsize == 0


@pytest.mark.parametrize("argv,text,message", [
    (("decompose", "--input"), '{"k": 3, "n": 6, "coeffs": {"1,3,5": 1, " 1,3,5": 2}}',
     "two coeffs keys name the subset 1,3,5"),
    (("decompose", "--input"), '{"k": 3, "n": 6, "coeffs": {"1,3,5": 1, "1,3,5": 2}}',
     "input JSON repeats the key '1,3,5'"),
    (("amplitude", "--k", "3", "--n", "6", "--eta"), '{"eta": {"1,2,4": 5, "01,2,4": 7}}',
     "two eta keys name the subset 1,2,4"),
    (("kinematics", "eta-to-s", "--k", "3", "--n", "6", "--input"),
     '{"eta": {"1,2,4": 5, "1, 2,4": 7}}', "two eta keys name the subset 1,2,4"),
    (("kinematics", "s-to-eta", "--k", "3", "--n", "6", "--input"),
     '{"s": {"1,2,4": 5, "1,2,4": 7}}', "input JSON repeats the key '1,2,4'"),
])
def test_two_keys_naming_one_subset_rejected(tmp_path, capsys, argv, text, message):
    # otherwise the later value would win without a word
    path = tmp_path / "twice.json"
    path.write_text(text)
    code, data = _error(capsys, *argv, str(path))
    assert code == 2 and data["schema"] == "grascat/1"
    assert data["error"] == f"{path}: {message}"


# spellings of a subset key that are not the canonical "1,3,5": each misses
# the key table and is parsed, and checked unless its subset is in the table
SPELLINGS = [lambda t: "0" + t, lambda t: " " + t, lambda t: "+" + t, lambda t: t + " ",
             lambda t: t.replace(",", ", "), lambda t: ",".join("0" + a for a in t.split(","))]


@pytest.mark.parametrize("key", ["eta", "s"])
@pytest.mark.parametrize("k,n", [(3, 6), (3, 8), (4, 8)])
def test_spelled_keys_read_as_canonical_ones(tmp_path, monkeypatch, key, k, n):
    rng = random.Random(100 * k + n)
    nonfrozen = set(nonfrozen_subsets(k, n))
    # every k-subset, the frozen ones with eta 0, in a seeded order
    subsets = list(combinations(range(1, n + 1), k))
    rng.shuffle(subsets)
    values = {J: 0 if key == "eta" and J not in nonfrozen
              else rng.choice([rng.randint(-9, 9), f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}"])
              for J in subsets}
    # each names a k-subset of [1, n], in the key table, so none is checked
    checked = []
    monkeypatch.setattr(combinat, "check_subset", lambda *a: checked.append(a))
    reads = []
    for name, spell in (("canonical", lambda t, _i: t),
                        ("spelled", lambda t, i: SPELLINGS[i % len(SPELLINGS)](t))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({key: {spell(subset_key(J), i): v
                                          for i, (J, v) in enumerate(values.items())}}))
        reads.append(cli._load_subset_map(str(path), key, k, n))
    want = {J: cli.parse_value(v) for J, v in values.items()}
    assert reads[0] == reads[1] == (want, k, n)
    assert list(reads[0][0]) == list(reads[1][0]) == subsets and checked == []
    # written back, the keys are the canonical ones in sorted order
    assert (list(cli._dump_subset_map(want, k, n).items())
            == [(subset_key(J), str(want[J])) for J in sorted(want)])


@pytest.mark.parametrize("action", ["eta-to-s", "s-to-eta"])
def test_kinematics_bad_shape_fails_before_the_file(tmp_path, capsys, action):
    # the shape's own message, naming no file, even for a file that is missing
    code, data = _error(capsys, "kinematics", action, "--k", "1", "--n", "6",
                        "--input", str(tmp_path / "nope.json"))
    assert code == 2 and data["error"] == "need 2 <= k <= n-2, got (1, 6)"


def test_max_cliques_only_where_read(capsys):
    # pk never enumerates collections, so it takes no --max-cliques
    with pytest.raises(SystemExit) as exc:
        main(["pk", "fvector", "--k", "3", "--n", "6", "--max-cliques", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-cliques 5" in capsys.readouterr().err
    code, data = _error(capsys, "nc", "count", "--k", "3", "--n", "7", "--max-cliques", "3")
    assert code == 2 and data["error"] == "more than 3 maximal collections for (3, 7)"


@pytest.mark.parametrize("argv,option", [
    (("nc", "count", "--k", "3", "--n", "6", "--max", "5"), "--max 5"),
    (("search", "--n", "8", "--trial", "5"), "--trial 5"),
    (("u-check", "--k", "3", "--n", "6", "--J", "1,3,5", "--mo", "random"), "--mo random"),
])
def test_option_prefixes_are_rejected(capsys, argv, option):
    # a prefix of an option is not the option
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {option}\n" in capsys.readouterr().err


def _run_with_closed_stdout(tmp_path, *argv):
    """(exit code, stderr) of the CLI in a fresh process whose stdout is a
    pipe that nothing reads: its read end is closed before the process
    starts, so every write to stdout fails with EPIPE."""
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    try:
        proc = subprocess.run([sys.executable, "-m", "grascat.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
                              timeout=60)
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


def test_closed_stdout_exits_1_without_a_report(tmp_path):
    # `grascat pk facets ... | head -1`, with the reader gone before the
    # first write
    code, err = _run_with_closed_stdout(tmp_path, "pk", "facets", "--k", "3", "--n", "6")
    assert (code, err) == (1, "")
    # an unreadable input file is still an input error
    code, err = _run_with_closed_stdout(tmp_path, "decompose", "--input", "nope.json")
    assert code == 2 and "nope.json" in json.loads(err)["error"]


TRIPOD_37 = str(Path(__file__).parent / "corpus" / "tripod_37.json")


@pytest.mark.parametrize("argv,message", [
    pytest.param(("nc", "degree", "--input", TRIPOD_37, "--max-cliques", "1"),
                 "unrecognized arguments: --max-cliques 1",
                 id="argv0-nc degree does not read --max-cliques"),
    pytest.param(("nc", "degree", "--input", TRIPOD_37, "--k", "3"),
                 "unrecognized arguments: --k 3", id="argv1-nc degree does not read --k"),
    pytest.param(("nc", "degree", "--input", TRIPOD_37, "--n", "7"),
                 "unrecognized arguments: --n 7", id="argv2-nc degree does not read --n"),
    pytest.param(("nc", "count", "--k", "3", "--n", "6", "--input", TRIPOD_37),
                 f"unrecognized arguments: --input {TRIPOD_37}",
                 id="argv3-nc count does not read --input"),
    pytest.param(("nc", "list", "--k", "2", "--n", "6", "--input", TRIPOD_37),
                 f"unrecognized arguments: --input {TRIPOD_37}",
                 id="argv4-nc list does not read --input"),
])
def test_nc_rejects_options_its_action_does_not_read(capsys, argv, message):
    # otherwise the option would be accepted and ignored without a word
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"error: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (("kinematics", "basis", "--k", "3", "--n", "6", "--input", "nope.json"),
     "error: unrecognized arguments: --input nope.json"),
    (("amplitude", "--k", "3", "--n", "6", "--pk", "--eta", "eta_3_7.json"),
     "error: argument --eta: not allowed with argument --pk"),
    (("nc", "--k", "3", "--n", "6", "count"), "error: argument action: invalid choice: '3'"),
    (("amplitude", "--k", "3", "--n", "6", "--pk", "--unsafe-large"),
     "error: unrecognized arguments: --unsafe-large"),
])
def test_unread_or_conflicting_options_rejected(capsys, argv, message):
    # kinematics basis reads no file, amplitude reads one eta source,
    # options follow the action, and the shift's n > 9 warning is a Python
    # warning (python -W), not an option
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_text_format(capsys):
    code, out = run(capsys, "nc", "count", "--k", "3", "--n", "6", "--format", "text")
    assert code == 0
    assert out == ("schema: grascat/1\ncommand: nc count\nk: 3\nn: 6\n"
                   "count: 42\ncatalan: 42\npass: True\n")


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out = run(capsys, "nc", "count", "--k", "3", "--n", "6", "--output", str(path))
    assert code == 0 and out == ""
    corpus = Path(__file__).parent / "corpus"
    assert path.read_bytes() == (corpus / "nc_count_3_6.out").read_bytes()


def test_empty_output_path_rejected(capsys):
    """--output "" names no file; it is not an absent --output."""
    code = main(["nc", "count", "--k", "3", "--n", "6", "--output", ""])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.count("\n") == 1 and json.loads(err)["error"]


@pytest.mark.parametrize("mode", ["symbolic", "random"])
@pytest.mark.parametrize("key", ["1,3,x", "", "1,,3"])
def test_ucheck_malformed_subset_names_the_key(capsys, mode, key):
    """A --J that does not parse is an input error naming the key, not
    int()'s own message."""
    code = main(["u-check", "--k", "3", "--n", "6", "--J", key, "--mode", mode])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and json.loads(err) == {
        "schema": "grascat/1", "error": f"subset key {key!r} is not a comma-separated list of ints"}


@pytest.mark.parametrize("key", [" 1,3,5", "+1,3,5", "01,3,5", "1, 3,5 "])
def test_ucheck_subset_spellings_still_parse(capsys, key):
    code, out = run(capsys, "u-check", "--k", "3", "--n", "6", "--J", key)
    assert code == 0 and json.loads(out)["checked"] == 1


def test_capped_nc_count_stops_early(capsys):
    """A capped count stops with the cap message and exit 2, read off
    (k, n) before any build: neither the noncrossing graph nor the search
    DAG is cached."""
    combinat.clear_caches()
    code, data = _error(capsys, "nc", "count", "--k", "5", "--n", "12",
                        "--max-cliques", "1000")
    assert code == 2
    assert data["error"] == "more than 1000 maximal collections for (5, 12)"
    assert combinat._noncrossing_graph.cache_info().currsize == 0
    assert combinat._build_search_dag.cache_info().currsize == 0


def test_parser_is_built_once(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    first = capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["--help"])
    assert capsys.readouterr().out == first == cli.build_parser().format_help()
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("command", [("decompose",), ("nc", "degree")])
@pytest.mark.parametrize("subset,message", [
    ("2,1,4", "subset must be strictly increasing: (2, 1, 4)"),
    ("1,2,4,5", "expected a 3-element subset, got (1, 2, 4, 5)"),
])
def test_coeffs_bad_key(tmp_path, capsys, command, subset, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k": 3, "n": 7, "coeffs": {subset: "1"}}))
    code, data = _error(capsys, *command, "--input", str(path))
    assert code == 2 and data == {"schema": "grascat/1", "error": f"{path}: {message}"}


def test_coeffs_keys_and_values_read_in_file_order(tmp_path, capsys):
    # each key is checked before its value is read, so the first bad entry
    # is the one reported
    path = tmp_path / "bad.json"
    path.write_text('{"k": 3, "n": 7, "coeffs": {"1,2,9": "1", "1,2,4": "q"}}')
    code, data = _error(capsys, "decompose", "--input", str(path))
    assert code == 2 and data["error"] == f"{path}: subset (1, 2, 9) not inside [1, 7]"


ETA_37 = str(Path(__file__).parent / "corpus" / "eta_3_7.json")


@pytest.mark.parametrize("argv,message", [
    pytest.param(("amplitude", "--k", "3", "--n", "6", "--pk", "--seed", "3"),
                 "--seed is read only with --eta random-interior", id="amplitude --pk --seed"),
    pytest.param(("amplitude", "--k", "3", "--n", "7", "--eta", ETA_37, "--seed", "0"),
                 "--seed is read only with --eta random-interior",
                 id="amplitude --eta FILE --seed"),
    pytest.param(("u-check", "--k", "3", "--n", "6", "--seed", "4"),
                 "--seed is read only with --mode random", id="symbolic u-check --seed"),
    pytest.param(("u-check", "--k", "3", "--n", "6", "--J", "1,2,4", "--trials", "5"),
                 "--trials is read only with --mode random", id="symbolic u-check --trials"),
])
def test_seed_and_trials_rejected_where_nothing_random_runs(capsys, argv, message):
    # otherwise they would be accepted, and the seed echoed, with no effect
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"error: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("amplitude", "--k", "3", "--n", "7", "--eta"),
    ("kinematics", "eta-to-s", "--k", "3", "--n", "7", "--input"),
])
def test_well_formed_eta_keys_skip_the_subset_checks(tmp_path, capsys, monkeypatch, argv):
    # every key of a well-formed file is a nonfrozen subset: one set lookup
    # each, no check_subset and no is_frozen once the shape's set is built
    path = tmp_path / "eta.json"
    path.write_text(json.dumps({"eta": {subset_key(J): str(t % 5 + 1)
                                        for t, J in enumerate(nonfrozen_subsets(3, 7))}}))
    assert main([*argv, str(path)]) == 0
    first = capsys.readouterr().out
    calls = []
    for name in ("check_subset", "is_frozen"):
        real = getattr(combinat, name)
        monkeypatch.setattr(combinat, name,
                            lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    assert main([*argv, str(path)]) == 0
    assert calls == [] and capsys.readouterr().out == first


@pytest.mark.parametrize("etas,message", [
    ({"2,1,4": 5}, "subset must be strictly increasing: (2, 1, 4)"),
    ({"7,1,2": 5}, "subset must be strictly increasing: (7, 1, 2)"),
    ({"1,2,4": 5, "01,2,4": 7}, "two eta keys name the subset 1,2,4"),
    ({"1,2,4": 5, " 1,2,4": 7}, "two eta keys name the subset 1,2,4"),
    ({"1,2,3": 5}, "eta of the frozen subset 1,2,3 is zero on K(3,7), not 5"),
    ({"01,2,3": 5}, "eta of the frozen subset 01,2,3 is zero on K(3,7), not 5"),
    ({"1,2,9": 5}, "subset (1, 2, 9) not inside [1, 7]"),
    ({"0,2,4": 5}, "subset (0, 2, 4) not inside [1, 7]"),
    ({"1,2": 5}, "expected a 3-element subset, got (1, 2)"),
    ({"a,2,4": 5}, "subset key 'a,2,4' is not a comma-separated list of ints"),
    ({"+1,2,4": 5, "1,2,4": 7}, "two eta keys name the subset 1,2,4"),
    ({" 1,2,4": 5, "1,2,4 ": 7}, "two eta keys name the subset 1,2,4"),
    ({"1, 2,4": True}, "input value true is not a number"),
    ({"1,2,4": None}, "input value null is not a number"),
    ({"+1,2,4": None}, "input value null is not a number"),
])
@pytest.mark.parametrize("argv", [
    ("amplitude", "--k", "3", "--n", "7", "--eta"),
    ("kinematics", "eta-to-s", "--k", "3", "--n", "7", "--input"),
])
def test_malformed_eta_key_messages(tmp_path, capsys, argv, etas, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"eta": etas}))
    code, data = _error(capsys, *argv, str(path))
    assert code == 2 and data == {"schema": "grascat/1", "error": f"{path}: {message}"}


def _flip_quadruples_per_pair(k, n):
    """The former `cli._flip_quadruples`, the oracle below: pairs grouped by
    their sparse gamma sum, each pair tested with is_noncrossing."""
    from itertools import combinations

    from grascat.roots import gamma_hat, grid_add
    groups = {}
    for A, B in combinations(nonfrozen_subsets(k, n), 2):
        vec = tuple(sorted(grid_add(gamma_hat(A, k, n), gamma_hat(B, k, n)).items()))
        groups.setdefault(vec, []).append((A, B))
    quads = []
    for pairs in groups.values():
        if len(pairs) < 2:
            continue
        nc = [(A, B) for (A, B) in pairs if combinat.is_noncrossing(A, B, n)]
        if len(nc) != 1:
            continue
        I, J = nc[0]
        for (A, B) in pairs:
            if (A, B) != (I, J):
                quads.append((I, J, A, B))
    return quads


@pytest.mark.parametrize("n", range(6, 11))
def test_flip_quadruples_match_the_per_pair_grouping(n):
    quads = cli._flip_quadruples(3, n)
    assert quads and quads == _flip_quadruples_per_pair(3, n)
