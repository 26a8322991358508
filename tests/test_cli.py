import argparse
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from graev.certificates import SEARCH_WORDS_MAX
from graev.cli import NORM_LENGTH_MAX, build_parser, main
from graev.rationals import RATIONAL_DIGITS_MAX, clip
from graev.spaces import INTERVAL, SCALE_DIGITS_MAX, SPACE_RANK_MAX, chain_space, space_to_json, star_space
from graev.suite import insert_cancelling_pairs, random_any_word
from graev.words import format_word

SRC = Path(__file__).resolve().parent.parent / "src"


def _src_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))


# most transcripts drive main() in process; one subprocess test covers the
# python -m entry point end to end


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norm_interval(capsys):
    code, out, _ = run_cli(capsys, "norm", "--space", "interval", "2/5 4/5^-1")
    assert (code, out) == (0, "2/5\n")


def test_norm_default_space_is_interval(capsys):
    code, out, _ = run_cli(capsys, "norm", "2/5 4/5^-1")
    assert (code, out) == (0, "2/5\n")


def test_norm_star_space(capsys):
    code, out, _ = run_cli(capsys, "norm", "--space", "lemma32-m3", "e1 e2 e1^-1")
    assert (code, out) == (0, "1\n")


def test_norm_empty_word(capsys):
    code, out, _ = run_cli(capsys, "norm", "--space", "interval", "")
    assert (code, out) == (0, "0\n")


def test_norm_json_includes_matching(capsys):
    code, out, _ = run_cli(capsys, "norm", "--json", "--space", "lemma32-m3", "e1 e2 e1^-1")
    assert code == 0
    assert json.loads(out) == {
        "norm": "1",
        "matching": {"k": 3, "map": [3, 2, 1], "cost": "1", "pairs": [[1, 3]], "fixed": [2]},
    }


def test_norm_parse_error_names_token(capsys):
    code, out, err = run_cli(capsys, "norm", "--space", "interval", "2/5 wat")
    assert code == 2
    assert out == ""
    assert "'wat'" in err


def test_text_norm_recovers_no_matching(capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("norm_dp ran for text output")

    monkeypatch.setattr("graev.cli.norm_dp", refuse)
    assert run_cli(capsys, "norm", "--space", "lemma32-m3", "e1 e2 e1^-1") == (0, "1\n", "")
    assert run_cli(capsys, "norm", "2/5 4/5^-1") == (0, "2/5\n", "")


def test_text_norm_is_the_norm_of_the_json_output(capsys, tmp_path):
    chain4 = tmp_path / "chain4.json"
    chain4.write_text(json.dumps(space_to_json(chain_space(4))))
    rng = random.Random(2406)
    for name, space in (("interval", INTERVAL), ("lemma32-m3", star_space(3)), (str(chain4), chain_space(4))):
        for _ in range(12):
            word = insert_cancelling_pairs(rng, random_any_word(rng, space, 48, base_prob=0.2), rng.randint(1, 8), space)
            text = format_word(word)
            code, out, err = run_cli(capsys, "norm", "--space", name, "--json", text)
            assert (code, err) == (0, ""), text
            assert run_cli(capsys, "norm", "--space", name, text) == (0, f"{json.loads(out)['norm']}\n", ""), text


def test_metric_interval(capsys):
    code, out, _ = run_cli(capsys, "metric", "--space", "interval", "2/5", "4/5")
    assert (code, out) == (0, "2/5\n")


def test_metric_star(capsys):
    code, out, _ = run_cli(capsys, "metric", "--space", "lemma32-m2", "e1", "e2")
    assert (code, out) == (0, "2\n")


def test_decompose_inside_ball(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--m", "3", "e1 e2 e1^-1")
    assert code == 0
    assert json.loads(out) == {
        "m": 3,
        "target": "e1 e2 e1^-1",
        "factors": [{"g": "e1", "a": "e2"}],
    }


def test_decompose_outside_ball(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--m", "3", "e1 e2 e3")
    assert (code, out) == (1, "NONE\n")


def test_decompose_empty_word(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--m", "1", "")
    assert code == 0
    assert json.loads(out) == {"m": 1, "target": "", "factors": []}


def test_decompose_rejects_mismatched_space(capsys):
    # --m names the one space decompose works over; "interval" parses as
    # the word, which leaves "e1" over too
    with pytest.raises(SystemExit) as stop:
        main(["decompose", "--m", "3", "--space", "interval", "e1"])
    out, err = capsys.readouterr()
    assert (stop.value.code, out, err) == (2, "", "error: unrecognized arguments: --space e1\n")


def test_verify_power_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"n": 3, "c": "1/2", "target": "2/5 2/5 2/5", "bases": ["2/5"]}))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert (code, out) == (0, "PASS\n")


def test_verify_fail_names_the_reason(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"n": 3, "c": "1/3", "target": "2/5 2/5 2/5", "bases": ["2/5"]}))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out == "FAIL: N(base 1) = 2/5 >= c = 1/3\n"


def test_verify_empty_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"n": 3, "c": "1", "target": "", "bases": []}))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert (code, out) == (0, "PASS\n")


@pytest.mark.parametrize("limit, code", [(12, 0), (11, 2)])
def test_verify_bounds_the_letters_of_the_powers(capsys, tmp_path, monkeypatch, limit, code):
    # two 2-letter bases at n = 3 make 12 letters before reduction
    monkeypatch.setattr("graev.certificates.POWER_LETTERS_MAX", limit)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"n": 3, "c": "1", "target": " ".join(["2/5"] * 12), "bases": ["2/5 2/5"] * 2}))
    start = time.perf_counter()
    assert run_cli(capsys, "verify", str(path)) == (
        (0, "PASS\n", "") if code == 0 else (2, "", f"error: the powers have 12 letters, above the limit of {limit}\n")
    )
    assert time.perf_counter() - start < 1


def test_verify_conjugate_decomposition_file(capsys, tmp_path):
    path = tmp_path / "dec.json"
    path.write_text(
        json.dumps({"m": 3, "target": "e1 e2 e1^-1", "factors": [{"g": "e1", "a": "e2"}]})
    )
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert (code, out) == (0, "PASS\n")


def test_verify_bad_decomposition_file(capsys, tmp_path):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps({"m": 3, "target": "e2", "factors": [{"g": "e1", "a": "e2"}]}))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out.startswith("FAIL: product mismatch")


@pytest.mark.parametrize(
    "payload, what, product, target",
    [
        # e1^300 against e2^100: both words are far wider than an error line
        ({"n": 3, "c": "101", "target": "e2 " * 100, "bases": ["e1 " * 100]}, "powers", "e1 " * 300, "e2 " * 100),
        # a 100-letter conjugator makes a 201-letter product
        ({"m": 3, "target": "e2", "factors": [{"g": "e1 " * 100, "a": "e2"}]}, "factors",
         "e1 " * 100 + "e2" + " e1^-1" * 100, "e2"),
    ],
    ids=["power", "decomposition"],
)
def test_verify_fail_clips_each_word_of_a_product_mismatch(capsys, tmp_path, payload, what, product, target):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "verify", "--space", "lemma32-m3", str(path))
    product, target = (clip(word.strip(), 160) for word in (product, target))
    assert code == 1
    assert out == f"FAIL: product mismatch: {what} multiply to '{product}', target reduces to '{target}'\n"


def test_verify_json_mode(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"n": 3, "c": "1/2", "target": "2/5 2/5 2/5", "bases": ["2/5"]}))
    code, out, _ = run_cli(capsys, "verify", "--json", str(path))
    assert code == 0
    assert json.loads(out) == {"result": "PASS"}
    path.write_text(json.dumps({"n": 3, "c": "1/3", "target": "2/5 2/5 2/5", "bases": ["2/5"]}))
    code, out, _ = run_cli(capsys, "verify", "--json", str(path))
    assert code == 1
    assert json.loads(out) == {"result": "FAIL", "reason": "N(base 1) = 2/5 >= c = 1/3"}


def test_verify_missing_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2
    assert "nope.json" in err


def test_search_finds_certificate(capsys):
    code, out, _ = run_cli(
        capsys,
        "search",
        "--space",
        "interval",
        "2/5 2/5 2/5",
        "--c",
        "1/2",
        "--n",
        "3",
        "--budget-factors",
        "1",
        "--budget-length",
        "1",
    )
    assert code == 0
    assert json.loads(out) == {"n": 3, "c": "1/2", "target": "2/5 2/5 2/5", "bases": ["2/5"]}


def test_search_reports_unknown(capsys):
    code, out, _ = run_cli(
        capsys,
        "search",
        "--space",
        "lemma32-m2",
        "e1",
        "--c",
        "2",
        "--n",
        "3",
        "--budget-factors",
        "2",
        "--budget-length",
        "1",
    )
    assert (code, out) == (1, "UNKNOWN\n")


def test_search_rejects_negative_budgets(capsys):
    for flag, value in (("--budget-factors", "-1"), ("--budget-length", "-3")):
        code, out, err = run_cli(
            capsys, "search", "--space", "lemma32-m2", "e1 e1 e1", "--c", "2", flag, value
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: search budgets must be non-negative")
        assert err.count("\n") == 1


def test_search_refuses_an_enumeration_over_the_candidate_word_limit(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "search", "--space", "lemma32-m3", "e1 e2", "--c", "2", "--budget-length", "12"
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: base length 12 over 6 signed letters is above the limit of {SEARCH_WORDS_MAX} candidate words\n"


def test_search_accepts_zero_budgets(capsys):
    code, out, _ = run_cli(
        capsys,
        "search",
        "--space",
        "lemma32-m2",
        "e1 e1 e1",
        "--c",
        "2",
        "--budget-factors",
        "0",
        "--budget-length",
        "0",
    )
    assert (code, out) == (1, "UNKNOWN\n")


def test_verify_malformed_certificate_files_are_usage_errors(capsys, tmp_path):
    power = {"n": 3, "c": "1/2", "target": "2/5 2/5 2/5", "bases": ["2/5"]}
    decomposition = {"m": 3, "target": "e1 e2 e1^-1", "factors": [{"g": "e1", "a": "e2"}]}
    cases = [
        (dict(power, bases=None), "'bases' must be a list of strings"),
        (dict(power, bases=["2/5", 3]), "'bases' must be a list of strings"),
        (dict(power, target=None), "'target' must be a string"),
        (dict(power, c=0.5), "'c' must be a string"),
        (dict(power, n=None), "'n' must be an integer"),
        (dict(decomposition, factors=None), "'factors' must be a list of objects"),
        (dict(decomposition, factors=["e1"]), "'factors' must be a list of objects"),
        (dict(decomposition, factors=[{"g": None, "a": "e2"}]), "'g' must be a string"),
        (dict(decomposition, m=None), "'m' must be an integer"),
        (dict(power, n="3"), "'n' must be an integer"),
        (dict(power, n="\u0663"), "'n' must be an integer"),
        (dict(power, n="1_1"), "'n' must be an integer"),
        (dict(decomposition, m="3"), "'m' must be an integer"),
        ({k: v for k, v in power.items() if k != "n"}, "certificate file is missing field 'n'"),
        (dict(decomposition, factors=[{"a": "e2"}]), "certificate file is missing field 'g'"),
        (dict(decomposition, factors=[{"g": "e1", "a": "e2 e1"}]), "factor letter 'e2 e1' must be a single letter"),
        ([power], "must hold a JSON object"),
        (None, "must hold a JSON object"),
    ]
    path = tmp_path / "cert.json"
    for payload, message in cases:
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out) == (2, ""), payload
        assert message in err and err.count("\n") == 1, (payload, err)


def test_malformed_space_files_are_usage_errors(capsys, tmp_path):
    space = {"kind": "finite", "base": "e", "points": ["e", "a"], "dist": {"e,a": "1"}}
    cases = [
        (dict(space, dist={"e,a": 1}), "bad rational 1"),
        (dict(space, points="ea"), "'points' must be a list of strings"),
        (dict(space, points=["e", 1]), "'points' must be a list of strings"),
        (dict(space, base=None), "'base' must be a string"),
        (dict(space, dist=["e,a", "1"]), "'dist' must be an object"),
        (dict(space, points=["e", "a,b"]), "point name 'a,b' may not contain a comma"),
        (dict(space, dist={"e,a,a": "1"}), "bad distance key 'e,a,a', expected 'a,b'"),
        ([space], "must hold a JSON object"),
    ]
    path = tmp_path / "space.json"
    for payload, message in cases:
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "norm", "--space", str(path), "a")
        assert (code, out) == (2, ""), payload
        assert message in err and err.count("\n") == 1, (payload, err)
    path.write_text(json.dumps(space))
    assert run_cli(capsys, "norm", "--space", str(path), "a") == (0, "1\n", "")


@pytest.mark.parametrize(
    "argv, payload, message",
    [
        (["norm", "--space", "{path}", "a"], ["finite"], "the space file must hold a JSON object"),
        (["norm", "--space", "{path}", "a"], {"kind": "finite", "points": ["e", "a"], "dist": {}},
         "space file is missing field 'base'"),
        (["extend-map", "{path}"], "1/2", "the map file must hold a JSON object"),
        (["extend-map", "{path}"], {"scales": "1/2"}, "map file needs one of 'map', 'scale' or 'breakpoints'"),
        (["extend-map", "{path}"], [["0", "1"], ["0", "1/2"]], "the map file must hold a JSON object"),
        (["extend-map", "{path}"], {"points": ["0", "1"]}, "partial contraction file is missing field 'values'"),
        (["verify", "{path}"], 3, "the certificate file must hold a JSON object"),
        (["verify", "{path}"], {"n": 3, "target": "", "bases": []}, "certificate file is missing field 'c'"),
        (["verify", "{path}"], {"m": 3, "factors": []}, "certificate file is missing field 'target'"),
    ],
    ids=["space", "space-field", "map", "map-field", "partial", "partial-field", "power", "power-field",
         "decomposition-field"],
)
def test_every_file_kind_rejects_a_non_object_and_a_missing_field(capsys, tmp_path, argv, payload, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, *(arg.format(path=path) for arg in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "1e-5"],
        ["norm", "1/2_0"],
        ["norm", "\uff11/2"],
        ["norm", "1/" + "3" * RATIONAL_DIGITS_MAX],
        ["search", "--space", "lemma32-m3", "e1", "--c", "1e-5"],
        ["search", "--space", "lemma32-m3", "e1", "--c", "1/2_0"],
        ["search", "--space", "lemma32-m3", "e1", "--c", "\uff11/2"],
        ["search", "--space", "lemma32-m3", "e1", "--c", "1" * (RATIONAL_DIGITS_MAX + 1)],
    ],
)
def test_rationals_outside_the_documented_forms_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["check-sigma", "\u0663 \u0662 \u0661"],
        ["check-sigma", "0_1"],
        ["decompose", "--m", "\u0663", "e1"],
        ["decompose", "--m", "1_0", "e1"],
        ["search", "--space", "lemma32-m3", "e1", "--c", "2", "--n", "\u0663"],
        ["search", "--space", "lemma32-m3", "e1", "--c", "2", "--budget-factors", "1_0"],
        ["search", "--space", "lemma32-m3", "e1", "--c", "2", "--budget-length", "\u0662"],
        ["suite", "--select", "sigma", "--cases", "1_0"],
        ["suite", "--select", "sigma", "--seed", "\u0667"],
    ],
)
def test_integers_outside_ascii_digits_are_usage_errors(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as stop:  # argparse rejects option values itself
        code = stop.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "error: " in err.splitlines()[-1], err


@pytest.mark.parametrize("where", ["--c", "space file"])
def test_long_bad_rational_is_clipped_in_the_error(capsys, tmp_path, where):
    bad = "1/" + "x" * 3000
    if where == "--c":
        argv = ["search", "--space", "lemma32-m3", "e1", "--c", bad]
    else:
        path = tmp_path / "space.json"
        path.write_text(
            json.dumps({"kind": "finite", "base": "e", "points": ["e", "a"], "dist": {"e,a": bad}})
        )
        argv = ["norm", "--space", str(path), "a"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad rational '1/xxx")
    assert err.count("\n") == 1 and len(err.encode()) < 200, err


def test_overlong_interval_letter_names_the_digit_limit(capsys):
    code, out, err = run_cli(capsys, "norm", "1/" + "3" * RATIONAL_DIGITS_MAX)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200, err
    assert f"digits is above the limit of {RATIONAL_DIGITS_MAX}" in err
    _, _, err = run_cli(capsys, "norm", "1/x")
    assert err == "error: bad letter token '1/x': not a rational point\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--space", "{path}", "e1"],
        ["verify", "{path}"],
        ["extend-map", "{path}"],
    ],
)
def test_deeply_nested_json_files_are_usage_errors(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert (code, out, err) == (2, "", f"error: {path}: JSON nested too deeply to read\n")


def test_an_empty_certificate_file_is_not_json(capsys):
    code, out, err = run_cli(capsys, "verify", "--space", "lemma32-m3", os.devnull)
    assert (code, out) == (2, "")
    assert err == "error: the certificate file is not JSON: Expecting value: line 1 column 1 (char 0)\n"


def test_a_map_file_that_is_not_utf8_is_not_json(capsys, tmp_path):
    path = tmp_path / "map.json"
    path.write_bytes(b'\xff{"scale": "1/2"}')
    code, out, err = run_cli(capsys, "extend-map", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: the map file is not JSON: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_numeric_rationals_in_map_files_are_usage_errors(capsys, tmp_path):
    path = tmp_path / "map.json"
    for payload in ({"scale": 0.5}, {"points": [0, 1], "values": ["0", "1/2"]}):
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "extend-map", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad rational") and err.count("\n") == 1


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"map": {"e1": 2}}, "'map' must be an object from point names to point names"),
        ({"map": [1]}, "'map' must be an object from point names to point names"),
        ({"breakpoints": 5}, "'breakpoints' must be a list of [x, y] pairs"),
        ({"points": "01", "values": "00"}, "'points' must be a list of rationals"),
        ({"points": ["0", "1"], "values": "00"}, "'values' must be a list of rationals"),
        ([{"scale": "1/2"}], "the map file must hold a JSON object"),
        ({"map": {"e1": "e1 e2"}}, "map entry 'e1': 'e1 e2' must name single points"),
    ],
)
def test_malformed_map_files_are_usage_errors(capsys, tmp_path, payload, message):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "extend-map", "--space", "lemma32-m2", str(path))
    assert (code, out) == (2, "")
    assert message in err and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "payload, lengths",
    [
        ({"points": ["0", "1/2"], "values": ["0"]}, "got 2 and 1"),
        ({"points": ["0"], "values": ["0", "1/2"]}, "got 1 and 2"),
    ],
)
def test_partial_contraction_length_mismatch_is_a_usage_error(capsys, tmp_path, payload, lengths):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "extend-map", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: fields 'points' and 'values' must have the same length, {lengths}\n"


@pytest.mark.parametrize("m", [SPACE_RANK_MAX + 1, 999999999])
@pytest.mark.parametrize(
    "argv",
    [("norm", "--space", "lemma32-m{m}", "e1"), ("decompose", "--m", "{m}", "e1")],
)
def test_huge_built_in_space_rank_is_a_usage_error(capsys, argv, m):
    code, out, err = run_cli(capsys, *(arg.format(m=m) for arg in argv))
    assert (code, out) == (2, "")
    assert err == f"error: star space rank {m} is above the limit of {SPACE_RANK_MAX} generators\n"


def _star_space_file(tmp_path, rank: int) -> str:
    points = ["e"] + [f"e{i}" for i in range(1, rank + 1)]
    dist = {f"{a},{b}": "1" if a == "e" else "2" for a, b in itertools.combinations(points, 2)}
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"kind": "finite", "base": "e", "points": points, "dist": dist}))
    return str(path)


def test_space_file_at_the_rank_limit_is_read(capsys, tmp_path):
    assert run_cli(capsys, "norm", "--space", _star_space_file(tmp_path, SPACE_RANK_MAX), "e1 e64") == (0, "2\n", "")


def test_space_file_over_the_rank_limit_is_refused_before_its_table_is_built(capsys, tmp_path):
    path = _star_space_file(tmp_path, SPACE_RANK_MAX + 1)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "norm", "--space", path, "e1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: space file rank {SPACE_RANK_MAX + 1} is above the limit of {SPACE_RANK_MAX} generators\n"


@pytest.mark.parametrize("digits", ["7" * 5000, "0" * 5000 + "65"])
def test_built_in_space_rank_of_thousands_of_digits_is_a_usage_error(capsys, digits):
    code, out, err = run_cli(capsys, "norm", "--space", f"lemma32-m{digits}", "e1")
    assert (code, out) == (2, "")
    assert err == f"error: star space rank {clip(digits.lstrip('0'))} is above the limit of {SPACE_RANK_MAX} generators\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("norm", "--space", "lemma32-m0", "e1"),
        ("norm", "--space", "lemma32-m00", "e1"),
        ("decompose", "--m", "0", "e1"),
    ],
)
def test_zero_built_in_space_rank_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: star space needs at least one generator\n")


@pytest.mark.parametrize(
    "argv, what",
    [
        (("norm", "--space", "lemma32-m3", "e1 e1^-1 " * 128 + "e1"), "word"),
        (("metric", "--space", "lemma32-m3", "e1 " * 200, "e2 " * 57), "left and right words"),
        (("search", "--space", "lemma32-m3", "--c", "3", "e1 " * NORM_LENGTH_MAX + "e2"), "target"),
        (("decompose", "--m", "3", "e1 e1^-1 " * 128 + "e1"), "word"),
    ],
)
def test_word_over_the_length_cap_is_a_usage_error(capsys, argv, what):
    # letters are counted as given: the norm's word reduces to one letter
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    limit = NORM_LENGTH_MAX
    assert err == f"error: {what}: {limit + 1} letters is above the limit of {limit}\n"


def test_words_at_the_length_cap_run(capsys):
    limit, half = NORM_LENGTH_MAX, NORM_LENGTH_MAX // 2
    assert run_cli(capsys, "norm", "--space", "lemma32-m3", "e1 " * limit) == (0, f"{limit}\n", "")
    metric = run_cli(capsys, "metric", "--space", "lemma32-m3", "e1 " * half, "e2 " * half)
    assert metric == (0, f"{2 * half}\n", "")
    assert run_cli(capsys, "decompose", "--m", "3", "e1 " * limit) == (1, "NONE\n", "")


def _coprime_denominators():
    """Powers of 3, 5 and 7, then the largest power of 2 that keeps their
    product, which is also their lcm, below 10^SCALE_DIGITS_MAX: an lcm of
    exactly ``SCALE_DIGITS_MAX`` digits, each power a few hundred."""
    odd = [3**300, 5**200, 7**170]
    product = odd[0] * odd[1] * odd[2]
    two = 1
    while product * two * 2 < 10**SCALE_DIGITS_MAX:
        two *= 2
    return [two, *odd]


def test_a_common_denominator_at_the_scale_limit_prints(capsys):
    # same-sign interval letters never pair, so the norm is their sum
    under = _coprime_denominators()
    assert len(str(under[0] * under[1] * under[2] * under[3])) == SCALE_DIGITS_MAX
    total = sum(Fraction(1, q) for q in under)
    word = [f"1/{q}" for q in under]
    assert run_cli(capsys, "norm", " ".join(word)) == (0, f"{total}\n", "")
    right = " ".join(f"{q}^-1" for q in reversed(word[2:]))
    assert run_cli(capsys, "metric", " ".join(word[:2]), right) == (0, f"{total}\n", "")


@pytest.mark.parametrize("command", ["norm", "metric"])
def test_a_common_denominator_over_the_scale_limit_is_a_usage_error(capsys, command):
    # 64 letters with 100-digit denominators, an lcm of thousands of digits,
    # once normed for seconds and then failed to print
    letters = [f"1/{10**99 + k}" for k in range(64)]
    words = [" ".join(letters)] if command == "norm" else [" ".join(letters[:32]), " ".join(letters[32:])]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, *words)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: the letters' common denominator is above the limit of {SCALE_DIGITS_MAX} digits\n"


def test_a_space_table_over_the_scale_limit_is_a_usage_error(capsys, tmp_path):
    # each distance is 1 + 1/q with q a power of 3, 5 or 7 of about 400
    # digits: a metric, but the lcm of its table has about 1200 digits
    qs = [3**840, 5**573, 7**474]
    dist = {key: f"{q + 1}/{q}" for key, q in zip(("e,a", "e,b", "a,b"), qs)}
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"kind": "finite", "base": "e", "points": ["e", "a", "b"], "dist": dist}))
    code, out, err = run_cli(capsys, "norm", "--space", str(path), "a")
    assert (code, out) == (2, "")
    assert err == f"error: the space's common denominator is above the limit of {SCALE_DIGITS_MAX} digits\n"


@pytest.mark.parametrize(
    "base",
    [
        "e1 " * (NORM_LENGTH_MAX + 1),
        # the interval base of 512 letters with denominators 12 that once ran
        # for seconds of norm before verify printed FAIL
        " ".join(f"{k % 11 + 1}/12{'^-1' * (k % 2)}" for k in range(2 * NORM_LENGTH_MAX)),
    ],
    ids=["star3-over-by-one", "interval-512"],
)
def test_verify_rejects_a_base_over_the_length_cap_before_norming(capsys, tmp_path, base):
    letters = len(base.split())
    space = "lemma32-m3" if base.startswith("e1") else "interval"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"n": 3, "c": "1", "target": "", "bases": ["", base]}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--space", space, str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: base 2: {letters} letters is above the limit of {NORM_LENGTH_MAX}\n"


def test_verify_accepts_a_base_at_the_length_cap(capsys, tmp_path):
    base = "e1 " * NORM_LENGTH_MAX
    path = tmp_path / "cert.json"
    payload = {"n": 3, "c": str(NORM_LENGTH_MAX + 1), "target": base * 3, "bases": [base]}
    path.write_text(json.dumps(payload))
    assert run_cli(capsys, "verify", "--space", "lemma32-m3", str(path)) == (0, "PASS\n", "")


def test_check_sigma_accepts(capsys):
    code, out, _ = run_cli(capsys, "check-sigma", "3 2 1")
    assert (code, out) == (0, "true\n")


def test_check_sigma_rejects_crossing(capsys):
    code, out, _ = run_cli(capsys, "check-sigma", "3,4,1,2")
    assert (code, out) == (1, "false\n")


def test_check_sigma_json(capsys):
    code, out, _ = run_cli(capsys, "check-sigma", "--json", "2 1")
    assert code == 0
    assert json.loads(out) == {"k": 2, "map": [2, 1], "is_sigma": True}


def test_check_sigma_bad_input(capsys):
    code, _, err = run_cli(capsys, "check-sigma", "1 1")
    assert code == 2
    assert "permutation" in err


def test_check_sigma_takes_at_most_the_length_cap_of_images(capsys):
    limit = NORM_LENGTH_MAX
    reversal = " ".join(str(i) for i in range(limit, 0, -1))
    assert run_cli(capsys, "check-sigma", reversal) == (0, "true\n", "")
    code, out, err = run_cli(capsys, "check-sigma", f"{limit + 1} {reversal}")
    assert (code, out) == (2, "")
    assert err == f"error: permutation: {limit + 1} images is above the limit of {limit}\n"


def test_check_sigma_long_bad_input_is_clipped_in_the_error(capsys):
    code, out, err = run_cli(capsys, "check-sigma", "x" * 3000)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad permutation 'xxx")
    assert err.count("\n") == 1 and len(err.encode()) < 200, err


def test_extend_map_prints_extension(capsys, tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"points": ["0", "1/2"], "values": ["0", "1/4"]}))
    code, out, _ = run_cli(capsys, "extend-map", str(path))
    assert code == 0
    assert json.loads(out) == {
        "breakpoints": [["0", "0"], ["1/2", "1/4"], ["1", "1/4"]],
        "kind": "piecewise",
        "contraction": True,
    }


def test_extend_map_applies_to_word(capsys, tmp_path):
    path = tmp_path / "scale.json"
    path.write_text(json.dumps({"scale": "1/2"}))
    code, out, _ = run_cli(capsys, "extend-map", str(path), "2/5 4/5^-1")
    assert (code, out) == (0, "1/5 2/5^-1\n")


def test_extend_map_table_over_star_space(capsys, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"map": {"e1": "e2", "e2": "e1", "e3": "e"}}))
    code, out, _ = run_cli(
        capsys, "extend-map", "--space", "lemma32-m3", str(path), "e1 e3 e2^-1"
    )
    assert (code, out) == (0, "e2 e1^-1\n")


def test_extend_map_rejects_invalid_partial_contraction(capsys, tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"points": ["0", "1/4"], "values": ["0", "1/2"]}))
    code, _, err = run_cli(capsys, "extend-map", str(path))
    assert code == 2
    assert "not a partial contraction" in err


def test_suite_sigma_selection_passes(capsys):
    code, out, _ = run_cli(capsys, "suite", "--select", "sigma", "--seed", "7")
    assert code == 0
    assert "sigma-motzkin-counts" in out
    assert out.rstrip().endswith("RESULT: ok (2 properties, 0 failing)")


def test_suite_unknown_selection(capsys):
    code, _, err = run_cli(capsys, "suite", "--select", "bogus")
    assert code == 2
    assert "unknown suite selection" in err


def test_suite_is_deterministic_under_a_seed(capsys):
    first = run_cli(capsys, "suite", "--select", "all", "--seed", "7", "--cases", "25")
    second = run_cli(capsys, "suite", "--select", "all", "--seed", "7", "--cases", "25")
    assert first == second
    assert first[0] == 0


def test_suite_json_mode(capsys):
    code, out, _ = run_cli(capsys, "suite", "--select", "oracle", "--seed", "3", "--cases", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [r["name"] for r in payload["results"]] == [
        "oracle-dp-equals-bruteforce",
        "oracle-matching-consistent",
    ]


def test_suite_rejects_negative_case_counts(capsys):
    code, out, err = run_cli(capsys, "suite", "--select", "sigma", "--cases", "-1")
    assert (code, out) == (2, "")
    assert err == "error: the case count must be non-negative, got -1\n"


def test_cli_import_leaves_the_suite_unloaded():
    lazy = ("graev.suite", "graev.certificates", "graev.maps", "dataclasses", "inspect", "json")
    probe = (
        f"import sys, graev.cli; print([m for m in {lazy!r} if m in sys.modules]); "
        "import graev.certificates, graev.maps, graev.suite; print('dataclasses' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env())
    assert (proc.returncode, proc.stdout) == (0, "[]\nFalse\n"), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--m", "x" * 3000, "e1"],
        ["norm"],
        ["suite", "--cases", "\u0663"],
        ["frob"],
        ["norm", "e1", "two\nlines"],
    ],
)
def test_argparse_errors_are_one_clipped_line(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    out, err = capsys.readouterr()
    assert (stop.value.code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and err.endswith("\n"), err
    assert len(err.encode()) < 200, err


def test_help_still_prints_the_usage(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["norm", "--help"])
    out, err = capsys.readouterr()
    assert (stop.value.code, err) == (0, "")
    assert out.startswith("usage: graev norm [-h] [--space SPACE] [--json] word\n")


# one valid argv per command with every option it defines set
_EVERY_OPTION = {
    "norm": ["norm", "--space", "interval", "--json", "2/5 4/5^-1"],
    "metric": ["metric", "--space", "interval", "--json", "2/5", "4/5"],
    "decompose": ["decompose", "--m", "3", "e1 e2 e1^-1"],
    "verify": ["verify", "--space", "interval", "--json", "{power}"],
    "search": ["search", "--space", "interval", "2/5 2/5 2/5", "--c", "1/2", "--n", "3",
               "--budget-factors", "1", "--budget-length", "1"],
    "check-sigma": ["check-sigma", "--json", "3 2 1"],
    "extend-map": ["extend-map", "--space", "interval", "--json", "{scale}", "2/5 4/5^-1"],
    "suite": ["suite", "--json", "--seed", "3", "--select", "sigma", "--cases", "2"],
}


def _subparsers():
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_option_of_every_command_is_read(capsys, tmp_path):
    (tmp_path / "power.json").write_text(json.dumps({"n": 3, "c": "1/2", "target": "2/5 2/5 2/5", "bases": ["2/5"]}))
    (tmp_path / "scale.json").write_text(json.dumps({"scale": "1/2"}))
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parsers = _subparsers()
    assert sorted(_EVERY_OPTION) == sorted(parsers)
    for command, argv in _EVERY_OPTION.items():
        argv = [arg.format(power=tmp_path / "power.json", scale=tmp_path / "scale.json") for arg in argv]
        args = build_parser().parse_args(argv, namespace=Recording())
        reads.clear()
        assert args.func(args) == 0, capsys.readouterr()
        defined = {action.dest for action in parsers[command]._actions if action.dest != "help"}
        assert reads - {"func", "command"} == defined, command
    capsys.readouterr()


def test_the_commands_take_nineteen_options():
    options = {
        command: sorted(s for a in parser._actions if a.option_strings and a.dest != "help" for s in a.option_strings)
        for command, parser in _subparsers().items()
    }
    assert options == {
        "norm": ["--json", "--space"],
        "metric": ["--json", "--space"],
        "decompose": ["--m"],
        "verify": ["--json", "--space"],
        "search": ["--budget-factors", "--budget-length", "--c", "--n", "--space"],
        "check-sigma": ["--json"],
        "extend-map": ["--json", "--space"],
        "suite": ["--cases", "--json", "--seed", "--select"],
    }
    assert sum(map(len, options.values())) == 19


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "2/5", "--seed=1"],
        ["metric", "2/5", "4/5", "--seed=1"],
        ["decompose", "--m", "3", "e1", "--space=lemma32-m3"],
        ["decompose", "--m", "3", "e1", "--json"],
        ["decompose", "--m", "3", "e1", "--seed=1"],
        ["verify", "cert.json", "--seed=1"],
        ["search", "e1", "--c", "2", "--json"],
        ["search", "e1", "--c", "2", "--seed=1"],
        ["check-sigma", "3 2 1", "--space=interval"],
        ["check-sigma", "3 2 1", "--seed=1"],
        ["extend-map", "map.json", "--seed=1"],
        ["suite", "--select", "sigma", "--space=interval"],
    ],
    ids=lambda argv: argv[0] + argv[-1].partition("=")[0],
)
def test_removed_options_are_usage_errors(capsys, argv):
    option = argv[-1].partition("=")[0]
    with pytest.raises(SystemExit) as stop:
        main(argv)
    out, err = capsys.readouterr()
    assert (stop.value.code, out) == (2, "")
    assert err.startswith("error: unrecognized arguments: ") and err.count("\n") == 1, err
    assert option in err and len(err.encode()) < 200, err


def test_every_exported_name_resolves():
    import graev

    assert len(graev.__all__) == len(set(graev.__all__)) == 43
    for name in graev.__all__:
        value = getattr(graev, name)
        module = importlib.import_module(f"graev.{graev._MODULE_OF[name]}")
        assert value is getattr(module, name), name
    with pytest.raises(AttributeError):
        getattr(graev, "no_such_name")


def test_bad_space_argument(capsys):
    code, _, err = run_cli(capsys, "norm", "--space", "nowhere.json", "2/5")
    assert code == 2
    assert "nowhere.json" in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "graev", "norm", "--space", "interval", "2/5 4/5^-1"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "2/5\n"
