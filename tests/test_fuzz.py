"""Malformed-input fuzz: seeded mutations of valid CLI inputs never end in a traceback.

Valid space, point-map, partial-contraction and certificate files, and valid
word, permutation and rational arguments, are mutated with a fixed seed:
truncation, type swaps, deep nesting, huge numbers, Unicode digits and
non-UTF-8 bytes.  Each case runs through ``cli.main`` in process and must
return 0, 1 or 2 or leave through argparse's ``SystemExit(2)``; an exit 2
prints one clipped ``error:`` line.  A valid word has at most 5 letters and a
mutation adds at most one, so no case is a slow norm.  A few cases run as
``python -m graev`` processes too.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from graev.certificates import POWER_EXPONENT_MAX
from graev.cli import main
from graev.rationals import clip
from graev.spaces import SPACE_RANK_MAX

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 2024
CASES = 400

# (file content, command line with {} for the file's path)
FILES = [
    (
        {"kind": "finite", "base": "e", "points": ["e", "a", "b"],
         "dist": {"e,a": "1", "e,b": "3/2", "a,b": "2"}},
        ("norm", "--space", "{}", "a b^-1 a"),
    ),
    ({"kind": "interval"}, ("metric", "--space", "{}", "1/3", "2/3^-1")),
    ({"map": {"e1": "e2", "e2": "e"}}, ("extend-map", "--space", "lemma32-m3", "{}", "e1 e2 e3")),
    ({"scale": "1/2"}, ("extend-map", "{}", "2/5 4/5^-1")),
    ({"breakpoints": [["0", "0"], ["1/2", "1/4"], ["1", "1/4"]]}, ("extend-map", "{}", "3/4")),
    ({"points": ["0", "1/2"], "values": ["0", "1/4"]}, ("extend-map", "{}")),
    ({"n": 3, "c": "1/2", "target": "2/5 2/5 2/5", "bases": ["2/5"]}, ("verify", "{}")),
    (
        {"m": 3, "target": "e1 e2 e1^-1", "factors": [{"g": "e1", "a": "e2"}]},
        ("verify", "{}"),
    ),
]

# (valid argument, command line with {} for it)
STRINGS = [
    ("2/5 4/5^-1 1/3 0", ("norm", "--space", "interval", "{}")),
    ("e1 e2 e1^-1 e3", ("norm", "--space", "lemma32-m3", "{}")),
    ("1/2 2/3^-1", ("metric", "--space", "interval", "{}", "1/4")),
    ("e1 e2 e1^-1", ("decompose", "--m", "3", "{}")),
    ("2/5 2/5 2/5", ("search", "--space", "interval", "{}", "--c", "1/2",
                     "--budget-factors", "2", "--budget-length", "1")),
    ("3 2 1", ("check-sigma", "{}")),
    ("3,4,1,2,5", ("check-sigma", "{}")),
    ("1/2", ("search", "--space", "interval", "2/5 2/5 2/5", "--c", "{}",
             "--budget-factors", "1", "--budget-length", "1")),
    ("0.4", ("norm", "--space", "interval", "{}")),
    ("5", ("search", "--space", "interval", "2/5", "--c", "1/2", "--n", "{}")),
    ("3", ("decompose", "--m", "{}", "e1 e2")),
]

SWAPS = [None, True, 0, -7, 1.5, "", "x", "e1", "1/0", [], {}, ["1/2"], {"n": 3}]
HUGE = ["9" * 5000, "1/" + "7" * 999, "7" * 1001, "-" + "9" * 40, str(10**30 + 1)]
UNICODE_DIGITS = [0x0660, 0x06F0, 0x0966, 0xFF10, 0x1D7CE]  # Arabic-Indic, Devanagari, fullwidth, math


def unicode_digits(rng: random.Random, text: str) -> str:
    zero = rng.choice(UNICODE_DIGITS)
    return "".join(chr(zero + int(ch)) if ch.isdigit() and rng.random() < 0.5 else ch for ch in text)


def mutate_string(rng: random.Random, text: str) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        text = text[: rng.randrange(len(text) + 1)]
    elif kind == 1:
        text = unicode_digits(rng, text)
    elif kind == 2:
        tokens = text.split() or [""]
        tokens[rng.randrange(len(tokens))] = rng.choice(HUGE)
        text = " ".join(tokens)
    elif kind == 3:
        tokens = text.split() or [""]
        tokens[rng.randrange(len(tokens))] = rng.choice(
            ["e1", "1/2", "^-1", "e1^2", "e1^-1^-1", "-1", "1e5", "nan", "1/0", "½", "\x00", ","]
        )
        text = " ".join(tokens)
    elif kind == 4:
        text = "(" * 50 + text + ")" * 50
    else:
        spot = rng.randrange(len(text) + 1)
        text = text[:spot] + rng.choice(["\u00a0", "\u2003", "\n", "\t", "_", "/"]) + text[spot:]
    return text


def mutate_value(rng: random.Random, value):
    """``value`` with one node replaced, nested or given huge or Unicode digits."""
    if isinstance(value, (dict, list)) and value and rng.random() < 0.7:
        keys = list(value) if isinstance(value, dict) else range(len(value))
        key = rng.choice(list(keys))
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[key] = mutate_value(rng, value[key])
        return copy
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(SWAPS)
    if kind == 1:
        for _ in range(rng.choice([2, 30])):
            value = [value] if rng.random() < 0.5 else {"x": value}
        return value
    if kind == 2:
        return rng.choice(HUGE + [10**30 + 1, 3 + 2 * 10**12])
    return unicode_digits(rng, value) if isinstance(value, str) else value


def mutate_file(rng: random.Random, data) -> bytes:
    kind = rng.randrange(6)
    if kind < 3:
        return json.dumps(mutate_value(rng, data)).encode("utf-8")
    text = json.dumps(data).encode("utf-8")
    spot = rng.randrange(len(text) + 1)
    if kind == 3:
        return text[:spot]
    if kind == 4:
        return text[:spot] + rng.choice([b"\xff\xfe", b"\xc3", b"\x80"]) + text[spot:]
    return rng.choice([b"[" * 100000, b'{"a":' * 100000, b"9" * 5000, text + b"]"])


def fuzz_cases(tmp_path: Path):
    """Every case's command line, all from one seeded generator."""
    rng = random.Random(SEED)
    for index in range(CASES):
        if rng.random() < 0.5:
            data, template = rng.choice(FILES)
            path = tmp_path / f"case{index}.json"
            path.write_bytes(mutate_file(rng, data))
            argument = str(path)
        else:
            valid, template = rng.choice(STRINGS)
            argument = mutate_string(rng, valid)
        yield [argument if part == "{}" else part for part in template]


def test_malformed_inputs_end_in_an_exit_code(capsys, tmp_path):
    for argv in fuzz_cases(tmp_path):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        err = capsys.readouterr().err
        shown = repr(argv)[:300]
        assert code in (0, 1, 2), shown
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 170, (shown, err[:300])


@pytest.mark.parametrize("index", [8, 10, 19, 24])  # non-UTF-8, huge number, deep nesting, Unicode digits
def test_malformed_inputs_end_in_an_exit_code_in_a_process(tmp_path, index):
    argv = list(fuzz_cases(tmp_path))[index]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "graev", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode in (0, 1, 2) and "Traceback" not in proc.stderr, proc.stderr[-500:]


# defects the fuzz found, pinned


@pytest.mark.parametrize("n", [3 + 2 * 10**12, 10**30 + 1, POWER_EXPONENT_MAX + 2])
def test_power_exponent_above_the_limit_is_a_usage_error(capsys, tmp_path, n):
    # x^n has n * |x| letters: past the limit it may not fit in memory, or in an index
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"n": n, "c": "1/2", "target": "2/5", "bases": ["2/5"]}))
    for argv in (["verify", str(path)], ["search", "--space", "interval", "2/5", "--c", "1/2", "--n", str(n)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: the power exponent must be an odd integer from 3 to {POWER_EXPONENT_MAX}, "
            f"got {clip(str(n))}\n"
        )


def test_rank_of_a_thousand_digits_is_clipped_and_names_the_limit(capsys):
    assert main(["decompose", "--m", "7" * 1001, "e1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: star space rank {'7' * 40}… is above the limit of {SPACE_RANK_MAX} generators\n"


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "9" * 5000},
        {"kind": "finite", "base": "9" * 5000, "points": ["e"], "dist": {}},
    ],
)
def test_error_echoing_a_huge_file_field_is_one_clipped_line(capsys, tmp_path, payload):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(payload))
    assert main(["norm", "--space", str(path), "e"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("…\n") and len(err) == len("error: ") + 162
