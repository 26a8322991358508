"""Every resource limit admits its own value and refuses one above it.

Each case builds one call at the limit and one just above it, through the
CLI where a command reaches the limit, else through the library.  Where no
input lands on the limit itself (a product n * sum |x_i| with n odd, a count
of candidate words), the limit is patched to the size of one input, which
is then at the limit, and to one less, which puts the input one above it.
"""

import json
import time
from fractions import Fraction

import pytest

from graev import certificates
from graev.certificates import POWER_EXPONENT_MAX
from graev.cli import main
from graev.norm import BRUTE_FORCE_MAX, NORM_LENGTH_MAX, norm_bruteforce
from graev.rationals import RATIONAL_DIGITS_MAX
from graev.spaces import SCALE_DIGITS_MAX, SPACE_RANK_MAX, star_space
from graev.suite import SUITE_CASES_MAX
from graev.words import Letter, Word


def _cli(*argv):
    return lambda: main(list(argv))


def _norm_length(above, monkeypatch, tmp_path):
    k = NORM_LENGTH_MAX + above
    return _cli("norm", "--space", "lemma32-m3", "e1 " * k), f"word: {k} letters is above the limit of {NORM_LENGTH_MAX}"


def _brute_force(above, monkeypatch, tmp_path):
    k = BRUTE_FORCE_MAX + above
    word = Word((Letter("e1"),) * k)
    return lambda: norm_bruteforce(word, star_space(3)), f"brute force is limited to {BRUTE_FORCE_MAX} letters, got {k}"


def _scale_digits(above, monkeypatch, tmp_path):
    # the lcm of 2^d and 5^d is 10^d, of d + 1 digits
    d = SCALE_DIGITS_MAX - 1 + above
    message = f"the letters' common denominator is above the limit of {SCALE_DIGITS_MAX} digits"
    return _cli("norm", f"1/{2**d} 1/{5**d}"), message


def _space_rank(above, monkeypatch, tmp_path):
    m = SPACE_RANK_MAX + above
    return _cli("norm", "--space", f"lemma32-m{m}", "e1"), f"star space rank {m} is above the limit of {SPACE_RANK_MAX} generators"


def _rational_digits(above, monkeypatch, tmp_path):
    text = "1/" + "3" * (RATIONAL_DIGITS_MAX - 1 + above)
    message = f"bad letter token '{text[:40]}…': {RATIONAL_DIGITS_MAX + 1} digits is above the limit of {RATIONAL_DIGITS_MAX}"
    return _cli("norm", text), message


def _power_exponent(above, monkeypatch, tmp_path):
    # one above the limit is even, which is refused anyway: the next odd n is
    # the one only the limit refuses
    n = POWER_EXPONENT_MAX + 2 * above
    argv = ("search", "--space", "lemma32-m3", "e1", "--c", "2", "--n", str(n), "--budget-factors", "1", "--budget-length", "1")
    return _cli(*argv), f"the power exponent must be an odd integer from 3 to {POWER_EXPONENT_MAX}, got {n}"


def _power_letters(above, monkeypatch, tmp_path):
    # two 2-letter bases at n = 3 make 12 letters before reduction
    monkeypatch.setattr(certificates, "POWER_LETTERS_MAX", 12 - above)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"n": 3, "c": "1", "target": " ".join(["2/5"] * 12), "bases": ["2/5 2/5"] * 2}))
    return _cli("verify", str(path)), f"the powers have 12 letters, above the limit of {12 - above}"


def _search_words(above, monkeypatch, tmp_path):
    # 6 + 30 + 150 reduced words of 1 to 3 letters over 6 signed letters
    monkeypatch.setattr(certificates, "SEARCH_WORDS_MAX", 186 - above)
    argv = ("search", "--space", "lemma32-m3", "e1 e2", "--c", "2", "--budget-factors", "1", "--budget-length", "3")
    return _cli(*argv), f"base length 3 over 6 signed letters is above the limit of {186 - above} candidate words"


def _search_base_length(*target):
    # over one point a length adds only two candidate words, so only the
    # length of a normed word bounds the enumeration
    def case(above, monkeypatch, tmp_path):
        length = NORM_LENGTH_MAX + above
        argv = ("search", *target, "--c", "1", "--budget-factors", "1", "--budget-length", str(length))
        return _cli(*argv), f"base length {length} is above the limit of {NORM_LENGTH_MAX} letters"

    return case


def _search_powers(above, monkeypatch, tmp_path):
    # the cubes of the six letters of norm 1 < 2 have 18 letters in all
    monkeypatch.setattr(certificates, "POWER_LETTERS_MAX", 18 - above)
    argv = ("search", "--space", "lemma32-m3", "e1 e2", "--c", "2", "--budget-factors", "1", "--budget-length", "1")
    return _cli(*argv), f"the candidate powers have 18 letters, above the limit of {18 - above}"


def _suite_cases(above, monkeypatch, tmp_path):
    # sigma's properties run a fixed list of cases whatever the count
    k = SUITE_CASES_MAX + above
    return _cli("suite", "--select", "sigma", "--cases", str(k)), f"the case count {k} is above the limit of {SUITE_CASES_MAX}"


LIMITS = {
    "NORM_LENGTH_MAX": _norm_length,
    "BRUTE_FORCE_MAX": _brute_force,
    "SCALE_DIGITS_MAX": _scale_digits,
    "SPACE_RANK_MAX": _space_rank,
    "RATIONAL_DIGITS_MAX": _rational_digits,
    "POWER_EXPONENT_MAX": _power_exponent,
    "POWER_LETTERS_MAX": _power_letters,
    "SEARCH_WORDS_MAX": _search_words,
    "search-base-length": _search_base_length("1/2 1/2 1/2"),
    "search-base-length-star1": _search_base_length("--space", "lemma32-m1", "e1 e1 e1"),
    "search-candidate-powers": _search_powers,
    "SUITE_CASES_MAX": _suite_cases,
}


def _refusal(call, capsys):
    """None when ``call`` is accepted, else its message: a ValueError's, or
    the one error line of a CLI exit 2."""
    try:
        code = call()
    except ValueError as error:
        return str(error)
    err = capsys.readouterr().err
    if code != 2:
        return None
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err[len("error: ") : -1]


@pytest.mark.parametrize("limit", LIMITS)
def test_a_limit_admits_its_value_and_refuses_one_above(limit, capsys, monkeypatch, tmp_path):
    call, _ = LIMITS[limit](0, monkeypatch, tmp_path)
    assert _refusal(call, capsys) is None
    call, message = LIMITS[limit](1, monkeypatch, tmp_path)
    start = time.perf_counter()
    assert _refusal(call, capsys) == message
    assert time.perf_counter() - start < 1
