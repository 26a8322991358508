from fractions import Fraction

import pytest

from graev.rationals import RATIONAL_DIGITS_MAX, parse_rational


@pytest.mark.parametrize(
    "text, value",
    [
        ("2/5", Fraction(2, 5)),
        ("4/10", Fraction(2, 5)),
        (" 0.4 ", Fraction(2, 5)),
        ("-3", Fraction(-3)),
        ("+1/2", Fraction(1, 2)),
        ("1.", Fraction(1)),
        (".5", Fraction(1, 2)),
        ("-0.25", Fraction(-1, 4)),
    ],
)
def test_documented_forms_parse(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text",
    ["1e-5", "1E3", "1/2_0", "1_000", "\uff11/2", "\u0661", "1/0", "", "1 /2", "1/-2", "nan", "0x10", "1.5/2"],
)
def test_other_forms_are_rejected(text):
    with pytest.raises(ValueError, match="bad rational"):
        parse_rational(text)


def test_digit_count_limit():
    assert parse_rational("7" * RATIONAL_DIGITS_MAX) == int("7" * RATIONAL_DIGITS_MAX)
    half = RATIONAL_DIGITS_MAX // 2
    assert parse_rational("1" * half + "/" + "3" * (RATIONAL_DIGITS_MAX - half)).denominator > 1
    for text in ("7" * (RATIONAL_DIGITS_MAX + 1), "1/" + "3" * RATIONAL_DIGITS_MAX, "0." + "5" * RATIONAL_DIGITS_MAX):
        with pytest.raises(ValueError, match=f"{RATIONAL_DIGITS_MAX + 1} digits is above the limit"):
            parse_rational(text)
