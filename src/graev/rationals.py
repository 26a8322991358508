"""Exact rational parsing.

Everything in this library is a ``fractions.Fraction``; floats are never
accepted, so equality tests and strict comparisons are always decidable.
The value constructors take each number through ``exact``, which lets an
int or a ``Fraction`` in and refuses anything else.
Output uses ``str``, which prints lowest terms, ``p/q`` or a plain ``p``.
"""

from __future__ import annotations

import re
from fractions import Fraction

# digits in one rational's text; int parsing is superlinear in the length
RATIONAL_DIGITS_MAX = 1000

# ASCII p/q, an integer or a plain decimal, with an optional sign: no
# exponent, no underscore, no other script's digits
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+/[0-9]+|[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")


def clip(text: str, limit: int = 40) -> str:
    """``text`` cut to its first ``limit`` characters and marked "…" if cut,
    so an error that echoes its input stays one short line."""
    return text if len(text) <= limit else text[:limit] + "…"


def exact(x: object) -> Fraction:
    """``x`` as a ``Fraction``: an int is converted, a ``Fraction`` returned
    as it is; anything else, a float or a text included, is a ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ValueError(f"{clip(repr(x))} is not an int or a Fraction")


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, integer, or decimal text (``0.4`` becomes ``2/5``)."""
    if not isinstance(text, str):
        raise ValueError(f"bad rational {text!r}: expected text such as '2/5'")
    body = text.strip()
    shown = repr(clip(text))
    if not _RATIONAL.fullmatch(body):
        raise ValueError(f"bad rational {shown}")
    digits = sum(ch.isdigit() for ch in body)
    if digits > RATIONAL_DIGITS_MAX:
        raise ValueError(
            f"bad rational: {digits} digits is above the limit of {RATIONAL_DIGITS_MAX}"
        )
    try:
        return Fraction(body)
    except ZeroDivisionError:
        raise ValueError(f"bad rational {shown}") from None
