"""Exact rational parsing.

Everything in this library is a ``fractions.Fraction``; floats are never
accepted, so equality tests and strict comparisons are always decidable.
Output uses ``str``, which prints lowest terms, ``p/q`` or a plain ``p``.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, integer, or decimal text (``0.4`` becomes ``2/5``)."""
    if not isinstance(text, str):
        raise ValueError(f"bad rational {text!r}: expected text such as '2/5'")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {text!r}") from None
