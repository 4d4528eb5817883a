"""Exact rational weight values.

Weights are plain :class:`fractions.Fraction` objects, which already keep
lowest terms and a positive denominator.  This module only adds the parsing
and formatting conventions used by files and the command line: the canonical
serialized form is ``"num/den"``, and inputs may also be integer or decimal
literals (decimals convert exactly via a power-of-ten denominator).
"""

from __future__ import annotations

from fractions import Fraction

from .exceptions import BadParameter, TooLarge

# Python's default limit on converting an integer to or from text
# (sys.get_int_max_str_digits): a longer numerator or denominator could not be
# written out again.
MAX_DIGITS = 4300
_TOO_LARGE = 10**MAX_DIGITS


def parse_fraction(text: str | int | Fraction) -> Fraction:
    """Parse ``"a/b"``, an integer literal, or a decimal literal, exactly.

    A numerator or denominator of more than ``MAX_DIGITS`` digits is refused.
    The canonical ``num/den`` of ASCII digits is read with two ``int`` calls;
    other text, with a sign, a space or a non-ASCII digit, goes to ``Fraction``.
    """
    canonical = False
    if type(text) is str:
        num, _, den = text.partition("/")
        canonical = num.isascii() and num.isdigit() and den.isascii() and den.isdigit()
    elif isinstance(text, Fraction):
        return text
    elif isinstance(text, int):
        return Fraction(text)
    try:
        if canonical:
            value = Fraction(int(num), int(den))
        else:
            literal = str(text).strip()
            exponent = literal.lower().partition("e")[2]
            # a nonzero mantissa, at most 2 * MAX_DIGITS digits long, has too
            # many digits with a larger exponent: refuse before Fraction computes it
            if exponent and abs(int(exponent)) > 3 * MAX_DIGITS:
                raise BadParameter(f"{text!r} has more than {MAX_DIGITS} digits")
            value = Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParameter(f"not an exact rational: {text!r}") from exc
    if max(abs(value.numerator), value.denominator) >= _TOO_LARGE:
        raise BadParameter(f"{text!r} has more than {MAX_DIGITS} digits")
    return value


def format_fraction(value: Fraction) -> str:
    """Canonical ``num/den`` form (always includes the denominator).

    A value computed from valid weights, such as a sum, can outgrow what
    Python converts to text: more than ``MAX_DIGITS`` digits raises
    ``TooLarge``.
    """
    if max(abs(value.numerator), value.denominator) >= _TOO_LARGE:
        raise TooLarge(f"a value of more than {MAX_DIGITS} digits cannot be written out")
    return f"{value.numerator}/{value.denominator}"


def ensure_fraction(value, name: str = "value") -> Fraction:
    """Coerce ints and fraction strings; reject floats (no inexact mode)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_fraction(value)
    raise BadParameter(f"{name} must be an exact rational, got {type(value).__name__}")
