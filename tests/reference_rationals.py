"""``parse_fraction`` as it was before its fast path for the canonical form.

Kept as the reference the production parser is compared against: every
input goes through ``str(text).strip()`` and ``Fraction``'s regular
expression, after the exponent guard, and the result must have at most
``MAX_DIGITS`` digits in its numerator and denominator.
"""

from __future__ import annotations

from fractions import Fraction

from wmst.exceptions import BadParameter
from wmst.rationals import _TOO_LARGE, MAX_DIGITS


def parse_fraction(text: str | int | Fraction) -> Fraction:
    """Parse ``"a/b"``, an integer literal, or a decimal literal, exactly.

    A numerator or denominator of more than ``MAX_DIGITS`` digits is refused.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        literal = str(text).strip()
        exponent = literal.lower().partition("e")[2]
        # a nonzero mantissa, at most 2 * MAX_DIGITS digits long, has too many
        # digits with a larger exponent: refuse before Fraction computes it
        if exponent and abs(int(exponent)) > 3 * MAX_DIGITS:
            raise BadParameter(f"{text!r} has more than {MAX_DIGITS} digits")
        value = Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParameter(f"not an exact rational: {text!r}") from exc
    if max(abs(value.numerator), value.denominator) >= _TOO_LARGE:
        raise BadParameter(f"{text!r} has more than {MAX_DIGITS} digits")
    return value
