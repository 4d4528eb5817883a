"""Instance files: the weight parser and the canonical writer, each against its reference."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wmst import parse_fraction
from wmst.io import dumps_instance, instance_to_payload

from conftest import outcome
import corpus
import reference_rationals

F = Fraction


FIXED = [
    "5/0", "5/00", "0/5", "007/3", "1/2", "10/4", "0/0", "/3", "3/", "1/2/3", "",
    "²/3", "3/²", "٣/3", "3/٣", " 1/2", "1/2 ", "+1/2", "-1/2", "1_0/3", "1.5", "1e3", "1/1e3",
    "7" * 4301 + "/3", "1/" + "9" * 4300, "9" * 4300 + "/1", "3/" + "1" * 4301,
    "0" * 4300 + "7/3", "7/" + "0" * 4300 + "3", "0" * 4299 + "7/3", "7/" + "0" * 4299 + "3",
    3, 0, True, F(3, 4), 1.5,
]


def _short(text) -> str:
    shown = repr(text)
    return shown if len(shown) < 24 else f"{shown[:8]}...({len(shown) - 2} chars)"


@pytest.mark.parametrize("text", FIXED, ids=_short)
def test_parse_matches_the_reference_on_fixed_cases(text):
    assert outcome(parse_fraction, text) == outcome(reference_rationals.parse_fraction, text)


@pytest.mark.parametrize(
    "text", ["0" * 4300 + "7/3", "7/" + "0" * 4300 + "3", "1" + "0" * 4300 + "/3",
             "3/1" + "0" * 4300],
    ids=_short,
)
def test_long_digit_strings_are_judged_by_value_past_the_conversion_limit(text):
    # with Python's int-to-text limit lifted, a canonical text longer than
    # MAX_DIGITS skips the length shortcut and is refused by its value alone
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert outcome(parse_fraction, text) == outcome(reference_rationals.parse_fraction, text)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@settings(max_examples=400, deadline=None)
@given(text=st.text(alphabet="0123456789/-+.e_ ٣²", max_size=12))
@example(text="00/01")
def test_parse_matches_the_reference(text):
    assert outcome(parse_fraction, text) == outcome(reference_rationals.parse_fraction, text)


def test_writer_matches_json_dumps():
    for inst in [*corpus.fuzz_instances()[:120], *corpus.families(), *corpus.edge_cases()]:
        reference = json.dumps(instance_to_payload(inst), indent=2) + "\n"
        assert dumps_instance(inst) == reference
