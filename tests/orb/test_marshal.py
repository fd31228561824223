"""Tests for CDR-style marshalled-size estimation."""

import pytest
from hypothesis import given, strategies as st

from repro.orb.marshal import marshalled_size

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=30),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20)


def test_primitives():
    assert marshalled_size(None) == 4
    assert marshalled_size(True) == 5
    assert marshalled_size(7) == 8           # long + typecode
    assert marshalled_size(2**40) == 12      # long long + typecode
    assert marshalled_size(1.5) == 12        # double + typecode


def test_string_scales_with_utf8_length():
    assert marshalled_size("") == 5
    assert marshalled_size("abc") == 8
    assert marshalled_size("é") == 4 + 2 + 1  # two UTF-8 bytes


def test_bytes():
    assert marshalled_size(b"\x00" * 10) == 14


def test_sequence_adds_length_prefix():
    assert marshalled_size([1, 2, 3]) == 4 + 3 * 8


def test_dict_counts_keys_and_values():
    size = marshalled_size({"k": 1})
    assert size == 4 + (4 + 1 + 1) + 8


def test_nested_structures():
    payload = {"readings": [1.0, 2.0], "id": "sensor-1"}
    assert marshalled_size(payload) > marshalled_size({"id": "sensor-1"})


def test_cycle_protection():
    cyclic = []
    cyclic.append(cyclic)
    with pytest.raises(ValueError):
        marshalled_size(cyclic)


def test_unknown_object_falls_back_to_repr():
    class Opaque:
        def __repr__(self):
            return "<opaque>"

    assert marshalled_size(Opaque()) == 4 + len("<opaque>") + 1


@given(json_values)
def test_size_is_positive(value):
    assert marshalled_size(value) > 0


@given(st.lists(json_values, max_size=5))
def test_sequence_size_superadditive(items):
    """A sequence costs at least the sum of its items."""
    total = marshalled_size(items)
    assert total >= sum(marshalled_size(item) for item in items)


@given(st.text(max_size=50), st.text(max_size=50))
def test_longer_string_never_smaller(a, b):
    if len(a.encode()) <= len(b.encode()):
        assert marshalled_size(a) <= marshalled_size(b)
