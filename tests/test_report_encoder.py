"""The report encoder writes exactly what `json.dumps(indent=2, sort_keys=True)` does."""

import enum
import json

import pytest
from hypothesis import given, strategies as st

from finord import _json

# quotes, backslashes, control and non-ASCII characters mixed into any text
text = st.text(st.sampled_from('"\\/\n\r\t\x00\x1f\x7fé€😀a') | st.characters())

scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(-2 ** 200, 2 ** 200) | st.floats() | text)

trees = st.recursive(
    scalars,
    lambda children: (st.lists(children)
                      | st.lists(children).map(tuple)
                      | st.dictionaries(text, children)
                      | st.dictionaries(st.integers(), children)),
    max_leaves=20)


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True)


@given(trees)
def test_encoder_matches_the_stdlib(value):
    assert _json.dumps(value) == reference(value)


class Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize("value", [
    {}, [], (), "", 0, None, True, False,
    {"b": [], "a": {}, "c": [{}, [[]], ()]},
    {"x": [float("nan"), float("inf"), -float("inf"), 1e-05, 0.1]},
    {"nested": {2: {"k": [1, 2]}, 1: None}},
    {"enum": Level.LOW, "list": [Level.LOW]},
])
def test_encoder_matches_the_stdlib_on_edge_cases(value):
    assert _json.dumps(value) == reference(value)


def test_unserializable_value_raises_type_error():
    value = {"a": [1, {"b": {2, 3}}]}
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        _json.dumps(value)
