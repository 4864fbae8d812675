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

# small tuples of values equal to 0 or 1 (ints, bools and floats alike)
small_tuples = st.lists(st.integers(0, 1) | st.booleans()
                        | st.sampled_from([0.0, 1.0]), max_size=3).map(tuple)


@st.composite
def trees(draw):
    """JSON-like trees whose leaves reuse a few tuple objects anywhere."""
    pool = draw(st.lists(small_tuples, min_size=1, max_size=3))
    return draw(st.recursive(
        scalars | st.sampled_from(pool),
        lambda children: (st.lists(children)
                          | st.lists(children).map(tuple)
                          | st.dictionaries(text, children)
                          | st.dictionaries(st.integers(), children)),
        max_leaves=20))


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True)


@given(trees())
def test_encoder_matches_the_stdlib(value):
    assert _json.dumps(value) == reference(value)


@st.composite
def documents(draw):
    """(a tree, the same tree with the members of some lists pre-encoded).

    A list chosen at depth d becomes an `Encoded` list of its members'
    stdlib renderings at depth d + 1.  Dicts with non-`str` keys go to the
    stdlib whole, so nothing inside one is chosen.
    """
    value = draw(trees())

    def mark(item, depth):
        kind = type(item)
        if kind in (list, tuple) and item and draw(st.booleans()):
            nl = "\n" + "  " * (depth + 1)
            return _json.Encoded(reference(member).replace("\n", nl)
                                 for member in item)
        if kind in (list, tuple):
            return [mark(member, depth + 1) for member in item]
        if kind is dict and all(type(key) is str for key in item):
            return {key: mark(member, depth + 1)
                    for key, member in item.items()}
        return item

    return value, mark(value, 0)


@given(documents())
def test_encoded_members_render_as_the_stdlib_renders_them(document):
    value, marked = document
    assert _json.dumps(marked) == reference(value)
    # and each member is one of the pieces itself, not a copy
    members = []

    def collect(item):
        if type(item) is _json.Encoded:
            members.extend(item)
        elif type(item) is list:
            for member in item:
                collect(member)
        elif type(item) is dict:
            for member in item.values():
                collect(member)

    collect(marked)
    pieces = {id(piece) for piece in _json.pieces(marked)}
    assert all(id(member) in pieces for member in members)


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


def test_equal_tuples_of_other_types_are_rendered_apart():
    # equal as tuples, so a memo keyed by value alone would alias them
    shared = (0, 1, 1)
    value = {"a": [(1,), (True,), (1.0,), [1], (Level.LOW,), shared],
             "b": {"c": [shared, (1,), (True,)]},
             "d": shared}
    text = _json.dumps(value)
    assert text == reference(value)
    assert text.count("true") == 2 and text.count("1.0") == 1


def test_unserializable_value_raises_type_error():
    value = {"a": [1, {"b": {2, 3}}]}
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        _json.dumps(value)
