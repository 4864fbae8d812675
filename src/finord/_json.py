"""The report encoder: `json.dumps(value, indent=2, sort_keys=True)` in one pass.

With `indent` set, the stdlib takes its pure-Python generator encoder,
which costs more than building a megabyte report.  `dumps` writes the same
bytes by recursion with the current newline-plus-indent string, dispatching
on the exact type of each value.  `str` and `int` members of a list or dict
are written in place, without a call, and the sorted, encoded keys of each
distinct key set are computed once per call (a report repeats one key set
per certificate).  A tuple whose members are all exactly `int` is rendered
once per value and indent in each call (a report repeats a few dozen
projection tables over thousands of certificates); `bool` and `float`
members and `int` subclasses compare equal to ints, so a tuple holding one
is never looked up.  Anything else it does not handle itself (a top-level
scalar, floats, dicts with non-`str` keys, subclasses, unserializable
values) is rendered by the stdlib and re-indented; that is exact because
the encoder escapes every newline inside a string, so the only newlines
are its own.
"""

import json
from json.encoder import encode_basestring_ascii as _string

_CONSTANTS = {True: "true", False: "false", None: "null"}


def dumps(value) -> str:
    """Exactly `json.dumps(value, indent=2, sort_keys=True)`."""
    return _encode(value, "\n", {}, {})


def _encode(value, nl: str, heads: dict, tables: dict) -> str:
    """`value` rendered at the indent level that `nl` (newline + indent) opens.

    `heads` maps each all-`str` key tuple met so far to its keys in sorted
    order, each paired with its encoded `"key": ` head.  `tables` maps
    (all-`int` tuple, `nl`) to the tuple's rendering there.
    """
    kind = type(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = nl + "  "
        # (1,) == (True,) == (1.0,), so only exact ints share a rendering
        if kind is tuple and all(type(item) is int for item in value):
            key = (value, nl)
            text = tables.get(key)
            if text is None:
                text = tables[key] = ("[" + inner + ("," + inner).join(
                    map(int.__repr__, value)) + nl + "]")
            return text
        items = [int.__repr__(item) if type(item) is int
                 else _string(item) if type(item) is str
                 else _encode(item, inner, heads, tables)
                 for item in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if kind is dict:
        if not value:
            return "{}"
        keys = tuple(value)
        members = heads.get(keys)
        if members is None and all(type(key) is str for key in keys):
            members = heads[keys] = [(key, _string(key) + ": ")
                                     for key in sorted(keys)]
        if members is not None:
            inner = nl + "  "
            items = [head + (int.__repr__(item) if type(item) is int
                             else _string(item) if type(item) is str
                             else _encode(item, inner, heads, tables))
                     for key, head in members for item in (value[key],)]
            return "{" + inner + ("," + inner).join(items) + nl + "}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", nl)
