"""The report encoder: `json.dumps(value, indent=2, sort_keys=True)` in one pass.

With `indent` set, the stdlib takes its pure-Python generator encoder,
which costs more than building a megabyte report.  `pieces` writes the same
text as a list of strings, by recursion with the current newline-plus-indent
string, dispatching on the exact type of each value; `dumps` joins them.
`str` and `int` members of a list or dict are written in place, without a
call, and the sorted, encoded keys of each distinct key set are computed
once per call.  The members
of an `Encoded` list are texts encoded by the caller: each goes into the
pieces as it is, so a report of many certificates is joined once and never
copied.  Anything else it does not handle itself (a top-level scalar,
floats, dicts with non-`str` keys, subclasses, unserializable values) is
rendered by the stdlib and re-indented; that is exact because the encoder
escapes every newline inside a string, so the only newlines are its own.
"""

import json
from json.encoder import encode_basestring_ascii as _string

_CONSTANTS = {True: "true", False: "false", None: "null"}


class Encoded(list):
    """A list whose members are already encoded.

    Each member is the text `dumps(member, depth + 1)` would write, where
    depth is the nesting depth at which the list itself lands.  A dict with
    non-`str` keys is rendered by the stdlib, which does not know this type,
    so an `Encoded` list must not sit inside one.
    """


def dumps(value, depth: int = 0) -> str:
    """Exactly `json.dumps(value, indent=2, sort_keys=True)`; with depth, as
    that text reads nested depth levels deep, every line after the first
    indented by 2 * depth more spaces."""
    out = []
    _write(value, "\n" + "  " * depth, {}, out)
    return "".join(out)


def pieces(value) -> list:
    """`dumps(value)` as a list of strings whose join is that text; the
    members of each `Encoded` list are among them, uncopied."""
    out = []
    _write(value, "\n", {}, out)
    return out


def _write(value, nl: str, heads: dict, out: list):
    """Append `value` rendered at the indent level that `nl` (newline +
    indent) opens to `out`.

    `heads` maps each all-`str` key tuple met so far to its keys in sorted
    order, each paired with its encoded `"key": ` head.
    """
    kind = type(value)
    if value is None or value is True or value is False:
        out.append(_CONSTANTS[value])
        return
    if kind is list or kind is tuple or kind is Encoded:
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        out.append("[" + inner)
        if kind is Encoded:
            for item in value:
                out.append(item)
                out.append(sep)
        else:
            for item in value:
                if type(item) is int:
                    out.append(int.__repr__(item))
                elif type(item) is str:
                    out.append(_string(item))
                else:
                    _write(item, inner, heads, out)
                out.append(sep)
        # the last separator closes the list
        out[-1] = nl + "]"
        return
    if kind is dict:
        if not value:
            out.append("{}")
            return
        keys = tuple(value)
        members = heads.get(keys)
        if members is None and all(type(key) is str for key in keys):
            members = heads[keys] = [(key, _string(key) + ": ")
                                     for key in sorted(keys)]
        if members is not None:
            inner = nl + "  "
            sep = "," + inner
            out.append("{" + inner)
            for key, head in members:
                item = value[key]
                if type(item) is int:
                    out.append(head + int.__repr__(item))
                elif type(item) is str:
                    out.append(head + _string(item))
                else:
                    out.append(head)
                    _write(item, inner, heads, out)
                out.append(sep)
            out[-1] = nl + "}"
            return
    out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", nl))
