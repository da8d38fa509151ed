"""The one indented JSON writer behind the CLI, the corpus and the traces.

`dumps(obj)` returns exactly the text that `json.dumps` gives with a
two-space indent and sorted keys.  CPython's `json` takes its C encoder
only when ``indent`` is None, so that call encodes in pure Python; the
lists of integer flows that make up most command output print faster
through one string template per row shape.
"""

from __future__ import annotations

import json
from collections import defaultdict
from json.encoder import encode_basestring_ascii as _string
from operator import itemgetter

_INT = frozenset([int])
_STR = frozenset([str])


def _fallback(obj, pad: str) -> str:
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def dumps(obj) -> str:
    """`json.dumps(obj)` with a two-space indent and sorted keys, byte for
    byte.

    * Dicts with `str` keys, lists and tuples recurse, their children one
      indent (two spaces) deeper; keys are sorted, and keys and strings
      are escaped by the encoder `json` itself uses.
    * Row template: a list whose items are all dicts with one set of `str`
      keys and only plain `int` values (``type(v) is int``, so no `bool`)
      prints every item through one ``%``-template.  Each row shape, the
      template and the getter that reads a row's values in sorted key
      order, is built once per (key tuple, depth) in each call.
    * Per-call memo: each distinct dict object is printed once per depth,
      from one memo per depth keyed by ``id(obj)``.  The memos live only
      for this call, while `obj` keeps every id alive; a memo that
      outlived the call would hand out text for ids that garbage
      collection has reused.
    * Plain `int` values print as `json` prints them, with ``int.__repr__``.
      Anything else goes to `json.dumps` with the same options: bools,
      None, floats, dicts with a non-`str` key, and so on.
    """
    shapes: dict = {}  # (key tuple, depth) -> (template, getter)
    memos: dict = defaultdict(dict)  # depth -> {id(dict): text}

    def rows(items, depth: int) -> list[str] | None:
        """The items' texts through one template, or None when the items
        are not same-keyed integer rows."""
        first = items[0]
        if type(first) is not dict:
            return None
        keys = first.keys()
        for d in items:
            if type(d) is not dict or d.keys() != keys:
                return None
        shape = shapes.get((tuple(first), depth))
        if shape is None:
            if (
                not first
                or not _INT.issuperset(map(type, first.values()))
                or not _STR.issuperset(map(type, first))
            ):
                return None
            ordered = sorted(first)
            inner = "\n" + "  " * (depth + 1)
            body = ("," + inner).join(_string(k).replace("%", "%%") + ": %d" for k in ordered)
            template = "{" + inner + body + "\n" + "  " * depth + "}"
            get = itemgetter(*ordered) if len(ordered) > 1 else lambda d: (d[ordered[0]],)
            shape = shapes[tuple(first), depth] = template, get
        template, get = shape
        memo = memos[depth]
        out = []
        for d in items:
            text = memo.get(id(d))
            if text is None:
                values = get(d)
                if not _INT.issuperset(map(type, values)):
                    return None
                text = memo[id(d)] = template % values
            out.append(text)
        return out

    def emit(obj, depth: int) -> str:
        kind = type(obj)
        if kind is dict:
            if not obj:
                return "{}"
            memo = memos[depth]
            text = memo.get(id(obj))
            if text is None:
                pad = "  " * depth
                if _STR.issuperset(map(type, obj)):
                    inner = "\n" + pad + "  "
                    body = ("," + inner).join(
                        _string(k) + ": " + emit(obj[k], depth + 1) for k in sorted(obj)
                    )
                    text = "{" + inner + body + "\n" + pad + "}"
                else:
                    text = _fallback(obj, pad)
                memo[id(obj)] = text
            return text
        if kind is list or kind is tuple:
            if not obj:
                return "[]"
            items = rows(obj, depth + 1)
            if items is None:
                items = [emit(x, depth + 1) for x in obj]
            pad = "  " * depth
            inner = "\n" + pad + "  "
            return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"
        if kind is str:
            return _string(obj)
        if kind is int:
            return int.__repr__(obj)
        return _fallback(obj, "  " * depth)

    return emit(obj, 0)
