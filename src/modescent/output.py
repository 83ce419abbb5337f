"""The one output format of traces, archives and manifests: floats as
round-tripping ``.17g`` text in CSV cells, sorted indented JSON, and
configurations with ``inf`` spelled as a string.

``write_json`` hands a whole document to ``json.dump``.  Archives stream
through ``write_json_list`` instead, one pre-spelled object per write, from
``json_template`` and ``json_floats``: the same bytes without ``json``'s
pure-Python indent encoder, which runs whenever ``indent`` is set.
"""

import csv
import json
import math
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as json_string

_INDENT = "  "  # write_json's indent=2
# json spells the floats whose repr is not a JSON number like this
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def fmt(value) -> str:
    return format(float(value), ".17g")


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def json_float(value) -> str:
    """``value`` (a float, or None) as ``write_json`` spells it."""
    if value is None:
        return "null"
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def json_floats(values, depth: int) -> str:
    """A 1-D float array (or None) as ``write_json`` spells it at nesting
    ``depth``: one item per line."""
    if values is None:
        return "null"
    values = values.tolist()
    if not values:
        return "[]"
    sep = ",\n" + _INDENT * (depth + 1)
    # a finite repr has digits, '.', 'e', '+' and '-' only
    text = sep.join(map(float.__repr__, values))
    if "n" in text:
        text = sep.join(map(json_float, values))
    return "[" + sep[1:] + text + "\n" + _INDENT * depth + "]"


def json_template(keys, depth: int) -> str:
    """``%``-template of an object with ``keys`` at nesting ``depth`` as
    ``write_json`` spells it: keys sorted, one member per line.  It takes a
    mapping from each key to its value's JSON text."""
    pad = _INDENT * (depth + 1)
    members = ",\n".join(f"{pad}{json_string(k)}: %({k})s" for k in sorted(keys))
    return "{\n" + members + "\n" + _INDENT * depth + "}"


def write_json_list(path, key, items) -> None:
    """Write ``{key: [item, ...]}`` as ``write_json`` would, one ``write``
    per item.  Each item is an object's JSON text at nesting depth 2."""
    pad = _INDENT * 2
    with open(path, "w") as fh:
        fh.write("{\n" + _INDENT + json_string(key) + ": [")
        sep = "\n"
        for text in items:
            fh.write(sep + pad + text)
            sep = ",\n"
        fh.write(("]" if sep == "\n" else "\n" + _INDENT + "]") + "\n}\n")


def config_to_dict(config) -> dict:
    return {k: ("inf" if v == math.inf else v) for k, v in asdict(config).items()}
