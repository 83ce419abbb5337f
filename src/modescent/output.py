"""The one output format of traces, archives and manifests: floats as
round-tripping ``.17g`` text in CSV cells, sorted indented JSON, and
configurations with ``inf`` spelled as a string.

``write_csv`` writes rows its callers have already spelled as text lines,
without the ``csv`` module.  No cell is quoted, and none needs to be: every
cell is a number, ``true``, ``false``, empty, a branch name or
``;``-joined indices, so none holds a comma, a quote or a line break.  A
column that can hold free text must bring quoting back.

``write_json`` hands a whole document to ``json.dump``.  Archives stream
through ``write_json_list`` instead, one pre-spelled object per write, from
``%``-templates built by ``json_template`` and ``json_array_template``: the
same bytes without ``json``'s pure-Python indent encoder, which runs
whenever ``indent`` is set.
"""

import json
import math
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as json_string

_INDENT = "  "  # write_json's indent=2
# json spells the floats whose repr is not a JSON number like this
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def fmt(value) -> str:
    return format(float(value), ".17g")


def write_csv(path, header, lines) -> None:
    """Write the ``header`` cells as the first row, then ``lines``: rows
    spelled as comma-joined cells, each ending in ``\\n``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def json_float(value) -> str:
    """``value``, a float, as ``write_json`` spells it."""
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def json_array_template(count, depth: int) -> str:
    """``%``-template of an array of ``count`` scalars at nesting ``depth``
    as ``write_json`` spells it, one item per line; ``null`` for a count of
    None.  It takes one ``%s`` value per item."""
    if count is None:
        return "null"
    if not count:
        return "[]"
    sep = ",\n" + _INDENT * (depth + 1)
    return "[" + sep[1:] + sep.join(["%s"] * count) + "\n" + _INDENT * depth + "]"


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
