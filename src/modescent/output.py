"""The one output format of traces, archives and manifests: floats as
round-tripping ``.17g`` text in CSV cells, sorted indented JSON, and
configurations with ``inf`` spelled as a string."""

import csv
import json
import math
from dataclasses import asdict


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


def config_to_dict(config) -> dict:
    return {k: ("inf" if v == math.inf else v) for k, v in asdict(config).items()}
