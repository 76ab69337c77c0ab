#!/usr/bin/env python3
"""Compare two artifact trees number by number: which files moved, and by how much.

    tools/artifact_digests.sh --keep a ../bsdof-parent
    tools/artifact_digests.sh --keep b .
    python3 tools/artifact_diff.py a b

Prints one line per .json and .csv file under either tree, in path order.  A
file whose bytes agree is "equal".  Otherwise both sides are parsed (JSON, or
CSV with a cell read as an int, else a float, else a string) and the line
gives how many of the file's floats moved, and the largest relative change
|b - a| / |a| and the largest absolute change |b - a| among them.  Strings,
integers, booleans, nulls, JSON keys and the shape of the data must agree
exactly; where they do not, the line names the first place that differs, as
a JSON path or, in a CSV file, as [row][column] with the header as row 0.  A
file on one side only is named as such.  Exits 0 when every file is equal,
1 otherwise.
"""

import argparse
import csv
import json
import math
from pathlib import Path

SUFFIXES = (".json", ".csv")


class Mismatch(Exception):
    """Two artifacts differ in something other than the value of a float."""


def read(path: Path):
    """A .json file's value, or a .csv file's rows with each cell as an int, float or str."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    return [[_cell(c) for c in row] for row in csv.reader(path.read_text().splitlines())]


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def float_pairs(a, b, where: str = "") -> list:
    """The (a, b) pairs of floats at the same places; Mismatch where anything else differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise Mismatch(f"{where or 'top'}: keys {list(a)} != {list(b)}")
        return [p for k in a for p in float_pairs(a[k], b[k], f"{where}.{k}")]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"{where or 'top'}: {len(a)} != {len(b)} items")
        items = enumerate(zip(a, b))
        return [p for i, (x, y) in items for p in float_pairs(x, y, f"{where}[{i}]")]
    if type(a) is float and type(b) is float:
        return [(a, b)]
    if type(a) is not type(b) or a != b:
        raise Mismatch(f"{where or 'top'}: {a!r} != {b!r}")
    return []


def relative_change(a: float, b: float) -> float:
    """|b - a| / |a|; 0 for equal values or two NaNs, inf for a move off 0 or off NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a and math.isfinite(a) else math.inf


def compare(a: Path, b: Path) -> str:
    """One file's report: "equal", the floats that moved, or the first other difference."""
    if a.read_bytes() == b.read_bytes():
        return "equal"
    try:
        pairs = float_pairs(read(a), read(b))
    except Mismatch as exc:
        return f"differs at {exc}"
    moved = [(x, y) for x, y in pairs if relative_change(x, y) > 0.0]
    report = f"{len(moved)} of {len(pairs)} floats moved"
    if moved:
        relative = max(relative_change(x, y) for x, y in moved)
        absolute = max(abs(y - x) for x, y in moved)
        report += f", largest relative change {relative:.3g}, absolute {absolute:.3g}"
    return report


def artifacts(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.suffix in SUFFIXES and p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the reference tree")
    parser.add_argument("b", type=Path, help="the tree compared with it")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    names, equal = artifacts(args.a) | artifacts(args.b), True
    for name in sorted(names):
        if not (args.a / name).is_file() or not (args.b / name).is_file():
            side = args.a if (args.a / name).is_file() else args.b
            report = f"only in {side}"
        else:
            report = compare(args.a / name, args.b / name)
        equal &= report == "equal"
        print(f"{name}: {report}")
    return 0 if equal else 1


if __name__ == "__main__":
    raise SystemExit(main())
