"""Compare two output directories written by ``tools/output_manifest.py``.

Usage::

    python tools/compare_outputs.py OLD_DIR NEW_DIR

For every file under either directory, in sorted order, prints one line:
``identical`` when the bytes agree, otherwise the largest relative
difference |a - b| / max(|a|, |b|) over the numeric leaves of the file's
JSON, CSV, binary field or command output and where it sits.  A binary
field (``.bin``) is the little-endian float64 (L, N) header followed by N
little-endian float64 values.  A command output (``.stdout``) is read line
by line: its numbers are its leaves, and the text between them must agree.
For a CSV, one indented line per numeric column follows with the column's
largest |a - b| over its largest |a|, so that a change near a zero of a
field reads against the field's size; the values of a binary field get the
same line as one column.  Then comes one indented line per numeric leaf
that differs.  A leaf that is NaN on one side only counts as an infinite
difference.  A file of another kind, whose non-numeric content differs, or
whose shape differs (keys, lengths, rows or lines, a binary field truncated
or whose header does not match its payload) is reported as such, as is a
JSON file that does not parse or a text that is not UTF-8, and a file
present on one side only as ``only in OLD``/``only in NEW``.
The exit status is 0 when every file is identical and 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
import sys
from pathlib import Path


class ShapeMismatch(Exception):
    """The two files differ in something other than a numeric value."""


def absolute_difference(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b)


def relative_difference(a: float, b: float) -> float:
    diff = absolute_difference(a, b)
    if diff in (0.0, math.inf):
        return diff
    return diff / max(abs(a), abs(b))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_leaves(old, new, where: str = ""):
    """Yield (location, old, new) for each numeric leaf of two JSON trees."""
    if _is_number(old) and _is_number(new):
        yield where or ".", float(old), float(new)
    elif isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            raise ShapeMismatch(f"keys differ at {where or '.'}")
        for key in old:
            yield from json_leaves(old[key], new[key], f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            raise ShapeMismatch(f"lengths differ at {where or '.'}")
        for i, (a, b) in enumerate(zip(old, new)):
            yield from json_leaves(a, b, f"{where}[{i}]")
    elif old != new:
        raise ShapeMismatch(f"values differ at {where or '.'}")


def _float_or_none(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_leaves(old: str, new: str):
    """Yield ((location, column name), old, new) for each numeric cell of two
    CSV texts."""
    rows_old = list(csv.reader(old.splitlines()))
    rows_new = list(csv.reader(new.splitlines()))
    if len(rows_old) != len(rows_new):
        raise ShapeMismatch("row counts differ")
    header = rows_old[0] if rows_old else []
    for i, (ra, rb) in enumerate(zip(rows_old, rows_new), start=1):
        if len(ra) != len(rb):
            raise ShapeMismatch(f"column counts differ in row {i}")
        for j, (a, b) in enumerate(zip(ra, rb)):
            fa, fb = _float_or_none(a), _float_or_none(b)
            name = header[j] if j < len(header) else str(j + 1)
            if fa is not None and fb is not None:
                yield (f"row {i}, {name}", name), fa, fb
            elif a != b:
                raise ShapeMismatch(f"text differs in row {i}, {name}")


# a decimal number, nan or inf that is not part of a word, such as w0n
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|nan|inf)(?!\w)")


def text_leaves(old: str, new: str):
    """Yield (location, old, new) for each number of two texts, line by line;
    the text between the numbers must agree."""
    lines_old, lines_new = old.splitlines(), new.splitlines()
    if len(lines_old) != len(lines_new):
        raise ShapeMismatch("line counts differ")
    for i, (la, lb) in enumerate(zip(lines_old, lines_new), start=1):
        if _NUMBER.split(la) != _NUMBER.split(lb):
            raise ShapeMismatch(f"text differs in line {i}")
        for j, (a, b) in enumerate(zip(_NUMBER.findall(la),
                                       _NUMBER.findall(lb)), start=1):
            yield f"line {i}, number {j}", float(a), float(b)


_BIN_HEADER = struct.Struct("<dd")  # a binary field's length and point count


def _field_numbers(data: bytes, side: str) -> tuple:
    """(L, N, values) of a binary field; ShapeMismatch, naming ``side``, if it
    is truncated or its header does not name a whole number of points that
    matches its payload."""
    if len(data) < _BIN_HEADER.size:
        raise ShapeMismatch(f"{side} is shorter than a binary field header")
    length, n = _BIN_HEADER.unpack_from(data)
    payload = len(data) - _BIN_HEADER.size
    if not (n.is_integer() and payload == 8 * n):
        raise ShapeMismatch(f"{side} holds {payload} payload bytes, but its "
                            f"header names {n!r} points")
    return length, n, struct.unpack_from(f"<{int(n)}d", data, _BIN_HEADER.size)


def bin_leaves(old: bytes, new: bytes):
    """Yield (location, old, new) for the header of two binary fields, then
    ((location, "value"), old, new) for each value."""
    la, na, va = _field_numbers(old, "OLD")
    lb, nb, vb = _field_numbers(new, "NEW")
    yield "header L", la, lb
    yield "header N", na, nb
    if na != nb:
        raise ShapeMismatch("point counts differ")
    for i, (a, b) in enumerate(zip(va, vb)):
        yield (f"point {i}", "value"), a, b


def _decoded(data: bytes, side: str, suffix: str):
    """The JSON tree or the text of a file; ShapeMismatch, naming ``side``,
    if it is not valid JSON or not UTF-8."""
    try:
        return json.loads(data) if suffix == ".json" else data.decode()
    except ValueError as err:  # a JSONDecodeError or a UnicodeDecodeError
        kind = "JSON" if suffix == ".json" else "UTF-8"
        raise ShapeMismatch(f"{side} is not valid {kind}: {err}") from None


def compare_file(old: Path, new: Path) -> list[str]:
    """Report lines for one pair of files, the first naming the outcome."""
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return ["identical"]
    leaves = {".json": json_leaves, ".csv": csv_leaves, ".bin": bin_leaves,
              ".stdout": text_leaves}.get(old.suffix)
    if leaves is None:
        return ["differs (not a JSON, CSV, binary field or stdout file)"]
    worst, at, count, differing = 0.0, None, 0, []
    columns = {}  # column name -> [largest |a - b|, largest |a|]
    try:
        if old.suffix != ".bin":
            a, b = _decoded(a, "OLD", old.suffix), _decoded(b, "NEW", old.suffix)
        for where, x, y in leaves(a, b):
            if isinstance(where, tuple):  # in a column: (location, name)
                where, name = where
                col = columns.setdefault(name, [0.0, 0.0])
                col[0] = max(col[0], absolute_difference(x, y))
                col[1] = max(col[1], abs(x))
            count += 1
            rel = relative_difference(x, y)
            if rel > 0.0:
                differing.append(f"    {where}: {x!r} -> {y!r} ({rel:.2g})")
            if at is None or rel > worst:
                worst, at = rel, where
    except ShapeMismatch as err:
        return [f"differs ({err})"]
    if not differing:  # same numbers, other spelling
        return [f"numerically equal over {count} numeric leaves"]
    head = (f"max relative difference {worst:.2g} at {at} "
            f"({len(differing)} of {count} numeric leaves differ)")
    scaled = [f"    column {name}: largest |a - b| / largest |a| = "
              f"{diff / top if top else (math.inf if diff else 0.0):.2g}"
              for name, (diff, top) in columns.items()]
    return [head] + scaled + differing


def compare_dirs(old_dir: Path, new_dir: Path):
    """Yield (relative path, report lines) for every file under either dir."""
    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix()
                for p in root.rglob("*") if p.is_file()}

    old_files, new_files = files(old_dir), files(new_dir)
    for rel in sorted(old_files | new_files):
        if rel not in new_files:
            yield rel, ["only in OLD"]
        elif rel not in old_files:
            yield rel, ["only in NEW"]
        else:
            yield rel, compare_file(old_dir / rel, new_dir / rel)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    changed = 0
    for rel, lines in compare_dirs(Path(argv[0]), Path(argv[1])):
        changed += lines[0] != "identical"
        print(f"{rel}: {lines[0]}")
        for line in lines[1:]:
            print(line)
    print(f"{changed} file(s) differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
