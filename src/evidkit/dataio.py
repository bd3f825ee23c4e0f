"""Reading observation CSVs and writing reproducible JSON/CSV outputs.

Numeric output is rendered with 17 significant digits, which round-trips
every finite double exactly.  Writes go to a temporary file in the target
directory followed by an atomic rename, so a crashed run never leaves a
partial output behind.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

from .exceptions import DataError
from .glm import ObservationSet

__all__ = ["read_observations", "format_number", "render_json", "write_json", "write_csv"]


def read_observations(path: str) -> ObservationSet:
    """Parse a UTF-8 CSV with header ``y`` or ``x,y`` into an ObservationSet.

    Decimal separator is ``.``; cells may be quoted or padded with spaces, and a leading
    byte-order mark (as Excel's "CSV UTF-8" writes) is dropped.  Blank lines are skipped but
    count in line numbers: the first line is line 1.  A row with a missing, extra, non-numeric
    or non-finite entry is rejected naming its line and column; a file that is not UTF-8,
    naming its first undecodable line.  The body is parsed in one numpy pass; a file that
    pass refuses is parsed again row by row, which words every error.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        raw.decode("utf-8")  # the whole file, before any row is parsed
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(_undecodable_line(path, raw, exc)) from None
    rows = _csv_rows(raw)
    header_line, header = next(rows, (0, []))
    if [cell.strip() for cell in header] in (["y"], ["x", "y"]) and next(rows, None) is not None:
        # Universal newlines end lines where the csv reader does; numpy alone ends them at \n.
        lines = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=None)
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"',
                               skiprows=header_line, ndmin=2)
        except ValueError:
            table = np.empty((0, 0))
        if len(table) and table.shape[1] == len(header) and np.isfinite(table).all():
            return ObservationSet(y=table[:, -1], x=table[:, 0] if len(header) == 2 else None)
    return _parse_rows(path, _csv_rows(raw))


def _csv_rows(raw: bytes):
    """The nonblank ``(file line, cells)`` rows of ``raw``, as the csv reader counts lines."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=""))
    return ((reader.line_num, row) for row in reader if row)


def _undecodable_line(path: str, raw: bytes, exc: UnicodeDecodeError) -> str:
    """The message naming the line of ``raw`` where ``exc`` arose, with ``exc`` re-based on it."""
    first = raw.rfind(b"\n", 0, exc.start) + 1  # no UTF-8 sequence holds the \n that ends a line
    reason = UnicodeDecodeError(exc.encoding, raw[first:], exc.start - first, exc.end - first,
                                exc.reason)
    row = raw.count(b"\n", 0, first) + 1
    return f"{path}: row {row}: not UTF-8 text: {reason}"


def _parse_rows(path: str, rows) -> ObservationSet:
    """Observations from the nonblank ``(file line, cells)`` rows, header first."""
    header = [cell.strip() for cell in next(rows, (None, []))[1]]
    if not header:
        raise DataError(f"{path}: empty file")
    if header not in (["y"], ["x", "y"]):
        raise DataError(f"{path}: header must be 'y' or 'x,y', got {','.join(header)!r}")
    has_x = header == ["x", "y"]

    xs, ys = [], []
    for line_no, row in rows:
        cells = [cell.strip() for cell in row]
        if len(cells) != len(header):
            raise DataError(f"{path}: row {line_no}: expected {len(header)} columns, "
                            f"got {len(cells)}")
        parsed = []
        for name, cell in zip(header, cells):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}: row {line_no}: non-numeric value {cell!r} "
                                f"in column {name}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}: row {line_no}: non-finite value {cell!r} "
                                f"in column {name}")
            parsed.append(value)
        ys.append(parsed[-1])
        if has_x:
            xs.append(parsed[0])
    if not ys:
        raise DataError(f"{path}: no data rows")
    return ObservationSet(y=np.array(ys), x=np.array(xs) if has_x else None)


def format_number(value) -> str:
    """Render a number with 17 significant digits (exact double round-trip)."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("booleans are not numeric output")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return format(value, ".17g")


def render_json(obj, indent: int | None = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    The standard encoder offers no hook for float formatting, so this walks
    the structure itself.  Non-finite floats become ``NaN``/``Infinity``
    tokens, matching what ``json.loads`` accepts back.  ``indent=None``
    renders everything on one line.
    """
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer, float, np.floating)):
        return format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        return render_json(obj.tolist(), indent)
    compact = indent is None
    child = None if compact else indent + 1
    if compact:
        before, between, after = "", ", ", ""
    else:
        inner = "  " * (indent + 1)
        before, between, after = "\n" + inner, ",\n" + inner, "\n" + "  " * indent
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = between.join(render_json(item, child) for item in obj)
        return "[" + before + items + after + "]"
    if isinstance(obj, dict):
        if len(obj) == 0:
            return "{}"
        items = between.join(
            f"{json.dumps(str(key), ensure_ascii=False)}: {render_json(value, child)}"
            for key, value in obj.items())
        return "{" + before + items + after + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".{os.path.basename(path)}.tmp{os.getpid()}")
    try:
        with open(tmp_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except OSError:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_json(path: str, payload: dict):
    _atomic_write(path, render_json(payload) + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return format_number(value)


def write_csv(path: str, header: list[str], rows: list[list], comments: list[str] = ()):
    """Comment lines (prefixed ``# ``), then a header row, then data rows."""
    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for value in row:
            cell = _csv_cell(value)
            if "," in cell or '"' in cell or "\n" in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")
