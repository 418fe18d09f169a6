"""Every file the package writes: CSV reports, key-value summaries and
manifests, binary snapshots, PPM heatmaps and COO matrix dumps.

All floating-point text output uses 17 significant digits so that identical
runs produce byte-identical files and values round-trip exactly.
"""

from __future__ import annotations

import math
import os
from contextlib import AbstractContextManager

import numpy as np

from .grid import FieldSet, Grid

DIAGNOSTIC_COLUMNS = ("time", "kinetic_energy", "mean_h", "mean_a",
                      "max_u", "perturbation_norm")
FLOAT_FIELD = "{:.17g}"  # 17 significant digits: every float round-trips


def format_float(x: float) -> str:
    return FLOAT_FIELD.format(float(x))


class CsvWriter(AbstractContextManager):
    """Streaming CSV: the header, then one line per row (a dict keyed by
    column), each value printed as format_float prints it (an int as
    itself); UTF-8, LF line ends."""

    def __init__(self, path, columns):
        self.columns = tuple(columns)
        # one format call per line, not one format_float call per value
        self._line = ",".join([FLOAT_FIELD] * len(self.columns)) + "\n"
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._fh.write(",".join(self.columns) + "\n")

    def __call__(self, row: dict) -> None:
        self._fh.write(self._line.format(*[row[c] for c in self.columns]))

    def write_columns(self, *columns) -> None:
        """Equal-length columns, one value per row each, in one write."""
        self._fh.write("".join(map(self._line.format, *columns)))

    def __exit__(self, *exc):
        self._fh.close()


class DiagnosticsCsvWriter(CsvWriter):
    """Streaming sink for run diagnostics rows."""

    def __init__(self, path):
        super().__init__(path, DIAGNOSTIC_COLUMNS)


def write_eigenvalue_csv(path, eigenvalues) -> None:
    """Columns re, im, sorted by real then imaginary part."""
    values = np.asarray(eigenvalues)
    values = values[np.lexsort((values.imag, values.real))]
    with CsvWriter(path, ("re", "im")) as writer:
        writer.write_columns(values.real.tolist(), values.imag.tolist())


def write_key_values(path, items) -> None:
    """Plain 'key = value' text, floats at 17 significant digits and
    booleans as true/false."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in items:
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = format_float(value)
            fh.write(f"{key} = {value}\n")


def write_snapshot(path, fields: FieldSet, t: float) -> None:
    """Header line 'nx ny lx ly t', then u1, u2, h, a as little-endian f64."""
    g = fields.grid
    header = " ".join([str(g.nx), str(g.ny), format_float(g.lx),
                       format_float(g.ly), format_float(t)])
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode("ascii"))
        for arr in (fields.u1, fields.u2, fields.h, fields.a):
            # the array's own buffer when it is already C-ordered "<f8"
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def read_snapshot(path):
    """Inverse of write_snapshot; returns (FieldSet, t).  A header that is
    not 'nx ny lx ly t' of a valid grid and a finite t, or a payload that is
    not exactly the four nx x ny fields, all finite, raises ValueError."""
    with open(path, "rb") as fh:
        header = fh.readline().split()
        payload = fh.read()
    try:  # int and float parse the ASCII bytes as they are
        nx, ny = map(int, header[:2])
        lx, ly, t = map(float, header[2:])
        grid = Grid(nx, ny, lx, ly)  # its InvalidStateError is a ValueError
        if not math.isfinite(t):
            raise ValueError(f"t = {t!r}")
    except ValueError as exc:
        raise ValueError(f"snapshot {path}: the header must be "
                         f"'nx ny lx ly t' ({exc})") from None
    expected = 4 * nx * ny * 8
    if len(payload) != expected:
        raise ValueError(f"snapshot {path}: a {nx}x{ny} grid needs {expected} "
                         f"payload bytes, found {len(payload)}")
    raw = np.frombuffer(payload, dtype="<f8")
    if not np.all(np.isfinite(raw)):
        raise ValueError(f"snapshot {path}: the payload holds non-finite "
                         f"values")
    return FieldSet.from_vector(grid, raw), t


def write_ppm(path, field: np.ndarray) -> tuple:
    """Grayscale P6 heatmap spanning the field's range; returns that range
    (min, max), which the scale sidecar records."""
    field = np.asarray(field, dtype=float)
    lo = float(np.min(field))
    hi = float(np.max(field))
    span = hi - lo if hi > lo else 1.0
    level = np.clip((field - lo) / span * 255.0, 0.0, 255.0).astype(np.uint8)
    rgb = np.repeat(level[..., None], 3, axis=-1)
    ny, nx = field.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())
    return lo, hi


def write_manifest(directory, files, config) -> None:
    """Manifest of emitted files (name, format), then each (key, value) of
    the configuration as write_key_values prints it."""
    path = os.path.join(directory, "manifest.txt")
    items = []
    for index, (name, fmt) in enumerate(files):
        items += [(f"file.{index}.name", name), (f"file.{index}.format", fmt)]
    write_key_values(path, items + [(f"config.{key}", value)
                                    for key, value in config])


def export_coo(op, path) -> None:
    """Write a SparseOperator as 'row col value' text lines (17 significant
    digits), sorted by row then column."""
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    line = "{} {} " + FLOAT_FIELD + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(map(line.format, coo.row[order].tolist(),
                             coo.col[order].tolist(), coo.data[order].tolist())))
