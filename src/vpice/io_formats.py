"""Every file the package writes: CSV reports, key-value summaries and
manifests, binary snapshots, PPM heatmaps and COO matrix dumps.

All floating-point text output uses 17 significant digits so that identical
runs produce byte-identical files and values round-trip exactly.
"""

from __future__ import annotations

import os
from contextlib import AbstractContextManager
from functools import lru_cache

import numpy as np

from .grid import FieldSet, Grid

DIAGNOSTIC_COLUMNS = ("time", "kinetic_energy", "mean_h", "mean_a",
                      "max_u", "perturbation_norm")
FLOAT_FIELD = "{:.17g}"  # 17 significant digits: every float round-trips


def format_float(x: float) -> str:
    return FLOAT_FIELD.format(float(x))


class CsvWriter(AbstractContextManager):
    """Streaming CSV: the header, then one line per row (a dict keyed by
    column or a sequence of one value per column), each value printed as
    format_float prints it (an int as itself); UTF-8, LF line ends."""

    def __init__(self, path, columns):
        self.columns = tuple(columns)
        # one format call per line, not one format_float call per value
        self._line = ",".join([FLOAT_FIELD] * len(self.columns)) + "\n"
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._fh.write(",".join(self.columns) + "\n")

    def __call__(self, row) -> None:
        if isinstance(row, dict):
            row = [row[c] for c in self.columns]
        self._fh.write(self._line.format(*row))

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
    """Plain 'key = value' text, floats at 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in items:
            if isinstance(value, float):
                value = format_float(value)
            fh.write(f"{key} = {value}\n")


@lru_cache(maxsize=32)
def _grid_header(grid: Grid) -> bytes:
    """The 'nx ny lx ly ' part of a snapshot header, once per grid."""
    return " ".join([str(grid.nx), str(grid.ny), format_float(grid.lx),
                     format_float(grid.ly), ""]).encode("ascii")


def write_snapshot(path, fields: FieldSet, t: float) -> None:
    """Header line 'nx ny lx ly t', then u1, u2, h, a as little-endian f64."""
    with open(path, "wb") as fh:
        fh.write(_grid_header(fields.grid) + (format_float(t) + "\n").encode("ascii"))
        for arr in (fields.u1, fields.u2, fields.h, fields.a):
            # the array's own buffer when it is already C-ordered "<f8"
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def read_snapshot(path):
    """Inverse of write_snapshot; returns (FieldSet, t)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        nx, ny = int(header[0]), int(header[1])
        lx, ly, t = float(header[2]), float(header[3]), float(header[4])
        raw = np.frombuffer(fh.read(4 * nx * ny * 8), dtype="<f8")
    return FieldSet.from_vector(Grid(nx, ny, lx, ly), raw), t


def write_ppm(path, field: np.ndarray) -> None:
    """Grayscale P6 heatmap spanning the field's range, plus a scale sidecar."""
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
    write_key_values(f"{path}.scale.txt", [("min", lo), ("max", hi)])


def write_manifest(directory, files, config_echo) -> None:
    """Manifest of emitted files (name, format) and the exact config echo."""
    path = os.path.join(directory, "manifest.txt")
    items = []
    for index, (name, fmt) in enumerate(files):
        items += [(f"file.{index}.name", name), (f"file.{index}.format", fmt)]
    write_key_values(path, items + [(f"config.{key}", value)
                                    for key, value in config_echo])


def export_coo(op, path) -> None:
    """Write a SparseOperator as 'row col value' text lines (17 significant
    digits), sorted by row then column."""
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    line = "{} {} " + FLOAT_FIELD + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(map(line.format, coo.row[order].tolist(),
                             coo.col[order].tolist(), coo.data[order].tolist())))
