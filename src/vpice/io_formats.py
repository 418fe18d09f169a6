"""File emission: diagnostics CSV, binary snapshots, PPM heatmaps, manifests.

All floating-point text output uses 17 significant digits so that identical
runs produce byte-identical files and values round-trip exactly.
"""

from __future__ import annotations

import os

import numpy as np

from .grid import FieldSet, Grid

DIAGNOSTIC_COLUMNS = ("time", "kinetic_energy", "mean_h", "mean_a",
                      "max_u", "perturbation_norm")


def format_float(x: float) -> str:
    return format(float(x), ".17g")


class DiagnosticsCsvWriter:
    """Streaming CSV sink for run diagnostics."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._fh.write(",".join(DIAGNOSTIC_COLUMNS) + "\n")

    def __call__(self, row: dict) -> None:
        self._fh.write(",".join(format_float(row[c]) for c in DIAGNOSTIC_COLUMNS)
                       + "\n")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def write_eigenvalue_csv(path, eigenvalues) -> None:
    order = np.lexsort((np.asarray(eigenvalues).imag,
                        np.asarray(eigenvalues).real))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("re,im\n")
        for value in np.asarray(eigenvalues)[order]:
            fh.write(f"{format_float(value.real)},{format_float(value.imag)}\n")


def write_key_values(path, items) -> None:
    """Plain 'key = value' text, floats at 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in items:
            if isinstance(value, float):
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
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_snapshot(path):
    """Inverse of write_snapshot; returns (FieldSet, t)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        nx, ny = int(header[0]), int(header[1])
        lx, ly, t = float(header[2]), float(header[3]), float(header[4])
        grid = Grid(nx, ny, lx, ly)
        n = nx * ny
        raw = np.frombuffer(fh.read(4 * n * 8), dtype="<f8")
    return FieldSet.from_vector(grid, raw), t


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
    write_key_values(str(path) + ".scale.txt",
                     [("min", lo), ("max", hi)])


def write_manifest(directory, files, config_echo) -> str:
    """Manifest of emitted files (name, format) and the exact config echo."""
    path = os.path.join(directory, "manifest.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for index, (name, fmt) in enumerate(files):
            fh.write(f"file.{index}.name = {name}\n")
            fh.write(f"file.{index}.format = {fmt}\n")
        for key, value in config_echo:
            fh.write(f"config.{key} = {value}\n")
    return path
