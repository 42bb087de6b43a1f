"""Deterministic JSON and CSV encoding for run artifacts.

Complex matrices are stored row-major as [re, im] pairs; floats are printed
by their shortest round-trip repr, so re-running a campaign reproduces files
byte for byte.  All text artifacts use "\\n" line endings.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "write_text",
    "matrix_to_json",
    "matrix_from_json",
    "csv_line",
]


def write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def matrix_to_json(A) -> list:
    """Encode a complex matrix as nested lists of [re, im] pairs."""
    A = np.asarray(A, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{name} must be a non-empty list of rows")
    rows = []
    width = None
    for row in obj:
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise ValueError(f"{name} rows must be lists of equal length")
        width = len(row)
        entries = []
        for cell in row:
            # json reads the NaN and Infinity tokens as floats, and a bool is an int.
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(type(v) in (int, float) and math.isfinite(v) for v in cell)
            ):
                raise ValueError(f"{name} entries must be finite [re, im] pairs")
            entries.append(complex(cell[0], cell[1]))
        rows.append(entries)
    if width == 0:
        raise ValueError(f"{name} rows must be non-empty")
    return np.asarray(rows, dtype=np.complex128)


def csv_line(values) -> str:
    """One CSV row; floats get their shortest round-trip repr."""
    return ",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in values) + "\n"
