"""File output helpers: atomic writes, sample CSVs, PGM heatmaps.

Everything lands on disk via a temp file plus rename so an interrupted
run never leaves a truncated artifact behind.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np


def atomic_write_bytes(path, payload: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_samples_csv(path, samples: np.ndarray) -> None:
    """One state per line, coordinates comma-separated."""
    lines = [",".join(map(str, row)) for row in np.asarray(samples, dtype=np.int64).tolist()]
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
        )
    atomic_write(path, "\n".join(lines) + "\n")


def write_histogram_pgm(path, samples: np.ndarray, dims: tuple[int, int]) -> None:
    """P2 ASCII heatmap of a 2-D sample histogram, peak-normalized to 255."""
    if len(dims) != 2:
        raise ValueError("PGM output needs a 2-D space")
    samples = np.asarray(samples, dtype=np.int64)
    hist = np.zeros(dims, dtype=np.int64)
    np.add.at(hist, (samples[:, 0], samples[:, 1]), 1)
    peak = hist.max()
    img = (hist * 255) // peak if peak else hist
    lines = ["P2", f"{dims[1]} {dims[0]}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in img)
    atomic_write(path, "\n".join(lines) + "\n")
