"""Plain-file exports: P6 heatmaps, grid/rank/series CSVs, the text report.

Heatmaps use a diverging blue-white-red ramp with grid row 0 as the top
(northmost) image row; non-finite cells render neutral gray. CSV floats
are printed with 9 significant digits, enough for binary32 values to
re-parse bit-exactly. Every file is written to a temp file and renamed
into place, so a failed write keeps the old file.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import write_atomic
from .data import RegionSpec, read_text
from .errors import ContractError, FormatError
from .metrics import MetricsReport, SeriesRow, StationScore

GRAY = (128, 128, 128)
BLUE = (10, 30, 150)
RED = (160, 20, 25)


def _ramp(t: np.ndarray) -> np.ndarray:
    """Diverging colormap on t in [0, 1]: blue at 0, white at 0.5, red at 1."""
    rgb = np.empty(t.shape + (3,), dtype=np.float64)
    lower = t < 0.5
    u = np.where(lower, t * 2.0, (t - 0.5) * 2.0)[..., None]
    blue = np.asarray(BLUE, dtype=np.float64)
    red = np.asarray(RED, dtype=np.float64)
    white = np.full(3, 255.0)
    rgb[lower] = (blue + (white - blue) * u[lower])
    rgb[~lower] = (white + (red - white) * u[~lower])
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def write_heatmap(grid: np.ndarray, path) -> None:
    """Render a 2-D grid as a binary P6 PPM.

    The finite min/max map to the extreme colors; a constant grid renders
    uniformly in the midpoint color.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ContractError(f"write_heatmap: grid must be 2-D, got shape {grid.shape}")
    finite = np.isfinite(grid)
    vmin = float(grid[finite].min()) if finite.any() else 0.0
    vmax = float(grid[finite].max()) if finite.any() else 0.0
    if vmax > vmin:
        t = (grid - vmin) / (vmax - vmin)
    else:
        t = np.full(grid.shape, 0.5)
    t = np.where(finite, t, 0.5)
    rgb = _ramp(t)
    rgb[~finite] = GRAY
    h, w = grid.shape
    write_atomic(path, f"P6\n{w} {h}\n255\n".encode("ascii") + rgb.tobytes())


def _fmt(v: float) -> str:
    return f"{float(v):.9g}"


def write_grid_csv(grid: np.ndarray, spec: RegionSpec, path) -> None:
    """One line per cell: row, col, lat, lon, value (9 significant digits)."""
    grid = np.asarray(grid)
    if grid.shape != (spec.h, spec.w):
        raise ContractError(f"write_grid_csv: grid {grid.shape} must match region {(spec.h, spec.w)}")
    lats = [_fmt(spec.cell_center(r, 0)[0]) for r in range(spec.h)]  # lat varies by row only
    lons = [_fmt(spec.cell_center(0, c)[1]) for c in range(spec.w)]
    lines = ["row,col,lat,lon,value"] + [f"{r},{c},{lats[r]},{lons[c]},{_fmt(v)}"
                                         for r, row in enumerate(grid.tolist())
                                         for c, v in enumerate(row)]
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def read_grid_csv(path) -> np.ndarray:
    """Rebuild the float32 grid a write_grid_csv call described."""
    _, lines = read_text(Path(path))
    if not lines or lines[0] != "row,col,lat,lon,value":
        raise FormatError(f"{path}: missing grid CSV header")
    cells = {}
    for ln, line in enumerate(lines[1:], 2):
        try:
            row, col, _, _, value = line.split(",")
            cell, v = (int(row), int(col)), np.float32(value)
        except ValueError:
            raise FormatError(f"{path}: line {ln} is not row,col,lat,lon,value: {line!r}") from None
        if min(cell) < 0 or cell in cells:
            raise FormatError(f"{path}: line {ln} has a negative or repeated cell {cell}")
        cells[cell] = v
    if not cells:
        raise FormatError(f"{path}: no cells")
    h = max(r for r, _ in cells) + 1
    w = max(c for _, c in cells) + 1
    grid = np.full((h, w), np.nan, dtype=np.float32)
    for (r, c), v in cells.items():
        grid[r, c] = v
    return grid


def write_ranks_csv(rows: Sequence[StationScore], path) -> None:
    lines = ["rank,row,col,lat,lon,uq_score,rmse"]
    for i, s in enumerate(rows, 1):
        lines.append(f"{i},{s.row},{s.col},{_fmt(s.lat)},{_fmt(s.lon)},"
                     f"{_fmt(s.uq_score)},{_fmt(s.rmse)}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def write_series_csv(rows: Sequence[SeriesRow], path) -> None:
    lines = ["date,y,mid,lo,hi"]
    for s in rows:
        lines.append(f"{s.date.isoformat()},{_fmt(s.y)},{_fmt(s.mid)},{_fmt(s.lo)},{_fmt(s.hi)}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def write_report(report: MetricsReport, path) -> None:
    """Key=value lines, a blank line, then the same numbers as a CSV table."""
    pairs: list[tuple[str, str]] = []
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if value is None:
            continue
        if field.name == "rmse_per_seed":
            pairs.append((field.name, ",".join(_fmt(v) for v in value)))
        elif isinstance(value, float):
            pairs.append((field.name, _fmt(value)))
        else:
            pairs.append((field.name, str(value)))
    lines = [f"{k}={v}" for k, v in pairs]
    lines.append("")
    lines.append("metric,value")
    for k, v in pairs:
        if k in ("region", "uq_method"):
            continue
        lines.append(f'{k},"{v}"' if "," in v else f"{k},{v}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())
