"""Evaluation: masked error metrics, UQ summaries, ranking, extrapolation.

Grid-valued UQ scores are reduced the same way throughout: per-cell mean
over the days a cell is masked, then max/min/average across covered
cells. Point-error metrics pool squared errors over every masked
pixel-day first and aggregate across seeds second, so per-seed values
and their exact population mean/variance are both reported. All four
scoring stages open a runs directory through ``_heldout_runs``; a seed's
held-out predictions stay the (D, H, W) stacks they are stored in, and
float64 sums over them still pool day by day.
"""

from __future__ import annotations

import datetime
import hashlib
import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import Tensor, load_checkpoint, read_file, save_checkpoint
from .data import GridSample, RegionSpec, standardize, targets_digest
from .errors import ContractError, FormatError
from .train import (RunRecord, TrainConfig, UQ_CQR, UQ_MCD, parse_run_params, population_stats,
                    read_runs_log, run_config)
from .uq import CqrPrediction, McdPrediction, cqr_predict, mc_dropout_predict

EVAL_RNG_TAG = 11
# Bump when stored held-out predictions would no longer match a fresh compute
# (the forward pass, EVAL_RNG_TAG or the stored grids change) or the key changes.
HELDOUT_VERSION = 2


def _pooled_mean(what: str, day_values, n_days: int, samples: Sequence[GridSample]) -> float:
    """Mean of ``day_values(i, samples[i])``, day i's values at its masked pixels, pooled."""
    if n_days != len(samples) or not samples:
        raise ContractError(f"{what}: need matching, nonempty prediction/sample lists")
    total = 0.0
    count = 0
    for i, s in enumerate(samples):
        values = day_values(i, s)
        total += float(np.sum(values, dtype=np.float64))
        count += values.size
    if count == 0:
        raise ContractError(f"{what}: no masked pixels in any sample")
    return total / count


def pooled_rmse(preds: Sequence[np.ndarray], samples: Sequence[GridSample]) -> float:
    """RMSE over the masked pixels of all days pooled together."""
    def squared_error(i, s):
        diff = preds[i][s.mask].astype(np.float64) - s.y[s.mask].astype(np.float64)
        return diff * diff
    return math.sqrt(_pooled_mean("pooled_rmse", squared_error, len(preds), samples))


def time_mean_over_masked(grids: Sequence[np.ndarray],
                          masks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell mean over the days each cell is masked.

    Returns (mean grid with NaN at never-covered cells, coverage mask).
    Invariant to the order of days.
    """
    if len(grids) != len(masks) or len(grids) == 0:
        raise ContractError("time_mean_over_masked: need matching, nonempty lists")
    acc = np.zeros(grids[0].shape, dtype=np.float64)
    cnt = np.zeros(grids[0].shape, dtype=np.int64)
    for g, m in zip(grids, masks):
        m = np.asarray(m, dtype=bool)
        acc[m] += g[m].astype(np.float64)
        cnt[m] += 1
    covered = cnt > 0
    mean = np.full(acc.shape, np.nan)
    mean[covered] = acc[covered] / cnt[covered]
    return mean, covered


def uq_stats(pred, masks: Sequence[np.ndarray]) -> tuple[float, float, float]:
    """(max, min, avg) of the per-cell time-mean UQ score of a stacked prediction: CQR
    interval length in ppb, MCD epistemic variance in ppb^2."""
    mean, covered = time_mean_over_masked(pred.uq_score, masks)
    if not covered.any():
        raise ContractError("statistics need at least one covered cell")
    vals = mean[covered]
    return float(vals.max()), float(vals.min()), float(vals.mean())


def empirical_coverage(pred: CqrPrediction, samples: Sequence[GridSample]) -> float:
    """Fraction of masked pixel-days with lo <= y <= hi; the band's day i is samples[i]."""
    def inside(i, s):
        y = s.y[s.mask]
        return (pred.lo[i][s.mask] <= y) & (y <= pred.hi[i][s.mask])
    return _pooled_mean("empirical_coverage", inside, len(pred.lo), samples)


def quantile_crossing_rate(band: CqrPrediction, samples: Sequence[GridSample]) -> float:
    """Fraction of masked pixel-days where the raw head has q_lo > q_hi.

    Takes the stacked raw band (qhat 0), so it measures the head before
    conformal widening.
    """
    return _pooled_mean("quantile_crossing_rate",
                        lambda i, s: band.lo[i][s.mask] > band.hi[i][s.mask],
                        len(band.lo), samples)


# ---------------------------------------------------------------------------
# report


@dataclass(frozen=True)
class MetricsReport:
    region: str
    uq_method: str
    n_channels: int
    n_seeds: int
    rmse_per_seed: tuple[float, ...]
    rmse_mean: float
    rmse_variance: float
    rmse_std: float
    interval_max: float | None = None
    interval_min: float | None = None
    interval_avg: float | None = None
    epistemic_max: float | None = None
    epistemic_min: float | None = None
    epistemic_avg: float | None = None
    coverage: float | None = None
    crossing_rate: float | None = None


@dataclass(frozen=True)
class HeldOut:
    """One seed's held-out days (raw, date order) and its predictions, each over (D, H, W)
    stacks; for CQR, ``raw`` is the band before ``preds`` was widened by the seed's qhat."""

    days: list[GridSample]
    preds: McdPrediction | CqrPrediction
    raw: McdPrediction | CqrPrediction


def _heldout_key(record: RunRecord, files: list[bytes], days: list[GridSample],
                 grids: dict[str, np.ndarray]) -> np.ndarray:
    """SHA-256 of every input of a seed's held-out predictions (``files``: the config.txt,
    checkpoint and stats bytes), then of each stored grid's name, shape and bytes."""
    parts = [f"{HELDOUT_VERSION}|{record.seed}".encode(), *files]
    for s in days:
        parts += [s.date.isoformat().encode(), np.ascontiguousarray(s.x, dtype="<f4")]
    for name, g in grids.items():
        parts += [name.encode(), repr(g.shape).encode(), np.ascontiguousarray(g, dtype="<f4")]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(memoryview(part).nbytes.to_bytes(8, "little"))
        digest.update(part)
    return np.frombuffer(digest.digest(), dtype=np.uint8).astype(np.float32)


def heldout_predictions(samples: list[GridSample], config: TrainConfig, runs_dir,
                        record: RunRecord, config_text: bytes) -> HeldOut:
    """One seed's predictions on its held-out days, computed once per runs directory.

    Days whose targets_digest is not the record's ``heldout_targets`` are refused first.
    The first call runs one forward per day (MCD: one generator seeded [seed,
    EVAL_RNG_TAG] over the days in date order) and stores the MCD mean/epistemic/aleatoric
    or raw CQR lo/mid/hi grids in ``seed<N>_heldout.guqw``, keyed on HELDOUT_VERSION, the
    seed, ``config_text`` (the config.txt bytes ``config`` came from), the checkpoint and
    stats bytes the weights are parsed from (one read each), the held-out dates and raw
    inputs, then the grids. Later calls load the file while the key matches, so a changed
    input or a damaged grid is recomputed. A failed write warns and still scores.
    """
    if config.uq_method == UQ_CQR and (record.qhat is None or not math.isfinite(record.qhat)):
        raise ContractError(f"seed {record.seed}: CQR record needs a finite qhat, "
                            f"got {record.qhat}")
    days = sorted(config.split_days(samples, record.seed)[-1], key=lambda s: s.date)
    if record.heldout_targets not in (None, targets_digest(days)):
        raise ContractError(f"seed {record.seed} was trained on another dataset "
                            "(its held-out targets or station masks differ)")
    kind = McdPrediction if config.uq_method == UQ_MCD else CqrPrediction
    names = [f.name for f in fields(kind)]
    files = [config_text, *(read_file(Path(runs_dir) / name)
                            for name in (record.checkpoint, record.stats))]
    path = Path(runs_dir) / f"seed{record.seed}_heldout.guqw"
    try:
        stored = load_checkpoint(path)
    except FormatError:
        stored = {}
    grids = {n: t.data for n, t in stored.items() if n != "key"}
    if (list(stored) != ["key", *names]
            or not np.array_equal(stored["key"].data, _heldout_key(record, files, days, grids))):
        params, stats = parse_run_params(config.model_config(samples[0].shape[0]), runs_dir,
                                         record, *files[1:])
        xs = [s.x for s in standardize(days, stats)]
        if config.uq_method == UQ_MCD:
            rng = np.random.default_rng([record.seed, EVAL_RNG_TAG])
            fresh = [mc_dropout_predict(params, x, config.t_passes, rng) for x in xs]
        else:
            fresh = [cqr_predict(params, x) for x in xs]  # the raw band
        grids = {n: np.stack([getattr(p, n) for p in fresh]) for n in names}
        key = _heldout_key(record, files, days, grids)
        try:
            save_checkpoint(path, {"key": Tensor(key)} | {n: Tensor(g) for n, g in grids.items()})
        except OSError as err:
            warnings.warn(f"held-out predictions not stored: {err}", RuntimeWarning, stacklevel=2)
    raw = kind(**grids)
    preds = raw if config.uq_method == UQ_MCD else raw.widened(record.qhat)
    return HeldOut(days=days, preds=preds, raw=raw)


def _heldout_runs(samples: list[GridSample], runs_dir,
                  first_only: bool) -> tuple[TrainConfig, list[HeldOut]]:
    """A runs directory's config, checked against this dataset, and the held-out predictions
    of every completed seed or of the first only; each file of the directory is read once."""
    config, _, config_text = run_config(runs_dir, samples)
    records = read_runs_log(runs_dir)
    if not records:
        raise ContractError(f"{runs_dir}: runs.log has no completed seeds")
    return config, [heldout_predictions(samples, config, runs_dir, rec, config_text)
                    for rec in records[:1 if first_only else None]]


def evaluate_runs(samples: list[GridSample], spec: RegionSpec, runs_dir) -> MetricsReport:
    """Score every seed of a runs directory on its own held-out days.

    The split is recomputed from each record's seed, so the dataset must
    be the one the runs were trained on.
    """
    config, helds = _heldout_runs(samples, runs_dir, first_only=False)
    rmses = [pooled_rmse(h.preds.point, h.days) for h in helds]
    triples = [uq_stats(h.preds, [s.mask for s in h.days]) for h in helds]
    mean, variance, std = population_stats(rmses)
    score = "epistemic" if config.uq_method == UQ_MCD else "interval"
    kwargs = {f"{score}_{stat}": float(np.mean(values))
              for stat, values in zip(("max", "min", "avg"), zip(*triples))}
    if config.uq_method == UQ_CQR:
        kwargs.update(coverage=float(np.mean([empirical_coverage(h.preds, h.days) for h in helds])),
                      crossing_rate=float(np.mean([quantile_crossing_rate(h.raw, h.days)
                                                   for h in helds])))
    return MetricsReport(
        region=spec.region, uq_method=config.uq_method, n_channels=samples[0].shape[0],
        n_seeds=len(helds), rmse_per_seed=tuple(rmses), rmse_mean=mean,
        rmse_variance=variance, rmse_std=std, **kwargs)


# ---------------------------------------------------------------------------
# station ranking


@dataclass(frozen=True)
class StationScore:
    row: int
    col: int
    lat: float
    lon: float
    uq_score: float
    rmse: float


def rank_stations(uq_grid: np.ndarray, rmse_grid: np.ndarray, mask: np.ndarray,
                  spec: RegionSpec) -> list[StationScore]:
    """Masked cells sorted by mean UQ score, descending; ties break on
    (row, col) ascending so the order is fully reproducible."""
    mask = np.asarray(mask, dtype=bool)
    if uq_grid.shape != (spec.h, spec.w) or mask.shape != (spec.h, spec.w):
        raise ContractError(
            f"rank_stations: grids {uq_grid.shape} must match region {(spec.h, spec.w)}")
    if not mask.any():
        raise ContractError("rank_stations: no masked cells to rank")
    rows = [StationScore(int(r), int(c), *spec.cell_center(int(r), int(c)),
                         uq_score=float(uq_grid[r, c]), rmse=float(rmse_grid[r, c]))
            for r, c in np.argwhere(mask)]
    return sorted(rows, key=lambda s: (-s.uq_score, s.row, s.col))


def rank_for_runs(samples: list[GridSample], spec: RegionSpec, runs_dir) -> list[StationScore]:
    """Aggregate UQ score and RMSE per station cell across all seeds, ranked.

    The UQ score is the CQR interval length or the MCD epistemic
    variance, time-averaged per cell and then averaged over seeds.
    """
    _, helds = _heldout_runs(samples, runs_dir, first_only=False)
    seed_means, seed_covered, sq_errors, days_masks = [], [], [], []
    for held in helds:
        masks = [s.mask for s in held.days]
        mean, covered = time_mean_over_masked(held.preds.uq_score, masks)
        seed_means.append(mean)
        seed_covered.append(covered)
        ys = np.stack([s.y for s in held.days]).astype(np.float64)
        sq_errors += list((held.preds.point.astype(np.float64) - ys) ** 2)
        days_masks += masks
    uq_mean, covered_any = time_mean_over_masked(seed_means, seed_covered)
    mse, have = time_mean_over_masked(sq_errors, days_masks)
    return rank_stations(uq_mean, np.sqrt(mse), covered_any & have, spec)


# ---------------------------------------------------------------------------
# time series and extrapolation


@dataclass(frozen=True)
class SeriesRow:
    date: datetime.date
    y: float
    mid: float
    lo: float
    hi: float


def series_for_runs(samples: list[GridSample], spec: RegionSpec, runs_dir,
                    lat: float, lon: float) -> tuple[tuple[int, int], list[SeriesRow]]:
    """Observed vs predicted band at one station cell over held-out days.

    Uses the first configured seed. Each row carries the point prediction
    and the prediction's (1 - alpha) band (``band``).
    """
    row, col = spec.nearest_cell(lat, lon)
    config, (held,) = _heldout_runs(samples, runs_dir, first_only=True)
    lo, hi = held.preds.band(config.alpha)
    mid = held.preds.point
    rows = [SeriesRow(date=s.date, y=float(s.y[row, col]), mid=float(mid[i, row, col]),
                      lo=float(lo[i, row, col]), hi=float(hi[i, row, col]))
            for i, s in enumerate(held.days) if s.mask[row, col]]
    return (row, col), rows


def extrapolate_for_runs(samples: list[GridSample], runs_dir, day_indices: Sequence[int]):
    """Full-grid UQ maps for 1-based indices into the first seed's held-out days.

    Every cell gets a value; no station mask is applied. The maps are
    eval's per-day epistemic variance (MCD) or conformal interval length
    (CQR) from the stored held-out pass, so masked cells carry exactly the
    values eval scores.
    """
    _, (held,) = _heldout_runs(samples, runs_dir, first_only=True)
    scores = held.preds.uq_score
    out = []
    for d in day_indices:
        if not 1 <= d <= len(held.days):
            raise ContractError(
                f"day index {d} out of range, valid indices are 1..{len(held.days)}")
        grid = scores[d - 1]
        if not np.all(np.isfinite(grid)):
            raise ContractError(f"extrapolate: non-finite UQ values on day {d}")
        out.append((d, held.days[d - 1].date, grid))
    return out
