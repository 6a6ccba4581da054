"""Multi-seed training orchestration and the runs directory layout.

A runs directory holds one ``config.txt`` (key=value), one ``runs.log``
line per completed seed (rewritten as each seed finishes), and per seed:
the best-validation checkpoint and the channel statistics used to
standardize inputs (both GUQW files).
Everything a later evaluation needs to rebuild the model and reproduce
the split lives in those files. Every file is written to a temp file and
renamed into place.

Training is bitwise deterministic for a fixed seed: the day shuffle is
reseeded per (seed, epoch), the dropout stream is seeded per run, and
all reductions run in a fixed order.
"""

from __future__ import annotations

import math
import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import (TRAIN_FRAC, ChannelStats, GridSample, batches, convert_fields,
                   dataset_fingerprint, parse_fields, read_text, record_from, record_items,
                   split, standardize, targets_digest)
from .errors import ContractError, FormatError, TrainingError
from .losses import gaussian_nll, quantile_loss
from .model import (TAUS, UQ_CQR, UQ_MCD, ModelConfig, UNetParams, build, forward,
                    gaussian_moments)
from .uq import conformal_quantile, conformity_scores

GRAD_CLIP_NORM = 5.0
CONFIG_NAME = "config.txt"
RUNS_LOG_NAME = "runs.log"
THREADS_ENV = "GRIDUQ_THREADS"

@dataclass(frozen=True)
class TrainConfig:
    """One training's settings. Its defaults are ``train``'s flag defaults, and
    config.txt lists its fields in this order. Every field is checked here, so a
    bad one fails before anything in the runs directory changes."""

    uq_method: str
    base_width: int = 32
    depth: int = 3
    dropout_rate: float = 0.1
    epochs: int = 200
    lr: float = 1e-3
    batch_size: int = 8
    alpha: float = 0.1
    t_passes: int = 30
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        self.model_config(1)  # checks uq_method, base_width, depth and dropout_rate
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractError("epochs and batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ContractError(f"lr must be finite and > 0, got {self.lr}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.seeds:
            raise ContractError("at least one seed is required")
        if len(set(self.seeds)) < len(self.seeds) or min(self.seeds) < 0:
            raise ContractError(f"seeds must be distinct and >= 0, got {self.seeds}")
        if not 0.0 < self.alpha < 1.0:
            raise ContractError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.uq_method == UQ_MCD and self.t_passes < 2:
            raise ContractError(f"MC-dropout needs t_passes >= 2, got {self.t_passes}")

    def model_config(self, in_channels: int) -> ModelConfig:
        return ModelConfig(in_channels=in_channels, base_width=self.base_width,
                           depth=self.depth, dropout_rate=self.dropout_rate,
                           uq_method=self.uq_method)

    def split_days(self, samples: list[GridSample], seed: int):
        """One seed's (train, calib, val) days. Both methods validate on the days past
        the TRAIN_FRAC share; CQR halves that share into train and calibration, MCD
        trains on all of it and has no calibration days (None)."""
        if self.uq_method == UQ_CQR:
            return split(samples, TRAIN_FRAC, calib=True, seed=seed)
        train, val = split(samples, TRAIN_FRAC, calib=False, seed=seed)
        return train, None, val


@dataclass
class RunRecord:
    seed: int
    best_val_loss: float
    best_epoch: int
    final_train_loss: float
    qhat: float | None
    checkpoint: str        # runs-dir relative paths
    stats: str
    wall_time_s: float
    heldout_targets: str | None = None  # targets_digest of the held-out days; None in older lines

    def to_line(self) -> str:
        return " ".join(record_items(self))

    @classmethod
    def from_line(cls, line: str, where=RUNS_LOG_NAME) -> "RunRecord":
        return record_from(cls, parse_fields(line.split(), where, "item"), where)


def resolve_workers(n_tasks: int, deterministic: bool = False) -> int:
    """Worker count for seed-level parallelism: at most one per task and per CPU this
    process may run on, capped by GRIDUQ_THREADS."""
    if deterministic or n_tasks <= 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cap = os.environ.get(THREADS_ENV)
    if cap is not None:
        try:
            cap_n = int(cap)
        except ValueError:
            raise ContractError(f"{THREADS_ENV} must be an integer, got {cap!r}") from None
        if cap_n < 1:
            raise ContractError(f"{THREADS_ENV} must be >= 1, got {cap_n}")
        n_tasks = min(n_tasks, cap_n)
    return min(n_tasks, cpus or 1)


def clip_grad_norm(params: dict[str, Tensor]) -> float:
    """Scale all gradients so their global L2 norm is at most GRAD_CLIP_NORM."""
    total = 0.0
    for t in params.values():
        if t.grad is not None:
            total += float(np.sum(t.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > GRAD_CLIP_NORM:
        factor = np.float32(GRAD_CLIP_NORM / norm)
        for t in params.values():
            if t.grad is not None:
                t.grad *= factor
    return norm


def _batch_loss(params: UNetParams, xb, yb, maskb, rng: np.random.Generator | None) -> Tensor:
    out = forward(params, Tensor(xb), rng)
    if params.config.uq_method == UQ_MCD:
        mu, sigma2 = gaussian_moments(out)
        return gaussian_nll(mu, sigma2, yb, maskb)
    return quantile_loss(out, yb, maskb)


def _pooled_loss(params: UNetParams, samples: Sequence[GridSample], batch_size: int) -> float:
    """Deterministic mask-pixel-weighted loss over a sample list, dropout off.

    Batches with no station pixel are skipped.
    """
    total = 0.0
    count = 0
    for _, xb, yb, maskb in batches(samples, batch_size):
        n = int(maskb.sum())
        if n == 0:
            continue  # no station pixel: the loss is undefined and would weigh 0
        loss = _batch_loss(params, xb, yb, maskb, rng=None)
        total += loss.item() * n
        count += n
    return total / count


@dataclass
class FitResult:
    best_state: dict[str, np.ndarray]
    best_val_loss: float
    best_epoch: int
    final_train_loss: float


def fit(params: UNetParams, train_samples: list[GridSample], val_samples: list[GridSample],
        *, epochs: int, lr: float, batch_size: int, seed: int,
        stop: threading.Event | None = None) -> FitResult:
    """Adam training loop with best-validation snapshotting.

    Aborts with the (epoch, batch) position if a loss goes non-finite, and
    raises KeyboardInterrupt before a batch once ``stop`` is set.
    Epochs and batches are numbered from 1 in records and messages.
    """
    usable = [s for s in train_samples if s.mask.any()]
    if len(usable) < len(train_samples):
        warnings.warn(f"dropped {len(train_samples) - len(usable)} training days with no stations",
                      RuntimeWarning, stacklevel=2)
    if not usable:
        raise ContractError("fit: no training samples with station coverage")
    if not any(s.mask.any() for s in val_samples):
        raise ContractError("fit: validation set is empty or has no station pixels")
    params.require_grad()
    state = ad.AdamState(params.tensors)
    drop_rng = np.random.default_rng([seed, 7])
    best_val = float("inf")
    best_epoch = 0
    best_state = {name: t.data.copy() for name, t in params.tensors.items()}
    final_train = float("nan")

    for epoch in range(1, epochs + 1):
        shuffled = [usable[i] for i in np.random.default_rng([seed, epoch]).permutation(len(usable))]
        epoch_total = 0.0
        epoch_count = 0
        for bi, (_, xb, yb, maskb) in enumerate(batches(shuffled, batch_size), start=1):
            if stop is not None and stop.is_set():
                raise KeyboardInterrupt
            tape = ad.Tape()
            with tape:
                loss = _batch_loss(params, xb, yb, maskb, drop_rng)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(f"non-finite training loss at epoch {epoch}, batch {bi}")
            ad.zero_grads(params.tensors)
            ad.backward(tape, loss)
            clip_grad_norm(params.tensors)
            ad.adam_step(params.tensors, state, lr=lr)
            n = int(maskb.sum())
            epoch_total += value * n
            epoch_count += n
        final_train = epoch_total / epoch_count
        val_loss = _pooled_loss(params, val_samples, batch_size)
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss after epoch {epoch}")
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_state = {name: t.data.copy() for name, t in params.tensors.items()}
    return FitResult(best_state=best_state, best_val_loss=best_val,
                     best_epoch=best_epoch, final_train_loss=final_train)


def train_one(config: TrainConfig, samples: list[GridSample], seed: int,
              out_dir, stop: threading.Event | None = None) -> RunRecord:
    """Train a single seed end to end and write its artifacts into out_dir.

    Days are split by ``config.split_days``; CQR runs compute the global
    qhat on their calibration days from the best-validation weights.
    """
    out = Path(out_dir)
    in_channels = samples[0].x.shape[0]
    model_config = config.model_config(in_channels)

    train_set, calib_set, val_set = config.split_days(samples, seed)
    stats = ChannelStats.from_samples(train_set)
    train_set = standardize(train_set, stats)
    val_set = standardize(val_set, stats)

    params = build(model_config, seed)
    started = time.perf_counter()
    result = fit(params, train_set, val_set, epochs=config.epochs, lr=config.lr,
                 batch_size=config.batch_size, seed=seed, stop=stop)
    wall = time.perf_counter() - started

    best_name = f"seed{seed}_best.guqw"
    stats_name = f"seed{seed}_stats.guqw"
    best_params = UNetParams(model_config,
                             {name: Tensor(arr) for name, arr in result.best_state.items()})
    ad.save_checkpoint(out / best_name, best_params.tensors)
    ad.save_checkpoint(out / stats_name, {"mean": Tensor(stats.mean), "std": Tensor(stats.std)})

    qhat = None
    if calib_set is not None:
        scores = conformity_scores(best_params, standardize(calib_set, stats), config.batch_size)
        qhat = conformal_quantile(scores, config.alpha)

    return RunRecord(seed=seed, best_val_loss=result.best_val_loss,
                     best_epoch=result.best_epoch, final_train_loss=result.final_train_loss,
                     qhat=qhat, checkpoint=best_name, stats=stats_name, wall_time_s=wall,
                     heldout_targets=targets_digest(val_set))


def train_all_seeds(config: TrainConfig, samples: list[GridSample], out_dir,
                    deterministic: bool = False):
    """Train every configured seed, optionally in parallel.

    Returns (records, failures), both in seed order. Failed seeds are
    reported, not raised, so partial results stay on disk. Only the calling
    thread writes runs.log, once per finished seed. On Ctrl-C (or any other
    BaseException) queued seeds never start, running seeds stop at their next
    batch without a runs.log line, and the interrupt is re-raised.
    """
    out = Path(out_dir)
    # a bad GRIDUQ_THREADS is refused before anything in out_dir changes
    workers = resolve_workers(len(config.seeds), deterministic)
    # emptied before config.txt changes, so no old seed line outlives an interrupted retrain
    ad.write_atomic(out / RUNS_LOG_NAME, b"")
    write_run_config(out, config, samples)

    stop = threading.Event()

    def attempt(seed: int) -> RunRecord | str:
        try:
            return train_one(config, samples, seed, out, stop)
        except Exception as err:  # noqa: BLE001 - seed isolation is the point
            return f"{type(err).__name__}: {err}"

    records: dict[int, RunRecord] = {}
    failures: dict[int, str] = {}
    pool = None
    try:
        if workers == 1:
            # no pool: run in a pool thread, one worker peaked 16% higher in RSS
            outcomes = ((seed, attempt(seed)) for seed in config.seeds)
        else:
            pool = ThreadPoolExecutor(max_workers=workers)
            futures = {pool.submit(attempt, seed): seed for seed in config.seeds}
            outcomes = ((futures[fut], fut.result()) for fut in as_completed(futures))
        for seed, outcome in outcomes:
            if isinstance(outcome, str):
                failures[seed] = outcome
                continue
            records[seed] = outcome
            finished = [records[s] for s in config.seeds if s in records]
            ad.write_atomic(out / RUNS_LOG_NAME,
                            "".join(rec.to_line() + "\n" for rec in finished).encode())
    except BaseException:
        stop.set()  # running seeds stop at their next batch
        raise
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)  # queued seeds never start

    return ([records[s] for s in config.seeds if s in records],
            [(s, failures[s]) for s in config.seeds if s in failures])


def population_stats(values: Sequence[float]) -> tuple[float, float, float]:
    """Exact population mean, variance and standard deviation of a nonempty list."""
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, variance, math.sqrt(variance)


# ---------------------------------------------------------------------------
# runs directory persistence


def write_run_config(out_dir, config: TrainConfig, samples: list[GridSample]) -> None:
    """config.txt: the TrainConfig fields with ``in_channels`` second, then the
    quantile head's levels (TAUS) and the dataset fingerprint."""
    items = record_items(config)
    items.insert(1, f"in_channels={samples[0].x.shape[0]}")
    items += [f"taus={','.join(repr(t) for t in TAUS)}",
              f"dataset={dataset_fingerprint(samples)}"]
    ad.write_atomic(Path(out_dir) / CONFIG_NAME, ("\n".join(items) + "\n").encode())


def read_run_config(runs_dir) -> tuple[TrainConfig, int]:
    """The TrainConfig and input channel count of config.txt, as ``run_config`` gives them."""
    return run_config(runs_dir, None)[:2]


def run_config(runs_dir, samples: list[GridSample] | None) -> tuple[TrainConfig, int, bytes]:
    """The TrainConfig, input channel count and bytes of config.txt; given samples, raise
    ContractError unless the runs were trained on them (channels, ``dataset=``)."""
    fp = Path(runs_dir) / CONFIG_NAME
    text, lines = read_text(fp)
    items = parse_fields(lines, fp)
    config = record_from(TrainConfig, items, fp)
    in_channels = convert_fields(items, fp, {"in_channels": int})["in_channels"]
    if "taus" in items and convert_fields(
            items, fp, {"taus": lambda v: tuple(float(t) for t in v.split(","))})["taus"] != TAUS:
        raise FormatError(f"{fp}: taus={items['taus']} differ from the quantile head's levels "
                          f"{TAUS}")
    if samples is not None:
        if samples[0].shape[0] != in_channels:
            raise ContractError(f"dataset has {samples[0].shape[0]} channels "
                                f"but runs were trained with {in_channels}")
        if items.get("dataset") not in (None, dataset_fingerprint(samples)):
            raise ContractError(f"{runs_dir}: runs were trained on another dataset "
                                "(its day dates or grid shape differ from this one)")
    return config, in_channels, text


def read_runs_log(runs_dir) -> list[RunRecord]:
    """One record per nonblank line; a negative or repeated seed is a FormatError."""
    fp = Path(runs_dir) / RUNS_LOG_NAME
    records: dict[int, RunRecord] = {}
    for ln, line in enumerate(read_text(fp)[1], 1):
        if line.strip():
            rec = RunRecord.from_line(line, f"{fp} line {ln}")
            if rec.seed < 0 or rec.seed in records:
                raise FormatError(f"{fp} line {ln}: seed={rec.seed} is "
                                  f"{'negative' if rec.seed < 0 else 'repeated'}")
            records[rec.seed] = rec
    return list(records.values())


def load_run_params(runs_dir, record: RunRecord) -> tuple[UNetParams, ChannelStats]:
    """Rebuild a trained model and its input statistics from a runs directory."""
    config, in_channels = read_run_config(runs_dir)
    files = (ad.read_file(Path(runs_dir) / n) for n in (record.checkpoint, record.stats))
    return parse_run_params(config.model_config(in_channels), runs_dir, record, *files)


def parse_run_params(model_config: ModelConfig, runs_dir, record: RunRecord, weights: bytes,
                     stats: bytes) -> tuple[UNetParams, ChannelStats]:
    """A seed's model and input statistics from the bytes of its checkpoint and stats files.
    A weight that is not finite, or stats other than a finite mean and a finite std > 0 per
    input channel, is a FormatError naming the file."""
    weights_fp, stats_fp = (Path(runs_dir) / n for n in (record.checkpoint, record.stats))
    tensors = ad.parse_checkpoint(weights, weights_fp)
    stats_tensors = ad.parse_checkpoint(stats, stats_fp)
    if set(stats_tensors) != {"mean", "std"}:
        raise FormatError(f"{stats_fp}: expected tensors 'mean' and 'std'")
    mean, std = stats_tensors["mean"].data, stats_tensors["std"].data
    for name, t in tensors.items():
        if not np.isfinite(t.data).all():
            raise FormatError(f"{weights_fp}: tensor '{name}' is not finite")
    c = model_config.in_channels
    if not (mean.shape == std.shape == (c,) and np.isfinite([mean, std]).all() and std.min() > 0):
        raise FormatError(f"{stats_fp}: mean and std must be finite, of shape ({c},), and std > 0")
    return UNetParams(model_config, tensors), ChannelStats(mean=mean, std=std)
