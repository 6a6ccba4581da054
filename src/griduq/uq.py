"""Two uncertainty backends over the same trunk.

MC-dropout: T stochastic forward passes of a Gaussian-head model with
dropout left on. The predictive mean is the average of the per-pass
means, epistemic variance is the population variance of those means,
and aleatoric variance is the average predicted sigma^2. All three are
full grids; total variance = epistemic + aleatoric.

Split-conformal CQR: conformity scores E = max(q_lo - y, y - q_hi) are
pooled over every masked pixel of the calibration days into one global
qhat, the ceil((n+1)(1-alpha))-th smallest score. Prediction widens the
raw quantile band symmetrically: [q_lo - qhat, q_hi + qhat]. The
marginal coverage guarantee needs nothing from the model but
exchangeability of calibration and test days.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .data import ChannelStats, GridSample, batches
from .errors import CalibrationError, ContractError
from .model import UQ_CQR, UQ_MCD, UNetParams, forward, gaussian_moments


@dataclass(frozen=True)
class McdPrediction:
    """MC-dropout output grids for one input; variances in ppb^2. Like CqrPrediction it
    has a ``point`` prediction, a ``uq_score`` grid and a float64 ``band(alpha)``."""

    mean: np.ndarray
    epistemic: np.ndarray
    aleatoric: np.ndarray

    @property
    def total_variance(self) -> np.ndarray:
        return self.epistemic + self.aleatoric

    @property
    def point(self) -> np.ndarray:
        return self.mean

    @property
    def uq_score(self) -> np.ndarray:
        return self.epistemic

    def band(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """mean -/+ z sqrt(total variance): the central (1 - alpha) Gaussian band."""
        half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * np.sqrt(self.total_variance, dtype=float)
        return self.mean - half, self.mean + half


@dataclass(frozen=True)
class CqrPrediction:
    """Conformalized quantile band for one input; lengths in ppb."""

    lo: np.ndarray
    mid: np.ndarray
    hi: np.ndarray

    @property
    def point(self) -> np.ndarray:
        return self.mid

    @property
    def uq_score(self) -> np.ndarray:
        return self.hi - self.lo

    def band(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """The conformal band; its alpha was fixed when qhat was calibrated."""
        return self.lo.astype(np.float64), self.hi.astype(np.float64)

    def widened(self, qhat: float) -> "CqrPrediction":
        """This raw (qhat 0) band moved out by qhat on both sides; the median stays."""
        q32 = np.float32(qhat)
        return CqrPrediction(lo=self.lo - q32, mid=self.mid, hi=self.hi + q32)


def aggregate_mc_passes(mus: Sequence[np.ndarray],
                        sigma2s: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce per-pass (mu, sigma^2) grids to (mean, epistemic, aleatoric).

    Either argument may be a list of (H, W) grids or one (T, H, W) stack.

    Float64 two-pass arithmetic: when every pass is bitwise identical the
    epistemic variance is exactly zero, not merely tiny.
    """
    if len(mus) != len(sigma2s) or len(mus) < 1:
        raise ContractError("aggregate_mc_passes: need matching, nonempty pass lists")
    t = len(mus)
    mu_stack = np.asarray(mus, dtype=np.float64)
    s2_stack = np.asarray(sigma2s, dtype=np.float64)
    mean = mu_stack.sum(axis=0) / t
    epistemic = ((mu_stack - mean) ** 2).sum(axis=0) / t
    aleatoric = s2_stack.sum(axis=0) / t
    return (mean.astype(np.float32), epistemic.astype(np.float32),
            aleatoric.astype(np.float32))


def mc_dropout_predict(params: UNetParams, x: np.ndarray, t_passes: int,
                       rng: np.random.Generator | None = None) -> McdPrediction:
    """T stochastic passes for one (C, H, W) input; reproducible given rng state.

    All T passes run as one forward of batch T, drawing the same dropout masks
    in the same order as T one-pass forwards one after another.
    """
    if params.config.uq_method != UQ_MCD:
        raise ContractError("mc_dropout_predict needs a Gaussian-head model")
    if t_passes < 2:
        raise ContractError(f"mc_dropout_predict: t_passes must be >= 2, got {t_passes}")
    # at rate 0 every pass is the same forward, so one stands for all T: the mean of T
    # equal passes is that pass, bit for bit, and their variance is exactly 0
    passes = t_passes if params.config.dropout_rate > 0.0 else 1
    mu, sigma2 = gaussian_moments(forward(params, Tensor(np.asarray(x)[None]), rng, passes))
    mean, epistemic, aleatoric = aggregate_mc_passes(mu.data[:, 0], sigma2.data[:, 0])
    return McdPrediction(mean=mean, epistemic=epistemic, aleatoric=aleatoric)


def conformal_rank(n: int, alpha: float) -> int:
    """qhat's 1-indexed rank ceil((n+1)(1-alpha)) among n scores; CalibrationError past n."""
    # the 1e-9 slack keeps float products like 100 * 0.9 from ceiling to 91
    k = max(1, math.ceil((n + 1) * (1.0 - alpha) - 1e-9))
    if k > n:
        need = math.ceil(1.0 / alpha - 1e-9) - 1
        raise CalibrationError(
            f"alpha={alpha} needs at least {need} calibration scores, got {n}")
    return k


def conformal_quantile(scores: np.ndarray, alpha: float) -> float:
    """The ceil((n+1)(1-alpha))-th smallest score (1-indexed order statistic)."""
    if not 0.0 < alpha < 1.0:
        raise ContractError(f"alpha must be in (0, 1), got {alpha}")
    scores = np.asarray(scores, dtype=np.float64).ravel()
    k = conformal_rank(scores.size, alpha)
    return float(np.partition(scores, k - 1)[k - 1])


def conformity_scores(params: UNetParams, samples: Sequence[GridSample], batch_size: int,
                      stats: ChannelStats) -> np.ndarray:
    """Pooled E = max(q_lo - y, y - q_hi) over every masked pixel of every raw day.

    Days are z-scored by stats and forwarded batch_size at a time, dropout off, in sample
    order; boolean indexing is day-major, so the scores pool in the order of one day at a time.
    """
    if params.config.uq_method != UQ_CQR:
        raise ContractError("conformity_scores needs a quantile-head model")
    pooled = []
    for _, xb, yb, maskb in batches(samples, batch_size, stats):
        bands = forward(params, Tensor(xb)).data
        m = maskb[:, 0]
        y = yb[:, 0][m]
        pooled.append(np.maximum(bands[:, 0][m] - y, y - bands[:, -1][m]).astype(np.float64))
    if not pooled:
        raise ContractError("conformity_scores: no calibration samples")
    return np.concatenate(pooled)


def cqr_predict(params: UNetParams, x: np.ndarray) -> CqrPrediction:
    """The raw (qhat 0) quantile band for one (C, H, W) input; ``widened`` applies a qhat.

    Dropout stays off. The grids are raw head values in TAUS order; no
    sorting is applied, so quantile crossings pass through and can be
    measured downstream.
    """
    if params.config.uq_method != UQ_CQR:
        raise ContractError(f"cqr_predict: model is for '{params.config.uq_method}'")
    lo, mid, hi = forward(params, Tensor(np.asarray(x)[None])).data[0]
    return CqrPrediction(lo=lo, mid=mid, hi=hi)
