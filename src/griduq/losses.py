"""Masked training objectives, composed from autodiff primitives.

Both losses normalize by the masked-pixel count only, so sparse station
coverage does not shrink gradient magnitudes, and unmasked pixels get
exactly zero gradient. Targets may carry NaN sentinels at unmasked
pixels; they are replaced before any arithmetic and never read.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError
from .model import TAUS

LOG_2PI = math.log(2.0 * math.pi)


def _checked_mask(name: str, pred: Tensor, y: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float32)
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        raise ContractError(f"{name}: mask must be boolean, got dtype {mask.dtype}")
    if y.shape != pred.shape or mask.shape != pred.shape:
        raise DimensionError(
            f"{name}: prediction {pred.shape}, target {y.shape} and mask {mask.shape} must match")
    if not mask.any():
        raise ContractError(f"{name}: mask selects no pixels")
    # sentinel NaNs sit at unmasked pixels; zero them so no NaN enters the graph
    return np.where(mask, y, np.float32(0)), mask


def gaussian_nll(mu: Tensor, sigma2: Tensor, y: np.ndarray, mask: np.ndarray) -> Tensor:
    """Masked mean of 0.5 * (ln(2 pi sigma^2) + (y - mu)^2 / sigma^2)."""
    if sigma2.shape != mu.shape:
        raise DimensionError(f"gaussian_nll: sigma2 {sigma2.shape} must match mu {mu.shape}")
    y0, mask = _checked_mask("gaussian_nll", mu, y, mask)
    masked_s2 = sigma2.data[mask]
    # finite nonpositive variances are a caller bug; NaN/inf flow through so
    # the training loop can report a non-finite loss with its position
    if np.any(np.isfinite(masked_s2) & (masked_s2 <= 0)):
        raise ContractError("gaussian_nll: sigma2 must be strictly positive on masked pixels")
    # off-mask variances may be garbage; pin them to 1 so log/div stay silent
    mask_f = mask.astype(np.float32)
    s2 = ad.add(ad.mul(sigma2, Tensor(mask_f)), Tensor(1.0 - mask_f))
    u = ad.sub(Tensor(y0), mu)
    per_pixel = ad.add(ad.log(s2), ad.div(ad.mul(u, u), s2))
    per_pixel = ad.add_scalar(per_pixel, LOG_2PI)
    return ad.scale(ad.mean_masked(per_pixel, mask), 0.5)


def pinball(q: Tensor, y: np.ndarray, tau: float, mask: np.ndarray) -> Tensor:
    """Masked mean of the tilted loss rho_tau(u) = u * (tau - 1[u < 0]), u = y - q.

    Written as tau*relu(u) + (1-tau)*relu(-u); the subgradient at u = 0
    is taken as 0 from both branches.
    """
    if not 0.0 < tau < 1.0:
        raise ContractError(f"pinball: tau must be in (0, 1), got {tau}")
    y0, mask = _checked_mask("pinball", q, y, mask)
    u = ad.sub(Tensor(y0), q)
    tilted = ad.add(ad.scale(ad.relu(u), tau), ad.scale(ad.relu(ad.neg(u)), 1.0 - tau))
    return ad.mean_masked(tilted, mask)


def quantile_loss(head_out: Tensor, y: np.ndarray, mask: np.ndarray) -> Tensor:
    """Sum of pinball terms, one per head channel at its level of TAUS, equally weighted."""
    if head_out.ndim != 4 or head_out.shape[1] != len(TAUS):
        raise DimensionError(
            f"quantile_loss: head {head_out.shape} must carry {len(TAUS)} channels")
    total = None
    for i, tau in enumerate(TAUS):
        term = pinball(ad.slice_channels(head_out, i, i + 1), y, tau, mask)
        total = term if total is None else ad.add(total, term)
    return total
