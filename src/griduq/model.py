"""Fully convolutional U-Net regressor over multi-channel rasters.

Encoder level l runs at width base_width * 2**l; the bottleneck doubles
that once more. Each decoder level upsamples with a 2x2 stride-2
transposed convolution, concatenates the matching encoder skip (which
doubles the channel count) and fuses with two 3x3 convolutions. Every
conv block ends in dropout so the same network serves MC sampling. No
batch norm anywhere. Inputs of arbitrary H, W are zero-padded up to the
next multiple of 2**depth and cropped back, so grid shape is preserved.

The UQ method picks one of two heads, which share the trunk and differ
only in the final 1x1 convolution: MC-dropout's Gaussian head with 2
output channels (mu, and a raw channel mapped to sigma^2 = softplus(raw)
+ 1e-6) or CQR's quantile head with one channel per level of TAUS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError

UQ_MCD = "mcd"
UQ_CQR = "cqr"

TAUS = (0.05, 0.5, 0.95)  # the quantile head's levels: band bottom, median, band top
SIGMA2_FLOOR = 1e-6


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int
    base_width: int
    depth: int
    dropout_rate: float
    uq_method: str

    def __post_init__(self):
        if self.in_channels < 1:
            raise ContractError(f"in_channels must be >= 1, got {self.in_channels}")
        if self.base_width < 1 or self.depth < 1:
            raise ContractError(
                f"base_width and depth must be >= 1, got {self.base_width}, {self.depth}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ContractError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.uq_method not in (UQ_MCD, UQ_CQR):
            raise ContractError(f"uq_method must be '{UQ_MCD}' or '{UQ_CQR}'")

    @property
    def out_channels(self) -> int:
        return 2 if self.uq_method == UQ_MCD else len(TAUS)


class UNetParams:
    """Named parameter tensors plus the config that shaped them."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        expected = _shapes(config)
        got = {name: tuple(t.shape) for name, t in tensors.items()}
        if got != expected:
            diffs = [f"{n} {got.get(n, 'missing')} (config: {expected.get(n, 'none')})"
                     for n in sorted(expected.keys() | got.keys()) if got.get(n) != expected.get(n)]
            raise ContractError(f"parameters do not match the config: {', '.join(diffs)}")
        self.config = config
        self.tensors = {name: tensors[name] for name in expected}

    def require_grad(self) -> "UNetParams":
        for t in self.tensors.values():
            t.requires_grad = True
        return self


def _convs(config: ModelConfig) -> list[tuple[str, int, int, int, int]]:
    """(name, level, Cin, Cout, k) of every conv in checkpoint order: encoder, bottleneck,
    decoder (deep to shallow), head. The level is the output grid's; ``up<l>`` is the 2x2
    stride-2 transposed conv into level l."""
    rows, cin = [], config.in_channels
    for lvl in range(config.depth + 1):  # the encoder levels, then the bottleneck
        name = f"enc{lvl}" if lvl < config.depth else "bot"
        width = config.base_width * 2 ** lvl
        rows += [(f"{name}a", lvl, cin, width, 3), (f"{name}b", lvl, width, width, 3)]
        cin = width
    for lvl in reversed(range(config.depth)):
        width = config.base_width * 2 ** lvl
        rows += [(f"up{lvl}", lvl, 2 * width, width, 2), (f"dec{lvl}a", lvl, 2 * width, width, 3),
                 (f"dec{lvl}b", lvl, width, width, 3)]
    return rows + [("head", 0, config.base_width, config.out_channels, 1)]


def _shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape in checkpoint order; an up-conv weight is (Cin, Cout, k, k)."""
    shapes = {}
    for name, _, cin, cout, k in _convs(config):
        shapes[f"{name}_w"] = (cin, cout, k, k) if name.startswith("up") else (cout, cin, k, k)
        shapes[f"{name}_b"] = (cout,)
    return shapes


def build(config: ModelConfig, seed: int) -> UNetParams:
    """He-uniform weights (bound sqrt(6/fan_in)), zero biases, seeded PRNG."""
    rng = np.random.default_rng(seed)
    shapes = _shapes(config)
    tensors: dict[str, Tensor] = {}
    for name, _, cin, _, k in _convs(config):
        bound = math.sqrt(6.0 / (cin * k * k))
        w = rng.uniform(-bound, bound, size=shapes[f"{name}_w"]).astype(np.float32)
        tensors[f"{name}_w"] = Tensor(w, requires_grad=True)
        tensors[f"{name}_b"] = Tensor(np.zeros(shapes[f"{name}_b"], dtype=np.float32),
                                      requires_grad=True)
    return UNetParams(config, tensors)


def forward(params: UNetParams, x: Tensor, rng: np.random.Generator | None = None,
            passes: int = 1) -> Tensor:
    """Run the network on an (N, C, H, W) batch; output is (passes*N, heads, H, W).

    Dropout is sampled from ``rng`` exactly when a generator is given and the
    rate is above 0; otherwise every dropout site is the identity. passes > 1
    runs that many dropout passes of the batch in one go, pass-major: the
    layers before the first dropout site run once at N rows, and that site
    widens the batch to passes*N. Masks are drawn pass by pass, so rows
    t*N .. t*N + N - 1 are bitwise the t-th of `passes` one-pass forwards run
    in a row on the same generator, which ends in the same state.
    """
    cfg = params.config
    if x.ndim != 4:
        raise DimensionError(f"forward: input must be NCHW, got shape {x.shape}")
    if x.shape[1] != cfg.in_channels:
        raise DimensionError(
            f"forward: channel axis C={x.shape[1]} does not match config in_channels={cfg.in_channels}")
    sampling = rng is not None and cfg.dropout_rate > 0.0
    if passes < 1 or (passes > 1 and not sampling):
        raise ContractError(f"forward: passes={passes}; more than 1 needs a generator and a "
                            "dropout rate above 0")
    t = params.tensors
    n, _, h, w = x.shape
    mult = 2 ** cfg.depth
    hp = -(-h // mult) * mult
    wp = -(-w // mult) * mult
    # in: the zero-bordered channels-last buffer every conv reads; out: contiguous NCHW
    out = ad.pad2d(x, hp, wp)
    # dropout sites in forward order: the output of each double conv's second conv
    sites = [(n, cout, hp >> lvl, wp >> lvl)
             for name, lvl, _, cout, _ in _convs(cfg) if name.endswith("b")]
    keeps = ad.dropout_masks(cfg.dropout_rate, rng, sites, passes) if sampling else []

    def double_conv(inp: Tensor, name: str) -> Tensor:
        inp = ad.relu(ad.conv2d(inp, t[f"{name}a_w"], t[f"{name}a_b"], padding=1))
        inp = ad.relu(ad.conv2d(inp, t[f"{name}b_w"], t[f"{name}b_b"], padding=1))
        return ad.dropout(inp, keeps.pop(0)) if sampling else inp

    skips = []
    for lvl in range(cfg.depth):
        out = double_conv(out, f"enc{lvl}")
        skips.append(out)
        out = ad.maxpool2d(out)
    out = double_conv(out, "bot")
    for lvl in reversed(range(cfg.depth)):
        out = ad.conv_transpose2d(out, t[f"up{lvl}_w"], t[f"up{lvl}_b"], stride=2)
        out = ad.concat_channels(skips[lvl], out)
        out = double_conv(out, f"dec{lvl}")
    return ad.crop2d(ad.conv2d(out, t["head_w"], t["head_b"]), h, w)


def gaussian_moments(head_out: Tensor) -> tuple[Tensor, Tensor]:
    """Split a 2-channel head into (mu, sigma^2) inside the autodiff graph.

    sigma^2 = softplus(raw) + 1e-6, strictly positive by construction.
    """
    if head_out.ndim != 4 or head_out.shape[1] != 2:
        raise DimensionError(f"gaussian_moments: expected (N, 2, H, W), got {head_out.shape}")
    mu = ad.slice_channels(head_out, 0, 1)
    sigma2 = ad.add_scalar(ad.softplus(ad.slice_channels(head_out, 1, 2)), SIGMA2_FLOOR)
    return mu, sigma2

