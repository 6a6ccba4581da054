"""Reverse-mode automatic differentiation over dense NCHW float32 tensors.

This is deliberately small: exactly the kernels a raster U-Net and its
losses need (convolution, transposed convolution, max pooling, a handful
of elementwise ops, inverted dropout, a masked mean) plus Adam and a
binary checkpoint format. Values are stored as float32; reductions that
feed statistics or bias gradients accumulate in float64.

Ops executed inside a ``with Tape():`` block are recorded; ``backward``
replays the tape in exact reverse order and accumulates gradients on
every tensor with ``requires_grad``. Gradients of a tensor feeding
several consumers add up. The active-tape stack is thread local, so
independent single-threaded contexts (one per training seed)
never share state.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ContractError, DimensionError, FormatError


class Tensor:
    """A dense float32 array plus an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_TLS = threading.local()


def _tape_stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of one forward pass, replayed in reverse by backward()."""

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self, "tapes must nest"
        return False


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    """Wrap an op result, recording it on the active tape if grads are needed."""
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape._records.append((out, inputs, backward_fn))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Propagate d(loss)/d(tensor) through every op recorded on the tape.

    The loss must be a scalar produced under this tape. Tensors never
    touched by the traversal keep grad=None, which downstream consumers
    (Adam, clipping) treat as an exact zero.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for out, inputs, backward_fn in reversed(tape._records):
        gout = out.grad
        if gout is None:
            continue
        gins = backward_fn(gout)
        for tensor, g in zip(inputs, gins):
            if g is None or not tensor.requires_grad:
                continue
            if tensor.grad is None:
                # copy: backward fns may alias one buffer for several inputs
                tensor.grad = np.array(g, dtype=np.float32)
            else:
                tensor.grad += np.asarray(g, dtype=np.float32)


def zero_grads(tensors) -> None:
    """Reset gradients to zero buffers (disconnected tensors then read as 0)."""
    if isinstance(tensors, Mapping):
        tensors = tensors.values()
    for t in tensors:
        t.grad = np.zeros_like(t.data)


def _require_nchw(op: str, t: Tensor, what: str = "input") -> None:
    if t.ndim != 4:
        raise DimensionError(f"{op}: {what} must have rank 4, got shape {t.shape}")


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: operand shapes differ: {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# convolution kernels
#
# conv2d maps a "big" grid (zero-padded input, stride*stride phases) onto a
# "small" grid (output); conv_transpose2d maps small onto big. Channels-last
# rows make kernel tap t link small row r to big row r + offset: a contiguous
# slice, not a window copy. Small rows whose taps wrap across a row or image
# edge fall outside the valid window: cropped going out, zero coming in.


def _grid(a: np.ndarray, stride: int, pad: int, hs: int, ws: int) -> np.ndarray:
    """NCHW -> zeroed (stride*stride, N*hs*ws, C) phase grid holding a at (pad, pad)."""
    n, c, h, w = a.shape
    buf = np.zeros((n, hs * stride, ws * stride, c), dtype=np.float32)
    buf[:, pad:pad + h, pad:pad + w] = a.transpose(0, 2, 3, 1)
    phases = buf.reshape(n, hs, stride, ws, stride, c).transpose(2, 4, 0, 1, 3, 5)
    return np.ascontiguousarray(phases).reshape(stride * stride, n * hs * ws, c)


def _ungrid(g: np.ndarray, stride: int, pad: int, hs: int, ws: int, h: int, w: int) -> np.ndarray:
    """Inverse of _grid: the NCHW (h, w) window at (pad, pad), a view at stride 1."""
    full = g.reshape(stride, stride, -1, hs, ws, g.shape[2]).transpose(2, 3, 0, 4, 1, 5)
    full = full.reshape(-1, hs * stride, ws * stride, g.shape[2])
    return full[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2)


def _tap_gemm(taps, src: np.ndarray, dst: np.ndarray, mats: np.ndarray | None = None):
    """Sum over kernel taps of (shifted contiguous src rows) @ (per-tap matrix).

    Tap t = (src phase, src offset, dst phase, dst offset) links src row
    r + src offset to dst row r + dst offset. Accumulates src rows @ mats[t]
    into dst rows; without mats, returns every tap's src.T @ dst rows, the
    gradient of mats.
    """
    rows = src.shape[1] - max(max(t[1], t[3]) for t in taps)
    if mats is None:
        return np.stack([src[sp, so:so + rows].T @ dst[dp, do:do + rows]
                         for sp, so, dp, do in taps])
    # NumPy hands a one-row or one-column product to gemv, whose rounding
    # depends on the row count; zero padding to two keeps it on GEMM
    cols = mats.shape[2]
    if cols == 1:
        mats = np.concatenate([mats, np.zeros_like(mats)], axis=2)
    for t, (sp, so, dp, do) in enumerate(taps):
        a = src[sp, so:so + rows]
        if rows == 1:
            a = np.concatenate([a, np.zeros_like(a)])
        dst[dp, do:do + rows] += (a @ mats[t])[:rows, :cols]


def _check_conv(op: str, x: Tensor, weight: Tensor, bias: Tensor | None, cin_axis: int) -> None:
    _require_nchw(op, x)
    _require_nchw(op, weight, "weight")
    cin, cout = weight.shape[cin_axis], weight.shape[1 - cin_axis]
    if x.shape[1] != cin:
        raise DimensionError(f"{op}: input channel axis Cin={x.shape[1]} does not match weight Cin={cin}")
    if bias is not None and bias.shape != (cout,):
        raise DimensionError(f"{op}: bias shape {bias.shape} must be ({cout},)")


def _shift_conv(x: Tensor, weight: Tensor, bias: Tensor | None, cin_axis: int, stride: int,
                pad: int, big_hw: tuple[int, int], small_hw: tuple[int, int]) -> Tensor:
    """conv2d (weight Cin on axis 1, x on the big grid) or conv_transpose2d (axis 0, x small)."""
    kh, kw = weight.shape[2:]
    hs, ws = (-(-(d + 2 * pad) // stride) for d in big_hw)
    big, small = (stride, pad, hs, ws, *big_hw), (1, 0, hs, ws, *small_hw)
    src, dst = (big, small) if cin_axis else (small, big)
    taps = [((i % stride) * stride + j % stride, (i // stride) * ws + j // stride)
            for i in range(kh) for j in range(kw)]
    taps = [(p, off, 0, 0) if cin_axis else (0, 0, p, off) for p, off in taps]
    perm = (2, 3, cin_axis, 1 - cin_axis)  # weight axes -> (kh, kw, Cin, Cout)
    wt = weight.data.transpose(perm)
    mats = wt.reshape(kh * kw, *wt.shape[2:])
    xg = _grid(x.data, *src[:4])
    out = np.zeros((dst[0] ** 2, xg.shape[1], mats.shape[2]), dtype=np.float32)
    # a C-contiguous right operand keeps BLAS off the transposed small-matrix
    # kernels, whose rounding depends on the row count: each image of a batch
    # then gets the bits it gets alone
    _tap_gemm(taps, xg, out, np.ascontiguousarray(mats))
    if bias is not None:
        out += bias.data

    def backward_fn(g: np.ndarray):
        gg = _grid(g, *dst[:4])
        gw = _tap_gemm(taps, xg, gg).reshape(wt.shape).transpose(np.argsort(perm))
        gx = None
        if x.requires_grad:
            gx = np.zeros_like(xg)
            _tap_gemm([(dp, do, sp, so) for sp, so, dp, do in taps], gg, gx, mats.transpose(0, 2, 1))
            gx = _ungrid(gx, *src)
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _emit(_ungrid(out, *dst), inputs, backward_fn)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of an NCHW batch with an (Cout,Cin,kh,kw) kernel."""
    _check_conv("conv2d", x, weight, bias, cin_axis=1)
    if stride < 1 or padding < 0:
        raise ContractError(f"conv2d: stride must be >= 1 and padding >= 0, got {stride}, {padding}")
    h, w = x.shape[2:]
    kh, kw = weight.shape[2:]
    span_h = h + 2 * padding - kh
    span_w = w + 2 * padding - kw
    if span_h < 0 or span_w < 0 or span_h % stride or span_w % stride:
        raise DimensionError(
            f"conv2d: spatial axes H={h}, W={w} incompatible with kernel ({kh},{kw}), "
            f"stride {stride}, padding {padding}")
    small_hw = (span_h // stride + 1, span_w // stride + 1)
    return _shift_conv(x, weight, bias, 1, stride, padding, (h, w), small_hw)


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride: int = 1) -> Tensor:
    """Transposed convolution, the exact adjoint of conv2d with the same kernel.

    Weight layout is (Cin, Cout, kh, kw) so that the tensor used by a
    conv2d mapping Cout'->Cin' channels can be reused directly.
    """
    if stride not in (1, 2):
        raise ContractError(f"conv_transpose2d: stride must be 1 or 2, got {stride}")
    _check_conv("conv_transpose2d", x, weight, bias, cin_axis=0)
    h, w = x.shape[2:]
    big_hw = ((h - 1) * stride + weight.shape[2], (w - 1) * stride + weight.shape[3])
    return _shift_conv(x, weight, bias, 0, stride, 0, big_hw, (h, w))


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2.

    Ties route the gradient to the first maximum in row-major window
    order, and a NaN counts as a maximum.
    """
    _require_nchw("maxpool2d", x)
    n, c, h, w = x.shape
    k = 2
    if h % k or w % k:
        raise DimensionError(f"maxpool2d: spatial axes H={h}, W={w} not divisible by k={k}")
    ho, wo = h // k, w // k
    views = [x.data[:, :, i::k, j::k] for i in range(k) for j in range(k)]
    # np.maximum spreads NaN and keeps its second operand on a 0.0/-0.0 tie, so
    # folding from the last view keeps the value of the first maximum
    out = views[-1].copy()
    for v in reversed(views[:-1]):
        np.maximum(out, v, out=out)
    idx = np.zeros((n, c, ho, wo), dtype=np.intp)
    for i in reversed(range(k * k)):  # the lowest hit writes last; NaN is a hit
        v = views[i]
        np.copyto(idx, i, where=(v == out) | np.isnan(v))

    def backward_fn(g: np.ndarray):
        gw = np.zeros((n, c, ho, wo, k * k), dtype=np.float32)
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        gx = gw.reshape(n, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
        return (gx,)

    return _emit(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# elementwise ops (exact shape equality, no tensor-tensor broadcasting)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, np.float32(0))

    def backward_fn(g: np.ndarray):
        return (g * (x.data > 0),)

    return _emit(out, (x,), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)

    def backward_fn(g: np.ndarray):
        return g, g

    return _emit(a.data + b.data, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("sub", a, b)

    def backward_fn(g: np.ndarray):
        return g, -g

    return _emit(a.data - b.data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("mul", a, b)

    def backward_fn(g: np.ndarray):
        return g * b.data, g * a.data

    return _emit(a.data * b.data, (a, b), backward_fn)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a / b. The caller keeps b away from zero."""
    _require_same_shape("div", a, b)
    out = a.data / b.data

    def backward_fn(g: np.ndarray):
        ga = g / b.data
        gb = -g * out / b.data
        return ga, gb

    return _emit(out, (a, b), backward_fn)


def neg(x: Tensor) -> Tensor:
    def backward_fn(g: np.ndarray):
        return (-g,)

    return _emit(-x.data, (x,), backward_fn)


def log(x: Tensor) -> Tensor:
    """Natural log. The caller keeps x strictly positive."""

    def backward_fn(g: np.ndarray):
        return (g / x.data,)

    return _emit(np.log(x.data), (x,), backward_fn)


def softplus(x: Tensor) -> Tensor:
    """ln(1 + e^x) computed as max(x,0) + log1p(e^-|x|) so large x never overflows."""
    d = x.data
    out = np.maximum(d, np.float32(0)) + np.log1p(np.exp(-np.abs(d)))

    def backward_fn(g: np.ndarray):
        # sigmoid via the same overflow-safe split
        e = np.exp(-np.abs(d))
        sig = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(np.float32)
        return (g * sig,)

    return _emit(out, (x,), backward_fn)


def scale(x: Tensor, s: float) -> Tensor:
    s32 = np.float32(s)

    def backward_fn(g: np.ndarray):
        return (g * s32,)

    return _emit(x.data * s32, (x,), backward_fn)


def add_scalar(x: Tensor, c: float) -> Tensor:
    def backward_fn(g: np.ndarray):
        return (g,)

    return _emit(x.data + np.float32(c), (x,), backward_fn)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two NCHW tensors along the channel axis."""
    _require_nchw("concat_channels", a)
    _require_nchw("concat_channels", b, "second input")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise DimensionError(
            f"concat_channels: N/H/W axes must match, got {a.shape} vs {b.shape}")
    ca = a.shape[1]

    def backward_fn(g: np.ndarray):
        return g[:, :ca], g[:, ca:]

    return _emit(np.concatenate([a.data, b.data], axis=1), (a, b), backward_fn)


def slice_channels(x: Tensor, c0: int, c1: int) -> Tensor:
    """Take channels [c0, c1) of an NCHW tensor."""
    _require_nchw("slice_channels", x)
    c = x.shape[1]
    if not (0 <= c0 < c1 <= c):
        raise DimensionError(f"slice_channels: range [{c0},{c1}) invalid for C={c}")

    def backward_fn(g: np.ndarray):
        gx = np.zeros_like(x.data)
        gx[:, c0:c1] = g
        return (gx,)

    return _emit(x.data[:, c0:c1].copy(), (x,), backward_fn)


def pad2d(x: Tensor, h_out: int, w_out: int) -> Tensor:
    """Zero-pad the bottom/right of the spatial axes up to (h_out, w_out)."""
    _require_nchw("pad2d", x)
    n, c, h, w = x.shape
    if h_out < h or w_out < w:
        raise DimensionError(f"pad2d: target ({h_out},{w_out}) smaller than input ({h},{w})")
    out = np.zeros((n, c, h_out, w_out), dtype=np.float32)
    out[:, :, :h, :w] = x.data

    def backward_fn(g: np.ndarray):
        return (np.ascontiguousarray(g[:, :, :h, :w]),)

    return _emit(out, (x,), backward_fn)


def crop2d(x: Tensor, h_out: int, w_out: int) -> Tensor:
    """Keep the top-left (h_out, w_out) window of the spatial axes."""
    _require_nchw("crop2d", x)
    n, c, h, w = x.shape
    if h_out > h or w_out > w:
        raise DimensionError(f"crop2d: target ({h_out},{w_out}) larger than input ({h},{w})")

    def backward_fn(g: np.ndarray):
        gx = np.zeros_like(x.data)
        gx[:, :, :h_out, :w_out] = g
        return (gx,)

    return _emit(x.data[:, :, :h_out, :w_out].copy(), (x,), backward_fn)


def mean_masked(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of x over True positions of a boolean mask; scalar output.

    Accumulates in float64. Unmasked positions contribute nothing to the
    value and receive an exactly zero gradient.
    """
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        raise ContractError(f"mean_masked: mask must be boolean, got dtype {mask.dtype}")
    if mask.shape != x.shape:
        raise DimensionError(f"mean_masked: mask shape {mask.shape} must equal input {x.shape}")
    m = int(mask.sum())
    if m == 0:
        raise ContractError("mean_masked: mask selects no elements")
    out = np.float32(x.data[mask].sum(dtype=np.float64) / m)

    def backward_fn(g: np.ndarray):
        gx = np.zeros_like(x.data)
        gx[mask] = np.float32(float(g.reshape(())) / m)
        return (gx,)

    return _emit(out, (x,), backward_fn)


def dropout_masks(p: float, rng: np.random.Generator, shapes: Sequence[tuple[int, ...]],
                  passes: int = 1) -> list[np.ndarray]:
    """Inverted-dropout keep masks (0 or 1/(1-p), float32), one per site shape.

    A site of shape (N, ...) gets a (passes*N, ...) mask, pass-major. Pass t
    draws rng.random(shape) for every site in order before pass t+1 draws
    any, so the passes consume the generator exactly as that many separate
    forwards would, one after another.
    """
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout_masks: rate must be in [0, 1), got {p}")
    masks = [np.empty((passes * s[0], *s[1:]), dtype=np.float32) for s in shapes]
    for t in range(passes):
        for shape, mask in zip(shapes, masks):
            mask[t * shape[0]:(t + 1) * shape[0]] = rng.random(shape) >= p
    for mask in masks:
        mask *= np.float32(1.0 / (1.0 - p))
    return masks


def dropout(x: Tensor, keep: np.ndarray) -> Tensor:
    """Inverted dropout: multiply by a ``keep`` mask from dropout_masks.

    A mask with R times x's rows applies R passes to x at once and returns
    R times the rows, pass-major.
    """
    if keep.shape[1:] != x.shape[1:] or keep.shape[0] % x.shape[0]:
        raise DimensionError(f"dropout: keep mask {keep.shape} does not tile input {x.shape}")
    tiled = keep.reshape(-1, *x.shape)

    def backward_fn(g: np.ndarray):
        gx = g * keep  # a sum over one pass would turn -0.0 into 0.0
        return (gx if len(tiled) == 1 else gx.reshape(tiled.shape).sum(axis=0),)

    return _emit((x.data * tiled).reshape(keep.shape), (x,), backward_fn)


# ---------------------------------------------------------------------------
# optimizer


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params: Mapping[str, Tensor]):
        self.step = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}


def adam_step(params: Mapping[str, Tensor], state: AdamState, lr: float) -> None:
    """One Adam update with bias correction; lr is constant, no schedule.

    Tensors with grad=None are treated as zero-gradient: their moments
    decay and (from fresh state) the parameters stay unchanged.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # the defaults of the Adam paper
    state.step += 1
    t = state.step
    bc1 = np.float32(1.0 - beta1 ** t)
    bc2 = np.float32(1.0 - beta2 ** t)
    b1 = np.float32(beta1)
    b2 = np.float32(beta2)
    for name, p in params.items():
        if name not in state.m:
            raise ContractError(f"adam_step: no state for parameter '{name}'")
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= b1
        v *= b2
        if g is not None:
            if g.shape != p.data.shape:
                raise DimensionError(
                    f"adam_step: grad shape {g.shape} != param shape {p.data.shape} for '{name}'")
            m += np.float32(1.0 - beta1) * g
            v += np.float32(1.0 - beta2) * (g * g)
        p.data -= np.float32(lr) * (m / bc1) / (np.sqrt(v / bc2) + np.float32(eps))


# ---------------------------------------------------------------------------
# checkpoint format
#
# magic "GUQW" | version u16 | tensor count u32 | per tensor:
#   name length u16, UTF-8 name, rank u8, dims u32 each,
#   row-major little-endian float32 payload.

CHECKPOINT_MAGIC = b"GUQW"
CHECKPOINT_VERSION = 1


def write_atomic(path, payload: bytes) -> None:
    """Write a file through a temp file renamed into place, so it is never seen half-written."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_file(path) -> bytes:
    """A file's bytes; a missing or unreadable file is a FormatError naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as err:
        raise FormatError(f"{path}: cannot read ({err.strerror or err})") from None


def save_checkpoint(path, params: Mapping[str, Tensor]) -> None:
    """Write named tensors in insertion order; byte output is deterministic."""
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<H", CHECKPOINT_VERSION)
    buf += struct.pack("<I", len(params))
    for name, t in params.items():
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ContractError(f"save_checkpoint: name too long ({len(raw)} bytes)")
        if t.data.ndim > 0xFF:
            raise ContractError(f"save_checkpoint: rank {t.data.ndim} exceeds format limit")
        buf += struct.pack("<H", len(raw))
        buf += raw
        buf += struct.pack("<B", t.data.ndim)
        for d in t.data.shape:
            buf += struct.pack("<I", d)
        buf += np.ascontiguousarray(t.data, dtype="<f4").tobytes()
    write_atomic(path, bytes(buf))


def load_checkpoint(path) -> dict[str, Tensor]:
    """Read a checkpoint back into named Tensors, preserving order."""
    blob = read_file(path)

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise FormatError(f"{path}: truncated while reading {what}")
        piece = blob[off:off + n]
        off += n
        return piece

    off = 0
    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic, not a GUQW checkpoint")
    (version,) = struct.unpack("<H", take(2, "version"))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    params: dict[str, Tensor] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor name is not UTF-8") from None
        (rank,) = struct.unpack("<B", take(1, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims")) if rank else ()
        size = math.prod(dims)  # exact: a corrupt shape cannot wrap around
        payload = take(4 * size, f"payload of '{name}'")
        data = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)
        if name in params:
            raise FormatError(f"{path}: duplicate tensor name '{name}'")
        params[name] = Tensor(data)
    if off != len(blob):
        raise FormatError(f"{path}: {len(blob) - off} trailing bytes after last tensor")
    return params
