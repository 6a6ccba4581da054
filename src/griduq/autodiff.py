"""Reverse-mode automatic differentiation over dense NCHW float32 tensors.

This is deliberately small: exactly the kernels a raster U-Net and its
losses need (convolution, transposed convolution, max pooling, a handful
of elementwise ops, inverted dropout, a masked mean) plus Adam and a
binary checkpoint format. Values are stored as float32; reductions that
feed statistics or bias gradients accumulate in float64.

Ops executed inside a ``with Tape():`` block are recorded; ``backward``
replays the tape in exact reverse order and accumulates gradients on
every leaf tensor with ``requires_grad``. Gradients of a tensor feeding
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
    """A float32 array (an op's output may view a zero-bordered buffer) plus an optional gradient."""

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
    if not hasattr(_TLS, "stack"):
        _TLS.stack = []
    return _TLS.stack


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


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn: Callable | None) -> Tensor:
    """Wrap an op result as is (it may view a bordered buffer); tape it if grads are needed."""
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.requires_grad = out_data, None, any(t.requires_grad for t in inputs)
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape._records.append((out, inputs, backward_fn))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Propagate d(loss)/d(tensor) through every op recorded on the tape.

    The loss must be a scalar produced under this tape, which backward
    consumes: records are dropped as they are replayed and only leaves (no
    recorded op's output) keep a gradient, so memory is freed as it goes.
    An untouched leaf keeps grad=None, which Adam and clipping read as 0.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    records = tape._records
    while records:
        out, inputs, backward_fn = records.pop()
        gout, out.grad = out.grad, None
        if gout is None:
            continue
        gins = backward_fn(gout)
        for i, (tensor, g) in enumerate(zip(inputs, gins)):
            if g is None or not tensor.requires_grad:
                continue
            if tensor.grad is not None:
                tensor.grad += g
            elif any(h is not None and np.may_share_memory(g, h) for h in gins[i + 1:]):
                tensor.grad = g.copy()  # another input's gradient shares this buffer
            else:
                tensor.grad = g  # it may view gout, which no one reads again


def zero_grads(tensors) -> None:
    """Reset gradients to zero buffers (disconnected tensors then read as 0)."""
    for t in tensors.values() if isinstance(tensors, Mapping) else tensors:
        t.grad = np.zeros_like(t.data)


def _require_nchw(op: str, t: Tensor, what: str = "input") -> None:
    if t.ndim != 4:
        raise DimensionError(f"{op}: {what} must have rank 4, got shape {t.shape}")


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: operand shapes differ: {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# activation layout and convolution kernels
#
# Between ops, a 4-D activation or gradient lives in a zero-bordered
# channels-last buffer (N, H+2, W+2, C), and the Tensor holds the NCHW view
# of its interior. Ops accept any NCHW array; a conv copies one that views
# no such buffer into a new one.
#
# conv2d maps a "big" grid (zero-padded input, stride*stride phases) onto a
# "small" grid (output); conv_transpose2d maps small onto big. Channels-last
# rows make kernel tap t link small row r to big row r + offset: a contiguous
# slice, not a window copy. Small rows whose taps wrap across a row or image
# edge fall outside the valid window. A stride-1 grid padded by 1 is a
# zero-bordered buffer, whose wrap rows are zeroed in place.


def _border(a: np.ndarray) -> np.ndarray | None:
    """The zero-bordered buffer whose interior the NCHW array a is, or None. Ops
    expose no other view of such a buffer with the interior's shape and strides."""
    buf = a.base
    if (isinstance(buf, np.ndarray) and a.ndim == 4 and buf.flags.c_contiguous
            and buf.shape == (a.shape[0], a.shape[2] + 2, a.shape[3] + 2, a.shape[1])
            and a.strides == tuple(buf.strides[i] for i in (0, 3, 1, 2))):
        return buf
    return None


def _interior(buf: np.ndarray) -> np.ndarray:
    return buf[:, 1:-1, 1:-1].transpose(0, 3, 1, 2)


def _new(shape: tuple[int, ...]) -> np.ndarray:
    """Zeros of an NCHW shape: the interior of a zero-bordered buffer."""
    n, c, h, w = shape
    return _interior(np.zeros((n, h + 2, w + 2, c), dtype=np.float32))


def _placed(like: np.ndarray, where, g) -> np.ndarray:
    """Zeros shaped and laid out like ``like``, holding g at ``where``."""
    out = np.zeros_like(like)
    out[where] = g
    return out


def _each(fn: Callable, *arrays: np.ndarray) -> np.ndarray:
    """Elementwise fn (zeros in, zero out) over the whole zero-bordered buffers when
    every array views one, so the result keeps a zero border; else over the arrays."""
    bufs = [_border(a) for a in arrays]
    return fn(*arrays) if any(b is None for b in bufs) else _interior(fn(*bufs))


def _grid(a: np.ndarray, stride: int, pad: int, hs: int, ws: int) -> np.ndarray:
    """NCHW -> zeroed (stride*stride, N*hs*ws, C) phase grid holding a at (pad, pad),
    over the zero-bordered buffer a views if the grid is that buffer."""
    n, c, h, w = a.shape
    buf = _border(a) if (stride, pad) == (1, 1) else None
    if buf is None:
        buf = at = a.transpose(0, 2, 3, 1)
        if (pad, hs * stride, ws * stride) != (0, h, w):
            buf = np.zeros((n, hs * stride, ws * stride, c), dtype=np.float32)
            buf[:, pad:pad + h, pad:pad + w] = at
    phases = buf.reshape(n, hs, stride, ws, stride, c).transpose(2, 4, 0, 1, 3, 5)
    return np.ascontiguousarray(phases).reshape(stride * stride, n * hs * ws, c)


def _ungrid(g: np.ndarray, stride: int, pad: int, hs: int, ws: int, h: int, w: int) -> np.ndarray:
    """Inverse of _grid: the NCHW (h, w) window at (pad, pad), a view at stride 1,
    where a grid padded by 1 first gets its border zeroed."""
    full = g.reshape(stride, stride, -1, hs, ws, g.shape[2]).transpose(2, 3, 0, 4, 1, 5)
    full = full.reshape(-1, hs * stride, ws * stride, g.shape[2])
    if (stride, pad) == (1, 1):
        full[:, ::hs - 1] = 0
        full[:, :, ::ws - 1] = 0
    return full[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2)


def _tap_gemm(taps, src: np.ndarray, dst: np.ndarray, mats: np.ndarray | None = None):
    """Sum over kernel taps of (shifted contiguous src rows) @ (per-tap matrix).

    Tap t = (src phase, src offset, dst phase, dst offset) links src row r + src offset
    to dst row r + dst offset. Accumulates src rows @ mats[t] into dst rows; without
    mats, returns every tap's src.T @ dst rows, the gradient of mats.
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
    prod = np.empty((max(rows, 2), mats.shape[2]), dtype=np.float32)  # reused by every tap
    for t, (sp, so, dp, do) in enumerate(taps):
        a = src[sp, so:so + rows]
        if rows == 1:
            a = np.concatenate([a, np.zeros_like(a)])
        dst[dp, do:do + rows] += np.matmul(a, mats[t], out=prod)[:rows, :cols]


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
    inset = 0
    if dst[0] == 1 and (hs, ws) == (dst[4] + 2, dst[5] + 2):
        # a 3x3 stride-1 conv2d writes one row and column in: into the interior
        # of a zero-bordered buffer of its input's frame, which the next conv reads
        dst, inset = (1, 1, *dst[2:]), ws + 1
    taps = [((i % stride) * stride + j % stride, (i // stride) * ws + j // stride)
            for i in range(kh) for j in range(kw)]
    taps = [(p, off, 0, inset) if cin_axis else (0, 0, p, off) for p, off in taps]
    perm = (2, 3, cin_axis, 1 - cin_axis)  # weight axes -> (kh, kw, Cin, Cout)
    wt = weight.data.transpose(perm)
    mats = wt.reshape(kh * kw, *wt.shape[2:])

    def zeros(s: int, c: int) -> np.ndarray:  # over an (s*s*N, hs, ws, C) base, as _ungrid expects
        return np.zeros((s * s * x.shape[0], hs, ws, c), dtype=np.float32).reshape(s * s, -1, c)

    xg = _grid(x.data, *src[:4])
    out = zeros(dst[0], mats.shape[2])
    # a C-contiguous right operand keeps BLAS off the transposed small-matrix kernels, whose
    # rounding depends on the row count: each image of a batch then gets the bits it gets alone
    _tap_gemm(taps, xg, out, np.ascontiguousarray(mats))
    if bias is not None:
        out += bias.data

    def backward_fn(g: np.ndarray):
        gg = _grid(g, *dst[:4])
        gw = _tap_gemm(taps, xg, gg).reshape(wt.shape).transpose(np.argsort(perm))
        gx = None
        if x.requires_grad:
            gx = zeros(src[0], mats.shape[1])
            _tap_gemm([(dp, do, sp, so) for sp, so, dp, do in taps], gg, gx, mats.transpose(0, 2, 1))
            gx = _ungrid(gx, *src)
        if bias is None:
            return gx, gw
        # summed over contiguous NCHW: the bits of a float64 sum depend on its order
        return gx, gw, np.ascontiguousarray(g).sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)

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
    span_h, span_w = h + 2 * padding - kh, w + 2 * padding - kw
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

    Ties route the gradient to the first maximum in row-major window order, and a
    NaN counts as a maximum. The routing is built only when a gradient is taped.
    """
    _require_nchw("maxpool2d", x)
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2d: spatial axes H={h}, W={w} not divisible by k=2")
    # the first maximum of each row's column pairs, then of each row pair: np.maximum spreads
    # NaN and keeps its second operand on a 0.0/-0.0 tie, so the earlier candidate goes second
    pairs = x.data.transpose(0, 2, 3, 1).reshape(n, h, w // 2, 2, c)
    cols = np.maximum(pairs[..., 1, :], pairs[..., 0, :])
    rows = cols.reshape(n, h // 2, 2, w // 2, c)
    out = _new((n, c, h // 2, w // 2))
    np.maximum(rows[:, :, 1], rows[:, :, 0], out=out.transpose(0, 2, 3, 1))
    if _active_tape() is None or not x.requires_grad:
        return _emit(out, (x,), None)
    # all-ones words where a pair's first hit (its maximum, or a NaN) is its first
    # member: a bitwise and routes a gradient's exact bits there and +0.0 elsewhere
    firsts = [np.negative((v[0] == m) | np.isnan(v[0]), dtype=np.uint32)
              for v, m in ((pairs.transpose(3, 0, 1, 2, 4), cols),
                           (rows.transpose(2, 0, 1, 3, 4), out.transpose(0, 2, 3, 1)))]

    def backward_fn(g: np.ndarray):
        grows, gx = np.empty(rows.shape, dtype=np.float32), _new(x.shape)
        for gpair, gmax, first in ((grows.transpose(2, 0, 1, 3, 4), g.transpose(0, 2, 3, 1), firsts[1]),
                                   (gx.transpose(0, 2, 3, 1).reshape(pairs.shape).transpose(3, 0, 1, 2, 4),
                                    grows.reshape(cols.shape), firsts[0])):
            np.bitwise_and(gmax.view(np.uint32), first, out=gpair[0].view(np.uint32))
            np.bitwise_and(gmax.view(np.uint32), ~first, out=gpair[1].view(np.uint32))
        return (gx,)

    return _emit(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# elementwise ops (exact shape equality, no tensor-tensor broadcasting)


def relu(x: Tensor) -> Tensor:
    return _emit(_each(lambda a: np.maximum(a, np.float32(0)), x.data), (x,),
                 lambda g: (_each(lambda g, a: g * (a > 0), g, x.data),))


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("sub", a, b)
    return _emit(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("mul", a, b)
    return _emit(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a / b. The caller keeps b away from zero."""
    _require_same_shape("div", a, b)
    out = a.data / b.data
    return _emit(out, (a, b), lambda g: (g / b.data, -g * out / b.data))


def neg(x: Tensor) -> Tensor:
    return _emit(-x.data, (x,), lambda g: (-g,))


def log(x: Tensor) -> Tensor:
    """Natural log. The caller keeps x strictly positive."""
    return _emit(np.log(x.data), (x,), lambda g: (g / x.data,))


def softplus(x: Tensor) -> Tensor:
    """ln(1 + e^x) computed as max(x,0) + log1p(e^-|x|) so large x never overflows."""
    d = x.data
    out = np.maximum(d, np.float32(0)) + np.log1p(np.exp(-np.abs(d)))

    def backward_fn(g: np.ndarray):
        e = np.exp(-np.abs(d))  # sigmoid via the same overflow-safe split
        return (g * np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(np.float32),)

    return _emit(out, (x,), backward_fn)


def scale(x: Tensor, s: float) -> Tensor:
    s32 = np.float32(s)
    return _emit(x.data * s32, (x,), lambda g: (g * s32,))


def add_scalar(x: Tensor, c: float) -> Tensor:
    return _emit(x.data + np.float32(c), (x,), lambda g: (g,))


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two NCHW tensors along the channel axis."""
    _require_nchw("concat_channels", a)
    _require_nchw("concat_channels", b, "second input")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise DimensionError(f"concat_channels: N/H/W axes must match, got {a.shape} vs {b.shape}")
    n, ca, h, w = a.shape
    out = _new((n, ca + b.shape[1], h, w))
    out[:, :ca] = a.data
    out[:, ca:] = b.data

    def backward_fn(g: np.ndarray):
        buf = _grid(g, 1, 1, h + 2, w + 2).reshape(n, h + 2, w + 2, -1)  # g's zero-bordered buffer
        return _interior(np.ascontiguousarray(buf[..., :ca])), _interior(buf[..., ca:])

    return _emit(out, (a, b), backward_fn)


def slice_channels(x: Tensor, c0: int, c1: int) -> Tensor:
    """Take channels [c0, c1) of an NCHW tensor."""
    _require_nchw("slice_channels", x)
    c = x.shape[1]
    if not (0 <= c0 < c1 <= c):
        raise DimensionError(f"slice_channels: range [{c0},{c1}) invalid for C={c}")
    return _emit(x.data[:, c0:c1].copy(), (x,), lambda g: (_placed(x.data, np.s_[:, c0:c1], g),))


def pad2d(x: Tensor, h_out: int, w_out: int) -> Tensor:
    """Zero-pad the bottom/right of the spatial axes up to (h_out, w_out)."""
    _require_nchw("pad2d", x)
    n, c, h, w = x.shape
    if h_out < h or w_out < w:
        raise DimensionError(f"pad2d: target ({h_out},{w_out}) smaller than input ({h},{w})")
    out = _new((n, c, h_out, w_out))
    out[:, :, :h, :w] = x.data
    return _emit(out, (x,), lambda g: (np.ascontiguousarray(g[:, :, :h, :w]),))


def crop2d(x: Tensor, h_out: int, w_out: int) -> Tensor:
    """Keep the top-left (h_out, w_out) window of the spatial axes."""
    _require_nchw("crop2d", x)
    n, c, h, w = x.shape
    if h_out > h or w_out > w:
        raise DimensionError(f"crop2d: target ({h_out},{w_out}) larger than input ({h},{w})")
    window = np.s_[:, :, :h_out, :w_out]
    return _emit(x.data[window].copy(), (x,), lambda g: (_placed(x.data, window, g),))


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
    return _emit(np.array([x.data[mask].sum(dtype=np.float64) / m], dtype=np.float32), (x,),
                 lambda g: (_placed(x.data, mask, np.float32(float(g.reshape(())) / m)),))


def dropout_masks(p: float, rng: np.random.Generator, shapes: Sequence[tuple[int, ...]],
                  passes: int = 1) -> list[np.ndarray]:
    """Inverted-dropout keep masks (0 or 1/(1-p), float32), one per site shape.

    A site of shape (N, ...) gets a (passes*N, ...) mask, pass-major. Pass t
    draws rng.random(shape) for every site in order before pass t+1 draws
    any, so the passes consume the generator exactly as that many separate
    forwards would, one after another. An NCHW site's mask is the interior
    of a zero-bordered buffer, like the activations it scales.
    """
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout_masks: rate must be in [0, 1), got {p}")
    masks = [_new(s) if len(s) == 4 else np.zeros(s, dtype=np.float32)
             for s in ((passes * s[0], *s[1:]) for s in shapes)]
    scale = np.float32(1.0 / (1.0 - p))  # 1 * scale and 0 * scale are exact
    for t in range(passes):
        for shape, mask in zip(shapes, masks):
            mask[t * shape[0]:(t + 1) * shape[0]] = (rng.random(shape) >= p).astype(np.float32) * scale
    return masks


def dropout(x: Tensor, keep: np.ndarray) -> Tensor:
    """Inverted dropout: multiply by a ``keep`` mask from dropout_masks.

    A mask with R times x's rows applies R passes to x at once and returns
    R times the rows, pass-major.
    """
    if keep.shape[1:] != x.shape[1:] or keep.shape[0] % x.shape[0]:
        raise DimensionError(f"dropout: keep mask {keep.shape} does not tile input {x.shape}")
    reps = keep.shape[0] // x.shape[0]

    def backward_fn(g: np.ndarray):
        # a sum over one pass would turn -0.0 into 0.0
        return (_each(lambda g, k: g * k if reps == 1 else
                      (g * k).reshape(reps, -1, *k.shape[1:]).sum(axis=0), g, keep),)

    out = _each(lambda a, k: (a * k.reshape(reps, *a.shape)).reshape(k.shape), x.data, keep)
    return _emit(out, (x,), backward_fn)


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
    bc1, bc2 = np.float32(1.0 - beta1 ** t), np.float32(1.0 - beta2 ** t)
    for name, p in params.items():
        if name not in state.m:
            raise ContractError(f"adam_step: no state for parameter '{name}'")
        g, m, v = p.grad, state.m[name], state.v[name]
        m *= np.float32(beta1)
        v *= np.float32(beta2)
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
    """Write a file, and its missing directories, through a temp file renamed into place,
    so it is never seen half-written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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
    buf = bytearray(CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(params)))
    for name, t in params.items():
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ContractError(f"save_checkpoint: name too long ({len(raw)} bytes)")
        if t.data.ndim > 0xFF:
            raise ContractError(f"save_checkpoint: rank {t.data.ndim} exceeds format limit")
        buf += struct.pack("<H", len(raw)) + raw + struct.pack(f"<B{t.data.ndim}I", t.data.ndim, *t.data.shape)
        buf += np.ascontiguousarray(t.data, dtype="<f4").tobytes()
    write_atomic(path, bytes(buf))


def load_checkpoint(path) -> dict[str, Tensor]:
    """Read a checkpoint back into named Tensors, preserving order."""
    return parse_checkpoint(read_file(path), path)


def parse_checkpoint(blob: bytes, path) -> dict[str, Tensor]:
    """The named Tensors of a checkpoint's bytes, in order; a FormatError names ``path``."""
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
