"""Slow reference implementations used only by the test suite.

The kernel oracles are written as plain nested loops in float64 so that
the vectorized float32 kernels have an independent ground truth to match.
The rest recompute, one day or one pass at a time, what the package
computes in bulk.
"""

import dataclasses
import datetime
import math

import numpy as np

from griduq.autodiff import Tensor
from griduq.data import GeneratorParams, GridSample
from griduq.model import UQ_MCD, forward, gaussian_moments


def conv2d_loops(x, w, b, stride=1, padding=0):
    n, c, h, wd = x.shape
    o, ci, kh, kw = w.shape
    assert ci == c
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + wd] = x.astype(np.float64)
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, ho, wo), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for yi in range(ho):
                for xi in range(wo):
                    acc = float(b[oi])
                    for cc in range(c):
                        for di in range(kh):
                            for dj in range(kw):
                                acc += xp[ni, cc, yi * stride + di, xi * stride + dj] * float(w[oi, cc, di, dj])
                    out[ni, oi, yi, xi] = acc
    return out


def conv_transpose2d_loops(x, w, b, stride=2):
    n, c, h, wd = x.shape
    ci, co, kh, kw = w.shape
    assert ci == c
    ho = (h - 1) * stride + kh
    wo = (wd - 1) * stride + kw
    out = np.zeros((n, co, ho, wo), dtype=np.float64)
    out += b.astype(np.float64)[None, :, None, None]
    for ni in range(n):
        for cc in range(c):
            for yi in range(h):
                for xi in range(wd):
                    v = float(x[ni, cc, yi, xi])
                    for oi in range(co):
                        for di in range(kh):
                            for dj in range(kw):
                                out[ni, oi, yi * stride + di, xi * stride + dj] += v * float(w[cc, oi, di, dj])
    return out


def conv2d_grad_loops(x, w, g, stride=1, padding=0):
    """(dL/dx, dL/dw, dL/db) of L = sum(g * conv2d(x, w, b, stride, padding))."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + wd] = x.astype(np.float64)
    gxp = np.zeros_like(xp)
    gw = np.zeros(w.shape, dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for yi in range(g.shape[2]):
                for xi in range(g.shape[3]):
                    gv = float(g[ni, oi, yi, xi])
                    for cc in range(c):
                        for di in range(kh):
                            for dj in range(kw):
                                at = (ni, cc, yi * stride + di, xi * stride + dj)
                                gxp[at] += gv * float(w[oi, cc, di, dj])
                                gw[oi, cc, di, dj] += gv * xp[at]
    gx = gxp[:, :, padding:padding + h, padding:padding + wd]
    return gx, gw, g.astype(np.float64).sum(axis=(0, 2, 3))


def conv_transpose2d_grad_loops(x, w, g, stride=2):
    """(dL/dx, dL/dw, dL/db) of L = sum(g * conv_transpose2d(x, w, b, stride))."""
    n, c, h, wd = x.shape
    _, co, kh, kw = w.shape
    gx = np.zeros(x.shape, dtype=np.float64)
    gw = np.zeros(w.shape, dtype=np.float64)
    for ni in range(n):
        for cc in range(c):
            for yi in range(h):
                for xi in range(wd):
                    for oi in range(co):
                        for di in range(kh):
                            for dj in range(kw):
                                gv = float(g[ni, oi, yi * stride + di, xi * stride + dj])
                                gx[ni, cc, yi, xi] += gv * float(w[cc, oi, di, dj])
                                gw[cc, oi, di, dj] += gv * float(x[ni, cc, yi, xi])
    return gx, gw, g.astype(np.float64).sum(axis=(0, 2, 3))


def maxpool2d_loops(x, k=2):
    n, c, h, wd = x.shape
    ho, wo = h // k, wd // k
    out = np.zeros((n, c, ho, wo), dtype=np.float64)
    idx = np.zeros((n, c, ho, wo), dtype=np.int64)
    for ni in range(n):
        for cc in range(c):
            for yi in range(ho):
                for xi in range(wo):
                    best = -math.inf
                    best_at = 0
                    for di in range(k):
                        for dj in range(k):
                            v = float(x[ni, cc, yi * k + di, xi * k + dj])
                            if v > best:
                                best = v
                                best_at = di * k + dj
                    out[ni, cc, yi, xi] = best
                    idx[ni, cc, yi, xi] = best_at
    return out, idx


def pinball_loops(y, q, mask, tau):
    total = 0.0
    count = 0
    flat_y = y.reshape(-1)
    flat_q = q.reshape(-1)
    flat_m = mask.reshape(-1)
    for i in range(flat_y.size):
        if not flat_m[i]:
            continue
        u = float(flat_y[i]) - float(flat_q[i])
        total += tau * u if u >= 0 else (tau - 1.0) * u
        count += 1
    return total / count


def gaussian_nll_loops(y, mu, sigma2, mask):
    total = 0.0
    count = 0
    for i in range(y.size):
        if not mask.reshape(-1)[i]:
            continue
        yy = float(y.reshape(-1)[i])
        m = float(mu.reshape(-1)[i])
        s2 = float(sigma2.reshape(-1)[i])
        total += 0.5 * (math.log(2.0 * math.pi) + math.log(s2) + (yy - m) ** 2 / s2)
        count += 1
    return total / count


def rmse_loops(y, pred, mask):
    total = 0.0
    count = 0
    for i in range(y.size):
        if mask.reshape(-1)[i]:
            total += (float(y.reshape(-1)[i]) - float(pred.reshape(-1)[i])) ** 2
            count += 1
    return math.sqrt(total / count)


def spearman_loops(a, b):
    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v), dtype=np.float64)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            r[order[i:j + 1]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return r
    ra, rb = ranks(np.asarray(a, dtype=np.float64)), ranks(np.asarray(b, dtype=np.float64))
    ra -= ra.mean()
    rb -= rb.mean()
    denom = math.sqrt(float((ra * ra).sum()) * float((rb * rb).sum()))
    return float((ra * rb).sum()) / denom


def generate_synthetic_per_day(spec, n_days, channels, noise_profile, station_density, seed):
    """``data.generate_synthetic`` as one sin(base + drift * day) grid per channel
    per day: the same random draws in the same order, one day at a time."""
    h, w = spec.h, spec.w
    rng = np.random.default_rng(seed)
    rows = np.arange(h)[:, None] / max(h - 1, 1)
    cols = np.arange(w)[None, :] / max(w - 1, 1)

    def smooth_field(n_terms=3):
        amp = rng.uniform(0.3, 1.0, n_terms)
        fh = rng.uniform(0.2, 1.5, n_terms)
        fw = rng.uniform(0.2, 1.5, n_terms)
        phase = rng.uniform(0.0, 2.0 * math.pi, n_terms)

        def at(day, drift):
            field = np.zeros((h, w), dtype=np.float64)
            for k in range(n_terms):
                field += amp[k] * np.sin(
                    2.0 * math.pi * (fh[k] * rows + fw[k] * cols) + phase[k] + drift * day)
            return field

        return at

    n_static = max(2, channels // 4)
    fields, drifts = [], []
    for c in range(channels):
        if c == 0:
            ramp = np.sin(0.5 * math.pi * rows) * np.ones((1, w))
            fields.append(lambda day, drift, f=ramp: f)
            drifts.append(0.0)
        elif c == 1:
            ramp = np.ones((h, 1)) * np.sin(0.5 * math.pi * cols)
            fields.append(lambda day, drift, f=ramp: f)
            drifts.append(0.0)
        else:
            fields.append(smooth_field())
            drifts.append(0.0 if c < n_static else float(rng.uniform(0.05, 0.3)))
    scales = np.exp(rng.uniform(math.log(0.5), math.log(50.0), channels))
    offsets = rng.uniform(-2.0, 2.0, channels) * scales
    params = GeneratorParams(
        target_channels=(n_static, n_static + 1, n_static + 2), target_weights=(0.8, -0.6, 0.4),
        linear_coef=6.0, tanh_coef=5.0, tanh_scale=2.0,
        offsets=offsets.astype(np.float64), scales=scales.astype(np.float64))

    field = smooth_field()(0, 0.0)
    weight = np.exp(1.5 * (field - field.mean()) / (field.std() + 1e-12))
    prob = np.clip(station_density * weight / weight.mean(), 0.0, 1.0)
    mask = rng.random((h, w)) < prob
    if not mask.any():
        mask[np.unravel_index(np.argmax(prob), prob.shape)] = True

    sigma = noise_profile.sigma_grid(h, w)
    samples = []
    for day in range(n_days):
        raw = np.stack([fields[c](day, drifts[c]) for c in range(channels)])
        x = (offsets[:, None, None] + scales[:, None, None] * raw).astype(np.float32)
        z = np.zeros((h, w), dtype=np.float64)
        for idx, wgt in zip(params.target_channels, params.target_weights):
            z += wgt * raw[idx]
        clean = params.linear_coef * z + params.tanh_coef * np.tanh(z / params.tanh_scale)
        y = clean + sigma * rng.standard_normal((h, w))
        y = np.where(mask, y.astype(np.float32), np.float32(np.nan))
        date = datetime.date(2005 + day // 30, 6, 1 + day % 30)
        samples.append(GridSample(date=date, x=x, y=y, mask=mask.copy()))
    return samples, params


def stacked(preds):
    """Per-day McdPrediction or CqrPrediction objects as one prediction over (D, H, W)
    stacks, the form the scoring reducers take."""
    kind = type(preds[0])
    return kind(**{f.name: np.stack([getattr(p, f.name) for p in preds])
                   for f in dataclasses.fields(kind)})


def clean_target(params, x):
    """Noiseless y for one (C, H, W) input, recomputed from ``GeneratorParams``."""
    z = np.zeros(x.shape[1:], dtype=np.float64)
    for idx, wgt in zip(params.target_channels, params.target_weights):
        raw = (x[idx].astype(np.float64) - params.offsets[idx]) / params.scales[idx]
        z += wgt * raw
    return (params.linear_coef * z
            + params.tanh_coef * np.tanh(z / params.tanh_scale)).astype(np.float32)


def predict_gaussian(params, x, rng=None):
    """(mu, sigma^2) grids of a Gaussian-head model for one (C, H, W) input: one pass
    at batch 1, the reference that batched MC-dropout passes must equal bitwise."""
    x = np.asarray(x, dtype=np.float32)
    assert params.config.uq_method == UQ_MCD and x.shape[0] == params.config.in_channels
    mu, sigma2 = gaussian_moments(forward(params, Tensor(x[None]), rng))
    return mu.data[0, 0], sigma2.data[0, 0]
