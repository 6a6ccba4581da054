"""Slow reference implementations used only by the test suite.

Everything here is written as plain nested loops in float64 so that the
vectorized float32 kernels have an independent ground truth to match.
"""

import math

import numpy as np


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
