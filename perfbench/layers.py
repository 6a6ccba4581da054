"""U-Net layer table: each conv op of the net timed on its own one-op tape.

Every layer runs at the shape it has inside the workload's net (batch N,
padded grid, the level's resolution and widths). Forward is timed in the
mode the workload mostly uses: taped, as in a training step, or untaped,
as in inference. Backward replays the op's recorded closure on a one-op
tape. FLOPs and bytes are computed from the shapes, not measured: for
conv2d the bytes are its im2col matrix, for the transposed convolution
its input plus output activations.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from griduq import autodiff as ad
from griduq.model import ModelConfig, build


def layer_specs(d: int):
    """(name, level of the input) for every conv layer of a depth-d net, in forward order."""
    specs = [(f"enc{lvl}{ab}", lvl) for lvl in range(d) for ab in "ab"]
    specs += [("bota", d), ("botb", d)]
    for lvl in reversed(range(d)):
        specs += [(f"up{lvl}", lvl + 1), (f"dec{lvl}a", lvl), (f"dec{lvl}b", lvl)]
    return specs + [("head", 0)]


def _median_ms(fn, reps: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def layer_table(config: ModelConfig, h: int, w: int, n: int, taped: bool,
                reps: int = 7) -> list[dict]:
    mult = 2 ** config.depth
    hp, wp = -(-h // mult) * mult, -(-w // mult) * mult
    params = build(config, 0).tensors
    rng = np.random.default_rng(0)
    rows = []
    for name, lvl in layer_specs(config.depth):
        weight, bias = params[f"{name}_w"], params[f"{name}_b"]
        up = name.startswith("up")
        cin, cout = (weight.shape[0], weight.shape[1]) if up else (weight.shape[1], weight.shape[0])
        kh, kw = weight.shape[2:]
        x = ad.Tensor(rng.standard_normal((n, cin, hp >> lvl, wp >> lvl)),
                      requires_grad=name != "enc0a")
        if up:
            def op(x=x, weight=weight, bias=bias):
                return ad.conv_transpose2d(x, weight, bias, stride=2)
        else:
            def op(x=x, weight=weight, bias=bias, pad=kh // 2):
                return ad.conv2d(x, weight, bias, padding=pad)

        def forward(op=op):
            with ad.Tape() as tape:
                out = op()
            return tape, out

        for t in (weight, bias):
            t.requires_grad = taped
        fwd_ms = _median_ms(forward, reps)
        for t in (weight, bias):
            t.requires_grad = True
        tape, out = forward()
        # the op's own backward closure: the one record on its one-op tape
        (_, _, backward_fn), = tape._records
        gout = np.ones(out.shape, dtype=np.float32)
        bwd_ms = _median_ms(lambda: backward_fn(gout), reps)

        ho, wo = out.shape[2:]
        if up:
            flops = 2 * n * x.shape[2] * x.shape[3] * cin * cout * kh * kw
            nbytes = 4 * (x.data.size + out.data.size)
        else:
            flops = 2 * n * ho * wo * cout * cin * kh * kw
            nbytes = 4 * n * ho * wo * cin * kh * kw
        rows.append({"layer": name, "op": "conv_transpose2d" if up else "conv2d",
                     "shape": f"{n}x{cin}x{x.shape[2]}x{x.shape[3]}->{cout}x{ho}x{wo}",
                     "fwd_ms": fwd_ms, "bwd_ms": bwd_ms,
                     "gflop": flops / 1e9, "mb": nbytes / 1e6})
    return rows
