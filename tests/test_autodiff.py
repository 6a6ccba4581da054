import io
import math
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from griduq import autodiff as ad
from griduq import model
from griduq.errors import ContractError, DimensionError, FormatError

from _gradcheck import gradcheck, lattice_values, max_rel_error
from _oracles import (conv2d_grad_loops, conv2d_loops, conv_transpose2d_grad_loops,
                      conv_transpose2d_loops, maxpool2d_loops)


def run_backward(build, arrays):
    tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()}
    tape = ad.Tape()
    with tape:
        loss = build(tensors)
    ad.backward(tape, loss)
    return tensors, loss


# ---------------------------------------------------------------- tensors

class TestTensor:
    def test_float32_contiguous(self):
        t = ad.Tensor(np.arange(6, dtype=np.float64).reshape(2, 3)[:, ::-1])
        assert t.data.dtype == np.float32
        assert t.data.flags["C_CONTIGUOUS"]

    def test_item_requires_scalar(self):
        assert ad.Tensor(np.array([[2.5]])).item() == 2.5
        with pytest.raises(DimensionError):
            ad.Tensor(np.zeros((2,))).item()


# ---------------------------------------------------------------- forward values

class TestForward:
    def test_relu(self):
        out = ad.relu(ad.Tensor(np.array([-1.0, 0.0, 2.0])))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_softplus_at_zero(self):
        out = ad.softplus(ad.Tensor(np.array([0.0])))
        assert abs(out.data[0] - math.log(2.0)) < 1e-7

    def test_softplus_overflow_safe(self):
        big = ad.softplus(ad.Tensor(np.array([1e4, -1e4]))).data
        assert big[0] == np.float32(1e4)
        assert big[1] == 0.0
        assert np.all(np.isfinite(big))

    def test_elementwise_binary(self, rng):
        a = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=(3, 4)).astype(np.float32) + 3.0
        assert np.array_equal(ad.add(ad.Tensor(a), ad.Tensor(b)).data, a + b)
        assert np.array_equal(ad.sub(ad.Tensor(a), ad.Tensor(b)).data, a - b)
        assert np.array_equal(ad.mul(ad.Tensor(a), ad.Tensor(b)).data, a * b)
        assert np.array_equal(ad.div(ad.Tensor(a), ad.Tensor(b)).data, a / b)
        assert np.array_equal(ad.neg(ad.Tensor(a)).data, -a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ad.add(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 2))))

    def test_mean_masked_example(self):
        x = ad.Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
        mask = np.array([True, False, False, True])
        assert ad.mean_masked(x, mask).item() == 2.5

    def test_mean_masked_empty_mask(self):
        with pytest.raises(ContractError):
            ad.mean_masked(ad.Tensor(np.ones(3)), np.zeros(3, dtype=bool))

    def test_mean_masked_requires_bool(self):
        with pytest.raises(ContractError):
            ad.mean_masked(ad.Tensor(np.ones(3)), np.ones(3, dtype=np.float32))

    def test_concat_slice_roundtrip(self, rng):
        a = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        b = rng.normal(size=(2, 2, 4, 4)).astype(np.float32)
        cat = ad.concat_channels(ad.Tensor(a), ad.Tensor(b))
        assert cat.shape == (2, 5, 4, 4)
        assert np.array_equal(ad.slice_channels(cat, 0, 3).data, a)
        assert np.array_equal(ad.slice_channels(cat, 3, 5).data, b)

    def test_pad_crop(self, rng):
        x = rng.normal(size=(1, 2, 3, 5)).astype(np.float32)
        padded = ad.pad2d(ad.Tensor(x), 4, 8)
        assert padded.shape == (1, 2, 4, 8)
        assert np.array_equal(padded.data[:, :, :3, :5], x)
        assert np.all(padded.data[:, :, 3:, :] == 0)
        assert np.array_equal(ad.crop2d(padded, 3, 5).data, x)


# ---------------------------------------------------------------- conv kernels

# (op, forward loop oracle, gradient loop oracle, Cout axis of the weight)
CONV = (ad.conv2d, conv2d_loops, conv2d_grad_loops, 0)
CONV_T = (ad.conv_transpose2d, conv_transpose2d_loops, conv_transpose2d_grad_loops, 1)


class TestConv:
    def test_window_sums(self):
        x = ad.Tensor(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
        w = ad.Tensor(np.ones((1, 1, 2, 2)))
        b = ad.Tensor(np.zeros(1))
        out = ad.conv2d(x, w, b)
        assert np.array_equal(out.data[0, 0], [[12.0, 16.0], [24.0, 28.0]])

    def test_identity_kernel(self, rng):
        x = rng.normal(size=(2, 1, 5, 5)).astype(np.float32)
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(np.ones((1, 1, 1, 1))), ad.Tensor(np.zeros(1)))
        assert np.array_equal(out.data, x)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_loop_oracle(self, stride, padding, rng):
        x = rng.normal(size=(2, 3, 7, 7)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        got = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), stride=stride, padding=padding).data
        want = conv2d_loops(x, w, b, stride=stride, padding=padding)
        assert got.shape == want.shape
        assert max_rel_error(got.astype(np.float64), want) < 1e-5

    def test_transpose_matches_loop_oracle(self, rng):
        x = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        w = rng.normal(size=(3, 2, 2, 2)).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        got = ad.conv_transpose2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), stride=2).data
        want = conv_transpose2d_loops(x, w, b, stride=2)
        assert got.shape == (2, 2, 8, 10)
        assert max_rel_error(got.astype(np.float64), want) < 1e-5

    @pytest.mark.parametrize("seed", range(8))
    def test_adjoint_identity(self, seed):
        # <conv(x, w), y> == <x, conv_transpose(y, w)> for zero-bias kernels
        rng = np.random.default_rng(seed)
        stride = 2 if seed % 2 else 1
        x = rng.normal(size=(2, 3, 6, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3, 2, 2)).astype(np.float32)
        fwd = ad.conv2d(ad.Tensor(x), ad.Tensor(w), stride=stride).data
        y = rng.normal(size=fwd.shape).astype(np.float32)
        # conv_transpose reads the same array as (Cin=Cout_of_conv, Cout, kh, kw)
        wt = ad.conv_transpose2d(ad.Tensor(y), ad.Tensor(w), stride=stride)
        lhs = float(np.sum(fwd.astype(np.float64) * y.astype(np.float64)))
        rhs = float(np.sum(x.astype(np.float64) * wt.data.astype(np.float64)))
        assert abs(lhs - rhs) / (abs(lhs) + 1e-12) < 1e-5

    # N >= 2 and odd H, W: a tap row that wrapped across a row or image edge
    # of the flattened channels-last grid would show in the output or grads
    @pytest.mark.parametrize("oracle,x_shape,w_shape,kwargs", [
        (CONV, (2, 3, 7, 9), (4, 3, 3, 3), dict(padding=0)),
        (CONV, (2, 3, 7, 9), (4, 3, 3, 3), dict(padding=1)),
        (CONV, (2, 2, 7, 9), (3, 2, 3, 2), dict(padding=1)),
        (CONV, (2, 2, 5, 7), (3, 2, 2, 3), dict(padding=0)),
        (CONV, (3, 3, 5, 7), (2, 3, 1, 1), dict(padding=0)),
        (CONV, (2, 3, 9, 7), (4, 3, 3, 3), dict(stride=2, padding=1)),
        (CONV, (2, 2, 7, 5), (3, 2, 3, 1), dict(stride=2, padding=0)),
        (CONV, (2, 2, 7, 5), (3, 2, 1, 1), dict(stride=2, padding=0)),
        (CONV_T, (2, 3, 5, 7), (3, 2, 3, 3), dict(stride=1)),
        (CONV_T, (2, 3, 5, 7), (3, 2, 2, 2), dict(stride=2)),
        (CONV_T, (2, 2, 5, 7), (2, 3, 3, 2), dict(stride=2)),
    ], ids=["conv_p0", "conv_p1", "conv_rect_p1", "conv_rect_p0", "conv_1x1", "conv_s2_p1",
            "conv_rect_s2", "conv_1x1_s2", "convT_s1", "convT_s2", "convT_rect_s2"])
    def test_shift_kernel_matches_loop_oracles(self, oracle, x_shape, w_shape, kwargs, rng):
        op, loops, grad_loops, cout_axis = oracle
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=w_shape).astype(np.float32)
        b = rng.normal(size=w_shape[cout_axis]).astype(np.float32)
        with ad.Tape() as tape:
            out = op(*(ad.Tensor(a, requires_grad=True) for a in (x, w, b)), **kwargs)
        want = loops(x, w, b, **kwargs)
        assert out.shape == want.shape
        assert max_rel_error(out.data.astype(np.float64), want) < 1e-5
        g = rng.normal(size=out.shape).astype(np.float32)
        (_, _, backward_fn), = tape._records
        for got, exp in zip(backward_fn(g), grad_loops(x, w, g, **kwargs)):
            assert got.shape == exp.shape
            assert max_rel_error(got.astype(np.float64), exp) < 1e-5

    @pytest.mark.parametrize("op,w_shape", [
        (lambda x, w, b: ad.conv2d(x, w, b, padding=1), (4, 3, 3, 3)),
        (lambda x, w, b: ad.conv_transpose2d(x, w, b, stride=2), (3, 4, 2, 2)),
    ], ids=["conv2d", "conv_transpose2d"])
    def test_no_input_grad_unless_required(self, op, w_shape, rng):
        x = rng.normal(size=(2, 3, 5, 7)).astype(np.float32)
        w = rng.normal(size=w_shape).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        grads = {}
        for needs_grad in (True, False):
            with ad.Tape() as tape:
                out = op(ad.Tensor(x, requires_grad=needs_grad),
                         ad.Tensor(w, requires_grad=True), ad.Tensor(b, requires_grad=True))
            (_, _, backward_fn), = tape._records
            grads[needs_grad] = backward_fn(np.ones(out.shape, dtype=np.float32))
        assert grads[False][0] is None
        assert grads[True][0].shape == x.shape
        assert np.array_equal(grads[False][1], grads[True][1])
        assert np.array_equal(grads[False][2], grads[True][2])

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ad.conv2d(ad.Tensor(np.zeros((1, 3, 4, 4))), ad.Tensor(np.zeros((2, 4, 3, 3))))

    def test_bad_stride(self):
        x, w = ad.Tensor(np.zeros((1, 1, 4, 4))), ad.Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ContractError):
            ad.conv2d(x, w, stride=0)

    def test_nonintegral_output(self):
        x, w = ad.Tensor(np.zeros((1, 1, 5, 5))), ad.Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(DimensionError):
            ad.conv2d(x, w, stride=2)


# ---------------------------------------------------------------- maxpool

def maxpool_routed(x):
    """(2x2 max pooling of x, window-local index each output's gradient is routed to)."""
    t = ad.Tensor(x, requires_grad=True)
    with ad.Tape() as tape:
        out = ad.maxpool2d(t)
    (_, _, backward_fn), = tape._records
    (gx,) = backward_fn(np.ones(out.shape, dtype=np.float32))
    n, c, ho, wo = out.shape
    windows = gx.reshape(n, c, ho, 2, wo, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, 4)
    assert ((windows == 0) | (windows == 1)).all() and (windows.sum(axis=-1) == 1).all()
    return out, windows.argmax(axis=-1)


class TestMaxPool:
    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(2, 3, 6, 8)).astype(np.float32)
        out, idx = maxpool_routed(x)
        want, want_idx = maxpool2d_loops(x)
        assert np.array_equal(out.data.astype(np.float64), want)
        assert np.array_equal(idx, want_idx)

    def test_tie_breaks_to_first_row_major(self):
        x = np.full((1, 1, 2, 2), 7.0, dtype=np.float32)
        out, idx = maxpool_routed(x)
        assert out.data[0, 0, 0, 0] == 7.0
        assert idx[0, 0, 0, 0] == 0

    def test_signed_zero_and_nan_windows_take_the_first_hit(self):
        x = np.array([[[[-0.0, 0.0, 0.0, -0.0, 1.0, np.nan],
                        [0.0, -0.0, -0.0, 0.0, np.nan, 5.0]]]], dtype=np.float32)
        out, idx = maxpool_routed(x)
        assert idx.tolist() == [[[[0, 0, 1]]]]
        assert np.signbit(out.data[0, 0, 0, :2]).tolist() == [True, False]
        assert np.isnan(out.data[0, 0, 0, 2])

    def test_tie_gradient_goes_to_first(self):
        x = np.full((1, 1, 2, 2), 3.0, dtype=np.float32)

        def build(t):
            out = ad.maxpool2d(t["x"])
            return ad.scale(ad.mean_masked(out, np.ones(out.shape, dtype=bool)), 1.0)

        tensors, _ = run_backward(build, {"x": x})
        assert np.array_equal(tensors["x"].grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_odd_size_rejected(self):
        with pytest.raises(DimensionError):
            ad.maxpool2d(ad.Tensor(np.zeros((1, 1, 5, 4))))


# ---------------------------------------------------------------- dropout

def keep_mask(p, rng, shape):
    """One pass's keep mask for a site of this shape."""
    return ad.dropout_masks(p, rng, [shape])[0]


class TestDropout:
    def test_inactive_is_identity(self, rng, monkeypatch):
        # dropout is applied only when sampling: a forward with it off never calls it
        params = model.build(model.ModelConfig(in_channels=2, base_width=2, depth=1,
                                               dropout_rate=0.5, uq_method=model.UQ_MCD), 0)
        monkeypatch.setattr(ad, "dropout", None)
        model.forward(params, ad.Tensor(rng.normal(size=(1, 2, 4, 4))))

    def test_p_zero_is_identity(self, rng):
        x = ad.Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        assert ad.dropout(x, keep_mask(0.0, rng, x.shape)).data.tobytes() == x.data.tobytes()

    def test_inverted_scaling_unbiased(self):
        x = ad.Tensor(np.ones(1_000_000, dtype=np.float32))
        out = ad.dropout(x, keep_mask(0.5, np.random.default_rng(3), x.shape))
        kept = out.data[out.data != 0]
        assert np.allclose(kept, 2.0)
        mean = float(out.data.mean(dtype=np.float64))
        assert 0.99 <= mean <= 1.01

    def test_invalid_rate(self):
        with pytest.raises(ContractError):
            keep_mask(1.0, np.random.default_rng(0), (3,))

    def test_masks_draw_pass_major(self):
        # pass t draws every site before pass t + 1, each as one stand-alone draw
        shapes = [(2, 3, 4, 4), (2, 6, 2, 2)]
        masks = ad.dropout_masks(0.25, np.random.default_rng(1), shapes, passes=3)
        ref = np.random.default_rng(1)
        for t in range(3):
            for shape, mask in zip(shapes, masks):
                want = (ref.random(shape) >= 0.25).astype(np.float32) * np.float32(1.0 / 0.75)
                assert mask[2 * t:2 * t + 2].tobytes() == want.tobytes()

    def test_tiled_keep_runs_passes_and_sums_their_gradients(self, rng):
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        keep = ad.dropout_masks(0.5, np.random.default_rng(2), [x.shape], passes=3)[0]
        tiled = keep.reshape(3, *x.shape)

        def build(t):
            out = ad.dropout(t["x"], keep)
            assert np.array_equal(out.data, (tiled * x).reshape(keep.shape))
            return ad.mean_masked(out, np.ones(out.shape, dtype=bool))

        tensors, _ = run_backward(build, {"x": x})
        assert np.allclose(tensors["x"].grad, tiled.sum(axis=0) / keep.size, rtol=1e-6)

    def test_keep_must_tile_input(self):
        keep = np.ones((3, 2, 4), dtype=np.float32)
        with pytest.raises(DimensionError):
            ad.dropout(ad.Tensor(np.ones((2, 2, 4))), keep)


# ---------------------------------------------------------------- backward

class TestBackward:
    def test_fanout_accumulates(self):
        # f(x) = x*x + x  =>  df/dx = 2x + 1
        x = np.array([1.5, -2.0], dtype=np.float32)

        def build(t):
            y = ad.add(ad.mul(t["x"], t["x"]), t["x"])
            return ad.mean_masked(y, np.ones(2, dtype=bool))

        tensors, _ = run_backward(build, {"x": x})
        assert np.allclose(tensors["x"].grad, (2 * x + 1) / 2.0, atol=1e-6)

    def test_disconnected_leaf_stays_zero(self):
        used = ad.Tensor(np.ones(3), requires_grad=True)
        unused = ad.Tensor(np.ones(3), requires_grad=True)
        tape = ad.Tape()
        with tape:
            loss = ad.mean_masked(used, np.ones(3, dtype=bool))
        ad.zero_grads([used, unused])
        ad.backward(tape, loss)
        assert np.array_equal(unused.grad, np.zeros(3, dtype=np.float32))
        assert np.allclose(used.grad, np.full(3, 1 / 3, dtype=np.float32))

    def test_backward_requires_scalar(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        tape = ad.Tape()
        with tape:
            out = ad.relu(x)
        with pytest.raises(ContractError):
            ad.backward(tape, out)

    def test_mean_masked_zero_grad_off_mask(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        mask = np.array([[True, False], [False, True]])

        def build(t):
            return ad.mean_masked(t["x"], mask)

        tensors, _ = run_backward(build, {"x": x})
        assert np.array_equal(tensors["x"].grad, [[0.5, 0.0], [0.0, 0.5]])

    def test_two_tapes_are_isolated(self):
        x = ad.Tensor(np.array([2.0]), requires_grad=True)
        t1, t2 = ad.Tape(), ad.Tape()
        with t1:
            l1 = ad.mean_masked(ad.mul(x, x), np.ones(1, dtype=bool))
        with t2:
            l2 = ad.mean_masked(ad.scale(x, 3.0), np.ones(1, dtype=bool))
        ad.zero_grads([x])
        ad.backward(t2, l2)
        assert np.allclose(x.grad, [3.0])
        ad.zero_grads([x])
        ad.backward(t1, l1)
        assert np.allclose(x.grad, [4.0])

    def test_parallel_tapes_match_serial(self):
        def job(seed):
            rng = np.random.default_rng(seed)
            x = ad.Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32), requires_grad=True)
            w = ad.Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32), requires_grad=True)
            tape = ad.Tape()
            with tape:
                out = ad.relu(ad.conv2d(x, w, padding=1))
                loss = ad.mean_masked(out, np.ones(out.shape, dtype=bool))
            ad.backward(tape, loss)
            return loss.item(), x.grad.copy(), w.grad.copy()

        serial = [job(s) for s in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(job, range(4)))
        for (ls, xs, ws), (lt, xt, wt) in zip(serial, threaded):
            assert ls == lt
            assert np.array_equal(xs, xt)
            assert np.array_equal(ws, wt)

    def test_repeat_run_bitwise_deterministic(self):
        def once():
            rng = np.random.default_rng(11)
            x = ad.Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32), requires_grad=True)
            w = ad.Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
            tape = ad.Tape()
            with tape:
                h = ad.relu(ad.conv2d(x, w, padding=1))
                p = ad.maxpool2d(h)
                d = ad.dropout(p, keep_mask(0.3, np.random.default_rng(7), p.shape))
                loss = ad.mean_masked(d, np.ones(d.shape, dtype=bool))
            ad.backward(tape, loss)
            return loss.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

        assert once() == once()


# ---------------------------------------------------------------- gradcheck

SMOOTH_CASES = [
    ("add", lambda t: ad.add(t["a"], t["b"]), {"a": (3, 4), "b": (3, 4)}, "normal"),
    ("sub", lambda t: ad.sub(t["a"], t["b"]), {"a": (2, 5), "b": (2, 5)}, "normal"),
    ("mul", lambda t: ad.mul(t["a"], t["b"]), {"a": (3, 3), "b": (3, 3)}, "normal"),
    ("div", lambda t: ad.div(t["a"], t["b"]), {"a": (3, 3), "b": (3, 3)}, "offset"),
    ("neg", lambda t: ad.neg(t["a"]), {"a": (4, 2)}, "normal"),
    ("log", lambda t: ad.log(t["a"]), {"a": (3, 3)}, "offset"),
    ("softplus", lambda t: ad.softplus(t["a"]), {"a": (4, 4)}, "normal"),
    ("scale", lambda t: ad.scale(t["a"], -2.5), {"a": (3, 4)}, "normal"),
    ("add_scalar", lambda t: ad.add_scalar(t["a"], 1.25), {"a": (3, 4)}, "normal"),
    ("relu", lambda t: ad.relu(t["a"]), {"a": (4, 5)}, "lattice"),
    ("maxpool", lambda t: ad.maxpool2d(t["a"]), {"a": (1, 2, 4, 4)}, "lattice"),
    ("concat", lambda t: ad.concat_channels(t["a"], t["b"]),
     {"a": (1, 2, 3, 3), "b": (1, 1, 3, 3)}, "normal"),
    ("slice", lambda t: ad.slice_channels(t["a"], 1, 3), {"a": (1, 4, 3, 3)}, "normal"),
    ("pad", lambda t: ad.pad2d(t["a"], 5, 6), {"a": (1, 2, 3, 4)}, "normal"),
    ("crop", lambda t: ad.crop2d(t["a"], 2, 3), {"a": (1, 2, 4, 5)}, "normal"),
    ("mean_masked", lambda t: ad.mean_masked(
        t["a"], np.arange(12).reshape(3, 4) % 3 == 0), {"a": (3, 4)}, "normal"),
    ("conv", lambda t: ad.conv2d(t["x"], t["w"], t["b"], padding=1),
     {"x": (2, 2, 5, 4), "w": (3, 2, 3, 3), "b": (3,)}, "normal"),
    ("conv_p0", lambda t: ad.conv2d(t["x"], t["w"], t["b"]),
     {"x": (2, 2, 5, 7), "w": (3, 2, 3, 2), "b": (3,)}, "normal"),
    ("conv_s2", lambda t: ad.conv2d(t["x"], t["w"], t["b"], stride=2),
     {"x": (1, 2, 6, 6), "w": (2, 2, 2, 2), "b": (2,)}, "normal"),
    ("convT", lambda t: ad.conv_transpose2d(t["x"], t["w"], t["b"], stride=2),
     {"x": (1, 2, 3, 4), "w": (2, 3, 2, 2), "b": (3,)}, "normal"),
    ("dropout", lambda t: ad.dropout(t["a"], keep_mask(0.4, np.random.default_rng(123),
                                                       t["a"].shape)), {"a": (2, 3, 4, 4)}, "normal"),
    ("softplus_wide", lambda t: ad.softplus(t["a"]), {"a": (30,)}, "wide"),
]


def draw(kind: str, rng, shape):
    if kind == "lattice":
        return lattice_values(rng, shape)
    if kind == "offset":
        return (rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)).astype(np.float32)
    if kind == "wide":
        return rng.uniform(-6, 6, shape).astype(np.float32)
    return rng.normal(size=shape).astype(np.float32)


@pytest.mark.parametrize("name,build,shapes,kind", SMOOTH_CASES, ids=[c[0] for c in SMOOTH_CASES])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradcheck(name, build, shapes, kind, seed):
    rng = np.random.default_rng(1000 + seed)
    if kind == "offset" and name == "log":
        arrays = {k: rng.uniform(0.5, 3.0, s).astype(np.float32) for k, s in shapes.items()}
    else:
        arrays = {k: draw(kind, rng, s) for k, s in shapes.items()}
    err = gradcheck(build, arrays, seed=seed)
    assert err < 1e-3, f"{name}: max rel grad error {err}"


def composite_arrays(seed):
    rng = np.random.default_rng(seed)
    return {
        "x": lattice_values(rng, (1, 2, 8, 8), -1.0, 1.0),
        "w1": rng.normal(0, 0.5, (3, 2, 3, 3)).astype(np.float32),
        "b1": rng.normal(0, 0.1, (3,)).astype(np.float32),
        "w2": rng.normal(0, 0.5, (2, 3, 1, 1)).astype(np.float32),
        "b2": rng.normal(0, 0.1, (2,)).astype(np.float32),
    }


def test_gradcheck_composite_smooth():
    # conv -> softplus -> conv chain: fully smooth, tight tolerance
    def build(t):
        h = ad.softplus(ad.conv2d(t["x"], t["w1"], t["b1"], padding=1))
        return ad.conv2d(h, t["w2"], t["b2"])

    err = gradcheck(build, composite_arrays(42), seed=0)
    assert err < 1e-3


def test_gradcheck_composite_network():
    # conv -> relu -> pool -> conv grad routing; interior pre-activations can
    # sit near relu kinks, so the finite-difference tolerance is looser here
    def build(t):
        h = ad.relu(ad.conv2d(t["x"], t["w1"], t["b1"], padding=1))
        p = ad.maxpool2d(h)
        return ad.conv2d(p, t["w2"], t["b2"])

    err = gradcheck(build, composite_arrays(42), seed=0)
    assert err < 5e-3


# ---------------------------------------------------------------- adam

class TestAdam:
    def test_single_step_closed_form(self):
        p = ad.Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.ones(4, dtype=np.float32)
        state = ad.AdamState({"p": p})
        ad.adam_step({"p": p}, state, lr=1e-3)
        # bias-corrected first step: delta = lr * g / (|g| + eps)
        assert np.allclose(p.data, -1e-3 / (1.0 + 1e-8), rtol=1e-6)
        assert state.step == 1

    def test_two_steps_closed_form(self):
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        p = ad.Tensor(np.array([0.0]), requires_grad=True)
        state = ad.AdamState({"p": p})
        m = v = 0.0
        x = 0.0
        for step in (1, 2):
            g = 2.0 if step == 1 else -1.0
            p.grad = np.array([g], dtype=np.float32)
            ad.adam_step({"p": p}, state, lr=lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1 ** step)) / (math.sqrt(v / (1 - b2 ** step)) + eps)
        assert np.allclose(p.data, [x], atol=1e-7)

    def test_zero_grad_keeps_params(self):
        p = ad.Tensor(np.full(3, 1.5), requires_grad=True)
        p.grad = np.zeros(3, dtype=np.float32)
        state = ad.AdamState({"p": p})
        ad.adam_step({"p": p}, state, lr=1e-3)
        assert np.array_equal(p.data, np.full(3, 1.5, dtype=np.float32))

    def test_none_grad_decays_moments(self):
        p = ad.Tensor(np.array([0.0]), requires_grad=True)
        state = ad.AdamState({"p": p})
        p.grad = np.array([4.0], dtype=np.float32)
        ad.adam_step({"p": p}, state, lr=1e-3)
        m_after_first = state.m["p"].copy()
        p.grad = None
        before = p.data.copy()
        ad.adam_step({"p": p}, state, lr=1e-3)
        assert np.allclose(state.m["p"], 0.9 * m_after_first)
        assert not np.array_equal(p.data, before)  # nonzero moments keep moving the param

    def test_quadratic_bowl_convergence(self):
        p = ad.Tensor(np.array([3.0, -2.0, 0.5]), requires_grad=True)
        state = ad.AdamState({"p": p})
        for _ in range(10_000):
            p.grad = (2.0 * p.data).astype(np.float32)
            ad.adam_step({"p": p}, state, lr=1e-2)
        assert np.max(np.abs(p.data)) < 1e-4

    def test_state_tracks_unknown_param(self):
        p = ad.Tensor(np.zeros(2), requires_grad=True)
        state = ad.AdamState({"p": p})
        q = ad.Tensor(np.zeros(2), requires_grad=True)
        q.grad = np.ones(2, dtype=np.float32)
        with pytest.raises(ContractError):
            ad.adam_step({"q": q}, state, lr=1e-3)


# ---------------------------------------------------------------- checkpoints

class TestCheckpoint:
    def make_params(self, rng):
        return {
            "enc.w": ad.Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32)),
            "enc.b": ad.Tensor(rng.normal(size=4).astype(np.float32)),
            "head": ad.Tensor(rng.normal(size=(1, 4, 1, 1)).astype(np.float32)),
        }

    def test_roundtrip_exact(self, tmp_path, rng):
        params = self.make_params(rng)
        path = tmp_path / "model.guqw"
        ad.save_checkpoint(path, params)
        loaded = ad.load_checkpoint(path)
        assert list(loaded) == list(params)
        for k in params:
            assert np.array_equal(loaded[k].data, params[k].data)

    def test_failed_save_keeps_old_file_and_leaves_no_temp(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "model.guqw"
        ad.save_checkpoint(path, self.make_params(rng))
        old = path.read_bytes()

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(ad.os, "replace", crash)
        with pytest.raises(OSError, match="disk full"):
            ad.save_checkpoint(path, self.make_params(rng))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.guqw"]

    def test_rewrite_is_byte_identical(self, tmp_path, rng):
        params = self.make_params(rng)
        p1, p2 = tmp_path / "a.guqw", tmp_path / "b.guqw"
        ad.save_checkpoint(p1, params)
        ad.save_checkpoint(p2, ad.load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "one.guqw"
        ad.save_checkpoint(path, {"w": ad.Tensor(np.array([1.0, 2.0], dtype=np.float32))})
        raw = path.read_bytes()
        assert raw[:4] == b"GUQW"
        version, count = struct.unpack("<HI", raw[4:10])
        assert (version, count) == (1, 1)
        name_len = struct.unpack("<H", raw[10:12])[0]
        assert raw[12:12 + name_len] == b"w"

    def test_missing_file_names_it(self, tmp_path):
        with pytest.raises(FormatError, match="gone.guqw: cannot read"):
            ad.load_checkpoint(tmp_path / "gone.guqw")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.guqw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            ad.load_checkpoint(path)

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "t.guqw"
        ad.save_checkpoint(path, self.make_params(rng))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            ad.load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path, rng):
        path = tmp_path / "g.guqw"
        ad.save_checkpoint(path, self.make_params(rng))
        path.write_bytes(path.read_bytes() + b"\x01")
        with pytest.raises(FormatError):
            ad.load_checkpoint(path)

    def test_name_not_utf8(self, tmp_path):
        path = tmp_path / "n.guqw"
        ad.save_checkpoint(path, {"key": ad.Tensor(np.zeros(2, dtype=np.float32))})
        raw = bytearray(path.read_bytes())
        raw[12] = 0xFF  # first byte of the name
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="not UTF-8"):
            ad.load_checkpoint(path)

    def test_huge_shape_is_truncation_not_wraparound(self, tmp_path):
        # 2**31 * 2**31 * 4 elements is 0 in int64; the payload must still be found missing
        path = tmp_path / "h.guqw"
        path.write_bytes(b"GUQW" + struct.pack("<HIH", 1, 1, 1) + b"w"
                         + struct.pack("<B3I", 3, 2**31, 2**31, 4))
        with pytest.raises(FormatError, match="truncated"):
            ad.load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.guqw"
        buf = io.BytesIO()
        buf.write(b"GUQW")
        buf.write(struct.pack("<HI", 9, 0))
        path.write_bytes(buf.getvalue())
        with pytest.raises(FormatError):
            ad.load_checkpoint(path)
