import importlib.util
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from griduq import autodiff as ad
from griduq.autodiff import Tensor
from griduq.errors import ContractError, DimensionError
from griduq.losses import gaussian_nll, quantile_loss
from griduq.model import (SIGMA2_FLOOR, TAUS, UQ_CQR, UQ_MCD,
                          ModelConfig, UNetParams, _convs, build, forward, gaussian_moments)
from griduq.uq import cqr_predict

from _gradcheck import gradcheck, lattice_values, max_rel_error
from _oracles import conv2d_loops, conv_transpose2d_loops, maxpool2d_loops, predict_gaussian


def small_config(**kw):
    base = dict(in_channels=5, base_width=4, depth=2, dropout_rate=0.1, uq_method=UQ_MCD)
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_out_channels(self):
        assert small_config(uq_method=UQ_MCD).out_channels == 2
        assert small_config(uq_method=UQ_CQR).out_channels == len(TAUS) == 3

    @pytest.mark.parametrize("kw", [
        dict(in_channels=0),
        dict(base_width=0),
        dict(depth=0),
        dict(dropout_rate=1.0),
        dict(dropout_rate=-0.1),
        dict(uq_method="softmax"),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ContractError):
            small_config(**kw)


class TestBuild:
    def test_parameter_names_order(self):
        names = list(build(small_config(depth=2), seed=0).tensors)
        assert names[:4] == ["enc0a_w", "enc0a_b", "enc0b_w", "enc0b_b"]
        assert "bota_w" in names and "botb_b" in names
        assert names.index("up1_w") < names.index("up0_w")  # decoder deep to shallow
        assert names[-2:] == ["head_w", "head_b"]

    def test_same_seed_same_weights(self):
        a = build(small_config(), seed=3)
        b = build(small_config(), seed=3)
        for k in a.tensors:
            assert np.array_equal(a.tensors[k].data, b.tensors[k].data)

    def test_different_seed_differs(self):
        a = build(small_config(), seed=3)
        b = build(small_config(), seed=4)
        assert any(not np.array_equal(a.tensors[k].data, b.tensors[k].data)
                   for k in a.tensors if k.endswith("_w"))

    def test_zero_biases_and_he_bound(self):
        params = build(small_config(), seed=0)
        for name, t in params.tensors.items():
            if name.endswith("_b"):
                assert np.all(t.data == 0.0)
        w = params.tensors["enc0a_w"]
        fan_in = w.shape[1] * w.shape[2] * w.shape[3]
        assert np.abs(w.data).max() <= math.sqrt(6.0 / fan_in)

    def test_weight_shapes(self):
        params = build(small_config(base_width=4, depth=2), seed=0)
        t = params.tensors
        assert t["enc0a_w"].shape == (4, 5, 3, 3)
        assert t["enc1a_w"].shape == (8, 4, 3, 3)
        assert t["bota_w"].shape == (16, 8, 3, 3)
        # upconv layout is (Cin, Cout, 2, 2); decode concat doubles channels
        assert t["up1_w"].shape == (16, 8, 2, 2)
        assert t["dec1a_w"].shape == (8, 16, 3, 3)
        assert t["head_w"].shape == (2, 4, 1, 1)

    def test_params_reject_name_mismatch(self):
        params = build(small_config(), seed=0)
        broken = dict(params.tensors)
        broken["rogue"] = broken.pop("head_b")
        with pytest.raises(ContractError):
            UNetParams(small_config(), broken)

    def test_params_reject_shape_mismatch(self):
        params = build(small_config(), seed=0)
        broken = dict(params.tensors)
        broken["head_b"] = Tensor(np.zeros(3, dtype=np.float32))  # the Gaussian head has 2
        with pytest.raises(ContractError, match=r"head_b \(3,\) \(config: \(2,\)\)"):
            UNetParams(small_config(), broken)


class TestForward:
    def test_output_shape_odd_grid(self):
        params = build(small_config(in_channels=5, depth=2), seed=1)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 31, 49)).astype(np.float32))
        out = forward(params, x)
        assert out.shape == (2, 2, 31, 49)

    def test_output_shape_quantile(self):
        params = build(small_config(uq_method=UQ_CQR, depth=2), seed=1)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 5, 16, 16)).astype(np.float32))
        assert forward(params, x).shape == (1, 3, 16, 16)

    def test_zero_input_passes_head_bias(self):
        params = build(small_config(), seed=2)
        params.tensors["head_b"] = Tensor(np.array([0.7, -0.3], dtype=np.float32),
                                          requires_grad=True)
        x = Tensor(np.zeros((1, 5, 12, 12), dtype=np.float32))
        out = forward(params, x).data
        assert np.all(out[0, 0] == np.float32(0.7))
        assert np.all(out[0, 1] == np.float32(-0.3))

    def test_rank_and_channel_checks(self):
        params = build(small_config(), seed=0)
        with pytest.raises(DimensionError):
            forward(params, Tensor(np.zeros((5, 8, 8))))
        with pytest.raises(DimensionError):
            forward(params, Tensor(np.zeros((1, 4, 8, 8))))

    def test_dropout_stochastic_but_seeded(self, rng):
        params = build(small_config(dropout_rate=0.5), seed=0)
        x = Tensor(rng.normal(size=(1, 5, 8, 8)).astype(np.float32))
        a = forward(params, x, np.random.default_rng(1)).data
        b = forward(params, x, np.random.default_rng(1)).data
        c = forward(params, x, np.random.default_rng(2)).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_passes_are_repeated_forwards(self, rng):
        # pass-major rows: row t*N + n is pass t of input n, on the same stream
        params = build(small_config(dropout_rate=0.4), seed=3)
        x = Tensor(rng.normal(size=(2, 5, 11, 13)).astype(np.float32))
        batch_rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)
        out = forward(params, x, batch_rng, passes=3).data
        want = np.concatenate([forward(params, x, loop_rng).data
                               for _ in range(3)])
        assert out.tobytes() == want.tobytes()
        assert batch_rng.random() == loop_rng.random()

    def test_passes_need_dropout_sampling(self):
        x = Tensor(np.zeros((1, 5, 8, 8), dtype=np.float32))
        with pytest.raises(ContractError):
            forward(build(small_config(), seed=0), x, passes=2)
        with pytest.raises(ContractError):
            forward(build(small_config(dropout_rate=0.0), seed=0), x,
                    np.random.default_rng(0), passes=2)
        with pytest.raises(ContractError):
            forward(build(small_config(), seed=0), x, np.random.default_rng(0), passes=0)

    def test_deterministic_without_dropout(self, rng):
        params = build(small_config(), seed=0)
        x = Tensor(rng.normal(size=(1, 5, 11, 13)).astype(np.float32))
        assert np.array_equal(forward(params, x).data, forward(params, x).data)


class TestHeads:
    def test_gaussian_moments_closed_form(self, rng):
        head = rng.normal(size=(1, 2, 3, 3)).astype(np.float32)
        mu, sigma2 = gaussian_moments(Tensor(head))
        assert np.array_equal(mu.data[0, 0], head[0, 0])
        want = np.log1p(np.exp(-np.abs(head[0, 1]))) + np.maximum(head[0, 1], 0) + SIGMA2_FLOOR
        assert np.allclose(sigma2.data[0, 0], want, rtol=1e-6)
        assert np.all(sigma2.data >= SIGMA2_FLOOR)

    def test_gaussian_moments_needs_two_channels(self):
        with pytest.raises(DimensionError):
            gaussian_moments(Tensor(np.zeros((1, 3, 2, 2))))

    def test_predict_gaussian_grids(self, rng):
        params = build(small_config(), seed=0)
        mu, s2 = predict_gaussian(params, rng.normal(size=(5, 9, 9)).astype(np.float32))
        assert mu.shape == (9, 9) and s2.shape == (9, 9)
        assert np.all(s2 > 0)

    def test_predict_quantiles_raw_head_values(self, rng):
        params = build(small_config(uq_method=UQ_CQR), seed=0)
        x = rng.normal(size=(5, 9, 9)).astype(np.float32)
        band = cqr_predict(params, x)
        raw = forward(params, Tensor(x[None])).data
        for i, level in enumerate((band.lo, band.mid, band.hi)):
            assert np.array_equal(level, raw[0, i])

    def test_head_type_guards(self, rng):
        g = build(small_config(), seed=0)
        x = rng.normal(size=(5, 8, 8)).astype(np.float32)
        with pytest.raises(ContractError):
            cqr_predict(g, x)

    def test_predict_rejects_batched_input(self):
        params = build(small_config(uq_method=UQ_CQR), seed=0)
        with pytest.raises(DimensionError):
            cqr_predict(params, np.zeros((1, 5, 8, 8), dtype=np.float32))


class TestGradientFlow:
    @pytest.mark.parametrize("uq_method", [UQ_MCD, UQ_CQR], ids=["gaussian", "quantile"])
    def test_every_parameter_gets_gradient(self, uq_method, rng):
        params = build(small_config(uq_method=uq_method, dropout_rate=0.0), seed=0).require_grad()
        x = Tensor(rng.normal(size=(2, 5, 8, 8)).astype(np.float32))
        y = rng.normal(size=(2, 1, 8, 8)).astype(np.float32)
        mask = rng.uniform(size=y.shape) < 0.5
        mask[0, 0, 0, 0] = True
        tape = ad.Tape()
        with tape:
            out = forward(params, x)
            if uq_method == UQ_MCD:
                mu, s2 = gaussian_moments(out)
                loss = gaussian_nll(mu, s2, y, mask)
            else:
                loss = quantile_loss(out, y, mask)
        ad.zero_grads(params.tensors)
        ad.backward(tape, loss)
        for name, t in params.tensors.items():
            assert t.grad is not None and np.any(t.grad != 0), f"no gradient reached {name}"

    def test_tiny_overfit_drops_loss(self, rng):
        params = build(ModelConfig(in_channels=3, base_width=4, depth=1,
                                   dropout_rate=0.0, uq_method=UQ_MCD), seed=0).require_grad()
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        y = rng.normal(size=(2, 1, 8, 8)).astype(np.float32)
        mask = np.ones_like(y, dtype=bool)
        state = ad.AdamState(params.tensors)

        def step():
            tape = ad.Tape()
            with tape:
                mu, s2 = gaussian_moments(forward(params, x))
                loss = gaussian_nll(mu, s2, y, mask)
            ad.zero_grads(params.tensors)
            ad.backward(tape, loss)
            ad.adam_step(params.tensors, state, lr=1e-2)
            return loss.item()

        first = step()
        for _ in range(60):
            last = step()
        assert first > 0  # fresh net starts well above a fitted NLL on this data
        assert last < 0.7 * first


def forward_loops(params, x, rng):
    """model.forward rebuilt from the float64 loop kernels, one layer after another, with
    the dropout sites' keep masks drawn from rng in forward order."""
    cfg, t = params.config, {k: v.data for k, v in params.tensors.items()}
    h, w = x.shape[2:]
    mult = 2 ** cfg.depth
    out = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (0, -h % mult), (0, -w % mult)))

    def double_conv(a, name):
        for ab in "ab":
            a = np.maximum(conv2d_loops(a, t[f"{name}{ab}_w"], t[f"{name}{ab}_b"], padding=1), 0)
        keep = rng.random(a.shape) >= cfg.dropout_rate
        return a * keep / (1.0 - cfg.dropout_rate)

    skips = []
    for lvl in range(cfg.depth):
        out = double_conv(out, f"enc{lvl}")
        skips.append(out)
        out = maxpool2d_loops(out)[0]
    out = double_conv(out, "bot")
    for lvl in reversed(range(cfg.depth)):
        up = conv_transpose2d_loops(out, t[f"up{lvl}_w"], t[f"up{lvl}_b"], stride=2)
        out = double_conv(np.concatenate([skips[lvl], up], axis=1), f"dec{lvl}")
    return conv2d_loops(out, t["head_w"], t["head_b"])[:, :, :h, :w]


class TestWholeNetwork:
    """Every layer of a depth-2 net on an odd grid, which the per-op oracles do not chain:
    zero borders, wrap rows and the pad and crop meet across layers."""

    def test_forward_matches_loop_kernels(self, rng):
        params = build(small_config(in_channels=3, base_width=3, uq_method=UQ_CQR), seed=1)
        x = rng.normal(size=(3, 3, 7, 9)).astype(np.float32)  # padded to 8x12 inside
        got = forward(params, Tensor(x), np.random.default_rng(4)).data
        want = forward_loops(params, x, np.random.default_rng(4))
        assert got.shape == want.shape == (3, 3, 7, 9)
        assert max_rel_error(got.astype(np.float64), want) < 1e-5

    def test_parameter_gradients_match_finite_differences(self, rng):
        # positive inputs, weights and biases keep every relu input >= 0.1, off its kink, so
        # the output is linear in each parameter and eps can be large against float32 noise
        config = small_config(in_channels=2, base_width=1, uq_method=UQ_CQR)
        x = Tensor(lattice_values(rng, (3, 2, 7, 9), 0.5, 1.5))
        arrays = {k: np.abs(v.data) / 2 if k.endswith("_w") else np.full(v.shape, 0.1, np.float32)
                  for k, v in build(config, seed=2).tensors.items()}
        # a fresh generator per evaluation: the same keep masks every time
        worst = gradcheck(lambda t: forward(UNetParams(config, t), x, np.random.default_rng(5)),
                          arrays, eps=1e-2)
        assert worst < 1e-2

    def test_threads_match_one_after_another(self):
        # no buffer may be shared between concurrent forward and backward passes: three
        # threads on two cores, switching often, give each run the bits it gets alone
        def job(seed):
            rng = np.random.default_rng(seed)
            params = build(small_config(base_width=4), seed=seed).require_grad()
            x = Tensor(rng.normal(size=(2, 5, 14, 22)).astype(np.float32))
            barrier.wait(timeout=60)  # the threads start their forward and backward together
            tape = ad.Tape()
            with tape:
                out = forward(params, x, rng)
                loss = ad.mean_masked(out, np.ones(out.shape, dtype=bool))
            ad.zero_grads(params.tensors)
            ad.backward(tape, loss)
            return [out.data.tobytes()] + [t.grad.tobytes() for t in params.tensors.values()]

        seeds = (0, 1, 2)
        barrier = threading.Barrier(1)
        serial = [job(seed) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):  # a race need not show in every round
                barrier = threading.Barrier(len(seeds))
                results = [None] * len(seeds)
                threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, job(seeds[i])))
                           for i in range(len(seeds))]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=120)
                assert not any(th.is_alive() for th in threads)
                assert results == serial
        finally:
            sys.setswitchinterval(interval)


def _benchmark_layers():
    """perfbench/layers.py, loaded from its file: the benchmark directory is no package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_benchmark_layer_table_names_every_conv_of_the_model(depth):
    # the benchmark times each conv at its input's level; up<l> reads level l + 1
    cfg = small_config(depth=depth)
    want = [(name, level + name.startswith("up")) for name, level, *_ in _convs(cfg)]
    assert _benchmark_layers().layer_specs(depth) == want
