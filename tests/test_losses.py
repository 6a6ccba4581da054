import math

import numpy as np
import pytest

from griduq import autodiff as ad
from griduq.autodiff import Tensor
from griduq.errors import ContractError, DimensionError
from griduq.losses import LOG_2PI, gaussian_nll, pinball, quantile_loss
from griduq.model import TAUS

from _gradcheck import max_rel_error
from _oracles import gaussian_nll_loops, pinball_loops


def full_mask(shape):
    return np.ones(shape, dtype=bool)


def grads_of(loss_builder, arrays):
    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    tape = ad.Tape()
    with tape:
        loss = loss_builder(tensors)
    ad.backward(tape, loss)
    return loss.item(), {k: t.grad for k, t in tensors.items()}


class TestGaussianNLL:
    def test_standard_normal_at_mode(self):
        # residual 0, sigma^2 = 1: NLL = 0.5 * ln(2 pi) = 0.918939
        mu = Tensor(np.zeros((1, 1, 2, 2)))
        s2 = Tensor(np.ones((1, 1, 2, 2)))
        y = np.zeros((1, 1, 2, 2), dtype=np.float32)
        loss = gaussian_nll(mu, s2, y, full_mask(y.shape))
        assert abs(loss.item() - 0.918939) < 1e-5

    def test_unit_residual_adds_half(self):
        mu = Tensor(np.zeros((1, 1, 1, 1)))
        s2 = Tensor(np.ones((1, 1, 1, 1)))
        y = np.ones((1, 1, 1, 1), dtype=np.float32)
        loss = gaussian_nll(mu, s2, y, full_mask(y.shape))
        assert abs(loss.item() - (0.5 * LOG_2PI + 0.5)) < 1e-5

    def test_matches_loop_oracle(self, rng):
        mu = rng.normal(size=(2, 1, 4, 5)).astype(np.float32)
        s2 = rng.uniform(0.5, 4.0, (2, 1, 4, 5)).astype(np.float32)
        y = rng.normal(size=(2, 1, 4, 5)).astype(np.float32)
        mask = rng.uniform(size=(2, 1, 4, 5)) < 0.4
        mask.reshape(-1)[0] = True
        loss = gaussian_nll(Tensor(mu), Tensor(s2), y, mask)
        want = gaussian_nll_loops(y, mu, s2, mask)
        assert abs(loss.item() - want) < 1e-5 * max(1.0, abs(want))

    def test_rejects_nonpositive_sigma2(self):
        mu = Tensor(np.zeros(3))
        s2 = Tensor(np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ContractError):
            gaussian_nll(mu, s2, np.zeros(3, dtype=np.float32), full_mask(3))

    def test_ignores_sigma2_off_mask(self):
        mu = Tensor(np.zeros(3))
        s2 = Tensor(np.array([1.0, -5.0, 1.0]))
        mask = np.array([True, False, True])
        loss = gaussian_nll(mu, s2, np.zeros(3, dtype=np.float32), mask)
        assert abs(loss.item() - 0.5 * LOG_2PI) < 1e-5

    def test_nan_sentinels_do_not_poison_grads(self):
        y = np.array([[1.0, np.nan], [np.nan, 2.0]], dtype=np.float32)
        mask = np.array([[True, False], [False, True]])

        def build(t):
            return gaussian_nll(t["mu"], ad.add_scalar(ad.softplus(t["raw"]), 1e-6), y, mask)

        loss, grads = grads_of(build, {"mu": np.zeros((2, 2), dtype=np.float32),
                                       "raw": np.zeros((2, 2), dtype=np.float32)})
        assert math.isfinite(loss)
        assert np.all(np.isfinite(grads["mu"]))
        assert np.all(np.isfinite(grads["raw"]))
        assert grads["mu"][0, 1] == 0.0 and grads["mu"][1, 0] == 0.0

    def test_grad_zero_off_mask_and_finite_on_mask(self, rng):
        mask = np.zeros((1, 1, 3, 3), dtype=bool)
        mask[0, 0, 1, 1] = True
        y = rng.normal(size=mask.shape).astype(np.float32)

        def build(t):
            return gaussian_nll(t["mu"], t["s2"], y, mask)

        _, grads = grads_of(build, {
            "mu": rng.normal(size=mask.shape).astype(np.float32),
            "s2": rng.uniform(1.0, 2.0, mask.shape).astype(np.float32)})
        assert grads["mu"][~mask].max() == 0.0 and grads["mu"][~mask].min() == 0.0
        assert grads["s2"][~mask].max() == 0.0 and grads["s2"][~mask].min() == 0.0
        assert grads["mu"][mask] != 0.0

    def test_analytic_gradient(self):
        # d/dmu = (mu - y)/s2 / m ; d/ds2 = (1/s2 - (y-mu)^2/s2^2) / (2 m)
        mu0, s20, y0 = 1.5, 2.0, 0.5
        y = np.full((1,), y0, dtype=np.float32)

        def build(t):
            return gaussian_nll(t["mu"], t["s2"], y, full_mask(1))

        _, grads = grads_of(build, {"mu": np.array([mu0], dtype=np.float32),
                                    "s2": np.array([s20], dtype=np.float32)})
        assert abs(grads["mu"][0] - (mu0 - y0) / s20) < 1e-6
        want_s2 = 0.5 * (1.0 / s20 - (y0 - mu0) ** 2 / s20 ** 2)
        assert abs(grads["s2"][0] - want_s2) < 1e-6


class TestPinball:
    def test_median_is_half_mae(self, rng):
        q = rng.normal(size=(2, 1, 3, 3)).astype(np.float32)
        y = rng.normal(size=q.shape).astype(np.float32)
        mask = full_mask(q.shape)
        loss = pinball(Tensor(q), y, 0.5, mask)
        mae = float(np.mean(np.abs(y.astype(np.float64) - q)))
        assert abs(loss.item() - 0.5 * mae) < 1e-6

    def test_tau_05_closed_forms(self):
        q = Tensor(np.zeros(1))
        assert abs(pinball(q, np.array([1.0], dtype=np.float32), 0.05, full_mask(1)).item() - 0.05) < 1e-7
        assert abs(pinball(q, np.array([-1.0], dtype=np.float32), 0.05, full_mask(1)).item() - 0.95) < 1e-7

    @pytest.mark.parametrize("tau", [0.05, 0.5, 0.95])
    def test_matches_loop_oracle(self, tau, rng):
        q = rng.normal(size=(2, 1, 4, 4)).astype(np.float32)
        y = rng.normal(size=q.shape).astype(np.float32)
        mask = rng.uniform(size=q.shape) < 0.5
        mask.reshape(-1)[3] = True
        loss = pinball(Tensor(q), y, tau, mask)
        assert abs(loss.item() - pinball_loops(y, q, mask, tau)) < 1e-6

    def test_invalid_tau(self):
        with pytest.raises(ContractError):
            pinball(Tensor(np.zeros(1)), np.zeros(1, dtype=np.float32), 0.0, full_mask(1))
        with pytest.raises(ContractError):
            pinball(Tensor(np.zeros(1)), np.zeros(1, dtype=np.float32), 1.0, full_mask(1))

    def test_subgradient_at_zero_residual(self):
        def build(t):
            return pinball(t["q"], np.zeros(2, dtype=np.float32), 0.3, full_mask(2))

        _, grads = grads_of(build, {"q": np.zeros(2, dtype=np.float32)})
        assert np.array_equal(grads["q"], np.zeros(2, dtype=np.float32))

    def test_gradient_signs(self):
        # y > q pulls q up with weight tau; y < q pushes down with 1 - tau
        def build(t):
            return pinball(t["q"], np.array([1.0, -1.0], dtype=np.float32), 0.05, full_mask(2))

        _, grads = grads_of(build, {"q": np.zeros(2, dtype=np.float32)})
        assert abs(grads["q"][0] - (-0.05 / 2)) < 1e-7
        assert abs(grads["q"][1] - (0.95 / 2)) < 1e-7


class TestQuantileLoss:
    def test_sum_of_pinballs(self, rng):
        head = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        y = rng.normal(size=(2, 1, 4, 4)).astype(np.float32)
        mask = rng.uniform(size=y.shape) < 0.6
        mask.reshape(-1)[5] = True
        total = quantile_loss(Tensor(head), y, mask)
        want = sum(pinball_loops(y, head[:, i:i + 1], mask, tau) for i, tau in enumerate(TAUS))
        assert abs(total.item() - want) < 1e-5

    def test_channel_count_mismatch(self):
        with pytest.raises(DimensionError):
            quantile_loss(Tensor(np.zeros((1, 2, 3, 3))), np.zeros((1, 1, 3, 3), dtype=np.float32),
                          full_mask((1, 1, 3, 3)))

    def test_loss_value_independent_of_unmasked_pixels(self, rng):
        head = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        y = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        mask = np.zeros_like(y, dtype=bool)
        mask[0, 0, 1, 1] = mask[0, 0, 2, 3] = True
        base = quantile_loss(Tensor(head), y, mask).item()
        y2 = y.copy()
        y2[~mask] = 1e6
        again = quantile_loss(Tensor(head), y2, mask).item()
        assert base == again

    def test_grads_zero_off_mask(self, rng):
        y = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        mask = np.zeros_like(y, dtype=bool)
        mask[0, 0, 0, 0] = True

        def build(t):
            return quantile_loss(t["head"], y, mask)

        _, grads = grads_of(build, {"head": rng.normal(size=(1, 3, 4, 4)).astype(np.float32)})
        off = np.broadcast_to(~mask, grads["head"].shape)
        assert np.abs(grads["head"][off]).max() == 0.0


class TestSharedValidation:
    def test_bool_mask_required(self):
        with pytest.raises(ContractError):
            pinball(Tensor(np.zeros(2)), np.zeros(2, dtype=np.float32),
                    0.5, np.ones(2, dtype=np.int32))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            gaussian_nll(Tensor(np.zeros(2)), Tensor(np.zeros(2)),
                         np.zeros(3, dtype=np.float32), full_mask(2))

    def test_empty_mask(self):
        with pytest.raises(ContractError):
            pinball(Tensor(np.zeros(2)), np.zeros(2, dtype=np.float32),
                    0.5, np.zeros(2, dtype=bool))


def test_gaussian_nll_gradcheck(rng):
    # FD on the raw (pre-softplus) variance parameters keeps sigma2 smooth
    y = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
    mask = rng.uniform(size=y.shape) < 0.7
    mask.reshape(-1)[0] = True
    arrays = {"mu": rng.normal(size=y.shape).astype(np.float32),
              "raw": rng.normal(size=y.shape).astype(np.float32)}

    def f(vals):
        tensors = {k: Tensor(v, requires_grad=True) for k, v in vals.items()}
        tape = ad.Tape()
        with tape:
            s2 = ad.add_scalar(ad.softplus(tensors["raw"]), 1e-6)
            loss = gaussian_nll(tensors["mu"], s2, y, mask)
        return loss, tensors, tape

    loss, tensors, tape = f(arrays)
    ad.backward(tape, loss)
    eps = 1e-3
    for name in arrays:
        fd = np.zeros_like(arrays[name], dtype=np.float64)
        for idx in range(arrays[name].size):
            hi = {k: v.copy() for k, v in arrays.items()}
            hi[name].reshape(-1)[idx] += eps
            lo = {k: v.copy() for k, v in arrays.items()}
            lo[name].reshape(-1)[idx] -= eps
            fd.reshape(-1)[idx] = (f(hi)[0].item() - f(lo)[0].item()) / (2 * eps)
        assert max_rel_error(tensors[name].grad.astype(np.float64), fd) < 1e-3
