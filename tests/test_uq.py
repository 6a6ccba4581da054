import datetime
from statistics import NormalDist

import numpy as np
import pytest

from griduq.data import (ChannelStats, GridSample, NoiseProfile, generate_synthetic,
                         region_synthetic)
from griduq.errors import CalibrationError, ContractError
from griduq.metrics import empirical_coverage, heldout_predictions, pooled_rmse
from griduq.model import UQ_CQR, UQ_MCD, ModelConfig, build
from griduq.train import RunRecord, TrainConfig
from griduq.uq import (CqrPrediction, McdPrediction, aggregate_mc_passes, cqr_predict,
                       conformal_quantile, conformity_scores, mc_dropout_predict)

from _oracles import stacked


# channel statistics that leave 28-channel inputs as they are: (x - 0) / 1 is x, bit for bit
RAW = ChannelStats(mean=np.zeros(28, np.float32), std=np.ones(28, np.float32))


def gaussian_model(dropout=0.3, seed=0):
    return build(ModelConfig(in_channels=4, base_width=4, depth=1, dropout_rate=dropout,
                             uq_method=UQ_MCD), seed)


def quantile_model(seed=0, in_channels=28, dropout=0.1):
    return build(ModelConfig(in_channels=in_channels, base_width=4, depth=1,
                             dropout_rate=dropout, uq_method=UQ_CQR), seed)


class TestAggregateMcPasses:
    def test_two_pass_closed_form(self):
        g1 = np.full((2, 2), 1.0, dtype=np.float32)
        g3 = np.full((2, 2), 3.0, dtype=np.float32)
        s = np.full((2, 2), 0.5, dtype=np.float32)
        mean, epi, alea = aggregate_mc_passes([g1, g3], [s, 3 * s])
        assert np.all(mean == 2.0)
        assert np.all(epi == 1.0)  # population variance of {1, 3}
        assert np.all(alea == 1.0)

    def test_identical_passes_give_exactly_zero_epistemic(self, rng):
        mu = rng.normal(size=(5, 7)).astype(np.float32) * 100
        s2 = rng.uniform(0.1, 2.0, (5, 7)).astype(np.float32)
        mean, epi, alea = aggregate_mc_passes([mu] * 7, [s2] * 7)
        assert np.array_equal(mean, mu)
        assert np.all(epi == 0.0)
        assert np.array_equal(alea, s2)

    def test_needs_matching_nonempty(self):
        g = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ContractError):
            aggregate_mc_passes([], [])
        with pytest.raises(ContractError):
            aggregate_mc_passes([g, g], [g])


class TestPredictionInterface:
    """Both prediction types give a point, a UQ score grid and a float64 (lo, hi) band."""

    def test_mcd_band_is_symmetric_about_point(self, rng):
        pred = McdPrediction(mean=rng.normal(size=(5, 7)).astype(np.float32) * 40,
                             epistemic=rng.uniform(0, 2, (5, 7)).astype(np.float32),
                             aleatoric=rng.uniform(0, 30, (5, 7)).astype(np.float32))
        assert pred.point is pred.mean and pred.uq_score is pred.epistemic
        for alpha in (0.05, 0.1, 0.3):
            lo, hi = pred.band(alpha)
            assert lo.dtype == hi.dtype == np.float64
            half = NormalDist().inv_cdf(1 - alpha / 2) * np.sqrt(
                (pred.epistemic + pred.aleatoric).astype(np.float64))
            assert np.array_equal(lo, pred.point.astype(np.float64) - half)
            assert np.array_equal(hi, pred.point.astype(np.float64) + half)
            assert np.allclose(hi - pred.point, pred.point - lo, rtol=0, atol=1e-12)

    def test_cqr_band_is_its_lo_and_hi(self, rng):
        lo, mid, hi = np.sort(rng.normal(size=(3, 4, 6)).astype(np.float32), axis=0)
        pred = CqrPrediction(lo=lo, mid=mid, hi=hi)
        assert pred.point is pred.mid
        assert np.array_equal(pred.uq_score, hi - lo)
        for alpha in (0.05, 0.1):
            band = pred.band(alpha)
            assert [b.dtype for b in band] == [np.float64, np.float64]
            assert np.array_equal(band[0], lo) and np.array_equal(band[1], hi)


class TestMcDropoutPredict:
    def test_reproducible_given_rng_state(self, rng):
        params = gaussian_model()
        x = rng.normal(size=(4, 8, 8)).astype(np.float32)
        a = mc_dropout_predict(params, x, t_passes=5, rng=np.random.default_rng(4))
        b = mc_dropout_predict(params, x, t_passes=5, rng=np.random.default_rng(4))
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.epistemic, b.epistemic)
        assert np.array_equal(a.aleatoric, b.aleatoric)

    def test_zero_dropout_rate_kills_epistemic(self, rng):
        params = gaussian_model(dropout=0.0)
        x = rng.normal(size=(4, 8, 8)).astype(np.float32)
        pred = mc_dropout_predict(params, x, t_passes=6)
        assert np.all(pred.epistemic == 0.0)
        assert np.all(pred.aleatoric > 0.0)

    def test_dropout_produces_spread(self, rng):
        params = gaussian_model(dropout=0.5)
        x = rng.normal(size=(4, 8, 8)).astype(np.float32)
        pred = mc_dropout_predict(params, x, t_passes=6, rng=np.random.default_rng(0))
        assert pred.epistemic.max() > 0.0

    def test_total_variance(self, rng):
        params = gaussian_model()
        x = rng.normal(size=(4, 8, 8)).astype(np.float32)
        pred = mc_dropout_predict(params, x, t_passes=4, rng=np.random.default_rng(1))
        assert np.allclose(pred.total_variance, pred.epistemic + pred.aleatoric)

    def test_guards(self, rng):
        x = rng.normal(size=(4, 8, 8)).astype(np.float32)
        with pytest.raises(ContractError):
            mc_dropout_predict(gaussian_model(), x, t_passes=1, rng=np.random.default_rng(0))
        with pytest.raises(ContractError):
            mc_dropout_predict(gaussian_model(), x, t_passes=5)  # dropout needs rng
        with pytest.raises(ContractError):
            mc_dropout_predict(quantile_model(in_channels=4), x, t_passes=5,
                               rng=np.random.default_rng(0))

    @pytest.mark.parametrize("width, depth, hw, t_passes, rate", [
        (4, 1, (9, 11), 2, 0.3),   # H, W not multiples of 2**depth: pad and crop
        (4, 1, (8, 8), 7, 0.5),
        (4, 3, (13, 10), 7, 0.3),
        (8, 3, (17, 21), 2, 0.1),
        (2, 2, (4, 4), 6, 0.3),    # deepest level 1x1: one-row products
        (1, 1, (12, 10), 7, 0.3),  # width 1: one-column products
        (4, 2, (9, 11), 7, 0.0),   # rate 0: no generator at all
    ])
    def test_batch_equals_loop_of_single_passes(self, width, depth, hw, t_passes, rate, rng):
        from _oracles import predict_gaussian
        params = build(ModelConfig(in_channels=4, base_width=width, depth=depth,
                                   dropout_rate=rate, uq_method=UQ_MCD), seed=0)
        x = rng.normal(size=(4, *hw)).astype(np.float32)
        batch_rng, loop_rng = [np.random.default_rng(9) if rate else None for _ in range(2)]
        pred = mc_dropout_predict(params, x, t_passes, batch_rng)
        passes = [predict_gaussian(params, x, loop_rng)
                  for _ in range(t_passes)]
        want = aggregate_mc_passes([mu for mu, _ in passes], [s2 for _, s2 in passes])
        for got, exp in zip((pred.mean, pred.epistemic, pred.aleatoric), want):
            assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()
        if rate:
            assert batch_rng.random() == loop_rng.random()
        else:
            assert np.all(pred.epistemic == 0.0)

    def test_mc_mean_beats_single_pass_on_average(self, rng):
        # variance reduction: averaging T stochastic passes cannot hurt RMSE
        from _oracles import predict_gaussian
        params = gaussian_model(dropout=0.4)
        x = rng.normal(size=(4, 8, 8)).astype(np.float32)
        y = rng.normal(size=(8, 8)).astype(np.float32)
        day = [GridSample(datetime.date(2005, 6, 1), x, y, np.ones((8, 8), dtype=bool))]
        mc, single = [], []
        for trial in range(20):
            pred = mc_dropout_predict(params, x, t_passes=8,
                                      rng=np.random.default_rng(100 + trial))
            mc.append(pooled_rmse([pred.mean], day))
            mu, _ = predict_gaussian(params, x, np.random.default_rng(500 + trial))
            single.append(pooled_rmse([mu], day))
        assert np.mean(mc) <= np.mean(single) + 1e-6


class TestConformalQuantile:
    def test_ten_scores(self):
        assert conformal_quantile(np.arange(1.0, 11.0), alpha=0.1) == 10.0

    def test_ninety_nine_scores(self):
        assert conformal_quantile(np.arange(1.0, 100.0), alpha=0.1) == 90.0

    def test_order_invariant(self, rng):
        scores = rng.normal(size=57)
        shuffled = scores.copy()
        rng.shuffle(shuffled)
        assert conformal_quantile(scores, 0.2) == conformal_quantile(shuffled, 0.2)

    def test_monotone_in_alpha(self, rng):
        scores = rng.normal(size=200)
        q05 = conformal_quantile(scores, 0.05)
        q10 = conformal_quantile(scores, 0.10)
        q30 = conformal_quantile(scores, 0.30)
        assert q05 >= q10 >= q30

    def test_minimum_calibration_size(self):
        # alpha = 0.1 needs ceil((n+1) * 0.9) <= n, i.e. n >= 9
        assert conformal_quantile(np.arange(9.0), alpha=0.1) == 8.0
        with pytest.raises(CalibrationError):
            conformal_quantile(np.arange(8.0), alpha=0.1)

    def test_error_reports_required_size(self):
        with pytest.raises(CalibrationError, match="at least 9"):
            conformal_quantile(np.arange(3.0), alpha=0.1)

    def test_alpha_bounds(self):
        with pytest.raises(ContractError):
            conformal_quantile(np.arange(10.0), alpha=0.0)
        with pytest.raises(ContractError):
            conformal_quantile(np.arange(10.0), alpha=1.0)


@pytest.fixture(scope="module")
def tiny_world():
    spec = region_synthetic(h=12, w=12)
    samples, _ = generate_synthetic(spec, 80, 28, NoiseProfile("homoscedastic", 2.0),
                                    0.5, seed=21)
    return quantile_model(seed=1), samples


class TestCqr:
    def test_conformity_scores_match_manual(self, tiny_world):
        params, samples = tiny_world
        subset = samples[:3]
        scores = conformity_scores(params, subset, 8, RAW)
        manual = []
        for s in subset:
            band = cqr_predict(params, s.x)
            y = s.y[s.mask]
            manual.append(np.maximum(band.lo[s.mask] - y, y - band.hi[s.mask]))
        assert np.allclose(scores, np.concatenate(manual))

    @pytest.mark.parametrize("batch_size", [1, 4, 8, 11, 32])
    def test_batched_scores_equal_per_day_calls(self, batch_size):
        # 13x11 pads to 16x12 at depth 2 and crops back; 11 days leave a
        # remainder chunk at batch sizes 4 and 8
        spec = region_synthetic(h=13, w=11)
        samples, _ = generate_synthetic(spec, 11, 28, NoiseProfile("homoscedastic", 2.0),
                                        0.5, seed=4)
        params = build(ModelConfig(in_channels=28, base_width=4, depth=2,
                                   dropout_rate=0.1, uq_method=UQ_CQR), seed=3)
        scores = conformity_scores(params, samples, batch_size, RAW)
        per_day = np.concatenate([conformity_scores(params, [s], 8, RAW) for s in samples])
        assert scores.dtype == np.float64
        assert np.array_equal(scores, per_day)
        qhat = conformal_quantile(conformity_scores(params, samples, batch_size, RAW), alpha=0.1)
        assert qhat == conformal_quantile(per_day, 0.1)

    def test_batch_size_must_be_positive(self, tiny_world):
        params, samples = tiny_world
        with pytest.raises(ContractError):
            conformity_scores(params, samples[:2], batch_size=0, stats=RAW)

    def test_predict_widens_symmetrically(self, tiny_world):
        params, samples = tiny_world
        raw = cqr_predict(params, samples[0].x)
        pred = raw.widened(1.25)
        assert np.allclose(pred.lo, raw.lo - np.float32(1.25))
        assert np.allclose(pred.hi, raw.hi + np.float32(1.25))
        assert np.array_equal(pred.mid, raw.mid)
        assert np.allclose(pred.uq_score, pred.hi - pred.lo)

    def test_negative_qhat_narrows(self, tiny_world):
        # very easy data can produce a negative correction; bands must shrink
        params, samples = tiny_world
        wide = cqr_predict(params, samples[0].x)
        narrow = wide.widened(-0.5)
        assert np.all(narrow.uq_score < wide.uq_score)

    def test_qhat_must_be_finite(self, tiny_world, tmp_path):
        # a runs.log qhat reaches the bands through heldout_predictions, which checks it
        # before it reads any file
        _, samples = tiny_world
        config = TrainConfig(UQ_CQR, seeds=(0,))
        for qhat in (None, float("nan"), float("inf"), float("-inf")):
            record = RunRecord(seed=0, best_val_loss=1.0, best_epoch=1, final_train_loss=1.0,
                               qhat=qhat, checkpoint="a", stats="c", wall_time_s=0.5,
                               heldout_targets="d")
            with pytest.raises(ContractError, match=f"needs a finite qhat, got {qhat}"):
                heldout_predictions(samples, config, tmp_path, record, b"")

    def test_head_guard(self, tiny_world):
        _, samples = tiny_world
        with pytest.raises(ContractError):
            conformity_scores(gaussian_model(), samples[:2], 8, RAW)

    def test_coverage_guarantee_without_training(self, tiny_world):
        # split-conformal marginal coverage holds no matter how bad the model:
        # 10 random calib/test resamplings of exchangeable days
        params, samples = tiny_world
        coverages = []
        for trial in range(10):
            order = np.random.default_rng(trial).permutation(len(samples))
            calib = [samples[i] for i in order[:40]]
            test = [samples[i] for i in order[40:]]
            scores = conformity_scores(params, calib, batch_size=8, stats=RAW)
            qhat = conformal_quantile(scores, alpha=0.1)
            preds = [cqr_predict(params, s.x).widened(qhat) for s in test]
            coverages.append(empirical_coverage(stacked(preds), test))
        avg = float(np.mean(coverages))
        assert 0.88 <= avg <= 0.93, f"mean coverage {avg} outside conformal band"
