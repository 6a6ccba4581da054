import dataclasses
import datetime
import math
import shutil

import numpy as np
import pytest

from griduq import autodiff as ad
from griduq import metrics, model
from griduq import uq as uq_module
from griduq.data import ChannelStats, GridSample, split, standardize
from griduq.errors import ContractError, FormatError
from griduq.metrics import (EVAL_RNG_TAG, MetricsReport, SeriesRow, StationScore,
                            empirical_coverage, evaluate_runs, extrapolate_for_runs,
                            heldout_predictions, pooled_rmse, population_stats,
                            quantile_crossing_rate, rank_for_runs, rank_stations,
                            series_for_runs, time_mean_over_masked, uq_stats)
from griduq.model import UQ_CQR, ModelConfig, build
from griduq.train import (CONFIG_NAME, TRAIN_FRAC, load_run_params, read_run_config,
                          read_runs_log, run_config)
from griduq.uq import CqrPrediction, McdPrediction, cqr_predict, mc_dropout_predict

from _oracles import rmse_loops, stacked


def cqr_pred(lo, mid, hi):
    return CqrPrediction(lo=np.asarray(lo, np.float32), mid=np.asarray(mid, np.float32),
                         hi=np.asarray(hi, np.float32))


def mcd_pred(mean, epi, alea):
    return McdPrediction(mean=np.asarray(mean, np.float32),
                         epistemic=np.asarray(epi, np.float32),
                         aleatoric=np.asarray(alea, np.float32))


def masked_rmse(pred, y, mask):
    """pooled_rmse over one day: the RMSE of pred against y on the masked pixels."""
    day = GridSample(datetime.date(2005, 6, 1), np.zeros((1, *y.shape), np.float32),
                     np.where(mask, y, np.float32(np.nan)), mask)
    return pooled_rmse([pred], [day])


class TestMaskedRmse:
    def test_closed_form(self):
        pred = np.array([[1.0, 2.0]], dtype=np.float32)
        y = np.zeros((1, 2), dtype=np.float32)
        assert masked_rmse(pred, y, np.ones((1, 2), bool)) == pytest.approx(math.sqrt(2.5))

    def test_mask_excludes(self):
        pred = np.array([[1.0, 100.0]], dtype=np.float32)
        y = np.zeros((1, 2), dtype=np.float32)
        mask = np.array([[True, False]])
        assert masked_rmse(pred, y, mask) == pytest.approx(1.0)

    def test_matches_loop_oracle(self, rng):
        pred = rng.normal(size=(6, 7)).astype(np.float32)
        y = rng.normal(size=(6, 7)).astype(np.float32)
        mask = rng.uniform(size=(6, 7)) < 0.5
        mask[0, 0] = True
        assert masked_rmse(pred, y, mask) == pytest.approx(rmse_loops(y, pred, mask), abs=1e-12)


class TestPooledRmse:
    def test_pools_pixel_days(self, rng):
        days = []
        preds = []
        for i in range(3):
            x = rng.normal(size=(1, 4, 4)).astype(np.float32)
            mask = rng.uniform(size=(4, 4)) < 0.6
            mask[0, 0] = True
            y = np.where(mask, rng.normal(size=(4, 4)).astype(np.float32), np.float32(np.nan))
            days.append(GridSample(datetime.date(2005, 6, 1 + i), x, y, mask))
            preds.append(rng.normal(size=(4, 4)).astype(np.float32))
        got = pooled_rmse(preds, days)
        diffs = np.concatenate([p[s.mask].astype(np.float64) - s.y[s.mask].astype(np.float64)
                                for p, s in zip(preds, days)])
        assert got == pytest.approx(math.sqrt(np.mean(diffs ** 2)), abs=1e-12)

    def test_guards(self):
        with pytest.raises(ContractError):
            pooled_rmse([], [])


class TestTimeMean:
    def test_per_cell_counts(self):
        g1 = np.array([[1.0, 10.0]], dtype=np.float32)
        g2 = np.array([[3.0, 99.0]], dtype=np.float32)
        m1 = np.array([[True, True]])
        m2 = np.array([[True, False]])
        mean, covered = time_mean_over_masked([g1, g2], [m1, m2])
        assert mean[0, 0] == pytest.approx(2.0)
        assert mean[0, 1] == pytest.approx(10.0)  # only day 1 covers it
        assert covered.all()

    def test_never_covered_is_nan(self):
        g = np.zeros((1, 2), dtype=np.float32)
        m = np.array([[True, False]])
        mean, covered = time_mean_over_masked([g], [m])
        assert np.isnan(mean[0, 1])
        assert not covered[0, 1]

    def test_day_order_invariant(self, rng):
        grids = [rng.normal(size=(5, 5)).astype(np.float32) for _ in range(7)]
        masks = [rng.uniform(size=(5, 5)) < 0.5 for _ in range(7)]
        masks[0][:] = True
        a, ca = time_mean_over_masked(grids, masks)
        order = rng.permutation(7)
        b, cb = time_mean_over_masked([grids[i] for i in order], [masks[i] for i in order])
        assert np.array_equal(ca, cb)
        assert np.allclose(a[ca], b[cb], atol=1e-12)


class TestIntervalEpistemicStats:
    def test_constant_intervals(self):
        lo = np.zeros((3, 3))
        hi = np.full((3, 3), 4.0)
        preds = [cqr_pred(lo, lo, hi)] * 3
        masks = [np.ones((3, 3), bool)] * 3
        mx, mn, avg = uq_stats(stacked(preds), masks)
        assert (mx, mn, avg) == (4.0, 4.0, 4.0)

    def test_ordering_invariant(self, rng):
        preds = [cqr_pred(np.zeros((4, 4)), np.zeros((4, 4)),
                          rng.uniform(1, 5, (4, 4))) for _ in range(5)]
        masks = [rng.uniform(size=(4, 4)) < 0.7 for _ in range(5)]
        masks[0][:] = True
        mx, mn, avg = uq_stats(stacked(preds), masks)
        assert mn <= avg <= mx

    def test_epistemic_stats(self):
        epi = np.array([[1.0, 3.0]], dtype=np.float32)
        preds = [mcd_pred(epi, epi, epi)]
        mx, mn, avg = uq_stats(stacked(preds), [np.ones((1, 2), bool)])
        assert (mx, mn, avg) == (3.0, 1.0, 2.0)


class TestCoverage:
    def test_closed_form(self):
        lo = np.zeros((1, 4))
        hi = np.ones((1, 4))
        y = np.array([[0.5, 2.0, -1.0, 1.0]], dtype=np.float32)  # in, out, out, edge-in
        s = GridSample(datetime.date(2005, 6, 1), np.zeros((1, 1, 4), np.float32),
                       y, np.ones((1, 4), bool))
        cov = empirical_coverage(stacked([cqr_pred(lo, lo, hi)]), [s])
        assert cov == pytest.approx(0.5)

    def test_respects_mask(self):
        lo = np.zeros((1, 2))
        hi = np.ones((1, 2))
        mask = np.array([[True, False]])
        y = np.where(mask, np.float32(0.5), np.float32(np.nan))
        s = GridSample(datetime.date(2005, 6, 1), np.zeros((1, 1, 2), np.float32), y, mask)
        assert empirical_coverage(stacked([cqr_pred(lo, lo, hi)]), [s]) == 1.0

    def test_guards(self):
        empty = np.zeros((0, 1, 1))
        with pytest.raises(ContractError):
            empirical_coverage(cqr_pred(empty, empty, empty), [])


class TestCrossingRate:
    def test_matches_manual(self, tiny_samples):
        samples, _ = tiny_samples
        params = build(ModelConfig(in_channels=28, base_width=4, depth=1,
                                   dropout_rate=0.0, uq_method=UQ_CQR), seed=3)
        bands = [cqr_predict(params, s.x) for s in samples[:4]]
        got = quantile_crossing_rate(stacked(bands), samples[:4])
        crossed = total = 0
        for band, s in zip(bands, samples[:4]):
            crossed += int(np.sum(band.lo[s.mask] > band.hi[s.mask]))
            total += int(s.mask.sum())
        assert got == pytest.approx(crossed / total)
        assert 0.0 <= got <= 1.0


class TestRankStations:
    def make_spec(self):
        from griduq.data import RegionSpec
        return RegionSpec("t", 2, 3, lat0=50.0, lon0=0.0)

    def test_descending_with_tie_break(self):
        spec = self.make_spec()
        uq = np.array([[5.0, 7.0, 5.0], [9.0, 5.0, 1.0]])
        rmse = np.arange(6.0).reshape(2, 3)
        mask = np.ones((2, 3), bool)
        ranked = rank_stations(uq, rmse, mask, spec)
        assert [(s.row, s.col) for s in ranked] == [
            (1, 0), (0, 1), (0, 0), (0, 2), (1, 1), (1, 2)]
        assert ranked[0].uq_score == 9.0
        assert ranked[0].rmse == 3.0

    def test_only_masked_cells(self):
        spec = self.make_spec()
        uq = np.ones((2, 3))
        mask = np.zeros((2, 3), bool)
        mask[0, 1] = True
        ranked = rank_stations(uq, uq, mask, spec)
        assert len(ranked) == 1
        lat, lon = spec.cell_center(0, 1)
        assert (ranked[0].lat, ranked[0].lon) == (lat, lon)

    def test_monotone_transform_keeps_order(self, rng):
        spec = self.make_spec()
        uq = rng.uniform(0, 1, (2, 3))
        rmse = rng.uniform(size=(2, 3))
        mask = np.ones((2, 3), bool)
        a = rank_stations(uq, rmse, mask, spec)
        b = rank_stations(3.0 * uq + 2.0, rmse, mask, spec)
        assert [(s.row, s.col) for s in a] == [(s.row, s.col) for s in b]

    def test_guards(self):
        spec = self.make_spec()
        with pytest.raises(ContractError):
            rank_stations(np.ones((3, 3)), np.ones((3, 3)), np.ones((3, 3), bool), spec)
        with pytest.raises(ContractError):
            rank_stations(np.ones((2, 3)), np.ones((2, 3)), np.zeros((2, 3), bool), spec)


class TestNormalQuantile:
    def test_known_values(self):
        # the MCD band of a unit variance about 0 reaches out to the normal quantiles
        unit = McdPrediction(mean=np.zeros(1, np.float32), epistemic=np.ones(1, np.float32),
                             aleatoric=np.zeros(1, np.float32))
        assert unit.band(0.05)[1][0] == pytest.approx(1.959964, abs=1e-5)
        assert unit.band(0.1)[1][0] == pytest.approx(1.644854, abs=1e-5)
        assert unit.band(1.0)[1][0] == pytest.approx(0.0, abs=1e-9)
        assert unit.band(0.05)[0][0] == pytest.approx(-1.959964, abs=1e-5)


def test_population_stats():
    mean, var, std = population_stats([1.0, 2.0, 4.0])
    m = 7.0 / 3.0
    assert mean == pytest.approx(m, abs=1e-15)
    assert var == pytest.approx(((1 - m) ** 2 + (2 - m) ** 2 + (4 - m) ** 2) / 3, abs=1e-15)
    assert std == pytest.approx(math.sqrt(var), abs=1e-15)


class TestEvaluateRuns:
    def test_mcd_report(self, tiny_samples, tiny_region, mcd_runs):
        samples, _ = tiny_samples
        report = evaluate_runs(samples, tiny_region, mcd_runs)
        assert report.uq_method == "mcd"
        assert report.n_seeds == 2 and len(report.rmse_per_seed) == 2
        assert report.n_channels == 28
        assert report.rmse_mean == pytest.approx(sum(report.rmse_per_seed) / 2, abs=1e-12)
        assert report.rmse_std == pytest.approx(math.sqrt(report.rmse_variance), abs=1e-12)
        assert report.epistemic_max is not None
        assert report.epistemic_min <= report.epistemic_avg <= report.epistemic_max
        assert report.interval_max is None and report.coverage is None

    def test_cqr_report(self, tiny_samples, tiny_region, cqr_runs):
        samples, _ = tiny_samples
        report = evaluate_runs(samples, tiny_region, cqr_runs)
        assert report.uq_method == "cqr"
        assert report.interval_min <= report.interval_avg <= report.interval_max
        assert 0.0 <= report.coverage <= 1.0
        assert 0.0 <= report.crossing_rate <= 1.0
        assert report.epistemic_max is None

    def test_deterministic(self, tiny_samples, tiny_region, mcd_runs):
        samples, _ = tiny_samples
        a = evaluate_runs(samples, tiny_region, mcd_runs)
        b = evaluate_runs(samples, tiny_region, mcd_runs)
        assert a == b

    def test_channel_mismatch(self, tiny_region, mcd_runs):
        bad = [GridSample(datetime.date(2005, 6, 1),
                          np.zeros((3, 16, 16), np.float32),
                          np.where(np.ones((16, 16), bool), np.float32(0), np.float32(np.nan)),
                          np.ones((16, 16), bool))]
        with pytest.raises(ContractError):
            evaluate_runs(bad, tiny_region, mcd_runs)

    def test_matches_manual_recompute_for_one_seed(self, tiny_samples, tiny_region, cqr_runs):
        samples, _ = tiny_samples
        report = evaluate_runs(samples, tiny_region, cqr_runs)
        config, _ = read_run_config(cqr_runs)
        rec = read_runs_log(cqr_runs)[0]
        params, stats = load_run_params(cqr_runs, rec)
        from griduq.data import standardize
        _, _, val = split(samples, TRAIN_FRAC, calib=True, seed=rec.seed)
        val = sorted(val, key=lambda s: s.date)
        preds = [cqr_predict(params, z.x).widened(rec.qhat)
                 for z in standardize(val, stats)]
        assert report.rmse_per_seed[0] == pytest.approx(
            pooled_rmse([p.mid for p in preds], val), abs=1e-12)

    def test_crossing_rate_is_measured_before_widening(self, tiny_samples, tiny_region,
                                                       cqr_runs, tmp_path):
        samples, _ = tiny_samples
        runs_dir = fresh_copy(cqr_runs, tmp_path)
        raw, widened = [], []
        for rec in read_runs_log(runs_dir):  # swap the lo and hi channels so pixels cross
            tensors = ad.load_checkpoint(runs_dir / rec.checkpoint)
            for name in ("head_w", "head_b"):
                tensors[name].data[[0, 2]] = tensors[name].data[[2, 0]]
            ad.save_checkpoint(runs_dir / rec.checkpoint, tensors)
            params, stats = load_run_params(runs_dir, rec)
            val = split(samples, TRAIN_FRAC, calib=True, seed=rec.seed)[-1]
            for rates, qhat in ((raw, 0.0), (widened, rec.qhat)):
                bands = [cqr_predict(params, z.x).widened(qhat)
                         for z in standardize(val, stats)]
                rates.append(np.mean(np.concatenate([(b.lo > b.hi)[s.mask]
                                                     for b, s in zip(bands, val)])))
        report = evaluate_runs(samples, tiny_region, runs_dir)
        assert report.crossing_rate == pytest.approx(np.mean(raw), abs=1e-12)
        assert np.mean(widened) < report.crossing_rate


class TestRankForRuns:
    @pytest.mark.parametrize("runs", ["mcd_runs", "cqr_runs"])
    def test_ranked_output(self, runs, request, tiny_samples, tiny_region):
        runs_dir = request.getfixturevalue(runs)
        samples, _ = tiny_samples
        ranked = rank_for_runs(samples, tiny_region, runs_dir)
        assert len(ranked) > 0
        scores = [s.uq_score for s in ranked]
        assert scores == sorted(scores, reverse=True)
        assert all(np.isfinite(s.rmse) for s in ranked)
        # every ranked cell is a station cell (mask is day-invariant here)
        mask = samples[0].mask
        assert all(mask[s.row, s.col] for s in ranked)


class TestSeriesForRuns:
    def test_cqr_series(self, tiny_samples, tiny_region, cqr_runs):
        samples, _ = tiny_samples
        row, col = map(int, np.argwhere(samples[0].mask)[0])
        lat, lon = tiny_region.cell_center(row, col)
        cell, rows = series_for_runs(samples, tiny_region, cqr_runs, lat, lon)
        assert cell == (row, col)
        rec = read_runs_log(cqr_runs)[0]
        config, _ = read_run_config(cqr_runs)
        _, _, val = split(samples, TRAIN_FRAC, calib=True, seed=rec.seed)
        assert len(rows) == len(val)
        assert [r.date for r in rows] == sorted(r.date for r in rows)
        by_date = {s.date: s for s in val}
        for r in rows:
            assert r.y == pytest.approx(float(by_date[r.date].y[row, col]))
            assert r.lo <= r.hi

    def test_mcd_band_symmetry(self, tiny_samples, tiny_region, mcd_runs):
        samples, _ = tiny_samples
        row, col = map(int, np.argwhere(samples[0].mask)[0])
        lat, lon = tiny_region.cell_center(row, col)
        _, rows = series_for_runs(samples, tiny_region, mcd_runs, lat, lon)
        assert rows
        for r in rows:
            assert r.lo <= r.mid <= r.hi
            assert (r.mid - r.lo) == pytest.approx(r.hi - r.mid, rel=1e-6)


class TestExtrapolate:
    def test_grids_cover_every_cell(self, tiny_samples, tiny_region, cqr_runs):
        samples, _ = tiny_samples
        maps = extrapolate_for_runs(samples, cqr_runs, [1, 2])
        assert [d for d, _, _ in maps] == [1, 2]
        for _, date, grid in maps:
            assert grid.shape == (tiny_region.h, tiny_region.w)
            assert np.all(np.isfinite(grid))  # includes never-masked cells

    def test_mcd_epistemic_maps(self, tiny_samples, mcd_runs):
        samples, _ = tiny_samples
        maps = extrapolate_for_runs(samples, mcd_runs, [1])
        _, _, grid = maps[0]
        assert np.all(grid >= 0.0)

    def test_day_index_bounds(self, tiny_samples, cqr_runs):
        samples, _ = tiny_samples
        with pytest.raises(ContractError, match="1..2"):
            extrapolate_for_runs(samples, cqr_runs, [3])
        with pytest.raises(ContractError):
            extrapolate_for_runs(samples, cqr_runs, [0])

    def test_mcd_maps_are_evals_epistemic_grids(self, tiny_samples, mcd_runs, tmp_path):
        samples, _ = tiny_samples
        runs = fresh_copy(mcd_runs, tmp_path)
        want = evals_predictions(samples, runs)[0]
        maps = extrapolate_for_runs(samples, runs, [2, 1])
        assert [d for d, _, _ in maps] == [2, 1]
        for d, _, grid in maps:
            assert np.array_equal(grid, want[d - 1].epistemic)


def fresh_copy(runs_dir, tmp_path):
    """A copy of a runs directory without stored held-out predictions."""
    return shutil.copytree(runs_dir, tmp_path / "runs",
                           ignore=shutil.ignore_patterns("*_heldout.guqw"))


def evals_predictions(samples, runs_dir):
    """Per seed, eval's per-day predictions computed directly (CQR widened by qhat)."""
    config, _ = read_run_config(runs_dir)
    out = []
    for rec in read_runs_log(runs_dir):
        params, stats = load_run_params(runs_dir, rec)
        val = split(samples, TRAIN_FRAC, calib=config.uq_method == "cqr", seed=rec.seed)[-1]
        xs = [s.x for s in standardize(sorted(val, key=lambda s: s.date), stats)]
        if config.uq_method == "mcd":
            rng = np.random.default_rng([rec.seed, EVAL_RNG_TAG])
            out.append([mc_dropout_predict(params, x, config.t_passes, rng) for x in xs])
        else:
            out.append([cqr_predict(params, x).widened(rec.qhat) for x in xs])
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


GRIDS = {"mcd_runs": ("mean", "epistemic", "aleatoric"), "cqr_runs": ("lo", "mid", "hi")}


class TestHeldOutPredictions:
    def held(self, samples, runs):
        config, _, text = run_config(runs, samples)
        return [heldout_predictions(samples, config, runs, rec, text)
                for rec in read_runs_log(runs)]

    @pytest.mark.parametrize("runs", ["mcd_runs", "cqr_runs"])
    def test_cache_hit_equals_fresh_compute(self, runs, request, tiny_samples, tmp_path):
        samples, _ = tiny_samples
        runs_dir = fresh_copy(request.getfixturevalue(runs), tmp_path)
        cold = self.held(samples, runs_dir)
        assert sorted(p.name for p in runs_dir.glob("*_heldout.guqw")) == [
            "seed0_heldout.guqw", "seed1_heldout.guqw"]
        warm = self.held(samples, runs_dir)
        for held_cold, held_warm, direct in zip(cold, warm, evals_predictions(samples, runs_dir)):
            assert [s.date for s in held_warm.days] == [s.date for s in held_cold.days]
            c, w, d = held_cold.preds, held_warm.preds, stacked(direct)
            for name in GRIDS[runs]:
                assert same_bits(getattr(w, name), getattr(c, name))
                assert same_bits(getattr(w, name), getattr(d, name))

    @pytest.mark.parametrize("runs", ["mcd_runs", "cqr_runs"])
    def test_one_forward_per_heldout_day_for_all_four_stages(self, runs, request, tiny_samples,
                                                             tiny_region, tmp_path,
                                                             monkeypatch):
        samples, _ = tiny_samples
        runs_dir = fresh_copy(request.getfixturevalue(runs), tmp_path)
        calls = []
        forward = model.forward
        for module in (model, uq_module):  # uq holds its own binding of forward
            monkeypatch.setattr(module, "forward",
                                lambda *a, **k: calls.append(1) or forward(*a, **k))
        evaluate_runs(samples, tiny_region, runs_dir)
        n_days = sum(len(h.days) for h in self.held(samples, runs_dir))
        assert len(calls) == n_days
        row, col = map(int, np.argwhere(samples[0].mask)[0])
        rank_for_runs(samples, tiny_region, runs_dir)
        series_for_runs(samples, tiny_region, runs_dir, *tiny_region.cell_center(row, col))
        extrapolate_for_runs(samples, runs_dir, [1])
        assert len(calls) == n_days

    @pytest.mark.parametrize("change", ["checkpoint", "stats", "day"])
    def test_changed_input_forces_recompute(self, change, tiny_samples, cqr_runs, tmp_path,
                                            monkeypatch):
        samples, _ = tiny_samples
        runs_dir = fresh_copy(cqr_runs, tmp_path)
        before = self.held(samples, runs_dir)[0]
        rec = read_runs_log(runs_dir)[0]
        if change == "day":
            day = before.days[0]
            moved = dataclasses.replace(day, x=day.x + np.float32(1.0))
            samples = [moved if s.date == day.date else s for s in samples]
        else:
            name = rec.checkpoint if change == "checkpoint" else rec.stats
            tensors = ad.load_checkpoint(runs_dir / name)
            first = next(iter(tensors.values()))
            first.data[...] += np.float32(0.5)
            ad.save_checkpoint(runs_dir / name, tensors)
        calls = []
        predict = metrics.cqr_predict
        monkeypatch.setattr(metrics, "cqr_predict",
                            lambda *a, **k: calls.append(1) or predict(*a, **k))
        after = self.held(samples, runs_dir)[0]
        assert len(calls) == len(before.days)  # seed 0 recomputed, seed 1 loaded
        assert not np.array_equal(after.raw.mid[0], before.raw.mid[0])
        again = self.held(samples, runs_dir)[0]
        assert len(calls) == len(before.days)
        assert same_bits(again.raw.mid[0], after.raw.mid[0])

    @pytest.mark.parametrize("defect", ["std=0", "std=-1", "std=nan", "std=inf", "mean=nan",
                                        "mean=inf", "27 channels", "weight=nan"])
    def test_bad_stats_or_weights_are_refused(self, defect, tiny_samples, tiny_region, mcd_runs,
                                              tmp_path):
        samples, _ = tiny_samples
        runs_dir = fresh_copy(mcd_runs, tmp_path)
        rec = read_runs_log(runs_dir)[0]
        what, _, value = defect.partition("=")
        name = rec.checkpoint if what == "weight" else rec.stats
        tensors = ad.load_checkpoint(runs_dir / name)
        if defect == "27 channels":
            tensors = {k: ad.Tensor(t.data[:27]) for k, t in tensors.items()}
        else:
            target = next(iter(tensors.values())) if what == "weight" else tensors[what]
            target.data.flat[3] = float(value)
        ad.save_checkpoint(runs_dir / name, tensors)
        for score in (lambda: load_run_params(runs_dir, rec),
                      lambda: evaluate_runs(samples, tiny_region, runs_dir)):
            with pytest.raises(FormatError, match=name):
                score()
        assert not (runs_dir / "seed0_heldout.guqw").exists()

    def test_failed_write_still_scores(self, tiny_samples, tiny_region, mcd_runs, tmp_path,
                                       monkeypatch):
        samples, _ = tiny_samples
        runs_dir = fresh_copy(mcd_runs, tmp_path)

        def refuse(path, payload):
            raise PermissionError(13, "read-only runs directory", str(path))

        monkeypatch.setattr(ad, "write_atomic", refuse)
        with pytest.warns(RuntimeWarning, match="not stored"):
            report = evaluate_runs(samples, tiny_region, runs_dir)
        assert report == evaluate_runs(samples, tiny_region, mcd_runs)
        assert not list(runs_dir.glob("*_heldout.guqw"))

    def test_other_dataset_is_refused_by_all_four_stages(self, tiny_samples, tiny_region,
                                                         cqr_runs, tmp_path):
        samples, _ = tiny_samples
        moved = [dataclasses.replace(s, date=s.date.replace(year=s.date.year + 1))
                 for s in samples]
        lat, lon = tiny_region.cell_center(*map(int, np.argwhere(samples[0].mask)[0]))
        for stage in (lambda d: evaluate_runs(d, tiny_region, cqr_runs),
                      lambda d: rank_for_runs(d, tiny_region, cqr_runs),
                      lambda d: series_for_runs(d, tiny_region, cqr_runs, lat, lon),
                      lambda d: extrapolate_for_runs(d, cqr_runs, [1])):
            with pytest.raises(ContractError, match="another dataset"):
                stage(moved)
            stage(samples)

    def test_config_without_dataset_key_is_refused(self, tiny_samples, tiny_region, cqr_runs,
                                                   tmp_path):
        # without dataset= the runs cannot be checked against a world, so nothing is scored
        samples, _ = tiny_samples
        runs_dir = fresh_copy(cqr_runs, tmp_path)
        config = runs_dir / CONFIG_NAME
        lines = config.read_text().splitlines()
        assert any(line.startswith("dataset=") for line in lines)
        config.write_text("".join(f"{line}\n" for line in lines
                                  if not line.startswith("dataset=")))
        with pytest.raises(FormatError, match=f"{config}: missing key 'dataset'"):
            evaluate_runs(samples, tiny_region, runs_dir)
        assert not list(runs_dir.glob("*_heldout.guqw"))

    def test_file_stored_without_the_stats_checks_is_not_served(self, tiny_samples, tiny_region,
                                                                cqr_runs, tmp_path,
                                                                monkeypatch):
        # key version 2 stored predictions before the stats and weights checks existed: a zero
        # std gave NaN grids, which a later stage served; version 3 recomputes, and is refused
        samples, _ = tiny_samples
        runs_dir = fresh_copy(cqr_runs, tmp_path)
        rec = read_runs_log(runs_dir)[0]
        stats = ad.load_checkpoint(runs_dir / rec.stats)
        stats["std"].data[3] = 0.0
        ad.save_checkpoint(runs_dir / rec.stats, stats)

        def unchecked(model_config, runs_dir, record, weights, stats):
            st = ad.parse_checkpoint(stats, record.stats)
            return (model.UNetParams(model_config, ad.parse_checkpoint(weights, record.checkpoint)),
                    ChannelStats(mean=st["mean"].data, std=st["std"].data))

        with monkeypatch.context() as m, np.errstate(all="ignore"):
            m.setattr(metrics, "HELDOUT_VERSION", 2)
            m.setattr(metrics, "parse_run_params", unchecked)
            assert math.isnan(evaluate_runs(samples, tiny_region, runs_dir).rmse_mean)
            m.undo()
            m.setattr(metrics, "HELDOUT_VERSION", 2)
            # served under its own key version: the checks run only on a recompute
            assert math.isnan(evaluate_runs(samples, tiny_region, runs_dir).rmse_mean)
        stored = (runs_dir / "seed0_heldout.guqw").read_bytes()
        with pytest.raises(FormatError, match="seed0_stats.guqw"):
            evaluate_runs(samples, tiny_region, runs_dir)
        assert (runs_dir / "seed0_heldout.guqw").read_bytes() == stored
