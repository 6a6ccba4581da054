import datetime
import os
import shutil
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from griduq import autodiff as ad
from griduq import cli
from griduq.autodiff import Tensor
from griduq.data import (GridSample, NoiseProfile, RegionSpec, dataset_fingerprint,
                         generate_synthetic, record_from, record_items, region_synthetic, split,
                         standardize, targets_digest, write_dataset, ChannelStats)
from griduq.errors import ContractError, FormatError, TrainingError
from griduq.losses import gaussian_nll
from griduq.model import UQ_CQR, UQ_MCD, UNetParams, build, forward, gaussian_moments
from griduq.train import (CONFIG_NAME, GRAD_CLIP_NORM, TRAIN_FRAC, RunRecord, TrainConfig,
                          clip_grad_norm, fit, load_run_params,
                          read_run_config, read_runs_log, resolve_workers, run_config,
                          train_all_seeds, train_one, write_run_config, _pooled_loss)


def tiny_config(uq="mcd", **kw):
    base = dict(uq_method=uq, epochs=12, lr=3e-3, dropout_rate=0.1, batch_size=8,
                seeds=(0,), base_width=4, depth=1, t_passes=4)
    base.update(kw)
    return TrainConfig(**base)


def prepared(tiny_samples, seed=0):
    """Raw train and validation days, and the train days' channel statistics."""
    samples, _ = tiny_samples
    train_set, val_set = split(samples, TRAIN_FRAC, seed=seed)
    return train_set, val_set, ChannelStats.from_samples(train_set)


class TestTrainConfig:
    def test_head_selection(self):
        assert tiny_config("mcd").model_config(28).uq_method == UQ_MCD
        assert tiny_config("cqr").model_config(28).uq_method == UQ_CQR

    def test_model_config_forwards_knobs(self):
        mc = tiny_config("mcd", base_width=8, depth=2, dropout_rate=0.25).model_config(51)
        assert (mc.in_channels, mc.base_width, mc.depth, mc.dropout_rate) == (51, 8, 2, 0.25)

    @pytest.mark.parametrize("kw", [
        dict(uq="ensemble"),
        dict(epochs=0),
        dict(batch_size=0),
        dict(seeds=()),
        dict(alpha=0.0),
        dict(alpha=1.0),
        dict(base_width=0),
        dict(depth=0),
        dict(dropout_rate=1.0),
        dict(seeds=(0, 0)),
        dict(seeds=(-1,)),
        dict(lr=float("nan")),
        dict(lr=float("inf")),
        dict(lr=0.0),
        dict(lr=-1e-3),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ContractError):
            tiny_config(**kw)

    def test_split_days(self, tiny_samples):
        samples, _ = tiny_samples
        assert tiny_config("cqr").split_days(samples, 3) == tuple(
            split(samples, TRAIN_FRAC, calib=True, seed=3))
        train_set, val_set = split(samples, TRAIN_FRAC, calib=False, seed=3)
        assert tiny_config("mcd").split_days(samples, 3) == (train_set, None, val_set)


class TestClipGradNorm:
    def test_scales_above_threshold(self):
        t = Tensor(np.zeros(2), requires_grad=True)
        t.grad = np.array([6.0, 8.0], dtype=np.float32)
        norm = clip_grad_norm({"t": t})
        assert GRAD_CLIP_NORM == 5.0 and norm == pytest.approx(10.0)
        assert np.allclose(t.grad, [3.0, 4.0], atol=1e-6)

    def test_leaves_small_gradients(self):
        t = Tensor(np.zeros(2), requires_grad=True)
        t.grad = np.array([0.3, 0.4], dtype=np.float32)
        clip_grad_norm({"t": t})
        assert np.array_equal(t.grad, np.array([0.3, 0.4], dtype=np.float32))

    def test_global_norm_spans_tensors(self):
        a = Tensor(np.zeros(1), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        a.grad = np.array([3.0], dtype=np.float32)
        b.grad = np.array([4.0], dtype=np.float32)
        assert clip_grad_norm({"a": a, "b": b}) == pytest.approx(5.0)

    def test_ignores_none_grads(self):
        t = Tensor(np.zeros(2), requires_grad=True)
        assert clip_grad_norm({"t": t}) == 0.0


class TestFit:
    def test_loss_drops_at_least_ten_percent(self, tiny_samples):
        train_set, val_set, stats = prepared(tiny_samples)
        config = tiny_config("mcd", epochs=15)
        params = build(config.model_config(28), seed=0)
        before = _pooled_loss(params, val_set, 8, stats)
        result = fit(params, train_set, val_set, stats, epochs=15, lr=3e-3, batch_size=8, seed=0)
        assert result.best_val_loss < 0.9 * before
        assert 1 <= result.best_epoch <= 15
        assert np.isfinite(result.final_train_loss)

    def test_same_seed_is_bitwise_deterministic(self, tiny_samples):
        train_set, val_set, stats = prepared(tiny_samples)
        config = tiny_config("mcd", epochs=4)

        def run():
            params = build(config.model_config(28), seed=0)
            result = fit(params, train_set, val_set, stats, epochs=4, lr=3e-3, batch_size=8, seed=0)
            return result

        a, b = run(), run()
        assert a.best_val_loss == b.best_val_loss
        assert a.best_epoch == b.best_epoch
        for k in a.best_state:
            assert np.array_equal(a.best_state[k], b.best_state[k]), k

    def test_best_is_no_worse_than_final(self, tiny_samples):
        train_set, val_set, stats = prepared(tiny_samples)
        config = tiny_config("mcd", epochs=10)
        params = build(config.model_config(28), seed=1)
        result = fit(params, train_set, val_set, stats, epochs=10, lr=3e-3, batch_size=8, seed=1)
        final_val = _pooled_loss(params, val_set, 8, stats)
        assert result.best_val_loss <= final_val + 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_reports_position(self, tiny_samples):
        train_set, val_set, stats = prepared(tiny_samples)
        poisoned = []
        for s in train_set[:4]:
            x = s.x.copy()
            x[3] = np.inf
            poisoned.append(GridSample(date=s.date, x=x, y=s.y, mask=s.mask))
        params = build(tiny_config("mcd").model_config(28), seed=0)
        with pytest.raises(TrainingError, match="epoch 1, batch 1"):
            fit(params, poisoned, val_set, stats, epochs=2, lr=1e-3, batch_size=8, seed=0)

    def test_warns_and_drops_stationless_days(self, tiny_samples):
        train_set, val_set, stats = prepared(tiny_samples)
        h, w = train_set[0].y.shape
        empty = GridSample(date=datetime.date(2031, 6, 1),
                           x=np.zeros_like(train_set[0].x),
                           y=np.full((h, w), np.nan, dtype=np.float32),
                           mask=np.zeros((h, w), dtype=bool))
        params = build(tiny_config("mcd").model_config(28), seed=0)
        with pytest.warns(RuntimeWarning, match="no station"):
            fit(params, train_set[:3] + [empty], val_set, stats, epochs=1, lr=1e-3,
                batch_size=8, seed=0)

    def test_set_stop_interrupts_before_the_first_step(self, tiny_samples, monkeypatch):
        train_set, val_set, stats = prepared(tiny_samples)
        params = build(tiny_config("mcd").model_config(28), seed=0)
        before = {k: t.data.copy() for k, t in params.tensors.items()}
        steps = []
        monkeypatch.setattr(ad, "adam_step", lambda *args, **kw: steps.append(1))
        stop = threading.Event()
        stop.set()
        with pytest.raises(KeyboardInterrupt):
            fit(params, train_set, val_set, stats, epochs=1,
                lr=1e-3, batch_size=8, seed=0, stop=stop)
        assert steps == []
        assert all(np.array_equal(t.data, before[k]) for k, t in params.tensors.items())

    def test_rejects_empty_inputs(self, tiny_samples):
        train_set, val_set, stats = prepared(tiny_samples)
        params = build(tiny_config("mcd").model_config(28), seed=0)
        with pytest.raises(ContractError):
            fit(params, train_set, [], stats, epochs=1, lr=1e-3, batch_size=8, seed=0)

    def test_stationless_validation_fails_before_training(self, tiny_samples):
        train_set, val_set, stats = prepared(tiny_samples)
        h, w = val_set[0].y.shape
        blind = [replace(s, y=np.full((h, w), np.nan, dtype=np.float32),
                         mask=np.zeros((h, w), dtype=bool)) for s in val_set]
        params = build(tiny_config("mcd").model_config(28), seed=0)
        before = {k: t.data.copy() for k, t in params.tensors.items()}
        with pytest.raises(ContractError, match="no station pixels"):
            fit(params, train_set, blind, stats, epochs=1, lr=1e-3, batch_size=8, seed=0)
        for k, t in params.tensors.items():
            assert np.array_equal(t.data, before[k]), k


    def test_stationless_validation_batch_is_skipped(self, tiny_samples):
        train_set, val_set, stats = prepared(tiny_samples)
        h, w = val_set[0].y.shape
        blind = [replace(val_set[i % len(val_set)], y=np.full((h, w), np.nan, dtype=np.float32),
                         mask=np.zeros((h, w), dtype=bool)) for i in range(8)]
        seen = val_set * 5  # after the blind chunk: a full chunk of 8 and a partial one
        params = build(tiny_config("mcd").model_config(28), seed=0)
        result = fit(params, train_set, blind + seen, stats, epochs=1,
                     lr=1e-3, batch_size=8, seed=0)
        best = UNetParams(params.config, {k: Tensor(v) for k, v in result.best_state.items()})
        total = count = 0.0
        for start in range(0, len(seen), 8):
            chunk = seen[start:start + 8]
            y = np.stack([s.y for s in chunk])[:, None]
            mask = np.stack([s.mask for s in chunk])[:, None]
            x = np.stack([s.x for s in standardize(chunk, stats)])
            mu, sigma2 = gaussian_moments(forward(best, Tensor(x)))
            total += gaussian_nll(mu, sigma2, y, mask).item() * int(mask.sum())
            count += int(mask.sum())
        assert result.best_epoch == 1
        assert result.best_val_loss == total / count


class TestTrainOne:
    def test_mcd_run_artifacts(self, tiny_samples, tmp_path):
        samples, _ = tiny_samples
        config = tiny_config("mcd", epochs=3)
        rec = train_one(config, samples, seed=0, out_dir=tmp_path)
        assert rec.qhat is None
        assert rec.best_epoch >= 1
        assert rec.wall_time_s > 0
        for name in (rec.checkpoint, rec.stats):
            assert (tmp_path / name).is_file()

    def test_cqr_run_has_finite_qhat(self, tiny_samples, tmp_path):
        samples, _ = tiny_samples
        config = tiny_config("cqr", epochs=3)
        rec = train_one(config, samples, seed=0, out_dir=tmp_path)
        assert rec.qhat is not None and np.isfinite(rec.qhat)

    def test_record_holds_digest_of_heldout_targets(self, tiny_samples, tmp_path):
        samples, _ = tiny_samples
        config = tiny_config("cqr", epochs=1)
        rec = train_one(config, samples, seed=2, out_dir=tmp_path)
        assert rec.heldout_targets == targets_digest(config.split_days(samples, 2)[-1])
        assert rec.heldout_targets != targets_digest(config.split_days(samples, 0)[-1])

    def test_repeat_training_is_byte_identical(self, tiny_samples, tmp_path):
        samples, _ = tiny_samples
        config = tiny_config("mcd", epochs=3)
        a = train_one(config, samples, seed=0, out_dir=tmp_path / "a")
        b = train_one(config, samples, seed=0, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / a.checkpoint).read_bytes() == \
            (tmp_path / "b" / b.checkpoint).read_bytes()
        assert a.best_val_loss == b.best_val_loss

    @pytest.mark.parametrize("uq", [UQ_MCD, UQ_CQR])
    def test_peak_memory_holds_no_copy_of_the_world(self, uq, tmp_path):
        # batches z-score each batch, so no split's days are copied: what a seed adds to
        # the raw world is its batches, tape and weights, well under half the world's inputs
        samples, _ = generate_synthetic(region_synthetic(16, 16), 240, 28,
                                        NoiseProfile("homoscedastic", 2.0), 0.3, seed=5)
        world = sum(s.x.nbytes for s in samples)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_one(tiny_config(uq, epochs=1), samples, seed=0, out_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * world, f"peak {peak / world:.2f}x the world's inputs"


class TestTrainAllSeeds:
    def test_two_seed_run(self, tiny_samples, tmp_path):
        samples, _ = tiny_samples
        config = tiny_config("mcd", epochs=2, seeds=(0, 1))
        records, failures = train_all_seeds(config, samples, tmp_path)
        assert failures == []
        assert [r.seed for r in records] == [0, 1]

        logged = read_runs_log(tmp_path)
        assert [r.seed for r in logged] == [0, 1]
        # wall time is logged at millisecond precision; everything else exact
        assert replace(logged[0], wall_time_s=0.0) == replace(records[0], wall_time_s=0.0)
        assert logged[0].wall_time_s == pytest.approx(records[0].wall_time_s, abs=1e-3)

        config2, in_channels = read_run_config(tmp_path)
        assert config2 == config
        assert in_channels == 28

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                                "ignore:overflow:RuntimeWarning")
    def test_failures_are_isolated(self, tmp_path, tiny_samples):
        # the first Adam step at lr 1e30 makes each seed's next loss non-finite
        samples, _ = tiny_samples
        config = tiny_config("mcd", epochs=1, seeds=(0, 1), lr=1e30)
        records, failures = train_all_seeds(config, samples, tmp_path)
        assert records == []
        assert len(failures) == 2
        assert all("TrainingError: non-finite" in msg for _, msg in failures)
        assert read_runs_log(tmp_path) == []

    @pytest.mark.parametrize("uq", [UQ_MCD, UQ_CQR])
    def test_threaded_seeds_write_what_deterministic_seeds_write(self, tiny_samples, tmp_path,
                                                                  monkeypatch, uq):
        samples, _ = tiny_samples
        config = tiny_config(uq, epochs=2, seeds=(0, 1))
        train_all_seeds(config, samples, tmp_path / "det", deterministic=True)
        threads = []

        def spied(*args):
            threads.append(threading.current_thread())
            return train_one(*args)

        monkeypatch.setattr("griduq.train.train_one", spied)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("GRIDUQ_THREADS", "2")
        records, failures = train_all_seeds(config, samples, tmp_path / "thr")
        assert failures == [] and len(threads) == 2
        assert threading.main_thread() not in threads
        det = {p.name: p.read_bytes() for p in (tmp_path / "det").iterdir() if p.name != "runs.log"}
        assert {p.name: p.read_bytes() for p in (tmp_path / "thr").iterdir()
                if p.name != "runs.log"} == det
        assert [replace(r, wall_time_s=0.0) for r in read_runs_log(tmp_path / "thr")] == \
            [replace(r, wall_time_s=0.0) for r in read_runs_log(tmp_path / "det")]

    def test_load_run_params_roundtrip(self, tiny_samples, tmp_path):
        samples, _ = tiny_samples
        config = tiny_config("cqr", epochs=2)
        records, failures = train_all_seeds(config, samples, tmp_path, deterministic=True)
        assert failures == []
        params, stats = load_run_params(tmp_path, records[0])
        assert params.config.uq_method == UQ_CQR
        assert params.config.in_channels == 28
        assert stats.mean.shape == (28,)
        assert np.all(stats.std > 0)

    @pytest.mark.parametrize("stop", [0, 1])
    def test_interrupted_retrain_logs_only_its_finished_seeds(self, tiny_samples, tmp_path,
                                                              monkeypatch, stop):
        samples, _ = tiny_samples
        stale = RunRecord(seed=0, best_val_loss=1.0, best_epoch=9, final_train_loss=1.0,
                          qhat=99.0, checkpoint="seed0_best.guqw", stats="seed0_stats.guqw",
                          wall_time_s=1.0, heldout_targets="d")
        (tmp_path / "runs.log").write_text(stale.to_line() + "\n"
                                           + replace(stale, seed=1).to_line() + "\n")
        real_train_one = train_one

        def interrupted(config, samples, seed, out_dir, stop_event):
            if seed == stop:
                raise KeyboardInterrupt
            return real_train_one(config, samples, seed, out_dir, stop_event)

        monkeypatch.setattr("griduq.train.train_one", interrupted)
        with pytest.raises(KeyboardInterrupt):
            train_all_seeds(tiny_config("cqr", epochs=1, seeds=(0, 1, 2)), samples, tmp_path,
                            deterministic=True)
        logged = read_runs_log(tmp_path)
        assert [r.seed for r in logged] == list(range(stop))
        assert all(r.qhat != stale.qhat and r.best_epoch == 1 for r in logged)

    def test_threaded_seeds_log_every_seed_in_seed_order(self, tiny_samples, tmp_path,
                                                         monkeypatch):
        samples, _ = tiny_samples
        seeds = (7, 3, 5, 0, 1, 2, 4, 6, 9, 8)

        def fake_train_one(config, samples, seed, out_dir, stop):
            finish.wait(timeout=10)  # every seed finishes at once
            return RunRecord(seed=seed, best_val_loss=float(seed), best_epoch=1,
                             final_train_loss=0.0, qhat=None, checkpoint="c", stats="s",
                             wall_time_s=0.0, heldout_targets="d")

        monkeypatch.setattr("griduq.train.train_one", fake_train_one)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(len(seeds))),
                            raising=False)
        monkeypatch.setenv("GRIDUQ_THREADS", str(len(seeds)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                finish = threading.Barrier(len(seeds))
                records, failures = train_all_seeds(tiny_config("mcd", seeds=seeds), samples,
                                                    tmp_path)
                assert failures == []
                assert [r.seed for r in read_runs_log(tmp_path)] == list(seeds)
        finally:
            sys.setswitchinterval(interval)

    def test_interrupt_starts_no_queued_seed(self, tiny_samples, tmp_path, monkeypatch):
        # Ctrl-C while seeds 0 and 1 run on two workers: both stop at once and are not logged,
        # and the queued seeds 2 and 3 never start
        samples, _ = tiny_samples
        entered, both_running, interrupted = [], threading.Event(), threading.Event()
        pressed_at = []

        def fake_train_one(config, samples, seed, out_dir, stop):
            entered.append(seed)
            if len(entered) == 2:
                both_running.set()
            if stop.wait(timeout=30):  # fit's check before each batch
                raise KeyboardInterrupt
            return RunRecord(seed=seed, best_val_loss=1.0, best_epoch=1, final_train_loss=0.0,
                             qhat=None, checkpoint="c", stats="s", wall_time_s=0.0,
                             heldout_targets="d")

        def on_sigint(signum, frame):
            if not interrupted.is_set():
                pressed_at.append(time.monotonic())
                interrupted.set()
                raise KeyboardInterrupt

        def press_ctrl_c():
            both_running.wait(timeout=10)
            # resent until handled: one that lands just before the main thread blocks on a
            # lock is only seen when that lock is released
            while not interrupted.wait(timeout=0.05):
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        monkeypatch.setattr("griduq.train.train_one", fake_train_one)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("GRIDUQ_THREADS", "2")
        previous = signal.signal(signal.SIGINT, on_sigint)
        try:
            threading.Thread(target=press_ctrl_c, daemon=True).start()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(KeyboardInterrupt):
                    train_all_seeds(tiny_config("mcd", seeds=(0, 1, 2, 3)), samples, tmp_path)
            assert time.monotonic() - pressed_at[0] < 5.0
        finally:
            signal.signal(signal.SIGINT, previous)
        assert sorted(entered) == [0, 1]
        assert read_runs_log(tmp_path) == []

    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_bad_threads_setting_leaves_finished_runs_unchanged(self, tiny_samples, tiny_region,
                                                                cqr_runs, tmp_path, monkeypatch,
                                                                capsys, threads):
        samples, _ = tiny_samples
        write_dataset(samples, tiny_region, tmp_path / "data")
        runs = shutil.copytree(cqr_runs, tmp_path / "runs")
        before = {n: (runs / n).read_bytes() for n in ("runs.log", CONFIG_NAME)}
        monkeypatch.setenv("GRIDUQ_THREADS", threads)
        rc = cli.main(["train", "--data", str(tmp_path / "data"), "--uq", "mcd",
                       "--seeds", "0,1", "--out", str(runs)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: GRIDUQ_THREADS must be")
        assert {n: (runs / n).read_bytes() for n in before} == before

    def test_one_worker_trains_in_the_calling_thread(self, tiny_samples, tmp_path, monkeypatch):
        samples, _ = tiny_samples
        threads = []

        def fake_train_one(config, samples, seed, out_dir, stop):
            threads.append(threading.current_thread())
            return RunRecord(seed=seed, best_val_loss=1.0, best_epoch=1, final_train_loss=0.0,
                             qhat=None, checkpoint="c", stats="s", wall_time_s=0.0,
                             heldout_targets="d")

        monkeypatch.setattr("griduq.train.train_one", fake_train_one)
        records, failures = train_all_seeds(tiny_config("mcd", seeds=(0, 1)), samples, tmp_path,
                                            deterministic=True)
        assert failures == [] and [r.seed for r in records] == [0, 1]
        assert threads == [threading.main_thread()] * 2


class TestRunRecord:
    def test_line_roundtrip(self):
        rec = RunRecord(seed=3, best_val_loss=1.25, best_epoch=7, final_train_loss=0.5,
                        qhat=2.5, checkpoint="seed3_best.guqw", stats="seed3_stats.guqw",
                        wall_time_s=12.345, heldout_targets="d")
        again = RunRecord.from_line(rec.to_line())
        assert again == rec

    def test_none_qhat_roundtrip(self):
        rec = RunRecord(seed=0, best_val_loss=1.0, best_epoch=1, final_train_loss=1.0,
                        qhat=None, checkpoint="a", stats="c",
                        wall_time_s=0.001, heldout_targets="d")
        assert RunRecord.from_line(rec.to_line()).qhat is None

    def test_missing_key_raises(self):
        with pytest.raises(FormatError):
            RunRecord.from_line("seed=0 best_epoch=1")

    @pytest.mark.parametrize("edit, why", [
        (lambda line: line + " junk", "item 10 is not key=value: 'junk'"),
        (lambda line: line + " =1", "item 10 is not key=value"),
        (lambda line: line + " seed=4", "item 10 repeats key 'seed'"),
        (lambda line: line.replace("best_epoch=7", "best_epoch=seven"),
         "malformed best_epoch='seven'"),
        (lambda line: line.replace("qhat=2.5", "qhat=wide"), "malformed qhat='wide'")])
    def test_malformed_line_raises(self, edit, why):
        # the nine items train writes
        line = RunRecord(seed=3, best_val_loss=1.25, best_epoch=7, final_train_loss=0.5,
                         qhat=2.5, checkpoint="a", stats="c",
                         wall_time_s=1.0, heldout_targets="d").to_line()
        with pytest.raises(FormatError, match=why):
            RunRecord.from_line(edit(line), "runs/runs.log line 2")
        with pytest.raises(FormatError, match="runs/runs.log line 2"):
            RunRecord.from_line(edit(line), "runs/runs.log line 2")

    def test_read_runs_log_names_file_and_line(self, tmp_path):
        rec = RunRecord(seed=0, best_val_loss=1.0, best_epoch=1, final_train_loss=1.0,
                        qhat=None, checkpoint="a", stats="c",
                        wall_time_s=0.5, heldout_targets="d")
        (tmp_path / "runs.log").write_text(f"{rec.to_line()}\n\n{rec.to_line()} x\n")
        with pytest.raises(FormatError, match=r"runs\.log line 3: item 10 is not key=value"):
            read_runs_log(tmp_path)

    def test_unknown_keys_are_ignored(self):
        rec = RunRecord(seed=0, best_val_loss=1.0, best_epoch=1, final_train_loss=1.0,
                        qhat=None, checkpoint="a", stats="c",
                        wall_time_s=0.5, heldout_targets="d")
        assert RunRecord.from_line("note=retrained " + rec.to_line()) == rec

    def test_heldout_targets_roundtrip(self):
        rec = RunRecord(seed=3, best_val_loss=1.25, best_epoch=7, final_train_loss=0.5,
                        qhat=None, checkpoint="a", stats="c", wall_time_s=1.0,
                        heldout_targets="0f" * 32)
        assert rec.to_line().endswith(" heldout_targets=" + "0f" * 32)
        assert RunRecord.from_line(rec.to_line()) == rec

    def test_line_without_heldout_targets_is_refused(self):
        # a line written before heldout_targets was recorded cannot be checked against a world
        line = ("seed=3 best_val_loss=1.25 best_epoch=7 final_train_loss=0.5 qhat=2.5 "
                "checkpoint=a stats=c wall_time_s=1.0")
        with pytest.raises(FormatError, match="runs.log line 1: missing key 'heldout_targets'"):
            RunRecord.from_line(line, "runs.log line 1")
        assert RunRecord.from_line(line + " heldout_targets=d").heldout_targets == "d"

    @pytest.mark.parametrize("record", [
        RegionSpec("t", 5, 4, lat0=45.0, lon0=-110.0),
        TrainConfig("cqr", seeds=(0, 1)),
        RunRecord(seed=3, best_val_loss=1.25, best_epoch=7, final_train_loss=0.5, qhat=None,
                  checkpoint="a", stats="c", wall_time_s=1.0, heldout_targets="d")],
        ids=["RegionSpec", "TrainConfig", "RunRecord"])
    def test_every_field_is_required(self, record):
        # every field is written, a field at its default or None too, and none may be missing
        items = dict(item.split("=") for item in record_items(record))
        assert list(items) == [f.name for f in fields(record)]
        assert record_from(type(record), items, "where") == record
        for key in items:
            with pytest.raises(FormatError, match=f"where: missing key '{key}'"):
                record_from(type(record), {k: v for k, v in items.items() if k != key}, "where")

    def test_wall_time_keeps_every_digit(self):
        rec = RunRecord(seed=0, best_val_loss=1.0, best_epoch=1, final_train_loss=1.0,
                        qhat=None, checkpoint="a", stats="c",
                        wall_time_s=2.6305623830012337, heldout_targets="d")
        assert "wall_time_s=2.6305623830012337" in rec.to_line()
        assert RunRecord.from_line(rec.to_line()).wall_time_s == rec.wall_time_s


# config.txt and runs.log as written before both records were read and written from their
# dataclass fields; wall_time_s then had three decimals, and a runs.log line held a
# final_checkpoint item but no heldout_targets
EARLIER_CONFIG = """uq_method=cqr
in_channels=28
base_width=8
depth=2
dropout_rate=0.1
epochs=2
lr=0.003
batch_size=8
alpha=0.1
t_passes=30
seeds=0,1
taus=0.05,0.5,0.95
dataset={dataset}
"""
EARLIER_RUNS_LOG_LINE = (
    "seed=0 best_val_loss=3.6874157928285145 best_epoch=2 final_train_loss=4.724577580810224 "
    "qhat=-0.12483549118041992 checkpoint=seed0_best.guqw final_checkpoint=seed0_final.guqw "
    "stats=seed0_stats.guqw wall_time_s=1.234")
EARLIER_VALUES = (TrainConfig(uq_method="cqr", base_width=8, depth=2, dropout_rate=0.1, epochs=2,
                              lr=0.003, batch_size=8, alpha=0.1, t_passes=30, seeds=(0, 1)),
                  RunRecord(seed=0, best_val_loss=3.6874157928285145, best_epoch=2,
                            final_train_loss=4.724577580810224, qhat=-0.12483549118041992,
                            checkpoint="seed0_best.guqw", stats="seed0_stats.guqw",
                            wall_time_s=1.234, heldout_targets="0f" * 32))


class TestRunConfigRecord:
    def test_earlier_records_load(self, tmp_path, tiny_samples):
        samples, _ = tiny_samples
        (tmp_path / CONFIG_NAME).write_text(
            EARLIER_CONFIG.format(dataset=dataset_fingerprint(samples)))
        config, record = EARLIER_VALUES
        assert run_config(tmp_path, samples)[:2] == (config, 28)
        # the earlier runs.log line is refused until it carries heldout_targets
        (tmp_path / "runs.log").write_text(EARLIER_RUNS_LOG_LINE + "\n")
        with pytest.raises(FormatError, match=r"runs\.log line 1: missing key 'heldout_targets'"):
            read_runs_log(tmp_path)
        (tmp_path / "runs.log").write_text(
            f"{EARLIER_RUNS_LOG_LINE} heldout_targets={record.heldout_targets}\n")
        assert read_runs_log(tmp_path) == [record]

    def test_written_bytes_match_earlier_files(self, tmp_path, tiny_samples):
        # held-out prediction keys hash config.txt, so its bytes must not drift
        samples, _ = tiny_samples
        write_run_config(tmp_path, EARLIER_VALUES[0], samples)
        assert (tmp_path / CONFIG_NAME).read_text() == EARLIER_CONFIG.format(
            dataset=dataset_fingerprint(samples))
        # the same key order, less the final_checkpoint item that runs.log no longer holds and
        # with heldout_targets last
        assert EARLIER_VALUES[1].to_line() == EARLIER_RUNS_LOG_LINE.replace(
            " final_checkpoint=seed0_final.guqw", "") + " heldout_targets=" + "0f" * 32

    def test_key_order_and_unknown_keys_do_not_matter(self, tmp_path):
        lines = EARLIER_CONFIG.format(dataset="x").splitlines()
        (tmp_path / CONFIG_NAME).write_text("\n".join(["note=kept", *reversed(lines)]) + "\n")
        assert read_run_config(tmp_path) == (EARLIER_VALUES[0], 28)

    @pytest.mark.parametrize("key", ["in_channels", "taus", "dataset"])
    def test_keys_beside_the_train_config_are_required(self, tmp_path, key):
        lines = [ln for ln in EARLIER_CONFIG.format(dataset="x").splitlines()
                 if not ln.startswith(f"{key}=")]
        (tmp_path / CONFIG_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"config.txt: missing key '{key}'"):
            read_run_config(tmp_path)

    @pytest.mark.parametrize("edit, why", [
        (lambda text: text + "garbage line without equals\n",
         "line 14 is not key=value: 'garbage line without equals'"),
        (lambda text: text + "seeds=0\n", "line 14 repeats key 'seeds'"),
        (lambda text: text.replace("uq_method=cqr", " uq_method = cqr ") + "uq_method=mcd\n",
         "line 14 repeats key 'uq_method'"),
        (lambda text: text.replace("epochs=2", "epochs=two"), "malformed epochs='two'"),
        (lambda text: text.replace("seeds=0,1", "seeds=0,,1"), "malformed seeds='0,,1'"),
        (lambda text: text.replace("in_channels=28", "in_channels=2.8"),
         "malformed in_channels='2.8'"),
        (lambda text: text.replace("lr=0.003\n", ""), "missing key 'lr'")])
    def test_malformed_config_raises(self, tmp_path, edit, why):
        (tmp_path / CONFIG_NAME).write_text(edit(EARLIER_CONFIG.format(dataset="x")))
        with pytest.raises(FormatError, match=why):
            read_run_config(tmp_path)


class TestHelpers:
    def test_resolve_workers(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.delenv("GRIDUQ_THREADS", raising=False)
        assert resolve_workers(1) == 1
        assert resolve_workers(4, deterministic=True) == 1
        monkeypatch.setenv("GRIDUQ_THREADS", "2")
        assert resolve_workers(5) == 2
        assert resolve_workers(1) == 1
        monkeypatch.setenv("GRIDUQ_THREADS", "abc")
        with pytest.raises(ContractError):
            resolve_workers(4)
        monkeypatch.setenv("GRIDUQ_THREADS", "0")
        with pytest.raises(ContractError):
            resolve_workers(4)

    def test_workers_never_outnumber_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.delenv("GRIDUQ_THREADS", raising=False)
        assert resolve_workers(5) == 1
        monkeypatch.setenv("GRIDUQ_THREADS", "2")
        assert resolve_workers(5) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert resolve_workers(5) == 2
        monkeypatch.delenv("GRIDUQ_THREADS")
        assert resolve_workers(5) == 3
        assert resolve_workers(2) == 2

    @pytest.mark.parametrize("taus, why", [("0.05,0.5,x", "malformed"),
                                           ("0.1,0.5,0.9", "differ")])
    def test_read_run_config_checks_taus(self, tiny_samples, tmp_path, taus, why):
        samples, _ = tiny_samples
        write_run_config(tmp_path, tiny_config("cqr"), samples)
        config = tmp_path / CONFIG_NAME
        assert "taus=0.05,0.5,0.95\n" in config.read_text()
        config.write_text(config.read_text().replace("taus=0.05,0.5,0.95", f"taus={taus}"))
        with pytest.raises(FormatError, match=why):
            read_run_config(tmp_path)

    def test_config_records_dataset(self, tiny_samples, tmp_path):
        samples, _ = tiny_samples
        write_run_config(tmp_path, tiny_config("mcd"), samples)
        assert f"dataset={dataset_fingerprint(samples)}\n" in (tmp_path / CONFIG_NAME).read_text()
        text = (tmp_path / CONFIG_NAME).read_bytes()
        assert run_config(tmp_path, samples) == (tiny_config("mcd"), 28, text)
        shifted = [replace(s, date=s.date + datetime.timedelta(days=1000)) for s in samples]
        with pytest.raises(ContractError, match="another dataset"):
            run_config(tmp_path, shifted)
        (tmp_path / CONFIG_NAME).write_bytes(text.replace(b"in_channels=28", b"in_channels=29"))
        with pytest.raises(ContractError, match="another dataset"):
            run_config(tmp_path, samples)
        assert dataset_fingerprint(list(reversed(samples))) == dataset_fingerprint(samples)
        assert dataset_fingerprint(samples[:-1]) != dataset_fingerprint(samples)

    def test_read_run_config_missing(self, tmp_path):
        with pytest.raises(FormatError):
            read_run_config(tmp_path)

    def test_read_runs_log_missing(self, tmp_path):
        with pytest.raises(FormatError):
            read_runs_log(tmp_path)
