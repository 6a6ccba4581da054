"""End-to-end runs of the console entry point on a tiny synthetic world."""

import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from griduq import autodiff, cli, data, export, metrics, train
from griduq.autodiff import Tensor, load_checkpoint, save_checkpoint
from griduq.errors import FormatError
from griduq.export import read_grid_csv

SCORING_STAGES = ("eval", "rank", "series", "extrapolate")


def _scoring_argv(stage, data_dir, runs_dir, out):
    """argv of one scoring stage, writing under ``out`` (which need not exist)."""
    samples, spec = data.open_dataset(data_dir)
    rows, cols = np.nonzero(samples[0].mask)
    lat, lon = spec.cell_center(int(rows[0]), int(cols[0]))
    extra = {"eval": ["--out", out / "report.txt"],
             "rank": ["--top", "5", "--out", out / "ranks.csv"],
             "series": ["--lat", lat, "--lon", lon, "--out", out / "series.csv"],
             "extrapolate": ["--days", "1,2", "--out", out / "maps"]}[stage]
    return [str(a) for a in (stage, "--data", data_dir, "--runs", runs_dir, *extra)]


def _gen_argv(out, seed=5):
    """argv of the pipeline's world: another seed gives the same dates and grid shape, but
    other targets and station masks."""
    return ["gen", "--region", "synth", "--height", "16", "--width", "16",
            "--days", "24", "--channels", "28", "--noise", "homo:2.0",
            "--density", "0.3", "--seed", str(seed), "--out", str(out)]


def _files(out):
    """Every file under ``out`` by relative path, with its bytes."""
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Generate a dataset and train one quantile-head seed through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    data_dir, runs_dir = root / "data", root / "runs"
    assert cli.main(_gen_argv(data_dir)) == 0
    rc = cli.main(["train", "--data", str(data_dir), "--uq", "cqr",
                   "--epochs", "2", "--lr", "3e-3", "--dropout", "0.1",
                   "--batch", "8", "--seeds", "0", "--alpha", "0.1",
                   "--base-width", "4", "--depth", "1", "--t-passes", "4",
                   "--deterministic", "--out", str(runs_dir)])
    assert rc == 0
    return data_dir, runs_dir


class TestGen:
    def test_dataset_loads_back(self, pipeline):
        data_dir, _ = pipeline
        samples, spec = data.read_dataset(data_dir)
        assert len(samples) == 24
        assert (spec.h, spec.w) == (16, 16)
        assert samples[0].x.shape == (28, 16, 16)

    def test_prints_summary(self, tmp_path, capsys):
        rc = cli.main(["gen", "--region", "synth", "--height", "8", "--width", "8",
                       "--days", "5", "--density", "0.4", "--out", str(tmp_path / "d")])
        assert rc == 0
        assert "wrote 5 days of 8x8x28" in capsys.readouterr().out

    def test_dims_rejected_for_builtin_region(self, tmp_path, capsys):
        rc = cli.main(["gen", "--region", "na", "--days", "5", "--height", "8",
                       "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", [("--region", "synth", "--height", "0"),
                                      ("--region", "synth", "--width", "0"),
                                      ("--region", "na", "--height", "0"),
                                      ("--region", "eu", "--width", "0")])
    def test_zero_dims_rejected(self, tmp_path, capsys, dims):
        rc = cli.main(["gen", *dims, "--days", "5", "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_fewer_days_into_same_directory_refused(self, tmp_path, capsys):
        out = tmp_path / "w"
        gen = ["gen", "--region", "synth", "--height", "6", "--width", "7", "--out", str(out)]
        assert cli.main([*gen, "--days", "20"]) == 0
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        capsys.readouterr()
        assert cli.main([*gen, "--days", "12"]) == 1
        assert "error:" in capsys.readouterr().err
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before
        assert cli.main([*gen, "--days", "20"]) == 0  # the same days overwrite their files
        assert cli.main([*gen, "--days", "25"]) == 0
        assert len(data.read_dataset(out)[0]) == 25

    def test_bad_noise_spec(self, tmp_path, capsys):
        rc = cli.main(["gen", "--region", "synth", "--days", "5", "--noise", "nope",
                       "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["homo:nan", "hetero:inf"])
    def test_non_finite_noise_sigma(self, tmp_path, capsys, noise):
        rc = cli.main(["gen", "--region", "synth", "--days", "5", "--noise", noise,
                       "--out", str(tmp_path / "d")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: noise sigma must be finite and >= 0")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("noise", ["homo:abc", "hetero:abc"])
    def test_bad_noise_sigma(self, tmp_path, capsys, noise):
        rc = cli.main(["gen", "--region", "synth", "--days", "5", "--noise", noise,
                       "--out", str(tmp_path / "d")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: noise sigma 'abc' in '{noise}'")
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_artifacts_exist(self, pipeline):
        _, runs_dir = pipeline
        for name in ("config.txt", "runs.log", "seed0_best.guqw", "seed0_stats.guqw"):
            assert (runs_dir / name).exists()
        assert not (runs_dir / "seed0_final.guqw").exists()  # no stage reads last-epoch weights

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                                "ignore:overflow:RuntimeWarning")
    def test_seed_failures_exit_nonzero(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        rc = cli.main(["gen", "--region", "synth", "--height", "8", "--width", "8",
                       "--days", "12", "--density", "0.4", "--out", str(data_dir)])
        assert rc == 0
        rc = cli.main(["train", "--data", str(data_dir), "--uq", "mcd", "--lr", "1e30",
                       "--epochs", "1", "--seeds", "0", "--base-width", "4",
                       "--depth", "1", "--out", str(tmp_path / "r")])
        assert rc == 1  # the first Adam step at lr 1e30 makes the next loss non-finite
        assert "seed 0 FAILED: TrainingError: non-finite" in capsys.readouterr().err

    def test_mcd_with_one_pass_refused_before_training(self, pipeline, tmp_path, capsys):
        data_dir, _ = pipeline
        rc = cli.main(["train", "--data", str(data_dir), "--uq", "mcd", "--epochs", "1",
                       "--seeds", "0", "--base-width", "4", "--depth", "1", "--t-passes", "1",
                       "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "t_passes >= 2" in capsys.readouterr().err
        assert not (tmp_path / "r" / "config.txt").exists()

    @pytest.mark.parametrize("bad", [("--base-width", "0"), ("--seeds", "0,0"),
                                     ("--seeds", "-1"), ("--lr", "nan"),
                                     ("--data", "a 9-day world, too short to split")])
    def test_bad_setting_leaves_finished_runs_unchanged(self, pipeline, tmp_path, capsys, bad):
        data_dir, runs_dir = pipeline
        if bad[0] == "--data":  # the last --data wins
            bad = ("--data", str(tmp_path / "short"))
            assert cli.main(["gen", "--region", "synth", "--height", "8", "--width", "8",
                             "--days", "9", "--density", "0.4", "--out", bad[1]]) == 0
        runs = shutil.copytree(runs_dir, tmp_path / "runs")
        before = {n: (runs / n).read_bytes() for n in ("runs.log", "config.txt")}
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(data_dir), "--uq", "cqr", "--epochs", "1",
                       "--base-width", "4", "--depth", "1", *bad, "--out", str(runs)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: "), err
        assert {n: (runs / n).read_bytes() for n in before} == before

    def test_defaults_are_train_configs(self, tmp_path, monkeypatch):
        built = []

        def record(config, samples, out, deterministic):
            built.append((config, deterministic))
            return [], []

        monkeypatch.setattr(data, "read_dataset", lambda path: ([], None))
        monkeypatch.setattr(train, "train_all_seeds", record)
        for uq in (train.UQ_MCD, train.UQ_CQR):
            assert cli.main(["train", "--data", "d", "--uq", uq, "--out", str(tmp_path)]) == 0
        assert built == [(train.TrainConfig(uq), False) for uq in (train.UQ_MCD, train.UQ_CQR)]

    def test_every_flag_reaches_the_config(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(data, "read_dataset", lambda path: ([], None))
        monkeypatch.setattr(train, "train_all_seeds",
                            lambda config, *args, **kw: built.append(config) or ([], []))
        assert cli.main(["train", "--data", "d", "--uq", "cqr", "--epochs", "3", "--lr", "0.5",
                         "--dropout", "0.25", "--batch", "2", "--seeds", "7,8", "--alpha", "0.2",
                         "--base-width", "5", "--depth", "2", "--t-passes", "6",
                         "--out", str(tmp_path)]) == 0
        assert built == [train.TrainConfig(uq_method="cqr", epochs=3, lr=0.5, dropout_rate=0.25,
                                           batch_size=2, seeds=(7, 8), alpha=0.2, base_width=5,
                                           depth=2, t_passes=6)]

    def test_bad_seed_list_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["train", "--data", "x", "--uq", "cqr", "--seeds", "1,a",
                      "--out", str(tmp_path / "r")])


class TestEval:
    def test_writes_report(self, pipeline, tmp_path):
        data_dir, runs_dir = pipeline
        out = tmp_path / "report.txt"
        rc = cli.main(["eval", "--data", str(data_dir), "--runs", str(runs_dir),
                       "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "uq_method=cqr" in text
        assert "coverage=" in text
        assert "interval_max=" in text

    def test_missing_dataset(self, pipeline, tmp_path, capsys):
        _, runs_dir = pipeline
        rc = cli.main(["eval", "--data", str(tmp_path / "nowhere"),
                       "--runs", str(runs_dir), "--out", str(tmp_path / "r.txt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestRank:
    def test_top_k(self, pipeline, tmp_path):
        data_dir, runs_dir = pipeline
        out = tmp_path / "ranks.csv"
        rc = cli.main(["rank", "--data", str(data_dir), "--runs", str(runs_dir),
                       "--top", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,row,col,lat,lon,uq_score,rmse"
        assert 2 <= len(lines) <= 4
        assert lines[1].startswith("1,")

    def test_rejects_nonpositive_top(self, pipeline, tmp_path, capsys):
        data_dir, runs_dir = pipeline
        rc = cli.main(["rank", "--data", str(data_dir), "--runs", str(runs_dir),
                       "--top", "0", "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "--top" in capsys.readouterr().err


class TestSeries:
    def test_station_cell(self, pipeline, tmp_path):
        data_dir, runs_dir = pipeline
        samples, spec = data.read_dataset(data_dir)
        rows, cols = np.nonzero(samples[0].mask)
        lat, lon = spec.cell_center(int(rows[0]), int(cols[0]))
        out = tmp_path / "series.csv"
        rc = cli.main(["series", "--data", str(data_dir), "--runs", str(runs_dir),
                       "--lat", str(lat), "--lon", str(lon), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "date,y,mid,lo,hi"
        assert len(lines) == 3  # header + the two held-out days
        assert lines[1].split(",")[0] < lines[2].split(",")[0]

    def test_coordinate_outside_region(self, pipeline, tmp_path, capsys):
        data_dir, runs_dir = pipeline
        rc = cli.main(["series", "--data", str(data_dir), "--runs", str(runs_dir),
                       "--lat", "-89.0", "--lon", "0.0", "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestExtrapolate:
    def test_writes_maps(self, pipeline, tmp_path):
        data_dir, runs_dir = pipeline
        out = tmp_path / "maps"
        rc = cli.main(["extrapolate", "--data", str(data_dir), "--runs", str(runs_dir),
                       "--days", "1,2", "--out", str(out)])
        assert rc == 0
        for day in (1, 2):
            assert (out / f"uq_day{day:02d}.ppm").exists()
            grid = read_grid_csv(out / f"uq_day{day:02d}.csv")
            assert grid.shape == (16, 16)
            assert np.all(np.isfinite(grid))

    def test_day_out_of_range(self, pipeline, tmp_path, capsys):
        data_dir, runs_dir = pipeline
        rc = cli.main(["extrapolate", "--data", str(data_dir), "--runs", str(runs_dir),
                       "--days", "99", "--out", str(tmp_path / "maps")])
        assert rc == 1
        assert "out of range" in capsys.readouterr().err


class TestMalformedRunsDirectory:
    """A damaged record or checkpoint ends a scoring stage with an ``error:`` line and exit 1;
    a damaged stored prediction is recomputed."""

    @pytest.fixture()
    def runs_copy(self, pipeline, tmp_path):
        data_dir, runs_dir = pipeline
        assert cli.main(["eval", "--data", str(data_dir), "--runs", str(runs_dir),
                         "--out", str(tmp_path / "first.txt")]) == 0  # stores seed0_heldout
        shutil.copytree(runs_dir, tmp_path / "runs")
        return data_dir, tmp_path / "runs"

    @staticmethod
    def eval_rc(data_dir, runs_dir, out):
        return cli.main(["eval", "--data", str(data_dir), "--runs", str(runs_dir),
                         "--out", str(out)])

    @pytest.mark.parametrize("name, edit", [
        ("runs.log", lambda text: text.rstrip("\n") + " junk\n"),
        ("runs.log", lambda text: text.replace("best_epoch=", "best_epoch=x")),
        ("config.txt", lambda text: text + "garbage\n"),
        ("config.txt", lambda text: text + "seeds=0\n"),
        ("config.txt", lambda text: text.replace("alpha=0.1", "alpha=0.1.0"))])
    def test_malformed_record_is_an_error_line(self, runs_copy, tmp_path, capsys, name, edit):
        data_dir, runs_dir = runs_copy
        (runs_dir / name).write_text(edit((runs_dir / name).read_text()))
        capsys.readouterr()
        assert self.eval_rc(data_dir, runs_dir, tmp_path / "report.txt") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err, err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("name", ["manifest.txt", "config.txt", "runs.log"])
    def test_non_utf8_record_is_an_error_line(self, runs_copy, tmp_path, capsys, name):
        data_dir, runs_dir = runs_copy
        data_dir = shutil.copytree(data_dir, tmp_path / "data")
        fp = (data_dir if name == "manifest.txt" else runs_dir) / name
        fp.write_bytes(fp.read_bytes() + b"\xff\xfe")
        capsys.readouterr()
        assert self.eval_rc(data_dir, runs_dir, tmp_path / "report.txt") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "not UTF-8" in err, err

    def test_non_finite_cell_size_is_an_error_line(self, runs_copy, tmp_path, capsys):
        # a NaN cell_size would otherwise print NaN station coordinates with exit 0
        data_dir, runs_dir = runs_copy
        data_dir = shutil.copytree(data_dir, tmp_path / "data")
        argv = _scoring_argv("rank", data_dir, runs_dir, tmp_path / "out")
        mf = data_dir / "manifest.txt"
        mf.write_text(re.sub(r"cell_size=\S+", "cell_size=nan", mf.read_text()))
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cell_size=nan must be finite" in err, err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, key, value", [("manifest.txt", "cell_size", "nan"),
                                                  ("manifest.txt", "h", "0"),
                                                  ("config.txt", "epochs", "0")])
    def test_refused_record_value_names_its_file(self, runs_copy, tmp_path, capsys, name, key, value):
        # the value parses, and the record's own checks refuse it: the error line names the file
        data_dir, runs_dir = runs_copy
        data_dir = shutil.copytree(data_dir, tmp_path / "data")
        fp = (data_dir if name == "manifest.txt" else runs_dir) / name
        fp.write_text(re.sub(rf"^{key}=\S+$", f"{key}={value}", fp.read_text(), flags=re.M))
        capsys.readouterr()
        assert self.eval_rc(data_dir, runs_dir, tmp_path / "report.txt") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fp}: "), err
        assert "Traceback" not in err and not (tmp_path / "report.txt").exists()

    def test_unreadable_day_file_is_an_error_line(self, runs_copy, tmp_path, capsys):
        data_dir, runs_dir = runs_copy
        data_dir = shutil.copytree(data_dir, tmp_path / "data")
        config, _ = train.read_run_config(runs_dir)
        held = config.split_days(data.open_dataset(data_dir)[0], 0)[-1][0]  # a day eval reads
        day = data_dir / f"{held.date.isoformat()}.guq"
        day.unlink()
        day.mkdir()
        capsys.readouterr()
        assert self.eval_rc(data_dir, runs_dir, tmp_path / "report.txt") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{day.name}: cannot read" in err, err

    def test_damaged_heldout_file_is_recomputed(self, runs_copy, tmp_path):
        data_dir, runs_dir = runs_copy
        held = runs_dir / "seed0_heldout.guqw"
        stored = held.read_bytes()
        held.write_bytes(stored[:12] + b"\xff" + stored[13:])  # first byte of the key's name
        with pytest.raises(FormatError):
            load_checkpoint(held)
        assert self.eval_rc(data_dir, runs_dir, tmp_path / "report.txt") == 0
        assert (tmp_path / "report.txt").read_bytes() == (tmp_path / "first.txt").read_bytes()
        assert held.read_bytes() == stored

    def test_damaged_heldout_grid_is_recomputed(self, runs_copy, tmp_path):
        # the file still loads, but its key no longer matches the grids it stores
        data_dir, runs_dir = runs_copy
        held = runs_dir / "seed0_heldout.guqw"
        stored = held.read_bytes()
        lo = load_checkpoint(held)["lo"].data
        config, _ = train.read_run_config(runs_dir)
        days = config.split_days(data.open_dataset(data_dir)[0], 0)[-1]
        row, col = np.argwhere(min(days, key=lambda s: s.date).mask)[0]  # scored on day 1
        at = stored.index(lo.tobytes()) + 4 * (row * lo.shape[2] + col) + 3  # exponent byte
        held.write_bytes(stored[:at] + bytes([stored[at] ^ 0x20]) + stored[at + 1:])
        assert self.eval_rc(data_dir, runs_dir, tmp_path / "report.txt") == 0
        assert (tmp_path / "report.txt").read_bytes() == (tmp_path / "first.txt").read_bytes()
        assert held.read_bytes() == stored

    def test_wrong_shape_checkpoint_tensor_is_an_error_line(self, runs_copy, tmp_path, capsys):
        data_dir, runs_dir = runs_copy
        best = runs_dir / "seed0_best.guqw"
        tensors = load_checkpoint(best)
        tensors["head_b"] = Tensor(np.zeros(2, dtype=np.float32))  # the quantile head has 3
        save_checkpoint(best, tensors)
        capsys.readouterr()
        assert self.eval_rc(data_dir, runs_dir, tmp_path / "report.txt") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "head_b (2,) (config: (3,))" in err, err
        assert "Traceback" not in err and not (tmp_path / "report.txt").exists()

    def test_damaged_checkpoint_is_an_error_line(self, runs_copy, tmp_path, capsys):
        data_dir, runs_dir = runs_copy
        best = runs_dir / "seed0_best.guqw"
        raw = best.read_bytes()
        best.write_bytes(raw[:12] + b"\xff" + raw[13:])
        capsys.readouterr()
        assert self.eval_rc(data_dir, runs_dir, tmp_path / "report.txt") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed0_best.guqw" in err, err

    @pytest.mark.parametrize("stage, deleted", [
        ("eval", ("seed0_best.guqw",)),
        ("rank", ("seed0_stats.guqw", "seed0_heldout.guqw"))])
    def test_missing_run_file_is_an_error_line(self, runs_copy, tmp_path, capsys, stage,
                                               deleted):
        data_dir, runs_dir = runs_copy
        for name in deleted:
            (runs_dir / name).unlink()
        capsys.readouterr()
        assert cli.main(_scoring_argv(stage, data_dir, runs_dir, tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and deleted[0] in err and "Traceback" not in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("qhat", ["nan", "inf"])
    @pytest.mark.parametrize("stage", ["eval", "rank", "series"])
    def test_non_finite_qhat_is_an_error_line(self, runs_copy, tmp_path, capsys, stage, qhat):
        # the stored raw bands stay valid, so only the qhat check stops a NaN report
        data_dir, runs_dir = runs_copy
        log = runs_dir / "runs.log"
        log.write_text(re.sub(r"qhat=\S+", f"qhat={qhat}", log.read_text()))
        capsys.readouterr()
        assert cli.main(_scoring_argv(stage, data_dir, runs_dir, tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"needs a finite qhat, got {qhat}" in err, err
        assert "Traceback" not in err and not (tmp_path / "out").exists()


    @pytest.mark.parametrize("damage, why", [
        (lambda text: re.sub(r"^seed=0 ", "seed=-1 ", text), "line 1: seed=-1 is negative"),
        (lambda text: text + text, "line 2: seed=0 is repeated")], ids=["negseed", "dupseed"])
    @pytest.mark.parametrize("stage", SCORING_STAGES)
    def test_bad_seed_is_an_error_line(self, runs_copy, tmp_path, capsys, stage, damage, why):
        # a negative seed cannot seed a generator, and a repeated one would be scored twice
        data_dir, runs_dir = runs_copy
        log = runs_dir / "runs.log"
        log.write_text(damage(log.read_text()))
        capsys.readouterr()
        assert cli.main(_scoring_argv(stage, data_dir, runs_dir, tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"runs.log {why}" in err, err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", SCORING_STAGES)
    def test_wrong_world_is_an_error_line(self, runs_copy, tmp_path, capsys, stage):
        # the dataset= fingerprint matches, so only the held-out targets tell the worlds apart
        data_dir, runs_dir = runs_copy
        other = tmp_path / "other"
        assert cli.main(_gen_argv(other, seed=6)) == 0
        held = runs_dir / "seed0_heldout.guqw"
        before = held.read_bytes(), held.stat().st_mtime_ns
        capsys.readouterr()
        assert cli.main(_scoring_argv(stage, other, runs_dir, tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed 0 was trained on another dataset (its held-out "
                              "targets or station masks differ)"), err
        assert "Traceback" not in err and not (tmp_path / "out").exists()
        assert (held.read_bytes(), held.stat().st_mtime_ns) == before

    @pytest.mark.parametrize("stage", SCORING_STAGES)
    def test_missing_record_key_is_an_error_line(self, runs_copy, tmp_path, capsys, stage):
        # every config.txt and runs.log key is required, heldout_targets and dataset too: a
        # runs directory without one cannot be checked against the world, and is refused
        # before its stored predictions are read or rewritten
        data_dir, runs_dir = runs_copy
        config, log = runs_dir / "config.txt", runs_dir / "runs.log"
        items = {config: [ln.partition("=")[0] for ln in config.read_text().splitlines()],
                 log: [it.partition("=")[0] for it in log.read_text().split()]}
        assert {"in_channels", "taus", "dataset"} < set(items[config])
        assert items[log][-1] == "heldout_targets"
        held = runs_dir / "seed0_heldout.guqw"
        before = held.read_bytes(), held.stat().st_mtime_ns
        for fp, keys in items.items():
            text = fp.read_text()
            where = f"{fp} line 1" if fp == log else str(fp)
            for key in keys:
                fp.write_text(re.sub(rf"(^| ){key}=\S*\n?", r"\1", text, flags=re.M))
                capsys.readouterr()
                assert cli.main(_scoring_argv(stage, data_dir, runs_dir, tmp_path / "out")) == 1
                err = capsys.readouterr().err
                assert err == f"error: {where}: missing key '{key}'\n", err
                assert not (tmp_path / "out").exists()
                assert (held.read_bytes(), held.stat().st_mtime_ns) == before
            fp.write_text(text)


@pytest.mark.parametrize("stage", SCORING_STAGES)
def test_out_into_missing_directory(pipeline, tmp_path, stage):
    data_dir, runs_dir = pipeline
    out = tmp_path / "new" / "dir"
    assert cli.main(_scoring_argv(stage, data_dir, runs_dir, out)) == 0
    assert any(out.iterdir())


@pytest.mark.parametrize("stage", ("gen", "train") + SCORING_STAGES)
def test_out_under_a_regular_file_is_an_error_line(pipeline, tmp_path, capsys, stage):
    data_dir, runs_dir = pipeline
    afile = tmp_path / "afile"
    afile.write_text("")
    argv = {"gen": _gen_argv(afile / "data"),
            "train": ["train", "--data", str(data_dir), "--uq", "cqr", "--epochs", "1",
                      "--base-width", "4", "--depth", "1", "--seeds", "0",
                      "--out", str(afile / "runs")]}.get(stage)
    capsys.readouterr()
    assert cli.main(argv or _scoring_argv(stage, data_dir, runs_dir, afile)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err


class TestScoringReadsHeldOutDays:
    """A scoring stage reads only the held-out days of the seeds it scores: every seed for eval
    and rank, the first for series and extrapolate. The grid shape comes from the manifest."""

    @pytest.fixture()
    def world(self, tiny_samples, tiny_region, tmp_path):
        data.write_dataset(tiny_samples[0], tiny_region, tmp_path / "data")
        return tmp_path / "data"

    @staticmethod
    def needed(samples, runs_dir, stage="eval"):
        config, _ = train.read_run_config(runs_dir)
        seeds = config.seeds[:1] if stage in ("series", "extrapolate") else config.seeds
        held = {s.date for seed in seeds
                for s in data.split(samples, train.TRAIN_FRAC, calib=config.uq_method == "cqr",
                                    seed=seed)[-1]}
        return {f"{d.isoformat()}.guq" for d in held}

    def score_all(self, world, runs_dir, out):
        for stage in SCORING_STAGES:
            assert cli.main(_scoring_argv(stage, world, runs_dir, out)) == 0, stage
        return _files(out)

    @pytest.mark.parametrize("runs", ["cqr_runs", "mcd_runs"])
    def test_each_stage_reads_only_the_days_it_needs(self, runs, request, tiny_samples, world,
                                                     tmp_path, monkeypatch):
        runs_dir = request.getfixturevalue(runs)
        read = []
        real = data._read_day_file

        def counted(fp, *args):
            read.append(fp.name)
            return real(fp, *args)

        monkeypatch.setattr(data, "_read_day_file", counted)
        assert len(self.needed(tiny_samples[0], runs_dir)) == 4  # of 24 days
        for stage in SCORING_STAGES:
            argv = _scoring_argv(stage, world, runs_dir, tmp_path / "out")
            read.clear()
            assert cli.main(argv) == 0
            # each needed day once
            assert sorted(read) == sorted(self.needed(tiny_samples[0], runs_dir, stage)), stage

    @pytest.mark.parametrize("runs", ["cqr_runs", "mcd_runs"])
    def test_corrupt_unneeded_day_leaves_outputs_unchanged(self, runs, request, tiny_samples,
                                                           world, tmp_path):
        runs_dir = request.getfixturevalue(runs)
        before = self.score_all(world, runs_dir, tmp_path / "a")
        spare = sorted(set(p.name for p in world.glob("*.guq"))
                       - self.needed(tiny_samples[0], runs_dir))[-1]
        (world / spare).write_bytes((world / spare).read_bytes()[:-4])
        with pytest.raises(FormatError):
            data.read_dataset(world)
        assert self.score_all(world, runs_dir, tmp_path / "b") == before

    @pytest.mark.parametrize("runs", ["cqr_runs", "mcd_runs"])
    def test_corrupt_first_day_leaves_outputs_unchanged(self, runs, request, tiny_samples, world,
                                                        tmp_path):
        runs_dir = request.getfixturevalue(runs)
        first = f"{tiny_samples[0][0].date.isoformat()}.guq"
        assert first not in self.needed(tiny_samples[0], runs_dir)
        before = self.score_all(world, runs_dir, tmp_path / "a")
        # built first: _scoring_argv reads the first day to pick the series station
        argvs = [_scoring_argv(stage, world, runs_dir, tmp_path / "b") for stage in SCORING_STAGES]
        (world / first).write_bytes((world / first).read_bytes()[:-4])
        assert [cli.main(argv) for argv in argvs] == [0] * len(SCORING_STAGES)
        assert _files(tmp_path / "b") == before

    @pytest.mark.parametrize("runs", ["cqr_runs", "mcd_runs"])
    def test_corrupt_heldout_day_fails_every_stage(self, runs, request, tiny_samples, world,
                                                   tmp_path, capsys):
        runs_dir = request.getfixturevalue(runs)
        first = f"{tiny_samples[0][0].date.isoformat()}.guq"
        held = sorted(self.needed(tiny_samples[0], runs_dir) - {first})[0]
        (world / held).write_bytes((world / held).read_bytes()[:-4])
        capsys.readouterr()
        for stage in SCORING_STAGES:
            assert cli.main(_scoring_argv(stage, world, runs_dir, tmp_path / "out")) == 1, stage
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"{held}: expected" in err, err

    @pytest.mark.parametrize("runs", ["cqr_runs", "mcd_runs"])
    def test_stored_predictions_of_eager_scoring_are_reused(self, runs, request, tiny_samples,
                                                            tiny_region, world, tmp_path,
                                                            monkeypatch):
        runs_dir = tmp_path / "runs"
        shutil.copytree(request.getfixturevalue(runs), runs_dir)
        for old in runs_dir.glob("seed*_heldout.guqw"):
            old.unlink()
        # what every scoring stage did before datasets were opened lazily
        metrics.evaluate_runs(*data.read_dataset(world), runs_dir)
        stored = {p: (p.read_bytes(), p.stat().st_mtime_ns)
                  for p in runs_dir.glob("seed*_heldout.guqw")}
        assert len(stored) == 2

        def no_forward(*args, **kwargs):
            raise AssertionError("held-out predictions were recomputed")

        monkeypatch.setattr(metrics, "mc_dropout_predict", no_forward)
        monkeypatch.setattr(metrics, "cqr_predict", no_forward)
        self.score_all(world, runs_dir, tmp_path / "out")
        assert {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in stored} == stored
        # the fingerprint of these 24 days of (28, 16, 16) grids, as computed before the change
        pinned = "752b9e692ba7ef12e8890fbd3488eab3a030c91135a8f60f2e19d034f88769a5"
        assert f"dataset={pinned}\n" in (runs_dir / "config.txt").read_text()
        assert data.dataset_fingerprint(data.open_dataset(world)[0]) == pinned


def _after_each_read(monkeypatch, then):
    """Call ``then(path)`` each time a read_file of the package returns, in every module that
    holds a binding of it."""
    real = autodiff.read_file

    def read(path):
        blob = real(path)
        then(Path(path))
        return blob

    for module in (autodiff, data, export, metrics, train):
        if getattr(module, "read_file", None) is real:
            monkeypatch.setattr(module, "read_file", read)


class TestScoringReadsRunFilesOnce:
    """A scoring call reads config.txt and runs.log once, and each scored seed's checkpoint,
    stats and stored predictions at most once; the stored key and the weights that made the
    predictions come from the same bytes."""

    @pytest.fixture()
    def world(self, tiny_samples, tiny_region, tmp_path):
        data.write_dataset(tiny_samples[0], tiny_region, tmp_path / "data")
        return tmp_path / "data"

    @staticmethod
    def cold_copy(runs_dir, dest):
        return shutil.copytree(runs_dir, dest, ignore=shutil.ignore_patterns("*_heldout.guqw"))

    @pytest.mark.parametrize("runs", ["cqr_runs", "mcd_runs"])
    def test_each_stage_reads_each_run_file_once(self, runs, request, world, tmp_path,
                                                  monkeypatch):
        runs_dir = self.cold_copy(request.getfixturevalue(runs), tmp_path / "runs")
        reads = []
        _after_each_read(monkeypatch,
                         lambda path: reads.append(path.name) if path.parent == runs_dir else None)
        for stage in SCORING_STAGES:
            seeds = (0, 1) if stage in ("eval", "rank") else (0,)
            for warm in (False, True):
                if not warm:
                    for held in runs_dir.glob("*_heldout.guqw"):
                        held.unlink()
                want = {"config.txt": 1, "runs.log": 1}
                for seed in seeds:
                    want |= {f"seed{seed}_best.guqw": 1, f"seed{seed}_stats.guqw": 1}
                    if warm:
                        want[f"seed{seed}_heldout.guqw"] = 1
                reads.clear()
                assert cli.main(_scoring_argv(stage, world, runs_dir, tmp_path / "out")) == 0
                assert {n: reads.count(n) for n in reads} == want, (stage, warm)

    @pytest.mark.parametrize("runs", ["cqr_runs", "mcd_runs"])
    def test_checkpoint_replaced_after_its_read_is_not_served(self, runs, request, world,
                                                              tmp_path, monkeypatch):
        # as a train into the runs directory being scored would: seed 0's checkpoint is
        # replaced right after the cold call read it
        runs_dir = self.cold_copy(request.getfixturevalue(runs), tmp_path / "runs")
        ckpt = runs_dir / "seed0_best.guqw"
        replaced = []

        def replace(path):
            if path == ckpt and not replaced:
                replaced.append(path)
                shutil.copyfile(runs_dir / "seed1_best.guqw", ckpt)

        _after_each_read(monkeypatch, replace)
        assert cli.main(_scoring_argv("eval", world, runs_dir, tmp_path / "cold")) == 0
        monkeypatch.undo()
        assert replaced
        assert cli.main(_scoring_argv("eval", world, runs_dir, tmp_path / "warm")) == 0
        recomputed = self.cold_copy(runs_dir, tmp_path / "recomputed")
        assert cli.main(_scoring_argv("eval", world, recomputed, tmp_path / "fresh")) == 0
        report = Path("report.txt")
        assert _files(tmp_path / "warm")[report] == _files(tmp_path / "fresh")[report]
        assert _files(tmp_path / "cold")[report] != _files(tmp_path / "fresh")[report]


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit):
        cli.main([])
