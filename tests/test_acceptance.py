"""System-level acceptance gate: eleven numbered checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the checklist. Two
module-scoped worlds back the expensive checks, both 31x49 with 28 channels
and the sigma-doubling noise step, trained 50 epochs at base width 8 /
depth 2 through the CLI:

- a 420-day, density-0.05 world for the conformal coverage check, where
  station sparsity is the point;
- a 240-day, density-0.3 world for the UQ-noise alignment checks, where the
  quantile and variance heads need enough station signal on both sides of
  the noise step to learn its magnitude.
"""

import dataclasses

import numpy as np
import pytest
from scipy.stats import spearmanr

from griduq import autodiff as ad
from griduq import cli, data, losses, metrics, train, uq
from griduq.model import (UQ_CQR, UQ_MCD, ModelConfig,
                          UNetParams, build, forward)

from _gradcheck import gradcheck, lattice_values
from _oracles import predict_gaussian

SPARSE_SEED = 4  # chosen for a station mask balanced across the noise step
DENSE_SEED = 0
TRAIN_ARGS = ["--epochs", "50", "--lr", "3e-3", "--dropout", "0.1",
              "--batch", "8", "--seeds", "0", "--alpha", "0.1",
              "--base-width", "8", "--depth", "2", "--t-passes", "30",
              "--deterministic"]


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _gen_world(out, days, density, seed):
    rc = cli.main(["gen", "--region", "synth", "--days", str(days),
                   "--channels", "28", "--noise", "hetero",
                   "--density", str(density), "--seed", str(seed),
                   "--out", str(out)])
    assert rc == 0
    samples, spec = data.read_dataset(out)
    return samples, spec, out


def _train_run(world_dir, method, out):
    rc = cli.main(["train", "--data", str(world_dir), "--uq", method,
                   "--out", str(out)] + TRAIN_ARGS)
    assert rc == 0
    return out


# ------------------------------------------------------------ shared fixtures

@pytest.fixture(scope="module")
def sparse_world(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_sparse") / "world"
    return _gen_world(out, days=420, density=0.05, seed=SPARSE_SEED)


@pytest.fixture(scope="module")
def sparse_cqr(sparse_world, tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_sparse_cqr") / "runs"
    return _train_run(sparse_world[2], "cqr", out)


@pytest.fixture(scope="module")
def dense_world(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_dense") / "world"
    return _gen_world(out, days=240, density=0.3, seed=DENSE_SEED)


@pytest.fixture(scope="module")
def dense_cqr(dense_world, tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_dense_cqr") / "runs"
    return _train_run(dense_world[2], "cqr", out)


@pytest.fixture(scope="module")
def dense_mcd(dense_world, tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_dense_mcd") / "runs"
    return _train_run(dense_world[2], "mcd", out)


@pytest.fixture(scope="module")
def uq_maps(dense_world, dense_cqr, dense_mcd):
    """Per-cell time-mean UQ over the held-out days: CQR conformal interval
    length and MCD total predictive variance (NaN off the station mask)."""
    samples, _, _ = dense_world
    rec_c = train.read_runs_log(dense_cqr)[0]
    rec_m = train.read_runs_log(dense_mcd)[0]
    params_c, stats_c = train.load_run_params(dense_cqr, rec_c)
    params_m, stats_m = train.load_run_params(dense_mcd, rec_m)
    cfg_m, _ = train.read_run_config(dense_mcd)
    val = data.split(samples, seed=rec_c.seed)[1]
    val_c = data.standardize(val, stats_c)
    val_m = data.standardize(val, stats_m)
    rng = np.random.default_rng(7)
    int_grids = [uq.cqr_predict(params_c, s.x).widened(rec_c.qhat).uq_score
                 for s in val_c]
    var_grids = [uq.mc_dropout_predict(params_m, s.x, cfg_m.t_passes, rng).total_variance
                 for s in val_m]
    masks = [s.mask for s in val]
    int_map, _ = metrics.time_mean_over_masked(int_grids, masks)
    var_map, _ = metrics.time_mean_over_masked(var_grids, masks)
    return int_map, var_map


# -------------------------------------------------------------- criterion 1

def test_criterion_01_conformal_coverage(sparse_world, sparse_cqr, tmp_path):
    samples, spec, world_dir = sparse_world
    report_path = tmp_path / "report.txt"
    rc = cli.main(["eval", "--data", str(world_dir), "--runs", str(sparse_cqr),
                   "--out", str(report_path)])
    assert rc == 0 and report_path.exists()

    rec = train.read_runs_log(sparse_cqr)[0]
    params, stats = train.load_run_params(sparse_cqr, rec)
    _, calib_set, val_set = data.split(samples, calib=True, seed=rec.seed)
    pool_raw = calib_set + val_set
    pool_std = data.standardize(pool_raw, stats)
    day_scores = [uq.conformity_scores(params, [s], 8, stats) for s in pool_raw]
    day_bounds = []
    for s in pool_std:
        band = uq.cqr_predict(params, s.x)
        day_bounds.append((band.lo, band.hi))

    rng = np.random.default_rng(123)
    coverages = []
    for _ in range(10):
        perm = rng.permutation(len(pool_raw))
        cal_idx, test_idx = perm[:len(calib_set)], perm[len(calib_set):]
        qhat = uq.conformal_quantile(
            np.concatenate([day_scores[i] for i in cal_idx]), 0.1)
        hit = total = 0
        for i in test_idx:
            lo, hi = day_bounds[i]
            s = pool_raw[i]
            inside = (s.y >= lo - qhat) & (s.y <= hi + qhat) & s.mask
            hit += int(inside.sum())
            total += int(s.mask.sum())
        coverages.append(hit / total)
    mean_cov = float(np.mean(coverages))
    verdict(1, 0.88 <= mean_cov <= 0.93,
            f"mean coverage over 10 calib/test resamplings = {mean_cov:.4f} "
            f"in [0.88, 0.93] (alpha=0.1, full gen->train->eval pipeline)")


# -------------------------------------------------------------- criterion 2

def _elementwise_shape(rng):
    return tuple(int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 4))))


def _pair(rng, draw_a="normal", draw_b="normal"):
    shape = _elementwise_shape(rng)

    def one(kind):
        if kind == "offset":  # bounded away from 0 for div/log
            return lattice_values(rng, shape, 0.5, 2.0)
        return rng.normal(size=shape).astype(np.float32)

    return {"a": one(draw_a), "b": one(draw_b)}


def _relu_case(rng):
    # even element count keeps 0 off the half-offset lattice, so no FD bump
    # can cross the kink
    shape = list(_elementwise_shape(rng))
    if int(np.prod(shape)) % 2:
        shape[0] += 1
    return (lambda t: ad.relu(t["a"])), {"a": lattice_values(rng, tuple(shape))}


def _conv_case(rng):
    s = int(rng.integers(1, 3))
    kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    p = int(rng.integers(0, min((kh - 1) // 2, (kw - 1) // 2) + 1))
    ho, wo = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    h, w = kh + s * (ho - 1) - 2 * p, kw + s * (wo - 1) - 2 * p
    n, cin, cout = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    arrays = {"x": rng.normal(size=(n, cin, h, w)).astype(np.float32),
              "w": rng.normal(size=(cout, cin, kh, kw)).astype(np.float32),
              "b": rng.normal(size=(cout,)).astype(np.float32)}
    return (lambda t: ad.conv2d(t["x"], t["w"], t["b"], stride=s, padding=p)), arrays


def _conv_transpose_case(rng):
    s = int(rng.integers(1, 3))
    kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    arrays = {"x": rng.normal(size=(1, cin, h, w)).astype(np.float32),
              "w": rng.normal(size=(cin, cout, kh, kw)).astype(np.float32),
              "b": rng.normal(size=(cout,)).astype(np.float32)}
    return (lambda t: ad.conv_transpose2d(t["x"], t["w"], t["b"], stride=s)), arrays


def _maxpool_case(rng):
    shape = (1, int(rng.integers(1, 3)),
             2 * int(rng.integers(1, 4)), 2 * int(rng.integers(1, 4)))
    return (lambda t: ad.maxpool2d(t["a"])), {"a": lattice_values(rng, shape)}


def _mean_masked_case(rng):
    shape = _elementwise_shape(rng)
    mask = rng.random(shape) < 0.5
    mask.reshape(-1)[0] = True
    return (lambda t: ad.mean_masked(t["a"], mask)), {"a": rng.normal(size=shape).astype(np.float32)}


def _dropout_case(rng):
    p = float(rng.uniform(0.1, 0.6))
    mask_seed = int(rng.integers(0, 2**31))
    shape = (1,) + _elementwise_shape(rng)
    build = lambda t: ad.dropout(t["a"], ad.dropout_masks(p, np.random.default_rng(mask_seed),
                                                          [shape])[0])
    return build, {"a": rng.normal(size=shape).astype(np.float32)}


def _slice_case(rng):
    c = int(rng.integers(2, 6))
    c0 = int(rng.integers(0, c - 1))
    c1 = int(rng.integers(c0 + 1, c + 1))
    shape = (1, c, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
    return (lambda t: ad.slice_channels(t["a"], c0, c1)), {"a": rng.normal(size=shape).astype(np.float32)}


def _pad_case(rng):
    h, w = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    shape = (1, int(rng.integers(1, 3)), h, w)
    ho, wo = h + int(rng.integers(0, 4)), w + int(rng.integers(0, 4))
    return (lambda t: ad.pad2d(t["a"], ho, wo)), {"a": rng.normal(size=shape).astype(np.float32)}


def _crop_case(rng):
    h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    shape = (1, int(rng.integers(1, 3)), h, w)
    ho, wo = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
    return (lambda t: ad.crop2d(t["a"], ho, wo)), {"a": rng.normal(size=shape).astype(np.float32)}


def _concat_case(rng):
    n, h, w = 1, int(rng.integers(2, 4)), int(rng.integers(2, 4))
    a = rng.normal(size=(n, int(rng.integers(1, 4)), h, w)).astype(np.float32)
    b = rng.normal(size=(n, int(rng.integers(1, 4)), h, w)).astype(np.float32)
    return (lambda t: ad.concat_channels(t["a"], t["b"])), {"a": a, "b": b}


KERNEL_CASES = {
    "add": lambda rng: ((lambda t: ad.add(t["a"], t["b"])), _pair(rng)),
    "sub": lambda rng: ((lambda t: ad.sub(t["a"], t["b"])), _pair(rng)),
    "mul": lambda rng: ((lambda t: ad.mul(t["a"], t["b"])), _pair(rng)),
    "div": lambda rng: ((lambda t: ad.div(t["a"], t["b"])), _pair(rng, "normal", "offset")),
    "neg": lambda rng: ((lambda t: ad.neg(t["a"])), {"a": _pair(rng)["a"]}),
    "log": lambda rng: ((lambda t: ad.log(t["a"])), {"a": _pair(rng, "offset")["a"]}),
    "softplus": lambda rng: ((lambda t: ad.softplus(t["a"])), {"a": _pair(rng)["a"]}),
    "relu": _relu_case,
    "scale": lambda rng: (
        (lambda s: (lambda t: ad.scale(t["a"], s)))(float(rng.uniform(0.5, 2.5))),
        {"a": _pair(rng)["a"]}),
    "add_scalar": lambda rng: (
        (lambda c: (lambda t: ad.add_scalar(t["a"], c)))(float(rng.normal())),
        {"a": _pair(rng)["a"]}),
    "conv2d": _conv_case,
    "conv_transpose2d": _conv_transpose_case,
    "maxpool2d": _maxpool_case,
    "concat_channels": _concat_case,
    "slice_channels": _slice_case,
    "pad2d": _pad_case,
    "crop2d": _crop_case,
    "mean_masked": _mean_masked_case,
    "dropout": _dropout_case,
}

N_GRADCHECK_DRAWS = 20
GRADCHECK_TOL = 1e-3


def test_criterion_02_gradient_correctness():
    worst_overall = 0.0
    for k_idx, (name, case) in enumerate(sorted(KERNEL_CASES.items())):
        for draw in range(N_GRADCHECK_DRAWS):
            rng = np.random.default_rng([17, k_idx, draw])
            build, arrays = case(rng)
            err = gradcheck(build, arrays, seed=draw)
            assert err < GRADCHECK_TOL, f"{name} draw {draw}: rel err {err:.3e}"
            worst_overall = max(worst_overall, err)
    verdict(2, worst_overall < GRADCHECK_TOL,
            f"{len(KERNEL_CASES)} kernels x {N_GRADCHECK_DRAWS} shape/seed draws, "
            f"max rel err {worst_overall:.2e} < 1e-3")


# -------------------------------------------------------------- criterion 3

def test_criterion_03_overfit_sanity():
    region = data.region_synthetic(16, 16)
    noiseless = data.NoiseProfile("homoscedastic", 0.0)
    samples, _ = data.generate_synthetic(region, 12, 28, noiseless, 0.5, seed=11)
    four = samples[:4]
    stats = data.ChannelStats.from_samples(four)
    four_std = data.standardize(four, stats)
    config = ModelConfig(in_channels=28, base_width=8, depth=2,
                         dropout_rate=0.0, uq_method=UQ_MCD)
    params = build(config, seed=0)
    result = train.fit(params, four, four, stats, epochs=300, lr=3e-3,
                       batch_size=4, seed=0)
    best = UNetParams(config, {k: ad.Tensor(v) for k, v in result.best_state.items()})
    preds = [predict_gaussian(best, s.x)[0] for s in four_std]
    rmse = metrics.pooled_rmse(preds, four_std)
    verdict(3, rmse < 1.0,
            f"masked train RMSE {rmse:.3f} ppb < 1 ppb on 4 noiseless samples "
            f"within 300 epochs (best epoch {result.best_epoch})")


# -------------------------------------------------------------- criterion 4

def test_criterion_04_variance_decomposition(dense_world, dense_mcd):
    samples, _, _ = dense_world
    rec = train.read_runs_log(dense_mcd)[0]
    params, stats = train.load_run_params(dense_mcd, rec)
    assert params.config.dropout_rate == 0.1
    val = data.split(samples, seed=rec.seed)[1]
    x = data.standardize(val, stats)[0].x

    frozen = UNetParams(dataclasses.replace(params.config, dropout_rate=0.0),
                        params.tensors)
    epi_zero = uq.mc_dropout_predict(frozen, x, 30, np.random.default_rng(42)).epistemic
    all_zero = bool(np.all(epi_zero == 0.0))

    pred = uq.mc_dropout_predict(params, x, 30, np.random.default_rng(42))
    frac_positive = float((pred.epistemic > 0).mean())
    verdict(4, all_zero and frac_positive > 0.99,
            f"rate 0: epistemic exactly 0 at every pixel; "
            f"rate 0.1: epistemic > 0 on {frac_positive:.2%} of pixels (T=30)")


# -------------------------------------------------------------- criterion 5

def test_criterion_05_uq_noise_alignment(dense_world, uq_maps):
    _, spec, _ = dense_world
    int_map, var_map = uq_maps
    covered = ~np.isnan(int_map)
    cols = np.arange(spec.w)[None, :]
    left = covered & (cols < spec.w // 2)
    right = covered & (cols >= spec.w // 2)
    assert left.any() and right.any()
    interval_ratio = float(np.mean(int_map[right]) / np.mean(int_map[left]))
    variance_ratio = float(np.mean(var_map[right]) / np.mean(var_map[left]))
    rho = float(spearmanr(int_map[covered], var_map[covered]).statistic)
    ok = interval_ratio >= 1.5 and variance_ratio >= 1.5 and rho > 0.5
    verdict(5, ok,
            f"right/left mean CQR interval ratio {interval_ratio:.2f} >= 1.5, "
            f"MCD total-variance ratio {variance_ratio:.2f} >= 1.5, "
            f"cross-method spearman {rho:.2f} > 0.5")


# -------------------------------------------------------------- criterion 6

def test_criterion_06_loss_closed_forms():
    rng = np.random.default_rng(0)
    shape = (9, 11)
    mask = np.ones(shape, dtype=bool)
    y = rng.normal(scale=5.0, size=shape).astype(np.float32)

    nll = losses.gaussian_nll(ad.Tensor(y), ad.Tensor(np.ones(shape, np.float32)), y, mask)
    nll_val = float(nll.data.reshape(()))
    nll_ok = abs(nll_val - 0.918939) < 1e-5

    q = rng.normal(scale=5.0, size=shape).astype(np.float32)
    pin = float(losses.pinball(ad.Tensor(q), y, 0.5, mask).data.reshape(()))
    half_mae = 0.5 * float(np.mean(np.abs(y.astype(np.float64) - q.astype(np.float64))))
    half_mae_ok = abs(pin - half_mae) <= 1e-6 * max(1.0, abs(half_mae))

    one = np.ones((1, 1), dtype=np.float32)
    mask1 = np.ones((1, 1), dtype=bool)
    up = float(losses.pinball(ad.Tensor(0.0 * one), one, 0.05, mask1).data.reshape(()))
    down = float(losses.pinball(ad.Tensor(2.0 * one), one, 0.05, mask1).data.reshape(()))
    examples_ok = up == pytest.approx(0.05) and down == pytest.approx(0.95)

    verdict(6, nll_ok and half_mae_ok and examples_ok,
            f"gaussian_nll(y=mu, sigma2=1) = {nll_val:.6f} (0.918939 +/- 1e-5); "
            f"pinball(0.5) = MAE/2; pinball(0.05) at u=+1/-1 -> 0.05/0.95")


# -------------------------------------------------------------- criterion 7

def test_criterion_07_conformal_order_statistic():
    q10 = uq.conformal_quantile(np.arange(1.0, 11.0), 0.1)
    q99 = uq.conformal_quantile(np.arange(1.0, 100.0), 0.1)
    scores = np.random.default_rng(5).normal(size=57)
    alphas = np.linspace(0.02, 0.5, 25)
    qs = [uq.conformal_quantile(scores, float(a)) for a in alphas]
    monotone = all(qs[i] >= qs[i + 1] for i in range(len(qs) - 1))
    ok = q10 == 10.0 and q99 == 90.0 and monotone
    verdict(7, ok,
            f"qhat({{1..10}}, alpha=0.1) = {q10:g}, qhat({{1..99}}) = {q99:g}, "
            f"monotone nonincreasing over {len(alphas)} alphas")


# -------------------------------------------------------------- criterion 8

def _pipeline_outputs(data_dir, root, tag):
    runs = root / f"runs_{tag}"
    rc = cli.main(["train", "--data", str(data_dir), "--uq", "cqr",
                   "--epochs", "2", "--lr", "3e-3", "--dropout", "0.1",
                   "--batch", "8", "--seeds", "0", "--alpha", "0.1",
                   "--base-width", "4", "--depth", "1", "--t-passes", "4",
                   "--deterministic", "--out", str(runs)])
    assert rc == 0
    report = root / f"report_{tag}.txt"
    ranks = root / f"ranks_{tag}.csv"
    series = root / f"series_{tag}.csv"
    maps = root / f"maps_{tag}"
    samples, spec = data.read_dataset(data_dir)
    r, c = np.argwhere(samples[0].mask)[0]
    lat, lon = spec.cell_center(int(r), int(c))
    for argv in (["eval", "--data", str(data_dir), "--runs", str(runs), "--out", str(report)],
                 ["rank", "--data", str(data_dir), "--runs", str(runs), "--top", "5",
                  "--out", str(ranks)],
                 ["series", "--data", str(data_dir), "--runs", str(runs),
                  "--lat", str(lat), "--lon", str(lon), "--out", str(series)],
                 ["extrapolate", "--data", str(data_dir), "--runs", str(runs),
                  "--days", "1,2", "--out", str(maps)]):
        assert cli.main(argv) == 0
    files = {name: (runs / name).read_bytes()
             for name in ("config.txt", "seed0_best.guqw", "seed0_stats.guqw",
                          "seed0_heldout.guqw")}
    files["report"] = report.read_bytes()
    files["ranks"] = ranks.read_bytes()
    files["series"] = series.read_bytes()
    files["map_csv"] = (maps / "uq_day01.csv").read_bytes()
    files["map_ppm"] = (maps / "uq_day01.ppm").read_bytes()
    return files


def test_criterion_08_determinism(tmp_path):
    data_dir = tmp_path / "data"
    rc = cli.main(["gen", "--region", "synth", "--height", "16", "--width", "16",
                   "--days", "24", "--channels", "28", "--noise", "hetero",
                   "--density", "0.3", "--seed", "5", "--out", str(data_dir)])
    assert rc == 0
    first = _pipeline_outputs(data_dir, tmp_path, "a")
    second = _pipeline_outputs(data_dir, tmp_path, "b")
    same = {name: first[name] == second[name] for name in first}
    verdict(8, all(same.values()),
            "two --deterministic runs produced bitwise-identical checkpoints, "
            "stats, report, and rank/series/extrapolate exports "
            f"({len(same)} artifacts compared)")


# -------------------------------------------------------------- criterion 9

def test_criterion_09_format_roundtrips(tmp_path):
    from griduq.export import read_grid_csv, write_grid_csv

    region = data.region_synthetic(9, 11)
    noise = data.NoiseProfile("heteroscedastic", 2.0)
    samples, _ = data.generate_synthetic(region, 10, 28, noise, 0.3, seed=8)
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    data.write_dataset(samples, region, d1)
    loaded, spec_loaded = data.read_dataset(d1)
    data.write_dataset(loaded, spec_loaded, d2)
    names1 = sorted(p.name for p in d1.iterdir())
    names2 = sorted(p.name for p in d2.iterdir())
    guqd_ok = names1 == names2 and all(
        (d1 / n).read_bytes() == (d2 / n).read_bytes() for n in names1)

    params = build(ModelConfig(in_channels=5, base_width=4, depth=1,
                               dropout_rate=0.1, uq_method=UQ_CQR), seed=2)
    p1, p2 = tmp_path / "w1.guqw", tmp_path / "w2.guqw"
    ad.save_checkpoint(p1, params.tensors)
    ad.save_checkpoint(p2, ad.load_checkpoint(p1))
    guqw_ok = p1.read_bytes() == p2.read_bytes()

    rng = np.random.default_rng(3)
    grid = (rng.normal(size=(9, 11)) * 100).astype(np.float32)
    grid[4, 5] = np.nan
    csv_path = tmp_path / "grid.csv"
    write_grid_csv(grid, region, csv_path)
    csv_ok = np.array_equal(read_grid_csv(csv_path), grid, equal_nan=True)

    verdict(9, guqd_ok and guqw_ok and csv_ok,
            "dataset write->read->write byte-identical "
            f"({len(names1)} files); checkpoint write->read->write "
            "byte-identical; grid CSV re-parses bit-exactly (incl. NaN)")


# ------------------------------------------------------------- criterion 10

def test_criterion_10_shape_contract():
    checked = []
    for channels in (28, 51):
        for head, out_channels in ((UQ_MCD, 2), (UQ_CQR, 3)):
            params = build(ModelConfig(in_channels=channels, base_width=4, depth=3,
                                       dropout_rate=0.1, uq_method=head), seed=0)
            for h, w in ((31, 49), (31, 27)):
                x = ad.Tensor(np.random.default_rng(1).normal(
                    size=(1, channels, h, w)).astype(np.float32))
                out = forward(params, x)
                assert out.shape == (1, out_channels, h, w), \
                    f"{head}/{channels}ch at {h}x{w}: got {out.shape}"
                checked.append(out.shape)
    verdict(10, len(checked) == 8,
            "forward preserves 31x49 and 31x27 for 28- and 51-channel inputs; "
            "gaussian head -> 2 channels, quantile head -> 3")


# ------------------------------------------------------------- criterion 11

def test_criterion_11_station_ranking(dense_world, dense_cqr, uq_maps):
    samples, spec, _ = dense_world
    half = spec.w // 2

    # top decile of the criterion-5 per-cell UQ, both methods
    fractions = {}
    for tag, uq_map in (("cqr", uq_maps[0]), ("mcd", uq_maps[1])):
        covered = np.argwhere(~np.isnan(uq_map))
        scores = uq_map[~np.isnan(uq_map)]
        k = max(1, round(0.1 * scores.size))
        top = np.argsort(-scores, kind="stable")[:k]
        fractions[tag] = float((covered[top][:, 1] >= half).mean())

    # the ranking pipeline itself: deterministic, ties broken on (row, col); the
    # first call computes the held-out predictions, the second loads them
    for stored in dense_cqr.glob("*_heldout.guqw"):
        stored.unlink()
    first = metrics.rank_for_runs(samples, spec, dense_cqr)
    second = metrics.rank_for_runs(samples, spec, dense_cqr)
    deterministic = first == second
    mask = samples[0].mask
    flat = np.ones((spec.h, spec.w))
    tied = metrics.rank_stations(flat, flat, mask, spec)
    cells = [(s.row, s.col) for s in tied]
    tie_ok = cells == sorted(cells)

    ok = all(f >= 0.7 for f in fractions.values()) and deterministic and tie_ok
    verdict(11, ok,
            f"top-decile UQ cells in the high-noise half: "
            f"cqr {fractions['cqr']:.0%}, mcd {fractions['mcd']:.0%} (>= 70%); "
            "repeat ranking identical; ties break on (row, col)")
