import dataclasses
import datetime
import struct
import tracemalloc

import numpy as np
import pytest

from _oracles import clean_target, generate_synthetic_per_day
from griduq import data
from griduq.data import (ChannelStats, GeneratorParams, GridSample, NoiseProfile,
                         RegionSpec, batches, generate_synthetic, open_dataset, read_dataset,
                         read_manifest, region_europe, region_north_america, region_synthetic,
                         split, standardize, targets_digest, write_dataset)
from griduq.errors import ContractError, DimensionError, FormatError


def make_sample(date, c=3, h=5, w=4, seed=0, density=0.5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(c, h, w)).astype(np.float32)
    mask = rng.uniform(size=(h, w)) < density
    mask[0, 0] = True
    y = np.where(mask, rng.normal(size=(h, w)).astype(np.float32), np.float32(np.nan))
    return GridSample(date=date, x=x, y=y, mask=mask)


def day(i):
    return datetime.date(2005, 6, 1) + datetime.timedelta(days=i)


class TestRegionSpec:
    def test_builtin_regions(self):
        na, eu, sy = region_north_america(), region_europe(), region_synthetic()
        assert (na.h, na.w, na.lat0, na.lon0) == (31, 49, 42.5, -76.0)
        assert (eu.h, eu.w, eu.lat0, eu.lon0) == (31, 27, 52.0, 2.0)
        assert (sy.h, sy.w) == (31, 49)
        assert na.cell_size == eu.cell_size == 0.1

    def test_cell_center_topleft(self):
        na = region_north_america()
        lat, lon = na.cell_center(0, 0)
        assert abs(lat - 42.45) < 1e-9
        assert abs(lon - (-75.95)) < 1e-9

    def test_long_island_station_cell(self):
        # coastal monitor at 40.934N, 73.125W sits in row 15, col 28
        assert region_north_america().nearest_cell(40.934, -73.125) == (15, 28)

    def test_cell_centers_round_trip(self):
        spec = RegionSpec("t", 7, 9, lat0=50.0, lon0=10.0)
        for r in range(spec.h):
            for c in range(spec.w):
                assert spec.nearest_cell(*spec.cell_center(r, c)) == (r, c)

    def test_out_of_bounds(self):
        na = region_north_america()
        with pytest.raises(ContractError):
            na.nearest_cell(50.0, -74.0)
        with pytest.raises(ContractError):
            na.nearest_cell(40.0, -60.0)
        with pytest.raises(ContractError):
            na.cell_center(31, 0)

    def test_invalid_geometry(self):
        with pytest.raises(ContractError):
            RegionSpec("t", 0, 5, 1.0, 1.0)
        with pytest.raises(ContractError):
            RegionSpec("t", 5, 5, 1.0, 1.0, cell_size=0.0)

    @pytest.mark.parametrize("geometry", [
        dict(lat0=float("nan")), dict(lon0=float("inf")), dict(lat0=float("-inf")),
        dict(cell_size=float("nan")), dict(cell_size=float("inf")),
        dict(cell_size=float("-inf"))])
    def test_non_finite_geometry(self, geometry):
        # a NaN cell_size passes a "<= 0" test and would print NaN coordinates
        with pytest.raises(ContractError, match="must be finite"):
            RegionSpec("t", 5, 5, **{"lat0": 1.0, "lon0": 1.0, **geometry})


class TestGridSample:
    def test_validation(self):
        with pytest.raises(DimensionError):
            GridSample(day(0), np.zeros((4, 4), dtype=np.float32),
                       np.zeros((4, 4), dtype=np.float32), np.ones((4, 4), dtype=bool))
        with pytest.raises(DimensionError):
            GridSample(day(0), np.zeros((1, 4, 4), dtype=np.float32),
                       np.zeros((4, 5), dtype=np.float32), np.ones((4, 4), dtype=bool))
        with pytest.raises(ContractError):
            GridSample(day(0), np.zeros((1, 4, 4), dtype=np.float32),
                       np.zeros((4, 4), dtype=np.float32), np.ones((4, 4), dtype=np.int8))

    def test_masked_target_must_be_finite(self):
        y = np.full((4, 4), np.nan, dtype=np.float32)
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = True
        with pytest.raises(ContractError):
            GridSample(day(0), np.zeros((1, 4, 4), dtype=np.float32), y, mask)


class TestDatasetFormat:
    def write_tiny(self, path, n=3):
        spec = RegionSpec("t", 5, 4, lat0=45.0, lon0=-110.0)
        samples = [make_sample(day(i), seed=i) for i in range(n)]
        write_dataset(samples, spec, path)
        return samples, spec

    def test_roundtrip(self, tmp_path):
        samples, spec = self.write_tiny(tmp_path / "ds")
        loaded, spec2 = read_dataset(tmp_path / "ds")
        assert spec2 == spec
        assert [s.date for s in loaded] == [s.date for s in samples]
        for a, b in zip(samples, loaded):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.mask, b.mask)
            assert np.array_equal(a.y[a.mask], b.y[b.mask])
            assert np.all(np.isnan(b.y[~b.mask]))

    def test_write_is_deterministic(self, tmp_path):
        self.write_tiny(tmp_path / "a")
        self.write_tiny(tmp_path / "b")
        for fa in sorted((tmp_path / "a").iterdir()):
            fb = tmp_path / "b" / fa.name
            assert fa.read_bytes() == fb.read_bytes()

    def test_rewrite_of_loaded_data_is_identical(self, tmp_path):
        self.write_tiny(tmp_path / "a")
        loaded, spec = read_dataset(tmp_path / "a")
        write_dataset(loaded, spec, tmp_path / "b")
        for fa in sorted((tmp_path / "a").iterdir()):
            assert fa.read_bytes() == (tmp_path / "b" / fa.name).read_bytes()

    def test_day_file_layout_and_sentinel(self, tmp_path):
        samples, _ = self.write_tiny(tmp_path / "ds", n=1)
        blob = (tmp_path / "ds" / "2005-06-01.guq").read_bytes()
        assert blob[:4] == b"GUQD"
        version, c, h, w = struct.unpack("<HHHH", blob[4:12])
        assert (version, c, h, w) == (1, 3, 5, 4)
        planes = np.frombuffer(blob, dtype="<u4", offset=12).reshape(c + 2, h, w)
        mask = samples[0].mask
        assert np.all(planes[c][~mask] == 0x7FC00000)  # NaN sentinel, exact bits
        assert set(np.unique(planes[c + 1].view("<f4"))) <= {0.0, 1.0}

    def test_manifest_contents(self, tmp_path):
        self.write_tiny(tmp_path / "ds")
        mf = read_manifest(tmp_path / "ds")
        assert mf["region"] == "t"
        assert (mf["h"], mf["w"]) == ("5", "4")
        assert mf["channels"] == "3"
        assert mf["n_days"] == "3"
        assert mf["channel_names"].split(",") == ["ch00", "ch01", "ch02"]

    def test_manifest_bytes_match_earlier_files(self, tmp_path):
        # the manifest as written before its region lines came from RegionSpec's fields
        spec = RegionSpec("NorthAmerica", 5, 4, lat0=42.5, lon0=-76.0,
                          cell_size=0.30000000000000004)
        write_dataset([make_sample(day(i), seed=i) for i in range(2)], spec, tmp_path / "ds")
        assert (tmp_path / "ds" / "manifest.txt").read_text() == (
            "region=NorthAmerica\nh=5\nw=4\nlat0=42.5\nlon0=-76.0\n"
            "cell_size=0.30000000000000004\nchannels=3\nn_days=2\nchannel_names=ch00,ch01,ch02\n")
        assert open_dataset(tmp_path / "ds")[1] == spec

    @pytest.mark.parametrize("edit, why", [
        (lambda text: text + "garbage\n", "line 10 is not key=value: 'garbage'"),
        (lambda text: text + "=5\n", "line 10 is not key=value: '=5'"),
        (lambda text: text + "h=5\n", "line 10 repeats key 'h'"),
        (lambda text: text.replace("h=5", "h=five"), "malformed h='five'"),
        (lambda text: text.replace("lat0=45.0", "lat0=north"), "malformed lat0='north'"),
        (lambda text: text.replace("n_days=3\n", ""), "missing key 'n_days'"),
        (lambda text: text.replace("cell_size=0.1\n", ""), "missing key 'cell_size'")])
    def test_malformed_manifest(self, tmp_path, edit, why):
        self.write_tiny(tmp_path / "ds")
        mf = tmp_path / "ds" / "manifest.txt"
        mf.write_text(edit(mf.read_text()))
        with pytest.raises(FormatError, match=why):
            open_dataset(tmp_path / "ds")

    def test_manifest_blank_lines_and_unknown_keys(self, tmp_path):
        samples, spec = self.write_tiny(tmp_path / "ds")
        mf = tmp_path / "ds" / "manifest.txt"
        mf.write_text("\n  \n" + mf.read_text() + "source = reanalysis \n")
        assert read_manifest(tmp_path / "ds")["source"] == "reanalysis"
        assert open_dataset(tmp_path / "ds")[1] == spec

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FormatError):
            read_dataset(tmp_path / "empty")

    def test_bad_magic(self, tmp_path):
        self.write_tiny(tmp_path / "ds")
        fp = tmp_path / "ds" / "2005-06-01.guq"
        fp.write_bytes(b"XXXX" + fp.read_bytes()[4:])
        with pytest.raises(FormatError):
            read_dataset(tmp_path / "ds")

    def test_truncated_day(self, tmp_path):
        self.write_tiny(tmp_path / "ds")
        fp = tmp_path / "ds" / "2005-06-02.guq"
        fp.write_bytes(fp.read_bytes()[:-4])
        with pytest.raises(FormatError):
            read_dataset(tmp_path / "ds")

    def test_day_count_mismatch(self, tmp_path):
        self.write_tiny(tmp_path / "ds")
        (tmp_path / "ds" / "2005-06-03.guq").unlink()
        with pytest.raises(FormatError):
            read_dataset(tmp_path / "ds")

    def test_mask_plane_junk(self, tmp_path):
        self.write_tiny(tmp_path / "ds", n=1)
        fp = tmp_path / "ds" / "2005-06-01.guq"
        blob = bytearray(fp.read_bytes())
        blob[-4:] = struct.pack("<f", 0.5)
        fp.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_dataset(tmp_path / "ds")

    def test_shape_differs_from_manifest(self, tmp_path):
        self.write_tiny(tmp_path / "ds")
        mf = tmp_path / "ds" / "manifest.txt"
        mf.write_text(mf.read_text().replace("channels=3", "channels=4"))
        days, _ = open_dataset(tmp_path / "ds")  # names and manifest only
        assert [d.date for d in days] == [day(i) for i in range(3)]
        with pytest.raises(FormatError, match=r"has shape \(3, 5, 4\), manifest says \(4, 5, 4\)"):
            days[1].x
        with pytest.raises(FormatError, match="manifest says"):
            read_dataset(tmp_path / "ds")

    def test_bad_date_name(self, tmp_path):
        self.write_tiny(tmp_path / "ds", n=1)
        fp = tmp_path / "ds" / "2005-06-01.guq"
        fp.rename(tmp_path / "ds" / "someday.guq")
        with pytest.raises(FormatError):
            read_dataset(tmp_path / "ds")

    def test_stale_day_files_refused_before_writing(self, tmp_path):
        path = tmp_path / "ds"
        samples, spec = self.write_tiny(path, n=3)
        (path / "notes.txt").write_text("kept")
        before = {f.name: f.read_bytes() for f in path.iterdir()}
        with pytest.raises(ContractError, match="2005-06-03.guq"):
            write_dataset([make_sample(day(i), seed=i + 7) for i in range(2)], spec, path)
        assert {f.name: f.read_bytes() for f in path.iterdir()} == before
        write_dataset(samples, spec, path)  # a rewrite of the same days is allowed
        assert {f.name: f.read_bytes() for f in path.iterdir()} == before

    def test_duplicate_dates_rejected(self, tmp_path):
        spec = RegionSpec("t", 5, 4, 45.0, -110.0)
        s = make_sample(day(0))
        with pytest.raises(ContractError):
            write_dataset([s, s], spec, tmp_path / "dup")

    @pytest.mark.parametrize("bad", ["duplicate", "shape"])
    def test_refused_write_writes_nothing(self, tmp_path, bad):
        # days [06-01, 06-02, 06-02] once left the manifest and two day files behind
        spec = RegionSpec("t", 5, 4, 45.0, -110.0)
        last = make_sample(day(1), seed=9) if bad == "duplicate" else make_sample(day(2), c=2)
        samples = [make_sample(day(0)), make_sample(day(1)), last]
        err = ContractError if bad == "duplicate" else DimensionError
        with pytest.raises(err):
            write_dataset(samples, spec, tmp_path / "new")
        assert not (tmp_path / "new").exists()
        path = tmp_path / "old"
        self.write_tiny(path, n=2)
        before = {f.name: f.read_bytes() for f in path.iterdir()}
        with pytest.raises(err):
            write_dataset(samples, spec, path)
        assert {f.name: f.read_bytes() for f in path.iterdir()} == before

    def test_region_shape_mismatch(self, tmp_path):
        spec = RegionSpec("t", 9, 9, 45.0, -110.0)
        with pytest.raises(DimensionError):
            write_dataset([make_sample(day(0))], spec, tmp_path / "bad")


class TestSplit:
    def make(self, n):
        return [make_sample(day(i), seed=i) for i in range(n)]

    def test_ninety_ten(self):
        train, val = split(self.make(100), train_frac=0.9, seed=0)
        assert (len(train), len(val)) == (90, 10)

    def test_calib_halves_train(self):
        train, calib, val = split(self.make(100), train_frac=0.9, calib=True, seed=0)
        assert (len(train), len(calib), len(val)) == (45, 45, 10)

    def test_is_partition(self):
        samples = self.make(30)
        train, calib, val = split(samples, calib=True, seed=3)
        ids = [id(s) for s in train + calib + val]
        assert sorted(ids) == sorted(id(s) for s in samples)
        assert len(set(ids)) == 30

    def test_seed_determinism(self):
        samples = self.make(40)
        a = split(samples, seed=7)
        b = split(samples, seed=7)
        assert [s.date for s in a[0]] == [s.date for s in b[0]]
        c = split(samples, seed=8)
        assert [s.date for s in a[0]] != [s.date for s in c[0]]

    def test_rounding_keeps_val_nonempty(self):
        train, val = split(self.make(10), train_frac=0.99, seed=0)
        assert len(val) == 1

    def test_too_few_samples(self):
        with pytest.raises(ContractError):
            split(self.make(9))

    def test_bad_frac(self):
        with pytest.raises(ContractError):
            split(self.make(20), train_frac=1.0)


class TestTargetsDigest:
    def test_covers_dates_masks_and_masked_targets_only(self):
        days = [make_sample(day(i), seed=i) for i in range(3)]
        digest = targets_digest(days)
        # day order and inputs (and NaNs off the mask) do not count
        assert targets_digest(days[::-1]) == digest
        assert targets_digest([GridSample(s.date, s.x + 1.0, np.where(s.mask, s.y, 7.0), s.mask)
                               for s in days]) == digest
        s = days[1]
        y = s.y.copy()
        y[0, 0] = np.nextafter(y[0, 0], np.float32(np.inf))  # (0, 0) is always a station
        mask = s.mask.copy()
        mask[np.unravel_index(np.argmin(mask), mask.shape)] = True
        y2 = np.where(mask, np.nan_to_num(s.y), np.nan).astype(np.float32)
        for changed in (GridSample(s.date, s.x, y, s.mask), GridSample(s.date, s.x, y2, mask),
                        GridSample(day(9), s.x, s.y, s.mask)):
            assert targets_digest([days[0], changed, days[2]]) != digest


class TestChannelStats:
    def test_matches_numpy(self):
        samples = [make_sample(day(i), seed=i) for i in range(4)]
        stats = ChannelStats.from_samples(samples)
        stacked = np.stack([s.x for s in samples]).astype(np.float64)  # (N, C, H, W)
        want_mean = stacked.mean(axis=(0, 2, 3))
        want_std = stacked.std(axis=(0, 2, 3))
        assert np.allclose(stats.mean, want_mean, atol=1e-6)
        assert np.allclose(stats.std, want_std, atol=1e-6)

    def test_degenerate_channel_warns_and_uses_unit_std(self):
        s = make_sample(day(0))
        s.x[1] = 7.0
        with pytest.warns(RuntimeWarning, match="constant"):
            stats = ChannelStats.from_samples([s])
        assert stats.std[1] == 1.0
        assert stats.mean[1] == pytest.approx(7.0)

    def test_standardize_normalizes(self):
        samples = [make_sample(day(i), seed=i) for i in range(6)]
        stats = ChannelStats.from_samples(samples)
        zs = standardize(samples, stats)
        stacked = np.stack([s.x for s in zs]).astype(np.float64)
        assert np.abs(stacked.mean(axis=(0, 2, 3))).max() < 1e-5
        assert np.abs(stacked.std(axis=(0, 2, 3)) - 1.0).max() < 1e-5
        # targets and masks untouched
        assert np.array_equal(zs[0].y[zs[0].mask], samples[0].y[samples[0].mask])

    def test_standardize_channel_mismatch(self):
        stats = ChannelStats(mean=np.zeros(2, np.float32), std=np.ones(2, np.float32))
        with pytest.raises(DimensionError):
            standardize([make_sample(day(0), c=3)], stats)


class TestBatches:
    def test_order_shapes_and_short_last_batch(self):
        samples = [make_sample(day(i), seed=i) for i in (4, 0, 6, 2, 5, 1, 3)]  # not by date
        unit = ChannelStats(mean=np.zeros(3, np.float32), std=np.ones(3, np.float32))
        got = list(batches(samples, 3, unit))
        assert [len(days) for days, *_ in got] == [3, 3, 1]
        assert [s.date for days, *_ in got for s in days] == [s.date for s in samples]
        for days, x, y, mask in got:
            n = len(days)
            assert x.shape == (n, 3, 5, 4) and x.dtype == np.float32
            assert y.shape == mask.shape == (n, 1, 5, 4) and mask.dtype == np.bool_
            for i, s in enumerate(days):
                assert np.array_equal(x[i], s.x)
                assert np.array_equal(y[i, 0], s.y, equal_nan=True)
                assert np.array_equal(mask[i, 0], s.mask)

    def test_z_scores_like_standardize_and_leaves_days_raw(self):
        samples = [make_sample(day(i), seed=i) for i in range(7)]
        raw = [s.x.copy() for s in samples]
        stats = ChannelStats.from_samples(samples[:4])
        got = np.concatenate([x for _, x, _, _ in batches(samples, 3, stats)])
        want = np.stack([s.x for s in standardize(samples, stats)])
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert all(np.array_equal(s.x, x) for s, x in zip(samples, raw))


class TestNoiseProfile:
    def test_parse(self):
        assert NoiseProfile.parse("homo:2.5") == NoiseProfile("homoscedastic", 2.5)
        assert NoiseProfile.parse("hetero") == NoiseProfile("heteroscedastic", 3.0)
        assert NoiseProfile.parse("hetero:1.5") == NoiseProfile("heteroscedastic", 1.5)
        with pytest.raises(ContractError):
            NoiseProfile.parse("homo")
        with pytest.raises(ContractError):
            NoiseProfile.parse("laplace:1")

    @pytest.mark.parametrize("text", ["homo:abc", "hetero:abc", "homo:", "hetero:1.5x"])
    def test_parse_rejects_a_bad_sigma(self, text):
        with pytest.raises(ContractError, match="is not"):
            NoiseProfile.parse(text)

    def test_sigma_grid_step(self):
        grid = NoiseProfile("heteroscedastic", 3.0).sigma_grid(4, 7)
        assert np.all(grid[:, :3] == 3.0)
        assert np.all(grid[:, 3:] == 6.0)
        flat = NoiseProfile("homoscedastic", 1.5).sigma_grid(4, 7)
        assert np.all(flat == 1.5)

    def test_negative_sigma(self):
        for sigma in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ContractError, match="finite and >= 0"):
                NoiseProfile("homoscedastic", sigma)


class TestSynthetic:
    def test_deterministic(self, tiny_region):
        noise = NoiseProfile("homoscedastic", 2.0)
        a, _ = generate_synthetic(tiny_region, 5, 28, noise, 0.3, seed=9)
        b, _ = generate_synthetic(tiny_region, 5, 28, noise, 0.3, seed=9)
        for sa, sb in zip(a, b):
            assert sa.date == sb.date
            assert np.array_equal(sa.x, sb.x)
            assert np.array_equal(sa.mask, sb.mask)
            assert np.array_equal(sa.y[sa.mask], sb.y[sb.mask])

    def test_channel_count_restricted(self, tiny_region):
        noise = NoiseProfile("homoscedastic", 2.0)
        with pytest.raises(ContractError):
            generate_synthetic(tiny_region, 5, 16, noise, 0.3, seed=0)
        samples, _ = generate_synthetic(tiny_region, 2, 51, noise, 0.3, seed=0)
        assert samples[0].x.shape[0] == 51

    def test_mask_shared_across_days(self, tiny_samples):
        samples, _ = tiny_samples
        for s in samples[1:]:
            assert np.array_equal(s.mask, samples[0].mask)

    def test_dates_are_june_days(self, tiny_samples):
        samples, _ = tiny_samples
        dates = [s.date for s in samples]
        assert dates[0] == datetime.date(2005, 6, 1)
        assert len(set(dates)) == len(dates)
        assert all(d.month == 6 for d in dates)
        assert dates == sorted(dates)

    def test_position_channels_are_axis_ramps(self, tiny_samples):
        samples, _ = tiny_samples
        x0, x1 = samples[0].x[0], samples[0].x[1]
        assert np.all(x0 == x0[:, :1])            # varies only with row
        assert np.all(x1 == x1[:1, :])            # varies only with column
        assert not np.all(x0 == x0[0, 0])
        assert np.array_equal(samples[-1].x[0], x0)  # static over time

    def test_static_block_and_drifting_rest(self, tiny_samples):
        samples, params = tiny_samples
        n_static = max(2, 28 // 4)
        for c in range(n_static):
            assert np.array_equal(samples[0].x[c], samples[3].x[c]), f"channel {c} moved"
        drifting = [c for c in range(n_static, 28)
                    if not np.array_equal(samples[0].x[c], samples[3].x[c])]
        assert drifting == list(range(n_static, 28))
        assert params.target_channels == (n_static, n_static + 1, n_static + 2)

    def test_clean_target_reconstruction(self, tiny_samples):
        # residual between observed y and the recomputed noiseless target
        # behaves like the injected N(0, sigma^2) noise
        samples, params = tiny_samples
        res = np.concatenate([
            (s.y - clean_target(params, s.x))[s.mask] for s in samples])
        assert res.size > 300
        sd = res.std()
        assert 1.7 < sd < 2.3  # sigma was 2.0
        assert abs(res.mean()) < 3 * sd / np.sqrt(res.size) + 0.1

    def test_heteroscedastic_ratio(self, tiny_region):
        noise = NoiseProfile("heteroscedastic", 3.0)
        samples, params = generate_synthetic(tiny_region, 60, 28, noise, 0.4, seed=2)
        left, right = [], []
        half = tiny_region.w // 2
        for s in samples:
            res = s.y - clean_target(params, s.x)
            left.append(res[:, :half][s.mask[:, :half]])
            right.append(res[:, half:][s.mask[:, half:]])
        ratio = np.concatenate(right).std() / np.concatenate(left).std()
        assert 1.8 < ratio < 2.2

    def test_density_controls_station_count(self, tiny_region):
        noise = NoiseProfile("homoscedastic", 2.0)
        lo, _ = generate_synthetic(tiny_region, 1, 28, noise, 0.05, seed=3)
        hi, _ = generate_synthetic(tiny_region, 1, 28, noise, 0.6, seed=3)
        n = tiny_region.h * tiny_region.w
        assert 0 < lo[0].mask.sum() < 0.2 * n
        assert 0.4 * n < hi[0].mask.sum() <= n

    def test_masked_pixels_finite_unmasked_nan(self, tiny_samples):
        samples, _ = tiny_samples
        s = samples[0]
        assert np.all(np.isfinite(s.y[s.mask]))
        assert np.all(np.isnan(s.y[~s.mask]))

    def test_bad_density(self, tiny_region):
        with pytest.raises(ContractError):
            generate_synthetic(tiny_region, 2, 28, NoiseProfile("homoscedastic", 1.0), 0.0, 0)


def assert_within_one_ulp(a, b):
    assert a.dtype == b.dtype == np.float32 and a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    a, b = a[~nan], b[~nan]
    assert np.all((a == b) | (np.nextafter(a, b) == b))


class TestSyntheticMatchesPerDayOracle:
    WORLDS = {
        "synth28-hetero": (region_synthetic(17, 23), 75, 28, NoiseProfile("heteroscedastic"), 0.3, 4),
        "na51-homo": (region_north_america(), 20, 51, NoiseProfile("homoscedastic", 3.0), 0.05, 0),
        "one-day": (region_synthetic(9, 7), 1, 28, NoiseProfile("homoscedastic", 2.0), 0.4, 1),
    }

    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_matches_oracle(self, world):
        args = self.WORLDS[world]
        samples, params = generate_synthetic(*args)
        expect, expect_params = generate_synthetic_per_day(*args)
        for field in dataclasses.fields(GeneratorParams):
            got, want = getattr(params, field.name), getattr(expect_params, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), field.name
            else:
                assert got == want, field.name
        assert [s.date for s in samples] == [s.date for s in expect]
        for got, want in zip(samples, expect, strict=True):
            assert np.array_equal(got.mask, want.mask)
            assert_within_one_ulp(got.x, want.x)
            assert_within_one_ulp(got.y, want.y)

    def test_sin_grids_do_not_grow_with_days(self, monkeypatch):
        grids = []

        class CountingNumpy:
            def __getattr__(self, name):
                fn = getattr(np, name)
                if name not in ("sin", "cos"):
                    return fn

                def counted(arg, *rest, **kwargs):
                    grids.append(np.ndim(arg) >= 2)
                    return fn(arg, *rest, **kwargs)
                return counted

        monkeypatch.setattr(data, "np", CountingNumpy())
        counts = []
        for n_days in (2, 40):
            grids.clear()
            generate_synthetic(region_synthetic(8, 9), n_days, 28,
                               NoiseProfile("homoscedastic", 1.0), 0.3, seed=0)
            counts.append(sum(grids))
        assert counts[0] == counts[1] > 0

    def test_peak_memory_is_output_plus_one_channel_block(self):
        tracemalloc.start()
        try:
            samples, _ = generate_synthetic(region_synthetic(31, 49), 420, 28,
                                            NoiseProfile("heteroscedastic"), 0.05, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out_bytes = sum(s.x.nbytes + s.y.nbytes + s.mask.nbytes for s in samples)
        assert peak <= out_bytes + 32 * 2 ** 20

