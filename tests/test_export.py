import datetime

import numpy as np
import pytest

from griduq import autodiff
from griduq.data import RegionSpec
from griduq.errors import ContractError, FormatError
from griduq.export import (BLUE, GRAY, RED, read_grid_csv, write_grid_csv,
                           write_heatmap, write_ranks_csv, write_report,
                           write_series_csv)
from griduq.metrics import MetricsReport, SeriesRow, StationScore


def read_ppm(path):
    blob = path.read_bytes()
    magic, dims, maxval, rest = blob.split(b"\n", 3)
    w, h = map(int, dims.split())
    assert magic == b"P6" and maxval == b"255"
    pixels = np.frombuffer(rest, dtype=np.uint8)
    assert pixels.size == 3 * w * h
    return pixels.reshape(h, w, 3)


class TestHeatmap:
    def test_extremes_and_header(self, tmp_path):
        grid = np.array([[0.0, 5.0], [2.5, 2.5]])
        fp = tmp_path / "g.ppm"
        write_heatmap(grid, fp)
        img = read_ppm(fp)
        assert tuple(img[0, 0]) == BLUE
        assert tuple(img[0, 1]) == RED
        assert tuple(img[1, 0]) == (255, 255, 255)  # midpoint renders white

    def test_nan_renders_gray(self, tmp_path):
        grid = np.array([[0.0, np.nan], [1.0, 0.5]])
        fp = tmp_path / "g.ppm"
        write_heatmap(grid, fp)
        img = read_ppm(fp)
        assert tuple(img[0, 1]) == GRAY

    def test_constant_grid_uniform_mid(self, tmp_path):
        fp = tmp_path / "c.ppm"
        write_heatmap(np.full((3, 4), 7.0), fp)
        img = read_ppm(fp)
        assert np.all(img == 255)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ContractError):
            write_heatmap(np.zeros(5), tmp_path / "x.ppm")


class TestGridCsv:
    def spec(self):
        return RegionSpec("t", 3, 4, lat0=45.0, lon0=-110.0)

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        grid = rng.normal(size=(3, 4)).astype(np.float32) * 1000
        grid[1, 2] = np.nan
        fp = tmp_path / "grid.csv"
        write_grid_csv(grid, self.spec(), fp)
        again = read_grid_csv(fp)
        assert np.array_equal(grid, again, equal_nan=True)

    def test_header_and_coords(self, tmp_path):
        fp = tmp_path / "grid.csv"
        write_grid_csv(np.zeros((3, 4), np.float32), self.spec(), fp)
        lines = fp.read_text().splitlines()
        assert lines[0] == "row,col,lat,lon,value"
        assert len(lines) == 1 + 12
        r, c, lat, lon, v = lines[1].split(",")
        assert (r, c) == ("0", "0")
        assert float(lat) == pytest.approx(44.95)
        assert float(lon) == pytest.approx(-109.95)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_cell_loop(self, tmp_path, rng, dtype):
        spec = RegionSpec("t", 7, 9, lat0=42.5, lon0=-76.0)
        grid = (rng.normal(size=(7, 9)) * 10.0 ** rng.integers(-8, 8, (7, 9))).astype(dtype)
        grid[0, :4] = [np.nan, np.inf, -np.inf, -0.0]
        fp = tmp_path / "grid.csv"
        write_grid_csv(grid, spec, fp)
        want = ["row,col,lat,lon,value"]
        for r in range(spec.h):
            for c in range(spec.w):
                lat, lon = spec.cell_center(r, c)
                want.append(f"{r},{c},{float(lat):.9g},{float(lon):.9g},{float(grid[r, c]):.9g}")
        assert fp.read_text() == "\n".join(want) + "\n"

    def test_shape_guard(self, tmp_path):
        with pytest.raises(ContractError):
            write_grid_csv(np.zeros((2, 2), np.float32), self.spec(), tmp_path / "g.csv")

    def test_read_rejects_bad_header(self, tmp_path):
        fp = tmp_path / "bad.csv"
        fp.write_text("a,b,c\n")
        with pytest.raises(FormatError):
            read_grid_csv(fp)

    def test_read_rejects_short_line(self, tmp_path):
        fp = tmp_path / "bad.csv"
        fp.write_text("row,col,lat,lon,value\n0,0,1.0\n")
        with pytest.raises(FormatError):
            read_grid_csv(fp)

    @pytest.mark.parametrize("line", ["0,x,1.0,2.0,3.0", "0,0,1.0,2.0,abc", "0.5,0,1.0,2.0,3.0",
                                      "-1,0,1.0,2.0,3.0", "0,-1,1.0,2.0,3.0",
                                      "0,1,1.0,2.0,3.0\n0,1,1.0,2.0,4.0"])
    def test_read_rejects_malformed_line(self, tmp_path, line):
        # the last line is the bad one: a negative cell, or one that an earlier line gave
        fp = tmp_path / "bad.csv"
        fp.write_text(f"row,col,lat,lon,value\n{line}\n")
        with pytest.raises(FormatError, match=f"line {1 + len(line.splitlines())}"):
            read_grid_csv(fp)

    def test_read_rejects_bytes_that_are_not_utf8(self, tmp_path):
        fp = tmp_path / "bad.csv"
        fp.write_bytes(b"row,col,lat,lon,value\n0,0,1.0,2.0,3.0\xff\n")
        with pytest.raises(FormatError, match=r"bad\.csv: byte 37 is not UTF-8"):
            read_grid_csv(fp)


class TestRanksCsv:
    def test_exact_lines(self, tmp_path):
        rows = [
            StationScore(row=1, col=2, lat=44.85, lon=-109.75, uq_score=3.5, rmse=1.25),
            StationScore(row=0, col=0, lat=44.95, lon=-109.95, uq_score=2.0, rmse=0.5),
        ]
        fp = tmp_path / "ranks.csv"
        write_ranks_csv(rows, fp)
        lines = fp.read_text().splitlines()
        assert lines[0] == "rank,row,col,lat,lon,uq_score,rmse"
        assert lines[1] == "1,1,2,44.85,-109.75,3.5,1.25"
        assert lines[2] == "2,0,0,44.95,-109.95,2,0.5"


class TestSeriesCsv:
    def test_exact_lines(self, tmp_path):
        rows = [SeriesRow(date=datetime.date(2005, 6, 3), y=41.5, mid=40.0, lo=35.0, hi=45.0)]
        fp = tmp_path / "series.csv"
        write_series_csv(rows, fp)
        lines = fp.read_text().splitlines()
        assert lines == ["date,y,mid,lo,hi", "2005-06-03,41.5,40,35,45"]


class TestReport:
    def make_report(self, **kw):
        base = dict(region="Synthetic", uq_method="cqr", n_channels=28, n_seeds=2,
                    rmse_per_seed=(1.5, 2.5), rmse_mean=2.0, rmse_variance=0.25,
                    rmse_std=0.5, interval_max=9.0, interval_min=1.0, interval_avg=4.0,
                    coverage=0.9, crossing_rate=0.01)
        base.update(kw)
        return MetricsReport(**base)

    def test_key_value_section(self, tmp_path):
        fp = tmp_path / "report.txt"
        write_report(self.make_report(), fp)
        text = fp.read_text()
        head = text.split("\n\n")[0].splitlines()
        entries = dict(line.split("=", 1) for line in head)
        assert entries["region"] == "Synthetic"
        assert entries["uq_method"] == "cqr"
        assert entries["rmse_per_seed"] == "1.5,2.5"
        assert entries["coverage"] == "0.9"
        assert "epistemic_max" not in entries  # None fields are omitted

    def test_csv_section_quotes_lists(self, tmp_path):
        fp = tmp_path / "report.txt"
        write_report(self.make_report(), fp)
        csv_part = fp.read_text().split("\n\n")[1].splitlines()
        assert csv_part[0] == "metric,value"
        per_seed = [l for l in csv_part if l.startswith("rmse_per_seed")]
        assert per_seed == ['rmse_per_seed,"1.5,2.5"']

    def test_mcd_report_fields(self, tmp_path):
        report = self.make_report(uq_method="mcd", interval_max=None, interval_min=None,
                                  interval_avg=None, coverage=None, crossing_rate=None,
                                  epistemic_max=4.0, epistemic_min=0.5, epistemic_avg=1.0)
        fp = tmp_path / "report.txt"
        write_report(report, fp)
        text = fp.read_text()
        assert "epistemic_max=4" in text
        assert "interval_max" not in text


@pytest.mark.parametrize("write", [
    lambda v, fp: write_heatmap(np.array([[v, 5.0], [0.0, 0.0]]), fp),
    lambda v, fp: write_grid_csv(np.full((2, 2), v), RegionSpec("Synthetic", 2, 2, 45.0, -110.0),
                                 fp),
    lambda v, fp: write_ranks_csv([StationScore(0, 0, 44.95, -109.95, v, 0.5)], fp),
    lambda v, fp: write_series_csv([SeriesRow(datetime.date(2005, 6, 3), v, 40.0, 35.0, 45.0)],
                                   fp),
    lambda v, fp: write_report(TestReport().make_report(rmse_mean=v), fp),
], ids=["heatmap", "grid_csv", "ranks_csv", "series_csv", "report"])
def test_failed_write_keeps_old_file_and_leaves_no_temp(write, tmp_path, monkeypatch):
    fp = tmp_path / "out"
    write(1.0, fp)
    old = fp.read_bytes()

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(autodiff.os, "replace", crash)
    with pytest.raises(OSError, match="disk full"):
        write(2.0, fp)
    assert fp.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
