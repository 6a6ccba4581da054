"""Gridded samples, their on-disk format, splits, and a synthetic generator.

A dataset is a directory: one ``manifest.txt`` of line-based key=value
pairs (region, h, w, channels, n_days, channel_names, geo anchors) and
one ``YYYY-MM-DD.guq`` file per day. Each day file is

    magic "GUQD" | version u16 | C u16 | H u16 | W u16 |
    C + 2 planes of H*W little-endian float32, row-major:
    the C input channels, the target, and the station mask as 0/1.

Unmasked target pixels carry the quiet-NaN sentinel 0x7FC00000 on disk
and plain NaN in memory; losses and metrics never read them.

Grids are oriented row 0 = northmost row. Cell centers sit half a cell
in from the (lat0, lon0) top-left corner.
"""

from __future__ import annotations

import datetime
import hashlib
import math
import os
import struct
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .autodiff import read_file
from .errors import ContractError, DimensionError, FormatError

DATASET_MAGIC = b"GUQD"
DATASET_VERSION = 1
MANIFEST_NAME = "manifest.txt"
TARGET_SENTINEL = np.uint32(0x7FC00000).view(np.float32)

REGION_NA = "NorthAmerica"
REGION_EU = "Europe"
REGION_SYNTH = "Synthetic"

VALID_CHANNEL_COUNTS = (28, 51)
TRAIN_FRAC = 0.9  # the share of days that train (and, for CQR, calibrate); the rest validate


@dataclass(frozen=True)
class RegionSpec:
    """Raster geometry: grid shape plus a top-left geographic anchor in degrees."""

    region: str
    h: int
    w: int
    lat0: float
    lon0: float
    cell_size: float = 0.1  # ~11.1 km per cell

    def __post_init__(self):
        if self.h < 1 or self.w < 1:
            raise ContractError(f"grid shape ({self.h}, {self.w}) must be positive")
        if not all(map(math.isfinite, (self.lat0, self.lon0, self.cell_size))):
            raise ContractError(f"lat0={self.lat0}, lon0={self.lon0} and "
                                f"cell_size={self.cell_size} must be finite")
        if self.cell_size <= 0:
            raise ContractError(f"cell_size must be positive, got {self.cell_size}")

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        if not (0 <= row < self.h and 0 <= col < self.w):
            raise ContractError(f"cell ({row}, {col}) outside {self.h}x{self.w} grid")
        return (self.lat0 - (row + 0.5) * self.cell_size,
                self.lon0 + (col + 0.5) * self.cell_size)

    def nearest_cell(self, lat: float, lon: float) -> tuple[int, int]:
        """Map a coordinate inside the region to its nearest cell.

        Cell centers round-trip to themselves. Coordinates outside the
        rectangle are an error rather than a silent clamp.
        """
        lat_min = self.lat0 - self.h * self.cell_size
        lon_max = self.lon0 + self.w * self.cell_size
        if not (lat_min <= lat <= self.lat0 and self.lon0 <= lon <= lon_max):
            raise ContractError(
                f"({lat}, {lon}) outside region {self.region}: "
                f"lat [{lat_min:.3f}, {self.lat0:.3f}], lon [{self.lon0:.3f}, {lon_max:.3f}]")
        row = min(self.h - 1, max(0, int(round((self.lat0 - lat) / self.cell_size - 0.5))))
        col = min(self.w - 1, max(0, int(round((lon - self.lon0) / self.cell_size - 0.5))))
        return row, col


def region_north_america() -> RegionSpec:
    """31x49 grid anchored over the northeastern US station cluster."""
    return RegionSpec(REGION_NA, 31, 49, lat0=42.5, lon0=-76.0)


def region_europe() -> RegionSpec:
    """31x27 grid anchored over central Europe."""
    return RegionSpec(REGION_EU, 31, 27, lat0=52.0, lon0=2.0)


def region_synthetic(h: int = 31, w: int = 49) -> RegionSpec:
    return RegionSpec(REGION_SYNTH, h, w, lat0=45.0, lon0=-110.0)


@dataclass
class GridSample:
    """One day of data: dense inputs, sparse target, station mask."""

    date: datetime.date
    x: np.ndarray      # (C, H, W) float32
    y: np.ndarray      # (H, W) float32, NaN at unmasked pixels
    mask: np.ndarray   # (H, W) bool

    def __post_init__(self):
        if self.x.ndim != 3:
            raise DimensionError(f"x must be (C, H, W), got {self.x.shape}")
        if self.y.shape != self.x.shape[1:] or self.mask.shape != self.x.shape[1:]:
            raise DimensionError(
                f"y {self.y.shape} and mask {self.mask.shape} must match grid {self.x.shape[1:]}")
        if self.mask.dtype != np.bool_:
            raise ContractError(f"mask must be boolean, got dtype {self.mask.dtype}")
        if not np.all(np.isfinite(self.y[self.mask])):
            raise ContractError(f"{self.date}: masked target pixels must be finite")

    @property
    def shape(self) -> tuple[int, int, int]:
        """(C, H, W) of the inputs."""
        return self.x.shape


# ---------------------------------------------------------------------------
# on-disk format


def write_dataset(samples: list[GridSample], spec: RegionSpec, path) -> None:
    """Write a dataset directory; output bytes are a pure function of the inputs.

    Mismatched shapes, duplicate dates and a directory that holds day files
    this dataset would not overwrite are refused before anything is written;
    nothing is deleted.
    """
    if not samples:
        raise ContractError("write_dataset: no samples")
    c, h, w = samples[0].x.shape
    if (h, w) != (spec.h, spec.w):
        raise DimensionError(f"samples are {h}x{w} but region {spec.region} is {spec.h}x{spec.w}")
    seen = set()
    for s in samples:
        if s.x.shape != (c, h, w):
            raise DimensionError(f"{s.date}: shape {s.x.shape} differs from first day {(c, h, w)}")
        if s.date in seen:
            raise ContractError(f"duplicate date {s.date}")
        seen.add(s.date)
    root = Path(path)
    if root.is_dir():
        ours = {f"{s.date.isoformat()}.guq" for s in samples}
        stale = sorted(n for n in os.listdir(root) if n.endswith(".guq") and n not in ours)
        if stale:
            raise ContractError(f"{root} holds {len(stale)} day files this dataset would not "
                                f"overwrite ({stale[0]}, ...); remove them or write elsewhere")
    root.mkdir(parents=True, exist_ok=True)
    lines = [*record_items(spec), f"channels={c}", f"n_days={len(samples)}",
             f"channel_names={','.join(f'ch{i:02d}' for i in range(c))}"]
    (root / MANIFEST_NAME).write_text("\n".join(lines) + "\n")
    for s in samples:
        target = np.where(s.mask, s.y.astype(np.float32), TARGET_SENTINEL)
        buf = bytearray()
        buf += DATASET_MAGIC
        buf += struct.pack("<HHHH", DATASET_VERSION, c, h, w)
        buf += np.ascontiguousarray(s.x, dtype="<f4").tobytes()
        buf += np.ascontiguousarray(target, dtype="<f4").tobytes()
        buf += np.ascontiguousarray(s.mask.astype(np.float32), dtype="<f4").tobytes()
        (root / f"{s.date.isoformat()}.guq").write_bytes(buf)


def parse_fields(items, where, what: str = "line") -> dict[str, str]:
    """The record grammar of manifest.txt, config.txt and runs.log: each nonblank item is
    key=value with a nonempty key that no other item repeats, else FormatError."""
    fields: dict[str, str] = {}
    for i, item in enumerate(items, 1):
        key, eq, value = (part.strip() for part in item.partition("="))
        if not (key or eq):
            continue  # a blank item
        if not (key and eq):
            raise FormatError(f"{where}: {what} {i} is not key=value: {item!r}")
        if key in fields:
            raise FormatError(f"{where}: {what} {i} repeats key {key!r}")
        fields[key] = value
    return fields


def convert_fields(fields: dict[str, str], where, converters: dict) -> dict:
    """Each key of ``converters`` converted by its function, other keys ignored; a missing
    key or a value that does not convert is a FormatError naming the key."""
    out = {}
    for key, convert in converters.items():
        if key not in fields:
            raise FormatError(f"{where}: missing key {key!r}")
        try:
            out[key] = convert(fields[key])
        except ValueError as err:
            raise FormatError(f"{where}: malformed {key}={fields[key]!r}") from err
    return out


# (parse, print) of each record field type, keyed by its annotation; floats print by
# repr, so they re-parse bit-exactly
_FIELD_TEXT = {
    "str": (str, str),
    "int": (int, str),
    "float": (float, repr),
    "float | None": (lambda v: None if v == "none" else float(v),
                     lambda v: "none" if v is None else repr(v)),
    "tuple[int, ...]": (lambda v: tuple(int(s) for s in v.split(",")),
                        lambda v: ",".join(str(s) for s in v)),
}


def record_items(record) -> list[str]:
    """``key=value`` for every field of a record dataclass, in field order."""
    return [f"{f.name}={_FIELD_TEXT[f.type][1](getattr(record, f.name))}" for f in fields(record)]


def record_from(cls, items: dict[str, str], where):
    """A record dataclass from parsed key=value items; every field's key is required. A value
    the record refuses names ``where``."""
    converters = {f.name: _FIELD_TEXT[f.type][0] for f in fields(cls)}
    try:
        return cls(**convert_fields(items, where, converters))
    except ContractError as err:
        raise ContractError(f"{where}: {err}") from None


def read_text(fp: Path) -> tuple[bytes, list[str]]:
    """The bytes and lines of a text file: manifest.txt, config.txt, runs.log or a grid CSV.
    A missing or unreadable file, or bytes that are not UTF-8, are a FormatError."""
    blob = read_file(fp)
    try:
        return blob, blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as err:
        raise FormatError(f"{fp}: byte {err.start} is not UTF-8 text") from None


def read_manifest(path) -> dict[str, str]:
    return parse_fields(read_text(Path(path) / MANIFEST_NAME)[1], Path(path) / MANIFEST_NAME)


def _read_day_file(fp: Path, date: datetime.date, shape: tuple[int, int, int]) -> GridSample:
    blob = read_file(fp)
    if blob[:4] != DATASET_MAGIC:
        raise FormatError(f"{fp}: bad magic, not a GUQD day file")
    if len(blob) < 12:
        raise FormatError(f"{fp}: truncated header")
    version, c, h, w = struct.unpack("<HHHH", blob[4:12])
    if version != DATASET_VERSION:
        raise FormatError(f"{fp}: unsupported version {version}")
    need = 12 + 4 * (c + 2) * h * w
    if len(blob) != need:
        raise FormatError(f"{fp}: expected {need} bytes for {c}+2 planes of {h}x{w}, got {len(blob)}")
    if (c, h, w) != shape:
        raise FormatError(f"{fp.parent}: {date} has shape {(c, h, w)}, manifest says {shape}")
    # read-only views of the bytes read, with no copy on a little-endian machine
    planes = np.frombuffer(blob, dtype="<f4", offset=12).reshape(c + 2, h, w).astype(
        np.float32, copy=False)
    x = planes[:c]
    y = planes[c]
    mask_plane = planes[c + 1]
    if not np.all((mask_plane == 0.0) | (mask_plane == 1.0)):
        raise FormatError(f"{fp}: mask plane contains values other than 0 and 1")
    return GridSample(date=date, x=x, y=y, mask=mask_plane == 1.0)


class DayRecord:
    """One day of a dataset opened by ``open_dataset``: ``date`` comes from the
    file name and ``shape`` from the manifest; ``x``, ``y`` and ``mask`` are read
    and checked on first access, once."""

    def __init__(self, root: Path, name: str, shape: tuple[int, int, int]):
        try:
            self.date = datetime.date.fromisoformat(name[:-len(".guq")])
        except ValueError as err:
            raise FormatError(f"{root / name}: file name is not an ISO date") from err
        self._root, self._name, self.shape = root, name, shape
        self._sample: GridSample | None = None

    def load(self) -> GridSample:
        if self._sample is None:
            self._sample = _read_day_file(self._root / self._name, self.date, self.shape)
        return self._sample

    x = property(lambda self: self.load().x)
    y = property(lambda self: self.load().y)
    mask = property(lambda self: self.load().mask)


def open_dataset(path) -> tuple[list[DayRecord], RegionSpec]:
    """One lazily loaded record per day, sorted by date, and the region geometry;
    reads only the manifest and the day-file names."""
    root = Path(path)
    mf, fp = read_manifest(root), root / MANIFEST_NAME
    spec = record_from(RegionSpec, mf, fp)
    n_days, channels = convert_fields(mf, fp, {"n_days": int, "channels": int}).values()
    names = sorted(n for n in os.listdir(root) if n.endswith(".guq"))
    if len(names) != n_days:
        raise FormatError(f"{root}: manifest says {n_days} days but found {len(names)} day files")
    return [DayRecord(root, n, (channels, spec.h, spec.w)) for n in names], spec


def read_dataset(path) -> tuple[list[GridSample], RegionSpec]:
    """Load all day files, sorted by date, and the region geometry."""
    days, spec = open_dataset(path)
    return [d.load() for d in days], spec


def dataset_fingerprint(samples: list[GridSample]) -> str:
    """Hash of the sorted day dates and the (C, H, W) shape, which the seeded splits assume."""
    days = ",".join(sorted(s.date.isoformat() for s in samples))
    return hashlib.sha256(f"{samples[0].shape}|{days}".encode()).hexdigest()


def targets_digest(samples: list[GridSample]) -> str:
    """SHA-256 of each day's date, station mask and masked targets, in date order."""
    digest = hashlib.sha256()
    for s in sorted(samples, key=lambda s: s.date):
        digest.update(s.date.isoformat().encode())
        digest.update(s.mask.tobytes())
        digest.update(np.ascontiguousarray(s.y[s.mask], dtype="<f4").tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# splits and standardization


def split(samples: list[GridSample], train_frac: float = TRAIN_FRAC, calib: bool = False,
          seed: int = 0):
    """Partition whole days with a seed-deterministic shuffle.

    Returns (train, val), or (train, calib, val) when ``calib`` is set, in
    which case the train portion is halved: earlier shuffled half trains,
    later half calibrates.
    """
    if len(samples) < 10:
        raise ContractError(f"split needs at least 10 samples, got {len(samples)}")
    if not 0.0 < train_frac < 1.0:
        raise ContractError(f"train_frac must be in (0, 1), got {train_frac}")
    order = np.random.default_rng(seed).permutation(len(samples))
    n_train = int(round(len(samples) * train_frac))
    n_train = min(max(n_train, 1), len(samples) - 1)
    shuffled = [samples[i] for i in order]
    train, val = shuffled[:n_train], shuffled[n_train:]
    if not calib:
        return train, val
    half = n_train // 2
    return train[:half], train[half:], val


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean and standard deviation for z-scoring inputs."""

    mean: np.ndarray  # (C,) float32
    std: np.ndarray   # (C,) float32, strictly positive

    @classmethod
    def from_samples(cls, samples: list[GridSample]) -> "ChannelStats":
        if not samples:
            raise ContractError("ChannelStats.from_samples: no samples")
        c = samples[0].x.shape[0]
        acc = np.zeros(c, dtype=np.float64)
        acc2 = np.zeros(c, dtype=np.float64)
        count = 0
        for s in samples:
            acc += s.x.sum(axis=(1, 2), dtype=np.float64)
            acc2 += (s.x.astype(np.float64) ** 2).sum(axis=(1, 2))
            count += s.x.shape[1] * s.x.shape[2]
        mean = acc / count
        var = np.maximum(acc2 / count - mean ** 2, 0.0)
        std = np.sqrt(var)
        degenerate = std <= 0.0
        if degenerate.any():
            warnings.warn(
                f"channels {np.flatnonzero(degenerate).tolist()} are constant; using std=1",
                RuntimeWarning, stacklevel=2)
            std = np.where(degenerate, 1.0, std)
        return cls(mean=mean.astype(np.float32), std=std.astype(np.float32))


def standardize(samples: list[GridSample], stats: ChannelStats) -> list[GridSample]:
    """Z-score inputs channelwise; targets and masks pass through untouched."""
    out = []
    for s in samples:
        if s.x.shape[0] != stats.mean.shape[0]:
            raise DimensionError(
                f"standardize: sample has {s.x.shape[0]} channels, stats have {stats.mean.shape[0]}")
        x = (s.x - stats.mean[:, None, None]) / stats.std[:, None, None]
        out.append(GridSample(date=s.date, x=x.astype(np.float32), y=s.y, mask=s.mask))
    return out


def batches(samples: list[GridSample], batch_size: int, stats: ChannelStats):
    """Consecutive (days, x, y, mask) batches of at most batch_size raw days in list order:
    x is (N, C, H, W), z-scored in place as ``standardize`` does; y and mask are (N, 1, H, W)."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    for start in range(0, len(samples), batch_size):
        days = samples[start:start + batch_size]
        xb = np.stack([s.x for s in days])
        xb -= stats.mean[:, None, None]
        xb /= stats.std[:, None, None]
        yield (days, xb, np.stack([s.y for s in days])[:, None],
               np.stack([s.mask for s in days])[:, None])


# ---------------------------------------------------------------------------
# synthetic generator


@dataclass(frozen=True)
class NoiseProfile:
    """Observation-noise model: constant sigma, or sigma stepping to 2x in the
    right half of the grid (columns >= W // 2)."""

    kind: str  # "homoscedastic" | "heteroscedastic"
    sigma: float = 3.0

    def __post_init__(self):
        if self.kind not in ("homoscedastic", "heteroscedastic"):
            raise ContractError(f"unknown noise kind {self.kind!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ContractError(f"noise sigma must be finite and >= 0, got {self.sigma}")

    def sigma_grid(self, h: int, w: int) -> np.ndarray:
        grid = np.full((h, w), self.sigma, dtype=np.float64)
        if self.kind == "heteroscedastic":
            grid[:, w // 2:] *= 2.0
        return grid

    @classmethod
    def parse(cls, text: str) -> "NoiseProfile":
        """CLI grammar: 'homo:SIGMA' or 'hetero' (optionally 'hetero:SIGMA')."""
        head, _, arg = text.partition(":")
        kind = {"homo": "homoscedastic", "hetero": "heteroscedastic"}.get(head)
        if kind is None or (head == "homo" and not arg):
            raise ContractError(f"noise profile {text!r} is not homo:SIGMA or hetero[:SIGMA]")
        try:
            sigma = float(arg) if arg else cls.sigma
        except ValueError:
            raise ContractError(f"noise sigma {arg!r} in {text!r} is not a number") from None
        return cls(kind, sigma)


@dataclass(frozen=True)
class GeneratorParams:
    """Everything needed to recompute the noiseless target from a sample's x."""

    target_channels: tuple[int, int, int]
    target_weights: tuple[float, float, float]
    linear_coef: float
    tanh_coef: float
    tanh_scale: float
    offsets: np.ndarray  # (C,) per-channel unit offset
    scales: np.ndarray   # (C,) per-channel unit scale


def _smooth_field(rng: np.random.Generator, h: int, w: int):
    """Amplitudes and (3, H, W) phase grids of a sum of three low-frequency sinusoids."""
    n_terms = 3
    amp = rng.uniform(0.3, 1.0, n_terms)
    fh = rng.uniform(0.2, 1.5, n_terms)
    fw = rng.uniform(0.2, 1.5, n_terms)
    phase = rng.uniform(0.0, 2.0 * math.pi, n_terms)
    rows = np.arange(h)[:, None] / max(h - 1, 1)
    cols = np.arange(w)[None, :] / max(w - 1, 1)
    return amp, np.stack([2.0 * math.pi * (fh[k] * rows + fw[k] * cols) + phase[k]
                          for k in range(n_terms)])


def _field_days(amp: np.ndarray, base: np.ndarray, drift: float, n_days: int) -> np.ndarray:
    """The field on every day: one (H, W) grid when drift is 0, else (n_days, H, W)
    by sin(base + d) = sin(base) cos(d) + cos(base) sin(d) with d = drift * day."""
    field = sum(a * np.sin(b) for a, b in zip(amp, base))
    if drift == 0.0:
        return field
    quad = sum(a * np.cos(b) for a, b in zip(amp, base))
    d = drift * np.arange(n_days)
    return np.multiply.outer(np.cos(d), field) + np.multiply.outer(np.sin(d), quad)


def _station_mask(rng: np.random.Generator, h: int, w: int, density: float) -> np.ndarray:
    """Clustered Bernoulli stations: thin the rate by a smooth positive field."""
    field = _field_days(*_smooth_field(rng, h, w), 0.0, 1)
    weight = np.exp(1.5 * (field - field.mean()) / (field.std() + 1e-12))
    prob = np.clip(density * weight / weight.mean(), 0.0, 1.0)
    mask = rng.random((h, w)) < prob
    if not mask.any():
        mask[np.unravel_index(np.argmax(prob), prob.shape)] = True
    return mask


def _dates(n_days: int) -> list[datetime.date]:
    # 30-day Junes starting 2005, mirroring a multi-year early-summer record
    return [datetime.date(2005 + d // 30, 6, 1 + d % 30) for d in range(n_days)]


def generate_synthetic(spec: RegionSpec, n_days: int, channels: int,
                       noise_profile: NoiseProfile, station_density: float,
                       seed: int) -> tuple[list[GridSample], GeneratorParams]:
    """Build a synthetic dataset with a known target function.

    Channels 0 and 1 are static north-south / east-west quarter-wave
    ramps, a block of static terrain-like fields follows, and the rest
    drift in phase day by day. The target is a weighted sum of three
    drifting channels through a mild tanh nonlinearity, plus Gaussian
    observation noise. The station mask is sampled once and shared by
    every day. Identical arguments give bitwise-identical datasets.

    Each channel is built for all days at once: a static field is one grid
    and a drifting one is sin(base) cos(d) + cos(base) sin(d), d = drift *
    day, so no sin grid is evaluated per day; a few float32 inputs differ
    by one ulp from a per-day sin(base + d).
    """
    if channels not in VALID_CHANNEL_COUNTS:
        raise ContractError(f"channels must be one of {VALID_CHANNEL_COUNTS}, got {channels}")
    if not 0.0 < station_density <= 1.0:
        raise ContractError(f"station_density must be in (0, 1], got {station_density}")
    if n_days < 1:
        raise ContractError(f"n_days must be >= 1, got {n_days}")
    h, w = spec.h, spec.w
    rng = np.random.default_rng(seed)

    n_static = max(2, channels // 4)
    rows = np.arange(h)[:, None] / max(h - 1, 1)
    cols = np.arange(w)[None, :] / max(w - 1, 1)
    fields, drifts = [np.sin(0.5 * math.pi * rows), np.sin(0.5 * math.pi * cols)], [0.0, 0.0]
    for c in range(2, channels):
        fields.append(_smooth_field(rng, h, w))
        drifts.append(0.0 if c < n_static else float(rng.uniform(0.05, 0.3)))

    # mixed physical units: per-channel affine so standardization has work to do
    scales = np.exp(rng.uniform(math.log(0.5), math.log(50.0), channels))
    offsets = rng.uniform(-2.0, 2.0, channels) * scales

    target_channels = (n_static, n_static + 1, n_static + 2)  # the first drifting channels
    if target_channels[-1] >= channels:
        raise ContractError(f"channels={channels} leaves no drifting channels for the target")
    params = GeneratorParams(
        target_channels=target_channels, target_weights=(0.8, -0.6, 0.4),
        linear_coef=6.0, tanh_coef=5.0, tanh_scale=2.0,
        offsets=offsets.astype(np.float64), scales=scales.astype(np.float64))

    mask = _station_mask(rng, h, w, station_density)
    # one channel's float64 block at a time, written straight into the float32 inputs
    x = np.empty((n_days, channels, h, w), dtype=np.float32)
    z = np.zeros((n_days, h, w))
    weights = dict(zip(params.target_channels, params.target_weights))
    for c, (field, drift) in enumerate(zip(fields, drifts)):
        raw = field if c < 2 else _field_days(*field, drift, n_days)
        x[:, c] = params.offsets[c] + params.scales[c] * raw
        if c in weights:
            z += weights[c] * raw
        del raw
    clean = params.linear_coef * z + params.tanh_coef * np.tanh(z / params.tanh_scale)
    y = clean + noise_profile.sigma_grid(h, w) * rng.standard_normal((n_days, h, w))
    y = np.where(mask, y.astype(np.float32), np.float32(np.nan))
    return [GridSample(date=date, x=x[d], y=y[d], mask=mask.copy())
            for d, date in enumerate(_dates(n_days))], params
