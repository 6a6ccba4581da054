"""Command line entry point.

Subcommands: gen, train, eval, rank, series, extrapolate. The
GRIDUQ_THREADS environment variable caps seed-level parallelism during
training; --deterministic forces a single worker for bitwise-identical
reruns. Everything downstream of training is single-threaded and
deterministic by construction, and reads only the day files it scores.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import data, export, metrics, train
from .errors import GridUQError


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="griduq",
        description="Uncertainty-aware emulation of gridded surface-ozone bias")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset directory")
    gen.set_defaults(run=_cmd_gen)
    gen.add_argument("--region", choices=("na", "eu", "synth"), required=True)
    gen.add_argument("--days", type=int, required=True)
    gen.add_argument("--channels", type=int, choices=(28, 51), default=28)
    gen.add_argument("--noise", default="homo:3.0", help="homo:SIGMA or hetero")
    gen.add_argument("--density", type=float, default=0.05)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--height", type=int, default=None, help="synth region rows")
    gen.add_argument("--width", type=int, default=None, help="synth region cols")

    tr = sub.add_parser("train", help="train one model per seed")
    # each TrainConfig field is the dest of one flag, whose default is the field's
    # (uq_method has none, and --uq is required)
    tr.set_defaults(run=_cmd_train, **{f.name: f.default for f in fields(train.TrainConfig)})
    tr.add_argument("--data", required=True)
    tr.add_argument("--uq", dest="uq_method", choices=(train.UQ_MCD, train.UQ_CQR),
                    required=True)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--lr", type=float)
    tr.add_argument("--dropout", dest="dropout_rate", type=float)
    tr.add_argument("--batch", dest="batch_size", type=int)
    tr.add_argument("--seeds", type=_parse_int_list)
    tr.add_argument("--alpha", type=float)
    tr.add_argument("--out", required=True)
    tr.add_argument("--base-width", type=int)
    tr.add_argument("--depth", type=int)
    tr.add_argument("--t-passes", type=int)
    tr.add_argument("--deterministic", action="store_true",
                    help="single-threaded, bitwise-reproducible run")

    scoring = {}
    for name, run, text in (("eval", _cmd_eval, "score runs on their held-out days"),
                            ("rank", _cmd_rank, "rank station cells by mean UQ score"),
                            ("series", _cmd_series, "observed vs predicted band at a station"),
                            ("extrapolate", _cmd_extrapolate, "full-grid UQ maps for selected days")):
        scoring[name] = sub.add_parser(name, help=text)
        scoring[name].set_defaults(run=run)
        for flag in ("--data", "--runs", "--out"):
            scoring[name].add_argument(flag, required=True)
    scoring["rank"].add_argument("--top", type=int, required=True)
    scoring["series"].add_argument("--lat", type=float, required=True)
    scoring["series"].add_argument("--lon", type=float, required=True)
    scoring["extrapolate"].add_argument(
        "--days", type=_parse_int_list, required=True,
        help="1-based indices into the held-out days, e.g. 1,7,15,21,30")
    return parser


def _cmd_gen(args) -> int:
    dims = {k: v for k, v in (("h", args.height), ("w", args.width)) if v is not None}
    if args.region != "synth" and dims:
        raise GridUQError("--height/--width only apply to --region synth")
    regions = {"na": data.region_north_america, "eu": data.region_europe,
               "synth": data.region_synthetic}
    spec = regions[args.region](**dims)  # synth's own defaults fill a missing dimension
    noise = data.NoiseProfile.parse(args.noise)
    samples, _ = data.generate_synthetic(spec, args.days, args.channels, noise,
                                         args.density, args.seed)
    data.write_dataset(samples, spec, args.out)
    n_stations = int(samples[0].mask.sum())
    print(f"wrote {len(samples)} days of {spec.h}x{spec.w}x{args.channels} "
          f"({n_stations} stations) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = train.TrainConfig(**{f.name: getattr(args, f.name) for f in fields(train.TrainConfig)})
    samples, _ = data.read_dataset(args.data)
    records, failures = train.train_all_seeds(config, samples, args.out,
                                              deterministic=args.deterministic)
    for rec in records:
        print(f"seed {rec.seed}: best_val_loss={rec.best_val_loss:.6g} "
              f"(epoch {rec.best_epoch}), {rec.wall_time_s:.1f}s")
    if records:
        mean, variance, _ = train.population_stats([rec.best_val_loss for rec in records])
        print(f"val loss mean={mean:.6g} variance={variance:.6g} over {len(records)} seeds")
    for seed, msg in failures:
        print(f"seed {seed} FAILED: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_eval(args) -> int:
    samples, spec = data.open_dataset(args.data)
    report = metrics.evaluate_runs(samples, spec, args.runs)
    export.write_report(report, args.out)
    print(f"wrote report to {args.out} (rmse_mean={report.rmse_mean:.6g})")
    return 0


def _cmd_rank(args) -> int:
    if args.top < 1:
        raise GridUQError("--top must be >= 1")
    samples, spec = data.open_dataset(args.data)
    rows = metrics.rank_for_runs(samples, spec, args.runs)[:args.top]
    export.write_ranks_csv(rows, args.out)
    print(f"wrote top {len(rows)} stations to {args.out}")
    return 0


def _cmd_series(args) -> int:
    samples, spec = data.open_dataset(args.data)
    (row, col), rows = metrics.series_for_runs(samples, spec, args.runs, args.lat, args.lon)
    export.write_series_csv(rows, args.out)
    print(f"wrote {len(rows)} rows for cell ({row}, {col}) to {args.out}")
    return 0


def _cmd_extrapolate(args) -> int:
    samples, spec = data.open_dataset(args.data)
    maps = metrics.extrapolate_for_runs(samples, args.runs, args.days)
    for day, date, grid in maps:
        stem = Path(args.out) / f"uq_day{day:02d}"
        export.write_heatmap(grid, stem.with_suffix(".ppm"))
        export.write_grid_csv(grid, spec, stem.with_suffix(".csv"))
        print(f"day {day} ({date.isoformat()}): {stem}.ppm, {stem}.csv")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (GridUQError, OSError) as err:  # OSError: an output path the OS refuses
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
