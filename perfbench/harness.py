"""One benchmark run of one workload.

An untraced run sets the world up several times, then takes turns
between training and rounds of the four scoring stages (``eval``,
``rank``, ``series``, ``extrapolate``), so that both metrics' samples
spread over the whole time budget. Every output is checked, and two
trainings must write the same bytes. A traced run trains and scores once
untraced (the MC-dropout workload then runs the closed per-day loop) and
once traced, then times the U-Net layer table. Every CLI stage runs in
process through ``griduq.cli.main``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from griduq import cli, data, export, train, uq
from griduq.errors import GridUQError

from layers import layer_table
from tracer import END, NAME, PARENT, START, THREAD, WORK, SpanView, Tracer
from workloads import ALPHA, T_PASSES, Workload

SETUP_REPEATS = 5
LOOP_DAYS = 100          # so at least ten samples lie beyond p90
LOOP_POOL_DAYS = 32
COVERAGE_TOL = 0.05      # CQR held-out coverage must lie within this of 1 - alpha
EXTRAPOLATE_DAYS = 3
RANK_TOP = 20
SCORE_STAGES = ("eval", "rank", "series", "extrapolate")

END_TO_END = {
    "setup_s": "s", "train_s": "s", "train_days_per_s": "day/s", "score_s": "s",
    "peak_rss_mb": "MB", "heldout_rmse": "ppb",
}

# Layers every workload's net has; a deeper net's extra levels appear in the
# printed table and the results file only.
COMMON_LAYERS = ("enc0a", "enc0b", "enc1a", "enc1b", "bota", "botb", "up1", "dec1a", "dec1b",
                 "up0", "dec0a", "dec0b", "head")
# Every per-layer metric is measured, and nonzero, on every workload.
PER_LAYER = (
    "cli.train_s", "cli.eval_s", "cli.rank_s", "cli.series_s", "cli.extrapolate_s",
    "data.read_dataset_s", "data.read_dataset_calls", "data.read_mb", "data.standardize_s",
    "autodiff.conv2d.fwd_s", "autodiff.conv2d.calls", "autodiff.conv_transpose2d.fwd_s",
    "autodiff.maxpool2d.fwd_s", "autodiff.dropout.fwd_s", "autodiff.relu.fwd_s",
    "autodiff.backward_s", "autodiff.adam_step_s", "autodiff.save_checkpoint_s",
    "autodiff.load_checkpoint_s", "autodiff.conv2d.gflop", "autodiff.conv2d.im2col_mb",
    *(f"layer.{name}.{d}_ms" for name in COMMON_LAYERS for d in ("fwd", "bwd")),
    "model.forward_s", "model.forward_calls", "model.forward.taped_calls",
    "model.forward.infer_calls", "losses.loss_s",
    "train.step.forward_s", "train.step.loss_s", "train.step.backward_s", "train.step.clip_s",
    "train.step.adam_s", "train.steps", "train.val_loss_s", "train.self_s",
    "train.seed_parallel_efficiency",
    "uq.predict_s", "uq.predict_calls", "uq.passes", "uq.self_s",
    "metrics.forward_calls_per_scored_day", "metrics.self_s",
    "export.write_s", "export.bytes",
    "trace.overhead_train_s", "trace.overhead_score_s", "trace.spans",
)


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), (".gflop", "GFLOP"),
                         (".bytes", "B"), ("_efficiency", "ratio"), ("_per_scored_day", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


class StageFailed(Exception):
    pass


@dataclass
class Scoring:
    """One round of the four scoring stages on one runs directory."""

    out: Path
    runs: Path
    stage_s: dict = field(default_factory=dict)
    rmse: float = float("nan")

    @property
    def score_s(self) -> float:
        return sum(self.stage_s.values())


class Run:
    """The work directory, the per-run request choices and the operation counts."""

    def __init__(self, wl: Workload, seed: int, root: Path):
        self.wl = wl
        self.seed = seed
        self.work = root / ".perfbench_work" / f"{wl.name}-seed{seed}-pid{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.timings: dict[str, list[float]] = {}  # every sample of a metric, for the results file
        self.rng = np.random.default_rng([seed, 2])

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def stage(self, *argv) -> float:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # garbage of earlier stages is not this stage's time
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        elapsed = time.perf_counter() - start
        if not self.check(rc == 0, f"stage {argv[0]} returned {rc}: {err.getvalue().strip()}"):
            raise StageFailed(argv[0])
        return elapsed

    # -- set-up ---------------------------------------------------------------

    def setup(self, repeats: int) -> list[float]:
        """Generate, read and warm BLAS ``repeats`` times; keeps the last world."""
        times = []
        for k in range(repeats):
            world = self.work / f"world{k}"
            start = time.perf_counter()
            self.stage("gen", *self.wl.gen_args, "--out", world)
            samples, spec = data.read_dataset(world)
            _warm_blas()
            times.append(time.perf_counter() - start)
            if k:
                shutil.rmtree(self.world)
            self.world, self.samples, self.spec = world, samples, spec
        self._choose_requests()
        return times

    def _choose_requests(self) -> None:
        wl = self.wl
        parts = data.split(self.samples, train.TRAIN_FRAC, calib=wl.uq == "cqr", seed=wl.seeds[0])
        self.n_train, self.n_val = len(parts[0]), len(parts[-1])
        stations = np.argwhere(self.samples[0].mask)
        row, col = stations[self.rng.integers(len(stations))]
        self.lat, self.lon = self.spec.cell_center(int(row), int(col))
        days = self.rng.choice(self.n_val, size=EXTRAPOLATE_DAYS, replace=False) + 1
        self.days = ",".join(str(d) for d in sorted(days))

    # -- training and scoring ------------------------------------------------------

    def train(self, i: int) -> tuple[Path, float]:
        runs = self.work / f"runs{i}"
        return runs, self.stage("train", "--data", self.world, *self.wl.train_args, "--out", runs)

    def score(self, runs: Path, i: int) -> Scoring:
        sc = Scoring(out=self.work / f"out{i}", runs=runs)
        sc.out.mkdir(parents=True)
        common = ("--data", self.world, "--runs", runs)
        sc.stage_s["eval"] = self.stage("eval", *common, "--out", sc.out / "report.txt")
        sc.stage_s["rank"] = self.stage("rank", *common, "--top", RANK_TOP,
                                        "--out", sc.out / "ranks.csv")
        sc.stage_s["series"] = self.stage("series", *common, "--lat", repr(self.lat),
                                          "--lon", repr(self.lon), "--out", sc.out / "series.csv")
        sc.stage_s["extrapolate"] = self.stage("extrapolate", *common, "--days", self.days,
                                               "--out", sc.out / "maps")
        sc.rmse = self.check_outputs(sc.out)
        return sc

    def check_outputs(self, out: Path) -> float:
        report = _read_report(out / "report.txt")
        rmse = float(report.get("rmse_mean", "nan"))
        self.check(math.isfinite(rmse), f"eval rmse_mean is {rmse}")
        if self.wl.uq == "cqr":
            cov = float(report.get("coverage", "nan"))
            self.check(abs(cov - (1.0 - ALPHA)) <= COVERAGE_TOL,
                       f"CQR held-out coverage {cov} not within {COVERAGE_TOL} of {1.0 - ALPHA}")
        else:
            lo = float(report.get("epistemic_min", "nan"))
            hi = float(report.get("epistemic_max", "nan"))
            self.check(math.isfinite(hi) and 0.0 <= lo <= hi,
                       f"MCD epistemic variance range [{lo}, {hi}]")
        rows = len((out / "series.csv").read_text().splitlines()) - 1
        self.check(0 < rows <= self.n_val, f"series wrote {rows} rows for a station cell")
        for day in self.days.split(","):
            path = out / "maps" / f"uq_day{int(day):02d}.csv"
            try:
                grid = export.read_grid_csv(path)
            except (OSError, GridUQError) as err:
                self.check(False, f"{path.name}: {err}")
                continue
            ok = (grid.shape == (self.spec.h, self.spec.w) and bool(np.isfinite(grid).all())
                  and (self.wl.uq == "cqr" or bool((grid >= 0).all())))
            self.check(ok, f"{path.name}: grid {grid.shape} is not a finite (H, W) UQ map")
        return rmse

    # -- closed per-day loop -------------------------------------------------------

    def mc_closed_loop(self, runs: Path) -> list[float]:
        """One client asks for T-pass MC-dropout UQ of one standardized day and
        sends the next day only after the previous one returned, LOOP_DAYS
        times after one uncounted warm-up request."""
        record = train.read_runs_log(runs)[0]
        config, _ = train.read_run_config(runs)
        params, stats = train.load_run_params(runs, record)
        picks = self.rng.choice(len(self.samples), size=LOOP_POOL_DAYS, replace=False)
        pool = [s.x for s in data.standardize([self.samples[i] for i in picks], stats)]
        rng = np.random.default_rng([self.seed, 11])
        uq.mc_dropout_predict(params, pool[0], config.t_passes, rng)  # warm-up, not counted
        latencies = []
        for _ in range(LOOP_DAYS):
            x = pool[self.rng.integers(len(pool))]
            start = time.perf_counter()
            pred = uq.mc_dropout_predict(params, x, config.t_passes, rng)
            latencies.append(time.perf_counter() - start)
            self.check(bool(np.isfinite(pred.mean).all() and np.isfinite(pred.epistemic).all()
                            and (pred.epistemic >= 0).all()),
                       "MC day request returned a non-finite or negative epistemic grid")
        return latencies

    # -- determinism ----------------------------------------------------------------

    def check_determinism(self, runs_a: Path, runs_b: Path, scorings: list[Scoring]) -> int:
        """Byte-compare the checkpoints of two trainings and the exports scored
        from each; returns the number of files compared. If no scoring round
        used the second training, ``extrapolate`` re-runs on it instead."""
        out_a = next(sc.out for sc in scorings if sc.runs == runs_a)
        out_b = next((sc.out for sc in scorings if sc.runs == runs_b), None)
        if out_b is None:
            out_b = self.work / "out-replay"
            self.stage("extrapolate", "--data", self.world, "--runs", runs_b,
                       "--days", self.days, "--out", out_b / "maps")
        compared = 0
        for a, b in ((runs_a, runs_b), (out_a, out_b)):
            for path in sorted(p for p in b.rglob("*") if p.is_file()):
                rel = path.relative_to(b)
                if rel.name == train.RUNS_LOG_NAME:  # holds wall times
                    continue
                twin = a / rel
                self.check(twin.is_file() and twin.read_bytes() == path.read_bytes(),
                           f"determinism: {rel} differs between two identical trainings")
                compared += 1
        return compared


def _warm_blas() -> None:
    a = np.ones((4096, 256), dtype=np.float32)
    b = np.ones((256, 16), dtype=np.float32)
    for _ in range(3):
        a @ b


def _read_report(path: Path) -> dict[str, str]:
    fields = {}
    for line in path.read_text().splitlines():
        if not line:
            break
        key, _, value = line.partition("=")
        fields[key] = value
    return fields


# ---------------------------------------------------------------------------
# environment


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GRIDUQ_THREADS": os.environ.get("GRIDUQ_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(root),
    }


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def measure(run: Run, seconds: float, lines: list[str]) -> dict:
    wl = run.wl
    m: dict = {}

    def sample(name: str, values: list[float]) -> None:
        run.timings[name] = values
        m[name] = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        lines.append(f"{name} median {m[name]:.6g} {END_TO_END[name]} "
                     f"[q1 {q1:.6g}, q3 {q3:.6g}] n={len(values)}")

    sample("setup_s", run.setup(SETUP_REPEATS))
    trains: list[tuple[Path, float]] = []
    scorings: list[Scoring] = []

    def do_train() -> None:
        trains.append(run.train(len(trains)))

    def do_score() -> None:
        # round-robin over the trainings so far, for the determinism check
        scorings.append(run.score(trains[len(scorings) % len(trains)][0], len(scorings)))

    # Each turn goes to the activity that has had the least time so far, of
    # those whose last turn would still end before the deadline; after it,
    # only an activity short of its minimum runs: two trainings (the
    # determinism check compares two) and one scoring round.
    turns = {"train": (do_train, lambda: len(trains) >= 2),
             "score": (do_score, lambda: len(scorings) >= 1)}
    spent = dict.fromkeys(turns, 0.0)
    last = dict.fromkeys(turns, 0.0)
    deadline = time.perf_counter() + seconds
    while True:
        now = time.perf_counter()
        ready = [k for k, (_, enough) in turns.items()
                 if not enough() or now + last[k] <= deadline]
        if not ready:
            break
        kind = min(ready, key=spent.get)  # ties go to training, which comes first
        start = time.perf_counter()
        turns[kind][0]()
        last[kind] = time.perf_counter() - start
        spent[kind] += last[kind]
    lines.append("time spent: " + ", ".join(f"{k} {v:.1f} s" for k, v in spent.items()))
    compared = run.check_determinism(trains[0][0], trains[1][0], scorings)

    train_s = [t for _, t in trains]
    train_days = run.n_train * wl.epochs * len(wl.seeds)
    sample("train_s", train_s)
    sample("train_days_per_s", [train_days / t for t in train_s])
    sample("score_s", [sc.score_s for sc in scorings])
    for stage in SCORE_STAGES:
        values = [sc.stage_s[stage] for sc in scorings]
        lines.append(f"  {stage} median {statistics.median(values):.4f} s n={len(values)}")
    sample("heldout_rmse", [sc.rmse for sc in scorings])
    lines.append(f"determinism: {compared} checkpoint and export files byte-compared")
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append(f"peak_rss_mb {m['peak_rss_mb']:.1f} MB (whole process)")
    return m


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def trace_run(run: Run, lines: list[str], spans_path: Path) -> tuple[dict, list[dict]]:
    wl = run.wl
    run.setup(1)
    plain_runs, plain_train_s = run.train(0)
    plain = run.score(plain_runs, 0)
    if wl.uq == "mcd":
        ms = np.asarray(run.mc_closed_loop(plain_runs)) * 1e3
        m_loop = dict(zip(("mc_day_ms_p50", "mc_day_ms_p90"), map(float, np.percentile(ms, [50, 90]))))
        lines.append(f"mc_day_ms_p50 {m_loop['mc_day_ms_p50']:.4f} ms, mc_day_ms_p90 "
                     f"{m_loop['mc_day_ms_p90']:.4f} ms, n={len(ms)} days (closed loop, one client, "
                     f"mc_dropout_predict T={T_PASSES}, tracer off; not in BENCHMARK.json)")
    else:
        m_loop = {}
    tracer = Tracer()
    missing = tracer.install()
    run.check(not missing, f"tracer: bindings left unwrapped: {missing}")
    try:
        traced_runs, traced_train_s = run.train(1)
        traced = run.score(traced_runs, 1)
    finally:
        tracer.uninstall()
    view = SpanView(tracer.spans)
    run.check(view.nesting_errors == 0,
              f"tracer: {view.nesting_errors} spans lie outside their parent span")

    m = derive_layer_metrics(tracer.spans, view, run, lines)
    fit_wall = sum(r.wall_time_s for r in train.read_runs_log(plain_runs))
    m["cli.train_s"] = traced_train_s
    m["train.seed_parallel_efficiency"] = fit_wall / (wl.workers * plain_train_s)
    m["trace.overhead_train_s"] = traced_train_s - plain_train_s
    m["trace.overhead_score_s"] = traced.score_s - plain.score_s
    m["trace.spans"] = len(tracer.spans)

    config, in_channels = train.read_run_config(plain_runs)
    n = 1 if wl.uq == "mcd" else wl.batch
    table = layer_table(config.model_config(in_channels), run.spec.h, run.spec.w, n=n,
                        taped=wl.uq != "mcd")
    for row in table:
        m[f"layer.{row['layer']}.fwd_ms"] = row["fwd_ms"]
        m[f"layer.{row['layer']}.bwd_ms"] = row["bwd_ms"]

    lines.append("per-layer, traced train and scoring (times summed over threads):")
    lines.extend(f"  {k} {m[k]:.6g} {unit_of(k)}" for k in sorted(m) if not k.startswith("layer."))
    lines.append("stage accounting, total = self + children:")
    for rec in tracer.spans:
        if rec[PARENT] is None and rec[NAME].startswith("cli."):
            total, own = rec[END] - rec[START], view.self_s[id(rec)]
            lines.append(f"  {rec[NAME]} {total:.4f} s = {own:.4f} s + {total - own:.4f} s")
    mode = "taped forward" if wl.uq != "mcd" else "untaped forward"
    lines.append(f"layer table at N={n}, {mode}; gflop and mb computed from shapes:")
    lines.extend(f"  {r['layer']:6s} {r['op']:16s} {r['shape']:22s} fwd {r['fwd_ms']:8.3f} ms  "
                 f"bwd {r['bwd_ms']:8.3f} ms  {r['gflop']:8.4f} GFLOP  {r['mb']:7.2f} MB"
                 for r in table)
    _write_spans(tracer.spans, spans_path)
    return m | m_loop, table


def derive_layer_metrics(spans: list[list], view: SpanView, run: Run, lines: list[str]) -> dict:
    """Per-layer figures from the spans under the traced CLI stages."""
    wl = run.wl
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, list] = {}
    own: dict[str, float] = {}   # self time per module
    part: dict[str, float] = {}  # time of spans in a named role
    count: dict[str, int] = {}   # calls of spans in a named role
    eval_predicts = eval_passes = eval_forwards = 0

    def add(role: str, seconds: float) -> None:
        part[role] = part.get(role, 0.0) + seconds
        count[role] = count.get(role, 0) + 1

    step_roles = {"autodiff.backward": "train.step.backward", "train.clip_grad_norm":
                  "train.step.clip", "autodiff.adam_step": "train.step.adam"}
    for rec in spans:
        key = id(rec)
        stage = view.stage[key]
        if stage is None:
            continue
        name, dur, anc = rec[NAME], rec[END] - rec[START], view.ancestors[key]
        module = name.split(".", 1)[0]
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        own[module] = own.get(module, 0.0) + view.self_s[key]
        if rec[WORK] is not None:
            work.setdefault(name, []).append(rec[WORK])
        in_step = "train.fit" in anc and "train._pooled_loss" not in anc
        if name == "model.forward":
            add("model.forward.taped" if in_step else "model.forward.infer", dur)
            if in_step:
                add("train.step.forward", dur)
            if any(a.startswith("uq.") for a in anc):
                add("uq.passes", dur)
            eval_forwards += stage == "cli.eval"
        elif module == "losses" and not any(a.startswith("losses.") for a in anc):
            add("losses.loss", dur)
            if in_step:
                add("train.step.loss", dur)
        elif name == "model.gaussian_moments" and in_step:
            add("train.step.loss", dur)
        elif name in ("uq.mc_dropout_predict", "uq.cqr_predict"):
            add("uq.predict", dur)
            if stage == "cli.eval":
                eval_predicts += 1
                eval_passes += rec[WORK] if rec[WORK] is not None else 1
        elif name.startswith("export.write_"):
            add("export.write", dur)
            add("export.bytes", rec[WORK])
        elif in_step and name in step_roles:
            add(step_roles[name], dur)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    conv = work.get("autodiff.conv2d", [])
    scored = run.n_val * len(wl.seeds)
    m = {f"cli.{s}_s": t(f"cli.{s}") for s in SCORE_STAGES}
    m.update({f"autodiff.{op}.fwd_s": t(f"autodiff.{op}")
              for op in ("conv2d", "conv_transpose2d", "maxpool2d", "dropout", "relu")})
    m.update({f"{module}.self_s": value for module, value in own.items()})
    m.update({
        "data.read_dataset_s": t("data.read_dataset"),
        "data.read_dataset_calls": calls.get("data.read_dataset", 0),
        "data.read_mb": sum(work.get("data.read_dataset", [])) / 1e6,
        "data.standardize_s": t("data.standardize"),
        "autodiff.conv2d.calls": calls.get("autodiff.conv2d", 0),
        "autodiff.conv2d.gflop": sum(f for f, _ in conv) / 1e9,
        "autodiff.conv2d.im2col_mb": sum(b for _, b in conv) / 1e6,
        "autodiff.backward_s": t("autodiff.backward"),
        "autodiff.adam_step_s": t("autodiff.adam_step"),
        "autodiff.save_checkpoint_s": t("autodiff.save_checkpoint"),
        "autodiff.load_checkpoint_s": t("autodiff.load_checkpoint"),
        "model.forward_s": t("model.forward"),
        "model.forward_calls": calls.get("model.forward", 0),
        "model.forward.taped_s": part.get("model.forward.taped", 0.0),
        "model.forward.taped_calls": count.get("model.forward.taped", 0),
        "model.forward.infer_s": part.get("model.forward.infer", 0.0),
        "model.forward.infer_calls": count.get("model.forward.infer", 0),
        "losses.loss_s": part.get("losses.loss", 0.0),
        "train.step.forward_s": part.get("train.step.forward", 0.0),
        "train.step.loss_s": part.get("train.step.loss", 0.0),
        "train.step.backward_s": part.get("train.step.backward", 0.0),
        "train.step.clip_s": part.get("train.step.clip", 0.0),
        "train.step.adam_s": part.get("train.step.adam", 0.0),
        "train.steps": count.get("train.step.adam", 0),
        "train.val_loss_s": t("train._pooled_loss"),
        "train.calibrate_s": t("uq.cqr_calibrate"),
        "uq.predict_s": part.get("uq.predict", 0.0),
        "uq.predict_calls": count.get("uq.predict", 0),
        "uq.passes": count.get("uq.passes", 0),
        "uq.mc_dropout_predict_s": t("uq.mc_dropout_predict"),
        "uq.mc_passes": sum(work.get("uq.mc_dropout_predict", [])),
        "uq.aggregate_s": t("uq.aggregate_mc_passes"),
        "uq.cqr_predict_s": t("uq.cqr_predict"),
        "uq.conformity_scores_s": t("uq.conformity_scores"),
        "metrics.forward_calls_per_scored_day": eval_forwards / eval_passes if eval_passes else 0.0,
        "export.write_s": part.get("export.write", 0.0),
        "export.bytes": part.get("export.bytes", 0.0),
    })
    lines.append(f"metrics.forward_calls_per_scored_day base: {eval_forwards} forwards in eval "
                 f"/ {eval_passes} passes asked for ({scored} held-out days x seeds)")

    # span counts against counts derived from the workload
    steps = math.ceil(run.n_train / wl.batch) * wl.epochs * len(wl.seeds)
    run.check(eval_predicts == scored,
              f"tracer: {eval_predicts} uq predictions in eval, expected {scored} "
              "(held-out days x seeds)")
    passes = T_PASSES if wl.uq == "mcd" else 1
    run.check(eval_passes == scored * passes,
              f"tracer: {eval_passes} passes asked for in eval, expected {scored * passes}")
    run.check(m["train.steps"] == steps and m["model.forward.taped_calls"] == steps,
              f"tracer: {m['train.steps']} Adam steps and {m['model.forward.taped_calls']} "
              f"taped forwards, expected {steps} (batches x epochs x seeds)")
    return m


def _write_spans(spans: list[list], path: Path) -> None:
    names: dict[str, int] = {}
    threads: dict[int, int] = {}
    index = {id(rec): i for i, rec in enumerate(spans)}
    rows = [[names.setdefault(rec[NAME], len(names)), rec[START], rec[END],
             index[id(rec[PARENT])] if rec[PARENT] is not None else -1,
             threads.setdefault(rec[THREAD], len(threads)), rec[WORK]] for rec in spans]
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "thread", "work"],
                                "names": list(names), "spans": rows}))


# ---------------------------------------------------------------------------


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload; prints the human-readable lines and returns the result object."""
    run = Run(wl, seed, root)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    env = environment(root)
    lines = [f"workload {wl.name} seed {seed} seconds {seconds} trace {int(trace)}",
             "env " + " ".join(f"{k}={v}" for k, v in env.items())]
    metrics: dict = {}
    table = None
    try:
        run.work.mkdir(parents=True)
        if trace:
            metrics, table = trace_run(run, lines, out_dir / f"{stem}-spans.json")
        else:
            metrics = measure(run, seconds, lines)
    except StageFailed:
        pass
    except Exception:  # noqa: BLE001 - a crash is a failed operation, reported below
        traceback.print_exc()
        run.check(False, "benchmark run raised")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    names = PER_LAYER if trace else tuple(END_TO_END)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k) if trace else END_TO_END[k]}
                    for k in names if k in metrics},
    }
    lines.append(f"operations attempted {run.attempted}, failed {run.failed}")
    print("\n".join(lines))
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"env": env, "lines": lines, "result": result, "all_metrics": metrics,
         "samples": run.timings,
         "layer_table": table}, indent=1))
    return result
