"""The benchmark's workloads: one synthetic world and one training recipe each.

Each world is fixed per workload (the acceptance worlds of the test suite
and one paper-scale world), so training and scoring do the same work on
every run and ``heldout_rmse`` repeats exactly on one commit. The run's
``--seed`` draws the per-run requests: the closed-loop day sequence and
its dropout stream, the ``series`` station and the ``extrapolate`` days.

This module must not import numpy: ``run.py`` reads the thread counts
from it and pins them before numpy loads.
"""

from __future__ import annotations

from dataclasses import dataclass

# One BLAS thread everywhere: seed workers x BLAS threads stays within two
# cores, and a different count changes the float results of training.
BLAS_THREADS = 1
ALPHA = 0.1
T_PASSES = 30


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gen_args: tuple[str, ...]
    uq: str
    epochs: int
    seeds: tuple[int, ...]
    width: int
    depth: int
    lr: str
    deterministic: bool = True
    batch: int = 8

    @property
    def workers(self) -> int:
        """GRIDUQ_THREADS: seed-level training threads."""
        return 1 if self.deterministic else len(self.seeds)

    @property
    def train_args(self) -> tuple[str, ...]:
        args = ("--uq", self.uq, "--epochs", str(self.epochs), "--lr", self.lr,
                "--dropout", "0.1", "--batch", str(self.batch),
                "--seeds", ",".join(map(str, self.seeds)), "--alpha", str(ALPHA),
                "--base-width", str(self.width), "--depth", str(self.depth),
                "--t-passes", str(T_PASSES))
        return args + (("--deterministic",) if self.deterministic else ())


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cqr-sparse-train",
        why="training-bound: width-8 CQR fit on the sparse 420-day world, where im2col, "
            "conv backward and per-op overhead dominate; no dropout at scoring",
        gen_args=("--region", "synth", "--days", "420", "--channels", "28", "--noise", "hetero",
                  "--density", "0.05", "--seed", "4"),
        uq="cqr", epochs=2, seeds=(0,), width=8, depth=2, lr="3e-3"),
    Workload(
        name="mcd-dense-score",
        why="inference-bound: T=30 MC-dropout passes at N=1 on the dense 120-day world, "
            "in four scoring stages; backward barely runs",
        gen_args=("--region", "synth", "--days", "120", "--channels", "28", "--noise", "hetero",
                  "--density", "0.3", "--seed", "0"),
        uq="mcd", epochs=2, seeds=(0,), width=8, depth=2, lr="3e-3"),
    Workload(
        name="paper-na51-2seed",
        why="paper scale: width 32, depth 3, 51 input channels, two seeds training in two "
            "threads; wide GEMMs, more memory and GIL contention",
        gen_args=("--region", "na", "--days", "120", "--channels", "51", "--noise", "homo:3.0",
                  "--density", "0.05", "--seed", "0"),
        uq="cqr", epochs=1, seeds=(0, 1), width=32, depth=3, lr="1e-3", deterministic=False),
)}
