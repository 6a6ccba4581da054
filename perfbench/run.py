"""griduq benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload cqr-sparse-train --seed 0 --seconds 30 --trace 0

Run from the root of a griduq checkout; the program is imported from its
``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is
the result as one JSON object. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import BLAS_THREADS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time after set-up; the first cycle always completes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    # thread counts must be fixed before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["GRIDUQ_THREADS"] = str(wl.workers)

    src = ROOT / "src"
    if not (src / "griduq" / "__init__.py").is_file():
        print(f"error: {src / 'griduq'} not found; run from a griduq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import griduq
    if Path(griduq.__file__).resolve().parent != (src / "griduq").resolve():
        print(f"error: imported griduq from {griduq.__file__}, not {src}", file=sys.stderr)
        return 2

    from harness import run_workload
    result = run_workload(wl, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
