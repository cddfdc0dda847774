"""vifuse benchmark: one workload run, printed as metric lines plus a JSON result.

    python3 perfbench/run.py --workload batch_rtof --seed 0 --seconds 5 --trace 0

Run it from the root of a source checkout; it imports vifuse from ./src and
refuses to run without it. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One compute thread: BLAS and OpenMP pools are pinned before numpy loads,
# and the worker process inherits the same environment.
THREAD_PINNING = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}

WORKLOADS = ("batch_rtof", "batch_rto", "stream_rtof")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="seed of the generated capture")
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum wall time of the timed repeats")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True,
                   help="0: end-to-end metrics; 1: traced run with per-layer metrics")
    p.add_argument("--duration", type=float, default=60.0,
                   help="capture length in seconds at 25 fps (default 60: 1500 frames)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vifuse" / "__init__.py").is_file():
        print(f"perfbench: no vifuse sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINNING)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    import bench

    return bench.run(args, THREAD_PINNING)


if __name__ == "__main__":
    sys.exit(main())
