"""ls3dconv benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload train-ls3d --seed 1 --seconds 15 --trace 0

Run from the repository root. `--trace 0` prints the end-to-end metrics;
`--trace 1` prints the per-layer metrics of a separate traced pass (and
writes its spans to perfbench/out/). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The benchmark sets no BLAS thread count of its own.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train-ls3d", "train-plain", "denoise-infer")


def blas_info(np):
    """(OpenBLAS version, thread count in effect); None where unknown."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return blas.get("version"), threads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "ls3dconv", "__init__.py")):
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import numpy as np
    import workloads

    import_s = time.perf_counter() - T_START
    outcome, e2e, per_layer, counts = workloads.run(args.workload, args.seed, args.seconds,
                                                    bool(args.trace), import_s)
    openblas, threads = blas_info(np)
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": os.cpu_count(), "blas_threads": threads,
           "numpy": np.__version__, "openblas": openblas, "python": platform.python_version(),
           **counts}
    print("env " + json.dumps(env))
    for name, (value, unit) in {**e2e, **(per_layer or {})}.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    shown = per_layer if args.trace else e2e
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
