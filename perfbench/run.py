#!/usr/bin/env python3
"""Run one benchmark workload against the viewgan sources of this checkout.

    python3 perfbench/run.py --workload train-accept --seed 7 --seconds 20 --trace 0

Prints a machine record, the checks, the output digest and every metric by
name with its unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a traced pass. Exits 2 without a result when the checkout holds no
``src/viewgan``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("train-accept", "experiment-accept", "verify-oracles", "cli-files")

# One BLAS thread per process, set before numpy loads: at the model's matrix
# sizes more threads buy no speed (README.md, "Machine record"), and one
# thread per process leaves the other cores to worker processes.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's acceptance seed)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="repeat the timed section until this much time is measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "accept", "toy"), default="bench",
                    help="accept: the acceptance sizes, run once; toy: smoke-test sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "viewgan" / "__init__.py").is_file():
        print(f"error: no viewgan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import viewgan
    if Path(viewgan.__file__).resolve().parent != ROOT / "src" / "viewgan":
        print(f"error: imported viewgan from {viewgan.__file__}", file=sys.stderr)
        return 2

    import bench_workloads

    machine = machine_record(np)
    print("machine " + json.dumps(machine, sort_keys=True))
    record = bench_workloads.execute(args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.size, OUT_DIR)
    record["machine"] = machine
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{record['seed']}-trace{args.trace}-{args.size}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")

    checks = record["checks"]
    failed = sum(not ok for _, ok in checks)
    print(f"workload={args.workload} seed={record['seed']} size={args.size} "
          f"units={record['units']} digest={record['digest']}")
    print(f"quality accuracy={record['accuracy']!r} fake_rate={record['fake_rate']!r} "
          f"ungated_accuracy={record['ungated_accuracy']!r}")
    print(f"checks attempted={len(checks)} failed={failed} "
          f"error_rate={failed / len(checks)!r}")
    for check, ok in checks:
        if not ok:
            print(f"check FAILED: {check}")
    for metric, entry in record["metrics"].items():
        print(f"metric {metric} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
