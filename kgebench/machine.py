"""Machine description and a memory-bandwidth baseline for the run header.

``python3 kgebench/machine.py --bytes N`` copies between two arrays of N
bytes each and prints the median copy bandwidth as JSON. The benchmark runs
it in a child process so that its large arrays never count toward the
workload's own peak RSS.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

DEFAULT_LLC_BYTES = 32 * 2**20


def last_level_cache_bytes() -> tuple[int, str]:
    """(size, source): the L3 size from ``getconf``, else a stated default."""
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
        if out.isdigit() and int(out) > 0:
            return int(out), "getconf LEVEL3_CACHE_SIZE"
    except (OSError, subprocess.SubprocessError):
        pass
    return DEFAULT_LLC_BYTES, "default (getconf unavailable)"


def copy_baseline(timeout_s: float = 120.0) -> dict:
    """Copy bandwidth over a working set of 4x the last-level cache.

    Source and destination are each twice the cache, so together they are
    four times it. Bandwidth counts bytes read plus bytes written.
    """
    llc, source = last_level_cache_bytes()
    array_bytes = 2 * llc
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--bytes", str(array_bytes)],
        capture_output=True,
        text=True,
        timeout=timeout_s,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update({"llc_bytes": llc, "llc_source": source})
    return result


def measure_copy(array_bytes: int, repeats: int = 5) -> dict:
    import numpy as np

    n = array_bytes // 8
    src = np.arange(n, dtype=np.float64)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault in every page before timing
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - t0) / 1e9)
    return {"copy_gb_per_s": median(rates), "array_bytes": src.nbytes, "repeats": repeats}


def blas_info() -> dict:
    """BLAS name, version and the thread count the library reports."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads_reported": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads_reported"] = fn()
                return info
    return info


def header_basics() -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="numpy copy bandwidth")
    parser.add_argument("--bytes", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(measure_copy(args.bytes)))


if __name__ == "__main__":
    main()
