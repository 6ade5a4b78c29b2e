"""One BLAS thread, set from inside the process.

OpenBLAS splits a product or a solve over its threads, and the split changes
the order of its sums: the same run gives other last digits on a host with
another CPU count, or under another `OPENBLAS_NUM_THREADS`. `one_blas_thread`
sets every OpenBLAS library loaded in the process (numpy and scipy each ship
their own) to one thread through the library's own setter, so a run's numbers
do not depend on the host. `cli.main` calls it before anything else; library
users call it themselves, after importing ssmopt, which loads both libraries.
"""

import ctypes
import functools
from pathlib import Path

# (setter, getter) per OpenBLAS build: scipy-openblas with and without the
# 64-bit-integer suffix, then a plain OpenBLAS
_SYMBOLS = [
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


def one_blas_thread() -> dict:
    """Set every loaded OpenBLAS to one thread, once per process, and return
    {library file name: thread count read back}. Where the process has no
    `/proc/self/maps` or no library exports the OpenBLAS setters (MKL,
    Accelerate), it changes nothing and returns {}."""
    return dict(_set_once())


@functools.cache
def _set_once() -> dict:
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    counts = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _SYMBOLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                put, read = getattr(lib, setter), getattr(lib, getter)
                put.argtypes, put.restype = [ctypes.c_int], None
                read.argtypes, read.restype = [], ctypes.c_int
                put(1)
                counts[Path(path).name] = read()
                break
    return counts
