"""Run one benchmark workload in this process and print one JSON result line.

    python3 perfbench/run.py --workload beam_sens --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports ssmopt from `src/`. With
`--trace 0` the result holds the end-to-end metrics: `setup_s`, `wall_s`,
`peak_rss_mb` and `ok_ratio`. With `--trace 1` every operation runs once
untraced and once traced, and the result holds the per-layer metrics. The
line before the result records the machine and software the run used, and
the raw seconds behind `setup_s` and `wall_s`.
"""

from __future__ import annotations

import os

# One BLAS thread: the scipy-openblas libraries otherwise start one thread
# per CPU. This has to happen before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up is timed in this many fresh processes, this one included, and the
# median is reported; a fresh process per sample keeps caches from carrying over
SETUP_SAMPLES = 3

# the modules a workload may use; their import is part of setup_s
SSMOPT_MODULES = (
    "ssmopt",
    "ssmopt.models",
    "ssmopt.spectral",
    "ssmopt.ssm",
    "ssmopt.backbone",
    "ssmopt.sens_adjoint",
    "ssmopt.sens_direct",
    "ssmopt.optimizer",
    "ssmopt.config",
    "ssmopt.cli",
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}

# Seconds of `reference_work` on an unloaded 2-CPU x86-64 virtual machine.
# A shared host runs this process up to 1.6 times slower for minutes at a
# time, and ssmopt slows down with it; `wall_s` and every `setup_s` sample
# are rescaled by REFERENCE_S over the reference work's mean time measured
# alongside them.
REFERENCE_S = 0.015
# reference work timed right after each set-up
SETUP_REFERENCE_SAMPLES = 5
_reference_operands: list = []


def reference_work() -> float:
    """Seconds of a fixed computation that does not use ssmopt: an
    interpreter-bound loop and three small dense solves, like the mix of
    Python and BLAS work in an ssmopt operation."""
    import numpy as np

    if not _reference_operands:
        n = 300
        a = np.eye(n) * n + np.add.outer(np.arange(n), np.arange(n)) % 7
        _reference_operands[:] = [a, np.ones((n, 4))]
    a, b = _reference_operands
    start = time.perf_counter()
    sum(i * i for i in range(150_000))
    for _ in range(3):
        np.linalg.solve(a, b)
    return time.perf_counter() - start


def rescale(seconds: float, reference: list[float]) -> float:
    """`seconds` at the speed where the reference work takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.fmean(reference)


def setup_reference() -> list[float]:
    reference_work()  # first call allocates and warms up
    return [reference_work() for _ in range(SETUP_REFERENCE_SAMPLES)]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="print import plus set-up seconds")
    return p.parse_args(argv)


def import_ssmopt() -> float:
    """Import ssmopt from this checkout's src/ and return the seconds it took."""
    if not (SRC / "ssmopt" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ssmopt package under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    for name in SSMOPT_MODULES:
        importlib.import_module(name)
    elapsed = time.perf_counter() - start
    if Path(sys.modules["ssmopt"].__file__).resolve().parent != (SRC / "ssmopt").resolve():
        raise ImportError(f"ssmopt was imported from {sys.modules['ssmopt'].__file__}, not {SRC}")
    return elapsed


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes

    counts = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return counts
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def provenance(args) -> dict:
    import platform

    import numpy
    import scipy

    def blas_version(cfg):
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy.show_config(mode="dicts")),
        "scipy_blas": blas_version(scipy.show_config(mode="dicts")),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads(),
    }


def timed_setup(workload, items, workdir) -> tuple[object, float]:
    start = time.perf_counter()
    state = workload.setup(items, workdir)
    return state, time.perf_counter() - start


def run_op(workload, state, i: int) -> tuple[object, float]:
    """The i-th operation and its seconds; a typed ssmopt error is its outcome."""
    from ssmopt.errors import SsmOptError

    start = time.perf_counter()
    try:
        outcome = workload.run(state, i)
    except SsmOptError as exc:
        outcome = exc
    return outcome, time.perf_counter() - start


def timed_phase(workload, state) -> tuple[list, float, list[float]]:
    """Closed loop over the batch: the outcomes, the seconds of the
    operations, and the seconds of the reference work timed after each."""
    outcomes, wall_s, reference = [], 0.0, []
    for i in range(len(state.items)):
        outcome, op_s = run_op(workload, state, i)
        outcomes.append(outcome)
        wall_s += op_s
        reference.append(reference_work())
    return outcomes, wall_s, reference


def failures(workload, state, outcomes) -> list[str]:
    """Why each failed operation failed; `outcomes` holds (index, outcome) pairs."""
    found = []
    for i, outcome in outcomes:
        if isinstance(outcome, Exception):
            found.append(f"operation {i}: {type(outcome).__name__}: {outcome}")
        elif (why := workload.check(state, i, outcome)) is not None:
            found.append(f"operation {i}: {why}")
    return found


def measure(workload, items, workdir, import_s: float, cold_setups=()) -> tuple[dict, int, list, dict]:
    """End-to-end metrics of one set-up and the batch, and the raw timing
    behind them; `setup_s` is the median of this process's import plus
    set-up and the `cold_setups` samples, each rescaled."""
    state, setup_s = timed_setup(workload, items, workdir)
    setup_s += import_s
    setup_reference_s = setup_reference()
    outcomes, wall_s, reference = timed_phase(workload, state)
    failed = failures(workload, state, enumerate(outcomes))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timing = {
        "raw_setup_s": setup_s,
        "raw_wall_s": wall_s,
        "reference_mean_s": statistics.fmean(reference),
    }
    metrics = {
        "setup_s": statistics.median([rescale(setup_s, setup_reference_s), *cold_setups]),
        "wall_s": rescale(wall_s, reference),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_ratio": (len(outcomes) - len(failed)) / len(outcomes),
    }
    result = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return result, len(outcomes), failed, timing


def cold_setup(args) -> float:
    """Import plus set-up seconds, measured in a fresh process and rescaled."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure_traced(workload, items, workdir, span_path: Path) -> tuple[dict, int, list]:
    """Per-layer metrics from one traced set-up and a batch in which every
    operation runs twice, untraced and traced, back to back. Pairing keeps the
    machine's speed drift out of `trace.overhead_frac`; the order alternates
    so that warm-up falls on both sides."""
    from tracer import METRIC_UNITS, Tracer

    tracer = Tracer()
    with tracer:
        state, setup_s = timed_setup(workload, items, workdir)
    outcomes = []
    seconds = {False: 0.0, True: 0.0}
    for i in range(len(items)):
        for traced in (i % 2 == 1, i % 2 == 0):
            with tracer if traced else contextlib.nullcontext():
                outcome, op_s = run_op(workload, state, i)
            outcomes.append((i, outcome))
            seconds[traced] += op_s
    failed = failures(workload, state, outcomes)
    tracer.write_spans(span_path)

    metrics = tracer.layer_metrics(setup_s + seconds[True])
    metrics["trace.overhead_frac"] = seconds[True] / seconds[False] - 1.0
    result = {k: {"value": metrics[k], "unit": u} for k, u in METRIC_UNITS.items()}
    return result, len(outcomes), failed


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_ssmopt()
    except (ImportError, FileNotFoundError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    items = workload.inputs(args.seed, args.seconds)

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    timing = {}
    try:
        if args.setup_only:
            setup_s = import_s + timed_setup(workload, items, workdir)[1]
            print(rescale(setup_s, setup_reference()))
            return 0
        if args.trace:
            span_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.csv"
            metrics, attempted, failed = measure_traced(workload, items, workdir, span_path)
        else:
            cold = [cold_setup(args) for _ in range(SETUP_SAMPLES - 1)]
            metrics, attempted, failed, timing = measure(workload, items, workdir, import_s, cold)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for why in failed:
        print(f"FAILED {why}", file=sys.stderr)
    print("provenance " + json.dumps(provenance(args) | timing, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
