"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Every workload runs once at minimal size (`--seconds 1`), untraced and
   traced, each in its own process; each result must be correct and name
   every metric of BENCHMARK.json with its unit.
2. A deliberately corrupted beam_sens reference value must lower `ok_ratio`,
   which shows that the correctness checks can fail.
3. A directory holding only BENCHMARK.json and the benchmark must make
   run.py exit non-zero without printing a result.

The whole test takes about two minutes on a 2-CPU machine. beam_tailor is
not in BENCHMARK.json, so it is not run here.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
problems: list[str] = []


def expect(ok: bool, what: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        problems.append(what)


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics_emitted(spec: dict):
    for entry in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{entry['name']} --trace {trace}"
            proc = run_benchmark(ROOT, entry["name"], trace)
            if proc.returncode != 0:
                expect(False, f"{name} exits 0 (got {proc.returncode}: {proc.stderr[-500:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == RESULT_KEYS, f"{name}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name}: correct, {result['failed']} of {result['attempted']} failed")
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            expect(set(metrics) == set(wanted), f"{name}: emits exactly the {group} metrics")
            for metric, unit in wanted.items():
                got = metrics.get(metric, {})
                value = got.get("value")
                expect(got.get("unit") == unit and isinstance(value, (int, float))
                       and math.isfinite(value), f"{name}: {metric} in {unit}")


def check_corrupted_reference():
    import workloads

    refs = workloads.load_refs()["beam_sens"]
    probe = workloads.BeamSens(refs)
    items = probe.inputs(1, 1)
    for field in ("omega", "d_omega"):
        bad = copy.deepcopy(refs)
        g = items[0]
        if field == "omega":
            bad["omega"][g] *= 1.0 + 1e-6
        else:
            bad["d_omega"][g][0] *= 1.0 + 1e-6
        workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
        try:
            metrics, attempted, failed, _ = run.measure(workloads.BeamSens(bad), items, workdir, 0.0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        expect(bool(failed) and metrics["ok_ratio"]["value"] < 1.0,
               f"corrupted {field} reference lowers ok_ratio "
               f"(got {metrics['ok_ratio']['value']}, {len(failed)} of {attempted} failed)")


def check_refuses_without_program():
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-bare-", dir=run.OUT) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_benchmark(bare, "chain_sens", 0)
        printed_result = proc.stdout.strip().startswith("{") or '"metrics"' in proc.stdout
        expect(proc.returncode != 0 and not printed_result,
               f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    run.import_ssmopt()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refuses_without_program()
    check_corrupted_reference()
    check_metrics_emitted(spec)
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
