"""Regenerate refs.json, the reference data of the benchmark.

    python3 perfbench/make_refs.py [beam_sens] [cli_batch]

beam_sens: for every amplitude of the fixed grid, the backbone frequency and
the direct-method gradient (`sens_direct.chain_derivatives`). The benchmark
compares the adjoint gradient with it at the criterion-2 tolerance. The
direct sweep takes about 6 s per point.

cli_batch: every candidate curvature is run through `ssmopt backbone`; the
order and residual it reaches are stored, and the workload uses only the
designs that meet the tolerance. The linear frequency ratios
omega_k / omega_1, k = 2..5, are stored with each design, so that the
failing designs can be compared with internal resonances. About 1.7 s per
candidate.

Sections not named on the command line are kept as they are.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from ssmopt import backbone, models, sens_direct, spectral, ssm  # noqa: E402

import workloads  # noqa: E402


def beam_sens_refs() -> dict:
    spec = models.VkBeamSpec(**workloads.BEAM40)
    model, params = models.build_vk_beam(spec)
    exp = ssm.compute_ssm(model, spectral.solve_master(model, 0), workloads.BEAM40_ORDER)
    dof = models.vk_center_dof(spec)
    refs = {
        "model": workloads.BEAM40,
        "order": workloads.BEAM40_ORDER,
        "dof": dof,
        "params": list(params.names),
        "method": "direct",
        "x": [],
        "omega": [],
        "d_omega": [],
    }
    for x in workloads.beam40_grid():
        rho = backbone.rho_of_x(exp, dof, x)
        grad = sens_direct.chain_derivatives(model, exp, params, dof, rho).d_omega
        refs["x"].append(x)
        refs["omega"].append(backbone.omega_of_rho(exp, rho))
        refs["d_omega"].append(grad.tolist())
        print(f"beam_sens x={x:.6e} omega={refs['omega'][-1]:.12e}", flush=True)
    return refs


def cli_batch_refs() -> dict:
    wl = workloads.CliBatch(refs={})
    (HERE / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="make_refs-", dir=HERE / "out"))
    designs = []
    try:
        for i, (a1, a2) in enumerate(workloads.backbone_candidates()):
            config = workdir / f"config_{i}.json"
            config.write_text(json.dumps(wl.backbone_config(a1, a2)))
            outdir = workdir / f"out_{i}"
            rc = workloads.run_cli(["backbone", "--config", str(config), "--out", str(outdir)])
            report = json.loads((outdir / "error_report.json").read_text()) if rc == 0 else {}
            spec = models.VkBeamSpec(a1=a1, a2=a2)
            omegas = spectral.solve_modes(models.build_vk_beam(spec)[0])[0]
            designs.append(
                {
                    "a1": a1,
                    "a2": a2,
                    "exit_code": rc,
                    "order": report.get("order"),
                    "epsilon": report.get("epsilon"),
                    "omega_ratios": (omegas[1:5] / omegas[0]).tolist(),
                }
            )
            print(f"cli_batch {designs[-1]}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"eps_tol": workloads.BACKBONE_EPS_TOL, "designs": designs}


MAKERS = {"beam_sens": beam_sens_refs, "cli_batch": cli_batch_refs}


def main(argv: list[str]) -> int:
    sections = argv or list(MAKERS)
    unknown = [s for s in sections if s not in MAKERS]
    if unknown:
        print(f"unknown sections {unknown}; known: {list(MAKERS)}", file=sys.stderr)
        return 2
    path = workloads.REF_PATH
    refs = json.loads(path.read_text()) if path.is_file() else {}
    for section in sections:
        refs[section] = MAKERS[section]()
    path.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
