"""The expansion, the backbone, both gradients and the invariance residual
against references stored in `golden_numerics.json`.

The other tests compare the package with itself inside one process, so a
change that moves every number by the same amount passes them. These pin the
numbers across versions: per canonical index ||w_m|| and R_m, and at two
target amplitudes the frequency Omega, the direct and the adjoint gradients
and the residual epsilon, for the two-mass chain and a curved ten-element von
Karman beam at order 9, the beam once undamped and once with Rayleigh
damping (alpha_r 1, beta_r 1e-5), which pins the damping terms of every
pass. Everything agrees to 1e-13 relative, epsilon to 1e-10
relative above an absolute floor of 1e-15: epsilon is a ratio of a defect
that cancels to roundoff against its reference, and at epsilon ~ 1e-6 an
extended-precision evaluation of the defect moves it by about 1e-15.

Regenerate the references (only where a change is meant to move the numbers)
with

    PYTHONPATH=src python tests/test_golden_numerics.py [CASE ...]

Named cases are regenerated and the stored text of the others is kept; with
no names every case is regenerated.
"""

import json
import os
import sys
from pathlib import Path

# one BLAS thread, as in the suite (conftest.py), also when run as a script
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from ssmopt import backbone, models, sens_adjoint, sens_direct, spectral, ssm
from ssmopt.multiindex import canonical_indices

GOLDEN_PATH = Path(__file__).with_name("golden_numerics.json")
RTOL = 1e-13
EPS_RTOL = 1e-10
EPS_ATOL = 1e-15


def _chain2():
    model, params = models.build_chain(models.ChainSpec())
    return model, params, 1, (0.2, 0.5)


def _vk_beam10(**damping):
    spec = models.VkBeamSpec(a1=0.002, a2=0.001, **damping)
    model, params = models.build_vk_beam(spec)
    return model, params, models.vk_center_dof(spec), (0.002, 0.004)


CASES = {
    "chain2": _chain2,
    "vk_beam10": _vk_beam10,
    "vk_beam10_damped": lambda: _vk_beam10(alpha_r=1.0, beta_r=1e-5),
}
ORDER = 9


def golden_numerics(case: str) -> dict:
    """The quantities the references store, for one case."""
    model, params, dof, xs = CASES[case]()
    master = spectral.solve_master(model, 0)
    exp = ssm.compute_ssm(model, master, ORDER)
    indices = [m for q in range(2, ORDER + 1) for m in canonical_indices(q)]
    points = []
    for x in xs:
        rho = backbone.rho_of_x(exp, dof, x)
        adj = sens_adjoint.solve_adjoint(model, exp, dof, rho)
        points.append(
            {
                "x": x,
                "omega": backbone.omega_of_rho(exp, rho),
                "d_omega_direct": sens_direct.chain_derivatives(
                    model, exp, params, dof, rho
                ).d_omega.tolist(),
                "d_omega_adjoint": sens_adjoint.contract_gradient(
                    model, exp, adj, params
                ).d_omega.tolist(),
                "epsilon": ssm.invariance_residual(model, exp, rho).epsilon,
            }
        )
    return {
        "indices": [list(m) for m in indices],
        "w_norm": [float(np.linalg.norm(exp.w(m))) for m in indices],
        "R_re": [exp.R(m).real.tolist() for m in indices],
        "R_im": [exp.R(m).imag.tolist() for m in indices],
        "points": points,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_stored_references(golden, case):
    want, got = golden[case], golden_numerics(case)
    assert got["indices"] == want["indices"]
    np.testing.assert_allclose(got["w_norm"], want["w_norm"], rtol=RTOL, atol=0)
    R_got = np.array(got["R_re"]) + 1j * np.array(got["R_im"])
    R_want = np.array(want["R_re"]) + 1j * np.array(want["R_im"])
    np.testing.assert_allclose(R_got, R_want, rtol=RTOL, atol=0)
    for g, w in zip(got["points"], want["points"]):
        assert g["x"] == w["x"]
        assert g["omega"] == pytest.approx(w["omega"], rel=RTOL, abs=0)
        for key in ("d_omega_direct", "d_omega_adjoint"):
            np.testing.assert_allclose(g[key], w[key], rtol=RTOL, atol=0, err_msg=key)
        assert g["epsilon"] == pytest.approx(w["epsilon"], rel=EPS_RTOL, abs=EPS_ATOL)


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = set(names) - set(CASES)
    if unknown:
        sys.exit(f"unknown case(s) {sorted(unknown)}; known: {list(CASES)}")
    stored = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    # one line per stored list; json round-trips the stored floats, so a
    # kept case is written back as the same text
    blocks = []
    for case in CASES:
        data = golden_numerics(case) if case in names else stored[case]
        fields = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in data.items())
        blocks.append(f" {json.dumps(case)}: {{\n{fields}\n }}")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {GOLDEN_PATH} ({', '.join(names)} regenerated)")
