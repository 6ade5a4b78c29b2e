"""Both gradient methods against an independent reference: Ridders'
extrapolated central differences of the backbone response
(`oracles.ridders_gradient` through `fdcheck.backbone_response`).

The adjoint and the direct method read one record of explicit parameter
partials (`SsmExpansion.partials`), the expansion's records and its tables,
so criterion 2's adjoint-against-direct check cannot see a fault in what
they share. The reference differentiates the primal alone. On these cases
both methods read 1.3e-13 to 2.5e-13 normwise against it, and the bound is
1e-11. Scaling every pC of the partials record by 1 + 1e-4 reads 6e-10 to
8.5e-10 on the chains, while adjoint against direct stays below 1e-15 (the
undamped Duffing oscillator's pC vanish).
"""

from dataclasses import replace

import numpy as np
import pytest

from ssmopt.backbone import rho_of_x
from ssmopt.fdcheck import backbone_response
from ssmopt.models import ChainSpec, build_chain
from ssmopt.optimizer import GRADIENTS
from ssmopt.spectral import solve_master
from ssmopt.ssm import compute_ssm

from oracles import ridders_gradient

BOUND = 1e-11
CHAIN_PARAMS = ("mass", "k", "k2", "k3")

# name -> (spec, design parameters, order, DOF, target amplitude)
CASES = {
    "chain2_o5": (ChainSpec(n_masses=2, beta_r=0.1), CHAIN_PARAMS, 5, 1, 0.2),
    "chain2_o7": (ChainSpec(n_masses=2, beta_r=0.1), CHAIN_PARAMS, 7, 1, 0.2),
    "chain3_o7": (ChainSpec(n_masses=3, beta_r=0.1), CHAIN_PARAMS, 7, 2, 0.2),
    "duffing_o7": (ChainSpec(n_masses=1, k2=0.0, k3=0.1, beta_r=0.0), ("k", "k3"), 7, 0, 0.3),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    """(model, expansion, params, DOF, rho, reference gradient) of one case."""
    spec, names, order, dof, x = CASES[request.param]

    def build(mu):
        return build_chain(replace(spec, **dict(zip(names, map(float, mu)))), params=names)

    mu0 = np.array([getattr(spec, p) for p in names])
    model, params = build(mu0)
    master = solve_master(model, 0)
    exp = compute_ssm(model, master, order)
    ref, est = ridders_gradient(
        lambda mu: backbone_response(
            lambda m: build(m)[0], mu, x0=x, dof_index=dof, order=order, reference=master.phi
        ),
        mu0,
    )
    scale = np.max(np.abs(ref))
    # the reference resolves the bound: its own error estimate is well below it
    assert np.max(est) <= 0.1 * BOUND * scale
    return model, exp, params, dof, rho_of_x(exp, dof, x), ref


@pytest.mark.parametrize("method", list(GRADIENTS))
def test_gradient_matches_the_ridders_reference(case, method):
    model, exp, params, dof, rho, ref = case
    grad = GRADIENTS[method](model, exp, params, dof, rho)
    err = np.max(np.abs(grad - ref)) / np.max(np.abs(ref))
    assert err <= BOUND, f"{method} against Ridders: {err:.2e} > {BOUND:.0e}"
