"""Both gradient methods against an independent reference: Ridders'
extrapolated central differences of the backbone response
(`oracles.ridders_gradient` through `oracles.reference_response`, which
inverts the amplitude to roundoff).

The adjoint and the direct method read one record of explicit parameter
partials (`SsmExpansion.partials`), the expansion's records and its tables,
so criterion 2's adjoint-against-direct check cannot see a fault in what
they share. The reference differentiates the primal alone. The bound is
1e-11 normwise wherever the reference's own error estimate is at most a
tenth of it.

* Chains and the undamped Duffing oscillator: both methods read 1.2e-13 to
  2.9e-13. Scaling every pC of the partials record by 1 + 1e-4 reads 5.9e-10
  to 8.5e-10 on the chains, while adjoint against direct stays below 1e-15
  (the undamped Duffing oscillator's pC vanish).
* The 16 random models of `test_properties`, at its point (the last DOF, at
  half the validity cap's amplitude), as affine functions of the design:
  M + sum mu_p dM_p, likewise K, T2 and T3, so that the random
  `ParamDerivatives` are the exact derivatives at mu = 0. Both methods read
  3.9e-13 to 1.0e-11. On seeds 1, 3, 4, 5, 7 and 8 the estimate is 1.6e-12
  to 8.8e-12 of the gradient's scale, and those seeds are held to ten times
  their estimate instead. The pC scaling reads 2.9e-9 to 3.1e-6 on the 12
  seeds above order 3 (at order 3 no pC enters).
"""

from dataclasses import replace

import numpy as np
import pytest

from ssmopt import MechModel, SymTensor
from ssmopt.backbone import _validity_cap, rho_of_x, x_rms
from ssmopt.models import ChainSpec, build_chain
from ssmopt.optimizer import GRADIENTS
from ssmopt.spectral import solve_master
from ssmopt.ssm import compute_ssm

from oracles import param_matrices, param_tensors, reference_response, ridders_gradient
from test_properties import N_MODELS, random_case

BOUND = 1e-11
CHAIN_PARAMS = ("mass", "k", "k2", "k3")

# name -> (spec, design parameters, order, DOF, target amplitude)
CASES = {
    "chain2_o5": (ChainSpec(n_masses=2, beta_r=0.1), CHAIN_PARAMS, 5, 1, 0.2),
    "chain2_o7": (ChainSpec(n_masses=2, beta_r=0.1), CHAIN_PARAMS, 7, 1, 0.2),
    "chain3_o7": (ChainSpec(n_masses=3, beta_r=0.1), CHAIN_PARAMS, 7, 2, 0.2),
    "duffing_o7": (ChainSpec(n_masses=1, k2=0.0, k3=0.1, beta_r=0.0), ("k", "k3"), 7, 0, 0.3),
}


def reference(build, mu0, master, order, dof, x):
    """(Ridders' gradient of Omega at x, its largest error estimate)."""
    ref, est = ridders_gradient(
        lambda mu: reference_response(
            build, mu, x0=x, dof_index=dof, order=order, reference=master.phi
        ),
        mu0,
    )
    return ref, np.max(est)


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    """(model, expansion, params, DOF, rho, reference gradient, bound) of one case."""
    spec, names, order, dof, x = CASES[request.param]

    def build(mu):
        return build_chain(replace(spec, **dict(zip(names, map(float, mu)))), params=names)[0]

    mu0 = np.array([getattr(spec, p) for p in names])
    model, params = build_chain(spec, params=names)
    master = solve_master(model, 0)
    exp = compute_ssm(model, master, order)
    ref, est = reference(build, mu0, master, order, dof, x)
    # the reference resolves the bound: its own error estimate is well below it
    assert est <= 0.1 * BOUND * np.max(np.abs(ref))
    return model, exp, params, dof, rho_of_x(exp, dof, x), ref, BOUND


def _plus(T: SymTensor, dTs, mu) -> SymTensor:
    """T + sum_p mu_p dT_p, canonical over the concatenated entries."""
    idx = np.concatenate([T.idx, *(dT.idx for dT in dTs)])
    vals = np.concatenate([T.vals, *(m * dT.vals for m, dT in zip(mu, dTs))])
    return SymTensor.canonical(T.n, idx.T, vals)


@pytest.fixture(scope="module", params=range(N_MODELS))
def random_model(request):
    """The same for one random property model, with the bound ten times the
    reference's estimate where that exceeds a tenth of BOUND."""
    model, params, order = random_case(request.param)

    def build(mu):
        return MechModel(
            M=model.M + sum(m * dM for m, (dM, _) in zip(mu, param_matrices(params))),
            K=model.K + sum(m * dK for m, (_, dK) in zip(mu, param_matrices(params))),
            alpha_r=model.alpha_r,
            beta_r=model.beta_r,
            T2=_plus(model.T2, param_tensors(params, 2), mu),
            T3=_plus(model.T3, param_tensors(params, 3), mu),
        )

    master = solve_master(model, 0)
    exp = compute_ssm(model, master, order)
    dof = model.n - 1
    x = 0.5 * x_rms(exp, dof, _validity_cap(exp, dof))
    ref, est = reference(build, np.zeros(params.count), master, order, dof, x)
    bound = max(BOUND, 10.0 * est / np.max(np.abs(ref)))
    return model, exp, params, dof, rho_of_x(exp, dof, x), ref, bound


def check(point, method):
    model, exp, params, dof, rho, ref, bound = point
    grad = GRADIENTS[method](model, exp, params, dof, rho)
    err = np.max(np.abs(grad - ref)) / np.max(np.abs(ref))
    assert err <= bound, f"{method} against Ridders: {err:.2e} > {bound:.1e}"


@pytest.mark.parametrize("method", list(GRADIENTS))
def test_gradient_matches_the_ridders_reference(case, method):
    check(case, method)


@pytest.mark.parametrize("method", list(GRADIENTS))
def test_random_model_gradient_matches_the_ridders_reference(random_model, method):
    check(random_model, method)
