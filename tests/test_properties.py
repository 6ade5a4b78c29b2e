"""Invariants on seeded random small models.

Each model has SPD mass and stiffness matrices, light Rayleigh damping and
random quadratic and cubic force tensors. A random model may hit a documented
failure (an outer resonance, an unreachable amplitude, ...): that typed error
is an acceptable outcome. A NaN or any other exception is not.
"""

from dataclasses import replace

import numpy as np

from ssmopt import MechModel, ParamDerivatives, SymTensor, compute_ssm, solve_master
from ssmopt.backbone import (
    dx_drho,
    omega_of_rho,
    rho_of_x,
    x_rms,
    x_theta_samples,
)
from ssmopt.errors import SsmOptError
from ssmopt.ssm import invariance_residual
from ssmopt.sens_adjoint import contract_gradient, solve_adjoint
from ssmopt.sens_direct import chain_derivatives

from oracles import param_tensors, reference_full_set_ssm, validity_cap

N_MODELS = 16
N_PARAMS = 3


def spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def sym(rng, n):
    a = rng.normal(size=(n, n))
    return a + a.T


def tensor(rng, n, arity, count, scale):
    rows = [[*rng.integers(0, n, size=arity + 1), scale * rng.normal()] for _ in range(count)]
    return SymTensor.from_entries(n, arity, rows)


def random_case(seed):
    """(model, params, order) of the seed's model."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    model = MechModel(
        M=spd(rng, n),
        K=spd(rng, n),
        alpha_r=float(rng.uniform(0.0, 0.01)),
        beta_r=float(rng.uniform(0.0, 0.01)),
        T2=tensor(rng, n, 2, 2 * n, 0.5),
        T3=tensor(rng, n, 3, 3 * n, 0.5),
    )
    dM = [sym(rng, n) for _ in range(N_PARAMS)]
    dK = [sym(rng, n) for _ in range(N_PARAMS)]
    params = ParamDerivatives.stack(
        n,
        names=tuple(f"p{k}" for k in range(N_PARAMS)),
        matrices=dict(enumerate(zip(dM, dK))),
        dT2=tuple(tensor(rng, n, 2, n, 1.0) for _ in range(N_PARAMS)),
        dT3=tuple(tensor(rng, n, 3, n, 1.0) for _ in range(N_PARAMS)),
    )
    return model, params, int(rng.choice([3, 5, 7]))


def outcomes(check):
    """Run check(seed) on every model; count passes, let typed errors through."""
    passed, typed = 0, []
    for seed in range(N_MODELS):
        try:
            check(seed)
        except SsmOptError as e:
            typed.append(type(e).__name__)
        else:
            passed += 1
    return passed, typed


def test_closed_form_amplitude_equals_grid_oracle():
    def check(seed):
        model, _, order = random_case(seed)
        exp = compute_ssm(model, solve_master(model, 0), order)
        for dof in range(model.n):
            cap = validity_cap(exp, dof)
            for rho in cap * np.array([0.1, 0.5, 1.0]):
                want = np.sqrt(np.mean(x_theta_samples(exp, dof, rho, 128) ** 2))
                got = x_rms(exp, dof, rho)
                assert np.isfinite(got) and np.isfinite(dx_drho(exp, dof, rho))
                assert abs(got - want) <= 1e-12 * want, (seed, dof, rho)

    passed, typed = outcomes(check)
    assert passed >= N_MODELS // 2, typed


def test_adjoint_equals_direct():
    def check(seed):
        model, params, order = random_case(seed)
        exp = compute_ssm(model, solve_master(model, 0), order)
        dof = model.n - 1
        x0 = 0.5 * x_rms(exp, dof, validity_cap(exp, dof))
        rho = rho_of_x(exp, dof, x0)
        adj = contract_gradient(model, exp, solve_adjoint(model, exp, dof, rho), params).d_omega
        direct = chain_derivatives(model, exp, params, dof, rho).d_omega
        assert np.all(np.isfinite(adj)) and np.all(np.isfinite(direct)), seed
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(adj - direct)) <= 1e-8 * scale, seed

    passed, typed = outcomes(check)
    assert passed >= N_MODELS // 2, typed


def test_residual_slope_reaches_the_order():
    """An O-th order expansion leaves an invariance residual of order rho**O
    relative to the force: between rho = cap/100 and cap/10 the log-log slope
    of epsilon is at least O - 0.5. O7 is left out: at cap/100 its residual
    reaches the roundoff floor."""

    def check(seed):
        model, _, _ = random_case(seed)
        master = solve_master(model, 0)
        dof = model.n - 1
        for order in (3, 5):
            exp = compute_ssm(model, master, order)
            cap = validity_cap(exp, dof)
            lo, hi = (invariance_residual(model, exp, f * cap).epsilon for f in (0.01, 0.1))
            assert np.log10(hi / lo) >= order - 0.5, (seed, order, lo, hi)

    passed, typed = outcomes(check)
    assert passed >= N_MODELS // 2, typed


def test_amplitude_scaling_law():
    """Omega_{T2,T3}(x) = Omega_{s T2, s^2 T3}(x / s): y = x / s solves the
    system with scaled tensors, so the identity holds at every truncation
    order and runs through the amplitude map and its inversion."""

    def scaled(model, s):
        T2, T3 = model.T2, model.T3
        return replace(
            model,
            T2=SymTensor(T2.n, T2.idx, s * T2.vals),
            T3=SymTensor(T3.n, T3.idx, s * s * T3.vals),
        )

    def check(seed):
        model, _, order = random_case(seed)
        exp = compute_ssm(model, solve_master(model, 0), order)
        for s in (0.5, 2.0):
            model_s = scaled(model, s)
            exp_s = compute_ssm(model_s, solve_master(model_s, 0), order)
            for dof in range(model.n):
                # the cap scan's rho grid does not scale with s: stay below both caps
                cap = min(
                    x_rms(exp, dof, validity_cap(exp, dof)),
                    s * x_rms(exp_s, dof, validity_cap(exp_s, dof)),
                )
                x = 0.5 * cap
                want = omega_of_rho(exp, rho_of_x(exp, dof, x))
                got = omega_of_rho(exp_s, rho_of_x(exp_s, dof, x / s))
                assert abs(got - want) <= 1e-10 * abs(want), (seed, s, dof)

    passed, typed = outcomes(check)
    assert passed >= N_MODELS // 2, typed


def test_canonical_equals_full_set():
    """The full-set expansion solves every swapped index instead of
    conjugating the canonical one. Its records agree with the canonical
    expansion's, and so do the gradients both sensitivity passes take on it:
    the passes walk the canonical indices of either kind of expansion."""

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def gradients(model, params, exp, dof, rho):
        adj = contract_gradient(model, exp, solve_adjoint(model, exp, dof, rho), params)
        return adj.d_omega, chain_derivatives(model, exp, params, dof, rho).d_omega

    def check(seed):
        model, params, _ = random_case(seed)
        master = solve_master(model, 0)
        canonical = compute_ssm(model, master, 5)
        full = reference_full_set_ssm(model, master, 5)
        assert full.indices == canonical.indices
        for m in canonical.indices:
            for name in ("w", "wdot", "R"):
                assert close(getattr(full, name)(m), getattr(canonical, name)(m)), (seed, m, name)
        dof = model.n - 1
        rho = rho_of_x(canonical, dof, 0.5 * x_rms(canonical, dof, validity_cap(canonical, dof)))
        want = gradients(model, params, canonical, dof, rho)
        got = gradients(model, params, full, dof, rho)
        for g, w, method in zip(got, want, ("adjoint", "direct")):
            assert close(g, w), (seed, method)

    passed, typed = outcomes(check)
    assert passed >= N_MODELS // 2, typed


def test_dof_permutation_invariance():
    """Renumbering the DOFs renumbers the model, not the physics: Omega(x)
    at the renumbered observed DOF and the adjoint gradient are unchanged."""

    def permuted_tensor(T, inv):
        rows = np.column_stack([inv[T.idx], T.vals])
        return SymTensor.from_entries(T.n, T.arity, rows)

    def permuted(model, params, perm):
        inv = np.argsort(perm)
        grid = np.ix_(perm, perm)
        model_p = replace(
            model,
            M=model.M[grid],
            K=model.K[grid],
            T2=permuted_tensor(model.T2, inv),
            T3=permuted_tensor(model.T3, inv),
        )
        params_p = ParamDerivatives.stack(
            model.n,
            names=params.names,
            matrices={
                p: (dM[grid], dK[grid])
                for p, dM, dK in zip(params.matrix_params, params.dM, params.dK)
            },
            dT2=[permuted_tensor(t, inv) for t in param_tensors(params, 2)],
            dT3=[permuted_tensor(t, inv) for t in param_tensors(params, 3)],
        )
        return model_p, params_p, inv

    def response(model, params, order, dof, x):
        exp = compute_ssm(model, solve_master(model, 0), order)
        rho = rho_of_x(exp, dof, x)
        adj = contract_gradient(model, exp, solve_adjoint(model, exp, dof, rho), params)
        return omega_of_rho(exp, rho), adj.d_omega

    def check(seed):
        model, params, order = random_case(seed)
        perm = np.random.default_rng(1000 + seed).permutation(model.n)
        model_p, params_p, inv = permuted(model, params, perm)
        dof = model.n - 1
        exp = compute_ssm(model, solve_master(model, 0), order)
        x = 0.5 * x_rms(exp, dof, validity_cap(exp, dof))
        omega, grad = response(model, params, order, dof, x)
        omega_p, grad_p = response(model_p, params_p, order, int(inv[dof]), x)
        assert abs(omega_p - omega) <= 1e-10 * abs(omega), seed
        assert np.max(np.abs(grad_p - grad)) <= 1e-10 * np.max(np.abs(grad)), seed

    passed, typed = outcomes(check)
    assert passed >= N_MODELS // 2, typed
