import numpy as np
import pytest

from ssmopt import compute_ssm, rho_of_x, solve_master
from ssmopt.backbone import domega_drho, dx_drho, omega_of_rho, point_weights, x_rms
from ssmopt.models import ChainSpec, VkBeamSpec, build_chain, build_vk_beam, vk_center_dof
from ssmopt.multiindex import symmetric
from ssmopt.sens_adjoint import contract_gradient, solve_adjoint, solve_adjoint_rho
from ssmopt.sens_direct import chain_derivatives

from oracles import reference_adjoint


class TestAdjointRho:
    def test_linear_model_gives_zero(self, linear_chain):
        model, _ = linear_chain
        exp = compute_ssm(model, solve_master(model, 0), 5)
        assert solve_adjoint_rho(point_weights(exp, 1, 0.2)) == 0.0

    def test_matches_fd_slope_ratio(self, duffing, duffing_master):
        model, _ = duffing
        exp = compute_ssm(model, duffing_master, 5)
        rho, h = 0.1, 1e-7
        dom = (omega_of_rho(exp, rho + h) - omega_of_rho(exp, rho - h)) / (2 * h)
        dx = (x_rms(exp, 0, rho + h) - x_rms(exp, 0, rho - h)) / (2 * h)
        assert solve_adjoint_rho(point_weights(exp, 0, rho)) == pytest.approx(-dom / dx, rel=1e-6)

    def test_hardening_sign(self, duffing, duffing_master):
        model, _ = duffing
        exp = compute_ssm(model, duffing_master, 5)
        assert solve_adjoint_rho(point_weights(exp, 0, 0.1)) < 0.0

    def test_stationarity_identity(self, chain2, chain2_exp5):
        rho = rho_of_x(chain2_exp5, 1, 0.2)
        lam_rho = solve_adjoint_rho(point_weights(chain2_exp5, 1, rho))
        resid = domega_drho(chain2_exp5, rho) + lam_rho * dx_drho(chain2_exp5, 1, rho)
        assert abs(resid) <= 1e-10 * max(1.0, abs(domega_drho(chain2_exp5, rho)))


def _chain3_o7():
    model, _ = build_chain(ChainSpec(n_masses=3))
    exp = compute_ssm(model, solve_master(model, 0), 7)
    return model, exp, 2, rho_of_x(exp, 2, 0.1)


def _damped_curved_beam_o7():
    # bordered solves with n > 2 and complex Lam_m at every index
    spec = VkBeamSpec(a1=0.002, a2=0.001, alpha_r=1.0, beta_r=1e-6)
    model, _ = build_vk_beam(spec)
    exp = compute_ssm(model, solve_master(model, 0), 7)
    dof = vk_center_dof(spec)
    return model, exp, dof, rho_of_x(exp, dof, 0.004)


class TestAdjointW:
    def test_linear_model_coefficients_vanish(self, linear_chain):
        model, _ = linear_chain
        exp = compute_ssm(model, solve_master(model, 0), 5)
        # the linear model's amplitude adjoint is exactly zero
        assert solve_adjoint_rho(point_weights(exp, 1, 0.2)) == 0.0
        lam_m = solve_adjoint(model, exp, 1, 0.2).lambda_m
        for lam in lam_m.values():
            assert np.abs(lam).max() == 0.0

    def test_highest_order_decoupled(self, chain2, chain2_exp5):
        # the top-order adjoints see only the frequency/amplitude seeds;
        # verified by comparing against an expansion truncated at that order
        model, _ = chain2
        rho = rho_of_x(chain2_exp5, 1, 0.2)
        lam_rho = solve_adjoint_rho(point_weights(chain2_exp5, 1, rho))
        lam_m = solve_adjoint(model, chain2_exp5, 1, rho).lambda_m
        # independent mini-solve for one highest-order index
        from ssmopt.backbone import x_theta_samples

        m = (3, 2)
        rec = chain2_exp5.coeffs(m)
        n_theta = 128
        xk = x_theta_samples(chain2_exp5, 1, rho, n_theta)
        x = np.sqrt(np.mean(xk**2))
        thetas = 2 * np.pi * np.arange(1, n_theta + 1) / n_theta
        coef = lam_rho / (n_theta * x) * rho**5 * np.sum(xk * np.exp(1j * thetas))
        bar = np.zeros(2, dtype=complex)
        bar[1] += coef
        # wdot of (3,2) is consumed by nothing at order 5 (top order)
        rhs = -bar
        lam, _ = rec.lu.solve(rhs)
        assert np.allclose(lam, lam_m[m], rtol=1e-12)

    def test_conjugacy_of_adjoint_vectors(self, chain2, chain2_exp5):
        # the all-index sweep solves the swapped indices on their own; each
        # is the conjugate of the canonical sweep's vector
        model, _ = chain2
        rho = rho_of_x(chain2_exp5, 1, 0.2)
        lam_m = solve_adjoint(model, chain2_exp5, 1, rho).lambda_m
        ref = reference_adjoint(model, chain2_exp5, 1, rho).lambda_m
        assert set(ref) == set(lam_m) | {symmetric(m) for m in lam_m}
        for m, lam in lam_m.items():
            assert np.allclose(np.conj(lam), ref[symmetric(m)], atol=1e-14)

    def test_canonical_shortcut_equals_full_solve(self):
        def close(a, b):
            return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

        for case in (_chain3_o7, _damped_curved_beam_o7):
            model, exp, dof, rho = case()
            short = solve_adjoint(model, exp, dof, rho)
            full = reference_adjoint(model, exp, dof, rho)
            assert set(short.r_bar) == set(short.nu_m) and short.r_bar
            for field in ("lambda_m", "nu_m", "r_bar"):
                for m, value in getattr(short, field).items():
                    assert close(value, getattr(full, field)[m]), (case.__name__, field, m)
            assert close(short.lambda_phi, full.lambda_phi), case.__name__
            assert close(short.lambda_omega, full.lambda_omega), case.__name__


class TestGradientEquivalence:
    @pytest.mark.parametrize("order", [3, 5, 7])
    def test_chain_adjoint_equals_direct(self, chain2, chain2_master, order):
        model, params = chain2
        exp = compute_ssm(model, chain2_master, order)
        rho = rho_of_x(exp, 1, 0.1)
        direct = chain_derivatives(model, exp, params, 1, rho).d_omega
        adj = contract_gradient(
            model, exp, solve_adjoint(model, exp, 1, rho), params
        ).d_omega
        assert np.all(np.abs(adj - direct) <= 1e-8 * np.maximum(np.abs(direct), 1e-14))

    def test_duffing_resonant_bordered_path(self, duffing, duffing_master):
        model, params = duffing
        exp = compute_ssm(model, duffing_master, 7)
        rho = rho_of_x(exp, 0, 0.2)
        direct = chain_derivatives(model, exp, params, 0, rho).d_omega
        adj = contract_gradient(
            model, exp, solve_adjoint(model, exp, 0, rho), params
        ).d_omega
        assert np.all(np.abs(adj - direct) <= 1e-10 * np.abs(direct))

    def test_beam_adjoint_equals_direct(self, beam, beam_master, beam_center_dof):
        model, params = beam
        exp = compute_ssm(model, beam_master, 5)
        rho = rho_of_x(exp, beam_center_dof, 0.004)
        direct = chain_derivatives(model, exp, params, beam_center_dof, rho).d_omega
        adj = contract_gradient(
            model, exp, solve_adjoint(model, exp, beam_center_dof, rho), params
        ).d_omega
        assert np.all(np.abs(adj - direct) <= 1e-8 * np.abs(direct))

    def test_gradients_are_real_vectors(self, chain2, chain2_exp5):
        model, params = chain2
        rho = rho_of_x(chain2_exp5, 1, 0.2)
        rep = contract_gradient(
            model, chain2_exp5, solve_adjoint(model, chain2_exp5, 1, rho), params
        )
        assert rep.d_omega.dtype == float

    def test_linear_model_recovers_damped_frequency_sensitivity(self, linear_chain):
        # oracle: closed-form mass-normalized eigen-sensitivity chained with
        # the damped-frequency correction
        model, params = linear_chain
        master = solve_master(model, 0)
        exp = compute_ssm(model, master, 3)
        rho = rho_of_x(exp, 1, 0.05)
        rep = contract_gradient(model, exp, solve_adjoint(model, exp, 1, rho), params)
        omega, xi, phi = master.omega, master.xi, master.phi
        dxi_domega = (model.beta_r * omega**2 - model.alpha_r) / (2 * omega**2)
        for p in (0, 1):  # mass and stiffness; tensor patterns act even at zero
            domega = phi @ ((params.dK[p] - omega**2 * params.dM[p]) @ phi) / (2 * omega)
            dom_d = (
                domega * np.sqrt(1 - xi**2)
                - omega * xi / np.sqrt(1 - xi**2) * dxi_domega * domega
            )
            assert rep.d_omega[p] == pytest.approx(dom_d, rel=1e-10, abs=1e-14)
        # a quadratic-coefficient perturbation has no first-order backbone
        # effect (parity), while the cubic one does
        assert rep.d_omega[2] == pytest.approx(0.0, abs=1e-12)
        assert rep.d_omega[3] != 0.0
