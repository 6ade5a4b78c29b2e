import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ssmopt import SsmExpansion, compute_ssm, invariance_residual, solve_master, ssm
from ssmopt.backbone import _validity_cap, rho_of_x
from ssmopt.errors import AmplitudeUnreachableError, OuterResonanceError, SsmError
from ssmopt.mechmodel import model_from_json
from ssmopt.models import ChainSpec, VkBeamSpec, build_chain, build_vk_beam
from ssmopt.multiindex import order, symmetric
from ssmopt.ssm import adapt_order, factorize

from oracles import first_order_operators, reference_full_set_ssm


def make_duffing_exp(duffing, duffing_master, O=5):
    model, _ = duffing
    return model, compute_ssm(model, duffing_master, O)


class TestLeadingOrder:
    def test_unit_oscillator_coefficients(self, duffing, duffing_master):
        model, _ = duffing
        exp = SsmExpansion(model, duffing_master)
        assert exp.w((1, 0))[0] == 1.0
        assert exp.R((1, 0))[0] == 1j

    def test_velocity_coefficient_definition(self, chain2, chain2_master):
        model, _ = chain2
        exp = SsmExpansion(model, chain2_master)
        assert np.allclose(exp.wdot((1, 0)) - chain2_master.lam * exp.w((1, 0)), 0.0)

    def test_leading_conjugacy(self, chain2, chain2_master):
        model, _ = chain2
        exp = SsmExpansion(model, chain2_master)
        assert np.array_equal(np.conj(exp.w((0, 1))), exp.w((1, 0)))


class TestOrderStep:
    def test_linear_model_all_higher_coefficients_vanish(self, linear_chain):
        model, _ = linear_chain
        exp = compute_ssm(model, solve_master(model, 0), 7)
        for m in exp.data:
            if order(m) >= 2:
                assert np.abs(exp.w(m)).max() == 0.0
                assert np.abs(exp.R(m)).max() == 0.0

    def test_duffing_cubic_backbone_coefficient(self, duffing, duffing_master):
        # oracle: first-order harmonic balance Omega^2 = omega^2 + (3/4)g a^2
        # with a = 2 rho, Taylor-expanded: Omega = 1 + (3g/2) rho^2
        model, exp = make_duffing_exp(duffing, duffing_master, 3)
        gamma = 0.1
        assert exp.R((2, 1))[0].imag == pytest.approx(1.5 * gamma, abs=1e-12)
        assert exp.R((2, 1))[0].real == pytest.approx(0.0, abs=1e-14)

    def test_cohomological_residual_per_index(self, chain2, chain2_exp5):
        model, _ = chain2
        Cmat = model.pencil.C
        for m, rec in chain2_exp5.data.items():
            if order(m) < 2:
                continue
            L = model.K + rec.Lam * Cmat + rec.Lam**2 * model.M
            h = rec.C.copy()
            if rec.slot is not None:
                h = h + rec.D * rec.R[rec.slot]
            resid = np.linalg.norm(L @ rec.w - h)
            assert resid <= 1e-9 * np.linalg.norm(h) + 1e-14

    def test_even_orders_carry_no_reduced_dynamics(self, chain2_exp5):
        for m in chain2_exp5.data:
            if order(m) % 2 == 0:
                assert np.abs(chain2_exp5.R(m)).max() == 0.0


class TestComputeSsm:
    def test_canonical_solve_counts(self, chain2, chain2_master):
        model, _ = chain2
        exp = compute_ssm(model, chain2_master, 3)
        # two canonical indices at order 2 and two at order 3
        assert exp.n_solves == 4

    def test_extension_preserves_lower_orders(self, chain2, chain2_master):
        model, _ = chain2
        e5 = compute_ssm(model, chain2_master, 5)
        snapshot = {m: rec.w.copy() for m, rec in e5.data.items()}
        e7 = compute_ssm(model, chain2_master, 7, from_expansion=e5)
        assert e7.order == 7
        for m, w in snapshot.items():
            assert np.array_equal(e7.w(m), w)

    def test_full_set_matches_canonical_conjugation(self):
        # independent full-index recomputation against the conjugate shortcut
        spec = ChainSpec(n_masses=3)
        model, _ = build_chain(spec)
        master = solve_master(model, 0)
        canon = compute_ssm(model, master, 7)
        full = reference_full_set_ssm(model, master, 7)
        for m in canon.data:
            assert np.allclose(canon.w(m), full.w(m), rtol=0, atol=1e-13)
            assert np.allclose(canon.wdot(m), full.wdot(m), rtol=0, atol=1e-13)
            assert np.allclose(canon.R(m), full.R(m), rtol=0, atol=1e-13)

    def test_conjugacy_of_stored_records(self, chain2_exp5):
        for m in chain2_exp5.data:
            ms = symmetric(m)
            assert np.array_equal(np.conj(chain2_exp5.w(m)), chain2_exp5.w(ms))
            assert np.array_equal(np.conj(chain2_exp5.R(m)[::-1]), chain2_exp5.R(ms))

    def test_rejects_even_order(self, chain2, chain2_master):
        model, _ = chain2
        with pytest.raises(ValueError):
            compute_ssm(model, chain2_master, 4)


def two_dof_matrix_model(K, beta_r=0.0):
    return model_from_json(
        {"type": "matrix", "n": 2, "M": [[1.0, 0.0], [0.0, 1.0]], "K": K, "beta_r": beta_r,
         "T3": [[0, 0, 0, 0, 1.0]]}
    )


class TestFactorization:
    def test_outer_resonance_raises_at_the_index(self):
        # omega_2 = 3 omega_1: L at (3, 0) is K - 9 M = diag(-8, 0)
        model = two_dof_matrix_model([[1.0, 0.0], [0.0, 9.0]])
        with pytest.raises(OuterResonanceError) as info:
            compute_ssm(model, solve_master(model, 0), 3)
        assert info.value.m == (3, 0)
        assert info.value.rcond < 1e-12

    def test_free_free_stiffness_expands(self):
        # a rigid-body mode beside the master is valid input: the residual
        # factors a regularized K without the rcond check
        model = two_dof_matrix_model([[1.0, -1.0], [-1.0, 1.0]], beta_r=0.01)
        master = solve_master(model, 1)
        eps = []
        for O in (3, 5):
            exp = compute_ssm(model, master, O)
            eps.append(invariance_residual(model, exp, rho_of_x(exp, 0, 0.05)).epsilon)
        assert np.all(np.isfinite(eps))
        assert eps[1] < eps[0]

    @pytest.mark.parametrize("m", [(4, 1), (3, 2)])
    def test_block_solve_equals_column_solves(self, m):
        # plain (4, 1) and resonant (3, 2) records: an (n, K) block with one
        # border value per column is K one-column solves
        model, _ = build_chain(ChainSpec(n_masses=3))
        rec = compute_ssm(model, solve_master(model, 0), 5).coeffs(m)
        assert (rec.slot is None) == (m == (4, 1))
        rng = np.random.default_rng(3)
        rhs = rng.normal(size=(model.n, 4)) + 1j * rng.normal(size=(model.n, 4))
        border = rng.normal(size=4) + 1j * rng.normal(size=4)
        x, s = rec.lu.solve(rhs, border)
        for k in range(4):
            xk, sk = rec.lu.solve(rhs[:, k], border[k])
            assert np.linalg.norm(x[:, k] - xk) <= 1e-14 * np.linalg.norm(xk)
            if rec.slot is not None:
                assert abs(s[k] - sk) <= 1e-14 * abs(sk)


class TestSolveCheck:
    """The per-index check of the cohomological solve: a normwise backward
    error, which does not grow with the size of the operator's terms."""

    def test_curved_vk_beam320_expands(self):
        # n = 957: ||L w - h|| reaches about 1e-9 ||h|| at index (2, 2) with
        # ||L|| ||w|| large, while the backward error stays near epsilon
        model, _ = build_vk_beam(VkBeamSpec(n_elements=320, a1=0.002, a2=0.001), ())
        exp = compute_ssm(model, solve_master(model, 0), 5)
        assert exp.n_solves == 10

    def test_corrupted_factor_raises(self, chain2, chain2_master, monkeypatch):
        self._corrupt(monkeypatch)
        with pytest.raises(SsmError, match=r"cohomological solve at index \(2, 0\) failed"):
            compute_ssm(chain2[0], chain2_master, 3)

    @staticmethod
    def _corrupt(monkeypatch):
        def corrupted(*args, **kwargs):
            fac = factorize(*args, **kwargs)
            lu, piv = fac.lu
            lu = lu.copy()
            np.fill_diagonal(lu, 2.0 * np.diag(lu))
            return dataclasses.replace(fac, lu=(lu, piv))

        monkeypatch.setattr(ssm, "factorize", corrupted)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_check_holds_past_squared_overflow(self, monkeypatch):
        # with T3 entries 1e300 the order-3 coefficients reach about 4e298:
        # their squares overflow, so unscaled norms read inf and any residual
        # would pass; the scaled test still sees a corrupted factor
        model = model_from_json({
            "type": "matrix", "n": 2, "M": [[1, 0], [0, 1]], "K": [[2, -1], [-1, 2]],
            "beta_r": 0.01, "T3": [[0, 0, 0, 0, 1e300], [1, 1, 1, 1, 1e300]],
        })
        master = solve_master(model, 0)
        exp = compute_ssm(model, master, 3)
        assert np.abs(exp.w((3, 0))).max() > 1e200
        self._corrupt(monkeypatch)
        with pytest.raises(SsmError, match=r"cohomological solve at index \(3, 0\) failed"):
            compute_ssm(model, master, 3)

    def test_wrong_border_raises(self, chain2, chain2_master, monkeypatch):
        # the border row of a resonant solve is phi^T M; any other row
        # moves w off the solution of L w = h
        def wrong_border(A, error, b=None, c=None, scale=0.0):
            return factorize(A, error, b, None if c is None else np.ones_like(c), scale)

        monkeypatch.setattr(ssm, "factorize", wrong_border)
        with pytest.raises(SsmError, match=r"cohomological solve at index \(2, 1\) failed"):
            compute_ssm(chain2[0], chain2_master, 3)


class TestInvarianceResidual:
    def test_linear_model_is_exactly_invariant(self, linear_chain):
        model, _ = linear_chain
        exp = compute_ssm(model, solve_master(model, 0), 5)
        assert invariance_residual(model, exp, 0.5).epsilon <= 1e-12

    def test_monotone_in_order(self, duffing, duffing_master):
        model, _ = duffing
        eps = []
        exp = None
        for O in (3, 5, 7):
            exp = compute_ssm(model, duffing_master, O, from_expansion=exp)
            eps.append(invariance_residual(model, exp, 0.3).epsilon)
        assert eps[1] <= eps[0] and eps[2] <= eps[1]

    def test_vanishes_toward_origin(self, chain2, chain2_exp5):
        model, _ = chain2
        assert invariance_residual(model, chain2_exp5, 1e-8).epsilon <= 1e-10

    def test_unnormalized_defect_slope(self, chain2, chain2_master):
        # independent residual evaluation: with a nonzero quadratic
        # nonlinearity the absolute defect of the invariance equation scales
        # as rho**(order+1). Measured over a decade where the defect sits
        # well above the float64 roundoff floor.
        model, _ = chain2
        O = 3
        exp = compute_ssm(model, chain2_master, O)
        B, A = first_order_operators(model)
        n = model.n

        def defect(rho):
            worst = 0.0
            for k in range(1, 9):
                th = 2 * np.pi * k / 8
                p = np.array([rho * np.exp(1j * th), rho * np.exp(-1j * th)])
                W = np.zeros(2 * n, dtype=complex)
                d1 = np.zeros(2 * n, dtype=complex)
                d2 = np.zeros(2 * n, dtype=complex)
                R = np.zeros(2, dtype=complex)
                for m, rec in exp.data.items():
                    pm = p[0] ** m[0] * p[1] ** m[1]
                    Wm = np.concatenate([rec.w, rec.wdot])
                    W += Wm * pm
                    if m[0]:
                        d1 += m[0] * p[0] ** (m[0] - 1) * p[1] ** m[1] * Wm
                    if m[1]:
                        d2 += m[1] * p[0] ** m[0] * p[1] ** (m[1] - 1) * Wm
                    R += rec.R * pm
                F = np.zeros(2 * n)
                F[:n] = -model.nonlinear_force(W[:n].real)
                worst = max(worst, np.linalg.norm(B @ (d1 * R[0] + d2 * R[1]) - A @ W - F))
            return worst

        rhos = np.array([3e-3, 3e-2])
        slope = np.log(defect(rhos[1]) / defect(rhos[0])) / np.log(rhos[1] / rhos[0])
        assert abs(slope - (O + 1)) <= 0.5

    def test_rejects_zero_amplitude(self, chain2, chain2_exp5):
        model, _ = chain2
        with pytest.raises(ValueError):
            invariance_residual(model, chain2_exp5, 0.0)

    @pytest.mark.parametrize("name", ["chain2", "vk_beam10"])
    def test_matches_pointwise_loop(self, chain2, name):
        if name == "chain2":
            model = chain2[0]
        else:
            model = build_vk_beam(VkBeamSpec(a1=0.005, a2=0.002), ())[0]
        master = solve_master(model, 0)
        exp = None
        for O in (3, 5, 7, 9):
            exp = compute_ssm(model, master, O, from_expansion=exp)
            cap = _validity_cap(exp, 1)
            for rho in (0.01 * cap, 0.3 * cap, cap):
                want = loop_residual(model, exp, rho)
                got = invariance_residual(model, exp, rho).epsilon
                # epsilon is itself relative; near the roundoff floor of the
                # defect only an absolute comparison is meaningful
                assert abs(got - want) <= 1e-12 * max(1.0, want), (O, rho)


def loop_residual(model, exp, rho, theta_samples=32):
    """invariance_residual's epsilon, one theta point and one index at a time,
    from the first-order form with the velocity block weighted by M^-1."""
    B, A = first_order_operators(model)
    n = model.n
    Kreg = model.K + 1e-14 * np.linalg.norm(model.K, 1) * np.eye(n)
    Minv = np.linalg.inv(model.M)

    def state_norm(vec):
        s1 = np.linalg.solve(Kreg, vec[:n])
        s2 = Minv @ vec[n:] / exp.master.omega
        return np.sqrt(np.linalg.norm(s1) ** 2 + np.linalg.norm(s2) ** 2)

    eps = 0.0
    for k in range(1, theta_samples + 1):
        theta = 2.0 * np.pi * k / theta_samples
        p = np.array([rho * np.exp(1j * theta), rho * np.exp(-1j * theta)])
        W = np.zeros(2 * n, dtype=complex)
        dW1 = np.zeros(2 * n, dtype=complex)
        dW2 = np.zeros(2 * n, dtype=complex)
        Rp = np.zeros(2, dtype=complex)
        for m, rec in exp.data.items():
            Wm = np.concatenate([rec.w, rec.wdot])
            pm = p[0] ** m[0] * p[1] ** m[1]
            W += Wm * pm
            if m[0] > 0:
                dW1 += m[0] * p[0] ** (m[0] - 1) * p[1] ** m[1] * Wm
            if m[1] > 0:
                dW2 += m[1] * p[0] ** m[0] * p[1] ** (m[1] - 1) * Wm
            Rp += rec.R * pm
        F = np.zeros(2 * n, dtype=complex)
        F[:n] = -model.nonlinear_force(W[:n])
        rhs = A @ W + F
        lhs = B @ (dW1 * Rp[0] + dW2 * Rp[1])
        eps = max(eps, state_norm(lhs - rhs) / state_norm(rhs))
    return eps


class TestAdaptOrder:
    def test_linear_model_stops_at_three(self, linear_chain):
        model, _ = linear_chain
        res = adapt_order(model, solve_master(model, 0), tol=1e-8, rho_at=lambda e: 0.5)
        assert res.expansion.order == 3 and not res.warned

    def test_infinite_tolerance_returns_three(self, chain2, chain2_master):
        model, _ = chain2
        res = adapt_order(model, chain2_master, tol=np.inf, rho_at=lambda e: 0.2)
        assert res.expansion.order == 3

    def test_warning_flag_when_range_exhausted(self, duffing, duffing_master):
        model, _ = duffing
        res = adapt_order(
            model, duffing_master, tol=1e-14, rho_at=lambda e: 0.5, order_range=(3, 5)
        )
        assert res.warned and res.expansion.order == 5

    def test_order_increases_with_amplitude_on_beam(self, beam, beam_master, beam_center_dof):
        model, _ = beam
        orders = []
        for xt in (0.0005, 0.002, 0.004):
            res = adapt_order(
                model,
                beam_master,
                tol=1e-3,
                rho_at=lambda e: rho_of_x(e, beam_center_dof, xt),
                order_range=(3, 9),
            )
            assert res.error.rho_max == rho_of_x(res.expansion, beam_center_dof, xt)
            orders.append(res.expansion.order)
        assert orders == sorted(orders)
        assert orders[-1] > orders[0]

    @staticmethod
    def reachable_from(first_order, rho):
        """rho_at that misses below first_order, at a cap of 0.3."""

        def rho_at(exp):
            if exp.order < first_order:
                raise AmplitudeUnreachableError(1.0, 0.5, rho_cap=0.3)
            return rho

        return rho_at

    def test_unreachable_target_raises_the_order(self, chain2, chain2_master):
        # a tolerance no finite residual exceeds leaves unreachability the
        # only cause to raise
        model, _ = chain2
        res = adapt_order(model, chain2_master, tol=1e300, rho_at=self.reachable_from(7, 0.2))
        assert res.expansion.order == 7 and not res.warned
        assert res.error.rho_max == 0.2
        assert res.error.epsilon == invariance_residual(model, res.expansion, 0.2).epsilon

    def test_unreachable_at_the_top_order_warns(self, chain2, chain2_master):
        model, _ = chain2
        res = adapt_order(
            model,
            chain2_master,
            tol=1e300,
            rho_at=self.reachable_from(7, 0.2),
            order_range=(3, 5),
        )
        assert res.warned and res.expansion.order == 5
        assert res.error.epsilon == np.inf and res.error.rho_max == 0.3


class TestBackboneAgainstSimulation:
    def test_undamped_chain_ringdown_frequency(self):
        # oracle: time integration from an on-manifold initial condition; the
        # oscillation period must match the backbone prediction
        spec = ChainSpec(alpha_r=0.0, beta_r=0.0)
        model, _ = build_chain(spec)
        master = solve_master(model, 0)
        exp = compute_ssm(model, master, 7)
        from ssmopt.backbone import omega_of_rho

        n = model.n
        Minv = np.linalg.inv(model.M)

        def rhs(_t, z):
            x, v = z[:n], z[n:]
            return np.concatenate([v, -Minv @ (model.K @ x + model.nonlinear_force(x))])

        for rho in (0.05, 0.25):
            Om = omega_of_rho(exp, rho)
            W = np.zeros(2 * n, dtype=complex)
            for m, rec in exp.data.items():
                W += np.concatenate([rec.w, rec.wdot]) * rho ** order(m)
            z0 = W.real
            T = 2 * np.pi / Om
            sol = solve_ivp(rhs, (0, 3.2 * T), z0, rtol=1e-11, atol=1e-13, dense_output=True)
            tt = np.linspace(0, 3.2 * T, 8000)
            v = sol.sol(tt)[n]
            sgn = np.sign(v)
            idx = np.nonzero((sgn[:-1] > 0) & (sgn[1:] <= 0))[0]
            cross = [tt[i] - v[i] * (tt[i + 1] - tt[i]) / (v[i + 1] - v[i]) for i in idx]
            Om_sim = 2 * np.pi / np.diff(cross).mean()
            assert Om == pytest.approx(Om_sim, rel=2e-4)
