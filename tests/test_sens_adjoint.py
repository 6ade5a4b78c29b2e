import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from ssmopt import compute_ssm, rho_of_x, sens_direct, solve_master, ssm
from ssmopt.backbone import (
    domega_drho,
    dx_drho,
    omega_of_rho,
    point_weights,
    x_rms,
)
from ssmopt.errors import ConjugacyError, assert_real, assert_real_each
from ssmopt.mechmodel import MechModel, ParamDerivatives
from ssmopt.models import (
    ChainSpec,
    VkBeamSpec,
    build_chain,
    build_vk_beam,
    chain_per_spring_k3,
    vk_center_dof,
)
from ssmopt.multiindex import canonical_indices, symmetric
from ssmopt.sens_adjoint import contract_gradient, solve_adjoint, solve_adjoint_rho
from ssmopt.ssm import Partials
from ssmopt.sens_direct import chain_derivatives

from oracles import (
    adjoint_by_index,
    formed_solve,
    index_record,
    modal_solve,
    param_matrices,
    partials_by_index,
    pick_params,
    reference_adjoint,
    reference_contraction,
    reference_partials,
    validity_cap,
)
from test_properties import random_case


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
        lam_m = adjoint_by_index(exp, solve_adjoint(model, exp, 1, 0.2)).lambda_m
        for lam in lam_m.values():
            assert np.abs(lam).max() == 0.0

    def test_highest_order_decoupled(self, chain2, chain2_exp5):
        # the top-order adjoints see only the frequency/amplitude seeds;
        # verified by comparing against an expansion truncated at that order
        model, _ = chain2
        rho = rho_of_x(chain2_exp5, 1, 0.2)
        lam_rho = solve_adjoint_rho(point_weights(chain2_exp5, 1, rho))
        lam_m = adjoint_by_index(chain2_exp5, solve_adjoint(model, chain2_exp5, 1, rho)).lambda_m
        # independent mini-solve for one highest-order index
        from ssmopt.backbone import x_theta_samples

        m = (3, 2)
        rec = index_record(chain2_exp5, m)
        n_theta = 128
        xk = x_theta_samples(chain2_exp5, 1, rho, n_theta)
        x = np.sqrt(np.mean(xk**2))
        thetas = 2 * np.pi * np.arange(1, n_theta + 1) / n_theta
        coef = lam_rho / (n_theta * x) * rho**5 * np.sum(xk * np.exp(1j * thetas))
        bar = np.zeros(2, dtype=complex)
        bar[1] += coef
        # wdot of (3,2) is consumed by nothing at order 5 (top order)
        rhs = -bar
        lam, _ = formed_solve(model, chain2_exp5, rec, rhs)
        assert np.allclose(lam, lam_m[m], rtol=1e-12)

    def test_conjugacy_of_adjoint_vectors(self, chain2, chain2_exp5):
        # the all-index sweep solves the swapped indices on their own; each
        # is the conjugate of the canonical sweep's vector
        model, _ = chain2
        rho = rho_of_x(chain2_exp5, 1, 0.2)
        lam_m = adjoint_by_index(chain2_exp5, solve_adjoint(model, chain2_exp5, 1, rho)).lambda_m
        ref = reference_adjoint(model, chain2_exp5, 1, rho).lambda_m
        assert set(ref) == set(lam_m) | {symmetric(m) for m in lam_m}
        for m, lam in lam_m.items():
            assert np.allclose(np.conj(lam), ref[symmetric(m)], atol=1e-14)

    def test_canonical_shortcut_equals_full_solve(self):
        # the fold against the all-index sweep, both solving in the model's
        # modes (a swapped index with its canonical partner's conjugate
        # diagonal), so that only the fold differs: a dense solve differs
        # from the modal one by the operator's conditioning
        def close(a, b):
            return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

        for case in (_chain3_o7, _damped_curved_beam_o7):
            model, exp, dof, rho = case()
            short = adjoint_by_index(exp, solve_adjoint(model, exp, dof, rho))
            full = reference_adjoint(model, exp, dof, rho, solve=modal_solve)
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
            dM, dK = param_matrices(params)[p]
            domega = phi @ ((dK - omega**2 * dM) @ phi) / (2 * omega)
            dom_d = (
                domega * np.sqrt(1 - xi**2)
                - omega * xi / np.sqrt(1 - xi**2) * dxi_domega * domega
            )
            assert rep.d_omega[p] == pytest.approx(dom_d, rel=1e-10, abs=1e-14)
        # a quadratic-coefficient perturbation has no first-order backbone
        # effect (parity), while the cubic one does
        assert rep.d_omega[2] == pytest.approx(0.0, abs=1e-12)
        assert rep.d_omega[3] != 0.0

    def test_contraction_matches_the_per_index_loop(self):
        # the contraction takes each order's canonical indices at once, one
        # batched product per term; the oracle adds one index's terms at a
        # time, one dot per matrix parameter. The cases: 100 tensor-only
        # parameters, four matrix parameters with nu and r_bar at every
        # resonant column, and a random model
        chain = ChainSpec(n_masses=101, alpha_r=0.0, beta_r=0.02)
        beam = VkBeamSpec(a1=0.002, a2=0.001, alpha_r=1.0, beta_r=1e-5)
        model, params, order = random_case(0)
        cases = {
            "chain101": (build_chain(chain)[0], chain_per_spring_k3(chain, 100), 5, 100, 0.05),
            "beam": (*build_vk_beam(beam), 9, vk_center_dof(beam), 0.002),
            "random": (model, params, order, model.n - 1, None),
        }
        for name, (model, params, order, dof, x) in cases.items():
            exp = compute_ssm(model, solve_master(model, 0), order)
            if x is None:
                x = 0.5 * x_rms(exp, dof, validity_cap(exp, dof))
            adjoint = solve_adjoint(model, exp, dof, rho_of_x(exp, dof, x))
            if name == "chain101":
                assert params.count == 100 and not params.matrix_params
            if name == "beam":
                resonant = [i for i, plan in enumerate(exp.plans) if plan.res is not None]
                assert len(params.matrix_params) == 4 and len(resonant) == 4
                assert np.all(adjoint.nu[resonant] != 0) and np.all(adjoint.r_bar[resonant] != 0)
            got = contract_gradient(model, exp, adjoint, params).d_omega
            want = reference_contraction(model, exp, adjoint, params)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), name


class TestGradientRealness:
    """`contract_gradient` checks all P sums at once, each on its own scale
    (`assert_real_each`), as one `assert_real` per parameter did."""

    names = ("a", "b", "c", "d", "e")

    def test_passing_values_are_the_per_parameter_ones(self):
        accum = np.array(
            [3.0 + 2e-10j, -0.5 + 0.9e-10j, 1e6 - 9e-5j, -7e-13 + 1e-11j, np.nan + 1j * np.nan]
        )
        got = assert_real_each(accum, "gradient", self.names)
        want = [assert_real(v, f"gradient for parameter {n!r}") for v, n in zip(accum, self.names)]
        assert np.array_equal(got, np.array(want), equal_nan=True)
        assert got.dtype == np.float64

    def test_the_first_failing_parameter_is_named(self):
        # b fails on its own scale; an array-wide scale (1e6) would pass it
        accum = np.array([1e6 + 0j, 1.0 + 1e-8j, 2.0, 4.0 + 1j, 0.5])
        with pytest.raises(
            ConjugacyError, match=r"^gradient for parameter 'b' has imaginary residue 1.00e-08"
        ):
            assert_real_each(accum, "gradient", self.names)
        with pytest.raises(ConjugacyError, match=r"^gradient for parameter 'b' has"):
            assert_real(accum[1], "gradient for parameter 'b'")


def _curved_beam10_o9():
    spec = VkBeamSpec(a1=0.002, a2=0.001)
    model, params = build_vk_beam(spec)
    master = solve_master(model, 0)
    return model, params, master, vk_center_dof(spec), (0.002, 0.004)


def _first(params: ParamDerivatives, count: int) -> ParamDerivatives:
    """A new ParamDerivatives holding the first `count` parameters."""
    return pick_params([(params, p) for p in range(count)])


def _gradients(model, exp, params, dof, x):
    """The adjoint gradient, and the direct gradient and d_rho, at amplitude x."""
    rho = rho_of_x(exp, dof, x)
    adjoint = contract_gradient(model, exp, solve_adjoint(model, exp, dof, rho), params)
    direct = chain_derivatives(model, exp, params, dof, rho)
    return adjoint.d_omega, direct.d_omega, direct.d_rho


def _fresh_gradients(model, master, order, params, dof, x):
    """The gradients from a new expansion and a new ParamDerivatives."""
    return _gradients(model, compute_ssm(model, master, order), replace(params), dof, x)


def _assert_bitwise(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g, w), (g, w)


def _count_walks(monkeypatch, exp) -> list:
    """The ParamDerivatives of every direct walk on exp from here on, one
    per walk."""
    walks = []
    walk = sens_direct._walk

    def counted(model, on, params):
        if on is exp:
            walks.append(params)
        return walk(model, on, params)

    monkeypatch.setattr(sens_direct, "_walk", counted)
    return walks


class TestExpansionStore:
    """The expansion's memo keeps what every amplitude target reads: the
    record of explicit parameter partials, which both methods read, and the
    direct walk's record. Reading it must give the gradients of a cold
    call, bit for bit."""

    @pytest.mark.parametrize("case", ["vk_beam10", "duffing"])
    def test_targets_on_one_expansion_match_fresh_ones(self, case, duffing, duffing_master):
        if case == "vk_beam10":
            model, params, master, dof, xs = _curved_beam10_o9()
            order = 9
        else:  # undamped: every resonant index takes the bordered path
            (model, params), master, dof, xs = duffing, duffing_master, 0, (0.1, 0.2)
            order = 7
        exp = compute_ssm(model, master, order)
        for x in xs:
            _assert_bitwise(
                _gradients(model, exp, params, dof, x),
                _fresh_gradients(model, master, order, params, dof, x),
            )

    def test_extended_expansion_gives_the_fresh_gradient(self, monkeypatch):
        model, params, master, dof, (x, _) = _curved_beam10_o9()
        exp = compute_ssm(model, master, 5)
        walks = _count_walks(monkeypatch, exp)
        _gradients(model, exp, params, dof, x)
        compute_ssm(model, master, 9, from_expansion=exp)
        _assert_bitwise(
            _gradients(model, exp, params, dof, x),
            _fresh_gradients(model, master, 9, params, dof, x),
        )
        assert [w is params for w in walks] == [True, True]  # O9 walks again

    def test_each_param_derivatives_gets_its_own_record(self, monkeypatch):
        model, params, master, dof, (x, _) = _curved_beam10_o9()
        exp = compute_ssm(model, master, 9)
        walks = _count_walks(monkeypatch, exp)
        one, three = _first(params, 1), _first(params, 3)
        for sub in (one, three, three, one):
            got = _gradients(model, exp, sub, dof, x)
            assert len(got[0]) == sub.count
            _assert_bitwise(got, _fresh_gradients(model, master, 9, sub, dof, x))
        # one slot per key: the second `three` reads it, the last `one` walks again
        assert [w is one for w in walks] == [True, False, True]

    def test_another_model_is_rejected(self, chain2, chain2_exp5):
        model, params = chain2
        twin = replace(model)  # equal values, another object
        rho = rho_of_x(chain2_exp5, 1, 0.2)
        adj = solve_adjoint(model, chain2_exp5, 1, rho)
        # the memo is warm: the walk and the record are kept here
        chain_derivatives(model, chain2_exp5, params, 1, rho)
        contract_gradient(model, chain2_exp5, adj, params)
        with pytest.raises(ValueError, match="another model"):
            solve_adjoint(twin, chain2_exp5, 1, rho)
        with pytest.raises(ValueError, match="another model"):
            contract_gradient(twin, chain2_exp5, adj, params)
        with pytest.raises(ValueError, match="another model"):
            chain_derivatives(twin, chain2_exp5, params, 1, rho)

    def test_targets_on_one_expansion_share_one_walk(self, monkeypatch):
        model, params, master, dof, (x1, x2) = _curved_beam10_o9()
        exp = compute_ssm(model, master, 9)
        walks = _count_walks(monkeypatch, exp)
        # two amplitudes at the center DOF, and two other DOFs
        for d, x in ((dof, x1), (dof, x2), (dof - 3, 0.001), (dof + 3, 0.001)):
            _assert_bitwise(
                _gradients(model, exp, params, d, x),
                _fresh_gradients(model, master, 9, params, d, x),
            )
        assert [w is params for w in walks] == [True]

    @pytest.mark.parametrize("first", ["adjoint", "direct"])
    def test_methods_share_one_partials_record(self, monkeypatch, first):
        # whichever method runs first builds the record; the other reads it
        model, params, master, dof, (x, _) = _curved_beam10_o9()
        exp = compute_ssm(model, master, 9)
        builds = []
        build = ssm._build_partials

        def counted(on, p):
            if on is exp:
                builds.append(p)
            return build(on, p)

        monkeypatch.setattr(ssm, "_build_partials", counted)
        rho = rho_of_x(exp, dof, x)
        methods = {
            "adjoint": lambda: contract_gradient(
                model, exp, solve_adjoint(model, exp, dof, rho), params
            ).d_omega,
            "direct": lambda: chain_derivatives(model, exp, params, dof, rho).d_omega,
        }
        got = {first: methods[first]()}
        got.update((name, run()) for name, run in methods.items() if name not in got)
        assert [b is params for b in builds] == [True]
        want = _fresh_gradients(model, master, 9, params, dof, x)[:2]
        _assert_bitwise((got["adjoint"], got["direct"]), want)

    def test_one_eigendecomposition_per_model(self, monkeypatch):
        # every solve reads the modes the model computed for its master
        # (`MechModel.modes`): the expansion, an O7 -> O9 extension, a
        # backbone read, four targets' sweeps at three DOFs, each with its
        # mode-shape solve, and the direct eigenpair derivatives decompose
        # nothing again. Every adjoint state and gradient is bitwise that of
        # a fresh expansion.
        model, params, master, dof, (x1, x2) = _curved_beam10_o9()
        modes = model.modes
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(args)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        replace(model).modes
        assert len(calls) == 1  # the counter sees a fresh model's modes
        calls.clear()
        exp = compute_ssm(model, master, 7)
        omega_of_rho(exp, rho_of_x(exp, dof, x1))
        compute_ssm(model, master, 9, from_expansion=exp)
        assert calls == [] and model.modes is modes

        targets = [(dof, x1), (dof, x2), (dof - 3, 0.001), (dof + 3, 0.001)]
        states = []
        for d, x in targets:
            rho = rho_of_x(exp, d, x)
            states.append((d, x, rho, solve_adjoint(model, exp, d, rho)))
        direct = chain_derivatives(model, exp, params, dof, rho_of_x(exp, dof, x1))
        assert calls == [] and model.modes is modes

        for d, x, rho, got in states:
            fresh = compute_ssm(model, master, 9)
            want = solve_adjoint(model, fresh, d, rho)
            for field in ("lambda_m", "nu_m", "r_bar"):
                a = getattr(adjoint_by_index(exp, got), field)
                b = getattr(adjoint_by_index(fresh, want), field)
                assert a.keys() == b.keys()
                for m in a:
                    assert np.asarray(a[m]).tobytes() == np.asarray(b[m]).tobytes(), (field, m)
            assert got.lambda_phi.tobytes() == want.lambda_phi.tobytes()
            assert got.lambda_omega == want.lambda_omega
            _assert_bitwise(
                [contract_gradient(model, exp, got, params).d_omega],
                [contract_gradient(model, fresh, want, params).d_omega],
            )
        _assert_bitwise(
            [direct.d_omega, direct.d_rho],
            _fresh_gradients(model, master, 9, params, dof, x1)[1:],
        )

    def test_walk_forms_no_pencil_velocity(self):
        # the walk applies the velocity s M + C to its vectors as
        # s (Mc v) + Cc v, as the adjoint sweep does, and the record of
        # explicit partials applies dM, dC and dK to a block of vectors: the
        # model has no pencil operator to form (no `at`), and a cold pass of
        # either method runs without one, for any number of parameters
        model, params, master, dof, (x, _) = _curved_beam10_o9()
        for count in (1, 2, 4):
            sub = _first(params, count)
            assert len(sub.matrix_params) == count
            for method in ("adjoint", "direct"):
                exp = compute_ssm(model, master, 9)
                rho = rho_of_x(exp, dof, x)
                if method == "adjoint":
                    contract_gradient(model, exp, solve_adjoint(model, exp, dof, rho), sub)
                else:
                    chain_derivatives(model, exp, sub, dof, rho)
                assert not hasattr(MechModel, "at"), (count, method)

    def test_partials_record_matches_the_formed_operators(self):
        # the record applies dM, dC = alpha_r dM + beta_r dK and dK to the
        # primal vectors without forming an operator; the oracle forms each
        # one. Both models are damped, so every dC term is there
        spec = VkBeamSpec(a1=0.002, a2=0.001, alpha_r=1.0, beta_r=1e-5)
        for model, params, order in ((*build_vk_beam(spec), 9), random_case(0)):
            assert model.alpha_r > 0.0 and model.beta_r > 0.0
            exp = compute_ssm(model, solve_master(model, 0), order)
            record = exp.partials(params)
            dense, eig = reference_partials(exp, params)
            mp = params.matrix_params
            stack_shape = (len(mp), model.n)
            # one block per order plan, its indices one row each
            assert len(record.orders) == len(exp.plans)
            for plan, (pf, pC, Aw, _, _) in zip(exp.plans, record.orders):
                k = len(plan.indices)
                assert pf.shape == (k, params.count, model.n)
                assert pC.shape == Aw.shape == (len(mp), k, model.n)
            entries = partials_by_index(exp, record)
            assert len(dense) == len(entries) * len(mp)
            for m, _, (pC, Aw, Vphi, phiMw) in entries:
                # row k of each stack belongs to parameter matrix_params[k]
                assert pC.shape == Aw.shape == stack_shape
                resonant = index_record(exp, m).slot is not None
                assert (Vphi is not None) == (phiMw is not None) == resonant
                for k, p in enumerate(mp):
                    *want, want_phiMw = dense[m, p]
                    vectors = (pC[k], Aw[k], Vphi[k] if resonant else None)
                    for got, ref in zip(vectors, want):
                        if ref is None:
                            assert got is None
                        else:
                            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
                    if not resonant:
                        continue
                    assert Vphi.shape == stack_shape and phiMw.shape == (len(mp),)
                    # relative to the size of its terms: phi . dM w_m can
                    # cancel to roundoff (dM of h is 2 M / h up to its
                    # difference quotient's error, and phi^T M w_m = 0 at a
                    # resonant index), and then no two sums agree to a digit
                    dM = param_matrices(params)[p][0]
                    terms = np.abs(exp.master.phi) @ np.abs(dM) @ np.abs(exp.w(m))
                    assert abs(phiMw[k] - want_phiMw) <= 1e-13 * terms
            modal_phi, dMphi = record.eig
            assert modal_phi.shape == dMphi.shape == stack_shape
            assert len(eig) == len(mp)
            for k, (q, want_modal, want_dMphi) in enumerate(eig):
                assert q == mp[k]
                assert np.array_equal(modal_phi[k], want_modal)
                assert np.array_equal(dMphi[k], want_dMphi)

    def test_memo_makes_no_reference_cycle(self):
        # every record the memo keeps holds no reference back to the
        # expansion: reference counting alone frees it
        model, params, master, dof, (x, _) = _curved_beam10_o9()
        exp = compute_ssm(model, master, 9)
        _gradients(model, exp, params, dof, x)
        ref = weakref.ref(exp)
        gc.disable()
        try:
            del exp
            assert ref() is None
        finally:
            gc.enable()

    def test_record_size_and_one_record_alive(self):
        # the record of curved vk_beam10 at O9 with four parameters holds
        # 0.19 MB (0.14 MB of arrays); the bound leaves 30 % over that
        bound = 0.25 * 2**20
        model, params, master, dof, (x, _) = _curved_beam10_o9()
        exp = compute_ssm(model, master, 9)
        rho = rho_of_x(exp, dof, x)
        adj = solve_adjoint(model, exp, dof, rho)
        # the stacked tensors and their key layouts are cached on params,
        # not in the record
        for T in (params.dT2, params.dT3):
            if T.nnz:
                T.key_pattern, T.projections
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            contract_gradient(model, exp, adj, params)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= bound, f"record holds {held / 2**20:.3f} MB"

        def live_records():
            gc.collect()
            return sum(isinstance(o, Partials) for o in gc.get_objects())

        # other expansions alive in the session may hold records of their own
        before = live_records()
        for _ in range(10):
            contract_gradient(model, exp, adj, replace(params))
        assert live_records() == before
