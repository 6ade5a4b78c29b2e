import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ssmopt import MechModel, compute_ssm, rho_of_x, sens_direct, solve_master, ssm, track_mode
from ssmopt.backbone import point_weights
from ssmopt.config import resolve_design
from ssmopt.errors import DegenerateModeError, assert_real_each
from ssmopt.fdcheck import backbone_response, fd_gradient
from ssmopt.mechmodel import ParamDerivatives, SymTensor
from ssmopt.multiindex import table_row
from ssmopt.models import (
    ChainSpec,
    VkBeamSpec,
    build_chain,
    build_vk_beam,
    chain_per_spring_k3,
    vk_center_dof,
)
from ssmopt.sens_adjoint import _Bars, contract_gradient, solve_adjoint, solve_adjoint_phi_omega
from ssmopt.sens_direct import chain_derivatives, eig_derivatives
from ssmopt.spectral import MasterPair

from oracles import fd_gradient_richardson, pick_params, reference_projection, reference_walk


def _eig_derivatives(model, master, params):
    """`eig_derivatives` on a new expansion of the master pair, with the
    master's explicit partials as the direct walk's record holds them."""
    modal = params.modal_partials(master.omega, master.phi)
    return eig_derivatives(ssm.SsmExpansion(model, master), params, modal)


def null_params(n):
    return ParamDerivatives.stack(
        n,
        names=("null",),
        matrices={},
        dT2=(SymTensor.empty(n, 2),),
        dT3=(SymTensor.empty(n, 3),),
    )


class TestSingularBorderedSystems:
    """Two uncoupled unit oscillators whose second frequency is 1 + split.

    With the master at omega = 1 the bordered mode systems are singular
    (split 0) or singular to working precision (split 1e-14). An unchecked
    LU returns inf/nan or a meaningless huge solution there.
    """

    @staticmethod
    def _pair(split):
        model = MechModel(np.eye(2), np.diag([1.0, (1.0 + split) ** 2]), 0.0, 0.0,
                          SymTensor.empty(2, 2), SymTensor.empty(2, 3))
        master = MasterPair(phi=np.array([1.0, 0.0]), omega=1.0, xi=0.0, lam=1j, mode_index=0)
        return model, master

    @pytest.mark.parametrize("split", [0.0, 1e-14])
    def test_eigenpair_system(self, split):
        model, master = self._pair(split)
        params = ParamDerivatives.stack(2, ("k",), {0: (np.zeros((2, 2)), np.eye(2))},
                                        (SymTensor.empty(2, 2),), (SymTensor.empty(2, 3),))
        # the eigenpair derivatives solve with the expansion's factorization
        # of the bordered mode-shape system (`SsmExpansion.mode_lu`)
        with pytest.raises(DegenerateModeError, match="mode-shape system is singular"):
            _eig_derivatives(model, master, params)

    @pytest.mark.parametrize("split", [0.0, 1e-14])
    def test_mode_shape_adjoint_system(self, split):
        # the adjoint's mode-shape solve reads the same factorization
        model, master = self._pair(split)
        exp = ssm.SsmExpansion(model, master)
        with pytest.raises(DegenerateModeError, match="mode-shape system is singular"):
            solve_adjoint_phi_omega(exp, _Bars(model.n, 2))


class TestEigDerivatives:
    def test_null_parameter(self, chain2, chain2_master):
        model, _ = chain2
        dphi, domega = _eig_derivatives(model, chain2_master, null_params(2))
        assert np.all(dphi == 0.0) and np.all(domega == 0.0)

    def test_one_dof_stiffness_derivative(self):
        model, params = build_chain(
            ChainSpec(n_masses=1, k2=0.0, k3=0.0, beta_r=0.0), params=("k",)
        )
        master = solve_master(model, 0)
        _, domega = _eig_derivatives(model, master, params)
        # d sqrt(k)/dk at k=1
        assert domega[0] == pytest.approx(0.5, rel=1e-12)

    def test_chain_against_finite_differences(self, chain2, chain2_master):
        model, params = chain2
        dphi, domega = _eig_derivatives(model, chain2_master, params)
        mu0 = np.array([1.0, 1.0, 0.5, 0.2])

        def omega_of(mu):
            m, _ = build_chain(
                ChainSpec(n_masses=2, mass=mu[0], k=mu[1], k2=mu[2], k3=mu[3], beta_r=0.1)
            )
            return track_mode(m, chain2_master.phi).omega

        fd = fd_gradient(omega_of, mu0)
        assert np.allclose(domega, fd, rtol=1e-6)

    def test_mode_shape_derivative_against_fd(self, chain2, chain2_master):
        model, params = chain2
        dphi, _ = _eig_derivatives(model, chain2_master, params)
        mu0 = np.array([1.0, 1.0, 0.5, 0.2])
        h = 1e-6 * 2.0  # mass parameter

        def phi_of(mass):
            m, _ = build_chain(ChainSpec(n_masses=2, mass=mass, beta_r=0.1))
            return track_mode(m, chain2_master.phi).phi

        fd = (phi_of(1.0 + h) - phi_of(1.0 - h)) / (2 * h)
        assert np.allclose(dphi[0], fd, rtol=1e-5, atol=1e-9)


# a builder with no parameters -> (model, params, dof, x)
EMPTY_BEAM = VkBeamSpec(a1=0.002, a2=0.001)
MATRIX_BLOCK = {
    "type": "matrix",
    "n": 2,
    "M": [[1.0, 0.0], [0.0, 1.0]],
    "K": [[2.0, -1.0], [-1.0, 2.0]],
    "beta_r": 0.01,
    "T3": [[0, 0, 0, 0, 0.5]],
}
EMPTY_PARAMETER_SETS = {
    "build_chain": lambda: (*build_chain(ChainSpec(), ()), 1, 0.2),
    "build_vk_beam": lambda: (*build_vk_beam(EMPTY_BEAM, ()), vk_center_dof(EMPTY_BEAM), 0.002),
    "resolve_design": lambda: (*resolve_design(MATRIX_BLOCK)[2](np.zeros(0)), 0, 0.1),
    "chain_per_spring_k3": lambda: (
        build_chain(ChainSpec(), ())[0], chain_per_spring_k3(ChainSpec(), 0), 1, 0.2
    ),
}


@pytest.mark.parametrize("name", EMPTY_PARAMETER_SETS)
def test_empty_parameter_set(name):
    # the matrix stacks keep the model's size, and both methods return no
    # component instead of failing in the eigenproblem terms
    model, params, dof, x = EMPTY_PARAMETER_SETS[name]()
    assert params.count == 0 and params.matrix_params == ()
    assert params.dM.shape == params.dK.shape == (0, model.n, model.n)
    exp = compute_ssm(model, solve_master(model, 0), 5)
    rho = rho_of_x(exp, dof, x)
    adjoint = contract_gradient(model, exp, solve_adjoint(model, exp, dof, rho), params)
    direct = chain_derivatives(model, exp, params, dof, rho)
    assert adjoint.d_omega.shape == direct.d_omega.shape == direct.d_rho.shape == (0,)


class TestChainDerivatives:
    def test_null_parameter_gives_zero(self, chain2, chain2_exp5):
        model, _ = chain2
        rho = rho_of_x(chain2_exp5, 1, 0.1)
        dd = chain_derivatives(model, chain2_exp5, null_params(2), 1, rho)
        assert dd.d_omega[0] == 0.0 and dd.d_rho[0] == 0.0

    def test_four_parameters_against_fd(self, chain2, chain2_master):
        model, params = chain2
        exp = compute_ssm(model, chain2_master, 5)
        x0 = 0.1
        rho = rho_of_x(exp, 1, x0)
        dd = chain_derivatives(model, exp, params, 1, rho)
        mu0 = np.array([1.0, 1.0, 0.5, 0.2])

        def builder(mu):
            m, _ = build_chain(
                ChainSpec(n_masses=2, mass=mu[0], k=mu[1], k2=mu[2], k3=mu[3], beta_r=0.1)
            )
            return m

        fd = fd_gradient(
            lambda mu: backbone_response(
                builder, mu, x0=x0, dof_index=1, order=5, reference=chain2_master.phi
            ),
            mu0,
        )
        assert np.all(np.abs(dd.d_omega - fd) <= 1e-5 * np.abs(fd))

    def test_fd_oracle_is_self_consistent(self, chain2, chain2_master):
        # Richardson step-halving: smooth second-order central differences
        model, params = chain2
        mu0 = np.array([1.0, 1.0, 0.5, 0.2])

        def builder(mu):
            m, _ = build_chain(
                ChainSpec(n_masses=2, mass=mu[0], k=mu[1], k2=mu[2], k3=mu[3], beta_r=0.1)
            )
            return m

        fun = lambda mu: backbone_response(
            builder, mu, x0=0.1, dof_index=1, order=3, reference=chain2_master.phi
        )
        extrap, _ = fd_gradient_richardson(fun, mu0, rel_step=1e-5)
        exp = compute_ssm(model, chain2_master, 3)
        dd = chain_derivatives(model, exp, params, 1, rho_of_x(exp, 1, 0.1))
        assert np.allclose(dd.d_omega, extrap, rtol=1e-7)

    def test_fixed_amplitude_rho_derivative(self, chain2, chain2_master):
        # d rho/d mu must match finite differences of the amplitude inversion
        model, params = chain2
        exp = compute_ssm(model, chain2_master, 5)
        x0 = 0.15
        rho = rho_of_x(exp, 1, x0)
        dd = chain_derivatives(model, exp, params, 1, rho)

        def rho_at(mu):
            m, _ = build_chain(
                ChainSpec(n_masses=2, mass=mu[0], k=mu[1], k2=mu[2], k3=mu[3], beta_r=0.1)
            )
            mm = track_mode(m, chain2_master.phi)
            e = compute_ssm(m, mm, 5)
            return rho_of_x(e, 1, x0)

        fd = fd_gradient(rho_at, np.array([1.0, 1.0, 0.5, 0.2]))
        assert np.allclose(dd.d_rho, fd, rtol=2e-5, atol=1e-10)

    def test_cost_scales_with_parameter_count(self, chain2, chain2_exp5):
        import time

        model, params = chain2
        rho = rho_of_x(chain2_exp5, 1, 0.1)
        one = pick_params([(params, 0)])
        # a new ParamDerivatives per call: the expansion keeps the walk of
        # the last one, and each timed call must walk. Their stacked tensors
        # and key layouts are built outside the timer
        runs = [(replace(one), replace(params)) for _ in range(5)]
        for pair in runs:
            for p in pair:
                for T in (p.dT2, p.dT3):
                    if T.nnz:
                        T.key_pattern, T.projections

        def timed(p):
            t0 = time.perf_counter()
            chain_derivatives(model, chain2_exp5, p, 1, rho)
            return time.perf_counter() - t0

        # min of five calls per side; the sides alternate within each run,
        # so that a drift of the host's speed, or a first call's one-off
        # cost, does not fall on one side alone
        t_one = t_four = np.inf
        for p_one, p_four in runs:
            t_one = min(t_one, timed(p_one))
            t_four = min(t_four, timed(p_four))
        # four parameters should cost measurably more than one, far less than 16x
        assert t_four > 1.5 * t_one
        assert t_four < 16.0 * t_one

    @pytest.mark.parametrize("order", [5, 7])
    def test_per_spring_gradient_matches_adjoint_to_roundoff(self, order):
        # chain21 with one k3 per spring. The bound separates roundoff
        # (<= 3e-14 with one key-factored contraction per tensor) from the
        # 6e-13-1.3e-12 that one entrywise contraction per decomposition and
        # slot accumulates on this model
        spec = ChainSpec(n_masses=21, alpha_r=0.0, beta_r=0.02)
        model, _ = build_chain(spec)
        params = chain_per_spring_k3(spec, 20)
        exp = compute_ssm(model, solve_master(model, 0), order)
        for x in (0.01, 0.05, 0.15):
            rho = rho_of_x(exp, 20, x)
            direct = chain_derivatives(model, exp, params, 20, rho).d_omega
            adj = solve_adjoint(model, exp, 20, rho)
            adjoint = contract_gradient(model, exp, adj, params).d_omega
            err = np.max(np.abs(direct - adjoint)) / np.max(np.abs(adjoint))
            assert err <= 2e-13, f"x={x}: direct vs adjoint {err:.1e}"

    @pytest.mark.parametrize("order", [5, 7])
    def test_mixed_parameters_match_adjoint_to_roundoff(self, order):
        # one ParamDerivatives that interleaves parameters with mass and
        # stiffness derivatives and per-spring k3 parameters, which skip
        # every dense matrix term: the skip must not leak between them
        spec = ChainSpec(n_masses=21, alpha_r=0.0, beta_r=0.02)
        model, family = build_chain(spec, params=("k", "mass"))
        springs = chain_per_spring_k3(spec, 20)
        chosen = [(springs, p) for p in range(10)] + [(family, 0)]
        chosen += [(springs, p) for p in range(10, 20)] + [(family, 1)]
        params = pick_params(chosen)
        assert params.matrix_params == (10, 21)
        exp = compute_ssm(model, solve_master(model, 0), order)
        for x in (0.01, 0.05, 0.15):
            rho = rho_of_x(exp, 20, x)
            direct = chain_derivatives(model, exp, params, 20, rho).d_omega
            adj = solve_adjoint(model, exp, 20, rho)
            adjoint = contract_gradient(model, exp, adj, params).d_omega
            err = np.max(np.abs(direct - adjoint)) / np.max(np.abs(adjoint))
            assert err <= 2e-13, f"x={x}: direct vs adjoint {err:.1e}"

    def test_memory_stays_at_one_index(self):
        # each index's linearizations are dropped before the next index:
        # one call on the curved ten-element beam at O9 (four parameters)
        # peaked at about 1.7 MB, where holding every index's linearization
        # for the whole call peaked at about 10 MB
        spec = VkBeamSpec(a1=0.002, a2=0.001)
        model, params = build_vk_beam(spec)
        exp = compute_ssm(model, solve_master(model, 0), 9)
        dof = vk_center_dof(spec)
        rho = rho_of_x(exp, dof, 0.002)
        chain_derivatives(model, exp, params, dof, rho)  # the caches fill here
        # a new ParamDerivatives walks again; its stacked tensors and their
        # key layouts are built outside the trace
        fresh = replace(params)
        for T in (fresh.dT2, fresh.dT3):
            if T.nnz:
                T.key_pattern, T.projections
        tracemalloc.start()
        try:
            chain_derivatives(model, exp, fresh, dof, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20, f"peak {peak / 2**20:.2f} MB"


class TestProjection:
    """`chain_derivatives` projects the walk's stacked record for every
    parameter at once; it must give the per-parameter loop's numbers
    (`oracles.reference_projection`) bit for bit."""

    @staticmethod
    def _chain101():
        spec = ChainSpec(n_masses=101, alpha_r=0.0, beta_r=0.02)
        model, _ = build_chain(spec)
        exp = compute_ssm(model, solve_master(model, 0), 5)
        return model, chain_per_spring_k3(spec, 100), exp, ((100, 0.01), (100, 0.15), (60, 0.05))

    @staticmethod
    def _vk_beam10():
        spec = VkBeamSpec(a1=0.002, a2=0.001)
        model, params = build_vk_beam(spec)
        exp = compute_ssm(model, solve_master(model, 0), 9)
        dof = vk_center_dof(spec)
        return model, params, exp, ((dof, 0.002), (dof, 0.004), (dof - 3, 0.001))

    @pytest.mark.parametrize("case", ["_chain101", "_vk_beam10"])
    def test_stacked_projection_is_the_per_parameter_loop(self, case):
        model, params, exp, targets = getattr(self, case)()
        record = sens_direct._walk(model, exp, params)
        assert record.dw.shape[0] == params.count
        for dof, x in targets:
            rho = rho_of_x(exp, dof, x)
            got = chain_derivatives(model, exp, params, dof, rho)
            pw = point_weights(exp, dof, rho)
            drho, dOm = reference_projection(record, pw, dof)
            d_rho = assert_real_each(drho, "drho", params.names)
            d_omega = assert_real_each(dOm, "dOmega", params.names) + pw.domega_drho * d_rho
            assert got.d_rho.tobytes() == d_rho.tobytes()
            assert got.d_omega.tobytes() == d_omega.tobytes()


class TestPerOrderWalk:
    """`sens_direct._walk` steps through whole orders, each order's
    canonical indices one column of a block; `oracles.reference_walk` steps
    one index at a time. The two reassociate the same sums, so they agree
    to roundoff, normwise over every index and parameter."""

    @staticmethod
    def _chain101():
        spec = ChainSpec(n_masses=101, alpha_r=0.0, beta_r=0.02)
        model, _ = build_chain(spec)
        return model, chain_per_spring_k3(spec, 100), 5

    @staticmethod
    def _damped_curved_vk_beam10():
        # four matrix parameters; resonant indices at every odd order and
        # self-symmetric ones at every even order
        model, params = build_vk_beam(VkBeamSpec(a1=0.002, a2=0.001, alpha_r=1.0, beta_r=1e-5))
        return model, params, 9

    @pytest.mark.parametrize("case", ["_chain101", "_damped_curved_vk_beam10"])
    def test_matches_the_per_index_walk(self, case):
        model, params, order = getattr(self, case)()
        exp = compute_ssm(model, solve_master(model, 0), order)
        got = sens_direct._walk(model, exp, params)
        want = reference_walk(model, exp, params)
        assert set(want.dw) == set(exp.indices) and want.dR

        def normwise(a, b):
            return np.linalg.norm(a - b) / np.linalg.norm(b)

        dw = np.array([got.dw[:, table_row(m, 1)] for m in want.dw])
        assert normwise(dw, np.array(list(want.dw.values()))) <= 1e-12
        dR = np.array([got.dR[:, table_row(m, 1)] for m in want.dR])
        assert normwise(dR, np.array(list(want.dR.values()))) <= 1e-12
        assert np.array_equal(got.dlam, want.dlam)
