from dataclasses import fields, replace

import numpy as np
import pytest

from ssmopt import compute_ssm, omega_of_rho, solve_master, track_mode
from ssmopt.errors import ConfigError, ModelError
from ssmopt.fdcheck import fd_gradient
from ssmopt.multiindex import order
from ssmopt.models import (
    FAMILIES,
    ChainSpec,
    VkBeamSpec,
    build_chain,
    build_vk_beam,
    chain_per_spring_k3,
    vk_center_dof,
)

from oracles import fd_gradient_richardson


class TestChain:
    def test_reference_operators(self, chain2):
        model, _ = chain2
        assert np.array_equal(model.K, [[2.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(model.M, np.eye(2))
        assert np.allclose(model.pencil.C, 0.1 * model.K)

    def test_zero_nonlinearity_gives_linear_chain(self):
        model, _ = build_chain(ChainSpec(k2=0.0, k3=0.0))
        master = solve_master(model, 0)
        exp = compute_ssm(model, master, 5)
        for m in exp.data:
            if order(m) >= 2:
                assert np.abs(exp.w(m)).max() == 0.0

    def test_force_matches_hand_coded_equations(self):
        spec = ChainSpec(n_masses=4, k2=0.3, k3=0.7)
        model, _ = build_chain(spec)
        rng = np.random.default_rng(2)
        k, k2, k3 = spec.k, spec.k2, spec.k3
        for _ in range(10):
            x = rng.normal(size=4)
            f = np.zeros(4)
            xs = np.concatenate([[0.0], x])  # ground prepended
            for i in range(1, 5):
                for o in (i - 1, i + 1):
                    if o > 4:
                        continue
                    d = xs[i] - xs[o]
                    f[i - 1] += k2 * d**2 + k3 * d**3
            assert np.allclose(model.nonlinear_force(x), f, atol=1e-14)

    def test_linear_internal_forces_are_reciprocal(self):
        # the odd-power spring forces act equal-and-opposite on the two ends;
        # checked via the stiffness pattern and the cubic-only force
        spec = ChainSpec(n_masses=3, k2=0.0, k3=0.4)
        model, _ = build_chain(spec)
        assert np.allclose(model.K, model.K.T)
        x = np.array([0.0, 0.7, 0.0])
        f = model.nonlinear_force(x)
        # spring 1-2 stretches by -0.7, spring 2-3 by +0.7; mass 1 and mass 3
        # receive the opposite of the cubic force acting on mass 2 from each
        assert f[0] == pytest.approx(-0.4 * 0.7**3)
        assert f[2] == pytest.approx(-0.4 * 0.7**3)

    def test_per_spring_parametrization(self):
        spec = ChainSpec(n_masses=5)
        derivs = chain_per_spring_k3(spec, 3)
        assert derivs.count == 3
        assert derivs.names == ("k3_0", "k3_1", "k3_2")
        model, _ = build_chain(spec)
        # summing all per-spring patterns over every spring reproduces dT3 of
        # the shared coefficient
        full = chain_per_spring_k3(spec, 5)
        shared = build_chain(spec, params=("k3",))[1]
        rng = np.random.default_rng(0)
        x = rng.normal(size=5)
        total = sum(t.force(x) for t in full.dT3)
        assert np.allclose(total, shared.dT3[0].force(x), atol=1e-12)


class TestVkBeam:
    def test_free_dof_count(self, beam):
        model, _ = beam
        assert model.n == 27

    def test_first_bending_frequency_euler_bernoulli(self, beam_spec, beam_master):
        E, rho = beam_spec.youngs, beam_spec.density
        b = beam_spec.thickness
        A = b * beam_spec.thickness
        inertia = b * beam_spec.thickness**3 / 12.0
        w_eb = 4.730**2 * np.sqrt(E * inertia / (rho * A * beam_spec.length**4))
        assert beam_master.omega == pytest.approx(w_eb, rel=0.01)

    def test_flat_beam_hardens(self, beam, beam_master):
        model, _ = beam
        exp = compute_ssm(model, beam_master, 3)
        assert exp.R((2, 1))[0].imag > 0.0
        assert omega_of_rho(exp, 1e-3) > beam_master.omega

    def test_flat_beam_reflection_equivariance(self, beam):
        # mirror the transverse DOFs: the internal force mirrors with them
        model, _ = beam
        n = model.n
        S = np.ones(n)
        S[1::3] = -1.0  # transverse displacements
        S[2::3] = -1.0  # rotations
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = 1e-3 * rng.normal(size=n)
            assert np.allclose(
                model.nonlinear_force(S * x), S * model.nonlinear_force(x), atol=1e-18
            )

    def test_clamping_removes_rigid_modes(self, beam):
        model, _ = beam
        assert np.linalg.eigvalsh(model.K).min() > 0.0

    def test_curved_shape_activates_quadratic_coupling(self):
        flat, _ = build_vk_beam(VkBeamSpec())
        curved, _ = build_vk_beam(VkBeamSpec(a1=0.003))
        assert curved.T2.nnz > flat.T2.nnz

    def test_fd_derivatives_pass_richardson_check(self, beam_spec, beam_master, beam_center_dof):
        # assembly-level finite differences at two step sizes: the error of a
        # central difference drops by ~4 when the step is halved
        mu0 = np.array([0.001, 0.0005, beam_spec.thickness, beam_spec.length])

        def omega_at(mu):
            spec = replace(beam_spec, a1=mu[0], a2=mu[1], thickness=mu[2], length=mu[3])
            model = build_vk_beam(spec, ())[0]
            return track_mode(model, beam_master.phi).omega

        _, ratio = fd_gradient_richardson(omega_at, mu0, rel_step=1e-4)
        # consistency: extrapolation agrees with the fine step far better
        # than the coarse one (ratio >> 1 for smooth second-order accuracy)
        assert np.all(ratio > 2.0)

    def test_fd_of_assembly_matches_eig_derivative_fd(self, beam, beam_spec, beam_master):
        from ssmopt.sens_direct import eig_derivatives

        model, params = beam
        _, domega = eig_derivatives(model, beam_master, params)

        def omega_at(mu):
            spec = replace(beam_spec, a1=mu[0], a2=mu[1], thickness=mu[2], length=mu[3])
            m = build_vk_beam(spec, ())[0]
            return track_mode(m, beam_master.phi).omega

        mu0 = np.array([0.0, 0.0, beam_spec.thickness, beam_spec.length])
        fd = fd_gradient(omega_at, mu0)
        assert np.allclose(domega, fd, rtol=1e-4, atol=1e-6)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ModelError):
            build_vk_beam(VkBeamSpec(thickness=0.0))
        with pytest.raises(ModelError):
            build_vk_beam(VkBeamSpec(length=-1.0))

    def test_center_dof_requires_even_elements(self):
        with pytest.raises(ConfigError):
            vk_center_dof(VkBeamSpec(n_elements=9))


class TestCatalog:
    """The reference models the tests share (conftest fixtures)."""

    def test_reference_chain_entry(self, chain2):
        model, params = chain2
        assert model.n == 2 and params.names == ("mass", "k", "k2", "k3")
        assert np.array_equal(model.K, [[2.0, -1.0], [-1.0, 1.0]])

    def test_duffing_entry(self, duffing):
        model, params = duffing
        assert model.n == 1 and params.names == ("k", "k3")
        assert solve_master(model, 0).lam == 1j


def _moved(value):
    """A spec value changed: integers +1, floats x1.1 (or 0.001 from 0), and
    a None width set to 0.02."""
    if value is None:
        return 0.02
    if isinstance(value, int):
        return value + 1
    return value * 1.1 if value else 0.001


def _operators(model):
    return (model.M, model.K, model.T2.idx, model.T2.vals, model.T3.idx, model.T3.vals,
            model.alpha_r, model.beta_r)


@pytest.mark.parametrize(
    "kind, field", [(kind, f.name) for kind, fam in FAMILIES.items() for f in fields(fam.spec)]
)
def test_every_spec_field_changes_the_model(kind, field):
    """A spec field that the builder never reads would be an inert config key."""
    family = FAMILIES[kind]
    spec = family.spec()
    base = family.build(spec, ())[0]
    moved = family.build(replace(spec, **{field: _moved(getattr(spec, field))}), ())[0]
    same = [np.array_equal(a, b) for a, b in zip(_operators(base), _operators(moved))]
    assert not all(same)
