import numpy as np
import pytest

from ssmopt import MechModel, SymTensor, mac, solve_master, track_mode
from ssmopt.errors import DegenerateModeError, LightDampingError, TrackingLostError
from ssmopt.models import ChainSpec, build_chain
from ssmopt.spectral import solve_modes


def bare(M, K, alpha_r=0.0, beta_r=0.0):
    n = M.shape[0]
    return MechModel(M, K, alpha_r, beta_r, SymTensor.empty(n, 2), SymTensor.empty(n, 3))


class TestSolveMaster:
    def test_reference_chain_eigenvalue(self, chain2_master):
        # reported value: lambda = -0.0191 + 0.6177i to four significant digits
        lam = chain2_master.lam
        assert lam.real == pytest.approx(-0.0191, abs=5e-5)
        assert lam.imag == pytest.approx(0.6177, abs=5e-5)

    def test_unit_oscillator(self):
        mp = solve_master(bare(np.eye(1), np.eye(1)), 0)
        assert mp.omega == 1.0 and mp.xi == 0.0 and mp.lam == 1j

    def test_chain_frequency_vs_characteristic_polynomial(self, chain2_master):
        # oracle: roots of det(K - w^2 M) for K=[[2,-1],[-1,1]], M=I:
        # w^4 - 3 w^2 + 1 = 0
        w2 = np.roots([1.0, -3.0, 1.0]).min()
        assert chain2_master.omega**2 == pytest.approx(w2, rel=1e-12)

    def test_mass_normalization_and_rayleigh_quotient(self, chain2, chain2_master):
        model, _ = chain2
        phi, w = chain2_master.phi, chain2_master.omega
        assert phi @ model.M @ phi == pytest.approx(1.0, rel=1e-10)
        assert phi @ model.K @ phi == pytest.approx(w**2, rel=1e-10)

    def test_eigen_residual(self, chain2, chain2_master):
        model, _ = chain2
        phi, w = chain2_master.phi, chain2_master.omega
        resid = np.linalg.norm((model.K - w**2 * model.M) @ phi)
        assert resid <= 1e-9 * np.linalg.norm(model.K @ phi)

    def test_lambda_structure(self, chain2_master):
        mp = chain2_master
        assert mp.lam_bar == np.conj(mp.lam)
        assert mp.lam.real == pytest.approx(-mp.xi * mp.omega, rel=1e-12)
        assert abs(mp.lam) == pytest.approx(mp.omega, rel=1e-12)

    def test_sign_convention_deterministic(self, chain2):
        model, _ = chain2
        mp = solve_master(model, 0)
        assert mp.phi[np.argmax(np.abs(mp.phi))] > 0

    @pytest.mark.parametrize("index", [2, -1])
    def test_mode_index_out_of_range_raises(self, chain2, index):
        with pytest.raises(ValueError) as err:
            solve_master(chain2[0], index)
        assert type(err.value) is ValueError
        assert str(err.value) == f"mode index {index} out of range for 2 modes"

    def test_overdamped_raises(self):
        with pytest.raises(LightDampingError):
            solve_master(bare(np.eye(1), np.eye(1), alpha_r=3.0), 0)

    def test_degenerate_pair_raises(self):
        with pytest.raises(DegenerateModeError):
            solve_master(bare(np.eye(2), np.eye(2)), 0)


class TestMac:
    def test_self_correlation(self):
        a = np.array([1.0, 2.0, -3.0])
        assert mac(a, a) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert mac(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_scale_and_sign_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.normal(size=(2, 4))
            s = rng.uniform(0.1, 5.0) * np.sign(rng.normal())
            assert mac(a, b) == pytest.approx(mac(s * a, b), abs=1e-13)
            assert mac(a, b) == pytest.approx(mac(a, -2.0 * b), abs=1e-13)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            mac(np.zeros(3), np.ones(3))


def three_dof_model(split: float):
    """Two nearly uncoupled oscillators whose frequency ORDER depends on split."""
    K = np.array([[1.0 + split, 0.02, 0.0], [0.02, 1.0, 0.0], [0.0, 0.0, 4.0]])
    return bare(np.eye(3), K)


class TestTrackMode:
    def test_unchanged_model_is_fixed_point(self, chain2, chain2_master):
        model, _ = chain2
        tracked = track_mode(model, chain2_master.phi)
        assert tracked.mode_index == chain2_master.mode_index
        assert tracked.mac == pytest.approx(1.0)

    def test_follows_shape_not_index_through_swap(self):
        # oracle: exhaustive MAC over all modes on both sides of the swap
        before = three_dof_model(-0.1)
        after = three_dof_model(+0.1)
        ref = solve_master(before, 0)  # localized on mass 1 (softer spring)
        omegas, Phi = solve_modes(after)
        best = int(np.argmax([mac(Phi[:, i], ref.phi) for i in range(3)]))
        tracked = track_mode(after, ref.phi)
        assert tracked.mode_index == best == 1  # the shape moved to index 1

    def test_lost_tracking_raises(self):
        # diagonal stiffness: modes are the unit vectors, and the diagonal
        # reference correlates equally (and badly) with all of them
        model = bare(np.eye(3), np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(TrackingLostError):
            track_mode(model, np.ones(3))

    def test_argmax_invariant_under_model_scaling(self):
        spec = ChainSpec(n_masses=3, k2=0.0, k3=0.0)
        model, _ = build_chain(spec)
        ref = solve_master(model, 1).phi
        scaled = bare(2.0 * model.M, 2.0 * model.K)
        assert track_mode(scaled, ref).mode_index == 1
