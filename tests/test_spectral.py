import numpy as np
import pytest
import scipy.linalg

from ssmopt import MechModel, SymTensor, mac, solve_master, track_mode
from ssmopt.errors import (
    ArgumentError,
    DegenerateModeError,
    LightDampingError,
    TrackingLostError,
)
from ssmopt.models import ChainSpec, VkBeamSpec, build_chain, build_vk_beam
from ssmopt.spectral import solve_modes


def bare(M, K, alpha_r=0.0, beta_r=0.0):
    n = M.shape[0]
    return MechModel(M, K, alpha_r, beta_r, SymTensor.empty(n, 2), SymTensor.empty(n, 3))


def free_free_chain(n):
    """Unit springs between n masses 1, ..., n and no ground spring: K has a
    rigid-body mode, whose eigenvalue comes out of eigh as +-roundoff."""
    K = np.zeros((n, n))
    for i in range(n - 1):
        K[i : i + 2, i : i + 2] += [[1.0, -1.0], [-1.0, 1.0]]
    return bare(np.diag(np.arange(1.0, n + 1)), K)


def random_pencil(n, seed):
    """Seeded random SPD M and PSD K of rank n - 1."""
    rng = np.random.default_rng(seed)
    A, B = rng.normal(size=(n, n)), rng.normal(size=(n, n - 1))
    return bare(A @ A.T + n * np.eye(n), B @ B.T)


MODE_CASES = {
    "chain2": lambda: build_chain(ChainSpec())[0],
    "chain101": lambda: build_chain(ChainSpec(n_masses=101, alpha_r=0.0, beta_r=0.02))[0],
    "vk_beam10": lambda: build_vk_beam(VkBeamSpec(a1=0.002, a2=0.001))[0],
    "vk_beam40": lambda: build_vk_beam(VkBeamSpec(n_elements=40, a1=0.002, a2=0.001))[0],
    "free_free5": lambda: free_free_chain(5),
    "random5": lambda: random_pencil(5, 1),
    "random20": lambda: random_pencil(20, 2),
    "random60": lambda: random_pencil(60, 3),
}


class TestModes:
    @pytest.mark.parametrize("case", MODE_CASES)
    def test_matches_the_generalized_eigh(self, case):
        # oracle: scipy's generalized symmetric-definite eigh (LAPACK sygvd)
        model = MODE_CASES[case]()
        omegas, Phi = model.modes
        w2 = np.maximum(scipy.linalg.eigh(model.K, model.M, eigvals_only=True), 0.0)
        w2_max = omegas[-1] ** 2
        assert np.all(omegas >= 0.0) and np.all(np.diff(omegas) >= 0.0)
        assert np.abs(omegas**2 - w2).max() <= 1e-12 * w2_max
        # mass-normalized without a normalization pass
        assert np.abs(Phi.T @ model.M @ Phi - np.eye(model.n)).max() <= 1e-13
        # normwise backward error of each pair of K phi = omega^2 M phi
        resid = np.linalg.norm(model.K @ Phi - (model.M @ Phi) * omegas**2, axis=0)
        scale = np.linalg.norm(model.K, 2) + omegas**2 * np.linalg.norm(model.M, 2)
        eta = resid / (scale * np.linalg.norm(Phi, axis=0))
        assert eta.max() <= 100 * np.finfo(float).eps
        # the sign rule: each shape's largest-magnitude entry is positive
        assert np.all(Phi[np.abs(Phi).argmax(axis=0), np.arange(model.n)] > 0.0)
        for arr in (omegas, Phi):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0


class TestSolveMaster:
    def test_reference_chain_eigenvalue(self, chain2_master):
        # reported value: lambda = -0.0191 + 0.6177i to four significant digits
        lam = chain2_master.lam
        assert lam.real == pytest.approx(-0.0191, abs=5e-5)
        assert lam.imag == pytest.approx(0.6177, abs=5e-5)

    @pytest.mark.parametrize(
        "n, k", [(2, 1.0), (3, 1e-3), (3, 1.0), (5, 1e3), (8, 1.0), (21, 1e3)]
    )
    def test_rigid_body_master_is_rejected(self, n, k):
        # a free-free chain's rigid mode has omega^2 of roundoff size, of
        # either sign; its square root (0 or about 1e-8 of the largest
        # omega) is rejected as a master whatever the sign
        masses = np.random.default_rng(n).uniform(0.5, 2.0, n)
        model = free_free_chain(n)
        model = bare(np.diag(masses), k * model.K, beta_r=0.01)
        assert model.modes[0][0] ** 2 <= 1e-15 * model.modes[0][-1] ** 2
        with pytest.raises(DegenerateModeError, match="^mode 0 has zero frequency"):
            solve_master(model, 0)
        assert solve_master(model, 1).omega > 0.0

    def test_slender_beam_master_is_not_rigid(self):
        # the lowest real ratio omega_1^2 / omega_max^2 among the beams, at
        # n = 477, is far above the rigid-mode bound
        model, _ = build_vk_beam(VkBeamSpec(n_elements=160, a1=0.002, a2=0.001), params=())
        omegas = model.modes[0]
        assert omegas[0] ** 2 / omegas[-1] ** 2 < 1e-9
        assert solve_master(model, 0).omega == omegas[0]

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
        assert type(err.value) is ArgumentError
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
