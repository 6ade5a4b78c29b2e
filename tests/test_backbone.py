import warnings

import numpy as np
import pytest

from ssmopt import (
    MechModel,
    SymTensor,
    compute_ssm,
    omega_of_rho,
    rho_of_x,
    sample_backbone,
    solve_master,
    x_rms,
)
from ssmopt.backbone import (
    _linear_rho_scale,
    _scan_validity_cap,
    _validity_cap,
    backbone_to_csv,
    domega_drho,
    dx_drho,
    point_weights,
    x_harmonics,
    x_theta_samples,
)
from ssmopt.errors import (
    AmplitudeUnreachableError,
    ArgumentError,
    ConjugacyError,
    SsmError,
    TurningPointError,
    assert_real,
)
from ssmopt.models import VkBeamSpec, build_vk_beam, vk_center_dof
from ssmopt.multiindex import order

from oracles import reference_validity_cap


@pytest.mark.parametrize("amplitude", [omega_of_rho, lambda exp, rho: x_rms(exp, 1, rho)])
def test_negative_rho_raises(chain2_exp5, amplitude):
    # NaN fails the check too: it compares as not nonnegative
    for rho in (-0.1, np.nan):
        with pytest.raises(ValueError) as err:
            amplitude(chain2_exp5, rho)
        assert type(err.value) is ArgumentError and str(err.value) == "rho must be nonnegative"


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda exp: rho_of_x(exp, -1, 0.1), "dof_index"),
        (lambda exp: point_weights(exp, -2, 0.1), "dof_index"),
        (lambda exp: rho_of_x(exp, 7, 0.1), "dof_index"),
        (lambda exp: x_rms(exp, 0, np.inf), "rho"),
        (lambda exp: omega_of_rho(exp, np.inf), "rho"),
    ],
    ids=["rho_of_x dof -1", "point_weights dof -2", "rho_of_x dof 7", "x_rms rho inf",
         "omega_of_rho rho inf"],
)
def test_bad_argument_is_named(chain2_exp5, call, name):
    # a negative DOF index used to wrap around to another DOF, one past the
    # model to reach numpy as an IndexError, and rho = inf to return nan or -inf
    with pytest.raises(ArgumentError, match=rf"^{name} "):
        call(chain2_exp5)


class TestOmegaOfRho:
    def test_zero_amplitude_gives_damped_frequency(self, chain2_exp5, chain2_master):
        assert omega_of_rho(chain2_exp5, 0.0) == chain2_master.omega_d

    def test_linear_model_flat(self, linear_chain):
        model, _ = linear_chain
        master = solve_master(model, 0)
        exp = compute_ssm(model, master, 5)
        for rho in (0.0, 0.3, 1.0):
            assert omega_of_rho(exp, rho) == master.omega_d

    def test_duffing_hardening(self, duffing, duffing_master):
        model, _ = duffing
        exp = compute_ssm(model, duffing_master, 3)
        # harmonic-balance oracle fixes the sign: positive cubic stiffens
        assert exp.R((2, 1))[0].imag > 0
        assert omega_of_rho(exp, 0.2) > omega_of_rho(exp, 0.1) > duffing_master.omega_d


class TestXrms:
    def test_leading_order_only_gives_sqrt2_rho(self, linear_chain):
        # linear 1-DOF: only w_10 = w_01 = 1 contribute, x(rho,theta) = 2 rho cos
        from ssmopt.models import ChainSpec, build_chain

        model, _ = build_chain(ChainSpec(n_masses=1, k2=0.0, k3=0.0, beta_r=0.0))
        exp = compute_ssm(model, solve_master(model, 0), 3)
        for rho in (0.1, 1.0):
            assert x_rms(exp, 0, rho) == pytest.approx(np.sqrt(2.0) * rho, rel=1e-13)

    def test_zero_amplitude(self, chain2_exp5):
        assert x_rms(chain2_exp5, 1, 0.0) == 0.0

    def test_derivative_undefined_at_zero_amplitude(self, chain2_exp5):
        with pytest.raises(TurningPointError, match="undefined at zero amplitude"):
            dx_drho(chain2_exp5, 1, 0.0)

    def test_derivative_matches_finite_difference(self, chain2_exp5):
        rho, h = 0.25, 1e-6
        fd = (x_rms(chain2_exp5, 1, rho + h) - x_rms(chain2_exp5, 1, rho - h)) / (2 * h)
        assert dx_drho(chain2_exp5, 1, rho) == pytest.approx(fd, rel=1e-8)

    def test_overflowing_polynomial_raises(self):
        # finite order-5 coefficients whose squares pass the float range: an
        # error naming the DOF and the order, not a NaN amplitude
        from ssmopt.models import ChainSpec, build_chain

        model, _ = build_chain(ChainSpec(n_masses=2, k3=1e100))
        exp = compute_ssm(model, solve_master(model, 0), 5)
        assert all(np.isfinite(exp.w(m)).all() for m in exp.indices)
        with pytest.raises(SsmError, match="DOF 1 at order 5 overflows"):
            x_rms(exp, 1, 1e-60)


class TestRhoOfX:
    @pytest.mark.parametrize("x0", [0.0, -0.1, np.nan])
    def test_nonpositive_target_raises(self, chain2_exp5, x0):
        with pytest.raises(ValueError) as err:
            rho_of_x(chain2_exp5, 1, x0)
        assert type(err.value) is ArgumentError
        assert str(err.value) == "target amplitude must be positive"

    def test_leading_order_inversion(self):
        from ssmopt.models import ChainSpec, build_chain

        model, _ = build_chain(ChainSpec(n_masses=1, k2=0.0, k3=0.0, beta_r=0.0))
        exp = compute_ssm(model, solve_master(model, 0), 3)
        assert rho_of_x(exp, 0, np.sqrt(2.0)) == pytest.approx(1.0, rel=1e-10)

    def test_round_trip_against_bisection(self, chain2_exp5):
        # oracle: plain bisection on the same amplitude map, to 1e-14
        for x0 in (0.01, 0.1, 0.3):
            rho = rho_of_x(chain2_exp5, 1, x0)
            lo, hi = 0.0, 2.0 * rho + 1e-6
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if x_rms(chain2_exp5, 1, mid) < x0:
                    lo = mid
                else:
                    hi = mid
            # the inversion contract is |x(rho) - x0| <= 1e-10 x0, which maps
            # to a rho window of about 1e-10 * x0 / (dx/drho)
            window = 1e-10 * x0 / dx_drho(chain2_exp5, 1, rho)
            assert rho == pytest.approx(0.5 * (lo + hi), abs=2 * window + 1e-13)
            assert x_rms(chain2_exp5, 1, rho) == pytest.approx(x0, rel=1e-10)

    def test_dof_outside_the_master_mode(self):
        # the master has an exact zero at DOF 1, which a cubic force moves at
        # third order: the bracket starts below the validity cap, and the
        # cap's grid starts from the master's largest entry
        T3 = SymTensor.from_entries(2, 3, [(0, 0, 0, 0, 0.1), (1, 0, 0, 0, 0.5)])
        model = MechModel(np.eye(2), np.diag([1.0, 5.3]), 0.0, 0.0, SymTensor.empty(2, 2), T3)
        master = solve_master(model, 0)
        assert master.phi[1] == 0.0
        exp = compute_ssm(model, master, 5)
        for x0 in (1e-3, 1e-2):
            assert x_rms(exp, 1, rho_of_x(exp, 1, x0)) == pytest.approx(x0, rel=1e-10)

    def test_zero_target_rejected(self, chain2_exp5):
        with pytest.raises(ValueError):
            rho_of_x(chain2_exp5, 1, 0.0)

    def test_unreachable_amplitude_reports_maximum(self, duffing, duffing_master):
        model, _ = duffing
        exp = compute_ssm(model, duffing_master, 5)
        with pytest.raises(AmplitudeUnreachableError) as ei:
            rho_of_x(exp, 0, 1e9)
        assert 0 < ei.value.x_max < 1e9


class TestSampleBackbone:
    def test_single_target_linear_model(self, linear_chain):
        model, _ = linear_chain
        master = solve_master(model, 0)
        exp = compute_ssm(model, master, 3)
        curve = sample_backbone(exp, 1, [0.2])
        (pt,) = curve.points
        assert pt.x == 0.2 and pt.omega == master.omega_d
        assert curve.monotone

    def test_duplicate_targets_kept(self, chain2_exp5):
        curve = sample_backbone(chain2_exp5, 1, [0.1, 0.1])
        assert len(curve.points) == 2
        assert curve.points[0] == curve.points[1]

    def test_chain_regression_curve(self, chain2_exp5):
        # frozen regression of the damped reference chain at order 5; the
        # machinery behind these numbers is cross-checked against time
        # integration in test_ssm (undamped variant)
        targets = [0.05, 0.15, 0.25]
        curve = sample_backbone(chain2_exp5, 1, targets)
        omegas = [p.omega for p in curve.points]
        expected = [0.6176724235889911, 0.6171401726481182, 0.6160705450759484]
        assert np.allclose(omegas, expected, rtol=1e-12)

    def test_csv_round_trip(self, chain2_exp5):
        curve = sample_backbone(chain2_exp5, 1, [0.05, 0.2])
        text = backbone_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "rho,omega,x"
        parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        for row, pt in zip(parsed, curve.points):
            assert row[0] == pt.rho and row[1] == pt.omega and row[2] == pt.x


def test_backbone_invariant_under_mode_sign_flip(chain2, chain2_master):
    # the observable frequency-amplitude relation must not depend on the
    # arbitrary sign of the mode shape
    from dataclasses import replace

    model, _ = chain2
    flipped = replace(
        chain2_master,
        phi=-chain2_master.phi,
    )
    exp_a = compute_ssm(model, chain2_master, 5)
    exp_b = compute_ssm(model, flipped, 5)
    for x0 in (0.05, 0.2):
        ra = rho_of_x(exp_a, 1, x0)
        rb = rho_of_x(exp_b, 1, x0)
        assert omega_of_rho(exp_a, ra) == pytest.approx(omega_of_rho(exp_b, rb), rel=1e-12)


# -- closed-form amplitude map against the theta-grid oracle -------------------


def grid_rms(exp, dof, rho, n_theta=128, max_order=None):
    xk = x_theta_samples(exp, dof, rho, n_theta, max_order)
    return float(np.sqrt(np.mean(xk**2)))


def grid_slope(exp, dof, rho, n_theta=128):
    """d x_rms / d rho as the grid mean of x dx/drho over x_rms."""
    thetas = 2.0 * np.pi * np.arange(1, n_theta + 1) / n_theta
    xk = x_theta_samples(exp, dof, rho, n_theta)
    dxk = np.zeros(n_theta, dtype=complex)
    for m in exp.indices:
        q = m[0] + m[1]
        dxk += exp.w(m)[dof] * q * rho ** (q - 1) * np.exp(1j * (m[0] - m[1]) * thetas)
    return float((np.sum(xk * dxk) / (n_theta * np.sqrt(np.mean(xk**2)))).real)


def grid_validity_cap(exp, dof, n_theta=128):
    """The validity-cap scan evaluated on theta-grid RMS values."""
    lower = 1 if exp.order <= 3 else exp.order - 2
    rho = _linear_rho_scale(exp, dof)
    for _ in range(200):
        xf = grid_rms(exp, dof, rho, n_theta)
        xl = grid_rms(exp, dof, rho, n_theta, max_order=lower)
        if xf == 0.0 or abs(xf - xl) > 0.1 * xf:
            return rho
        rho *= 1.25
    return rho


CURVED_BEAM = VkBeamSpec(a1=0.005, a2=0.002)


@pytest.fixture(scope="module")
def curved_beam_model():
    return build_vk_beam(CURVED_BEAM, ())[0]


@pytest.fixture(scope="module")
def o9_expansions(chain2, duffing, curved_beam_model):
    models = {"chain2": chain2[0], "duffing": duffing[0], "vk_beam10": curved_beam_model}
    return {k: compute_ssm(m, solve_master(m, 0), 9) for k, m in models.items()}


class TestClosedFormAmplitude:
    @pytest.mark.parametrize("name", ["chain2", "duffing", "vk_beam10"])
    def test_equals_grid_oracle(self, o9_expansions, name):
        exp = o9_expansions[name]
        for dof in range(exp.model.n):
            cap = _validity_cap(exp, dof)
            for rho in cap * np.array([1e-3, 0.1, 0.5, 1.0]):
                for max_order in (None, 1, 3, 5, 7):
                    want = grid_rms(exp, dof, rho, max_order=max_order)
                    got = x_rms(exp, dof, rho, max_order=max_order)
                    assert abs(got - want) <= 1e-12 * want, (dof, rho, max_order)
                want = grid_slope(exp, dof, rho)
                assert abs(dx_drho(exp, dof, rho) - want) <= 1e-12 * abs(want), (dof, rho)

    def test_matches_grid_rms_at_every_grid_size(self, chain2_exp5):
        x = x_rms(chain2_exp5, 1, 0.3)
        for n_theta in (11, 64, 128, 1024):
            assert abs(x - grid_rms(chain2_exp5, 1, 0.3, n_theta)) <= 1e-12 * x

    @pytest.mark.parametrize("m, delta", [((1, 2), 1e-6), ((1, 1), 1e-6j)])
    def test_unpaired_coefficient_raises(self, chain2, chain2_master, m, delta):
        # (1, 2) is the conjugate record of (2, 1); (1, 1) must be real
        model, _ = chain2
        exp = compute_ssm(model, chain2_master, 5)
        exp.w(m)[1] += delta
        with pytest.raises(ConjugacyError):
            x_rms(exp, 1, 0.1)
        with pytest.raises(ConjugacyError):
            x_theta_samples(exp, 1, 0.5, 128)
        x_rms(exp, 0, 0.1)  # the other DOF stays paired

    def test_assert_real_bound_and_message(self):
        # the bound is IMAG_RESIDUE_RTOL relative to max(1, largest real part)
        assert assert_real(3.0 + 2e-10j, "q") == 3.0
        assert assert_real(np.array([0.5 + 0.9e-10j, -2.0]), "q").tolist() == [0.5, -2.0]
        with pytest.raises(ConjugacyError, match="^dOmega has imaginary residue"):
            assert_real(0.5 + 1.1e-10j, "dOmega")
        with pytest.raises(ConjugacyError, match="^theta samples "):
            assert_real(np.array([4.0, 1j * 5e-10]), "theta samples")

    def test_extension_in_place_refreshes_the_cache(self, chain2, chain2_master):
        model, _ = chain2
        exp = compute_ssm(model, chain2_master, 3)
        low = (x_rms(exp, 1, 0.3), dx_drho(exp, 1, 0.3), _validity_cap(exp, 1))
        compute_ssm(model, chain2_master, 7, from_expansion=exp)
        fresh = compute_ssm(model, chain2_master, 7)
        for f in (
            lambda e: x_rms(e, 1, 0.3),
            lambda e: x_rms(e, 1, 0.3, max_order=5),
            lambda e: dx_drho(e, 1, 0.3),
            lambda e: _validity_cap(e, 1),
            lambda e: tuple(x_harmonics(e, 1, 0.3)),
        ):
            assert f(exp) == f(fresh)
        assert (x_rms(exp, 1, 0.3), dx_drho(exp, 1, 0.3), _validity_cap(exp, 1)) != low

    def test_validity_cap_equals_grid_scan(self, chain2, chain2_master, curved_beam_model):
        cases = [(chain2[0], range(2), (3, 5, 7, 9)), (curved_beam_model, (0, 13, 22), (5, 9))]
        for model, dofs, orders in cases:
            exp = None
            for O in orders:
                exp = compute_ssm(model, solve_master(model, 0), O, from_expansion=exp)
                for dof in dofs:
                    assert _validity_cap(exp, dof) == grid_validity_cap(exp, dof)


@pytest.mark.parametrize("name", ["chain2", "duffing", "vk_beam10"])
def test_validity_cap_scan_is_the_scalar_loop(chain2, duffing, curved_beam_model, name):
    # the one-pass scan over the whole grid, overflowing far points
    # included, gives the loop's cap bit for bit and warns of nothing
    model = {"chain2": chain2[0], "duffing": duffing[0], "vk_beam10": curved_beam_model}[name]
    master = solve_master(model, 0)
    exp = None
    for O in (3, 5, 7, 9):
        exp = compute_ssm(model, master, O, from_expansion=exp)
        for dof in range(model.n):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _scan_validity_cap(exp, dof)
            want = reference_validity_cap(exp, dof)
            assert type(got) is float
            assert got == want, (O, dof)


class TestPointWeights:
    """The weights are the first-order expansion of (Omega, x) in (lambda, R, w):
    applied to the point's own coefficients they rebuild what they differentiate."""

    @pytest.fixture(params=["chain2", "vk_beam10"])
    def point(self, request, o9_expansions):
        exp = o9_expansions[request.param]
        dof = 1 if request.param == "chain2" else vk_center_dof(CURVED_BEAM)
        return exp, dof

    @staticmethod
    def close(got, want):
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)

    def test_frequency_weights_rebuild_omega(self, point):
        exp, dof = point
        lam = exp.master.lam
        for rho in _validity_cap(exp, dof) * np.array([0.1, 0.5, 1.0]):
            pw = point_weights(exp, dof, rho)
            total = pw.lam[0] * lam + pw.lam[1] * np.conj(lam)
            total += sum(wt * exp.R(m)[slot] for (m, slot), wt in pw.R)
            self.close(assert_real(total, "Omega"), omega_of_rho(exp, rho))
            self.close(
                assert_real(
                    sum(wt * (order(m) - 1) * exp.R(m)[slot] for (m, slot), wt in pw.R),
                    "rho dOmega/drho",
                ),
                rho * domega_drho(exp, rho),
            )

    def test_amplitude_weights_rebuild_x_and_its_slope(self, point):
        # x is homogeneous of degree 1 in the w, and rho d/drho scales w_m by |m|
        exp, dof = point
        for rho in _validity_cap(exp, dof) * np.array([0.1, 0.5, 1.0]):
            amp = point_weights(exp, dof, rho).amplitude(1.0)
            assert set(amp) == set(exp.indices)
            x = sum(a * exp.w(m)[dof] for m, a in amp.items())
            self.close(assert_real(x, "x"), x_rms(exp, dof, rho))
            slope = sum(a * order(m) * exp.w(m)[dof] for m, a in amp.items())
            self.close(assert_real(slope, "rho dx/drho"), rho * dx_drho(exp, dof, rho))
