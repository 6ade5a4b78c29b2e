"""Master-pair construction and MAC mode tracking, from the undamped modes
that the model computes once (`MechModel.modes`)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeError, LightDampingError, TrackingLostError
from .mechmodel import MechModel, check_light_damping

MAC_TRACKING_THRESHOLD = 0.6
DEGENERACY_RTOL = 1e-8
# a mode is rigid when its omega^2, which the reduction gives as roundoff of
# either sign, is at most this many epsilons of the largest omega^2
RIGID_RATIO = 1e3


@dataclass(frozen=True)
class MasterPair:
    """Mass-normalized master mode and its complex eigenvalue pair.

    lam is the eigenvalue with positive imaginary part; its conjugate
    completes the pair. mac is set when the mode was selected by tracking.
    """

    phi: np.ndarray
    omega: float
    xi: float
    lam: complex
    mode_index: int
    mac: float | None = None

    @property
    def lam_bar(self) -> complex:
        return np.conj(self.lam)

    @property
    def omega_d(self) -> float:
        """Damped frequency Im(lam)."""
        return float(self.lam.imag)

    @property
    def lambda_pair(self) -> np.ndarray:
        return np.array([self.lam, self.lam_bar])


def solve_modes(model: MechModel) -> tuple[np.ndarray, np.ndarray]:
    """All undamped modes, ascending frequency, mass-normalized: the model's
    (`MechModel.modes`)."""
    return model.modes


def mac(phi_a: np.ndarray, phi_b: np.ndarray) -> float:
    """Modal assurance criterion in [0, 1]; invariant under nonzero scaling."""
    na = float(phi_a @ phi_a)
    nb = float(phi_b @ phi_b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("MAC is undefined for a zero vector")
    return float(phi_a @ phi_b) ** 2 / (na * nb)


def _master_from_mode(
    model: MechModel, omegas: np.ndarray, Phi: np.ndarray, i: int, mac_value: float | None
) -> MasterPair:
    omega = float(omegas[i])
    if not omega**2 > RIGID_RATIO * np.finfo(float).eps * omegas[-1] ** 2:
        raise DegenerateModeError(f"mode {i} has zero frequency (rigid-body mode)")
    for j in range(len(omegas)):
        if j != i and abs(omegas[j] - omega) <= DEGENERACY_RTOL * omega:
            raise DegenerateModeError(
                f"modes {i} and {j} are degenerate (omega={omega:.9g}); "
                "master subspace is ambiguous"
            )
    xi = (model.alpha_r + model.beta_r * omega**2) / (2.0 * omega)
    if xi >= 1.0:
        verdict = check_light_damping(model.alpha_r, model.beta_r, omega)
        raise LightDampingError(
            f"damping ratio {xi:.4f} >= 1 at omega={omega:.6g}; "
            + (
                "no frequency satisfies the light-damping condition for these "
                "Rayleigh coefficients"
                if verdict.never_satisfied
                else f"admissible frequency interval is {verdict.omega_interval}"
            )
        )
    lam = complex(-xi * omega, omega * np.sqrt(1.0 - xi * xi))
    return MasterPair(
        phi=Phi[:, i].copy(), omega=omega, xi=xi, lam=lam, mode_index=i, mac=mac_value
    )


def solve_master(model: MechModel, mode_index: int | None = None) -> MasterPair:
    """Master pair of the given mode index (default 0); `track_mode` selects
    one by a reference shape instead."""
    omegas, Phi = model.modes
    i = 0 if mode_index is None else int(mode_index)
    if not 0 <= i < len(omegas):
        raise ValueError(f"mode index {i} out of range for {len(omegas)} modes")
    return _master_from_mode(model, omegas, Phi, i, None)


def track_mode(model: MechModel, reference: np.ndarray) -> MasterPair:
    """Master pair whose shape maximizes the MAC against a reference shape.

    Raises TrackingLostError below the 0.6 threshold rather than silently
    falling back to an index, since swapped or distorted modes derail the
    optimization.
    """
    omegas, Phi = model.modes
    macs = np.array([mac(Phi[:, i], reference) for i in range(Phi.shape[1])])
    best = int(np.argmax(macs))
    if macs[best] < MAC_TRACKING_THRESHOLD:
        raise TrackingLostError(float(macs[best]), MAC_TRACKING_THRESHOLD)
    return _master_from_mode(model, omegas, Phi, best, float(macs[best]))
