"""Exception hierarchy, the library's argument check and the real-residue
check behind ConjugacyError.

Three top-level classes map onto the CLI exit codes: ConfigError -> 1,
ModelError -> 2, SsmError -> 3. ArgumentError, a bad argument of a library
call, is a ValueError too.
"""

import math

import numpy as np

IMAG_RESIDUE_RTOL = 1e-10


class SsmOptError(Exception):
    pass


class ConfigError(SsmOptError):
    pass


class ModelError(SsmOptError):
    pass


class SsmError(SsmOptError):
    pass


class ArgumentError(SsmOptError, ValueError):
    """A library function was called with a bad argument; the message names it."""


def check_argument(name: str, value, *, positive: bool = False, count: int | None = None):
    """ArgumentError naming `name` unless value is, given count, an integer
    in [0, count), or else a finite number, > 0 when positive and >= 0
    otherwise. NaN fails the sign test."""
    if count is not None:
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not (integer and 0 <= value < count):
            raise ArgumentError(f"{name} must be an integer in [0, {count}), got {value!r}")
    elif not (value > 0 if positive else value >= 0):
        raise ArgumentError(f"{name} must be {'positive' if positive else 'nonnegative'}")
    elif not math.isfinite(value):
        raise ArgumentError(f"{name} must be finite, got {value}")


class LightDampingError(ModelError):
    """Damping ratio >= 1 for the selected mode (Rayleigh coefficients too large)."""


class DegenerateModeError(ModelError):
    """Repeated natural frequency: the master pair is not uniquely defined."""


class TrackingLostError(ModelError):
    """No mode correlates with the reference shape above the MAC threshold."""

    def __init__(self, best_mac: float, threshold: float):
        self.best_mac = best_mac
        self.threshold = threshold
        super().__init__(
            f"mode tracking lost: best MAC {best_mac:.4f} below threshold {threshold}"
        )


class OuterResonanceError(SsmError):
    """A cohomological operator is numerically singular: mode j resonates."""

    def __init__(self, m, mode: int, ratio: float):
        self.m = m
        self.mode = mode
        self.ratio = ratio
        super().__init__(
            f"cohomological operator at index {m} is numerically singular "
            f"(mode {mode}, |d_j|/scale {ratio:.2e}); mode {mode} resonates with the master pair"
        )


class AmplitudeUnreachableError(SsmError):
    """Requested physical amplitude lies beyond the validity radius of the expansion."""

    def __init__(self, x_target: float, x_max: float, rho_cap: float = 0.0):
        self.x_target = x_target
        self.x_max = x_max
        self.rho_cap = rho_cap
        super().__init__(
            f"target amplitude {x_target:.6g} unreachable; "
            f"maximum attainable within the validity radius is {x_max:.6g}"
        )


class ConjugacyError(SsmError):
    """A quantity that must be real by conjugate pairing has a large imaginary residue."""


class TurningPointError(SsmError):
    """dx/drho vanished: the amplitude map is not invertible at this point."""


def assert_real(value, what: str):
    """The real part of a quantity that is real by conjugate pairing.

    Raises ConjugacyError naming `what` when the largest imaginary part
    exceeds IMAG_RESIDUE_RTOL * max(1, largest real part).
    """
    value = np.asarray(value)
    scale = max(1.0, float(np.abs(value.real).max()))
    residue = float(np.abs(value.imag).max())
    if residue > IMAG_RESIDUE_RTOL * scale:
        raise ConjugacyError(f"{what} has imaginary residue {residue:.2e} (scale {scale:.2e})")
    return value.real if value.ndim else float(value.real)


def assert_real_each(values, what: str, names) -> np.ndarray:
    """The real parts of values, the check of `assert_real` applied to each
    component on its own scale.

    Raises ConjugacyError naming the first failing component's name when
    its imaginary part exceeds IMAG_RESIDUE_RTOL * max(1, its real part).
    """
    values = np.asarray(values)
    residue = np.abs(values.imag)
    # fmax, as Python's max(1.0, nan) in assert_real, keeps 1.0 for a NaN
    scale = np.fmax(1.0, np.abs(values.real))
    bad = np.flatnonzero(residue > IMAG_RESIDUE_RTOL * scale)
    if bad.size:
        p = bad[0]
        raise ConjugacyError(
            f"{what} for parameter {names[p]!r} has imaginary residue "
            f"{residue[p]:.2e} (scale {scale[p]:.2e})"
        )
    return values.real.copy()
