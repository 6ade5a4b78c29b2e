"""Physical-space backbone: Omega(rho), the closed-form amplitude map, inversion.

The observed displacement of one DOF on the SSM is the trigonometric
polynomial x(theta) = sum_d c_d(rho) e^{i d theta}, with
c_d(rho) = sum over m1 - m2 = d of w_m[dof] rho**(m1 + m2). Parseval gives
its mean square over a period directly: (1/2pi) int x**2 dtheta =
sum_d |c_d(rho)|**2, a real polynomial in rho of degree 2 order, and the
amplitude is its square root. `x_rms`, `dx_drho` and `rho_of_x` evaluate
that polynomial; its coefficients are built once per (DOF, truncation
order, expansion order) and kept in the expansion's memo
(`SsmExpansion.memo`), and so is each DOF's validity scan, x_rms on a grid
of rho up to the validity cap, which brackets every inversion. The
theta-grid samples (`x_theta_samples`) remain as the oracle that the closed
form is checked against: on any grid of at least 2 order + 1 points the
grid mean of x**2 equals the Parseval sum exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IMAG_RESIDUE_RTOL,
    AmplitudeUnreachableError,
    ConjugacyError,
    SsmError,
    TurningPointError,
    assert_real,
    check_argument,
)
from .multiindex import MultiIndex, order, symmetric
from .ssm import SsmExpansion

VALIDITY_DIVERGENCE = 0.10  # order-O vs order-(O-2) truncation disagreement cap
# a DOF is a node of the master mode when its entry, which roundoff may leave
# nonzero, is at most this many epsilons of the mode's largest entry
NODE_RATIO = 1e3


def omega_of_rho(exp: SsmExpansion, rho: float) -> float:
    """Backbone frequency at reduced amplitude rho: the damped frequency plus
    Im(R1) of each active odd order times rho**(q - 1)."""
    check_argument("rho", rho)
    total = exp.master.omega_d
    for q, a in exp.r1_terms():
        total += exp.R(a)[0].imag * rho ** (q - 1)
    return float(total)


def domega_drho(exp: SsmExpansion, rho: float) -> float:
    """d Omega / d rho."""
    check_argument("rho", rho)
    total = 0.0
    for q, a in exp.r1_terms():
        total += exp.R(a)[0].imag * (q - 1) * rho ** (q - 2)
    return float(total)


def _check_point(exp: SsmExpansion, dof_index: int, rho: float):
    """ArgumentError unless dof_index is one of the model's DOFs and rho is
    finite and nonnegative."""
    check_argument("dof_index", dof_index, count=exp.model.n)
    check_argument("rho", rho)


def _theta_grid(n_theta: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(1, n_theta + 1) / n_theta


def x_theta_samples(
    exp: SsmExpansion,
    dof_index: int,
    rho: float,
    n_theta: int,
    max_order: int | None = None,
) -> np.ndarray:
    """Displacement of one DOF over the theta grid; real by conjugate pairing.

    The grid oracle for the closed-form amplitude map (`ssmopt verify` and
    the tests compare the two); the backbone path itself never samples.
    """
    _check_point(exp, dof_index, rho)
    thetas = _theta_grid(n_theta)
    x = np.zeros(n_theta, dtype=complex)
    for m in exp.indices:
        q = order(m)
        if max_order is not None and q > max_order:
            continue
        x += exp.w(m)[dof_index] * rho**q * np.exp(1j * (m[0] - m[1]) * thetas)
    return assert_real(x, "theta samples")


@dataclass(frozen=True)
class _AmplitudeMap:
    """Closed-form amplitude of one DOF at one truncation order.

    c[d + exp.order, q] is the coefficient of rho**q e^{i d theta} in x; p
    holds the coefficients of x_rms**2 in powers of rho**2, highest first,
    and dp those of (d x_rms**2 / d rho) / rho.
    """

    c: np.ndarray
    p: tuple[float, ...]
    dp: tuple[float, ...]


def _build_amplitude_map(exp: SsmExpansion, dof_index: int, top: int) -> _AmplitudeMap:
    O = exp.order
    c = np.zeros((2 * O + 1, O + 1), dtype=complex)
    for m in exp.indices:
        q = order(m)
        if q > top:
            continue
        w = exp.w(m)[dof_index]
        # one index per (d, q), so the coefficientwise pairing is exactly the
        # condition for x(theta) to be real at every rho
        residue = abs(exp.w(symmetric(m))[dof_index] - np.conj(w))
        if residue > IMAG_RESIDUE_RTOL * max(1.0, abs(w)):
            raise ConjugacyError(
                f"coefficients at {m} and {symmetric(m)} of DOF {dof_index} "
                f"are not conjugate (residue {residue:.2e})"
            )
        c[m[0] - m[1] + O, q] = w
    # sum_d |c_d(rho)|^2 = sum_{q, q'} Re G[q, q'] rho^(q + q'); q + q' is
    # even wherever G is nonzero, since q = d = q' mod 2. Finite coefficients
    # may still square past the float range: that is reported below, not
    # left to turn every amplitude into NaN
    with np.errstate(over="ignore", invalid="ignore"):
        G = (c.conj().T @ c).real
        p2 = np.zeros(2 * O + 1)
        for q in range(O + 1):
            p2[q : q + O + 1] += G[q]
        p = p2[::2]
        dp = 2.0 * np.arange(len(p)) * p
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(dp))):
        raise SsmError(
            f"the amplitude polynomial of DOF {dof_index} at order {top} "
            f"overflows: its coefficients square past the float range "
            f"(max |w| {np.abs(c).max():.3g})"
        )
    return _AmplitudeMap(c, tuple(p[::-1].tolist()), tuple(dp[:0:-1].tolist()))


def _amplitude_map(
    exp: SsmExpansion, dof_index: int, max_order: int | None = None
) -> _AmplitudeMap:
    top = exp.order if max_order is None else min(max_order, exp.order)
    return exp.memo(("map", dof_index, top), lambda: _build_amplitude_map(exp, dof_index, top))


def _horner(coefs: tuple[float, ...], s: float) -> float:
    acc = 0.0
    for a in coefs:
        acc = acc * s + a
    return acc


def x_harmonics(exp: SsmExpansion, dof_index: int, rho: float) -> np.ndarray:
    """c_d(rho) for d = -order ... order (entry d + order), x = sum_d c_d e^{i d theta}."""
    c = _amplitude_map(exp, dof_index).c
    return c @ rho ** np.arange(c.shape[1])


def x_rms(
    exp: SsmExpansion,
    dof_index: int,
    rho: float,
    *,
    max_order: int | None = None,
) -> float:
    """RMS over theta of the observed DOF displacement, in closed form (the
    Parseval polynomial of the module docstring, truncated at `max_order`);
    building its coefficients checks the conjugate pairing of the
    coefficients (ConjugacyError).
    """
    _check_point(exp, dof_index, rho)
    if rho == 0.0:
        return 0.0
    p = _amplitude_map(exp, dof_index, max_order).p
    return math.sqrt(max(_horner(p, rho * rho), 0.0))


def dx_drho(exp: SsmExpansion, dof_index: int, rho: float) -> float:
    """d x_rms / d rho = P'(rho) / (2 x_rms), P = x_rms**2 the cached polynomial."""
    _check_point(exp, dof_index, rho)
    amp = _amplitude_map(exp, dof_index)
    s = rho * rho
    x = math.sqrt(max(_horner(amp.p, s), 0.0))
    if x == 0.0:
        raise TurningPointError("dx/drho is undefined at zero amplitude")
    return rho * _horner(amp.dp, s) / (2.0 * x)


def _amplitude_scan(exp: SsmExpansion, dof_index: int) -> tuple[np.ndarray, np.ndarray]:
    """`_scan_validity_cap`, kept in the memo once per (expansion, DOF)."""
    return exp.memo(("scan", dof_index), lambda: _scan_validity_cap(exp, dof_index))


def _scan_validity_cap(exp: SsmExpansion, dof_index: int) -> tuple[np.ndarray, np.ndarray]:
    """(rho, x): the grid rho_k = rho_0 1.25^k up to the validity cap, and
    x_rms at each of its points. The expansion carries no a-priori radius of
    convergence; the cap is the first rho_k, k = 0 .. 200, at which the full
    amplitude is zero or the truncation two orders lower misses it by more
    than VALIDITY_DIVERGENCE (rho_200 if none).

    The whole grid is evaluated in one pass, bitwise as one `x_rms` call per
    point: the grid is the running product rho *= 1.25, and `np.polyval`
    adds Horner's terms in `_horner`'s order. Far points may overflow; an
    infinite or NaN amplitude is no hit, as in the scalar comparison.
    """
    rho = np.full(201, 1.25)
    rho[0] = _linear_rho_scale(exp, dof_index)
    rho = np.multiply.accumulate(rho)
    maps = (_amplitude_map(exp, dof_index), _amplitude_map(exp, dof_index, max(exp.order - 2, 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        xf, xl = (np.sqrt(np.maximum(np.polyval(m.p, rho * rho), 0.0)) for m in maps)
        hit = (xf == 0.0) | (np.abs(xf - xl) > VALIDITY_DIVERGENCE * xf)
    hit[-1] = True
    end = int(np.argmax(hit)) + 1
    return rho[:end], xf[:end]


def _linear_rho_scale(exp: SsmExpansion, dof_index: int) -> float:
    """rho_0 of the validity scan: where the DOF's linear amplitude
    sqrt(2) |phi[dof]| rho is 1e-6, the master mode's largest entry standing
    in for phi[dof] at a node (NODE_RATIO)."""
    phi = np.abs(exp.master.phi)
    amp = float(phi[dof_index])
    if amp <= NODE_RATIO * np.finfo(float).eps * phi.max():
        amp = float(phi.max())
    return 1e-6 / (np.sqrt(2.0) * amp)


def rho_of_x(exp: SsmExpansion, dof_index: int, x0: float) -> float:
    """Reduced amplitude with x_rms(rho) = x0, by safeguarded Newton in a
    bracket read off the validity scan, converged to roundoff: it stops where
    x_rms(rho) is x0, where the Newton step no longer moves rho, or where the
    bracket has no float left inside it for the bisection fallback."""
    check_argument("dof_index", dof_index, count=exp.model.n)
    check_argument("target amplitude", x0, positive=True)
    grid, xs = _amplitude_scan(exp, dof_index)
    above = xs >= x0
    if not above.any():
        raise AmplitudeUnreachableError(x0, float(xs[-1]), rho_cap=float(grid[-1]))
    # the first grid point at or above x0 and the one before it (or rho = 0)
    # bracket x0; Newton starts on the chord between them
    k = int(np.argmax(above))
    rho_hi, x_hi = float(grid[k]), float(xs[k])
    rho_lo, x_lo = (float(grid[k - 1]), float(xs[k - 1])) if k else (0.0, 0.0)
    rho = rho_lo + (rho_hi - rho_lo) * (x0 - x_lo) / (x_hi - x_lo)
    for _ in range(200):
        x = x_rms(exp, dof_index, rho)
        if x == x0:
            return rho
        if x < x0:
            rho_lo = rho
        else:
            rho_hi = rho
        slope = dx_drho(exp, dof_index, rho)
        cand = rho - (x - x0) / slope if slope > 0 else None
        if cand == rho:
            return rho
        if cand is None or not rho_lo < cand < rho_hi:
            cand = 0.5 * (rho_lo + rho_hi)
            if not rho_lo < cand < rho_hi:
                return rho
        rho = cand
    raise TurningPointError(
        f"amplitude inversion failed to converge for x0={x0:.6g} "
        f"(bracket [{rho_lo:.6g}, {rho_hi:.6g}])"
    )


@dataclass(frozen=True, eq=False)
class PointWeights:
    """First-order weights of the backbone point (Omega, x) at reduced amplitude
    rho: the direct method applies them to its tangents, the adjoint seeds its
    sweep with them.

    `lam` weighs (lambda, conj(lambda)) and `R` the ((index, slot), weight)
    pairs of Omega = Im(lambda) + sum_q Im(R_{a_q}[0]) rho**(q - 1) in
    conjugate-pair form (R at the swapped index is the conjugate), at fixed
    rho. By Parseval x**2 = sum_d c_d c_{-d}, so dx/dw_m[dof] =
    rho**|m| c_{-d} / x with d = m1 - m2.
    """

    lam: tuple[complex, complex]
    R: tuple[tuple[tuple[MultiIndex, int], complex], ...]
    domega_drho: float
    dx_drho: float
    x: float
    rho: float
    indices: tuple[MultiIndex, ...]
    c: np.ndarray  # x_harmonics at rho

    def amplitude(self, scale: float) -> np.ndarray:
        """scale * dx/dw_m[dof] of every index m of the expansion, one entry
        per row of its tables (`SsmExpansion.indices`)."""
        O, s, rho = (len(self.c) - 1) // 2, scale / self.x, self.rho
        return np.array([(s * rho ** order(m)) * self.c[O + m[1] - m[0]] for m in self.indices])


def point_weights(exp: SsmExpansion, dof_index: int, rho: float) -> PointWeights:
    """The weights at rho for the observed DOF; TurningPointError where dx/drho
    vanishes, since the amplitude then does not fix rho."""
    _check_point(exp, dof_index, rho)
    slope = dx_drho(exp, dof_index, rho)
    if slope == 0.0:
        raise TurningPointError("dx/drho vanished; amplitude constraint is degenerate")
    R = []
    for q, a in exp.r1_terms():
        R += [((a, 0), -0.5j * rho ** (q - 1)), ((symmetric(a), 1), +0.5j * rho ** (q - 1))]
    x, c = x_rms(exp, dof_index, rho), x_harmonics(exp, dof_index, rho)
    return PointWeights(
        (-0.5j, +0.5j), tuple(R), domega_drho(exp, rho), slope, x, rho, exp.indices, c
    )


@dataclass(frozen=True)
class BackbonePoint:
    rho: float
    omega: float
    x: float


@dataclass(frozen=True)
class BackboneCurve:
    dof_index: int
    points: tuple[BackbonePoint, ...]
    monotone: bool  # x strictly increasing in rho over the sampled range


def sample_backbone(exp: SsmExpansion, dof_index: int, x_targets) -> BackboneCurve:
    """One backbone point per target amplitude, in the given order."""
    pts = []
    for x0 in x_targets:
        rho = rho_of_x(exp, dof_index, float(x0))
        pts.append(BackbonePoint(rho, omega_of_rho(exp, rho), float(x0)))
    by_rho = sorted(pts, key=lambda p: p.rho)
    monotone = all(b.x > a.x for a, b in zip(by_rho, by_rho[1:]))
    return BackboneCurve(dof_index, tuple(pts), monotone)


def backbone_to_csv(curve: BackboneCurve) -> str:
    lines = ["rho,omega,x"]
    for p in curve.points:
        lines.append(f"{p.rho:.16e},{p.omega:.16e},{p.x:.16e}")
    return "\n".join(lines) + "\n"
