"""Gradient-based backbone tailoring.

Equality-constrained minimization over bounded design variables: backbone
constraints pin the response frequency at target physical amplitudes,
optional eigenfrequency constraints pin undamped natural frequencies. Every
evaluation rebuilds the model, tracks the master mode by MAC against the last
accepted iterate, and evaluates frequencies on an expansion whose order is
frozen during the iteration. `_Session` alone decides the order, by one
rule: an order fails while the invariance residual exceeds `eps_tol` or a
target lies beyond the validity radius. At the start design `adapt_order`
picks the lowest order that passes; every accepted iterate that fails
raises it by two (never decreased within a run). A target past the radius
cannot be evaluated (`AmplitudeUnreachableError`), so a start that no
order up to `max_order` reaches fails at its first evaluation.

The variables are normalized by their bounds and the constraints by the
initial natural frequency. `solve` runs a dense SQP iteration of its own:
a damped-BFGS Lagrangian Hessian, an active set for the bounds, a step in
the free variables split into a minimum-norm restoration part toward the
linearized equality constraints and an objective part in their null space,
cut at the first bound it meets, a trust cap and an L1 merit line search,
in which a trial design that cannot be evaluated (a typed `SsmOptError`, a
target past the radius among them) counts as an infinite merit. One rule,
`_free`, decides which variables the bounds hold, for the step and for the
stationarity measure alike. When the iteration ends short of convergence,
a Gauss-Newton restoration on the constraints alone polishes the last
accepted iterate. Each accepted iterate (a line-search step or the polished
end point) is recorded in the trace and re-decides the order.

The backbone constraints' gradients come from `GRADIENTS`, the one table of
gradient methods (adjoint and direct), which the CLI and the config read too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .backbone import omega_of_rho, rho_of_x
from .errors import ConfigError, SsmOptError
from .sens_adjoint import contract_gradient, solve_adjoint
from .sens_direct import chain_derivatives
from .spectral import solve_master, track_mode
from .ssm import adapt_order, compute_ssm, invariance_residual


@dataclass(frozen=True)
class BackboneTarget:
    dof_index: int
    x: float
    omega: float


@dataclass(frozen=True)
class EigfreqTarget:
    mode_index: int
    omega: float


@dataclass(frozen=True)
class OptTolerances:
    constraint_tol: float = 1e-6  # relative to the initial natural frequency
    eps_tol: float = 1e-1
    max_order: int = 13
    max_iter: int = 60


@dataclass
class OptProblem:
    """Bounded equality-constrained design problem over a model family.

    builder(mu) must return (MechModel, ParamDerivatives) for the design
    vector mu. The master mode starts at mode_index of the initial design and
    is tracked by shape afterwards.
    """

    builder: object
    names: tuple[str, ...]
    mu0: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    objective: dict
    backbone_targets: tuple[BackboneTarget, ...] = ()
    eigfreq_targets: tuple[EigfreqTarget, ...] = ()
    tolerances: OptTolerances = OptTolerances()
    mode_index: int = 0
    start_order: int = 3

    def __post_init__(self):
        self.mu0 = np.asarray(self.mu0, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if not self.names:
            raise ConfigError("problem needs design parameters: names is empty")
        if not (len(self.mu0) == len(self.lower) == len(self.upper) == len(self.names)):
            raise ConfigError("mu0, bounds and names must have equal length")
        if not np.all(np.isfinite(self.lower)) or not np.all(np.isfinite(self.upper)):
            raise ConfigError("bounds must be finite")
        if not np.all(np.isfinite(self.mu0)):
            raise ConfigError(f"mu0 = {self.mu0.tolist()} must be finite")
        if not np.all(self.lower < self.upper):
            raise ConfigError("lower bounds must be strictly below upper bounds")
        if np.any((self.mu0 < self.lower) | (self.mu0 > self.upper)):
            raise ConfigError(f"mu0 = {self.mu0.tolist()} lies outside the bounds [lower, upper]")
        check_objective(self.objective, self.names)
        _check_numbers(self)
        if (
            not self.backbone_targets
            and not self.eigfreq_targets
            and self.objective.get("type") == "constant"
        ):
            raise ConfigError("problem needs at least one constraint or a nontrivial objective")


def _check_numbers(problem: OptProblem) -> None:
    """ConfigError naming the field unless every target amplitude and
    frequency and both tolerances are positive and finite, `max_order` and
    `start_order` are odd and at least 3, and `max_iter` is at least 1: the
    rules the config schema states for a CLI run."""
    tol = problem.tolerances
    positive = {f"tolerances.{k}": getattr(tol, k) for k in ("constraint_tol", "eps_tol")}
    for i, t in enumerate(problem.backbone_targets):
        positive |= {f"backbone_targets[{i}].x": t.x, f"backbone_targets[{i}].omega": t.omega}
    for i, t in enumerate(problem.eigfreq_targets):
        positive[f"eigfreq_targets[{i}].omega"] = t.omega
    for name, value in positive.items():
        if not 0 < value < np.inf:
            raise ConfigError(f"{name} must be a positive finite number, got {value}")
    orders = {"tolerances.max_order": tol.max_order, "start_order": problem.start_order}
    for name, value in orders.items():
        if value < 3 or value % 2 != 1:
            raise ConfigError(f"{name} must be an odd integer >= 3, got {value}")
    if tol.max_iter < 1:
        raise ConfigError(f"tolerances.max_iter must be at least 1, got {tol.max_iter}")


# objective type -> its keys, first the one naming the design variables it reads
OBJECTIVE_KEYS = {
    "constant": (None, "value"),
    "variable": ("name",),
    "linear": ("coeffs", "offset"),
    "product": ("vars",),
}


def _is_number(v) -> bool:
    return isinstance(v, Real) and not isinstance(v, bool)


# objective key -> (what it must hold, its test)
_OBJECTIVE_FORMS = {
    "value": ("a number", _is_number),
    "offset": ("a number", _is_number),
    "name": ("a parameter name", lambda v: isinstance(v, str)),
    "vars": (
        "a list of parameter names",
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(r, str) for r in v),
    ),
    "coeffs": (
        "a map from parameter names to numbers",
        lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
    ),
}


def _adjoint_gradient(model, exp, params, dof_index, rho):
    adj = solve_adjoint(model, exp, dof_index, rho)
    return contract_gradient(model, exp, adj, params).d_omega


def _direct_gradient(model, exp, params, dof_index, rho):
    return chain_derivatives(model, exp, params, dof_index, rho).d_omega


# gradient method -> (model, exp, params, dof_index, rho) -> dOmega/dmu at the
# backbone point. The entries look the sensitivity functions up by name at
# each call, so a wrapper installed over those names sees every call.
GRADIENTS = {"adjoint": _adjoint_gradient, "direct": _direct_gradient}


def check_objective(spec: dict, names: tuple[str, ...]) -> None:
    """Reject an objective whose type is unknown, with a key of another type
    or of the wrong form, a non-finite number or without its variable key,
    or which reads a non-parameter name."""
    kind = spec.get("type")
    if kind not in OBJECTIVE_KEYS:
        raise ConfigError(f"objective.type must be one of {list(OBJECTIVE_KEYS)}, got {kind!r}")
    key, *_ = keys = OBJECTIVE_KEYS[kind]
    stray = [f"objective.{k}" for k in spec if k != "type" and k not in keys]
    if stray:
        raise ConfigError(f"{', '.join(stray)}: not keys of a {kind!r} objective")
    for k in keys:
        if k in spec and not _OBJECTIVE_FORMS[k][1](spec[k]):
            raise ConfigError(f"objective.{k} must be {_OBJECTIVE_FORMS[k][0]}, got {spec[k]!r}")
    numbers = {f"objective.{k}": spec[k] for k in ("value", "offset") if k in spec}
    numbers |= {f"objective.coeffs.{nm}": c for nm, c in spec.get("coeffs", {}).items()}
    for name, value in numbers.items():
        if not np.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value}")
    if key is None:
        return
    if key not in spec:
        raise ConfigError(f"objective.{key} is required by a {kind!r} objective")
    refs = [spec[key]] if kind == "variable" else list(spec[key])
    unknown = [r for r in refs if r not in names]
    if unknown:
        raise ConfigError(
            f"objective.{key} names {unknown}, which are not design parameters {list(names)}"
        )


def objective_value_grad(spec: dict, names: tuple[str, ...], mu: np.ndarray):
    """Objective registry: constant, single variable, linear and product forms."""
    kind = spec.get("type")
    idx = {nm: i for i, nm in enumerate(names)}
    if kind == "constant":
        return float(spec.get("value", 0.0)), np.zeros_like(mu)
    if kind == "variable":
        i = idx[spec["name"]]
        g = np.zeros_like(mu)
        g[i] = 1.0
        return float(mu[i]), g
    if kind == "linear":
        g = np.zeros_like(mu)
        for nm, c in spec["coeffs"].items():
            g[idx[nm]] = float(c)
        return float(g @ mu + spec.get("offset", 0.0)), g
    if kind == "product":
        ids = [idx[nm] for nm in spec["vars"]]
        val = float(np.prod(mu[ids]))
        g = np.zeros_like(mu)
        for k, i in enumerate(ids):
            # every factor but this position's: a repeated name is a power
            others = ids[:k] + ids[k + 1 :]
            g[i] += float(np.prod(mu[others])) if others else 1.0
        return val, g
    raise ConfigError(f"unknown objective type {spec.get('type')!r}")


@dataclass
class EvalResult:
    objective: float
    obj_grad: np.ndarray
    constraints: np.ndarray  # scaled residuals
    con_jac: np.ndarray  # scaled, shape (n_con, P)
    epsilon: float
    order: int
    mac: float
    phi: np.ndarray


@dataclass
class IterRecord:
    iteration: int
    mu: np.ndarray
    objective: float
    max_violation: float  # unscaled, rad/s
    epsilon: float
    order: int
    mac: float
    grad_norm: float


@dataclass
class OptResult:
    mu_star: np.ndarray
    objective: float
    converged: bool
    iterations: int
    message: str
    trace: list
    omega_ref: float
    stationarity: float
    seconds: float


def _check_indices(problem: OptProblem, n: int) -> None:
    """ConfigError naming the field unless `mode_index` and every target's
    DOF or mode index lie in a model of n DOFs, which has n modes: a
    negative index would read from the end."""
    indices = {"mode_index": problem.mode_index}
    for i, t in enumerate(problem.backbone_targets):
        indices[f"backbone_targets[{i}].dof_index"] = t.dof_index
    for i, t in enumerate(problem.eigfreq_targets):
        indices[f"eigfreq_targets[{i}].mode_index"] = t.mode_index
    for name, value in indices.items():
        if not 0 <= value < n:
            raise ConfigError(f"{name} = {value} is out of range for a model with {n} DOFs")


class _Session:
    """Evaluation state of one run: the tracking shape, the evaluation cache,
    the trace of accepted iterates and the expansion order, which only this
    class decides."""

    def __init__(self, problem: OptProblem, method: str):
        self.problem = problem
        self.method = method
        model0, _ = problem.builder(problem.mu0)
        _check_indices(problem, model0.n)
        master0 = solve_master(model0, problem.mode_index)
        self.reference = master0.phi
        self.omega_ref = master0.omega
        self.order = problem.start_order
        self.cache: dict[bytes, EvalResult] = {}
        self.trace: list[IterRecord] = []
        targets = problem.backbone_targets
        if targets:
            # the lowest order at which the start design passes the rule
            self.order = adapt_order(
                model0,
                master0,
                problem.tolerances.eps_tol,
                rho_at=lambda e: max(rho_of_x(e, t.dof_index, t.x) for t in targets),
                order_range=(self.order, max(self.order, problem.tolerances.max_order)),
            ).expansion.order

    def evaluate(self, mu: np.ndarray) -> EvalResult:
        key = np.asarray(mu, dtype=float).tobytes() + bytes([self.order])
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        try:
            res = evaluate(
                self.problem,
                np.asarray(mu, dtype=float),
                order=self.order,
                reference=self.reference,
                omega_scale=self.omega_ref,
                method=self.method,
            )
        except SsmOptError as e:
            e.args = (
                f"{e.args[0] if e.args else e} "
                f"[iteration {len(self.trace)}, mu={np.asarray(mu).tolist()}]",
            )
            raise
        self.cache[key] = res
        return res

    def accept(self, mu, res: EvalResult) -> EvalResult:
        """Record the iterate, track its shape, re-decide the order and return
        the iterate's evaluation at that order. When the iterate cannot be
        evaluated at a raised order, the order stays at the one it was
        accepted at, and so does its evaluation."""
        self.trace.append(
            IterRecord(
                iteration=len(self.trace),
                mu=mu.copy(),
                objective=res.objective,
                max_violation=_violation(res.constraints) * self.omega_ref,
                epsilon=res.epsilon,
                order=res.order,
                mac=res.mac,
                grad_norm=float(np.linalg.norm(res.obj_grad)),
            )
        )
        self.reference = res.phi.copy()
        tol = self.problem.tolerances
        self.order = order_policy(res.epsilon, tol.eps_tol, self.order, tol.max_order)
        try:
            return self.evaluate(mu)
        except SsmOptError:
            self.order = res.order
            return res


def order_policy(epsilon: float, eps_tol: float, current_order: int, max_order: int) -> int:
    """Increase by 2 while the residual exceeds tolerance; never decrease."""
    if epsilon > eps_tol and current_order < max_order:
        return current_order + 2
    return current_order


def evaluate(
    problem: OptProblem,
    mu: np.ndarray,
    order: int,
    reference: np.ndarray,
    omega_scale: float,
    method: str = "adjoint",
) -> EvalResult:
    """Objective, scaled constraints and their gradients at one design point;
    AmplitudeUnreachableError for a backbone target past the validity radius."""
    model, params = problem.builder(mu)
    _check_indices(problem, model.n)
    master = track_mode(model, reference)
    obj, obj_grad = objective_value_grad(problem.objective, problem.names, mu)

    cons: list[float] = []
    jac: list[np.ndarray] = []
    epsilon = 0.0
    if problem.backbone_targets:
        exp = compute_ssm(model, master, order)
        rho_max = 0.0
        for tgt in problem.backbone_targets:
            rho = rho_of_x(exp, tgt.dof_index, tgt.x)
            rho_max = max(rho_max, rho)
            cons.append((omega_of_rho(exp, rho) - tgt.omega) / omega_scale)
            grad = GRADIENTS[method](model, exp, params, tgt.dof_index, rho)
            jac.append(grad / omega_scale)
        epsilon = invariance_residual(model, exp, rho_max).epsilon

    if problem.eigfreq_targets:
        omegas, Phi = model.modes  # the eigendecomposition track_mode read
        for tgt in problem.eigfreq_targets:
            w = float(omegas[tgt.mode_index])
            phi = Phi[:, tgt.mode_index]
            cons.append((w - tgt.omega) / omega_scale)
            # zero for a tensor-only parameter (not in matrix_params)
            grad = np.zeros(params.count)
            for p, v in zip(params.matrix_params, params.modal_partials(w, phi)[0]):
                grad[p] = phi @ v / (2.0 * w)
            jac.append(grad / omega_scale)

    return EvalResult(
        objective=obj,
        obj_grad=obj_grad,
        constraints=np.array(cons),
        con_jac=np.array(jac) if jac else np.zeros((0, len(mu))),
        epsilon=epsilon,
        order=order if problem.backbone_targets else 0,
        mac=master.mac if master.mac is not None else 1.0,
        phi=master.phi,
    )

def _violation(c: np.ndarray) -> float:
    """Largest absolute constraint residual (0 without constraints)."""
    return float(np.abs(c).max(initial=0.0))


def _capped(d: np.ndarray, radius: float) -> np.ndarray:
    """The step d, scaled down to max-norm `radius` when it is longer."""
    nrm = float(np.abs(d).max(initial=0.0))
    return d * (radius / nrm) if nrm > radius else d


def _min_norm_step(J: np.ndarray, c: np.ndarray, reg: float) -> np.ndarray:
    """Minimum-norm solution of J d = -c, Tikhonov-regularized relative to
    the trace of J J^T."""
    JJt = J @ J.T
    return -J.T @ np.linalg.solve(JJt + reg * max(np.trace(JJt), 1.0) * np.eye(len(c)), c)


# a scaled variable within this distance of 0 or 1 lies on its bound
BOUND_TOL = 1e-12


def _free(z: np.ndarray, g: np.ndarray, J: np.ndarray):
    """(free, lam): the variables the bounds leave free, and least-squares
    Lagrange multipliers fitted on them (Nocedal & Wright §12.3). A variable
    is held when it lies on a bound and the Lagrangian gradient g + J^T lam
    points out of the box there; the rule is iterated to a fixed point, or
    for at most P + 1 fits."""
    lo, hi = z <= BOUND_TOL, z >= 1.0 - BOUND_TOL
    held = np.zeros(len(z), dtype=bool)
    for _ in range(len(z) + 1):
        free = ~held
        lam = np.linalg.lstsq(J[:, free].T, -g[free], rcond=None)[0] if len(J) else np.zeros(0)
        r = g + J.T @ lam
        now = (lo & (r > 0)) | (hi & (r < 0))
        if np.array_equal(now, held):
            break
        held = now
    return free, lam


def _sqp_step(g, c, J, B, trust):
    """Trust-capped SQP step: a minimum-norm restoration part toward the
    linearized constraints plus an objective part in their null space."""
    P = len(g)
    d_n = _capped(_min_norm_step(J, c, 1e-12) if len(c) else np.zeros(P), trust)
    if len(c):
        _, sv, Vt = np.linalg.svd(J)
        rank = int(np.sum(sv > 1e-12 * max(sv.max(initial=0.0), 1e-300)))
        Z = Vt[rank:].T
    else:
        Z = np.eye(P)
    if not Z.shape[1]:
        return d_n
    H = Z.T @ B @ Z
    H += 1e-10 * max(np.trace(H), 1.0) * np.eye(Z.shape[1])
    return _capped(d_n + Z @ np.linalg.solve(H, -Z.T @ (g + B @ d_n)), trust)


def _to_first_bound(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The step d, scaled to stop at the first bound of the unit box it
    meets; the variables that meet it land on it exactly."""
    room = np.where(d < 0, z, 1.0 - z)
    moving = d != 0
    reach = np.full(len(d), np.inf)
    reach[moving] = room[moving] / np.abs(d[moving])
    t = float(reach.min(initial=np.inf))
    if t >= 1.0:
        return d
    hit = reach <= t
    d = t * d
    d[hit] = np.where(d[hit] < 0, -z[hit], 1.0 - z[hit])
    return d


def solve(problem: OptProblem, method: str = "adjoint") -> OptResult:
    """Dense SQP iteration: BFGS Lagrangian Hessian, linearized equality
    constraints, an active set for the bounds, trust-capped steps cut at the
    first bound they meet and an L1 merit line search; a Gauss-Newton
    restoration phase polishes the constraints when the merit iteration ends
    short of convergence. Returns the last accepted iterate, polished."""
    t0 = time.perf_counter()
    tol = problem.tolerances
    ses = _Session(problem, method)
    span = problem.upper - problem.lower
    P = len(problem.mu0)

    def unscale(z):
        return problem.lower + np.asarray(z) * span

    # Variables starting exactly on a bound often sit on a symmetry point
    # with a vanishing constraint-gradient column (e.g. a flat beam is a
    # stationary point of every curvature amplitude). Release them slightly
    # into the interior so the first linearization carries their influence.
    z = np.clip((problem.mu0 - problem.lower) / span, 1e-2, 1.0 - 1e-2)

    obj0, _ = objective_value_grad(problem.objective, problem.names, problem.mu0)
    obj_scale = max(abs(obj0), 1.0)

    def localize(res: EvalResult):
        f = res.objective / obj_scale
        g = res.obj_grad * span / obj_scale
        c = res.constraints
        J = res.con_jac * span[None, :]
        return f, g, c, J

    def merit(f, c, sigma):
        return f + sigma * float(np.abs(c).sum())

    def try_eval(z_try):
        try:
            return ses.evaluate(unscale(z_try))
        except SsmOptError:
            return None

    f, g, c, J = localize(ses.evaluate(unscale(z)))
    B = np.eye(P)
    trust = 0.25
    sigma = 10.0
    converged = False
    message = "maximum iterations reached"

    for _ in range(tol.max_iter):
        free, lam = _free(z, g, J)
        sigma = max(sigma, 2.0 * float(np.abs(lam).max(initial=0.0)))

        # the step in the free variables; a variable on a bound that the
        # step would move out of the box is held too
        on_lo, on_hi = z <= BOUND_TOL, z >= 1.0 - BOUND_TOL
        while True:
            d = np.zeros(P)
            d[free] = _sqp_step(g[free], c, J[:, free], B[np.ix_(free, free)], trust)
            leaving = (on_lo & (d < 0)) | (on_hi & (d > 0))
            if not leaving.any():
                break
            free &= ~leaving
        d = _to_first_bound(z, d)
        if not d.any() and _violation(c) > tol.constraint_tol:
            # no step: the line search could only accept z itself, and
            # every later iteration would repeat it
            message = "merit line search stalled"
            break

        pred = -float(g @ d)
        if len(c):
            pred += sigma * (np.abs(c).sum() - np.abs(c + J @ d).sum())
        phi0 = merit(f, c, sigma)
        alpha = 1.0
        accepted = None
        while alpha >= 2.0**-9:
            z_try = z + alpha * d
            # a trial design that cannot be evaluated has an infinite merit
            res_try = try_eval(z_try)
            if res_try is not None:
                f_t, g_t, c_t, J_t = localize(res_try)
                if merit(f_t, c_t, sigma) <= phi0 - 1e-4 * alpha * max(pred, 0.0):
                    accepted = (z_try, res_try, g_t, J_t)
                    break
            alpha *= 0.5

        if accepted is None:
            if trust > 1e-2:
                trust = max(trust * 0.25, 1e-2)
                continue
            if _violation(c) <= tol.constraint_tol:
                converged, message = True, "merit stalled at a feasible point"
            else:
                message = "merit line search stalled"
            break

        z_new, res, g_n, J_n = accepted
        step = float(np.abs(z_new - z).max())
        _, lam_n = _free(z_new, g_n, J_n)
        s = z_new - z
        y = (g_n + J_n.T @ lam_n) - (g + J.T @ lam_n)
        sBs = float(s @ B @ s)
        sy = float(s @ y)
        if sBs > 0 and np.linalg.norm(s) > 0:
            # damped BFGS keeps the Hessian model positive definite
            if sy < 0.2 * sBs:
                theta = 0.8 * sBs / (sBs - sy)
                y = theta * y + (1.0 - theta) * (B @ s)
                sy = float(s @ y)
            if sy > 1e-14 * sBs:
                Bs = B @ s
                B = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy
        if alpha == 1.0:
            trust = min(trust * 2.0, 0.5)
        elif alpha <= 0.25:
            trust = max(trust * 0.5, 1e-2)

        z = z_new
        f, g, c, J = localize(ses.accept(unscale(z), res))
        if _violation(c) <= tol.constraint_tol:
            if step <= 1e-9:
                converged, message = True, "constraints and step within tolerance"
                break
            if _stationarity_residual(res, z) <= 1e-6:
                converged, message = True, "first-order optimality at a feasible point"
                break

    if not converged:
        # Feasibility polish: the merit iteration can stall with a small but
        # above-tolerance violation (curved constraint manifold, conservative
        # Hessian model); damped minimum-norm Newton steps on the constraints
        # alone converge quadratically once the manifold is near. The last
        # accepted iterate (or the start) is in the evaluation cache.
        res = ses.evaluate(unscale(z))
        for _ in range(30):
            c = res.constraints
            if _violation(c) <= tol.constraint_tol:
                break
            d = _capped(_min_norm_step(res.con_jac * span[None, :], c, 1e-13), 0.25)
            base = float(np.abs(c).sum())
            alpha = 1.0
            while alpha >= 2.0**-12:
                z_try = np.clip(z + alpha * d, 0.0, 1.0)
                r = try_eval(z_try)
                if r is not None and np.abs(r.constraints).sum() <= (1 - 1e-4 * alpha) * base:
                    z, res = z_try, r
                    break
                alpha *= 0.5
            else:
                break
        ses.accept(unscale(z), res)
        if _violation(res.constraints) <= tol.constraint_tol:
            converged, message = True, "feasible after constraint polish"
    mu_star = unscale(z)
    final = ses.evaluate(mu_star)
    converged = converged and _violation(final.constraints) <= tol.constraint_tol
    stationarity = _stationarity_residual(final, (mu_star - problem.lower) / span)
    return OptResult(
        mu_star=mu_star,
        objective=final.objective,
        converged=converged,
        iterations=len(ses.trace),
        message=message,
        trace=ses.trace,
        omega_ref=ses.omega_ref,
        stationarity=stationarity,
        seconds=time.perf_counter() - t0,
    )


def _stationarity_residual(final: EvalResult, z: np.ndarray) -> float:
    """Norm of the Lagrangian gradient over the free variables of `_free`,
    relative to the objective gradient's norm (at least 1)."""
    g = final.obj_grad
    free, lam = _free(z, g, final.con_jac)
    r = g + final.con_jac.T @ lam
    return float(np.linalg.norm(r[free]) / max(1.0, float(np.linalg.norm(g))))


def trace_to_csv(trace: list) -> str:
    n_mu = len(trace[0].mu) if trace else 1
    header = "iteration,objective,max_violation,epsilon,order,mac,grad_norm," + ",".join(
        f"mu{i}" for i in range(n_mu)
    )
    rows = [
        f"{rec.iteration},{rec.objective:.16e},{rec.max_violation:.16e},"
        f"{rec.epsilon:.16e},{rec.order},{rec.mac:.16e},{rec.grad_norm:.16e},"
        + ",".join(f"{v:.16e}" for v in rec.mu)
        for rec in trace
    ]
    return "\n".join([header, *rows]) + "\n"
