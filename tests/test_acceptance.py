"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import hashlib
import time

import numpy as np
import pytest

from ssmopt import (
    compute_ssm,
    invariance_residual,
    omega_of_rho,
    optimizer,
    rho_of_x,
    solve_master,
    ssm,
    track_mode,
)
from ssmopt.cli import main as cli_main
from ssmopt.fdcheck import backbone_response, fd_gradient
from ssmopt.models import (
    ChainSpec,
    VkBeamSpec,
    build_chain,
    build_vk_beam,
    chain_per_spring_k3,
    vk_center_dof,
)
from ssmopt.multiindex import symmetric
from ssmopt.optimizer import BackboneTarget, OptProblem, OptTolerances, solve, trace_to_csv
from ssmopt.sens_adjoint import contract_gradient, solve_adjoint
from ssmopt.sens_direct import chain_derivatives

from oracles import reference_full_set_ssm


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_eigenpair_regression():
    t0 = time.perf_counter()
    model, _ = build_chain(ChainSpec())
    lam = solve_master(model, 0).lam
    dt = time.perf_counter() - t0

    def sig4(x):
        return float(f"{x:.4g}")

    ok = sig4(lam.real) == -0.0191 and sig4(lam.imag) == 0.6177 and dt < 1.0
    report(1, "eigenpair regression", ok, f"lambda={lam:.6f}, {dt:.3f}s")


def _three_way(model, params, dof, x0, order, builder, reference):
    master = track_mode(model, reference)
    exp = compute_ssm(model, master, order)
    rho = rho_of_x(exp, dof, x0)
    direct = chain_derivatives(model, exp, params, dof, rho).d_omega
    adj = contract_gradient(model, exp, solve_adjoint(model, exp, dof, rho), params).d_omega
    fd = fd_gradient(
        lambda mu: backbone_response(
            builder, mu, x0=x0, dof_index=dof, order=order, reference=reference
        ),
        _three_way.mu0,
    )
    rel_ad = np.abs(adj - direct) / np.maximum(np.abs(direct), 1e-300)
    rel_fd = np.abs(direct - fd) / np.maximum(np.abs(fd), 1e-300)
    return float(rel_ad.max()), float(rel_fd.max())


def test_criterion_2_three_way_gradient_equivalence():
    t0 = time.perf_counter()
    worst_ad, worst_fd = 0.0, 0.0

    # chain, 4 parameters
    model, params = build_chain(ChainSpec())
    ref = solve_master(model, 0).phi

    def chain_b(mu):
        m, _ = build_chain(
            ChainSpec(n_masses=2, mass=mu[0], k=mu[1], k2=mu[2], k3=mu[3], beta_r=0.1)
        )
        return m

    _three_way.mu0 = np.array([1.0, 1.0, 0.5, 0.2])
    for order in (3, 5, 7):
        ad, fd = _three_way(model, params, 1, 0.1, order, chain_b, ref)
        worst_ad, worst_fd = max(worst_ad, ad), max(worst_fd, fd)

    # undamped Duffing, 2 parameters (exactly singular resonant operators)
    dspec = ChainSpec(n_masses=1, mass=1.0, k=1.0, k2=0.0, k3=0.1, alpha_r=0.0, beta_r=0.0)
    model, params = build_chain(dspec, params=("k", "k3"))
    ref = solve_master(model, 0).phi

    def duff_b(mu):
        m, _ = build_chain(
            ChainSpec(n_masses=1, mass=1.0, k=mu[0], k2=0.0, k3=mu[1], alpha_r=0.0, beta_r=0.0)
        )
        return m

    _three_way.mu0 = np.array([1.0, 0.1])
    for order in (3, 5, 7):
        ad, fd = _three_way(model, params, 0, 0.2, order, duff_b, ref)
        worst_ad, worst_fd = max(worst_ad, ad), max(worst_fd, fd)

    # von Karman beam, 4 parameters; slightly curved base point so every
    # gradient component is nonzero (the flat beam is a symmetry point with
    # exactly vanishing curvature sensitivities)
    bspec = VkBeamSpec(a1=0.002, a2=0.001)
    model, params = build_vk_beam(bspec)
    dof = vk_center_dof(bspec)
    ref = solve_master(model, 0).phi

    def beam_b(mu):
        spec = VkBeamSpec(a1=mu[0], a2=mu[1], thickness=mu[2], length=mu[3])
        return build_vk_beam(spec, ())[0]

    _three_way.mu0 = np.array([bspec.a1, bspec.a2, bspec.thickness, bspec.length])
    for order in (3, 5, 7):
        ad, fd = _three_way(model, params, dof, 0.004, order, beam_b, ref)
        worst_ad, worst_fd = max(worst_ad, ad), max(worst_fd, fd)

    dt = time.perf_counter() - t0
    ok = worst_ad <= 1e-8 and worst_fd <= 1e-5 and dt < 60.0
    report(
        2,
        "three-way gradient equivalence",
        ok,
        f"adjoint-vs-direct {worst_ad:.2e}, vs-FD {worst_fd:.2e}, {dt:.1f}s",
    )


def test_criterion_3_first_order_backbone_prediction():
    base = np.array([1.0, 1.0, 0.5, 0.2])
    delta = np.array([0.01 * 1.0, 0.01 * 1.0, 0.03 * 0.5, 0.03 * 0.2])
    model, params = build_chain(ChainSpec())
    master = solve_master(model, 0)
    exp = compute_ssm(model, master, 5)
    x_targets = np.linspace(0.03, 0.3, 10)

    def backbone_at(mu):
        m, _ = build_chain(
            ChainSpec(n_masses=2, mass=mu[0], k=mu[1], k2=mu[2], k3=mu[3], beta_r=0.1)
        )
        mm = track_mode(m, master.phi)
        e = compute_ssm(m, mm, 5)
        return np.array([omega_of_rho(e, rho_of_x(e, 1, x)) for x in x_targets])

    nominal = backbone_at(base)
    grads = np.stack(
        [
            chain_derivatives(model, exp, params, 1, rho_of_x(exp, 1, x)).d_omega
            for x in x_targets
        ]
    )

    scales = np.array([0.01, 0.1, 1.0])
    errs = []
    for s in scales:
        predicted = nominal + grads @ (s * delta)
        actual = backbone_at(base + s * delta)
        errs.append(np.abs(predicted - actual))
    errs = np.stack(errs)

    # second-order remainder: error of the largest target scales like s^2
    slope = np.polyfit(np.log(scales), np.log(errs[:, -1]), 1)[0]
    rel_at_full_delta = float((errs[2] / nominal).max())
    ok = abs(slope - 2.0) <= 0.3 and rel_at_full_delta <= 0.01
    report(
        3,
        "first-order backbone prediction",
        ok,
        f"slope {slope:.2f}, max rel error at full delta {rel_at_full_delta:.2e}",
    )


def test_criterion_4_duffing_analytic_backbone():
    gamma = 0.1
    spec = ChainSpec(n_masses=1, mass=1.0, k=1.0, k2=0.0, k3=gamma, alpha_r=0.0, beta_r=0.0)
    model, _ = build_chain(spec)
    exp = compute_ssm(model, solve_master(model, 0), 3)
    coeff = exp.R((2, 1))[0].imag  # Omega(rho) = 1 + coeff * rho^2
    ok = abs(coeff - 1.5 * gamma) <= 1e-6
    report(4, "Duffing analytic backbone", ok, f"coefficient {coeff:.12f} vs {1.5 * gamma}")


def test_criterion_5_invariance_residual_convergence():
    model, _ = build_chain(ChainSpec())
    master = solve_master(model, 0)
    rho_fix = 0.2
    eps_by_order = []
    exp = None
    for order in (3, 5, 7):
        exp = compute_ssm(model, master, order, from_expansion=exp)
        eps_by_order.append(invariance_residual(model, exp, rho_fix).epsilon)
    monotone = eps_by_order[0] >= eps_by_order[1] >= eps_by_order[2]

    slopes = {}
    ranges = {3: (1e-2, 1e-1), 5: (3e-2, 3e-1)}
    for order, (lo, hi) in ranges.items():
        e = compute_ssm(model, master, order)
        el = invariance_residual(model, e, lo).epsilon
        eh = invariance_residual(model, e, hi).epsilon
        slopes[order] = np.log(eh / el) / np.log(hi / lo)
    ok = monotone and all(s >= order - 0.5 for order, s in slopes.items())
    report(
        5,
        "invariance-residual convergence",
        ok,
        f"eps {['%.2e' % e for e in eps_by_order]}, slopes {slopes}",
    )


def test_criterion_6_conjugate_symmetry_suite():
    model, _ = build_chain(ChainSpec(n_masses=3))
    master = solve_master(model, 0)
    canon = compute_ssm(model, master, 7)
    full = reference_full_set_ssm(model, master, 7)
    worst = 0.0
    for m in canon.indices:
        scale = max(np.abs(full.w(m)).max(), 1e-300)
        worst = max(worst, np.abs(canon.w(m) - full.w(m)).max() / scale)
        worst = max(worst, np.abs(canon.wdot(m) - full.wdot(m)).max() / max(np.abs(full.wdot(m)).max(), 1e-300))
        # conjugacy within each construction
        assert np.array_equal(np.conj(canon.w(m)), canon.w(symmetric(m)))
    ok = worst <= 1e-12
    report(6, "conjugate-symmetry suite", ok, f"max rel deviation {worst:.2e}")


def test_criterion_7_von_karman_optimization(monkeypatch):
    spec0 = VkBeamSpec()
    m0, _ = build_vk_beam(spec0)
    mp0 = solve_master(m0, 0)
    w0, h0 = mp0.omega, spec0.thickness
    dof = vk_center_dof(spec0)

    builds = []

    def builder(mu):
        builds.append(mu)
        return build_vk_beam(VkBeamSpec(a1=mu[0], a2=mu[1], thickness=mu[2], length=mu[3]))

    lower = np.array([0.0, 0.0, 0.001, 0.5])
    upper = np.array([0.020, 0.020, 0.100, 1.5])
    problem = OptProblem(
        builder=builder,
        names=("a1", "a2", "h", "L"),
        mu0=np.array([0.0, 0.0, 0.010, 1.0]),
        lower=lower,
        upper=upper,
        objective={"type": "product", "vars": ["a2", "L"]},
        backbone_targets=(
            BackboneTarget(dof, 0.2 * h0, w0),
            BackboneTarget(dof, 0.4 * h0, 0.95 * w0),
        ),
        tolerances=OptTolerances(constraint_tol=1e-6, max_iter=40, eps_tol=1e-2, max_order=9),
    )
    # the run's evaluations and invariance residuals, counted by wrapping
    # the names that solve and adapt_order call
    evaluations, residuals = [], []
    evaluate, residual = optimizer.evaluate, ssm.invariance_residual

    def counted(*args, **kwargs):
        evaluations.append(args[1])
        return evaluate(*args, **kwargs)

    def measured(*args, **kwargs):
        residuals.append(args[2])
        return residual(*args, **kwargs)

    monkeypatch.setattr(optimizer, "evaluate", counted)
    for module in (ssm, optimizer):
        monkeypatch.setattr(module, "invariance_residual", measured)
    t0 = time.perf_counter()
    result = solve(problem)
    dt = time.perf_counter() - t0
    viol = result.trace[-1].max_violation / w0 if result.trace else np.inf
    in_bounds = bool(np.all(result.mu_star >= lower) and np.all(result.mu_star <= upper))
    ok = result.converged and viol <= 1e-6 and in_bounds and dt <= 120.0
    # the README's trace hash, reported for the record (it pins nothing)
    text = trace_to_csv(result.trace) + repr(result.mu_star.tolist()) + result.message
    trace_hash = hashlib.sha256(text.encode()).hexdigest()[:16]
    report(
        7,
        "von Karman backbone optimization",
        ok,
        f"viol {viol:.2e} rel, {result.iterations} iters, trace hash {trace_hash}, "
        f"{len(evaluations)} evaluations, {len(builds)} builds, {len(residuals)} residuals, "
        f"{dt:.1f}s, "
        f"mu*={np.round(result.mu_star, 5).tolist()}",
    )


def test_criterion_8_adjoint_scaling():
    spec = ChainSpec(n_masses=101, alpha_r=0.0, beta_r=0.02)
    model, _ = build_chain(spec)
    master = solve_master(model, 0)
    dof = 100

    def cold(count):
        """A new expansion and a new ParamDerivatives, built outside the
        timer: the expansion keeps what a first call builds (the record of
        explicit parameter partials, the direct walk's record), and each
        timed call must build it again."""
        exp = compute_ssm(model, master, 5)
        return exp, chain_per_spring_k3(spec, count), rho_of_x(exp, dof, 0.05)

    def timed(call, count):
        exp, params, rho = cold(count)
        t0 = time.perf_counter()
        call(exp, params, rho)
        return time.perf_counter() - t0

    def scaling(call):
        """Min of nine timed calls at P = 1 and at P = 100. The two sides
        alternate within each repetition, so that a drift of the host's
        speed hits both alike, and nine repetitions make it rare that a
        slow spell of the host spans every call of one side."""
        best = {1: np.inf, 100: np.inf}
        for _ in range(9):
            for count in best:
                best[count] = min(best[count], timed(call, count))
        return best[1], best[100]

    def direct(exp, params, rho):
        chain_derivatives(model, exp, params, dof, rho)

    def adjoint(exp, params, rho):
        contract_gradient(model, exp, solve_adjoint(model, exp, dof, rho), params)

    timed(direct, 1)  # warmup
    timed(adjoint, 1)
    d1, d100 = scaling(direct)
    a1, a100 = scaling(adjoint)
    speedup = d100 / a100
    ok = (d100 >= 20.0 * d1) and (a100 <= 2.0 * a1) and (speedup >= 5.0)
    report(
        8,
        "adjoint scaling",
        ok,
        f"direct {d1 * 1e3:.1f}->{d100 * 1e3:.1f}ms (x{d100 / d1:.0f}), "
        f"adjoint {a1 * 1e3:.1f}->{a100 * 1e3:.1f}ms (x{a100 / a1:.2f}), speedup {speedup:.1f}",
    )


def test_criterion_9_structural_invariants_suite(capsys):
    rc = cli_main(["verify", "--out", "unused"])
    out = capsys.readouterr().out
    ok = rc == 0 and "0 failures" in out
    with capsys.disabled():
        report(9, "structural invariants (verify subcommand)", ok)
