import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from ssmopt import compute_ssm, omega_of_rho, optimizer, rho_of_x, solve_master
from ssmopt.spectral import solve_modes
from ssmopt.errors import AmplitudeUnreachableError, ConfigError, ModelError, OuterResonanceError
from ssmopt.models import ChainSpec, build_chain, chain_per_spring_k3
from ssmopt.optimizer import (
    BackboneTarget,
    EigfreqTarget,
    OptProblem,
    OptTolerances,
    evaluate,
    objective_value_grad,
    order_policy,
    solve,
    trace_to_csv,
)

from oracles import param_matrices, pick_params


def chain_builder(mu):
    model, derivs = build_chain(
        ChainSpec(n_masses=2, mass=1.0, k=1.0, k2=0.5, k3=float(mu[0]), beta_r=0.1),
        params=("k3",),
    )
    return model, derivs


def chain_problem(target_omega, x0=0.35, **tol_kwargs):
    return OptProblem(
        builder=chain_builder,
        names=("k3",),
        mu0=np.array([0.2]),
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
        objective={"type": "constant"},
        backbone_targets=(BackboneTarget(1, x0, target_omega),),
        tolerances=OptTolerances(
            constraint_tol=1e-8, max_iter=50, eps_tol=1e-2, **tol_kwargs
        ),
        start_order=5,
    )


@pytest.fixture(scope="module")
def chain_target():
    model, _ = chain_builder([0.2])
    master = solve_master(model, 0)
    exp = compute_ssm(model, master, 5)
    x0 = 0.35
    nominal = omega_of_rho(exp, rho_of_x(exp, 1, x0))
    return x0, nominal


class TestObjectiveRegistry:
    names = ("a", "b", "c")

    def test_constant(self):
        v, g = objective_value_grad({"type": "constant", "value": 2.0}, self.names, np.ones(3))
        assert v == 2.0 and np.all(g == 0.0)

    def test_variable(self):
        v, g = objective_value_grad({"type": "variable", "name": "b"}, self.names, np.array([1.0, 3.0, 5.0]))
        assert v == 3.0 and np.array_equal(g, [0.0, 1.0, 0.0])

    def test_linear(self):
        v, g = objective_value_grad(
            {"type": "linear", "coeffs": {"a": 2.0, "c": -1.0}, "offset": 1.0},
            self.names,
            np.array([1.0, 9.0, 4.0]),
        )
        assert v == pytest.approx(-1.0) and np.array_equal(g, [2.0, 0.0, -1.0])

    def test_product(self):
        v, g = objective_value_grad(
            {"type": "product", "vars": ["a", "c"]}, self.names, np.array([2.0, 9.0, 4.0])
        )
        assert v == 8.0 and np.array_equal(g, [4.0, 0.0, 2.0])

    @pytest.mark.parametrize(
        "vars_, want",
        [(["a", "a"], [0.6, 0.0, 0.0]), (["a", "b", "a"], [1.2, 0.09, 0.0]), (["c", "a", "c"], None)],
        ids=["aa", "aba", "cac"],
    )
    def test_product_with_a_repeated_name(self, vars_, want):
        # a repeated name is a power: each factor leaves out its own
        # position only, and the gradient matches central differences
        spec = {"type": "product", "vars": vars_}
        mu = np.array([0.3, 2.0, -1.5])
        v, g = objective_value_grad(spec, self.names, mu)
        assert v == pytest.approx(np.prod([mu[self.names.index(nm)] for nm in vars_]), rel=1e-15)
        h = 1e-6
        fd = [
            (objective_value_grad(spec, self.names, mu + h * e)[0]
             - objective_value_grad(spec, self.names, mu - h * e)[0]) / (2 * h)
            for e in np.eye(3)
        ]
        np.testing.assert_allclose(g, fd, rtol=1e-8, atol=1e-10)
        if want is not None:
            np.testing.assert_allclose(g, want, rtol=1e-15, atol=0)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            objective_value_grad({"type": "magic"}, self.names, np.ones(3))

    def test_problem_rejects_keys_of_another_type(self):
        objective = {"type": "variable", "name": "a", "coeffs": {"a": 5}, "vars": ["x"], "offset": 3}
        with pytest.raises(ConfigError, match="objective.coeffs, objective.vars, objective.offset"):
            OptProblem(
                builder=None,
                names=self.names,
                mu0=np.zeros(3),
                lower=-np.ones(3),
                upper=np.ones(3),
                objective=objective,
            )

    @pytest.mark.parametrize(
        "objective, field",
        [
            ({"type": "linear", "coeffs": {"k3": float("nan")}}, "objective.coeffs.k3"),
            ({"type": "linear", "coeffs": {"k3": 1.0}, "offset": -np.inf}, "objective.offset"),
            ({"type": "constant", "value": np.inf}, "objective.value"),
        ],
    )
    def test_problem_rejects_non_finite_numbers(self, chain_target, objective, field):
        # without the check, solve() stalls at the feasible start and reports
        # converged=True with a nan or inf objective
        x0, nominal = chain_target
        problem = chain_problem(nominal, x0)
        with pytest.raises(ConfigError, match=f"^{field} must be a finite number"):
            replace(problem, objective=objective)

    @pytest.mark.parametrize(
        "objective, field",
        [
            ({"type": "product", "vars": "k3"}, "objective.vars"),
            ({"type": "variable", "name": ["k3"]}, "objective.name"),
            ({"type": "linear", "coeffs": ["k3"]}, "objective.coeffs"),
            ({"type": "linear", "coeffs": {"k3": "1"}}, "objective.coeffs"),
            ({"type": "constant", "value": "2"}, "objective.value"),
            ({"type": "linear", "coeffs": {"k3": 1.0}, "offset": True}, "objective.offset"),
        ],
    )
    def test_problem_rejects_malformed_keys(self, chain_target, objective, field):
        # the config schema types these keys; a library caller's malformed
        # objective otherwise fails later with a KeyError or a TypeError
        x0, nominal = chain_target
        problem = chain_problem(nominal, x0)
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            replace(problem, objective=objective)


class TestOrderPolicy:
    def test_unchanged_when_within_tolerance(self):
        assert order_policy(1e-3, 1e-2, 5, 13) == 5

    def test_bumped_by_two(self):
        assert order_policy(1.0, 1e-2, 3, 13) == 5

    def test_capped_at_max(self):
        assert order_policy(1.0, 1e-2, 13, 13) == 13


class TestEvaluate:
    def test_feasible_start_has_zero_violation(self, chain_target):
        x0, nominal = chain_target
        prob = chain_problem(nominal, x0)
        res = evaluate(prob, prob.mu0, order=5, reference=solve_master(chain_builder([0.2])[0], 0).phi,
                       omega_scale=nominal)
        assert abs(res.constraints[0]) <= 1e-12

    def test_gradient_against_fd(self, chain_target):
        x0, nominal = chain_target
        prob = chain_problem(0.98 * nominal, x0)
        ref = solve_master(chain_builder([0.2])[0], 0).phi
        res = evaluate(prob, prob.mu0, order=5, reference=ref, omega_scale=nominal)
        h = 1e-6
        up = evaluate(prob, prob.mu0 + h, order=5, reference=ref, omega_scale=nominal)
        dn = evaluate(prob, prob.mu0 - h, order=5, reference=ref, omega_scale=nominal)
        fd = (up.constraints[0] - dn.constraints[0]) / (2 * h)
        assert res.con_jac[0, 0] == pytest.approx(fd, rel=1e-5)

    def test_eigfreq_constraint_path(self, chain_target):
        x0, nominal = chain_target
        model, _ = chain_builder([0.2])
        master = solve_master(model, 0)
        prob = OptProblem(
            builder=chain_builder,
            names=("k3",),
            mu0=np.array([0.2]),
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
            objective={"type": "constant"},
            eigfreq_targets=(EigfreqTarget(0, master.omega),),
        )
        res = evaluate(prob, prob.mu0, order=3, reference=master.phi, omega_scale=master.omega)
        assert abs(res.constraints[0]) <= 1e-12
        assert res.con_jac[0, 0] == 0.0  # k3 does not move the linear spectrum

    def test_one_eigendecomposition_per_model(self, chain_target, monkeypatch):
        # a backbone target and an eigenfrequency target read the one set of
        # modes the model keeps (`MechModel.modes`): eigh runs once for the
        # one model that evaluate builds, not once per target kind
        x0, nominal = chain_target
        model, _ = chain_builder([0.2])
        master = solve_master(model, 0)
        prob = replace(
            chain_problem(nominal, x0), eigfreq_targets=(EigfreqTarget(0, master.omega),)
        )
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        replace(model).modes
        assert len(calls) == 1  # the counter sees a fresh model's modes
        calls.clear()
        res = evaluate(prob, prob.mu0, order=5, reference=master.phi, omega_scale=nominal)
        assert len(res.constraints) == 2 and abs(res.constraints[1]) <= 1e-12
        assert len(calls) == 1

    def test_eigfreq_gradient_skips_tensor_only_parameters(self):
        # per-spring k3 parameters interleaved with the chain's k and mass:
        # the Jacobian row skips the k3 ones and equals the dense formula
        # taken over every parameter
        spec = ChainSpec(n_masses=5, alpha_r=0.0, beta_r=0.02)
        model, family = build_chain(spec, params=("k", "mass"))
        springs = chain_per_spring_k3(spec, 4)
        chosen = [(springs, 0), (family, 0), (springs, 1), (springs, 2), (family, 1), (springs, 3)]
        params = pick_params(chosen)
        assert params.matrix_params == (1, 4)
        master = solve_master(model, 0)
        count = params.count
        prob = OptProblem(
            builder=lambda mu: (model, params),
            names=params.names,
            mu0=np.zeros(count),
            lower=-np.ones(count),
            upper=np.ones(count),
            objective={"type": "constant"},
            eigfreq_targets=(EigfreqTarget(0, 1.01 * master.omega),),
        )
        res = evaluate(prob, prob.mu0, order=3, reference=master.phi, omega_scale=master.omega)
        omegas, Phi = solve_modes(model)
        w, phi = float(omegas[0]), Phi[:, 0]
        dense = np.array(
            [phi @ ((dK - w**2 * dM) @ phi) / (2.0 * w) for dM, dK in param_matrices(params)]
        )
        assert np.array_equal(res.con_jac[0], dense / master.omega)
        assert np.all(res.con_jac[0, [1, 4]] != 0.0)


class TestSolve:
    def test_feasible_start_converges_immediately(self, chain_target):
        x0, nominal = chain_target
        res = solve(chain_problem(nominal, x0))
        assert res.converged
        assert res.iterations <= 2
        assert abs(res.mu_star[0] - 0.2) <= 1e-6

    @pytest.mark.parametrize("shift, evaluations", [(1.0, 1), (0.98, 4)])
    def test_no_evaluation_repeats_a_design(self, chain_target, monkeypatch, shift, evaluations):
        # the objective scale is read off the objective alone: an evaluation
        # at mu0 would be wasted, since the first iterate, unscale(clip(z)),
        # differs from mu0 by roundoff and misses the cache
        x0, nominal = chain_target
        calls = []

        def counted(problem, mu, order, **kwargs):
            calls.append((np.array(mu, copy=True), order))
            return evaluate(problem, mu, order, **kwargs)

        monkeypatch.setattr(optimizer, "evaluate", counted)
        assert solve(chain_problem(shift * nominal, x0)).converged
        assert len(calls) == evaluations
        for i, (mu, order) in enumerate(calls):
            for prior, prior_order in calls[:i]:
                assert order != prior_order or not np.allclose(mu, prior, rtol=1e-12, atol=0)

    def test_chain_toy_matches_bisection(self, chain_target):
        # oracle: 1-D root solve on the same response
        x0, nominal = chain_target
        target = 0.98 * nominal
        res = solve(chain_problem(target, x0))
        assert res.converged

        def resid(k3):
            m, _ = chain_builder([k3])
            mm = solve_master(m, 0)
            e = compute_ssm(m, mm, 5)
            return omega_of_rho(e, rho_of_x(e, 1, x0)) - target

        k3_star = brentq(resid, -0.8, 0.5, xtol=1e-14)
        assert res.mu_star[0] == pytest.approx(k3_star, abs=1e-7)
        assert res.trace[-1].max_violation <= 1e-8 * res.omega_ref

    def test_replay_is_bitwise_deterministic(self, chain_target):
        x0, nominal = chain_target
        a = solve(chain_problem(0.99 * nominal, x0))
        b = solve(chain_problem(0.99 * nominal, x0))
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert np.array_equal(ra.mu, rb.mu)

    def test_gradient_method_switch_keeps_iterates(self, chain_target):
        x0, nominal = chain_target
        a = solve(chain_problem(0.99 * nominal, x0), method="adjoint")
        b = solve(chain_problem(0.99 * nominal, x0), method="direct")
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert np.allclose(ra.mu, rb.mu, rtol=1e-8, atol=1e-12)

    def test_stationarity_at_converged_point(self, chain_target):
        x0, nominal = chain_target
        res = solve(chain_problem(0.99 * nominal, x0))
        assert res.converged
        assert res.stationarity <= 1e-6

    def test_nonconverged_flagged(self, chain_target):
        x0, nominal = chain_target
        res = solve(chain_problem(0.5 * nominal, x0, max_order=5))  # unreachable shift
        assert not res.converged

    def test_order_raise_that_fails_keeps_the_accepted_order(self, chain_target, monkeypatch):
        # at 0.97 the accepted iterates ask for order 7 after the second one;
        # if the accepted point cannot be expanded there, the run goes on at 5
        x0, nominal = chain_target
        assert [r.order for r in solve(chain_problem(0.97 * nominal, x0)).trace] == [5, 5, 7, 7]

        def no_order_7(problem, mu, order, **kwargs):
            if order >= 7:
                raise OuterResonanceError((order, 0), 1, 0.0)
            return evaluate(problem, mu, order, **kwargs)

        monkeypatch.setattr(optimizer, "evaluate", no_order_7)
        res = solve(chain_problem(0.97 * nominal, x0))
        assert res.converged
        assert {r.order for r in res.trace} == {5}

    def test_convergence_test_reads_the_accepted_evaluation(self, monkeypatch):
        # every accepted iterate of a linear chain raises the order by two:
        # feasibility and stationarity are both read from the evaluation
        # that `accept` returns at the raised order, not from the trial
        # evaluated at the order before
        def builder(mu):
            return build_chain(ChainSpec(k=float(mu[0]), k2=0.0, k3=0.0), params=("k",))

        target = solve_master(builder([1.2])[0], 0).omega_d
        prob = OptProblem(
            builder=builder,
            names=("k",),
            mu0=np.array([1.0]),
            lower=np.array([0.5]),
            upper=np.array([2.0]),
            objective={"type": "constant"},
            backbone_targets=(BackboneTarget(1, 0.1, target),),
            tolerances=OptTolerances(constraint_tol=1e-10),
        )
        accepted, read = [], []
        accept, stationarity = optimizer._Session.accept, optimizer._stationarity_residual

        def recorded_accept(ses, mu, res):
            accepted.append(accept(ses, mu, res))
            return accepted[-1]

        def recorded_read(final, z):
            read.append(final)
            return stationarity(final, z)

        monkeypatch.setattr(optimizer, "order_policy", lambda eps, tol, order, top: order + 2)
        monkeypatch.setattr(optimizer._Session, "accept", recorded_accept)
        monkeypatch.setattr(optimizer, "_stationarity_residual", recorded_read)
        res = solve(prob)
        assert res.converged and res.message == "first-order optimality at a feasible point"
        assert [r.order for r in res.trace] == [3 + 2 * i for i in range(len(res.trace))]
        assert len(read) == 2 and all(any(r is a for a in accepted) for r in read)
        assert read[0].order == res.trace[-1].order + 2

    # (order, k3, max_violation, epsilon) per accepted iterate, and k3*, of
    # the chain solves at 0.97, 0.98 and 0.99 x nominal; a rewrite of the
    # optimizer must reproduce them, which same-process replay cannot show
    GOLDEN = {
        0.97: (
            "first-order optimality at a feasible point",
            [
                (5, -0.30000000000000004, 0.008673232553943588, 0.003336719600533317),
                (5, -0.736428661216086, 0.00013870893319056776, 0.011836886467306032),
                (7, -0.7028350375230128, 1.6674650065162666e-06, 0.0028552664034390295),
                (7, -0.702758217275445, 8.683831431710587e-12, 0.002854535859874915),
            ],
            -0.702758217275445,
        ),
        0.98: (
            "first-order optimality at a feasible point",
            [
                (5, -0.30000000000000004, 0.002528696597986158, 0.003336719600533317),
                (5, -0.42724156351359244, 1.1662386241062528e-05, 0.005261872873465064),
                (5, -0.4266600989539071, 2.457215542150948e-10, 0.005252105864144773),
            ],
            -0.4266600989539071,
        ),
        0.99: (
            "first-order optimality at a feasible point",
            [
                (5, -0.12045698538804572, 7.071927303881065e-05, 0.0013021115195522538),
                (5, -0.1168521842743162, 9.145349810779635e-09, 0.0012689368072147772),
                (5, -0.11685171798423721, 2.220446049250313e-16, 0.0012689325348160371),
            ],
            -0.11685171798423721,
        ),
    }

    @pytest.mark.parametrize("scale", sorted(GOLDEN))
    def test_chain_iterates_match_golden(self, chain_target, scale):
        # pins the iterates across versions, not only within one process;
        # the absolute tolerance covers violations at roundoff level
        x0, nominal = chain_target
        message, rows, k3_star = self.GOLDEN[scale]
        res = solve(chain_problem(scale * nominal, x0))
        assert res.message == message
        assert [r.order for r in res.trace] == [row[0] for row in rows]
        got = [(r.mu[0], r.max_violation, r.epsilon) for r in res.trace]
        assert np.allclose(got, [row[1:] for row in rows], rtol=1e-10, atol=1e-14)
        assert res.mu_star[0] == pytest.approx(k3_star, rel=1e-10)

    def test_extrapolated_start_raises_the_order(self, monkeypatch):
        # the O3 validity cap of chain2 at dof 1 is x = 1.84, so a target at
        # 1.9 cannot be evaluated at order 3; the start order passes the rule
        # of every order, which a target past the validity radius fails
        model, _ = chain_builder([0.2])
        master = solve_master(model, 0)
        prob = OptProblem(
            builder=chain_builder,
            names=("k3",),
            mu0=np.array([0.2]),
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
            objective={"type": "constant"},
            backbone_targets=(BackboneTarget(1, 1.9, master.omega),),
            tolerances=OptTolerances(eps_tol=1.0, max_order=5, max_iter=1),
            start_order=3,
        )
        with pytest.raises(AmplitudeUnreachableError):
            evaluate(prob, prob.mu0, order=3, reference=master.phi, omega_scale=master.omega)
        # the start order is decided before any evaluation, not by one
        orders = []

        def counted(problem, mu, order, **kwargs):
            orders.append(order)
            return evaluate(problem, mu, order, **kwargs)

        monkeypatch.setattr(optimizer, "evaluate", counted)
        res = solve(prob)
        assert res.trace[0].order == 5
        assert orders and min(orders) >= res.trace[0].order

    def test_constraint_free_problem_reaches_the_bound_corner(self):
        def builder(mu):
            k, k3 = map(float, mu)
            spec = ChainSpec(n_masses=2, mass=1.0, k=k, k2=0.5, k3=k3, beta_r=0.1)
            return build_chain(spec, params=("k", "k3"))

        res = solve(
            OptProblem(
                builder=builder,
                names=("k", "k3"),
                mu0=np.array([1.0, 0.2]),
                lower=np.array([0.5, -1.0]),
                upper=np.array([2.0, 1.0]),
                objective={"type": "product", "vars": ["k", "k3"]},
            )
        )
        assert res.converged
        assert res.mu_star == pytest.approx([2.0, -1.0], abs=1e-12)
        assert res.objective == pytest.approx(-2.0, abs=1e-12)

    def test_unbuildable_trials_shrink_the_trust_radius_then_stop(self):
        # every design but the start fails to build: each line search tries
        # ten step lengths, and the trust radius shrinks 0.25 -> 1/16 ->
        # 1/64 -> 1e-2 before the stalled run stops at its feasible start
        failed = []

        def builder(mu):
            if abs(float(mu[0]) - 0.2) > 1e-12:
                failed.append(float(mu[0]))
                raise ModelError("only the start design can be built")
            return chain_builder(mu)

        model, _ = chain_builder([0.2])
        res = solve(
            OptProblem(
                builder=builder,
                names=("k3",),
                mu0=np.array([0.2]),
                lower=np.array([-1.0]),
                upper=np.array([1.0]),
                objective={"type": "variable", "name": "k3"},
                eigfreq_targets=(EigfreqTarget(0, solve_master(model, 0).omega),),
            )
        )
        assert res.converged
        assert res.message == "merit stalled at a feasible point"
        assert res.iterations == 0
        assert len(failed) == 4 * 10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_trials_count_as_infinite_merit(self, chain_target):
        # every design but the start has k3 = 1e300, whose order-5 force
        # products overflow: each such trial is a failed evaluation, not a crash
        x0, nominal = chain_target
        failed = []

        def builder(mu):
            if abs(float(mu[0]) - 0.2) > 1e-12:
                failed.append(float(mu[0]))
                return chain_builder([1e300])
            return chain_builder(mu)

        res = solve(replace(chain_problem(0.98 * nominal, x0), builder=builder))
        assert failed
        assert not res.converged
        assert res.mu_star == pytest.approx([0.2], abs=1e-12)

    def test_trace_csv_shape(self, chain_target):
        x0, nominal = chain_target
        res = solve(chain_problem(0.99 * nominal, x0))
        text = trace_to_csv(res.trace)
        lines = text.strip().split("\n")
        assert lines[0].startswith("iteration,objective,max_violation,epsilon,order,mac,grad_norm")
        assert len(lines) == len(res.trace) + 1


def random_bounded_problem(seed):
    """A seeded chain problem over (k, k2, k3) in boxes of +-0.3, +-0.3 and
    +-0.2 around a random start: a linear objective with standard-normal
    coefficients and one backbone target at DOF 0, within 1 % of the start's
    backbone frequency at its amplitude."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    names = ("k", "k2", "k3")
    mu0 = np.array([rng.uniform(0.8, 1.5), rng.uniform(-0.4, 0.4), rng.uniform(0.0, 0.4)])
    half = np.array([0.3, 0.3, 0.2])

    def builder(mu):
        k, k2, k3 = map(float, mu)
        return build_chain(ChainSpec(n_masses=n, k=k, k2=k2, k3=k3), params=names)

    model, _ = builder(mu0)
    exp = compute_ssm(model, solve_master(model, 0), 5)
    x = float(rng.uniform(0.05, 0.3))
    omega = omega_of_rho(exp, rho_of_x(exp, 0, x)) * float(rng.uniform(0.99, 1.01))
    return OptProblem(
        builder=builder,
        names=names,
        mu0=mu0,
        lower=mu0 - half,
        upper=mu0 + half,
        objective={"type": "linear", "coeffs": dict(zip(names, map(float, rng.normal(size=3))))},
        backbone_targets=(BackboneTarget(0, x, omega),),
        tolerances=OptTolerances(constraint_tol=1e-8, max_order=9),
        start_order=5,
    )


def slsqp_gain(problem, res):
    """How much SLSQP, started at mu* on the same constraints at the run's
    final order, lowers the objective, relative to its size (at least 1);
    0 when SLSQP ends infeasible."""
    order = res.trace[-1].order
    reference = solve_master(problem.builder(res.mu_star)[0], 0).phi
    memo = {}

    def at(mu):
        key = np.asarray(mu, dtype=float).tobytes()
        if key not in memo:
            memo[key] = evaluate(
                problem, np.asarray(mu, dtype=float), order,
                reference=reference, omega_scale=res.omega_ref,
            )
        return memo[key]

    out = minimize(
        lambda mu: at(mu).objective,
        res.mu_star,
        jac=lambda mu: at(mu).obj_grad,
        method="SLSQP",
        bounds=list(zip(problem.lower, problem.upper)),
        constraints=[
            {"type": "eq", "fun": lambda mu: at(mu).constraints, "jac": lambda mu: at(mu).con_jac}
        ],
        options={"ftol": 1e-12, "maxiter": 200},
    )
    end = at(out.x)
    if np.abs(end.constraints).max() > problem.tolerances.constraint_tol:
        return 0.0
    return (res.objective - end.objective) / max(abs(res.objective), 1.0)


def test_random_bounded_problems_end_first_order_optimal():
    # a converged run is a KKT point of the bounded problem: its stationarity
    # measure vanishes and SLSQP cannot lower the objective from there. The
    # clipped step with its probe reported every one of these converged, and
    # SLSQP lowered 20 of the 30 objectives, by up to 19 %
    results = [(p, solve(p)) for p in map(random_bounded_problem, range(30))]
    converged = [(p, r) for p, r in results if r.converged]
    assert len(converged) >= 27
    for problem, res in converged:
        assert res.stationarity <= 1e-6
        assert slsqp_gain(problem, res) <= 1e-6


# (problem change, the field its ConfigError names) for an index outside chain2
OUTSIDE_THE_MODEL = [
    ({"backbone_targets": (BackboneTarget(5, 0.35, 0.6),)}, "backbone_targets[0].dof_index"),
    ({"backbone_targets": (BackboneTarget(-1, 0.35, 0.6),)}, "backbone_targets[0].dof_index"),
    (
        {"backbone_targets": (), "eigfreq_targets": (EigfreqTarget(7, 0.6),)},
        "eigfreq_targets[0].mode_index",
    ),
    (
        {"eigfreq_targets": (EigfreqTarget(0, 0.6), EigfreqTarget(-2, 0.6))},
        "eigfreq_targets[1].mode_index",
    ),
    ({"mode_index": 4}, "mode_index"),
]


class TestProblemValidation:
    def test_bounds_must_be_finite(self):
        with pytest.raises(ConfigError):
            OptProblem(
                builder=chain_builder,
                names=("k3",),
                mu0=np.array([0.2]),
                lower=np.array([-np.inf]),
                upper=np.array([1.0]),
                objective={"type": "constant"},
                backbone_targets=(BackboneTarget(1, 0.1, 0.6),),
            )

    def test_needs_constraint_or_objective(self):
        with pytest.raises(ConfigError):
            OptProblem(
                builder=chain_builder,
                names=("k3",),
                mu0=np.array([0.2]),
                lower=np.array([-1.0]),
                upper=np.array([1.0]),
                objective={"type": "constant"},
            )

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"mu0": np.array([np.nan])}, "mu0"),
            ({"backbone_targets": (BackboneTarget(1, -0.1, 0.6),)}, "backbone_targets[0].x"),
            ({"backbone_targets": (BackboneTarget(1, np.nan, 0.6),)}, "backbone_targets[0].x"),
            ({"backbone_targets": (BackboneTarget(1, 0.35, np.nan),)}, "backbone_targets[0].omega"),
            ({"backbone_targets": (BackboneTarget(1, 0.35, np.inf),)}, "backbone_targets[0].omega"),
            ({"eigfreq_targets": (EigfreqTarget(0, np.nan),)}, "eigfreq_targets[0].omega"),
            ({"eigfreq_targets": (EigfreqTarget(0, 0.0),)}, "eigfreq_targets[0].omega"),
            ({"tolerances": OptTolerances(eps_tol=-1.0)}, "tolerances.eps_tol"),
            ({"tolerances": OptTolerances(constraint_tol=np.nan)}, "tolerances.constraint_tol"),
            ({"tolerances": OptTolerances(max_order=4)}, "tolerances.max_order"),
            ({"tolerances": OptTolerances(max_order=1)}, "tolerances.max_order"),
            ({"tolerances": OptTolerances(max_iter=0)}, "tolerances.max_iter"),
            ({"start_order": 4}, "start_order"),
        ],
    )
    def test_problem_rejects_what_solve_cannot_run(self, change, field):
        # the config schema rejects each of these for a CLI run; a library
        # problem otherwise reached solve, which failed with a bare
        # ValueError, a ModelError in the builder, a TurningPointError after
        # 200 Newton steps or a stalled line search
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)} "):
            replace(chain_problem(0.6), **change)

    @pytest.mark.parametrize("change, field", OUTSIDE_THE_MODEL)
    def test_target_outside_the_model_is_named(self, change, field):
        # chain2 has two DOFs and two modes; a negative index would read
        # from the end, a large one end the solve with an IndexError
        problem = replace(chain_problem(0.6), **change)
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)} = -?\d+ is out of range"):
            solve(problem)

    @pytest.mark.parametrize("change, field", OUTSIDE_THE_MODEL)
    def test_evaluate_names_a_target_outside_the_model(self, change, field):
        # the library entry point checks the same indices as solve
        problem = replace(chain_problem(0.6), **change)
        reference = solve_master(chain_builder(problem.mu0)[0], 0).phi
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)} = -?\d+ is out of range"):
            evaluate(problem, problem.mu0, order=5, reference=reference, omega_scale=1.0)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"mu0": np.array([0.2, 0.3])}, "mu0, bounds and names must have equal length"),
            ({"lower": np.array([-1.0, 0.0])}, "mu0, bounds and names must have equal length"),
            ({"names": ("k3", "k")}, "mu0, bounds and names must have equal length"),
            ({"lower": np.array([1.0])}, "lower bounds must be strictly below upper bounds"),
            ({"upper": np.array([-1.0])}, "lower bounds must be strictly below upper bounds"),
        ],
    )
    def test_problem_rejects_inconsistent_bounds(self, change, message):
        with pytest.raises(ConfigError) as err:
            replace(chain_problem(0.6), **change)
        assert type(err.value) is ConfigError and str(err.value) == message

    def test_problem_needs_design_parameters(self):
        # without names solve would end in a numpy error
        with pytest.raises(ConfigError, match="needs design parameters"):
            OptProblem(
                builder=chain_builder,
                names=(),
                mu0=np.zeros(0),
                lower=np.zeros(0),
                upper=np.zeros(0),
                objective={"type": "constant"},
                eigfreq_targets=(EigfreqTarget(0, 0.6),),
            )
