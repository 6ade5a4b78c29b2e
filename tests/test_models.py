import hashlib
import itertools
from dataclasses import fields, replace
from math import comb

import numpy as np
import pytest

from ssmopt import compute_ssm, omega_of_rho, solve_master, track_mode
from ssmopt.config import resolve_design
from ssmopt.errors import ConfigError, ModelError
from ssmopt.fdcheck import fd_gradient
from ssmopt.mechmodel import ParamDerivatives, SymTensor
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

from oracles import (
    beam_param_tensors,
    fd_gradient_richardson,
    param_matrices,
    param_tensors,
    reference_stack,
)


class TestChain:
    def test_reference_operators(self, chain2):
        model, _ = chain2
        assert np.array_equal(model.K, [[2.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(model.M, np.eye(2))
        assert np.allclose(model.C, 0.1 * model.K)

    def test_zero_nonlinearity_gives_linear_chain(self):
        model, _ = build_chain(ChainSpec(k2=0.0, k3=0.0))
        master = solve_master(model, 0)
        exp = compute_ssm(model, master, 5)
        for m in exp.indices:
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
        total = sum(t.force(x) for t in param_tensors(full, 3))
        assert np.allclose(total, shared.dT3.force(x), atol=1e-12)

    @pytest.mark.parametrize("count", [-1, 6])
    def test_per_spring_count_out_of_range(self, count):
        with pytest.raises(ConfigError, match=f"requested a count of {count}$"):
            chain_per_spring_k3(ChainSpec(n_masses=5), count)

    def test_unknown_parameter_is_named(self):
        with pytest.raises(ConfigError, match=r"unknown chain parameters: \['k4'\]"):
            build_chain(ChainSpec(), params=("k3", "k4"))

    @pytest.mark.parametrize("field", ["mass", "k", "k2", "k3"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_is_named(self, field, value):
        with pytest.raises(ModelError, match=f"^{field} must be a finite number, got"):
            build_chain(ChainSpec(**{field: value}))

    def test_operators_are_pinned_bytewise(self):
        """SHA-256 of the bytes of M, K, T2 and T3 (index table and values)
        and of the four stacked derivatives of the two-mass chain and of a
        101-mass one, then of the per-spring k3 derivatives of the latter at
        count 100. Recorded before the chain builders were rewritten around
        one table of spring terms, when every parameter held a dM and a dK;
        the golden numerics compare to 1e-13 only, so they cannot see a
        one-ulp change."""
        digest = hashlib.sha256()

        def add(*arrays):
            for a in arrays:
                digest.update(np.ascontiguousarray(a).tobytes())

        big = ChainSpec(n_masses=101, beta_r=0.02)
        for spec in (ChainSpec(), big):
            model, params = build_chain(spec)
            add(model.M, model.K, model.T2.idx, model.T2.vals, model.T3.idx, model.T3.vals)
            # each parameter's matrices, zeros for one that is not a matrix parameter
            matrices = param_matrices(params)
            add(*(dM for dM, _ in matrices), *(dK for _, dK in matrices))
            add(params.dT2.idx, params.dT2.vals, params.dT3.idx, params.dT3.vals)
        springs = chain_per_spring_k3(big, 100)
        add(springs.dT3.idx, springs.dT3.vals)
        assert digest.hexdigest() == (
            "796e0451373a0579e2124214524633c483413cbf22dabfe92bc695be98b9d532"
        )


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
        from ssmopt.ssm import SsmExpansion

        model, params = beam
        modal = params.modal_partials(beam_master.omega, beam_master.phi)
        _, domega = eig_derivatives(SsmExpansion(model, beam_master), params, modal)

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

    def test_underflowing_element_length_rejected(self):
        # a positive length whose element lengths underflow to zero
        with pytest.raises(ModelError, match="inverted or degenerate beam geometry"):
            build_vk_beam(VkBeamSpec(length=5e-324))

    def test_unknown_parameter_is_named(self):
        with pytest.raises(ConfigError, match="unknown beam parameter 'width'"):
            build_vk_beam(VkBeamSpec(n_elements=2), params=("a1", "width"))

    def test_center_dof_requires_even_elements(self):
        with pytest.raises(ConfigError):
            vk_center_dof(VkBeamSpec(n_elements=9))


def _spring_tensor(n: int, power: int, springs) -> SymTensor:
    """The unit-coefficient force (x_i - x_o)**power of the given springs on
    each mass they act on, written out term by term as [i, j, k(, l), v]
    rows: spring 0 joins mass 0 to the ground, spring s > 0 masses s - 1 and s."""
    rows = []
    for s in springs:
        for i, o in [(0, None)] if s == 0 else [(s - 1, s), (s, s - 1)]:
            for a in range(power + 1 if o is not None else 1):
                rows.append((i,) * (power + 1 - a) + (o,) * a + (comb(power, a) * (-1) ** a,))
    return SymTensor.from_entries(n, power, rows)


def _chain_param_tensors(spec: ChainSpec) -> dict:
    """{arity: [dT_p]} of `build_chain`'s four parameters, one tensor each."""
    n = spec.n_masses
    T2u, T3u = (_spring_tensor(n, power, range(n)) for power in (2, 3))
    E2, E3 = SymTensor.empty(n, 2), SymTensor.empty(n, 3)
    return {2: [E2, E2, T2u, E2], 3: [E3, E3, E3, T3u]}


def _spring_param_tensors(spec: ChainSpec, count: int) -> dict:
    """{arity: [dT_p]} of `chain_per_spring_k3`: spring s's cubic pattern."""
    n = spec.n_masses
    dT3 = [_spring_tensor(n, 3, [s]) for s in range(count)]
    return {2: [SymTensor.empty(n, 2)] * count, 3: dT3}


CURVED_BEAM10 = VkBeamSpec(a1=0.002, a2=0.001)
CHAIN5 = ChainSpec(n_masses=5)
BUILDS = {
    "chain2": (lambda: build_chain(ChainSpec()), lambda: _chain_param_tensors(ChainSpec())),
    "chain5 per spring": (
        lambda: (build_chain(CHAIN5)[0], chain_per_spring_k3(CHAIN5, 4)),
        lambda: _spring_param_tensors(CHAIN5, 4),
    ),
    "vk_beam10 curved": (
        lambda: build_vk_beam(CURVED_BEAM10),
        lambda: beam_param_tensors(CURVED_BEAM10, tuple(FAMILIES["vk_beam"].params)),
    ),
}


class TestStackedStorage:
    """Each tensor entry is stored once: a tensor's index columns are views
    of its one index table, and a `ParamDerivatives` keeps one stacked
    tensor per arity, which the builders make."""

    @pytest.mark.parametrize("name", BUILDS)
    def test_index_columns_are_views(self, name):
        model, params = BUILDS[name][0]()
        tensors = [model.T2, model.T3, params.dT2, params.dT3]
        assert all(T.nnz for T in (model.T2, model.T3))
        for T in tensors:
            assert T.idx.flags.f_contiguous
            assert len(T.cols) == T.arity + 1
            for k, c in enumerate(T.cols):
                assert c.flags.c_contiguous and np.array_equal(c, T.idx[:, k])
                if T.nnz:
                    assert np.shares_memory(c, T.idx)

    def test_matrix_model_columns_are_views(self):
        block = {
            "type": "matrix",
            "n": 2,
            "M": [[1.0, 0.0], [0.0, 1.0]],
            "K": [[2.0, -1.0], [-1.0, 1.0]],
            "T2": [[0, 1, 1, 0.5]],
            "T3": [[1, 0, 1, 1, 0.2], [0, 0, 0, 0, 0.1]],
        }
        names, _, builder = resolve_design(block)
        model, params = builder(np.zeros(0))
        assert names == () and params.count == 0
        assert (params.dT2.n, params.dT2.arity, params.dT3.n, params.dT3.arity) == (0, 2, 0, 3)
        for T in (model.T2, model.T3):
            assert all(np.shares_memory(c, T.idx) for c in T.cols)

    @pytest.mark.parametrize("name", BUILDS)
    def test_stacked_tensors_equal_the_vstack_reference(self, name):
        _, params = BUILDS[name][0]()
        per_param = BUILDS[name][1]()
        n = params.dT2.n // params.count
        for arity, got in ((2, params.dT2), (3, params.dT3)):
            want = reference_stack(n, arity, per_param[arity])
            assert (got.n, got.arity, got.idx.dtype) == (want.n, want.arity, want.idx.dtype)
            assert np.array_equal(got.idx, want.idx)
            assert got.vals.tobytes() == want.vals.tobytes()
        assert params.dT3.nnz

    def test_slices_restack_to_the_same_tensors(self):
        _, params = build_vk_beam(CURVED_BEAM10)
        matrices = dict(zip(params.matrix_params, zip(params.dM, params.dK)))
        again = ParamDerivatives.stack(
            params.dM.shape[1], params.names, matrices, param_tensors(params, 2), param_tensors(params, 3)
        )
        for got, want in ((again.dT2, params.dT2), (again.dT3, params.dT3)):
            assert np.array_equal(got.idx, want.idx)
            assert got.vals.tobytes() == want.vals.tobytes()

    def test_shape_is_checked(self):
        n = 3
        zeros = np.zeros((0, n, n))
        E2, E3 = SymTensor.empty(n, 2), SymTensor.empty(n, 3)
        with pytest.raises(ModelError, match="dT2 must be one stacked tensor of arity 2 with 6"):
            ParamDerivatives(("a", "b"), (), zeros, zeros, E2, SymTensor.empty(2 * n, 3))
        with pytest.raises(ModelError, match="dT3 must be one stacked tensor"):
            ParamDerivatives(("a",), (), zeros, zeros, E2, SymTensor.empty(n, 2))
        with pytest.raises(ModelError, match="dT2 must be one stacked tensor"):
            ParamDerivatives(("a",), (), zeros, zeros, (E2,), E3)
        with pytest.raises(ModelError, match="dT3 must hold tensors of arity 3 and dimension 3"):
            T = SymTensor.from_entries(n + 1, 3, [[0, 1, 2, 3, 1.0]])
            ParamDerivatives.stack(n, ("a",), {}, (E2,), (T,))

    @pytest.mark.parametrize("matrix_params", [(1, 0), (0, 0), (2,), (-1,)])
    def test_matrix_params_are_checked(self, matrix_params):
        # ascending, distinct and below the parameter count
        n, k = 3, len(matrix_params)
        stack = np.zeros((k, n, n))
        E2, E3 = SymTensor.empty(2 * n, 2), SymTensor.empty(2 * n, 3)
        with pytest.raises(ModelError, match="matrix_params must be ascending, distinct and below 2"):
            ParamDerivatives(("a", "b"), matrix_params, stack, stack, E2, E3)

    @pytest.mark.parametrize(
        "dM, dK",
        [
            (np.zeros((2, 3, 3)), np.zeros((2, 3, 3))),  # a slice for a tensor-only parameter
            (np.zeros((1, 3, 3)), np.zeros((1, 2, 2))),  # dK not the shape of dM
            (np.zeros((1, 3, 2)), np.zeros((1, 3, 2))),  # not square
            (np.zeros((3, 3)), np.zeros((3, 3))),  # not a stack
        ],
    )
    def test_matrix_stacks_are_checked(self, dM, dK):
        E2, E3 = SymTensor.empty(6, 2), SymTensor.empty(6, 3)
        with pytest.raises(ModelError, match="dM and dK must be equal stacks of 1 square matrices"):
            ParamDerivatives(("a", "b"), (1,), dM, dK, E2, E3)


def _moves_matrices(rebuild, mu: float) -> tuple[bool, np.ndarray, np.ndarray]:
    """(changed, dM, dK): whether the models rebuilt at mu - h and mu + h differ
    from the one at mu in M or K, and the central differences of M and K."""
    h = 1e-6 * (1.0 + abs(mu))
    lo, mid, hi = (rebuild(v) for v in (mu - h, mu, mu + h))
    changed = any(
        not np.array_equal(m.M, mid.M) or not np.array_equal(m.K, mid.K) for m in (lo, hi)
    )
    return changed, (hi.M - lo.M) / (2 * h), (hi.K - lo.K) / (2 * h)


class TestMatrixParams:
    """The builders declare the matrix parameters (`ParamDerivatives.
    matrix_params`): a parameter is one exactly when rebuilding the model at
    mu_p +/- h changes M or K, its slices of the dM and dK stacks are those
    changes' rates, and a tensor-only parameter holds no slice."""

    @staticmethod
    def check(params, field_of, spec, build):
        """field_of maps each of params' names to its spec field, and
        build(spec) returns the model."""
        want, rates = [], []
        for p, name in enumerate(params.names):
            fld = field_of[name]
            changed, dM, dK = _moves_matrices(
                lambda v: build(replace(spec, **{fld: v})), getattr(spec, fld)
            )
            if changed:
                want.append(p)
                rates.append((dM, dK))
        assert params.matrix_params == tuple(want)
        n = params.dT2.n // params.count
        assert params.dM.shape == params.dK.shape == (len(want), n, n)
        for got, rate in zip(zip(params.dM, params.dK), rates):
            for g, r in zip(got, rate):
                assert np.allclose(g, r, rtol=1e-6, atol=1e-6 * np.abs(g).max(initial=1.0))

    @pytest.mark.parametrize(
        "names",
        [c for r in range(1, 5) for c in itertools.permutations(("mass", "k", "k2", "k3"), r)],
    )
    def test_chain(self, names):
        spec = ChainSpec(n_masses=3, beta_r=0.02)
        _, params = build_chain(spec, names)
        self.check(params, {p: p for p in names}, spec, lambda s: build_chain(s, ())[0])

    @pytest.mark.parametrize("curved", [False, True])
    def test_vk_beam(self, curved):
        spec = CURVED_BEAM10 if curved else VkBeamSpec()
        field_of = FAMILIES["vk_beam"].params
        for names in (tuple(field_of), ("L", "a1")):
            _, params = build_vk_beam(spec, names)
            self.check(params, field_of, spec, lambda s: build_vk_beam(s, ())[0])
            # each of the four moves M and K, on the flat beam too
            assert params.matrix_params == tuple(range(len(names)))

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_chain_per_spring_k3(self, count):
        # one spring's k3 is a part of the shared k3, which moves only T3
        spec = ChainSpec(n_masses=5)
        springs = chain_per_spring_k3(spec, count)
        assert springs.matrix_params == () and springs.dM.shape[0] == springs.dK.shape[0] == 0
        changed, _, _ = _moves_matrices(lambda v: build_chain(replace(spec, k3=v), ())[0], spec.k3)
        assert not changed
        if count:
            assert springs.dM.shape == (0, 5, 5)

    def test_matrix_block_has_none(self):
        block = {"type": "matrix", "n": 2, "M": np.eye(2).tolist(), "K": np.eye(2).tolist()}
        names, _, builder = resolve_design(block)
        _, params = builder(np.zeros(0))
        assert names == () and params.matrix_params == () and params.dM.shape[0] == 0


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
