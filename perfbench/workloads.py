"""The benchmark workloads.

Every workload is a closed loop with one client: an operation is issued only
after the previous one has returned. `inputs` draws the operations from the
seed. `setup` is the one-time preparation that `setup_s` times; it returns a
state that holds the items. `run(state, i)` is the i-th operation, and
`check` returns why its output is wrong, or None.

The benchmark calls ssmopt only through module attributes
(`models.build_vk_beam(...)`), so the traced run sees every call.

Batch sizes follow `--seconds`: a batch holds round(seconds / op_seconds)
operations, where `op_seconds` is the nominal time of one operation on a
2-CPU x86-64 virtual machine with one BLAS thread. The inputs therefore
depend only on the seed and the run length, never on the machine's speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ssmopt import backbone, cli, models, optimizer, sens_adjoint, sens_direct, spectral, ssm

REF_PATH = Path(__file__).with_name("refs.json")

# criterion-2 tolerance: adjoint against direct
GRAD_RTOL = 1e-8


def strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws in [0, 1), one from each of n equal strata, in random order.

    Stratifying keeps the mix of cheap and expensive inputs the same from seed
    to seed, so a batch's cost varies little with the seed.
    """
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def batch_size(seconds: float, op_seconds: float) -> int:
    return max(1, round(seconds / op_seconds))


def load_refs(path: Path = REF_PATH) -> dict:
    """Reference data written by make_refs.py, one section per workload."""
    with open(path) as fh:
        return json.load(fh)


def _relerr(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want) / np.abs(want)))


# -- beam_tailor ----------------------------------------------------------------


@dataclass
class TailorState:
    items: list
    problem: object
    omega0: float


class BeamTailor:
    """Acceptance criterion 7 verbatim: tailor vk_beam10 to two backbone targets.

    One operation is one converged design (40-65 s on a 2-CPU virtual
    machine), whatever `--seconds` says, and the seed is ignored: the
    acceptance criteria pin this problem. A run is one design, so its time
    follows the host's speed at that minute; beam_tailor is therefore not in
    BENCHMARK.json, and it is run by hand for its traced layer shares.
    """

    name = "beam_tailor"
    lower = np.array([0.0, 0.0, 0.001, 0.5])
    upper = np.array([0.020, 0.020, 0.100, 1.5])

    def inputs(self, seed: int, seconds: float) -> list:
        return [None]

    def setup(self, items: list, workdir: Path) -> TailorState:
        spec0 = models.VkBeamSpec()
        m0, _ = models.build_vk_beam(spec0)
        w0, h0 = spectral.solve_master(m0, 0).omega, spec0.thickness
        dof = models.vk_center_dof(spec0)

        def builder(mu):
            return models.build_vk_beam(
                models.VkBeamSpec(a1=mu[0], a2=mu[1], thickness=mu[2], length=mu[3])
            )

        problem = optimizer.OptProblem(
            builder=builder,
            names=("a1", "a2", "h", "L"),
            mu0=np.array([0.0, 0.0, 0.010, 1.0]),
            lower=self.lower,
            upper=self.upper,
            objective={"type": "product", "vars": ["a2", "L"]},
            backbone_targets=(
                optimizer.BackboneTarget(dof, 0.2 * h0, w0),
                optimizer.BackboneTarget(dof, 0.4 * h0, 0.95 * w0),
            ),
            tolerances=optimizer.OptTolerances(
                constraint_tol=1e-6, max_iter=40, eps_tol=1e-2, max_order=9
            ),
        )
        return TailorState(items, problem, w0)

    def run(self, state: TailorState, i: int):
        return optimizer.solve(state.problem, method="adjoint")

    def check(self, state: TailorState, i: int, result) -> str | None:
        if not result.converged:
            return f"not converged: {result.message}"
        viol = result.trace[-1].max_violation / state.omega0 if result.trace else math.inf
        if not viol <= 1e-6:
            return f"constraint violation {viol:.3e} > 1e-6 relative"
        if not np.all((result.mu_star >= self.lower) & (result.mu_star <= self.upper)):
            return f"mu* out of bounds: {result.mu_star.tolist()}"
        return None


# -- beam_sens ------------------------------------------------------------------

# curved 40-element beam (n = 117) at order 9; the reference file stores the
# direct-method frequency and gradient on a fixed amplitude grid
BEAM40 = {"n_elements": 40, "a1": 0.002, "a2": 0.001}
BEAM40_ORDER = 9
BEAM40_GRID = 40


def beam40_grid() -> list[float]:
    """Target amplitudes 0.05h ... 0.4h, h the beam thickness."""
    h = models.VkBeamSpec(**BEAM40).thickness
    return [h * (0.05 + 0.35 * g / (BEAM40_GRID - 1)) for g in range(BEAM40_GRID)]


@dataclass
class SensState:
    items: list
    model: object
    params: object
    exp: object
    dof: int


class BeamSens:
    """One vk_beam40 build and O9 expansion serve a batch of adjoint gradients."""

    name = "beam_sens"
    op_seconds = 2.5

    def __init__(self, refs: dict | None = None):
        self.refs = load_refs()["beam_sens"] if refs is None else refs

    def inputs(self, seed: int, seconds: float) -> list[int]:
        n = batch_size(seconds, self.op_seconds)
        grid = len(self.refs["x"])
        return [int(u * grid) for u in strata(np.random.default_rng(seed), n)]

    def setup(self, items: list, workdir: Path) -> SensState:
        spec = models.VkBeamSpec(**BEAM40)
        model, params = models.build_vk_beam(spec)
        master = spectral.solve_master(model, 0)
        exp = ssm.compute_ssm(model, master, BEAM40_ORDER)
        return SensState(items, model, params, exp, models.vk_center_dof(spec))

    def run(self, state: SensState, i: int):
        rho = backbone.rho_of_x(state.exp, state.dof, self.refs["x"][state.items[i]])
        omega = backbone.omega_of_rho(state.exp, rho)
        adj = sens_adjoint.solve_adjoint(state.model, state.exp, state.dof, rho)
        grad = sens_adjoint.contract_gradient(state.model, state.exp, adj, state.params)
        return omega, grad.d_omega

    def check(self, state: SensState, i: int, result) -> str | None:
        g = state.items[i]
        omega, grad = result
        if not (math.isfinite(omega) and np.all(np.isfinite(grad))):
            return f"non-finite output at grid point {g}"
        err_w = _relerr(np.array([omega]), np.array([self.refs["omega"][g]]))
        err_g = _relerr(grad, np.array(self.refs["d_omega"][g]))
        if not (err_w <= GRAD_RTOL and err_g <= GRAD_RTOL):
            return f"grid point {g}: omega rel err {err_w:.2e}, gradient rel err {err_g:.2e}"
        return None


# -- chain_sens -----------------------------------------------------------------

CHAIN101 = {"n_masses": 101, "alpha_r": 0.0, "beta_r": 0.02}
CHAIN_PARAMS = 100
CHAIN_ORDER = 5
CHAIN_DOF = 100
CHAIN_X = (0.01, 0.15)  # validity cap at O5 is x = 0.20


class ChainSens:
    """chain101 at O5, P=100 per-spring k3: adjoint and direct gradients per point."""

    name = "chain_sens"
    op_seconds = 1.5

    def inputs(self, seed: int, seconds: float) -> list[float]:
        n = batch_size(seconds, self.op_seconds)
        lo, hi = CHAIN_X
        return [float(lo + (hi - lo) * u) for u in strata(np.random.default_rng(seed), n)]

    def setup(self, items: list, workdir: Path) -> SensState:
        spec = models.ChainSpec(**CHAIN101)
        model, _ = models.build_chain(spec)
        params = models.chain_per_spring_k3(spec, CHAIN_PARAMS)
        master = spectral.solve_master(model, 0)
        exp = ssm.compute_ssm(model, master, CHAIN_ORDER)
        return SensState(items, model, params, exp, CHAIN_DOF)

    def run(self, state: SensState, i: int):
        rho = backbone.rho_of_x(state.exp, state.dof, state.items[i])
        adj = sens_adjoint.solve_adjoint(state.model, state.exp, state.dof, rho)
        g_adj = sens_adjoint.contract_gradient(state.model, state.exp, adj, state.params)
        g_dir = sens_direct.chain_derivatives(state.model, state.exp, state.params, state.dof, rho)
        return g_adj.d_omega, g_dir.d_omega

    def check(self, state: SensState, i: int, result) -> str | None:
        x = state.items[i]
        g_adj, g_dir = result
        if not (np.all(np.isfinite(g_adj)) and np.all(np.isfinite(g_dir))):
            return f"non-finite gradient at x={x}"
        # normwise: far-spring components are ~1e-16 against max|g| ~ 1e-10,
        # so a per-component relative error would report roundoff
        err = float(np.max(np.abs(g_adj - g_dir)) / np.max(np.abs(g_dir)))
        if not err <= GRAD_RTOL:
            return f"x={x}: adjoint vs direct {err:.2e} > {GRAD_RTOL:.0e}"
        return None


# -- cli_batch -----------------------------------------------------------------

BACKBONE_TARGETS = 32
BACKBONE_EPS_TOL = 1e-3
# designs whose residual lands within this share of the tolerance are left
# out of the workload, so that roundoff-level changes cannot flip a check
BACKBONE_EPS_MARGIN = 0.9

# the two-mass chain of the optimizer tests; `optimize` moves its cubic
# stiffness k3 until the backbone at amplitude x passes a target frequency
CHAIN2 = {"type": "chain", "n_masses": 2, "mass": 1.0, "k": 1.0, "k2": 0.5, "k3": 0.2,
          "beta_r": 0.1}
TAILOR_DOF = 1
TAILOR_X = 0.35
TAILOR_ORDER = 5
# target over the start design's backbone frequency at TAILOR_X. Every
# target in this range takes three iterations at order 5, so every command
# costs about the same; across 0.97-1.0 the count runs from one to five.
TAILOR_SHIFT = (0.976, 0.982)


def backbone_candidates() -> list[tuple[float, float]]:
    """vk_beam10 curvatures a1 <= 0.01, a2 <= 0.005 on a 11 x 11 grid."""
    return [(a1 / 1000, a2 / 2000) for a1 in range(11) for a2 in range(11)]


def chain2_backbone(k3: float, order: int) -> tuple[float, float]:
    """Linear frequency and backbone frequency at TAILOR_X of the chain at k3."""
    spec = models.ChainSpec(**{k: v for k, v in CHAIN2.items() if k != "type"} | {"k3": k3})
    model, _ = models.build_chain(spec)
    master = spectral.solve_master(model, 0)
    exp = ssm.compute_ssm(model, master, order)
    return master.omega, backbone.omega_of_rho(exp, backbone.rho_of_x(exp, TAILOR_DOF, TAILOR_X))


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass
class CliState:
    items: list
    configs: list
    workdir: Path
    omega0: float
    nominal: float


class CliBatch:
    """A batch of `ssmopt backbone` and `ssmopt optimize` commands, run in
    process through `cli.main`, one optimize command after each backbone
    command.

    backbone: a vk_beam10 curvature, `order: auto`, `eps_tol` 1e-3,
    `max_order` 9 and 32 targets up to 0.4h. At some curvatures order 9 does
    not meet the residual tolerance at 0.4h (the command exits 0 with an order
    warning) or a target lies beyond the validity radius (exit 3). Why is not
    established; many of these designs lie near an integer frequency ratio
    omega_k / omega_1, but so do some designs that pass. `make_refs.py` finds
    those designs once and they are left out. A command costs 0.9-2.8 s
    depending on the design, and no cheap measure ranks designs by cost well
    enough, so the batch's designs do not depend on the seed: they are spread
    evenly over the designs that meet the tolerance, in (a1, a2) order.

    optimize: the two-mass chain tailored to a seeded frequency shift, with
    the adjoint method.

    The seed draws the optimize targets and the order of the pairs.
    """

    name = "cli_batch"
    # nominal seconds of one backbone command plus one optimize command
    op_seconds = 1.9

    def __init__(self, refs: dict | None = None):
        spec = models.VkBeamSpec()
        self.dof = models.vk_center_dof(spec)
        top = 0.4 * spec.thickness
        self.targets = [top * (k + 1) / BACKBONE_TARGETS for k in range(BACKBONE_TARGETS)]
        self.refs = load_refs()["cli_batch"] if refs is None else refs

    def backbone_config(self, a1: float, a2: float) -> dict:
        return {
            "command": "backbone",
            "model": {"type": "vk_beam", "a1": a1, "a2": a2},
            "backbone": {
                "dof": self.dof,
                "x_targets": self.targets,
                "order": "auto",
                "eps_tol": BACKBONE_EPS_TOL,
                "max_order": 9,
            },
        }

    def optimize_config(self, omega: float) -> dict:
        return {
            "command": "optimize",
            "model": CHAIN2 | {"params": ["k3"]},
            "optimize": {
                "objective": {"type": "constant"},
                "bounds": {"lower": [-1.0], "upper": [1.0]},
                "constraints": [
                    {"type": "backbone", "dof": TAILOR_DOF, "x": TAILOR_X, "omega": omega}
                ],
                "tolerances": {"constraint_tol": 1e-8, "max_iter": 50, "eps_tol": 1e-2},
                "method": "adjoint",
            },
        }

    def inputs(self, seed: int, seconds: float) -> list[tuple]:
        """("backbone", (a1, a2)) and ("optimize", shift) items."""
        n = batch_size(seconds, self.op_seconds)
        designs = sorted(
            (d["a1"], d["a2"])
            for d in self.refs["designs"]
            if d["exit_code"] == 0 and d["epsilon"] <= BACKBONE_EPS_MARGIN * BACKBONE_EPS_TOL
        )
        curves = [designs[int((k + 0.5) * len(designs) / n)] for k in range(n)]
        lo, hi = TAILOR_SHIFT
        rng = np.random.default_rng(seed)
        shifts = [float(lo + (hi - lo) * u) for u in strata(rng, n)]
        items = []
        for k in rng.permutation(n):
            items += [("backbone", curves[k]), ("optimize", shifts[k])]
        return items

    def setup(self, items: list, workdir: Path) -> CliState:
        """The start design's backbone frequency, then one config file per command."""
        omega0, nominal = chain2_backbone(CHAIN2["k3"], TAILOR_ORDER)
        paths = []
        for i, (command, arg) in enumerate(items):
            if command == "backbone":
                cfg = self.backbone_config(*arg)
            else:
                cfg = self.optimize_config(arg * nominal)
            path = workdir / f"config_{i}.json"
            path.write_text(json.dumps(cfg))
            paths.append(path)
        return CliState(items, paths, workdir, omega0, nominal)

    def run(self, state: CliState, i: int):
        outdir = state.workdir / f"out_{i}"
        command = state.items[i][0]
        rc = run_cli([command, "--config", str(state.configs[i]), "--out", str(outdir)])
        return rc, outdir

    def check(self, state: CliState, i: int, result) -> str | None:
        command, arg = state.items[i]
        rc, outdir = result
        if rc != 0:
            return f"{command} {arg}: exit code {rc}"
        if command == "backbone":
            report = json.loads((outdir / "error_report.json").read_text())
            if not report["epsilon"] <= BACKBONE_EPS_TOL:
                return f"backbone {arg}: epsilon {report['epsilon']:.3e} > {BACKBONE_EPS_TOL}"
            rows = (outdir / "backbone.csv").read_text().split()[1:]
            if [float(row.split(",")[2]) for row in rows] != self.targets:
                return f"backbone {arg}: backbone.csv amplitudes differ from the targets"
            return None
        return self.check_optimize(state, arg * state.nominal, outdir)

    def check_optimize(self, state: CliState, target: float, outdir: Path) -> str | None:
        """The criterion-7 conditions, and the target met again by a fresh
        expansion of the returned design at the order the solve ended with."""
        summary = json.loads((outdir / "summary.json").read_text())
        rows = (outdir / "trace.csv").read_text().split()
        last = dict(zip(rows[0].split(","), rows[-1].split(",")))
        if not summary["converged"]:
            return f"optimize {target}: not converged: {summary['message']}"
        viol = float(last["max_violation"]) / state.omega0
        if not viol <= 1e-6:
            return f"optimize {target}: constraint violation {viol:.3e} > 1e-6 relative"
        (k3,) = summary["mu_star"]
        if not -1.0 <= k3 <= 1.0:
            return f"optimize {target}: k3 = {k3} out of bounds"
        _, omega = chain2_backbone(k3, int(last["order"]))
        miss = abs(omega - target) / state.omega0
        if not miss <= 1e-6:
            return f"optimize {target}: backbone at k3* misses the target by {miss:.3e} relative"
        return None


WORKLOADS = {w.name: w for w in (BeamTailor, BeamSens, ChainSens, CliBatch)}
