"""Batch command-line front-end.

Subcommands: backbone, sens, verify, optimize, bench. Everything but paths
and small overrides lives in a JSON config for reproducible runs. Exit codes:
0 success, 1 config/schema error, 2 model error, 3 expansion/sensitivity
error, 4 verification or convergence failure.

`sens`, `bench` and `--method` take the gradient methods from
`optimizer.GRADIENTS`. `main` first sets one BLAS thread
(`blas.one_blas_thread`), so a command writes the same numbers on every host.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .backbone import (
    backbone_to_csv,
    omega_of_rho,
    rho_of_x,
    sample_backbone,
    x_rms,
    x_theta_samples,
)
from .blas import one_blas_thread
from .config import load_config, resolve_design, resolve_model
from .errors import ConfigError, ModelError, SsmError, SsmOptError
from .fdcheck import backbone_response, fd_gradient
from .models import ChainSpec, build_chain, chain_per_spring_k3
from .optimizer import (
    GRADIENTS,
    BackboneTarget,
    EigfreqTarget,
    OptProblem,
    OptTolerances,
    solve,
    trace_to_csv,
)
from .spectral import mac, solve_master
from .ssm import (
    RESIDUAL_THETA_SAMPLES,
    adapt_order,
    compute_ssm,
    dump_expansion,
)

EXIT_CONFIG = 1
EXIT_MODEL = 2
EXIT_SSM = 3
EXIT_FAILED = 4

BACKBONE_DEFAULTS = {"order": "auto", "max_order": 13, "eps_tol": 1e-3, "mode": 0}
SENS_DEFAULTS = {"order": 5, "mode": 0, "methods": ["adjoint"]}


def _write(outdir: Path, name: str, text: str):
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(text)
    print(f"wrote {outdir / name}")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _check_block(name: str, value: dict, n_dof: int) -> None:
    """Reject, naming the field, a `dof` or `mode` of a block that the model
    does not have; runs before any computation. Every rule that does not
    depend on the model is the schema's (config.CONFIG_SCHEMA)."""
    for field in ("dof", "mode"):
        if field in value and value[field] >= n_dof:
            raise ConfigError(
                f"{name}.{field} = {value[field]} is out of range for a model with {n_dof} DOFs"
            )


def _resolve_design(cfg: dict, command: str):
    """resolve_design of the config's model, which must have design parameters."""
    names, mu0, builder = resolve_design(cfg["model"])
    if not names:
        raise ConfigError(
            f"{command} needs design parameters: a chain or vk_beam model with non-empty params"
        )
    return names, mu0, builder


def cmd_backbone(cfg: dict, outdir: Path) -> int:
    model = resolve_model(cfg["model"])
    block = BACKBONE_DEFAULTS | cfg["backbone"]
    _check_block("backbone", block, model.n)
    master = solve_master(model, block["mode"])
    # a fixed order is the range of that one order
    dof, x_max, order = block["dof"], max(block["x_targets"]), block["order"]
    result = adapt_order(
        model,
        master,
        tol=block["eps_tol"],
        rho_at=lambda e: rho_of_x(e, dof, x_max),
        order_range=(3, block["max_order"]) if order == "auto" else (order, order),
    )
    exp, err = result.expansion, result.error

    curve = sample_backbone(exp, dof, block["x_targets"])
    _write(outdir, "backbone.csv", backbone_to_csv(curve))
    # compact: with an indent, json falls back to its pure-Python encoder
    _write(outdir, "expansion.json", json.dumps(dump_expansion(exp), sort_keys=True) + "\n")
    _write(
        outdir,
        "error_report.json",
        _json_dumps(
            {
                "epsilon": err.epsilon,
                "rho_max": err.rho_max,
                "theta_samples": RESIDUAL_THETA_SAMPLES,
                "order": exp.order,
                "order_warning": result.warned,
                "xi": exp.master.xi,
                "monotone": curve.monotone,
            }
        ),
    )
    if not curve.monotone:
        print("warning: sampled amplitude-frequency curve is not monotone in rho")
    return 0


def cmd_sens(cfg: dict, outdir: Path, verify_fd: bool) -> int:
    _, mu0, builder = _resolve_design(cfg, "sens")
    model, params = builder(mu0)
    block = SENS_DEFAULTS | cfg["sens"]
    _check_block("sens", block, model.n)
    master = solve_master(model, block["mode"])
    order, dof, x0 = block["order"], block["dof"], block["x0"]
    exp = compute_ssm(model, master, order)
    rho = rho_of_x(exp, dof, x0)

    results = {}
    for method in block["methods"]:
        t0 = time.perf_counter()
        grads = GRADIENTS[method](model, exp, params, dof, rho)
        dt = time.perf_counter() - t0
        report = {
            "method": method,
            "order": order,
            "x0": x0,
            "rho": rho,
            "seconds": dt,
            "gradients": [
                {"param": nm, "dOmega": float(v)}
                for nm, v in zip(params.names, grads)
            ],
        }
        results[method] = grads
        _write(outdir, f"sens_{method}.json", _json_dumps(report))

    if verify_fd:
        fd = fd_gradient(
            lambda mu: backbone_response(
                lambda m: builder(m)[0],
                mu,
                x0=x0,
                dof_index=dof,
                order=order,
                reference=master.phi,
            ),
            mu0,
        )
        # normwise: a vanishing derivative would turn central-FD noise into
        # a componentwise error near 1 however well the gradients agree
        block_out = {"fd": fd.tolist()}
        fd_scale = max(float(np.max(np.abs(fd))), 1e-300)
        for method, grads in results.items():
            block_out[f"max_rel_err_{method}"] = float(np.max(np.abs(grads - fd))) / fd_scale
        _write(outdir, "sens_fd_check.json", _json_dumps(block_out))
    return 0


def cmd_optimize(cfg: dict, outdir: Path, method_override: str | None) -> int:
    block = cfg["optimize"]
    names, mu0, build = _resolve_design(cfg, "optimize")
    tol = OptTolerances(**block.get("tolerances", {}))

    def builder(mu):
        # the start model, which the optimizer builds first, gives the DOF
        # count: the block is checked before any expansion, at no extra
        # assembly
        model, params = build(mu)
        _check_block("optimize", block, model.n)
        for i, c in enumerate(block["constraints"]):
            _check_block(f"optimize.constraints[{i}]", c, model.n)
        return model, params

    if "mu0" in block:
        mu0 = np.asarray(block["mu0"], dtype=float)
    lower = np.asarray(block["bounds"]["lower"], dtype=float)
    upper = np.asarray(block["bounds"]["upper"], dtype=float)
    bb = tuple(
        BackboneTarget(c["dof"], c["x"], c["omega"])
        for c in block["constraints"]
        if c["type"] == "backbone"
    )
    ef = tuple(
        EigfreqTarget(c["mode"], c["omega"])
        for c in block["constraints"]
        if c["type"] == "eigfreq"
    )
    problem = OptProblem(
        builder=builder,
        names=names,
        mu0=mu0,
        lower=lower,
        upper=upper,
        objective=block["objective"],
        backbone_targets=bb,
        eigfreq_targets=ef,
        tolerances=tol,
        mode_index=block.get("mode", 0),
    )
    method = method_override or block.get("method", "adjoint")
    result = solve(problem, method=method)
    _write(outdir, "trace.csv", trace_to_csv(result.trace))
    _write(
        outdir,
        "summary.json",
        _json_dumps(
            {
                "converged": result.converged,
                "iterations": result.iterations,
                "message": result.message,
                "mu_star": result.mu_star.tolist(),
                "names": list(names),
                "objective": result.objective,
                "omega_ref": result.omega_ref,
                "stationarity": result.stationarity,
                "seconds": result.seconds,
                "method": method,
            }
        ),
    )
    if not result.converged:
        print(f"optimization did not converge: {result.message}")
        return EXIT_FAILED
    return 0


def cmd_bench(cfg: dict, outdir: Path) -> int:
    block = cfg.get("bench", {})
    n_masses = block.get("n_masses", 101)
    param_counts = block.get("param_counts", [1, 10, 100])
    orders = block.get("orders", [3, 5, 7])
    x0 = block.get("x0", 0.05)
    repeats = block.get("repeats", 3)

    spec = ChainSpec(n_masses=n_masses, alpha_r=0.0, beta_r=0.02)
    model, _ = build_chain(spec)
    master = solve_master(model, 0)
    rows = ["method,order,nparams,seconds"]
    for order in orders:
        primal = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            compute_ssm(model, master, order)
            primal = min(primal, time.perf_counter() - t0)
        rows.append(f"primal,{order},0,{primal:.6e}")
        print(rows[-1])
        for count in param_counts:
            best = {"direct": np.inf, "adjoint": np.inf}
            for _ in range(repeats):
                for method in best:
                    # a new expansion and ParamDerivatives, built outside the
                    # timer: the expansion keeps what a first call builds
                    exp = compute_ssm(model, master, order)
                    params = chain_per_spring_k3(spec, count)
                    rho = rho_of_x(exp, n_masses - 1, x0)
                    t0 = time.perf_counter()
                    GRADIENTS[method](model, exp, params, n_masses - 1, rho)
                    best[method] = min(best[method], time.perf_counter() - t0)
            for method in best:
                rows.append(f"{method},{order},{count},{best[method]:.6e}")
                print(rows[-1])
    _write(outdir, "bench.csv", "\n".join(rows) + "\n")
    return 0


def cmd_verify(cfg: dict | None, outdir: Path) -> int:
    """Structural-invariant suite; prints one pass/fail line per invariant."""
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
        failures += 0 if ok else 1

    model, _ = build_chain(ChainSpec())
    master = solve_master(model, 0)
    exp = compute_ssm(model, master, 7)

    worst = 0.0
    for m, rec in exp.data.items():
        q = m[0] + m[1]
        if q >= 2 and q % 2 == 0:
            worst = max(worst, float(np.abs(rec.R).max()))
    check("even-order reduced coefficients identically zero", worst == 0.0, f"max |R| = {worst:.1e}")

    om0 = omega_of_rho(exp, 0.0)
    check(
        "backbone at zero amplitude equals the damped frequency",
        om0 == master.omega_d,
        f"Omega(0)={om0!r}, omega_d={master.omega_d!r}",
    )

    rho = 0.3
    x = x_rms(exp, 1, rho)
    dev = max(
        abs(x - float(np.sqrt(np.mean(x_theta_samples(exp, 1, rho, n) ** 2))))
        for n in (64, 128)
    )
    check(
        "closed-form RMS amplitude equals the theta-grid RMS at 64 and 128 points",
        dev <= 1e-12 * max(x, 1.0),
        f"max |x - x_grid| = {dev:.2e}",
    )

    rng = np.random.default_rng(42)
    ok = True
    for _ in range(20):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        s = rng.uniform(0.1, 10.0) * np.sign(rng.normal())
        if abs(mac(a, b) - mac(s * a, b)) > 1e-12:
            ok = False
    check("MAC is invariant under nonzero scaling", ok)

    print(f"{failures} failures")
    return 0 if failures == 0 else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ssmopt",
        description="Backbone curves and backbone tailoring via 2D SSM reduction",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, needs_config in (
        ("backbone", True),
        ("sens", True),
        ("optimize", True),
        ("bench", False),
        ("verify", False),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=needs_config, help="JSON run configuration")
        sp.add_argument("--out", default="out", help="output directory")
        if name == "sens":
            sp.add_argument(
                "--verify-fd",
                action="store_true",
                help="add a central finite-difference verification block",
            )
        if name == "backbone":
            sp.add_argument("--order", help="expansion order (odd integer or 'auto')")
            sp.add_argument("--eps-tol", type=float, help="residual tolerance for 'auto'")
        if name == "optimize":
            sp.add_argument("--method", choices=list(GRADIENTS))
    return p


def _parse_order(text: str):
    """--order as the config holds it: an integer or "auto"; the schema
    checks its range."""
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"--order must be an odd integer or 'auto', got {text!r}") from None


def _overrides(args) -> dict:
    """The command-line options that replace config values, by block."""
    values = {}
    if getattr(args, "order", None) is not None:
        values["order"] = _parse_order(args.order)
    if getattr(args, "eps_tol", None) is not None:
        values["eps_tol"] = args.eps_tol
    return {"backbone": values}


def main(argv=None) -> int:
    one_blas_thread()  # the same numbers on every host
    args = build_parser().parse_args(argv)
    outdir = Path(args.out)
    try:
        cfg = None
        if getattr(args, "config", None):
            cfg = load_config(args.config, args.command, _overrides(args))
        if args.command == "backbone":
            return cmd_backbone(cfg, outdir)
        if args.command == "sens":
            return cmd_sens(cfg, outdir, args.verify_fd)
        if args.command == "optimize":
            return cmd_optimize(cfg, outdir, args.method)
        if args.command == "bench":
            return cmd_bench(cfg or {}, outdir)
        if args.command == "verify":
            return cmd_verify(cfg, outdir)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as e:
        print(f"model error: {e}", file=sys.stderr)
        return EXIT_MODEL
    except SsmError as e:
        print(f"computation error: {e}", file=sys.stderr)
        return EXIT_SSM
    except SsmOptError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
