"""Span recorder for the traced benchmark run, kept outside the package.

`Tracer.install` (or `with tracer:`) wraps the public entry points of each
ssmopt module, and `uninstall` restores them. A wrapper replaces the original
function object in every `ssmopt.*` namespace that holds it, which covers
`from .x import y` importers and same-module callers (`rho_of_x` -> `x_rms`,
`evaluate` -> `compute_ssm`). Each call
records one span: name, start, end, parent span and the exception class it
raised, if any. Spans stay in memory until `write_spans`.

`layer_metrics` turns the spans into the per-layer metrics: `.calls`, `.s`
(inclusive time) and `.self_s` (time minus the time of child spans) per
function, plus counters and ratios. `<module>.share` is the module's self
time over the traced wall time.
"""

from __future__ import annotations

import csv
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in every traced run. mechmodel and
# multiindex are too fine-grained to wrap; their time lands in their callers.
TRACED = (
    ("models", "build_vk_beam"),
    ("models", "build_chain"),
    ("models", "chain_per_spring_k3"),
    ("spectral", "solve_master"),
    ("spectral", "track_mode"),
    ("ssm", "compute_ssm"),
    ("ssm", "invariance_residual"),
    ("ssm", "adapt_order"),
    ("backbone", "rho_of_x"),
    ("backbone", "x_rms"),
    ("backbone", "omega_of_rho"),
    ("sens_adjoint", "solve_adjoint"),
    ("sens_adjoint", "contract_gradient"),
    ("sens_direct", "chain_derivatives"),
    ("optimizer", "solve"),
    ("optimizer", "evaluate"),
    ("cli", "main"),
    ("config", "load_config"),
    ("config", "resolve_model"),
)

LAYERS = (
    "models",
    "spectral",
    "ssm",
    "backbone",
    "sens_adjoint",
    "sens_direct",
    "optimizer",
    "cli",
    "config",
)

# metric -> unit; every traced run reports all of them, zero where unused
METRIC_UNITS = {
    "models.build_vk_beam.calls": "count",
    "models.build_vk_beam.self_s": "s",
    "models.build_chain.s": "s",
    "models.chain_per_spring_k3.s": "s",
    "spectral.solve_master.s": "s",
    "spectral.track_mode.calls": "count",
    "spectral.track_mode.s": "s",
    "ssm.compute_ssm.calls": "count",
    "ssm.compute_ssm.self_s": "s",
    "ssm.n_solves": "count",
    "ssm.invariance_residual.calls": "count",
    "ssm.invariance_residual.s": "s",
    "ssm.adapt_order.s": "s",
    "backbone.rho_of_x.calls": "count",
    "backbone.rho_of_x.self_s": "s",
    "backbone.rho_of_x.unreachable": "count",
    "backbone.x_rms.calls": "count",
    "backbone.x_rms_per_inversion": "ratio",
    "backbone.omega_of_rho.calls": "count",
    "sens_adjoint.solve_adjoint.calls": "count",
    "sens_adjoint.solve_adjoint.s": "s",
    "sens_adjoint.contract_gradient.calls": "count",
    "sens_adjoint.contract_gradient.s": "s",
    "sens_direct.chain_derivatives.calls": "count",
    "sens_direct.chain_derivatives.s": "s",
    "optimizer.solve.self_s": "s",
    "optimizer.evaluate.calls": "count",
    "optimizer.iterations": "count",
    "optimizer.accept_ratio": "ratio",
    "optimizer.final_order": "count",
    "cli.main.calls": "count",
    "cli.main.s": "s",
    "config.load_config.s": "s",
    "config.resolve_model.s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}


def _ssmopt_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "ssmopt"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, error class]
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._plan: list[tuple] = []  # (module, attribute, original, wrapper)

    def install(self):
        if not self._plan:
            modules = _ssmopt_modules()
            for mod_name, fn_name in TRACED:
                original = getattr(sys.modules[f"ssmopt.{mod_name}"], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                self._plan += [
                    (module, attr, original, wrapper)
                    for module in modules
                    for attr, value in vars(module).items()
                    if value is original
                ]
        for module, attr, _, wrapper in self._plan:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._plan:
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open
        counters = self.counters
        before = after = None
        if name == "ssm.compute_ssm":
            # SsmExpansion.n_solves counts resonant solves; an extended
            # expansion is passed in and returned, so count the delta
            def before(args, kwargs):
                base = kwargs.get("from_expansion", args[3] if len(args) > 3 else None)
                return 0 if base is None else base.n_solves

            def after(start, exp):
                counters["ssm.n_solves"] += exp.n_solves - start

        elif name == "optimizer.solve":

            def after(_, result):
                counters["optimizer.iterations"] += result.iterations
                if result.trace:
                    counters["optimizer.final_order"] = result.trace[-1].order

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, ""]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after:
                after(token, result)
            return result

        return traced

    def layer_metrics(self, traced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics over every span recorded; `traced_wall_s` is the
        wall time the spans were recorded in."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        unreachable = 0
        for (name, start, end, _, error), child in zip(self.spans, child_s):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child
            if name == "backbone.rho_of_x" and error == "AmplitudeUnreachableError":
                unreachable += 1

        out: dict[str, float] = {}
        for metric in METRIC_UNITS:
            fn, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls[fn]
            elif stat == "s":
                out[metric] = total[fn]
            elif stat == "self_s":
                out[metric] = own[fn]
        for layer in LAYERS:
            layer_self = sum(s for fn, s in own.items() if fn.startswith(layer + "."))
            out[f"{layer}.share"] = layer_self / traced_wall_s
        for counter in ("ssm.n_solves", "optimizer.iterations", "optimizer.final_order"):
            out[counter] = self.counters[counter]
        out["backbone.rho_of_x.unreachable"] = unreachable
        inversions = calls["backbone.rho_of_x"]
        out["backbone.x_rms_per_inversion"] = (
            calls["backbone.x_rms"] / inversions if inversions else 0.0
        )
        evaluations = calls["optimizer.evaluate"]
        out["optimizer.accept_ratio"] = (
            self.counters["optimizer.iterations"] / evaluations if evaluations else 0.0
        )
        return out

    def write_spans(self, path):
        """One CSV row per span; times are perf_counter seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "error"])
            for i, (name, start, end, parent, error) in enumerate(self.spans):
                writer.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, error])
