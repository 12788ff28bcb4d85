"""In-memory span tracer over the package's public functions.

Each traced function is replaced, in every ``choimarg`` module that holds a
reference to it, by a wrapper that records a span (name, start, end, parent
span, operation id). Patching every binding matters: ``marginals`` calls its
own imported ``hermitian_feasibility`` and ``embed``, so patching only
``choimarg.sdp`` or ``choimarg.linalg`` would miss those calls. A target that
no longer exists is listed in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

DEFAULT_BAND = 1e-7
"""The package's documented default half-width of the marginal band (CLI ``--eps``)."""

# span name -> (defining module, attribute)
TARGETS = {
    "sdp.solve": ("choimarg.sdp", "solve"),
    "sdp.hermitian_feasibility": ("choimarg.sdp", "hermitian_feasibility"),
    "marginals.marginal_feasibility": ("choimarg.marginals", "marginal_feasibility"),
    "marginals.channels_compatible": ("choimarg.marginals", "channels_compatible"),
    "marginals.state_steerable": ("choimarg.marginals", "state_steerable"),
    "marginals.bell_local": ("choimarg.marginals", "bell_local"),
    "marginals.effects_compatible": ("choimarg.marginals", "effects_compatible"),
    "linalg.embed": ("choimarg.linalg", "embed"),
    "linalg.hermitian_product_basis": ("choimarg.linalg", "hermitian_product_basis"),
    "linalg.partial_trace": ("choimarg.linalg", "partial_trace"),
    "linalg.realify": ("choimarg.linalg", "realify"),
    "linalg.derealify": ("choimarg.linalg", "derealify"),
    "channels.unitary_channel": ("choimarg.channels", "unitary_channel"),
    "channels.tensor": ("choimarg.channels", "tensor"),
    "channels.apply": ("choimarg.channels", "apply"),
    "channels.depolarizing_channel": ("choimarg.channels", "depolarizing_channel"),
    "chsh.chsh_scan": ("choimarg.chsh", "chsh_scan"),
    "chsh.chsh_value": ("choimarg.chsh", "chsh_value"),
    "chsh.correlation": ("choimarg.chsh", "correlation"),
    "cli.main": ("choimarg.cli", "main"),
    "presets.compat_preset": ("choimarg.presets", "compat_preset"),
    "presets.steer_preset": ("choimarg.presets", "steer_preset"),
    "presets.bell_preset": ("choimarg.presets", "bell_preset"),
    "sampling.random_unitary": ("choimarg.sampling", "random_unitary"),
    "sampling.random_channel": ("choimarg.sampling", "random_channel"),
}

PER_LAYER = (
    "sdp.solve.self_s", "sdp.solve.calls", "sdp.solve.iterations", "sdp.solve.per_iter_s",
    "sdp.solve.n", "sdp.solve.m", "sdp.solve.m_kept", "sdp.solve.nonoptimal",
    "sdp.hermitian_feasibility.self_s", "sdp.band_hits", "sdp.band_resolved_ratio",
    "marginals.self_s", "marginals.rows",
    "linalg.embed.calls", "linalg.embed.self_s", "linalg.hermitian_product_basis.self_s",
    "linalg.partial_trace.self_s", "linalg.realify.calls", "linalg.realify.self_s",
    "linalg.derealify.self_s",
    "channels.unitary_channel.calls", "channels.unitary_channel.self_s",
    "channels.tensor.calls", "channels.tensor.self_s",
    "channels.apply.calls", "channels.apply.self_s", "channels.depolarizing_channel.self_s",
    "chsh.chsh_scan.self_s", "chsh.chsh_value.self_s",
    "chsh.correlation.calls", "chsh.correlation.self_s",
    "cli.main.calls", "cli.main.self_s", "presets.self_s", "sampling.self_s",
    "op.mean_s", "trace.overhead_s",
)


_COUNTS = (".calls", ".iterations", ".n", ".m", ".m_kept", ".nonoptimal", ".rows", ".band_hits")


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name.endswith(_COUNTS):
        return "count"
    return "ratio" if name.endswith("_ratio") else "s"


def solve_stats(solution) -> dict:
    """Size, iterations, status and slack of one ``SdpSolution``.

    n is the total (real) block dimension, m the number of constraint rows
    and m_kept the support of the dual vector, which is zero on pruned rows.
    """
    dual = np.asarray(solution.dual)
    return {
        "iterations": int(solution.iterations),
        "n": int(sum(np.shape(b)[0] for b in solution.blocks)),
        "m": int(dual.size),
        "m_kept": int(np.count_nonzero(dual)),
        "status": str(solution.status),
        "slack": None if solution.free_value is None else float(solution.free_value),
    }


class Tracer:
    """Records spans while installed; ``op`` tags spans with the running operation.

    A span is [name, start, end, parent index or -1, op, time in child spans].
    The traced calls run one after another on one thread, so a span's children
    never overlap and its self time is its duration minus their total.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.solves: list[dict] = []
        self.feasibility: list[dict] = []
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "sdp.solve": self._on_solve,
            "sdp.hermitian_feasibility": self._on_feasibility,
        }

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "choimarg" or k.startswith("choimarg.")]
        self.absent = []
        for name, (modname, attr) in TARGETS.items():
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            for site in modules:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, self._wrap(name, original, site.__name__))
                        self._patches.append((site, key, original))

    def uninstall(self) -> None:
        while self._patches:
            site, key, original = self._patches.pop()
            setattr(site, key, original)

    def _wrap(self, name, fn, site):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if span[3] >= 0:
                    spans[span[3]][5] += span[2] - span[1]
            if hook is not None:
                hook(site, args, kwargs, result, span)
            return result

        return wrapper

    def _on_solve(self, site, args, kwargs, solution, span) -> None:
        self.solves.append({"op": self.op, "wall_s": span[2] - span[1], **solve_stats(solution)})

    def _on_feasibility(self, site, args, kwargs, report, span) -> None:
        rows = args[1] if len(args) > 1 else kwargs.get("rows", ())
        band = kwargs.get("band")
        if band is None:
            band = getattr(kwargs.get("tol"), "band", DEFAULT_BAND)
        in_band = abs(float(report.slack)) < band
        self.feasibility.append({
            "op": self.op,
            "site": site,
            "rows": len(rows),
            "in_band": in_band,
            "resolved": in_band and report.status == "feasible",
        })

    def self_times(self) -> list[float]:
        """Self time of each span, aligned with ``spans``."""
        return [end - start - child for _name, start, end, _parent, _op, child in self.spans]

    def layer_metrics(self, ops: int, op_latencies: list[float], overhead_s: float) -> dict:
        """Per-layer metrics of the traced operations (spans with op >= 0).

        Times and counts are per operation; iterations, n, m and m_kept are
        means per solve; sampling.self_s is the set-up's total.
        """
        selfs = self.self_times()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        sampling = 0.0
        for span, own in zip(self.spans, selfs):
            name = span[0]
            if span[4] < 0:
                if name.startswith("sampling."):
                    sampling += own
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own

        def per_op(x: float) -> float:
            return x / ops

        def layer_self(prefix: str) -> float:
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        solves = [s for s in self.solves if s["op"] >= 0]
        iters = sum(s["iterations"] for s in solves)
        feas = [f for f in self.feasibility if f["op"] >= 0]
        hits = sum(f["in_band"] for f in feas)

        def per_solve(key: str) -> float:
            return sum(s[key] for s in solves) / len(solves) if solves else 0.0

        m = {
            "sdp.solve.self_s": per_op(self_s.get("sdp.solve", 0.0)),
            "sdp.solve.calls": per_op(calls.get("sdp.solve", 0)),
            "sdp.solve.iterations": per_solve("iterations"),
            "sdp.solve.per_iter_s": self_s.get("sdp.solve", 0.0) / iters if iters else 0.0,
            "sdp.solve.n": per_solve("n"),
            "sdp.solve.m": per_solve("m"),
            "sdp.solve.m_kept": per_solve("m_kept"),
            "sdp.solve.nonoptimal": per_op(sum(s["status"] != "optimal" for s in solves)),
            "sdp.band_hits": per_op(hits),
            "sdp.band_resolved_ratio": sum(f["resolved"] for f in feas) / hits if hits else 0.0,
            "marginals.self_s": per_op(layer_self("marginals.")),
            "marginals.rows": per_op(
                sum(f["rows"] for f in feas if f["site"] == "choimarg.marginals")
            ),
            "presets.self_s": per_op(layer_self("presets.")),
            "sampling.self_s": sampling,
            "op.mean_s": sum(op_latencies) / len(op_latencies),
            "trace.overhead_s": overhead_s,
        }
        for name in PER_LAYER:
            if name in m:
                continue
            span_name, kind = name.rsplit(".", 1)
            m[name] = per_op(calls.get(span_name, 0) if kind == "calls" else self_s.get(span_name, 0.0))
        return {name: m[name] for name in PER_LAYER}
