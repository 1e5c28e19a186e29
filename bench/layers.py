"""Per-layer metrics for the traced run.

Layers are the modules of ``src/ghm``.  Each metric comes from spans
recorded around one public call, made by this file on the workload's own
inputs: its systems (built-in, config-loaded or random), a subsample of its
trajectory states or sampled check points, and its systems' expressions
(``probe`` says how the spans are reduced).  Where a workload has no object
of the kind a call needs (a flattening problem, a JSON config, a ``ghm
solve`` call), the call runs on the smallest one the benchmark has:
``moser1``, ``configs/oscillator_form.json``, and ``ghm solve`` on the
workload's systems at its points.  Spans inside ``src/ghm`` are not
recorded.
"""

from __future__ import annotations

import dataclasses
import io
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

import numpy as np

import reference as ref
from harness import run_cli

CONFIGS = Path(__file__).resolve().parent / "configs"
DT = 1e-4  # probe integrations: step cost does not depend on dt, box exits do
US, MS = 1e6, 1e3
PASSES = 3

# name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "expr.parse_us": "us",
    "expr.differentiate_us": "us",
    "expr.compile_us": "us",
    "expr.evaluate_us": "us",
    "expr.compiled_eval_us": "us",
    "expr.tree_nodes": "count",
    "expr.dag_nodes": "count",
    "exterior.field_at_us": "us",
    "exterior.exterior_derivative_ms": "ms",
    "exterior.interior_field_ms": "ms",
    "exterior.lie_derivative_ms": "ms",
    "exterior.point_jacobian_us": "us",
    "exterior.pullback_us": "us",
    "hdw.assemble_us": "us",
    "hdw.lstsq_us": "us",
    "hdw.solve_us": "us",
    "identities.closure_us": "us",
    "identities.jacobi_us": "us",
    "identities.fi_us": "us",
    "identities.measure_us": "us",
    "structure.build_w_from_omega_ms": "ms",
    "structure.reduce_k_to_2_ms": "ms",
    "dynamics.rk4_tensor_step_us": "us",
    "dynamics.rk4_form_step_us": "us",
    "dynamics.rkf45_step_us": "us",
    "dynamics.divergence_tensor_us": "us",
    "dynamics.divergence_form_us": "us",
    "dynamics.flatten_closed_us": "us",
    "dynamics.flatten_numeric_us": "us",
    "systems.build_ms.oscillator": "ms",
    "systems.build_ms.fourdim": "ms",
    "systems.build_ms.quasisymmetry": "ms",
    "systems.build_ms.flat_nambu": "ms",
    "cli.csv_us_per_row": "us",
    "cli.load_config_ms": "ms",
    "cli.solve_ms_p95": "ms",
    "trace.overhead_pct": "%",
}


@dataclasses.dataclass
class ProbeSet:
    """A workload's inputs for the layer probe (see the module docstring for
    what stands in for ``None``)."""

    systems: list[tuple[Any, list[tuple[float, ...]]]]
    moser: list[tuple[Any, list[tuple[float, ...]]]] | None = None
    configs: list[str] | None = None
    solve_argvs: list[list[str]] | None = None


class _Probe:
    def __init__(self, tracer):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)  # of the current pass

    def call(self, span: str, fn, *args, **kwargs):
        with self.tracer.span(span):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        return out, dt

    def timed(self, metric: str, span: str, scale: float, fn, *args, per: int = 1, **kwargs):
        out, dt = self.call(span, fn, *args, **kwargs)
        self.add(metric, dt * scale / per)
        return out

    def add(self, metric: str, value: float):
        self.samples[metric].append(value)


def _spread(items: list, count: int) -> list:
    if len(items) <= count:
        return list(items)
    return [items[i] for i in np.linspace(0, len(items) - 1, count).astype(int)]


def node_counts(exprs, expr_module) -> tuple[int, int]:
    """(tree nodes, structurally unique nodes) over ``exprs``, walking the
    public node dataclasses.  Tree sizes are memoized per object and unique
    nodes are interned bottom-up, so shared subtrees cost one visit."""
    tree_size: dict[int, int] = {}
    canon: dict[int, int] = {}
    intern: dict[tuple, int] = {}

    def walk(e) -> tuple[int, int]:
        key = id(e)
        if key in canon:
            return canon[key], tree_size[key]
        size, parts = 1, [type(e).__name__]
        for f in dataclasses.fields(e):
            v = getattr(e, f.name)
            if isinstance(v, expr_module.Expr):
                cid, s = walk(v)
                size += s
                parts.append(("node", cid))
            else:
                parts.append(("value", v))
        cid = intern.setdefault(tuple(parts), len(intern))
        canon[key], tree_size[key] = cid, size
        return cid, size

    return sum(walk(e)[1] for e in exprs), len(intern)


def _probe_system(g, P: _Probe, s, pts) -> tuple[int, int] | None:
    ex = g.expr
    pts = pts[:6]
    hams = [h.expression for h in s.hamiltonians]
    coeffs = [*(s.form.coeffs.values() if s.form is not None else ()),
              *(s.tensor.coeffs.values() if s.tensor is not None else ())]
    eom, div, meas = [], [], []
    if s.tensor is not None:
        eom = list(s.bracket_field.components)
        div = [s.bracket_field.divergence_expr()]
        meas = list(g.identities.divergence_exprs(s.tensor, s.measure_weight).values())

    for e in hams + coeffs:
        P.timed("expr.parse_us", "expr.parse", US, ex.parse, ex.to_str(e), s.n)
    for e in _spread(hams + eom, 8):
        for axis in range(1, s.n + 1):
            P.timed("expr.differentiate_us", "expr.differentiate", US, ex.differentiate, e, axis)
    for e in _spread(eom + div + hams, 8):
        P.timed("expr.compile_us", "expr.compile_expr", US, ex.compile_expr, e)
    for e in _spread(eom + div + meas + hams, 12):
        for p in pts[:3]:
            P.timed("expr.evaluate_us", "expr.evaluate", US, ex.evaluate, e, p)
    if eom:
        f = ex.compile_vector(eom)
        for p in pts:
            P.timed("expr.compiled_eval_us", "expr.compiled_call", US, f, p)

    ext = g.exterior
    for field in (s.form, s.tensor):
        if field is not None:
            for p in pts:
                P.timed("exterior.field_at_us", "exterior.field_at", US, field.at, p)
    if s.form is not None:
        P.timed("exterior.exterior_derivative_ms", "exterior.exterior_derivative", MS,
                ext.exterior_derivative, s.form)
    if s.tensor is not None:
        P.timed("exterior.interior_field_ms", "exterior.interior_form_field", MS,
                ext.interior_form_field, ext.grad_field(s.hamiltonians[-1]), s.tensor)
        if s.form is not None:
            P.timed("exterior.interior_field_ms", "exterior.interior_vector_field", MS,
                    ext.interior_vector_field, s.bracket_field, s.form)

    if s.form is not None:
        sigma = s.sigma()
        for p in pts:
            hat = P.timed("hdw.assemble_us", "hdw.assemble_hatmap", US, g.hdw.assemble_hatmap,
                          s.form, p)
            S = sigma.at(p)
            b = -np.array([S.component(I) for I in hat.rows])
            P.timed("hdw.lstsq_us", "hdw.lstsq", US, np.linalg.lstsq, hat.matrix, b,
                    rcond=g.hdw.RCOND)
            P.timed("hdw.solve_us", "hdw.solve_hdw", US, g.hdw.solve_hdw, s.form, sigma, p)

    idn = g.identities
    if s.form is not None:
        P.timed("identities.closure_us", "identities.closure_residual", US,
                idn.closure_residual, s.form, pts, per=len(pts))
    J2 = s.reduced_tensor
    if J2 is None and s.tensor is not None and s.tensor.k == 3:
        # a degree-3 tensor with one Hamiltonian fixed is a Poisson bracket
        J2 = g.structure.reduce_k_to_2(s.tensor, [s.hamiltonians[0]])
    if J2 is not None and J2.k == 2:
        P.timed("identities.jacobi_us", "identities.jacobi_residual", US,
                idn.jacobi_residual, J2, pts, per=len(pts))
    if s.tensor is not None and s.tensor.k == 3:
        P.timed("identities.fi_us", "identities.fundamental_identity_residual", US,
                idn.fundamental_identity_residual, s.tensor, pts[:3], per=len(pts[:3]))
    if s.tensor is not None:
        weight = s.measure_weight if s.measure_weight is not None else 1.0
        P.timed("identities.measure_us", "identities.measure_residual", US,
                idn.measure_residual, s.tensor, weight, pts, per=len(pts))

    _probe_dynamics(g, P, s, pts)
    return node_counts(eom + div + meas, ex) if eom else None


def _steps(traj) -> int:
    return len(traj.times) - 1


def _probe_dynamics(g, P: _Probe, s, pts):
    # fresh specs per route: a spec's compiled equations are cached per object
    tensor = s if s.mode == "tensor" else (
        dataclasses.replace(s, mode="tensor") if s.tensor is not None else None)
    form = s if s.mode == "form" else (
        dataclasses.replace(s, mode="form") if s.form is not None else None)
    x0 = pts[0]
    if tensor is not None:
        g.integrate(tensor, x0, t_end=DT, dt=DT)  # compile outside the spans
        traj, dt = P.call("dynamics.integrate", g.integrate, tensor, x0, t_end=40 * DT, dt=DT)
        if _steps(traj):
            P.add("dynamics.rk4_tensor_step_us", dt * US / _steps(traj))
        traj, dt = P.call("dynamics.integrate", g.integrate, tensor, x0, t_end=0.05, dt=1e-3,
                          method="rkf45", reltol=1e-9)
        if _steps(traj):
            P.add("dynamics.rkf45_step_us", dt * US / _steps(traj))
        for p in pts:
            P.timed("dynamics.divergence_tensor_us", "dynamics.divergence", US,
                    g.divergence, tensor, p)
        traj = g.integrate(tensor, x0, t_end=300 * DT, dt=DT)
        P.timed("cli.csv_us_per_row", "cli.to_csv", US, traj.to_csv, io.StringIO(),
                per=len(traj.times))
    if form is not None:
        try:
            g.integrate(form, x0, t_end=DT, dt=DT)
        except g.IntegrationError:
            return  # a form route the program rejects has no step to time
        traj, dt = P.call("dynamics.integrate", g.integrate, form, x0, t_end=8 * DT, dt=DT)
        if _steps(traj):
            P.add("dynamics.rk4_form_step_us", dt * US / _steps(traj))
        for p in pts[:3]:
            P.timed("dynamics.divergence_form_us", "dynamics.divergence", US,
                    g.divergence, form, p)


def _probe_moser(g, P: _Probe, m, pts):
    ext = g.exterior
    P.timed("exterior.lie_derivative_ms", "exterior.lie_derivative", MS,
            ext.lie_derivative, m.X, m.w0)
    phi = m.flow(1.0)
    for p in pts:
        J = P.timed("exterior.point_jacobian_us", "exterior.point_jacobian", US, phi.jacobian, p)
        value = m.w.at(phi.at(p))
        P.timed("exterior.pullback_us", "exterior.pullback_with_jacobian", US,
                ext.pullback_with_jacobian, J, value)
    P.timed("dynamics.flatten_closed_us", "dynamics.verify_flattening", US,
            g.verify_flattening, m, 1.0, pts, per=len(pts))
    P.timed("dynamics.flatten_numeric_us", "dynamics.verify_flattening", US,
            g.verify_flattening, m, 1.0, pts[:1], flow="numeric")


def _probe_pass(g, P: _Probe, ps: ProbeSet) -> list[tuple[int, int]]:
    counts = [c for s, pts in ps.systems if (c := _probe_system(g, P, s, pts)) is not None]

    moser = ps.moser
    if moser is None:
        m = g.systems.build_moser("moser1")
        moser = [(m, [tuple(map(float, p)) for p in ref.sample_points(0, m.domain, 6)])]
    for m, pts in moser:
        _probe_moser(g, P, m, pts)

    osc = g.systems.oscillator()
    omega, G2, G = osc.extras["omega"], osc.invariants["G2"], osc.extras["G"]
    for _ in range(5):
        P.timed("structure.build_w_from_omega_ms", "structure.build_w_from_omega", MS,
                g.structure.build_w_from_omega, omega, [G2])
        P.timed("structure.reduce_k_to_2_ms", "structure.reduce_k_to_2", MS,
                g.structure.reduce_k_to_2, osc.tensor, [G])

    for name in sorted(g.systems.CATALOG):
        P.timed(f"systems.build_ms.{name}", "systems.build", MS, g.systems.build, name)
    for path in ps.configs or [str(CONFIGS / "oscillator_form.json")]:
        P.timed("cli.load_config_ms", "cli.load_config", MS, g.cli.load_config, path)
    return counts


def probe(g, tracer, ps: ProbeSet, timing) -> dict[str, tuple[float, str]]:
    """Time each layer's public calls on ``ps``; return metric -> (value, unit).

    A pass times every call once on the same inputs, and a metric's value in
    a pass is the mean over its spans: the inputs mix small and large
    expressions, and a median would jump between the two.  The value
    reported is the median over PASSES passes, which drops a pass the host
    slowed."""
    P = _Probe(tracer)
    per_pass: dict[str, list[float]] = defaultdict(list)
    for _ in range(PASSES):
        P.samples = defaultdict(list)
        counts = _probe_pass(g, P, ps)
        for name, values in P.samples.items():
            per_pass[name].append(statistics.fmean(values))
    values = {name: statistics.median(v) for name, v in per_pass.items()}

    for argv in ps.solve_argvs or ():
        with tracer.span("cli.solve"):
            run_cli(g.cli.main, argv)
    solve_ms = [d * MS for d in tracer.durations("cli.solve")]
    values["cli.solve_ms_p95"] = float(np.percentile(solve_ms, 95))
    # rounds in kernel units, so that the host's speed state cancels
    traced = statistics.median(timing.traced_round_units)
    plain = statistics.median(timing.round_units)
    values["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    values["expr.tree_nodes"] = statistics.median(c[0] for c in counts)
    values["expr.dag_nodes"] = statistics.median(c[1] for c in counts)

    missing = [name for name in METRICS if name not in values]
    if missing:
        raise SystemExit(f"bench: no samples for {', '.join(missing)}")
    return {name: (float(values[name]), unit) for name, unit in METRICS.items()}
