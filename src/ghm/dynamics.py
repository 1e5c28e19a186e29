"""Equations of motion, trajectory integration with conservation diagnostics,
and flattening verification.

A system carries up to two degree-k structures generating the same dynamics:

* tensor route: X = -iota_{dH^1} ... iota_{dH^{k-1}} J (rightmost first),
  built symbolically once and compiled for integration;
* form route: the minimum-norm hat-map solution of iota_X w = -sigma with
  sigma = dH^1 ^ ... ^ dH^{k-1} (the form route may use its own Hamiltonian
  factorization of sigma when the two structures were constructed from
  different decompositions).

The two routes agree up to ``route_sign`` modulo ker(hat map); for canonical
flat pairs that sign is ``exterior.hdw_vs_bracket_sign(k)``.

Integration runs a whole trajectory in one generated loop per method and
route (``rk4.trajectory``): each accepted state is evaluated once for its
row of Hamiltonians, invariants and div and for its field, which the next RK
step takes as its first stage.

Flattening is verified by pullback along a closed-form flow or the RK4 flow
of the deformation field, whose Jacobian is exact for the discrete flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import expr as ex, identities, rk4
from .errors import DimensionError, EvalDomainError, GhmError, InputError, IntegrationError
from .expr import ScalarField
from .exterior import (
    FormField,
    MultiVectorField,
    PointMap,
    VectorField,
    _require_finite,
    grad_field,
    increasing_indices,
    iterated_interior,
    lie_derivative,
    pullback_with_jacobian,
)
from .hdw import (MinNorm, _hatmap_arrays, _hatmap_system, _min_norm, _report,
                  min_norm_divergence, solve_hdw)
from .structure import build_w_from_omega

CSV_CHUNK_ROWS = 1024  # bounds the table of values behind the CSV rows
BOX_SLACK = 1e-9  # relative widening of the domain box in ``integrate``
FLOW_STEPS_PER_UNIT = 512  # RK4 steps per unit time of the numeric flattening flow
VALIDATE_SAMPLES = 20  # seeded samples at which ``validate`` evaluates dw, w and the Hamiltonians


def sample_box(rng: np.random.Generator, box: Sequence[tuple[float, float]],
               count: int) -> list[tuple[float, ...]]:
    """Uniform interior samples of a per-axis interval box."""
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    pts = rng.uniform(size=(count, len(box))) * (hi - lo) + lo
    return [tuple(float(v) for v in row) for row in pts]


# ---------------------------------------------------------------------------
# System specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemSpec:
    """A complete generalized Hamiltonian system on a box in R^n.

    Frozen: ``dataclasses.replace`` is the way to change a spec, and the
    copy starts with empty caches, so no compiled piece outlives the fields
    it was built from.  ``invariants`` is stored read-only."""

    name: str
    n: int
    k: int
    hamiltonians: tuple[ScalarField, ...]
    tensor: MultiVectorField | None = None
    form: FormField | None = None
    form_hamiltonians: tuple[ScalarField, ...] | None = None
    mode: str = "tensor"  # route generating the equations of motion
    domain: tuple[tuple[float, float], ...] = ()
    base_point: tuple[float, ...] | None = None
    invariants: Mapping[str, ScalarField] = dc_field(default_factory=dict)
    measure_weight: ScalarField | None = None
    reduced_tensor: MultiVectorField | None = None
    route_sign: int = 1
    jacobi_label: str = "jacobi"
    extras: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if not (self.n >= self.k >= 2):
            raise DimensionError(f"need n >= k >= 2, got n={self.n}, k={self.k}")
        if len(self.hamiltonians) != self.k - 1:
            raise DimensionError(
                f"need k-1={self.k - 1} hamiltonians, got {len(self.hamiltonians)}")
        if self.mode not in ("tensor", "form"):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.mode == "tensor" and self.tensor is None:
            raise InputError("tensor mode requires a tensor structure")
        if self.mode == "form" and self.form is None:
            raise InputError("form mode requires a form structure")
        if not self.domain:
            object.__setattr__(self, "domain", tuple((-10.0, 10.0) for _ in range(self.n)))
        if len(self.domain) != self.n:
            raise DimensionError(f"need n={self.n} domain intervals, got {len(self.domain)}")
        if self.base_point is not None and len(self.base_point) != self.n:
            raise DimensionError(f"base point {self.base_point} is not in R^{self.n}")
        invariants = self.invariants or {f"H{i + 1}": h for i, h in enumerate(self.hamiltonians)}
        object.__setattr__(self, "invariants", MappingProxyType(dict(invariants)))

    # -- structures -------------------------------------------------------

    def sigma(self) -> FormField:
        """dH^1 ^ ... ^ dH^{k-1} from the form-route Hamiltonian list."""
        return self._sigma

    @cached_property
    def _sigma(self) -> FormField:
        hams = self.form_hamiltonians or self.hamiltonians
        return build_w_from_omega(grad_field(hams[0]), hams[1:])

    @cached_property
    def bracket_field(self) -> VectorField:
        """Symbolic tensor-route field -iota_{dH^1}...iota_{dH^{k-1}} J."""
        if self.tensor is None:
            raise InputError(f"system {self.name!r} has no tensor structure")
        T = iterated_interior(self.hamiltonians, self.tensor)
        comps = tuple(ex.neg(T.coeffs.get((i,), ex.ZERO)) for i in range(1, self.n + 1))
        return VectorField(self.n, comps)

    @cached_property
    def _diagnostics(self) -> tuple[ex.Expr, ...]:
        """The row's expressions: the Hamiltonians and invariants, followed on
        the tensor route by the symbolic divergence of the field."""
        exprs = tuple(h.expression for h in (*self.hamiltonians, *self.invariants.values()))
        if self.mode == "tensor":
            exprs += (self.bracket_field.divergence_expr(),)
        return exprs

    @cached_property
    def _row(self) -> Callable[[Sequence[float]], tuple]:
        """The compiled row at a state, for ``divergence``."""
        return ex.compile_vector(self._diagnostics)

    @cached_property
    def _loops(self) -> dict[str, Callable]:
        return {}

    def _loop(self, method: str) -> Callable:
        """``integrate``'s loop of ``method`` on ``mode``'s route
        (``rk4.trajectory``), built once per method.  Tensor route: the
        bracket field inlined.  Form route: one hat-map solve per stage, and
        at an accepted state one whose exact divergence closes the row and
        whose solution is X; an inconsistent system stops at either."""
        if method not in self._loops:
            if self.mode == "tensor":
                route = {"field": self.bracket_field.components}
            else:
                form, sigma = self.form, self.sigma()
                system = _hatmap_system(form, sigma)

                def state(x):
                    div, solve = min_norm_divergence(form, sigma, x)
                    return div, _consistent(solve, x).x.tolist()
                route = {"state": state, "stage": lambda x: _consistent(
                    _min_norm(system, *_hatmap_arrays(system, x)), x).x.tolist()}
            self._loops[method] = rk4.trajectory(method, self.n, self._diagnostics, **route)
        return self._loops[method]

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        """Independence of the Hamiltonian differentials at the base point,
        then one compiled bundle of dw, w's coefficients and the Hamiltonians,
        called at each seeded domain sample in turn: the first sample that
        faults is an InputError, and closure is ``closure_scan``'s verdict on
        the dw columns of the rows."""
        base = self.base_point or tuple((lo + hi) / 2 for lo, hi in self.domain)
        try:
            S = self.sigma().at(base)
        except EvalDomainError as exc:
            raise InputError(
                f"system {self.name!r}: Hamiltonian independence check failed "
                f"at the base point {base}: {exc}") from exc
        if S.max_abs() < 1e-8:
            raise InputError(
                f"system {self.name!r}: Hamiltonian differentials are dependent "
                f"at the base point {base}")
        closure = None if self.form is None else identities.closure_scan(self.form)
        w = () if closure is None else (*closure.exprs, *self.form.coeffs.values())
        row = ex.compile_vector((*w, *(h.expression for h in self.hamiltonians)))
        points, rows = sample_box(np.random.default_rng(0), self.domain, VALIDATE_SAMPLES), []
        for p in points:
            try:
                rows.append(row(p))
            except EvalDomainError as exc:
                raise InputError(f"system {self.name!r}: evaluation failed at the domain "
                                 f"sample {p}: {exc}") from exc
        if closure is not None:
            dw = np.array(rows, dtype=float)[:, :len(closure.exprs)]
            rep = identities._report(closure.name, closure.step(dw, points), len(points))
            if not rep.passes(1e-10):
                raise InputError(
                    f"system {self.name!r}: form structure is not closed "
                    f"(residual {rep.max_residual:g} at {rep.argmax_point})")


def _consistent(solve: MinNorm, point: Sequence[float]) -> MinNorm:
    """The solve of the hat-map system at ``point``; IntegrationError if inconsistent."""
    if not solve.consistent:
        raise IntegrationError(
            f"hat-map system inconsistent at {tuple(point)}: residual {solve.residual:g}")
    return solve


def divergence(system: SystemSpec, point: Sequence[float]) -> float:
    """sum_i dX^i/dx^i of the system's equations of motion: exact-symbolic on
    the tensor route (the last entry of ``_row``, which evaluates the
    Hamiltonians and invariants too); on the form route, exact for the
    minimum-norm field where the hat map's rank is constant near the point.
    An inconsistent hat-map system raises ``IntegrationError``."""
    p = tuple(point)
    if system.mode == "tensor":
        return float(system._row(p)[-1])
    div, solve = min_norm_divergence(system.form, system.sigma(), p)
    _consistent(solve, p)
    return div


def vector_field_of(system: SystemSpec, point: Sequence[float], *,
                    route: str | None = None,
                    cross_check: bool = False) -> tuple[np.ndarray, dict]:
    """Evaluate the equations of motion at a point.

    Returns (X, info); info carries the SolveReport on the form route and,
    with ``cross_check``, the route-agreement diagnostics: the bracket field
    must satisfy the hat-map system, and its kernel-orthogonal projection
    must match route_sign times the minimum-norm solution.  The hat-map
    system is assembled and solved once per call.
    """
    route = route or system.mode
    if route not in ("tensor", "form"):
        raise InputError(f"unknown route {route!r}")
    if route == "form" and system.form is None:
        raise InputError(f"system {system.name!r} has no form structure")
    cross_check = cross_check and system.tensor is not None and system.form is not None
    info: dict = {"route": route}
    if route == "tensor" or cross_check:
        X = bracket = np.asarray(system.bracket_field.at(point), dtype=float)
    if route == "form" or cross_check:
        hatmap = _hatmap_system(system.form, system.sigma())
        A, b = _hatmap_arrays(hatmap, point)
        solve = _min_norm(hatmap, A, b)
    if route == "form":
        info["solve_report"] = _report(system.form, _consistent(solve, point), point)
        X = solve.x

    if cross_check:
        sXt = system.route_sign * bracket
        info["bracket_hdw_residual"] = float(np.linalg.norm(A @ sXt - b))
        # kernel-orthogonal projection of the bracket field
        projected = solve.Vt.T @ (solve.Vt @ sXt)
        info["route_disagreement"] = float(np.linalg.norm(projected - solve.x))
    return X, info


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (steps, n)
    hamiltonians: np.ndarray  # shape (steps, k-1): the generating list
    invariant_names: tuple[str, ...]
    invariants: np.ndarray  # shape (steps, len(names)): named diagnostics
    divergences: np.ndarray
    truncated: bool = False
    note: str = ""
    kernel_dim: int = 0  # of the hat map at the first state (form route)

    def to_csv(self, fh) -> None:
        """Header t,x1..xn,H1..H{k-1},div; 17 significant digits.  Each row is
        one %-operation ("%.17g" % v is f"{v:.17g}" for every double) over a
        table built ``CSV_CHUNK_ROWS`` rows at a time.  One write per row keeps
        every string small: formatting a whole chunk into one string raised
        peak RSS by about 2 MB over repeated 8,000-row trajectories."""
        n = self.states.shape[1]
        ham_cols = [f"H{i + 1}" for i in range(self.hamiltonians.shape[1])]
        header = ["t"] + [f"x{i + 1}" for i in range(n)] + ham_cols + ["div"]
        fh.write(",".join(header) + "\n")
        row_format = ",".join(["%.17g"] * len(header)) + "\n"
        for start in range(0, len(self.times), CSV_CHUNK_ROWS):
            part = slice(start, start + CSV_CHUNK_ROWS)
            table = np.column_stack((self.times[part], self.states[part],
                                     self.hamiltonians[part], self.divergences[part]))
            for row in table.tolist():
                fh.write(row_format % tuple(row))


def integrate(system: SystemSpec, x0: Sequence[float], t_end: float, dt: float = 1e-3,
              method: str = "rk4", reltol: float = 1e-9) -> Trajectory:
    """Fixed-step classical RK4 or adaptive Fehlberg 4(5) over the system's
    vector field, every step inside one generated loop per method and route
    (``rk4.trajectory``, kept on the system).  It keeps the float operations
    of the loop form in their order, B4/B5 sums and RKF45 error norms
    included, so the states are the same bit for bit.  Every accepted state,
    x0 included, is evaluated once: its row of Hamiltonians, invariants and
    div is recorded, and its field is the next step's first stage, kept
    across an RKF45 rejection.  A fault in either raises
    ``IntegrationError``: a "diagnostics row" failure for the row, a
    "vector-field" failure for the field or a stage.  The form route keeps
    the kernel dimension of the hat map at x0 from ``solve_hdw`` before the
    loop, whose x0 solves find its factor kept.  Leaving the domain box,
    widened by BOX_SLACK * (1 + |bound|) on each side, truncates the
    trajectory with a note (never extrapolates); a state that is not
    finite (the loop's stages carry no guard; on the tensor route, the
    compiled field's at the last accepted state names a node), or an RKF45
    error estimate that is NaN, raises ``IntegrationError``.
    """
    if len(x0) != system.n:
        raise InputError(f"x0 must have length {system.n}")
    if not (0 < dt < math.inf and 0 < t_end < math.inf and 0 < reltol < math.inf):
        raise InputError(f"need finite positive dt, t_end and reltol, got {dt!r}, {t_end!r} "
                         f"and {reltol!r}")
    box = [(lo - BOX_SLACK * (1 + abs(lo)), hi + BOX_SLACK * (1 + abs(hi)))
           for lo, hi in system.domain]
    if not all(lo <= v <= hi for v, (lo, hi) in zip(x0, box)):
        raise InputError(f"x0 {tuple(x0)} outside the domain box")
    if method not in ("rk4", "rkf45"):
        raise InputError(f"unknown method {method!r}")

    start = tuple(map(float, x0))
    kernel_dim = 0 if system.mode == "tensor" else \
        solve_hdw(system.form, system.sigma(), start).kernel_dim
    times, states, rows, t, x, left = system._loop(method)(
        start, 0.0, t_end, dt, reltol, *(b for bounds in box for b in bounds))
    if left and not all(map(math.isfinite, x)):
        if system.mode == "tensor":
            try:
                system.bracket_field.compiled(states[-system.n:])
            except EvalDomainError as exc:
                raise IntegrationError(f"vector-field evaluation failed: {exc}") from exc
        raise IntegrationError(f"the state is not finite at t={t:.6g}")
    table = np.fromiter(rows, float, len(rows)).reshape(len(times), -1)
    nh = len(system.hamiltonians)
    return Trajectory(
        times=np.fromiter(times, float, len(times)),
        states=np.fromiter(states, float, len(states)).reshape(len(times), system.n),
        hamiltonians=table[:, :nh],
        invariant_names=tuple(system.invariants),
        invariants=table[:, nh:-1],
        divergences=table[:, -1],
        truncated=left,
        note=f"state left the domain box at t={t:.6g}" if left else "",
        kernel_dim=kernel_dim,
    )


def conservation_report(traj: Trajectory) -> dict[str, float]:
    """Max relative drift |v(t) - v(0)| / (1 + |v(0)|) per named invariant."""
    out = {}
    for col, name in enumerate(traj.invariant_names):
        v0 = traj.invariants[0, col]
        drift = np.max(np.abs(traj.invariants[:, col] - v0)) / (1.0 + abs(v0))
        out[name] = float(drift)
    return out


# ---------------------------------------------------------------------------
# Flattening problems
# ---------------------------------------------------------------------------

@dataclass
class MoserProblem:
    """Data for flattening a closed form onto a constant-coefficient target.

    ``w0`` is the flat reference, ``X`` the (time-independent) deformation
    field with w = (1 - L_X) w0, ``flow`` an optional closed-form time-t map.
    """

    name: str
    n: int
    w0: FormField
    X: VectorField
    w: FormField
    domain: tuple[tuple[float, float], ...]
    flow: Callable[[float], PointMap] | None = None


def moser_residual(problem: MoserProblem, points: Sequence[Sequence[float]]) -> float:
    """Max coefficient of L_X(L_X w0) over the points, all exact-symbolic."""
    lw = lie_derivative(problem.X, problem.w0)
    llw = lie_derivative(problem.X, lw)
    return max((llw.at(p).max_abs() for p in points), default=0.0)


def variational_flow(X: VectorField, t: float):
    """p -> (Phi_t(p), DPhi_t(p)) of the fixed-step RK4 flow of the field X,
    run on (x, J row-major) with J' = DX(x) J, J(0) = I.  An RK map's
    Jacobian is that RK map on the variational system, so DPhi_t is exact
    for the discrete flow (Hairer, Lubich & Wanner, Geometric Numerical
    Integration, 2nd ed., ch. VI).  Every step of a point runs inside one
    generated function (``rk4.variational``), with the floats of RK4 on
    the compiled (X, DX J) bundle, step by step.  A fault in a step
    is an ``IntegrationError`` that names the sample point and the flow
    time the step starts from."""
    n = X.n
    nsteps = max(1, rk4.step_count(abs(t) * FLOW_STEPS_PER_UNIT + 0.5, f"flow time {t:g}"))
    h = t / nsteps
    run, start = rk4.variational(X.components), np.eye(n).ravel().tolist()

    def flow_map(p: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        y = run(p, (*map(float, p), *start), h, nsteps)
        return np.array(y[:n]), np.array(y[n:]).reshape(n, n)

    return flow_map


def verify_flattening(problem: MoserProblem, t: float,
                      points: Sequence[Sequence[float]],
                      flow: str = "closed") -> float:
    """Max over points of |Phi_t^* w_t - w0| with w_t = t w + (1-t) w0.

    ``flow='closed'`` uses the problem's closed-form time-t map with its exact
    symbolic Jacobian; ``flow='numeric'`` integrates the deformation field
    ``problem.X`` with RK4 together with its variational equation, so its
    Jacobian is exact for the discrete flow (``variational_flow``: one
    generated function runs every step of a point, and a fault in a step is
    an ``IntegrationError`` naming the point, the flow time and the node).

    One pass over the points computes, point by point, the map and its
    Jacobian, w_t's coefficients at the target and w0's at the point.  A
    fault there is raised after the Jacobians of the points before it, and of
    its own point if w0 faulted, are checked, so the first fault in that
    order is the error, as in a per-point loop.  Then
    ``pullback_with_jacobian`` pulls w_t back at every point at once, a
    stacked ``det`` per block of points, with the floats of a per-point
    pullback, or raises ``EvalDomainError`` where its arithmetic overflows;
    the residual is the largest |pulled - w0| over points and source keys,
    inf if a difference overflows.
    """
    wt = problem.w.scale(float(t)) + problem.w0.scale(1.0 - t)
    if flow == "closed":
        if problem.flow is None:
            raise InputError(f"problem {problem.name!r} has no closed-form flow")
        phi = problem.flow(t)
        flow_map = lambda p: (phi._compiled(p), phi._compiled_jacobian(p))
    elif flow == "numeric":
        flow_map = variational_flow(problem.X, t)
    else:
        raise InputError(f"unknown flow route {flow!r}")
    n, w0 = problem.n, problem.w0
    jacobians, wt_values, w0_values = [], [], []
    stack = lambda: np.array(jacobians, dtype=float).reshape(len(jacobians), n, n)
    try:
        for p in points:
            target, J = flow_map(p)
            wt_values.append(wt.coefficient_values(target))
            jacobians.append(J)
            w0_values.append(w0.coefficient_values(p))
    except GhmError:
        _require_finite(stack())
        raise
    sources = increasing_indices(n, wt.k)
    w0_table = np.zeros((len(points), len(sources)))
    w0_table[:, [sources.index(key) for key in w0.coeffs]] = \
        np.array(w0_values, dtype=float).reshape(len(points), len(w0.coeffs))
    pulled = pullback_with_jacobian(stack(), wt, np.array(wt_values, dtype=float).reshape(
        len(points), len(wt.coeffs)))
    with np.errstate(over="ignore"):
        return float(np.abs(pulled - w0_table).max(initial=0.0))
