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

Integration evaluates each accepted state once (``SystemSpec._state``): one
call gives its row of Hamiltonians, invariants and div, and its field, which
the next RK step takes as its first stage.

Flattening is verified by pullback along a closed-form flow or the RK4 flow
of the deformation field, whose Jacobian is exact for the discrete flow.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field as dc_field
from functools import cache, cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import expr as ex, rk4
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
    nan_max,
    pullback_with_jacobian,
)
from .hdw import MinNorm, _hatmap_arrays, _hatmap_system, _min_norm, _report, min_norm_divergence
from .identities import closure_residual
from .structure import build_w_from_omega

CSV_CHUNK_ROWS = 1024  # bounds the table of values behind the CSV rows
BOX_SLACK = 1e-9  # relative widening of the domain box in ``box_test``
FLOW_STEPS_PER_UNIT = 512  # RK4 steps per unit time of the numeric flattening flow
VALIDATE_SAMPLES = 20  # domain samples of the closure check in ``validate``
_EVAL_FAULTS = (EvalDomainError, ValueError, ZeroDivisionError, OverflowError)


def sample_box(rng: np.random.Generator, box: Sequence[tuple[float, float]],
               count: int) -> list[tuple[float, ...]]:
    """Uniform interior samples of a per-axis interval box."""
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    pts = rng.uniform(size=(count, len(box))) * (hi - lo) + lo
    return [tuple(float(v) for v in row) for row in pts]


def box_test(box: Sequence[tuple[float, float]]) -> Callable[[Sequence[float]], bool]:
    """Membership in the box widened by BOX_SLACK * (1 + |bound|) on each side:
    one comparison chain, generated once per dimension, over bounds computed
    once per call."""
    return _box_factory(len(box))(*(b for lo, hi in box for b in (
        lo - BOX_SLACK * (1 + abs(lo)), hi + BOX_SLACK * (1 + abs(hi)))))


@cache
def _box_factory(n: int) -> Callable:
    """The generated factory of n-dimensional box tests, taking lo0, hi0, lo1, ..."""
    tests = " and ".join(f"lo{i} <= x[{i}] <= hi{i}" for i in range(n)) or "True"
    return _generated(f"def box({''.join(f'lo{i}, hi{i}, ' for i in range(n))}):\n"
                      f"    return lambda x: {tests}", "box")


def _step_count(steps: float, what: str) -> int:
    """The RK4 step count ``int(steps)`` of ``integrate`` and ``variational_flow``;
    a count that is not finite or beyond ``sys.maxsize`` is an InputError."""
    if not steps <= sys.maxsize:
        raise InputError(f"{what} needs more RK4 steps than a float can count")
    return int(steps)


def _generated(source: str, name: str) -> Callable:
    """The function ``name`` defined by ``source``."""
    namespace: dict = {}
    exec(compile(source, f"<ghm.dynamics {name}>", "exec"), namespace)
    return namespace[name]


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
    def _compiled_eom(self) -> Callable[[Sequence[float]], Sequence[float]]:
        """The stage function of ``mode``'s route: the compiled bracket field,
        or one hat-map solve per call that stops an inconsistent system at the
        point it was given."""
        if self.mode == "tensor":
            return self.bracket_field.compiled
        system = _hatmap_system(self.form, self.sigma())
        return lambda x: _consistent(_min_norm(system, *_hatmap_arrays(system, x)), x).x.tolist()

    @cached_property
    def _row(self) -> Callable[[Sequence[float]], tuple]:
        """The compiled Hamiltonians and invariants at a state, followed on
        the tensor route by the symbolic divergence of the field."""
        exprs = [h.expression for h in (*self.hamiltonians, *self.invariants.values())]
        if self.mode == "tensor":
            exprs.append(self.bracket_field.divergence_expr())
        return ex.compile_vector(exprs)

    @cached_property
    def _state(self) -> Callable[[Sequence[float]], tuple[tuple, Sequence[float]]]:
        """(row, X) at an accepted state: the row (Hamiltonians...,
        invariants..., div) and the integrated field X.  Tensor route:
        ``_row``, then the stage function.  Form route: ``_row``, then one
        hat-map solve whose exact divergence closes the row and whose solution
        is X; an inconsistent system stops there.  A fault in ``_row`` is
        an ``IntegrationError`` that names the row, not the field."""
        row, field = self._row, self._compiled_eom
        form, sigma = (self.form, self.sigma()) if self.mode == "form" else (None, None)

        def state(x):
            try:
                values = row(x)
            except _EVAL_FAULTS as exc:
                raise IntegrationError(f"diagnostics row evaluation failed: {exc}") from exc
            if form is None:
                return values, field(x)
            div, solve = min_norm_divergence(form, sigma, x)
            return values + (div,), _consistent(solve, x).x.tolist()

        return state

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        """Closure and coefficients of the form structure over seeded domain
        samples, and independence of the Hamiltonian differentials at the
        base point."""
        if self.form is not None:
            points = sample_box(np.random.default_rng(0), self.domain, VALIDATE_SAMPLES)
            try:
                rep = closure_residual(self.form, points)
            except _EVAL_FAULTS:
                for p in points:  # the scan stopped at the first sample that faults
                    try:
                        closure_residual(self.form, [p])
                    except _EVAL_FAULTS as exc:
                        raise InputError(f"system {self.name!r}: closure check failed at "
                                         f"the domain sample {p}: {exc}") from exc
                raise
            if not rep.passes(1e-10):
                raise InputError(
                    f"system {self.name!r}: form structure is not closed "
                    f"(residual {rep.max_residual:g} at {rep.argmax_point})")
            for p in points:  # dw can miss a fault of w itself, and is empty when k = n
                try:
                    self.form.coefficient_values(p)
                except _EVAL_FAULTS as exc:
                    raise InputError(f"system {self.name!r}: form evaluation failed at "
                                     f"the domain sample {p}: {exc}") from exc
        base = self.base_point or tuple((lo + hi) / 2 for lo, hi in self.domain)
        try:
            S = self.sigma().at(base)
        except _EVAL_FAULTS as exc:
            raise InputError(
                f"system {self.name!r}: Hamiltonian independence check failed "
                f"at the base point {base}: {exc}") from exc
        if not S.max_abs() >= 1e-8:  # NaN fails
            raise InputError(
                f"system {self.name!r}: Hamiltonian differentials are dependent "
                f"at the base point {base}")


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


# Fehlberg 4(5) tableau
_RKF_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


@cache
def stepper(method: str, n: int) -> Callable:
    """The RK step for n-dimensional states, generated once per (method, n):
    ``rk4(f, x, k, dt)`` returns the next state and ``rkf45(f, x, k, h)`` the
    pair (x4, x5).  ``k`` is the first stage f(x), which the caller already
    holds; the state and k are unpacked into locals and ``f`` is called once
    per later stage.  Every value is the float expression of the loop form,
    in its order: stage states x + h2*k and x + (h*a)*k summed in tableau order,
    x + w*(a + 2*b + 2*c + d), and the B4/B5 sums as 0 + b0*k0 + b1*k1 + ...
    with the zero weights kept.  That is ``sum()`` on Python 3.11; writing it
    out keeps the result on 3.12+, whose ``sum()`` of floats is compensated."""

    def vec(component):  # a tuple display over the n components
        return "(" + "".join(component(i) + ", " for i in range(n)) + ")"

    def stage(k, point=None):  # f at point, or else the given k, unpacked into k0, k1, ...
        return "".join(f"{k}{i}, " for i in range(n)) + (f"= f({point})" if point else "= k")

    if method == "rk4":
        body = [stage("a"), rk4.HALF,
                *(stage(s, vec(lambda i: rk4.point(f"x{i}", step, f"{k}{i}")))
                  for s, step, k in rk4.STAGES), rk4.WEIGHT,
                "return " + vec(lambda i: rk4.update(f"x{i}", rk4.total(
                    f"a{i}", f"b{i}", f"c{i}", f"d{i}")))]
    else:
        body = [stage("k0_")]
        for s, row in enumerate(_RKF_A[1:], start=1):
            body += [f"h{s}_{j} = h * {a!r}" for j, a in enumerate(row)]
            body.append(stage(f"k{s}_", vec(lambda i: f"x{i}" + "".join(
                f" + h{s}_{j} * k{j}_{i}" for j in range(s)))))
        body.append("return " + ", ".join(vec(lambda i: f"x{i} + h * (0" + "".join(
            f" + {b!r} * k{j}_{i}" for j, b in enumerate(weights)) + ")")
            for weights in (_RKF_B4, _RKF_B5)))
    head = f"def {method}(f, x, k, {'dt' if method == 'rk4' else 'h'}):\n    "
    state = "".join(f"x{i}, " for i in range(n)) + "= x\n    "
    return _generated(head + state + "\n    ".join(body), method)


def integrate(system: SystemSpec, x0: Sequence[float], t_end: float, dt: float = 1e-3,
              method: str = "rk4", reltol: float = 1e-9) -> Trajectory:
    """Fixed-step classical RK4 or adaptive Fehlberg 4(5) over the system's
    vector field.  Each step is the straight-line function ``stepper``
    generates once per (method, n); it keeps the float operations of the
    loop form in their order, B4/B5 sums included, so the states are the
    same bit for bit.  Every accepted state, x0 included, is evaluated once
    (``SystemSpec._state``): its row of Hamiltonians, invariants and div is
    recorded, and its field is the next step's first stage, kept across an
    RKF45 rejection.  A fault in either raises ``IntegrationError``: a
    "diagnostics row" failure for the row, a "vector-field" failure for the
    field or a stage.
    Leaving the domain box truncates the trajectory with a note (never
    extrapolates); a state that is not finite, or an RKF45 error estimate
    that is NaN, raises ``IntegrationError``.
    """
    if len(x0) != system.n:
        raise InputError(f"x0 must have length {system.n}")
    if not (0 < dt < math.inf and 0 < t_end < math.inf and 0 < reltol < math.inf):
        raise InputError(f"need finite positive dt, t_end and reltol, got {dt!r}, {t_end!r} "
                         f"and {reltol!r}")
    inside = box_test(system.domain)
    if not inside(x0):
        raise InputError(f"x0 {tuple(x0)} outside the domain box")
    if method not in ("rk4", "rkf45"):
        raise InputError(f"unknown method {method!r}")

    f, state, step = system._compiled_eom, system._state, stepper(method, system.n)
    t = 0.0
    x = tuple(map(float, x0))
    times, states, rows = [], [], []

    def accept(when: float, new: tuple) -> Sequence[float]:
        """Record an accepted state inside the box and return its field."""
        row, k = state(new)
        times.append(when)
        states.append(new)
        rows.append(row)
        return k

    try:
        k = accept(t, x)
        if method == "rk4":
            # full steps of dt, then one adjusted step landing exactly on t_end
            full = _step_count(t_end / dt + 1e-9, f"t_end {t_end:g} at dt {dt:g}")
            remainder = t_end - full * dt
            plan = itertools.chain(itertools.repeat(dt, full),
                                   [remainder] if remainder > 1e-12 * t_end else [])
            for h in plan:
                x = step(f, x, k, h)
                t += h
                if not inside(x):
                    break
                k = accept(t, x)
        else:
            h = dt
            while t < t_end - 1e-14:
                h = min(h, t_end - t)
                x4, x5 = step(f, x, k, h)
                err = math.sqrt(sum((a - b) ** 2 for a, b in zip(x4, x5)))
                scale = reltol * (1.0 + math.sqrt(sum(v * v for v in x)))
                if err <= scale:
                    t += h
                    x = x4
                    if not inside(x):
                        break
                    k = accept(t, x)
                elif math.isnan(err):  # would grow h to t_end - t for ever; inf shrinks h
                    raise IntegrationError(f"the RKF45 error estimate is not finite at t={t:.6g}")
                factor = 0.9 * (scale / err) ** 0.2 if err > 0 else 5.0
                h *= min(5.0, max(0.2, factor))
                if h < 1e-14:
                    raise IntegrationError(f"step size underflow at t={t:.6g}")
    except _EVAL_FAULTS as exc:
        raise IntegrationError(f"vector-field evaluation failed: {exc}") from exc

    left = not inside(x)  # only the last step can have left the box
    if left and not all(map(math.isfinite, x)):
        raise IntegrationError(f"the state is not finite at t={t:.6g}")
    table = np.array(rows)
    nh = len(system.hamiltonians)
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        hamiltonians=table[:, :nh],
        invariant_names=tuple(system.invariants),
        invariants=table[:, nh:-1],
        divergences=table[:, -1],
        truncated=left,
        note=f"state left the domain box at t={t:.6g}" if left else "",
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
    return nan_max((llw.at(p).max_abs() for p in points), default=0.0)


def variational_flow(X: VectorField, t: float):
    """p -> (Phi_t(p), DPhi_t(p)) of the fixed-step RK4 flow of the field X,
    run on (x, J row-major) with J' = DX(x) J, J(0) = I.  An RK map's
    Jacobian is that RK map on the variational system, so DPhi_t is exact
    for the discrete flow (Hairer, Lubich & Wanner, Geometric Numerical
    Integration, 2nd ed., ch. VI).  Every step of a point runs inside one
    generated function (``rk4.variational``), with the floats of
    ``stepper``'s RK4 on the compiled (X, DX J) bundle.  A fault in a step
    is an ``IntegrationError`` that names the sample point and the flow
    time the step starts from."""
    n = X.n
    nsteps = max(1, _step_count(abs(t) * FLOW_STEPS_PER_UNIT + 0.5, f"flow time {t:g}"))
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
    pullback; the residual is the largest |pulled - w0| over points and
    source keys, NaN if one is NaN.
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
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(pulled - w0_table).max(initial=0.0))
