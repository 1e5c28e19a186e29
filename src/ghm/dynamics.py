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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .errors import DimensionError, EvalDomainError, InputError, IntegrationError
from .expr import ScalarField
from .exterior import (
    FormField,
    MultiVectorField,
    PointMap,
    VectorField,
    grad_field,
    hdw_vs_bracket_sign,
    interior_form_field,
    lie_derivative,
    pullback_with_jacobian,
    wedge_fields,
)
from .hdw import SolveReport, assemble_hatmap, hatmap_rhs, solve_hdw
from .identities import closure_residual

FD_STEP = 1e-5


def sample_box(rng: np.random.Generator, box: Sequence[tuple[float, float]],
               count: int) -> list[tuple[float, ...]]:
    """Uniform interior samples of a per-axis interval box."""
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    pts = rng.uniform(size=(count, len(box))) * (hi - lo) + lo
    return [tuple(float(v) for v in row) for row in pts]


def in_box(x: Sequence[float], box: Sequence[tuple[float, float]],
           slack: float = 1e-9) -> bool:
    return all(lo - slack * (1 + abs(lo)) <= v <= hi + slack * (1 + abs(hi))
               for v, (lo, hi) in zip(x, box))


# ---------------------------------------------------------------------------
# System specification
# ---------------------------------------------------------------------------

@dataclass
class SystemSpec:
    """A complete generalized Hamiltonian system on a box in R^n."""

    name: str
    n: int
    k: int
    hamiltonians: tuple[ScalarField, ...]
    tensor: MultiVectorField | None = None
    form: FormField | None = None
    form_hamiltonians: tuple[ScalarField, ...] | None = None
    mode: str = "tensor"  # route generating the equations of motion
    params: dict = dc_field(default_factory=dict)
    domain: tuple[tuple[float, float], ...] = ()
    aliases: tuple[str, ...] | None = None
    base_point: tuple[float, ...] | None = None
    invariants: dict[str, ScalarField] = dc_field(default_factory=dict)
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
            self.domain = tuple((-10.0, 10.0) for _ in range(self.n))
        if not self.invariants:
            self.invariants = {f"H{i + 1}": h for i, h in enumerate(self.hamiltonians)}

    # -- structures -------------------------------------------------------

    def sigma(self) -> FormField:
        """dH^1 ^ ... ^ dH^{k-1} from the form-route Hamiltonian list; built
        once per list, so its compiled coefficients are too."""
        hams = self.form_hamiltonians or self.hamiltonians
        built = self.__dict__.get("_sigma")
        if built is not None and built[0] == hams:
            return built[1]
        out = grad_field(hams[0])
        for h in hams[1:]:
            out = wedge_fields(out, grad_field(h))
        self._sigma = (hams, out)
        return out

    @cached_property
    def bracket_field(self) -> VectorField:
        """Symbolic tensor-route field -iota_{dH^1}...iota_{dH^{k-1}} J."""
        if self.tensor is None:
            raise InputError(f"system {self.name!r} has no tensor structure")
        T = self.tensor
        for h in reversed(self.hamiltonians):
            T = interior_form_field(grad_field(h), T)
        comps = tuple(ex.neg(T.coeffs.get((i,), ex.ZERO)) for i in range(1, self.n + 1))
        return VectorField(self.n, comps)

    @cached_property
    def _compiled_eom(self) -> Callable[[Sequence[float]], tuple]:
        if self.mode == "tensor":
            return self.bracket_field.compiled
        sigma = self.sigma()

        def f(x):
            report = solve_hdw(self.form, sigma, x)
            if not report.consistent:
                raise IntegrationError(_inconsistent(x, report))
            return report.x

        return f

    @cached_property
    def _compiled_invariants(self) -> tuple[tuple[str, Callable], ...]:
        return tuple((name, h.compiled) for name, h in self.invariants.items())

    @cached_property
    def _compiled_hamiltonians(self) -> tuple[Callable, ...]:
        return tuple(h.compiled for h in self.hamiltonians)

    @cached_property
    def _divergence(self) -> Callable[[Sequence[float]], float]:
        if self.mode == "tensor":
            d = self.bracket_field.divergence_expr()
            return ex.compile_expr(d)
        f = self._compiled_eom

        def fd_div(x):
            total = 0.0
            for i in range(self.n):
                xp = list(x)
                xm = list(x)
                xp[i] += FD_STEP
                xm[i] -= FD_STEP
                total += (f(xp)[i] - f(xm)[i]) / (2 * FD_STEP)
            return total

        return fd_div

    # -- validation -------------------------------------------------------

    def validate(self, rng: np.random.Generator | None = None, samples: int = 20) -> None:
        """Closure of the form structure over domain samples and independence
        of the Hamiltonian differentials at the base point."""
        rng = rng or np.random.default_rng(0)
        if self.form is not None:
            rep = closure_residual(self.form, sample_box(rng, self.domain, samples))
            if rep.max_residual > 1e-10:
                raise InputError(
                    f"system {self.name!r}: form structure is not closed "
                    f"(residual {rep.max_residual:g} at {rep.argmax_point})")
        base = self.base_point or tuple((lo + hi) / 2 for lo, hi in self.domain)
        S = self.sigma().at(base)
        if S.max_abs() < 1e-8:
            raise InputError(
                f"system {self.name!r}: Hamiltonian differentials are dependent "
                f"at the base point {base}")


def _inconsistent(point: Sequence[float], report: SolveReport) -> str:
    return f"hat-map system inconsistent at {tuple(point)}: residual {report.residual:g}"


def divergence(system: SystemSpec, point: Sequence[float]) -> float:
    """sum_i dX^i/dx^i; exact-symbolic on the tensor route, central
    differences (step 1e-5) on the form route."""
    return float(system._divergence(tuple(point)))


def vector_field_of(system: SystemSpec, point: Sequence[float], *,
                    route: str | None = None, tolerance: float = 1e-9,
                    cross_check: bool = False) -> tuple[np.ndarray, dict]:
    """Evaluate the equations of motion at a point.

    Returns (X, info); info carries the SolveReport on the form route and,
    with ``cross_check``, the route-agreement diagnostics: the bracket field
    must satisfy the hat-map system, and its kernel-orthogonal projection
    must match route_sign times the minimum-norm solution.
    """
    route = route or system.mode
    info: dict = {"route": route}
    if route == "tensor":
        X = np.asarray(system.bracket_field.at(point), dtype=float)
    elif route == "form":
        if system.form is None:
            raise InputError(f"system {system.name!r} has no form structure")
        report = solve_hdw(system.form, system.sigma(), point, tolerance)
        if not report.consistent:
            raise IntegrationError(_inconsistent(point, report))
        X = np.array(report.x)
        info["solve_report"] = report
    else:
        raise InputError(f"unknown route {route!r}")

    if cross_check and system.tensor is not None and system.form is not None:
        Xt = np.asarray(system.bracket_field.at(point), dtype=float)
        report = solve_hdw(system.form, system.sigma(), point, tolerance)
        Xf = np.array(report.x)
        hat = assemble_hatmap(system.form, point)
        b = hatmap_rhs(system.sigma(), hat.rows, point)
        info["bracket_hdw_residual"] = float(
            np.linalg.norm(hat.apply(system.route_sign * Xt) - b))
        # kernel-orthogonal projection of the bracket field
        A = hat.matrix
        sol, *_ = np.linalg.lstsq(A, A @ (system.route_sign * Xt), rcond=1e-10)
        info["route_disagreement"] = float(np.linalg.norm(sol - Xf))
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
        """Header t,x1..xn,H1..H{k-1},div; 17 significant digits."""
        n = self.states.shape[1]
        ham_cols = [f"H{i + 1}" for i in range(self.hamiltonians.shape[1])]
        fh.write(",".join(["t"] + [f"x{i + 1}" for i in range(n)] + ham_cols + ["div"]) + "\n")
        for row in range(len(self.times)):
            cells = [f"{self.times[row]:.17g}"]
            cells += [f"{v:.17g}" for v in self.states[row]]
            cells += [f"{v:.17g}" for v in self.hamiltonians[row]]
            cells.append(f"{self.divergences[row]:.17g}")
            fh.write(",".join(cells) + "\n")


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


def _rk4_step(f, x: list, dt: float) -> list:
    k1 = f(x)
    h2 = dt / 2
    k2 = f([xi + h2 * ki for xi, ki in zip(x, k1)])
    k3 = f([xi + h2 * ki for xi, ki in zip(x, k2)])
    k4 = f([xi + dt * ki for xi, ki in zip(x, k3)])
    w = dt / 6
    return [xi + w * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def integrate(system: SystemSpec, x0: Sequence[float], t_end: float, dt: float = 1e-3,
              method: str = "rk4", reltol: float = 1e-9) -> Trajectory:
    """Fixed-step classical RK4 or adaptive Fehlberg 4(5) over the system's
    vector field.  Diagnostics are recorded at every accepted step; leaving
    the domain box truncates the trajectory with a note (never extrapolates).
    """
    if len(x0) != system.n:
        raise InputError(f"x0 must have length {system.n}")
    if dt <= 0 or t_end <= 0:
        raise InputError("need positive dt and t_end")
    if not in_box(x0, system.domain):
        raise InputError(f"x0 {tuple(x0)} outside the domain box")
    if method not in ("rk4", "rkf45"):
        raise InputError(f"unknown method {method!r}")

    f = system._compiled_eom
    inv_fns = system._compiled_invariants
    ham_fns = system._compiled_hamiltonians
    div_fn = system._divergence

    times = [0.0]
    states = [list(map(float, x0))]
    hams = [[fn(states[0]) for fn in ham_fns]]
    invariants = [[fn(states[0]) for _, fn in inv_fns]]
    divs = [div_fn(states[0])]
    truncated = False
    note = ""

    try:
        if method == "rk4":
            # full steps of dt, then one adjusted step landing exactly on t_end
            full = int(t_end / dt + 1e-9)
            remainder = t_end - full * dt
            plan = [dt] * full + ([remainder] if remainder > 1e-12 * t_end else [])
            x = states[0]
            t = 0.0
            for h in plan:
                x = _rk4_step(f, x, h)
                t += h
                if not in_box(x, system.domain):
                    truncated = True
                    note = f"state left the domain box at t={t:.6g}"
                    break
                times.append(t)
                states.append(x)
                hams.append([fn(x) for fn in ham_fns])
                invariants.append([fn(x) for _, fn in inv_fns])
                divs.append(div_fn(x))
        else:
            t, x = 0.0, states[0]
            h = dt
            while t < t_end - 1e-14:
                h = min(h, t_end - t)
                ks = []
                for stage in range(6):
                    xs = list(x)
                    for j, a in enumerate(_RKF_A[stage]):
                        for i in range(system.n):
                            xs[i] += h * a * ks[j][i]
                    ks.append(f(xs))
                x4 = [xi + h * sum(b * ks[j][i] for j, b in enumerate(_RKF_B4))
                      for i, xi in enumerate(x)]
                x5 = [xi + h * sum(b * ks[j][i] for j, b in enumerate(_RKF_B5))
                      for i, xi in enumerate(x)]
                err = math.sqrt(sum((a - b) ** 2 for a, b in zip(x4, x5)))
                scale = reltol * (1.0 + math.sqrt(sum(v * v for v in x)))
                if err <= scale:
                    t += h
                    x = x4
                    if not in_box(x, system.domain):
                        truncated = True
                        note = f"state left the domain box at t={t:.6g}"
                        break
                    times.append(t)
                    states.append(x)
                    hams.append([fn(x) for fn in ham_fns])
                    invariants.append([fn(x) for _, fn in inv_fns])
                    divs.append(div_fn(x))
                factor = 0.9 * (scale / err) ** 0.2 if err > 0 else 5.0
                h *= min(5.0, max(0.2, factor))
                if h < 1e-14:
                    raise IntegrationError(f"step size underflow at t={t:.6g}")
    except (EvalDomainError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise IntegrationError(f"vector-field evaluation failed: {exc}") from exc

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        hamiltonians=np.array(hams),
        invariant_names=tuple(name for name, _ in inv_fns),
        invariants=np.array(invariants),
        divergences=np.array(divs),
        truncated=truncated,
        note=note,
    )


def conservation_report(traj: Trajectory, system: SystemSpec | None = None) -> dict[str, float]:
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
    ``Z0`` is the dilation (1/k) x^i d_i with L_{Z0} w0 = w0, and
    Z = Z0 - X satisfies L_Z w0 = w.
    """

    name: str
    n: int
    k: int
    w0: FormField
    X: VectorField
    w: FormField
    domain: tuple[tuple[float, float], ...]
    flow: Callable[[float], PointMap] | None = None
    params: dict = dc_field(default_factory=dict)

    @property
    def Z0(self) -> VectorField:
        scale = ex.const(1.0 / self.k)
        return VectorField(self.n, tuple(ex.mul(scale, ex.Coord(i))
                                         for i in range(1, self.n + 1)))

    @property
    def Z(self) -> VectorField:
        return self.Z0 - self.X


def moser_residual(problem: MoserProblem, points: Sequence[Sequence[float]]) -> float:
    """Max coefficient of L_X(L_X w0) over the points, all exact-symbolic."""
    lw = lie_derivative(problem.X, problem.w0)
    llw = lie_derivative(problem.X, lw)
    return max((llw.at(p).max_abs() for p in points), default=0.0)


def moser_family_residual(w0: FormField, X_t: Callable[[float], VectorField],
                          Z: VectorField, t: float,
                          points: Sequence[Sequence[float]]) -> float:
    """Pointwise residual of (L_{t X_t} L_Z - L_{Z0 - Z - (1-t) X_t}) w0 for a
    caller-supplied time-dependent family; checker only, no solver."""
    n, k = w0.n, w0.k
    Xt = X_t(t)
    Z0 = VectorField(n, tuple(ex.mul(ex.const(1.0 / k), ex.Coord(i))
                              for i in range(1, n + 1)))
    term1 = lie_derivative(Xt.scale(float(t)), lie_derivative(Z, w0))
    rest = Z0 - Z - Xt.scale(1.0 - t)
    term2 = lie_derivative(rest, w0)
    diff = term1 - term2
    return max((diff.at(p).max_abs() for p in points), default=0.0)


def _numeric_flow(problem: MoserProblem, t: float, steps_per_unit: int = 512):
    """Fixed-step RK4 flow map of the deformation field."""
    f = problem.X.compiled
    nsteps = max(1, round(abs(t) * steps_per_unit))
    h = t / nsteps

    def flow_map(p: Sequence[float]) -> np.ndarray:
        x = list(map(float, p))
        for _ in range(nsteps):
            x = _rk4_step(f, x, h)
        return np.array(x)

    return flow_map


def verify_flattening(problem: MoserProblem, t: float,
                      points: Sequence[Sequence[float]],
                      flow: str = "closed", w: FormField | None = None) -> float:
    """Max over points of |Phi_t^* w_t - w0| with w_t = t w + (1-t) w0.

    ``flow='closed'`` uses the problem's closed-form time-t map with its exact
    symbolic Jacobian; ``flow='numeric'`` integrates the deformation field and
    differentiates the flow map by central differences.
    """
    w = w if w is not None else problem.w
    wt = w.scale(float(t)) + problem.w0.scale(1.0 - t)
    worst = 0.0
    if flow == "closed":
        if problem.flow is None:
            raise InputError(f"problem {problem.name!r} has no closed-form flow")
        phi = problem.flow(t)
        for p in points:
            target = phi.at(p)
            pulled = pullback_with_jacobian(phi.jacobian(p), wt.at(target))
            worst = max(worst, (pulled - problem.w0.at(p)).max_abs())
        return worst
    if flow != "numeric":
        raise InputError(f"unknown flow route {flow!r}")
    fmap = _numeric_flow(problem, t)
    n = problem.n
    for p in points:
        target = fmap(p)
        J = np.empty((n, n))
        for i in range(n):
            up = list(p)
            um = list(p)
            up[i] += FD_STEP
            um[i] -= FD_STEP
            J[:, i] = (fmap(up) - fmap(um)) / (2 * FD_STEP)
        pulled = pullback_with_jacobian(J, wt.at(target))
        worst = max(worst, (pulled - problem.w0.at(p)).max_abs())
    return worst
