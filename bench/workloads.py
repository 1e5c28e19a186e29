"""The three workloads: their seeded inputs, operations, output checks and
per-workload rates.

Each workload is a fixed list of operations (one round) built from the seed
before timing starts.  ``check`` judges the first round's outputs against
independent computations (bench/reference.py) and properties the method
must have; later rounds must reproduce the first byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from pathlib import Path

import numpy as np

import reference as ref
from layers import ProbeSet
from harness import CliResult, Op, Timing, cli_op

CONFIGS = Path(__file__).resolve().parent / "configs"

# Tolerances, pinned.  A1: invariant drift; A7: flattening; A9: chain.
DRIFT_TOL = 1e-6
CSV_HAM_TOL = 1e-11  # CSV Hamiltonian columns vs the numpy recomputation
RK4_REF_TOL = 1e-10  # RK4 (dt 1e-3) final state vs DOP853; the error seen is ~1e-13
RKF45_REF_TOL = 1e-7  # RKF45 (reltol 1e-12) final state vs DOP853; the error seen is ~4e-9
EXACT_FLOW_TOL = 1e-9  # RK4 vs closed-form flows
ROUTE_TOL = 1e-9  # vector_field_of cross-check: route disagreement and residual
SOLVE_TOL = 1e-10
CHECK_TOL = 1e-9  # ghm check's default pass tolerance
FI_TOL = 1e-12
FLATTEN_CLOSED_TOL = 1e-8
FLATTEN_NUMERIC_TOL = 1e-6
CHAIN_TOL = 1e-10
ORTH_TOL = 1e-12
MEASURE_TOL = 1e-12


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _parse_sim(stdout: str):
    """(CSV header, CSV rows as an array) of a ``ghm simulate`` stdout."""
    lines = stdout.splitlines()
    header = lines[0].split(",")
    rows = [ln for ln in lines[1:] if not ln.startswith(("drift[", "truncated:"))]
    A = np.array([[float(c) for c in ln.split(",")] for ln in rows])
    return header, A


def _guarded(fn, *args):
    """A check's verdict; output it cannot parse is a failure, not a crash."""
    try:
        return fn(*args)
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _check_json(res: CliResult) -> dict:
    if res.json is None:
        raise ValueError("no --json report written")
    return {c["token"]: c for c in json.loads(res.json)["checks"]}


class Workload:
    name = ""

    def __init__(self, ghm, seed: int, out_dir: Path):
        self.ghm = ghm
        self.out = out_dir
        self.rng = np.random.default_rng(seed)

    def _seed(self) -> int:
        return int(self.rng.integers(0, 2 ** 31 - 1))


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Sim:
    label: str
    system_args: tuple[str, ...]
    x0: tuple[float, ...]
    t_end: float
    dt: float
    route: str  # tensor (RK4), rkf45 (both bracket route) or form (RK4, hat map)

    def argv(self) -> list[str]:
        argv = ["simulate", *self.system_args, f"--x0={_fmt(self.x0)}",
                "--t-end", repr(self.t_end), "--dt", repr(self.dt)]
        if self.route == "rkf45":
            argv += ["--method", "rkf45", "--reltol", "1e-12"]
        return argv


class Integrate(Workload):
    """``ghm simulate`` on both routes plus in-process ``ghm solve``."""

    name = "integrate"

    def __init__(self, ghm, seed, out_dir):
        super().__init__(ghm, seed, out_dir)
        u = self.rng.uniform
        base = np.array(ref.OSC_BASE)
        r, th, x3 = 1.5 + u(-0.1, 0.1), 1.0 + u(-0.05, 0.05), 0.4 + u(-0.05, 0.05)
        cfg = {name: str(CONFIGS / f"{name}.json")
               for name in ("oscillator_form", "fourdim_form", "inconsistent_form")}
        self.configs = cfg
        self.sims = [
            Sim("oscillator rk4", ("oscillator",), tuple(base + u(-0.2, 0.2, 6)), 8.0, 1e-3, "tensor"),
            Sim("oscillator rkf45", ("oscillator",), tuple(base + u(-0.2, 0.2, 6)), 30.0, 1e-2,
                "rkf45"),
            # a rigid rotation at rate 2/(1+x3) <= 1.49: within t = 1 the start
            # angle 1 +- 0.05 stays in (-0.55, 1.05), inside the x1 >= 0.5 box
            Sim("quasisymmetry rk4", ("quasisymmetry",),
                (r * np.cos(th), r * np.sin(th), x3), 1.0, 5e-4, "tensor"),
            Sim("oscillator form", ("--config", cfg["oscillator_form"]),
                tuple(base + u(-0.2, 0.2, 6)), 0.1, 1e-3, "form"),
            Sim("fourdim form", ("--config", cfg["fourdim_form"]),
                (u(-1, 1), u(-1, 1), u(-1, 1), u(1.5, 2.5)), 0.3, 1e-3, "form"),
            Sim("flat_nambu(4,3) form", ("flat_nambu", "--n", "4", "--k", "3"),
                tuple(u(-1, 1, 4)), 0.15, 1e-3, "form"),
        ]
        self.solves = (
            [("oscillator", tuple(u(-3, 3, 6))) for _ in range(3)]
            + [("fourdim", (u(-2, 2), u(-2, 2), u(-2, 2), u(0.5, 4.5))) for _ in range(3)]
            + [("flat_nambu", tuple(u(-3, 3, 3))) for _ in range(2)]
            + [("quasisymmetry", tuple(ref.sample_points(self._seed(), ref.QS_DOMAIN, 1)[0]))
               for _ in range(3)]
        )
        # the known fault: an inconsistent hat-map system must stop with exit 3
        self.fault = Sim("inconsistent form", ("--config", cfg["inconsistent_form"]),
                         (0.0, 0.0, 1.0, 0.0), 0.01, 1e-3, "form")

    def setup(self):
        """Build or load each system once and take one RK4 step on it."""
        g = self.ghm
        built = [g.systems.build("oscillator"), g.systems.build("quasisymmetry"),
                 g.systems.build("flat_nambu", n=4, k=3)]
        built += [g.cli.load_config(path) for path in self.configs.values()]
        for s in built:
            try:
                g.integrate(s, s.base_point, t_end=1e-3, dt=1e-3)
            except g.IntegrationError:
                pass  # the inconsistent config, once the program rejects it

    def ops(self):
        main = self.ghm.cli.main
        ops = [cli_op(main, f"simulate {s.label}", s.argv()) for s in self.sims]
        ops += [cli_op(main, f"solve {name} {i}", ["solve", name, f"--point={_fmt(p)}"])
                for i, (name, p) in enumerate(self.solves)]
        ops.append(cli_op(main, f"simulate {self.fault.label} (exit 3 expected)",
                          self.fault.argv(), expect_fault=True))
        return ops

    # -- checks -------------------------------------------------------------

    def check(self, outputs):
        verdicts = []
        for sim, res in zip(self.sims, outputs):
            verdicts.append(_guarded(self._check_sim, sim, res))
        solve_outputs = outputs[len(self.sims):len(self.sims) + len(self.solves)]
        for (name, p), res in zip(self.solves, solve_outputs):
            verdicts.append(_guarded(self._check_solve, name, p, res))
        res = outputs[-1]
        verdicts.append(None if res.rc == 3 else
                        f"exit {res.rc}, want 3 (IntegrationError): the trajectory of an "
                        f"inconsistent hat-map system was written")
        return verdicts

    def _check_sim(self, sim: Sim, res: CliResult):
        if res.rc != 0:
            return f"exit {res.rc}: {res.stderr.strip()[-300:]}"
        header, A = _parse_sim(res.stdout)
        n = len(sim.x0)
        S, H, div = A[:, 1:1 + n], A[:, 1 + n:-1], A[:, -1]
        if header[:1 + n] != ["t"] + [f"x{i}" for i in range(1, n + 1)] or header[-1] != "div":
            return f"bad CSV header {header}"
        if abs(A[-1, 0] - sim.t_end) > 1e-9 or np.max(np.abs(S[0] - sim.x0)) != 0.0:
            return f"trajectory spans t={A[0, 0]}..{A[-1, 0]} from {S[0]}"
        if sim.route != "rkf45" and len(A) != round(sim.t_end / sim.dt) + 1:
            return f"{len(A) - 1} steps, want {round(sim.t_end / sim.dt)}"

        if sim.label.startswith("oscillator"):
            inv = ref.oscillator_invariants(S)
            # the form route's minimum-norm field conserves its own generating
            # pair (Htilde, G2) but not G1 (a known gap); the bracket route
            # conserves H, G1 and G2
            conserved = ("Htilde", "G2") if sim.route == "form" else ("H", "G1", "G2")
            generating = ("Htilde", "G2") if sim.route == "form" else ("G", "H")
        elif sim.label.startswith("quasisymmetry"):
            inv = ref.qs_default_invariants(S)
            conserved = generating = ("Psi", "B")
        elif sim.label.startswith("fourdim"):
            inv = {"x1": S[:, 0], "x4": S[:, 3]}
            conserved = generating = ("x1", "x4")
        else:  # flat_nambu(4,3): Hamiltonians x1, x2
            inv = {"x1": S[:, 0], "x2": S[:, 1]}
            conserved = generating = ("x1", "x2")
        for name in conserved:
            d = ref.drift(inv[name])
            if d > DRIFT_TOL:
                return f"drift[{name}] = {d:.3e} > {DRIFT_TOL:g}"
        for col, name in enumerate(generating):
            dev = np.max(np.abs(H[:, col] - inv[name]) / (1 + np.abs(inv[name])))
            if dev > CSV_HAM_TOL:
                return f"CSV column H{col + 1} differs from numpy {name} by {dev:.3e}"

        final = S[-1]
        if sim.route in ("tensor", "rkf45") and sim.label.startswith("oscillator"):
            want, tol = ref.oscillator_reference(sim.x0, sim.t_end), (
                RK4_REF_TOL if sim.route == "tensor" else RKF45_REF_TOL)
        elif sim.label.startswith("quasisymmetry"):
            want, tol = ref.qs_default_flow(sim.x0, sim.t_end), EXACT_FLOW_TOL
        elif sim.label.startswith("fourdim"):
            want, tol = np.array(sim.x0) + sim.t_end * ref.fourdim_form_field(sim.x0), EXACT_FLOW_TOL
        elif sim.label.startswith("flat"):
            want, tol = np.array(sim.x0) + sim.t_end * ref.flat_form_field(4), EXACT_FLOW_TOL
        else:
            want, tol = None, None  # oscillator form: judged by invariants and routes
        if want is not None:
            err = float(np.max(np.abs(final - want)))
            if err > tol:
                return f"final state off the reference by {err:.3e} > {tol:g}"
        if sim.route in ("tensor", "rkf45") and np.max(np.abs(div)) > 1e-12:
            return f"divergence column reaches {np.max(np.abs(div)):.3e}; the field is divergence-free"

        if sim.route == "form":
            return self._cross_check(sim, S)
        return None

    def _cross_check(self, sim: Sim, S: np.ndarray):
        """Sampled states must satisfy both routes of the built-in system."""
        g = self.ghm
        if sim.label.startswith("oscillator"):
            system = g.systems.build("oscillator")
        elif sim.label.startswith("fourdim"):
            system = g.systems.build("fourdim")
        else:
            system = g.systems.build("flat_nambu", n=4, k=3)
        for x in S[np.linspace(0, len(S) - 1, 4).astype(int)]:
            _, info = g.vector_field_of(system, x, route="form", cross_check=True)
            worst = max(info["route_disagreement"], info["bracket_hdw_residual"])
            if worst > ROUTE_TOL:
                return f"routes disagree by {worst:.3e} at {tuple(x)}"
        return None

    def _check_solve(self, name: str, p, res: CliResult):
        if res.rc != 0:
            return f"exit {res.rc}: {res.stderr.strip()[-300:]}"
        rep = json.loads(res.stdout)
        X = np.array(rep["x"])
        if not rep["consistent"] or rep["residual"] > SOLVE_TOL:
            return f"residual {rep['residual']:.3e}, consistent={rep['consistent']}"
        if name == "oscillator":
            grads = ref.oscillator_gradients(p)
            worst = max(abs(float(X @ grads["Htilde"])), abs(float(X @ grads["G2"])))
            want_kernel = 1
        else:
            want = {"fourdim": lambda: ref.fourdim_form_field(p),
                    "flat_nambu": lambda: ref.flat_form_field(3),
                    "quasisymmetry": lambda: ref.qs_default_field(p)}[name]()
            worst = float(np.max(np.abs(X - want)))
            want_kernel = {"fourdim": 1, "flat_nambu": 0, "quasisymmetry": 0}[name]
        if worst > SOLVE_TOL * (1 + float(np.max(np.abs(X)))):
            return f"solution off the reference by {worst:.3e}"
        if rep["kernel_dim"] != want_kernel:
            return f"kernel_dim {rep['kernel_dim']}, want {want_kernel}"
        return None

    # -- rates and probe inputs ---------------------------------------------

    def report(self, timing: Timing, outputs):
        op_s = timing.op_median_ref_s()
        steps = [len(_parse_sim(o.stdout)[1]) - 1 if o.rc == 0 else 0
                 for o in outputs[:len(self.sims)]]

        def rate(route):
            idx = [i for i, s in enumerate(self.sims) if s.route == route]
            return sum(steps[i] for i in idx) / sum(op_s[i] for i in idx)

        ref_s = timing.ref_s()
        solve_ms = [1e3 * t for i in range(len(self.sims), len(self.sims) + len(self.solves))
                    for t in ref_s[i]]
        return [("tensor_steps_per_s", rate("tensor"), "steps/s"),
                ("rkf45_steps_per_s", rate("rkf45"), "steps/s"),
                ("form_steps_per_s", rate("form"), "steps/s"),
                ("solve_ms_p50", statistics.median(solve_ms), "ms")]

    def probe_set(self, outputs):
        g = self.ghm
        systems = {
            "oscillator rk4": g.systems.build("oscillator"),
            "quasisymmetry rk4": g.systems.build("quasisymmetry"),
            "flat_nambu(4,3) form": g.systems.build("flat_nambu", n=4, k=3),
            "oscillator form": g.cli.load_config(self.configs["oscillator_form"]),
            "fourdim form": g.cli.load_config(self.configs["fourdim_form"]),
        }
        pairs = []
        for sim, res in zip(self.sims, outputs):
            if sim.label in systems and res.rc == 0:
                S = _parse_sim(res.stdout)[1][:, 1:1 + len(sim.x0)]
                pts = [tuple(map(float, x)) for x in S[np.linspace(0, len(S) - 1, 6).astype(int)]]
                pairs.append((systems[sim.label], pts))
        # the solve latencies come from this run's own traced "cli.solve" spans
        return ProbeSet(systems=pairs, configs=list(self.configs.values()))


# ---------------------------------------------------------------------------
# verify-builtins
# ---------------------------------------------------------------------------

CHECKS = (("oscillator", 60, 1), ("fourdim", 120, 1), ("quasisymmetry", 60, 0),
          ("flat_nambu", 80, 0))  # (system, samples, expected exit code)
FLATTENS = (("moser1", ("--f", "2"), 150, False), ("moser2", (), 80, False),
            ("moser1", ("--f", "2"), 4, True))  # (example, flags, samples, numeric)


class VerifyBuiltins(Workload):
    """``ghm check`` on the built-in systems and ``ghm flatten`` on the
    Moser examples: few systems, many points, no hat-map solves."""

    name = "verify-builtins"

    def __init__(self, ghm, seed, out_dir):
        super().__init__(ghm, seed, out_dir)
        self.checks = [(name, samples, rc, self._seed()) for name, samples, rc in CHECKS]
        self.flattens = [(ex, flags, samples, numeric, self._seed())
                         for ex, flags, samples, numeric in FLATTENS]

    def setup(self):
        """Build each system and flattening problem once and make one call on it."""
        g = self.ghm
        built = [g.systems.build(name) for name, *_ in CHECKS]
        for s in built:
            g.vector_field_of(s, s.base_point, route="tensor")
        problems = [g.systems.build_moser("moser1", f=2.0), g.systems.build_moser("moser2")]
        for m in problems:
            center = tuple((lo + hi) / 2 for lo, hi in m.domain)
            g.verify_flattening(m, 1.0, [center])

    def ops(self):
        main = self.ghm.cli.main
        ops = []
        for i, (name, samples, _, seed) in enumerate(self.checks):
            path = self.out / f"check-{i}.json"
            ops.append(cli_op(main, f"check {name}", ["check", name, "--samples", str(samples),
                                                      "--seed", str(seed), "--json", str(path)],
                              path))
        for i, (example, flags, samples, numeric, seed) in enumerate(self.flattens):
            path = self.out / f"flatten-{i}.json"
            argv = ["flatten", example, *flags, "--t", "1", "--samples", str(samples),
                    "--seed", str(seed), "--json", str(path)] + (["--numeric"] if numeric else [])
            ops.append(cli_op(main, f"flatten {example}{' numeric' if numeric else ''}", argv, path))
        return ops

    def check(self, outputs):
        verdicts = []
        for (name, samples, want_rc, seed), res in zip(self.checks, outputs):
            verdicts.append(_guarded(self._check_identities, name, samples, want_rc,
                                             seed, res))
        for (example, _, _, numeric, _), res in zip(self.flattens, outputs[len(self.checks):]):
            verdicts.append(_guarded(self._check_flatten, numeric, res))
        return verdicts

    def _check_identities(self, name, samples, want_rc, seed, res: CliResult):
        if res.rc != want_rc:
            return f"exit {res.rc}, want {want_rc}: {res.stderr.strip()[-300:]}"
        checks = _check_json(res)
        # the identities the paper says hold must pass; the two it says fail
        # must fail with the value the closed form gives
        must_pass = {"oscillator": ("closure", "jacobi", "measure"),
                     "fourdim": ("closure", "fi", "measure"),
                     "quasisymmetry": ("closure", "fi", "measure"),
                     "flat_nambu": ("closure", "jacobi", "fi", "measure")}[name]
        for token in must_pass:
            if token not in checks or checks[token]["max_residual"] > CHECK_TOL:
                return f"{token} should hold: {checks.get(token)}"
        if name == "oscillator":
            fi = checks["fi"]
            if abs(fi["max_residual"] - 1.0) > FI_TOL or fi["detail"] != "FIb":
                return f"fundamental identity residual {fi['max_residual']!r} ({fi['detail']}), want 1 (FIb)"
        if name == "fourdim":
            pts = ref.sample_points(seed, ((-3, 3), (-3, 3), (-3, 3), (0.1, 5.0)), samples)
            want = float(np.max(1.0 / pts[:, 3] ** 3))
            got = checks["jacobi"]["max_residual"]
            if abs(got - want) > 1e-9 * want:
                return f"Jacobi maximum {got!r}, want max 1/x4^3 = {want!r}"
        return None

    @staticmethod
    def _check_flatten(numeric, res: CliResult):
        if res.rc != 0:
            return f"exit {res.rc}: {res.stderr.strip()[-300:]}"
        residual = json.loads(res.json)["residual"]
        tol = FLATTEN_NUMERIC_TOL if numeric else FLATTEN_CLOSED_TOL
        return None if residual <= tol else f"pullback residual {residual:.3e} > {tol:g}"

    def report(self, timing: Timing, outputs):
        op_s = timing.op_median_ref_s()
        n_checks = len(self.checks)
        scanned = [samples * len(_check_json(res))
                   for res, (_, samples, _, _) in zip(outputs, self.checks)]

        def flatten_rate(numeric):
            idx = [n_checks + i for i, f in enumerate(self.flattens) if f[3] == numeric]
            return sum(self.flattens[i - n_checks][2] for i in idx) / sum(op_s[i] for i in idx)

        return [("check_points_per_s", sum(scanned) / sum(op_s[:n_checks]), "points/s"),
                ("flatten_points_per_s", flatten_rate(False), "points/s"),
                ("flatten_numeric_points_per_s", flatten_rate(True), "points/s")]

    def probe_set(self, outputs):
        g = self.ghm
        pairs = []
        for name, samples, _, seed in self.checks:
            s = g.systems.build(name)
            pts = ref.sample_points(seed, s.domain, samples)[:6]
            pairs.append((s, [tuple(map(float, p)) for p in pts]))
        moser = []
        for example, flags, samples, numeric, seed in self.flattens:
            if numeric:
                continue
            m = g.systems.build_moser(example)
            pts = ref.sample_points(seed, m.domain, samples)[:6]
            moser.append((m, [tuple(map(float, p)) for p in pts]))
        solve_argvs = [["solve", s.name, f"--point={_fmt(p)}"] for s, pts in pairs for p in pts]
        return ProbeSet(systems=pairs, moser=moser, solve_argvs=solve_argvs)


# ---------------------------------------------------------------------------
# family-sweep
# ---------------------------------------------------------------------------

FAMILY_SIZE = 6  # random systems per round
FAMILY_SAMPLES = 4  # points per system


class FamilySweep(Workload):
    """Random quasisymmetric fields: each is parsed, differentiated, built
    and checked at a handful of points, by the CLI and through the library."""

    name = "family-sweep"

    def __init__(self, ghm, seed, out_dir):
        super().__init__(ghm, seed, out_dir)
        self.point_seeds = [self._seed() for _ in range(FAMILY_SIZE)]
        self.points = [ref.sample_points(s, ref.QS_DOMAIN, FAMILY_SAMPLES) for s in self.point_seeds]
        # screen on the program's own validation samples (seed 0, 40 points),
        # the base point, every check point, and a spread of extra points
        screen = np.vstack([ref.sample_points(0, ref.QS_DOMAIN, 40), [ref.QS_BASE],
                            *self.points, ref.sample_points(self._seed(), ref.QS_DOMAIN, 64)])
        self.fields = ref.random_qs_fields(self.rng, FAMILY_SIZE, screen)

    def _build(self, field: ref.QSField):
        return self.ghm.systems.build("quasisymmetry", psi=field.psi_text, bvec=field.b_texts)

    def setup(self):
        """Build the run's first random system and evaluate its field once."""
        qs = self._build(self.fields[0])
        self.ghm.vector_field_of(qs, ref.QS_BASE)

    def _chain(self, field: ref.QSField, pts: np.ndarray):
        """Build, validate and verify one field through the library:
        iota_u w + dPsi ^ dB at each point, plus u and grad Psi, grad|B|."""
        g = self.ghm
        qs = self._build(field)
        u = qs.extras["u"]
        sigma = qs.sigma()
        iw = g.exterior.interior_vector_field(u, qs.form)
        out = []
        for p in pts:
            p = tuple(float(v) for v in p)
            out.append(((iw.at(p) + sigma.at(p)).max_abs(), tuple(u.at(p)),
                        tuple(qs.hamiltonians[0].gradient(p)), tuple(qs.hamiltonians[1].gradient(p))))
        return tuple(out)

    def ops(self):
        main = self.ghm.cli.main
        ops = []
        for i, (field, seed) in enumerate(zip(self.fields, self.point_seeds)):
            path = self.out / f"family-{i}.json"
            argv = ["check", "quasisymmetry", f"--psi={field.psi_text}",
                    f"--bvec={';'.join(field.b_texts)}", "--samples", str(FAMILY_SAMPLES),
                    "--seed", str(seed), "--json", str(path)]
            ops.append(cli_op(main, f"check random field {i}", argv, path))
            ops.append(Op(f"library chain random field {i}", "library.chain",
                          lambda f=field, p=self.points[i]: self._chain(f, p)))
        return ops

    def check(self, outputs):
        verdicts = []
        for i, field in enumerate(self.fields):
            verdicts.append(_guarded(self._check_cli, outputs[2 * i]))
            verdicts.append(_guarded(self._check_chain, field, self.points[i],
                                             outputs[2 * i + 1]))
        return verdicts

    @staticmethod
    def _check_cli(res: CliResult):
        if res.rc != 0:
            return f"exit {res.rc}: {res.stderr.strip()[-300:]}"
        checks = _check_json(res)
        if set(checks) != {"closure", "fi", "measure"}:
            return f"identities {sorted(checks)}, want closure, fi, measure"
        for token in ("closure", "fi"):
            if checks[token]["max_residual"] > CHECK_TOL:
                return f"{token} should hold: {checks[token]}"
        if checks["measure"]["max_residual"] > MEASURE_TOL:
            return f"measure residual {checks['measure']['max_residual']:.3e} > {MEASURE_TOL:g}"
        return None

    @staticmethod
    def _check_chain(field: ref.QSField, pts, result):
        ev = field.evaluate(pts)
        for j, (chain, u, gpsi, gb) in enumerate(result):
            u = np.array(u)
            if chain > CHAIN_TOL:
                return f"iota_u w + dPsi^dB = {chain:.3e} > {CHAIN_TOL:g}"
            orth = max(abs(float(u @ np.array(gpsi))), abs(float(u @ np.array(gb))))
            if orth > ORTH_TOL:
                return f"u.grad residual {orth:.3e} > {ORTH_TOL:g}"
            dev = float(np.max(np.abs(u - ev["u"][j]))) / (1 + float(np.max(np.abs(ev["u"][j]))))
            if dev > 1e-10:
                return f"u differs from the numpy field by {dev:.3e}"
        return None

    def report(self, timing: Timing, outputs):
        return [("systems_per_s", len(self.fields) / sum(timing.op_median_ref_s()), "systems/s")]

    def probe_set(self, outputs):
        pairs = [(self._build(f), [tuple(map(float, p)) for p in pts])
                 for f, pts in zip(self.fields, self.points)]
        solve_argvs = [["solve", "quasisymmetry", f"--psi={f.psi_text}",
                        f"--bvec={';'.join(f.b_texts)}", f"--point={_fmt(p)}"]
                       for f, pts in zip(self.fields, self.points) for p in pts]
        return ProbeSet(systems=pairs, solve_argvs=solve_argvs)


WORKLOADS = {w.name: w for w in (Integrate, VerifyBuiltins, FamilySweep)}
