"""Command-line front end: list, check, solve, simulate, flatten.

Exit codes: 0 pass, 1 identity-check failure, 2 input error, 3 runtime
failure (integration stopped early).  All sampling goes through an explicit
--seed (default 0, numpy PCG64), so outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from . import expr as ex
from .dynamics import SystemSpec, conservation_report, integrate, sample_box, verify_flattening
from .errors import GhmError, InputError, IntegrationError, ParseError
from .exterior import FormField, MultiVectorField
from .expr import ScalarField
from .hdw import solve_hdw
from .identities import (
    IdentityReport,
    closure_residual,
    fundamental_identity_residual,
    jacobi_residual,
    measure_residual,
)
from .systems import CATALOG, MOSER_CATALOG, build, build_moser

RNG_NAME = "numpy-PCG64"


# ---------------------------------------------------------------------------
# Config documents
# ---------------------------------------------------------------------------

def _config_error(pointer: str, message: str) -> InputError:
    return InputError(f"config error at {pointer}: {message}")


def load_config(path: str) -> SystemSpec:
    """Build a system from a JSON document.

    Schema: {"name", "n", "k", "mode": "form"|"tensor",
             "coefficients": {"1,2,3": "expr", ...},
             "hamiltonians": ["expr", ...], "params": {...},
             "domain": [[lo, hi], ...], "aliases": [...],
             "base_point": [...]}.
    Multi-index keys are comma-joined ascending integers.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _config_error("/", "expected a JSON object")

    def need(key, types, pointer):
        if key not in doc:
            raise _config_error(pointer, "missing required member")
        if not isinstance(doc[key], types):
            raise _config_error(pointer, f"expected {types}")
        return doc[key]

    name = need("name", str, "/name")
    n = need("n", int, "/n")
    k = need("k", int, "/k")
    mode = need("mode", str, "/mode")
    if mode not in ("form", "tensor"):
        raise _config_error("/mode", "must be 'form' or 'tensor'")
    coeffs_doc = need("coefficients", dict, "/coefficients")
    hams_doc = need("hamiltonians", list, "/hamiltonians")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise _config_error("/params", "expected an object of name -> number")
    aliases = doc.get("aliases")
    if aliases is not None and (not isinstance(aliases, list) or len(aliases) != n):
        raise _config_error("/aliases", f"expected {n} coordinate names")
    aliases_t = tuple(aliases) if aliases else None

    coeffs = {}
    for key_text, expr_text in coeffs_doc.items():
        pointer = f"/coefficients/{key_text}"
        try:
            key = tuple(int(s) for s in key_text.split(","))
        except ValueError:
            raise _config_error(pointer, "key must be comma-joined integers") from None
        if len(key) != k or any(key[i] >= key[i + 1] for i in range(len(key) - 1)) \
                or key[0] < 1 or key[-1] > n:
            raise _config_error(pointer, f"key must be {k} strictly increasing axes in 1..{n}")
        try:
            e = ex.parse(expr_text, n, params=params.keys(), aliases=aliases_t)
            coeffs[key] = ex.bind_params(e, params)
        except ParseError as exc:
            raise _config_error(pointer, str(exc)) from None

    if len(hams_doc) != k - 1:
        raise _config_error("/hamiltonians", f"expected k-1={k - 1} expressions")
    hams = []
    for i, text in enumerate(hams_doc):
        try:
            hams.append(ScalarField.from_text(text, n, params=params,
                                              aliases=aliases_t, name=f"H{i + 1}"))
        except ParseError as exc:
            raise _config_error(f"/hamiltonians/{i}", str(exc)) from None

    domain_doc = doc.get("domain")
    domain = ()
    if domain_doc is not None:
        if not isinstance(domain_doc, list) or len(domain_doc) != n:
            raise _config_error("/domain", f"expected {n} [lo, hi] pairs")
        domain = tuple((float(lo), float(hi)) for lo, hi in domain_doc)

    base = doc.get("base_point")
    base_t = tuple(float(v) for v in base) if base is not None else None

    if mode == "form":
        structure = {"form": FormField(n, k, coeffs), "tensor": None}
    else:
        structure = {"form": None, "tensor": MultiVectorField(n, k, coeffs)}
    system = SystemSpec(
        name=name, n=n, k=k, hamiltonians=tuple(hams), mode=mode,
        params=dict(params), domain=domain, aliases=aliases_t,
        base_point=base_t, **structure,
    )
    if system.tensor is not None and system.tensor.k == 2:
        system.reduced_tensor = system.tensor
    system.validate()
    return system


def _resolve_system(args) -> SystemSpec:
    if getattr(args, "config", None):
        return load_config(args.config)
    name = args.system
    if name is None:
        raise InputError("a system name or --config is required")
    kwargs = {}
    if name == "oscillator" and args.lam is not None:
        kwargs["lam"] = args.lam
    if name == "fourdim" and getattr(args, "hamiltonian", None):
        kwargs["hamiltonian"] = args.hamiltonian
    if name == "quasisymmetry":
        if getattr(args, "psi", None):
            kwargs["psi"] = args.psi
        if getattr(args, "bvec", None):
            parts = args.bvec.split(";")
            if len(parts) != 3:
                raise InputError("--bvec needs three ';'-separated expressions")
            kwargs["bvec"] = tuple(parts)
    if name == "flat_nambu":
        if args.n is not None:
            kwargs["n"] = args.n
        if args.k is not None:
            kwargs["k"] = args.k
    return build(name, **kwargs)


def _parse_point(text: str, n: int, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(s) for s in text.split(","))
    except ValueError:
        raise InputError(f"{what} must be comma-separated numbers") from None
    if len(values) != n:
        raise InputError(f"{what} must have length {n}, got {len(values)}")
    return values


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _available_checks(system: SystemSpec, points, tol: float):
    checks: list[tuple[str, str, IdentityReport]] = []  # (token, label, report)
    if system.form is not None:
        checks.append(("closure", "closure(w)", closure_residual(system.form, points)))
    if system.reduced_tensor is not None:
        checks.append(("jacobi", system.jacobi_label,
                       jacobi_residual(system.reduced_tensor, points)))
    if system.tensor is not None and system.tensor.k == 3:
        checks.append(("fi", "fundamental-identity",
                       fundamental_identity_residual(system.tensor, points)))
    if system.tensor is not None:
        weight = system.measure_weight if system.measure_weight is not None else 1.0
        checks.append(("measure", "measure",
                       measure_residual(system.tensor, weight, points)))
    return checks


def cmd_check(args) -> int:
    system = _resolve_system(args)
    rng = np.random.default_rng(args.seed)
    points = sample_box(rng, system.domain, args.samples)
    checks = _available_checks(system, points, args.tol)
    if args.identities:
        wanted = [t.strip() for t in args.identities.split(",") if t.strip()]
        have = {token for token, _, _ in checks}
        unknown = [t for t in wanted if t not in {"closure", "jacobi", "fi", "measure"}]
        if unknown:
            raise InputError(f"unknown identities: {', '.join(unknown)}")
        missing = [t for t in wanted if t not in have]
        if missing:
            raise InputError(
                f"identities not applicable to {system.name!r}: {', '.join(missing)}")
        checks = [c for c in checks if c[0] in wanted]

    print(f"system {system.name}  n={system.n} k={system.k}  "
          f"samples={args.samples} seed={args.seed} rng={RNG_NAME} tol={args.tol:g}")
    header = f"{'identity':24} {'max_residual':>14} {'argmax_point':>34} {'status':>8}"
    print(header)
    all_pass = True
    digests = []
    for token, label, rep in checks:
        ok = rep.passes(args.tol)
        all_pass &= ok
        point_text = "(" + ", ".join(f"{v:.4g}" for v in rep.argmax_point) + ")"
        print(f"{label:24} {rep.max_residual:>14.3e} {point_text:>34} "
              f"{'PASS' if ok else 'FAIL':>8}")
        digests.append({"token": token, "label": label, "pass": ok, **rep.to_dict()})
    print(f"overall: {'PASS' if all_pass else 'FAIL'}")
    if args.json:
        payload = {
            "system": system.name,
            "seed": args.seed,
            "samples": args.samples,
            "rng": RNG_NAME,
            "tolerance": args.tol,
            "checks": digests,
            "pass": all_pass,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    system = _resolve_system(args)
    if system.form is None:
        raise InputError(f"system {system.name!r} exposes no form structure to solve")
    point = _parse_point(args.point, system.n, "--point")
    report = solve_hdw(system.form, system.sigma(), point, args.tol)
    print(report.to_json())
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    system = _resolve_system(args)
    x0 = _parse_point(args.x0, system.n, "--x0")
    traj = integrate(system, x0, t_end=args.t_end, dt=args.dt,
                     method=args.method, reltol=args.reltol)
    if system.mode == "form":
        kernel_dim = solve_hdw(system.form, system.sigma(), x0).kernel_dim
        if kernel_dim > 0:
            print(f"note: the hat map at x0 has a {kernel_dim}-dimensional kernel, so the "
                  f"integrated minimum-norm field is one member of a {kernel_dim}-parameter "
                  f"family of solutions", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            traj.to_csv(fh)
    else:
        traj.to_csv(sys.stdout)
    drifts = conservation_report(traj, system)
    for name in traj.invariant_names:
        print(f"drift[{name}] = {drifts[name]:.3e}")
    if traj.truncated:
        print(f"truncated: {traj.note}")
        return 3
    return 0


# ---------------------------------------------------------------------------
# flatten
# ---------------------------------------------------------------------------

def cmd_flatten(args) -> int:
    kwargs = {}
    if args.f is not None:
        kwargs["f"] = args.f
    if args.g is not None and args.example == "moser2":
        kwargs["g"] = args.g
    problem = build_moser(args.example, **kwargs)
    rng = np.random.default_rng(args.seed)
    points = sample_box(rng, problem.domain, args.samples)
    route = "numeric" if args.numeric else "closed"
    residual = verify_flattening(problem, args.t, points, flow=route)
    print(f"example {problem.name}  t={args.t:g}  samples={args.samples} "
          f"seed={args.seed} rng={RNG_NAME} flow={route}")
    print(f"max pullback residual = {residual:.3e}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"example": problem.name, "t": args.t, "flow": route,
                       "samples": args.samples, "seed": args.seed, "rng": RNG_NAME,
                       "residual": residual}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------

def cmd_list(_args) -> int:
    from .systems import SYSTEM_NOTES

    print("systems:")
    for name in sorted(CATALOG):
        system = build(name)
        params = ", ".join(f"{k}={v}" for k, v in sorted(CATALOG[name][1].items()))
        note = SYSTEM_NOTES.get(name, "")
        print(f"  {name:16} n={system.n} k={system.k}  params: {params or '-'}  -- {note}")
    print("flattening examples:")
    for name in sorted(MOSER_CATALOG):
        _, defaults = MOSER_CATALOG[name]
        params = ", ".join(f"{k}={v}" for k, v in sorted(defaults.items()))
        print(f"  {name:16} params: {params}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("system", nargs="?", help="built-in system name")
    p.add_argument("--config", help="JSON system definition")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--lam", type=float, default=None, help="oscillator coupling")
    p.add_argument("--H", dest="hamiltonian", default=None, help="fourdim Hamiltonian expression")
    p.add_argument("--psi", default=None, help="quasisymmetry flux expression")
    p.add_argument("--bvec", default=None, help="quasisymmetry field, three ';'-separated expressions")
    p.add_argument("--n", type=int, default=None, help="flat_nambu dimension")
    p.add_argument("--k", type=int, default=None, help="flat_nambu degree")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ghm",
                                     description="generalized Hamiltonian mechanics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list built-in systems")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("check", help="run structural identity checks")
    _add_system_flags(p)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--identities", default=None,
                   help="comma list from closure,jacobi,fi,measure (default: all applicable)")
    p.add_argument("--json", default=None, help="write the report to this path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="solve iota_X w = -sigma at a point")
    _add_system_flags(p)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="integrate a trajectory, write CSV")
    _add_system_flags(p)
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--t-end", dest="t_end", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--method", choices=("rk4", "rkf45"), default="rk4")
    p.add_argument("--reltol", type=float, default=1e-9)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("flatten", help="verify a flattening example")
    p.add_argument("example", choices=sorted(MOSER_CATALOG))
    p.add_argument("--f", type=float, default=None)
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--numeric", action="store_true", help="use the numeric flow route")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_flatten)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 3
    except GhmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
