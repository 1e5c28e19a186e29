"""Command-line front end: list, check, solve, simulate, flatten.

Exit codes: 0 pass, 1 identity-check failure, 2 input error, 3 runtime
failure (integration stopped early).  All sampling goes through an explicit
--seed (default 0, numpy PCG64), so outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .dynamics import SystemSpec, conservation_report, integrate, sample_box, verify_flattening
from .errors import GhmError, InputError, IntegrationError, ParseError
from .exterior import FormField, MultiVectorField
from .expr import ScalarField
from .hdw import solve_hdw
from .identities import (
    IdentityReport,
    Scan,
    closure_scan,
    fundamental_identity_scan,
    jacobi_scan,
    measure_scan,
    run_scans,
)
from .systems import CATALOG, MOSER_CATALOG, build, build_moser

RNG_NAME = "numpy-PCG64"


# ---------------------------------------------------------------------------
# Config documents
# ---------------------------------------------------------------------------

def _config_error(message: str, *path) -> InputError:
    """An error at the member ``path`` names it by its RFC 6901 JSON pointer,
    with '~' written '~0' and '/' written '~1'; the document itself is '/'."""
    pointer = "/" + "/".join(str(t).replace("~", "~0").replace("/", "~1") for t in path)
    return InputError(f"config error at {pointer}: {message}")


def _numbers(value, count: int) -> tuple[float, ...] | None:
    """``value`` as ``count`` floats if it is a JSON list of that many finite
    numbers, else None."""
    if not isinstance(value, list) or len(value) != count:
        return None
    out = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return None
        try:
            out.append(float(v))
        except OverflowError:  # an integer literal beyond the float range
            return None
    return tuple(out) if all(map(math.isfinite, out)) else None


def load_config(path: str) -> SystemSpec:
    """Build a system from a JSON document.

    Schema: {"name", "n", "k", "mode": "form"|"tensor",
             "coefficients": {"1,2,3": "expr", ...},
             "hamiltonians": ["expr", ...], "params": {"name": number, ...},
             "domain": [[lo, hi], ...], "aliases": ["name", ...],
             "base_point": [...]}.
    Multi-index keys are comma-joined ascending integers.  Every number must
    be finite, each domain pair must have lo < hi, aliases must pass
    ``expr.alias_fault``, and every malformed member is an ``InputError``
    naming its JSON pointer.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _config_error("expected a JSON object")

    def need(key, types):
        if key not in doc:
            raise _config_error("missing required member", key)
        if not isinstance(doc[key], types) or isinstance(doc[key], bool):
            raise _config_error(f"expected {types}", key)
        return doc[key]

    name = need("name", str)
    n = need("n", int)
    k = need("k", int)
    mode = need("mode", str)
    if mode not in ("form", "tensor"):
        raise _config_error("must be 'form' or 'tensor'", "mode")
    coeffs_doc = need("coefficients", dict)
    hams_doc = need("hamiltonians", list)
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise _config_error("expected an object of name -> number", "params")
    for key, value in params.items():
        if _numbers([value], 1) is None:
            raise _config_error("expected a finite number", "params", key)
    aliases = doc.get("aliases")
    if aliases is not None and (not isinstance(aliases, list) or len(aliases) != n
                                or not all(isinstance(a, str) for a in aliases)):
        raise _config_error(f"expected {n} coordinate names", "aliases")
    aliases_t = tuple(aliases) if aliases else None
    if aliases_t is not None and (fault := ex.alias_fault(aliases_t, params)) is not None:
        raise _config_error(fault[1], "aliases", fault[0])

    coeffs = {}
    for key_text, expr_text in coeffs_doc.items():
        path = ("coefficients", key_text)
        try:
            key = tuple(int(s) for s in key_text.split(","))
        except ValueError:
            raise _config_error("key must be comma-joined integers", *path) from None
        if len(key) != k or any(key[i] >= key[i + 1] for i in range(len(key) - 1)) \
                or key[0] < 1 or key[-1] > n:
            raise _config_error(f"key must be {k} strictly increasing axes in 1..{n}", *path)
        if not isinstance(expr_text, str):
            raise _config_error("expected an expression string", *path)
        try:
            coeffs[key] = ex.parse(expr_text, n, params, aliases_t)
        except ParseError as exc:
            raise _config_error(str(exc), *path) from None

    if len(hams_doc) != k - 1:
        raise _config_error(f"expected k-1={k - 1} expressions", "hamiltonians")
    hams = []
    for i, text in enumerate(hams_doc):
        if not isinstance(text, str):
            raise _config_error("expected an expression string", "hamiltonians", i)
        try:
            hams.append(ScalarField.from_text(text, n, params=params,
                                              aliases=aliases_t, name=f"H{i + 1}"))
        except ParseError as exc:
            raise _config_error(str(exc), "hamiltonians", i) from None

    domain_doc = doc.get("domain")
    domain = ()
    if domain_doc is not None:
        if not isinstance(domain_doc, list) or len(domain_doc) != n:
            raise _config_error(f"expected {n} [lo, hi] pairs", "domain")
        domain = tuple(_numbers(pair, 2) for pair in domain_doc)
        for i, pair in enumerate(domain):
            if pair is None or not (pair[0] < pair[1] and math.isfinite(pair[1] - pair[0])):
                raise _config_error("expected [lo, hi], finite numbers with lo < hi",
                                    "domain", i)

    base = doc.get("base_point")
    base_t = None if base is None else _numbers(base, n)
    if base is not None and base_t is None:
        raise _config_error(f"expected {n} finite numbers", "base_point")

    tensor = MultiVectorField(n, k, coeffs) if mode == "tensor" else None
    system = SystemSpec(
        name=name, n=n, k=k, hamiltonians=tuple(hams), mode=mode,
        form=FormField(n, k, coeffs) if mode == "form" else None, tensor=tensor,
        reduced_tensor=tensor if k == 2 else None,
        domain=domain, base_point=base_t,
    )
    system.validate()
    return system


# every system flag by its dest: (flag, the built-in system that takes it)
_SYSTEM_FLAGS = {"lam": ("--lam", "oscillator"), "hamiltonian": ("--H", "fourdim"),
                 "psi": ("--psi", "quasisymmetry"), "bvec": ("--bvec", "quasisymmetry"),
                 "n": ("--n", "flat_nambu"), "k": ("--k", "flat_nambu")}


def _resolve_system(args) -> SystemSpec:
    """The ``--config`` system, or the built-in system named with its flags.
    A system flag given to another system, or a name or system flag next to
    ``--config``, is an input error: no flag is dropped silently."""
    given = {dest: getattr(args, dest) for dest in _SYSTEM_FLAGS
             if getattr(args, dest) is not None}
    if args.config is not None:
        if args.system is not None or given:
            raise InputError("--config takes no system name or system flag")
        return load_config(args.config)
    name = args.system
    if name is None:
        raise InputError("a system name or --config is required")
    for dest in given:
        flag, owner = _SYSTEM_FLAGS[dest]
        if name != owner and name in CATALOG:
            raise InputError(f"{flag} applies only to {owner}, not to {name}")
    if "bvec" in given:
        given["bvec"] = tuple(given["bvec"].split(";"))
        if len(given["bvec"]) != 3:
            raise InputError("--bvec needs three ';'-separated expressions")
    return build(name, **given)


def _parse_point(text: str, n: int, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(s) for s in text.split(","))
    except ValueError:
        raise InputError(f"{what} must be comma-separated numbers") from None
    if len(values) != n:
        raise InputError(f"{what} must have length {n}, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise InputError(f"{what} must be finite numbers")
    return values


# every numeric flag by its dest: (lower bound or None, whether the value
# must exceed the bound rather than reach it)
_NUMBER_FLAGS = {
    "samples": (1, False), "seed": (0, False), "tol": (0, False),
    "reltol": (0, True), "dt": (0, True), "t_end": (0, True), "f": (0, True), "g": (0, True),
    "t": (None, False), "lam": (None, False),
}


def _check_numbers(args) -> None:
    """The one rule for numeric flags: a value given is finite and meets its
    bound in ``_NUMBER_FLAGS``, or the call is an input error."""
    for dest, (low, strict) in _NUMBER_FLAGS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        below = low is not None and (value <= low if strict else value < low)
        if below or not math.isfinite(value):
            bound = "" if low is None else f" {'>' if strict else '>='} {low}"
            raise InputError(f"--{dest.replace('_', '-')} must be a finite number{bound}, "
                             f"got {value!r}")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _available_checks(system: SystemSpec) -> list[tuple[str, str, Callable[[], Scan]]]:
    """(token, label, builder) of each identity that applies to the system, in
    report order; a builder does its symbolic work only when called."""
    checks: list[tuple[str, str, Callable[[], Scan]]] = []
    if system.form is not None:
        checks.append(("closure", "closure(w)", lambda: closure_scan(system.form)))
    if system.reduced_tensor is not None:
        checks.append(("jacobi", system.jacobi_label,
                       lambda: jacobi_scan(system.reduced_tensor)))
    if system.tensor is not None and system.tensor.k == 3:
        checks.append(("fi", "fundamental-identity",
                       lambda: fundamental_identity_scan(system.tensor)))
    if system.tensor is not None:
        weight = system.measure_weight if system.measure_weight is not None else 1.0
        checks.append(("measure", "measure", lambda: measure_scan(system.tensor, weight)))
    return checks


def _check_reports(system: SystemSpec, points, tokens) -> list[tuple[str, str, IdentityReport]]:
    """(token, label, report) of each check named in ``tokens``, in report
    order, from one compiled bundle of their scans evaluated once per point."""
    checks = [c for c in _available_checks(system) if c[0] in tokens]
    reports = run_scans([build() for _, _, build in checks], points)
    return [(token, label, rep) for (token, label, _), rep in zip(checks, reports)]


def cmd_check(args) -> int:
    system = _resolve_system(args)
    rng = np.random.default_rng(args.seed)
    points = sample_box(rng, system.domain, args.samples)
    have = [token for token, _, _ in _available_checks(system)]
    wanted = have
    if args.identities is not None:
        wanted = [t.strip() for t in args.identities.split(",") if t.strip()]
        if not wanted:
            raise InputError("--identities names no identity")
        unknown = [t for t in wanted if t not in {"closure", "jacobi", "fi", "measure"}]
        if unknown:
            raise InputError(f"unknown identities: {', '.join(unknown)}")
        missing = [t for t in wanted if t not in have]
        if missing:
            raise InputError(
                f"identities not applicable to {system.name!r}: {', '.join(missing)}")
    reports = _check_reports(system, points, wanted)

    print(f"system {system.name}  n={system.n} k={system.k}  "
          f"samples={args.samples} seed={args.seed} rng={RNG_NAME} tol={args.tol:g}")
    header = f"{'identity':24} {'max_residual':>14} {'argmax_point':>34} {'status':>8}"
    print(header)
    all_pass = True
    digests = []
    for token, label, rep in reports:
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
    drifts = conservation_report(traj)
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
    if args.g is not None:
        if args.example != "moser2":
            raise InputError(f"--g applies only to moser2, not to {args.example}")
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
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--identities", default=None,
                   help="comma list from closure,jacobi,fi,measure (default: all applicable)")
    p.add_argument("--json", default=None, help="write the report to this path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="solve iota_X w = -sigma at a point")
    _add_system_flags(p)
    p.add_argument("--tol", type=float, default=1e-9)
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


# built on the first call of ``main``, since building takes milliseconds
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_numbers(args)
        return args.func(args)
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 3
    except GhmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
